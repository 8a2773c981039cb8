//! Serving-layer counters surfaced on `GET /stats`: per-endpoint request
//! counts, reactor/pool counters from [`NetMetrics`], and a log₂-bucketed
//! handler-latency histogram (p50/p95/p99 without storing samples).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use hta_net::NetMetrics;

/// The endpoints tracked individually; anything else lands in `other`.
pub const ENDPOINTS: [&str; 13] = [
    "health",
    "register",
    "assign",
    "assign_batch",
    "complete",
    "tasks",
    "stats",
    "snapshot",
    "reputation",
    "topk",
    "candidates",
    "cluster",
    "other",
];

/// Number of log₂ latency buckets; bucket `k` covers `[2^k, 2^(k+1))` µs,
/// so 32 buckets span sub-microsecond to over an hour.
const LAT_BUCKETS: usize = 32;

/// A lock-free histogram of handler latencies in microseconds.
struct LatencyHisto {
    buckets: [AtomicU64; LAT_BUCKETS],
    count: AtomicU64,
    sum_us: AtomicU64,
    max_us: AtomicU64,
}

impl LatencyHisto {
    fn new() -> Self {
        Self {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum_us: AtomicU64::new(0),
            max_us: AtomicU64::new(0),
        }
    }

    fn record(&self, elapsed: Duration) {
        let us = elapsed.as_micros().min(u128::from(u64::MAX)) as u64;
        let bucket = (64 - us.max(1).leading_zeros() as usize - 1).min(LAT_BUCKETS - 1);
        self.buckets[bucket].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum_us.fetch_add(us, Ordering::Relaxed);
        self.max_us.fetch_max(us, Ordering::Relaxed);
    }

    /// Approximate quantiles from the bucket counts: each reported value is
    /// the upper bound (exclusive, in µs) of the bucket holding the
    /// quantile, so it over-reports by at most 2×.
    fn quantiles(&self, qs: &[f64]) -> Vec<u64> {
        let loads: Vec<u64> = self
            .buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect();
        let total: u64 = loads.iter().sum();
        qs.iter()
            .map(|&q| {
                if total == 0 {
                    return 0;
                }
                let rank = ((q * total as f64).ceil() as u64).clamp(1, total);
                let mut cumulative = 0u64;
                for (k, &n) in loads.iter().enumerate() {
                    cumulative += n;
                    if cumulative >= rank {
                        return 1u64 << (k + 1).min(63);
                    }
                }
                1u64 << 63
            })
            .collect()
    }
}

/// Counters for the serving layer, shared between the reactor handler and
/// the `/stats` endpoint. All methods are lock-free.
pub struct ServingMetrics {
    /// The reactor-core counters (connections, queue depth, 503s).
    pub net: Arc<NetMetrics>,
    endpoint_counts: [AtomicU64; ENDPOINTS.len()],
    latency: LatencyHisto,
}

impl ServingMetrics {
    /// Wrap the reactor counters.
    pub fn new(net: Arc<NetMetrics>) -> Self {
        Self {
            net,
            endpoint_counts: std::array::from_fn(|_| AtomicU64::new(0)),
            latency: LatencyHisto::new(),
        }
    }

    fn endpoint_index(path: &str) -> usize {
        let name = path.strip_prefix('/').unwrap_or(path);
        ENDPOINTS
            .iter()
            .position(|&e| e == name)
            .unwrap_or(ENDPOINTS.len() - 1)
    }

    /// Record one handled request: which endpoint, and how long the handler
    /// ran (solve time included, queue wait excluded).
    pub fn record(&self, path: &str, elapsed: Duration) {
        self.endpoint_counts[Self::endpoint_index(path)].fetch_add(1, Ordering::Relaxed);
        self.latency.record(elapsed);
    }

    /// Requests recorded for `path` (test/introspection helper).
    pub fn endpoint_count(&self, path: &str) -> u64 {
        self.endpoint_counts[Self::endpoint_index(path)].load(Ordering::Relaxed)
    }

    /// The `"serving":{…}` JSON fragment spliced into `GET /stats`.
    pub fn to_json(&self) -> String {
        use std::fmt::Write as _;
        let qs = self.latency.quantiles(&[0.5, 0.95, 0.99]);
        let count = self.latency.count.load(Ordering::Relaxed);
        let mean = if count == 0 {
            0.0
        } else {
            self.latency.sum_us.load(Ordering::Relaxed) as f64 / count as f64
        };
        let mut out = String::from("{");
        let _ = write!(
            out,
            "\"requests\":{},\"inline\":{},\"pooled\":{},\"rejected_503\":{},\"parse_errors\":{},\"queue_depth\":{},\"connections_accepted\":{},\"connections_active\":{}",
            self.net.requests_total(),
            self.net.requests_inline.load(Ordering::Relaxed),
            self.net.requests_pooled.load(Ordering::Relaxed),
            self.net.rejected_busy.load(Ordering::Relaxed),
            self.net.parse_errors.load(Ordering::Relaxed),
            self.net.queue_depth.load(Ordering::Relaxed),
            self.net.connections_accepted.load(Ordering::Relaxed),
            self.net.connections_active(),
        );
        out.push_str(",\"endpoints\":{");
        for (i, name) in ENDPOINTS.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "\"{name}\":{}",
                self.endpoint_counts[i].load(Ordering::Relaxed)
            );
        }
        let _ = write!(
            out,
            "}},\"latency_us\":{{\"count\":{count},\"mean\":{mean:.1},\"p50\":{},\"p95\":{},\"p99\":{},\"max\":{}}}}}",
            qs[0],
            qs[1],
            qs[2],
            self.latency.max_us.load(Ordering::Relaxed),
        );
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn endpoint_counts_and_fallback() {
        let m = ServingMetrics::new(Arc::new(NetMetrics::default()));
        m.record("/assign", Duration::from_micros(120));
        m.record("/assign", Duration::from_micros(80));
        m.record("/no-such-endpoint", Duration::from_micros(5));
        assert_eq!(m.endpoint_count("/assign"), 2);
        assert_eq!(m.endpoint_count("/other"), 1);
        assert_eq!(m.endpoint_count("/stats"), 0);
    }

    #[test]
    fn histogram_quantiles_bracket_the_samples() {
        let m = ServingMetrics::new(Arc::new(NetMetrics::default()));
        for _ in 0..99 {
            m.record("/assign", Duration::from_micros(100)); // bucket [64,128)
        }
        m.record("/assign", Duration::from_millis(50)); // the slow tail
        let json = m.to_json();
        assert!(json.contains("\"count\":100"), "{json}");
        assert!(json.contains("\"p50\":128"), "{json}");
        assert!(json.contains("\"max\":50000"), "{json}");
        // p99 lands in the 100µs bulk (rank 99 of 100), p99's bucket upper
        // bound is still 128µs; the 50ms outlier only shows in max.
        assert!(json.contains("\"p99\":128"), "{json}");
    }

    #[test]
    fn zero_state_serializes_cleanly() {
        let m = ServingMetrics::new(Arc::new(NetMetrics::default()));
        let json = m.to_json();
        assert!(json.contains("\"requests\":0"));
        assert!(json.contains("\"p50\":0"));
        assert!(json.starts_with('{') && json.ends_with('}'));
    }
}

//! Metric names and units, correctness checks, and the result line.

use std::collections::BTreeMap;
use std::path::Path;

use crate::trace::{self, Span};

/// End-to-end metrics printed by untraced runs, with their units.
/// `peak_rss_mb` is measured by the launcher (`run.py`), which waits for
/// this process; everything else is measured here.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("assign_p50_ms", "ms"),
    ("complete_p50_ms", "ms"),
    ("assign_motiv_mean", "motiv"),
    ("sessions_per_s", "sessions/s"),
];

/// Per-layer metrics printed by traced runs, with their units. A layer a
/// workload does not exercise reads 0 there. The first four are end-to-end
/// latencies whose run-to-run spread on a 2-core box is too wide to bound;
/// they come from the untraced phase or passes of the traced run.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("assign_p95_ms", "ms"),
    ("batch_p50_ms", "ms"),
    ("batch_p90_ms", "ms"),
    ("complete_p99_ms", "ms"),
    ("datagen.catalog_s", "s"),
    ("datagen.population_s", "s"),
    ("net.health_rtt_us_p50", "us"),
    ("net.wait_ms_p50", "ms"),
    ("loadgen.lag_ms_p99", "ms"),
    ("server.state.assign_ms_p50", "ms"),
    ("server.state.assign_ms_p95", "ms"),
    ("server.state.batch_ms_p50", "ms"),
    ("server.state.complete_ms_p50", "ms"),
    ("server.state.register_ms_p50", "ms"),
    ("server.stats.rejected_503", "count"),
    ("server.stats.parse_errors", "count"),
    ("index.topk_ms_p50", "ms"),
    ("index.pool_generate_ms_p50", "ms"),
    ("index.open_frac_end", "ratio"),
    ("crowd.platform_new_s", "s"),
    ("crowd.cohort_s", "s"),
    ("crowd.residual_s", "s"),
    ("crowd.iterations", "count"),
    ("solve.calls.cold", "count"),
    ("solve.calls.edges", "count"),
    ("solve.calls.warm", "count"),
    ("solve.calls.warm_sparse", "count"),
    ("solve.ms_p50", "ms"),
    ("solve.ms_p99", "ms"),
    ("solve.total_s", "s"),
    ("solve.edge_enum_s", "s"),
    ("solve.matching_s", "s"),
    ("solve.lsap_s", "s"),
    ("solve.other_s", "s"),
    ("solve.tasks_mean", "tasks"),
    ("solve.workers_mean", "workers"),
    ("matching.repaired", "count"),
    ("matching.rebuilt", "count"),
    ("matching.churn_mean", "tasks"),
    ("sparse.rebinds", "count"),
    ("sparse.repaired", "count"),
    ("sparse.rebuilt", "count"),
    ("sparse.edges_mean", "edges"),
    ("trace.overhead_pct", "%"),
    ("failed_op_ratio", "ratio"),
];

/// Measured metric values by name.
#[derive(Debug, Default)]
pub struct Metrics(BTreeMap<&'static str, f64>);

impl Metrics {
    /// An empty set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Set `name` to `value`.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.0.insert(name, value);
    }

    /// The value of `name`, if measured.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).copied()
    }
}

/// One workload run's outcome.
#[derive(Debug, Default)]
pub struct Report {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations failed.
    pub failed: u64,
    /// Measured metrics.
    pub metrics: Metrics,
    checks: Vec<(bool, String)>,
    notes: Vec<String>,
}

impl Report {
    /// Record a correctness check.
    pub fn check(&mut self, ok: bool, what: String) {
        self.checks.push((ok, what));
    }

    /// Add a free-form line to the human-readable output.
    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    /// Record a sample count and the highest tail it supports.
    pub fn samples(&mut self, what: &str, n: usize) {
        let tail = crate::stats::supported_tail(n, &[0.5, 0.9, 0.95, 0.99])
            .map_or("none".to_owned(), |q| format!("p{}", (q * 100.0).round()));
        self.note(format!("samples: {what}: {n} (tail supported: {tail})"));
    }

    /// Whether every check passed.
    pub fn correct(&self) -> bool {
        self.checks.iter().all(|(ok, _)| *ok)
    }

    /// Write the spans of a traced run to `path` and add a per-span-name
    /// summary (count, total and self time) to the output.
    pub fn write_trace(&mut self, path: &str, spans: &[Span]) {
        match trace::write_jsonl(Path::new(path), spans) {
            Ok(()) => self.note(format!("trace: {} spans written to {path}", spans.len())),
            Err(e) => self.check(false, format!("write trace {path}: {e}")),
        }
        for (name, (count, total, own)) in trace::summarize(spans) {
            self.note(format!(
                "span {name:<26} count {count:>7}  total {:>10.3} ms  self {:>10.3} ms",
                total as f64 / 1e6,
                own as f64 / 1e6
            ));
        }
    }

    /// Print the human-readable lines (every measured metric among them),
    /// then the result as one JSON line with every metric of `table` (a
    /// per-layer metric the workload did not measure reads 0).
    pub fn print(&self, table: &[(&'static str, &'static str)], per_layer: bool) {
        for (ok, what) in &self.checks {
            println!("check {}: {what}", if *ok { "ok" } else { "FAILED" });
        }
        for line in &self.notes {
            println!("{line}");
        }
        for &(name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            if let Some(v) = self.metrics.get(name) {
                println!("metric {name} = {v} {unit}");
            }
        }
        let fields: Vec<String> = table
            .iter()
            .filter_map(|&(name, unit)| {
                let value = match self.metrics.get(name) {
                    Some(v) => v,
                    None if per_layer => 0.0,
                    None => return None,
                };
                Some(format!(
                    "\"{name}\":{{\"value\":{},\"unit\":\"{unit}\"}}",
                    json_number(value)
                ))
            })
            .collect();
        println!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            fields.join(",")
        );
    }
}

/// A finite JSON number (non-finite values print as 0).
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_owned()
    }
}

/// 64-bit FNV-1a: a digest that is stable across processes and builds.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

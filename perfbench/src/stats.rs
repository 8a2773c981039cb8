//! Order statistics over measured samples.

/// Nearest-rank percentile (`q` in `[0, 1]`) of `values`; 0 for no samples.
pub fn percentile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// The median (lower middle for an even count); 0 for no samples.
pub fn median(values: &[f64]) -> f64 {
    percentile(values, 0.5)
}

/// The arithmetic mean; 0 for no samples.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// The highest of `candidates` (ascending percentiles) that `n` samples
/// support with at least ten samples beyond it.
pub fn supported_tail(n: usize, candidates: &[f64]) -> Option<f64> {
    candidates
        .iter()
        .copied()
        .rev()
        .find(|&q| (n as f64) * (1.0 - q) >= 10.0 - 1e-9)
}

/// Set-up timings, sampled in blocks spread over a run so that a burst of
/// outside load during one block does not decide the reported median.
#[derive(Debug, Default)]
pub struct Setups {
    /// Whole set-up, seconds.
    pub total: Vec<f64>,
    /// Catalog generation, seconds.
    pub catalog: Vec<f64>,
    /// Worker keyword / population generation, seconds.
    pub population: Vec<f64>,
}

impl Setups {
    /// Run `set_up` until `budget` seconds have passed (at least once),
    /// dropping each result before the next, and return the last. `set_up`
    /// returns its result with its catalog and population times.
    pub fn block<T>(&mut self, budget: f64, mut set_up: impl FnMut() -> (T, f64, f64)) -> T {
        let started = std::time::Instant::now();
        loop {
            let t0 = std::time::Instant::now();
            let (made, catalog, population) = set_up();
            self.total.push(t0.elapsed().as_secs_f64());
            self.catalog.push(catalog);
            self.population.push(population);
            if started.elapsed().as_secs_f64() >= budget {
                return made;
            }
            drop(made);
        }
    }

    /// One line for the report.
    pub fn note(&self) -> String {
        format!(
            "set-up repeated {} times: median {:.6} s, min {:.6} s, max {:.6} s",
            self.total.len(),
            median(&self.total),
            percentile(&self.total, 0.0),
            percentile(&self.total, 1.0)
        )
    }
}

/// Milliseconds in a duration.
pub fn ms(d: std::time::Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 50.0);
        assert_eq!(percentile(&v, 0.95), 95.0);
        assert_eq!(percentile(&v, 1.0), 100.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
    }

    #[test]
    fn tails_need_ten_samples_beyond() {
        let qs = [0.5, 0.9, 0.95, 0.99];
        assert_eq!(supported_tail(100, &qs), Some(0.9));
        assert_eq!(supported_tail(200, &qs), Some(0.95));
        assert_eq!(supported_tail(1000, &qs), Some(0.99));
        assert_eq!(supported_tail(5, &qs), None);
    }
}

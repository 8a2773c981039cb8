//! A solver-facing HTA problem instance.
//!
//! An [`Instance`] freezes one iteration's inputs: the available tasks
//! `T^i`, the available workers `W^i` with their current weights
//! `(α^i_w, β^i_w)`, the per-worker capacity `X_max`, and the distance
//! function. Relevance values `rel(t, w)` are precomputed (they are read
//! `Θ(|T|·|W|)` times); pairwise diversities are computed on demand from the
//! packed keyword vectors (a few popcounts each) or served from an optional
//! dense cache.

use std::sync::Arc;

use crate::bitvec::KeywordVec;
use crate::error::HtaError;
use crate::metric::{Distance, Jaccard};
use crate::task::Task;
use crate::worker::{Weights, Worker, WorkerId};

/// Smallest task count for which [`Instance::with_distance`] pre-builds the
/// dense diversity cache automatically.
pub const AUTO_CACHE_MIN_TASKS: usize = 32;

/// Largest task count for which the cache is auto-built (8·n² bytes: 4096
/// tasks cap the cache at 128 MiB).
pub const AUTO_CACHE_MAX_TASKS: usize = 4096;

enum Diversity {
    /// Compute from task keyword vectors through `distance`.
    Keywords {
        distance: Arc<dyn Distance + Send + Sync>,
    },
    /// Explicit `n × n` matrix (fixtures, tests, synthetic instances).
    Matrix { div: Vec<f64> },
}

/// One iteration's frozen problem instance.
pub struct Instance {
    tasks: Vec<Task>,
    workers: Vec<Worker>,
    xmax: usize,
    /// Worker-major relevance: `rel[w * n_tasks + t]`.
    rel: Vec<f64>,
    diversity: Diversity,
    /// Optional dense diversity cache (row-major, full n×n). Stored at full
    /// `f64` precision so cached reads are bit-identical to the uncached
    /// `distance.dist` values — the solver pipeline's edge-reuse path
    /// depends on cached and recomputed diversities agreeing exactly.
    cache: Option<Vec<f64>>,
    distance_name: &'static str,
    distance_is_metric: bool,
}

impl Instance {
    /// Build an instance from tasks and workers using Jaccard distance for
    /// both diversity and relevance (the paper's configuration).
    pub fn new(tasks: Vec<Task>, workers: Vec<Worker>, xmax: usize) -> Result<Self, HtaError> {
        Self::with_distance(tasks, workers, xmax, Arc::new(Jaccard), false)
    }

    /// Build with a custom distance. Set `allow_non_metric` to accept a
    /// distance whose [`Distance::is_metric`] is false — the approximation
    /// guarantees of the HTA solvers no longer hold in that case.
    pub fn with_distance(
        tasks: Vec<Task>,
        workers: Vec<Worker>,
        xmax: usize,
        distance: Arc<dyn Distance + Send + Sync>,
        allow_non_metric: bool,
    ) -> Result<Self, HtaError> {
        if xmax == 0 {
            return Err(HtaError::InvalidXmax);
        }
        if workers.is_empty() {
            return Err(HtaError::NoWorkers);
        }
        if !distance.is_metric() && !allow_non_metric {
            return Err(HtaError::NonMetricDistance(distance.name()));
        }
        let width = tasks
            .first()
            .map(|t| t.keywords.nbits())
            .or_else(|| workers.first().map(|w| w.keywords.nbits()))
            .unwrap_or(0);
        for t in &tasks {
            if t.keywords.nbits() != width {
                return Err(HtaError::MismatchedUniverse {
                    expected: width,
                    found: t.keywords.nbits(),
                });
            }
        }
        for w in &workers {
            if w.keywords.nbits() != width {
                return Err(HtaError::MismatchedUniverse {
                    expected: width,
                    found: w.keywords.nbits(),
                });
            }
        }
        // Precompute relevance: rel(t, w) = 1 − d_rel(t, w). This is the
        // Θ(|T|·|W|) fill the QAP profit matrix reads, so it goes through
        // the batched one-vs-many kernel when the distance is the packed
        // Jaccard (the kernel returns the same exact distance, so the
        // `1.0 − d` transform below is bit-identical to the per-pair loop).
        let mut rel = Vec::with_capacity(workers.len() * tasks.len());
        if distance.supports_popcount_kernels() && !tasks.is_empty() {
            let cat =
                crate::kernels::PackedCatalog::from_vecs(width, tasks.iter().map(|t| &t.keywords));
            let mut row = vec![0.0f64; tasks.len()];
            for w in &workers {
                crate::kernels::jaccard_one_vs_many(&w.keywords, &cat, 0, &mut row);
                rel.extend(row.iter().map(|d| 1.0 - d));
            }
        } else {
            for w in &workers {
                for t in &tasks {
                    rel.push(1.0 - distance.dist(&t.keywords, &w.keywords));
                }
            }
        }
        let distance_name = distance.name();
        let distance_is_metric = distance.is_metric();
        let mut inst = Self {
            tasks,
            workers,
            xmax,
            rel,
            diversity: Diversity::Keywords { distance },
            cache: None,
            distance_name,
            distance_is_metric,
        };
        // Solvers read every diversity pair several times; recomputing the
        // distance per read dominates their hot loops. Auto-build the dense
        // cache for mid-sized instances: below the lower bound the recompute
        // is cheap anyway, above the upper bound the O(n²) f64 cache would
        // not fit a sane memory budget (callers can still opt in explicitly
        // through `build_diversity_cache*`).
        let n = inst.tasks.len();
        if (AUTO_CACHE_MIN_TASKS..=AUTO_CACHE_MAX_TASKS).contains(&n) {
            inst.build_diversity_cache();
        }
        Ok(inst)
    }

    /// Build directly from matrices — used for fixtures such as the paper's
    /// Table I example, and for property tests over arbitrary metrics.
    ///
    /// `rel` is worker-major with `n_workers · n_tasks` entries;
    /// `div` is row-major `n_tasks × n_tasks` and must be symmetric with a
    /// zero diagonal (checked).
    pub fn from_matrices(
        n_tasks: usize,
        worker_weights: &[Weights],
        rel: Vec<f64>,
        div: Vec<f64>,
        xmax: usize,
    ) -> Result<Self, HtaError> {
        if xmax == 0 {
            return Err(HtaError::InvalidXmax);
        }
        if worker_weights.is_empty() {
            return Err(HtaError::NoWorkers);
        }
        if rel.len() != worker_weights.len() * n_tasks {
            return Err(HtaError::BadMatrixShape {
                expected: worker_weights.len() * n_tasks,
                found: rel.len(),
            });
        }
        if div.len() != n_tasks * n_tasks {
            return Err(HtaError::BadMatrixShape {
                expected: n_tasks * n_tasks,
                found: div.len(),
            });
        }
        for k in 0..n_tasks {
            debug_assert!(div[k * n_tasks + k].abs() < 1e-12, "diagonal must be zero");
            for l in 0..n_tasks {
                debug_assert!(
                    (div[k * n_tasks + l] - div[l * n_tasks + k]).abs() < 1e-9,
                    "diversity matrix must be symmetric"
                );
            }
        }
        let tasks = (0..n_tasks)
            .map(|i| {
                Task::new(
                    crate::task::TaskId(i as u32),
                    crate::task::GroupId(0),
                    KeywordVec::new(0),
                )
            })
            .collect();
        let workers = worker_weights
            .iter()
            .enumerate()
            .map(|(i, &w)| Worker::new(WorkerId(i as u32), KeywordVec::new(0)).with_weights(w))
            .collect();
        Ok(Self {
            tasks,
            workers,
            xmax,
            rel,
            diversity: Diversity::Matrix { div },
            cache: None,
            distance_name: "matrix",
            distance_is_metric: true,
        })
    }

    /// Precompute the dense `n × n` diversity cache (`f64`, ~8·n² bytes).
    /// Worth it when a solver reads every pair more than once. Cached values
    /// are the exact `f64` distances, so building the cache never changes
    /// what [`Self::diversity`] returns.
    pub fn build_diversity_cache(&mut self) {
        self.build_diversity_cache_parallel(1);
    }

    /// Pack the task keyword vectors for the batched kernels when the
    /// configured diversity distance is the packed-popcount Jaccard.
    fn packed_catalog(&self) -> Option<crate::kernels::PackedCatalog> {
        match &self.diversity {
            Diversity::Keywords { distance } if distance.supports_popcount_kernels() => {
                let width = self.tasks.first().map_or(0, |t| t.keywords.nbits());
                Some(crate::kernels::PackedCatalog::from_vecs(
                    width,
                    self.tasks.iter().map(|t| &t.keywords),
                ))
            }
            _ => None,
        }
    }

    /// [`Self::build_diversity_cache`] with the upper triangle's rows split
    /// over up to `threads` threads ([`hta_par::fill_rows`], balanced by
    /// pair count: row `k` holds `n − 1 − k` distances; a catalog under the
    /// grain fills inline). Each row is filled by one batched kernel call
    /// (bit-identical to the per-pair distance) or per-pair distances, and
    /// the lower triangle is mirrored afterwards.
    pub fn build_diversity_cache_parallel(&mut self, threads: usize) {
        let n = self.tasks.len();
        let mut cache = vec![0.0f64; n * n];
        let packed = self.packed_catalog();
        let this = &*self;
        hta_par::fill_rows(
            &mut cache,
            n,
            threads,
            |k| n - 1 - k,
            |k, row| match &packed {
                Some(cat) => crate::kernels::pairwise_distance_block(cat, k, &mut row[k + 1..]),
                None => {
                    for (l, slot) in row.iter_mut().enumerate().skip(k + 1) {
                        *slot = this.diversity_uncached(k, l);
                    }
                }
            },
        );
        for k in 0..n {
            for l in (k + 1)..n {
                cache[l * n + k] = cache[k * n + l];
            }
        }
        self.cache = Some(cache);
    }

    /// Whether the dense diversity cache is built.
    pub fn has_diversity_cache(&self) -> bool {
        self.cache.is_some()
    }

    /// Number of tasks `|T^i|`.
    #[inline]
    pub fn n_tasks(&self) -> usize {
        self.tasks.len()
    }

    /// Number of workers `|W^i|`.
    #[inline]
    pub fn n_workers(&self) -> usize {
        self.workers.len()
    }

    /// The per-worker capacity `X_max` (constraint C1).
    #[inline]
    pub fn xmax(&self) -> usize {
        self.xmax
    }

    /// The tasks, in instance order.
    pub fn tasks(&self) -> &[Task] {
        &self.tasks
    }

    /// The workers, in instance order.
    pub fn workers(&self) -> &[Worker] {
        &self.workers
    }

    /// Diversity weight `α` of worker `q`.
    #[inline]
    pub fn alpha(&self, q: usize) -> f64 {
        self.workers[q].weights.alpha()
    }

    /// Relevance weight `β` of worker `q`.
    #[inline]
    pub fn beta(&self, q: usize) -> f64 {
        self.workers[q].weights.beta()
    }

    /// Pairwise task diversity `d(t_k, t_l)`.
    #[inline]
    pub fn diversity(&self, k: usize, l: usize) -> f64 {
        if k == l {
            return 0.0;
        }
        if let Some(cache) = &self.cache {
            return cache[k * self.tasks.len() + l];
        }
        self.diversity_uncached(k, l)
    }

    fn diversity_uncached(&self, k: usize, l: usize) -> f64 {
        match &self.diversity {
            Diversity::Keywords { distance } => {
                distance.dist(&self.tasks[k].keywords, &self.tasks[l].keywords)
            }
            Diversity::Matrix { div } => div[k * self.tasks.len() + l],
        }
    }

    /// Relevance `rel(t, w) = 1 − d_rel(t, w)` of task `t` for worker `q`.
    #[inline]
    pub fn rel(&self, q: usize, t: usize) -> f64 {
        self.rel[q * self.tasks.len() + t]
    }

    /// Name of the configured distance.
    pub fn distance_name(&self) -> &'static str {
        self.distance_name
    }

    /// Whether the configured distance is a metric.
    pub fn distance_is_metric(&self) -> bool {
        self.distance_is_metric
    }
}

impl std::fmt::Debug for Instance {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Instance")
            .field("n_tasks", &self.n_tasks())
            .field("n_workers", &self.n_workers())
            .field("xmax", &self.xmax)
            .field("distance", &self.distance_name)
            .field("cached", &self.cache.is_some())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::task::{GroupId, TaskId};

    fn task(i: u32, nbits: usize, idx: &[usize]) -> Task {
        Task::new(TaskId(i), GroupId(0), KeywordVec::from_indices(nbits, idx))
    }

    fn worker(i: u32, nbits: usize, idx: &[usize]) -> Worker {
        Worker::new(WorkerId(i), KeywordVec::from_indices(nbits, idx))
    }

    #[test]
    fn jaccard_instance_precomputes_relevance() {
        let tasks = vec![task(0, 4, &[0, 1]), task(1, 4, &[2, 3])];
        let workers = vec![worker(0, 4, &[0, 1])];
        let inst = Instance::new(tasks, workers, 2).unwrap();
        assert_eq!(inst.rel(0, 0), 1.0); // identical keywords
        assert_eq!(inst.rel(0, 1), 0.0); // disjoint keywords
        assert_eq!(inst.diversity(0, 1), 1.0);
        assert_eq!(inst.diversity(1, 1), 0.0);
        assert_eq!(inst.distance_name(), "jaccard");
        assert!(inst.distance_is_metric());
    }

    #[test]
    fn rejects_zero_xmax_and_empty_workers() {
        let tasks = vec![task(0, 2, &[0])];
        assert_eq!(
            Instance::new(tasks.clone(), vec![worker(0, 2, &[0])], 0).unwrap_err(),
            HtaError::InvalidXmax
        );
        assert_eq!(
            Instance::new(tasks, vec![], 1).unwrap_err(),
            HtaError::NoWorkers
        );
    }

    #[test]
    fn rejects_mismatched_universes() {
        let tasks = vec![task(0, 2, &[0]), task(1, 3, &[0])];
        let err = Instance::new(tasks, vec![worker(0, 2, &[])], 1).unwrap_err();
        assert!(matches!(err, HtaError::MismatchedUniverse { .. }));
    }

    #[test]
    fn rejects_non_metric_distance_unless_allowed() {
        let tasks = vec![task(0, 2, &[0])];
        let workers = vec![worker(0, 2, &[0])];
        let err = Instance::with_distance(
            tasks.clone(),
            workers.clone(),
            1,
            Arc::new(crate::metric::Dice),
            false,
        )
        .unwrap_err();
        assert_eq!(err, HtaError::NonMetricDistance("dice"));
        assert!(
            Instance::with_distance(tasks, workers, 1, Arc::new(crate::metric::Dice), true).is_ok()
        );
    }

    #[test]
    fn matrix_instance_serves_given_values() {
        let rel = vec![0.3, 0.7];
        let div = vec![0.0, 0.9, 0.9, 0.0];
        let inst = Instance::from_matrices(2, &[Weights::balanced()], rel, div, 2).unwrap();
        assert_eq!(inst.rel(0, 1), 0.7);
        assert_eq!(inst.diversity(0, 1), 0.9);
        assert_eq!(inst.diversity(1, 0), 0.9);
    }

    #[test]
    fn matrix_instance_rejects_bad_shapes() {
        let err = Instance::from_matrices(2, &[Weights::balanced()], vec![0.0], vec![0.0; 4], 1)
            .unwrap_err();
        assert!(matches!(err, HtaError::BadMatrixShape { .. }));
    }

    #[test]
    fn keyword_instances_auto_build_the_cache_above_the_threshold() {
        let nbits = 16;
        let mk = |n: usize| -> Instance {
            let tasks: Vec<Task> = (0..n)
                .map(|i| task(i as u32, nbits, &[i % nbits, (i * 3 + 1) % nbits]))
                .collect();
            Instance::new(tasks, vec![worker(0, nbits, &[0, 1])], 2).unwrap()
        };
        // Below the threshold: recompute-on-read (cache build would cost
        // more than it saves).
        assert!(!mk(AUTO_CACHE_MIN_TASKS - 1).has_diversity_cache());
        // At and above: the solvers' hot loops read cached values.
        let inst = mk(AUTO_CACHE_MIN_TASKS);
        assert!(inst.has_diversity_cache());
        // Cached values are bit-identical to the recomputed metric.
        for k in 0..4 {
            for l in 0..4 {
                assert_eq!(
                    inst.diversity(k, l).to_bits(),
                    inst.diversity_uncached(k, l).to_bits()
                );
            }
        }
        // Matrix-backed instances never need the cache: lookups are O(1).
        let inst =
            Instance::from_matrices(2, &[Weights::balanced()], vec![0.1, 0.2], vec![0.0; 4], 1)
                .unwrap();
        assert!(!inst.has_diversity_cache());
    }

    #[test]
    fn parallel_cache_matches_sequential() {
        let nbits = 24;
        let tasks: Vec<Task> = (0..37)
            .map(|i| {
                task(
                    i as u32,
                    nbits,
                    &[i % nbits, (i * 5 + 2) % nbits, (i * 11) % nbits],
                )
            })
            .collect();
        let workers = vec![worker(0, nbits, &[0, 1])];
        let mut seq = Instance::new(tasks.clone(), workers.clone(), 3).unwrap();
        seq.build_diversity_cache();
        let mut par = Instance::new(tasks, workers, 3).unwrap();
        par.build_diversity_cache_parallel(4);
        assert!(par.has_diversity_cache());
        for k in 0..37 {
            for l in 0..37 {
                assert_eq!(seq.diversity(k, l), par.diversity(k, l), "({k},{l})");
            }
        }
    }

    /// Above the grain the rows really split over threads; the cache is
    /// bit-identical at 1, 2 and 7 threads, packed kernel or per-pair.
    #[test]
    fn above_grain_parallel_cache_is_thread_invariant() {
        let n = 1_100;
        assert!(hta_par::threads_for(n * (n - 1) / 2, 7) >= 2);
        let nbits = 24;
        let tasks: Vec<Task> = (0..n)
            .map(|i| task(i as u32, nbits, &[i % nbits, (i * 5 + 2) % nbits]))
            .collect();
        let workers = vec![worker(0, nbits, &[0, 1])];
        let distances: [Arc<dyn Distance + Send + Sync>; 2] =
            [Arc::new(Jaccard), Arc::new(crate::metric::Hamming)];
        for distance in distances {
            let build = |threads: usize| {
                let mut inst = Instance::with_distance(
                    tasks.clone(),
                    workers.clone(),
                    3,
                    distance.clone(),
                    false,
                )
                .unwrap();
                inst.build_diversity_cache_parallel(threads);
                inst.cache
            };
            let one = build(1);
            for threads in [2usize, 7] {
                assert_eq!(build(threads), one, "threads={threads}");
            }
        }
    }

    #[test]
    fn diversity_cache_is_consistent() {
        let tasks = vec![
            task(0, 6, &[0, 1]),
            task(1, 6, &[1, 2]),
            task(2, 6, &[4, 5]),
        ];
        let workers = vec![worker(0, 6, &[0])];
        let mut inst = Instance::new(tasks, workers, 3).unwrap();
        let before: Vec<f64> = vec![
            inst.diversity(0, 1),
            inst.diversity(0, 2),
            inst.diversity(1, 2),
        ];
        inst.build_diversity_cache();
        let after: Vec<f64> = vec![
            inst.diversity(0, 1),
            inst.diversity(0, 2),
            inst.diversity(1, 2),
        ];
        for (b, a) in before.iter().zip(&after) {
            assert_eq!(b.to_bits(), a.to_bits());
        }
    }
}

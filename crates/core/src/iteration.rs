//! The adaptive iteration engine (Section III).
//!
//! Task assignment runs in iterations: at iteration `i` the engine freezes
//! the available tasks `T^i` and workers `W^i` (with their current weight
//! estimates) into an [`Instance`](crate::Instance), solves HTA with the configured solver,
//! and *drops assigned tasks from subsequent iterations* ("Once assigned, a
//! task is dropped from subsequent iterations"). Worker weights may be
//! updated between iterations from completion observations
//! ([`crate::adaptive::WeightEstimator`]).

use std::sync::Arc;

use rand::Rng;

use crate::bitvec::KeywordVec;
use crate::edges::keywords_fingerprint;
use crate::error::HtaError;
use crate::metric::{Distance, Jaccard};
use crate::session::{OpenSetSession, Round};
use crate::solver::Solver;
use crate::task::{TaskId, TaskPool};
use crate::worker::{Weights, Worker, WorkerId, WorkerPool};

/// One iteration's outcome, in *global* ids.
#[derive(Debug, Clone)]
pub struct IterationResult {
    /// 0-based iteration index.
    pub iteration: usize,
    /// `(worker, tasks assigned to that worker)`, workers in pool order.
    pub assignments: Vec<(WorkerId, Vec<TaskId>)>,
    /// The Eq. 3 objective achieved on this iteration's instance.
    pub objective: f64,
    /// Number of tasks still unassigned after this iteration.
    pub remaining_tasks: usize,
}

/// The pool's task keyword vectors, in catalog order.
fn keywords(tasks: &TaskPool) -> Vec<&KeywordVec> {
    tasks.tasks().iter().map(|t| &t.keywords).collect()
}

/// Drives HTA across iterations over a shared task pool.
pub struct IterationEngine {
    tasks: TaskPool,
    workers: WorkerPool,
    xmax: usize,
    distance: Arc<dyn Distance + Send + Sync>,
    available: Vec<bool>,
    iteration: usize,
    /// [`keywords_fingerprint`] of `tasks`, which never change after
    /// construction: the session is revalidated against it.
    fingerprint: u64,
    /// Edge source and warm state of the per-iteration solves (`Off` until
    /// one of the `enable_*` methods runs).
    session: OpenSetSession,
}

impl IterationEngine {
    /// Build an engine over `tasks` and `workers` with capacity `xmax`,
    /// using Jaccard distance.
    pub fn new(tasks: TaskPool, workers: WorkerPool, xmax: usize) -> Result<Self, HtaError> {
        Self::with_distance(tasks, workers, xmax, Arc::new(Jaccard))
    }

    /// Build with a custom (metric) distance.
    pub fn with_distance(
        tasks: TaskPool,
        workers: WorkerPool,
        xmax: usize,
        distance: Arc<dyn Distance + Send + Sync>,
    ) -> Result<Self, HtaError> {
        if xmax == 0 {
            return Err(HtaError::InvalidXmax);
        }
        if workers.is_empty() {
            return Err(HtaError::NoWorkers);
        }
        if !distance.is_metric() {
            return Err(HtaError::NonMetricDistance(distance.name()));
        }
        let available = vec![true; tasks.len()];
        let fingerprint = keywords_fingerprint(tasks.tasks().iter().map(|t| &t.keywords));
        Ok(Self {
            tasks,
            workers,
            xmax,
            distance,
            available,
            iteration: 0,
            fingerprint,
            session: OpenSetSession::Off,
        })
    }

    /// Precompute the full-catalog sorted diversity edge list once and reuse
    /// it on every iteration: the open-task subset is filtered out of the
    /// global list instead of re-enumerating and re-sorting `O(|T|²)` pairs
    /// per iteration. Results are byte-identical to the non-reusing path
    /// (the filtered sublist equals a fresh enumerate-and-sort).
    ///
    /// `threads` controls the one-off build (`0` = auto). A dense warm
    /// state is rebound to the rebuilt list.
    pub fn enable_edge_reuse(&mut self, threads: usize) {
        self.session = OpenSetSession::dense(
            &keywords(&self.tasks),
            self.distance.as_ref(),
            threads,
            self.warm_start_enabled(),
        );
    }

    /// Drop the precomputed edge list (back to per-iteration enumeration).
    /// Also drops any warm-start state, which cannot outlive its cache.
    pub fn disable_edge_reuse(&mut self) {
        if self.edge_reuse_enabled() {
            self.session = OpenSetSession::Off;
        }
    }

    /// Whether the reusable edge list is active.
    pub fn edge_reuse_enabled(&self) -> bool {
        self.session.dense_cache().is_some()
    }

    /// Carry the matching forward between iterations: the open set is
    /// diffed against the previous iteration's, only the touched pairs are
    /// invalidated, and the matching is repaired locally — so steady-state
    /// per-iteration matching cost is proportional to churn, not catalog
    /// size. Implies [`enable_edge_reuse`](Self::enable_edge_reuse) (the
    /// warm state lives on top of the cached edge list). Results remain
    /// byte-identical to the cold path at every churn level.
    pub fn enable_warm_start(&mut self, threads: usize) {
        if !self.edge_reuse_enabled() {
            self.enable_edge_reuse(threads);
        }
        self.session.set_warm(true);
    }

    /// Drop the warm-start state (the edge cache stays).
    pub fn disable_warm_start(&mut self) {
        self.session.set_warm(false);
    }

    /// Whether warm-start matching is active.
    pub fn warm_start_enabled(&self) -> bool {
        self.session.warm().is_some()
    }

    /// Tasks still available for assignment.
    pub fn remaining_tasks(&self) -> usize {
        self.available.iter().filter(|&&a| a).count()
    }

    /// The iteration counter (number of completed iterations).
    pub fn iterations_run(&self) -> usize {
        self.iteration
    }

    /// Update a worker's motivation weights (between iterations).
    pub fn set_weights(&mut self, w: WorkerId, weights: Weights) {
        self.workers.get_mut(w).weights = weights;
    }

    /// Current weights of a worker.
    pub fn weights(&self, w: WorkerId) -> Weights {
        self.workers.get(w).weights
    }

    /// Return a task to the pool (e.g. the worker abandoned it).
    pub fn release_task(&mut self, t: TaskId) {
        self.available[t.0 as usize] = true;
    }

    /// Run one iteration with every worker available.
    pub fn run_iteration(
        &mut self,
        solver: &dyn Solver,
        rng: &mut dyn Rng,
    ) -> Result<IterationResult, HtaError> {
        let all: Vec<WorkerId> = self.workers.workers().iter().map(|w| w.id).collect();
        self.run_iteration_for(solver, rng, &all)
    }

    /// Run iterations until the task pool is exhausted or `max_iterations`
    /// is hit, returning every iteration's result. Convenience driver for
    /// batch experiments (the online platform drives iterations itself).
    pub fn run_until_exhausted(
        &mut self,
        solver: &dyn Solver,
        rng: &mut dyn Rng,
        max_iterations: usize,
    ) -> Result<Vec<IterationResult>, HtaError> {
        let mut results = Vec::new();
        for _ in 0..max_iterations {
            if self.remaining_tasks() == 0 {
                break;
            }
            let r = self.run_iteration(solver, rng)?;
            let assigned: usize = r.assignments.iter().map(|(_, t)| t.len()).sum();
            results.push(r);
            if assigned == 0 {
                break; // solver cannot place the remainder
            }
        }
        Ok(results)
    }

    /// Run one iteration for the subset `W^i` of available workers.
    pub fn run_iteration_for(
        &mut self,
        solver: &dyn Solver,
        rng: &mut dyn Rng,
        available_workers: &[WorkerId],
    ) -> Result<IterationResult, HtaError> {
        if available_workers.is_empty() {
            return Err(HtaError::NoWorkers);
        }
        // Freeze W^i.
        let workers: Vec<Worker> = available_workers
            .iter()
            .enumerate()
            .map(|(i, &wid)| {
                let w = self.workers.get(wid);
                Worker::new(WorkerId(i as u32), w.keywords.clone()).with_weights(w.weights)
            })
            .collect();
        // Freeze T^i: every available task, in ascending catalog order, so
        // the session's edge reuse applies. The cache is only trusted while
        // its catalog fingerprint still matches the pool (a cache planted
        // from elsewhere is rebuilt).
        let members: Vec<u32> = (0..self.tasks.len() as u32)
            .filter(|&t| self.available[t as usize])
            .collect();
        self.session.revalidate(
            self.fingerprint,
            || keywords(&self.tasks),
            self.distance.as_ref(),
            0,
        );
        let tasks = &self.tasks;
        let round = Round {
            workers,
            task: &|t| tasks.get(TaskId(t)),
            xmax: self.xmax,
            distance: Arc::clone(&self.distance),
            solver,
        };
        let out = self.session.solve_round(members, round, rng)?;

        // Commit: drop assigned tasks from the pool.
        let mut assignments = Vec::with_capacity(available_workers.len());
        for (qi, &wid) in available_workers.iter().enumerate() {
            let globals: Vec<TaskId> = out.tasks_of(qi).map(TaskId).collect();
            for &g in &globals {
                self.available[g.0 as usize] = false;
            }
            assignments.push((wid, globals));
        }

        let result = IterationResult {
            iteration: self.iteration,
            assignments,
            objective: out.objective(),
            remaining_tasks: self.remaining_tasks(),
        };
        self.iteration += 1;
        Ok(result)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::edges::DiversityEdgeCache;
    use crate::solver::{HtaGre, RandomAssign};
    use crate::task::GroupId;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn setup(n_tasks: usize, n_workers: usize, xmax: usize) -> IterationEngine {
        let nbits = 32;
        let mut tasks = TaskPool::new();
        for i in 0..n_tasks {
            let kw = KeywordVec::from_indices(nbits, &[i % nbits, (i * 7 + 3) % nbits]);
            tasks.push(GroupId((i / 4) as u32), kw);
        }
        let mut workers = WorkerPool::new();
        for i in 0..n_workers {
            let kw = KeywordVec::from_indices(nbits, &[i % nbits, (i * 5 + 1) % nbits]);
            workers.push(kw, Weights::balanced());
        }
        IterationEngine::new(tasks, workers, xmax).unwrap()
    }

    #[test]
    fn tasks_are_dropped_across_iterations() {
        let mut engine = setup(20, 2, 3);
        let mut rng = StdRng::seed_from_u64(1);
        let r1 = engine.run_iteration(&HtaGre::new(), &mut rng).unwrap();
        assert_eq!(r1.iteration, 0);
        assert_eq!(r1.remaining_tasks, 20 - 6);
        let assigned_1: Vec<TaskId> = r1
            .assignments
            .iter()
            .flat_map(|(_, ts)| ts.iter().copied())
            .collect();
        assert_eq!(assigned_1.len(), 6);

        let r2 = engine.run_iteration(&HtaGre::new(), &mut rng).unwrap();
        let assigned_2: Vec<TaskId> = r2
            .assignments
            .iter()
            .flat_map(|(_, ts)| ts.iter().copied())
            .collect();
        // No task assigned twice across iterations.
        for t in &assigned_2 {
            assert!(!assigned_1.contains(t), "task {t:?} reassigned");
        }
        assert_eq!(engine.remaining_tasks(), 20 - 12);
        assert_eq!(engine.iterations_run(), 2);
    }

    #[test]
    fn stale_edge_cache_is_refreshed_and_results_match_cacheless() {
        use crate::metric::Jaccard;
        use crate::task::Task;

        // Baseline: no cache at all.
        let mut plain = setup(24, 2, 3);
        let mut rng = StdRng::seed_from_u64(5);
        let expect = plain.run_iteration(&HtaGre::new(), &mut rng).unwrap();

        // Engine carrying a cache built from a *different* catalog: the
        // fingerprint guard must detect the mismatch, rebuild the cache for
        // the current catalog, and produce the same result as the cacheless
        // engine (a filtered cached list is byte-identical to enumerating).
        let mut stale = setup(24, 2, 3);
        let other: Vec<Task> = (0..24)
            .map(|i| {
                Task::new(
                    TaskId(i as u32),
                    GroupId(0),
                    KeywordVec::from_indices(32, &[(i * 11 + 2) % 32]),
                )
            })
            .collect();
        stale.session = OpenSetSession::Dense {
            cache: DiversityEdgeCache::build(&other, &Jaccard, 1),
            warm: None,
        };
        let mut rng = StdRng::seed_from_u64(5);
        let got = stale.run_iteration(&HtaGre::new(), &mut rng).unwrap();
        assert_eq!(got.assignments, expect.assignments);
        assert_eq!(got.objective, expect.objective);
        // The stored cache must now fingerprint-match the live catalog —
        // the old behavior left the stale fingerprint in place forever.
        assert!(stale
            .session
            .dense_cache()
            .unwrap()
            .valid_for(stale.tasks.tasks().iter().map(|t| &t.keywords)));

        // Sanity: a cache the engine built itself is accepted and agrees too.
        let mut fresh = setup(24, 2, 3);
        fresh.enable_edge_reuse(1);
        let mut rng = StdRng::seed_from_u64(5);
        let cached = fresh.run_iteration(&HtaGre::new(), &mut rng).unwrap();
        assert_eq!(cached.assignments, expect.assignments);
    }

    #[test]
    fn stale_cache_refresh_stops_per_iteration_re_enumeration() {
        use crate::metric::Jaccard;
        use crate::task::Task;
        use std::sync::atomic::{AtomicUsize, Ordering};

        // A Jaccard that counts its invocations, so the test can see whether
        // an iteration enumerated all-pairs diversity edges or reused the
        // cached list.
        struct CountingJaccard(Arc<AtomicUsize>);
        impl Distance for CountingJaccard {
            fn dist(&self, a: &KeywordVec, b: &KeywordVec) -> f64 {
                self.0.fetch_add(1, Ordering::Relaxed);
                Jaccard.dist(a, b)
            }
            fn name(&self) -> &'static str {
                "jaccard" // impersonate: keep solver/metric gates identical
            }
            fn is_metric(&self) -> bool {
                true
            }
        }

        let n = 24; // below AUTO_CACHE_MIN_TASKS: instance build costs only
                    // |T|·|W| relevance calls, never an all-pairs sweep
        let calls = Arc::new(AtomicUsize::new(0));
        let nbits = 32;
        let mut tasks = TaskPool::new();
        for i in 0..n {
            let kw = KeywordVec::from_indices(nbits, &[i % nbits, (i * 7 + 3) % nbits]);
            tasks.push(GroupId((i / 4) as u32), kw);
        }
        let mut workers = WorkerPool::new();
        for i in 0..2 {
            let kw = KeywordVec::from_indices(nbits, &[i % nbits, (i * 5 + 1) % nbits]);
            workers.push(kw, Weights::balanced());
        }
        let mut engine = IterationEngine::with_distance(
            tasks,
            workers,
            3,
            Arc::new(CountingJaccard(Arc::clone(&calls))),
        )
        .unwrap();

        // Plant a stale cache (wrong catalog, fingerprint mismatch).
        let other: Vec<Task> = (0..n)
            .map(|i| {
                Task::new(
                    TaskId(i as u32),
                    GroupId(0),
                    KeywordVec::from_indices(32, &[(i * 13 + 5) % 32]),
                )
            })
            .collect();
        engine.session = OpenSetSession::Dense {
            cache: DiversityEdgeCache::build(&other, &Jaccard, 1),
            warm: None,
        };

        let mut rng = StdRng::seed_from_u64(11);
        // First iteration pays one rebuild: ≥ n(n−1)/2 distance calls.
        engine.run_iteration(&HtaGre::new(), &mut rng).unwrap();
        let after_first = calls.load(Ordering::Relaxed);
        assert!(after_first >= n * (n - 1) / 2, "rebuild did not happen");

        // Second iteration must reuse the refreshed cache: its distance
        // budget is only the |T^i|·|W| relevance precompute, strictly below
        // an all-pairs enumeration over the remaining tasks. Before the fix
        // the stale fingerprint stayed stored and every iteration paid the
        // full enumeration again.
        let remaining = engine.remaining_tasks();
        engine.run_iteration(&HtaGre::new(), &mut rng).unwrap();
        let delta = calls.load(Ordering::Relaxed) - after_first;
        assert!(
            delta < remaining * (remaining - 1) / 2,
            "iteration after refresh re-enumerated ({delta} distance calls \
             for {remaining} open tasks)"
        );
    }

    #[test]
    fn pool_exhaustion_is_graceful() {
        let mut engine = setup(7, 2, 3);
        let mut rng = StdRng::seed_from_u64(2);
        engine.run_iteration(&RandomAssign, &mut rng).unwrap();
        let r2 = engine.run_iteration(&RandomAssign, &mut rng).unwrap();
        // Only 1 task was left.
        let assigned_2: usize = r2.assignments.iter().map(|(_, t)| t.len()).sum();
        assert_eq!(assigned_2, 1);
        assert_eq!(engine.remaining_tasks(), 0);
        // Further iterations assign nothing but do not fail.
        let r3 = engine.run_iteration(&RandomAssign, &mut rng).unwrap();
        let assigned_3: usize = r3.assignments.iter().map(|(_, t)| t.len()).sum();
        assert_eq!(assigned_3, 0);
    }

    #[test]
    fn worker_subset_and_weight_updates() {
        let mut engine = setup(12, 3, 2);
        let mut rng = StdRng::seed_from_u64(3);
        engine.set_weights(WorkerId(1), Weights::diversity_only());
        assert_eq!(engine.weights(WorkerId(1)).alpha(), 1.0);
        let r = engine
            .run_iteration_for(&HtaGre::new(), &mut rng, &[WorkerId(1)])
            .unwrap();
        assert_eq!(r.assignments.len(), 1);
        assert_eq!(r.assignments[0].0, WorkerId(1));
        assert_eq!(r.assignments[0].1.len(), 2);
    }

    #[test]
    fn run_until_exhausted_drains_the_pool() {
        let mut engine = setup(25, 2, 3);
        let mut rng = StdRng::seed_from_u64(8);
        let results = engine
            .run_until_exhausted(&HtaGre::new(), &mut rng, 100)
            .unwrap();
        assert_eq!(engine.remaining_tasks(), 0);
        // 25 tasks / 6 per iteration -> 5 iterations (last one partial).
        assert_eq!(results.len(), 5);
        let total: usize = results
            .iter()
            .flat_map(|r| r.assignments.iter().map(|(_, t)| t.len()))
            .sum();
        assert_eq!(total, 25);
    }

    #[test]
    fn run_until_exhausted_respects_iteration_cap() {
        let mut engine = setup(100, 2, 3);
        let mut rng = StdRng::seed_from_u64(9);
        let results = engine
            .run_until_exhausted(&HtaGre::new(), &mut rng, 3)
            .unwrap();
        assert_eq!(results.len(), 3);
        assert_eq!(engine.remaining_tasks(), 100 - 18);
    }

    #[test]
    fn release_task_returns_it_to_pool() {
        let mut engine = setup(6, 1, 3);
        let mut rng = StdRng::seed_from_u64(4);
        let r = engine.run_iteration(&RandomAssign, &mut rng).unwrap();
        let t = r.assignments[0].1[0];
        assert_eq!(engine.remaining_tasks(), 3);
        engine.release_task(t);
        assert_eq!(engine.remaining_tasks(), 4);
    }

    #[test]
    fn edge_reuse_is_byte_identical_across_iterations() {
        let solver = HtaGre::new().with_threads(1);
        let mut plain = setup(30, 2, 3);
        let mut reusing = setup(30, 2, 3);
        reusing.enable_edge_reuse(2);
        assert!(reusing.edge_reuse_enabled());
        let mut rng_a = StdRng::seed_from_u64(17);
        let mut rng_b = StdRng::seed_from_u64(17);
        for _ in 0..4 {
            let a = plain.run_iteration(&solver, &mut rng_a).unwrap();
            let b = reusing.run_iteration(&solver, &mut rng_b).unwrap();
            assert_eq!(a.assignments, b.assignments);
            assert_eq!(a.objective.to_bits(), b.objective.to_bits());
        }
        reusing.disable_edge_reuse();
        assert!(!reusing.edge_reuse_enabled());
        let a = plain.run_iteration(&solver, &mut rng_a).unwrap();
        let b = reusing.run_iteration(&solver, &mut rng_b).unwrap();
        assert_eq!(a.assignments, b.assignments);
    }

    #[test]
    fn warm_start_is_byte_identical_across_iterations() {
        // The open set shrinks every iteration (assigned tasks drop out), so
        // this drives the warm diff/repair path with real churn. Thread
        // counts differ between the two engines on purpose: output must be
        // invariant to both warm state and parallelism.
        let solver = HtaGre::new().with_threads(2);
        let mut plain = setup(30, 2, 3);
        let mut warmed = setup(30, 2, 3);
        warmed.enable_warm_start(1);
        assert!(warmed.warm_start_enabled());
        assert!(warmed.edge_reuse_enabled(), "warm start implies edge reuse");
        let cold_solver = HtaGre::new().with_threads(1);
        let mut rng_a = StdRng::seed_from_u64(31);
        let mut rng_b = StdRng::seed_from_u64(31);
        for _ in 0..5 {
            let a = plain.run_iteration(&cold_solver, &mut rng_a).unwrap();
            let b = warmed.run_iteration(&solver, &mut rng_b).unwrap();
            assert_eq!(a.assignments, b.assignments);
            assert_eq!(a.objective.to_bits(), b.objective.to_bits());
        }
        // Disabling warm start keeps the edge cache and stays identical.
        warmed.disable_warm_start();
        assert!(!warmed.warm_start_enabled());
        assert!(warmed.edge_reuse_enabled());
        let a = plain.run_iteration(&cold_solver, &mut rng_a).unwrap();
        let b = warmed.run_iteration(&solver, &mut rng_b).unwrap();
        assert_eq!(a.assignments, b.assignments);
    }

    #[test]
    fn empty_worker_subset_is_an_error() {
        let mut engine = setup(6, 1, 3);
        let mut rng = StdRng::seed_from_u64(5);
        assert!(engine
            .run_iteration_for(&RandomAssign, &mut rng, &[])
            .is_err());
    }
}

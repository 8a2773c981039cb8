//! The platform's shared state: the task pool, registered workers with
//! their adaptive weight estimators, the keyword index over open
//! tasks, and the assignment ledger — the data behind the Figure 4 workflow.

use std::sync::{Arc, Mutex};

use hta_core::adaptive::WeightEstimator;
use hta_core::solver::HtaGre;
use hta_core::{
    EdgeSource, Jaccard, KeywordSpace, KeywordVec, OpenSetSession, Round, TaskId, TaskPool,
    Weights, Worker, WorkerId,
};
use hta_index::{assign_round, CandidateMode, FullWindow, InvertedIndex};
use hta_life::Reputation;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// A registered worker session.
pub(crate) struct WorkerState {
    pub(crate) keywords: KeywordVec,
    pub(crate) estimator: WeightEstimator,
    /// Catalog indices currently assigned and not yet completed.
    pub(crate) assigned: Vec<usize>,
    /// Catalog indices completed, in order.
    pub(crate) completed: Vec<usize>,
    /// Verification track record, folded in on `/complete`. Observational
    /// only at the serving layer: it never feeds the estimator, the solver,
    /// or the RNG stream, so enabling or ignoring outcomes cannot change
    /// assignments.
    pub(crate) reputation: Reputation,
}

/// Result of an assignment call.
#[derive(Debug, Clone, PartialEq)]
pub struct AssignResult {
    /// Newly assigned catalog task indices.
    pub tasks: Vec<usize>,
    /// The diversity weight used for the solve.
    pub alpha: f64,
    /// The relevance weight used for the solve.
    pub beta: f64,
}

/// Result of a completion call.
#[derive(Debug, Clone, PartialEq)]
pub struct CompleteResult {
    /// Updated diversity-weight estimate after observing the completion.
    pub alpha: f64,
    /// Updated relevance-weight estimate after observing the completion.
    pub beta: f64,
    /// Tasks remaining on the worker's display.
    pub remaining: usize,
}

/// Aggregate statistics.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Stats {
    /// Registered workers.
    pub workers: usize,
    /// Open (unassigned) tasks.
    pub open_tasks: usize,
    /// Assigned-but-not-completed tasks.
    pub assigned_tasks: usize,
    /// Completed tasks.
    pub completed_tasks: usize,
    /// Open tasks currently held by the keyword index (always equals
    /// `open_tasks` — surfaced so operators can spot index drift).
    pub indexed_tasks: usize,
    /// The dense edge-cache catalog cap in effect (flag override, else
    /// `HTA_EDGE_CACHE_CAP`, else the built-in default). Catalogs past it
    /// serve through the sparse pool-scoped pipeline instead.
    pub edge_cache_cap: usize,
}

/// Errors surfaced to the HTTP layer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StateError {
    /// Unknown worker id.
    UnknownWorker(usize),
    /// The task is not on the worker's display.
    NotAssigned {
        /// The worker that reported the completion.
        worker: usize,
        /// The task that was not on their display.
        task: usize,
    },
    /// A keyword list was empty.
    NoKeywords,
}

impl std::fmt::Display for StateError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::UnknownWorker(w) => write!(f, "unknown worker {w}"),
            Self::NotAssigned { worker, task } => {
                write!(f, "task {task} is not assigned to worker {worker}")
            }
            Self::NoKeywords => write!(f, "at least one keyword is required"),
        }
    }
}

/// The platform state; all methods are thread-safe.
pub struct PlatformState {
    inner: Mutex<Inner>,
}

pub(crate) struct Inner {
    pub(crate) space: KeywordSpace,
    pub(crate) tasks: TaskPool,
    pub(crate) available: Vec<bool>,
    pub(crate) workers: Vec<WorkerState>,
    pub(crate) rng: StdRng,
    pub(crate) xmax: usize,
    /// Cap on the open-task window per solve (dense mode only).
    pub(crate) max_instance_tasks: usize,
    /// Keyword index over the open tasks, maintained incrementally across
    /// register/assign — never rebuilt from the catalog per request.
    pub(crate) index: InvertedIndex,
    pub(crate) mode: CandidateMode,
    /// Thread count handed to the solver pipeline (`0` = auto).
    pub(crate) solver_threads: usize,
    /// Operator toggle for the warm path (default on; purely a
    /// performance knob, output is unaffected). Node configuration: not
    /// serialized, carried across a replica's snapshot swaps.
    pub(crate) warm_start: bool,
    /// Requested dense edge-cache catalog cap (`0` = auto:
    /// `HTA_EDGE_CACHE_CAP` or the built-in default). Set by the
    /// `--edge-cache-cap` server flag; the resolved value is shown in
    /// `/stats`. Node configuration like `warm_start`.
    pub(crate) edge_cache_cap: usize,
    /// Edge source and warm state of the solves, derived from
    /// [`EdgeSource::choose`] on the first assignment after construction
    /// or a configuration change (`None` until then). Deliberately **not**
    /// serialized: snapshot bytes stay identical to the pre-cache format
    /// and a restored server rebuilds on first use, with byte-identical
    /// solver output either way.
    pub(crate) session: Option<OpenSetSession>,
}

impl Inner {
    /// The dense edge-cache catalog cap in effect: the configured override
    /// when set, else `HTA_EDGE_CACHE_CAP`, else the built-in default.
    pub(crate) fn resolved_edge_cache_cap(&self) -> usize {
        hta_core::edges::edge_cache_cap(self.edge_cache_cap)
    }

    /// Derive the session from the current configuration.
    ///
    /// Soundness of reusing the dense edges: the task catalog never mutates
    /// after construction, and keyword-space widening only appends zero
    /// bits to task vectors — Jaccard counts are unchanged — so a cache
    /// built over the original stored vectors stays bit-exact for every
    /// later (possibly widened) sub-instance. Both candidate paths produce
    /// strictly ascending catalog indices (`Full` filters an ascending
    /// range, `TopK` pools sort their members), which the session's guards
    /// verify before reusing the edges or the warm matching.
    fn derive_session(&self) -> OpenSetSession {
        let source = EdgeSource::choose(
            self.tasks.len(),
            self.edge_cache_cap,
            true,
            self.warm_start,
            self.mode.top_k(),
        );
        let keywords = self.tasks.tasks().iter().map(|t| &t.keywords);
        OpenSetSession::new(source, keywords, &Jaccard, self.solver_threads)
    }

    /// `kw` over the current keyword universe: registration may have
    /// widened it since the vector was built.
    fn widened(&self, kw: &KeywordVec) -> KeywordVec {
        if kw.nbits() == self.space.len() {
            kw.clone()
        } else {
            self.space.widen(kw)
        }
    }

    /// The Full-mode window of every assignment and `/candidates` preview:
    /// the `max_instance_tasks` lowest open ids.
    fn window(&self) -> FullWindow {
        FullWindow::First(self.max_instance_tasks)
    }

    /// The validated `cohort` as a round's local workers: widened keywords
    /// and the current weight estimates.
    fn local_workers(&self, cohort: &[usize]) -> Vec<Worker> {
        cohort
            .iter()
            .enumerate()
            .map(|(li, &w)| {
                let w = &self.workers[w];
                Worker::new(WorkerId(li as u32), self.widened(&w.keywords))
                    .with_weights(w.estimator.estimate())
            })
            .collect()
    }

    /// Take a task off the open pool: availability and the keyword index
    /// stay in sync.
    pub(crate) fn close_task(&mut self, ci: usize) {
        self.available[ci] = false;
        self.index.remove(ci as u32);
    }
}

impl PlatformState {
    /// Build over a task corpus. `xmax` is the per-assignment size. Uses
    /// sparse top-k candidate generation by default; see
    /// [`PlatformState::with_mode`].
    pub fn new(space: KeywordSpace, tasks: TaskPool, xmax: usize, seed: u64) -> Self {
        Self::with_mode(space, tasks, xmax, seed, CandidateMode::default())
    }

    /// Build with an explicit candidate-generation mode
    /// ([`CandidateMode::Full`] reproduces the dense open-task window).
    pub fn with_mode(
        space: KeywordSpace,
        tasks: TaskPool,
        xmax: usize,
        seed: u64,
        mode: CandidateMode,
    ) -> Self {
        Self::with_options(space, tasks, xmax, seed, mode, 0)
    }

    /// Build with an explicit mode and solver thread count (`0` = auto:
    /// `HTA_SOLVER_THREADS` or the hardware default; solver output is
    /// byte-identical at any value).
    pub fn with_options(
        space: KeywordSpace,
        tasks: TaskPool,
        xmax: usize,
        seed: u64,
        mode: CandidateMode,
        solver_threads: usize,
    ) -> Self {
        let available = vec![true; tasks.len()];
        let pairs: Vec<(u32, &KeywordVec)> = tasks
            .tasks()
            .iter()
            .map(|t| (t.id.0, &t.keywords))
            .collect();
        let index = InvertedIndex::build(space.len(), &pairs);
        Self {
            inner: Mutex::new(Inner {
                space,
                tasks,
                available,
                workers: Vec::new(),
                rng: StdRng::seed_from_u64(seed),
                xmax,
                max_instance_tasks: 1200,
                index,
                mode,
                solver_threads,
                warm_start: true,
                edge_cache_cap: 0,
                session: None,
            }),
        }
    }

    /// Run `f` against the locked inner state (snapshot encoding).
    pub(crate) fn with_inner<T>(&self, f: impl FnOnce(&Inner) -> T) -> T {
        f(&self.inner.lock().expect("state lock"))
    }

    /// Rehydrate from fully-validated inner state (snapshot restore).
    pub(crate) fn from_inner(inner: Inner) -> Self {
        Self {
            inner: Mutex::new(inner),
        }
    }

    /// Swap the entire inner state for `fresh`'s (replica apply path),
    /// keeping this node's configuration (`warm_start`, `edge_cache_cap`):
    /// it never travels in snapshots.
    pub(crate) fn replace_with(&self, fresh: PlatformState) {
        let mut fresh = fresh.inner.into_inner().expect("fresh state lock");
        let mut inner = self.inner.lock().expect("state lock");
        fresh.warm_start = inner.warm_start;
        fresh.edge_cache_cap = inner.edge_cache_cap;
        *inner = fresh;
    }

    /// Switch the candidate-generation mode at runtime (the index is kept
    /// in sync regardless of mode, so switching is safe mid-stream).
    pub fn set_candidate_mode(&self, mode: CandidateMode) {
        let mut inner = self.inner.lock().expect("state lock");
        inner.mode = mode;
        inner.session = None;
    }

    /// The active candidate-generation mode.
    pub fn candidate_mode(&self) -> CandidateMode {
        self.inner.lock().expect("state lock").mode
    }

    /// Toggle warm-started solves at runtime (default on). Purely a
    /// performance knob: the warm path repairs the previous solve's
    /// greedy matching instead of rebuilding it, with byte-identical
    /// assignments either way, so flipping mid-stream is always safe.
    /// The derived session is rebuilt lazily on the next solve.
    pub fn set_warm_start(&self, enabled: bool) {
        let mut inner = self.inner.lock().expect("state lock");
        inner.warm_start = enabled;
        inner.session = None;
    }

    /// Whether warm-started solves are enabled.
    pub fn warm_start(&self) -> bool {
        self.inner.lock().expect("state lock").warm_start
    }

    /// Override the dense edge-cache catalog cap (`0` = auto:
    /// `HTA_EDGE_CACHE_CAP`, then the built-in default). Node
    /// configuration: not replicated and not serialized — the server
    /// re-applies its flag after a restore, and a replica keeps it across
    /// replicated updates. The derived session is rebuilt lazily on the next
    /// solve under the new cap; assignments are byte-identical either way.
    pub fn set_edge_cache_cap(&self, cap: usize) {
        let mut inner = self.inner.lock().expect("state lock");
        inner.edge_cache_cap = cap;
        inner.session = None;
    }

    /// The dense edge-cache catalog cap in effect (shown in `/stats`).
    pub fn edge_cache_cap(&self) -> usize {
        self.inner
            .lock()
            .expect("state lock")
            .resolved_edge_cache_cap()
    }

    /// Register a worker by keyword names (unknown keywords are interned).
    /// Returns the new worker id.
    pub fn register_worker(&self, keywords: &[&str]) -> Result<usize, StateError> {
        if keywords.is_empty() {
            return Err(StateError::NoKeywords);
        }
        let mut inner = self.inner.lock().expect("state lock");
        for kw in keywords {
            inner.space.intern(kw);
        }
        // Keyword ids are stable, so a wider universe just means new empty
        // posting lists — O(new keywords), not a rebuild.
        let width = inner.space.len();
        inner.index.widen(width);
        let vec = inner.space.vector_of_known(keywords);
        // The universe may have widened; vectors built per-request use the
        // current width, and task vectors are widened lazily at solve time.
        let id = inner.workers.len();
        inner.workers.push(WorkerState {
            keywords: vec,
            estimator: WeightEstimator::new(Weights::balanced()),
            assigned: Vec::new(),
            completed: Vec::new(),
            reputation: Reputation::new(),
        });
        Ok(id)
    }

    /// Assign a fresh set of tasks to `worker` by solving HTA with the
    /// worker's current weight estimate (Figure 4's "Solve HTA" box, for a
    /// singleton worker batch): [`PlatformState::assign_batch`] with a
    /// cohort of one.
    pub fn assign(&self, worker: usize) -> Result<AssignResult, StateError> {
        let mut inner = self.inner.lock().expect("state lock");
        Ok(Self::assign_locked(&mut inner, &[worker])?.remove(0))
    }

    /// Assign fresh task sets to a whole `cohort` with **one** shared
    /// candidate pool and **one** joint multi-worker solve (Figure 4's
    /// "Solve HTA" box for a true batch), instead of paying a full
    /// generate-and-solve per worker. Diversity edges come from the
    /// catalog-level cache when available, so the per-request cost is one
    /// filtered edge scan rather than an `O(|T'|²)` enumeration.
    ///
    /// Solver constraint C2 keeps the per-worker task sets disjoint.
    /// Returns one [`AssignResult`] per cohort entry, in order; an unknown
    /// worker id anywhere in the cohort fails the whole call before any
    /// state changes.
    pub fn assign_batch(&self, cohort: &[usize]) -> Result<Vec<AssignResult>, StateError> {
        let mut inner = self.inner.lock().expect("state lock");
        Self::assign_locked(&mut inner, cohort)
    }

    /// The sequential reference semantics for a cohort: per-worker
    /// singleton solves in cohort order under a single lock hold — state-
    /// and RNG-stream-equivalent to calling [`PlatformState::assign`] once
    /// per cohort entry in the same order, but atomic with respect to
    /// other clients. This is the ground truth the batch path is
    /// property-tested against, exposed over `POST /assign_batch?mode=seq`.
    ///
    /// On the first unknown worker id the error is returned and earlier
    /// entries' assignments remain applied — exactly what the equivalent
    /// sequence of individual `/assign` calls would leave behind.
    pub fn assign_batch_sequential(
        &self,
        cohort: &[usize],
    ) -> Result<Vec<AssignResult>, StateError> {
        let mut guard = self.inner.lock().expect("state lock");
        let inner = &mut *guard;
        cohort
            .iter()
            .map(|&w| Ok(Self::assign_locked(inner, &[w])?.remove(0)))
            .collect()
    }

    /// One assignment round for `cohort` against already-locked state: one
    /// shared candidate pool and one joint solve. The shared body of every
    /// assignment entry point.
    fn assign_locked(inner: &mut Inner, cohort: &[usize]) -> Result<Vec<AssignResult>, StateError> {
        for &w in cohort {
            if w >= inner.workers.len() {
                return Err(StateError::UnknownWorker(w));
            }
        }
        if cohort.is_empty() {
            return Ok(Vec::new());
        }
        let mut session = match inner.session.take() {
            Some(session) => session,
            None => inner.derive_session(),
        };
        let workers = inner.local_workers(cohort);
        let weights: Vec<Weights> = workers.iter().map(|w| w.weights).collect();
        // One shared candidate pool for the whole cohort: the sparse path
        // unions every member's top-k and tops up to the joint feasibility
        // floor `min(|open|, |cohort|·xmax)`. Instance and pool weights run
        // over the *stored* task vectors, widened to the workers' universe
        // for the instance only: widening appends zero bits, which changes
        // no popcount.
        let solver = HtaGre::structured()
            .without_flip()
            .with_threads(inner.solver_threads);
        let tasks = &inner.tasks;
        let round = Round {
            workers,
            task: &|t| tasks.get(TaskId(t)),
            xmax: inner.xmax,
            distance: Arc::new(Jaccard),
            solver: &solver,
        };
        let out = assign_round(
            &mut session,
            inner.mode,
            inner.window(),
            &inner.index,
            &inner.available,
            round,
            &mut inner.rng,
        )
        .expect("constructed instances are well-formed");
        inner.session = Some(session);

        let mut results = Vec::with_capacity(cohort.len());
        for (li, (&w, est)) in cohort.iter().zip(&weights).enumerate() {
            // Nothing open (`None`): every member gets an empty set.
            let assigned: Vec<usize> = out
                .iter()
                .flat_map(|out| out.tasks_of(li))
                .map(|ci| ci as usize)
                .collect();
            for &ci in &assigned {
                inner.close_task(ci);
            }
            inner.workers[w].assigned.extend(&assigned);
            results.push(AssignResult {
                tasks: assigned,
                alpha: est.alpha(),
                beta: est.beta(),
            });
        }
        Ok(results)
    }

    /// Record a completion (Figure 4's "Notify t completed by w"): updates
    /// the adaptive estimator from the observed marginal gains. The
    /// completion counts as a passed verification for reputation purposes.
    pub fn complete(&self, worker: usize, task: usize) -> Result<CompleteResult, StateError> {
        self.complete_with_outcome(worker, task, true)
    }

    /// [`Self::complete`] with an explicit verification outcome folded into
    /// the worker's [`Reputation`]. The outcome is observational: estimator
    /// updates, the assignment ledger, and the RNG stream are identical for
    /// `pass = true` and `pass = false`.
    pub fn complete_with_outcome(
        &self,
        worker: usize,
        task: usize,
        pass: bool,
    ) -> Result<CompleteResult, StateError> {
        let mut inner = self.inner.lock().expect("state lock");
        if worker >= inner.workers.len() {
            return Err(StateError::UnknownWorker(worker));
        }
        let Some(pos) = inner.workers[worker]
            .assigned
            .iter()
            .position(|&t| t == task)
        else {
            return Err(StateError::NotAssigned { worker, task });
        };

        // Normalized marginal gains against the remaining display.
        let kw_of =
            |inner: &Inner, ci: usize| inner.widened(&inner.tasks.get(TaskId(ci as u32)).keywords);
        let jac =
            |a: &KeywordVec, b: &KeywordVec| -> f64 { hta_core::kernels::jaccard_distance(a, b) };
        let wkw = inner.widened(&inner.workers[worker].keywords);
        let completed_kw: Vec<KeywordVec> = inner.workers[worker]
            .completed
            .iter()
            .map(|&c| kw_of(&inner, c))
            .collect();
        let gain_d = |inner: &Inner, c: usize| -> f64 {
            let kw = kw_of(inner, c);
            completed_kw.iter().map(|k| jac(k, &kw)).sum()
        };
        let gain_r = |inner: &Inner, c: usize| -> f64 { 1.0 - jac(&kw_of(inner, c), &wkw) };

        let candidates: Vec<usize> = inner.workers[worker].assigned.clone();
        let gd = gain_d(&inner, task);
        let gr = gain_r(&inner, task);
        let max_gd = candidates
            .iter()
            .map(|&c| gain_d(&inner, c))
            .fold(0.0f64, f64::max);
        let max_gr = candidates
            .iter()
            .map(|&c| gain_r(&inner, c))
            .fold(0.0f64, f64::max);
        inner.workers[worker].estimator.observe_gains(
            (max_gd > 0.0).then(|| gd / max_gd),
            (max_gr > 0.0).then(|| gr / max_gr),
        );

        inner.workers[worker].assigned.remove(pos);
        inner.workers[worker].completed.push(task);
        inner.workers[worker].reputation.observe(pass);
        let est = inner.workers[worker].estimator.estimate();
        Ok(CompleteResult {
            alpha: est.alpha(),
            beta: est.beta(),
            remaining: inner.workers[worker].assigned.len(),
        })
    }

    /// A copy of `worker`'s verification track record (see
    /// [`Reputation`] for the score semantics).
    pub fn reputation(&self, worker: usize) -> Result<Reputation, StateError> {
        let inner = self.inner.lock().expect("state lock");
        inner
            .workers
            .get(worker)
            .map(|w| w.reputation.clone())
            .ok_or(StateError::UnknownWorker(worker))
    }

    /// Aggregate statistics.
    pub fn stats(&self) -> Stats {
        let inner = self.inner.lock().expect("state lock");
        let open = inner.available.iter().filter(|&&a| a).count();
        let assigned: usize = inner.workers.iter().map(|w| w.assigned.len()).sum();
        let completed: usize = inner.workers.iter().map(|w| w.completed.len()).sum();
        Stats {
            workers: inner.workers.len(),
            open_tasks: open,
            assigned_tasks: assigned,
            completed_tasks: completed,
            indexed_tasks: inner.index.len(),
            edge_cache_cap: inner.resolved_edge_cache_cap(),
        }
    }

    /// `worker`'s top-`k` open tasks by Jaccard relevance — the retrieval
    /// read path replicas answer locally over their replicated index
    /// (`GET /topk`). Scores are exact; callers that forward them between
    /// nodes must carry the `f64` bit patterns, not decimal renderings.
    pub fn worker_topk(&self, worker: usize, k: usize) -> Result<Vec<(u32, f64)>, StateError> {
        let inner = self.inner.lock().expect("state lock");
        let Some(w) = inner.workers.get(worker) else {
            return Err(StateError::UnknownWorker(worker));
        };
        Ok(inner.index.top_k(&inner.widened(&w.keywords), k))
    }

    /// Read-only preview of the candidate pool the current mode would hand
    /// the solver for a singleton `worker` (`GET /candidates`): exactly the
    /// members [`PlatformState::assign`] would solve over next. Returns
    /// `(members, topk_hits)`; in Full mode every member is a "hit".
    pub fn candidate_pool(&self, worker: usize) -> Result<(Vec<u32>, usize), StateError> {
        let inner = self.inner.lock().expect("state lock");
        if worker >= inner.workers.len() {
            return Err(StateError::UnknownWorker(worker));
        }
        // A copy of the stream: the preview draws nothing from the state.
        let mut rng = inner.rng.clone();
        Ok(inner.mode.select(
            inner.window(),
            &inner.index,
            &inner.available,
            &inner.local_workers(&[worker]),
            inner.xmax,
            &mut rng,
        ))
    }
}

/// Lookup keyword names of a task (used by the /tasks endpoint).
impl PlatformState {
    /// Keyword names of catalog task `index`, or `None` if out of range.
    pub fn task_keywords(&self, index: usize) -> Option<Vec<String>> {
        let inner = self.inner.lock().expect("state lock");
        if index >= inner.tasks.len() {
            return None;
        }
        let t = inner.tasks.get(TaskId(index as u32));
        Some(
            t.keywords
                .iter_ones()
                .map(|i| inner.space.name(hta_core::KeywordId(i as u32)).to_owned())
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hta_datagen::amt::{generate, AmtConfig};

    fn state() -> PlatformState {
        let w = generate(&AmtConfig {
            n_groups: 20,
            tasks_per_group: 10,
            vocab_size: 80,
            ..Default::default()
        });
        PlatformState::new(w.space, w.tasks, 5, 42)
    }

    #[test]
    fn register_assign_complete_cycle() {
        let s = state();
        let w = s.register_worker(&["english", "survey"]).unwrap();
        assert_eq!(w, 0);
        let a = s.assign(w).unwrap();
        assert_eq!(a.tasks.len(), 5);
        assert!((a.alpha - 0.5).abs() < 1e-12, "cold start is balanced");

        let c = s.complete(w, a.tasks[0]).unwrap();
        assert_eq!(c.remaining, 4);
        assert!((c.alpha + c.beta - 1.0).abs() < 1e-9);

        let st = s.stats();
        assert_eq!(st.workers, 1);
        assert_eq!(st.completed_tasks, 1);
        assert_eq!(st.assigned_tasks, 4);
        assert_eq!(st.open_tasks, 200 - 5);
    }

    #[test]
    fn completing_unassigned_task_fails() {
        let s = state();
        let w = s.register_worker(&["english"]).unwrap();
        assert_eq!(
            s.complete(w, 7),
            Err(StateError::NotAssigned { worker: w, task: 7 })
        );
        assert_eq!(s.complete(99, 0), Err(StateError::UnknownWorker(99)));
    }

    #[test]
    fn tasks_are_never_double_assigned() {
        let s = state();
        let w1 = s.register_worker(&["english", "survey"]).unwrap();
        let w2 = s.register_worker(&["english", "audio"]).unwrap();
        let a1 = s.assign(w1).unwrap();
        let a2 = s.assign(w2).unwrap();
        for t in &a2.tasks {
            assert!(!a1.tasks.contains(t), "task {t} double-assigned");
        }
    }

    #[test]
    fn adaptive_weights_move_with_observations() {
        let s = state();
        let w = s.register_worker(&["english", "survey", "audio"]).unwrap();
        let a = s.assign(w).unwrap();
        let mut last = (0.5, 0.5);
        for &t in &a.tasks {
            let c = s.complete(w, t).unwrap();
            last = (c.alpha, c.beta);
        }
        // After several observations the estimate is generally off-balance.
        assert!((last.0 + last.1 - 1.0).abs() < 1e-9);
        // New assignment uses the updated weights.
        let a2 = s.assign(w).unwrap();
        assert!((a2.alpha - last.0).abs() < 1e-9);
    }

    #[test]
    fn unknown_keywords_are_interned() {
        let s = state();
        let w = s.register_worker(&["totally-new-keyword"]).unwrap();
        let a = s.assign(w).unwrap();
        // Solvable even though the keyword is new (rel = 0 everywhere).
        assert_eq!(a.tasks.len(), 5);
    }

    #[test]
    fn empty_keyword_registration_rejected() {
        let s = state();
        assert_eq!(s.register_worker(&[]), Err(StateError::NoKeywords));
    }

    #[test]
    fn pool_exhaustion_yields_empty_assignment() {
        let w = generate(&AmtConfig {
            n_groups: 1,
            tasks_per_group: 4,
            vocab_size: 10,
            ..Default::default()
        });
        let s = PlatformState::new(w.space, w.tasks, 5, 1);
        let a = s.register_worker(&["english"]).unwrap();
        let first = s.assign(a).unwrap();
        assert_eq!(first.tasks.len(), 4);
        let second = s.assign(a).unwrap();
        assert!(second.tasks.is_empty());
    }

    #[test]
    fn index_tracks_open_tasks_across_the_lifecycle() {
        let s = state();
        let st = s.stats();
        assert_eq!(st.indexed_tasks, st.open_tasks, "index starts in sync");

        let w = s
            .register_worker(&["english", "survey", "brand-new-kw"])
            .unwrap();
        let a = s.assign(w).unwrap();
        assert_eq!(a.tasks.len(), 5);
        let st = s.stats();
        assert_eq!(st.indexed_tasks, st.open_tasks, "assign removes from index");

        s.complete(w, a.tasks[0]).unwrap();
        let st = s.stats();
        assert_eq!(
            st.indexed_tasks, st.open_tasks,
            "complete leaves index alone"
        );

        // Drain a few more rounds; the invariant must hold throughout.
        for _ in 0..5 {
            s.assign(w).unwrap();
            let st = s.stats();
            assert_eq!(st.indexed_tasks, st.open_tasks);
        }
    }

    #[test]
    fn dense_and_sparse_modes_both_fill_the_display() {
        let w = generate(&AmtConfig {
            n_groups: 20,
            tasks_per_group: 10,
            vocab_size: 80,
            ..Default::default()
        });
        let s = PlatformState::with_mode(w.space, w.tasks, 5, 42, CandidateMode::Full);
        assert_eq!(s.candidate_mode(), CandidateMode::Full);
        let wid = s.register_worker(&["english", "survey"]).unwrap();
        let dense = s.assign(wid).unwrap();
        assert_eq!(dense.tasks.len(), 5);

        // Flip to sparse mid-stream: the index never went stale, so the
        // next assignment draws from it directly.
        s.set_candidate_mode(CandidateMode::TopK(8));
        let sparse = s.assign(wid).unwrap();
        assert_eq!(sparse.tasks.len(), 5);
        for t in &sparse.tasks {
            assert!(!dense.tasks.contains(t), "task {t} double-assigned");
        }
        let st = s.stats();
        assert_eq!(st.indexed_tasks, st.open_tasks);
    }

    #[test]
    fn batch_assignments_are_disjoint_and_ledgered() {
        let s = state();
        let w1 = s.register_worker(&["english", "survey"]).unwrap();
        let w2 = s.register_worker(&["english", "audio"]).unwrap();
        let w3 = s.register_worker(&["image", "tagging"]).unwrap();
        let rs = s.assign_batch(&[w1, w2, w3]).unwrap();
        assert_eq!(rs.len(), 3);
        let mut seen = std::collections::HashSet::new();
        for r in &rs {
            assert_eq!(r.tasks.len(), 5, "every cohort member fills a display");
            for &t in &r.tasks {
                assert!(seen.insert(t), "task {t} assigned to two cohort members");
            }
        }
        let st = s.stats();
        assert_eq!(st.assigned_tasks, 15);
        assert_eq!(st.open_tasks, 200 - 15);
        assert_eq!(st.indexed_tasks, st.open_tasks, "index stays in sync");
        // Completions keep working against the batch-filled ledger.
        let c = s.complete(w2, rs[1].tasks[0]).unwrap();
        assert_eq!(c.remaining, 4);
    }

    #[test]
    fn batch_with_unknown_worker_changes_nothing() {
        let s = state();
        let w = s.register_worker(&["english"]).unwrap();
        assert_eq!(s.assign_batch(&[w, 99]), Err(StateError::UnknownWorker(99)));
        assert_eq!(s.stats().assigned_tasks, 0, "validation precedes mutation");
        assert_eq!(s.assign_batch(&[]), Ok(Vec::new()));
    }

    #[test]
    fn sequential_batch_matches_individual_assigns() {
        let make = || {
            let w = generate(&AmtConfig {
                n_groups: 20,
                tasks_per_group: 10,
                vocab_size: 80,
                ..Default::default()
            });
            let s = PlatformState::new(w.space, w.tasks, 5, 99);
            let a = s.register_worker(&["english", "survey"]).unwrap();
            let b = s.register_worker(&["english", "audio"]).unwrap();
            (s, a, b)
        };
        let (seq, a1, b1) = make();
        let rs = seq.assign_batch_sequential(&[a1, b1, a1]).unwrap();
        let (one, a2, b2) = make();
        let expect = vec![
            one.assign(a2).unwrap(),
            one.assign(b2).unwrap(),
            one.assign(a2).unwrap(),
        ];
        assert_eq!(rs, expect, "same RNG stream, same ledger order");
    }

    #[test]
    fn edge_cache_does_not_change_solver_output() {
        // Build two identical states; force one to solve dense-mode without
        // a cache by oversizing the catalog threshold... instead, compare
        // dense (Full) assignments against the documented PR3 property: a
        // cached state restored from a snapshot (cache dropped) must
        // reproduce the original's assignments bit-for-bit.
        let w = generate(&AmtConfig {
            n_groups: 20,
            tasks_per_group: 10,
            vocab_size: 80,
            ..Default::default()
        });
        let s = PlatformState::new(w.space, w.tasks, 5, 1234);
        let wid = s.register_worker(&["english", "survey"]).unwrap();
        let first = s.assign(wid).unwrap(); // builds + uses the cache

        let dir = std::env::temp_dir().join(format!("hta-edgecache-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("state.htasnap");
        s.save_snapshot(&path).unwrap();
        let restored = PlatformState::restore(&path).unwrap(); // cache = None
        let next_cached = s.assign(wid).unwrap();
        let next_fresh = restored.assign(wid).unwrap(); // rebuilds lazily
        assert_eq!(next_cached, next_fresh, "cache reuse is byte-identical");
        assert_ne!(first.tasks, next_cached.tasks);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn warm_start_does_not_change_assignments() {
        let make = || {
            let w = generate(&AmtConfig {
                n_groups: 20,
                tasks_per_group: 10,
                vocab_size: 80,
                ..Default::default()
            });
            let s = PlatformState::new(w.space, w.tasks, 5, 7);
            let a = s.register_worker(&["english", "survey"]).unwrap();
            let b = s.register_worker(&["english", "audio"]).unwrap();
            (s, a, b)
        };
        let (warm, wa, wb) = make();
        assert!(warm.warm_start(), "warm solving defaults to on");
        let (cold, ca, cb) = make();
        cold.set_warm_start(false);

        // Singleton and batch solves, interleaved with completions so the
        // open set churns between solves — the warm path must repair its
        // carried matching to exactly the cold rebuild every round.
        for round in 0..4 {
            let w1 = warm.assign(wa).unwrap();
            let c1 = cold.assign(ca).unwrap();
            assert_eq!(w1, c1, "round {round}: singleton assign diverged");
            let wbatch = warm.assign_batch(&[wb, wa]).unwrap();
            let cbatch = cold.assign_batch(&[cb, ca]).unwrap();
            assert_eq!(wbatch, cbatch, "round {round}: batch assign diverged");
            if let Some(&t) = w1.tasks.first() {
                warm.complete(wa, t).unwrap();
                cold.complete(ca, t).unwrap();
            }
        }
        assert_eq!(warm.stats(), cold.stats());

        // Flipping the knob mid-stream stays byte-identical both ways.
        warm.set_warm_start(false);
        cold.set_warm_start(true);
        assert_eq!(warm.assign(wa).unwrap(), cold.assign(ca).unwrap());
        assert_eq!(
            warm.assign_batch(&[wa, wb]).unwrap(),
            cold.assign_batch(&[ca, cb]).unwrap()
        );
    }

    #[test]
    fn worker_topk_and_candidate_pool_read_paths() {
        let s = state();
        let w = s.register_worker(&["english", "survey"]).unwrap();
        assert!(matches!(
            s.worker_topk(99, 4),
            Err(StateError::UnknownWorker(99))
        ));
        let topk = s.worker_topk(w, 4).unwrap();
        assert!(topk.len() <= 4 && !topk.is_empty());
        assert!(topk.windows(2).all(|p| p[0].1 >= p[1].1), "sorted by score");

        let (pool, hits) = s.candidate_pool(w).unwrap();
        assert!(pool.windows(2).all(|p| p[0] < p[1]), "ascending member ids");
        assert!(hits <= pool.len());
        // The preview is read-only: stats and a later assign are untouched.
        assert_eq!(s.stats().assigned_tasks, 0);
    }

    #[test]
    fn candidate_preview_is_what_assign_solves_over() {
        // TopK through the sparse session (its cache keeps the pool), Full
        // through the dense warm session (it keeps the open list), with the
        // catalog under and over the 1,200-task window. Two workers
        // alternate, so the open set churns between previews.
        let cases = [
            (20, CandidateMode::TopK(16), 1),
            (20, CandidateMode::Full, 0),
            (130, CandidateMode::Full, 0),
        ];
        for (n_groups, mode, cap) in cases {
            let w = generate(&AmtConfig {
                n_groups,
                tasks_per_group: 10,
                vocab_size: 80,
                ..Default::default()
            });
            let n_tasks = w.tasks.len();
            let s = PlatformState::with_mode(w.space, w.tasks, 5, 42, mode);
            s.set_edge_cache_cap(cap);
            let a = s.register_worker(&["english", "survey"]).unwrap();
            let b = s.register_worker(&["english", "audio"]).unwrap();
            for round in 0..3 {
                let ctx = format!("{mode} over {n_tasks} tasks, round {round}");
                let (preview, hits) = s.candidate_pool(a).unwrap();
                let open: Vec<u32> = s.with_inner(|i| {
                    (0..n_tasks as u32)
                        .filter(|&t| i.available[t as usize])
                        .collect()
                });
                let got = s.assign(a).unwrap();
                let solved = s.with_inner(|i| {
                    let session = i.session.as_ref().expect("assign derived a session");
                    match mode {
                        CandidateMode::TopK(_) => {
                            session.sparse_cache().unwrap().members().to_vec()
                        }
                        CandidateMode::Full => session.warm().unwrap().open_list().to_vec(),
                    }
                });
                assert_eq!(preview, solved, "{ctx}");
                assert_eq!(got.tasks.len(), 5, "{ctx}");
                assert!(
                    got.tasks.iter().all(|&t| preview.contains(&(t as u32))),
                    "{ctx}"
                );
                if mode == CandidateMode::Full {
                    // The lowest open ids, up to the window.
                    assert_eq!(hits, preview.len(), "{ctx}");
                    assert_eq!(preview, open[..open.len().min(1200)], "{ctx}");
                }
                s.assign(b).unwrap();
            }
        }
    }

    #[test]
    fn task_keywords_lookup() {
        let s = state();
        assert!(s.task_keywords(0).is_some());
        assert!(s.task_keywords(10_000).is_none());
        assert!(!s.task_keywords(0).unwrap().is_empty());
    }

    #[test]
    fn sparse_mode_matches_dense_past_the_cap() {
        // Three twins in TopK mode, identical seeds: one with an edge-cache
        // cap the catalog exceeds (→ sparse pipeline: per-solve pools +
        // sparse edge cache + sparse warm repair), one with the default cap
        // (→ dense cache + dense warm repair), and one past the cap with
        // warm solving off (→ cold per-solve enumeration). All three must
        // hand out byte-identical assignments through register / assign /
        // assign_batch / complete churn, including a mid-run registration
        // whose unseen keyword widens the keyword space under the workers
        // already seen.
        let make = || {
            let w = generate(&AmtConfig {
                n_groups: 20,
                tasks_per_group: 10,
                vocab_size: 80,
                ..Default::default()
            });
            let s = PlatformState::new(w.space, w.tasks, 5, 0x5AB5);
            s.set_candidate_mode(CandidateMode::TopK(16));
            let a = s.register_worker(&["english", "survey"]).unwrap();
            let b = s.register_worker(&["english", "audio"]).unwrap();
            (s, a, b)
        };
        let (sparse, sa, sb) = make();
        sparse.set_edge_cache_cap(1); // catalog (200) > cap → sparse mode
        let (dense, da, db) = make();
        let (cold, ca, cb) = make();
        cold.set_edge_cache_cap(1);
        cold.set_warm_start(false);

        let width = sparse.with_inner(|i| i.space.len());
        // The worker registered mid-run (same id on every twin).
        let mut late: Option<usize> = None;
        for round in 0..4 {
            if round == 2 {
                let kws = ["english", "unseen-keyword"];
                let c = sparse.register_worker(&kws).unwrap();
                assert_eq!(c, dense.register_worker(&kws).unwrap());
                assert_eq!(c, cold.register_worker(&kws).unwrap());
                late = Some(c);
            }
            let with_late =
                |b: usize, a: usize| -> Vec<usize> { late.into_iter().chain([b, a]).collect() };
            let x = sparse.assign(sa).unwrap();
            let y = dense.assign(da).unwrap();
            let z = cold.assign(ca).unwrap();
            assert_eq!(x, y, "round {round}: sparse vs dense diverged");
            assert_eq!(x, z, "round {round}: sparse vs cold diverged");
            if let Some(c) = late {
                let xc = sparse.assign(c).unwrap();
                assert!(
                    !xc.tasks.is_empty(),
                    "round {round}: late worker got nothing"
                );
                assert_eq!(
                    xc,
                    dense.assign(c).unwrap(),
                    "round {round}: late worker, sparse vs dense"
                );
                assert_eq!(
                    xc,
                    cold.assign(c).unwrap(),
                    "round {round}: late worker, sparse vs cold"
                );
            }
            let xb = sparse.assign_batch(&with_late(sb, sa)).unwrap();
            let yb = dense.assign_batch(&with_late(db, da)).unwrap();
            let zb = cold.assign_batch(&with_late(cb, ca)).unwrap();
            assert_eq!(xb, yb, "round {round}: batch sparse vs dense diverged");
            assert_eq!(xb, zb, "round {round}: batch sparse vs cold diverged");
            let xs = sparse.assign_batch_sequential(&with_late(sb, sa)).unwrap();
            let ys = dense.assign_batch_sequential(&with_late(db, da)).unwrap();
            let zs = cold.assign_batch_sequential(&with_late(cb, ca)).unwrap();
            assert_eq!(xs, ys, "round {round}: seq batch sparse vs dense diverged");
            assert_eq!(xs, zs, "round {round}: seq batch sparse vs cold diverged");
            if let Some(&t) = x.tasks.first() {
                sparse.complete(sa, t).unwrap();
                dense.complete(da, t).unwrap();
                cold.complete(ca, t).unwrap();
            }
        }
        // The sparse pipeline actually engaged (not a silent dense fallback)
        // and solved past a widening.
        sparse.with_inner(|i| {
            assert!(i.space.len() > width, "the keyword space never widened");
            let session = i.session.as_ref();
            let cache = session
                .and_then(|s| s.sparse_cache())
                .expect("sparse cache never built");
            assert!(!cache.members().is_empty(), "sparse cache has no members");
            assert!(
                matches!(session, Some(OpenSetSession::Sparse { warm: Some(_), .. })),
                "sparse warm state never built"
            );
        });
        dense.with_inner(|i| {
            let session = i.session.as_ref();
            assert!(
                session.and_then(|s| s.sparse_cache()).is_none(),
                "dense twin built a sparse cache"
            );
            assert!(
                session.and_then(|s| s.dense_cache()).is_some(),
                "dense twin never built its cache"
            );
        });
        // Serialized state is identical: the sparse pipeline is derived,
        // never snapshotted.
        assert_eq!(sparse.snapshot_bytes(), dense.snapshot_bytes());
        assert_eq!(sparse.snapshot_bytes(), cold.snapshot_bytes());
    }

    #[test]
    fn edge_cache_cap_override_resolves_into_stats() {
        let s = state();
        // No override and (in the test environment) no env var: the
        // built-in default is what /stats reports.
        if std::env::var("HTA_EDGE_CACHE_CAP").is_err() {
            assert_eq!(
                s.stats().edge_cache_cap,
                hta_core::edges::DEFAULT_EDGE_CACHE_TASKS
            );
        }
        s.set_edge_cache_cap(100);
        assert_eq!(s.stats().edge_cache_cap, 100);
        assert_eq!(s.edge_cache_cap(), 100);
        // Shrinking the cap below the catalog drops the dense cache so the
        // sparse pipeline can take over on the next TopK solve.
        s.with_inner(|i| assert!(i.session.as_ref().and_then(|s| s.dense_cache()).is_none()));
        s.set_edge_cache_cap(0);
        if std::env::var("HTA_EDGE_CACHE_CAP").is_err() {
            assert_eq!(
                s.stats().edge_cache_cap,
                hta_core::edges::DEFAULT_EDGE_CACHE_TASKS
            );
        }
    }
}

//! The crowdsourcing platform: the assignment-service workflow of the
//! paper's Figure 4, driven by a discrete-event simulation.
//!
//! Workers enter a work session, are shown an assigned set of tasks
//! (`X_max` solver-assigned plus a few random ones "to avoid falling into a
//! silo"), choose and complete tasks, and are re-assigned when their
//! displayed set runs low. The assignment service monitors completions,
//! re-estimates `(α_w, β_w)` for the adaptive strategy, and solves HTA for
//! all workers that need new tasks at once — the *holistic* part of HTA.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::Arc;

use hta_core::metric::Jaccard;
use hta_core::solver::{HtaGre, WarmState};
use hta_core::{
    EdgeSource, KeywordVec, OpenSetSession, Round, Solver, SparseEdgeCache, WeightEstimator,
    Weights, Worker, WorkerId,
};
use hta_datagen::crowdflower::{CrowdflowerCatalog, KINDS};
use hta_datagen::quality::QualityModel;
use hta_index::{assign_round, CandidateMode, FullWindow, InvertedIndex};
use hta_life::{LifeOutcome, LifecycleBook, PriorityMix, Reputation};
use rand::rngs::StdRng;
use rand::RngExt;

use crate::behavior::BehaviorConfig;
use crate::open_rank::OpenRank;
use crate::population::LiveWorker;
use crate::strategies::Strategy;

/// Platform configuration (paper values as defaults).
#[derive(Debug, Clone)]
pub struct PlatformConfig {
    /// Tasks per solver assignment (the paper sets `X_max = 15`).
    pub xmax: usize,
    /// Extra random tasks displayed alongside ("an additional 5 random
    /// tasks to avoid falling into a silo").
    pub display_extra_random: usize,
    /// Hard session limit in minutes (HITs must finish within 30).
    pub session_minutes: f64,
    /// Trigger a new assignment iteration when a worker's displayed set
    /// drops below this many tasks.
    pub refill_below: usize,
    /// Cap on the number of available tasks considered per HTA solve (the
    /// service works on the current window of open tasks).
    pub max_instance_tasks: usize,
    /// How the assignment service selects solver candidates.
    /// [`CandidateMode::Full`] (the default) windows the open tasks, which
    /// is what the paper's experiment calibration assumes;
    /// [`CandidateMode::TopK`] retrieves per-worker top-k candidates from
    /// the platform's inverted index instead.
    pub candidates: CandidateMode,
    /// Scale of the noise in the worker's task-choice utility.
    pub choice_noise: f64,
    /// How many recent completions feed the marginal-diversity signal.
    pub diversity_memory: usize,
    /// Threads for the assignment solver's parallel pipeline (`0` = auto:
    /// `HTA_SOLVER_THREADS` or the hardware default). Assignments are
    /// byte-identical at any value.
    pub solver_threads: usize,
    /// Reuse the catalog's sorted diversity edge list across assignment
    /// iterations instead of re-enumerating `O(n²)` pairs per solve. Only
    /// takes effect for catalogs small enough to cache (≤ 4096 tasks);
    /// results are byte-identical either way.
    pub reuse_edges: bool,
    /// Contrast applied to the adaptive weight estimate before solving:
    /// `α' = 0.5 + sharpening·(α̂ − 0.5)`, clamped to `[0, 1]`. The paper's
    /// normalized-gain estimator is correct in *direction* but compressed in
    /// *magnitude* (both gains are normalized against the best candidate on
    /// display, so they rarely stray far from ½); the service stretches the
    /// estimate so assignments actually specialize. `1.0` disables.
    pub adaptive_sharpening: f64,
    /// The behaviour model.
    pub behavior: BehaviorConfig,
    /// Enable the task lifecycle layer (`hta-life`): per-task state
    /// machine, verification with requeue-on-bad-answer, deadlines with
    /// requeue-on-timeout, and priority tiers. Off by default — when off,
    /// the platform behaves exactly as before (bit-for-bit, including
    /// every RNG stream).
    pub lifecycle: bool,
    /// Deadline budget in minutes armed when a task is assigned (`0` = no
    /// deadlines). Only takes effect with [`lifecycle`](Self::lifecycle).
    pub deadline_minutes: f64,
    /// How priority tiers are spread over the catalog (deterministic, by
    /// task index — never consumes RNG).
    pub priority_mix: PriorityMix,
    /// Requeue budget per task before a bad answer lands on `Failed` or a
    /// missed deadline on `Expired`.
    pub max_retries: u32,
    /// Verification bar as a fraction of the task kind's base accuracy
    /// (see [`QualityModel`]).
    pub pass_threshold: f64,
    /// Scale each worker's relevance weight `β` by their reputation
    /// ([`Reputation::beta_scale`]) at assignment time. Only takes effect
    /// with [`lifecycle`](Self::lifecycle).
    pub reputation: bool,
    /// Price sensitivity of the composite pool score
    /// ([`Reputation::priced_beta_scale`]): each worker's wage — their
    /// [`speed`](crate::population::LiveWorker::speed), faster workers
    /// charge more — discounts or boosts the reputation factor applied to
    /// `β`. `0.0` (the default) is exactly neutral: the unpriced scale is
    /// used and every byte of a run, snapshots included, is unchanged.
    /// Only takes effect with [`reputation`](Self::reputation).
    pub price_weight: f64,
    /// Largest catalog for which the sorted diversity edge list is cached
    /// (`0` = auto: `HTA_EDGE_CACHE_CAP` or the built-in default). The list
    /// is enumerated on the first solve whose open set holds at least as
    /// many pairs as the catalog has tasks; smaller solves (TopK pools)
    /// enumerate their own pairs and never build it.
    pub edge_cache_cap: usize,
    /// Carry the diversity matching forward between assignment iterations:
    /// the open set is diffed against the previous solve's, only the touched
    /// pairs are invalidated, and the matching is repaired locally instead of
    /// rebuilt from scratch. Requires [`reuse_edges`](Self::reuse_edges) (the
    /// warm state lives on top of the cached edge list) and is skipped when
    /// the catalog exceeds the edge-cache cap. The matching is built on the
    /// first solve that uses the cached list, so solves too small for it
    /// leave the warm state empty. Assignments are byte-identical either
    /// way, at any churn level and thread count.
    pub warm_start: bool,
}

impl Default for PlatformConfig {
    fn default() -> Self {
        Self {
            xmax: 15,
            display_extra_random: 5,
            session_minutes: 30.0,
            refill_below: 8,
            max_instance_tasks: 1200,
            candidates: CandidateMode::Full,
            choice_noise: 0.15,
            diversity_memory: 8,
            solver_threads: 0,
            reuse_edges: true,
            adaptive_sharpening: 4.0,
            behavior: BehaviorConfig::default(),
            lifecycle: false,
            deadline_minutes: 0.0,
            priority_mix: PriorityMix::default(),
            max_retries: 2,
            pass_threshold: 0.9,
            reputation: false,
            price_weight: 0.0,
            edge_cache_cap: 0,
            warm_start: false,
        }
    }
}

/// One completed task within a session.
#[derive(Debug, Clone, PartialEq)]
pub struct CompletionRecord {
    /// Session-relative completion time in minutes.
    pub minute: f64,
    /// Number of questions the task asked.
    pub questions: u32,
    /// Questions answered correctly.
    pub correct: u32,
    /// Task kind (0..22).
    pub kind: usize,
    /// Catalog task index.
    pub task_index: usize,
    /// Worker's boredom level when answering (instrumentation).
    pub boredom: f64,
    /// The worker's engagement (preference-match EMA) at completion time
    /// (instrumentation).
    pub pref_match: f64,
    /// Mean pairwise diversity of the displayed set at completion time
    /// (instrumentation).
    pub display_diversity: f64,
}

/// Why a session ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EndReason {
    /// The 30-minute HIT limit expired.
    TimeLimit,
    /// The worker chose to leave (quit hazard).
    Quit,
    /// No tasks were left to display.
    PoolExhausted,
}

/// One work session.
#[derive(Debug, Clone, PartialEq)]
pub struct SessionRecord {
    /// The strategy arm this session ran under.
    pub strategy: Strategy,
    /// The worker's population index.
    pub worker_index: usize,
    /// How long the worker stayed, in minutes (≤ the session limit).
    pub duration_minutes: f64,
    /// Every completed task, in completion order.
    pub completions: Vec<CompletionRecord>,
    /// Number of assignment iterations the session went through.
    pub iterations: usize,
    /// Why the session ended.
    pub end_reason: EndReason,
    /// Total earnings in cents: the HIT base reward plus per-task rewards
    /// (the paper pays a $0.10 HIT reward plus each task's reward).
    pub earnings_cents: u32,
    /// When the worker arrived, in platform-global minutes (0 unless the
    /// cohort was run with staggered arrivals).
    pub arrival_minute: f64,
}

impl SessionRecord {
    /// Total questions answered.
    pub fn total_questions(&self) -> u32 {
        self.completions.iter().map(|c| c.questions).sum()
    }

    /// Total questions answered correctly.
    pub fn total_correct(&self) -> u32 {
        self.completions.iter().map(|c| c.correct).sum()
    }

    /// Number of completed tasks.
    pub fn n_completed(&self) -> usize {
        self.completions.len()
    }

    /// Mean per-task reward in dollars (the paper reports ≈ $0.064 for the
    /// Hta-Gre arm), excluding the HIT base reward.
    pub fn mean_task_reward_dollars(&self) -> f64 {
        if self.completions.is_empty() {
            return 0.0;
        }
        (self.earnings_cents.saturating_sub(10)) as f64 / 100.0 / self.completions.len() as f64
    }
}

struct Active<'w> {
    worker: &'w LiveWorker,
    /// Platform-global arrival time, minutes.
    arrival: f64,
    display: Vec<usize>,
    display_diversity: f64,
    completed: Vec<usize>,
    boredom: f64,
    /// Exponential average of how well chosen tasks matched the worker's
    /// latent motivation (1 = perfectly engaged).
    pref_match: f64,
    estimator: WeightEstimator,
    alive: bool,
    pending: Option<usize>,
    /// The pending task was yanked off this worker's display by a refill
    /// (re-pooled mid-flight). The lifecycle treats the yank as a release
    /// and discards the orphaned answer when the completion fires.
    pending_yanked: bool,
    pending_minutes: f64,
    iterations: usize,
    record: SessionRecord,
}

/// Cross-cohort lifecycle state: the per-task ledger plus per-worker
/// reputations (indexed by population index). Captured at cohort
/// boundaries for checkpoints, exactly like the availability vector.
#[derive(Debug, Clone, PartialEq)]
pub struct LifeState {
    /// Per-task state machine ledger over the whole catalog.
    pub book: LifecycleBook,
    /// Per-worker reputation, indexed by population index; grown on
    /// demand as workers produce verified work.
    pub reputations: Vec<Reputation>,
}

/// The platform: owns the task availability state across cohorts.
pub struct Platform<'c> {
    catalog: &'c CrowdflowerCatalog,
    cfg: PlatformConfig,
    available: Vec<bool>,
    /// Order statistics over `available`, so random draws select open
    /// tasks without scanning the catalog.
    open_rank: OpenRank,
    /// Keyword index mirroring `available` — every flip goes through
    /// [`Platform::open_task`]/[`Platform::take_task`], so the sparse
    /// candidate path never rebuilds it.
    index: InvertedIndex,
    solver: Box<dyn Solver>,
    /// Edge source and warm state of the assignment solves, built here from
    /// [`EdgeSource::choose`] over `(catalog, cfg)`. Derived state: never
    /// serialized (checkpoints carry only the dense warm essence, see
    /// [`Platform::restore_warm`]); a resumed sparse run starts with an
    /// empty cache and memo, output unchanged.
    session: OpenSetSession,
    /// Lifecycle + reputation layer (`Some` iff the config enables it).
    life: Option<LifeState>,
}

/// The open-set session `cfg` calls for over `catalog`.
fn open_set_session(catalog: &CrowdflowerCatalog, cfg: &PlatformConfig) -> OpenSetSession {
    let source = EdgeSource::choose(
        catalog.tasks.len(),
        cfg.edge_cache_cap,
        cfg.reuse_edges,
        cfg.warm_start,
        cfg.candidates.top_k(),
    );
    let keywords = catalog.tasks.iter().map(|t| &t.task.keywords);
    OpenSetSession::new(source, keywords, &Jaccard, cfg.solver_threads)
}

impl<'c> Platform<'c> {
    /// Build a platform over `catalog` using HTA-GRE (structured costs) as
    /// the assignment solver — the paper deploys HTA-GRE only.
    ///
    /// The random ½-flip of matched pairs (Algorithm 2, lines 12–16) is
    /// disabled here: it exists solely for the worst-case expectation proof
    /// and, under fixed weights (`α = 0` or `β = 0`), strictly damages the
    /// deterministic solution by swapping assigned tasks with their
    /// diversity-matched partners. The paper's deployed REL arm visibly
    /// produced relevance silos (they added 5 random tasks to break them),
    /// which is only consistent with the unflipped solution.
    pub fn new(catalog: &'c CrowdflowerCatalog, cfg: PlatformConfig) -> Self {
        let pairs: Vec<(u32, &KeywordVec)> = catalog
            .tasks
            .iter()
            .enumerate()
            .map(|(i, t)| (i as u32, &t.task.keywords))
            .collect();
        let nbits = catalog.space.len();
        let index = InvertedIndex::build(nbits, &pairs);
        let session = open_set_session(catalog, &cfg);
        let solver = HtaGre::structured()
            .without_flip()
            .with_threads(cfg.solver_threads);
        let life = cfg.lifecycle.then(|| LifeState {
            book: LifecycleBook::new(catalog.tasks.len(), &cfg.priority_mix, cfg.max_retries),
            reputations: Vec::new(),
        });
        Self {
            catalog,
            cfg,
            open_rank: OpenRank::new(&vec![true; catalog.tasks.len()]),
            available: vec![true; catalog.tasks.len()],
            index,
            solver: Box::new(solver),
            session,
            life,
        }
    }

    /// Rebuild a platform from checkpointed cross-cohort state: the task
    /// availability vector and the keyword index, exactly as captured by
    /// [`Platform::availability`]/[`Platform::index`] at a cohort boundary.
    /// The solver and the diversity edge cache are deterministic functions
    /// of `(catalog, cfg)` and are rebuilt rather than stored; the index is
    /// taken verbatim because its posting-list order encodes swap-remove
    /// history and affects future retrieval order.
    ///
    /// Fails (with a description) when the pieces are mutually
    /// inconsistent — the constructor never builds a half-valid platform.
    pub fn resume(
        catalog: &'c CrowdflowerCatalog,
        cfg: PlatformConfig,
        available: Vec<bool>,
        index: InvertedIndex,
        life: Option<LifeState>,
    ) -> Result<Self, String> {
        if available.len() != catalog.tasks.len() {
            return Err(format!(
                "availability vector covers {} tasks, catalog has {}",
                available.len(),
                catalog.tasks.len()
            ));
        }
        if index.nbits() != catalog.space.len() {
            return Err(format!(
                "index keyword universe has {} bits, catalog has {}",
                index.nbits(),
                catalog.space.len()
            ));
        }
        let open = available.iter().filter(|&&a| a).count();
        if index.len() != open {
            return Err(format!(
                "index holds {} open tasks, availability vector has {}",
                index.len(),
                open
            ));
        }
        for t in index.open_tasks() {
            if !available[t as usize] {
                return Err(format!(
                    "index lists task {t} as open but the availability vector does not"
                ));
            }
        }
        match (&life, cfg.lifecycle) {
            (Some(_), false) => {
                return Err("checkpoint carries lifecycle state but the config disables it".into())
            }
            (None, true) => {
                return Err("config enables the lifecycle but the checkpoint has no state".into())
            }
            _ => {}
        }
        if let Some(l) = &life {
            if l.book.len() != catalog.tasks.len() {
                return Err(format!(
                    "lifecycle book covers {} tasks, catalog has {}",
                    l.book.len(),
                    catalog.tasks.len()
                ));
            }
            // At a cohort boundary every in-flight task was released, so
            // the open pool and the Pending set must coincide exactly.
            for (i, &open) in available.iter().enumerate() {
                let pending = l.book.get(i).state() == hta_life::TaskState::Pending;
                if open != pending {
                    return Err(format!(
                        "task {i} is {} but its lifecycle state is {}",
                        if open { "open" } else { "closed" },
                        l.book.get(i).state()
                    ));
                }
            }
        }
        let session = open_set_session(catalog, &cfg);
        let solver = HtaGre::structured()
            .without_flip()
            .with_threads(cfg.solver_threads);
        Ok(Self {
            catalog,
            cfg,
            open_rank: OpenRank::new(&available),
            available,
            index,
            solver: Box::new(solver),
            session,
            life,
        })
    }

    /// The warm-start matching state (`None` unless the config enables
    /// [`PlatformConfig::warm_start`] and the catalog fits the edge cache).
    /// Checkpoints capture its serialized essence — the cache fingerprint
    /// plus the open list — and rebuild the matching deterministically on
    /// restore through [`Platform::restore_warm`].
    pub fn warm(&self) -> Option<&WarmState> {
        self.session.warm()
    }

    /// The pool-scoped sparse edge cache (`None` unless the sparse
    /// warm-start pipeline is active: [`PlatformConfig::warm_start`] +
    /// [`CandidateMode::TopK`] with the catalog past the dense edge-cache
    /// cap). Derived state — never checkpointed; a resumed run rebuilds it
    /// from the first pool and produces byte-identical assignments.
    pub fn sparse_cache(&self) -> Option<&SparseEdgeCache> {
        self.session.sparse_cache()
    }

    /// Whether the sparse warm-start pipeline has solved at least once
    /// (i.e. warm state exists over the sparse edges).
    pub fn sparse_warm_active(&self) -> bool {
        matches!(self.session, OpenSetSession::Sparse { warm: Some(_), .. })
    }

    /// Reinstall checkpointed warm-start state: `fingerprint` must match the
    /// live edge cache (same catalog, same keywords) and `open` must be the
    /// strictly-increasing open list captured at the checkpoint. The
    /// matching itself is *not* stored — it is a pure function of the open
    /// set and is rebuilt here, which keeps snapshots small and cannot
    /// diverge from what a continuous run would hold.
    ///
    /// Fails when warm start is disabled, no edge cache exists, or the
    /// fingerprint does not match the live cache.
    pub fn restore_warm(&mut self, fingerprint: u64, open: &[u32]) -> Result<(), String> {
        if !self.cfg.warm_start {
            return Err("checkpoint carries warm-start state but the config disables it".into());
        }
        let Some(cache) = self.session.dense_cache() else {
            return Err("warm-start state requires the diversity edge cache".into());
        };
        if cache.fingerprint() != fingerprint {
            return Err(format!(
                "warm-start fingerprint {fingerprint:#018x} does not match the catalog's edge \
                 cache ({:#018x})",
                cache.fingerprint()
            ));
        }
        if !open.windows(2).all(|w| w[0] < w[1])
            || open.last().is_some_and(|&g| g as usize >= cache.n_tasks())
        {
            return Err("warm-start open list is not a sorted in-range task set".into());
        }
        self.session.restore_warm(open);
        Ok(())
    }

    /// The task-availability vector (catalog order) — the platform's
    /// cross-cohort state, captured at cohort boundaries for checkpoints.
    pub fn availability(&self) -> &[bool] {
        &self.available
    }

    /// The keyword index over the open tasks (the other half of the
    /// cross-cohort state).
    pub fn index(&self) -> &InvertedIndex {
        &self.index
    }

    /// The lifecycle + reputation state (`None` unless the config enables
    /// [`PlatformConfig::lifecycle`]). The third piece of cross-cohort
    /// state captured by checkpoints.
    pub fn life(&self) -> Option<&LifeState> {
        self.life.as_ref()
    }

    /// Lifecycle hook: task `idx` was pushed onto a display
    /// (`Pending → Assigned`), arming the configured deadline budget.
    fn life_assign(&mut self, idx: usize, now_global: f64) {
        if let Some(life) = self.life.as_mut() {
            let budget = (self.cfg.deadline_minutes > 0.0).then_some(self.cfg.deadline_minutes);
            life.book
                .assign(idx, now_global, budget)
                .expect("an open task is Pending");
        }
    }

    /// Lifecycle hook: task `idx` returns to the pool untouched (worker
    /// quit, display refresh) — `Assigned/Computing → Pending`, no retry.
    fn life_release(&mut self, idx: usize) {
        if let Some(life) = self.life.as_mut() {
            life.book
                .release(idx)
                .expect("a displayed task is Assigned or Computing");
        }
    }

    /// Lifecycle hook: the worker picked task `idx` off the display
    /// (`Assigned → Computing`).
    fn life_start(&mut self, idx: usize) {
        if let Some(life) = self.life.as_mut() {
            life.book.start(idx).expect("a chosen task is Assigned");
        }
    }

    /// Lifecycle hook: a completed answer is settled — submitted for
    /// verification, expired if the deadline already passed, otherwise
    /// graded by the [`QualityModel`]. Requeued tasks rejoin the open
    /// pool; with reputation on, the worker's EWMA observes the outcome.
    ///
    /// The verdict is a pure function of state the behaviour model already
    /// produced (no RNG draws), so the calibrated random streams are
    /// untouched.
    fn life_settle(
        &mut self,
        task_idx: usize,
        worker_index: usize,
        now_global: f64,
        rec: &CompletionRecord,
    ) {
        if self.life.is_none() {
            return;
        }
        let quality = QualityModel::new(self.cfg.pass_threshold);
        let reputation_on = self.cfg.reputation;
        let life = self.life.as_mut().expect("checked above");
        life.book
            .submit(task_idx)
            .expect("a completed task is Computing");
        let outcome = if life.book.get(task_idx).overdue(now_global) {
            life.book
                .expire(task_idx)
                .expect("a Verifying task can expire")
        } else {
            let pass = quality.passes(rec.kind, rec.questions, rec.correct);
            life.book
                .verify(task_idx, pass)
                .expect("a Verifying task can be verified")
        };
        if reputation_on {
            while life.reputations.len() <= worker_index {
                life.reputations.push(Reputation::new());
            }
            life.reputations[worker_index].observe(outcome == LifeOutcome::Completed);
        }
        if outcome == LifeOutcome::Requeued {
            self.open_task(task_idx);
        }
    }

    /// Return a task to the open pool, keeping the index in sync.
    fn open_task(&mut self, idx: usize) {
        if !self.available[idx] {
            self.available[idx] = true;
            self.open_rank.open(idx);
            self.index
                .insert(idx as u32, &self.catalog.tasks[idx].task.keywords);
        }
    }

    /// Take a task off the open pool, keeping the index in sync.
    fn take_task(&mut self, idx: usize) {
        if self.available[idx] {
            self.available[idx] = false;
            self.open_rank.close(idx);
            self.index.remove(idx as u32);
        }
    }

    /// Number of open tasks held by the keyword index (equals
    /// [`Platform::open_tasks`] by construction; exposed for invariants in
    /// tests and monitoring).
    pub fn indexed_open_tasks(&self) -> usize {
        self.index.len()
    }

    /// Replace the assignment solver (ablations).
    pub fn with_solver(mut self, solver: Box<dyn Solver>) -> Self {
        self.solver = solver;
        self
    }

    /// Number of catalog tasks still open.
    pub fn open_tasks(&self) -> usize {
        self.open_rank.len()
    }

    fn jaccard(a: &KeywordVec, b: &KeywordVec) -> f64 {
        hta_core::kernels::jaccard_distance(a, b)
    }

    fn task_kw(&self, idx: usize) -> &KeywordVec {
        &self.catalog.tasks[idx].task.keywords
    }

    fn mean_pairwise_diversity(&self, tasks: &[usize]) -> f64 {
        if tasks.len() < 2 {
            return 0.0;
        }
        let mut sum = 0.0;
        let mut n = 0usize;
        for (i, &a) in tasks.iter().enumerate() {
            for &b in &tasks[i + 1..] {
                sum += Self::jaccard(self.task_kw(a), self.task_kw(b));
                n += 1;
            }
        }
        sum / n as f64
    }

    /// Marginal diversity of candidate `t` against the most recent
    /// completions (bounded by `diversity_memory`).
    fn marginal_diversity(&self, completed: &[usize], t: usize) -> f64 {
        let recent = &completed[completed.len().saturating_sub(self.cfg.diversity_memory)..];
        recent
            .iter()
            .map(|&c| Self::jaccard(self.task_kw(c), self.task_kw(t)))
            .sum()
    }

    fn relevance(&self, worker: &LiveWorker, t: usize) -> f64 {
        1.0 - Self::jaccard(self.task_kw(t), &worker.keywords)
    }

    /// Run one cohort of concurrent sessions under `strategy`, everyone
    /// arriving at time 0.
    pub fn run_cohort(
        &mut self,
        strategy: Strategy,
        workers: &[&LiveWorker],
        rng: &mut StdRng,
    ) -> Vec<SessionRecord> {
        let arrivals = vec![0.0; workers.len()];
        self.run_cohort_with_arrivals(strategy, workers, &arrivals, rng)
    }

    /// Run one cohort with *staggered arrivals*: worker `i` enters the
    /// platform at `arrivals[i]` minutes (the "New w" path of the paper's
    /// Figure 4 — the assignment service is notified and assigns an initial
    /// set on the spot). Each session still runs on its own 30-minute HIT
    /// clock; recorded minutes are session-relative.
    pub fn run_cohort_with_arrivals(
        &mut self,
        strategy: Strategy,
        workers: &[&LiveWorker],
        arrivals: &[f64],
        rng: &mut StdRng,
    ) -> Vec<SessionRecord> {
        assert_eq!(workers.len(), arrivals.len());
        assert!(
            arrivals.iter().all(|&a| a >= 0.0),
            "arrivals must be non-negative"
        );
        let mut active: Vec<Active> = workers
            .iter()
            .zip(arrivals)
            .map(|(w, &arrival)| Active {
                worker: w,
                arrival,
                display: Vec::new(),
                display_diversity: 0.0,
                completed: Vec::new(),
                boredom: 0.0,
                pref_match: 1.0,
                estimator: WeightEstimator::new(Weights::balanced()),
                alive: true,
                pending: None,
                pending_yanked: false,
                pending_minutes: 0.0,
                iterations: 0,
                record: SessionRecord {
                    strategy,
                    worker_index: w.index,
                    duration_minutes: 0.0,
                    completions: Vec::new(),
                    iterations: 0,
                    end_reason: EndReason::TimeLimit,
                    earnings_cents: 10, // $0.10 HIT base reward
                    arrival_minute: arrival,
                },
            })
            .collect();

        // ---- Event loop ---------------------------------------------------
        // Heap keys are (micro-minutes, slot, kind); kind 0 = arrival,
        // kind 1 = task completion. Arrivals sort before completions at the
        // same instant.
        const ARRIVAL: u8 = 0;
        let mut heap: BinaryHeap<Reverse<(u64, u8, usize)>> = BinaryHeap::new();
        for (slot, a) in active.iter().enumerate() {
            heap.push(Reverse(((a.arrival * 1e6) as u64, ARRIVAL, slot)));
        }

        while let Some(Reverse((t_us, kind, slot))) = heap.pop() {
            let now_global = t_us as f64 / 1e6;
            if !active[slot].alive {
                continue;
            }
            if kind == ARRIVAL {
                // Batch all simultaneous arrivals: the assignment service
                // solves HTA *holistically* for everyone who just arrived.
                let mut batch = vec![slot];
                while let Some(&Reverse((t2, k2, s2))) = heap.peek() {
                    if t2 == t_us && k2 == ARRIVAL {
                        heap.pop();
                        batch.push(s2);
                    } else {
                        break;
                    }
                }
                batch.sort_unstable();
                // Initial assignment (cold start): the adaptive strategy
                // cold-starts with random tasks (Section V-C); fixed-weight
                // strategies solve HTA on arrival; Random draws randomly.
                if strategy.uses_solver() && !strategy.is_adaptive() {
                    self.assign_iteration(strategy, &mut active, &batch, now_global, rng);
                    for &s in &batch {
                        self.add_random_extras(&mut active[s], now_global, rng);
                    }
                } else {
                    for &s in &batch {
                        self.assign_random(&mut active[s], self.cfg.xmax, now_global, rng);
                        active[s].iterations += 1;
                    }
                }
                for &s in &batch {
                    self.refresh_display_diversity(&mut active[s]);
                    if active[s].display.is_empty() {
                        self.end_session(&mut active[s], 0.0, EndReason::PoolExhausted);
                        continue;
                    }
                    self.schedule_next_at(&mut active[s], s, now_global, &mut heap, rng);
                }
                continue;
            }
            let now = now_global - active[slot].arrival; // session-relative
            if now >= self.cfg.session_minutes {
                // The HIT clock ran out mid-task; the task does not count.
                self.end_session(
                    &mut active[slot],
                    self.cfg.session_minutes,
                    EndReason::TimeLimit,
                );
                continue;
            }
            let task_idx = active[slot]
                .pending
                .take()
                .expect("a scheduled worker always has a pending task");
            let yanked = std::mem::replace(&mut active[slot].pending_yanked, false);
            // A yanked task may have been handed straight back to its own
            // worker by the refill solve — then the completion is genuine.
            let readded = yanked && active[slot].display.contains(&task_idx);
            self.complete_task(strategy, &mut active[slot], task_idx, now, rng);
            if !yanked || readded {
                if readded {
                    // Re-assigned to the same worker mid-flight: catch the
                    // ledger up (`Assigned → Computing`) before settling.
                    self.life_start(task_idx);
                }
                let rec = active[slot]
                    .record
                    .completions
                    .last()
                    .expect("complete_task just recorded a completion")
                    .clone();
                self.life_settle(task_idx, active[slot].worker.index, now_global, &rec);
            }
            // else: the answer is orphaned — the task was re-pooled (and
            // possibly re-assigned elsewhere) while this worker held it;
            // the session record keeps the completion, the ledger does not.

            // Quit decision.
            let a = &mut active[slot];
            let quit_p = self.cfg.behavior.quit_probability(
                a.boredom,
                a.display_diversity,
                a.pref_match,
                a.pending_minutes,
            );
            if rng.random_bool(quit_p) {
                self.end_session(&mut active[slot], now, EndReason::Quit);
                continue;
            }

            // Refill via the assignment service when the display runs low.
            // "At each iteration, each worker w is shown a *new* set of
            // tasks" (Section V-C): the stale display returns to the pool
            // and is replaced wholesale.
            if active[slot].display.len() < self.cfg.refill_below {
                let needy: Vec<usize> = (0..active.len())
                    .filter(|&s| active[s].alive && active[s].display.len() < self.cfg.refill_below)
                    .collect();
                for &s in &needy {
                    if active[s].pending.is_some() {
                        // The display still holds the task this worker is
                        // computing; popping it re-pools it mid-flight.
                        active[s].pending_yanked = true;
                    }
                    while let Some(t) = active[s].display.pop() {
                        self.life_release(t);
                        self.open_task(t);
                    }
                }
                self.assign_iteration(strategy, &mut active, &needy, now_global, rng);
                for &s in &needy {
                    self.add_random_extras(&mut active[s], now_global, rng);
                    self.refresh_display_diversity(&mut active[s]);
                }
            }

            if active[slot].display.is_empty() {
                // Pool exhausted: the worker has nothing left to do.
                self.end_session(&mut active[slot], now, EndReason::PoolExhausted);
                continue;
            }
            self.schedule_next_at(&mut active[slot], slot, now_global, &mut heap, rng);
        }

        // Anything still alive (e.g. never scheduled) ends at the limit.
        active
            .into_iter()
            .map(|mut a| {
                if a.alive {
                    a.record.duration_minutes = self.cfg.session_minutes;
                }
                a.record.iterations = a.iterations;
                a.record
            })
            .collect()
    }

    fn end_session(&mut self, a: &mut Active, at: f64, reason: EndReason) {
        a.alive = false;
        a.record.duration_minutes = at.min(self.cfg.session_minutes);
        a.record.iterations = a.iterations;
        a.record.end_reason = reason;
        // Tasks displayed but never completed go back to the open pool
        // (the platform re-posts them for other workers). The pending task
        // is normally still on the display too — release it exactly once.
        let pending = a.pending.take();
        let pending_in_display = pending.is_some_and(|p| a.display.contains(&p));
        let pending_yanked = std::mem::replace(&mut a.pending_yanked, false);
        while let Some(t) = a.display.pop() {
            self.life_release(t);
            self.open_task(t);
        }
        if let Some(p) = pending {
            if self.life.is_none() {
                // Pre-lifecycle behaviour, verbatim: a no-op when the pop
                // loop above already re-opened the task.
                self.open_task(p);
            } else if !pending_in_display && !pending_yanked {
                self.life_release(p);
                self.open_task(p);
            }
            // A yanked pending task that was not handed back belongs to
            // the pool (or another worker) already — leave it alone.
        }
    }

    /// The worker chooses the next task from the display: utility is the
    /// latent preference blend of normalized marginal diversity and
    /// relevance, plus noise.
    /// Returns the chosen task and its noise-free *preference match*.
    ///
    /// The choice utility uses display-relative novelty (the worker picks
    /// the most diverse thing on offer), but the reported match uses the
    /// *absolute* mean distance to the recent stream: a diversity-seeking
    /// worker stuck in a relevance silo picks the relatively-most-diverse
    /// task yet is still dissatisfied — that dissatisfaction drives the
    /// disengagement quit hazard.
    fn choose_task(&self, a: &Active, rng: &mut StdRng) -> (usize, f64) {
        debug_assert!(!a.display.is_empty());
        let recent_len = a.completed.len().min(self.cfg.diversity_memory).max(1) as f64;
        let mdivs: Vec<f64> = a
            .display
            .iter()
            .map(|&t| self.marginal_diversity(&a.completed, t))
            .collect();
        let max_mdiv = mdivs.iter().fold(0.0f64, |m, &v| m.max(v));
        let mut best = a.display[0];
        let mut best_u = f64::NEG_INFINITY;
        let mut best_match = 0.0;
        for (i, &t) in a.display.iter().enumerate() {
            // Display-relative novelty for the choice; fully novel when
            // there is no history yet.
            let nd_rel = if max_mdiv > 0.0 {
                mdivs[i] / max_mdiv
            } else {
                1.0
            };
            // Absolute novelty for satisfaction.
            let nd_abs = if a.completed.is_empty() {
                1.0
            } else {
                (mdivs[i] / recent_len).clamp(0.0, 1.0)
            };
            let rel = self.relevance(a.worker, t);
            let u = a.worker.latent_alpha * nd_rel
                + (1.0 - a.worker.latent_alpha) * rel
                + self.cfg.choice_noise * rng.random::<f64>();
            if u > best_u {
                best_u = u;
                best = t;
                best_match = a.worker.latent_alpha * nd_abs + (1.0 - a.worker.latent_alpha) * rel;
            }
        }
        (best, best_match)
    }

    fn schedule_next_at(
        &mut self,
        a: &mut Active,
        slot: usize,
        now_global: f64,
        heap: &mut BinaryHeap<Reverse<(u64, u8, usize)>>,
        rng: &mut StdRng,
    ) {
        let (chosen, pref_match) = self.choose_task(a, rng);
        self.life_start(chosen);
        a.pref_match = 0.7 * a.pref_match + 0.3 * pref_match;
        let switch_div = a
            .completed
            .last()
            .map(|&prev| Self::jaccard(self.task_kw(prev), self.task_kw(chosen)))
            .unwrap_or(0.5);
        let dt = self.cfg.behavior.task_minutes(
            rng,
            a.worker.speed,
            switch_div,
            a.display_diversity,
            self.relevance(a.worker, chosen),
            a.boredom,
        );
        a.pending = Some(chosen);
        a.pending_minutes = dt;
        let t_us = ((now_global + dt) * 1e6) as u64;
        heap.push(Reverse((t_us, 1, slot)));
    }

    fn complete_task(
        &mut self,
        strategy: Strategy,
        a: &mut Active,
        task_idx: usize,
        now: f64,
        rng: &mut StdRng,
    ) {
        let micro = &self.catalog.tasks[task_idx];
        let kind = &KINDS[micro.kind];

        // Answer the questions.
        let acc = self.cfg.behavior.accuracy(
            kind.base_accuracy_pct as f64 / 100.0,
            a.worker.skill[micro.kind],
            a.boredom,
        );
        let mut correct = 0u32;
        for _ in &micro.questions {
            if rng.random_bool(acc) {
                correct += 1;
            }
        }
        a.record.earnings_cents += micro.task.reward_cents;
        a.record.completions.push(CompletionRecord {
            minute: now,
            questions: micro.questions.len() as u32,
            correct,
            kind: micro.kind,
            task_index: task_idx,
            boredom: a.boredom,
            pref_match: a.pref_match,
            display_diversity: a.display_diversity,
        });

        // Adaptive signal: normalized marginal gains over the display
        // (Section III), observed before the task leaves the display.
        if strategy.is_adaptive() {
            let gd = self.marginal_diversity(&a.completed, task_idx);
            let max_gd = a
                .display
                .iter()
                .map(|&c| self.marginal_diversity(&a.completed, c))
                .fold(0.0f64, f64::max);
            let gr = self.relevance(a.worker, task_idx);
            let max_gr = a
                .display
                .iter()
                .map(|&c| self.relevance(a.worker, c))
                .fold(0.0f64, f64::max);
            a.estimator.observe_gains(
                (max_gd > 0.0).then(|| gd / max_gd),
                (max_gr > 0.0).then(|| gr / max_gr),
            );
        }

        // Boredom follows the similarity of the new task to the *recent
        // stream* of completions (not just the previous task): a worker
        // alternating between two near-identical kinds is still doing
        // monotonous work.
        if !a.completed.is_empty() {
            let recent =
                &a.completed[a.completed.len().saturating_sub(self.cfg.diversity_memory)..];
            let mean_sim = recent
                .iter()
                .map(|&c| 1.0 - Self::jaccard(self.task_kw(c), self.task_kw(task_idx)))
                .sum::<f64>()
                / recent.len() as f64;
            a.boredom = self.cfg.behavior.boredom_update(a.boredom, mean_sim);
        }

        a.completed.push(task_idx);
        a.display.retain(|&t| t != task_idx);
        self.refresh_display_diversity(a);
    }

    fn refresh_display_diversity(&self, a: &mut Active) {
        a.display_diversity = self.mean_pairwise_diversity(&a.display);
    }

    /// Draw `count` random available tasks into the display.
    fn assign_random(&mut self, a: &mut Active, count: usize, now_global: f64, rng: &mut StdRng) {
        for idx in self.open_rank.draw(count, rng) {
            self.take_task(idx);
            self.life_assign(idx, now_global);
            a.display.push(idx);
        }
    }

    fn add_random_extras(&mut self, a: &mut Active, now_global: f64, rng: &mut StdRng) {
        self.assign_random(a, self.cfg.display_extra_random, now_global, rng);
    }

    /// One assignment-service iteration: solve HTA for the flagged workers
    /// over (a window of) the open tasks, then push the assigned tasks into
    /// their displays.
    fn assign_iteration(
        &mut self,
        strategy: Strategy,
        active: &mut [Active],
        slots: &[usize],
        now_global: f64,
        rng: &mut StdRng,
    ) {
        if slots.is_empty() {
            return;
        }
        if !strategy.uses_solver() {
            for &slot in slots {
                self.assign_random(&mut active[slot], self.cfg.xmax, now_global, rng);
                active[slot].iterations += 1;
            }
            return;
        }
        let local_workers: Vec<Worker> = slots
            .iter()
            .enumerate()
            .map(|(li, &slot)| {
                let a = &active[slot];
                let mut weights = strategy.fixed_weights().unwrap_or_else(|| {
                    let est = a.estimator.estimate();
                    let alpha =
                        (0.5 + self.cfg.adaptive_sharpening * (est.alpha() - 0.5)).clamp(0.0, 1.0);
                    Weights::from_alpha(alpha)
                });
                if self.cfg.reputation {
                    // Reputation scales the relevance term of Eq. 3: a
                    // proven worker gets more relevance weight, an unproven
                    // one gets pulled toward the prior (scale 1 = neutral).
                    // With a nonzero price weight the worker's wage (speed
                    // stands in for it: fast workers charge more) is folded
                    // into the composite pool score first.
                    let price_weight = self.cfg.price_weight;
                    let scale = self
                        .life
                        .as_ref()
                        .and_then(|l| l.reputations.get(a.worker.index))
                        .map(|r| {
                            if price_weight != 0.0 {
                                r.priced_beta_scale(a.worker.speed, price_weight)
                            } else {
                                r.beta_scale()
                            }
                        })
                        .unwrap_or(1.0);
                    weights = weights.scale_beta(scale);
                }
                Worker::new(WorkerId(li as u32), a.worker.keywords.clone()).with_weights(weights)
            })
            .collect();

        let catalog = self.catalog;
        let round = Round {
            workers: local_workers,
            task: &|t| &catalog.tasks[t as usize].task,
            xmax: self.cfg.xmax,
            distance: Arc::new(Jaccard),
            solver: &*self.solver,
        };
        // Full mode samples `max_instance_tasks` open tasks uniformly when
        // more are open. The sample is unsorted, so the session's guards
        // then solve without edge reuse, byte-identically.
        let Some((out, _)) = assign_round(
            &mut self.session,
            self.cfg.candidates,
            FullWindow::Sample(self.cfg.max_instance_tasks),
            &self.index,
            &self.available,
            round,
            rng,
        )
        .expect("platform instances are well-formed") else {
            return;
        };

        for (li, &slot) in slots.iter().enumerate() {
            for ci in out.tasks_of(li) {
                let ci = ci as usize;
                debug_assert!(self.available[ci]);
                self.take_task(ci);
                self.life_assign(ci, now_global);
                active[slot].display.push(ci);
            }
            active[slot].iterations += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::population::{generate, PopulationConfig};
    use hta_datagen::crowdflower::CrowdflowerConfig;
    use rand::SeedableRng;

    fn small_catalog() -> CrowdflowerCatalog {
        CrowdflowerCatalog::generate(&CrowdflowerConfig {
            n_tasks: 600,
            ..Default::default()
        })
    }

    fn run_strategy(strategy: Strategy, seed: u64) -> Vec<SessionRecord> {
        let catalog = small_catalog();
        let pop = generate(
            &catalog.space,
            &PopulationConfig {
                n_workers: 4,
                ..Default::default()
            },
        );
        let mut platform = Platform::new(&catalog, PlatformConfig::default());
        let refs: Vec<&LiveWorker> = pop.iter().collect();
        let mut rng = StdRng::seed_from_u64(seed);
        platform.run_cohort(strategy, &refs, &mut rng)
    }

    #[test]
    fn sessions_complete_with_sane_records() {
        for strategy in Strategy::ALL {
            let records = run_strategy(strategy, 7);
            assert_eq!(records.len(), 4);
            for r in &records {
                assert_eq!(r.strategy, strategy);
                assert!(r.duration_minutes > 0.0 && r.duration_minutes <= 30.0);
                assert!(r.iterations >= 1, "{strategy:?} had no iterations");
                for c in &r.completions {
                    assert!(c.minute <= 30.0);
                    assert!(c.correct <= c.questions);
                    assert!(c.kind < 22);
                }
                // Completion times are non-decreasing.
                for w in r.completions.windows(2) {
                    assert!(w[0].minute <= w[1].minute);
                }
                assert!(r.total_correct() <= r.total_questions());
            }
            // The cohort completes a plausible number of tasks in 30 min.
            let total: usize = records.iter().map(|r| r.n_completed()).sum();
            assert!(total > 20, "{strategy:?}: only {total} completions");
        }
    }

    #[test]
    fn tasks_never_assigned_twice_within_cohort() {
        let records = run_strategy(Strategy::HtaGre, 9);
        let mut seen = std::collections::HashSet::new();
        for r in &records {
            for c in &r.completions {
                assert!(seen.insert(c.task_index), "task completed twice");
            }
        }
    }

    #[test]
    fn edge_reuse_does_not_change_the_simulation() {
        let catalog = small_catalog();
        let pop = generate(
            &catalog.space,
            &PopulationConfig {
                n_workers: 4,
                ..Default::default()
            },
        );
        let refs: Vec<&LiveWorker> = pop.iter().collect();
        let run = |reuse_edges: bool| {
            let cfg = PlatformConfig {
                reuse_edges,
                solver_threads: 1,
                ..Default::default()
            };
            let mut platform = Platform::new(&catalog, cfg);
            assert_eq!(platform.session.dense_cache().is_some(), reuse_edges);
            let mut rng = StdRng::seed_from_u64(19);
            platform.run_cohort(Strategy::HtaGre, &refs, &mut rng)
        };
        let with_cache = run(true);
        let without = run(false);
        assert_eq!(with_cache.len(), without.len());
        for (a, b) in with_cache.iter().zip(&without) {
            assert_eq!(a.duration_minutes, b.duration_minutes);
            assert_eq!(a.n_completed(), b.n_completed());
            for (ca, cb) in a.completions.iter().zip(&b.completions) {
                assert_eq!(ca.task_index, cb.task_index);
                assert_eq!(ca.minute, cb.minute);
            }
        }
    }

    #[test]
    fn warm_start_does_not_change_the_simulation() {
        let catalog = small_catalog();
        let pop = generate(
            &catalog.space,
            &PopulationConfig {
                n_workers: 4,
                ..Default::default()
            },
        );
        let refs: Vec<&LiveWorker> = pop.iter().collect();
        let run = |warm_start: bool, threads: usize| {
            let cfg = PlatformConfig {
                warm_start,
                solver_threads: threads,
                ..Default::default()
            };
            let mut platform = Platform::new(&catalog, cfg);
            assert_eq!(platform.session.warm().is_some(), warm_start);
            let mut rng = StdRng::seed_from_u64(37);
            let records = platform.run_cohort(Strategy::HtaGre, &refs, &mut rng);
            if warm_start {
                // The refill solves actually drove the warm path: the state
                // holds the last solve's open set.
                assert!(!platform.warm().unwrap().open_list().is_empty());
            }
            records
        };
        let cold = run(false, 1);
        // Warm runs at two thread counts: both must match the cold run
        // exactly (same tasks, same times, same earnings).
        for threads in [1usize, 4] {
            let warm = run(true, threads);
            assert_eq!(warm.len(), cold.len());
            for (a, b) in warm.iter().zip(&cold) {
                assert_eq!(a.duration_minutes, b.duration_minutes);
                assert_eq!(a.earnings_cents, b.earnings_cents);
                assert_eq!(a.completions, b.completions);
            }
        }
    }

    #[test]
    fn sparse_warm_start_does_not_change_the_simulation() {
        let catalog = small_catalog();
        let pop = generate(
            &catalog.space,
            &PopulationConfig {
                n_workers: 4,
                ..Default::default()
            },
        );
        let refs: Vec<&LiveWorker> = pop.iter().collect();
        // `edge_cache_cap: 1` forces the dense cache off for this 600-task
        // catalog, standing in for "catalog past the 4096 cap".
        let run = |warm_start: bool, cap: usize, threads: usize| {
            let cfg = PlatformConfig {
                candidates: CandidateMode::TopK(16),
                warm_start,
                edge_cache_cap: cap,
                solver_threads: threads,
                ..Default::default()
            };
            let mut platform = Platform::new(&catalog, cfg);
            let sparse = warm_start && cap == 1;
            assert_eq!(platform.sparse_cache().is_some(), sparse);
            let mut rng = StdRng::seed_from_u64(53);
            let records = platform.run_cohort(Strategy::HtaGre, &refs, &mut rng);
            if sparse {
                assert!(platform.sparse_warm_active(), "the sparse path solved");
                assert!(!platform.sparse_cache().unwrap().members().is_empty());
            }
            records
        };
        let cold_sparse = run(false, 1, 1);
        let dense_warm = run(true, 0, 1);
        for threads in [1usize, 4] {
            let sparse_warm = run(true, 1, threads);
            assert_eq!(sparse_warm.len(), cold_sparse.len());
            for (a, b) in sparse_warm.iter().zip(&cold_sparse) {
                assert_eq!(a.duration_minutes, b.duration_minutes);
                assert_eq!(a.earnings_cents, b.earnings_cents);
                assert_eq!(a.completions, b.completions);
            }
        }
        // The dense warm path over the same top-k pools agrees too.
        for (a, b) in dense_warm.iter().zip(&cold_sparse) {
            assert_eq!(a.completions, b.completions);
        }
    }

    #[test]
    fn restore_warm_round_trips_and_rejects_mismatches() {
        let catalog = small_catalog();
        let pop = generate(
            &catalog.space,
            &PopulationConfig {
                n_workers: 3,
                ..Default::default()
            },
        );
        let refs: Vec<&LiveWorker> = pop.iter().collect();
        let cfg = PlatformConfig {
            warm_start: true,
            solver_threads: 1,
            ..Default::default()
        };
        let mut platform = Platform::new(&catalog, cfg.clone());
        let mut rng = StdRng::seed_from_u64(41);
        let _ = platform.run_cohort(Strategy::HtaGre, &refs, &mut rng);
        let warm = platform.warm().expect("warm start is on");
        let (fp, open) = (warm.fingerprint(), warm.open_list().to_vec());
        assert!(!open.is_empty());

        let mut resumed = Platform::resume(
            &catalog,
            cfg.clone(),
            platform.availability().to_vec(),
            platform.index().clone(),
            None,
        )
        .expect("boundary state resumes");
        resumed
            .restore_warm(fp, &open)
            .expect("fingerprint matches");
        let restored = resumed.warm().unwrap();
        assert_eq!(restored.fingerprint(), fp);
        assert_eq!(restored.open_list(), &open[..]);

        // Wrong fingerprint, unsorted list, and warm-start-off are rejected.
        assert!(resumed.restore_warm(fp ^ 1, &open).is_err());
        assert!(resumed.restore_warm(fp, &[3, 1, 2]).is_err());
        let mut off = Platform::new(&catalog, PlatformConfig::default());
        assert!(off.restore_warm(fp, &open).is_err());
    }

    #[test]
    fn deterministic_given_seed() {
        let a = run_strategy(Strategy::HtaGreDiv, 11);
        let b = run_strategy(Strategy::HtaGreDiv, 11);
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.n_completed(), y.n_completed());
            assert_eq!(x.duration_minutes, y.duration_minutes);
        }
    }

    #[test]
    fn staggered_arrivals_produce_valid_sessions() {
        let catalog = small_catalog();
        let pop = generate(
            &catalog.space,
            &PopulationConfig {
                n_workers: 4,
                ..Default::default()
            },
        );
        let mut platform = Platform::new(&catalog, PlatformConfig::default());
        let refs: Vec<&LiveWorker> = pop.iter().collect();
        let arrivals = [0.0, 3.5, 7.0, 12.25];
        let mut rng = StdRng::seed_from_u64(21);
        let records =
            platform.run_cohort_with_arrivals(Strategy::HtaGre, &refs, &arrivals, &mut rng);
        assert_eq!(records.len(), 4);
        for (rec, &arr) in records.iter().zip(&arrivals) {
            assert_eq!(rec.arrival_minute, arr);
            // Minutes are session-relative: still bounded by the HIT limit.
            assert!(rec.duration_minutes > 0.0 && rec.duration_minutes <= 30.0);
            for c in &rec.completions {
                assert!(c.minute >= 0.0 && c.minute <= 30.0);
            }
        }
        // Later arrivals must not complete tasks that earlier workers
        // already completed (shared pool).
        let mut seen = std::collections::HashSet::new();
        for r in &records {
            for c in &r.completions {
                assert!(seen.insert(c.task_index));
            }
        }
    }

    #[test]
    #[should_panic(expected = "arrivals must be non-negative")]
    fn negative_arrival_rejected() {
        let catalog = small_catalog();
        let pop = generate(
            &catalog.space,
            &PopulationConfig {
                n_workers: 1,
                ..Default::default()
            },
        );
        let mut platform = Platform::new(&catalog, PlatformConfig::default());
        let refs: Vec<&LiveWorker> = pop.iter().collect();
        let mut rng = StdRng::seed_from_u64(1);
        let _ = platform.run_cohort_with_arrivals(Strategy::Random, &refs, &[-1.0], &mut rng);
    }

    #[test]
    fn sparse_candidates_run_valid_cohorts() {
        let catalog = small_catalog();
        let pop = generate(
            &catalog.space,
            &PopulationConfig {
                n_workers: 4,
                ..Default::default()
            },
        );
        let cfg = PlatformConfig {
            candidates: CandidateMode::TopK(20),
            ..Default::default()
        };
        let mut platform = Platform::new(&catalog, cfg);
        assert_eq!(platform.indexed_open_tasks(), platform.open_tasks());
        let refs: Vec<&LiveWorker> = pop.iter().collect();
        let mut rng = StdRng::seed_from_u64(13);
        let records = platform.run_cohort(Strategy::HtaGre, &refs, &mut rng);
        assert_eq!(records.len(), 4);
        // Sessions behave like the dense platform: tasks complete, no task
        // is done twice, and the cohort gets real work through.
        let mut seen = std::collections::HashSet::new();
        let mut total = 0usize;
        for r in &records {
            for c in &r.completions {
                assert!(seen.insert(c.task_index), "task completed twice");
            }
            total += r.n_completed();
        }
        assert!(total > 20, "only {total} completions under sparse mode");
        // Every availability flip went through the index.
        assert_eq!(platform.indexed_open_tasks(), platform.open_tasks());
    }

    #[test]
    fn index_mirrors_availability_in_dense_mode_too() {
        let catalog = small_catalog();
        let pop = generate(
            &catalog.space,
            &PopulationConfig {
                n_workers: 3,
                ..Default::default()
            },
        );
        let mut platform = Platform::new(&catalog, PlatformConfig::default());
        let refs: Vec<&LiveWorker> = pop.iter().collect();
        let mut rng = StdRng::seed_from_u64(17);
        let _ = platform.run_cohort(Strategy::HtaGreRel, &refs, &mut rng);
        assert_eq!(platform.indexed_open_tasks(), platform.open_tasks());
    }

    fn lifecycle_cfg() -> PlatformConfig {
        PlatformConfig {
            lifecycle: true,
            deadline_minutes: 3.0,
            priority_mix: PriorityMix::parse("1,2,1,0.5").unwrap(),
            max_retries: 1,
            // A bar above the kinds' base accuracy guarantees rejections,
            // exercising requeue-on-bad-answer and the Failed terminal.
            pass_threshold: 1.05,
            reputation: true,
            ..Default::default()
        }
    }

    #[test]
    fn lifecycle_ledger_is_consistent_after_a_cohort() {
        use hta_life::TaskState;
        let catalog = small_catalog();
        let pop = generate(
            &catalog.space,
            &PopulationConfig {
                n_workers: 4,
                ..Default::default()
            },
        );
        let mut platform = Platform::new(&catalog, lifecycle_cfg());
        let refs: Vec<&LiveWorker> = pop.iter().collect();
        let mut rng = StdRng::seed_from_u64(23);
        let records = platform.run_cohort(Strategy::HtaGre, &refs, &mut rng);
        assert!(records.iter().map(|r| r.n_completed()).sum::<usize>() > 0);

        let life = platform.life().expect("lifecycle is on");
        let book = &life.book;
        assert_eq!(book.len(), catalog.tasks.len());
        // Cohort boundary: the open pool and the Pending set coincide, and
        // nothing is left in-flight.
        for (i, &open) in platform.availability().iter().enumerate() {
            let state = book.get(i).state();
            assert_eq!(open, state == TaskState::Pending, "task {i} is {state}");
            assert!(
                state == TaskState::Pending || state.is_terminal(),
                "task {i} left in-flight as {state}"
            );
            assert!(book.get(i).retries() <= book.get(i).max_retries());
        }
        // Summary counters agree with the per-task states.
        let s = book.summary();
        let count = |st: TaskState| book.tasks().iter().filter(|t| t.state() == st).count() as u64;
        assert_eq!(s.completed, count(TaskState::Completed));
        assert_eq!(s.failed, count(TaskState::Failed));
        assert_eq!(s.expired, count(TaskState::Expired));
        assert!(
            s.requeued_bad_answer + s.failed > 0,
            "a 105% bar must reject some answers: {s:?}"
        );
        // Reputation observed every verification verdict.
        let observations: u64 = life.reputations.iter().map(|r| r.observations()).sum();
        assert!(observations > 0);
        for r in &life.reputations {
            assert!((0.0..=1.0).contains(&r.score()));
            assert!((0.0..=2.0).contains(&r.beta_scale()));
        }
    }

    #[test]
    fn price_weight_steers_assignments_only_when_armed() {
        // Scaling β is ratio-invariant for the fixed-weight arms (α = 0
        // makes any positive scale a per-worker no-op; β = 0 ignores it
        // entirely), so the steering proof needs the adaptive strategy,
        // whose α ∈ (0, 1) makes the relevance/diversity trade-off move
        // with the scaled β. Reputations are pre-seeded so the composite
        // scores are non-neutral from the very first solve: a large price
        // weight then zeroes the relevance term for expensive (fast)
        // workers while cheap ones keep theirs.
        let catalog = small_catalog();
        let pop = generate(
            &catalog.space,
            &PopulationConfig {
                n_workers: 6,
                ..Default::default()
            },
        );
        let trace = |price_weight: f64| -> Vec<usize> {
            let mut platform = Platform::new(
                &catalog,
                PlatformConfig {
                    price_weight,
                    // No contrast stretch: the adaptive α stays mid-range,
                    // so the relevance term (the only thing the price knob
                    // touches) keeps real weight in every solve.
                    adaptive_sharpening: 1.0,
                    // Mixed verification verdicts (the lifecycle_cfg bar of
                    // 1.05 rejects everything, burying all reputations at
                    // the same floor).
                    pass_threshold: 0.9,
                    ..lifecycle_cfg()
                },
            );
            let life = platform.life.as_mut().expect("lifecycle is on");
            for _ in 0..pop.len() {
                let mut r = Reputation::new();
                for _ in 0..10 {
                    r.observe(true);
                }
                life.reputations.push(r);
            }
            let refs: Vec<&LiveWorker> = pop.iter().collect();
            let mut rng = StdRng::seed_from_u64(99);
            let records = platform.run_cohort(Strategy::HtaGre, &refs, &mut rng);
            records
                .iter()
                .flat_map(|r| r.completions.iter().map(|c| c.task_index))
                .collect()
        };
        let neutral = trace(0.0);
        assert!(!neutral.is_empty());
        assert_eq!(neutral, trace(0.0), "zero weight must stay deterministic");
        assert_ne!(
            neutral,
            trace(12.0),
            "a large price weight must steer the adaptive assignments"
        );
    }

    #[test]
    fn lifecycle_off_keeps_the_platform_unchanged() {
        let catalog = small_catalog();
        let platform = Platform::new(&catalog, PlatformConfig::default());
        assert!(platform.life().is_none());
        // And the lifecycle-off run is byte-identical to the pre-lifecycle
        // behaviour: `deterministic_given_seed` plus the fact that no hook
        // consumes RNG covers this; here we just pin the config default.
        assert!(!PlatformConfig::default().lifecycle);
    }

    #[test]
    fn lifecycle_resume_round_trips_platform_state() {
        let catalog = small_catalog();
        let pop = generate(
            &catalog.space,
            &PopulationConfig {
                n_workers: 3,
                ..Default::default()
            },
        );
        let mut platform = Platform::new(&catalog, lifecycle_cfg());
        let refs: Vec<&LiveWorker> = pop.iter().collect();
        let mut rng = StdRng::seed_from_u64(29);
        let _ = platform.run_cohort(Strategy::HtaGre, &refs, &mut rng);

        let resumed = Platform::resume(
            &catalog,
            lifecycle_cfg(),
            platform.availability().to_vec(),
            platform.index().clone(),
            platform.life().cloned(),
        )
        .expect("boundary state resumes");
        assert_eq!(resumed.life(), platform.life());

        // Missing lifecycle state is rejected when the config wants it…
        let err = Platform::resume(
            &catalog,
            lifecycle_cfg(),
            platform.availability().to_vec(),
            platform.index().clone(),
            None,
        )
        .err()
        .expect("missing state must be rejected");
        assert!(err.contains("no state"), "{err}");
        // …and stray state is rejected when it does not.
        let err = Platform::resume(
            &catalog,
            PlatformConfig::default(),
            platform.availability().to_vec(),
            platform.index().clone(),
            platform.life().cloned(),
        )
        .err()
        .expect("stray state must be rejected");
        assert!(err.contains("disables"), "{err}");
    }

    #[test]
    fn open_tasks_decrease() {
        let catalog = small_catalog();
        let pop = generate(
            &catalog.space,
            &PopulationConfig {
                n_workers: 2,
                ..Default::default()
            },
        );
        let mut platform = Platform::new(&catalog, PlatformConfig::default());
        let before = platform.open_tasks();
        let refs: Vec<&LiveWorker> = pop.iter().collect();
        let mut rng = StdRng::seed_from_u64(1);
        let _ = platform.run_cohort(Strategy::Random, &refs, &mut rng);
        assert!(platform.open_tasks() < before);
    }
}

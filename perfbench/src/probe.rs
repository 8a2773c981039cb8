//! The solve-entry wrapper: a [`Solver`] handed to
//! [`hta_crowd::Platform::with_solver`] that forwards every entry point
//! unchanged to the platform's own HTA-GRE configuration and records, from
//! outside the call, which entry ran, how long it took, the phase split the
//! outcome carries, the warm-state statistics left behind, and the Eq. 3
//! motivation of each returned set. It never touches the RNG or the
//! outcome, so assignments are byte-identical with and without it.

use std::cell::RefCell;
use std::rc::Rc;
use std::time::Instant;

use hta_core::solver::{HtaGre, PhaseTimings, SparseWarmState, WarmState};
use hta_core::{DiversityEdgeCache, Instance, SolveOutcome, Solver, SparseEdgeCache};
use hta_matching::{UpdateStats, WeightedEdge};
use rand::Rng;

/// Which solver entry point the platform called.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Entry {
    /// `solve`: no edge reuse.
    Cold,
    /// `solve_with_diversity_edges`: a filtered edge list, no warm state.
    Edges,
    /// `solve_warm`: dense edge cache plus warm matching repair.
    Warm,
    /// `solve_warm_sparse`: pool-scoped edge cache plus warm repair.
    WarmSparse,
}

/// One forwarded solve.
#[derive(Debug, Clone)]
pub struct SolveRecord {
    /// Entry point called.
    pub entry: Entry,
    /// When the call started.
    pub start: Instant,
    /// When the call returned.
    pub end: Instant,
    /// Tasks in the instance.
    pub tasks: usize,
    /// Workers in the instance.
    pub workers: usize,
    /// Sum of Eq. 3 `motiv` over the returned sets.
    pub motiv_sum: f64,
    /// Phase split reported by the solver.
    pub timings: PhaseTimings,
    /// Warm-state update statistics after a warm entry.
    pub update: Option<UpdateStats>,
    /// Whether a sparse warm entry had to rebind its matching.
    pub rebind: bool,
    /// Live edges of the sparse cache at a sparse warm entry.
    pub sparse_edges: usize,
}

/// Records shared between the wrapper (owned by the platform) and the
/// workload loop that reads them.
pub type SolveLog = Rc<RefCell<Vec<SolveRecord>>>;

/// The forwarding wrapper.
pub struct ProbedSolver {
    inner: HtaGre,
    log: SolveLog,
}

impl ProbedSolver {
    /// Forward to `HtaGre::structured().without_flip()` with the platform's
    /// thread setting, appending one record per call to `log`.
    pub fn new(solver_threads: usize, log: SolveLog) -> Self {
        Self {
            inner: HtaGre::structured()
                .without_flip()
                .with_threads(solver_threads),
            log,
        }
    }

    fn forward(
        &self,
        entry: Entry,
        inst: &Instance,
        call: impl FnOnce(&HtaGre) -> SolveOutcome,
    ) -> (SolveOutcome, SolveRecord) {
        let start = Instant::now();
        let out = call(&self.inner);
        let end = Instant::now();
        let motiv_sum = (0..inst.n_workers())
            .map(|q| hta_core::motivation::motivation(inst, q, out.assignment.tasks_of(q)))
            .sum();
        let record = SolveRecord {
            entry,
            start,
            end,
            tasks: inst.n_tasks(),
            workers: inst.n_workers(),
            motiv_sum,
            timings: out.timings,
            update: None,
            rebind: false,
            sparse_edges: 0,
        };
        (out, record)
    }
}

impl Solver for ProbedSolver {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn solve(&self, inst: &Instance, rng: &mut dyn Rng) -> SolveOutcome {
        let (out, rec) = self.forward(Entry::Cold, inst, |s| s.solve(inst, rng));
        self.log.borrow_mut().push(rec);
        out
    }

    fn solve_with_diversity_edges(
        &self,
        inst: &Instance,
        sorted_edges: &[WeightedEdge],
        rng: &mut dyn Rng,
    ) -> SolveOutcome {
        let (out, rec) = self.forward(Entry::Edges, inst, |s| {
            s.solve_with_diversity_edges(inst, sorted_edges, rng)
        });
        self.log.borrow_mut().push(rec);
        out
    }

    fn solve_warm(
        &self,
        inst: &Instance,
        cache: &DiversityEdgeCache,
        warm: &mut WarmState,
        open: &[u32],
        rng: &mut dyn Rng,
    ) -> SolveOutcome {
        let (out, mut rec) = self.forward(Entry::Warm, inst, |s| {
            s.solve_warm(inst, cache, warm, open, rng)
        });
        rec.update = Some(warm.last_stats());
        self.log.borrow_mut().push(rec);
        out
    }

    fn solve_warm_sparse(
        &self,
        inst: &Instance,
        cache: &SparseEdgeCache,
        warm: &mut SparseWarmState,
        open: &[u32],
        rng: &mut dyn Rng,
    ) -> SolveOutcome {
        let (out, mut rec) = self.forward(Entry::WarmSparse, inst, |s| {
            s.solve_warm_sparse(inst, cache, warm, open, rng)
        });
        rec.update = Some(warm.last_stats());
        rec.rebind = warm.last_rebind();
        rec.sparse_edges = cache.edges().len();
        self.log.borrow_mut().push(rec);
        out
    }
}

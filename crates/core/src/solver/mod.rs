//! Task-assignment solvers: the paper's HTA-APP and HTA-GRE, an exact
//! branch-and-bound reference, and simple baselines.

pub mod baselines;
pub mod cohort;
pub mod exact;
pub mod hta_app;
pub mod hta_gre;
pub mod local_search;
mod qap_pipeline;
pub mod sparse_warm;
pub mod warm;

pub use baselines::{GreedyMotivation, GreedyRelevance, RandomAssign};
pub use cohort::{solve_open_subset, solve_open_subset_sparse_warm, solve_open_subset_warm};
pub use exact::ExactSolver;
pub use hta_app::HtaApp;
pub use hta_gre::HtaGre;
pub use local_search::LocalSearch;
pub use qap_pipeline::{CostRepresentation, LsapStrategy};
pub use sparse_warm::SparseWarmState;
pub use warm::WarmState;

use std::time::Duration;

use rand::Rng;

use crate::assignment::Assignment;
use crate::instance::Instance;

/// Wall-clock timings of the expensive phases of the QAP pipeline — the
/// decomposition plotted in the paper's Figure 2a ("Matching" vs "Lsap"),
/// with diversity-edge enumeration split out as its own phase now that it
/// can be parallelized (and skipped entirely on the edge-reuse path).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PhaseTimings {
    /// Enumerating the positive-weight diversity edges (`O(|T|²)` distance
    /// reads). Zero when a precomputed edge list was supplied.
    pub edge_enum: Duration,
    /// The maximum-weight matching `M_B` on the diversity graph (sort +
    /// greedy scan).
    pub matching: Duration,
    /// Solving the auxiliary LSAP (Hungarian/JV for HTA-APP, greedy for
    /// HTA-GRE).
    pub lsap: Duration,
    /// End-to-end solve time, including matrix setup and conversion.
    pub total: Duration,
}

/// The outcome of one solve: a feasible assignment plus instrumentation.
#[derive(Debug, Clone)]
pub struct SolveOutcome {
    /// The feasible assignment produced.
    pub assignment: Assignment,
    /// Phase timings for the Fig. 2a-style breakdown.
    pub timings: PhaseTimings,
    /// The value of the auxiliary LSAP (`Σ_k f_{k,π'(k)}`); 0 for solvers
    /// that do not go through the QAP pipeline.
    pub lsap_value: f64,
}

/// A solver for one HTA iteration.
///
/// Solvers may be randomized (HTA-APP/HTA-GRE flip matched pairs with
/// probability ½; baselines shuffle); determinism is recovered by seeding
/// the provided RNG. Implementations must return assignments satisfying
/// constraints C1 and C2.
pub trait Solver {
    /// Short stable name, used in experiment output.
    fn name(&self) -> &'static str;

    /// Solve one instance.
    fn solve(&self, inst: &Instance, rng: &mut dyn Rng) -> SolveOutcome;

    /// Solve one instance, reusing a precomputed positive-diversity edge
    /// list sorted by [`hta_matching::edge_order`] (local task indices, as
    /// produced by [`crate::edges::DiversityEdgeCache::filter_sorted`]).
    ///
    /// Solvers that go through the QAP pipeline override this to skip edge
    /// enumeration and the matching sort; the default ignores the edges and
    /// must produce the same result as [`Self::solve`].
    fn solve_with_diversity_edges(
        &self,
        inst: &Instance,
        sorted_edges: &[hta_matching::WeightedEdge],
        rng: &mut dyn Rng,
    ) -> SolveOutcome {
        let _ = sorted_edges;
        self.solve(inst, rng)
    }

    /// Solve one instance whose tasks are the catalog subset `open`
    /// (strictly increasing catalog indices, one per local task id),
    /// carrying matching/LSAP state forward from the previous solve in
    /// `warm`.
    ///
    /// The contract is identical to [`Self::solve`] — byte-identical output
    /// at every churn level and thread count; `warm` only changes the cost.
    /// Pipeline solvers override this with the incremental repair path and
    /// fall back to the cold path on any invariant violation. The default
    /// ignores `warm` and reuses the edge cache, which already carries the
    /// same identity guarantee. Prefer calling through
    /// [`cohort::solve_open_subset_warm`], which centralizes the guards.
    fn solve_warm(
        &self,
        inst: &Instance,
        cache: &crate::edges::DiversityEdgeCache,
        warm: &mut WarmState,
        open: &[u32],
        rng: &mut dyn Rng,
    ) -> SolveOutcome {
        let _ = warm;
        self.solve_with_diversity_edges(inst, &cache.filter_sorted(open), rng)
    }

    /// [`Self::solve_warm`] for catalogs past the dense edge-cache cap: the
    /// edge list comes from a pool-scoped [`crate::sparse::SparseEdgeCache`]
    /// and `open` must be a strictly increasing subset of its members.
    ///
    /// Same contract as every other entry point — byte-identical output to
    /// [`Self::solve`] at every churn level, thread count, and pool drift;
    /// the cache and warm state only change the cost. Pipeline solvers
    /// override this with epoch-synced incremental repair and fall back to
    /// the cold path on any invariant violation. Prefer calling through
    /// [`cohort::solve_open_subset_sparse_warm`], which centralizes the
    /// guards.
    fn solve_warm_sparse(
        &self,
        inst: &Instance,
        cache: &crate::sparse::SparseEdgeCache,
        warm: &mut SparseWarmState,
        open: &[u32],
        rng: &mut dyn Rng,
    ) -> SolveOutcome {
        let _ = warm;
        self.solve_with_diversity_edges(inst, &cache.filter_sorted(open), rng)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn phase_timings_default_is_zero() {
        let t = PhaseTimings::default();
        assert_eq!(t.edge_enum, Duration::ZERO);
        assert_eq!(t.matching, Duration::ZERO);
        assert_eq!(t.lsap, Duration::ZERO);
        assert_eq!(t.total, Duration::ZERO);
    }
}

//! One owner for the diversity-edge source and warm state of solves over
//! open subsets of one catalog — the iteration engine's, the `hta-crowd`
//! platform's and the `hta-server` state's. [`EdgeSource::choose`] is the
//! one place that knows the cap rule; [`OpenSetSession`] holds the state
//! the choice calls for, so a cache and a warm state bound to different
//! sources cannot be represented. Every source solves byte-identically to
//! [`Solver::solve`]; it only changes the cost.

use rand::Rng;

use crate::bitvec::KeywordVec;
use crate::edges::{self, keywords_fingerprint, DiversityEdgeCache};
use crate::instance::Instance;
use crate::metric::Distance;
use crate::solver::{
    solve_open_subset_sparse_warm, solve_open_subset_warm, SolveOutcome, Solver, SparseWarmState,
    WarmState,
};
use crate::sparse::SparseEdgeCache;

/// Which diversity-edge source serves solves over open subsets of a
/// catalog.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EdgeSource {
    /// No cache: every solve enumerates its own edges.
    Off,
    /// The catalog-wide sorted edge list, with warm matching state iff
    /// `warm`.
    Dense {
        /// Carry the matching forward between solves.
        warm: bool,
    },
    /// Edges over the members of top-`k` candidate pools (maintained by
    /// the caller), with warm matching state.
    Sparse {
        /// Per-worker retrieval depth of the maintained pools.
        k: usize,
    },
}

impl EdgeSource {
    /// The edge source for an `n_tasks` catalog: dense when edge reuse is
    /// on and the catalog fits the cap (`edge_cache_cap`, `0` = auto, see
    /// [`edge_cache_cap`](crate::edges::edge_cache_cap)); sparse past the
    /// cap when edge reuse and warm start are on and candidates come from
    /// top-`k` pools (`top_k = Some(k)`); otherwise off.
    pub fn choose(
        n_tasks: usize,
        edge_cache_cap: usize,
        reuse_edges: bool,
        warm_start: bool,
        top_k: Option<usize>,
    ) -> Self {
        if !reuse_edges {
            return Self::Off;
        }
        if n_tasks <= edges::edge_cache_cap(edge_cache_cap) {
            return Self::Dense { warm: warm_start };
        }
        match top_k {
            Some(k) if warm_start => Self::Sparse { k },
            _ => Self::Off,
        }
    }

    /// The depth of the candidate-pool maintainer this source needs:
    /// `Some(k)` iff [`EdgeSource::Sparse`].
    pub fn pool_k(self) -> Option<usize> {
        match self {
            Self::Sparse { k } => Some(k),
            _ => None,
        }
    }
}

/// The edge cache and warm state behind solves over open subsets of one
/// catalog.
#[derive(Debug)]
pub enum OpenSetSession {
    /// Every solve enumerates its own edges.
    Off,
    /// Catalog-wide edges; `warm` is `Some` iff warm start is on.
    Dense {
        /// The catalog's sorted positive-diversity edge list.
        cache: DiversityEdgeCache,
        /// Matching state carried between solves, bound to `cache`.
        warm: Option<WarmState>,
    },
    /// Pool-scoped edges; `warm` is `Some` after the first
    /// [`refresh_pool`](Self::refresh_pool).
    Sparse {
        /// Edges over the current pool members.
        cache: SparseEdgeCache,
        /// Matching state carried between solves, epoch-synced to `cache`.
        warm: Option<SparseWarmState>,
    },
}

impl OpenSetSession {
    /// Build the state `source` calls for over a catalog with task
    /// `keywords` (catalog order). The dense edge list is enumerated here
    /// under `distance` on `threads` threads (`0` = auto).
    pub fn new(
        source: EdgeSource,
        keywords: &[&KeywordVec],
        distance: &(dyn Distance + Send + Sync),
        threads: usize,
    ) -> Self {
        match source {
            EdgeSource::Off => Self::Off,
            EdgeSource::Dense { warm } => Self::dense(keywords, distance, threads, warm),
            EdgeSource::Sparse { .. } => Self::sparse(keywords),
        }
    }

    pub(crate) fn dense(
        keywords: &[&KeywordVec],
        distance: &(dyn Distance + Send + Sync),
        threads: usize,
        warm: bool,
    ) -> Self {
        let threads = hta_par::solver_threads(threads);
        let cache = DiversityEdgeCache::build_over(keywords, distance, threads);
        let warm = warm.then(|| WarmState::new(&cache));
        Self::Dense { cache, warm }
    }

    pub(crate) fn sparse(keywords: &[&KeywordVec]) -> Self {
        let fp = keywords_fingerprint(keywords.iter().copied());
        let cache = SparseEdgeCache::new(fp, keywords.len());
        Self::Sparse { cache, warm: None }
    }

    /// The catalog-wide edge cache (`Dense` only).
    pub fn dense_cache(&self) -> Option<&DiversityEdgeCache> {
        match self {
            Self::Dense { cache, .. } => Some(cache),
            _ => None,
        }
    }

    /// The dense warm state (`Dense` with warm start only).
    pub fn warm(&self) -> Option<&WarmState> {
        match self {
            Self::Dense { warm, .. } => warm.as_ref(),
            _ => None,
        }
    }

    /// The pool-scoped edge cache (`Sparse` only).
    pub fn sparse_cache(&self) -> Option<&SparseEdgeCache> {
        match self {
            Self::Sparse { cache, .. } => Some(cache),
            _ => None,
        }
    }

    /// Bind fresh dense warm state (`on`) or drop it. Only `Dense` changes.
    pub fn set_warm(&mut self, on: bool) {
        if let Self::Dense { cache, warm } = self {
            *warm = on.then(|| WarmState::new(cache));
        }
    }

    /// Rebuild dense warm state from a checkpointed open set (see
    /// [`WarmState::restore`]; the caller validates `open`). Only `Dense`
    /// changes.
    pub fn restore_warm(&mut self, open: &[u32]) {
        if let Self::Dense { cache, warm } = self {
            *warm = Some(WarmState::restore(cache, open));
        }
    }

    /// Refresh the sparse cache to exactly `members` (strictly increasing
    /// catalog ids; `weight` is called only for pairs touching added
    /// members) and make its warm state exist. Only `Sparse` changes.
    pub fn refresh_pool(&mut self, members: &[u32], weight: impl Fn(u32, u32) -> f64) {
        if let Self::Sparse { cache, warm } = self {
            cache.refresh(members, weight);
            if warm.is_none() {
                *warm = Some(SparseWarmState::new(cache));
            }
        }
    }

    /// Re-check the cache against the catalog's current `keywords`: on a
    /// fingerprint mismatch a dense cache is rebuilt in place (re-binding
    /// any warm state) and a sparse one restarts empty. Merely bypassing a
    /// stale cache would re-enumerate edges on every later solve.
    pub fn revalidate(
        &mut self,
        keywords: &[&KeywordVec],
        distance: &(dyn Distance + Send + Sync),
        threads: usize,
    ) {
        let stored = match self {
            Self::Off => return,
            Self::Dense { cache, .. } => cache.fingerprint(),
            Self::Sparse { cache, .. } => cache.fingerprint(),
        };
        if stored == keywords_fingerprint(keywords.iter().copied()) {
            return;
        }
        *self = match self {
            Self::Dense { warm, .. } => Self::dense(keywords, distance, threads, warm.is_some()),
            _ => Self::sparse(keywords),
        };
    }

    /// Solve `inst`, whose tasks are the catalog subset `open` (one catalog
    /// index per local task id), through this session's edge source; the
    /// guards of [`solve_open_subset_warm`]/[`solve_open_subset_sparse_warm`]
    /// pick the warm, filtered-edge or cold path.
    pub fn solve(
        &mut self,
        solver: &dyn Solver,
        inst: &Instance,
        open: &[usize],
        rng: &mut dyn Rng,
    ) -> SolveOutcome {
        match self {
            Self::Off => solver.solve(inst, rng),
            Self::Dense { cache, warm } => {
                solve_open_subset_warm(solver, inst, open, Some(cache), warm.as_mut(), rng)
            }
            Self::Sparse { cache, warm } => {
                solve_open_subset_sparse_warm(solver, inst, open, Some(cache), warm.as_mut(), rng)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn edge_source_policy_table() {
        use EdgeSource::{Dense, Off, Sparse};
        let cap = 600;
        // (n_tasks, reuse_edges, warm_start, top_k) -> source
        let table: &[(usize, bool, bool, Option<usize>, EdgeSource)] = &[
            // At and just under the cap: dense whenever edges are reused,
            // in Full and TopK mode alike; warm follows warm_start.
            (600, true, true, None, Dense { warm: true }),
            (600, true, true, Some(16), Dense { warm: true }),
            (600, true, false, None, Dense { warm: false }),
            (600, true, false, Some(16), Dense { warm: false }),
            (599, true, true, Some(16), Dense { warm: true }),
            (599, true, false, None, Dense { warm: false }),
            (600, false, true, Some(16), Off),
            (599, false, false, None, Off),
            // Just over the cap: sparse only for warm TopK with reuse.
            (601, true, true, Some(16), Sparse { k: 16 }),
            (601, true, true, Some(8), Sparse { k: 8 }),
            (601, true, true, None, Off),
            (601, true, false, Some(16), Off),
            (601, true, false, None, Off),
            (601, false, true, Some(16), Off),
            (601, false, false, None, Off),
        ];
        for &(n, reuse, warm, top_k, want) in table {
            assert_eq!(
                EdgeSource::choose(n, cap, reuse, warm, top_k),
                want,
                "n={n} reuse={reuse} warm={warm} top_k={top_k:?}"
            );
        }
        assert_eq!(Sparse { k: 8 }.pool_k(), Some(8));
        assert_eq!(Dense { warm: true }.pool_k(), None);
        assert_eq!(Off.pool_k(), None);
        // `0` resolves to the auto cap, as `edges::edge_cache_cap(0)` does.
        let auto = edges::edge_cache_cap(0);
        assert_eq!(
            EdgeSource::choose(auto, 0, true, true, Some(16)),
            Dense { warm: true }
        );
        assert_eq!(
            EdgeSource::choose(auto + 1, 0, true, true, Some(16)),
            Sparse { k: 16 }
        );
    }
}

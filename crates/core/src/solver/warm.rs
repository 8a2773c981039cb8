//! Warm-start state carried between cohort solves.
//!
//! In the iterative setting the solver is called again and again over open
//! subsets of one immutable catalog, and between calls only a handful of
//! tasks complete, expire, or arrive. The [`DiversityEdgeCache`] already
//! amortizes edge enumeration across those calls; [`WarmState`] goes one
//! step further and carries the *matching* forward too: an
//! [`IncrementalMatching`] over the catalog-global edge list is diffed
//! against each new open set and repaired locally, so the matching phase —
//! which dominates every cold-solve row of BENCH_solvers.json — costs
//! `O(churn × degree)` instead of `O(|E|)`.
//!
//! The state also memoizes the last auxiliary-LSAP solution beside every
//! *input* that determines it (strategy, shape, `b_M`, and the workers'
//! weights and relevance rows, bit for bit). Every LSAP strategy in the
//! pipeline is a pure, thread-invariant function of the profit matrix, so
//! replaying the stored solution when the inputs compare equal is
//! byte-identical to re-solving at any thread count. A true
//! price-retaining auction restart would be trajectory-dependent (prices
//! encode the previous instance) and could not keep the byte-identity
//! contract; the input-keyed memo is the identity-safe version, and it
//! fires exactly when a restart would be free anyway — when the instance
//! did not change.
//!
//! The matching is built on the first [`update_open`](WarmState::update_open),
//! not with the state, so a state whose solves all take another route
//! never makes the cache enumerate its edge list.
//!
//! # Invariants
//!
//! A `WarmState` is bound to the [`DiversityEdgeCache`] it was created from
//! (same catalog fingerprint and size, and once the matching exists, same
//! edge count). All entry points that consume one guard that binding —
//! [`matches_cache`](WarmState::matches_cache) mirrors the edge cache's own
//! fingerprint guard — and fall back to the cold path on any violation
//! rather than trusting stale state.

use hta_matching::incremental::{IncrementalMatching, UpdateStats};
use hta_matching::{LsapSolution, Matching};

use crate::edges::DiversityEdgeCache;
use crate::solver::qap_pipeline::LsapKey;

/// Input-keyed memo of the last auxiliary-LSAP solution, `(inputs,
/// solution)`, held by both warm states. See the [module docs](self).
pub(crate) type LsapMemo = Option<(LsapKey, LsapSolution)>;

/// Matching and LSAP state carried from one cohort solve to the next. See
/// the [module docs](self).
#[derive(Debug, Clone)]
pub struct WarmState {
    /// Fingerprint of the catalog (and so the edge cache) this state is
    /// bound to.
    fingerprint: u64,
    /// Task count of that catalog.
    n_tasks: usize,
    /// The greedy matching over the open subset, in catalog-global vertex
    /// space, maintained incrementally; `None` until the first update.
    inc: Option<Box<IncrementalMatching>>,
    /// Input-keyed memo of the last LSAP solution.
    pub(crate) memo: LsapMemo,
    /// Stats of the most recent open-set update (observability/tests).
    last_stats: UpdateStats,
}

impl WarmState {
    /// Fresh warm state bound to `cache`, with an empty open set and no
    /// matching. The first [`update_open`](Self::update_open) builds the
    /// matching and installs the initial open set via a linear rebuild;
    /// subsequent calls repair incrementally.
    pub fn new(cache: &DiversityEdgeCache) -> Self {
        Self {
            fingerprint: cache.fingerprint(),
            n_tasks: cache.n_tasks(),
            inc: None,
            memo: None,
            last_stats: UpdateStats::default(),
        }
    }

    /// Rebuild a warm state from its serialized essence: the cache it was
    /// bound to plus the open set at snapshot time. The matching itself is
    /// *not* serialized — it is a deterministic function of (edge list,
    /// open set), so rebuilding it here is both cheaper than validating an
    /// untrusted serialized matching and guaranteed byte-identical. An
    /// empty open set builds nothing.
    pub fn restore(cache: &DiversityEdgeCache, open: &[u32]) -> Self {
        let mut state = Self::new(cache);
        if !open.is_empty() {
            state.update_open(cache, open);
        }
        state
    }

    /// Fingerprint of the catalog this state is bound to.
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// The open set the current matching covers (strictly increasing
    /// catalog indices; empty before the first update) — this plus the
    /// fingerprint is the state's full serialized form.
    pub fn open_list(&self) -> &[u32] {
        self.inc.as_ref().map_or(&[], |inc| inc.open_list())
    }

    /// Whether the matching exists yet (observability and tests).
    pub fn has_matching(&self) -> bool {
        self.inc.is_some()
    }

    /// Whether this state was built from (an identical twin of) `cache`.
    /// Callers must check this before handing the pair to a solver; on a
    /// mismatch the warm path falls back to the cold one, exactly like the
    /// edge cache's own `valid_for` guard. Reads `cache`'s edge list only
    /// once the matching exists, to compare edge counts.
    pub fn matches_cache(&self, cache: &DiversityEdgeCache) -> bool {
        self.fingerprint == cache.fingerprint()
            && self.n_tasks == cache.n_tasks()
            && self
                .inc
                .as_ref()
                .is_none_or(|inc| inc.edges_len() == cache.edges().len())
    }

    /// Install a new open set (strictly increasing catalog indices),
    /// building the matching on the first call, then repairing or
    /// rebuilding it as the delta size dictates.
    pub fn update_open(&mut self, cache: &DiversityEdgeCache, open: &[u32]) -> UpdateStats {
        debug_assert!(self.matches_cache(cache));
        let edges = cache.edges();
        let stats = self
            .inc
            .get_or_insert_with(|| Box::new(IncrementalMatching::new(self.n_tasks, edges)))
            .update_open(edges, open);
        self.last_stats = stats;
        stats
    }

    /// Materialize the current matching in local (open-subset) ids over
    /// `n_out` padded vertices — byte-identical to running the presorted
    /// greedy over [`DiversityEdgeCache::filter_sorted`] of the open set.
    ///
    /// # Panics
    /// Panics before the first [`update_open`](Self::update_open).
    pub fn extract_matching(&self, cache: &DiversityEdgeCache, n_out: usize) -> Matching {
        self.inc
            .as_ref()
            .expect("extract_matching follows update_open")
            .extract(cache.edges(), n_out)
    }

    /// Stats of the most recent [`update_open`](Self::update_open).
    pub fn last_stats(&self) -> UpdateStats {
        self.last_stats
    }

    /// Whether the memo currently holds a solution (tests/observability).
    pub fn has_memo(&self) -> bool {
        self.memo.is_some()
    }
}

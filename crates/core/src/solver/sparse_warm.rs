//! Warm-start state over a [`SparseEdgeCache`] — the large-catalog twin of
//! [`WarmState`](crate::solver::WarmState).
//!
//! Past the dense cache cap a solve's diversity graph is one candidate
//! pool of about `|W|·X_max` tasks, and the pool changes on nearly every
//! round. Step 2's greedy matching is therefore the presorted scan over
//! [`SparseEdgeCache::filter_sorted`] on every solve: no matching is carried
//! between solves. What [`SparseWarmState`] carries is the input-keyed LSAP
//! memo (see [`WarmState`](crate::solver::WarmState) docs), which survives
//! any amount of pool drift and answers a solve whose profit matrix equals
//! the previous one.
//!
//! This state is **derived, never serialized**: checkpoint/resume simply
//! starts empty and the first solve pays one LSAP — output is unchanged.

use hta_matching::incremental::UpdateStats;

use crate::solver::warm::LsapMemo;
use crate::sparse::SparseEdgeCache;

/// LSAP memo and observability counters carried across sparse-pipeline
/// solves. See the [module docs](self).
#[derive(Debug, Clone)]
pub struct SparseWarmState {
    /// The token of the cache this state was built on.
    token: u64,
    /// The cache epoch of the previous solve.
    epoch: u64,
    /// Input-keyed memo of the last LSAP solution.
    pub(crate) memo: LsapMemo,
    /// Whether the pool's members changed between the previous two solves.
    last_rebind: bool,
}

impl SparseWarmState {
    /// Fresh warm state bound to `cache` at its current epoch, with an
    /// empty memo.
    pub fn new(cache: &SparseEdgeCache) -> Self {
        Self {
            token: cache.token(),
            epoch: cache.epoch(),
            memo: None,
            last_rebind: false,
        }
    }

    /// Whether this state was built on `cache` itself. The epoch
    /// deliberately does **not** participate: members may change between
    /// solves.
    pub fn matches_cache(&self, cache: &SparseEdgeCache) -> bool {
        self.token == cache.token()
    }

    /// Record a solve over `cache`'s current members.
    pub(crate) fn note_solve(&mut self, cache: &SparseEdgeCache) {
        self.last_rebind = self.epoch != cache.epoch();
        self.epoch = cache.epoch();
    }

    /// Observability only: every sparse solve scans its pool's edges, so
    /// this never reports a repair (`repaired: false`, no counts).
    pub fn last_stats(&self) -> UpdateStats {
        UpdateStats::default()
    }

    /// Observability only: whether the pool's members changed since the
    /// state's previous solve.
    pub fn last_rebind(&self) -> bool {
        self.last_rebind
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn foreign_catalog_is_detected() {
        // A cache carries a process-unique token: a warm state built on it
        // matches that cache (and its clones) alone, never another cache
        // over a catalog of the same size.
        let cache = SparseEdgeCache::new(20);
        let warm = SparseWarmState::new(&cache);
        assert!(warm.matches_cache(&cache));
        assert!(warm.matches_cache(&cache.clone()));
        assert!(!warm.matches_cache(&SparseEdgeCache::new(20)));
    }
}

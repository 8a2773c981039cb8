//! Warm-start state over a [`SparseEdgeCache`] — the large-catalog twin of
//! [`WarmState`](crate::solver::WarmState).
//!
//! The dense warm state carries an
//! [`IncrementalMatching`](hta_matching::IncrementalMatching) over the
//! catalog-global edge list, which is immutable for the life of a session —
//! stored edge-list *positions* never go stale. Past the dense cache cap
//! the sparse pipeline's edge list covers the current pool members instead,
//! and *that list itself churns* as the pool drifts, so a positional
//! structure would need an `O(|E|)` rebind on every pool refresh — at 1%
//! catalog churn that is every iteration, and the rebind costs as much as a
//! cold matching build. [`SparseWarmState`] therefore carries a
//! [`DynamicMatching`], which keys certificates by **edge identity** under
//! `edge_order` and vertices by **global catalog id**: neither changes
//! meaning when the edge list is edited, so a pool refresh is absorbed by
//! replaying the cache's own member delta ([`SparseEdgeCache::last_delta`])
//! in churn-proportional time. A full rebind survives only as the escape
//! hatch — foreign epoch gaps, rebuild-path refreshes, first binds.
//!
//! Byte-identity: [`DynamicMatching`] settles to the unique greedy fixpoint
//! of (member edge set, open set) — the same matching the serial presorted
//! scan over [`SparseEdgeCache::filter_sorted`] produces — and its
//! extraction renumbers global ids to open-subset ranks monotonically, so
//! tie-breaks survive. The LSAP memo is input-keyed (see
//! [`WarmState`](crate::solver::WarmState) docs) and thus survives any
//! amount of pool drift.
//!
//! This state is **derived, never serialized**: it is a deterministic
//! function of (cache, open set), so checkpoint/resume simply starts empty
//! and the first solve pays one rebind — output is unchanged.

use hta_matching::incremental::UpdateStats;
use hta_matching::{DynamicMatching, Matching};

use crate::solver::warm::LsapMemo;
use crate::sparse::{CacheBinding, SparseEdgeCache};

/// Matching and LSAP state carried across sparse-pipeline solves. See the
/// [module docs](self).
#[derive(Debug, Clone)]
pub struct SparseWarmState {
    /// The cache binding this state was built on (must match the cache's).
    binding: CacheBinding,
    /// The cache epoch the matching state currently reflects.
    epoch: u64,
    /// Greedy matching over global catalog ids, maintained across member
    /// and open-set deltas.
    dynm: DynamicMatching,
    /// Input-keyed memo of the last LSAP solution.
    pub(crate) memo: LsapMemo,
    /// Stats of the most recent open-set update (observability/tests).
    last_stats: UpdateStats,
    /// Whether the most recent [`sync`](Self::sync) fell back to a full
    /// rebind instead of replaying the cache's delta.
    last_rebind: bool,
}

impl SparseWarmState {
    /// Fresh warm state bound to `cache` at its current epoch with an empty
    /// open set. The first [`update_open`](Self::update_open) installs the
    /// initial matching via a linear rebuild.
    pub fn new(cache: &SparseEdgeCache) -> Self {
        let mut dynm = DynamicMatching::new(cache.n_catalog());
        dynm.rebind(cache.members(), cache.edges());
        Self {
            binding: cache.binding(),
            epoch: cache.epoch(),
            dynm,
            memo: None,
            last_stats: UpdateStats::default(),
            last_rebind: false,
        }
    }

    /// Whether this state was built from (an identical twin of) `cache`:
    /// a cache bound to the same catalog, or the very unbound cache it was
    /// built on. The epoch deliberately does **not** participate: a stale
    /// epoch is recoverable by [`sync`](Self::sync), a foreign catalog is
    /// not.
    pub fn matches_cache(&self, cache: &SparseEdgeCache) -> bool {
        self.binding == cache.binding()
    }

    /// Re-align with `cache` after a pool refresh. When the state is
    /// exactly one epoch behind and the cache still holds the incremental
    /// delta of that transition, the delta is replayed in
    /// churn-proportional time — the matching over surviving members is
    /// kept and repaired, not rebuilt. Anything else (epoch gap, rebuild
    /// refresh) falls back to a full rebind. Returns whether the state
    /// changed; no-op when the epoch already matches.
    pub fn sync(&mut self, cache: &SparseEdgeCache) -> bool {
        debug_assert!(self.matches_cache(cache));
        if self.epoch == cache.epoch() {
            self.last_rebind = false;
            return false;
        }
        if let Some(delta) = cache.last_delta() {
            if self.epoch + 1 == delta.to_epoch {
                self.dynm
                    .apply_member_delta(delta.removed, delta.added, delta.edges);
                // Amortized hygiene: reclaim tombstones once they outnumber
                // live entries, so repeated deltas cannot degrade scans.
                if self.dynm.needs_compact(cache.edges().len()) {
                    self.dynm.compact();
                }
                self.epoch = cache.epoch();
                self.last_rebind = false;
                return true;
            }
        }
        self.dynm.rebind(cache.members(), cache.edges());
        self.epoch = cache.epoch();
        self.last_rebind = true;
        true
    }

    /// Install a new open set given as strictly increasing **global catalog
    /// ids** (a member subset — callers guard with
    /// [`SparseEdgeCache::member_positions`]), repairing or rebuilding the
    /// matching as the delta size dictates.
    pub fn update_open(&mut self, cache: &SparseEdgeCache, open: &[u32]) -> UpdateStats {
        let stats = self.dynm.update_open(cache.edges(), open);
        self.last_stats = stats;
        stats
    }

    /// Materialize the current matching in open-subset-local ids over
    /// `n_out` padded vertices — byte-identical to running the presorted
    /// greedy over [`SparseEdgeCache::filter_sorted`] of the open set.
    pub fn extract_matching(&self, n_out: usize) -> Matching {
        self.dynm.extract(n_out)
    }

    /// Stats of the most recent [`update_open`](Self::update_open).
    pub fn last_stats(&self) -> UpdateStats {
        self.last_stats
    }

    /// Whether the most recent [`sync`](Self::sync) fell back to a full
    /// rebind (delta replay unavailable).
    pub fn last_rebind(&self) -> bool {
        self.last_rebind
    }

    /// Whether the memo currently holds a solution (tests/observability).
    pub fn has_memo(&self) -> bool {
        self.memo.is_some()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bitvec::KeywordVec;
    use crate::edges::keywords_fingerprint;
    use crate::metric::{Distance, Jaccard};
    use crate::task::{GroupId, Task, TaskId};
    use hta_matching::greedy_matching_presorted;

    fn catalog(n: usize) -> Vec<Task> {
        let nbits = 24;
        (0..n)
            .map(|i| {
                Task::new(
                    TaskId(i as u32),
                    GroupId(0),
                    KeywordVec::from_indices(nbits, &[i % nbits, (i * 7 + 3) % nbits]),
                )
            })
            .collect()
    }

    fn pool_cache(tasks: &[Task], members: &[u32]) -> SparseEdgeCache {
        let fp = keywords_fingerprint(tasks.iter().map(|t| &t.keywords));
        let mut cache = SparseEdgeCache::new(fp, tasks.len());
        cache.refresh(members, |u, v| {
            Jaccard.dist(&tasks[u as usize].keywords, &tasks[v as usize].keywords)
        });
        cache
    }

    #[test]
    fn extraction_matches_presorted_greedy_on_the_filtered_list() {
        let tasks = catalog(40);
        let members: Vec<u32> = (0..40).filter(|m| m % 4 != 1).collect();
        let cache = pool_cache(&tasks, &members);
        let mut warm = SparseWarmState::new(&cache);

        let open: Vec<u32> = members
            .iter()
            .copied()
            .enumerate()
            .filter_map(|(i, m)| (i % 5 != 2).then_some(m))
            .collect();
        assert!(cache.member_positions(&open).is_some(), "subset guard");
        warm.update_open(&cache, &open);
        let got = warm.extract_matching(open.len());
        let want = greedy_matching_presorted(open.len(), &cache.filter_sorted(&open));
        assert_eq!(got.edges(), want.edges());
    }

    #[test]
    fn sync_replays_small_deltas_and_stays_identical() {
        let tasks = catalog(50);
        let members: Vec<u32> = (0..30).collect();
        let mut cache = pool_cache(&tasks, &members);
        let mut warm = SparseWarmState::new(&cache);
        assert!(!warm.sync(&cache), "fresh state is already bound");

        let open: Vec<u32> = members.iter().copied().filter(|&m| m % 3 != 0).collect();
        warm.update_open(&cache, &open);

        // Small pool drift: the refresh takes the incremental path, so
        // sync must replay the cache's delta instead of rebinding.
        let next_members: Vec<u32> = (0..32).filter(|&m| m != 4).collect();
        let stats = cache.refresh(&next_members, |u, v| {
            Jaccard.dist(&tasks[u as usize].keywords, &tasks[v as usize].keywords)
        });
        assert!(!stats.rebuilt, "this delta must take the incremental path");
        assert!(warm.matches_cache(&cache), "fingerprint still matches");
        assert!(warm.sync(&cache), "epoch moved, state must change");
        assert!(!warm.last_rebind(), "one-epoch delta replays, no rebind");

        let open2: Vec<u32> = next_members
            .iter()
            .copied()
            .filter(|&m| m % 2 == 0)
            .collect();
        warm.update_open(&cache, &open2);
        let got = warm.extract_matching(open2.len());
        let want = greedy_matching_presorted(open2.len(), &cache.filter_sorted(&open2));
        assert_eq!(got.edges(), want.edges());

        // Same epoch again: repair, no sync work.
        assert!(!warm.sync(&cache));
        let open3: Vec<u32> = open2.iter().copied().filter(|&m| m != 2).collect();
        let stats = warm.update_open(&cache, &open3);
        assert!(stats.repaired, "single-member delta should repair");
        let got = warm.extract_matching(open3.len());
        let want = greedy_matching_presorted(open3.len(), &cache.filter_sorted(&open3));
        assert_eq!(got.edges(), want.edges());
    }

    #[test]
    fn sync_rebinds_on_rebuild_refreshes_and_epoch_gaps() {
        let tasks = catalog(60);
        let members: Vec<u32> = (0..24).collect();
        let mut cache = pool_cache(&tasks, &members);
        let weight =
            |u: u32, v: u32| Jaccard.dist(&tasks[u as usize].keywords, &tasks[v as usize].keywords);
        let mut warm = SparseWarmState::new(&cache);
        warm.update_open(&cache, &members);

        // Total swap: refresh rebuilds, no delta exists → full rebind.
        let swapped: Vec<u32> = (30..54).collect();
        let stats = cache.refresh(&swapped, weight);
        assert!(stats.rebuilt);
        assert!(warm.sync(&cache));
        assert!(warm.last_rebind(), "rebuild refresh leaves no delta");
        warm.update_open(&cache, &swapped);
        let got = warm.extract_matching(swapped.len());
        let want = greedy_matching_presorted(swapped.len(), &cache.filter_sorted(&swapped));
        assert_eq!(got.edges(), want.edges());

        // Two incremental refreshes while the warm state sleeps: the cache
        // only holds the latest delta, so the two-epoch gap must rebind.
        let step1: Vec<u32> = swapped.iter().copied().filter(|&m| m != 31).collect();
        assert!(!cache.refresh(&step1, weight).rebuilt);
        let step2: Vec<u32> = step1.iter().copied().chain([55u32]).collect();
        assert!(!cache.refresh(&step2, weight).rebuilt);
        assert!(warm.sync(&cache));
        assert!(warm.last_rebind(), "epoch gap cannot replay a single delta");
        warm.update_open(&cache, &step2);
        let got = warm.extract_matching(step2.len());
        let want = greedy_matching_presorted(step2.len(), &cache.filter_sorted(&step2));
        assert_eq!(got.edges(), want.edges());
    }

    #[test]
    fn foreign_catalog_is_detected() {
        let tasks = catalog(20);
        let cache = pool_cache(&tasks, &(0..20).collect::<Vec<_>>());
        let warm = SparseWarmState::new(&cache);
        let mut other = catalog(20);
        other[3].keywords.set(20);
        let other_cache = pool_cache(&other, &(0..20).collect::<Vec<_>>());
        assert!(!warm.matches_cache(&other_cache));

        // An unbound cache knows no catalog: a warm state built on it
        // matches that cache alone, never another unbound one.
        let unbound = SparseEdgeCache::unbound(20);
        let warm = SparseWarmState::new(&unbound);
        assert!(warm.matches_cache(&unbound));
        assert!(!warm.matches_cache(&SparseEdgeCache::unbound(20)));
        assert!(!warm.matches_cache(&cache));
    }
}

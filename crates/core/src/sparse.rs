//! Pool-scoped sparse diversity edge cache for catalogs past the dense cap.
//!
//! The dense [`DiversityEdgeCache`](crate::edges::DiversityEdgeCache) stores
//! every positive pair of the catalog — `O(n²)` space, which is why callers
//! cap it at [`crate::edges::edge_cache_cap`] tasks (4,096 by default). The
//! sparse candidate path never solves over the whole catalog though: each
//! iteration's instance is the candidate-pool union, bounded by
//! `|W| · X_max` plus retrieval overlap, regardless of catalog size. A
//! [`SparseEdgeCache`] therefore keeps the `edge_order`-sorted positive
//! diversity edges over the *current pool members only* and refreshes them
//! in place as the pool drifts: edges incident to departed members are
//! dropped with one retain pass, and only `added × retained` pairs are
//! weighed — so per-iteration distance work tracks pool churn, not
//! `|pool|²`, and catalog size never enters at all.
//!
//! Identity argument (mirrors the dense cache's): edges are kept sorted by
//! [`edge_order`] on their **global** endpoint ids. Any strictly increasing
//! subset of the members remaps globals to locals monotonically, preserving
//! both the `u < v` orientation and the lexicographic tie-break, so
//! [`SparseEdgeCache::filter_sorted`] reproduces a fresh
//! enumerate-and-sort over the sub-instance bit for bit. The delta refresh
//! preserves the invariant because a retain pass keeps sorted order, the
//! newly weighed edges are sorted and merged by the same comparator, and
//! every weight comes from the same distance function as a cold build —
//! the merged list is element-wise identical to rebuilding from scratch.
//!
//! The `epoch` counter versions the edge list: it bumps exactly when the
//! member set (and hence the edge list) changes, so a warm solver state
//! bound to an older epoch knows its edge positions are stale and rebinds
//! (integer work only — no distances) instead of trusting dangling
//! positions.

use std::sync::atomic::{AtomicU64, Ordering};

use hta_matching::{edge_order, WeightedEdge};

use crate::edges::initial_edge_reserve;

/// What a [`SparseEdgeCache`]'s weights are tied to; warm states compare
/// it to reject a foreign cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum CacheBinding {
    /// The catalog with this [`crate::edges::keywords_fingerprint`].
    Catalog(u64),
    /// No catalog checked yet. The token is unique in the process, so two
    /// unbound caches never pass for each other.
    Unbound(u64),
}

/// Statistics from one [`SparseEdgeCache::refresh`] call.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SparseRefreshStats {
    /// Members that left the pool.
    pub members_removed: usize,
    /// Members that joined the pool.
    pub members_added: usize,
    /// Edges dropped because an endpoint left.
    pub edges_dropped: usize,
    /// Positive edges added for pairs involving a new member.
    pub edges_added: usize,
    /// Candidate pairs whose weight was computed this refresh — the
    /// distance work actually paid (a cold build pays `|pool|²/2`).
    pub pairs_weighed: usize,
    /// True when the refresh fell back to full re-enumeration (first build
    /// or a delta so large the incremental path would weigh more pairs).
    pub rebuilt: bool,
}

/// The `edge_order`-sorted positive diversity edges over the current
/// candidate-pool members of a fixed catalog. See the [module docs](self).
#[derive(Debug, Clone)]
pub struct SparseEdgeCache {
    /// The catalog the weights come from, by fingerprint (the same guard
    /// the dense cache uses), or an unbound cache's unique token.
    binding: CacheBinding,
    /// Catalog size (member ids must stay below this).
    n_catalog: usize,
    /// Current pool members, strictly increasing catalog ids.
    members: Vec<u32>,
    /// Positive edges between members, **global** endpoints, sorted by
    /// [`edge_order`].
    edges: Vec<WeightedEdge>,
    /// Bumped on every member/edge change; warm states compare it to know
    /// when stored edge positions went stale.
    epoch: u64,
    /// The member/edge delta of the last incremental refresh, kept so a
    /// warm state exactly one epoch behind can catch up in
    /// churn-proportional time instead of rebinding over `O(|E|)`.
    /// Invalidated by the rebuild path (no delta exists then).
    delta_removed: Vec<u32>,
    delta_added: Vec<u32>,
    delta_edges: Vec<WeightedEdge>,
    delta_valid: bool,
}

/// Borrowed view of the member/edge delta that produced the cache's current
/// epoch from the previous one. See [`SparseEdgeCache::last_delta`].
#[derive(Debug, Clone, Copy)]
pub struct SparseDelta<'a> {
    /// Members that left in that transition (strictly increasing).
    pub removed: &'a [u32],
    /// Members that joined (strictly increasing).
    pub added: &'a [u32],
    /// Freshly weighed positive edges incident to at least one added
    /// member, global endpoints, `edge_order`-sorted.
    pub edges: &'a [WeightedEdge],
    /// The epoch this delta transitions **to** (the cache's current one).
    pub to_epoch: u64,
}

impl SparseEdgeCache {
    /// An empty cache bound to a catalog by `fingerprint` (computed by the
    /// caller over the catalog's task keywords, in catalog order) with
    /// `n_catalog` tasks. The first [`refresh`](Self::refresh) installs the
    /// initial pool.
    pub fn new(fingerprint: u64, n_catalog: usize) -> Self {
        Self::with_binding(CacheBinding::Catalog(fingerprint), n_catalog)
    }

    /// An empty cache over an `n_catalog`-task catalog that no fingerprint
    /// has been checked against, so building one never hashes the catalog.
    /// A caller that compares catalogs swaps it for a bound one
    /// ([`crate::OpenSetSession::revalidate`]); a warm state built on it
    /// matches this cache alone.
    pub fn unbound(n_catalog: usize) -> Self {
        static NEXT_TOKEN: AtomicU64 = AtomicU64::new(0);
        // Relaxed: the token publishes no other data, and `fetch_add`
        // alone makes it unique.
        let token = NEXT_TOKEN.fetch_add(1, Ordering::Relaxed);
        Self::with_binding(CacheBinding::Unbound(token), n_catalog)
    }

    fn with_binding(binding: CacheBinding, n_catalog: usize) -> Self {
        Self {
            binding,
            n_catalog,
            members: Vec::new(),
            edges: Vec::new(),
            epoch: 0,
            delta_removed: Vec::new(),
            delta_added: Vec::new(),
            delta_edges: Vec::new(),
            delta_valid: false,
        }
    }

    /// Fingerprint of the catalog this cache is bound to (`None` while
    /// [unbound](Self::unbound)).
    pub fn fingerprint(&self) -> Option<u64> {
        match self.binding {
            CacheBinding::Catalog(fp) => Some(fp),
            CacheBinding::Unbound(_) => None,
        }
    }

    pub(crate) fn binding(&self) -> CacheBinding {
        self.binding
    }

    /// Catalog size the member ids index into.
    pub fn n_catalog(&self) -> usize {
        self.n_catalog
    }

    /// Edge-list version; changes exactly when [`refresh`](Self::refresh)
    /// changes the member set.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Current pool members, strictly increasing catalog ids.
    pub fn members(&self) -> &[u32] {
        &self.members
    }

    /// The sorted positive edge list (global endpoints).
    pub fn edges(&self) -> &[WeightedEdge] {
        &self.edges
    }

    /// Install `new_members` (strictly increasing catalog ids), reweighing
    /// only the pairs the member delta touches. `weight` must be the same
    /// pure distance function on catalog ids at every call — the platform
    /// passes `|u, v| distance(kw[u], kw[v])` over the immutable catalog —
    /// otherwise retained edges would disagree with a cold build.
    pub fn refresh(
        &mut self,
        new_members: &[u32],
        weight: impl Fn(u32, u32) -> f64,
    ) -> SparseRefreshStats {
        debug_assert!(new_members.windows(2).all(|w| w[0] < w[1]));
        debug_assert!(new_members
            .last()
            .is_none_or(|&m| (m as usize) < self.n_catalog));
        let (removed, added) = diff_sorted(&self.members, new_members);
        let mut stats = SparseRefreshStats {
            members_removed: removed.len(),
            members_added: added.len(),
            ..Default::default()
        };
        if removed.is_empty() && added.is_empty() {
            return stats;
        }
        // Incremental cost: |added| rows against the new pool. When that
        // approaches the full |pool|²/2 re-enumeration (or nothing is
        // retained), the delta machinery only adds overhead.
        let retained = new_members.len() - added.len();
        if retained == 0 || added.len() * 2 >= new_members.len() {
            stats.rebuilt = true;
            stats.edges_dropped = self.edges.len();
            stats.pairs_weighed = new_members.len().saturating_sub(1) * new_members.len() / 2;
            self.rebuild(new_members, &weight);
            stats.edges_added = self.edges.len();
            return stats;
        }

        // Drop edges incident to a departed member; retain keeps order.
        let before = self.edges.len();
        self.edges.retain(|e| {
            removed.binary_search(&e.u).is_err() && removed.binary_search(&e.v).is_err()
        });
        stats.edges_dropped = before - self.edges.len();

        // Weigh exactly the pairs with a new endpoint: `added × retained`
        // plus `added × added` once each (skip the (smaller, larger) dup).
        let mut fresh: Vec<WeightedEdge> =
            Vec::with_capacity(initial_edge_reserve(added.len() * new_members.len()));
        for &a in &added {
            for &m in new_members {
                if m == a || (added.binary_search(&m).is_ok() && m < a) {
                    continue;
                }
                let (u, v) = if a < m { (a, m) } else { (m, a) };
                stats.pairs_weighed += 1;
                let w = weight(u, v);
                if w > 0.0 {
                    fresh.push(WeightedEdge::new(u, v, w));
                }
            }
        }
        stats.edges_added = fresh.len();
        fresh.sort_unstable_by(edge_order);
        self.edges = merge_sorted(&self.edges, &fresh);
        self.members.clear();
        self.members.extend_from_slice(new_members);
        self.epoch += 1;
        self.delta_removed = removed;
        self.delta_added = added;
        self.delta_edges = fresh;
        self.delta_valid = true;
        stats
    }

    /// The delta that produced the current epoch from the previous one, if
    /// the last member change went through the incremental refresh path —
    /// `None` after a rebuild (first install, total swap, or a delta too
    /// large to be worth weighing incrementally), when no such transition
    /// exists.
    pub fn last_delta(&self) -> Option<SparseDelta<'_>> {
        self.delta_valid.then_some(SparseDelta {
            removed: &self.delta_removed,
            added: &self.delta_added,
            edges: &self.delta_edges,
            to_epoch: self.epoch,
        })
    }

    /// Full re-enumeration over `new_members` (the refresh fallback; also
    /// exposed so tests can pin the delta path against it).
    pub fn rebuild(&mut self, new_members: &[u32], weight: &impl Fn(u32, u32) -> f64) {
        debug_assert!(new_members.windows(2).all(|w| w[0] < w[1]));
        let n = new_members.len();
        let mut edges = Vec::with_capacity(initial_edge_reserve(n.saturating_sub(1) * n / 2));
        for i in 0..n {
            for j in (i + 1)..n {
                let (u, v) = (new_members[i], new_members[j]);
                let w = weight(u, v);
                if w > 0.0 {
                    edges.push(WeightedEdge::new(u, v, w));
                }
            }
        }
        edges.sort_unstable_by(edge_order);
        self.edges = edges;
        self.members.clear();
        self.members.extend_from_slice(new_members);
        self.epoch += 1;
        self.delta_removed.clear();
        self.delta_added.clear();
        self.delta_edges.clear();
        self.delta_valid = false;
    }

    /// Positions of `open` (strictly increasing catalog ids) within the
    /// member list, or `None` if any of them is not a member — the
    /// subset guard warm callers must pass before trusting the edge list.
    pub fn member_positions(&self, open: &[u32]) -> Option<Vec<u32>> {
        let mut positions = Vec::with_capacity(open.len());
        let mut i = 0usize;
        for &g in open {
            i += self.members[i..].partition_point(|&m| m < g);
            if self.members.get(i) != Some(&g) {
                return None;
            }
            positions.push(i as u32);
            i += 1;
        }
        Some(positions)
    }

    /// Filter the sorted list down to `open` (a strictly increasing subset
    /// of the members), remapping endpoints to positions within `open` —
    /// exactly what enumerating and sorting the sub-instance would produce,
    /// suitable for `greedy_matching_presorted`.
    ///
    /// # Panics
    /// Debug builds panic when `open` is not a sorted member subset;
    /// release builds silently drop edges of non-member ids.
    pub fn filter_sorted(&self, open: &[u32]) -> Vec<WeightedEdge> {
        debug_assert!(open.windows(2).all(|w| w[0] < w[1]));
        debug_assert!(
            self.member_positions(open).is_some(),
            "filter_sorted requires open ⊆ members"
        );
        let mut out = Vec::with_capacity(initial_edge_reserve(
            open.len().saturating_sub(1) * open.len() / 2,
        ));
        for e in &self.edges {
            let (Ok(lu), Ok(lv)) = (open.binary_search(&e.u), open.binary_search(&e.v)) else {
                continue;
            };
            out.push(WeightedEdge::new(lu as u32, lv as u32, e.weight));
        }
        out
    }
}

/// Split two strictly-increasing lists into `(only_in_old, only_in_new)`.
fn diff_sorted(old: &[u32], new: &[u32]) -> (Vec<u32>, Vec<u32>) {
    let mut removed = Vec::new();
    let mut added = Vec::new();
    let (mut i, mut j) = (0, 0);
    while i < old.len() && j < new.len() {
        match old[i].cmp(&new[j]) {
            std::cmp::Ordering::Less => {
                removed.push(old[i]);
                i += 1;
            }
            std::cmp::Ordering::Greater => {
                added.push(new[j]);
                j += 1;
            }
            std::cmp::Ordering::Equal => {
                i += 1;
                j += 1;
            }
        }
    }
    removed.extend_from_slice(&old[i..]);
    added.extend_from_slice(&new[j..]);
    (removed, added)
}

/// Merge two `edge_order`-sorted lists (disjoint `(u, v)` keys) into one.
fn merge_sorted(a: &[WeightedEdge], b: &[WeightedEdge]) -> Vec<WeightedEdge> {
    let mut out = Vec::with_capacity(a.len() + b.len());
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        if edge_order(&a[i], &b[j]) == std::cmp::Ordering::Less {
            out.push(a[i]);
            i += 1;
        } else {
            out.push(b[j]);
            j += 1;
        }
    }
    out.extend_from_slice(&a[i..]);
    out.extend_from_slice(&b[j..]);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bitvec::KeywordVec;
    use crate::edges::{keywords_fingerprint, DiversityEdgeCache};
    use crate::metric::{Distance, Jaccard};
    use crate::task::{GroupId, Task, TaskId};

    fn catalog(n: usize) -> Vec<Task> {
        let nbits = 24;
        (0..n)
            .map(|i| {
                Task::new(
                    TaskId(i as u32),
                    GroupId(0),
                    KeywordVec::from_indices(nbits, &[i % nbits, (i * 5 + 2) % nbits]),
                )
            })
            .collect()
    }

    fn weight_fn(tasks: &[Task]) -> impl Fn(u32, u32) -> f64 + '_ {
        |u, v| Jaccard.dist(&tasks[u as usize].keywords, &tasks[v as usize].keywords)
    }

    /// Deterministic splitmix64 for churn sequences.
    struct Mix(u64);
    impl Mix {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9E3779B97F4A7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
            z ^ (z >> 31)
        }
    }

    #[test]
    fn delta_refresh_equals_rebuild_across_churn_sequence() {
        let tasks = catalog(80);
        let fp = keywords_fingerprint(tasks.iter().map(|t| &t.keywords));
        let mut by_delta = SparseEdgeCache::new(fp, 80);
        let mut by_rebuild = SparseEdgeCache::new(fp, 80);
        let mut rng = Mix(7);
        let mut members: Vec<u32> = (0..80).collect();
        for step in 0..40 {
            by_delta.refresh(&members, weight_fn(&tasks));
            by_rebuild.rebuild(&members, &weight_fn(&tasks));
            assert_eq!(by_delta.members(), by_rebuild.members(), "step {step}");
            assert_eq!(by_delta.edges(), by_rebuild.edges(), "step {step}");
            let keep = [95u64, 70, 30, 100, 5, 85][step % 6];
            members = (0..80).filter(|_| rng.next() % 100 < keep).collect();
        }
    }

    #[test]
    fn small_delta_takes_the_incremental_path_and_counts_pairs() {
        let tasks = catalog(60);
        let fp = keywords_fingerprint(tasks.iter().map(|t| &t.keywords));
        let mut cache = SparseEdgeCache::new(fp, 60);
        let members: Vec<u32> = (0..50).collect();
        let s0 = cache.refresh(&members, weight_fn(&tasks));
        assert!(s0.rebuilt, "first install re-enumerates");
        let epoch0 = cache.epoch();

        // Two leave, two arrive: churn-proportional work.
        let next: Vec<u32> = members
            .iter()
            .copied()
            .filter(|&m| m != 3 && m != 17)
            .chain([55u32, 58])
            .collect::<Vec<_>>();
        let mut next = next;
        next.sort_unstable();
        let s1 = cache.refresh(&next, weight_fn(&tasks));
        assert!(!s1.rebuilt);
        assert_eq!(s1.members_removed, 2);
        assert_eq!(s1.members_added, 2);
        // 2 rows against a 50-member pool, minus the double-counted
        // added×added pair: 2·49 − 1.
        assert_eq!(s1.pairs_weighed, 2 * 49 - 1);
        assert!(cache.epoch() > epoch0, "member change bumps the epoch");

        // The delta result must equal a cold build over the same members.
        let mut cold = SparseEdgeCache::new(fp, 60);
        cold.rebuild(&next, &weight_fn(&tasks));
        assert_eq!(cache.edges(), cold.edges());
    }

    #[test]
    fn no_delta_is_free_and_keeps_the_epoch() {
        let tasks = catalog(30);
        let fp = keywords_fingerprint(tasks.iter().map(|t| &t.keywords));
        let mut cache = SparseEdgeCache::new(fp, 30);
        let members: Vec<u32> = (0..30).step_by(2).collect();
        cache.refresh(&members, weight_fn(&tasks));
        let epoch = cache.epoch();
        let edges_before = cache.edges().to_vec();
        let stats = cache.refresh(&members, weight_fn(&tasks));
        assert_eq!(stats, SparseRefreshStats::default());
        assert_eq!(cache.epoch(), epoch, "no member change, no epoch bump");
        assert_eq!(cache.edges(), edges_before);
    }

    #[test]
    fn filter_sorted_matches_the_dense_cache_over_the_sub_catalog() {
        let tasks = catalog(40);
        let fp = keywords_fingerprint(tasks.iter().map(|t| &t.keywords));
        let mut cache = SparseEdgeCache::new(fp, 40);
        let members: Vec<u32> = (0..40).filter(|m| m % 5 != 2).collect();
        cache.refresh(&members, weight_fn(&tasks));

        // An open subset of the members.
        let open: Vec<u32> = members
            .iter()
            .copied()
            .enumerate()
            .filter_map(|(i, m)| (i % 3 != 1).then_some(m))
            .collect();
        let filtered = cache.filter_sorted(&open);

        // Reference: dense cache over the relabelled sub-catalog.
        let sub: Vec<Task> = open
            .iter()
            .enumerate()
            .map(|(i, &g)| {
                let mut t = tasks[g as usize].clone();
                t.id = TaskId(i as u32);
                t
            })
            .collect();
        let fresh = DiversityEdgeCache::build(&sub, &Jaccard, 1);
        assert_eq!(filtered, fresh.edges());
    }

    #[test]
    fn member_positions_detects_non_members() {
        let tasks = catalog(20);
        let fp = keywords_fingerprint(tasks.iter().map(|t| &t.keywords));
        let mut cache = SparseEdgeCache::new(fp, 20);
        cache.refresh(&[2, 5, 7, 11, 13], weight_fn(&tasks));
        assert_eq!(cache.member_positions(&[2, 7, 13]), Some(vec![0u32, 2, 4]));
        assert_eq!(cache.member_positions(&[]), Some(vec![]));
        assert_eq!(cache.member_positions(&[2, 6]), None);
        assert_eq!(cache.member_positions(&[14]), None);
    }

    #[test]
    fn total_member_swap_rebuilds() {
        let tasks = catalog(30);
        let fp = keywords_fingerprint(tasks.iter().map(|t| &t.keywords));
        let mut cache = SparseEdgeCache::new(fp, 30);
        cache.refresh(&(0..15).collect::<Vec<_>>(), weight_fn(&tasks));
        let stats = cache.refresh(&(15..30).collect::<Vec<_>>(), weight_fn(&tasks));
        assert!(stats.rebuilt, "disjoint pools must re-enumerate");
        let mut cold = SparseEdgeCache::new(fp, 30);
        cold.rebuild(&(15..30).collect::<Vec<_>>(), &weight_fn(&tasks));
        assert_eq!(cache.edges(), cold.edges());
    }
}

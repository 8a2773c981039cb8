//! Pool-scoped sparse diversity edge cache for catalogs past the dense cap.
//!
//! The dense [`DiversityEdgeCache`](crate::edges::DiversityEdgeCache) stores
//! every positive pair of the catalog — `O(n²)` space, which is why callers
//! cap it at [`crate::edges::edge_cache_cap`] tasks (4,096 by default). The
//! sparse candidate path never solves over the whole catalog though: each
//! iteration's instance is the candidate-pool union, bounded by
//! `|W| · X_max` plus retrieval overlap, regardless of catalog size. A
//! [`SparseEdgeCache`] therefore keeps the `edge_order`-sorted positive
//! diversity edges over the *current pool members only*. A refresh to a
//! different member set re-enumerates the pool's pairs by the same linear
//! placement a cold solve uses (`sorted_positive_edges`); a refresh to the
//! same members is free. Catalog size never enters.
//!
//! Identity argument (mirrors the dense cache's): edges are labelled by
//! their endpoints' **positions in the member list** and sorted by
//! [`edge_order`](hta_matching::edge_order). A round's instance lists exactly the members in that
//! order, so the list is already what a cold solve enumerates, and
//! [`SparseEdgeCache::filter_sorted`] hands it over as is. Any other
//! strictly increasing subset of the members renumbers positions
//! monotonically, preserving both the `u < v` orientation and the
//! lexicographic tie-break, so the filtered list again equals a fresh
//! enumerate-and-sort over the sub-instance bit for bit.

use std::borrow::Cow;
use std::sync::atomic::{AtomicU64, Ordering};

use hta_matching::WeightedEdge;

use crate::edges::{initial_edge_reserve, sorted_positive_edges, ByClosure};

/// The `edge_order`-sorted positive diversity edges over the current
/// candidate-pool members of a fixed catalog. See the [module docs](self).
#[derive(Debug, Clone)]
pub struct SparseEdgeCache {
    /// Unique in the process: a warm state built on this cache matches it
    /// alone.
    token: u64,
    /// Catalog size (member ids must stay below this).
    n_catalog: usize,
    /// Current pool members, strictly increasing catalog ids.
    members: Vec<u32>,
    /// Positive edges between members, endpoints as positions in
    /// `members`, sorted by [`edge_order`](hta_matching::edge_order).
    edges: Vec<WeightedEdge>,
    /// Bumped on every member change.
    epoch: u64,
}

impl SparseEdgeCache {
    /// An empty cache over an `n_catalog`-task catalog. The first
    /// [`refresh`](Self::refresh) installs the initial pool; building one
    /// never reads the catalog.
    pub fn new(n_catalog: usize) -> Self {
        static NEXT_TOKEN: AtomicU64 = AtomicU64::new(0);
        Self {
            // Relaxed: the token publishes no other data, and `fetch_add`
            // alone makes it unique.
            token: NEXT_TOKEN.fetch_add(1, Ordering::Relaxed),
            n_catalog,
            members: Vec::new(),
            edges: Vec::new(),
            epoch: 0,
        }
    }

    pub(crate) fn token(&self) -> u64 {
        self.token
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

    /// The sorted positive edge list, endpoints as positions in
    /// [`members`](Self::members). Observability: solves read it through
    /// [`filter_sorted`](Self::filter_sorted).
    pub fn edges(&self) -> &[WeightedEdge] {
        &self.edges
    }

    /// Install `new_members` (strictly increasing catalog ids): the same
    /// members are a no-op, any other set re-enumerates its pairs.
    /// `weight(i, j)` is the distance between members `i` and `j` by
    /// position in `new_members`, and must be the same pure function of
    /// their catalog ids at every call — a round passes its instance's
    /// diversity, whose tasks are the members in order.
    pub fn refresh(&mut self, new_members: &[u32], weight: impl Fn(usize, usize) -> f64 + Sync) {
        debug_assert!(new_members.windows(2).all(|w| w[0] < w[1]));
        debug_assert!(new_members
            .last()
            .is_none_or(|&m| (m as usize) < self.n_catalog));
        if new_members == self.members {
            return;
        }
        let n = new_members.len();
        self.edges = sorted_positive_edges(&ByClosure { n, weight }, 1);
        self.members.clear();
        self.members.extend_from_slice(new_members);
        self.epoch += 1;
    }

    /// Whether `open` is a strictly increasing subsequence of the members —
    /// the guard solves pass before trusting the edge list. Allocates
    /// nothing.
    pub fn covers(&self, open: &[u32]) -> bool {
        let mut i = 0usize;
        for &g in open {
            // Members before `i` are at most the previous id, so an id that
            // does not ascend finds no match here.
            i += self.members[i..].partition_point(|&m| m < g);
            if self.members.get(i) != Some(&g) {
                return false;
            }
            i += 1;
        }
        true
    }

    /// Filter the sorted list down to `open` (a strictly increasing subset
    /// of the members), renumbering endpoints to positions within `open` —
    /// exactly what enumerating and sorting the sub-instance would produce,
    /// suitable for `greedy_matching_presorted`. When `open` is every
    /// member, as in a round, that is the stored list itself, borrowed.
    ///
    /// # Panics
    /// Debug builds panic when `open` is not a sorted member subset;
    /// release builds silently drop edges of non-member ids.
    pub fn filter_sorted(&self, open: &[u32]) -> Cow<'_, [WeightedEdge]> {
        debug_assert!(self.covers(open), "filter_sorted requires open ⊆ members");
        if open == self.members {
            return Cow::Borrowed(&self.edges);
        }
        // Member position → position in `open`, by one merge walk.
        const ABSENT: u32 = u32::MAX;
        let mut local = vec![ABSENT; self.members.len()];
        let mut i = 0usize;
        for (l, &g) in open.iter().enumerate() {
            i += self.members[i..].partition_point(|&m| m < g);
            if self.members.get(i) == Some(&g) {
                local[i] = l as u32;
            }
        }
        let mut out = Vec::with_capacity(initial_edge_reserve(
            open.len().saturating_sub(1) * open.len() / 2,
        ));
        for e in &self.edges {
            let (lu, lv) = (local[e.u as usize], local[e.v as usize]);
            if lu != ABSENT && lv != ABSENT {
                out.push(WeightedEdge::new(lu, lv, e.weight));
            }
        }
        Cow::Owned(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bitvec::KeywordVec;
    use crate::edges::DiversityEdgeCache;
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

    /// Refresh `cache` to `members` under Jaccard over `tasks`.
    fn install(cache: &mut SparseEdgeCache, tasks: &[Task], members: &[u32]) {
        let kw = |i: usize| &tasks[members[i] as usize].keywords;
        cache.refresh(members, |i, j| Jaccard.dist(kw(i), kw(j)));
    }

    /// The pool's edges as the dense cache over the relabelled
    /// sub-catalog enumerates them, in local ids.
    fn dense_reference(tasks: &[Task], open: &[u32]) -> Vec<WeightedEdge> {
        let sub: Vec<Task> = open
            .iter()
            .enumerate()
            .map(|(i, &g)| {
                let mut t = tasks[g as usize].clone();
                t.id = TaskId(i as u32);
                t
            })
            .collect();
        DiversityEdgeCache::build(&sub, &Jaccard, 1)
            .edges()
            .to_vec()
    }

    #[test]
    fn no_delta_is_free_and_keeps_the_epoch() {
        let tasks = catalog(30);
        let mut cache = SparseEdgeCache::new(30);
        let members: Vec<u32> = (0..30).step_by(2).collect();
        install(&mut cache, &tasks, &members);
        let epoch = cache.epoch();
        let edges_before = cache.edges().to_vec();
        cache.refresh(&members, |_, _| panic!("an unchanged pool weighs nothing"));
        assert_eq!(cache.epoch(), epoch, "no member change, no epoch bump");
        assert_eq!(cache.edges(), edges_before);
    }

    #[test]
    fn filter_sorted_matches_the_dense_cache_over_the_sub_catalog() {
        let tasks = catalog(40);
        let mut cache = SparseEdgeCache::new(40);
        let members: Vec<u32> = (0..40).filter(|m| m % 5 != 2).collect();
        install(&mut cache, &tasks, &members);

        // Every member: the stored list itself.
        let all = cache.filter_sorted(&members);
        assert!(matches!(all, Cow::Borrowed(_)));
        assert_eq!(all, dense_reference(&tasks, &members));

        // An open subset of the members.
        let open: Vec<u32> = members
            .iter()
            .copied()
            .enumerate()
            .filter_map(|(i, m)| (i % 3 != 1).then_some(m))
            .collect();
        assert_eq!(cache.filter_sorted(&open), dense_reference(&tasks, &open));
    }

    #[test]
    fn covers_detects_non_members() {
        let tasks = catalog(20);
        let mut cache = SparseEdgeCache::new(20);
        install(&mut cache, &tasks, &[2, 5, 7, 11, 13]);
        assert!(cache.covers(&[2, 7, 13]));
        assert!(cache.covers(&[]));
        assert!(cache.covers(&[2, 5, 7, 11, 13]));
        assert!(!cache.covers(&[2, 6]));
        assert!(!cache.covers(&[14]));
        assert!(!cache.covers(&[0]));
        // Members out of order or repeated are not a sorted subset.
        assert!(!cache.covers(&[7, 2]));
        assert!(!cache.covers(&[5, 5]));
    }

    #[test]
    fn total_member_swap_rebuilds() {
        let tasks = catalog(30);
        let mut cache = SparseEdgeCache::new(30);
        install(&mut cache, &tasks, &(0..15).collect::<Vec<_>>());
        let epoch = cache.epoch();
        let swapped: Vec<u32> = (15..30).collect();
        install(&mut cache, &tasks, &swapped);
        assert_eq!(cache.epoch(), epoch + 1);
        assert_eq!(cache.members(), &swapped[..]);
        assert_eq!(
            cache.filter_sorted(&swapped),
            dense_reference(&tasks, &swapped)
        );

        // Down to one member and to none: no pairs, no edges.
        for members in [vec![7u32], vec![]] {
            install(&mut cache, &tasks, &members);
            assert!(cache.edges().is_empty());
            assert!(cache.filter_sorted(&members).is_empty());
        }
    }
}

//! Incremental maintenance of the greedy matching under open-set churn.
//!
//! The greedy matching over a fixed, [`edge_order`]-sorted positive edge
//! list and an *open* vertex subset is a confluent computation: it is the
//! unique matching `M` such that every edge between open vertices is either
//! in `M` or shares an endpoint with a matched edge of strictly smaller
//! position in the sorted list (the greedy certificate; induction over the
//! serial scan). [`IncrementalMatching`] maintains exactly that matching
//! across open-set deltas — tasks completing, expiring, or arriving between
//! solver iterations — by invalidating only the matched pairs touched by the
//! delta and repairing locally with a position-ordered proposal heap, so the
//! steady-state cost is proportional to churn × vertex degree rather than
//! `|E|`.
//!
//! Repair correctness hinges on two facts:
//!
//! 1. **Seeding covers every violated certificate edge.** After a delta, an
//!    edge can violate the certificate only if the delta freed or opened one
//!    of its endpoints (a certificate blocker is always a *matched* edge
//!    incident to the violating edge, so destroying it frees a vertex we
//!    seed; newly-opened vertices are seeded directly).
//! 2. **Min-heap pop order serializes commits by position.** A vertex's
//!    candidate is recomputed at pop time and re-pushed if stale, so a
//!    commit at position `p` happens only when `p` is the global heap
//!    minimum — i.e. when no certificate violation below `p` remains. That
//!    is precisely the serial greedy scan's commit order, hence the fixpoint
//!    equals [`greedy_matching_presorted`] on the open subgraph, bit for
//!    bit, including `edges()` order (extraction sorts matched positions
//!    ascending, which is `edge_order` order, and the global→local vertex
//!    remap is strictly increasing so tie-breaks are preserved).
//!
//! The structure never stores the edge list itself (at paper scale it is
//! hundreds of MB, owned by the caller's edge cache); every method borrows
//! the same slice the structure was built from, which callers must guarantee
//! — the warm-start layer in `hta-core` guards this with the edge-cache
//! fingerprint.
//!
//! [`greedy_matching_presorted`]: crate::greedy_matching_presorted

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::greedy::{edge_order, Matching, WeightedEdge};

const UNMATCHED: u32 = u32::MAX;

/// Statistics from one [`IncrementalMatching::update_open`] call.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct UpdateStats {
    /// Vertices closed by this delta.
    pub removed: usize,
    /// Vertices opened by this delta.
    pub added: usize,
    /// True if the delta was applied by local repair; false if the matching
    /// was rebuilt with a full linear scan (first build or large delta).
    pub repaired: bool,
}

/// The greedy matching over the open subset of a fixed sorted edge list,
/// maintained incrementally across open-set deltas.
#[derive(Debug, Clone)]
pub struct IncrementalMatching {
    /// Number of global vertices.
    n: usize,
    /// Length of the positive-weight prefix of the edge list (the greedy
    /// scan never looks past the first non-positive edge).
    n_edges: usize,
    /// Full edge-list length at build time; later calls must pass a slice
    /// of the same length (debug-checked — the caller's fingerprint guard
    /// is the release-mode defence).
    edges_len: usize,
    /// CSR incidence: the positions of edges incident to `v`, ascending,
    /// are `inc[inc_start[v] as usize..inc_start[v + 1] as usize]`.
    inc_start: Vec<u32>,
    inc: Vec<u32>,
    open: Vec<bool>,
    /// The current open set, strictly increasing.
    open_list: Vec<u32>,
    /// `mate[v]` = matched partner of `v`, or `UNMATCHED`.
    mate: Vec<u32>,
    /// `mpos[v]` = position of `v`'s matched edge in the sorted list.
    mpos: Vec<u32>,
}

impl IncrementalMatching {
    /// Build the incidence structure for `edges` (which must be sorted by
    /// [`edge_order`]) over `n` global vertices. The initial open set is
    /// empty; call [`update_open`](Self::update_open) to install one.
    pub fn new(n: usize, edges: &[WeightedEdge]) -> Self {
        assert!(
            edges.len() < UNMATCHED as usize && n < UNMATCHED as usize,
            "IncrementalMatching: vertex/edge counts must fit in u32"
        );
        debug_assert!(
            edges
                .windows(2)
                .all(|w| edge_order(&w[0], &w[1]) == std::cmp::Ordering::Less),
            "IncrementalMatching::new requires strictly edge_order-sorted input"
        );
        let n_edges = edges
            .iter()
            .position(|e| e.weight <= 0.0)
            .unwrap_or(edges.len());
        let mut inc_start = vec![0u32; n + 1];
        for e in &edges[..n_edges] {
            inc_start[e.u as usize + 1] += 1;
            inc_start[e.v as usize + 1] += 1;
        }
        for v in 0..n {
            inc_start[v + 1] += inc_start[v];
        }
        let mut cursor: Vec<u32> = inc_start[..n].to_vec();
        let mut inc = vec![0u32; 2 * n_edges];
        for (p, e) in edges[..n_edges].iter().enumerate() {
            // Iterating positions in ascending order keeps each per-vertex
            // incidence list ascending, which `cand` relies on.
            inc[cursor[e.u as usize] as usize] = p as u32;
            cursor[e.u as usize] += 1;
            inc[cursor[e.v as usize] as usize] = p as u32;
            cursor[e.v as usize] += 1;
        }
        Self {
            n,
            n_edges,
            edges_len: edges.len(),
            inc_start,
            inc,
            open: vec![false; n],
            open_list: Vec::new(),
            mate: vec![UNMATCHED; n],
            mpos: vec![UNMATCHED; n],
        }
    }

    /// Number of global vertices the structure is defined over.
    pub fn n_vertices(&self) -> usize {
        self.n
    }

    /// The edge-list length this structure was built from.
    pub fn edges_len(&self) -> usize {
        self.edges_len
    }

    /// The current open set (strictly increasing global vertex ids).
    pub fn open_list(&self) -> &[u32] {
        &self.open_list
    }

    /// Number of matched pairs in the current matching.
    pub fn matched_pairs(&self) -> usize {
        self.open_list
            .iter()
            .filter(|&&v| {
                let m = self.mate[v as usize];
                m != UNMATCHED && v < m
            })
            .count()
    }

    /// Install a new open set, repairing the matching locally when the delta
    /// is small and rebuilding with a linear scan otherwise. Both paths
    /// produce the identical matching; the choice is purely a cost call.
    ///
    /// `new_open` must be strictly increasing with every id `< n`, and
    /// `edges` must be the slice the structure was built from.
    pub fn update_open(&mut self, edges: &[WeightedEdge], new_open: &[u32]) -> UpdateStats {
        self.debug_check_inputs(edges, new_open);
        let (removed, added) = diff_sorted(&self.open_list, new_open);
        let stats = UpdateStats {
            removed: removed.len(),
            added: added.len(),
            repaired: false,
        };
        // Repair touches the incidence lists of delta vertices and their
        // freed partners a small constant number of times; a rebuild scans
        // all `n_edges` once. The ×8 margin covers candidate re-scans.
        let repair_cost: u64 = removed
            .iter()
            .chain(added.iter())
            .map(|&v| self.degree(v) as u64)
            .sum();
        if self.open_list.is_empty() || repair_cost.saturating_mul(8) >= self.n_edges as u64 {
            self.rebuild(edges, new_open);
            stats
        } else {
            self.repair(edges, &removed, &added, new_open);
            UpdateStats {
                repaired: true,
                ..stats
            }
        }
    }

    /// Force the linear-scan rebuild path (exposed so tests and benches can
    /// pin both paths against each other).
    pub fn force_rebuild(&mut self, edges: &[WeightedEdge], new_open: &[u32]) -> UpdateStats {
        self.debug_check_inputs(edges, new_open);
        let (removed, added) = diff_sorted(&self.open_list, new_open);
        self.rebuild(edges, new_open);
        UpdateStats {
            removed: removed.len(),
            added: added.len(),
            repaired: false,
        }
    }

    /// Force the local-repair path regardless of delta size.
    pub fn force_repair(&mut self, edges: &[WeightedEdge], new_open: &[u32]) -> UpdateStats {
        self.debug_check_inputs(edges, new_open);
        let (removed, added) = diff_sorted(&self.open_list, new_open);
        self.repair(edges, &removed, &added, new_open);
        UpdateStats {
            removed: removed.len(),
            added: added.len(),
            repaired: true,
        }
    }

    /// Materialize the current matching in local (open-subset) vertex ids —
    /// the renumbering hta-core's `DiversityEdgeCache::filter_sorted`
    /// applies — as a [`Matching`] over `n_out ≥ open_list.len()` vertices,
    /// byte-identical to what [`greedy_matching_presorted`] would produce
    /// on the filtered edge list, including `edges()` order.
    ///
    /// [`greedy_matching_presorted`]: crate::greedy_matching_presorted
    pub fn extract(&self, edges: &[WeightedEdge], n_out: usize) -> Matching {
        debug_assert_eq!(edges.len(), self.edges_len);
        debug_assert!(n_out >= self.open_list.len());
        let mut positions: Vec<u32> = Vec::with_capacity(self.open_list.len() / 2);
        for &v in &self.open_list {
            let m = self.mate[v as usize];
            if m != UNMATCHED && v < m {
                positions.push(self.mpos[v as usize]);
            }
        }
        // Ascending position order in the globally sorted list *is*
        // edge_order: weights descend with position, and the strictly
        // increasing global→local remap preserves the (u, v) tie-break.
        positions.sort_unstable();
        let out: Vec<WeightedEdge> = positions
            .iter()
            .map(|&p| {
                let e = edges[p as usize];
                WeightedEdge::new(self.local_id(e.u), self.local_id(e.v), e.weight)
            })
            .collect();
        Matching::from_sorted_edges(n_out, out)
    }

    fn local_id(&self, global: u32) -> u32 {
        self.open_list.partition_point(|&x| x < global) as u32
    }

    fn degree(&self, v: u32) -> u32 {
        self.inc_start[v as usize + 1] - self.inc_start[v as usize]
    }

    fn debug_check_inputs(&self, edges: &[WeightedEdge], new_open: &[u32]) {
        debug_assert_eq!(edges.len(), self.edges_len);
        debug_assert!(new_open.windows(2).all(|w| w[0] < w[1]));
        debug_assert!(new_open.last().is_none_or(|&v| (v as usize) < self.n));
        let _ = edges;
        let _ = new_open;
    }

    /// Drop the current matching and open set, then greedy-scan the full
    /// positive prefix against `new_open`. `O(n_edges)`.
    fn rebuild(&mut self, edges: &[WeightedEdge], new_open: &[u32]) {
        for &v in &self.open_list {
            self.open[v as usize] = false;
            self.mate[v as usize] = UNMATCHED;
            self.mpos[v as usize] = UNMATCHED;
        }
        for &v in new_open {
            self.open[v as usize] = true;
        }
        self.open_list.clear();
        self.open_list.extend_from_slice(new_open);
        for (p, e) in edges[..self.n_edges].iter().enumerate() {
            let (u, v) = (e.u as usize, e.v as usize);
            if self.open[u]
                && self.open[v]
                && self.mate[u] == UNMATCHED
                && self.mate[v] == UNMATCHED
            {
                self.mate[u] = e.v;
                self.mate[v] = e.u;
                self.mpos[u] = p as u32;
                self.mpos[v] = p as u32;
            }
        }
    }

    /// `v`'s first certificate-violating position: the smallest incident
    /// position whose other endpoint is open and either free or matched at a
    /// strictly larger position (i.e. stealable). `O(deg(v))`.
    fn cand(&self, edges: &[WeightedEdge], u: u32) -> Option<u32> {
        let s = self.inc_start[u as usize] as usize;
        let t = self.inc_start[u as usize + 1] as usize;
        for &p in &self.inc[s..t] {
            let e = edges[p as usize];
            let w = if e.u == u { e.v } else { e.u };
            if !self.open[w as usize] {
                continue;
            }
            if self.mate[w as usize] == UNMATCHED || self.mpos[w as usize] > p {
                return Some(p);
            }
        }
        None
    }

    /// Apply a (removed, added) delta by local repair: unmatch pairs touched
    /// by removals, seed freed partners and arrivals into a position-ordered
    /// proposal heap, and settle to the greedy fixpoint.
    fn repair(&mut self, edges: &[WeightedEdge], removed: &[u32], added: &[u32], new_open: &[u32]) {
        // Close removals first so that a pair whose endpoints are *both*
        // removed frees neither into the seed set.
        for &v in removed {
            self.open[v as usize] = false;
        }
        let mut seeds: Vec<u32> = Vec::with_capacity(removed.len() + added.len());
        for &v in removed {
            let w = self.mate[v as usize];
            self.mate[v as usize] = UNMATCHED;
            self.mpos[v as usize] = UNMATCHED;
            if w != UNMATCHED {
                self.mate[w as usize] = UNMATCHED;
                self.mpos[w as usize] = UNMATCHED;
                if self.open[w as usize] {
                    seeds.push(w);
                }
            }
        }
        for &v in added {
            self.open[v as usize] = true;
        }
        seeds.extend_from_slice(added);
        self.open_list.clear();
        self.open_list.extend_from_slice(new_open);

        let mut heap: BinaryHeap<Reverse<(u32, u32)>> = BinaryHeap::new();
        for &v in &seeds {
            if let Some(p) = self.cand(edges, v) {
                heap.push(Reverse((p, v)));
            }
        }
        while let Some(Reverse((p, u))) = heap.pop() {
            if !self.open[u as usize] || self.mate[u as usize] != UNMATCHED {
                continue;
            }
            // The entry may be stale in either direction (partners taken or
            // freed since the push); recompute and commit only when the
            // fresh candidate is the heap minimum itself.
            let Some(q) = self.cand(edges, u) else {
                continue;
            };
            if q != p {
                heap.push(Reverse((q, u)));
                continue;
            }
            let e = edges[p as usize];
            let w = if e.u == u { e.v } else { e.u };
            let old = self.mate[w as usize];
            if old != UNMATCHED {
                // Steal: w was matched at a strictly larger position; its
                // displaced partner re-enters the proposal heap.
                self.mate[old as usize] = UNMATCHED;
                self.mpos[old as usize] = UNMATCHED;
                if let Some(r) = self.cand(edges, old) {
                    heap.push(Reverse((r, old)));
                }
            }
            self.mate[u as usize] = w;
            self.mate[w as usize] = u;
            self.mpos[u as usize] = p;
            self.mpos[w as usize] = p;
        }
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::greedy::greedy_matching_presorted;

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

    fn sorted_test_edges(n: u32, seed: u64) -> Vec<WeightedEdge> {
        let mut rng = Mix(seed);
        let mut edges = Vec::new();
        for u in 0..n {
            for v in (u + 1)..n {
                // ~60% density, quantized weights so ties exercise the
                // (u, v) tie-break; a few non-positive weights that the
                // positive-prefix logic must ignore.
                if rng.next() % 5 < 3 {
                    let w = (rng.next() % 9) as f64 / 2.0 - 0.5;
                    edges.push(WeightedEdge::new(u, v, w));
                }
            }
        }
        edges.sort_unstable_by(edge_order);
        edges
    }

    /// Reference: filter the sorted list to open-only edges, remap to local
    /// ids, and run the serial presorted greedy — exactly what the solver's
    /// cold edge-cache path does.
    fn reference(edges: &[WeightedEdge], open: &[u32]) -> Matching {
        let local = |g: u32| open.partition_point(|&x| x < g) as u32;
        let filtered: Vec<WeightedEdge> = edges
            .iter()
            .filter(|e| open.binary_search(&e.u).is_ok() && open.binary_search(&e.v).is_ok())
            .map(|e| WeightedEdge::new(local(e.u), local(e.v), e.weight))
            .collect();
        greedy_matching_presorted(open.len(), &filtered)
    }

    fn random_open(n: u32, rng: &mut Mix, keep_pct: u64) -> Vec<u32> {
        (0..n).filter(|_| rng.next() % 100 < keep_pct).collect()
    }

    #[test]
    fn first_update_matches_reference() {
        let edges = sorted_test_edges(30, 1);
        let mut inc = IncrementalMatching::new(30, &edges);
        let open: Vec<u32> = (0..30).collect();
        let stats = inc.update_open(&edges, &open);
        assert!(!stats.repaired, "first install should rebuild");
        let got = inc.extract(&edges, open.len());
        assert_eq!(got.edges(), reference(&edges, &open).edges());
    }

    #[test]
    fn repair_equals_rebuild_across_churn_sequence() {
        let edges = sorted_test_edges(40, 2);
        let mut rng = Mix(99);
        let mut by_repair = IncrementalMatching::new(40, &edges);
        let mut by_rebuild = IncrementalMatching::new(40, &edges);
        let mut open: Vec<u32> = (0..40).collect();
        for step in 0..60 {
            by_repair.force_repair(&edges, &open);
            by_rebuild.force_rebuild(&edges, &open);
            let a = by_repair.extract(&edges, open.len());
            let b = by_rebuild.extract(&edges, open.len());
            let want = reference(&edges, &open);
            assert_eq!(a.edges(), want.edges(), "repair diverged at step {step}");
            assert_eq!(b.edges(), want.edges(), "rebuild diverged at step {step}");
            // Churn levels from single-vertex deltas up to near-total swaps.
            let keep = [97, 75, 50, 10, 0, 100][step % 6];
            open = random_open(40, &mut rng, keep);
        }
    }

    #[test]
    fn update_open_picks_repair_for_small_deltas() {
        let edges = sorted_test_edges(60, 3);
        let mut inc = IncrementalMatching::new(60, &edges);
        let mut open: Vec<u32> = (0..60).collect();
        inc.update_open(&edges, &open);
        // Complete two tasks: a churn-proportional delta must take the
        // repair path and still agree with the reference.
        open.retain(|&v| v != 7 && v != 23);
        let stats = inc.update_open(&edges, &open);
        assert!(
            stats.repaired,
            "two-vertex delta should repair, not rebuild"
        );
        assert_eq!(stats.removed, 2);
        assert_eq!(stats.added, 0);
        let got = inc.extract(&edges, open.len());
        assert_eq!(got.edges(), reference(&edges, &open).edges());
    }

    #[test]
    fn empty_and_full_open_sets() {
        let edges = sorted_test_edges(20, 4);
        let mut inc = IncrementalMatching::new(20, &edges);
        let full: Vec<u32> = (0..20).collect();
        inc.update_open(&edges, &full);
        inc.force_repair(&edges, &[]);
        assert_eq!(inc.matched_pairs(), 0);
        assert!(inc.extract(&edges, 0).edges().is_empty());
        inc.force_repair(&edges, &full);
        let got = inc.extract(&edges, full.len());
        assert_eq!(got.edges(), reference(&edges, &full).edges());
    }

    #[test]
    fn extract_pads_to_larger_vertex_count() {
        let edges = sorted_test_edges(12, 5);
        let mut inc = IncrementalMatching::new(12, &edges);
        let open: Vec<u32> = vec![1, 3, 4, 8, 9, 11];
        inc.update_open(&edges, &open);
        let got = inc.extract(&edges, 64);
        assert_eq!(got.n_vertices(), 64);
        let filtered = reference(&edges, &open);
        assert_eq!(got.edges(), filtered.edges());
    }

    #[test]
    fn non_positive_weights_never_match() {
        let edges = vec![
            WeightedEdge::new(0, 1, 2.0),
            WeightedEdge::new(2, 3, 0.0),
            WeightedEdge::new(1, 2, -1.0),
        ];
        let mut inc = IncrementalMatching::new(4, &edges);
        inc.update_open(&edges, &[0, 1, 2, 3]);
        inc.force_repair(&edges, &[1, 2, 3]);
        assert_eq!(inc.matched_pairs(), 0, "only non-positive edges remain");
    }

    #[test]
    fn steal_cascade_settles_to_greedy_fixpoint() {
        // Positions: (0,1) > (1,2) > (2,3) by weight. Open {1, 2}: matched
        // (1,2). Adding 0 must steal 1 away from 2 (position 0 < 1) and
        // re-seed 2, which then pairs with a newly-added 3.
        let edges = vec![
            WeightedEdge::new(0, 1, 3.0),
            WeightedEdge::new(1, 2, 2.0),
            WeightedEdge::new(2, 3, 1.0),
        ];
        let mut inc = IncrementalMatching::new(4, &edges);
        inc.update_open(&edges, &[1, 2]);
        assert_eq!(inc.matched_pairs(), 1);
        inc.force_repair(&edges, &[0, 1, 2, 3]);
        let got = inc.extract(&edges, 4);
        assert_eq!(got.edges(), reference(&edges, &[0, 1, 2, 3]).edges());
        assert_eq!(got.edges().len(), 2);
        assert_eq!(got.edges()[0].weight, 3.0);
        assert_eq!(got.edges()[1].weight, 1.0);
    }

    #[test]
    fn diff_sorted_splits_correctly() {
        let (rem, add) = diff_sorted(&[1, 2, 5, 9], &[2, 3, 9, 10]);
        assert_eq!(rem, vec![1, 5]);
        assert_eq!(add, vec![3, 10]);
    }
}

//! Greedy maximum-weight matching on general graphs.
//!
//! The classic greedy algorithm — repeatedly take the heaviest remaining
//! edge whose endpoints are both free — is a ½-approximation for
//! maximum-weight matching (Drake & Hougardy 2003; Duan & Pettie 2014). The
//! HTA algorithms use it twice: for the diversity matching `M_B`
//! (Algorithm 1, line 2) and, in HTA-GRE, for the auxiliary LSAP
//! (Algorithm 2, line 11).

/// An undirected weighted edge `(u, v, w)` with `u != v`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WeightedEdge {
    /// First endpoint.
    pub u: u32,
    /// Second endpoint.
    pub v: u32,
    /// Edge weight.
    pub weight: f64,
}

impl WeightedEdge {
    /// Convenience constructor.
    pub fn new(u: u32, v: u32, weight: f64) -> Self {
        Self { u, v, weight }
    }
}

/// A matching over vertices `0..n`: a set of vertex-disjoint edges.
#[derive(Debug, Clone, Default)]
pub struct Matching {
    edges: Vec<WeightedEdge>,
    /// `mate[v]` = matched partner of `v`, or `u32::MAX` if unmatched.
    mate: Vec<u32>,
}

impl Matching {
    const UNMATCHED: u32 = u32::MAX;

    /// An empty matching over `n` vertices.
    pub fn empty(n: usize) -> Self {
        Self {
            edges: Vec::new(),
            mate: vec![Self::UNMATCHED; n],
        }
    }

    /// Number of vertices the matching is defined over.
    pub fn n_vertices(&self) -> usize {
        self.mate.len()
    }

    /// The matched edges.
    pub fn edges(&self) -> &[WeightedEdge] {
        &self.edges
    }

    /// The matched partner of `v`, if any.
    #[inline]
    pub fn mate(&self, v: u32) -> Option<u32> {
        match self.mate.get(v as usize) {
            Some(&m) if m != Self::UNMATCHED => Some(m),
            _ => None,
        }
    }

    /// True if `v` is covered by the matching.
    #[inline]
    pub fn covers(&self, v: u32) -> bool {
        self.mate(v).is_some()
    }

    /// Weight of the edge incident to `v`, or `0.0` if `v` is unmatched.
    ///
    /// This is `b_M(t_k)` in Algorithm 1 (lines 5–8).
    pub fn incident_weight(&self, v: u32) -> f64 {
        self.weight_of(v).unwrap_or(0.0)
    }

    fn weight_of(&self, v: u32) -> Option<f64> {
        let m = self.mate(v)?;
        self.edges
            .iter()
            .find(|e| (e.u == v && e.v == m) || (e.v == v && e.u == m))
            .map(|e| e.weight)
    }

    /// Total weight of the matching.
    pub fn total_weight(&self) -> f64 {
        self.edges.iter().map(|e| e.weight).sum()
    }

    /// Add an edge, marking both endpoints matched.
    ///
    /// # Panics
    /// Panics (debug builds) if either endpoint is already matched.
    fn add(&mut self, e: WeightedEdge) {
        debug_assert!(!self.covers(e.u) && !self.covers(e.v));
        self.mate[e.u as usize] = e.v;
        self.mate[e.v as usize] = e.u;
        self.edges.push(e);
    }

    /// Build a matching over `0..n` directly from a vertex-disjoint edge list
    /// that is already in [`edge_order`]. Used by the incremental warm-start
    /// path, which maintains the greedy matching out-of-band and needs to
    /// materialize it in the exact shape [`greedy_matching_presorted`] would
    /// produce (the edge *order* matters downstream: the pipeline's random
    /// ½-flip consumes RNG draws per edge in `edges()` order).
    ///
    /// Debug builds verify both preconditions (sortedness and disjointness);
    /// release builds trust the caller.
    pub fn from_sorted_edges(n: usize, edges: Vec<WeightedEdge>) -> Self {
        debug_assert!(
            edges
                .windows(2)
                .all(|w| edge_order(&w[0], &w[1]) == std::cmp::Ordering::Less),
            "Matching::from_sorted_edges requires strictly edge_order-sorted input"
        );
        let mut mate = vec![Self::UNMATCHED; n];
        for e in &edges {
            debug_assert!(
                mate[e.u as usize] == Self::UNMATCHED && mate[e.v as usize] == Self::UNMATCHED,
                "Matching::from_sorted_edges requires vertex-disjoint edges"
            );
            mate[e.u as usize] = e.v;
            mate[e.v as usize] = e.u;
        }
        Self { edges, mate }
    }
}

/// The edge ordering every greedy-matching variant agrees on: decreasing
/// weight, ties broken by `(u, v)` so results are reproducible. No two
/// distinct edges compare equal (endpoints are unique per edge), so the
/// sorted order is unique: a parallel chunk-sort + merge, or a stable
/// placement by weight of an edge list already in `(u, v)` order, gives
/// exactly the sequential sort's result.
#[inline]
pub fn edge_order(a: &WeightedEdge, b: &WeightedEdge) -> std::cmp::Ordering {
    b.weight
        .partial_cmp(&a.weight)
        .expect("edge weights must not be NaN")
        .then_with(|| (a.u, a.v).cmp(&(b.u, b.v)))
}

/// Greedy maximum-weight matching: sort edges by decreasing weight, then take
/// each edge whose endpoints are both still free. Edges with non-positive
/// weight are skipped (they can never improve a maximum-weight matching).
///
/// Runs in `O(|E| log |E|)`; guarantees at least half the weight of a
/// maximum-weight matching.
///
/// Ties are broken deterministically by `(u, v)` so results are reproducible.
pub fn greedy_matching(n: usize, edges: &[WeightedEdge]) -> Matching {
    let mut order: Vec<u32> = (0..edges.len() as u32).collect();
    order.sort_unstable_by(|&a, &b| edge_order(&edges[a as usize], &edges[b as usize]));
    greedy_scan(n, order.iter().map(|&i| edges[i as usize]))
}

/// Greedy matching over an edge list that is **already sorted** by
/// [`edge_order`] — the per-iteration edge-reuse fast path, which skips
/// both enumeration and the `O(|E| log |E|)` sort.
///
/// Debug builds verify the precondition; release builds trust the caller.
pub fn greedy_matching_presorted(n: usize, edges: &[WeightedEdge]) -> Matching {
    debug_assert!(
        edges
            .windows(2)
            .all(|w| edge_order(&w[0], &w[1]) != std::cmp::Ordering::Greater),
        "greedy_matching_presorted requires edge_order-sorted input"
    );
    greedy_scan(n, edges.iter().copied())
}

fn greedy_scan(n: usize, sorted: impl Iterator<Item = WeightedEdge>) -> Matching {
    let mut m = Matching::empty(n);
    for e in sorted {
        if e.weight <= 0.0 {
            break; // sorted: everything after is also non-positive
        }
        if !m.covers(e.u) && !m.covers(e.v) {
            m.add(e);
        }
    }
    m
}

/// Greedy matching on the complete graph over `0..n` with weights given by
/// `weight(u, v)` (`u < v`). Materializes the `n(n−1)/2` edge list, so use
/// only when that fits in memory; the HTA diversity matching at paper scale
/// (10⁴ tasks → 5·10⁷ edges) fits comfortably.
pub fn greedy_matching_complete(n: usize, mut weight: impl FnMut(usize, usize) -> f64) -> Matching {
    let mut edges = Vec::with_capacity(n.saturating_sub(1) * n / 2);
    for u in 0..n {
        for v in (u + 1)..n {
            let w = weight(u, v);
            if w > 0.0 {
                edges.push(WeightedEdge::new(u as u32, v as u32, w));
            }
        }
    }
    greedy_matching(n, &edges)
}

/// Exact maximum-weight matching by exhaustive search. Exponential: intended
/// only for validating the greedy ½-guarantee on tiny graphs in tests.
pub fn exact_matching_bruteforce(n: usize, edges: &[WeightedEdge]) -> f64 {
    fn rec(edges: &[WeightedEdge], used: &mut [bool], i: usize) -> f64 {
        if i == edges.len() {
            return 0.0;
        }
        // Skip edge i.
        let mut best = rec(edges, used, i + 1);
        let e = edges[i];
        if !used[e.u as usize] && !used[e.v as usize] && e.weight > 0.0 {
            used[e.u as usize] = true;
            used[e.v as usize] = true;
            best = best.max(e.weight + rec(edges, used, i + 1));
            used[e.u as usize] = false;
            used[e.v as usize] = false;
        }
        best
    }
    let mut used = vec![false; n];
    rec(edges, &mut used, 0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_graph_gives_empty_matching() {
        let m = greedy_matching(4, &[]);
        assert!(m.edges().is_empty());
        assert_eq!(m.total_weight(), 0.0);
        assert!(!m.covers(0));
    }

    #[test]
    fn picks_heaviest_edge_first() {
        let edges = [
            WeightedEdge::new(0, 1, 1.0),
            WeightedEdge::new(1, 2, 5.0),
            WeightedEdge::new(2, 3, 1.0),
        ];
        let m = greedy_matching(4, &edges);
        // Greedy takes (1,2) then nothing else fits except... (0,1) blocked,
        // (2,3) blocked. Total 5. (Optimal is 1+1=2 < 5 here, greedy wins.)
        assert_eq!(m.edges().len(), 1);
        assert_eq!(m.total_weight(), 5.0);
        assert_eq!(m.mate(1), Some(2));
        assert_eq!(m.mate(2), Some(1));
        assert_eq!(m.mate(0), None);
    }

    #[test]
    fn classic_half_approximation_path() {
        // Path 0-1-2-3 with weights 1, 1.5, 1: greedy takes the middle edge
        // (1.5), optimal takes the two outer ones (2.0).
        let edges = [
            WeightedEdge::new(0, 1, 1.0),
            WeightedEdge::new(1, 2, 1.5),
            WeightedEdge::new(2, 3, 1.0),
        ];
        let m = greedy_matching(4, &edges);
        assert_eq!(m.total_weight(), 1.5);
        let opt = exact_matching_bruteforce(4, &edges);
        assert_eq!(opt, 2.0);
        assert!(m.total_weight() >= 0.5 * opt);
    }

    #[test]
    fn skips_non_positive_edges() {
        let edges = [
            WeightedEdge::new(0, 1, -1.0),
            WeightedEdge::new(2, 3, 0.0),
            WeightedEdge::new(1, 2, 2.0),
        ];
        let m = greedy_matching(4, &edges);
        assert_eq!(m.edges().len(), 1);
        assert_eq!(m.total_weight(), 2.0);
    }

    #[test]
    fn incident_weight_reports_matched_edge() {
        let edges = [WeightedEdge::new(0, 3, 2.5)];
        let m = greedy_matching(4, &edges);
        assert_eq!(m.incident_weight(0), 2.5);
        assert_eq!(m.incident_weight(3), 2.5);
        assert_eq!(m.incident_weight(1), 0.0);
    }

    #[test]
    fn complete_graph_even_vertices_perfect() {
        // Complete graph on 4 vertices, all weights 1: greedy must produce a
        // perfect matching (2 edges).
        let m = greedy_matching_complete(4, |_, _| 1.0);
        assert_eq!(m.edges().len(), 2);
        for v in 0..4 {
            assert!(m.covers(v));
        }
    }

    #[test]
    fn complete_graph_odd_vertices_leaves_one_uncovered() {
        let m = greedy_matching_complete(5, |u, v| (u + v) as f64);
        assert_eq!(m.edges().len(), 2);
        let uncovered: Vec<u32> = (0..5).filter(|&v| !m.covers(v)).collect();
        assert_eq!(uncovered.len(), 1);
    }

    #[test]
    fn parallel_sort_matches_sequential_matching() {
        // Dense random-weight graph with many ties (weights quantized) so
        // the (u, v) tie-break is exercised across chunks, and above the
        // grain so `sort_unstable_by_parallel` really splits the sort.
        let n = 1_100u32;
        let mut edges = Vec::new();
        for u in 0..n {
            for v in (u + 1)..n {
                let w = ((u * 7 + v * 13) % 5) as f64 / 4.0;
                edges.push(WeightedEdge::new(u, v, w));
            }
        }
        assert!(hta_par::threads_for(edges.len(), 7) >= 2);
        let seq = greedy_matching(n as usize, &edges);
        for threads in [1usize, 2, 7] {
            let mut sorted = edges.clone();
            hta_par::sort_unstable_by_parallel(&mut sorted, threads, edge_order);
            let par = greedy_matching_presorted(n as usize, &sorted);
            assert_eq!(par.edges(), seq.edges(), "threads={threads}");
        }
    }

    #[test]
    fn presorted_matches_unsorted_input_path() {
        let mut edges = Vec::new();
        for u in 0..25u32 {
            for v in (u + 1)..25 {
                edges.push(WeightedEdge::new(u, v, ((u * 3 + v) % 7) as f64));
            }
        }
        let expect = greedy_matching(25, &edges);
        let mut sorted = edges.clone();
        sorted.sort_unstable_by(edge_order);
        let got = greedy_matching_presorted(25, &sorted);
        assert_eq!(got.edges(), expect.edges());
    }

    #[test]
    fn deterministic_under_ties() {
        let edges = [
            WeightedEdge::new(0, 1, 1.0),
            WeightedEdge::new(2, 3, 1.0),
            WeightedEdge::new(1, 2, 1.0),
        ];
        let a = greedy_matching(4, &edges);
        let b = greedy_matching(4, &edges);
        assert_eq!(a.edges(), b.edges());
        // Tie-break by (u, v): (0,1) first, then (2,3).
        assert_eq!(a.edges().len(), 2);
        assert_eq!(a.mate(0), Some(1));
        assert_eq!(a.mate(2), Some(3));
    }
}

//! Reusable, pre-sorted diversity edge lists.
//!
//! Enumerating and sorting the positive-weight diversity pairs is the
//! `O(|T|² log |T|)` prefix of every QAP-pipeline solve. In the iterative
//! setting (engine iterations, the crowd platform's assign loop) the task
//! catalog is fixed and only the *open* subset shrinks, so the pairwise
//! diversities never change — the full sorted edge list can be computed once
//! and each iteration just filters it down to the open tasks.
//!
//! Correctness of the filter rests on a monotonicity argument: edges are
//! sorted by [`edge_order`] (weight descending, ties by the `(u, v)` id
//! pair), and the open subset is given in strictly increasing global order,
//! so the global→local id remap preserves both the `u < v` orientation and
//! the lexicographic tie-break. The filtered sublist is therefore exactly
//! what enumerating and sorting the sub-instance from scratch would produce
//! — byte-identical, which keeps solver output independent of whether the
//! cache is used.

use hta_matching::{edge_order, WeightedEdge};

use crate::bitvec::KeywordVec;
use crate::instance::Instance;
use crate::kernels;
use crate::metric::Distance;
use crate::task::Task;

/// FNV-1a fingerprint of a task catalog: task count plus every keyword
/// vector's width and bit pattern. Two catalogs share a fingerprint exactly
/// when they have the same tasks with the same keywords in the same order —
/// which is the condition under which a [`DiversityEdgeCache`] built from
/// one is valid for the other (pairwise diversities depend only on the
/// keyword vectors).
pub fn keywords_fingerprint<'a, I>(keywords: I) -> u64
where
    I: IntoIterator<Item = &'a KeywordVec>,
{
    const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
    #[inline]
    fn mix(mut h: u64, word: u64) -> u64 {
        for b in word.to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(FNV_PRIME);
        }
        h
    }
    let mut h = FNV_OFFSET;
    let mut count = 0u64;
    for kw in keywords {
        h = mix(h, kw.nbits() as u64);
        for &block in kw.blocks() {
            h = mix(h, block);
        }
        count += 1;
    }
    mix(h, count)
}

/// Default largest catalog for which callers cache the full sorted
/// diversity edge list (a dense 4096-task catalog tops out around 8M edges
/// ≈ 200 MB; paper-scale 10k catalogs would triple that).
pub const DEFAULT_EDGE_CACHE_TASKS: usize = 4096;

/// Resolve the edge-cache catalog cap: an explicit request wins, otherwise
/// the `HTA_EDGE_CACHE_CAP` environment variable, otherwise
/// [`DEFAULT_EDGE_CACHE_TASKS`]. Mirrors `hta_par::solver_threads` so
/// every sizing knob resolves the same way.
pub fn edge_cache_cap(requested: usize) -> usize {
    if requested > 0 {
        return requested;
    }
    std::env::var("HTA_EDGE_CACHE_CAP")
        .ok()
        .and_then(|v| v.parse().ok())
        .filter(|&v| v > 0)
        .unwrap_or(DEFAULT_EDGE_CACHE_TASKS)
}

/// Cap on the up-front edge reservation. The old
/// `Vec::with_capacity(n·(n−1)/2)` pre-allocation reserved ~800 MB for a
/// 10k-task catalog before a single edge existed; reserving at most this
/// many (2 MiB of edges) and growing organically costs a few reallocations
/// on dense instances and nothing on sparse ones. Retuned 64k → 128k for
/// the SIMD kernels: the batched popcount path emits edges fast enough
/// that the doubling reallocations between 64k and the ~8M edges of a
/// dense 4k catalog became a visible fraction of `edge_enum_s`
/// (EXPERIMENTS.md, kernel-throughput table).
const MAX_EDGE_RESERVE: usize = 131_072;

/// Initial reservation for an edge list over `pairs` candidate pairs.
#[inline]
pub(crate) fn initial_edge_reserve(pairs: usize) -> usize {
    pairs.min(MAX_EDGE_RESERVE)
}

/// Enumerate the positive-weight edges `(u, v, weight(u, v))` for
/// `u < v < n`, in row-major order, with rows split into `threads`
/// contiguous ranges balanced by pair count (row `u` contributes
/// `n − 1 − u` pairs). Chunks are concatenated in range order, so the
/// result is byte-identical to the sequential double loop at any thread
/// count.
pub(crate) fn enumerate_positive_edges(
    n: usize,
    threads: usize,
    weight: impl Fn(usize, usize) -> f64 + Sync,
) -> Vec<WeightedEdge> {
    let total_pairs = n.saturating_sub(1) * n / 2;
    let threads = threads.clamp(1, n.max(1));
    if threads == 1 || n < 2 {
        let mut edges = Vec::with_capacity(initial_edge_reserve(total_pairs));
        for u in 0..n {
            for v in (u + 1)..n {
                let w = weight(u, v);
                if w > 0.0 {
                    edges.push(WeightedEdge::new(u as u32, v as u32, w));
                }
            }
        }
        return edges;
    }
    // Balanced contiguous row ranges: cut whenever the running pair count
    // passes the per-thread target.
    let target = total_pairs.div_ceil(threads);
    let mut ranges: Vec<(usize, usize)> = Vec::with_capacity(threads);
    let mut start = 0usize;
    let mut acc = 0usize;
    for u in 0..n {
        acc += n - 1 - u;
        if acc >= target {
            ranges.push((start, u + 1));
            start = u + 1;
            acc = 0;
        }
    }
    if start < n {
        ranges.push((start, n));
    }
    let chunks = hta_par::map_items(&ranges, ranges.len(), |_, &(lo, hi)| {
        let pairs: usize = (lo..hi).map(|u| n - 1 - u).sum();
        let mut edges = Vec::with_capacity(initial_edge_reserve(pairs));
        for u in lo..hi {
            for v in (u + 1)..n {
                let w = weight(u, v);
                if w > 0.0 {
                    edges.push(WeightedEdge::new(u as u32, v as u32, w));
                }
            }
        }
        edges
    });
    chunks.into_iter().flatten().collect()
}

/// [`enumerate_positive_edges`] over a [`PackedCatalog`]: the same
/// row-major `u < v` order and the same balanced contiguous row ranges,
/// but each row's distances come from one batched
/// [`kernels::pairwise_distance_block`] call instead of per-pair
/// `Distance::dist` invocations. Distances are bit-identical (exact
/// integer popcounts before the shared f64 division), so the edge list is
/// byte-identical to the closure-based enumeration under Jaccard.
pub(crate) fn enumerate_positive_edges_packed(
    cat: &kernels::PackedCatalog,
    threads: usize,
) -> Vec<WeightedEdge> {
    let n = cat.len();
    let total_pairs = n.saturating_sub(1) * n / 2;
    let threads = threads.clamp(1, n.max(1));
    let row_range = |lo: usize, hi: usize| {
        let pairs: usize = (lo..hi).map(|u| n - 1 - u).sum();
        let mut edges = Vec::with_capacity(initial_edge_reserve(pairs));
        // One scratch row reused across the range (longest row first).
        let mut row = vec![0.0f64; n.saturating_sub(lo + 1)];
        for u in lo..hi {
            let row = &mut row[..n - 1 - u];
            kernels::pairwise_distance_block(cat, u, row);
            for (off, &w) in row.iter().enumerate() {
                if w > 0.0 {
                    edges.push(WeightedEdge::new(u as u32, (u + 1 + off) as u32, w));
                }
            }
        }
        edges
    };
    if threads == 1 || n < 2 {
        return row_range(0, n);
    }
    let target = total_pairs.div_ceil(threads);
    let mut ranges: Vec<(usize, usize)> = Vec::with_capacity(threads);
    let mut start = 0usize;
    let mut acc = 0usize;
    for u in 0..n {
        acc += n - 1 - u;
        if acc >= target {
            ranges.push((start, u + 1));
            start = u + 1;
            acc = 0;
        }
    }
    if start < n {
        ranges.push((start, n));
    }
    let chunks = hta_par::map_items(&ranges, ranges.len(), |_, &(lo, hi)| row_range(lo, hi));
    chunks.into_iter().flatten().collect()
}

/// The sorted positive-weight diversity edge list of a fixed task catalog,
/// reusable across iterations. See the [module docs](self).
#[derive(Debug, Clone)]
pub struct DiversityEdgeCache {
    n: usize,
    edges: Vec<WeightedEdge>,
    /// [`keywords_fingerprint`] of the catalog the cache was built from.
    fingerprint: u64,
}

impl DiversityEdgeCache {
    /// Enumerate and [`edge_order`]-sort the positive-diversity pairs of
    /// `tasks` under `distance`, using `threads` scoped threads for both
    /// the enumeration and the sort.
    pub fn build(tasks: &[Task], distance: &(dyn Distance + Send + Sync), threads: usize) -> Self {
        let keywords: Vec<&KeywordVec> = tasks.iter().map(|t| &t.keywords).collect();
        Self::build_over(&keywords, distance, threads)
    }

    /// [`build`](Self::build) over the catalog's task keyword vectors, in
    /// catalog order.
    pub(crate) fn build_over(
        keywords: &[&KeywordVec],
        distance: &(dyn Distance + Send + Sync),
        threads: usize,
    ) -> Self {
        let n = keywords.len();
        let mut edges = if distance.supports_popcount_kernels() && n > 1 {
            let cat =
                kernels::PackedCatalog::from_vecs(keywords[0].nbits(), keywords.iter().copied());
            enumerate_positive_edges_packed(&cat, threads)
        } else {
            enumerate_positive_edges(n, threads, |u, v| distance.dist(keywords[u], keywords[v]))
        };
        hta_par::sort_unstable_by_parallel(&mut edges, threads, edge_order);
        let fingerprint = keywords_fingerprint(keywords.iter().copied());
        Self {
            n,
            edges,
            fingerprint,
        }
    }

    /// Build from an [`Instance`] over the full catalog (reads
    /// [`Instance::diversity`], so an instance-level diversity cache is
    /// honoured).
    pub fn from_instance(inst: &Instance, threads: usize) -> Self {
        let n = inst.n_tasks();
        let mut edges = enumerate_positive_edges(n, threads, |u, v| inst.diversity(u, v));
        hta_par::sort_unstable_by_parallel(&mut edges, threads, edge_order);
        let fingerprint = keywords_fingerprint(inst.tasks().iter().map(|t| &t.keywords));
        Self {
            n,
            edges,
            fingerprint,
        }
    }

    /// Number of tasks the cache was built over.
    pub fn n_tasks(&self) -> usize {
        self.n
    }

    /// Fingerprint of the catalog the cache was built from.
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// Whether the cache is valid for a catalog whose task keywords are
    /// `keywords` (in catalog order). Callers holding a cache of uncertain
    /// provenance — e.g. one restored alongside a snapshot, or kept across
    /// a catalog swap — should check this and fall back to fresh edge
    /// enumeration on mismatch instead of trusting a stale edge list.
    pub fn valid_for<'a, I>(&self, keywords: I) -> bool
    where
        I: IntoIterator<Item = &'a KeywordVec>,
    {
        self.fingerprint == keywords_fingerprint(keywords)
    }

    /// The full sorted edge list (global task indices).
    pub fn edges(&self) -> &[WeightedEdge] {
        &self.edges
    }

    /// Filter the sorted list down to the open subset `open` (strictly
    /// increasing global indices), remapping endpoints to positions within
    /// `open`. The result is sorted by [`edge_order`] in the local ids —
    /// exactly what enumerating and sorting the sub-instance would produce —
    /// and is suitable for `greedy_matching_presorted`.
    ///
    /// # Panics
    /// Debug builds panic when `open` is not strictly increasing or contains
    /// out-of-range indices; release builds produce garbage in that case.
    pub fn filter_sorted(&self, open: &[u32]) -> Vec<WeightedEdge> {
        debug_assert!(
            open.windows(2).all(|w| w[0] < w[1]),
            "filter_sorted requires strictly increasing global indices"
        );
        debug_assert!(open.last().is_none_or(|&g| (g as usize) < self.n));
        const ABSENT: u32 = u32::MAX;
        let mut local = vec![ABSENT; self.n];
        for (i, &g) in open.iter().enumerate() {
            local[g as usize] = i as u32;
        }
        let mut out = Vec::with_capacity(initial_edge_reserve(
            open.len().saturating_sub(1) * open.len() / 2,
        ));
        for e in &self.edges {
            let lu = local[e.u as usize];
            let lv = local[e.v as usize];
            if lu != ABSENT && lv != ABSENT {
                out.push(WeightedEdge::new(lu, lv, e.weight));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bitvec::KeywordVec;
    use crate::metric::Jaccard;
    use crate::task::{GroupId, TaskId};

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

    #[test]
    fn enumeration_is_thread_invariant() {
        let tasks = catalog(50);
        let weight = |u: usize, v: usize| Jaccard.dist(&tasks[u].keywords, &tasks[v].keywords);
        let seq = enumerate_positive_edges(50, 1, weight);
        for threads in [2usize, 3, 7, 16] {
            let par = enumerate_positive_edges(50, threads, weight);
            assert_eq!(par, seq, "threads={threads}");
        }
    }

    #[test]
    fn packed_enumeration_is_byte_identical_to_closure_enumeration() {
        let tasks = catalog(60);
        let weight = |u: usize, v: usize| Jaccard.dist(&tasks[u].keywords, &tasks[v].keywords);
        let reference = enumerate_positive_edges(60, 1, weight);
        let cat = kernels::PackedCatalog::from_vecs(24, tasks.iter().map(|t| &t.keywords));
        for threads in [1usize, 2, 3, 7] {
            let packed = enumerate_positive_edges_packed(&cat, threads);
            assert_eq!(packed, reference, "threads={threads}");
        }
        // The cache builder takes the packed fast path for Jaccard; it must
        // sort to the same list as a scalar-closure build.
        let built = DiversityEdgeCache::build(&tasks, &Jaccard, 2);
        let mut sorted = reference;
        hta_par::sort_unstable_by_parallel(&mut sorted, 1, edge_order);
        assert_eq!(built.edges(), sorted);
    }

    #[test]
    fn sparse_enumeration_does_not_preallocate_the_dense_worst_case() {
        // 600 tasks -> 179_700 candidate pairs, but only a handful have
        // positive weight. The reservation must stay at the cap instead of
        // sizing for the dense worst case.
        let n = 600;
        let edges = enumerate_positive_edges(n, 1, |u, v| if u == 0 && v < 4 { 1.0 } else { 0.0 });
        assert_eq!(edges.len(), 3);
        assert!(
            edges.capacity() <= MAX_EDGE_RESERVE,
            "capacity {} exceeds the reservation cap",
            edges.capacity()
        );
        assert!(n.saturating_sub(1) * n / 2 > MAX_EDGE_RESERVE);
    }

    #[test]
    fn filter_sorted_matches_fresh_enumeration() {
        let tasks = catalog(40);
        let cache = DiversityEdgeCache::build(&tasks, &Jaccard, 2);
        // Open subset: every third task — strictly increasing by construction.
        let open: Vec<u32> = (0..40u32).filter(|g| g % 3 != 1).collect();
        let filtered = cache.filter_sorted(&open);

        // Fresh enumeration over the sub-catalog, sorted the same way.
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
    fn fingerprint_detects_catalog_changes() {
        let tasks = catalog(20);
        let cache = DiversityEdgeCache::build(&tasks, &Jaccard, 1);
        assert!(cache.valid_for(tasks.iter().map(|t| &t.keywords)));
        assert_eq!(
            cache.fingerprint(),
            keywords_fingerprint(tasks.iter().map(|t| &t.keywords))
        );

        // One keyword bit flipped → invalid.
        let mut changed = tasks.clone();
        changed[7].keywords.set(11);
        assert!(!cache.valid_for(changed.iter().map(|t| &t.keywords)));

        // Fewer tasks → invalid.
        assert!(!cache.valid_for(tasks[..19].iter().map(|t| &t.keywords)));

        // Same tasks, different order → invalid (edge endpoints are
        // positional, so order matters).
        let mut swapped = tasks.clone();
        swapped.swap(0, 1);
        assert!(!cache.valid_for(swapped.iter().map(|t| &t.keywords)));

        // A same-bits vector over a wider universe → invalid.
        let widened: Vec<KeywordVec> = tasks
            .iter()
            .map(|t| KeywordVec::from_indices(64, &t.keywords.iter_ones().collect::<Vec<_>>()))
            .collect();
        assert!(!cache.valid_for(widened.iter()));
    }

    #[test]
    fn edge_cache_cap_resolution_order() {
        // Explicit request wins outright (env-independent).
        assert_eq!(edge_cache_cap(123), 123);
        // Auto falls back to the env var or the built-in default. The env
        // var may be set by the test harness, so just pin the invariant.
        let auto = edge_cache_cap(0);
        match std::env::var("HTA_EDGE_CACHE_CAP")
            .ok()
            .and_then(|v| v.parse::<usize>().ok())
            .filter(|&v| v > 0)
        {
            Some(v) => assert_eq!(auto, v),
            None => assert_eq!(auto, DEFAULT_EDGE_CACHE_TASKS),
        }
    }

    #[test]
    fn filter_sorted_handles_empty_and_full_subsets() {
        let tasks = catalog(12);
        let cache = DiversityEdgeCache::build(&tasks, &Jaccard, 1);
        assert!(cache.filter_sorted(&[]).is_empty());
        let all: Vec<u32> = (0..12).collect();
        assert_eq!(cache.filter_sorted(&all), cache.edges());
        assert_eq!(cache.n_tasks(), 12);
    }
}

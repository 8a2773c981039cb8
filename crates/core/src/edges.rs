//! Reusable, pre-sorted diversity edge lists.
//!
//! Enumerating and sorting the positive-weight diversity pairs is the
//! `O(|T|²)` prefix of every QAP-pipeline solve (the sort is a linear-time
//! placement by weight, [`sorted_positive_edges`]). In the iterative
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

use std::mem::MaybeUninit;
use std::ops::Range;

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
/// diversity edge list. A dense 4096-task catalog holds at most 8.4M edges
/// of 16 bytes; the 4k CrowdFlower catalog's 7.6M edges are 122 MB, and
/// building them peaks at 123 MB RSS for the whole process (the placement
/// keeps no second buffer). Paper-scale 10k catalogs would hold six times
/// as many.
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

/// A catalog's positive-weight pairs `(u, v)`, `u < v < n`, scanned row by
/// row: each row's edges come out in ascending `v`, so scanning rows in
/// order yields ascending `(u, v)` — [`edge_order`]'s tie-break.
pub(crate) trait PairScan: Sync {
    /// Number of tasks.
    fn n(&self) -> usize;

    /// Emit the positive-weight edges of `rows` in ascending `(u, v)`,
    /// stopping early once `emit` returns `false`.
    fn scan(&self, rows: Range<usize>, emit: impl FnMut(WeightedEdge) -> bool);
}

/// Pair weights from a closure `weight(u, v)` over `n` tasks.
pub(crate) struct ByClosure<F> {
    pub n: usize,
    pub weight: F,
}

impl<F: Fn(usize, usize) -> f64 + Sync> PairScan for ByClosure<F> {
    fn n(&self) -> usize {
        self.n
    }

    fn scan(&self, rows: Range<usize>, mut emit: impl FnMut(WeightedEdge) -> bool) {
        for u in rows {
            for v in (u + 1)..self.n {
                let w = (self.weight)(u, v);
                if w > 0.0 && !emit(WeightedEdge::new(u as u32, v as u32, w)) {
                    return;
                }
            }
        }
    }
}

/// Pair weights of a [`kernels::PackedCatalog`]: each row's distances come
/// from one batched [`kernels::pairwise_distance_block`] call instead of
/// per-pair `Distance::dist` invocations. Distances are bit-identical
/// (exact integer popcounts before the shared f64 division), so the scan
/// is byte-identical to a [`ByClosure`] scan under Jaccard.
impl PairScan for kernels::PackedCatalog {
    fn n(&self) -> usize {
        self.len()
    }

    fn scan(&self, rows: Range<usize>, mut emit: impl FnMut(WeightedEdge) -> bool) {
        let n = self.len();
        // One scratch row reused across the range (longest row first).
        let mut row = vec![0.0f64; n.saturating_sub(rows.start + 1)];
        for u in rows {
            let row = &mut row[..n - 1 - u];
            kernels::pairwise_distance_block(self, u, row);
            for (off, &w) in row.iter().enumerate() {
                if w > 0.0 && !emit(WeightedEdge::new(u as u32, (u + 1 + off) as u32, w)) {
                    return;
                }
            }
        }
    }
}

/// Contiguous row ranges balanced by pair count (row `u` holds `n − 1 − u`
/// pairs), one per thread worth running under `hta_par`'s grain rule.
fn pair_ranges(n: usize, threads: usize) -> Vec<Range<usize>> {
    hta_par::row_ranges(n, threads, |u| n - 1 - u)
}

/// Every positive-weight edge of `pairs` in ascending `(u, v)` order, with
/// rows split over up to `threads` threads and the chunks concatenated in
/// range order — byte-identical to one sequential scan at any thread count.
pub(crate) fn enumerate_positive_edges(pairs: &impl PairScan, threads: usize) -> Vec<WeightedEdge> {
    let n = pairs.n();
    let mut chunks = hta_par::run_parts(pair_ranges(n, threads), |rows| {
        let count: usize = rows.clone().map(|u| n - 1 - u).sum();
        let mut edges = Vec::with_capacity(initial_edge_reserve(count));
        pairs.scan(rows, |e| {
            edges.push(e);
            true
        });
        edges
    });
    if chunks.len() == 1 {
        return chunks.pop().expect("one chunk");
    }
    chunks.into_iter().flatten().collect()
}

/// Most distinct weights [`sorted_positive_edges`] places by bucket; past
/// it (a custom [`Distance`] with near-continuous weights) the build falls
/// back to enumerate + comparison sort.
const MAX_WEIGHT_BUCKETS: usize = 1 << 14;

/// An open-addressed map from a positive weight's bits to a `usize`,
/// growing by doubling up to [`MAX_WEIGHT_BUCKETS`] keys. Key `0` (the bits
/// of `+0.0`, never a positive weight) marks an empty slot.
struct WeightTable {
    keys: Vec<u64>,
    vals: Vec<usize>,
    len: usize,
    /// The last key looked up and its slot: weights repeat in runs.
    last: (u64, usize),
}

impl WeightTable {
    fn new() -> Self {
        Self {
            keys: vec![0; 16],
            vals: vec![0; 16],
            len: 0,
            last: (0, 0),
        }
    }

    #[inline]
    fn home(&self, key: u64) -> usize {
        let bits = self.keys.len().trailing_zeros();
        (key.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> (64 - bits)) as usize
    }

    /// The slot holding `key`, or the empty slot where it would go.
    #[inline]
    fn slot(&self, key: u64) -> usize {
        let mask = self.keys.len() - 1;
        let mut i = self.home(key);
        while self.keys[i] != key && self.keys[i] != 0 {
            i = (i + 1) & mask;
        }
        i
    }

    /// The value slot of `key`, inserted at `0` if absent; `None` once the
    /// table would exceed [`MAX_WEIGHT_BUCKETS`] keys.
    #[inline]
    fn entry(&mut self, key: u64) -> Option<&mut usize> {
        if self.last.0 != key {
            let mut i = self.slot(key);
            if self.keys[i] == 0 {
                if self.len == MAX_WEIGHT_BUCKETS {
                    return None;
                }
                if 2 * (self.len + 1) > self.keys.len() {
                    self.grow();
                    i = self.slot(key);
                }
                self.keys[i] = key;
                self.len += 1;
            }
            self.last = (key, i);
        }
        Some(&mut self.vals[self.last.1])
    }

    /// The value of `key`, `0` when absent.
    #[inline]
    fn get(&self, key: u64) -> usize {
        let i = self.slot(key);
        if self.keys[i] == key {
            self.vals[i]
        } else {
            0
        }
    }

    fn grow(&mut self) {
        let size = 2 * self.keys.len();
        let grown = Self {
            keys: vec![0; size],
            vals: vec![0; size],
            len: self.len,
            last: (0, 0),
        };
        let old = std::mem::replace(self, grown);
        for (&k, &v) in old.keys.iter().zip(&old.vals) {
            if k != 0 {
                let i = self.slot(k);
                self.keys[i] = k;
                self.vals[i] = v;
            }
        }
    }

    fn iter(&self) -> impl Iterator<Item = (u64, usize)> + '_ {
        self.keys
            .iter()
            .zip(&self.vals)
            .filter(|(&k, _)| k != 0)
            .map(|(&k, &v)| (k, v))
    }
}

/// Every positive-weight edge of `pairs`, sorted by [`edge_order`] in time
/// linear in the pair count.
///
/// A scan already yields ascending `(u, v)`, which is `edge_order`'s
/// tie-break, so a *stable* placement by weight alone gives exactly
/// `edge_order`: count the edges of each distinct weight (first pass), order
/// the distinct weights descending, then scan again and write each edge to
/// the next slot of its weight's bucket (second pass). Both passes split
/// rows over up to `threads` threads; each range writes its own contiguous
/// run inside every bucket, so the output is byte-identical at any thread
/// count and the only full-size buffer is the exactly-sized result. Past
/// [`MAX_WEIGHT_BUCKETS`] distinct weights in any range the first pass
/// stops early and the edges are enumerated and comparison-sorted instead.
pub(crate) fn sorted_positive_edges(pairs: &impl PairScan, threads: usize) -> Vec<WeightedEdge> {
    let ranges = pair_ranges(pairs.n(), threads);
    let histograms: Option<Vec<WeightTable>> = hta_par::run_parts(ranges.clone(), |rows| {
        let mut counts = WeightTable::new();
        let mut fits = true;
        pairs.scan(rows, |e| match counts.entry(e.weight.to_bits()) {
            Some(c) => {
                *c += 1;
                true
            }
            None => {
                fits = false;
                false
            }
        });
        fits.then_some(counts)
    })
    .into_iter()
    .collect();
    // Buckets: the distinct weights, descending.
    let buckets = histograms
        .map(|histograms| {
            let mut weights: Vec<u64> = histograms
                .iter()
                .flat_map(|h| h.iter().map(|(w, _)| w))
                .collect();
            weights.sort_unstable_by(|a, b| f64::from_bits(*b).total_cmp(&f64::from_bits(*a)));
            weights.dedup();
            (histograms, weights)
        })
        .filter(|(_, weights)| weights.len() <= MAX_WEIGHT_BUCKETS);
    let Some((histograms, weights)) = buckets else {
        let mut edges = enumerate_positive_edges(pairs, threads);
        hta_par::sort_unstable_by_parallel(&mut edges, threads, edge_order);
        return edges;
    };
    let mut bucket_of = WeightTable::new();
    for (b, &w) in weights.iter().enumerate() {
        *bucket_of
            .entry(w)
            .expect("at most MAX_WEIGHT_BUCKETS weights") = b;
    }

    // Carve the result bucket by bucket, and within a bucket range by
    // range, so each range gets one contiguous run per bucket.
    let total: usize = histograms
        .iter()
        .flat_map(|h| h.iter().map(|(_, c)| c))
        .sum();
    // The slots are written once each by the second pass, so they start
    // uninitialized: zero-filling 122 MB first cost a third of the 4k
    // CrowdFlower build.
    let mut out: Vec<WeightedEdge> = Vec::with_capacity(total);
    let mut runs: Vec<Vec<&mut [MaybeUninit<WeightedEdge>]>> =
        ranges.iter().map(|_| Vec::new()).collect();
    let mut rest = &mut out.spare_capacity_mut()[..total];
    for &w in &weights {
        for (h, range_runs) in histograms.iter().zip(runs.iter_mut()) {
            let (head, tail) = std::mem::take(&mut rest).split_at_mut(h.get(w));
            range_runs.push(head);
            rest = tail;
        }
    }
    let filled = hta_par::run_parts(
        ranges.into_iter().zip(runs).collect(),
        |(rows, mut runs)| {
            let mut next = vec![0usize; runs.len()];
            let mut last = (0u64, 0usize);
            pairs.scan(rows, |e| {
                let bits = e.weight.to_bits();
                if bits != last.0 {
                    last = (bits, bucket_of.get(bits));
                }
                let b = last.1;
                runs[b][next[b]].write(e);
                next[b] += 1;
                true
            });
            runs.iter().zip(&next).all(|(run, &n)| run.len() == n)
        },
    );
    assert!(
        filled.into_iter().all(|f| f),
        "the placement pass emitted fewer edges than the counting pass"
    );
    // SAFETY: the runs partition the first `total` spare slots of `out`,
    // every write above went through a run (an extra edge would have
    // panicked on the run's bounds), and the assert checked that each run
    // was written in full — so all `total` elements are initialized.
    unsafe { out.set_len(total) };
    out
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
    /// The positive-diversity pairs of `tasks` under `distance`, in
    /// [`edge_order`], built on up to `threads` threads
    /// ([`sorted_positive_edges`]).
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
        let edges = if distance.supports_popcount_kernels() && n > 1 {
            let cat =
                kernels::PackedCatalog::from_vecs(keywords[0].nbits(), keywords.iter().copied());
            sorted_positive_edges(&cat, threads)
        } else {
            let weight = |u: usize, v: usize| distance.dist(keywords[u], keywords[v]);
            sorted_positive_edges(&ByClosure { n, weight }, threads)
        };
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
        let weight = |u: usize, v: usize| inst.diversity(u, v);
        let edges = sorted_positive_edges(&ByClosure { n, weight }, threads);
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
        let seq = enumerate_positive_edges(&ByClosure { n: 50, weight }, 1);
        for threads in [2usize, 3, 7, 16] {
            let par = enumerate_positive_edges(&ByClosure { n: 50, weight }, threads);
            assert_eq!(par, seq, "threads={threads}");
        }
    }

    #[test]
    fn packed_enumeration_is_byte_identical_to_closure_enumeration() {
        let tasks = catalog(60);
        let weight = |u: usize, v: usize| Jaccard.dist(&tasks[u].keywords, &tasks[v].keywords);
        let reference = enumerate_positive_edges(&ByClosure { n: 60, weight }, 1);
        let cat = kernels::PackedCatalog::from_vecs(24, tasks.iter().map(|t| &t.keywords));
        for threads in [1usize, 2, 3, 7] {
            let packed = enumerate_positive_edges(&cat, threads);
            assert_eq!(packed, reference, "threads={threads}");
        }
        // The cache builder takes the packed fast path for Jaccard; it must
        // sort to the same list as a scalar-closure build.
        let built = DiversityEdgeCache::build(&tasks, &Jaccard, 2);
        let mut sorted = reference;
        sorted.sort_unstable_by(edge_order);
        assert_eq!(built.edges(), sorted);
    }

    /// Above the grain, both scans really split rows over threads, and the
    /// placement and the enumeration stay byte-identical at 1, 2 and 7.
    #[test]
    fn above_grain_scans_are_thread_invariant() {
        let n = 1_100;
        assert!(n * (n - 1) / 2 >= 2 * hta_par::GRAIN);
        assert!(pair_ranges(n, 7).len() >= 2);
        let tasks = catalog(n);
        let cat = kernels::PackedCatalog::from_vecs(24, tasks.iter().map(|t| &t.keywords));
        let mut expect = enumerate_positive_edges(&cat, 1);
        for threads in [2usize, 7] {
            assert_eq!(
                enumerate_positive_edges(&cat, threads),
                expect,
                "threads={threads}"
            );
        }
        expect.sort_unstable_by(edge_order);
        for threads in [1usize, 2, 7] {
            assert_eq!(
                sorted_positive_edges(&cat, threads),
                expect,
                "threads={threads}"
            );
        }
    }

    #[test]
    fn placement_falls_back_past_the_bucket_cap_and_stays_exact() {
        // Every weight distinct: more buckets than the cap, so the first
        // pass stops early and the edges are comparison-sorted.
        let n = 200;
        assert!(n * (n - 1) / 2 > MAX_WEIGHT_BUCKETS);
        let weight = |u: usize, v: usize| 1.0 + ((u * 7919 + v * 104_729) % 1_000_003) as f64;
        let mut expect = enumerate_positive_edges(&ByClosure { n, weight }, 1);
        expect.sort_unstable_by(edge_order);
        for threads in [1usize, 2, 7] {
            let got = sorted_positive_edges(&ByClosure { n, weight }, threads);
            assert_eq!(got, expect, "threads={threads}");
        }
    }

    /// A scan whose second pass emits fewer edges than its first leaves
    /// slots unwritten; the build must panic instead of returning them.
    #[test]
    #[should_panic(expected = "fewer edges than the counting pass")]
    fn placement_rejects_a_scan_that_changes_between_passes() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let calls = AtomicUsize::new(0);
        let weight = |u: usize, v: usize| {
            let pass = calls.fetch_add(1, Ordering::SeqCst) / 45;
            if pass > 0 && (u, v) == (0, 1) {
                0.0
            } else {
                1.0 + (u % 2) as f64
            }
        };
        sorted_positive_edges(&ByClosure { n: 10, weight }, 1);
    }

    #[test]
    fn weight_table_counts_and_grows() {
        let mut t = WeightTable::new();
        for i in 0..1000u64 {
            for _ in 0..=(i % 3) {
                *t.entry((1.0 + i as f64).to_bits()).unwrap() += 1;
            }
        }
        assert_eq!(t.iter().count(), 1000);
        for i in 0..1000u64 {
            assert_eq!(t.get((1.0 + i as f64).to_bits()), (i % 3 + 1) as usize);
        }
        assert_eq!(t.get(0.5f64.to_bits()), 0);
        let mut full = WeightTable::new();
        for i in 0..MAX_WEIGHT_BUCKETS {
            assert!(full.entry((1.0 + i as f64).to_bits()).is_some());
        }
        assert!(full.entry(0.25f64.to_bits()).is_none());
        assert!(
            full.entry(1.0f64.to_bits()).is_some(),
            "present keys stay reachable"
        );
    }

    #[test]
    fn sparse_enumeration_does_not_preallocate_the_dense_worst_case() {
        // 600 tasks -> 179_700 candidate pairs, but only a handful have
        // positive weight. The reservation must stay at the cap instead of
        // sizing for the dense worst case.
        let n = 600;
        let weight = |u: usize, v: usize| if u == 0 && v < 4 { 1.0 } else { 0.0 };
        let edges = enumerate_positive_edges(&ByClosure { n, weight }, 1);
        assert_eq!(edges.len(), 3);
        assert!(
            edges.capacity() <= MAX_EDGE_RESERVE,
            "capacity {} exceeds the reservation cap",
            edges.capacity()
        );
        assert!(n.saturating_sub(1) * n / 2 > MAX_EDGE_RESERVE);
        // The placement sizes its result exactly.
        let sorted = sorted_positive_edges(&ByClosure { n, weight }, 1);
        assert_eq!(sorted.capacity(), 3);
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

//! The keyword-range sharded inverted index.
//!
//! [`ShardedIndex`] partitions the keyword universe into contiguous ranges
//! and gives each range its own posting lists and back-references. Every
//! `(task, keyword)` membership lives in exactly one shard, so:
//!
//! * **bulk build is fully parallel with no merge phase** — shards are
//!   grouped one scoped thread per available core, and each thread scans
//!   the task slice *once* over its group's combined keyword range
//!   ([`hta_core::KeywordVec::iter_ones_in`] skips whole 64-bit blocks
//!   outside the range), routing each set bit to its owning shard. Every
//!   shard's postings *and* back-refs are built end-to-end by one thread,
//!   where the unsharded [`InvertedIndex`] build needs a sequential
//!   posting merge plus a full back-reference rebuild — and total scan
//!   work stays proportional to the core count, not the shard count, so
//!   oversharding (or a single-core box) never multiplies build cost;
//! * **insert/remove route per shard** — each shard removes its own slice
//!   of the task's memberships, preserving the `O(|kw(t)|)` amortized cost;
//! * **top-k fans out per shard** — each shard accumulates exact overlap
//!   counts for the worker terms it owns, and the merged accumulators give
//!   exact Jaccard scores. There is no cross-shard pruning heuristic to
//!   reconcile, so the output (scores *and* the documented ascending-id
//!   tie order) is identical to [`InvertedIndex::top_k`] by construction —
//!   property-tested across shard counts in `tests/proptests.rs`.

use std::collections::HashMap;

use hta_core::kernels::{intersection_counts_many, PackedCatalog};
use hta_core::state::{StateDecodeError, StateReader, StateSerialize};
use hta_core::KeywordVec;

use crate::inverted::{dedup_first_occurrences, InvertedIndex, PostingRef, ABSENT};

/// Below this many candidate postings a query accumulates sequentially:
/// scoped-thread spawns cost tens of microseconds, which dominates small
/// result sets.
const PARALLEL_QUERY_CUTOFF: usize = 1 << 13;

/// At or above this many candidate postings — when they also exceed the
/// task-id space — a query skips posting accumulation entirely and exact-
/// rescores every row of the packed keyword mirror with the batched
/// popcount kernels: streaming `rows · stride` SIMD blocks beats that many
/// hash-map updates, and the scores come from the same exact integer
/// counts, so the output is identical either way.
const DENSE_RESCORE_CUTOFF: usize = 1 << 13;

/// Below this many tasks a bulk build stays on the calling thread.
const PARALLEL_BUILD_CUTOFF: usize = 1024;

/// The number of shards to use when the caller asks for "auto": the
/// `HTA_INDEX_SHARDS` environment variable when set to a positive integer
/// (the CI matrix uses this to pin shard counts), otherwise the process'
/// default thread budget.
pub fn default_shards() -> usize {
    std::env::var("HTA_INDEX_SHARDS")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .filter(|&n| n >= 1)
        .unwrap_or_else(hta_par::default_threads)
}

/// One contiguous keyword range `[lo, lo + postings.len())` with its own
/// posting lists and back-references — structurally a slice of
/// [`InvertedIndex`] restricted to the range.
#[derive(Debug, Clone, Default)]
struct Shard {
    /// First keyword id this shard owns.
    lo: u32,
    /// `postings[kw - lo]` = open tasks whose vector sets `kw` (unordered).
    postings: Vec<Vec<u32>>,
    /// Per-task back-references into this shard's posting lists; the
    /// `keyword` field holds *global* keyword ids.
    entries: Vec<Vec<PostingRef>>,
}

impl Shard {
    fn new(lo: u32, hi: u32) -> Self {
        Self {
            lo,
            postings: vec![Vec::new(); (hi - lo) as usize],
            entries: Vec::new(),
        }
    }

    /// One past the last keyword id this shard owns.
    fn hi(&self) -> u32 {
        self.lo + self.postings.len() as u32
    }

    fn reserve_task(&mut self, task: u32) {
        let needed = task as usize + 1;
        if self.entries.len() < needed {
            self.entries.resize_with(needed, Vec::new);
        }
    }

    /// Record that `task` sets `keyword` (which this shard owns). The
    /// caller ensures the membership is not already present.
    fn push_membership(&mut self, task: u32, keyword: u32) {
        self.reserve_task(task);
        let list = &mut self.postings[(keyword - self.lo) as usize];
        self.entries[task as usize].push(PostingRef {
            keyword,
            position: list.len() as u32,
        });
        list.push(task);
    }

    /// Add this shard's slice of `keywords` for `task`. The caller ensures
    /// the task is not already present.
    fn insert(&mut self, task: u32, keywords: &KeywordVec) {
        for bit in keywords.iter_ones_in(self.lo as usize, self.hi() as usize) {
            self.push_membership(task, bit as u32);
        }
    }

    /// Drop this shard's memberships of `task` (no-op if it has none).
    fn remove(&mut self, task: u32) {
        if task as usize >= self.entries.len() {
            return;
        }
        let refs = std::mem::take(&mut self.entries[task as usize]);
        for r in refs {
            let list = &mut self.postings[(r.keyword - self.lo) as usize];
            let pos = r.position as usize;
            debug_assert_eq!(list[pos], task);
            list.swap_remove(pos);
            if pos < list.len() {
                let moved = list[pos];
                let entry = self.entries[moved as usize]
                    .iter_mut()
                    .find(|e| e.keyword == r.keyword)
                    .expect("posting member has a back-reference");
                entry.position = r.position;
            }
        }
    }

    /// Number of `(task, keyword)` memberships held by this shard.
    fn memberships(&self) -> usize {
        self.postings.iter().map(Vec::len).sum()
    }

    /// Accumulate overlap counts for `terms` (global keyword ids owned by
    /// this shard) into `acc`.
    fn accumulate(&self, terms: &[u32], acc: &mut HashMap<u32, u32>) {
        for &term in terms {
            for &task in &self.postings[(term - self.lo) as usize] {
                *acc.entry(task).or_insert(0) += 1;
            }
        }
    }
}

/// An inverted index partitioned into contiguous keyword-range shards.
///
/// Drop-in equivalent of [`InvertedIndex`] — same incremental maintenance
/// contract, same exact top-k output — but bulk builds and retrieval fan
/// out one scoped thread per shard, which is what lets multi-million-task
/// catalogs use every core instead of serializing on a single structure's
/// merge phase.
#[derive(Debug, Clone, Default)]
pub struct ShardedIndex {
    shards: Vec<Shard>,
    /// Per-task keyword count, `ABSENT` when the task is not indexed
    /// (global — Jaccard needs the full `|kw(t)|`, not a shard's slice).
    doc_len: Vec<u32>,
    /// Number of open tasks currently indexed.
    docs: usize,
    /// Width of the keyword universe.
    nbits: usize,
    /// Packed keyword mirror, rows addressed by task id (absent rows are
    /// zero). Derivable from the postings — it is rebuilt on snapshot read
    /// and never serialized — and serves the dense exact-rescore query
    /// path ([`DENSE_RESCORE_CUTOFF`]).
    packed: PackedCatalog,
}

impl ShardedIndex {
    /// An empty index over a universe of `nbits` keywords split into (at
    /// most) `shards` contiguous ranges. Shard counts are clamped to the
    /// universe width; `0` means auto ([`default_shards`]).
    pub fn new(nbits: usize, shards: usize) -> Self {
        let shards = if shards == 0 {
            default_shards()
        } else {
            shards
        };
        let shards = shards.clamp(1, nbits.max(1));
        // Evenly sized bit ranges; the first `nbits % shards` ranges take
        // the remainder. Ranges stay meaningful even for narrow universes
        // (important for equivalence tests at small nbits).
        let base = nbits / shards;
        let rem = nbits % shards;
        let mut built = Vec::with_capacity(shards);
        let mut lo = 0u32;
        for s in 0..shards {
            let width = (base + usize::from(s < rem)) as u32;
            built.push(Shard::new(lo, lo + width));
            lo += width;
        }
        debug_assert_eq!(lo as usize, nbits);
        Self {
            shards: built,
            doc_len: Vec::new(),
            docs: 0,
            nbits,
            packed: PackedCatalog::new(nbits),
        }
    }

    /// Bulk-build from `(task id, keyword vector)` pairs, one scoped thread
    /// per shard. Every shard owns its keyword range end-to-end (postings
    /// *and* back-references), so there is no sequential merge phase at
    /// all. Duplicate task ids are skipped with [`ShardedIndex::insert`]'s
    /// no-op semantics (first occurrence wins); use
    /// [`ShardedIndex::build_counting`] to observe the skipped count.
    pub fn build(nbits: usize, tasks: &[(u32, &KeywordVec)], shards: usize) -> Self {
        Self::build_counting(nbits, tasks, shards).0
    }

    /// [`ShardedIndex::build`], also returning the number of duplicate-id
    /// pairs that were skipped.
    pub fn build_counting(
        nbits: usize,
        tasks: &[(u32, &KeywordVec)],
        shards: usize,
    ) -> (Self, usize) {
        Self::build_counting_with_threads(nbits, tasks, shards, hta_par::default_threads())
    }

    /// [`ShardedIndex::build_counting`] with an explicit build-thread
    /// budget (tests force the scoped-thread path on single-core boxes).
    pub(crate) fn build_counting_with_threads(
        nbits: usize,
        tasks: &[(u32, &KeywordVec)],
        shards: usize,
        threads: usize,
    ) -> (Self, usize) {
        let firsts = dedup_first_occurrences(tasks);
        let skipped = tasks.len() - firsts.as_ref().map_or(tasks.len(), Vec::len);
        let tasks: &[(u32, &KeywordVec)] = firsts.as_deref().unwrap_or(tasks);

        let mut index = Self::new(nbits, shards);
        // One scoped thread per available core, each owning a contiguous
        // *group* of shards: the thread scans the tasks once over the
        // group's combined range and routes bits to their shard, so total
        // scan work is `O(threads · |tasks|)` block visits, not
        // `O(shards · |tasks|)` — oversharding a small machine (or this
        // box's single core) costs routing, not extra passes.
        let threads = threads.clamp(1, index.shards.len());
        if threads > 1 && tasks.len() >= PARALLEL_BUILD_CUTOFF {
            let per_group = index.shards.len().div_ceil(threads);
            std::thread::scope(|scope| {
                for group in index.shards.chunks_mut(per_group) {
                    scope.spawn(move || build_shard_group(group, tasks));
                }
            });
        } else {
            build_shard_group(&mut index.shards, tasks);
        }
        // Global lengths: one popcount pass, no posting traffic. The packed
        // mirror fills in the same pass.
        for &(id, kw) in tasks {
            debug_assert!(kw.nbits() <= nbits, "vector wider than the universe");
            index.reserve_task(id);
            index.doc_len[id as usize] = kw.count_ones() as u32;
            index.packed.set_row(id as usize, kw);
            index.docs += 1;
        }
        index.packed.ensure_rows(index.doc_len.len());
        (index, skipped)
    }

    /// Width of the keyword universe.
    pub fn nbits(&self) -> usize {
        self.nbits
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Per-shard `(task, keyword)` membership counts, in keyword-range
    /// order — the load-balance view `/stats` reports.
    pub fn shard_sizes(&self) -> Vec<usize> {
        self.shards.iter().map(Shard::memberships).collect()
    }

    /// Per-shard keyword ranges `[lo, hi)`, in order.
    pub fn shard_ranges(&self) -> Vec<(u32, u32)> {
        self.shards.iter().map(|s| (s.lo, s.hi())).collect()
    }

    /// Grow the keyword universe to `nbits`. New keywords extend the last
    /// shard's range (interning appends ids, so ranges stay contiguous).
    pub fn widen(&mut self, nbits: usize) {
        if nbits > self.nbits {
            let last = self.shards.last_mut().expect("at least one shard");
            let lo = last.lo as usize;
            last.postings.resize(nbits - lo, Vec::new());
            self.packed.widen(nbits);
            self.nbits = nbits;
        }
    }

    /// Number of open tasks in the index.
    pub fn len(&self) -> usize {
        self.docs
    }

    /// Whether the index holds no open task.
    pub fn is_empty(&self) -> bool {
        self.docs == 0
    }

    /// Whether `task` is currently indexed.
    pub fn contains(&self, task: u32) -> bool {
        (task as usize) < self.doc_len.len() && self.doc_len[task as usize] != ABSENT
    }

    /// Document frequency of `keyword`: number of open tasks setting it.
    pub fn df(&self, keyword: u32) -> usize {
        self.shard_of(keyword)
            .map_or(0, |s| s.postings[(keyword - s.lo) as usize].len())
    }

    /// The posting list of `keyword` (unordered).
    pub fn postings(&self, keyword: u32) -> &[u32] {
        self.shard_of(keyword)
            .map_or(&[], |s| s.postings[(keyword - s.lo) as usize].as_slice())
    }

    /// Keyword count of an indexed task (`None` if absent).
    pub fn keyword_count(&self, task: u32) -> Option<usize> {
        match self.doc_len.get(task as usize) {
            Some(&len) if len != ABSENT => Some(len as usize),
            _ => None,
        }
    }

    /// Keyword ids of an indexed task, ascending (`&[]` if absent) —
    /// shards hold ascending ranges and per-shard back-refs are kept in
    /// ascending keyword order, so chaining shard slices needs no sort.
    pub fn keywords_of(&self, task: u32) -> impl Iterator<Item = u32> + '_ {
        self.shards.iter().flat_map(move |s| {
            s.entries
                .get(task as usize)
                .map_or(&[][..], |refs| refs.as_slice())
                .iter()
                .map(|r| r.keyword)
        })
    }

    /// Iterate over the open task ids (ascending).
    pub fn open_tasks(&self) -> impl Iterator<Item = u32> + '_ {
        self.doc_len
            .iter()
            .enumerate()
            .filter(|(_, &len)| len != ABSENT)
            .map(|(id, _)| id as u32)
    }

    /// The shard owning `keyword`, if in range.
    fn shard_of(&self, keyword: u32) -> Option<&Shard> {
        let i = self.shards.partition_point(|s| s.hi() <= keyword);
        self.shards.get(i).filter(|s| s.lo <= keyword)
    }

    fn reserve_task(&mut self, task: u32) {
        let needed = task as usize + 1;
        if self.doc_len.len() < needed {
            self.doc_len.resize(needed, ABSENT);
        }
    }

    /// Index an open task, routing each keyword membership to its owning
    /// shard. Returns `false` (and changes nothing) when already present.
    ///
    /// # Panics
    /// Panics if the vector is wider than the index universe (widen first).
    pub fn insert(&mut self, task: u32, keywords: &KeywordVec) -> bool {
        assert!(
            keywords.nbits() <= self.nbits,
            "keyword vector wider ({}) than the index universe ({})",
            keywords.nbits(),
            self.nbits
        );
        if self.contains(task) {
            return false;
        }
        self.reserve_task(task);
        for shard in &mut self.shards {
            shard.insert(task, keywords);
        }
        self.doc_len[task as usize] = keywords.count_ones() as u32;
        self.packed.set_row(task as usize, keywords);
        self.packed.ensure_rows(self.doc_len.len());
        self.docs += 1;
        true
    }

    /// Drop a task in `O(|kw(t)|)` amortized time. Returns `false` when the
    /// task was not indexed.
    pub fn remove(&mut self, task: u32) -> bool {
        if !self.contains(task) {
            return false;
        }
        for shard in &mut self.shards {
            shard.remove(task);
        }
        self.doc_len[task as usize] = ABSENT;
        self.packed.clear_row(task as usize);
        self.docs -= 1;
        true
    }

    /// Top-`k` most relevant open tasks for a worker vector, by Jaccard
    /// similarity with ties broken by ascending task id — output identical
    /// to [`InvertedIndex::top_k`] on the same contents.
    ///
    /// The worker's terms fan out to their owning shards (scoped threads
    /// when the candidate volume warrants it); each shard accumulates exact
    /// overlap counts for its term subset, the per-shard accumulators are
    /// summed, and the final scores/sort are computed exactly as in the
    /// unsharded index. No admission pruning happens anywhere, so equality
    /// holds without reconciling any cross-shard bound.
    pub fn top_k(&self, worker: &KeywordVec, k: usize) -> Vec<(u32, f64)> {
        if k == 0 {
            return Vec::new();
        }
        let wlen = worker.count_ones();
        if wlen == 0 {
            return Vec::new();
        }
        // Group the worker's terms by owning shard, dropping empty lists.
        let mut term_sets: Vec<(&Shard, Vec<u32>)> = Vec::new();
        let mut candidates = 0usize;
        for shard in &self.shards {
            let terms: Vec<u32> = worker
                .iter_ones_in(shard.lo as usize, shard.hi() as usize)
                .map(|b| b as u32)
                .filter(|&b| !shard.postings[(b - shard.lo) as usize].is_empty())
                .collect();
            if !terms.is_empty() {
                candidates += terms
                    .iter()
                    .map(|&b| shard.postings[(b - shard.lo) as usize].len())
                    .sum::<usize>();
                term_sets.push((shard, terms));
            }
        }

        // Dense queries (candidate postings outnumber the task-id space)
        // rescore the packed mirror directly — same exact integer counts,
        // identical output, no hash traffic.
        if candidates >= DENSE_RESCORE_CUTOFF && candidates >= self.packed.len() {
            return self.top_k_dense(worker, k, wlen);
        }

        let mut acc: HashMap<u32, u32> = HashMap::new();
        if term_sets.len() > 1 && candidates >= PARALLEL_QUERY_CUTOFF {
            let partials: Vec<HashMap<u32, u32>> = std::thread::scope(|scope| {
                let handles: Vec<_> = term_sets
                    .iter()
                    .map(|(shard, terms)| {
                        scope.spawn(move || {
                            let mut m = HashMap::new();
                            shard.accumulate(terms, &mut m);
                            m
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("shard query thread"))
                    .collect()
            });
            // Memberships are disjoint across shards, but a task seen by
            // several shards contributes one partial count from each.
            for partial in partials {
                for (task, overlap) in partial {
                    *acc.entry(task).or_insert(0) += overlap;
                }
            }
        } else {
            for (shard, terms) in &term_sets {
                shard.accumulate(terms, &mut acc);
            }
        }

        let mut scored: Vec<(u32, f64)> = acc
            .into_iter()
            .map(|(task, overlap)| {
                let union = self.doc_len[task as usize] as f64 + wlen as f64 - overlap as f64;
                (task, overlap as f64 / union)
            })
            .collect();
        scored.sort_unstable_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
        scored.truncate(k);
        scored
    }

    /// The dense exact-rescore path: one batched [`intersection_counts_many`]
    /// sweep over every packed row. Tasks with zero overlap (including
    /// removed tasks, whose rows are zero) never score — exactly the tasks
    /// the posting accumulation never touches — and scores come from the
    /// same `overlap / (|t| + |w| − overlap)` on the same integers, so the
    /// output is bit-identical to the accumulate path.
    pub(crate) fn top_k_dense(
        &self,
        worker: &KeywordVec,
        k: usize,
        wlen: usize,
    ) -> Vec<(u32, f64)> {
        let mut overlaps = vec![0u32; self.packed.len()];
        intersection_counts_many(worker, &self.packed, 0, &mut overlaps);
        let mut scored: Vec<(u32, f64)> = overlaps
            .iter()
            .enumerate()
            .filter(|&(_, &overlap)| overlap > 0)
            .map(|(task, &overlap)| {
                let union = self.doc_len[task] as f64 + wlen as f64 - overlap as f64;
                (task as u32, overlap as f64 / union)
            })
            .collect();
        scored.sort_unstable_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
        scored.truncate(k);
        scored
    }
}

/// Bulk-build one contiguous group of shards: a single scan of `tasks`
/// over the group's combined keyword range, routing each set bit to its
/// owning shard. `iter_ones_in` yields bits ascending, so the owner only
/// ever advances — routing is `O(1)` amortized per bit.
fn build_shard_group(group: &mut [Shard], tasks: &[(u32, &KeywordVec)]) {
    let (Some(first), Some(last)) = (group.first(), group.last()) else {
        return;
    };
    let (lo, hi) = (first.lo as usize, last.hi() as usize);
    // Size every backref table up front: repeated incremental `resize_with`
    // growth re-copies each shard's header array ~2× over, which dominates
    // at the 10M-task scale.
    if let Some(max_id) = tasks.iter().map(|&(id, _)| id).max() {
        for shard in group.iter_mut() {
            shard.reserve_task(max_id);
        }
    }
    for &(id, kw) in tasks {
        let mut owner = 0usize;
        for bit in kw.iter_ones_in(lo, hi) {
            while bit as u32 >= group[owner].hi() {
                owner += 1;
            }
            group[owner].push_membership(id, bit as u32);
        }
    }
}

impl StateSerialize for ShardedIndex {
    /// Layout: `nbits`, `docs`, `doc_len`, then per shard `lo`, `hi` and
    /// the posting lists **verbatim** (list order encodes swap-remove
    /// history, and back-reference positions index into it). Entries are
    /// not stored: they are derivable — `entries[t]` is exactly the
    /// `(keyword, position)` pairs at which `t` appears, in ascending
    /// keyword order per shard, which is the same invariant live
    /// insert/remove maintain.
    fn write_state(&self, out: &mut Vec<u8>) {
        self.nbits.write_state(out);
        self.docs.write_state(out);
        self.doc_len.write_state(out);
        self.shards.len().write_state(out);
        for shard in &self.shards {
            shard.lo.write_state(out);
            shard.hi().write_state(out);
            shard.postings.write_state(out);
        }
    }

    fn read_state(r: &mut StateReader<'_>) -> Result<Self, StateDecodeError> {
        let invalid = |msg: String| StateDecodeError::Invalid(format!("sharded index: {msg}"));
        let nbits = usize::read_state(r)?;
        let docs = usize::read_state(r)?;
        let doc_len = Vec::<u32>::read_state(r)?;
        let n_shards = usize::read_state(r)?;
        if n_shards == 0 {
            return Err(invalid("no shards".into()));
        }
        let mut shards = Vec::with_capacity(n_shards.min(r.remaining()));
        let mut expected_lo = 0u32;
        for _ in 0..n_shards {
            let lo = u32::read_state(r)?;
            let hi = u32::read_state(r)?;
            let postings = Vec::<Vec<u32>>::read_state(r)?;
            if lo != expected_lo || hi < lo || postings.len() != (hi - lo) as usize {
                return Err(invalid(format!(
                    "shard range [{lo}, {hi}) breaks the contiguous partition at {expected_lo}"
                )));
            }
            expected_lo = hi;
            shards.push(Shard {
                lo,
                postings,
                entries: Vec::new(),
            });
        }
        if expected_lo as usize != nbits {
            return Err(invalid(format!(
                "shard ranges cover {expected_lo} keywords, universe is {nbits}"
            )));
        }
        if docs != doc_len.iter().filter(|&&l| l != ABSENT).count() {
            return Err(invalid("docs does not match the doc_len table".into()));
        }
        // Cross-check every membership against the doc_len table, then
        // rebuild the back-references (ascending keyword order per shard —
        // the live invariant) and the packed keyword mirror (derivable
        // from the postings, so it is never serialized).
        let mut packed = PackedCatalog::new(nbits);
        packed.ensure_rows(doc_len.len());
        let mut counts = vec![0u32; doc_len.len()];
        for shard in &mut shards {
            if !doc_len.is_empty() {
                shard.reserve_task(doc_len.len() as u32 - 1);
            }
            for (off, list) in shard.postings.iter().enumerate() {
                let keyword = shard.lo + off as u32;
                for (position, &task) in list.iter().enumerate() {
                    let len = doc_len
                        .get(task as usize)
                        .ok_or_else(|| invalid(format!("posting for unknown task {task}")))?;
                    if *len == ABSENT {
                        return Err(invalid(format!("posting for absent task {task}")));
                    }
                    counts[task as usize] += 1;
                    packed.set_bit(task as usize, keyword as usize);
                    shard.entries[task as usize].push(PostingRef {
                        keyword,
                        position: position as u32,
                    });
                }
            }
        }
        for (task, (&count, &len)) in counts.iter().zip(&doc_len).enumerate() {
            if len != ABSENT && count != len {
                return Err(invalid(format!(
                    "task {task} has {count} memberships but doc_len {len}"
                )));
            }
        }
        Ok(Self {
            shards,
            doc_len,
            docs,
            nbits,
            packed,
        })
    }
}

/// Equality helper for tests and invariants: whether a sharded and an
/// unsharded index hold identical contents (posting sets per keyword plus
/// the open-task set).
pub fn contents_equal(sharded: &ShardedIndex, flat: &InvertedIndex) -> bool {
    if sharded.len() != flat.len() || sharded.nbits() != flat.nbits() {
        return false;
    }
    if !sharded.open_tasks().eq(flat.open_tasks()) {
        return false;
    }
    (0..sharded.nbits() as u32).all(|kw| {
        let mut a = sharded.postings(kw).to_vec();
        let mut b = flat.postings(kw).to_vec();
        a.sort_unstable();
        b.sort_unstable();
        a == b
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kw(nbits: usize, bits: &[usize]) -> KeywordVec {
        KeywordVec::from_indices(nbits, bits)
    }

    #[test]
    fn partition_covers_the_universe_contiguously() {
        for (nbits, shards) in [(1usize, 1usize), (7, 3), (64, 4), (130, 8), (24, 7), (5, 9)] {
            let idx = ShardedIndex::new(nbits, shards);
            let ranges = idx.shard_ranges();
            assert!(idx.shard_count() <= shards.max(1));
            assert_eq!(ranges.first().unwrap().0, 0);
            assert_eq!(ranges.last().unwrap().1 as usize, nbits);
            for w in ranges.windows(2) {
                assert_eq!(w[0].1, w[1].0, "ranges must be contiguous");
                assert!(w[0].0 < w[0].1, "ranges must be non-empty");
            }
        }
    }

    #[test]
    fn routes_memberships_to_owning_shards() {
        let mut idx = ShardedIndex::new(8, 4); // ranges [0,2) [2,4) [4,6) [6,8)
        idx.insert(3, &kw(8, &[0, 3, 7]));
        idx.insert(9, &kw(8, &[3, 4]));
        assert_eq!(idx.shard_sizes(), vec![1, 2, 1, 1]);
        assert_eq!(idx.df(3), 2);
        assert_eq!(idx.postings(3), &[3, 9]);
        assert_eq!(idx.keywords_of(3).collect::<Vec<_>>(), vec![0, 3, 7]);
        assert_eq!(idx.keyword_count(9), Some(2));
        assert!(idx.remove(3));
        assert_eq!(idx.shard_sizes(), vec![0, 1, 1, 0]);
        assert!(!idx.remove(3), "double remove is a no-op");
        assert_eq!(idx.open_tasks().collect::<Vec<_>>(), vec![9]);
    }

    #[test]
    fn matches_inverted_index_on_a_small_catalog() {
        let nbits = 40;
        let vecs: Vec<KeywordVec> = (0..60)
            .map(|i| {
                kw(
                    nbits,
                    &[i % nbits, (i * 7 + 3) % nbits, (i * 13 + 1) % nbits],
                )
            })
            .collect();
        let pairs: Vec<(u32, &KeywordVec)> = vecs
            .iter()
            .enumerate()
            .map(|(i, v)| (i as u32, v))
            .collect();
        let flat = InvertedIndex::build(nbits, &pairs, 1);
        for shards in [1usize, 2, 3, 7, 40] {
            let sharded = ShardedIndex::build(nbits, &pairs, shards);
            assert!(contents_equal(&sharded, &flat), "shards={shards}");
            let worker = kw(nbits, &[0, 5, 11, 22, 39]);
            for k in [1usize, 4, 17, 60] {
                assert_eq!(
                    sharded.top_k(&worker, k),
                    flat.top_k(&worker, k),
                    "shards={shards} k={k}"
                );
            }
        }
    }

    #[test]
    fn bulk_build_skips_duplicates_like_insert() {
        let nbits = 16;
        let vecs: Vec<KeywordVec> = (0..1500)
            .map(|i| kw(nbits, &[i % nbits, (i * 5 + 2) % nbits]))
            .collect();
        let mut pairs: Vec<(u32, &KeywordVec)> = vecs
            .iter()
            .enumerate()
            .map(|(i, v)| (i as u32, v))
            .collect();
        pairs.push((3, &vecs[8]));
        pairs.push((1400, &vecs[0]));
        let (idx, skipped) = ShardedIndex::build_counting(nbits, &pairs, 4);
        assert_eq!(skipped, 2);
        assert_eq!(idx.len(), 1500);
        // First occurrence won: task 3 still has its own keywords.
        assert_eq!(
            idx.keywords_of(3).collect::<Vec<_>>(),
            vecs[3].iter_ones().map(|b| b as u32).collect::<Vec<_>>()
        );
        // And removal leaves no stale postings.
        let mut idx = idx;
        assert!(idx.remove(3));
        for b in 0..nbits as u32 {
            assert!(!idx.postings(b).contains(&3));
        }
    }

    #[test]
    fn scoped_thread_build_equals_sequential_build() {
        // Force several build threads even on a single-core box so the
        // grouped scoped-thread path is exercised everywhere, including
        // a thread budget that doesn't divide the shard count.
        let nbits = 96;
        let vecs: Vec<KeywordVec> = (0..2000)
            .map(|i| kw(nbits, &[i % nbits, (i * 11 + 5) % nbits, (i * 29) % nbits]))
            .collect();
        let pairs: Vec<(u32, &KeywordVec)> = vecs
            .iter()
            .enumerate()
            .map(|(i, v)| (i as u32, v))
            .collect();
        let flat = InvertedIndex::build(nbits, &pairs, 1);
        for (shards, threads) in [(7usize, 3usize), (5, 5), (8, 2), (3, 16)] {
            let (idx, skipped) =
                ShardedIndex::build_counting_with_threads(nbits, &pairs, shards, threads);
            assert_eq!(skipped, 0);
            assert!(
                contents_equal(&idx, &flat),
                "shards={shards} threads={threads}"
            );
            let worker = kw(nbits, &[2, 40, 67, 95]);
            assert_eq!(
                idx.top_k(&worker, 12),
                flat.top_k(&worker, 12),
                "shards={shards} threads={threads}"
            );
            // Per-task views survive the grouped build too.
            assert_eq!(
                idx.keywords_of(1234).collect::<Vec<_>>(),
                flat.keywords_of(1234).collect::<Vec<_>>()
            );
        }
    }

    #[test]
    fn incremental_maintenance_round_trips() {
        let nbits = 12;
        let mut idx = ShardedIndex::new(nbits, 3);
        let mut flat = InvertedIndex::new(nbits);
        for t in 0..30u32 {
            let v = kw(nbits, &[t as usize % nbits, (t as usize * 5 + 1) % nbits]);
            assert_eq!(idx.insert(t, &v), flat.insert(t, &v));
        }
        for t in [4u32, 9, 0, 29, 17, 4] {
            assert_eq!(idx.remove(t), flat.remove(t));
        }
        for t in [4u32, 9] {
            let v = kw(nbits, &[t as usize % nbits, (t as usize * 5 + 1) % nbits]);
            assert_eq!(idx.insert(t, &v), flat.insert(t, &v));
        }
        assert!(contents_equal(&idx, &flat));
        let worker = kw(nbits, &[1, 6, 11]);
        assert_eq!(idx.top_k(&worker, 10), flat.top_k(&worker, 10));
    }

    #[test]
    fn widen_extends_the_last_shard() {
        let mut idx = ShardedIndex::new(4, 2);
        idx.insert(0, &kw(4, &[0, 3]));
        idx.widen(70);
        assert_eq!(idx.nbits(), 70);
        assert_eq!(idx.shard_ranges(), vec![(0, 2), (2, 70)]);
        assert_eq!(idx.df(0), 1);
        idx.insert(1, &kw(70, &[69]));
        assert_eq!(idx.postings(69), &[1]);
        assert_eq!(idx.keywords_of(1).collect::<Vec<_>>(), vec![69]);
        // The packed mirror survives the stride-changing widen (4 bits →
        // 70 bits crosses a 256-bit lane group boundary for row layout).
        let dense = idx.top_k_dense(&kw(70, &[0, 69]), 4, 2);
        assert_eq!(dense, idx.top_k(&kw(70, &[0, 69]), 4));
    }

    #[test]
    fn dense_rescore_equals_posting_accumulation() {
        let nbits = 48;
        let mut idx = ShardedIndex::new(nbits, 3);
        for i in 0..300u32 {
            let i_us = i as usize;
            idx.insert(
                i,
                &kw(
                    nbits,
                    &[
                        i_us % nbits,
                        (i_us * 7 + 1) % nbits,
                        (i_us * 13 + 5) % nbits,
                    ],
                ),
            );
        }
        // Punch holes so zeroed rows are exercised.
        for i in (0..300u32).step_by(7) {
            idx.remove(i);
        }
        for k in [1usize, 5, 40, 1000] {
            for worker in [
                kw(nbits, &[0, 1, 2, 3]),
                kw(nbits, &(0..nbits).collect::<Vec<_>>()),
                kw(nbits, &[47]),
            ] {
                let wlen = worker.count_ones();
                let dense = idx.top_k_dense(&worker, k, wlen);
                let sparse = idx.top_k(&worker, k);
                assert_eq!(dense.len(), sparse.len(), "k={k}");
                for (d, s) in dense.iter().zip(&sparse) {
                    assert_eq!(d.0, s.0, "k={k}");
                    assert_eq!(d.1.to_bits(), s.1.to_bits(), "k={k}");
                }
            }
        }
    }

    #[test]
    fn auto_and_zero_shard_requests_are_clamped() {
        let idx = ShardedIndex::new(16, 0);
        assert!(idx.shard_count() >= 1);
        let idx = ShardedIndex::new(2, 100);
        assert_eq!(idx.shard_count(), 2, "clamped to the universe width");
        let idx = ShardedIndex::new(0, 4);
        assert_eq!(idx.shard_count(), 1);
        assert!(idx.is_empty());
    }
}

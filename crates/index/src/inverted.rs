//! The inverted keyword index over open tasks.
//!
//! One flat structure serves every caller: posting lists keyed by keyword
//! id, per-task back-references for `O(|kw(t)|)` removal, and a packed
//! keyword mirror for the dense top-k query body.

use std::collections::HashMap;

use hta_core::kernels::{intersection_counts_many, PackedCatalog};
use hta_core::state::{StateDecodeError, StateReader, StateSerialize};
use hta_core::KeywordVec;

/// Sentinel in `doc_len` marking a task that is not in the index.
const ABSENT: u32 = u32::MAX;

/// At or above this many candidate postings — when they also reach the
/// task-id space — a query skips posting accumulation and exact-rescores
/// every row of the packed keyword mirror with the batched popcount
/// kernels: streaming `rows · stride` SIMD blocks beats that many hash-map
/// updates, and the scores come from the same exact integer counts, so the
/// output is identical either way.
const DENSE_RESCORE_CUTOFF: usize = 1 << 13;

/// One posting-list back-reference held per `(task, keyword)` membership:
/// which list the task sits in and at which position. Positions make
/// removal `O(|kw(t)|)` via swap-remove instead of a list scan.
#[derive(Debug, Clone, Copy)]
struct PostingRef {
    keyword: u32,
    position: u32,
}

/// An inverted index mapping keyword ids to posting lists of **open** task
/// ids, with incremental `O(|kw(t)|)` insert/remove.
///
/// Task ids are the caller's dense catalog indices (`u32`); keyword ids are
/// positions in the shared [`hta_core::KeywordSpace`] universe. The index
/// additionally remembers each open task's keyword ids (ascending), which
/// is what the candidate pool's diversity seeding and exact Jaccard scoring
/// consume.
#[derive(Debug, Clone, Default)]
pub struct InvertedIndex {
    /// `postings[kw]` = open tasks whose vector sets `kw` (unordered).
    postings: Vec<Vec<u32>>,
    /// Per-task back-references into the posting lists, ascending keyword
    /// order (empty if absent).
    entries: Vec<Vec<PostingRef>>,
    /// Per-task keyword count, `ABSENT` when the task is not indexed.
    doc_len: Vec<u32>,
    /// Number of open tasks currently indexed.
    docs: usize,
    /// Packed keyword mirror, rows addressed by task id (absent rows are
    /// zero, one row per `doc_len` slot). Derivable from the postings — it
    /// is rebuilt on snapshot read and never serialized — and serves the
    /// dense top-k body ([`DENSE_RESCORE_CUTOFF`]).
    packed: PackedCatalog,
}

impl InvertedIndex {
    /// An empty index over a universe of `nbits` keywords.
    pub fn new(nbits: usize) -> Self {
        Self {
            postings: vec![Vec::new(); nbits],
            entries: Vec::new(),
            doc_len: Vec::new(),
            docs: 0,
            packed: PackedCatalog::new(nbits),
        }
    }

    /// Bulk-build from `(task id, keyword vector)` pairs: one sequential
    /// [`InvertedIndex::insert`] pass in input order, so a duplicate task id
    /// is skipped exactly as `insert` skips it (first occurrence wins).
    pub fn build(nbits: usize, tasks: &[(u32, &KeywordVec)]) -> Self {
        let mut index = Self::new(nbits);
        // Size the per-task tables once instead of growing them id by id.
        if let Some(max_id) = tasks.iter().map(|&(id, _)| id).max() {
            index.reserve_task(max_id);
        }
        for &(id, kw) in tasks {
            index.insert(id, kw);
        }
        index
    }

    /// Width of the keyword universe.
    pub fn nbits(&self) -> usize {
        self.postings.len()
    }

    /// Grow the keyword universe to `nbits` (interning adds keywords over
    /// time; task keyword *ids* are stable, so widening is just new empty
    /// posting lists and zero columns in the packed mirror).
    pub fn widen(&mut self, nbits: usize) {
        if nbits > self.postings.len() {
            self.postings.resize(nbits, Vec::new());
            self.packed.widen(nbits);
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
        self.postings
            .get(keyword as usize)
            .map_or(0, |list| list.len())
    }

    /// The posting list of `keyword` (unordered).
    pub fn postings(&self, keyword: u32) -> &[u32] {
        self.postings
            .get(keyword as usize)
            .map_or(&[], |list| list.as_slice())
    }

    /// Keyword count of an indexed task (`None` if absent).
    pub fn keyword_count(&self, task: u32) -> Option<usize> {
        match self.doc_len.get(task as usize) {
            Some(&len) if len != ABSENT => Some(len as usize),
            _ => None,
        }
    }

    /// Keyword ids of an indexed task, ascending (`&[]` if absent).
    pub fn keywords_of(&self, task: u32) -> impl Iterator<Item = u32> + '_ {
        self.entries
            .get(task as usize)
            .map_or(&[][..], |refs| refs.as_slice())
            .iter()
            .map(|r| r.keyword)
    }

    /// Iterate over the open task ids (ascending).
    pub fn open_tasks(&self) -> impl Iterator<Item = u32> + '_ {
        self.doc_len
            .iter()
            .enumerate()
            .filter(|(_, &len)| len != ABSENT)
            .map(|(id, _)| id as u32)
    }

    fn reserve_task(&mut self, task: u32) {
        let needed = task as usize + 1;
        if self.entries.len() < needed {
            self.entries.resize_with(needed, Vec::new);
            self.doc_len.resize(needed, ABSENT);
            self.packed.ensure_rows(needed);
        }
    }

    /// Index an open task. Returns `false` (and changes nothing) when the
    /// task is already present.
    ///
    /// # Panics
    /// Panics if the vector is wider than the index universe (widen first).
    pub fn insert(&mut self, task: u32, keywords: &KeywordVec) -> bool {
        assert!(
            keywords.nbits() <= self.postings.len(),
            "keyword vector wider ({}) than the index universe ({})",
            keywords.nbits(),
            self.postings.len()
        );
        if self.contains(task) {
            return false;
        }
        self.reserve_task(task);
        let mut count = 0u32;
        for bit in keywords.iter_ones() {
            let list = &mut self.postings[bit];
            self.entries[task as usize].push(PostingRef {
                keyword: bit as u32,
                position: list.len() as u32,
            });
            list.push(task);
            count += 1;
        }
        self.doc_len[task as usize] = count;
        self.packed.set_row(task as usize, keywords);
        self.docs += 1;
        true
    }

    /// Drop a task (assigned or completed) in `O(|kw(t)|)` amortized time.
    /// Returns `false` when the task was not indexed.
    pub fn remove(&mut self, task: u32) -> bool {
        if !self.contains(task) {
            return false;
        }
        let refs = std::mem::take(&mut self.entries[task as usize]);
        for r in refs {
            let list = &mut self.postings[r.keyword as usize];
            let pos = r.position as usize;
            debug_assert_eq!(list[pos], task);
            list.swap_remove(pos);
            // The former tail element moved into `pos`: patch its
            // back-reference for this keyword.
            if pos < list.len() {
                let moved = list[pos];
                let entry = self.entries[moved as usize]
                    .iter_mut()
                    .find(|e| e.keyword == r.keyword)
                    .expect("posting member has a back-reference");
                entry.position = r.position;
            }
        }
        self.doc_len[task as usize] = ABSENT;
        self.packed.clear_row(task as usize);
        self.docs -= 1;
        true
    }

    /// Top-`k` most relevant open tasks for a worker keyword vector, by
    /// Jaccard similarity (`rel = |t ∩ w| / |t ∪ w|`, matching
    /// [`hta_core::Jaccard`] relevance), ties broken by ascending task id.
    ///
    /// Two query bodies, chosen from the input, give the same output: when
    /// the worker's posting lists hold at least [`DENSE_RESCORE_CUTOFF`]
    /// candidates and at least one per task-id slot, every packed row is
    /// rescored with the batched popcount kernel; otherwise every posting
    /// of the worker's terms adds one to its task's overlap count in a map.
    /// Neither prunes, so every score is exact.
    pub fn top_k(&self, worker: &KeywordVec, k: usize) -> Vec<(u32, f64)> {
        if k == 0 {
            return Vec::new();
        }
        let wlen = worker.count_ones();
        if wlen == 0 {
            return Vec::new();
        }
        let lists: Vec<&[u32]> = worker
            .iter_ones()
            .filter_map(|b| self.postings.get(b))
            .filter(|list| !list.is_empty())
            .map(Vec::as_slice)
            .collect();
        let candidates: usize = lists.iter().map(|list| list.len()).sum();
        if candidates >= DENSE_RESCORE_CUTOFF && candidates >= self.packed.len() {
            return self.top_k_dense(worker, k, wlen);
        }

        let mut acc: HashMap<u32, u32> = HashMap::new();
        for list in lists {
            for &task in list {
                *acc.entry(task).or_insert(0) += 1;
            }
        }
        self.rank(acc.into_iter(), wlen, k)
    }

    /// The dense body of [`InvertedIndex::top_k`]: one batched
    /// [`intersection_counts_many`] sweep over every packed row. Tasks with
    /// zero overlap (including removed tasks, whose rows are zero) never
    /// score — exactly the tasks posting accumulation never touches.
    fn top_k_dense(&self, worker: &KeywordVec, k: usize, wlen: usize) -> Vec<(u32, f64)> {
        let mut overlaps = vec![0u32; self.packed.len()];
        intersection_counts_many(worker, &self.packed, 0, &mut overlaps);
        let touched = overlaps
            .into_iter()
            .enumerate()
            .filter(|&(_, overlap)| overlap > 0)
            .map(|(task, overlap)| (task as u32, overlap));
        self.rank(touched, wlen, k)
    }

    /// Exact Jaccard `overlap / (|t| + |w| − overlap)` per `(task,
    /// overlap)`, sorted by (score desc, id asc) and cut to `k` — the
    /// shared tail of both query bodies, so they agree bit for bit.
    fn rank(
        &self,
        overlaps: impl Iterator<Item = (u32, u32)>,
        wlen: usize,
        k: usize,
    ) -> Vec<(u32, f64)> {
        let mut scored: Vec<(u32, f64)> = overlaps
            .map(|(task, overlap)| {
                let union = self.doc_len[task as usize] as f64 + wlen as f64 - overlap as f64;
                (task, overlap as f64 / union)
            })
            .collect();
        scored.sort_unstable_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
        scored.truncate(k);
        scored
    }
}

impl StateSerialize for InvertedIndex {
    /// Layout: `nbits`, `docs`, `doc_len`, posting lists **verbatim** (list
    /// order encodes swap-remove history). Back-references and the packed
    /// mirror are derivable and rebuilt on read, back-references in
    /// ascending keyword order per task — the same invariant live
    /// insert/remove maintain.
    fn write_state(&self, out: &mut Vec<u8>) {
        self.postings.len().write_state(out);
        self.docs.write_state(out);
        self.doc_len.write_state(out);
        self.postings.write_state(out);
    }

    fn read_state(r: &mut StateReader<'_>) -> Result<Self, StateDecodeError> {
        let invalid = |msg: String| StateDecodeError::Invalid(format!("inverted index: {msg}"));
        let nbits = usize::read_state(r)?;
        let docs = usize::read_state(r)?;
        let doc_len = Vec::<u32>::read_state(r)?;
        let postings = Vec::<Vec<u32>>::read_state(r)?;
        if postings.len() != nbits {
            return Err(invalid(format!(
                "{} posting lists for a universe of {nbits}",
                postings.len()
            )));
        }
        if docs != doc_len.iter().filter(|&&l| l != ABSENT).count() {
            return Err(invalid("docs does not match the doc_len table".into()));
        }
        let mut entries: Vec<Vec<PostingRef>> = vec![Vec::new(); doc_len.len()];
        let mut counts = vec![0u32; doc_len.len()];
        let mut packed = PackedCatalog::new(nbits);
        packed.ensure_rows(doc_len.len());
        for (keyword, list) in postings.iter().enumerate() {
            for (position, &task) in list.iter().enumerate() {
                let len = doc_len
                    .get(task as usize)
                    .ok_or_else(|| invalid(format!("posting for unknown task {task}")))?;
                if *len == ABSENT {
                    return Err(invalid(format!("posting for absent task {task}")));
                }
                counts[task as usize] += 1;
                packed.set_bit(task as usize, keyword);
                entries[task as usize].push(PostingRef {
                    keyword: keyword as u32,
                    position: position as u32,
                });
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
            postings,
            entries,
            doc_len,
            docs,
            packed,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kw(nbits: usize, bits: &[usize]) -> KeywordVec {
        KeywordVec::from_indices(nbits, bits)
    }

    #[test]
    fn insert_remove_maintains_postings() {
        let mut idx = InvertedIndex::new(8);
        assert!(idx.insert(0, &kw(8, &[0, 1])));
        assert!(idx.insert(1, &kw(8, &[1, 2])));
        assert!(idx.insert(2, &kw(8, &[2, 3])));
        assert!(!idx.insert(2, &kw(8, &[4])), "double insert is a no-op");
        assert_eq!(idx.len(), 3);
        assert_eq!(idx.df(1), 2);
        assert_eq!(idx.df(2), 2);
        assert_eq!(idx.keyword_count(1), Some(2));

        assert!(idx.remove(1));
        assert!(!idx.remove(1), "double remove is a no-op");
        assert_eq!(idx.len(), 2);
        assert_eq!(idx.df(1), 1);
        assert_eq!(idx.df(2), 1);
        assert_eq!(idx.postings(1), &[0]);
        assert!(idx.keyword_count(1).is_none());

        // Re-insert after removal works.
        assert!(idx.insert(1, &kw(8, &[1, 2])));
        assert_eq!(idx.df(1), 2);
    }

    #[test]
    fn swap_remove_back_references_stay_consistent() {
        let mut idx = InvertedIndex::new(4);
        for t in 0..10u32 {
            idx.insert(t, &kw(4, &[0, (t as usize % 3) + 1]));
        }
        // Remove from the middle repeatedly; every removal exercises the
        // moved-tail fixup on the shared keyword-0 list.
        for t in [3u32, 0, 7, 5, 9, 1, 2, 8, 6, 4] {
            assert!(idx.remove(t));
        }
        assert!(idx.is_empty());
        for b in 0..4 {
            assert_eq!(idx.df(b), 0);
        }
    }

    #[test]
    fn top_k_matches_brute_force() {
        let nbits = 12;
        let mut idx = InvertedIndex::new(nbits);
        let tasks: Vec<KeywordVec> = (0..30)
            .map(|i| {
                kw(
                    nbits,
                    &[i % nbits, (i * 5 + 1) % nbits, (i * 7 + 3) % nbits],
                )
            })
            .collect();
        for (i, t) in tasks.iter().enumerate() {
            idx.insert(i as u32, t);
        }
        let worker = kw(nbits, &[0, 5, 8, 11]);
        let jac = |t: &KeywordVec| -> f64 {
            let union = t.union_count(&worker);
            if union == 0 {
                0.0
            } else {
                t.intersection_count(&worker) as f64 / union as f64
            }
        };
        for k in [1usize, 3, 7, 30] {
            let got = idx.top_k(&worker, k);
            let mut want: Vec<(u32, f64)> = tasks
                .iter()
                .enumerate()
                .map(|(i, t)| (i as u32, jac(t)))
                .filter(|&(_, s)| s > 0.0)
                .collect();
            want.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
            want.truncate(k);
            assert_eq!(got.len(), want.len(), "k={k}");
            for ((gt, gs), (wt, ws)) in got.iter().zip(&want) {
                assert_eq!(gt, wt, "k={k}");
                assert!((gs - ws).abs() < 1e-12, "k={k}");
            }
        }
    }

    #[test]
    fn top_k_admits_a_tying_lower_id_from_the_last_list() {
        // Worker = {0, 1}. Task 5 = {0} scores 1/(1+2-1) = 1/2 and is seen
        // first (kw 0 has the smallest document frequency). Task 2 = {1}
        // also scores exactly 1/2 but only appears in the *last* (largest
        // DF) posting list. Any query body that stopped admitting new tasks
        // once the unseen bound (remaining/|w| = 1/2) merely tied the k-th
        // score would drop task 2 and break the documented ascending-id
        // tie-break (2 before 5) against brute force.
        let nbits = 8;
        let mut idx = InvertedIndex::new(nbits);
        idx.insert(5, &kw(nbits, &[0]));
        idx.insert(2, &kw(nbits, &[1]));
        idx.insert(9, &kw(nbits, &[1, 6, 7]));
        let worker = kw(nbits, &[0, 1]);
        assert!(idx.df(0) < idx.df(1), "kw 1 must be the last list visited");
        let got = idx.top_k(&worker, 1);
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].0, 2, "lower-id tie must win: {got:?}");
        assert!((got[0].1 - 0.5).abs() < 1e-12);
        // The full ranking keeps both tying tasks in id order.
        let got = idx.top_k(&worker, 2);
        assert_eq!(got.iter().map(|&(t, _)| t).collect::<Vec<_>>(), vec![2, 5]);
    }

    #[test]
    fn bulk_build_equals_incremental() {
        let nbits = 16;
        let vecs: Vec<KeywordVec> = (0..2000)
            .map(|i| kw(nbits, &[i % nbits, (i * 3 + 1) % nbits]))
            .collect();
        let mut pairs: Vec<(u32, &KeywordVec)> = vecs
            .iter()
            .enumerate()
            .map(|(i, v)| (i as u32, v))
            .collect();
        // Duplicate ids (with *different* vectors) must be skipped exactly
        // like `insert` skips them: first occurrence wins. A duplicate that
        // slipped through would double-count `docs` and leave task 17 with
        // two sets of posting back-refs, so the `remove` below would patch
        // wrong positions.
        pairs.push((17, &vecs[4]));
        pairs.push((902, &vecs[1]));
        let bulk = InvertedIndex::build(nbits, &pairs);
        let mut incr = InvertedIndex::new(nbits);
        for &(id, v) in &pairs {
            incr.insert(id, v);
        }
        assert_eq!(bulk.len(), incr.len());
        assert_eq!(bulk.len(), 2000, "duplicates must not inflate docs");
        for b in 0..nbits as u32 {
            let mut lb: Vec<u32> = bulk.postings(b).to_vec();
            let mut li: Vec<u32> = incr.postings(b).to_vec();
            lb.sort_unstable();
            li.sort_unstable();
            assert_eq!(lb, li, "keyword {b}");
        }
        // The bulk-built index supports incremental maintenance too — and
        // removing a formerly-duplicated id leaves no stale postings behind.
        let mut bulk = bulk;
        assert!(bulk.remove(17));
        for b in 0..nbits as u32 {
            assert!(!bulk.postings(b).contains(&17), "stale posting for 17");
        }
        assert!(bulk.insert(17, &vecs[17]));
        assert!(bulk.remove(902));
        assert!(bulk.insert(902, &vecs[902]));
    }

    #[test]
    fn widen_preserves_contents() {
        let mut idx = InvertedIndex::new(2);
        idx.insert(0, &kw(2, &[0, 1]));
        idx.widen(6);
        assert_eq!(idx.nbits(), 6);
        assert_eq!(idx.df(0), 1);
        idx.insert(1, &kw(6, &[5]));
        assert_eq!(idx.postings(5), &[1]);
    }

    #[test]
    fn widen_past_a_lane_group_keeps_the_dense_body_exact() {
        let mut idx = InvertedIndex::new(4);
        idx.insert(0, &kw(4, &[0, 3]));
        // Past 256 bits the packed mirror's row stride grows; the rows it
        // repacks must still answer the dense body like the postings do.
        idx.widen(300);
        assert_eq!(idx.nbits(), 300);
        assert_eq!(idx.df(0), 1);
        idx.insert(1, &kw(300, &[0, 299]));
        assert_eq!(idx.postings(299), &[1]);
        assert_eq!(idx.keywords_of(1).collect::<Vec<_>>(), vec![0, 299]);
        let worker = kw(300, &[0, 3, 299]);
        assert_eq!(
            idx.top_k_dense(&worker, 4, worker.count_ones()),
            idx.top_k(&worker, 4)
        );
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
        let mut idx = InvertedIndex::build(nbits, &pairs);
        assert_eq!(idx.len(), 1500);
        // First occurrence won: task 3 still has its own keywords.
        assert_eq!(
            idx.keywords_of(3).collect::<Vec<_>>(),
            vecs[3].iter_ones().map(|b| b as u32).collect::<Vec<_>>()
        );
        // And removal leaves no stale postings.
        assert!(idx.remove(3));
        for b in 0..nbits as u32 {
            assert!(!idx.postings(b).contains(&3));
        }
    }

    #[test]
    fn incremental_maintenance_round_trips() {
        // Insert, remove (one twice), and re-insert; the result must hold
        // exactly what a fresh build of the survivors holds, and answer the
        // same queries.
        let nbits = 12;
        let vec_of = |t: u32| kw(nbits, &[t as usize % nbits, (t as usize * 5 + 1) % nbits]);
        let vecs: Vec<KeywordVec> = (0..30).map(vec_of).collect();
        let mut idx = InvertedIndex::new(nbits);
        for (t, v) in vecs.iter().enumerate() {
            assert!(idx.insert(t as u32, v));
        }
        for t in [4u32, 9, 0, 29, 17] {
            assert!(idx.remove(t), "remove {t}");
        }
        assert!(!idx.remove(4), "double remove is a no-op");
        for t in [4u32, 9] {
            assert!(idx.insert(t, &vecs[t as usize]));
        }
        let survivors: Vec<(u32, &KeywordVec)> = (0..30u32)
            .filter(|t| ![0, 17, 29].contains(t))
            .map(|t| (t, &vecs[t as usize]))
            .collect();
        let fresh = InvertedIndex::build(nbits, &survivors);
        assert!(idx.open_tasks().eq(fresh.open_tasks()));
        for b in 0..nbits as u32 {
            let mut got = idx.postings(b).to_vec();
            got.sort_unstable();
            let mut want = fresh.postings(b).to_vec();
            want.sort_unstable();
            assert_eq!(got, want, "keyword {b}");
        }
        let worker = kw(nbits, &[1, 6, 11]);
        assert_eq!(idx.top_k(&worker, 10), fresh.top_k(&worker, 10));
    }

    #[test]
    fn dense_rescore_equals_posting_accumulation() {
        let nbits = 48;
        let mut idx = InvertedIndex::new(nbits);
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
}

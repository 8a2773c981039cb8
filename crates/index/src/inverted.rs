//! The inverted keyword index over open tasks.

use hta_core::state::{StateDecodeError, StateReader, StateSerialize};
use hta_core::KeywordVec;

/// Sentinel in `doc_len` marking a task that is not in the index.
pub(crate) const ABSENT: u32 = u32::MAX;

/// `None` when `tasks` carries no duplicate ids; otherwise the first
/// occurrence of each id, in input order (the bulk-build equivalent of
/// `insert` returning `false` on a repeat).
pub(crate) fn dedup_first_occurrences<'a>(
    tasks: &[(u32, &'a KeywordVec)],
) -> Option<Vec<(u32, &'a KeywordVec)>> {
    let mut seen = std::collections::HashSet::with_capacity(tasks.len());
    if tasks.iter().all(|&(id, _)| seen.insert(id)) {
        return None;
    }
    seen.clear();
    Some(
        tasks
            .iter()
            .copied()
            .filter(|&(id, _)| seen.insert(id))
            .collect(),
    )
}

/// One posting-list back-reference held per `(task, keyword)` membership:
/// which list the task sits in and at which position. Positions make
/// removal `O(|kw(t)|)` via swap-remove instead of a list scan.
#[derive(Debug, Clone, Copy)]
pub(crate) struct PostingRef {
    pub(crate) keyword: u32,
    pub(crate) position: u32,
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
    /// Per-task back-references into the posting lists (empty if absent).
    entries: Vec<Vec<PostingRef>>,
    /// Per-task keyword count, `ABSENT` when the task is not indexed.
    doc_len: Vec<u32>,
    /// Number of open tasks currently indexed.
    docs: usize,
}

impl InvertedIndex {
    /// An empty index over a universe of `nbits` keywords.
    pub fn new(nbits: usize) -> Self {
        Self {
            postings: vec![Vec::new(); nbits],
            entries: Vec::new(),
            doc_len: Vec::new(),
            docs: 0,
        }
    }

    /// Bulk-build from `(task id, keyword vector)` pairs using `threads`
    /// scoped threads: each thread inverts a chunk of the tasks into a
    /// partial set of posting lists, which are concatenated chunk-by-chunk
    /// (deterministically) at the end. Falls back to sequential inserts for
    /// small inputs where thread spawn costs dominate.
    ///
    /// Duplicate task ids are skipped with the same no-op semantics as
    /// [`InvertedIndex::insert`]: the first occurrence wins, later ones
    /// change nothing. Use [`InvertedIndex::build_counting`] to observe how
    /// many were dropped.
    pub fn build(nbits: usize, tasks: &[(u32, &KeywordVec)], threads: usize) -> Self {
        Self::build_counting(nbits, tasks, threads).0
    }

    /// [`InvertedIndex::build`], also returning the number of duplicate-id
    /// pairs that were skipped.
    pub fn build_counting(
        nbits: usize,
        tasks: &[(u32, &KeywordVec)],
        threads: usize,
    ) -> (Self, usize) {
        // Keep only the first occurrence of each id; a duplicate fed to the
        // parallel path below would double-count `docs` and give the task
        // two sets of posting back-refs, corrupting later `remove`s.
        let firsts = dedup_first_occurrences(tasks);
        let skipped = tasks.len() - firsts.as_ref().map_or(tasks.len(), Vec::len);
        let tasks: &[(u32, &KeywordVec)] = firsts.as_deref().unwrap_or(tasks);

        let threads = threads.clamp(1, tasks.len().max(1));
        if threads == 1 || tasks.len() < 1024 {
            let mut index = Self::new(nbits);
            for &(id, kw) in tasks {
                index.insert(id, kw);
            }
            return (index, skipped);
        }
        // Phase 1 (parallel): per-chunk partial posting lists.
        let partials: Vec<Vec<Vec<u32>>> = hta_par::map_chunks(tasks, threads, |chunk| {
            let mut postings = vec![Vec::new(); nbits];
            for &(id, kw) in chunk {
                for bit in kw.iter_ones() {
                    postings[bit].push(id);
                }
            }
            postings
        });
        // Phase 2 (sequential): merge in chunk order and rebuild the
        // back-references, giving the same structure regardless of thread
        // interleaving.
        let mut index = Self::new(nbits);
        for (kw, list) in index.postings.iter_mut().enumerate() {
            for partial in &partials {
                list.extend_from_slice(&partial[kw]);
            }
        }
        for &(id, kw) in tasks {
            index.reserve_task(id);
            index.doc_len[id as usize] = kw.count_ones() as u32;
            index.docs += 1;
        }
        for (kw, list) in index.postings.iter().enumerate() {
            for (position, &id) in list.iter().enumerate() {
                index.entries[id as usize].push(PostingRef {
                    keyword: kw as u32,
                    position: position as u32,
                });
            }
        }
        (index, skipped)
    }

    /// Width of the keyword universe.
    pub fn nbits(&self) -> usize {
        self.postings.len()
    }

    /// Grow the keyword universe to `nbits` (interning adds keywords over
    /// time; task keyword *ids* are stable, so widening is just new empty
    /// posting lists).
    pub fn widen(&mut self, nbits: usize) {
        if nbits > self.postings.len() {
            self.postings.resize(nbits, Vec::new());
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
        self.docs -= 1;
        true
    }

    /// Top-`k` most relevant open tasks for a worker keyword vector, by
    /// Jaccard similarity (`rel = |t ∩ w| / |t ∪ w|`, matching
    /// [`hta_core::Jaccard`] relevance), ties broken by ascending task id.
    ///
    /// Term-at-a-time evaluation: walk the worker's posting lists
    /// accumulating exact overlap counts. Lists are visited in ascending
    /// document-frequency order, and before each list the retrieval checks
    /// the **upper bound** on any task not yet accumulated — a task first
    /// seen with `r` worker terms left satisfies
    /// `sim ≤ r / max(|kw(w)|, min|kw(t)|) ≤ r / |kw(w)|` — against the
    /// current `k`-th best **lower bound** (`overlap / (|t| + |w| −
    /// overlap)`, since overlap only grows). Once the bound cannot beat the
    /// threshold, the remaining (larger) lists stop admitting *new*
    /// accumulators; existing ones keep accumulating, so returned scores
    /// are exact.
    pub fn top_k(&self, worker: &KeywordVec, k: usize) -> Vec<(u32, f64)> {
        if k == 0 {
            return Vec::new();
        }
        let wlen = worker.count_ones();
        if wlen == 0 {
            return Vec::new();
        }
        let mut terms: Vec<usize> = worker
            .iter_ones()
            .filter(|&b| b < self.postings.len() && !self.postings[b].is_empty())
            .collect();
        terms.sort_unstable_by_key(|&b| self.postings[b].len());

        // Accumulators: task -> overlap so far. A dense map would waste
        // |catalog| clears per query; a hash map keeps the query output-
        // sensitive. Determinism comes from the final full sort.
        let mut acc: std::collections::HashMap<u32, u32> = std::collections::HashMap::new();
        let mut remaining = terms.len();
        let mut admit_new = true;
        for &term in &terms {
            if admit_new && acc.len() >= k {
                // k-th best lower bound among current accumulators.
                let mut lower: Vec<f64> = acc
                    .iter()
                    .map(|(&t, &o)| {
                        let tl = self.doc_len[t as usize] as f64;
                        o as f64 / (tl + wlen as f64 - o as f64)
                    })
                    .collect();
                lower.sort_unstable_by(|a, b| b.total_cmp(a));
                let threshold = lower[k - 1];
                // Unseen tasks can reach at most `remaining` overlap. The
                // comparison must be strict: at equality an unseen task can
                // still *tie* the k-th score, and the ascending-id tie-break
                // means a smaller-id newcomer wins — dropping it here would
                // diverge from brute force.
                if (remaining as f64) / (wlen as f64) < threshold {
                    admit_new = false;
                }
            }
            for &task in &self.postings[term] {
                match acc.entry(task) {
                    std::collections::hash_map::Entry::Occupied(mut e) => *e.get_mut() += 1,
                    std::collections::hash_map::Entry::Vacant(e) => {
                        if admit_new {
                            e.insert(1);
                        }
                    }
                }
            }
            remaining -= 1;
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
}

impl StateSerialize for InvertedIndex {
    /// Layout: `nbits`, `docs`, `doc_len`, posting lists **verbatim** (list
    /// order encodes swap-remove history). Back-references are derivable
    /// and rebuilt on read, in ascending keyword order per task — the same
    /// invariant live insert/remove maintain.
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
        for (keyword, list) in postings.iter().enumerate() {
            for (position, &task) in list.iter().enumerate() {
                let len = doc_len
                    .get(task as usize)
                    .ok_or_else(|| invalid(format!("posting for unknown task {task}")))?;
                if *len == ABSENT {
                    return Err(invalid(format!("posting for absent task {task}")));
                }
                counts[task as usize] += 1;
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
        // DF) posting list. The unseen-task upper bound before that list is
        // remaining/|w| = 1/2, equal to the k-th lower bound — with a
        // non-strict comparison task 2 is never admitted and the documented
        // ascending-id tie-break (2 before 5) breaks vs brute force.
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
        // like `insert` skips them: first occurrence wins. Before the dedup
        // fix these double-counted `docs` and left task 17 with two sets of
        // posting back-refs, so the `remove` below patched wrong positions.
        pairs.push((17, &vecs[4]));
        pairs.push((902, &vecs[1]));
        let (bulk, skipped) = InvertedIndex::build_counting(nbits, &pairs, 4);
        assert_eq!(skipped, 2);
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
}

//! The inverted keyword index over open tasks, keyed by keyword class.
//!
//! Tasks come in groups that share one keyword set: every task of an AMT
//! group carries the group's keywords, and the CrowdFlower catalog has 22
//! task kinds. The index therefore stores each distinct keyword set once,
//! as a **class**: its ascending keyword ids plus the ascending ids of its
//! open tasks. Posting lists hold class ids, so a top-k query scores each
//! class once instead of each task, and the candidate pool's diversity
//! seeding memoises its coverage score per class.

use std::collections::hash_map::RandomState;
use std::collections::HashMap;
use std::hash::{BuildHasher, BuildHasherDefault, Hash, Hasher};

use hta_core::state::{StateDecodeError, StateReader, StateSerialize};
use hta_core::KeywordVec;

/// Sentinel in `class_of` marking a task that is not in the index.
const ABSENT: u32 = u32::MAX;

/// A multiplicative hasher (the FxHash family) for the bulk build's class
/// map: its keys are a few machine words of the caller's own catalog, so
/// SipHash's defence against crafted collisions buys nothing there.
#[derive(Default)]
struct MulHasher(u64);

impl Hasher for MulHasher {
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            self.write_u64(u64::from_le_bytes(chunk.try_into().expect("8 bytes")));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut word = [0u8; 8];
            word[..rest.len()].copy_from_slice(rest);
            self.write_u64(u64::from_le_bytes(word));
        }
    }

    fn write_u64(&mut self, word: u64) {
        self.0 = self
            .0
            .wrapping_add(word)
            .wrapping_mul(0xf135_7aea_2e62_a9c5);
    }

    fn write_usize(&mut self, word: usize) {
        self.write_u64(word as u64);
    }

    fn finish(&self) -> u64 {
        // The product's high bits are its best mixed; the table indexes
        // by the low ones.
        self.0.rotate_left(26)
    }
}

/// One distinct keyword set and its open tasks.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
struct Class {
    /// Ascending keyword ids: the class key.
    keywords: Vec<u32>,
    /// `positions[i]` = where this class sits in `postings[keywords[i]]`,
    /// so closing a class is `O(|keywords|)` swap-removes, not list scans.
    positions: Vec<u32>,
    /// Open task ids, ascending. Empty only in a freed slot.
    members: Vec<u32>,
}

/// An inverted index mapping keyword ids to the **open** tasks carrying
/// them, grouped into keyword classes, with incremental insert/remove.
///
/// Task ids are the caller's dense catalog indices (`u32`); keyword ids are
/// positions in the shared [`hta_core::KeywordSpace`] universe. A class
/// lives exactly as long as it has an open task, so every posting points
/// at a non-empty class.
///
/// Equality is structural: class ids, posting order and freed slots
/// included, not only the open tasks and their keywords.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct InvertedIndex {
    /// `postings[kw]` = live classes whose keyword set holds `kw`
    /// (unordered).
    postings: Vec<Vec<u32>>,
    /// Class slots by class id; freed slots sit on `free`.
    classes: Vec<Class>,
    /// Live class id by keyword set.
    by_keywords: HashMap<Vec<u32>, u32>,
    /// Freed class ids, reused before `classes` grows.
    free: Vec<u32>,
    /// Per-task class id, `ABSENT` when the task is not indexed.
    class_of: Vec<u32>,
    /// Number of open tasks currently indexed.
    docs: usize,
}

impl InvertedIndex {
    /// An empty index over a universe of `nbits` keywords.
    pub fn new(nbits: usize) -> Self {
        Self {
            postings: vec![Vec::new(); nbits],
            ..Self::default()
        }
    }

    /// Bulk-build from `(task id, keyword vector)` pairs. The result is
    /// structurally identical to one sequential [`InvertedIndex::insert`]
    /// pass in input order: the same class ids in first-seen order, the
    /// same posting order, ascending members, and a duplicate task id is
    /// skipped exactly as `insert` skips it (first occurrence wins).
    ///
    /// Tasks are grouped by their vector's blocks with the trailing zero
    /// blocks cut off, so a vector narrower than the universe joins the
    /// class of a wider one with the same keywords; keyword ids are
    /// extracted once per distinct vector, not once per task.
    ///
    /// # Panics
    /// Panics if a vector is wider than the universe.
    pub fn build(nbits: usize, tasks: &[(u32, &KeywordVec)]) -> Self {
        let mut index = Self::new(nbits);
        // Size the per-task table once instead of growing it id by id.
        if let Some(max_id) = tasks.iter().map(|&(id, _)| id).max() {
            index.reserve_task(max_id);
        }
        let grouped = tasks.iter().map(|&(id, kw)| {
            assert!(
                kw.nbits() <= nbits,
                "keyword vector wider ({}) than the index universe ({nbits})",
                kw.nbits()
            );
            let blocks = kw.blocks();
            let used = blocks.iter().rposition(|&b| b != 0).map_or(0, |i| i + 1);
            (id, &blocks[..used])
        });
        // The catalog is the caller's own, so the map needs no defence
        // against crafted collisions.
        let hasher = BuildHasherDefault::<MulHasher>::default();
        index.fill_grouped(grouped, hasher, |blocks, ids| {
            for (i, &block) in blocks.iter().enumerate() {
                let mut b = block;
                while b != 0 {
                    ids.push((i * 64) as u32 + b.trailing_zeros());
                    b &= b - 1;
                }
            }
        });
        index
    }

    /// Fill an empty index from `(task id, class key)` pairs in input
    /// order, skipping a task id already present. Equal keys mean equal
    /// keyword sets, and `keyword_ids` appends a key's ascending keyword
    /// ids. A task's class is found by checking the previous task's key
    /// (grouped catalogs list a group's tasks back to back), then a map
    /// keyed by the key; only on a miss are the keyword ids extracted and
    /// the class opened, so classes get ids in first-seen order exactly as
    /// a sequential [`insert`](Self::insert) pass gives them. The map is
    /// never iterated, so its `hasher` cannot change the result.
    fn fill_grouped<'k, K, S>(
        &mut self,
        tasks: impl Iterator<Item = (u32, &'k K)>,
        hasher: S,
        keyword_ids: impl Fn(&K, &mut Vec<u32>),
    ) where
        K: Eq + Hash + ?Sized + 'k,
        S: BuildHasher,
    {
        debug_assert!(self.classes.is_empty() && self.docs == 0);
        let mut seen: HashMap<&K, u32, S> = HashMap::with_hasher(hasher);
        let mut prev: Option<(&K, u32)> = None;
        let mut ids = Vec::new();
        for (task, key) in tasks {
            if self.contains(task) {
                continue;
            }
            let class = match prev {
                Some((k, c)) if k == key => c,
                _ => match seen.get(key) {
                    Some(&c) => c,
                    None => {
                        ids.clear();
                        keyword_ids(key, &mut ids);
                        let c = self.class_for(&ids);
                        seen.insert(key, c);
                        c
                    }
                },
            };
            prev = Some((key, class));
            self.reserve_task(task);
            self.classes[class as usize].members.push(task);
            self.class_of[task as usize] = class;
            self.docs += 1;
        }
        for class in &mut self.classes {
            if !class.members.is_sorted() {
                class.members.sort_unstable();
            }
        }
    }

    /// Width of the keyword universe.
    pub fn nbits(&self) -> usize {
        self.postings.len()
    }

    /// Grow the keyword universe to `nbits` (interning adds keywords over
    /// time; keyword *ids* are stable, so widening only appends empty
    /// posting lists and never splits a class).
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
        self.class_of
            .get(task as usize)
            .is_some_and(|&c| c != ABSENT)
    }

    /// Keyword count of an indexed task (`None` if absent).
    pub fn keyword_count(&self, task: u32) -> Option<usize> {
        self.class(task).map(|c| c.keywords.len())
    }

    /// Keyword ids of an indexed task, ascending (empty if absent).
    pub fn keywords_of(&self, task: u32) -> impl Iterator<Item = u32> + '_ {
        self.class(task)
            .map_or(&[][..], |c| c.keywords.as_slice())
            .iter()
            .copied()
    }

    /// Iterate over the open task ids (ascending).
    pub fn open_tasks(&self) -> impl Iterator<Item = u32> + '_ {
        self.class_of
            .iter()
            .enumerate()
            .filter(|(_, &c)| c != ABSENT)
            .map(|(id, _)| id as u32)
    }

    /// Number of class slots: every live class id is below it.
    pub(crate) fn class_slots(&self) -> usize {
        self.classes.len()
    }

    /// The live classes as `(class id, ascending keyword ids, ascending
    /// open task ids)`.
    pub(crate) fn classes(&self) -> impl Iterator<Item = (u32, &[u32], &[u32])> + '_ {
        self.classes
            .iter()
            .enumerate()
            .filter(|(_, c)| !c.members.is_empty())
            .map(|(id, c)| (id as u32, c.keywords.as_slice(), c.members.as_slice()))
    }

    /// Ascending keyword ids of class `class`.
    pub(crate) fn class_keywords(&self, class: u32) -> &[u32] {
        &self.classes[class as usize].keywords
    }

    /// Ascending open task ids of class `class`.
    pub(crate) fn class_members(&self, class: u32) -> &[u32] {
        &self.classes[class as usize].members
    }

    fn class(&self, task: u32) -> Option<&Class> {
        match self.class_of.get(task as usize) {
            Some(&c) if c != ABSENT => Some(&self.classes[c as usize]),
            _ => None,
        }
    }

    fn reserve_task(&mut self, task: u32) {
        let needed = task as usize + 1;
        if self.class_of.len() < needed {
            self.class_of.resize(needed, ABSENT);
        }
    }

    /// The live class keyed by `keywords` (ascending), opened if missing.
    fn class_for(&mut self, keywords: &[u32]) -> u32 {
        if let Some(&id) = self.by_keywords.get(keywords) {
            return id;
        }
        let id = self.free.pop().unwrap_or_else(|| {
            self.classes.push(Class::default());
            (self.classes.len() - 1) as u32
        });
        let positions = keywords
            .iter()
            .map(|&kw| {
                let list = &mut self.postings[kw as usize];
                list.push(id);
                (list.len() - 1) as u32
            })
            .collect();
        self.by_keywords.insert(keywords.to_vec(), id);
        self.classes[id as usize] = Class {
            keywords: keywords.to_vec(),
            positions,
            members: Vec::new(),
        };
        id
    }

    /// Drop a class that lost its last open task from the posting lists.
    fn close_class(&mut self, id: u32) {
        let class = std::mem::take(&mut self.classes[id as usize]);
        for (&kw, &pos) in class.keywords.iter().zip(&class.positions) {
            let list = &mut self.postings[kw as usize];
            list.swap_remove(pos as usize);
            // The former tail class moved into `pos`: patch its position.
            if let Some(&moved) = list.get(pos as usize) {
                let moved = &mut self.classes[moved as usize];
                let i = moved
                    .keywords
                    .binary_search(&kw)
                    .expect("a posting's class holds the keyword");
                moved.positions[i] = pos;
            }
        }
        self.by_keywords.remove(&class.keywords);
        self.free.push(id);
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
        let key: Vec<u32> = keywords.iter_ones().map(|b| b as u32).collect();
        let class = self.class_for(&key);
        let members = &mut self.classes[class as usize].members;
        match members.last() {
            Some(&last) if last > task => {
                let pos = members.partition_point(|&t| t < task);
                members.insert(pos, task);
            }
            _ => members.push(task),
        }
        self.class_of[task as usize] = class;
        self.docs += 1;
        true
    }

    /// Drop a task (assigned or completed). Returns `false` when the task
    /// was not indexed.
    pub fn remove(&mut self, task: u32) -> bool {
        if !self.contains(task) {
            return false;
        }
        let class = self.class_of[task as usize];
        let members = &mut self.classes[class as usize].members;
        let pos = members
            .binary_search(&task)
            .expect("an indexed task is a member of its class");
        members.remove(pos);
        if members.is_empty() {
            self.close_class(class);
        }
        self.class_of[task as usize] = ABSENT;
        self.docs -= 1;
        true
    }

    /// Top-`k` most relevant open tasks for a worker keyword vector, by
    /// Jaccard similarity (`rel = |t ∩ w| / |t ∪ w|`, matching
    /// [`hta_core::Jaccard`] relevance), ties broken by ascending task id.
    ///
    /// Every posting of the worker's terms adds one to its class's overlap;
    /// each touched class is scored once with the exact integer formula
    /// `overlap / (|t| + |w| − overlap)`. Classes are then walked by score
    /// descending, the member lists of equal-score classes merged in
    /// ascending id order, until `k` ids are out. Nothing is pruned, so
    /// every score is exact.
    pub fn top_k(&self, worker: &KeywordVec, k: usize) -> Vec<(u32, f64)> {
        let wlen = worker.count_ones();
        if k == 0 || wlen == 0 {
            return Vec::new();
        }
        let mut overlaps = vec![0u32; self.classes.len()];
        let mut touched: Vec<u32> = Vec::new();
        for bit in worker.iter_ones() {
            for &class in self.postings.get(bit).map_or(&[][..], Vec::as_slice) {
                let overlap = &mut overlaps[class as usize];
                if *overlap == 0 {
                    touched.push(class);
                }
                *overlap += 1;
            }
        }
        let mut scored: Vec<(f64, u32)> = touched
            .into_iter()
            .map(|class| {
                let overlap = overlaps[class as usize] as f64;
                let len = self.classes[class as usize].keywords.len() as f64;
                (overlap / (len + wlen as f64 - overlap), class)
            })
            .collect();
        scored.sort_unstable_by(|a, b| b.0.total_cmp(&a.0));

        let mut out: Vec<(u32, f64)> = Vec::with_capacity(k.min(self.docs));
        for tier in scored.chunk_by(|a, b| a.0.to_bits() == b.0.to_bits()) {
            let need = k - out.len();
            let mut ids: Vec<u32> = tier
                .iter()
                .flat_map(|&(_, class)| self.classes[class as usize].members.iter().take(need))
                .copied()
                .collect();
            ids.sort_unstable();
            let score = tier[0].0;
            out.extend(ids.into_iter().take(need).map(|task| (task, score)));
            if out.len() == k {
                break;
            }
        }
        out
    }
}

impl StateSerialize for InvertedIndex {
    /// Layout: `nbits`, `docs`, `doc_len` (per task slot: keyword count, or
    /// `u32::MAX` when absent), then per keyword the ascending ids of the
    /// open tasks carrying it. Classes and their posting lists are
    /// derivable and rebuilt on read, which accepts the per-keyword lists in
    /// any order.
    fn write_state(&self, out: &mut Vec<u8>) {
        let doc_len: Vec<u32> = self
            .class_of
            .iter()
            .map(|&c| match c {
                ABSENT => ABSENT,
                c => self.classes[c as usize].keywords.len() as u32,
            })
            .collect();
        let mut postings: Vec<Vec<u32>> = vec![Vec::new(); self.postings.len()];
        for task in self.open_tasks() {
            for kw in self.keywords_of(task) {
                postings[kw as usize].push(task);
            }
        }
        self.postings.len().write_state(out);
        self.docs.write_state(out);
        doc_len.write_state(out);
        postings.write_state(out);
    }

    /// Every table this allocates is sized by what the payload holds
    /// (`doc_len` slots, posting lists, postings), never by a decoded count.
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
        // Per-task keyword lists in one flat table: count memberships,
        // check them against `doc_len`, then fill keyword by keyword so each
        // task's slice comes out ascending.
        let mut start = vec![0usize; doc_len.len() + 1];
        for &task in postings.iter().flatten() {
            match doc_len.get(task as usize) {
                None => return Err(invalid(format!("posting for unknown task {task}"))),
                Some(&ABSENT) => return Err(invalid(format!("posting for absent task {task}"))),
                Some(_) => start[task as usize + 1] += 1,
            }
        }
        for (task, &len) in doc_len.iter().enumerate() {
            let count = start[task + 1];
            if len != ABSENT && count != len as usize {
                return Err(invalid(format!(
                    "task {task} has {count} memberships but doc_len {len}"
                )));
            }
            start[task + 1] += start[task];
        }
        let mut fill = start.clone();
        let mut keywords = vec![0u32; start[doc_len.len()]];
        for (kw, list) in postings.iter().enumerate() {
            for &task in list {
                keywords[fill[task as usize]] = kw as u32;
                fill[task as usize] += 1;
            }
        }
        let keys = doc_len
            .iter()
            .enumerate()
            .filter(|&(_, &len)| len != ABSENT)
            .map(|(task, _)| (task as u32, &keywords[start[task]..start[task + 1]]));
        if let Some((task, _)) = keys
            .clone()
            .find(|(_, key)| key.windows(2).any(|w| w[0] == w[1]))
        {
            return Err(invalid(format!(
                "task {task} is listed twice under a keyword"
            )));
        }
        let mut index = Self::new(nbits);
        index.class_of = vec![ABSENT; doc_len.len()];
        // Snapshot bytes come from disk: keep SipHash's collision defence.
        index.fill_grouped(keys, RandomState::new(), |key, ids| {
            ids.extend_from_slice(key)
        });
        debug_assert_eq!(index.docs, docs);
        Ok(index)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kw(nbits: usize, bits: &[usize]) -> KeywordVec {
        KeywordVec::from_indices(nbits, bits)
    }

    /// Score every `(id, vector)` exactly, keep positive overlaps, sort by
    /// (score desc, id asc) and cut to `k`: no posting list, no class.
    fn brute_force(tasks: &[(u32, KeywordVec)], worker: &KeywordVec, k: usize) -> Vec<(u32, f64)> {
        let wlen = worker.count_ones() as f64;
        let mut scored: Vec<(u32, f64)> = tasks
            .iter()
            .filter_map(|(id, v)| {
                let overlap = v.intersection_count(worker) as f64;
                (overlap > 0.0).then(|| (*id, overlap / (v.count_ones() as f64 + wlen - overlap)))
            })
            .collect();
        scored.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
        scored.truncate(k);
        scored
    }

    /// Open task ids plus each one's keywords: the index's whole content.
    fn content(idx: &InvertedIndex) -> Vec<(u32, Vec<u32>)> {
        idx.open_tasks()
            .map(|t| (t, idx.keywords_of(t).collect()))
            .collect()
    }

    /// Every live class is reachable from each of its keywords' posting
    /// lists at its recorded position, and every posting names a live class.
    fn assert_postings_consistent(idx: &InvertedIndex) {
        let mut live = 0;
        for (id, keywords, members) in idx.classes() {
            live += 1;
            assert!(!members.is_empty());
            let class = &idx.classes[id as usize];
            for (&kw, &pos) in keywords.iter().zip(&class.positions) {
                assert_eq!(idx.postings[kw as usize][pos as usize], id);
            }
        }
        let postings: usize = idx.postings.iter().map(Vec::len).sum();
        let memberships: usize = idx.classes().map(|(_, k, _)| k.len()).sum();
        assert_eq!(postings, memberships);
        assert_eq!(live, idx.by_keywords.len());
    }

    #[test]
    fn insert_remove_maintains_postings() {
        let mut idx = InvertedIndex::new(8);
        assert!(idx.insert(0, &kw(8, &[0, 1])));
        assert!(idx.insert(1, &kw(8, &[1, 2])));
        assert!(idx.insert(2, &kw(8, &[2, 3])));
        assert!(!idx.insert(2, &kw(8, &[4])), "double insert is a no-op");
        assert_eq!(idx.len(), 3);
        assert_eq!(idx.keyword_count(1), Some(2));
        assert_eq!(idx.top_k(&kw(8, &[1]), 8).len(), 2);
        assert_eq!(idx.top_k(&kw(8, &[2]), 8).len(), 2);

        assert!(idx.remove(1));
        assert!(!idx.remove(1), "double remove is a no-op");
        assert_eq!(idx.len(), 2);
        assert_eq!(
            idx.top_k(&kw(8, &[1]), 8),
            vec![(0, 0.5)],
            "keyword 1 now reaches task 0 only"
        );
        assert_eq!(idx.top_k(&kw(8, &[2]), 8), vec![(2, 0.5)]);
        assert!(idx.keyword_count(1).is_none());
        assert_eq!(content(&idx), vec![(0, vec![0, 1]), (2, vec![2, 3])]);
        assert_postings_consistent(&idx);

        // Re-insert after removal works.
        assert!(idx.insert(1, &kw(8, &[1, 2])));
        assert_eq!(idx.top_k(&kw(8, &[1]), 8).len(), 2);
        assert_postings_consistent(&idx);
    }

    #[test]
    fn swap_remove_back_references_stay_consistent() {
        let mut idx = InvertedIndex::new(4);
        for t in 0..10u32 {
            idx.insert(t, &kw(4, &[0, (t as usize % 3) + 1]));
        }
        // Remove from the middle repeatedly; emptying a class exercises the
        // moved-tail fixup on the shared keyword-0 list.
        for t in [3u32, 0, 7, 5, 9, 1, 2, 8, 6, 4] {
            assert!(idx.remove(t));
            assert_postings_consistent(&idx);
        }
        assert!(idx.is_empty());
        assert!(idx.postings.iter().all(Vec::is_empty));
        assert_eq!(idx.classes().count(), 0);
    }

    #[test]
    fn classes_group_equal_keyword_sets() {
        let mut idx = InvertedIndex::new(8);
        for t in [7u32, 2, 9, 4] {
            idx.insert(t, &kw(8, &[1, 5]));
        }
        idx.insert(3, &kw(8, &[1]));
        let classes: Vec<(Vec<u32>, Vec<u32>)> = idx
            .classes()
            .map(|(_, k, m)| (k.to_vec(), m.to_vec()))
            .collect();
        assert_eq!(
            classes,
            vec![(vec![1, 5], vec![2, 4, 7, 9]), (vec![1], vec![3])]
        );
        // A freed class id is reused by the next new keyword set.
        assert!(idx.remove(3));
        idx.insert(0, &kw(8, &[6]));
        assert_eq!(idx.class_slots(), 2);
        assert_postings_consistent(&idx);
    }

    #[test]
    fn top_k_matches_brute_force() {
        let nbits = 12;
        let mut idx = InvertedIndex::new(nbits);
        let tasks: Vec<(u32, KeywordVec)> = (0..30)
            .map(|i| {
                let v = kw(
                    nbits,
                    &[i % nbits, (i * 5 + 1) % nbits, (i * 7 + 3) % nbits],
                );
                (i as u32, v)
            })
            .collect();
        for (i, t) in &tasks {
            idx.insert(*i, t);
        }
        let worker = kw(nbits, &[0, 5, 8, 11]);
        for k in [1usize, 3, 7, 30] {
            let got = idx.top_k(&worker, k);
            let want = brute_force(&tasks, &worker, k);
            assert_eq!(got.len(), want.len(), "k={k}");
            for ((gt, gs), (wt, ws)) in got.iter().zip(&want) {
                assert_eq!(gt, wt, "k={k}");
                assert_eq!(gs.to_bits(), ws.to_bits(), "k={k}");
            }
        }
    }

    #[test]
    fn top_k_admits_a_tying_lower_id_from_the_last_list() {
        // Worker = {0, 1}. Task 5 = {0} scores 1/(1+2-1) = 1/2 and is seen
        // first (kw 0 is the first worker term). Task 2 = {1} also scores
        // exactly 1/2 but only appears in the *last* posting list. Any
        // query body that stopped admitting new tasks once the unseen bound
        // (remaining/|w| = 1/2) merely tied the k-th score would drop task
        // 2 and break the documented ascending-id tie-break (2 before 5)
        // against brute force.
        let nbits = 8;
        let mut idx = InvertedIndex::new(nbits);
        idx.insert(5, &kw(nbits, &[0]));
        idx.insert(2, &kw(nbits, &[1]));
        idx.insert(9, &kw(nbits, &[1, 6, 7]));
        let worker = kw(nbits, &[0, 1]);
        let got = idx.top_k(&worker, 1);
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].0, 2, "lower-id tie must win: {got:?}");
        assert!((got[0].1 - 0.5).abs() < 1e-12);
        // The full ranking keeps both tying tasks in id order.
        let got = idx.top_k(&worker, 2);
        assert_eq!(got.iter().map(|&(t, _)| t).collect::<Vec<_>>(), vec![2, 5]);
    }

    #[test]
    fn equal_score_classes_merge_by_ascending_id() {
        // Two classes tie at 1/2 against worker {0, 1}; their member lists
        // interleave, so the cut at k must take ids from both in id order.
        let nbits = 4;
        let mut idx = InvertedIndex::new(nbits);
        let mut tasks = Vec::new();
        for t in 0..12u32 {
            let v = if t % 3 == 0 {
                kw(nbits, &[1])
            } else {
                kw(nbits, &[0])
            };
            idx.insert(t, &v);
            tasks.push((t, v));
        }
        let worker = kw(nbits, &[0, 1]);
        for k in 1..=12 {
            assert_eq!(
                idx.top_k(&worker, k),
                brute_force(&tasks, &worker, k),
                "k={k}"
            );
        }
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
        // slipped through would double-count `docs` and leave task 17 in
        // two classes, so the `remove` below would leave a stale member.
        pairs.push((17, &vecs[4]));
        pairs.push((902, &vecs[1]));
        let bulk = InvertedIndex::build(nbits, &pairs);
        let mut incr = InvertedIndex::new(nbits);
        for &(id, v) in &pairs {
            incr.insert(id, v);
        }
        assert_eq!(bulk.len(), incr.len());
        assert_eq!(bulk.len(), 2000, "duplicates must not inflate docs");
        assert_eq!(content(&bulk), content(&incr));
        // The bulk-built index supports incremental maintenance too — and
        // removing a formerly-duplicated id leaves no stale member behind.
        let mut bulk = bulk;
        assert!(bulk.remove(17));
        assert!(bulk.classes().all(|(_, _, members)| !members.contains(&17)));
        let worker = kw(nbits, &vecs[17].iter_ones().collect::<Vec<_>>());
        assert!(bulk.top_k(&worker, 2000).iter().all(|&(t, _)| t != 17));
        assert!(bulk.insert(17, &vecs[17]));
        assert!(bulk.remove(902));
        assert!(bulk.insert(902, &vecs[902]));
        assert_eq!(content(&bulk), content(&incr));
        assert_postings_consistent(&bulk);
    }

    proptest::proptest! {
        /// `build` ≡ a sequential `insert` pass, structure and answers
        /// alike, on duplicate-heavy catalogs (four keyword sets, the
        /// empty one included) and all-distinct ones, with unsorted and
        /// duplicate task ids and vectors narrower than the universe; and
        /// `read_state` of its bytes rebuilds what a sequential pass over
        /// the open tasks in ascending id order builds.
        #[test]
        fn build_equals_sequential_insert(
            nbits in 1usize..150,
            distinct in 0u8..2,
            raw in proptest::collection::vec(
                (0u32..80, proptest::collection::vec(0usize..1000, 0..5), 0usize..1000, 0usize..4),
                0..60,
            ),
            workers in proptest::collection::vec(
                proptest::collection::vec(0usize..1000, 1..5),
                1..4,
            ),
            k in 1usize..12,
        ) {
            let palette = |c: usize| -> Vec<usize> {
                match c {
                    3 => Vec::new(),
                    c => vec![(c * 37) % nbits, (c * 53 + 7) % nbits],
                }
            };
            let tasks: Vec<(u32, KeywordVec)> = raw
                .iter()
                .map(|(id, picks, width, class)| {
                    let bits: Vec<usize> = if distinct == 1 {
                        picks.iter().map(|p| p % nbits).collect()
                    } else {
                        palette(*class)
                    };
                    let min = bits.iter().max().map_or(0, |&b| b + 1);
                    (*id, kw(min + width % (nbits - min + 1), &bits))
                })
                .collect();
            let pairs: Vec<(u32, &KeywordVec)> = tasks.iter().map(|(id, v)| (*id, v)).collect();
            let bulk = InvertedIndex::build(nbits, &pairs);
            let mut seq = InvertedIndex::new(nbits);
            for &(id, v) in &pairs {
                seq.insert(id, v);
            }
            proptest::prop_assert_eq!(&bulk, &seq);
            let bytes = hta_core::state::encode(&bulk);
            proptest::prop_assert_eq!(&bytes, &hta_core::state::encode(&seq));
            // A read rebuilds classes in ascending task order.
            let restored: InvertedIndex = hta_core::state::decode(&bytes).unwrap();
            let mut ascending = InvertedIndex::new(nbits);
            for (task, keywords) in content(&seq) {
                let bits: Vec<usize> = keywords.iter().map(|&b| b as usize).collect();
                ascending.insert(task, &kw(nbits, &bits));
            }
            proptest::prop_assert_eq!(&restored, &ascending);

            let workers: Vec<hta_core::Worker> = workers
                .iter()
                .enumerate()
                .map(|(i, picks)| {
                    let bits: Vec<usize> = picks.iter().map(|p| p % nbits).collect();
                    hta_core::Worker::new(hta_core::WorkerId(i as u32), kw(nbits, &bits))
                })
                .collect();
            for w in &workers {
                proptest::prop_assert_eq!(bulk.top_k(&w.keywords, k), seq.top_k(&w.keywords, k));
            }
            let params = crate::PoolParams::with_k(k);
            let pool = |idx| {
                crate::CandidatePool::generate(idx, &workers, 3, &params)
                    .members()
                    .to_vec()
            };
            proptest::prop_assert_eq!(pool(&bulk), pool(&seq));
        }
    }

    #[test]
    fn widen_preserves_contents() {
        let mut idx = InvertedIndex::new(2);
        idx.insert(0, &kw(2, &[0, 1]));
        idx.widen(6);
        assert_eq!(idx.nbits(), 6);
        assert_eq!(idx.top_k(&kw(6, &[0]), 4), vec![(0, 0.5)]);
        idx.insert(1, &kw(6, &[5]));
        assert_eq!(idx.top_k(&kw(6, &[5]), 4), vec![(1, 1.0)]);
        // Widening never splits a class: a wider vector with the same
        // keyword ids lands in the existing one.
        idx.insert(2, &kw(6, &[0, 1]));
        assert_eq!(idx.classes().count(), 2);
    }

    #[test]
    fn widen_past_a_lane_group_keeps_top_k_exact() {
        let mut idx = InvertedIndex::new(4);
        idx.insert(0, &kw(4, &[0, 3]));
        // Past 256 bits a packed keyword row would need a wider stride;
        // class keys are keyword ids, so nothing is repacked.
        idx.widen(300);
        assert_eq!(idx.nbits(), 300);
        idx.insert(1, &kw(300, &[0, 299]));
        assert_eq!(idx.keywords_of(1).collect::<Vec<_>>(), vec![0, 299]);
        let worker = kw(300, &[0, 3, 299]);
        let tasks = vec![(0, kw(300, &[0, 3])), (1, kw(300, &[0, 299]))];
        assert_eq!(idx.top_k(&worker, 4), brute_force(&tasks, &worker, 4));
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
        // And removal leaves no stale member.
        assert!(idx.remove(3));
        assert!(idx.classes().all(|(_, _, members)| !members.contains(&3)));
        assert!(!idx.open_tasks().any(|t| t == 3));
        assert_postings_consistent(&idx);
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
        assert_eq!(content(&idx), content(&fresh));
        assert_postings_consistent(&idx);
        let worker = kw(nbits, &[1, 6, 11]);
        assert_eq!(idx.top_k(&worker, 10), fresh.top_k(&worker, 10));
    }

    #[test]
    fn top_k_with_holes_and_wide_queries_equals_brute_force() {
        let nbits = 48;
        let mut idx = InvertedIndex::new(nbits);
        let mut tasks = Vec::new();
        for i in 0..300u32 {
            let i_us = i as usize;
            let v = kw(
                nbits,
                &[
                    i_us % nbits,
                    (i_us * 7 + 1) % nbits,
                    (i_us * 13 + 5) % nbits,
                ],
            );
            idx.insert(i, &v);
            tasks.push((i, v));
        }
        // Punch holes so emptied and thinned classes are exercised.
        for i in (0..300u32).step_by(7) {
            idx.remove(i);
        }
        tasks.retain(|(i, _)| i % 7 != 0);
        for k in [1usize, 5, 40, 1000] {
            for worker in [
                kw(nbits, &[0, 1, 2, 3]),
                kw(nbits, &(0..nbits).collect::<Vec<_>>()),
                kw(nbits, &[47]),
            ] {
                let got = idx.top_k(&worker, k);
                let want = brute_force(&tasks, &worker, k);
                assert_eq!(got.len(), want.len(), "k={k}");
                for (g, w) in got.iter().zip(&want) {
                    assert_eq!(g.0, w.0, "k={k}");
                    assert_eq!(g.1.to_bits(), w.1.to_bits(), "k={k}");
                }
            }
        }
    }
}

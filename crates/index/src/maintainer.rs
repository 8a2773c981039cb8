//! Incremental candidate-pool maintenance under open-set churn.
//!
//! The sparse assignment path regenerates every worker's top-k and the
//! pooled union from scratch each iteration ([`CandidatePool::generate`]),
//! which scans the whole index per worker — at 100k–1M open tasks that
//! regeneration dominates the iteration even though only a handful of
//! tasks changed. [`PoolMaintainer`] keeps each registered worker's top-k
//! list **live** across [`apply_insert`](PoolMaintainer::apply_insert) /
//! [`apply_remove`](PoolMaintainer::apply_remove) churn events, so
//! [`pool_for`](PoolMaintainer::pool_for) rebuilds the pool from maintained
//! lists in time proportional to churn, not catalog size.
//!
//! # Exactness
//!
//! The maintained invariant per worker is: *the list equals the top
//! `min(k, P)` positive-score open tasks, sorted by (score descending, id
//! ascending)*, where `P` is the number of open tasks with positive
//! overlap — exactly what [`InvertedIndex::top_k`] returns, element-wise
//! and bit-for-bit (scores use the same `overlap / (|t| + |w| − overlap)`
//! formula on the same exact integers).
//!
//! * **Insert** of an open task with positive overlap: if the list is not
//!   full it holds *all* positive tasks, so a sorted insert is exact; if it
//!   is full, the task belongs in the top-k iff it sorts before the current
//!   k-th entry, so insert-and-pop is exact. Zero overlap never appears in
//!   `top_k` output — skip.
//! * **Remove** of a task not on the list: if the list is short it held all
//!   positive tasks, so the task had zero overlap — no-op; if full, the
//!   task scored below the k-th entry and the top-k is unchanged — no-op.
//! * **Remove** of a listed task from a short list: the list held all
//!   positive tasks, so deletion is exact.
//! * **Remove** of a listed task from a *full* list is the one case that
//!   needs the `(k+1)`-th best, which the list does not carry: the entry is
//!   marked **stale** and the next `pool_for` recomputes it with one real
//!   `top_k` query. Only this case costs an index scan, so steady-state
//!   maintenance work tracks churn.
//!
//! Pool assembly then feeds the maintained lists through
//! [`CandidatePool::from_worker_topk`] — the same entry point
//! [`CandidatePool::generate`] ends in — so the resulting pool is
//! byte-identical to `generate` over the same index state.

use std::collections::HashMap;

use hta_core::KeywordVec;

use crate::pool::CandidatePool;
use crate::traits::TaskIndex;

/// How the pool membership changed between two consecutive
/// [`PoolMaintainer::pool_for`] calls (strictly increasing catalog ids) —
/// the hand-off the sparse edge cache consumes to refresh churn-
/// proportionally.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PoolDelta {
    /// Members of the previous pool missing from the new one.
    pub removed: Vec<u32>,
    /// Members of the new pool missing from the previous one.
    pub added: Vec<u32>,
}

#[derive(Debug, Clone)]
struct TopkEntry {
    /// The worker's keyword vector (index width).
    keywords: KeywordVec,
    /// Cached `keywords.count_ones()` — the `wlen` of the score formula.
    wlen: usize,
    /// Maintained top-k list, (score desc, id asc), scores exact.
    topk: Vec<(u32, f64)>,
    /// Set when a removal evicted a member of a full list; cleared by the
    /// `top_k` recompute in `pool_for`.
    stale: bool,
}

/// Live per-worker top-k lists plus the last pool membership. See the
/// [module docs](self).
#[derive(Debug, Clone)]
pub struct PoolMaintainer {
    /// Per-worker retrieval depth `k`.
    k: usize,
    /// Registered workers by caller-chosen stable id (the crowd platform
    /// uses the population index, the server its worker index).
    entries: HashMap<u64, TopkEntry>,
    /// Members of the pool `pool_for` last produced.
    last_members: Vec<u32>,
    /// Workers whose list was recomputed by the most recent `pool_for`.
    last_refreshed: usize,
}

impl PoolMaintainer {
    /// A maintainer with per-worker retrieval depth `k` and no registered
    /// workers; workers register lazily on first [`pool_for`](Self::pool_for).
    pub fn new(k: usize) -> Self {
        Self {
            k,
            entries: HashMap::new(),
            last_members: Vec::new(),
            last_refreshed: 0,
        }
    }

    /// The per-worker retrieval depth.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Number of registered workers.
    pub fn workers(&self) -> usize {
        self.entries.len()
    }

    /// How many cohort workers the most recent [`pool_for`](Self::pool_for)
    /// had to run a real `top_k` query for (first sight or stale); the rest
    /// reused their maintained list.
    pub fn last_refreshed(&self) -> usize {
        self.last_refreshed
    }

    /// Record that `task` (keywords `task_kw`, index width) was inserted
    /// into the index. `O(workers)` bit-ops; no index scans.
    pub fn apply_insert(&mut self, task: u32, task_kw: &KeywordVec) {
        let doc_len = task_kw.count_ones();
        for entry in self.entries.values_mut() {
            if entry.stale {
                continue; // will be recomputed wholesale anyway
            }
            if entry.keywords.nbits() != task_kw.nbits() {
                // The keyword universe widened under this entry (server
                // interning); recompute at the next pool rather than mix
                // vector widths.
                entry.stale = true;
                continue;
            }
            let overlap = entry.keywords.intersection_count(task_kw);
            if overlap == 0 {
                continue;
            }
            let score = overlap as f64 / (doc_len as f64 + entry.wlen as f64 - overlap as f64);
            let pos = entry
                .topk
                .partition_point(|&(id, s)| match s.total_cmp(&score) {
                    std::cmp::Ordering::Greater => true,
                    std::cmp::Ordering::Equal => id < task,
                    std::cmp::Ordering::Less => false,
                });
            if entry.topk.len() < self.k {
                entry.topk.insert(pos, (task, score));
            } else if pos < self.k {
                entry.topk.insert(pos, (task, score));
                entry.topk.pop();
            }
        }
    }

    /// Record that `task` was removed from the index. `O(workers × k)`;
    /// entries whose full list loses a member go stale (recomputed on the
    /// next [`pool_for`](Self::pool_for)).
    pub fn apply_remove(&mut self, task: u32) {
        for entry in self.entries.values_mut() {
            if entry.stale {
                continue;
            }
            let Some(pos) = entry.topk.iter().position(|&(id, _)| id == task) else {
                continue;
            };
            if entry.topk.len() == self.k {
                entry.stale = true;
            } else {
                entry.topk.remove(pos);
            }
        }
    }

    /// Assemble the candidate pool for `cohort` (stable worker ids with
    /// their index-width keyword vectors, in solve order) over the current
    /// `index` state, refreshing stale or unseen workers with real `top_k`
    /// queries first. Returns the pool — byte-identical to
    /// [`CandidatePool::generate`] on the same inputs — plus the membership
    /// delta against the previous `pool_for` result.
    pub fn pool_for<I: TaskIndex>(
        &mut self,
        index: &I,
        cohort: &[(u64, &KeywordVec)],
        xmax: usize,
    ) -> (CandidatePool, PoolDelta) {
        self.last_refreshed = 0;
        let mut lists: Vec<Vec<(u32, f64)>> = Vec::with_capacity(cohort.len());
        for &(id, kw) in cohort {
            let needs_refresh = match self.entries.get(&id) {
                Some(e) => e.stale || e.keywords != *kw,
                None => true,
            };
            if needs_refresh {
                self.last_refreshed += 1;
                let topk = index.top_k(kw, self.k);
                self.entries.insert(
                    id,
                    TopkEntry {
                        keywords: kw.clone(),
                        wlen: kw.count_ones(),
                        topk,
                        stale: false,
                    },
                );
            }
            lists.push(self.entries[&id].topk.clone());
        }
        let pool = CandidatePool::from_worker_topk(index, &lists, xmax);
        let delta = diff_members(&self.last_members, pool.members());
        self.last_members.clear();
        self.last_members.extend_from_slice(pool.members());
        (pool, delta)
    }

    /// Drop all maintained state (e.g. after a snapshot restore, where the
    /// index was rebuilt wholesale). The next `pool_for` recomputes every
    /// cohort worker and reports the full pool as added.
    pub fn reset(&mut self) {
        self.entries.clear();
        self.last_members.clear();
        self.last_refreshed = 0;
    }
}

/// Split two strictly-increasing member lists into a [`PoolDelta`].
fn diff_members(old: &[u32], new: &[u32]) -> PoolDelta {
    let mut delta = PoolDelta::default();
    let (mut i, mut j) = (0, 0);
    while i < old.len() && j < new.len() {
        match old[i].cmp(&new[j]) {
            std::cmp::Ordering::Less => {
                delta.removed.push(old[i]);
                i += 1;
            }
            std::cmp::Ordering::Greater => {
                delta.added.push(new[j]);
                j += 1;
            }
            std::cmp::Ordering::Equal => {
                i += 1;
                j += 1;
            }
        }
    }
    delta.removed.extend_from_slice(&old[i..]);
    delta.added.extend_from_slice(&new[j..]);
    delta
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pool::PoolParams;
    use crate::InvertedIndex;
    use hta_core::{Worker, WorkerId};

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

    const NBITS: usize = 32;

    fn task_kw(i: u32) -> KeywordVec {
        KeywordVec::from_indices(
            NBITS,
            &[
                i as usize % NBITS,
                (i as usize * 7 + 1) % NBITS,
                (i as usize * 13 + 5) % NBITS,
            ],
        )
    }

    fn worker_kws(n: usize) -> Vec<KeywordVec> {
        (0..n)
            .map(|w| KeywordVec::from_indices(NBITS, &[(w * 5) % NBITS, (w * 11 + 2) % NBITS]))
            .collect()
    }

    /// The ground truth the maintainer must reproduce byte-for-byte.
    fn generate_reference(
        index: &InvertedIndex,
        kws: &[KeywordVec],
        xmax: usize,
        k: usize,
    ) -> CandidatePool {
        let workers: Vec<Worker> = kws
            .iter()
            .enumerate()
            .map(|(i, kw)| Worker::new(WorkerId(i as u32), kw.clone()))
            .collect();
        CandidatePool::generate(index, &workers, xmax, &PoolParams::with_k(k))
    }

    #[test]
    fn maintained_pool_equals_generate_across_churn() {
        let k = 4;
        let xmax = 3;
        let mut index = InvertedIndex::new(NBITS);
        let mut maint = PoolMaintainer::new(k);
        let kws = worker_kws(6);
        let cohort_ids: Vec<u64> = (0..6).collect();

        let mut open: Vec<u32> = Vec::new();
        let mut rng = Mix(42);
        for t in 0..60u32 {
            index.insert(t, &task_kw(t));
            maint.apply_insert(t, &task_kw(t));
            open.push(t);
        }
        let mut prev_members: Vec<u32> = Vec::new();
        for step in 0..50 {
            let cohort: Vec<(u64, &KeywordVec)> = cohort_ids
                .iter()
                .map(|&id| (id, &kws[id as usize]))
                .collect();
            let (pool, delta) = maint.pool_for(&index, &cohort, xmax);
            let want = generate_reference(&index, &kws, xmax, k);
            assert_eq!(pool.members(), want.members(), "step {step}");
            assert_eq!(pool.topk_hits(), want.topk_hits(), "step {step}");
            // The delta must reconcile the previous members into the new.
            let mut rebuilt: Vec<u32> = prev_members
                .iter()
                .copied()
                .filter(|m| !delta.removed.contains(m))
                .chain(delta.added.iter().copied())
                .collect();
            rebuilt.sort_unstable();
            assert_eq!(rebuilt, pool.members(), "step {step}");
            prev_members = pool.members().to_vec();

            // Churn: remove a few open tasks, add a few new ones.
            for _ in 0..(rng.next() % 4) {
                if open.is_empty() {
                    break;
                }
                let victim = open.swap_remove((rng.next() as usize) % open.len());
                index.remove(victim);
                maint.apply_remove(victim);
            }
            for _ in 0..(rng.next() % 4) {
                let t = 60 + (step as u32) * 4 + (rng.next() % 4) as u32;
                if index.insert(t, &task_kw(t)) {
                    maint.apply_insert(t, &task_kw(t));
                    open.push(t);
                }
            }
        }
    }

    #[test]
    fn maintained_topk_scores_are_bit_identical() {
        let k = 5;
        let mut index = InvertedIndex::new(NBITS);
        let mut maint = PoolMaintainer::new(k);
        let kw = &worker_kws(1)[0];
        for t in 0..40u32 {
            index.insert(t, &task_kw(t));
        }
        // First sight: real query.
        let (_, _) = maint.pool_for(&index, &[(0, kw)], 2);
        // Incremental inserts and a short-list removal.
        for t in 40..50u32 {
            index.insert(t, &task_kw(t));
            maint.apply_insert(t, &task_kw(t));
        }
        index.remove(13);
        maint.apply_remove(13);
        let (_, _) = maint.pool_for(&index, &[(0, kw)], 2);
        let maintained = &maint.entries[&0].topk;
        let fresh = index.top_k(kw, k);
        assert_eq!(maintained.len(), fresh.len());
        for (a, b) in maintained.iter().zip(&fresh) {
            assert_eq!(a.0, b.0);
            assert_eq!(a.1.to_bits(), b.1.to_bits(), "score bits for task {}", a.0);
        }
    }

    #[test]
    fn only_full_list_evictions_force_recomputes() {
        let k = 8;
        let mut index = InvertedIndex::new(NBITS);
        let mut maint = PoolMaintainer::new(k);
        let kws = worker_kws(3);
        for t in 0..30u32 {
            index.insert(t, &task_kw(t));
        }
        let cohort: Vec<(u64, &KeywordVec)> = kws
            .iter()
            .enumerate()
            .map(|(i, kw)| (i as u64, kw))
            .collect();
        maint.pool_for(&index, &cohort, 4);
        assert_eq!(maint.last_refreshed(), 3, "first sight computes all");

        // Pure inserts never stale a list.
        for t in 30..35u32 {
            index.insert(t, &task_kw(t));
            maint.apply_insert(t, &task_kw(t));
        }
        maint.pool_for(&index, &cohort, 4);
        assert_eq!(maint.last_refreshed(), 0, "inserts are absorbed in place");
    }

    #[test]
    fn reset_forgets_everything() {
        let mut index = InvertedIndex::new(NBITS);
        let mut maint = PoolMaintainer::new(3);
        let kws = worker_kws(2);
        for t in 0..10u32 {
            index.insert(t, &task_kw(t));
        }
        let cohort: Vec<(u64, &KeywordVec)> = kws
            .iter()
            .enumerate()
            .map(|(i, kw)| (i as u64, kw))
            .collect();
        let (pool, _) = maint.pool_for(&index, &cohort, 2);
        maint.reset();
        assert_eq!(maint.workers(), 0);
        let (again, delta) = maint.pool_for(&index, &cohort, 2);
        assert_eq!(pool.members(), again.members());
        assert_eq!(delta.added, again.members());
        assert!(delta.removed.is_empty());
    }

    #[test]
    fn changed_worker_keywords_force_a_refresh() {
        let mut index = InvertedIndex::new(NBITS);
        let mut maint = PoolMaintainer::new(4);
        for t in 0..20u32 {
            index.insert(t, &task_kw(t));
        }
        let kw_a = KeywordVec::from_indices(NBITS, &[0, 5]);
        let kw_b = KeywordVec::from_indices(NBITS, &[1, 9]);
        maint.pool_for(&index, &[(7, &kw_a)], 2);
        assert_eq!(maint.last_refreshed(), 1);
        let (pool, _) = maint.pool_for(&index, &[(7, &kw_b)], 2);
        assert_eq!(maint.last_refreshed(), 1, "new keywords, new query");
        let workers = vec![Worker::new(WorkerId(0), kw_b.clone())];
        let want = CandidatePool::generate(&index, &workers, 2, &PoolParams::with_k(4));
        assert_eq!(pool.members(), want.members());
    }
}

//! Property tests for the index subsystem.
//!
//! Three invariants hold the whole sparse pipeline together:
//! 1. incremental maintenance is *exact* — an index that saw any interleaving
//!    of inserts and removes equals a fresh bulk build over the surviving
//!    tasks;
//! 2. retrieval is *exact* — under the same histories (widening included,
//!    on duplicate-heavy and all-distinct catalogs) the index holds what a
//!    brute-force oracle holds and `top_k` returns what scoring every open
//!    task does;
//! 3. sparse candidate generation does not destroy solution quality — the
//!    HTA-GRE objective over the candidate pool stays within a constant
//!    factor of the dense solve on small instances.

use hta_core::prelude::*;
use hta_core::state::{decode, encode};
use hta_core::{OpenSetSession, Round};
use hta_index::{assign_round, CandidateMode, FullWindow, InvertedIndex};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Comparison-friendly view of an index: every open task with its
/// keyword ids, ascending by task.
fn snapshot(index: &InvertedIndex) -> Vec<(u32, Vec<u32>)> {
    index
        .open_tasks()
        .map(|t| (t, index.keywords_of(t).collect()))
        .collect()
}

proptest! {
    /// Insert everything, remove a subset, re-insert part of that subset:
    /// the result must equal a fresh bulk build over the surviving tasks,
    /// task by task.
    #[test]
    fn insert_remove_round_trip_equals_fresh_build(
        kw_picks in proptest::collection::vec(
            proptest::collection::vec(0usize..24, 0..5),
            1..40,
        ),
        removals in proptest::collection::vec(0u8..2, 40),
        reinserts in proptest::collection::vec(0u8..2, 40),
    ) {
        let nbits = 24;
        let vecs: Vec<KeywordVec> = kw_picks
            .iter()
            .map(|picks| {
                let mut v = KeywordVec::new(nbits);
                for &b in picks {
                    v.set(b);
                }
                v
            })
            .collect();

        let mut live: Vec<bool> = vec![true; vecs.len()];
        let mut index = InvertedIndex::new(nbits);
        for (i, v) in vecs.iter().enumerate() {
            prop_assert!(index.insert(i as u32, v));
        }
        for (i, _) in vecs.iter().enumerate() {
            if removals[i] == 1 {
                prop_assert!(index.remove(i as u32));
                live[i] = false;
            }
        }
        for (i, v) in vecs.iter().enumerate() {
            if !live[i] && reinserts[i] == 1 {
                prop_assert!(index.insert(i as u32, v));
                live[i] = true;
            }
        }

        let survivors: Vec<(u32, &KeywordVec)> = vecs
            .iter()
            .enumerate()
            .filter(|&(i, _)| live[i])
            .map(|(i, v)| (i as u32, v))
            .collect();
        let fresh = InvertedIndex::build(nbits, &survivors);

        prop_assert_eq!(index.len(), fresh.len());
        prop_assert_eq!(snapshot(&index), snapshot(&fresh));
        // Per-task views agree too.
        for &(id, v) in &survivors {
            prop_assert_eq!(index.keyword_count(id), Some(v.count_ones()));
            let got: Vec<u32> = index.keywords_of(id).collect();
            let want: Vec<u32> = v.iter_ones().map(|b| b as u32).collect();
            prop_assert_eq!(got, want);
        }
    }
}

/// The oracle's `top_k`: score every open task exactly from its keyword
/// vector, keep the ones sharing a keyword, sort by (score desc, id asc)
/// and cut to `k`. No posting list and no pruning is involved.
fn brute_force_top_k(
    open: &[Option<KeywordVec>],
    worker: &KeywordVec,
    k: usize,
) -> Vec<(u32, f64)> {
    let mut scored: Vec<(u32, f64)> = open
        .iter()
        .enumerate()
        .filter_map(|(id, v)| {
            let v = v.as_ref()?;
            let overlap = v.intersection_count(worker);
            (overlap > 0).then(|| (id as u32, overlap as f64 / v.union_count(worker) as f64))
        })
        .collect();
    scored.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
    scored.truncate(k);
    scored
}

proptest! {
    /// Under any interleaving of inserts and removes, the index agrees with
    /// a brute-force oracle (a table of the open tasks' keyword vectors):
    /// same open-task set, same per-keyword reach and per-task keywords, and
    /// **byte-identical** `top_k` results (same ids, same `f64` score bits,
    /// same tie order). Exact float equality is deliberate — both sides
    /// evaluate `overlap / union` on the same integers.
    #[test]
    fn index_equals_brute_force_oracle_under_interleaving(
        kw_picks in proptest::collection::vec(
            proptest::collection::vec(0usize..24, 0..5),
            1..40,
        ),
        removals in proptest::collection::vec(0u8..2, 40),
        reinserts in proptest::collection::vec(0u8..2, 40),
        worker_picks in proptest::collection::vec(
            proptest::collection::vec(0usize..24, 1..6),
            1..4,
        ),
        k in 1usize..8,
    ) {
        let nbits = 24;
        let vecs: Vec<KeywordVec> = kw_picks
            .iter()
            .map(|picks| {
                let mut v = KeywordVec::new(nbits);
                for &b in picks {
                    v.set(b);
                }
                v
            })
            .collect();

        let mut index = InvertedIndex::new(nbits);
        let mut oracle: Vec<Option<KeywordVec>> = vec![None; vecs.len()];
        for (i, v) in vecs.iter().enumerate() {
            prop_assert!(index.insert(i as u32, v));
            oracle[i] = Some(v.clone());
        }
        for i in 0..vecs.len() {
            if removals[i] == 1 {
                prop_assert!(index.remove(i as u32));
                prop_assert!(!index.remove(i as u32), "double remove is a no-op");
                oracle[i] = None;
            }
        }
        for (i, v) in vecs.iter().enumerate() {
            if oracle[i].is_none() && reinserts[i] == 1 {
                prop_assert!(index.insert(i as u32, v));
                oracle[i] = Some(v.clone());
            }
        }

        let open: Vec<u32> = (0..vecs.len() as u32)
            .filter(|&i| oracle[i as usize].is_some())
            .collect();
        prop_assert_eq!(index.open_tasks().collect::<Vec<_>>(), open.clone());
        prop_assert_eq!(index.len(), open.len());
        // A one-keyword query reaches exactly the open tasks carrying it.
        for b in 0..nbits {
            let mut got: Vec<u32> = index
                .top_k(&KeywordVec::from_indices(nbits, &[b]), vecs.len())
                .into_iter()
                .map(|(t, _)| t)
                .collect();
            got.sort_unstable();
            let want: Vec<u32> = open
                .iter()
                .copied()
                .filter(|&t| oracle[t as usize].as_ref().is_some_and(|v| v.get(b)))
                .collect();
            prop_assert_eq!(got, want, "keyword {}", b);
        }
        // The written state reads back to the same content.
        let back: InvertedIndex = decode(&encode(&index)).expect("round trip");
        prop_assert_eq!(snapshot(&back), snapshot(&index));
        for &t in &open {
            let v = oracle[t as usize].as_ref().unwrap();
            let want: Vec<u32> = v.iter_ones().map(|b| b as u32).collect();
            prop_assert_eq!(index.keywords_of(t).collect::<Vec<_>>(), want);
        }
        for picks in &worker_picks {
            let mut w = KeywordVec::new(nbits);
            for &b in picks {
                w.set(b);
            }
            // Exact Vec<(u32, f64)> equality: ids, score bits, order.
            prop_assert_eq!(index.top_k(&w, k), brute_force_top_k(&oracle, &w, k));
        }
    }
}

/// One step of index churn.
#[derive(Debug, Clone)]
enum Op {
    Insert(usize),
    Remove(usize),
    /// Widen the universe by the given number of keywords.
    Widen(usize),
    /// Query with the given keyword ids and depth.
    Query(Vec<usize>, usize),
}

fn op_strategy(tasks: usize) -> impl Strategy<Value = Op> {
    (
        0u8..10,
        0..tasks,
        1usize..40,
        proptest::collection::vec(0usize..72, 1..6),
        1usize..12,
    )
        .prop_map(|(kind, task, by, worker, k)| match kind {
            0..=3 => Op::Insert(task),
            4..=6 => Op::Remove(task),
            7 => Op::Widen(by),
            _ => Op::Query(worker, k),
        })
}

/// The oracle's `top_k` over keyword-id lists: score every open task
/// exactly, keep positive overlaps, sort by (score desc, id asc), cut to
/// `k`.
fn brute_force_by_ids(open: &[Option<Vec<usize>>], worker: &[usize], k: usize) -> Vec<(u32, f64)> {
    let wlen = worker.len() as f64;
    let mut scored: Vec<(u32, f64)> = open
        .iter()
        .enumerate()
        .filter_map(|(id, t)| {
            let t = t.as_ref()?;
            let overlap = t.iter().filter(|b| worker.contains(b)).count() as f64;
            (overlap > 0.0).then(|| (id as u32, overlap / (t.len() as f64 + wlen - overlap)))
        })
        .collect();
    scored.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
    scored.truncate(k);
    scored
}

/// Replay `ops` on an index over `sets` (task id = position) against the
/// brute-force oracle. Each task is inserted at the universe width current
/// at that moment, so widening must never split a keyword class.
fn check_churn(sets: &[Vec<usize>], ops: &[Op]) -> Result<(), TestCaseError> {
    let mut nbits = 24;
    let mut index = InvertedIndex::new(nbits);
    let mut oracle: Vec<Option<Vec<usize>>> = vec![None; sets.len()];
    for op in ops {
        match op {
            Op::Insert(t) => {
                let t = t % sets.len();
                let v = KeywordVec::from_indices(nbits, &sets[t]);
                prop_assert_eq!(index.insert(t as u32, &v), oracle[t].is_none());
                oracle[t] = Some(sets[t].clone());
            }
            Op::Remove(t) => {
                let t = t % sets.len();
                prop_assert_eq!(index.remove(t as u32), oracle[t].is_some());
                oracle[t] = None;
            }
            Op::Widen(by) => {
                nbits += by;
                index.widen(nbits);
                prop_assert_eq!(index.nbits(), nbits);
            }
            Op::Query(worker, k) => {
                let mut worker: Vec<usize> = worker.iter().map(|b| b % nbits).collect();
                worker.sort_unstable();
                worker.dedup();
                let w = KeywordVec::from_indices(nbits, &worker);
                prop_assert_eq!(
                    index.top_k(&w, *k),
                    brute_force_by_ids(&oracle, &worker, *k)
                );
            }
        }
    }
    let open: Vec<u32> = (0..sets.len() as u32)
        .filter(|&t| oracle[t as usize].is_some())
        .collect();
    prop_assert_eq!(index.open_tasks().collect::<Vec<_>>(), open.clone());
    prop_assert_eq!(index.len(), open.len());
    for &t in &open {
        let want: Vec<u32> = oracle[t as usize]
            .as_ref()
            .unwrap()
            .iter()
            .map(|&b| b as u32)
            .collect();
        prop_assert_eq!(index.keywords_of(t).collect::<Vec<_>>(), want);
    }
    let back: InvertedIndex = decode(&encode(&index)).expect("round trip");
    prop_assert_eq!(snapshot(&back), snapshot(&index));
    prop_assert_eq!(encode(&back), encode(&index));
    let w = KeywordVec::from_indices(nbits, &[0, 3, 5, 9, 17, 23]);
    prop_assert_eq!(back.top_k(&w, 50), index.top_k(&w, 50));
    Ok(())
}

/// Sorted, deduplicated keyword ids below 24.
fn keyword_set() -> impl Strategy<Value = Vec<usize>> {
    proptest::collection::vec(0usize..24, 0..5).prop_map(|mut set| {
        set.sort_unstable();
        set.dedup();
        set
    })
}

proptest! {
    /// Duplicate-heavy catalog: every task carries one of 2–5 keyword sets,
    /// so classes hold many tasks and equal-score classes must merge by id.
    #[test]
    fn class_index_equals_brute_force_on_duplicate_heavy_catalogs(
        kinds in proptest::collection::vec(keyword_set(), 2..=5),
        picks in proptest::collection::vec(0usize..5, 1..60),
        ops in proptest::collection::vec(op_strategy(60), 1..120),
    ) {
        let sets: Vec<Vec<usize>> = picks.iter().map(|&p| kinds[p % kinds.len()].clone()).collect();
        check_churn(&sets, &ops)?;
    }

    /// All-distinct catalog: every class holds at most one task, so every
    /// insert opens a class and every remove closes one.
    #[test]
    fn class_index_equals_brute_force_on_all_distinct_catalogs(
        drawn in proptest::collection::vec(keyword_set(), 1..60),
        ops in proptest::collection::vec(op_strategy(60), 1..120),
    ) {
        let mut sets: Vec<Vec<usize>> = Vec::new();
        for set in drawn {
            if !sets.contains(&set) {
                sets.push(set);
            }
        }
        check_churn(&sets, &ops)?;
    }
}

/// Build a deterministic engine over `n_tasks`/`n_workers` derived from a
/// seed, so the dense and sparse runs see identical inputs.
fn make_pools(seed: u64, n_tasks: usize, n_workers: usize) -> (TaskPool, WorkerPool) {
    let nbits = 20;
    let mut s = seed;
    let mut next = move || {
        // SplitMix64: cheap deterministic stream independent of the solver's
        // RNG, so shrinking the instance never shifts task contents.
        s = s.wrapping_add(0x9E3779B97F4A7C15);
        let mut z = s;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
        z ^ (z >> 31)
    };
    let mut tasks = TaskPool::new();
    for _ in 0..n_tasks {
        let mut v = KeywordVec::new(nbits);
        let n_kw = 1 + (next() % 4) as usize;
        for _ in 0..n_kw {
            v.set((next() % nbits as u64) as usize);
        }
        tasks.push(GroupId((next() % 3) as u32), v);
    }
    let mut workers = WorkerPool::new();
    for _ in 0..n_workers {
        let mut v = KeywordVec::new(nbits);
        for _ in 0..(1 + (next() % 3) as usize) {
            v.set((next() % nbits as u64) as usize);
        }
        let alpha = (next() % 5) as f64 / 4.0;
        workers.push(v, Weights::from_alpha(alpha));
    }
    (tasks, workers)
}

proptest! {
    /// On small instances (≤ 12 tasks) the sparse pipeline's HTA-GRE
    /// objective stays within a factor 2 of the dense solve. The pool
    /// guarantees feasibility (`|pool| ≥ |W| · X_max`) and holds every
    /// worker's most relevant tasks, so quality loss is bounded in practice;
    /// this pins the pipeline against regressions like an off-by-one pool
    /// floor or a broken catalog back-map (which show up as wild ratios or
    /// validation panics).
    #[test]
    fn sparse_objective_within_factor_of_dense(
        seed in 0u64..10_000,
        n_tasks in 1usize..=12,
        n_workers in 1usize..=3,
        xmax in 1usize..=3,
    ) {
        let (tasks, workers) = make_pools(seed, n_tasks, n_workers);

        let mut dense = IterationEngine::new(tasks.clone(), workers.clone(), xmax).unwrap();
        let mut rng = StdRng::seed_from_u64(seed ^ 0xD15EA5E);
        let dense_obj = dense.run_iteration(&HtaGre::new(), &mut rng).unwrap().objective;

        // The shared assignment round over a top-k pool. Retrieval depth =
        // xmax: each worker's pool share can fill its capacity with its own
        // most relevant tasks.
        let pairs: Vec<(u32, &KeywordVec)> =
            tasks.tasks().iter().map(|t| (t.id.0, &t.keywords)).collect();
        let index = InvertedIndex::build(20, &pairs);
        let round = Round {
            workers: workers.workers().to_vec(),
            task: &|t| tasks.get(TaskId(t)),
            xmax,
            distance: std::sync::Arc::new(Jaccard),
            solver: &HtaGre::new(),
        };
        let mut rng = StdRng::seed_from_u64(seed ^ 0xD15EA5E);
        let sparse_obj = assign_round(
            &mut OpenSetSession::Off,
            CandidateMode::TopK(xmax),
            FullWindow::All,
            &index,
            &vec![true; tasks.len()],
            round,
            &mut rng,
        )
        .unwrap()
        .expect("a task is open")
        .0
        .objective();

        // Eq. 3 is evaluated on the assigned tasks only, so pool-local and
        // full-instance objectives are directly comparable.
        prop_assert!(
            sparse_obj >= 0.5 * dense_obj - 1e-9,
            "sparse {} < 0.5 × dense {}",
            sparse_obj,
            dense_obj
        );
    }
}

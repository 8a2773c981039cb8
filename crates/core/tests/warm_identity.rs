//! Warm-start identity: `solve_warm` must be byte-identical to a cold solve
//! at every churn level and thread count — same assigned sets, bit-equal
//! LSAP value — including after the warm state is torn down to its
//! serialized essence (fingerprint + open list) and rebuilt mid-sequence,
//! which is exactly what `hta resume` does — and across the guard
//! ladder's pair rule, where open sets too small to pay for the catalog's
//! edge list solve cold.

use std::cell::RefCell;

use hta_core::bitvec::KeywordVec;
use hta_core::edges::DiversityEdgeCache;
use hta_core::instance::Instance;
use hta_core::metric::{Distance, Jaccard};
use hta_core::solver::{
    solve_open_subset, solve_open_subset_warm, HtaApp, HtaGre, SolveOutcome, Solver, WarmState,
};
use hta_core::task::{GroupId, Task, TaskId};
use hta_core::worker::{Weights, Worker, WorkerId};
use hta_matching::WeightedEdge;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

const NBITS: usize = 24;

fn catalog(n: usize) -> Vec<Task> {
    (0..n)
        .map(|i| {
            Task::new(
                TaskId(i as u32),
                GroupId((i % 3) as u32),
                KeywordVec::from_indices(
                    NBITS,
                    &[i % NBITS, (i * 5 + 3) % NBITS, (i * 11 + 7) % NBITS],
                ),
            )
        })
        .collect()
}

/// The sub-instance a cohort caller builds for an open subset: local task
/// ids 0.. in open order, fixed worker pool.
fn sub_instance(tasks: &[Task], open: &[u32], xmax: usize) -> Instance {
    let local: Vec<Task> = open
        .iter()
        .enumerate()
        .map(|(li, &ci)| {
            let t = &tasks[ci as usize];
            Task::new(TaskId(li as u32), t.group, t.keywords.clone())
        })
        .collect();
    let workers = vec![
        Worker::new(WorkerId(0), tasks[0].keywords.clone()).with_weights(Weights::balanced()),
        Worker::new(WorkerId(1), tasks[1].keywords.clone()).with_weights(Weights::from_alpha(0.8)),
        Worker::new(WorkerId(2), tasks[2].keywords.clone()).with_weights(Weights::from_alpha(0.2)),
    ];
    Instance::new(local, workers, xmax).unwrap()
}

/// Toggle `⌈n·num/den⌉` uniformly-drawn catalog ids in `open` (remove if
/// present, add if absent) — `num/den` is the churn fraction.
fn apply_churn(open: &mut Vec<u32>, n: usize, num: usize, den: usize, rng: &mut StdRng) {
    let flips = if num == 0 { 0 } else { (n * num).div_ceil(den) };
    for _ in 0..flips {
        let v = rng.random_range(0..n as u32);
        match open.binary_search(&v) {
            Ok(i) => {
                open.remove(i);
            }
            Err(i) => open.insert(i, v),
        }
    }
}

/// One churned sequence of solves for one solver at one thread count,
/// asserting warm ≡ cold at every step. `restore_at` tears the warm state
/// down to (fingerprint, open list) and rebuilds it before that step.
fn assert_sequence_identical(
    solver: &dyn Solver,
    tasks: &[Task],
    cache: &DiversityEdgeCache,
    churn: (usize, usize),
    seed: u64,
    restore_at: Option<usize>,
) -> Result<(), TestCaseError> {
    let n = tasks.len();
    let mut warm = WarmState::new(cache);
    let mut open: Vec<u32> = (0..n as u32).collect();
    let mut churn_rng = StdRng::seed_from_u64(seed ^ 0xC0FFEE);
    for step in 0..5 {
        if restore_at == Some(step) {
            let snapshot_open = warm.open_list().to_vec();
            warm = WarmState::restore(cache, &snapshot_open);
        }
        if open.len() >= 2 {
            let inst = sub_instance(tasks, &open, 3);
            let open_usize: Vec<usize> = open.iter().map(|&g| g as usize).collect();
            let solve_seed = seed.wrapping_add(step as u64);
            let cold = solve_open_subset(
                solver,
                &inst,
                &open_usize,
                Some(cache),
                &mut StdRng::seed_from_u64(solve_seed),
            );
            let hot = solve_open_subset_warm(
                solver,
                &inst,
                &open_usize,
                Some(cache),
                Some(&mut warm),
                &mut StdRng::seed_from_u64(solve_seed),
            );
            prop_assert_eq!(
                hot.assignment.sets(),
                cold.assignment.sets(),
                "{} diverges at churn {}/{} step {}",
                solver.name(),
                churn.0,
                churn.1,
                step
            );
            prop_assert_eq!(hot.lsap_value.to_bits(), cold.lsap_value.to_bits());
        }
        apply_churn(&mut open, n, churn.0, churn.1, &mut churn_rng);
    }
    Ok(())
}

/// A solver that records which entry point each solve took.
struct Logged<S> {
    inner: S,
    entries: RefCell<Vec<&'static str>>,
}

impl<S: Solver> Logged<S> {
    fn new(inner: S) -> Self {
        Self {
            inner,
            entries: RefCell::new(Vec::new()),
        }
    }

    fn took(&self, entry: &'static str) -> bool {
        self.entries.borrow().contains(&entry)
    }
}

impl<S: Solver> Solver for Logged<S> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn solve(&self, inst: &Instance, rng: &mut dyn rand::Rng) -> SolveOutcome {
        self.entries.borrow_mut().push("cold");
        self.inner.solve(inst, rng)
    }

    fn solve_with_diversity_edges(
        &self,
        inst: &Instance,
        sorted_edges: &[WeightedEdge],
        rng: &mut dyn rand::Rng,
    ) -> SolveOutcome {
        self.entries.borrow_mut().push("edges");
        self.inner
            .solve_with_diversity_edges(inst, sorted_edges, rng)
    }

    fn solve_warm(
        &self,
        inst: &Instance,
        cache: &DiversityEdgeCache,
        warm: &mut WarmState,
        open: &[u32],
        rng: &mut dyn rand::Rng,
    ) -> SolveOutcome {
        self.entries.borrow_mut().push("warm");
        self.inner.solve_warm(inst, cache, warm, open, rng)
    }
}

/// Fewest open tasks whose pairs pay for an `n`-task catalog's edge list:
/// the smallest `m` with `m(m−1)/2 ≥ n`.
fn min_cached_open(n: usize) -> usize {
    (2..).find(|m| m * (m - 1) / 2 >= n).unwrap()
}

/// One warm state over a sequence of open sets that alternate between
/// sizes the cache serves and sizes below the pair rule, rebuilt from its
/// serialized essence before step `restore_at`. Every step must equal a
/// plain cold solve; the warm state must only move on warm steps; both
/// routes must fire.
fn assert_sequence_crosses_the_rule(
    inner: impl Solver,
    n: usize,
    large: &[bool],
    seed: u64,
    restore_at: usize,
) -> Result<(), TestCaseError> {
    let tasks = catalog(n);
    let cache = DiversityEdgeCache::build(&tasks, &Jaccard, 1);
    let solver = Logged::new(inner);
    let mut warm = WarmState::new(&cache);
    let mut rng = StdRng::seed_from_u64(seed);
    let threshold = min_cached_open(n);
    for (step, &large) in large.iter().enumerate() {
        if step == restore_at {
            let snapshot_open = warm.open_list().to_vec();
            warm = WarmState::restore(&cache, &snapshot_open);
        }
        let m = if large {
            rng.random_range(threshold..=n)
        } else {
            rng.random_range(2..threshold)
        };
        let mut open: Vec<u32> = (0..n as u32).collect();
        for i in 0..n {
            open.swap(i, rng.random_range(i..n));
        }
        open.truncate(m);
        open.sort_unstable();
        let inst = sub_instance(&tasks, &open, 3);
        let open_usize: Vec<usize> = open.iter().map(|&g| g as usize).collect();
        let before = warm.open_list().to_vec();
        let solve_seed = seed.wrapping_add(step as u64);
        let hot = solve_open_subset_warm(
            &solver,
            &inst,
            &open_usize,
            Some(&cache),
            Some(&mut warm),
            &mut StdRng::seed_from_u64(solve_seed),
        );
        let cold = solver
            .inner
            .solve(&inst, &mut StdRng::seed_from_u64(solve_seed));
        prop_assert_eq!(
            hot.assignment.sets(),
            cold.assignment.sets(),
            "{} diverges at step {} ({} of {} tasks open)",
            solver.name(),
            step,
            m,
            n
        );
        prop_assert_eq!(hot.lsap_value.to_bits(), cold.lsap_value.to_bits());
        let entry = *solver.entries.borrow().last().unwrap();
        prop_assert_eq!(entry, if large { "warm" } else { "cold" }, "step {}", step);
        if large {
            prop_assert_eq!(warm.open_list(), &open[..], "step {}", step);
        } else {
            prop_assert_eq!(warm.open_list(), &before[..], "step {}", step);
        }
    }
    prop_assert!(solver.took("warm") && solver.took("cold"));
    prop_assert!(!solver.took("edges"));
    Ok(())
}

proptest! {
    #[test]
    fn solve_warm_is_byte_identical_to_cold(
        seed in 0u64..1 << 40,
        n in 20usize..30,
        churn_idx in 0usize..4,
        threads_idx in 0usize..3,
    ) {
        // The issue's grid: churn {0, 1/64, 1/4, 1} × threads {1, 2, 7} ×
        // greedy/auction LSAP; each sampled case exercises one grid cell so
        // the 96-case run covers every cell several times. With n < 64 the
        // 1/64 fraction rounds up to a single-task delta — the steady-state
        // case the repair path exists for — while churn 1/1 swaps
        // essentially the whole open set.
        let churn = [(0usize, 1usize), (1, 64), (1, 4), (1, 1)][churn_idx];
        let threads = [1usize, 2, 7][threads_idx];
        let tasks = catalog(n);
        let cache = DiversityEdgeCache::build(&tasks, &Jaccard, 1);
        let gre = HtaGre::structured().with_threads(threads);
        assert_sequence_identical(&gre, &tasks, &cache, churn, seed, None)?;
        let auction = HtaApp::new().with_auction_lsap().with_threads(threads);
        assert_sequence_identical(&auction, &tasks, &cache, churn, seed, None)?;
    }

    #[test]
    fn warm_state_survives_snapshot_restore_mid_sequence(
        seed in 0u64..1 << 40,
        churn_idx in 1usize..3,
        threads_idx in 0usize..3,
    ) {
        // Rebuilding the warm state from its serialized essence between
        // steps (what `hta resume` does) must not perturb any later solve.
        let churn = [(0usize, 1usize), (1, 64), (1, 4)][churn_idx];
        let threads = [1usize, 2, 7][threads_idx];
        let tasks = catalog(26);
        let cache = DiversityEdgeCache::build(&tasks, &Jaccard, 1);
        let gre = HtaGre::structured().with_threads(threads);
        assert_sequence_identical(&gre, &tasks, &cache, churn, seed, Some(2))?;
        let auction = HtaApp::new().with_auction_lsap().with_threads(threads);
        assert_sequence_identical(&auction, &tasks, &cache, churn, seed, Some(3))?;
    }

    #[test]
    fn warm_state_is_byte_identical_across_the_pair_rule(
        seed in 0u64..1 << 40,
        n in 30usize..50,
        kinds in proptest::collection::vec(0usize..2, 6..10),
        restore_at in 2usize..6,
        threads_idx in 0usize..3,
    ) {
        // The first step builds the matching and the second solves below
        // the rule, so both routes fire whatever the draw; the restore
        // lands after a warm step.
        let mut large: Vec<bool> = kinds.iter().map(|&k| k == 1).collect();
        large[0] = true;
        large[1] = false;
        let threads = [1usize, 2, 7][threads_idx];
        let gre = HtaGre::structured().with_threads(threads);
        assert_sequence_crosses_the_rule(gre, n, &large, seed, restore_at)?;
        let auction = HtaApp::new().with_auction_lsap().with_threads(threads);
        assert_sequence_crosses_the_rule(auction, n, &large, seed, restore_at)?;
    }
}

/// Non-property regressions for the warm path's guard rails.
mod guards {
    use super::*;

    #[test]
    fn mismatched_warm_state_falls_back_without_touching_it() {
        let tasks = catalog(20);
        let cache = DiversityEdgeCache::build(&tasks, &Jaccard, 1);
        let other = DiversityEdgeCache::build(&catalog(18), &Jaccard, 1);
        let mut warm = WarmState::new(&other); // bound to the wrong catalog
        let open: Vec<usize> = (0..20).collect();
        let open_u32: Vec<u32> = (0..20).collect();
        let inst = sub_instance(&tasks, &open_u32, 3);
        let solver = HtaGre::structured();
        let cold = solve_open_subset(
            &solver,
            &inst,
            &open,
            Some(&cache),
            &mut StdRng::seed_from_u64(5),
        );
        let out = solve_open_subset_warm(
            &solver,
            &inst,
            &open,
            Some(&cache),
            Some(&mut warm),
            &mut StdRng::seed_from_u64(5),
        );
        assert_eq!(out.assignment.sets(), cold.assignment.sets());
        assert_eq!(out.lsap_value.to_bits(), cold.lsap_value.to_bits());
        // Fallback must not have installed an open set into the stale state.
        assert!(warm.open_list().is_empty());
        assert!(!warm.matches_cache(&cache));
    }

    #[test]
    fn unsorted_open_set_falls_back_to_plain_solve() {
        let tasks = catalog(16);
        let cache = DiversityEdgeCache::build(&tasks, &Jaccard, 1);
        let mut warm = WarmState::new(&cache);
        let open = vec![9usize, 2, 11, 5];
        let open_u32: Vec<u32> = open.iter().map(|&g| g as u32).collect();
        let inst = sub_instance(&tasks, &open_u32, 3);
        let solver = HtaGre::structured();
        let plain = solver.solve(&inst, &mut StdRng::seed_from_u64(3));
        let out = solve_open_subset_warm(
            &solver,
            &inst,
            &open,
            Some(&cache),
            Some(&mut warm),
            &mut StdRng::seed_from_u64(3),
        );
        assert_eq!(out.assignment.sets(), plain.assignment.sets());
        assert!(
            warm.open_list().is_empty(),
            "fallback must leave warm untouched"
        );
    }

    #[test]
    fn lsap_memo_fires_on_identical_reissue_and_stays_identical() {
        // Two consecutive warm solves over the same open set (zero churn,
        // same instance) hit the input-keyed memo; output must still match
        // a cold solve bit-for-bit.
        let tasks = catalog(22);
        let cache = DiversityEdgeCache::build(&tasks, &Jaccard, 1);
        let mut warm = WarmState::new(&cache);
        let open: Vec<usize> = (0..22).collect();
        let open_u32: Vec<u32> = (0..22).collect();
        let inst = sub_instance(&tasks, &open_u32, 3);
        let solver = HtaGre::structured();
        for round in 0..3 {
            let cold = solve_open_subset(
                &solver,
                &inst,
                &open,
                Some(&cache),
                &mut StdRng::seed_from_u64(41),
            );
            let hot = solve_open_subset_warm(
                &solver,
                &inst,
                &open,
                Some(&cache),
                Some(&mut warm),
                &mut StdRng::seed_from_u64(41),
            );
            assert_eq!(
                hot.assignment.sets(),
                cold.assignment.sets(),
                "round {round}"
            );
            assert_eq!(hot.lsap_value.to_bits(), cold.lsap_value.to_bits());
            assert!(warm.has_memo());
        }
    }

    #[test]
    fn restoring_an_empty_open_list_builds_nothing() {
        let tasks = catalog(40);
        let cache = DiversityEdgeCache::build(&tasks, &Jaccard, 1);
        let warm = WarmState::restore(&cache, &[]);
        assert!(warm.matches_cache(&cache));
        assert!(!warm.has_matching());
        assert!(warm.open_list().is_empty());
        assert!(!cache.is_built(), "the restore enumerated the edge list");
        // A non-empty list rebuilds the matching over the built list.
        let warm = WarmState::restore(&cache, &[1, 4, 9]);
        assert!(warm.has_matching() && cache.is_built());
        assert_eq!(warm.open_list(), &[1, 4, 9]);
    }

    /// Jaccard with every distance of at most 0.9 dropped to 0: the same
    /// catalog fingerprint as [`Jaccard`], fewer edges.
    struct FarOnly;

    impl Distance for FarOnly {
        fn dist(&self, a: &KeywordVec, b: &KeywordVec) -> f64 {
            let d = Jaccard.dist(a, b);
            if d > 0.9 {
                d
            } else {
                0.0
            }
        }

        fn name(&self) -> &'static str {
            "far-only"
        }

        fn is_metric(&self) -> bool {
            false
        }
    }

    #[test]
    fn binding_guard_reads_the_edge_list_only_once_the_matching_exists() {
        let tasks = catalog(40);
        let cache = DiversityEdgeCache::build(&tasks, &Jaccard, 1);
        let twin = DiversityEdgeCache::build(&tasks, &FarOnly, 1);
        assert_eq!(cache.fingerprint(), twin.fingerprint());
        assert_ne!(cache.edges().len(), twin.edges().len());

        let fresh = DiversityEdgeCache::build(&tasks, &Jaccard, 1);
        let mut warm = WarmState::new(&fresh);
        assert!(warm.matches_cache(&fresh));
        assert!(!fresh.is_built(), "the guard enumerated the edge list");
        // Before the matching exists, only the fingerprint and size bind.
        assert!(warm.matches_cache(&twin));
        let open: Vec<u32> = (0..40).collect();
        warm.update_open(&fresh, &open);
        assert!(warm.has_matching() && fresh.is_built());
        // Once it exists, the edge count refuses the other list.
        assert!(warm.matches_cache(&fresh) && warm.matches_cache(&cache));
        assert!(!warm.matches_cache(&twin));
    }
}

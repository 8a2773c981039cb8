//! The linear-time edge placement equals enumerate + `edge_order` sort.
//!
//! `DiversityEdgeCache::build`, `DiversityEdgeCache::from_instance` and the
//! cold solver pipeline's matching all take their sorted diversity edges
//! from one placement: count the edges of each distinct weight, order the
//! weights descending, write each edge into its weight's bucket. The oracle
//! here enumerates every pair and runs `sort_unstable_by(edge_order)`.
//! Catalogs cover duplicate-heavy keyword sets, all-distinct sets, a custom
//! distance whose weights are all distinct (below and past the bucket cap),
//! and 0- and 1-task catalogs, each at 1, 2 and 7 threads.
//!
//! A counting global allocator also pins that the build holds no second
//! full-size edge buffer. Every test takes one lock, so the process-wide
//! counter only ever sees one test's allocations.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

use hta_core::metric::{Distance, Jaccard};
use hta_core::prelude::*;
use hta_core::{DiversityEdgeCache, WeightedEdge};
use hta_matching::edge_order;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

struct Counting;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

// SAFETY: every call forwards to the system allocator with the caller's
// own pointer and layout, so `System` upholds the `GlobalAlloc` contract;
// the counters are plain atomics and never touch the memory handed out.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller's `layout` has non-zero size, as `alloc` requires.
        let ptr = unsafe { System.alloc(layout) };
        if !ptr.is_null() {
            let live = LIVE.fetch_add(layout.size(), Ordering::SeqCst) + layout.size();
            PEAK.fetch_max(live, Ordering::SeqCst);
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `alloc` above with this same `layout`.
        unsafe { System.dealloc(ptr, layout) };
        LIVE.fetch_sub(layout.size(), Ordering::SeqCst);
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

static TURN: Mutex<()> = Mutex::new(());

fn turn() -> MutexGuard<'static, ()> {
    TURN.lock().unwrap_or_else(|e| e.into_inner())
}

const NBITS: usize = 256;
const THREADS: [usize; 3] = [1, 2, 7];

/// A non-metric distance with a distinct weight for every pair of distinct
/// tasks: each task's first keyword is its code, and the weight is a
/// scrambled encoding of the unordered code pair.
struct PairCode;

impl Distance for PairCode {
    fn dist(&self, a: &KeywordVec, b: &KeywordVec) -> f64 {
        let code = |k: &KeywordVec| k.iter_ones().next().unwrap_or(0);
        let (x, y) = (code(a), code(b));
        if x == y {
            return 0.0;
        }
        // A bijective mix of the unordered code pair, so weights come in no
        // particular order along the scan; the top 52 bits, scaled into
        // [1, 2), keep them distinct.
        let mut z = (x.min(y) as u64) << 32 | x.max(y) as u64;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        1.0 + ((z ^ (z >> 31)) >> 12) as f64 / (1u64 << 52) as f64
    }

    fn name(&self) -> &'static str {
        "pair-code"
    }

    fn is_metric(&self) -> bool {
        false
    }
}

fn task(i: usize, keywords: &[usize]) -> Task {
    Task::new(
        TaskId(i as u32),
        GroupId(0),
        KeywordVec::from_indices(NBITS, keywords),
    )
}

/// `n` tasks drawn from 2–5 distinct keyword sets.
fn duplicate_heavy(n: usize, rng: &mut StdRng) -> Vec<Task> {
    let sets: Vec<Vec<usize>> = (0..rng.random_range(2..=5usize))
        .map(|s| {
            let mut kw = vec![s];
            kw.extend((0..rng.random_range(0..6usize)).map(|_| rng.random_range(8..NBITS)));
            kw
        })
        .collect();
    (0..n)
        .map(|i| task(i, &sets[rng.random_range(0..sets.len())]))
        .collect()
}

/// `n ≤ 200` tasks with pairwise distinct keyword sets: task `i` alone
/// carries keyword `i`, plus a few shared ones.
fn all_distinct(n: usize, rng: &mut StdRng) -> Vec<Task> {
    assert!(n <= 200);
    (0..n)
        .map(|i| {
            let mut kw = vec![i];
            kw.extend((0..rng.random_range(0..5usize)).map(|_| rng.random_range(200..NBITS)));
            task(i, &kw)
        })
        .collect()
}

fn oracle(tasks: &[Task], distance: &dyn Distance) -> Vec<WeightedEdge> {
    let mut edges = Vec::new();
    for u in 0..tasks.len() {
        for v in (u + 1)..tasks.len() {
            let w = distance.dist(&tasks[u].keywords, &tasks[v].keywords);
            if w > 0.0 {
                edges.push(WeightedEdge::new(u as u32, v as u32, w));
            }
        }
    }
    edges.sort_unstable_by(edge_order);
    edges
}

fn instance(tasks: &[Task], distance: Arc<dyn Distance + Send + Sync>) -> Instance {
    let workers = vec![
        Worker::new(WorkerId(0), KeywordVec::from_indices(NBITS, &[0, 9])),
        Worker::new(WorkerId(1), KeywordVec::from_indices(NBITS, &[1, 201])),
    ];
    Instance::with_distance(tasks.to_vec(), workers, 3, distance, true).unwrap()
}

/// `build`, `from_instance` and the cold matching each agree with the
/// oracle at every thread count.
fn check_against_oracle(
    tasks: &[Task],
    distance: Arc<dyn Distance + Send + Sync>,
) -> Result<(), TestCaseError> {
    let expect = oracle(tasks, &*distance);
    let inst = instance(tasks, distance.clone());
    let reference = HtaGre::structured()
        .with_threads(1)
        .solve_with_diversity_edges(&inst, &expect, &mut StdRng::seed_from_u64(5));
    for threads in THREADS {
        let built = DiversityEdgeCache::build(tasks, &*distance, threads);
        prop_assert_eq!(built.edges(), &expect[..], "build, threads={}", threads);
        let from_inst = DiversityEdgeCache::from_instance(&inst, threads);
        prop_assert_eq!(
            from_inst.edges(),
            &expect[..],
            "from_instance, threads={}",
            threads
        );
        // The cold pipeline sorts the same enumeration for its matching.
        let cold = HtaGre::structured()
            .with_threads(threads)
            .solve(&inst, &mut StdRng::seed_from_u64(5));
        prop_assert_eq!(
            cold.assignment.sets(),
            reference.assignment.sets(),
            "cold matching, threads={}",
            threads
        );
        prop_assert_eq!(cold.lsap_value.to_bits(), reference.lsap_value.to_bits());
    }
    Ok(())
}

proptest! {
    #[test]
    fn placement_equals_sort_on_duplicate_heavy_catalogs(n in 0usize..=60, seed in 0u64..1 << 40) {
        let _turn = turn();
        let tasks = duplicate_heavy(n, &mut StdRng::seed_from_u64(seed));
        check_against_oracle(&tasks, Arc::new(Jaccard))?;
        check_against_oracle(&tasks, Arc::new(PairCode))?;
    }

    #[test]
    fn placement_equals_sort_on_all_distinct_catalogs(n in 0usize..=60, seed in 0u64..1 << 40) {
        let _turn = turn();
        let tasks = all_distinct(n, &mut StdRng::seed_from_u64(seed));
        check_against_oracle(&tasks, Arc::new(Jaccard))?;
        // Every pair its own weight: one bucket per edge.
        check_against_oracle(&tasks, Arc::new(PairCode))?;
    }
}

#[test]
fn empty_and_single_task_catalogs_have_no_edges() {
    let _turn = turn();
    let mut rng = StdRng::seed_from_u64(1);
    for n in [0usize, 1] {
        for tasks in [duplicate_heavy(n, &mut rng), all_distinct(n, &mut rng)] {
            check_against_oracle(&tasks, Arc::new(Jaccard)).unwrap();
            check_against_oracle(&tasks, Arc::new(PairCode)).unwrap();
            assert!(DiversityEdgeCache::build(&tasks, &Jaccard, 7)
                .edges()
                .is_empty());
        }
    }
}

/// 200 tasks under [`PairCode`]: 19,900 distinct weights, past the bucket
/// cap, so the build takes the comparison-sort fallback — still exact.
#[test]
fn all_distinct_weights_past_the_bucket_cap_stay_exact() {
    let _turn = turn();
    let tasks = all_distinct(200, &mut StdRng::seed_from_u64(2));
    check_against_oracle(&tasks, Arc::new(PairCode)).unwrap();
}

/// Peak heap growth while `build` runs, in bytes, and the built cache.
fn build_measured(tasks: &[Task], threads: usize) -> (DiversityEdgeCache, usize) {
    let base = LIVE.load(Ordering::SeqCst);
    PEAK.store(base, Ordering::SeqCst);
    let cache = DiversityEdgeCache::build(tasks, &Jaccard, threads);
    (cache, PEAK.load(Ordering::SeqCst) - base)
}

/// A 1,500-task, 3-set catalog (about 750k edges, 12 MB, above the grain):
/// the build's peak is the exactly-sized result plus under 1 MiB of
/// tables and scratch — no second full-size buffer at any thread count.
#[test]
fn build_holds_no_second_full_size_edge_buffer() {
    let _turn = turn();
    let mut rng = StdRng::seed_from_u64(3);
    let tasks: Vec<Task> = (0..1_500)
        .map(|i| task(i, &[i % 3, 10 + i % 3, rng.random_range(20..24)]))
        .collect();
    let expect = oracle(&tasks, &Jaccard);
    let bytes = std::mem::size_of_val(&expect[..]);
    assert!(bytes > 8 << 20, "catalog too small to tell: {bytes} bytes");
    for threads in THREADS {
        let (cache, peak) = build_measured(&tasks, threads);
        assert_eq!(cache.edges(), &expect[..], "threads={threads}");
        assert_eq!(
            std::mem::size_of_val(cache.edges()),
            bytes,
            "the result is exactly sized"
        );
        assert!(
            peak < bytes + (1 << 20),
            "threads={threads}: peak {peak} bytes for a {bytes}-byte edge list"
        );
    }
}

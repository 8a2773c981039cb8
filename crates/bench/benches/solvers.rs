//! Criterion micro-benchmarks of the end-to-end solvers (Fig. 2a at
//! regression-tracking sizes): HTA-APP vs HTA-GRE vs baselines, plus the
//! parallel-pipeline thread sweep and the per-iteration edge-reuse path.
//!
//! Besides the criterion output, the run emits `BENCH_solvers.json` at the
//! repo root: a `machine` block (cores, SIMD mode, commit, measured scoped
//! spawn + join cost), per-phase wall-clock (`edge_enum` / `matching` /
//! `lsap` / `total`) for every (|T|, threads) point, and one 1-vs-2-thread
//! pair per threaded body at a size its callers pass (`bodies`), so the perf
//! trajectory — and the evidence for every threaded body kept — stays
//! machine-readable across changes.

use std::hint::black_box;
use std::time::Duration;

use criterion::{criterion_group, BenchmarkId, Criterion};
use hta_bench::{build_instance, build_pools};
use hta_core::metric::Distance;
use hta_core::prelude::*;
use hta_core::solver::{
    solve_open_subset, solve_open_subset_sparse_warm, solve_open_subset_warm, SparseWarmState,
    WarmState,
};
use hta_core::sparse::SparseEdgeCache;
use hta_core::{keywords_fingerprint, DiversityEdgeCache};
use hta_index::{CandidatePool, InvertedIndex, PoolParams};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

fn bench_solvers(c: &mut Criterion) {
    let mut group = c.benchmark_group("solvers/end-to-end");
    group.sample_size(10);
    for &n in &[300usize, 600, 1200] {
        let inst = build_instance(n, 60, 20, 10, 0x50);
        let cases: Vec<(&str, Box<dyn Solver>)> = vec![
            ("hta-app", Box::new(HtaApp::new())),
            ("hta-app-structured", Box::new(HtaApp::structured())),
            ("hta-gre", Box::new(HtaGre::new())),
            ("hta-gre-structured", Box::new(HtaGre::structured())),
            ("greedy-relevance", Box::new(GreedyRelevance)),
            ("random", Box::new(RandomAssign)),
        ];
        for (name, solver) in &cases {
            group.bench_with_input(BenchmarkId::new(*name, n), &inst, |b, inst| {
                b.iter(|| {
                    let mut rng = StdRng::seed_from_u64(1);
                    black_box(solver.solve(inst, &mut rng).assignment.assigned_count())
                })
            });
        }
    }
    group.finish();
}

/// Sizes for the parallel sweep: 1k/4k always, 10k behind `HTA_BENCH_LARGE`
/// (the dense 10k solve enumerates ~50M task pairs per run).
fn parallel_sizes() -> Vec<usize> {
    let mut sizes = vec![1_000usize, 4_000];
    if std::env::var("HTA_BENCH_LARGE").is_ok() {
        sizes.push(10_000);
    } else {
        println!("solvers/parallel: set HTA_BENCH_LARGE=1 for the 10k point");
    }
    sizes
}

/// Thread sweep over the parallel QAP pipeline plus the edge-reuse path.
/// Output is byte-identical at every thread count, so the sweep measures
/// pure wall-clock; `reuse` feeds the presorted catalog edge list to the
/// solver the way the iteration engine / crowd platform do each round.
fn bench_parallel(c: &mut Criterion) {
    let mut group = c.benchmark_group("solvers/parallel");
    group.sample_size(10);
    for &n in &parallel_sizes() {
        let inst = build_instance(n, n / 10, 20, 10, 0x51);
        for &threads in &[1usize, 2, 4, 8] {
            let solver = HtaGre::structured().with_threads(threads);
            group.bench_with_input(
                BenchmarkId::new(format!("hta-gre-structured/t{threads}"), n),
                &inst,
                |b, inst| {
                    b.iter(|| {
                        let mut rng = StdRng::seed_from_u64(1);
                        black_box(solver.solve(inst, &mut rng).assignment.assigned_count())
                    })
                },
            );
        }
        if n <= 1_000 {
            for &threads in &[1usize, 4] {
                let solver = HtaApp::structured().with_threads(threads);
                group.bench_with_input(
                    BenchmarkId::new(format!("hta-app-structured/t{threads}"), n),
                    &inst,
                    |b, inst| {
                        b.iter(|| {
                            let mut rng = StdRng::seed_from_u64(1);
                            black_box(solver.solve(inst, &mut rng).assignment.assigned_count())
                        })
                    },
                );
            }
        }
        // Edge reuse: enumerate + sort the catalog's diversity edges once,
        // then solve against the presorted list (every iteration after the
        // first pays only the filter, not the O(n²) enumerate + sort).
        let cache = DiversityEdgeCache::from_instance(&inst, 1);
        let solver = HtaGre::structured().with_threads(1);
        group.bench_with_input(
            BenchmarkId::new("hta-gre-structured/reuse", n),
            &inst,
            |b, inst| {
                b.iter(|| {
                    let mut rng = StdRng::seed_from_u64(1);
                    black_box(
                        solver
                            .solve_with_diversity_edges(inst, cache.edges(), &mut rng)
                            .assignment
                            .assigned_count(),
                    )
                })
            },
        );
    }
    group.finish();
}

// ---- Warm-start churn sweep -----------------------------------------------

/// Churn levels for the warm sweep: percent of the catalog toggled between
/// consecutive solves.
const WARM_CHURN_PCT: [usize; 3] = [1, 5, 25];

/// Open subsets for one churn level: `a` is the full catalog, `b` removes
/// `⌈n·pct/100⌉` distinct tasks. Alternating solves between the two
/// exercises both repair directions (close on a→b, reopen on b→a) at a
/// constant churn magnitude.
fn churn_pair(n: usize, pct: usize) -> (Vec<usize>, Vec<usize>) {
    let a: Vec<usize> = (0..n).collect();
    let k = (n * pct).div_ceil(100);
    let mut rng = StdRng::seed_from_u64(0xC0_0052 ^ n as u64);
    let mut removed = std::collections::BTreeSet::new();
    while removed.len() < k {
        removed.insert(rng.random_range(0..n as u32) as usize);
    }
    let b: Vec<usize> = (0..n).filter(|v| !removed.contains(v)).collect();
    (a, b)
}

/// The sub-instance a serving layer builds for an open subset: local task
/// ids 0.. in open order over the shared worker pool.
fn sub_instance(tasks: &[Task], workers: &[Worker], open: &[usize], xmax: usize) -> Instance {
    let local: Vec<Task> = open
        .iter()
        .enumerate()
        .map(|(li, &ci)| {
            Task::new(
                TaskId(li as u32),
                tasks[ci].group,
                tasks[ci].keywords.clone(),
            )
        })
        .collect();
    Instance::new(local, workers.to_vec(), xmax).expect("generated instances are well-formed")
}

/// Warm-start sweep: steady-state warm solves alternating between two open
/// subsets that differ by the churn fraction, so every measured solve pays
/// one local matching repair instead of a full rebuild. A cold comparator
/// on the same churned subset (edge-cache filter + full matching rebuild)
/// anchors the speedup; warm ≡ cold output is property-tested in
/// `hta-core`'s `warm_identity` suite, so this group tracks wall-clock
/// only.
fn bench_warm(c: &mut Criterion) {
    let mut group = c.benchmark_group("solvers/warm");
    group.sample_size(10);
    group.measurement_time(Duration::from_secs(3));
    for &n in &[1_000usize, 4_000] {
        let (tasks, workers) = build_pools(n, n / 10, 20, 0x51);
        let cache = DiversityEdgeCache::build(&tasks, &Jaccard, 1);
        let solver = HtaGre::structured().with_threads(1);
        for &pct in &WARM_CHURN_PCT {
            let (a, b) = churn_pair(n, pct);
            let inst_a = sub_instance(&tasks, &workers, &a, 10);
            let inst_b = sub_instance(&tasks, &workers, &b, 10);
            let mut warm = WarmState::new(&cache);
            // Prime: the first warm solve pays the full matching build.
            let mut rng = StdRng::seed_from_u64(1);
            solve_open_subset_warm(
                &solver,
                &inst_a,
                &a,
                Some(&cache),
                Some(&mut warm),
                &mut rng,
            );
            let mut flip = false;
            group.bench_function(
                BenchmarkId::new(format!("hta-gre-structured/warm/c{pct}"), n),
                |bench| {
                    bench.iter(|| {
                        let (inst, open) = if flip { (&inst_a, &a) } else { (&inst_b, &b) };
                        flip = !flip;
                        let mut rng = StdRng::seed_from_u64(1);
                        black_box(
                            solve_open_subset_warm(
                                &solver,
                                inst,
                                open,
                                Some(&cache),
                                Some(&mut warm),
                                &mut rng,
                            )
                            .assignment
                            .assigned_count(),
                        )
                    })
                },
            );
        }
        // Cold anchor: the same subset solved through the plain edge-cache
        // path every time (its cost is churn-independent).
        let (_, b) = churn_pair(n, WARM_CHURN_PCT[0]);
        let inst_b = sub_instance(&tasks, &workers, &b, 10);
        group.bench_function(BenchmarkId::new("hta-gre-structured/cold", n), |bench| {
            bench.iter(|| {
                let mut rng = StdRng::seed_from_u64(1);
                black_box(
                    solve_open_subset(&solver, &inst_b, &b, Some(&cache), &mut rng)
                        .assignment
                        .assigned_count(),
                )
            })
        });
    }
    group.finish();
}

// ---- Sparse warm-start sweep (past the dense edge-cache cap) --------------

/// Pool depths for the sparse frontier: per-worker top-k retrieved into the
/// candidate pool.
const SPARSE_POOL_KS: [usize; 4] = [8, 16, 32, 64];
/// Catalog fraction closed/reopened between consecutive sparse solves.
const SPARSE_CHURN_PCT: usize = 1;
const SPARSE_WORKERS: usize = 20;
const SPARSE_XMAX: usize = 10;

/// Catalog sizes for the sparse sweep: 100k always (far past the 4,096-task
/// dense cap), 1M behind `HTA_BENCH_LARGE`.
fn sparse_sizes() -> Vec<usize> {
    let mut sizes = vec![100_000usize];
    if std::env::var("HTA_BENCH_LARGE").is_ok() {
        sizes.push(1_000_000);
    } else {
        println!("solvers/sparse: set HTA_BENCH_LARGE=1 for the 1M point");
    }
    sizes
}

/// Catalog + live index for the sparse sweep, plus the churn set: `churn`
/// holds `⌈n·pct/100⌉` distinct task ids toggled closed/open between
/// consecutive solves (both repair directions at constant magnitude, as in
/// [`churn_pair`]).
struct SparseHarness {
    tasks: Vec<Task>,
    workers: Vec<Worker>,
    index: InvertedIndex,
    churn: Vec<u32>,
}

impl SparseHarness {
    fn build(n: usize, seed: u64) -> Self {
        let (tasks, workers) = build_pools(n, (n / 100).max(10), SPARSE_WORKERS, seed);
        let nbits = tasks[0].keywords.nbits();
        let mut index = InvertedIndex::new(nbits);
        for t in &tasks {
            index.insert(t.id.0, &t.keywords);
        }
        let k = (n * SPARSE_CHURN_PCT).div_ceil(100);
        let mut rng = StdRng::seed_from_u64(0x005C_A25E ^ n as u64);
        let mut churn = std::collections::BTreeSet::new();
        while churn.len() < k {
            churn.insert(rng.random_range(0..n as u32));
        }
        Self {
            tasks,
            workers,
            index,
            churn: churn.into_iter().collect(),
        }
    }

    /// Close the churn set in the index, or reopen it.
    fn apply_churn(&mut self, close: bool) {
        for &t in &self.churn {
            if close {
                self.index.remove(t);
            } else {
                self.index.insert(t, &self.tasks[t as usize].keywords);
            }
        }
    }
}

/// One warm sparse iteration: absorb nothing (churn was applied by the
/// caller), generate the top-`k` pool from the index, delta-refresh the
/// sparse edge cache, and warm-repair the matching. Returns the solve
/// output, the pool size, and the objective.
fn sparse_warm_iter(
    h: &SparseHarness,
    solver: &HtaGre,
    k: usize,
    cache: &mut SparseEdgeCache,
    warm: &mut Option<SparseWarmState>,
) -> (usize, f64, hta_core::solver::SolveOutcome) {
    let pool = CandidatePool::generate(&h.index, &h.workers, SPARSE_XMAX, &PoolParams::with_k(k));
    let tasks = &h.tasks;
    let weight = |u: u32, v: u32| {
        hta_core::kernels::jaccard_distance(
            &tasks[u as usize].keywords,
            &tasks[v as usize].keywords,
        )
    };
    cache.refresh(pool.members(), weight);
    if warm.is_none() {
        *warm = Some(SparseWarmState::new(cache));
    }
    let open: Vec<usize> = pool.members().iter().map(|&t| t as usize).collect();
    let inst = sub_instance(&h.tasks, &h.workers, &open, SPARSE_XMAX);
    let mut rng = StdRng::seed_from_u64(1);
    let out =
        solve_open_subset_sparse_warm(solver, &inst, &open, Some(cache), warm.as_mut(), &mut rng);
    let obj = out.assignment.objective(&inst);
    (open.len(), obj, out)
}

/// One cold sparse iteration: regenerate the candidate pool from the index
/// (per-worker top-k scans over the full catalog), build the pool
/// sub-instance, and solve from scratch (pool-sized dense enumeration
/// inside the solver).
fn sparse_cold_iter(
    h: &SparseHarness,
    solver: &HtaGre,
    k: usize,
) -> (usize, f64, hta_core::solver::SolveOutcome) {
    let pool = CandidatePool::generate(&h.index, &h.workers, SPARSE_XMAX, &PoolParams::with_k(k));
    let open: Vec<usize> = pool.members().iter().map(|&t| t as usize).collect();
    let inst = sub_instance(&h.tasks, &h.workers, &open, SPARSE_XMAX);
    let mut rng = StdRng::seed_from_u64(1);
    let out = solver.solve(&inst, &mut rng);
    let obj = out.assignment.objective(&inst);
    (open.len(), obj, out)
}

/// Steady-state sparse sweep at the frontier pool depths, per iteration
/// at 1% catalog churn: warm (top-k pool, cache refresh, matching repair)
/// vs cold (top-k pool, scratch solve). Warm ≡ cold output is pinned by
/// `hta-crowd`'s `sparse_identity` suite, so this group tracks wall-clock
/// only.
fn bench_sparse(c: &mut Criterion) {
    let mut group = c.benchmark_group("solvers/sparse");
    group.sample_size(10);
    group.measurement_time(Duration::from_secs(2));
    for &n in &sparse_sizes() {
        let k = 32usize;
        let mut h = SparseHarness::build(n, 0x53);
        let solver = HtaGre::structured().with_threads(1);
        let fp = keywords_fingerprint(h.tasks.iter().map(|t| &t.keywords));
        let mut cache = SparseEdgeCache::new(fp, h.tasks.len());
        let mut warm = None;
        // Prime at the fully-open state.
        sparse_warm_iter(&h, &solver, k, &mut cache, &mut warm);
        // Churn absorption (index inserts/removes between iterations)
        // happens in both modes identically, so it is applied *outside*
        // the timed window: the measured region is one assignment
        // iteration — pool, edges, solve.
        let mut closed = false;
        group.bench_function(BenchmarkId::new(format!("warm/k{k}/c1"), n), |b| {
            b.iter_custom(|iters| {
                let mut total = Duration::ZERO;
                for _ in 0..iters {
                    closed = !closed;
                    h.apply_churn(closed);
                    let start = std::time::Instant::now();
                    let (members, _, out) = sparse_warm_iter(&h, &solver, k, &mut cache, &mut warm);
                    black_box((members, out.assignment.assigned_count()));
                    total += start.elapsed();
                }
                total
            })
        });
        let mut h = SparseHarness::build(n, 0x53);
        let mut closed = false;
        group.bench_function(BenchmarkId::new(format!("cold/k{k}/c1"), n), |b| {
            b.iter_custom(|iters| {
                let mut total = Duration::ZERO;
                for _ in 0..iters {
                    closed = !closed;
                    h.apply_churn(closed);
                    let start = std::time::Instant::now();
                    let (members, _, out) = sparse_cold_iter(&h, &solver, k);
                    black_box((members, out.assignment.assigned_count()));
                    total += start.elapsed();
                }
                total
            })
        });
    }
    group.finish();
}

// ---- BENCH_solvers.json: machine-readable per-phase timings ---------------

struct PhaseSample {
    label: String,
    n_tasks: usize,
    threads: usize,
    /// Churn percent for warm-sweep rows; `None` for the cold sweeps.
    churn_pct: Option<usize>,
    /// `(per-worker k, pool members)` for sparse-sweep rows.
    pool: Option<(usize, usize)>,
    edge_enum: Duration,
    matching: Duration,
    lsap: Duration,
    total: Duration,
}

fn best_of<R>(runs: usize, mut f: impl FnMut() -> (R, Duration)) -> (R, Duration) {
    let mut best = f();
    for _ in 1..runs {
        let next = f();
        if next.1 < best.1 {
            best = next;
        }
    }
    best
}

/// The machine the rows were measured on: cores, SIMD backend, commit
/// (`-dirty` when the tree had uncommitted changes) and the mean wall-clock
/// of spawning and joining one scoped thread (the cost `hta_par::GRAIN` is
/// set against).
fn machine_json() -> String {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let commit = std::process::Command::new("git")
        .args(["describe", "--always", "--dirty", "--abbrev=12"])
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into());
    let reps = 2_000u32;
    let start = std::time::Instant::now();
    for i in 0..reps {
        std::thread::scope(|s| {
            s.spawn(move || black_box(i));
        });
    }
    let spawn_us = start.elapsed().as_secs_f64() * 1e6 / reps as f64;
    format!(
        "{{\"nproc\": {nproc}, \"simd\": \"{}\", \"commit\": \"{commit}\", \
         \"spawn_join_us\": {spawn_us:.1}, \"grain\": {}}}",
        hta_core::kernels::mode_name(),
        hta_par::GRAIN
    )
}

/// A custom distance with a (near-)distinct weight for every pair of
/// distinct tasks (each task's first keyword is its code), so a dense edge
/// build past the placement's bucket cap takes the comparison-sort
/// fallback.
struct PairCode;

impl Distance for PairCode {
    fn dist(&self, a: &KeywordVec, b: &KeywordVec) -> f64 {
        let code = |k: &KeywordVec| k.iter_ones().next().unwrap_or(0);
        let (x, y) = (code(a), code(b));
        if x == y {
            return 0.0;
        }
        // A bijective mix of the code pair, so weights are distinct and in
        // no particular order along the scan.
        let mut z = (x.min(y) as u64) << 32 | x.max(y) as u64;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        1.0 + (z ^ (z >> 31)) as f64 / u64::MAX as f64
    }

    fn name(&self) -> &'static str {
        "pair-code"
    }

    fn is_metric(&self) -> bool {
        false
    }
}

/// One threaded body timed at 1 and 2 threads (best of `runs`), at a size
/// one of its callers passes.
struct BodySample {
    body: &'static str,
    caller: &'static str,
    size: String,
    threads: usize,
    secs: f64,
}

fn time_body(
    out: &mut Vec<BodySample>,
    body: &'static str,
    caller: &'static str,
    size: String,
    mut f: impl FnMut(usize),
) {
    for threads in [1usize, 2] {
        let ((), wall) = best_of(3, || {
            let start = std::time::Instant::now();
            f(threads);
            ((), start.elapsed())
        });
        println!(
            "body {body} ({size}) t{threads}: {:.6} s",
            wall.as_secs_f64()
        );
        out.push(BodySample {
            body,
            caller,
            size: size.clone(),
            threads,
            secs: wall.as_secs_f64(),
        });
    }
}

/// Every threaded body left behind `hta_par`, at 1 and 2 threads, at a
/// size one of its callers passes.
fn body_samples() -> Vec<BodySample> {
    use hta_datagen::crowdflower::{CrowdflowerCatalog, CrowdflowerConfig};
    use hta_matching::lsap::greedy as lsap_greedy;
    use hta_matching::{ClassedCosts, DenseMatrix};

    let mut out = Vec::new();
    // The dense edge cache of the 4k CrowdFlower catalog (22 keyword
    // kinds): the placement's two scan passes, as sim-dense builds it.
    let catalog = CrowdflowerCatalog::generate(&CrowdflowerConfig {
        n_tasks: 4_000,
        seed: 1,
        ..CrowdflowerConfig::default()
    });
    let tasks: Vec<Task> = catalog.tasks.iter().map(|m| m.task.clone()).collect();
    time_body(
        &mut out,
        "edge placement (packed Jaccard)",
        "DiversityEdgeCache::build, platform dense cache",
        "crowdflower 4000 tasks".into(),
        |t| {
            black_box(DiversityEdgeCache::build(&tasks, &Jaccard, t).edges().len());
        },
    );
    // All-distinct weights: the enumeration plus `sort_unstable_by_parallel`
    // fallback, as a custom distance under the dense cap builds it.
    let (coded, _) = build_pools(2_000, 200, 1, 0x54);
    let coded: Vec<Task> = coded
        .into_iter()
        .enumerate()
        .map(|(i, mut t)| {
            t.keywords = KeywordVec::from_indices(2_048, &[i]);
            t
        })
        .collect();
    time_body(
        &mut out,
        "edge enumeration + sort_unstable_by_parallel (all-distinct fallback)",
        "DiversityEdgeCache::build with a custom Distance",
        "2000 tasks, 1999000 distinct weights".into(),
        |t| {
            black_box(
                DiversityEdgeCache::build(&coded, &PairCode, t)
                    .edges()
                    .len(),
            );
        },
    );
    // Dense profit fill and the dense greedy LSAP: HTA-GRE's paper path
    // (Fig. 2a sweeps 1k-3k tasks at laptop scale).
    let profit = |r: usize, c: usize| ((r * 7 + c * 13) % 101) as f64 / 7.0 + (c % 10) as f64;
    time_body(
        &mut out,
        "DenseMatrix::from_fn_parallel",
        "hta-gre / hta-app dense profit matrix (fig2a)",
        "2000 x 2000".into(),
        |t| {
            black_box(DenseMatrix::from_fn_parallel(2_000, t, profit).get(1, 1));
        },
    );
    let dense = DenseMatrix::from_fn(1_000, profit);
    time_body(
        &mut out,
        "lsap::greedy::solve_with_threads (dense)",
        "hta-gre dense LSAP (fig2a)",
        "1000 x 1000".into(),
        |t| {
            black_box(lsap_greedy::solve_with_threads(&dense, t).value);
        },
    );
    // The classed greedy LSAP at the paper-scale
    // ablation (8,000 tasks, 200 workers).
    let classes: Vec<u32> = (0..8_000).map(|l| (l / 20).min(200) as u32).collect();
    let classed = ClassedCosts::new(8_000, 201, classes, profit);
    time_body(
        &mut out,
        "lsap::greedy::solve_with_threads (classed)",
        "hta-gre structured (ablations, paper scale)",
        "8000 x 201 classes".into(),
        |t| {
            black_box(lsap_greedy::solve_with_threads(&classed, t).value);
        },
    );
    // Pool instances past the auto-cache cap build the dense diversity
    // cache on the solver threads.
    let (pool_tasks, pool_workers) = build_pools(4_200, 420, 20, 0x55);
    time_body(
        &mut out,
        "Instance::build_diversity_cache_parallel",
        "CandidatePool::build_instance past 4096 tasks",
        "4200 tasks".into(),
        |t| {
            let mut inst = Instance::new(pool_tasks.clone(), pool_workers.clone(), 10).unwrap();
            inst.build_diversity_cache_parallel(t);
            black_box(inst.has_diversity_cache());
        },
    );
    out
}

/// Re-measure every sweep point once more, capturing the [`PhaseTimings`]
/// breakdown (criterion's loop only sees totals), and write the lot to
/// `BENCH_solvers.json` at the repo root.
fn emit_phase_json() {
    let runs = 3usize;
    let mut samples: Vec<PhaseSample> = Vec::new();
    for &n in &parallel_sizes() {
        let inst = build_instance(n, n / 10, 20, 10, 0x51);
        for &threads in &[1usize, 2, 4, 8] {
            let solver = HtaGre::structured().with_threads(threads);
            let (out, wall) = best_of(runs, || {
                let start = std::time::Instant::now();
                let mut rng = StdRng::seed_from_u64(1);
                let out = solver.solve(&inst, &mut rng);
                (out, start.elapsed())
            });
            samples.push(PhaseSample {
                label: "hta-gre-structured".into(),
                n_tasks: n,
                threads,
                churn_pct: None,
                pool: None,
                edge_enum: out.timings.edge_enum,
                matching: out.timings.matching,
                lsap: out.timings.lsap,
                total: wall,
            });
        }
        let cache = DiversityEdgeCache::from_instance(&inst, 1);
        let solver = HtaGre::structured().with_threads(1);
        let (out, wall) = best_of(runs, || {
            let start = std::time::Instant::now();
            let mut rng = StdRng::seed_from_u64(1);
            let out = solver.solve_with_diversity_edges(&inst, cache.edges(), &mut rng);
            (out, start.elapsed())
        });
        samples.push(PhaseSample {
            label: "hta-gre-structured/reuse".into(),
            n_tasks: n,
            threads: 1,
            churn_pct: None,
            pool: None,
            edge_enum: out.timings.edge_enum,
            matching: out.timings.matching,
            lsap: out.timings.lsap,
            total: wall,
        });
    }

    // Warm-start churn sweep: the steady-state repair cost at each churn
    // level, one row per (|T|, churn%). `matching_s` here is the local
    // repair + extraction, the phase the cold rows rebuild from scratch.
    for &n in &[1_000usize, 4_000] {
        let (tasks, workers) = build_pools(n, n / 10, 20, 0x51);
        let cache = DiversityEdgeCache::build(&tasks, &Jaccard, 1);
        let solver = HtaGre::structured().with_threads(1);
        for &pct in &WARM_CHURN_PCT {
            let (a, b) = churn_pair(n, pct);
            let inst_a = sub_instance(&tasks, &workers, &a, 10);
            let inst_b = sub_instance(&tasks, &workers, &b, 10);
            let mut warm = WarmState::new(&cache);
            let mut rng = StdRng::seed_from_u64(1);
            solve_open_subset_warm(
                &solver,
                &inst_a,
                &a,
                Some(&cache),
                Some(&mut warm),
                &mut rng,
            );
            let (out, wall) = best_of(runs, || {
                // Measured: a → b (one churn delta repaired warm)…
                let start = std::time::Instant::now();
                let mut rng = StdRng::seed_from_u64(1);
                let out = solve_open_subset_warm(
                    &solver,
                    &inst_b,
                    &b,
                    Some(&cache),
                    Some(&mut warm),
                    &mut rng,
                );
                let wall = start.elapsed();
                // …then b → a unmeasured, restoring the state for the next run.
                let mut rng = StdRng::seed_from_u64(1);
                solve_open_subset_warm(
                    &solver,
                    &inst_a,
                    &a,
                    Some(&cache),
                    Some(&mut warm),
                    &mut rng,
                );
                (out, wall)
            });
            samples.push(PhaseSample {
                label: "hta-gre-structured/warm".into(),
                n_tasks: n,
                threads: 1,
                churn_pct: Some(pct),
                pool: None,
                edge_enum: out.timings.edge_enum,
                matching: out.timings.matching,
                lsap: out.timings.lsap,
                total: wall,
            });
        }
    }

    // Sparse sweep past the dense cap: one warm + one cold row per
    // (|T|, k), steady-state at 1% catalog churn. Churn absorption (index
    // inserts/removes between iterations) is identical platform work in
    // both modes, so it runs *outside* the timer: `total_s` covers
    // one assignment iteration — pool (re)generation, edge work, solve —
    // and warm/cold rows divide into the headline speedup directly. Also
    // prints the pool-size frontier (objective vs. time) for EXPERIMENTS.md;
    // the frontier objective is sampled at the fully-open state so rows are
    // parity-comparable across k.
    let sparse_runs = 5usize;
    println!("sparse frontier (|T|, k, members, objective, warm_s, cold_s):");
    for &n in &sparse_sizes() {
        for &k in &SPARSE_POOL_KS {
            let mut h = SparseHarness::build(n, 0x53);
            let solver = HtaGre::structured().with_threads(1);
            let fp = keywords_fingerprint(h.tasks.iter().map(|t| &t.keywords));
            let mut cache = SparseEdgeCache::new(fp, h.tasks.len());
            let mut warm = None;
            sparse_warm_iter(&h, &solver, k, &mut cache, &mut warm); // prime
            let mut closed = false;
            let ((_, _, out), wall) = best_of(sparse_runs, || {
                closed = !closed;
                h.apply_churn(closed);
                let start = std::time::Instant::now();
                let r = sparse_warm_iter(&h, &solver, k, &mut cache, &mut warm);
                (r, start.elapsed())
            });
            if closed {
                h.apply_churn(false);
            }
            let (members, objective, _) = sparse_warm_iter(&h, &solver, k, &mut cache, &mut warm);
            samples.push(PhaseSample {
                label: "hta-gre-structured/sparse/warm".into(),
                n_tasks: n,
                threads: 1,
                churn_pct: Some(SPARSE_CHURN_PCT),
                pool: Some((k, members)),
                edge_enum: out.timings.edge_enum,
                matching: out.timings.matching,
                lsap: out.timings.lsap,
                total: wall,
            });
            let mut h = SparseHarness::build(n, 0x53);
            let mut closed = false;
            let ((_, _, out), cold_wall) = best_of(sparse_runs, || {
                closed = !closed;
                h.apply_churn(closed);
                let start = std::time::Instant::now();
                let r = sparse_cold_iter(&h, &solver, k);
                (r, start.elapsed())
            });
            if closed {
                h.apply_churn(false);
            }
            let (cold_members, cold_obj, _) = sparse_cold_iter(&h, &solver, k);
            // Solve identity, end to end: at the same (fully-open) state the
            // two modes must agree bit for bit.
            assert_eq!(members, cold_members, "sparse warm/cold pools diverged");
            assert_eq!(
                objective.to_bits(),
                cold_obj.to_bits(),
                "sparse warm/cold objectives diverged at the all-open state"
            );
            samples.push(PhaseSample {
                label: "hta-gre-structured/sparse/cold".into(),
                n_tasks: n,
                threads: 1,
                churn_pct: Some(SPARSE_CHURN_PCT),
                pool: Some((k, cold_members)),
                edge_enum: out.timings.edge_enum,
                matching: out.timings.matching,
                lsap: out.timings.lsap,
                total: cold_wall,
            });
            println!(
                "  {n} {k} {members} {objective:.6} {:.6} {:.6} (speedup {:.1}x)",
                wall.as_secs_f64(),
                cold_wall.as_secs_f64(),
                cold_wall.as_secs_f64() / wall.as_secs_f64().max(1e-9),
            );
        }
    }

    let bodies = body_samples();
    let mut json = format!(
        "{{\n  \"group\": \"solvers/parallel\",\n  \"machine\": {},\n  \"samples\": [\n",
        machine_json()
    );
    for (i, s) in samples.iter().enumerate() {
        let churn = s
            .churn_pct
            .map_or(String::new(), |p| format!("\"churn_pct\": {p}, "));
        let pool = s.pool.map_or(String::new(), |(k, m)| {
            format!("\"pool_k\": {k}, \"pool_members\": {m}, ")
        });
        json.push_str(&format!(
            "    {{\"label\": \"{}\", \"n_tasks\": {}, \"threads\": {}, {}{}\
             \"edge_enum_s\": {:.6}, \"matching_s\": {:.6}, \"lsap_s\": {:.6}, \
             \"total_s\": {:.6}}}{}\n",
            s.label,
            s.n_tasks,
            s.threads,
            churn,
            pool,
            s.edge_enum.as_secs_f64(),
            s.matching.as_secs_f64(),
            s.lsap.as_secs_f64(),
            s.total.as_secs_f64(),
            if i + 1 < samples.len() { "," } else { "" }
        ));
    }
    json.push_str("  ],\n  \"bodies\": [\n");
    for (i, b) in bodies.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"body\": \"{}\", \"caller\": \"{}\", \"size\": \"{}\", \"threads\": {}, \
             \"secs\": {:.6}}}{}\n",
            b.body,
            b.caller,
            b.size,
            b.threads,
            b.secs,
            if i + 1 < bodies.len() { "," } else { "" }
        ));
    }
    json.push_str("  ]\n}\n");

    let mut path = std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    path.pop(); // crates/
    path.pop(); // repo root
    path.push("BENCH_solvers.json");
    match std::fs::write(&path, json) {
        Ok(()) => println!("per-phase timings written to {}", path.display()),
        Err(e) => eprintln!("BENCH_solvers.json write failed: {e}"),
    }
}

criterion_group!(
    benches,
    bench_solvers,
    bench_parallel,
    bench_warm,
    bench_sparse
);

fn main() {
    benches();
    emit_phase_json();
}

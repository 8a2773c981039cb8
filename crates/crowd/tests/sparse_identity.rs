//! Acceptance matrix for the sparse warm-start pipeline: past the dense
//! edge-cache cap, top-k solves run over per-round candidate pools and a
//! pool-scoped sparse edge cache with the LSAP memo — and must be
//! **byte-identical** to both the cold sparse path and the dense warm path
//! (when the catalog fits under the cap), across churn levels,
//! solver-thread counts, and a checkpoint → resume mid-sequence, down to
//! the serialized progress bytes.
//!
//! Two layers:
//!
//! 1. **Engine matrix** — `IterationEngine` with explicit open-set churn
//!    (a fraction of already-assigned tasks re-released every iteration),
//!    at churn {0, 1/64, 1/4} × threads {1, 2, 7}: dense-warm ≡ cold per
//!    iteration, assignments and objective bits. The engine solves over
//!    every open task, so it has no pools and no sparse mode.
//! 2. **Simulation matrix** — the full online experiment in `TopK`
//!    candidate mode with the dense cap forced below the catalog (sparse
//!    pipeline engaged) vs. warm-start off (sparse-cold) vs. the default
//!    cap (dense-warm), at threads {1, 2, 7}, plus
//!    interrupted-and-resumed runs and checkpoint-progress byte equality.

use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};

use hta_core::solver::HtaGre;
use hta_core::worker::{Weights, WorkerId, WorkerPool};
use hta_core::{IterationEngine, KeywordVec, TaskId, TaskPool};
use hta_crowd::snapshot::{load_run, run_snapshot_bytes};
use hta_crowd::{
    list_checkpoints, run, run_with, CheckpointPolicy, OnlineConfig, OnlineResults, PlatformConfig,
    PopulationConfig, RunControl, RunOutcome,
};
use hta_datagen::crowdflower::CrowdflowerConfig;
use hta_index::CandidateMode;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

// ---------------------------------------------------------------------------
// Layer 1: engine-level churn matrix
// ---------------------------------------------------------------------------

#[derive(Clone, Copy, PartialEq)]
enum Mode {
    DenseWarm,
    Cold,
}

fn engine(n_tasks: usize, n_workers: usize, seed: u64) -> IterationEngine {
    let nbits = 48;
    let mut tasks = TaskPool::new();
    for i in 0..n_tasks {
        let h = (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ seed;
        let kw = KeywordVec::from_indices(
            nbits,
            &[
                (h % nbits as u64) as usize,
                ((h >> 8) % nbits as u64) as usize,
                ((h >> 16) % nbits as u64) as usize,
            ],
        );
        tasks.push(hta_core::task::GroupId((i / 8) as u32), kw);
    }
    let mut workers = WorkerPool::new();
    for i in 0..n_workers {
        let h = (i as u64 + 101).wrapping_mul(0xBF58_476D_1CE4_E5B9) ^ seed;
        let kw = KeywordVec::from_indices(
            nbits,
            &[
                (h % nbits as u64) as usize,
                ((h >> 12) % nbits as u64) as usize,
            ],
        );
        workers.push(kw, Weights::balanced());
    }
    IterationEngine::new(tasks, workers, 3).unwrap()
}

/// Run `iters` iterations with open-set churn: after every iteration,
/// `closed.len() * churn_num / churn_den` of the so-far-assigned tasks are
/// re-released (deterministic stride selection, so every twin releases the
/// same ids as long as its assignments match). Returns one
/// `(assignments, objective bits)` row per iteration.
#[allow(clippy::type_complexity)]
fn run_churned(
    mode: Mode,
    churn: (usize, usize),
    threads: usize,
    seed: u64,
    iters: usize,
) -> Vec<(Vec<(WorkerId, Vec<TaskId>)>, u64)> {
    let mut eng = engine(96, 3, seed);
    match mode {
        Mode::DenseWarm => {
            eng.enable_edge_reuse(threads);
            eng.enable_warm_start(threads);
        }
        Mode::Cold => {}
    }
    let solver = HtaGre::new().with_threads(threads);
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5EED);
    let mut closed: Vec<TaskId> = Vec::new();
    let mut out = Vec::new();
    for it in 0..iters {
        let r = eng.run_iteration(&solver, &mut rng).unwrap();
        for (_, ts) in &r.assignments {
            closed.extend(ts.iter().copied());
        }
        closed.sort_unstable_by_key(|t| t.0);
        closed.dedup();
        out.push((r.assignments.clone(), r.objective.to_bits()));
        let k = closed.len() * churn.0 / churn.1.max(1);
        // Stride through the closed list at an iteration-dependent offset
        // so different subsets reopen each round.
        let mut reopened = Vec::new();
        for j in 0..k {
            let idx = (j * 7 + it * 3) % closed.len();
            reopened.push(closed[idx]);
        }
        reopened.sort_unstable_by_key(|t| t.0);
        reopened.dedup();
        for t in reopened {
            eng.release_task(t);
            closed.retain(|&c| c != t);
        }
    }
    out
}

/// The engine layer's fixed grid: churn {0, 1/64, 1/4} × threads
/// {1, 2, 7}, dense-warm ≡ cold per iteration, bit for bit. The engine
/// solves over every open task, so it has no sparse mode of its own.
#[test]
fn engine_sparse_matrix_is_byte_identical() {
    for churn in [(0usize, 1usize), (1, 64), (1, 4)] {
        for threads in [1usize, 2, 7] {
            let ctx = format!("churn={}/{} threads={threads}", churn.0, churn.1);
            let dense = run_churned(Mode::DenseWarm, churn, threads, 42, 6);
            let cold = run_churned(Mode::Cold, churn, threads, 42, 6);
            assert_eq!(dense, cold, "{ctx}: dense vs cold diverged");
        }
    }
}

// ---------------------------------------------------------------------------
// Layer 2: full-simulation matrix
// ---------------------------------------------------------------------------

static DIR_SEQ: AtomicUsize = AtomicUsize::new(0);

fn scratch_dir() -> PathBuf {
    let n = DIR_SEQ.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!("hta-sparse-test-{}-{n}", std::process::id()))
}

/// A small TopK-mode experiment with the dense edge-cache cap forced to 1,
/// far below the 250-task catalog: every solve runs on the sparse pipeline.
fn sparse_config(threads: usize, seed: u64) -> OnlineConfig {
    OnlineConfig {
        sessions_per_strategy: 3,
        cohort_size: 2,
        catalog: CrowdflowerConfig {
            n_tasks: 250,
            ..Default::default()
        },
        population: PopulationConfig {
            n_workers: 5,
            ..Default::default()
        },
        platform: PlatformConfig {
            session_minutes: 6.0,
            solver_threads: threads,
            candidates: CandidateMode::TopK(12),
            edge_cache_cap: 1,
            warm_start: true,
            ..Default::default()
        },
        seed,
        ..Default::default()
    }
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// Bit-exact results comparison: per-arm RNG stream positions, summaries,
/// every session record field (f64s compared by bits), every KPI series.
fn assert_results_identical(a: &OnlineResults, b: &OnlineResults, ctx: &str) {
    assert_eq!(a.per_strategy.len(), b.per_strategy.len(), "{ctx}");
    for (x, y) in a.per_strategy.iter().zip(&b.per_strategy) {
        let ctx = format!("{ctx}, arm {:?}", x.strategy);
        assert_eq!(x.strategy, y.strategy, "{ctx}");
        assert_eq!(x.rng_state, y.rng_state, "{ctx}: rng stream diverged");
        assert_eq!(x.summary, y.summary, "{ctx}: summary");
        assert_eq!(x.records.len(), y.records.len(), "{ctx}: session count");
        for (i, (r, s)) in x.records.iter().zip(&y.records).enumerate() {
            assert_eq!(r.worker_index, s.worker_index, "{ctx}: session {i}");
            assert_eq!(
                r.duration_minutes.to_bits(),
                s.duration_minutes.to_bits(),
                "{ctx}: session {i}"
            );
            assert_eq!(r.iterations, s.iterations, "{ctx}: session {i}");
            assert_eq!(r.earnings_cents, s.earnings_cents, "{ctx}: session {i}");
            assert_eq!(
                r.completions.len(),
                s.completions.len(),
                "{ctx}: session {i}"
            );
            for (c, d) in r.completions.iter().zip(&s.completions) {
                assert_eq!(c.task_index, d.task_index, "{ctx}: session {i}");
                assert_eq!(c.minute.to_bits(), d.minute.to_bits(), "{ctx}: s{i}");
                assert_eq!(c.correct, d.correct, "{ctx}: session {i}");
            }
        }
        for (name, sa, sb) in [
            ("quality", &x.quality, &y.quality),
            ("throughput", &x.throughput, &y.throughput),
            ("retention", &x.retention, &y.retention),
        ] {
            assert_eq!(bits(&sa.minutes), bits(&sb.minutes), "{ctx}: {name}");
            assert_eq!(bits(&sa.values), bits(&sb.values), "{ctx}: {name}");
        }
    }
}

/// Checkpoint every cohort, halt after `halt_after`, resume the newest
/// checkpoint to completion. Also returns the halted checkpoint's loaded
/// snapshot so callers can compare serialized progress across twins.
fn run_interrupted(
    cfg: &OnlineConfig,
    halt_after: usize,
) -> (OnlineResults, hta_crowd::snapshot::RunSnapshot) {
    let dir = scratch_dir();
    let control = RunControl {
        checkpoint: Some(CheckpointPolicy {
            every_cohorts: 1,
            dir: dir.clone(),
            keep: 0,
        }),
        halt_after_cohorts: Some(halt_after),
    };
    let halted = run_with(cfg, None, &control).expect("halted run");
    assert!(
        matches!(halted, RunOutcome::Halted { .. }),
        "run completed before the halt"
    );
    let latest = list_checkpoints(&dir).pop().expect("checkpoints exist");
    let loaded = load_run(&latest).expect("load checkpoint");
    let out = run_with(
        &loaded.config,
        Some(loaded.progress.clone()),
        &RunControl::default(),
    )
    .expect("resume");
    std::fs::remove_dir_all(&dir).ok();
    match out {
        RunOutcome::Complete(r) => (r, loaded),
        RunOutcome::Halted { .. } => panic!("resumed run halted unexpectedly"),
    }
}

/// The full fixed grid: threads {1, 2, 7}. Sparse-warm ≡
/// sparse-cold ≡ dense-warm (the catalog fits the default cap), and the
/// sparse run resumed from a mid-sequence checkpoint matches too.
#[test]
fn simulation_sparse_matrix_is_byte_identical() {
    for threads in [1usize, 2, 7] {
        let ctx = format!("threads={threads}");
        let cfg = sparse_config(threads, 0xD1CE);
        let sparse = run(&cfg);

        let mut cold_cfg = cfg.clone();
        cold_cfg.platform.warm_start = false;
        let cold = run(&cold_cfg);
        assert_results_identical(&sparse, &cold, &format!("{ctx} sparse vs cold"));

        let mut dense_cfg = cfg.clone();
        dense_cfg.platform.edge_cache_cap = 0; // default cap ≥ 250 → dense
        let dense = run(&dense_cfg);
        assert_results_identical(&sparse, &dense, &format!("{ctx} sparse vs dense"));

        let (resumed, _) = run_interrupted(&cfg, 3);
        assert_results_identical(&sparse, &resumed, &format!("{ctx} sparse vs resumed"));
    }
}

/// "Down to `snapshot_bytes()`": the sparse pipeline is derived state and
/// never serialized, so a sparse-warm run and a sparse-cold run halted at
/// the same cohort leave **byte-identical progress** (encoded under one
/// config to isolate the progress section from the differing knob).
#[test]
fn sparse_checkpoint_progress_is_byte_identical_to_cold() {
    let cfg = sparse_config(2, 0xBEEF);
    let mut cold_cfg = cfg.clone();
    cold_cfg.platform.warm_start = false;

    let (_, warm_loaded) = run_interrupted(&cfg, 3);
    let (_, cold_loaded) = run_interrupted(&cold_cfg, 3);
    assert_eq!(
        run_snapshot_bytes(&cfg, &warm_loaded.progress),
        run_snapshot_bytes(&cfg, &cold_loaded.progress),
        "sparse-warm checkpoint progress differs from sparse-cold"
    );
}

proptest! {
    /// Random seeds, halt points, thread picks: a sparse-warm run,
    /// the same run interrupted and resumed, and the sparse-cold twin are
    /// all byte-identical.
    #[test]
    fn sparse_warm_runs_are_byte_identical(
        threads_pick in 0usize..3,
        halt_after in 1usize..8,
        seed in 0u64..256,
    ) {
        let threads = [1usize, 2, 7][threads_pick];
        let cfg = sparse_config(threads, seed);
        let sparse = run(&cfg);
        let (resumed, _) = run_interrupted(&cfg, halt_after);
        let ctx = format!("threads={threads} halt={halt_after} seed={seed}");
        assert_results_identical(&sparse, &resumed, &ctx);
        let mut cold_cfg = cfg.clone();
        cold_cfg.platform.warm_start = false;
        let cold = run(&cold_cfg);
        assert_results_identical(&sparse, &cold, &format!("{ctx} vs cold"));
    }
}

//! PR-acceptance tests for checkpoint/resume: a run that is checkpointed,
//! "killed" (via the deterministic halt control), and resumed from its
//! latest snapshot must be **byte-identical** to an uninterrupted run — in
//! every session record, every derived metric, and the final RNG stream
//! position of every arm — at several solver-thread counts.

use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};

use hta_crowd::snapshot::{load_run, run_snapshot_bytes, run_snapshot_from_bytes};
use hta_crowd::{
    list_checkpoints, run, run_with, CheckpointPolicy, OnlineConfig, OnlineResults, PlatformConfig,
    PopulationConfig, RunControl, RunOutcome, SessionRecord,
};
use hta_datagen::crowdflower::CrowdflowerConfig;
use proptest::prelude::*;

static DIR_SEQ: AtomicUsize = AtomicUsize::new(0);

fn scratch_dir() -> PathBuf {
    let n = DIR_SEQ.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!("hta-resume-test-{}-{n}", std::process::id()))
}

/// A deliberately small experiment (short sessions, small catalog) so the
/// identity property can be checked at many configurations. 3 sessions per
/// arm at cohort size 2 → 2 cohorts per arm, 8 cohort boundaries total.
fn config(threads: usize, seed: u64) -> OnlineConfig {
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
            ..Default::default()
        },
        seed,
        ..Default::default()
    }
}

/// Bit-exact record comparison (plain `==` would accept `-0.0 == 0.0`).
fn assert_records_identical(a: &[SessionRecord], b: &[SessionRecord], ctx: &str) {
    assert_eq!(a.len(), b.len(), "{ctx}: session count");
    for (i, (x, y)) in a.iter().zip(b).enumerate() {
        assert_eq!(x.strategy, y.strategy, "{ctx}: session {i}");
        assert_eq!(x.worker_index, y.worker_index, "{ctx}: session {i}");
        assert_eq!(
            x.duration_minutes.to_bits(),
            y.duration_minutes.to_bits(),
            "{ctx}: session {i} duration"
        );
        assert_eq!(x.iterations, y.iterations, "{ctx}: session {i}");
        assert_eq!(x.end_reason, y.end_reason, "{ctx}: session {i}");
        assert_eq!(x.earnings_cents, y.earnings_cents, "{ctx}: session {i}");
        assert_eq!(
            x.arrival_minute.to_bits(),
            y.arrival_minute.to_bits(),
            "{ctx}: session {i}"
        );
        assert_eq!(
            x.completions.len(),
            y.completions.len(),
            "{ctx}: session {i} completions"
        );
        for (j, (ca, cb)) in x.completions.iter().zip(&y.completions).enumerate() {
            assert_eq!(ca.task_index, cb.task_index, "{ctx}: s{i} c{j}");
            assert_eq!(ca.minute.to_bits(), cb.minute.to_bits(), "{ctx}: s{i} c{j}");
            assert_eq!(ca.questions, cb.questions, "{ctx}: s{i} c{j}");
            assert_eq!(ca.correct, cb.correct, "{ctx}: s{i} c{j}");
            assert_eq!(ca.kind, cb.kind, "{ctx}: s{i} c{j}");
            assert_eq!(
                ca.boredom.to_bits(),
                cb.boredom.to_bits(),
                "{ctx}: s{i} c{j}"
            );
            assert_eq!(
                ca.pref_match.to_bits(),
                cb.pref_match.to_bits(),
                "{ctx}: s{i} c{j}"
            );
            assert_eq!(
                ca.display_diversity.to_bits(),
                cb.display_diversity.to_bits(),
                "{ctx}: s{i} c{j}"
            );
        }
    }
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

fn assert_results_identical(a: &OnlineResults, b: &OnlineResults, ctx: &str) {
    assert_eq!(a.per_strategy.len(), b.per_strategy.len(), "{ctx}");
    for (x, y) in a.per_strategy.iter().zip(&b.per_strategy) {
        let ctx = format!("{ctx}, arm {:?}", x.strategy);
        assert_eq!(x.strategy, y.strategy, "{ctx}");
        assert_eq!(x.rng_state, y.rng_state, "{ctx}: rng stream diverged");
        assert_eq!(x.summary, y.summary, "{ctx}: summary");
        assert_records_identical(&x.records, &y.records, &ctx);
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

/// Checkpoint every cohort, halt after `halt_after` cohorts (the
/// deterministic "kill"), reload the newest checkpoint from disk, and run
/// the rest to completion — exactly what `hta simulate --checkpoint-every`
/// followed by `hta resume` does.
fn run_interrupted(cfg: &OnlineConfig, halt_after: usize) -> OnlineResults {
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
    let snapshot = match halted {
        RunOutcome::Halted { snapshot, .. } => snapshot.expect("a checkpoint was written"),
        RunOutcome::Complete(_) => panic!("run completed before the halt"),
    };
    let latest = list_checkpoints(&dir).pop().expect("checkpoints exist");
    assert_eq!(latest, snapshot, "newest checkpoint is the one reported");
    let loaded = load_run(&latest).expect("load checkpoint");
    // Resume from the snapshot's own (round-tripped) config, as the CLI does.
    assert_eq!(loaded.config.seed, cfg.seed);
    assert_eq!(
        loaded.config.platform.solver_threads,
        cfg.platform.solver_threads
    );
    let out = run_with(
        &loaded.config,
        Some(loaded.progress),
        &RunControl::default(),
    )
    .expect("resume");
    std::fs::remove_dir_all(&dir).ok();
    match out {
        RunOutcome::Complete(r) => r,
        RunOutcome::Halted { .. } => panic!("resumed run halted unexpectedly"),
    }
}

/// `config`, with the full lifecycle layer switched on: deadlines, a mixed
/// priority spread, bounded retries, a strict verification bar (so requeues
/// actually happen), and reputation-scaled weights.
fn lifecycle_config(seed: u64) -> OnlineConfig {
    let mut cfg = config(2, seed);
    cfg.platform.lifecycle = true;
    cfg.platform.deadline_minutes = 2.5;
    cfg.platform.priority_mix = hta_life::PriorityMix::parse("1,2,1,0.5").unwrap();
    cfg.platform.max_retries = 1;
    cfg.platform.pass_threshold = 1.05;
    cfg.platform.reputation = true;
    cfg
}

/// The fixed grid: 1/2/7 solver threads, interrupted mid-run.
#[test]
fn resume_identity_across_thread_grid() {
    for threads in [1usize, 2, 7] {
        let cfg = config(threads, 0xA11CE);
        let uninterrupted = run(&cfg);
        let resumed = run_interrupted(&cfg, 3);
        let ctx = format!("threads={threads}");
        assert_results_identical(&uninterrupted, &resumed, &ctx);
    }
}

/// Halting on the very last cohort still resumes to a complete, identical
/// result (the checkpoint then holds a fully-finished final arm).
#[test]
fn resume_from_final_cohort_boundary() {
    let cfg = config(2, 77);
    let uninterrupted = run(&cfg);
    let resumed = run_interrupted(&cfg, 8);
    assert_results_identical(&uninterrupted, &resumed, "final-boundary");
}

#[test]
fn pruning_keeps_only_the_newest_checkpoints() {
    let cfg = config(1, 3);
    let dir = scratch_dir();
    let control = RunControl {
        checkpoint: Some(CheckpointPolicy {
            every_cohorts: 1,
            dir: dir.clone(),
            keep: 2,
        }),
        halt_after_cohorts: None,
    };
    let out = run_with(&cfg, None, &control).expect("run");
    assert!(matches!(out, RunOutcome::Complete(_)));
    let files = list_checkpoints(&dir);
    assert_eq!(files.len(), 2, "keep=2 leaves exactly two: {files:?}");
    // The survivors are the newest ones: the final arm's two boundaries.
    let names: Vec<String> = files
        .iter()
        .map(|p| p.file_name().unwrap().to_string_lossy().into_owned())
        .collect();
    assert_eq!(
        names,
        ["ckpt-a03-s00002.htasnap", "ckpt-a03-s00003.htasnap"]
    );
    // Both survivors load cleanly.
    for f in &files {
        load_run(f).expect("pruned directory still holds valid snapshots");
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn corrupted_checkpoints_are_rejected_not_half_restored() {
    let cfg = config(1, 9);
    let dir = scratch_dir();
    let control = RunControl {
        checkpoint: Some(CheckpointPolicy {
            every_cohorts: 1,
            dir: dir.clone(),
            keep: 0,
        }),
        halt_after_cohorts: Some(2),
    };
    run_with(&cfg, None, &control).expect("halted run");
    let path = list_checkpoints(&dir).pop().expect("checkpoint");
    let bytes = std::fs::read(&path).expect("read checkpoint");

    // Every truncation and a sweep of single-bit flips must fail with an
    // error, never a partially-valid snapshot.
    for cut in [0, 7, 8, 12, bytes.len() / 2, bytes.len() - 1] {
        assert!(
            run_snapshot_from_bytes(&bytes[..cut]).is_err(),
            "truncation at {cut} accepted"
        );
    }
    for pos in (0..bytes.len()).step_by(131) {
        let mut t = bytes.clone();
        t[pos] ^= 0x01;
        assert!(
            run_snapshot_from_bytes(&t).is_err(),
            "bit flip at {pos} accepted"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

proptest! {
    /// The property behind it all: for random halt points, seeds, and
    /// thread counts, (run N cohorts, checkpoint, kill, resume, run the
    /// remaining M) ≡ (run N+M cohorts straight through), bit for bit.
    #[test]
    fn interrupted_runs_are_byte_identical_to_uninterrupted(
        threads_pick in 0usize..3,
        halt_after in 1usize..8,
        seed in 0u64..1024,
    ) {
        let threads = [1usize, 2, 7][threads_pick];
        let cfg = config(threads, seed);
        let uninterrupted = run(&cfg);
        let resumed = run_interrupted(&cfg, halt_after);
        let ctx = format!("threads={threads} halt={halt_after} seed={seed}");
        assert_results_identical(&uninterrupted, &resumed, &ctx);
    }

    /// With the lifecycle + reputation layer on, the same identity holds —
    /// the state machine ledger, deadlines, retry counters, and reputation
    /// EWMAs all checkpoint and resume bit-for-bit, across halt points.
    #[test]
    fn lifecycle_runs_resume_byte_identical(halt_after in 1usize..8, seed in 0u64..512) {
        let cfg = lifecycle_config(seed);
        let uninterrupted = run(&cfg);
        let resumed = run_interrupted(&cfg, halt_after);
        let ctx = format!("lifecycle halt={halt_after} seed={seed}");
        assert_results_identical(&uninterrupted, &resumed, &ctx);
    }

    /// With warm-start matching on, resume stays byte-identical too: the
    /// snapshot carries the warm essence (fingerprint + open list), the
    /// resumed platform rebuilds the matching from it, and every later
    /// solve repairs from exactly the state a continuous run would hold.
    #[test]
    fn warm_start_runs_resume_byte_identical(
        halt_after in 1usize..8,
        threads_pick in 0usize..3,
        seed in 0u64..512,
    ) {
        let mut cfg = config([1usize, 2, 7][threads_pick], seed);
        cfg.platform.warm_start = true;
        let uninterrupted = run(&cfg);
        let resumed = run_interrupted(&cfg, halt_after);
        let ctx = format!("warm halt={halt_after} seed={seed}");
        assert_results_identical(&uninterrupted, &resumed, &ctx);
        // And warm-on ≡ warm-off: the feature never changes results.
        cfg.platform.warm_start = false;
        let cold = run(&cfg);
        assert_results_identical(&uninterrupted, &cold, &format!("{ctx} vs cold"));
    }

    /// Lifecycle snapshot sections round-trip to the same bytes mid-run.
    #[test]
    fn lifecycle_snapshot_bytes_round_trip(halt_after in 1usize..8, seed in 0u64..512) {
        let cfg = lifecycle_config(seed);
        let dir = scratch_dir();
        let control = RunControl {
            checkpoint: Some(CheckpointPolicy { every_cohorts: 1, dir: dir.clone(), keep: 0 }),
            halt_after_cohorts: Some(halt_after),
        };
        run_with(&cfg, None, &control).expect("halted run");
        let path = list_checkpoints(&dir).pop().expect("checkpoint");
        let loaded = load_run(&path).expect("load");
        prop_assert!(loaded.progress.life.is_some(), "lifecycle section missing");
        let bytes = run_snapshot_bytes(&loaded.config, &loaded.progress);
        let again = run_snapshot_from_bytes(&bytes).expect("re-encode round trip");
        prop_assert_eq!(&again.progress.life, &loaded.progress.life);
        prop_assert_eq!(run_snapshot_bytes(&again.config, &again.progress), bytes);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Snapshot encoding itself round-trips over runs with arbitrary
    /// mid-run state (exercised through the public byte API).
    #[test]
    fn snapshot_bytes_round_trip_mid_run(halt_after in 1usize..8, seed in 0u64..1024) {
        let cfg = config(1, seed);
        let dir = scratch_dir();
        let control = RunControl {
            checkpoint: Some(CheckpointPolicy { every_cohorts: 1, dir: dir.clone(), keep: 0 }),
            halt_after_cohorts: Some(halt_after),
        };
        run_with(&cfg, None, &control).expect("halted run");
        let path = list_checkpoints(&dir).pop().expect("checkpoint");
        let loaded = load_run(&path).expect("load");
        let bytes = run_snapshot_bytes(&loaded.config, &loaded.progress);
        let again = run_snapshot_from_bytes(&bytes).expect("re-encode round trip");
        prop_assert_eq!(again.progress.arm, loaded.progress.arm);
        prop_assert_eq!(again.progress.rng_state, loaded.progress.rng_state);
        prop_assert_eq!(again.progress.available, loaded.progress.available);
        std::fs::remove_dir_all(&dir).ok();
    }
}

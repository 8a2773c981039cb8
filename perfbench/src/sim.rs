//! `sim-dense` and `sim-sparse`: the crowd platform of Figure 4 driven the
//! way `hta simulate` drives it — the four [`Strategy::ALL`] arms, one
//! [`Platform::new`] per arm, then cohorts of five sessions through
//! [`Platform::run_cohort`] — repeated in passes until the run's time is up.
//!
//! Every pass runs the same seeded inputs, so every pass must produce the
//! same per-arm [`hta_crowd::SessionRecord`] digest; that, and no session
//! ending with `PoolExhausted`, are the workload's correctness checks.

use std::cell::RefCell;
use std::rc::Rc;
use std::time::{Duration, Instant};

use hta_core::{Worker, WorkerId};
use hta_crowd::{
    EndReason, LiveWorker, Platform, PlatformConfig, PopulationConfig, SessionRecord, Strategy,
};
use hta_datagen::crowdflower::{CrowdflowerCatalog, CrowdflowerConfig};
use hta_index::{CandidateMode, CandidatePool, PoolParams};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::probe::{Entry, ProbedSolver, SolveLog, SolveRecord};
use crate::report::{fnv1a, Metrics, Report};
use crate::stats::{mean, median, ms, percentile, Setups};
use crate::trace::{self, Tracer};

/// Sessions per cohort, as `hta simulate` runs them.
pub const COHORT: usize = 5;
/// Per-worker retrieval depth of the top-k candidate pools.
pub const TOPK: usize = 16;
/// Seconds of set-up repetitions sampled before each pass (the first
/// block runs before the clock of the run starts).
pub const SETUP_BLOCK_S: f64 = 0.2;

/// Size of one simulation workload.
#[derive(Debug, Clone, Copy)]
pub struct SimSpec {
    /// Catalog size.
    pub tasks: usize,
    /// Sessions per strategy arm.
    pub sessions: usize,
    /// Dense edge-cache cap (`0` = the built-in default).
    pub edge_cache_cap: usize,
}

impl SimSpec {
    /// `sim-dense`: under the 4,096-task dense cap.
    pub const DENSE: SimSpec = SimSpec {
        tasks: 4_000,
        sessions: 80,
        edge_cache_cap: 0,
    };
    /// `sim-sparse`: far past the dense cap.
    pub const SPARSE: SimSpec = SimSpec {
        tasks: 100_000,
        sessions: 40,
        edge_cache_cap: 0,
    };
    /// Smoke-test size of `sim-dense`.
    pub const DENSE_SMALL: SimSpec = SimSpec {
        tasks: 600,
        sessions: 10,
        edge_cache_cap: 0,
    };
    /// Smoke-test size of `sim-sparse`: a lowered cap keeps it sparse.
    pub const SPARSE_SMALL: SimSpec = SimSpec {
        tasks: 3_000,
        sessions: 10,
        edge_cache_cap: 1_000,
    };

    fn platform_config(&self) -> PlatformConfig {
        PlatformConfig {
            candidates: CandidateMode::TopK(TOPK),
            warm_start: true,
            edge_cache_cap: self.edge_cache_cap,
            ..PlatformConfig::default()
        }
    }
}

/// The seeded inputs: catalog and worker population.
pub struct SimInputs {
    /// The micro-task catalog.
    pub catalog: CrowdflowerCatalog,
    /// The worker population cohorts are drawn from.
    pub population: Vec<LiveWorker>,
}

/// Generate the inputs for `seed`, returning them with the catalog and
/// population generation times in seconds.
pub fn setup(spec: SimSpec, seed: u64) -> (SimInputs, f64, f64) {
    let t0 = Instant::now();
    let catalog = CrowdflowerCatalog::generate(&CrowdflowerConfig {
        n_tasks: spec.tasks,
        seed,
        ..CrowdflowerConfig::default()
    });
    let t1 = Instant::now();
    let population = hta_crowd::population::generate(
        &catalog.space,
        &PopulationConfig {
            seed: seed ^ 0x11FE,
            ..PopulationConfig::default()
        },
    );
    let t2 = Instant::now();
    let inputs = SimInputs {
        catalog,
        population,
    };
    (inputs, (t1 - t0).as_secs_f64(), (t2 - t1).as_secs_f64())
}

/// What one pass over the four arms produced.
pub struct PassOut {
    /// Wall time of the pass.
    pub wall: Duration,
    /// Sessions run.
    pub sessions: usize,
    /// Sessions that ended with `PoolExhausted`.
    pub exhausted: usize,
    /// Per-arm digest of the session records, in [`Strategy::ALL`] order.
    pub digests: Vec<u64>,
    /// Every forwarded solve.
    pub solves: Vec<SolveRecord>,
    /// Platform time between consecutive solves inside a cohort, ms.
    pub gaps_ms: Vec<f64>,
    /// Wall time of each `run_cohort` call, ms.
    pub cohort_ms: Vec<f64>,
    /// Assignment iterations summed over sessions.
    pub iterations: usize,
    /// Open share of the catalog at the end of each arm.
    pub open_frac: Vec<f64>,
    /// `ShardedIndex::top_k` probe times (traced passes only), ms.
    pub topk_ms: Vec<f64>,
    /// `CandidatePool::generate` probe times (traced passes only), ms.
    pub pool_ms: Vec<f64>,
}

/// Digest of one arm's session records.
pub fn digest(records: &[SessionRecord]) -> u64 {
    fnv1a(format!("{records:?}").as_bytes())
}

/// Run the four arms once. With an enabled `tracer`, spans are recorded
/// around every layer call and each cohort start is probed with a top-k
/// retrieval per worker and one pool generation (reads only).
pub fn run_pass(spec: SimSpec, inputs: &SimInputs, seed: u64, tracer: &mut Tracer) -> PassOut {
    let cfg = spec.platform_config();
    let traced = tracer.enabled();
    let mut out = PassOut {
        wall: Duration::ZERO,
        sessions: 0,
        exhausted: 0,
        digests: Vec::new(),
        solves: Vec::new(),
        gaps_ms: Vec::new(),
        cohort_ms: Vec::new(),
        iterations: 0,
        open_frac: Vec::new(),
        topk_ms: Vec::new(),
        pool_ms: Vec::new(),
    };
    let started = Instant::now();
    let mut cohort_id = 0u64;
    for (arm, &strategy) in Strategy::ALL.iter().enumerate() {
        let arm_span = tracer.enter("crowd.arm", arm as u64);
        let log: SolveLog = Rc::new(RefCell::new(Vec::new()));
        let t0 = Instant::now();
        let mut platform = Platform::new(&inputs.catalog, cfg.clone()).with_solver(Box::new(
            ProbedSolver::new(cfg.solver_threads, Rc::clone(&log)),
        ));
        tracer.record("crowd.platform_new", arm as u64, t0, Instant::now());
        let mut rng = StdRng::seed_from_u64(seed ^ (arm as u64 + 1));
        let mut records: Vec<SessionRecord> = Vec::new();
        let mut next_worker = 0usize;
        while records.len() < spec.sessions {
            let take = COHORT.min(spec.sessions - records.len());
            let cohort: Vec<&LiveWorker> = (0..take)
                .map(|k| &inputs.population[(next_worker + k) % inputs.population.len()])
                .collect();
            next_worker += take;
            if traced {
                probe_index(&platform, &cohort, cfg.xmax, cohort_id, tracer, &mut out);
            }
            let first = log.borrow().len();
            let span = tracer.enter("crowd.cohort", cohort_id);
            let t0 = Instant::now();
            records.extend(platform.run_cohort(strategy, &cohort, &mut rng));
            out.cohort_ms.push(ms(t0.elapsed()));
            let solves = log.borrow();
            for s in &solves[first..] {
                tracer.record(entry_span(s.entry), cohort_id, s.start, s.end);
            }
            tracer.exit(span);
            for pair in solves[first..].windows(2) {
                out.gaps_ms
                    .push(ms(pair[1].start.saturating_duration_since(pair[0].end)));
            }
            cohort_id += 1;
        }
        tracer.exit(arm_span);
        out.sessions += records.len();
        out.exhausted += records
            .iter()
            .filter(|r| r.end_reason == EndReason::PoolExhausted)
            .count();
        out.iterations += records.iter().map(|r| r.iterations).sum::<usize>();
        out.open_frac
            .push(platform.open_tasks() as f64 / inputs.catalog.tasks.len() as f64);
        out.digests.push(digest(&records));
        drop(platform);
        out.solves.append(&mut log.borrow_mut());
    }
    out.wall = started.elapsed();
    out
}

fn entry_span(entry: Entry) -> &'static str {
    match entry {
        Entry::Cold => "solve.cold",
        Entry::Edges => "solve.edges",
        Entry::Warm => "solve.warm",
        Entry::WarmSparse => "solve.warm_sparse",
    }
}

/// Cohort-start index probes: each member's top-k over the platform's
/// live index, then the joint candidate pool. Both only read the index.
fn probe_index(
    platform: &Platform<'_>,
    cohort: &[&LiveWorker],
    xmax: usize,
    cohort_id: u64,
    tracer: &mut Tracer,
    out: &mut PassOut,
) {
    let workers: Vec<Worker> = cohort
        .iter()
        .enumerate()
        .map(|(i, w)| Worker::new(WorkerId(i as u32), w.keywords.clone()))
        .collect();
    for w in &workers {
        let t0 = Instant::now();
        std::hint::black_box(platform.index().top_k(&w.keywords, TOPK));
        let t1 = Instant::now();
        tracer.record("index.topk", cohort_id, t0, t1);
        out.topk_ms.push(ms(t1 - t0));
    }
    let t0 = Instant::now();
    std::hint::black_box(CandidatePool::generate(
        platform.index(),
        &workers,
        xmax,
        &PoolParams::with_k(TOPK),
    ));
    let t1 = Instant::now();
    tracer.record("index.pool_generate", cohort_id, t0, t1);
    out.pool_ms.push(ms(t1 - t0));
}

/// Run a simulation workload for about `seconds`: untraced passes, or, with
/// `trace`, untraced and traced passes alternating.
pub fn run(spec: SimSpec, seed: u64, seconds: f64, trace: bool, trace_path: &str) -> Report {
    // Set-up is sampled before every pass (median reported); each pass
    // runs on the inputs built just before it.
    let mut setups = Setups::default();
    let build = || setup(spec, seed);
    let mut inputs = setups.block(SETUP_BLOCK_S, build);

    let origin = Instant::now();
    let mut tracer = Tracer::new(trace, origin);
    let mut quiet = Tracer::new(false, origin);
    let mut plain: Vec<PassOut> = Vec::new();
    let mut traced: Vec<PassOut> = Vec::new();
    let budget = Duration::from_secs_f64(seconds);
    loop {
        if !plain.is_empty() {
            drop(inputs);
            inputs = setups.block(SETUP_BLOCK_S, build);
        }
        let traced_turn = trace && plain.len() > traced.len();
        let pass = if traced_turn {
            let h = tracer.enter("sim.pass", traced.len() as u64);
            let p = run_pass(spec, &inputs, seed, &mut tracer);
            tracer.exit(h);
            p
        } else {
            run_pass(spec, &inputs, seed, &mut quiet)
        };
        let last = pass.wall;
        if traced_turn {
            traced.push(pass);
        } else {
            plain.push(pass);
        }
        let enough = plain.len() >= 2 && (!trace || !traced.is_empty());
        if enough && origin.elapsed() + last > budget {
            break;
        }
    }

    let mut report = Report::default();
    let all: Vec<&PassOut> = plain.iter().chain(&traced).collect();
    let reference = &plain[0].digests;
    let mismatched = all.iter().filter(|p| &p.digests != reference).count();
    report.attempted = all.iter().map(|p| p.sessions as u64).sum();
    report.failed = all.iter().map(|p| p.exhausted as u64).sum();
    report.check(
        mismatched == 0,
        format!("session digests identical across {} passes", all.len()),
    );
    report.check(
        report.failed == 0,
        "no session ends with PoolExhausted".to_owned(),
    );
    report.check(
        all.iter()
            .all(|p| p.sessions == spec.sessions * Strategy::ALL.len()),
        format!("{} sessions per arm", spec.sessions),
    );
    report.note(format!(
        "digests {}",
        reference
            .iter()
            .map(|d| format!("{d:016x}"))
            .collect::<Vec<_>>()
            .join(" ")
    ));

    let rate = |passes: &[PassOut]| -> f64 {
        median(
            &passes
                .iter()
                .map(|p| p.sessions as f64 / p.wall.as_secs_f64())
                .collect::<Vec<_>>(),
        )
    };
    // The end-to-end set comes from the untraced passes in both modes.
    let mut m = Metrics::new();
    {
        // Every pass repeats the same work: each latency percentile is
        // taken per pass and reported as the median over passes, so one
        // disturbed pass does not move it.
        let single = |p: &PassOut| -> Vec<f64> {
            p.solves
                .iter()
                .filter(|s| s.workers == 1)
                .map(|s| ms(s.end - s.start))
                .collect()
        };
        let over_passes = |f: &dyn Fn(&PassOut) -> f64| -> f64 {
            median(&plain.iter().map(f).collect::<Vec<_>>())
        };
        let solves: Vec<&SolveRecord> = plain.iter().flat_map(|p| &p.solves).collect();
        let workers: usize = solves.iter().map(|s| s.workers).sum();
        m.set("setup_s", median(&setups.total));
        m.set("sessions_per_s", rate(&plain));
        m.set(
            "assign_p50_ms",
            over_passes(&|p| percentile(&single(p), 0.5)),
        );
        m.set(
            "assign_p95_ms",
            over_passes(&|p| percentile(&single(p), 0.95)),
        );
        m.set(
            "batch_p50_ms",
            over_passes(&|p| percentile(&p.cohort_ms, 0.5)),
        );
        m.set(
            "batch_p90_ms",
            over_passes(&|p| percentile(&p.cohort_ms, 0.9)),
        );
        m.set(
            "complete_p50_ms",
            over_passes(&|p| percentile(&p.gaps_ms, 0.5)),
        );
        m.set(
            "complete_p99_ms",
            over_passes(&|p| percentile(&p.gaps_ms, 0.99)),
        );
        m.set(
            "assign_motiv_mean",
            solves.iter().map(|s| s.motiv_sum).sum::<f64>() / workers.max(1) as f64,
        );
        let first = &plain[0];
        report.samples(
            "assign per pass (single-worker solves)",
            single(first).len(),
        );
        report.samples("batch per pass (cohorts)", first.cohort_ms.len());
        report.samples(
            "complete per pass (gaps between solves)",
            first.gaps_ms.len(),
        );
        report.note(format!(
            "{} passes of {:?} s",
            plain.len(),
            plain
                .iter()
                .map(|p| (p.wall.as_secs_f64() * 1e3).round() / 1e3)
                .collect::<Vec<_>>(),
        ));
        report.note(setups.note());
    }
    if trace {
        let spans = tracer.take();
        layer_metrics(&mut m, &traced, &spans, &setups);
        let (untraced_rate, traced_rate) = (rate(&plain), rate(&traced));
        m.set(
            "trace.overhead_pct",
            (untraced_rate / traced_rate - 1.0) * 100.0,
        );
        m.set(
            "failed_op_ratio",
            report.failed as f64 / report.attempted.max(1) as f64,
        );
        report.note(format!(
            "tracing overhead: {untraced_rate:.3} sessions/s untraced ({} passes) vs {traced_rate:.3} traced ({} passes)",
            plain.len(),
            traced.len()
        ));
        report.write_trace(trace_path, &spans);
    }
    report.metrics = m;
    report
}

fn layer_metrics(m: &mut Metrics, traced: &[PassOut], spans: &[trace::Span], setups: &Setups) {
    let n = traced.len() as f64;
    let per_pass =
        |f: &dyn Fn(&PassOut) -> f64| -> f64 { median(&traced.iter().map(f).collect::<Vec<_>>()) };
    let solves: Vec<&SolveRecord> = traced.iter().flat_map(|p| &p.solves).collect();
    let count = |pred: &dyn Fn(&SolveRecord) -> bool| -> f64 {
        solves.iter().filter(|s| pred(s)).count() as f64 / n
    };
    let secs = |f: &dyn Fn(&SolveRecord) -> Duration| -> f64 {
        solves.iter().map(|s| f(s).as_secs_f64()).sum::<f64>() / n
    };
    let summary = trace::summarize(spans);
    let span_total = |name: &str| summary.get(name).map_or(0.0, |e| e.1 as f64 / 1e9) / n;

    m.set("datagen.catalog_s", median(&setups.catalog));
    m.set("datagen.population_s", median(&setups.population));
    m.set(
        "index.topk_ms_p50",
        median(
            &traced
                .iter()
                .flat_map(|p| p.topk_ms.iter().copied())
                .collect::<Vec<_>>(),
        ),
    );
    m.set(
        "index.pool_generate_ms_p50",
        median(
            &traced
                .iter()
                .flat_map(|p| p.pool_ms.iter().copied())
                .collect::<Vec<_>>(),
        ),
    );
    m.set("index.open_frac_end", per_pass(&|p| mean(&p.open_frac)));
    m.set("crowd.platform_new_s", span_total("crowd.platform_new"));
    m.set("crowd.cohort_s", span_total("crowd.cohort"));
    m.set(
        "crowd.residual_s",
        trace::self_seconds(spans, "crowd.cohort") / n,
    );
    m.set("crowd.iterations", per_pass(&|p| p.iterations as f64));
    m.set("solve.calls.cold", count(&|s| s.entry == Entry::Cold));
    m.set("solve.calls.edges", count(&|s| s.entry == Entry::Edges));
    m.set("solve.calls.warm", count(&|s| s.entry == Entry::Warm));
    m.set(
        "solve.calls.warm_sparse",
        count(&|s| s.entry == Entry::WarmSparse),
    );
    let dur: Vec<f64> = solves.iter().map(|s| ms(s.end - s.start)).collect();
    m.set("solve.ms_p50", percentile(&dur, 0.5));
    m.set("solve.ms_p99", percentile(&dur, 0.99));
    let total = secs(&|s| s.end - s.start);
    let named = [
        ("solve.edge_enum_s", secs(&|s| s.timings.edge_enum)),
        ("solve.matching_s", secs(&|s| s.timings.matching)),
        ("solve.lsap_s", secs(&|s| s.timings.lsap)),
    ];
    m.set("solve.total_s", total);
    for (name, v) in named {
        m.set(name, v);
    }
    m.set(
        "solve.other_s",
        total - named.iter().map(|(_, v)| v).sum::<f64>(),
    );
    m.set(
        "solve.tasks_mean",
        mean(&solves.iter().map(|s| s.tasks as f64).collect::<Vec<_>>()),
    );
    m.set(
        "solve.workers_mean",
        mean(&solves.iter().map(|s| s.workers as f64).collect::<Vec<_>>()),
    );
    let warm = |entry: Entry, repaired: bool| {
        count(&|s| s.entry == entry && s.update.is_some_and(|u| u.repaired == repaired))
    };
    let churn: Vec<f64> = solves
        .iter()
        .filter(|s| s.entry == Entry::Warm)
        .filter_map(|s| s.update.map(|u| (u.removed + u.added) as f64))
        .collect();
    m.set("matching.repaired", warm(Entry::Warm, true));
    m.set("matching.rebuilt", warm(Entry::Warm, false));
    m.set("matching.churn_mean", mean(&churn));
    m.set(
        "sparse.rebinds",
        count(&|s| s.entry == Entry::WarmSparse && s.rebind),
    );
    m.set("sparse.repaired", warm(Entry::WarmSparse, true));
    m.set("sparse.rebuilt", warm(Entry::WarmSparse, false));
    let edges: Vec<f64> = solves
        .iter()
        .filter(|s| s.entry == Entry::WarmSparse)
        .map(|s| s.sparse_edges as f64)
        .collect();
    m.set("sparse.edges_mean", mean(&edges));
}

/// Per-arm digests of the same arms on a platform with its own solver, no
/// wrapper (the identity tests compare these with the wrapped passes').
#[cfg(test)]
fn plain_digests(spec: SimSpec, inputs: &SimInputs, seed: u64) -> Vec<u64> {
    let cfg = spec.platform_config();
    Strategy::ALL
        .iter()
        .enumerate()
        .map(|(arm, &strategy)| {
            let mut platform = Platform::new(&inputs.catalog, cfg.clone());
            let mut rng = StdRng::seed_from_u64(seed ^ (arm as u64 + 1));
            let mut records = Vec::new();
            let mut next = 0usize;
            while records.len() < spec.sessions {
                let take = COHORT.min(spec.sessions - records.len());
                let cohort: Vec<&LiveWorker> = (0..take)
                    .map(|k| &inputs.population[(next + k) % inputs.population.len()])
                    .collect();
                next += take;
                records.extend(platform.run_cohort(strategy, &cohort, &mut rng));
            }
            digest(&records)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The wrapper forwards every entry unchanged: untraced and traced
    /// passes produce the digests of a platform running its own solver.
    fn identity(spec: SimSpec, expect: Entry) {
        let seed = 42;
        let (inputs, _, _) = setup(spec, seed);
        let plain = plain_digests(spec, &inputs, seed);
        let untraced = run_pass(spec, &inputs, seed, &mut Tracer::new(false, Instant::now()));
        let mut tracer = Tracer::new(true, Instant::now());
        let traced = run_pass(spec, &inputs, seed, &mut tracer);
        assert_eq!(untraced.digests, plain);
        assert_eq!(traced.digests, plain);
        assert!(!tracer.take().is_empty());
        assert!(!traced.pool_ms.is_empty() && untraced.pool_ms.is_empty());
        assert!(untraced.solves.iter().any(|s| s.entry == expect));
        assert_eq!(untraced.exhausted, 0);
    }

    #[test]
    fn dense_wrapper_changes_no_decision() {
        identity(SimSpec::DENSE_SMALL, Entry::Warm);
    }

    #[test]
    fn sparse_wrapper_changes_no_decision() {
        identity(SimSpec::SPARSE_SMALL, Entry::WarmSparse);
    }
}

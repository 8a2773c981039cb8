//! CLI subcommand implementations.

use std::error::Error;
use std::sync::Arc;

use hta_core::prelude::*;
use hta_core::{EdgeSource, OpenSetSession, Round};
use hta_datagen::amt::{generate_exact, AmtConfig};
use hta_datagen::export;
use hta_datagen::workers::{synthetic_workers, SyntheticWorkerConfig};
use hta_index::{assign_round, CandidateMode, FullWindow, InvertedIndex};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::args::Args;

type CmdResult = Result<(), Box<dyn Error>>;

/// `hta generate` — AMT-like corpus to CSV.
pub fn generate(args: &Args) -> CmdResult {
    args.no_positionals()?;
    args.reject_unknown(&["tasks", "groups", "vocab", "seed", "out"])?;
    let n_tasks: usize = args.get_or("tasks", 1000)?;
    let n_groups: usize = args.get_or("groups", 100)?;
    let vocab: usize = args.get_or("vocab", 500)?;
    let seed: u64 = args.get_or("seed", 0)?;
    let out = args.require("out")?;

    let cfg = AmtConfig {
        vocab_size: vocab,
        seed,
        ..AmtConfig::with_totals(n_tasks, n_groups)
    };
    let workload = generate_exact(&cfg, n_tasks);
    let csv = export::tasks_to_csv(&workload.space, &workload.tasks);
    std::fs::write(out, csv)?;
    println!(
        "wrote {} tasks in {} groups (vocabulary {}) to {out}",
        workload.tasks.len(),
        workload.tasks.group_count(),
        workload.space.len()
    );
    Ok(())
}

/// `hta workers` — synthetic workers over a corpus' keyword universe.
pub fn workers(args: &Args) -> CmdResult {
    args.no_positionals()?;
    args.reject_unknown(&["count", "keywords", "tasks", "seed", "out"])?;
    let count: usize = args.get_or("count", 50)?;
    let keywords: usize = args.get_or("keywords", 5)?;
    let seed: u64 = args.get_or("seed", 0)?;
    let tasks_file = args.require("tasks")?;
    let out = args.require("out")?;

    let (space, _) = export::tasks_from_csv(&std::fs::read_to_string(tasks_file)?)?;
    let pool = synthetic_workers(
        space.len(),
        &SyntheticWorkerConfig {
            n_workers: count,
            keywords_per_worker: keywords,
            seed,
            ..Default::default()
        },
    );
    std::fs::write(out, export::workers_to_csv(&space, &pool))?;
    println!("wrote {count} workers ({keywords} keywords each) to {out}");
    Ok(())
}

/// `hta solve` — one HTA iteration over CSV inputs.
pub fn solve(args: &Args) -> CmdResult {
    args.no_positionals()?;
    args.reject_unknown(&[
        "tasks",
        "workers",
        "xmax",
        "algorithm",
        "seed",
        "out",
        "candidates",
        "solver-threads",
        "deadlines",
        "priority-mix",
        "reputation",
    ])?;
    let tasks_file = args.require("tasks")?;
    let workers_file = args.require("workers")?;
    let xmax: usize = args.get_or("xmax", 10)?;
    let algorithm = args.get("algorithm").unwrap_or("gre");
    let seed: u64 = args.get_or("seed", 0)?;
    let solver_threads: usize = args.get_or("solver-threads", 0)?;
    let candidates: CandidateMode = match args.get("candidates") {
        Some(s) => s
            .parse()
            .map_err(|e: String| -> Box<dyn Error> { e.into() })?,
        None => CandidateMode::Full,
    };
    let deadlines: f64 = args.get_or("deadlines", 0.0)?;
    if !deadlines.is_finite() || deadlines < 0.0 {
        return Err(format!(
            "--deadlines must be a non-negative number of minutes, got {deadlines}"
        )
        .into());
    }
    let priority_mix = match args.get("priority-mix") {
        Some(s) => Some(
            hta_life::PriorityMix::parse(s).map_err(|e: String| -> Box<dyn Error> { e.into() })?,
        ),
        None => None,
    };
    let reputation = match args.get("reputation") {
        Some(s) => {
            let score: f64 = s
                .parse()
                .map_err(|_| format!("--reputation must be a score in 0..=1, got '{s}'"))?;
            if !(0.0..=1.0).contains(&score) {
                return Err(format!("--reputation must be a score in 0..=1, got {score}").into());
            }
            Some(score)
        }
        None => None,
    };

    let (mut space, task_pool) = export::tasks_from_csv(&std::fs::read_to_string(tasks_file)?)?;
    let width_before = space.len();
    let worker_pool =
        export::workers_from_csv(&mut space, &std::fs::read_to_string(workers_file)?)?;

    // Worker keywords may have widened the universe; re-home task vectors.
    let tasks: Vec<Task> = task_pool
        .tasks()
        .iter()
        .map(|t| {
            let kw = if width_before == space.len() {
                t.keywords.clone()
            } else {
                space.widen(&t.keywords)
            };
            Task::new(t.id, t.group, kw).with_reward_cents(t.reward_cents)
        })
        .collect();
    let mut workers: Vec<Worker> = worker_pool.workers().to_vec();
    // A uniform reputation score scales Eq. 3's relevance weight exactly
    // like the marketplace layer does per worker: β ← β · 2·pool_score,
    // neutral at 0.5 (see hta_life::Reputation::beta_scale).
    if let Some(score) = reputation {
        for w in &mut workers {
            w.weights = w.weights.scale_beta(2.0 * score);
        }
        println!(
            "reputation {score}: relevance weight scaled by {:.3}",
            2.0 * score
        );
    }

    // `--solver-threads 0` defers to `HTA_SOLVER_THREADS`, then hardware;
    // the pipeline's output is byte-identical at any thread count.
    let solver: Box<dyn Solver> = match algorithm {
        "app" => Box::new(HtaApp::new().with_threads(solver_threads)),
        "app-hungarian" => Box::new(
            HtaApp::new()
                .with_classic_hungarian()
                .with_threads(solver_threads),
        ),
        "gre" => Box::new(HtaGre::new().with_threads(solver_threads)),
        "greedy" => Box::new(GreedyMotivation),
        "random" => Box::new(RandomAssign),
        other => return Err(format!("unknown algorithm '{other}'").into()),
    };

    // One assignment round over every catalog task (Full) or the top-k
    // candidate pool (TopK); the outcome maps back to catalog indices.
    let available = vec![true; tasks.len()];
    let index = match candidates {
        CandidateMode::Full => InvertedIndex::new(space.len()),
        CandidateMode::TopK(_) => {
            let pairs: Vec<(u32, &KeywordVec)> = tasks
                .iter()
                .enumerate()
                .map(|(i, t)| (i as u32, &t.keywords))
                .collect();
            InvertedIndex::build(space.len(), &pairs)
        }
    };
    let n_workers = workers.len();
    let round = Round {
        workers: workers
            .into_iter()
            .enumerate()
            .map(|(i, w)| Worker::new(WorkerId(i as u32), w.keywords).with_weights(w.weights))
            .collect(),
        task: &|t| &tasks[t as usize],
        xmax,
        distance: Arc::new(Jaccard),
        solver: &*solver,
    };
    let mut rng = StdRng::seed_from_u64(seed);
    let started = std::time::Instant::now();
    // `None`: the catalog is empty, and so is every assignment.
    let solved = assign_round(
        &mut OpenSetSession::Off,
        candidates,
        FullWindow::All,
        &index,
        &available,
        round,
        &mut rng,
    )?;
    let elapsed = started.elapsed();
    let (n_tasks, hits, objective) = solved.as_ref().map_or((0, 0, 0.0), |(out, hits)| {
        (out.members().len(), *hits, out.objective())
    });
    if let CandidateMode::TopK(_) = candidates {
        println!(
            "candidates {candidates}: pool {n_tasks} of {} tasks ({hits} from top-k retrieval)",
            tasks.len()
        );
    }
    let assigned: Vec<Vec<usize>> = (0..n_workers)
        .map(|q| {
            solved
                .iter()
                .flat_map(|(out, _)| out.tasks_of(q))
                .map(|t| t as usize)
                .collect()
        })
        .collect();

    println!(
        "{}: |T|={n_tasks} |W|={n_workers} X_max={xmax} -> objective {:.4} ({} tasks assigned) in \
         {:.3}s",
        solver.name(),
        objective,
        assigned.iter().map(Vec::len).sum::<usize>(),
        elapsed.as_secs_f64()
    );
    for (q, ids) in assigned.iter().enumerate() {
        let mut ids = ids.clone();
        ids.sort_unstable();
        println!("  worker {q}: {ids:?}");
    }
    if let Some(mix) = &priority_mix {
        // Tiers are a deterministic hash of the catalog index, so they are
        // stable across runs and candidate modes.
        let mut counts = [0usize; 4];
        for &t in assigned.iter().flatten() {
            counts[mix.pick(t).rank() as usize] += 1;
        }
        println!(
            "priorities: low={} normal={} high={} critical={}",
            counts[0], counts[1], counts[2], counts[3]
        );
    }
    if deadlines > 0.0 {
        println!("deadlines: {deadlines} minutes per assigned task");
    }

    if let Some(path) = args.get("out") {
        let mut header = String::from("worker_id,task_id");
        if priority_mix.is_some() {
            header.push_str(",priority");
        }
        if deadlines > 0.0 {
            header.push_str(",deadline_minutes");
        }
        let mut csv = header + "\n";
        for (q, ids) in assigned.iter().enumerate() {
            for &t in ids {
                csv.push_str(&format!("{q},{t}"));
                if let Some(mix) = &priority_mix {
                    csv.push_str(&format!(",{}", mix.pick(t).label()));
                }
                if deadlines > 0.0 {
                    csv.push_str(&format!(",{deadlines}"));
                }
                csv.push('\n');
            }
        }
        std::fs::write(path, csv)?;
        println!("assignment CSV written to {path}");
    }
    Ok(())
}

/// `hta analyze` — structural analysis of an instance.
pub fn analyze(args: &Args) -> CmdResult {
    args.no_positionals()?;
    args.reject_unknown(&["tasks", "workers", "xmax"])?;
    let tasks_file = args.require("tasks")?;
    let workers_file = args.require("workers")?;
    let xmax: usize = args.get_or("xmax", 10)?;

    let (mut space, task_pool) = export::tasks_from_csv(&std::fs::read_to_string(tasks_file)?)?;
    let width_before = space.len();
    let worker_pool =
        export::workers_from_csv(&mut space, &std::fs::read_to_string(workers_file)?)?;
    let tasks: Vec<Task> = task_pool
        .tasks()
        .iter()
        .map(|t| {
            let kw = if width_before == space.len() {
                t.keywords.clone()
            } else {
                space.widen(&t.keywords)
            };
            Task::new(t.id, t.group, kw)
        })
        .collect();
    let inst = Instance::new(tasks, worker_pool.workers().to_vec(), xmax)?;
    let a = hta_core::analysis::analyze(&inst);

    println!(
        "instance: |T| = {}, |W| = {}, X_max = {}",
        a.n_tasks, a.n_workers, a.xmax
    );
    let stat = |name: &str, s: &hta_core::analysis::ValueStats| {
        println!(
            "  {name:<14} n={:<8} min={:.3} mean={:.3} max={:.3} distinct={} degeneracy={:.3}",
            s.count,
            s.min,
            s.mean,
            s.max,
            s.distinct,
            s.degeneracy()
        );
    };
    stat("diversity", &a.diversity);
    stat("relevance", &a.relevance);
    stat("lsap-profits", &a.lsap_profits);
    println!(
        "  zero-diversity pairs: {:.1}%",
        100.0 * a.zero_diversity_pairs
    );
    println!(
        "recommended exact-LSAP configuration: {}",
        hta_core::analysis::recommend_lsap(&a)
    );
    Ok(())
}

/// One-line reproducibility header: the *effective* values of everything
/// the simulation's determinism depends on (auto knobs resolved to what
/// they actually ran with), so a result can be reproduced from its log.
/// `label` names the command that emitted it (`simulate` or `resume`).
fn repro_header(label: &str, cfg: &hta_crowd::OnlineConfig) -> String {
    let fmt_auto = |requested: usize, effective: usize| {
        if requested == 0 {
            format!("{effective}(auto)")
        } else {
            format!("{requested}")
        }
    };
    let mut line = format!(
        "# {label}: seed={:#x} catalog={} sessions={} cohort={} solver-threads={} candidates={} warm-start={}",
        cfg.seed,
        cfg.catalog.n_tasks,
        cfg.sessions_per_strategy,
        cfg.cohort_size,
        fmt_auto(
            cfg.platform.solver_threads,
            hta_par::solver_threads(0)
        ),
        cfg.platform.candidates,
        if cfg.platform.warm_start { "on" } else { "off" },
    );
    // The effective solver-thread count above is already clamped to
    // `available_parallelism()` on the auto path (`hta_par::solver_threads`),
    // so a log replayed on a differently-sized box shows its own clamp.
    let cache_cap = hta_core::edges::edge_cache_cap(cfg.platform.edge_cache_cap);
    let source = EdgeSource::choose(
        cfg.catalog.n_tasks,
        cfg.platform.edge_cache_cap,
        cfg.platform.reuse_edges,
        cfg.platform.warm_start,
        cfg.platform.candidates.top_k(),
    );
    let sparse = matches!(source, EdgeSource::Sparse);
    line.push_str(&format!(
        " edge-cache-cap={} sparse-warm={}",
        fmt_auto(cfg.platform.edge_cache_cap, cache_cap),
        if sparse { "on" } else { "off" },
    ));
    line.push_str(&format!(" simd={}", hta_core::kernels::mode_name()));
    if cfg.platform.lifecycle {
        let m = cfg.platform.priority_mix.weights();
        line.push_str(&format!(
            " lifecycle=on deadlines={} priority-mix={},{},{},{} max-retries={} reputation={}",
            cfg.platform.deadline_minutes,
            m[0],
            m[1],
            m[2],
            m[3],
            cfg.platform.max_retries,
            if cfg.platform.reputation { "on" } else { "off" },
        ));
        if cfg.platform.price_weight != 0.0 {
            line.push_str(&format!(" price-weight={}", cfg.platform.price_weight));
        }
    }
    line
}

fn print_results_table(results: &hta_crowd::OnlineResults) {
    println!(
        "{:<13} {:>9} {:>10} {:>14} {:>10} {:>11}",
        "strategy", "%correct", "completed", "tasks/session", "mean min", "%>18.2min"
    );
    for r in &results.per_strategy {
        println!(
            "{:<13} {:>9.1} {:>10} {:>14.1} {:>10.1} {:>11.0}",
            r.strategy.name(),
            r.summary.percent_correct,
            r.summary.total_completed,
            r.summary.completed_per_session,
            r.summary.mean_session_minutes,
            r.summary.retention_at_probe,
        );
    }
}

/// Build checkpoint/halt controls from the shared flag set
/// (`--checkpoint-every/-dir/-keep`, `--halt-after`).
fn run_control(args: &Args) -> Result<hta_crowd::RunControl, Box<dyn Error>> {
    let every: usize = args.get_or("checkpoint-every", 0)?;
    let keep: usize = args.get_or("checkpoint-keep", 5)?;
    let halt_after: usize = args.get_or("halt-after", 0)?;
    let checkpoint = match (every, args.get("checkpoint-dir")) {
        (0, None) => None,
        (0, Some(_)) => return Err("--checkpoint-dir needs --checkpoint-every N".into()),
        (_, None) => return Err("--checkpoint-every needs --checkpoint-dir DIR".into()),
        (every, Some(dir)) => Some(hta_crowd::CheckpointPolicy {
            every_cohorts: every,
            dir: std::path::PathBuf::from(dir),
            keep,
        }),
    };
    Ok(hta_crowd::RunControl {
        checkpoint,
        halt_after_cohorts: (halt_after > 0).then_some(halt_after),
    })
}

fn report_outcome(outcome: hta_crowd::RunOutcome) {
    match outcome {
        hta_crowd::RunOutcome::Complete(results) => print_results_table(&results),
        hta_crowd::RunOutcome::Halted {
            cohorts_completed,
            snapshot,
        } => match snapshot {
            Some(p) => println!(
                "halted after {cohorts_completed} cohorts; resume with: hta resume {}",
                p.display()
            ),
            None => println!("halted after {cohorts_completed} cohorts (no checkpoint written)"),
        },
    }
}

/// `hta simulate` — the Figure 5 online experiment at custom scale, with
/// optional cohort-boundary checkpointing.
pub fn simulate(args: &Args) -> CmdResult {
    args.no_positionals()?;
    args.reject_unknown(&[
        "sessions",
        "catalog",
        "seed",
        "candidates",
        "solver-threads",
        "checkpoint-every",
        "checkpoint-dir",
        "checkpoint-keep",
        "halt-after",
        "deadlines",
        "priority-mix",
        "reputation",
        "price-weight",
        "edge-cache-cap",
        "warm-start",
    ])?;
    let sessions: usize = args.get_or("sessions", 8)?;
    let catalog: usize = args.get_or("catalog", 2000)?;
    let seed: u64 = args.get_or("seed", 0x5E59)?;
    let solver_threads: usize = args.get_or("solver-threads", 0)?;
    let candidates: CandidateMode = match args.get("candidates") {
        Some(s) => s
            .parse()
            .map_err(|e: String| -> Box<dyn Error> { e.into() })?,
        None => CandidateMode::Full,
    };
    let deadlines: f64 = args.get_or("deadlines", 0.0)?;
    if !deadlines.is_finite() || deadlines < 0.0 {
        return Err(format!(
            "--deadlines must be a non-negative number of minutes, got {deadlines}"
        )
        .into());
    }
    let priority_mix = match args.get("priority-mix") {
        Some(s) => Some(
            hta_life::PriorityMix::parse(s).map_err(|e: String| -> Box<dyn Error> { e.into() })?,
        ),
        None => None,
    };
    let reputation = match args.get("reputation") {
        None => None,
        Some("on") => Some(true),
        Some("off") => Some(false),
        Some(other) => return Err(format!("--reputation must be on or off, got '{other}'").into()),
    };
    let price_weight: f64 = args.get_or("price-weight", 0.0)?;
    if !price_weight.is_finite() {
        return Err(format!("--price-weight must be a finite number, got {price_weight}").into());
    }
    if price_weight != 0.0 && reputation == Some(false) {
        return Err(
            "--price-weight needs the reputation pool score (drop --reputation off)".into(),
        );
    }
    let edge_cache_cap: usize = args.get_or("edge-cache-cap", 0)?;
    let warm_start = match args.get("warm-start") {
        None => None,
        Some("on") => Some(true),
        Some("off") => Some(false),
        Some(other) => return Err(format!("--warm-start must be on or off, got '{other}'").into()),
    };
    let control = run_control(args)?;

    let mut cfg = hta_crowd::OnlineConfig {
        sessions_per_strategy: sessions,
        catalog: hta_datagen::crowdflower::CrowdflowerConfig {
            n_tasks: catalog,
            ..Default::default()
        },
        seed,
        ..Default::default()
    };
    cfg.platform.candidates = candidates;
    cfg.platform.solver_threads = solver_threads;
    cfg.platform.edge_cache_cap = edge_cache_cap;
    // Any lifecycle knob switches the marketplace layer on; `--reputation`
    // additionally needs the lifecycle ledger, which scores completions.
    if deadlines > 0.0 || priority_mix.is_some() || reputation == Some(true) || price_weight != 0.0
    {
        cfg.platform.lifecycle = true;
    }
    if deadlines > 0.0 {
        cfg.platform.deadline_minutes = deadlines;
    }
    if let Some(mix) = priority_mix {
        cfg.platform.priority_mix = mix;
    }
    // A nonzero price weight folds worker wages into the reputation pool
    // score, so it needs the reputation scaling active.
    cfg.platform.reputation = reputation == Some(true) || price_weight != 0.0;
    cfg.platform.price_weight = price_weight;
    // Purely a performance knob: warm solves repair the previous
    // iteration's matching instead of rebuilding, with byte-identical
    // metrics either way.
    cfg.platform.warm_start = warm_start == Some(true);
    println!("{}", repro_header("simulate", &cfg));
    report_outcome(hta_crowd::run_with(&cfg, None, &control)?);
    Ok(())
}

/// `hta resume <snapshot>` — continue an interrupted `simulate` run from a
/// checkpoint file (or the newest checkpoint in a directory). The resumed
/// run produces byte-identical metrics to an uninterrupted one; the
/// configuration is read from the snapshot itself.
pub fn resume(args: &Args) -> CmdResult {
    args.reject_unknown(&[
        "checkpoint-every",
        "checkpoint-dir",
        "checkpoint-keep",
        "halt-after",
    ])?;
    let path = match args.positionals() {
        [one] => std::path::Path::new(one),
        [] => return Err("usage: hta resume <snapshot-file-or-checkpoint-dir>".into()),
        more => {
            return Err(format!("expected one snapshot path, got {}: {more:?}", more.len()).into())
        }
    };
    let snapshot_path = if path.is_dir() {
        hta_crowd::list_checkpoints(path)
            .pop()
            .ok_or_else(|| format!("no checkpoint files in {}", path.display()))?
    } else {
        path.to_path_buf()
    };
    let loaded = hta_crowd::load_run(&snapshot_path)
        .map_err(|e| format!("{}: {e}", snapshot_path.display()))?;
    let control = run_control(args)?;
    println!(
        "resuming {} at arm {}/{} ({}/{} sessions into the arm)",
        snapshot_path.display(),
        loaded.progress.arm + 1,
        hta_crowd::Strategy::ALL.len(),
        loaded.progress.current_records.len(),
        loaded.config.sessions_per_strategy,
    );
    println!("{}", repro_header("resume", &loaded.config));
    report_outcome(hta_crowd::run_with(
        &loaded.config,
        Some(loaded.progress),
        &control,
    )?);
    Ok(())
}

/// One process of a planned local cluster: its role name and the argument
/// vector (binary not included) it must be launched with.
#[derive(Debug, Clone, PartialEq, Eq)]
struct ClusterNode {
    role: &'static str,
    http: String,
    argv: Vec<String>,
}

/// Plan the process topology of `hta cluster` as pure data, so the layout
/// (ports, join/redirect wiring) is testable without spawning anything.
/// Port layout on `host`: the primary serves HTTP on `base_port` and
/// replication on `repl_port`; replicas take the next `replicas` ports.
fn plan_cluster(
    host: &str,
    base_port: u16,
    repl_port: u16,
    replicas: u16,
    tasks: Option<&str>,
    journal_dir: Option<&str>,
) -> Vec<ClusterNode> {
    let http = |offset: u16| format!("{host}:{}", base_port + offset);
    let repl = format!("{host}:{repl_port}");

    let mut nodes = Vec::new();
    let mut primary_argv = vec![http(0), "--role".into(), "primary".into()];
    if let Some(t) = tasks {
        primary_argv.insert(1, t.to_owned());
    }
    primary_argv.extend(["--repl-listen".into(), repl.clone()]);
    nodes.push(ClusterNode {
        role: "primary",
        http: http(0),
        argv: primary_argv,
    });

    for i in 0..replicas {
        let mut argv = vec![
            http(1 + i),
            "--role".into(),
            "replica".into(),
            "--join".into(),
            repl.clone(),
            "--primary-http".into(),
            http(0),
        ];
        if let Some(dir) = journal_dir {
            argv.extend([
                "--journal".into(),
                format!("{}/replica-{i}.journal", dir.trim_end_matches('/')),
            ]);
        }
        nodes.push(ClusterNode {
            role: "replica",
            http: http(1 + i),
            argv,
        });
    }
    nodes
}

/// Locate the `hta-serve` binary: an explicit `--server-bin`, else next to
/// the running `hta` executable (both are workspace bin targets, so cargo
/// puts them in the same directory).
fn server_binary(args: &Args) -> Result<std::path::PathBuf, Box<dyn Error>> {
    if let Some(p) = args.get("server-bin") {
        let p = std::path::PathBuf::from(p);
        if !p.is_file() {
            return Err(format!("--server-bin {}: not a file", p.display()).into());
        }
        return Ok(p);
    }
    let me = std::env::current_exe()?;
    let dir = me.parent().ok_or("cannot locate executable directory")?;
    let candidate = dir.join("hta-serve");
    if candidate.is_file() {
        Ok(candidate)
    } else {
        Err(format!(
            "hta-serve not found at {} (build it with `cargo build -p hta-server` \
             or point --server-bin at it)",
            candidate.display()
        )
        .into())
    }
}

/// `hta cluster` — launch a local primary/replica cluster as child
/// processes and supervise them.
///
/// The launcher spawns every node at once: followers retry their initial
/// `--join` fetch until the primary's replication listener is up, so no
/// start-up ordering is needed. It then waits; when any child exits the
/// rest are terminated and the first failure's status is propagated.
/// `SIGINT` reaches the whole foreground process group, so Ctrl-C shuts
/// every node down gracefully (snapshot-on-exit semantics included).
pub fn cluster(args: &Args) -> CmdResult {
    args.no_positionals()?;
    args.reject_unknown(&[
        "replicas",
        "host",
        "base-port",
        "repl-port",
        "tasks",
        "journal-dir",
        "server-bin",
    ])?;
    let replicas: u16 = args.get_or("replicas", 2)?;
    let host: String = args.get_or("host", "127.0.0.1".to_owned())?;
    let base_port: u16 = args.get_or("base-port", 8080)?;
    let repl_port: u16 = args.get_or("repl-port", 7171)?;
    if replicas == 0 {
        return Err("nothing to launch besides the primary: set --replicas".into());
    }
    let tasks = args.get("tasks");
    if let Some(t) = tasks {
        if !std::path::Path::new(t).is_file() {
            return Err(format!("--tasks {t}: not a file").into());
        }
    }
    let journal_dir = args.get("journal-dir");
    if let Some(dir) = journal_dir {
        std::fs::create_dir_all(dir)?;
    }
    let bin = server_binary(args)?;
    let plan = plan_cluster(&host, base_port, repl_port, replicas, tasks, journal_dir);

    let mut children: Vec<(std::process::Child, &ClusterNode)> = Vec::new();
    for node in &plan {
        match std::process::Command::new(&bin).args(&node.argv).spawn() {
            Ok(child) => {
                println!(
                    "cluster: {} http://{} (pid {})",
                    node.role,
                    node.http,
                    child.id()
                );
                children.push((child, node));
            }
            Err(e) => {
                for (mut c, _) in children {
                    let _ = c.kill();
                    let _ = c.wait();
                }
                return Err(format!("spawning {} on {}: {e}", node.role, node.http).into());
            }
        }
    }
    println!(
        "cluster: {} node(s) up; reads fan out over every node, writes redirect to the primary",
        children.len()
    );

    // Supervise: poll until any child exits, then wind the rest down.
    let (failed, who) = 'outer: loop {
        for (child, node) in &mut children {
            if let Some(status) = child.try_wait()? {
                break 'outer (!status.success(), (node.role, node.http.clone()));
            }
        }
        std::thread::sleep(std::time::Duration::from_millis(200));
    };
    eprintln!(
        "cluster: {} on {} exited; stopping the remaining nodes",
        who.0, who.1
    );
    for (mut child, _) in children {
        let _ = child.kill();
        let _ = child.wait();
    }
    if failed {
        return Err(format!("cluster node {} on {} failed", who.0, who.1).into());
    }
    Ok(())
}

/// `hta example` — the paper's worked example.
pub fn example(args: &Args) -> CmdResult {
    args.no_positionals()?;
    args.reject_unknown(&[])?;
    let inst = hta_core::qap::paper_example();
    println!("Paper example: |T| = 8, |W| = 2, X_max = 3 (Table I / Figure 1)");
    for (name, solver) in [
        ("HTA-APP", Box::new(HtaApp::new()) as Box<dyn Solver>),
        ("HTA-GRE", Box::new(HtaGre::new())),
    ] {
        let mut rng = StdRng::seed_from_u64(42);
        let out = solver.solve(&inst, &mut rng);
        println!("{name}: objective {:.4}", out.assignment.objective(&inst));
        for q in 0..2 {
            let mut ids: Vec<String> = out
                .assignment
                .tasks_of(q)
                .iter()
                .map(|t| format!("t{}", t + 1))
                .collect();
            ids.sort();
            println!("  w{} <- {{{}}}", q + 1, ids.join(", "));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(v: &[&str]) -> Args {
        Args::parse(v.iter().map(|s| s.to_string())).unwrap()
    }

    #[test]
    fn repro_header_sparse_warm_agrees_with_the_platform() {
        use hta_datagen::crowdflower::CrowdflowerCatalog;
        let mut cfg = hta_crowd::OnlineConfig::default();
        cfg.catalog.n_tasks = 600;
        cfg.platform.candidates = CandidateMode::TopK(16);
        cfg.platform.warm_start = true;
        let catalog = CrowdflowerCatalog::generate(&cfg.catalog);
        for cap in [1usize, 0] {
            cfg.platform.edge_cache_cap = cap;
            let platform = hta_crowd::Platform::new(&catalog, cfg.platform.clone());
            let sparse = platform.sparse_cache().is_some();
            assert!(sparse || cap != 1, "cap 1 puts the 600 tasks past the cap");
            let want = if sparse {
                "sparse-warm=on"
            } else {
                "sparse-warm=off"
            };
            let header = repro_header("simulate", &cfg);
            assert!(header.contains(want), "cap {cap}: {header}");
        }
    }

    #[test]
    fn generate_solve_pipeline_end_to_end() {
        let dir = std::env::temp_dir().join("hta-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let tasks = dir.join("tasks.csv");
        let workers_f = dir.join("workers.csv");
        let assignment = dir.join("assignment.csv");
        let t = tasks.to_str().unwrap();
        let w = workers_f.to_str().unwrap();
        let a = assignment.to_str().unwrap();

        generate(&args(&[
            "generate", "--tasks", "60", "--groups", "12", "--vocab", "80", "--out", t,
        ]))
        .unwrap();
        workers(&args(&[
            "workers", "--count", "4", "--tasks", t, "--out", w,
        ]))
        .unwrap();
        solve(&args(&[
            "solve",
            "--tasks",
            t,
            "--workers",
            w,
            "--xmax",
            "5",
            "--algorithm",
            "gre",
            "--out",
            a,
        ]))
        .unwrap();

        let csv = std::fs::read_to_string(&assignment).unwrap();
        // header + 4 workers × 5 tasks
        assert_eq!(csv.lines().count(), 1 + 20);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn solve_with_topk_candidates_writes_full_assignment() {
        let dir = std::env::temp_dir().join("hta-cli-test-topk");
        std::fs::create_dir_all(&dir).unwrap();
        let tasks = dir.join("tasks.csv");
        let workers_f = dir.join("workers.csv");
        let assignment = dir.join("assignment.csv");
        let t = tasks.to_str().unwrap();
        let w = workers_f.to_str().unwrap();
        let a = assignment.to_str().unwrap();

        generate(&args(&[
            "generate", "--tasks", "80", "--groups", "16", "--vocab", "60", "--out", t,
        ]))
        .unwrap();
        workers(&args(&[
            "workers", "--count", "3", "--tasks", t, "--out", w,
        ]))
        .unwrap();
        solve(&args(&[
            "solve",
            "--tasks",
            t,
            "--workers",
            w,
            "--xmax",
            "4",
            "--candidates",
            "topk:6",
            "--out",
            a,
        ]))
        .unwrap();

        // The candidate pool still admits a full assignment, and ids map
        // back to the catalog (header + 3 workers × 4 tasks, all in range).
        let csv = std::fs::read_to_string(&assignment).unwrap();
        assert_eq!(csv.lines().count(), 1 + 12);
        for line in csv.lines().skip(1) {
            let task_id: usize = line.split(',').nth(1).unwrap().parse().unwrap();
            assert!(task_id < 80);
        }
        // Bad grammar is rejected up front.
        let err = solve(&args(&[
            "solve",
            "--tasks",
            t,
            "--workers",
            w,
            "--candidates",
            "topk:zero",
        ]))
        .unwrap_err();
        assert!(err.to_string().contains("top-k"));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn solver_thread_knob_does_not_change_the_assignment() {
        let dir = std::env::temp_dir().join("hta-cli-test-threads");
        std::fs::create_dir_all(&dir).unwrap();
        let tasks = dir.join("tasks.csv");
        let workers_f = dir.join("workers.csv");
        let t = tasks.to_str().unwrap();
        let w = workers_f.to_str().unwrap();
        generate(&args(&[
            "generate", "--tasks", "40", "--groups", "8", "--out", t,
        ]))
        .unwrap();
        workers(&args(&[
            "workers", "--count", "3", "--tasks", t, "--out", w,
        ]))
        .unwrap();

        let mut outputs = Vec::new();
        for threads in ["1", "3"] {
            let out = dir.join(format!("assignment-{threads}.csv"));
            solve(&args(&[
                "solve",
                "--tasks",
                t,
                "--workers",
                w,
                "--xmax",
                "4",
                "--solver-threads",
                threads,
                "--out",
                out.to_str().unwrap(),
            ]))
            .unwrap();
            outputs.push(std::fs::read_to_string(&out).unwrap());
        }
        assert_eq!(outputs[0], outputs[1], "assignment depends on thread count");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn solve_rejects_unknown_algorithm() {
        let dir = std::env::temp_dir().join("hta-cli-test2");
        std::fs::create_dir_all(&dir).unwrap();
        let tasks = dir.join("tasks.csv");
        let workers_f = dir.join("workers.csv");
        let t = tasks.to_str().unwrap();
        let w = workers_f.to_str().unwrap();
        generate(&args(&[
            "generate", "--tasks", "10", "--groups", "2", "--out", t,
        ]))
        .unwrap();
        workers(&args(&[
            "workers", "--count", "2", "--tasks", t, "--out", w,
        ]))
        .unwrap();
        let err = solve(&args(&[
            "solve",
            "--tasks",
            t,
            "--workers",
            w,
            "--algorithm",
            "nope",
        ]))
        .unwrap_err();
        assert!(err.to_string().contains("unknown algorithm"));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn example_runs() {
        example(&args(&["example"])).unwrap();
    }

    #[test]
    fn unknown_flags_rejected() {
        assert!(generate(&args(&["generate", "--nope", "1"])).is_err());
        assert!(simulate(&args(&["simulate", "--nope", "1"])).is_err());
        assert!(cluster(&args(&["cluster", "--nope", "1"])).is_err());
    }

    #[test]
    fn cluster_plan_wires_roles_ports_and_shards() {
        let plan = plan_cluster("127.0.0.1", 9000, 9100, 2, None, Some("/tmp/j/"));
        assert_eq!(plan.len(), 3);
        assert_eq!(plan[0].role, "primary");
        assert_eq!(plan[0].argv[0], "127.0.0.1:9000");

        for (i, node) in plan[1..3].iter().enumerate() {
            assert_eq!(node.role, "replica");
            assert_eq!(node.http, format!("127.0.0.1:{}", 9001 + i));
            for pair in [
                ["--join", "127.0.0.1:9100"],
                ["--primary-http", "127.0.0.1:9000"],
                ["--journal", &format!("/tmp/j/replica-{i}.journal")],
            ] {
                assert!(
                    node.argv.windows(2).any(|w| w == pair),
                    "replica {i} missing {pair:?}: {:?}",
                    node.argv
                );
            }
        }

        // No journal dir → no --journal flags; tasks ride as the primary's
        // second positional only.
        let plan = plan_cluster("h", 1, 2, 1, Some("t.csv"), None);
        assert!(plan
            .iter()
            .all(|n| !n.argv.iter().any(|a| a == "--journal")));
        assert_eq!(plan[0].argv[1], "t.csv");
        assert!(!plan[1].argv.contains(&"t.csv".to_owned()));
    }

    #[test]
    fn cluster_validates_its_flags() {
        let err = cluster(&args(&["cluster", "--replicas", "0"])).unwrap_err();
        assert!(err.to_string().contains("nothing to launch"), "{err}");
        let err =
            cluster(&args(&["cluster", "--tasks", "/definitely/not/a/file.csv"])).unwrap_err();
        assert!(err.to_string().contains("not a file"), "{err}");
        let err = cluster(&args(&[
            "cluster",
            "--server-bin",
            "/definitely/not/hta-serve",
        ]))
        .unwrap_err();
        assert!(err.to_string().contains("not a file"), "{err}");
    }

    #[test]
    fn stray_positionals_rejected() {
        assert!(generate(&args(&["generate", "stray", "--tasks", "10"])).is_err());
        assert!(simulate(&args(&["simulate", "stray"])).is_err());
    }

    #[test]
    fn checkpoint_flags_must_be_consistent() {
        let err = simulate(&args(&["simulate", "--checkpoint-every", "2"])).unwrap_err();
        assert!(err.to_string().contains("--checkpoint-dir"), "{err}");
        let err = simulate(&args(&["simulate", "--checkpoint-dir", "/tmp/x"])).unwrap_err();
        assert!(err.to_string().contains("--checkpoint-every"), "{err}");
    }

    #[test]
    fn lifecycle_flags_are_validated() {
        let err = simulate(&args(&["simulate", "--reputation", "maybe"])).unwrap_err();
        assert!(err.to_string().contains("on or off"), "{err}");
        assert!(simulate(&args(&["simulate", "--deadlines", "-1"])).is_err());
        assert!(simulate(&args(&["simulate", "--priority-mix", "1,2"])).is_err());
        let err = simulate(&args(&["simulate", "--warm-start", "yes"])).unwrap_err();
        assert!(err.to_string().contains("on or off"), "{err}");
    }

    #[test]
    fn simulate_with_lifecycle_knobs_runs() {
        simulate(&args(&[
            "simulate",
            "--sessions",
            "1",
            "--catalog",
            "200",
            "--deadlines",
            "2.5",
            "--priority-mix",
            "1,2,1,0.5",
            "--reputation",
            "on",
        ]))
        .unwrap();
    }

    #[test]
    fn simulate_rejects_the_removed_shards_flag() {
        // The keyword index has one layout; a shard count is an unknown
        // flag, refused before any work starts.
        let err = simulate(&args(&["simulate", "--shards", "2"])).unwrap_err();
        assert!(err.to_string().contains("unknown flag --shards"), "{err}");
    }

    #[test]
    fn solve_lifecycle_trio_annotates_output() {
        let dir = std::env::temp_dir().join("hta-cli-test-life");
        std::fs::create_dir_all(&dir).unwrap();
        let tasks = dir.join("tasks.csv");
        let workers_f = dir.join("workers.csv");
        let assignment = dir.join("assignment.csv");
        let t = tasks.to_str().unwrap();
        let w = workers_f.to_str().unwrap();
        let a = assignment.to_str().unwrap();
        generate(&args(&[
            "generate", "--tasks", "40", "--groups", "8", "--out", t,
        ]))
        .unwrap();
        workers(&args(&[
            "workers", "--count", "2", "--tasks", t, "--out", w,
        ]))
        .unwrap();
        solve(&args(&[
            "solve",
            "--tasks",
            t,
            "--workers",
            w,
            "--xmax",
            "4",
            "--reputation",
            "0.9",
            "--priority-mix",
            "1,2,1,0.5",
            "--deadlines",
            "3",
            "--out",
            a,
        ]))
        .unwrap();
        let csv = std::fs::read_to_string(&assignment).unwrap();
        let mut lines = csv.lines();
        assert_eq!(
            lines.next().unwrap(),
            "worker_id,task_id,priority,deadline_minutes"
        );
        for line in lines {
            let cols: Vec<&str> = line.split(',').collect();
            assert_eq!(cols.len(), 4, "{line}");
            assert!(
                ["low", "normal", "high", "critical"].contains(&cols[2]),
                "{line}"
            );
            assert_eq!(cols[3], "3");
        }

        let err = solve(&args(&[
            "solve",
            "--tasks",
            t,
            "--workers",
            w,
            "--reputation",
            "1.5",
        ]))
        .unwrap_err();
        assert!(err.to_string().contains("0..=1"), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn resume_needs_a_usable_snapshot_path() {
        assert!(resume(&args(&["resume"])).is_err());
        assert!(resume(&args(&["resume", "a", "b"])).is_err());
        let err = resume(&args(&["resume", "/nonexistent/ckpt.htasnap"])).unwrap_err();
        assert!(err.to_string().contains("/nonexistent"), "{err}");
    }

    #[test]
    fn simulate_checkpoint_halt_then_resume_completes() {
        let dir = std::env::temp_dir().join("hta-cli-test-resume");
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        let ckpts = dir.join("ckpts");
        let d = ckpts.to_str().unwrap();

        // A small run: 2 sessions per arm at the default cohort size 5 →
        // one cohort per arm, 4 cohorts total. Halt after 2.
        let base = [
            "simulate",
            "--sessions",
            "2",
            "--catalog",
            "300",
            "--checkpoint-every",
            "1",
            "--checkpoint-dir",
            d,
        ];
        let mut halted: Vec<&str> = base.to_vec();
        halted.extend(["--halt-after", "2"]);
        simulate(&args(&halted)).unwrap();
        let files = hta_crowd::list_checkpoints(&ckpts);
        assert!(!files.is_empty(), "halted run left no checkpoints");

        // Resume from the directory (newest checkpoint) to completion.
        resume(&args(&["resume", d])).unwrap();

        // A corrupted checkpoint is rejected with an error, not resumed.
        let victim = files.last().unwrap();
        let mut bytes = std::fs::read(victim).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        std::fs::write(victim, &bytes).unwrap();
        let err = resume(&args(&["resume", victim.to_str().unwrap()])).unwrap_err();
        let msg = err.to_string();
        assert!(
            msg.contains("checksum") || msg.contains("corrupt") || msg.contains("truncated"),
            "unexpected error: {msg}"
        );
        std::fs::remove_dir_all(&dir).ok();
    }
}

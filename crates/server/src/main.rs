//! `hta-serve` — run the crowdsourcing platform service.
//!
//! ```text
//! hta-serve [addr] [tasks.csv] [--restore state.htasnap]
//!           [--listen-threads N] [--solver-pool N] [--queue-capacity N]
//!           [--snapshot-on-exit state.htasnap] [--edge-cache-cap N]
//!           [--role primary|replica]
//!           [--repl-listen addr]                                # primary
//!           [--join addr] [--primary-http addr] [--journal F]   # replica
//! ```
//!
//! An unknown `--flag` or a third positional argument exits with status 2
//! before anything binds.
//!
//! With no task CSV, serves a generated AMT-like corpus (1000 tasks). With
//! `--restore`, rehydrates the full serving state — workers, estimators,
//! assignment ledger, index, RNG stream — from a snapshot saved via
//! `POST /snapshot`, and picks up exactly where that server left off.
//!
//! Sizing: `--listen-threads` sets the reactor (event-loop) thread count
//! (default: `HTA_SERVER_THREADS` or 1), `--solver-pool` the worker threads
//! running solves (default 2), `--queue-capacity` the backpressure bound
//! (default 64; a full queue answers `503` + `Retry-After`).
//! `--edge-cache-cap` overrides the dense edge-cache catalog cap
//! (default: `HTA_EDGE_CACHE_CAP` or 4096); past the cap, top-k solves run
//! on the sparse warm-start pipeline with byte-identical assignments. The
//! resolved cap shows up in `GET /stats`.
//!
//! Cluster roles (DESIGN.md §14): `--role primary` additionally serves a
//! replication stream on `--repl-listen` (default `127.0.0.1:7171`).
//! `--role replica` fetches its initial state from the primary's `--join`
//! address (or the `--journal` file when it holds one), follows the delta
//! stream, answers reads locally, and redirects writes to `--primary-http`.
//! Candidate retrieval and solving always run on the primary.
//!
//! `SIGINT`/`SIGTERM` shut down gracefully: stop accepting, drain in-flight
//! requests, then (with `--snapshot-on-exit`) save a final snapshot that a
//! later `--restore` resumes from. Endpoints: see `hta_server::service`.

use std::net::TcpListener;
use std::path::Path;
use std::sync::Arc;
use std::time::Duration;

use hta_cluster::{ReplicaState, ReplicationHub, DEFAULT_RETAIN};
use hta_net::ShutdownSignals;
use hta_server::cluster::{acquire_initial_state, spawn_follower, AppliedEpoch, ClusterCtx, Role};
use hta_server::{PlatformState, ServeOptions, Server};

fn usage_error(msg: &str) -> ! {
    eprintln!("error: {msg}");
    std::process::exit(2);
}

fn parse_flag_value<T: std::str::FromStr>(flag: &str, value: Option<String>) -> T {
    let Some(value) = value else {
        usage_error(&format!("{flag} needs a value"));
    };
    value
        .parse()
        .unwrap_or_else(|_| usage_error(&format!("{flag}: invalid value {value:?}")))
}

fn main() {
    // Block SIGINT/SIGTERM *before* any thread spawns so the whole process
    // inherits the mask and the signals arrive only on the signalfd below.
    let signals = ShutdownSignals::install(false).unwrap_or_else(|e| {
        eprintln!("error: cannot install signal handling: {e}");
        std::process::exit(1);
    });

    let mut addr = "127.0.0.1:8080".to_owned();
    let mut restore: Option<String> = None;
    let mut snapshot_on_exit: Option<String> = None;
    let mut role: Option<Role> = None;
    let mut repl_listen = "127.0.0.1:7171".to_owned();
    let mut join: Option<String> = None;
    let mut primary_http: Option<String> = None;
    let mut journal: Option<String> = None;
    let mut edge_cache_cap: Option<usize> = None;
    let mut opts = ServeOptions::default();
    if let Some(n) = std::env::var("HTA_SERVER_THREADS")
        .ok()
        .and_then(|v| v.parse().ok())
    {
        opts.listen_threads = n;
    }
    let mut positionals: Vec<String> = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--restore" => restore = Some(parse_flag_value(&arg, args.next())),
            "--snapshot-on-exit" => snapshot_on_exit = Some(parse_flag_value(&arg, args.next())),
            "--listen-threads" => opts.listen_threads = parse_flag_value(&arg, args.next()),
            "--solver-pool" => opts.solver_pool = parse_flag_value(&arg, args.next()),
            "--queue-capacity" => opts.queue_capacity = parse_flag_value(&arg, args.next()),
            "--role" => role = Some(parse_flag_value(&arg, args.next())),
            "--repl-listen" => repl_listen = parse_flag_value(&arg, args.next()),
            "--join" => join = Some(parse_flag_value(&arg, args.next())),
            "--primary-http" => primary_http = Some(parse_flag_value(&arg, args.next())),
            "--journal" => journal = Some(parse_flag_value(&arg, args.next())),
            "--edge-cache-cap" => edge_cache_cap = Some(parse_flag_value(&arg, args.next())),
            flag if flag.starts_with("--") => usage_error(&format!("unknown flag {flag}")),
            _ if positionals.len() == 2 => usage_error(&format!(
                "unexpected argument {arg} (want [addr] [tasks.csv])"
            )),
            _ => positionals.push(arg),
        }
    }
    let mut positionals = positionals.into_iter();
    if let Some(a) = positionals.next() {
        addr = a;
    }
    let csv_path = positionals.next();
    if restore.is_some() && csv_path.is_some() {
        usage_error("--restore and a task CSV are mutually exclusive");
    }
    let follower_role = role == Some(Role::Replica);
    if follower_role && (restore.is_some() || csv_path.is_some()) {
        usage_error("a follower's state comes from the primary, not --restore or a CSV");
    }
    if follower_role && join.is_none() {
        usage_error("--role replica needs --join <primary repl addr>");
    }
    if follower_role && primary_http.is_none() {
        usage_error("--role replica needs --primary-http");
    }

    // Followers acquire their entire state over the wire; everyone else
    // builds it locally.
    let state = if follower_role {
        let join = join.unwrap();
        let mut rstate = match &journal {
            Some(path) => ReplicaState::with_journal(Path::new(path)),
            None => ReplicaState::empty(),
        };
        let state = acquire_initial_state(&join, &mut rstate, Duration::from_secs(30))
            .unwrap_or_else(|e| {
                eprintln!("error: {e}");
                std::process::exit(1);
            });
        println!("follower caught up to epoch {} from {join}", rstate.epoch);
        let state = Arc::new(state);
        let applied = Arc::new(AppliedEpoch::new());
        applied.set(rstate.epoch);
        spawn_follower(join, rstate, Arc::clone(&state), Arc::clone(&applied));
        let ctx = ClusterCtx::replica(primary_http.unwrap(), applied);
        (state, Some(Arc::new(ctx)))
    } else {
        let state = match (restore, csv_path) {
            (Some(snap_path), _) => {
                let state = PlatformState::restore(Path::new(&snap_path)).unwrap_or_else(|e| {
                    eprintln!("error: cannot restore {snap_path}: {e}");
                    std::process::exit(1);
                });
                let st = state.stats();
                println!(
                    "restored {snap_path}: {} workers, {} open / {} assigned / {} completed tasks",
                    st.workers, st.open_tasks, st.assigned_tasks, st.completed_tasks
                );
                state
            }
            (None, Some(csv_path)) => {
                let csv = std::fs::read_to_string(&csv_path).unwrap_or_else(|e| {
                    eprintln!("error: cannot read {csv_path}: {e}");
                    std::process::exit(1);
                });
                let (space, tasks) =
                    hta_datagen::export::tasks_from_csv(&csv).unwrap_or_else(|e| {
                        eprintln!("error: cannot parse {csv_path}: {e}");
                        std::process::exit(1);
                    });
                println!("loaded {} tasks from {csv_path}", tasks.len());
                PlatformState::new(space, tasks, 15, 0x5E11)
            }
            (None, None) => {
                let w = hta_datagen::amt::generate(&hta_datagen::amt::AmtConfig {
                    n_groups: 100,
                    tasks_per_group: 10,
                    ..Default::default()
                });
                println!("serving a generated corpus of {} tasks", w.tasks.len());
                PlatformState::new(w.space, w.tasks, 15, 0x5E11)
            }
        };
        let state = Arc::new(state);
        let ctx = if role == Some(Role::Primary) {
            let hub = Arc::new(ReplicationHub::new(DEFAULT_RETAIN));
            let listener = TcpListener::bind(&repl_listen).unwrap_or_else(|e| {
                eprintln!("error: cannot bind replication listener {repl_listen}: {e}");
                std::process::exit(1);
            });
            println!(
                "replication stream on {}",
                listener
                    .local_addr()
                    .map_or(repl_listen.clone(), |a| a.to_string())
            );
            // Epoch 1 is the full starting state, so a replica attaching
            // before the first mutation still gets something to serve.
            hub.publish(state.snapshot_bytes());
            {
                let hub = Arc::clone(&hub);
                std::thread::spawn(move || hub.serve(listener));
            }
            Some(Arc::new(ClusterCtx::primary(hub)))
        } else {
            None
        };
        (state, ctx)
    };
    let (state, cluster) = state;
    if let Some(cap) = edge_cache_cap {
        // Node configuration, applied after every construction path
        // (restore, CSV, generated corpus, follower catch-up): the cap is
        // derived state and never travels in snapshots or the replication
        // stream.
        state.set_edge_cache_cap(cap);
        println!("edge-cache cap: {} tasks", state.edge_cache_cap());
    }

    let server = Server::spawn_with_cluster(&addr, Arc::clone(&state), opts.clone(), cluster)
        .unwrap_or_else(|e| {
            eprintln!("error: cannot bind {addr}: {e}");
            std::process::exit(1);
        });
    if let Some(role) = role {
        println!("cluster role: {role}");
    }
    println!(
        "hta platform service listening on http://{} ({} reactor / {} solver threads, queue {})",
        server.addr(),
        opts.listen_threads.max(1),
        opts.solver_pool.max(1),
        opts.queue_capacity
    );
    println!(
        "try: curl -X POST 'http://{}/register?keywords=english;audio'",
        server.addr()
    );

    // Serve until SIGINT/SIGTERM, then drain and exit cleanly.
    signals.read_pending();
    println!("shutdown signal received; draining in-flight requests");
    server.shutdown();
    if let Some(path) = snapshot_on_exit {
        match state.save_snapshot(Path::new(&path)) {
            Ok(bytes) => println!("final snapshot saved to {path} ({bytes} bytes)"),
            Err(e) => {
                eprintln!("error: final snapshot failed: {e}");
                std::process::exit(1);
            }
        }
    }
    println!("shutdown complete");
}

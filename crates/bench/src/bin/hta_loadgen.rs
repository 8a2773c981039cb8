//! `hta-loadgen` — HTTP load generator for the platform service.
//!
//! ```text
//! hta-loadgen [--addr HOST:PORT | --topology A:P,B:P,...]
//!             [--conns K] [--duration-secs S] [--mode closed|open]
//!             [--pipeline D] [--endpoint PATH] [--method M]
//!             [--listen-threads N] [--solver-pool N]
//!             [--json PATH] [--fail-on-5xx] [--allow-503]
//! ```
//!
//! Drives `K` concurrent keep-alive connections for `S` seconds and reports
//! throughput plus a latency distribution (p50/p95/p99/max). In the default
//! **closed-loop** mode each connection keeps exactly one request in flight
//! (latency includes queueing under load); **open** mode pipelines up to
//! `--pipeline` requests per connection, decoupling arrival from completion.
//!
//! `--topology` fans the same load over several addresses — a replicated
//! serving cluster's read path (`hta cluster`, DESIGN.md §14). Connections
//! are pinned round-robin to the listed targets and the report carries a
//! per-target breakdown (req/s, latency quantiles, status counts per
//! address) alongside the combined totals.
//!
//! Without `--addr` or `--topology` it starts the epoll-reactor server over
//! a generated corpus, runs the load against it, and writes the report to
//! `BENCH_server.json`. Responses that close the connection are handled by
//! transparent reconnects, which are counted in the report.

use std::io::{self, BufReader, Write as IoWrite};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use hta_net::client;
use hta_server::{PlatformState, ServeOptions, Server};

#[derive(Clone)]
struct LoadConfig {
    conns: usize,
    duration: Duration,
    /// Max requests in flight per connection: 1 = closed loop.
    pipeline: usize,
    method: String,
    endpoint: String,
}

#[derive(Default)]
struct LoadReport {
    requests: u64,
    ok_2xx: u64,
    client_4xx: u64,
    server_5xx: u64,
    /// `503 Retry-After` backpressure answers, a subset of `server_5xx`
    /// (expected under deliberate saturation; see `--allow-503`).
    server_503: u64,
    reconnects: u64,
    io_errors: u64,
    elapsed: Duration,
    latencies_us: Vec<u64>,
}

impl LoadReport {
    fn merge(&mut self, other: LoadReport) {
        self.requests += other.requests;
        self.ok_2xx += other.ok_2xx;
        self.client_4xx += other.client_4xx;
        self.server_5xx += other.server_5xx;
        self.server_503 += other.server_503;
        self.reconnects += other.reconnects;
        self.io_errors += other.io_errors;
        self.latencies_us.extend(other.latencies_us);
    }

    fn merge_from(&mut self, other: &LoadReport) {
        self.requests += other.requests;
        self.ok_2xx += other.ok_2xx;
        self.client_4xx += other.client_4xx;
        self.server_5xx += other.server_5xx;
        self.server_503 += other.server_503;
        self.reconnects += other.reconnects;
        self.io_errors += other.io_errors;
        self.latencies_us.extend_from_slice(&other.latencies_us);
    }

    fn rps(&self) -> f64 {
        self.requests as f64 / self.elapsed.as_secs_f64().max(1e-9)
    }

    fn quantile_us(&self, q: f64) -> u64 {
        if self.latencies_us.is_empty() {
            return 0;
        }
        let n = self.latencies_us.len();
        let idx = ((q * n as f64).ceil() as usize).clamp(1, n) - 1;
        self.latencies_us[idx]
    }

    fn finalize(&mut self, elapsed: Duration) {
        self.elapsed = elapsed;
        self.latencies_us.sort_unstable();
    }

    fn to_json(&self) -> String {
        format!(
            concat!(
                "{{\"requests\":{},\"rps\":{:.1},\"status\":{{\"2xx\":{},",
                "\"4xx\":{},\"5xx\":{},\"503\":{}}},\"reconnects\":{},\"io_errors\":{},",
                "\"latency_us\":{{\"p50\":{},\"p95\":{},\"p99\":{},\"max\":{}}}}}"
            ),
            self.requests,
            self.rps(),
            self.ok_2xx,
            self.client_4xx,
            self.server_5xx,
            self.server_503,
            self.reconnects,
            self.io_errors,
            self.quantile_us(0.50),
            self.quantile_us(0.95),
            self.quantile_us(0.99),
            self.latencies_us.last().copied().unwrap_or(0),
        )
    }
}

/// One connection's worth of load: keep up to `pipeline` requests in
/// flight, reconnecting whenever the server closes the connection.
fn drive_connection(addr: &str, cfg: &LoadConfig, stop: &AtomicBool) -> LoadReport {
    let mut report = LoadReport::default();
    let wire = client::request_bytes(&cfg.method, &cfg.endpoint, true);
    let mut conn: Option<(TcpStream, BufReader<TcpStream>)> = None;
    // Send timestamps of requests currently in flight, oldest first.
    let mut in_flight: std::collections::VecDeque<Instant> = std::collections::VecDeque::new();

    while !stop.load(Ordering::Relaxed) || !in_flight.is_empty() {
        if conn.is_none() {
            if stop.load(Ordering::Relaxed) {
                break;
            }
            match TcpStream::connect(addr) {
                Ok(s) => {
                    s.set_nodelay(true).ok();
                    s.set_read_timeout(Some(Duration::from_secs(10))).ok();
                    let r = BufReader::new(s.try_clone().expect("clone stream"));
                    in_flight.clear();
                    conn = Some((s, r));
                }
                Err(_) => {
                    report.io_errors += 1;
                    std::thread::sleep(Duration::from_millis(5));
                    continue;
                }
            }
        }

        let mut drop_conn = false;
        {
            let (stream, reader) = conn.as_mut().expect("connection is live");
            // Fill the pipeline window (exactly 1 in closed-loop mode).
            while in_flight.len() < cfg.pipeline && !stop.load(Ordering::Relaxed) {
                // Stamp at write start: per-request latency spans the
                // request write through response completion, and never the
                // TCP connect that preceded it — a server that closes the
                // connection makes the client reconnect, and that handshake
                // cost is reported via `reconnects`, not smuggled into p99.
                let sent = Instant::now();
                match stream.write_all(&wire) {
                    Ok(()) => in_flight.push_back(sent),
                    Err(_) => {
                        report.io_errors += 1;
                        drop_conn = true;
                        break;
                    }
                }
            }
            if drop_conn {
                // Requests that never left die with the socket.
                in_flight.clear();
            } else {
                if in_flight.is_empty() {
                    break;
                }
                match client::read_response(reader) {
                    Ok(resp) => {
                        let sent = in_flight.pop_front().expect("response matches a request");
                        report.requests += 1;
                        report.latencies_us.push(sent.elapsed().as_micros() as u64);
                        match resp.status {
                            200..=299 => report.ok_2xx += 1,
                            400..=499 => report.client_4xx += 1,
                            503 => {
                                report.server_5xx += 1;
                                report.server_503 += 1;
                            }
                            _ => report.server_5xx += 1,
                        }
                        if !resp.keep_alive() {
                            // Unanswered pipelined requests die with the socket.
                            in_flight.clear();
                            drop_conn = true;
                        }
                    }
                    Err(_) => {
                        report.io_errors += 1;
                        in_flight.clear();
                        drop_conn = true;
                    }
                }
            }
        }
        if drop_conn {
            conn = None;
            report.reconnects += 1;
        }
    }
    report
}

fn run_load(addr: &str, cfg: &LoadConfig) -> LoadReport {
    run_load_targets(std::slice::from_ref(&addr.to_owned()), cfg).0
}

/// Drive the load over several targets at once: connection `i` is pinned
/// to `addrs[i % addrs.len()]`, so the offered load splits evenly.
/// Returns the combined report plus one report per target (same order as
/// `addrs`), all sharing the same wall-clock window so their `rps()` add
/// up to the combined figure.
fn run_load_targets(addrs: &[String], cfg: &LoadConfig) -> (LoadReport, Vec<LoadReport>) {
    let stop = Arc::new(AtomicBool::new(false));
    let start = Instant::now();
    let workers: Vec<(usize, std::thread::JoinHandle<LoadReport>)> = (0..cfg.conns)
        .map(|i| {
            let target = i % addrs.len();
            let addr = addrs[target].clone();
            let cfg = cfg.clone();
            let stop = Arc::clone(&stop);
            (
                target,
                std::thread::spawn(move || drive_connection(&addr, &cfg, &stop)),
            )
        })
        .collect();
    std::thread::sleep(cfg.duration);
    stop.store(true, Ordering::Relaxed);
    let mut per_target: Vec<LoadReport> = addrs.iter().map(|_| LoadReport::default()).collect();
    for (target, w) in workers {
        per_target[target].merge(w.join().expect("load thread panicked"));
    }
    let elapsed = start.elapsed();
    let mut combined = LoadReport::default();
    for r in &mut per_target {
        combined.merge_from(r);
        r.finalize(elapsed);
    }
    combined.finalize(elapsed);
    (combined, per_target)
}

fn corpus_state() -> PlatformState {
    let w = hta_datagen::amt::generate(&hta_datagen::amt::AmtConfig {
        n_groups: 100,
        tasks_per_group: 10,
        ..Default::default()
    });
    PlatformState::new(w.space, w.tasks, 15, 0x5E11)
}

fn parse_flag_value<T: std::str::FromStr>(flag: &str, value: Option<String>) -> T {
    value.and_then(|v| v.parse().ok()).unwrap_or_else(|| {
        eprintln!("error: {flag} needs a valid value");
        std::process::exit(2);
    })
}

fn main() -> io::Result<()> {
    let mut addr: Option<String> = None;
    let mut topology: Vec<String> = Vec::new();
    let mut opts = ServeOptions::default();
    let mut json_path = "BENCH_server.json".to_owned();
    let mut fail_on_5xx = false;
    let mut allow_503 = false;
    let mut cfg = LoadConfig {
        conns: 64,
        duration: Duration::from_secs(5),
        pipeline: 1,
        method: "GET".to_owned(),
        endpoint: "/stats".to_owned(),
    };

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--addr" => addr = Some(parse_flag_value(&arg, args.next())),
            "--topology" => {
                let list: String = parse_flag_value(&arg, args.next());
                topology = list
                    .split(',')
                    .filter(|s| !s.is_empty())
                    .map(str::to_owned)
                    .collect();
                if topology.is_empty() {
                    eprintln!("error: --topology needs a comma-separated address list");
                    std::process::exit(2);
                }
            }
            "--conns" => cfg.conns = parse_flag_value(&arg, args.next()),
            "--duration-secs" => {
                cfg.duration = Duration::from_secs(parse_flag_value(&arg, args.next()))
            }
            "--mode" => {
                let mode: String = parse_flag_value(&arg, args.next());
                match mode.as_str() {
                    "closed" => cfg.pipeline = 1,
                    "open" => cfg.pipeline = cfg.pipeline.max(8),
                    _ => {
                        eprintln!("error: --mode must be closed or open");
                        std::process::exit(2);
                    }
                }
            }
            "--pipeline" => cfg.pipeline = parse_flag_value(&arg, args.next()),
            "--endpoint" => cfg.endpoint = parse_flag_value(&arg, args.next()),
            "--method" => cfg.method = parse_flag_value(&arg, args.next()),
            "--listen-threads" => opts.listen_threads = parse_flag_value(&arg, args.next()),
            "--solver-pool" => opts.solver_pool = parse_flag_value(&arg, args.next()),
            "--json" => json_path = parse_flag_value(&arg, args.next()),
            "--fail-on-5xx" => fail_on_5xx = true,
            "--allow-503" => allow_503 = true,
            other => {
                eprintln!("error: unknown flag {other}");
                std::process::exit(2);
            }
        }
    }
    cfg.pipeline = cfg.pipeline.max(1);

    if addr.is_some() && !topology.is_empty() {
        eprintln!("error: --addr and --topology are mutually exclusive");
        std::process::exit(2);
    }

    let mut sections: Vec<(String, LoadReport)> = Vec::new();
    // (address, report) per topology target, empty without `--topology`.
    let mut targets: Vec<(String, LoadReport)> = Vec::new();
    if !topology.is_empty() {
        println!(
            "load: {} conns over {} target(s), {:?}, pipeline {} -> {} {}",
            cfg.conns,
            topology.len(),
            cfg.duration,
            cfg.pipeline,
            cfg.method,
            cfg.endpoint
        );
        let (combined, per_target) = run_load_targets(&topology, &cfg);
        sections.push(("combined".to_owned(), combined));
        targets = topology.iter().cloned().zip(per_target).collect();
    }
    match addr {
        _ if !topology.is_empty() => {}
        Some(addr) => {
            println!(
                "load: {} conns, {:?}, pipeline {} -> {addr} {} {}",
                cfg.conns, cfg.duration, cfg.pipeline, cfg.method, cfg.endpoint
            );
            sections.push(("target".to_owned(), run_load(&addr, &cfg)));
        }
        None => {
            let server = Server::spawn_with("127.0.0.1:0", Arc::new(corpus_state()), opts.clone())
                .expect("spawn reactor server");
            let addr = server.addr().to_string();
            println!(
                "reactor: {} conns, {:?}, pipeline {} -> {addr}",
                cfg.conns, cfg.duration, cfg.pipeline
            );
            sections.push(("reactor".to_owned(), run_load(&addr, &cfg)));
            server.shutdown();
        }
    }

    let mut json = String::from("{");
    json.push_str(&format!(
        concat!(
            "\"config\":{{\"conns\":{},\"duration_secs\":{},\"pipeline\":{},",
            "\"method\":\"{}\",\"endpoint\":\"{}\",\"listen_threads\":{},",
            "\"solver_pool\":{}}}"
        ),
        cfg.conns,
        cfg.duration.as_secs(),
        cfg.pipeline,
        cfg.method,
        cfg.endpoint,
        opts.listen_threads,
        opts.solver_pool,
    ));
    let mut any_5xx = false;
    for (name, report) in &sections {
        println!(
            "{name}: {} requests, {:.1} req/s, p50 {}us p95 {}us p99 {}us max {}us, \
             {} 5xx ({} of them 503), {} reconnects",
            report.requests,
            report.rps(),
            report.quantile_us(0.50),
            report.quantile_us(0.95),
            report.quantile_us(0.99),
            report.latencies_us.last().copied().unwrap_or(0),
            report.server_5xx,
            report.server_503,
            report.reconnects,
        );
        json.push_str(&format!(",\"{name}\":{}", report.to_json()));
        // `--allow-503` tolerates backpressure answers: saturation and
        // shedding experiments assert "503s only, no 500s".
        let hard_5xx = if allow_503 {
            report.server_5xx - report.server_503
        } else {
            report.server_5xx
        };
        any_5xx |= hard_5xx > 0;
    }
    if !targets.is_empty() {
        let mut obj = String::new();
        for (address, report) in &targets {
            println!(
                "  {address}: {} requests, {:.1} req/s, p50 {}us p99 {}us, {} 5xx",
                report.requests,
                report.rps(),
                report.quantile_us(0.50),
                report.quantile_us(0.99),
                report.server_5xx,
            );
            if !obj.is_empty() {
                obj.push(',');
            }
            obj.push_str(&format!("\"{address}\":{}", report.to_json()));
        }
        json.push_str(&format!(",\"targets\":{{{obj}}}"));
    }
    json.push('}');
    std::fs::write(&json_path, format!("{json}\n"))?;
    println!("wrote {json_path}");

    if fail_on_5xx && any_5xx {
        eprintln!("error: server returned 5xx responses under load");
        std::process::exit(1);
    }
    Ok(())
}

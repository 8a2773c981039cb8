//! `serve-mixed`: an in-process [`hta_server::Server`] with the default
//! [`ServeOptions`] serving a 200,000-task AMT catalog — past the 4,096-task
//! dense cap, so every solve runs index retrieval, the pool maintainer, the
//! sparse edge cache and dynamic matching behind the state lock.
//!
//! Traffic is open loop over [`CONNECTIONS`] keep-alive connections, one
//! generator thread each. Worker visits arrive with seeded exponential gaps
//! at [`RATE`] visits/s. A visit is an idle registered worker (or a fresh
//! `/register`) calling `/assign`; one visit in five is instead an
//! `/assign_batch` of [`BATCH_WORKERS`] idle workers. Every returned task
//! is completed with `/complete` at seeded think times. The schedule is a
//! pure function of the seed, laid out in virtual time; each request is
//! timed from its due time, so a stall counts against every request it
//! delays, and the generator's own lateness is reported.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashSet};
use std::io::{BufReader, Write as _};
use std::net::{SocketAddr, TcpStream};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use hta_core::{KeywordId, KeywordVec};
use hta_datagen::amt::{generate_exact, AmtConfig};
use hta_datagen::workers::{synthetic_workers, SyntheticWorkerConfig};
use hta_net::client;
use hta_server::{PlatformState, ServeOptions, Server};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use crate::report::{Metrics, Report};
use crate::stats::{mean, median, ms, percentile, Setups};
use crate::trace::{self, Span, Tracer};

/// Open-loop arrival rate in worker visits per second: about a quarter of
/// this mix's closed-loop capacity (about 210 visits/s on a 2-core x86-64
/// box; `--calibrate` measures it). At half the capacity the run-to-run
/// spread of the latency medians on such a box reached 40%.
pub const RATE: f64 = 50.0;
/// Every this-many-th visit is an `/assign_batch` instead of an `/assign`.
pub const BATCH_EVERY: usize = 5;
/// Workers per `/assign_batch`.
pub const BATCH_WORKERS: usize = 4;
/// Share of visits by a newly registered worker even when idle ones exist.
pub const NEW_WORKER_SHARE: f64 = 0.1;
/// Tasks per assignment (`X_max`).
pub const XMAX: usize = 15;
/// Mean think time before each `/complete`, seconds (exponential).
pub const THINK_MEAN_S: f64 = 0.1;
/// Keep-alive connections, one generator thread each.
pub const CONNECTIONS: usize = 2;
/// No visit is scheduled in the last this-many seconds of a run, so the
/// completions of the last visits fall inside it.
pub const DRAIN_S: f64 = 3.0;
/// Requests due in the first this-many seconds are served but not timed:
/// the state's lazy sparse pipeline and the server's threads warm up there.
pub const WARMUP_S: f64 = 1.0;
/// Seconds of set-up repetitions sampled before and after the measured
/// phase.
pub const SETUP_BLOCK_S: f64 = 0.5;
/// Latency percentiles are taken per window of due times (the timed part
/// of the schedule split evenly) and reported as the median over windows,
/// so a burst of outside interference moves one window, not the result.
pub const WINDOWS: usize = 2;
/// Interval of the `GET /health` probes of a traced run, seconds.
pub const HEALTH_EVERY_S: f64 = 0.1;
/// Retrieval depth of the replay's index probes (the default `TopK(16)`).
const TOPK: usize = 16;

/// Catalog size of one serving workload.
#[derive(Debug, Clone, Copy)]
pub struct ServeSpec {
    /// Catalog tasks.
    pub tasks: usize,
    /// Task groups (tasks in a group share keywords).
    pub groups: usize,
}

impl ServeSpec {
    /// The full workload, or the smoke-test size (still past the cap).
    pub fn pick(small: bool) -> Self {
        if small {
            ServeSpec {
                tasks: 8_000,
                groups: 400,
            }
        } else {
            ServeSpec {
                tasks: 200_000,
                groups: 10_000,
            }
        }
    }
}

/// One scheduled visit, in virtual time.
struct Visit {
    /// Seconds after the run starts.
    due: f64,
    /// `(virtual worker, registers on this visit)`.
    workers: Vec<(usize, bool)>,
    /// Per worker, the completion offsets after `due` for each task slot.
    offsets: Vec<Vec<f64>>,
}

/// The seeded traffic schedule.
struct Schedule {
    visits: Vec<Visit>,
    /// Virtual workers created (each registers on its first visit).
    workers: usize,
}

fn exp(rng: &mut StdRng, mean: f64) -> f64 {
    -mean * (1.0 - rng.random::<f64>()).ln()
}

/// The schedule for a run of `seconds`: a fixed count of `RATE × horizon`
/// visits, placed as a Poisson process conditioned on that count (sorted
/// uniform times over the horizon), every fifth visit a batch.
fn schedule(seed: u64, seconds: f64) -> Schedule {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5C4E_D01E);
    let horizon = (seconds - DRAIN_S).max(seconds * 0.5);
    let n = (RATE * horizon).round() as usize;
    let mut due: Vec<f64> = (0..n).map(|_| rng.random::<f64>() * horizon).collect();
    due.sort_by(f64::total_cmp);
    let mut busy_until: Vec<f64> = Vec::new();
    let mut visits = Vec::with_capacity(n);
    for (i, t) in due.into_iter().enumerate() {
        let size = if i % BATCH_EVERY == BATCH_EVERY - 1 {
            BATCH_WORKERS
        } else {
            1
        };
        let mut idle: Vec<usize> = (0..busy_until.len())
            .filter(|&w| busy_until[w] <= t)
            .collect();
        let mut workers = Vec::with_capacity(size);
        let mut offsets = Vec::with_capacity(size);
        for _ in 0..size {
            let fresh = idle.is_empty() || rng.random_bool(NEW_WORKER_SHARE);
            let w = if fresh {
                busy_until.push(0.0);
                busy_until.len() - 1
            } else {
                idle.swap_remove(rng.random_range(0..idle.len()))
            };
            let mut at = 0.0;
            let offs: Vec<f64> = (0..XMAX)
                .map(|_| {
                    at += exp(&mut rng, THINK_MEAN_S);
                    at
                })
                .collect();
            busy_until[w] = t + at;
            workers.push((w, fresh));
            offsets.push(offs);
        }
        visits.push(Visit {
            due: t,
            workers,
            offsets,
        });
    }
    Schedule {
        workers: busy_until.len(),
        visits,
    }
}

/// The seeded inputs of one set-up.
struct Inputs {
    /// Task keywords by catalog index (for Eq. 3, computed client-side).
    task_kw: Vec<KeywordVec>,
    /// Keyword vector and `/register` query value of each virtual worker.
    workers: Vec<(KeywordVec, String)>,
}

/// One set-up: catalog, worker keywords, platform state.
struct Setup {
    inputs: Inputs,
    state: Arc<PlatformState>,
}

/// Build the seeded inputs and the state; returns them with the catalog
/// and worker-keyword generation times.
fn build_state(spec: ServeSpec, seed: u64, n_workers: usize) -> (Setup, f64, f64) {
    let t0 = Instant::now();
    let amt = generate_exact(
        &AmtConfig {
            seed,
            ..AmtConfig::with_totals(spec.tasks, spec.groups)
        },
        spec.tasks,
    );
    let t1 = Instant::now();
    let pool = synthetic_workers(
        amt.space.len(),
        &SyntheticWorkerConfig {
            n_workers,
            seed: seed ^ 0x30B,
            ..SyntheticWorkerConfig::default()
        },
    );
    let workers: Vec<(KeywordVec, String)> = pool
        .workers()
        .iter()
        .map(|w| {
            let names: Vec<&str> = w
                .keywords
                .iter_ones()
                .map(|i| amt.space.name(KeywordId(i as u32)))
                .collect();
            (w.keywords.clone(), names.join(";"))
        })
        .collect();
    let t2 = Instant::now();
    let task_kw = amt
        .tasks
        .tasks()
        .iter()
        .map(|t| t.keywords.clone())
        .collect();
    let state = Arc::new(PlatformState::new(amt.space, amt.tasks, XMAX, seed));
    let setup = Setup {
        inputs: Inputs { task_kw, workers },
        state,
    };
    (setup, (t1 - t0).as_secs_f64(), (t2 - t1).as_secs_f64())
}

/// Eq. 3 `motiv` of `tasks` for a worker with keywords `w` and weights
/// `(alpha, beta)`, with Jaccard distance as `d` and `1 - d` as relevance.
fn motiv(task_kw: &[KeywordVec], w: &KeywordVec, tasks: &[usize], alpha: f64, beta: f64) -> f64 {
    if tasks.is_empty() {
        return 0.0;
    }
    let d = hta_core::kernels::jaccard_distance;
    let mut td = 0.0;
    for (i, &k) in tasks.iter().enumerate() {
        for &l in &tasks[i + 1..] {
            td += d(&task_kw[k], &task_kw[l]);
        }
    }
    let tr: f64 = tasks.iter().map(|&t| 1.0 - d(&task_kw[t], w)).sum();
    2.0 * alpha * td + beta * (tasks.len() as f64 - 1.0) * tr
}

// ---- Minimal parsing of the server's JSON bodies -------------------------

/// The text after `"key":` in `body`.
fn after<'a>(body: &'a str, key: &str) -> Option<&'a str> {
    let pat = format!("\"{key}\":");
    body.find(&pat).map(|i| &body[i + pat.len()..])
}

fn number(body: &str, key: &str) -> Option<f64> {
    let rest = after(body, key)?;
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-' || c == 'e'))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// `(tasks, alpha, beta)` of one assignment object.
fn assignment(obj: &str) -> Option<(Vec<usize>, f64, f64)> {
    let list = after(obj, "tasks")?.strip_prefix('[')?;
    let list = &list[..list.find(']')?];
    let tasks = list
        .split(',')
        .filter(|s| !s.is_empty())
        .map(|s| s.parse().ok())
        .collect::<Option<Vec<usize>>>()?;
    Some((tasks, number(obj, "alpha")?, number(obj, "beta")?))
}

// ---- The open-loop generator ----------------------------------------------

/// One request kind; ordered only to break heap ties deterministically.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Op {
    Visit(usize),
    Complete { worker: usize, task: usize },
    Health,
}

/// A pending request: `(ready ns, sequence, due ns, op)`, popped in order.
type Pending = Reverse<(u64, u64, u64, Op)>;

struct Queue {
    heap: BinaryHeap<Pending>,
    seq: u64,
    in_flight: usize,
    /// Server worker id of each virtual worker, once registered.
    ids: Vec<Option<usize>>,
    /// Every task handed out so far.
    handed_out: HashSet<usize>,
    duplicates: usize,
}

impl Queue {
    fn push(&mut self, ready_ns: u64, due_ns: u64, op: Op) {
        self.seq += 1;
        self.heap.push(Reverse((ready_ns, self.seq, due_ns, op)));
    }
}

/// Latency samples as `(due time in schedule seconds, ms)`.
type Timed = Vec<(f64, f64)>;

/// The latencies alone.
fn values(samples: &Timed) -> Vec<f64> {
    samples.iter().map(|&(_, v)| v).collect()
}

/// Median over [`WINDOWS`] windows of due time in `[WARMUP_S, horizon]` of
/// each window's `q` percentile (later samples fall in the last window).
fn windowed(samples: &Timed, q: f64, horizon: f64) -> f64 {
    let width = ((horizon - WARMUP_S) / WINDOWS as f64).max(f64::MIN_POSITIVE);
    let mut windows = vec![Vec::new(); WINDOWS];
    for &(due, v) in samples {
        let w = (((due - WARMUP_S) / width) as usize).min(WINDOWS - 1);
        windows[w].push(v);
    }
    let per_window: Vec<f64> = windows
        .iter()
        .filter(|w| !w.is_empty())
        .map(|w| percentile(w, q))
        .collect();
    median(&per_window)
}

/// Per-thread measurements.
#[derive(Default)]
struct Samples {
    assign_ms: Timed,
    batch_ms: Timed,
    complete_ms: Timed,
    register_ms: Timed,
    health_us: Vec<f64>,
    lag_ms: Timed,
    motiv: Vec<f64>,
    sent: [u64; 5],
    failed: u64,
    oversized_sets: u64,
    visits_done: u64,
}

const SENT_REGISTER: usize = 0;
const SENT_ASSIGN: usize = 1;
const SENT_BATCH: usize = 2;
const SENT_COMPLETE: usize = 3;
const SENT_HEALTH: usize = 4;

impl Samples {
    fn absorb(&mut self, o: Samples) {
        self.assign_ms.extend(o.assign_ms);
        self.batch_ms.extend(o.batch_ms);
        self.complete_ms.extend(o.complete_ms);
        self.register_ms.extend(o.register_ms);
        self.health_us.extend(o.health_us);
        self.lag_ms.extend(o.lag_ms);
        self.motiv.extend(o.motiv);
        for (a, b) in self.sent.iter_mut().zip(o.sent) {
            *a += b;
        }
        self.failed += o.failed;
        self.oversized_sets += o.oversized_sets;
        self.visits_done += o.visits_done;
    }
}

/// One keep-alive connection.
struct Conn {
    addr: SocketAddr,
    stream: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Conn {
    fn open(addr: SocketAddr) -> std::io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        let reader = BufReader::new(stream.try_clone()?);
        Ok(Conn {
            addr,
            stream,
            reader,
        })
    }

    /// One request/response exchange; reconnects once after an I/O error.
    fn call(&mut self, method: &str, target: &str) -> Option<(u16, String)> {
        for _ in 0..2 {
            let sent = self
                .stream
                .write_all(&client::request_bytes(method, target, true));
            if sent.is_ok() {
                if let Ok(resp) = client::read_response(&mut self.reader) {
                    return Some((resp.status, resp.body_text()));
                }
            }
            match Conn::open(self.addr) {
                Ok(fresh) => *self = fresh,
                Err(_) => return None,
            }
        }
        None
    }
}

/// What one HTTP phase measured.
struct HttpOut {
    samples: Samples,
    duplicates: usize,
    stats_body: String,
    wall_s: f64,
    spans: Vec<Span>,
}

/// Drive `plan` against a server over `state`. `compress` divides every due
/// time (`--calibrate` uses a huge factor to run the mix closed loop);
/// `traced` adds `/health` probes and spans.
fn drive(
    plan: &Schedule,
    inputs: &Inputs,
    state: Arc<PlatformState>,
    compress: f64,
    traced: bool,
) -> HttpOut {
    let server = Server::spawn_with("127.0.0.1:0", state, ServeOptions::default())
        .expect("bind an ephemeral localhost port");
    let addr = server.addr();
    let mut queue = Queue {
        heap: BinaryHeap::new(),
        seq: 0,
        in_flight: 0,
        ids: vec![None; plan.workers],
        handed_out: HashSet::new(),
        duplicates: 0,
    };
    let to_ns = |s: f64| (s / compress * 1e9) as u64;
    for (v, visit) in plan.visits.iter().enumerate() {
        let due = to_ns(visit.due);
        queue.push(due, due, Op::Visit(v));
    }
    if traced {
        let end = plan.visits.last().map_or(0.0, |v| v.due);
        let mut t = HEALTH_EVERY_S;
        while t < end {
            queue.push(to_ns(t), to_ns(t), Op::Health);
            t += HEALTH_EVERY_S;
        }
    }
    let shared = (Mutex::new(queue), Condvar::new());
    let origin = Instant::now();
    let outs: Vec<(Samples, Vec<Span>)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CONNECTIONS)
            .map(|_| {
                let shared = &shared;
                scope.spawn(move || generator(addr, plan, inputs, shared, origin, compress, traced))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("generator thread panicked"))
            .collect()
    });
    let wall_s = origin.elapsed().as_secs_f64();
    let mut samples = Samples::default();
    let mut span_lists = Vec::new();
    for (s, spans) in outs {
        samples.absorb(s);
        span_lists.push(spans);
    }
    let stats_body = Conn::open(addr)
        .ok()
        .and_then(|mut c| c.call("GET", "/stats"))
        .filter(|(status, _)| *status == 200)
        .map(|(_, body)| body)
        .unwrap_or_default();
    server.shutdown();
    let queue = shared.0.into_inner().expect("queue lock");
    HttpOut {
        samples,
        duplicates: queue.duplicates,
        stats_body,
        wall_s,
        spans: trace::merge(span_lists),
    }
}

#[allow(clippy::too_many_arguments)]
fn generator(
    addr: SocketAddr,
    plan: &Schedule,
    inputs: &Inputs,
    shared: &(Mutex<Queue>, Condvar),
    origin: Instant,
    compress: f64,
    traced: bool,
) -> (Samples, Vec<Span>) {
    let (lock, cv) = shared;
    let mut out = Samples::default();
    let mut tracer = Tracer::new(traced, origin);
    let mut conn = match Conn::open(addr) {
        Ok(c) => c,
        Err(_) => {
            out.failed += 1;
            return (out, Vec::new());
        }
    };
    let now_ns = || origin.elapsed().as_nanos() as u64;
    loop {
        let (due_ns, op) = {
            let mut q = lock.lock().expect("queue lock");
            loop {
                let now = now_ns();
                match q.heap.peek() {
                    None if q.in_flight == 0 => {
                        cv.notify_all();
                        return (out, tracer.take());
                    }
                    None => q = cv.wait(q).expect("queue lock"),
                    Some(&Reverse((ready, ..))) if ready > now => {
                        q = cv
                            .wait_timeout(q, Duration::from_nanos(ready - now))
                            .expect("queue lock")
                            .0;
                    }
                    Some(_) => {
                        let Reverse((_, _, due, op)) = q.heap.pop().expect("peeked");
                        q.in_flight += 1;
                        break (due, op);
                    }
                }
            }
        };
        let popped = Instant::now();
        // Latency from the due time; nothing is timed during warm-up.
        let timed = due_ns as f64 / 1e9 * compress >= WARMUP_S;
        let since_due = |samples: &mut Timed, at: Instant| {
            if timed {
                let at_ns = at.saturating_duration_since(origin).as_nanos() as f64;
                samples.push((
                    due_ns as f64 / 1e9 * compress,
                    (at_ns - due_ns as f64) / 1e6,
                ));
            }
        };
        match op {
            Op::Health => {
                let t0 = Instant::now();
                let ok = conn.call("GET", "/health").is_some_and(|(s, _)| s == 200);
                let t1 = Instant::now();
                tracer.record("http.health", 0, t0, t1);
                out.sent[SENT_HEALTH] += 1;
                out.failed += u64::from(!ok);
                out.health_us.push((t1 - t0).as_secs_f64() * 1e6);
            }
            Op::Complete { worker, task } => {
                since_due(&mut out.lag_ms, popped);
                let t0 = Instant::now();
                let ok = conn
                    .call("POST", &format!("/complete?worker={worker}&task={task}"))
                    .is_some_and(|(s, _)| s == 200);
                let t1 = Instant::now();
                tracer.record("http.complete", task as u64, t0, t1);
                out.sent[SENT_COMPLETE] += 1;
                out.failed += u64::from(!ok);
                since_due(&mut out.complete_ms, t1);
            }
            Op::Visit(v) => {
                let visit = &plan.visits[v];
                // A worker registered by a visit still in flight on the
                // other connection: retry shortly, keeping the due time.
                let mut q = lock.lock().expect("queue lock");
                let waiting = visit
                    .workers
                    .iter()
                    .any(|&(w, fresh)| !fresh && q.ids[w].is_none());
                if waiting {
                    q.push(now_ns() + 1_000_000, due_ns, op);
                    q.in_flight -= 1;
                    cv.notify_all();
                    continue;
                }
                drop(q);
                since_due(&mut out.lag_ms, popped);
                let span = tracer.enter("loadgen.visit", v as u64);
                let completes = run_visit(
                    v,
                    visit,
                    inputs,
                    &mut conn,
                    lock,
                    &mut out,
                    &mut tracer,
                    &since_due,
                );
                tracer.exit(span);
                out.visits_done += 1;
                let mut q = lock.lock().expect("queue lock");
                for (worker, task, offset) in completes {
                    let at = due_ns + (offset / compress * 1e9) as u64;
                    q.push(at, at, Op::Complete { worker, task });
                }
                cv.notify_all();
                drop(q);
            }
        }
        // The other thread only needs waking for new events (notified on
        // push) and for the end of the run.
        let mut q = lock.lock().expect("queue lock");
        q.in_flight -= 1;
        if q.in_flight == 0 && q.heap.is_empty() {
            cv.notify_all();
        }
    }
}

/// Register any fresh workers, send the visit's `/assign` or
/// `/assign_batch`, check the sets, and return the completions to schedule
/// as `(server worker id, task, offset after due)`.
#[allow(clippy::too_many_arguments)]
fn run_visit(
    v: usize,
    visit: &Visit,
    inputs: &Inputs,
    conn: &mut Conn,
    lock: &Mutex<Queue>,
    out: &mut Samples,
    tracer: &mut Tracer,
    since_due: &dyn Fn(&mut Timed, Instant),
) -> Vec<(usize, usize, f64)> {
    let mut ids = Vec::with_capacity(visit.workers.len());
    for &(w, fresh) in &visit.workers {
        if fresh {
            let t0 = Instant::now();
            let reply = conn.call(
                "POST",
                &format!("/register?keywords={}", inputs.workers[w].1),
            );
            let t1 = Instant::now();
            tracer.record("http.register", v as u64, t0, t1);
            out.sent[SENT_REGISTER] += 1;
            since_due(&mut out.register_ms, t1);
            let id = reply
                .filter(|(s, _)| *s == 200)
                .and_then(|(_, body)| number(&body, "worker_id"))
                .map(|id| id as usize);
            let Some(id) = id else {
                out.failed += 1;
                return Vec::new();
            };
            lock.lock().expect("queue lock").ids[w] = Some(id);
            ids.push(id);
        } else {
            ids.push(lock.lock().expect("queue lock").ids[w].expect("checked registered"));
        }
    }
    let batch = ids.len() > 1;
    let target = if batch {
        let list: Vec<String> = ids.iter().map(usize::to_string).collect();
        format!("/assign_batch?workers={}", list.join(","))
    } else {
        format!("/assign?worker={}", ids[0])
    };
    let t0 = Instant::now();
    let reply = conn.call("POST", &target);
    let t1 = Instant::now();
    if batch {
        tracer.record("http.assign_batch", v as u64, t0, t1);
        out.sent[SENT_BATCH] += 1;
        since_due(&mut out.batch_ms, t1);
    } else {
        tracer.record("http.assign", v as u64, t0, t1);
        out.sent[SENT_ASSIGN] += 1;
        since_due(&mut out.assign_ms, t1);
    }
    let Some((200, body)) = reply else {
        out.failed += 1;
        return Vec::new();
    };
    // One object per worker, in request order.
    let objects: Vec<&str> = if batch {
        body.split("{\"worker\":").skip(1).collect()
    } else {
        vec![body.as_str()]
    };
    let sets: Option<Vec<_>> = objects.iter().map(|o| assignment(o)).collect();
    let Some(sets) = sets.filter(|s| s.len() == ids.len()) else {
        out.failed += 1;
        return Vec::new();
    };
    let mut completes = Vec::new();
    let mut q = lock.lock().expect("queue lock");
    for (slot, (tasks, alpha, beta)) in sets.iter().enumerate() {
        if tasks.len() > XMAX {
            out.oversized_sets += 1;
        }
        let (w, _) = visit.workers[slot];
        out.motiv.push(motiv(
            &inputs.task_kw,
            &inputs.workers[w].0,
            tasks,
            *alpha,
            *beta,
        ));
        for (k, &task) in tasks.iter().enumerate() {
            if !q.handed_out.insert(task) {
                q.duplicates += 1;
            }
            let offset = visit.offsets[slot][k.min(XMAX - 1)];
            completes.push((ids[slot], task, offset));
        }
    }
    completes
}

// ---- Replay against the state, without sockets ----------------------------

/// Per-call service times of the in-process replay, ms.
#[derive(Default)]
struct Replay {
    assign: Vec<f64>,
    batch: Vec<f64>,
    complete: Vec<f64>,
    register: Vec<f64>,
    topk: Vec<f64>,
    pool: Vec<f64>,
    spans: Vec<Span>,
}

/// Replay `plan` in due order against `state` with no sockets, timing each
/// state call; before each single `/assign`, probe the worker's top-k and
/// candidate pool (both read-only).
fn replay(plan: &Schedule, inputs: &Inputs, state: &PlatformState, origin: Instant) -> Replay {
    let mut r = Replay::default();
    let mut tracer = Tracer::new(true, origin);
    let mut ids: Vec<Option<usize>> = vec![None; plan.workers];
    // (due ns, sequence, op)
    let mut heap: BinaryHeap<Reverse<(u64, u64, Op)>> = BinaryHeap::new();
    let mut seq = 0u64;
    for (v, visit) in plan.visits.iter().enumerate() {
        seq += 1;
        heap.push(Reverse(((visit.due * 1e9) as u64, seq, Op::Visit(v))));
    }
    let timed = |f: &mut dyn FnMut()| {
        let t0 = Instant::now();
        f();
        (t0, Instant::now())
    };
    while let Some(Reverse((due, _, op))) = heap.pop() {
        match op {
            Op::Complete { worker, task } => {
                let (t0, t1) = timed(&mut || {
                    let _ = std::hint::black_box(state.complete(worker, task));
                });
                tracer.record("state.complete", task as u64, t0, t1);
                r.complete.push(ms(t1 - t0));
            }
            Op::Health => {}
            Op::Visit(v) => {
                let visit = &plan.visits[v];
                let span = tracer.enter("replay.visit", v as u64);
                let mut cohort = Vec::new();
                for &(w, fresh) in &visit.workers {
                    if fresh {
                        let kws: Vec<&str> = inputs.workers[w].1.split(';').collect();
                        let mut id = None;
                        let (t0, t1) = timed(&mut || id = state.register_worker(&kws).ok());
                        tracer.record("state.register", v as u64, t0, t1);
                        r.register.push(ms(t1 - t0));
                        ids[w] = id;
                    }
                    cohort.push(ids[w].expect("registered on its first visit"));
                }
                let sets: Vec<Vec<usize>> = if cohort.len() == 1 {
                    let w = cohort[0];
                    let (t0, t1) = timed(&mut || {
                        let _ = std::hint::black_box(state.worker_topk(w, TOPK));
                    });
                    tracer.record("index.topk", v as u64, t0, t1);
                    r.topk.push(ms(t1 - t0));
                    let (t0, t1) = timed(&mut || {
                        let _ = std::hint::black_box(state.candidate_pool(w));
                    });
                    tracer.record("index.pool_generate", v as u64, t0, t1);
                    r.pool.push(ms(t1 - t0));
                    let mut res = None;
                    let (t0, t1) = timed(&mut || res = state.assign(w).ok());
                    tracer.record("state.assign", v as u64, t0, t1);
                    r.assign.push(ms(t1 - t0));
                    res.into_iter().map(|a| a.tasks).collect()
                } else {
                    let mut res = None;
                    let (t0, t1) = timed(&mut || res = state.assign_batch(&cohort).ok());
                    tracer.record("state.assign_batch", v as u64, t0, t1);
                    r.batch.push(ms(t1 - t0));
                    res.unwrap_or_default()
                        .into_iter()
                        .map(|a| a.tasks)
                        .collect()
                };
                tracer.exit(span);
                for (slot, tasks) in sets.iter().enumerate() {
                    for (k, &task) in tasks.iter().enumerate() {
                        seq += 1;
                        let at = due + (visit.offsets[slot][k.min(XMAX - 1)] * 1e9) as u64;
                        let op = Op::Complete {
                            worker: cohort[slot],
                            task,
                        };
                        heap.push(Reverse((at, seq, op)));
                    }
                }
            }
        }
    }
    r.spans = tracer.take();
    r
}

// ---- The workload ------------------------------------------------------------

/// Checks on one HTTP phase; returns `(attempted, failed)`.
fn check_http(report: &mut Report, spec: ServeSpec, http: &HttpOut) -> (u64, u64) {
    let s = &http.samples;
    let attempted: u64 = s.sent.iter().sum();
    report.check(
        s.failed == 0,
        format!("every response is 2xx ({} failed)", s.failed),
    );
    report.check(
        s.oversized_sets == 0,
        format!("every set has at most {XMAX} tasks"),
    );
    report.check(
        http.duplicates == 0,
        format!("no task is handed out twice ({} repeats)", http.duplicates),
    );
    let body = &http.stats_body;
    let field = |k: &str| number(body, k).unwrap_or(-1.0) as i64;
    let total = field("open_tasks") + field("assigned_tasks") + field("completed_tasks");
    report.check(
        total == spec.tasks as i64,
        format!(
            "open + assigned + completed = {total} = catalog {}",
            spec.tasks
        ),
    );
    let endpoints = after(body, "endpoints").unwrap_or("");
    let counts = [
        ("register", s.sent[SENT_REGISTER]),
        ("assign", s.sent[SENT_ASSIGN]),
        ("assign_batch", s.sent[SENT_BATCH]),
        ("complete", s.sent[SENT_COMPLETE]),
        ("health", s.sent[SENT_HEALTH]),
        ("stats", 0),
    ];
    for (name, sent) in counts {
        let served = number(endpoints, name).unwrap_or(-1.0) as i64;
        report.check(
            served == sent as i64,
            format!("/stats counts {served} /{name} requests, {sent} sent"),
        );
    }
    (
        attempted,
        s.failed + s.oversized_sets + http.duplicates as u64,
    )
}

/// Run `serve-mixed` for about `seconds`.
pub fn run(spec: ServeSpec, seed: u64, seconds: f64, trace: bool, trace_path: &str) -> Report {
    let plan = schedule(seed, seconds);
    let mut report = Report::default();
    // Set-up is sampled before and after the HTTP phase (median reported);
    // the last one before it serves.
    let mut setups = Setups::default();
    let build = || build_state(spec, seed, plan.workers);
    let setup = setups.block(SETUP_BLOCK_S, build);
    let untraced = drive(&plan, &setup.inputs, setup.state, 1.0, false);
    drop(setup.inputs);
    setups.block(SETUP_BLOCK_S, build);
    let (attempted, failed) = check_http(&mut report, spec, &untraced);
    report.attempted = attempted;
    report.failed = failed;
    let s = &untraced.samples;
    report.note(format!(
        "open loop: {} visits at {RATE}/s over {CONNECTIONS} connections in {:.2} s; generator lag p50 {:.3} ms, p99 {:.3} ms, max {:.3} ms",
        s.visits_done,
        untraced.wall_s,
        median(&values(&s.lag_ms)),
        percentile(&values(&s.lag_ms), 0.99),
        percentile(&values(&s.lag_ms), 1.0),
    ));
    for (name, t) in [
        ("/assign", &s.assign_ms),
        ("/assign_batch", &s.batch_ms),
        ("/complete", &s.complete_ms),
        ("/register", &s.register_ms),
    ] {
        report.samples(
            &format!("{name} per window of {WINDOWS}"),
            t.len() / WINDOWS,
        );
    }

    // The end-to-end set comes from the untraced phase in both modes.
    let mut m = Metrics::new();
    m.set("setup_s", median(&setups.total));
    report.note(setups.note());
    let horizon = plan.visits.last().map_or(0.0, |v| v.due);
    let win = |t: &Timed, q: f64| windowed(t, q, horizon);
    m.set("assign_p50_ms", win(&s.assign_ms, 0.5));
    m.set("assign_p95_ms", win(&s.assign_ms, 0.95));
    m.set("batch_p50_ms", win(&s.batch_ms, 0.5));
    m.set("batch_p90_ms", win(&s.batch_ms, 0.9));
    m.set("complete_p50_ms", win(&s.complete_ms, 0.5));
    m.set("complete_p99_ms", win(&s.complete_ms, 0.99));
    m.set("assign_motiv_mean", mean(&s.motiv));
    m.set("sessions_per_s", s.visits_done as f64 / untraced.wall_s);
    if !trace {
        report.metrics = m;
        return report;
    }

    // Traced: the same schedule again on a fresh state with spans and
    // `/health` probes, then the in-process replay on a third.
    let (setup, _, _) = build();
    let traced = drive(&plan, &setup.inputs, setup.state, 1.0, true);
    let (a2, f2) = check_http(&mut report, spec, &traced);
    report.attempted += a2;
    report.failed += f2;
    let (setup, _, _) = build();
    let origin = Instant::now();
    let rep = replay(&plan, &setup.inputs, &setup.state, origin);
    let t = &traced.samples;
    let state_assign = median(&rep.assign);
    m.set("datagen.catalog_s", median(&setups.catalog));
    m.set("datagen.population_s", median(&setups.population));
    m.set("net.health_rtt_us_p50", median(&t.health_us));
    m.set(
        "net.wait_ms_p50",
        median(&values(&t.assign_ms)) - state_assign,
    );
    m.set("loadgen.lag_ms_p99", percentile(&values(&t.lag_ms), 0.99));
    m.set("server.state.assign_ms_p50", state_assign);
    m.set("server.state.assign_ms_p95", percentile(&rep.assign, 0.95));
    m.set("server.state.batch_ms_p50", median(&rep.batch));
    m.set("server.state.complete_ms_p50", median(&rep.complete));
    m.set("server.state.register_ms_p50", median(&rep.register));
    let serving = after(&traced.stats_body, "serving").unwrap_or("");
    m.set(
        "server.stats.rejected_503",
        number(serving, "rejected_503").unwrap_or(-1.0),
    );
    m.set(
        "server.stats.parse_errors",
        number(serving, "parse_errors").unwrap_or(-1.0),
    );
    m.set("index.topk_ms_p50", median(&rep.topk));
    m.set("index.pool_generate_ms_p50", median(&rep.pool));
    m.set(
        "index.open_frac_end",
        number(&traced.stats_body, "open_tasks").unwrap_or(0.0) / spec.tasks as f64,
    );
    m.set(
        "trace.overhead_pct",
        (median(&values(&t.assign_ms)) / median(&values(&s.assign_ms)) - 1.0) * 100.0,
    );
    m.set(
        "failed_op_ratio",
        report.failed as f64 / report.attempted.max(1) as f64,
    );
    report.note(format!(
        "tracing overhead: /assign p50 {:.3} ms untraced vs {:.3} ms traced",
        median(&values(&s.assign_ms)),
        median(&values(&t.assign_ms))
    ));
    let mut spans = traced.spans;
    let base = spans.len();
    spans.extend(rep.spans.into_iter().map(|mut sp| {
        sp.parent = sp.parent.map(|p| p + base);
        // Replay spans are timed from their own origin; shift them after
        // the HTTP phase so the two never overlap in the file.
        sp.start_ns += (traced.wall_s * 1e9) as u64;
        sp.end_ns += (traced.wall_s * 1e9) as u64;
        sp
    }));
    report.write_trace(trace_path, &spans);
    report.metrics = m;
    report
}

/// Run the mix closed loop (every request due at once, in schedule order)
/// and print the capacity it sustains.
pub fn calibrate(spec: ServeSpec, seed: u64, seconds: f64) {
    let plan = schedule(seed, seconds);
    let (setup, _, _) = build_state(spec, seed, plan.workers);
    let out = drive(&plan, &setup.inputs, setup.state, 1e6, false);
    let visits = out.samples.visits_done as f64;
    println!(
        "closed loop over {CONNECTIONS} connections: {visits} visits in {:.2} s = {:.1} visits/s ({} failed); open-loop rate is {RATE}/s",
        out.wall_s,
        visits / out.wall_s,
        out.samples.failed
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use hta_core::{GroupId, Instance, Task, TaskId, Weights, Worker, WorkerId};

    #[test]
    fn schedule_is_seeded_with_fixed_counts() {
        let a = schedule(7, 14.0);
        let b = schedule(7, 14.0);
        let n = (RATE * (14.0 - DRAIN_S)).round() as usize;
        assert_eq!(a.visits.len(), n);
        let batches = a.visits.iter().filter(|v| v.workers.len() > 1).count();
        assert_eq!(batches, n / BATCH_EVERY);
        assert!(a.visits.windows(2).all(|w| w[0].due <= w[1].due));
        let sig = |s: &Schedule| -> Vec<(u64, Vec<(usize, bool)>)> {
            s.visits
                .iter()
                .map(|v| (v.due.to_bits(), v.workers.clone()))
                .collect()
        };
        assert_eq!(sig(&a), sig(&b));
        assert_ne!(sig(&a), sig(&schedule(8, 14.0)));
        // A worker registers on its first visit and only then.
        let mut seen = vec![false; a.workers];
        for v in &a.visits {
            for &(w, fresh) in &v.workers {
                assert_eq!(fresh, !seen[w]);
                seen[w] = true;
            }
        }
    }

    #[test]
    fn windowed_percentile_ignores_one_bad_window() {
        let horizon = WARMUP_S + WINDOWS as f64;
        let mut samples: Timed = Vec::new();
        for w in 0..WINDOWS {
            for i in 0..100 {
                let due = WARMUP_S + w as f64 + i as f64 / 100.0;
                let slow = if w == 2 { 50.0 } else { 0.0 };
                samples.push((due, 1.0 + i as f64 / 100.0 + slow));
            }
        }
        // Late samples count in the last window.
        samples.push((horizon + 3.0, 1.0));
        assert!((windowed(&samples, 0.5, horizon) - 1.5).abs() < 0.02);
        assert!(windowed(&samples, 0.99, horizon) < 2.0);
    }

    #[test]
    fn parses_server_bodies() {
        let one = "{\"tasks\":[4,17,9],\"alpha\":0.250000,\"beta\":0.750000}";
        assert_eq!(assignment(one), Some((vec![4, 17, 9], 0.25, 0.75)));
        let batch = "{\"assignments\":[{\"worker\":3,\"tasks\":[1],\"alpha\":0.5,\"beta\":0.5},{\"worker\":5,\"tasks\":[],\"alpha\":1.0,\"beta\":0.0}]}";
        let sets: Vec<_> = batch
            .split("{\"worker\":")
            .skip(1)
            .map(|o| assignment(o).expect("well-formed"))
            .collect();
        assert_eq!(sets, vec![(vec![1], 0.5, 0.5), (vec![], 1.0, 0.0)]);
        let stats = "{\"open_tasks\":7,\"assigned_tasks\":2,\"serving\":{\"rejected_503\":0,\"endpoints\":{\"assign\":3,\"assign_batch\":1}}}";
        assert_eq!(number(stats, "open_tasks"), Some(7.0));
        assert_eq!(
            number(after(stats, "endpoints").unwrap(), "assign"),
            Some(3.0)
        );
        assert_eq!(number(stats, "missing"), None);
    }

    #[test]
    fn client_side_motiv_matches_eq3() {
        let kw = |ids: &[usize]| KeywordVec::from_indices(8, ids);
        let task_kw = vec![kw(&[0, 1]), kw(&[1, 2, 3]), kw(&[4]), kw(&[0, 5, 6])];
        let worker = kw(&[1, 4, 5]);
        let (alpha, beta) = (0.3, 0.6);
        let tasks: Vec<Task> = task_kw
            .iter()
            .enumerate()
            .map(|(i, k)| Task::new(TaskId(i as u32), GroupId(i as u32), k.clone()))
            .collect();
        let w = Worker::new(WorkerId(0), worker.clone()).with_weights(Weights::raw(alpha, beta));
        let inst = Instance::new(tasks, vec![w], 3).expect("valid instance");
        let set = [0, 2, 3];
        let expected = hta_core::motivation::motivation(&inst, 0, &set);
        let got = motiv(&task_kw, &worker, &set, alpha, beta);
        assert!((got - expected).abs() < 1e-12, "{got} vs {expected}");
    }
}

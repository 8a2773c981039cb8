//! The serving front-end: [`hta_net`]'s epoll reactor plus a bounded
//! solver pool, running the platform service with keep-alive HTTP/1.1.
//!
//! Reactor threads own the sockets and answer `/health` inline; everything
//! that touches [`PlatformState`] goes through the bounded job queue to a
//! solver-pool worker, so a long `/assign` solve never blocks accepts or
//! liveness probes, and a full queue answers `503` + `Retry-After` instead
//! of queueing unboundedly.

use std::io;
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::Instant;

use hta_net::reactor::ServerConfig;
use hta_net::{HttpHandler, HttpResponse, NetMetrics, NetServer, RawRequest};

use crate::cluster::ClusterCtx;
use crate::http::{parse_query, Request};
use crate::metrics::ServingMetrics;
use crate::service;
use crate::state::PlatformState;

/// Sizing knobs for [`Server::spawn_with`].
#[derive(Debug, Clone)]
pub struct ServeOptions {
    /// Reactor (event-loop) threads sharing the listener.
    pub listen_threads: usize,
    /// Solver-pool worker threads running the request handlers.
    pub solver_pool: usize,
    /// Job-queue capacity; beyond it requests get `503 Retry-After`.
    pub queue_capacity: usize,
}

impl Default for ServeOptions {
    fn default() -> Self {
        Self {
            listen_threads: 1,
            solver_pool: 2,
            queue_capacity: 64,
        }
    }
}

/// A running reactor server.
pub struct Server {
    net: NetServer,
    metrics: Arc<ServingMetrics>,
}

/// Routes raw reactor requests into [`service::handle_cluster`].
struct PlatformHandler {
    state: Arc<PlatformState>,
    metrics: Arc<ServingMetrics>,
    /// Cluster role configuration; `None` serves single-process.
    cluster: Option<Arc<ClusterCtx>>,
}

impl PlatformHandler {
    fn to_request(raw: &RawRequest) -> Request {
        let (path, query) = match raw.target.split_once('?') {
            Some((p, q)) => (p, q),
            None => (raw.target.as_str(), ""),
        };
        Request {
            method: raw.method.clone(),
            path: path.to_owned(),
            query: parse_query(query),
        }
    }
}

impl HttpHandler for PlatformHandler {
    fn handle(&self, raw: &RawRequest) -> HttpResponse {
        let started = Instant::now();
        let req = Self::to_request(raw);
        let resp = service::handle_cluster(
            &self.state,
            &req,
            Some(&self.metrics),
            self.cluster.as_deref(),
        );
        self.metrics.record(&req.path, started.elapsed());
        let mut out = HttpResponse::json(resp.status, resp.body);
        out.location = resp.location;
        if resp.status == 503 {
            out.retry_after = Some(1);
        }
        out
    }

    fn inline(&self, raw: &RawRequest) -> Option<HttpResponse> {
        // Liveness must answer even while the pool is saturated by solves;
        // it reads no shared state, so it is safe on the reactor thread.
        let path = raw.target.split('?').next().unwrap_or("");
        if raw.method == "GET" && path == "/health" {
            self.metrics.record("/health", Instant::now().elapsed());
            return Some(HttpResponse::json(200, "{\"status\":\"ok\"}".to_owned()));
        }
        // A malformed `priority=` is a client error, not a scheduling
        // hint: answer 400 from the reactor thread so the bogus request
        // never occupies a queue slot at any tier.
        if request_priority(raw).is_err() {
            self.metrics.record(path, Instant::now().elapsed());
            return Some(HttpResponse::error(
                400,
                "query parameter 'priority' must be low, normal, high, or critical",
            ));
        }
        None
    }

    fn priority(&self, raw: &RawRequest) -> u8 {
        // Malformed values were already rejected inline with 400; the
        // fallback here is unreachable in practice and defaults to normal.
        request_priority(raw).unwrap_or(1)
    }
}

/// Map a request's `priority=low|normal|high|critical` query parameter to
/// its queue tier ([`hta_life::TaskPriority`]'s rank). A missing parameter
/// falls back to normal, so it is purely opt-in; a present but
/// unrecognised value is `Err` and the request is rejected with `400`
/// before it is queued. Runs on the reactor thread: a saturated solver
/// pool sheds low-priority requests with `503 Retry-After` before it
/// touches high or critical ones.
fn request_priority(raw: &RawRequest) -> Result<u8, ()> {
    let query = raw.target.split_once('?').map_or("", |(_, q)| q);
    match query.split('&').find_map(|kv| kv.strip_prefix("priority=")) {
        None => Ok(1),
        Some(value) => hta_life::TaskPriority::parse(value)
            .map(hta_life::TaskPriority::rank)
            .ok_or(()),
    }
}

impl Server {
    /// Bind to `addr` (port 0 for an ephemeral port) and serve `state` with
    /// the default sizing ([`ServeOptions::default`]).
    pub fn spawn(addr: &str, state: Arc<PlatformState>) -> io::Result<Server> {
        Self::spawn_with(addr, state, ServeOptions::default())
    }

    /// Bind and serve with explicit reactor/pool sizing.
    pub fn spawn_with(
        addr: &str,
        state: Arc<PlatformState>,
        opts: ServeOptions,
    ) -> io::Result<Server> {
        Self::spawn_with_cluster(addr, state, opts, None)
    }

    /// Bind and serve as a cluster node: the handler consults `cluster`
    /// for role-aware routing (write redirects, `/cluster`)
    /// and, on a primary, publishes to the replication hub after every
    /// successful mutation.
    pub fn spawn_with_cluster(
        addr: &str,
        state: Arc<PlatformState>,
        opts: ServeOptions,
        cluster: Option<Arc<ClusterCtx>>,
    ) -> io::Result<Server> {
        let net_metrics = Arc::new(NetMetrics::default());
        let metrics = Arc::new(ServingMetrics::new(Arc::clone(&net_metrics)));
        let handler = Arc::new(PlatformHandler {
            state,
            metrics: Arc::clone(&metrics),
            cluster,
        });
        let net = NetServer::bind(
            addr,
            handler,
            ServerConfig {
                listen_threads: opts.listen_threads,
                pool_workers: opts.solver_pool,
                queue_capacity: opts.queue_capacity,
                metrics: net_metrics,
            },
        )?;
        Ok(Server { net, metrics })
    }

    /// The bound address.
    pub fn addr(&self) -> SocketAddr {
        self.net.addr()
    }

    /// The serving counters (also surfaced on `GET /stats`).
    pub fn metrics(&self) -> Arc<ServingMetrics> {
        Arc::clone(&self.metrics)
    }

    /// Graceful shutdown: stop accepting, drain queued and in-flight
    /// requests (bounded), write the responses out, join every thread.
    pub fn shutdown(mut self) {
        self.net.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hta_datagen::amt::{generate, AmtConfig};
    use hta_net::client;
    use std::io::{BufReader, Write};
    use std::net::TcpStream;

    fn start() -> (Server, Arc<PlatformState>) {
        let w = generate(&AmtConfig {
            n_groups: 10,
            tasks_per_group: 5,
            vocab_size: 40,
            ..Default::default()
        });
        let state = Arc::new(PlatformState::new(w.space, w.tasks, 3, 11));
        let server = Server::spawn("127.0.0.1:0", Arc::clone(&state)).unwrap();
        (server, state)
    }

    fn roundtrip(
        stream: &mut TcpStream,
        reader: &mut BufReader<TcpStream>,
        method: &str,
        target: &str,
    ) -> (u16, String) {
        stream
            .write_all(&client::request_bytes(method, target, true))
            .unwrap();
        let resp = client::read_response(reader).unwrap();
        (resp.status, resp.body_text())
    }

    #[test]
    fn full_api_flow_over_one_keep_alive_connection() {
        let (server, _state) = start();
        let mut stream = TcpStream::connect(server.addr()).unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());

        let (status, body) = roundtrip(&mut stream, &mut reader, "GET", "/health");
        assert_eq!((status, body.as_str()), (200, "{\"status\":\"ok\"}"));

        let (status, body) = roundtrip(
            &mut stream,
            &mut reader,
            "POST",
            "/register?keywords=english;audio",
        );
        assert_eq!(status, 200);
        assert!(body.contains("\"worker_id\":0"));

        let (status, body) = roundtrip(&mut stream, &mut reader, "POST", "/assign?worker=0");
        assert_eq!(status, 200);
        assert!(body.contains("\"tasks\":["), "{body}");

        let (status, body) = roundtrip(&mut stream, &mut reader, "GET", "/stats");
        assert_eq!(status, 200);
        assert!(body.contains("\"serving\":{"), "{body}");
        assert!(body.contains("\"endpoints\":{"), "{body}");
        assert!(body.contains("\"latency_us\":{"), "{body}");

        let (status, _) = roundtrip(&mut stream, &mut reader, "GET", "/missing");
        assert_eq!(status, 404);

        let metrics = server.metrics();
        assert_eq!(metrics.endpoint_count("/health"), 1);
        assert_eq!(metrics.endpoint_count("/assign"), 1);
        // /health ran inline on the reactor; the other four went to the pool.
        assert_eq!(
            metrics
                .net
                .requests_inline
                .load(std::sync::atomic::Ordering::Relaxed),
            1
        );
        server.shutdown();
    }

    #[test]
    fn every_route_counts_under_its_own_name() {
        let (server, _state) = start();
        let mut stream = TcpStream::connect(server.addr()).unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let snap = std::env::temp_dir().join(format!("hta-route-counts-{}", std::process::id()));
        let routes = [
            ("GET", "/health".to_owned()),
            ("POST", "/register?keywords=english;audio".to_owned()),
            ("POST", "/assign?worker=0".to_owned()),
            ("POST", "/assign_batch?workers=0".to_owned()),
            ("POST", "/complete?worker=0&task=0".to_owned()),
            ("GET", "/tasks?id=0".to_owned()),
            ("GET", "/stats".to_owned()),
            ("POST", format!("/snapshot?path={}", snap.display())),
            ("GET", "/reputation?worker=0".to_owned()),
            ("GET", "/topk?worker=0".to_owned()),
            ("GET", "/candidates?worker=0".to_owned()),
            // A single-process node answers 404 here; the route still
            // counts under its own name.
            ("GET", "/cluster".to_owned()),
        ];
        assert_eq!(routes.len(), crate::metrics::ENDPOINTS.len() - 1);
        for (method, target) in &routes {
            roundtrip(&mut stream, &mut reader, method, target);
        }
        let metrics = server.metrics();
        for name in &crate::metrics::ENDPOINTS[..routes.len()] {
            assert_eq!(metrics.endpoint_count(&format!("/{name}")), 1, "/{name}");
        }
        assert_eq!(metrics.endpoint_count("/other"), 0);
        std::fs::remove_file(&snap).ok();
        server.shutdown();
    }

    #[test]
    fn batch_assign_endpoint_returns_per_worker_lists() {
        let (server, state) = start();
        let mut stream = TcpStream::connect(server.addr()).unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        for kw in ["english;audio", "english;survey"] {
            let (status, _) = roundtrip(
                &mut stream,
                &mut reader,
                "POST",
                &format!("/register?keywords={kw}"),
            );
            assert_eq!(status, 200);
        }
        let (status, body) = roundtrip(
            &mut stream,
            &mut reader,
            "POST",
            "/assign_batch?workers=0,1",
        );
        assert_eq!(status, 200, "{body}");
        assert!(body.contains("\"assignments\":["), "{body}");
        assert!(body.contains("\"worker\":0"), "{body}");
        assert!(body.contains("\"worker\":1"), "{body}");
        assert_eq!(state.stats().assigned_tasks, 6);

        // Error paths: malformed list, unknown worker, wrong method.
        let (status, _) = roundtrip(
            &mut stream,
            &mut reader,
            "POST",
            "/assign_batch?workers=0,x",
        );
        assert_eq!(status, 400);
        let (status, _) = roundtrip(&mut stream, &mut reader, "POST", "/assign_batch?workers=9");
        assert_eq!(status, 404);
        let (status, _) = roundtrip(&mut stream, &mut reader, "GET", "/assign_batch?workers=0");
        assert_eq!(status, 405);
        server.shutdown();
    }

    #[test]
    fn priority_param_maps_to_queue_tiers() {
        let raw = |target: &str| RawRequest {
            method: "POST".to_owned(),
            target: target.to_owned(),
            keep_alive: true,
        };
        assert_eq!(request_priority(&raw("/assign?worker=0")), Ok(1));
        assert_eq!(
            request_priority(&raw("/assign?worker=0&priority=low")),
            Ok(hta_life::TaskPriority::Low.rank())
        );
        assert_eq!(request_priority(&raw("/assign?priority=normal")), Ok(1));
        assert_eq!(
            request_priority(&raw("/assign?priority=high&worker=0")),
            Ok(hta_life::TaskPriority::High.rank())
        );
        assert_eq!(
            request_priority(&raw("/assign?priority=critical")),
            Ok(hta_life::TaskPriority::Critical.rank())
        );
        // Present-but-unknown values are a client error, not a tier.
        assert_eq!(request_priority(&raw("/assign?priority=bogus")), Err(()));
        assert_eq!(request_priority(&raw("/assign?priority=")), Err(()));
    }

    #[test]
    fn prioritized_requests_round_trip() {
        let (server, _state) = start();
        let mut stream = TcpStream::connect(server.addr()).unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let (status, _) = roundtrip(
            &mut stream,
            &mut reader,
            "POST",
            "/register?keywords=english;audio&priority=critical",
        );
        assert_eq!(status, 200);
        let (status, body) = roundtrip(
            &mut stream,
            &mut reader,
            "POST",
            "/assign?worker=0&priority=low",
        );
        assert_eq!(status, 200);
        assert!(body.contains("\"tasks\":["), "{body}");
        // A malformed priority is rejected up front with 400 — it never
        // reaches the queue, and the connection stays usable.
        let (status, body) = roundtrip(
            &mut stream,
            &mut reader,
            "POST",
            "/assign?worker=0&priority=urgent!!",
        );
        assert_eq!(status, 400);
        assert!(body.contains("priority"), "{body}");
        let (status, _) = roundtrip(&mut stream, &mut reader, "POST", "/assign?worker=0");
        assert_eq!(status, 200);
        server.shutdown();
    }

    #[test]
    fn concurrent_keep_alive_clients_share_state() {
        let (server, state) = start();
        let addr = server.addr();
        let handles: Vec<_> = (0..4)
            .map(|i| {
                std::thread::spawn(move || {
                    let mut stream = TcpStream::connect(addr).unwrap();
                    let mut reader = BufReader::new(stream.try_clone().unwrap());
                    let (status, _) = roundtrip(
                        &mut stream,
                        &mut reader,
                        "POST",
                        &format!("/register?keywords=worker{i}"),
                    );
                    assert_eq!(status, 200);
                    // Second request on the same connection.
                    let (status, _) = roundtrip(&mut stream, &mut reader, "GET", "/stats");
                    assert_eq!(status, 200);
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(state.stats().workers, 4);
        server.shutdown();
    }
}

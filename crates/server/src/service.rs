//! HTTP routing: the platform API endpoints over [`PlatformState`].
//!
//! | endpoint | effect |
//! |---|---|
//! | `GET /health` | liveness probe (answered inline by the reactor) |
//! | `POST /register?keywords=a;b;c` | create a worker, returns its id |
//! | `POST /assign?worker=N` | solve HTA for the worker, returns task ids |
//! | `POST /assign_batch?workers=1,2,5` | one shared pool + one joint solve for the cohort |
//! | `POST /complete?worker=N&task=M[&ok=bool]` | record a completion (and its verification outcome), returns updated (α, β) |
//! | `GET /tasks?id=M` | a task's keywords |
//! | `GET /reputation?worker=N` | the worker's verification track record |
//! | `GET /stats` | aggregate counters incl. the active SIMD kernel mode (+ serving metrics when reactor-hosted) |
//! | `GET /topk?worker=N[&k=K]` | the worker's exact top-k relevance-ranked open tasks |
//! | `GET /candidates?worker=N` | the worker's candidate pool under the configured mode |
//! | `POST /snapshot?path=FILE` | atomically save the full serving state |
//! | `GET /cluster` | cluster-aware nodes only: role, epoch, peers/primary |
//!
//! On replicas the four mutating endpoints (`/register`,
//! `/assign`, `/assign_batch`, `/complete`) answer `307` + `Location`
//! pointing at the primary; `/snapshot` stays local so operators can dump
//! any node's serving state for byte-comparison.

use std::fmt::Write as _;
use std::path::Path;

use hta_index::CandidateMode;

use crate::cluster::{ClusterCtx, Role};
use crate::http::{json_string, url_encode, Request, Response};
use crate::metrics::ServingMetrics;
use crate::state::{PlatformState, StateError};

/// Dispatch one request against the state (no serving-layer counters —
/// direct library callers).
pub fn handle(state: &PlatformState, req: &Request) -> Response {
    handle_with_metrics(state, req, None)
}

/// Dispatch one request, splicing serving-layer counters into `GET /stats`
/// when the front-end provides them (the reactor server does).
pub fn handle_with_metrics(
    state: &PlatformState,
    req: &Request,
    serving: Option<&ServingMetrics>,
) -> Response {
    match (req.method.as_str(), req.path.as_str()) {
        ("GET", "/health") => Response::ok("{\"status\":\"ok\"}".to_owned()),
        ("POST", "/register") => register(state, req),
        ("POST", "/assign") => assign(state, req),
        ("POST", "/assign_batch") => assign_batch(state, req),
        ("POST", "/complete") => complete(state, req),
        ("GET", "/tasks") => task_info(state, req),
        ("GET", "/reputation") => reputation(state, req),
        ("GET", "/stats") => stats(state, serving),
        ("GET", "/topk") => topk(state, req),
        ("GET", "/candidates") => candidates(state, req),
        ("POST", "/snapshot") => snapshot(state, req),
        (_, "/register" | "/assign" | "/assign_batch" | "/complete" | "/snapshot") => {
            Response::error(405, "use POST for this endpoint")
        }
        (_, "/health" | "/tasks" | "/reputation" | "/stats" | "/topk" | "/candidates") => {
            Response::error(405, "use GET for this endpoint")
        }
        _ => Response::error(404, "unknown endpoint"),
    }
}

/// Dispatch one request on a cluster-aware node. `None` for `cluster`
/// behaves exactly like [`handle_with_metrics`] — single-process serving is
/// the zero-cluster special case. With a [`ClusterCtx`]:
///
/// * replicas redirect mutating endpoints to the primary (`307`),
/// * `GET /cluster` comes alive,
/// * a primary publishes its state to the replication hub after every
///   successful mutation, so replicas converge within one delta frame.
pub fn handle_cluster(
    state: &PlatformState,
    req: &Request,
    serving: Option<&ServingMetrics>,
    cluster: Option<&ClusterCtx>,
) -> Response {
    if let Some(ctx) = cluster {
        if let Some(resp) = cluster_route(req, ctx) {
            return resp;
        }
    }
    let resp = handle_with_metrics(state, req, serving);
    if let Some(ctx) = cluster {
        if ctx.role == Role::Primary
            && resp.status == 200
            && matches!(
                (req.method.as_str(), req.path.as_str()),
                (
                    "POST",
                    "/register" | "/assign" | "/assign_batch" | "/complete"
                )
            )
        {
            if let Some(hub) = &ctx.hub {
                // Identical bytes are deduplicated inside the hub, so a
                // mutation that ends up a no-op does not burn an epoch.
                hub.publish(state.snapshot_bytes());
            }
        }
    }
    resp
}

/// The cluster-only routes; `None` falls through to the normal table.
fn cluster_route(req: &Request, ctx: &ClusterCtx) -> Option<Response> {
    match (req.method.as_str(), req.path.as_str()) {
        ("GET", "/cluster") => Some(cluster_info(ctx)),
        ("POST", "/register" | "/assign" | "/assign_batch" | "/complete")
            if ctx.role != Role::Primary =>
        {
            let Some(primary) = ctx.primary_http.as_deref() else {
                return Some(Response::error(500, "replica has no primary address"));
            };
            Some(Response::redirect(redirect_url(primary, req)))
        }
        _ => None,
    }
}

/// Rebuild the request target against the primary. Query keys are emitted
/// in sorted order (the decoded map lost arrival order) and re-encoded, so
/// the redirected request parses to the same parameter map.
fn redirect_url(primary: &str, req: &Request) -> String {
    let mut keys: Vec<&String> = req.query.keys().collect();
    keys.sort();
    let mut url = format!("http://{primary}{}", req.path);
    for (i, key) in keys.iter().enumerate() {
        url.push(if i == 0 { '?' } else { '&' });
        url.push_str(&url_encode(key));
        url.push('=');
        url.push_str(&url_encode(&req.query[*key]));
    }
    url
}

fn cluster_info(ctx: &ClusterCtx) -> Response {
    let mut body = format!("{{\"role\":\"{}\",\"epoch\":{}", ctx.role, ctx.epoch());
    if let Some(hub) = &ctx.hub {
        let _ = write!(body, ",\"peers\":{}", hub.peer_count());
    }
    if let Some(primary) = &ctx.primary_http {
        let _ = write!(body, ",\"primary\":{}", json_string(primary));
    }
    body.push('}');
    Response::ok(body)
}

fn state_error(e: StateError) -> Response {
    let status = match e {
        StateError::UnknownWorker(_) => 404,
        StateError::NotAssigned { .. } => 409,
        StateError::NoKeywords => 400,
    };
    Response::error(status, &e.to_string())
}

fn register(state: &PlatformState, req: &Request) -> Response {
    let Some(raw) = req.param("keywords") else {
        return Response::error(400, "missing query parameter 'keywords'");
    };
    let keywords: Vec<&str> = raw.split(';').filter(|s| !s.is_empty()).collect();
    match state.register_worker(&keywords) {
        Ok(id) => Response::ok(format!("{{\"worker_id\":{id}}}")),
        Err(e) => state_error(e),
    }
}

fn assign(state: &PlatformState, req: &Request) -> Response {
    let worker = match req.require::<usize>("worker") {
        Ok(w) => w,
        Err(e) => return Response::error(400, &e),
    };
    match state.assign(worker) {
        Ok(r) => {
            let ids: Vec<String> = r.tasks.iter().map(usize::to_string).collect();
            Response::ok(format!(
                "{{\"tasks\":[{}],\"alpha\":{:.6},\"beta\":{:.6}}}",
                ids.join(","),
                r.alpha,
                r.beta
            ))
        }
        Err(e) => state_error(e),
    }
}

fn assign_batch(state: &PlatformState, req: &Request) -> Response {
    let Some(raw) = req.param("workers") else {
        return Response::error(400, "missing query parameter 'workers'");
    };
    let cohort: Result<Vec<usize>, _> = raw
        .split(',')
        .filter(|s| !s.is_empty())
        .map(str::parse)
        .collect();
    let Ok(cohort) = cohort else {
        return Response::error(400, "query parameter 'workers' is malformed");
    };
    // `mode=seq` runs the sequential reference semantics (one singleton
    // solve per worker under one lock hold); the default is the cohort
    // solve — one shared candidate pool, one joint edge-reusing solve.
    let result = match req.param("mode") {
        None | Some("cohort") => state.assign_batch(&cohort),
        Some("seq") => state.assign_batch_sequential(&cohort),
        Some(_) => return Response::error(400, "query parameter 'mode' must be cohort or seq"),
    };
    match result {
        Ok(rs) => {
            let mut body = String::from("{\"assignments\":[");
            for (i, (w, r)) in cohort.iter().zip(&rs).enumerate() {
                if i > 0 {
                    body.push(',');
                }
                let ids: Vec<String> = r.tasks.iter().map(usize::to_string).collect();
                let _ = write!(
                    body,
                    "{{\"worker\":{w},\"tasks\":[{}],\"alpha\":{:.6},\"beta\":{:.6}}}",
                    ids.join(","),
                    r.alpha,
                    r.beta
                );
            }
            body.push_str("]}");
            Response::ok(body)
        }
        Err(e) => state_error(e),
    }
}

fn complete(state: &PlatformState, req: &Request) -> Response {
    let worker = match req.require::<usize>("worker") {
        Ok(w) => w,
        Err(e) => return Response::error(400, &e),
    };
    let task = match req.require::<usize>("task") {
        Ok(t) => t,
        Err(e) => return Response::error(400, &e),
    };
    // `ok` is the verification outcome for the worker's reputation;
    // omitted means the completion passed. Reputation is observational, so
    // the rest of the response and the platform's future behavior are
    // identical either way.
    let pass = match req.param("ok") {
        None | Some("true") | Some("1") => true,
        Some("false") | Some("0") => false,
        Some(_) => return Response::error(400, "query parameter 'ok' must be a boolean"),
    };
    match state.complete_with_outcome(worker, task, pass) {
        Ok(r) => Response::ok(format!(
            "{{\"alpha\":{:.6},\"beta\":{:.6},\"remaining\":{}}}",
            r.alpha, r.beta, r.remaining
        )),
        Err(e) => state_error(e),
    }
}

fn reputation(state: &PlatformState, req: &Request) -> Response {
    let worker = match req.require::<usize>("worker") {
        Ok(w) => w,
        Err(e) => return Response::error(400, &e),
    };
    match state.reputation(worker) {
        Ok(rep) => Response::ok(format!(
            "{{\"worker\":{worker},\"score\":{:.6},\"pool_score\":{:.6},\"beta_scale\":{:.6},\"pass_rate\":{:.6},\"observations\":{},\"passes\":{}}}",
            rep.score(),
            rep.pool_score(),
            rep.beta_scale(),
            rep.pass_rate(),
            rep.observations(),
            rep.passes()
        )),
        Err(e) => state_error(e),
    }
}

fn task_info(state: &PlatformState, req: &Request) -> Response {
    let id = match req.require::<usize>("id") {
        Ok(t) => t,
        Err(e) => return Response::error(400, &e),
    };
    match state.task_keywords(id) {
        None => Response::error(404, "unknown task"),
        Some(kws) => {
            let mut body = String::from("{\"keywords\":[");
            for (i, k) in kws.iter().enumerate() {
                if i > 0 {
                    body.push(',');
                }
                let _ = write!(body, "{}", json_string(k));
            }
            body.push_str("]}");
            Response::ok(body)
        }
    }
}

/// The worker's exact top-k over open tasks. Scores travel as `f64` bit
/// patterns so a replica-served list can be compared bit-for-bit against
/// the primary's.
fn topk(state: &PlatformState, req: &Request) -> Response {
    let worker = match req.require::<usize>("worker") {
        Ok(w) => w,
        Err(e) => return Response::error(400, &e),
    };
    let k = match req.param("k") {
        None => CandidateMode::DEFAULT_K,
        Some(raw) => match raw.parse() {
            Ok(k) => k,
            Err(_) => return Response::error(400, "query parameter 'k' is malformed"),
        },
    };
    match state.worker_topk(worker, k) {
        Ok(list) => {
            let mut body = format!("{{\"worker\":{worker},\"tasks\":[");
            for (i, (task, score)) in list.iter().enumerate() {
                if i > 0 {
                    body.push(',');
                }
                let _ = write!(body, "[{task},{}]", score.to_bits());
            }
            body.push_str("]}");
            Response::ok(body)
        }
        Err(e) => state_error(e),
    }
}

/// The worker's candidate pool under the state's configured mode.
fn candidates(state: &PlatformState, req: &Request) -> Response {
    let worker = match req.require::<usize>("worker") {
        Ok(w) => w,
        Err(e) => return Response::error(400, &e),
    };
    match state.candidate_pool(worker) {
        Ok((pool, topk_hits)) => {
            let ids: Vec<String> = pool.iter().map(u32::to_string).collect();
            Response::ok(format!(
                "{{\"worker\":{worker},\"pool\":[{}],\"topk_hits\":{topk_hits}}}",
                ids.join(",")
            ))
        }
        Err(e) => state_error(e),
    }
}

fn snapshot(state: &PlatformState, req: &Request) -> Response {
    let Some(path) = req.param("path") else {
        return Response::error(400, "missing query parameter 'path'");
    };
    match state.save_snapshot(Path::new(path)) {
        Ok(bytes) => Response::ok(format!(
            "{{\"path\":{},\"bytes\":{bytes}}}",
            json_string(path)
        )),
        Err(e) => Response::error(500, &e.to_string()),
    }
}

fn stats(state: &PlatformState, serving: Option<&ServingMetrics>) -> Response {
    let s = state.stats();
    let shards = s
        .shard_sizes
        .iter()
        .map(|n| n.to_string())
        .collect::<Vec<_>>()
        .join(",");
    // The platform-state fields come first and keep their exact shape —
    // snapshot tests compare these bodies across save/restore, and a
    // `/stats` served without serving counters must stay byte-stable.
    let mut body = format!(
        "{{\"workers\":{},\"open_tasks\":{},\"assigned_tasks\":{},\"completed_tasks\":{},\"indexed_tasks\":{},\"shards\":[{}],\"simd\":\"{}\",\"edge_cache_cap\":{}",
        s.workers,
        s.open_tasks,
        s.assigned_tasks,
        s.completed_tasks,
        s.indexed_tasks,
        shards,
        hta_core::kernels::mode_name(),
        s.edge_cache_cap
    );
    if let Some(m) = serving {
        let _ = write!(body, ",\"serving\":{}", m.to_json());
    }
    body.push('}');
    Response::ok(body)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::http::parse_query;
    use hta_datagen::amt::{generate, AmtConfig};

    fn state() -> PlatformState {
        let w = generate(&AmtConfig {
            n_groups: 10,
            tasks_per_group: 6,
            vocab_size: 50,
            ..Default::default()
        });
        PlatformState::new(w.space, w.tasks, 4, 7)
    }

    fn req(method: &str, path: &str, query: &str) -> Request {
        Request {
            method: method.to_owned(),
            path: path.to_owned(),
            query: parse_query(query),
        }
    }

    #[test]
    fn full_api_flow() {
        let s = state();
        assert_eq!(handle(&s, &req("GET", "/health", "")).status, 200);

        let r = handle(&s, &req("POST", "/register", "keywords=english;survey"));
        assert_eq!(r.status, 200);
        assert!(r.body.contains("\"worker_id\":0"));

        let r = handle(&s, &req("POST", "/assign", "worker=0"));
        assert_eq!(r.status, 200);
        assert!(r.body.contains("\"tasks\":["));
        // Extract the first assigned task id from the JSON.
        let ids = r.body.split('[').nth(1).unwrap().split(']').next().unwrap();
        let first: usize = ids.split(',').next().unwrap().parse().unwrap();

        let r = handle(
            &s,
            &req("POST", "/complete", &format!("worker=0&task={first}")),
        );
        assert_eq!(r.status, 200);
        assert!(r.body.contains("\"remaining\":3"));

        let r = handle(&s, &req("GET", "/stats", ""));
        assert!(r.body.contains("\"completed_tasks\":1"));
        assert!(r.body.contains("\"shards\":["));

        let r = handle(&s, &req("GET", "/tasks", &format!("id={first}")));
        assert_eq!(r.status, 200);
        assert!(r.body.contains("\"keywords\":["));
    }

    #[test]
    fn assign_batch_routes_and_modes() {
        let s = state();
        for kw in ["keywords=english;survey", "keywords=english;audio"] {
            assert_eq!(handle(&s, &req("POST", "/register", kw)).status, 200);
        }
        let r = handle(&s, &req("POST", "/assign_batch", "workers=0,1"));
        assert_eq!(r.status, 200, "{}", r.body);
        assert!(r.body.contains("\"assignments\":["), "{}", r.body);
        assert!(r.body.contains("\"worker\":0"), "{}", r.body);

        let r = handle(&s, &req("POST", "/assign_batch", "workers=0&mode=seq"));
        assert_eq!(r.status, 200, "{}", r.body);

        assert_eq!(handle(&s, &req("POST", "/assign_batch", "")).status, 400);
        assert_eq!(
            handle(&s, &req("POST", "/assign_batch", "workers=a,b")).status,
            400
        );
        assert_eq!(
            handle(&s, &req("POST", "/assign_batch", "workers=0&mode=bogus")).status,
            400
        );
        assert_eq!(
            handle(&s, &req("POST", "/assign_batch", "workers=7")).status,
            404
        );
        assert_eq!(
            handle(&s, &req("GET", "/assign_batch", "workers=0")).status,
            405
        );
    }

    #[test]
    fn reputation_endpoint_tracks_outcomes() {
        let s = state();
        let _ = handle(&s, &req("POST", "/register", "keywords=english;survey"));
        let r = handle(&s, &req("GET", "/reputation", "worker=0"));
        assert_eq!(r.status, 200);
        assert!(r.body.contains("\"observations\":0"), "{}", r.body);
        assert!(r.body.contains("\"beta_scale\":1.000000"), "{}", r.body);

        let a = handle(&s, &req("POST", "/assign", "worker=0"));
        let ids = a.body.split('[').nth(1).unwrap().split(']').next().unwrap();
        let mut ids = ids.split(',').map(|t| t.parse::<usize>().unwrap());
        let t0 = ids.next().unwrap();
        let t1 = ids.next().unwrap();
        let fail = req("POST", "/complete", &format!("worker=0&task={t0}&ok=false"));
        assert_eq!(handle(&s, &fail).status, 200);
        let pass = req("POST", "/complete", &format!("worker=0&task={t1}"));
        assert_eq!(handle(&s, &pass).status, 200);
        let r = handle(&s, &req("GET", "/reputation", "worker=0"));
        assert!(r.body.contains("\"observations\":2"), "{}", r.body);
        assert!(r.body.contains("\"passes\":1"), "{}", r.body);

        assert_eq!(
            handle(&s, &req("GET", "/reputation", "worker=9")).status,
            404
        );
        assert_eq!(handle(&s, &req("GET", "/reputation", "")).status, 400);
        assert_eq!(
            handle(&s, &req("POST", "/reputation", "worker=0")).status,
            405
        );
        assert_eq!(
            handle(&s, &req("POST", "/complete", "worker=0&task=1&ok=maybe")).status,
            400
        );
    }

    #[test]
    fn stats_reports_the_active_simd_mode() {
        let s = state();
        let r = handle(&s, &req("GET", "/stats", ""));
        let expected = format!("\"simd\":\"{}\"", hta_core::kernels::mode_name());
        assert!(r.body.contains(&expected), "{}", r.body);
    }

    #[test]
    fn stats_reports_the_resolved_edge_cache_cap() {
        let s = state();
        let r = handle(&s, &req("GET", "/stats", ""));
        let expected = format!("\"edge_cache_cap\":{}", s.edge_cache_cap());
        assert!(r.body.contains(&expected), "{}", r.body);
        s.set_edge_cache_cap(123);
        let r = handle(&s, &req("GET", "/stats", ""));
        assert!(r.body.contains("\"edge_cache_cap\":123"), "{}", r.body);
    }

    #[test]
    fn stats_serving_fragment_only_when_metrics_supplied() {
        let s = state();
        let plain = handle(&s, &req("GET", "/stats", ""));
        assert!(!plain.body.contains("\"serving\""));
        let metrics = crate::metrics::ServingMetrics::new(std::sync::Arc::new(
            hta_net::NetMetrics::default(),
        ));
        let with = handle_with_metrics(&s, &req("GET", "/stats", ""), Some(&metrics));
        assert!(with.body.contains("\"serving\":{"), "{}", with.body);
        assert!(
            with.body.starts_with(plain.body.trim_end_matches('}')),
            "platform-state prefix is unchanged"
        );
    }

    #[test]
    fn snapshot_endpoint_saves_a_restorable_file() {
        let dir = std::env::temp_dir().join(format!("hta-svc-snap-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("state.htasnap");

        let s = state();
        let _ = handle(&s, &req("POST", "/register", "keywords=english;survey"));
        let _ = handle(&s, &req("POST", "/assign", "worker=0"));

        let r = handle(
            &s,
            &req("POST", "/snapshot", &format!("path={}", path.display())),
        );
        assert_eq!(r.status, 200, "{}", r.body);
        assert!(r.body.contains("\"bytes\":"));

        let restored = PlatformState::restore(&path).expect("restore");
        assert_eq!(
            handle(&restored, &req("GET", "/stats", "")).body,
            handle(&s, &req("GET", "/stats", "")).body,
            "restored /stats diverged"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn snapshot_endpoint_error_paths() {
        let s = state();
        assert_eq!(handle(&s, &req("POST", "/snapshot", "")).status, 400);
        assert_eq!(handle(&s, &req("GET", "/snapshot", "path=x")).status, 405);
        // Unwritable destination surfaces as a server-side error, and the
        // serving state is untouched.
        let r = handle(
            &s,
            &req("POST", "/snapshot", "path=/nonexistent-dir/state.htasnap"),
        );
        assert_eq!(r.status, 500);
        assert_eq!(handle(&s, &req("GET", "/stats", "")).status, 200);
    }

    #[test]
    fn error_statuses() {
        let s = state();
        assert_eq!(handle(&s, &req("GET", "/nope", "")).status, 404);
        assert_eq!(handle(&s, &req("GET", "/assign", "worker=0")).status, 405);
        assert_eq!(handle(&s, &req("POST", "/assign", "")).status, 400);
        assert_eq!(handle(&s, &req("POST", "/assign", "worker=9")).status, 404);
        assert_eq!(handle(&s, &req("POST", "/register", "")).status, 400);
        assert_eq!(
            handle(&s, &req("POST", "/register", "keywords=")).status,
            400
        );
        let _ = handle(&s, &req("POST", "/register", "keywords=a"));
        assert_eq!(
            handle(&s, &req("POST", "/complete", "worker=0&task=3")).status,
            409
        );
        assert_eq!(handle(&s, &req("GET", "/tasks", "id=99999")).status, 404);
        assert_eq!(handle(&s, &req("GET", "/tasks", "id=x")).status, 400);
    }
}

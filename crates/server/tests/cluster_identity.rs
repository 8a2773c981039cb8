//! Cluster identity: a primary with read replicas must
//! behave byte-identically to one single-process server fed the same
//! request stream — same response bodies, same final snapshot bytes — and
//! a follower that disappears mid-run must catch back up to byte-identical
//! state from its journal plus the primary's delta chain.

use std::io::{BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

use hta_cluster::{Follower, ReplicaState, ReplicationHub, DEFAULT_RETAIN};
use hta_datagen::amt::{generate, AmtConfig};
use hta_net::client;
use hta_server::cluster::{acquire_initial_state, spawn_follower, AppliedEpoch, ClusterCtx};
use hta_server::{PlatformState, ServeOptions, Server};

fn fresh_state(seed: u64) -> PlatformState {
    let w = generate(&AmtConfig {
        n_groups: 12,
        tasks_per_group: 6,
        vocab_size: 60,
        ..Default::default()
    });
    PlatformState::new(w.space, w.tasks, 4, seed)
}

/// One request over a fresh connection; returns (status, body, location).
fn call(addr: &str, method: &str, target: &str) -> (u16, String, Option<String>) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .write_all(&client::request_bytes(method, target, false))
        .expect("write");
    let mut reader = BufReader::new(stream);
    let resp = client::read_response(&mut reader).expect("response");
    let location = resp.header("location").map(str::to_owned);
    (resp.status, resp.body_text(), location)
}

/// Like [`call`] but follows one `307` hop (the replica → primary bounce).
fn call_following(addr: &str, method: &str, target: &str) -> (u16, String) {
    let (status, body, location) = call(addr, method, target);
    if status != 307 {
        return (status, body);
    }
    let url = location.expect("307 without a Location header");
    let rest = url.strip_prefix("http://").expect("absolute redirect");
    let (next_addr, path) = rest.split_once('/').expect("redirect path");
    let (status, body, _) = call(next_addr, method, &format!("/{path}"));
    (status, body)
}

/// Poll a node's `GET /cluster` until it reports `epoch` (or panic).
fn wait_for_epoch(addr: &str, epoch: u64) {
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let (status, body, _) = call(addr, "GET", "/cluster");
        assert_eq!(status, 200, "{body}");
        let at: u64 = body
            .split("\"epoch\":")
            .nth(1)
            .and_then(|s| s.split([',', '}']).next())
            .and_then(|s| s.parse().ok())
            .expect("epoch in /cluster body");
        if at >= epoch {
            return;
        }
        assert!(
            Instant::now() < deadline,
            "node {addr} stuck at epoch {at}, want {epoch}"
        );
        std::thread::sleep(Duration::from_millis(20));
    }
}

fn snapshot_via_http(addr: &str, tag: &str) -> Vec<u8> {
    let dir = std::env::temp_dir().join(format!("hta-cluster-id-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(format!("{tag}.htasnap"));
    let (status, body, _) = call(addr, "POST", &format!("/snapshot?path={}", path.display()));
    assert_eq!(status, 200, "{body}");
    std::fs::read(&path).expect("snapshot file")
}

/// A primary node plus the hub its followers attach to.
struct Primary {
    server: Server,
    state: Arc<PlatformState>,
    hub: Arc<ReplicationHub>,
    repl_addr: String,
}

fn spawn_primary(seed: u64) -> Primary {
    let state = Arc::new(fresh_state(seed));
    let hub = Arc::new(ReplicationHub::new(DEFAULT_RETAIN));
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let repl_addr = listener.local_addr().unwrap().to_string();
    hub.publish(state.snapshot_bytes());
    {
        let hub = Arc::clone(&hub);
        std::thread::spawn(move || hub.serve(listener));
    }
    let ctx = Arc::new(ClusterCtx::primary(Arc::clone(&hub)));
    let server = Server::spawn_with_cluster(
        "127.0.0.1:0",
        Arc::clone(&state),
        ServeOptions::default(),
        Some(ctx),
    )
    .unwrap();
    Primary {
        server,
        state,
        hub,
        repl_addr,
    }
}

/// Attach a read replica to a primary.
fn spawn_follower_node(primary: &Primary) -> Server {
    let mut rstate = ReplicaState::empty();
    let state = Arc::new(
        acquire_initial_state(&primary.repl_addr, &mut rstate, Duration::from_secs(10))
            .expect("initial state"),
    );
    let applied = Arc::new(AppliedEpoch::new());
    applied.set(rstate.epoch);
    spawn_follower(
        primary.repl_addr.clone(),
        rstate,
        Arc::clone(&state),
        Arc::clone(&applied),
    );
    let primary_http = primary.server.addr().to_string();
    let ctx = ClusterCtx::replica(primary_http, applied);
    Server::spawn_with_cluster(
        "127.0.0.1:0",
        state,
        ServeOptions::default(),
        Some(Arc::new(ctx)),
    )
    .unwrap()
}

/// The request script both deployments replay: registrations, singleton
/// and batch assignments, completions (some failed). Returns each step's
/// `(status, body)` so the two runs can be compared element-wise.
fn drive(mut post: impl FnMut(&str) -> (u16, String)) -> Vec<(u16, String)> {
    let mut out = Vec::new();
    for kw in [
        "english;survey",
        "english;audio",
        "spanish;survey",
        "english;video",
    ] {
        out.push(post(&format!("/register?keywords={kw}")));
    }
    for worker in 0..4 {
        out.push(post(&format!("/assign?worker={worker}")));
    }
    // Complete the first task of each assignment (worker 3's fails
    // verification) by parsing it out of the assign response.
    for worker in 0..4 {
        let body = &out[4 + worker].1;
        let first: usize = body
            .split('[')
            .nth(1)
            .unwrap()
            .split([',', ']'])
            .next()
            .unwrap()
            .parse()
            .unwrap();
        let ok = if worker == 3 { "&ok=false" } else { "" };
        out.push(post(&format!("/complete?worker={worker}&task={first}{ok}")));
    }
    out.push(post("/assign_batch?workers=0,2"));
    out.push(post("/assign?worker=1"));
    out
}

const SEED: u64 = 0x1D7;

#[test]
fn replicated_run_matches_single_process_byte_for_byte() {
    // Reference: one single-process server, no cluster machinery.
    let single_state = Arc::new(fresh_state(SEED));
    let single = Server::spawn("127.0.0.1:0", Arc::clone(&single_state)).unwrap();
    let single_addr = single.addr().to_string();
    let expected = drive(|target| {
        let (status, body, _) = call(&single_addr, "POST", target);
        (status, body)
    });

    // Cluster: primary + 2 replicas; writes go to a *replica* and follow
    // the 307 bounce, so the redirect path itself is under test.
    let primary = spawn_primary(SEED);
    let replicas = [spawn_follower_node(&primary), spawn_follower_node(&primary)];
    let replica_addrs: Vec<String> = replicas.iter().map(|r| r.addr().to_string()).collect();
    let mut step = 0usize;
    let got = drive(|target| {
        // Alternate entry replica per step.
        let entry = &replica_addrs[step % replica_addrs.len()];
        step += 1;
        call_following(entry, "POST", target)
    });
    assert_eq!(expected.len(), got.len());
    for (i, (want, have)) in expected.iter().zip(&got).enumerate() {
        assert_eq!(want, have, "step {i} diverged");
    }

    // A replica-issued write really was a redirect with a usable target.
    let (status, body, location) = call(&replica_addrs[0], "POST", "/assign?worker=0");
    assert_eq!(status, 307, "{body}");
    let loc = location.expect("Location header");
    assert!(
        loc.starts_with(&format!("http://{}/assign?", primary.server.addr())),
        "{loc}"
    );

    // Every node converges to the primary's epoch and to byte-identical
    // serving state — including the single-process reference.
    let head = primary.hub.epoch();
    for addr in &replica_addrs {
        wait_for_epoch(addr, head);
    }
    let single_bytes = snapshot_via_http(&single_addr, "single");
    let primary_bytes = snapshot_via_http(&primary.server.addr().to_string(), "primary");
    assert_eq!(single_bytes, primary_bytes, "primary diverged from single");
    for (i, addr) in replica_addrs.iter().enumerate() {
        let bytes = snapshot_via_http(addr, &format!("replica{i}"));
        assert_eq!(bytes, primary_bytes, "replica {i} diverged");
    }

    single.shutdown();
    for r in replicas {
        r.shutdown();
    }
    primary.server.shutdown();
}

#[test]
fn killed_follower_catches_up_from_journal_to_identical_bytes() {
    let primary = spawn_primary(SEED);
    let primary_addr = primary.server.addr().to_string();
    let dir = std::env::temp_dir().join(format!("hta-cluster-journal-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let journal = dir.join("replica.journal");

    // Phase 1: a journaled follower applies the current epoch, then dies
    // (connection dropped, process "killed").
    let (status, _, _) = call(&primary_addr, "POST", "/register?keywords=english;survey");
    assert_eq!(status, 200);
    {
        let mut rstate = ReplicaState::with_journal(&journal);
        let mut follower = Follower::connect(&primary.repl_addr, rstate.epoch).unwrap();
        let update = follower.next_update().unwrap();
        rstate.apply(update).unwrap();
        assert!(rstate.epoch > 0);
    } // drop = kill

    // Phase 2: the cluster keeps moving without it.
    for target in [
        "/register?keywords=english;audio",
        "/assign?worker=0",
        "/assign?worker=1",
    ] {
        let (status, body, _) = call(&primary_addr, "POST", target);
        assert_eq!(status, 200, "{body}");
    }

    // Phase 3: relaunch from the same journal; the handshake resumes from
    // the journaled epoch and the delta chain (or a full snapshot) brings
    // it to byte-identical state.
    let mut rstate = ReplicaState::with_journal(&journal);
    assert!(rstate.epoch > 0, "journal should resume a nonzero epoch");
    let caught_up = acquire_initial_state(&primary.repl_addr, &mut rstate, Duration::from_secs(10))
        .expect("rejoin");
    let deadline = Instant::now() + Duration::from_secs(10);
    let head = primary.hub.epoch();
    let mut follower = Follower::connect(&primary.repl_addr, rstate.epoch).unwrap();
    while rstate.epoch < head {
        assert!(Instant::now() < deadline, "stuck at epoch {}", rstate.epoch);
        let update = follower.next_update().unwrap();
        rstate.apply(update).unwrap();
    }
    let rejoined = if rstate.epoch > 0 && caught_up.snapshot_bytes() != rstate.bytes {
        PlatformState::from_snapshot_bytes(&rstate.bytes).expect("rejoined state")
    } else {
        caught_up
    };
    assert_eq!(
        rejoined.snapshot_bytes(),
        primary.state.snapshot_bytes(),
        "rejoined follower is not byte-identical"
    );
    primary.server.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

//! Integration tests for the `/stats` index accounting and the
//! snapshot/restore cycle, driven end-to-end through the HTTP service
//! layer (`handle`), exactly as a TCP client would exercise it.

use std::path::PathBuf;

use hta_datagen::amt::{generate, AmtConfig};
use hta_index::CandidateMode;
use hta_server::http::{parse_query, Request};
use hta_server::service::handle;
use hta_server::PlatformState;

fn state() -> PlatformState {
    let w = generate(&AmtConfig {
        n_groups: 8,
        tasks_per_group: 5,
        vocab_size: 60,
        ..Default::default()
    });
    PlatformState::with_options(w.space, w.tasks, 5, 42, CandidateMode::default(), 1)
}

fn req(method: &str, path: &str, query: &str) -> Request {
    Request {
        method: method.to_owned(),
        path: path.to_owned(),
        query: parse_query(query),
    }
}

/// Pull a JSON array field like `"tasks":[3,1,4]` out of a response body.
fn json_array(body: &str, key: &str) -> Vec<usize> {
    let tail = body
        .split(&format!("\"{key}\":["))
        .nth(1)
        .unwrap_or_else(|| panic!("no {key:?} in {body}"));
    let inner = tail.split(']').next().unwrap();
    if inner.is_empty() {
        return Vec::new();
    }
    inner.split(',').map(|n| n.parse().unwrap()).collect()
}

/// Pull a JSON number field like `"open_tasks":35` out of a body.
fn json_number(body: &str, key: &str) -> usize {
    body.split(&format!("\"{key}\":"))
        .nth(1)
        .unwrap_or_else(|| panic!("no {key:?} in {body}"))
        .split(|c: char| !c.is_ascii_digit())
        .next()
        .unwrap()
        .parse()
        .unwrap()
}

/// `/stats`' `(indexed_tasks, open_tasks)` pair.
fn index_counts(s: &PlatformState) -> (usize, usize) {
    let body = handle(s, &req("GET", "/stats", "")).body;
    (
        json_number(&body, "indexed_tasks"),
        json_number(&body, "open_tasks"),
    )
}

fn assigned_tasks(body: &str) -> Vec<usize> {
    json_array(body, "tasks")
}

/// Satellite: `indexed_tasks` stays an exact accounting of the open set
/// as tasks are incrementally removed (assignment) while the keyword
/// universe widens (registration of unseen keywords).
#[test]
fn stats_indexed_tasks_track_the_task_lifecycle() {
    let s = state();
    assert_eq!(index_counts(&s), (40, 40), "every catalog task starts open");

    // Registering a worker with brand-new keywords widens the keyword
    // universe; the new posting lists are empty, so nothing is indexed.
    let r = handle(
        &s,
        &req("POST", "/register", "keywords=english;never-seen-before"),
    );
    assert_eq!(r.status, 200);
    assert_eq!(index_counts(&s), (40, 40), "widening indexes no task");

    // Draining the pool: every assignment removes exactly the assigned
    // tasks from the index.
    let mut running = 40;
    loop {
        let body = handle(&s, &req("POST", "/assign", "worker=0")).body;
        let tasks = assigned_tasks(&body);
        if tasks.is_empty() {
            break;
        }
        running -= tasks.len();
        let after = index_counts(&s);
        assert_eq!(after, (running, running), "index accounting");

        // Completions touch the ledger, not the index.
        let done = handle(
            &s,
            &req("POST", "/complete", &format!("worker=0&task={}", tasks[0])),
        );
        assert_eq!(done.status, 200);
        assert_eq!(index_counts(&s), after, "complete leaves the index alone");
    }
    assert_eq!(index_counts(&s), (0, 0), "drained pool, empty index");
}

fn scratch_file(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("hta-server-it-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(name)
}

/// Satellite: `POST /snapshot` then restore reproduces `/stats` verbatim —
/// `indexed_tasks` included — and the restored server's future request
/// stream is identical to the original's.
#[test]
fn restore_then_stats_round_trip() {
    let s = state();
    for kws in ["english;survey", "audio;transcription"] {
        let r = handle(&s, &req("POST", "/register", &format!("keywords={kws}")));
        assert_eq!(r.status, 200);
    }
    for worker in [0usize, 1] {
        let body = handle(&s, &req("POST", "/assign", &format!("worker={worker}"))).body;
        let first = assigned_tasks(&body)[0];
        let done = handle(
            &s,
            &req(
                "POST",
                "/complete",
                &format!("worker={worker}&task={first}"),
            ),
        );
        assert_eq!(done.status, 200);
    }

    let path = scratch_file("roundtrip.htasnap");
    let saved = handle(
        &s,
        &req("POST", "/snapshot", &format!("path={}", path.display())),
    );
    assert_eq!(saved.status, 200, "{}", saved.body);

    let restored = PlatformState::restore(&path).expect("restore");
    let stats_orig = handle(&s, &req("GET", "/stats", "")).body;
    let stats_back = handle(&restored, &req("GET", "/stats", "")).body;
    assert_eq!(stats_back, stats_orig, "restored /stats diverged");
    assert_eq!(index_counts(&restored), index_counts(&s));

    // Both servers now serve the same futures: same assignment (estimator,
    // index order, and RNG stream all survived), same follow-up stats.
    for worker in [1usize, 0] {
        let a = handle(&s, &req("POST", "/assign", &format!("worker={worker}"))).body;
        let b = handle(
            &restored,
            &req("POST", "/assign", &format!("worker={worker}")),
        )
        .body;
        assert_eq!(a, b, "worker {worker} assignment diverged after restore");
    }
    assert_eq!(
        handle(&restored, &req("GET", "/stats", "")).body,
        handle(&s, &req("GET", "/stats", "")).body
    );
    std::fs::remove_file(&path).ok();
}

/// A corrupted snapshot file is rejected by `--restore`'s loading path with
/// a checksum error; it never yields a half-restored server.
#[test]
fn corrupted_snapshot_file_is_rejected() {
    let s = state();
    let _ = handle(&s, &req("POST", "/register", "keywords=english"));
    let _ = handle(&s, &req("POST", "/assign", "worker=0"));
    let path = scratch_file("corrupt.htasnap");
    assert_eq!(
        handle(
            &s,
            &req("POST", "/snapshot", &format!("path={}", path.display()))
        )
        .status,
        200
    );

    let mut bytes = std::fs::read(&path).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x40;
    std::fs::write(&path, &bytes).unwrap();
    let msg = match PlatformState::restore(&path) {
        Ok(_) => panic!("corrupt file accepted"),
        Err(e) => e.to_string(),
    };
    assert!(
        msg.contains("checksum") || msg.contains("corrupt") || msg.contains("truncated"),
        "unhelpful error: {msg}"
    );
    std::fs::remove_file(&path).ok();
}

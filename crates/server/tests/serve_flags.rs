//! `hta-serve` argument handling: a mistyped or retired flag, or a stray
//! positional, must stop the process with status 2 and a message naming
//! it — never be read as the bind address or the task CSV.

use std::process::Command;

/// Run `hta-serve` with `args`; returns (exit code, stdout, stderr).
fn serve(args: &[&str]) -> (Option<i32>, String, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_hta-serve"))
        .args(args)
        .output()
        .expect("run hta-serve");
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

fn assert_rejected(args: &[&str], named: &str) {
    let (code, stdout, stderr) = serve(args);
    assert_eq!(
        code,
        Some(2),
        "{args:?}: stdout {stdout:?} stderr {stderr:?}"
    );
    assert!(stderr.contains(named), "{args:?}: stderr {stderr:?}");
    assert!(!stdout.contains("listening"), "{args:?} bound: {stdout:?}");
}

#[test]
fn a_mistyped_flag_exits_2_before_binding() {
    assert_rejected(
        &[
            "127.0.0.1:0",
            "tasks.csv",
            "--snapshot-on-exti",
            "final.htasnap",
        ],
        "--snapshot-on-exti",
    );
}

#[test]
fn a_third_positional_exits_2() {
    assert_rejected(&["127.0.0.1:0", "tasks.csv", "extra"], "extra");
}

#[test]
fn retired_shard_worker_flags_are_rejected() {
    for (args, named) in [
        (
            &["127.0.0.1:0", "--shard-workers", "127.0.0.1:1"][..],
            "--shard-workers",
        ),
        (&["127.0.0.1:0", "--shard-index", "0"][..], "--shard-index"),
        (&["127.0.0.1:0", "--shard-count", "2"][..], "--shard-count"),
        (
            &["127.0.0.1:0", "--role", "shard-worker"][..],
            "shard-worker",
        ),
    ] {
        assert_rejected(args, named);
    }
}

//! Seconds-long runs of every workload at small size: each run passes its
//! correctness checks and prints every metric `BENCHMARK.json` lists for
//! its mode, with the listed unit. (`peak_rss_mb` is added by `run.py`.)

use std::process::Command;

/// `(name, unit)` pairs of one metric list in `BENCHMARK.json`.
fn listed(kind: &str) -> Vec<(String, String)> {
    let text = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json at the repository root");
    let start = text.find(&format!("\"{kind}\"")).expect("metric list");
    let list = &text[start..];
    let list = &list[..list.find(']').expect("list end")];
    list.split("\"name\": \"")
        .skip(1)
        .map(|entry| {
            let name = entry[..entry.find('"').unwrap()].to_owned();
            let unit = entry.split("\"unit\": \"").nth(1).unwrap();
            (name, unit[..unit.find('"').unwrap()].to_owned())
        })
        .collect()
}

fn run(workload: &str, trace: u8) {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args([
            "--workload",
            workload,
            "--seed",
            "5",
            "--seconds",
            "4",
            "--scale",
            "small",
        ])
        .args(["--trace", &trace.to_string()])
        .current_dir(env!("CARGO_TARGET_TMPDIR"))
        .output()
        .expect("run the benchmark binary");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "{workload}: {stdout}");
    assert!(!stdout.contains("check FAILED"), "{workload}: {stdout}");
    let last = stdout.lines().last().expect("a result line");
    assert!(last.starts_with("{\"correct\":true,"), "{workload}: {last}");
    assert!(last.contains("\"failed\":0,"), "{workload}: {last}");
    let kind = if trace == 1 {
        "per_layer"
    } else {
        "end_to_end"
    };
    for (name, unit) in listed(kind) {
        if name == "peak_rss_mb" {
            continue;
        }
        let field = format!("\"{name}\":{{\"value\":");
        let at = last
            .find(&field)
            .unwrap_or_else(|| panic!("{workload}: {name} missing in {last}"));
        let rest = &last[at + field.len()..];
        let object = &rest[..rest.find('}').expect("object end")];
        assert!(
            object.ends_with(&format!(",\"unit\":\"{unit}\"")),
            "{workload}: {name} is not in {unit}: {object}"
        );
    }
}

#[test]
fn serve_mixed_small() {
    run("serve-mixed", 0);
    run("serve-mixed", 1);
}

#[test]
fn sim_dense_small() {
    run("sim-dense", 0);
    run("sim-dense", 1);
}

#[test]
fn sim_sparse_small() {
    run("sim-sparse", 0);
    run("sim-sparse", 1);
}

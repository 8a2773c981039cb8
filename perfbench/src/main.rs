//! The HTA platform benchmark. One run measures one workload:
//!
//! ```text
//! perfbench --workload serve-mixed|sim-dense|sim-sparse --seed N
//!           --seconds S --trace 0|1 [--scale full|small] [--calibrate]
//! ```
//!
//! It prints a `machine` line, its correctness checks, human-readable
//! notes, and as its last line one JSON object with the end-to-end metrics
//! (`--trace 0`) or the per-layer metrics (`--trace 1`). `run.py` builds
//! this binary, runs it, and adds the process's peak memory.

mod probe;
mod report;
mod serve;
mod sim;
mod stats;
mod trace;

use report::{Report, END_TO_END, PER_LAYER};

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    small: bool,
    calibrate: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        small: false,
        calibrate: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--calibrate" {
            args.calibrate = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => args.seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => args.trace = value == "1",
            "--scale" => args.small = value == "small",
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !args.seconds.is_finite() || args.seconds <= 0.0 {
        return Err("--seconds must be positive".to_owned());
    }
    Ok(args)
}

/// The settings results depend on, printed with every result.
fn machine_line() -> String {
    format!(
        "machine {{\"nproc\":{},\"simd\":\"{}\",\"solver_threads\":{},\"index_shards\":{},\"edge_cache_cap\":{}}}",
        std::thread::available_parallelism().map_or(1, |n| n.get()),
        hta_core::kernels::mode_name(),
        hta_par::solver_threads(0),
        hta_index::default_shards(),
        hta_core::edges::edge_cache_cap(0),
    )
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    println!("{}", machine_line());
    let trace_path = format!(".bench_trace/{}-seed{}.jsonl", args.workload, args.seed);
    let (seed, seconds, trace, small) = (args.seed, args.seconds, args.trace, args.small);
    let sim = |full, small_spec| {
        let spec = if small { small_spec } else { full };
        sim::run(spec, seed, seconds, trace, &trace_path)
    };
    let mut report: Report = match args.workload.as_str() {
        "serve-mixed" if args.calibrate => {
            serve::calibrate(serve::ServeSpec::pick(small), seed, seconds);
            return;
        }
        "serve-mixed" => serve::run(
            serve::ServeSpec::pick(small),
            seed,
            seconds,
            trace,
            &trace_path,
        ),
        "sim-dense" => sim(sim::SimSpec::DENSE, sim::SimSpec::DENSE_SMALL),
        "sim-sparse" => sim(sim::SimSpec::SPARSE, sim::SimSpec::SPARSE_SMALL),
        other => {
            eprintln!("perfbench: unknown workload {other:?}");
            std::process::exit(2);
        }
    };
    let table = if args.trace { PER_LAYER } else { END_TO_END };
    let non_finite: Vec<&str> = table
        .iter()
        .filter(|(name, _)| report.metrics.get(name).is_some_and(|v| !v.is_finite()))
        .map(|(name, _)| *name)
        .collect();
    report.check(
        non_finite.is_empty(),
        format!("every metric is finite {non_finite:?}"),
    );
    report.print(table, args.trace);
}

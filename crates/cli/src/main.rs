//! `hta` — command-line interface to the HTA motivation-aware task
//! assignment library (Pilourdault et al., ICDE 2018).
//!
//! ```text
//! hta generate --tasks 1000 --groups 100 --out tasks.csv
//! hta workers  --count 50 --out workers.csv --tasks tasks.csv
//! hta solve    --tasks tasks.csv --workers workers.csv --xmax 10 --algorithm gre
//! hta simulate --sessions 8 --catalog 2000
//! hta example
//! ```

mod args;
mod commands;

use args::Args;

const USAGE: &str = "\
hta — motivation-aware task assignment (ICDE 2018 reproduction)

USAGE:
  hta <command> [--flag value]...

COMMANDS:
  generate   Generate an AMT-like task corpus CSV
             --tasks N (1000)  --groups G (100)  --vocab V (500)
             --seed S (0)      --out FILE (required)
  workers    Generate a synthetic worker CSV over a task corpus' keywords
             --count N (50)    --keywords K (5)  --tasks FILE (required)
             --seed S (0)      --out FILE (required)
  solve      Solve one HTA iteration over task + worker CSVs
             --tasks FILE      --workers FILE    --xmax X (10)
             --algorithm app|app-hungarian|gre|greedy|random (gre)
             --candidates full|topk:K (full)  — topk solves over an
               inverted-index candidate pool instead of every task
             --solver-threads N (0 = auto: HTA_SOLVER_THREADS, then
               hardware)  — pipeline threads; output is byte-identical
               at any value
             --seed S (0)      --out FILE (optional assignment CSV)
  analyze    Structural analysis of a task+worker instance (degeneracy,
             diversity/relevance distributions, solver recommendation)
             --tasks FILE      --workers FILE    --xmax X (10)
  simulate   Run the online crowdsourcing simulation (Figure 5 style)
             --sessions N (8)  --catalog M (2000)  --seed S (0x5E59)
             --candidates full|topk:K (full)
             --solver-threads N (0 = auto)
             --warm-start on|off (off)  — repair the previous cohort's
               matching instead of rebuilding it; metrics are
               byte-identical either way (it survives checkpoint/resume)
             --checkpoint-every N  --checkpoint-dir DIR  — write a
               versioned, checksummed snapshot every N cohorts
             --checkpoint-keep K (5)  — prune to the K newest snapshots
             --halt-after N  — stop cleanly after N cohorts (a
               deterministic stand-in for killing the process)
  resume     Continue an interrupted simulate run from a snapshot file,
             or from the newest checkpoint in a directory; results are
             byte-identical to the uninterrupted run
             hta resume <snapshot-or-dir> [--checkpoint-every N
               --checkpoint-dir DIR --checkpoint-keep K --halt-after N]
  cluster    Launch a local replicated serving cluster (DESIGN.md §14):
             one primary plus read replicas, spawned as hta-serve child
             processes and supervised until any node exits (Ctrl-C stops
             them all gracefully)
             --replicas N (2)
             --host H (127.0.0.1)  --base-port P (8080)  — primary on P,
               replicas on P+1..
             --repl-port R (7171)  — the primary's replication stream
             --tasks FILE  — task CSV served by the primary (optional)
             --journal-dir DIR  — per-follower delta journals, so a
               relaunched follower catches up from disk
             --server-bin PATH  — hta-serve binary (default: next to hta)
  example    Print the paper's worked example (Table I / Figure 1)
  help       Show this message
";

fn main() {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n\n{USAGE}");
            std::process::exit(2);
        }
    };
    let result = match args.command.as_deref() {
        Some("generate") => commands::generate(&args),
        Some("workers") => commands::workers(&args),
        Some("solve") => commands::solve(&args),
        Some("analyze") => commands::analyze(&args),
        Some("simulate") => commands::simulate(&args),
        Some("resume") => commands::resume(&args),
        Some("cluster") => commands::cluster(&args),
        Some("example") => commands::example(&args),
        Some("help") | None => {
            println!("{USAGE}");
            Ok(())
        }
        Some(other) => {
            eprintln!("error: unknown command '{other}'\n\n{USAGE}");
            std::process::exit(2);
        }
    };
    if let Err(e) = result {
        eprintln!("error: {e}");
        std::process::exit(1);
    }
}

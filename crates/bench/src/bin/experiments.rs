//! Regenerates every experiment in DESIGN.md §2 (the paper's figures and
//! checkable claims).
//!
//! Usage:
//!
//! ```text
//! cargo run -p csn-bench --release --bin experiments                 # all, serial
//! cargo run -p csn-bench --release --bin experiments -- --exp e8    # one experiment
//! cargo run -p csn-bench --release --bin experiments -- \
//!     --jobs 8 --json experiments_output/                           # parallel + JSON
//! ```
//!
//! Flags:
//!
//! * `--exp <id>` — run only the experiment with this id (one of the ids
//!   registered in `csn_bench::experiments::EXPERIMENTS`, `e1` onward)
//! * `--jobs <n>` — worker threads for the work-stealing pool; defaults to
//!   the detected hardware thread count
//! * `--json <dir>` — write `<dir>/<id>.json` per experiment plus
//!   `<dir>/experiments_summary.json` for the run
//!
//! Rendered text is byte-identical between serial and parallel runs;
//! timing lines go to stderr and to the JSON summary only. A usage error
//! (unknown flag, missing or unparsable value, unknown id) exits with
//! status 2.

use csn_bench::cli::{usage_error, Flags};
use csn_bench::experiments::{run_reports, RunOptions, EXPERIMENTS};

fn main() {
    let flags = Flags::from_env(&[], &["--exp", "--jobs", "--json"]);
    let filter = flags.value("--exp").unwrap_or_default().to_string();
    let jobs: usize = flags.get("--jobs", csn_bench::pool::available_parallelism());
    if jobs == 0 {
        usage_error("--jobs expects a positive integer");
    }
    let json_dir = flags.value("--json");

    let outcome = run_reports(&RunOptions { filter: filter.clone(), jobs });
    if outcome.reports.is_empty() {
        let (first, last) = (EXPERIMENTS[0].id, EXPERIMENTS[EXPERIMENTS.len() - 1].id);
        usage_error(format!("no experiment matches --exp {filter:?} (expected {first}…{last})"));
    }

    for report in &outcome.reports {
        print!("{}", report.render());
        eprintln!("  [{} took {:.1}s]", report.id, report.wall_time_secs);
    }
    let s = &outcome.summary;
    eprintln!(
        "\n{} experiments in {:.1}s wall ({:.1}s cpu) on {} worker(s), {} steal(s)",
        s.experiments, s.total_wall_secs, s.cpu_secs, s.workers_used, s.pool_steals
    );

    if let Some(dir) = json_dir {
        let dir = std::path::Path::new(&dir);
        if let Err(e) = std::fs::create_dir_all(dir) {
            eprintln!("error: cannot create {}: {e}", dir.display());
            std::process::exit(1);
        }
        for report in &outcome.reports {
            let path = dir.join(format!("{}.json", report.id));
            if let Err(e) = std::fs::write(&path, report.to_json()) {
                eprintln!("error: cannot write {}: {e}", path.display());
                std::process::exit(1);
            }
        }
        let path = dir.join("experiments_summary.json");
        if let Err(e) = std::fs::write(&path, serde::json::to_string_pretty(&outcome.summary)) {
            eprintln!("error: cannot write {}: {e}", path.display());
            std::process::exit(1);
        }
        eprintln!("wrote {} report(s) + summary to {}", outcome.reports.len(), dir.display());
    }
}

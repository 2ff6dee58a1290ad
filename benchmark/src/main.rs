//! `structura-bench`: see `benchmark/README.md`; normally started through
//! `benchmark/run.sh`, which builds it first.

use std::process::exit;
use structura_bench::cli::{parse, Options, USAGE};
use structura_bench::orchestrate::run_all;
use structura_bench::trace::Tracer;
use structura_bench::workloads::{self, Config, WORKLOADS};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("structura-bench: {e}\n{USAGE}");
            exit(2);
        }
    };
    exit(match &opts.workload {
        Some(w) => run_one(w, &opts),
        None => run_all(&opts),
    });
}

/// Runs one workload in this process: metric lines, then the result line
/// last. Exit code 1 when an output check failed.
fn run_one(name: &str, opts: &Options) -> i32 {
    let cfg = Config { seed: opts.seed, seconds: opts.seconds, smoke: opts.smoke };
    let mut tr = Tracer::new(opts.trace);
    let Some(out) = workloads::run(name, &cfg, &mut tr) else {
        eprintln!("structura-bench: unknown workload {name}; one of {WORKLOADS:?}");
        return 2;
    };
    if opts.trace {
        let path = opts.trace_dir.join(format!("{name}-seed{}.spans.jsonl", opts.seed));
        if let Err(e) = tr.write_jsonl(&path) {
            eprintln!("structura-bench: cannot write {}: {e}", path.display());
            return 1;
        }
        eprintln!("structura-bench: {} spans written to {}", tr.spans().len(), path.display());
    }
    for line in out.lines() {
        println!("{line}");
    }
    println!("{}", out.result_line(opts.trace));
    i32::from(out.failed > 0)
}

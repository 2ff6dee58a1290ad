//! # csn-bench — experiment and benchmark harness
//!
//! The paper is a position paper: its "evaluation" is the set of worked
//! figures and checkable claims. The [`experiments`] module regenerates
//! each of them (experiment ids `e1`–`e28`, indexed in DESIGN.md) through
//! a registry of report-producing experiment functions.
//!
//! Architecture:
//!
//! * [`report`] — the structured sink ([`report::Report`]) experiments
//!   write into, the finished [`report::ExperimentReport`] (renders the
//!   classic text *and* serializes to JSON), and the run-level
//!   [`report::RunSummary`].
//! * [`pool`] — re-export of [`csn_parallel`], the workspace's hand-rolled
//!   work-stealing thread pool on `std::thread::scope` (shared with the
//!   parallel algorithm kernels in `csn-graph`; the workspace takes no
//!   scheduler dependency).
//! * [`experiments`] — the 28 experiment bodies plus the
//!   [`experiments::EXPERIMENTS`] registry and runner.
//! * [`cli`] — the strict flag parser of the `experiments`, `perf_smoke`
//!   and `structurad` binaries: a usage error exits with status 2.
//! * [`rows`] — the one row schema of every `BENCH_*.json` artifact
//!   `perf_smoke` writes: rows keyed by tier, stage and parameters, with
//!   exact integer counters that `scripts/check.sh` compares with the
//!   committed files.
//! * [`kernels_bench`], [`distsim_bench`], [`scenario_bench`] — the inputs
//!   `perf_smoke` shares with the tier-1 tests in `tests/gates.rs`: the
//!   counted-touch maintain sweep, the bench protocols, the city trace, the
//!   DTN query set and TOUR forwarding from trace-estimated rates. See
//!   DISTSIM.md and SCENARIOS.md.
//!
//! The binaries: `experiments` (every experiment; one with `--exp e8`; in
//! parallel with machine-readable reports via `--jobs 8 --json
//! experiments_output/` — per-experiment text is byte-identical between
//! serial and parallel runs), `perf_smoke` (the `BENCH_*.json` rows no
//! benchmark workload covers) and `structurad` (the query-serving CLI).

pub mod cli;
pub mod distsim_bench;
pub mod experiments;
pub mod kernels_bench;
pub mod report;
pub mod rows;
pub mod scenario_bench;

pub use csn_parallel as pool;

/// Runs `f` and returns its output with its wall time in seconds.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t0 = std::time::Instant::now();
    let out = f();
    (out, t0.elapsed().as_secs_f64())
}

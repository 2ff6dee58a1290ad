//! The five workloads and what they share: seeding, repeated set-up, the
//! closed-loop measuring budget and process memory.
//!
//! Each workload builds its inputs from `--seed`, sets its system up
//! several times (reporting the median, so work moved into set-up shows),
//! then measures its headline operation for `--seconds`, then checks
//! outputs outside the timed region. The load is closed loop from
//! this one process: the next request, step or round starts when the last
//! finished, on at most [`JOBS`] worker threads. End-to-end timings are
//! scaled to the reference speed ([`crate::speed`]); per-layer timings are
//! raw.

mod distsim;
mod serve;
mod track;

use crate::report::Outcome;
use crate::speed::Speed;
use crate::stats::{median, Latency};
use crate::trace::Tracer;
use std::time::Instant;

/// Every workload, in run order.
pub const WORKLOADS: &[&str] =
    &["serve-mixed", "serve-lookup", "track-city", "track-sparse", "distsim-churn"];

/// Worker threads for the batched serving path and the distsim stepper.
pub const JOBS: usize = 2;

/// Set-ups per run: at least 3, and more (up to 20) until a second of
/// set-up time has accumulated, so that a short set-up's median rests on
/// as much time as a long one's.
const SETUP_REPS: std::ops::RangeInclusive<usize> = 3..=20;
const SETUP_SECONDS: f64 = 1.0;

/// Latency samples a full-size run collects before it stops, so that p99
/// has at least ten samples beyond it.
pub const MIN_SAMPLES: usize = 1000;

/// One run's settings.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Config {
    /// Input seed.
    pub seed: u64,
    /// Length of the measured phase.
    pub seconds: f64,
    /// Tiny inputs, no sample floor (tests and `check.sh`).
    pub smoke: bool,
}

/// Runs workload `name`, or returns `None` for an unknown name.
pub fn run(name: &str, cfg: &Config, tr: &mut Tracer) -> Option<Outcome> {
    let sp = &mut Speed::new();
    let mut out = match name {
        "serve-mixed" => serve::mixed(cfg, tr, sp),
        "serve-lookup" => serve::lookup(cfg, tr, sp),
        "track-city" => track::city(cfg, tr, sp),
        "track-sparse" => track::sparse(cfg, tr, sp),
        "distsim-churn" => distsim::churn(cfg, tr, sp),
        _ => return None,
    };
    let factors: Vec<f64> =
        sp.calibrations().iter().map(|c| crate::speed::REFERENCE_S / c).collect();
    out.put("speed.factor", median(&factors), "x");
    out.put("speed.calibrations", factors.len() as f64, "runs");
    out.put("peak_rss_mb", peak_rss_mb(), "MB");
    out.put("failed_frac", out.failed_frac(), "frac");
    if tr.enabled() {
        out.put("trace.spans", tr.spans().len() as f64, "spans");
    }
    Some(out)
}

/// An independent input seed for generator `salt` (SplitMix64 finaliser).
fn derive(seed: u64, salt: u64) -> u64 {
    let mut z = seed.wrapping_add(salt.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Builds the system repeatedly (see [`SETUP_REPS`]) with `build`,
/// which returns the system with the seconds it spent generating input and
/// constructing. Keeps the last system (dropping each earlier one first)
/// and records `setup_s` (scaled) and the raw `setup.gen_s` and
/// `setup.build_s` as medians.
fn set_up<T>(out: &mut Outcome, sp: &mut Speed, mut build: impl FnMut() -> (T, f64, f64)) -> T {
    let (mut gen, mut con, mut total, mut raw) = (Vec::new(), Vec::new(), Vec::new(), 0.0);
    let mut last = None;
    while total.len() < *SETUP_REPS.start()
        || (raw < SETUP_SECONDS && total.len() < *SETUP_REPS.end())
    {
        drop(last.take());
        let ((sys, g, c), secs, scaled) = sp.time(&mut build);
        gen.push(g);
        con.push(c);
        total.push(scaled);
        raw += secs;
        last = Some(sys);
    }
    out.put("setup_s", median(&total), "s");
    out.put("setup.gen_s", median(&gen), "s");
    out.put("setup.build_s", median(&con), "s");
    out.put("setup.reps", total.len() as f64, "reps");
    last.expect("at least one set-up")
}

/// The measured phase's stopping rule: at least one pass, then keep going
/// until `seconds` have elapsed and (full size) [`MIN_SAMPLES`] latencies
/// exist, but never past a safety cap of `3 · seconds + 30` s.
struct Budget {
    start: Instant,
    seconds: f64,
    min_samples: usize,
}

impl Budget {
    fn start(cfg: &Config) -> Budget {
        let min_samples = if cfg.smoke { 0 } else { MIN_SAMPLES };
        Budget { start: Instant::now(), seconds: cfg.seconds, min_samples }
    }

    fn more(&self, passes: usize, samples: usize) -> bool {
        let t = self.start.elapsed().as_secs_f64();
        passes == 0
            || ((t < self.seconds || samples < self.min_samples) && t < 3.0 * self.seconds + 30.0)
    }
}

/// Records `<prefix>_p50_us` / `<prefix>_p99_us` from per-operation
/// nanoseconds in measurement order, with the sample count. The median is
/// over all samples. With at least three blocks of [`MIN_SAMPLES`]
/// consecutive operations, p99 is the median of the blocks' p99s, so one
/// disturbed stretch of a run moves it no more than it moves the median;
/// otherwise it is over all samples, and the maximum when unsupported.
fn put_latency(out: &mut Outcome, prefix: &str, ns: &[f64]) {
    let us: Vec<f64> = ns.iter().map(|x| x / 1e3).collect();
    let all = Latency::of(&us);
    let blocks: Vec<f64> = us.chunks_exact(MIN_SAMPLES).map(|b| Latency::of(b).tail()).collect();
    let p99 = if blocks.len() >= 3 { median(&blocks) } else { all.tail() };
    out.put(&format!("{prefix}_p50_us"), all.p50, "us");
    out.put(&format!("{prefix}_p99_us"), p99, "us");
    out.put(&format!("{prefix}.samples"), all.n as f64, "samples");
    if all.p99.is_none() {
        out.put(&format!("{prefix}.p99_is_max"), 1.0, "flag");
    }
}

/// Tracing overhead: `pass` times the same work (seconds) under the tracer
/// it is given. Three untraced and three traced passes run back to back,
/// alternating which goes first, so that a drift in the machine's speed
/// slows both alike; the result is the median of the three traced/untraced
/// ratios, minus one. The traced passes' spans are discarded.
fn overhead_frac(mut pass: impl FnMut(&mut Tracer) -> f64) -> f64 {
    let mut timed = |on: bool| pass(&mut Tracer::new(on));
    let ratios: Vec<f64> = (0..3)
        .map(|i| {
            if i % 2 == 0 {
                let untraced = timed(false);
                timed(true) / untraced
            } else {
                let traced = timed(true);
                traced / timed(false)
            }
        })
        .collect();
    median(&ratios) - 1.0
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
///
/// # Panics
///
/// Panics where `/proc/self/status` is unavailable (the benchmark targets
/// Linux).
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("/proc/self/status (Linux)");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM in /proc/self/status");
    kb / 1024.0
}

/// `a / b`, or 0 when `b` is 0.
fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derived_seeds_differ_per_salt_and_seed() {
        assert_ne!(derive(1, 1), derive(1, 2));
        assert_ne!(derive(1, 1), derive(2, 1));
        assert_eq!(derive(7, 3), derive(7, 3));
    }

    #[test]
    fn budget_runs_at_least_once_and_waits_for_samples() {
        let cfg = Config { seed: 1, seconds: 0.0, smoke: false };
        let b = Budget::start(&cfg);
        assert!(b.more(0, 0));
        assert!(b.more(1, 10), "full-size runs wait for MIN_SAMPLES");
        assert!(!b.more(1, MIN_SAMPLES));
        let smoke = Budget::start(&Config { smoke: true, ..cfg });
        assert!(!smoke.more(1, 0));
    }
}

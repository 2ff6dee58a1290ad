//! Command-line options.

use std::path::PathBuf;

/// Usage text printed on a bad command line.
pub const USAGE: &str = "\
usage: run.sh [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] [--smoke]
              [--trace-dir DIR] [--repeat N] [--out DIR] [--against EXE]

With --workload, runs that one workload and prints `name value unit` lines
and, last, the JSON result line. Without it, runs every workload in its own
process, --repeat times (seeds N, N+1, ...), optionally writing each run and
a summary under --out. --against names a structura-bench executable built
from another commit: each run is paired with a run of it, alternating which
goes first, and the pairs are compared.";

/// Parsed options.
#[derive(Debug, Clone, PartialEq)]
pub struct Options {
    /// Run only this workload, in this process.
    pub workload: Option<String>,
    /// Input seed (the first seed when repeating).
    pub seed: u64,
    /// Length of each run's measured phase.
    pub seconds: f64,
    /// Record spans and report per-layer metrics.
    pub trace: bool,
    /// Tiny inputs.
    pub smoke: bool,
    /// Where traced runs write their spans.
    pub trace_dir: PathBuf,
    /// Runs per workload when running all of them.
    pub repeat: usize,
    /// Directory for per-run results and the summary.
    pub out: Option<PathBuf>,
    /// Another commit's benchmark executable to run alongside and compare
    /// against.
    pub against: Option<PathBuf>,
}

impl Default for Options {
    fn default() -> Self {
        Options {
            workload: None,
            seed: 1,
            seconds: 10.0,
            trace: false,
            smoke: false,
            trace_dir: PathBuf::from("benchmark/out"),
            repeat: 1,
            out: None,
            against: None,
        }
    }
}

/// Parses the arguments after the program name.
pub fn parse(args: &[String]) -> Result<Options, String> {
    let mut o = Options::default();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--smoke" {
            o.smoke = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: expected {what}, got `{value}`");
        match flag.as_str() {
            "--workload" => o.workload = Some(value.clone()),
            "--seed" => o.seed = value.parse().map_err(|_| bad("an unsigned integer"))?,
            "--seconds" => {
                o.seconds = value
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s >= 0.0)
                    .ok_or_else(|| bad("a non-negative number"))?;
            }
            "--trace" => {
                o.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                }
            }
            "--trace-dir" => o.trace_dir = PathBuf::from(value),
            "--repeat" => {
                o.repeat =
                    value.parse().ok().filter(|&r| r >= 1).ok_or_else(|| bad("a count >= 1"))?;
            }
            "--out" => o.out = Some(PathBuf::from(value)),
            "--against" => o.against = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown option {flag}")),
        }
    }
    Ok(o)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_a_single_run_command_line() {
        let o = parse(&args("--workload track-city --seed 7 --seconds 10 --trace 1")).unwrap();
        assert_eq!(o.workload.as_deref(), Some("track-city"));
        assert_eq!((o.seed, o.seconds, o.trace, o.smoke), (7, 10.0, true, false));
        let o = parse(&args("--smoke --repeat 3 --out x --against y")).unwrap();
        assert_eq!((o.smoke, o.repeat), (true, 3));
        assert_eq!(o.out, Some(PathBuf::from("x")));
    }

    #[test]
    fn rejects_bad_input() {
        for bad in ["--trace 2", "--seed -1", "--seconds nan", "--repeat 0", "--bogus 1", "--seed"]
        {
            assert!(parse(&args(bad)).is_err(), "{bad}");
        }
    }
}

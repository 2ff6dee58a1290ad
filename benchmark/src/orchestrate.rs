//! Running every workload, each in its own process (so peak RSS belongs to
//! one workload), repeating runs, summarising them, and comparing this
//! executable with one built from another commit.
//!
//! A comparison runs both executables on every workload and seed, one right
//! after the other, and alternates which of them runs first from one seed to
//! the next, so that a machine whose speed drifts over minutes slows both
//! sides alike. Sets recorded at different times are not compared: on the
//! reference machine the drift between them exceeds the bounds. Per
//! end-to-end metric a comparison reports: a gain only when the new side wins
//! at least nine tenths of the pairs, the medians differ by more than the
//! base side's interquartile range and the new side failed no more
//! operations; a regression when the new median is worse than the base
//! median by more than the metric's bound in `BENCHMARK.json`; `unresolved`
//! when the base side's own spread exceeds the bound and the new side does
//! not beat every base run; otherwise `flat`. Exact counters (unit `count`)
//! must be equal pair by pair.

use crate::cli::Options;
use crate::json::{number, quote, Json};
use crate::stats::{median, quartiles};
use crate::workloads::WORKLOADS;
use std::collections::BTreeMap;
use std::path::Path;
use std::process::{Command, Stdio};

/// One workload run as the harness records it.
#[derive(Debug, Clone, PartialEq)]
pub struct Record {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations failed (a crashed run counts as all failed).
    pub failed: u64,
    /// Every printed metric: `(value, unit)`.
    pub metrics: BTreeMap<String, (f64, String)>,
}

impl Record {
    fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(k, (v, u))| {
                format!("{}: {{\"value\": {}, \"unit\": {}}}", quote(k), number(*v), quote(u))
            })
            .collect();
        format!(
            concat!(
                "{{\"workload\": {}, \"seed\": {}, \"correct\": {}, ",
                "\"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}\n"
            ),
            quote(&self.workload),
            self.seed,
            self.failed == 0,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }

    fn from_json(j: &Json) -> Option<Record> {
        let metrics = j
            .get("metrics")?
            .obj()?
            .iter()
            .filter_map(|(k, m)| {
                Some((k.clone(), (m.get("value")?.num()?, m.get("unit")?.str()?.to_string())))
            })
            .collect();
        Some(Record {
            workload: j.get("workload")?.str()?.to_string(),
            seed: j.get("seed")?.num()? as u64,
            attempted: j.get("attempted")?.num()? as u64,
            failed: j.get("failed")?.num()? as u64,
            metrics,
        })
    }
}

/// Parses a single run's standard output: `name value unit` lines, then
/// the result line. `None` when there is no valid result line.
pub fn parse_run_output(workload: &str, seed: u64, stdout: &str) -> Option<Record> {
    let mut lines: Vec<&str> = stdout.lines().filter(|l| !l.trim().is_empty()).collect();
    let result = Json::parse(lines.pop()?).ok()?;
    let mut metrics = BTreeMap::new();
    for l in lines {
        let f: Vec<&str> = l.split_whitespace().collect();
        if let [name, value, unit] = f[..] {
            if let Ok(v) = value.parse::<f64>() {
                metrics.insert(name.to_string(), (v, unit.to_string()));
            }
        }
    }
    Some(Record {
        workload: workload.to_string(),
        seed,
        attempted: result.get("attempted")?.num()? as u64,
        failed: result.get("failed")?.num()? as u64,
        metrics,
    })
}

/// Runs workload `w` with `seed` as a child process of executable `exe`; a
/// run that cannot start, crashes or prints no result line counts as one
/// attempted and one failed operation.
fn run_child(exe: &Path, w: &str, seed: u64, opts: &Options) -> Record {
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", w, "--seed", &seed.to_string()])
        .args(["--seconds", &opts.seconds.to_string()])
        .args(["--trace", if opts.trace { "1" } else { "0" }])
        .arg("--trace-dir")
        .arg(&opts.trace_dir)
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit());
    if opts.smoke {
        cmd.arg("--smoke");
    }
    match cmd.output() {
        Ok(o) => parse_run_output(w, seed, &String::from_utf8_lossy(&o.stdout)),
        Err(e) => {
            eprintln!("structura-bench: cannot start {}: {e}", exe.display());
            None
        }
    }
    .unwrap_or_else(|| {
        eprintln!(
            "structura-bench: {w} (seed {seed}) of {} crashed; counting it as failed",
            exe.display()
        );
        let metrics = [("failed_frac".to_string(), (1.0, "frac".to_string()))].into();
        Record { workload: w.to_string(), seed, attempted: 1, failed: 1, metrics }
    })
}

/// Runs every workload `opts.repeat` times in child processes — each run
/// paired with a run of `opts.against` when given — prints each run's
/// metrics prefixed by the workload, and writes and compares the sets as
/// asked. Returns the exit code: 1 if any operation of this executable
/// failed, any run crashed, or a set could not be written or compared.
pub fn run_all(opts: &Options) -> i32 {
    let exe = match std::env::current_exe() {
        Ok(e) => e,
        Err(e) => {
            eprintln!("structura-bench: cannot locate own executable: {e}");
            return 1;
        }
    };
    // Read before running, so that a comparison that cannot be made fails
    // before the runs.
    let bounds = match &opts.against {
        None => None,
        Some(_) => match end_to_end_bounds(Path::new("BENCHMARK.json")) {
            Ok(b) => Some(b),
            Err(e) => {
                eprintln!("structura-bench: cannot compare: {e}");
                return 1;
            }
        },
    };
    let (mut records, mut base) = (Vec::new(), Vec::new());
    for rep in 0..opts.repeat as u64 {
        let seed = opts.seed + rep;
        for &w in WORKLOADS {
            // The other executable runs first on every other seed.
            let other_first = rep % 2 == 0;
            let other = || opts.against.as_ref().map(|a| run_child(a, w, seed, opts));
            base.extend(if other_first { other() } else { None });
            let rec = run_child(&exe, w, seed, opts);
            base.extend(if other_first { None } else { other() });
            for (k, (v, u)) in &rec.metrics {
                println!("{w} {k} {} {u}", number(*v));
            }
            records.push(rec);
        }
    }
    let mut code = i32::from(records.iter().any(|r| r.failed > 0));
    if let Some(dir) = &opts.out {
        let written = match opts.against {
            Some(_) => write_set(&dir.join("base"), &base)
                .and_then(|()| write_set(&dir.join("new"), &records)),
            None => write_set(dir, &records),
        };
        if let Err(e) = written {
            eprintln!("structura-bench: cannot write {}: {e}", dir.display());
            code = 1;
        }
    }
    if let Some(bounds) = bounds {
        compare(&base, &records, &bounds).iter().for_each(|l| println!("{l}"));
    }
    code
}

/// Writes `runs.jsonl` (one run per line, in run order) and
/// `summary.json` (median, quartiles and count per workload × metric).
pub fn write_set(dir: &Path, records: &[Record]) -> std::io::Result<()> {
    std::fs::create_dir_all(dir)?;
    std::fs::write(
        dir.join("runs.jsonl"),
        records.iter().map(Record::to_json).collect::<String>(),
    )?;
    std::fs::write(dir.join("summary.json"), summary(records))
}

fn summary(records: &[Record]) -> String {
    let mut by: BTreeMap<&str, BTreeMap<&str, (Vec<f64>, &str)>> = BTreeMap::new();
    for r in records {
        for (k, (v, u)) in &r.metrics {
            let e = by.entry(&r.workload).or_default().entry(k).or_insert((Vec::new(), u));
            e.0.push(*v);
        }
    }
    let workloads: Vec<String> = by
        .iter()
        .map(|(w, ms)| {
            let rows: Vec<String> = ms
                .iter()
                .map(|(k, (vs, u))| {
                    let [q1, q2, q3] = quartiles(vs);
                    format!(
                        concat!(
                            "    {}: {{\"median\": {}, \"q1\": {}, \"q3\": {}, ",
                            "\"n\": {}, \"unit\": {}}}"
                        ),
                        quote(k),
                        number(q2),
                        number(q1),
                        number(q3),
                        vs.len(),
                        quote(u)
                    )
                })
                .collect();
            format!("  {}: {{\n{}\n  }}", quote(w), rows.join(",\n"))
        })
        .collect();
    format!("{{\n{}\n}}\n", workloads.join(",\n"))
}

/// Reads the runs of a set written by [`write_set`].
pub fn load_set(dir: &Path) -> Result<Vec<Record>, String> {
    let path = dir.join("runs.jsonl");
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    text.lines()
        .filter(|l| !l.trim().is_empty())
        .enumerate()
        .map(|(i, l)| {
            let j =
                Json::parse(l).map_err(|e| format!("{} line {}: {e}", path.display(), i + 1))?;
            Record::from_json(&j)
                .ok_or_else(|| format!("{} line {}: not a run", path.display(), i + 1))
        })
        .collect()
}

/// An end-to-end metric of `BENCHMARK.json`: name, whether lower is better,
/// and its regression bound.
pub type Bound = (String, bool, f64);

/// The end-to-end metrics of the `BENCHMARK.json` at `path`.
pub fn end_to_end_bounds(path: &Path) -> Result<Vec<Bound>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let j = Json::parse(&text)?;
    j.get("end_to_end")
        .and_then(Json::arr)
        .ok_or("BENCHMARK.json has no end_to_end list")?
        .iter()
        .map(|m| {
            let name = m.get("name").and_then(Json::str).ok_or("metric without a name")?;
            let better = m.get("better").and_then(Json::str).ok_or("metric without `better`")?;
            let bound = m.get("bound").and_then(Json::num).ok_or("metric without a bound")?;
            Ok((name.to_string(), better == "lower", bound))
        })
        .collect()
}

/// The pair verdict lines for `new` against `base`, two sets whose runs of
/// one workload and seed were made back to back (see the module docs).
pub fn compare(base: &[Record], new: &[Record], bounds: &[Bound]) -> Vec<String> {
    let mut lines = Vec::new();
    for &w in WORKLOADS {
        let pairs: Vec<(&Record, &Record)> = new
            .iter()
            .filter(|r| r.workload == w)
            .filter_map(|c| {
                base.iter().find(|b| b.workload == w && b.seed == c.seed).map(|b| (b, c))
            })
            .collect();
        if pairs.is_empty() {
            continue;
        }
        let failed = |side: fn(&(&Record, &Record)) -> u64| pairs.iter().map(side).sum::<u64>();
        let (base_failed, new_failed) = (failed(|p| p.0.failed), failed(|p| p.1.failed));
        for (name, lower, bound) in bounds {
            let get = |r: &Record| r.metrics.get(name).map(|m| m.0);
            let vals: Vec<(f64, f64)> =
                pairs.iter().filter_map(|(b, c)| Some((get(b)?, get(c)?))).collect();
            if vals.is_empty() {
                continue;
            }
            let beats = |c: f64, b: f64| if *lower { c < b } else { c > b };
            let bs: Vec<f64> = vals.iter().map(|v| v.0).collect();
            let cs: Vec<f64> = vals.iter().map(|v| v.1).collect();
            let (mb, mc) = (median(&bs), median(&cs));
            let [q1, _, q3] = quartiles(&bs);
            let wins = vals.iter().filter(|(b, c)| beats(*c, *b)).count();
            let worse = if *lower { (mc - mb) / mb } else { (mb - mc) / mb };
            let all_better = cs.iter().all(|&c| bs.iter().all(|&b| beats(c, b)));
            let verdict = if wins * 10 >= vals.len() * 9
                && beats(mc, mb)
                && (mc - mb).abs() > q3 - q1
                && new_failed <= base_failed
            {
                "gain"
            } else if worse > *bound {
                "regression"
            } else if (q3 - q1) / mb > *bound && !all_better {
                "unresolved"
            } else {
                "flat"
            };
            lines.push(format!(
                "{w} {name} base={} new={} change={:+.2}% wins={wins}/{} bound={bound} {verdict}",
                number(mb),
                number(mc),
                100.0 * (mc - mb) / mb,
                vals.len()
            ));
        }
        lines.push(format!("{w} failed base={base_failed} new={new_failed}"));
        let differing: std::collections::BTreeSet<&String> = pairs
            .iter()
            .flat_map(|(b, c)| {
                b.metrics.iter().filter(move |(k, (v, u))| {
                    u == "count" && c.metrics.get(*k).is_some_and(|m| m.0 != *v)
                })
            })
            .map(|(k, _)| k)
            .collect();
        if differing.is_empty() {
            lines.push(format!("{w} exact-counters identical"));
        } else {
            lines.push(format!("{w} exact-counters DIFFER: {differing:?}"));
        }
    }
    lines
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_output_and_records_round_trip() {
        let stdout = "ops_per_s 12.5 1/s\nserve.fallbacks 3 count\n\
            {\"correct\": true, \"attempted\": 40, \"failed\": 0, \"metrics\": {}}\n";
        let r = parse_run_output("serve-mixed", 4, stdout).expect("valid run");
        assert_eq!((r.attempted, r.failed, r.seed), (40, 0, 4));
        assert_eq!(r.metrics["serve.fallbacks"], (3.0, "count".to_string()));
        let back = Record::from_json(&Json::parse(&r.to_json()).unwrap()).unwrap();
        assert_eq!(back, r);
        assert!(parse_run_output("x", 1, "no result line\n").is_none());
        assert!(parse_run_output("x", 1, "").is_none());
    }

    /// Ten seeds of `serve-mixed` whose `ops_per_s` is `f(seed)`.
    fn set(failed: u64, f: impl Fn(u64) -> f64) -> Vec<Record> {
        (1..=10)
            .map(|seed| Record {
                workload: "serve-mixed".into(),
                seed,
                attempted: 100,
                failed,
                metrics: [("ops_per_s".to_string(), (f(seed), "1/s".to_string()))].into(),
            })
            .collect()
    }

    fn verdict(base: &[Record], new: &[Record]) -> String {
        let bounds = [("ops_per_s".to_string(), false, 0.10)];
        let lines = compare(base, new, &bounds);
        lines[0].rsplit(' ').next().unwrap().to_string()
    }

    #[test]
    fn verdicts_follow_the_pair_rules() {
        let base = set(0, |s| 1000.0 + s as f64);
        assert_eq!(verdict(&base, &set(0, |s| 1200.0 + s as f64)), "gain");
        assert_eq!(verdict(&base, &set(0, |s| 800.0 + s as f64)), "regression");
        assert_eq!(verdict(&base, &set(0, |s| 1000.0 + s as f64)), "flat");
        // Faster on only eight of ten pairs: not a gain.
        let eight = set(0, |s| if s <= 8 { 1200.0 } else { 900.0 + s as f64 });
        assert_eq!(verdict(&base, &eight), "flat");
        // Faster on every pair, but more operations failed: not a gain.
        assert_eq!(verdict(&base, &set(1, |s| 1200.0 + s as f64)), "flat");
        // A base spread wider than the bound leaves a small change unresolved.
        let wide = set(0, |s| if s % 2 == 0 { 800.0 } else { 1200.0 });
        assert_eq!(verdict(&wide, &set(0, |_| 1000.0)), "unresolved");
    }
}

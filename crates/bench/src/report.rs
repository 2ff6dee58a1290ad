//! Structured experiment reports (the observability substrate).
//!
//! Every experiment renders into a [`Report`] instead of printing to
//! stdout. The same report serves two consumers:
//!
//! * **Humans** — [`ExperimentReport::render`] reproduces the classic text
//!   output byte-for-byte, whether the run was serial or parallel.
//! * **Machines** — the report serializes to JSON
//!   (`experiments_output/<id>.json`), and a run-level
//!   [`RunSummary`] records timings, thread count, and the git revision so
//!   runs can be diffed and tracked as a performance trajectory.
//!
//! Structure is recovered from the experiments' existing print discipline:
//! a flush-left line is a section heading, an indented line is a row of the
//! current section (see [`Report::line`]).

use serde::Serialize;

/// One logical section of an experiment's output: an optional heading plus
/// its rows, in print order.
#[derive(Debug, Clone, Default, Serialize)]
pub struct Section {
    /// The flush-left heading line, or `None` for the implicit leading
    /// section.
    pub heading: Option<String>,
    /// Indented row lines, stored exactly as rendered.
    pub rows: Vec<String>,
}

/// A named scalar an experiment wants tracked run-over-run (delivery
/// ratios, message counts, distributed-round counts, …).
#[derive(Debug, Clone, Serialize)]
pub struct Metric {
    /// Metric name, unique within the experiment.
    pub name: String,
    /// Metric value.
    pub value: f64,
}

/// The sink experiments write into while they run.
#[derive(Debug, Clone, Default)]
pub struct Report {
    sections: Vec<Section>,
    metrics: Vec<Metric>,
}

impl Report {
    /// Creates an empty report body.
    pub fn new() -> Self {
        Report::default()
    }

    /// Appends one output line.
    ///
    /// Lines starting flush-left (no leading space) begin a new
    /// [`Section`] with that heading; indented or empty lines are rows of
    /// the current section. This mirrors how the experiments have always
    /// formatted their output, so conversion from `println!` is 1:1 and the
    /// rendered text is unchanged.
    pub fn line(&mut self, text: impl Into<String>) {
        let text = text.into();
        let is_heading = !text.is_empty() && !text.starts_with(' ');
        if is_heading {
            self.sections.push(Section { heading: Some(text), rows: Vec::new() });
        } else {
            if self.sections.is_empty() {
                self.sections.push(Section::default());
            }
            self.sections.last_mut().expect("nonempty").rows.push(text);
        }
    }

    /// Records a named scalar for machine consumers. Does not affect the
    /// rendered text.
    pub fn metric(&mut self, name: impl Into<String>, value: f64) {
        self.metrics.push(Metric { name: name.into(), value });
    }

    /// Number of rendered lines (headings + rows).
    pub fn line_count(&self) -> usize {
        self.sections.iter().map(|s| usize::from(s.heading.is_some()) + s.rows.len()).sum()
    }

    fn into_parts(self) -> (Vec<Section>, Vec<Metric>) {
        (self.sections, self.metrics)
    }
}

/// A completed experiment: identity, provenance, timing, and body.
#[derive(Debug, Clone, Serialize)]
pub struct ExperimentReport {
    /// Experiment id (`e1`, `e2`, …).
    pub id: String,
    /// Human title.
    pub title: String,
    /// The figure/claim of the paper this experiment regenerates.
    pub paper_artifact: String,
    /// Wall-clock the experiment body took, in seconds.
    pub wall_time_secs: f64,
    /// Output body, sectioned.
    pub sections: Vec<Section>,
    /// Named scalars for run-over-run tracking.
    pub metrics: Vec<Metric>,
}

impl ExperimentReport {
    /// Assembles a finished report from a run body.
    pub fn new(
        id: &str,
        title: &str,
        paper_artifact: &str,
        wall_time_secs: f64,
        body: Report,
    ) -> Self {
        let (sections, metrics) = body.into_parts();
        ExperimentReport {
            id: id.to_string(),
            title: title.to_string(),
            paper_artifact: paper_artifact.to_string(),
            wall_time_secs,
            sections,
            metrics,
        }
    }

    /// Renders the classic text form: banner line, then every section
    /// heading and row in order. Identical for serial and parallel runs
    /// because timing never appears here.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "\n══════════════════ {} ══════════════════\n",
            self.id.to_uppercase()
        ));
        for s in &self.sections {
            if let Some(h) = &s.heading {
                out.push_str(h);
                out.push('\n');
            }
            for r in &s.rows {
                out.push_str(r);
                out.push('\n');
            }
        }
        out
    }

    /// The JSON document written to `experiments_output/<id>.json`.
    pub fn to_json(&self) -> String {
        serde::json::to_string_pretty(self)
    }
}

/// Per-experiment timing entry of a [`RunSummary`].
#[derive(Debug, Clone, Serialize)]
pub struct TimingEntry {
    /// Experiment id.
    pub id: String,
    /// Wall-clock seconds for this experiment's body.
    pub wall_time_secs: f64,
    /// Worker index that executed it (0 for serial runs).
    pub worker: usize,
}

/// Run-level record: what ran, where, how fast — the unit of the
/// performance trajectory (`experiments_summary.json` / `BENCH_*.json`).
#[derive(Debug, Clone, Serialize)]
pub struct RunSummary {
    /// Schema marker for downstream tooling.
    pub schema: String,
    /// `git rev-parse HEAD` at run time, or `"unknown"`.
    pub git_rev: String,
    /// Worker threads requested (`--jobs`).
    pub jobs: usize,
    /// Worker threads actually used (capped at the experiment count).
    pub workers_used: usize,
    /// Hardware threads the runtime detected on the machine that ran the
    /// experiments (what `--jobs` defaults to when omitted).
    pub detected_cores: usize,
    /// RNG provenance. Experiments use fixed per-experiment seeds on the
    /// vendored xoshiro256** generator, so output is deterministic per
    /// binary, independent of thread schedule.
    pub rng: String,
    /// Number of experiments executed.
    pub experiments: usize,
    /// End-to-end wall-clock of the whole run, in seconds.
    pub total_wall_secs: f64,
    /// Sum of per-experiment wall-clocks (the serial-equivalent cost; with
    /// `jobs > 1` this exceeds `total_wall_secs` when parallelism helps).
    pub cpu_secs: f64,
    /// Tasks stolen across workers by the work-stealing pool.
    pub pool_steals: usize,
    /// Per-experiment timings, in registry order.
    pub timings: Vec<TimingEntry>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lines_split_into_sections_by_indentation() {
        let mut r = Report::new();
        r.line("first heading:");
        r.line("  row a");
        r.line("");
        r.line("second heading:");
        r.line("  row b");
        let rep = ExperimentReport::new("e0", "t", "Fig. 0", 0.0, r);
        assert_eq!(rep.sections.len(), 2);
        assert_eq!(rep.sections[0].rows, vec!["  row a", ""]);
        assert_eq!(rep.sections[1].heading.as_deref(), Some("second heading:"));
    }

    #[test]
    fn leading_rows_get_an_implicit_section() {
        let mut r = Report::new();
        r.line("  indented first");
        let rep = ExperimentReport::new("e0", "t", "Fig. 0", 0.0, r);
        assert_eq!(rep.sections.len(), 1);
        assert!(rep.sections[0].heading.is_none());
    }

    #[test]
    fn render_reproduces_print_order_and_banner() {
        let mut r = Report::new();
        r.line("h:");
        r.line("  x");
        let rep = ExperimentReport::new("e7", "t", "Fig. 7", 1.5, r);
        assert_eq!(rep.render(), "\n══════════════════ E7 ══════════════════\nh:\n  x\n");
    }

    #[test]
    fn json_contains_identity_timing_and_metrics() {
        let mut r = Report::new();
        r.line("h:");
        r.metric("delivery", 0.75);
        let rep = ExperimentReport::new("e1", "title", "Fig. 1", 0.25, r);
        let json = rep.to_json();
        assert!(json.contains("\"id\": \"e1\""));
        assert!(json.contains("\"wall_time_secs\": 0.25"));
        assert!(json.contains("\"delivery\""));
    }
}

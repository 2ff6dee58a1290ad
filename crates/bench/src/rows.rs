//! The one row schema of every `BENCH_*.json` artifact `perf_smoke` writes.
//!
//! A document is `{schema, git_rev, detected_cores, rows}`. Each row is
//! `{tier, stage, params, counters, wall_secs}`:
//!
//! * `(tier, stage, params)` is the row's key, unique within a document.
//!   Nothing in it depends on the machine: a worker count that follows the
//!   detected cores lives in `detected_cores` only.
//! * `counters` holds exact, deterministic integers (edges, touches,
//!   rounds, messages, bytes): a mean or a ratio is stored as the integers
//!   it is computed from.
//! * `wall_secs`, `git_rev` and `detected_cores` are informational.
//!
//! [`Document::render`] writes each row on one line with a flat `counters`
//! object, so `scripts/check.sh` compares a fresh run with the committed
//! artifact line by line: a fresh row whose key and counters are not a
//! committed row, `wall_secs` aside, fails the check.

use serde::{Serialize, Value};
use std::collections::HashSet;

/// Schema tag of every `BENCH_*.json`; bump on layout changes and
/// regenerate the committed artifacts in the same commit.
pub const SCHEMA: &str = "structura-bench-rows-v1";

/// One measured stage of one tier.
#[derive(Debug)]
pub struct Row {
    tier: &'static str,
    stage: &'static str,
    params: Vec<(&'static str, Value)>,
    counters: Vec<(&'static str, u64)>,
    wall_secs: f64,
}

impl Row {
    /// A row of `tier` measuring `stage`, with no parameters, no counters
    /// and no wall time yet.
    pub fn new(tier: &'static str, stage: &'static str) -> Self {
        Row { tier, stage, params: Vec::new(), counters: Vec::new(), wall_secs: 0.0 }
    }

    /// Adds key parameter `name` (an input: a graph, a size, a method).
    pub fn param(mut self, name: &'static str, value: impl Serialize) -> Self {
        self.params.push((name, value.to_value()));
        self
    }

    /// Adds exact counter `name`; a flag counts as 0 or 1.
    ///
    /// # Panics
    ///
    /// Panics if `value` does not fit a `u64`.
    pub fn counter(mut self, name: &'static str, value: impl TryInto<u64>) -> Self {
        let value = value.try_into().unwrap_or_else(|_| panic!("counter {name} exceeds u64"));
        self.counters.push((name, value));
        self
    }

    /// Sets the stage's wall time, in seconds.
    pub fn wall_secs(mut self, secs: f64) -> Self {
        self.wall_secs = secs;
        self
    }

    /// The value of counter `name`, if the row has it.
    pub fn counter_value(&self, name: &str) -> Option<u64> {
        self.counters.iter().find(|c| c.0 == name).map(|c| c.1)
    }

    /// The value of string parameter `name`, if the row has it.
    pub fn param_text(&self, name: &str) -> Option<&str> {
        match self.params.iter().find(|p| p.0 == name)?.1 {
            Value::Str(ref s) => Some(s),
            _ => None,
        }
    }

    /// The row's key, `(tier, stage, params)`, as JSON text.
    fn key(&self) -> String {
        serde::json::to_string(&(self.tier, self.stage, map(&self.params)))
    }
}

fn map<T: Serialize>(fields: &[(&'static str, T)]) -> Value {
    Value::Map(fields.iter().map(|(k, v)| (k.to_string(), v.to_value())).collect())
}

impl Serialize for Row {
    fn to_value(&self) -> Value {
        Value::Map(vec![
            ("tier".into(), self.tier.to_value()),
            ("stage".into(), self.stage.to_value()),
            ("params".into(), map(&self.params)),
            ("counters".into(), map(&self.counters)),
            ("wall_secs".into(), self.wall_secs.to_value()),
        ])
    }
}

/// One `BENCH_*.json` artifact.
pub struct Document {
    /// `git rev-parse HEAD` at run time.
    pub git_rev: String,
    /// Hardware threads detected; the worker count of every row that runs
    /// on all of them.
    pub detected_cores: usize,
    /// The measured rows.
    pub rows: Vec<Row>,
}

impl Document {
    /// The document as JSON text under [`SCHEMA`], one row per line.
    ///
    /// # Panics
    ///
    /// Panics if two rows share a key.
    pub fn render(&self) -> String {
        let mut keys = HashSet::new();
        for row in &self.rows {
            assert!(keys.insert(row.key()), "duplicate row key {}", row.key());
        }
        let rows: Vec<String> =
            self.rows.iter().map(|r| format!("    {}", serde::json::to_string(r))).collect();
        format!(
            "{{\n  \"schema\": {},\n  \"git_rev\": {},\n  \"detected_cores\": {},\n  \
             \"rows\": [\n{}\n  ]\n}}\n",
            serde::json::to_string(SCHEMA),
            serde::json::to_string(&self.git_rev),
            self.detected_cores,
            rows.join(",\n")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn document(rows: Vec<Row>) -> Document {
        Document { git_rev: "abc".into(), detected_cores: 2, rows }
    }

    /// The line format `scripts/check.sh` compares: one row per line, the
    /// key first, then a flat object of integer counters, then the wall
    /// time.
    #[test]
    fn renders_one_row_per_line_with_flat_integer_counters() {
        let doc = document(vec![
            Row::new("t", "build")
                .param("graph", "ba(n=10)")
                .param("k", 4)
                .counter("edges", 27)
                .counter("converged", true)
                .wall_secs(0.25),
            Row::new("t", "sweep").wall_secs(1.0),
        ]);
        assert_eq!(
            doc.render(),
            "{\n  \"schema\": \"structura-bench-rows-v1\",\n  \"git_rev\": \"abc\",\n  \
             \"detected_cores\": 2,\n  \"rows\": [\n    \
             {\"tier\":\"t\",\"stage\":\"build\",\"params\":{\"graph\":\"ba(n=10)\",\"k\":4},\
             \"counters\":{\"edges\":27,\"converged\":1},\"wall_secs\":0.25},\n    \
             {\"tier\":\"t\",\"stage\":\"sweep\",\"params\":{},\"counters\":{},\
             \"wall_secs\":1.0}\n  ]\n}\n"
        );
        assert_eq!(doc.rows[0].counter_value("edges"), Some(27));
        assert_eq!(doc.rows[0].param_text("graph"), Some("ba(n=10)"));
        assert_eq!(doc.rows[0].param_text("k"), None);
    }

    #[test]
    #[should_panic(expected = "duplicate row key")]
    fn rejects_a_repeated_key() {
        let row = || Row::new("t", "build").param("k", 4);
        document(vec![row().counter("edges", 1), row().counter("edges", 2)]).render();
    }
}

//! Metric names, units and the result line.
//!
//! [`END_TO_END`] and [`PER_LAYER`] mirror `BENCHMARK.json` (a crate test
//! holds them equal). A run emits every end-to-end metric with tracing off
//! and every per-layer metric with tracing on; a per-layer metric of a layer
//! the workload does not exercise reads 0. Everything else a workload
//! measures is printed as `name value unit` lines above the result line.

use crate::json::{number, quote};
use std::collections::BTreeMap;

/// The end-to-end metrics, `(name, unit)`.
pub const END_TO_END: &[(&str, &str)] =
    &[("setup_s", "s"), ("ops_per_s", "1/s"), ("op_p99_us", "us"), ("peak_rss_mb", "MB")];

/// The per-layer metrics, `(name, unit)`.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("setup.gen_s", "s"),
    ("setup.build_s", "s"),
    ("mobility.contacts", "count"),
    ("temporal.eg_labels", "count"),
    ("temporal.delta_edges", "count"),
    ("temporal.churn_ratio", "frac"),
    ("maintain.cores.touched", "count"),
    ("maintain.nsf.touched", "count"),
    ("maintain.forwarding.touched", "count"),
    ("maintain.cores.vs_rebuild", "x"),
    ("maintain.nsf.vs_rebuild", "x"),
    ("maintain.forwarding.vs_rebuild", "x"),
    ("serve.index_bytes", "B"),
    ("serve.queries", "count"),
    ("serve.distance_exact.count", "count"),
    ("serve.fallbacks", "count"),
    ("serve.distance_exact.fallback_frac", "frac"),
    ("serve.distance.time_share", "frac"),
    ("serve.distance_exact.time_share", "frac"),
    ("serve.forwarding_set.time_share", "frac"),
    ("serve.structure.time_share", "frac"),
    ("serve.rank.time_share", "frac"),
    ("serve.safety_route.time_share", "frac"),
    ("serve.journey.time_share", "frac"),
    ("serve.fallback.time_share", "frac"),
    ("serve.shard_speedup", "x"),
    ("distsim.rounds", "count"),
    ("distsim.sent", "count"),
    ("distsim.messages", "count"),
    ("distsim.dropped", "count"),
    ("distsim.duplicated", "count"),
    ("distsim.shed", "count"),
    ("distsim.delivery_ratio", "frac"),
    ("distsim.parallel_speedup", "x"),
    ("trace.spans", "spans"),
    ("trace.overhead_frac", "frac"),
];

/// What one workload run measured and checked.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Outcome {
    /// Operations performed (queries, steps, rounds, checks).
    pub attempted: u64,
    /// Operations whose checked output was wrong.
    pub failed: u64,
    /// Every measured value by name: `(value, unit)`.
    pub metrics: BTreeMap<String, (f64, String)>,
}

impl Outcome {
    /// Records a metric; a non-finite value (a ratio with nothing to divide)
    /// is stored as 0, and so is −0 (an empty float sum).
    pub fn put(&mut self, name: &str, value: f64, unit: &str) {
        let value = if value.is_finite() { value + 0.0 } else { 0.0 };
        self.metrics.insert(name.to_string(), (value, unit.to_string()));
    }

    /// Counts `checked` more operations, `wrong` of them failed.
    pub fn check(&mut self, checked: u64, wrong: u64) {
        self.attempted += checked;
        self.failed += wrong;
    }

    /// `failed / attempted` (1 when nothing was attempted).
    pub fn failed_frac(&self) -> f64 {
        if self.attempted == 0 {
            1.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }

    /// The `name value unit` lines, sorted by name.
    pub fn lines(&self) -> Vec<String> {
        self.metrics.iter().map(|(k, (v, u))| format!("{k} {} {u}", number(*v))).collect()
    }

    /// The result line: `correct`, `attempted`, `failed` and the end-to-end
    /// metrics (untraced) or the per-layer metrics (traced).
    ///
    /// # Panics
    ///
    /// Panics if an end-to-end metric is missing: every workload measures
    /// all of them.
    pub fn result_line(&self, traced: bool) -> String {
        let table = if traced { PER_LAYER } else { END_TO_END };
        let fields: Vec<String> = table
            .iter()
            .map(|&(name, unit)| {
                let value = match self.metrics.get(name) {
                    Some((v, _)) => *v,
                    None if traced => 0.0,
                    None => panic!("end-to-end metric {name} was not measured"),
                };
                format!(
                    "{}: {{\"value\": {}, \"unit\": {}}}",
                    quote(name),
                    number(value),
                    quote(unit)
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0 && self.attempted > 0,
            self.attempted.max(1),
            self.failed,
            fields.join(", ")
        )
    }
}

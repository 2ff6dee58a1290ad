//! The standard query trace: a fixed small serving scenario rendered to
//! canonical text, committed at `tests/snapshots/serve_trace.txt`, replayed
//! byte-identically by the `trace_replay` integration test and printed by
//! `structurad --replay`. Any behavioural drift anywhere in the serving
//! stack (landmark selection, index tables, workload generation, journey
//! answers, response rendering) shows up as a diff against the committed
//! file.

use crate::index::{ServeConfig, ServeIndex};
use crate::shard::serve_serial;
use crate::workload::WorkloadConfig;
use csn_graph::generators;
use csn_temporal::markovian::EdgeMarkovian;

/// Schema tag on the first line of the trace (bump on intentional format
/// or scenario changes, regenerating the snapshot in the same commit).
pub const TRACE_VERSION: &str = "structura-serve-trace-v1";

/// Builds the fixed scenario — BA(60, 2) with a Markovian contact trace, a
/// 6-landmark index with a small trim overlay, 48 Zipf queries of every
/// kind — serves it serially, and renders `query => response` lines.
pub fn standard_trace() -> String {
    let g = generators::barabasi_albert(60, 2, 19).expect("valid BA parameters");
    let eg = EdgeMarkovian::new(60, 0.3, 0.35).generate(8, 23);
    let cfg = ServeConfig {
        landmarks: 6,
        landmark_seed: 0xC5,
        top_k: 8,
        trimmed_arcs: vec![(0, 1), (2, 0)],
        safety_dims_cap: 5,
    };
    let idx = ServeIndex::build(g, &cfg).with_temporal(eg);
    let wl = WorkloadConfig {
        queries: 48,
        users: 5_000,
        zipf_users: 1.1,
        zipf_nodes: 0.9,
        seed: 0x7EACE,
        safety_space: 1 << idx.safety_dims(),
        journey_horizon: 8,
    }
    .generate(60);

    let responses = serve_serial(&idx, &wl.queries);
    let mut out = String::new();
    out.push_str(TRACE_VERSION);
    out.push('\n');
    for (q, r) in wl.queries.iter().zip(&responses) {
        out.push_str(&q.render());
        out.push_str(" => ");
        out.push_str(&r.render());
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trace_is_deterministic_and_covers_every_query_kind() {
        let t = standard_trace();
        assert_eq!(t, standard_trace());
        assert!(t.starts_with(TRACE_VERSION));
        assert_eq!(t.lines().count(), 49);
        for kind in [
            "distance u=",
            "distance_exact",
            "forwarding_set",
            "structure",
            "rank",
            "safety_route",
            "journey",
        ] {
            assert!(t.contains(kind), "trace must exercise {kind}");
        }
    }
}

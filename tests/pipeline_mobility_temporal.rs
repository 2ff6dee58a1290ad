//! Pipeline: mobility models → contact traces → time-evolving graphs →
//! temporal routing and trimming (crates: mobility, temporal, trimming).

use csn_core::mobility::rwp::RandomWaypoint;
use csn_core::mobility::social::{Population, SocialContactModel};
use csn_core::mobility::ContactStream;
use csn_core::temporal::journey::{earliest_arrival, flooding_time};
use csn_core::trimming::static_rule::{earliest_arrival_trimmed, trim_arcs};
use csn_core::trimming::TrimOptions;
use std::collections::HashSet;

#[test]
fn rwp_trace_discretizes_and_routes() {
    let model = RandomWaypoint::default_config(20);
    let trace = model.simulate(600.0, 3);
    let eg = trace.to_time_evolving_graph(2.0);
    assert_eq!(eg.node_count(), 20);
    assert!(eg.contact_count() > 0);
    // Any pair that ever meets is temporally connected from t = 0 in at
    // least one direction (the earlier endpoint can reach the later one).
    let arr = earliest_arrival(&eg, 0, 0);
    let reached = arr.iter().filter(|a| a.is_some()).count();
    assert!(reached >= 2, "node 0 should reach someone, got {reached}");
}

#[test]
fn social_trace_floods_through_communities() {
    let pop = Population::random(30, &Population::fig6_radix(), 5);
    let model = SocialContactModel { base_rate: 1.0 / 60.0, beta: 0.8, mean_duration: 8.0 };
    let trace = model.simulate(&pop, 20_000.0, 7);
    let eg = trace.to_time_evolving_graph(20.0);
    let ft = flooding_time(&eg, 0, 0);
    assert!(ft.is_some(), "a dense social trace must flood");
}

#[test]
fn trimming_a_discretized_trace_preserves_delivery_times() {
    let model = RandomWaypoint::default_config(12);
    let trace = model.simulate(300.0, 9);
    let eg = trace.to_time_evolving_graph(5.0);
    let n = eg.node_count();
    let priority: Vec<u64> = (0..n as u64).map(|i| (i * 29) % 97).collect();
    let report = trim_arcs(&eg, &priority, TrimOptions::default());
    let removed: HashSet<_> = report.removed_arcs.iter().copied().collect();
    for s in 0..n {
        for start in [0, eg.horizon() / 2] {
            let plain = earliest_arrival(&eg, s, start);
            for d in 0..n {
                if s == d {
                    continue;
                }
                assert_eq!(
                    plain[d],
                    earliest_arrival_trimmed(&eg, &removed, s, d, start),
                    "ECT {s}->{d}@{start} changed after trimming"
                );
            }
        }
    }
}

#[test]
fn edge_markovian_flooding_beats_static_snapshot_reachability() {
    // Temporal reachability uses edges across time: a sparse dynamic graph
    // floods even when every individual snapshot is disconnected.
    use csn_core::temporal::markovian::EdgeMarkovian;
    let m = EdgeMarkovian::new(24, 0.7, 0.02);
    let eg = m.generate(300, 13);
    let mut some_snapshot_disconnected = false;
    let mut cur = eg.snapshot_cursor();
    for _ in 0..10 {
        if !csn_core::graph::traversal::is_connected(cur.graph()) {
            some_snapshot_disconnected = true;
        }
        cur.advance();
    }
    assert!(some_snapshot_disconnected, "density 0.028 snapshots are sparse");
    assert!(flooding_time(&eg, 0, 0).is_some(), "yet the time-evolving graph floods");
}

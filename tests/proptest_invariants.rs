//! Property-based invariants across the workspace (proptest).

use csn_core::graph::Graph;
use csn_core::temporal::TimeEvolvingGraph;
use proptest::prelude::*;

/// Strategy: a random simple graph as an edge list over `n` nodes.
fn arb_graph(max_n: usize) -> impl Strategy<Value = Graph> {
    (2..max_n).prop_flat_map(|n| {
        proptest::collection::vec((0..n, 0..n), 0..(n * 3)).prop_map(move |edges| {
            let mut g = Graph::new(n);
            for (u, v) in edges {
                if u != v && !g.has_edge(u, v) {
                    g.add_edge(u, v);
                }
            }
            g
        })
    })
}

/// Strategy: a random time-evolving graph.
fn arb_eg(max_n: usize, horizon: u32) -> impl Strategy<Value = TimeEvolvingGraph> {
    (2..max_n).prop_flat_map(move |n| {
        proptest::collection::vec((0..n, 0..n, 0..horizon), 0..(n * 4)).prop_map(move |contacts| {
            let mut eg = TimeEvolvingGraph::new(n, horizon);
            for (u, v, t) in contacts {
                if u != v {
                    eg.add_contact(u, v, t);
                }
            }
            eg
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn mis_always_maximal_independent(g in arb_graph(30)) {
        let priority: Vec<u64> = (0..g.node_count() as u64).map(|i| (i * 17) % 101).collect();
        let r = csn_core::labeling::mis::mis_distributed(&g, &priority);
        prop_assert!(csn_core::labeling::mis::is_maximal_independent(&g, &r.mis));
    }

    #[test]
    fn neighbor_designated_always_dominates(g in arb_graph(30)) {
        let priority: Vec<u64> = (0..g.node_count() as u64).collect();
        let ds = csn_core::labeling::mis::neighbor_designated_ds(&g, &priority);
        prop_assert!(csn_core::labeling::cds::is_dominating(&g, &ds));
    }

    #[test]
    fn marking_cds_on_connected_graphs(g in arb_graph(24)) {
        // Restrict to the largest component; marking is a CDS there unless
        // the component is complete.
        let mask = csn_core::graph::traversal::largest_component_mask(&g);
        let (sub, _) = g.induced_subgraph(&mask);
        let n = sub.node_count();
        if n >= 2 && sub.edge_count() < n * (n - 1) / 2 {
            let black = csn_core::labeling::cds::marking(&sub);
            prop_assert!(csn_core::labeling::cds::is_cds(&sub, &black));
            let priority: Vec<u64> = (0..n as u64).collect();
            let pruned = csn_core::labeling::cds::prune(&sub, &black, &priority);
            prop_assert!(csn_core::labeling::cds::is_cds(&sub, &pruned));
        }
    }

    #[test]
    fn interval_graphs_always_chordal(
        raw in proptest::collection::vec((0.0f64..100.0, 0.0f64..20.0), 1..25)
    ) {
        let intervals: Vec<_> = raw
            .iter()
            .map(|&(s, len)| csn_core::intersection::Interval::new(s, s + len))
            .collect();
        let g = csn_core::intersection::interval::interval_graph(&intervals);
        prop_assert!(csn_core::intersection::chordal::is_chordal(&g));
        prop_assert!(csn_core::intersection::chordal::is_interval_graph(&g));
    }

    #[test]
    fn foremost_journey_is_optimal_and_valid(
        eg in arb_eg(8, 12),
        banned in proptest::collection::vec((0..8usize, 0..8usize), 0..16),
        relay_bits in 0..256u32,
    ) {
        use csn_core::temporal::journey::{
            earliest_arrival, earliest_arrival_masked, enumerate_journeys, foremost_journey,
        };
        let n = eg.node_count();
        for s in 0..n.min(3) {
            let arr = earliest_arrival(&eg, s, 0);
            // The trimming rule's hop predicate: the source and the relays
            // in the mask may forward, over any arc not banned.
            let relays = |x: usize| (relay_bits >> x) & 1 == 1;
            let usable = |x: usize, y: usize| (x == s || relays(x)) && !banned.contains(&(x, y));
            let masked = earliest_arrival_masked(&eg, s, 0, usable);
            for t in 0..n {
                if s == t { continue; }
                let journeys = enumerate_journeys(&eg, s, t, 0);
                let brute = journeys.iter().map(|j| j.last_label()).min();
                prop_assert_eq!(arr[t], brute);
                let brute_masked = journeys
                    .iter()
                    .filter(|j| j.hops.iter().all(|&(x, y, _)| usable(x, y)))
                    .map(|j| j.last_label())
                    .min();
                prop_assert_eq!(masked[t], brute_masked);
                if arr[t].is_some() {
                    let j = foremost_journey(&eg, s, t, 0).expect("reachable");
                    prop_assert!(j.is_valid(&eg, s, 0));
                    prop_assert_eq!(Some(j.last_label()), arr[t]);
                }
            }
        }
    }

    #[test]
    fn trimming_never_changes_earliest_completion(eg in arb_eg(7, 10)) {
        use csn_core::temporal::journey::earliest_arrival;
        use csn_core::trimming::static_rule::{earliest_arrival_trimmed, trim_arcs};
        let n = eg.node_count();
        let priority: Vec<u64> = (0..n as u64).map(|i| (i * 7) % 31).collect();
        let report = trim_arcs(&eg, &priority, csn_core::trimming::TrimOptions::default());
        let removed: std::collections::HashSet<_> =
            report.removed_arcs.iter().copied().collect();
        for s in 0..n {
            for start in [0u32, 3] {
                let plain = earliest_arrival(&eg, s, start);
                for d in 0..n {
                    if s == d { continue; }
                    prop_assert_eq!(
                        plain[d],
                        earliest_arrival_trimmed(&eg, &removed, s, d, start)
                    );
                }
            }
        }
    }

    #[test]
    fn link_reversal_always_reconverges(g in arb_graph(16), dest_seed in 0usize..16) {
        use csn_core::layering::link_reversal::{BinaryLabelReversal, LabelInit};
        let mask = csn_core::graph::traversal::largest_component_mask(&g);
        let (sub, _) = g.induced_subgraph(&mask);
        if sub.node_count() >= 2 {
            let dest = dest_seed % sub.node_count();
            let heights: Vec<i64> = (0..sub.node_count() as i64).map(|i| (i * 13) % 37).collect();
            for init in [LabelInit::Full, LabelInit::Partial] {
                let mut m = BinaryLabelReversal::from_heights(&sub, &heights, dest, init);
                let stats = m.run(2_000_000);
                prop_assert!(stats.converged);
                prop_assert!(m.is_destination_oriented());
            }
        }
    }

    #[test]
    fn core_numbers_monotone_under_edge_addition(g in arb_graph(20)) {
        let before = csn_core::graph::cores::core_numbers(&g);
        let mut g2 = g.clone();
        // Add one arbitrary missing edge, if any.
        'outer: for u in 0..g.node_count() {
            for v in (u + 1)..g.node_count() {
                if !g2.has_edge(u, v) {
                    g2.add_edge(u, v);
                    break 'outer;
                }
            }
        }
        let after = csn_core::graph::cores::core_numbers(&g2);
        for (b, a) in before.iter().zip(&after) {
            prop_assert!(a >= b, "core number dropped after adding an edge");
        }
    }

    #[test]
    fn tree_coordinates_route_everyone(g in arb_graph(20)) {
        let mask = csn_core::graph::traversal::largest_component_mask(&g);
        let (sub, _) = g.induced_subgraph(&mask);
        if sub.node_count() >= 2 {
            let tc = csn_core::remapping::hyperbolic::TreeCoordinates::new(&sub, 0);
            for s in 0..sub.node_count() {
                let t = (s + 1) % sub.node_count();
                let path = tc.greedy_route(&sub, s, t);
                prop_assert_eq!(*path.last().expect("nonempty"), t);
            }
        }
    }

    #[test]
    fn safety_levels_never_overpromise(fault_bits in 0u16..u16::MAX) {
        use csn_core::labeling::safety::{fault_free_distance, SafetyLevels};
        let dims = 4u32;
        let faulty: Vec<bool> = (0..16).map(|i| fault_bits & (1 << i) != 0).collect();
        let sl = SafetyLevels::compute(dims, &faulty);
        for s in 0..16usize {
            if faulty[s] { continue; }
            for t in 0..16usize {
                if faulty[t] || s == t { continue; }
                let h = (s ^ t).count_ones();
                if h <= sl.level(s) {
                    prop_assert_eq!(fault_free_distance(dims, &faulty, s, t), Some(h));
                }
            }
        }
    }
}

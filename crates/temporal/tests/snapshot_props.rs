//! Property tests for the incremental snapshot engine: a [`SnapshotCursor`]
//! sweep equals the per-step `snapshot(t)` rebuilds at *every* time unit of
//! random EGs — including cursors rebuilt after `remove_label` /
//! `remove_edge` / `isolate_node` churn — and its per-step deltas are
//! exactly the edge-set differences between consecutive snapshots.

use csn_graph::NodeId;
use csn_temporal::{TimeEvolvingGraph, TimeUnit};
use proptest::prelude::*;
use std::collections::BTreeSet;

/// Strategy: a random EG as a contact list over `n` nodes and horizon `h`.
fn arb_eg(max_n: usize, max_h: TimeUnit) -> impl Strategy<Value = TimeEvolvingGraph> {
    (2..max_n, 1..max_h).prop_flat_map(|(n, h)| {
        proptest::collection::vec((0..n, 0..n, 0..h), 0..(n * 6)).prop_map(move |contacts| {
            let mut eg = TimeEvolvingGraph::new(n, h);
            for (u, v, t) in contacts {
                if u != v {
                    eg.add_contact(u, v, t);
                }
            }
            eg
        })
    })
}

/// Sweeps a fresh cursor across the whole horizon, checking structural
/// equality with the rebuilt snapshot at every position.
fn assert_cursor_matches(eg: &TimeEvolvingGraph) {
    let mut cur = eg.snapshot_cursor();
    for t in 0..eg.horizon().max(1) {
        assert_eq!(cur.time(), t);
        assert_eq!(*cur.graph(), eg.snapshot(t), "cursor diverged at t={t}");
        assert_eq!(cur.advance(), t + 1 < eg.horizon());
    }
}

/// `edges` as sorted `(min, max)` pairs, duplicates kept.
fn canonical<'a>(edges: impl IntoIterator<Item = &'a (NodeId, NodeId)>) -> Vec<(NodeId, NodeId)> {
    let mut out: Vec<_> = edges.into_iter().map(|&(u, v)| (u.min(v), u.max(v))).collect();
    out.sort_unstable();
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn deltas_are_exact_snapshot_differences(eg in arb_eg(12, 24)) {
        // Each delta list must equal a set difference, which also rules out
        // duplicates. Before t = 0 the edge set is empty, so appearing_at(0)
        // is E(G_0) and disappearing_at(0) is empty.
        let cur = eg.snapshot_cursor();
        let mut prev: BTreeSet<(NodeId, NodeId)> = BTreeSet::new();
        for t in 0..eg.horizon() {
            let next: BTreeSet<_> = eg.snapshot(t).edges().collect();
            prop_assert_eq!(
                canonical(cur.disappearing_at(t)),
                prev.difference(&next).copied().collect::<Vec<_>>(),
                "disappearing_at({}) is not E(G_t-1) minus E(G_t)", t
            );
            prop_assert_eq!(
                canonical(cur.appearing_at(t)),
                next.difference(&prev).copied().collect::<Vec<_>>(),
                "appearing_at({}) is not E(G_t) minus E(G_t-1)", t
            );
            prev = next;
        }
    }

    #[test]
    fn cursor_equals_snapshot_at_every_time_unit(eg in arb_eg(12, 24)) {
        assert_cursor_matches(&eg);
    }

    #[test]
    fn cursor_rebuilt_after_churn_still_matches(
        input in (
            arb_eg(10, 20),
            proptest::collection::vec((0..3usize, 0..10usize, 0..10usize, 0..20u32), 1..8),
        )
    ) {
        let (mut eg, ops) = input;
        assert_cursor_matches(&eg);
        let n = eg.node_count();
        for (op, a, b, t) in ops {
            let (u, v) = (a % n, b % n);
            match op {
                0 => {
                    eg.remove_label(u, v, t % eg.horizon());
                }
                1 => {
                    eg.remove_edge(u, v);
                }
                _ => {
                    eg.isolate_node(u);
                }
            }
            // The cursor is a frozen view, so churn means a fresh cursor —
            // which must again equal every rebuilt snapshot.
            assert_cursor_matches(&eg);
        }
    }
}

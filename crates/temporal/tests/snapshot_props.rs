//! Property tests for the incremental snapshot engine: a [`SnapshotCursor`]
//! sweep equals the per-step `snapshot(t)` rebuilds at *every* time unit of
//! random EGs, and its per-step deltas are exactly the edge-set differences
//! between consecutive snapshots, each in pair order.

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

/// `pairs` as node ids, after checking that they are in pair order:
/// strictly increasing `(min, max)` pairs.
fn in_pair_order(pairs: &[(u32, u32)]) -> Vec<(NodeId, NodeId)> {
    assert!(pairs.iter().all(|&(u, v)| u < v), "not (min, max) pairs: {pairs:?}");
    assert!(pairs.windows(2).all(|w| w[0] < w[1]), "not strictly increasing: {pairs:?}");
    pairs.iter().map(|&(u, v)| (u as NodeId, v as NodeId)).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn deltas_are_exact_snapshot_differences(eg in arb_eg(12, 24)) {
        // Each delta list must be in pair order and equal a set difference,
        // which also rules out duplicates. Before t = 0 the edge set is
        // empty, so appearing_at(0) is E(G_0) and disappearing_at(0) is
        // empty.
        let cur = eg.snapshot_cursor();
        let mut prev: BTreeSet<(NodeId, NodeId)> = BTreeSet::new();
        for t in 0..eg.horizon() {
            let next: BTreeSet<_> = eg.snapshot(t).edges().collect();
            prop_assert_eq!(
                in_pair_order(cur.disappearing_at(t)),
                prev.difference(&next).copied().collect::<Vec<_>>(),
                "disappearing_at({}) is not E(G_t-1) minus E(G_t)", t
            );
            prop_assert_eq!(
                in_pair_order(cur.appearing_at(t)),
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
}

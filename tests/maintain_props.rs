//! Property tests for the incremental structure-maintenance engine
//! (`csn_temporal::maintain`): every maintainer riding a [`TrackedCursor`]
//! equals its from-scratch oracle at *every* time unit of random EGs —
//! including cursors and maintainers rebuilt after `remove_label` /
//! `remove_edge` / `isolate_node` churn, the same operations
//! `snapshot_props.rs` exercises on the bare cursor — and a parallel
//! from-scratch oracle sweep at jobs ∈ {1, 2, 4, 7} is bit-identical to the
//! serial incremental one.

use csn_core::graph::cores::{core_numbers, IncrementalCores};
use csn_core::graph::{Graph, NodeId};
use csn_core::layering::nsf::{nsf_levels, top_level_count, IncrementalNsf};
use csn_core::temporal::{TimeEvolvingGraph, TimeUnit, TrackedCursor};
use csn_core::trimming::incremental::{forwarding_sets_at, IncrementalForwarding};
use proptest::prelude::*;

/// Strategy: a random EG as a contact list over `n` nodes and horizon `h`
/// (mirrors `snapshot_props.rs`).
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

/// A deterministic frozen trim overlay (~1/11 of all directed arcs): the
/// forwarding maintainer is agnostic to where the trim came from.
fn synthetic_trim(n: usize) -> Vec<(NodeId, NodeId)> {
    (0..n)
        .flat_map(|u| (0..n).map(move |v| (u, v)))
        .filter(|&(u, v)| u != v && (u * 31 + v * 7) % 11 == 0)
        .collect()
}

/// Sweeps a fresh tracked cursor across the whole horizon, checking every
/// maintained structure against its from-scratch oracle at every position.
fn assert_maintained_matches(eg: &TimeEvolvingGraph) {
    let trimmed = synthetic_trim(eg.node_count());
    let mut cur = TrackedCursor::new(eg);
    let hc = cur.register(Box::new(IncrementalCores::default()));
    let hn = cur.register(Box::new(IncrementalNsf::default()));
    let hf = cur.register(Box::new(IncrementalForwarding::new(&Graph::new(0), &trimmed)));
    for t in 0..eg.horizon().max(1) {
        assert_eq!(cur.time(), t);
        let g = cur.graph();
        assert_eq!(
            cur.view::<IncrementalCores>(hc).expect("cores").core_numbers(),
            core_numbers(g).as_slice(),
            "cores diverged at t={t}"
        );
        let nsf = cur.view::<IncrementalNsf>(hn).expect("nsf");
        assert_eq!(nsf.nsf_levels(), nsf_levels(g).as_slice(), "nsf levels diverged at t={t}");
        assert_eq!(
            nsf.top_level_count(),
            top_level_count(&nsf_levels(g)),
            "top-level count diverged at t={t}"
        );
        assert_eq!(
            cur.view::<IncrementalForwarding>(hf).expect("fwd").forwarding_sets(),
            &forwarding_sets_at(g, &trimmed)[..],
            "forwarding sets diverged at t={t}"
        );
        assert_eq!(cur.advance(), t + 1 < eg.horizon());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn maintained_structures_equal_scratch_at_every_time_unit(eg in arb_eg(12, 24)) {
        assert_maintained_matches(&eg);
    }

    #[test]
    fn maintainers_rebuilt_after_churn_still_match(
        input in (
            arb_eg(10, 16),
            proptest::collection::vec((0..3usize, 0..10usize, 0..10usize, 0..16u32), 1..6),
        )
    ) {
        let (mut eg, ops) = input;
        assert_maintained_matches(&eg);
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
            // The cursor is a frozen view, so churn means a fresh tracked
            // cursor and re-seeded maintainers — which must again equal
            // every from-scratch oracle.
            assert_maintained_matches(&eg);
        }
    }

    #[test]
    fn parallel_scratch_oracle_matches_serial_incremental(eg in arb_eg(10, 16)) {
        let trimmed = synthetic_trim(eg.node_count());
        // One serial incremental sweep, collecting the maintained state at
        // every t…
        let mut maintained = Vec::new();
        let mut cur = TrackedCursor::new(&eg);
        let hc = cur.register(Box::new(IncrementalCores::default()));
        let hn = cur.register(Box::new(IncrementalNsf::default()));
        let hf = cur.register(Box::new(IncrementalForwarding::new(&Graph::new(0), &trimmed)));
        loop {
            maintained.push((
                cur.view::<IncrementalCores>(hc).expect("cores").core_numbers().to_vec(),
                cur.view::<IncrementalNsf>(hn).expect("nsf").nsf_levels().to_vec(),
                cur.view::<IncrementalForwarding>(hf).expect("fwd").forwarding_sets().to_vec(),
            ));
            if !cur.advance() {
                break;
            }
        }
        // …must be bit-identical to from-scratch oracles evaluated on the
        // work-stealing pool at every job count.
        for jobs in [1usize, 2, 4, 7] {
            let (scratch, _) = csn_parallel::run_indexed(maintained.len(), jobs, |t, _| {
                let g = eg.snapshot(t as TimeUnit);
                (core_numbers(&g), nsf_levels(&g), forwarding_sets_at(&g, &trimmed))
            });
            prop_assert_eq!(&scratch, &maintained, "jobs={}", jobs);
        }
    }
}

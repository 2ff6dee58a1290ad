//! One faulted pub-sub run whose every counter and final-state digest is
//! pinned to fixed values. The other suites compare the stepper with
//! itself — across repeats and job counts — so a stepper that delivered
//! each receiver's messages in a consistently different order would pass
//! them all. This file pins the order itself: loss, geometric delay,
//! duplication, reorder, a per-edge override, random churn and topology
//! deltas all draw from the fault RNG in canonical order, and the protocol
//! folds every inbox entry, in delivery order, into its state.

use csn_distsim::{
    ChurnSchedule, FaultEvent, FaultModel, Neighborhood, Outbox, Protocol, RunStats, Simulator,
    TopologyDelta,
};
use csn_graph::{generators, Graph, NodeId};

const NODES: usize = 3_000;
const TOPICS: usize = 8;
const SEED: u64 = 41;

/// Per-node state of [`OrderedPubSub`].
#[derive(Debug, Clone, PartialEq, Eq)]
struct Node {
    /// Topics received.
    got: u32,
    /// Topics already forwarded.
    fwd: u32,
    /// Every inbox entry `(from, mask)`, folded in delivery order, seeded
    /// with the degree the node saw at its last `init`.
    trace: u64,
}

/// Nodes `0..TOPICS` each publish one topic; every node forwards each
/// topic bit once by broadcast and acknowledges the first sender of a
/// round that brought news by unicast (mask 0), which turns into a counted
/// misroute once a delta has removed that edge.
struct OrderedPubSub;

fn fold(h: u64, x: u64) -> u64 {
    (h ^ x).wrapping_mul(0x0000_0100_0000_01B3)
}

impl Protocol for OrderedPubSub {
    type State = Node;
    type Msg = u32;

    fn init(&self, u: NodeId, ctx: &Neighborhood) -> Node {
        let got = if u < TOPICS { 1 << u } else { 0 };
        Node { got, fwd: 0, trace: fold(0xCBF2_9CE4_8422_2325, ctx.degree() as u64) }
    }

    fn round(
        &self,
        _u: NodeId,
        state: &mut Node,
        _ctx: &Neighborhood,
        inbox: &[(NodeId, u32)],
        out: &mut Outbox<'_, u32>,
    ) {
        for &(from, mask) in inbox {
            state.got |= mask;
            state.trace = fold(fold(state.trace, from as u64), u64::from(mask));
        }
        let fresh = state.got & !state.fwd;
        if fresh != 0 {
            state.fwd |= fresh;
            out.broadcast(fresh);
            if let Some(&(from, _)) = inbox.first() {
                out.unicast(from, 0);
            }
        }
    }
}

/// BA(3,000, 3, seed 5).
fn graph() -> Graph {
    generators::barabasi_albert(NODES, 3, 5).unwrap()
}

/// The full gauntlet: 10% loss (60% on one of node 0's edges), 20%
/// geometric delay, 5% duplication, reorder, churn sparing the publishers,
/// and two deltas during the flood peak, each cutting the first edge of
/// twenty early (high-degree) nodes and adding a chord from each.
fn faults(g: &Graph) -> FaultModel {
    let mut churn = ChurnSchedule::random(NODES, 40, 0.004, 4, SEED);
    for p in 0..TOPICS {
        churn = churn.protect(p);
    }
    let cut = |lo: usize| -> TopologyDelta {
        let remove = (lo..lo + 20).map(|u| (u, g.neighbors(u)[0])).collect();
        let add = (lo..lo + 20).map(|u| (u, u + NODES / 2)).collect();
        TopologyDelta { add, remove }
    };
    FaultModel::lossy(0.1, SEED)
        .with_delay(0.2)
        .with_duplication(0.05)
        .with_reorder()
        .with_edge_drop(0, g.neighbors(0)[0], 0.6)
        .with_churn(churn)
        .with_event(2, FaultEvent::Delta(cut(10)))
        .with_event(3, FaultEvent::Delta(cut(40)))
}

/// FNV-1a over every final state, in node order.
fn digest(states: &[Node]) -> u64 {
    states.iter().fold(0xCBF2_9CE4_8422_2325, |h, s| {
        fold(fold(fold(h, u64::from(s.got)), u64::from(s.fwd)), s.trace)
    })
}

/// `(stats, in_flight(), digest)` after the flood peak's first four
/// rounds, then at exit of `run_until_stable(300, 4)`.
type Checkpoints = [(RunStats, usize, u64); 2];

fn run(g: &Graph, faults: &FaultModel, jobs: usize) -> Checkpoints {
    let mut sim = Simulator::with_faults(g, &OrderedPubSub, faults.clone()).with_jobs(jobs);
    for _ in 0..4 {
        sim.step();
    }
    let peak = (sim.stats(), sim.in_flight(), digest(sim.states()));
    let stats = sim.run_until_stable(300, 4);
    [peak, (stats, sim.in_flight(), digest(sim.states()))]
}

/// The exact results of [`run`] at any job count. They depend on each
/// receiver's message order and on the fault RNG's draw order, so a router
/// must reproduce them exactly, not merely agree with itself across jobs.
const PINNED: Checkpoints = [
    (
        RunStats {
            rounds: 4,
            sent: 40_503,
            messages: 33_792,
            dropped: 3_989,
            duplicated: 1_803,
            shed: 349,
            misrouted: 6,
            rejected_events: 0,
            retransmissions: 0,
            quiescent: false,
        },
        4_176,
        39_870_823_479_730_892,
    ),
    (
        RunStats {
            rounds: 44,
            sent: 52_499,
            messages: 49_045,
            dropped: 5_199,
            duplicated: 2_312,
            shed: 567,
            misrouted: 6,
            rejected_events: 0,
            retransmissions: 0,
            quiescent: true,
        },
        0,
        2_125_092_359_522_582_212,
    ),
];

#[test]
fn gauntlet_run_matches_pinned_counters_and_states() {
    let g = graph();
    let faults = faults(&g);
    for jobs in [1, 2] {
        let got = run(&g, &faults, jobs);
        assert_eq!(got, PINNED, "jobs={jobs}");
        for (s, in_flight, _) in got {
            assert_eq!(s.sent + s.duplicated, s.messages + s.dropped + s.shed + in_flight);
        }
    }
}

//! The static labeling schemes of §IV-A as genuine message-passing
//! protocols over `csn-distsim`.
//!
//! The module-level algorithms in [`crate::mis`] and [`crate::cds`] compute
//! the same labels with a centralized sweep per round; the implementations
//! here exchange real messages, so rounds *and messages* are accounted the
//! way §IV-C worries about, and the fault plans of `csn-distsim` apply.
//! Tests assert the message-passing runs reproduce the centralized labels
//! exactly on fault-free networks.

use csn_distsim::{
    stats_with_overhead, FaultModel, Neighborhood, Outbox, Protocol, Reliable, ReliableOverhead,
    RunStats, Simulator,
};
use csn_graph::{Graph, NodeId};

/// Messages of the three-color MIS election.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MisMsg {
    /// "I am still white" (sent with the sender's priority).
    StillWhite(u64),
    /// "I turned black."
    Declare,
}

/// Per-node state of the MIS protocol.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MisState {
    /// Competing.
    White,
    /// Clusterhead.
    Black,
    /// Dominated.
    Gray,
}

/// The distributed MIS election: each round white nodes announce
/// themselves; a white node that heard no higher-priority white neighbor
/// last round declares black; whites hearing a declare turn gray.
pub struct MisProtocol {
    /// Node priorities (distinct; ties broken by id).
    pub priority: Vec<u64>,
}

/// Internal per-node bookkeeping.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MisNodeState {
    /// Current color.
    pub color: MisState,
    /// Whether the initial announce round has happened.
    announced: bool,
    /// Highest (priority, id) heard from a white neighbor last round.
    best_white_heard: Option<(u64, NodeId)>,
}

impl Protocol for MisProtocol {
    type State = MisNodeState;
    type Msg = MisMsg;

    fn init(&self, _u: NodeId, _ctx: &Neighborhood) -> MisNodeState {
        MisNodeState { color: MisState::White, announced: false, best_white_heard: None }
    }

    fn round(
        &self,
        u: NodeId,
        state: &mut MisNodeState,
        _ctx: &Neighborhood,
        inbox: &[(NodeId, MisMsg)],
        out: &mut Outbox<'_, MisMsg>,
    ) {
        // Digest last round's messages.
        let mut heard_declare = false;
        let mut best: Option<(u64, NodeId)> = None;
        for &(from, msg) in inbox {
            match msg {
                MisMsg::Declare => heard_declare = true,
                MisMsg::StillWhite(p) => {
                    let k = (p, from);
                    if best.is_none_or(|b| k > b) {
                        best = Some(k);
                    }
                }
            }
        }
        state.best_white_heard = best;
        if state.color == MisState::White {
            if heard_declare {
                state.color = MisState::Gray;
                return;
            }
            if state.announced {
                let me = (self.priority[u], u);
                let is_max = state.best_white_heard.is_none_or(|b| me > b);
                if is_max {
                    state.color = MisState::Black;
                    out.broadcast(MisMsg::Declare);
                    return;
                }
            }
            state.announced = true;
            out.broadcast(MisMsg::StillWhite(self.priority[u]));
        }
    }
}

/// Outcome of a message-passing labeling run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProtocolOutcome {
    /// Final membership mask (black nodes).
    pub black: Vec<bool>,
    /// Rounds until quiescence.
    pub rounds: usize,
    /// Messages delivered.
    pub messages: usize,
}

/// Runs the MIS election protocol to quiescence.
pub fn run_mis_protocol(g: &Graph, priority: &[u64], max_rounds: usize) -> ProtocolOutcome {
    let protocol = MisProtocol { priority: priority.to_vec() };
    let mut sim = Simulator::new(g, &protocol);
    let stats = sim.run_until_quiet(max_rounds);
    ProtocolOutcome {
        black: sim.states().iter().map(|s| s.color == MisState::Black).collect(),
        rounds: stats.rounds,
        messages: stats.messages,
    }
}

/// Runs the MIS election under a fault model with a stability-window
/// convergence detector, stepping rounds on `jobs` workers (bit-identical
/// outcome at any job count: deterministic wave-merge); returns the
/// outcome plus the full [`RunStats`].
pub fn run_mis_protocol_with(
    g: &Graph,
    priority: &[u64],
    max_rounds: usize,
    window: usize,
    faults: FaultModel,
    jobs: usize,
) -> (ProtocolOutcome, RunStats) {
    let protocol = MisProtocol { priority: priority.to_vec() };
    let mut sim = Simulator::with_faults(g, &protocol, faults).with_jobs(jobs);
    let stats = sim.run_until_stable(max_rounds, window);
    let outcome = ProtocolOutcome {
        black: sim.states().iter().map(|s| s.color == MisState::Black).collect(),
        rounds: stats.rounds,
        messages: stats.messages,
    };
    (outcome, stats)
}

/// The marking process (black iff two unconnected neighbors) as a protocol:
/// round 1, everyone broadcasts its neighbor list; round 2, each node
/// checks pairwise adjacency of its neighbors from the received lists.
pub struct MarkingProtocol;

/// Per-node state of the marking protocol.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MarkingState {
    /// Decided black?
    pub black: bool,
    /// Neighbor lists received: (neighbor, its neighbors).
    tables: Vec<(NodeId, Vec<NodeId>)>,
    sent: bool,
    decided: bool,
}

impl Protocol for MarkingProtocol {
    type State = MarkingState;
    type Msg = Vec<NodeId>;

    fn init(&self, _u: NodeId, _ctx: &Neighborhood) -> MarkingState {
        MarkingState::default()
    }

    fn round(
        &self,
        _u: NodeId,
        state: &mut MarkingState,
        ctx: &Neighborhood,
        inbox: &[(NodeId, Vec<NodeId>)],
        out: &mut Outbox<'_, Vec<NodeId>>,
    ) {
        for (from, list) in inbox {
            state.tables.push((*from, list.clone()));
        }
        if !state.sent {
            state.sent = true;
            out.broadcast(ctx.neighbors().to_vec());
            return;
        }
        if !state.decided && state.tables.len() == ctx.degree() {
            state.decided = true;
            // Two unconnected neighbors <=> some neighbor pair (a, b) where
            // b is absent from a's table.
            let nbrs = ctx.neighbors();
            'outer: for (i, &a) in nbrs.iter().enumerate() {
                let table_a = state
                    .tables
                    .iter()
                    .find(|(f, _)| *f == a)
                    .map(|(_, t)| t.as_slice())
                    .unwrap_or(&[]);
                for &b in nbrs.iter().skip(i + 1) {
                    if !table_a.contains(&b) {
                        state.black = true;
                        break 'outer;
                    }
                }
            }
        }
    }
}

/// Runs the marking protocol (terminates in 3 rounds).
pub fn run_marking_protocol(g: &Graph) -> ProtocolOutcome {
    let mut sim = Simulator::new(g, &MarkingProtocol);
    let stats = sim.run_until_quiet(10);
    ProtocolOutcome {
        black: sim.states().iter().map(|s| s.black).collect(),
        rounds: stats.rounds,
        messages: stats.messages,
    }
}

/// Runs the marking protocol raw under a fault model, stepping rounds on
/// `jobs` workers (bit-identical outcome at any job count: deterministic
/// wave-merge); lost neighbor lists leave nodes undecided (their `tables`
/// never fill), reproducing the §IV-C view-inconsistency failure.
pub fn run_marking_protocol_with(
    g: &Graph,
    max_rounds: usize,
    window: usize,
    faults: FaultModel,
    jobs: usize,
) -> (ProtocolOutcome, RunStats) {
    let mut sim = Simulator::with_faults(g, &MarkingProtocol, faults).with_jobs(jobs);
    let stats = sim.run_until_stable(max_rounds, window);
    let outcome = ProtocolOutcome {
        black: sim.states().iter().map(|s| s.black).collect(),
        rounds: stats.rounds,
        messages: stats.messages,
    };
    (outcome, stats)
}

/// Runs the marking protocol wrapped in [`Reliable`] under a fault model,
/// stepping rounds on `jobs` workers (bit-identical outcome at any job
/// count: deterministic wave-merge): retransmission masks the loss, so
/// every node decides, at the message and round overhead reported in the
/// returned [`ReliableOverhead`].
pub fn run_marking_protocol_reliable(
    g: &Graph,
    max_rounds: usize,
    faults: FaultModel,
    jobs: usize,
) -> (ProtocolOutcome, RunStats, ReliableOverhead) {
    let reliable = Reliable::persistent(MarkingProtocol);
    let mut sim = Simulator::with_faults(g, &reliable, faults).with_jobs(jobs);
    let window = 2 * reliable.backoff_cap + 1;
    sim.run_until_stable(max_rounds, window);
    let (stats, overhead) = stats_with_overhead(&sim);
    let outcome = ProtocolOutcome {
        black: sim.states().iter().map(|s| s.inner.black).collect(),
        rounds: stats.rounds,
        messages: stats.messages,
    };
    (outcome, stats, overhead)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{paper_fig8, paper_fig8_priorities};
    use csn_graph::generators;
    use rand::{seq::SliceRandom, SeedableRng};

    #[test]
    fn protocol_mis_matches_centralized_on_fig8() {
        let g = paper_fig8();
        let out = run_mis_protocol(&g, &paper_fig8_priorities(), 100);
        assert_eq!(out.black, vec![true, true, false, false, true, false]);
        assert!(out.messages > 0);
    }

    #[test]
    fn protocol_mis_matches_centralized_on_random_graphs() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        for trial in 0..10 {
            let g = generators::erdos_renyi(60, 0.08, 700 + trial).unwrap();
            let mut priority: Vec<u64> = (0..60).collect();
            priority.shuffle(&mut rng);
            let central = crate::mis::mis_distributed(&g, &priority);
            let protocol = run_mis_protocol(&g, &priority, 1000);
            assert_eq!(protocol.black, central.mis, "trial {trial}");
            assert!(crate::mis::is_maximal_independent(&g, &protocol.black));
        }
    }

    #[test]
    fn protocol_marking_matches_centralized() {
        for trial in 0..8 {
            let g = generators::erdos_renyi(50, 0.12, 900 + trial).unwrap();
            let central = crate::cds::marking(&g);
            let protocol = run_marking_protocol(&g);
            assert_eq!(protocol.black, central, "trial {trial}");
            assert!(protocol.rounds <= 4, "marking is localized: {}", protocol.rounds);
        }
    }

    #[test]
    fn faulted_mis_is_deterministic_and_faultless_matches_plain() {
        let g = generators::erdos_renyi(40, 0.1, 77).unwrap();
        let priority: Vec<u64> = (0..40).collect();
        let plain = run_mis_protocol(&g, &priority, 1000);
        let (clean, _) = run_mis_protocol_with(&g, &priority, 1000, 1, FaultModel::none(), 1);
        assert_eq!(plain, clean);
        let faults = FaultModel::lossy(0.3, 5).with_delay(0.2);
        let (a, sa) = run_mis_protocol_with(&g, &priority, 1000, 3, faults.clone(), 1);
        let (b, sb) = run_mis_protocol_with(&g, &priority, 1000, 3, faults, 1);
        assert_eq!(a, b, "same fault seed, same outcome");
        assert_eq!(sa, sb);
    }

    #[test]
    fn lossy_marking_leaves_nodes_undecided_but_reliable_marking_decides() {
        let g = generators::erdos_renyi(40, 0.15, 42).unwrap();
        let central = crate::cds::marking(&g);
        let faults = FaultModel::lossy(0.4, 9);
        let (raw, raw_stats) = run_marking_protocol_with(&g, 200, 1, faults.clone(), 1);
        assert!(raw_stats.dropped > 0);
        assert_ne!(raw.black, central, "lost neighbor lists starve the decision rule");
        let (rel, rel_stats, overhead) = run_marking_protocol_reliable(&g, 5000, faults, 1);
        assert_eq!(rel.black, central, "retransmission masks the loss");
        assert!(overhead.retransmissions > 0);
        assert_eq!(rel_stats.retransmissions, overhead.retransmissions);
        assert!(rel_stats.messages > raw_stats.messages, "reliability costs messages");
    }

    #[test]
    fn marking_message_cost_is_one_broadcast_each() {
        let g = generators::star(6);
        let out = run_marking_protocol(&g);
        // Each node broadcasts once: total deliveries = 2 * |E|.
        assert_eq!(out.messages, 2 * g.edge_count());
        assert!(out.black[0], "the hub sees unconnected leaves");
        assert!(!out.black[1]);
    }
}

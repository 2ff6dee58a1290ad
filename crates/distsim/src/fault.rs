//! The fault model: message-level faults, node churn, and topology deltas.
//!
//! [`FaultModel`] generalizes the original drop/one-round-delay plan into
//! the full §IV-C threat model:
//!
//! * **message loss** — i.i.d. per message ([`FaultModel::drop_prob`]) with
//!   per-edge overrides ([`FaultModel::with_edge_drop`]), so one flaky radio
//!   link can be modeled without making the whole network lossy;
//! * **multi-round geometric delay** — a delayed message is re-examined
//!   every round and stays queued with probability
//!   [`FaultModel::delay_prob`], giving geometrically distributed delays
//!   instead of the old fixed one-round penalty;
//! * **duplication** ([`FaultModel::duplicate_prob`]) and **reordering**
//!   ([`FaultModel::reorder`]) — the classic unreliable-channel behaviors a
//!   [`crate::Reliable`] adapter must mask;
//! * **node churn** — a seeded schedule of [`FaultEvent::Crash`] /
//!   [`FaultEvent::Recover`] events ([`ChurnSchedule::random`]): crashed
//!   nodes skip rounds and shed their queues, recovered nodes rejoin with a
//!   fresh [`crate::Protocol::init`] state;
//! * **topology deltas** — [`FaultEvent::Delta`] events rewiring the graph
//!   mid-run, either hand-written or streamed from a
//!   [`csn_temporal::SnapshotCursor`] via [`snapshot_delta_events`] so
//!   labeling protocols run over the same time-evolving traces the trimming
//!   experiments use.
//!
//! Every random decision is drawn from one `StdRng` seeded by
//! [`FaultModel::seed`] in a fixed order (nodes ascending, messages in send
//! order), so a faulted run is fully deterministic per seed — the
//! `fault_props` property suite asserts bit-identical [`crate::RunStats`]
//! and final states across repeated runs.

use csn_graph::NodeId;
use csn_temporal::SnapshotCursor;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A batch of edge insertions and removals applied atomically at the start
/// of a round (before any node runs).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct TopologyDelta {
    /// Edges to add.
    pub add: Vec<(NodeId, NodeId)>,
    /// Edges to remove.
    pub remove: Vec<(NodeId, NodeId)>,
}

/// A scheduled fault event, applied at the start of its round; one naming
/// a node outside the graph is skipped ([`crate::RunStats::rejected_events`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FaultEvent {
    /// The node stops executing rounds; its queued messages are shed and
    /// future messages to it are shed on arrival.
    Crash(NodeId),
    /// The node rejoins with a fresh [`crate::Protocol::init`] state and
    /// empty queues (crash-recover with state loss).
    Recover(NodeId),
    /// The topology is rewired: removals first, then additions. Every
    /// later [`crate::Neighborhood`] borrows the rewired rows.
    Delta(TopologyDelta),
}

/// A seeded crash/recover schedule — the node-churn workload that
/// dynamic-network studies (real-time community tracking, dynamic
/// attributed networks) treat as the defining stressor.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ChurnSchedule {
    events: Vec<(usize, FaultEvent)>,
}

impl ChurnSchedule {
    /// Generates a schedule over `rounds` rounds for `nodes` nodes: each
    /// live node crashes with probability `crash_prob` per round and
    /// recovers `down_rounds` rounds later (if still within the horizon).
    /// Fully determined by `seed`.
    pub fn random(
        nodes: usize,
        rounds: usize,
        crash_prob: f64,
        down_rounds: usize,
        seed: u64,
    ) -> Self {
        // Distinct stream from the delivery RNG so churn and message faults
        // do not alias even under the same user-facing seed.
        let mut rng = StdRng::seed_from_u64(seed ^ 0x4348_5552_4e21);
        let mut events = Vec::new();
        for u in 0..nodes {
            let mut r = 1;
            while r < rounds {
                if rng.gen::<f64>() < crash_prob {
                    events.push((r, FaultEvent::Crash(u)));
                    let back = r + down_rounds.max(1);
                    if back >= rounds {
                        break;
                    }
                    events.push((back, FaultEvent::Recover(u)));
                    r = back + 1;
                } else {
                    r += 1;
                }
            }
        }
        events.sort_by_key(|(r, _)| *r);
        ChurnSchedule { events }
    }

    /// Removes every event touching `node` — e.g. to keep a source or sink
    /// alive for the whole run.
    pub fn protect(mut self, node: NodeId) -> Self {
        self.events.retain(
            |(_, ev)| !matches!(ev, FaultEvent::Crash(u) | FaultEvent::Recover(u) if *u == node),
        );
        self
    }

    /// The scheduled events, sorted by round.
    pub fn events(&self) -> &[(usize, FaultEvent)] {
        &self.events
    }
}

/// Fault injection for a [`crate::Simulator`] run — see the [module
/// docs](self) for the full threat model. Build with the `with_*`
/// combinators:
///
/// ```
/// use csn_distsim::{ChurnSchedule, FaultModel};
///
/// let faults = FaultModel::lossy(0.2, 7)
///     .with_delay(0.1)
///     .with_duplication(0.05)
///     .with_reorder()
///     .with_edge_drop(0, 1, 0.9)
///     .with_churn(ChurnSchedule::random(10, 50, 0.01, 5, 7).protect(0));
/// assert_eq!(faults.drop_prob, 0.2);
/// ```
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FaultModel {
    /// Probability a message is silently dropped (per message, i.i.d.).
    pub drop_prob: f64,
    /// Probability a message is delayed each round it is examined: delays
    /// are geometric with this parameter, not a fixed one-round penalty.
    pub delay_prob: f64,
    /// Probability a delivered message is duplicated (the extra copy takes
    /// its own delay draw).
    pub duplicate_prob: f64,
    /// Shuffle each inbox deterministically before delivery.
    pub reorder: bool,
    /// Per-edge overrides of `drop_prob`, as `(u, v, prob)` on the
    /// undirected edge `{u, v}`.
    pub edge_drop: Vec<(NodeId, NodeId, f64)>,
    /// Scheduled churn and topology events, `(round, event)`; sorted by the
    /// simulator at construction.
    pub schedule: Vec<(usize, FaultEvent)>,
    /// RNG seed: two runs with the same model are bit-identical.
    pub seed: u64,
}

impl FaultModel {
    /// No faults.
    pub fn none() -> Self {
        FaultModel::default()
    }

    /// Pure i.i.d. message loss.
    pub fn lossy(drop_prob: f64, seed: u64) -> Self {
        FaultModel { drop_prob, seed, ..FaultModel::default() }
    }

    /// Sets the geometric per-round delay probability.
    pub fn with_delay(mut self, delay_prob: f64) -> Self {
        self.delay_prob = delay_prob;
        self
    }

    /// Sets the duplication probability.
    pub fn with_duplication(mut self, duplicate_prob: f64) -> Self {
        self.duplicate_prob = duplicate_prob;
        self
    }

    /// Enables deterministic inbox reordering.
    pub fn with_reorder(mut self) -> Self {
        self.reorder = true;
        self
    }

    /// Overrides the drop probability on the undirected edge `{u, v}`.
    pub fn with_edge_drop(mut self, u: NodeId, v: NodeId, prob: f64) -> Self {
        self.edge_drop.push((u, v, prob));
        self
    }

    /// Schedules one event at the start of `round`.
    pub fn with_event(mut self, round: usize, event: FaultEvent) -> Self {
        self.schedule.push((round, event));
        self
    }

    /// Appends a churn schedule.
    pub fn with_churn(mut self, churn: ChurnSchedule) -> Self {
        self.schedule.extend(churn.events.iter().cloned());
        self
    }

    /// Streams a [`SnapshotCursor`]'s per-time-unit edge deltas into the
    /// schedule via [`snapshot_delta_events`]. Build the simulator on the
    /// cursor's `t = 0` graph so round 0 sees snapshot 0.
    pub fn with_snapshot_deltas(mut self, cursor: &SnapshotCursor, rounds_per_unit: usize) -> Self {
        self.schedule.extend(snapshot_delta_events(cursor, rounds_per_unit));
        self
    }
}

/// Converts a [`SnapshotCursor`]'s precomputed appear/disappear deltas into
/// [`FaultEvent::Delta`]s: time unit `t` becomes an event at round
/// `t * rounds_per_unit`, so a protocol gets `rounds_per_unit` rounds on
/// each snapshot (0 counts as 1); the product saturates at `usize::MAX`,
/// which the units past it share, still in unit order. Each delta lists its
/// edges in pair order. The cursor's `t = 0` graph is the starting topology
/// and produces no event.
pub fn snapshot_delta_events(
    cursor: &SnapshotCursor,
    rounds_per_unit: usize,
) -> Vec<(usize, FaultEvent)> {
    let rpu = rounds_per_unit.max(1);
    let edges = |pairs: &[(u32, u32)]| -> Vec<(NodeId, NodeId)> {
        pairs.iter().map(|&(u, v)| (u as NodeId, v as NodeId)).collect()
    };
    let mut events = Vec::new();
    for t in 1..cursor.horizon() {
        let (add, remove) = (edges(cursor.appearing_at(t)), edges(cursor.disappearing_at(t)));
        if add.is_empty() && remove.is_empty() {
            continue;
        }
        let round = (t as usize).saturating_mul(rpu);
        events.push((round, FaultEvent::Delta(TopologyDelta { add, remove })));
    }
    events
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn churn_schedule_is_seed_deterministic_and_sorted() {
        let a = ChurnSchedule::random(20, 100, 0.05, 8, 3);
        let b = ChurnSchedule::random(20, 100, 0.05, 8, 3);
        assert_eq!(a, b);
        assert!(!a.events().is_empty(), "5% crash rate over 100 rounds should fire");
        assert!(a.events().windows(2).all(|w| w[0].0 <= w[1].0), "sorted by round");
        let c = ChurnSchedule::random(20, 100, 0.05, 8, 4);
        assert_ne!(a, c, "different seed, different schedule");
    }

    #[test]
    fn churn_crash_precedes_matching_recover() {
        let s = ChurnSchedule::random(10, 200, 0.03, 5, 11);
        for u in 0..10usize {
            let mut down = false;
            for (_, ev) in s.events() {
                match ev {
                    FaultEvent::Crash(v) if *v == u => {
                        assert!(!down, "node {u} crashed twice without recovering");
                        down = true;
                    }
                    FaultEvent::Recover(v) if *v == u => {
                        assert!(down, "node {u} recovered while up");
                        down = false;
                    }
                    _ => {}
                }
            }
        }
    }

    #[test]
    fn protect_removes_a_nodes_events() {
        let s = ChurnSchedule::random(6, 400, 0.2, 3, 1).protect(2);
        assert!(s
            .events()
            .iter()
            .all(|(_, ev)| !matches!(ev, FaultEvent::Crash(2) | FaultEvent::Recover(2))));
        assert!(!s.events().is_empty());
    }

    #[test]
    fn snapshot_deltas_stream_the_cursor() {
        use csn_temporal::TimeEvolvingGraph;
        let mut eg = TimeEvolvingGraph::new(4, 6);
        eg.add_contact(0, 1, 0);
        eg.add_contact(0, 1, 1);
        eg.add_contact(1, 2, 3);
        let cur = eg.snapshot_cursor();
        let events = snapshot_delta_events(&cur, 2);
        // t=2: (0,1) disappears; t=3: (1,2) appears; t=4: (1,2) disappears.
        assert_eq!(events.len(), 3);
        assert_eq!(events[0].0, 4);
        assert_eq!(
            events[0].1,
            FaultEvent::Delta(TopologyDelta { add: vec![], remove: vec![(0, 1)] })
        );
        assert_eq!(events[1].0, 6);
        assert_eq!(
            events[1].1,
            FaultEvent::Delta(TopologyDelta { add: vec![(1, 2)], remove: vec![] })
        );
    }

    #[test]
    fn snapshot_delta_rounds_saturate_in_unit_order() {
        use csn_temporal::TimeEvolvingGraph;
        // Deltas at units 2 and 3 only: (0, 1) appears at 2, and at 3 it
        // vanishes while (1, 2) appears and runs to the horizon.
        let mut eg = TimeEvolvingGraph::new(3, 4);
        eg.add_contact(0, 1, 2);
        eg.add_contact(2, 1, 3);
        let events = snapshot_delta_events(&eg.snapshot_cursor(), usize::MAX);
        let unit2 = FaultEvent::Delta(TopologyDelta { add: vec![(0, 1)], remove: vec![] });
        let unit3 = FaultEvent::Delta(TopologyDelta { add: vec![(1, 2)], remove: vec![(0, 1)] });
        assert_eq!(events, [(usize::MAX, unit2), (usize::MAX, unit3)]);
    }
}

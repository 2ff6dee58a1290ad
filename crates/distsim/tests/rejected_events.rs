//! Caller-supplied node ids outside the graph never panic the simulator:
//! a Crash or Recover of a node `>= n`, and a delta edge with an endpoint
//! `>= n` or a self-loop, whether scheduled or applied directly, are
//! skipped and counted in `RunStats::rejected_events`; the k-hop views of
//! such a node are empty. Runs in every build.

use csn_distsim::{
    k_hop_subgraph, k_hop_view, FaultEvent, FaultModel, Neighborhood, Outbox, Protocol, RunStats,
    Simulator, TopologyDelta,
};
use csn_graph::{generators, NodeId};

/// One-shot flood from node 0. State: `(has_token, has_sent)`.
struct Flood;
impl Protocol for Flood {
    type State = (bool, bool);
    type Msg = ();
    fn init(&self, u: NodeId, _ctx: &Neighborhood) -> Self::State {
        (u == 0, false)
    }
    fn round(
        &self,
        _u: NodeId,
        state: &mut Self::State,
        _ctx: &Neighborhood,
        inbox: &[(NodeId, ())],
        out: &mut Outbox<'_, ()>,
    ) {
        if !state.0 && !inbox.is_empty() {
            state.0 = true;
        }
        if state.0 && !state.1 {
            state.1 = true;
            out.broadcast(());
        }
    }
}

fn assert_conserved(s: &RunStats, in_flight: usize) {
    assert_eq!(s.sent + s.duplicated, s.messages + s.dropped + s.shed + in_flight, "{s:?}");
}

fn add(u: NodeId, v: NodeId) -> FaultEvent {
    FaultEvent::Delta(TopologyDelta { add: vec![(u, v)], remove: vec![] })
}

#[test]
fn out_of_range_scheduled_events_are_skipped_and_counted() {
    let cases = [
        FaultEvent::Crash(9),
        FaultEvent::Recover(9),
        add(2, 2),
        add(0, 7),
        FaultEvent::Delta(TopologyDelta { add: vec![], remove: vec![(7, 0)] }),
    ];
    let g = generators::path(4);
    for event in cases {
        // A drop override on a non-edge is never consulted: harmless.
        let faults = FaultModel::none().with_edge_drop(0, 99, 0.5).with_event(1, event.clone());
        let mut sim = Simulator::with_faults(&g, &Flood, faults);
        let stats = sim.run_until_quiet(20);
        assert_eq!(stats.rejected_events, 1, "{event:?}");
        assert!(stats.quiescent, "{event:?}");
        assert_eq!(sim.graph().edge_count(), 3, "{event:?} must not rewire the path");
        assert!(g.nodes().all(|u| sim.state(u).0), "{event:?}: the flood still covers the path");
        assert_conserved(&stats, sim.in_flight());
    }
}

#[test]
fn direct_apply_delta_skips_only_the_bad_edges() {
    let g = generators::path(4);
    let mut sim = Simulator::new(&g, &Flood);
    sim.apply_delta(&TopologyDelta { add: vec![(0, 7), (0, 3), (1, 1)], remove: vec![(7, 0)] });
    assert_eq!(sim.stats().rejected_events, 3);
    assert!(sim.graph().has_edge(0, 3), "the valid edge of the batch still lands");
    let stats = sim.run_until_quiet(20);
    assert_eq!(stats.rejected_events, 3);
    assert!(g.nodes().all(|u| sim.state(u).0));
    assert_conserved(&stats, sim.in_flight());
}

#[test]
fn k_hop_views_of_an_out_of_range_node_are_empty() {
    let g = generators::path(4);
    assert!(k_hop_view(&g, 9, 2).is_empty());
    let (sub, back) = k_hop_subgraph(&g, 9, 2);
    assert_eq!(sub.node_count(), 0);
    assert!(back.is_empty());
}

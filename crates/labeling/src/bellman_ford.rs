//! Distributed Bellman–Ford as a dynamic labeling process (§IV-B).
//!
//! "The Bellman–Ford algorithm maintains the shortest path and distance
//! information from each node to a destination. Each distance estimation at
//! a node can be considered a labeling process which involves many rounds
//! of routing table update in case of a link failure." §IV-C names its slow
//! convergence as the canonical weakness of distributed solutions; the
//! count-to-infinity behavior after a failure is reproduced here.

use csn_distsim::{FaultModel, Neighborhood, Outbox, Protocol, RunStats, Simulator};
use csn_graph::{Graph, NodeId};

/// Distance label: hop count to the destination, capped at `horizon`
/// (a poisoned-reverse-free distance-vector, so count-to-infinity shows).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DistanceLabel {
    /// Estimated hops to the destination (`horizon` = unreachable).
    pub dist: usize,
    /// Next hop toward the destination, if any.
    pub next_hop: Option<NodeId>,
}

/// The distance-vector protocol itself, public so benches and experiments
/// can drive a [`Simulator`] directly (e.g. to compare full per-node states
/// across job counts).
pub struct BellmanFord {
    /// Destination every node labels its distance to.
    pub dest: NodeId,
    /// Distance cap — the distance-vector's "infinity".
    pub horizon: usize,
}

/// Per-node state of [`BellmanFord`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BfState {
    /// The node's current distance label.
    pub label: DistanceLabel,
    /// Last advertised distance (to avoid re-broadcasting unchanged labels).
    advertised: Option<usize>,
    /// Latest estimate heard from each neighbor.
    table: std::collections::HashMap<NodeId, usize>,
}

impl Protocol for BellmanFord {
    type State = BfState;
    type Msg = usize;

    fn init(&self, u: NodeId, _ctx: &Neighborhood) -> BfState {
        let dist = if u == self.dest { 0 } else { self.horizon };
        BfState {
            label: DistanceLabel { dist, next_hop: None },
            advertised: None,
            table: std::collections::HashMap::new(),
        }
    }

    fn round(
        &self,
        u: NodeId,
        state: &mut BfState,
        _ctx: &Neighborhood,
        inbox: &[(NodeId, usize)],
        out: &mut Outbox<'_, usize>,
    ) {
        for &(from, d) in inbox {
            state.table.insert(from, d);
        }
        if u != self.dest {
            // Relax over the neighbor table.
            let best =
                state.table.iter().map(|(&v, &d)| (d.saturating_add(1).min(self.horizon), v)).min();
            match best {
                Some((d, v)) if d < self.horizon => {
                    state.label = DistanceLabel { dist: d, next_hop: Some(v) };
                }
                _ => {
                    state.label = DistanceLabel { dist: self.horizon, next_hop: None };
                }
            }
        }
        if state.advertised != Some(state.label.dist) {
            state.advertised = Some(state.label.dist);
            out.broadcast(state.label.dist);
        }
    }
}

/// Outcome of a distributed Bellman–Ford run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BfOutcome {
    /// Final distance labels.
    pub labels: Vec<DistanceLabel>,
    /// Rounds until quiescence.
    pub rounds: usize,
    /// Messages delivered.
    pub messages: usize,
    /// Whether the protocol quiesced within the round budget.
    pub converged: bool,
}

/// Runs distributed Bellman–Ford to `dest` on `g`. `horizon` caps distances
/// (the "infinity" of the distance vector); `max_rounds` bounds execution.
pub fn run(g: &Graph, dest: NodeId, horizon: usize, max_rounds: usize) -> BfOutcome {
    let protocol = BellmanFord { dest, horizon };
    let mut sim = Simulator::new(g, &protocol);
    let stats = sim.run_until_quiet(max_rounds);
    BfOutcome {
        labels: sim.states().iter().map(|s| s.label).collect(),
        rounds: stats.rounds,
        messages: stats.messages,
        converged: stats.quiescent,
    }
}

/// Runs distributed Bellman–Ford under a fault model — loss, delay,
/// duplication, churn, or streamed topology deltas — detecting convergence
/// with a stability window of `window` rounds (see
/// [`Simulator::run_until_stable`]), with the round stepper fanned out over
/// `jobs` workers. The outcome and stats are bit-identical at any job count
/// (the deterministic wave-merge of [`csn_distsim::Simulator::step`]), so
/// `jobs` is purely a wall-clock knob. Returns the outcome plus the full
/// [`RunStats`] so experiments can report the §IV-C message overhead.
pub fn run_resilient(
    g: &Graph,
    dest: NodeId,
    horizon: usize,
    max_rounds: usize,
    window: usize,
    faults: FaultModel,
    jobs: usize,
) -> (BfOutcome, RunStats) {
    let protocol = BellmanFord { dest, horizon };
    let mut sim = Simulator::with_faults(g, &protocol, faults).with_jobs(jobs);
    let stats = sim.run_until_stable(max_rounds, window);
    let outcome = BfOutcome {
        labels: sim.states().iter().map(|s| s.label).collect(),
        rounds: stats.rounds,
        messages: stats.messages,
        converged: stats.quiescent,
    };
    (outcome, stats)
}

/// Runs Bellman–Ford, then removes edge `(a, b)` and continues from the
/// converged state (warm tables), returning the re-convergence outcome —
/// the §IV-B "link failure" scenario.
pub fn run_with_failure(
    g: &Graph,
    dest: NodeId,
    horizon: usize,
    failure: (NodeId, NodeId),
    max_rounds: usize,
) -> (BfOutcome, BfOutcome) {
    let protocol = BellmanFord { dest, horizon };
    let mut sim = Simulator::new(g, &protocol);
    let s1 = sim.run_until_quiet(max_rounds);
    let before = BfOutcome {
        labels: sim.states().iter().map(|s| s.label).collect(),
        rounds: s1.rounds,
        messages: s1.messages,
        converged: s1.quiescent,
    };
    // Rebuild on the failed topology, seeding each node's table and label
    // with the converged state (minus the failed link's entries).
    let mut g2 = g.clone();
    g2.remove_edge(failure.0, failure.1);
    let mut sim2 = Simulator::new(&g2, &protocol);
    // Warm start: transplant labels/tables.
    let warm: Vec<BfState> = sim
        .states()
        .iter()
        .enumerate()
        .map(|(u, s)| {
            let mut table = s.table.clone();
            if u == failure.0 {
                table.remove(&failure.1);
            }
            if u == failure.1 {
                table.remove(&failure.0);
            }
            BfState { label: s.label, advertised: None, table }
        })
        .collect();
    sim2.transplant_states(warm);
    let s2 = sim2.run_until_quiet(max_rounds);
    let after = BfOutcome {
        labels: sim2.states().iter().map(|s| s.label).collect(),
        rounds: s2.rounds,
        messages: s2.messages,
        converged: s2.quiescent,
    };
    (before, after)
}

#[cfg(test)]
mod tests {
    use super::*;
    use csn_graph::{generators, traversal::bfs_distances};

    #[test]
    fn converges_to_bfs_distances() {
        let g = generators::erdos_renyi(40, 0.1, 3).unwrap();
        let out = run(&g, 0, 64, 1000);
        assert!(out.converged);
        let truth = bfs_distances(&g, 0);
        for u in g.nodes() {
            let expect = if truth[u] == usize::MAX { 64 } else { truth[u] };
            assert_eq!(out.labels[u].dist, expect, "node {u}");
        }
    }

    #[test]
    fn next_hops_form_shortest_paths() {
        let g = generators::erdos_renyi(30, 0.15, 9).unwrap();
        let out = run(&g, 0, 64, 1000);
        let truth = bfs_distances(&g, 0);
        for u in g.nodes() {
            if u == 0 || truth[u] == usize::MAX {
                continue;
            }
            let hop = out.labels[u].next_hop.expect("reachable node has next hop");
            assert_eq!(truth[hop] + 1, truth[u], "next hop of {u} not on a shortest path");
        }
    }

    #[test]
    fn rounds_scale_with_eccentricity() {
        // Convergence needs about as many rounds as the farthest distance.
        let g = generators::path(30);
        let out = run(&g, 0, 64, 1000);
        assert!(out.converged);
        assert!(out.rounds >= 29, "path needs ~n rounds, got {}", out.rounds);
    }

    #[test]
    fn failure_on_tree_triggers_count_to_infinity() {
        // Path 0-1-2: cutting (0, 1) strands 1 and 2; without split horizon
        // they count up to the horizon together — the classic pathology.
        let g = generators::path(3);
        let horizon = 32;
        let (before, after) = run_with_failure(&g, 0, horizon, (0, 1), 10_000);
        assert!(before.converged && after.converged);
        assert_eq!(before.labels[2].dist, 2);
        assert_eq!(after.labels[1].dist, horizon);
        assert_eq!(after.labels[2].dist, horizon);
        // Counting to infinity takes ~horizon rounds — the slow convergence
        // §IV-C complains about.
        assert!(
            after.rounds + 4 >= horizon / 2,
            "expected slow count-to-infinity, got {} rounds",
            after.rounds
        );
    }

    #[test]
    fn failure_with_alternate_route_reconverges_quickly() {
        // Cycle: losing one edge leaves the long way around.
        let g = generators::cycle(10);
        let (before, after) = run_with_failure(&g, 0, 64, (0, 1), 10_000);
        assert!(after.converged);
        assert_eq!(before.labels[1].dist, 1);
        assert_eq!(after.labels[1].dist, 9, "long way around");
        let mut g2 = g.clone();
        g2.remove_edge(0, 1);
        let truth = bfs_distances(&g2, 0);
        for u in g.nodes() {
            assert_eq!(after.labels[u].dist, truth[u], "node {u}");
        }
    }

    #[test]
    fn resilient_without_faults_matches_plain_run() {
        let g = generators::erdos_renyi(30, 0.12, 6).unwrap();
        let plain = run(&g, 0, 64, 1000);
        let (resilient, stats) = run_resilient(&g, 0, 64, 1000, 1, FaultModel::none(), 1);
        assert_eq!(plain, resilient);
        assert!(stats.quiescent);
        assert_eq!(stats.sent, stats.messages);
    }

    #[test]
    fn loss_never_shortens_distance_estimates() {
        // Lost advertisements can only hide shorter routes, so every
        // surviving label is an overestimate (or the horizon).
        let g = generators::erdos_renyi(40, 0.1, 12).unwrap();
        let truth = bfs_distances(&g, 0);
        let (out, stats) = run_resilient(&g, 0, 64, 2000, 3, FaultModel::lossy(0.4, 21), 1);
        assert!(stats.dropped > 0);
        assert_eq!(stats.sent, stats.messages + stats.dropped, "accounting reconciles");
        for u in g.nodes() {
            let lower = if truth[u] == usize::MAX { 64 } else { truth[u] };
            assert!(out.labels[u].dist >= lower, "node {u} beat the true distance");
        }
    }

    #[test]
    fn message_count_reported() {
        let g = generators::star(6);
        let out = run(&g, 0, 16, 100);
        assert!(out.messages > 0);
        assert!(out.converged);
        assert!(out.labels.iter().skip(1).all(|l| l.dist == 1));
    }
}

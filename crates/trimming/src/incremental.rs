//! Incrementally maintained forwarding sets under churn:
//! [`IncrementalForwarding`].
//!
//! §III-A consumes two structures per snapshot of a dynamic network: the
//! static-rule *trimmed arc set* (arcs every message can avoid because a
//! replacement path departs no earlier and arrives no later —
//! [`crate::static_rule::trim_arcs`]) and, per node, the *forwarding set* of
//! live out-arcs it may still use. A naive temporal sweep re-derives both at
//! every `t`; this module instead freezes the trim decision once (it is a
//! property of the whole time-evolving graph, not of one snapshot) and
//! maintains the per-node live forwarding sets as contacts appear and
//! disappear.
//!
//! Trimmed arcs are *directed*: the undirected contact `(u, v)` yields arcs
//! `u → v` and `v → u`, each independently trimmable. A trimmed arc stays
//! trimmed even if its contact disappears and reappears — the replacement
//! path that justified the trim is a whole-trace property — while delivery
//! over untrimmed arcs simply follows the live contacts.
//!
//! # Performance
//!
//! Rebuilding all forwarding sets costs `O(n + m)` per snapshot; a churn
//! step only changes the sets of the `O(Δ_t)` endpoint nodes, and
//! [`IncrementalForwarding`] touches exactly those (two counted node
//! touches per changed edge, plus the `O(log deg)` sorted insertion). It
//! reads only the step's delta, never the snapshot itself, which stays with
//! the `TrackedCursor` that drives it. The from-scratch
//! [`forwarding_sets_at`] is the oracle the `maintain_props` suite gates
//! against, bitwise, at every `t`.

use crate::static_rule::TrimReport;
use csn_graph::{Graph, GraphView, NodeId};
use csn_temporal::maintain::StructureMaintainer;
use std::collections::HashSet;

/// Appends node `u`'s live forwarding set on `g` — its neighbors `v`
/// (ascending) with the arc `u → v` not in `trimmed` — to `out`. Every
/// forwarding set is built here: by [`forwarding_sets_at`], by
/// [`IncrementalForwarding`]'s seeding, and straight into flat per-node
/// layouts such as the serving index's.
pub fn push_forwarding_set<G: GraphView>(
    g: &G,
    trimmed: &HashSet<(NodeId, NodeId)>,
    u: NodeId,
    out: &mut Vec<NodeId>,
) {
    out.reserve(g.degree(u));
    let start = out.len();
    out.extend(g.neighbors(u).filter(|&v| !trimmed.contains(&(u, v))));
    out[start..].sort_unstable();
}

/// Every node's live forwarding set on `g` under `trimmed`, via
/// [`push_forwarding_set`].
fn sets_on<G: GraphView>(g: &G, trimmed: &HashSet<(NodeId, NodeId)>) -> Vec<Vec<NodeId>> {
    g.nodes()
        .map(|u| {
            let mut set = Vec::new();
            push_forwarding_set(g, trimmed, u, &mut set);
            set
        })
        .collect()
}

/// From-scratch oracle: each node's live forwarding set on `g` — its
/// neighbors `v` (ascending) with the arc `u → v` not in `trimmed`.
pub fn forwarding_sets_at<G: GraphView>(g: &G, trimmed: &[(NodeId, NodeId)]) -> Vec<Vec<NodeId>> {
    sets_on(g, &trimmed.iter().copied().collect())
}

/// Per-node live forwarding sets maintained under edge churn, beneath a
/// frozen static-rule trimmed arc overlay. See the [module docs](self).
///
/// # Examples
///
/// ```
/// use csn_graph::Graph;
/// use csn_temporal::{TimeEvolvingGraph, TrackedCursor};
/// use csn_trimming::incremental::{forwarding_sets_at, IncrementalForwarding};
///
/// let mut eg = TimeEvolvingGraph::new(3, 2);
/// eg.add_contact(0, 1, 0); // gone at t = 1
/// eg.add_periodic(1, 2, 0, 1);
/// eg.add_contact(0, 2, 1); // new at t = 1
/// let trimmed = [(1, 0)]; // arc 1 → 0 has a replacement path
/// let mut cur = TrackedCursor::new(&eg);
/// let h = cur.register(Box::new(IncrementalForwarding::new(&Graph::new(0), &trimmed)));
/// let inc: &IncrementalForwarding = cur.view(h).expect("registered");
/// assert_eq!(inc.forwarding_set(0), &[1]); // 0 → 1 stays live
/// assert_eq!(inc.forwarding_set(1), &[2]); // 1 → 0 is trimmed
///
/// cur.advance(); // the contacts churn
/// let inc: &IncrementalForwarding = cur.view(h).expect("registered");
/// assert_eq!(inc.forwarding_sets(), &forwarding_sets_at(cur.graph(), &trimmed)[..]);
/// assert_eq!(inc.live_arc_count(), 4);
/// ```
#[derive(Debug, Clone, Default)]
pub struct IncrementalForwarding {
    trimmed: HashSet<(NodeId, NodeId)>,
    sets: Vec<Vec<NodeId>>,
    live_arcs: usize,
    touched: u64,
}

impl IncrementalForwarding {
    /// Seeds the maintained sets from `g` under the given (frozen) trimmed
    /// directed arcs.
    pub fn new(g: &Graph, trimmed_arcs: &[(NodeId, NodeId)]) -> Self {
        let mut inc = IncrementalForwarding {
            trimmed: trimmed_arcs.iter().copied().collect(),
            ..IncrementalForwarding::default()
        };
        inc.rebuild_sets(g);
        inc
    }

    /// Convenience: freeze the arcs a [`crate::static_rule::trim_arcs`] run
    /// removed and seed from `g`.
    pub fn from_trim_report(g: &Graph, report: &TrimReport) -> Self {
        IncrementalForwarding::new(g, &report.removed_arcs)
    }

    fn rebuild_sets(&mut self, g: &Graph) {
        self.sets = sets_on(g, &self.trimmed);
        self.live_arcs = self.sets.iter().map(Vec::len).sum();
    }

    /// Node `u`'s live forwarding set, ascending.
    pub fn forwarding_set(&self, u: NodeId) -> &[NodeId] {
        &self.sets[u]
    }

    /// All live forwarding sets — equal to
    /// `forwarding_sets_at(g, trimmed)` on the latest snapshot `g`.
    pub fn forwarding_sets(&self) -> &[Vec<NodeId>] {
        &self.sets
    }

    /// Total number of live directed arcs (sum of set sizes).
    pub fn live_arc_count(&self) -> usize {
        self.live_arcs
    }

    /// Whether the directed arc `u → v` is in the frozen trimmed overlay.
    pub fn is_trimmed(&self, u: NodeId, v: NodeId) -> bool {
        self.trimmed.contains(&(u, v))
    }

    /// Nodes whose forwarding set was examined since the last re-seed —
    /// two per changed edge.
    pub fn touched_nodes(&self) -> u64 {
        self.touched
    }

    fn arc_on(&mut self, u: NodeId, v: NodeId) {
        if !self.trimmed.contains(&(u, v)) {
            let pos = self.sets[u].binary_search(&v).expect_err("arc was absent");
            self.sets[u].insert(pos, v);
            self.live_arcs += 1;
        }
    }

    fn arc_off(&mut self, u: NodeId, v: NodeId) {
        if !self.trimmed.contains(&(u, v)) {
            let pos = self.sets[u].binary_search(&v).expect("arc was present");
            self.sets[u].remove(pos);
            self.live_arcs -= 1;
        }
    }
}

impl StructureMaintainer for IncrementalForwarding {
    fn name(&self) -> &'static str {
        "forwarding"
    }

    /// Re-seeds the live sets from `g`. The trimmed overlay is *kept* — it
    /// is a whole-trace property, not a per-snapshot one.
    fn reseed(&mut self, g: &Graph) {
        self.touched = 0;
        self.rebuild_sets(g);
    }

    /// Patches only the endpoints' sets.
    ///
    /// # Panics
    ///
    /// Panics if a removed live arc is missing from its set or an added
    /// live arc is already in it: the delta broke the trait's contract.
    fn apply(&mut self, _g: &Graph, removed: &[(NodeId, NodeId)], added: &[(NodeId, NodeId)]) {
        for &(u, v) in removed {
            self.touched += 2;
            self.arc_off(u, v);
            self.arc_off(v, u);
        }
        for &(u, v) in added {
            self.touched += 2;
            self.arc_on(u, v);
            self.arc_on(v, u);
        }
    }

    fn touched_nodes(&self) -> u64 {
        self.touched
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::static_rule::{trim_arcs, TrimOptions};
    use csn_temporal::paper::fig2_example;
    use csn_temporal::{TimeEvolvingGraph, TrackedCursor};

    #[test]
    fn matches_oracle_across_a_tracked_sweep_under_fig2_trim() {
        let eg = fig2_example();
        // Priorities matching the paper: p(A) > p(B) > p(C) > p(D).
        let priority: Vec<u64> = vec![40, 30, 20, 10];
        let report = trim_arcs(&eg, &priority, TrimOptions::default());
        assert!(!report.removed_arcs.is_empty(), "fig2 trims something");

        let mut cur = TrackedCursor::new(&eg);
        let h = cur
            .register(Box::new(IncrementalForwarding::new(&Graph::new(0), &report.removed_arcs)));
        loop {
            let inc: &IncrementalForwarding = cur.view(h).expect("typed view");
            let oracle = forwarding_sets_at(cur.graph(), &report.removed_arcs);
            assert_eq!(inc.forwarding_sets(), &oracle[..], "t={}", cur.time());
            assert_eq!(inc.live_arc_count(), oracle.iter().map(Vec::len).sum::<usize>());
            if !cur.advance() {
                break;
            }
        }
    }

    #[test]
    fn trimmed_arcs_stay_trimmed_across_reappearance() {
        // The contact is up at t = 0, gone at t = 1 and back at t = 2.
        let mut eg = TimeEvolvingGraph::new(2, 3);
        eg.add_contact(0, 1, 0);
        eg.add_contact(0, 1, 2);
        let mut cur = TrackedCursor::new(&eg);
        let h = cur.register(Box::new(IncrementalForwarding::new(&Graph::new(0), &[(0, 1)])));
        let live = |cur: &TrackedCursor| {
            let inc: &IncrementalForwarding = cur.view(h).expect("typed view");
            assert!(inc.is_trimmed(0, 1));
            (inc.forwarding_set(0).to_vec(), inc.forwarding_set(1).to_vec(), inc.live_arc_count())
        };
        assert_eq!(live(&cur), (vec![], vec![0], 1));
        cur.advance();
        assert_eq!(live(&cur), (vec![], vec![], 0));
        cur.advance();
        assert_eq!(live(&cur), (vec![], vec![0], 1), "trim survives churn");
    }

    #[test]
    fn noops_do_not_touch() {
        // An always-on contact: no step changes the graph.
        let mut eg = TimeEvolvingGraph::new(3, 4);
        eg.add_periodic(0, 1, 0, 1);
        let mut cur = TrackedCursor::new(&eg);
        let h = cur.register(Box::new(IncrementalForwarding::new(&Graph::new(0), &[])));
        while cur.advance() {}
        let inc: &IncrementalForwarding = cur.view(h).expect("typed view");
        assert_eq!(inc.touched_nodes(), 0);
        assert_eq!(inc.forwarding_sets(), &forwarding_sets_at(cur.graph(), &[])[..]);
    }
}

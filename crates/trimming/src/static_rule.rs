//! The paper's static trimming rule on time-evolving graphs (§III-A).
//!
//! > "Node `u` can be trimmed if for any path `w -i-> u -j-> v` such that
//! > `i <= j` there is another path, called a replacement path,
//! > `w -i'-> u_1 -> … -> u_k -j'-> v` such that `i <= i'` and `j' <= j`.
//! > Here, we only compare the edge labels of the first and last hops…
//! > To avoid circular replacement, each node `u` is assigned a distinct
//! > priority `p(u)`. A node can be replaced only if its priority is lower
//! > than all intermediate nodes in the replacement path."
//!
//! Two granularities are implemented:
//!
//! * **Node trimming** ([`node_replaceable`], [`trim_nodes`],
//!   [`trim_nodes_localized`]) — a replaceable node is removed from the
//!   relay backbone together with its links. Earliest completion times
//!   between *surviving* nodes are preserved.
//! * **Directional arc trimming** ([`arc_replaceable`], [`trim_arcs`]) — the
//!   paper's *link replacement rule* refinement, read directionally: "A can
//!   ignore neighbor D" removes the **transit arc** `A -> D` (A stops
//!   forwarding through D) while D may keep forwarding through A, and A
//!   still delivers directly to D when D is the final destination. With the
//!   delivery exemption, earliest completion times are preserved for
//!   *every* source/destination pair ([`earliest_arrival_trimmed`]).
//!
//! Both the uncapped replacement search and [`earliest_arrival_trimmed`] are
//! one call of csn-temporal's earliest-arrival search,
//! [`earliest_arrival_masked`], whose hop predicate rules out the relays
//! that may not carry a replacement and the arcs already trimmed.

use csn_graph::NodeId;
use csn_temporal::journey::earliest_arrival_masked;
use csn_temporal::{TimeEvolvingGraph, TimeUnit};
use std::collections::HashSet;

/// Options controlling the trimming rule.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TrimOptions {
    /// Cap on intermediate nodes in a replacement path. `None` allows any
    /// length (preserves earliest completion time); `Some(1)` additionally
    /// bounds detour hop counts ("we can require that each replacement path
    /// have, at most, one intermediate node").
    pub max_intermediates: Option<usize>,
}

/// Outcome of a trimming pass.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct TrimReport {
    /// Nodes removed (isolated), in removal order.
    pub removed_nodes: Vec<NodeId>,
    /// Transit arcs removed, in removal order.
    pub removed_arcs: Vec<(NodeId, NodeId)>,
    /// Contacts before trimming.
    pub contacts_before: usize,
    /// Contacts after trimming (node trimming) or transit arcs surviving ×
    /// labels (arc trimming reports contacts of the footprint unchanged).
    pub contacts_after: usize,
}

impl TrimReport {
    /// Fraction of contacts removed.
    pub fn trimmed_fraction(&self) -> f64 {
        if self.contacts_before == 0 {
            0.0
        } else {
            1.0 - self.contacts_after as f64 / self.contacts_before as f64
        }
    }
}

/// Whether a replacement journey `w -> v` exists that departs at or after
/// `depart`, arrives at or before `arrive_by`, avoids the nodes in
/// `forbidden_nodes` and the directed arcs in `banned_arcs`, and whose
/// intermediates all have priority above `floor_priority`.
#[allow(clippy::too_many_arguments)]
fn has_replacement(
    eg: &TimeEvolvingGraph,
    w: NodeId,
    v: NodeId,
    depart: TimeUnit,
    arrive_by: TimeUnit,
    forbidden_nodes: &[NodeId],
    banned_arcs: &HashSet<(NodeId, NodeId)>,
    floor_priority: u64,
    priority: &[u64],
    opts: TrimOptions,
) -> bool {
    if forbidden_nodes.contains(&w) || forbidden_nodes.contains(&v) {
        return false;
    }
    match opts.max_intermediates {
        Some(cap) => bounded_search(
            eg,
            w,
            v,
            depart,
            arrive_by,
            forbidden_nodes,
            banned_arcs,
            floor_priority,
            priority,
            cap,
        ),
        None => {
            let relays = |x: NodeId| !forbidden_nodes.contains(&x) && priority[x] > floor_priority;
            let usable =
                |x: NodeId, y: NodeId| (x == w || relays(x)) && !banned_arcs.contains(&(x, y));
            earliest_arrival_masked(eg, w, depart, usable)[v].is_some_and(|t| t <= arrive_by)
        }
    }
}

#[allow(clippy::too_many_arguments)]
fn bounded_search(
    eg: &TimeEvolvingGraph,
    w: NodeId,
    v: NodeId,
    depart: TimeUnit,
    arrive_by: TimeUnit,
    forbidden_nodes: &[NodeId],
    banned_arcs: &HashSet<(NodeId, NodeId)>,
    floor_priority: u64,
    priority: &[u64],
    cap: usize,
) -> bool {
    // Direct hop.
    if !banned_arcs.contains(&(w, v)) {
        if let Some(labels) = eg.labels(w, v) {
            let pos = labels.partition_point(|&l| l < depart);
            if labels.get(pos).is_some_and(|&l| l <= arrive_by) {
                return true;
            }
        }
    }
    if cap == 0 {
        return false;
    }
    let nbrs: Vec<(NodeId, Vec<TimeUnit>)> =
        eg.neighbors(w).map(|(x, ls)| (x, ls.to_vec())).collect();
    for (x, labels_wx) in nbrs {
        if x == v
            || forbidden_nodes.contains(&x)
            || priority[x] <= floor_priority
            || banned_arcs.contains(&(w, x))
        {
            continue;
        }
        let pos = labels_wx.partition_point(|&l| l < depart);
        if let Some(&l1) = labels_wx.get(pos) {
            // Departing at the earliest usable label dominates later ones.
            if l1 <= arrive_by
                && bounded_search(
                    eg,
                    x,
                    v,
                    l1,
                    arrive_by,
                    forbidden_nodes,
                    banned_arcs,
                    floor_priority,
                    priority,
                    cap - 1,
                )
            {
                return true;
            }
        }
    }
    false
}

/// Earliest arrival from `source` to `dest` at `start` in a transit-trimmed
/// graph: a removed arc `(x, y)` may still be used when `y == dest` (direct
/// delivery exemption). Returns the arrival time, if any; `None` if either
/// id is outside the EG.
pub fn earliest_arrival_trimmed(
    eg: &TimeEvolvingGraph,
    removed_arcs: &HashSet<(NodeId, NodeId)>,
    source: NodeId,
    dest: NodeId,
    start: TimeUnit,
) -> Option<TimeUnit> {
    let usable = |u: NodeId, v: NodeId| v == dest || !removed_arcs.contains(&(u, v));
    earliest_arrival_masked(eg, source, start, usable).get(dest).copied().flatten()
}

/// Whether the transit arc `x -> y` is replaceable (the paper's link rule,
/// read directionally). Both usage contexts must have replacements avoiding
/// the arc (and every arc in `already_removed`), with intermediates of
/// priority above `p(y)` — the bypassed neighbor:
///
/// 1. *arc as second hop*: `w -i-> x -(arc at j)-> y` needs `w ⇝ y`
///    departing `>= i`, arriving `<= j`;
/// 2. *arc as first hop*: `x -(arc at i)-> y -j-> v` needs `x ⇝ v`
///    departing `>= i`, arriving `<= j` (this is the paper's
///    `A -3-> D -6-> C` vs `A -4-> B -5-> C` comparison).
pub fn arc_replaceable(
    eg: &TimeEvolvingGraph,
    x: NodeId,
    y: NodeId,
    priority: &[u64],
    already_removed: &HashSet<(NodeId, NodeId)>,
    opts: TrimOptions,
) -> bool {
    let Some(labels_xy) = eg.labels(x, y).map(<[TimeUnit]>::to_vec) else {
        return false;
    };
    let floor = priority[y];
    let mut banned = already_removed.clone();
    banned.insert((x, y));
    // Context 1: arc as second hop.
    let in_nbrs: Vec<(NodeId, Vec<TimeUnit>)> =
        eg.neighbors(x).filter(|&(w, _)| w != y).map(|(w, ls)| (w, ls.to_vec())).collect();
    for (w, labels_wx) in &in_nbrs {
        for &i in labels_wx {
            let jpos = labels_xy.partition_point(|&l| l < i);
            let Some(&j) = labels_xy.get(jpos) else { continue };
            if !has_replacement(eg, *w, y, i, j, &[], &banned, floor, priority, opts) {
                return false;
            }
        }
    }
    // Context 2: arc as first hop.
    let out_nbrs: Vec<(NodeId, Vec<TimeUnit>)> =
        eg.neighbors(y).filter(|&(v, _)| v != x).map(|(v, ls)| (v, ls.to_vec())).collect();
    for &i in &labels_xy {
        for (v, labels_yv) in &out_nbrs {
            let jpos = labels_yv.partition_point(|&l| l < i);
            let Some(&j) = labels_yv.get(jpos) else { continue };
            if !has_replacement(eg, x, *v, i, j, &[], &banned, floor, priority, opts) {
                return false;
            }
        }
    }
    true
}

/// Whether node `u` is replaceable: every two-hop context `w -i-> u -j-> v`
/// with `i <= j` (taking, per `(w, v, i)`, the tightest `j`) has a
/// replacement avoiding `u` whose intermediates have priority above `p(u)`.
/// A `u` outside the EG has no neighbors and so no context: it is
/// replaceable, as an isolated node is.
pub fn node_replaceable(
    eg: &TimeEvolvingGraph,
    u: NodeId,
    priority: &[u64],
    opts: TrimOptions,
) -> bool {
    let nbrs: Vec<(NodeId, Vec<TimeUnit>)> =
        eg.neighbors(u).map(|(v, ls)| (v, ls.to_vec())).collect();
    let banned = HashSet::new();
    for (w, labels_wu) in &nbrs {
        for (v, labels_uv) in &nbrs {
            if w == v {
                continue;
            }
            for &i in labels_wu {
                let jpos = labels_uv.partition_point(|&l| l < i);
                let Some(&j) = labels_uv.get(jpos) else { continue };
                if !has_replacement(eg, *w, *v, i, j, &[u], &banned, priority[u], priority, opts) {
                    return false;
                }
            }
        }
    }
    true
}

/// Trims all replaceable transit arcs, revalidating against the accumulated
/// removals (sequential). Arcs bypassing low-priority neighbors are tried
/// first. Returns the removed arc set in the report; the contact structure
/// itself is untouched (arcs are a forwarding-policy overlay).
pub fn trim_arcs(eg: &TimeEvolvingGraph, priority: &[u64], opts: TrimOptions) -> TrimReport {
    let mut report = TrimReport {
        contacts_before: eg.contact_count(),
        contacts_after: eg.contact_count(),
        ..Default::default()
    };
    let mut removed: HashSet<(NodeId, NodeId)> = HashSet::new();
    loop {
        let mut arcs: Vec<(NodeId, NodeId)> = eg
            .edges()
            .iter()
            .flat_map(|e| [(e.u, e.v), (e.v, e.u)])
            .filter(|a| !removed.contains(a))
            .collect();
        arcs.sort_by_key(|&(x, y)| (priority[y], priority[x]));
        let mut removed_any = false;
        for (x, y) in arcs {
            if arc_replaceable(eg, x, y, priority, &removed, opts) {
                removed.insert((x, y));
                report.removed_arcs.push((x, y));
                removed_any = true;
            }
        }
        if !removed_any {
            break;
        }
    }
    report
}

/// `eg` without the contacts of the `removed` nodes: every temporal edge
/// touching no removed node, its labels replayed through `add_contact` in
/// `edges()` order and orientation. An `EG` only grows, so node trimming
/// builds the trimmed one anew; the removed ids stay, isolated.
fn without_nodes(eg: &TimeEvolvingGraph, removed: &[NodeId]) -> TimeEvolvingGraph {
    let mut kept = TimeEvolvingGraph::new(eg.node_count(), eg.horizon());
    for e in eg.edges() {
        if !removed.contains(&e.u) && !removed.contains(&e.v) {
            for &t in &e.labels {
                kept.add_contact(e.u, e.v, t);
            }
        }
    }
    kept
}

/// Trims all replaceable nodes sequentially (lowest priority first),
/// revalidating after each removal. Removed nodes become isolated.
pub fn trim_nodes(eg: &mut TimeEvolvingGraph, priority: &[u64], opts: TrimOptions) -> TrimReport {
    let mut report = TrimReport { contacts_before: eg.contact_count(), ..Default::default() };
    loop {
        let mut nodes: Vec<NodeId> =
            (0..eg.node_count()).filter(|&u| eg.neighbors(u).count() > 0).collect();
        nodes.sort_by_key(|&u| priority[u]);
        let mut removed_any = false;
        for u in nodes {
            if eg.neighbors(u).count() > 0 && node_replaceable(eg, u, priority, opts) {
                *eg = without_nodes(eg, &[u]);
                report.removed_nodes.push(u);
                removed_any = true;
            }
        }
        if !removed_any {
            break;
        }
    }
    report.contacts_after = eg.contact_count();
    report
}

/// One simultaneous localized pass: every node decides replaceability from
/// the *original* graph; all replaceable nodes are removed at once. The
/// priority guard ("lower than all intermediates") is what keeps
/// simultaneous removals from invalidating each other — replacement paths
/// of the highest-priority victim survive, and induction downward splices
/// the rest.
pub fn trim_nodes_localized(
    eg: &mut TimeEvolvingGraph,
    priority: &[u64],
    opts: TrimOptions,
) -> TrimReport {
    let mut report = TrimReport { contacts_before: eg.contact_count(), ..Default::default() };
    report.removed_nodes = (0..eg.node_count())
        .filter(|&u| eg.neighbors(u).count() > 0)
        .filter(|&u| node_replaceable(eg, u, priority, opts))
        .collect();
    *eg = without_nodes(eg, &report.removed_nodes);
    report.contacts_after = eg.contact_count();
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use csn_temporal::journey::earliest_arrival;
    use csn_temporal::paper::{fig2_example, A, B, C, D};
    use rand::{Rng, SeedableRng};

    /// Priorities matching the paper: p(A) > p(B) > p(C) > p(D).
    fn fig2_priorities() -> Vec<u64> {
        vec![40, 30, 20, 10]
    }

    #[test]
    fn ids_outside_the_eg_reach_nothing() {
        use csn_temporal::routing::{epidemic, spray_and_wait, DtnOutcome};
        let eg = fig2_example();
        let (n, out) = (eg.node_count(), eg.node_count() + 5);
        assert_eq!(eg.neighbors(out).count(), 0);
        assert!(node_replaceable(&eg, out, &fig2_priorities(), TrimOptions::default()));
        // A source outside the EG keeps its one copy.
        let kept = DtnOutcome { delivered_at: None, copies: 1, hops: 0 };
        let frozen = eg.freeze();
        assert_eq!(epidemic(&frozen, out, C, 0), kept);
        assert_eq!(spray_and_wait(&frozen, out, C, 0, 4), kept);
        // A destination outside the EG fares as an isolated one inside it.
        let mut padded = TimeEvolvingGraph::new(n + 1, eg.horizon());
        for c in &eg.contacts() {
            padded.add_contact(c.u, c.v, c.t);
        }
        let padded = padded.freeze();
        let unreachable = epidemic(&padded, A, n, 0);
        assert_eq!(unreachable.delivered_at, None);
        assert_eq!(unreachable.copies, n, "the flood reaches all of Fig. 2");
        assert_eq!(epidemic(&frozen, A, out, 0), unreachable);
        let unreachable = spray_and_wait(&padded, A, n, 0, 4);
        assert_eq!(unreachable.delivered_at, None);
        assert_eq!(spray_and_wait(&frozen, A, out, 0, 4), unreachable);
    }

    fn random_eg(n: usize, horizon: TimeUnit, density: f64, seed: u64) -> TimeEvolvingGraph {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut eg = TimeEvolvingGraph::new(n, horizon);
        for u in 0..n {
            for v in (u + 1)..n {
                if rng.gen::<f64>() < density {
                    eg.add_periodic(u, v, rng.gen_range(0..horizon), rng.gen_range(2..6));
                }
            }
        }
        eg
    }

    #[test]
    fn fig2_arc_a_to_d_is_replaceable() {
        // The paper: "A can ignore neighbor D".
        let eg = fig2_example();
        let none = HashSet::new();
        assert!(arc_replaceable(&eg, A, D, &fig2_priorities(), &none, TrimOptions::default()));
    }

    #[test]
    fn fig2_arc_d_to_a_is_not_replaceable() {
        // "path D -> A -> B cannot be replaced by D -> B": the context
        // D -3-> A -4-> B has no replacement (D -7-> B arrives too late).
        let eg = fig2_example();
        let none = HashSet::new();
        assert!(!arc_replaceable(&eg, D, A, &fig2_priorities(), &none, TrimOptions::default()));
    }

    #[test]
    fn fig2_paper_replacement_path_is_the_witness() {
        // A -3-> D -6-> C must be replaced by A -4-> B -5-> C: check that the
        // replacement search finds a journey departing >= 3, arriving <= 6.
        let eg = fig2_example();
        let usable = |x: NodeId, y: NodeId| [A, B, C].contains(&x) && (x, y) != (A, D);
        let arr = earliest_arrival_masked(&eg, A, 3, usable);
        assert_eq!(arr[C], Some(5), "the A -4-> B -5-> C replacement");
    }

    #[test]
    fn fig2_trim_arcs_removes_a_to_d_and_preserves_all_ects() {
        let eg = fig2_example();
        let report = trim_arcs(&eg, &fig2_priorities(), TrimOptions::default());
        assert!(
            report.removed_arcs.contains(&(A, D)),
            "paper's trimmed arc missing: {:?}",
            report.removed_arcs
        );
        let removed: HashSet<_> = report.removed_arcs.iter().copied().collect();
        for s in 0..4 {
            for start in 0..eg.horizon() {
                let plain = earliest_arrival(&eg, s, start);
                for v in 0..4 {
                    if s == v {
                        continue;
                    }
                    let trimmed = earliest_arrival_trimmed(&eg, &removed, s, v, start);
                    assert_eq!(plain[v], trimmed, "ECT {s}->{v} at {start} changed");
                }
            }
        }
        let out = eg.node_count() + 5;
        assert_eq!(earliest_arrival_trimmed(&eg, &removed, A, out, 0), None);
        assert_eq!(earliest_arrival_trimmed(&eg, &removed, out, A, 0), None);
    }

    #[test]
    fn arc_trimming_preserves_ect_on_random_egs() {
        for trial in 0..12 {
            let eg = random_eg(8, 12, 0.5, 500 + trial);
            let priority: Vec<u64> = (0..8u64).map(|i| (i * 37 + trial) % 101).collect();
            let report = trim_arcs(&eg, &priority, TrimOptions::default());
            let removed: HashSet<_> = report.removed_arcs.iter().copied().collect();
            for s in 0..8 {
                for start in 0..12 {
                    let plain = earliest_arrival(&eg, s, start);
                    for v in 0..8 {
                        if s == v {
                            continue;
                        }
                        assert_eq!(
                            plain[v],
                            earliest_arrival_trimmed(&eg, &removed, s, v, start),
                            "trial {trial}: ECT {s}->{v}@{start}; removed {:?}",
                            report.removed_arcs
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn node_trimming_preserves_ect_between_survivors() {
        for trial in 0..10 {
            let eg0 = random_eg(7, 10, 0.6, 900 + trial);
            let priority: Vec<u64> = (0..7u64).collect();
            let mut trimmed = eg0.clone();
            let report = trim_nodes(&mut trimmed, &priority, TrimOptions::default());
            let survivors: Vec<NodeId> =
                (0..7).filter(|u| !report.removed_nodes.contains(u)).collect();
            for &s in &survivors {
                for start in 0..10 {
                    let before = earliest_arrival(&eg0, s, start);
                    let after = earliest_arrival(&trimmed, s, start);
                    for &v in &survivors {
                        assert_eq!(
                            before[v], after[v],
                            "trial {trial}: ECT {s}->{v}@{start}; removed {:?}",
                            report.removed_nodes
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn localized_pass_preserves_ect() {
        for trial in 0..10 {
            let eg0 = random_eg(7, 10, 0.7, 1300 + trial);
            let priority: Vec<u64> = (0..7u64).collect();
            let mut trimmed = eg0.clone();
            let report = trim_nodes_localized(&mut trimmed, &priority, TrimOptions::default());
            let survivors: Vec<NodeId> =
                (0..7).filter(|u| !report.removed_nodes.contains(u)).collect();
            for &s in &survivors {
                for &v in &survivors {
                    for start in 0..10 {
                        assert_eq!(
                            earliest_arrival(&eg0, s, start)[v],
                            earliest_arrival(&trimmed, s, start)[v],
                            "trial {trial}: simultaneous removals conflicted; removed {:?}",
                            report.removed_nodes
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn node_trimming_keeps_exactly_the_survivors_contacts() {
        type Trim = fn(&mut TimeEvolvingGraph, &[u64], TrimOptions) -> TrimReport;
        // The random EGs of the two ECT tests above, and two leaves joined
        // by one contact, which one localized pass removes together.
        let mut cases: Vec<(Trim, TimeEvolvingGraph)> = (0..10)
            .flat_map(|trial| {
                [
                    (trim_nodes as Trim, random_eg(7, 10, 0.6, 900 + trial)),
                    (trim_nodes_localized, random_eg(7, 10, 0.7, 1300 + trial)),
                ]
            })
            .collect();
        let mut pair = TimeEvolvingGraph::new(7, 10);
        pair.add_contact(0, 1, 2);
        cases.push((trim_nodes_localized, pair));
        let priority: Vec<u64> = (0..7u64).collect();
        let (mut removed_total, mut kept_total) = (0, 0);
        for (case, (trim, eg0)) in cases.into_iter().enumerate() {
            let mut trimmed = eg0.clone();
            let report = trim(&mut trimmed, &priority, TrimOptions::default());
            let gone = |u: NodeId| report.removed_nodes.contains(&u);
            let mut expected = TimeEvolvingGraph::new(7, 10);
            for c in eg0.contacts().into_iter().filter(|c| !gone(c.u) && !gone(c.v)) {
                expected.add_contact(c.u, c.v, c.t);
            }
            assert_eq!(trimmed.freeze(), expected.freeze(), "case {case}: {report:?}");
            assert_eq!(report.contacts_after, expected.contact_count(), "case {case}");
            removed_total += report.removed_nodes.len();
            kept_total += report.contacts_after;
        }
        assert!(removed_total > 0 && kept_total > 0, "the cases trim some nodes and keep some");
    }

    #[test]
    fn hop_bounded_option_still_preserves_ect() {
        for trial in 0..8 {
            let eg = random_eg(7, 10, 0.6, 1700 + trial);
            let priority: Vec<u64> = (0..7u64).collect();
            let opts = TrimOptions { max_intermediates: Some(1) };
            let report = trim_arcs(&eg, &priority, opts);
            let removed: HashSet<_> = report.removed_arcs.iter().copied().collect();
            for s in 0..7 {
                for start in 0..10 {
                    let plain = earliest_arrival(&eg, s, start);
                    for v in 0..7 {
                        if s != v {
                            assert_eq!(
                                plain[v],
                                earliest_arrival_trimmed(&eg, &removed, s, v, start),
                                "trial {trial}"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn denser_graphs_trim_more() {
        let sparse = random_eg(10, 12, 0.25, 42);
        let dense = random_eg(10, 12, 0.9, 42);
        let priority: Vec<u64> = (0..10u64).collect();
        let r_sparse = trim_arcs(&sparse, &priority, TrimOptions::default());
        let r_dense = trim_arcs(&dense, &priority, TrimOptions::default());
        assert!(
            r_dense.removed_arcs.len() >= r_sparse.removed_arcs.len(),
            "dense {} vs sparse {}",
            r_dense.removed_arcs.len(),
            r_sparse.removed_arcs.len()
        );
    }

    #[test]
    fn empty_graph_trims_to_nothing() {
        let eg = TimeEvolvingGraph::new(4, 5);
        let report = trim_arcs(&eg, &[0, 1, 2, 3], TrimOptions::default());
        assert!(report.removed_arcs.is_empty());
        assert_eq!(report.trimmed_fraction(), 0.0);
        let mut eg2 = TimeEvolvingGraph::new(4, 5);
        let r2 = trim_nodes(&mut eg2, &[0, 1, 2, 3], TrimOptions::default());
        assert!(r2.removed_nodes.is_empty());
    }

    #[test]
    fn leaf_nodes_are_vacuously_trimmed() {
        // A degree-1 node carries no transit traffic: the paper's rule has
        // no `w -> u -> v` contexts for it, so it is (vacuously)
        // replaceable and leaves the relay backbone.
        let mut eg = TimeEvolvingGraph::new(3, 5);
        eg.add_contact(0, 1, 2);
        let report = trim_nodes(&mut eg, &[5, 6, 7], TrimOptions::default());
        assert!(!report.removed_nodes.is_empty());
        assert_eq!(eg.contact_count(), 0);
    }

    #[test]
    fn transit_node_on_a_path_is_never_trimmed() {
        // 0 -1- 1 -2- 2: node 1 is the only relay between 0 and 2.
        let mut eg = TimeEvolvingGraph::new(3, 5);
        eg.add_contact(0, 1, 1);
        eg.add_contact(1, 2, 2);
        assert!(!node_replaceable(&eg, 1, &[0, 1, 2], TrimOptions::default()));
        let report = trim_arcs(&eg, &[0, 1, 2], TrimOptions::default());
        // The load-bearing arcs survive (dead-end arcs like 1 -> 0 are
        // vacuously replaceable and may go).
        assert!(!report.removed_arcs.contains(&(0, 1)));
        assert!(!report.removed_arcs.contains(&(1, 2)));
    }
}

//! Journeys (paths over time) and the path-optimization problems of §II-B.
//!
//! The paper lists three extensions of the shortest-path problem, all
//! solvable by variations of Dijkstra's algorithm:
//!
//! 1. **Earliest completion time path** — minimize the last edge label
//!    ([`earliest_arrival`], [`foremost_journey`]).
//! 2. **Minimum hop path** — minimize the number of hops
//!    ([`min_hop_journey`]).
//! 3. **Fastest path** — minimize the span between the first and the last
//!    contact ([`fastest_journey`]).
//!
//! One heap search over arrival times answers the earliest-completion
//! questions. It relaxes only the hops a predicate allows, which is how
//! [`earliest_arrival_masked`] serves the trimming rule's replacement
//! journeys (§III-A), and it records each node's improving hop when a
//! journey must be rebuilt ([`foremost_journey`], and through it
//! [`fastest_journey`]).
//!
//! Transmission at each contact is instantaneous, so several hops may share
//! one time unit; labels along a journey must be non-decreasing.
//!
//! A node id outside the EG reaches nothing and is reached by nothing: the
//! functions here answer it with `None`, `false` or an empty list instead of
//! panicking.

use crate::graph::{TimeEvolvingGraph, TimeUnit};
use csn_graph::NodeId;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// A journey: hops `(from, to, label)` with non-decreasing labels.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Journey {
    /// The hops of the journey, in order.
    pub hops: Vec<(NodeId, NodeId, TimeUnit)>,
}

impl Journey {
    /// The label of the first hop.
    ///
    /// # Panics
    ///
    /// Panics if the journey is empty.
    pub fn first_label(&self) -> TimeUnit {
        self.hops.first().expect("empty journey").2
    }

    /// The label of the last hop (the completion time).
    ///
    /// # Panics
    ///
    /// Panics if the journey is empty.
    pub fn last_label(&self) -> TimeUnit {
        self.hops.last().expect("empty journey").2
    }

    /// Number of hops.
    pub fn hop_count(&self) -> usize {
        self.hops.len()
    }

    /// The span (elapsed time) between first and last contact — the
    /// "fastest path" objective.
    pub fn span(&self) -> TimeUnit {
        if self.hops.is_empty() {
            0
        } else {
            self.last_label() - self.first_label()
        }
    }

    /// Checks well-formedness against `eg`: consecutive hops, labels exist,
    /// non-decreasing, and first label `>= start`. A hop touching a node
    /// outside the EG has no labels, so it makes the journey invalid.
    pub fn is_valid(&self, eg: &TimeEvolvingGraph, source: NodeId, start: TimeUnit) -> bool {
        let mut at = source;
        let mut prev = start;
        for &(u, v, t) in &self.hops {
            if u != at || t < prev {
                return false;
            }
            match eg.labels(u, v) {
                Some(labels) if labels.binary_search(&t).is_ok() => {}
                _ => return false,
            }
            at = v;
            prev = t;
        }
        true
    }
}

/// Each node's improving hop `(from, label)`, as [`search`] records it.
type Parents = Vec<Option<(NodeId, TimeUnit)>>;

/// The one earliest-arrival search: Dijkstra over arrival times from
/// `source` at `start`, relaxing only the hops `(u, v)` that `usable`
/// allows. With `record_parents` it also returns each reached node's
/// improving hop; otherwise the parents are empty. A `source` outside the
/// EG reaches nothing.
fn search(
    eg: &TimeEvolvingGraph,
    source: NodeId,
    start: TimeUnit,
    usable: impl Fn(NodeId, NodeId) -> bool,
    record_parents: bool,
) -> (Vec<Option<TimeUnit>>, Parents) {
    let n = eg.node_count();
    let mut arr: Vec<Option<TimeUnit>> = vec![None; n];
    let mut parent: Parents = vec![None; if record_parents { n } else { 0 }];
    if source >= n {
        return (arr, parent);
    }
    arr[source] = Some(start);
    let mut heap: BinaryHeap<Reverse<(TimeUnit, NodeId)>> = BinaryHeap::new();
    heap.push(Reverse((start, source)));
    while let Some(Reverse((t, u))) = heap.pop() {
        if arr[u] != Some(t) {
            continue; // stale entry
        }
        for (v, labels) in eg.neighbors(u) {
            if !usable(u, v) {
                continue;
            }
            let i = labels.partition_point(|&l| l < t);
            if let Some(&next) = labels.get(i) {
                if arr[v].is_none_or(|cur| next < cur) {
                    arr[v] = Some(next);
                    if record_parents {
                        parent[v] = Some((u, next));
                    }
                    heap.push(Reverse((next, v)));
                }
            }
        }
    }
    (arr, parent)
}

/// Earliest arrival times from `source` for a message created at time
/// `start`: `arr[v]` is the smallest completion time of a journey
/// `source -> v` whose first label is `>= start` (`Some(start)` for the
/// source itself; `None` if unreachable within the horizon, and every entry
/// `None` if `source` is outside the EG).
///
/// Dijkstra-style: arrival times only grow along journeys.
pub fn earliest_arrival(
    eg: &TimeEvolvingGraph,
    source: NodeId,
    start: TimeUnit,
) -> Vec<Option<TimeUnit>> {
    earliest_arrival_masked(eg, source, start, |_, _| true)
}

/// [`earliest_arrival`] restricted to journeys whose every hop `u -> v`
/// satisfies `usable(u, v)`. A node whose outgoing hops all fail may still
/// receive; it just cannot relay. Every entry is `None` if `source` is
/// outside the EG. Used by the trimming rule's replacement-path search
/// (§III-A), which bans relays and transit arcs through this predicate.
pub fn earliest_arrival_masked(
    eg: &TimeEvolvingGraph,
    source: NodeId,
    start: TimeUnit,
    usable: impl Fn(NodeId, NodeId) -> bool,
) -> Vec<Option<TimeUnit>> {
    search(eg, source, start, usable, false).0
}

/// The foremost (earliest completion time) journey `source -> target` for a
/// message created at `start`, if one exists; `None` if either id is outside
/// the EG.
pub fn foremost_journey(
    eg: &TimeEvolvingGraph,
    source: NodeId,
    target: NodeId,
    start: TimeUnit,
) -> Option<Journey> {
    let (arr, parent) = search(eg, source, start, |_, _| true, true);
    arr.get(target).copied().flatten()?;
    let mut hops = Vec::new();
    let mut cur = target;
    while cur != source {
        let (p, t) = parent[cur].expect("reachable node must have a parent");
        hops.push((p, cur, t));
        cur = p;
    }
    hops.reverse();
    Some(Journey { hops })
}

/// Whether `u` is connected to `v` at time unit `t` (§II-B: a journey whose
/// first edge label is `>= t` exists; every node is connected to itself).
/// `false` if either id is outside the EG, even when `u == v`.
pub fn is_connected_at(eg: &TimeEvolvingGraph, u: NodeId, v: NodeId, t: TimeUnit) -> bool {
    earliest_arrival(eg, u, t).get(v).is_some_and(Option::is_some)
}

/// The minimum-hop journey `source -> target` starting at `start`, if any;
/// `None` if either id is outside the EG.
///
/// Dynamic program over hop counts: `best[h][v]` is the earliest arrival at
/// `v` using exactly `h` hops; feasibility is monotone in arrival time, so
/// keeping only the earliest arrival per hop count is lossless.
pub fn min_hop_journey(
    eg: &TimeEvolvingGraph,
    source: NodeId,
    target: NodeId,
    start: TimeUnit,
) -> Option<Journey> {
    let n = eg.node_count();
    if source.max(target) >= n {
        return None;
    }
    if source == target {
        return Some(Journey { hops: Vec::new() });
    }
    // best[h][v]: earliest arrival at v using at most h hops. Arrival with
    // more hops can only improve, so the first h with best[h][target] set is
    // the minimum hop count.
    let mut best: Vec<Vec<Option<TimeUnit>>> = vec![vec![None; n]];
    let mut parents: Vec<Vec<Option<(NodeId, TimeUnit)>>> = vec![vec![None; n]];
    best[0][source] = Some(start);
    let mut h = 0;
    loop {
        if best[h][target].is_some() || h + 1 >= n {
            break;
        }
        let mut next = best[h].clone();
        let mut parent = vec![None; n];
        let mut improved = false;
        for u in 0..n {
            let Some(t) = best[h][u] else { continue };
            for (v, labels) in eg.neighbors(u) {
                let i = labels.partition_point(|&l| l < t);
                if let Some(&lab) = labels.get(i) {
                    if next[v].is_none_or(|cur| lab < cur) {
                        next[v] = Some(lab);
                        parent[v] = Some((u, lab));
                        improved = true;
                    }
                }
            }
        }
        best.push(next);
        parents.push(parent);
        h += 1;
        if !improved {
            break;
        }
    }
    best[h][target]?;
    // Walk back: at level k standing on `cur`, follow the parent recorded at
    // the latest level <= k that improved `cur` (its arrival is valid here).
    let mut hops = Vec::new();
    let mut cur = target;
    let mut k = h;
    while cur != source {
        // Find the level whose improvement produced best[k][cur].
        let mut lvl = k;
        while parents[lvl][cur].is_none() || best[lvl][cur] != best[k][cur] {
            lvl -= 1;
        }
        let (p, t) = parents[lvl][cur].expect("level found above");
        hops.push((p, cur, t));
        cur = p;
        k = lvl - 1;
    }
    hops.reverse();
    Some(Journey { hops })
}

/// The fastest journey (minimum span between first and last contact)
/// `source -> target` with first label `>= start`, if any; `None` if either
/// id is outside the EG.
///
/// Iterates candidate departure labels on edges incident to the source and
/// runs an earliest-arrival pass from each; the candidate minimizing
/// `arrival - departure` wins.
pub fn fastest_journey(
    eg: &TimeEvolvingGraph,
    source: NodeId,
    target: NodeId,
    start: TimeUnit,
) -> Option<Journey> {
    if source.max(target) >= eg.node_count() {
        return None;
    }
    if source == target {
        return Some(Journey { hops: Vec::new() });
    }
    let mut departures: Vec<TimeUnit> = eg
        .neighbors(source)
        .flat_map(|(_, labels)| labels.iter().copied())
        .filter(|&t| t >= start)
        .collect();
    departures.sort_unstable();
    departures.dedup();
    let mut best: Option<(TimeUnit, Journey)> = None;
    for dep in departures {
        if let Some(j) = foremost_journey(eg, source, target, dep) {
            // The journey's real first label may exceed `dep`; recompute span.
            let span = j.span();
            if best.as_ref().is_none_or(|(s, _)| span < *s) {
                best = Some((span, j));
            }
        }
    }
    best.map(|(_, j)| j)
}

/// Flooding time from `source` starting at `start`: the number of time units
/// until every node has received the message, or `None` if some node is
/// never reached within the horizon or `source` is outside the EG. This is
/// the paper's *dynamic diameter* measured from one source.
pub fn flooding_time(eg: &TimeEvolvingGraph, source: NodeId, start: TimeUnit) -> Option<TimeUnit> {
    let arr = earliest_arrival(eg, source, start);
    // The source's own arrival is `start`; there is none outside the EG.
    let mut worst = arr.get(source).copied().flatten()?;
    for a in arr {
        worst = worst.max(a?);
    }
    Some(worst - start)
}

/// Dynamic diameter at `start`: the worst-case flooding time over all
/// sources, or `None` if the graph is not temporally connected from some
/// source at `start`.
pub fn dynamic_diameter(eg: &TimeEvolvingGraph, start: TimeUnit) -> Option<TimeUnit> {
    (0..eg.node_count())
        .map(|s| flooding_time(eg, s, start))
        .try_fold(0, |acc, ft| ft.map(|f| acc.max(f)))
}

/// Exhaustive journey enumeration for cross-validation on small graphs.
///
/// Returns every journey `source -> target` with first label `>= start`,
/// visiting each node at most once; none if either id is outside the EG.
/// Exponential; intended for tests and property checks (also used by
/// `csn-trimming`'s validation suite).
pub fn enumerate_journeys(
    eg: &TimeEvolvingGraph,
    source: NodeId,
    target: NodeId,
    start: TimeUnit,
) -> Vec<Journey> {
    let mut out = Vec::new();
    if source.max(target) >= eg.node_count() {
        return out;
    }
    let mut visited = vec![false; eg.node_count()];
    visited[source] = true;
    let mut hops: Vec<(NodeId, NodeId, TimeUnit)> = Vec::new();
    dfs(eg, source, target, start, &mut visited, &mut hops, &mut out);
    out
}

fn dfs(
    eg: &TimeEvolvingGraph,
    at: NodeId,
    target: NodeId,
    min_t: TimeUnit,
    visited: &mut Vec<bool>,
    hops: &mut Vec<(NodeId, NodeId, TimeUnit)>,
    out: &mut Vec<Journey>,
) {
    if at == target && !hops.is_empty() {
        out.push(Journey { hops: hops.clone() });
        return; // journeys continuing past the target revisit it — disallowed
    }
    let neighbors: Vec<(NodeId, Vec<TimeUnit>)> =
        eg.neighbors(at).map(|(v, ls)| (v, ls.to_vec())).collect();
    for (v, labels) in neighbors {
        if visited[v] {
            continue;
        }
        for &t in labels.iter().filter(|&&t| t >= min_t) {
            visited[v] = true;
            hops.push((at, v, t));
            dfs(eg, v, target, t, visited, hops, out);
            hops.pop();
            visited[v] = false;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::paper::{fig2_example, A, B, C, D};

    #[test]
    fn fig2_earliest_arrival_matches_paper() {
        let eg = fig2_example();
        // "path A -4-> B -5-> C exists"; starting at 2 the best is arrival 5.
        let arr = earliest_arrival(&eg, A, 2);
        assert_eq!(arr[B], Some(4));
        assert_eq!(arr[C], Some(5));
        // Starting at 0, A meets B and D at 1, C via B at 2.
        let arr0 = earliest_arrival(&eg, A, 0);
        assert_eq!(arr0[B], Some(1));
        assert_eq!(arr0[D], Some(1));
        assert_eq!(arr0[C], Some(2));
    }

    #[test]
    fn fig2_connected_at_0_through_4() {
        let eg = fig2_example();
        for t in 0..=4 {
            assert!(is_connected_at(&eg, A, C, t), "A-C at start {t}");
        }
    }

    #[test]
    fn fig2_never_connected_instantaneously() {
        // "A and C in Fig. 2 are not connected at any particular time unit":
        // no snapshot has an A-C path. Swept incrementally via the cursor.
        let eg = fig2_example();
        let mut cur = eg.snapshot_cursor();
        loop {
            let d = csn_graph::traversal::bfs_distances(cur.graph(), A);
            assert_eq!(d[C], usize::MAX, "instantaneous A-C path at time {}", cur.time());
            if !cur.advance() {
                break;
            }
        }
        assert_eq!(cur.time() + 1, eg.horizon(), "sweep covered the whole horizon");
    }

    #[test]
    fn foremost_journey_reconstructs_hops() {
        let eg = fig2_example();
        let j = foremost_journey(&eg, A, C, 2).expect("journey");
        assert_eq!(j.hops, vec![(A, B, 4), (B, C, 5)]);
        assert!(j.is_valid(&eg, A, 2));
        assert_eq!(j.last_label(), 5);
    }

    #[test]
    fn min_hop_can_differ_from_foremost() {
        // 0-1-2 chain fast, direct 0-2 late: foremost uses 2 hops, min-hop 1.
        let mut eg = TimeEvolvingGraph::new(3, 20);
        eg.add_contact(0, 1, 1);
        eg.add_contact(1, 2, 2);
        eg.add_contact(0, 2, 9);
        let fm = foremost_journey(&eg, 0, 2, 0).unwrap();
        assert_eq!(fm.last_label(), 2);
        assert_eq!(fm.hop_count(), 2);
        let mh = min_hop_journey(&eg, 0, 2, 0).unwrap();
        assert_eq!(mh.hop_count(), 1);
        assert_eq!(mh.last_label(), 9);
    }

    #[test]
    fn fastest_can_differ_from_foremost() {
        // Depart at 0 -> arrive 9 (span 9); depart at 7 -> arrive 8 (span 1).
        let mut eg = TimeEvolvingGraph::new(3, 20);
        eg.add_contact(0, 1, 0);
        eg.add_contact(1, 2, 9);
        eg.add_contact(0, 1, 7);
        eg.add_contact(1, 2, 8);
        let fm = foremost_journey(&eg, 0, 2, 0).unwrap();
        assert_eq!(fm.last_label(), 8);
        let fast = fastest_journey(&eg, 0, 2, 0).unwrap();
        assert_eq!(fast.span(), 1);
        assert_eq!(fast.hops, vec![(0, 1, 7), (1, 2, 8)]);
    }

    #[test]
    fn same_label_multi_hop_is_instantaneous() {
        // Non-decreasing labels: equal labels chain within one time unit.
        let mut eg = TimeEvolvingGraph::new(4, 10);
        eg.add_contact(0, 1, 3);
        eg.add_contact(1, 2, 3);
        eg.add_contact(2, 3, 3);
        let arr = earliest_arrival(&eg, 0, 0);
        assert_eq!(arr[3], Some(3));
        let ft = flooding_time(&eg, 0, 0).unwrap();
        assert_eq!(ft, 3);
    }

    #[test]
    fn unreachable_is_none() {
        let mut eg = TimeEvolvingGraph::new(3, 10);
        eg.add_contact(0, 1, 9);
        assert_eq!(earliest_arrival(&eg, 0, 0)[2], None);
        assert!(foremost_journey(&eg, 0, 2, 0).is_none());
        assert!(min_hop_journey(&eg, 0, 2, 0).is_none());
        assert!(fastest_journey(&eg, 0, 2, 0).is_none());
        assert_eq!(flooding_time(&eg, 0, 0), None);
        // Starting after the only contact also fails.
        assert!(foremost_journey(&eg, 0, 1, 10).is_none());
    }

    #[test]
    fn labels_must_not_decrease() {
        // 0 -5- 1 -3- 2: no journey 0 -> 2 (would need decreasing labels).
        let mut eg = TimeEvolvingGraph::new(3, 10);
        eg.add_contact(0, 1, 5);
        eg.add_contact(1, 2, 3);
        assert!(!is_connected_at(&eg, 0, 2, 0));
        assert!(is_connected_at(&eg, 2, 0, 0), "reverse direction works: 3 then 5");
    }

    #[test]
    fn dynamic_diameter_fig2() {
        let eg = fig2_example();
        // From every node a message at time 0 floods the 4-node component.
        let dd = dynamic_diameter(&eg, 0);
        assert!(dd.is_some());
        assert!(dd.unwrap() >= 2);
    }

    #[test]
    fn masked_search_avoids_node() {
        let eg = fig2_example();
        // Forbid B as an intermediate: A -> C must then go through D (arr 6).
        let arr = earliest_arrival_masked(&eg, A, 2, |x, _| x != B);
        assert_eq!(arr[C], Some(6));
        assert_eq!(arr[B], Some(4), "B still receives");
    }

    #[test]
    fn ids_outside_the_eg_reach_nothing() {
        let eg = fig2_example();
        let out = eg.node_count() + 5;
        assert_eq!(earliest_arrival(&eg, out, 0), vec![None; 4]);
        assert_eq!(earliest_arrival_masked(&eg, out, 0, |_, _| true), vec![None; 4]);
        for (s, t) in [(out, C), (A, out), (out, out)] {
            assert_eq!(foremost_journey(&eg, s, t, 0), None, "{s}->{t}");
            assert_eq!(min_hop_journey(&eg, s, t, 0), None, "{s}->{t}");
            assert_eq!(fastest_journey(&eg, s, t, 0), None, "{s}->{t}");
            assert!(enumerate_journeys(&eg, s, t, 0).is_empty(), "{s}->{t}");
            assert!(!is_connected_at(&eg, s, t, 0), "{s}->{t}");
        }
        assert_eq!(flooding_time(&eg, out, 0), None);
        assert_eq!(eg.labels(out, A), None);
        assert_eq!(eg.labels(A, out), None);
        assert_eq!(crate::routing::direct_delivery(&eg.freeze(), out, A, 0).delivered_at, None);
        assert!(!Journey { hops: vec![(A, out, 1)] }.is_valid(&eg, A, 0));
        assert!(!Journey { hops: vec![(out, A, 1)] }.is_valid(&eg, out, 0));
    }

    #[test]
    fn enumerate_matches_optimal_algorithms() {
        let eg = fig2_example();
        for s in 0..4 {
            for t in 0..4 {
                if s == t {
                    continue;
                }
                for start in 0..6 {
                    let all = enumerate_journeys(&eg, s, t, start);
                    let best_arrival = all.iter().map(Journey::last_label).min();
                    let algo = earliest_arrival(&eg, s, start)[t];
                    assert_eq!(best_arrival, algo, "s={s} t={t} start={start}");
                    if let Some(j) = min_hop_journey(&eg, s, t, start) {
                        let best_hops = all.iter().map(Journey::hop_count).min().unwrap();
                        assert_eq!(j.hop_count(), best_hops);
                    }
                    if let Some(j) = fastest_journey(&eg, s, t, start) {
                        let best_span = all.iter().map(Journey::span).min().unwrap();
                        assert_eq!(j.span(), best_span, "s={s} t={t} start={start}");
                    }
                }
            }
        }
    }

    #[test]
    fn journey_validation_rejects_garbage() {
        let eg = fig2_example();
        // Wrong label.
        let j = Journey { hops: vec![(A, B, 2)] };
        assert!(!j.is_valid(&eg, A, 0));
        // Decreasing labels.
        let j2 = Journey { hops: vec![(A, B, 4), (B, C, 2)] };
        assert!(!j2.is_valid(&eg, A, 0));
        // Disconnected hops.
        let j3 = Journey { hops: vec![(A, B, 4), (C, D, 6)] };
        assert!(!j3.is_valid(&eg, A, 0));
        // Starts before `start`.
        let j4 = Journey { hops: vec![(A, B, 1)] };
        assert!(!j4.is_valid(&eg, A, 2));
    }
}

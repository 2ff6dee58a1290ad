//! Graph traversal: BFS/DFS, connectivity, and strongly connected components.
//!
//! Every undirected function here is generic over [`GraphView`], so it runs
//! unchanged on the mutable [`crate::Graph`] and on its frozen
//! [`crate::CompactCsrGraph`]. The directed ones ([`bfs_distances_digraph`],
//! [`strongly_connected_components`], [`largest_scc_mask`]) take a
//! [`Digraph`].

use crate::graph::{Digraph, NodeId};
use crate::scratch::BfsScratch;
use crate::view::GraphView;

/// Runs the BFS from `source`, leaving the distances epoch-stamped inside
/// the scratch (no dense export) and the count of nodes reached in
/// [`BfsScratch::reached`]. Shared by [`bfs_distances_into`],
/// [`bfs_distance`] and [`crate::centrality::closeness_one_into`].
pub(crate) fn bfs_scratch<G: GraphView>(g: &G, source: NodeId, sc: &mut BfsScratch) {
    sc.begin(g.node_count());
    sc.visit(source, 0);
    sc.queue.push_back(source);
    let mut reached = 0;
    while let Some(u) = sc.queue.pop_front() {
        reached += 1;
        let du = sc.dist[u];
        for v in g.neighbors(u) {
            if !sc.visited(v) {
                sc.visit(v, du + 1);
                sc.queue.push_back(v);
            }
        }
    }
    sc.reached = reached;
}

/// BFS distances (in hops) from `source`; unreachable nodes get `usize::MAX`.
///
/// Allocates fresh state per call; the scratch-reusing form is
/// [`bfs_distances_into`], which produces identical output.
///
/// # Examples
///
/// ```
/// use csn_graph::{Graph, traversal::bfs_distances};
///
/// let g = Graph::from_edges(4, &[(0, 1), (1, 2)]).unwrap();
/// let d = bfs_distances(&g, 0);
/// assert_eq!(d[2], 2);
/// assert_eq!(d[3], usize::MAX);
/// ```
pub fn bfs_distances<G: GraphView>(g: &G, source: NodeId) -> Vec<usize> {
    let mut sc = BfsScratch::new();
    let mut out = Vec::new();
    bfs_distances_into(g, source, &mut sc, &mut out);
    out
}

/// [`bfs_distances`] into a caller-provided scratch and output vector:
/// identical results, zero allocation once both have grown to the graph's
/// size. The scratch may have been used on any other graph before (see the
/// reuse contract in [`crate::scratch`]); `out` is overwritten.
pub fn bfs_distances_into<G: GraphView>(
    g: &G,
    source: NodeId,
    scratch: &mut BfsScratch,
    out: &mut Vec<usize>,
) {
    bfs_scratch(g, source, scratch);
    out.clear();
    out.extend((0..g.node_count()).map(|v| {
        if scratch.visited(v) {
            scratch.dist[v]
        } else {
            usize::MAX
        }
    }));
}

/// The hop distance from `source` to `target`, `None` when no path joins
/// them: entry `target` of [`bfs_distances`], read from the scratch
/// without exporting the other `n − 1` entries. It runs the same full BFS
/// (no early exit at `target`), so afterwards [`BfsScratch::reached`]
/// counts every node reachable from `source`.
pub fn bfs_distance<G: GraphView>(
    g: &G,
    source: NodeId,
    target: NodeId,
    scratch: &mut BfsScratch,
) -> Option<usize> {
    bfs_scratch(g, source, scratch);
    scratch.visited(target).then(|| scratch.dist[target])
}

/// BFS distance vectors from every source: `out[s][v]` is the hop distance
/// from `s` to `v` (`usize::MAX` when unreachable). The sources fan out over
/// `jobs` workers, each reusing one BFS scratch across the sources it runs
/// (each row is still allocated, as it is returned); the result is
/// identical at any `jobs`.
pub fn all_pairs_bfs<G: GraphView + Sync>(g: &G, jobs: usize) -> Vec<Vec<usize>> {
    let (rows, _) = csn_parallel::run_indexed_stateful(
        g.node_count(),
        jobs,
        |_| BfsScratch::new(),
        |s, scratch| {
            let mut row = Vec::new();
            bfs_distances_into(g, s, scratch, &mut row);
            row
        },
    );
    rows
}

/// BFS distances from `source` following arc directions in a digraph.
pub fn bfs_distances_digraph(d: &Digraph, source: NodeId) -> Vec<usize> {
    let mut dist = vec![usize::MAX; d.node_count()];
    let mut queue = std::collections::VecDeque::new();
    dist[source] = 0;
    queue.push_back(source);
    while let Some(u) = queue.pop_front() {
        for &v in d.out_neighbors(u) {
            if dist[v] == usize::MAX {
                dist[v] = dist[u] + 1;
                queue.push_back(v);
            }
        }
    }
    dist
}

/// Shortest hop path from `source` to `target` via BFS, if one exists.
pub fn bfs_path<G: GraphView>(g: &G, source: NodeId, target: NodeId) -> Option<Vec<NodeId>> {
    let mut parent = vec![usize::MAX; g.node_count()];
    let mut seen = vec![false; g.node_count()];
    let mut queue = std::collections::VecDeque::new();
    seen[source] = true;
    queue.push_back(source);
    while let Some(u) = queue.pop_front() {
        if u == target {
            let mut path = vec![target];
            let mut cur = target;
            while cur != source {
                cur = parent[cur];
                path.push(cur);
            }
            path.reverse();
            return Some(path);
        }
        for v in g.neighbors(u) {
            if !seen[v] {
                seen[v] = true;
                parent[v] = u;
                queue.push_back(v);
            }
        }
    }
    None
}

/// DFS preorder starting at `source` (iterative; neighbor order as stored).
pub fn dfs_preorder<G: GraphView>(g: &G, source: NodeId) -> Vec<NodeId> {
    let mut seen = vec![false; g.node_count()];
    let mut order = Vec::new();
    let mut stack = vec![source];
    while let Some(u) = stack.pop() {
        if seen[u] {
            continue;
        }
        seen[u] = true;
        order.push(u);
        // Push in reverse so the first-stored neighbor is visited first.
        for v in g.neighbors(u).rev() {
            if !seen[v] {
                stack.push(v);
            }
        }
    }
    order
}

/// Connected-component labels: `labels[u]` is the component id of `u`,
/// components numbered `0..k` in order of discovery. Returns `(labels, k)`.
pub fn connected_components<G: GraphView>(g: &G) -> (Vec<usize>, usize) {
    let n = g.node_count();
    let mut label = vec![usize::MAX; n];
    let mut k = 0;
    for s in 0..n {
        if label[s] != usize::MAX {
            continue;
        }
        let mut stack = vec![s];
        label[s] = k;
        while let Some(u) = stack.pop() {
            for v in g.neighbors(u) {
                if label[v] == usize::MAX {
                    label[v] = k;
                    stack.push(v);
                }
            }
        }
        k += 1;
    }
    (label, k)
}

/// `true` when the graph is connected (the empty graph counts as connected).
pub fn is_connected<G: GraphView>(g: &G) -> bool {
    g.node_count() == 0 || connected_components(g).1 == 1
}

/// Nodes of the largest connected component, as a keep-mask.
pub fn largest_component_mask<G: GraphView>(g: &G) -> Vec<bool> {
    let (labels, k) = connected_components(g);
    if k == 0 {
        return Vec::new();
    }
    let mut sizes = vec![0usize; k];
    for &l in &labels {
        sizes[l] += 1;
    }
    let best = (0..k).max_by_key(|&c| sizes[c]).expect("k > 0");
    labels.iter().map(|&l| l == best).collect()
}

/// Strongly connected components of a digraph (Tarjan, iterative).
///
/// Returns `(labels, k)`; components are numbered in reverse topological
/// order of the condensation (Tarjan's natural output order).
pub fn strongly_connected_components(d: &Digraph) -> (Vec<usize>, usize) {
    let n = d.node_count();
    const UNSET: usize = usize::MAX;
    let mut index = vec![UNSET; n];
    let mut lowlink = vec![0usize; n];
    let mut on_stack = vec![false; n];
    let mut comp = vec![UNSET; n];
    let mut stack: Vec<NodeId> = Vec::new();
    let mut next_index = 0usize;
    let mut ncomp = 0usize;

    // Explicit DFS stack of (node, remaining-neighbor iterator).
    let mut call: Vec<(NodeId, std::slice::Iter<'_, NodeId>)> = Vec::new();
    for root in 0..n {
        if index[root] != UNSET {
            continue;
        }
        call.push((root, d.out_neighbors(root).iter()));
        index[root] = next_index;
        lowlink[root] = next_index;
        next_index += 1;
        stack.push(root);
        on_stack[root] = true;
        while let Some((u, it)) = call.last_mut() {
            let u = *u;
            if let Some(&v) = it.next() {
                if index[v] == UNSET {
                    index[v] = next_index;
                    lowlink[v] = next_index;
                    next_index += 1;
                    stack.push(v);
                    on_stack[v] = true;
                    call.push((v, d.out_neighbors(v).iter()));
                } else if on_stack[v] {
                    lowlink[u] = lowlink[u].min(index[v]);
                }
            } else {
                call.pop();
                if let Some((p, _)) = call.last() {
                    let p = *p;
                    lowlink[p] = lowlink[p].min(lowlink[u]);
                }
                if lowlink[u] == index[u] {
                    loop {
                        let w = stack.pop().expect("tarjan stack underflow");
                        on_stack[w] = false;
                        comp[w] = ncomp;
                        if w == u {
                            break;
                        }
                    }
                    ncomp += 1;
                }
            }
        }
    }
    (comp, ncomp)
}

/// Keep-mask of the largest strongly connected component (as in the paper's
/// Fig. 3, which plots the largest SCC of a Gnutella snapshot).
pub fn largest_scc_mask(d: &Digraph) -> Vec<bool> {
    let (labels, k) = strongly_connected_components(d);
    if k == 0 {
        return Vec::new();
    }
    let mut sizes = vec![0usize; k];
    for &l in &labels {
        sizes[l] += 1;
    }
    let best = (0..k).max_by_key(|&c| sizes[c]).expect("k > 0");
    labels.iter().map(|&l| l == best).collect()
}

/// Graph diameter in hops via repeated BFS; `None` if disconnected or empty.
pub fn diameter<G: GraphView>(g: &G) -> Option<usize> {
    if g.node_count() == 0 || !is_connected(g) {
        return None;
    }
    let mut best = 0;
    for s in g.nodes() {
        let d = bfs_distances(g, s);
        best = best.max(d.into_iter().max().expect("nonempty"));
    }
    Some(best)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::{Digraph, Graph};

    fn path_graph(n: usize) -> Graph {
        let edges: Vec<_> = (0..n - 1).map(|i| (i, i + 1)).collect();
        Graph::from_edges(n, &edges).unwrap()
    }

    #[test]
    fn bfs_distances_on_path() {
        let g = path_graph(5);
        assert_eq!(bfs_distances(&g, 0), vec![0, 1, 2, 3, 4]);
        assert_eq!(bfs_distances(&g, 2), vec![2, 1, 0, 1, 2]);
    }

    #[test]
    fn bfs_path_endpoints() {
        let g = path_graph(4);
        assert_eq!(bfs_path(&g, 0, 3), Some(vec![0, 1, 2, 3]));
        assert_eq!(bfs_path(&g, 2, 2), Some(vec![2]));
        let g2 = Graph::new(2);
        assert_eq!(bfs_path(&g2, 0, 1), None);
    }

    #[test]
    fn dfs_preorder_visits_all_reachable() {
        let g = Graph::from_edges(5, &[(0, 1), (0, 2), (2, 3)]).unwrap();
        let order = dfs_preorder(&g, 0);
        assert_eq!(order.len(), 4, "node 4 is unreachable");
        assert_eq!(order[0], 0);
    }

    #[test]
    fn components_and_connectivity() {
        let g = Graph::from_edges(6, &[(0, 1), (1, 2), (3, 4)]).unwrap();
        let (labels, k) = connected_components(&g);
        assert_eq!(k, 3);
        assert_eq!(labels[0], labels[2]);
        assert_ne!(labels[0], labels[3]);
        assert!(!is_connected(&g));
        assert!(is_connected(&path_graph(4)));
        assert!(is_connected(&Graph::new(0)));
    }

    #[test]
    fn largest_component() {
        let g = Graph::from_edges(6, &[(0, 1), (1, 2), (3, 4)]).unwrap();
        let mask = largest_component_mask(&g);
        assert_eq!(mask, vec![true, true, true, false, false, false]);
    }

    #[test]
    fn scc_cycle_plus_tail() {
        let d = Digraph::from_arcs(5, &[(0, 1), (1, 2), (2, 0), (2, 3), (3, 4)]).unwrap();
        let (labels, k) = strongly_connected_components(&d);
        assert_eq!(k, 3);
        assert_eq!(labels[0], labels[1]);
        assert_eq!(labels[1], labels[2]);
        assert_ne!(labels[3], labels[4]);
        let mask = largest_scc_mask(&d);
        assert_eq!(mask, vec![true, true, true, false, false]);
        assert_eq!(bfs_distances_digraph(&d, 0), vec![0, 1, 2, 3, 4]);
        assert_eq!(bfs_distances_digraph(&d, 3), vec![usize::MAX, usize::MAX, usize::MAX, 0, 1]);
    }

    #[test]
    fn scc_handles_large_path_without_overflow() {
        // Iterative Tarjan: a long path must not blow the stack.
        let n = 100_000;
        let arcs: Vec<_> = (0..n - 1).map(|i| (i, i + 1)).collect();
        let d = Digraph::from_arcs(n, &arcs).unwrap();
        let (_, k) = strongly_connected_components(&d);
        assert_eq!(k, n);
    }

    #[test]
    fn diameter_of_path_and_disconnected() {
        assert_eq!(diameter(&path_graph(5)), Some(4));
        assert_eq!(diameter(&Graph::new(3)), None);
    }

    #[test]
    fn bfs_into_reuses_scratch_across_graphs() {
        // One scratch, alternating between a large and a small graph:
        // epoch stamping must keep stale distances from leaking through.
        let big = path_graph(9);
        let small = Graph::from_edges(3, &[(0, 1)]).unwrap();
        let mut sc = BfsScratch::new();
        let mut out = Vec::new();
        for _ in 0..3 {
            bfs_distances_into(&big, 0, &mut sc, &mut out);
            assert_eq!(out, bfs_distances(&big, 0));
            bfs_distances_into(&small, 1, &mut sc, &mut out);
            assert_eq!(out, vec![1, 0, usize::MAX]);
        }
    }

    #[test]
    fn bfs_distance_reads_one_entry_of_bfs_distances() {
        // Two components: 0–1–2–3 and 4–5, so some targets are unreachable.
        let g = Graph::from_edges(6, &[(0, 1), (1, 2), (2, 3), (4, 5)]).unwrap();
        let mut sc = BfsScratch::new();
        for source in 0..6 {
            let all = bfs_distances(&g, source);
            let reachable = all.iter().filter(|&&d| d != usize::MAX).count();
            for target in 0..6 {
                let want = (all[target] != usize::MAX).then_some(all[target]);
                assert_eq!(bfs_distance(&g, source, target, &mut sc), want, "{source}→{target}");
                assert_eq!(sc.reached(), reachable, "nodes reached from {source}");
            }
        }
        assert_eq!(bfs_distance(&g, 2, 2, &mut sc), Some(0));
        assert_eq!(bfs_distance(&g, 0, 5, &mut sc), None);
        assert_eq!(sc.reached(), 4);
    }

    #[test]
    fn kernels_agree_on_frozen_graph() {
        let g = Graph::from_edges(7, &[(0, 1), (1, 2), (2, 0), (2, 3), (4, 5)]).unwrap();
        let frozen = g.freeze().unwrap();
        assert_eq!(bfs_distances(&g, 0), bfs_distances(&frozen, 0));
        assert_eq!(dfs_preorder(&g, 0), dfs_preorder(&frozen, 0));
        assert_eq!(connected_components(&g), connected_components(&frozen));
        assert_eq!(bfs_path(&g, 0, 3), bfs_path(&frozen, 0, 3));
        assert_eq!(all_pairs_bfs(&g, 1), all_pairs_bfs(&frozen, 1));
    }
}

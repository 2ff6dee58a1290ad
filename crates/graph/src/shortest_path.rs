//! Weighted shortest paths: Dijkstra and Bellman–Ford.
//!
//! §IV of the paper uses Dijkstra and Bellman–Ford as the canonical examples
//! of centralized vs distributed "dynamic label" computations; the
//! distributed, round-based Bellman–Ford lives in `csn-labeling` — this module
//! provides the centralized reference implementations used for
//! cross-validation.
//!
//! Dijkstra is generic over [`WeightedGraphView`] — the weighted
//! out-adjacency abstraction — so one implementation serves
//! [`crate::WeightedGraph`] and [`WeightedDigraph`]. Bellman–Ford stays on
//! the concrete digraph (it iterates raw arcs and handles negative weights).

use crate::error::GraphError;
use crate::graph::{NodeId, WeightedDigraph};
use crate::view::WeightedGraphView;
use std::cmp::Ordering;

/// Result of a single-source shortest-path computation.
#[derive(Debug, Clone, PartialEq)]
pub struct ShortestPaths {
    /// `dist[v]` is the distance from the source (`f64::INFINITY` if unreachable).
    pub dist: Vec<f64>,
    /// `parent[v]` is the predecessor of `v` on a shortest path (`usize::MAX` if none).
    pub parent: Vec<NodeId>,
}

impl ShortestPaths {
    /// Reconstructs the node sequence from the source to `target`, if reachable.
    pub fn path_to(&self, target: NodeId) -> Option<Vec<NodeId>> {
        if self.dist[target].is_infinite() {
            return None;
        }
        let mut path = vec![target];
        let mut cur = target;
        while self.parent[cur] != usize::MAX {
            cur = self.parent[cur];
            path.push(cur);
        }
        path.reverse();
        Some(path)
    }
}

/// Priority-queue entry for [`dijkstra`]; `pub(crate)` so
/// [`crate::scratch::DijkstraScratch`] can own the heap between calls.
#[derive(Debug, PartialEq)]
pub(crate) struct HeapEntry {
    dist: f64,
    node: NodeId,
}

impl Eq for HeapEntry {}

impl Ord for HeapEntry {
    fn cmp(&self, other: &Self) -> Ordering {
        // Min-heap by distance; ties broken by node id for determinism.
        other
            .dist
            .partial_cmp(&self.dist)
            .unwrap_or(Ordering::Equal)
            .then_with(|| other.node.cmp(&self.node))
    }
}

impl PartialOrd for HeapEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Dijkstra over any weighted out-adjacency view (undirected graphs expose
/// each edge at both endpoints, so direction handling is uniform).
///
/// # Panics
///
/// Panics if any traversed weight is negative (Dijkstra's precondition).
///
/// # Examples
///
/// ```
/// use csn_graph::{WeightedGraph, shortest_path::dijkstra};
///
/// let mut g = WeightedGraph::new(3);
/// g.add_edge(0, 1, 1.0);
/// g.add_edge(1, 2, 2.0);
/// g.add_edge(0, 2, 10.0);
/// let sp = dijkstra(&g, 0);
/// assert_eq!(sp.dist[2], 3.0);
/// assert_eq!(sp.path_to(2), Some(vec![0, 1, 2]));
/// ```
pub fn dijkstra<G: WeightedGraphView>(g: &G, source: NodeId) -> ShortestPaths {
    let mut out = ShortestPaths { dist: Vec::new(), parent: Vec::new() };
    dijkstra_into(g, source, &mut crate::scratch::DijkstraScratch::new(), &mut out);
    out
}

/// [`dijkstra`] into a caller-provided scratch and result struct: identical
/// output, with the priority queue's allocation reused across calls (see
/// the reuse contract in [`crate::scratch`]). `out` is overwritten.
///
/// # Panics
///
/// Panics if any traversed weight is negative (Dijkstra's precondition).
pub fn dijkstra_into<G: WeightedGraphView>(
    g: &G,
    source: NodeId,
    scratch: &mut crate::scratch::DijkstraScratch,
    out: &mut ShortestPaths,
) {
    let n = g.node_count();
    out.dist.clear();
    out.dist.resize(n, f64::INFINITY);
    out.parent.clear();
    out.parent.resize(n, usize::MAX);
    let heap = &mut scratch.heap;
    heap.clear();
    out.dist[source] = 0.0;
    heap.push(HeapEntry { dist: 0.0, node: source });
    while let Some(HeapEntry { dist: d, node: u }) = heap.pop() {
        if d > out.dist[u] {
            continue;
        }
        for (v, w) in g.weighted_neighbors(u) {
            assert!(w >= 0.0, "dijkstra requires non-negative weights");
            let nd = d + w;
            if nd < out.dist[v] {
                out.dist[v] = nd;
                out.parent[v] = u;
                heap.push(HeapEntry { dist: nd, node: v });
            }
        }
    }
}

/// Bellman–Ford on a weighted digraph; handles negative arcs.
///
/// # Errors
///
/// Returns [`GraphError::NegativeCycle`] if a negative cycle is reachable
/// from `source`.
pub fn bellman_ford(g: &WeightedDigraph, source: NodeId) -> Result<ShortestPaths, GraphError> {
    let n = g.node_count();
    let mut dist = vec![f64::INFINITY; n];
    let mut parent = vec![usize::MAX; n];
    dist[source] = 0.0;
    for round in 0..n {
        let mut changed = false;
        for (u, v, w) in g.arcs() {
            if dist[u].is_finite() && dist[u] + w < dist[v] {
                dist[v] = dist[u] + w;
                parent[v] = u;
                changed = true;
            }
        }
        if !changed {
            break;
        }
        if round == n - 1 {
            return Err(GraphError::NegativeCycle);
        }
    }
    Ok(ShortestPaths { dist, parent })
}

/// All-pairs shortest path distances via repeated Dijkstra, reusing one
/// heap scratch and result struct across sources.
///
/// Suitable for the small/medium graphs used in the experiments; `O(n·m log n)`.
pub fn all_pairs_dijkstra<G: WeightedGraphView>(g: &G) -> Vec<Vec<f64>> {
    let mut sc = crate::scratch::DijkstraScratch::new();
    let mut sp = ShortestPaths { dist: Vec::new(), parent: Vec::new() };
    g.nodes()
        .map(|s| {
            dijkstra_into(g, s, &mut sc, &mut sp);
            sp.dist.clone()
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::WeightedGraph;

    fn diamond() -> WeightedGraph {
        // 0 -1- 1 -1- 3, 0 -5- 2 -1- 3
        let mut g = WeightedGraph::new(4);
        g.add_edge(0, 1, 1.0);
        g.add_edge(1, 3, 1.0);
        g.add_edge(0, 2, 5.0);
        g.add_edge(2, 3, 1.0);
        g
    }

    #[test]
    fn dijkstra_picks_cheaper_branch() {
        let sp = dijkstra(&diamond(), 0);
        assert_eq!(sp.dist, vec![0.0, 1.0, 3.0, 2.0]);
        assert_eq!(sp.path_to(3), Some(vec![0, 1, 3]));
        assert_eq!(sp.path_to(2), Some(vec![0, 1, 3, 2]));
    }

    #[test]
    fn dijkstra_unreachable_is_infinite() {
        let mut g = WeightedGraph::new(3);
        g.add_edge(0, 1, 1.0);
        let sp = dijkstra(&g, 0);
        assert!(sp.dist[2].is_infinite());
        assert_eq!(sp.path_to(2), None);
    }

    #[test]
    fn dijkstra_digraph_respects_direction() {
        let mut g = WeightedDigraph::new(3);
        g.add_arc(0, 1, 1.0);
        g.add_arc(1, 2, 1.0);
        let sp = dijkstra(&g, 2);
        assert!(sp.dist[0].is_infinite(), "arcs point away from 2");
    }

    #[test]
    fn dijkstra_into_reuses_scratch_across_graphs() {
        let g1 = diamond();
        let mut g2 = WeightedGraph::new(2);
        g2.add_edge(0, 1, 0.5);
        let mut sc = crate::scratch::DijkstraScratch::new();
        let mut sp = ShortestPaths { dist: Vec::new(), parent: Vec::new() };
        for _ in 0..2 {
            dijkstra_into(&g1, 0, &mut sc, &mut sp);
            assert_eq!(sp, dijkstra(&g1, 0));
            dijkstra_into(&g2, 1, &mut sc, &mut sp);
            assert_eq!(sp, dijkstra(&g2, 1));
        }
    }

    #[test]
    fn bellman_ford_matches_dijkstra_on_nonnegative() {
        let g = diamond();
        let mut d = WeightedDigraph::new(4);
        for (u, v, w) in g.edges() {
            d.add_arc(u, v, w);
            d.add_arc(v, u, w);
        }
        let bf = bellman_ford(&d, 0).unwrap();
        let dj = dijkstra(&g, 0);
        assert_eq!(bf.dist, dj.dist);
    }

    #[test]
    fn bellman_ford_handles_negative_arc() {
        let mut d = WeightedDigraph::new(3);
        d.add_arc(0, 1, 4.0);
        d.add_arc(0, 2, 2.0);
        d.add_arc(2, 1, -3.0);
        let sp = bellman_ford(&d, 0).unwrap();
        assert_eq!(sp.dist[1], -1.0);
    }

    #[test]
    fn bellman_ford_detects_negative_cycle() {
        let mut d = WeightedDigraph::new(3);
        d.add_arc(0, 1, 1.0);
        d.add_arc(1, 2, -2.0);
        d.add_arc(2, 1, 1.0);
        assert_eq!(bellman_ford(&d, 0).unwrap_err(), GraphError::NegativeCycle);
    }

    #[test]
    fn all_pairs_is_symmetric_on_undirected() {
        let g = diamond();
        let apsp = all_pairs_dijkstra(&g);
        for u in 0..4 {
            for v in 0..4 {
                assert_eq!(apsp[u][v], apsp[v][u]);
            }
        }
        assert_eq!(apsp[2][1], 2.0);
    }
}

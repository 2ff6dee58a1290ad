//! Frozen CSR (compressed sparse row) forms of the directed and weighted
//! graphs.
//!
//! [`Digraph`], [`WeightedGraph`] and [`WeightedDigraph`] store one `Vec`
//! per node — convenient to mutate, but every neighbor scan chases a
//! pointer. The frozen counterparts here pack all neighbor lists into two
//! flat arrays (`offsets` + `targets`), so traversal-heavy kernels stream
//! through contiguous memory. Freeze once per analysis with
//! [`Digraph::freeze`] and friends, run any of the generic kernels on the
//! result, and [`CsrDigraph::thaw`] back if mutation is needed again. The
//! undirected [`Graph`](crate::Graph) freezes into
//! [`crate::CompactCsrGraph`] instead (see [`crate::compact`]).
//!
//! Freezing preserves each node's neighbor *order* exactly as stored in the
//! adjacency lists. This is load-bearing: kernels like Tarjan's SCC and
//! PageRank accumulation are order-sensitive, and the experiment snapshots
//! assert byte-identical output whichever representation runs the kernel.
//!
//! # Examples
//!
//! ```
//! use csn_graph::{Digraph, DigraphView};
//!
//! let d = Digraph::from_arcs(3, &[(0, 1), (1, 2), (2, 0)]).unwrap();
//! let csr = d.freeze();
//! assert_eq!(csr.arc_count(), 3);
//! assert_eq!(csr.out_neighbors(1).collect::<Vec<_>>(), vec![2]);
//! assert_eq!(csr.thaw(), d);
//! ```

use crate::graph::{Digraph, NodeId, WeightedDigraph, WeightedGraph};
use crate::view::{DigraphView, SliceNeighbors, SliceWeightedNeighbors, WeightedGraphView};

/// Packs per-node lists into a CSR pair `(offsets, flat)`, preserving order.
fn pack<T: Copy>(lists: &[Vec<T>]) -> (Vec<usize>, Vec<T>) {
    let mut offsets = Vec::with_capacity(lists.len() + 1);
    offsets.push(0);
    let total = lists.iter().map(Vec::len).sum();
    let mut flat = Vec::with_capacity(total);
    for list in lists {
        flat.extend_from_slice(list);
        offsets.push(flat.len());
    }
    (offsets, flat)
}

/// A frozen directed graph in CSR form (both directions packed, so
/// in-neighbor queries are as cheap as out-neighbor ones).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CsrDigraph {
    out_offsets: Vec<usize>,
    out_targets: Vec<NodeId>,
    in_offsets: Vec<usize>,
    in_targets: Vec<NodeId>,
    arc_count: usize,
}

impl CsrDigraph {
    /// Freezes `d` into CSR form, preserving arc-list order.
    pub fn from_digraph(d: &Digraph) -> Self {
        let out: Vec<Vec<NodeId>> =
            d.nodes().map(|u| Digraph::out_neighbors(d, u).to_vec()).collect();
        let inn: Vec<Vec<NodeId>> =
            d.nodes().map(|u| Digraph::in_neighbors(d, u).to_vec()).collect();
        let (out_offsets, out_targets) = pack(&out);
        let (in_offsets, in_targets) = pack(&inn);
        CsrDigraph { out_offsets, out_targets, in_offsets, in_targets, arc_count: d.arc_count() }
    }

    /// Out-neighbors of `u` as a slice.
    pub fn out_neighbor_slice(&self, u: NodeId) -> &[NodeId] {
        &self.out_targets[self.out_offsets[u]..self.out_offsets[u + 1]]
    }

    /// In-neighbors of `u` as a slice.
    pub fn in_neighbor_slice(&self, u: NodeId) -> &[NodeId] {
        &self.in_targets[self.in_offsets[u]..self.in_offsets[u + 1]]
    }

    /// Thaws back into a mutable [`Digraph`] with the same arc set.
    pub fn thaw(&self) -> Digraph {
        let mut d = Digraph::new(self.node_count());
        for u in self.nodes() {
            for v in self.out_neighbor_slice(u) {
                d.add_arc(u, *v);
            }
        }
        d
    }
}

impl DigraphView for CsrDigraph {
    type OutNeighbors<'a> = SliceNeighbors<'a>;
    type InNeighbors<'a> = SliceNeighbors<'a>;

    fn node_count(&self) -> usize {
        self.out_offsets.len() - 1
    }

    fn arc_count(&self) -> usize {
        self.arc_count
    }

    fn out_degree(&self, u: NodeId) -> usize {
        self.out_offsets[u + 1] - self.out_offsets[u]
    }

    fn in_degree(&self, u: NodeId) -> usize {
        self.in_offsets[u + 1] - self.in_offsets[u]
    }

    fn out_neighbors(&self, u: NodeId) -> SliceNeighbors<'_> {
        self.out_neighbor_slice(u).iter().copied()
    }

    fn in_neighbors(&self, u: NodeId) -> SliceNeighbors<'_> {
        self.in_neighbor_slice(u).iter().copied()
    }
}

/// A frozen weighted graph in CSR form: the out-adjacency of an undirected
/// or directed weighted graph packed as `(target, weight)` pairs.
#[derive(Debug, Clone, PartialEq)]
pub struct WeightedCsrGraph {
    offsets: Vec<usize>,
    targets: Vec<(NodeId, f64)>,
}

impl WeightedCsrGraph {
    /// Freezes an undirected weighted graph (each edge appears in both
    /// endpoints' rows, as in the adjacency-list original).
    pub fn from_weighted_graph(g: &WeightedGraph) -> Self {
        let lists: Vec<Vec<(NodeId, f64)>> =
            g.nodes().map(|u| WeightedGraph::neighbors(g, u).to_vec()).collect();
        let (offsets, targets) = pack(&lists);
        WeightedCsrGraph { offsets, targets }
    }

    /// Freezes a weighted digraph's out-adjacency.
    pub fn from_weighted_digraph(d: &WeightedDigraph) -> Self {
        let lists: Vec<Vec<(NodeId, f64)>> =
            d.nodes().map(|u| WeightedDigraph::out_neighbors(d, u).to_vec()).collect();
        let (offsets, targets) = pack(&lists);
        WeightedCsrGraph { offsets, targets }
    }

    /// Weighted out-neighbors of `u` as a slice.
    pub fn neighbor_slice(&self, u: NodeId) -> &[(NodeId, f64)] {
        &self.targets[self.offsets[u]..self.offsets[u + 1]]
    }
}

impl WeightedGraphView for WeightedCsrGraph {
    type WeightedNeighbors<'a> = SliceWeightedNeighbors<'a>;

    fn node_count(&self) -> usize {
        self.offsets.len() - 1
    }

    fn weighted_neighbors(&self, u: NodeId) -> SliceWeightedNeighbors<'_> {
        self.neighbor_slice(u).iter().copied()
    }
}

impl Digraph {
    /// Freezes this digraph into an immutable [`CsrDigraph`], preserving
    /// arc-list order in both directions.
    pub fn freeze(&self) -> CsrDigraph {
        CsrDigraph::from_digraph(self)
    }
}

impl WeightedGraph {
    /// Freezes this weighted graph into an immutable [`WeightedCsrGraph`].
    pub fn freeze(&self) -> WeightedCsrGraph {
        WeightedCsrGraph::from_weighted_graph(self)
    }
}

impl WeightedDigraph {
    /// Freezes this weighted digraph's out-adjacency into an immutable
    /// [`WeightedCsrGraph`].
    pub fn freeze(&self) -> WeightedCsrGraph {
        WeightedCsrGraph::from_weighted_digraph(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Graph, GraphView};

    // `Graph::freeze` lives in `compact.rs`; its contract is pinned here
    // beside the other three `freeze`s.

    #[test]
    fn freeze_preserves_neighbor_order() {
        // add_edge order defines adjacency order; freezing must not re-sort it.
        let mut g = Graph::new(4);
        g.add_edge(0, 3);
        g.add_edge(0, 1);
        g.add_edge(0, 2);
        let frozen = g.freeze().unwrap();
        assert_eq!(frozen.neighbor_slice(0), &[3, 1, 2]);
        assert!(frozen.neighbors(0).eq(Graph::neighbors(&g, 0).iter().copied()));
    }

    #[test]
    fn freeze_thaw_round_trips_edge_set() {
        let g = Graph::from_edges(6, &[(0, 1), (1, 2), (2, 3), (3, 0), (4, 5)]).unwrap();
        assert_eq!(g.freeze().unwrap().thaw(), g);
    }

    #[test]
    fn csr_counts_match_original() {
        let g = Graph::from_edges(5, &[(0, 1), (1, 2), (2, 3)]).unwrap();
        let frozen = g.freeze().unwrap();
        assert_eq!(frozen.node_count(), 5);
        assert_eq!(GraphView::edge_count(&frozen), 3);
        assert_eq!(GraphView::degrees(&frozen), Graph::degrees(&g));
        assert_eq!(frozen.degree(4), 0, "isolated node has an empty row");
    }

    #[test]
    fn csr_digraph_round_trip_and_directions() {
        let d = Digraph::from_arcs(4, &[(0, 1), (1, 2), (2, 0), (3, 0)]).unwrap();
        let csr = d.freeze();
        assert_eq!(csr.arc_count(), 4);
        assert_eq!(csr.out_neighbor_slice(0), Digraph::out_neighbors(&d, 0));
        assert_eq!(csr.in_neighbor_slice(0), Digraph::in_neighbors(&d, 0));
        assert_eq!(csr.thaw(), d);
    }

    #[test]
    fn weighted_csr_exposes_both_endpoints() {
        let mut g = WeightedGraph::new(3);
        g.add_edge(0, 1, 2.5);
        g.add_edge(1, 2, 0.5);
        let csr = g.freeze();
        assert_eq!(csr.neighbor_slice(1), &[(0, 2.5), (2, 0.5)]);
        assert_eq!(WeightedGraphView::node_count(&csr), 3);

        let mut d = WeightedDigraph::new(3);
        d.add_arc(0, 1, 2.5);
        let dcsr = d.freeze();
        assert_eq!(dcsr.neighbor_slice(0), &[(1, 2.5)]);
        assert!(dcsr.neighbor_slice(1).is_empty(), "arcs stay directional");
    }
}

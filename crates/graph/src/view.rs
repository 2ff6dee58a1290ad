//! Read-only graph views: the traits the algorithm kernels are generic over.
//!
//! Every undirected read-only kernel in this crate ([`crate::traversal`],
//! [`crate::centrality`], [`crate::cores`]) takes `impl GraphView` instead of
//! a concrete graph type, so the mutable [`Graph`] and its frozen CSR form,
//! [`crate::CompactCsrGraph`], share one implementation of each algorithm.
//! [`WeightedGraphView`] does the same for the weighted graphs: one Dijkstra
//! ([`crate::shortest_path`]) serves [`WeightedGraph`] and
//! [`WeightedDigraph`]. The directed kernels take a [`crate::Digraph`],
//! which has no other form.
//!
//! The contract is deliberately minimal — counts, degrees, and neighbor
//! *iteration* (no positional indexing, no slice access) — so any
//! representation that can enumerate a node's neighbors in a stable order
//! qualifies. Neighbor order is part of the observable behavior of several
//! kernels (DFS preorder, BFS parent choice); [`Graph::freeze`] preserves
//! adjacency order exactly, which is why the two representations produce
//! identical outputs, a property the `csr_props` suite pins down.
//!
//! # Examples
//!
//! ```
//! use csn_graph::{Graph, GraphView};
//!
//! fn triangle_count<G: GraphView>(g: &G) -> usize {
//!     let mut count = 0;
//!     for u in g.nodes() {
//!         for v in g.neighbors(u) {
//!             if v > u {
//!                 count += g.neighbors(v).filter(|&w| w > v && g.has_edge(u, w)).count();
//!             }
//!         }
//!     }
//!     count
//! }
//!
//! let g = Graph::from_edges(4, &[(0, 1), (1, 2), (0, 2), (2, 3)]).unwrap();
//! assert_eq!(triangle_count(&g), 1);
//! assert_eq!(triangle_count(&g.freeze().unwrap()), 1);
//! ```

use crate::graph::{Graph, NodeId, WeightedDigraph, WeightedGraph};

/// Copied-slice neighbor iterator: the concrete iterator type behind the
/// adjacency-list view, which stores `NodeId`s contiguously
/// ([`crate::CompactCsrGraph`] widens `u32`s instead).
pub type SliceNeighbors<'a> = std::iter::Copied<std::slice::Iter<'a, NodeId>>;

/// Copied-slice weighted neighbor iterator.
pub type SliceWeightedNeighbors<'a> = std::iter::Copied<std::slice::Iter<'a, (NodeId, f64)>>;

/// A read-only view of a simple undirected graph with dense node ids
/// `0..node_count()`.
///
/// Neighbor iterators must be double-ended (DFS pushes neighbors in reverse
/// to visit the first-stored one first) and must enumerate each node's
/// neighbors in a stable, representation-defined order.
pub trait GraphView {
    /// Iterator over the neighbors of one node.
    type Neighbors<'a>: DoubleEndedIterator<Item = NodeId>
    where
        Self: 'a;

    /// Number of nodes.
    fn node_count(&self) -> usize;

    /// Number of (undirected) edges.
    fn edge_count(&self) -> usize;

    /// Degree of `u`.
    fn degree(&self, u: NodeId) -> usize;

    /// Iterates over the neighbors of `u` in storage order.
    fn neighbors(&self, u: NodeId) -> Self::Neighbors<'_>;

    /// Iterator over node ids `0..node_count()`.
    fn nodes(&self) -> std::ops::Range<NodeId> {
        0..self.node_count()
    }

    /// Degree sequence (unsorted, indexed by node).
    fn degrees(&self) -> Vec<usize> {
        self.nodes().map(|u| self.degree(u)).collect()
    }

    /// Tests whether the edge `(u, v)` exists by scanning the smaller
    /// neighbor list.
    fn has_edge(&self, u: NodeId, v: NodeId) -> bool {
        let (a, b) = if self.degree(u) <= self.degree(v) { (u, v) } else { (v, u) };
        self.neighbors(a).any(|w| w == b)
    }
}

/// A read-only weighted out-adjacency view: each node exposes its weighted
/// out-neighbors `(v, w)`.
///
/// Undirected weighted graphs implement this by listing every incident edge
/// at both endpoints, so one generic Dijkstra serves [`WeightedGraph`] and
/// [`WeightedDigraph`] alike.
pub trait WeightedGraphView {
    /// Iterator over the weighted out-neighbors of one node.
    type WeightedNeighbors<'a>: Iterator<Item = (NodeId, f64)>
    where
        Self: 'a;

    /// Number of nodes.
    fn node_count(&self) -> usize;

    /// Iterates over the weighted out-neighbors of `u` in storage order.
    fn weighted_neighbors(&self, u: NodeId) -> Self::WeightedNeighbors<'_>;

    /// Iterator over node ids `0..node_count()`.
    fn nodes(&self) -> std::ops::Range<NodeId> {
        0..self.node_count()
    }
}

impl GraphView for Graph {
    type Neighbors<'a> = SliceNeighbors<'a>;

    fn node_count(&self) -> usize {
        Graph::node_count(self)
    }

    fn edge_count(&self) -> usize {
        Graph::edge_count(self)
    }

    fn degree(&self, u: NodeId) -> usize {
        Graph::degree(self, u)
    }

    fn neighbors(&self, u: NodeId) -> SliceNeighbors<'_> {
        Graph::neighbors(self, u).iter().copied()
    }

    fn has_edge(&self, u: NodeId, v: NodeId) -> bool {
        Graph::has_edge(self, u, v)
    }
}

impl WeightedGraphView for WeightedGraph {
    type WeightedNeighbors<'a> = SliceWeightedNeighbors<'a>;

    fn node_count(&self) -> usize {
        WeightedGraph::node_count(self)
    }

    fn weighted_neighbors(&self, u: NodeId) -> SliceWeightedNeighbors<'_> {
        WeightedGraph::neighbors(self, u).iter().copied()
    }
}

impl WeightedGraphView for WeightedDigraph {
    type WeightedNeighbors<'a> = SliceWeightedNeighbors<'a>;

    fn node_count(&self) -> usize {
        WeightedDigraph::node_count(self)
    }

    fn weighted_neighbors(&self, u: NodeId) -> SliceWeightedNeighbors<'_> {
        WeightedDigraph::out_neighbors(self, u).iter().copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Generic helpers must see the same structure through either
    /// representation.
    fn degree_sum<G: GraphView>(g: &G) -> usize {
        g.nodes().map(|u| g.neighbors(u).count()).sum()
    }

    #[test]
    fn adjacency_graph_implements_view() {
        let g = Graph::from_edges(4, &[(0, 1), (1, 2), (2, 3)]).unwrap();
        assert_eq!(degree_sum(&g), 6);
        assert_eq!(GraphView::degrees(&g), vec![1, 2, 2, 1]);
        assert!(GraphView::has_edge(&g, 2, 1));
        assert!(!GraphView::has_edge(&g, 0, 3));
    }

    #[test]
    fn weighted_views_expose_out_adjacency() {
        let mut g = WeightedGraph::new(3);
        g.add_edge(0, 1, 2.5);
        assert_eq!(g.weighted_neighbors(1).collect::<Vec<_>>(), vec![(0, 2.5)]);
        let mut d = WeightedDigraph::new(3);
        d.add_arc(0, 1, 2.5);
        assert_eq!(d.weighted_neighbors(0).collect::<Vec<_>>(), vec![(1, 2.5)]);
        assert_eq!(d.weighted_neighbors(1).count(), 0, "arcs are directional");
    }
}

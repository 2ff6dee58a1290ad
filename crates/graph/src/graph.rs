//! Core graph types: simple undirected [`Graph`], directed [`Digraph`], and
//! their weighted counterparts.
//!
//! Nodes are dense indices `0..n`; this matches the paper's setting where
//! vertex identity carries no payload and lets every algorithm use flat
//! `Vec`-indexed state. Callers that need labelled vertices keep their own
//! side table.

use crate::error::GraphError;
use serde::{Deserialize, Serialize};

/// Node identifier: a dense index in `0..node_count()`.
pub type NodeId = usize;

/// A simple undirected graph (no self-loops, no parallel edges).
///
/// # Examples
///
/// ```
/// use csn_graph::Graph;
///
/// let mut g = Graph::new(3);
/// g.add_edge(0, 1);
/// assert!(g.has_edge(1, 0));
/// assert_eq!(g.degree(1), 1);
/// ```
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct Graph {
    adj: Vec<Vec<NodeId>>,
    edge_count: usize,
}

/// Structural equality: same node count and same edge *set* (adjacency-list
/// order is an implementation detail).
impl PartialEq for Graph {
    fn eq(&self, other: &Self) -> bool {
        if self.node_count() != other.node_count() || self.edge_count != other.edge_count {
            return false;
        }
        self.edges().all(|(u, v)| other.has_edge(u, v))
    }
}

impl Eq for Graph {}

impl Graph {
    /// Creates a graph with `n` isolated nodes.
    pub fn new(n: usize) -> Self {
        Graph { adj: vec![Vec::new(); n], edge_count: 0 }
    }

    /// Builds a graph from an edge list; `n` is the node count.
    ///
    /// Duplicate edges and self-loops are ignored, so the result is simple.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::NodeOutOfRange`] if any endpoint is `>= n`.
    pub fn from_edges(n: usize, edges: &[(NodeId, NodeId)]) -> Result<Self, GraphError> {
        let mut g = Graph::new(n);
        for &(u, v) in edges {
            g.check_node(u)?;
            g.check_node(v)?;
            if u != v {
                g.add_edge(u, v);
            }
        }
        Ok(g)
    }

    fn check_node(&self, u: NodeId) -> Result<(), GraphError> {
        if u >= self.node_count() {
            Err(GraphError::NodeOutOfRange { node: u, node_count: self.node_count() })
        } else {
            Ok(())
        }
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.adj.len()
    }

    /// Number of (undirected) edges.
    pub fn edge_count(&self) -> usize {
        self.edge_count
    }

    /// Adds the undirected edge `(u, v)`. Returns `true` if the edge was new.
    ///
    /// # Panics
    ///
    /// Panics if `u` or `v` is out of range, or if `u == v` (simple graph).
    pub fn add_edge(&mut self, u: NodeId, v: NodeId) -> bool {
        assert!(u < self.node_count() && v < self.node_count(), "node out of range");
        assert_ne!(u, v, "self-loops are not allowed in a simple graph");
        if self.has_edge(u, v) {
            return false;
        }
        self.adj[u].push(v);
        self.adj[v].push(u);
        self.edge_count += 1;
        true
    }

    /// Removes the undirected edge `(u, v)` if present; returns whether it existed.
    pub fn remove_edge(&mut self, u: NodeId, v: NodeId) -> bool {
        let Some(pos) = self.adj[u].iter().position(|&w| w == v) else {
            return false;
        };
        self.adj[u].swap_remove(pos);
        let pos_v = self.adj[v].iter().position(|&w| w == u).expect("asymmetric adjacency");
        self.adj[v].swap_remove(pos_v);
        self.edge_count -= 1;
        true
    }

    /// Appends a new isolated node and returns its id.
    pub fn add_node(&mut self) -> NodeId {
        self.adj.push(Vec::new());
        self.adj.len() - 1
    }

    /// Tests whether the edge `(u, v)` exists.
    pub fn has_edge(&self, u: NodeId, v: NodeId) -> bool {
        // Scan the smaller adjacency list.
        let (a, b) = if self.adj[u].len() <= self.adj[v].len() { (u, v) } else { (v, u) };
        self.adj[a].contains(&b)
    }

    /// Neighbors of `u`.
    pub fn neighbors(&self, u: NodeId) -> &[NodeId] {
        &self.adj[u]
    }

    /// Degree of `u`.
    pub fn degree(&self, u: NodeId) -> usize {
        self.adj[u].len()
    }

    /// Iterator over node ids `0..n`.
    pub fn nodes(&self) -> std::ops::Range<NodeId> {
        0..self.node_count()
    }

    /// Iterator over all edges as `(u, v)` with `u < v`.
    pub fn edges(&self) -> impl Iterator<Item = (NodeId, NodeId)> + '_ {
        self.adj
            .iter()
            .enumerate()
            .flat_map(|(u, ns)| ns.iter().filter(move |&&v| u < v).map(move |&v| (u, v)))
    }

    /// Returns the subgraph induced by `keep` (nodes are re-indexed densely),
    /// together with the mapping `old -> new` (`None` for dropped nodes).
    pub fn induced_subgraph(&self, keep: &[bool]) -> (Graph, Vec<Option<NodeId>>) {
        assert_eq!(keep.len(), self.node_count());
        let mut map = vec![None; self.node_count()];
        let mut next = 0;
        for u in self.nodes() {
            if keep[u] {
                map[u] = Some(next);
                next += 1;
            }
        }
        let mut g = Graph::new(next);
        for (u, v) in self.edges() {
            if let (Some(nu), Some(nv)) = (map[u], map[v]) {
                g.add_edge(nu, nv);
            }
        }
        (g, map)
    }

    /// Degree sequence (unsorted, indexed by node).
    pub fn degrees(&self) -> Vec<usize> {
        self.adj.iter().map(Vec::len).collect()
    }

    /// Converts to a directed graph with both arc directions per edge.
    pub fn to_digraph(&self) -> Digraph {
        let mut d = Digraph::new(self.node_count());
        for (u, v) in self.edges() {
            d.add_arc(u, v);
            d.add_arc(v, u);
        }
        d
    }
}

/// A directed graph (no parallel arcs; self-loops disallowed).
///
/// # Examples
///
/// ```
/// use csn_graph::Digraph;
///
/// let mut d = Digraph::new(2);
/// d.add_arc(0, 1);
/// assert!(d.has_arc(0, 1));
/// assert!(!d.has_arc(1, 0));
/// ```
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct Digraph {
    out: Vec<Vec<NodeId>>,
    inn: Vec<Vec<NodeId>>,
    arc_count: usize,
}

/// Structural equality: same node count and same arc *set*.
impl PartialEq for Digraph {
    fn eq(&self, other: &Self) -> bool {
        if self.node_count() != other.node_count() || self.arc_count != other.arc_count {
            return false;
        }
        self.arcs().all(|(u, v)| other.has_arc(u, v))
    }
}

impl Eq for Digraph {}

impl Digraph {
    /// Creates a digraph with `n` isolated nodes.
    pub fn new(n: usize) -> Self {
        Digraph { out: vec![Vec::new(); n], inn: vec![Vec::new(); n], arc_count: 0 }
    }

    /// Builds a digraph from an arc list.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::NodeOutOfRange`] if any endpoint is `>= n`.
    pub fn from_arcs(n: usize, arcs: &[(NodeId, NodeId)]) -> Result<Self, GraphError> {
        let mut d = Digraph::new(n);
        for &(u, v) in arcs {
            if u >= n || v >= n {
                return Err(GraphError::NodeOutOfRange { node: u.max(v), node_count: n });
            }
            if u != v {
                d.add_arc(u, v);
            }
        }
        Ok(d)
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.out.len()
    }

    /// Number of arcs.
    pub fn arc_count(&self) -> usize {
        self.arc_count
    }

    /// Adds arc `u -> v`; returns `true` if it was new.
    ///
    /// # Panics
    ///
    /// Panics if an endpoint is out of range or `u == v`.
    pub fn add_arc(&mut self, u: NodeId, v: NodeId) -> bool {
        assert!(u < self.node_count() && v < self.node_count(), "node out of range");
        assert_ne!(u, v, "self-loops are not allowed");
        if self.out[u].contains(&v) {
            return false;
        }
        self.out[u].push(v);
        self.inn[v].push(u);
        self.arc_count += 1;
        true
    }

    /// Removes arc `u -> v` if present; returns whether it existed.
    pub fn remove_arc(&mut self, u: NodeId, v: NodeId) -> bool {
        let Some(pos) = self.out[u].iter().position(|&w| w == v) else {
            return false;
        };
        self.out[u].swap_remove(pos);
        let pos_in = self.inn[v].iter().position(|&w| w == u).expect("asymmetric arc lists");
        self.inn[v].swap_remove(pos_in);
        self.arc_count -= 1;
        true
    }

    /// Reverses arc `u -> v` into `v -> u`; returns whether `u -> v` existed.
    pub fn reverse_arc(&mut self, u: NodeId, v: NodeId) -> bool {
        if self.remove_arc(u, v) {
            self.add_arc(v, u);
            true
        } else {
            false
        }
    }

    /// Tests whether arc `u -> v` exists.
    pub fn has_arc(&self, u: NodeId, v: NodeId) -> bool {
        self.out[u].contains(&v)
    }

    /// Out-neighbors of `u`.
    pub fn out_neighbors(&self, u: NodeId) -> &[NodeId] {
        &self.out[u]
    }

    /// In-neighbors of `u`.
    pub fn in_neighbors(&self, u: NodeId) -> &[NodeId] {
        &self.inn[u]
    }

    /// Out-degree of `u`.
    pub fn out_degree(&self, u: NodeId) -> usize {
        self.out[u].len()
    }

    /// In-degree of `u`.
    pub fn in_degree(&self, u: NodeId) -> usize {
        self.inn[u].len()
    }

    /// Iterator over node ids.
    pub fn nodes(&self) -> std::ops::Range<NodeId> {
        0..self.node_count()
    }

    /// Iterator over all arcs `(u, v)`.
    pub fn arcs(&self) -> impl Iterator<Item = (NodeId, NodeId)> + '_ {
        self.out.iter().enumerate().flat_map(|(u, ns)| ns.iter().map(move |&v| (u, v)))
    }

    /// Nodes with out-degree zero ("sinks"; cf. link reversal in §III-B).
    pub fn sinks(&self) -> Vec<NodeId> {
        self.nodes().filter(|&u| self.out_degree(u) == 0).collect()
    }

    /// Returns `true` if the digraph has no directed cycle.
    pub fn is_acyclic(&self) -> bool {
        self.topological_order().is_some()
    }

    /// Topological order if acyclic, else `None` (Kahn's algorithm).
    pub fn topological_order(&self) -> Option<Vec<NodeId>> {
        let n = self.node_count();
        let mut indeg: Vec<usize> = (0..n).map(|u| self.in_degree(u)).collect();
        let mut queue: Vec<NodeId> = (0..n).filter(|&u| indeg[u] == 0).collect();
        let mut order = Vec::with_capacity(n);
        while let Some(u) = queue.pop() {
            order.push(u);
            for &v in self.out_neighbors(u) {
                indeg[v] -= 1;
                if indeg[v] == 0 {
                    queue.push(v);
                }
            }
        }
        (order.len() == n).then_some(order)
    }

    /// The underlying undirected graph (arc direction dropped).
    pub fn to_undirected(&self) -> Graph {
        let mut g = Graph::new(self.node_count());
        for (u, v) in self.arcs() {
            if !g.has_edge(u, v) {
                g.add_edge(u, v);
            }
        }
        g
    }
}

/// An undirected graph with `f64` edge weights.
///
/// # Examples
///
/// ```
/// use csn_graph::WeightedGraph;
///
/// let mut g = WeightedGraph::new(3);
/// g.add_edge(0, 1, 2.5);
/// assert_eq!(g.weight(1, 0), Some(2.5));
/// ```
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct WeightedGraph {
    adj: Vec<Vec<(NodeId, f64)>>,
    edge_count: usize,
}

impl WeightedGraph {
    /// Creates a weighted graph with `n` isolated nodes.
    pub fn new(n: usize) -> Self {
        WeightedGraph { adj: vec![Vec::new(); n], edge_count: 0 }
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.adj.len()
    }

    /// Number of edges.
    pub fn edge_count(&self) -> usize {
        self.edge_count
    }

    /// Adds edge `(u, v)` with weight `w`; replaces the weight if present.
    ///
    /// # Panics
    ///
    /// Panics if an endpoint is out of range or `u == v`.
    pub fn add_edge(&mut self, u: NodeId, v: NodeId, w: f64) {
        assert!(u < self.node_count() && v < self.node_count(), "node out of range");
        assert_ne!(u, v, "self-loops are not allowed");
        if let Some(e) = self.adj[u].iter_mut().find(|(x, _)| *x == v) {
            e.1 = w;
            let e2 = self.adj[v].iter_mut().find(|(x, _)| *x == u).expect("asymmetric");
            e2.1 = w;
            return;
        }
        self.adj[u].push((v, w));
        self.adj[v].push((u, w));
        self.edge_count += 1;
    }

    /// Weight of edge `(u, v)` if it exists.
    pub fn weight(&self, u: NodeId, v: NodeId) -> Option<f64> {
        self.adj[u].iter().find(|(x, _)| *x == v).map(|&(_, w)| w)
    }

    /// Weighted neighbors of `u` as `(neighbor, weight)` pairs.
    pub fn neighbors(&self, u: NodeId) -> &[(NodeId, f64)] {
        &self.adj[u]
    }

    /// Iterator over node ids.
    pub fn nodes(&self) -> std::ops::Range<NodeId> {
        0..self.node_count()
    }

    /// Iterator over edges as `(u, v, w)` with `u < v`.
    pub fn edges(&self) -> impl Iterator<Item = (NodeId, NodeId, f64)> + '_ {
        self.adj.iter().enumerate().flat_map(|(u, ns)| {
            ns.iter().filter(move |&&(v, _)| u < v).map(move |&(v, w)| (u, v, w))
        })
    }

    /// The unweighted skeleton of this graph.
    pub fn to_unweighted(&self) -> Graph {
        let mut g = Graph::new(self.node_count());
        for (u, v, _) in self.edges() {
            g.add_edge(u, v);
        }
        g
    }
}

/// A directed graph with `f64` arc weights (e.g. capacities for max-flow).
///
/// # Examples
///
/// ```
/// use csn_graph::WeightedDigraph;
///
/// let mut d = WeightedDigraph::new(2);
/// d.add_arc(0, 1, 4.0);
/// assert_eq!(d.weight(0, 1), Some(4.0));
/// ```
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct WeightedDigraph {
    out: Vec<Vec<(NodeId, f64)>>,
    arc_count: usize,
}

impl WeightedDigraph {
    /// Creates a weighted digraph with `n` isolated nodes.
    pub fn new(n: usize) -> Self {
        WeightedDigraph { out: vec![Vec::new(); n], arc_count: 0 }
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.out.len()
    }

    /// Number of arcs.
    pub fn arc_count(&self) -> usize {
        self.arc_count
    }

    /// Adds arc `u -> v` with weight `w`; replaces the weight if present.
    ///
    /// # Panics
    ///
    /// Panics if an endpoint is out of range or `u == v`.
    pub fn add_arc(&mut self, u: NodeId, v: NodeId, w: f64) {
        assert!(u < self.node_count() && v < self.node_count(), "node out of range");
        assert_ne!(u, v, "self-loops are not allowed");
        if let Some(e) = self.out[u].iter_mut().find(|(x, _)| *x == v) {
            e.1 = w;
            return;
        }
        self.out[u].push((v, w));
        self.arc_count += 1;
    }

    /// Weight of arc `u -> v` if it exists.
    pub fn weight(&self, u: NodeId, v: NodeId) -> Option<f64> {
        self.out[u].iter().find(|(x, _)| *x == v).map(|&(_, w)| w)
    }

    /// Weighted out-neighbors of `u`.
    pub fn out_neighbors(&self, u: NodeId) -> &[(NodeId, f64)] {
        &self.out[u]
    }

    /// Iterator over node ids.
    pub fn nodes(&self) -> std::ops::Range<NodeId> {
        0..self.node_count()
    }

    /// Iterator over arcs as `(u, v, w)`.
    pub fn arcs(&self) -> impl Iterator<Item = (NodeId, NodeId, f64)> + '_ {
        self.out.iter().enumerate().flat_map(|(u, ns)| ns.iter().map(move |&(v, w)| (u, v, w)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn graph_add_remove_edges() {
        let mut g = Graph::new(4);
        assert!(g.add_edge(0, 1));
        assert!(!g.add_edge(1, 0), "duplicate edge must be rejected");
        assert!(g.add_edge(1, 2));
        assert_eq!(g.edge_count(), 2);
        assert!(g.remove_edge(0, 1));
        assert!(!g.remove_edge(0, 1));
        assert_eq!(g.edge_count(), 1);
        assert!(!g.has_edge(0, 1));
        assert!(g.has_edge(2, 1));
    }

    #[test]
    #[should_panic(expected = "self-loops")]
    fn graph_rejects_self_loop() {
        let mut g = Graph::new(2);
        g.add_edge(1, 1);
    }

    #[test]
    fn graph_from_edges_validates() {
        let err = Graph::from_edges(2, &[(0, 5)]).unwrap_err();
        assert_eq!(err, GraphError::NodeOutOfRange { node: 5, node_count: 2 });
        let g = Graph::from_edges(3, &[(0, 1), (1, 0), (2, 2)]).unwrap();
        assert_eq!(g.edge_count(), 1, "dups and self-loops dropped");
    }

    #[test]
    fn graph_edges_iterator_is_canonical() {
        let g = Graph::from_edges(4, &[(2, 1), (3, 0), (0, 1)]).unwrap();
        let mut es: Vec<_> = g.edges().collect();
        es.sort_unstable();
        assert_eq!(es, vec![(0, 1), (0, 3), (1, 2)]);
    }

    #[test]
    fn induced_subgraph_reindexes() {
        let g = Graph::from_edges(5, &[(0, 1), (1, 2), (2, 3), (3, 4)]).unwrap();
        let keep = vec![true, false, true, true, false];
        let (sub, map) = g.induced_subgraph(&keep);
        assert_eq!(sub.node_count(), 3);
        assert_eq!(sub.edge_count(), 1, "only (2,3) survives");
        assert_eq!(map[2], Some(1));
        assert_eq!(map[1], None);
        assert!(sub.has_edge(1, 2));
    }

    #[test]
    fn digraph_arcs_and_reversal() {
        let mut d = Digraph::new(3);
        d.add_arc(0, 1);
        d.add_arc(1, 2);
        assert_eq!(d.arc_count(), 2);
        assert_eq!(d.in_degree(2), 1);
        assert_eq!((d.out_neighbors(1), d.in_neighbors(1)), (&[2][..], &[0][..]));
        assert_eq!(d.out_degree(2), 0);
        assert!(d.reverse_arc(0, 1));
        assert!(d.has_arc(1, 0));
        assert!(!d.has_arc(0, 1));
        assert!(!d.reverse_arc(0, 1), "arc no longer in that direction");
    }

    #[test]
    fn digraph_topological_order() {
        let d = Digraph::from_arcs(4, &[(0, 1), (0, 2), (1, 3), (2, 3)]).unwrap();
        let order = d.topological_order().expect("DAG");
        let pos: Vec<_> = {
            let mut p = vec![0; 4];
            for (i, &u) in order.iter().enumerate() {
                p[u] = i;
            }
            p
        };
        for (u, v) in d.arcs() {
            assert!(pos[u] < pos[v]);
        }
        assert!(d.is_acyclic());

        let cyc = Digraph::from_arcs(3, &[(0, 1), (1, 2), (2, 0)]).unwrap();
        assert!(!cyc.is_acyclic());
        assert!(cyc.topological_order().is_none());
    }

    #[test]
    fn digraph_sinks() {
        let d = Digraph::from_arcs(4, &[(0, 1), (2, 1)]).unwrap();
        let mut s = d.sinks();
        s.sort_unstable();
        assert_eq!(s, vec![1, 3]);
    }

    #[test]
    fn weighted_graph_updates_weight() {
        let mut g = WeightedGraph::new(3);
        g.add_edge(0, 1, 1.0);
        g.add_edge(0, 1, 9.0);
        assert_eq!(g.edge_count(), 1);
        assert_eq!(g.weight(1, 0), Some(9.0));
        assert_eq!(g.weight(1, 2), None);
    }

    #[test]
    fn weighted_digraph_is_directional() {
        let mut d = WeightedDigraph::new(3);
        d.add_arc(0, 1, 3.0);
        assert_eq!(d.weight(0, 1), Some(3.0));
        assert_eq!(d.weight(1, 0), None);
        d.add_arc(0, 1, 5.0);
        assert_eq!(d.arc_count(), 1);
        assert_eq!(d.weight(0, 1), Some(5.0));
    }

    #[test]
    fn to_digraph_round_trip() {
        let g = Graph::from_edges(3, &[(0, 1), (1, 2)]).unwrap();
        let d = g.to_digraph();
        assert_eq!(d.arc_count(), 4);
        assert_eq!(d.to_undirected(), g);
    }
}

//! The frozen undirected graph: [`CompactCsrGraph`], built by
//! [`Graph::freeze`] and by every [`crate::stream::EdgeStream`].
//!
//! [`Graph`] stores one `Vec` per node — convenient to mutate, but every
//! neighbor scan chases a pointer. The frozen form packs all neighbor lists
//! into two flat `u32` arrays (`offsets` + `targets`), so traversal-heavy
//! kernels stream through contiguous memory. Freeze a graph once per
//! analysis, run any generic kernel on the result through [`GraphView`],
//! and [`CompactCsrGraph::thaw`] back if mutation is needed again.
//!
//! Freezing preserves each node's neighbor *order* exactly as stored in the
//! adjacency lists. This is load-bearing: DFS preorder, BFS parent choice
//! and Brandes accumulation are order-sensitive, and the experiment
//! snapshots assert byte-identical output whichever representation runs the
//! kernel.
//!
//! Streamed builds never create an intermediate adjacency list: the
//! [`crate::stream::EdgeStream`] generators replay their (deterministic)
//! edge sequence twice — one pass to count degrees, one pass to fill rows —
//! so building a compact CSR for n = 10⁶ peaks at the size of the finished
//! arrays plus the generator's own state.
//!
//! All entry points validate that node ids and packed adjacency entries fit
//! in `u32` and return [`GraphError::IndexOverflow`] instead of wrapping.
//!
//! # Performance
//!
//! Each adjacency entry takes 4 bytes and each node a 4-byte offset: 28 heap
//! bytes per node for a Barabási–Albert graph with m = 3 (6 directed entries
//! per node), half of what `usize` ids and offsets would take. The measured
//! number lives in the committed `BENCH_scale.json` (see SCALING.md);
//! [`CompactCsrGraph::heap_bytes`] reports the actual allocation.
//!
//! Rows are read through [`CompactNeighbors`], a named iterator whose `u32`
//! → [`NodeId`] widening inlines into the kernels' loops. It replaced a
//! `Map` over a `fn` pointer, which made every neighbor an indirect call and
//! left this form up to 2× slower than a `usize` CSR on cache-resident
//! graphs. Medians of 30 timed calls per cell, in six rounds alternating
//! the builds, on a 2-vCPU Intel Xeon; BA graphs with m = 3:
//!
//! | kernel, n | `fn`-pointer `u32` | named `u32` | `usize` CSR |
//! |---|---|---|---|
//! | Brandes, 1,500 | 223 ms | 195 ms | 216 ms |
//! | all-pairs BFS, 1,500 | 102 ms | 98 ms | 94 ms |
//! | `nsf_levels`, 1,500 | 0.16 ms | 0.08 ms | 0.09 ms |
//! | one BFS, 200,000 | 29 ms | 22 ms | 36 ms |
//! | `core_numbers`, 200,000 | 33 ms | 29 ms | 37 ms |
//! | `Graph` → frozen, 200,000 | 16 ms | 9 ms | 60 ms |
//!
//! # Examples
//!
//! ```
//! use csn_graph::{Graph, GraphView};
//!
//! let g = Graph::from_edges(4, &[(0, 1), (1, 2), (2, 3)]).unwrap();
//! let c = g.freeze().unwrap();
//! assert_eq!(c.node_count(), 4);
//! assert_eq!(c.neighbors(1).collect::<Vec<_>>(), vec![0, 2]);
//! assert_eq!(c.thaw(), g);
//! ```

use crate::error::GraphError;
use crate::graph::{Graph, NodeId};
use crate::view::GraphView;

/// Largest value representable in the compact index space.
const U32_LIMIT: usize = u32::MAX as usize;

/// Checked narrowing for the compact representation: values that do not
/// fit in `u32` become a typed [`GraphError::IndexOverflow`], never a wrap.
pub(crate) fn to_u32(value: usize, what: &'static str) -> Result<u32, GraphError> {
    u32::try_from(value).map_err(|_| GraphError::IndexOverflow { what, value, max: U32_LIMIT })
}

/// Neighbor iterator over one [`CompactCsrGraph`] row, widening each `u32`
/// target to a [`NodeId`]. Double-ended, because DFS pushes neighbors in
/// reverse.
#[derive(Debug, Clone)]
pub struct CompactNeighbors<'a>(std::slice::Iter<'a, u32>);

impl Iterator for CompactNeighbors<'_> {
    type Item = NodeId;

    #[inline]
    fn next(&mut self) -> Option<NodeId> {
        self.0.next().map(|&v| v as NodeId)
    }

    #[inline]
    fn size_hint(&self) -> (usize, Option<usize>) {
        self.0.size_hint()
    }
}

impl DoubleEndedIterator for CompactNeighbors<'_> {
    #[inline]
    fn next_back(&mut self) -> Option<NodeId> {
        self.0.next_back().map(|&v| v as NodeId)
    }
}

impl ExactSizeIterator for CompactNeighbors<'_> {}

/// How a streamed build arranges each node's row.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RowOrder {
    /// Keep the emission order (matches [`Graph::add_edge`] order, so
    /// kernels are bit-identical to the adjacency-list build). Requires the
    /// stream to emit each undirected edge exactly once.
    Emission,
    /// Sort each row ascending and drop duplicates (for streams that may
    /// emit an edge more than once, e.g. independently chosen long-range
    /// contacts from both endpoints).
    SortedDedup,
}

/// A frozen undirected graph in compact CSR form: `u32` node ids, `u32`
/// offsets, neighbor order preserved.
///
/// Build one with [`Graph::freeze`] or [`crate::EdgeStream::to_compact_csr`].
/// Implements [`GraphView`], so every generic kernel runs on it unchanged —
/// and, because freezing preserves adjacency order, order-sensitive kernels
/// (DFS preorder, Brandes accumulation) produce bit-identical results to
/// the [`Graph`] it came from.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CompactCsrGraph {
    offsets: Vec<u32>,
    targets: Vec<u32>,
    edge_count: usize,
}

impl CompactCsrGraph {
    /// Builds a compact CSR directly from a replayable edge stream without
    /// any intermediate adjacency structure. The stream is replayed twice
    /// (degree-count pass, fill pass) and **must** emit the identical edge
    /// sequence both times — the deterministic seeded generators in
    /// [`crate::stream`] satisfy this by construction.
    ///
    /// With [`RowOrder::Emission`] each row keeps the order in which its
    /// entries were emitted (matching what [`Graph::add_edge`] would have
    /// stored); duplicate edges are **not** detected and would corrupt the
    /// edge count. With [`RowOrder::SortedDedup`] rows are sorted and
    /// duplicates removed, so streams with rare double emissions stay
    /// simple.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::IndexOverflow`] if `n` or the emitted entry
    /// count exceeds `u32::MAX`, and [`GraphError::NodeOutOfRange`] /
    /// [`GraphError::SelfLoop`] for invalid emissions.
    pub fn from_edge_stream(
        n: usize,
        order: RowOrder,
        mut replay: impl FnMut(&mut dyn FnMut(NodeId, NodeId)),
    ) -> Result<Self, GraphError> {
        to_u32(n, "node count")?;
        // Pass 1: count degrees (duplicates included; SortedDedup compacts
        // after the fill pass).
        let mut degree = vec![0u32; n];
        let mut emitted = 0usize;
        let mut bad: Option<GraphError> = None;
        replay(&mut |u, v| {
            if bad.is_some() {
                return;
            }
            if u >= n || v >= n {
                bad = Some(GraphError::NodeOutOfRange { node: u.max(v), node_count: n });
                return;
            }
            if u == v {
                bad = Some(GraphError::SelfLoop(u));
                return;
            }
            degree[u] += 1;
            degree[v] += 1;
            emitted += 1;
        });
        if let Some(e) = bad {
            return Err(e);
        }
        to_u32(2 * emitted, "adjacency entries")?;

        // Exclusive prefix sums -> row start cursors.
        let mut offsets = Vec::with_capacity(n + 1);
        let mut acc = 0u32;
        offsets.push(0u32);
        for &d in &degree {
            acc += d;
            offsets.push(acc);
        }
        let mut cursor: Vec<u32> = offsets[..n].to_vec();
        let mut targets = vec![0u32; acc as usize];

        // Pass 2: fill. The stream contract guarantees the same sequence,
        // so the cursors land exactly on the counted slots.
        let mut filled = 0usize;
        replay(&mut |u, v| {
            targets[cursor[u] as usize] = v as u32;
            cursor[u] += 1;
            targets[cursor[v] as usize] = u as u32;
            cursor[v] += 1;
            filled += 1;
        });
        assert_eq!(filled, emitted, "edge stream replay emitted a different sequence length");

        let mut g = CompactCsrGraph { offsets, targets, edge_count: emitted };
        if order == RowOrder::SortedDedup {
            g.sort_dedup_rows();
        }
        Ok(g)
    }

    /// Sorts every row ascending, removes duplicate entries, and re-packs
    /// the arrays. A duplicate undirected edge appears in both endpoint
    /// rows, so per-row dedup keeps the representation consistent.
    fn sort_dedup_rows(&mut self) {
        let n = self.node_count();
        let mut write = 0usize;
        let mut read_start = 0usize;
        for u in 0..n {
            let read_end = self.offsets[u + 1] as usize;
            self.targets[read_start..read_end].sort_unstable();
            let row_start = write;
            let mut last = u32::MAX;
            for i in read_start..read_end {
                let t = self.targets[i];
                if i == read_start || t != last {
                    self.targets[write] = t;
                    write += 1;
                }
                last = t;
            }
            self.offsets[u] = row_start as u32;
            read_start = read_end;
        }
        self.offsets[n] = write as u32;
        self.targets.truncate(write);
        debug_assert_eq!(write % 2, 0, "rows must pair up");
        self.edge_count = write / 2;
    }

    /// Neighbors of `u` as a slice of the packed `u32` target array.
    pub fn neighbor_slice(&self, u: NodeId) -> &[u32] {
        &self.targets[self.offsets[u] as usize..self.offsets[u + 1] as usize]
    }

    /// Thaws back into a mutable adjacency-list [`Graph`] with the same
    /// edge set (and, for [`Graph::freeze`] and [`RowOrder::Emission`]
    /// builds, the same neighbor order).
    pub fn thaw(&self) -> Graph {
        let mut g = Graph::new(self.node_count());
        for u in self.nodes() {
            for &v in self.neighbor_slice(u) {
                if u < v as usize {
                    g.add_edge(u, v as usize);
                }
            }
        }
        g
    }

    /// Heap bytes held by the CSR arrays (capacity, not just length) — the
    /// number `BENCH_scale.json` reports as `compact_csr_u32` bytes per node.
    pub fn heap_bytes(&self) -> usize {
        self.offsets.capacity() * std::mem::size_of::<u32>()
            + self.targets.capacity() * std::mem::size_of::<u32>()
    }
}

impl GraphView for CompactCsrGraph {
    type Neighbors<'a> = CompactNeighbors<'a>;

    fn node_count(&self) -> usize {
        self.offsets.len() - 1
    }

    fn edge_count(&self) -> usize {
        self.edge_count
    }

    fn degree(&self, u: NodeId) -> usize {
        (self.offsets[u + 1] - self.offsets[u]) as usize
    }

    fn neighbors(&self, u: NodeId) -> CompactNeighbors<'_> {
        CompactNeighbors(self.neighbor_slice(u).iter())
    }
}

impl Graph {
    /// Freezes this graph into an immutable [`CompactCsrGraph`], preserving
    /// each node's neighbor order, so every generic kernel produces identical
    /// output on either representation.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::IndexOverflow`] if the node count or the
    /// number of packed adjacency entries (`2 · edge_count`) exceeds
    /// `u32::MAX`, as [`crate::EdgeStream::to_compact_csr`] does.
    ///
    /// # Examples
    ///
    /// ```
    /// use csn_graph::{Graph, GraphView, traversal};
    ///
    /// let g = Graph::from_edges(5, &[(0, 1), (1, 2), (3, 4)]).unwrap();
    /// let frozen = g.freeze().unwrap();
    /// assert_eq!(frozen.degree(1), 2);
    /// assert_eq!(
    ///     traversal::connected_components(&g),
    ///     traversal::connected_components(&frozen),
    /// );
    /// ```
    pub fn freeze(&self) -> Result<CompactCsrGraph, GraphError> {
        let n = self.node_count();
        to_u32(n, "node count")?;
        let entries = 2 * self.edge_count();
        to_u32(entries, "adjacency entries")?;
        let mut offsets = Vec::with_capacity(n + 1);
        offsets.push(0u32);
        let mut targets = Vec::with_capacity(entries);
        for u in self.nodes() {
            targets.extend(Graph::neighbors(self, u).iter().map(|&v| v as u32));
            offsets.push(targets.len() as u32);
        }
        Ok(CompactCsrGraph { offsets, targets, edge_count: self.edge_count() })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;
    use crate::traversal;

    #[test]
    fn compact_preserves_neighbor_order_and_round_trips() {
        let mut g = Graph::new(5);
        g.add_edge(0, 3);
        g.add_edge(0, 1);
        g.add_edge(0, 2);
        let c = g.freeze().unwrap();
        assert_eq!(c.neighbor_slice(0), &[3, 1, 2]);
        assert_eq!(c.thaw(), g);
        assert_eq!(c.degree(0), 3);
        assert_eq!(GraphView::edge_count(&c), 3);
        assert!(c.neighbor_slice(4).is_empty(), "isolated node has an empty row");
    }

    #[test]
    fn neighbors_iterate_an_emission_row_from_both_ends() {
        // Node 0's row keeps the emission order 4, 1, 3, 2 (not sorted).
        let c = CompactCsrGraph::from_edge_stream(5, RowOrder::Emission, |emit| {
            for v in [4, 1, 3, 2] {
                emit(0, v);
            }
        })
        .unwrap();
        assert_eq!(c.neighbors(0).collect::<Vec<_>>(), vec![4, 1, 3, 2]);
        assert_eq!(c.neighbors(0).rev().collect::<Vec<_>>(), vec![2, 3, 1, 4]);
        // Alternating ends meet in the middle without skipping or repeating
        // an entry, and `len` counts what is left.
        let mut it = c.neighbors(0);
        assert_eq!(it.len(), 4);
        assert_eq!(it.next(), Some(4));
        assert_eq!(it.next_back(), Some(2));
        assert_eq!(it.len(), 2);
        assert_eq!(it.next(), Some(1));
        assert_eq!(it.next_back(), Some(3));
        assert_eq!(it.len(), 0);
        assert_eq!((it.next(), it.next_back()), (None, None));
        assert_eq!(c.neighbors(1).len(), 1);
    }

    #[test]
    fn compact_kernels_bitwise_match_graph() {
        let g = generators::erdos_renyi(60, 0.1, 5).unwrap();
        let c = g.freeze().unwrap();
        assert_eq!(
            crate::centrality::betweenness_centrality(&g, 1),
            crate::centrality::betweenness_centrality(&c, 1)
        );
        assert_eq!(traversal::dfs_preorder(&g, 0), traversal::dfs_preorder(&c, 0));
        assert_eq!(traversal::bfs_distances(&g, 0), traversal::bfs_distances(&c, 0));
    }

    #[test]
    fn from_edge_stream_matches_from_graph() {
        let g = generators::barabasi_albert(200, 3, 9).unwrap();
        let edges: Vec<(NodeId, NodeId)> = g.edges().collect();
        // Emission in edges() order differs from add_edge order, but the
        // edge *set* (and hence thaw equality) must hold.
        let c = CompactCsrGraph::from_edge_stream(200, RowOrder::Emission, |emit| {
            for &(u, v) in &edges {
                emit(u, v);
            }
        })
        .unwrap();
        assert_eq!(c.thaw(), g);
        assert_eq!(GraphView::edge_count(&c), g.edge_count());
    }

    #[test]
    fn sorted_dedup_collapses_duplicate_emissions() {
        let c = CompactCsrGraph::from_edge_stream(4, RowOrder::SortedDedup, |emit| {
            emit(0, 1);
            emit(2, 1);
            emit(1, 0); // duplicate of (0, 1), reversed
            emit(0, 3);
        })
        .unwrap();
        assert_eq!(GraphView::edge_count(&c), 3);
        assert_eq!(c.neighbor_slice(1), &[0, 2]);
        assert_eq!(c.neighbor_slice(0), &[1, 3]);
        assert_eq!(c.thaw(), Graph::from_edges(4, &[(0, 1), (1, 2), (0, 3)]).unwrap());
    }

    #[test]
    fn stream_rejects_bad_emissions() {
        let r = CompactCsrGraph::from_edge_stream(3, RowOrder::Emission, |emit| emit(0, 7));
        assert!(matches!(r, Err(GraphError::NodeOutOfRange { node: 7, node_count: 3 })));
        let r = CompactCsrGraph::from_edge_stream(3, RowOrder::Emission, |emit| emit(1, 1));
        assert!(matches!(r, Err(GraphError::SelfLoop(1))));
    }

    #[test]
    fn to_u32_errors_instead_of_wrapping() {
        assert_eq!(to_u32(42, "x").unwrap(), 42);
        assert_eq!(to_u32(U32_LIMIT, "x").unwrap(), u32::MAX);
        let err = to_u32(U32_LIMIT + 1, "node count").unwrap_err();
        assert_eq!(
            err,
            GraphError::IndexOverflow { what: "node count", value: U32_LIMIT + 1, max: U32_LIMIT }
        );
    }
}

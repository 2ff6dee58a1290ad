//! Streaming graph generators: seeded models that emit edges directly into
//! CSR construction, with no intermediate adjacency blowup at n = 10⁶–10⁷.
//!
//! The classical generators in [`crate::generators`] build a mutable
//! [`Graph`] — one heap `Vec` per node — which is convenient at toy scale
//! but costs ~100 bytes/node of allocator-fragmented memory at a million
//! nodes. The [`EdgeStream`] implementations here instead *replay* a
//! deterministic edge sequence on demand: [`CompactCsrGraph::from_edge_stream`]
//! runs the stream twice (count pass, fill pass) and materializes only the
//! final packed arrays.
//!
//! Every stream is seeded and replay-deterministic: two calls to
//! [`EdgeStream::for_each_edge`] emit the identical sequence, which is the
//! whole contract the two-pass CSR build relies on.
//!
//! [`BaStream`] is the exact RNG-twin of
//! [`crate::generators::barabasi_albert`] (which now delegates to it), so a
//! streamed compact CSR and the adjacency-list build are not merely equal as
//! edge sets — they store neighbors in the same order and run every kernel
//! bit-identically. [`GeometricStream`] produces the same edge *set* as
//! [`crate::generators::random_geometric`] (cell-bucketed discovery order
//! differs). [`KleinbergStream`] and [`GnutellaStream`] are streaming-native
//! models documented below.
//!
//! # Performance
//!
//! Peak memory for a streamed build is the finished CSR (8 bytes per
//! adjacency entry counted once per direction in [`CompactCsrGraph`]) plus
//! the generator's own state: the preferential-attachment endpoints array
//! (4 bytes × 2 per edge) for [`BaStream`]/[`GnutellaStream`], the position
//! and cell-bucket arrays (24 bytes per node) for [`GeometricStream`], and
//! O(1) for [`KleinbergStream`]. No per-node `Vec` is ever allocated.
//! Throughput (edges/s built per generator) is recorded by
//! `perf_smoke --scale` in the committed `BENCH_scale.json`; see SCALING.md
//! for how to read it. Model invariants, seed replay and equality with the
//! adjacency-list generators are property tests in `scale_props.rs`.
//!
//! # Examples
//!
//! ```
//! use csn_graph::stream::{BaStream, EdgeStream};
//! use csn_graph::GraphView;
//!
//! let s = BaStream::new(1000, 3, 42).unwrap();
//! let c = s.to_compact_csr().unwrap();       // no adjacency lists built
//! assert_eq!(c.node_count(), 1000);
//! assert_eq!(c.thaw(), csn_graph::generators::barabasi_albert(1000, 3, 42).unwrap());
//! ```

use crate::compact::{to_u32, CompactCsrGraph, RowOrder};
use crate::error::GraphError;
use crate::graph::{Graph, NodeId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A replayable, deterministic source of undirected edges.
///
/// The contract: every call to [`EdgeStream::for_each_edge`] emits the
/// *identical* sequence of `(u, v)` pairs with `u, v < node_count()` and
/// `u != v`. Implementations are seeded value types, so replay just re-runs
/// the generator.
pub trait EdgeStream {
    /// Number of nodes the stream's edges range over.
    fn node_count(&self) -> usize;

    /// Emits every edge, in a deterministic order, exactly once per call.
    /// Streams flagged [`EdgeStream::may_duplicate`] may emit an edge twice
    /// (e.g. a long-range contact chosen independently by both endpoints).
    fn for_each_edge(&self, emit: &mut dyn FnMut(NodeId, NodeId));

    /// Whether the stream can emit the same undirected edge more than once.
    /// When `true`, CSR builds use [`RowOrder::SortedDedup`] and
    /// [`EdgeStream::to_graph`] relies on [`Graph::add_edge`] idempotence.
    fn may_duplicate(&self) -> bool {
        false
    }

    /// Materializes the stream as a mutable adjacency-list [`Graph`]
    /// (toy-scale path; the million-node path is
    /// [`EdgeStream::to_compact_csr`]).
    fn to_graph(&self) -> Graph {
        let mut g = Graph::new(self.node_count());
        self.for_each_edge(&mut |u, v| {
            g.add_edge(u, v);
        });
        g
    }

    /// Builds the compact CSR via the two-pass replay, never materializing
    /// adjacency lists.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::IndexOverflow`] if the node count or packed
    /// entry count exceeds `u32::MAX`.
    fn to_compact_csr(&self) -> Result<CompactCsrGraph, GraphError> {
        let order = if self.may_duplicate() { RowOrder::SortedDedup } else { RowOrder::Emission };
        CompactCsrGraph::from_edge_stream(self.node_count(), order, |emit| self.for_each_edge(emit))
    }
}

/// Streaming Barabási–Albert preferential attachment — the exact RNG-twin
/// of [`crate::generators::barabasi_albert`]: same seed, same edges, in the
/// same emission order.
///
/// State is one `u32` endpoints array (node id repeated once per incident
/// edge, which makes uniform sampling degree-proportional): 8 bytes per
/// edge, regardless of `n`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BaStream {
    n: usize,
    m: usize,
    seed: u64,
}

impl BaStream {
    /// Validates parameters (`1 <= m < n`, ids fit `u32`).
    ///
    /// # Errors
    ///
    /// [`GraphError::InvalidParameter`] for bad `m`;
    /// [`GraphError::IndexOverflow`] when `n` exceeds the `u32` id space.
    pub fn new(n: usize, m: usize, seed: u64) -> Result<Self, GraphError> {
        if m == 0 || m >= n {
            return Err(GraphError::InvalidParameter(format!("need 1 <= m < n, got m={m}, n={n}")));
        }
        to_u32(n, "node count")?;
        Ok(BaStream { n, m, seed })
    }
}

impl EdgeStream for BaStream {
    fn node_count(&self) -> usize {
        self.n
    }

    fn for_each_edge(&self, emit: &mut dyn FnMut(NodeId, NodeId)) {
        let (n, m) = (self.n, self.m);
        let mut rng = StdRng::seed_from_u64(self.seed);
        let clique_edges = m * (m + 1) / 2;
        let mut endpoints: Vec<u32> =
            Vec::with_capacity(2 * (clique_edges + n.saturating_sub(m + 1) * m));
        // Seed clique of m+1 nodes so every new node can find m distinct
        // targets; emission order matches the nested add_edge loops of the
        // original generator.
        for u in 0..=m {
            for v in (u + 1)..=m {
                emit(u, v);
                endpoints.push(u as u32);
                endpoints.push(v as u32);
            }
        }
        let mut targets: Vec<u32> = Vec::with_capacity(m);
        for u in (m + 1)..n {
            let uu = u as u32;
            targets.clear();
            // Sampling from the endpoints array is exactly
            // degree-proportional; the array is frozen while this node
            // selects (its own edges are appended afterwards), matching the
            // original generator's RNG consumption call-for-call.
            while targets.len() < m {
                let t = endpoints[rng.gen_range(0..endpoints.len())];
                if t != uu && !targets.contains(&t) {
                    targets.push(t);
                }
            }
            for &t in &targets {
                emit(u, t as NodeId);
                endpoints.push(uu);
                endpoints.push(t);
            }
        }
    }
}

/// Streaming random geometric graph: `n` uniform points in the unit square,
/// edge iff Euclidean distance ≤ `radius`, found by hashing points into a
/// `radius`-sized cell grid and scanning each point's 3×3 cell
/// neighborhood — `O(n + edges)` expected instead of the `O(n²)` pair loop
/// of [`crate::generators::random_geometric`].
///
/// Positions use the same seeded draw as `random_geometric`, so the edge
/// *set* is identical for equal `(n, radius, seed)` (discovery order
/// differs, so adjacency order does too).
#[derive(Debug, Clone)]
pub struct GeometricStream {
    positions: Vec<(f64, f64)>,
    radius: f64,
    /// Cells per axis.
    side: usize,
    /// Node ids sorted by cell (counting sort), rows delimited by `cell_start`.
    order: Vec<u32>,
    cell_start: Vec<u32>,
}

impl GeometricStream {
    /// Draws `n` positions with `seed` and builds the cell index.
    ///
    /// # Errors
    ///
    /// [`GraphError::InvalidParameter`] unless `radius > 0`;
    /// [`GraphError::IndexOverflow`] when `n` exceeds the `u32` id space.
    pub fn new(n: usize, radius: f64, seed: u64) -> Result<Self, GraphError> {
        // Rejects NaN too: a NaN radius compares Greater to nothing.
        if radius.partial_cmp(&0.0) != Some(std::cmp::Ordering::Greater) {
            return Err(GraphError::InvalidParameter(format!(
                "radius = {radius} must be positive"
            )));
        }
        to_u32(n, "node count")?;
        let mut rng = StdRng::seed_from_u64(seed);
        let positions: Vec<(f64, f64)> =
            (0..n).map(|_| (rng.gen::<f64>(), rng.gen::<f64>())).collect();
        // Cell width >= radius, so all partners of a point lie in its 3×3
        // cell neighborhood.
        let side = ((1.0 / radius).floor() as usize).clamp(1, n.max(1));
        let cell_of = |&(x, y): &(f64, f64)| -> usize {
            let cx = ((x * side as f64) as usize).min(side - 1);
            let cy = ((y * side as f64) as usize).min(side - 1);
            cy * side + cx
        };
        let mut counts = vec![0u32; side * side + 1];
        for p in &positions {
            counts[cell_of(p) + 1] += 1;
        }
        for i in 1..counts.len() {
            counts[i] += counts[i - 1];
        }
        let cell_start = counts.clone();
        let mut cursor = counts;
        let mut order = vec![0u32; n];
        for (i, p) in positions.iter().enumerate() {
            let c = cell_of(p);
            order[cursor[c] as usize] = i as u32;
            cursor[c] += 1;
        }
        Ok(GeometricStream { positions, radius, side, order, cell_start })
    }

    /// Node positions in `[0, 1]²` (same draw as
    /// [`crate::generators::random_geometric`] for equal seed).
    pub fn positions(&self) -> &[(f64, f64)] {
        &self.positions
    }
}

impl EdgeStream for GeometricStream {
    fn node_count(&self) -> usize {
        self.positions.len()
    }

    fn for_each_edge(&self, emit: &mut dyn FnMut(NodeId, NodeId)) {
        let r2 = self.radius * self.radius;
        let side = self.side;
        for u in 0..self.positions.len() {
            let (ux, uy) = self.positions[u];
            let cx = ((ux * side as f64) as usize).min(side - 1);
            let cy = ((uy * side as f64) as usize).min(side - 1);
            for dy in cy.saturating_sub(1)..=(cy + 1).min(side - 1) {
                for dx in cx.saturating_sub(1)..=(cx + 1).min(side - 1) {
                    let c = dy * side + dx;
                    for i in self.cell_start[c]..self.cell_start[c + 1] {
                        let v = self.order[i as usize] as usize;
                        // Emit each pair once, from the lower id.
                        if v <= u {
                            continue;
                        }
                        let (vx, vy) = self.positions[v];
                        let (ddx, ddy) = (ux - vx, uy - vy);
                        if ddx * ddx + ddy * ddy <= r2 {
                            emit(u, v);
                        }
                    }
                }
            }
        }
    }
}

/// Streaming Kleinberg small-world grid: a `side × side` 4-neighbor grid
/// plus, per node, `q` long-range contacts sampled from the
/// `manhattan_distance⁻ᵅ` ring distribution (the same ring-CDF sampler as
/// [`crate::generators::kleinberg_grid`]).
///
/// This is the streaming-*native* variant of the model: contact rejection
/// is purely local (grid neighbors at ring r = 1 and the node's own earlier
/// contacts), so no global adjacency is consulted. The same pair can be
/// chosen independently from both endpoints — [`EdgeStream::may_duplicate`]
/// is `true` and CSR builds dedup sorted rows — which makes the edge
/// sequence differ from `kleinberg_grid`'s (that one rejects against the
/// whole graph built so far).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KleinbergStream {
    side: usize,
    q: usize,
    alpha: f64,
    seed: u64,
}

impl KleinbergStream {
    /// Validates parameters (`side >= 2`, ids fit `u32`).
    ///
    /// # Errors
    ///
    /// [`GraphError::InvalidParameter`] for a degenerate grid;
    /// [`GraphError::IndexOverflow`] when `side²` exceeds the `u32` space.
    pub fn new(side: usize, q: usize, alpha: f64, seed: u64) -> Result<Self, GraphError> {
        if side < 2 {
            return Err(GraphError::InvalidParameter(format!("side = {side} must be at least 2")));
        }
        to_u32(side * side, "node count")?;
        Ok(KleinbergStream { side, q, alpha, seed })
    }
}

impl EdgeStream for KleinbergStream {
    fn node_count(&self) -> usize {
        self.side * self.side
    }

    fn may_duplicate(&self) -> bool {
        true
    }

    fn for_each_edge(&self, emit: &mut dyn FnMut(NodeId, NodeId)) {
        let (side, q, alpha) = (self.side, self.q, self.alpha);
        let n = side * side;
        // Grid edges, row-major (same order as generators::grid).
        for r in 0..side {
            for c in 0..side {
                let u = r * side + c;
                if c + 1 < side {
                    emit(u, u + 1);
                }
                if r + 1 < side {
                    emit(u, u + side);
                }
            }
        }
        // Ring-CDF sampler: 4r cells at Manhattan distance r, weight
        // ∝ 4 · r^{1-alpha}; sample a ring, then a uniform cell on it, and
        // reject cells off the finite grid.
        let mut rng = StdRng::seed_from_u64(self.seed);
        let max_r = 2 * (side - 1);
        let mut ring_cdf: Vec<f64> = Vec::with_capacity(max_r);
        let mut acc = 0.0;
        for r in 1..=max_r {
            acc += 4.0 * (r as f64).powf(1.0 - alpha);
            ring_cdf.push(acc);
        }
        let total = acc;
        let mut contacts: Vec<u32> = Vec::with_capacity(q);
        for u in 0..n {
            let (ur, uc) = (u / side, u % side);
            contacts.clear();
            let mut attempts = 0;
            while contacts.len() < q && attempts < 200 * q {
                attempts += 1;
                let x = rng.gen::<f64>() * total;
                let r = 1 + ring_cdf.partition_point(|&c| c <= x).min(max_r - 1);
                let dr = rng.gen_range(-(r as isize)..=(r as isize));
                let rem = r as isize - dr.abs();
                let dc = if rem == 0 {
                    0
                } else if rng.gen::<bool>() {
                    rem
                } else {
                    -rem
                };
                let (vr, vc) = (ur as isize + dr, uc as isize + dc);
                if vr < 0 || vc < 0 || vr >= side as isize || vc >= side as isize {
                    continue;
                }
                let v = vr as usize * side + vc as usize;
                // Local-only rejection: self, a grid neighbor (ring r = 1),
                // or one of this node's earlier contacts. Cross-node
                // duplicates are left for the CSR dedup.
                if v == u || r == 1 || contacts.contains(&(v as u32)) {
                    continue;
                }
                contacts.push(v as u32);
                emit(u, v);
            }
        }
    }
}

/// Streaming Gnutella-like peer-to-peer overlay: preferential attachment
/// with an ultrapeer degree cap, plus a fraction of uniform-random
/// "long-range" edges standing in for the rewiring of
/// [`crate::generators::gnutella_like`] (true rewiring needs global
/// adjacency queries, which a streaming build cannot afford).
///
/// The result keeps the load-bearing property of the Fig. 3 substitute — a
/// heavy-tailed, approximately power-law degree distribution with bounded
/// fan-out — while building straight into compact CSR. Random extras can
/// collide with attachment edges, so [`EdgeStream::may_duplicate`] is
/// `true`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GnutellaStream {
    n: usize,
    m: usize,
    cap: usize,
    extra: f64,
    seed: u64,
}

impl GnutellaStream {
    /// Validates parameters (`1 <= m < n`, `cap > m`, `0 <= extra <= 1`,
    /// ids fit `u32`).
    ///
    /// # Errors
    ///
    /// [`GraphError::InvalidParameter`] /
    /// [`GraphError::IndexOverflow`] as for the other streams.
    pub fn new(n: usize, m: usize, cap: usize, extra: f64, seed: u64) -> Result<Self, GraphError> {
        if m == 0 || m >= n {
            return Err(GraphError::InvalidParameter(format!("need 1 <= m < n, got m={m}, n={n}")));
        }
        if cap <= m {
            return Err(GraphError::InvalidParameter(format!(
                "degree cap {cap} must exceed m={m}"
            )));
        }
        if !(0.0..=1.0).contains(&extra) {
            return Err(GraphError::InvalidParameter(format!("extra = {extra} not in [0, 1]")));
        }
        to_u32(n, "node count")?;
        Ok(GnutellaStream { n, m, cap, extra, seed })
    }
}

impl EdgeStream for GnutellaStream {
    fn node_count(&self) -> usize {
        self.n
    }

    fn may_duplicate(&self) -> bool {
        true
    }

    fn for_each_edge(&self, emit: &mut dyn FnMut(NodeId, NodeId)) {
        let (n, m, cap) = (self.n, self.m, self.cap);
        let mut rng = StdRng::seed_from_u64(self.seed);
        let mut degree = vec![0u32; n];
        let clique_edges = m * (m + 1) / 2;
        let mut endpoints: Vec<u32> =
            Vec::with_capacity(2 * (clique_edges + n.saturating_sub(m + 1) * m));
        for u in 0..=m {
            for v in (u + 1)..=m {
                emit(u, v);
                endpoints.push(u as u32);
                endpoints.push(v as u32);
                degree[u] += 1;
                degree[v] += 1;
            }
        }
        let mut targets: Vec<u32> = Vec::with_capacity(m);
        let mut attachment_edges = clique_edges;
        for u in (m + 1)..n {
            let uu = u as u32;
            targets.clear();
            let mut attempts = 0;
            while targets.len() < m {
                attempts += 1;
                // Preferential sample with ultrapeer fan-out limit; after
                // enough saturated draws, fall back to a uniform peer so a
                // low cap cannot deadlock the build.
                let t = if attempts <= 50 * m {
                    endpoints[rng.gen_range(0..endpoints.len())]
                } else {
                    rng.gen_range(0..u) as u32
                };
                let capped = attempts <= 50 * m && degree[t as usize] as usize >= cap;
                if t != uu && !capped && !targets.contains(&t) {
                    targets.push(t);
                }
            }
            for &t in &targets {
                emit(u, t as NodeId);
                endpoints.push(uu);
                endpoints.push(t);
                degree[u] += 1;
                degree[t as usize] += 1;
                attachment_edges += 1;
            }
        }
        // Long-range extras: uniform random pairs, CSR dedup handles the
        // rare collision with an attachment edge.
        let extras = ((attachment_edges as f64) * self.extra) as usize;
        for _ in 0..extras {
            let a = rng.gen_range(0..n);
            let b = rng.gen_range(0..n);
            if a != b {
                emit(a, b);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;
    use crate::traversal::is_connected;
    use crate::view::GraphView;

    #[test]
    fn ba_stream_is_rng_twin_of_barabasi_albert() {
        // Not just the same edge set: the same adjacency order, so kernels
        // are bit-identical between the two builds.
        let s = BaStream::new(300, 3, 42).unwrap();
        let g = generators::barabasi_albert(300, 3, 42).unwrap();
        let c = s.to_compact_csr().unwrap();
        assert_eq!(c.thaw(), g);
        for u in g.nodes() {
            let row: Vec<usize> = c.neighbors(u).collect();
            assert_eq!(row.as_slice(), crate::Graph::neighbors(&g, u), "row {u}");
        }
        assert_eq!(
            crate::centrality::betweenness_centrality(&c, 1),
            crate::centrality::betweenness_centrality(&g, 1)
        );
    }

    #[test]
    fn ba_stream_replay_is_deterministic() {
        let s = BaStream::new(150, 2, 7).unwrap();
        let mut a = Vec::new();
        let mut b = Vec::new();
        s.for_each_edge(&mut |u, v| a.push((u, v)));
        s.for_each_edge(&mut |u, v| b.push((u, v)));
        assert_eq!(a, b);
        assert_ne!(a, {
            let mut c = Vec::new();
            BaStream::new(150, 2, 8).unwrap().for_each_edge(&mut |u, v| c.push((u, v)));
            c
        });
    }

    #[test]
    fn ba_stream_edge_count_and_degrees() {
        let (n, m) = (400, 3);
        let c = BaStream::new(n, m, 1).unwrap().to_compact_csr().unwrap();
        assert_eq!(GraphView::edge_count(&c), m * (m + 1) / 2 + (n - m - 1) * m);
        for u in 0..n {
            assert!(c.degree(u) >= m, "node {u} degree {}", c.degree(u));
        }
    }

    #[test]
    fn ba_stream_rejects_bad_params() {
        assert!(BaStream::new(5, 0, 0).is_err());
        assert!(BaStream::new(5, 5, 0).is_err());
    }

    #[test]
    fn geometric_stream_matches_pair_loop_edge_set() {
        let s = GeometricStream::new(250, 0.08, 9).unwrap();
        let gg = generators::random_geometric(250, 0.08, 9);
        assert_eq!(s.positions(), &gg.positions[..]);
        assert_eq!(s.to_graph(), gg.graph);
        assert_eq!(s.to_compact_csr().unwrap().thaw(), gg.graph);
    }

    #[test]
    fn geometric_stream_handles_large_radius() {
        // radius >= 1 degenerates to one cell — still the full pair scan.
        let s = GeometricStream::new(30, 1.5, 3).unwrap();
        assert_eq!(s.to_graph(), generators::random_geometric(30, 1.5, 3).graph);
        assert!(GeometricStream::new(10, 0.0, 0).is_err());
    }

    #[test]
    fn kleinberg_stream_shape() {
        let side = 14;
        let s = KleinbergStream::new(side, 2, 2.0, 11).unwrap();
        let c = s.to_compact_csr().unwrap();
        let grid_edges = 2 * side * (side - 1);
        assert!(GraphView::edge_count(&c) > grid_edges, "contacts were added");
        // Dedup keeps the graph simple even with cross-node duplicates.
        let g = c.thaw();
        assert_eq!(g.edge_count(), GraphView::edge_count(&c));
        assert!(is_connected(&g));
        // Rows are sorted (SortedDedup build).
        for u in 0..c.node_count() {
            let row = c.neighbor_slice(u);
            assert!(row.windows(2).all(|w| w[0] < w[1]), "row {u}: {row:?}");
        }
    }

    #[test]
    fn kleinberg_stream_replay_deterministic() {
        let s = KleinbergStream::new(10, 1, 2.0, 5).unwrap();
        assert_eq!(s.to_compact_csr().unwrap(), s.to_compact_csr().unwrap());
        assert!(KleinbergStream::new(1, 1, 2.0, 5).is_err());
    }

    #[test]
    fn gnutella_stream_heavy_tailed_and_capped() {
        let (n, m, cap) = (2000, 3, 64);
        let s = GnutellaStream::new(n, m, cap, 0.05, 13).unwrap();
        let c = s.to_compact_csr().unwrap();
        let degs = GraphView::degrees(&c);
        let max_deg = degs.iter().copied().max().unwrap();
        assert!(max_deg > 20, "expected hubs, max degree {max_deg}");
        // The cap bounds the attachment phase; extras can push a node a
        // handful over it, never unboundedly.
        let extras = ((m * (m + 1) / 2 + (n - m - 1) * m) as f64 * 0.05) as usize;
        assert!(max_deg <= cap + extras, "cap wildly exceeded: {max_deg} vs {cap}");
        assert_eq!(c, s.to_compact_csr().unwrap(), "seeded replay");
    }

    #[test]
    fn gnutella_stream_rejects_bad_params() {
        assert!(GnutellaStream::new(10, 0, 8, 0.1, 0).is_err());
        assert!(GnutellaStream::new(10, 3, 3, 0.1, 0).is_err());
        assert!(GnutellaStream::new(10, 3, 8, 1.5, 0).is_err());
    }

    #[test]
    fn into_graph_and_into_compact_agree_for_dedup_streams() {
        // add_edge idempotence on the Graph side must mirror SortedDedup on
        // the CSR side: same edge set either way.
        let s = KleinbergStream::new(12, 2, 2.0, 21).unwrap();
        assert_eq!(s.to_compact_csr().unwrap().thaw(), s.to_graph());
        let s = GnutellaStream::new(500, 2, 32, 0.1, 3).unwrap();
        assert_eq!(s.to_compact_csr().unwrap().thaw(), s.to_graph());
    }
}

//! Landmark distance tables: [`LandmarkIndex`] and triangle-inequality
//! distance bounds for the query-serving layer.
//!
//! A single BFS answers one distance query in `O(n + m)` — far too slow when
//! millions of users ask for point-to-point distances interactively. The
//! classical landmark (a.k.a. pivot / hub) technique precomputes the exact
//! BFS distance vector from `k` chosen *landmark* nodes and then bounds any
//! query distance `d(u, v)` by the triangle inequality: for every landmark
//! `l`,
//!
//! ```text
//! |d(l, u) − d(l, v)|  ≤  d(u, v)  ≤  d(l, u) + d(l, v)
//! ```
//!
//! so the index answers in `O(k)` with a certified `[lower, upper]`
//! interval, and a caller that needs the exact value only falls back to a
//! real BFS when the interval is not already tight. Landmarks are chosen
//! deterministically — the highest-degree nodes first (hub coverage), then
//! seeded-random fill (periphery coverage) — so one `(k, seed)` pair always
//! produces the same index.
//!
//! Disconnected pairs are *certified*, not guessed: if any landmark reaches
//! `u` but not `v` (or vice versa) the two lie in different components, the
//! bounds collapse to `[UNREACHABLE, UNREACHABLE]`, and no fallback BFS is
//! needed.
//!
//! # Performance
//!
//! Building the index costs `⌈k / 64⌉` level-synchronous traversals, each a
//! bit-parallel BFS from up to 64 landmarks at once (Then et al., "The More
//! the Merrier", PVLDB 2014; the bit-parallel roots of Akiba, Iwata &
//! Yoshida's pruned landmark labeling, SIGMOD 2013). Every node carries
//! three `u64` masks — seen, frontier, next — in which bit `i` stands for
//! the batch's landmark `i`, so each level sweeps the `n` masks twice and
//! scans a node's arcs once for all the landmarks that reach it at that
//! level, instead of once per landmark. The masks are 24 bytes per node of
//! temporary memory, freed when `build` returns;
//! [`LandmarkIndex::arcs_scanned`] reports the exact arc work. The index
//! stores `n · k` `u32` entries — 4 bytes per node per landmark, the
//! dominant memory term of a serve index (see SERVING.md) — node-major:
//! node `v`'s distances from all `k` landmarks are one contiguous row.
//! [`LandmarkIndex::bounds`] zips two such `k`-entry rows, an `O(k)` scan
//! over a few cache lines with no allocation and no graph access; the graph
//! itself is only touched on bound misses.
//!
//! # Examples
//!
//! ```
//! use csn_graph::landmark::{LandmarkIndex, UNREACHABLE};
//! use csn_graph::{generators, traversal};
//!
//! let g = generators::barabasi_albert(300, 3, 7).unwrap();
//! let idx = LandmarkIndex::build(&g, 8, 42);
//! let exact = traversal::bfs_distances(&g, 5);
//! for v in 0..300 {
//!     let b = idx.bounds(5, v);
//!     assert!(b.lower as usize <= exact[v] && exact[v] <= b.upper as usize);
//! }
//! ```

use crate::centrality::top_by_degree;
use crate::graph::NodeId;
use crate::view::GraphView;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Sentinel distance for "no path": the `u32` analogue of the `usize::MAX`
/// the BFS kernels use.
pub const UNREACHABLE: u32 = u32::MAX;

/// A certified distance interval: `lower <= d(u, v) <= upper`, where both
/// ends may be [`UNREACHABLE`] (then the pair is *provably* disconnected).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct DistanceBounds {
    /// Greatest lower bound over all landmarks.
    pub lower: u32,
    /// Least upper bound over all landmarks.
    pub upper: u32,
}

impl DistanceBounds {
    /// Whether the interval pins the distance exactly (including the
    /// certified-disconnected case `[UNREACHABLE, UNREACHABLE]`).
    pub fn is_exact(&self) -> bool {
        self.lower == self.upper
    }
}

/// Precomputed BFS distance tables from `k` deterministic landmarks,
/// stored node-major so one bound reads two `k`-entry rows.
/// See the [module docs](self) for selection, bounds, and cost.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LandmarkIndex {
    nodes: usize,
    landmarks: Vec<NodeId>,
    /// Node-major `n × k` table: `dist[v * k + l]` is the exact BFS
    /// distance from `landmarks[l]` to `v` ([`UNREACHABLE`] if none).
    dist: Vec<u32>,
    /// Arcs the build's traversals scanned (see [`Self::arcs_scanned`]).
    arcs_scanned: u64,
}

impl LandmarkIndex {
    /// Builds the index with `k` landmarks (capped at `n`): the
    /// `ceil(k / 2)` highest-degree nodes (ties broken by lower id), then
    /// seeded-random distinct fill from the rest. Deterministic per
    /// `(graph, k, seed)`.
    ///
    /// The tables come from one bit-parallel multi-source BFS per batch of
    /// 64 landmarks, `⌈k / 64⌉` passes in all, with 24 bytes per node of
    /// temporary masks (see the [module docs](self#performance)). They are
    /// stored node-major: entry `l` of node `v`'s row (see
    /// [`Self::distances`]) is the BFS distance from landmark `l` to `v`.
    ///
    /// # Panics
    ///
    /// If `g` has `u32::MAX` or more nodes (distances are stored as `u32`).
    pub fn build<G: GraphView>(g: &G, k: usize, seed: u64) -> Self {
        let n = g.node_count();
        assert!(
            n < UNREACHABLE as usize,
            "landmark tables store u32 distances: {n} nodes do not fit"
        );
        let k = k.min(n);
        let mut chosen = vec![false; n];
        let mut landmarks = Vec::with_capacity(k);

        // Hub half: highest degree first, lower id on ties.
        for u in top_by_degree(g, k.div_ceil(2)) {
            chosen[u] = true;
            landmarks.push(u);
        }

        // Periphery half: seeded-random distinct nodes from the remainder.
        let mut rng = StdRng::seed_from_u64(seed);
        while landmarks.len() < k {
            let u = rng.gen_range(0..n);
            if !chosen[u] {
                chosen[u] = true;
                landmarks.push(u);
            }
        }

        let mut dist = vec![UNREACHABLE; n * k];
        let arcs_scanned = fill_rows(g, &landmarks, &mut dist);
        LandmarkIndex { nodes: n, landmarks, dist, arcs_scanned }
    }

    /// The landmark nodes, in selection order.
    pub fn landmarks(&self) -> &[NodeId] {
        &self.landmarks
    }

    /// Number of landmarks.
    pub fn landmark_count(&self) -> usize {
        self.landmarks.len()
    }

    /// Number of nodes of the indexed graph.
    pub fn node_count(&self) -> usize {
        self.nodes
    }

    /// Node `v`'s exact distances from every landmark, in selection order
    /// ([`UNREACHABLE`] where a landmark does not reach `v`).
    ///
    /// # Panics
    ///
    /// Panics if `v` is not below [`Self::node_count`].
    pub fn distances(&self, v: NodeId) -> &[u32] {
        assert!(v < self.nodes, "node id {v} out of range for {} nodes", self.nodes);
        let k = self.landmarks.len();
        &self.dist[v * k..][..k]
    }

    /// Triangle-inequality bounds on `d(u, v)`: an `O(k)` scan over the
    /// two nodes' rows, no graph access. `[0, 0]` for `u == v`; collapses to
    /// `[UNREACHABLE, UNREACHABLE]` when some landmark certifies the pair
    /// disconnected; `[0, UNREACHABLE]` when no landmark reaches either
    /// endpoint (no information).
    ///
    /// # Panics
    ///
    /// Panics if `u` or `v` is not below [`Self::node_count`], as slice
    /// indexing does. The check runs first, so an id outside the index
    /// never takes the `u == v` shortcut to `[0, 0]`.
    pub fn bounds(&self, u: NodeId, v: NodeId) -> DistanceBounds {
        assert!(
            u < self.nodes && v < self.nodes,
            "node ids ({u}, {v}) out of range for {} nodes",
            self.nodes
        );
        if u == v {
            return DistanceBounds { lower: 0, upper: 0 };
        }
        let k = self.landmarks.len();
        let (mut lower, mut upper) = (0u32, UNREACHABLE);
        for (&du, &dv) in self.dist[u * k..][..k].iter().zip(&self.dist[v * k..][..k]) {
            match (du == UNREACHABLE, dv == UNREACHABLE) {
                (false, false) => {
                    upper = upper.min(du + dv);
                    lower = lower.max(du.abs_diff(dv));
                }
                // One endpoint in the landmark's component, one outside:
                // the pair is certifiably disconnected.
                (false, true) | (true, false) => {
                    return DistanceBounds { lower: UNREACHABLE, upper: UNREACHABLE };
                }
                (true, true) => {}
            }
        }
        DistanceBounds { lower, upper }
    }

    /// Heap bytes held by the index (the `n × k` table plus the landmark
    /// list).
    pub fn heap_bytes(&self) -> usize {
        self.dist.capacity() * std::mem::size_of::<u32>()
            + self.landmarks.capacity() * std::mem::size_of::<NodeId>()
    }

    /// Arcs the build's traversals scanned: `deg(v)` for every node `v`
    /// each time a level pushed `v`'s frontier mask. One BFS per landmark
    /// would scan `deg(v)` once per landmark that reaches `v`; a batch
    /// scans it once per distinct distance from the batch's landmarks.
    pub fn arcs_scanned(&self) -> u64 {
        self.arcs_scanned
    }
}

/// Fills the `n × landmarks.len()` node-major table `dist` (pre-filled
/// with [`UNREACHABLE`]) with exact BFS distances: one level-synchronous
/// traversal per batch of 64 landmarks, bit `i` of batch `b`'s masks
/// standing for landmark `64 · b + i`, so a batch writes segment
/// `64 · b ..` of each node's row. Returns the arcs scanned.
fn fill_rows<G: GraphView>(g: &G, landmarks: &[NodeId], dist: &mut [u32]) -> u64 {
    let n = g.node_count();
    let k = landmarks.len();
    let (mut seen, mut frontier, mut next) = (vec![0u64; n], vec![0u64; n], vec![0u64; n]);
    let mut arcs = 0u64;
    for (b, batch) in landmarks.chunks(64).enumerate() {
        let segment = 64 * b;
        seen.fill(0);
        frontier.fill(0);
        next.fill(0);
        for (i, &l) in batch.iter().enumerate() {
            seen[l] |= 1 << i;
            frontier[l] |= 1 << i;
            dist[l * k + segment + i] = 0;
        }
        // `n < u32::MAX`, so a level never reaches UNREACHABLE.
        let mut level = 0u32;
        let mut grew = true;
        while grew {
            level += 1;
            for v in 0..n {
                let f = frontier[v];
                if f != 0 {
                    arcs += g.degree(v) as u64;
                    for w in g.neighbors(v) {
                        next[w] |= f;
                    }
                }
            }
            grew = false;
            for w in 0..n {
                let new = next[w] & !seen[w];
                next[w] = 0;
                frontier[w] = new;
                seen[w] |= new;
                grew |= new != 0;
                let mut bits = new;
                while bits != 0 {
                    dist[w * k + segment + bits.trailing_zeros() as usize] = level;
                    bits &= bits - 1;
                }
            }
        }
    }
    arcs
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;
    use crate::traversal::bfs_distances;

    #[test]
    fn bounds_sandwich_exact_distances_on_ba() {
        let g = generators::barabasi_albert(200, 2, 11).unwrap();
        let idx = LandmarkIndex::build(&g, 6, 3);
        for u in (0..200).step_by(17) {
            let exact = bfs_distances(&g, u);
            for v in 0..200 {
                let b = idx.bounds(u, v);
                assert!(b.lower as usize <= exact[v], "lower({u},{v})");
                assert!(exact[v] <= b.upper as usize, "upper({u},{v})");
            }
        }
    }

    #[test]
    fn disconnected_pairs_are_certified() {
        // Two components: a path 0-1-2 and an isolated pair 3-4.
        let g = crate::Graph::from_edges(5, &[(0, 1), (1, 2), (3, 4)]).unwrap();
        let idx = LandmarkIndex::build(&g, 2, 0);
        let b = idx.bounds(0, 3);
        assert_eq!(b, DistanceBounds { lower: UNREACHABLE, upper: UNREACHABLE });
        assert!(b.is_exact());
    }

    #[test]
    fn bounds_reject_ids_past_the_node_count() {
        // Two 3-node paths, 4 landmarks: every id past the node count
        // panics, (7, 7) included, which would otherwise take the u == v
        // shortcut to [0, 0].
        let g = crate::Graph::from_edges(6, &[(0, 1), (1, 2), (3, 4), (4, 5)]).unwrap();
        let idx = LandmarkIndex::build(&g, 4, 0);
        for v in 0..6 {
            assert!(std::panic::catch_unwind(|| idx.bounds(6, v)).is_err(), "bounds(6, {v})");
            assert!(std::panic::catch_unwind(|| idx.bounds(v, 6)).is_err(), "bounds({v}, 6)");
        }
        assert!(std::panic::catch_unwind(|| idx.bounds(7, 7)).is_err(), "bounds(7, 7)");
    }

    #[test]
    fn self_distance_is_zero_and_exact() {
        let g = generators::path(6);
        let idx = LandmarkIndex::build(&g, 3, 1);
        assert_eq!(idx.bounds(4, 4), DistanceBounds { lower: 0, upper: 0 });
        assert!(idx.bounds(4, 4).is_exact());
    }

    #[test]
    fn landmark_distance_queries_are_exact() {
        // Any query touching a landmark itself has a tight interval.
        let g = generators::barabasi_albert(80, 2, 5).unwrap();
        let idx = LandmarkIndex::build(&g, 4, 9);
        let l = idx.landmarks()[0];
        let exact = bfs_distances(&g, l);
        for v in 0..80 {
            let b = idx.bounds(l, v);
            assert!(b.is_exact(), "bounds at a landmark must be tight");
            assert_eq!(b.upper as usize, exact[v]);
        }

        // Every landmark's distances, read through the node rows, equal one
        // BFS from it across three batches of 64 (the last one partial):
        // k = 130 on three components plus ten isolated nodes, on both
        // graph forms.
        let mut g = crate::Graph::new(210);
        for (offset, size, seed) in [(0, 90, 1), (90, 70, 2), (160, 40, 3)] {
            for (u, v) in generators::barabasi_albert(size, 2, seed).unwrap().edges() {
                g.add_edge(offset + u, offset + v);
            }
        }
        let idx = LandmarkIndex::build(&g, 130, 7);
        assert_eq!(idx, LandmarkIndex::build(&g.freeze().unwrap(), 130, 7));
        assert_eq!(idx.landmark_count(), 130);
        assert!(idx.landmarks().iter().any(|&l| l >= 200), "an isolated landmark");
        let mut per_landmark_arcs = 0;
        for (r, &l) in idx.landmarks().iter().enumerate() {
            let truth: Vec<u32> = bfs_distances(&g, l)
                .iter()
                .map(|&d| if d == usize::MAX { UNREACHABLE } else { d as u32 })
                .collect();
            let read: Vec<u32> = (0..210).map(|v| idx.distances(v)[r]).collect();
            assert_eq!(read, truth, "landmark {r} (node {l})");
            per_landmark_arcs += (0..210)
                .filter(|&v| truth[v] != UNREACHABLE)
                .map(|v| g.degree(v) as u64)
                .sum::<u64>();
        }
        assert!(idx.arcs_scanned() < per_landmark_arcs);
        // One landmark: the traversal scans exactly what one BFS scans.
        let one = LandmarkIndex::build(&g, 1, 0);
        let reached = (0..210).filter(|&v| one.distances(v)[0] != UNREACHABLE);
        assert_eq!(one.arcs_scanned(), reached.map(|v| g.degree(v) as u64).sum::<u64>());
    }

    #[test]
    fn build_is_deterministic_per_seed_and_k_caps_at_n() {
        let g = generators::barabasi_albert(50, 2, 8).unwrap();
        assert_eq!(LandmarkIndex::build(&g, 7, 4), LandmarkIndex::build(&g, 7, 4));
        let all = LandmarkIndex::build(&g, 500, 4);
        assert_eq!(all.landmark_count(), 50);
        // With every node a landmark, every bound is tight.
        for u in 0..50 {
            for v in 0..50 {
                assert!(all.bounds(u, v).is_exact());
            }
        }
    }

    #[test]
    fn hub_half_prefers_high_degree() {
        let g = generators::star(9); // center 0 has degree 8
        let idx = LandmarkIndex::build(&g, 2, 0);
        assert_eq!(idx.landmarks()[0], 0, "highest-degree node is the first landmark");
        assert!(idx.heap_bytes() >= 2 * 9 * 4);
    }
}

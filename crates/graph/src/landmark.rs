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
//! stores `k · n` `u32` entries — 4 bytes per node per landmark, the
//! dominant memory term of a serve index (see SERVING.md).
//! [`LandmarkIndex::bounds`] is an `O(k)` scan with no allocation and no
//! graph access, which is what makes batched query serving cache-friendly:
//! the graph itself is only touched on bound misses.
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

/// Precomputed BFS distance tables from `k` deterministic landmarks.
/// See the [module docs](self) for selection, bounds, and cost.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LandmarkIndex {
    nodes: usize,
    landmarks: Vec<NodeId>,
    /// Row-major `k × n` table: `dist[l * nodes + v]` is the exact BFS
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
    /// temporary masks (see the [module docs](self#performance)). Each row
    /// equals the BFS distance vector from its landmark.
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

        let mut dist = vec![UNREACHABLE; k * n];
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

    /// The exact distance row of landmark `l` (by selection position).
    pub fn distance_row(&self, l: usize) -> &[u32] {
        &self.dist[l * self.nodes..(l + 1) * self.nodes]
    }

    /// Triangle-inequality bounds on `d(u, v)`: an `O(k)` scan over the
    /// tables, no graph access. `[0, 0]` for `u == v`; collapses to
    /// `[UNREACHABLE, UNREACHABLE]` when some landmark certifies the pair
    /// disconnected; `[0, UNREACHABLE]` when no landmark reaches either
    /// endpoint (no information).
    ///
    /// # Panics
    ///
    /// Panics if `u` or `v` is not below [`Self::node_count`], as slice
    /// indexing does. Without the check an id past the end would silently
    /// read the next landmark's row of the flat table.
    pub fn bounds(&self, u: NodeId, v: NodeId) -> DistanceBounds {
        assert!(
            u < self.nodes && v < self.nodes,
            "node ids ({u}, {v}) out of range for {} nodes",
            self.nodes
        );
        if u == v {
            return DistanceBounds { lower: 0, upper: 0 };
        }
        let (mut lower, mut upper) = (0u32, UNREACHABLE);
        for l in 0..self.landmarks.len() {
            let du = self.dist[l * self.nodes + u];
            let dv = self.dist[l * self.nodes + v];
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

    /// Heap bytes held by the index (the `k × n` table plus the landmark
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

/// Fills the `landmarks.len() × n` row-major table `dist` (pre-filled with
/// [`UNREACHABLE`]) with exact BFS distances: one level-synchronous
/// traversal per batch of 64 landmarks, bit `i` of batch `b`'s masks
/// standing for landmark `64 · b + i`. Returns the arcs scanned.
fn fill_rows<G: GraphView>(g: &G, landmarks: &[NodeId], dist: &mut [u32]) -> u64 {
    let n = g.node_count();
    let (mut seen, mut frontier, mut next) = (vec![0u64; n], vec![0u64; n], vec![0u64; n]);
    let mut arcs = 0u64;
    for (b, batch) in landmarks.chunks(64).enumerate() {
        let rows = &mut dist[64 * b * n..][..batch.len() * n];
        seen.fill(0);
        frontier.fill(0);
        next.fill(0);
        for (i, &l) in batch.iter().enumerate() {
            seen[l] |= 1 << i;
            frontier[l] |= 1 << i;
            rows[i * n + l] = 0;
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
                    rows[bits.trailing_zeros() as usize * n + w] = level;
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
        // Two 3-node paths, 4 landmarks: an unchecked id 6 lands in the next
        // landmark's row (every pair then looks disconnected), and (7, 7)
        // would take the u == v shortcut to [0, 0].
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

        // Every row equals one BFS from its landmark across three batches
        // of 64 (the last one partial): k = 130 on three components plus
        // ten isolated nodes, on both graph forms.
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
            assert_eq!(idx.distance_row(r), truth, "row {r} (landmark {l})");
            per_landmark_arcs += (0..210)
                .filter(|&v| truth[v] != UNREACHABLE)
                .map(|v| g.degree(v) as u64)
                .sum::<u64>();
        }
        assert!(idx.arcs_scanned() < per_landmark_arcs);
        // One landmark: the traversal scans exactly what one BFS scans.
        let one = LandmarkIndex::build(&g, 1, 0);
        let reached = one.distance_row(0).iter().enumerate().filter(|&(_, &d)| d != UNREACHABLE);
        assert_eq!(one.arcs_scanned(), reached.map(|(v, _)| g.degree(v) as u64).sum::<u64>());
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

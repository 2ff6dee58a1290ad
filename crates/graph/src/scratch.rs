//! Reusable kernel workspaces: zero-allocation scratch arenas for the
//! single-source kernels.
//!
//! The hot loops of this crate — Brandes betweenness, closeness, BFS,
//! Dijkstra — are *per-source* computations that the serial kernels run `n`
//! times and the parallel kernels fan out over a pool. Allocating the
//! per-source state fresh each time (`vec![…; n]` several times per source,
//! plus a `Vec<Vec<NodeId>>` predecessor table for Brandes) is a large
//! constant-factor tax. The scratch structs here hoist that state out of the
//! loop:
//!
//! * [`BfsScratch`] — BFS frontier queue plus an epoch-stamped distance
//!   array shared by [`crate::traversal::bfs_distances_into`],
//!   [`crate::traversal::bfs_distance`] and
//!   [`crate::centrality::closeness_one_into`].
//! * [`BrandesScratch`] — everything one Brandes source needs
//!   ([`crate::centrality::brandes_delta_into`]): epoch-stamped
//!   distance/path-count arrays, the dependency stack, and a **flat**
//!   predecessor store (one `Vec<NodeId>` of entries chained through
//!   per-node list heads) instead of the `Vec<Vec<NodeId>>` table, so a
//!   whole betweenness pass performs no per-source allocation at all.
//! * [`DijkstraScratch`] — the binary heap behind
//!   [`crate::shortest_path::dijkstra_into`].
//!
//! # The reuse contract
//!
//! A scratch may be reused freely across calls **and across different
//! graphs**: every `_into` kernel begins by calling `BfsScratch::begin` /
//! `BrandesScratch::begin`, which bumps a `u64` epoch counter and grows
//! the arrays to the current graph's node count (they never shrink). An
//! array slot is *valid* only when its stamp equals the current epoch, so a
//! source that touches `k` nodes pays `O(k)` cleanup — sparse frontiers skip
//! the `O(n)` clear entirely, and stale state from a previous (possibly
//! larger) graph can never leak into a result. The epoch is 64-bit and
//! monotonically increasing, so it never wraps in practice.
//!
//! Reuse is **observationally invisible**: the `_into` kernels produce
//! results bit-identical to the fresh-allocation wrappers
//! ([`crate::centrality::brandes_delta`], [`crate::traversal::bfs_distances`],
//! …), a property pinned down by the `scratch_props` property-test suite
//! (per-source reuse, and the fresh-alloc Brandes sum against the serial and
//! parallel drivers).
//!
//! # Examples
//!
//! ```
//! use csn_graph::{generators, scratch::BfsScratch, traversal};
//!
//! let g1 = generators::path(5);
//! let g2 = generators::star(9); // different node count: scratch regrows
//! let mut scratch = BfsScratch::new();
//! let mut dist = Vec::new();
//! traversal::bfs_distances_into(&g1, 0, &mut scratch, &mut dist);
//! assert_eq!(dist, traversal::bfs_distances(&g1, 0));
//! traversal::bfs_distances_into(&g2, 3, &mut scratch, &mut dist);
//! assert_eq!(dist, traversal::bfs_distances(&g2, 3));
//! ```

use crate::graph::NodeId;
use std::collections::VecDeque;

/// Sentinel for "no predecessor-list entry" in [`BrandesScratch`].
pub(crate) const NO_PRED: usize = usize::MAX;

/// Reusable BFS workspace: an epoch-stamped distance array and the frontier
/// queue. See the [module docs](self) for the reuse contract.
#[derive(Debug, Default)]
pub struct BfsScratch {
    /// Current epoch; `stamp[v] == epoch` marks `dist[v]` as valid.
    pub(crate) epoch: u64,
    pub(crate) stamp: Vec<u64>,
    pub(crate) dist: Vec<usize>,
    pub(crate) queue: VecDeque<NodeId>,
    /// Nodes the latest BFS reached, the source included.
    pub(crate) reached: usize,
}

impl BfsScratch {
    /// Creates an empty scratch; arrays grow on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// The number of nodes the latest BFS through this scratch reached,
    /// its source included (0 before the first): an exact work count.
    pub fn reached(&self) -> usize {
        self.reached
    }

    /// Starts a new round over a graph with `n` nodes: bumps the epoch
    /// (invalidating all previous stamps in `O(1)`) and grows the arrays if
    /// this graph is larger than any seen before.
    pub(crate) fn begin(&mut self, n: usize) {
        self.epoch += 1;
        if self.stamp.len() < n {
            self.stamp.resize(n, 0);
            self.dist.resize(n, 0);
        }
        self.queue.clear();
    }

    /// Marks `v` visited this round with distance `d`.
    #[inline]
    pub(crate) fn visit(&mut self, v: NodeId, d: usize) {
        self.stamp[v] = self.epoch;
        self.dist[v] = d;
    }

    /// Whether `v` was visited during the current round.
    #[inline]
    pub(crate) fn visited(&self, v: NodeId) -> bool {
        self.stamp[v] == self.epoch
    }
}

/// Reusable workspace for one Brandes source
/// ([`crate::centrality::brandes_delta_into`]).
///
/// Predecessor lists are stored flat: `pred_node[i]` is one predecessor
/// entry and `pred_next[i]` chains to the node's next entry, with the list
/// head per node in `pred_head` (epoch-stamped like `dist`/`sigma`). The
/// per-entry vectors are truncated (an `O(1)` length reset for `Copy`
/// elements) at the start of each round, so no per-source `Vec<Vec<_>>`
/// table is ever built.
///
/// Between calls, `delta` is all zeros and `stack` is empty — the `_into`
/// kernel restores both before returning, touching only the nodes the
/// source reached.
#[derive(Debug, Default)]
pub struct BrandesScratch {
    pub(crate) epoch: u64,
    pub(crate) stamp: Vec<u64>,
    pub(crate) dist: Vec<usize>,
    /// Shortest-path counts; valid when stamped.
    pub(crate) sigma: Vec<f64>,
    /// Dependency accumulator. Invariant: all zeros between calls.
    pub(crate) delta: Vec<f64>,
    /// Nodes reached this round, in BFS dequeue order. Empty between calls.
    pub(crate) stack: Vec<NodeId>,
    pub(crate) queue: VecDeque<NodeId>,
    /// Head of each node's predecessor list ([`NO_PRED`] = empty); stamped.
    pub(crate) pred_head: Vec<usize>,
    /// Flat predecessor entries (node of each entry).
    pub(crate) pred_node: Vec<NodeId>,
    /// Next-entry link per predecessor entry ([`NO_PRED`] terminates).
    pub(crate) pred_next: Vec<usize>,
}

impl BrandesScratch {
    /// Creates an empty scratch; arrays grow on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// Starts a new round over a graph with `n` nodes (see
    /// [`BfsScratch::begin`]). `delta` grows zero-filled to preserve the
    /// all-zeros invariant.
    pub(crate) fn begin(&mut self, n: usize) {
        self.epoch += 1;
        if self.stamp.len() < n {
            self.stamp.resize(n, 0);
            self.dist.resize(n, 0);
            self.sigma.resize(n, 0.0);
            self.delta.resize(n, 0.0);
            self.pred_head.resize(n, NO_PRED);
        }
        self.queue.clear();
        self.pred_node.clear();
        self.pred_next.clear();
    }

    /// Marks `v` discovered this round: stamps it, sets its distance, and
    /// resets its path count and predecessor list.
    #[inline]
    pub(crate) fn discover(&mut self, v: NodeId, d: usize) {
        self.stamp[v] = self.epoch;
        self.dist[v] = d;
        self.sigma[v] = 0.0;
        self.pred_head[v] = NO_PRED;
    }

    /// Whether `v` was discovered during the current round.
    #[inline]
    pub(crate) fn discovered(&self, v: NodeId) -> bool {
        self.stamp[v] == self.epoch
    }

    /// Appends `u` to `v`'s predecessor list (flat store).
    #[inline]
    pub(crate) fn push_pred(&mut self, v: NodeId, u: NodeId) {
        let slot = self.pred_node.len();
        self.pred_node.push(u);
        self.pred_next.push(self.pred_head[v]);
        self.pred_head[v] = slot;
    }

    /// Restores the between-calls invariant: zeroes `delta` at the touched
    /// nodes only (`O(reached)`, not `O(n)`) and clears the stack.
    pub(crate) fn reset_round(&mut self) {
        for &w in &self.stack {
            self.delta[w] = 0.0;
        }
        self.stack.clear();
    }
}

/// Reusable workspace for [`crate::shortest_path::dijkstra_into`]: the
/// priority queue, kept allocated across sources.
#[derive(Debug, Default)]
pub struct DijkstraScratch {
    pub(crate) heap: std::collections::BinaryHeap<crate::shortest_path::HeapEntry>,
}

impl DijkstraScratch {
    /// Creates an empty scratch; the heap grows on first use.
    pub fn new() -> Self {
        Self::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn epochs_invalidate_without_clearing() {
        let mut sc = BfsScratch::new();
        sc.begin(4);
        sc.visit(2, 7);
        assert!(sc.visited(2));
        assert!(!sc.visited(0));
        sc.begin(4);
        assert!(!sc.visited(2), "new epoch invalidates old stamps");
        assert_eq!(sc.dist[2], 7, "stale value remains but is unstamped");
    }

    #[test]
    fn scratch_grows_to_larger_graphs() {
        let mut sc = BrandesScratch::new();
        sc.begin(3);
        sc.discover(2, 0);
        sc.begin(10);
        assert!(!sc.discovered(2));
        sc.discover(9, 1);
        assert!(sc.discovered(9));
        assert!(sc.delta.iter().all(|&d| d == 0.0), "delta invariant holds after growth");
    }

    #[test]
    fn flat_pred_lists_chain_per_node() {
        let mut sc = BrandesScratch::new();
        sc.begin(4);
        for v in 0..4 {
            sc.discover(v, 0);
        }
        sc.push_pred(3, 0);
        sc.push_pred(3, 1);
        sc.push_pred(2, 1);
        let collect = |sc: &BrandesScratch, v: NodeId| {
            let mut out = Vec::new();
            let mut p = sc.pred_head[v];
            while p != NO_PRED {
                out.push(sc.pred_node[p]);
                p = sc.pred_next[p];
            }
            out
        };
        assert_eq!(collect(&sc, 3), vec![1, 0], "LIFO chaining");
        assert_eq!(collect(&sc, 2), vec![1]);
        assert_eq!(collect(&sc, 1), Vec::<NodeId>::new());
    }
}

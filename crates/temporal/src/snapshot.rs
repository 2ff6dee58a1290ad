//! Incremental snapshot sweeping: [`SnapshotCursor`].
//!
//! [`TimeEvolvingGraph::snapshot`] rebuilds a full [`Graph`] from *all*
//! temporal edges for one time unit — `O(E · log L)` per call — which is
//! wasteful for the horizon sweeps the paper's trimming analyses perform
//! (§II-B, Figs. 1–2): consecutive snapshots of a dynamic network differ by
//! only the contacts that start or stop at that instant. The cursor
//! precomputes, once, the per-time-unit *deltas* — which edges appear and
//! which disappear at each `t` — and then walks `t = 0..horizon` applying
//! `O(Δ_t)` edge mutations to one maintained graph. A whole-horizon sweep
//! is `O(E · L̄ + Σ_t Δ_t)` total instead of `O(horizon · E · log L̄)`.
//!
//! The maintained graph equals `eg.snapshot(t)` at every position (their
//! edge *sets* are identical; [`Graph`] equality ignores adjacency order) —
//! the `snapshot_props` property suite pins this down, and `csn-bench`'s
//! `gates::scenario::slice_dtn_and_cursors_match` checks it on a city trace.
//!
//! The cursor is a frozen view: it captures the `EG` at construction time
//! and does not observe later mutations. After `remove_label` /
//! `remove_edge` / `isolate_node` churn, build a new cursor.
//!
//! # Examples
//!
//! ```
//! use csn_temporal::TimeEvolvingGraph;
//!
//! let mut eg = TimeEvolvingGraph::new(3, 5);
//! eg.add_contact(0, 1, 0);
//! eg.add_contact(0, 1, 1);
//! eg.add_contact(1, 2, 3);
//! let mut cur = eg.snapshot_cursor();
//! loop {
//!     assert_eq!(*cur.graph(), eg.snapshot(cur.time()));
//!     if !cur.advance() {
//!         break;
//!     }
//! }
//! assert_eq!(cur.time(), 4);
//! ```

use crate::graph::{TimeEvolvingGraph, TimeUnit};
use csn_graph::{Graph, NodeId};

/// An incremental sweep over the snapshots `G_0, G_1, …` of a
/// [`TimeEvolvingGraph`], applying per-step edge deltas to one maintained
/// [`Graph`] instead of rebuilding it. See the [module docs](self).
#[derive(Debug, Clone)]
pub struct SnapshotCursor {
    t: TimeUnit,
    horizon: TimeUnit,
    graph: Graph,
    /// `appear[t]`: edges whose label run starts at `t`.
    appear: Vec<Vec<(NodeId, NodeId)>>,
    /// `disappear[t]`: edges whose label run ended at `t - 1`.
    disappear: Vec<Vec<(NodeId, NodeId)>>,
}

impl SnapshotCursor {
    /// Builds a cursor positioned at `t = 0`. One pass over every edge's
    /// [`runs`](crate::TemporalEdge::runs) converts each run of consecutive
    /// labels `[s, e]` into an appear event at `s` and a disappear event at
    /// `e + 1`.
    pub fn new(eg: &TimeEvolvingGraph) -> Self {
        let horizon = eg.horizon();
        let slots = horizon.max(1) as usize;
        let mut appear: Vec<Vec<(NodeId, NodeId)>> = vec![Vec::new(); slots];
        let mut disappear: Vec<Vec<(NodeId, NodeId)>> = vec![Vec::new(); slots];
        for e in eg.edges() {
            for (start, end) in e.runs() {
                appear[start as usize].push((e.u, e.v));
                if end + 1 < horizon {
                    disappear[(end + 1) as usize].push((e.u, e.v));
                }
            }
        }
        let mut graph = Graph::new(eg.node_count());
        for &(u, v) in &appear[0] {
            graph.add_edge(u, v);
        }
        SnapshotCursor { t: 0, horizon, graph, appear, disappear }
    }

    /// The current time unit.
    pub fn time(&self) -> TimeUnit {
        self.t
    }

    /// The horizon of the underlying `EG` at construction time.
    pub fn horizon(&self) -> TimeUnit {
        self.horizon
    }

    /// The snapshot at the current time unit: equal (as an edge set) to
    /// `eg.snapshot(self.time())`.
    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    /// The edges whose label run starts at `t` (empty outside the horizon).
    /// Together with [`SnapshotCursor::disappearing_at`] this exposes the
    /// precomputed per-time-unit deltas, e.g. for replaying the trace as
    /// topology events in a downstream simulator.
    ///
    /// # Delta contract
    ///
    /// For every `t` in `1..horizon`, the snapshot at `t` is the snapshot
    /// at `t - 1` **minus** `disappearing_at(t)` **plus** `appearing_at(t)`
    /// — removals apply first, and the two sets are disjoint (an edge whose
    /// run ends at `t - 1` and restarts at `t` produces *neither* event,
    /// because runs of consecutive labels are coalesced). `appearing_at(0)`
    /// is exactly the edge set of `G_0`; `disappearing_at(0)` is always
    /// empty; runs that touch the horizon emit no disappear event.
    ///
    /// ```
    /// use csn_temporal::TimeEvolvingGraph;
    ///
    /// let mut eg = TimeEvolvingGraph::new(3, 4);
    /// eg.add_contact(0, 1, 0);
    /// eg.add_contact(0, 1, 1); // run [0, 1]
    /// eg.add_contact(1, 2, 2); // run [2, 2]
    /// let cur = eg.snapshot_cursor();
    /// assert_eq!(cur.appearing_at(0), &[(0, 1)]);
    /// assert_eq!(cur.disappearing_at(0), &[]);
    /// assert_eq!(cur.disappearing_at(2), &[(0, 1)]); // run ended at t - 1 = 1
    /// assert_eq!(cur.appearing_at(2), &[(1, 2)]);
    /// assert_eq!(cur.disappearing_at(3), &[(1, 2)]);
    /// ```
    pub fn appearing_at(&self, t: TimeUnit) -> &[(NodeId, NodeId)] {
        self.appear.get(t as usize).map_or(&[], Vec::as_slice)
    }

    /// The edges whose label run ended at `t - 1` (empty outside the
    /// horizon).
    pub fn disappearing_at(&self, t: TimeUnit) -> &[(NodeId, NodeId)] {
        self.disappear.get(t as usize).map_or(&[], Vec::as_slice)
    }

    /// Rewinds the cursor to `t = 0`, rebuilding the maintained graph from
    /// the already-precomputed `appearing_at(0)` events.
    ///
    /// # Performance
    ///
    /// Unlike constructing a fresh cursor this does **not** re-scan the
    /// `EG`'s label sets — the delta tables were computed once in
    /// [`SnapshotCursor::new`] and are reused as-is — so starting a second
    /// sweep costs only `O(n + Δ_0)` (one empty graph allocation plus the
    /// `t = 0` insertions), not `O(n + contacts)`. Repeated whole-horizon
    /// sweeps — [`TrackedCursor::reset`](crate::TrackedCursor::reset)
    /// rewinds through here — pay for the delta tables once.
    ///
    /// ```
    /// use csn_temporal::TimeEvolvingGraph;
    ///
    /// let mut eg = TimeEvolvingGraph::new(3, 5);
    /// eg.add_contact(0, 1, 0);
    /// eg.add_contact(1, 2, 3);
    /// let mut cur = eg.snapshot_cursor();
    /// while cur.advance() {}
    /// assert_eq!(cur.time(), 4);
    /// cur.reset();
    /// assert_eq!(cur.time(), 0);
    /// assert_eq!(*cur.graph(), eg.snapshot(0));
    /// ```
    pub fn reset(&mut self) {
        self.t = 0;
        self.graph = Graph::new(self.graph.node_count());
        for &(u, v) in &self.appear[0] {
            self.graph.add_edge(u, v);
        }
    }

    /// Steps to the next time unit, applying that instant's edge deltas.
    /// Returns `false` (without moving) once the last time unit of the
    /// horizon is reached.
    pub fn advance(&mut self) -> bool {
        if self.t + 1 >= self.horizon {
            return false;
        }
        self.t += 1;
        let t = self.t as usize;
        for &(u, v) in &self.disappear[t] {
            self.graph.remove_edge(u, v);
        }
        for &(u, v) in &self.appear[t] {
            self.graph.add_edge(u, v);
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::paper::fig2_example;

    fn assert_sweep_matches(eg: &TimeEvolvingGraph) {
        let mut cur = SnapshotCursor::new(eg);
        for t in 0..eg.horizon().max(1) {
            assert_eq!(cur.time(), t);
            assert_eq!(*cur.graph(), eg.snapshot(t), "t={t}");
            let advanced = cur.advance();
            assert_eq!(advanced, t + 1 < eg.horizon(), "t={t}");
        }
    }

    #[test]
    fn cursor_matches_rebuilds_on_fig2() {
        assert_sweep_matches(&fig2_example());
    }

    #[test]
    fn cursor_handles_adjacent_and_overlapping_runs() {
        let mut eg = TimeEvolvingGraph::new(4, 8);
        eg.add_contact(0, 1, 0);
        eg.add_contact(0, 1, 1);
        eg.add_contact(0, 1, 2); // run [0,2]
        eg.add_contact(0, 1, 4); // run [4,4]
        eg.add_contact(1, 2, 7); // run touching the horizon: no disappear
        eg.add_contact(2, 3, 3);
        assert_sweep_matches(&eg);
    }

    #[test]
    fn cursor_on_empty_and_zero_horizon_egs() {
        assert_sweep_matches(&TimeEvolvingGraph::new(5, 3));
        let eg = TimeEvolvingGraph::new(2, 0);
        let cur = eg.snapshot_cursor();
        assert_eq!(cur.horizon(), 0);
        assert_eq!(cur.graph().edge_count(), 0);
        let mut cur = cur;
        assert!(!cur.advance());
    }

    #[test]
    fn reset_rewinds_without_rescanning() {
        let eg = fig2_example();
        let mut cur = SnapshotCursor::new(&eg);
        // Stop mid-sweep, reset, and check a full sweep still matches.
        cur.advance();
        cur.advance();
        cur.reset();
        assert_eq!(cur.time(), 0);
        for t in 0..eg.horizon() {
            assert_eq!(*cur.graph(), eg.snapshot(t), "t={t}");
            cur.advance();
        }
    }

    #[test]
    fn cursor_is_a_frozen_view() {
        let mut eg = TimeEvolvingGraph::new(3, 4);
        eg.add_contact(0, 1, 1);
        let cur = SnapshotCursor::new(&eg);
        eg.add_contact(1, 2, 1);
        let mut cur = cur;
        cur.advance();
        assert_ne!(*cur.graph(), eg.snapshot(1), "captures construction-time state");
        assert_eq!(*eg.snapshot_cursor().graph(), eg.snapshot(0));
    }
}

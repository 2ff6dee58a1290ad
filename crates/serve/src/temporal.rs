//! Cursor-driven temporal journey answering.
//!
//! [`earliest_arrival_via_cursor`] serves "when does a message from `s`
//! sent at `start` first reach `t`?" by sweeping a
//! [`SnapshotCursor`] forward — `O(Δ_t)` edge
//! deltas per step plus one BFS closure per visited time unit — instead of
//! running the heap-based oracle `csn_temporal::journey::earliest_arrival`
//! over the whole contact multiset per query. The two agree exactly (this
//! module's tests and `index.rs`'s `journey_answers_match_the_heap_oracle`
//! compare them): a
//! node arrives by time `t` iff it is in the snapshot-`G_t` closure of the
//! already-arrived set, because transmission within a time unit is
//! instantaneous (equal labels chain) and labels along a journey are
//! non-decreasing.
//!
//! The cursor is the per-worker scratch of the journey path: it rewinds via
//! [`SnapshotCursor::reset`] (reusing the precomputed delta tables) whenever
//! a query departs earlier than the cursor's current position, so reuse
//! across queries is observationally invisible — the same contract as
//! `csn_graph::scratch`.

use csn_graph::NodeId;
use csn_temporal::{SnapshotCursor, TimeUnit};
use std::collections::VecDeque;

/// Earliest arrival time of a temporal journey `source → target` departing
/// at `start`, computed by sweeping `cur` forward from `start`. Returns
/// `Some(start)` when `source == target`, `None` when the target is not
/// reached before the cursor's horizon. Equals
/// `csn_temporal::journey::earliest_arrival(eg, source, start)[target]` for
/// the `eg` the cursor was built from.
pub fn earliest_arrival_via_cursor(
    cur: &mut SnapshotCursor,
    source: NodeId,
    target: NodeId,
    start: TimeUnit,
) -> Option<TimeUnit> {
    if source == target {
        return Some(start);
    }
    if start >= cur.horizon() {
        return None;
    }
    if cur.time() > start {
        cur.reset();
    }
    while cur.time() < start {
        if !cur.advance() {
            return None;
        }
    }

    let n = cur.graph().node_count();
    let mut arrived = vec![false; n];
    arrived[source] = true;
    let mut queue: VecDeque<NodeId> = VecDeque::new();
    loop {
        let t = cur.time();
        // Closure of the arrived set within this time unit's snapshot:
        // instantaneous transmission lets a message cross any number of
        // currently-live edges without the clock moving.
        queue.extend((0..n).filter(|&u| arrived[u]));
        while let Some(u) = queue.pop_front() {
            for &v in cur.graph().neighbors(u) {
                if !arrived[v] {
                    if v == target {
                        return Some(t);
                    }
                    arrived[v] = true;
                    queue.push_back(v);
                }
            }
        }
        if !cur.advance() {
            return None;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use csn_temporal::journey::earliest_arrival;
    use csn_temporal::TimeEvolvingGraph;

    fn check_all_pairs(eg: &TimeEvolvingGraph) {
        let mut cur = eg.snapshot_cursor();
        for source in 0..eg.node_count() {
            for start in 0..eg.horizon().max(1) {
                let oracle = earliest_arrival(eg, source, start);
                for target in 0..eg.node_count() {
                    // Deliberately varied cursor positions across calls:
                    // reuse must be invisible.
                    let got = earliest_arrival_via_cursor(&mut cur, source, target, start);
                    assert_eq!(got, oracle[target], "s={source} t={target} start={start}");
                }
            }
        }
    }

    #[test]
    fn matches_oracle_on_fig2() {
        check_all_pairs(&csn_temporal::paper::fig2_example());
    }

    #[test]
    fn matches_oracle_on_markovian_trace() {
        let eg = csn_temporal::markovian::EdgeMarkovian::new(9, 0.3, 0.4).generate(12, 77);
        check_all_pairs(&eg);
    }

    #[test]
    fn self_journeys_and_out_of_horizon_departures() {
        let mut eg = TimeEvolvingGraph::new(3, 4);
        eg.add_contact(0, 1, 2);
        let mut cur = eg.snapshot_cursor();
        assert_eq!(earliest_arrival_via_cursor(&mut cur, 2, 2, 9), Some(9));
        assert_eq!(earliest_arrival_via_cursor(&mut cur, 0, 1, 4), None);
        assert_eq!(earliest_arrival_via_cursor(&mut cur, 0, 1, 2), Some(2));
        assert_eq!(earliest_arrival_via_cursor(&mut cur, 0, 2, 0), None);
    }

    #[test]
    fn equal_label_chains_arrive_in_one_time_unit() {
        // Path 0-1-2-3 all live at t = 1: a message sent at 0 crosses the
        // whole path the moment the edges appear.
        let mut eg = TimeEvolvingGraph::new(4, 3);
        eg.add_contact(0, 1, 1);
        eg.add_contact(1, 2, 1);
        eg.add_contact(2, 3, 1);
        let mut cur = eg.snapshot_cursor();
        assert_eq!(earliest_arrival_via_cursor(&mut cur, 0, 3, 0), Some(1));
    }
}

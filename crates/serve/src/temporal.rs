//! Journey answering from a label-run index: [`JourneyStore`].
//!
//! A journey query asks "when does a message from `s`, sent at `start`,
//! first reach `t`?" over the attached contact trace (§II-B: transmission
//! over a contact is instantaneous and labels along a journey never
//! decrease). Like Wu et al.'s one-pass earliest arrival over a time-sorted
//! edge stream ("Path Problems in Temporal Graphs", PVLDB 2014), the store
//! answers it in one forward pass over time, but over the trace's label
//! runs rather than its contacts:
//!
//! * at unit `start`, close the arrived set `{s}` over every contact pair
//!   with a run covering `start`;
//! * at each later unit `t`, scan only the runs that begin at `t`: one with
//!   exactly one arrived endpoint brings in the other, and the newcomers
//!   are then closed over every run covering `t`.
//!
//! This is exact. A node joined to the arrived set by a pair that was
//! already up at `t − 1` was marked by the closure at `t − 1`, so only runs
//! that begin at `t` can extend the set at `t`; chains of equal labels are
//! the closure inside one unit. The answer is the first unit at which the
//! target is marked, equal to `csn_temporal::journey::earliest_arrival`
//! (this module's tests, `index.rs` and the `serve_props` suite compare
//! them).
//!
//! # Memory
//!
//! Ids and times are `u32`; offsets keyed by node or by time unit are
//! `usize`. A run costs 16 B (its `(start, end)` and its appear entry), a
//! distinct pair 20 B (two adjacency entries and its first-run index), a
//! node or a time unit 8 B (one offset), plus one closing offset per offset
//! column. The trace itself is not kept.

use crate::index::narrow;
use csn_graph::NodeId;
use csn_temporal::{TimeEvolvingGraph, TimeUnit};

/// The journey index over one contact trace, built once by
/// [`ServeIndex::with_temporal`](crate::ServeIndex::with_temporal) and read
/// by every worker. See the [module docs](self).
#[derive(Debug, Clone)]
pub(crate) struct JourneyStore {
    nodes: usize,
    horizon: TimeUnit,
    /// Inclusive label runs `(start, end)` of each distinct contact pair, in
    /// pair order: pair `p` owns `runs[first_run[p]..first_run[p + 1]]`.
    runs: Vec<(TimeUnit, TimeUnit)>,
    first_run: Vec<u32>,
    /// Node `u`'s `(partner, pair)` entries are `adj[adj_off[u]..adj_off[u + 1]]`.
    adj_off: Vec<usize>,
    adj: Vec<(u32, u32)>,
    /// The `(u, v)` pairs whose run starts at unit `t` are
    /// `appear[appear_off[t]..appear_off[t + 1]]`.
    appear_off: Vec<usize>,
    appear: Vec<(u32, u32)>,
}

/// Per-worker working memory for [`JourneyStore::earliest_arrival`]. Both
/// arrays grow on first use, so a scratch that answers no journey holds no
/// heap memory.
#[derive(Debug, Default)]
pub(crate) struct JourneyScratch {
    /// `mark[v] == epoch` iff node `v` has arrived in the current query.
    mark: Vec<u32>,
    epoch: u32,
    /// Arrived nodes whose pairs the closure has not scanned yet.
    stack: Vec<u32>,
    /// Adjacency and appear-list entries scanned by every journey answered
    /// through this scratch.
    pub(crate) scanned: u64,
}

impl JourneyScratch {
    /// Starts a query over `n` nodes: one epoch bump unmarks every node.
    fn begin(&mut self, n: usize) {
        if self.mark.len() < n {
            self.mark.resize(n, 0);
        }
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            // The stamps wrapped: clear them, once per 2^32 − 1 queries.
            self.mark.fill(0);
            self.epoch = 1;
        }
        self.stack.clear();
    }

    fn has(&self, v: u32) -> bool {
        self.mark[v as usize] == self.epoch
    }

    fn arrive(&mut self, v: u32) {
        self.mark[v as usize] = self.epoch;
        self.stack.push(v);
    }
}

impl JourneyStore {
    /// Indexes `eg`'s label runs. Every column is allocated at its exact
    /// size: one counting pass sizes them, two more fill them.
    ///
    /// # Panics
    ///
    /// If `eg` has `u32::MAX` or more nodes or label runs (ids and run
    /// indices are stored as `u32`).
    pub(crate) fn new(eg: &TimeEvolvingGraph) -> Self {
        let (nodes, horizon) = (eg.node_count(), eg.horizon());
        // Counting pass: `adj_off[u]` and `appear_off[t]` first hold the
        // inclusive prefix sums of degrees and of run starts, that is, one
        // past each row's last slot.
        let mut adj_off = vec![0usize; nodes + 1];
        let mut appear_off = vec![0usize; horizon as usize + 1];
        let mut run_count = 0usize;
        for e in eg.edges() {
            adj_off[e.u] += 1;
            adj_off[e.v] += 1;
            for (start, _) in e.runs() {
                appear_off[start as usize] += 1;
                run_count += 1;
            }
        }
        // Every pair has at least one label, so pair ids fit `u32` too.
        assert!(
            nodes < u32::MAX as usize && run_count < u32::MAX as usize,
            "the journey store keeps ids in u32: {nodes} nodes, {run_count} label runs"
        );
        for off in [&mut adj_off, &mut appear_off] {
            let mut sum = 0;
            for slot in off.iter_mut() {
                sum += *slot;
                *slot = sum;
            }
        }

        // Fill each row from its end, pairs in reverse, so rows keep pair
        // order and each offset ends at its row's first slot.
        let mut adj = vec![(0u32, 0u32); adj_off[nodes]];
        let mut appear = vec![(0u32, 0u32); run_count];
        for (p, e) in eg.edges().iter().enumerate().rev() {
            let (u, v, p) = (narrow(&e.u), narrow(&e.v), narrow(&p));
            adj_off[e.u] -= 1;
            adj[adj_off[e.u]] = (v, p);
            adj_off[e.v] -= 1;
            adj[adj_off[e.v]] = (u, p);
            for (start, _) in e.runs() {
                appear_off[start as usize] -= 1;
                appear[appear_off[start as usize]] = (u, v);
            }
        }

        let mut runs = Vec::with_capacity(run_count);
        let mut first_run = Vec::with_capacity(eg.edge_count() + 1);
        for e in eg.edges() {
            first_run.push(narrow(&runs.len()));
            runs.extend(e.runs());
        }
        first_run.push(narrow(&runs.len()));
        JourneyStore { nodes, horizon, runs, first_run, adj_off, adj, appear_off, appear }
    }

    /// The trace's node count: journey ids must lie below it.
    pub(crate) fn node_count(&self) -> usize {
        self.nodes
    }

    /// Heap bytes held by the store's columns.
    pub(crate) fn heap_bytes(&self) -> usize {
        use std::mem::size_of;
        self.runs.capacity() * size_of::<(TimeUnit, TimeUnit)>()
            + self.first_run.capacity() * size_of::<u32>()
            + (self.adj_off.capacity() + self.appear_off.capacity()) * size_of::<usize>()
            + (self.adj.capacity() + self.appear.capacity()) * size_of::<(u32, u32)>()
    }

    /// Earliest arrival at `target` of a message sent from `source` at
    /// `start`: `Some(start)` when `source == target`, `None` when the
    /// target is not reached within the horizon. Both ids must lie below
    /// [`JourneyStore::node_count`]. Equals
    /// `csn_temporal::journey::earliest_arrival(eg, source, start)[target]`
    /// for the trace `eg` the store was built from.
    pub(crate) fn earliest_arrival(
        &self,
        source: NodeId,
        target: NodeId,
        start: TimeUnit,
        s: &mut JourneyScratch,
    ) -> Option<TimeUnit> {
        if source == target {
            return Some(start);
        }
        if start >= self.horizon {
            return None;
        }
        s.begin(self.nodes);
        let target = narrow(&target);
        s.arrive(narrow(&source));
        let mut t = start;
        loop {
            if self.close(t, target, s) {
                return Some(t);
            }
            t += 1;
            if t == self.horizon {
                return None;
            }
            let appear = &self.appear[self.appear_off[t as usize]..self.appear_off[t as usize + 1]];
            for &(u, v) in appear {
                s.scanned += 1;
                let (has_u, has_v) = (s.has(u), s.has(v));
                if has_u != has_v {
                    let w = if has_u { v } else { u };
                    if w == target {
                        return Some(t);
                    }
                    s.arrive(w);
                }
            }
        }
    }

    /// Closes the arrived set over the pairs up at `t`, starting from the
    /// nodes on the scratch's stack. Returns whether it reached `target`.
    fn close(&self, t: TimeUnit, target: u32, s: &mut JourneyScratch) -> bool {
        while let Some(u) = s.stack.pop() {
            let u = u as usize;
            for &(w, pair) in &self.adj[self.adj_off[u]..self.adj_off[u + 1]] {
                s.scanned += 1;
                if s.has(w) || !self.is_up(pair, t) {
                    continue;
                }
                if w == target {
                    return true;
                }
                s.arrive(w);
            }
        }
        false
    }

    /// Whether `pair` is up at `t`: its last run starting at or before `t`
    /// also ends at or after it.
    fn is_up(&self, pair: u32, t: TimeUnit) -> bool {
        let p = pair as usize;
        let runs = &self.runs[self.first_run[p] as usize..self.first_run[p + 1] as usize];
        let i = runs.partition_point(|&(start, _)| start <= t);
        i > 0 && runs[i - 1].1 >= t
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use csn_temporal::journey::earliest_arrival;

    /// Every `(source, target, start)` answer against the heap oracle,
    /// departures past the horizon included, through one reused scratch.
    fn check_all_pairs(eg: &TimeEvolvingGraph) {
        let store = JourneyStore::new(eg);
        let mut s = JourneyScratch::default();
        for source in 0..eg.node_count() {
            for start in 0..=eg.horizon() {
                let oracle = earliest_arrival(eg, source, start);
                for target in 0..eg.node_count() {
                    let got = store.earliest_arrival(source, target, start, &mut s);
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
        let store = JourneyStore::new(&eg);
        let mut s = JourneyScratch::default();
        assert_eq!(store.earliest_arrival(2, 2, 9, &mut s), Some(9));
        assert_eq!(store.earliest_arrival(0, 1, 4, &mut s), None);
        assert_eq!(store.earliest_arrival(0, 1, 2, &mut s), Some(2));
        assert_eq!(store.earliest_arrival(0, 2, 0, &mut s), None);
    }

    #[test]
    fn equal_label_chains_arrive_in_one_time_unit() {
        // Path 0-1-2-3 all live at t = 1: a message sent at 0 crosses the
        // whole path the moment the edges appear.
        let mut eg = TimeEvolvingGraph::new(4, 3);
        eg.add_contact(0, 1, 1);
        eg.add_contact(1, 2, 1);
        eg.add_contact(2, 3, 1);
        let mut s = JourneyScratch::default();
        assert_eq!(JourneyStore::new(&eg).earliest_arrival(0, 3, 0, &mut s), Some(1));
    }

    /// Answers `(source, target, start)` on a fresh scratch: the arrival
    /// and the entries the answer scanned.
    fn answer(
        eg: &TimeEvolvingGraph,
        source: NodeId,
        target: NodeId,
        start: TimeUnit,
    ) -> (Option<TimeUnit>, u64) {
        let mut s = JourneyScratch::default();
        let got = JourneyStore::new(eg).earliest_arrival(source, target, start, &mut s);
        assert_eq!(got, earliest_arrival(eg, source, start)[target], "the heap oracle");
        (got, s.scanned)
    }

    #[test]
    fn hand_built_journeys_take_the_appear_and_closure_paths() {
        // A chain of equal labels, listed back to front so that only the
        // closure inside unit 1 can cross it: appear[1] brings in 1, the
        // closure then 2 and 3 (7 entries: 1 + 3 appear + 3 adjacency).
        let mut chain = TimeEvolvingGraph::new(4, 3);
        for (u, v) in [(2, 3), (1, 2), (0, 1)] {
            chain.add_contact(u, v, 1);
        }
        assert_eq!(answer(&chain, 0, 3, 0), (Some(1), 7));

        // A pair with a gap has two runs, [0, 1] and [4, 4]; binary search
        // must pick the right one.
        let mut gap = TimeEvolvingGraph::new(3, 6);
        for t in [0, 1, 4] {
            gap.add_contact(0, 1, t);
        }
        gap.add_contact(1, 2, 3);
        assert_eq!(answer(&gap, 0, 1, 1), (Some(1), 1)); // inside the first run
        assert_eq!(answer(&gap, 0, 1, 2), (Some(4), 3)); // in the gap: wait for the second
        assert_eq!(answer(&gap, 1, 0, 4), (Some(4), 1)); // the second run, by closure
        assert_eq!(answer(&gap, 2, 0, 3), (Some(4), 4)); // the second run, by appearing

        // The target is reached only through pairs that appear after the
        // source's closure: the appear-list path, twice.
        let mut late = TimeEvolvingGraph::new(3, 5);
        late.add_contact(0, 1, 1);
        late.add_contact(1, 2, 3);
        assert_eq!(answer(&late, 0, 2, 0), (Some(3), 5));

        // The target's pair was already up when its other endpoint arrived:
        // only the closure from the newcomer finds it.
        let mut live = TimeEvolvingGraph::new(3, 6);
        for t in 0..6 {
            live.add_contact(1, 2, t);
        }
        live.add_contact(0, 1, 3);
        assert_eq!(answer(&live, 0, 2, 0), (Some(3), 3));
    }
}

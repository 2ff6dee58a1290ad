//! The frozen time-evolving graph: [`FrozenEg`], built by
//! [`TimeEvolvingGraph::freeze`].
//!
//! The frozen form keeps each contact pair's label runs (maximal stretches
//! of consecutive labels) in flat columns. Pairs are numbered in the
//! `(min, max)` order of their endpoints, each node's row lists its
//! `(partner, pair)` entries sorted by partner, and each unit's appear list
//! names the pairs whose run starts there, as `(min, max)` in pair order.
//! So two `EG`s with equal label sets freeze equal, whatever the order and
//! orientation their contacts were added in.
//!
//! [`FrozenEg::earliest_arrival`] is Wu et al.'s one-pass earliest arrival
//! ("Path Problems in Temporal Graphs", PVLDB 2014) over label runs rather
//! than contacts: at unit `start`, close the arrived set `{s}` over every
//! pair with a run covering `start`; at each later unit `t`, scan only the
//! runs that begin at `t`. One with exactly one arrived endpoint brings in
//! the other, and the newcomers are closed over every run covering `t`.
//! This is exact: a node joined by a pair already up at `t − 1` was marked
//! by the closure at `t − 1`, and chains of equal labels are the closure
//! inside one unit. The DTN ladder of [`crate::routing`] reads the same
//! columns.
//!
//! # Memory
//!
//! Ids and times are `u32`; offsets keyed by node or by time unit are
//! `usize`. A run costs 16 B (its `(start, end)` and its appear entry), a
//! distinct pair 20 B (two row entries and its first-run index), a node or
//! a time unit 8 B (one offset), plus one closing offset per offset column.

use crate::graph::{TimeEvolvingGraph, TimeUnit};
use csn_graph::NodeId;
use std::ops::ControlFlow;

/// The read-only form of a [`TimeEvolvingGraph`]: label runs per pair, a
/// partner-sorted row per node and an appear list per time unit. See the
/// [module docs](self).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FrozenEg {
    nodes: usize,
    horizon: TimeUnit,
    /// Inclusive label runs `(start, end)` of each distinct contact pair, in
    /// pair order: pair `p` owns `runs[first_run[p]..first_run[p + 1]]`.
    runs: Vec<(TimeUnit, TimeUnit)>,
    first_run: Vec<u32>,
    /// Node `u`'s `(partner, pair)` entries are `adj[adj_off[u]..adj_off[u + 1]]`,
    /// sorted by partner.
    adj_off: Vec<usize>,
    adj: Vec<(u32, u32)>,
    /// The `(min, max)` pairs whose run starts at unit `t` are
    /// `appear[appear_off[t]..appear_off[t + 1]]`, in pair order.
    appear_off: Vec<usize>,
    appear: Vec<(u32, u32)>,
}

/// Working memory for [`FrozenEg::earliest_arrival`], one per worker. Both
/// arrays grow on first use, so a scratch that answers no journey holds no
/// heap memory.
#[derive(Debug, Default)]
pub struct JourneyScratch {
    /// `mark[v] == epoch` iff node `v` has arrived in the current query.
    mark: Vec<u32>,
    epoch: u32,
    /// Arrived nodes whose pairs the closure has not scanned yet.
    stack: Vec<u32>,
    scanned: u64,
}

impl JourneyScratch {
    /// Row and appear-list entries scanned by every journey answered
    /// through this scratch: an exact work count that repeats run to run.
    pub fn scanned(&self) -> u64 {
        self.scanned
    }

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

impl TimeEvolvingGraph {
    /// Freezes the `EG` into its read-only [`FrozenEg`]. One counting pass
    /// sizes every column exactly; one pass over the pairs in `(min, max)`
    /// order fills them.
    ///
    /// # Panics
    ///
    /// If the `EG` has `u32::MAX` or more nodes or label runs (the frozen
    /// form keeps ids and run indices as `u32`).
    pub fn freeze(&self) -> FrozenEg {
        let (nodes, horizon) = (self.node_count(), self.horizon());
        // Counting pass: `adj_off[u]` and `appear_off[t]` first hold each
        // row's length, then the slot its filling starts at.
        let mut adj_off = vec![0usize; nodes + 1];
        let mut appear_off = vec![0usize; horizon as usize + 1];
        let mut run_count = 0usize;
        for e in self.edges() {
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
            "the frozen form keeps ids in u32: {nodes} nodes, {run_count} label runs"
        );
        for off in [&mut adj_off, &mut appear_off] {
            let mut sum = 0;
            for slot in off.iter_mut() {
                sum += std::mem::replace(slot, sum);
            }
        }

        // Pairs in `(min, max)` order: node `u`'s pairs with a larger
        // partner, by partner. A row receives its smaller partners first
        // (while those nodes number their pairs) and its larger ones last,
        // so each row fills in partner order.
        let mut adj = vec![(0u32, 0u32); adj_off[nodes]];
        let mut appear = vec![(0u32, 0u32); run_count];
        let mut runs = Vec::with_capacity(run_count);
        let mut first_run = Vec::with_capacity(self.edge_count() + 1);
        let mut larger = Vec::new();
        for u in 0..nodes {
            larger.clear();
            larger.extend(self.adj[u].iter().filter(|&&(w, _)| w as usize > u));
            larger.sort_unstable();
            for &(w, ei) in &larger {
                // Pair ids stay below the run count, checked above; `new`
                // checked that node ids fit u32.
                let (p, u32_u) = (first_run.len() as u32, u as u32);
                first_run.push(runs.len() as u32);
                for (end, partner) in [(u, w), (w as usize, u32_u)] {
                    adj[adj_off[end]] = (partner, p);
                    adj_off[end] += 1;
                }
                for run in self.edges()[ei as usize].runs() {
                    runs.push(run);
                    let slot = &mut appear_off[run.0 as usize];
                    appear[*slot] = (u32_u, w);
                    *slot += 1;
                }
            }
        }
        first_run.push(runs.len() as u32);
        // Each offset now ends its row, that is, starts the next one.
        for off in [&mut adj_off, &mut appear_off] {
            off.rotate_right(1);
            off[0] = 0;
        }
        FrozenEg { nodes, horizon, runs, first_run, adj_off, adj, appear_off, appear }
    }
}

impl FrozenEg {
    /// Number of nodes: ids lie below it.
    pub fn node_count(&self) -> usize {
        self.nodes
    }

    /// Number of distinct contact pairs.
    pub fn pair_count(&self) -> usize {
        self.first_run.len() - 1
    }

    /// Number of label runs.
    pub fn run_count(&self) -> usize {
        self.runs.len()
    }

    /// Heap bytes held by the columns.
    pub fn heap_bytes(&self) -> usize {
        use std::mem::size_of;
        self.runs.capacity() * size_of::<(TimeUnit, TimeUnit)>()
            + self.first_run.capacity() * size_of::<u32>()
            + (self.adj_off.capacity() + self.appear_off.capacity()) * size_of::<usize>()
            + (self.adj.capacity() + self.appear.capacity()) * size_of::<(u32, u32)>()
    }

    /// Earliest arrival at `target` of a message sent from `source` at
    /// `start`: `Some(start)` when `source == target`, `None` when the
    /// target is not reached within the horizon or either id is outside the
    /// form. Equals
    /// [`journey::earliest_arrival(eg, source, start)[target]`](crate::journey::earliest_arrival)
    /// for the `eg` this form was frozen from.
    pub fn earliest_arrival(
        &self,
        source: NodeId,
        target: NodeId,
        start: TimeUnit,
        s: &mut JourneyScratch,
    ) -> Option<TimeUnit> {
        if source >= self.nodes || target >= self.nodes {
            return None;
        }
        if source == target {
            return Some(start);
        }
        if start >= self.horizon {
            return None;
        }
        s.begin(self.nodes);
        // Both ids are below the node count, which fits u32.
        let target = target as u32;
        s.arrive(source as u32);
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

    /// The first unit at or after `t` at which `u` and `v` are in contact;
    /// `None` if there is none or either id is outside the form.
    pub(crate) fn next_contact(&self, u: NodeId, v: NodeId, t: TimeUnit) -> Option<TimeUnit> {
        let runs = self.runs_of(self.pair(u, v)?);
        let &(start, _) = runs.get(runs.partition_point(|&(_, end)| end < t))?;
        Some(start.max(t))
    }

    /// Calls `visit(t, up)` for each unit `t` from `start` on at which some
    /// pair is up, with `up` those pairs as `(min, max, last unit of the
    /// run)` in pair order, until `visit` breaks; returns what it broke with.
    pub(crate) fn sweep<B>(
        &self,
        start: TimeUnit,
        mut visit: impl FnMut(TimeUnit, &[(u32, u32, TimeUnit)]) -> ControlFlow<B>,
    ) -> Option<B> {
        // The last unit of each appear entry's run, aligned with `appear`:
        // `freeze` filled both from the runs in pair order, bucketed by
        // start.
        let mut ends = vec![0; self.runs.len()];
        let mut slot = self.appear_off.clone();
        for &(first, last) in &self.runs {
            ends[slot[first as usize]] = last;
            slot[first as usize] += 1;
        }
        let (mut up, mut next): (Vec<(u32, u32, TimeUnit)>, _) = (Vec::new(), Vec::new());
        for t in 0..self.horizon {
            // The pairs up at `t`: those of `t − 1` whose run goes on,
            // merged with the runs that start at `t`. Both lists are in pair
            // order, and they are disjoint, since a run starting at `t` was
            // down at `t − 1`.
            let span = self.appear_off[t as usize]..self.appear_off[t as usize + 1];
            let mut i = 0;
            for (&(u, v), &end) in self.appear[span.clone()].iter().zip(&ends[span]) {
                while i < up.len() && (up[i].0, up[i].1) < (u, v) {
                    if up[i].2 >= t {
                        next.push(up[i]);
                    }
                    i += 1;
                }
                next.push((u, v, end));
            }
            next.extend(up[i..].iter().filter(|&&(_, _, end)| end >= t));
            std::mem::swap(&mut up, &mut next);
            next.clear();
            if t >= start && !up.is_empty() {
                if let ControlFlow::Break(b) = visit(t, &up) {
                    return Some(b);
                }
            }
        }
        None
    }

    /// Closes the arrived set over the pairs up at `t`, starting from the
    /// nodes on the scratch's stack. Returns whether it reached `target`.
    fn close(&self, t: TimeUnit, target: u32, s: &mut JourneyScratch) -> bool {
        while let Some(u) = s.stack.pop() {
            for &(w, pair) in self.row(u as usize) {
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

    /// Node `u`'s `(partner, pair)` entries, sorted by partner.
    fn row(&self, u: NodeId) -> &[(u32, u32)] {
        &self.adj[self.adj_off[u]..self.adj_off[u + 1]]
    }

    /// The runs of pair `p`.
    fn runs_of(&self, p: u32) -> &[(TimeUnit, TimeUnit)] {
        let p = p as usize;
        &self.runs[self.first_run[p] as usize..self.first_run[p + 1] as usize]
    }

    /// The id of pair `(u, v)`, by binary search in `u`'s row; `None` if
    /// the two never meet or `u` is outside the form.
    fn pair(&self, u: NodeId, v: NodeId) -> Option<u32> {
        if u >= self.nodes {
            return None;
        }
        let row = self.row(u);
        let i = row.binary_search_by_key(&v, |&(w, _)| w as usize).ok()?;
        Some(row[i].1)
    }

    /// Whether `pair` is up at `t`: its last run starting at or before `t`
    /// also ends at or after it.
    fn is_up(&self, pair: u32, t: TimeUnit) -> bool {
        let runs = self.runs_of(pair);
        let i = runs.partition_point(|&(start, _)| start <= t);
        i > 0 && runs[i - 1].1 >= t
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::journey::earliest_arrival;
    use crate::markovian::EdgeMarkovian;
    use crate::paper::fig2_example;
    use rand::seq::SliceRandom;
    use rand::SeedableRng;

    /// Every `(source, target, start)` answer against the heap oracle,
    /// departures past the horizon included, through one reused scratch.
    fn check_all_pairs(eg: &TimeEvolvingGraph) {
        let frozen = eg.freeze();
        let mut s = JourneyScratch::default();
        for source in 0..eg.node_count() {
            for start in 0..=eg.horizon() {
                let oracle = earliest_arrival(eg, source, start);
                for target in 0..eg.node_count() {
                    let got = frozen.earliest_arrival(source, target, start, &mut s);
                    assert_eq!(got, oracle[target], "s={source} t={target} start={start}");
                }
            }
        }
    }

    #[test]
    fn matches_oracle_on_fig2() {
        check_all_pairs(&fig2_example());
    }

    #[test]
    fn matches_oracle_on_markovian_trace() {
        check_all_pairs(&EdgeMarkovian::new(9, 0.3, 0.4).generate(12, 77));
    }

    #[test]
    fn self_journeys_and_out_of_horizon_departures() {
        let mut eg = TimeEvolvingGraph::new(3, 4);
        eg.add_contact(0, 1, 2);
        let frozen = eg.freeze();
        let mut s = JourneyScratch::default();
        assert_eq!(frozen.earliest_arrival(2, 2, 9, &mut s), Some(9));
        assert_eq!(frozen.earliest_arrival(0, 1, 4, &mut s), None);
        assert_eq!(frozen.earliest_arrival(0, 1, 2, &mut s), Some(2));
        assert_eq!(frozen.earliest_arrival(0, 2, 0, &mut s), None);
        let scanned = s.scanned();
        for (source, target) in [(3, 0), (0, 3), (3, 3), (usize::MAX, 1)] {
            assert_eq!(frozen.earliest_arrival(source, target, 0, &mut s), None);
        }
        assert_eq!(s.scanned(), scanned, "outside ids scan nothing");
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
        assert_eq!(eg.freeze().earliest_arrival(0, 3, 0, &mut s), Some(1));
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
        let got = eg.freeze().earliest_arrival(source, target, start, &mut s);
        assert_eq!(got, earliest_arrival(eg, source, start)[target], "the heap oracle");
        (got, s.scanned)
    }

    #[test]
    fn hand_built_journeys_take_the_appear_and_closure_paths() {
        // A chain of equal labels run from 3 to 0: the appear list of unit
        // 1 is in pair order, (0, 1), (1, 2), (2, 3), so it brings in only
        // 2, and the closure inside unit 1 crosses the rest (7 entries: 1
        // row entry at unit 0, 3 appear entries, 3 row entries).
        let mut chain = TimeEvolvingGraph::new(4, 3);
        for (u, v) in [(0, 1), (1, 2), (2, 3)] {
            chain.add_contact(u, v, 1);
        }
        assert_eq!(answer(&chain, 3, 0, 0), (Some(1), 7));

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
        // only the closure from the newcomer finds it (4 entries: row 0 at
        // unit 0, the appear entry, then row 1 in partner order, 0 before 2).
        let mut live = TimeEvolvingGraph::new(3, 6);
        for t in 0..6 {
            live.add_contact(1, 2, t);
        }
        live.add_contact(0, 1, 3);
        assert_eq!(answer(&live, 0, 2, 0), (Some(3), 4));
    }

    /// `eg`'s label sets rebuilt with the pairs added in a shuffled order,
    /// each named in a random orientation.
    fn reinserted(eg: &TimeEvolvingGraph, seed: u64) -> TimeEvolvingGraph {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut edges = eg.edges().to_vec();
        edges.shuffle(&mut rng);
        let mut out = TimeEvolvingGraph::new(eg.node_count(), eg.horizon());
        for e in edges {
            let (u, v) = if rand::Rng::gen(&mut rng) { (e.u, e.v) } else { (e.v, e.u) };
            for &t in e.labels.iter().rev() {
                out.add_contact(u, v, t);
            }
        }
        out
    }

    #[test]
    fn equal_label_sets_freeze_equal() {
        for seed in 0..8 {
            let eg = EdgeMarkovian::new(12, 0.3, 0.2).generate(15, seed);
            let other = reinserted(&eg, 100 + seed);
            assert_ne!(eg.edges(), other.edges(), "seed {seed}: the reinsertion must differ");
            assert_eq!(eg.freeze(), other.freeze(), "seed {seed}");
        }
    }
}

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

use crate::graph::{TemporalEdge, TimeEvolvingGraph, TimeUnit};
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
    /// Node `u`'s `(partner, pair)` entries, sorted by partner.
    rows: Lists,
    /// Unit `t`'s `(min, max)` pairs whose run starts there, in pair order.
    appear: Lists,
}

/// Per-key lists of `(u32, u32)` entries in two flat columns, list `k`
/// being `entries[off[k]..off[k + 1]]`, filled by a stable counting sort:
/// [`Lists::sized`] counts every list's entries and [`Lists::place`]
/// appends them in call order. `freeze` fills its node rows and appear list
/// this way, and the [`SnapshotCursor`](crate::SnapshotCursor) its appear
/// and vanish lists, both placing from [`TimeEvolvingGraph::for_each_pair`],
/// so every per-unit list is in pair order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct Lists {
    off: Vec<usize>,
    entries: Vec<(u32, u32)>,
}

impl Lists {
    /// Lists `0..keys` sized for one entry per key in `counted`, to be
    /// filled by placing exactly those entries. Until then `off[k + 1]` is
    /// the slot list `k` fills next, so once full it ends list `k`, that
    /// is, starts list `k + 1`.
    pub(crate) fn sized(keys: usize, counted: impl IntoIterator<Item = usize>) -> Lists {
        let mut off = vec![0; keys + 1];
        for key in counted {
            off[key + 1] += 1;
        }
        let mut sum = 0;
        for slot in &mut off[1..] {
            sum += std::mem::replace(slot, sum);
        }
        Lists { off, entries: vec![(0, 0); sum] }
    }

    /// Appends `entry` to list `key`.
    pub(crate) fn place(&mut self, key: usize, entry: (u32, u32)) {
        let slot = &mut self.off[key + 1];
        self.entries[*slot] = entry;
        *slot += 1;
    }

    /// List `key`; empty past the last list.
    pub(crate) fn get(&self, key: usize) -> &[(u32, u32)] {
        match self.off.get(key..key.saturating_add(2)) {
            Some(&[start, end]) => &self.entries[start..end],
            _ => &[],
        }
    }
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
        let edges = self.edges();
        let mut rows = Lists::sized(nodes, edges.iter().flat_map(|e| [e.u, e.v]));
        let starts = edges.iter().flat_map(|e| e.runs().map(|(start, _)| start as usize));
        let mut appear = Lists::sized(horizon as usize, starts);
        let run_count = appear.entries.len();
        // Every pair has at least one label, so pair ids fit `u32` too.
        assert!(
            nodes < u32::MAX as usize && run_count < u32::MAX as usize,
            "the frozen form keeps ids in u32: {nodes} nodes, {run_count} label runs"
        );
        let mut runs = Vec::with_capacity(run_count);
        let mut first_run = Vec::with_capacity(self.edge_count() + 1);
        // A row receives its smaller partners first (while those nodes
        // number their pairs) and its larger ones last, so each row fills in
        // partner order.
        self.for_each_pair(|u, w, e| {
            // Pair ids stay below the run count, checked above.
            let p = first_run.len() as u32;
            first_run.push(runs.len() as u32);
            rows.place(u as usize, (w, p));
            rows.place(w as usize, (u, p));
            for run in e.runs() {
                runs.push(run);
                appear.place(run.0 as usize, (u, w));
            }
        });
        first_run.push(runs.len() as u32);
        FrozenEg { nodes, horizon, runs, first_run, rows, appear }
    }

    /// Calls `visit(u, w, e)` for every contact pair in `(min, max)` order,
    /// with `e` its edge: node `u`'s larger partners `w`, ascending, for
    /// `u = 0..n`. One row-sized buffer is the only temporary.
    pub(crate) fn for_each_pair(&self, mut visit: impl FnMut(u32, u32, &TemporalEdge)) {
        let mut larger = Vec::new();
        for (u, row) in self.adj.iter().enumerate() {
            larger.clear();
            larger.extend(row.iter().filter(|&&(w, _)| w as usize > u));
            larger.sort_unstable();
            for &(w, ei) in &larger {
                // `new` checked that node ids fit u32.
                visit(u as u32, w, &self.edges()[ei as usize]);
            }
        }
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
            + (self.rows.off.capacity() + self.appear.off.capacity()) * size_of::<usize>()
            + (self.rows.entries.capacity() + self.appear.entries.capacity())
                * size_of::<(u32, u32)>()
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
            for &(u, v) in self.appear.get(t as usize) {
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
        let mut slot = self.appear.off.clone();
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
            let span = self.appear.off[t as usize]..self.appear.off[t as usize + 1];
            let mut i = 0;
            for (&(u, v), &end) in self.appear.entries[span.clone()].iter().zip(&ends[span]) {
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
            for &(w, pair) in self.rows.get(u as usize) {
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
        let row = self.rows.get(u);
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
    fn cursor_appear_column_is_the_frozen_appear_list() {
        for eg in [fig2_example(), EdgeMarkovian::new(20, 0.3, 0.1).generate(40, 5)] {
            let (cur, frozen) = (eg.snapshot_cursor(), eg.freeze());
            for t in 0..=eg.horizon() {
                assert_eq!(cur.appearing_at(t), frozen.appear.get(t as usize), "t={t}");
            }
        }
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

//! The time-evolving graph (`EG`) data structure.

use csn_graph::{Graph, NodeId};
use serde::{Deserialize, Serialize};

/// A discrete time unit (the paper's edge-label domain).
pub type TimeUnit = u32;

/// A single contact: edge `(u, v)` exists during time unit `t`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct Contact {
    /// One endpoint.
    pub u: NodeId,
    /// The other endpoint.
    pub v: NodeId,
    /// The time unit during which the contact is up.
    pub t: TimeUnit,
}

/// An undirected temporal edge with its sorted label set
/// `{i | (u, v) ∈ E_i}`.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct TemporalEdge {
    /// One endpoint.
    pub u: NodeId,
    /// The other endpoint.
    pub v: NodeId,
    /// Sorted, deduplicated time units at which the edge exists.
    pub labels: Vec<TimeUnit>,
}

impl TemporalEdge {
    /// Whether the edge is up during time unit `t`.
    pub fn has_label(&self, t: TimeUnit) -> bool {
        self.labels.binary_search(&t).is_ok()
    }

    /// The edge's label runs: each maximal stretch of consecutive labels as
    /// an inclusive `(start, end)` pair, in ascending order. The edge is up
    /// during exactly the units its runs cover.
    pub fn runs(&self) -> impl Iterator<Item = (TimeUnit, TimeUnit)> + '_ {
        let mut labels = self.labels.iter().copied().peekable();
        std::iter::from_fn(move || {
            let start = labels.next()?;
            let mut end = start;
            // Labels are sorted and distinct, so `end + 1` cannot overflow
            // while another label follows it.
            while let Some(next) = labels.next_if(|&l| l == end + 1) {
                end = next;
            }
            Some((start, end))
        })
    }
}

/// A time-evolving graph: `n` nodes and undirected edges carrying label sets
/// (§II-B). The *horizon* bounds the time units of interest: all labels lie
/// in `0..horizon`.
///
/// # Layout
///
/// An `EG` only grows: contacts are added, never removed. Edges live in
/// one `Vec` of [`TemporalEdge`] in creation order, each oriented as its
/// first contact named it. Node `u`'s row lists its incident edges as
/// `(partner, edge)` `u32` pairs, 8 B per entry: the other endpoint and
/// the edge's index. Finding the edge of a pair scans one contiguous row,
/// and [`TimeEvolvingGraph::neighbors`] reads partners straight from it.
///
/// A node id outside the EG reaches nothing and is reached by nothing: it
/// has no neighbors and no labels.
///
/// # Examples
///
/// ```
/// use csn_temporal::TimeEvolvingGraph;
///
/// let mut eg = TimeEvolvingGraph::new(3, 10);
/// eg.add_contact(0, 1, 2);
/// eg.add_periodic(1, 2, 3, 4); // labels 3, 7
/// assert_eq!(eg.labels(1, 2), Some(&[3, 7][..]));
/// assert_eq!(eg.contact_count(), 3);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct TimeEvolvingGraph {
    n: usize,
    horizon: TimeUnit,
    edges: Vec<TemporalEdge>,
    /// `adj[u]` lists `(partner, edge)` for each edge incident to `u`: the
    /// other endpoint and the index into `edges`.
    pub(crate) adj: Vec<Vec<(u32, u32)>>,
}

impl TimeEvolvingGraph {
    /// Creates an empty `EG` on `n` nodes with the given time horizon.
    ///
    /// # Panics
    ///
    /// Panics if `n` does not fit a `u32` (rows store node ids as `u32`).
    pub fn new(n: usize, horizon: TimeUnit) -> Self {
        assert!(u32::try_from(n).is_ok(), "{n} nodes do not fit u32 ids");
        TimeEvolvingGraph { n, horizon, edges: Vec::new(), adj: vec![Vec::new(); n] }
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.n
    }

    /// Time horizon: labels lie in `0..horizon`.
    pub fn horizon(&self) -> TimeUnit {
        self.horizon
    }

    /// Number of temporal edges (node pairs with at least one label).
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// Total number of contacts (sum of label-set sizes).
    pub fn contact_count(&self) -> usize {
        self.edges.iter().map(|e| e.labels.len()).sum()
    }

    /// Adds the contact `(u, v)` at time `t`, creating the temporal edge if
    /// needed. Returns `true` if the contact was new.
    ///
    /// # Panics
    ///
    /// Panics if an endpoint is out of range, `u == v`, `t >= horizon`, or
    /// a new edge's index would not fit a `u32` (more than 2³² edges).
    pub fn add_contact(&mut self, u: NodeId, v: NodeId, t: TimeUnit) -> bool {
        assert!(u < self.n && v < self.n, "node out of range");
        assert_ne!(u, v, "self-contacts are not allowed");
        assert!(t < self.horizon, "label {t} outside horizon {}", self.horizon);
        match self.edge_index(u, v) {
            Some(ei) => {
                let labels = &mut self.edges[ei].labels;
                match labels.binary_search(&t) {
                    Ok(_) => false,
                    Err(pos) => {
                        labels.insert(pos, t);
                        true
                    }
                }
            }
            None => {
                let ei = u32::try_from(self.edges.len()).expect("edge indices fit u32");
                self.edges.push(TemporalEdge { u, v, labels: vec![t] });
                // `new` checked that node ids fit u32.
                self.adj[u].push((v as u32, ei));
                self.adj[v].push((u as u32, ei));
                true
            }
        }
    }

    /// Adds periodic contacts `first, first + period, …` up to the horizon
    /// (the paper's Fig. 2 edges have such cyclic labels). Returns how many
    /// new contacts were added.
    ///
    /// # Panics
    ///
    /// Panics if `period == 0` or `first >= horizon`.
    pub fn add_periodic(
        &mut self,
        u: NodeId,
        v: NodeId,
        first: TimeUnit,
        period: TimeUnit,
    ) -> usize {
        assert!(period > 0, "period must be positive");
        assert!(first < self.horizon, "first label outside horizon");
        let mut added = 0;
        // `step_by` stops before a step past `TimeUnit::MAX` instead of
        // wrapping around.
        for t in (first..self.horizon).step_by(period as usize) {
            if self.add_contact(u, v, t) {
                added += 1;
            }
        }
        added
    }

    /// Index of the edge `(u, v)`: one scan of `u`'s row.
    fn edge_index(&self, u: NodeId, v: NodeId) -> Option<usize> {
        let &(_, ei) = self.adj.get(u)?.iter().find(|&&(w, _)| w as usize == v)?;
        Some(ei as usize)
    }

    /// Label set of edge `(u, v)`, if the temporal edge exists; `None` if
    /// either id is outside the EG.
    pub fn labels(&self, u: NodeId, v: NodeId) -> Option<&[TimeUnit]> {
        self.edge_index(u, v).map(|ei| self.edges[ei].labels.as_slice())
    }

    /// Temporal edges incident to `u` as `(neighbor, labels)` pairs, in
    /// row order; none if `u` is outside the EG.
    pub fn neighbors(&self, u: NodeId) -> impl Iterator<Item = (NodeId, &[TimeUnit])> + '_ {
        let row = self.adj.get(u).map_or(&[][..], Vec::as_slice);
        row.iter().map(|&(w, ei)| (w as usize, self.edges[ei as usize].labels.as_slice()))
    }

    /// All temporal edges.
    pub fn edges(&self) -> &[TemporalEdge] {
        &self.edges
    }

    /// All contacts, sorted by time then endpoints.
    pub fn contacts(&self) -> Vec<Contact> {
        let mut out: Vec<Contact> = self
            .edges
            .iter()
            .flat_map(|e| {
                e.labels.iter().map(move |&t| Contact { u: e.u.min(e.v), v: e.u.max(e.v), t })
            })
            .collect();
        out.sort_by_key(|c| (c.t, c.u, c.v));
        out
    }

    /// The snapshot `G_t`: the static graph of edges up during time unit `t`.
    pub fn snapshot(&self, t: TimeUnit) -> Graph {
        let mut g = Graph::new(self.n);
        for e in &self.edges {
            if e.has_label(t) {
                g.add_edge(e.u, e.v);
            }
        }
        g
    }

    /// An incremental [`SnapshotCursor`](crate::snapshot::SnapshotCursor)
    /// over this `EG`'s snapshots, positioned at `t = 0`. Sweeping the
    /// horizon through the cursor applies `O(Δ_t)` edge mutations per step
    /// instead of rebuilding every snapshot.
    pub fn snapshot_cursor(&self) -> crate::snapshot::SnapshotCursor {
        crate::snapshot::SnapshotCursor::new(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The edge-index rows the `(partner, edge)` rows replaced: `adj[u]`
    /// holds bare indices into `edges`, and every lookup dereferences the
    /// edge. The reference the rows are gated against, operation by
    /// operation.
    struct ReferenceEg {
        horizon: TimeUnit,
        edges: Vec<TemporalEdge>,
        adj: Vec<Vec<usize>>,
    }

    impl ReferenceEg {
        fn new(n: usize, horizon: TimeUnit) -> Self {
            ReferenceEg { horizon, edges: Vec::new(), adj: vec![Vec::new(); n] }
        }

        fn edge_index(&self, u: NodeId, v: NodeId) -> Option<usize> {
            self.adj.get(u)?.iter().copied().find(|&ei| {
                let e = &self.edges[ei];
                (e.u == u && e.v == v) || (e.u == v && e.v == u)
            })
        }

        fn labels(&self, u: NodeId, v: NodeId) -> Option<&[TimeUnit]> {
            self.edge_index(u, v).map(|ei| self.edges[ei].labels.as_slice())
        }

        fn neighbors(&self, u: NodeId) -> Vec<(NodeId, &[TimeUnit])> {
            self.adj[u]
                .iter()
                .map(|&ei| {
                    let e = &self.edges[ei];
                    (if e.u == u { e.v } else { e.u }, e.labels.as_slice())
                })
                .collect()
        }

        fn add_contact(&mut self, u: NodeId, v: NodeId, t: TimeUnit) -> bool {
            match self.edge_index(u, v) {
                Some(ei) => {
                    let labels = &mut self.edges[ei].labels;
                    let Err(pos) = labels.binary_search(&t) else { return false };
                    labels.insert(pos, t);
                }
                None => {
                    self.edges.push(TemporalEdge { u, v, labels: vec![t] });
                    self.adj[u].push(self.edges.len() - 1);
                    self.adj[v].push(self.edges.len() - 1);
                }
            }
            true
        }

        fn add_periodic(&mut self, u: NodeId, v: NodeId, first: TimeUnit, period: TimeUnit) {
            for t in (first..self.horizon).step_by(period as usize) {
                self.add_contact(u, v, t);
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn partner_rows_match_edge_index_rows(
            n in 2usize..9,
            ops in proptest::collection::vec((0usize..7, 0usize..64, 0usize..64, 0u32..40), 1..160),
        ) {
            const HORIZON: TimeUnit = 24;
            let mut eg = TimeEvolvingGraph::new(n, HORIZON);
            let mut reference = ReferenceEg::new(n, HORIZON);
            for (step, &(kind, a, b, x)) in ops.iter().enumerate() {
                // Two distinct in-range endpoints, in either orientation.
                let (u, v) = (a % n, (a % n + 1 + b % (n - 1)) % n);
                let t = x % HORIZON;
                if kind < 6 {
                    prop_assert_eq!(eg.add_contact(u, v, t), reference.add_contact(u, v, t));
                } else {
                    eg.add_periodic(u, v, t, 1 + x % 7);
                    reference.add_periodic(u, v, t, 1 + x % 7);
                }
                prop_assert_eq!(eg.edges(), &reference.edges[..], "step {}", step);
                for w in 0..n {
                    let row: Vec<_> = eg.neighbors(w).collect();
                    prop_assert_eq!(row, reference.neighbors(w), "step {} row {}", step, w);
                    for z in 0..n {
                        prop_assert_eq!(eg.labels(w, z), reference.labels(w, z));
                    }
                }
            }
        }
    }

    #[test]
    fn add_and_query_contacts() {
        let mut eg = TimeEvolvingGraph::new(3, 10);
        assert!(eg.add_contact(0, 1, 5));
        assert!(!eg.add_contact(1, 0, 5), "duplicate contact");
        assert!(eg.add_contact(0, 1, 2));
        assert_eq!(eg.labels(0, 1), Some(&[2, 5][..]));
        assert_eq!(eg.labels(1, 2), None);
        assert_eq!(eg.edge_count(), 1);
        assert_eq!(eg.contact_count(), 2);
    }

    #[test]
    #[should_panic(expected = "outside horizon")]
    fn contact_beyond_horizon_panics() {
        let mut eg = TimeEvolvingGraph::new(2, 5);
        eg.add_contact(0, 1, 5);
    }

    #[test]
    fn periodic_contacts_fill_horizon() {
        let mut eg = TimeEvolvingGraph::new(2, 13);
        let added = eg.add_periodic(0, 1, 1, 3);
        assert_eq!(added, 4);
        assert_eq!(eg.labels(0, 1), Some(&[1, 4, 7, 10][..]));
        // The next label would pass the largest time unit: no wrap-around.
        let mut eg = TimeEvolvingGraph::new(2, TimeUnit::MAX);
        assert_eq!(eg.add_periodic(0, 1, TimeUnit::MAX - 1, 3), 1);
        assert_eq!(eg.labels(0, 1), Some(&[TimeUnit::MAX - 1][..]));
    }

    #[test]
    fn runs_split_labels_at_gaps() {
        let runs = |labels: Vec<TimeUnit>| -> Vec<(TimeUnit, TimeUnit)> {
            TemporalEdge { u: 0, v: 1, labels }.runs().collect()
        };
        assert!(runs(vec![]).is_empty());
        assert_eq!(runs(vec![4]), [(4, 4)]);
        assert_eq!(runs(vec![1, 3, 5]), [(1, 1), (3, 3), (5, 5)]);
        assert_eq!(runs(vec![0, 1, 2, 6, 7, 9]), [(0, 2), (6, 7), (9, 9)]);
        // A run that ends at the horizon's last unit.
        let mut eg = TimeEvolvingGraph::new(2, 6);
        for t in [1, 3, 4, 5] {
            eg.add_contact(0, 1, t);
        }
        assert_eq!(eg.edges()[0].runs().collect::<Vec<_>>(), [(1, 1), (3, 5)]);
        let last = TimeUnit::MAX - 1;
        assert_eq!(runs(vec![last - 1, last]), [(last - 1, last)]);
    }

    #[test]
    fn snapshot_and_footprint() {
        let mut eg = TimeEvolvingGraph::new(3, 10);
        eg.add_contact(0, 1, 1);
        eg.add_contact(1, 2, 1);
        eg.add_contact(0, 2, 4);
        let g1 = eg.snapshot(1);
        assert_eq!(g1.edge_count(), 2);
        assert!(!g1.has_edge(0, 2));
        let g4 = eg.snapshot(4);
        assert_eq!(g4.edge_count(), 1);
        // The footprint: every pair with a label is one temporal edge.
        assert_eq!(eg.edge_count(), 3);
        let e = TemporalEdge { u: 0, v: 1, labels: vec![2, 5, 9] };
        assert!(e.has_label(5));
        assert!(!e.has_label(4));
    }

    #[test]
    fn contacts_are_sorted_and_canonical() {
        let mut eg = TimeEvolvingGraph::new(3, 10);
        eg.add_contact(2, 1, 5);
        eg.add_contact(0, 1, 1);
        let cs = eg.contacts();
        assert_eq!(cs, vec![Contact { u: 0, v: 1, t: 1 }, Contact { u: 1, v: 2, t: 5 }]);
    }
}

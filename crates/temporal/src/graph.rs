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
    /// Smallest label `>= t`, if any (the next usable contact).
    pub fn next_label(&self, t: TimeUnit) -> Option<TimeUnit> {
        let i = self.labels.partition_point(|&l| l < t);
        self.labels.get(i).copied()
    }

    /// Largest label `<= t`, if any.
    pub fn prev_label(&self, t: TimeUnit) -> Option<TimeUnit> {
        let i = self.labels.partition_point(|&l| l <= t);
        i.checked_sub(1).map(|i| self.labels[i])
    }

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
/// Edges live in one `Vec` of [`TemporalEdge`] in creation order (a
/// removal moves the last edge into the gap), each oriented as its first
/// contact named it. Node `u`'s row lists its incident edges as
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
    adj: Vec<Vec<(u32, u32)>>,
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

    /// Builds an `EG` from a list of contacts. The horizon is
    /// `1 + max label` unless a larger `min_horizon` is given.
    ///
    /// # Panics
    ///
    /// Panics as [`TimeEvolvingGraph::new`] and
    /// [`TimeEvolvingGraph::add_contact`] do.
    pub fn from_contacts(n: usize, contacts: &[Contact], min_horizon: TimeUnit) -> Self {
        let horizon = contacts.iter().map(|c| c.t + 1).max().unwrap_or(0).max(min_horizon);
        let mut eg = TimeEvolvingGraph::new(n, horizon);
        for &Contact { u, v, t } in contacts {
            eg.add_contact(u, v, t);
        }
        eg
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
        let mut t = first;
        while t < self.horizon {
            if self.add_contact(u, v, t) {
                added += 1;
            }
            t += period;
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

    /// The footprint (union) graph: an edge exists iff it has any label.
    pub fn footprint(&self) -> Graph {
        let mut g = Graph::new(self.n);
        for e in &self.edges {
            if !e.labels.is_empty() {
                g.add_edge(e.u, e.v);
            }
        }
        g
    }

    /// Removes a single label `t` from edge `(u, v)`; drops the edge if its
    /// label set becomes empty. Returns whether the label existed.
    pub fn remove_label(&mut self, u: NodeId, v: NodeId, t: TimeUnit) -> bool {
        let Some(ei) = self.edge_index(u, v) else { return false };
        let labels = &mut self.edges[ei].labels;
        match labels.binary_search(&t) {
            Ok(pos) => {
                labels.remove(pos);
                if labels.is_empty() {
                    self.remove_edge_by_index(ei);
                }
                true
            }
            Err(_) => false,
        }
    }

    /// Removes the whole temporal edge `(u, v)`. Returns whether it existed.
    pub fn remove_edge(&mut self, u: NodeId, v: NodeId) -> bool {
        match self.edge_index(u, v) {
            Some(ei) => {
                self.remove_edge_by_index(ei);
                true
            }
            None => false,
        }
    }

    /// Removes all edges incident to `u` (trimming a node; the node id stays
    /// valid but becomes isolated). Returns the number of edges removed: 0
    /// if `u` is outside the EG.
    pub fn isolate_node(&mut self, u: NodeId) -> usize {
        // Take ownership of the incident list — adj[u] ends up empty, which
        // is exactly the post-state — instead of cloning it.
        let Some(row) = self.adj.get_mut(u) else { return 0 };
        let mut incident = std::mem::take(row);
        // Remove from highest index first so swap_remove re-indexing is safe.
        incident.sort_unstable_by_key(|&(_, ei)| std::cmp::Reverse(ei));
        let count = incident.len();
        for (other, ei) in incident {
            let ei = ei as usize;
            self.edges.swap_remove(ei);
            // adj[u] is already empty; unlink only the other endpoint.
            self.unlink(other as usize, ei);
            if ei < self.edges.len() {
                // Descending order guarantees the edge moved down from the
                // old tail is not incident to u (all higher-indexed incident
                // edges are already gone, and swap_remove only moves edges
                // toward lower indices), so both relinks find live entries.
                let moved_from = self.edges.len();
                let (mu, mv) = (self.edges[ei].u, self.edges[ei].v);
                self.relink(mu, moved_from, ei);
                self.relink(mv, moved_from, ei);
            }
        }
        count
    }

    /// An incremental [`SnapshotCursor`](crate::snapshot::SnapshotCursor)
    /// over this `EG`'s snapshots, positioned at `t = 0`. Sweeping the
    /// horizon through the cursor applies `O(Δ_t)` edge mutations per step
    /// instead of rebuilding every snapshot.
    pub fn snapshot_cursor(&self) -> crate::snapshot::SnapshotCursor {
        crate::snapshot::SnapshotCursor::new(self)
    }

    fn remove_edge_by_index(&mut self, ei: usize) {
        let e = self.edges.swap_remove(ei);
        self.unlink(e.u, ei);
        self.unlink(e.v, ei);
        // The edge formerly at the end now sits at `ei`; fix adjacency refs.
        if ei < self.edges.len() {
            let moved_from = self.edges.len();
            let (mu, mv) = (self.edges[ei].u, self.edges[ei].v);
            self.relink(mu, moved_from, ei);
            self.relink(mv, moved_from, ei);
        }
    }

    fn unlink(&mut self, node: NodeId, ei: usize) {
        let pos = self.row_position(node, ei);
        self.adj[node].swap_remove(pos);
    }

    fn relink(&mut self, node: NodeId, from: usize, to: usize) {
        let pos = self.row_position(node, from);
        // Edge indices stay below the edge count, which fits u32.
        self.adj[node][pos].1 = to as u32;
    }

    /// Position in `node`'s row of the entry for edge `ei`.
    fn row_position(&self, node: NodeId, ei: usize) -> usize {
        self.adj[node].iter().position(|&(_, e)| e as usize == ei).expect("dangling edge index")
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

        fn remove_label(&mut self, u: NodeId, v: NodeId, t: TimeUnit) -> bool {
            let Some(ei) = self.edge_index(u, v) else { return false };
            let labels = &mut self.edges[ei].labels;
            let Ok(pos) = labels.binary_search(&t) else { return false };
            labels.remove(pos);
            if labels.is_empty() {
                self.remove_edge_by_index(ei);
            }
            true
        }

        fn remove_edge(&mut self, u: NodeId, v: NodeId) -> bool {
            let Some(ei) = self.edge_index(u, v) else { return false };
            self.remove_edge_by_index(ei);
            true
        }

        fn isolate_node(&mut self, u: NodeId) -> usize {
            let mut incident = std::mem::take(&mut self.adj[u]);
            incident.sort_unstable_by(|a, b| b.cmp(a));
            let count = incident.len();
            for ei in incident {
                let e = self.edges.swap_remove(ei);
                self.unlink(if e.u == u { e.v } else { e.u }, ei);
                self.relink_moved(ei);
            }
            count
        }

        fn remove_edge_by_index(&mut self, ei: usize) {
            let e = self.edges.swap_remove(ei);
            self.unlink(e.u, ei);
            self.unlink(e.v, ei);
            self.relink_moved(ei);
        }

        fn unlink(&mut self, node: NodeId, ei: usize) {
            let pos = self.adj[node].iter().position(|&x| x == ei).expect("dangling");
            self.adj[node].swap_remove(pos);
        }

        /// Points the rows of the edge `swap_remove` moved into `ei` at it.
        fn relink_moved(&mut self, ei: usize) {
            if ei < self.edges.len() {
                let from = self.edges.len();
                for node in [self.edges[ei].u, self.edges[ei].v] {
                    let pos = self.adj[node].iter().position(|&x| x == from).expect("dangling");
                    self.adj[node][pos] = ei;
                }
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn partner_rows_match_edge_index_rows(
            n in 2usize..9,
            ops in proptest::collection::vec((0usize..12, 0usize..64, 0usize..64, 0u32..40), 1..160),
        ) {
            const HORIZON: TimeUnit = 24;
            let mut eg = TimeEvolvingGraph::new(n, HORIZON);
            let mut reference = ReferenceEg::new(n, HORIZON);
            for (step, &(kind, a, b, x)) in ops.iter().enumerate() {
                // Two distinct in-range endpoints, in either orientation.
                let (u, v) = (a % n, (a % n + 1 + b % (n - 1)) % n);
                let t = x % HORIZON;
                match kind {
                    0..=5 => prop_assert_eq!(eg.add_contact(u, v, t), reference.add_contact(u, v, t)),
                    6 => {
                        eg.add_periodic(u, v, t, 1 + x % 7);
                        reference.add_periodic(u, v, t, 1 + x % 7);
                    }
                    7 | 8 => prop_assert_eq!(eg.remove_label(u, v, t), reference.remove_label(u, v, t)),
                    9 | 10 => prop_assert_eq!(eg.remove_edge(u, v), reference.remove_edge(u, v)),
                    _ => prop_assert_eq!(eg.isolate_node(u), reference.isolate_node(u)),
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
    }

    #[test]
    fn next_and_prev_label() {
        let e = TemporalEdge { u: 0, v: 1, labels: vec![2, 5, 9] };
        assert_eq!(e.next_label(0), Some(2));
        assert_eq!(e.next_label(2), Some(2));
        assert_eq!(e.next_label(3), Some(5));
        assert_eq!(e.next_label(10), None);
        assert_eq!(e.prev_label(1), None);
        assert_eq!(e.prev_label(5), Some(5));
        assert_eq!(e.prev_label(100), Some(9));
        assert!(e.has_label(5));
        assert!(!e.has_label(4));
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
        assert_eq!(eg.footprint().edge_count(), 3);
    }

    #[test]
    fn remove_label_and_edge() {
        let mut eg = TimeEvolvingGraph::new(3, 10);
        eg.add_contact(0, 1, 1);
        eg.add_contact(0, 1, 3);
        eg.add_contact(1, 2, 2);
        assert!(eg.remove_label(0, 1, 1));
        assert!(!eg.remove_label(0, 1, 1));
        assert_eq!(eg.labels(0, 1), Some(&[3][..]));
        assert!(eg.remove_label(0, 1, 3), "last label drops the edge");
        assert_eq!(eg.labels(0, 1), None);
        assert_eq!(eg.edge_count(), 1);
        assert!(eg.remove_edge(1, 2));
        assert_eq!(eg.edge_count(), 0);
    }

    #[test]
    fn isolate_node_removes_incident_edges() {
        let mut eg = TimeEvolvingGraph::new(4, 10);
        eg.add_contact(0, 1, 1);
        eg.add_contact(0, 2, 2);
        eg.add_contact(0, 3, 3);
        eg.add_contact(1, 2, 4);
        assert_eq!(eg.isolate_node(0), 3);
        assert_eq!(eg.edge_count(), 1);
        assert_eq!(eg.labels(1, 2), Some(&[4][..]));
        assert_eq!(eg.neighbors(0).count(), 0);
    }

    #[test]
    fn isolate_hub_of_dense_star_keeps_rim_intact() {
        // Hub 0 touches every rim node; rim nodes also form a cycle, so the
        // removal loop interleaves hub edges with survivors at every index.
        let k = 12;
        let mut eg = TimeEvolvingGraph::new(k + 1, 50);
        for i in 1..=k {
            eg.add_contact(0, i, i as TimeUnit);
            eg.add_contact(i, i % k + 1, (i + k) as TimeUnit);
        }
        assert_eq!(eg.isolate_node(0), k);
        assert_eq!(eg.edge_count(), k);
        assert_eq!(eg.neighbors(0).count(), 0);
        for i in 1..=k {
            assert_eq!(eg.labels(i, i % k + 1), Some(&[(i + k) as TimeUnit][..]), "rim edge {i}");
            assert_eq!(eg.labels(0, i), None);
        }
        // Survivor adjacency must still be fully consistent for mutation.
        assert!(eg.remove_edge(1, 2));
        assert_eq!(eg.edge_count(), k - 1);
    }

    #[test]
    fn swap_remove_reindexing_is_consistent() {
        // Build several edges, delete in the middle, and check integrity.
        let mut eg = TimeEvolvingGraph::new(5, 10);
        eg.add_contact(0, 1, 1);
        eg.add_contact(1, 2, 2);
        eg.add_contact(2, 3, 3);
        eg.add_contact(3, 4, 4);
        eg.add_contact(0, 4, 5);
        assert!(eg.remove_edge(1, 2));
        // All remaining labels still reachable through adjacency.
        assert_eq!(eg.labels(0, 1), Some(&[1][..]));
        assert_eq!(eg.labels(2, 3), Some(&[3][..]));
        assert_eq!(eg.labels(3, 4), Some(&[4][..]));
        assert_eq!(eg.labels(0, 4), Some(&[5][..]));
        let n1: Vec<_> = eg.neighbors(1).map(|(v, _)| v).collect();
        assert_eq!(n1, vec![0]);
    }

    #[test]
    fn contacts_are_sorted_and_canonical() {
        let mut eg = TimeEvolvingGraph::new(3, 10);
        eg.add_contact(2, 1, 5);
        eg.add_contact(0, 1, 1);
        let cs = eg.contacts();
        assert_eq!(cs, vec![Contact { u: 0, v: 1, t: 1 }, Contact { u: 1, v: 2, t: 5 }]);
    }

    #[test]
    fn from_contacts_infers_horizon() {
        let cs = [Contact { u: 0, v: 1, t: 7 }];
        let eg = TimeEvolvingGraph::from_contacts(3, &cs, 0);
        assert_eq!(eg.horizon(), 8);
        let eg2 = TimeEvolvingGraph::from_contacts(3, &cs, 20);
        assert_eq!(eg2.horizon(), 20);
    }
}

//! Embedded layering: scale-free (SF) and nested scale-free (NSF)
//! hierarchies (§III-B, Fig. 3, Fig. 7).
//!
//! "SF hierarchy is defined by ranking levels based on node degrees. Let
//! `G'` denote the set of subgraphs generated by iteratively removing the
//! local lowest-degree nodes and their connections in a network `G`. `G`
//! satisfies NSF if (1) `G` and all subgraphs in `G'` satisfy SF, and
//! (2) the standard deviation of power-law exponents in `G` and all
//! subgraphs in `G'` is `o(1)`."
//!
//! Level labeling follows §IV-A: "an adjusted node degree is defined as the
//! number of unassigned neighbors. In the first round, nodes that are local
//! minimum in terms of the adjusted node degree are assigned to level 1…
//! We repeat the above process… until all nodes are assigned."
//!
//! # Performance
//!
//! [`nsf_levels`] walks every node once per peel round — `O(rounds · n)` —
//! which a temporal sweep pays again at every snapshot. Under churn, use
//! [`IncrementalNsf`]: because a node's peel round depends only on its own
//! connected component (local-minimum tests never cross components, and the
//! global round counter advances in lockstep everywhere), an edge delta can
//! only change levels inside the components — *of the post-step snapshot*
//! — that contain a changed endpoint. `IncrementalNsf` finds that dirty
//! region by BFS from the changed endpoints over the snapshot its sweep
//! hands it and re-peels only that region, leaving every other component's
//! levels untouched. On fragmented graphs under sparse churn this touches a
//! small fraction of the nodes per step (the counter behind
//! [`IncrementalNsf::touched_nodes`] is the verifiable evidence);
//! `nsf_levels` on the snapshot remains the oracle it is gated against,
//! bitwise, in `maintain_props`.

use csn_graph::powerlaw::{self, PowerLawFit};
use csn_graph::{Graph, GraphView, NodeId};
use csn_temporal::maintain::StructureMaintainer;
use std::collections::VecDeque;

/// Nodes that are local minima of the current (adjusted) degree among the
/// still-unassigned nodes: degree no larger than every unassigned neighbor's.
fn local_minima<G: GraphView>(degree: &[usize], unassigned: &[bool], g: &G) -> Vec<NodeId> {
    let mut out = Vec::new();
    for u in g.nodes() {
        if !unassigned[u] {
            continue;
        }
        let ok = g.neighbors(u).filter(|&v| unassigned[v]).all(|v| degree[u] <= degree[v]);
        if ok {
            out.push(u);
        }
    }
    out
}

/// The nested-degree level labeling of Fig. 7(b): iterated local-minimum
/// removal on the adjusted degree. Levels start at 1; higher = peeled later.
/// Generic over [`GraphView`]: freeze once, label from the CSR form.
pub fn nsf_levels<G: GraphView>(g: &G) -> Vec<usize> {
    let n = g.node_count();
    let mut unassigned = vec![true; n];
    let mut level = vec![0usize; n];
    let mut degree: Vec<usize> = g.degrees();
    let mut current = 1usize;
    let mut remaining = n;
    while remaining > 0 {
        let minima = local_minima(&degree, &unassigned, g);
        debug_assert!(!minima.is_empty(), "global minimum is always local");
        for &u in &minima {
            unassigned[u] = false;
            level[u] = current;
            remaining -= 1;
        }
        // Adjusted degree: number of unassigned neighbors.
        for &u in &minima {
            for v in g.neighbors(u) {
                if unassigned[v] {
                    degree[v] -= 1;
                }
            }
        }
        current += 1;
    }
    level
}

/// The plain degree labeling of Fig. 7(a): a node's level is the rank of its
/// degree among the distinct degree values (lowest degree = level 1).
pub fn degree_levels<G: GraphView>(g: &G) -> Vec<usize> {
    let degrees = g.degrees();
    let mut distinct: Vec<usize> = degrees.clone();
    distinct.sort_unstable();
    distinct.dedup();
    degrees.iter().map(|d| 1 + distinct.binary_search(d).expect("value present")).collect()
}

/// Number of nodes at the highest level (the paper aims for one top node;
/// NSF may leave several, assumed joined by an external server).
pub fn top_level_count(levels: &[usize]) -> usize {
    let top = levels.iter().copied().max().unwrap_or(0);
    levels.iter().filter(|&&l| l == top).count()
}

/// The peeling sequence `G ⊃ G₁ ⊃ G₂ ⊃ …`: after each round of local
/// lowest-degree removal, the surviving induced subgraph. Stops when fewer
/// than `min_nodes` nodes survive or nothing was removed.
pub fn peel_sequence(g: &Graph, min_nodes: usize) -> Vec<Graph> {
    let mut out = Vec::new();
    let mut cur = g.clone();
    loop {
        let degree = cur.degrees();
        let all_unassigned = vec![true; cur.node_count()];
        let minima = local_minima(&degree, &all_unassigned, &cur);
        if minima.is_empty() || minima.len() == cur.node_count() {
            break;
        }
        let mut keep = vec![true; cur.node_count()];
        for &u in &minima {
            keep[u] = false;
        }
        let (next, _) = cur.induced_subgraph(&keep);
        if next.node_count() < min_nodes {
            break;
        }
        out.push(next.clone());
        cur = next;
    }
    out
}

/// Keep-mask for the "top fraction" of peers à la Fig. 3(b): peel local
/// lowest-degree rounds until at most `fraction` of the nodes remain,
/// mapped back to the original node ids.
pub fn top_fraction_mask(g: &Graph, fraction: f64) -> Vec<bool> {
    let n = g.node_count();
    let target = ((n as f64) * fraction).round() as usize;
    let mut keep = vec![true; n];
    let mut alive = n;
    loop {
        let (sub, _) = g.induced_subgraph(&keep);
        // Map sub indices back to original ids.
        let originals: Vec<NodeId> = (0..n).filter(|&u| keep[u]).collect();
        let degree = sub.degrees();
        let all = vec![true; sub.node_count()];
        let minima = local_minima(&degree, &all, &sub);
        if minima.is_empty() || minima.len() == sub.node_count() || alive <= target {
            break;
        }
        // Remove minima, but stop early if we would undershoot badly.
        for &m in &minima {
            if alive <= target {
                break;
            }
            keep[originals[m]] = false;
            alive -= 1;
        }
    }
    keep
}

/// Incrementally maintained NSF labeling: [`nsf_levels`] kept up to date
/// under edge churn by a `TrackedCursor` sweep, which owns the graph and
/// hands each step's snapshot and delta to the [`StructureMaintainer`]
/// impl. See the [module docs](self#performance) for the dirty-region
/// argument.
///
/// # Examples
///
/// ```
/// use csn_layering::nsf::{nsf_levels, IncrementalNsf};
/// use csn_temporal::{TimeEvolvingGraph, TrackedCursor};
///
/// // A path 0-1-2-3 whose middle contact drops out at t = 1.
/// let mut eg = TimeEvolvingGraph::new(4, 3);
/// eg.add_periodic(0, 1, 0, 1);
/// eg.add_contact(1, 2, 0);
/// eg.add_periodic(2, 3, 0, 1);
/// let mut cur = TrackedCursor::new(&eg);
/// let h = cur.register(Box::new(IncrementalNsf::default()));
/// assert_eq!(cur.view::<IncrementalNsf>(h).unwrap().nsf_levels(), &[1, 2, 2, 1]);
/// cur.advance();
/// let inc: &IncrementalNsf = cur.view(h).expect("registered");
/// assert_eq!(inc.nsf_levels(), &[1, 1, 1, 1]);
/// assert_eq!(inc.nsf_levels(), nsf_levels(cur.graph()).as_slice());
/// ```
#[derive(Debug, Clone, Default)]
pub struct IncrementalNsf {
    level: Vec<usize>,
    /// `level_counts[l - 1]`: nodes currently at level `l` (the peel
    /// frontier sizes), trailing zeros trimmed.
    level_counts: Vec<usize>,
    touched: u64,
    /// Epoch-stamped node marks: `epoch + 1` = in the dirty set (still
    /// unassigned), `epoch + 2` = re-assigned during the current re-peel.
    mark: Vec<u32>,
    epoch: u32,
    /// Adjusted degrees during the dirty-region re-peel.
    adeg: Vec<usize>,
}

impl IncrementalNsf {
    /// Seeds the maintained state from a full [`nsf_levels`] run on `g`.
    pub fn new(g: &Graph) -> Self {
        let level = nsf_levels(g);
        let n = g.node_count();
        let mut level_counts = vec![0usize; level.iter().copied().max().unwrap_or(0)];
        for &l in &level {
            level_counts[l - 1] += 1;
        }
        IncrementalNsf {
            level,
            level_counts,
            touched: 0,
            mark: vec![0; n],
            epoch: 0,
            adeg: vec![0; n],
        }
    }

    /// The maintained NSF levels — equal to `nsf_levels` of the latest
    /// snapshot.
    pub fn nsf_levels(&self) -> &[usize] {
        &self.level
    }

    /// Nodes per level (the peel frontier sizes): `level_histogram()[l - 1]`
    /// nodes sit at level `l`. Length equals the current top level.
    pub fn level_histogram(&self) -> &[usize] {
        &self.level_counts
    }

    /// The current top (last-peeled) level; `0` on the empty graph.
    pub fn top_level(&self) -> usize {
        self.level_counts.len()
    }

    /// Number of nodes at the top level — equal to
    /// [`top_level_count`]`(self.nsf_levels())`.
    pub fn top_level_count(&self) -> usize {
        self.level_counts.last().copied().unwrap_or(0)
    }

    /// Nodes examined by incremental repair since the last re-seed
    /// (dirty-set discovery plus one count per node per re-peel round).
    pub fn touched_nodes(&self) -> u64 {
        self.touched
    }

    /// Re-peels exactly the components of `g` containing a seed node; every
    /// other component's levels are provably unchanged.
    fn repeel(&mut self, g: &Graph, seeds: impl Iterator<Item = NodeId>) {
        self.epoch += 2;
        let e_dirty = self.epoch - 1;
        let e_done = self.epoch;

        // Dirty-set discovery: BFS from the changed endpoints.
        let mut dirty: Vec<NodeId> = Vec::new();
        let mut queue: VecDeque<NodeId> = VecDeque::new();
        for s in seeds {
            if self.mark[s] != e_dirty {
                self.mark[s] = e_dirty;
                queue.push_back(s);
            }
        }
        while let Some(u) = queue.pop_front() {
            self.touched += 1;
            dirty.push(u);
            for &v in g.neighbors(u) {
                if self.mark[v] != e_dirty {
                    self.mark[v] = e_dirty;
                    queue.push_back(v);
                }
            }
        }

        // Retract the dirty nodes' old levels from the frontier histogram.
        for &u in &dirty {
            self.level_counts[self.level[u] - 1] -= 1;
            self.adeg[u] = g.neighbors(u).len();
        }

        // Peel the dirty region. Because components are closed under
        // adjacency, every neighbor of a dirty node is dirty, so the
        // restricted peel sees exactly what a global one would.
        let mut remaining = dirty;
        let mut minima: Vec<NodeId> = Vec::new();
        let mut current = 1usize;
        while !remaining.is_empty() {
            minima.clear();
            for &u in &remaining {
                self.touched += 1;
                let au = self.adeg[u];
                if g.neighbors(u).iter().all(|&v| self.mark[v] != e_dirty || au <= self.adeg[v]) {
                    minima.push(u);
                }
            }
            debug_assert!(!minima.is_empty(), "global minimum is always local");
            if current > self.level_counts.len() {
                self.level_counts.resize(current, 0);
            }
            for &u in &minima {
                self.mark[u] = e_done;
                self.level[u] = current;
                self.level_counts[current - 1] += 1;
            }
            for &u in &minima {
                for &v in g.neighbors(u) {
                    if self.mark[v] == e_dirty {
                        self.adeg[v] -= 1;
                    }
                }
            }
            remaining.retain(|&u| self.mark[u] == e_dirty);
            current += 1;
        }
        while self.level_counts.last() == Some(&0) {
            self.level_counts.pop();
        }
    }
}

impl StructureMaintainer for IncrementalNsf {
    fn name(&self) -> &'static str {
        "nsf"
    }

    fn reseed(&mut self, g: &Graph) {
        *self = IncrementalNsf::new(g);
    }

    /// Re-peels the components of `g` that contain an endpoint of a
    /// changed edge.
    fn apply(&mut self, g: &Graph, removed: &[(NodeId, NodeId)], added: &[(NodeId, NodeId)]) {
        if !(removed.is_empty() && added.is_empty()) {
            self.repeel(g, removed.iter().chain(added).flat_map(|&(u, v)| [u, v]));
        }
    }

    fn touched_nodes(&self) -> u64 {
        self.touched
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
}

/// Scale-free / nested-scale-free analysis report.
#[derive(Debug, Clone, PartialEq)]
pub struct NsfReport {
    /// Power-law fit of `G` followed by each peeled subgraph in `G'`.
    pub fits: Vec<PowerLawFit>,
    /// Exponents extracted from `fits`.
    pub exponents: Vec<f64>,
    /// Standard deviation of the exponents (condition (2) of NSF).
    pub exponent_std_dev: f64,
    /// Largest KS distance among the fits (condition (1): each level SF).
    pub worst_ks: f64,
}

impl NsfReport {
    /// A pragmatic NSF verdict: every level fits a power law reasonably
    /// (KS below `ks_threshold`) and exponents barely move.
    pub fn is_nsf(&self, ks_threshold: f64, std_dev_threshold: f64) -> bool {
        !self.fits.is_empty()
            && self.worst_ks <= ks_threshold
            && self.exponent_std_dev <= std_dev_threshold
    }
}

/// Fits power laws to `G` and its peeling sequence (subgraphs kept while at
/// least `min_nodes` nodes and `min_tail` tail samples survive).
pub fn nsf_report(g: &Graph, min_nodes: usize, min_tail: usize) -> NsfReport {
    let mut graphs = vec![g.clone()];
    graphs.extend(peel_sequence(g, min_nodes));
    let mut fits = Vec::new();
    for sub in &graphs {
        let degrees: Vec<usize> = sub.degrees().into_iter().filter(|&d| d > 0).collect();
        if let Some(fit) = powerlaw::fit(&degrees, min_tail) {
            fits.push(fit);
        }
    }
    let exponents: Vec<f64> = fits.iter().map(|f| f.alpha).collect();
    let exponent_std_dev = powerlaw::std_dev(&exponents);
    let worst_ks = fits.iter().map(|f| f.ks).fold(0.0, f64::max);
    NsfReport { fits, exponents, exponent_std_dev, worst_ks }
}

#[cfg(test)]
mod tests {
    use super::*;
    use csn_graph::generators;
    use csn_temporal::{TimeEvolvingGraph, TrackedCursor};

    /// The paper's Fig. 7 six-node example: a hub with a two-level tail.
    /// Node 0 is the hub (degree 4); 1, 2, 3 leaves; 4 bridges to 5.
    fn fig7_like() -> Graph {
        Graph::from_edges(6, &[(0, 1), (0, 2), (0, 3), (0, 4), (4, 5)]).unwrap()
    }

    #[test]
    fn nsf_levels_of_fig7_like() {
        let g = fig7_like();
        let levels = nsf_levels(&g);
        // Round 1: leaves 1, 2, 3, 5 (degree 1). Round 2: hub 0 and bridge 4
        // tie at adjusted degree 1 (mutual local minima) and peel together —
        // the "multiple top-level nodes" situation the paper's external
        // server handles.
        assert_eq!(levels[1], 1);
        assert_eq!(levels[2], 1);
        assert_eq!(levels[3], 1);
        assert_eq!(levels[5], 1);
        assert_eq!(levels[4], 2);
        assert_eq!(levels[0], 2);
        assert_eq!(top_level_count(&levels), 2);
    }

    #[test]
    fn degree_vs_nested_degree_labeling_differ() {
        // Fig. 7's point: plain degree ranking and nested ranking disagree.
        let g = fig7_like();
        let plain = degree_levels(&g);
        let nested = nsf_levels(&g);
        // Node 4 (degree 2) outranks none of the leaves under plain degree
        // ... rather: plain assigns 4 a middle level, but nested separates
        // hub and bridge into distinct top levels.
        assert_ne!(plain, nested);
        // Plain: hub degree 4 -> top; bridge degree 2 -> level 2; leaves 1.
        assert_eq!(plain[0], 3);
        assert_eq!(plain[4], 2);
        assert_eq!(plain[1], 1);
    }

    #[test]
    fn nsf_levels_cover_cycles() {
        // On a cycle everyone is a mutual local minimum: single level.
        let g = generators::cycle(6);
        let levels = nsf_levels(&g);
        assert!(levels.iter().all(|&l| l == 1));
        assert_eq!(top_level_count(&levels), 6);
    }

    #[test]
    fn peel_sequence_shrinks() {
        let g = generators::barabasi_albert(500, 3, 5).unwrap();
        let seq = peel_sequence(&g, 20);
        assert!(!seq.is_empty());
        let mut prev = g.node_count();
        for sub in &seq {
            assert!(sub.node_count() < prev);
            prev = sub.node_count();
        }
    }

    #[test]
    fn top_fraction_mask_hits_target() {
        let g = generators::barabasi_albert(1000, 3, 7).unwrap();
        let mask = top_fraction_mask(&g, 0.5);
        let kept = mask.iter().filter(|&&k| k).count();
        assert!((400..=600).contains(&kept), "expected about half the peers, kept {kept}");
        // Kept nodes should skew high-degree.
        let degrees = g.degrees();
        let kept_avg: f64 =
            (0..1000).filter(|&u| mask[u]).map(|u| degrees[u] as f64).sum::<f64>() / kept as f64;
        let all_avg: f64 = degrees.iter().map(|&d| d as f64).sum::<f64>() / 1000.0;
        assert!(kept_avg > all_avg, "{kept_avg} vs {all_avg}");
    }

    #[test]
    fn ba_graph_is_nsf_er_graph_is_not() {
        // The headline claim of Fig. 3: P2P (scale-free) topologies are NSF.
        let ba = generators::gnutella_like(4000, 3, 0.05, 11).unwrap();
        let report = nsf_report(&ba, 300, 50);
        assert!(report.fits.len() >= 2, "need G plus at least one peel");
        assert!(
            report.exponent_std_dev < 0.4,
            "exponents should be stable: {:?}",
            report.exponents
        );
        // An Erdős–Rényi graph of similar size/density is NOT scale-free:
        // its Poisson degree tail fits power laws badly.
        let er = generators::erdos_renyi(4000, 3.0 / 2000.0, 13).unwrap();
        let er_report = nsf_report(&er, 300, 50);
        assert!(
            er_report.worst_ks > report.worst_ks,
            "ER should fit worse: {} vs {}",
            er_report.worst_ks,
            report.worst_ks
        );
    }

    #[test]
    fn levels_identical_on_frozen_graph() {
        let g = generators::barabasi_albert(300, 3, 19).unwrap();
        let csr = g.freeze();
        assert_eq!(nsf_levels(&g), nsf_levels(&csr));
        assert_eq!(degree_levels(&g), degree_levels(&csr));
    }

    /// Sweeps an [`IncrementalNsf`] over `eg`, checking it against the
    /// oracle at every `t`; returns its touched-node count.
    fn assert_nsf_tracked(eg: &TimeEvolvingGraph) -> u64 {
        let mut cur = TrackedCursor::new(eg);
        let h = cur.register(Box::new(IncrementalNsf::default()));
        loop {
            let inc: &IncrementalNsf = cur.view(h).expect("registered");
            let (g, t) = (cur.graph(), cur.time());
            assert_eq!(inc.nsf_levels(), nsf_levels(g).as_slice(), "levels diverged at t={t}");
            assert_eq!(inc.top_level_count(), top_level_count(inc.nsf_levels()), "t={t}");
            assert_eq!(
                inc.level_histogram().len(),
                inc.nsf_levels().iter().copied().max().unwrap_or(0),
                "histogram must end at the top level (t={t})"
            );
            if !cur.advance() {
                return cur.touched_nodes();
            }
        }
    }

    #[test]
    fn incremental_nsf_handles_component_splits_and_merges() {
        // Path 0-1-2 plus a far component 3-4; the path splits at t = 1 (2
        // isolated) and joins the far component at t = 2. Re-peeling must
        // leave the untouched component's levels alone.
        let mut eg = TimeEvolvingGraph::new(5, 3);
        eg.add_periodic(0, 1, 0, 1);
        eg.add_contact(1, 2, 0);
        eg.add_periodic(3, 4, 0, 1);
        eg.add_contact(2, 3, 2);
        let touched = assert_nsf_tracked(&eg);
        // t = 1 finds {0, 1, 2} and peels it in one round; t = 2 finds
        // {2, 3, 4} and peels it in two rounds (3 + 1 nodes). Neither step
        // visits the component it did not change.
        assert_eq!(touched, (3 + 3) + (3 + 3 + 1));
    }

    #[test]
    fn incremental_nsf_noops_do_not_touch() {
        // Fig. 7's edges are always on, so no step changes the graph.
        let g = fig7_like();
        let mut eg = TimeEvolvingGraph::new(g.node_count(), 4);
        for (u, v) in g.edges() {
            eg.add_periodic(u, v, 0, 1);
        }
        assert_eq!(assert_nsf_tracked(&eg), 0);
    }

    #[test]
    fn touched_nodes_stay_below_rebuild_cost_on_sparse_churn() {
        // Sparse, fragmented trace: re-peeling only the affected components
        // should examine far fewer nodes than `horizon * n` (what per-t
        // rebuilds must walk at least once).
        use csn_temporal::markovian::EdgeMarkovian;
        let eg = EdgeMarkovian::new(60, 0.3, 0.002).generate(80, 5);
        let mut cur = TrackedCursor::new(&eg);
        cur.register(Box::new(IncrementalNsf::default()));
        while cur.advance() {}
        let rebuild_touches = u64::from(eg.horizon()) * eg.node_count() as u64;
        assert!(
            cur.touched_nodes() < rebuild_touches,
            "incremental touched {} >= rebuild bound {rebuild_touches}",
            cur.touched_nodes()
        );
    }

    #[test]
    fn incremental_nsf_random_churn_matches_oracle() {
        // One random edge toggle per step on top of an ER graph.
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(41);
        let (n, horizon) = (40, 300);
        let mut g = generators::erdos_renyi(n, 0.06, 8).unwrap();
        let mut eg = TimeEvolvingGraph::new(n, horizon);
        for t in 0..horizon {
            let u = rng.gen_range(0..n);
            let v = rng.gen_range(0..n);
            if t > 0 && u != v {
                if rng.gen::<f64>() < 0.5 {
                    g.add_edge(u, v);
                } else {
                    g.remove_edge(u, v);
                }
            }
            for (u, v) in g.edges() {
                eg.add_contact(u, v, t);
            }
        }
        assert!(assert_nsf_tracked(&eg) > 0);
    }

    #[test]
    fn empty_and_tiny_graphs() {
        assert!(nsf_levels(&Graph::new(0)).is_empty());
        let levels = nsf_levels(&Graph::new(3));
        assert_eq!(levels, vec![1, 1, 1], "isolated nodes all level 1");
        let report = nsf_report(&Graph::new(5), 2, 2);
        assert!(report.fits.is_empty());
        assert!(!report.is_nsf(0.1, 0.1));
    }
}

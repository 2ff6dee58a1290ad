//! k-core decomposition.
//!
//! The NSF layering in §III-B peels "local lowest-degree" nodes iteratively;
//! the classical global analogue is the k-core (iteratively delete nodes of
//! degree `< k`). We provide the standard `O(n + m)` bucket algorithm, used
//! both as a baseline hierarchy in the layering experiments and as a utility
//! for trimming. Generic over [`GraphView`], so it runs on frozen CSR graphs
//! as well as adjacency lists.
//!
//! # Performance
//!
//! [`core_numbers`] is a from-scratch `O(n + m)` pass, and it is also how
//! the dynamic twin [`IncrementalCores`] stays current: after every step
//! of a tracked sweep that changed the graph it runs [`core_numbers`] once
//! on the sweep's snapshot, so a step costs `O(n + m)` however many edges
//! changed. Per-edge repair (the
//! subcore/purecore insert and demotion-cascade delete of Sarıyüce et al.'s
//! streaming k-core algorithms) was measured against this and lost: every
//! inserted edge walks the whole same-core region of its cheaper endpoint,
//! and on contact traces that region is most of the graph. Over 39 steps of
//! a 200-node edge-Markovian trace (mean degree 8, edge death probability
//! 0.5) it visited 2,928,743 nodes, against 7,800 for one pass per step. On
//! a 2-vCPU Xeon its sweeps ran 55× slower than per-step rebuilds on a
//! 400-node city trace (churn ratio 0.64), 46× slower on a 1,000-node
//! edge-Markovian one (churn ratio 0.04) and 480× slower on a 2,000-node
//! one of mean degree 4; it won only on a 120-node fragmented trace, by
//! under 1 µs per step.
//! [`core_numbers`] is also the oracle the twin is gated against, bit for
//! bit, in unit tests, in `maintain_props`, and in `csn-bench`'s
//! `gates::scenario::epidemic_and_cursors_match` on a city trace.

use crate::graph::{Graph, NodeId};
use crate::view::GraphView;

/// Core number of each node: the largest `k` such that the node belongs to a
/// subgraph with minimum degree `k` (Batagelj–Zaveršnik bucket algorithm).
///
/// # Examples
///
/// ```
/// use csn_graph::{generators, cores::core_numbers};
///
/// // In a complete graph K5, every node has core number 4.
/// let g = generators::complete(5);
/// assert_eq!(core_numbers(&g), vec![4; 5]);
/// ```
pub fn core_numbers<G: GraphView>(g: &G) -> Vec<usize> {
    let n = g.node_count();
    if n == 0 {
        return Vec::new();
    }
    let mut degree = g.degrees();
    let max_deg = degree.iter().copied().max().unwrap_or(0);
    // bin[d] = starting index of degree-d nodes in `order`.
    let mut bin = vec![0usize; max_deg + 2];
    for &d in &degree {
        bin[d + 1] += 1;
    }
    for d in 1..bin.len() {
        bin[d] += bin[d - 1];
    }
    let mut pos = vec![0usize; n];
    let mut order = vec![0usize; n];
    {
        let mut next = bin.clone();
        for u in 0..n {
            pos[u] = next[degree[u]];
            order[pos[u]] = u;
            next[degree[u]] += 1;
        }
    }
    let mut core = vec![0usize; n];
    for i in 0..n {
        let u = order[i];
        core[u] = degree[u];
        for v in g.neighbors(u) {
            if degree[v] > degree[u] {
                // Move v one bucket down: swap it to the front of its bucket.
                let dv = degree[v];
                let pv = pos[v];
                let pw = bin[dv];
                let w: NodeId = order[pw];
                if v != w {
                    order[pv] = w;
                    order[pw] = v;
                    pos[v] = pw;
                    pos[w] = pv;
                }
                bin[dv] += 1;
                degree[v] -= 1;
            }
        }
    }
    core
}

/// The `k`-core subgraph as a keep-mask over nodes.
pub fn k_core_mask<G: GraphView>(g: &G, k: usize) -> Vec<bool> {
    core_numbers(g).into_iter().map(|c| c >= k).collect()
}

/// Core numbers kept current under edge churn: the dynamic twin of
/// [`core_numbers`], a state machine over snapshot steps instead of a
/// function over a frozen graph.
///
/// The engine holds only the current core numbers and its touch counter;
/// the graph belongs to the sweep that drives it, normally a
/// `csn_temporal::TrackedCursor` (`csn-temporal` holds the engine's
/// `StructureMaintainer` impl). After a step that changed the graph,
/// [`IncrementalCores::recompute`] brings every core number up to date
/// with one [`core_numbers`] pass. The [module docs](self#performance) give
/// the measurements that ruled out per-edge repair.
///
/// # Examples
///
/// ```
/// use csn_graph::{cores::{core_numbers, IncrementalCores}, generators};
///
/// let mut g = generators::path(4);
/// let mut inc = IncrementalCores::new(&g);
/// assert_eq!(inc.core_numbers(), &[1, 1, 1, 1]);
/// g.add_edge(0, 3); // close the cycle: everyone rises to core 2
/// inc.recompute(&g);
/// assert_eq!(inc.core_numbers(), &[2, 2, 2, 2]);
/// assert_eq!(inc.core_numbers(), core_numbers(&g).as_slice());
/// assert_eq!(inc.touched_nodes(), 4); // one pass over 4 nodes
/// ```
#[derive(Debug, Clone, Default)]
pub struct IncrementalCores {
    core: Vec<usize>,
    touched: u64,
}

impl IncrementalCores {
    /// Seeds the engine from a graph: one [`core_numbers`] oracle call.
    pub fn new(g: &Graph) -> Self {
        IncrementalCores { core: core_numbers(g), touched: 0 }
    }

    /// The maintained core number of every node — equal to
    /// `core_numbers(g)` on the last graph the engine was seeded from or
    /// recomputed on.
    pub fn core_numbers(&self) -> &[usize] {
        &self.core
    }

    /// Nodes examined since construction: `node_count` for every
    /// [`recompute`](Self::recompute), the nodes one [`core_numbers`] pass
    /// visits.
    pub fn touched_nodes(&self) -> u64 {
        self.touched
    }

    /// Recomputes the core numbers on `g`, the graph after a step that
    /// changed it, with one [`core_numbers`] pass.
    pub fn recompute(&mut self, g: &Graph) {
        self.core = core_numbers(g);
        self.touched += g.node_count() as u64;
    }
}

/// Degeneracy of the graph: the maximum core number.
pub fn degeneracy<G: GraphView>(g: &G) -> usize {
    core_numbers(g).into_iter().max().unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;
    use crate::graph::Graph;

    #[test]
    fn path_is_1_core() {
        let g = generators::path(6);
        assert_eq!(core_numbers(&g), vec![1; 6]);
        assert_eq!(degeneracy(&g), 1);
    }

    #[test]
    fn clique_with_pendant() {
        // K4 plus a pendant node attached to node 0.
        let mut g = generators::complete(4);
        let p = g.add_node();
        g.add_edge(0, p);
        let core = core_numbers(&g);
        assert_eq!(core[p], 1);
        for u in 0..4 {
            assert_eq!(core[u], 3);
        }
        let mask = k_core_mask(&g, 2);
        assert_eq!(mask, vec![true, true, true, true, false]);
    }

    #[test]
    fn star_core_numbers_all_one() {
        let g = generators::star(7);
        assert_eq!(core_numbers(&g), vec![1; 8]);
    }

    #[test]
    fn empty_and_isolated() {
        assert!(core_numbers(&Graph::new(0)).is_empty());
        assert_eq!(core_numbers(&Graph::new(3)), vec![0, 0, 0]);
    }

    #[test]
    fn core_is_subgraph_min_degree_invariant() {
        // Property: within the k-core subgraph, every node has degree >= k.
        let g = generators::erdos_renyi(200, 0.05, 5).unwrap();
        let core = core_numbers(&g);
        let k = degeneracy(&g);
        for kk in 1..=k {
            let keep: Vec<bool> = core.iter().map(|&c| c >= kk).collect();
            let (sub, _) = g.induced_subgraph(&keep);
            for u in sub.nodes() {
                assert!(sub.degree(u) >= kk, "k={kk}: node degree {}", sub.degree(u));
            }
        }
    }

    #[test]
    fn core_numbers_identical_on_frozen_graph() {
        let g = generators::erdos_renyi(120, 0.06, 11).unwrap();
        assert_eq!(core_numbers(&g), core_numbers(&g.freeze().unwrap()));
    }

    #[test]
    fn incremental_matches_oracle_while_building_a_clique() {
        let mut g = Graph::new(6);
        let mut inc = IncrementalCores::new(&g);
        for u in 0..6 {
            for v in (u + 1)..6 {
                g.add_edge(u, v);
                inc.recompute(&g);
                assert_eq!(inc.core_numbers(), core_numbers(&g).as_slice());
            }
        }
        assert_eq!(inc.core_numbers(), &[5; 6]);
        // And back down again.
        for u in 0..6 {
            for v in (u + 1)..6 {
                g.remove_edge(u, v);
                inc.recompute(&g);
                assert_eq!(inc.core_numbers(), core_numbers(&g).as_slice());
            }
        }
        assert_eq!(inc.core_numbers(), &[0; 6]);
        assert_eq!(inc.touched_nodes(), 2 * 15 * 6, "one pass per recompute");
    }

    #[test]
    fn incremental_random_churn_matches_oracle_at_every_step() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(23);
        let n = 30;
        let mut g = Graph::new(n);
        let mut inc = IncrementalCores::new(&g);
        for step in 0..600 {
            let mut changed = false;
            for _ in 0..rng.gen_range(1..4) {
                let u = rng.gen_range(0..n);
                let v = rng.gen_range(0..n);
                if u == v {
                    continue;
                }
                changed |=
                    if rng.gen::<f64>() < 0.65 { g.add_edge(u, v) } else { g.remove_edge(u, v) };
            }
            if changed {
                inc.recompute(&g);
            }
            assert_eq!(inc.core_numbers(), core_numbers(&g).as_slice(), "diverged at step {step}");
        }
        assert!(inc.touched_nodes() > 0);
    }
}

//! Property tests for the scratch-arena kernels: reusing one scratch across
//! repeated calls — and across *different* graphs — must be bit-identical
//! to the fresh-allocation paths. The source sweeps (exact and sampled
//! betweenness, closeness, all-pairs BFS), which reuse one scratch per
//! worker, must equal a reference built here from the per-source kernels,
//! bit for bit, at every worker count and on a `Graph` and its frozen form.

use csn_graph::shortest_path::ShortestPaths;
use csn_graph::{
    approx, centrality, generators, shortest_path, traversal, BfsScratch, BrandesScratch,
    DijkstraScratch, Graph, NodeId, WeightedGraph,
};
use proptest::prelude::*;

/// Strategy: a random simple graph as an edge list over `n` nodes.
fn arb_graph(max_n: usize) -> impl Strategy<Value = Graph> {
    (2..max_n).prop_flat_map(|n| {
        proptest::collection::vec((0..n, 0..n), 0..(n * 3)).prop_map(move |edges| {
            let mut g = Graph::new(n);
            for (u, v) in edges {
                if u != v && !g.has_edge(u, v) {
                    g.add_edge(u, v);
                }
            }
            g
        })
    })
}

/// Deterministic positive weights from the endpoints, so the weighted
/// strategy stays a thin shim over `arb_graph`.
fn weighted(g: &Graph) -> WeightedGraph {
    let mut wg = WeightedGraph::new(g.node_count());
    for (u, v) in g.edges() {
        wg.add_edge(u, v, 1.0 + ((u * 7 + v * 13) % 10) as f64);
    }
    wg
}

/// The worker counts every sweep is checked at.
fn jobs_grid() -> [usize; 5] {
    [1, 2, 4, 7, csn_parallel::available_parallelism()]
}

/// The fresh-alloc Brandes fold: one `brandes_delta` (and one scratch) per
/// source of `sources`, summed in that order.
fn brandes_fold(g: &Graph, sources: &[NodeId]) -> Vec<f64> {
    let mut sum = vec![0.0f64; g.node_count()];
    for &s in sources {
        for (b, d) in sum.iter_mut().zip(&centrality::brandes_delta(g, s)) {
            *b += d;
        }
    }
    sum
}

/// Any `jobs` value runs and answers what one worker does. No sweep runs
/// more workers than it has sources, and these graphs have at most 8 nodes,
/// so no call starts more than 8 threads.
#[test]
fn sweeps_run_at_any_jobs() {
    for g in [generators::path(6), generators::star(7), Graph::new(0)] {
        let n = g.node_count();
        let bc = centrality::betweenness_centrality(&g, 1);
        let sampled = approx::betweenness_sampled(&g, 3, 5, 1);
        let cc = centrality::closeness_centrality(&g, 1);
        let bfs = traversal::all_pairs_bfs(&g, 1);
        for jobs in [usize::MAX, usize::MAX / 4, 1 << 20, 0] {
            assert_eq!(centrality::betweenness_centrality(&g, jobs), bc, "n={n} jobs={jobs}");
            assert_eq!(approx::betweenness_sampled(&g, 3, 5, jobs), sampled, "n={n} jobs={jobs}");
            assert_eq!(centrality::closeness_centrality(&g, jobs), cc, "n={n} jobs={jobs}");
            assert_eq!(traversal::all_pairs_bfs(&g, jobs), bfs, "n={n} jobs={jobs}");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn brandes_scratch_reuse_is_bitwise_identical(pair in (arb_graph(32), arb_graph(20))) {
        let (g1, g2) = pair;
        // One scratch + one output buffer carried across every source of
        // both graphs, twice: stale epochs/sigma/delta must never leak.
        let mut sc = BrandesScratch::new();
        let mut buf = Vec::new();
        for _ in 0..2 {
            for g in [&g1, &g2] {
                for s in 0..g.node_count() {
                    centrality::brandes_delta_into(g, s, &mut sc, &mut buf);
                    prop_assert_eq!(&buf, &centrality::brandes_delta(g, s));
                }
            }
        }
    }

    #[test]
    fn bfs_and_closeness_scratch_reuse_identical(pair in (arb_graph(32), arb_graph(20))) {
        let (g1, g2) = pair;
        let mut sc = BfsScratch::new();
        let mut out = Vec::new();
        for g in [&g1, &g2, &g1] {
            for s in 0..g.node_count() {
                traversal::bfs_distances_into(g, s, &mut sc, &mut out);
                prop_assert_eq!(&out, &traversal::bfs_distances(g, s));
                let reused = centrality::closeness_one_into(g, s, &mut sc);
                prop_assert_eq!(reused.to_bits(), centrality::closeness_one(g, s).to_bits());
            }
        }
    }

    #[test]
    fn dijkstra_scratch_reuse_identical(pair in (arb_graph(24), arb_graph(16))) {
        let (w1, w2) = (weighted(&pair.0), weighted(&pair.1));
        let mut sc = DijkstraScratch::new();
        let mut sp = ShortestPaths { dist: Vec::new(), parent: Vec::new() };
        for g in [&w1, &w2, &w1] {
            for s in 0..g.node_count() {
                shortest_path::dijkstra_into(g, s, &mut sc, &mut sp);
                prop_assert_eq!(&sp, &shortest_path::dijkstra(g, s));
            }
        }
    }

    #[test]
    fn betweenness_is_the_per_source_fold_at_any_jobs(g in arb_graph(21)) {
        let n = g.node_count();
        let sources: Vec<NodeId> = (0..n).collect();
        let reference: Vec<f64> = brandes_fold(&g, &sources).iter().map(|b| b / 2.0).collect();
        let frozen = g.freeze().unwrap();
        for jobs in jobs_grid() {
            prop_assert_eq!(&centrality::betweenness_centrality(&g, jobs), &reference);
            prop_assert_eq!(&centrality::betweenness_centrality(&frozen, jobs), &reference);
        }
        // An independent oracle: path counting over every pair.
        for (v, (a, b)) in reference.iter().zip(&centrality::betweenness_naive(&g)).enumerate() {
            prop_assert!((a - b).abs() <= 1e-9, "node {}: Brandes {} vs naive {}", v, a, b);
        }
    }

    #[test]
    fn sampled_betweenness_is_the_sampled_fold_at_any_jobs(
        g in arb_graph(26),
        seed in 0u64..100,
    ) {
        let n = g.node_count();
        let frozen = g.freeze().unwrap();
        for k in [(n / 3).max(1), n] {
            let sources = approx::sample_sources(n, k, seed);
            let scale = n as f64 / sources.len() as f64;
            let reference: Vec<f64> =
                brandes_fold(&g, &sources).iter().map(|b| b * scale / 2.0).collect();
            for jobs in jobs_grid() {
                prop_assert_eq!(&approx::betweenness_sampled(&g, k, seed, jobs), &reference);
                prop_assert_eq!(&approx::betweenness_sampled(&frozen, k, seed, jobs), &reference);
            }
        }
    }

    #[test]
    fn closeness_is_the_per_node_kernel_at_any_jobs(g in arb_graph(26)) {
        let reference: Vec<f64> =
            (0..g.node_count()).map(|u| centrality::closeness_one(&g, u)).collect();
        let frozen = g.freeze().unwrap();
        for jobs in jobs_grid() {
            prop_assert_eq!(&centrality::closeness_centrality(&g, jobs), &reference);
            prop_assert_eq!(&centrality::closeness_centrality(&frozen, jobs), &reference);
        }
    }

    #[test]
    fn all_pairs_bfs_is_the_per_source_bfs_at_any_jobs(g in arb_graph(26)) {
        let reference: Vec<Vec<usize>> =
            (0..g.node_count()).map(|s| traversal::bfs_distances(&g, s)).collect();
        let frozen = g.freeze().unwrap();
        for jobs in jobs_grid() {
            prop_assert_eq!(&traversal::all_pairs_bfs(&g, jobs), &reference);
            prop_assert_eq!(&traversal::all_pairs_bfs(&frozen, jobs), &reference);
        }
    }
}

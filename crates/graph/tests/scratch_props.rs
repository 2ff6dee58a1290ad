//! Property tests for the scratch-arena kernels: reusing one scratch across
//! repeated calls — and across *different* graphs — must be bit-identical
//! to the fresh-allocation paths, serially and in parallel.

use csn_graph::shortest_path::ShortestPaths;
use csn_graph::{
    centrality, parallel, shortest_path, traversal, BfsScratch, BrandesScratch, DijkstraScratch,
    Graph, WeightedGraph,
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
    fn parallel_scratch_kernels_bitwise_match_serial(g in arb_graph(26)) {
        let bc = centrality::betweenness_centrality(&g);
        let cc = centrality::closeness_centrality(&g);
        let bfs = traversal::all_pairs_bfs(&g);
        // The fresh-alloc path: one `brandes_delta` (and one scratch) per
        // source, summed and halved, lands on the scratch-reusing result.
        let mut fresh = vec![0.0f64; g.node_count()];
        for s in 0..g.node_count() {
            for (b, d) in fresh.iter_mut().zip(&centrality::brandes_delta(&g, s)) {
                *b += d;
            }
        }
        fresh.iter_mut().for_each(|b| *b /= 2.0);
        prop_assert_eq!(&fresh, &bc);
        for jobs in [1usize, 2, 4, 7, csn_parallel::available_parallelism()] {
            prop_assert_eq!(&bc, &parallel::betweenness_par(&g, jobs));
            prop_assert_eq!(&cc, &parallel::closeness_par(&g, jobs));
            prop_assert_eq!(&bfs, &parallel::all_pairs_bfs_par(&g, jobs));
        }
    }
}

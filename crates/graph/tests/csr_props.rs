//! Property tests for the frozen forms: generic kernels behave identically
//! on a `Graph` and its `freeze()`d `CompactCsrGraph` (and on a `Digraph`
//! and its `CsrDigraph`), freezing round-trips the edge set, and the
//! source-parallel kernels match the serial ones bit-for-bit at several
//! worker counts.

use csn_graph::{centrality, cores, parallel, traversal, Graph};
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn freeze_thaw_round_trips_edge_set(g in arb_graph(40)) {
        // Graph equality is edge-set equality, so this covers node count,
        // edge count, and every edge in both directions.
        prop_assert_eq!(g.freeze().unwrap().thaw(), g);
    }

    #[test]
    fn generic_kernels_identical_on_csr(g in arb_graph(32)) {
        let frozen = g.freeze().unwrap();
        prop_assert_eq!(traversal::bfs_distances(&g, 0), traversal::bfs_distances(&frozen, 0));
        prop_assert_eq!(traversal::all_pairs_bfs(&g), traversal::all_pairs_bfs(&frozen));
        prop_assert_eq!(traversal::dfs_preorder(&g, 0), traversal::dfs_preorder(&frozen, 0));
        prop_assert_eq!(
            traversal::connected_components(&g),
            traversal::connected_components(&frozen)
        );
        prop_assert_eq!(traversal::diameter(&g), traversal::diameter(&frozen));
        prop_assert_eq!(cores::core_numbers(&g), cores::core_numbers(&frozen));
        // f64 outputs compare exactly: neighbor order (hence accumulation
        // order) is preserved by freeze().
        prop_assert_eq!(
            centrality::betweenness_centrality(&g),
            centrality::betweenness_centrality(&frozen)
        );
        prop_assert_eq!(
            centrality::closeness_centrality(&g),
            centrality::closeness_centrality(&frozen)
        );
    }

    #[test]
    fn scc_identical_on_csr_digraph(g in arb_graph(28)) {
        let d = g.to_digraph();
        prop_assert_eq!(
            traversal::strongly_connected_components(&d),
            traversal::strongly_connected_components(&d.freeze())
        );
    }

    #[test]
    fn parallel_kernels_bitwise_match_serial(g in arb_graph(28)) {
        let serial_bc = centrality::betweenness_centrality(&g);
        let serial_cc = centrality::closeness_centrality(&g);
        let serial_bfs = traversal::all_pairs_bfs(&g);
        for jobs in [1usize, 4] {
            prop_assert_eq!(&serial_bc, &parallel::betweenness_par(&g, jobs));
            prop_assert_eq!(&serial_cc, &parallel::closeness_par(&g, jobs));
            prop_assert_eq!(&serial_bfs, &parallel::all_pairs_bfs_par(&g, jobs));
        }
    }
}

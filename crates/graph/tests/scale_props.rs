//! Property tests for the million-node substrate tier: streaming generators
//! obey their model invariants and replay deterministically, a streamed
//! build lands on the same edge set as the `Graph` it replays, the parallel
//! kernels are bit-identical on the frozen form, and the sampled kernels
//! degenerate to the exact ones at full sampling — across worker counts.
//! Freezing itself (round trip, serial kernels) is covered by `csr_props`.

use csn_graph::compact::{CompactCsrGraph, RowOrder};
use csn_graph::stream::{BaStream, EdgeStream, GeometricStream, KleinbergStream};
use csn_graph::{approx, centrality, generators, parallel, Graph, GraphView};
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
    fn ba_stream_invariants_and_determinism(
        n in 10usize..200,
        m in 1usize..5,
        seed in 0u64..1000,
    ) {
        // m in 1..5 and n in 10.. guarantee 1 <= m < n.
        let s = BaStream::new(n, m, seed).unwrap();
        let c = s.to_compact_csr().unwrap();
        // Model invariants: exact edge count (clique + m per later node),
        // minimum degree m, node count n.
        prop_assert_eq!(c.node_count(), n);
        prop_assert_eq!(GraphView::edge_count(&c), m * (m + 1) / 2 + (n - m - 1) * m);
        for u in 0..n {
            prop_assert!(c.degree(u) >= m, "node {} degree {}", u, c.degree(u));
        }
        // Seed determinism: replay builds the identical CSR.
        prop_assert_eq!(&c, &s.to_compact_csr().unwrap());
        // RNG-twin: the adjacency-list generator is the same edge sequence,
        // in the same neighbour order, so Brandes agrees bit for bit.
        let g = generators::barabasi_albert(n, m, seed).unwrap();
        prop_assert_eq!(&c.thaw(), &g);
        prop_assert_eq!(centrality::betweenness_centrality(&c), centrality::betweenness_centrality(&g));
    }

    #[test]
    fn geometric_stream_matches_quadratic_reference(
        n in 2usize..80,
        seed in 0u64..1000,
        r_percent in 3usize..30,
    ) {
        let radius = r_percent as f64 / 100.0;
        let s = GeometricStream::new(n, radius, seed).unwrap();
        // Same positions, same edge set as the O(n²) pair loop.
        let reference = generators::random_geometric(n, radius, seed);
        prop_assert_eq!(s.positions(), &reference.positions[..]);
        prop_assert_eq!(s.to_compact_csr().unwrap().thaw(), reference.graph);
    }

    #[test]
    fn kleinberg_stream_invariants(
        side in 3usize..12,
        q in 1usize..3,
        seed in 0u64..500,
    ) {
        let s = KleinbergStream::new(side, q, 2.0, seed).unwrap();
        let c = s.to_compact_csr().unwrap();
        prop_assert_eq!(c.node_count(), side * side);
        // The grid skeleton is always present and the graph stays simple
        // (sorted, duplicate-free rows) despite double emissions.
        prop_assert!(GraphView::edge_count(&c) >= 2 * side * (side - 1));
        for u in 0..c.node_count() {
            let row = c.neighbor_slice(u);
            prop_assert!(row.windows(2).all(|w| w[0] < w[1]), "row {}: {:?}", u, row);
        }
        prop_assert_eq!(&c, &s.to_compact_csr().unwrap());
    }

    #[test]
    fn from_edge_stream_equals_from_graph(g in arb_graph(40)) {
        // Replaying the Graph's own edge iterator through the two-pass
        // streamed build lands on the same edge set as the direct freeze.
        let n = g.node_count();
        let edges: Vec<(usize, usize)> = g.edges().collect();
        let streamed = CompactCsrGraph::from_edge_stream(n, RowOrder::Emission, |emit| {
            for &(u, v) in &edges {
                emit(u, v);
            }
        })
        .unwrap();
        prop_assert_eq!(streamed.thaw(), g);
    }

    #[test]
    fn parallel_kernels_bitwise_match_on_compact(g in arb_graph(24)) {
        let c = g.freeze().unwrap();
        let serial_bc = centrality::betweenness_centrality(&g);
        let serial_cc = centrality::closeness_centrality(&g);
        for jobs in [1usize, 2, 4, 7] {
            prop_assert_eq!(&serial_bc, &parallel::betweenness_par(&c, jobs));
            prop_assert_eq!(&serial_cc, &parallel::closeness_par(&c, jobs));
        }
    }

    #[test]
    fn full_sampling_degenerates_to_exact_kernels(g in arb_graph(28)) {
        let n = g.node_count();
        let exact_bc = centrality::betweenness_centrality(&g);
        let exact_cc = centrality::closeness_centrality(&g);
        // k = n: bit-identical, by construction (sorted sources, unit scale).
        prop_assert_eq!(&exact_bc, &approx::betweenness_sampled(&g, n, 7));
        prop_assert_eq!(&exact_cc, &approx::closeness_sampled(&g, n, 7));
        for jobs in [1usize, 2, 4, 7] {
            prop_assert_eq!(&exact_bc, &parallel::betweenness_sampled_par(&g, n, 7, jobs));
        }
    }

    #[test]
    fn sampled_par_matches_sampled_serial(g in arb_graph(28), seed in 0u64..100) {
        let n = g.node_count();
        let k = (n / 3).max(1);
        let serial = approx::betweenness_sampled(&g, k, seed);
        for jobs in [1usize, 2, 4, 7] {
            prop_assert_eq!(&serial, &parallel::betweenness_sampled_par(&g, k, seed, jobs));
        }
    }
}

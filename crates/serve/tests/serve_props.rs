//! Property tests for the query-serving layer: landmark bounds sandwich
//! exact distances on arbitrary graphs, both from the bare landmark index
//! and as served `Distance` answers, the exact-fallback path equals BFS
//! ground truth, the sharded batched read path is bitwise identical to
//! serial at several worker counts, journeys included, and the Zipf
//! workload generator is a pure function of its seed.

use csn_graph::{traversal, Graph, LandmarkIndex};
use csn_serve::{
    serve_batched, serve_serial, Query, Response, ServeConfig, ServeIndex, WorkloadConfig,
};
use csn_temporal::markovian::EdgeMarkovian;
use proptest::prelude::*;

/// Strategy: a random simple graph as an edge list over `n` nodes
/// (connectivity not guaranteed — disconnection certification is part of
/// what the landmark properties must survive).
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
    fn landmark_bounds_sandwich_exact_distances(
        g in arb_graph(60),
        k in 1usize..10,
        seed in 0u64..1000,
    ) {
        let n = g.node_count();
        let idx = LandmarkIndex::build(&g, k, seed);
        let cfg = ServeConfig { landmarks: k, landmark_seed: seed, ..ServeConfig::default() };
        let served = ServeIndex::build(g.clone(), &cfg);
        let mut scratch = served.scratch();
        for u in 0..n {
            let truth = traversal::bfs_distances(&g, u);
            for v in 0..n {
                let b = idx.bounds(u, v);
                let exact = if truth[v] == usize::MAX { u32::MAX } else { truth[v] as u32 };
                prop_assert!(
                    b.lower <= exact && exact <= b.upper,
                    "[{}, {}] misses d({u},{v}) = {exact}", b.lower, b.upper
                );
                match served.answer(&Query::Distance { u, v }, &mut scratch) {
                    Response::Bounds { lower, upper } => prop_assert!(
                        lower <= exact && exact <= upper,
                        "served [{}, {}] misses d({u},{v}) = {exact}", lower, upper
                    ),
                    other => prop_assert!(false, "unexpected response {:?}", other),
                }
            }
        }
    }

    #[test]
    fn exact_fallback_equals_bfs_truth(
        g in arb_graph(50),
        k in 1usize..6,
    ) {
        let n = g.node_count();
        let cfg = ServeConfig { landmarks: k, ..ServeConfig::default() };
        let idx = ServeIndex::build(g.clone(), &cfg);
        let mut scratch = idx.scratch();
        for u in 0..n {
            let truth = traversal::bfs_distances(&g, u);
            for v in 0..n {
                let exact = if truth[v] == usize::MAX { u32::MAX } else { truth[v] as u32 };
                match idx.answer(&Query::DistanceExact { u, v }, &mut scratch) {
                    Response::Exact { dist, .. } => prop_assert_eq!(dist, exact),
                    other => prop_assert!(false, "unexpected response {:?}", other),
                }
            }
        }
    }

    #[test]
    fn batched_serving_is_bitwise_serial_at_any_jobs(
        g in arb_graph(50),
        wl_seed in 0u64..1000,
        shards in 1usize..40,
        journey_horizon in 0u32..12,
    ) {
        let n = g.node_count();
        let mut idx =
            ServeIndex::build(g, &ServeConfig { landmarks: 4, ..ServeConfig::default() });
        // A positive horizon attaches an edge-Markovian temporal store, so
        // journeys are answered from each worker's own snapshot cursor; at
        // zero they fold into exact distances.
        if journey_horizon > 0 {
            let trace = EdgeMarkovian::new(n, 0.4, 4.0 / n as f64).generate(journey_horizon, wl_seed);
            idx = idx.with_temporal(trace);
        }
        let wl = WorkloadConfig {
            queries: 300,
            users: 5_000,
            seed: wl_seed,
            safety_space: 1usize << idx.safety_dims(),
            journey_horizon,
            ..WorkloadConfig::default()
        }
        .generate(n);
        let serial = serve_serial(&idx, &wl.queries);
        for jobs in [1usize, 2, 4, 7, csn_parallel::available_parallelism()] {
            prop_assert_eq!(
                &serve_batched(&idx, &wl.queries, shards, jobs),
                &serial,
                "shards={} jobs={}", shards, jobs
            );
        }
    }

    #[test]
    fn workload_generation_is_deterministic_per_seed(
        n in 2usize..200,
        seed in 0u64..1000,
        queries in 1usize..400,
    ) {
        let cfg = WorkloadConfig {
            queries,
            users: 10_000,
            seed,
            safety_space: 16,
            journey_horizon: 8,
            ..WorkloadConfig::default()
        };
        let a = cfg.generate(n);
        prop_assert_eq!(&a, &cfg.generate(n));
        prop_assert_eq!(a.queries.len(), queries);
        prop_assert!(a.distinct_users >= 1);
        // A different seed diverges somewhere once there are enough draws.
        if queries >= 50 {
            let b = WorkloadConfig { seed: seed.wrapping_add(1), ..cfg }.generate(n);
            prop_assert_ne!(a.queries, b.queries);
        }
    }
}

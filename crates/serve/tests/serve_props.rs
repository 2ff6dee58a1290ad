//! Property tests for the query-serving layer: every landmark table row
//! equals one BFS from its landmark, landmark bounds sandwich exact
//! distances on arbitrary graphs, both from the bare landmark index and as
//! served `Distance` answers, the exact-fallback path equals BFS
//! ground truth (with no landmark and every node ranked, too), every journey answer equals the heap-based
//! earliest-arrival oracle, the sharded batched read path is bitwise
//! identical to serial at several worker counts, journeys included,
//! arbitrary queries
//! (out-of-range ids and `u == v` included) never panic and are answered
//! `Invalid` exactly when an id is out of range, on both paths, and the
//! Zipf workload generator is a pure function of its seed.

use csn_graph::{generators, traversal, Graph, LandmarkIndex};
use csn_serve::{
    serve_batched, serve_serial, Query, Response, ServeConfig, ServeIndex, WorkloadConfig,
};
use csn_temporal::journey::earliest_arrival;
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

/// A BFS hop distance as the index stores it: `usize::MAX` (no path)
/// becomes `u32::MAX`.
fn as_u32(d: usize) -> u32 {
    if d == usize::MAX {
        u32::MAX
    } else {
        d as u32
    }
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
            if let Some(l) = idx.landmarks().iter().position(|&l| l == u) {
                let want: Vec<u32> = truth.iter().map(|&d| as_u32(d)).collect();
                let read: Vec<u32> = (0..n).map(|v| idx.distances(v)[l]).collect();
                prop_assert_eq!(read, want, "distances from landmark {}", u);
            }
            for v in 0..n {
                let b = idx.bounds(u, v);
                let exact = as_u32(truth[v]);
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
                let exact = as_u32(truth[v]);
                match idx.answer(&Query::DistanceExact { u, v }, &mut scratch) {
                    Response::Exact { dist, .. } => prop_assert_eq!(dist, exact),
                    other => prop_assert!(false, "unexpected response {:?}", other),
                }
            }
        }
    }

    #[test]
    fn zero_landmarks_and_an_oversized_top_k_still_serve(g in arb_graph(40)) {
        let n = g.node_count();
        let cfg = ServeConfig { landmarks: 0, top_k: n + 10, ..ServeConfig::default() };
        let idx = ServeIndex::build(g.clone(), &cfg);
        prop_assert_eq!(idx.landmarks().landmarks().len(), 0);
        prop_assert_eq!(idx.top_ranked().len(), n);
        let mut scratch = idx.scratch();
        for u in 0..n {
            let truth = traversal::bfs_distances(&g, u);
            for v in 0..n {
                let exact = as_u32(truth[v]);
                match idx.answer(&Query::DistanceExact { u, v }, &mut scratch) {
                    Response::Exact { dist, fallback } => {
                        prop_assert_eq!(dist, exact);
                        prop_assert_eq!(fallback, u != v);
                    }
                    other => prop_assert!(false, "unexpected response {:?}", other),
                }
                match idx.answer(&Query::Distance { u, v }, &mut scratch) {
                    Response::Bounds { lower, upper } => prop_assert!(
                        lower <= exact && exact <= upper,
                        "[{}, {}] misses d({u},{v}) = {exact}", lower, upper
                    ),
                    other => prop_assert!(false, "unexpected response {:?}", other),
                }
            }
            match idx.answer(&Query::Rank { u }, &mut scratch) {
                Response::Rank { rank, .. } => prop_assert!(rank.is_some(), "node {u} unranked"),
                other => prop_assert!(false, "unexpected response {:?}", other),
            }
        }
    }

    #[test]
    fn journeys_equal_the_earliest_arrival_oracle(
        n in 2usize..=40,
        horizon in 1u32..=20,
        p_die in 0.02f64..0.9,
        q_born in 0.005f64..0.9,
        trace_seed in 0u64..1000,
        graph_n in 2usize..60,
        raw in proptest::collection::vec((0usize..40, 0usize..40, 0u32..24), 1..60),
        shards in 1usize..9,
    ) {
        // Death and birth rates span sparse to dense traces, departures
        // run past the horizon, and the static graph's node count is drawn
        // apart from the trace's: journeys are keyed by trace nodes.
        let eg = EdgeMarkovian::new(n, p_die, q_born).generate(horizon, trace_seed);
        let cfg = ServeConfig { landmarks: 2, ..ServeConfig::default() };
        let idx = ServeIndex::build(generators::path(graph_n), &cfg).with_temporal(eg.clone());
        let queries: Vec<Query> = raw
            .iter()
            .enumerate()
            .map(|(i, &(a, b, start))| {
                // Every fifth query is a self-journey.
                let target = if i % 5 == 0 { a % n } else { b % n };
                Query::Journey { source: a % n, target, start }
            })
            .collect();
        let serial = serve_serial(&idx, &queries);
        for (q, r) in queries.iter().zip(&serial) {
            let Query::Journey { source, target, start } = *q else { unreachable!() };
            let want = Response::Arrival(earliest_arrival(&eg, source, start)[target]);
            prop_assert_eq!(r, &want, "{:?}", q);
        }
        for jobs in [1usize, 2, 4] {
            prop_assert_eq!(
                &serve_batched(&idx, &queries, shards, jobs),
                &serial,
                "shards={} jobs={}", shards, jobs
            );
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
        // A positive horizon attaches an edge-Markovian trace, so journeys
        // are answered from the shared journey store through each worker's
        // own marks; at zero they fold into exact distances.
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
    fn arbitrary_queries_never_panic_and_both_paths_agree(
        g in arb_graph(40),
        raw in proptest::collection::vec((0u8..9, 0usize..64, 0usize..64, 0u32..12), 1..120),
        journey_horizon in 0u32..8,
        shards in 1usize..9,
    ) {
        let n = g.node_count();
        let mut idx =
            ServeIndex::build(g, &ServeConfig { landmarks: 3, ..ServeConfig::default() });
        if journey_horizon > 0 {
            let trace = EdgeMarkovian::new(n, 0.4, 4.0 / n as f64).generate(journey_horizon, 7);
            idx = idx.with_temporal(trace);
        }
        let space = 1usize << idx.safety_dims();
        // Ids a little past each id space, and the largest id of all.
        let id = |x: usize, bound: usize| if x >= bound + 3 { usize::MAX } else { x };
        let queries: Vec<Query> = raw
            .iter()
            .map(|&(kind, a, b, start)| {
                let (u, v) = (id(a, n), id(b, n));
                match kind {
                    0 => Query::Distance { u, v },
                    1 => Query::DistanceExact { u, v },
                    2 => Query::ForwardingSet { u },
                    3 => Query::Structure { u },
                    4 => Query::Rank { u },
                    5 => Query::SafetyRoute { source: id(a, space), dest: id(b, space) },
                    6 => Query::Journey { source: u, target: v, start },
                    7 => Query::Distance { u, v: u },
                    _ => Query::DistanceExact { u, v: u },
                }
            })
            .collect();
        let serial = serve_serial(&idx, &queries);
        for (q, r) in queries.iter().zip(&serial) {
            let in_range = match *q {
                Query::Distance { u, v } | Query::DistanceExact { u, v } => u < n && v < n,
                Query::ForwardingSet { u } | Query::Structure { u } | Query::Rank { u } => u < n,
                Query::SafetyRoute { source, dest } => {
                    idx.safety_dims() == 0 || (source < space && dest < space)
                }
                Query::Journey { source, target, .. } => {
                    journey_horizon == 0 || (source < n && target < n)
                }
            };
            prop_assert_eq!(*r == Response::Invalid, !in_range, "{:?} -> {:?}", q, r);
        }
        for jobs in [1usize, 2, 4] {
            prop_assert_eq!(
                &serve_batched(&idx, &queries, shards, jobs),
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

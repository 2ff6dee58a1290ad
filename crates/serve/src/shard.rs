//! The sharded read path: [`serve_serial`] and [`serve_batched`].
//!
//! Requests are batched per shard (`shard_key() % shards`, order preserved
//! within a shard) and the shards run as tasks on the `csn-parallel`
//! work-stealing pool via `run_indexed_stateful` — the calling thread is
//! worker 0, one [`ServeScratch`] per worker, shard results returned in
//! shard order and scattered back to request positions. Because every
//! answer is a pure function of `(index, query)` and the pool returns
//! results in task order, [`serve_batched`] is **bit-identical** to
//! [`serve_serial`] at any `(shards, jobs)` —
//! `serve_props::batched_serving_is_bitwise_serial_at_any_jobs`
//! holds this equality, journeys included, at jobs ∈ {1, 2, 4, 7} and the
//! detected core count.
//!
//! # Performance
//!
//! Shards spread the work across the workers, and the calling thread is
//! one of them, so a call on `jobs` workers starts `jobs − 1` threads.
//! Sharding does not cluster reads: a shard's nodes are every
//! `shards`-th id across the whole id space, so each worker reads landmark
//! rows and adjacency from all over the index. A `Distance` answer reads
//! two contiguous `k`-entry landmark rows, and per-worker scratch means
//! zero allocation on the hot path after warm-up. The merge is a single
//! `O(q)` scatter. With one physical core (the CI box) the batched
//! path still runs — it just degenerates to the serial loop plus queueing
//! overhead, which is why serving wall times are informational there
//! while the equality tests are the gate.

use crate::index::{ServeIndex, ServeScratch};
use crate::query::{Query, Response};
use csn_graph::GraphView;
use csn_parallel::run_indexed_stateful;

/// Answers `queries` in order on the calling thread with one scratch.
/// The reference semantics every batched run is gated against.
pub fn serve_serial<G: GraphView>(idx: &ServeIndex<G>, queries: &[Query]) -> Vec<Response> {
    let mut scratch = idx.scratch();
    queries.iter().map(|q| idx.answer(q, &mut scratch)).collect()
}

/// Answers `queries` through the sharded read path: `shards` batches keyed
/// by `shard_key() % shards`, executed on `jobs` pool workers (each with
/// its own scratch), merged back to request order. Bit-identical to
/// [`serve_serial`] for every `(shards, jobs)`; `shards` is clamped to at
/// least 1.
pub fn serve_batched<G: GraphView + Sync>(
    idx: &ServeIndex<G>,
    queries: &[Query],
    shards: usize,
    jobs: usize,
) -> Vec<Response> {
    let shards = shards.max(1);
    // Group query indices per shard, preserving arrival order within each.
    let mut groups: Vec<Vec<usize>> = vec![Vec::new(); shards];
    for (i, q) in queries.iter().enumerate() {
        groups[q.shard_key() % shards].push(i);
    }

    let (per_shard, _stats) = run_indexed_stateful(
        shards,
        jobs,
        |_worker| idx.scratch(),
        |s, scratch: &mut ServeScratch| {
            groups[s]
                .iter()
                .map(|&i| (i, idx.answer(&queries[i], scratch)))
                .collect::<Vec<(usize, Response)>>()
        },
    );

    // Scatter the per-shard answers back to request positions.
    let mut out: Vec<Option<Response>> = vec![None; queries.len()];
    for batch in per_shard {
        for (i, r) in batch {
            out[i] = Some(r);
        }
    }
    out.into_iter().map(|r| r.expect("every query answered exactly once")).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index::ServeConfig;
    use crate::workload::{WorkloadConfig, Zipf};
    use csn_graph::generators;

    fn mixed_queries(n: usize) -> Vec<Query> {
        let cfg = WorkloadConfig {
            queries: 400,
            users: 10_000,
            zipf_users: 1.1,
            zipf_nodes: 0.9,
            seed: 5,
            safety_space: 1 << 5,
            journey_horizon: 8,
        };
        let _ = Zipf::new(4, 1.0); // exercise the public constructor too
        cfg.generate(n).queries
    }

    #[test]
    fn batched_is_bit_identical_to_serial_at_every_shape() {
        let g = generators::barabasi_albert(150, 2, 13).unwrap();
        let eg = csn_temporal::markovian::EdgeMarkovian::new(150, 0.3, 0.3).generate(8, 3);
        let idx = ServeIndex::build(g, &ServeConfig { landmarks: 6, ..ServeConfig::default() })
            .with_temporal(eg);
        let queries = mixed_queries(150);
        let serial = serve_serial(&idx, &queries);
        for shards in [1, 3, 8, 64] {
            for jobs in [1, 2, 4, 7] {
                assert_eq!(
                    serve_batched(&idx, &queries, shards, jobs),
                    serial,
                    "shards={shards} jobs={jobs}"
                );
            }
        }
    }

    #[test]
    fn empty_batch_and_zero_shards_clamp() {
        let g = generators::path(4);
        let idx = ServeIndex::build(g, &ServeConfig::default());
        assert!(serve_batched(&idx, &[], 0, 4).is_empty());
        let one = vec![Query::Structure { u: 2 }];
        assert_eq!(serve_batched(&idx, &one, 0, 2), serve_serial(&idx, &one));
    }
}

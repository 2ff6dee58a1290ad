//! The batched read path: [`serve_serial`] and [`serve_batched`].
//!
//! A batch is cut into at most `shards` contiguous pieces of
//! `⌈len / shards⌉` queries (the last one shorter), and the pieces run as
//! tasks on the `csn-parallel` work-stealing pool via
//! `run_indexed_stateful` — the calling thread is worker 0, one
//! [`ServeScratch`] per worker. The pool returns each piece's answers in
//! piece order, so appending them rebuilds request order with no index
//! bookkeeping. Because every answer is a pure function of
//! `(index, query)`, [`serve_batched`] is **bit-identical** to
//! [`serve_serial`] at any `(shards, jobs)` —
//! `serve_props::batched_serving_is_bitwise_serial_at_any_jobs`
//! holds this equality, journeys included, at jobs ∈ {1, 2, 4, 7} and the
//! detected core count.
//!
//! # Performance
//!
//! Pieces spread the work across the workers, and the calling thread is
//! one of them, so a call on `jobs` workers starts `jobs − 1` threads.
//! `shards` sets the task count: many small pieces let the stealing pool
//! balance a batch whose answers differ in cost (a BFS fallback among
//! table lookups). A `Distance` answer reads two contiguous `k`-entry
//! landmark rows, per-worker scratch keeps working memory off the
//! allocator after warm-up, and each piece allocates one answer vector.
//! On a few cores the batched path gains little over the serial loop, and
//! on one it is that loop plus queueing overhead, so serving wall times are
//! informational while the equality tests are the gate.

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

/// Answers `queries` through the batched read path: at most `shards`
/// contiguous pieces, executed on `jobs` pool workers (each with its own
/// scratch), appended in piece order. Bit-identical to [`serve_serial`]
/// for every `(shards, jobs)`; `shards` is clamped to at least 1, and a
/// count past the batch length yields one piece per query.
pub fn serve_batched<G: GraphView + Sync>(
    idx: &ServeIndex<G>,
    queries: &[Query],
    shards: usize,
    jobs: usize,
) -> Vec<Response> {
    let size = queries.len().div_ceil(shards.max(1)).max(1);
    let (answers, _stats) = run_indexed_stateful(
        queries.len().div_ceil(size),
        jobs,
        |_worker| idx.scratch(),
        |p, scratch: &mut ServeScratch| {
            let end = queries.len().min((p + 1) * size);
            queries[p * size..end].iter().map(|q| idx.answer(q, scratch)).collect::<Vec<_>>()
        },
    );
    let mut out = Vec::with_capacity(queries.len());
    for piece in answers {
        out.extend(piece);
    }
    out
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
        // Over 400 queries: one piece (1), a short last piece (3, 64),
        // pieces of two (399), one piece per query (400), and more pieces
        // asked for than there are queries (401, 5,000, `usize::MAX`).
        for shards in [1, 3, 8, 64, 399, 400, 401, 5_000, usize::MAX] {
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
        assert!(serve_batched(&idx, &[], 64, 2).is_empty());
        let one = vec![Query::Structure { u: 2 }];
        assert_eq!(serve_batched(&idx, &one, 0, 2), serve_serial(&idx, &one));
    }
}

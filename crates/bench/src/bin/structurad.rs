//! `structurad` — the query-serving daemon, minus the sockets.
//!
//! Loads a graph once (streamed straight into compact CSR), freezes a
//! `csn_serve::ServeIndex` over it, generates a seeded Zipf workload, and
//! drives the deterministic request-loop: batches through the batched read
//! path, then a serial latency pass whose percentiles are printed per query
//! kind, with the number of `DistanceExact` answers that fell back to a
//! BFS, the nodes those BFS runs reached, and the entries the journey
//! answers scanned. There is no real networking — every run is replayable
//! bit for bit, which is the point: a front-end that speaks a wire
//! protocol would call exactly the same `serve_batched` per request wave.
//!
//! Usage:
//!
//! ```text
//! cargo run -p csn-bench --release --bin structurad -- \
//!   [--nodes 100000] [--m 3] [--seed 1] [--landmarks 16] [--top-k 64] \
//!   [--queries 50000] [--users 1000000] [--zipf-users 1.1] [--zipf-nodes 0.9] \
//!   [--workload-seed 2821] [--batch 1024] [--shards 64] [--jobs N] [--replay]
//! ```
//!
//! `--batch` is the number of queries per `serve_batched` call and
//! `--shards` the number of contiguous pieces each batch is cut into (at
//! most one per query), which sets the call's task count.
//!
//! `--replay` prints the committed standard query trace and exits (the
//! same bytes as `crates/serve/tests/snapshots/serve_trace.txt`). A
//! contact trace (journey queries) is attached when `--nodes` is at most
//! `TEMPORAL_NODE_CAP` (600).
//!
//! An unknown flag, an unparsable value, invalid generator parameters, a
//! `--batch`, `--shards` or `--jobs` of 0, a Zipf exponent that is not
//! finite and `>= 0`, or a `--queries` or `--users` count too large to
//! allocate exit with status 2.
//! Sampled batched-vs-serial equality is checked on every run and a
//! mismatch exits with status 1; QPS and latency are informational (see
//! SERVING.md).

use csn_bench::cli::{usage_error, Flags};
use csn_bench::timed;
use csn_core::graph::stream::{BaStream, EdgeStream};
use csn_core::graph::view::GraphView;
use csn_core::serve::{
    serve_batched, serve_serial, Query, Response, ServeConfig, ServeIndex, WorkloadConfig,
};
use csn_core::temporal::markovian::EdgeMarkovian;
use std::hint::black_box;
use std::time::Instant;

/// Largest `--nodes` that still gets a contact trace (journey queries).
/// The cap bounds the trace's generation, not its serving: the
/// edge-Markovian generator is `O(n² · horizon)` — quadratic by nature, one
/// coin per node pair per step — while the frozen trace it feeds is linear
/// in the trace's label runs.
const TEMPORAL_NODE_CAP: usize = 600;

/// Queries timed one at a time by the serial latency pass.
const LATENCY_SAMPLES: usize = 20_000;

/// Query kinds in print order, named as `Query::render` names them.
const KINDS: [&str; 7] = [
    "distance",
    "distance_exact",
    "forwarding_set",
    "structure",
    "rank",
    "safety_route",
    "journey",
];

/// The index of `q`'s kind in [`KINDS`].
fn kind(q: &Query) -> usize {
    match q {
        Query::Distance { .. } => 0,
        Query::DistanceExact { .. } => 1,
        Query::ForwardingSet { .. } => 2,
        Query::Structure { .. } => 3,
        Query::Rank { .. } => 4,
        Query::SafetyRoute { .. } => 5,
        Query::Journey { .. } => 6,
    }
}

/// The `p`-th percentile (0–100, nearest-rank) of an unsorted sample of
/// nanosecond latencies, in microseconds; `0` for an empty sample.
fn percentile_us(samples: &mut [u64], p: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.sort_unstable();
    let rank = ((p / 100.0) * samples.len() as f64).ceil() as usize;
    samples[rank.clamp(1, samples.len()) - 1] as f64 / 1_000.0
}

fn main() {
    const OPTIONS: [&str; 13] = [
        "--nodes",
        "--m",
        "--seed",
        "--landmarks",
        "--top-k",
        "--queries",
        "--users",
        "--zipf-users",
        "--zipf-nodes",
        "--workload-seed",
        "--batch",
        "--shards",
        "--jobs",
    ];
    let flags = Flags::from_env(&["--replay"], &OPTIONS);
    if flags.has("--replay") {
        print!("{}", csn_core::serve::standard_trace());
        return;
    }

    let nodes: usize = flags.get("--nodes", 100_000);
    let m: usize = flags.get("--m", 3);
    let seed: u64 = flags.get("--seed", 1);
    let landmarks: usize = flags.get("--landmarks", 16);
    let top_k: usize = flags.get("--top-k", 64);
    let queries: usize = flags.get("--queries", 50_000);
    let users: usize = flags.get("--users", 1_000_000);
    let zipf_users: f64 = flags.get("--zipf-users", 1.1);
    let zipf_nodes: f64 = flags.get("--zipf-nodes", 0.9);
    let workload_seed: u64 = flags.get("--workload-seed", 2821);
    let batch: usize = flags.get("--batch", 1024);
    let shards: usize = flags.get("--shards", 64);
    let cores = csn_bench::pool::available_parallelism();
    let jobs: usize = flags.get("--jobs", cores);
    for (name, value) in [("--batch", batch), ("--shards", shards), ("--jobs", jobs)] {
        if value == 0 {
            usage_error(format!("{name} expects at least 1"));
        }
    }
    for (name, s) in [("--zipf-users", zipf_users), ("--zipf-nodes", zipf_nodes)] {
        if !(s.is_finite() && s >= 0.0) {
            usage_error(format!("{name} expects a finite exponent >= 0, got {s}"));
        }
    }

    // --- Load & freeze: streamed BA straight into compact CSR, then the
    // whole index in one deterministic build.
    let g = BaStream::new(nodes, m, seed)
        .and_then(|s| s.to_compact_csr())
        .unwrap_or_else(|e| usage_error(format!("--nodes {nodes} --m {m}: {e}")));
    let edges = GraphView::edge_count(&g);
    let cfg = ServeConfig { landmarks, top_k, ..ServeConfig::default() };
    let with_temporal = nodes <= TEMPORAL_NODE_CAP;
    let ((idx, journey_horizon), build_secs) = timed(|| {
        let idx = ServeIndex::build(g, &cfg);
        if with_temporal {
            // Sparse stationary density ~10/n keeps snapshots around 5·n
            // edges, like the social-contact traces journeys are asked over.
            let horizon = 32;
            let model = EdgeMarkovian::new(nodes, 0.4, 4.0 / nodes as f64);
            (idx.with_temporal(model.generate(horizon, seed)), horizon)
        } else {
            (idx, 0)
        }
    });
    eprintln!(
        "structurad: indexed BA(n={nodes}, m={m}) — {edges} edges, {landmarks} landmarks \
         ({} arcs scanned), {build_secs:.3}s build, {} index bytes ({:.1} bytes/node)",
        idx.landmarks().arcs_scanned(),
        idx.heap_bytes(),
        idx.heap_bytes() as f64 / nodes as f64
    );

    // --- Workload.
    let wl_cfg = WorkloadConfig {
        queries,
        users,
        zipf_users,
        zipf_nodes,
        seed: workload_seed,
        safety_space: 1usize << idx.safety_dims(),
        journey_horizon,
    };
    // The workload allocates one `Query` per query and one 8 B block sum
    // per 32 users up front: a count no allocation can hold is a usage
    // error.
    let wl = wl_cfg.try_generate(nodes).unwrap_or_else(|e| {
        usage_error(format!("--queries {queries} --users {users}: too large to allocate ({e})"))
    });
    eprintln!(
        "structurad: {queries} queries from {} distinct users (pop {users}, zipf {zipf_users})",
        wl.distinct_users
    );

    // --- Sampled batched-vs-serial equality at several shapes, so ad-hoc
    // runs stay honest without doubling their wall time (the full property
    // is `serve_props::batched_serving_is_bitwise_serial_at_any_jobs`).
    let sample = &wl.queries[..wl.queries.len().min(2_000)];
    let serial = serve_serial(&idx, sample);
    let mut batched_matches_serial = true;
    for check_jobs in [1, 2, jobs] {
        if serve_batched(&idx, sample, shards, check_jobs) != serial {
            eprintln!("FAIL: batched serving (jobs={check_jobs}) differs from serial");
            batched_matches_serial = false;
        }
    }

    // --- The request-loop: the workload in `batch`-sized waves through the
    // batched read path, as a network front-end would call it per wave.
    let ((), loop_secs) = timed(|| {
        for chunk in wl.queries.chunks(batch) {
            black_box(serve_batched(&idx, chunk, shards, jobs));
        }
    });
    let qps = if loop_secs > 0.0 { wl.queries.len() as f64 / loop_secs } else { 0.0 };
    eprintln!(
        "structurad: {qps:.0} qps over {} batches (batch={batch}, shards={shards}, jobs={jobs}, \
         {cores} core(s))",
        wl.queries.len().div_ceil(batch)
    );

    // --- The latency pass: queries one at a time through one scratch (the
    // serial path), bucketed by kind. The scratch also counts the nodes its
    // fallback BFS runs reach and the entries its journey answers scan,
    // exact counts that repeat run to run.
    let mut scratch = idx.scratch();
    let mut ns: [Vec<u64>; KINDS.len()] = Default::default();
    let mut fallbacks = 0usize;
    for q in wl.queries.iter().take(LATENCY_SAMPLES) {
        let t0 = Instant::now();
        let r = idx.answer(q, &mut scratch);
        ns[kind(q)].push(u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX));
        fallbacks += usize::from(matches!(r, Response::Exact { fallback: true, .. }));
    }
    let mut all = ns.concat();
    eprintln!(
        "structurad: p50 {:.1}us p99 {:.1}us over {} serial queries",
        percentile_us(&mut all, 50.0),
        percentile_us(&mut all, 99.0),
        all.len()
    );
    for (name, samples) in KINDS.iter().zip(&mut ns) {
        eprintln!(
            "  {name:<15} count {:>6}  p50 {:>9.1}us  p99 {:>9.1}us{}",
            samples.len(),
            percentile_us(samples, 50.0),
            percentile_us(samples, 99.0),
            match *name {
                "distance_exact" => format!(
                    "  fallbacks {fallbacks}  nodes scanned {}",
                    scratch.fallback_nodes_scanned()
                ),
                "journey" => format!("  entries scanned {}", scratch.journey_entries_scanned()),
                _ => String::new(),
            }
        );
    }

    if !batched_matches_serial {
        std::process::exit(1);
    }
    println!("structurad OK: batched serving bit-identical to serial");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_nearest_rank() {
        let mut s = vec![10_000, 20_000, 30_000, 40_000];
        assert_eq!(percentile_us(&mut s, 50.0), 20.0);
        assert_eq!(percentile_us(&mut s, 99.0), 40.0);
        assert_eq!(percentile_us(&mut s, 100.0), 40.0);
        assert_eq!(percentile_us(&mut [], 50.0), 0.0);
        assert_eq!(percentile_us(&mut [7_000], 50.0), 7.0);
    }
}

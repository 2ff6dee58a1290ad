//! `serve-mixed` and `serve-lookup`: a Barabási–Albert graph frozen behind
//! a `ServeIndex`, answering a Zipf query stream. The serving passes here
//! are also the tail of the tracking workloads.

use super::{derive, overhead_frac, put_latency, ratio, set_up, Budget, Config, JOBS};
use crate::report::Outcome;
use crate::speed::Speed;
use crate::stats::{median, Latency};
use crate::trace::Tracer;
use csn_core::graph::stream::{BaStream, EdgeStream};
use csn_core::graph::traversal::bfs_distances;
use csn_core::graph::{GraphView, LandmarkIndex};
use csn_core::serve::query::UNREACHABLE;
use csn_core::serve::{serve_batched, Query, Response, ServeConfig, ServeIndex, WorkloadConfig};

/// Requests per `serve_batched` call.
const BATCH: usize = 1024;
/// Shards of the batched read path.
const SHARDS: usize = 64;
/// Queries of the traced serial pass (a prefix of the workload), which
/// bounds the trace file.
const TRACED_QUERIES: usize = 100_000;
/// Query kinds as the metrics name them, in `Query` declaration order.
const KINDS: [&str; 7] = [
    "distance",
    "distance_exact",
    "forwarding_set",
    "structure",
    "rank",
    "safety_route",
    "journey",
];
/// The span name of each kind's `ServeIndex::answer` call.
const SPANS: [&str; 7] = [
    "serve.answer.distance",
    "serve.answer.distance_exact",
    "serve.answer.forwarding_set",
    "serve.answer.structure",
    "serve.answer.rank",
    "serve.answer.safety_route",
    "serve.answer.journey",
];

/// Index of a query's kind in [`KINDS`].
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

fn is_fallback(r: &Response) -> bool {
    matches!(r, Response::Exact { fallback: true, .. })
}

/// The safety-route address space a workload should draw from (0 folds
/// safety routes into distance queries when the overlay is absent).
pub(super) fn safety_space<G: GraphView>(idx: &ServeIndex<G>) -> usize {
    match idx.safety_dims() {
        0 => 0,
        d => 1 << d,
    }
}

/// Input: `BaStream(50_000, 3)`; 4,000 queries with the safety overlay on
/// and journeys folded into exact distances, so about 23% are
/// `DistanceExact` and nearly all of those take the BFS fallback.
pub(super) fn mixed(cfg: &Config, tr: &mut Tracer, sp: &mut Speed) -> Outcome {
    let (n, q) = if cfg.smoke { (2_000, 300) } else { (50_000, 4_000) };
    serve(cfg, tr, sp, n, q, false)
}

/// Input: `BaStream(700_000, 3)`; 500,000 queries with `DistanceExact`
/// and `Journey` dropped, so every answer is a bound or a table lookup and
/// no BFS runs.
pub(super) fn lookup(cfg: &Config, tr: &mut Tracer, sp: &mut Speed) -> Outcome {
    let (n, q) = if cfg.smoke { (3_000, 3_000) } else { (700_000, 500_000) };
    serve(cfg, tr, sp, n, q, true)
}

fn serve(
    cfg: &Config,
    tr: &mut Tracer,
    sp: &mut Speed,
    n: usize,
    queries: usize,
    lookup_only: bool,
) -> Outcome {
    let mut out = Outcome::default();
    let graph_seed = derive(cfg.seed, 1);
    let idx = set_up(&mut out, sp, || {
        let (g, gen) = tr.timed("graph.gen", 0, |_| {
            BaStream::new(n, 3, graph_seed)
                .expect("BA parameters")
                .to_compact_csr()
                .expect("ids fit u32")
        });
        let (idx, build) =
            tr.timed("serve.build", 0, |_| ServeIndex::build(g, &ServeConfig::default()));
        (idx, gen as f64 / 1e9, build as f64 / 1e9)
    });

    // The load generator is the benchmark's, not the system's: not set-up.
    let generated = if lookup_only { queries * 3 / 2 } else { queries };
    let wl = WorkloadConfig {
        queries: generated,
        seed: derive(cfg.seed, 2),
        safety_space: safety_space(&idx),
        journey_horizon: 0,
        ..WorkloadConfig::default()
    };
    let mut qs = wl.generate(n).queries;
    if lookup_only {
        qs.retain(|q| !matches!(q, Query::DistanceExact { .. } | Query::Journey { .. }));
        qs.truncate(queries);
    }

    // Measured phase: a serial pass (per-query latency) then a batched pass
    // (throughput), repeated; every pass is checked against the first
    // serial pass outside the timed calls.
    let budget = Budget::start(cfg);
    let (mut lat, mut serial_s, mut batched_s) = (Vec::new(), Vec::new(), Vec::new());
    let mut scaled_s = Vec::new();
    let mut reference: Vec<Response> = Vec::new();
    while budget.more(batched_s.len(), lat.len()) {
        let (resp, ns, raw) = serial_pass(&idx, &qs, &mut Tracer::new(false), sp);
        serial_s.push(raw);
        if lat.len() < 4_000_000 {
            lat.extend_from_slice(&ns);
        }
        if reference.is_empty() {
            reference = resp;
        } else {
            out.check(qs.len() as u64, mismatches(&reference, &resp));
        }
        let (resp, raw, scaled) = batched_pass(&idx, &qs, &mut Tracer::new(false), sp);
        batched_s.push(raw);
        scaled_s.push(scaled);
        out.check(qs.len() as u64, mismatches(&reference, &resp));
    }
    out.put("ops_per_s", qs.len() as f64 / median(&scaled_s), "1/s");
    put_latency(&mut out, "op", &lat);
    out.put("heap_bytes_per_node", idx.heap_bytes() as f64 / n as f64, "B");
    out.put("serve.index_bytes", idx.heap_bytes() as f64, "B");
    out.put("serve.serial_s", median(&serial_s), "s");
    out.put("serve.batched_s", median(&batched_s), "s");
    out.put("serve.shard_speedup", median(&serial_s) / median(&batched_s), "x");
    out.put("serve.passes", batched_s.len() as f64, "passes");
    serving_counters(&mut out, n, &qs, &reference);
    // At 700,000 nodes a fallback BFS costs about 0.1 s, so serve-lookup
    // checks one exact answer per source rather than ten.
    exact_truth_check(&mut out, &idx, &qs, if lookup_only { 1 } else { 10 });

    if tr.enabled() {
        let g = idx.graph();
        let scfg = ServeConfig::default();
        let lm = tr.timed("graph.landmarks", 0, |_| {
            LandmarkIndex::build(g, scfg.landmarks, scfg.landmark_seed).heap_bytes()
        });
        let nsf = tr.timed("layering.nsf", 0, |_| csn_core::layering::nsf::nsf_levels(g).len());
        let cores = tr.timed("graph.cores", 0, |_| csn_core::graph::cores::core_numbers(g).len());
        out.put("graph.landmarks_s", lm.1 as f64 / 1e9, "s");
        out.put("layering.nsf_s", nsf.1 as f64 / 1e9, "s");
        out.put("graph.cores_s", cores.1 as f64 / 1e9, "s");
        let prefix = &qs[..qs.len().min(TRACED_QUERIES)];
        traced_breakdown(&mut out, tr, &idx, prefix, &reference);
        let overhead = overhead_frac(|t| {
            let t0 = std::time::Instant::now();
            serial_pass(&idx, prefix, t, &mut Speed::off());
            t0.elapsed().as_secs_f64()
        });
        out.put("trace.overhead_frac", overhead, "frac");
        let (resp, ..) = batched_pass(&idx, &qs, tr, &mut Speed::off());
        out.check(qs.len() as u64, mismatches(&reference, &resp));
    }
    out
}

/// Answers `queries` in order on one scratch, timing each call; returns
/// the responses, each call's nanoseconds scaled by `sp`, and the raw
/// seconds of all calls.
pub(super) fn serial_pass<G: GraphView>(
    idx: &ServeIndex<G>,
    queries: &[Query],
    tr: &mut Tracer,
    sp: &mut Speed,
) -> (Vec<Response>, Vec<f64>, f64) {
    let mut scratch = idx.scratch();
    let (mut ns, mut raw) = (Vec::with_capacity(queries.len()), 0);
    let resp = queries
        .iter()
        .enumerate()
        .map(|(i, q)| {
            let (r, t) = tr.timed(SPANS[kind(q)], i as u64, |_| idx.answer(q, &mut scratch));
            ns.push(t as f64 * sp.factor());
            raw += t;
            r
        })
        .collect();
    (resp, ns, raw as f64 / 1e9)
}

/// Answers `queries` through `serve_batched` in request batches of
/// [`BATCH`]; returns the responses and the seconds of all calls, raw and
/// scaled by `sp`.
pub(super) fn batched_pass<G: GraphView + Sync>(
    idx: &ServeIndex<G>,
    queries: &[Query],
    tr: &mut Tracer,
    sp: &mut Speed,
) -> (Vec<Response>, f64, f64) {
    let (mut out, mut raw, mut scaled) = (Vec::with_capacity(queries.len()), 0.0, 0.0);
    for (b, chunk) in queries.chunks(BATCH).enumerate() {
        let (resp, t) =
            tr.timed("serve.batched", b as u64, |_| serve_batched(idx, chunk, SHARDS, JOBS));
        out.extend(resp);
        raw += t as f64 / 1e9;
        scaled += t as f64 / 1e9 * sp.factor();
    }
    (out, raw, scaled)
}

/// Positions where `got` differs from `want` (a length difference counts
/// every missing answer).
pub(super) fn mismatches(want: &[Response], got: &[Response]) -> u64 {
    let differ = want.iter().zip(got).filter(|(a, b)| a != b).count();
    (differ + want.len().abs_diff(got.len())) as u64
}

/// Counters of one pass: queries, exact-distance queries, how many of
/// those took the BFS fallback, forwarding-set entries returned, and the
/// share of the `n` nodes the queries name.
pub(super) fn serving_counters(
    out: &mut Outcome,
    n: usize,
    queries: &[Query],
    responses: &[Response],
) {
    let mut named = vec![false; n];
    for q in queries {
        match *q {
            Query::Distance { u, v } | Query::DistanceExact { u, v } => {
                named[u] = true;
                named[v] = true;
            }
            Query::ForwardingSet { u } | Query::Structure { u } | Query::Rank { u } => {
                named[u] = true
            }
            Query::Journey { source, target, .. } => {
                named[source] = true;
                named[target] = true;
            }
            Query::SafetyRoute { .. } => {}
        }
    }
    let distinct = named.iter().filter(|&&b| b).count();
    out.put("serve.named_node_frac", ratio(distinct as f64, n as f64), "frac");
    let exact = queries.iter().filter(|q| matches!(q, Query::DistanceExact { .. })).count();
    let fallbacks = responses.iter().filter(|r| is_fallback(r)).count();
    let entries: usize = responses
        .iter()
        .map(|r| if let Response::ForwardingSet(s) = r { s.len() } else { 0 })
        .sum();
    out.put("serve.forwarding_set.entries", entries as f64, "count");
    out.put("serve.queries", queries.len() as f64, "count");
    out.put("serve.distance_exact.count", exact as f64, "count");
    out.put("serve.fallbacks", fallbacks as f64, "count");
    out.put("serve.distance_exact.fallback_frac", ratio(fallbacks as f64, exact as f64), "frac");
}

/// Checks 200 sampled pairs against BFS truth — 20 sources (the first
/// distinct sources of the workload's distance queries) times 10 targets
/// (the targets of those queries, in order): every `Distance` interval
/// must contain the true distance, and the `DistanceExact` answer must
/// equal it for the first `exact_per_source` targets of each source (each
/// such answer may cost a full fallback BFS).
pub(super) fn exact_truth_check<G: GraphView>(
    out: &mut Outcome,
    idx: &ServeIndex<G>,
    queries: &[Query],
    exact_per_source: usize,
) {
    let pairs: Vec<(usize, usize)> = queries
        .iter()
        .filter_map(|q| match *q {
            Query::Distance { u, v } | Query::DistanceExact { u, v } => Some((u, v)),
            _ => None,
        })
        .collect();
    let mut sources: Vec<usize> = Vec::new();
    for &(u, _) in &pairs {
        if sources.len() == 20 {
            break;
        }
        if !sources.contains(&u) {
            sources.push(u);
        }
    }
    let mut scratch = idx.scratch();
    let (mut checked, mut wrong) = (0, 0);
    for (s, &u) in sources.iter().enumerate() {
        let truth = bfs_distances(idx.graph(), u);
        for k in 0..10 {
            let v = pairs[(s * 10 + k) % pairs.len()].1;
            let want = u32::try_from(truth[v]).unwrap_or(UNREACHABLE);
            let mut ok = match idx.answer(&Query::Distance { u, v }, &mut scratch) {
                Response::Bounds { lower, upper } => lower <= want && want <= upper,
                _ => false,
            };
            if k < exact_per_source {
                let exact = idx.answer(&Query::DistanceExact { u, v }, &mut scratch);
                ok &= matches!(exact, Response::Exact { dist, .. } if dist == want);
            }
            checked += 1;
            wrong += u64::from(!ok);
        }
    }
    out.check(checked, wrong);
}

/// Traced serial pass over `queries`: per-kind count, p50, p99 (or max)
/// and share of answer time, and the same for BFS fallbacks. `reference`
/// holds the untraced answers, which must agree.
pub(super) fn traced_breakdown<G: GraphView>(
    out: &mut Outcome,
    tr: &mut Tracer,
    idx: &ServeIndex<G>,
    queries: &[Query],
    reference: &[Response],
) {
    let (resp, ns, _) = serial_pass(idx, queries, tr, &mut Speed::off());
    out.check(queries.len() as u64, mismatches(&reference[..queries.len()], &resp));
    let total: f64 = ns.iter().sum();
    for (k, name) in KINDS.iter().enumerate() {
        let mine: Vec<f64> =
            queries.iter().zip(&ns).filter(|(q, _)| kind(q) == k).map(|(_, t)| t / 1e3).collect();
        put_kind(out, &format!("serve.{name}"), &mine, total / 1e3);
    }
    let fallback: Vec<f64> =
        resp.iter().zip(&ns).filter(|(r, _)| is_fallback(r)).map(|(_, t)| t / 1e3).collect();
    put_kind(out, "serve.fallback", &fallback, total / 1e3);
}

fn put_kind(out: &mut Outcome, prefix: &str, us: &[f64], total_us: f64) {
    let l = Latency::of(us);
    out.put(&format!("{prefix}.count"), l.n as f64, "count");
    out.put(&format!("{prefix}.time_share"), ratio(us.iter().sum(), total_us), "frac");
    if l.n > 0 {
        out.put(&format!("{prefix}.p50_us"), l.p50, "us");
        match l.p99 {
            Some(p99) => out.put(&format!("{prefix}.p99_us"), p99, "us"),
            None => out.put(&format!("{prefix}.max_us"), l.max, "us"),
        }
    }
}

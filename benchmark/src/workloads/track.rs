//! `track-city` and `track-sparse`: the tracking pipeline — contact trace →
//! time-evolving graph → `TrackedCursor` with the three incremental
//! maintainers → a `ServeIndex` over the final snapshot with the trace
//! attached → Zipf queries with journeys. The two workloads run the same
//! code on opposite sides of the churn ratio.

use super::serve::{
    batched_pass, exact_truth_check, mismatches, safety_space, serial_pass, serving_counters,
    traced_breakdown,
};
use super::{derive, overhead_frac, put_latency, ratio, set_up, Budget, Config};
use crate::report::Outcome;
use crate::speed::Speed;
use crate::stats::{median, Latency};
use crate::trace::Tracer;
use csn_core::graph::cores::{core_numbers, IncrementalCores};
use csn_core::graph::Graph;
use csn_core::layering::nsf::{nsf_levels, IncrementalNsf};
use csn_core::mobility::{CityScenario, ContactStream};
use csn_core::serve::{Query, Response, ServeConfig, ServeIndex, WorkloadConfig};
use csn_core::temporal::journey::earliest_arrival;
use csn_core::temporal::markovian::EdgeMarkovian;
use csn_core::temporal::{StructureMaintainer, TimeEvolvingGraph, TrackedCursor};
use csn_core::trimming::incremental::{forwarding_sets_at, IncrementalForwarding};
use std::time::Instant;

/// Journeys checked against the heap-based oracle.
const JOURNEY_CHECKS: u64 = 50;
/// Maintainer names, in registration order.
const MAINTAINERS: [&str; 3] = ["cores", "nsf", "forwarding"];
/// Span names of single-maintainer `advance` calls, in the same order.
const SINGLE_SPANS: [&str; 3] = ["maintain.cores", "maintain.nsf", "maintain.forwarding"];

/// The three maintainers, in [`MAINTAINERS`] order (forwarding sets with
/// no trimmed arcs, as the serve index builds them).
fn maintainers() -> [Box<dyn StructureMaintainer>; 3] {
    [
        Box::new(IncrementalCores::default()),
        Box::new(IncrementalNsf::default()),
        Box::new(IncrementalForwarding::new(&Graph::new(0), &[])),
    ]
}

/// Where a tracking workload's time-evolving graph comes from.
enum Source {
    /// `CityScenario::new(vehicles, pedestrians, duration, seed)`
    /// discretised at `dt` seconds.
    City { vehicles: usize, pedestrians: usize, duration: f64, dt: f64 },
    /// `EdgeMarkovian::new(n, p_die, q)` with `q` set for mean degree
    /// `degree`, over `horizon` steps.
    Markovian { n: usize, p_die: f64, degree: f64, horizon: u32 },
}

impl Source {
    fn generate(&self, seed: u64) -> TimeEvolvingGraph {
        match *self {
            Source::City { vehicles, pedestrians, duration, dt } => {
                CityScenario::new(vehicles, pedestrians, duration, seed).to_time_evolving_graph(dt)
            }
            Source::Markovian { n, p_die, degree, horizon } => {
                let density = degree / (n as f64 - 1.0);
                let q_born = p_die * density / (1.0 - density);
                EdgeMarkovian::new(n, p_die, q_born).generate(horizon, seed)
            }
        }
    }
}

/// Dense churn: 250 vehicles and 150 pedestrians over 360 s at dt = 3
/// (120 steps, churn ratio about 0.6); 2,000 queries.
pub(super) fn city(cfg: &Config, tr: &mut Tracer, sp: &mut Speed) -> Outcome {
    let (vehicles, pedestrians, duration, queries) =
        if cfg.smoke { (25, 15, 60.0, 200) } else { (250, 150, 360.0, 2_000) };
    track(cfg, tr, sp, Source::City { vehicles, pedestrians, duration, dt: 3.0 }, queries)
}

/// Low churn: edge-Markovian, 1,000 nodes, mean degree 6, death
/// probability 0.02 (churn ratio about 0.04), 300 steps; 20,000 queries.
pub(super) fn sparse(cfg: &Config, tr: &mut Tracer, sp: &mut Speed) -> Outcome {
    let (n, horizon, queries) = if cfg.smoke { (60, 30, 300) } else { (1_000, 300, 20_000) };
    track(cfg, tr, sp, Source::Markovian { n, p_die: 0.02, degree: 6.0, horizon }, queries)
}

/// A `TrackedCursor` carrying the three maintainers, and their handles.
struct Tracked {
    cur: TrackedCursor,
    handles: [usize; 3],
}

impl Tracked {
    fn new(eg: &TimeEvolvingGraph) -> Tracked {
        let mut cur = TrackedCursor::new(eg);
        let handles = maintainers().map(|m| cur.register(m));
        Tracked { cur, handles }
    }

    /// Whether every maintained structure equals its from-scratch
    /// computation on the current snapshot, timing each rebuild into
    /// `rebuild_ns`.
    fn matches_scratch(&self, tr: &mut Tracer, rebuild_ns: &mut [u64; 3]) -> bool {
        let (g, t, [hc, hn, hf]) = (self.cur.graph(), u64::from(self.cur.time()), self.handles);
        let (cores, ns) = tr.timed("rebuild.cores", t, |_| core_numbers(g));
        rebuild_ns[0] += ns;
        let (levels, ns) = tr.timed("rebuild.nsf", t, |_| nsf_levels(g));
        rebuild_ns[1] += ns;
        let (sets, ns) = tr.timed("rebuild.forwarding", t, |_| forwarding_sets_at(g, &[]));
        rebuild_ns[2] += ns;
        self.cur.view::<IncrementalCores>(hc).is_some_and(|m| m.core_numbers() == cores.as_slice())
            && self
                .cur
                .view::<IncrementalNsf>(hn)
                .is_some_and(|m| m.nsf_levels() == levels.as_slice())
            && self
                .cur
                .view::<IncrementalForwarding>(hf)
                .is_some_and(|m| m.forwarding_sets() == sets.as_slice())
    }
}

/// One sweep from the first step: every `advance` of `cur` a
/// `maintain.step` span; returns each step's nanoseconds scaled by `sp`.
fn sweep(cur: &mut TrackedCursor, tr: &mut Tracer, sp: &mut Speed) -> Vec<f64> {
    cur.reset();
    let mut ns = Vec::new();
    for step in 1.. {
        let (more, t) = tr.timed("maintain.step", step, |_| cur.advance());
        if !more {
            break;
        }
        ns.push(t as f64 * sp.factor());
    }
    ns
}

fn track(cfg: &Config, tr: &mut Tracer, sp: &mut Speed, source: Source, queries: usize) -> Outcome {
    let mut out = Outcome::default();
    let seed = derive(cfg.seed, 3);
    let (eg, mut tracked) = set_up(&mut out, sp, || {
        let (eg, gen) = tr.timed("temporal.eg_build", 0, |_| source.generate(seed));
        let (tracked, build) = tr.timed("temporal.tracked_new", 0, |_| Tracked::new(&eg));
        ((eg, tracked), gen as f64 / 1e9, build as f64 / 1e9)
    });
    let n = eg.node_count();
    out.put("temporal.eg_labels", eg.contact_count() as f64, "count");
    out.put("temporal.steps", f64::from(eg.horizon()), "count");
    if let Source::City { vehicles, pedestrians, duration, .. } = source {
        let city = CityScenario::new(vehicles, pedestrians, duration, seed);
        let (contacts, ns) = tr.timed("mobility.stream", 0, |_| city.count_contacts());
        out.put("mobility.contacts", contacts as f64, "count");
        out.put("mobility.stream_s", ns as f64 / 1e9, "s");
        out.put("mobility.contacts_per_s", contacts as f64 / (ns as f64 / 1e9), "1/s");
    }

    // Measured phase: whole sweeps, timing every `advance` (one step of
    // the cursor plus all three maintainers). Rewinding is not timed.
    let budget = Budget::start(cfg);
    let (mut lat, mut sweep_s) = (Vec::new(), Vec::new());
    while budget.more(sweep_s.len(), lat.len()) {
        let ns = sweep(&mut tracked.cur, &mut Tracer::new(false), sp);
        sweep_s.push(ns.iter().sum::<f64>() / 1e9);
        lat.extend(ns);
    }
    let steps = f64::from(eg.horizon().saturating_sub(1));
    out.check(lat.len() as u64, 0);
    out.put("ops_per_s", steps / median(&sweep_s), "1/s");
    put_latency(&mut out, "op", &lat);
    out.put("sweep_s", median(&sweep_s), "s");
    out.put("sweeps", sweep_s.len() as f64, "passes");

    // Check every step against from-scratch structures (not timed), which
    // also measures the per-step rebuild floor and the churn.
    tracked.cur.reset();
    let mut rebuild_ns = [0u64; 3];
    let (mut delta, mut edges, mut checked, mut wrong) = (0usize, 0usize, 0u64, 0u64);
    loop {
        edges += tracked.cur.graph().edge_count();
        checked += 1;
        wrong += u64::from(!tracked.matches_scratch(tr, &mut rebuild_ns));
        if !tracked.cur.advance() {
            break;
        }
        let (c, t) = (tracked.cur.cursor(), tracked.cur.time());
        delta += c.appearing_at(t).len() + c.disappearing_at(t).len();
    }
    out.check(checked, wrong);
    out.put("temporal.delta_edges", delta as f64, "count");
    out.put("temporal.churn_ratio", ratio(delta as f64, edges as f64), "frac");
    for (k, name) in MAINTAINERS.iter().enumerate() {
        let touched = tracked.cur.maintainer(tracked.handles[k]).touched_nodes();
        out.put(&format!("maintain.{name}.touched"), touched as f64, "count");
        out.put(&format!("rebuild.{name}.s"), rebuild_ns[k] as f64 / 1e9, "s");
    }

    if tr.enabled() {
        per_maintainer(&mut out, tr, &eg, &rebuild_ns);
        // A traced three-maintainer sweep: per-step spans.
        let step_ms: Vec<f64> =
            sweep(&mut tracked.cur, tr, &mut Speed::off()).iter().map(|ns| ns / 1e6).collect();
        let overhead = overhead_frac(|t| {
            let t0 = Instant::now();
            sweep(&mut tracked.cur, t, &mut Speed::off());
            t0.elapsed().as_secs_f64()
        });
        out.put("trace.overhead_frac", overhead, "frac");
        let l = Latency::of(&step_ms);
        out.put("maintain.step_p50_ms", l.p50, "ms");
        out.put("maintain.step_p99_ms", l.tail(), "ms");
    }

    // The serving tail over the final snapshot, with the trace attached.
    let last = tracked.cur.graph().clone();
    let (idx, ns) = tr.timed("serve.build", 0, |_| {
        ServeIndex::build(last, &ServeConfig::default()).with_temporal(eg.clone())
    });
    out.put("serve.build_s", ns as f64 / 1e9, "s");
    out.put("heap_bytes_per_node", idx.heap_bytes() as f64 / n as f64, "B");
    out.put("serve.index_bytes", idx.heap_bytes() as f64, "B");
    let qs = WorkloadConfig {
        queries,
        seed: derive(cfg.seed, 4),
        safety_space: safety_space(&idx),
        journey_horizon: eg.horizon(),
        ..WorkloadConfig::default()
    }
    .generate(n)
    .queries;
    let (reference, ns, serial) = serial_pass(&idx, &qs, &mut Tracer::new(false), sp);
    out.check(qs.len() as u64, 0);
    put_latency(&mut out, "query", &ns);
    let (batched, wall, _) = batched_pass(&idx, &qs, &mut Tracer::new(false), sp);
    out.check(qs.len() as u64, mismatches(&reference, &batched));
    out.put("serve.serial_s", serial, "s");
    out.put("serve.batched_s", wall, "s");
    out.put("serve.shard_speedup", serial / wall, "x");
    serving_counters(&mut out, n, &qs, &reference);
    exact_truth_check(&mut out, &idx, &qs, 10);
    journey_check(&mut out, &eg, &qs, &reference);
    if tr.enabled() {
        traced_breakdown(&mut out, tr, &idx, &qs, &reference);
    }
    out
}

/// Advances three single-maintainer cursors and a bare snapshot cursor in
/// lockstep, each step a span, giving each maintainer's sweep time. A
/// maintainer's sweep includes the cursor step, so it is compared with the
/// cursor sweep plus that structure's per-step rebuilds.
fn per_maintainer(
    out: &mut Outcome,
    tr: &mut Tracer,
    eg: &TimeEvolvingGraph,
    rebuild_ns: &[u64; 3],
) {
    let mut singles = maintainers().map(|m| {
        let mut c = TrackedCursor::new(eg);
        c.register(m);
        c
    });
    let mut bare = eg.snapshot_cursor();
    let mut sums = [0u64; 4];
    for step in 1.. {
        let mut more = true;
        for (k, c) in singles.iter_mut().enumerate() {
            let (m, ns) = tr.timed(SINGLE_SPANS[k], step, |_| c.advance());
            sums[k] += ns;
            more &= m;
        }
        let (m, ns) = tr.timed("temporal.cursor", step, |_| bare.advance());
        sums[3] += ns;
        if !(more && m) {
            break;
        }
    }
    let cursor_s = sums[3] as f64 / 1e9;
    out.put("temporal.cursor_sweep_s", cursor_s, "s");
    for (k, name) in MAINTAINERS.iter().enumerate() {
        let s = sums[k] as f64 / 1e9;
        out.put(&format!("maintain.{name}.s"), s, "s");
        let floor = cursor_s + rebuild_ns[k] as f64 / 1e9;
        out.put(&format!("maintain.{name}.vs_rebuild"), ratio(s, floor), "x");
    }
}

/// Checks the first [`JOURNEY_CHECKS`] journey answers against the
/// heap-based earliest-arrival oracle.
fn journey_check(
    out: &mut Outcome,
    eg: &TimeEvolvingGraph,
    queries: &[Query],
    answers: &[Response],
) {
    let (mut checked, mut wrong) = (0u64, 0u64);
    for (q, r) in queries.iter().zip(answers) {
        if checked == JOURNEY_CHECKS {
            break;
        }
        if let Query::Journey { source, target, start } = *q {
            checked += 1;
            if *r != Response::Arrival(earliest_arrival(eg, source, start)[target]) {
                wrong += 1;
            }
        }
    }
    out.check(checked, wrong);
}

//! The per-figure / per-claim experiments (DESIGN.md §2) and their runner.
//!
//! Every experiment is a `fn(&mut Report)` registered in [`EXPERIMENTS`]
//! with its id, title, and the paper figure/claim it regenerates. The
//! runner executes any subset serially or on the work-stealing pool
//! ([`crate::pool`]), producing one [`ExperimentReport`] per experiment and
//! a [`RunSummary`] for the whole run. Rendered text is identical for
//! serial and parallel runs — timing goes to stderr and JSON only.
//! EXPERIMENTS.md records one captured run side by side with the paper's
//! qualitative statements.

use crate::pool;
use crate::report::{ExperimentReport, Report, RunSummary, TimingEntry};
use csn_core::graph::generators;
use csn_core::prelude::*;

/// A registered experiment: identity, provenance, and entry point.
pub struct Experiment {
    /// Short id used by `--exp` and in file names (`e1`, `e2`, …).
    pub id: &'static str,
    /// Human-readable title.
    pub title: &'static str,
    /// The paper figure/claim the experiment regenerates.
    pub paper_artifact: &'static str,
    /// The experiment body; writes its output into the report sink.
    pub run: fn(&mut Report),
}

/// The full experiment registry, in canonical (output) order.
pub const EXPERIMENTS: &[Experiment] = &[
    Experiment {
        id: "e1",
        title: "Interval graphs and interval hypergraphs of online sessions",
        paper_artifact: "Fig. 1",
        run: e1_interval_graphs,
    },
    Experiment {
        id: "e2",
        title: "VANET time-evolving graph and temporal path problems",
        paper_artifact: "Fig. 2",
        run: e2_fig2_temporal_paths,
    },
    Experiment {
        id: "e3",
        title: "Edge-Markovian dynamic graphs: flooding time (dynamic diameter)",
        paper_artifact: "§II-B dynamic diameter",
        run: e3_edge_markovian_diameter,
    },
    Experiment {
        id: "e4",
        title: "Static trimming rule: trimmed fraction vs density",
        paper_artifact: "Fig. 2c",
        run: e4_trimming_rule,
    },
    Experiment {
        id: "e5",
        title: "Forwarding sets: optimal time-varying set shrinks; strategy utilities",
        paper_artifact: "§II-B forwarding sets",
        run: e5_forwarding_sets,
    },
    Experiment {
        id: "e6",
        title: "NSF in a Gnutella-like overlay",
        paper_artifact: "Fig. 3",
        run: e6_nsf_gnutella,
    },
    Experiment {
        id: "e7",
        title: "Degree vs nested-degree level labelings",
        paper_artifact: "Fig. 7",
        run: e7_level_labelings,
    },
    Experiment {
        id: "e8",
        title: "Link reversal: reversals vs n, full vs partial vs labels",
        paper_artifact: "Fig. 4",
        run: e8_link_reversal,
    },
    Experiment {
        id: "e9",
        title: "Height-based max-flow: agreement and throughput of MPM / Dinic / push-relabel",
        paper_artifact: "§IV-A height functions",
        run: e9_maxflow,
    },
    Experiment {
        id: "e10",
        title: "Greedy routing at holes: Euclidean vs remapped coordinates",
        paper_artifact: "Fig. 5",
        run: e10_greedy_remapping,
    },
    Experiment {
        id: "e11",
        title: "F-space vs M-space routing on a social contact trace",
        paper_artifact: "Fig. 6",
        run: e11_fspace_routing,
    },
    Experiment {
        id: "e12",
        title: "Static labels: DS / CDS / MIS",
        paper_artifact: "Fig. 8",
        run: e12_static_labels,
    },
    Experiment {
        id: "e13",
        title: "Hypercube safety levels",
        paper_artifact: "Fig. 9",
        run: e13_safety_levels,
    },
    Experiment {
        id: "e14",
        title: "Dynamic MIS: adjustments per update stay O(1)",
        paper_artifact: "§IV-B dynamic labels",
        run: e14_dynamic_mis,
    },
    Experiment {
        id: "e15",
        title: "Kleinberg small-world: greedy hops vs exponent and size",
        paper_artifact: "§III-A small-world",
        run: e15_small_world,
    },
    Experiment {
        id: "e16",
        title: "Centrality measures on reference graphs",
        paper_artifact: "§III-A centrality",
        run: e16_centrality,
    },
    Experiment {
        id: "e17",
        title: "RWP inter-contact distributions vs exponential",
        paper_artifact: "§II-A mobility",
        run: e17_rwp_distributions,
    },
    Experiment {
        id: "e18",
        title: "Distributed Bellman-Ford: convergence and count-to-infinity",
        paper_artifact: "§IV-A distance labels",
        run: e18_bellman_ford,
    },
    Experiment {
        id: "e19",
        title: "Binary safety vectors vs safety levels",
        paper_artifact: "§IV-C extension",
        run: e19_safety_vectors,
    },
    Experiment {
        id: "e20",
        title: "View inconsistency: lossy MIS elections and repair",
        paper_artifact: "§IV-C",
        run: e20_view_inconsistency,
    },
    Experiment {
        id: "e21",
        title: "Probabilistic trimming",
        paper_artifact: "§III-A open question",
        run: e21_probabilistic_trimming,
    },
    Experiment {
        id: "e22",
        title: "Greedy spanners: size vs stretch",
        paper_artifact: "§III-A, [8]",
        run: e22_spanners,
    },
    Experiment {
        id: "e23",
        title: "Central control over distributed routing",
        paper_artifact: "§IV-C, [31]",
        run: e23_hybrid_control,
    },
    Experiment {
        id: "e24",
        title: "Carry-store-forward strategy ladder on time-evolving graphs",
        paper_artifact: "§II-B",
        run: e24_dtn_strategy_ladder,
    },
    Experiment {
        id: "e25",
        title: "Temporal small-world metrics: structure in time-and-space",
        paper_artifact: "§III-B question, [15]",
        run: e25_temporal_smallworld,
    },
    Experiment {
        id: "e26",
        title: "Labeling resilience under loss, churn, and reliable delivery",
        paper_artifact: "§IV-C",
        run: e26_labeling_resilience,
    },
    Experiment {
        id: "e27",
        title: "Pub-sub flooding on a Gnutella-like overlay under churn",
        paper_artifact: "§II-A P2P overlays + §IV-C",
        run: e27_pubsub_churn,
    },
    Experiment {
        id: "e28",
        title: "Generalized-hypercube routing under faults: F-space distances and disjoint paths",
        paper_artifact: "§III-C + §IV-A",
        run: e28_hypercube_routing,
    },
];

/// Selects the experiments whose id equals `filter` (empty = all), in
/// registry order.
pub fn select(filter: &str) -> Vec<&'static Experiment> {
    EXPERIMENTS.iter().filter(|e| filter.is_empty() || e.id == filter).collect()
}

/// Executes one experiment body into a fresh report sink, timing it.
pub fn run_experiment(exp: &Experiment) -> ExperimentReport {
    let mut body = Report::new();
    let t0 = std::time::Instant::now();
    (exp.run)(&mut body);
    ExperimentReport::new(exp.id, exp.title, exp.paper_artifact, t0.elapsed().as_secs_f64(), body)
}

/// Options for a full runner invocation.
pub struct RunOptions {
    /// Experiment id filter (empty = all).
    pub filter: String,
    /// Worker threads (`1` = serial on the calling thread).
    pub jobs: usize,
}

impl Default for RunOptions {
    fn default() -> Self {
        RunOptions { filter: String::new(), jobs: 1 }
    }
}

/// A completed run: per-experiment reports in registry order plus the
/// run-level summary.
pub struct RunOutcome {
    /// One report per selected experiment, in registry order.
    pub reports: Vec<ExperimentReport>,
    /// Timings, scheduling counters, and provenance for the whole run.
    pub summary: RunSummary,
}

/// Runs the selected experiments (serially or on the work-stealing pool)
/// and assembles reports plus a [`RunSummary`]. Does no I/O; rendering and
/// JSON writing are the caller's choice.
pub fn run_reports(opts: &RunOptions) -> RunOutcome {
    let selected = select(&opts.filter);
    let t0 = std::time::Instant::now();
    let (results, stats) = pool::run_indexed(selected.len(), opts.jobs, |i, worker| {
        (run_experiment(selected[i]), worker)
    });
    let total_wall_secs = t0.elapsed().as_secs_f64();

    let mut reports = Vec::with_capacity(results.len());
    let mut timings = Vec::with_capacity(results.len());
    for (report, worker) in results {
        timings.push(TimingEntry {
            id: report.id.clone(),
            wall_time_secs: report.wall_time_secs,
            worker,
        });
        reports.push(report);
    }
    let cpu_secs = timings.iter().map(|t| t.wall_time_secs).sum();
    let summary = RunSummary {
        schema: "structura-experiments-v1".to_string(),
        git_rev: git_rev(),
        jobs: opts.jobs,
        workers_used: stats.workers,
        detected_cores: pool::available_parallelism(),
        rng: "vendored xoshiro256** (fixed per-experiment seeds)".to_string(),
        experiments: reports.len(),
        total_wall_secs,
        cpu_secs,
        pool_steals: stats.steals,
        timings,
    };
    RunOutcome { reports, summary }
}

/// Serial text entry point (the classic CLI): renders each report to
/// stdout, timing lines to stderr.
pub fn run(filter: &str) {
    let outcome = run_reports(&RunOptions { filter: filter.to_string(), jobs: 1 });
    for report in &outcome.reports {
        print!("{}", report.render());
        eprintln!("  [{} took {:.1}s]", report.id, report.wall_time_secs);
    }
}

fn git_rev() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

/// E1 (Fig. 1): interval graphs and interval hypergraphs of online sessions.
pub fn e1_interval_graphs(out: &mut Report) {
    use csn_core::intersection::chordal::{is_chordal, is_interval_graph};
    use csn_core::intersection::hypergraph::IntervalHypergraph;
    use csn_core::intersection::interval::{fig1_example, interval_graph, max_overlap, Interval};
    use rand::{Rng, SeedableRng};

    out.line("Fig. 1 online social network (4 users):");
    let sessions = fig1_example();
    let g = interval_graph(&sessions);
    out.line(format!("  edges: {:?}", g.edges().collect::<Vec<_>>()));
    out.line(format!("  chordal: {}  interval: {}", is_chordal(&g), is_interval_graph(&g)));
    let hg = IntervalHypergraph::from_intervals(&sessions);
    out.line(format!("  hyperedges (maximal co-online groups): {:?}", hg.hyperedges()));

    out.line("hyperedge-cardinality distribution of random session logs:");
    out.line(format!("  {:>6} {:>8} {:>28}", "users", "edges", "cardinality histogram 2..6+"));
    let mut rng = rand::rngs::StdRng::seed_from_u64(7);
    for &n in &[50usize, 200, 1000] {
        let sessions: Vec<Interval> = (0..n)
            .map(|_| {
                let s = rng.gen::<f64>() * 100.0;
                Interval::new(s, s + rng.gen::<f64>() * 8.0)
            })
            .collect();
        let hg = IntervalHypergraph::from_intervals(&sessions);
        let hist = hg.cardinality_distribution();
        let mut row = [0usize; 5];
        for (k, &c) in hist.iter().enumerate().skip(2) {
            row[(k - 2).min(4)] += c;
        }
        out.line(format!(
            "  {n:>6} {:>8} {:>28?}  (max overlap {})",
            hg.hyperedges().len(),
            row,
            max_overlap(&sessions)
        ));
    }
}

/// E2 (Fig. 2): the VANET time-evolving graph and temporal path problems.
pub fn e2_fig2_temporal_paths(out: &mut Report) {
    use csn_core::temporal::journey::*;
    use csn_core::temporal::paper::*;

    let eg = fig2_example();
    out.line("Fig. 2(c) label sets:");
    for (x, y, name) in [(A, B, "A-B"), (B, C, "B-C"), (A, D, "A-D"), (B, D, "B-D"), (C, D, "C-D")]
    {
        out.line(format!("  {name}: {:?}", eg.labels(x, y).unwrap()));
    }
    out.line(format!(
        "A connected to C at starting times: {:?}",
        (0..eg.horizon()).filter(|&t| is_connected_at(&eg, A, C, t)).collect::<Vec<_>>()
    ));
    // Tracked sweep: one maintained snapshot with the k-core maintainer
    // riding along — O(Δ_t) edge updates per step plus one decomposition
    // per step that changed the graph, instead of rebuilding each snapshot
    // before decomposing it.
    let mut cur = csn_core::temporal::TrackedCursor::new(&eg);
    let cores = cur.register(Box::new(csn_core::graph::cores::IncrementalCores::default()));
    let mut instantaneous = false;
    loop {
        let inc: &csn_core::graph::cores::IncrementalCores = cur.view(cores).expect("registered");
        debug_assert_eq!(
            inc.core_numbers(),
            csn_core::graph::cores::core_numbers(cur.graph()).as_slice()
        );
        if csn_core::graph::traversal::bfs_distances(cur.graph(), A)[C] != usize::MAX {
            instantaneous = true;
            break;
        }
        if !cur.advance() {
            break;
        }
    }
    out.line(format!("instantaneous A-C path at any time unit: {instantaneous}"));
    out.line(format!(
        "{:>8} {:>22} {:>12} {:>16}",
        "start", "earliest-completion", "min-hop", "fastest (span)"
    ));
    for start in 0..6 {
        let fm = foremost_journey(&eg, A, C, start).map(|j| j.last_label());
        let mh = min_hop_journey(&eg, A, C, start).map(|j| j.hop_count());
        let fs = fastest_journey(&eg, A, C, start).map(|j| j.span());
        out.line(format!("  {start:>6} {fm:>22?} {mh:>12?} {fs:>16?}"));
    }
}

/// E3: edge-Markovian dynamic graphs — flooding time (dynamic diameter).
pub fn e3_edge_markovian_diameter(out: &mut Report) {
    use csn_core::temporal::markovian::{mean_flooding_time, EdgeMarkovian};

    out.line("flooding time vs n (p=0.5, q chosen for expected degree ~ 3):");
    out.line(format!("  {:>6} {:>10} {:>14}", "n", "density", "flooding time"));
    for &n in &[64usize, 128, 256, 512] {
        let q = 0.5 * 3.0 / (n as f64 - 3.0);
        let m = EdgeMarkovian::new(n, 0.5, q);
        let ft = mean_flooding_time(&m, 200, 5, 42).unwrap_or(f64::NAN);
        out.line(format!("  {n:>6} {:>10.4} {ft:>14.1}", m.stationary_density()));
    }
    out.line("flooding time vs birth rate q (n=128, p=0.5):");
    out.line(format!("  {:>8} {:>10} {:>14}", "q", "density", "flooding time"));
    for &q in &[0.002f64, 0.005, 0.02, 0.1] {
        let m = EdgeMarkovian::new(128, 0.5, q);
        let ft = mean_flooding_time(&m, 400, 5, 43).unwrap_or(f64::NAN);
        out.line(format!("  {q:>8.3} {:>10.4} {ft:>14.1}", m.stationary_density()));
    }
}

/// E4 (Fig. 2c): the static trimming rule — trimmed fraction vs density.
pub fn e4_trimming_rule(out: &mut Report) {
    use csn_core::temporal::journey::earliest_arrival;
    use csn_core::trimming::static_rule::{earliest_arrival_trimmed, trim_arcs};
    use rand::{Rng, SeedableRng};

    // The paper's worked example first.
    let eg = csn_core::temporal::paper::fig2_example();
    let report = trim_arcs(&eg, &[40, 30, 20, 10], csn_core::trimming::TrimOptions::default());
    out.line(format!(
        "Fig. 2(c): removed transit arcs {:?} (A ignores D, as the paper says)",
        report.removed_arcs
    ));

    out.line("random periodic EGs (n=12, horizon 16): trimmed arcs vs density");
    out.line(format!(
        "  {:>8} {:>8} {:>10} {:>14} {:>10}",
        "density", "arcs", "removed", "fraction", "ECT ok"
    ));
    let mut rng = rand::rngs::StdRng::seed_from_u64(9);
    for &density in &[0.2f64, 0.4, 0.6, 0.8] {
        let n = 12;
        let horizon = 16;
        let mut eg = TimeEvolvingGraph::new(n, horizon);
        for u in 0..n {
            for v in (u + 1)..n {
                if rng.gen::<f64>() < density {
                    eg.add_periodic(u, v, rng.gen_range(0..horizon), rng.gen_range(2..6));
                }
            }
        }
        let priority: Vec<u64> = (0..n as u64).map(|i| (i * 31) % 101).collect();
        let report = trim_arcs(&eg, &priority, csn_core::trimming::TrimOptions::default());
        let removed: std::collections::HashSet<_> = report.removed_arcs.iter().copied().collect();
        let arcs = eg.edge_count() * 2;
        // Verify preservation.
        let mut ok = true;
        for s in 0..n {
            for start in [0, 8] {
                let plain = earliest_arrival(&eg, s, start);
                for d in 0..n {
                    if s != d && plain[d] != earliest_arrival_trimmed(&eg, &removed, s, d, start) {
                        ok = false;
                    }
                }
            }
        }
        out.line(format!(
            "  {density:>8.1} {arcs:>8} {:>10} {:>14.2} {ok:>10}",
            report.removed_arcs.len(),
            report.removed_arcs.len() as f64 / arcs.max(1) as f64
        ));
    }
}

/// E5: forwarding sets — optimal time-varying set shrinks; strategy utilities.
pub fn e5_forwarding_sets(out: &mut Report) {
    use csn_core::trimming::forwarding::*;

    let utility = LinearUtility { u0: 100.0, c: 1.0 };
    let relays = vec![
        Relay { rate_from_source: 0.05, rate_to_dest: 0.5 },
        Relay { rate_from_source: 0.05, rate_to_dest: 0.1 },
        Relay { rate_from_source: 0.05, rate_to_dest: 0.03 },
        Relay { rate_from_source: 0.05, rate_to_dest: 0.01 },
    ];
    let cost = 10.0;
    let policy = solve_forwarding_policy(0.02, &relays, utility, cost, 0.1);
    out.line(format!(
        "optimal time-varying forwarding set (monotone: {}):",
        policy.sets_shrink_monotonically()
    ));
    for t in [0.0, 20.0, 40.0, 60.0, 80.0, 95.0] {
        out.line(format!(
            "  t={t:>5.0}: set {:?}  V_s={:.1}",
            policy.set_at(t),
            policy.value[((t / policy.dt) as usize).min(policy.value.len() - 1)]
        ));
    }
    out.line("mean net utility by strategy (4000 trials):");
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
    for (name, s) in [
        ("direct-only", Strategy::DirectOnly),
        ("first-contact", Strategy::FirstContact),
        ("optimal-set", Strategy::OptimalSet),
    ] {
        let u = mean(&simulate_strategy(s, 0.02, &relays, utility, cost, 4000, 7));
        out.line(format!("  {name:>14}: {u:>7.2}"));
    }
    out.line(format!("copy-varying spray sets: {:?}", copy_varying_sets(&relays, 4)));
}

/// E6 (Fig. 3): NSF in a Gnutella-like overlay.
pub fn e6_nsf_gnutella(out: &mut Report) {
    use csn_core::layering::nsf::{nsf_report, top_fraction_mask};

    let g = generators::gnutella_like(8000, 3, 0.05, 17).expect("params");
    let report = nsf_report(&g, 400, 60);
    out.line(format!("Gnutella-like overlay, n = {}:", g.node_count()));
    out.line(format!("  {:>6} {:>8} {:>8} {:>8}", "peel", "alpha", "tail", "KS"));
    for (i, f) in report.fits.iter().enumerate() {
        out.line(format!("  {i:>6} {:>8.2} {:>8} {:>8.3}", f.alpha, f.tail_len, f.ks));
    }
    out.line(format!(
        "  exponent std-dev {:.3} (NSF condition (2): o(1))",
        report.exponent_std_dev
    ));
    let mask = top_fraction_mask(&g, 0.5);
    let (half, _) = g.induced_subgraph(&mask);
    let rep_half = nsf_report(&half, 400, 60);
    if let Some(f) = rep_half.fits.first() {
        out.line(format!(
            "  Fig. 3(b) top-50% subgraph: n = {}, alpha = {:.2}",
            half.node_count(),
            f.alpha
        ));
    }
    // Control: Erdős–Rényi fails the SF fit.
    let er = generators::erdos_renyi(8000, 3.0 / 4000.0, 13).expect("params");
    let er_rep = nsf_report(&er, 400, 60);
    let worst = er_rep.fits.first().map(|f| f.ks).unwrap_or(f64::NAN);
    out.line(format!(
        "  control (ER, same density): KS = {worst:.3} (vs SF {:.3})",
        report.fits.first().map(|f| f.ks).unwrap_or(f64::NAN)
    ));

    // Churn tracking: turn a smaller overlay's edges into contacts (every
    // 5th one periodic, the rest always-on) and *maintain* the NSF levels
    // across the sweep: the maintainer re-peels each snapshot whose edges
    // changed, once per delta batch, with buffers reused across steps.
    use csn_core::layering::nsf::IncrementalNsf;
    use csn_core::temporal::{TimeEvolvingGraph, TrackedCursor};
    let small = generators::gnutella_like(600, 3, 0.05, 17).expect("params");
    let horizon = 32u32;
    let mut eg = TimeEvolvingGraph::new(small.node_count(), horizon);
    for (i, (u, v)) in small.edges().enumerate() {
        if i % 5 == 0 {
            eg.add_periodic(u, v, (i as u32 / 5) % 4, 4); // flickering contact
        } else {
            eg.add_periodic(u, v, 0, 1); // always on
        }
    }
    let mut cur = TrackedCursor::new(&eg);
    let h = cur.register(Box::new(IncrementalNsf::default()));
    out.line(format!(
        "  NSF levels maintained under churn (n = {}, horizon {horizon}, every 5th contact flickers):",
        small.node_count()
    ));
    out.line(format!("  {:>6} {:>10} {:>10}", "t", "top level", "top count"));
    // A from-scratch `nsf_levels` at time t examines each node once per
    // round until it is assigned, Σ_u level_t(u) nodes, so per-t rebuilds
    // over the sweep examine Σ_t Σ_u level_t(u); the maintainer counts the
    // same unit for the steps that changed the graph.
    let mut rebuild_visits: u64 = 0;
    loop {
        if cur.time().is_multiple_of(8) {
            let inc: &IncrementalNsf = cur.view(h).expect("registered");
            out.line(format!(
                "  {:>6} {:>10} {:>10}",
                cur.time(),
                inc.top_level(),
                inc.top_level_count()
            ));
        }
        if !cur.advance() {
            break;
        }
        let inc: &IncrementalNsf = cur.view(h).expect("registered");
        rebuild_visits += inc.nsf_levels().iter().sum::<usize>() as u64;
    }
    let steps = u64::from(horizon) - 1;
    out.line(format!(
        "  per-batch re-peels touched {} nodes over {steps} steps (per-t rebuilds examine {} nodes)",
        cur.touched_nodes(),
        rebuild_visits
    ));
}

/// E7 (Fig. 7): degree vs nested-degree level labelings.
pub fn e7_level_labelings(out: &mut Report) {
    use csn_core::layering::nsf::{degree_levels, nsf_levels, top_level_count};

    out.line(format!(
        "{:>10} {:>16} {:>16} {:>14} {:>14}",
        "graph", "plain top-count", "nested top-count", "plain levels", "nested levels"
    ));
    for (name, g) in [
        ("BA(2000,3)", generators::barabasi_albert(2000, 3, 5).unwrap()),
        ("WS(2000)", generators::watts_strogatz(2000, 3, 0.1, 5).unwrap()),
        ("grid 45x45", generators::grid(45, 45)),
    ] {
        // Freeze once per graph: the labelings are read-only passes, and the
        // frozen form preserves neighbor order, so the output text is unchanged.
        let g = g.freeze().expect("fits u32");
        let plain = degree_levels(&g);
        let nested = nsf_levels(&g);
        out.line(format!(
            "{name:>10} {:>16} {:>16} {:>14} {:>14}",
            top_level_count(&plain),
            top_level_count(&nested),
            plain.iter().max().unwrap(),
            nested.iter().max().unwrap()
        ));
    }
}

/// E8 (Fig. 4): link reversal — reversals vs n, full vs partial vs labels.
pub fn e8_link_reversal(out: &mut Report) {
    use csn_core::layering::link_reversal::*;

    out.line("adversarial chain: total link reversals (the O(n²) of §IV-B)");
    out.line(format!("  {:>6} {:>12} {:>12} {:>10}", "n", "full", "partial", "full/n²"));
    for &n in &[8usize, 16, 32, 64, 128] {
        let (g, h, dest) = adversarial_chain(n);
        let mut full = BinaryLabelReversal::from_heights(&g, &h, dest, LabelInit::Full);
        let mut part = BinaryLabelReversal::from_heights(&g, &h, dest, LabelInit::Partial);
        let sf = full.run(10_000_000);
        let sp = part.run(10_000_000);
        out.line(format!(
            "  {n:>6} {:>12} {:>12} {:>10.3}",
            sf.link_reversals,
            sp.link_reversals,
            sf.link_reversals as f64 / (n * n) as f64
        ));
    }
    out.line("random connected graphs, one failed link (20 trials, n=40):");
    use rand::{Rng, SeedableRng};
    let mut rng = rand::rngs::StdRng::seed_from_u64(3);
    let mut totals = (0usize, 0usize);
    let mut trials = 0;
    for t in 0..20 {
        let g0 = generators::erdos_renyi(40, 0.12, 800 + t).unwrap();
        let mask = csn_core::graph::traversal::largest_component_mask(&g0);
        let (g, _) = g0.induced_subgraph(&mask);
        if g.node_count() < 10 {
            continue;
        }
        let heights: Vec<i64> = (0..g.node_count() as i64).collect();
        // Fail a link incident to the destination: the disruptive case.
        let edges: Vec<_> = g.edges().filter(|&(a, b)| a == 0 || b == 0).collect();
        if edges.is_empty() {
            continue;
        }
        let (u, v) = edges[rng.gen_range(0..edges.len())];
        for (init, slot) in [(LabelInit::Full, 0), (LabelInit::Partial, 1)] {
            let mut m = BinaryLabelReversal::from_heights(&g, &heights, 0, init);
            m.run(10_000_000);
            m.remove_link(u, v);
            let stats = m.run(10_000_000);
            if slot == 0 {
                totals.0 += stats.link_reversals;
            } else {
                totals.1 += stats.link_reversals;
            }
        }
        trials += 1;
    }
    out.line(format!(
        "  mean reversals after failure: full {:.1}, partial {:.1}",
        totals.0 as f64 / trials as f64,
        totals.1 as f64 / trials as f64
    ));
}

/// E9: height-based max-flow — agreement and throughput of MPM / Dinic /
/// push–relabel.
pub fn e9_maxflow(out: &mut Report) {
    use csn_core::layering::maxflow::{dinic, mpm, push_relabel};
    use rand::{Rng, SeedableRng};
    use std::time::Instant;

    // Timings are nondeterministic, so they go to the metrics channel
    // (JSON only); the rendered text stays byte-stable across runs.
    out.line(format!("{:>6} {:>10} {:>12} {:>8}", "n", "arcs", "maxflow", "agree"));
    let mut rng = rand::rngs::StdRng::seed_from_u64(5);
    for &n in &[50usize, 100, 200] {
        let mut g = WeightedDigraph::new(n);
        for u in 0..n {
            for v in 0..n {
                if u != v && rng.gen::<f64>() < 0.1 {
                    g.add_arc(u, v, rng.gen_range(1..50) as f64);
                }
            }
        }
        let t0 = Instant::now();
        let d = dinic(&g, 0, n - 1);
        let td = t0.elapsed().as_secs_f64() * 1e3;
        let t0 = Instant::now();
        let m = mpm(&g, 0, n - 1);
        let tm = t0.elapsed().as_secs_f64() * 1e3;
        let t0 = Instant::now();
        let p = push_relabel(&g, 0, n - 1);
        let tp = t0.elapsed().as_secs_f64() * 1e3;
        out.metric(format!("dinic_ms_n{n}"), td);
        out.metric(format!("mpm_ms_n{n}"), tm);
        out.metric(format!("push_relabel_ms_n{n}"), tp);
        out.line(format!(
            "  {n:>4} {:>10} {d:>12.1} {:>8}",
            g.arc_count(),
            (d - m).abs() < 1e-6 && (d - p).abs() < 1e-6
        ));
    }
}

/// E10 (Fig. 5): greedy routing at holes — Euclidean vs remapped coordinates.
pub fn e10_greedy_remapping(out: &mut Report) {
    use csn_core::remapping::geo::*;
    use csn_core::remapping::hyperbolic::{delivery_ratio, HyperbolicEmbedding, TreeCoordinates};

    out.line(format!(
        "{:>6} {:>12} {:>12} {:>14} {:>12}",
        "seed", "nodes", "euclidean", "hyperbolic", "tree-remap"
    ));
    for seed in [5u64, 6, 7] {
        let pd = perforated_disk(700, 0.07, &fig5_holes(), seed);
        let euclid = greedy_delivery_stats(&pd.graph, &pd.positions, 400, 9);
        let emb = HyperbolicEmbedding::new(&pd.graph, 0, 1.0);
        let hyper =
            delivery_ratio(&pd.graph, |s, t| emb.greedy_route(&pd.graph, s, t).is_some(), 400, 9);
        let tc = TreeCoordinates::new(&pd.graph, 0);
        let tree = delivery_ratio(
            &pd.graph,
            |s, t| *tc.greedy_route(&pd.graph, s, t).last().expect("nonempty") == t,
            400,
            9,
        );
        out.line(format!(
            "  {seed:>4} {:>12} {:>12.3} {:>14.3} {:>12.3}",
            pd.graph.node_count(),
            euclid.delivery_ratio,
            hyper,
            tree
        ));
    }
}

/// E11 (Fig. 6): F-space vs M-space routing on a social contact trace.
pub fn e11_fspace_routing(out: &mut Report) {
    use csn_core::mobility::social::{Population, SocialContactModel};
    use csn_core::remapping::fspace::*;

    out.line(format!(
        "{:>8} {:>15} {:>10} {:>12} {:>8}",
        "beta", "strategy", "delivery", "latency", "copies"
    ));
    for &beta in &[0.4f64, 1.0, 1.6] {
        let pop = Population::random(40, &Population::fig6_radix(), 11);
        let model = SocialContactModel { base_rate: 1.0 / 50.0, beta, mean_duration: 10.0 };
        let trace = model.simulate(&pop, 10_000.0, 3);
        for (name, s) in [
            ("direct-wait", MSpaceStrategy::DirectWait),
            ("epidemic", MSpaceStrategy::Epidemic),
            ("feature-greedy", MSpaceStrategy::FeatureGreedy),
        ] {
            let st = evaluate_strategy(&trace, &pop, s, 60, 5);
            out.line(format!(
                "  {beta:>6.1} {name:>15} {:>9.1}% {:>12.0} {:>8.1}",
                st.delivery_ratio * 100.0,
                st.mean_latency,
                st.mean_copies
            ));
        }
    }
    let a = vec![0usize, 0, 0];
    let b = vec![1usize, 1, 2];
    out.line(format!(
        "node-disjoint F-space paths {a:?} -> {b:?}: {} (= feature distance)",
        node_disjoint_paths(&a, &b).len()
    ));
}

/// E12 (Fig. 8): static labels — DS / CDS / MIS.
pub fn e12_static_labels(out: &mut Report) {
    use csn_core::labeling::cds::*;
    use csn_core::labeling::mis::*;
    use csn_core::labeling::{paper_fig8, paper_fig8_priorities};

    let g = paper_fig8();
    let p = paper_fig8_priorities();
    let names = ["A", "B", "C", "D", "E", "F"];
    let show = |mask: &[bool]| {
        mask.iter()
            .enumerate()
            .filter(|&(_i, &b)| b)
            .map(|(i, &_b)| names[i])
            .collect::<Vec<_>>()
            .join(", ")
    };
    out.line("Fig. 8 example:");
    out.line(format!("  marking (black):        {}", show(&marking(&g))));
    out.line(format!("  pruned CDS:             {}", show(&marked_and_pruned_cds(&g, &p))));
    let mis = mis_distributed(&g, &p);
    out.line(format!("  MIS ({} rounds):         {}", mis.rounds, show(&mis.mis)));
    out.line(format!("  neighbor-designated DS: {}", show(&neighbor_designated_ds(&g, &p))));

    out.line("random UDGs (largest component): sizes and MIS rounds");
    out.line(format!(
        "  {:>6} {:>8} {:>8} {:>8} {:>8} {:>8}",
        "n", "marked", "pruned", "MIS", "rounds", "|MIS|<=5|CDS|"
    ));
    for seed in 0..4 {
        let gg = generators::random_geometric(250, 0.15, seed);
        let mask = csn_core::graph::traversal::largest_component_mask(&gg.graph);
        let (g, _) = gg.graph.induced_subgraph(&mask);
        let priority: Vec<u64> = (0..g.node_count() as u64).collect();
        let black = marking(&g);
        let pruned = prune(&g, &black, &priority);
        let mis = mis_distributed(&g, &priority);
        let nb = black.iter().filter(|&&b| b).count();
        let np = pruned.iter().filter(|&&b| b).count();
        let nm = mis.mis.iter().filter(|&&b| b).count();
        out.line(format!(
            "  {:>6} {nb:>8} {np:>8} {nm:>8} {:>8} {:>8}",
            g.node_count(),
            mis.rounds,
            nm <= 5 * np.max(1)
        ));
    }
}

/// E13 (Fig. 9): hypercube safety levels.
pub fn e13_safety_levels(out: &mut Report) {
    use csn_core::labeling::safety::SafetyLevels;
    use rand::{Rng, SeedableRng};

    let mut faulty = vec![false; 16];
    for f in [0b1000usize, 0b1011, 0b0011] {
        faulty[f] = true;
    }
    let sl = SafetyLevels::compute(4, &faulty);
    out.line("Fig. 9 4-cube: levels (f = faulty):");
    let mut row = String::new();
    for u in 0..16usize {
        let l = if sl.is_faulty(u) { String::from("f") } else { sl.level(u).to_string() };
        row.push_str(&format!("  {u:04b}:{l:<3}"));
        if u % 8 == 7 {
            out.line(std::mem::take(&mut row));
        }
    }
    let path = sl.route(0b1101, 0b0001).expect("route");
    out.line(format!(
        "  1101 -> 0001 via {:04b} (levels: 0101 = {}, 1001 = {})",
        path[1],
        sl.level(0b0101),
        sl.level(0b1001)
    ));

    out.line("promised-route optimality & convergence rounds (6-cube):");
    out.line(format!(
        "  {:>8} {:>10} {:>12} {:>12}",
        "faults", "safe nodes", "rounds", "optimal %"
    ));
    let mut rng = rand::rngs::StdRng::seed_from_u64(5);
    let dims = 6u32;
    let n = 1usize << dims;
    for &faults in &[1usize, 4, 8, 16] {
        let mut safe = 0usize;
        let mut rounds = 0usize;
        let mut optimal = 0usize;
        let mut total = 0usize;
        for _ in 0..10 {
            let mut fm = vec![false; n];
            let mut placed = 0;
            while placed < faults {
                let f = rng.gen_range(0..n);
                if !fm[f] {
                    fm[f] = true;
                    placed += 1;
                }
            }
            let sl = SafetyLevels::compute(dims, &fm);
            safe += (0..n).filter(|&u| sl.is_safe(u)).count();
            rounds = rounds.max(sl.rounds_used());
            for _ in 0..200 {
                let s = rng.gen_range(0..n);
                let t = rng.gen_range(0..n);
                if s == t || fm[s] || fm[t] {
                    continue;
                }
                let h = (s ^ t).count_ones();
                if h > sl.level(s) {
                    continue;
                }
                total += 1;
                if sl.route(s, t).map(|p| p.len() as u32 - 1) == Some(h) {
                    optimal += 1;
                }
            }
        }
        out.line(format!(
            "  {faults:>8} {:>10.1} {rounds:>12} {:>11.1}%",
            safe as f64 / 10.0,
            100.0 * optimal as f64 / total.max(1) as f64
        ));
    }
}

/// E14: dynamic MIS — adjustments per update stay O(1).
pub fn e14_dynamic_mis(out: &mut Report) {
    use csn_core::labeling::dynamic_mis::DynamicMis;
    use rand::{Rng, SeedableRng};

    out.line(format!("{:>8} {:>16} {:>14}", "n", "adjust/update", "touched/update"));
    for &n in &[100usize, 400, 1600, 6400] {
        let g = generators::erdos_renyi(n, 8.0 / n as f64, n as u64).unwrap();
        let mut dm = DynamicMis::new(g, 77);
        let mut rng = rand::rngs::StdRng::seed_from_u64(99);
        let updates = 300;
        let mut adj = 0usize;
        let mut touched = 0usize;
        for i in 0..updates {
            if i % 3 == 2 {
                let u = rng.gen_range(0..dm.graph().node_count());
                let s = dm.delete_node(u);
                adj += s.adjustments;
                touched += s.touched;
            } else {
                let sz = dm.graph().node_count();
                let mut nbrs = Vec::new();
                while nbrs.len() < 4.min(sz) {
                    let v = rng.gen_range(0..sz);
                    if !nbrs.contains(&v) {
                        nbrs.push(v);
                    }
                }
                let (_, s) = dm.insert_node(&nbrs);
                adj += s.adjustments;
                touched += s.touched;
            }
        }
        out.line(format!(
            "  {n:>8} {:>16.2} {:>14.2}",
            adj as f64 / updates as f64,
            touched as f64 / updates as f64
        ));
    }
}

/// E15: Kleinberg small-world — greedy hops vs exponent and size.
pub fn e15_small_world(out: &mut Report) {
    use csn_core::remapping::smallworld::exponent_sweep;

    let alphas = [0.0, 1.0, 2.0, 3.0];
    out.line("mean greedy hops (q=1 long-range contact per node):");
    out.line(format!("  {:>8} {:>8} {:>8} {:>8} {:>8}", "side", "α=0", "α=1", "α=2", "α=3"));
    for &side in &[25usize, 50, 100] {
        let hops = exponent_sweep(side, 1, &alphas, 300, 7);
        out.line(format!(
            "  {side:>8} {:>8.1} {:>8.1} {:>8.1} {:>8.1}",
            hops[0], hops[1], hops[2], hops[3]
        ));
    }
}

/// E16: centrality measures on reference graphs.
pub fn e16_centrality(out: &mut Report) {
    use csn_core::graph::centrality::*;

    let g = generators::barabasi_albert(1000, 3, 3).unwrap();
    // The three undirected measures run on the frozen form (identical
    // results — freezing preserves neighbor order); PageRank on the digraph.
    let frozen = g.freeze().expect("fits u32");
    let deg = degree_centrality(&frozen);
    let bc = betweenness_centrality(&frozen);
    let ec = eigenvector_centrality(&frozen, 2000, 1e-10).expect("converges");
    let (pr, iters) = pagerank(&g.to_digraph(), 0.85, 200, 1e-10);
    // Rank correlation proxy: top-10 overlap between measures.
    let top = |v: &[f64]| {
        let mut idx: Vec<usize> = (0..v.len()).collect();
        idx.sort_by(|&a, &b| v[b].partial_cmp(&v[a]).expect("finite"));
        idx.into_iter().take(10).collect::<std::collections::HashSet<_>>()
    };
    let td = top(&deg);
    out.line("BA(1000, 3): top-10 overlap with degree centrality:");
    out.line(format!("  betweenness: {}/10", top(&bc).intersection(&td).count()));
    out.line(format!("  eigenvector: {}/10", top(&ec).intersection(&td).count()));
    out.line(format!(
        "  pagerank:    {}/10 ({} iterations)",
        top(&pr).intersection(&td).count(),
        iters
    ));
}

/// E17: RWP inter-contact distributions vs exponential.
pub fn e17_rwp_distributions(out: &mut Report) {
    use csn_core::mobility::rwp::RandomWaypoint;
    use csn_core::mobility::stats::*;

    let mut model = RandomWaypoint::default_config(40);
    model.range = 0.12;
    out.line(format!("{:>22} {:>8} {:>10} {:>8} {:>8}", "model", "gaps", "mean (s)", "KS", "CV"));
    let bounded = model.simulate(10_000.0, 11);
    let g1 = bounded.inter_contact_times();
    let f1 = fit_exponential(&g1).expect("positive");
    out.line(format!(
        "  {:>20} {:>8} {:>10.1} {:>8.3} {:>8.2}",
        "bounded RWP",
        g1.len(),
        mean(&g1),
        f1.ks,
        coefficient_of_variation(&g1)
    ));
    let unbounded = model.simulate_unbounded(10_000.0, 0.1, 0.5, 11);
    let g2 = unbounded.inter_contact_times();
    let f2 = fit_exponential(&g2).expect("positive");
    out.line(format!(
        "  {:>20} {:>8} {:>10.1} {:>8.3} {:>8.2}",
        "boundaryless RWP",
        g2.len(),
        mean(&g2),
        f2.ks,
        coefficient_of_variation(&g2)
    ));
    // Control: a homogeneous Poisson contact process IS exponential (a
    // uniform-profile population, so every pair shares one contact rate —
    // pooling heterogeneous rates would yield a non-exponential mixture).
    use csn_core::mobility::social::{FeatureProfile, Population, SocialContactModel};
    let same = FeatureProfile { values: vec![0, 0, 0] };
    let pop = Population::from_profiles(&[2, 2, 3], vec![same; 40]);
    let sm = SocialContactModel::default_config();
    let trace = sm.simulate(&pop, 60_000.0, 5);
    let g3 = trace.inter_contact_times();
    let f3 = fit_exponential(&g3).expect("positive");
    out.line(format!(
        "  {:>20} {:>8} {:>10.1} {:>8.3} {:>8.2}",
        "Poisson control",
        g3.len(),
        mean(&g3),
        f3.ks,
        coefficient_of_variation(&g3)
    ));
}

/// E18: distributed Bellman–Ford — convergence and count-to-infinity.
pub fn e18_bellman_ford(out: &mut Report) {
    use csn_core::labeling::bellman_ford::{run, run_with_failure};

    out.line("cold-start convergence (ER graphs, horizon 64):");
    out.line(format!("  {:>6} {:>8} {:>10}", "n", "rounds", "messages"));
    for &n in &[50usize, 100, 200] {
        let g0 = generators::erdos_renyi(n, 2.5 / n as f64 * 2.0, n as u64).unwrap();
        let mask = csn_core::graph::traversal::largest_component_mask(&g0);
        let (g, _) = g0.induced_subgraph(&mask);
        let bf = run(&g, 0, 64, 10_000);
        out.metric(format!("rounds_n{n}"), bf.rounds as f64);
        out.metric(format!("messages_n{n}"), bf.messages as f64);
        out.line(format!("  {:>6} {:>8} {:>10}", g.node_count(), bf.rounds, bf.messages));
    }
    out.line("link-failure re-convergence:");
    let path = generators::path(3);
    let (_, after) = run_with_failure(&path, 0, 32, (0, 1), 10_000);
    out.line(format!(
        "  stranded path (count-to-infinity, horizon 32): {} rounds, {} messages",
        after.rounds, after.messages
    ));
    let cyc = generators::cycle(12);
    let (_, after) = run_with_failure(&cyc, 0, 64, (0, 1), 10_000);
    out.line(format!(
        "  cycle with alternate route: {} rounds, {} messages",
        after.rounds, after.messages
    ));
}

/// E19 (extension, §IV-C): binary safety vectors vs safety levels.
pub fn e19_safety_vectors(out: &mut Report) {
    use csn_core::labeling::safety::SafetyLevels;
    use csn_core::labeling::safety_vector::SafetyVectors;
    use rand::{Rng, SeedableRng};

    out.line("extra routes certified by vectors over levels (5-cube, 20 trials/row):");
    out.line(format!(
        "  {:>8} {:>16} {:>18} {:>12}",
        "faults", "level promises", "vector promises", "gain"
    ));
    let dims = 5u32;
    let n = 1usize << dims;
    let mut rng = rand::rngs::StdRng::seed_from_u64(3);
    for &faults in &[2usize, 4, 8] {
        let mut lvl_promises = 0usize;
        let mut vec_promises = 0usize;
        for _ in 0..20 {
            let mut fm = vec![false; n];
            let mut placed = 0;
            while placed < faults {
                let f = rng.gen_range(0..n);
                if !fm[f] {
                    fm[f] = true;
                    placed += 1;
                }
            }
            let sl = SafetyLevels::compute(dims, &fm);
            let sv = SafetyVectors::compute(dims, &fm);
            for s in 0..n {
                if fm[s] {
                    continue;
                }
                for t in 0..n {
                    if s == t || fm[t] {
                        continue;
                    }
                    let h = (s ^ t).count_ones();
                    if h <= sl.level(s) {
                        lvl_promises += 1;
                    }
                    if sv.bit(s, h) {
                        vec_promises += 1;
                    }
                }
            }
        }
        out.line(format!(
            "  {faults:>8} {lvl_promises:>16} {vec_promises:>18} {:>11.1}%",
            100.0 * (vec_promises as f64 - lvl_promises as f64) / lvl_promises.max(1) as f64
        ));
    }
}

/// E20 (§IV-C): view inconsistency — lossy MIS elections and repair.
pub fn e20_view_inconsistency(out: &mut Report) {
    use csn_core::labeling::inconsistency::inconsistency_sweep;

    let g = generators::erdos_renyi(100, 0.1, 5).expect("params");
    let priority: Vec<u64> = (0..100).map(|i| (i * 37) % 1009).collect();
    let sweep = inconsistency_sweep(&g, &priority, &[0.0, 0.1, 0.3, 0.5, 0.7], 25, 7);
    out.line("lossy MIS elections (ER n=100, 25 trials per row):");
    out.line(format!(
        "  {:>10} {:>18} {:>22}",
        "drop prob", "conflicts/run", "uncovered after repair"
    ));
    for (p, conflicts, uncovered) in sweep {
        out.line(format!("  {p:>10.1} {conflicts:>18.2} {uncovered:>22.2}"));
    }
}

/// E21 (§III-A open question): probabilistic trimming.
pub fn e21_probabilistic_trimming(out: &mut Report) {
    use csn_core::trimming::probabilistic::{trim_arcs_probabilistic, ProbabilisticEg};

    let eg = csn_core::temporal::paper::fig2_example();
    out.line("Fig. 2(c) under probabilistic contacts (epsilon = tolerated delivery loss):");
    out.line(format!(
        "  {:>8} {:>8} {:>10} {:>10} {:>16}",
        "p", "eps", "removed", "rejected", "worst drop"
    ));
    for &(p, eps) in &[(1.0f64, 0.0f64), (0.8, 0.01), (0.8, 0.1), (0.5, 0.01), (0.5, 0.2)] {
        let peg = ProbabilisticEg::new(eg.clone(), p);
        let r = trim_arcs_probabilistic(&peg, &[40, 30, 20, 10], 0, eps, 150, 11);
        out.line(format!(
            "  {p:>8.1} {eps:>8.2} {:>10} {:>10} {:>16.3}",
            r.removed_arcs.len(),
            r.rejected_arcs.len(),
            r.worst_accepted_drop
        ));
    }
}

/// E22 (§III-A, ref. \[8\]): greedy spanners — size vs stretch.
pub fn e22_spanners(out: &mut Report) {
    use csn_core::graph::spanner::{greedy_spanner, max_stretch};
    use csn_core::graph::WeightedGraph;
    use rand::{Rng, SeedableRng};

    let mut rng = rand::rngs::StdRng::seed_from_u64(3);
    let n = 150;
    let mut g = WeightedGraph::new(n);
    for u in 0..n {
        for v in (u + 1)..n {
            if rng.gen::<f64>() < 0.25 {
                g.add_edge(u, v, 0.1 + rng.gen::<f64>());
            }
        }
    }
    out.line(format!("greedy t-spanner of a weighted ER graph (n=150, m={}):", g.edge_count()));
    out.line(format!("  {:>6} {:>10} {:>14} {:>16}", "t", "edges", "kept %", "observed stretch"));
    for &t in &[1.0f64, 1.5, 2.0, 3.0, 5.0] {
        let sp = greedy_spanner(&g, t);
        out.line(format!(
            "  {t:>6.1} {:>10} {:>13.1}% {:>16.3}",
            sp.edge_count(),
            100.0 * sp.edge_count() as f64 / g.edge_count() as f64,
            max_stretch(&g, &sp)
        ));
    }
}

/// E23 (§IV-C, ref. \[31\]): central control over distributed routing.
pub fn e23_hybrid_control(out: &mut Report) {
    use csn_core::graph::WeightedGraph;
    use csn_core::labeling::sdn::{distance_vector, steer, DesiredTree};
    use rand::{Rng, SeedableRng};

    let mut rng = rand::rngs::StdRng::seed_from_u64(11);
    out.line("controller steers distributed distance-vector routing onto BFS trees:");
    out.line(format!("  {:>6} {:>10} {:>14} {:>10}", "n", "managed", "obeyed", "rounds"));
    for &n in &[30usize, 100, 300] {
        let mut g = WeightedGraph::new(n);
        for u in 0..n {
            for v in (u + 1)..n {
                if rng.gen::<f64>() < 6.0 / n as f64 {
                    g.add_edge(u, v, 0.5 + rng.gen::<f64>() * 4.0);
                }
            }
        }
        let skeleton = g.to_unweighted();
        let mask = csn_core::graph::traversal::largest_component_mask(&skeleton);
        // Desired tree = BFS parents inside the biggest component.
        let root = (0..n).find(|&u| mask[u]).unwrap_or(0);
        let mut desired: DesiredTree = vec![None; n];
        let mut seen = vec![false; n];
        seen[root] = true;
        let mut q = std::collections::VecDeque::from([root]);
        while let Some(u) = q.pop_front() {
            for &v in skeleton.neighbors(u) {
                if mask[v] && !seen[v] {
                    seen[v] = true;
                    desired[v] = Some(u);
                    q.push_back(v);
                }
            }
        }
        let managed = desired.iter().filter(|d| d.is_some()).count();
        let (steered, obeyed) = steer(&g, root, &desired, 10_000);
        let natural = distance_vector(&g, root, 10_000);
        out.line(format!(
            "  {n:>6} {managed:>10} {obeyed:>14} {:>10} (natural protocol: {} rounds)",
            steered.rounds, natural.rounds
        ));
    }
}

/// E24 (§II-B): carry-store-forward strategy ladder on time-evolving graphs.
pub fn e24_dtn_strategy_ladder(out: &mut Report) {
    use csn_core::temporal::routing::{direct_delivery, epidemic, spray_and_wait};
    use rand::{Rng, SeedableRng};

    let mut rng = rand::rngs::StdRng::seed_from_u64(3);
    let n = 30;
    let horizon = 60;
    let mut eg = TimeEvolvingGraph::new(n, horizon);
    for u in 0..n {
        for v in (u + 1)..n {
            if rng.gen::<f64>() < 0.15 {
                eg.add_periodic(u, v, rng.gen_range(0..horizon), rng.gen_range(4..12));
            }
        }
    }
    let eg = eg.freeze();
    out.line(format!("random periodic EG (n={n}, horizon {horizon}), 200 random pairs:"));
    out.line(format!(
        "  {:>16} {:>10} {:>12} {:>10}",
        "strategy", "delivery", "mean delay", "copies"
    ));
    let mut pairs = Vec::new();
    for _ in 0..200 {
        let s = rng.gen_range(0..n);
        let d = rng.gen_range(0..n);
        if s != d {
            pairs.push((s, d));
        }
    }
    let report = |out: &mut Report,
                  name: &str,
                  outs: Vec<csn_core::temporal::routing::DtnOutcome>| {
        let delivered: Vec<_> = outs.iter().filter_map(|o| o.delivered_at).collect();
        let copies: f64 = outs.iter().map(|o| o.copies as f64).sum::<f64>() / outs.len() as f64;
        let delivery = 100.0 * delivered.len() as f64 / outs.len() as f64;
        out.metric(format!("{name}_delivery_pct"), delivery);
        out.line(format!(
            "  {:>16} {:>9.1}% {:>12.1} {:>10.1}",
            name,
            delivery,
            delivered.iter().map(|&t| f64::from(t)).sum::<f64>() / delivered.len().max(1) as f64,
            copies
        ));
    };
    report(
        &mut *out,
        "direct-wait",
        pairs.iter().map(|&(s, d)| direct_delivery(&eg, s, d, 0)).collect(),
    );
    for &l in &[2usize, 4, 8] {
        report(
            &mut *out,
            &format!("spray({l})"),
            pairs.iter().map(|&(s, d)| spray_and_wait(&eg, s, d, 0, l)).collect(),
        );
    }
    report(&mut *out, "epidemic", pairs.iter().map(|&(s, d)| epidemic(&eg, s, d, 0)).collect());
}

/// E25 (§III-B question, ref. \[15\]): temporal small-world metrics — structure in
/// time-and-space.
pub fn e25_temporal_smallworld(out: &mut Report) {
    use csn_core::mobility::social::{Population, SocialContactModel};
    use csn_core::temporal::centrality::{temporal_efficiency, temporal_reachability};
    use rand::{seq::SliceRandom, Rng, SeedableRng};

    // A socially structured trace vs a time-shuffled null model: same
    // contacts, randomized times. Temporal structure should change global
    // efficiency, the [15]-style signal.
    let pop = Population::random(30, &Population::fig6_radix(), 7);
    let model = SocialContactModel { base_rate: 1.0 / 60.0, beta: 1.2, mean_duration: 8.0 };
    let trace = model.simulate(&pop, 4_000.0, 3);
    let eg = trace.to_time_evolving_graph(20.0);
    let mut rng = rand::rngs::StdRng::seed_from_u64(9);
    // Null model: redistribute each contact to a uniform random time unit.
    let mut shuffled = TimeEvolvingGraph::new(eg.node_count(), eg.horizon());
    let mut times: Vec<u32> = eg.contacts().iter().map(|c| c.t).collect();
    times.shuffle(&mut rng);
    for (c, &t) in eg.contacts().iter().zip(&times) {
        let _ = rng.gen::<u8>();
        shuffled.add_contact(c.u, c.v, t);
    }
    out.line("social trace vs time-shuffled null (same contacts):");
    out.line(format!("  {:>14} {:>14} {:>16}", "model", "efficiency", "reachability"));
    out.line(format!(
        "  {:>14} {:>14.4} {:>16.3}",
        "social",
        temporal_efficiency(&eg, 0),
        temporal_reachability(&eg, 0)
    ));
    out.line(format!(
        "  {:>14} {:>14.4} {:>16.3}",
        "shuffled",
        temporal_efficiency(&shuffled, 0),
        temporal_reachability(&shuffled, 0)
    ));
    out.line("temporal closeness of the best/worst node (social trace):");
    let c = csn_core::temporal::centrality::temporal_closeness_all(&eg, 0);
    let best = c.iter().cloned().fold(0.0f64, f64::max);
    let worst = c.iter().cloned().fold(1.0f64, f64::min);
    out.line(format!("  best {best:.4}, worst {worst:.4}"));
}

/// E26 (§IV-C): resilience of the distributed labeling protocols under the
/// full fault model — loss, churn, streamed topology change — and the cost
/// of masking loss with the reliable-delivery adapter.
pub fn e26_labeling_resilience(out: &mut Report) {
    use csn_core::distsim::{ChurnSchedule, FaultModel};
    use csn_core::graph::traversal::bfs_distances;
    use csn_core::labeling::bellman_ford;
    use csn_core::labeling::protocols::{
        run_marking_protocol_reliable, run_marking_protocol_with, run_mis_protocol_with,
    };

    // All sweeps step through the parallel wave-merge path; jobs is purely
    // a wall-clock knob — the outcome is bit-identical to serial (the e26
    // snapshot predates the parallel stepper and must not change).
    let jobs = 4;

    let n = 60;
    let horizon = 64;
    let g = generators::erdos_renyi(n, 0.12, 26).expect("params");
    let truth = bfs_distances(&g, 0);
    let exact = |labels: &[csn_core::labeling::bellman_ford::DistanceLabel]| {
        let hits = g
            .nodes()
            .filter(|&u| {
                let want = if truth[u] == usize::MAX { horizon } else { truth[u] };
                labels[u].dist == want
            })
            .count();
        100.0 * hits as f64 / n as f64
    };

    // Bellman–Ford labels under i.i.d. loss: lost advertisements hide
    // shorter routes, so exactness degrades while the run still stabilizes.
    out.line(format!("Bellman–Ford to node 0 under loss (ER n={n}, 3 trials per row):"));
    out.line(format!(
        "  {:>10} {:>12} {:>10} {:>10} {:>10}",
        "drop prob", "exact lbls", "rounds", "sent", "dropped"
    ));
    for &p in &[0.0f64, 0.1, 0.3, 0.5] {
        let (mut pct, mut rounds, mut sent, mut dropped) = (0.0, 0, 0, 0);
        for seed in 0..3u64 {
            let (bf, stats) = bellman_ford::run_resilient(
                &g,
                0,
                horizon,
                2000,
                3,
                FaultModel::lossy(p, seed),
                jobs,
            );
            pct += exact(&bf.labels) / 3.0;
            rounds += stats.rounds;
            sent += stats.sent;
            dropped += stats.dropped;
        }
        out.metric(format!("bf_exact_pct_drop{:.0}", p * 100.0), pct);
        out.line(format!(
            "  {p:>10.1} {pct:>11.1}% {:>10} {:>10} {:>10}",
            rounds / 3,
            sent / 3,
            dropped / 3
        ));
    }

    // Bellman–Ford under node churn: crashed nodes shed their queues and
    // rejoin amnesiac; the distance labels of the survivors must recover.
    out.line("Bellman–Ford under churn (crash prob/round, 6 rounds down, dest protected):");
    out.line(format!(
        "  {:>10} {:>12} {:>10} {:>10} {:>10}",
        "crash prob", "exact lbls", "rounds", "shed", "misrouted"
    ));
    for &cp in &[0.005f64, 0.02] {
        let churn = ChurnSchedule::random(n, 80, cp, 6, 33).protect(0);
        let faults = FaultModel { seed: 33, ..FaultModel::none().with_churn(churn) };
        let (bf, stats) = bellman_ford::run_resilient(&g, 0, horizon, 2000, 6, faults, jobs);
        out.metric(format!("bf_exact_pct_crash{}", (cp * 1000.0) as u64), exact(&bf.labels));
        out.line(format!(
            "  {cp:>10.3} {:>11.1}% {:>10} {:>10} {:>10}",
            exact(&bf.labels),
            stats.rounds,
            stats.shed,
            stats.misrouted
        ));
    }

    // MIS elections under loss: missed StillWhite announcements let two
    // adjacent nodes both declare black — the §IV-C view-inconsistency
    // failure, quantified as conflicted edges and uncovered nodes.
    let priority: Vec<u64> = (0..n as u64).map(|i| (i * 37) % 1009).collect();
    out.line("MIS election under loss (3 trials per row):");
    out.line(format!(
        "  {:>10} {:>10} {:>12} {:>12}",
        "drop prob", "black", "conflicts", "uncovered"
    ));
    for &p in &[0.0f64, 0.2, 0.4] {
        let (mut black, mut conflicts, mut uncovered) = (0usize, 0usize, 0usize);
        for seed in 10..13u64 {
            let (mis, _) =
                run_mis_protocol_with(&g, &priority, 500, 3, FaultModel::lossy(p, seed), jobs);
            black += mis.black.iter().filter(|&&b| b).count();
            conflicts += g.edges().filter(|&(u, v)| mis.black[u] && mis.black[v]).count();
            uncovered += g
                .nodes()
                .filter(|&u| !mis.black[u] && !g.neighbors(u).iter().any(|&v| mis.black[v]))
                .count();
        }
        out.metric(format!("mis_conflicts_drop{:.0}", p * 100.0), conflicts as f64 / 3.0);
        out.line(format!(
            "  {p:>10.1} {:>10.1} {:>12.2} {:>12.2}",
            black as f64 / 3.0,
            conflicts as f64 / 3.0,
            uncovered as f64 / 3.0
        ));
    }

    // CDS marking raw vs wrapped in Reliable: the raw run starves (lost
    // neighbor lists leave nodes undecided), the wrapped run pays
    // retransmissions and acks to decide exactly the centralized labels.
    let central = csn_core::labeling::cds::marking(&g);
    let faults = FaultModel::lossy(0.3, 4);
    let (raw, raw_stats) = run_marking_protocol_with(&g, 300, 1, faults.clone(), jobs);
    let (rel, rel_stats, overhead) = run_marking_protocol_reliable(&g, 5000, faults, jobs);
    let wrong = |black: &[bool]| black.iter().zip(&central).filter(|(a, b)| a != b).count();
    out.line("CDS marking at drop 0.3, raw vs Reliable adapter:");
    out.line(format!(
        "  {:>10} {:>12} {:>10} {:>10} {:>8} {:>8}",
        "variant", "wrong lbls", "rounds", "messages", "retx", "acks"
    ));
    out.line(format!(
        "  {:>10} {:>12} {:>10} {:>10} {:>8} {:>8}",
        "raw",
        wrong(&raw.black),
        raw_stats.rounds,
        raw_stats.messages,
        "-",
        "-"
    ));
    out.line(format!(
        "  {:>10} {:>12} {:>10} {:>10} {:>8} {:>8}",
        "reliable",
        wrong(&rel.black),
        rel_stats.rounds,
        rel_stats.messages,
        overhead.retransmissions,
        overhead.acks
    ));
    out.metric("marking_raw_wrong", wrong(&raw.black) as f64);
    out.metric("marking_reliable_wrong", wrong(&rel.black) as f64);
    out.metric("marking_reliable_retx", overhead.retransmissions as f64);
}

/// e27 — topic-flood pub-sub on a Gnutella-like overlay while nodes crash
/// and rejoin (§II-A's P2P setting meets §IV-C's view inconsistency): the
/// delivery ratio degrades gracefully with the crash rate, and the whole
/// sweep is bit-identical between serial and parallel stepping.
pub fn e27_pubsub_churn(out: &mut Report) {
    use crate::scenario_bench::PubSub;
    use csn_core::distsim::{ChurnSchedule, FaultModel, Simulator};
    use csn_core::graph::stream::{EdgeStream, GnutellaStream};

    let n = 1_500;
    let topics = 8;
    let overlay = GnutellaStream::new(n, 3, 64, 0.05, 27)
        .expect("params")
        .to_compact_csr()
        .expect("fits u32")
        .thaw();
    let protocol = PubSub { topics };
    out.line(format!(
        "Gnutella-like overlay: n={n}, m={}, {topics} topics (publishers 0..{topics}, \
         every node subscribes to topic u mod {topics})",
        overlay.edge_count()
    ));

    // Fault-free flood: every node receives every topic.
    let mut sim = Simulator::new(&overlay, &protocol);
    let stats = sim.run_until_quiet(200);
    out.line(format!(
        "fault-free flood: {} rounds, {} messages, delivery ratio {:.4}",
        stats.rounds,
        stats.messages,
        protocol.delivery_ratio(sim.states())
    ));
    out.metric("pubsub_faultfree_delivery", protocol.delivery_ratio(sim.states()));

    // Churn sweep: publishers protected, everyone else crashes with the
    // row's per-round probability and rejoins amnesiac 4 rounds later.
    out.line("under churn (publishers protected, 4 rounds down, drop 0.05, delay 0.1):");
    out.line(format!(
        "  {:>11} {:>8} {:>10} {:>10} {:>10} {:>10}",
        "crash prob", "rounds", "messages", "dropped", "shed", "delivery"
    ));
    for &cp in &[0.0f64, 0.002, 0.01, 0.03] {
        let mut churn = ChurnSchedule::random(n, 80, cp, 4, 27);
        for p in 0..topics {
            churn = churn.protect(p);
        }
        let faults = FaultModel::lossy(0.05, 27).with_delay(0.1).with_churn(churn);
        let run = |jobs: usize| {
            let mut sim =
                Simulator::with_faults(&overlay, &protocol, faults.clone()).with_jobs(jobs);
            let stats = sim.run_until_stable(400, 4);
            (stats, sim.states().to_vec(), sim.in_flight())
        };
        let (stats, states, in_flight) = run(1);
        assert_eq!(run(4), (stats, states.clone(), in_flight), "parallel diverged at cp={cp}");
        assert_eq!(
            stats.sent + stats.duplicated,
            stats.messages + stats.dropped + stats.shed + in_flight,
            "message conservation at cp={cp}"
        );
        let delivery = protocol.delivery_ratio(&states);
        out.metric(format!("pubsub_delivery_crash{}", (cp * 1000.0) as u64), delivery);
        out.line(format!(
            "  {cp:>11.3} {:>8} {:>10} {:>10} {:>10} {delivery:>10.4}",
            stats.rounds, stats.messages, stats.dropped, stats.shed
        ));
    }
    out.line("(each row checked bit-identical at jobs=4 and message-conserving)");
}

/// e28 — routing on the generalized hypercube (§III-C): the distributed
/// Bellman–Ford distance labels equal the F-space feature distance
/// exactly when fault-free, degrade measurably under loss and churn, and
/// the d node-disjoint F-space paths tolerate d − 1 faulty relays.
pub fn e28_hypercube_routing(out: &mut Report) {
    use crate::scenario_bench::{generalized_hypercube, hypercube_profile};
    use csn_core::distsim::{ChurnSchedule, FaultModel};
    use csn_core::labeling::bellman_ford;
    use csn_core::remapping::fspace::{feature_distance, node_disjoint_paths};

    let radix = [4usize, 4, 4];
    let g = generalized_hypercube(&radix);
    let n = g.node_count();
    let horizon = radix.len() + 1;
    let p0 = hypercube_profile(0, &radix);
    out.line(format!(
        "generalized hypercube, radix {radix:?}: n={n}, m={}, degree {} per node",
        g.edge_count(),
        radix.iter().map(|r| r - 1).sum::<usize>()
    ));

    let exact = |labels: &[bellman_ford::DistanceLabel]| {
        let hits = (0..n)
            .filter(|&v| labels[v].dist == feature_distance(&hypercube_profile(v, &radix), &p0))
            .count();
        100.0 * hits as f64 / n as f64
    };

    // Fault-free: graph distance IS the feature distance, and the
    // distributed labels find it in (diameter + 1)-ish rounds.
    let bf = bellman_ford::run(&g, 0, horizon, 100);
    out.line(format!(
        "fault-free Bellman–Ford to node 0: {} rounds, {:.1}% of labels equal the \
         F-space feature distance",
        bf.rounds,
        exact(&bf.labels)
    ));
    out.metric("hypercube_faultfree_exact_pct", exact(&bf.labels));

    // Loss and churn sweep (dest protected under churn).
    out.line("faulted runs (dest protected, window 3, checked bit-identical at jobs=4):");
    out.line(format!(
        "  {:>22} {:>8} {:>10} {:>10} {:>12}",
        "faults", "rounds", "sent", "dropped", "exact lbls"
    ));
    let rows: [(&str, FaultModel); 3] = [
        ("drop 0.2", FaultModel::lossy(0.2, 28)),
        ("drop 0.4 + delay 0.2", FaultModel::lossy(0.4, 28).with_delay(0.2)),
        (
            "drop 0.1 + churn .01",
            FaultModel::lossy(0.1, 28)
                .with_churn(ChurnSchedule::random(n, 60, 0.01, 3, 28).protect(0)),
        ),
    ];
    for (name, faults) in rows {
        let (bf, stats) = bellman_ford::run_resilient(&g, 0, horizon, 2000, 3, faults.clone(), 1);
        let par = bellman_ford::run_resilient(&g, 0, horizon, 2000, 3, faults, 4);
        assert_eq!(par, (bf.clone(), stats), "parallel diverged under {name}");
        out.metric(
            format!("hypercube_exact_pct_{}", name.replace([' ', '.', '+'], "")),
            exact(&bf.labels),
        );
        out.line(format!(
            "  {name:>22} {:>8} {:>10} {:>10} {:>11.1}%",
            stats.rounds,
            stats.sent,
            stats.dropped,
            exact(&bf.labels)
        ));
    }

    // Disjoint-path fault tolerance: between profiles at feature distance
    // d there are d node-disjoint paths, so any d − 1 faulty relays leave
    // a working route (§III-C's motivation for the F-space remap).
    out.line("node-disjoint F-space paths from profile [0, 0, 0]:");
    out.line(format!(
        "  {:>12} {:>6} {:>15} {:>22}",
        "dest profile", "dist", "disjoint paths", "survives d-1 faults"
    ));
    for v in [1usize, 5, 21, 42, 63] {
        let pv = hypercube_profile(v, &radix);
        let d = feature_distance(&p0, &pv);
        let paths = node_disjoint_paths(&p0, &pv);
        assert_eq!(paths.len(), d, "expected {d} disjoint paths to {pv:?}");
        // Fault one relay on each path but the last; some path must avoid
        // every faulted relay (pigeonhole over disjointness).
        let survives = if d < 2 {
            true
        } else {
            let faulty: Vec<_> = paths[..d - 1].iter().map(|p| p[1].clone()).collect();
            paths.iter().any(|p| p[1..p.len() - 1].iter().all(|hop| !faulty.contains(hop)))
        };
        assert!(survives, "no path to {pv:?} survives {} faults", d.saturating_sub(1));
        out.line(format!("  {:>12} {d:>6} {:>15} {:>22}", format!("{pv:?}"), paths.len(), "yes"));
    }
    out.metric("hypercube_disjoint_pairs_checked", 5.0);
}

//! `perf_smoke` — the `BENCH_*.json` rows no benchmark workload covers.
//!
//! Each tier writes one committed artifact (or `--out PATH`) in the one row
//! schema of `csn_bench::rows`: every row is keyed by its tier, stage and
//! parameters, and carries exact counters (touches, arcs, edges, rounds,
//! messages, contacts, bytes) and one informational wall time. The box may
//! be single-core and noisy, so the trajectory lives in the committed
//! JSON, not in a pass/fail threshold; `scripts/check.sh` reruns every tier
//! at its check size and fails when a fresh row's counters are not a
//! committed row's. The correctness of everything measured here is asserted
//! by tier-1 tests — `crates/bench/tests/gates.rs` and the crates' property
//! suites — so this binary exits non-zero only on a usage error (status 2)
//! or when it cannot write its artifact (status 1).
//!
//! 1. **Default tier** → `BENCH_kernels.json`: Brandes betweenness and
//!    all-pairs BFS on a BA graph's adjacency list and its frozen form,
//!    fresh-alloc vs scratch Brandes, `betweenness_par` at 1, 2, 4 and 7
//!    workers, the landmark-table build (k = 16) one BFS per landmark vs
//!    multi-source with the arcs each scans, a snapshot sweep by rebuilds
//!    and by cursor, a faulted Bellman–Ford run, and the counted-touch
//!    `maintain` rows: node touches of the k-core, NSF and forwarding-set
//!    maintainers on a sparse edge-Markovian trace next to per-step
//!    rebuilds (see `csn_bench::kernels_bench`).
//! 2. **`--scale`** → `BENCH_scale.json`: at `--scale-nodes` (default 10⁶),
//!    the nodes, edges and frozen-form bytes each streaming generator
//!    builds, and the edges each sampled kernel traverses. See SCALING.md.
//! 3. **`--distsim`** → `BENCH_distsim.json`: protocol rounds, messages and
//!    the simulator's heap at n ∈ {10⁴, 10⁵, 10⁶} capped by
//!    `--distsim-nodes`, on one stepper worker so the memory is an exact
//!    count. See DISTSIM.md.
//! 4. **`--scenario`** → `BENCH_scenario.json`: the contacts and flat
//!    tuples of the `--scenario-nodes` city trace (default 3000 nodes ⇒
//!    ≥10⁶ contacts), the DTN ladder on it, TOUR forwarding from its
//!    estimated rates, a `TrackedCursor` k-core sweep, a
//!    `--scenario-pubsub-nodes` (default 10⁵) Gnutella-style pub-sub run
//!    under churn, and generalized-hypercube routing under faults. See
//!    SCENARIOS.md.
//!
//! Each sized tier also runs the size `scripts/check.sh` runs (scale
//! n = 20,000; distsim n = 10⁴, already on its ladder; the 220-node city
//! and the 3,000-node pub-sub overlay) when that size does not exceed its
//! flag, so the committed artifact carries the rows the check reproduces.
//!
//! Usage: `cargo run -p csn-bench --release --bin perf_smoke [-- --out PATH]`
//! or: `... -- --scale [--scale-nodes 1000000] [--out BENCH_scale.json]`
//! or: `... -- --distsim [--distsim-nodes 1000000] [--out BENCH_distsim.json]`
//! or: `... -- --scenario [--scenario-nodes 3000] \
//!   [--scenario-pubsub-nodes 100000] [--out BENCH_scenario.json]`

use csn_bench::cli::{usage_error, Flags};
use csn_bench::kernels_bench::{maintain_rows, synthetic_trim};
use csn_bench::rows::{Document, Row};
use csn_bench::timed;
use csn_core::graph::centrality::{betweenness_centrality, brandes_delta};
use csn_core::graph::landmark::UNREACHABLE;
use csn_core::graph::parallel::betweenness_par;
use csn_core::graph::scratch::BfsScratch;
use csn_core::graph::traversal::{all_pairs_bfs, bfs_distances_into};
use csn_core::graph::{generators, CompactCsrGraph, GraphError, GraphView, LandmarkIndex, NodeId};
use csn_core::temporal::markovian::EdgeMarkovian;
use std::hint::black_box;

/// A tier: its switch (empty for the default tier), the options it takes
/// besides `--out`, its committed artifact, and the run that returns its
/// rows.
type Tier = (&'static str, &'static [&'static str], &'static str, fn(&Flags) -> Vec<Row>);

const TIERS: [Tier; 4] = [
    ("", &[], "BENCH_kernels.json", run_kernels),
    ("--scale", &["--scale-nodes"], "BENCH_scale.json", run_scale),
    ("--distsim", &["--distsim-nodes"], "BENCH_distsim.json", run_distsim),
    (
        "--scenario",
        &["--scenario-nodes", "--scenario-pubsub-nodes"],
        "BENCH_scenario.json",
        run_scenario,
    ),
];

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    // A tier switch anywhere selects that tier; a second tier switch, or
    // another tier's option, is then an unknown argument.
    let (switch, options, default_out, run) =
        TIERS[1..].iter().find(|t| args.iter().any(|a| a == t.0)).unwrap_or(&TIERS[0]);
    let switches: &[&'static str] =
        if switch.is_empty() { &[] } else { std::slice::from_ref(switch) };
    let flags = Flags::parse(args, switches, &[&["--out"], *options].concat())
        .unwrap_or_else(|e| usage_error(e));
    let out = flags.get("--out", default_out.to_string());
    let doc = Document {
        rows: run(&flags),
        git_rev: git_rev(),
        detected_cores: csn_bench::pool::available_parallelism(),
    };
    if let Err(e) = std::fs::write(&out, doc.render()) {
        eprintln!("error: cannot write {out}: {e}");
        std::process::exit(1);
    }
    eprintln!(
        "perf_smoke: wrote {} rows to {out} ({} core(s))",
        doc.rows.len(),
        doc.detected_cores
    );
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

/// The sizes a tier runs: `check` (the size `scripts/check.sh` runs) when
/// it is below `flag`, then `flag`.
fn with_check_size(check: usize, flag: usize) -> Vec<usize> {
    if check < flag {
        vec![check, flag]
    } else {
        vec![flag]
    }
}

/// `r`'s value, or a usage error naming the size flag whose value gave a
/// generator invalid parameters.
fn sized<T>(r: Result<T, GraphError>, flag: &str, nodes: usize) -> T {
    r.unwrap_or_else(|e| usage_error(format!("{flag} {nodes}: {e}")))
}

/// Brandes betweenness the fresh-alloc way: one `brandes_delta` (and one
/// scratch arena) per source, summed and halved.
fn fresh_alloc_betweenness<G: GraphView>(g: &G) -> Vec<f64> {
    let mut bc = vec![0.0f64; g.node_count()];
    for s in 0..g.node_count() {
        for (b, d) in bc.iter_mut().zip(&brandes_delta(g, s)) {
            *b += d;
        }
    }
    for b in &mut bc {
        *b /= 2.0;
    }
    bc
}

/// The landmark tables the per-landmark way: one `bfs_distances_into` per
/// landmark over one scratch, narrowed into a row-major `k × n` `u32`
/// table, one row per landmark. This is the measured alternative to
/// `LandmarkIndex::build`, which stores the node-major transpose.
fn per_landmark_tables<G: GraphView>(g: &G, landmarks: &[NodeId]) -> Vec<u32> {
    let mut scratch = BfsScratch::new();
    let mut row = Vec::new();
    let mut dist = Vec::with_capacity(landmarks.len() * g.node_count());
    for &l in landmarks {
        bfs_distances_into(g, l, &mut scratch, &mut row);
        dist.extend(row.iter().map(|&d| u32::try_from(d).unwrap_or(UNREACHABLE)));
    }
    dist
}

/// The arcs one BFS per landmark scans for `idx`'s tables on `g`: over the
/// nodes, each degree times the landmarks that reach the node, read from
/// the built tables.
fn per_landmark_arcs<G: GraphView>(g: &G, idx: &LandmarkIndex) -> u64 {
    g.nodes()
        .map(|v| {
            let reached = idx.distances(v).iter().filter(|&&d| d != UNREACHABLE).count();
            g.degree(v) as u64 * reached as u64
        })
        .sum()
}

/// Times `run` and appends `row` with its wall time to `rows`.
fn time<T>(rows: &mut Vec<Row>, row: Row, run: impl FnOnce() -> T) {
    let (out, wall_secs) = timed(run);
    black_box(out);
    rows.push(row.wall_secs(wall_secs));
}

/// The default tier: kernel wall times on a BA graph and two
/// edge-Markovian traces, the landmark build's arc counts, and the
/// counted-touch maintain rows.
fn run_kernels(_: &Flags) -> Vec<Row> {
    use csn_core::distsim::{ChurnSchedule, FaultModel};
    use csn_core::labeling::bellman_ford::run_resilient;

    let (n, m, seed) = (1500usize, 3usize, 42u64);
    let graph = format!("barabasi_albert({n}, {m}, seed={seed})");
    let g = generators::barabasi_albert(n, m, seed).expect("fixed BA parameters");
    let frozen = g.freeze().expect("fits u32");
    let (tn, horizon, p, q, tseed) = (120usize, 400u32, 0.6, 0.02, 7u64);
    let eg = EdgeMarkovian::new(tn, p, q).generate(horizon, tseed);
    let (fn_, fseed) = (200usize, 13u64);
    let fg = generators::erdos_renyi(fn_, 0.05, 11).expect("fixed ER parameters");
    let faults = FaultModel::lossy(0.3, fseed)
        .with_delay(0.2)
        .with_duplication(0.1)
        .with_reorder()
        .with_churn(ChurnSchedule::random(fn_, 60, 0.01, 5, fseed).protect(0));

    let mut rows = Vec::new();
    let on_ba = |stage: &'static str, representation: &'static str| {
        Row::new("kernels", stage).param("graph", &graph).param("representation", representation)
    };
    time(&mut rows, on_ba("all_pairs_bfs", "adjacency"), || all_pairs_bfs(&g));
    time(&mut rows, on_ba("all_pairs_bfs", "frozen"), || all_pairs_bfs(&frozen));
    time(&mut rows, on_ba("betweenness", "adjacency"), || betweenness_centrality(&g));
    time(&mut rows, on_ba("betweenness", "fresh_alloc"), || fresh_alloc_betweenness(&frozen));
    time(&mut rows, on_ba("betweenness", "scratch"), || betweenness_centrality(&frozen));
    for jobs in [1, 2, 4, 7] {
        time(&mut rows, on_ba("betweenness_par", "scratch").param("jobs", jobs), || {
            betweenness_par(&frozen, jobs)
        });
    }
    let (k, landmark_seed) = (16usize, 0xC5u64);
    let idx = LandmarkIndex::build(&frozen, k, landmark_seed);
    let (arcs, per_landmark) = (idx.arcs_scanned(), per_landmark_arcs(&frozen, &idx));
    let landmark = |representation: &'static str, arcs: u64| {
        on_ba("landmark_build", representation)
            .param("k", k)
            .param("seed", landmark_seed)
            .counter("arcs_scanned", arcs)
    };
    time(&mut rows, landmark("per_landmark_bfs", per_landmark), || {
        per_landmark_tables(&frozen, idx.landmarks())
    });
    time(&mut rows, landmark("multi_source", arcs), || {
        LandmarkIndex::build(&frozen, k, landmark_seed)
    });
    let temporal = format!("edge_markovian(n={tn}, p={p}, q={q}, horizon={horizon}, seed={tseed})");
    let sweep = |representation: &'static str| {
        Row::new("kernels", "snapshot_sweep")
            .param("graph", &temporal)
            .param("representation", representation)
    };
    time(&mut rows, sweep("rebuild"), || {
        for t in 0..eg.horizon() {
            black_box(eg.snapshot(t));
        }
    });
    time(&mut rows, sweep("cursor"), || {
        let mut cur = eg.snapshot_cursor();
        black_box(cur.graph());
        while cur.advance() {
            black_box(cur.graph());
        }
    });
    let faulted = Row::new("kernels", "faulted_bellman_ford")
        .param("graph", format!("erdos_renyi({fn_}, 0.05, seed=11)"));
    time(&mut rows, faulted, || run_resilient(&fg, 0, 64, 500, 3, faults.clone(), 1));

    let (sp, sq) = (0.25, 0.001);
    let seg = EdgeMarkovian::new(tn, sp, sq).generate(horizon, tseed);
    let maintain_graph =
        format!("edge_markovian(n={tn}, p={sp}, q={sq}, horizon={horizon}, seed={tseed})");
    rows.extend(
        maintain_rows(&seg, &synthetic_trim(tn))
            .into_iter()
            .map(|row| row.param("graph", &maintain_graph)),
    );
    eprintln!("landmarks (k={k}): {arcs} arcs scanned vs {per_landmark} one BFS per landmark");
    rows
}

/// The `--scale` tier: at `--scale-nodes` and at the check size, the
/// nodes, edges and frozen-form bytes each streaming generator builds, and
/// the edges each sampled kernel traverses on the BA graph.
fn run_scale(flags: &Flags) -> Vec<Row> {
    let nodes: usize = flags.get("--scale-nodes", 1_000_000);
    with_check_size(20_000, nodes).into_iter().flat_map(scale_rows).collect()
}

/// The `--scale` rows at `nodes`.
fn scale_rows(nodes: usize) -> Vec<Row> {
    use csn_core::graph::approx;
    use csn_core::graph::parallel::betweenness_sampled_par;
    use csn_core::graph::stream::{
        BaStream, EdgeStream, GeometricStream, GnutellaStream, KleinbergStream,
    };
    use csn_core::graph::traversal::bfs_distances;

    let cores = csn_bench::pool::available_parallelism();
    let row = |stage: &'static str| Row::new("scale", stage).param("scale_nodes", nodes);

    // --- Each generator builds straight into compact CSR; `edges` counts
    // undirected edges. Only the BA graph is kept, for the kernel rows.
    let mut rows = Vec::new();
    let mut build = |generator: String, stream: &dyn Fn() -> Result<CompactCsrGraph, _>| {
        let (c, secs) = timed(|| sized(stream(), "--scale-nodes", nodes));
        rows.push(
            row("generate")
                .param("generator", generator)
                .counter("nodes", GraphView::node_count(&c))
                .counter("edges", GraphView::edge_count(&c))
                .counter("heap_bytes", c.heap_bytes())
                .wall_secs(secs),
        );
        c
    };
    let ba = format!("barabasi_albert(n={nodes}, m=3)");
    let ba_c = build(ba.clone(), &|| BaStream::new(nodes, 3, 1)?.to_compact_csr());
    // Radius chosen for expected average degree ~6: n·πr² ≈ 6.
    let radius = (6.0 / (std::f64::consts::PI * nodes as f64)).sqrt();
    build(format!("random_geometric(n={nodes}, r={radius:.5})"), &|| {
        GeometricStream::new(nodes, radius, 2)?.to_compact_csr()
    });
    let side = (nodes as f64).sqrt() as usize;
    build(format!("kleinberg_grid(side={side}, q=1, alpha=2)"), &|| {
        KleinbergStream::new(side, 1, 2.0, 3)?.to_compact_csr()
    });
    build(format!("gnutella_like(n={nodes}, m=3, cap=64, extra=0.05)"), &|| {
        GnutellaStream::new(nodes, 3, 64, 0.05, 4)?.to_compact_csr()
    });

    // --- Kernels on the compact BA graph. A BFS relaxes every packed entry
    // once: 2·edge_count traversed edges per source. The parallel row runs
    // on every detected core.
    let samples = 32usize.min(nodes);
    let per_source = 2 * GraphView::edge_count(&ba_c);
    let kernel = |stage: &'static str, samples: usize| {
        row(stage)
            .param("graph", &ba)
            .param("samples", samples)
            .counter("traversed_edges", samples * per_source)
    };
    time(&mut rows, kernel("bfs_distances", 1), || bfs_distances(&ba_c, 0));
    time(&mut rows, kernel("betweenness_sampled", samples), || {
        approx::betweenness_sampled(&ba_c, samples, 9)
    });
    time(&mut rows, kernel("closeness_sampled", samples), || {
        approx::closeness_sampled(&ba_c, samples, 9)
    });
    time(&mut rows, kernel("betweenness_sampled_par", samples), || {
        betweenness_sampled_par(&ba_c, samples, 9, cores)
    });
    eprintln!("scale at n={nodes}: {} rows", rows.len());
    rows
}

/// The `--distsim` tier: protocol runs at n ∈ {10⁴, 10⁵, 10⁶} ∩
/// [0, `--distsim-nodes`] on BA topologies thawed from the compact-CSR
/// streaming builder, on one stepper worker.
fn run_distsim(flags: &Flags) -> Vec<Row> {
    use csn_bench::distsim_bench::{mis_priorities, BenchFlood};
    use csn_core::distsim::{FaultModel, Protocol, Simulator};
    use csn_core::graph::stream::{BaStream, EdgeStream};
    use csn_core::graph::Graph;
    use csn_core::labeling::bellman_ford::BellmanFord;
    use csn_core::labeling::protocols::{MarkingProtocol, MisProtocol};

    let nodes: usize = flags.get("--distsim-nodes", 1_000_000);

    // Fault-free protocol runs on one worker: with more, the arenas'
    // capacity, and so `sim_heap_bytes`, varies with work stealing, and on
    // few cores a second worker barely speeds a round up. Bit-identity
    // across job counts is a tier-1 test. Graph construction is excluded
    // from the timed region; the simulator takes the graph by value so
    // only one adjacency copy is resident.
    const JOBS: usize = 1;
    fn scale_row<P: Protocol>(
        name: &'static str,
        g: Graph,
        protocol: &P,
        max_rounds: usize,
    ) -> Row {
        let (n, edges) = (g.node_count(), g.edge_count());
        let mut sim = Simulator::with_faults_owned(g, protocol, FaultModel::none()).with_jobs(JOBS);
        let (stats, wall) = timed(|| sim.run_until_quiet(max_rounds));
        eprintln!(
            "distsim {name} n={n}: {wall:.3}s, {} rounds, {} messages",
            stats.rounds, stats.messages
        );
        Row::new("distsim", name)
            .param("graph", format!("barabasi_albert(n={n}, m=3, seed=1)"))
            .param("jobs", JOBS)
            .counter("nodes", n)
            .counter("edges", edges)
            .counter("rounds", stats.rounds)
            .counter("messages", stats.messages)
            .counter("converged", stats.quiescent)
            .counter("sim_heap_bytes", sim.heap_bytes())
            .wall_secs(wall)
    }

    let mut scale_ns: Vec<usize> =
        [10_000, 100_000, 1_000_000].into_iter().filter(|&x| x <= nodes).collect();
    if scale_ns.is_empty() {
        scale_ns.push(nodes);
    }
    // Payload-heavy protocols stop earlier: MIS states churn for ~log n
    // announce phases, and CDS marking broadcasts whole neighbor lists
    // (Σ deg² delivered entries — quadratic in hub degree), so their rows
    // cap at 10⁵ / 10⁴ as documented in DISTSIM.md.
    const MIS_CAP: usize = 100_000;
    const CDS_CAP: usize = 10_000;
    let mut rows = Vec::new();
    for &n in &scale_ns {
        let graph = sized(
            BaStream::new(n, 3, 1).and_then(|s| s.to_compact_csr()),
            "--distsim-nodes",
            nodes,
        )
        .thaw();
        rows.push(scale_row("flood", graph.clone(), &BenchFlood, 200));
        let bf = BellmanFord { dest: 0, horizon: 64 };
        rows.push(scale_row("bellman_ford", graph.clone(), &bf, 2000));
        if n <= MIS_CAP {
            let mis = MisProtocol { priority: mis_priorities(n) };
            rows.push(scale_row("mis", graph.clone(), &mis, 10_000));
        }
        if n <= CDS_CAP {
            rows.push(scale_row("cds_marking", graph, &MarkingProtocol, 10));
        }
    }
    rows
}

/// The `--scenario` tier: the city-scale scenario suite of SCENARIOS.md at
/// `--scenario-nodes` and `--scenario-pubsub-nodes`, and at their check
/// sizes.
fn run_scenario(flags: &Flags) -> Vec<Row> {
    let nodes = flags.get("--scenario-nodes", 3_000usize).max(16);
    let pubsub_nodes = flags.get("--scenario-pubsub-nodes", 100_000usize).max(64);
    let mut rows: Vec<Row> = with_check_size(220, nodes).into_iter().flat_map(city_rows).collect();
    rows.extend(track_rows());
    rows.extend(with_check_size(3_000, pubsub_nodes).into_iter().map(pubsub_row));
    rows.push(hypercube_row());
    rows
}

/// `city`'s description, the key parameter of its rows.
fn describe(city: &csn_core::mobility::scenario::CityScenario) -> String {
    format!(
        "city(vehicles={}, pedestrians={}, duration={}, seed={})",
        city.vehicle_count(),
        city.pedestrian_count(),
        city.duration,
        city.seed
    )
}

/// The city trace at `nodes`: one counting pass, the stream discretized
/// into an EG and frozen (the EG dropped), the DTN ladder on the frozen
/// form and TOUR forwarding from the trace's estimated rates.
fn city_rows(nodes: usize) -> Vec<Row> {
    use csn_bench::scenario_bench::{city, dtn_queries, tour_policy, CITY_DT, TOUR_UTILITY};
    use csn_core::mobility::stream::ContactStream;
    use csn_core::mobility::ContactEvent;
    use csn_core::temporal::routing::{direct_delivery, epidemic, spray_and_wait, DtnOutcome};
    use csn_core::temporal::FrozenEg;

    let city = city(nodes);
    let n = ContactStream::node_count(&city);
    let scenario = describe(&city);
    let row = |stage: &'static str| Row::new("scenario", stage).param("scenario", &scenario);
    let mut rows = Vec::new();
    let (contacts, stream_secs) = timed(|| city.count_contacts());
    rows.push(
        row("stream")
            .counter("contacts", contacts)
            .counter("bytes_per_contact_materialized", std::mem::size_of::<ContactEvent>())
            .wall_secs(stream_secs),
    );
    let ((frozen, labels), freeze_secs) = timed(|| {
        let eg = ContactStream::to_time_evolving_graph(&city, CITY_DT);
        (eg.freeze(), eg.contact_count())
    });
    rows.push(
        row("freeze")
            .param("dt_secs", CITY_DT)
            .counter("labels", labels)
            .counter("runs", frozen.run_count())
            .counter("pairs", frozen.pair_count())
            .counter("heap_bytes", frozen.heap_bytes())
            .wall_secs(freeze_secs),
    );

    // --- The DTN ladder end-to-end on the frozen form.
    let queries = dtn_queries(n);
    type Strategy = fn(&FrozenEg, usize, usize) -> DtnOutcome;
    let ladder: [(&str, Strategy); 3] = [
        ("direct", |eg, s, d| direct_delivery(eg, s, d, 0)),
        ("spray_and_wait(8)", |eg, s, d| spray_and_wait(eg, s, d, 0, 8)),
        ("epidemic", |eg, s, d| epidemic(eg, s, d, 0)),
    ];
    let mut delivered = Vec::new();
    for (name, strategy) in ladder {
        let (outs, wall) =
            timed(|| queries.iter().map(|&(s, d)| strategy(&frozen, s, d)).collect::<Vec<_>>());
        let delays: Vec<u64> = outs.iter().filter_map(|o| o.delivered_at).map(u64::from).collect();
        delivered.push(delays.len());
        rows.push(
            row("dtn")
                .param("strategy", name)
                .counter("queries", queries.len())
                .counter("delivered", delays.len())
                .counter("delay_units_sum", delays.iter().sum::<u64>())
                .counter("copies_sum", outs.iter().map(|o| o.copies).sum::<usize>())
                .wall_secs(wall),
        );
    }

    // --- TOUR forwarding from the trace's estimated contact rates.
    let ((relays, policy), tour_secs) = timed(|| tour_policy(&city));
    rows.push(
        row("tour")
            .counter("relays", relays.len())
            .counter("set_at_start", policy.set_at(0.0).len())
            .counter("set_at_deadline", policy.set_at(TOUR_UTILITY.deadline()).len())
            .counter("shrinks_monotonically", policy.sets_shrink_monotonically())
            .wall_secs(tour_secs),
    );
    eprintln!(
        "scenario at n={n}: {contacts} contacts, {labels} labels in {} runs, DTN delivered \
         {delivered:?} of {}, TOUR {} relays",
        frozen.run_count(),
        queries.len(),
        relays.len()
    );
    rows
}

/// Structure tracking on a mid-size city EG. The `eg_build` row times
/// discretizing the city stream (the walk included) into the EG. Then the
/// incremental k-core maintainer sweeps the whole trace; its counted
/// touches land in the `track` row next to the `nodes · horizon` rebuild
/// floor.
fn track_rows() -> [Row; 2] {
    use csn_bench::scenario_bench::{CITY_DT, CITY_DURATION};
    use csn_core::graph::cores::IncrementalCores;
    use csn_core::mobility::scenario::CityScenario;
    use csn_core::mobility::stream::ContactStream;
    use csn_core::temporal::TrackedCursor;

    let city = CityScenario::new(250, 150, CITY_DURATION, 13);
    let (eg, build_secs) = timed(|| ContactStream::to_time_evolving_graph(&city, CITY_DT));
    let eg_build = Row::new("scenario", "eg_build")
        .param("scenario", describe(&city))
        .param("dt_secs", CITY_DT)
        .counter("labels", eg.contact_count())
        .counter("pairs", eg.edge_count())
        .counter("horizon", eg.horizon())
        .wall_secs(build_secs);
    let (touches, secs) = timed(|| {
        let mut cur = TrackedCursor::new(&eg);
        cur.register(Box::new(IncrementalCores::default()));
        while cur.advance() {}
        cur.touched_nodes()
    });
    let track = Row::new("scenario", "track")
        .param("scenario", describe(&city))
        .param("dt_secs", CITY_DT)
        .param("maintainer", "cores")
        .counter("nodes", eg.node_count())
        .counter("horizon", eg.horizon())
        .counter("incremental_node_touches", touches)
        .counter("rebuild_touch_floor", eg.node_count() as u64 * u64::from(eg.horizon()))
        .wall_secs(secs);
    [eg_build, track]
}

/// Pub-sub under churn on an `n`-node Gnutella-like overlay, on every
/// detected core.
fn pubsub_row(n: usize) -> Row {
    use csn_bench::scenario_bench::PubSub;
    use csn_core::distsim::{ChurnSchedule, FaultModel, Simulator};
    use csn_core::graph::stream::{EdgeStream, GnutellaStream};

    let protocol = PubSub { topics: 8 };
    let overlay = sized(
        GnutellaStream::new(n, 3, 64, 0.05, 4).and_then(|s| s.to_compact_csr()),
        "--scenario-pubsub-nodes",
        n,
    )
    .thaw();
    let edges = overlay.edge_count();
    let faults = FaultModel::lossy(0.05, 29)
        .with_delay(0.1)
        .with_churn(protocol.protect_publishers(ChurnSchedule::random(n, 80, 0.002, 4, 29)));
    let cores = csn_bench::pool::available_parallelism();
    let mut sim = Simulator::with_faults_owned(overlay, &protocol, faults).with_jobs(cores);
    let (stats, wall) = timed(|| sim.run_until_stable(300, 4));
    let delivered = protocol.delivered(sim.states());
    eprintln!(
        "scenario pub-sub n={n}: {} rounds, {} messages, {delivered} of {n} delivered under \
         churn ({wall:.3}s)",
        stats.rounds, stats.messages
    );
    Row::new("scenario", "pubsub")
        .param("overlay", format!("gnutella_like(n={n}, m=3, cap=64, extra=0.05)"))
        .param("topics", protocol.topics)
        .counter("nodes", n)
        .counter("edges", edges)
        .counter("rounds", stats.rounds)
        .counter("messages", stats.messages)
        .counter("delivered", delivered)
        .wall_secs(wall)
}

/// Generalized-hypercube routing under faults on radix [6, 6, 6, 6], on
/// every detected core.
fn hypercube_row() -> Row {
    use csn_bench::scenario_bench::generalized_hypercube;
    use csn_core::distsim::{ChurnSchedule, FaultModel};
    use csn_core::labeling::bellman_ford::run_resilient;

    let radix = [6usize, 6, 6, 6];
    let cube = generalized_hypercube(&radix);
    let (n, edges) = (cube.node_count(), cube.edge_count());
    let horizon = radix.len() + 1;
    let faults = FaultModel::lossy(0.2, 37)
        .with_delay(0.15)
        .with_churn(ChurnSchedule::random(n, 40, 0.005, 3, 37).protect(0));
    let cores = csn_bench::pool::available_parallelism();
    let ((out, _), wall) = timed(|| run_resilient(&cube, 0, horizon, 400, 3, faults, cores));
    let labeled = out.labels.iter().filter(|l| l.dist < horizon).count();
    eprintln!("scenario hypercube: {labeled}/{n} labeled in {} faulted rounds", out.rounds);
    Row::new("scenario", "hypercube")
        .param("radix", format!("{radix:?}"))
        .counter("nodes", n)
        .counter("edges", edges)
        .counter("faulted_rounds", out.rounds)
        .counter("faulted_labeled", labeled)
        .wall_secs(wall)
}

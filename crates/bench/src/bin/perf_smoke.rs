//! `perf_smoke` — the `BENCH_*.json` rows no benchmark workload covers.
//!
//! Each tier writes one committed artifact (or `--out PATH`). Wall times
//! are informational: the box may be single-core and noisy, so the
//! trajectory lives in the committed JSON, not in a pass/fail threshold.
//! Counts (touches, edges, rounds, messages, contacts) are exact and
//! deterministic. The correctness of everything measured here is asserted
//! by tier-1 tests — `crates/bench/tests/gates.rs` and the crates' property
//! suites — so this binary exits non-zero only on a usage error (status 2)
//! or when it cannot write its artifact (status 1).
//!
//! 1. **Default tier** → `BENCH_kernels.json`: Brandes betweenness and
//!    all-pairs BFS on a BA graph's adjacency list and its frozen form,
//!    fresh-alloc vs scratch Brandes, `betweenness_par` per worker count,
//!    the landmark-table build (k = 16) one BFS per landmark vs
//!    multi-source with the arcs each scans, a snapshot sweep by rebuilds
//!    and by cursor, a faulted Bellman–Ford run, and the counted-touch
//!    `maintain` rows: node touches of the k-core,
//!    NSF and forwarding-set maintainers on a sparse edge-Markovian trace
//!    next to per-step rebuilds (see `csn_bench::kernels_bench`).
//! 2. **`--scale`** → `BENCH_scale.json`: at `--scale-nodes` (default 10⁶),
//!    edges/s built per streaming generator, bytes/node of the frozen form,
//!    and traversed edges/s per kernel. See SCALING.md.
//! 3. **`--distsim`** → `BENCH_distsim.json`: protocol throughput at n ∈
//!    {10⁴, 10⁵, 10⁶} capped by `--distsim-nodes` — rounds/s, messages/s
//!    and the simulator's bytes/node, on one stepper worker so the memory
//!    is an exact count. See DISTSIM.md.
//! 4. **`--scenario`** → `BENCH_scenario.json`: contacts/s and
//!    bytes/contact of the `--scenario-nodes` city trace (default 3000
//!    nodes ⇒ ≥10⁶ contacts), the DTN ladder on it, TOUR forwarding from
//!    its estimated rates, a `TrackedCursor` k-core sweep, a
//!    `--scenario-pubsub-nodes` (default 10⁵) Gnutella-style pub-sub run
//!    under churn, and generalized-hypercube routing under faults. See
//!    SCENARIOS.md.
//!
//! Usage: `cargo run -p csn-bench --release --bin perf_smoke [-- --out PATH]`
//! or: `... -- --scale [--scale-nodes 1000000] [--out BENCH_scale.json]`
//! or: `... -- --distsim [--distsim-nodes 1000000] [--out BENCH_distsim.json]`
//! or: `... -- --scenario [--scenario-nodes 3000] \
//!   [--scenario-pubsub-nodes 100000] [--out BENCH_scenario.json]`

use csn_bench::cli::{usage_error, Flags};
use csn_bench::kernels_bench::{
    maintain_rows, synthetic_trim, BenchKernels, LandmarkRow, Timing, KERNELS_SCHEMA,
};
use csn_bench::timed;
use csn_core::graph::centrality::{betweenness_centrality, brandes_delta};
use csn_core::graph::landmark::UNREACHABLE;
use csn_core::graph::parallel::betweenness_par;
use csn_core::graph::scratch::BfsScratch;
use csn_core::graph::traversal::{all_pairs_bfs, bfs_distances_into};
use csn_core::graph::{generators, GraphError, GraphView, LandmarkIndex, NodeId};
use csn_core::temporal::markovian::EdgeMarkovian;
use serde::Serialize;
use std::hint::black_box;

/// A tier: its switch (empty for the default tier), the options it takes
/// besides `--out`, its committed artifact, and the run that returns the
/// artifact's JSON.
type Tier = (&'static str, &'static [&'static str], &'static str, fn(&Flags) -> String);

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
    let json = run(&flags);
    if let Err(e) = std::fs::write(&out, json) {
        eprintln!("error: cannot write {out}: {e}");
        std::process::exit(1);
    }
    eprintln!("perf_smoke: wrote {out}");
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

/// Times `run` and appends its row to `timings`.
fn time<T>(timings: &mut Vec<Timing>, kernel: &str, representation: &str, run: impl FnOnce() -> T) {
    let (out, wall_secs) = timed(run);
    black_box(out);
    timings.push(Timing {
        kernel: kernel.into(),
        representation: representation.into(),
        wall_secs,
    });
}

/// The default tier: kernel wall times on a BA graph and two
/// edge-Markovian traces, and the counted-touch maintain rows.
fn run_kernels(_: &Flags) -> String {
    use csn_core::distsim::{ChurnSchedule, FaultModel};
    use csn_core::labeling::bellman_ford::run_resilient;

    let (n, m, seed) = (1500usize, 3usize, 42u64);
    let g = generators::barabasi_albert(n, m, seed).expect("fixed BA parameters");
    let frozen = g.freeze().expect("fits u32");
    let cores = csn_bench::pool::available_parallelism();
    let (tn, horizon, p, q, tseed) = (120usize, 400u32, 0.6, 0.02, 7u64);
    let eg = EdgeMarkovian::new(tn, p, q).generate(horizon, tseed);
    let (fn_, fseed) = (200usize, 13u64);
    let fg = generators::erdos_renyi(fn_, 0.05, 11).expect("fixed ER parameters");
    let faults = FaultModel::lossy(0.3, fseed)
        .with_delay(0.2)
        .with_duplication(0.1)
        .with_reorder()
        .with_churn(ChurnSchedule::random(fn_, 60, 0.01, 5, fseed).protect(0));
    let mut par_jobs = vec![1, 2, 4, 7, cores];
    par_jobs.sort_unstable();
    par_jobs.dedup();

    let mut timings: Vec<Timing> = Vec::new();
    time(&mut timings, "all_pairs_bfs", "adjacency", || all_pairs_bfs(&g));
    time(&mut timings, "all_pairs_bfs", "frozen", || all_pairs_bfs(&frozen));
    time(&mut timings, "betweenness", "adjacency", || betweenness_centrality(&g));
    time(&mut timings, "betweenness", "fresh_alloc", || fresh_alloc_betweenness(&frozen));
    time(&mut timings, "betweenness", "scratch", || betweenness_centrality(&frozen));
    for &jobs in &par_jobs {
        time(&mut timings, &format!("betweenness_par(jobs={jobs})"), "scratch", || {
            betweenness_par(&frozen, jobs)
        });
    }
    let (k, landmark_seed) = (16usize, 0xC5u64);
    let idx = LandmarkIndex::build(&frozen, k, landmark_seed);
    let landmarks = LandmarkRow::new(&frozen, &idx, landmark_seed);
    let kernel = format!("landmark_build(k={k})");
    time(&mut timings, &kernel, "per_landmark_bfs", || {
        per_landmark_tables(&frozen, idx.landmarks())
    });
    time(&mut timings, &kernel, "multi_source", || LandmarkIndex::build(&frozen, k, landmark_seed));
    time(&mut timings, "snapshot_sweep", "rebuild", || {
        for t in 0..eg.horizon() {
            black_box(eg.snapshot(t));
        }
    });
    time(&mut timings, "snapshot_sweep", "cursor", || {
        let mut cur = eg.snapshot_cursor();
        black_box(cur.graph());
        while cur.advance() {
            black_box(cur.graph());
        }
    });
    time(&mut timings, "faulted_bellman_ford", "simulator", || {
        run_resilient(&fg, 0, 64, 500, 3, faults.clone())
    });

    let (sp, sq) = (0.25, 0.001);
    let seg = EdgeMarkovian::new(tn, sp, sq).generate(horizon, tseed);
    let maintain = maintain_rows(&seg, &synthetic_trim(tn));
    for row in &maintain {
        eprintln!(
            "maintain [{}]: rebuild {:.3}s / {} touches vs incremental {:.3}s / {} touches",
            row.structure,
            row.rebuild_secs,
            row.rebuild_node_touches,
            row.incremental_secs,
            row.incremental_node_touches
        );
    }
    eprintln!(
        "landmarks (k={k}): {} arcs scanned vs {} one BFS per landmark",
        landmarks.arcs_scanned, landmarks.per_landmark_arcs
    );
    eprintln!("kernels on BA({n},{m}): {} timing rows ({cores} core(s))", timings.len());
    serde::json::to_string_pretty(&BenchKernels {
        schema: KERNELS_SCHEMA.to_string(),
        git_rev: git_rev(),
        graph: format!("barabasi_albert({n}, {m}, seed={seed})"),
        temporal_graph: format!(
            "edge_markovian(n={tn}, p={p}, q={q}, horizon={horizon}, seed={tseed})"
        ),
        maintain_graph: format!(
            "edge_markovian(n={tn}, p={sp}, q={sq}, horizon={horizon}, seed={tseed})"
        ),
        detected_cores: cores,
        landmarks,
        maintain,
        timings,
    })
}

#[derive(Serialize)]
struct GenBuild {
    generator: String,
    nodes: usize,
    edges: usize,
    build_secs: f64,
    edges_per_sec: f64,
}

#[derive(Serialize)]
struct MemRow {
    representation: String,
    heap_bytes: usize,
    bytes_per_node: f64,
}

#[derive(Serialize)]
struct KernelRow {
    kernel: String,
    representation: String,
    samples: usize,
    wall_secs: f64,
    traversed_edges_per_sec: f64,
}

#[derive(Serialize)]
struct BenchScale {
    schema: String,
    git_rev: String,
    detected_cores: usize,
    scale_nodes: usize,
    generators: Vec<GenBuild>,
    memory: Vec<MemRow>,
    kernels: Vec<KernelRow>,
}

/// The `--scale` tier: generator, memory and kernel throughput at
/// `--scale-nodes`.
fn run_scale(flags: &Flags) -> String {
    use csn_core::graph::approx;
    use csn_core::graph::parallel::betweenness_sampled_par;
    use csn_core::graph::stream::{
        BaStream, EdgeStream, GeometricStream, GnutellaStream, KleinbergStream,
    };
    use csn_core::graph::traversal::bfs_distances;

    let nodes: usize = flags.get("--scale-nodes", 1_000_000);
    let cores = csn_bench::pool::available_parallelism();

    // --- Each generator builds straight into compact CSR; edges/s counts
    // undirected edges. Only the BA graph is kept, for the rows below.
    let mut gen_rows = Vec::new();
    let mut build = |generator: String, gen_nodes: usize, stream: &dyn Fn() -> Result<_, _>| {
        let (c, build_secs) = timed(|| sized(stream(), "--scale-nodes", nodes));
        let edges = GraphView::edge_count(&c);
        let edges_per_sec = edges as f64 / build_secs;
        gen_rows.push(GenBuild { generator, nodes: gen_nodes, edges, build_secs, edges_per_sec });
        c
    };
    let ba_c = build(format!("barabasi_albert(n={nodes}, m=3)"), nodes, &|| {
        BaStream::new(nodes, 3, 1)?.to_compact_csr()
    });
    // Radius chosen for expected average degree ~6: n·πr² ≈ 6.
    let radius = (6.0 / (std::f64::consts::PI * nodes as f64)).sqrt();
    build(format!("random_geometric(n={nodes}, r={radius:.5})"), nodes, &|| {
        GeometricStream::new(nodes, radius, 2)?.to_compact_csr()
    });
    let side = (nodes as f64).sqrt() as usize;
    build(format!("kleinberg_grid(side={side}, q=1, alpha=2)"), side * side, &|| {
        KleinbergStream::new(side, 1, 2.0, 3)?.to_compact_csr()
    });
    build(format!("gnutella_like(n={nodes}, m=3, cap=64, extra=0.05)"), nodes, &|| {
        GnutellaStream::new(nodes, 3, 64, 0.05, 4)?.to_compact_csr()
    });
    let ba_edges = GraphView::edge_count(&ba_c);

    // --- Memory: the BA graph's frozen form.
    let memory = vec![MemRow {
        representation: "compact_csr_u32".into(),
        heap_bytes: ba_c.heap_bytes(),
        bytes_per_node: ba_c.heap_bytes() as f64 / nodes as f64,
    }];

    // --- Kernel throughput on the compact BA graph. A BFS relaxes every
    // packed entry once: 2·edge_count traversed edges per source.
    let samples = 32usize.min(nodes);
    let per_source = 2 * ba_edges;
    let (_, t_bfs) = timed(|| bfs_distances(&ba_c, 0));
    let (_, t_bs) = timed(|| approx::betweenness_sampled(&ba_c, samples, 9));
    let (_, t_cs) = timed(|| approx::closeness_sampled(&ba_c, samples, 9));
    let (_, t_bsp) = timed(|| betweenness_sampled_par(&ba_c, samples, 9, cores));
    let kernel = |kernel: String, samples: usize, wall_secs: f64| KernelRow {
        kernel,
        representation: "compact_csr".into(),
        samples,
        wall_secs,
        traversed_edges_per_sec: (samples * per_source) as f64 / wall_secs,
    };
    let kernels = vec![
        kernel("bfs_distances".into(), 1, t_bfs),
        kernel("betweenness_sampled".into(), samples, t_bs),
        kernel("closeness_sampled".into(), samples, t_cs),
        kernel(format!("betweenness_sampled_par(jobs={cores})"), samples, t_bsp),
    ];

    eprintln!(
        "scale at n={nodes}: BA build {:.3}s ({:.0} edges/s); sampled betweenness k={samples} \
         {t_bs:.3}s ({cores} core(s))",
        gen_rows[0].build_secs, gen_rows[0].edges_per_sec
    );
    serde::json::to_string_pretty(&BenchScale {
        schema: "structura-bench-scale-v3".to_string(),
        git_rev: git_rev(),
        detected_cores: cores,
        scale_nodes: nodes,
        generators: gen_rows,
        memory,
        kernels,
    })
}

/// The `--distsim` tier: protocol throughput at n ∈ {10⁴, 10⁵, 10⁶} ∩
/// [0, `--distsim-nodes`] on BA topologies thawed from the compact-CSR
/// streaming builder, on one stepper worker.
fn run_distsim(flags: &Flags) -> String {
    use csn_bench::distsim_bench::{
        mis_priorities, BenchDistsim, BenchFlood, ProtocolRow, DISTSIM_SCHEMA,
    };
    use csn_core::distsim::{FaultModel, Protocol, Simulator};
    use csn_core::graph::stream::{BaStream, EdgeStream};
    use csn_core::graph::Graph;
    use csn_core::labeling::bellman_ford::BellmanFord;
    use csn_core::labeling::protocols::{MarkingProtocol, MisProtocol};

    let nodes: usize = flags.get("--distsim-nodes", 1_000_000);
    let cores = csn_bench::pool::available_parallelism();

    // Fault-free protocol runs on one worker: with more, the arenas'
    // capacity, and so `sim_heap_bytes`, varies with work stealing, and on
    // few cores a second worker barely speeds a round up. Bit-identity
    // across job counts is a tier-1 test. Graph construction is excluded
    // from the timed region; the simulator takes the graph by value so
    // only one adjacency copy is resident.
    const JOBS: usize = 1;
    fn scale_row<P: Protocol>(
        name: &str,
        g: Graph,
        protocol: &P,
        max_rounds: usize,
    ) -> ProtocolRow {
        let n = g.node_count();
        let edges = g.edge_count();
        let mut sim = Simulator::with_faults_owned(g, protocol, FaultModel::none()).with_jobs(JOBS);
        let (stats, wall) = timed(|| sim.run_until_quiet(max_rounds));
        let heap = sim.heap_bytes();
        let wall_div = wall.max(1e-9);
        eprintln!(
            "distsim {name} n={n}: {wall:.3}s, {:.0} msg/s",
            stats.messages as f64 / wall_div
        );
        ProtocolRow {
            protocol: name.to_string(),
            nodes: n,
            edges,
            jobs: JOBS,
            rounds: stats.rounds,
            messages: stats.messages,
            converged: stats.quiescent,
            wall_secs: wall,
            rounds_per_sec: stats.rounds as f64 / wall_div,
            messages_per_sec: stats.messages as f64 / wall_div,
            sim_heap_bytes: heap,
            bytes_per_node: heap as f64 / n as f64,
        }
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
    let mut protocols: Vec<ProtocolRow> = Vec::new();
    for &n in &scale_ns {
        let graph = sized(
            BaStream::new(n, 3, 1).and_then(|s| s.to_compact_csr()),
            "--distsim-nodes",
            nodes,
        )
        .thaw();
        protocols.push(scale_row("flood", graph.clone(), &BenchFlood, 200));
        let bf = BellmanFord { dest: 0, horizon: 64 };
        protocols.push(scale_row("bellman_ford", graph.clone(), &bf, 2000));
        if n <= MIS_CAP {
            let mis = MisProtocol { priority: mis_priorities(n) };
            protocols.push(scale_row("mis", graph.clone(), &mis, 10_000));
        }
        if n <= CDS_CAP {
            protocols.push(scale_row("cds_marking", graph, &MarkingProtocol, 10));
        }
    }

    eprintln!("distsim: {} rows ({cores} core(s))", protocols.len());
    serde::json::to_string_pretty(&BenchDistsim {
        schema: DISTSIM_SCHEMA.to_string(),
        git_rev: git_rev(),
        detected_cores: cores,
        scale_graph: "barabasi_albert(n, m=3, seed=1) [thawed compact csr]".to_string(),
        protocols,
    })
}

/// The `--scenario` tier: the city-scale scenario suite of SCENARIOS.md
/// at `--scenario-nodes` and `--scenario-pubsub-nodes`.
fn run_scenario(flags: &Flags) -> String {
    use csn_bench::scenario_bench::{
        city, discretize_flat, dtn_queries, generalized_hypercube, tour_policy, BenchScenario,
        DtnRow, HypercubeRow, PubSub, PubSubRow, TourRow, TraceRow, TrackRow, CITY_DT,
        CITY_DURATION, SCENARIO_SCHEMA, TOUR_UTILITY,
    };
    use csn_core::distsim::{ChurnSchedule, FaultModel, Simulator};
    use csn_core::graph::cores::IncrementalCores;
    use csn_core::graph::stream::{EdgeStream, GnutellaStream};
    use csn_core::labeling::bellman_ford::run_resilient_par;
    use csn_core::mobility::scenario::CityScenario;
    use csn_core::mobility::stream::ContactStream;
    use csn_core::mobility::ContactEvent;
    use csn_core::temporal::routing::{
        direct_delivery_over, epidemic_over, spray_and_wait_over, DtnOutcome,
    };
    use csn_core::temporal::{Contact, TrackedCursor};

    let nodes = flags.get("--scenario-nodes", 3_000usize).max(16);
    let pubsub_nodes = flags.get("--scenario-pubsub-nodes", 100_000usize).max(64);
    let cores = csn_bench::pool::available_parallelism();

    // --- The city trace at `nodes`: one counting pass (throughput row)
    // and one discretization pass into the flat slice.
    let city = city(nodes);
    let n = ContactStream::node_count(&city);
    let (contacts, stream_secs) = timed(|| city.count_contacts());
    let (flat, discretize_secs) = timed(|| discretize_flat(&city, CITY_DT));
    eprintln!(
        "scenario trace: {contacts} contacts in {stream_secs:.3}s \
         ({:.0} contacts/s); flat slice {} tuples in {discretize_secs:.3}s",
        contacts as f64 / stream_secs.max(1e-9),
        flat.len()
    );

    // --- The DTN ladder end-to-end on the flat slice.
    let queries = dtn_queries(n);
    type Strategy = fn(usize, &[Contact], usize, usize) -> DtnOutcome;
    let ladder: [(&str, Strategy); 3] = [
        ("direct", |_, flat, s, d| direct_delivery_over(flat, s, d, 0)),
        ("spray_and_wait(8)", |n, flat, s, d| spray_and_wait_over(n, flat, s, d, 0, 8)),
        ("epidemic", |n, flat, s, d| epidemic_over(n, flat, s, d, 0)),
    ];
    let mut dtn_rows: Vec<DtnRow> = Vec::new();
    for (name, strategy) in ladder {
        let (outs, wall) =
            timed(|| queries.iter().map(|&(s, d)| strategy(n, &flat, s, d)).collect::<Vec<_>>());
        let delays: Vec<f64> = outs.iter().filter_map(|o| o.delivered_at).map(f64::from).collect();
        dtn_rows.push(DtnRow {
            strategy: name.to_string(),
            queries: queries.len(),
            delivered: delays.len(),
            delivery_ratio: delays.len() as f64 / queries.len() as f64,
            mean_delay_units: if delays.is_empty() {
                0.0
            } else {
                delays.iter().sum::<f64>() / delays.len() as f64
            },
            mean_copies: outs.iter().map(|o| o.copies as f64).sum::<f64>() / outs.len() as f64,
            wall_secs: wall,
        });
    }

    // --- TOUR forwarding from the trace's estimated contact rates.
    let (relays, policy) = tour_policy(&city);
    let tour = TourRow {
        relays: relays.len(),
        set_at_start: policy.set_at(0.0).len(),
        set_at_deadline: policy.set_at(TOUR_UTILITY.deadline()).len(),
        shrinks_monotonically: policy.sets_shrink_monotonically(),
    };

    // --- Structure tracking on a mid-size city EG: the incremental k-core
    // maintainer sweeps the whole trace; its counted touches land in the
    // row next to the n·horizon rebuild floor.
    let track_city = CityScenario::new(250, 150, CITY_DURATION, 13);
    let track_eg = ContactStream::to_time_evolving_graph(&track_city, CITY_DT);
    let (track_touches, track_secs) = timed(|| {
        let mut cur = TrackedCursor::new(&track_eg);
        cur.register(Box::new(IncrementalCores::default()));
        while cur.advance() {}
        cur.touched_nodes()
    });
    let tracking = TrackRow {
        nodes: track_eg.node_count(),
        horizon: track_eg.horizon(),
        incremental_secs: track_secs,
        incremental_node_touches: track_touches,
        rebuild_touch_floor: track_eg.node_count() as u64 * track_eg.horizon() as u64,
    };

    // --- Pub-sub under churn at `pubsub_nodes`.
    let protocol = PubSub { topics: 8 };
    let overlay = sized(
        GnutellaStream::new(pubsub_nodes, 3, 64, 0.05, 4).and_then(|s| s.to_compact_csr()),
        "--scenario-pubsub-nodes",
        pubsub_nodes,
    )
    .thaw();
    let overlay_edges = overlay.edge_count();
    let faults = FaultModel::lossy(0.05, 29).with_delay(0.1).with_churn(
        protocol.protect_publishers(ChurnSchedule::random(pubsub_nodes, 80, 0.002, 4, 29)),
    );
    let mut sim = Simulator::with_faults_owned(overlay, &protocol, faults).with_jobs(cores);
    let (ps_stats, ps_wall) = timed(|| sim.run_until_stable(300, 4));
    let pubsub = PubSubRow {
        nodes: pubsub_nodes,
        edges: overlay_edges,
        topics: protocol.topics,
        jobs: cores,
        rounds: ps_stats.rounds,
        messages: ps_stats.messages,
        delivery_ratio: protocol.delivery_ratio(sim.states()),
        wall_secs: ps_wall,
    };
    drop(sim);
    eprintln!(
        "scenario pub-sub n={pubsub_nodes}: {} rounds, {} messages, \
         delivery ratio {:.4} under churn ({ps_wall:.3}s)",
        pubsub.rounds, pubsub.messages, pubsub.delivery_ratio
    );

    // --- Generalized-hypercube routing under faults on radix [6, 6, 6, 6].
    let radix = vec![6usize, 6, 6, 6];
    let cube = generalized_hypercube(&radix);
    let (cube_n, cube_edges) = (cube.node_count(), cube.edge_count());
    let cube_horizon = radix.len() + 1;
    let cube_faults = FaultModel::lossy(0.2, 37)
        .with_delay(0.15)
        .with_churn(ChurnSchedule::random(cube_n, 40, 0.005, 3, 37).protect(0));
    let ((cube_out, _), cube_wall) =
        timed(|| run_resilient_par(&cube, 0, cube_horizon, 400, 3, cube_faults, cores));
    let hypercube = HypercubeRow {
        radix,
        nodes: cube_n,
        edges: cube_edges,
        faulted_rounds: cube_out.rounds,
        faulted_labeled: cube_out.labels.iter().filter(|l| l.dist < cube_horizon).count(),
        wall_secs: cube_wall,
    };

    eprintln!(
        "scenario at n={n}: {contacts} contacts, DTN ratios {:.3}/{:.3}/{:.3}, TOUR {} relays, \
         hypercube {}/{cube_n} labeled ({cores} core(s))",
        dtn_rows[0].delivery_ratio,
        dtn_rows[1].delivery_ratio,
        dtn_rows[2].delivery_ratio,
        tour.relays,
        hypercube.faulted_labeled
    );
    serde::json::to_string_pretty(&BenchScenario {
        schema: SCENARIO_SCHEMA.to_string(),
        git_rev: git_rev(),
        detected_cores: cores,
        trace: TraceRow {
            scenario: format!(
                "city(vehicles={}, pedestrians={}, duration={}, seed={})",
                city.vehicle_count(),
                city.pedestrian_count(),
                city.duration,
                city.seed
            ),
            vehicles: city.vehicle_count(),
            pedestrians: city.pedestrian_count(),
            duration_secs: city.duration,
            contacts,
            stream_secs,
            contacts_per_sec: contacts as f64 / stream_secs.max(1e-9),
            bytes_per_contact_materialized: std::mem::size_of::<ContactEvent>(),
            bytes_per_contact_flat: std::mem::size_of::<Contact>(),
            flat_contacts: flat.len(),
            discretize_secs,
        },
        dtn: dtn_rows,
        tour,
        tracking,
        pubsub,
        hypercube,
    })
}

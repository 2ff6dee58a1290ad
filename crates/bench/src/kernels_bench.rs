//! The `BENCH_kernels.json` document written by the default `perf_smoke`
//! tier, and the counted-touch sweep it shares with `tests/gates.rs`.
//!
//! The document holds kernel wall times (Brandes and all-pairs BFS on the
//! adjacency list and its frozen form, fresh-alloc vs scratch Brandes,
//! `betweenness_par`, snapshot sweeps, a faulted Bellman–Ford run) and the
//! `maintain` block: per structure maintainer, the node touches of a
//! `TrackedCursor` sweep next to those of per-step rebuilds. Wall times are
//! informational; the touch counts are exact, and `scripts/check.sh`
//! compares them with the committed artifact.

use crate::timed;
use csn_core::graph::cores::{core_numbers, IncrementalCores};
use csn_core::graph::{Graph, NodeId};
use csn_core::layering::nsf::{nsf_levels, IncrementalNsf};
use csn_core::temporal::maintain::StructureMaintainer;
use csn_core::temporal::{TimeEvolvingGraph, TrackedCursor};
use csn_core::trimming::incremental::{forwarding_sets_at, IncrementalForwarding};
use serde::Serialize;
use std::hint::black_box;

/// Schema tag of `BENCH_kernels.json`; bump on layout changes and
/// regenerate the committed artifact in the same commit.
pub const KERNELS_SCHEMA: &str = "structura-bench-kernels-v5";

/// One timed kernel run.
#[derive(Serialize)]
pub struct Timing {
    /// Kernel name, with its worker count where it has one.
    pub kernel: String,
    /// Graph form or code path the kernel ran on.
    pub representation: String,
    /// Wall time, seconds.
    pub wall_secs: f64,
}

/// One structure maintainer swept over a trace, against per-step rebuilds.
#[derive(Serialize)]
pub struct MaintainRow {
    /// `cores`, `nsf` or `forwarding`.
    pub structure: String,
    /// Wall time of the per-step rebuild sweep, seconds.
    pub rebuild_secs: f64,
    /// Wall time of the maintained sweep, seconds.
    pub incremental_secs: f64,
    /// Node touches the rebuilds must make at least (see [`maintain_rows`]).
    pub rebuild_node_touches: u64,
    /// Node touches the maintainer counted.
    pub incremental_node_touches: u64,
}

/// The whole `BENCH_kernels.json` document.
#[derive(Serialize)]
pub struct BenchKernels {
    /// [`KERNELS_SCHEMA`].
    pub schema: String,
    /// `git rev-parse HEAD` at run time.
    pub git_rev: String,
    /// The BA graph of the Brandes and BFS rows.
    pub graph: String,
    /// The edge-Markovian trace of the snapshot-sweep rows.
    pub temporal_graph: String,
    /// The edge-Markovian trace of the `maintain` rows.
    pub maintain_graph: String,
    /// Hardware threads detected.
    pub detected_cores: usize,
    /// Counted-touch rows, one per structure maintainer.
    pub maintain: Vec<MaintainRow>,
    /// Kernel wall times.
    pub timings: Vec<Timing>,
}

/// A deterministic frozen trim overlay over `n` nodes (~1/11 of all
/// directed arcs): the forwarding maintainer is agnostic to where the trim
/// came from, and a fixed rule keeps its sweep independent of `trim_arcs`.
pub fn synthetic_trim(n: usize) -> Vec<(NodeId, NodeId)> {
    (0..n)
        .flat_map(|u| (0..n).map(move |w| (u, w)))
        .filter(|&(u, w)| u != w && (u * 31 + w * 7) % 11 == 0)
        .collect()
}

/// Sweeps the k-core, NSF and forwarding-set maintainers over `eg` on a
/// `TrackedCursor`, one maintainer per sweep, and the per-step rebuilds of
/// the same structures on a `SnapshotCursor`.
///
/// Rebuild touches are a floor, counted from `t = 1` as the maintainers
/// count theirs: `n` per step for cores and forwarding sets (any rebuild
/// visits every node at least once) and `Σ_u level(u)` for NSF (a peel
/// examines each node once per round until it is assigned, the unit
/// `IncrementalNsf` counts too).
pub fn maintain_rows(eg: &TimeEvolvingGraph, trimmed: &[(NodeId, NodeId)]) -> Vec<MaintainRow> {
    let n = eg.node_count() as u64;
    let row = |structure: &str, (rebuild_node_touches, rebuild_secs): (u64, f64), maintained| {
        let (incremental_node_touches, incremental_secs) = maintained;
        MaintainRow {
            structure: structure.to_string(),
            rebuild_secs,
            incremental_secs,
            rebuild_node_touches,
            incremental_node_touches,
        }
    };
    vec![
        row(
            "cores",
            rebuild_sweep(eg, |g| {
                black_box(core_numbers(g));
                n
            }),
            maintained_sweep(eg, Box::new(IncrementalCores::default())),
        ),
        row(
            "nsf",
            rebuild_sweep(eg, |g| nsf_levels(g).iter().sum::<usize>() as u64),
            maintained_sweep(eg, Box::new(IncrementalNsf::default())),
        ),
        row(
            "forwarding",
            rebuild_sweep(eg, |g| {
                black_box(forwarding_sets_at(g, trimmed));
                n
            }),
            maintained_sweep(eg, Box::new(IncrementalForwarding::new(&Graph::new(0), trimmed))),
        ),
    ]
}

/// Rebuilds a structure at every step of `eg`; `rebuild` returns the node
/// touches one rebuild counts. Returns the touches from `t = 1` on and the
/// wall time.
fn rebuild_sweep(eg: &TimeEvolvingGraph, rebuild: impl Fn(&Graph) -> u64) -> (u64, f64) {
    timed(|| {
        let mut cur = eg.snapshot_cursor();
        rebuild(cur.graph());
        let mut touches = 0;
        while cur.advance() {
            touches += rebuild(cur.graph());
        }
        touches
    })
}

/// Carries `maintainer` across every step of `eg`. Returns the node touches
/// it counted and the wall time.
fn maintained_sweep(
    eg: &TimeEvolvingGraph,
    maintainer: Box<dyn StructureMaintainer>,
) -> (u64, f64) {
    timed(|| {
        let mut cur = TrackedCursor::new(eg);
        cur.register(maintainer);
        while cur.advance() {}
        cur.touched_nodes()
    })
}

//! The counted-touch maintain sweep of the default `perf_smoke` tier
//! (`BENCH_kernels.json`), shared with `tests/gates.rs`: per structure
//! maintainer, the node touches of a `TrackedCursor` sweep next to those
//! of per-step rebuilds. The touch counts are exact, and `scripts/check.sh`
//! compares them with the committed artifact.

use crate::rows::Row;
use crate::timed;
use csn_core::graph::cores::{core_numbers, IncrementalCores};
use csn_core::graph::{Graph, NodeId};
use csn_core::layering::nsf::{nsf_levels, IncrementalNsf};
use csn_core::temporal::maintain::StructureMaintainer;
use csn_core::temporal::{TimeEvolvingGraph, TrackedCursor};
use csn_core::trimming::incremental::{forwarding_sets_at, IncrementalForwarding};
use std::hint::black_box;

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
/// the same structures on a `SnapshotCursor`. Returns one `maintain` row
/// per structure, keyed by its `structure` parameter, with the counters
/// `rebuild_node_touches` and `incremental_node_touches` and the wall time
/// of the maintained sweep; both sweeps' wall times go to stderr.
///
/// Rebuild touches are a floor, counted from `t = 1` as the maintainers
/// count theirs: `n` per step for cores and forwarding sets (any rebuild
/// visits every node at least once) and `Σ_u level(u)` for NSF (a peel
/// examines each node once per round until it is assigned, the unit
/// `IncrementalNsf` counts too).
pub fn maintain_rows(eg: &TimeEvolvingGraph, trimmed: &[(NodeId, NodeId)]) -> Vec<Row> {
    let n = eg.node_count() as u64;
    let row = |structure: &'static str, (rebuild, rebuild_secs): (u64, f64), maintained| {
        let (incremental, incremental_secs) = maintained;
        eprintln!(
            "maintain [{structure}]: rebuild {rebuild_secs:.3}s / {rebuild} touches vs \
             incremental {incremental_secs:.3}s / {incremental} touches"
        );
        Row::new("kernels", "maintain")
            .param("structure", structure)
            .counter("rebuild_node_touches", rebuild)
            .counter("incremental_node_touches", incremental)
            .wall_secs(incremental_secs)
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

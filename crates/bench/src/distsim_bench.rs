//! The `BENCH_distsim.json` document written by `perf_smoke --distsim`:
//! protocol-layer throughput (rounds/s, messages/s, bytes/node) at
//! 10⁴–10⁶ nodes over the deterministic parallel stepper of `csn-distsim`,
//! plus the bench flood and MIS priorities the distsim tests in
//! `tests/gates.rs` share.
//!
//! The throughput numbers are informational (see DISTSIM.md for the memory
//! model and how to read the rows); bitwise serial-vs-parallel equality and
//! the conservation law are tier-1 tests. `scripts/check.sh` greps the
//! committed artifact for [`DISTSIM_SCHEMA`] freshness the same way it does
//! for the other bench artifacts.

use csn_core::distsim::{Neighborhood, Outbox, Protocol};
use csn_core::graph::NodeId;
use serde::Serialize;

/// Schema tag of `BENCH_distsim.json`; bump on layout changes and
/// regenerate the committed artifact in the same commit.
pub const DISTSIM_SCHEMA: &str = "structura-bench-distsim-v2";

/// One protocol run at one scale.
#[derive(Serialize)]
pub struct ProtocolRow {
    /// Protocol name (`flood`, `bellman_ford`, `mis`, `cds_marking`).
    pub protocol: String,
    /// Node count of the BA topology.
    pub nodes: usize,
    /// Edge count of the BA topology.
    pub edges: usize,
    /// Stepper workers used for this run.
    pub jobs: usize,
    /// Rounds executed until quiescence (or budget).
    pub rounds: usize,
    /// Messages delivered.
    pub messages: usize,
    /// Whether the protocol quiesced within its round budget.
    pub converged: bool,
    /// Wall time of the run, seconds (excludes graph construction).
    pub wall_secs: f64,
    /// `rounds / wall_secs`.
    pub rounds_per_sec: f64,
    /// `messages / wall_secs`.
    pub messages_per_sec: f64,
    /// Simulator heap after the run (queues, arenas, graph); exact at one
    /// worker, and compared with the committed file by `scripts/check.sh`.
    pub sim_heap_bytes: usize,
    /// `sim_heap_bytes / nodes` — the DISTSIM.md memory-model headline.
    pub bytes_per_node: f64,
}

/// The whole `BENCH_distsim.json` document.
#[derive(Serialize)]
pub struct BenchDistsim {
    /// [`DISTSIM_SCHEMA`].
    pub schema: String,
    /// `git rev-parse HEAD` at run time.
    pub git_rev: String,
    /// Hardware threads detected (the rows run on one stepper worker).
    pub detected_cores: usize,
    /// Description of the topology family of the scale rows.
    pub scale_graph: String,
    /// Throughput rows, one per (protocol, n).
    pub protocols: Vec<ProtocolRow>,
}

/// One-shot flood with a `()` payload — the minimal all-broadcast protocol,
/// used by the bench tier to measure the stepper's own overhead (a round is
/// allocation-free after warmup for a `Copy` message like this). Node 0
/// owns a token; every node forwards once on first receipt.
pub struct BenchFlood;

impl Protocol for BenchFlood {
    type State = (bool, bool);
    type Msg = ();

    fn init(&self, u: NodeId, _ctx: &Neighborhood) -> Self::State {
        (u == 0, false)
    }

    fn round(
        &self,
        _u: NodeId,
        state: &mut Self::State,
        _ctx: &Neighborhood,
        inbox: &[(NodeId, ())],
        out: &mut Outbox<'_, ()>,
    ) {
        if !state.0 && !inbox.is_empty() {
            state.0 = true;
        }
        if state.0 && !state.1 {
            state.1 = true;
            out.broadcast(());
        }
    }
}

/// Distinct per-node MIS priorities: an odd-constant multiplicative hash is
/// a bijection on `u64`, so no two nodes tie (the protocol breaks remaining
/// ties by id anyway, but distinct priorities exercise the common path).
pub fn mis_priorities(n: usize) -> Vec<u64> {
    (0..n as u64).map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15)).collect()
}

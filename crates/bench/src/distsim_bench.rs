//! The bench flood and MIS priorities of `perf_smoke --distsim`
//! (`BENCH_distsim.json`: protocol rounds, messages and simulator heap at
//! 10⁴–10⁶ nodes over the deterministic stepper of `csn-distsim`), shared
//! with the distsim tests in `tests/gates.rs`. See DISTSIM.md for the
//! memory model and how to read the rows.

use csn_core::distsim::{Neighborhood, Outbox, Protocol};
use csn_core::graph::NodeId;

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

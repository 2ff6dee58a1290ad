//! Flat message storage for the parallel stepper.
//!
//! The hot path of [`crate::Simulator::step`] must not allocate per round
//! once warmed up, so every queue here is a flat `Vec` with offset
//! indexing, reused across rounds:
//!
//! * [`WorkerOutbox`] — one per pool worker; node waves append
//!   [`Transmit`]s to a single stream and record a [`WaveSeg`] per wave so
//!   the merge phase can replay the streams in canonical wave order.
//! * [`FlatInbox`] — the per-node inboxes of one round, packed into one
//!   buffer with `(start, len)` offsets and a per-node epoch stamp; stale
//!   entries from previous rounds are never cleared, just out-stamped.
//! * [`RouteScratch`] — a stable counting sort of the merged transmit
//!   streams by receiver, counted and placed in canonical order (wave
//!   ascending = sender ascending, emission order within a sender), so
//!   delivery reads each receiver's messages as one contiguous slice in
//!   exactly the serial simulator's order.
//!
//! Everything is `pub(crate)`: this is plumbing for `lib.rs`, not API.

use csn_graph::NodeId;

/// One validated, accepted message in a worker's outbox stream.
#[derive(Debug, Clone)]
pub(crate) struct Transmit<M> {
    /// Sending node.
    pub from: u32,
    /// Receiving node (validated to be a current neighbor of `from`).
    pub to: u32,
    /// Payload.
    pub msg: M,
}

/// The contiguous slice of a worker's stream produced by one node wave,
/// plus the wave's accounting (summed into [`crate::RunStats`] at merge).
#[derive(Debug, Clone, Copy)]
pub(crate) struct WaveSeg {
    /// Wave index (waves partition `0..n` in ascending node order).
    pub wave: u32,
    /// First stream index of this wave's transmits.
    pub start: u32,
    /// One past the last stream index.
    pub end: u32,
    /// Messages accepted for transmission in this wave.
    pub sent: u32,
    /// Unicasts to non-neighbors rejected in this wave.
    pub misrouted: u32,
}

/// Per-worker envelope arena: a transmit stream plus the wave segments that
/// partition it. Reset (capacity kept) at the start of every round.
#[derive(Debug)]
pub(crate) struct WorkerOutbox<M> {
    pub stream: Vec<Transmit<M>>,
    pub segs: Vec<WaveSeg>,
}

impl<M> Default for WorkerOutbox<M> {
    fn default() -> Self {
        WorkerOutbox { stream: Vec::new(), segs: Vec::new() }
    }
}

impl<M> WorkerOutbox<M> {
    /// Clears the round's contents, keeping both allocations.
    pub fn reset(&mut self) {
        self.stream.clear();
        self.segs.clear();
    }

    /// Owned heap bytes (payload heap behind `M` not traversed).
    pub fn heap_bytes(&self) -> usize {
        self.stream.capacity() * std::mem::size_of::<Transmit<M>>()
            + self.segs.capacity() * std::mem::size_of::<WaveSeg>()
    }
}

/// All per-node inboxes of one round in a single buffer.
///
/// `open(v)` / `push` / `close(v)` must be called with each receiver's
/// entries contiguous (delivery processes one receiver at a time, ascending)
/// — `get(u)` then serves `&buf[start[u]..start[u] + len[u]]` for the
/// current epoch and `&[]` for anything stale.
#[derive(Debug)]
pub(crate) struct FlatInbox<M> {
    epoch: u64,
    stamp: Vec<u64>,
    start: Vec<u32>,
    len: Vec<u32>,
    buf: Vec<(NodeId, M)>,
    total: usize,
}

impl<M> Default for FlatInbox<M> {
    fn default() -> Self {
        FlatInbox {
            epoch: 1,
            stamp: Vec::new(),
            start: Vec::new(),
            len: Vec::new(),
            buf: Vec::new(),
            total: 0,
        }
    }
}

impl<M> FlatInbox<M> {
    /// Grows the per-node arrays to cover `n` nodes (stamps start stale).
    pub fn ensure(&mut self, n: usize) {
        if self.stamp.len() < n {
            self.stamp.resize(n, 0);
            self.start.resize(n, 0);
            self.len.resize(n, 0);
        }
    }

    /// Starts a fresh round: every node's inbox becomes empty in O(1).
    pub fn begin_round(&mut self, n: usize) {
        self.ensure(n);
        self.epoch += 1;
        self.buf.clear();
        self.total = 0;
    }

    /// Node `u`'s inbox for the current round.
    pub fn get(&self, u: NodeId) -> &[(NodeId, M)] {
        if self.stamp.get(u) == Some(&self.epoch) {
            let s = self.start[u] as usize;
            &self.buf[s..s + self.len[u] as usize]
        } else {
            &[]
        }
    }

    /// Opens receiver `v`'s slice; returns the buffer offset to pass to
    /// [`FlatInbox::close`] (and to [`FlatInbox::tail_mut`] for reordering).
    pub fn open(&mut self, v: NodeId) -> usize {
        self.stamp[v] = self.epoch;
        self.start[v] = self.buf.len() as u32;
        self.buf.len()
    }

    /// Appends one entry to the currently open receiver.
    pub fn push(&mut self, from: NodeId, msg: M) {
        self.buf.push((from, msg));
    }

    /// The entries pushed since `open` returned `open_at` — the open
    /// receiver's inbox, mutable for deterministic reorder shuffles.
    pub fn tail_mut(&mut self, open_at: usize) -> &mut [(NodeId, M)] {
        &mut self.buf[open_at..]
    }

    /// Seals the open receiver's slice; returns its length.
    pub fn close(&mut self, v: NodeId, open_at: usize) -> usize {
        let len = self.buf.len() - open_at;
        self.len[v] = len as u32;
        self.total += len;
        len
    }

    /// Empties node `v`'s inbox (crash shedding) without touching the
    /// shared buffer.
    pub fn clear_node(&mut self, v: NodeId) {
        if self.stamp.get(v) == Some(&self.epoch) {
            self.total -= self.len[v] as usize;
            self.len[v] = 0;
        }
    }

    /// Total delivered-but-unconsumed entries (maintained, O(1)).
    pub fn total(&self) -> usize {
        self.total
    }

    /// Owned heap bytes (payload heap behind `M` not traversed).
    pub fn heap_bytes(&self) -> usize {
        self.stamp.capacity() * 8
            + self.start.capacity() * 4
            + self.len.capacity() * 4
            + self.buf.capacity() * std::mem::size_of::<(NodeId, M)>()
    }
}

/// The merged worker streams, grouped by receiver with a stable counting
/// sort: after [`RouteScratch::sort`], [`RouteScratch::receivers`] lists
/// the round's receivers ascending, each with its transmits in exactly the
/// order the serial simulator's `outgoing[v]` held them, as one contiguous
/// slice.
#[derive(Debug, Default)]
pub(crate) struct RouteScratch {
    /// Per node: transmits counted this round, then the receiver's write
    /// cursor into `placed`, left at the end of its range. Zero for every
    /// node outside `touched`.
    pos: Vec<u32>,
    /// Receivers with fresh or delayed messages this round, ascending.
    touched: Vec<u32>,
    /// `(worker, stream index)` of every transmit, grouped by receiver.
    placed: Vec<(u32, u32)>,
}

impl RouteScratch {
    /// Groups one round's transmits by receiver over `n` nodes.
    /// `canonical()` yields every transmit as `(receiver, worker, stream
    /// index)` in canonical order; it is walked twice, to count and then to
    /// place. `delayed` yields each receiver holding delayed messages once,
    /// so it is delivered to even with no fresh ones.
    pub fn sort<I: Iterator<Item = (NodeId, u32, u32)>>(
        &mut self,
        n: usize,
        canonical: impl Fn() -> I,
        delayed: impl Iterator<Item = NodeId>,
    ) {
        for &v in &self.touched {
            self.pos[v as usize] = 0;
        }
        if self.pos.len() < n {
            self.pos.resize(n, 0);
        }
        self.touched.clear();
        let mut total = 0usize;
        for (v, _, _) in canonical() {
            if self.pos[v] == 0 {
                self.touched.push(v as u32);
            }
            self.pos[v] += 1;
            total += 1;
        }
        assert!(total < u32::MAX as usize, "more than u32::MAX transmits in one round");
        for v in delayed {
            if self.pos[v] == 0 {
                self.touched.push(v as u32);
            }
        }
        self.touched.sort_unstable();
        let mut at = 0;
        for &v in &self.touched {
            let count = self.pos[v as usize];
            self.pos[v as usize] = at;
            at += count;
        }
        self.placed.clear();
        self.placed.resize(total, (0, 0));
        for (v, worker, j) in canonical() {
            let cursor = &mut self.pos[v];
            self.placed[*cursor as usize] = (worker, j);
            *cursor += 1;
        }
    }

    /// The round's receivers in ascending order, each with its placed
    /// transmits in canonical order (empty for delayed-only receivers).
    pub fn receivers(&self) -> impl Iterator<Item = (NodeId, &[(u32, u32)])> + '_ {
        let mut start = 0;
        self.touched.iter().map(move |&v| {
            let end = self.pos[v as usize] as usize;
            let range = &self.placed[start..end];
            start = end;
            (v as usize, range)
        })
    }

    /// Owned heap bytes.
    pub fn heap_bytes(&self) -> usize {
        self.pos.capacity() * 4 + self.touched.capacity() * 4 + self.placed.capacity() * 8
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn flat_inbox_round_trips_and_restamps() {
        let mut ib: FlatInbox<u32> = FlatInbox::default();
        ib.begin_round(4);
        let at = ib.open(2);
        ib.push(0, 10);
        ib.push(1, 11);
        assert_eq!(ib.close(2, at), 2);
        assert_eq!(ib.get(2), &[(0, 10), (1, 11)]);
        assert_eq!(ib.get(1), &[] as &[(NodeId, u32)]);
        assert_eq!(ib.total(), 2);
        ib.clear_node(2);
        assert_eq!(ib.get(2), &[] as &[(NodeId, u32)]);
        assert_eq!(ib.total(), 0);
        // Next round: everything stale without any per-node clearing.
        ib.begin_round(4);
        assert_eq!(ib.get(2), &[] as &[(NodeId, u32)]);
        let at = ib.open(0);
        ib.push(3, 7);
        ib.close(0, at);
        assert_eq!(ib.get(0), &[(3, 7)]);
    }

    /// Sorts one round of `fresh` transmits, `(receiver, worker, stream
    /// index)` in canonical order, plus the `delayed`-only holders; returns
    /// each receiver with its placed entries.
    fn route(
        rs: &mut RouteScratch,
        n: usize,
        fresh: &[(NodeId, u32, u32)],
        delayed: &[NodeId],
    ) -> Vec<(NodeId, Vec<(u32, u32)>)> {
        rs.sort(n, || fresh.iter().copied(), delayed.iter().copied());
        rs.receivers().map(|(v, r)| (v, r.to_vec())).collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Wave `i` of the canonical stream `tos` is `tos[3i..3i + 3]`,
        /// stepped by worker `waves[i].0`; the workers step the waves in
        /// the order of the keys `waves[i].1`, not in wave order, so each
        /// transmit's `(worker, stream index)` slot is assigned out of
        /// canonical order. Routing must give each receiver its transmits
        /// as a stable sort of the canonical stream by receiver does.
        #[test]
        fn route_is_a_stable_sort_by_receiver(case in (
            proptest::collection::vec(0usize..12, 0..80),
            proptest::collection::vec((0u32..3, 0u32..1_000), 27..28),
        )) {
            let (tos, waves) = case;
            let n_waves = tos.len().div_ceil(3);
            let mut step_order: Vec<usize> = (0..n_waves).collect();
            step_order.sort_by_key(|&i| waves[i].1);
            let mut stream_len = [0u32; 3];
            let mut canonical = vec![Vec::new(); n_waves];
            for i in step_order {
                let w = waves[i].0;
                for &to in &tos[3 * i..(3 * i + 3).min(tos.len())] {
                    canonical[i].push((to, w, stream_len[w as usize]));
                    stream_len[w as usize] += 1;
                }
            }
            let canonical = canonical.concat();
            let want: Vec<(NodeId, Vec<(u32, u32)>)> = (0..12)
                .map(|v| (v, canonical.iter().filter(|t| t.0 == v).map(|t| (t.1, t.2)).collect()))
                .filter(|(_, r): &(NodeId, Vec<_>)| !r.is_empty())
                .collect();
            prop_assert_eq!(route(&mut RouteScratch::default(), 12, &canonical, &[]), want);
        }
    }

    #[test]
    fn delayed_only_receivers_sort_in_with_empty_ranges() {
        // Receiver 1 holds delayed messages as well as a fresh one.
        let got =
            route(&mut RouteScratch::default(), 6, &[(4, 0, 0), (1, 0, 1), (4, 1, 0)], &[5, 1, 0]);
        assert_eq!(
            got,
            vec![(0, vec![]), (1, vec![(0, 1)]), (4, vec![(0, 0), (1, 0)]), (5, vec![])]
        );
    }

    #[test]
    fn a_round_starts_with_no_leftover_counts() {
        let mut rs = RouteScratch::default();
        let got = route(&mut rs, 3, &[(2, 0, 0), (0, 0, 1), (2, 0, 2)], &[]);
        assert_eq!(got, vec![(0, vec![(0, 1)]), (2, vec![(0, 0), (0, 2)])]);
        // Leftover counts would hide 2 from the delayed holders and shift
        // 0's range.
        assert_eq!(route(&mut rs, 3, &[(0, 1, 7)], &[2]), vec![(0, vec![(1, 7)]), (2, vec![])]);
    }
}

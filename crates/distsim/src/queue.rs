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
//!   ascending = sender ascending, emission order within a sender). It
//!   places each message's sender and payload, so delivery reads each
//!   receiver's messages sequentially, as one contiguous slice, in exactly
//!   the serial simulator's order. Its receivers come out ascending from a
//!   [`NodeSet`] bitset, with no sort.
//!
//! The simulator's delayed messages live in one flat `(to, from, msg)`
//! queue sorted by receiver (`lib.rs`), which delivery rebuilds in order
//! each round.
//!
//! Everything is `pub(crate)`: this is plumbing for `lib.rs`, not API.

use csn_graph::NodeId;
use std::num::NonZeroU32;

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

/// One bit per node, all clear between uses: the route's receiver set and
/// the crash marks of one event batch.
#[derive(Debug, Default)]
pub(crate) struct NodeSet {
    words: Vec<u64>,
}

impl NodeSet {
    /// Grows the set to cover `n` nodes.
    pub fn ensure(&mut self, n: usize) {
        let words = n.div_ceil(64);
        if self.words.len() < words {
            self.words.resize(words, 0);
        }
    }

    /// Adds `v` (covered by an earlier [`NodeSet::ensure`]).
    pub fn insert(&mut self, v: NodeId) {
        self.words[v / 64] |= 1 << (v % 64);
    }

    /// Whether `v` is in the set (covered by an earlier
    /// [`NodeSet::ensure`]).
    pub fn contains(&self, v: NodeId) -> bool {
        self.words[v / 64] & (1 << (v % 64)) != 0
    }

    /// Appends the members to `out` in ascending order, emptying the set.
    pub fn drain_into(&mut self, out: &mut Vec<u32>) {
        for (i, word) in self.words.iter_mut().enumerate() {
            while *word != 0 {
                out.push((i * 64) as u32 + word.trailing_zeros());
                *word &= *word - 1;
            }
        }
    }

    /// Empties the set.
    pub fn clear(&mut self) {
        self.words.fill(0);
    }

    /// Owned heap bytes.
    pub fn heap_bytes(&self) -> usize {
        self.words.capacity() * 8
    }
}

/// One placed message: its sender plus one, and its payload. The niche of
/// `NonZeroU32` keeps an empty slot as small as a full one.
pub(crate) type Placed<M> = Option<(NonZeroU32, M)>;

/// The merged worker streams, grouped by receiver with a stable counting
/// sort that carries the payloads: after [`RouteScratch::sort`],
/// [`RouteScratch::receivers`] lists the round's receivers ascending, each
/// with its messages in exactly the order the serial simulator's
/// `outgoing[v]` held them, as one contiguous slice for delivery to take
/// from in order.
#[derive(Debug)]
pub(crate) struct RouteScratch<M> {
    /// Per node: transmits counted this round, then the receiver's write
    /// cursor into `placed`, left at the end of its range. Zero for every
    /// node outside `touched`.
    pos: Vec<u32>,
    /// The receivers of the round being sorted; empty otherwise.
    seen: NodeSet,
    /// Receivers with fresh or delayed messages this round, ascending.
    touched: Vec<u32>,
    /// Every transmit's sender and payload, grouped by receiver.
    placed: Vec<Placed<M>>,
}

impl<M> Default for RouteScratch<M> {
    fn default() -> Self {
        RouteScratch {
            pos: Vec::new(),
            seen: NodeSet::default(),
            touched: Vec::new(),
            placed: Vec::new(),
        }
    }
}

impl<M: Clone> RouteScratch<M> {
    /// Groups one round's transmits by receiver over `n` nodes.
    /// `canonical()` yields every transmit in canonical order; it is walked
    /// twice, to count and then to place a clone of each payload. `delayed`
    /// yields every receiver holding delayed messages (repeats allowed), so
    /// it is delivered to even with no fresh ones.
    pub fn sort<'t, I: Iterator<Item = &'t Transmit<M>>>(
        &mut self,
        n: usize,
        canonical: impl Fn() -> I,
        delayed: impl Iterator<Item = NodeId>,
    ) where
        M: 't,
    {
        for &v in &self.touched {
            self.pos[v as usize] = 0;
        }
        if self.pos.len() < n {
            self.pos.resize(n, 0);
        }
        self.seen.ensure(n);
        let mut total = 0usize;
        for t in canonical() {
            self.pos[t.to as usize] += 1;
            self.seen.insert(t.to as usize);
            total += 1;
        }
        assert!(total < u32::MAX as usize, "more than u32::MAX transmits in one round");
        for v in delayed {
            self.seen.insert(v);
        }
        self.touched.clear();
        self.seen.drain_into(&mut self.touched);
        let mut at = 0;
        for &v in &self.touched {
            let count = self.pos[v as usize];
            self.pos[v as usize] = at;
            at += count;
        }
        self.placed.clear();
        self.placed.resize(total, None);
        for t in canonical() {
            let cursor = &mut self.pos[t.to as usize];
            self.placed[*cursor as usize] =
                Some((NonZeroU32::MIN.saturating_add(t.from), t.msg.clone()));
            *cursor += 1;
        }
    }

    /// The round's receivers in ascending order, each with its placed
    /// messages in canonical order (empty for delayed-only receivers).
    pub fn receivers(&mut self) -> impl Iterator<Item = (NodeId, &mut [Placed<M>])> + '_ {
        let RouteScratch { pos, touched, placed, .. } = self;
        let mut rest = placed.as_mut_slice();
        let mut start = 0;
        touched.iter().map(move |&v| {
            let end = pos[v as usize] as usize;
            let (range, tail) = std::mem::take(&mut rest).split_at_mut(end - start);
            rest = tail;
            start = end;
            (v as usize, range)
        })
    }

    /// Owned heap bytes (payload heap behind `M` not traversed).
    pub fn heap_bytes(&self) -> usize {
        self.pos.capacity() * 4
            + self.seen.heap_bytes()
            + self.touched.capacity() * 4
            + self.placed.capacity() * std::mem::size_of::<Placed<M>>()
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

    /// `(from, to)` pairs as a canonical transmit stream whose payloads
    /// number the transmits in order.
    fn stream(pairs: &[(u32, u32)]) -> Vec<Transmit<u32>> {
        pairs.iter().zip(0..).map(|(&(from, to), msg)| Transmit { from, to, msg }).collect()
    }

    /// Sorts one round of `fresh` transmits, in canonical order, plus the
    /// `delayed`-only holders; returns each receiver with the `(from, msg)`
    /// entries taken out of its range, which the route leaves empty.
    fn route(
        rs: &mut RouteScratch<u32>,
        n: usize,
        fresh: &[Transmit<u32>],
        delayed: &[NodeId],
    ) -> Vec<(NodeId, Vec<(u32, u32)>)> {
        rs.sort(n, || fresh.iter(), delayed.iter().copied());
        let got: Vec<(NodeId, Vec<(u32, u32)>)> = rs
            .receivers()
            .map(|(v, range)| {
                let entries = range.iter_mut().map(|slot| {
                    let (from1, msg) = slot.take().expect("placed");
                    (from1.get() - 1, msg)
                });
                (v, entries.collect())
            })
            .collect();
        assert!(rs.receivers().all(|(_, range)| range.iter().all(Option::is_none)));
        got
    }

    /// 200 nodes: four bitset words, the last one partial.
    const N: usize = 200;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Sender `i / 3` sends transmit `i` to `tos[i]`, and `holders`
        /// hold delayed messages. Routing must give each receiver its
        /// transmits, payloads included, as a stable sort of the canonical
        /// stream by receiver does, and list the receivers and holders
        /// ascending across every bitset word.
        #[test]
        fn route_is_a_stable_sort_by_receiver(case in (
            proptest::collection::vec(0u32..N as u32, 0..300),
            proptest::collection::vec(0usize..N, 0..8),
        )) {
            let (tos, holders) = case;
            let pairs: Vec<(u32, u32)> = tos.iter().zip(0..).map(|(&to, i)| (i / 3, to)).collect();
            let fresh = stream(&pairs);
            let want: Vec<(NodeId, Vec<(u32, u32)>)> = (0..N)
                .map(|v| {
                    let mine = fresh.iter().filter(|t| t.to as usize == v);
                    (v, mine.map(|t| (t.from, t.msg)).collect::<Vec<_>>())
                })
                .filter(|(v, r)| !r.is_empty() || holders.contains(v))
                .collect();
            prop_assert_eq!(route(&mut RouteScratch::default(), N, &fresh, &holders), want);
        }
    }

    #[test]
    fn delayed_only_receivers_sort_in_with_empty_ranges() {
        // Receiver 70 holds delayed messages as well as a fresh one; the
        // holders span three words and one of them is listed twice.
        let fresh = stream(&[(0, 130), (1, 70), (2, 130)]);
        let got = route(&mut RouteScratch::default(), N, &fresh, &[199, 70, 5, 199]);
        assert_eq!(
            got,
            vec![(5, vec![]), (70, vec![(1, 1)]), (130, vec![(0, 0), (2, 2)]), (199, vec![])]
        );
    }

    #[test]
    fn a_round_starts_with_no_leftover_counts() {
        let mut rs = RouteScratch::default();
        let got = route(&mut rs, N, &stream(&[(0, 150), (1, 3), (1, 150)]), &[64]);
        assert_eq!(got, vec![(3, vec![(1, 1)]), (64, vec![]), (150, vec![(0, 0), (1, 2)])]);
        // Leftover counts would shift 3's range; leftover bits would route
        // 64 and 150 again.
        let got = route(&mut rs, N, &stream(&[(4, 3)]), &[129]);
        assert_eq!(got, vec![(3, vec![(4, 0)]), (129, vec![])]);
    }
}

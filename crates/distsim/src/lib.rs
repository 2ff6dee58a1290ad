//! # csn-distsim — synchronous distributed-computation simulator
//!
//! §IV of the paper frames every labeling scheme as a *distributed* or
//! *localized* solution: "a distributed solution involves nodes that
//! interact with others in a restricted vicinity… collectively, these nodes
//! achieve a desired global objective. A localized solution is a distributed
//! solution in which there is no sequential propagation of information."
//!
//! This crate is the execution substrate for those algorithms: a synchronous
//! round-based message-passing simulator (the classical LOCAL/CONGEST-style
//! model) over a graph that may *change while the protocol runs*, with
//!
//! * per-node protocol state and typed messages ([`Protocol`], [`Simulator`]),
//! * round and message accounting (the costs §IV-C worries about),
//! * *k-hop neighborhood views* ([`k_hop_view`]) — "it is assumed that each
//!   node knows k-hop information for a small constant k",
//! * a full fault-injection subsystem ([`FaultModel`]) and a reliability
//!   adapter ([`Reliable`]) — see below,
//! * **deterministic parallel round stepping** ([`Simulator::with_jobs`]):
//!   per-round node execution fans out over `csn_parallel` in node-index
//!   waves whose outboxes are merged in canonical order by a counting sort
//!   that carries the payloads, so every `(seed, jobs)` pair yields
//!   byte-identical [`RunStats`] and final states — including under
//!   faults (see [`Simulator::step`]). Messages held by delay faults wait
//!   in one flat queue sorted by receiver.
//!
//! # Fault model
//!
//! [`FaultModel`] produces the *view inconsistency* §IV-C names as
//! mobility's serious problem ("asynchronous Hello message exchanges cause
//! delays, which will generate inconsistent neighborhood information") and
//! the node churn that dynamic-network workloads add on top:
//!
//! * **message faults** — i.i.d. loss with per-edge overrides, multi-round
//!   geometric delay, duplication, and inbox reordering;
//! * **node churn** — scheduled [`FaultEvent::Crash`] / [`FaultEvent::Recover`]
//!   events ([`ChurnSchedule`]): crashed nodes skip rounds and shed their
//!   queues; recovered nodes rejoin with a fresh [`Protocol::init`] state;
//! * **dynamic topology** — [`FaultEvent::Delta`] events (or direct
//!   [`Simulator::apply_delta`] calls) rewire the owned graph, whose rows
//!   every later [`Neighborhood`] borrows; [`snapshot_delta_events`]
//!   streams the deltas of a [`csn_temporal::SnapshotCursor`] so protocols
//!   run over the same time-evolving traces the trimming experiments use.
//!
//! Unicast targets are validated in **all** builds: a message to a
//! non-neighbor is dropped and counted in [`RunStats::misrouted`] instead of
//! being delivered (which would violate the LOCAL model). In debug builds a
//! misroute on a *static* topology additionally asserts, since there it is
//! always a protocol bug; once churn or deltas have fired, stale sends to
//! departed neighbors are expected and only counted. A fault event naming a
//! node outside the graph is skipped and counted in
//! [`RunStats::rejected_events`].
//!
//! Every fault decision derives from [`FaultModel::seed`] in a fixed order
//! — ascending receiver, messages in canonical send order — so a faulted
//! run is fully deterministic: same model ⇒ bit-identical [`RunStats`] and
//! final states at **any** job count (property-tested in
//! `tests/fault_props.rs` and `tests/parallel_props.rs`).
//!
//! Because churn and faulty channels make strict quiescence unreliable
//! (a [`Reliable`] node is silent *between* backoff expiries),
//! [`Simulator::run_until_stable`] detects convergence with a stability
//! window: only after `window` consecutive silent, event-free rounds — with
//! nothing in flight and no events pending — does the run stop early.
//!
//! # Examples
//!
//! A one-round "neighbor-designated dominating set" (§IV-A): every node
//! votes for its highest-priority closed neighbor; voted nodes join the DS.
//! Protocols emit through an [`Outbox`] sink, so the hot path stores
//! messages straight into reusable flat arenas instead of returning a
//! freshly allocated `Vec` per node per round.
//!
//! ```
//! use csn_distsim::{Protocol, Simulator, Neighborhood, Outbox};
//! use csn_graph::{Graph, NodeId};
//!
//! struct Vote;
//! impl Protocol for Vote {
//!     type State = (bool, bool); // (has voted, is selected)
//!     type Msg = ();
//!     fn init(&self, _u: NodeId, _ctx: &Neighborhood) -> Self::State { (false, false) }
//!     fn round(
//!         &self,
//!         u: NodeId,
//!         state: &mut Self::State,
//!         ctx: &Neighborhood,
//!         inbox: &[(NodeId, ())],
//!         out: &mut Outbox<'_, ()>,
//!     ) {
//!         if !state.0 {
//!             state.0 = true;
//!             let winner = ctx.closed_neighbors().max().unwrap();
//!             if winner == u { state.1 = true; return; }
//!             out.unicast(winner, ());
//!             return;
//!         }
//!         if !inbox.is_empty() { state.1 = true; }
//!     }
//! }
//!
//! let g = Graph::from_edges(3, &[(0, 1), (1, 2)]).unwrap();
//! let mut sim = Simulator::new(&g, &Vote);
//! let stats = sim.run_until_quiet(10);
//! assert!(stats.rounds <= 3);
//! assert!(sim.state(2).1, "node 2 votes for itself");
//! ```

use csn_graph::{Graph, NodeId};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;
use std::sync::Mutex;

pub mod fault;
mod queue;
pub mod reliable;

pub use fault::{snapshot_delta_events, ChurnSchedule, FaultEvent, FaultModel, TopologyDelta};
pub use reliable::{stats_with_overhead, Reliable, ReliableMsg, ReliableOverhead, ReliableState};

use queue::{FlatInbox, NodeSet, RouteScratch, Transmit, WaveSeg, WorkerOutbox};

/// What a node sees locally: its id and its neighbors, borrowed from the
/// simulator's graph for the duration of one [`Protocol`] call.
#[derive(Debug, Clone, Copy)]
pub struct Neighborhood<'a> {
    node: NodeId,
    neighbors: &'a [NodeId],
}

impl<'a> Neighborhood<'a> {
    /// Node `u`'s view of `graph`.
    fn of(graph: &'a Graph, u: NodeId) -> Self {
        Neighborhood { node: u, neighbors: graph.neighbors(u) }
    }

    /// The node's own id (distinct ids double as priorities for symmetry
    /// breaking, as the paper assumes).
    pub fn id(&self) -> NodeId {
        self.node
    }

    /// Open neighborhood (adjacent nodes), reflecting the *current*
    /// topology under churn or deltas.
    pub fn neighbors(&self) -> &'a [NodeId] {
        self.neighbors
    }

    /// Degree.
    pub fn degree(&self) -> usize {
        self.neighbors.len()
    }

    /// Closed neighborhood iterator (neighbors plus the node itself).
    pub fn closed_neighbors(&self) -> impl Iterator<Item = NodeId> + 'a {
        self.neighbors.iter().copied().chain(std::iter::once(self.node))
    }
}

/// An outgoing message: to one neighbor or to all of them.
///
/// Protocols normally emit through [`Outbox::unicast`] /
/// [`Outbox::broadcast`]; the envelope form exists for adapters like
/// [`Reliable`] that capture a wrapped protocol's emissions
/// ([`Outbox::capturing`]) and rewrite them before they hit the wire.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Envelope<M> {
    /// Send to a specific neighbor.
    Unicast(NodeId, M),
    /// Send to every neighbor.
    Broadcast(M),
}

enum Sink<'a, M> {
    /// Validates and appends straight into a worker's transmit arena.
    Direct {
        from: u32,
        neighbors: &'a [NodeId],
        topology_dirty: bool,
        stream: &'a mut Vec<Transmit<M>>,
        sent: &'a mut u32,
        misrouted: &'a mut u32,
    },
    /// Records raw envelopes for an adapter to inspect and rewrite.
    Capture(&'a mut Vec<Envelope<M>>),
}

/// The emission sink handed to [`Protocol::round`].
///
/// In a [`Simulator`] round this writes validated transmits
/// directly into the executing worker's flat arena — no per-node `Vec`, no
/// per-message allocation. Unicast targets are checked against the sender's
/// *current* neighbor list in all builds (misroutes counted, and asserted on
/// static topologies in debug builds); broadcasts clone the payload once
/// per neighbor in neighbor order, exactly as the serial delivery order
/// requires.
pub struct Outbox<'a, M> {
    sink: Sink<'a, M>,
}

impl<'a, M: Clone> Outbox<'a, M> {
    /// An outbox that records raw [`Envelope`]s instead of transmitting —
    /// the hook adapters like [`Reliable`] use to run a wrapped protocol's
    /// round and intercept its emissions.
    pub fn capturing(buf: &'a mut Vec<Envelope<M>>) -> Self {
        Outbox { sink: Sink::Capture(buf) }
    }

    /// Sends `msg` to the specific neighbor `to`.
    ///
    /// A target that is not currently a neighbor is rejected and counted in
    /// [`RunStats::misrouted`] (delivering it would teleport information
    /// past the LOCAL-model horizon). In debug builds a misroute on a
    /// never-rewired topology panics, since there it is always a protocol
    /// bug.
    pub fn unicast(&mut self, to: NodeId, msg: M) {
        match &mut self.sink {
            Sink::Direct { from, neighbors, topology_dirty, stream, sent, misrouted } => {
                if !neighbors.contains(&to) {
                    debug_assert!(
                        *topology_dirty,
                        "node {} sent to non-neighbor {to} on a static topology",
                        *from
                    );
                    **misrouted += 1;
                    return;
                }
                stream.push(Transmit { from: *from, to: to as u32, msg });
                **sent += 1;
            }
            Sink::Capture(buf) => buf.push(Envelope::Unicast(to, msg)),
        }
    }

    /// Sends a copy of `msg` to every current neighbor, in neighbor order.
    pub fn broadcast(&mut self, msg: M) {
        match &mut self.sink {
            Sink::Direct { from, neighbors, stream, sent, .. } => {
                for &v in neighbors.iter() {
                    stream.push(Transmit { from: *from, to: v as u32, msg: msg.clone() });
                }
                **sent += neighbors.len() as u32;
            }
            Sink::Capture(buf) => buf.push(Envelope::Broadcast(msg)),
        }
    }

    /// Sends a pre-built [`Envelope`] (adapter convenience).
    pub fn send(&mut self, env: Envelope<M>) {
        match env {
            Envelope::Unicast(to, msg) => self.unicast(to, msg),
            Envelope::Broadcast(msg) => self.broadcast(msg),
        }
    }
}

/// A synchronous round-based protocol.
///
/// Each round, every node consumes its inbox (messages sent to it in the
/// previous round), may update its state, and emits messages — delivered
/// next round — through the [`Outbox`] sink.
///
/// The `Sync` / `Send` bounds let [`Simulator::step`] fan node execution
/// out over worker threads ([`Simulator::with_jobs`]); results are
/// bit-identical to the serial path at any job count, so protocols need no
/// parallel-awareness beyond the bounds.
pub trait Protocol: Sync {
    /// Per-node state.
    type State: Send;
    /// Message type.
    type Msg: Clone + Send + Sync;

    /// Initial state of node `u` (round 0 happens after init; nodes may
    /// inspect their 1-hop neighborhood, which radio neighbors know from
    /// hello exchanges). Also invoked when a crashed node recovers.
    fn init(&self, u: NodeId, ctx: &Neighborhood<'_>) -> Self::State;

    /// One round at node `u`.
    fn round(
        &self,
        u: NodeId,
        state: &mut Self::State,
        ctx: &Neighborhood<'_>,
        inbox: &[(NodeId, Self::Msg)],
        out: &mut Outbox<'_, Self::Msg>,
    );
}

/// Execution statistics.
///
/// The counters satisfy a conservation law at every point between rounds:
///
/// ```text
/// sent + duplicated == messages + dropped + shed + in_flight()
/// ```
///
/// every accepted send is eventually delivered ([`RunStats::messages`]),
/// randomly dropped ([`RunStats::dropped`]), lost to a crashed receiver
/// ([`RunStats::shed`]), or still queued ([`Simulator::in_flight`]).
/// Misrouted messages are rejected *before* being counted as sent.
///
/// Serializes (via the workspace `serde` facade) so round/message
/// accounting can flow straight into experiment reports:
///
/// ```
/// use csn_distsim::RunStats;
/// let stats = RunStats {
///     rounds: 3,
///     sent: 13,
///     messages: 12,
///     dropped: 1,
///     quiescent: true,
///     ..RunStats::default()
/// };
/// let json = serde::json::to_string(&stats);
/// assert!(json.contains("\"rounds\":3"));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, serde::Serialize)]
pub struct RunStats {
    /// Rounds executed.
    pub rounds: usize,
    /// Messages accepted for transmission (valid target, live sender).
    pub sent: usize,
    /// Total messages delivered into inboxes (duplicates included).
    pub messages: usize,
    /// Messages dropped by random loss.
    pub dropped: usize,
    /// Extra copies created by duplication faults.
    pub duplicated: usize,
    /// Undelivered messages lost to crashes (sent to a crashed node, or
    /// queued at a node when it crashed).
    pub shed: usize,
    /// Unicasts to non-neighbors, rejected by validation in all builds.
    pub misrouted: usize,
    /// Crash or recover events of a node `>= n`, and delta edges with an
    /// endpoint `>= n` or `u == v` (one per edge), skipped in all builds.
    pub rejected_events: usize,
    /// Retransmissions performed by a [`Reliable`] adapter (filled by
    /// [`stats_with_overhead`]; the raw simulator leaves it 0).
    pub retransmissions: usize,
    /// Whether the run ended with no messages in flight and no scheduled
    /// fault events outstanding.
    pub quiescent: bool,
}

/// Picks the node-wave width for one round: enough waves per worker
/// (8×`jobs`, saturating, clamped to a sane grain) that stealing can
/// balance uneven protocol work; one single wave on the serial path. The
/// width never affects results — merge order is wave-ascending, which is
/// node-ascending for every width.
fn wave_size(n: usize, jobs: usize) -> usize {
    if jobs <= 1 {
        n.max(1)
    } else {
        n.div_ceil(jobs.saturating_mul(8)).clamp(16, 4096)
    }
}

/// The synchronous simulator.
///
/// Owns its working copy of the graph so scheduled [`FaultEvent::Delta`]s
/// and [`Simulator::apply_delta`] can rewire it mid-run. That copy is the
/// only adjacency it keeps: each [`Neighborhood`] handed to a protocol
/// borrows the node's row of it.
pub struct Simulator<'p, P: Protocol> {
    graph: Graph,
    protocol: &'p P,
    states: Vec<P::State>,
    alive: Vec<bool>,
    inbox: FlatInbox<P::Msg>,
    /// Messages held by delay faults, `(to, from, msg)`, sorted by `to`
    /// and in delivery order within a receiver.
    delayed: Vec<(u32, u32, P::Msg)>,
    /// The previous round's queue, emptied; swapped with `delayed` each
    /// round so both keep their capacity.
    delayed_spare: Vec<(u32, u32, P::Msg)>,
    /// Nodes crashed by the event batch being applied.
    crashed: NodeSet,
    faults: FaultModel,
    edge_drop: HashMap<(NodeId, NodeId), f64>,
    next_event: usize,
    topology_dirty: bool,
    jobs: usize,
    worker_outboxes: Vec<WorkerOutbox<P::Msg>>,
    route: RouteScratch<P::Msg>,
    seg_order: Vec<(u32, u32)>,
    rng: StdRng,
    stats: RunStats,
}

impl<'p, P: Protocol> Simulator<'p, P> {
    /// Creates a simulator with fault-free delivery.
    pub fn new(graph: &Graph, protocol: &'p P) -> Self {
        Self::with_faults(graph, protocol, FaultModel::none())
    }

    /// Creates a simulator with the given fault model. The event schedule
    /// is sorted by round (stably, preserving same-round order).
    pub fn with_faults(graph: &Graph, protocol: &'p P, faults: FaultModel) -> Self {
        Self::with_faults_owned(graph.clone(), protocol, faults)
    }

    /// [`Simulator::with_faults`] taking ownership of the graph — at
    /// million-node scale this avoids the caller and the simulator each
    /// holding a copy of the adjacency lists (the simulator needs its own
    /// mutable copy for topology deltas either way).
    pub fn with_faults_owned(graph: Graph, protocol: &'p P, mut faults: FaultModel) -> Self {
        let n = graph.node_count();
        assert!(n <= u32::MAX as usize, "simulator node ids must fit in u32");
        let states =
            graph.nodes().map(|u| protocol.init(u, &Neighborhood::of(&graph, u))).collect();
        faults.schedule.sort_by_key(|(round, _)| *round);
        let edge_drop = faults
            .edge_drop
            .iter()
            .map(|&(u, v, p)| ((u.min(v), u.max(v)), p))
            .collect::<HashMap<_, _>>();
        let mut inbox = FlatInbox::default();
        inbox.ensure(n);
        Simulator {
            graph,
            protocol,
            states,
            alive: vec![true; n],
            inbox,
            delayed: Vec::new(),
            delayed_spare: Vec::new(),
            crashed: NodeSet::default(),
            rng: StdRng::seed_from_u64(faults.seed),
            edge_drop,
            faults,
            next_event: 0,
            topology_dirty: false,
            jobs: 1,
            worker_outboxes: Vec::new(),
            route: RouteScratch::default(),
            seg_order: Vec::new(),
            stats: RunStats::default(),
        }
    }

    /// Sets the worker count for round stepping. `1` (the default) runs
    /// nodes inline on the calling thread, and 0 counts as 1; any value
    /// produces bit-identical results — see [`Simulator::step`] — so this is
    /// purely a wall-clock knob.
    pub fn with_jobs(mut self, jobs: usize) -> Self {
        self.jobs = jobs.max(1);
        self
    }

    /// State of node `u`.
    pub fn state(&self, u: NodeId) -> &P::State {
        &self.states[u]
    }

    /// All node states.
    pub fn states(&self) -> &[P::State] {
        &self.states
    }

    /// Whether node `u` is currently up.
    pub fn alive(&self, u: NodeId) -> bool {
        self.alive[u]
    }

    /// The simulator's current (possibly rewired) topology.
    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    /// Statistics so far.
    pub fn stats(&self) -> RunStats {
        self.stats
    }

    /// Messages queued by delay faults, not yet delivered to any inbox.
    /// O(1): the length of the one flat delayed queue.
    pub fn in_flight(&self) -> usize {
        self.delayed.len()
    }

    /// Messages awaiting processing: undelivered delayed messages plus
    /// delivered-but-unconsumed inbox entries. O(1): the delayed queue's
    /// length plus the inbox's maintained total (debug builds cross-check
    /// that total against the inbox slices).
    pub fn pending_messages(&self) -> usize {
        debug_assert_eq!(
            self.inbox.total(),
            (0..self.graph.node_count()).map(|u| self.inbox.get(u).len()).sum::<usize>(),
            "maintained inbox total diverged from the slices"
        );
        self.inbox.total() + self.in_flight()
    }

    /// Whether scheduled fault events remain to be applied.
    pub fn events_pending(&self) -> bool {
        self.next_event < self.faults.schedule.len()
    }

    /// Heap bytes owned by the simulator's queues, scratch arenas and
    /// graph, plus the inline size of the state array. Heap
    /// owned *behind* `Protocol::State` / `Protocol::Msg` payloads (e.g. a
    /// state's `HashMap`) is not traversed — this measures the simulator's
    /// own footprint, the DISTSIM.md bytes/node model.
    pub fn heap_bytes(&self) -> usize {
        let graph_bytes: usize = self
            .graph
            .nodes()
            .map(|u| std::mem::size_of_val(self.graph.neighbors(u)))
            .sum::<usize>()
            + self.graph.node_count() * std::mem::size_of::<Vec<NodeId>>();
        let delayed_bytes = (self.delayed.capacity() + self.delayed_spare.capacity())
            * std::mem::size_of::<(u32, u32, P::Msg)>()
            + self.crashed.heap_bytes();
        let outbox_bytes: usize = self.worker_outboxes.iter().map(WorkerOutbox::heap_bytes).sum();
        graph_bytes
            + delayed_bytes
            + outbox_bytes
            + self.inbox.heap_bytes()
            + self.route.heap_bytes()
            + self.seg_order.capacity() * std::mem::size_of::<(u32, u32)>()
            + self.states.capacity() * std::mem::size_of::<P::State>()
            + self.alive.capacity()
    }

    /// Replaces all node states (warm start), e.g. to continue a converged
    /// protocol on a changed topology with its tables intact.
    ///
    /// # Panics
    ///
    /// Panics if `states` does not have one entry per node.
    pub fn transplant_states(&mut self, states: Vec<P::State>) {
        assert_eq!(states.len(), self.graph.node_count(), "one state per node");
        self.states = states;
    }

    /// Rewires the topology immediately: removals first, then additions.
    /// Every later [`Neighborhood`] reads the rewired rows. Scheduled
    /// [`FaultEvent::Delta`]s go through the same path. An edge with an
    /// endpoint outside the graph or with `u == v` is skipped and counted
    /// in [`RunStats::rejected_events`].
    pub fn apply_delta(&mut self, delta: &TopologyDelta) {
        self.topology_dirty = true;
        let n = self.graph.node_count();
        let valid = |&&(u, v): &&(NodeId, NodeId)| u < n && v < n && u != v;
        let invalid = delta.remove.iter().chain(&delta.add).filter(|e| !valid(e)).count();
        self.stats.rejected_events += invalid;
        for &(u, v) in delta.remove.iter().filter(valid) {
            self.graph.remove_edge(u, v);
        }
        for &(u, v) in delta.add.iter().filter(valid) {
            self.graph.add_edge(u, v);
        }
    }

    /// Applies every event scheduled for the current round; returns whether
    /// any fired. The delayed messages of every node the batch crashed are
    /// shed in one pass at the end, so a node crashed and recovered in the
    /// same round still loses them.
    fn apply_due_events(&mut self) -> bool {
        let mut fired = false;
        let mut crashed = false;
        while self.next_event < self.faults.schedule.len()
            && self.faults.schedule[self.next_event].0 <= self.stats.rounds
        {
            let event = self.faults.schedule[self.next_event].1.clone();
            self.next_event += 1;
            fired = true;
            match event {
                FaultEvent::Crash(u) | FaultEvent::Recover(u) if u >= self.graph.node_count() => {
                    self.stats.rejected_events += 1;
                }
                FaultEvent::Crash(u) => {
                    if self.alive[u] {
                        self.alive[u] = false;
                        // Inbox entries were already counted as delivered,
                        // so they just vanish; delayed ones are shed below.
                        self.crashed.ensure(self.graph.node_count());
                        self.crashed.insert(u);
                        crashed = true;
                        self.inbox.clear_node(u);
                    }
                }
                FaultEvent::Recover(u) => {
                    if !self.alive[u] {
                        self.alive[u] = true;
                        self.states[u] = self.protocol.init(u, &Neighborhood::of(&self.graph, u));
                    }
                }
                FaultEvent::Delta(delta) => self.apply_delta(&delta),
            }
        }
        if crashed {
            let held = self.delayed.len();
            let marks = &self.crashed;
            self.delayed.retain(|&(to, _, _)| !marks.contains(to as usize));
            self.stats.shed += held - self.delayed.len();
            self.crashed.clear();
        }
        fired
    }

    /// The effective drop probability on `{from, to}`.
    fn drop_prob_for(&self, from: NodeId, to: NodeId) -> f64 {
        let key = (from.min(to), from.max(to));
        self.edge_drop.get(&key).copied().unwrap_or(self.faults.drop_prob)
    }

    /// Executes one synchronous round: applies due fault events, runs every
    /// live node, validates and delivers messages through the fault model.
    /// Returns the number of messages accepted for transmission.
    ///
    /// # Performance
    ///
    /// The round runs in four phases:
    ///
    /// 1. **Wave stepping (parallel).** Nodes are partitioned into
    ///    ascending-index waves and fanned out over
    ///    `csn_parallel::run_indexed_stateful_with_worker`; each worker
    ///    appends validated transmits to its own flat arena
    ///    (`queue::WorkerOutbox`), recording one segment per wave. With
    ///    `jobs == 1` (the default) this degenerates to an inline loop on
    ///    the calling thread.
    /// 2. **Canonical merge (serial).** Segments are replayed in wave
    ///    order — sender-ascending, emission order within a sender, whatever
    ///    worker ran a wave and however wide it was — through a stable
    ///    counting sort by receiver that places each message's sender and
    ///    payload, which leaves each receiver's messages in one contiguous
    ///    range in that order: the wave-ordered merge of the Brandes
    ///    source sweep (`csn_graph::centrality::betweenness_centrality`)
    ///    applied to messages. The receivers, those of fresh messages
    ///    and those holding delayed ones, come out ascending from a bitset.
    /// 3. **Delivery (serial).** Receivers are visited in ascending order;
    ///    per receiver, its delayed messages are re-examined first (queue
    ///    order), then the fresh messages of its range are taken in order.
    ///    Every fault RNG draw therefore happens in exactly the serial
    ///    order, so loss, delay, duplication, reorder shuffles, and churn
    ///    interact bit-identically at any job count. The delayed messages
    ///    are one flat queue sorted by receiver: delivery reads it with one
    ///    cursor and writes the next round's queue in the same order.
    /// 4. **Accounting.** Per-wave `sent`/`misrouted` counters are summed
    ///    in wave order.
    ///
    /// All message storage is flat arenas reused across rounds (the
    /// private `queue` module, and the two buffers of the delayed queue),
    /// and each node's [`Neighborhood`] borrows its row of the simulator's
    /// graph: after warmup, a round of a `Copy`-message protocol (e.g. a
    /// 1M-node flood) performs no per-message heap allocation — the only
    /// per-round allocations are O(waves) scheduler bookkeeping and the
    /// pool's result slots. A message with an owned payload (`Vec`, etc.)
    /// is cloned once, when the merge places it; delivery moves it, and
    /// only a duplication fault's extra copy clones again.
    /// Bit-identity across `jobs` is tested; speed is only recorded (see
    /// `BENCH_distsim.json` and DISTSIM.md).
    pub fn step(&mut self) -> usize {
        self.apply_due_events();
        let n = self.graph.node_count();
        let jobs = self.jobs;
        let wave = wave_size(n, jobs);
        let n_waves = n.div_ceil(wave.max(1));
        let workers = jobs.clamp(1, n_waves.max(1));

        // --- Phase 1: wave-parallel stepping into per-worker arenas.
        let mut outboxes = std::mem::take(&mut self.worker_outboxes);
        if outboxes.len() < workers {
            outboxes.resize_with(workers, WorkerOutbox::default);
        }
        for ob in &mut outboxes {
            ob.reset();
        }
        {
            let cells: Vec<Mutex<&mut WorkerOutbox<P::Msg>>> =
                outboxes.iter_mut().take(workers).map(Mutex::new).collect();
            let chunks: Vec<Mutex<&mut [P::State]>> =
                self.states.chunks_mut(wave.max(1)).map(Mutex::new).collect();
            let graph = &self.graph;
            let alive = &self.alive;
            let inbox = &self.inbox;
            let protocol = self.protocol;
            let topology_dirty = self.topology_dirty;
            csn_parallel::run_indexed_stateful_with_worker(
                n_waves,
                jobs,
                |w| cells[w].lock().expect("outbox cell"),
                |wi, _w, ob| {
                    let base = wi * wave;
                    let hi = (base + wave).min(n);
                    let mut chunk = chunks[wi].lock().expect("state chunk");
                    let seg_start = ob.stream.len() as u32;
                    let (mut sent, mut misrouted) = (0u32, 0u32);
                    for u in base..hi {
                        if !alive[u] {
                            continue;
                        }
                        let ctx = Neighborhood::of(graph, u);
                        let mut out = Outbox {
                            sink: Sink::Direct {
                                from: u as u32,
                                neighbors: ctx.neighbors,
                                topology_dirty,
                                stream: &mut ob.stream,
                                sent: &mut sent,
                                misrouted: &mut misrouted,
                            },
                        };
                        protocol.round(u, &mut chunk[u - base], &ctx, inbox.get(u), &mut out);
                    }
                    assert!(ob.stream.len() <= u32::MAX as usize, "outbox stream overflow");
                    let seg_end = ob.stream.len() as u32;
                    ob.segs.push(WaveSeg {
                        wave: wi as u32,
                        start: seg_start,
                        end: seg_end,
                        sent,
                        misrouted,
                    });
                },
            );
        }
        debug_assert_eq!(
            outboxes.iter().map(|o| o.segs.len()).sum::<usize>(),
            n_waves,
            "every wave must produce exactly one segment"
        );

        // --- Phase 2: canonical merge. Wave order == sender order, so a
        // stable counting sort by receiver lists each receiver's messages
        // exactly as the serial simulator's outgoing queues would.
        let mut route = std::mem::take(&mut self.route);
        self.seg_order.clear();
        self.seg_order.resize(n_waves, (0, 0));
        for (w, ob) in outboxes.iter().enumerate() {
            for (si, seg) in ob.segs.iter().enumerate() {
                self.seg_order[seg.wave as usize] = (w as u32, si as u32);
            }
        }
        let mut sent = 0usize;
        for &(w, si) in &self.seg_order {
            let seg = outboxes[w as usize].segs[si as usize];
            sent += seg.sent as usize;
            self.stats.misrouted += seg.misrouted as usize;
        }
        let canonical = || {
            self.seg_order.iter().flat_map(|&(w, si)| {
                let ob = &outboxes[w as usize];
                let seg = ob.segs[si as usize];
                &ob.stream[seg.start as usize..seg.end as usize]
            })
        };
        // Receivers holding only delayed messages still take their
        // re-examination draws, so they are routed too.
        route.sort(n, canonical, self.delayed.iter().map(|&(to, _, _)| to as usize));

        // --- Phase 3: serial delivery in ascending receiver order — the
        // exact RNG draw order of the serial path: shed mail to crashed
        // nodes, re-examine delayed messages (geometric delay), then run
        // each fresh message through loss / duplication / delay, and
        // optionally reorder the inbox. The messages that stay delayed go
        // to the next queue in receiver order, held ones first, so it comes
        // out sorted.
        self.inbox.begin_round(n);
        let delay_prob = self.faults.delay_prob;
        let dup_prob = self.faults.duplicate_prob;
        let reorder = self.faults.reorder;
        let mut held =
            std::mem::replace(&mut self.delayed, std::mem::take(&mut self.delayed_spare));
        let mut held_iter = held.drain(..).peekable();
        for (v, fresh) in route.receivers() {
            if !self.alive[v] {
                // Crashed receivers shed their fresh mail without draws;
                // they hold no delayed messages since their crash.
                self.stats.shed += fresh.len();
                continue;
            }
            let open_at = self.inbox.open(v);
            while let Some((to, from, msg)) = held_iter.next_if(|e| e.0 as usize == v) {
                if self.rng.gen::<f64>() < delay_prob {
                    self.delayed.push((to, from, msg));
                } else {
                    self.inbox.push(from as usize, msg);
                }
            }
            for slot in fresh {
                let (sender, msg) = slot.take().expect("every placed slot holds a message");
                let from = sender.get() - 1;
                let p_drop = self.drop_prob_for(from as usize, v);
                if p_drop > 0.0 && self.rng.gen::<f64>() < p_drop {
                    self.stats.dropped += 1;
                    continue;
                }
                let extra = (dup_prob > 0.0 && self.rng.gen::<f64>() < dup_prob).then(|| {
                    self.stats.duplicated += 1;
                    msg.clone()
                });
                for msg in extra.into_iter().chain(std::iter::once(msg)) {
                    if delay_prob > 0.0 && self.rng.gen::<f64>() < delay_prob {
                        self.delayed.push((v as u32, from, msg));
                    } else {
                        self.inbox.push(from as usize, msg);
                    }
                }
            }
            if reorder {
                let tail = self.inbox.tail_mut(open_at);
                if tail.len() > 1 {
                    tail.shuffle(&mut self.rng);
                }
            }
            self.stats.messages += self.inbox.close(v, open_at);
        }
        assert!(held_iter.next().is_none(), "delivery must visit every delayed message's receiver");
        drop(held_iter);
        self.delayed_spare = held;
        self.route = route;
        self.worker_outboxes = outboxes;
        self.stats.rounds += 1;
        self.stats.sent += sent;
        sent
    }

    /// Runs until one round is silent with nothing in flight, or until
    /// `max_rounds` — equivalent to [`Simulator::run_until_stable`] with a
    /// window of 1. Returns the final statistics.
    pub fn run_until_quiet(&mut self, max_rounds: usize) -> RunStats {
        self.run_until_stable(max_rounds, 1)
    }

    /// Runs until `window` consecutive rounds are *stable* — no messages
    /// accepted, none in flight, no fault event fired — and no scheduled
    /// events remain, or until `max_rounds`.
    ///
    /// A window of 1 is strict quiescence; protocols with internal timers
    /// (e.g. [`Reliable`] retransmission backoff) need a window larger than
    /// their longest silent period.
    ///
    /// At exit — whether by stability or budget exhaustion —
    /// [`RunStats::quiescent`] is `true` iff nothing is pending: no
    /// in-flight or unconsumed messages and no outstanding events. A
    /// 0-round call on an idle simulator therefore truthfully reports
    /// quiescence.
    ///
    /// # Performance
    ///
    /// Each round costs one [`Simulator::step`] (see its performance notes
    /// for the parallel wave/merge pipeline) plus an O(1) stability check —
    /// [`Simulator::pending_messages`] reads maintained counters, so the
    /// convergence detector adds no per-node scan. Results are
    /// bit-identical at any [`Simulator::with_jobs`] value, so a second
    /// worker changes only the wall time.
    pub fn run_until_stable(&mut self, max_rounds: usize, window: usize) -> RunStats {
        let window = window.max(1);
        let mut streak = 0usize;
        for _ in 0..max_rounds {
            let events_before = self.next_event;
            let sent = self.step();
            let quiet =
                sent == 0 && self.pending_messages() == 0 && self.next_event == events_before;
            streak = if quiet { streak + 1 } else { 0 };
            if streak >= window && !self.events_pending() {
                break;
            }
        }
        self.stats.quiescent = self.pending_messages() == 0 && !self.events_pending();
        self.stats
    }
}

/// The nodes within `k` hops of `u` (excluding `u`), with their hop
/// distances — the paper's "k-hop information" / local horizon. Empty when
/// `u` is not a node of `g`.
pub fn k_hop_view(g: &Graph, u: NodeId, k: usize) -> Vec<(NodeId, usize)> {
    if u >= g.node_count() {
        return Vec::new();
    }
    let mut dist = vec![usize::MAX; g.node_count()];
    dist[u] = 0;
    let mut queue = std::collections::VecDeque::new();
    queue.push_back(u);
    let mut out = Vec::new();
    while let Some(x) = queue.pop_front() {
        if dist[x] == k {
            continue;
        }
        for &y in g.neighbors(x) {
            if dist[y] == usize::MAX {
                dist[y] = dist[x] + 1;
                out.push((y, dist[y]));
                queue.push_back(y);
            }
        }
    }
    out
}

/// The subgraph induced by `u`'s k-hop view (including `u`), re-indexed;
/// returns the subgraph and the mapping from new ids to original ids. Both
/// are empty when `u` is not a node of `g`.
pub fn k_hop_subgraph(g: &Graph, u: NodeId, k: usize) -> (Graph, Vec<NodeId>) {
    if u >= g.node_count() {
        return (Graph::new(0), Vec::new());
    }
    let mut keep = vec![false; g.node_count()];
    keep[u] = true;
    for (v, _) in k_hop_view(g, u, k) {
        keep[v] = true;
    }
    let (sub, map) = g.induced_subgraph(&keep);
    let mut back = vec![0; sub.node_count()];
    for (old, new) in map.iter().enumerate() {
        if let Some(nw) = new {
            back[*nw] = old;
        }
    }
    (sub, back)
}

#[cfg(test)]
mod tests {
    use super::*;
    use csn_graph::generators;

    /// Flooding protocol: node 0 starts with a token; on first receipt every
    /// node forwards it once. State: `(has_token, has_sent)`.
    struct Flood;
    impl Protocol for Flood {
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

    /// Re-floods on every topology change: any node holding the token
    /// re-broadcasts whenever its neighborhood differs from what it last
    /// served. State: `(has_token, last_served_neighbors)`.
    struct AdaptiveFlood;
    impl Protocol for AdaptiveFlood {
        type State = (bool, Vec<NodeId>);
        type Msg = ();
        fn init(&self, u: NodeId, _ctx: &Neighborhood) -> Self::State {
            (u == 0, Vec::new())
        }
        fn round(
            &self,
            _u: NodeId,
            state: &mut Self::State,
            ctx: &Neighborhood,
            inbox: &[(NodeId, ())],
            out: &mut Outbox<'_, ()>,
        ) {
            if !state.0 && !inbox.is_empty() {
                state.0 = true;
            }
            if state.0 && state.1 != ctx.neighbors() {
                state.1 = ctx.neighbors().to_vec();
                out.broadcast(());
            }
        }
    }

    fn assert_conservation<P: Protocol>(sim: &Simulator<P>) {
        let s = sim.stats();
        assert_eq!(
            s.sent + s.duplicated,
            s.messages + s.dropped + s.shed + sim.in_flight(),
            "conservation law violated: {s:?}"
        );
    }

    #[test]
    fn flooding_reaches_everyone_in_diameter_rounds() {
        let g = generators::path(6);
        let mut sim = Simulator::new(&g, &Flood);
        let stats = sim.run_until_quiet(100);
        assert!(stats.quiescent);
        for u in g.nodes() {
            assert!(sim.state(u).0, "node {u} missed the flood");
        }
        // Path of 6: token needs 5 forwarding rounds plus bookkeeping.
        assert!(stats.rounds <= 12, "rounds {}", stats.rounds);
        assert!(stats.messages > 0);
        assert_eq!(stats.sent, stats.messages, "fault-free: every send delivered");
        assert_conservation(&sim);
    }

    #[test]
    fn parallel_stepping_is_bit_identical_to_serial() {
        let g = generators::erdos_renyi(40, 0.12, 17).unwrap();
        let run = |jobs: usize| {
            let mut sim = Simulator::new(&g, &Flood).with_jobs(jobs);
            let stats = sim.run_until_quiet(100);
            (stats, sim.states().to_vec())
        };
        let (serial_stats, serial_states) = run(1);
        for jobs in [2, 4, 7] {
            let (stats, states) = run(jobs);
            assert_eq!(stats, serial_stats, "jobs={jobs}: RunStats diverged");
            assert_eq!(states, serial_states, "jobs={jobs}: states diverged");
        }
    }

    #[test]
    fn any_jobs_value_steps_like_serial() {
        // 8·jobs saturates, so a huge worker count is one 16-node wave on
        // one worker, not an overflow.
        let g = generators::path(6);
        let run = |jobs: usize| {
            let mut sim = Simulator::new(&g, &Flood).with_jobs(jobs);
            let stats = sim.run_until_quiet(100);
            (stats, sim.states().to_vec())
        };
        let serial = run(1);
        for jobs in [usize::MAX / 4, usize::MAX] {
            assert_eq!(run(jobs), serial, "jobs={jobs}");
        }
    }

    #[test]
    fn parallel_faulted_stepping_matches_serial() {
        let g = generators::erdos_renyi(30, 0.15, 8).unwrap();
        let faults = FaultModel {
            seed: 77,
            ..FaultModel::lossy(0.3, 77)
                .with_delay(0.2)
                .with_duplication(0.1)
                .with_reorder()
                .with_churn(ChurnSchedule::random(30, 40, 0.02, 5, 77).protect(0))
        };
        let run = |jobs: usize| {
            let mut sim = Simulator::with_faults(&g, &Flood, faults.clone()).with_jobs(jobs);
            let stats = sim.run_until_stable(200, 4);
            (stats, sim.states().to_vec(), sim.in_flight())
        };
        let serial = run(1);
        for jobs in [2, 4, 7] {
            assert_eq!(run(jobs), serial, "jobs={jobs}: faulted run diverged from serial");
        }
    }

    #[test]
    fn dropped_messages_can_break_flooding() {
        let g = generators::path(8);
        let mut sim = Simulator::with_faults(&g, &Flood, FaultModel::lossy(1.0, 1));
        let stats = sim.run_until_quiet(50);
        assert!(stats.dropped > 0);
        assert!(!sim.state(7).0, "everything dropped, flood cannot spread");
        assert_eq!(stats.sent, stats.dropped, "total loss: every send dropped");
        assert_conservation(&sim);
    }

    #[test]
    fn delayed_messages_still_arrive() {
        let g = generators::path(5);
        let faults = FaultModel::none().with_delay(0.5);
        let mut sim = Simulator::with_faults(&g, &Flood, FaultModel { seed: 2, ..faults });
        let stats = sim.run_until_quiet(200);
        assert!(stats.quiescent);
        for u in g.nodes() {
            assert!(sim.state(u).0, "delays must not lose messages");
        }
        assert_eq!(stats.sent, stats.messages, "geometric delay loses nothing");
        assert_conservation(&sim);
    }

    #[test]
    fn duplication_and_reorder_preserve_the_flood() {
        let g = generators::cycle(7);
        let faults =
            FaultModel { seed: 9, ..FaultModel::none().with_duplication(0.5).with_reorder() };
        let mut sim = Simulator::with_faults(&g, &Flood, faults);
        let stats = sim.run_until_quiet(100);
        assert!(stats.quiescent);
        assert!(stats.duplicated > 0, "50% duplication over 14 sends should fire");
        assert_eq!(stats.messages, stats.sent + stats.duplicated);
        for u in g.nodes() {
            assert!(sim.state(u).0, "node {u} missed the flood");
        }
        assert_conservation(&sim);
    }

    #[test]
    fn per_edge_drop_overrides_global_probability() {
        // Path 0-1-2-3: edge (1,2) always drops, everything else is clean,
        // so the flood covers {0, 1} and never crosses to {2, 3}.
        let g = generators::path(4);
        let faults = FaultModel { seed: 4, ..FaultModel::none().with_edge_drop(1, 2, 1.0) };
        let mut sim = Simulator::with_faults(&g, &Flood, faults);
        let stats = sim.run_until_quiet(50);
        assert!(sim.state(1).0 && !sim.state(2).0 && !sim.state(3).0);
        assert!(stats.dropped > 0);
        assert_conservation(&sim);
    }

    #[test]
    fn zero_round_budget_on_idle_sim_is_truthfully_quiescent() {
        let g = generators::path(4);
        let mut sim = Simulator::new(&g, &Flood);
        let stats = sim.run_until_quiet(0);
        assert!(stats.quiescent, "nothing in flight: a 0-round run is quiescent");
        assert_eq!(stats.rounds, 0);
        // Exhausting the budget exactly when the sim went quiet must also
        // report quiescence.
        let mut sim = Simulator::new(&g, &Flood);
        sim.run_until_quiet(50);
        let stats = sim.run_until_quiet(0);
        assert!(stats.quiescent, "idle after convergence");
    }

    #[test]
    fn crashed_nodes_skip_rounds_and_shed_their_inboxes() {
        // Path 0-1-2-3 with node 2 down from the start: the flood stops at
        // 1, and 1's broadcast into 2 is shed.
        let g = generators::path(4);
        let faults = FaultModel::none().with_event(0, FaultEvent::Crash(2));
        let mut sim = Simulator::with_faults(&g, &Flood, faults);
        let stats = sim.run_until_quiet(50);
        assert!(sim.state(1).0 && !sim.state(2).0 && !sim.state(3).0);
        assert!(stats.shed > 0, "messages to the crashed node are shed");
        assert!(stats.quiescent);
        assert!(!sim.alive(2));
        assert_conservation(&sim);
    }

    #[test]
    fn recovery_reinitializes_and_rejoins() {
        // Node 2 is down while the flood passes, then recovers; the
        // adaptive flood re-covers it (neighbors re-broadcast on delta...
        // here via retoken from neighbor state change: recovery itself does
        // not rewire, so use AdaptiveFlood with an explicit delta nudge).
        let g = generators::path(4);
        let faults = FaultModel::none()
            .with_event(0, FaultEvent::Crash(2))
            .with_event(6, FaultEvent::Recover(2))
            .with_event(7, FaultEvent::Delta(TopologyDelta { add: vec![(1, 3)], remove: vec![] }));
        let mut sim = Simulator::with_faults(&g, &AdaptiveFlood, faults);
        let stats = sim.run_until_quiet(100);
        assert!(stats.quiescent);
        assert!(sim.alive(2));
        for u in g.nodes() {
            assert!(sim.state(u).0, "node {u} missed the flood after recovery");
        }
        assert_conservation(&sim);
    }

    #[test]
    fn apply_delta_rewires_neighborhoods_incrementally() {
        let g = generators::path(4);
        let mut sim = Simulator::new(&g, &Flood);
        sim.apply_delta(&TopologyDelta { add: vec![(0, 3)], remove: vec![(1, 2), (2, 3)] });
        assert!(sim.graph().has_edge(0, 3));
        assert!(!sim.graph().has_edge(1, 2));
        let stats = sim.run_until_quiet(50);
        assert!(stats.quiescent);
        assert!(sim.state(3).0, "flood crosses the new chord");
        assert!(!sim.state(2).0, "2 was isolated before the flood started");
        assert_conservation(&sim);
    }

    #[test]
    fn topology_deltas_follow_a_snapshot_cursor() {
        use csn_temporal::TimeEvolvingGraph;
        // 0-1 connected at t=0 only; 1-2 connected at t=1 only: the flood
        // needs both snapshots, in order, to reach node 2.
        let mut eg = TimeEvolvingGraph::new(3, 3);
        eg.add_contact(0, 1, 0);
        eg.add_contact(1, 2, 1);
        eg.add_contact(1, 2, 2);
        let cur = eg.snapshot_cursor();
        let faults = FaultModel::none().with_snapshot_deltas(&cur, 3);
        let mut sim = Simulator::with_faults(cur.graph(), &AdaptiveFlood, faults);
        let stats = sim.run_until_stable(50, 2);
        assert!(stats.quiescent);
        for u in 0..3 {
            assert!(sim.state(u).0, "node {u} missed the time-respecting flood");
        }
        assert_conservation(&sim);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "non-neighbor")]
    fn static_misroute_asserts_in_debug_builds() {
        struct Bad;
        impl Protocol for Bad {
            type State = ();
            type Msg = ();
            fn init(&self, _u: NodeId, _ctx: &Neighborhood) -> Self::State {}
            fn round(
                &self,
                u: NodeId,
                _state: &mut Self::State,
                _ctx: &Neighborhood,
                _inbox: &[(NodeId, ())],
                out: &mut Outbox<'_, ()>,
            ) {
                if u == 0 {
                    out.unicast(3, ()); // 3 is two hops away
                }
            }
        }
        let g = generators::path(4);
        Simulator::new(&g, &Bad).step();
    }

    #[test]
    fn stale_sends_after_churn_are_counted_not_asserted() {
        // BlindSend keeps unicasting to its init-time neighbors; removing
        // the edge turns those sends into counted misroutes in all builds.
        struct BlindSend;
        impl Protocol for BlindSend {
            type State = Vec<NodeId>;
            type Msg = ();
            fn init(&self, _u: NodeId, ctx: &Neighborhood) -> Self::State {
                ctx.neighbors().to_vec()
            }
            fn round(
                &self,
                _u: NodeId,
                state: &mut Self::State,
                _ctx: &Neighborhood,
                _inbox: &[(NodeId, ())],
                out: &mut Outbox<'_, ()>,
            ) {
                for i in 0..state.len() {
                    out.unicast(state[i], ());
                }
            }
        }
        let g = generators::path(2);
        let faults = FaultModel::none()
            .with_event(1, FaultEvent::Delta(TopologyDelta { add: vec![], remove: vec![(0, 1)] }));
        let mut sim = Simulator::with_faults(&g, &BlindSend, faults);
        for _ in 0..3 {
            sim.step();
        }
        let stats = sim.stats();
        assert_eq!(stats.misrouted, 4, "two nodes × two post-delta rounds");
        assert_eq!(stats.sent, 2, "only the pre-delta round's sends count");
        assert_conservation(&sim);
    }

    #[test]
    fn faulted_runs_are_bit_identical_per_seed() {
        let g = generators::erdos_renyi(30, 0.15, 8).unwrap();
        let faults = FaultModel {
            seed: 77,
            ..FaultModel::lossy(0.3, 77)
                .with_delay(0.2)
                .with_duplication(0.1)
                .with_reorder()
                .with_churn(ChurnSchedule::random(30, 40, 0.02, 5, 77).protect(0))
        };
        let run = |faults: FaultModel| {
            let mut sim = Simulator::with_faults(&g, &Flood, faults);
            let stats = sim.run_until_stable(200, 4);
            (stats, sim.states().to_vec())
        };
        let (s1, f1) = run(faults.clone());
        let (s2, f2) = run(faults);
        assert_eq!(s1, s2, "same FaultModel, different RunStats");
        assert_eq!(f1, f2, "same FaultModel, different final states");
    }

    #[test]
    fn k_hop_view_distances() {
        let g = generators::path(6);
        let view = k_hop_view(&g, 2, 2);
        let mut v: Vec<_> = view;
        v.sort_unstable();
        assert_eq!(v, vec![(0, 2), (1, 1), (3, 1), (4, 2)]);
        assert!(k_hop_view(&g, 0, 0).is_empty());
    }

    #[test]
    fn k_hop_subgraph_is_induced() {
        let g = generators::cycle(6);
        let (sub, back) = k_hop_subgraph(&g, 0, 1);
        assert_eq!(sub.node_count(), 3);
        assert_eq!(sub.edge_count(), 2, "1-hop view of a cycle is a path");
        assert!(back.contains(&0) && back.contains(&1) && back.contains(&5));
    }

    #[test]
    fn stats_track_messages() {
        let g = generators::star(4);
        let mut sim = Simulator::new(&g, &Flood);
        let stats = sim.run_until_quiet(10);
        // Center broadcasts to 4 leaves: at least 4 deliveries.
        assert!(stats.messages >= 4);
        assert!(stats.quiescent);
        assert_eq!(stats.sent, stats.messages);
    }

    #[test]
    fn owned_payloads_reach_their_receivers_intact() {
        // Each node broadcasts, for four rounds, a heap payload naming
        // itself; every delivered copy, duplicated, delayed or reordered,
        // must name its `from`. State: `(rounds, received, misnamed)`.
        struct Named;
        impl Protocol for Named {
            type State = (u32, usize, usize);
            type Msg = Vec<NodeId>;
            fn init(&self, _u: NodeId, _ctx: &Neighborhood) -> Self::State {
                (0, 0, 0)
            }
            fn round(
                &self,
                u: NodeId,
                state: &mut Self::State,
                _ctx: &Neighborhood,
                inbox: &[(NodeId, Vec<NodeId>)],
                out: &mut Outbox<'_, Vec<NodeId>>,
            ) {
                state.1 += inbox.len();
                state.2 += inbox
                    .iter()
                    .filter(|(from, msg)| msg.is_empty() || msg.iter().any(|x| x != from))
                    .count();
                if state.0 < 4 {
                    out.broadcast(vec![u; 1 + u % 3]);
                }
                state.0 += 1;
            }
        }
        let g = generators::erdos_renyi(40, 0.15, 4).unwrap();
        let faults = FaultModel {
            seed: 12,
            ..FaultModel::none().with_duplication(0.3).with_delay(0.4).with_reorder()
        };
        let run = |jobs: usize| {
            let mut sim = Simulator::with_faults(&g, &Named, faults.clone()).with_jobs(jobs);
            let stats = sim.run_until_quiet(200);
            assert_conservation(&sim);
            (stats, sim.states().to_vec())
        };
        let (stats, states) = run(1);
        assert!(stats.quiescent && stats.duplicated > 0 && stats.messages > stats.sent);
        assert_eq!(stats.messages, states.iter().map(|s| s.1).sum::<usize>());
        assert!(states.iter().all(|s| s.2 == 0), "a payload named the wrong sender");
        assert_eq!(run(2), (stats, states));
    }

    #[test]
    fn pending_counters_are_maintained_through_delay_and_churn() {
        // Exercise in_flight/pending_messages (whose debug_assert
        // cross-checks the inbox total against the inbox slices) at every
        // round of a delayed, churning run.
        let g = generators::erdos_renyi(20, 0.2, 3).unwrap();
        let faults = FaultModel { seed: 5, ..FaultModel::none().with_delay(0.6) }
            .with_churn(ChurnSchedule::random(20, 30, 0.05, 3, 5).protect(0));
        let mut sim = Simulator::with_faults(&g, &Flood, faults);
        for _ in 0..40 {
            sim.step();
            let _ = sim.pending_messages();
        }
        assert_conservation(&sim);
    }
}

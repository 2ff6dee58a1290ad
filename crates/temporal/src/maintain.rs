//! Incremental structure maintenance under churn: [`StructureMaintainer`]
//! and the [`TrackedCursor`].
//!
//! The paper's useful structures — k-core decompositions, NSF levels,
//! forwarding sets — are consumed in *dynamic* environments (§II-B), yet a
//! naive temporal sweep recomputes each of them from scratch at every
//! snapshot even though [`SnapshotCursor`] already delivers `O(Δ_t)` edge
//! deltas per step. This module turns those structures into *state machines
//! over deltas*: a [`StructureMaintainer`] is re-seeded once from a
//! snapshot and thereafter brings its maintained state up to date on each
//! step, given the post-step snapshot and the step's exact delta, with
//! whichever update measured cheapest for its structure.
//!
//! Three first-class maintainers implement the trait:
//!
//! * [`csn_graph::cores::IncrementalCores`] — core numbers, recomputed by
//!   one `core_numbers` pass per changing step (impl lives in this module;
//!   [`csn_graph::cores`] gives the measurements against per-edge repair).
//! * `csn_layering::nsf::IncrementalNsf` — NSF levels, recomputed by one
//!   peel of the snapshot per changing step (`csn_layering::nsf` gives the
//!   measurements against re-peeling only the affected components).
//! * `csn_trimming::IncrementalForwarding` — §III-A forwarding sets under a
//!   frozen static-rule trim as contacts appear/disappear.
//!
//! The [`TrackedCursor`] ties them to a sweep: it wraps a [`SnapshotCursor`],
//! whose graph is the only copy of the snapshot, and on each
//! [`TrackedCursor::advance`] hands every registered maintainer that graph
//! and the step's delta, so maintained state equals the from-scratch
//! computation at every `t` (the `maintain_props` suite gates this bitwise,
//! the same way `snapshot_props` gates the cursor itself).
//!
//! # Performance
//!
//! A per-`t` rebuild of a structure costs `Ω(n)` per step no matter how
//! little changed. The forwarding maintainer repairs only what a delta can
//! affect — the endpoints' sets — so its cost scales with churn. The cores
//! and NSF maintainers do not: a change to one edge can move core numbers
//! across its whole same-core region, and NSF levels across its whole
//! component, and on contact traces those regions are most of the graph.
//! So they recompute once per changing step, with the same work as a
//! rebuild: `n` touches for cores, `Σ_u level(u)` for NSF (one per node
//! per peel round it survives). No maintainer keeps a graph of its own:
//! the cursor applies each delta once, and every maintainer reads its
//! snapshot. Every maintainer counts the nodes it touches
//! ([`StructureMaintainer::touched_nodes`]), so each cost is *verifiable*:
//! `csn-bench`'s `gates::kernels::maintain_fewer_touches` test asserts that
//! on a sparse trace the forwarding sweep touches strictly fewer nodes than
//! per-`t` rebuilds and the cores and NSF sweeps no more, `perf_smoke`
//! records the counts in `BENCH_kernels.json` (its `maintain` block), and
//! `scripts/check.sh` fails when they drift from the committed file. That
//! matters on a small shared machine, where wall-clock alone is noisy.
//!
//! # Examples
//!
//! ```
//! use csn_graph::cores::{core_numbers, IncrementalCores};
//! use csn_temporal::{TimeEvolvingGraph, TrackedCursor};
//!
//! let mut eg = TimeEvolvingGraph::new(4, 6);
//! eg.add_periodic(0, 1, 0, 2);
//! eg.add_periodic(1, 2, 0, 1);
//! eg.add_periodic(2, 3, 1, 3);
//! eg.add_periodic(3, 0, 0, 2);
//!
//! let mut cur = TrackedCursor::new(&eg);
//! let cores = cur.register(Box::new(IncrementalCores::default()));
//! loop {
//!     let inc: &IncrementalCores = cur.view(cores).expect("registered");
//!     assert_eq!(inc.core_numbers(), core_numbers(cur.graph()).as_slice());
//!     if !cur.advance() {
//!         break;
//!     }
//! }
//! ```
//!
//! The same sweep can *serve* journey queries: because journey semantics
//! allow equal-label chaining, a node arrives by time `t` exactly when it
//! is in the snapshot-`t` closure of the already-arrived set, so closing
//! that set over [`TrackedCursor::graph`] at each step reproduces
//! [`crate::journey::earliest_arrival`] — and the maintained structure is
//! already current at the arrival instant, with no rebuild:
//!
//! ```
//! use csn_graph::cores::IncrementalCores;
//! use csn_temporal::journey::earliest_arrival;
//! use csn_temporal::{TimeEvolvingGraph, TrackedCursor};
//!
//! let mut eg = TimeEvolvingGraph::new(5, 6);
//! eg.add_contact(0, 1, 1);
//! eg.add_contact(1, 2, 3);
//! eg.add_contact(2, 3, 3); // chains with (1, 2) within time unit 3
//! eg.add_contact(3, 4, 2); // too early — node 4 never hears from 0
//!
//! let mut cur = TrackedCursor::new(&eg);
//! let cores = cur.register(Box::new(IncrementalCores::default()));
//! let (source, target) = (0, 3);
//! let mut arrived = vec![false; eg.node_count()];
//! arrived[source] = true;
//! let answer = loop {
//!     // Close the arrived set over the current snapshot.
//!     let mut queue: Vec<_> = (0..eg.node_count()).filter(|&u| arrived[u]).collect();
//!     while let Some(u) = queue.pop() {
//!         for &v in cur.graph().neighbors(u) {
//!             if !arrived[v] {
//!                 arrived[v] = true;
//!                 queue.push(v);
//!             }
//!         }
//!     }
//!     if arrived[target] {
//!         break Some(cur.time());
//!     }
//!     if !cur.advance() {
//!         break None;
//!     }
//! };
//! assert_eq!(answer, earliest_arrival(&eg, source, 0)[target]);
//! assert_eq!(answer, Some(3));
//! // Structure queries about the arrival instant come straight off the
//! // maintained state: at t = 3 the 1-2-3 path is live.
//! let inc: &IncrementalCores = cur.view(cores).expect("registered");
//! assert_eq!(inc.core_numbers()[target], 1);
//! ```

use crate::graph::{TimeEvolvingGraph, TimeUnit};
use crate::snapshot::SnapshotCursor;
use csn_graph::cores::IncrementalCores;
use csn_graph::Graph;
use std::any::Any;

/// A structure kept up to date under edge churn.
///
/// Implementations own whatever auxiliary state their repair algorithm
/// needs, but not the graph: each [`apply`](Self::apply) reads the caller's
/// post-step snapshot. They promise that after any sequence of `apply`
/// calls the maintained result equals what the from-scratch computation
/// would produce on the latest snapshot — the `maintain_props` property
/// suite holds them to it bitwise at every step.
pub trait StructureMaintainer {
    /// A short stable name for reports and benchmarks (e.g. `"cores"`).
    fn name(&self) -> &'static str;

    /// Discards all maintained state and recomputes it from scratch on `g`.
    /// Also resets the touched-node counter.
    fn reseed(&mut self, g: &Graph);

    /// Brings the maintained state up to date after one step. `g` is the
    /// snapshot after the step; `removed` and `added` are exactly its delta
    /// against the snapshot the state was last brought up to date with:
    /// `g` equals that snapshot minus `removed` plus `added`, every removed
    /// edge was present, every added edge was absent, the two lists are
    /// disjoint and each is strictly increasing `(min, max)` pairs (the
    /// [`SnapshotCursor::appearing_at`] delta contract).
    fn apply(&mut self, g: &Graph, removed: &[(u32, u32)], added: &[(u32, u32)]);

    /// Nodes examined by [`apply`](Self::apply) since the last
    /// [`reseed`](Self::reseed) — the *counted* cost of maintenance,
    /// comparable with the `n` nodes per step that a from-scratch rebuild
    /// visits.
    fn touched_nodes(&self) -> u64;

    /// The concrete maintainer, for typed views via [`TrackedCursor::view`].
    fn as_any(&self) -> &dyn Any;
}

impl StructureMaintainer for IncrementalCores {
    fn name(&self) -> &'static str {
        "cores"
    }

    fn reseed(&mut self, g: &Graph) {
        *self = IncrementalCores::new(g);
    }

    fn apply(&mut self, g: &Graph, removed: &[(u32, u32)], added: &[(u32, u32)]) {
        if !(removed.is_empty() && added.is_empty()) {
            self.recompute(g);
        }
    }

    fn touched_nodes(&self) -> u64 {
        IncrementalCores::touched_nodes(self)
    }

    fn as_any(&self) -> &dyn Any {
        self
    }
}

/// A [`SnapshotCursor`] carrying registered [`StructureMaintainer`]s that it
/// hands the post-step snapshot and the step delta on every
/// [`advance`](Self::advance). See the [module docs](self) for the contract
/// and an example.
///
/// # Performance
///
/// [`advance`](Self::advance) costs the cursor step (`O(Δ_t)`) plus each
/// maintainer's [`StructureMaintainer::apply`] (see the
/// [module docs](self#performance)); the cursor side copies nothing — the
/// maintainers read its graph and its precomputed delta slices. The
/// expensive parts — the cursor's delta lists and each maintainer's
/// seeded state — are paid once at construction /
/// [`register`](Self::register); [`reset`](Self::reset) reuses the delta
/// lists (see [`SnapshotCursor::reset`]) and re-seeds maintainers only
/// from the `t = 0` snapshot, so repeated sweeps over the same trace (a
/// serving loop, a replayed experiment) never re-scan the `EG`'s label
/// sets.
pub struct TrackedCursor {
    cursor: SnapshotCursor,
    maintainers: Vec<Box<dyn StructureMaintainer>>,
}

impl TrackedCursor {
    /// Builds a tracked cursor positioned at `t = 0` with no maintainers.
    pub fn new(eg: &TimeEvolvingGraph) -> Self {
        TrackedCursor { cursor: SnapshotCursor::new(eg), maintainers: Vec::new() }
    }

    /// Registers a maintainer, re-seeding it from the current snapshot, and
    /// returns its handle for [`view`](Self::view) /
    /// [`maintainer`](Self::maintainer) lookups.
    pub fn register(&mut self, mut m: Box<dyn StructureMaintainer>) -> usize {
        m.reseed(self.cursor.graph());
        self.maintainers.push(m);
        self.maintainers.len() - 1
    }

    /// The current time unit.
    pub fn time(&self) -> TimeUnit {
        self.cursor.time()
    }

    /// The horizon of the underlying `EG` at construction time.
    pub fn horizon(&self) -> TimeUnit {
        self.cursor.horizon()
    }

    /// The snapshot at the current time unit.
    pub fn graph(&self) -> &Graph {
        self.cursor.graph()
    }

    /// The wrapped cursor (for `appearing_at` / `disappearing_at` queries).
    pub fn cursor(&self) -> &SnapshotCursor {
        &self.cursor
    }

    /// The maintainer behind `handle`, as the trait object.
    pub fn maintainer(&self, handle: usize) -> &dyn StructureMaintainer {
        &*self.maintainers[handle]
    }

    /// Typed view of the maintainer behind `handle`; `None` if the handle's
    /// maintainer is not a `T`.
    pub fn view<T: 'static>(&self, handle: usize) -> Option<&T> {
        self.maintainers.get(handle)?.as_any().downcast_ref::<T>()
    }

    /// Sum of [`StructureMaintainer::touched_nodes`] over all maintainers.
    pub fn touched_nodes(&self) -> u64 {
        self.maintainers.iter().map(|m| m.touched_nodes()).sum()
    }

    /// Steps to the next time unit and hands every registered maintainer
    /// the new snapshot with the step's delta
    /// ([`SnapshotCursor::disappearing_at`] / [`SnapshotCursor::appearing_at`]).
    /// Returns `false` (without moving or notifying anyone) once the last
    /// time unit of the horizon is reached.
    pub fn advance(&mut self) -> bool {
        let TrackedCursor { cursor, maintainers } = self;
        if !cursor.advance() {
            return false;
        }
        let t = cursor.time();
        for m in maintainers {
            m.apply(cursor.graph(), cursor.disappearing_at(t), cursor.appearing_at(t));
        }
        true
    }

    /// Rewinds to `t = 0` via [`SnapshotCursor::reset`] and re-seeds every
    /// registered maintainer from the `t = 0` snapshot.
    pub fn reset(&mut self) {
        self.cursor.reset();
        for m in &mut self.maintainers {
            m.reseed(self.cursor.graph());
        }
    }
}

impl std::fmt::Debug for TrackedCursor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TrackedCursor")
            .field("t", &self.cursor.time())
            .field("horizon", &self.cursor.horizon())
            .field("maintainers", &self.maintainers.iter().map(|m| m.name()).collect::<Vec<_>>())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::markovian::EdgeMarkovian;
    use crate::paper::fig2_example;
    use csn_graph::cores::core_numbers;

    /// Sweeps the cores maintainer over `eg`, checking it against the
    /// oracle at every `t`; returns its touched-node count.
    fn assert_cores_tracked(eg: &TimeEvolvingGraph) -> u64 {
        let mut cur = TrackedCursor::new(eg);
        let h = cur.register(Box::new(IncrementalCores::default()));
        for t in 0..eg.horizon().max(1) {
            assert_eq!(cur.time(), t);
            let inc: &IncrementalCores = cur.view(h).expect("typed view");
            assert_eq!(inc.core_numbers(), core_numbers(cur.graph()).as_slice(), "t={t}");
            let advanced = cur.advance();
            assert_eq!(advanced, t + 1 < eg.horizon(), "t={t}");
        }
        cur.touched_nodes()
    }

    #[test]
    fn cores_tracked_on_fig2() {
        assert_cores_tracked(&fig2_example());
    }

    #[test]
    fn cores_tracked_on_markovian_trace() {
        let eg = EdgeMarkovian::new(24, 0.35, 0.08).generate(60, 99);
        assert_cores_tracked(&eg);
    }

    #[test]
    fn cores_recompute_once_per_changing_step() {
        // Step 1 removes one edge and adds two, step 3 removes two; steps 2
        // and 4 change nothing.
        let mut eg = TimeEvolvingGraph::new(4, 5);
        eg.add_periodic(0, 1, 0, 1);
        eg.add_contact(1, 2, 0);
        for t in [1, 2] {
            eg.add_contact(2, 3, t);
            eg.add_contact(0, 2, t);
        }
        assert_eq!(assert_cores_tracked(&eg), 2 * 4, "one pass per changing step");
    }

    type Edges = Vec<(u32, u32)>;

    /// Records every snapshot and delta a [`TrackedCursor`] hands it.
    #[derive(Default)]
    struct Recorder {
        seeds: Vec<Graph>,
        /// `(snapshot, removed, added)` per `apply`.
        steps: Vec<(Graph, Edges, Edges)>,
    }

    impl StructureMaintainer for Recorder {
        fn name(&self) -> &'static str {
            "recorder"
        }

        fn reseed(&mut self, g: &Graph) {
            self.seeds.push(g.clone());
            self.steps.clear();
        }

        fn apply(&mut self, g: &Graph, removed: &[(u32, u32)], added: &[(u32, u32)]) {
            self.steps.push((g.clone(), removed.to_vec(), added.to_vec()));
        }

        fn touched_nodes(&self) -> u64 {
            0
        }

        fn as_any(&self) -> &dyn Any {
            self
        }
    }

    #[test]
    fn maintainers_get_the_step_snapshot_and_its_exact_delta() {
        let eg = EdgeMarkovian::new(24, 0.35, 0.08).generate(60, 99);
        let mut cur = TrackedCursor::new(&eg);
        let h = cur.register(Box::new(Recorder::default()));
        // A sweep, then a second one after `reset` re-seeds.
        for sweep in 1..=2 {
            while cur.advance() {}
            let rec: &Recorder = cur.view(h).expect("typed view");
            assert_eq!(rec.seeds, vec![eg.snapshot(0); sweep], "seeded from t = 0");
            assert_eq!(rec.steps.len(), eg.horizon() as usize - 1);
            for (t, (g, removed, added)) in (1..).zip(&rec.steps) {
                assert_eq!(*g, eg.snapshot(t), "snapshot at t={t}");
                assert_eq!(removed.as_slice(), cur.cursor().disappearing_at(t), "t={t}");
                assert_eq!(added.as_slice(), cur.cursor().appearing_at(t), "t={t}");
            }
            cur.reset();
        }
    }

    #[test]
    fn reset_reseeds_maintainers() {
        let eg = fig2_example();
        let mut cur = TrackedCursor::new(&eg);
        let h = cur.register(Box::new(IncrementalCores::default()));
        while cur.advance() {}
        cur.reset();
        assert_eq!(cur.time(), 0);
        let inc: &IncrementalCores = cur.view(h).expect("typed view");
        assert_eq!(inc.core_numbers(), core_numbers(&eg.snapshot(0)).as_slice());
        assert_eq!(inc.touched_nodes(), 0, "reseed resets the counter");
    }

    #[test]
    fn view_rejects_wrong_type_and_bad_handles() {
        let eg = fig2_example();
        let mut cur = TrackedCursor::new(&eg);
        let h = cur.register(Box::new(IncrementalCores::default()));
        assert!(cur.view::<IncrementalCores>(h).is_some());
        assert!(cur.view::<String>(h).is_none());
        assert!(cur.view::<IncrementalCores>(h + 1).is_none());
        assert_eq!(cur.maintainer(h).name(), "cores");
    }

    #[test]
    fn cores_touch_at_most_one_pass_per_step_under_dense_churn() {
        // Dense churn (edge death probability 0.5, mean degree 8), where
        // per-edge repair walked whole same-core regions: millions of node
        // visits against the `n` per step of one `core_numbers` pass.
        let (n, p_die, degree) = (200, 0.5, 8.0);
        let density = degree / (n as f64 - 1.0);
        let eg = EdgeMarkovian::new(n, p_die, p_die * density / (1.0 - density)).generate(40, 3);
        let touched = assert_cores_tracked(&eg);
        let one_pass_per_step = u64::from(eg.horizon() - 1) * n as u64;
        assert!(
            touched <= one_pass_per_step,
            "cores touched {touched} nodes, one pass per step is {one_pass_per_step}"
        );
    }
}

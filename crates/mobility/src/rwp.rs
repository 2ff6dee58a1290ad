//! Random-waypoint (RWP) mobility (§II-B).
//!
//! Each node repeatedly picks a uniform destination in the unit square,
//! travels there at a uniform-random speed, optionally pauses, and repeats.
//! Contacts arise whenever two nodes come within the radio range.
//!
//! The paper: "a random waypoint mobility without a boundary does not meet
//! the exponential distribution for either contact duration or inter-contact
//! time" — experiment E17 measures exactly this with [`crate::stats`].
//!
//! # Performance
//!
//! Contact detection has two back ends, picked by node count and gated
//! bitwise against each other by the unit tests: the O(n²) all-pairs scan
//! below 64 nodes, and from 64 on a uniform-cell grid index in the
//! [`csn_graph::stream::GeometricStream`] idiom — cells at least one radio
//! range wide, so every in-range pair lies in a 3×3 cell neighborhood.
//! Either back end yields each step's in-range pairs in ascending pair
//! order, and one sorted merge with the open contacts (also kept in pair
//! order) opens and closes contacts, so a step costs O(n + open + near)
//! with the grid instead of O(n²). City-scale
//! traces (n in the thousands, millions of contacts) are built through
//! [`crate::stream::RwpStream`] without materializing the event vector;
//! throughput is recorded in `BENCH_scenario.json` (see SCENARIOS.md).

use crate::stream::{ContactStream, RwpStream};
use crate::trace::{ContactEvent, ContactTrace};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Nodes from which a walk finds in-range pairs with the grid instead of
/// the all-pairs scan: the grid's constant factor only pays off once the
/// quadratic term dominates.
pub(crate) const GRID_THRESHOLD: usize = 64;

/// Configuration of a random-waypoint simulation on the unit square.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RandomWaypoint {
    /// Number of nodes.
    pub n: usize,
    /// Radio range (contact iff distance `<=` range).
    pub range: f64,
    /// Minimum travel speed (units/second); must be `> 0`.
    pub v_min: f64,
    /// Maximum travel speed.
    pub v_max: f64,
    /// Maximum pause at each waypoint (uniform in `[0, pause_max]`).
    pub pause_max: f64,
    /// Simulation time step (seconds).
    pub dt: f64,
}

impl RandomWaypoint {
    /// A reasonable default: range 0.1, speeds 0.01–0.05, pauses up to 2 s,
    /// 0.5 s steps.
    pub fn default_config(n: usize) -> Self {
        RandomWaypoint { n, range: 0.1, v_min: 0.01, v_max: 0.05, pause_max: 2.0, dt: 0.5 }
    }

    pub(crate) fn validate(&self) {
        assert!(self.n > 0 && self.range > 0.0 && self.dt > 0.0, "bad parameters");
        assert!(0.0 < self.v_min && self.v_min <= self.v_max, "bad speed range");
    }

    /// Simulates `duration` seconds and returns the contact trace: the
    /// collected [`RwpStream::bounded`].
    ///
    /// # Panics
    ///
    /// Panics if parameters are non-positive or `v_min > v_max`.
    pub fn simulate(&self, duration: f64, seed: u64) -> ContactTrace {
        RwpStream::bounded(*self, duration, seed).collect_trace()
    }

    /// Random waypoint **without a boundary** (§II-B): each waypoint is a
    /// uniform-direction trip of length `trip_min..trip_max` from the
    /// current position, so nodes diffuse over the open plane. The paper's
    /// claim — reproduced by experiment E17 — is that this variant does
    /// *not* produce exponential contact-duration or inter-contact-time
    /// distributions (pairs drift apart, stretching the tail). The trace
    /// is the collected [`RwpStream::unbounded`].
    ///
    /// # Panics
    ///
    /// Panics on non-positive parameters or `trip_min > trip_max`.
    pub fn simulate_unbounded(
        &self,
        duration: f64,
        trip_min: f64,
        trip_max: f64,
        seed: u64,
    ) -> ContactTrace {
        RwpStream::unbounded(*self, duration, trip_min, trip_max, seed).collect_trace()
    }
}

/// Which waypoint law the walk follows; both share one movement integrator
/// ([`NodeState::advance`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum Walk {
    /// Waypoints uniform in the unit square (positions stay in `[0, 1]²`).
    Bounded,
    /// Waypoints at a uniform angle and `trip_min..=trip_max` distance from
    /// the current position (positions diffuse over the open plane).
    Unbounded {
        /// Minimum trip length.
        trip_min: f64,
        /// Maximum trip length.
        trip_max: f64,
    },
}

impl Walk {
    /// Draws the next waypoint. Exactly two RNG draws in either variant.
    fn pick_dest(&self, pos: (f64, f64), rng: &mut StdRng) -> (f64, f64) {
        match *self {
            Walk::Bounded => (rng.gen(), rng.gen()),
            Walk::Unbounded { trip_min, trip_max } => {
                let theta = rng.gen::<f64>() * std::f64::consts::TAU;
                let len = rng.gen_range(trip_min..=trip_max);
                (pos.0 + len * theta.cos(), pos.1 + len * theta.sin())
            }
        }
    }
}

#[derive(Debug, Clone, Copy)]
struct NodeState {
    pos: (f64, f64),
    dest: (f64, f64),
    speed: f64,
    pause_left: f64,
}

impl NodeState {
    /// One `dt` of movement under `model`'s speeds and pauses: pause if
    /// pausing, otherwise move toward the destination, re-drawing waypoint,
    /// speed, and pause on arrival via `walk`. Both the bounded and the
    /// unbounded simulation step through this single integrator.
    fn advance(&mut self, model: &RandomWaypoint, walk: Walk, rng: &mut StdRng) {
        if self.pause_left > 0.0 {
            self.pause_left -= model.dt;
            return;
        }
        let dx = self.dest.0 - self.pos.0;
        let dy = self.dest.1 - self.pos.1;
        let d = (dx * dx + dy * dy).sqrt();
        let travel = self.speed * model.dt;
        if d <= travel {
            // Arrive; choose the next waypoint, speed, and pause.
            self.pos = self.dest;
            self.dest = walk.pick_dest(self.pos, rng);
            self.speed = rng.gen_range(model.v_min..=model.v_max);
            self.pause_left = rng.gen::<f64>() * model.pause_max;
        } else {
            self.pos.0 += dx / d * travel;
            self.pos.1 += dy / d * travel;
        }
    }
}

/// The in-range predicate. One shared function so the naive scan and the
/// grid agree bitwise: `(-dx)² == dx²` exactly in IEEE 754, so which
/// endpoint is subtracted from which cannot matter.
#[inline]
fn within_range(a: (f64, f64), b: (f64, f64), range: f64) -> bool {
    let dx = a.0 - b.0;
    let dy = a.1 - b.1;
    (dx * dx + dy * dy).sqrt() <= range
}

/// A node pair `(u, v)` with `u < v`, ordered lexicographically.
type Pair = (u32, u32);

/// Runs a random-waypoint walk, streaming contact events to `emit`.
///
/// Timestamps are stamped *post-advance*: step `k` moves every node from
/// time `k·dt` to `(k+1)·dt` and then scans positions, so observed
/// openings/closures carry `now = (k+1)·dt` — the time of the positions
/// being scanned. (The pre-fix code stamped `k·dt`, lagging every contact
/// boundary one `dt` behind the motion.) The final step's stamp and any
/// contacts still open at the end are clamped to `duration`, so every event
/// lies inside `[0, duration]` even when `duration / dt` is fractional.
///
/// Open contacts live in a `Vec` of `(pair, start)` in ascending pair
/// order. Each step merges it once with that step's in-range pairs (see
/// [`merge_step`]), so closures and the end-of-trace drain emit in pair
/// order — deterministic across processes and back ends. The grid finds
/// the in-range pairs if `grid`, else the all-pairs scan.
pub(crate) fn run_walk(
    model: &RandomWaypoint,
    walk: Walk,
    duration: f64,
    seed: u64,
    grid: bool,
    emit: &mut dyn FnMut(ContactEvent),
) {
    let n = model.n;
    let mut rng = StdRng::seed_from_u64(seed);
    let mut state = initial_state(model, walk, &mut rng);
    let steps = (duration / model.dt).ceil() as usize;
    let mut grid = grid.then(|| ContactGrid::new(n, model.range, matches!(walk, Walk::Bounded)));
    let (mut open, mut next, mut near) = (Vec::new(), Vec::new(), Vec::new());
    for step in 0..steps {
        for s in &mut state {
            s.advance(model, walk, &mut rng);
        }
        // The positions scanned below are the time-(step+1)·dt positions;
        // stamp them as such, clamped to the horizon on the final
        // (possibly fractional) step.
        let now = (((step + 1) as f64) * model.dt).min(duration);
        near.clear();
        match &mut grid {
            Some(grid) => {
                grid.rebuild(&state);
                grid.near_pairs(&state, model.range, &mut near);
            }
            None => all_pairs_in_range(&state, model.range, &mut near),
        }
        merge_step(&open, &near, now, &mut next, emit);
        std::mem::swap(&mut open, &mut next);
    }
    // Close contacts still open at the end of the simulation, clamped to
    // the trace horizon (steps·dt overshoots `duration` whenever
    // duration/dt is fractional), in pair order.
    for &((u, v), start) in &open {
        if duration > start {
            emit(ContactEvent { u: u as usize, v: v as usize, start, end: duration });
        }
    }
}

/// Every node's state at time 0: a uniform position, its first waypoint
/// and speed, no pause.
fn initial_state(model: &RandomWaypoint, walk: Walk, rng: &mut StdRng) -> Vec<NodeState> {
    (0..model.n)
        .map(|_| {
            let pos = (rng.gen::<f64>(), rng.gen::<f64>());
            NodeState {
                pos,
                dest: walk.pick_dest(pos, rng),
                speed: rng.gen_range(model.v_min..=model.v_max),
                pause_left: 0.0,
            }
        })
        .collect()
}

/// One step's contact bookkeeping: merges the open contacts `open` with
/// the step's in-range pairs `near`, both in ascending pair order, into
/// `next`. A pair in both keeps its start, a pair only in `near` opens at
/// `now`, and a pair only in `open` closes at `now` — emitted, in
/// ascending pair order, unless it would be empty.
fn merge_step(
    open: &[(Pair, f64)],
    near: &[Pair],
    now: f64,
    next: &mut Vec<(Pair, f64)>,
    emit: &mut dyn FnMut(ContactEvent),
) {
    next.clear();
    let mut near = near.iter().copied().peekable();
    for &(pair, start) in open {
        while let Some(opened) = near.next_if(|&p| p < pair) {
            next.push((opened, now));
        }
        if near.next_if_eq(&pair).is_some() {
            next.push((pair, start));
        } else if now > start {
            emit(ContactEvent { u: pair.0 as usize, v: pair.1 as usize, start, end: now });
        }
    }
    next.extend(near.map(|p| (p, now)));
}

/// Appends every in-range pair to `out` in ascending pair order: the
/// O(n²) all-pairs reference scan.
fn all_pairs_in_range(state: &[NodeState], range: f64, out: &mut Vec<Pair>) {
    for u in 0..state.len() {
        for v in (u + 1)..state.len() {
            if within_range(state[u].pos, state[v].pos, range) {
                out.push((u as u32, v as u32));
            }
        }
    }
}

/// Uniform-cell spatial index over current node positions.
///
/// Cells are at least one radio range wide, so every in-range pair lies in
/// a 3×3 cell neighborhood of either endpoint. Two layouts share the
/// interface:
///
/// * **dense** (bounded walks, positions in `[0, 1]²`) — counting sort
///   into a `side × side` row grid, rebuilt allocation-free each step in
///   the [`csn_graph::stream::GeometricStream`] idiom;
/// * **sparse** (unbounded walks, positions diffuse arbitrarily far) —
///   integer cell coordinates into a rebuilt hash map of buckets, since a
///   dense grid over the walk's growing bounding box would outgrow O(n).
struct ContactGrid {
    /// Dense layout: cells per axis (0 = sparse layout).
    side: usize,
    cell_width: f64,
    /// Dense: node ids sorted by cell, rows delimited by `cell_start`.
    order: Vec<u32>,
    cell_start: Vec<u32>,
    counts: Vec<u32>,
    /// Sparse: bucket per occupied integer cell.
    buckets: std::collections::HashMap<(i64, i64), Vec<u32>>,
}

impl ContactGrid {
    fn new(n: usize, range: f64, bounded: bool) -> Self {
        if bounded {
            // Width >= range for 3×3 correctness; cap the cell count at
            // O(n) so the per-step counting sort stays linear.
            let max_side = ((n as f64).sqrt().ceil() as usize + 1).max(1);
            let side = ((1.0 / range).floor() as usize).clamp(1, max_side);
            ContactGrid {
                side,
                cell_width: 1.0 / side as f64,
                order: vec![0; n],
                cell_start: Vec::new(),
                counts: vec![0; side * side + 1],
                buckets: std::collections::HashMap::new(),
            }
        } else {
            ContactGrid {
                side: 0,
                cell_width: range,
                order: Vec::new(),
                cell_start: Vec::new(),
                counts: Vec::new(),
                buckets: std::collections::HashMap::new(),
            }
        }
    }

    fn dense_cell(&self, pos: (f64, f64)) -> usize {
        let side = self.side;
        let cx = ((pos.0 * side as f64) as usize).min(side - 1);
        let cy = ((pos.1 * side as f64) as usize).min(side - 1);
        cy * side + cx
    }

    fn sparse_cell(&self, pos: (f64, f64)) -> (i64, i64) {
        ((pos.0 / self.cell_width).floor() as i64, (pos.1 / self.cell_width).floor() as i64)
    }

    fn rebuild(&mut self, state: &[NodeState]) {
        if self.side > 0 {
            self.counts.iter_mut().for_each(|c| *c = 0);
            for s in state {
                let c = self.dense_cell(s.pos);
                self.counts[c + 1] += 1;
            }
            for i in 1..self.counts.len() {
                self.counts[i] += self.counts[i - 1];
            }
            self.cell_start.clone_from(&self.counts);
            let mut cursor = std::mem::take(&mut self.counts);
            for (i, s) in state.iter().enumerate() {
                let c = self.dense_cell(s.pos);
                self.order[cursor[c] as usize] = i as u32;
                cursor[c] += 1;
            }
            self.counts = cursor;
        } else {
            // Rebuild buckets, reusing allocations where cells repeat.
            self.buckets.values_mut().for_each(Vec::clear);
            for (i, s) in state.iter().enumerate() {
                self.buckets.entry(self.sparse_cell(s.pos)).or_default().push(i as u32);
            }
            self.buckets.retain(|_, b| !b.is_empty());
        }
    }

    /// Appends every pair `(u, v)`, `u < v`, whose distance is within
    /// `range` to `out`, each exactly once and in ascending pair order. The
    /// scan yields pairs grouped by ascending lower endpoint `u`, so sorting
    /// each group by `v` sorts them all.
    fn near_pairs(&self, state: &[NodeState], range: f64, out: &mut Vec<Pair>) {
        for u in 0..state.len() {
            let group = out.len();
            let mut visit = |v: u32| {
                // Each pair once, from the lower id.
                if v as usize > u && within_range(state[u].pos, state[v as usize].pos, range) {
                    out.push((u as u32, v));
                }
            };
            if self.side > 0 {
                let side = self.side;
                let pos = state[u].pos;
                let cx = ((pos.0 * side as f64) as usize).min(side - 1);
                let cy = ((pos.1 * side as f64) as usize).min(side - 1);
                for ny in cy.saturating_sub(1)..=(cy + 1).min(side - 1) {
                    for nx in cx.saturating_sub(1)..=(cx + 1).min(side - 1) {
                        let c = ny * side + nx;
                        let cell = &self.order
                            [self.cell_start[c] as usize..self.cell_start[c + 1] as usize];
                        cell.iter().for_each(|&v| visit(v));
                    }
                }
            } else {
                let (cx, cy) = self.sparse_cell(state[u].pos);
                for ny in (cy - 1)..=(cy + 1) {
                    for nx in (cx - 1)..=(cx + 1) {
                        if let Some(bucket) = self.buckets.get(&(nx, ny)) {
                            bucket.iter().for_each(|&v| visit(v));
                        }
                    }
                }
            }
            out[group..].sort_unstable();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeMap;

    /// The walk's contact bookkeeping before the sorted merge: open
    /// contacts in a `BTreeMap` updated once per in-range pair per step,
    /// with a separate close sweep (range-tested) on the grid back end.
    /// The reference the merge is gated against, event by event.
    fn reference_walk(
        model: &RandomWaypoint,
        walk: Walk,
        duration: f64,
        seed: u64,
        grid: bool,
    ) -> Vec<ContactEvent> {
        let mut events = Vec::new();
        let n = model.n;
        let mut rng = StdRng::seed_from_u64(seed);
        let mut state = initial_state(model, walk, &mut rng);
        let steps = (duration / model.dt).ceil() as usize;
        let mut open: BTreeMap<(usize, usize), f64> = BTreeMap::new();
        let mut grid =
            grid.then(|| ContactGrid::new(n, model.range, matches!(walk, Walk::Bounded)));
        let mut near = Vec::new();
        for step in 0..steps {
            for s in &mut state {
                s.advance(model, walk, &mut rng);
            }
            let now = (((step + 1) as f64) * model.dt).min(duration);
            match &mut grid {
                Some(grid) => {
                    let closing: Vec<(usize, usize)> = open
                        .keys()
                        .copied()
                        .filter(|&(u, v)| !within_range(state[u].pos, state[v].pos, model.range))
                        .collect();
                    for key in closing {
                        let start = open.remove(&key).expect("swept from open");
                        if now > start {
                            events.push(ContactEvent { u: key.0, v: key.1, start, end: now });
                        }
                    }
                    grid.rebuild(&state);
                    near.clear();
                    grid.near_pairs(&state, model.range, &mut near);
                    for &(u, v) in &near {
                        open.entry((u as usize, v as usize)).or_insert(now);
                    }
                }
                None => {
                    for u in 0..n {
                        for v in (u + 1)..n {
                            let within = within_range(state[u].pos, state[v].pos, model.range);
                            match (within, open.contains_key(&(u, v))) {
                                (true, false) => {
                                    open.insert((u, v), now);
                                }
                                (false, true) => {
                                    let start = open.remove(&(u, v)).expect("checked");
                                    if now > start {
                                        events.push(ContactEvent { u, v, start, end: now });
                                    }
                                }
                                _ => {}
                            }
                        }
                    }
                }
            }
        }
        for ((u, v), start) in open {
            if duration > start {
                events.push(ContactEvent { u, v, start, end: duration });
            }
        }
        events
    }

    /// The events the walk emits on the grid if `grid`, else on the
    /// all-pairs scan, in emission order.
    fn walk_events(
        model: &RandomWaypoint,
        walk: Walk,
        duration: f64,
        seed: u64,
        grid: bool,
    ) -> Vec<ContactEvent> {
        let mut events = Vec::new();
        run_walk(model, walk, duration, seed, grid, &mut |e| events.push(e));
        events
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(40))]

        #[test]
        fn merge_emits_the_reference_sequence(
            n in 2usize..100,
            range in 0.03f64..0.3,
            // Mostly fractional horizons exercise the end clamp.
            duration in 10.0f64..60.0,
            seed in 0u64..1_000,
            variant in 0usize..6,
        ) {
            let mut m = RandomWaypoint::default_config(n);
            m.range = range;
            let walk = if variant < 3 {
                Walk::Bounded
            } else {
                Walk::Unbounded { trip_min: 0.05, trip_max: 0.3 }
            };
            // The back end `run_walk` picks, then each one forced.
            let grid = [n >= GRID_THRESHOLD, false, true][variant % 3];
            let merged = walk_events(&m, walk, duration, seed, grid);
            let reference = reference_walk(&m, walk, duration, seed, grid);
            prop_assert_eq!(merged, reference, "n {}, {:?}, grid {}", n, walk, grid);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        #[test]
        fn grid_detection_is_bitwise_identical_to_all_pairs(
            n in 2usize..50,
            range in 0.02f64..0.4,
            duration in 20.0f64..100.0,
            seed in 0u64..1_000,
        ) {
            let mut m = RandomWaypoint::default_config(n);
            m.range = range;
            for walk in [Walk::Bounded, Walk::Unbounded { trip_min: 0.05, trip_max: 0.3 }] {
                let naive = walk_events(&m, walk, duration, seed, false);
                let grid = walk_events(&m, walk, duration, seed, true);
                prop_assert_eq!(naive, grid, "{:?} grid diverged from all-pairs scan", walk);
            }
        }
    }

    #[test]
    fn simulation_is_seeded_and_produces_contacts() {
        let m = RandomWaypoint::default_config(15);
        let t1 = m.simulate(300.0, 3);
        let t2 = m.simulate(300.0, 3);
        assert_eq!(t1, t2, "same seed, same trace");
        assert!(!t1.events().is_empty(), "15 nodes over 300 s must meet");
        let t3 = m.simulate(300.0, 4);
        assert_ne!(t1, t3);
    }

    #[test]
    fn contacts_are_well_formed() {
        // Fractional duration / dt: 200.0 / 0.5 is exact, so force a
        // fractional horizon explicitly to exercise the end clamp.
        let m = RandomWaypoint::default_config(10);
        for duration in [200.0, 199.75] {
            let t = m.simulate(duration, 9);
            assert!(t.is_well_formed());
            for e in t.events() {
                assert!(e.duration() > 0.0);
                assert!(e.start >= 0.0 && e.end <= duration, "event exceeds horizon: {e:?}");
                assert!(e.u < 10 && e.v < 10 && e.u != e.v);
            }
        }
    }

    #[test]
    fn unbounded_contacts_are_well_formed() {
        let m = RandomWaypoint::default_config(10);
        let t = m.simulate_unbounded(199.75, 0.1, 0.5, 9);
        assert!(t.is_well_formed());
        for e in t.events() {
            assert!(e.end <= 199.75, "event exceeds horizon: {e:?}");
        }
    }

    #[test]
    fn timestamps_are_post_advance() {
        // With the post-advance stamp, the earliest possible contact
        // boundary is dt (positions at t = 0 are never scanned), and every
        // boundary is a multiple of dt except the duration clamp.
        let m = RandomWaypoint::default_config(12);
        let t = m.simulate(150.0, 21);
        assert!(!t.events().is_empty());
        for e in t.events() {
            assert!(e.start >= m.dt - 1e-12, "start {} predates first step", e.start);
            let steps = e.start / m.dt;
            assert!((steps - steps.round()).abs() < 1e-9, "start {} off the grid", e.start);
        }
    }

    #[test]
    fn grid_matches_naive_bitwise() {
        let m = RandomWaypoint::default_config(25);
        for seed in 0..4 {
            for walk in [Walk::Bounded, Walk::Unbounded { trip_min: 0.1, trip_max: 0.4 }] {
                let naive = walk_events(&m, walk, 150.0, seed, false);
                let grid = walk_events(&m, walk, 150.0, seed, true);
                assert_eq!(naive, grid, "seed {seed}, {walk:?}: grid diverged from all-pairs scan");
            }
        }
    }

    #[test]
    fn larger_range_means_more_contact_time() {
        let mut small = RandomWaypoint::default_config(10);
        small.range = 0.05;
        let mut large = small;
        large.range = 0.3;
        let ts = small.simulate(200.0, 5);
        let tl = large.simulate(200.0, 5);
        let sum = |t: &crate::trace::ContactTrace| t.contact_durations().iter().sum::<f64>();
        assert!(sum(&tl) > sum(&ts), "{} vs {}", sum(&tl), sum(&ts));
    }

    #[test]
    #[should_panic(expected = "bad speed range")]
    fn zero_speed_rejected() {
        let mut m = RandomWaypoint::default_config(5);
        m.v_min = 0.0;
        m.simulate(10.0, 0);
    }
}

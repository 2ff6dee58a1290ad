//! Streaming contact emission for city-scale traces.
//!
//! A million-contact vehicular/pedestrian trace is cheap to *generate* but
//! expensive to *hold*: materializing every [`ContactEvent`] costs 40 bytes
//! each before any discretization. [`ContactStream`] inverts the dataflow —
//! a generator emits events through a visitor and consumers fold them
//! (counting, discretizing into a [`TimeEvolvingGraph`], accumulating
//! per-node statistics) without the intermediate vector. Collecting into a
//! [`ContactTrace`] stays available as a provided method, and because
//! `ContactTrace::new` sorts canonically, the collected trace is
//! byte-identical to the one the eager `simulate` entry points build — a
//! property the mobility proptest suite and the `--scenario` perf gates
//! both assert.
//!
//! Implementors here wrap the two generators ([`RwpStream`],
//! [`SocialStream`]); [`crate::scenario::CityScenario`] composes them into
//! a heterogeneous city trace.

use crate::rwp::{run_walk, RandomWaypoint, Walk, GRID_THRESHOLD};
use crate::social::{sample_exp, Population, SocialContactModel};
use crate::trace::{ContactEvent, ContactTrace};
use csn_temporal::{TimeEvolvingGraph, TimeUnit};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// A replayable, deterministic source of contact events.
///
/// `for_each_contact` may emit in any order (per-generator discovery
/// order); replaying must emit the identical sequence. Events must satisfy
/// the [`ContactTrace`] contract — inside `[0, duration]`, `u != v`, no
/// per-pair overlap — so that [`ContactStream::collect_trace`] always
/// yields a well-formed trace.
pub trait ContactStream {
    /// Number of nodes (event endpoints are `< node_count()`).
    fn node_count(&self) -> usize;

    /// Trace horizon in seconds.
    fn duration(&self) -> f64;

    /// Emits every contact event to `emit`.
    fn for_each_contact(&self, emit: &mut dyn FnMut(ContactEvent));

    /// Number of contacts the stream emits, without storing them.
    fn count_contacts(&self) -> usize {
        let mut count = 0usize;
        self.for_each_contact(&mut |_| count += 1);
        count
    }

    /// Materializes the full trace (canonically sorted by
    /// [`ContactTrace::new`]). Prefer the streaming consumers at city
    /// scale.
    fn collect_trace(&self) -> ContactTrace {
        let mut events = Vec::new();
        self.for_each_contact(&mut |e| events.push(e));
        ContactTrace::new(self.node_count(), self.duration(), events)
    }

    /// Discretizes straight into a time-evolving graph with step `dt`,
    /// without materializing the event vector: edge `(u, v)` gets label
    /// `i` iff a contact overlaps `[i·dt, (i+1)·dt)` and `i` is below the
    /// horizon. The horizon is `ceil(duration / dt)` units, and at least
    /// 1, so a zero-duration stream still has unit 0: an event there
    /// labels it. Each edge is oriented as its first emitted contact names
    /// it. A [`ContactTrace`] discretizes through this method too.
    ///
    /// # Panics
    ///
    /// Panics if `dt <= 0`.
    fn to_time_evolving_graph(&self, dt: f64) -> TimeEvolvingGraph {
        assert!(dt > 0.0, "dt must be positive");
        let horizon = ((self.duration() / dt).ceil() as TimeUnit).max(1);
        let mut eg = TimeEvolvingGraph::new(self.node_count(), horizon);
        self.for_each_contact(&mut |e| {
            let first = (e.start / dt).floor() as TimeUnit;
            let last_excl = ((e.end / dt).ceil() as TimeUnit).min(horizon);
            for t in first..last_excl {
                eg.add_contact(e.u, e.v, t);
            }
        });
        eg
    }
}

/// [`ContactStream`] over a random-waypoint walk (bounded or unbounded).
///
/// `RwpStream::bounded(m, d, s).collect_trace()` is `m.simulate(d, s)`:
/// the eager entry points collect these streams.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RwpStream {
    model: RandomWaypoint,
    walk: Walk,
    duration: f64,
    seed: u64,
}

impl RwpStream {
    /// Walk with waypoints uniform in the unit square.
    ///
    /// # Panics
    ///
    /// Panics on non-positive model parameters or `v_min > v_max`.
    pub fn bounded(model: RandomWaypoint, duration: f64, seed: u64) -> Self {
        model.validate();
        RwpStream { model, walk: Walk::Bounded, duration, seed }
    }

    /// Boundary-free walk (uniform-direction trips of
    /// `trip_min..=trip_max`).
    ///
    /// # Panics
    ///
    /// Panics on bad model parameters or `trip_min > trip_max`.
    pub fn unbounded(
        model: RandomWaypoint,
        duration: f64,
        trip_min: f64,
        trip_max: f64,
        seed: u64,
    ) -> Self {
        model.validate();
        assert!(0.0 < trip_min && trip_min <= trip_max, "bad trip range");
        RwpStream { model, walk: Walk::Unbounded { trip_min, trip_max }, duration, seed }
    }
}

impl ContactStream for RwpStream {
    fn node_count(&self) -> usize {
        self.model.n
    }

    fn duration(&self) -> f64 {
        self.duration
    }

    fn for_each_contact(&self, emit: &mut dyn FnMut(ContactEvent)) {
        let grid = self.model.n >= GRID_THRESHOLD;
        run_walk(&self.model, self.walk, self.duration, self.seed, grid, emit);
    }
}

/// [`ContactStream`] over the social-feature Poisson contact process, with
/// optional per-node *activity weights* (attribute-driven rates in the
/// spirit of Orman et al., arXiv:1406.6597: node attributes modulate edge
/// dynamics, not just the feature distance).
///
/// Pair rate: `rate(u, v) = base_rate · exp(−beta · distance(u, v)) · w_u
/// · w_v`, with `w ≡ 1` when no weights are set — in which case
/// `collect_trace()` is byte-identical to [`SocialContactModel::simulate`]
/// (which delegates here).
#[derive(Debug, Clone, PartialEq)]
pub struct SocialStream<'a> {
    model: SocialContactModel,
    population: &'a Population,
    weights: Option<Vec<f64>>,
    duration: f64,
    seed: u64,
}

impl<'a> SocialStream<'a> {
    /// Unweighted stream (all activity weights 1).
    pub fn new(
        model: SocialContactModel,
        population: &'a Population,
        duration: f64,
        seed: u64,
    ) -> Self {
        SocialStream { model, population, weights: None, duration, seed }
    }

    /// Sets per-node activity weights (`rate(u, v)` scales by `w_u · w_v`).
    ///
    /// # Panics
    ///
    /// Panics if `weights.len() != population.len()` or any weight is
    /// negative or non-finite.
    pub fn with_weights(mut self, weights: Vec<f64>) -> Self {
        assert_eq!(weights.len(), self.population.len(), "one weight per person");
        assert!(weights.iter().all(|w| w.is_finite() && *w >= 0.0), "weights must be >= 0");
        self.weights = Some(weights);
        self
    }

    fn pair_rate(&self, u: usize, v: usize) -> f64 {
        let rate = self.model.rate(self.population.distance(u, v));
        match &self.weights {
            Some(w) => rate * w[u] * w[v],
            None => rate,
        }
    }
}

impl ContactStream for SocialStream<'_> {
    fn node_count(&self) -> usize {
        self.population.len()
    }

    fn duration(&self) -> f64 {
        self.duration
    }

    fn for_each_contact(&self, emit: &mut dyn FnMut(ContactEvent)) {
        let n = self.population.len();
        let mut rng = StdRng::seed_from_u64(self.seed);
        for u in 0..n {
            for v in (u + 1)..n {
                let rate = self.pair_rate(u, v);
                // Zero-rate pairs draw nothing, so adding people with
                // weight 0 does not perturb the other pairs' streams.
                if rate <= 0.0 {
                    continue;
                }
                let mut t = sample_exp(&mut rng, rate);
                while t < self.duration {
                    let d = sample_exp(&mut rng, 1.0 / self.model.mean_duration);
                    let end = (t + d).min(self.duration);
                    if end > t {
                        emit(ContactEvent { u, v, start: t, end });
                    }
                    // Next contact begins after this one ends.
                    t = end + sample_exp(&mut rng, rate);
                }
            }
        }
    }
}

/// Poisson contact process on an explicit pair list — the glue layer
/// [`crate::scenario::CityScenario`] uses to couple pedestrians to the
/// vehicles they board. One shared RNG, pairs processed in list order;
/// every pair must be distinct or per-pair contacts would overlap.
#[derive(Debug, Clone, PartialEq)]
pub struct PairPoissonStream {
    n: usize,
    /// `(u, v, rate)` triples; all `(min, max)` keys distinct.
    pairs: Vec<(usize, usize, f64)>,
    mean_duration: f64,
    duration: f64,
    seed: u64,
}

impl PairPoissonStream {
    /// Builds the stream.
    ///
    /// # Panics
    ///
    /// Panics on out-of-range endpoints, `u == v`, a repeated pair, or a
    /// non-finite/negative rate.
    pub fn new(
        n: usize,
        pairs: Vec<(usize, usize, f64)>,
        mean_duration: f64,
        duration: f64,
        seed: u64,
    ) -> Self {
        assert!(mean_duration > 0.0, "mean duration must be positive");
        let mut seen = std::collections::HashSet::new();
        for &(u, v, rate) in &pairs {
            assert!(u < n && v < n && u != v, "bad pair ({u}, {v})");
            assert!(rate.is_finite() && rate >= 0.0, "bad rate {rate}");
            assert!(seen.insert((u.min(v), u.max(v))), "repeated pair ({u}, {v})");
        }
        PairPoissonStream { n, pairs, mean_duration, duration, seed }
    }
}

impl ContactStream for PairPoissonStream {
    fn node_count(&self) -> usize {
        self.n
    }

    fn duration(&self) -> f64 {
        self.duration
    }

    fn for_each_contact(&self, emit: &mut dyn FnMut(ContactEvent)) {
        let mut rng = StdRng::seed_from_u64(self.seed);
        for &(u, v, rate) in &self.pairs {
            if rate <= 0.0 {
                continue;
            }
            let mut t = sample_exp(&mut rng, rate);
            while t < self.duration {
                let d = sample_exp(&mut rng, 1.0 / self.mean_duration);
                let end = (t + d).min(self.duration);
                if end > t {
                    emit(ContactEvent { u, v, start: t, end });
                }
                t = end + sample_exp(&mut rng, rate);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rwp_stream_matches_eager_simulate() {
        let m = RandomWaypoint::default_config(20);
        let eager = m.simulate(150.0, 11);
        let streamed = RwpStream::bounded(m, 150.0, 11).collect_trace();
        assert_eq!(eager, streamed);
        let eager_u = m.simulate_unbounded(150.0, 0.1, 0.4, 11);
        let streamed_u = RwpStream::unbounded(m, 150.0, 0.1, 0.4, 11).collect_trace();
        assert_eq!(eager_u, streamed_u);
    }

    #[test]
    fn social_stream_matches_eager_simulate() {
        let pop = Population::random(12, &Population::fig6_radix(), 3);
        let m = SocialContactModel::default_config();
        let eager = m.simulate(&pop, 5_000.0, 9);
        let streamed = SocialStream::new(m, &pop, 5_000.0, 9).collect_trace();
        assert_eq!(eager, streamed);
    }

    #[test]
    fn streaming_discretization_matches_trace_discretization() {
        let m = RandomWaypoint::default_config(15);
        let stream = RwpStream::bounded(m, 120.0, 4);
        let direct = stream.to_time_evolving_graph(1.0);
        let via_trace = stream.collect_trace().to_time_evolving_graph(1.0);
        assert_eq!(direct.contacts(), via_trace.contacts());
        assert_eq!(direct.horizon(), via_trace.horizon());
    }

    #[test]
    fn count_contacts_matches_collected() {
        let m = RandomWaypoint::default_config(15);
        let stream = RwpStream::bounded(m, 120.0, 4);
        assert_eq!(stream.count_contacts(), stream.collect_trace().events().len());
    }

    #[test]
    fn weights_modulate_contact_rates() {
        use crate::social::FeatureProfile;
        // Three identical-profile people: pair rates differ only by the
        // activity weights.
        let profiles = (0..3).map(|_| FeatureProfile { values: vec![0] }).collect();
        let pop = Population::from_profiles(&[2], profiles);
        let m = SocialContactModel::default_config();
        let weighted = SocialStream::new(m, &pop, 400_000.0, 7)
            .with_weights(vec![2.0, 2.0, 0.25])
            .collect_trace();
        let counts = weighted.contact_counts();
        let hot = counts.get(&(0, 1)).copied().unwrap_or(0);
        let cold = counts.get(&(0, 2)).copied().unwrap_or(0);
        // Rate ratio 4·base : 0.5·base = 8; allow wide slack.
        assert!(hot > 3 * cold, "weights must separate rates: {hot} vs {cold}");
        assert!(weighted.is_well_formed());
    }

    #[test]
    fn zero_weight_nodes_do_not_perturb_others() {
        use crate::social::FeatureProfile;
        let profiles: Vec<_> = (0..4).map(|_| FeatureProfile { values: vec![0] }).collect();
        let pop3 = Population::from_profiles(&[2], profiles[..3].to_vec());
        let pop4 = Population::from_profiles(&[2], profiles);
        let m = SocialContactModel::default_config();
        let base = SocialStream::new(m, &pop3, 50_000.0, 5)
            .with_weights(vec![1.0, 1.0, 1.0])
            .collect_trace();
        let padded = SocialStream::new(m, &pop4, 50_000.0, 5)
            .with_weights(vec![1.0, 1.0, 1.0, 0.0])
            .collect_trace();
        assert_eq!(base.events(), padded.events(), "weight-0 node must be invisible");
    }

    #[test]
    fn pair_poisson_stream_is_well_formed_and_seeded() {
        let pairs = vec![(0, 3, 0.01), (1, 2, 0.02), (0, 2, 0.0)];
        let s = PairPoissonStream::new(4, pairs.clone(), 20.0, 10_000.0, 3);
        let t = s.collect_trace();
        assert!(t.is_well_formed());
        assert!(!t.events().is_empty());
        assert!(t.pair_events(0, 2).is_empty(), "zero-rate pair stays silent");
        assert_eq!(t, PairPoissonStream::new(4, pairs, 20.0, 10_000.0, 3).collect_trace());
    }

    #[test]
    #[should_panic(expected = "repeated pair")]
    fn pair_poisson_rejects_duplicates() {
        PairPoissonStream::new(3, vec![(0, 1, 0.1), (1, 0, 0.1)], 10.0, 100.0, 0);
    }
}

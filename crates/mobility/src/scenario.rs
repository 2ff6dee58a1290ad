//! The city-scale scenario: a heterogeneous vehicular/pedestrian trace.
//!
//! Composes the crate's generators into one [`ContactStream`] over a
//! shared node-id space (SCENARIOS.md documents the memory model and the
//! sizing methodology):
//!
//! * **vehicles** `[0, vehicles)` — grid-accelerated random-waypoint
//!   motion in the unit square (radio contacts);
//! * **pedestrians** `[vehicles, vehicles + pedestrians)` — the
//!   social-feature Poisson process, optionally with per-node activity
//!   weights (attribute-driven rates per Orman et al., arXiv:1406.6597);
//! * **boardings** — each pedestrian rides a few fixed vehicles, modeled
//!   as a Poisson pair process between the two populations.
//!
//! The three layers touch *disjoint pair sets* (vehicle–vehicle,
//! pedestrian–pedestrian, pedestrian–vehicle), so the composed trace
//! inherits per-pair non-overlap from each layer and is well-formed by
//! construction — asserted for every generated trace by the mobility
//! proptest suite.

use crate::rwp::RandomWaypoint;
use crate::social::{Population, SocialContactModel};
use crate::stream::{ContactStream, PairPoissonStream, RwpStream, SocialStream};
use crate::trace::ContactEvent;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Seed offsets deriving per-layer RNG streams from the scenario seed.
const SOCIAL_SEED_OFFSET: u64 = 0x9e37_79b9_7f4a_7c15;
const BRIDGE_SEED_OFFSET: u64 = 0x2545_f491_4f6c_dd1d;

/// Configuration and [`ContactStream`] of the composed city trace.
#[derive(Debug, Clone, PartialEq)]
pub struct CityScenario {
    /// Vehicle mobility (its `n` is the vehicle count).
    pub rwp: RandomWaypoint,
    /// Pedestrian social profiles.
    pub population: Population,
    /// Pedestrian contact process.
    pub social: SocialContactModel,
    /// Optional per-pedestrian activity weights (see
    /// [`SocialStream::with_weights`]).
    pub weights: Option<Vec<f64>>,
    /// Vehicles each pedestrian boards.
    pub boardings_per_pedestrian: usize,
    /// Poisson rate of one pedestrian–vehicle boarding pair.
    pub boarding_rate: f64,
    /// Mean boarding duration (seconds, exponential).
    pub boarding_mean_duration: f64,
    /// Trace horizon (seconds).
    pub duration: f64,
    /// Master seed; per-layer seeds are derived from it.
    pub seed: u64,
}

impl CityScenario {
    /// A city with `vehicles` RWP nodes and `pedestrians` social nodes
    /// over `duration` seconds. Defaults: default RWP config, Fig. 6
    /// social radix and INFOCOM-like rates, 2 boardings per pedestrian at
    /// one boarding per ~10 min lasting ~3 min.
    ///
    /// # Panics
    ///
    /// Panics if `vehicles == 0` (the RWP layer needs nodes).
    pub fn new(vehicles: usize, pedestrians: usize, duration: f64, seed: u64) -> Self {
        CityScenario {
            rwp: RandomWaypoint::default_config(vehicles),
            population: Population::random(
                pedestrians,
                &Population::fig6_radix(),
                seed ^ SOCIAL_SEED_OFFSET,
            ),
            social: SocialContactModel::default_config(),
            weights: None,
            boardings_per_pedestrian: 2,
            boarding_rate: 1.0 / 600.0,
            boarding_mean_duration: 180.0,
            duration,
            seed,
        }
    }

    /// Number of vehicles (also the id offset of the first pedestrian).
    pub fn vehicle_count(&self) -> usize {
        self.rwp.n
    }

    /// Number of pedestrians.
    pub fn pedestrian_count(&self) -> usize {
        self.population.len()
    }

    /// The boarding pair list: for each pedestrian, its
    /// `boardings_per_pedestrian` distinct vehicles, drawn from the
    /// derived bridge seed. Deterministic per scenario.
    fn boarding_pairs(&self) -> Vec<(usize, usize, f64)> {
        let nv = self.vehicle_count();
        let np = self.pedestrian_count();
        let k = self.boardings_per_pedestrian.min(nv);
        let mut rng = StdRng::seed_from_u64(self.seed ^ BRIDGE_SEED_OFFSET);
        let mut pairs = Vec::with_capacity(np * k);
        let mut chosen: Vec<usize> = Vec::with_capacity(k);
        for p in 0..np {
            chosen.clear();
            while chosen.len() < k {
                let v = rng.gen_range(0..nv);
                // Distinct vehicles per pedestrian, else the pair process
                // would run twice for one pair and overlap itself.
                if !chosen.contains(&v) {
                    chosen.push(v);
                }
            }
            for &v in &chosen {
                pairs.push((nv + p, v, self.boarding_rate));
            }
        }
        pairs
    }
}

impl ContactStream for CityScenario {
    fn node_count(&self) -> usize {
        self.vehicle_count() + self.pedestrian_count()
    }

    fn duration(&self) -> f64 {
        self.duration
    }

    fn for_each_contact(&self, emit: &mut dyn FnMut(ContactEvent)) {
        // Vehicle layer: ids already 0-based.
        RwpStream::bounded(self.rwp, self.duration, self.seed).for_each_contact(emit);
        // Pedestrian layer: offset ids past the vehicles.
        if self.pedestrian_count() > 0 {
            let nv = self.vehicle_count();
            let mut social = SocialStream::new(
                self.social,
                &self.population,
                self.duration,
                self.seed ^ SOCIAL_SEED_OFFSET,
            );
            if let Some(w) = &self.weights {
                social = social.with_weights(w.clone());
            }
            social.for_each_contact(&mut |e| {
                emit(ContactEvent { u: e.u + nv, v: e.v + nv, start: e.start, end: e.end })
            });
            // Boarding layer: pedestrian-to-vehicle pairs.
            if self.boardings_per_pedestrian > 0 && self.boarding_rate > 0.0 {
                PairPoissonStream::new(
                    self.node_count(),
                    self.boarding_pairs(),
                    self.boarding_mean_duration,
                    self.duration,
                    self.seed ^ BRIDGE_SEED_OFFSET,
                )
                .for_each_contact(emit);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rwp::{run_walk, Walk};

    #[test]
    fn city_trace_is_well_formed_and_seeded() {
        let city = CityScenario::new(30, 20, 400.0, 7);
        let t = city.collect_trace();
        assert!(t.is_well_formed());
        assert_eq!(t.node_count(), 50);
        assert_eq!(t, CityScenario::new(30, 20, 400.0, 7).collect_trace());
        assert_ne!(t, CityScenario::new(30, 20, 400.0, 8).collect_trace());
    }

    #[test]
    fn all_three_layers_contribute() {
        let city = CityScenario::new(40, 30, 2_000.0, 3);
        let nv = city.vehicle_count();
        let (mut vv, mut pp, mut pv) = (0usize, 0usize, 0usize);
        city.for_each_contact(&mut |e| match (e.u < nv, e.v < nv) {
            (true, true) => vv += 1,
            (false, false) => pp += 1,
            _ => pv += 1,
        });
        assert!(vv > 0, "no vehicle-vehicle contacts");
        assert!(pp > 0, "no pedestrian-pedestrian contacts");
        assert!(pv > 0, "no boarding contacts");
    }

    #[test]
    fn detection_backend_is_invisible() {
        // 25 vehicles run the all-pairs scan; the grid must emit the same
        // vehicle-layer events, which the city emits first.
        let city = CityScenario::new(25, 10, 300.0, 5);
        let nv = city.vehicle_count();
        let mut vehicles = Vec::new();
        city.for_each_contact(&mut |e| vehicles.extend((e.u < nv && e.v < nv).then_some(e)));
        let mut grid = Vec::new();
        run_walk(&city.rwp, Walk::Bounded, city.duration, city.seed, true, &mut |e| grid.push(e));
        assert!(!grid.is_empty(), "25 vehicles over 300 s must meet");
        assert_eq!(vehicles, grid);
    }

    #[test]
    fn boarding_pairs_are_distinct_and_in_range() {
        let city = CityScenario::new(5, 50, 100.0, 1);
        let pairs = city.boarding_pairs();
        assert_eq!(pairs.len(), 50 * 2);
        let mut seen = std::collections::HashSet::new();
        for &(p, v, _) in &pairs {
            assert!((5..55).contains(&p) && v < 5);
            assert!(seen.insert((p, v)), "repeated boarding pair");
        }
    }

    #[test]
    fn weighted_city_is_well_formed() {
        let mut city = CityScenario::new(20, 15, 500.0, 9);
        city.weights = Some((0..15).map(|i| 0.5 + (i % 3) as f64).collect());
        assert!(city.collect_trace().is_well_formed());
    }
}

//! Property tests for the mobility generators (ISSUE 10, satellite 5).
//!
//! Every generated trace — bounded RWP, unbounded RWP, social Poisson, and
//! the composed city scenario — must be *well-formed* (events inside
//! `[0, duration]`, no per-pair overlap, canonical `(start, u, v)` order)
//! and *byte-identical across re-runs of the same seed*. The grid-indexed
//! contact detector is gated against the all-pairs scan by the crate's
//! unit tests (`rwp::tests`), which can force either back end.

use csn_mobility::rwp::RandomWaypoint;
use csn_mobility::scenario::CityScenario;
use csn_mobility::social::{Population, SocialContactModel};
use csn_mobility::stream::{ContactStream, RwpStream};
use proptest::prelude::*;

fn rwp_model(n: usize, range: f64) -> RandomWaypoint {
    let mut m = RandomWaypoint::default_config(n);
    m.range = range;
    m
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn bounded_rwp_traces_are_well_formed_and_deterministic(
        n in 2usize..40,
        range in 0.02f64..0.3,
        // Mostly-fractional horizons exercise the duration clamp.
        duration in 20.0f64..120.0,
        seed in 0u64..1_000,
    ) {
        let m = rwp_model(n, range);
        let t = m.simulate(duration, seed);
        prop_assert!(t.is_well_formed(), "ill-formed bounded trace");
        prop_assert_eq!(&t, &m.simulate(duration, seed));
        for e in t.events() {
            prop_assert!(e.start >= 0.0 && e.end <= duration);
        }
    }

    #[test]
    fn unbounded_rwp_traces_are_well_formed_and_deterministic(
        n in 2usize..30,
        duration in 20.0f64..100.0,
        trip in 0.05f64..0.5,
        seed in 0u64..1_000,
    ) {
        let m = rwp_model(n, 0.1);
        let t = m.simulate_unbounded(duration, trip, trip * 2.0, seed);
        prop_assert!(t.is_well_formed(), "ill-formed unbounded trace");
        prop_assert_eq!(&t, &m.simulate_unbounded(duration, trip, trip * 2.0, seed));
    }

    #[test]
    fn social_traces_are_well_formed_and_deterministic(
        n in 2usize..25,
        duration in 1_000.0f64..20_000.0,
        seed in 0u64..1_000,
    ) {
        let pop = Population::random(n, &Population::fig6_radix(), seed ^ 0xabcd);
        let m = SocialContactModel::default_config();
        let t = m.simulate(&pop, duration, seed);
        prop_assert!(t.is_well_formed(), "ill-formed social trace");
        prop_assert_eq!(&t, &m.simulate(&pop, duration, seed));
    }

    #[test]
    fn city_traces_are_well_formed_and_deterministic(
        vehicles in 2usize..30,
        pedestrians in 0usize..20,
        duration in 50.0f64..400.0,
        seed in 0u64..1_000,
    ) {
        let city = CityScenario::new(vehicles, pedestrians, duration, seed);
        let t = city.collect_trace();
        prop_assert!(t.is_well_formed(), "ill-formed city trace");
        prop_assert_eq!(&t, &city.collect_trace(), "stream must replay identically");
        prop_assert_eq!(t.events().len(), city.count_contacts());
    }

    #[test]
    fn streaming_collection_matches_eager_paths(
        n in 2usize..25,
        duration in 20.0f64..100.0,
        seed in 0u64..1_000,
    ) {
        let m = rwp_model(n, 0.12);
        let stream = RwpStream::bounded(m, duration, seed);
        prop_assert_eq!(stream.collect_trace(), m.simulate(duration, seed));
        let eg = stream.to_time_evolving_graph(1.0);
        let eg_via_trace = m.simulate(duration, seed).to_time_evolving_graph(1.0);
        prop_assert_eq!(eg.contacts(), eg_via_trace.contacts());
        // The composed city stream discretizes like its materialized trace.
        let city = CityScenario::new(n, n / 2, duration, seed);
        let eg = city.to_time_evolving_graph(3.0);
        let eg_via_trace = city.collect_trace().to_time_evolving_graph(3.0);
        prop_assert_eq!(eg.contacts(), eg_via_trace.contacts());
        prop_assert_eq!(eg.horizon(), eg_via_trace.horizon());
    }
}

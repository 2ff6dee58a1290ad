//! Correctness at the fixed sizes `perf_smoke` measures, beyond what the
//! crates' small-n property suites reach: the faulted Bellman–Ford run and
//! the counted-touch maintain sweep of `BENCH_kernels.json`, every distsim
//! protocol bitwise across worker counts on a 2,000-node BA graph, and the
//! scenario suite on city traces, a 2,000-node pub-sub overlay and a
//! radix-[3, 3, 3] hypercube. `scripts/check.sh` runs this file again in a
//! release build.

/// Worker counts every parallel run is compared at.
const JOBS: [usize; 4] = [1, 2, 4, 7];

mod kernels {
    use csn_bench::kernels_bench::{maintain_rows, synthetic_trim};
    use csn_core::distsim::{ChurnSchedule, FaultModel};
    use csn_core::graph::generators;
    use csn_core::labeling::bellman_ford::run_resilient;
    use csn_core::temporal::markovian::EdgeMarkovian;

    /// Distributed Bellman–Ford on ER(200, 0.05, seed 11) under the full
    /// fault model (loss, delay, duplication, reorder, churn sparing the
    /// destination), seed 13: two runs agree on outcome and `RunStats`.
    #[test]
    fn faulted_run_deterministic() {
        let (n, seed) = (200, 13);
        let g = generators::erdos_renyi(n, 0.05, 11).unwrap();
        let run = || {
            let faults = FaultModel::lossy(0.3, seed)
                .with_delay(0.2)
                .with_duplication(0.1)
                .with_reorder()
                .with_churn(ChurnSchedule::random(n, 60, 0.01, 5, seed).protect(0));
            run_resilient(&g, 0, 64, 500, 3, faults, 1)
        };
        assert_eq!(run(), run());
    }

    /// On the sparse, fragmented trace of the maintain rows, the forwarding
    /// maintainer touches strictly fewer nodes than per-step rebuilds, and
    /// the cores and NSF maintainers (one recompute per changing step) no
    /// more.
    #[test]
    fn maintain_fewer_touches() {
        let eg = EdgeMarkovian::new(120, 0.25, 0.001).generate(400, 7);
        for row in maintain_rows(&eg, &synthetic_trim(120)) {
            let touched = row.counter_value("incremental_node_touches").unwrap();
            let floor = row.counter_value("rebuild_node_touches").unwrap();
            let structure = row.param_text("structure").unwrap();
            if structure == "forwarding" {
                assert!(touched < floor, "{structure}: {touched} touches, floor {floor}");
            } else {
                assert!(touched <= floor, "{structure}: {touched} touches, floor {floor}");
            }
        }
    }
}

mod distsim {
    use super::JOBS;
    use csn_bench::distsim_bench::{mis_priorities, BenchFlood};
    use csn_core::distsim::{ChurnSchedule, FaultModel, Protocol, RunStats, Simulator};
    use csn_core::graph::stream::{BaStream, EdgeStream};
    use csn_core::graph::Graph;
    use csn_core::labeling::bellman_ford::BellmanFord;
    use csn_core::labeling::protocols::{MarkingProtocol, MisProtocol};

    /// A finished run: its stats, final states and messages still in flight.
    type Run<S> = (RunStats, Vec<S>, usize);

    /// BA(2,000, 3, seed 7), thawed from the compact-CSR streaming build.
    fn graph() -> Graph {
        BaStream::new(2_000, 3, 7).unwrap().to_compact_csr().unwrap().thaw()
    }

    /// `protocol` fault-free on `g` until quiet or `max_rounds`.
    fn run<P: Protocol>(g: &Graph, protocol: &P, max_rounds: usize, jobs: usize) -> Run<P::State>
    where
        P::State: Clone,
    {
        let mut sim = Simulator::new(g, protocol).with_jobs(jobs);
        let stats = sim.run_until_quiet(max_rounds);
        (stats, sim.states().to_vec(), sim.in_flight())
    }

    /// The bench flood on `g` under the full fault model (30% loss, delay,
    /// duplication, reorder, churn sparing node 0), seed 29.
    fn faulted(g: &Graph, jobs: usize) -> Run<(bool, bool)> {
        let seed = 29;
        let faults = FaultModel::lossy(0.3, seed)
            .with_delay(0.2)
            .with_duplication(0.1)
            .with_reorder()
            .with_churn(ChurnSchedule::random(g.node_count(), 60, 0.01, 5, seed).protect(0));
        let mut sim = Simulator::with_faults(g, &BenchFlood, faults).with_jobs(jobs);
        let stats = sim.run_until_stable(400, 4);
        (stats, sim.states().to_vec(), sim.in_flight())
    }

    fn assert_parallel_matches_serial<P: Protocol>(name: &str, protocol: &P, max_rounds: usize)
    where
        P::State: Clone + PartialEq,
    {
        let g = graph();
        let serial = run(&g, protocol, max_rounds, 1);
        for jobs in JOBS {
            let par = run(&g, protocol, max_rounds, jobs);
            assert!(par == serial, "{name} at jobs={jobs}: {:?} vs serial {:?}", par.0, serial.0);
        }
    }

    /// `sent + duplicated == messages + dropped + shed + in_flight`.
    fn assert_conserved<S>(name: &str, (stats, _, in_flight): Run<S>) {
        assert_eq!(
            stats.sent + stats.duplicated,
            stats.messages + stats.dropped + stats.shed + in_flight,
            "{name}: {stats:?}"
        );
    }

    /// Flood, Bellman–Ford, MIS and CDS marking: states and `RunStats` at
    /// every worker count equal the serial run bit for bit.
    #[test]
    fn parallel_matches_serial() {
        assert_parallel_matches_serial("flood", &BenchFlood, 200);
        assert_parallel_matches_serial("bellman_ford", &BellmanFord { dest: 0, horizon: 64 }, 2000);
        let mis = MisProtocol { priority: mis_priorities(2_000) };
        assert_parallel_matches_serial("mis", &mis, 10_000);
        assert_parallel_matches_serial("cds_marking", &MarkingProtocol, 10);
    }

    #[test]
    fn faulted_parallel_matches_serial() {
        let g = graph();
        let serial = faulted(&g, 1);
        for jobs in JOBS {
            let par = faulted(&g, jobs);
            assert!(par == serial, "jobs={jobs}: {:?} vs serial {:?}", par.0, serial.0);
        }
    }

    #[test]
    fn faulted_run_deterministic() {
        let g = graph();
        let (a, b) = (faulted(&g, 1), faulted(&g, 1));
        assert!(a == b, "{:?} vs {:?}", a.0, b.0);
    }

    /// The conservation law holds at exit of every fault-free protocol run
    /// and of the faulted flood.
    #[test]
    fn conservation_holds() {
        let g = graph();
        assert_conserved("flood", run(&g, &BenchFlood, 200, 1));
        assert_conserved("bellman_ford", run(&g, &BellmanFord { dest: 0, horizon: 64 }, 2000, 1));
        let mis = MisProtocol { priority: mis_priorities(2_000) };
        assert_conserved("mis", run(&g, &mis, 10_000, 1));
        assert_conserved("cds_marking", run(&g, &MarkingProtocol, 10, 1));
        assert_conserved("faulted flood", faulted(&g, 1));
    }
}

mod scenario {
    use super::JOBS;
    use csn_bench::scenario_bench::{
        city, dtn_queries, generalized_hypercube, hypercube_profile, tour_policy, PubSub, CITY_DT,
        CITY_DURATION, TOUR_UTILITY,
    };
    use csn_core::distsim::{ChurnSchedule, FaultModel, Simulator};
    use csn_core::graph::cores::{core_numbers, IncrementalCores};
    use csn_core::graph::stream::{EdgeStream, GnutellaStream};
    use csn_core::labeling::bellman_ford::{run, run_resilient};
    use csn_core::mobility::scenario::CityScenario;
    use csn_core::mobility::stream::ContactStream;
    use csn_core::remapping::fspace::{feature_distance, node_disjoint_paths};
    use csn_core::temporal::journey::earliest_arrival;
    use csn_core::temporal::routing::{direct_delivery, epidemic, spray_and_wait};
    use csn_core::temporal::TrackedCursor;

    /// Nodes of the city trace `scripts/check.sh`'s scenario smoke runs.
    const CITY_NODES: usize = 220;

    /// The city trace reaches the contact floor ⌊10⁶·(n/3000)²⌋ that puts
    /// the default 3,000-node trace past a million contacts.
    #[test]
    fn contact_floor_met() {
        let floor = (1_000_000.0 * (CITY_NODES as f64 / 3_000.0).powi(2)) as usize;
        assert_eq!(floor, 5_377);
        let contacts = city(CITY_NODES).count_contacts();
        assert!(contacts >= floor, "{contacts} contacts, floor {floor}");
    }

    /// Per query on the frozen city trace, epidemic delivers wherever
    /// spray-and-wait(8) does and never later, and spray likewise against
    /// direct delivery.
    #[test]
    fn dtn_ladder_ordered() {
        let city = ContactStream::to_time_evolving_graph(&city(CITY_NODES), CITY_DT).freeze();
        for (s, d) in dtn_queries(city.node_count()) {
            let direct = direct_delivery(&city, s, d, 0).delivered_at;
            let spray = spray_and_wait(&city, s, d, 0, 8).delivered_at;
            let epi = epidemic(&city, s, d, 0).delivered_at;
            let ordered = match (epi, spray, direct) {
                (None, Some(_), _) | (_, None, Some(_)) => false,
                (Some(te), Some(ts), td) => te <= ts && td.is_none_or(|td| ts <= td),
                _ => true,
            };
            assert!(ordered, "({s}, {d}): epidemic {epi:?}, spray {spray:?}, direct {direct:?}");
        }
    }

    /// TOUR forwarding solved from the city trace's estimated contact rates
    /// keeps each relay's forwarding window one contiguous interval and
    /// forwards to nobody at the utility deadline.
    #[test]
    fn forwarding_windows_contiguous() {
        let (relays, policy) = tour_policy(&city(CITY_NODES));
        assert!(!relays.is_empty());
        assert!(policy.relay_windows_are_contiguous());
        assert!(policy.set_at(TOUR_UTILITY.deadline()).is_empty());
    }

    /// On a small city (60 vehicles, 40 pedestrians, seed 11): epidemic on
    /// the frozen form delivers at the earliest arrival on 40 strided
    /// queries, and a `SnapshotCursor` and an `IncrementalCores` on a
    /// `TrackedCursor` equal per-step rebuilds.
    #[test]
    fn epidemic_and_cursors_match() {
        let small = CityScenario::new(60, 40, CITY_DURATION, 11);
        let eg = small.collect_trace().to_time_evolving_graph(CITY_DT);
        let frozen = eg.freeze();
        let n = eg.node_count();
        for q in 0..40 {
            let (s, d) = ((q * 7) % n, (q * 13 + n / 2) % n);
            if s == d {
                continue;
            }
            let arrival = earliest_arrival(&eg, s, 0)[d];
            assert_eq!(epidemic(&frozen, s, d, 0).delivered_at, arrival, "({s}, {d})");
        }
        let mut cur = eg.snapshot_cursor();
        let mut tracked = TrackedCursor::new(&eg);
        let h = tracked.register(Box::new(IncrementalCores::default()));
        for t in 0..eg.horizon() {
            assert!(*cur.graph() == eg.snapshot(t), "cursor differs from snapshot({t})");
            assert_eq!(
                tracked.view::<IncrementalCores>(h).unwrap().core_numbers(),
                core_numbers(tracked.graph()).as_slice(),
                "cores at t={t}"
            );
            cur.advance();
            tracked.advance();
        }
    }

    /// Pub-sub under churn on a 2,000-node Gnutella-like overlay (seed 21;
    /// 5% loss, delay, churn sparing the publishers, seed 17): a repeat and
    /// every worker count reproduce the serial run bit for bit, and the
    /// conservation law holds at exit.
    #[test]
    fn pubsub_parallel_matches_serial() {
        let overlay =
            GnutellaStream::new(2_000, 3, 64, 0.05, 21).unwrap().to_compact_csr().unwrap().thaw();
        let protocol = PubSub { topics: 8 };
        let faults = FaultModel::lossy(0.05, 17).with_delay(0.1).with_churn(
            protocol.protect_publishers(ChurnSchedule::random(2_000, 80, 0.005, 4, 17)),
        );
        let run = |jobs| {
            let mut sim =
                Simulator::with_faults(&overlay, &protocol, faults.clone()).with_jobs(jobs);
            let stats = sim.run_until_stable(300, 4);
            (stats, sim.states().to_vec(), sim.in_flight())
        };
        let serial = run(1);
        assert!(run(1) == serial, "a repeat diverges from the first run");
        for jobs in JOBS {
            let par = run(jobs);
            assert!(par == serial, "jobs={jobs}: {:?} vs serial {:?}", par.0, serial.0);
        }
        let (stats, _, in_flight) = serial;
        assert_eq!(
            stats.sent + stats.duplicated,
            stats.messages + stats.dropped + stats.shed + in_flight,
            "{stats:?}"
        );
    }

    /// Generalized-hypercube routing on radix [3, 3, 3]: fault-free
    /// distributed Bellman–Ford distances equal the feature distance,
    /// faulted runs (20% loss, delay, churn sparing node 0, seed 31) repeat
    /// and match serial at every worker count, and with one faulty relay on
    /// each of `d − 1` of the `d` node-disjoint paths some path survives.
    #[test]
    fn hypercube_routing_sound() {
        let radix = [3usize, 3, 3];
        let cube = generalized_hypercube(&radix);
        let n = cube.node_count();
        let horizon = radix.len() + 1;
        let p0 = hypercube_profile(0, &radix);
        let bf = run(&cube, 0, horizon, 100);
        for v in 0..n {
            let want = feature_distance(&hypercube_profile(v, &radix), &p0);
            assert_eq!(bf.labels[v].dist, want, "node {v}");
        }

        let faulted = |jobs| {
            let faults = FaultModel::lossy(0.2, 31)
                .with_delay(0.15)
                .with_churn(ChurnSchedule::random(n, 40, 0.01, 3, 31).protect(0));
            run_resilient(&cube, 0, horizon, 300, 3, faults, jobs)
        };
        let serial = faulted(1);
        assert_eq!(faulted(1), serial, "a repeat diverges from the first run");
        for jobs in JOBS {
            assert_eq!(faulted(jobs), serial, "jobs={jobs}");
        }

        for v in 0..n {
            let pv = hypercube_profile(v, &radix);
            let d = feature_distance(&p0, &pv);
            if d < 2 {
                continue;
            }
            let paths = node_disjoint_paths(&p0, &pv);
            assert_eq!(paths.len(), d, "disjoint paths to {pv:?}");
            let faulty: Vec<Vec<usize>> =
                paths[..d - 1].iter().filter_map(|p| p.get(1).cloned()).collect();
            let survives = paths
                .iter()
                .any(|p| p[1..p.len().saturating_sub(1)].iter().all(|hop| !faulty.contains(hop)));
            assert!(survives, "no disjoint path to {pv:?} survives {} faults", faulty.len());
        }
    }
}

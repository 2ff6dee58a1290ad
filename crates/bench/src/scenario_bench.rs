//! The inputs `perf_smoke --scenario` (`BENCH_scenario.json`) shares with
//! the scenario tests in `tests/gates.rs`: million-contact
//! vehicular/pedestrian city traces streamed through grid-accelerated
//! contact detection, the DTN query set and TOUR forwarding from
//! trace-estimated rates, the pub-sub protocol of the Gnutella-style run
//! under churn, and the node profiles of the generalized hypercube routed
//! over under faults.
//! See SCENARIOS.md for the memory model and how to read the rows.

use csn_core::distsim::{ChurnSchedule, Neighborhood, Outbox, Protocol};
use csn_core::graph::NodeId;
use csn_core::mobility::scenario::CityScenario;
use csn_core::mobility::stream::ContactStream;
use csn_core::mobility::ContactEvent;
use csn_core::trimming::forwarding::{
    solve_forwarding_policy, ForwardingPolicy, LinearUtility, Relay,
};

/// Seconds of simulated time in every scenario city trace.
pub const CITY_DURATION: f64 = 180.0;

/// Seconds per time unit when a city trace is discretized.
pub const CITY_DT: f64 = 3.0;

/// The utility TOUR forwarding is solved against: unit value, decaying to
/// zero over 300 s.
pub const TOUR_UTILITY: LinearUtility = LinearUtility { u0: 1.0, c: 1.0 / 300.0 };

/// The city trace at `nodes` nodes: five eighths vehicles, the rest
/// pedestrians, [`CITY_DURATION`] seconds, seed 42.
pub fn city(nodes: usize) -> CityScenario {
    let vehicles = nodes * 5 / 8;
    CityScenario::new(vehicles, nodes - vehicles, CITY_DURATION, 42)
}

/// The DTN ladder's source/destination pairs on an `n`-node trace: 48
/// strided pairs, self-pairs dropped.
pub fn dtn_queries(n: usize) -> Vec<(NodeId, NodeId)> {
    (0..48).map(|q| ((q * 97) % n, (q * 193 + n / 2) % n)).filter(|&(s, d)| s != d).collect()
}

/// TOUR forwarding from contact rates estimated on `city`: node 0 sends to
/// node 1, and each of nodes `2..34` that met both becomes a [`Relay`] with
/// its per-second contact rates. Returns the relays and the policy solved
/// against [`TOUR_UTILITY`].
pub fn tour_policy(city: &CityScenario) -> (Vec<Relay>, ForwardingPolicy) {
    let (src, dst, relay_count) = (0usize, 1usize, 32usize);
    let mut from_src = vec![0usize; relay_count];
    let mut to_dst = vec![0usize; relay_count];
    let mut src_dst = 0usize;
    city.for_each_contact(&mut |e: ContactEvent| {
        let (a, b) = (e.u.min(e.v), e.u.max(e.v));
        if (a, b) == (src, dst) {
            src_dst += 1;
            return;
        }
        // Count each relay's contacts at both roles.
        for (end, other) in [(a, b), (b, a)] {
            if let Some(slot) = other.checked_sub(2).filter(|&i| i < relay_count) {
                if end == src {
                    from_src[slot] += 1;
                } else if end == dst {
                    to_dst[slot] += 1;
                }
            }
        }
    });
    let duration = ContactStream::duration(city);
    let relays: Vec<Relay> = (0..relay_count)
        .filter(|&i| from_src[i] > 0 && to_dst[i] > 0)
        .map(|i| Relay {
            rate_from_source: from_src[i] as f64 / duration,
            rate_to_dest: to_dst[i] as f64 / duration,
        })
        .collect();
    let direct = (src_dst as f64 / duration).max(1e-4);
    let policy = solve_forwarding_policy(direct, &relays, TOUR_UTILITY, 0.02, 1.0);
    (relays, policy)
}

/// Topic-flood pub-sub: nodes `0..topics` each publish one topic at round
/// zero; every node subscribes to topic `u % topics` and forwards each
/// topic bitmask bit at most once (dedup flood). State is
/// `(received_mask, forwarded_mask)` — `Copy`, so state comparisons are
/// cheap and rounds are allocation-free after warmup.
pub struct PubSub {
    /// Topic count (also the publisher count; must be ≤ 32).
    pub topics: usize,
}

impl Protocol for PubSub {
    type State = (u32, u32);
    type Msg = u32;

    fn init(&self, u: NodeId, _ctx: &Neighborhood) -> Self::State {
        assert!(self.topics >= 1 && self.topics <= 32, "topic bitmask is 32 bits");
        let received = if u < self.topics { 1u32 << u } else { 0 };
        (received, 0)
    }

    fn round(
        &self,
        _u: NodeId,
        state: &mut Self::State,
        _ctx: &Neighborhood,
        inbox: &[(NodeId, u32)],
        out: &mut Outbox<'_, u32>,
    ) {
        for &(_, mask) in inbox {
            state.0 |= mask;
        }
        let fresh = state.0 & !state.1;
        if fresh != 0 {
            state.1 |= fresh;
            out.broadcast(fresh);
        }
    }
}

impl PubSub {
    /// `schedule` with every publisher (nodes `0..topics`) kept alive, so
    /// churn never removes a topic's only source.
    pub fn protect_publishers(&self, schedule: ChurnSchedule) -> ChurnSchedule {
        (0..self.topics).fold(schedule, ChurnSchedule::protect)
    }

    /// Nodes holding their subscribed topic (`u % topics`) in `states`.
    pub fn delivered(&self, states: &[(u32, u32)]) -> usize {
        states.iter().enumerate().filter(|(u, s)| s.0 & (1u32 << (u % self.topics)) != 0).count()
    }

    /// Fraction of nodes holding their subscribed topic in `states` — the
    /// delivery ratio a churn schedule degrades.
    pub fn delivery_ratio(&self, states: &[(u32, u32)]) -> f64 {
        if states.is_empty() {
            return 0.0;
        }
        self.delivered(states) as f64 / states.len() as f64
    }
}

/// The mixed-radix profile of hypercube node `i` (least-significant
/// dimension first), inverse of the strides used by
/// [`generalized_hypercube`](csn_core::graph::generators::generalized_hypercube).
pub fn hypercube_profile(mut i: usize, radix: &[usize]) -> Vec<usize> {
    radix
        .iter()
        .map(|&r| {
            let v = i % r;
            i /= r;
            v
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use csn_core::distsim::Simulator;
    use csn_core::graph::generators::generalized_hypercube;
    use csn_core::graph::traversal::bfs_distances;
    use csn_core::remapping::fspace::feature_distance;

    #[test]
    fn hypercube_structure_matches_fspace() {
        let radix = [3usize, 2, 4];
        let g = generalized_hypercube(&radix);
        let n: usize = radix.iter().product();
        assert_eq!(g.node_count(), n);
        let per_node: usize = radix.iter().map(|r| r - 1).sum();
        assert_eq!(g.edge_count(), n * per_node / 2);
        // Graph distance IS the feature distance (the F-space claim).
        let dist = bfs_distances(&g, 0);
        let p0 = hypercube_profile(0, &radix);
        for v in 0..n {
            let pv = hypercube_profile(v, &radix);
            assert_eq!(dist[v], feature_distance(&p0, &pv), "node {v} profile {pv:?}");
        }
    }

    #[test]
    fn profiles_round_trip() {
        let radix = [2usize, 3, 5];
        for i in 0..30 {
            let p = hypercube_profile(i, &radix);
            let back: usize = p.iter().zip([1usize, 2, 6]).map(|(v, stride)| v * stride).sum();
            assert_eq!(back, i);
        }
    }

    #[test]
    fn pubsub_floods_all_topics_fault_free() {
        let g = generalized_hypercube(&[4, 4, 4]);
        let protocol = PubSub { topics: 8 };
        let mut sim = Simulator::new(&g, &protocol);
        let stats = sim.run_until_quiet(100);
        assert!(stats.quiescent);
        assert_eq!(protocol.delivery_ratio(sim.states()), 1.0, "fault-free flood reaches all");
        // Every node saw every topic, and forwarded each exactly once.
        for s in sim.states() {
            assert_eq!(s.0, 0xFF);
            assert_eq!(s.1, 0xFF);
        }
    }
}

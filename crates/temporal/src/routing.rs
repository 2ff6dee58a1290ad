//! Carry-store-forward routing strategies over time-evolving graphs.
//!
//! §II-B observes that even when "the network is not connected at any given
//! time … carry-store-forward routing can still deliver messages". This
//! module provides the classical DTN strategy ladder used as baselines by
//! the forwarding-set and F-space experiments, here directly on the `EG`
//! model:
//!
//! * [`direct_delivery`] — the source waits for a contact with the
//!   destination (single copy, minimal cost, maximal delay);
//! * [`epidemic`] — every contact spreads the message (delivery at the
//!   earliest-arrival optimum, maximal copy cost);
//! * [`spray_and_wait`] — binary spray with a copy budget `L`: a relay
//!   holding `c > 1` copies hands half to the first uninfected contact;
//!   single-copy holders deliver only directly. Interpolates between the
//!   two extremes.
//!
//! Every strategy reads the [`FrozenEg`] of the trace
//! ([`TimeEvolvingGraph::freeze`](crate::TimeEvolvingGraph::freeze)), so a
//! city-scale trace is frozen once and queried many times. Direct delivery
//! is a binary search in the pair's label runs. The flooding strategies
//! sweep the contacts in `(t, u, v)` order with `u < v`: unit by unit, the
//! pairs up at that unit in pair order. That order decides `epidemic`'s
//! `hops` and spray's hand-offs.
//!
//! A node id outside the EG (at least `n`) reaches nothing and is reached
//! by nothing. A source outside it keeps its one copy and delivers
//! nothing: `{delivered_at: None, copies: 1, hops: 0}`. A destination
//! outside it is never delivered to, so the outcome is that of an
//! unreachable destination, with the copy footprint at the horizon.

use crate::frozen::FrozenEg;
use crate::graph::TimeUnit;
use csn_graph::NodeId;
use std::ops::ControlFlow;

/// Outcome of routing one message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DtnOutcome {
    /// Delivery time, if delivered within the horizon.
    pub delivered_at: Option<TimeUnit>,
    /// Number of message copies in existence at the end (≥ 1).
    pub copies: usize,
    /// Hops taken by the delivering copy (0 when undelivered).
    pub hops: usize,
}

/// The outcome of a source outside the EG: it keeps its one copy.
const KEPT: DtnOutcome = DtnOutcome { delivered_at: None, copies: 1, hops: 0 };

/// Direct delivery: wait for a contact `(source, dest)` at time `>= start`.
/// Never delivers if either id is outside the EG.
pub fn direct_delivery(eg: &FrozenEg, source: NodeId, dest: NodeId, start: TimeUnit) -> DtnOutcome {
    let delivered_at = eg.next_contact(source, dest, start);
    DtnOutcome { delivered_at, copies: 1, hops: usize::from(delivered_at.is_some()) }
}

/// Epidemic routing: flood every contact; delivery time equals the
/// earliest arrival, copy count equals the infected set size at delivery
/// (or at the horizon when undelivered). Delivery is checked only at units
/// with at least one contact, so `source == dest` delivers at the first
/// such unit at or after `start`. An id outside the EG follows the
/// module's rule: a source there keeps its one copy, and a destination
/// there is never delivered to.
pub fn epidemic(eg: &FrozenEg, source: NodeId, dest: NodeId, start: TimeUnit) -> DtnOutcome {
    let n = eg.node_count();
    if source >= n {
        return KEPT;
    }
    let mut infected = vec![false; n];
    let mut hops = vec![0usize; n];
    infected[source] = true;
    // Within one time unit keep sweeping until no new infection
    // (instantaneous multi-hop, matching journeys).
    let delivered_at = eg.sweep(start, |t, up| {
        loop {
            let mut changed = false;
            for &(u, v, _) in up {
                for (a, b) in [(u as usize, v as usize), (v as usize, u as usize)] {
                    if infected[a] && !infected[b] {
                        infected[b] = true;
                        hops[b] = hops[a] + 1;
                        changed = true;
                    }
                }
            }
            if !changed {
                break;
            }
        }
        if infected.get(dest) == Some(&true) {
            ControlFlow::Break(t)
        } else {
            ControlFlow::Continue(())
        }
    });
    let copies = infected.iter().filter(|&&x| x).count();
    DtnOutcome { delivered_at, copies, hops: delivered_at.map_or(0, |_| hops[dest]) }
}

/// Binary spray-and-wait with copy budget `L >= 1`. An id outside the EG
/// follows the module's rule: a source there keeps its one copy, and a
/// destination there is never delivered to.
///
/// # Panics
///
/// Panics if `L == 0`.
pub fn spray_and_wait(
    eg: &FrozenEg,
    source: NodeId,
    dest: NodeId,
    start: TimeUnit,
    l_copies: usize,
) -> DtnOutcome {
    assert!(l_copies >= 1, "need at least one copy");
    let n = eg.node_count();
    if source >= n {
        return KEPT;
    }
    let mut budget = vec![0usize; n];
    let mut hops = vec![0usize; n];
    budget[source] = l_copies;
    let delivered = eg.sweep(start, |t, up| {
        for &(u, v, _) in up {
            for (a, b) in [(u as usize, v as usize), (v as usize, u as usize)] {
                if budget[a] == 0 {
                    continue;
                }
                if b == dest {
                    let holders = budget.iter().filter(|&&x| x > 0).count();
                    return ControlFlow::Break(DtnOutcome {
                        delivered_at: Some(t),
                        copies: holders + 1,
                        hops: hops[a] + 1,
                    });
                }
                if budget[a] > 1 && budget[b] == 0 {
                    let give = budget[a] / 2;
                    budget[a] -= give;
                    budget[b] = give;
                    hops[b] = hops[a] + 1;
                }
            }
        }
        ControlFlow::Continue(())
    });
    delivered.unwrap_or_else(|| DtnOutcome {
        delivered_at: None,
        copies: budget.iter().filter(|&&x| x > 0).count(),
        hops: 0,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::{Contact, TimeEvolvingGraph};
    use crate::journey::earliest_arrival;
    use crate::paper::{fig2_example, A, C};
    use proptest::prelude::*;
    use rand::{Rng, SeedableRng};

    /// The flat-slice sweeps the frozen strategies replaced, over contacts
    /// sorted by `(t, u, v)` with `u < v` among `n` nodes: the reference
    /// every strategy is gated against.
    mod reference {
        use super::*;

        pub fn direct_delivery(
            contacts: &[Contact],
            source: NodeId,
            dest: NodeId,
            start: TimeUnit,
        ) -> DtnOutcome {
            let delivered_at = contacts
                .iter()
                .find(|c| {
                    c.t >= start
                        && ((c.u == source && c.v == dest) || (c.u == dest && c.v == source))
                })
                .map(|c| c.t);
            DtnOutcome { delivered_at, copies: 1, hops: usize::from(delivered_at.is_some()) }
        }

        pub fn epidemic(
            n: usize,
            contacts: &[Contact],
            source: NodeId,
            dest: NodeId,
            start: TimeUnit,
        ) -> DtnOutcome {
            if source >= n {
                return KEPT;
            }
            let mut infected = vec![false; n];
            let mut hops = vec![0usize; n];
            infected[source] = true;
            let mut i = 0;
            while i < contacts.len() {
                let t = contacts[i].t;
                if t >= start {
                    let slice_end = contacts[i..]
                        .iter()
                        .position(|c| c.t != t)
                        .map(|k| i + k)
                        .unwrap_or(contacts.len());
                    loop {
                        let mut changed = false;
                        for c in &contacts[i..slice_end] {
                            for (a, b) in [(c.u, c.v), (c.v, c.u)] {
                                if infected[a] && !infected[b] {
                                    infected[b] = true;
                                    hops[b] = hops[a] + 1;
                                    changed = true;
                                }
                            }
                        }
                        if !changed {
                            break;
                        }
                    }
                    if infected.get(dest) == Some(&true) {
                        return DtnOutcome {
                            delivered_at: Some(t),
                            copies: infected.iter().filter(|&&x| x).count(),
                            hops: hops[dest],
                        };
                    }
                    i = slice_end;
                } else {
                    i += 1;
                }
            }
            let copies = infected.iter().filter(|&&x| x).count();
            DtnOutcome { delivered_at: None, copies, hops: 0 }
        }

        pub fn spray_and_wait(
            n: usize,
            contacts: &[Contact],
            source: NodeId,
            dest: NodeId,
            start: TimeUnit,
            l_copies: usize,
        ) -> DtnOutcome {
            if source >= n {
                return KEPT;
            }
            let mut budget = vec![0usize; n];
            let mut hops = vec![0usize; n];
            budget[source] = l_copies;
            for c in contacts {
                if c.t < start {
                    continue;
                }
                for (a, b) in [(c.u, c.v), (c.v, c.u)] {
                    if budget[a] == 0 {
                        continue;
                    }
                    if b == dest {
                        let holders = budget.iter().filter(|&&x| x > 0).count();
                        return DtnOutcome {
                            delivered_at: Some(c.t),
                            copies: holders + 1,
                            hops: hops[a] + 1,
                        };
                    }
                    if budget[a] > 1 && budget[b] == 0 {
                        let give = budget[a] / 2;
                        budget[a] -= give;
                        budget[b] = give;
                        hops[b] = hops[a] + 1;
                    }
                }
            }
            let copies = budget.iter().filter(|&&x| x > 0).count();
            DtnOutcome { delivered_at: None, copies, hops: 0 }
        }
    }

    fn random_eg(n: usize, horizon: TimeUnit, seed: u64) -> TimeEvolvingGraph {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut eg = TimeEvolvingGraph::new(n, horizon);
        for u in 0..n {
            for v in (u + 1)..n {
                if rng.gen::<f64>() < 0.3 {
                    eg.add_periodic(u, v, rng.gen_range(0..horizon), rng.gen_range(3..9));
                }
            }
        }
        eg
    }

    #[test]
    fn epidemic_matches_earliest_arrival() {
        // Epidemic delivery time IS the temporal earliest arrival.
        for seed in 0..10 {
            let eg = random_eg(15, 30, seed);
            let frozen = eg.freeze();
            for start in [0u32, 5] {
                let arr = earliest_arrival(&eg, 0, start);
                for d in 1..15 {
                    let out = epidemic(&frozen, 0, d, start);
                    assert_eq!(out.delivered_at, arr[d], "seed {seed}, dest {d}, start {start}");
                }
            }
        }
    }

    #[test]
    fn fig2_epidemic_delivers_a_to_c() {
        let out = epidemic(&fig2_example().freeze(), A, C, 2);
        assert_eq!(out.delivered_at, Some(5), "the paper's A -4-> B -5-> C journey");
        assert_eq!(out.hops, 2);
    }

    #[test]
    fn direct_only_uses_the_direct_contact() {
        let eg = fig2_example().freeze();
        // A and C never meet: direct delivery fails.
        assert_eq!(direct_delivery(&eg, A, C, 0).delivered_at, None);
        // A and B meet at 4 when starting at 2.
        assert_eq!(direct_delivery(&eg, A, 1, 2).delivered_at, Some(4));
    }

    #[test]
    fn spray_one_copy_equals_direct() {
        for seed in 0..8 {
            let eg = random_eg(12, 25, 100 + seed).freeze();
            for d in 1..12 {
                assert_eq!(
                    spray_and_wait(&eg, 0, d, 0, 1).delivered_at,
                    direct_delivery(&eg, 0, d, 0).delivered_at,
                    "seed {seed} dest {d}"
                );
            }
        }
    }

    #[test]
    fn strategy_ladder_orders_delivery_and_copies() {
        // epidemic <= spray(L) <= direct in delivery time;
        // copies: epidemic >= spray(L) and spray <= L + 1.
        let mut checked = 0;
        for seed in 0..10 {
            let eg = random_eg(16, 40, 200 + seed).freeze();
            for d in 1..16 {
                let e = epidemic(&eg, 0, d, 0);
                let s = spray_and_wait(&eg, 0, d, 0, 4);
                let dir = direct_delivery(&eg, 0, d, 0);
                if let (Some(te), Some(ts)) = (e.delivered_at, s.delivered_at) {
                    assert!(te <= ts, "epidemic must not lose to spray");
                    checked += 1;
                }
                if let (Some(ts), Some(td)) = (s.delivered_at, dir.delivered_at) {
                    assert!(ts <= td, "spray must not lose to direct");
                }
                if dir.delivered_at.is_some() {
                    assert!(s.delivered_at.is_some(), "spray dominates direct");
                }
                if s.delivered_at.is_some() {
                    assert!(e.delivered_at.is_some(), "epidemic dominates spray");
                }
                assert!(s.copies <= 4 + 1, "budget respected, got {}", s.copies);
            }
        }
        assert!(checked > 20, "the comparison must actually exercise pairs");
    }

    #[test]
    fn undelivered_reports_copy_footprint() {
        let mut eg = TimeEvolvingGraph::new(4, 10);
        eg.add_contact(0, 1, 1);
        eg.add_contact(1, 2, 2);
        let eg = eg.freeze();
        // Node 3 is isolated: nobody delivers to it.
        let e = epidemic(&eg, 0, 3, 0);
        assert_eq!(e.delivered_at, None);
        assert_eq!(e.copies, 3, "0, 1, 2 all infected");
        let s = spray_and_wait(&eg, 0, 3, 0, 8);
        assert_eq!(s.delivered_at, None);
        assert!(s.copies >= 2);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Every strategy on the frozen form equals its flat reference over
        /// `eg.contacts()` on all three outcome fields. The contacts are
        /// added in random order and orientation, one unit is left empty,
        /// and the queries cover `source == dest`, every start up to past
        /// the horizon and ids at and past `n`.
        #[test]
        fn frozen_strategies_match_the_flat_sweeps(
            n in 2usize..8,
            horizon in 1u32..14,
            empty in 0u32..14,
            contacts in proptest::collection::vec((0usize..64, 0usize..64, 0u32..14), 0..60),
        ) {
            let mut eg = TimeEvolvingGraph::new(n, horizon);
            for (a, b, t) in contacts {
                let (u, v, t) = (a % n, b % n, t % horizon);
                if u != v && t != empty {
                    eg.add_contact(u, v, t);
                }
            }
            let (frozen, flat) = (eg.freeze(), eg.contacts());
            for source in 0..=n + 1 {
                for dest in 0..=n + 1 {
                    for start in 0..=horizon + 1 {
                        let q = format!("({source}, {dest}) at {start}");
                        prop_assert_eq!(
                            direct_delivery(&frozen, source, dest, start),
                            reference::direct_delivery(&flat, source, dest, start),
                            "direct {}", &q
                        );
                        prop_assert_eq!(
                            epidemic(&frozen, source, dest, start),
                            reference::epidemic(n, &flat, source, dest, start),
                            "epidemic {}", &q
                        );
                        for l in [1, 2, 8] {
                            prop_assert_eq!(
                                spray_and_wait(&frozen, source, dest, start, l),
                                reference::spray_and_wait(n, &flat, source, dest, start, l),
                                "spray({}) {}", l, &q
                            );
                        }
                    }
                }
            }
        }
    }
}

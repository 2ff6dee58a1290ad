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
//! Each strategy has two entry points: the `TimeEvolvingGraph` form and a
//! `*_over` form taking a pre-sorted flat contact slice. The slice forms
//! exist for city-scale traces (ISSUE 10): a million-contact trace costs
//! hundreds of MB as a `TimeEvolvingGraph` (one label vector per pair) but
//! only 24 bytes per contact as a flat `Vec<Contact>`, and the slice is
//! sorted once instead of re-sorted by every `eg.contacts()` call. The EG
//! forms are thin wrappers, so the two stay identical by construction (and
//! are gated equal at small n by the `--scenario` perf gates).
//!
//! A node id outside the EG (at least `n`) reaches nothing and is reached
//! by nothing. A source outside it keeps its one copy and delivers
//! nothing: `{delivered_at: None, copies: 1, hops: 0}`. A destination
//! outside it is never delivered to, so the outcome is that of an
//! unreachable destination, with the copy footprint at the horizon.

use crate::graph::{Contact, TimeEvolvingGraph, TimeUnit};
use csn_graph::NodeId;

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

/// Direct delivery: wait for a contact `(source, dest)` at time `>= start`.
/// Never delivers if either id is outside the EG.
pub fn direct_delivery(
    eg: &TimeEvolvingGraph,
    source: NodeId,
    dest: NodeId,
    start: TimeUnit,
) -> DtnOutcome {
    let delivered_at = eg
        .labels(source, dest)
        .and_then(|labels| labels.get(labels.partition_point(|&l| l < start)).copied());
    DtnOutcome { delivered_at, copies: 1, hops: usize::from(delivered_at.is_some()) }
}

/// [`direct_delivery`] over a flat contact slice sorted by `(t, u, v)`.
pub fn direct_delivery_over(
    contacts: &[Contact],
    source: NodeId,
    dest: NodeId,
    start: TimeUnit,
) -> DtnOutcome {
    let delivered_at = contacts
        .iter()
        .find(|c| {
            c.t >= start && ((c.u == source && c.v == dest) || (c.u == dest && c.v == source))
        })
        .map(|c| c.t);
    DtnOutcome { delivered_at, copies: 1, hops: usize::from(delivered_at.is_some()) }
}

/// Epidemic routing: flood every contact; delivery time equals the
/// earliest arrival, copy count equals the infected set size at delivery
/// (or at the horizon when undelivered). An id outside the EG follows the
/// module's rule: a source there keeps its one copy, and a destination
/// there is never delivered to.
pub fn epidemic(
    eg: &TimeEvolvingGraph,
    source: NodeId,
    dest: NodeId,
    start: TimeUnit,
) -> DtnOutcome {
    epidemic_over(eg.node_count(), &eg.contacts(), source, dest, start)
}

/// [`epidemic`] over a flat contact slice sorted by `(t, u, v)` among `n`
/// nodes — the city-scale entry point (no per-query `contacts()` rebuild).
/// A `source` at least `n` keeps its one copy, and a `dest` at least `n`
/// is never delivered to.
pub fn epidemic_over(
    n: usize,
    contacts: &[Contact],
    source: NodeId,
    dest: NodeId,
    start: TimeUnit,
) -> DtnOutcome {
    if source >= n {
        return DtnOutcome { delivered_at: None, copies: 1, hops: 0 };
    }
    let mut infected = vec![false; n];
    let mut hops = vec![0usize; n];
    infected[source] = true;
    // Process contacts in time order; within one time unit keep sweeping
    // until no new infection (instantaneous multi-hop, matching journeys).
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
    DtnOutcome { delivered_at: None, copies: infected.iter().filter(|&&x| x).count(), hops: 0 }
}

/// Binary spray-and-wait with copy budget `L >= 1`. An id outside the EG
/// follows the module's rule: a source there keeps its one copy, and a
/// destination there is never delivered to.
///
/// # Panics
///
/// Panics if `L == 0`.
pub fn spray_and_wait(
    eg: &TimeEvolvingGraph,
    source: NodeId,
    dest: NodeId,
    start: TimeUnit,
    l_copies: usize,
) -> DtnOutcome {
    spray_and_wait_over(eg.node_count(), &eg.contacts(), source, dest, start, l_copies)
}

/// [`spray_and_wait`] over a flat contact slice sorted by `(t, u, v)`
/// among `n` nodes. A `source` at least `n` keeps its one copy, and a
/// `dest` at least `n` is never delivered to.
///
/// # Panics
///
/// Panics if `l_copies == 0`.
pub fn spray_and_wait_over(
    n: usize,
    contacts: &[Contact],
    source: NodeId,
    dest: NodeId,
    start: TimeUnit,
    l_copies: usize,
) -> DtnOutcome {
    assert!(l_copies >= 1, "need at least one copy");
    if source >= n {
        return DtnOutcome { delivered_at: None, copies: 1, hops: 0 };
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
    DtnOutcome { delivered_at: None, copies: budget.iter().filter(|&&x| x > 0).count(), hops: 0 }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::journey::earliest_arrival;
    use crate::paper::{fig2_example, A, C};
    use rand::{Rng, SeedableRng};

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
            for start in [0u32, 5] {
                let arr = earliest_arrival(&eg, 0, start);
                for d in 1..15 {
                    let out = epidemic(&eg, 0, d, start);
                    assert_eq!(out.delivered_at, arr[d], "seed {seed}, dest {d}, start {start}");
                }
            }
        }
    }

    #[test]
    fn fig2_epidemic_delivers_a_to_c() {
        let eg = fig2_example();
        let out = epidemic(&eg, A, C, 2);
        assert_eq!(out.delivered_at, Some(5), "the paper's A -4-> B -5-> C journey");
        assert_eq!(out.hops, 2);
    }

    #[test]
    fn direct_only_uses_the_direct_contact() {
        let eg = fig2_example();
        // A and C never meet: direct delivery fails.
        assert_eq!(direct_delivery(&eg, A, C, 0).delivered_at, None);
        // A and B meet at 4 when starting at 2.
        assert_eq!(direct_delivery(&eg, A, 1, 2).delivered_at, Some(4));
    }

    #[test]
    fn spray_one_copy_equals_direct() {
        for seed in 0..8 {
            let eg = random_eg(12, 25, 100 + seed);
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
            let eg = random_eg(16, 40, 200 + seed);
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
    fn slice_forms_match_eg_forms() {
        for seed in 0..6 {
            let eg = random_eg(14, 30, 300 + seed);
            let contacts = eg.contacts();
            for d in 1..14 {
                assert_eq!(direct_delivery_over(&contacts, 0, d, 2), direct_delivery(&eg, 0, d, 2),);
                assert_eq!(epidemic_over(14, &contacts, 0, d, 2), epidemic(&eg, 0, d, 2));
                assert_eq!(
                    spray_and_wait_over(14, &contacts, 0, d, 2, 4),
                    spray_and_wait(&eg, 0, d, 2, 4),
                );
            }
        }
    }

    #[test]
    fn undelivered_reports_copy_footprint() {
        let mut eg = TimeEvolvingGraph::new(4, 10);
        eg.add_contact(0, 1, 1);
        eg.add_contact(1, 2, 2);
        // Node 3 is isolated: nobody delivers to it.
        let e = epidemic(&eg, 0, 3, 0);
        assert_eq!(e.delivered_at, None);
        assert_eq!(e.copies, 3, "0, 1, 2 all infected");
        let s = spray_and_wait(&eg, 0, 3, 0, 8);
        assert_eq!(s.delivered_at, None);
        assert!(s.copies >= 2);
    }
}

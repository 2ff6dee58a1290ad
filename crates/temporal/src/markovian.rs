//! The two-state edge-Markovian dynamic-graph process (§II-B).
//!
//! "If an edge exists at time `i`, at time `i+1` it dies with probability
//! `p`. If the edge does not exist at time `i`, it will appear at time
//! `i+1` with another probability `q`." The paper cites this model (Clementi
//! et al.) as the theoretical community's macro-level abstraction for edge
//! dynamics, successfully used to bound the dynamic diameter (flooding time).

use crate::graph::{TimeEvolvingGraph, TimeUnit};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Parameters of the edge-Markovian process over `n` nodes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EdgeMarkovian {
    /// Number of nodes.
    pub n: usize,
    /// Death probability `p`: an existing edge disappears next step.
    pub p_die: f64,
    /// Birth probability `q`: a missing edge appears next step.
    pub q_born: f64,
}

impl EdgeMarkovian {
    /// Creates the model; probabilities are clamped to `[0, 1]`.
    pub fn new(n: usize, p_die: f64, q_born: f64) -> Self {
        EdgeMarkovian { n, p_die: p_die.clamp(0.0, 1.0), q_born: q_born.clamp(0.0, 1.0) }
    }

    /// The stationary edge density `q / (p + q)` of the two-state chain.
    pub fn stationary_density(&self) -> f64 {
        if self.p_die + self.q_born == 0.0 {
            0.0
        } else {
            self.q_born / (self.p_die + self.q_born)
        }
    }

    /// Generates `horizon` snapshots, starting the chain from its stationary
    /// distribution, and returns them as a time-evolving graph (with horizon
    /// at least 1). With `n = 0` there is no pair, so the EG is empty.
    pub fn generate(&self, horizon: TimeUnit, seed: u64) -> TimeEvolvingGraph {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut eg = TimeEvolvingGraph::new(self.n, horizon.max(1));
        let density = self.stationary_density();
        // State per unordered pair; pairs indexed implicitly by iteration.
        let pair_count = self.n * self.n.saturating_sub(1) / 2;
        let mut alive = vec![false; pair_count];
        for a in &mut alive {
            *a = rng.gen::<f64>() < density;
        }
        for t in 0..horizon {
            let mut idx = 0;
            for u in 0..self.n {
                for v in (u + 1)..self.n {
                    if t > 0 {
                        alive[idx] = if alive[idx] {
                            rng.gen::<f64>() >= self.p_die
                        } else {
                            rng.gen::<f64>() < self.q_born
                        };
                    }
                    if alive[idx] {
                        eg.add_contact(u, v, t);
                    }
                    idx += 1;
                }
            }
        }
        eg
    }
}

/// Mean flooding time of an edge-Markovian graph from random sources,
/// averaged over `trials` independently generated traces. Returns `None` if
/// any trial fails to flood within the horizon, and when there is nothing
/// to average: no trial (`trials = 0`) or no source (`n = 0`).
pub fn mean_flooding_time(
    model: &EdgeMarkovian,
    horizon: TimeUnit,
    trials: usize,
    seed: u64,
) -> Option<f64> {
    if trials == 0 || model.n == 0 {
        return None;
    }
    let mut total = 0u64;
    let mut rng = StdRng::seed_from_u64(seed);
    for trial in 0..trials {
        let eg = model.generate(horizon, seed.wrapping_add(trial as u64 * 7919));
        let src = rng.gen_range(0..model.n);
        total += u64::from(crate::journey::flooding_time(&eg, src, 0)?);
    }
    Some(total as f64 / trials as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stationary_density_formula() {
        let m = EdgeMarkovian::new(10, 0.3, 0.1);
        assert!((m.stationary_density() - 0.25).abs() < 1e-12);
        assert_eq!(EdgeMarkovian::new(10, 0.0, 0.0).stationary_density(), 0.0);
    }

    #[test]
    fn generated_density_matches_stationary() {
        let m = EdgeMarkovian::new(40, 0.2, 0.05);
        let eg = m.generate(50, 7);
        let pairs = 40 * 39 / 2;
        let observed = eg.contact_count() as f64 / (pairs as f64 * 50.0);
        let expected = m.stationary_density();
        assert!((observed - expected).abs() < 0.05, "observed {observed}, expected {expected}");
    }

    #[test]
    fn p_die_zero_edges_never_die() {
        let m = EdgeMarkovian::new(10, 0.0, 0.5);
        let eg = m.generate(30, 3);
        // Once an edge appears it persists: its label set is a suffix range.
        for e in eg.edges() {
            let first = e.labels[0];
            let expected: Vec<TimeUnit> = (first..30).collect();
            assert_eq!(e.labels, expected, "edge ({}, {})", e.u, e.v);
        }
    }

    #[test]
    fn q_zero_and_empty_start_stays_empty() {
        let m = EdgeMarkovian::new(10, 0.5, 0.0);
        let eg = m.generate(20, 9);
        assert_eq!(eg.contact_count(), 0, "stationary density 0 => empty");
    }

    #[test]
    fn dense_chain_floods_fast() {
        let m = EdgeMarkovian::new(30, 0.5, 0.5);
        let ft = mean_flooding_time(&m, 40, 5, 11).expect("floods");
        assert!(ft < 10.0, "dense dynamic graph floods quickly, got {ft}");
    }

    #[test]
    fn empty_model_generates_the_empty_eg() {
        let empty = EdgeMarkovian::new(0, 0.3, 0.2);
        assert_eq!(empty.generate(10, 1), TimeEvolvingGraph::new(0, 10));
        assert_eq!(empty.generate(0, 1), TimeEvolvingGraph::new(0, 1));
    }

    #[test]
    fn flooding_time_without_trials_or_sources_is_none() {
        let m = EdgeMarkovian::new(8, 0.5, 0.5);
        assert_eq!(mean_flooding_time(&m, 20, 0, 1), None, "no trial to average");
        let empty = EdgeMarkovian::new(0, 0.5, 0.5);
        assert_eq!(mean_flooding_time(&empty, 20, 3, 1), None, "no source to draw");
    }

    #[test]
    fn generation_is_seeded() {
        let m = EdgeMarkovian::new(15, 0.3, 0.2);
        assert_eq!(m.generate(10, 5), m.generate(10, 5));
        assert_ne!(m.generate(10, 5), m.generate(10, 6));
    }
}

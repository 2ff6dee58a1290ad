//! Deterministic Zipf workload generation: [`Zipf`], [`WorkloadConfig`],
//! [`Workload`].
//!
//! Real query traffic against a social-network structure index is heavily
//! skewed — a small set of hot users issues most requests, and popular
//! nodes are queried far more often than peripheral ones. The generator
//! models both skews with seeded Zipf draws over the vendored RNG:
//! millions of synthetic *users* ranked by activity (rank `r` queried with
//! weight `1/(r+1)^s`), each mapped onto a home node through a seeded
//! permutation so hot users scatter across id space, and query *targets*
//! drawn from a second Zipf over node popularity ranks. Everything is a
//! pure function of `(config, node_count)`: the same seed replays the same
//! query stream byte for byte, which is what lets `structurad` runs, the
//! benchmark's serve workloads and the determinism tests share a workload.

use crate::query::Query;
use csn_temporal::TimeUnit;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::{HashSet, TryReserveError};

/// A discrete Zipf distribution over ranks `0..n`: rank `r` has weight
/// `1 / (r + 1)^s`. Sampling is one uniform draw plus a binary search over
/// the precomputed CDF — `O(log n)` per sample, `O(n)` memory.
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    /// Builds the CDF for `n` ranks with exponent `s >= 0` (`s = 0` is
    /// uniform). `n` is clamped to at least 1.
    ///
    /// # Panics
    ///
    /// If the CDF's `n` entries cannot be allocated; [`Zipf::try_new`]
    /// returns that as an error instead.
    pub fn new(n: usize, s: f64) -> Self {
        Self::try_new(n, s).expect("the Zipf CDF fits in memory")
    }

    /// [`Zipf::new`], or the error of reserving the CDF's `n` entries when
    /// they do not fit the address space or the allocator refuses them.
    pub fn try_new(n: usize, s: f64) -> Result<Self, TryReserveError> {
        let n = n.max(1);
        let mut cdf = Vec::new();
        cdf.try_reserve_exact(n)?;
        let mut acc = 0.0f64;
        for r in 0..n {
            acc += 1.0 / ((r + 1) as f64).powf(s);
            cdf.push(acc);
        }
        let total = acc;
        for c in &mut cdf {
            *c /= total;
        }
        Ok(Zipf { cdf })
    }

    /// Number of ranks.
    pub fn support(&self) -> usize {
        self.cdf.len()
    }

    /// Draws one rank in `0..support()`.
    pub fn sample(&self, rng: &mut StdRng) -> usize {
        let u: f64 = rng.gen();
        self.cdf.partition_point(|&c| c <= u).min(self.cdf.len() - 1)
    }
}

/// Knobs for [`WorkloadConfig::generate`]. All draws come from one
/// `StdRng::seed_from_u64(seed)` stream, so a config fully determines the
/// workload.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadConfig {
    /// Number of queries to generate.
    pub queries: usize,
    /// Size of the synthetic user population (ranked by activity).
    pub users: usize,
    /// Zipf exponent of the user-activity skew.
    pub zipf_users: f64,
    /// Zipf exponent of the node-popularity skew for query targets.
    pub zipf_nodes: f64,
    /// RNG seed.
    pub seed: u64,
    /// Address space (`2^dims`) of the safety overlay; `0` folds
    /// safety-route queries into distance queries.
    pub safety_space: usize,
    /// Journey departure horizon; `0` folds journey queries into
    /// exact-distance queries.
    pub journey_horizon: TimeUnit,
}

impl Default for WorkloadConfig {
    fn default() -> Self {
        WorkloadConfig {
            queries: 10_000,
            users: 1_000_000,
            zipf_users: 1.1,
            zipf_nodes: 0.9,
            seed: 0xB0B,
            safety_space: 0,
            journey_horizon: 0,
        }
    }
}

/// A generated query stream plus the population stats the bench reports.
#[derive(Debug, Clone, PartialEq)]
pub struct Workload {
    /// The queries, in issue order.
    pub queries: Vec<Query>,
    /// How many distinct synthetic users issued them.
    pub distinct_users: usize,
}

impl WorkloadConfig {
    /// Generates the workload against a graph of `n` nodes. Each query:
    /// draw a user rank (Zipf), map it to its home node `u` through a
    /// seeded permutation, then draw the query kind categorically —
    /// distances (35%), exact distances (15%), forwarding sets (15%),
    /// structure (10%), ranks (10%), safety routes (7%), journeys (8%) —
    /// with disabled kinds folded into the distance buckets.
    ///
    /// A graph with no nodes has no query to ask: `n = 0` gives an empty
    /// workload (no queries, no users).
    ///
    /// # Panics
    ///
    /// If `n > 0` and the `queries` queries or the user CDF's `users`
    /// entries cannot be allocated; [`WorkloadConfig::try_generate`]
    /// returns that as an error instead.
    pub fn generate(&self, n: usize) -> Workload {
        self.try_generate(n).expect("the workload fits in memory")
    }

    /// [`WorkloadConfig::generate`], or the error of reserving the query
    /// list or the user CDF when either does not fit the address space or
    /// the allocator refuses it.
    pub fn try_generate(&self, n: usize) -> Result<Workload, TryReserveError> {
        if n == 0 {
            return Ok(Workload { queries: Vec::new(), distinct_users: 0 });
        }
        let mut rng = StdRng::seed_from_u64(self.seed);
        let user_zipf = Zipf::try_new(self.users, self.zipf_users)?;
        let node_zipf = Zipf::try_new(n, self.zipf_nodes)?;

        // Seeded Fisher–Yates permutation: popularity rank → node id, so
        // hot ranks are scattered over id space (and over shards).
        let mut perm: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            perm.swap(i, rng.gen_range(0..=i));
        }

        let mut queries = Vec::new();
        queries.try_reserve_exact(self.queries)?;
        let mut seen_users: HashSet<usize> = HashSet::new();
        for _ in 0..self.queries {
            let user = user_zipf.sample(&mut rng);
            seen_users.insert(user);
            let u = perm[user % n];
            let kind = rng.gen_range(0..100u32);
            let q = match kind {
                0..=34 => Query::Distance { u, v: perm[node_zipf.sample(&mut rng)] },
                35..=49 => Query::DistanceExact { u, v: perm[node_zipf.sample(&mut rng)] },
                50..=64 => Query::ForwardingSet { u },
                65..=74 => Query::Structure { u },
                75..=84 => Query::Rank { u },
                85..=91 => {
                    if self.safety_space > 0 {
                        Query::SafetyRoute {
                            source: rng.gen_range(0..self.safety_space),
                            dest: rng.gen_range(0..self.safety_space),
                        }
                    } else {
                        Query::Distance { u, v: perm[node_zipf.sample(&mut rng)] }
                    }
                }
                _ => {
                    if self.journey_horizon > 0 {
                        Query::Journey {
                            source: u,
                            target: perm[node_zipf.sample(&mut rng)],
                            start: rng.gen_range(0..self.journey_horizon),
                        }
                    } else {
                        Query::DistanceExact { u, v: perm[node_zipf.sample(&mut rng)] }
                    }
                }
            };
            queries.push(q);
        }
        Ok(Workload { queries, distinct_users: seen_users.len() })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zipf_cdf_is_monotone_and_samples_in_range() {
        let z = Zipf::new(1000, 1.2);
        assert_eq!(z.support(), 1000);
        let mut rng = StdRng::seed_from_u64(4);
        let mut counts = vec![0usize; 1000];
        for _ in 0..20_000 {
            counts[z.sample(&mut rng)] += 1;
        }
        // Skew: rank 0 must dominate a deep-tail rank decisively.
        assert!(counts[0] > 20 * counts[500].max(1), "head {} tail {}", counts[0], counts[500]);
    }

    #[test]
    fn zipf_zero_exponent_is_roughly_uniform() {
        let z = Zipf::new(10, 0.0);
        let mut rng = StdRng::seed_from_u64(9);
        let mut counts = [0usize; 10];
        for _ in 0..10_000 {
            counts[z.sample(&mut rng)] += 1;
        }
        for (r, &c) in counts.iter().enumerate() {
            assert!((700..1300).contains(&c), "rank {r} count {c}");
        }
    }

    #[test]
    fn generation_is_deterministic_per_seed_and_valid() {
        let cfg = WorkloadConfig {
            queries: 500,
            users: 50_000,
            safety_space: 64,
            journey_horizon: 16,
            ..WorkloadConfig::default()
        };
        let a = cfg.generate(200);
        let b = cfg.generate(200);
        assert_eq!(a, b);
        assert!(a.distinct_users > 0 && a.distinct_users <= 500);
        for q in &a.queries {
            match *q {
                Query::Distance { u, v } | Query::DistanceExact { u, v } => {
                    assert!(u < 200 && v < 200);
                }
                Query::ForwardingSet { u } | Query::Structure { u } | Query::Rank { u } => {
                    assert!(u < 200);
                }
                Query::SafetyRoute { source, dest } => assert!(source < 64 && dest < 64),
                Query::Journey { source, target, start } => {
                    assert!(source < 200 && target < 200 && start < 16);
                }
            }
        }
        let c = WorkloadConfig { seed: cfg.seed + 1, ..cfg }.generate(200);
        assert_ne!(a.queries, c.queries, "different seeds diverge");
    }

    #[test]
    fn disabled_kinds_fold_into_distances() {
        let cfg = WorkloadConfig {
            queries: 2_000,
            users: 1_000,
            safety_space: 0,
            journey_horizon: 0,
            ..WorkloadConfig::default()
        };
        for q in &cfg.generate(50).queries {
            assert!(
                !matches!(q, Query::SafetyRoute { .. } | Query::Journey { .. }),
                "disabled kind generated: {q:?}"
            );
        }
    }

    #[test]
    fn an_empty_graph_gets_an_empty_workload() {
        let wl = WorkloadConfig { safety_space: 64, journey_horizon: 16, ..Default::default() }
            .generate(0);
        assert_eq!(wl, Workload { queries: Vec::new(), distinct_users: 0 });
    }

    #[test]
    fn oversized_workloads_are_errors_not_aborts() {
        // Byte counts just under `isize::MAX` pass the capacity check and
        // fail in the allocator; `usize::MAX` users fail the capacity
        // check. Each must come back as an error, not abort the process.
        let too_many = isize::MAX as usize / size_of::<Query>();
        let cfg = WorkloadConfig { queries: too_many, users: 10, ..WorkloadConfig::default() };
        assert!(cfg.try_generate(100).is_err());
        assert!(Zipf::try_new(isize::MAX as usize / size_of::<f64>(), 1.0).is_err());
        let cfg = WorkloadConfig { users: usize::MAX, ..WorkloadConfig::default() };
        assert!(cfg.try_generate(100).is_err());
        assert_eq!(cfg.try_generate(0), Ok(Workload { queries: Vec::new(), distinct_users: 0 }));
        let small = WorkloadConfig { queries: 50, users: 100, ..WorkloadConfig::default() };
        assert_eq!(small.try_generate(20), Ok(small.generate(20)));
    }
}

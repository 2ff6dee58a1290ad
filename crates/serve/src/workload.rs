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
//!
//! A [`Zipf`] holds 8 B per 32 ranks (250,000 B for a million users) and
//! re-adds at most 32 weights per draw, so the generator's memory stays
//! far below the index it queries.

use crate::query::Query;
use csn_temporal::TimeUnit;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::{HashSet, TryReserveError};

/// Ranks per [`Zipf`] block: the sampler keeps one partial sum per block.
const BLOCK: usize = 32;

/// A discrete Zipf distribution over ranks `0..n`: rank `r` has weight
/// `1 / (r + 1)^s`. It keeps only the unnormalised partial sum at the end
/// of every block of 32 ranks, 8 B per 32 ranks. A draw binary-searches
/// those block ends for its block, then re-adds at most 32 of that block's
/// weights: `O(log n)` per sample, `O(n / 32)` memory. Every draw returns,
/// bit for bit, the rank a binary search over the dense normalised CDF
/// would: the partial sums come from the same additions in the same order,
/// and each is compared with the draw after the same division.
#[derive(Debug, Clone)]
pub struct Zipf {
    n: usize,
    s: f64,
    /// The sum of all `n` weights.
    total: f64,
    /// The running sum after every 32nd rank and after the last rank.
    ends: Vec<f64>,
}

/// The weight of rank `r` under exponent `s`.
fn weight(r: usize, s: f64) -> f64 {
    1.0 / ((r + 1) as f64).powf(s)
}

impl Zipf {
    /// Builds the block sums for `n` ranks with exponent `s`. `n` is
    /// clamped to at least 1. The exponent's domain is finite `s >= 0`
    /// (`s = 0` is uniform); any other `s` never panics and samples the
    /// rank the dense CDF's binary search would.
    ///
    /// # Panics
    ///
    /// If the `⌈n / 32⌉` block sums cannot be allocated; [`Zipf::try_new`]
    /// returns that as an error instead.
    pub fn new(n: usize, s: f64) -> Self {
        Self::try_new(n, s).expect("the Zipf block sums fit in memory")
    }

    /// [`Zipf::new`], or the error of reserving the `⌈n / 32⌉` block sums
    /// when they do not fit the address space or the allocator refuses
    /// them.
    pub fn try_new(n: usize, s: f64) -> Result<Self, TryReserveError> {
        let n = n.max(1);
        let mut ends = Vec::new();
        ends.try_reserve_exact(n.div_ceil(BLOCK))?;
        let mut acc = 0.0f64;
        for r in 0..n {
            acc += weight(r, s);
            if (r + 1) % BLOCK == 0 || r + 1 == n {
                ends.push(acc);
            }
        }
        Ok(Zipf { n, s, total: acc, ends })
    }

    /// Number of ranks.
    pub fn support(&self) -> usize {
        self.n
    }

    /// Heap bytes held by the sampler: 8 B per started block of 32 ranks.
    pub fn heap_bytes(&self) -> usize {
        self.ends.capacity() * size_of::<f64>()
    }

    /// Draws one rank in `0..support()`.
    pub fn sample(&self, rng: &mut StdRng) -> usize {
        let u: f64 = rng.gen();
        // The dense search's test `cdf[r] <= u` on the same quotient. Its
        // negation ends the scan, not `acc / total > u`: the two differ on
        // a NaN quotient.
        let below = |acc: f64| acc / self.total <= u;
        let block = self.ends.partition_point(|&e| below(e));
        if block == self.ends.len() {
            return self.n - 1;
        }
        // The block's end fails the test, so its last rank answers when no
        // earlier rank of the block does.
        let first = block * BLOCK;
        let last = first + (self.n - first).min(BLOCK) - 1;
        let mut acc = if block == 0 { 0.0 } else { self.ends[block - 1] };
        (first..last)
            .find(|&r| {
                acc += weight(r, self.s);
                !below(acc)
            })
            .unwrap_or(last)
    }
}

/// Knobs for [`WorkloadConfig::generate`]. All draws come from one
/// `StdRng::seed_from_u64(seed)` stream, so a config fully determines the
/// workload.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadConfig {
    /// Number of queries to generate.
    pub queries: usize,
    /// Size of the synthetic user population (ranked by activity); `0` is
    /// clamped to 1.
    pub users: usize,
    /// Zipf exponent of the user-activity skew. Its domain is finite and
    /// `>= 0`; another value is not rejected and never panics (see
    /// [`Zipf::new`]).
    pub zipf_users: f64,
    /// Zipf exponent of the node-popularity skew for query targets, with
    /// the same domain as `zipf_users`.
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
    /// If `n > 0` and the `queries` queries or the user Zipf's `⌈users /
    /// 32⌉` block sums cannot be allocated;
    /// [`WorkloadConfig::try_generate`] returns that as an error instead.
    pub fn generate(&self, n: usize) -> Workload {
        self.try_generate(n).expect("the workload fits in memory")
    }

    /// [`WorkloadConfig::generate`], or the error of reserving the query
    /// list or the user Zipf's block sums when either does not fit the
    /// address space or the allocator refuses it.
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

    /// The reference sampler: the normalised CDF of every rank, searched
    /// once per draw. [`Zipf`] must return its rank bit for bit.
    struct DenseZipf {
        cdf: Vec<f64>,
    }

    impl DenseZipf {
        fn new(n: usize, s: f64) -> Self {
            let mut cdf = Vec::with_capacity(n);
            let mut acc = 0.0f64;
            for r in 0..n {
                acc += 1.0 / ((r + 1) as f64).powf(s);
                cdf.push(acc);
            }
            let total = acc;
            for c in &mut cdf {
                *c /= total;
            }
            DenseZipf { cdf }
        }

        fn sample(&self, rng: &mut StdRng) -> usize {
            let u: f64 = rng.gen();
            self.cdf.partition_point(|&c| c <= u).min(self.cdf.len() - 1)
        }
    }

    #[test]
    fn zipf_draws_equal_the_dense_cdf_search() {
        // Block edges, a partial last block, and exponents out of the
        // domain: NaN and ±∞ make the CDF's tests all false, or false from
        // the first infinite partial sum on.
        let ns = [1, 2, 31, 32, 33, 64, 65, 1_000, 1_000_000];
        let ss = [0.0, 0.5, 0.9, 1.1, 2.5, -1.0, f64::NAN, f64::INFINITY, f64::NEG_INFINITY];
        for (i, &n) in ns.iter().enumerate() {
            for (j, &s) in ss.iter().enumerate() {
                let (zipf, dense) = (Zipf::new(n, s), DenseZipf::new(n, s));
                assert_eq!(zipf.support(), n);
                let seed = (i * ss.len() + j) as u64;
                let (mut a, mut b) = (StdRng::seed_from_u64(seed), StdRng::seed_from_u64(seed));
                for draw in 0..100_000 {
                    let (got, want) = (zipf.sample(&mut a), dense.sample(&mut b));
                    assert_eq!(got, want, "n {n} s {s} draw {draw}");
                }
            }
        }
    }

    #[test]
    fn zipf_holds_eight_bytes_per_started_block() {
        for n in [1, 31, 32, 33, 64, 65, 1_000] {
            assert_eq!(Zipf::new(n, 1.1).heap_bytes(), 8 * n.div_ceil(32), "n {n}");
        }
        assert_eq!(Zipf::new(0, 1.1).heap_bytes(), 8);
        // A million users: 250,000 B, against the dense CDF's 8,000,000 B.
        let n = 1_000_000;
        assert_eq!(Zipf::new(n, 1.1).heap_bytes(), 250_000);
        let dense = DenseZipf::new(n, 1.1);
        assert_eq!(dense.cdf.capacity() * size_of::<f64>(), 8_000_000);
    }

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
        // Byte counts up to `isize::MAX` pass the capacity check and fail
        // in the allocator, `usize::MAX` users' block sums included. Each
        // must come back as an error, not abort the process.
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

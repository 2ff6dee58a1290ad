//! Sampling-based approximate centrality for the million-node tier:
//! source-sampled betweenness (Brandes–Pich pivots) and source-sampled
//! closeness (Eppstein–Wang), with Hoeffding-style error bounds.
//!
//! Exact betweenness is `O(n·m)` and exact closeness `O(n·m)` — at n = 10⁶
//! that is a million BFS sweeps. Both kernels are *averages over sources*,
//! so sampling `k` sources and rescaling by `n/k` gives unbiased estimates
//! whose worst-case error shrinks as `1/√k` (see [`betweenness_epsilon`]).
//!
//! # The ε-agreement gate
//!
//! Approximation code is only trustworthy relative to the exact kernels, so
//! this module is gated two ways (property tests in `scale_props.rs` and
//! this module's unit tests):
//!
//! 1. **Full sampling degenerates exactly.** With `samples >= n` the source
//!    set is `0..n` in order and the rescale factor is exactly `1.0`, so
//!    [`betweenness_sampled`] and [`closeness_sampled`] reproduce
//!    [`crate::centrality::betweenness_centrality`] /
//!    [`crate::centrality::closeness_centrality`] **bit-for-bit** — the
//!    same Brandes source sweep, the same per-source BFS, and `x * 1.0` /
//!    integer-valued f64 arithmetic below 2⁵³ are exact.
//! 2. **Partial sampling agrees within ε.** On small graphs where the exact
//!    answer is affordable, the pair-normalized deviation must stay inside
//!    the documented [`betweenness_epsilon`] bound.
//!
//! # Performance
//!
//! Cost is `k/n` of the exact kernel: `O(k·m)` time, with scratch arenas
//! reused across sources — no per-source allocation.
//! [`betweenness_sampled`] is the exact kernel's Brandes source sweep run
//! over the sampled sources, so it takes the same `jobs` worker count and
//! is bit-identical at any `jobs`. Traversed-edges/s at n = 10⁶ is
//! recorded in the committed `BENCH_scale.json`. See SCALING.md for how ε,
//! k, and runtime trade off.
//!
//! # Examples
//!
//! ```
//! use csn_graph::{approx, centrality, generators};
//!
//! let g = generators::barabasi_albert(200, 3, 42).unwrap();
//! // Full sampling: bit-identical to the exact kernel.
//! assert_eq!(
//!     approx::betweenness_sampled(&g, 200, 7, 1),
//!     centrality::betweenness_centrality(&g, 1),
//! );
//! // Quarter sampling: 4x cheaper, within the documented bound, and the
//! // same at any worker count.
//! let approx_bc = approx::betweenness_sampled(&g, 50, 7, 1);
//! assert_eq!(approx_bc.len(), 200);
//! assert_eq!(approx::betweenness_sampled(&g, 50, 7, 4), approx_bc);
//! ```

use crate::centrality::brandes_sweep;
use crate::graph::NodeId;
use crate::scratch::BfsScratch;
use crate::view::GraphView;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Draws `k` distinct source nodes uniformly from `0..n`, returned sorted
/// ascending (partial Fisher–Yates). `k >= n` returns all of `0..n` — the
/// degenerate case the exact-agreement gate relies on.
pub fn sample_sources(n: usize, k: usize, seed: u64) -> Vec<NodeId> {
    if k >= n {
        return (0..n).collect();
    }
    let mut rng = StdRng::seed_from_u64(seed);
    let mut pool: Vec<NodeId> = (0..n).collect();
    for i in 0..k {
        let j = rng.gen_range(i..n);
        pool.swap(i, j);
    }
    pool.truncate(k);
    pool.sort_unstable();
    pool
}

/// Source-sampled betweenness (Brandes–Pich): runs the exact kernel's
/// Brandes source sweep on `samples` uniformly drawn sources, fanned out
/// over `jobs` workers, and rescales the accumulated dependencies by
/// `n / k`.
///
/// The estimate is unbiased and bit-identical at any `jobs`. With
/// `samples >= n` the result is **bit-identical** to
/// [`crate::centrality::betweenness_centrality`]: sources are `0..n` in the
/// same fold order and the rescale is exactly `1.0`. Error bound: see
/// [`betweenness_epsilon`].
///
/// # Panics
///
/// Panics if `samples == 0` on a non-empty graph.
pub fn betweenness_sampled<G: GraphView + Sync>(
    g: &G,
    samples: usize,
    seed: u64,
    jobs: usize,
) -> Vec<f64> {
    let n = g.node_count();
    if n == 0 {
        return Vec::new();
    }
    assert!(samples > 0, "need at least one sampled source");
    let sources = sample_sources(n, samples, seed);
    let mut bc = brandes_sweep(g, &sources, jobs);
    // `x * 1.0 / 2.0` at full sampling is bitwise `x / 2.0`, preserving the
    // exact kernel's halving.
    let scale = n as f64 / sources.len() as f64;
    for b in &mut bc {
        *b = *b * scale / 2.0;
    }
    bc
}

/// Source-sampled closeness (Eppstein–Wang): one BFS per sampled source,
/// crediting the distance to every *reached* node, then the Wasserman–Faust
/// reachable-fraction form over the sample-extrapolated counts.
///
/// For node `u`, the sampled sources other than `u` itself are a uniform
/// draw of `k_eff = k − [u ∈ sample]` of its `n − 1` potential partners, so
/// `r̂ = cnt · (n−1) / k_eff` and `ŝ = sum · (n−1) / k_eff` estimate the
/// reachable count and distance sum, and the score is
/// `(r̂ / (n−1)) · (r̂ / ŝ)` — the same expression
/// [`crate::centrality::closeness_one`] evaluates. With `samples >= n` all
/// counts are complete, the extrapolation factor is exactly `1.0`, and the
/// result is **bit-identical** to
/// [`crate::centrality::closeness_centrality`] (integer-valued f64
/// arithmetic below 2⁵³ is exact).
///
/// # Panics
///
/// Panics if `samples == 0` on a graph with more than one node.
pub fn closeness_sampled<G: GraphView>(g: &G, samples: usize, seed: u64) -> Vec<f64> {
    let n = g.node_count();
    if n <= 1 {
        return vec![0.0; n];
    }
    assert!(samples > 0, "need at least one sampled source");
    let sources = sample_sources(n, samples, seed);
    let k = sources.len();
    let mut cnt = vec![0u32; n];
    let mut sum = vec![0u64; n];
    let mut in_sample = vec![false; n];
    let mut sc = BfsScratch::new();
    for &s in &sources {
        in_sample[s] = true;
        // Undirected: dist(s, v) = dist(v, s), so one BFS from s credits
        // every reached node's estimate at once.
        crate::traversal::bfs_scratch(g, s, &mut sc);
        for v in 0..n {
            if sc.visited(v) && sc.dist[v] > 0 {
                cnt[v] += 1;
                sum[v] += sc.dist[v] as u64;
            }
        }
    }
    let m = (n - 1) as f64;
    (0..n)
        .map(|u| {
            let k_eff = k - usize::from(in_sample[u]);
            if k_eff == 0 || sum[u] == 0 {
                return 0.0;
            }
            let scale = m / k_eff as f64;
            let r_hat = f64::from(cnt[u]) * scale;
            let s_hat = sum[u] as f64 * scale;
            (r_hat / m) * (r_hat / s_hat)
        })
        .collect()
}

/// Hoeffding-style uniform error bound for [`betweenness_sampled`]: with
/// probability at least `1 − delta`, every node's **pair-normalized**
/// betweenness estimate (raw score divided by `(n−1)(n−2)/2`, the maximum
/// raw undirected score) deviates from the exact value by at most the
/// returned ε.
///
/// Derivation (Brandes–Pich 2007): each sampled source contributes a
/// normalized term in `[0, 1]`, so Hoeffding gives
/// `P(|est − exact| ≥ ε) ≤ 2·exp(−2kε²)` per node; a union bound over `n`
/// nodes yields `ε = sqrt(ln(2n/δ) / (2k))`. The bound is conservative —
/// measured deviations in `BENCH_scale.json` sit well inside it.
///
/// # Panics
///
/// Panics unless `samples > 0` and `0 < delta < 1`.
pub fn betweenness_epsilon(n: usize, samples: usize, delta: f64) -> f64 {
    assert!(samples > 0, "need at least one sampled source");
    assert!(delta > 0.0 && delta < 1.0, "delta = {delta} not in (0, 1)");
    ((2.0 * n as f64 / delta).ln() / (2.0 * samples as f64)).sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::centrality::{betweenness_centrality, closeness_centrality};
    use crate::generators;

    #[test]
    fn sample_sources_sorted_unique_and_degenerate() {
        let s = sample_sources(100, 20, 3);
        assert_eq!(s.len(), 20);
        assert!(s.windows(2).all(|w| w[0] < w[1]), "sorted and unique: {s:?}");
        assert!(s.iter().all(|&v| v < 100));
        assert_eq!(sample_sources(10, 10, 3), (0..10).collect::<Vec<_>>());
        assert_eq!(sample_sources(10, 99, 3), (0..10).collect::<Vec<_>>());
        assert_eq!(sample_sources(50, 7, 5), sample_sources(50, 7, 5));
        assert_ne!(sample_sources(50, 7, 5), sample_sources(50, 7, 6));
    }

    #[test]
    fn full_sampling_is_bitwise_exact() {
        for seed in [1, 99] {
            let g = generators::erdos_renyi(70, 0.08, seed).unwrap();
            assert_eq!(betweenness_sampled(&g, 70, 5, 1), betweenness_centrality(&g, 1));
            assert_eq!(betweenness_sampled(&g, 1000, 5, 1), betweenness_centrality(&g, 1));
            assert_eq!(closeness_sampled(&g, 70, 5), closeness_centrality(&g, 1));
            assert_eq!(closeness_sampled(&g, 1000, 5), closeness_centrality(&g, 1));
        }
    }

    #[test]
    fn sampled_betweenness_within_epsilon_bound() {
        let n = 120;
        let g = generators::barabasi_albert(n, 3, 11).unwrap();
        let exact = betweenness_centrality(&g, 1);
        let approx = betweenness_sampled(&g, n / 4, 17, 1);
        let norm = ((n - 1) * (n - 2)) as f64 / 2.0;
        let eps = betweenness_epsilon(n, n / 4, 0.05);
        let worst =
            exact.iter().zip(&approx).map(|(e, a)| (e - a).abs() / norm).fold(0.0f64, f64::max);
        assert!(worst <= eps, "normalized deviation {worst} exceeds bound {eps}");
    }

    #[test]
    fn sampled_closeness_tracks_exact_ranking() {
        let g = generators::barabasi_albert(150, 3, 4).unwrap();
        let exact = closeness_centrality(&g, 1);
        let approx = closeness_sampled(&g, 60, 9);
        // Connected BA graph: every estimate positive, scores close, and
        // the clearly-central vs clearly-peripheral contrast survives.
        let worst = exact.iter().zip(&approx).map(|(e, a)| (e - a).abs()).fold(0.0f64, f64::max);
        assert!(worst < 0.12, "worst absolute closeness deviation {worst}");
        let hi = exact.iter().cloned().fold(f64::MIN, f64::max);
        let hub = exact.iter().position(|&e| e == hi).unwrap();
        assert!(approx[hub] >= approx.iter().cloned().fold(f64::MAX, f64::min));
    }

    #[test]
    fn sampled_kernels_are_seeded() {
        let g = generators::watts_strogatz(80, 3, 0.2, 2).unwrap();
        assert_eq!(betweenness_sampled(&g, 20, 5, 1), betweenness_sampled(&g, 20, 5, 1));
        assert_ne!(betweenness_sampled(&g, 20, 5, 1), betweenness_sampled(&g, 20, 6, 1));
        assert_eq!(closeness_sampled(&g, 20, 5), closeness_sampled(&g, 20, 5));
    }

    #[test]
    fn epsilon_bound_shrinks_with_samples() {
        let a = betweenness_epsilon(1000, 10, 0.05);
        let b = betweenness_epsilon(1000, 100, 0.05);
        let c = betweenness_epsilon(1000, 1000, 0.05);
        assert!(a > b && b > c);
        assert!(c > 0.0);
        // Tighter confidence costs a wider interval.
        assert!(betweenness_epsilon(1000, 100, 0.01) > betweenness_epsilon(1000, 100, 0.1));
    }

    #[test]
    fn empty_and_tiny_graphs() {
        let g = crate::Graph::new(0);
        assert!(betweenness_sampled(&g, 5, 0, 1).is_empty());
        assert!(closeness_sampled(&g, 5, 0).is_empty());
        let g = crate::Graph::new(1);
        assert_eq!(closeness_sampled(&g, 5, 0), vec![0.0]);
    }

    #[test]
    fn sampled_kernels_accept_compact_csr() {
        let g = generators::barabasi_albert(100, 2, 8).unwrap();
        let c = g.freeze().unwrap();
        assert_eq!(betweenness_sampled(&g, 25, 3, 1), betweenness_sampled(&c, 25, 3, 1));
        assert_eq!(closeness_sampled(&g, 25, 3), closeness_sampled(&c, 25, 3));
    }
}

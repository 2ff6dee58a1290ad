//! Source-parallel variants of the embarrassingly-parallel kernels.
//!
//! Brandes betweenness, closeness, and all-pairs BFS all decompose into one
//! independent single-source computation per node; these variants fan the
//! sources out over the [`csn_parallel`] work-stealing pool. Every function
//! takes an explicit `jobs` worker count (`1` degenerates to an inline
//! serial loop — no threads spawned).
//!
//! # Determinism
//!
//! The results are **bit-identical** to the serial kernels for any `jobs`,
//! not merely numerically close. Each task computes its source's full
//! per-node vector with the same `_into` kernel the serial code uses
//! ([`crate::centrality::brandes_delta_into`] /
//! [`crate::centrality::closeness_one_into`]), the pool hands results back
//! in task order regardless of which worker ran what, and the single merge
//! loop folds them in strict source order — exactly the f64 additions the
//! serial loop performs, in exactly the same order. The property tests in
//! `tests/csr_props.rs` and `tests/scratch_props.rs` and the perf smoke in
//! `csn-bench` assert this equality.
//!
//! # Allocation
//!
//! Every worker owns one [`crate::scratch`] arena for the whole call (the
//! pool passes the worker index to each task), and `betweenness_par` writes
//! each wave's dependency vectors into a fixed ring of reusable buffers —
//! so a call allocates `O(jobs · n + wave · n)` once, instead of
//! `O(sources · n)` spread over every task. The per-worker scratches sit
//! behind uncontended `Mutex`es: worker `w` is the only thread that ever
//! locks slot `w` (likewise buffer slot `i` within a wave), so the locks
//! exist purely to satisfy the `Sync` bound of the pool's task closure.
//!
//! # Examples
//!
//! ```
//! use csn_graph::{generators, centrality, parallel};
//!
//! let g = generators::barabasi_albert(120, 3, 42).unwrap();
//! let serial = centrality::betweenness_centrality(&g);
//! let par = parallel::betweenness_par(&g, 4);
//! assert_eq!(serial, par);
//! ```

use crate::centrality::{brandes_delta_into, closeness_one_into};
use crate::scratch::{BfsScratch, BrandesScratch};
use crate::traversal::bfs_distances_into;
use crate::view::GraphView;
use std::sync::Mutex;

/// Sources processed per scheduling wave: enough tasks to keep `jobs`
/// workers busy, while bounding live memory to `O(wave · n)` delta vectors.
fn wave_size(jobs: usize) -> usize {
    jobs.max(1) * 4
}

/// One scratch arena per potential worker. `run_indexed` never reports a
/// worker index ≥ `jobs.max(1)` (it clamps downward from there), so slot
/// `w` is touched by exactly one thread per call.
fn worker_scratches<S: Default>(jobs: usize) -> Vec<Mutex<S>> {
    (0..jobs.max(1)).map(|_| Mutex::new(S::default())).collect()
}

/// Betweenness centrality with sources fanned out over `jobs` workers.
/// Bit-identical to [`crate::centrality::betweenness_centrality`].
pub fn betweenness_par<G: GraphView + Sync>(g: &G, jobs: usize) -> Vec<f64> {
    let n = g.node_count();
    let mut bc = vec![0.0f64; n];
    let wave = wave_size(jobs);
    let scratches: Vec<Mutex<BrandesScratch>> = worker_scratches(jobs);
    // Task `i` of a wave writes its dependency vector into buffer `i`;
    // the ring is reused by every wave.
    let buffers: Vec<Mutex<Vec<f64>>> = (0..wave.min(n)).map(|_| Mutex::new(Vec::new())).collect();
    let mut start = 0;
    while start < n {
        let end = (start + wave).min(n);
        csn_parallel::run_indexed(end - start, jobs, |i, w| {
            let mut sc = scratches[w].lock().expect("scratch lock");
            let mut buf = buffers[i].lock().expect("buffer lock");
            brandes_delta_into(g, start + i, &mut sc, &mut buf);
        });
        // Fold in source order: the same additions as the serial loop.
        for buf in buffers.iter().take(end - start) {
            let delta = buf.lock().expect("buffer lock");
            for (b, d) in bc.iter_mut().zip(delta.iter()) {
                *b += d;
            }
        }
        start = end;
    }
    for b in &mut bc {
        *b /= 2.0;
    }
    bc
}

/// Source-sampled betweenness ([`crate::approx::betweenness_sampled`]) with
/// the sampled sources fanned out over `jobs` workers. Bit-identical to the
/// serial sampled kernel for any `jobs` — same wave pipeline as
/// [`betweenness_par`], folding dependency vectors in sampled-source order.
///
/// # Panics
///
/// Panics if `samples == 0` on a non-empty graph (as the serial kernel does).
pub fn betweenness_sampled_par<G: GraphView + Sync>(
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
    let sources = crate::approx::sample_sources(n, samples, seed);
    let k = sources.len();
    let mut bc = vec![0.0f64; n];
    let wave = wave_size(jobs);
    let scratches: Vec<Mutex<BrandesScratch>> = worker_scratches(jobs);
    let buffers: Vec<Mutex<Vec<f64>>> = (0..wave.min(k)).map(|_| Mutex::new(Vec::new())).collect();
    let mut start = 0;
    while start < k {
        let end = (start + wave).min(k);
        csn_parallel::run_indexed(end - start, jobs, |i, w| {
            let mut sc = scratches[w].lock().expect("scratch lock");
            let mut buf = buffers[i].lock().expect("buffer lock");
            brandes_delta_into(g, sources[start + i], &mut sc, &mut buf);
        });
        for buf in buffers.iter().take(end - start) {
            let delta = buf.lock().expect("buffer lock");
            for (b, d) in bc.iter_mut().zip(delta.iter()) {
                *b += d;
            }
        }
        start = end;
    }
    let scale = n as f64 / k as f64;
    for b in &mut bc {
        *b = *b * scale / 2.0;
    }
    bc
}

/// Closeness centrality with sources fanned out over `jobs` workers.
/// Bit-identical to [`crate::centrality::closeness_centrality`].
pub fn closeness_par<G: GraphView + Sync>(g: &G, jobs: usize) -> Vec<f64> {
    let scratches: Vec<Mutex<BfsScratch>> = worker_scratches(jobs);
    let (scores, _) = csn_parallel::run_indexed(g.node_count(), jobs, |u, w| {
        closeness_one_into(g, u, &mut scratches[w].lock().expect("scratch lock"))
    });
    scores
}

/// All-pairs BFS distance vectors with sources fanned out over `jobs`
/// workers. Identical to [`crate::traversal::all_pairs_bfs`]. Each task
/// still allocates its result row (it is returned to the caller), but the
/// BFS working state is per-worker scratch.
pub fn all_pairs_bfs_par<G: GraphView + Sync>(g: &G, jobs: usize) -> Vec<Vec<usize>> {
    let scratches: Vec<Mutex<BfsScratch>> = worker_scratches(jobs);
    let (rows, _) = csn_parallel::run_indexed(g.node_count(), jobs, |s, w| {
        let mut row = Vec::new();
        bfs_distances_into(g, s, &mut scratches[w].lock().expect("scratch lock"), &mut row);
        row
    });
    rows
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::centrality::{betweenness_centrality, closeness_centrality};
    use crate::generators;
    use crate::traversal::all_pairs_bfs;

    #[test]
    fn betweenness_par_bitwise_matches_serial() {
        let g = generators::erdos_renyi(80, 0.08, 21).unwrap();
        let serial = betweenness_centrality(&g);
        for jobs in [1, 2, 4, 7] {
            assert_eq!(serial, betweenness_par(&g, jobs), "jobs={jobs}");
        }
    }

    #[test]
    fn closeness_par_bitwise_matches_serial() {
        let g = generators::barabasi_albert(90, 2, 5).unwrap();
        let serial = closeness_centrality(&g);
        for jobs in [1, 2, 4, 7] {
            assert_eq!(serial, closeness_par(&g, jobs), "jobs={jobs}");
        }
    }

    #[test]
    fn betweenness_sampled_par_bitwise_matches_serial_sampled() {
        let g = generators::barabasi_albert(110, 3, 14).unwrap();
        let serial = crate::approx::betweenness_sampled(&g, 30, 9);
        for jobs in [1, 2, 4, 7] {
            assert_eq!(serial, betweenness_sampled_par(&g, 30, 9, jobs), "jobs={jobs}");
        }
        // Full sampling through the parallel path degenerates to the exact
        // kernel, like the serial sampled path does.
        assert_eq!(betweenness_sampled_par(&g, 110, 9, 4), betweenness_centrality(&g));
    }

    #[test]
    fn all_pairs_bfs_par_matches_serial() {
        let g = generators::watts_strogatz(60, 4, 0.1, 9).unwrap();
        assert_eq!(all_pairs_bfs(&g), all_pairs_bfs_par(&g, 4));
    }

    #[test]
    fn parallel_kernels_accept_frozen_graphs() {
        let g = generators::erdos_renyi(50, 0.1, 33).unwrap();
        let frozen = g.freeze().unwrap();
        assert_eq!(betweenness_par(&frozen, 4), betweenness_centrality(&g));
        assert_eq!(closeness_par(&frozen, 4), closeness_centrality(&g));
    }

    #[test]
    fn empty_graph_is_fine() {
        let g = crate::Graph::new(0);
        assert!(betweenness_par(&g, 4).is_empty());
        assert!(closeness_par(&g, 4).is_empty());
        assert!(all_pairs_bfs_par(&g, 4).is_empty());
    }
}

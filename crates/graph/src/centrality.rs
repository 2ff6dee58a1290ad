//! Node centrality measures surveyed in §III of the paper: degree,
//! closeness, betweenness (Brandes' algorithm), eigenvector centrality,
//! PageRank, and HITS.
//!
//! The paper uses these as the canonical *node-local* importance measures,
//! contrasting them with the *global* structures the rest of the workspace
//! uncovers; PageRank and HITS also reappear in §IV-B as examples of
//! "dynamic labeling" processes.
//!
//! The undirected kernels are generic over [`GraphView`]; PageRank and HITS
//! take a [`Digraph`]. Betweenness and closeness are one source sweep each
//! that takes a `jobs` worker count: the sources fan out over the
//! [`csn_parallel`] work-stealing pool (`jobs = 1` is an inline loop, no
//! threads), and every result is **bit-identical** at any `jobs`. Each
//! source runs the same public per-source kernel ([`brandes_delta_into`],
//! [`closeness_one_into`]), the pool hands results back in task order, and
//! Brandes folds its dependency vectors in source order — the same f64
//! additions in the same order whatever worker ran what.

use crate::graph::{Digraph, NodeId};
use crate::scratch::{BfsScratch, BrandesScratch, NO_PRED};
use crate::view::GraphView;
use std::sync::Mutex;

/// Degree centrality: `degree(u) / (n - 1)`.
pub fn degree_centrality<G: GraphView>(g: &G) -> Vec<f64> {
    let n = g.node_count();
    if n <= 1 {
        return vec![0.0; n];
    }
    let denom = (n - 1) as f64;
    g.nodes().map(|u| g.degree(u) as f64 / denom).collect()
}

/// The `count` highest-degree nodes, highest first, ties to the lower id —
/// the prefix of a full `(−degree, id)` sort, found by one `O(n)` selection
/// plus a sort of the prefix. The result holds exactly `min(count, n)`
/// slots.
pub fn top_by_degree<G: GraphView>(g: &G, count: usize) -> Vec<NodeId> {
    let key = |&u: &NodeId| (std::cmp::Reverse(g.degree(u)), u);
    let mut nodes: Vec<NodeId> = g.nodes().collect();
    let count = count.min(nodes.len());
    if count < nodes.len() {
        nodes.select_nth_unstable_by_key(count, key);
    }
    let mut top = nodes[..count].to_vec();
    top.sort_unstable_by_key(key);
    top
}

/// The closeness score of a single node: one BFS plus the Wasserman–Faust
/// reachable-fraction scaling. [`closeness_centrality`] delegates here.
pub fn closeness_one<G: GraphView>(g: &G, u: NodeId) -> f64 {
    closeness_one_into(g, u, &mut BfsScratch::new())
}

/// [`closeness_one`] over a caller-provided BFS scratch: identical result,
/// zero allocation once the scratch has grown to the graph's size (see the
/// reuse contract in [`crate::scratch`]).
pub fn closeness_one_into<G: GraphView>(g: &G, u: NodeId, scratch: &mut BfsScratch) -> f64 {
    let n = g.node_count();
    crate::traversal::bfs_scratch(g, u, scratch);
    let mut sum = 0usize;
    let mut reachable = 0usize;
    for v in 0..n {
        if scratch.visited(v) && scratch.dist[v] > 0 {
            sum += scratch.dist[v];
            reachable += 1;
        }
    }
    if sum > 0 {
        let r = reachable as f64;
        (r / (n - 1) as f64) * (r / sum as f64)
    } else {
        0.0
    }
}

/// Closeness centrality: `(reachable - 1) / sum_of_distances`, scaled by the
/// reachable fraction (the Wasserman–Faust improvement, robust to
/// disconnected graphs). Isolated nodes score 0. The nodes fan out over
/// `jobs` workers, each reusing one BFS scratch across the nodes it runs;
/// the result is bit-identical at any `jobs`.
pub fn closeness_centrality<G: GraphView + Sync>(g: &G, jobs: usize) -> Vec<f64> {
    let (scores, _) = csn_parallel::run_indexed_stateful(
        g.node_count(),
        jobs,
        |_| BfsScratch::new(),
        |u, scratch| closeness_one_into(g, u, scratch),
    );
    scores
}

/// One source's Brandes dependency vector: `delta[w]` is the contribution of
/// source `s` to the (un-halved) betweenness of `w`, with `delta[s]` forced
/// to `0.0` so callers can fold the whole vector unconditionally.
///
/// [`betweenness_centrality`] and [`crate::approx::betweenness_sampled`]
/// accumulate exactly these vectors in source order, so summing this
/// function's output over the same sources agrees with them bit-for-bit.
pub fn brandes_delta<G: GraphView>(g: &G, s: NodeId) -> Vec<f64> {
    let mut out = Vec::new();
    brandes_delta_into(g, s, &mut BrandesScratch::new(), &mut out);
    out
}

/// [`brandes_delta`] into a caller-provided scratch and output vector:
/// bit-identical results, zero allocation once both have grown to the
/// graph's size. The scratch may have been used on any other graph before
/// (see the reuse contract in [`crate::scratch`]); `out` is overwritten.
///
/// Predecessor lists live in the scratch's flat store, chained newest-first;
/// the iteration order differs from the fresh-alloc path's `Vec<Vec<_>>`
/// table, but within one sink `w` every predecessor `v` is distinct and its
/// contribution `sigma[v] / sigma[w] * (1.0 + delta[w])` reads only values
/// fixed for the whole of `w`'s processing, so each `delta[v]` sees the same
/// additions in the same cross-`w` order — the f64 output is bit-identical.
pub fn brandes_delta_into<G: GraphView>(
    g: &G,
    s: NodeId,
    sc: &mut BrandesScratch,
    out: &mut Vec<f64>,
) {
    let n = g.node_count();
    sc.begin(n);
    sc.discover(s, 0);
    sc.sigma[s] = 1.0;
    sc.queue.push_back(s);
    while let Some(u) = sc.queue.pop_front() {
        sc.stack.push(u);
        let du = sc.dist[u];
        for v in g.neighbors(u) {
            if !sc.discovered(v) {
                sc.discover(v, du + 1);
                sc.queue.push_back(v);
            }
            if sc.dist[v] == du + 1 {
                sc.sigma[v] += sc.sigma[u];
                sc.push_pred(v, u);
            }
        }
    }
    // Dependency accumulation in reverse BFS order; the stack is kept (not
    // popped) so the touched entries can be reset afterwards.
    for i in (0..sc.stack.len()).rev() {
        let w = sc.stack[i];
        let mut p = sc.pred_head[w];
        while p != NO_PRED {
            let v = sc.pred_node[p];
            sc.delta[v] += sc.sigma[v] / sc.sigma[w] * (1.0 + sc.delta[w]);
            p = sc.pred_next[p];
        }
    }
    out.clear();
    out.resize(n, 0.0);
    for &w in &sc.stack {
        out[w] = sc.delta[w];
    }
    out[s] = 0.0;
    sc.reset_round();
}

/// The Brandes source sweep: the sum of the dependency vectors of
/// `sources`, fanned out over `jobs` workers in waves and folded in source
/// order — the same f64 additions as a serial loop over `sources`, at any
/// `jobs`.
///
/// Each worker owns one scratch for the whole call, and each wave writes
/// its dependency vectors into a ring of buffers reused by every wave, so
/// a call allocates `O(workers · n + wave · n)` once. The pool is called
/// once per wave, so the scratches outlive each pool call: they sit behind
/// uncontended `Mutex`es (worker `w` is the only thread that locks slot `w`,
/// task `i` the only one that locks buffer `i`), which satisfy the `Sync`
/// bound of the pool's task closure.
pub(crate) fn brandes_sweep<G: GraphView + Sync>(
    g: &G,
    sources: &[NodeId],
    jobs: usize,
) -> Vec<f64> {
    let mut bc = vec![0.0f64; g.node_count()];
    // Four sources per worker and wave: enough tasks that stealing balances
    // uneven sources, while live memory stays `O(wave · n)` dependency
    // vectors. Saturating, so any `jobs` runs.
    let wave = jobs.max(1).saturating_mul(4);
    let tasks = wave.min(sources.len());
    // The pool runs at most `min(jobs, tasks)` workers and never reports a
    // worker index past them.
    let scratches: Vec<Mutex<BrandesScratch>> =
        (0..jobs.clamp(1, tasks.max(1))).map(|_| Mutex::new(BrandesScratch::new())).collect();
    let buffers: Vec<Mutex<Vec<f64>>> = (0..tasks).map(|_| Mutex::new(Vec::new())).collect();
    for chunk in sources.chunks(wave) {
        csn_parallel::run_indexed(chunk.len(), jobs, |i, w| {
            let mut sc = scratches[w].lock().expect("scratch lock");
            let mut buf = buffers[i].lock().expect("buffer lock");
            brandes_delta_into(g, chunk[i], &mut sc, &mut buf);
        });
        for buf in &buffers[..chunk.len()] {
            let delta = buf.lock().expect("buffer lock");
            for (b, d) in bc.iter_mut().zip(delta.iter()) {
                *b += d;
            }
        }
    }
    bc
}

/// Betweenness centrality via Brandes' algorithm (unweighted), with the
/// sources fanned out over `jobs` workers; the result is bit-identical at
/// any `jobs`.
///
/// Returns raw (unnormalized) scores; for undirected graphs each pair is
/// counted once (scores are halved at the end).
///
/// # Examples
///
/// ```
/// use csn_graph::{Graph, centrality::betweenness_centrality};
///
/// // Path 0-1-2: the middle node bridges the single pair (0, 2).
/// let g = Graph::from_edges(3, &[(0, 1), (1, 2)]).unwrap();
/// let b = betweenness_centrality(&g, 1);
/// assert_eq!(b, vec![0.0, 1.0, 0.0]);
/// assert_eq!(betweenness_centrality(&g, 4), b);
/// ```
pub fn betweenness_centrality<G: GraphView + Sync>(g: &G, jobs: usize) -> Vec<f64> {
    let sources: Vec<NodeId> = g.nodes().collect();
    let mut bc = brandes_sweep(g, &sources, jobs);
    // Each undirected pair was counted from both endpoints.
    for b in &mut bc {
        *b /= 2.0;
    }
    bc
}

/// Naive betweenness via all-pairs BFS path counting; `O(n² · m)`.
/// Reference implementation used to validate [`betweenness_centrality`].
pub fn betweenness_naive<G: GraphView>(g: &G) -> Vec<f64> {
    let n = g.node_count();
    let mut bc = vec![0.0f64; n];
    for s in 0..n {
        let dist = crate::traversal::bfs_distances(g, s);
        for t in (s + 1)..n {
            if dist[t] == usize::MAX {
                continue;
            }
            // Count shortest paths s->t and through each v by DP over BFS DAG.
            let (total, through) = count_paths(g, s, t, &dist);
            if total == 0.0 {
                continue;
            }
            for v in 0..n {
                if v != s && v != t {
                    bc[v] += through[v] / total;
                }
            }
        }
    }
    bc
}

fn count_paths<G: GraphView>(g: &G, s: NodeId, t: NodeId, dist_s: &[usize]) -> (f64, Vec<f64>) {
    let n = g.node_count();
    let dist_t = crate::traversal::bfs_distances(g, t);
    let d = dist_s[t];
    // sigma_from_s[v]: shortest paths s->v; sigma_to_t[v]: shortest paths v->t.
    let mut order: Vec<NodeId> = (0..n).filter(|&v| dist_s[v] != usize::MAX).collect();
    order.sort_by_key(|&v| dist_s[v]);
    let mut from_s = vec![0.0f64; n];
    from_s[s] = 1.0;
    for &v in &order {
        for w in g.neighbors(v) {
            if dist_s[w] == dist_s[v] + 1 {
                from_s[w] += from_s[v];
            }
        }
    }
    let mut order_t: Vec<NodeId> = (0..n).filter(|&v| dist_t[v] != usize::MAX).collect();
    order_t.sort_by_key(|&v| dist_t[v]);
    let mut to_t = vec![0.0f64; n];
    to_t[t] = 1.0;
    for &v in &order_t {
        for w in g.neighbors(v) {
            if dist_t[w] == dist_t[v] + 1 {
                to_t[w] += to_t[v];
            }
        }
    }
    let total = from_s[t];
    let mut through = vec![0.0f64; n];
    for v in 0..n {
        if dist_s[v] != usize::MAX && dist_t[v] != usize::MAX && dist_s[v] + dist_t[v] == d {
            through[v] = from_s[v] * to_t[v];
        }
    }
    (total, through)
}

/// Eigenvector centrality by power iteration on the adjacency matrix;
/// L2-normalized. Returns `None` if the iteration fails to converge in
/// `max_iter` steps (e.g. bipartite oscillation without damping).
pub fn eigenvector_centrality<G: GraphView>(g: &G, max_iter: usize, tol: f64) -> Option<Vec<f64>> {
    let n = g.node_count();
    if n == 0 {
        return Some(Vec::new());
    }
    let mut x = vec![1.0 / (n as f64).sqrt(); n];
    for _ in 0..max_iter {
        let mut next = vec![0.0f64; n];
        for u in g.nodes() {
            for v in g.neighbors(u) {
                next[u] += x[v];
            }
            // Shifted iteration (A + I): same eigenvectors, breaks the
            // bipartite ±λ oscillation and speeds convergence.
            next[u] += x[u];
        }
        let norm = next.iter().map(|v| v * v).sum::<f64>().sqrt();
        if norm == 0.0 {
            return Some(vec![0.0; n]);
        }
        for v in &mut next {
            *v /= norm;
        }
        let diff: f64 = next.iter().zip(&x).map(|(a, b)| (a - b).abs()).sum();
        x = next;
        if diff < tol {
            return Some(x);
        }
    }
    None
}

/// PageRank on a digraph with damping `d`; dangling mass is redistributed
/// uniformly. Scores sum to 1.
///
/// The paper lists PageRank as an eigenvector-centrality variant (§III) and
/// as a "dynamic labeling" process (§IV-B). Returns the score vector and the
/// number of iterations performed.
pub fn pagerank(g: &Digraph, d: f64, max_iter: usize, tol: f64) -> (Vec<f64>, usize) {
    let n = g.node_count();
    if n == 0 {
        return (Vec::new(), 0);
    }
    let uniform = 1.0 / n as f64;
    let mut rank = vec![uniform; n];
    for iter in 1..=max_iter {
        let mut next = vec![(1.0 - d) * uniform; n];
        let mut dangling = 0.0;
        for u in g.nodes() {
            let deg = g.out_degree(u);
            if deg == 0 {
                dangling += rank[u];
            } else {
                let share = d * rank[u] / deg as f64;
                for &v in g.out_neighbors(u) {
                    next[v] += share;
                }
            }
        }
        let dangling_share = d * dangling * uniform;
        for v in &mut next {
            *v += dangling_share;
        }
        let diff: f64 = next.iter().zip(&rank).map(|(a, b)| (a - b).abs()).sum();
        rank = next;
        if diff < tol {
            return (rank, iter);
        }
    }
    (rank, max_iter)
}

/// HITS hubs-and-authorities scores `(hubs, authorities)`, L2-normalized
/// (Kleinberg; the paper's other §IV-B dynamic-labeling example).
pub fn hits(g: &Digraph, max_iter: usize, tol: f64) -> (Vec<f64>, Vec<f64>) {
    let n = g.node_count();
    let mut hub = vec![1.0f64; n];
    let mut auth = vec![1.0f64; n];
    for _ in 0..max_iter {
        let mut new_auth = vec![0.0f64; n];
        for v in g.nodes() {
            for &u in g.in_neighbors(v) {
                new_auth[v] += hub[u];
            }
        }
        normalize(&mut new_auth);
        let mut new_hub = vec![0.0f64; n];
        for u in g.nodes() {
            for &v in g.out_neighbors(u) {
                new_hub[u] += new_auth[v];
            }
        }
        normalize(&mut new_hub);
        let diff: f64 = new_hub.iter().zip(&hub).map(|(a, b)| (a - b).abs()).sum::<f64>()
            + new_auth.iter().zip(&auth).map(|(a, b)| (a - b).abs()).sum::<f64>();
        hub = new_hub;
        auth = new_auth;
        if diff < tol {
            break;
        }
    }
    (hub, auth)
}

fn normalize(v: &mut [f64]) {
    let norm = v.iter().map(|x| x * x).sum::<f64>().sqrt();
    if norm > 0.0 {
        for x in v {
            *x /= norm;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;
    use crate::graph::{Digraph, Graph};

    #[test]
    fn degree_centrality_of_star_center_is_one() {
        let g = generators::star(4);
        let dc = degree_centrality(&g);
        assert_eq!(dc[0], 1.0);
        assert!((dc[1] - 0.25).abs() < 1e-12);
    }

    #[test]
    fn top_by_degree_is_the_prefix_of_a_full_degree_sort() {
        let g = generators::barabasi_albert(300, 2, 4).unwrap();
        let mut sorted: Vec<NodeId> = g.nodes().collect();
        sorted.sort_by_key(|&u| (std::cmp::Reverse(g.degree(u)), u));
        for count in [0, 1, 7, 64, 299, 300, 1000] {
            let top = top_by_degree(&g, count);
            assert_eq!(top, sorted[..count.min(300)], "count {count}");
            assert_eq!(top.capacity(), count.min(300), "count {count}");
        }
        assert!(top_by_degree(&Graph::new(0), 5).is_empty());
    }

    #[test]
    fn closeness_highest_at_path_center() {
        let g = generators::path(5);
        let cc = closeness_centrality(&g, 1);
        assert!(cc[2] > cc[1] && cc[1] > cc[0]);
        assert!((cc[2] - 4.0 / 6.0).abs() < 1e-12);
    }

    #[test]
    fn closeness_handles_disconnected() {
        let g = Graph::from_edges(4, &[(0, 1)]).unwrap();
        let cc = closeness_centrality(&g, 1);
        assert_eq!(cc[2], 0.0);
        assert!(cc[0] > 0.0);
    }

    #[test]
    fn betweenness_on_path_matches_closed_form() {
        // On a path of n nodes, bc(i) = i * (n-1-i).
        let g = generators::path(6);
        let bc = betweenness_centrality(&g, 1);
        for (i, &b) in bc.iter().enumerate() {
            assert!((b - (i * (5 - i)) as f64).abs() < 1e-9, "node {i}: {b}");
        }
    }

    #[test]
    fn betweenness_of_star_center() {
        // Center bridges all C(k,2) leaf pairs.
        let g = generators::star(5);
        let bc = betweenness_centrality(&g, 1);
        assert!((bc[0] - 10.0).abs() < 1e-9);
        assert_eq!(bc[1], 0.0);
    }

    #[test]
    fn brandes_matches_naive_on_random_graph() {
        let g = generators::erdos_renyi(40, 0.15, 99).unwrap();
        let fast = betweenness_centrality(&g, 1);
        let slow = betweenness_naive(&g);
        for (a, b) in fast.iter().zip(&slow) {
            assert!((a - b).abs() < 1e-6, "{a} vs {b}");
        }
    }

    #[test]
    fn scratch_reuse_is_bitwise_identical_across_graphs() {
        // One scratch carried across sources of two different graphs (the
        // second smaller than the first) must reproduce the fresh-alloc
        // path bit-for-bit — stale stamps, sigma, or delta must not leak.
        let g1 = generators::erdos_renyi(60, 0.1, 11).unwrap();
        let g2 = generators::star(7);
        let mut sc = crate::scratch::BrandesScratch::new();
        let mut buf = Vec::new();
        for _ in 0..2 {
            for s in 0..60 {
                brandes_delta_into(&g1, s, &mut sc, &mut buf);
                assert_eq!(buf, brandes_delta(&g1, s), "g1 source {s}");
            }
            for s in 0..8 {
                brandes_delta_into(&g2, s, &mut sc, &mut buf);
                assert_eq!(buf, brandes_delta(&g2, s), "g2 source {s}");
            }
        }
        let mut bfs = crate::scratch::BfsScratch::new();
        for s in 0..60 {
            let one = closeness_one(&g1, s);
            assert!(closeness_one_into(&g1, s, &mut bfs).to_bits() == one.to_bits());
        }
    }

    #[test]
    fn centrality_bitwise_identical_on_frozen_graph() {
        // Freezing preserves neighbor order, so even the f64 accumulation
        // order is the same — exact equality, not tolerance.
        let g = generators::erdos_renyi(40, 0.15, 7).unwrap();
        let frozen = g.freeze().unwrap();
        assert_eq!(betweenness_centrality(&g, 1), betweenness_centrality(&frozen, 1));
        assert_eq!(closeness_centrality(&g, 1), closeness_centrality(&frozen, 1));
        assert_eq!(degree_centrality(&g), degree_centrality(&frozen));
    }

    #[test]
    fn eigenvector_centrality_ranks_hub_highest() {
        let g = generators::star(5);
        let ec = eigenvector_centrality(&g, 1000, 1e-10).expect("converges");
        for leaf in 1..=5 {
            assert!(ec[0] > ec[leaf]);
        }
    }

    #[test]
    fn pagerank_sums_to_one_and_ranks_authority() {
        let mut d = Digraph::new(4);
        // All point to node 3.
        d.add_arc(0, 3);
        d.add_arc(1, 3);
        d.add_arc(2, 3);
        let (pr, iters) = pagerank(&d, 0.85, 200, 1e-12);
        assert!((pr.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        assert!(pr[3] > pr[0]);
        assert!(iters > 1);
    }

    #[test]
    fn pagerank_uniform_on_cycle() {
        let mut d = Digraph::new(4);
        for i in 0..4 {
            d.add_arc(i, (i + 1) % 4);
        }
        let (pr, _) = pagerank(&d, 0.85, 500, 1e-12);
        for &p in &pr {
            assert!((p - 0.25).abs() < 1e-9);
        }
    }

    #[test]
    fn hits_identifies_hub_and_authority() {
        // 0 and 1 are hubs pointing at authorities 2 and 3.
        let d = Digraph::from_arcs(4, &[(0, 2), (0, 3), (1, 2), (1, 3)]).unwrap();
        let (hub, auth) = hits(&d, 100, 1e-10);
        assert!(hub[0] > auth[0]);
        assert!(auth[2] > hub[2]);
        assert!((hub[0] - hub[1]).abs() < 1e-9);
        assert!((auth[2] - auth[3]).abs() < 1e-9);
    }
}

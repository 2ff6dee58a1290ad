//! The frozen serve index: [`ServeIndex`], [`ServeConfig`], [`ServeScratch`].
//!
//! Load a graph once, freeze it, precompute everything a query can ask for
//! — landmark distance tables, NSF levels, core numbers, top-k centrality
//! ranks, per-node sorted forwarding sets, an optional hypercube
//! safety-level overlay, and an optional journey store — then answer
//! [`Query`] values through [`ServeIndex::answer`] without ever mutating
//! the index. All mutable working memory lives in a caller-owned
//! [`ServeScratch`] (one per serving worker), so `&ServeIndex` is shared
//! freely across the sharded read path in [`crate::shard`].
//!
//! # Performance
//!
//! Build cost is the landmark tables — one bit-parallel multi-source BFS
//! per 64 landmarks, so up to 64 landmarks share one traversal (see
//! [`LandmarkIndex::build`]) — plus one NSF peel and one core
//! decomposition; see `SERVING.md` for the measured build times and the
//! index memory model
//! ([`ServeIndex::heap_bytes`] reports the real footprint, dominated by the
//! node-major `n × k` `u32` landmark table). The per-node NSF-level and
//! core-number columns and the forwarding-set entries are `u32` as well:
//! every value is below `n`, which the landmark build has already checked
//! fits. An attached trace adds its journey store, built once in
//! [`ServeIndex::with_temporal`]: 16 B per label run, 20 B per distinct
//! contact pair and 8 B per trace node and per time unit (see
//! `temporal.rs`). Answer cost per query kind: `O(k)` over two contiguous
//! `k`-entry rows for bounds, `O(k)` + a scratch-arena BFS only on a bound
//! miss for exact distances, `O(1)` lookups for structure/rank,
//! `O(|F(u)|)` copy for forwarding sets, `O(dims²)` for safety routes, and
//! for journeys one forward pass from `start`: the closure of the arrived
//! set plus, per later unit, only the runs that begin there.

use crate::query::{Query, Response, UNREACHABLE};
use crate::temporal::{JourneyScratch, JourneyStore};
use csn_graph::centrality::top_by_degree;
use csn_graph::scratch::BfsScratch;
use csn_graph::traversal::bfs_distances_into;
use csn_graph::{GraphView, LandmarkIndex, NodeId};
use csn_labeling::safety::SafetyLevels;
use csn_temporal::TimeEvolvingGraph;
use csn_trimming::incremental::push_forwarding_set;
use std::collections::HashSet;

/// Build-time knobs for [`ServeIndex::build`]. Every field has a sensible
/// default (`ServeConfig::default()`), and the whole build is deterministic
/// per `(graph, config)`.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeConfig {
    /// Landmark count `k` for the distance tables (capped at `n`). `0` is
    /// accepted and leaves the tables empty: every `Distance` on distinct
    /// nodes answers `[0, UNREACHABLE]`, and every `DistanceExact` on
    /// distinct nodes takes the BFS fallback.
    pub landmarks: usize,
    /// Seed for the random half of landmark selection.
    pub landmark_seed: u64,
    /// Size of the centrality rank table (top-k by degree, ties to the
    /// lower id), capped at `n`: a larger value ranks every node.
    pub top_k: usize,
    /// Frozen trim overlay: directed arcs `u → v` excluded from `u`'s
    /// forwarding set (the §III-A static-rule output).
    pub trimmed_arcs: Vec<(NodeId, NodeId)>,
    /// Upper bound on the dimension of the hypercube safety-level overlay;
    /// the overlay uses `min(floor(log2 n), cap)` dimensions and is omitted
    /// entirely when that is zero.
    pub safety_dims_cap: u32,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            landmarks: 16,
            landmark_seed: 0xC5,
            top_k: 64,
            trimmed_arcs: Vec::new(),
            safety_dims_cap: 10,
        }
    }
}

/// Rank sentinel in the node → rank table ("not in the top-k").
const UNRANKED: u32 = u32::MAX;

/// An immutable, precomputed query-serving index over a frozen graph.
/// See the [module docs](self) and [`ServeIndex::answer`] for what each
/// [`Query`] kind reads.
#[derive(Debug, Clone)]
pub struct ServeIndex<G> {
    g: G,
    landmarks: LandmarkIndex,
    nsf: Vec<u32>,
    cores: Vec<u32>,
    degeneracy: usize,
    /// Node → rank position, [`UNRANKED`] outside the top-k.
    rank_of: Vec<u32>,
    /// The top-k nodes in rank order (for introspection / bench reporting).
    top: Vec<NodeId>,
    /// Forwarding sets in CSR layout: `fwd[fwd_off[u]..fwd_off[u + 1]]` is
    /// node `u`'s live set, sorted ascending. The offsets stay `usize`:
    /// `2m` can pass `u32::MAX` for a graph whose ids fit `u32`.
    fwd_off: Vec<usize>,
    fwd: Vec<u32>,
    safety: Option<SafetyLevels>,
    journeys: Option<JourneyStore>,
}

/// Per-worker mutable working memory for [`ServeIndex::answer`]: a BFS
/// arena and distance buffer for exact-distance fallbacks, and the arrived
/// marks of journey answers. Every buffer grows on first use, so a fresh
/// scratch allocates nothing. Reuse across queries is observationally
/// invisible — answers are pure functions of `(index, query)`.
#[derive(Debug)]
pub struct ServeScratch {
    bfs: BfsScratch,
    dist: Vec<usize>,
    journey: JourneyScratch,
}

impl ServeScratch {
    /// Adjacency and appear-list entries scanned by every journey answered
    /// through this scratch: an exact work count that repeats run to run.
    pub fn journey_entries_scanned(&self) -> u64 {
        self.journey.scanned
    }
}

impl<G: GraphView> ServeIndex<G> {
    /// Freezes `g` behind a fully precomputed index. Deterministic per
    /// `(g, cfg)`; `g` is moved in and never mutated.
    pub fn build(g: G, cfg: &ServeConfig) -> Self {
        let n = g.node_count();
        // Asserts `n < u32::MAX`, so every id and per-node label fits `u32`.
        let landmarks = LandmarkIndex::build(&g, cfg.landmarks, cfg.landmark_seed);
        let nsf: Vec<u32> = csn_layering::nsf::nsf_levels(&g).iter().map(narrow).collect();
        let cores: Vec<u32> = csn_graph::cores::core_numbers(&g).iter().map(narrow).collect();
        let degeneracy = cores.iter().copied().max().map_or(0, |d| d as usize);

        // Top-k by degree, ties to the lower id — the same ordering the
        // sampled-centrality tier reports.
        let top = top_by_degree(&g, cfg.top_k);
        let mut rank_of = vec![UNRANKED; n];
        for (r, &u) in top.iter().enumerate() {
            rank_of[u] = u32::try_from(r).expect("top_k fits u32");
        }

        // Live forwarding sets under the frozen trim overlay, flattened.
        let cut: HashSet<(NodeId, NodeId)> = cfg.trimmed_arcs.iter().copied().collect();
        let mut fwd_off = Vec::with_capacity(n + 1);
        // Each set is a subset of the node's row: 2m slots hold them all.
        let mut fwd = Vec::with_capacity(2 * g.edge_count());
        let mut set = Vec::new();
        fwd_off.push(0);
        for u in g.nodes() {
            set.clear();
            push_forwarding_set(&g, &cut, u, &mut set);
            fwd.extend(set.iter().map(narrow));
            fwd_off.push(fwd.len());
        }

        // Safety-level overlay: an `dims`-cube labeled from the graph's
        // core structure — address `a` (a node id, since `2^dims <= n`) is
        // marked faulty when its core number falls below half the
        // degeneracy. Deterministic, and exercises the §IV-C routing rule
        // with a fault set that tracks the graph's actual periphery.
        let dims = if n < 2 { 0 } else { (n.ilog2()).min(cfg.safety_dims_cap) };
        let safety = (dims > 0).then(|| {
            let faulty: Vec<bool> =
                (0..1usize << dims).map(|a| cores[a] as usize * 2 < degeneracy).collect();
            SafetyLevels::compute(dims, &faulty)
        });

        ServeIndex {
            g,
            landmarks,
            nsf,
            cores,
            degeneracy,
            rank_of,
            top,
            fwd_off,
            fwd,
            safety,
            journeys: None,
        }
    }

    /// Attaches a contact trace so [`Query::Journey`] can be answered; the
    /// trace's node ids must be meaningful to the caller (they need not
    /// match the static graph's). Builds the journey store once, an index
    /// of the trace's label runs that every worker reads, then drops the
    /// trace: the index keeps only its node count.
    ///
    /// # Panics
    ///
    /// If `eg` has `u32::MAX` or more nodes or label runs (the store keeps
    /// ids as `u32`).
    pub fn with_temporal(mut self, eg: TimeEvolvingGraph) -> Self {
        self.journeys = Some(JourneyStore::new(&eg));
        self
    }

    /// The indexed graph.
    pub fn graph(&self) -> &G {
        &self.g
    }

    /// The landmark distance tables.
    pub fn landmarks(&self) -> &LandmarkIndex {
        &self.landmarks
    }

    /// The top-k nodes in rank order.
    pub fn top_ranked(&self) -> &[NodeId] {
        &self.top
    }

    /// Dimension of the safety overlay (0 = none).
    pub fn safety_dims(&self) -> u32 {
        self.safety.as_ref().map_or(0, SafetyLevels::dims)
    }

    /// Degeneracy (maximum core number) of the indexed graph — the pivot of
    /// the derived fault rule in the safety overlay.
    pub fn degeneracy(&self) -> usize {
        self.degeneracy
    }

    /// A fresh scratch sized for this index — one per serving worker.
    pub fn scratch(&self) -> ServeScratch {
        ServeScratch {
            bfs: BfsScratch::new(),
            dist: Vec::new(),
            journey: JourneyScratch::default(),
        }
    }

    /// Answers one query. Pure in `(self, q)` — scratch reuse never shows
    /// in the response, which is what lets the sharded read path be
    /// bit-identical to serial at any worker count. A query naming an id
    /// outside the index (see [`Response::Invalid`]) is answered
    /// `Invalid`; no query panics.
    pub fn answer(&self, q: &Query, scratch: &mut ServeScratch) -> Response {
        if !self.in_range(q) {
            return Response::Invalid;
        }
        match *q {
            Query::Distance { u, v } => {
                let b = self.landmarks.bounds(u, v);
                Response::Bounds { lower: b.lower, upper: b.upper }
            }
            Query::DistanceExact { u, v } => {
                let b = self.landmarks.bounds(u, v);
                if b.is_exact() {
                    Response::Exact { dist: b.lower, fallback: false }
                } else {
                    bfs_distances_into(&self.g, u, &mut scratch.bfs, &mut scratch.dist);
                    let d = scratch.dist[v];
                    let dist = if d == usize::MAX {
                        UNREACHABLE
                    } else {
                        u32::try_from(d).expect("hop distance fits u32")
                    };
                    Response::Exact { dist, fallback: true }
                }
            }
            Query::ForwardingSet { u } => {
                let set = &self.fwd[self.fwd_off[u]..self.fwd_off[u + 1]];
                Response::ForwardingSet(set.iter().map(|&v| v as NodeId).collect())
            }
            Query::Structure { u } => Response::Structure {
                nsf_level: self.nsf[u] as usize,
                core: self.cores[u] as usize,
            },
            Query::Rank { u } => {
                let r = self.rank_of[u];
                Response::Rank {
                    rank: (r != UNRANKED).then_some(r as usize),
                    degree: self.g.degree(u),
                }
            }
            Query::SafetyRoute { source, dest } => {
                Response::SafetyRoute(self.safety.as_ref().and_then(|s| s.route(source, dest)))
            }
            Query::Journey { source, target, start } => Response::Arrival(
                self.journeys
                    .as_ref()
                    .and_then(|j| j.earliest_arrival(source, target, start, &mut scratch.journey)),
            ),
        }
    }

    /// Whether every id `q` names lies inside the index: graph nodes for
    /// the five node-keyed kinds, overlay addresses for a safety route and
    /// trace nodes for a journey. A kind whose structure the index lacks
    /// (no overlay, no contact trace) is in range and answers `None`.
    fn in_range(&self, q: &Query) -> bool {
        let n = self.g.node_count();
        match *q {
            Query::Distance { u, v } | Query::DistanceExact { u, v } => u < n && v < n,
            Query::ForwardingSet { u } | Query::Structure { u } | Query::Rank { u } => u < n,
            Query::SafetyRoute { source, dest } => self.safety.as_ref().is_none_or(|s| {
                let space = 1usize << s.dims();
                source < space && dest < space
            }),
            Query::Journey { source, target, .. } => self.journeys.as_ref().is_none_or(|j| {
                let n = j.node_count();
                source < n && target < n
            }),
        }
    }

    /// Heap bytes held by the precomputed tables, the journey store
    /// included (graph storage excluded — the graph reports its own
    /// footprint). Dominated by the landmark table on a large graph and by
    /// the journey store on a small graph with a long trace; see
    /// SERVING.md.
    pub fn heap_bytes(&self) -> usize {
        use std::mem::size_of;
        self.landmarks.heap_bytes()
            + self.nsf.capacity() * size_of::<u32>()
            + self.cores.capacity() * size_of::<u32>()
            + self.rank_of.capacity() * size_of::<u32>()
            + self.top.capacity() * size_of::<NodeId>()
            + self.fwd_off.capacity() * size_of::<usize>()
            + self.fwd.capacity() * size_of::<u32>()
            + self.journeys.as_ref().map_or(0, JourneyStore::heap_bytes)
    }
}

/// Narrows a node id, per-node label or run index: every one is below a
/// count that [`LandmarkIndex::build`] or [`JourneyStore::new`] has checked
/// is below `u32::MAX`.
pub(crate) fn narrow(x: &usize) -> u32 {
    u32::try_from(*x).expect("values below a checked count fit u32")
}

#[cfg(test)]
mod tests {
    use super::*;
    use csn_graph::{generators, traversal, Graph};

    fn ba(n: usize, m: usize, seed: u64) -> Graph {
        generators::barabasi_albert(n, m, seed).unwrap()
    }

    #[test]
    fn exact_distance_matches_bfs_truth_with_and_without_fallback() {
        let g = ba(120, 2, 3);
        let idx = ServeIndex::build(g.clone(), &ServeConfig::default());
        let mut scratch = idx.scratch();
        let (mut hits, mut misses) = (0, 0);
        for u in (0..120).step_by(13) {
            let truth = traversal::bfs_distances(&g, u);
            for v in 0..120 {
                match idx.answer(&Query::DistanceExact { u, v }, &mut scratch) {
                    Response::Exact { dist, fallback } => {
                        assert_eq!(dist as usize, truth[v], "d({u},{v})");
                        if fallback {
                            misses += 1;
                        } else {
                            hits += 1;
                        }
                    }
                    other => panic!("unexpected response {other:?}"),
                }
            }
        }
        assert!(hits > 0, "some bounds should be tight");
        let _ = misses; // miss rate is graph-dependent; correctness is the gate
    }

    #[test]
    fn structure_rank_and_forwarding_read_the_precomputed_tables() {
        let g = ba(90, 3, 7);
        let cfg = ServeConfig { top_k: 5, trimmed_arcs: vec![(0, 1)], ..ServeConfig::default() };
        let nsf = csn_layering::nsf::nsf_levels(&g);
        let cores = csn_graph::cores::core_numbers(&g);
        let fwd = csn_trimming::incremental::forwarding_sets_at(&g, &cfg.trimmed_arcs);
        let idx = ServeIndex::build(g.clone(), &cfg);
        let mut scratch = idx.scratch();
        for u in 0..90 {
            assert_eq!(
                idx.answer(&Query::Structure { u }, &mut scratch),
                Response::Structure { nsf_level: nsf[u], core: cores[u] }
            );
            assert_eq!(
                idx.answer(&Query::ForwardingSet { u }, &mut scratch),
                Response::ForwardingSet(fwd[u].clone()),
                "forwarding set of {u} must match the trimming oracle"
            );
        }
        // Rank table: the top-k are ranked 0.., everyone else unranked, and
        // ranks follow degree with ties to the lower id.
        assert_eq!(idx.top_ranked().len(), 5);
        let mut ranked = 0;
        for u in 0..90 {
            match idx.answer(&Query::Rank { u }, &mut scratch) {
                Response::Rank { rank: Some(r), degree } => {
                    assert_eq!(idx.top_ranked()[r], u);
                    assert_eq!(degree, g.degree(u));
                    ranked += 1;
                }
                Response::Rank { rank: None, degree } => assert_eq!(degree, g.degree(u)),
                other => panic!("unexpected response {other:?}"),
            }
        }
        assert_eq!(ranked, 5);
    }

    #[test]
    fn safety_routes_are_valid_walks_and_respect_bounds() {
        let g = ba(64, 3, 11); // 2^6 nodes → dims = 6
        let idx = ServeIndex::build(g, &ServeConfig::default());
        assert_eq!(idx.safety_dims(), 6);
        let mut scratch = idx.scratch();
        let mut routed = 0;
        for (s, d) in [(0usize, 63usize), (5, 40), (63, 63), (1, 2)] {
            if let Response::SafetyRoute(Some(path)) =
                idx.answer(&Query::SafetyRoute { source: s, dest: d }, &mut scratch)
            {
                assert_eq!(path[0], s);
                assert_eq!(*path.last().unwrap(), d);
                for w in path.windows(2) {
                    assert_eq!((w[0] ^ w[1]).count_ones(), 1, "hypercube hop");
                }
                routed += 1;
            }
        }
        // Out-of-range addresses answer Invalid instead of panicking.
        assert_eq!(
            idx.answer(&Query::SafetyRoute { source: 64, dest: 0 }, &mut scratch),
            Response::Invalid
        );
        let _ = routed; // how many succeed depends on the derived fault set
    }

    #[test]
    fn journey_answers_match_the_heap_oracle() {
        let g = ba(30, 2, 5);
        let eg = csn_temporal::markovian::EdgeMarkovian::new(30, 0.25, 0.3).generate(10, 21);
        let idx = ServeIndex::build(g, &ServeConfig::default()).with_temporal(eg.clone());
        let mut scratch = idx.scratch();
        let mut queries = Vec::new();
        for source in (0..30).step_by(7) {
            for start in [0, 3, 9] {
                let oracle = csn_temporal::journey::earliest_arrival(&eg, source, start);
                for target in 0..30 {
                    let q = Query::Journey { source, target, start };
                    assert_eq!(
                        idx.answer(&q, &mut scratch),
                        Response::Arrival(oracle[target]),
                        "s={source} t={target} start={start}"
                    );
                    queries.push(q);
                }
            }
        }
        // The scan count is exact: a second run through a fresh scratch
        // repeats it.
        let mut again = idx.scratch();
        for q in &queries {
            idx.answer(q, &mut again);
        }
        assert!(scratch.journey_entries_scanned() > 0);
        assert_eq!(again.journey_entries_scanned(), scratch.journey_entries_scanned());
        // Without a contact trace, journeys answer None.
        let bare = ServeIndex::build(ba(10, 2, 1), &ServeConfig::default());
        let mut s2 = bare.scratch();
        assert_eq!(
            bare.answer(&Query::Journey { source: 0, target: 1, start: 0 }, &mut s2),
            Response::Arrival(None)
        );
    }

    #[test]
    fn build_is_deterministic_and_reports_heap_bytes() {
        let g = ba(60, 2, 9);
        let cfg = ServeConfig { top_k: 8, ..ServeConfig::default() };
        let a = ServeIndex::build(g.clone(), &cfg);
        let b = ServeIndex::build(g, &cfg);
        let mut sa = a.scratch();
        let mut sb = b.scratch();
        for u in 0..60 {
            let q = Query::Distance { u, v: (u * 7 + 3) % 60 };
            assert_eq!(a.answer(&q, &mut sa), b.answer(&q, &mut sb));
        }
        // Every table holds exactly the slots it uses.
        let (n, k, m, word) = (60, 16, a.graph().edge_count(), std::mem::size_of::<usize>());
        let tables = [
            n * k * 4,      // landmark distance table
            k * word,       // landmark list
            2 * n * 4,      // NSF level and core number columns
            n * 4,          // rank-of table
            8 * word,       // top-k list
            (n + 1) * word, // forwarding-set offsets
            2 * m * 4,      // forwarding-set entries (no trim)
        ];
        assert_eq!(a.heap_bytes(), tables.iter().sum::<usize>());
    }

    #[test]
    fn heap_bytes_count_the_journey_store_inside_its_budget() {
        // 4 trace nodes, 6 time units, 3 distinct pairs, 4 label runs.
        let mut eg = TimeEvolvingGraph::new(4, 6);
        for t in [0, 1, 4] {
            eg.add_contact(0, 1, t); // runs [0, 1] and [4, 4]
        }
        eg.add_contact(1, 2, 2);
        for t in 3..6 {
            eg.add_contact(2, 3, t); // a run that ends at the horizon
        }
        let (nodes, units, pairs, runs, word) = (4, 6, 3, 4, std::mem::size_of::<usize>());
        let store = [
            runs * 8,           // (start, end) per run
            (pairs + 1) * 4,    // first run of each pair
            (nodes + 1) * word, // adjacency offsets
            2 * pairs * 8,      // (partner, pair) entries
            (units + 1) * word, // appear offsets
            runs * 8,           // (u, v) per run start
        ]
        .iter()
        .sum::<usize>();
        // 16 B per run, 20 B per pair, 8 B per node and per time unit, and
        // one closing offset per offset column.
        let budget = 16 * runs + 20 * (pairs + 1) + 8 * (nodes + 1) + 8 * (units + 1);
        assert!(store <= budget, "{store} B over the {budget} B budget");
        let bare = ServeIndex::build(ba(20, 2, 3), &ServeConfig::default());
        let bytes = bare.heap_bytes();
        assert_eq!(bare.with_temporal(eg).heap_bytes(), bytes + store);
    }
}

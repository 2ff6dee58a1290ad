//! # csn-graph — static-graph substrate
//!
//! Core graph types, generators, and classical algorithms used throughout the
//! `structura` workspace, a reproduction of *"Uncovering the Useful Structures
//! of Complex Networks in Socially-Rich and Dynamic Environments"* (Jie Wu,
//! ICDCS 2017).
//!
//! The paper treats the traditional graph `G = (V, E)` as the baseline model
//! for complex networks (§II). This crate provides that substrate from
//! scratch:
//!
//! * [`Graph`] — simple undirected graphs; [`Digraph`] — directed graphs;
//!   [`WeightedGraph`] and [`WeightedDigraph`].
//! * [`view`] — the [`GraphView`] and [`WeightedGraphView`] traits the
//!   undirected and weighted read-only kernels are generic over; the
//!   directed kernels take a [`Digraph`].
//! * [`compact`] — the one frozen graph, [`CompactCsrGraph`] (`u32` ids and
//!   offsets in two flat arrays), built by [`Graph::freeze`] or straight
//!   from a [`stream`]; cache-friendly for traversal-heavy analysis,
//!   convertible back with [`CompactCsrGraph::thaw`].
//! * [`stream`] — streaming generators ([`stream::BaStream`],
//!   [`stream::GeometricStream`], [`stream::KleinbergStream`],
//!   [`stream::GnutellaStream`]) that replay a seeded edge sequence straight
//!   into [`CompactCsrGraph::from_edge_stream`] — no intermediate adjacency.
//! * [`approx`] — sampled betweenness/closeness
//!   ([`approx::betweenness_sampled`], [`approx::closeness_sampled`]) with
//!   Hoeffding-style error bounds; at full sampling they degenerate
//!   bit-identically to the exact kernels.
//! * [`generators`] — Erdős–Rényi, Barabási–Albert, Watts–Strogatz,
//!   Kleinberg grids, random geometric (unit-disk), hypercubes, generalized
//!   hypercubes, and a Gnutella-like peer-to-peer topology.
//! * [`traversal`] — BFS/DFS, connected components, Tarjan SCC.
//! * [`shortest_path`] — Dijkstra, Bellman–Ford, BFS distances.
//! * [`centrality`] — degree, closeness, betweenness (Brandes),
//!   eigenvector/PageRank, HITS (§III of the paper surveys these).
//!   Betweenness, closeness and [`traversal::all_pairs_bfs`] are one source
//!   sweep each that takes a `jobs` worker count; their results are
//!   bit-identical at any `jobs`.
//! * [`powerlaw`] — discrete power-law MLE fitting used by the nested
//!   scale-free analysis (Fig. 3 / §III-B).
//! * [`cores`] — k-core decomposition.
//! * [`scratch`] — reusable kernel workspaces ([`scratch::BrandesScratch`],
//!   [`scratch::BfsScratch`], [`scratch::DijkstraScratch`]) behind the
//!   zero-allocation `_into` kernel variants.
//!
//! # Performance
//!
//! The single-source kernels come in two forms: the classic signatures
//! ([`centrality::brandes_delta`], [`traversal::bfs_distances`],
//! [`shortest_path::dijkstra`], …) that allocate per call, and `_into`
//! variants ([`centrality::brandes_delta_into`],
//! [`traversal::bfs_distances_into`], [`shortest_path::dijkstra_into`])
//! that run over a caller-owned [`scratch`] arena and a caller-owned output
//! buffer. The classic forms are now thin wrappers over the `_into` forms,
//! so both paths execute the same code and produce **bit-identical**
//! results.
//!
//! The reuse contract (details in [`scratch`]): a scratch never needs
//! explicit clearing or resizing — each `_into` call bumps a 64-bit epoch
//! and regrows the arrays on demand, so the same scratch can serve
//! different graphs back to back, visited/dist state is invalidated in
//! `O(1)`, and a source that reaches `k` nodes does `O(k)` cleanup rather
//! than `O(n)`. The all-sources drivers ([`centrality::betweenness_centrality`],
//! [`centrality::closeness_centrality`], [`traversal::all_pairs_bfs`]) hold
//! one scratch per pool worker — `O(jobs · n)` working memory per call
//! instead of `O(sources · n)` allocations — and
//! [`shortest_path::all_pairs_dijkstra`] reuses one scratch internally.
//!
//! # Examples
//!
//! A mutable graph freezes into an immutable CSR form that every undirected
//! kernel accepts interchangeably:
//!
//! ```
//! use csn_graph::{Graph, GraphView};
//!
//! let mut g = Graph::new(4);
//! g.add_edge(0, 1);
//! g.add_edge(1, 2);
//! g.add_edge(2, 3);
//! assert_eq!(g.edge_count(), 3);
//! assert!(csn_graph::traversal::is_connected(&g));
//!
//! let frozen = g.freeze().unwrap();
//! assert!(csn_graph::traversal::is_connected(&frozen));
//! assert_eq!(
//!     csn_graph::centrality::betweenness_centrality(&g, 1),
//!     csn_graph::centrality::betweenness_centrality(&frozen, 1),
//! );
//! assert_eq!(frozen.thaw(), g);
//! ```

pub mod approx;
pub mod centrality;
pub mod compact;
pub mod cores;
pub mod error;
pub mod generators;
pub mod graph;
pub mod io;
pub mod landmark;
pub mod mst;
pub mod powerlaw;
pub mod scratch;
pub mod shortest_path;
pub mod spanner;
pub mod stream;
pub mod traversal;
pub mod view;

pub use compact::CompactCsrGraph;
pub use error::GraphError;
pub use graph::{Digraph, Graph, NodeId, WeightedDigraph, WeightedGraph};
pub use landmark::LandmarkIndex;
pub use scratch::{BfsScratch, BrandesScratch, DijkstraScratch};
pub use stream::EdgeStream;
pub use view::{GraphView, WeightedGraphView};

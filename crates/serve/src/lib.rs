//! # csn-serve — batched, index-backed query serving over uncovered structures
//!
//! The paper's thesis is that useful structures — trimmed forwarding sets
//! (§III-A), nested scale-free levels (§III-B), cores, safety levels
//! (§IV-C), temporal journeys (§II-B) — are *precomputable*, and that a
//! socially-rich network should answer questions from those precomputed
//! structures rather than from raw traversal. This crate is that serving
//! layer: load a graph once, freeze a [`ServeIndex`] over it, and answer a
//! typed [`Query`] stream at interactive cost.
//!
//! * [`index`] — [`ServeIndex`]/[`ServeConfig`]/[`ServeScratch`]: landmark
//!   distance tables with triangle-inequality bounds and exact-BFS
//!   fallback, cached NSF levels and core numbers, top-k centrality ranks,
//!   per-node sorted forwarding sets under a frozen trim overlay, an
//!   optional hypercube safety-level overlay, an optional frozen contact
//!   trace for journeys.
//! * [`query`] — the [`Query`]/[`Response`] protocol and its canonical
//!   text rendering.
//! * [`shard`] — [`serve_serial`] and [`serve_batched`]: the batched
//!   read path, which cuts a batch into at most `shards` contiguous pieces
//!   and runs them on the `csn-parallel` pool, bit-identical to serial at
//!   any `(shards, jobs)`.
//! * [`workload`] — [`Zipf`]/[`WorkloadConfig`]: deterministic skewed
//!   query streams from millions of synthetic users.
//! * [`trace`] — [`standard_trace`]: the committed replay gate.
//!
//! There is no real networking: the "server" is a deterministic
//! request-loop (`structurad` in `csn-bench` is the CLI front-end), which
//! keeps every run replayable and lets CI gate batched-parallel equality
//! bitwise. See `SERVING.md` at the repo root for the index memory model
//! and why its wall times are informational: they move with the host, and
//! a few-core box gains little from `jobs`.
//!
//! # Examples
//!
//! ```
//! use csn_serve::{Query, ServeConfig, ServeIndex, serve_batched, serve_serial};
//!
//! let g = csn_graph::generators::barabasi_albert(200, 2, 7).unwrap();
//! let idx = ServeIndex::build(g, &ServeConfig::default());
//! let queries = vec![
//!     Query::Distance { u: 3, v: 190 },
//!     Query::Structure { u: 17 },
//!     Query::Rank { u: 0 },
//! ];
//! let serial = serve_serial(&idx, &queries);
//! // The batched read path returns bit-identical answers at any shape.
//! assert_eq!(serve_batched(&idx, &queries, 4, 2), serial);
//! ```

pub mod index;
pub mod query;
pub mod shard;
pub mod trace;
pub mod workload;

pub use index::{ServeConfig, ServeIndex, ServeScratch};
pub use query::{Query, Response};
pub use shard::{serve_batched, serve_serial};
pub use trace::standard_trace;
pub use workload::{Workload, WorkloadConfig, Zipf};

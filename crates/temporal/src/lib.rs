//! # csn-temporal — time-evolving graphs
//!
//! The paper's §II-B general graph model for dynamic networks: a
//! *time-evolving graph* `EG` is an ordered sequence of spanning subgraphs
//! `G_0, G_1, …, G_k`, equivalently a graph in which each edge `(u, v)`
//! carries an *edge label set* `{i | (u, v) ∈ E_i}`. Message transmission
//! over a contact is instantaneous, and a (temporal) path is an alternating
//! sequence of vertices and edges with **non-decreasing** edge labels.
//!
//! This crate provides:
//!
//! * [`TimeEvolvingGraph`] — the `EG` model with label sets and periodic
//!   contact helpers (the paper's Fig. 2 VANET is [`paper::fig2_example`]).
//! * [`journey`] — the three path-optimization problems of §II-B:
//!   *earliest completion time*, *minimum hop*, and *fastest* journeys, plus
//!   temporal connectivity, flooding time, and the dynamic diameter.
//! * [`markovian`] — the two-state edge-Markovian process (an edge alive at
//!   time `i` dies with probability `p`; a dead edge is born with
//!   probability `q`), the theoretical community's dynamic-network model.
//! * [`weighted`] — weighted time-evolving graphs and Pareto-optimal
//!   (arrival time × cost) journeys.
//! * [`snapshot`] — the incremental [`snapshot::SnapshotCursor`] for
//!   whole-horizon snapshot sweeps, its per-unit deltas kept in the frozen
//!   form's layout.
//! * [`frozen`] — [`FrozenEg`], the read-only form built by
//!   [`TimeEvolvingGraph::freeze`]: one forward pass per earliest arrival,
//!   and the carry-store-forward strategies of [`routing`].
//!
//! # Performance
//!
//! [`TimeEvolvingGraph::snapshot`] rebuilds a full static graph from every
//! temporal edge — fine for one time unit, quadratic-feeling for the
//! `t = 0..horizon` sweeps the trimming analyses run. For those, use
//! [`TimeEvolvingGraph::snapshot_cursor`]: it precomputes each time unit's
//! edge appear/disappear deltas once and then mutates one maintained graph
//! by `O(Δ_t)` per [`snapshot::SnapshotCursor::advance`] step, yielding a
//! graph equal to `snapshot(t)` at every position. Its deltas are laid out
//! and filled as [`FrozenEg`]'s appear list: flat `(min, max)` columns in
//! pair order, which `appearing_at` and `disappearing_at` return as slices.
//! An `EG` only grows (`add_contact`, `add_periodic`). The cursor captures
//! the `EG` at construction, so after adding contacts build a fresh cursor.
//! A [`FrozenEg`] likewise captures the `EG` it was frozen from.
//!
//! # Examples
//!
//! ```
//! use csn_temporal::paper::{fig2_example, A, B, C};
//! use csn_temporal::journey::{earliest_arrival, is_connected_at};
//!
//! let eg = fig2_example();
//! // The paper: "path A -4-> B -5-> C exists, therefore A is connected to C
//! // at starting time units 0, 1, 2, 3, and 4".
//! for t in 0..=4 {
//!     assert!(is_connected_at(&eg, A, C, t));
//! }
//! let arr = earliest_arrival(&eg, A, 2);
//! assert_eq!(arr[C], Some(5));
//! let _ = B;
//! ```

pub mod centrality;
pub mod frozen;
pub mod graph;
pub mod journey;
pub mod maintain;
pub mod markovian;
pub mod paper;
pub mod routing;
pub mod snapshot;
pub mod weighted;

pub use frozen::{FrozenEg, JourneyScratch};
pub use graph::{Contact, TemporalEdge, TimeEvolvingGraph, TimeUnit};
pub use journey::Journey;
pub use maintain::{StructureMaintainer, TrackedCursor};
pub use snapshot::SnapshotCursor;

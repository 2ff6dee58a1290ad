//! The typed request/response protocol: [`Query`] and [`Response`].
//!
//! One query addresses exactly one of the precomputed structures of a
//! [`crate::ServeIndex`] (or, for [`Query::DistanceExact`], its BFS fallback
//! path). Responses are plain data with derived equality — the whole serving
//! stack is gated on `serve_batched(...) == serve_serial(...)` being
//! *bitwise* true at every job count, so nothing in a response may depend on
//! scheduling, worker identity, or scratch history. A query carries no
//! routing key: [`crate::serve_batched`] cuts a batch into contiguous
//! pieces by position, whatever ids the queries name.
//!
//! Both types render to a canonical single-line text form
//! ([`Query::render`] / [`Response::render`]) used by the committed
//! query-trace replay gate: the rendering is hand-written (not `Debug`,
//! whose format the compiler does not guarantee) so the byte-identical
//! comparison is stable across toolchains.

use csn_graph::NodeId;
use csn_temporal::TimeUnit;

/// Node-hop distances as served: `u32` with [`UNREACHABLE`] for "no path",
/// matching `csn_graph::landmark`.
pub use csn_graph::landmark::UNREACHABLE;

/// One request against a frozen [`crate::ServeIndex`].
///
/// Node ids are `< node_count` of the indexed graph (the workload
/// generator only emits valid ids); hypercube addresses in
/// [`Query::SafetyRoute`] live in the overlay's own `0..2^dims` space, and
/// journey ids in the attached contact trace's. Any other id is answered
/// [`Response::Invalid`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Query {
    /// Certified distance interval for `d(u, v)` from the landmark tables —
    /// `O(k)`, never touches the graph.
    Distance {
        /// Source node.
        u: NodeId,
        /// Target node.
        v: NodeId,
    },
    /// Exact `d(u, v)`: answered from the landmark interval when it is
    /// already tight, otherwise by a scratch-arena BFS fallback.
    DistanceExact {
        /// Source node.
        u: NodeId,
        /// Target node.
        v: NodeId,
    },
    /// The node's live forwarding set (sorted ascending) under the index's
    /// frozen trim overlay (§III-A).
    ForwardingSet {
        /// Queried node.
        u: NodeId,
    },
    /// The node's cached structural labels: NSF level (§III-B) and core
    /// number.
    Structure {
        /// Queried node.
        u: NodeId,
    },
    /// The node's centrality rank among the index's top-k (by degree,
    /// ties to the lower id), plus its degree.
    Rank {
        /// Queried node.
        u: NodeId,
    },
    /// A fault-tolerant shortest-path route in the index's hypercube
    /// safety-level overlay (§IV-C), if one exists.
    SafetyRoute {
        /// Source hypercube address.
        source: usize,
        /// Destination hypercube address.
        dest: usize,
    },
    /// Earliest arrival time of a temporal journey `source → target`
    /// departing at `start`, answered in one forward pass over the index's
    /// frozen contact trace (see [`crate::ServeIndex::with_temporal`]).
    Journey {
        /// Journey source node.
        source: NodeId,
        /// Journey target node.
        target: NodeId,
        /// Departure time unit.
        start: TimeUnit,
    },
}

impl Query {
    /// Canonical single-line text form (see the [module docs](self)).
    pub fn render(&self) -> String {
        match *self {
            Query::Distance { u, v } => format!("distance u={u} v={v}"),
            Query::DistanceExact { u, v } => format!("distance_exact u={u} v={v}"),
            Query::ForwardingSet { u } => format!("forwarding_set u={u}"),
            Query::Structure { u } => format!("structure u={u}"),
            Query::Rank { u } => format!("rank u={u}"),
            Query::SafetyRoute { source, dest } => format!("safety_route s={source} d={dest}"),
            Query::Journey { source, target, start } => {
                format!("journey s={source} t={target} start={start}")
            }
        }
    }
}

/// The answer to one [`Query`] — plain data, derived equality (the
/// determinism gates compare whole response vectors).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Response {
    /// Landmark interval for [`Query::Distance`].
    Bounds {
        /// Greatest lower bound ([`UNREACHABLE`] = certified disconnected).
        lower: u32,
        /// Least upper bound.
        upper: u32,
    },
    /// Exact distance for [`Query::DistanceExact`].
    Exact {
        /// The distance ([`UNREACHABLE`] if no path).
        dist: u32,
        /// Whether the landmark interval missed and a fallback BFS ran.
        fallback: bool,
    },
    /// Sorted live forwarding set for [`Query::ForwardingSet`].
    ForwardingSet(Vec<NodeId>),
    /// Cached labels for [`Query::Structure`].
    Structure {
        /// NSF level (levels start at 1).
        nsf_level: usize,
        /// Core number.
        core: usize,
    },
    /// Centrality rank for [`Query::Rank`].
    Rank {
        /// Position in the top-k (0 = most central), `None` if unranked.
        rank: Option<usize>,
        /// The node's degree (the ranking score).
        degree: usize,
    },
    /// Route for [`Query::SafetyRoute`]: the address walk, or `None` when
    /// the overlay is absent or no safe shortest path exists.
    SafetyRoute(Option<Vec<usize>>),
    /// Earliest arrival for [`Query::Journey`] (`None` when the index has
    /// no contact trace or the target is unreachable in the horizon).
    Arrival(Option<TimeUnit>),
    /// The query names an id outside the index: a node `>= node_count` of
    /// the graph, a safety-route address outside the overlay's `2^dims`
    /// space, or a journey node at or past the contact trace's node count.
    Invalid,
}

impl Response {
    /// Canonical single-line text form (see the [module docs](self)).
    pub fn render(&self) -> String {
        fn u32_or_inf(d: u32) -> String {
            if d == UNREACHABLE {
                "inf".to_string()
            } else {
                d.to_string()
            }
        }
        match self {
            Response::Bounds { lower, upper } => {
                format!("bounds [{}, {}]", u32_or_inf(*lower), u32_or_inf(*upper))
            }
            Response::Exact { dist, fallback } => {
                format!("exact {} fallback={}", u32_or_inf(*dist), fallback)
            }
            Response::ForwardingSet(set) => {
                let ids: Vec<String> = set.iter().map(usize::to_string).collect();
                format!("forwarding [{}]", ids.join(" "))
            }
            Response::Structure { nsf_level, core } => {
                format!("structure nsf={nsf_level} core={core}")
            }
            Response::Rank { rank, degree } => match rank {
                Some(r) => format!("rank {r} degree={degree}"),
                None => format!("rank none degree={degree}"),
            },
            Response::SafetyRoute(route) => match route {
                Some(path) => {
                    let hops: Vec<String> = path.iter().map(|a| format!("{a:b}")).collect();
                    format!("route [{}]", hops.join(" -> "))
                }
                None => "route none".to_string(),
            },
            Response::Arrival(at) => match at {
                Some(t) => format!("arrival {t}"),
                None => "arrival none".to_string(),
            },
            Response::Invalid => "invalid".to_string(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_are_stable_and_distinct() {
        assert_eq!(Query::Distance { u: 1, v: 2 }.render(), "distance u=1 v=2");
        assert_eq!(Response::Bounds { lower: 2, upper: UNREACHABLE }.render(), "bounds [2, inf]");
        assert_eq!(Response::Exact { dist: 3, fallback: true }.render(), "exact 3 fallback=true");
        assert_eq!(Response::ForwardingSet(vec![1, 4, 6]).render(), "forwarding [1 4 6]");
        assert_eq!(Response::Rank { rank: None, degree: 2 }.render(), "rank none degree=2");
        assert_eq!(
            Response::SafetyRoute(Some(vec![0b1101, 0b0101])).render(),
            "route [1101 -> 101]"
        );
        assert_eq!(Response::Arrival(None).render(), "arrival none");
        assert_eq!(Response::Invalid.render(), "invalid");
    }
}

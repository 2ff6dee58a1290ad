//! # csn-core — uncovering the useful structures of complex networks
//!
//! The facade crate of **structura**, a full reproduction of *"Uncovering
//! the Useful Structures of Complex Networks in Socially-Rich and Dynamic
//! Environments"* (Jie Wu, ICDCS 2017).
//!
//! The paper organizes the problem in three parts, and so does this
//! workspace:
//!
//! 1. **Graph models** (§II) — [`graph`] (classical `G = (V, E)`),
//!    [`intersection`] (unit disk and interval graphs, interval
//!    hypergraphs), [`temporal`] (time-evolving graphs), [`mobility`]
//!    (contact traces feeding the temporal model).
//! 2. **Uncovering structures** (§III) — [`trimming`] (structural trimming
//!    and forwarding sets), [`layering`] (NSF hierarchies, link reversal,
//!    height-based max-flow), [`remapping`] (hyperbolic/virtual greedy
//!    coordinates, social-feature space, small worlds).
//! 3. **Distributed & localized solutions** (§IV) — [`labeling`] (CDS /
//!    MIS / DS colorings, Bellman–Ford labels, hypercube safety levels,
//!    dynamic MIS) on the [`distsim`] round simulator.
//!
//! The [`uncover`] module offers one-call structure reports combining the
//! three strategies, and [`serve`] freezes the uncovered structures behind
//! a batched, index-backed query-serving layer (the `structurad` binary in
//! `csn-bench` is its CLI front-end).
//!
//! # Quickstart
//!
//! ```
//! use csn_core::prelude::*;
//!
//! // A scale-free "P2P overlay" (Fig. 3's setting).
//! let g = csn_core::graph::generators::barabasi_albert(500, 3, 7)?;
//! let report = csn_core::uncover::static_structures(&g);
//! assert!(report.nsf.fits.len() >= 2);
//! assert!(report.cds_size >= 1);
//! # Ok::<(), csn_core::graph::GraphError>(())
//! ```

pub use csn_distsim as distsim;
pub use csn_graph as graph;
pub use csn_intersection as intersection;
pub use csn_labeling as labeling;
pub use csn_layering as layering;
pub use csn_mobility as mobility;
pub use csn_remapping as remapping;
pub use csn_serve as serve;
pub use csn_temporal as temporal;
pub use csn_trimming as trimming;

/// Convenient glob imports for applications.
pub mod prelude {
    pub use csn_graph::{Digraph, Graph, NodeId, WeightedDigraph, WeightedGraph};
    pub use csn_mobility::{ContactEvent, ContactStream, ContactTrace};
    pub use csn_temporal::{Contact, TimeEvolvingGraph, TimeUnit};
}

pub mod uncover {
    //! One-call structure reports over the paper's three strategies.

    use csn_graph::{Graph, NodeId};
    use csn_temporal::TimeEvolvingGraph;

    /// Summary of the static structures uncovered in a graph.
    #[derive(Debug, Clone)]
    pub struct StaticStructureReport {
        /// Scale-free / nested-scale-free analysis (layering, §III-B).
        pub nsf: csn_layering::nsf::NsfReport,
        /// NSF hierarchy levels per node.
        pub levels: Vec<usize>,
        /// Number of top-level (apex) nodes.
        pub top_level_nodes: usize,
        /// Marked-and-pruned CDS size (trimming + labeling, §IV-A).
        pub cds_size: usize,
        /// Distributed MIS size and rounds used.
        pub mis_size: usize,
        /// Rounds the MIS election took.
        pub mis_rounds: usize,
        /// Degeneracy (max k-core), a classical hierarchy depth measure.
        pub degeneracy: usize,
    }

    /// Runs the static pipeline: NSF layering, CDS trimming labels, and the
    /// MIS clusterhead election (node ids double as priorities).
    ///
    /// ```
    /// let g = csn_core::graph::generators::barabasi_albert(200, 3, 7).unwrap();
    /// let report = csn_core::uncover::static_structures(&g);
    /// assert!(report.cds_size > 0 && report.cds_size < 200);
    /// assert!(report.mis_size > 0 && report.degeneracy >= 3);
    /// ```
    pub fn static_structures(g: &Graph) -> StaticStructureReport {
        let priority: Vec<u64> = (0..g.node_count() as u64).collect();
        let nsf = csn_layering::nsf::nsf_report(g, 50, 30);
        let levels = csn_layering::nsf::nsf_levels(g);
        let top_level_nodes = csn_layering::nsf::top_level_count(&levels);
        let cds = csn_labeling::cds::marked_and_pruned_cds(g, &priority);
        let mis = csn_labeling::mis::mis_distributed(g, &priority);
        StaticStructureReport {
            nsf,
            top_level_nodes,
            levels,
            cds_size: cds.iter().filter(|&&b| b).count(),
            mis_size: mis.mis.iter().filter(|&&b| b).count(),
            mis_rounds: mis.rounds,
            degeneracy: csn_graph::cores::degeneracy(g),
        }
    }

    /// Summary of temporal structures in a time-evolving graph.
    #[derive(Debug, Clone)]
    pub struct TemporalStructureReport {
        /// Dynamic diameter (flooding time) at time 0, if temporally connected.
        pub dynamic_diameter: Option<csn_temporal::TimeUnit>,
        /// Number of transit arcs removable by the §III-A trimming rule.
        pub trimmable_arcs: usize,
        /// Total directed transit arcs before trimming.
        pub total_arcs: usize,
        /// Contact count.
        pub contacts: usize,
    }

    /// Runs the temporal pipeline: dynamic diameter plus the static
    /// trimming rule (node ids as priorities).
    ///
    /// ```
    /// // The paper's Fig. 2 time-evolving graph, A > B > C > D priorities.
    /// let eg = csn_core::temporal::paper::fig2_example();
    /// let r = csn_core::uncover::temporal_structures_with_priorities(&eg, &[40, 30, 20, 10]);
    /// assert!(r.dynamic_diameter.is_some());
    /// assert!(r.trimmable_arcs >= 1); // the (A, D) transit arc at least
    /// ```
    pub fn temporal_structures(eg: &TimeEvolvingGraph) -> TemporalStructureReport {
        let priority: Vec<u64> = (0..eg.node_count() as u64).collect();
        temporal_structures_with_priorities(eg, &priority)
    }

    /// [`temporal_structures`] with explicit node priorities (higher value =
    /// higher priority; replacement-path intermediates must outrank the
    /// bypassed neighbor).
    pub fn temporal_structures_with_priorities(
        eg: &TimeEvolvingGraph,
        priority: &[u64],
    ) -> TemporalStructureReport {
        let report = csn_trimming::static_rule::trim_arcs(
            eg,
            priority,
            csn_trimming::TrimOptions::default(),
        );
        TemporalStructureReport {
            dynamic_diameter: csn_temporal::journey::dynamic_diameter(eg, 0),
            trimmable_arcs: report.removed_arcs.len(),
            total_arcs: eg.edge_count() * 2,
            contacts: eg.contact_count(),
        }
    }

    /// Remapping report: how much greedy routability the virtual
    /// coordinates recover on a geometric graph.
    #[derive(Debug, Clone, Copy)]
    pub struct RemappingReport {
        /// Euclidean greedy delivery ratio.
        pub euclidean_delivery: f64,
        /// Remapped (tree virtual coordinates) delivery ratio — 1.0 by
        /// construction on connected graphs.
        pub remapped_delivery: f64,
    }

    /// Compares greedy routing before and after coordinate remapping.
    ///
    /// ```
    /// let pd = csn_core::remapping::geo::perforated_disk(
    ///     150, 0.14, &csn_core::remapping::geo::fig5_holes(), 3);
    /// let r = csn_core::uncover::remapping_structures(&pd.graph, &pd.positions, 50, 1);
    /// assert_eq!(r.remapped_delivery, 1.0); // tree coordinates always deliver
    /// assert!(r.euclidean_delivery <= 1.0);
    /// ```
    pub fn remapping_structures(
        g: &Graph,
        positions: &[(f64, f64)],
        pairs: usize,
        seed: u64,
    ) -> RemappingReport {
        let euclid = csn_remapping::geo::greedy_delivery_stats(g, positions, pairs, seed);
        let tc = csn_remapping::hyperbolic::TreeCoordinates::new(g, 0);
        let remapped = csn_remapping::hyperbolic::delivery_ratio(
            g,
            |s: NodeId, t: NodeId| *tc.greedy_route(g, s, t).last().expect("nonempty") == t,
            pairs,
            seed,
        );
        RemappingReport { euclidean_delivery: euclid.delivery_ratio, remapped_delivery: remapped }
    }
}

#[cfg(test)]
mod tests {
    use super::uncover;
    use csn_graph::generators;

    #[test]
    fn static_report_on_scale_free_graph() {
        let g = generators::barabasi_albert(600, 3, 5).unwrap();
        let r = uncover::static_structures(&g);
        assert!(r.cds_size > 0 && r.cds_size < 600);
        assert!(r.mis_size > 0);
        assert!(r.degeneracy >= 3);
        assert!(!r.levels.is_empty());
        assert!(r.top_level_nodes >= 1);
    }

    #[test]
    fn temporal_report_on_fig2() {
        let eg = csn_temporal::paper::fig2_example();
        // The paper's priorities: p(A) > p(B) > p(C) > p(D).
        let r = uncover::temporal_structures_with_priorities(&eg, &[40, 30, 20, 10]);
        assert!(r.dynamic_diameter.is_some());
        assert!(r.trimmable_arcs >= 1, "the paper's (A, D) arc at least");
        assert_eq!(r.contacts, eg.contact_count());
        // Identity priorities trim nothing here (A is lowest): still valid.
        let r2 = uncover::temporal_structures(&eg);
        assert_eq!(r2.contacts, r.contacts);
    }

    #[test]
    fn remapping_report_recovers_delivery() {
        let pd =
            csn_remapping::geo::perforated_disk(400, 0.09, &csn_remapping::geo::fig5_holes(), 3);
        let r = uncover::remapping_structures(&pd.graph, &pd.positions, 200, 1);
        assert_eq!(r.remapped_delivery, 1.0);
        assert!(r.euclidean_delivery <= 1.0);
    }
}

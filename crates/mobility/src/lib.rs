//! # csn-mobility — mobility models and contact traces
//!
//! The paper's dynamic networks (§II-B) abstract node mobility into
//! *contacts* with two macro-level measures: the contact-duration
//! distribution and the inter-contact-time distribution. This crate builds
//! the substrate the paper's experiments need but that real testbeds
//! provided to the author:
//!
//! * [`trace`] — continuous-time contact traces and their discretization
//!   into `csn-temporal` time-evolving graphs.
//! * [`rwp`] — the random-waypoint mobility model, used to check the
//!   paper's claim that RWP does **not** produce exponential inter-contact
//!   times (§II-B).
//! * [`social`] — the social-feature-driven contact model substituting for
//!   the INFOCOM'06 / MIT Reality traces (§III-C): "the frequency of the
//!   personal contacts of two nodes is dependent on their feature distance —
//!   the closer the distance, the higher the contact frequency."
//! * [`stats`] — inter-contact / contact-duration statistics, exponential
//!   fitting, and Kolmogorov–Smirnov distances.
//! * [`stream`] — streaming contact emission ([`stream::ContactStream`])
//!   so million-contact city traces build without materializing every
//!   event; wraps both generators and adds explicit-pair Poisson glue.
//! * [`scenario`] — the composed vehicular/pedestrian city scenario
//!   ([`scenario::CityScenario`]), the substrate of the `--scenario` perf
//!   tier and SCENARIOS.md.
//!
//! # Examples
//!
//! ```
//! use csn_mobility::rwp::RandomWaypoint;
//! use csn_mobility::ContactStream;
//!
//! let model = RandomWaypoint::default_config(20);
//! let trace = model.simulate(200.0, 7);
//! assert_eq!(trace.node_count(), 20);
//! let eg = trace.to_time_evolving_graph(1.0);
//! assert_eq!(eg.node_count(), 20);
//! ```

pub mod rwp;
pub mod scenario;
pub mod social;
pub mod stats;
pub mod stream;
pub mod trace;

pub use scenario::CityScenario;
pub use stream::{ContactStream, PairPoissonStream, RwpStream, SocialStream};
pub use trace::{ContactEvent, ContactTrace};

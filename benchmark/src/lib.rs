//! The structura benchmark: five workloads over the library's public API,
//! end-to-end metrics with tracing off, per-layer metrics from an in-memory
//! span trace, output checks, and a repeat/compare harness. See
//! `benchmark/README.md` for the metric dictionary and how to read a run.

pub mod cli;
pub mod json;
pub mod orchestrate;
pub mod report;
pub mod speed;
pub mod stats;
pub mod trace;
pub mod workloads;

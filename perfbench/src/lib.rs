//! # perfbench
//!
//! The deterministic half of the repository benchmark: the graph and the
//! request sequences each workload sends (pure functions of the seed), the
//! adjacency-list oracle every reply is checked against, reply and
//! `GRAPH.INFO` decoding, and the statistics and JSON helpers the benchmark
//! (`benches/perfbench`) reports with. Nothing here reads a clock or starts
//! a thread.

pub mod json;
pub mod oracle;
pub mod reply;
pub mod stats;
pub mod workload;

pub use oracle::Oracle;
pub use workload::{Op, OpStream, Shape, Workload};

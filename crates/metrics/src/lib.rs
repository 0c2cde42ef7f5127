//! Evaluation metrics, summary statistics and report rendering.
//!
//! The paper evaluates with five metrics (§5.4): execution time, wait time,
//! turnaround time, node-hours and communication cost. This crate holds the
//! statistics used to aggregate them (means, confidence intervals, Pearson
//! correlation for the §5.3 validation) and small text renderers for the
//! tables and figure series the benchmark harness regenerates.

#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![cfg_attr(not(test), deny(clippy::panic, clippy::unreachable))]
mod registry;
mod render;
mod stats;

pub use registry::{LogHistogram, Registry, RunReport, RUN_REPORT_VERSION};
pub use render::{Series, Table};
pub use stats::{mean, mean_ci95, peak_to_mean, pearson};

#[cfg(test)]
mod tests;

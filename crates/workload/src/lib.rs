//! Job logs: the Standard Workload Format and synthetic system models.
//!
//! The paper evaluates on 1000-job slices of three production logs —
//! Intrepid (Parallel Workload Archive, 2009), Theta (ALCF, 2018) and Mira
//! (ALCF, 2019). Those logs cannot be redistributed here, so this crate
//! provides both:
//!
//! * an **SWF parser/writer** ([`swf`]) so real Parallel Workload Archive
//!   logs drop in unchanged, and
//! * **seeded synthetic generators** ([`LogSpec`]) calibrated to the
//!   marginals the paper reports: job counts, maximum node requests
//!   (40960 / 512 / 16384), power-of-two request fractions (>=99% / 90% /
//!   >=99%), heavy-tailed runtimes and bursty arrivals.
//!
//! Job *nature* (communication- vs compute-intensive), the dominant
//! collective pattern, and per-job communication fractions are not present
//! in any log — the paper assigns them synthetically (§5.1, §6.2) and so
//! does this crate: [`LogSpec::comm_percent`] controls the 30–90% sweep and
//! [`MixSet`] reproduces the paper's experiment sets A–E.
//!
//! # Example
//!
//! ```
//! use commsched_workload::{LogSpec, SystemModel};
//! use commsched_collectives::Pattern;
//!
//! // 1000 Theta-like jobs, 90% communication-intensive, all RHVD.
//! let log = LogSpec::new(SystemModel::theta(), 1000, 42)
//!     .comm_percent(90)
//!     .pattern(Pattern::Rhvd)
//!     .generate();
//! assert_eq!(log.jobs.len(), 1000);
//! assert!(log.jobs.iter().all(|j| j.nodes <= 512));
//! ```

#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![cfg_attr(not(test), deny(clippy::panic, clippy::unreachable))]
pub mod fault;
mod generate;
mod model;
pub mod stats;
pub mod swf;

pub use commsched_core::{JobId, JobNature};
pub use fault::{
    FaultDomain, FaultEvent, FaultKind, FaultTrace, FaultTraceError, FaultTraceErrorKind,
};
pub use generate::{LogSpec, MixSet};
pub use model::{Job, JobLog, SystemModel};
pub use stats::LogProfile;

#[cfg(test)]
mod tests;

//! A SLURM-like discrete-event scheduling engine.
//!
//! Reproduces the slice of SLURM the paper modifies and measures through
//! (§3.1, §5.2): a central controller with a FIFO priority queue, EASY
//! backfilling, whole-node allocations (`select/linear`), tree-topology
//! node selection behind a pluggable [`commsched_core::NodeSelector`], and
//! `enable-frontend`-style emulation where jobs occupy nodes for their
//! logged durations in virtual time.
//!
//! Two experiment drivers mirror §5.4:
//!
//! * [`Engine::run`] — **continuous runs**: replay a whole job log; each
//!   job's runtime is adjusted by Eq. 7 (`T' = T_compute + T_comm ·
//!   cost_jobaware / cost_default`) at start time, so allocation quality
//!   feeds back into queue dynamics;
//! * [`individual::individual_runs`] — **individual runs**: freeze a
//!   partially-occupied cluster and place each probe job from the identical
//!   state under every allocator, the paper's like-for-like comparison.
//!
//! # Example
//!
//! ```
//! use commsched_slurmsim::{Engine, EngineConfig};
//! use commsched_core::SelectorKind;
//! use commsched_topology::Tree;
//! use commsched_workload::{LogSpec, SystemModel};
//!
//! let tree = Tree::regular_two_level(12, 366); // Theta-ish
//! let log = LogSpec::new(SystemModel::theta(), 50, 1).generate();
//! let summary = Engine::new(&tree, EngineConfig::new(SelectorKind::Balanced))
//!     .run(&log)
//!     .unwrap();
//! assert_eq!(summary.outcomes.len(), 50);
//! ```

#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![cfg_attr(not(test), deny(clippy::panic, clippy::unreachable))]
mod engine;
pub mod individual;
mod queue;

pub use engine::{
    BackfillPolicy, Engine, EngineConfig, EngineError, FailurePolicy, JobOutcome, JobStatus,
    OversizedPolicy, RunSummary,
};

#[cfg(test)]
mod tests;

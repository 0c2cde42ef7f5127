//! Communication-aware node allocation — the paper's core contribution.
//!
//! This crate implements Section 4 of *"Communication-aware Job Scheduling
//! using SLURM"* (Mishra, Agrawal, Malakar — ICPP Workshops 2020):
//!
//! * [`ClusterState`] — per-leaf occupancy counters (`L_nodes`, `L_busy`,
//!   `L_comm`) over a [`commsched_topology::Tree`], and the *communication
//!   ratio* of Eq. 1;
//! * [`Placement`] — the currency all of it trades in: how many nodes a
//!   job takes from which leaf switch, plus the `(word, mask)` entries of
//!   the node bitmap those takes resolve to (selectors return it, the
//!   evaluator scores it, `ClusterState::allocate`/`release` apply it per
//!   leaf);
//! * [`CostModel`] — the contention factor (Eqs. 2–3), effective hops
//!   (Eq. 5) and per-job communication cost (Eq. 6) evaluated over the
//!   step schedule of the job's dominant collective;
//! * four [`NodeSelector`]s:
//!   [`DefaultTreeSelector`] (SLURM `topology/tree` best-fit — the paper's
//!   baseline), [`GreedySelector`] (Algorithm 1), [`BalancedSelector`]
//!   (Algorithm 2) and [`AdaptiveSelector`] (§4.3), each returning a
//!   [`Decision`]: the placement, the switch it was chosen under and the
//!   Eq. 6 totals of every candidate it scored.
//!
//! # Example: the paper's Table 2
//!
//! A communication-intensive job asks for 512 nodes; the leaves under the
//! chosen switch have 160, 150, 100, 80, 70, 50 and 40 free nodes. Balanced
//! allocation splits the request into powers of two per leaf:
//!
//! ```
//! use commsched_core::{AllocRequest, BalancedSelector, ClusterState,
//!                      JobId, JobNature, NodeSelector};
//! use commsched_topology::Tree;
//!
//! let tree = Tree::irregular_two_level(&[160, 150, 100, 80, 70, 50, 40]);
//! let state = ClusterState::new(&tree);
//! let req = AllocRequest::comm(JobId(1), 512);
//! let placement = BalancedSelector.select(&tree, &state, &req).unwrap();
//!
//! // A placement *is* the per-leaf split: (leaf ordinal, nodes taken).
//! let per_leaf: Vec<u32> = placement.takes().iter().map(|&(_, n)| n).collect();
//! assert_eq!(per_leaf, [128, 128, 64, 64, 64, 32, 32]); // Table 2
//! assert_eq!(placement.len(), 512);
//! ```

#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![cfg_attr(not(test), deny(clippy::panic, clippy::unreachable))]
mod cost;
mod eval;
mod index;
pub mod mapping;
mod placement;
mod sa;
mod select;
#[cfg(test)]
mod select_scan;
mod state;

pub use cost::CostModel;
pub use eval::{EvalTotals, PlacementEvaluator};
pub use mapping::MappingStrategy;
pub use placement::Placement;
pub use sa::{SaSelector, SaStats};
pub use select::{
    AdaptiveSelector, AllocRequest, BalancedSelector, Decision, DefaultTreeSelector,
    GreedySelector, NodeSelector, SelectError, SelectorKind,
};
pub use state::{Allocation, ClusterState, JobId, JobNature, NodeHealth, StateError};

#[cfg(test)]
mod tests;

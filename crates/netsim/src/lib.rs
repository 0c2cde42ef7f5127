//! Flow-level network simulation on tree topologies.
//!
//! The paper's motivation study (Figure 1) runs two real `MPI_Allgather`
//! jobs on a 50-node Ethernet cluster and watches one job's iteration time
//! spike whenever the other is active on shared switches. We cannot ship
//! that cluster, so this crate substitutes the standard flow-level
//! abstraction of it:
//!
//! * every tree edge (node↔leaf, switch↔parent) is a pair of directed links
//!   with fixed capacity;
//! * each step of a collective schedule becomes a set of flows routed up to
//!   the lowest common ancestor and back down;
//! * concurrent flows share links **max–min fairly** (progressive filling),
//!   the usual fluid model of per-flow TCP fairness on Ethernet;
//! * a step completes when its slowest flow drains; jobs advance step by
//!   step, possibly for many iterations.
//!
//! The observable — iteration time of a job versus wall-clock time, under
//! interference — reproduces the spike-when-overlapping shape of Figure 1
//! and gives the correlation target for the paper's contention factor
//! (§5.3 reports r ≈ 0.83 between Eqs. 2–3 and measured times).
//!
//! # Example
//!
//! ```
//! use commsched_collectives::{CollectiveSpec, Pattern};
//! use commsched_netsim::{FlowSim, NetConfig, Workload};
//! use commsched_topology::{NodeId, Tree};
//!
//! let tree = Tree::regular_two_level(2, 4);
//! let sim = FlowSim::new(&tree, NetConfig::gigabit_ethernet());
//! let alone = sim.run(vec![Workload {
//!     id: 1,
//!     nodes: (0..4).map(NodeId).collect(),
//!     spec: CollectiveSpec::new(Pattern::Rhvd, 1 << 20),
//!     submit: 0.0,
//!     iterations: 1,
//! }]);
//! assert_eq!(alone.len(), 1);
//! assert!(alone[0].end > 0.0);
//! ```

#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![cfg_attr(not(test), deny(clippy::panic, clippy::unreachable))]
mod sim;

pub use sim::{FlowSim, IterationSample, JobResult, NetConfig, Workload};

#[cfg(test)]
mod tests;

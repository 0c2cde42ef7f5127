//! # commsched — communication-aware job scheduling for tree/fat-tree clusters
//!
//! A from-scratch reproduction of *"Communication-aware Job Scheduling using
//! SLURM"* (Mishra, Agrawal, Malakar — ICPP Workshops 2020). The paper
//! proposes three node-allocation algorithms — **greedy**, **balanced** and
//! **adaptive** — that use a job's dominant MPI-collective communication
//! pattern and the current switch-level contention to pick better nodes than
//! SLURM's default `topology/tree` best-fit.
//!
//! This facade crate re-exports the whole workspace:
//!
//! * [`hostlist`] — SLURM hostlist expressions (`n[0-3,5]`).
//! * [`topology`] — tree/fat-tree topologies, `topology.conf` I/O, distances.
//! * [`collectives`] — step generators for RD / RHVD / binomial collectives.
//! * [`netsim`] — flow-level network simulator (max–min fair sharing).
//! * [`workload`] — SWF job logs and Intrepid/Theta/Mira-like generators.
//! * [`core`] — the paper's allocators and contention/cost model.
//! * [`slurmsim`] — SLURM-like discrete-event scheduling engine.
//! * [`metrics`] — evaluation metrics, table/series rendering, and the
//!   counter/gauge/histogram registry behind machine-readable run reports.
//! * [`trace`] — deterministic virtual-time event tracing (JSONL and
//!   Chrome `trace_event` export) with zero-cost null recording.
//!
//! # Quickstart
//!
//! ```
//! use commsched::prelude::*;
//!
//! // A two-level fat-tree: 4 leaf switches x 8 nodes.
//! let tree = Tree::regular_two_level(4, 8);
//! let mut state = ClusterState::new(&tree);
//!
//! // Occupy a few nodes with a running communication-intensive job.
//! let busy: Vec<NodeId> = (0..6).map(NodeId).collect();
//! let busy = Placement::from_nodes(&tree, &busy).unwrap();
//! state
//!     .allocate(&tree, JobId(1), &busy, JobNature::CommIntensive)
//!     .unwrap();
//!
//! // Ask the balanced allocator for 8 nodes for an allgather-heavy job.
//! let req = AllocRequest::comm(JobId(2), 8)
//!     .with_pattern(CollectiveSpec::new(Pattern::Rhvd, 1 << 20));
//! let alloc = BalancedSelector.select(&tree, &state, &req).unwrap();
//! assert_eq!(alloc.len(), 8);
//! // One whole free leaf: (leaf ordinal, nodes taken).
//! assert_eq!(alloc.takes(), [(1, 8)]);
//! ```

#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::unwrap_used))]
pub use commsched_collectives as collectives;
pub use commsched_core as core;
pub use commsched_hostlist as hostlist;
pub use commsched_metrics as metrics;
pub use commsched_netsim as netsim;
pub use commsched_slurmsim as slurmsim;
pub use commsched_topology as topology;
pub use commsched_trace as trace;
pub use commsched_workload as workload;

/// One-stop imports for the common API surface.
pub mod prelude {
    pub use commsched_collectives::{CollectiveSpec, Pattern, Step};
    pub use commsched_core::{
        AdaptiveSelector, AllocRequest, BalancedSelector, ClusterState, CostModel,
        DefaultTreeSelector, GreedySelector, JobNature, MappingStrategy, NodeSelector, Placement,
        SelectorKind,
    };
    pub use commsched_metrics::{Registry, RunReport};
    pub use commsched_slurmsim::{BackfillPolicy, Engine, EngineConfig, JobOutcome, RunSummary};
    pub use commsched_topology::{NodeId, SwitchId, Tree};
    pub use commsched_trace::{Capture, ClassMask, NullRecorder, Recorder, Tracer};
    pub use commsched_workload::{Job, JobId, JobLog, LogSpec, SystemModel};
}

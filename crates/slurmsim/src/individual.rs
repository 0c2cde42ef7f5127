//! Individual runs (§5.4): compare allocators from an identical cluster
//! state, one probe job at a time.
//!
//! Continuous runs give every allocator a *different* cluster history, so
//! the paper also freezes a partially-occupied cluster and places each of a
//! sample of jobs from that same state under every algorithm, reporting the
//! per-job execution-time improvement (Table 4, Figure 7 right).

use crate::engine::{Engine, EngineConfig};
use commsched_core::{
    AllocRequest, ClusterState, DefaultTreeSelector, JobNature, NodeSelector, PlacementEvaluator,
    SelectorKind,
};
use commsched_topology::Tree;
use commsched_workload::{Job, JobLog};
use rayon::prelude::*;
use serde::Serialize;

/// One probe job's placement under one selector.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct ProbePlacement {
    /// Selector name.
    pub selector: String,
    /// Eq. 6 cost of the chosen allocation.
    pub cost: f64,
    /// Eq. 7-adjusted runtime, seconds.
    pub runtime_adjusted: u64,
}

/// All placements for one probe job.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct IndividualOutcome {
    /// The probe job's id.
    pub job: commsched_core::JobId,
    /// Nodes requested.
    pub nodes: usize,
    /// Runtime from the log (the default-allocator duration).
    pub runtime_original: u64,
    /// One entry per selector, in [`SelectorKind::ALL`] order.
    pub placements: Vec<ProbePlacement>,
}

impl IndividualOutcome {
    /// Percentage execution-time improvement of `selector` over default.
    pub(crate) fn improvement_over_default(&self, selector: SelectorKind) -> f64 {
        let default = self
            .placements
            .iter()
            .find(|p| p.selector == SelectorKind::Default.name())
            .map(|p| p.runtime_adjusted as f64)
            .unwrap_or(self.runtime_original as f64);
        let cand = self
            .placements
            .iter()
            .find(|p| p.selector == selector.name())
            .map(|p| p.runtime_adjusted as f64)
            .unwrap_or(default);
        if default == 0.0 {
            0.0
        } else {
            100.0 * (default - cand) / default
        }
    }
}

/// Occupy the cluster with the first jobs of `log` (placed by the default
/// selector, never released) until at least `fraction` of the nodes are
/// busy. Returns the frozen state — the paper's "partially occupied
/// cluster" starting point.
pub fn warmup_state(tree: &Tree, log: &JobLog, fraction: f64) -> ClusterState {
    assert!((0.0..1.0).contains(&fraction));
    let mut state = ClusterState::new(tree);
    let target = (tree.num_nodes() as f64 * fraction) as usize;
    for job in &log.jobs {
        if state.busy_total() >= target {
            break;
        }
        // Skip jobs that would overshoot the requested occupancy — a single
        // machine-sized job must not leave the "partially occupied" cluster
        // full.
        if state.busy_total() + job.nodes > target + target / 5 || job.nodes > state.free_total() {
            continue;
        }
        // Only the placement matters here, so no engine and no Eq. 6
        // scoring: the default selector reads the request's size alone.
        let req = AllocRequest {
            job: job.id,
            nodes: job.nodes,
            nature: job.nature,
            pattern: None,
            attempt: 0,
        };
        if let Ok(nodes) = DefaultTreeSelector.select(tree, &state, &req) {
            #[expect(
                clippy::expect_used,
                reason = "select() only returns nodes free in the state it was handed, so allocate cannot fail here"
            )]
            state
                .allocate(tree, job.id, &nodes, job.nature)
                .expect("placement over free nodes");
        }
    }
    state
}

/// Place every probe job from the same frozen `state` under every selector
/// in [`SelectorKind::ALL`]. Jobs that cannot fit the free capacity are
/// skipped (the paper samples jobs that fit its warm cluster).
///
/// Probes are independent — each one reads the shared frozen `state` — so
/// they fan out across the rayon thread budget in contiguous chunks, and
/// each chunk builds its four engines and one evaluator once instead of
/// once per probe. Engine placement over a frozen state is a pure function
/// of (state, job, config) — an evaluator keeps buffers between calls but
/// no results — so chunk geometry cannot change a single output byte, and
/// results keep probe order at every thread count.
pub fn individual_runs(
    tree: &Tree,
    state: &ClusterState,
    probes: &[Job],
    base_cfg: EngineConfig,
) -> Vec<IndividualOutcome> {
    // A few chunks per thread so uneven probe cost rebalances.
    let chunk_len = probes
        .len()
        .div_ceil((rayon::current_num_threads() * 4).max(1))
        .max(1);
    probes
        .par_chunks(chunk_len)
        .flat_map(|chunk| {
            let engines: Vec<_> = SelectorKind::ALL
                .iter()
                .map(|&kind| {
                    let cfg = EngineConfig {
                        selector: kind,
                        ..base_cfg
                    };
                    (kind, Engine::new(tree, cfg), kind.build())
                })
                .collect();
            let mut eval = PlacementEvaluator::new();
            chunk
                .iter()
                .filter_map(|job| {
                    if job.nodes > state.free_total() {
                        return None;
                    }
                    let mut placements = Vec::with_capacity(engines.len());
                    for (kind, engine, selector) in &engines {
                        let Some(placed) =
                            engine.place(&mut eval, state, job, selector.as_ref(), &[], 0)
                        else {
                            continue;
                        };
                        placements.push(ProbePlacement {
                            selector: kind.name().to_string(),
                            cost: placed.cost_actual,
                            runtime_adjusted: placed.adjusted,
                        });
                    }
                    Some(IndividualOutcome {
                        job: job.id,
                        nodes: job.nodes,
                        runtime_original: job.runtime,
                        placements,
                    })
                })
                .collect::<Vec<_>>()
        })
        .collect()
}

/// Mean percentage improvement over default across outcomes, for one
/// selector — a Table 4 cell. Compute-intensive probes contribute 0, as in
/// the paper (their runtimes never change).
pub fn mean_improvement(outcomes: &[IndividualOutcome], selector: SelectorKind) -> f64 {
    if outcomes.is_empty() {
        return 0.0;
    }
    let sum: f64 = outcomes
        .iter()
        .map(|o| o.improvement_over_default(selector))
        .sum();
    sum / outcomes.len() as f64
}

/// Filter a log's jobs down to its communication-intensive ones (probes
/// for Table 4 are drawn from these).
pub fn comm_probes(log: &JobLog, limit: usize) -> Vec<Job> {
    log.jobs
        .iter()
        .filter(|j| j.nature == JobNature::CommIntensive)
        .take(limit)
        .cloned()
        .collect()
}

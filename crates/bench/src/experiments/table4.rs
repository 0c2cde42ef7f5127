//! Table 4 — individual runs: mean percentage improvement in execution
//! time over default, placing each probe job from an identical
//! partially-occupied cluster state (3 logs × {RHVD, RD}).

use crate::{build_log, paper_systems, ExperimentResult, LogShape, Scale};
use commsched_collectives::Pattern;
use commsched_core::SelectorKind;
use commsched_metrics::Table;
use commsched_slurmsim::individual::{individual_runs, mean_improvement, warmup_state};
use commsched_slurmsim::EngineConfig;
use commsched_workload::JobNature;
use rand::prelude::*;
use rand_chacha::ChaCha12Rng;
use rayon::prelude::*;
use serde_json::json;

/// Probes per cell (the paper samples 200 jobs).
const PROBES: usize = 200;
/// Warm-up occupancy fraction before probing.
const WARM: f64 = 0.55;

/// One (system, pattern) row.
#[derive(Debug, Clone, serde::Serialize)]
pub(crate) struct Row {
    /// System name.
    pub system: String,
    /// Pattern name.
    pub pattern: String,
    /// Mean % improvement for greedy/balanced/adaptive.
    pub improvement_pct: Vec<f64>,
    /// Probe count actually used.
    pub probes: usize,
}

/// Run the Table 4 grid.
pub fn table4(scale: Scale) -> ExperimentResult {
    let systems = paper_systems();
    let trees: Vec<_> = systems.iter().map(|(_, preset)| preset.build()).collect();
    let grid: Vec<_> = systems
        .iter()
        .zip(&trees)
        .flat_map(|(&(system, _), tree)| {
            [Pattern::Rhvd, Pattern::Rd]
                .into_iter()
                .map(move |pattern| (system, tree, pattern))
        })
        .collect();
    // Phase 1, flat and parallel: each of the six cells builds its log,
    // warms the cluster, and samples its probes.
    let prepared: Vec<_> = grid
        .par_iter()
        .map(|&(system, tree, pattern)| {
            let log = build_log(system, scale, 90, LogShape::Pattern(pattern));
            let state = warmup_state(tree, &log, WARM);
            // 200 randomly selected communication-intensive jobs that
            // fit the remaining capacity.
            let mut rng = ChaCha12Rng::seed_from_u64(scale.seed ^ 0xfeed);
            let mut comm: Vec<_> = log
                .jobs
                .iter()
                .filter(|j| j.nature == JobNature::CommIntensive && j.nodes <= state.free_total())
                .cloned()
                .collect();
            comm.shuffle(&mut rng);
            comm.truncate(PROBES.min(scale.jobs));
            (state, comm)
        })
        .collect();
    // Phase 2: cells run one after another, but each `individual_runs`
    // fans its ~200 probes across the full thread budget (chunked, with
    // per-chunk engine reuse) — far more parallel slack than six outer
    // cells would expose.
    let rows: Vec<Row> = grid
        .iter()
        .zip(prepared)
        .map(|(&(system, tree, pattern), (state, comm))| {
            let outcomes = individual_runs(
                tree,
                &state,
                &comm,
                EngineConfig::new(SelectorKind::Default),
            );
            Row {
                system: system.name.to_string(),
                pattern: pattern.to_string(),
                improvement_pct: SelectorKind::PROPOSED
                    .iter()
                    .map(|&k| mean_improvement(&outcomes, k))
                    .collect(),
                probes: outcomes.len(),
            }
        })
        .collect();

    let mut t = Table::new(
        ["Log", "Pattern"]
            .into_iter()
            .map(String::from)
            .chain(SelectorKind::PROPOSED.iter().map(|k| format!("{k} %")))
            .collect(),
    );
    for r in &rows {
        t.row(
            [r.system.clone(), r.pattern.clone()]
                .into_iter()
                .chain(r.improvement_pct.iter().map(|p| format!("{p:.2}")))
                .collect(),
        );
    }

    let text = format!(
        "Table 4: individual runs — mean %% improvement in execution time over \
         default ({} probes from an identical cluster state)\n\n{t}\n\
         Paper's shape: balanced and adaptive >= greedy >= 0 for every log.\n",
        rows.first().map(|r| r.probes).unwrap_or(0)
    );
    ExperimentResult {
        name: "table4",
        text,
        json: json!({ "rows": rows }),
    }
}

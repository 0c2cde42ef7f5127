//! Figure 7 — per-job execution times for the Theta log under RD, in
//! continuous runs (left panel) and individual runs (right panel), for all
//! four allocators.

use crate::{each_selector, run_sweep, ExperimentResult, LogRecipe, LogShape, Scale, SweepCell};
use commsched_collectives::Pattern;
use commsched_core::SelectorKind;
use commsched_metrics::Series;
use commsched_slurmsim::individual::{individual_runs, warmup_state};
use commsched_slurmsim::EngineConfig;
use commsched_topology::SystemPreset;
use commsched_workload::{JobNature, SystemModel};
use serde_json::json;

/// Jobs plotted per panel (the paper plots 200).
const PLOTTED: usize = 200;

/// Run both panels.
pub fn fig7(scale: Scale) -> ExperimentResult {
    let system = SystemModel::theta();
    let tree = SystemPreset::Theta.build();
    let recipe = LogRecipe::new(system, scale, LogShape::Pattern(Pattern::Rd));
    let log = recipe.build();

    // Left: continuous runs — exec time by job id for each selector.
    let cells: Vec<_> = each_selector(SweepCell::new(&tree, recipe)).collect();
    let runs = run_sweep(&cells);
    let plot_ids: Vec<_> = log
        .jobs
        .iter()
        .map(|j| j.id)
        .take(PLOTTED.min(scale.jobs))
        .collect();
    let mut continuous: Vec<Series> = Vec::new();
    for (k, run) in SelectorKind::ALL.iter().zip(&runs) {
        let mut s = Series::new(k.name());
        for (i, id) in plot_ids.iter().enumerate() {
            if let Some(o) = run.outcome(*id) {
                s.push(i as f64, o.exec() as f64);
            }
        }
        continuous.push(s);
    }

    // Right: individual runs from a frozen state.
    let state = warmup_state(&tree, &log, 0.55);
    let probes: Vec<_> = log
        .jobs
        .iter()
        .filter(|j| j.nature == JobNature::CommIntensive && j.nodes <= state.free_total())
        .take(PLOTTED.min(scale.jobs))
        .cloned()
        .collect();
    let outcomes = individual_runs(
        &tree,
        &state,
        &probes,
        EngineConfig::new(SelectorKind::Default),
    );
    let mut individual: Vec<Series> = SelectorKind::ALL
        .iter()
        .map(|k| Series::new(k.name()))
        .collect();
    for (i, o) in outcomes.iter().enumerate() {
        for (si, k) in SelectorKind::ALL.iter().enumerate() {
            if let Some(p) = o.placements.iter().find(|p| p.selector == k.name()) {
                individual[si].push(i as f64, p.runtime_adjusted as f64);
            }
        }
    }

    // Max reductions, the numbers the paper calls out on this figure.
    let max_red = |series: &[Series]| -> f64 {
        let default = &series[0];
        let mut best: f64 = 0.0;
        for s in &series[1..] {
            for (d, c) in default.points.iter().zip(&s.points) {
                if d.1 > 0.0 {
                    best = best.max(100.0 * (d.1 - c.1) / d.1);
                }
            }
        }
        best
    };
    let max_cont = max_red(&continuous);
    let max_ind = max_red(&individual);

    let text = format!(
        "Figure 7: per-job execution times, Theta log, RD pattern\n\
         (CSV series below; x = job index, y = exec seconds)\n\n\
         -- continuous runs --\n{}\n-- individual runs --\n{}\n\
         max per-job reduction: continuous {max_cont:.0}%, individual {max_ind:.0}%\n\
         (paper: 70% and 15% for Theta)\n",
        Series::to_csv(&continuous),
        Series::to_csv(&individual),
    );
    ExperimentResult {
        name: "fig7",
        text,
        json: json!({
            "continuous": continuous.iter().map(|s| (s.name.clone(), s.points.clone())).collect::<Vec<_>>(),
            "individual": individual.iter().map(|s| (s.name.clone(), s.points.clone())).collect::<Vec<_>>(),
            "max_reduction_continuous_pct": max_cont,
            "max_reduction_individual_pct": max_ind,
        }),
    }
}

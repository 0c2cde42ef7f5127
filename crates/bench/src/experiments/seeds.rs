//! Seed-sensitivity study — not a paper artifact, but the robustness check
//! a reproduction owes its reader: are the Table 3 conclusions an artifact
//! of one synthetic log, or stable across independently generated logs?
//!
//! Reruns the Theta × RHVD cell over several seeds and reports each
//! selector's execution/wait totals as mean ± 95% CI, plus the per-seed
//! improvement of balanced/adaptive over default.

use crate::{each_selector, run_sweep, ExperimentResult, LogRecipe, LogShape, Scale, SweepCell};
use commsched_collectives::Pattern;
use commsched_core::SelectorKind;
use commsched_metrics::{mean_ci95, Table};
use commsched_topology::SystemPreset;
use commsched_workload::SystemModel;
use serde_json::json;

/// Independent seeds (the first is the headline seed used everywhere else).
const SEEDS: [u64; 5] = [42, 7, 1234, 99, 2026];

/// Run the sweep.
pub fn seeds(scale: Scale) -> ExperimentResult {
    let system = SystemModel::theta();
    let tree = SystemPreset::Theta.build();

    // The 5 seed cells fan out as 20 flat (seed × selector) work items.
    let rhvd = LogRecipe::new(system, scale, LogShape::Pattern(Pattern::Rhvd));
    let cells: Vec<_> = SEEDS
        .iter()
        .flat_map(|&seed| {
            let scale = Scale { seed, ..scale };
            each_selector(SweepCell::new(&tree, LogRecipe { scale, ..rhvd }))
        })
        .collect();
    // Per seed, per selector: (exec hours, wait hours).
    let per_seed: Vec<Vec<(f64, f64)>> = run_sweep(&cells)
        .chunks(SelectorKind::ALL.len())
        .map(|runs| {
            runs.iter()
                .map(|r| (r.total_exec_hours(), r.total_wait_hours()))
                .collect()
        })
        .collect();

    let mut t = Table::new(
        [
            "selector",
            "exec(h) mean±95CI",
            "wait(h) mean±95CI",
            "exec %red vs default",
        ]
        .map(String::from)
        .to_vec(),
    );
    let mut json_rows = Vec::new();
    for (si, kind) in SelectorKind::ALL.iter().enumerate() {
        let execs: Vec<f64> = per_seed.iter().map(|v| v[si].0).collect();
        let waits: Vec<f64> = per_seed.iter().map(|v| v[si].1).collect();
        let reductions: Vec<f64> = per_seed
            .iter()
            .map(|v| 100.0 * (v[0].0 - v[si].0) / v[0].0)
            .collect();
        let (em, ew) = mean_ci95(&execs);
        let (wm, ww) = mean_ci95(&waits);
        let (rm, rw) = mean_ci95(&reductions);
        t.row(vec![
            kind.name().to_string(),
            format!("{em:.0} ± {ew:.0}"),
            format!("{wm:.0} ± {ww:.0}"),
            format!("{rm:.1} ± {rw:.1}"),
        ]);
        json_rows.push(json!({
            "selector": kind.name(),
            "exec_hours": execs,
            "wait_hours": waits,
            "reduction_pct": reductions,
        }));
    }

    // The claim that must survive every seed: balanced and adaptive beat
    // default on execution time.
    let robust = per_seed.iter().all(|v| v[2].0 < v[0].0 && v[3].0 < v[0].0);

    let text = format!(
        "Seed sensitivity: Theta x RHVD, {} jobs, seeds {:?}\n\n{t}\n\
         balanced & adaptive beat default on every seed: {robust}\n",
        scale.jobs, SEEDS
    );
    ExperimentResult {
        name: "seeds",
        text,
        json: json!({ "seeds": SEEDS, "rows": json_rows, "robust": robust }),
    }
}

//! Figure 6 — percentage reduction in execution time for the §6.2
//! experiment sets A–E on the Theta log (with the Intrepid/Mira numbers the
//! text quotes included in the JSON).

use crate::{each_selector, run_sweep, ExperimentResult, LogRecipe, LogShape, Scale, SweepCell};
use commsched_core::SelectorKind;
use commsched_metrics::Table;
use commsched_topology::SystemPreset;
use commsched_workload::{MixSet, SystemModel};
use serde_json::json;

/// One (system, mix) row: % exec-time reduction per proposed selector.
#[derive(Debug, Clone, serde::Serialize)]
pub(crate) struct MixRow {
    /// System name.
    pub system: String,
    /// Experiment set label A–E.
    pub set: String,
    /// % reduction vs default for greedy/balanced/adaptive.
    pub reduction_pct: Vec<f64>,
}

/// Run the A–E sweep.
pub fn fig6(scale: Scale) -> ExperimentResult {
    let systems = [
        (SystemModel::theta(), SystemPreset::Theta),
        (SystemModel::intrepid(), SystemPreset::Intrepid),
        (SystemModel::mira(), SystemPreset::Mira),
    ];
    // One tree per system, shared by its five mix cells; the 3×5 grid is
    // a single flat work list (systems-major, like the output rows).
    let trees: Vec<_> = systems.iter().map(|(_, preset)| preset.build()).collect();
    let cells: Vec<_> = systems
        .iter()
        .zip(&trees)
        .flat_map(|(&(system, _), tree)| {
            MixSet::ALL.into_iter().flat_map(move |set| {
                each_selector(SweepCell::new(
                    tree,
                    LogRecipe::new(system, scale, LogShape::Mix(set)),
                ))
            })
        })
        .collect();
    let sets = systems
        .iter()
        .flat_map(|(system, _)| MixSet::ALL.into_iter().map(move |set| (system, set)));
    let rows: Vec<MixRow> = run_sweep(&cells)
        .chunks(SelectorKind::ALL.len())
        .zip(sets)
        .map(|(runs, (system, set))| {
            let d = runs[0].total_exec_hours();
            let reduction_pct = runs[1..]
                .iter()
                .map(|r| {
                    if d == 0.0 {
                        0.0
                    } else {
                        100.0 * (d - r.total_exec_hours()) / d
                    }
                })
                .collect();
            MixRow {
                system: system.name.to_string(),
                set: set.label().to_string(),
                reduction_pct,
            }
        })
        .collect();

    let mut t = Table::new(
        ["System", "Set"]
            .into_iter()
            .map(String::from)
            .chain(SelectorKind::PROPOSED.iter().map(|k| format!("{k} %red")))
            .collect(),
    );
    for r in rows.iter().filter(|r| r.system == "theta") {
        t.row(
            [r.system.clone(), r.set.clone()]
                .into_iter()
                .chain(r.reduction_pct.iter().map(|p| format!("{p:.2}")))
                .collect(),
        );
    }

    // The paper's headline shape: gains grow with communication ratio
    // (A -> C and D -> E) and RHVD-heavy B beats D at equal ratio.
    let theta: Vec<&MixRow> = rows.iter().filter(|r| r.system == "theta").collect();
    let avg = |set: &str| -> f64 {
        let r = theta.iter().find(|r| r.set == set).unwrap();
        r.reduction_pct.iter().sum::<f64>() / r.reduction_pct.len() as f64
    };
    let shape = format!(
        "Theta avg reductions: A {:.2}% <= B {:.2}% <= C {:.2}% (comm ratio up => gains up); \
         B {:.2}% vs D {:.2}% (RHVD gains more at equal ratio); D {:.2}% <= E {:.2}%\n",
        avg("A"),
        avg("B"),
        avg("C"),
        avg("B"),
        avg("D"),
        avg("D"),
        avg("E"),
    );

    let text = format!(
        "Figure 6: % reduction in execution time, experiment sets A-E (Theta shown; \
         Intrepid/Mira in JSON)\n\
         A: 67%c+33%RHVD  B: 50/50 RHVD  C: 30/70 RHVD  \
         D: 50%c+15%RD+35%Bin  E: 30%c+21%RD+49%Bin\n\n{t}\n{shape}"
    );
    ExperimentResult {
        name: "fig6",
        text,
        json: json!({ "jobs": scale.jobs, "rows": rows }),
    }
}

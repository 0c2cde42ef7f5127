//! Table 3 — continuous runs: total execution and wait hours for the three
//! job logs × {RHVD, RD} × {default, greedy, balanced, adaptive}, with 90%
//! communication-intensive jobs.

use crate::{
    each_selector, paper_systems, pct, run_sweep, ExperimentResult, LogRecipe, LogShape, Scale,
    SweepCell,
};
use commsched_collectives::Pattern;
use commsched_core::SelectorKind;
use commsched_metrics::Table;
use serde_json::json;

/// One (system, pattern) cell's eight numbers.
#[derive(Debug, Clone, serde::Serialize)]
pub(crate) struct Cell {
    /// "intrepid" | "theta" | "mira".
    pub system: String,
    /// "RHVD" | "RD".
    pub pattern: String,
    /// Total execution hours in [`SelectorKind::ALL`] order.
    pub exec_hours: Vec<f64>,
    /// Total wait hours in the same order.
    pub wait_hours: Vec<f64>,
}

/// Run the full Table 3 grid.
pub fn table3(scale: Scale) -> ExperimentResult {
    let systems = paper_systems();
    let trees: Vec<_> = systems.iter().map(|(_, preset)| preset.build()).collect();
    // The 3×2 grid as one flat work list (systems-major, matching rows).
    let grid: Vec<_> = systems
        .iter()
        .zip(&trees)
        .flat_map(|(&(system, _), tree)| {
            [Pattern::Rhvd, Pattern::Rd]
                .into_iter()
                .map(move |pattern| (system, tree, pattern))
        })
        .collect();
    let sweep_cells: Vec<_> = grid
        .iter()
        .flat_map(|&(system, tree, pattern)| {
            each_selector(SweepCell::new(
                tree,
                LogRecipe::new(system, scale, LogShape::Pattern(pattern)),
            ))
        })
        .collect();
    let cells: Vec<Cell> = run_sweep(&sweep_cells)
        .chunks(SelectorKind::ALL.len())
        .zip(&grid)
        .map(|(runs, (system, _, pattern))| Cell {
            system: system.name.to_string(),
            pattern: pattern.to_string(),
            exec_hours: runs.iter().map(|r| r.total_exec_hours()).collect(),
            wait_hours: runs.iter().map(|r| r.total_wait_hours()).collect(),
        })
        .collect();

    let mut t = Table::new(
        ["Log", "Pattern"]
            .into_iter()
            .map(String::from)
            .chain(SelectorKind::ALL.iter().map(|k| format!("Exec:{k}")))
            .chain(SelectorKind::ALL.iter().map(|k| format!("Wait:{k}")))
            .collect(),
    );
    for c in &cells {
        t.row(
            [c.system.clone(), c.pattern.clone()]
                .into_iter()
                .chain(c.exec_hours.iter().map(|h| format!("{h:.0}")))
                .chain(c.wait_hours.iter().map(|h| format!("{h:.0}")))
                .collect(),
        );
    }

    // Shape checks the paper emphasizes: balanced/adaptive beat default on
    // execution time for every log and pattern.
    let mut shape_notes = String::new();
    for c in &cells {
        let d = c.exec_hours[0];
        let b = c.exec_hours[2];
        let a = c.exec_hours[3];
        shape_notes.push_str(&format!(
            "{:>9} {:>4}: balanced {}, adaptive {} vs default (exec)\n",
            c.system,
            c.pattern,
            pct(d, b),
            pct(d, a),
        ));
    }

    let text = format!(
        "Table 3: execution and wait times (hours), continuous runs, 90% comm jobs\n\
         ({} jobs per log)\n\n{t}\n{shape_notes}",
        scale.jobs
    );
    let selectors = SelectorKind::ALL.map(|k| k.name());
    ExperimentResult {
        name: "table3",
        text,
        json: json!({ "jobs": scale.jobs, "selectors": selectors, "cells": cells }),
    }
}

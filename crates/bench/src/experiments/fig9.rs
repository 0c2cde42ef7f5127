//! Figure 9 — average turnaround time and node-hours for the Intrepid log
//! (RHVD) as the percentage of communication-intensive jobs varies over
//! 30 / 60 / 90, for all four allocators.

use crate::{run_sweep, ExperimentResult, LogShape, Scale, SweepCell};
use commsched_collectives::Pattern;
use commsched_core::SelectorKind;
use commsched_metrics::Table;
use commsched_topology::SystemPreset;
use commsched_workload::SystemModel;
use serde_json::json;

/// One %comm level's eight numbers.
#[derive(Debug, Clone, serde::Serialize)]
pub(crate) struct Level {
    /// 30 / 60 / 90.
    pub comm_pct: u8,
    /// Mean turnaround hours per selector ([`SelectorKind::ALL`] order).
    pub turnaround_h: Vec<f64>,
    /// Mean node-hours per job per selector.
    pub node_hours: Vec<f64>,
    /// Throughput (jobs/hour of makespan) per selector.
    pub throughput: Vec<f64>,
}

/// Run the Figure 9 sweep.
pub fn fig9(scale: Scale) -> ExperimentResult {
    let system = SystemModel::intrepid();
    let tree = SystemPreset::Intrepid.build();
    const LEVELS: [u8; 3] = [30, 60, 90];
    let cells: Vec<SweepCell> = LEVELS
        .into_iter()
        .map(|pct| SweepCell {
            tree: &tree,
            system,
            comm_pct: pct,
            shape: LogShape::Pattern(Pattern::Rhvd),
            scale,
        })
        .collect();
    let levels: Vec<Level> = run_sweep(&cells)
        .into_iter()
        .zip(LEVELS)
        .map(|(runs, pct)| Level {
            comm_pct: pct,
            turnaround_h: runs.iter().map(|r| r.avg_turnaround_hours()).collect(),
            node_hours: runs.iter().map(|r| r.avg_node_hours()).collect(),
            throughput: runs.iter().map(|r| r.throughput()).collect(),
        })
        .collect();

    let mut t = Table::new(
        ["%comm"]
            .into_iter()
            .map(String::from)
            .chain(SelectorKind::ALL.iter().map(|k| format!("TAT:{k}")))
            .chain(SelectorKind::ALL.iter().map(|k| format!("NH:{k}")))
            .collect(),
    );
    for l in &levels {
        t.row(
            [l.comm_pct.to_string()]
                .into_iter()
                .chain(l.turnaround_h.iter().map(|h| format!("{h:.2}")))
                .chain(l.node_hours.iter().map(|h| format!("{h:.1}")))
                .collect(),
        );
    }

    // Shape: adaptive's improvement grows with %comm.
    let imp = |l: &Level| {
        if l.turnaround_h[0] == 0.0 {
            0.0
        } else {
            100.0 * (l.turnaround_h[0] - l.turnaround_h[3]) / l.turnaround_h[0]
        }
    };
    let shape = format!(
        "adaptive turnaround improvement: 30% comm -> {:.2}%, 60% -> {:.2}%, 90% -> {:.2}% \
         (paper: 2.55% at 30% rising to 11.10% at 90%)\n",
        imp(&levels[0]),
        imp(&levels[1]),
        imp(&levels[2]),
    );

    let text = format!(
        "Figure 9: Intrepid, RHVD — average turnaround (hours) and node-hours \
         per job vs %% of communication-intensive jobs\n\n{t}\n{shape}"
    );
    ExperimentResult {
        name: "fig9",
        text,
        json: json!({ "levels": levels }),
    }
}

//! Figure 8 — communication cost (Eq. 6) by node-request range, binomial
//! pattern, 90% communication-intensive jobs, all three logs and all four
//! allocators.

use crate::{paper_systems, run_sweep, ExperimentResult, LogShape, Scale, SweepCell};
use commsched_collectives::Pattern;
use commsched_core::SelectorKind;
use commsched_metrics::Table;
use serde_json::json;

/// One (system, node-range) group of four average costs.
#[derive(Debug, Clone, serde::Serialize)]
pub(crate) struct Bucket {
    /// System name.
    pub system: String,
    /// Node range label ("128", "256-512", ...).
    pub range: String,
    /// Mean Eq. 6 cost per comm job, [`SelectorKind::ALL`] order.
    pub avg_cost: Vec<f64>,
    /// Comm jobs in the bucket.
    pub count: usize,
}

fn bucket_edges(max_request: usize) -> Vec<(usize, usize)> {
    // Power-of-two bands from 128 up to the system's max request.
    let mut lo = 128usize;
    let mut out = Vec::new();
    while lo <= max_request {
        let hi = (lo * 4 - 1).min(max_request);
        out.push((lo, hi));
        lo *= 4;
    }
    out
}

/// Run the Figure 8 grid.
pub fn fig8(scale: Scale) -> ExperimentResult {
    let systems = paper_systems();
    let trees: Vec<_> = systems.iter().map(|(_, preset)| preset.build()).collect();
    let cells: Vec<SweepCell> = systems
        .iter()
        .zip(&trees)
        .map(|(&(system, _), tree)| SweepCell {
            tree,
            system,
            comm_pct: 90,
            shape: LogShape::Pattern(Pattern::Binomial),
            scale,
        })
        .collect();
    // The 3 system runs fan out as 12 flat work items; bucketing the
    // outcomes afterwards is cheap and stays sequential.
    let buckets: Vec<Bucket> = run_sweep(&cells)
        .into_iter()
        .zip(&systems)
        .flat_map(|(runs, (system, _))| {
            bucket_edges(system.max_request)
                .into_iter()
                .filter_map(|(lo, hi)| {
                    let mut avg = Vec::with_capacity(runs.len());
                    let mut count = 0usize;
                    for run in &runs {
                        let costs: Vec<f64> = run
                            .outcomes
                            .iter()
                            .filter(|o| o.nature.is_comm() && o.nodes >= lo && o.nodes <= hi)
                            .map(|o| o.cost_actual)
                            .collect();
                        count = costs.len();
                        if costs.is_empty() {
                            return None;
                        }
                        avg.push(costs.iter().sum::<f64>() / costs.len() as f64);
                    }
                    Some(Bucket {
                        system: system.name.to_string(),
                        range: if lo == hi {
                            format!("{lo}")
                        } else {
                            format!("{lo}-{hi}")
                        },
                        avg_cost: avg,
                        count,
                    })
                })
                .collect::<Vec<_>>()
        })
        .collect();

    let mut t = Table::new(
        ["System", "Nodes", "#jobs"]
            .into_iter()
            .map(String::from)
            .chain(SelectorKind::ALL.iter().map(|k| k.name().to_string()))
            .chain(["bal %red".to_string()])
            .collect(),
    );
    for b in &buckets {
        let red = if b.avg_cost[0] > 0.0 {
            100.0 * (b.avg_cost[0] - b.avg_cost[2]) / b.avg_cost[0]
        } else {
            0.0
        };
        t.row(
            [b.system.clone(), b.range.clone(), b.count.to_string()]
                .into_iter()
                .chain(b.avg_cost.iter().map(|c| format!("{c:.1}")))
                .chain([format!("{red:+.1}")])
                .collect(),
        );
    }

    // Aggregate reductions, the numbers §6.4 quotes (~3.4% greedy, ~11%
    // balanced/adaptive on average).
    let mut sums = [0.0f64; 4];
    let mut weight = 0.0;
    for b in &buckets {
        let w = b.count as f64;
        for (i, c) in b.avg_cost.iter().enumerate() {
            sums[i] += c * w;
        }
        weight += w;
    }
    let avg_red: Vec<f64> = (1..4)
        .map(|i| {
            if sums[0] > 0.0 {
                100.0 * (sums[0] - sums[i]) / sums[0]
            } else {
                0.0
            }
        })
        .collect();
    let _ = weight;

    let text = format!(
        "Figure 8: average communication cost (Eq. 6) by node range, binomial \
         pattern, 90% comm jobs\n\n{t}\n\
         overall cost reduction vs default: greedy {:.1}%, balanced {:.1}%, \
         adaptive {:.1}%  (paper: ~3.4% greedy, ~11% balanced/adaptive)\n",
        avg_red[0], avg_red[1], avg_red[2]
    );
    ExperimentResult {
        name: "fig8",
        text,
        json: json!({ "buckets": buckets, "overall_reduction_pct": avg_red }),
    }
}

//! Ablations of the design choices DESIGN.md calls out — not a paper
//! artifact, but the evidence for why the reproduction is configured the
//! way it is:
//!
//! * **Backfill policy** (none / EASY / conservative): the queueing
//!   substrate the allocators sit in. The paper inherits SLURM's EASY-style
//!   backfilling; this quantifies how much of the wait-time story is
//!   backfill rather than allocation.
//! * **Eq. 7 ratio model** (raw hops vs hop-bytes): raw hops makes RHVD's
//!   cost exactly 2x RD's and the Eq. 7 ratios identical; hop-bytes (§5.3)
//!   is what differentiates the patterns.
//! * **Eq. 7 feedback on/off**: how much of the wait-time improvement is
//!   the feedback loop (shorter jobs drain queues) vs pure placement.

use crate::{run_sweep, ExperimentResult, LogRecipe, LogShape, Scale, SweepCell};
use commsched_collectives::Pattern;
use commsched_core::{CostModel, SelectorKind};
use commsched_metrics::Table;
use commsched_slurmsim::EngineConfig;
use commsched_topology::SystemPreset;
use commsched_workload::SystemModel;
use serde_json::json;

/// Run all three ablations on the Theta log.
pub fn ablation(scale: Scale) -> ExperimentResult {
    let tree = SystemPreset::Theta.build();
    let rhvd = LogRecipe::new(
        SystemModel::theta(),
        scale,
        LogShape::Pattern(Pattern::Rhvd),
    );
    let rd = LogRecipe {
        shape: LogShape::Pattern(Pattern::Rd),
        ..rhvd
    };
    let cell = |log, config| SweepCell {
        config,
        ..SweepCell::new(&tree, log)
    };
    let with_ratio = |kind, model| {
        let mut cfg = EngineConfig::new(kind);
        cfg.ratio_model = model;
        cfg
    };

    let backfill_cfgs = [
        (
            "fifo",
            EngineConfig::new(SelectorKind::Default).without_backfill(),
        ),
        ("easy", EngineConfig::new(SelectorKind::Default)),
        (
            "conservative",
            EngineConfig::new(SelectorKind::Default).conservative_backfill(),
        ),
    ];
    let ratio_models = [
        ("hops", CostModel::HOPS),
        ("hop-bytes", CostModel::HOP_BYTES),
    ];
    let discounts = [0.25f64, 0.5, 1.0];
    let feedback_cfgs = [
        (
            "replay",
            EngineConfig::new(SelectorKind::Balanced).without_adjustment(),
        ),
        ("eq7", EngineConfig::new(SelectorKind::Balanced)),
    ];

    // All four studies run over the two shared logs as ONE sweep (12
    // runs), instead of four back-to-back 2–3-item bursts; each study's
    // rows then take their runs off the front, in the order the cells
    // were listed.
    let cells: Vec<SweepCell> = backfill_cfgs
        .iter()
        // Backfill policy: default selector, pure replay.
        .map(|&(_, cfg)| cell(rhvd, cfg.without_adjustment()))
        // Ratio model: hops vs hop-bytes, balanced selector, both logs.
        .chain(ratio_models.iter().flat_map(|&(_, model)| {
            [rhvd, rd].map(|log| cell(log, with_ratio(SelectorKind::Balanced, model)))
        }))
        // Contention trunk discount: paper's 1/2 vs flat vs steep.
        .chain(discounts.iter().map(|&trunk_discount| {
            let model = CostModel {
                trunk_discount,
                ..CostModel::HOP_BYTES
            };
            cell(rhvd, with_ratio(SelectorKind::Adaptive, model))
        }))
        // Eq. 7 feedback on/off, balanced selector.
        .chain(feedback_cfgs.iter().map(|&(_, cfg)| cell(rhvd, cfg)))
        .collect();
    let mut runs = run_sweep(&cells).into_iter();

    let backfill_rows: Vec<(String, f64, f64)> = backfill_cfgs
        .iter()
        .zip(runs.by_ref())
        .map(|((name, _), s)| {
            (
                name.to_string(),
                s.total_wait_hours(),
                s.avg_turnaround_hours(),
            )
        })
        .collect();
    let ratio_rows: Vec<(String, f64, f64)> = ratio_models
        .iter()
        .map(|(name, _)| {
            // RHVD first, then RD, as the cells were listed.
            let mut exec = || runs.next().expect("one run per cell").total_exec_hours();
            (name.to_string(), exec(), exec())
        })
        .collect();
    let discount_rows: Vec<(String, f64)> = discounts
        .iter()
        .zip(runs.by_ref())
        .map(|(d, s)| (format!("{d}"), s.total_exec_hours()))
        .collect();
    let feedback_rows: Vec<(String, f64, f64)> = feedback_cfgs
        .iter()
        .zip(runs)
        .map(|((name, _), s)| (name.to_string(), s.total_exec_hours(), s.total_wait_hours()))
        .collect();

    let mut t1 = Table::new(
        ["backfill", "wait(h)", "turnaround(h)"]
            .map(String::from)
            .to_vec(),
    );
    for (n, w, tat) in &backfill_rows {
        t1.row(vec![n.clone(), format!("{w:.0}"), format!("{tat:.2}")]);
    }
    let mut t2 = Table::new(
        ["ratio model", "exec RHVD(h)", "exec RD(h)"]
            .map(String::from)
            .to_vec(),
    );
    for (n, a, b) in &ratio_rows {
        t2.row(vec![n.clone(), format!("{a:.0}"), format!("{b:.0}")]);
    }
    let mut t4 = Table::new(
        ["trunk discount", "exec(h) adaptive"]
            .map(String::from)
            .to_vec(),
    );
    for (n, e) in &discount_rows {
        t4.row(vec![n.clone(), format!("{e:.0}")]);
    }

    let mut t3 = Table::new(
        ["Eq.7 feedback", "exec(h)", "wait(h)"]
            .map(String::from)
            .to_vec(),
    );
    for (n, e, w) in &feedback_rows {
        t3.row(vec![n.clone(), format!("{e:.0}"), format!("{w:.0}")]);
    }

    let text = format!(
        "Ablations (Theta log, {} jobs)\n\n\
         1. Backfill policy (default selector, runtimes replayed):\n{t1}\n\
         2. Eq. 7 ratio model (balanced selector): raw hops cannot tell RHVD\n   from RD; hop-bytes (the §5.3 weighting) can:\n{t2}\n\
         3. Eq. 7 feedback (balanced, RHVD): placement alone changes nothing\n   in a replay; the runtime feedback is what moves exec and wait:\n{t3}\n         4. Contention trunk discount (Eq. 3's pooled-term weight; the paper\n   uses 1/2 for fat-trees, 1.0 models a skinny tree):\n{t4}",
        scale.jobs
    );
    ExperimentResult {
        name: "ablation",
        text,
        json: json!({
            "backfill": backfill_rows,
            "ratio_model": ratio_rows,
            "feedback": feedback_rows,
            "trunk_discount": discount_rows,
        }),
    }
}

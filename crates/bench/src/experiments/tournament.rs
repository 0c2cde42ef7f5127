//! Tournament — simulated annealing vs the paper's selectors.
//!
//! Not a paper artifact: this experiment measures the cost-vs-compute
//! knob the [`commsched_core::SaSelector`] adds on top of §4.3. Like the
//! paper's individual runs (§5.4), every contender places the same probe
//! jobs from the same frozen, partially-occupied cluster — continuous
//! runs would give each selector a different history and no per-placement
//! comparison. Each cell of the table3 grid (3 systems × {RHVD, RD})
//! reports the summed Eq. 6 hop-bytes cost per contender, with SA swept
//! across budgets — the cost-vs-budget curve.
//!
//! Two invariants are asserted per cell (the PR's acceptance gate):
//! * SA at any budget never exceeds the greedy cost — the incumbent is
//!   the hop-bytes minimum of greedy and balanced, and the search only
//!   replaces it with something strictly cheaper;
//! * SA at budget 0 returns the adaptive placement **bit-for-bit**.

use crate::{paper_systems, pct, ExperimentResult, LogRecipe, LogShape, Scale};
use commsched_collectives::{CollectiveSpec, Pattern};
use commsched_core::{
    AdaptiveSelector, AllocRequest, BalancedSelector, CostModel, GreedySelector, NodeSelector,
    Placement, PlacementEvaluator, SaSelector,
};
use commsched_metrics::Table;
use commsched_slurmsim::individual::{comm_probes, warmup_state};
use commsched_topology::Tree;
use commsched_workload::SystemModel;
use rayon::prelude::*;
use serde_json::json;

/// SA budgets swept per probe, in curve order. Budget 0 is the
/// bit-for-bit incumbent anchor; 256 is the acceptance-gate point.
pub(crate) const SA_BUDGETS: [u32; 4] = [0, 16, 64, 256];

/// Fraction of the machine occupied before probing, as in §5.4.
const WARMUP_FRACTION: f64 = 0.55;

/// One (system, pattern) cell's tournament outcome.
#[derive(Debug, Clone, serde::Serialize)]
struct Cell {
    /// "intrepid" | "theta" | "mira".
    system: String,
    /// "RHVD" | "RD".
    pattern: String,
    /// Probe jobs placed (comm-intensive, fitting the warm cluster).
    probes: usize,
    /// Summed Eq. 6 hop-bytes cost per contender.
    greedy: f64,
    balanced: f64,
    adaptive: f64,
    /// SA curve: summed cost per entry of [`SA_BUDGETS`].
    sa: Vec<f64>,
}

/// Place every probe under one selector from the frozen state and sum
/// the Eq. 6 hop-bytes cost of the chosen allocations.
fn score_all(
    tree: &Tree,
    state: &commsched_core::ClusterState,
    probes: &[AllocRequest],
    selector: &dyn NodeSelector,
    eval: &mut PlacementEvaluator,
) -> (f64, Vec<Placement>) {
    let model = CostModel::HOP_BYTES;
    let mut total = 0.0;
    let mut placements = Vec::with_capacity(probes.len());
    for req in probes {
        let nodes = selector
            .select(tree, state, req)
            .expect("probes are filtered to fit the warm cluster");
        total += eval
            .evaluate(tree, state, model.trunk_discount, &nodes, &req.spec())
            .for_model(&model);
        placements.push(nodes);
    }
    (total, placements)
}

/// Run one cell: warm the cluster, place the probes under every
/// contender, check the gate invariants.
fn run_cell(system: SystemModel, tree: &Tree, pattern: Pattern, scale: Scale) -> Cell {
    let log = LogRecipe::new(system, scale, LogShape::Pattern(pattern)).build();
    let state = warmup_state(tree, &log, WARMUP_FRACTION);
    let probes: Vec<AllocRequest> = comm_probes(&log, scale.jobs)
        .into_iter()
        .filter(|j| j.nodes <= state.free_total())
        .map(|j| {
            AllocRequest::comm(j.id, j.nodes).with_pattern(
                j.comm
                    .first()
                    .map(|&(p, _)| CollectiveSpec::new(p, 1 << 20))
                    .unwrap_or_else(|| CollectiveSpec::new(pattern, 1 << 20)),
            )
        })
        .collect();

    let mut eval = PlacementEvaluator::new();
    let (greedy, _) = score_all(tree, &state, &probes, &GreedySelector, &mut eval);
    let (balanced, _) = score_all(tree, &state, &probes, &BalancedSelector, &mut eval);
    let (adaptive, adaptive_nodes) = score_all(
        tree,
        &state,
        &probes,
        &AdaptiveSelector::default(),
        &mut eval,
    );
    let mut sa = Vec::with_capacity(SA_BUDGETS.len());
    for budget in SA_BUDGETS {
        let selector = SaSelector::new(budget, scale.seed);
        let (cost, nodes) = score_all(tree, &state, &probes, &selector, &mut eval);
        if budget == 0 {
            // Gate: budget 0 is the adaptive incumbent, bit-for-bit.
            assert_eq!(
                nodes, adaptive_nodes,
                "{} {pattern}: sa@0 placements differ from adaptive",
                system.name
            );
        }
        // Gate: SA never exceeds greedy (incumbent = min(greedy,
        // balanced) under hop-bytes; the search only improves on it).
        assert!(
            cost <= greedy + 1e-9,
            "{} {pattern}: sa@{budget} cost {cost} exceeds greedy {greedy}",
            system.name
        );
        sa.push(cost);
    }

    Cell {
        system: system.name.to_string(),
        pattern: pattern.to_string(),
        probes: probes.len(),
        greedy,
        balanced,
        adaptive,
        sa,
    }
}

/// Run the full tournament grid.
pub fn tournament(scale: Scale) -> ExperimentResult {
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
    // Cells are independent and collected in source order, so the output
    // is byte-identical at every thread count.
    let cells: Vec<Cell> = grid
        .par_iter()
        .map(|&(system, tree, pattern)| run_cell(system, tree, pattern, scale))
        .collect();

    let mut t = Table::new(
        ["Log", "Pattern", "Probes", "Greedy", "Balanced", "Adaptive"]
            .into_iter()
            .map(String::from)
            .chain(SA_BUDGETS.iter().map(|b| format!("SA@{b}")))
            .collect(),
    );
    for c in &cells {
        t.row(
            [
                c.system.clone(),
                c.pattern.clone(),
                c.probes.to_string(),
                format!("{:.0}", c.greedy),
                format!("{:.0}", c.balanced),
                format!("{:.0}", c.adaptive),
            ]
            .into_iter()
            .chain(c.sa.iter().map(|v| format!("{v:.0}")))
            .collect(),
        );
    }

    // The curve summary: per cell, SA's best budget vs greedy.
    let mut curve_notes = String::new();
    for c in &cells {
        let best = c.sa.last().copied().unwrap_or(c.adaptive);
        curve_notes.push_str(&format!(
            "{:>9} {:>4}: sa@{} {} vs greedy (Eq. 6 hop-bytes, summed)\n",
            c.system,
            c.pattern,
            SA_BUDGETS[SA_BUDGETS.len() - 1],
            pct(c.greedy, best),
        ));
    }

    let text = format!(
        "Tournament: annealed placement vs greedy/balanced/adaptive, frozen \
         {:.0}%-occupied clusters, {} jobs per log\n\
         (cost-vs-budget curves; sa@0 == adaptive bit-for-bit, sa@N <= greedy on \
         every cell — asserted)\n\n{t}\n{curve_notes}",
        WARMUP_FRACTION * 100.0,
        scale.jobs
    );
    ExperimentResult {
        name: "tournament",
        text,
        json: json!({
            "jobs": scale.jobs,
            "seed": scale.seed,
            "warmup_fraction": WARMUP_FRACTION,
            "sa_budgets": SA_BUDGETS.to_vec(),
            "cells": cells,
        }),
    }
}

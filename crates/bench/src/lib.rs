//! The reproduction harness: one module per table/figure in the paper's
//! evaluation (§6), plus the §5.3 correlation check.
//!
//! Each experiment produces an [`ExperimentResult`]: a human-readable text
//! block shaped like the paper's table/figure, and a JSON value with the
//! raw numbers, written side by side by the `repro` binary.
//!
//! | id        | paper artifact                                            |
//! |-----------|-----------------------------------------------------------|
//! | `fig1`    | Figure 1 — two-job interference on shared switches        |
//! | `corr`    | §5.3 — contention factor vs measured time correlation     |
//! | `table2`  | Table 2 — balanced split of a 512-node request            |
//! | `table3`  | Table 3 — exec/wait hours, 3 logs × RHVD/RD × 4 selectors |
//! | `fig6`    | Figure 6 — % exec reduction for mixes A–E (Theta)         |
//! | `table4`  | Table 4 — individual runs, mean % improvement             |
//! | `fig7`    | Figure 7 — continuous vs individual per-job exec times    |
//! | `fig8`    | Figure 8 — comm cost by node range (binomial)             |
//! | `fig9`    | Figure 9 — turnaround & node-hours vs %comm (Intrepid)    |
//!
//! Experiments are deterministic per [`Scale`] (fixed seeds) and sized by
//! `Scale::jobs` so the same code drives both quick CI runs and the full
//! 1000-job replication.

#![forbid(unsafe_code)]
pub mod experiments;
pub mod perf;

use commsched_core::SelectorKind;
use commsched_slurmsim::{Engine, EngineConfig, RunSummary};
use commsched_topology::{SystemPreset, Tree};
use commsched_workload::{JobLog, LogSpec, MixSet, SystemModel};
use rayon::prelude::*;

/// Experiment sizing: number of jobs per log and the RNG seed.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    /// Jobs per log (the paper uses 1000).
    pub jobs: usize,
    /// Base seed; every log derives its own stream from it.
    pub seed: u64,
}

impl Scale {
    /// The paper's scale: 1000 jobs per log.
    pub fn paper() -> Self {
        Scale {
            jobs: 1000,
            seed: 42,
        }
    }

    /// A fast scale for tests and smoke runs.
    pub fn quick() -> Self {
        Scale {
            jobs: 150,
            seed: 42,
        }
    }
}

/// A rendered experiment: text like the paper's artifact plus raw JSON.
#[derive(Debug, Clone)]
pub struct ExperimentResult {
    /// Short id ("table3", "fig6", ...).
    pub name: &'static str,
    /// Human-readable rendering.
    pub text: String,
    /// Raw numbers for EXPERIMENTS.md bookkeeping.
    pub json: serde_json::Value,
}

/// The three evaluation systems with their topologies, in paper order.
pub(crate) fn paper_systems() -> Vec<(SystemModel, SystemPreset)> {
    vec![
        (SystemModel::intrepid(), SystemPreset::Intrepid),
        (SystemModel::theta(), SystemPreset::Theta),
        (SystemModel::mira(), SystemPreset::Mira),
    ]
}

/// Run one log under all four selectors (in parallel) and return the
/// summaries in [`SelectorKind::ALL`] order.
pub(crate) fn run_all_selectors(tree: &Tree, log: &JobLog) -> Vec<RunSummary> {
    SelectorKind::ALL
        .par_iter()
        .map(|&kind| {
            Engine::new(tree, EngineConfig::new(kind))
                .run(log)
                .expect("log fits the preset topology")
        })
        .collect()
}

/// One cell of a sweep grid: a system and log shape to replay on a
/// topology. Cells carry everything [`run_sweep`] needs to build the
/// cell's log and run it under every selector.
#[derive(Debug, Clone, Copy)]
pub(crate) struct SweepCell<'t> {
    /// The topology to schedule on (built once per system, shared across
    /// the system's cells).
    pub tree: &'t Tree,
    /// The system whose workload model shapes the log.
    pub system: SystemModel,
    /// Percentage of communication-intensive jobs.
    pub comm_pct: u8,
    /// Collective pattern or mix set.
    pub shape: LogShape,
    /// Log sizing and seed.
    pub scale: Scale,
}

/// Run a grid of sweep cells under all four selectors as one **flat**
/// parallel work list, returning each cell's summaries in
/// [`SelectorKind::ALL`] order.
///
/// Two phases, both flat: first every cell's log is generated in
/// parallel (once per cell — the four selector runs share it), then the
/// full `cells × selectors` product fans out as independent work items.
/// A 15-cell grid thus exposes 60 parallel items instead of the 3–5 an
/// outer-level `par_iter` with nested (flattened) inner calls would, so
/// wide hosts stay busy across uneven cell costs. Work items land back
/// in `(cell, selector)` source order, so the output is byte-identical
/// at every thread count.
pub(crate) fn run_sweep(cells: &[SweepCell<'_>]) -> Vec<Vec<RunSummary>> {
    let logs: Vec<JobLog> = cells
        .par_iter()
        .map(|c| build_log(c.system, c.scale, c.comm_pct, c.shape))
        .collect();
    let work: Vec<(usize, SelectorKind)> = (0..cells.len())
        .flat_map(|i| SelectorKind::ALL.iter().map(move |&k| (i, k)))
        .collect();
    let flat: Vec<RunSummary> = work
        .par_iter()
        .map(|&(i, kind)| {
            Engine::new(cells[i].tree, EngineConfig::new(kind))
                .run(&logs[i])
                .expect("log fits the preset topology")
        })
        .collect();
    let mut grouped: Vec<Vec<RunSummary>> = Vec::with_capacity(cells.len());
    let mut flat = flat.into_iter();
    for _ in 0..cells.len() {
        grouped.push(flat.by_ref().take(SelectorKind::ALL.len()).collect());
    }
    grouped
}

/// Build the synthetic log for a (system, pattern/mix) cell.
pub(crate) fn build_log(
    system: SystemModel,
    scale: Scale,
    comm_pct: u8,
    shape: LogShape,
) -> JobLog {
    let spec = LogSpec::new(system, scale.jobs, scale.seed).comm_percent(comm_pct);
    let spec = match shape {
        LogShape::Pattern(p) => spec.pattern(p),
        LogShape::Mix(m) => spec.mix(m),
    };
    spec.generate()
}

/// Either a uniform collective pattern at 50% communication (Table 3,
/// Figures 7–9) or one of the §6.2 experiment sets (Figure 6).
#[derive(Debug, Clone, Copy)]
pub(crate) enum LogShape {
    /// Uniform pattern, 50/50 compute-communication split.
    Pattern(commsched_collectives::Pattern),
    /// Experiment set A–E.
    Mix(MixSet),
}

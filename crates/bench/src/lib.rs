//! The reproduction harness: one module per table/figure in the paper's
//! evaluation (§6), plus the §5.3 correlation check and the studies the
//! reproduction adds (rows after `fig9`).
//!
//! Each experiment produces an [`ExperimentResult`]: a human-readable text
//! block shaped like the paper's table/figure, and a JSON value with the
//! raw numbers, written side by side by the `repro` binary.
//!
//! | id           | paper artifact or study                                      |
//! |--------------|--------------------------------------------------------------|
//! | `fig1`       | Figure 1 — two-job interference on shared switches           |
//! | `corr`       | §5.3 — contention factor vs measured time correlation        |
//! | `table2`     | Table 2 — balanced split of a 512-node request               |
//! | `table3`     | Table 3 — exec/wait hours, 3 logs × RHVD/RD × 4 selectors    |
//! | `fig6`       | Figure 6 — % exec reduction for mixes A–E (Theta)            |
//! | `table4`     | Table 4 — individual runs, mean % improvement                |
//! | `fig7`       | Figure 7 — continuous vs individual per-job exec times       |
//! | `fig8`       | Figure 8 — comm cost by node range (binomial)                |
//! | `fig9`       | Figure 9 — turnaround & node-hours vs %comm (Intrepid)       |
//! | `ablation`   | backfill policy, Eq. 7 ratio model, feedback, trunk discount |
//! | `mapping`    | §7 — rank layouts after allocation (Theta, RHVD)             |
//! | `seeds`      | Table 3's Theta × RHVD cell over five seeds, mean ± 95% CI   |
//! | `faults`     | fault domain × MTBF × requeue policy × selector (Theta)      |
//! | `trace`      | virtual-time traces of the golden-trace scenarios            |
//! | `tournament` | simulated annealing vs the four selectors, warm probes       |
//!
//! Experiments are deterministic per [`Scale`] (fixed seeds) and sized by
//! `Scale::jobs` so the same code drives both quick CI runs and the full
//! 1000-job replication.

#![forbid(unsafe_code)]
pub mod experiments;
pub mod perf;
#[cfg(test)]
mod tests;

use commsched_core::SelectorKind;
use commsched_slurmsim::{Engine, EngineConfig, RunSummary};
use commsched_topology::{SystemPreset, Tree};
use commsched_workload::{FaultTrace, JobLog, LogSpec, MixSet, SystemModel};
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

/// The percentage by which `cand` improves on `base`, signed, or "n/a"
/// for a zero base.
pub(crate) fn pct(base: f64, cand: f64) -> String {
    if base == 0.0 {
        return "n/a".into();
    }
    format!("{:+.1}%", 100.0 * (base - cand) / base)
}

/// The recipe for one synthetic log: the system whose workload model
/// shapes it, its size and seed, its share of communication-intensive jobs
/// and its collective pattern or mix.
#[derive(Debug, Clone, Copy)]
pub(crate) struct LogRecipe {
    /// The system whose workload model shapes the log.
    pub system: SystemModel,
    /// Log sizing and seed.
    pub scale: Scale,
    /// Percentage of communication-intensive jobs.
    pub comm_pct: u8,
    /// Collective pattern or mix set.
    pub shape: LogShape,
}

impl LogRecipe {
    /// A log with the paper's usual 90% communication-intensive jobs.
    pub(crate) fn new(system: SystemModel, scale: Scale, shape: LogShape) -> Self {
        LogRecipe {
            system,
            scale,
            comm_pct: 90,
            shape,
        }
    }

    /// Generate the log.
    pub(crate) fn build(&self) -> JobLog {
        let spec =
            LogSpec::new(self.system, self.scale.jobs, self.scale.seed).comm_percent(self.comm_pct);
        match self.shape {
            LogShape::Pattern(p) => spec.pattern(p),
            LogShape::Mix(m) => spec.mix(m),
        }
        .generate()
    }

    /// Do both recipes generate the same log?
    fn same_log(&self, other: &Self) -> bool {
        let key = |r: &Self| (r.system, r.scale.jobs, r.scale.seed, r.comm_pct, r.shape);
        key(self) == key(other)
    }
}

/// One cell of a sweep grid: everything one whole-log run needs.
#[derive(Debug, Clone, Copy)]
pub(crate) struct SweepCell<'a> {
    /// The topology to schedule on (built once per system, shared across
    /// the system's cells).
    pub tree: &'a Tree,
    /// The log to replay.
    pub log: LogRecipe,
    /// The engine's configuration, selector included.
    pub config: EngineConfig,
    /// Faults injected into the run, if any.
    pub faults: Option<&'a FaultTrace>,
}

impl<'a> SweepCell<'a> {
    /// `log` on `tree` under the paper's configuration, default selector,
    /// no faults.
    pub(crate) fn new(tree: &'a Tree, log: LogRecipe) -> Self {
        SweepCell {
            tree,
            log,
            config: EngineConfig::new(SelectorKind::Default),
            faults: None,
        }
    }
}

/// `cell` under each selector in [`SelectorKind::ALL`] order, the rest of
/// its configuration kept.
pub(crate) fn each_selector(cell: SweepCell<'_>) -> impl Iterator<Item = SweepCell<'_>> {
    SelectorKind::ALL.into_iter().map(move |kind| {
        let mut cell = cell;
        cell.config.selector = kind;
        cell
    })
}

/// Run a grid of cells as one **flat** parallel work list, returning one
/// summary per cell in cell order.
///
/// Two phases, both flat: first every distinct log is generated in
/// parallel (once — the cells that replay it share it), then every cell
/// runs as an independent work item. A 15-log grid under four selectors
/// thus exposes 60 parallel items instead of the 3–5 an outer-level
/// `par_iter` with nested (flattened) inner calls would, so wide hosts stay
/// busy across uneven cell costs. Work items land back in source order, so
/// the output is byte-identical at every thread count.
pub(crate) fn run_sweep(cells: &[SweepCell<'_>]) -> Vec<RunSummary> {
    let mut recipes: Vec<LogRecipe> = Vec::new();
    let work: Vec<(&SweepCell, usize)> = cells
        .iter()
        .map(|c| match recipes.iter().position(|r| r.same_log(&c.log)) {
            Some(i) => (c, i),
            None => {
                recipes.push(c.log);
                (c, recipes.len() - 1)
            }
        })
        .collect();
    let logs: Vec<JobLog> = recipes.par_iter().map(LogRecipe::build).collect();
    work.par_iter()
        .map(|&(cell, log)| {
            let mut engine = Engine::new(cell.tree, cell.config);
            if let Some(trace) = cell.faults {
                engine = engine.with_faults(trace.clone());
            }
            engine
                .run(&logs[log])
                .expect("log fits the cell's topology")
        })
        .collect()
}

/// Either a uniform collective pattern (Table 3, Figures 7–9) or one of
/// the §6.2 experiment sets (Figure 6).
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum LogShape {
    /// Uniform pattern.
    Pattern(commsched_collectives::Pattern),
    /// Experiment set A–E.
    Mix(MixSet),
}

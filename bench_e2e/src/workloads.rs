//! The benchmark's workloads and their set-up.
//!
//! Every workload is a closed loop by construction: seeded synthetic logs
//! replayed to completion through `Engine::run`, one after the other, by
//! the bench process itself. The sizes give a pass of roughly 1.5-2 s on
//! the 2-CPU host the benchmark was defined on; the README records why
//! each workload exists and which layer it loads.

use commsched_core::{ClusterState, SelectorKind};
use commsched_slurmsim::{Engine, EngineConfig};
use commsched_topology::{SystemPreset, Tree};
use commsched_workload::{JobLog, LogSpec, SystemModel};
use std::hint::black_box;
use std::time::Instant;

/// One workload: a machine, a log shape and a scheduler configuration.
#[derive(Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    pub preset: SystemPreset,
    model: fn() -> SystemModel,
    /// Logs replayed per pass (each from its own sub-seed).
    pub logs: usize,
    /// Jobs per log.
    pub jobs: usize,
    comm_percent: u8,
    pub selector: SelectorKind,
    conservative: bool,
}

/// Mira's job mix submitted as one backlog (a job a second against
/// hour-long runtimes), the queue a scheduler faces after a maintenance
/// window. With the stock Mira arrival rate the queue length is a random
/// walk and conservative backfilling's cost, cubic in it, differs 4x
/// between seeds; a backlog makes the queue start at the log size and
/// drain, so the run time depends on the seed only through the job mix.
fn mira_backlog() -> SystemModel {
    SystemModel {
        mean_interarrival: 1.0,
        ..SystemModel::mira()
    }
}

pub const ALL: [Workload; 4] = [
    Workload {
        name: "theta_saturated",
        preset: SystemPreset::Theta,
        model: SystemModel::theta,
        logs: 1,
        jobs: 20_000,
        comm_percent: 90,
        selector: SelectorKind::Default,
        conservative: false,
    },
    Workload {
        name: "intrepid_light",
        preset: SystemPreset::Intrepid,
        model: SystemModel::intrepid,
        logs: 4,
        jobs: 1_000,
        comm_percent: 90,
        selector: SelectorKind::Adaptive,
        conservative: false,
    },
    Workload {
        name: "dragonfly1m_compute",
        preset: SystemPreset::Dragonfly1M,
        model: SystemModel::mira,
        logs: 4,
        jobs: 1_000,
        comm_percent: 0,
        selector: SelectorKind::Balanced,
        conservative: false,
    },
    Workload {
        name: "mira_conservative",
        preset: SystemPreset::Mira,
        model: mira_backlog,
        logs: 3,
        jobs: 250,
        comm_percent: 90,
        selector: SelectorKind::Greedy,
        conservative: true,
    },
];

/// `--smoke` divides every log by this, so all four workloads finish in
/// seconds while running the same code and the same checks.
const SMOKE_DIVISOR: usize = 20;

impl Workload {
    pub fn find(name: &str) -> Option<Workload> {
        ALL.iter().copied().find(|w| w.name == name)
    }

    pub fn smoke(mut self) -> Workload {
        self.jobs = (self.jobs / SMOKE_DIVISOR).max(1);
        self
    }

    /// Jobs submitted per pass.
    pub fn total_jobs(&self) -> usize {
        self.logs * self.jobs
    }

    /// FIFO queue, 1 MiB messages, Eq. 7 on, EASY unless conservative.
    pub fn config(&self) -> EngineConfig {
        let cfg = EngineConfig::new(self.selector);
        if self.conservative {
            cfg.conservative_backfill()
        } else {
            cfg
        }
    }

    fn generate(&self, seed: u64) -> Vec<JobLog> {
        let logs = self.logs as u64;
        (0..logs)
            .map(|i| {
                // Distinct sub-seeds for distinct (seed, log) pairs.
                let sub = seed.wrapping_mul(logs).wrapping_add(i);
                LogSpec::new((self.model)(), self.jobs, sub)
                    .comm_percent(self.comm_percent)
                    .generate()
            })
            .collect()
    }
}

/// What one set-up produces, with the host seconds each layer took.
pub struct Setup {
    pub tree: Tree,
    pub logs: Vec<JobLog>,
    pub topology_build_s: f64,
    pub workload_generate_s: f64,
    pub state_new_s: f64,
    /// The whole set-up, `Engine::new` included.
    pub total_s: f64,
}

/// Everything a user does before the first `Engine::run`: build the
/// topology, generate the logs, construct a cluster state and an engine.
pub fn set_up(w: &Workload, seed: u64) -> Setup {
    let t0 = Instant::now();
    let tree = w.preset.build();
    let t1 = Instant::now();
    let logs = w.generate(seed);
    let t2 = Instant::now();
    let state = black_box(ClusterState::new(&tree));
    let t3 = Instant::now();
    let engine = black_box(Engine::new(&tree, w.config()));
    let t4 = Instant::now();
    drop((state, engine));
    Setup {
        tree,
        logs,
        topology_build_s: (t1 - t0).as_secs_f64(),
        workload_generate_s: (t2 - t1).as_secs_f64(),
        state_new_s: (t3 - t2).as_secs_f64(),
        total_s: (t4 - t0).as_secs_f64(),
    }
}

//! Measured units behind `bench_micro` (`BENCH_micro.json`), each a shipped
//! path set up the way the engine uses it: node selection over the
//! free-count index, the annealed search as one [`SaSelector`] decision,
//! and the incremental-solver flow simulator (a
//! placement row runs `Engine::place` itself on [`PlacementCase::probe`]).
//! The slow references are test oracles in `commsched-core` and
//! `commsched-netsim` (DESIGN.md §4.14), checked there on these scenarios.

use commsched_collectives::{CollectiveSpec, Pattern};
use commsched_core::{
    AllocRequest, BalancedSelector, ClusterState, DefaultTreeSelector, GreedySelector, JobId,
    JobNature, NodeSelector, Placement, SaSelector, SaStats,
};
use commsched_netsim::{FlowSim, JobResult, NetConfig, Workload};
use commsched_topology::{NodeId, SystemPreset, Tree};
use commsched_workload::Job;
use rand::prelude::*;
use rand_chacha::ChaCha12Rng;

/// Base message size of the probe's collectives: the engine's default
/// `EngineConfig::msize`.
const MSIZE: u64 = 1 << 20;

/// One benchmark scenario: a half-occupied system and a probe job.
pub struct PlacementCase {
    pub tree: Tree,
    pub state: ClusterState,
    /// The communication-intensive probe: 10,000 s, 30% RHVD and 20% RD.
    pub probe: Job,
}

impl PlacementCase {
    /// Deterministic half-occupied cluster on `preset` with a `want`-node
    /// communication-intensive probe (the selectors-bench scenario).
    pub fn new(preset: SystemPreset, want: usize) -> Self {
        let tree = preset.build();
        let mut state = ClusterState::new(&tree);
        let mut rng = ChaCha12Rng::seed_from_u64(7);
        let mut nodes: Vec<NodeId> = (0..tree.num_nodes()).map(NodeId).collect();
        nodes.shuffle(&mut rng);
        for (job, chunk) in nodes[..tree.num_nodes() / 2].chunks(512).enumerate() {
            let nature = if job.is_multiple_of(2) {
                JobNature::CommIntensive
            } else {
                JobNature::ComputeIntensive
            };
            let placement = Placement::from_nodes(&tree, chunk).unwrap();
            state
                .allocate(&tree, JobId(job as u64), &placement, nature)
                .unwrap();
        }
        let probe = Job {
            id: JobId(999_999),
            submit: 0,
            runtime: 10_000,
            walltime: 10_000,
            nodes: want,
            nature: JobNature::CommIntensive,
            comm: vec![(Pattern::Rhvd, 0.3), (Pattern::Rd, 0.2)],
        };
        PlacementCase { tree, state, probe }
    }

    fn request_of(&self, want: usize) -> AllocRequest {
        AllocRequest::comm(self.probe.id, want)
            .with_pattern(CollectiveSpec::new(self.probe.comm[0].0, MSIZE))
    }

    /// Pure selection: the three direct selectors back to back.
    pub fn select(&self, want: usize) -> Vec<Placement> {
        let req = self.request_of(want);
        vec![
            DefaultTreeSelector
                .select(&self.tree, &self.state, &req)
                .unwrap(),
            GreedySelector
                .select(&self.tree, &self.state, &req)
                .unwrap(),
            BalancedSelector
                .select(&self.tree, &self.state, &req)
                .unwrap(),
        ]
    }

    /// One full annealed search over the case's probe request: the
    /// `sa_evals_per_sec` measured unit. Returns the decision's search
    /// stats; `None` means the search returned the incumbent without ever
    /// entering the annealing loop (zero budget, compute probe, or a
    /// single candidate leaf).
    pub fn run_sa(&self, budget: u32, seed: u64) -> Option<SaStats> {
        SaSelector::new(budget, seed)
            .decide(&self.tree, &self.state, &self.request_of(self.probe.nodes))
            .unwrap()
            .search
    }
}

/// One netsim benchmark scenario: a topology plus a workload set.
pub struct NetsimCase {
    pub name: &'static str,
    pub tree: Tree,
    pub cfg: NetConfig,
    pub workloads: Vec<Workload>,
}

impl NetsimCase {
    /// Steady state: a few machine-spanning collectives iterating together
    /// — few events, but each solve sees one large coupled component, so
    /// this bounds the incremental solver's worst case.
    pub fn steady_state() -> Self {
        let tree = Tree::regular_two_level(8, 32);
        let n = tree.num_nodes();
        let workloads = (0..4u64)
            .map(|k| {
                let stride = 4;
                let nodes: Vec<NodeId> = (0..32)
                    .map(|i| NodeId(((k as usize) + stride * i + (i / 8) * 37) % n))
                    .collect();
                Workload {
                    id: k + 1,
                    nodes,
                    spec: CollectiveSpec::new(Pattern::Rhvd, 1 << 19),
                    submit: 0.002 * k as f64,
                    iterations: 6,
                }
            })
            .collect();
        NetsimCase {
            name: "steady_state",
            tree,
            cfg: NetConfig::gigabit_ethernet(),
            workloads,
        }
    }

    /// Churn: many short two-node exchanges arriving and finishing all over
    /// a 2,048-node machine. Every event touches a tiny component, which is
    /// exactly what the dirty-link frontier exploits.
    pub fn churn() -> Self {
        let tree = Tree::regular_two_level(64, 32);
        let n = tree.num_nodes();
        let workloads = (0..128u64)
            .map(|k| {
                let a = (k as usize * 53) % n;
                let b = (a + 7 + (k as usize % 11)) % n;
                Workload {
                    id: k + 1,
                    nodes: vec![NodeId(a), NodeId(b)],
                    spec: CollectiveSpec::new(Pattern::Rd, 100_000 + 9_001 * k),
                    submit: 0.0007 * k as f64,
                    iterations: 8,
                }
            })
            .collect();
        NetsimCase {
            name: "churn",
            tree,
            cfg: NetConfig::cheap_ethernet(),
            workloads,
        }
    }

    /// Simulate the scenario to completion.
    pub fn run(&self) -> Vec<JobResult> {
        FlowSim::new(&self.tree, self.cfg).run(self.workloads.clone())
    }
}

//! Measured units behind the `BENCH_*.json` runners: placement evaluation
//! and node selection (`BENCH_engine.json`) and flow-level network
//! simulation (`BENCH_netsim.json`).
//!
//! Every unit is the shipped path, set up the way the engine uses it: the
//! shared [`PlacementEvaluator`] (no state clones, one fused traversal per
//! collective component per allocation, hop memo reused across the job's
//! components), the free-count-index selectors, the incremental rate
//! solver. The slow references these were once timed against are test
//! oracles inside `commsched-core` and `commsched-netsim` (DESIGN.md
//! §4.14), where the same scenarios are checked for exact agreement; a
//! before/after is `bench_e2e --compare parent change`.

use commsched_collectives::{CollectiveSpec, Pattern};
use commsched_core::{
    AdaptiveSelector, AllocRequest, BalancedSelector, ClusterState, CostModel, DefaultTreeSelector,
    GreedySelector, JobId, JobNature, NodeSelector, Placement, PlacementEvaluator,
};
use commsched_netsim::{FlowSim, JobResult, NetConfig, Workload};
use commsched_topology::{NodeId, SystemPreset, Tree};
use rand::prelude::*;
use rand_chacha::ChaCha12Rng;

/// Eq. 6/Eq. 7 numbers of one placement — what the engine computes per job.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PlacementNumbers {
    /// Reported Eq. 6 cost (raw hops) of the chosen allocation.
    pub cost_actual: f64,
    /// Eq. 6 cost of the default allocation from the same state.
    pub cost_default: f64,
    /// Eq. 7-adjusted runtime, seconds (pre-rounding).
    pub adjusted: f64,
}

/// One benchmark scenario: a half-occupied system and a probe job.
pub struct PlacementCase {
    pub tree: Tree,
    pub state: ClusterState,
    /// Probe request size (nodes).
    pub want: usize,
    /// The probe's collective components (pattern, runtime fraction).
    pub comm: Vec<(Pattern, f64)>,
    /// Probe runtime, seconds.
    pub runtime: f64,
    /// Base message size for cost evaluation.
    pub msize: u64,
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
        PlacementCase {
            tree,
            state,
            want,
            comm: vec![(Pattern::Rhvd, 0.3), (Pattern::Rd, 0.2)],
            runtime: 10_000.0,
            msize: 1 << 20,
        }
    }

    fn request(&self) -> AllocRequest {
        self.request_of(self.want)
    }

    fn request_of(&self, want: usize) -> AllocRequest {
        AllocRequest::comm(JobId(999_999), want)
            .with_pattern(CollectiveSpec::new(self.comm[0].0, self.msize))
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

    /// One full annealed search over the case's probe request through the
    /// shared evaluator: the `sa_evals_per_sec` measured unit. Returns the
    /// search stats; `None` means the search returned the incumbent
    /// without ever entering the annealing loop (zero budget, compute
    /// probe, or a single candidate leaf).
    pub fn run_sa(
        &self,
        budget: u32,
        seed: u64,
        eval: &std::sync::Arc<std::sync::Mutex<PlacementEvaluator>>,
    ) -> Option<commsched_core::SaStats> {
        let selector = commsched_core::SaSelector::with_evaluator(
            CostModel::HOP_BYTES,
            commsched_core::SaBudget::with_evals(budget),
            seed,
            eval.clone(),
        );
        selector
            .select(&self.tree, &self.state, &self.request())
            .unwrap();
        selector.take_search_stats()
    }

    /// One whole placement as the engine performs it: evaluator-backed
    /// adaptive decision, then one fused traversal per component for the
    /// chosen and for the default allocation (Eq. 6 costs, Eq. 7 runtime).
    pub fn place(
        &self,
        eval: &std::sync::Arc<std::sync::Mutex<PlacementEvaluator>>,
    ) -> PlacementNumbers {
        let req = self.request();
        let selector = AdaptiveSelector::with_evaluator(CostModel::HOP_BYTES, eval.clone());
        let nodes = selector.select(&self.tree, &self.state, &req).unwrap();
        let default_nodes = DefaultTreeSelector
            .select(&self.tree, &self.state, &req)
            .unwrap();

        let discount = CostModel::HOPS.trunk_discount;
        let mut ev = eval.lock().unwrap();
        let mut eval_all = |alloc: &Placement| -> Vec<(f64, f64)> {
            self.comm
                .iter()
                .map(|&(pattern, _)| {
                    let spec = CollectiveSpec::new(pattern, self.msize);
                    let t = ev.evaluate(&self.tree, &self.state, discount, alloc, &spec);
                    (t.raw_hops, t.hop_bytes)
                })
                .collect()
        };
        let actual = eval_all(&nodes);
        let default = eval_all(&default_nodes);
        drop(ev);

        let mut cost_actual = 0.0;
        let mut cost_default = 0.0;
        let comm_fraction: f64 = self.comm.iter().map(|&(_, f)| f).sum();
        let mut adjusted = self.runtime * (1.0 - comm_fraction);
        for (i, &(_, fraction)) in self.comm.iter().enumerate() {
            cost_actual += actual[i].0;
            cost_default += default[i].0;
            let (ca, cd) = (actual[i].1, default[i].1);
            let ratio = if cd > 0.0 { ca / cd } else { 1.0 };
            adjusted += self.runtime * fraction * ratio;
        }
        PlacementNumbers {
            cost_actual,
            cost_default,
            adjusted,
        }
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

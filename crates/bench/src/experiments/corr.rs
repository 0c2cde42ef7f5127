//! §5.3 validation — the paper reports a Pearson correlation of 0.83
//! between its contention values (Eqs. 2–3) and measured execution times.
//!
//! We regenerate the check against the flow simulator: many random
//! two-job placements on the department-cluster tree; for each, the probe
//! job's measured collective time (under interference) is paired with its
//! Eq. 6 cost evaluated from the same occupancy.

use crate::{ExperimentResult, Scale};
use commsched_collectives::{CollectiveSpec, Pattern};
use commsched_core::{ClusterState, CostModel, JobId, JobNature, Placement};
use commsched_metrics::pearson;
use commsched_netsim::{FlowSim, NetConfig, Workload};
use commsched_topology::{NodeId, SystemPreset};
use rand::prelude::*;
use rand_chacha::ChaCha12Rng;
use serde_json::json;

/// Run the correlation study over `scale.jobs.min(300)` random scenarios,
/// once per network model (non-blocking switches, and the oversubscribed
/// `cheap_ethernet` whose backplane is the physical counterpart of Eq. 2's
/// same-leaf contention term).
pub fn corr(scale: Scale) -> ExperimentResult {
    let tree = SystemPreset::IitkDepartment.build();
    let configs = [
        ("non-blocking", NetConfig::gigabit_ethernet()),
        ("oversubscribed", NetConfig::cheap_ethernet()),
    ];
    let mut lines = String::new();
    let mut json_runs = Vec::new();
    for (label, cfg) in configs {
        let (r, scenarios, costs, times) = correlate(&tree, cfg, scale);
        lines.push_str(&format!(
            "  {label:<14} r = {r:.3} over {scenarios} scenarios\n"
        ));
        json_runs.push(json!({
            "config": label, "scenarios": scenarios, "pearson_r": r,
            "costs": costs, "times": times,
        }));
    }
    let text = format!(
        "Section 5.3 validation: contention-aware cost (Eq. 6) vs measured time\n\n{lines}\n         (paper reports r = 0.83 on its hardware study)\n"
    );
    ExperimentResult {
        name: "corr",
        text,
        json: json!({ "paper_r": 0.83, "runs": json_runs }),
    }
}

fn correlate(
    tree: &commsched_topology::Tree,
    cfg: NetConfig,
    scale: Scale,
) -> (f64, usize, Vec<f64>, Vec<f64>) {
    let sim = FlowSim::new(tree, cfg);
    let model = CostModel::HOPS;
    let spec = CollectiveSpec::new(Pattern::Rhvd, 1 << 20);
    let scenarios = scale.jobs.clamp(50, 300);
    let mut rng = ChaCha12Rng::seed_from_u64(scale.seed);

    let mut costs = Vec::with_capacity(scenarios);
    let mut times = Vec::with_capacity(scenarios);

    for _ in 0..scenarios {
        // Probe job: 8 nodes over 1 or 2 leaves; interferer: 4-12 nodes
        // somewhere random. Node sets are disjoint.
        let mut nodes: Vec<NodeId> = (0..tree.num_nodes()).map(NodeId).collect();
        nodes.shuffle(&mut rng);
        let split: bool = rng.random();
        let probe: Vec<NodeId> = if split {
            // 4 + 4 across the two busiest leaves.
            tree.leaf_nodes(0)
                .take(4)
                .chain(tree.leaf_nodes(1).take(4))
                .collect()
        } else {
            tree.leaf_nodes(rng.random_range(0..tree.num_leaves()))
                .take(8)
                .collect()
        };
        let mut pool: Vec<NodeId> = nodes.into_iter().filter(|n| !probe.contains(n)).collect();
        let interferer: Vec<NodeId> = pool.drain(..rng.random_range(4usize..=12)).collect();

        // Eq. 6 cost from the occupancy both jobs create.
        let mut state = ClusterState::new(tree);
        for (id, nodes) in [(1, &probe), (2, &interferer)] {
            let placement = Placement::from_nodes(tree, nodes).unwrap();
            state
                .allocate(tree, JobId(id), &placement, JobNature::CommIntensive)
                .unwrap();
        }
        let cost = model.job_cost(tree, &state, &probe, &spec);

        // Measured time of one probe collective while the interferer is
        // mid-flight through its own collective stream.
        let res = sim.run(vec![
            Workload {
                id: 1,
                nodes: probe,
                spec,
                submit: 0.05,
                iterations: 3,
            },
            Workload {
                id: 2,
                nodes: interferer,
                spec,
                submit: 0.0,
                iterations: 40,
            },
        ]);
        costs.push(cost);
        times.push(res[0].end - res[0].submit);
    }

    let r = pearson(&costs, &times);
    (r, scenarios, costs, times)
}

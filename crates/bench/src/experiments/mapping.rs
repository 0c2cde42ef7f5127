//! Process-mapping extension study — the paper's §7 future work ("Process
//! mapping after node allocation can provide further improvements").
//!
//! For a sample of communication-intensive jobs placed by each allocator on
//! a warm cluster, compare the Eq. 6 cost of SLURM's block rank layout
//! against round-robin and power-of-two-aligned layouts, and against the
//! best-of-all choice.

use crate::{build_log, ExperimentResult, LogShape, Scale};
use commsched_collectives::{CollectiveSpec, Pattern};
use commsched_core::mapping::{best_mapping, mapped_cost, MappingStrategy};
use commsched_core::{AllocRequest, CostModel, SelectorKind};
use commsched_metrics::Table;
use commsched_slurmsim::individual::warmup_state;
use commsched_topology::SystemPreset;
use commsched_workload::{JobNature, SystemModel};
use serde_json::json;

/// Probes per selector.
const PROBES: usize = 100;

/// Run the mapping study on the Theta log (RHVD, the pattern where block
/// misalignment hurts most).
pub fn mapping(scale: Scale) -> ExperimentResult {
    let system = SystemModel::theta();
    let tree = SystemPreset::Theta.build();
    let log = build_log(system, scale, 90, LogShape::Pattern(Pattern::Rhvd));
    let state = warmup_state(&tree, &log, 0.55);
    let model = CostModel::HOP_BYTES;

    let mut rows = Vec::new();
    for kind in SelectorKind::ALL {
        let selector = kind.build();
        let mut sums = [0.0f64; 4]; // block, rr, aligned, best
        let mut improved = 0usize;
        let mut count = 0usize;
        for job in log
            .jobs
            .iter()
            .filter(|j| j.nature == JobNature::CommIntensive && j.nodes <= state.free_total())
            .take(PROBES.min(scale.jobs))
        {
            let spec = CollectiveSpec::new(job.comm[0].0, 1 << 20);
            let req = AllocRequest {
                job: job.id,
                nodes: job.nodes,
                nature: job.nature,
                pattern: Some(spec),
                attempt: 0,
            };
            // Rank mapping permutes node ids: materialize them.
            let Ok(nodes) = selector.select(&tree, &state, &req).map(|p| p.nodes()) else {
                continue;
            };
            let costs: Vec<f64> = MappingStrategy::ALL
                .iter()
                .map(|&s| mapped_cost(model, &tree, &state, &nodes, &spec, s))
                .collect();
            let (_, _, best) = best_mapping(model, &tree, &state, &nodes, &spec);
            sums[0] += costs[0];
            sums[1] += costs[1];
            sums[2] += costs[2];
            sums[3] += best;
            if best < costs[0] - 1e-9 {
                improved += 1;
            }
            count += 1;
        }
        if count > 0 {
            rows.push((
                kind.name().to_string(),
                sums.map(|s| s / count as f64),
                improved,
                count,
            ));
        }
    }

    let mut t = Table::new(
        [
            "allocator",
            "block",
            "round-robin",
            "aligned",
            "best",
            "jobs improved",
        ]
        .map(String::from)
        .to_vec(),
    );
    for (name, avg, improved, count) in &rows {
        t.row(vec![
            name.clone(),
            format!("{:.2e}", avg[0]),
            format!("{:.2e}", avg[1]),
            format!("{:.2e}", avg[2]),
            format!("{:.2e}", avg[3]),
            format!("{improved}/{count}"),
        ]);
    }

    let text = format!(
        "Process mapping after allocation (future-work extension)\n\
         Theta log, RHVD, hop-bytes cost, identical warm cluster state\n\n{t}\n\
         best <= block by construction; round-robin is the adversarial\n\
         baseline. Balanced allocations are power-of-two per leaf, so block\n\
         is already aligned there and mapping mostly matters for the\n\
         default/greedy allocators' unbalanced splits.\n"
    );
    ExperimentResult {
        name: "mapping",
        text,
        json: json!({
            "rows": rows.iter().map(|(n, avg, imp, cnt)| json!({
                "allocator": n,
                "avg_cost": { "block": avg[0], "round_robin": avg[1],
                               "aligned": avg[2], "best": avg[3] },
                "improved": imp, "count": cnt,
            })).collect::<Vec<_>>(),
        }),
    }
}

//! Table 2 — the balanced allocator's power-of-two split of a 512-node
//! request over leaves with free counts 160/150/100/80/70/50/40.

use crate::{ExperimentResult, Scale};
use commsched_core::{AllocRequest, BalancedSelector, ClusterState, JobId, NodeSelector};
use commsched_metrics::Table;
use commsched_topology::Tree;
use serde_json::json;

/// Paper's free-node counts per leaf switch.
const FREE: [usize; 7] = [160, 150, 100, 80, 70, 50, 40];
/// Paper's expected allocations.
const EXPECTED: [usize; 7] = [128, 128, 64, 64, 64, 32, 32];

/// Reproduce Table 2 exactly.
pub fn table2(_scale: Scale) -> ExperimentResult {
    let tree = Tree::irregular_two_level(&FREE);
    let state = ClusterState::new(&tree);
    let placement = BalancedSelector
        .select(&tree, &state, &AllocRequest::comm(JobId(1), 512))
        .expect("512 fits");
    let mut per_leaf = vec![0usize; tree.num_leaves()];
    for &(k, count) in placement.takes() {
        per_leaf[k] = count as usize;
    }

    let mut t = Table::new(
        std::iter::once("Leaf Switch".to_string())
            .chain((1..=7).map(|k| format!("L[{k}]")))
            .collect(),
    );
    t.row(
        std::iter::once("Free Nodes".to_string())
            .chain(FREE.iter().map(|f| f.to_string()))
            .collect(),
    );
    t.row(
        std::iter::once("Allocated Nodes".to_string())
            .chain(per_leaf.iter().map(|a| a.to_string()))
            .collect(),
    );

    let matches = per_leaf == EXPECTED;
    let text = format!(
        "Table 2: balanced allocation for a job requiring 512 nodes\n\n{t}\n\
         matches paper exactly: {matches}\n"
    );
    ExperimentResult {
        name: "table2",
        text,
        json: json!({ "free": FREE, "allocated": per_leaf,
                       "expected": EXPECTED, "matches": matches }),
    }
}

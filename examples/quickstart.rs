//! Quickstart: place a communication-intensive job with each allocator and
//! compare the communication costs the paper's model assigns them.
//!
//! ```text
//! cargo run --example quickstart
//! ```

use commsched::collectives::CollectiveSpec;
use commsched::core::CostModel;
use commsched::prelude::*;

fn main() {
    // A two-level fat-tree like the paper's Figure 2, scaled up a little:
    // 4 leaf switches with 8 nodes each.
    let tree = Tree::regular_two_level(4, 8);
    let mut state = ClusterState::new(&tree);

    // Pre-existing load: one communication-intensive job holding 6 nodes of
    // leaf 0, and a compute job holding half of leaf 1.
    let ids = |range: std::ops::Range<usize>| {
        Placement::from_nodes(&tree, &range.map(NodeId).collect::<Vec<_>>()).unwrap()
    };
    state
        .allocate(&tree, JobId(1), ids(0..6), JobNature::CommIntensive)
        .unwrap();
    state
        .allocate(&tree, JobId(2), ids(8..12), JobNature::ComputeIntensive)
        .unwrap();

    println!(
        "cluster: {} nodes on {} leaf switches",
        tree.num_nodes(),
        tree.num_leaves()
    );
    for k in 0..tree.num_leaves() {
        println!(
            "  leaf {k}: {} free, {} busy ({} comm-intensive), comm ratio {:.3}",
            state.leaf_free(k),
            state.leaf_busy(k),
            state.leaf_comm(k),
            state.communication_ratio(&tree, k),
        );
    }

    // A new allgather-heavy job wants 12 nodes — more than any single
    // leaf has free, so the selectors must pick a split.
    let spec = CollectiveSpec::new(Pattern::Rhvd, 1 << 20);
    let req = AllocRequest::comm(JobId(3), 12).with_pattern(spec);
    let model = CostModel::HOPS;

    println!("\nplacing a 12-node RHVD job:");
    for kind in SelectorKind::ALL {
        let selector = kind.build();
        let placement = selector.select(&tree, &state, &req).unwrap();
        let cost = model.hypothetical_cost(&tree, &state, &placement, &spec);
        // A placement is its per-leaf split: (leaf ordinal, nodes taken).
        let mut per_leaf = vec![0u32; tree.num_leaves()];
        for &(k, count) in placement.takes() {
            per_leaf[k] = count;
        }
        println!("  {kind:>8}: split {per_leaf:?}  cost (Eq. 6) {cost:.2}");
    }

    println!(
        "\nLower cost means fewer effective hops for the collective's worst\n\
         pair per step — the quantity the adaptive allocator minimizes."
    );
}

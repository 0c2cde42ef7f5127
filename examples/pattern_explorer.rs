//! Explore collective schedules and how allocation shape changes their
//! cost under the paper's model.
//!
//! ```text
//! cargo run --example pattern_explorer -- [PATTERN] [RANKS]
//! # e.g.
//! cargo run --example pattern_explorer -- rhvd 16
//! ```
//!
//! Prints the step schedule (pairs + payloads), then compares the Eq. 6
//! cost of a balanced power-of-two split against progressively unbalanced
//! splits of the same job over two leaf switches.

use commsched::collectives::CollectiveSpec;
use commsched::core::CostModel;
use commsched::prelude::*;

fn main() {
    let mut args = std::env::args().skip(1);
    let pattern: Pattern = args
        .next()
        .map(|s| s.parse().expect("pattern: rd|rhvd|binomial|ring|stencil2d"))
        .unwrap_or(Pattern::Rhvd);
    let ranks: usize = args
        .next()
        .map(|s| s.parse().expect("ranks: a positive integer"))
        .unwrap_or(8);

    let spec = CollectiveSpec::new(pattern, 1 << 20);
    println!(
        "{pattern} over {ranks} ranks ({} steps):\n",
        spec.num_steps(ranks)
    );
    for (k, step) in spec.steps(ranks).iter().enumerate() {
        let pairs: Vec<String> = step.pairs.iter().map(|(a, b)| format!("{a}-{b}")).collect();
        println!(
            "  step {k}: msize {:>8} B  pairs {}",
            step.msize,
            pairs.join(" ")
        );
    }

    // Cost of split shapes over two leaves, as in the paper's §4.2 example
    // (8 nodes as 4+4 beats 3+5 because the inner steps stay intra-switch).
    let leaf = ranks.max(8);
    let tree = Tree::regular_two_level(2, leaf);
    let state = ClusterState::new(&tree);
    let model = CostModel::HOP_BYTES;
    println!("\ncost of {ranks}-rank {pattern} split across two leaf switches:");
    for on_first in (0..=ranks / 2).rev() {
        let nodes: Vec<NodeId> = (0..on_first)
            .map(NodeId)
            .chain((0..ranks - on_first).map(|i| NodeId(leaf + i)))
            .collect();
        if nodes.len() != ranks {
            continue;
        }
        let placement = Placement::from_nodes(&tree, &nodes).unwrap();
        let cost = model.hypothetical_cost(&tree, &state, &placement, &spec);
        let tag = if on_first == ranks / 2 {
            "  <- balanced"
        } else {
            ""
        };
        println!(
            "  {on_first:>3} + {:<3}: hop-bytes cost {cost:>14.0}{tag}",
            ranks - on_first
        );
    }
    println!(
        "\nThe balanced split keeps every step after the first intra-switch\n\
         for RHVD — the effect behind the paper's Table 2 strategy."
    );
}

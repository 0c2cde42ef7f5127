//! Load a SLURM `topology.conf`, run a synthetic workload through the
//! engine, and report per-leaf utilization and communication ratios — the
//! operator's view of what the communication-aware allocators change.
//!
//! ```text
//! cargo run --release --example cluster_report [-- --conf topology.conf]
//! ```
//!
//! Without `--conf`, the paper's Figure 2 topology (scaled to 4 leaves of
//! 16 nodes) is used.

use commsched::core::ClusterState;
use commsched::prelude::*;

fn main() {
    let mut conf_path: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        if a == "--conf" {
            conf_path = args.next();
        }
    }

    let tree = match conf_path {
        Some(p) => {
            let text = std::fs::read_to_string(&p).expect("readable topology.conf");
            Tree::from_conf(&text).expect("valid topology.conf")
        }
        None => Tree::regular_two_level(4, 16),
    };
    println!(
        "topology: {} nodes, {} leaf switches, {} levels\n{}",
        tree.num_nodes(),
        tree.num_leaves(),
        tree.height(),
        tree.to_conf()
    );

    // A synthetic log scaled to this machine.
    let system = SystemModel {
        name: "custom",
        total_nodes: tree.num_nodes(),
        min_request: 1,
        max_request: (tree.num_nodes() / 2).max(1),
        pow2_fraction: 0.9,
        mean_interarrival: 180.0,
        runtime_median: 1800.0,
        runtime_sigma: 1.0,
        walltime_slack: 1.5,
    };
    let log = LogSpec::new(system, 200, 7)
        .comm_percent(90)
        .pattern(Pattern::Rhvd)
        .generate();

    for kind in [SelectorKind::Default, SelectorKind::Adaptive] {
        let summary = Engine::new(&tree, EngineConfig::new(kind))
            .run(&log)
            .expect("log fits");
        println!(
            "== {} ==  exec {:.1} h   wait {:.1} h   comm cost {:.0}",
            kind.name(),
            summary.total_exec_hours(),
            summary.total_wait_hours(),
            summary.total_comm_cost(),
        );

        // Reconstruct the busiest instant's per-leaf picture: replay the
        // outcome intervals and sample at the moment of peak usage.
        let peak_t = summary
            .outcomes
            .iter()
            .map(|o| o.start)
            .max_by_key(|&t| {
                summary
                    .outcomes
                    .iter()
                    .filter(|o| o.start <= t && t < o.end)
                    .map(|o| o.nodes)
                    .sum::<usize>()
            })
            .unwrap_or(0);
        let mut state = ClusterState::new(&tree);
        // Re-place jobs active at peak_t with the same selector to show the
        // leaf-level shape this policy produces.
        let selector = kind.build();
        for o in summary
            .outcomes
            .iter()
            .filter(|o| o.start <= peak_t && peak_t < o.end)
        {
            let req = AllocRequest {
                job: o.id,
                nodes: o.nodes,
                nature: o.nature,
                pattern: None,
                attempt: 0,
            };
            if let Ok(placement) = selector.select(&tree, &state, &req) {
                let _ = state.allocate(&tree, o.id, &placement, o.nature);
            }
        }
        println!("  per-leaf occupancy at peak (t = {peak_t}s):");
        for k in 0..tree.num_leaves() {
            let bar = "#".repeat(state.leaf_busy(k) as usize * 32 / tree.leaf_size(k).max(1));
            println!(
                "    leaf {k:>2}: busy {:>3}/{:<3} comm {:>3}  ratio {:.2}  {bar}",
                state.leaf_busy(k),
                tree.leaf_size(k),
                state.leaf_comm(k),
                state.communication_ratio(&tree, k),
            );
        }
    }
}

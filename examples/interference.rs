//! Recreate the paper's Figure 1 motivation study on the flow-level
//! network simulator: a job's allgather slows down exactly while a second
//! job communicates across the same switches.
//!
//! ```text
//! cargo run --release --example interference [--trunk-factor F]
//! ```
//!
//! `--trunk-factor 2` turns the skinny tree into a fat-tree whose uplinks
//! double per level — watch the spikes shrink.

use commsched::collectives::CollectiveSpec;
use commsched::netsim::{FlowSim, NetConfig, Workload};
use commsched::prelude::*;
use commsched::topology::SystemPreset;

fn main() {
    // The oversubscribed-switch model (like the paper's department
    // cluster); --trunk-factor still scales the uplinks.
    let mut cfg = NetConfig::cheap_ethernet();
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        if a == "--trunk-factor" {
            cfg.trunk_factor = args
                .next()
                .and_then(|v| v.parse().ok())
                .expect("--trunk-factor needs a number");
        }
    }

    // The 50-node department cluster of the paper's study.
    let tree = SystemPreset::IitkDepartment.build();
    let sim = FlowSim::new(&tree, cfg);

    // J1: 8 nodes, 4 + 4 across two leaf switches, MPI_Allgather of 1 MB.
    // J2: 12 nodes, 6 + 6 on the same switches.
    let l0: Vec<NodeId> = tree.leaf_nodes(0).collect();
    let l1: Vec<NodeId> = tree.leaf_nodes(1).collect();
    let j1: Vec<NodeId> = l0[..4].iter().chain(&l1[..4]).copied().collect();
    let j2: Vec<NodeId> = l0[4..10].iter().chain(&l1[4..10]).copied().collect();
    // 1 MB per rank: the gathered vectors are 8 MB (J1) and 12 MB (J2).
    let spec = CollectiveSpec::new(Pattern::Rhvd, (j1.len() as u64) << 20);
    let j2_spec = CollectiveSpec::new(Pattern::Rhvd, (j2.len() as u64) << 20);

    let solo = sim.solo_time(&j1, spec);
    println!("J1 alone: one allgather takes {solo:.3} s");

    // J1 iterates for ~10 virtual minutes; J2 bursts in twice.
    let results = sim.run(vec![
        Workload {
            id: 1,
            nodes: j1,
            spec,
            submit: 0.0,
            iterations: (600.0 / solo) as usize,
        },
        Workload {
            id: 2,
            nodes: j2.clone(),
            spec: j2_spec,
            submit: 150.0,
            iterations: 400,
        },
        Workload {
            id: 3,
            nodes: j2,
            spec: j2_spec,
            submit: 400.0,
            iterations: 400,
        },
    ]);
    let j2_windows: Vec<(f64, f64)> = results[1..].iter().map(|r| (r.submit, r.end)).collect();
    println!("J2 active: {j2_windows:?}\n");
    println!("t(s)      J1 iter(s)   (binned over 20 iterations)");
    for chunk in results[0].iterations.chunks(20) {
        let t = chunk[0].start;
        let d: f64 = chunk.iter().map(|s| s.duration).sum::<f64>() / chunk.len() as f64;
        let overlapped = j2_windows.iter().any(|&(a, b)| t < b && t + d * 20.0 > a);
        let bar = "#".repeat((d / solo * 20.0) as usize);
        println!(
            "{t:8.1}  {d:9.4}  {bar}{}",
            if overlapped { "  <-- J2 active" } else { "" }
        );
    }
}

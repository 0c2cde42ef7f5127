//! Figure 1 — interference between two communication-intensive jobs on
//! shared switches.
//!
//! The paper runs J1 (`MPI_Allgather`, 1 MB, 8 nodes as 4+4 across two
//! switches) repeatedly on its department cluster and launches J2
//! (12 nodes as 6+6 on the same switches) every 30 minutes; J1's execution
//! time spikes exactly while J2 runs. Here the cluster is the flow-level
//! simulator on the same tree shape; timescales are compressed (J2 every
//! 300 virtual seconds) but the observable — the spike pattern — is the
//! paper's.

use crate::{ExperimentResult, Scale};
use commsched_collectives::{CollectiveSpec, Pattern};
use commsched_metrics::{mean, peak_to_mean};
use commsched_netsim::{FlowSim, NetConfig, Workload};
use commsched_topology::{NodeId, SystemPreset};
use serde_json::json;

/// Virtual seconds between J2 launches (the paper used 30 minutes).
const J2_PERIOD: f64 = 300.0;
/// How many J2 launches the run covers.
const J2_LAUNCHES: usize = 4;
/// Iterations folded into one reported "execution" of J1.
const ITERS_PER_EXEC: usize = 25;

/// Run the interference study and render the two series.
pub fn fig1(_scale: Scale) -> ExperimentResult {
    let tree = SystemPreset::IitkDepartment.build();
    // Department clusters run cheap, oversubscribed edge switches; the
    // backplane term is what the paper's Eq. 2 (same-leaf contention)
    // prices.
    let sim = FlowSim::new(&tree, NetConfig::cheap_ethernet());

    // Leaves 0 and 1 have 13 nodes each; J1 takes 4+4, J2 takes 6+6.
    // MPI_Allgather with 1 MB per rank gathers an 8 MB (J1) / 12 MB (J2)
    // vector.
    let leaf0: Vec<NodeId> = tree.leaf_nodes(0).collect();
    let leaf1: Vec<NodeId> = tree.leaf_nodes(1).collect();
    let j1_nodes: Vec<NodeId> = leaf0[..4].iter().chain(&leaf1[..4]).copied().collect();
    let j2_nodes: Vec<NodeId> = leaf0[4..10].iter().chain(&leaf1[4..10]).copied().collect();
    let spec = CollectiveSpec::new(Pattern::Rhvd, (j1_nodes.len() as u64) << 20);
    let j2_spec = CollectiveSpec::new(Pattern::Rhvd, (j2_nodes.len() as u64) << 20);

    // Size J1 so it iterates through the whole observation window.
    let horizon = J2_PERIOD * (J2_LAUNCHES as f64 + 1.0);
    let solo = sim.solo_time(&j1_nodes, spec).max(1e-6);
    let j1_iters = ((horizon / solo) * 1.15) as usize;

    let mut workloads = vec![Workload {
        id: 1,
        nodes: j1_nodes,
        spec,
        submit: 0.0,
        iterations: j1_iters,
    }];
    for k in 0..J2_LAUNCHES {
        workloads.push(Workload {
            id: 100 + k as u64,
            nodes: j2_nodes.clone(),
            spec: j2_spec,
            submit: J2_PERIOD * (k + 1) as f64,
            iterations: (0.25 * J2_PERIOD / solo).max(1.0) as usize,
        });
    }
    let results = sim.run(workloads);

    // Fold J1 iterations into executions; track J2 activity windows.
    let j1 = &results[0];
    let j2_windows: Vec<(f64, f64)> = results[1..].iter().map(|r| (r.submit, r.end)).collect();
    let mut series_j1: Vec<(f64, f64)> = Vec::new();
    for chunk in j1.iterations.chunks(ITERS_PER_EXEC) {
        let start = chunk[0].start;
        let dur: f64 = chunk.iter().map(|s| s.duration).sum();
        series_j1.push((start, dur));
    }
    let series_j2: Vec<(f64, f64)> = results[1..]
        .iter()
        .map(|r| (r.submit, r.end - r.submit))
        .collect();

    // Quantify the spikes: J1 executions overlapping a J2 window vs not.
    let overlaps = |t0: f64, t1: f64| j2_windows.iter().any(|&(a, b)| t0 < b && t1 > a);
    let (mut quiet, mut busy) = (Vec::new(), Vec::new());
    for &(t, d) in &series_j1 {
        if overlaps(t, t + d) {
            busy.push(d);
        } else {
            quiet.push(d);
        }
    }
    let quiet_mean = mean(&quiet);
    let busy_mean = mean(&busy);
    let spike_ratio = if quiet_mean > 0.0 {
        busy_mean / quiet_mean
    } else {
        0.0
    };

    let mut text = String::from(
        "Figure 1: J1 (8 nodes, 4+4 across two switches) execution times; \
         J2 (12 nodes, 6+6, same switches) launched periodically\n\n",
    );
    text.push_str("t(s)      J1 exec(s)   J2 active?\n");
    text.push_str("--------------------------------\n");
    for &(t, d) in &series_j1 {
        let mark = if overlaps(t, t + d) { "  <-- J2" } else { "" };
        text.push_str(&format!("{t:8.1}  {d:10.3}{mark}\n"));
    }
    text.push_str(&format!(
        "\nJ1 exec mean: quiet {quiet_mean:.3}s, while J2 active {busy_mean:.3}s \
         (slowdown x{spike_ratio:.2}; peak-to-mean {:.2})\n\
         Paper's qualitative claim: sharp spikes whenever the jobs overlap.\n",
        peak_to_mean(&series_j1.iter().map(|p| p.1).collect::<Vec<_>>())
    ));

    ExperimentResult {
        name: "fig1",
        text,
        json: json!({
            "j1_series": series_j1,
            "j2_series": series_j2,
            "quiet_mean_s": quiet_mean,
            "busy_mean_s": busy_mean,
            "slowdown": spike_ratio,
        }),
    }
}

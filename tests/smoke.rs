//! One fast check per library crate, so the tier-1 run (`cargo test -q`,
//! root package only) fails when any crate breaks, not only the facade.
//! Each crate's own suite goes deeper; these only prove the crate still
//! does its one job through its public API.

use commsched::collectives::CollectiveSpec;
use commsched::core::ClusterState;
use commsched::hostlist::{compress, expand};
use commsched::netsim::{FlowSim, NetConfig};
use commsched::prelude::*;
use commsched::trace::EventKind;
use commsched::workload::swf;

#[test]
fn hostlist_round_trip() {
    let hosts = expand("n[0-2,5],gpu[01-02]").unwrap();
    assert_eq!(hosts, ["n0", "n1", "n2", "n5", "gpu01", "gpu02"]);
    assert_eq!(expand(&compress(&hosts)).unwrap().len(), hosts.len());
    assert_eq!(compress(&hosts[..4]), "n[0-2,5]");
}

#[test]
fn topology_conf_round_trip() {
    let tree = Tree::regular_three_level(2, 3, 4);
    let back = Tree::from_conf(&tree.to_conf()).unwrap();
    assert_eq!(back.to_conf(), tree.to_conf());
    assert_eq!((back.num_nodes(), back.num_leaves()), (24, 6));
    assert_eq!(back.distance(NodeId(0), NodeId(23)), tree.height() * 2);
}

#[test]
fn collectives_step_count() {
    // Recursive doubling over 8 ranks: log2(8) steps of 4 pairs each.
    let spec = CollectiveSpec::new(Pattern::Rd, 1 << 20);
    assert_eq!(spec.num_steps(8), 3);
    assert_eq!(spec.steps(8).len(), 3);
}

#[test]
fn core_table2_split() {
    let tree = Tree::irregular_two_level(&[160, 150, 100, 80, 70, 50, 40]);
    let state = ClusterState::new(&tree);
    let placement = BalancedSelector
        .select(&tree, &state, &AllocRequest::comm(JobId(1), 512))
        .unwrap();
    let split: Vec<u32> = placement.takes().iter().map(|&(_, n)| n).collect();
    assert_eq!(split, [128, 128, 64, 64, 64, 32, 32]);
}

#[test]
fn core_three_level_spans_groups() {
    // Two groups of three 4-node leaves, one node-heavy job on leaf 0: 14
    // nodes fit in neither group, so both selectors fill from the root —
    // greedy through the merge of the two groups' ratio orders.
    let tree = Tree::regular_three_level(2, 3, 4);
    let mut state = ClusterState::new(&tree);
    let busy = Placement::from_nodes(&tree, &[NodeId(0), NodeId(1), NodeId(2)]).unwrap();
    state
        .allocate(&tree, JobId(1), &busy, JobNature::CommIntensive)
        .unwrap();
    let req = AllocRequest::comm(JobId(2), 14);
    let mut place = |selector: &dyn NodeSelector, takes: &[(usize, u32)]| {
        let placement = selector.select(&tree, &state, &req).unwrap();
        assert_eq!(placement.takes(), takes);
        state
            .allocate(&tree, JobId(2), &placement, JobNature::CommIntensive)
            .unwrap();
        assert_eq!(state.check_invariants(&tree), Ok(()));
        state.release(&tree, JobId(2)).unwrap();
        assert_eq!(state.check_invariants(&tree), Ok(()));
    };
    place(&GreedySelector, &[(1, 4), (2, 4), (3, 4), (4, 2)]);
    // Alg. 2's grant halves 14 -> 7 -> 3 to fit a 4-node leaf.
    place(&BalancedSelector, &[(1, 3), (2, 3), (3, 3), (4, 3), (5, 2)]);
}

#[test]
fn netsim_solo_time() {
    // Two nodes of one leaf exchange 1 MB at 1 MB/s per direction.
    let tree = Tree::regular_two_level(2, 4);
    let cfg = NetConfig {
        node_bandwidth: 1.0e6,
        step_overhead: 0.0,
        ..NetConfig::gigabit_ethernet()
    };
    let t = FlowSim::new(&tree, cfg).solo_time(
        &[NodeId(0), NodeId(1)],
        CollectiveSpec::new(Pattern::Rd, 1_000_000),
    );
    assert!((t - 1.0).abs() < 1e-6, "t = {t}");
}

#[test]
fn workload_swf_round_trip() {
    let log = LogSpec::new(SystemModel::theta(), 40, 5).generate();
    let back = swf::parse(&swf::emit(&log), "rt", 1).unwrap();
    assert_eq!(swf::emit(&back), swf::emit(&log));
    assert_eq!(back.jobs.len(), 40);
}

/// A 50-job adaptive run on a 48-node tree, observed: the summary for the
/// engine check, the report and the trace for the two checks below.
fn observed_run() -> (RunSummary, RunReport, Capture) {
    let tree = Tree::regular_two_level(3, 16);
    let system = SystemModel {
        name: "toy",
        total_nodes: 48,
        min_request: 1,
        max_request: 16,
        ..SystemModel::theta()
    };
    let log = LogSpec::new(system, 50, 3).comm_percent(90).generate();
    let mut capture = Capture::new();
    let mut registry = Registry::new();
    let summary = Engine::new(&tree, EngineConfig::new(SelectorKind::Adaptive))
        .run_observed(&log, &mut capture, &mut registry)
        .unwrap();
    (summary, registry.snapshot(), capture)
}

#[test]
fn slurmsim_runs_fifty_jobs() {
    let (summary, _, _) = observed_run();
    assert_eq!(summary.outcomes.len(), 50);
    assert!(summary.outcomes.iter().all(|o| o.end >= o.start));
    assert!(summary.throughput() > 0.0);
}

#[test]
fn metrics_report_round_trip() {
    let (_, report, _) = observed_run();
    assert_eq!(
        report.counters.iter().find(|(k, _)| k == "jobs.completed"),
        Some(&("jobs.completed".to_string(), 50))
    );
    assert_eq!(RunReport::from_json(&report.to_json_pretty()), Ok(report));
}

#[test]
fn trace_jsonl_line() {
    let mut capture = Capture::new();
    Tracer::new(&mut capture).emit(7, EventKind::JobSubmit { job: 1, nodes: 4 });
    assert_eq!(
        capture.events[0].to_json_line(),
        "{\"t_us\":7,\"seq\":0,\"ev\":\"submit\",\"job\":1,\"nodes\":4}"
    );
    // And a whole run's trace is one such line per event.
    let (_, _, run) = observed_run();
    assert_eq!(run.to_jsonl().lines().count(), run.events.len());
    assert!(run.events.len() >= 4 * 50);
}

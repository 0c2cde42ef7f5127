//! Cross-crate integration tests: topology.conf → scheduler → metrics, the
//! whole pipeline through the public facade API only.

use commsched::collectives::CollectiveSpec;
use commsched::core::{ClusterState, CostModel};
use commsched::netsim::{FlowSim, NetConfig, Workload};
use commsched::prelude::*;
use commsched::topology::SystemPreset;
use commsched::workload::swf;

/// A Theta-flavoured toy system that fits test-sized topologies.
fn toy_system(total: usize, max_req: usize) -> SystemModel {
    SystemModel {
        name: "toy",
        total_nodes: total,
        min_request: 1,
        max_request: max_req,
        pow2_fraction: 0.9,
        mean_interarrival: 60.0,
        runtime_median: 600.0,
        runtime_sigma: 1.0,
        walltime_slack: 1.5,
    }
}

#[test]
fn conf_file_to_schedule_pipeline() {
    // Build a topology from SLURM conf text, generate a log, run the
    // engine, and cross-check the metrics — every crate in one flow.
    let conf = "\
        SwitchName=s0 Nodes=n[0-15]\n\
        SwitchName=s1 Nodes=n[16-31]\n\
        SwitchName=s2 Nodes=n[32-47]\n\
        SwitchName=top Switches=s[0-2]\n";
    let tree = Tree::from_conf(conf).unwrap();
    assert_eq!(tree.num_nodes(), 48);

    let log = LogSpec::new(toy_system(48, 32), 150, 3)
        .comm_percent(90)
        .pattern(Pattern::Rhvd)
        .generate();

    let mut exec_hours = Vec::new();
    for kind in SelectorKind::ALL {
        let summary = Engine::new(&tree, EngineConfig::new(kind))
            .run(&log)
            .unwrap();
        assert_eq!(summary.outcomes.len(), 150);
        // Wait + exec == turnaround for every job.
        for o in &summary.outcomes {
            assert_eq!(o.wait() + o.exec(), o.turnaround());
        }
        exec_hours.push(summary.total_exec_hours());
    }
    // The paper's headline: balanced and adaptive beat the default.
    assert!(exec_hours[2] <= exec_hours[0], "balanced {exec_hours:?}");
    assert!(exec_hours[3] <= exec_hours[0], "adaptive {exec_hours:?}");
}

#[test]
fn table2_through_public_api() {
    let tree = Tree::irregular_two_level(&[160, 150, 100, 80, 70, 50, 40]);
    let state = ClusterState::new(&tree);
    let req = AllocRequest::comm(JobId(1), 512);
    let placement = BalancedSelector.select(&tree, &state, &req).unwrap();
    let mut per_leaf = vec![0usize; tree.num_leaves()];
    for n in placement.iter() {
        per_leaf[tree.leaf_ordinal_of(n)] += 1;
    }
    assert_eq!(per_leaf, [128, 128, 64, 64, 64, 32, 32]);
    // The takes say the same without looking at a node id.
    let takes: Vec<(usize, u32)> = (0..7).zip([128, 128, 64, 64, 64, 32, 32]).collect();
    assert_eq!(placement.takes(), takes);
}

#[test]
fn paper_presets_run_a_full_log() {
    // A scaled-down Table 3 cell on the real Theta preset topology.
    let tree = SystemPreset::Theta.build();
    let log = LogSpec::new(SystemModel::theta(), 120, 9)
        .comm_percent(90)
        .pattern(Pattern::Rd)
        .generate();
    let default = Engine::new(&tree, EngineConfig::new(SelectorKind::Default))
        .run(&log)
        .unwrap();
    let adaptive = Engine::new(&tree, EngineConfig::new(SelectorKind::Adaptive))
        .run(&log)
        .unwrap();
    assert!(adaptive.total_exec_hours() <= default.total_exec_hours() + 1e-9);
    // Default replays log runtimes exactly.
    for o in &default.outcomes {
        assert_eq!(o.runtime_adjusted, o.runtime_original);
    }
}

#[test]
fn swf_round_trips_through_engine() {
    let orig = LogSpec::new(toy_system(48, 16), 60, 5).generate();
    let text = swf::emit(&orig);
    let mut parsed = swf::parse(&text, "rt", 1).unwrap();
    swf::assign_natures(&mut parsed, 90, &[(Pattern::Binomial, 0.5)], 11);

    let tree = Tree::regular_two_level(3, 16);
    let summary = Engine::new(&tree, EngineConfig::new(SelectorKind::Greedy))
        .run(&parsed)
        .unwrap();
    assert_eq!(summary.outcomes.len(), 60);
}

#[test]
fn netsim_correlates_with_cost_model() {
    // The §5.3 validation, as an integration test: across many placements
    // of a probe collective under a fixed interferer, the Eq. 6 cost and
    // the flow simulator's measured time must correlate strongly. (The
    // paper reports r = 0.83 on real hardware; pointwise agreement is NOT
    // guaranteed — Eq. 6 is a max-per-step approximation.)
    let tree = Tree::regular_two_level(2, 16);
    let sim = FlowSim::new(&tree, NetConfig::gigabit_ethernet());
    let spec = CollectiveSpec::new(Pattern::Rhvd, 8 << 20);
    let model = CostModel::HOP_BYTES;

    // The probe sits 4+4 across the leaves (the Figure 1 placement); the
    // interferer grows through power-of-two sizes on the same leaves, so
    // trunk contention — the effect Eq. 3 prices — rises monotonically.
    // (Pointwise the fluid model and Eq. 6 can disagree: max-per-step
    // ignores trunk self-queueing, and the fluid model has no switch
    // backplane. The correlation over contention states is the claim.)
    let mut costs = Vec::new();
    let mut times = Vec::new();
    for half in [0usize, 1, 2, 4, 6, 8] {
        let probe: Vec<NodeId> = (0..4).chain(16..20).map(NodeId).collect();
        let interferer: Vec<NodeId> = (8..8 + half).chain(24..24 + half).map(NodeId).collect();

        let mut st = ClusterState::new(&tree);
        if !interferer.is_empty() {
            let held = Placement::from_nodes(&tree, &interferer).unwrap();
            st.allocate(&tree, JobId(9), &held, JobNature::CommIntensive)
                .unwrap();
        }
        let probed = Placement::from_nodes(&tree, &probe).unwrap();
        costs.push(model.hypothetical_cost(&tree, &st, &probed, &spec));

        let mut workloads = vec![Workload {
            id: 1,
            nodes: probe,
            spec,
            submit: 0.0,
            iterations: 5,
        }];
        if !interferer.is_empty() {
            workloads.push(Workload {
                id: 2,
                nodes: interferer,
                spec,
                submit: 0.0,
                iterations: 40,
            });
        }
        let res = sim.run(workloads);
        times.push(res[0].end);
    }
    let r = commsched::metrics::pearson(&costs, &times);
    assert!(
        r > 0.5,
        "cost/time correlation too weak: r = {r}, costs {costs:?}, times {times:?}"
    );
}

#[test]
fn individual_runs_via_facade() {
    use commsched::slurmsim::individual::{individual_runs, warmup_state};
    let tree = Tree::regular_two_level(4, 12);
    let log = LogSpec::new(toy_system(48, 16), 200, 13)
        .comm_percent(90)
        .pattern(Pattern::Rhvd)
        .generate();
    let state = warmup_state(&tree, &log, 0.5);
    let probes: Vec<_> = log
        .jobs
        .iter()
        .filter(|j| j.nature.is_comm() && j.nodes <= state.free_total())
        .take(30)
        .cloned()
        .collect();
    let outcomes = individual_runs(
        &tree,
        &state,
        &probes,
        EngineConfig::new(SelectorKind::Default),
    );
    assert!(!outcomes.is_empty());
    for o in &outcomes {
        // All four selectors place each probe from the same state.
        assert_eq!(o.placements.len(), 4);
        // Default placement replays the original runtime.
        let d = o
            .placements
            .iter()
            .find(|p| p.selector == "default")
            .unwrap();
        assert_eq!(d.runtime_adjusted, o.runtime_original);
    }
}

#[test]
fn hostlist_topology_round_trip_at_scale() {
    // Mira-preset topology survives conf round-trip with identical
    // distances sampled across the machine.
    let tree = SystemPreset::Mira.build();
    let tree2 = Tree::from_conf(&tree.to_conf()).unwrap();
    assert_eq!(tree.num_nodes(), tree2.num_nodes());
    for (a, b) in [(0usize, 1usize), (0, 400), (5000, 40000), (49000, 49151)] {
        assert_eq!(
            tree.distance(NodeId(a), NodeId(b)),
            tree2.distance(NodeId(a), NodeId(b))
        );
    }
}

#[test]
fn prelude_covers_the_working_surface() {
    // A condensed end-to-end flow written only with prelude imports: the
    // facade must be sufficient for the common workflow.
    let tree = Tree::regular_two_level(4, 8);
    let log = LogSpec::new(toy_system(32, 16), 60, 21)
        .comm_percent(90)
        .pattern(Pattern::Rd)
        .generate();
    let mut cfg = EngineConfig::new(SelectorKind::Adaptive);
    cfg.backfill = commsched::slurmsim::BackfillPolicy::Conservative;
    let summary = Engine::new(&tree, cfg).run(&log).unwrap();
    assert_eq!(summary.outcomes.len(), 60);
    assert!(summary
        .utilization(tree.num_nodes(), 100)
        .iter()
        .all(|&(_, u)| u <= 1.0 + 1e-9));

    // Mapping strategies reachable through the facade too.
    use commsched::core::mapping::best_mapping;
    let nodes: Vec<NodeId> = (0..4).map(NodeId).collect();
    let spec = CollectiveSpec::new(Pattern::Rd, 1 << 20);
    let state = ClusterState::new(&tree);
    let (_, layout, _) = best_mapping(CostModel::HOPS, &tree, &state, &nodes, &spec);
    assert_eq!(layout.len(), 4);
}

#[test]
fn trace_reconciles_with_lost_node_accounting() {
    // A faulted, requeue-heavy run traced end to end: the node-seconds the
    // engine says failures destroyed must be recoverable from the trace
    // alone, by pairing each start span with the requeue/cancel that kills
    // it. Any drift between the two is a bug in one of them.
    use commsched::metrics::Registry;
    use commsched::slurmsim::{FailurePolicy, JobStatus};
    use commsched::trace::{Capture, EventKind};
    use commsched::workload::FaultTrace;

    let tree = Tree::regular_two_level(3, 6); // 18 nodes
    let log = LogSpec::new(toy_system(18, 12), 40, 11)
        .comm_percent(70)
        .generate();
    let horizon = log
        .jobs
        .iter()
        .map(|j| j.submit + j.walltime)
        .max()
        .unwrap_or(0)
        .max(1);
    let faults = FaultTrace::mtbf(18, 20_000.0, 2_000.0, horizon, 0xFA17).unwrap();

    let mut cfg = EngineConfig::new(SelectorKind::Adaptive);
    cfg.backfill = BackfillPolicy::Easy;
    cfg.failure_policy = FailurePolicy::Requeue {
        max_retries: 2,
        backoff: 30,
    };
    let engine = Engine::new(&tree, cfg).with_faults(faults);
    let mut cap = Capture::new();
    let mut reg = Registry::new();
    let summary = engine.run_observed(&log, &mut cap, &mut reg).unwrap();

    // Pair every start span with whatever closes it and total the work a
    // kill destroyed: (kill_time - start_time) * allocated nodes.
    let mut open: Vec<(u64, u32, u64, u64)> = Vec::new(); // (job, attempt, t_us, nodes)
    let mut lost_from_trace = 0u64;
    let mut requeues = 0u64;
    for ev in &cap.events {
        match ev.kind {
            EventKind::JobStart {
                job,
                attempt,
                nodes,
                ..
            } => open.push((job, attempt, ev.t_us, nodes)),
            EventKind::JobRequeue { job, attempt, .. } => {
                requeues += 1;
                let k = open
                    .iter()
                    .position(|&(j, a, _, _)| (j, a) == (job, attempt))
                    .expect("requeue closes an open span");
                let (_, _, start_us, nodes) = open.remove(k);
                lost_from_trace += (ev.t_us - start_us) / 1_000_000 * nodes;
            }
            EventKind::JobFinish {
                job,
                attempt,
                status,
            } => {
                let k = open
                    .iter()
                    .position(|&(j, a, _, _)| (j, a) == (job, attempt))
                    .expect("finish closes an open span");
                let (_, _, start_us, nodes) = open.remove(k);
                if status == commsched::trace::EndStatus::Cancelled {
                    lost_from_trace += (ev.t_us - start_us) / 1_000_000 * nodes;
                }
            }
            _ => {}
        }
    }
    assert!(
        open.is_empty(),
        "every span is closed by the end of the run"
    );

    let lost_from_engine: u64 = summary.outcomes.iter().map(|o| o.lost_node_seconds).sum();
    assert!(
        lost_from_engine > 0,
        "scenario must actually lose work to failures"
    );
    assert_eq!(
        lost_from_trace, lost_from_engine,
        "trace-derived lost node-seconds must match the engine's accounting"
    );
    assert_eq!(
        requeues,
        summary.total_retries(),
        "one requeue event per retry"
    );

    // The RunReport agrees with both.
    assert_eq!(
        reg.counter_value("jobs.requeued"),
        Some(requeues),
        "registry counter tracks requeue events"
    );
    let report = reg.snapshot().to_json_pretty();
    assert!(
        report.contains(&format!("\"lost_node_seconds\": {lost_from_engine}.0")),
        "report gauge carries the same total: {report}"
    );
    assert_eq!(
        summary.count_status(JobStatus::Completed)
            + summary.count_status(JobStatus::Cancelled)
            + summary.count_status(JobStatus::Rejected),
        log.jobs.len(),
        "every job ends in exactly one terminal state"
    );
}

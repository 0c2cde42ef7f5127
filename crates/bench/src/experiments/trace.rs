//! Observability demo + golden-trace scenarios.
//!
//! Not a paper artifact: this experiment drives the instrumented engine
//! and flow simulator through small, fully deterministic scenarios
//! and reports what their traces contain. The same scenario definitions
//! back the golden-trace conformance suite (`tests/golden_trace.rs`),
//! which pins the exact trace bytes, so the scenarios must never depend
//! on wall clocks, thread counts, or map iteration order.
#![deny(clippy::wildcard_enum_match_arm)]

use crate::{ExperimentResult, Scale};
use commsched_collectives::{CollectiveSpec, Pattern};
use commsched_core::{SaSelector, SelectorKind};
use commsched_metrics::{Registry, Table};
use commsched_netsim::{FlowSim, NetConfig, Workload};
use commsched_slurmsim::{Engine, EngineConfig, FailurePolicy};
use commsched_topology::{NodeId, Tree};
use commsched_trace::{Capture, EventClass};
use commsched_workload::{FaultTrace, JobLog, LogSpec, SystemModel};
use serde_json::json;

/// Every golden scenario name, in the order the suite checks them.
pub const GOLDEN_SCENARIOS: [&str; 8] = [
    "fifo-easy-greedy",
    "adaptive",
    "faulted-requeue",
    "switch-outage",
    "netsim-interference",
    "sa_tournament",
    "conservative-backfill",
    "deep-queue-easy",
];

/// The 32-node golden machine: 4 leaf switches of 8 nodes.
fn golden_tree() -> Tree {
    Tree::regular_two_level(4, 8)
}

/// A small synthetic system sized to the golden machine, so quick runs
/// queue realistically without taking long.
fn golden_system() -> SystemModel {
    SystemModel {
        name: "golden",
        total_nodes: 32,
        min_request: 1,
        max_request: 16,
        pow2_fraction: 0.9,
        mean_interarrival: 60.0,
        runtime_median: 600.0,
        runtime_sigma: 1.0,
        walltime_slack: 1.5,
    }
}

fn golden_log(jobs: usize, seed: u64) -> JobLog {
    log_on(golden_system(), jobs, seed)
}

/// The golden job mix submitted as a backlog (one arrival a second against
/// ten-minute runtimes), so nearly the whole log is pending at once.
fn backlog_log(jobs: usize, seed: u64) -> JobLog {
    let system = SystemModel {
        mean_interarrival: 1.0,
        ..golden_system()
    };
    log_on(system, jobs, seed)
}

fn log_on(system: SystemModel, jobs: usize, seed: u64) -> JobLog {
    LogSpec::new(system, jobs, seed)
        .comm_percent(90)
        .pattern(Pattern::Rhvd)
        .generate()
}

/// One observed run rendered the way the golden files store it.
fn observed(engine: &Engine<'_>, log: &JobLog) -> (String, String) {
    let mut cap = Capture::new();
    let mut reg = Registry::new();
    engine
        .run_observed(log, &mut cap, &mut reg)
        .expect("golden log fits the golden machine");
    (cap.to_jsonl(), reg.snapshot().to_json_pretty())
}

/// Overlapping collectives on a 16-node tree: two jobs share leaf
/// switches, a third runs alone, a fourth arrives late.
fn golden_netsim_workloads() -> Vec<Workload> {
    let wl = |id: u64, nodes: &[usize], spec: CollectiveSpec, submit: f64, iters: usize| Workload {
        id,
        nodes: nodes.iter().map(|&n| NodeId(n)).collect(),
        spec,
        submit,
        iterations: iters,
    };
    vec![
        wl(
            1,
            &[0, 1, 2, 3, 4, 5],
            CollectiveSpec::new(Pattern::Rhvd, 1 << 20),
            0.0,
            2,
        ),
        wl(
            2,
            &[4, 5, 6, 7, 8, 9],
            CollectiveSpec::new(Pattern::Rd, 1 << 19),
            0.3,
            2,
        ),
        wl(
            3,
            &[12, 13, 14, 15],
            CollectiveSpec::new(Pattern::Ring, 1 << 18),
            0.6,
            1,
        ),
        wl(
            4,
            &[2, 3, 10, 11],
            CollectiveSpec::new(Pattern::Binomial, 1 << 19),
            1.0,
            2,
        ),
    ]
}

/// Run one golden scenario: the full-class JSONL trace plus the pretty
/// `RunReport` JSON. Returns `None` for an unknown scenario name.
pub fn run_golden(name: &str, jobs: usize, seed: u64) -> Option<(String, String)> {
    let (kind, faulted) = match name {
        "fifo-easy-greedy" => (SelectorKind::Greedy, false),
        "adaptive" => (SelectorKind::Adaptive, false),
        "faulted-requeue" => (SelectorKind::Balanced, true),
        "switch-outage" => {
            // Hierarchical fault domains mid-run: one leaf switch goes dark
            // (killing and requeueing everything under it), one node uplink
            // runs degraded for a while. Written as fault-trace *text* so
            // the scenario also pins the parser's round-trip.
            let tree = golden_tree();
            let log = golden_log(jobs, seed);
            let cfg = EngineConfig::new(SelectorKind::Adaptive).with_failure_policy(
                FailurePolicy::Requeue {
                    max_retries: 2,
                    backoff: 30,
                },
            );
            let leaf1 = tree.leaf(1).0;
            let uplink = tree.node_uplink(NodeId(3));
            let text = format!(
                "600 link:{uplink} degrade 500\n\
                 900 switch:{leaf1} down\n\
                 1500 link:{uplink} restore\n\
                 2400 switch:{leaf1} up\n"
            );
            let faults = FaultTrace::parse(&text).expect("golden fault trace parses");
            let engine = Engine::new(&tree, cfg).with_faults(faults);
            return Some(observed(&engine, &log));
        }
        "sa_tournament" => {
            // Annealed placement over the table3-shaped golden workload:
            // pins the `sa_search` event stream (budget 64, search seed =
            // the scenario seed) and the lazy SA counters next to the
            // regular job lifecycle — the full SA observability surface.
            let tree = golden_tree();
            let log = golden_log(jobs, seed);
            let cfg = EngineConfig::new(SelectorKind::Sa(SaSelector::new(64, seed)));
            return Some(observed(&Engine::new(&tree, cfg), &log));
        }
        "conservative-backfill" => {
            // A backlog three times the golden log under conservative
            // backfilling: every pass lays dozens of reservations into the
            // availability profile, so `earliest_fit` sweeps many
            // breakpoints per job.
            let tree = golden_tree();
            let log = backlog_log(jobs * 3, seed);
            let cfg = EngineConfig::new(SelectorKind::Greedy).conservative_backfill();
            return Some(observed(&Engine::new(&tree, cfg), &log));
        }
        "deep-queue-easy" => {
            // Eleven times the golden log (264 jobs at the pinned scale)
            // arriving a second apart: more than 200 jobs of mixed widths
            // are pending at once, so the EASY scan skips long runs of
            // entries that do not fit. One node dies under a running job
            // while the queue is deep; `RequeueFront` puts the victim back
            // at the head.
            let tree = golden_tree();
            let log = backlog_log(jobs * 11, seed);
            let cfg = EngineConfig::new(SelectorKind::Balanced)
                .with_failure_policy(FailurePolicy::RequeueFront);
            let faults = FaultTrace::parse("400 node:5 fail\n4000 node:5 recover\n")
                .expect("golden fault trace parses");
            let engine = Engine::new(&tree, cfg).with_faults(faults);
            return Some(observed(&engine, &log));
        }
        "netsim-interference" => {
            let tree = Tree::regular_two_level(2, 8);
            let sim = FlowSim::new(&tree, NetConfig::gigabit_ethernet());
            let mut cap = Capture::new();
            let results = sim.run_traced(golden_netsim_workloads(), &mut cap);
            // The flow simulator has no registry of its own; summarize the
            // captured solver records so the report is still meaningful.
            let mut reg = Registry::new();
            let mut solves = 0u64;
            let rates = reg.hist("net.min_rate_bps");
            for ev in &cap.events {
                match ev.kind {
                    commsched_trace::EventKind::NetSolve { .. } => solves += 1,
                    commsched_trace::EventKind::NetRates { min_rate, .. } => {
                        rates.observe(min_rate)
                    }
                    // The flow simulator emits no scheduler or fault
                    // events; listing the variants keeps this summary
                    // honest when the trace schema grows.
                    commsched_trace::EventKind::JobSubmit { .. }
                    | commsched_trace::EventKind::JobEligible { .. }
                    | commsched_trace::EventKind::JobPlace { .. }
                    | commsched_trace::EventKind::SaSearch { .. }
                    | commsched_trace::EventKind::JobStart { .. }
                    | commsched_trace::EventKind::JobFinish { .. }
                    | commsched_trace::EventKind::JobRequeue { .. }
                    | commsched_trace::EventKind::JobReject { .. }
                    | commsched_trace::EventKind::Fault { .. }
                    | commsched_trace::EventKind::SwitchFault { .. }
                    | commsched_trace::EventKind::LinkFault { .. }
                    | commsched_trace::EventKind::NetLinks { .. } => {}
                }
            }
            *reg.counter("net.solves") = solves;
            *reg.counter("net.jobs") = results.len() as u64;
            return Some((cap.to_jsonl(), reg.snapshot().to_json_pretty()));
        }
        _ => return None,
    };

    let tree = golden_tree();
    let log = golden_log(jobs, seed);
    let mut cfg = EngineConfig::new(kind);
    if faulted {
        cfg = cfg.with_failure_policy(FailurePolicy::Requeue {
            max_retries: 2,
            backoff: 30,
        });
    }
    let mut engine = Engine::new(&tree, cfg);
    if faulted {
        let horizon = log.fault_horizon();
        let faults = FaultTrace::mtbf(tree.num_nodes(), 40_000.0, 5_000.0, horizon, seed ^ 0xFA17)
            .expect("golden MTBF parameters are valid");
        engine = engine.with_faults(faults);
    }
    Some(observed(&engine, &log))
}

/// Run every golden scenario and summarize what the traces contain.
pub fn trace(scale: Scale) -> ExperimentResult {
    // Golden files are pinned at (jobs=24, seed=7); the experiment itself
    // scales with --jobs so bigger runs still exercise the instrumentation.
    let jobs = scale.jobs.min(200);

    let mut t = Table::new(
        [
            "scenario",
            "events",
            "job ev",
            "fault ev",
            "net ev",
            "trace bytes",
        ]
        .map(String::from)
        .to_vec(),
    );
    let mut rows = Vec::new();
    for name in GOLDEN_SCENARIOS {
        let (jsonl, report) = run_golden(name, jobs, scale.seed)
            .expect("GOLDEN_SCENARIOS only lists known scenarios");
        // Replay determinism: the same scenario must reproduce the same
        // bytes within a single process, or the golden suite is meaningless.
        let (jsonl2, report2) = run_golden(name, jobs, scale.seed).expect("known scenario");
        assert_eq!(jsonl, jsonl2, "{name}: trace not replay-stable");
        assert_eq!(report, report2, "{name}: report not replay-stable");

        let mut by_class = [0u64; 3];
        let mut events = 0u64;
        for line in jsonl.lines() {
            events += 1;
            // Fixed key order: the class is recoverable from the "ev" name.
            let class = if line.contains("\"ev\":\"net_") {
                EventClass::Net
            } else if line.contains("\"ev\":\"fault\"")
                || line.contains("\"ev\":\"switch_fault\"")
                || line.contains("\"ev\":\"link_fault\"")
            {
                EventClass::Fault
            } else {
                EventClass::Job
            };
            by_class[match class {
                EventClass::Job => 0,
                EventClass::Fault => 1,
                EventClass::Net => 2,
            }] += 1;
        }
        t.row(vec![
            name.to_string(),
            events.to_string(),
            by_class[0].to_string(),
            by_class[1].to_string(),
            by_class[2].to_string(),
            jsonl.len().to_string(),
        ]);
        rows.push(json!({
            "scenario": name,
            "events": events,
            "job_events": by_class[0],
            "fault_events": by_class[1],
            "net_events": by_class[2],
            "trace_bytes": jsonl.len(),
            "report": serde_json::from_str::<serde_json::Value>(&report)
                .expect("report is valid JSON"),
        }));
    }

    let text = format!(
        "Observability: golden trace scenarios (jobs={jobs}, seed={}) — every \
         trace replay-stable within the run; exact bytes pinned by \
         tests/golden_trace.rs at jobs=24, seed=7\n\n{t}",
        scale.seed
    );
    ExperimentResult {
        name: "trace",
        text,
        json: json!({
            "jobs": jobs,
            "seed": scale.seed,
            "scenarios": rows,
        }),
    }
}

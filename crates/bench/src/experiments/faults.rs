//! Fault-injection sweep — failure rate × requeue policy × selector on the
//! Theta log. Not a paper artifact (the paper assumes a healthy machine):
//! this quantifies how much of the communication-aware placement gain
//! survives node failures, and what each requeue policy costs.
//!
//! One seeded MTBF/MTTR trace is generated per failure rate and shared by
//! every (policy, selector) cell at that rate, so cells differ only in how
//! the scheduler reacts — never in which nodes die when.

use crate::{build_log, ExperimentResult, LogShape, Scale};
use commsched_collectives::Pattern;
use commsched_core::SelectorKind;
use commsched_metrics::Table;
use commsched_slurmsim::{Engine, EngineConfig, FailurePolicy, JobStatus};
use commsched_topology::SystemPreset;
use commsched_workload::{FaultTrace, SystemModel};
use rayon::prelude::*;
use serde_json::json;

/// Mean time to repair for every sweep cell, seconds (4 h).
const MTTR_SECS: f64 = 14_400.0;

/// One (domain, rate, policy, selector) cell of the sweep.
#[derive(Debug, Clone, serde::Serialize)]
pub(crate) struct FaultRow {
    /// Fault domain of the injected trace: `node`, `switch`, `link`, or
    /// `-` for the failure-free baseline.
    pub domain: String,
    /// Per-target MTBF in seconds; 0 for the failure-free baseline.
    pub mtbf_secs: f64,
    /// Policy label: `cancel`, `requeue`, `requeue-front`, or `-` for the
    /// failure-free baseline (policies are indistinguishable there).
    pub policy: String,
    /// Selector name.
    pub selector: String,
    /// Jobs that finished.
    pub completed: usize,
    /// Jobs cancelled by failures (directly or after exhausting retries).
    pub cancelled: usize,
    /// Total requeues across all jobs.
    pub requeues: u64,
    /// Node-hours of work destroyed by failures.
    pub lost_node_hours: f64,
    /// Total execution hours (the paper's headline metric).
    pub exec_hours: f64,
    /// Mean turnaround in hours.
    pub turnaround_hours: f64,
}

/// Run the failure-rate × policy × selector sweep.
pub fn faults(scale: Scale) -> ExperimentResult {
    let system = SystemModel::theta();
    let tree = SystemPreset::Theta.build();
    let log = build_log(system, scale, 90, LogShape::Pattern(Pattern::Rhvd));
    let horizon = log.fault_horizon();

    let rates: [f64; 2] = [5.0e6, 1.0e6];
    let policies: [(&str, FailurePolicy); 3] = [
        ("cancel", FailurePolicy::Cancel),
        (
            "requeue",
            FailurePolicy::Requeue {
                max_retries: 3,
                backoff: 0,
            },
        ),
        ("requeue-front", FailurePolicy::RequeueFront),
    ];

    let traces: Vec<(f64, FaultTrace)> = rates
        .iter()
        .map(|&mtbf| {
            let trace = FaultTrace::mtbf(
                tree.num_nodes(),
                mtbf,
                MTTR_SECS,
                horizon,
                scale.seed ^ 0xFA17,
            )
            .expect("sweep MTBF parameters are valid");
            (mtbf, trace)
        })
        .collect();

    // Fault-domain axis: one switch-churn trace (correlated subtree
    // outages; the root is filtered so the whole machine never goes dark)
    // and one degraded-cable trace (capacity drops to 250‰ until repair —
    // no kills, only slowdown, so the policy column stays "-").
    let switch_mtbf_secs = 2.0e6;
    let switch_trace = FaultTrace::switch_mtbf(
        tree.num_switches(),
        tree.root().0,
        switch_mtbf_secs,
        MTTR_SECS,
        horizon,
        scale.seed ^ 0x5A17,
    )
    .expect("sweep switch-MTBF parameters are valid");
    let link_mtbf_secs = 1.0e6;
    let link_trace = FaultTrace::link_degrade(
        tree.num_directed_links(),
        link_mtbf_secs,
        MTTR_SECS,
        250,
        horizon,
        scale.seed ^ 0x11A7,
    )
    .expect("sweep link-degrade parameters are valid");

    // The cell grid, in deterministic source order: the failure-free
    // baseline once per selector, the node-domain rate × policy ×
    // selector sweep, then the switch and link domains.
    type Cell<'a> = (
        &'static str,
        f64,
        &'static str,
        FailurePolicy,
        Option<&'a FaultTrace>,
        SelectorKind,
    );
    let mut cells: Vec<Cell<'_>> = Vec::new();
    for kind in SelectorKind::ALL {
        cells.push(("-", 0.0, "-", FailurePolicy::Cancel, None, kind));
    }
    for (mtbf, trace) in &traces {
        for &(label, policy) in &policies {
            for kind in SelectorKind::ALL {
                cells.push(("node", *mtbf, label, policy, Some(trace), kind));
            }
        }
    }
    for &(label, policy) in &policies {
        for kind in SelectorKind::ALL {
            cells.push((
                "switch",
                switch_mtbf_secs,
                label,
                policy,
                Some(&switch_trace),
                kind,
            ));
        }
    }
    for kind in SelectorKind::ALL {
        // Degraded links kill nothing, so the failure policy is moot.
        cells.push((
            "link",
            link_mtbf_secs,
            "-",
            FailurePolicy::Cancel,
            Some(&link_trace),
            kind,
        ));
    }

    let rows: Vec<FaultRow> = cells
        .par_iter()
        .map(|&(domain, mtbf, policy_label, policy, trace, kind)| {
            let cfg = EngineConfig::new(kind).with_failure_policy(policy);
            let mut engine = Engine::new(&tree, cfg);
            if let Some(t) = trace {
                engine = engine.with_faults(t.clone());
            }
            let s = engine.run(&log).expect("log fits the Theta preset");
            FaultRow {
                domain: domain.to_string(),
                mtbf_secs: mtbf,
                policy: policy_label.to_string(),
                selector: kind.name().to_string(),
                completed: s.count_status(JobStatus::Completed),
                cancelled: s.count_status(JobStatus::Cancelled),
                requeues: s.total_retries(),
                lost_node_hours: s.lost_node_hours(),
                exec_hours: s.total_exec_hours(),
                turnaround_hours: s.avg_turnaround_hours(),
            }
        })
        .collect();

    let mut t = Table::new(
        [
            "domain",
            "MTBF(s)",
            "policy",
            "selector",
            "done",
            "cancelled",
            "requeues",
            "lost nh",
            "exec(h)",
            "turnaround(h)",
        ]
        .map(String::from)
        .to_vec(),
    );
    for r in rows.iter().filter(|r| r.selector == "adaptive") {
        t.row(vec![
            r.domain.clone(),
            if r.mtbf_secs == 0.0 {
                "-".into()
            } else {
                format!("{:.0}", r.mtbf_secs)
            },
            r.policy.clone(),
            r.selector.clone(),
            r.completed.to_string(),
            r.cancelled.to_string(),
            r.requeues.to_string(),
            format!("{:.1}", r.lost_node_hours),
            format!("{:.1}", r.exec_hours),
            format!("{:.2}", r.turnaround_hours),
        ]);
    }

    // Headline shape: failures only destroy work (lost node-hours grow as
    // MTBF shrinks), and requeueing completes at least as many jobs as
    // cancelling under the same trace.
    let adaptive = |domain: &str, mtbf: f64, policy: &str| -> &FaultRow {
        rows.iter()
            .find(|r| {
                r.selector == "adaptive"
                    && r.domain == domain
                    && r.mtbf_secs == mtbf
                    && r.policy == policy
            })
            .expect("cell present")
    };
    let shape = format!(
        "adaptive: lost node-hours 0.0 (healthy) <= {:.1} (MTBF 5e6s) <= {:.1} (MTBF 1e6s) \
         under requeue; completed {} (cancel) <= {} (requeue) at MTBF 1e6s\n\
         switch outages (requeue): {} completed, {:.1} node-hours lost; \
         degraded links kill nothing: {} completed, exec {:.1}h >= healthy {:.1}h\n",
        adaptive("node", 5.0e6, "requeue").lost_node_hours,
        adaptive("node", 1.0e6, "requeue").lost_node_hours,
        adaptive("node", 1.0e6, "cancel").completed,
        adaptive("node", 1.0e6, "requeue").completed,
        adaptive("switch", switch_mtbf_secs, "requeue").completed,
        adaptive("switch", switch_mtbf_secs, "requeue").lost_node_hours,
        adaptive("link", link_mtbf_secs, "-").completed,
        adaptive("link", link_mtbf_secs, "-").exec_hours,
        adaptive("-", 0.0, "-").exec_hours,
    );

    let text = format!(
        "Fault sweep: fault domain x MTBF x requeue policy x selector, Theta log \
         (90% RHVD, MTTR {MTTR_SECS:.0}s; adaptive shown, all selectors in JSON)\n\n{t}\n{shape}"
    );
    ExperimentResult {
        name: "faults",
        text,
        json: json!({
            "jobs": scale.jobs,
            "mttr_secs": MTTR_SECS,
            "horizon_secs": horizon,
            "rows": rows,
        }),
    }
}

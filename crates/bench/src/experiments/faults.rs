//! Fault-injection sweep — failure rate × requeue policy × selector on the
//! Theta log. Not a paper artifact (the paper assumes a healthy machine):
//! this quantifies how much of the communication-aware placement gain
//! survives node failures, and what each requeue policy costs.
//!
//! One seeded MTBF/MTTR trace is generated per failure rate and shared by
//! every (policy, selector) cell at that rate, so cells differ only in how
//! the scheduler reacts — never in which nodes die when.

use crate::{each_selector, run_sweep, ExperimentResult, LogRecipe, LogShape, Scale, SweepCell};
use commsched_collectives::Pattern;
use commsched_core::SelectorKind;
use commsched_metrics::Table;
use commsched_slurmsim::{FailurePolicy, JobStatus};
use commsched_topology::SystemPreset;
use commsched_workload::{FaultTrace, SystemModel};
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
    let tree = SystemPreset::Theta.build();
    let recipe = LogRecipe::new(
        SystemModel::theta(),
        scale,
        LogShape::Pattern(Pattern::Rhvd),
    );
    // The traces span the log, so it is generated here once for its
    // horizon; the sweep generates its own copy.
    let horizon = recipe.build().fault_horizon();

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

    // The grid, in deterministic source order: the failure-free baseline,
    // the node-domain rate × policy sweep, then the switch and link
    // domains; each (domain, MTBF, policy) group runs under every selector.
    let healthy = SweepCell::new(&tree, recipe);
    let cell = |policy, faults| SweepCell {
        config: healthy.config.with_failure_policy(policy),
        faults,
        ..healthy
    };
    let mut groups = vec![("-", 0.0, "-", cell(FailurePolicy::Cancel, None))];
    for (mtbf, trace) in &traces {
        for &(label, policy) in &policies {
            groups.push(("node", *mtbf, label, cell(policy, Some(trace))));
        }
    }
    for &(label, policy) in &policies {
        let faulted = cell(policy, Some(&switch_trace));
        groups.push(("switch", switch_mtbf_secs, label, faulted));
    }
    // Degraded links kill nothing, so the failure policy is moot.
    let faulted = cell(FailurePolicy::Cancel, Some(&link_trace));
    groups.push(("link", link_mtbf_secs, "-", faulted));

    let cells: Vec<_> = groups.iter().flat_map(|g| each_selector(g.3)).collect();
    let rows: Vec<FaultRow> = run_sweep(&cells)
        .chunks(SelectorKind::ALL.len())
        .zip(&groups)
        .flat_map(|(runs, &(domain, mtbf, policy, _))| {
            runs.iter()
                .zip(SelectorKind::ALL)
                .map(move |(s, kind)| FaultRow {
                    domain: domain.to_string(),
                    mtbf_secs: mtbf,
                    policy: policy.to_string(),
                    selector: kind.name().to_string(),
                    completed: s.count_status(JobStatus::Completed),
                    cancelled: s.count_status(JobStatus::Cancelled),
                    requeues: s.total_retries(),
                    lost_node_hours: s.lost_node_hours(),
                    exec_hours: s.total_exec_hours(),
                    turnaround_hours: s.avg_turnaround_hours(),
                })
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

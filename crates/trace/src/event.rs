//! Event records and their canonical JSON-line encoding.

use std::fmt::Write as _;

/// Coarse event families, used for filtering (`--trace-filter`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventClass {
    /// Job lifecycle: submit, eligible, place, start, finish, requeue,
    /// reject.
    Job,
    /// Node lifecycle transitions from the fault trace.
    Fault,
    /// Network-simulator solver records.
    Net,
}

impl EventClass {
    pub(crate) fn bit(self) -> u8 {
        match self {
            EventClass::Job => 1,
            EventClass::Fault => 2,
            EventClass::Net => 4,
        }
    }
}

/// How a traced job attempt ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EndStatus {
    /// Ran to completion.
    Completed,
    /// Killed by a node failure and not requeued.
    Cancelled,
}

impl EndStatus {
    /// Stable label used in the JSON encoding.
    pub(crate) fn as_str(self) -> &'static str {
        match self {
            EndStatus::Completed => "completed",
            EndStatus::Cancelled => "cancelled",
        }
    }
}

/// Node lifecycle transition kinds, mirroring the workload crate's fault
/// trace without depending on it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultClass {
    /// Hard failure: the node's job (if any) is killed.
    Fail,
    /// Return to service.
    Recover,
    /// Graceful removal once the current job finishes.
    Drain,
}

impl FaultClass {
    /// Stable label used in the JSON encoding.
    pub(crate) fn as_str(self) -> &'static str {
        match self {
            FaultClass::Fail => "fail",
            FaultClass::Recover => "recover",
            FaultClass::Drain => "drain",
        }
    }
}

/// What happened. All payloads are `Copy` — no allocation per event.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum EventKind {
    /// A job entered the system (first submission only, not requeue
    /// re-entries).
    JobSubmit {
        /// Job id.
        job: u64,
        /// Requested node count.
        nodes: u64,
    },
    /// A job (re-)entered the pending queue; `attempt` counts prior kills.
    JobEligible {
        /// Job id.
        job: u64,
        /// Attempt number (0 on first submission).
        attempt: u32,
    },
    /// The selector chose nodes for an attempt (Eq. 6 numbers included).
    JobPlace {
        /// Job id.
        job: u64,
        /// Attempt number.
        attempt: u32,
        /// Nodes allocated.
        nodes: u64,
        /// Eq. 6 cost of the chosen allocation.
        cost_actual: f64,
        /// Eq. 6 cost of the default selector's allocation.
        cost_default: f64,
    },
    /// The simulated-annealing selector finished a search for an attempt
    /// (emitted only under `--selector sa` with a non-zero budget).
    SaSearch {
        /// Job id.
        job: u64,
        /// Attempt number the search placed.
        attempt: u32,
        /// Configured evaluation budget (`max_evals`).
        budget: u64,
        /// Evaluator calls actually spent.
        evals: u64,
        /// Accepted proposals (including uphill Metropolis accepts).
        accepted: u64,
        /// Rejected proposals.
        rejected: u64,
        /// Cost of the greedy/balanced incumbent under the search model.
        cost_incumbent: f64,
        /// Cost of the returned placement (≤ `cost_incumbent`).
        cost_final: f64,
    },
    /// An attempt began executing.
    JobStart {
        /// Job id.
        job: u64,
        /// Attempt number.
        attempt: u32,
        /// Nodes held.
        nodes: u64,
        /// `true` when the job jumped the FIFO order via backfilling.
        backfilled: bool,
    },
    /// An attempt left the machine for good.
    JobFinish {
        /// Job id.
        job: u64,
        /// Attempt number.
        attempt: u32,
        /// Completed or cancelled.
        status: EndStatus,
    },
    /// A killed attempt will be resubmitted at `resubmit_us`.
    JobRequeue {
        /// Job id.
        job: u64,
        /// Attempt number that was killed.
        attempt: u32,
        /// Virtual microsecond of the re-submission.
        resubmit_us: u64,
    },
    /// The job can never run (oversized, or stuck when the event stream
    /// drained).
    JobReject {
        /// Job id.
        job: u64,
    },
    /// A fault-trace transition fired on a node.
    Fault {
        /// Node ordinal.
        node: u64,
        /// Transition kind.
        kind: FaultClass,
    },
    /// A fault-trace transition fired on a switch (correlated failure of
    /// its whole subtree, or the repair).
    SwitchFault {
        /// Switch id.
        switch: u64,
        /// `Fail` for a switch-down, `Recover` for a switch-up.
        kind: FaultClass,
        /// Jobs killed by the subtree-down (0 for a switch-up).
        victims: u64,
        /// Descendant nodes covered by the switch.
        nodes: u64,
    },
    /// A fault-trace transition fired on a directed link: its capacity
    /// dropped to `capacity_permille`/1000 of nominal (1000 = restored).
    LinkFault {
        /// Directed link id (canonical topology numbering).
        link: u64,
        /// New capacity in thousandths of nominal.
        capacity_permille: u64,
    },
    /// The flow solver re-waterfilled one or more components.
    NetSolve {
        /// Connected components re-solved at this event.
        components: u64,
        /// Flows whose rates were recomputed.
        flows: u64,
        /// Links whose active-flow set had changed since the last solve.
        dirty_links: u64,
    },
    /// Rate spread across active flows after a solve.
    NetRates {
        /// Active flows.
        flows: u64,
        /// Slowest active flow's rate, bytes/s.
        min_rate: f64,
        /// Fastest active flow's rate, bytes/s.
        max_rate: f64,
    },
    /// Link occupancy after a solve (computed only when tracing).
    NetLinks {
        /// Links carrying at least one active flow.
        active: u64,
        /// Links whose allocated rate sum reaches capacity.
        saturated: u64,
    },
}

impl EventKind {
    /// The event's class, for mask filtering.
    pub(crate) fn class(&self) -> EventClass {
        match self {
            EventKind::JobSubmit { .. }
            | EventKind::JobEligible { .. }
            | EventKind::JobPlace { .. }
            | EventKind::SaSearch { .. }
            | EventKind::JobStart { .. }
            | EventKind::JobFinish { .. }
            | EventKind::JobRequeue { .. }
            | EventKind::JobReject { .. } => EventClass::Job,
            EventKind::Fault { .. }
            | EventKind::SwitchFault { .. }
            | EventKind::LinkFault { .. } => EventClass::Fault,
            EventKind::NetSolve { .. }
            | EventKind::NetRates { .. }
            | EventKind::NetLinks { .. } => EventClass::Net,
        }
    }

    /// The stable `"ev"` label of the JSON encoding.
    pub(crate) fn name(&self) -> &'static str {
        match self {
            EventKind::JobSubmit { .. } => "submit",
            EventKind::JobEligible { .. } => "eligible",
            EventKind::JobPlace { .. } => "place",
            EventKind::SaSearch { .. } => "sa_search",
            EventKind::JobStart { .. } => "start",
            EventKind::JobFinish { .. } => "finish",
            EventKind::JobRequeue { .. } => "requeue",
            EventKind::JobReject { .. } => "reject",
            EventKind::Fault { .. } => "fault",
            EventKind::SwitchFault { .. } => "switch_fault",
            EventKind::LinkFault { .. } => "link_fault",
            EventKind::NetSolve { .. } => "net_solve",
            EventKind::NetRates { .. } => "net_rates",
            EventKind::NetLinks { .. } => "net_links",
        }
    }
}

/// One trace record: a virtual-time instant, a per-trace sequence number,
/// and the typed payload.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Event {
    /// Virtual time in microseconds since the run origin. Never a wall
    /// clock.
    pub t_us: u64,
    /// Dense per-trace sequence number, assigned by the [`crate::Tracer`].
    pub seq: u64,
    /// What happened.
    pub kind: EventKind,
}

/// Format a float exactly like the workspace's JSON `Number` display, so
/// JSONL traces and `serde_json`-rendered reports agree byte for byte:
/// integral finite values keep a `.0`, non-finite values become `null`.
fn fmt_f64(out: &mut String, v: f64) {
    if v.is_finite() {
        if v == v.trunc() && v.abs() < 1e15 {
            let _ = write!(out, "{v:.1}");
        } else {
            let _ = write!(out, "{v}");
        }
    } else {
        out.push_str("null");
    }
}

impl Event {
    /// The canonical one-line JSON encoding (no trailing newline). Keys
    /// are emitted in a fixed order — `t_us`, `seq`, `ev`, then payload
    /// fields — so traces diff and compare byte-wise.
    pub fn to_json_line(&self) -> String {
        let mut s = String::with_capacity(96);
        let _ = write!(s, "{{\"t_us\":{},\"seq\":{},\"ev\":\"", self.t_us, self.seq);
        s.push_str(self.kind.name());
        s.push('"');
        match self.kind {
            EventKind::JobSubmit { job, nodes } => {
                let _ = write!(s, ",\"job\":{job},\"nodes\":{nodes}");
            }
            EventKind::JobEligible { job, attempt } => {
                let _ = write!(s, ",\"job\":{job},\"attempt\":{attempt}");
            }
            EventKind::JobPlace {
                job,
                attempt,
                nodes,
                cost_actual,
                cost_default,
            } => {
                let _ = write!(
                    s,
                    ",\"job\":{job},\"attempt\":{attempt},\"nodes\":{nodes},\"cost_actual\":"
                );
                fmt_f64(&mut s, cost_actual);
                s.push_str(",\"cost_default\":");
                fmt_f64(&mut s, cost_default);
            }
            EventKind::SaSearch {
                job,
                attempt,
                budget,
                evals,
                accepted,
                rejected,
                cost_incumbent,
                cost_final,
            } => {
                let _ = write!(
                    s,
                    ",\"job\":{job},\"attempt\":{attempt},\"budget\":{budget},\"evals\":{evals},\"accepted\":{accepted},\"rejected\":{rejected},\"cost_incumbent\":"
                );
                fmt_f64(&mut s, cost_incumbent);
                s.push_str(",\"cost_final\":");
                fmt_f64(&mut s, cost_final);
            }
            EventKind::JobStart {
                job,
                attempt,
                nodes,
                backfilled,
            } => {
                let _ = write!(
                    s,
                    ",\"job\":{job},\"attempt\":{attempt},\"nodes\":{nodes},\"backfilled\":{backfilled}"
                );
            }
            EventKind::JobFinish {
                job,
                attempt,
                status,
            } => {
                let _ = write!(
                    s,
                    ",\"job\":{job},\"attempt\":{attempt},\"status\":\"{}\"",
                    status.as_str()
                );
            }
            EventKind::JobRequeue {
                job,
                attempt,
                resubmit_us,
            } => {
                let _ = write!(
                    s,
                    ",\"job\":{job},\"attempt\":{attempt},\"resubmit_us\":{resubmit_us}"
                );
            }
            EventKind::JobReject { job } => {
                let _ = write!(s, ",\"job\":{job}");
            }
            EventKind::Fault { node, kind } => {
                let _ = write!(s, ",\"node\":{node},\"kind\":\"{}\"", kind.as_str());
            }
            EventKind::SwitchFault {
                switch,
                kind,
                victims,
                nodes,
            } => {
                let _ = write!(
                    s,
                    ",\"switch\":{switch},\"kind\":\"{}\",\"victims\":{victims},\"nodes\":{nodes}",
                    kind.as_str()
                );
            }
            EventKind::LinkFault {
                link,
                capacity_permille,
            } => {
                let _ = write!(
                    s,
                    ",\"link\":{link},\"capacity_permille\":{capacity_permille}"
                );
            }
            EventKind::NetSolve {
                components,
                flows,
                dirty_links,
            } => {
                let _ = write!(
                    s,
                    ",\"components\":{components},\"flows\":{flows},\"dirty_links\":{dirty_links}"
                );
            }
            EventKind::NetRates {
                flows,
                min_rate,
                max_rate,
            } => {
                let _ = write!(s, ",\"flows\":{flows},\"min_rate\":");
                fmt_f64(&mut s, min_rate);
                s.push_str(",\"max_rate\":");
                fmt_f64(&mut s, max_rate);
            }
            EventKind::NetLinks { active, saturated } => {
                let _ = write!(s, ",\"active\":{active},\"saturated\":{saturated}");
            }
        }
        s.push('}');
        s
    }
}

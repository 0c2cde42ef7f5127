//! The discrete-event scheduling core: queue, backfill, Eq. 7 feedback.
#![deny(clippy::as_conversions)]

use crate::queue::PendingQueue;
use commsched_collectives::CollectiveSpec;
use commsched_core::{
    AllocRequest, ClusterState, CostModel, JobId, JobNature, NodeSelector, Placement,
    PlacementEvaluator, SaStats, SelectorKind,
};
use commsched_metrics::Registry;
use commsched_num::{
    f64_of_u64, f64_of_usize, i64_of_usize, u32_of_usize, u64_of_f64_saturating, u64_of_usize,
    usize_of_u32, usize_of_u64,
};
use commsched_topology::NodeId;
use commsched_topology::{SwitchId, Tree};
use commsched_trace::{EndStatus, EventKind as TK, FaultClass, NullRecorder, Recorder, Tracer};
use commsched_workload::fault::{FaultDomain, FaultKind, FaultTrace};
use commsched_workload::{Job, JobLog};
use serde::Serialize;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::fmt;

#[cfg(test)]
pub(crate) mod reference;

/// Latest virtual second a run may end at, and most node-seconds of work
/// its faults may destroy, 2^53: past it the reports' `f64` seconds stop
/// being exact ([`EngineError::MakespanTooLong`],
/// [`EngineError::LostWorkTooLarge`]).
const EXACT_SECONDS: u64 = 1 << 53;

/// Engine configuration.
#[derive(Debug, Clone, Copy)]
pub struct EngineConfig {
    /// Which node-selection algorithm runs inside `select/linear`.
    pub selector: SelectorKind,
    /// Cost model for the *reported* communication cost (Figure 8 plots
    /// Eq. 6 as printed: raw effective hops).
    pub cost_model: CostModel,
    /// Cost model for the Eq. 7 runtime ratio. The paper's §5.3 weights
    /// hops by the per-step message size ("msize doubles in the case of
    /// vector doubling algorithms"), which is what distinguishes RHVD from
    /// RD in the runtime estimates — so this defaults to hop-bytes.
    pub ratio_model: CostModel,
    /// Base collective message size used in cost evaluation; the paper's
    /// motivation experiments use 1 MiB.
    pub msize: u64,
    /// Backfilling policy (SLURM's default scheduler runs EASY).
    pub backfill: BackfillPolicy,
    /// Apply the Eq. 7 runtime adjustment. Off = pure replay, useful for
    /// queueing-only studies and tests.
    pub adjust_runtimes: bool,
    /// Kill jobs at their requested walltime (production SLURM behaviour).
    /// Off by default: the paper's emulation replays full durations; only
    /// this crate's tests turn it on.
    pub(crate) enforce_walltime: bool,
    /// What happens to a job killed by a node failure.
    pub failure_policy: FailurePolicy,
    /// What happens to a job wider than the machine.
    pub oversized: OversizedPolicy,
}

impl EngineConfig {
    /// Defaults matching the paper's setup: backfill on, Eq. 7 on, 1 MiB.
    pub fn new(selector: SelectorKind) -> Self {
        EngineConfig {
            selector,
            cost_model: CostModel::HOPS,
            ratio_model: CostModel::HOP_BYTES,
            msize: 1 << 20,
            backfill: BackfillPolicy::Easy,
            adjust_runtimes: true,
            enforce_walltime: false,
            failure_policy: FailurePolicy::default(),
            oversized: OversizedPolicy::Abort,
        }
    }

    /// Disable runtime adjustment (pure replay).
    pub fn without_adjustment(mut self) -> Self {
        self.adjust_runtimes = false;
        self
    }

    /// Disable backfilling (strict FIFO).
    pub fn without_backfill(mut self) -> Self {
        self.backfill = BackfillPolicy::None;
        self
    }

    /// Use conservative backfilling: every queued job holds a reservation
    /// and backfilled jobs may not delay *any* of them (EASY only protects
    /// the queue head).
    pub fn conservative_backfill(mut self) -> Self {
        self.backfill = BackfillPolicy::Conservative;
        self
    }

    /// Set the policy applied to jobs killed by node failures.
    pub fn with_failure_policy(mut self, policy: FailurePolicy) -> Self {
        self.failure_policy = policy;
        self
    }

    /// Record a per-job `Rejected` outcome for jobs wider than the machine
    /// instead of aborting the whole run.
    pub fn reject_oversized(mut self) -> Self {
        self.oversized = OversizedPolicy::Reject;
        self
    }
}

/// What happens to a job killed by a node failure.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FailurePolicy {
    /// The job is cancelled: it keeps its partial outcome (ended at the
    /// failure instant) and never runs again.
    Cancel,
    /// The job re-enters the *back* of the queue after `backoff` seconds,
    /// at most `max_retries` times; once retries are exhausted it is
    /// cancelled.
    Requeue {
        /// Kills after this many requeues cancel the job.
        max_retries: u32,
        /// Seconds between the kill and the re-submission.
        backoff: u64,
    },
    /// The job re-enters the *front* of the queue immediately (SLURM's
    /// requeue-with-priority shape); retries are unbounded.
    RequeueFront,
}

impl Default for FailurePolicy {
    /// SLURM's `JobRequeue=1` default shape: requeue at the back, three
    /// attempts, no backoff.
    fn default() -> Self {
        FailurePolicy::Requeue {
            max_retries: 3,
            backoff: 0,
        }
    }
}

impl fmt::Display for FailurePolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FailurePolicy::Cancel => write!(f, "cancel"),
            FailurePolicy::Requeue {
                max_retries,
                backoff,
            } => write!(f, "requeue(max_retries={max_retries}, backoff={backoff}s)"),
            FailurePolicy::RequeueFront => write!(f, "requeue-front"),
        }
    }
}

/// What happens to a job that requests more nodes than the machine has.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum OversizedPolicy {
    /// Abort the whole run with [`EngineError::JobTooLarge`] (the safe
    /// default: an impossible request in a replay log is a config error).
    #[default]
    Abort,
    /// Record a [`JobStatus::Rejected`] outcome for the oversized job and
    /// keep scheduling everyone else.
    Reject,
}

/// How a job's time on the machine ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Default)]
pub enum JobStatus {
    /// Ran to completion (possibly after requeues).
    #[default]
    Completed,
    /// Killed by a node failure and not (or no longer) requeued.
    Cancelled,
    /// Never ran: wider than the machine or permanently stuck behind an
    /// unsatisfiable request.
    Rejected,
}

impl fmt::Display for JobStatus {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            JobStatus::Completed => "completed",
            JobStatus::Cancelled => "cancelled",
            JobStatus::Rejected => "rejected",
        })
    }
}

/// How jobs may jump the FIFO queue.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BackfillPolicy {
    /// Strict FIFO: nothing starts out of order.
    None,
    /// EASY: one reservation for the queue head; later jobs may start now
    /// if they cannot delay it (SLURM's `sched/backfill` default shape).
    Easy,
    /// Conservative: reservations for every queued job; a job may start
    /// early only if it delays none of them.
    Conservative,
}

/// Errors aborting a run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EngineError {
    /// A job requests more nodes than the machine has — it could never run.
    JobTooLarge {
        /// Offending job.
        job: JobId,
        /// Its request.
        nodes: usize,
        /// Machine size.
        machine: usize,
    },
    /// A job requests zero nodes — malformed input.
    ZeroNodeJob(JobId),
    /// Two jobs in the log share an id, which would corrupt event routing.
    DuplicateJob(JobId),
    /// A drain list or fault trace names a node outside the machine.
    NodeOutOfRange {
        /// Offending node ordinal.
        node: usize,
        /// Machine size.
        machine: usize,
    },
    /// The fault trace failed validation.
    InvalidFaultTrace(String),
    /// [`EngineConfig::msize`] is zero; a collective moves at least a byte.
    ZeroMessageSize,
    /// An internal bookkeeping invariant broke mid-run (e.g. a release or
    /// node-down transition that the cluster state rejected). Surfaced as
    /// an error instead of a panic so a sweep over many configurations
    /// reports the bad run and keeps going.
    StateInconsistency(String),
    /// The run ended past 2^53 s of virtual time, where its reports' `f64`
    /// seconds stop being exact: every job's own times can be in range
    /// while queueing pushes the makespan out of it.
    MakespanTooLong(u64),
    /// Node failures destroyed more than 2^53 node-seconds of work over
    /// the run (saturating at `u64::MAX`), where its reports' `f64`
    /// node-seconds stop being exact: a wide job killed late can get there
    /// while the makespan stays in range.
    LostWorkTooLarge(u64),
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::JobTooLarge {
                job,
                nodes,
                machine,
            } => write!(
                f,
                "{job} requests {nodes} nodes but the machine has {machine}"
            ),
            Self::ZeroNodeJob(job) => write!(f, "{job} requests zero nodes"),
            Self::DuplicateJob(job) => write!(f, "duplicate job id {job} in the log"),
            Self::NodeOutOfRange { node, machine } => write!(
                f,
                "node {node} is out of range for a machine of {machine} nodes"
            ),
            Self::InvalidFaultTrace(msg) => write!(f, "invalid fault trace: {msg}"),
            Self::ZeroMessageSize => write!(f, "the collective message size (msize) is zero"),
            Self::StateInconsistency(msg) => {
                write!(f, "internal state inconsistency: {msg}")
            }
            Self::MakespanTooLong(t) => write!(
                f,
                "the run ends at {t} s, past the 2^53 s its reports count exactly"
            ),
            Self::LostWorkTooLarge(n) => write!(
                f,
                "node failures destroy {n} node-seconds of work, past the 2^53 its reports \
                 count exactly"
            ),
        }
    }
}

impl std::error::Error for EngineError {}

/// Everything recorded about one completed job.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct JobOutcome {
    /// Job id from the log.
    pub id: JobId,
    /// Submission time (virtual seconds).
    pub submit: u64,
    /// Start time.
    pub start: u64,
    /// Completion time (`start + runtime_adjusted`).
    pub end: u64,
    /// Whole nodes held.
    pub nodes: usize,
    /// Job nature.
    pub nature: JobNature,
    /// Eq. 6 cost of the chosen allocation (0 for compute jobs), summed
    /// over the job's collective components.
    pub cost_actual: f64,
    /// Eq. 6 cost of the allocation the *default* selector would have made
    /// in the same cluster state (the Eq. 7 denominator).
    pub cost_default: f64,
    /// Runtime from the log.
    pub runtime_original: u64,
    /// Runtime after the Eq. 7 adjustment.
    pub runtime_adjusted: u64,
    /// The Eq. 7 multiplier actually applied to the job's communication
    /// time (`cost_jobaware / cost_default` under the ratio model, weighted
    /// over components; 1 for compute jobs and for the default selector).
    pub comm_ratio: f64,
    /// How the job's stay on the machine ended.
    pub status: JobStatus,
    /// Times the job was killed by a node failure and requeued.
    pub retries: u32,
    /// Node-seconds of work destroyed by kills across all attempts (for a
    /// cancelled job this includes the final, unfinished attempt).
    pub lost_node_seconds: u64,
}

impl JobOutcome {
    /// Wait time: start − submit (§5.4 metric 2).
    pub fn wait(&self) -> u64 {
        self.start - self.submit
    }

    /// Execution time: end − start (§5.4 metric 1).
    pub fn exec(&self) -> u64 {
        self.end - self.start
    }

    /// Turnaround time: end − submit (§5.4 metric 3).
    pub fn turnaround(&self) -> u64 {
        self.end - self.submit
    }

    /// Node-hours (§5.4 metric 4).
    pub(crate) fn node_hours(&self) -> f64 {
        f64_of_usize(self.nodes) * f64_of_u64(self.exec()) / 3600.0
    }
}

/// Results of a whole run.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct RunSummary {
    /// Selector that produced this run.
    pub selector: String,
    /// Per-job records, in start order (rejections where they happen; a
    /// requeue removes its record).
    pub outcomes: Vec<JobOutcome>,
    /// Virtual time the last job completed.
    pub makespan: u64,
}

// The totals fold from +0.0: `Iterator::sum::<f64>` of nothing is -0.0,
// which an empty log would print as "-0.0".
impl RunSummary {
    /// Total execution hours over all jobs (Table 3's "Execution Time").
    pub fn total_exec_hours(&self) -> f64 {
        self.outcomes
            .iter()
            .map(|o| f64_of_u64(o.exec()))
            .fold(0.0, |sum, x| sum + x)
            / 3600.0
    }

    /// Total wait hours over all jobs (Table 3's "Wait Time").
    pub fn total_wait_hours(&self) -> f64 {
        self.outcomes
            .iter()
            .map(|o| f64_of_u64(o.wait()))
            .fold(0.0, |sum, x| sum + x)
            / 3600.0
    }

    /// Mean turnaround in hours (Figure 9 left).
    pub fn avg_turnaround_hours(&self) -> f64 {
        if self.outcomes.is_empty() {
            return 0.0;
        }
        self.outcomes
            .iter()
            .map(|o| f64_of_u64(o.turnaround()))
            .sum::<f64>()
            / f64_of_usize(self.outcomes.len())
            / 3600.0
    }

    /// Mean node-hours per job (Figure 9 right).
    pub fn avg_node_hours(&self) -> f64 {
        if self.outcomes.is_empty() {
            return 0.0;
        }
        self.outcomes.iter().map(|o| o.node_hours()).sum::<f64>()
            / f64_of_usize(self.outcomes.len())
    }

    /// Total Eq. 6 communication cost over communication-intensive jobs
    /// (Figure 8's metric).
    pub fn total_comm_cost(&self) -> f64 {
        self.outcomes.iter().fold(0.0, |sum, o| sum + o.cost_actual)
    }

    /// Jobs completed per hour of makespan (the throughput the paper
    /// reports in §6.5).
    pub fn throughput(&self) -> f64 {
        if self.makespan == 0 {
            return 0.0;
        }
        f64_of_usize(self.count_status(JobStatus::Completed)) / (f64_of_u64(self.makespan) / 3600.0)
    }

    /// Outcome for a given job id.
    pub fn outcome(&self, id: JobId) -> Option<&JobOutcome> {
        self.outcomes.iter().find(|o| o.id == id)
    }

    /// Number of outcomes with the given status.
    pub fn count_status(&self, status: JobStatus) -> usize {
        self.outcomes.iter().filter(|o| o.status == status).count()
    }

    /// Node-hours of work destroyed by node failures across the run.
    pub fn lost_node_hours(&self) -> f64 {
        self.outcomes
            .iter()
            .map(|o| f64_of_u64(o.lost_node_seconds))
            .fold(0.0, |sum, x| sum + x)
            / 3600.0
    }

    /// Total requeues across all jobs.
    pub fn total_retries(&self) -> u64 {
        self.outcomes.iter().map(|o| u64::from(o.retries)).sum()
    }

    /// Machine utilization over time: `buckets` equal slices of the
    /// makespan, each with the mean fraction of `machine_nodes` busy
    /// (node-seconds in the bucket / bucket capacity).
    pub fn utilization(&self, machine_nodes: usize, buckets: usize) -> Vec<(u64, f64)> {
        if buckets == 0 || machine_nodes == 0 || self.makespan == 0 {
            return Vec::new();
        }
        let width = self.makespan.div_ceil(u64_of_usize(buckets)).max(1);
        let mut busy = vec![0.0f64; buckets];
        for o in &self.outcomes {
            let (s, e) = (o.start, o.end);
            if e <= s {
                // Rejected (and zero-length) outcomes occupy nothing.
                continue;
            }
            let first = usize_of_u64(s / width);
            let last = usize_of_u64((e - 1) / width).min(buckets - 1);
            for (b, slot) in busy.iter_mut().enumerate().take(last + 1).skip(first) {
                let b_start = u64_of_usize(b) * width;
                let b_end = b_start + width;
                let overlap = e.min(b_end).saturating_sub(s.max(b_start));
                *slot += f64_of_usize(o.nodes) * f64_of_u64(overlap);
            }
        }
        busy.iter()
            .enumerate()
            .map(|(b, &ns)| {
                let cap = f64_of_usize(machine_nodes) * f64_of_u64(width);
                (u64_of_usize(b) * width, ns / cap)
            })
            .collect()
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum EventKind {
    // Finishes sort before faults and submits at the same instant so
    // released nodes are visible to the scheduling pass, like slurmctld's
    // epilog ordering — and so a job finishing exactly when its node fails
    // completes normally. The attempt number distinguishes a requeued job's
    // live finish from the stale finish of a killed attempt.
    Finish(JobId, u32),
    // Faults carry their index into the trace, so simultaneous fault
    // events process in canonical trace order.
    Fault(u32),
    Submit(usize),
}

/// A run's events in `(t, EventKind)` order from two sources: every job's
/// first arrival, read from the log's `(submit, index)` order by a cursor,
/// and a heap of what the run schedules as it goes — finishes, faults and
/// requeue resubmits. The next event is the smaller of the two heads by
/// the whole key, so the order is the one heap's with every arrival in it.
struct Events {
    heap: BinaryHeap<Reverse<(u64, EventKind)>>,
    /// `(submit, log index)` of every job, ascending.
    arrivals: Vec<(u64, usize)>,
    /// The first arrival not yet popped.
    next: usize,
}

impl Events {
    fn new(log: &JobLog) -> Self {
        let mut arrivals: Vec<(u64, usize)> = log
            .jobs
            .iter()
            .enumerate()
            .map(|(i, j)| (j.submit, i))
            .collect();
        // Already in order for a log built by `JobLog::new`: one pass.
        arrivals.sort_unstable();
        Events {
            heap: BinaryHeap::new(),
            arrivals,
            next: 0,
        }
    }

    fn push(&mut self, t: u64, ev: EventKind) {
        self.heap.push(Reverse((t, ev)));
    }

    /// The next event, by `(t, EventKind)`, and whether it is the
    /// cursor's.
    #[inline]
    fn peek(&self) -> Option<((u64, EventKind), bool)> {
        let arrival = self
            .arrivals
            .get(self.next)
            .map(|&(t, i)| (t, EventKind::Submit(i)));
        match (self.heap.peek(), arrival) {
            (Some(&Reverse(top)), Some(arrival)) if top < arrival => Some((top, false)),
            (_, Some(arrival)) => Some((arrival, true)),
            (Some(&Reverse(top)), None) => Some((top, false)),
            (None, None) => None,
        }
    }

    /// Pop the next event if it is at `now`.
    #[inline]
    fn pop_at(&mut self, now: u64) -> Option<EventKind> {
        let ((t, ev), arrival) = self.peek()?;
        if t != now {
            return None;
        }
        if arrival {
            self.next += 1;
        } else {
            self.heap.pop();
        }
        Some(ev)
    }
}

/// Result of placing one job: its nodes and Eq. 6/Eq. 7 numbers.
#[derive(Debug, Clone)]
pub(crate) struct Placed {
    /// Chosen nodes.
    pub nodes: Placement,
    /// Reported Eq. 6 cost of the chosen allocation.
    pub cost_actual: f64,
    /// Reported Eq. 6 cost of the default allocation from the same state.
    pub cost_default: f64,
    /// Eq. 7-adjusted runtime, seconds.
    pub adjusted: u64,
    /// The applied communication-time multiplier.
    pub comm_ratio: f64,
    /// The selector's annealing search, if one ran (SA only).
    pub search: Option<SaStats>,
}

/// Virtual seconds → trace microseconds. Saturating: overflowing u64
/// microseconds would need a ~584-millennium virtual run, but the hardened
/// CI profile checks overflow, so the conversion must be total.
fn us(t: u64) -> u64 {
    t.saturating_mul(1_000_000)
}

/// A run's counters, one per report counter, tallied from the events it
/// emits (DESIGN.md §4.5) and written to a report once, by
/// [`Engine::run_observed`].
#[derive(Default)]
struct Counts {
    submitted: u64,
    started: u64,
    backfilled: u64,
    completed: u64,
    cancelled: u64,
    rejected: u64,
    requeued: u64,
    faults: u64,
    passes: u64,
    switches: u64,
    victims: u64,
    links: u64,
    searches: u64,
    evals: u64,
    improved: u64,
}

impl Counts {
    /// Count one event, whatever the tracer records: `passes` is the only
    /// counter without one, and `schedule_pass` counts it.
    fn count(&mut self, kind: &TK) {
        match *kind {
            TK::JobSubmit { .. } => self.submitted += 1,
            TK::JobStart { backfilled, .. } => {
                self.started += 1;
                self.backfilled += u64::from(backfilled);
            }
            TK::JobFinish { status, .. } => match status {
                EndStatus::Completed => self.completed += 1,
                EndStatus::Cancelled => self.cancelled += 1,
            },
            TK::JobRequeue { .. } => self.requeued += 1,
            TK::JobReject { .. } => self.rejected += 1,
            TK::Fault { .. } => self.faults += 1,
            TK::SwitchFault { victims, .. } => {
                self.faults += 1;
                self.switches += 1;
                self.victims += victims;
            }
            TK::LinkFault { .. } => {
                self.faults += 1;
                self.links += 1;
            }
            TK::SaSearch {
                evals,
                cost_incumbent,
                cost_final,
                ..
            } => {
                self.searches += 1;
                self.evals += evals;
                self.improved += u64::from(cost_final < cost_incumbent);
            }
            TK::JobEligible { .. }
            | TK::JobPlace { .. }
            | TK::NetSolve { .. }
            | TK::NetRates { .. }
            | TK::NetLinks { .. } => {}
        }
    }
}

/// The engine. Borrows the topology; cheap to construct per run.
pub struct Engine<'t> {
    tree: &'t Tree,
    cfg: EngineConfig,
    /// Nodes administratively removed from service for the whole run
    /// (SLURM DRAIN state).
    drained: Vec<commsched_topology::NodeId>,
    /// Mid-run node failure/recovery schedule; empty by default, in which
    /// case the run is bit-identical to the failure-free engine.
    faults: FaultTrace,
    /// Drive the runs with the reference backfill passes
    /// (`engine/reference.rs`) instead of the shipped ones.
    #[cfg(test)]
    reference_passes: bool,
    /// Placements to decline, by `(job, now)`: a selector that finds no
    /// placement although enough nodes are free, which no shipped selector
    /// does but every start site must survive.
    #[cfg(test)]
    refuse_start: fn(JobId, u64) -> bool,
    /// Queued jobs the conservative passes of this engine's runs fitted
    /// (`earliest_fit` calls), shipped or reference.
    #[cfg(test)]
    pub(crate) fits: std::cell::Cell<u64>,
    /// Eq. 6 evaluations `place` ran itself: the candidates its selector
    /// had not already scored.
    #[cfg(test)]
    pub(crate) evals: std::cell::Cell<u64>,
}

impl<'t> Engine<'t> {
    /// An engine over `tree` with `cfg`.
    pub fn new(tree: &'t Tree, cfg: EngineConfig) -> Self {
        Engine {
            tree,
            cfg,
            drained: Vec::new(),
            faults: FaultTrace::empty(),
            #[cfg(test)]
            reference_passes: false,
            #[cfg(test)]
            refuse_start: |_, _| false,
            #[cfg(test)]
            fits: std::cell::Cell::new(0),
            #[cfg(test)]
            evals: std::cell::Cell::new(0),
        }
    }

    /// The same engine driven by the reference backfill passes — the
    /// oracle side of the pass-equivalence tests.
    #[cfg(test)]
    pub(crate) fn with_reference_passes(mut self) -> Self {
        self.reference_passes = true;
        self
    }

    /// The same engine, failing to place job `j` at instant `t` whenever
    /// `refuse(j, t)`.
    #[cfg(test)]
    pub(crate) fn with_refused_starts(mut self, refuse: fn(JobId, u64) -> bool) -> Self {
        self.refuse_start = refuse;
        self
    }

    /// Inject a fault trace: its `Fail`/`Recover`/`Drain` events fire at
    /// their virtual times during [`Engine::run`].
    pub fn with_faults(mut self, faults: FaultTrace) -> Self {
        self.faults = faults;
        self
    }

    /// Mark nodes as drained for the whole run: they are never allocated
    /// and reduce the machine's capacity. Duplicates are ignored.
    pub fn drain_nodes(mut self, nodes: Vec<commsched_topology::NodeId>) -> Self {
        self.drained = nodes;
        self.drained.sort_unstable();
        self.drained.dedup();
        self
    }

    /// Slowest capacity factor over the links an allocation's in-tree
    /// routes traverse: node up/down links plus every switch up/down pair
    /// between each node's leaf and the allocation's LCA. `links` is the
    /// per-directed-link factor table (empty = no degradation anywhere,
    /// the failure-free fast path).
    fn min_link_factor(&self, links: &[f64], placement: &Placement) -> f64 {
        if links.is_empty() || placement.len() <= 1 {
            return 1.0;
        }
        let leaves = placement.takes().iter().map(|&(k, _)| self.tree.leaf(k));
        let Some(lca) = leaves.clone().reduce(|a, b| self.tree.lca_switch(a, b)) else {
            return 1.0;
        };
        let mut factor = 1.0f64;
        for n in placement.iter() {
            factor = factor.min(links[self.tree.node_uplink(n)]);
            factor = factor.min(links[self.tree.node_downlink(n)]);
        }
        // The switch links between a leaf and the common switch are shared
        // by every node of the leaf's take: one walk per take.
        for mut s in leaves {
            while s != lca {
                factor = factor.min(links[self.tree.switch_uplink(s)]);
                factor = factor.min(links[self.tree.switch_downlink(s)]);
                let Some(p) = self.tree.switch(s).parent else {
                    break;
                };
                s = p;
            }
        }
        factor
    }

    /// Place one job in `state` (without recording it) and work out its
    /// Eq. 6 costs and Eq. 7 runtime as a [`Placed`]; `None` if the
    /// selector finds no placement. `eval` is the caller's scratch: it
    /// carries no results between calls.
    ///
    /// Shared by the continuous engine and the individual-runs driver so
    /// both apply identical semantics.
    pub(crate) fn place(
        &self,
        eval: &mut PlacementEvaluator,
        state: &ClusterState,
        job: &Job,
        selector: &dyn NodeSelector,
        links: &[f64],
        attempt: u32,
    ) -> Option<Placed> {
        let req = AllocRequest {
            job: job.id,
            nodes: job.nodes,
            nature: job.nature,
            pattern: job
                .comm
                .first()
                .map(|(p, _)| CollectiveSpec::new(*p, self.cfg.msize)),
            attempt,
        };
        let decision = selector.decide(self.tree, state, &req).ok()?;
        let nodes = &decision.placement;

        if !job.nature.is_comm() || job.comm.is_empty() {
            return Some(Placed {
                nodes: decision.placement,
                cost_actual: 0.0,
                cost_default: 0.0,
                adjusted: job.runtime,
                comm_ratio: 1.0,
                search: decision.search,
            });
        }

        // The Eq. 7 denominator: what the default selector would have done
        // from this same state — its fill under the switch this decision
        // descended to, kept as takes. Under the default selector, or when
        // the fill lands on the chosen takes, it is the chosen allocation
        // itself (`None`): same takes, same totals, not scored again.
        let default_takes = (self.cfg.selector != SelectorKind::Default)
            .then(|| decision.default_takes(self.tree, state))
            .filter(|d| d != nodes.takes());

        // Eq. 6 for every collective component of an allocation, with the
        // job's own L_comm contribution as an overlay inside the evaluator
        // (the paper's worked example counts the job's own nodes) — no
        // clone of the cluster state. Totals the selector already scored
        // under the same collective and trunk discount are reused; one
        // traversal yields both models' totals, and a second runs only
        // when the ratio model's trunk discount differs (the ablation's
        // discount sweep).
        let (cost, ratio) = (&self.cfg.cost_model, &self.cfg.ratio_model);
        let mut totals = |takes: &[(usize, u32)], spec: &CollectiveSpec, discount: f64| {
            decision.scored(takes, spec, discount).unwrap_or_else(|| {
                #[cfg(test)]
                self.evals.set(self.evals.get() + 1);
                eval.evaluate_takes(self.tree, state, discount, takes, spec)
            })
        };
        let mut price = |takes: &[(usize, u32)], spec: &CollectiveSpec| {
            let t = totals(takes, spec, cost.trunk_discount);
            let r = if ratio.trunk_discount == cost.trunk_discount {
                t
            } else {
                totals(takes, spec, ratio.trunk_discount)
            };
            (t.for_model(cost), r.for_model(ratio))
        };

        let mut cost_actual = 0.0;
        let mut cost_default = 0.0;
        let mut comm_adj = 0.0;
        let comm_orig = f64_of_u64(job.runtime) * job.comm_fraction();
        let mut adjusted = f64_of_u64(job.runtime) * (1.0 - job.comm_fraction());
        // Degraded links on the allocation's routes stretch the
        // communication fraction by the slowest link's inverse capacity
        // factor; 1.0 on a healthy fabric leaves the arithmetic
        // bit-identical to the no-fault path.
        let link_factor = self.min_link_factor(links, nodes);
        for &(pattern, fraction) in &job.comm {
            let spec = CollectiveSpec::new(pattern, self.cfg.msize);
            let actual = price(nodes.takes(), &spec);
            let default = match &default_takes {
                Some(d) => price(d, &spec),
                None => actual,
            };
            // Reported cost: Eq. 6 as printed (raw hops by default).
            cost_actual += actual.0;
            cost_default += default.0;
            // Runtime ratio: hop-bytes by default (§5.3).
            let (ca, cd) = (actual.1, default.1);
            let ratio = if cd > 0.0 { ca / cd } else { 1.0 };
            let ratio = if self.cfg.adjust_runtimes { ratio } else { 1.0 };
            let part = f64_of_u64(job.runtime) * fraction * ratio / link_factor;
            comm_adj += part;
            adjusted += part;
        }
        let comm_ratio = if comm_orig > 0.0 {
            comm_adj / comm_orig
        } else {
            1.0
        };
        Some(Placed {
            nodes: decision.placement,
            cost_actual,
            cost_default,
            // Eq. 7 and a degraded link can stretch a runtime past 2^53 s;
            // the job then ends past it, and the run in `MakespanTooLong`.
            adjusted: u64_of_f64_saturating(adjusted.round().max(1.0)),
            comm_ratio,
            search: decision.search,
        })
    }

    /// Nodes in service when a run starts: the machine less the drain list.
    fn capacity(&self) -> usize {
        self.tree.num_nodes() - self.drained.len()
    }

    /// Validate the configuration, and the log, drain list and fault trace
    /// against the machine.
    fn validate(&self, log: &JobLog) -> Result<(), EngineError> {
        // Every tree has a node: `from_conf` rejects an empty hostlist and
        // the builders an empty leaf.
        let machine = self.tree.num_nodes();
        // `CollectiveSpec::new` asserts this at the first communication-
        // intensive placement; a bad config is rejected whatever the log.
        if self.cfg.msize == 0 {
            return Err(EngineError::ZeroMessageSize);
        }
        for &n in &self.drained {
            if n.0 >= machine {
                return Err(EngineError::NodeOutOfRange { node: n.0, machine });
            }
        }
        self.faults
            .validate_machine(
                machine,
                self.tree.num_switches(),
                self.tree.num_directed_links(),
            )
            .map_err(|e| EngineError::InvalidFaultTrace(e.to_string()))?;
        let mut ids: Vec<JobId> = log.jobs.iter().map(|j| j.id).collect();
        ids.sort_unstable();
        if let Some(w) = ids.windows(2).find(|w| w[0] == w[1]) {
            return Err(EngineError::DuplicateJob(w[0]));
        }
        let capacity = self.capacity();
        for j in &log.jobs {
            if j.nodes == 0 {
                return Err(EngineError::ZeroNodeJob(j.id));
            }
            if j.nodes > capacity && self.cfg.oversized == OversizedPolicy::Abort {
                return Err(EngineError::JobTooLarge {
                    job: j.id,
                    nodes: j.nodes,
                    machine: capacity,
                });
            }
        }
        Ok(())
    }

    /// Continuous run: replay the whole log (§5.4), interleaving any
    /// injected fault events.
    pub fn run(&self, log: &JobLog) -> Result<RunSummary, EngineError> {
        // The observed run with the zero-cost null sink, its counts
        // dropped — byte-identical results by construction.
        self.run_with(log, &mut NullRecorder).0
    }

    /// [`Engine::run`] with observability: every job lifecycle transition
    /// is emitted to `recorder` as a virtual-time [`commsched_trace::Event`]
    /// and run counters/distributions are added to `registry` when the run
    /// ends (snapshot it afterwards for a machine-readable report). Events
    /// derive only from virtual time and seeded state, so the trace is
    /// byte-identical across repeat runs and thread counts.
    pub fn run_observed(
        &self,
        log: &JobLog,
        recorder: &mut dyn Recorder,
        registry: &mut Registry,
    ) -> Result<RunSummary, EngineError> {
        let (summary, c) = self.run_with(log, recorder);
        // The nine scheduler counters every report carries, a rejected
        // input's included, then each other one only if its event fired:
        // `faults.switch.victims` only with victims, `sa.evals` on every
        // search, even one that made no evaluation.
        let counters = [
            ("jobs.submitted", c.submitted, true),
            ("jobs.started", c.started, true),
            ("jobs.backfilled", c.backfilled, true),
            ("jobs.completed", c.completed, true),
            ("jobs.cancelled", c.cancelled, true),
            ("jobs.rejected", c.rejected, true),
            ("jobs.requeued", c.requeued, true),
            ("faults.applied", c.faults, true),
            ("sched.passes", c.passes, true),
            ("faults.switch.applied", c.switches, c.switches > 0),
            ("faults.switch.victims", c.victims, c.victims > 0),
            ("faults.link.applied", c.links, c.links > 0),
            ("sa.searches", c.searches, c.searches > 0),
            ("sa.evals", c.evals, c.searches > 0),
            ("sa.improved", c.improved, c.improved > 0),
        ];
        for (name, n, fired) in counters {
            if fired {
                *registry.counter(name) += n;
            }
        }
        let summary = summary?;

        // End-of-run distributions and totals, in outcome (start) order —
        // a pure function of the outcomes, so reports stay deterministic.
        let completed = summary
            .outcomes
            .iter()
            .filter(|o| o.status == JobStatus::Completed);
        let wait = registry.hist("job.wait_s");
        for o in completed.clone() {
            wait.observe(f64_of_u64(o.wait()));
        }
        let exec = registry.hist("job.exec_s");
        for o in completed {
            exec.observe(f64_of_u64(o.exec()));
        }
        *registry.gauge("makespan_s") = f64_of_u64(summary.makespan);
        *registry.gauge("lost_node_seconds") = f64_of_u64(lost_node_seconds(&summary));
        Ok(summary)
    }

    /// The one loop behind [`Engine::run`] and [`Engine::run_observed`]:
    /// the run's summary, and its counts whether it succeeded or not.
    fn run_with(
        &self,
        log: &JobLog,
        recorder: &mut dyn Recorder,
    ) -> (Result<RunSummary, EngineError>, Counts) {
        if let Err(e) = self.validate(log) {
            return (Err(e), Counts::default());
        }
        let mut events = Events::new(log);
        for (k, e) in self.faults.events().iter().enumerate() {
            events.push(e.t, EventKind::Fault(u32_of_usize(k)));
        }
        let mut run = Run {
            eng: self,
            log,
            selector: self.cfg.selector.build(),
            eval: PlacementEvaluator::new(),
            state: ClusterState::new(self.tree),
            now: 0,
            events,
            pending: PendingQueue::default(),
            running: Vec::new(),
            outcomes: Vec::new(),
            retries: vec![0; log.jobs.len()],
            lost: vec![0; log.jobs.len()],
            link_factors: if self.faults.has_domain(FaultDomain::Link) {
                vec![1.0; self.tree.num_directed_links()]
            } else {
                Vec::new()
            },
            tr: Tracer::new(recorder),
            counts: Counts::default(),
        };
        let summary = run.replay().map(|()| run.summarize()).and_then(|s| {
            if s.makespan > EXACT_SECONDS {
                return Err(EngineError::MakespanTooLong(s.makespan));
            }
            let lost = lost_node_seconds(&s);
            if lost > EXACT_SECONDS {
                return Err(EngineError::LostWorkTooLarge(lost));
            }
            Ok(s)
        });
        (summary, run.counts)
    }
}

/// Node-seconds of work the run's failures destroyed, saturating.
fn lost_node_seconds(summary: &RunSummary) -> u64 {
    summary
        .outcomes
        .iter()
        .fold(0u64, |sum, o| sum.saturating_add(o.lost_node_seconds))
}

/// Everything one continuous run mutates, owned in one place. The event
/// handlers (`finish`, `apply_fault`, `submit`) move jobs between the
/// queue, `running` and `outcomes`; `schedule_pass` and its two backfill
/// strategies are the only callers of `start_job`.
struct Run<'a, 'r> {
    eng: &'a Engine<'a>,
    log: &'a JobLog,
    selector: Box<dyn NodeSelector>,
    /// Eq. 6 scratch for every placement of the run.
    eval: PlacementEvaluator,
    /// Built fresh for the run, after `validate`.
    state: ClusterState,
    /// The instant being processed; once no event is left, the makespan
    /// fallback for a run in which nothing ever started.
    now: u64,
    events: Events,
    /// FIFO queue of log indices, indexed by the width of each request.
    pending: PendingQueue,
    /// Running jobs as `(walltime end, nodes, log idx, attempt)`, sorted by
    /// `(walltime end, nodes)`: the release profile both backfill passes
    /// read.
    running: Vec<(u64, usize, usize, u32)>,
    /// Per-job records, in start order (rejections where they happen; a
    /// requeue removes its record).
    outcomes: Vec<JobOutcome>,
    /// Per-job requeue count and destroyed node-seconds, accumulated
    /// across attempts; the count at start time doubles as the attempt
    /// number that pairs a Finish event with its running entry.
    retries: Vec<u32>,
    lost: Vec<u64>,
    /// Per-directed-link capacity factors, alive only when the fault
    /// trace degrades links — failure-free runs never allocate or scan
    /// this, keeping their placement arithmetic untouched.
    link_factors: Vec<f64>,
    tr: Tracer<'r>,
    counts: Counts,
}

impl Run<'_, '_> {
    /// Count `kind`, whatever the caller records, then trace it.
    fn emit(&mut self, kind: TK) {
        self.counts.count(&kind);
        self.tr.emit(us(self.now), kind);
    }

    /// Take down the drained nodes, then process every event: all those
    /// at the earliest instant, then a scheduling pass, until none remain.
    fn replay(&mut self) -> Result<(), EngineError> {
        for &n in &self.eng.drained {
            // A freshly-built state has every node up and free, so a
            // whole-run drain goes straight to Down.
            self.state
                .set_down(self.eng.tree, n)
                .map_err(|e| EngineError::StateInconsistency(format!("draining {n:?}: {e}")))?;
        }
        while let Some(((now, _), _)) = self.events.peek() {
            self.now = now;
            // Drain all events at `now` (finishes first, then faults, then
            // submits, via enum ordering).
            while let Some(ev) = self.events.pop_at(now) {
                match ev {
                    EventKind::Finish(id, att) => self.finish(id, att)?,
                    EventKind::Fault(k) => self.apply_fault(usize_of_u32(k))?,
                    EventKind::Submit(i) => self.submit(i),
                }
            }
            self.schedule_pass()?;
        }
        Ok(())
    }

    /// A running attempt reached its end: free its nodes.
    fn finish(&mut self, id: JobId, att: u32) -> Result<(), EngineError> {
        let log = self.log;
        let live = self
            .running
            .iter()
            .position(|&(_, _, i, a)| log.jobs[i].id == id && a == att);
        let Some(pos) = live else {
            // Stale finish of an attempt killed by a fault.
            return Ok(());
        };
        self.state
            .release(self.eng.tree, id)
            .map_err(|e| EngineError::StateInconsistency(format!("releasing {id}: {e}")))?;
        self.running.remove(pos);
        self.emit(TK::JobFinish {
            job: id.0,
            attempt: att,
            status: EndStatus::Completed,
        });
        Ok(())
    }

    /// Job `i` enters the queue, for the first time or after a requeue
    /// backoff.
    fn submit(&mut self, i: usize) {
        let job = &self.log.jobs[i];
        if self.retries[i] == 0 {
            // First entry; requeue re-submissions skip this.
            self.emit(TK::JobSubmit {
                job: job.id.0,
                nodes: u64_of_usize(job.nodes),
            });
        }
        if job.nodes > self.eng.capacity() {
            // Only reachable under OversizedPolicy::Reject — Abort already
            // returned from validate().
            self.reject(i);
        } else {
            self.pending.push_back(i, job.nodes, job.walltime);
            self.emit(TK::JobEligible {
                job: job.id.0,
                attempt: self.retries[i],
            });
        }
    }

    /// Record job `i` as never (or no longer) able to run.
    fn reject(&mut self, i: usize) {
        let job = &self.log.jobs[i];
        self.outcomes.push(JobOutcome {
            id: job.id,
            submit: job.submit,
            start: job.submit,
            end: job.submit,
            nodes: job.nodes,
            nature: job.nature,
            cost_actual: 0.0,
            cost_default: 0.0,
            runtime_original: job.runtime,
            runtime_adjusted: 0,
            comm_ratio: 1.0,
            status: JobStatus::Rejected,
            retries: self.retries[i],
            lost_node_seconds: self.lost[i],
        });
        self.emit(TK::JobReject { job: job.id.0 });
    }

    /// Apply fault-trace event `k`: kill the victim jobs (per the
    /// configured [`FailurePolicy`]) and transition the target's lifecycle
    /// state. Lenient on redundant transitions (failing a down node,
    /// recovering an up node): explicit traces need not be minimal.
    fn apply_fault(&mut self, k: usize) -> Result<(), EngineError> {
        use commsched_core::NodeHealth;

        let tree = self.eng.tree;
        let e = self.eng.faults.events()[k];
        match e.kind {
            FaultKind::Fail | FaultKind::Recover | FaultKind::Drain => {
                let n = NodeId(e.node);
                self.emit(TK::Fault {
                    node: u64_of_usize(e.node),
                    kind: match e.kind {
                        FaultKind::Fail => FaultClass::Fail,
                        FaultKind::Recover => FaultClass::Recover,
                        _ => FaultClass::Drain,
                    },
                });
                match e.kind {
                    FaultKind::Fail => {
                        if let Some(victim) = self.state.job_on(n) {
                            self.kill_victim(victim)?;
                        }
                        // The kill freed the node — unless it was draining,
                        // in which case release already completed the drain
                        // to Down.
                        if self.state.health(n) != NodeHealth::Down {
                            self.state.set_down(tree, n).map_err(|e| {
                                EngineError::StateInconsistency(format!("failing node {n:?}: {e}"))
                            })?;
                        }
                    }
                    FaultKind::Recover => {
                        if self.state.health(n) != NodeHealth::Up {
                            self.state.set_up(tree, n).map_err(|e| {
                                EngineError::StateInconsistency(format!(
                                    "recovering node {n:?}: {e}"
                                ))
                            })?;
                        }
                    }
                    _ => {
                        if self.state.health(n) != NodeHealth::Down {
                            self.state.set_draining(tree, n).map_err(|e| {
                                EngineError::StateInconsistency(format!("draining node {n:?}: {e}"))
                            })?;
                        }
                    }
                }
            }
            FaultKind::SwitchDown | FaultKind::SwitchUp => {
                let s = SwitchId(e.node);
                let down = e.kind == FaultKind::SwitchDown;
                let was_down = self.state.switch_is_down(s);
                // Victim set first (in JobId order, off the deterministic
                // allocation map), so the blast radius is on the trace
                // event before the individual kill records.
                let victims: Vec<JobId> = if down && !was_down {
                    let under: std::collections::BTreeSet<usize> =
                        tree.leaf_ordinals_under(s).iter().copied().collect();
                    self.state
                        .allocations()
                        .filter(|(_, a)| a.nodes.takes().iter().any(|(k, _)| under.contains(k)))
                        .map(|(j, _)| j)
                        .collect()
                } else {
                    Vec::new()
                };
                self.emit(TK::SwitchFault {
                    switch: u64_of_usize(e.node),
                    kind: if down {
                        FaultClass::Fail
                    } else {
                        FaultClass::Recover
                    },
                    victims: u64_of_usize(victims.len()),
                    nodes: u64_of_usize(tree.subtree_nodes(s)),
                });
                for victim in victims {
                    self.kill_victim(victim)?;
                }
                if down && !was_down {
                    self.state.set_switch_down(tree, s).map_err(|e| {
                        EngineError::StateInconsistency(format!("failing switch {s:?}: {e}"))
                    })?;
                } else if !down && was_down {
                    self.state.set_switch_up(tree, s).map_err(|e| {
                        EngineError::StateInconsistency(format!("recovering switch {s:?}: {e}"))
                    })?;
                }
            }
            FaultKind::LinkDegrade { .. } | FaultKind::LinkRestore => {
                // A restore is a degrade to nominal: 1000.0 / 1000.0 is
                // exactly 1.0.
                let permille = match e.kind {
                    FaultKind::LinkDegrade { permille } => permille,
                    _ => 1000,
                };
                self.emit(TK::LinkFault {
                    link: u64_of_usize(e.node),
                    capacity_permille: u64::from(permille),
                });
                if let Some(f) = self.link_factors.get_mut(e.node) {
                    *f = f64::from(permille) / 1000.0;
                }
            }
        }
        Ok(())
    }

    /// Kill one running job for a fault at `now`: release its nodes,
    /// account the destroyed node-seconds, and cancel or requeue it per
    /// the configured [`FailurePolicy`]. Shared by node `Fail` and the
    /// subtree kills of `SwitchDown`.
    fn kill_victim(&mut self, victim: JobId) -> Result<(), EngineError> {
        let (log, now) = (self.log, self.now);
        let pos = self
            .running
            .iter()
            .position(|&(_, _, i, _)| log.jobs[i].id == victim);
        debug_assert!(pos.is_some(), "allocated job must be running");
        let Some(pos) = pos else {
            return Ok(());
        };
        // `remove`, not `swap_remove`: `running` stays sorted by
        // `(walltime end, nodes)`.
        let (_, _, i, attempt) = self.running.remove(pos);
        let alloc = self.state.release(self.eng.tree, victim).map_err(|e| {
            EngineError::StateInconsistency(format!("releasing fault victim {victim}: {e}"))
        })?;
        let opos = self
            .outcomes
            .iter()
            .rposition(|o| o.id == victim)
            .ok_or_else(|| {
                EngineError::StateInconsistency(format!(
                    "running job {victim} has no outcome record"
                ))
            })?;
        let started = self.outcomes[opos].start;
        let wasted = (now - started).saturating_mul(u64_of_usize(alloc.nodes.len()));
        self.lost[i] = self.lost[i].saturating_add(wasted);
        // None = cancel; Some(None) = requeue at the front;
        // Some(Some(backoff)) = requeue at the back.
        let requeue = match self.eng.cfg.failure_policy {
            FailurePolicy::Cancel => None,
            FailurePolicy::Requeue {
                max_retries,
                backoff,
            } => (attempt < max_retries).then_some(Some(backoff)),
            FailurePolicy::RequeueFront => Some(None),
        };
        let Some(backoff) = requeue else {
            let o = &mut self.outcomes[opos];
            o.end = now;
            o.runtime_adjusted = now - started;
            o.status = JobStatus::Cancelled;
            o.retries = attempt;
            o.lost_node_seconds = self.lost[i];
            self.emit(TK::JobFinish {
                job: victim.0,
                attempt,
                status: EndStatus::Cancelled,
            });
            return Ok(());
        };
        let resubmit = now.saturating_add(backoff.unwrap_or(0));
        self.emit(TK::JobRequeue {
            job: victim.0,
            attempt,
            resubmit_us: us(resubmit),
        });
        self.retries[i] += 1;
        // The attempt's record goes; the rest keep their start order.
        self.outcomes.remove(opos);
        if backoff.is_some() {
            self.events.push(resubmit, EventKind::Submit(i));
        } else {
            self.pending
                .push_front(i, log.jobs[i].nodes, log.jobs[i].walltime);
            self.emit(TK::JobEligible {
                job: victim.0,
                attempt: self.retries[i],
            });
        }
        Ok(())
    }

    /// Try to start the job in queue slot `slot` now: place, allocate,
    /// dequeue, trace, record. `Ok(Some(walltime end))` once it started;
    /// `Ok(None)` if the selector finds no placement, in which case nothing
    /// changed.
    fn start_job(
        &mut self,
        slot: usize,
        i: usize,
        backfilled: bool,
    ) -> Result<Option<u64>, EngineError> {
        let (eng, now, attempt) = (self.eng, self.now, self.retries[i]);
        let job = &self.log.jobs[i];
        #[cfg(test)]
        if (eng.refuse_start)(job.id, now) {
            return Ok(None);
        }
        let Some(mut placed) = eng.place(
            &mut self.eval,
            &self.state,
            job,
            self.selector.as_ref(),
            &self.link_factors,
            attempt,
        ) else {
            return Ok(None);
        };
        if eng.cfg.enforce_walltime {
            placed.adjusted = placed.adjusted.min(job.walltime);
        }
        self.state
            .allocate(eng.tree, job.id, &placed.nodes, job.nature)
            .map_err(|e| {
                EngineError::StateInconsistency(format!(
                    "allocating {} on selector-chosen nodes: {e}",
                    job.id
                ))
            })?;
        let end = now.saturating_add(placed.adjusted);
        let wall_end = now.saturating_add(job.walltime.max(placed.adjusted));
        let at = self
            .running
            .partition_point(|&(t, n, ..)| (t, n) <= (wall_end, job.nodes));
        self.running.insert(at, (wall_end, job.nodes, i, attempt));
        self.events.push(end, EventKind::Finish(job.id, attempt));
        self.pending.remove(slot);
        // The search SA ran for this placement; no other selector, and no
        // budget-0 or compute placement, reports one. The job and attempt
        // are the engine's own.
        if let Some(st) = placed.search {
            self.emit(TK::SaSearch {
                job: job.id.0,
                attempt,
                budget: u64::from(st.budget),
                evals: u64::from(st.evals),
                accepted: u64::from(st.accepted),
                rejected: u64::from(st.rejected),
                cost_incumbent: st.cost_incumbent,
                cost_final: st.cost_final,
            });
        }
        self.emit(TK::JobPlace {
            job: job.id.0,
            attempt,
            nodes: u64_of_usize(job.nodes),
            cost_actual: placed.cost_actual,
            cost_default: placed.cost_default,
        });
        self.emit(TK::JobStart {
            job: job.id.0,
            attempt,
            nodes: u64_of_usize(job.nodes),
            backfilled,
        });
        self.outcomes.push(JobOutcome {
            id: job.id,
            submit: job.submit,
            start: now,
            end,
            nodes: job.nodes,
            nature: job.nature,
            cost_actual: placed.cost_actual,
            cost_default: placed.cost_default,
            runtime_original: job.runtime,
            runtime_adjusted: placed.adjusted,
            comm_ratio: placed.comm_ratio,
            status: JobStatus::Completed,
            retries: attempt,
            lost_node_seconds: self.lost[i],
        });
        Ok(Some(wall_end))
    }

    /// One pass of the scheduler: start the head while it fits, then
    /// backfill behind it as the configured policy allows.
    fn schedule_pass(&mut self) -> Result<(), EngineError> {
        self.counts.passes += 1;
        while let Some((slot, head)) = self.pending.first() {
            let fits = self.log.jobs[head].nodes <= self.state.free_total();
            if !(fits && self.start_job(slot, head, false)?.is_some()) {
                return match self.eng.cfg.backfill {
                    BackfillPolicy::None => Ok(()),
                    BackfillPolicy::Easy => self.easy_backfill(slot, head),
                    BackfillPolicy::Conservative => self.conservative_backfill(),
                };
            }
        }
        Ok(())
    }

    /// EASY backfill behind the stuck queue head: find the shadow time when
    /// enough nodes will be free for it (by requested walltimes), and the
    /// extra nodes beyond its need at that moment; start later jobs that
    /// respect either.
    fn easy_backfill(&mut self, head_slot: usize, head: usize) -> Result<(), EngineError> {
        #[cfg(test)]
        if self.eng.reference_passes {
            return self.easy_backfill_reference(head_slot, head);
        }
        let log = self.log;
        let need = log.jobs[head].nodes;
        let mut avail = self.state.free_total();
        let mut shadow = u64::MAX;
        for &(t, n, ..) in &self.running {
            avail += n;
            if avail >= need {
                shadow = t;
                break;
            }
        }
        let extra = avail.saturating_sub(need);
        // `walltime <= window` iff `now + walltime <= shadow`, saturating:
        // an unbounded shadow admits every walltime, a past one none.
        let window = if shadow == u64::MAX {
            Some(u64::MAX)
        } else {
            shadow.checked_sub(self.now)
        };

        // Visit only the jobs that may start now: they fit the nodes free
        // right now — which shrink as this loop starts jobs, so each lookup
        // asks afresh — and end by the shadow time or fit `extra`.
        let mut from = head_slot + 1;
        while let Some((slot, i)) =
            self.pending
                .next_fit(from, self.state.free_total(), extra, window)
        {
            from = slot + 1;
            debug_assert!({
                let (nodes, wall) = (log.jobs[i].nodes, log.jobs[i].walltime);
                nodes <= self.state.free_total()
                    && (self.now.saturating_add(wall) <= shadow || nodes <= extra)
            });
            self.start_job(slot, i, true)?;
        }
        Ok(())
    }

    /// Conservative backfilling: give the queued jobs (in order) the
    /// earliest reservation that fits the running jobs' releases and the
    /// reservations before it, and start the jobs whose reservation is
    /// *now*. Every pass fits from the queue head. A start only narrows the
    /// window it was given, so the pass goes on after it, and it stops at
    /// the first slot from which no queued job can start now (DESIGN.md
    /// §4.11).
    fn conservative_backfill(&mut self) -> Result<(), EngineError> {
        #[cfg(test)]
        if self.eng.reference_passes {
            return self.conservative_backfill_reference();
        }
        let (log, now) = (self.log, self.now);
        // The head never starts here: the head loop just failed to start it
        // against this same state.
        let head = self.pending.first();
        // Availability deltas by instant, strictly ascending: the running
        // jobs' releases plus a `[start, end)` pair per reservation.
        let mut profile = Vec::new();
        let mut next = self.release_profile(&mut profile);
        // The leftmost slot the last lookup found that may start now.
        let mut due = 0;
        while let Some((slot, i)) = next {
            // Availability only falls for the rest of the pass, so once no
            // job from `slot` on meets the bound nothing more starts now,
            // and the next pass fits again from the head. A lookup only
            // decides where the pass stops, so none is needed before `due`.
            if slot >= due {
                let (free, spare, window) = start_bound(&profile, self.state.free_total(), now);
                match self.pending.next_fit(slot, free, spare, window) {
                    Some((first, _)) => due = first,
                    None => break,
                }
            }
            next = self.pending.after(slot);
            let job = &log.jobs[i];
            let need = i64_of_usize(job.nodes);
            let dur = job.walltime.max(1);
            let base = i64_of_usize(self.state.free_total());
            #[cfg(test)]
            self.eng.fits.set(self.eng.fits.get() + 1);
            let Some(s) = earliest_fit(&profile, base, now, dur, need) else {
                // With failed nodes the job may not fit even the fully
                // drained future machine; it holds no reservation and
                // waits for a recovery (or end-of-run rejection).
                continue;
            };
            if s == now && need <= base {
                if let Some(wall_end) = self.start_job(slot, i, Some((slot, i)) != head)? {
                    if wall_end > now.saturating_add(dur) {
                        // Eq. 7 stretched the hold past the window it was
                        // fitted in: earlier reservations may have to move.
                        next = self.release_profile(&mut profile);
                    } else {
                        add_delta(&mut profile, wall_end.max(now), need);
                    }
                    continue;
                }
            }
            // Reserve [s, s + dur) for this job.
            add_delta(&mut profile, s, -need);
            add_delta(&mut profile, s.saturating_add(dur), need);
        }
        Ok(())
    }

    /// Reset `profile` to the running jobs' releases alone, each at
    /// `max(walltime end, now)` — `running`'s order, so no sort — and hand
    /// back the queue head to fit from.
    fn release_profile(&self, profile: &mut Vec<(u64, i64)>) -> Option<(usize, usize)> {
        let now = self.now;
        profile.clear();
        for &(wall_end, nodes, ..) in &self.running {
            let (t, d) = (wall_end.max(now), i64_of_usize(nodes));
            match profile.last_mut() {
                Some(last) if last.0 == t => last.1 += d,
                _ => profile.push((t, d)),
            }
        }
        self.pending.first()
    }

    /// Close the run: reject what can never start and hand the outcomes
    /// over.
    fn summarize(&mut self) -> RunSummary {
        // Jobs still queued when the event stream runs dry can never start
        // (wider than the surviving capacity, or FIFO-stuck behind one that
        // is): record them as rejected instead of looping or losing them.
        // Unreachable without faults — validate() guarantees every job fits
        // the full machine, so a failure-free queue always drains.
        while let Some((slot, i)) = self.pending.first() {
            self.pending.remove(slot);
            self.reject(i);
        }
        debug_assert!(self.running.is_empty(), "jobs left running");
        debug_assert_eq!(self.outcomes.len(), self.log.jobs.len());
        let makespan = self
            .outcomes
            .iter()
            .map(|o| o.end)
            .max()
            .unwrap_or(self.now);
        RunSummary {
            selector: self.eng.cfg.selector.name().to_string(),
            outcomes: std::mem::take(&mut self.outcomes),
            makespan,
        }
    }
}

/// Earliest `s >= now` at which `need` nodes stay available for `dur`
/// seconds under the delta profile (ascending instants, one entry each).
/// Candidate starts are `now` and every profile breakpoint; availability
/// after the last breakpoint is every node not currently down, so on a
/// healthy machine a fit always exists for validated jobs — but a mid-run
/// node failure can leave `need` out of reach entirely, in which case there
/// is no fit (`None`).
///
/// One forward sweep carrying the availability prefix. A breakpoint `p`
/// short of `need` rules out every candidate at or before it, not just the
/// current one: each of their windows contains `p`, whose availability does
/// not depend on where the window starts. So the sweep alternates between
/// two runs: to the next breakpoint back at `need`, then on until that
/// candidate's window closes (a fit) or availability drops again.
pub(crate) fn earliest_fit(
    profile: &[(u64, i64)],
    base: i64,
    now: u64,
    dur: u64,
    need: i64,
) -> Option<u64> {
    let split = profile.partition_point(|&(t, _)| t <= now);
    let mut avail = base + profile[..split].iter().map(|&(_, d)| d).sum::<i64>();
    let mut rest = profile[split..].iter();
    // The earliest start not yet ruled out.
    let mut s = now;
    loop {
        // Short of `need`: the first breakpoint back at it is the next
        // candidate.
        while avail < need {
            let &(p, d) = rest.next()?;
            avail += d;
            s = p;
        }
        // Hold the candidate until its window closes or availability drops.
        let end = s.saturating_add(dur);
        while avail >= need {
            match rest.next() {
                Some(&(p, d)) if p < end => avail += d,
                _ => return Some(s),
            }
        }
    }
}

/// The bound every queued job that can still start at `now` meets, as
/// `PendingQueue::next_fit`'s `(free, spare, window)`, with `free` nodes
/// free and the delta profile as `earliest_fit` reads it. A job starts now
/// only if its width is at most `free` and availability stays at least its
/// width over `[now, now + max(walltime, 1))`. Say availability first drops
/// below `free` at breakpoint `t₁`, to `a₁`: a walltime within `t₁ − now`
/// needs no more than `free`, a longer window contains `t₁` and needs
/// width ≤ `a₁`. No window contains a breakpoint at `u64::MAX` (they end
/// there at the latest, exclusive), so a drop there is no drop; with none,
/// width ≤ `free` is the whole bound.
pub(crate) fn start_bound(
    profile: &[(u64, i64)],
    free: usize,
    now: u64,
) -> (usize, usize, Option<u64>) {
    let base = i64_of_usize(free);
    let split = profile.partition_point(|&(t, _)| t <= now);
    let mut avail = base + profile[..split].iter().map(|&(_, d)| d).sum::<i64>();
    for &(p, d) in &profile[split..] {
        avail += d;
        if avail < base && p < u64::MAX {
            let spare = usize::try_from(avail).unwrap_or(0);
            return (free, spare, Some(p - now));
        }
    }
    (free, free, None)
}

/// Add `d` to the profile at instant `t`, merging with an entry already
/// there.
pub(crate) fn add_delta(profile: &mut Vec<(u64, i64)>, t: u64, d: i64) {
    match profile.binary_search_by_key(&t, |&(k, _)| k) {
        Ok(at) => profile[at].1 += d,
        Err(at) => profile.insert(at, (t, d)),
    }
}

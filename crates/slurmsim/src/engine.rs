//! The discrete-event scheduling core: queue, backfill, Eq. 7 feedback.

use crate::queue::PendingQueue;
use commsched_collectives::CollectiveSpec;
use commsched_core::{
    AdaptiveSelector, AllocRequest, ClusterState, CostModel, DefaultTreeSelector, JobId, JobNature,
    NodeSelector, PlacementEvaluator, SaBudget, SaSelector, SaStats, SelectorKind,
};
use commsched_metrics::{CounterId, Registry};
use commsched_num::{
    f64_of_u64, f64_of_usize, i64_of_usize, u32_of_usize, u64_of_f64, u64_of_usize, usize_of_u32,
    usize_of_u64,
};
use commsched_topology::NodeId;
use commsched_topology::{SwitchId, Tree};
use commsched_trace::{EndStatus, EventKind as TK, FaultClass, NullRecorder, Recorder, Tracer};
use commsched_workload::fault::{FaultDomain, FaultKind, FaultTrace};
use commsched_workload::{Job, JobLog};
use serde::{Deserialize, Serialize};
use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap};
use std::fmt;
use std::ops::Bound;
use std::sync::{Arc, Mutex};

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
    /// Off by default: the paper's emulation replays full durations.
    pub enforce_walltime: bool,
    /// What happens to a job killed by a node failure.
    pub failure_policy: FailurePolicy,
    /// What happens to a job wider than the machine.
    pub oversized: OversizedPolicy,
    /// Annealing budget for `--selector sa`; ignored by every other
    /// selector. `max_evals == 0` makes SA return the adaptive incumbent
    /// bit-for-bit.
    pub sa_budget: SaBudget,
    /// Run seed the SA selector derives its per-(job, attempt) search
    /// seeds from.
    pub sa_seed: u64,
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
            sa_budget: SaBudget::default(),
            sa_seed: 0,
        }
    }

    /// Configure the simulated-annealing selector's budget and run seed
    /// (only meaningful with [`SelectorKind::Sa`]).
    pub fn with_sa(mut self, budget: SaBudget, seed: u64) -> Self {
        self.sa_budget = budget;
        self.sa_seed = seed;
        self
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

    /// Kill jobs at their requested walltime, like a production SLURM.
    /// Off by default: the paper's emulation replays full durations.
    pub fn with_walltime_enforcement(mut self) -> Self {
        self.enforce_walltime = true;
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
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize, Default)]
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
    /// The machine has no nodes at all.
    EmptyMachine,
    /// A drain list or fault trace names a node outside the machine.
    NodeOutOfRange {
        /// Offending node ordinal.
        node: usize,
        /// Machine size.
        machine: usize,
    },
    /// The fault trace failed validation.
    InvalidFaultTrace(String),
    /// An internal bookkeeping invariant broke mid-run (e.g. a release or
    /// node-down transition that the cluster state rejected). Surfaced as
    /// an error instead of a panic so a sweep over many configurations
    /// reports the bad run and keeps going.
    StateInconsistency(String),
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
            Self::EmptyMachine => write!(f, "the machine has no nodes"),
            Self::NodeOutOfRange { node, machine } => write!(
                f,
                "node {node} is out of range for a machine of {machine} nodes"
            ),
            Self::InvalidFaultTrace(msg) => write!(f, "invalid fault trace: {msg}"),
            Self::StateInconsistency(msg) => {
                write!(f, "internal state inconsistency: {msg}")
            }
        }
    }
}

impl std::error::Error for EngineError {}

/// Everything recorded about one completed job.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
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
    pub fn node_hours(&self) -> f64 {
        f64_of_usize(self.nodes) * f64_of_u64(self.exec()) / 3600.0
    }
}

/// One event of a run's reconstructed schedule trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct TraceEvent {
    /// Virtual second the event occurred.
    pub t: u64,
    /// `true` for a job start, `false` for a finish.
    pub start: bool,
    /// The job.
    pub job: JobId,
    /// Nodes held.
    pub nodes: usize,
}

/// Results of a whole run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunSummary {
    /// Selector that produced this run.
    pub selector: String,
    /// Per-job records, in completion order.
    pub outcomes: Vec<JobOutcome>,
    /// Virtual time the last job completed.
    pub makespan: u64,
}

impl RunSummary {
    /// Total execution hours over all jobs (Table 3's "Execution Time").
    pub fn total_exec_hours(&self) -> f64 {
        self.outcomes
            .iter()
            .map(|o| f64_of_u64(o.exec()))
            .sum::<f64>()
            / 3600.0
    }

    /// Total wait hours over all jobs (Table 3's "Wait Time").
    pub fn total_wait_hours(&self) -> f64 {
        self.outcomes
            .iter()
            .map(|o| f64_of_u64(o.wait()))
            .sum::<f64>()
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
        self.outcomes.iter().map(|o| o.cost_actual).sum()
    }

    /// Jobs completed per hour of makespan (the throughput the paper
    /// reports in §6.5).
    pub fn throughput(&self) -> f64 {
        if self.makespan == 0 {
            return 0.0;
        }
        f64_of_usize(self.outcomes.len()) / (f64_of_u64(self.makespan) / 3600.0)
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
            .sum::<f64>()
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

    /// Peak utilization over a 100-bucket timeline.
    pub fn peak_utilization(&self, machine_nodes: usize) -> f64 {
        self.utilization(machine_nodes, 100)
            .into_iter()
            .map(|(_, u)| u)
            .fold(0.0, f64::max)
    }

    /// The run's schedule as a chronological event trace (starts before
    /// finishes at the same instant, then by job id — a total order, so
    /// traces diff cleanly between runs).
    pub fn events(&self) -> Vec<TraceEvent> {
        let mut ev = Vec::with_capacity(self.outcomes.len() * 2);
        for o in &self.outcomes {
            ev.push(TraceEvent {
                t: o.start,
                start: true,
                job: o.id,
                nodes: o.nodes,
            });
            ev.push(TraceEvent {
                t: o.end,
                start: false,
                job: o.id,
                nodes: o.nodes,
            });
        }
        ev.sort_by_key(|e| (e.t, !e.start, e.job));
        ev
    }

    /// The event trace as JSON lines (one event per line), for external
    /// plotting/diffing tools.
    pub fn to_json_lines(&self) -> String {
        self.events()
            .iter()
            .map(|e| {
                format!(
                    "{{\"t\":{},\"event\":\"{}\",\"job\":{},\"nodes\":{}}}",
                    e.t,
                    if e.start { "start" } else { "finish" },
                    e.job.0,
                    e.nodes
                )
            })
            .collect::<Vec<_>>()
            .join("\n")
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

/// Result of placing one job: its nodes and Eq. 6/Eq. 7 numbers.
#[derive(Debug, Clone)]
pub(crate) struct Placed {
    /// Chosen nodes.
    pub nodes: Vec<commsched_topology::NodeId>,
    /// Reported Eq. 6 cost of the chosen allocation.
    pub cost_actual: f64,
    /// Reported Eq. 6 cost of the default allocation from the same state.
    pub cost_default: f64,
    /// Eq. 7-adjusted runtime, seconds.
    pub adjusted: u64,
    /// The applied communication-time multiplier.
    pub comm_ratio: f64,
}

/// Virtual seconds → trace microseconds. Saturating: overflowing u64
/// microseconds would need a ~584-millennium virtual run, but the hardened
/// CI profile checks overflow, so the conversion must be total.
fn us(t: u64) -> u64 {
    t.saturating_mul(1_000_000)
}

/// The observation bundle threaded through a run: the event tracer plus
/// the registry counters the engine bumps as it goes. With the default
/// [`NullRecorder`] every emit site reduces to one masked-bit test and
/// every counter bump to a `Vec` index — cheap enough to leave in the
/// hot path unconditionally.
struct Obs<'a, 'r> {
    tr: Tracer<'r>,
    reg: &'a mut Registry,
    c_submitted: CounterId,
    c_started: CounterId,
    c_backfilled: CounterId,
    c_completed: CounterId,
    c_cancelled: CounterId,
    c_rejected: CounterId,
    c_requeued: CounterId,
    c_faults: CounterId,
    c_passes: CounterId,
}

impl<'a, 'r> Obs<'a, 'r> {
    fn new(reg: &'a mut Registry, tr: Tracer<'r>) -> Self {
        // Register every counter up front so a run report always carries
        // the full set, zeros included.
        let c_submitted = reg.counter("jobs.submitted");
        let c_started = reg.counter("jobs.started");
        let c_backfilled = reg.counter("jobs.backfilled");
        let c_completed = reg.counter("jobs.completed");
        let c_cancelled = reg.counter("jobs.cancelled");
        let c_rejected = reg.counter("jobs.rejected");
        let c_requeued = reg.counter("jobs.requeued");
        let c_faults = reg.counter("faults.applied");
        let c_passes = reg.counter("sched.passes");
        Obs {
            tr,
            reg,
            c_submitted,
            c_started,
            c_backfilled,
            c_completed,
            c_cancelled,
            c_rejected,
            c_requeued,
            c_faults,
            c_passes,
        }
    }

    /// Emit the place/start pair for the outcome a successful
    /// `start_job` just pushed.
    fn note_start(&mut self, now: u64, o: &JobOutcome, attempt: u32, backfilled: bool) {
        self.tr.emit(
            us(now),
            TK::JobPlace {
                job: o.id.0,
                attempt,
                nodes: u64_of_usize(o.nodes),
                cost_actual: o.cost_actual,
                cost_default: o.cost_default,
            },
        );
        self.tr.emit(
            us(now),
            TK::JobStart {
                job: o.id.0,
                attempt,
                nodes: u64_of_usize(o.nodes),
                backfilled,
            },
        );
        self.reg.inc(self.c_started, 1);
        if backfilled {
            self.reg.inc(self.c_backfilled, 1);
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
    /// Fused what-if evaluator shared between placement (Eqs. 6–7) and the
    /// adaptive selector, so candidate comparison warms the hop memo the
    /// Eq. 7 evaluation then reuses.
    eval: Arc<Mutex<PlacementEvaluator>>,
    /// Statistics of the SA selector's last search, shared with the
    /// selector built by [`Engine::build_selector`]; `place` clears it and
    /// the scheduler drains it into the `sa_search` trace event. Always
    /// `None` under any other selector.
    sa_stats: Arc<Mutex<Option<SaStats>>>,
}

impl<'t> Engine<'t> {
    /// An engine over `tree` with `cfg`.
    pub fn new(tree: &'t Tree, cfg: EngineConfig) -> Self {
        Engine {
            tree,
            cfg,
            drained: Vec::new(),
            faults: FaultTrace::empty(),
            eval: Arc::new(Mutex::new(PlacementEvaluator::new())),
            sa_stats: Arc::new(Mutex::new(None)),
        }
    }

    /// Inject a fault trace: its `Fail`/`Recover`/`Drain` events fire at
    /// their virtual times during [`Engine::run`].
    pub fn with_faults(mut self, faults: FaultTrace) -> Self {
        self.faults = faults;
        self
    }

    /// Build the configured selector. The adaptive and SA selectors share
    /// this engine's evaluator (see the `eval` field); the others are
    /// stateless. SA additionally routes its search statistics through
    /// the engine's `sa_stats` handle for trace emission.
    pub(crate) fn build_selector(&self) -> Box<dyn NodeSelector> {
        match self.cfg.selector {
            SelectorKind::Adaptive => Box::new(AdaptiveSelector::with_evaluator(
                CostModel::HOP_BYTES,
                Arc::clone(&self.eval),
            )),
            SelectorKind::Sa => Box::new(
                SaSelector::with_evaluator(
                    CostModel::HOP_BYTES,
                    self.cfg.sa_budget,
                    self.cfg.sa_seed,
                    Arc::clone(&self.eval),
                )
                .share_stats(Arc::clone(&self.sa_stats)),
            ),
            k => k.build(),
        }
    }

    /// Mark nodes as drained for the whole run: they are never allocated
    /// and reduce the machine's capacity. Duplicates are ignored.
    pub fn drain_nodes(mut self, nodes: Vec<commsched_topology::NodeId>) -> Self {
        self.drained = nodes;
        self.drained.sort_unstable();
        self.drained.dedup();
        self
    }

    /// Place one job in `state` (without recording it) and work out its
    /// Eq. 7 numbers. Returns `(nodes, cost_actual, cost_default,
    /// adjusted_runtime)`.
    ///
    /// Shared by the continuous engine and the individual-runs driver so
    /// both apply identical semantics.
    /// Slowest capacity factor over the links an allocation's in-tree
    /// routes traverse: node up/down links plus every switch up/down pair
    /// between each node's leaf and the allocation's LCA. `links` is the
    /// per-directed-link factor table (empty = no degradation anywhere,
    /// the failure-free fast path).
    fn min_link_factor(&self, links: &[f64], nodes: &[NodeId]) -> f64 {
        if links.is_empty() || nodes.len() <= 1 {
            return 1.0;
        }
        let mut lca = self.tree.leaf_of(nodes[0]);
        for &n in &nodes[1..] {
            lca = self.tree.lca_switch(lca, self.tree.leaf_of(n));
        }
        let mut factor = 1.0f64;
        for &n in nodes {
            factor = factor.min(links[self.tree.node_uplink(n)]);
            factor = factor.min(links[self.tree.node_downlink(n)]);
            let mut s = self.tree.leaf_of(n);
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

    pub(crate) fn place(
        &self,
        state: &ClusterState,
        job: &Job,
        selector: &dyn NodeSelector,
        links: &[f64],
        attempt: u32,
    ) -> Option<Placed> {
        if self.cfg.selector == SelectorKind::Sa {
            // Fresh slot per placement, so a declined placement can never
            // leave stale search statistics for the next job's events.
            if let Ok(mut s) = self.sa_stats.lock() {
                *s = None;
            }
        }
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
        let nodes = selector.select(self.tree, state, &req).ok()?;

        if !job.nature.is_comm() || job.comm.is_empty() {
            return Some(Placed {
                nodes,
                cost_actual: 0.0,
                cost_default: 0.0,
                adjusted: job.runtime,
                comm_ratio: 1.0,
            });
        }

        // The Eq. 7 denominator: what the default selector would have done
        // from this same state. Under the default selector that is the
        // chosen allocation itself (`None`).
        let default_nodes = if self.cfg.selector == SelectorKind::Default {
            None
        } else {
            // The default selector succeeds whenever another selector
            // does; if that invariant ever broke, declining the placement
            // (None) is strictly safer than crashing the run.
            Some(DefaultTreeSelector.select(self.tree, state, &req).ok()?)
        };

        // Evaluate Eq. 6 under both models for every collective component
        // of an allocation, through the shared fused evaluator — no clone
        // of the cluster state; the job's own L_comm contribution is an
        // overlay inside the evaluator (the paper's worked example counts
        // the job's own nodes). With matching trunk discounts (the default:
        // both models use the paper's ½) one traversal per component yields
        // both the reported cost and the Eq. 7 term.
        let fused = self.cfg.cost_model.trunk_discount == self.cfg.ratio_model.trunk_discount;
        let specs: Vec<CollectiveSpec> = job
            .comm
            .iter()
            .map(|&(pattern, _)| CollectiveSpec::new(pattern, self.cfg.msize))
            .collect();
        let eval_all = |ev: &mut PlacementEvaluator,
                        alloc: &[commsched_topology::NodeId]|
         -> Vec<(f64, f64)> {
            if fused {
                specs
                    .iter()
                    .map(|spec| {
                        let t = ev.evaluate(
                            self.tree,
                            state,
                            self.cfg.cost_model.trunk_discount,
                            alloc,
                            spec,
                        );
                        (
                            t.for_model(&self.cfg.cost_model),
                            t.for_model(&self.cfg.ratio_model),
                        )
                    })
                    .collect()
            } else {
                // Distinct discounts: two grouped passes, so each
                // discount's hop memo still serves all the components.
                let reported: Vec<f64> = specs
                    .iter()
                    .map(|spec| {
                        ev.evaluate(
                            self.tree,
                            state,
                            self.cfg.cost_model.trunk_discount,
                            alloc,
                            spec,
                        )
                        .for_model(&self.cfg.cost_model)
                    })
                    .collect();
                let ratios: Vec<f64> = specs
                    .iter()
                    .map(|spec| {
                        ev.evaluate(
                            self.tree,
                            state,
                            self.cfg.ratio_model.trunk_discount,
                            alloc,
                            spec,
                        )
                        .for_model(&self.cfg.ratio_model)
                    })
                    .collect();
                reported.into_iter().zip(ratios).collect()
            }
        };
        // Lock order: always after selector.select() has returned (the
        // adaptive selector takes the same lock inside select()).
        // detlint: allow(P1) — a poisoned mutex means another thread already
        // panicked mid-evaluation; propagating is the only sound response.
        let mut ev = self.eval.lock().expect("evaluator mutex poisoned");
        let actual = eval_all(&mut ev, &nodes);
        let default = default_nodes.map(|d| eval_all(&mut ev, &d));
        drop(ev);
        // Same allocation, same evaluation: reuse it instead of repeating it.
        let default = default.as_ref().unwrap_or(&actual);

        let mut cost_actual = 0.0;
        let mut cost_default = 0.0;
        let mut comm_adj = 0.0;
        let comm_orig = f64_of_u64(job.runtime) * job.comm_fraction();
        let mut adjusted = f64_of_u64(job.runtime) * (1.0 - job.comm_fraction());
        // Degraded links on the allocation's routes stretch the
        // communication fraction by the slowest link's inverse capacity
        // factor; 1.0 on a healthy fabric leaves the arithmetic
        // bit-identical to the no-fault path.
        let link_factor = self.min_link_factor(links, &nodes);
        for (i, &(_, fraction)) in job.comm.iter().enumerate() {
            // Reported cost: Eq. 6 as printed (raw hops by default).
            cost_actual += actual[i].0;
            cost_default += default[i].0;
            // Runtime ratio: hop-bytes by default (§5.3).
            let (ca, cd) = (actual[i].1, default[i].1);
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
            nodes,
            cost_actual,
            cost_default,
            adjusted: u64_of_f64(adjusted.round().max(1.0)),
            comm_ratio,
        })
    }

    /// Validate the log, drain list and fault trace against the machine.
    fn validate(&self, log: &JobLog) -> Result<(), EngineError> {
        let machine = self.tree.num_nodes();
        if machine == 0 {
            return Err(EngineError::EmptyMachine);
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
        let capacity = machine - self.drained.len();
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

    /// The outcome recorded for a job that never ran.
    fn rejected_outcome(job: &Job, retries: u32, lost: u64) -> JobOutcome {
        JobOutcome {
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
            retries,
            lost_node_seconds: lost,
        }
    }

    /// Continuous run: replay the whole log (§5.4), interleaving any
    /// injected fault events.
    pub fn run(&self, log: &JobLog) -> Result<RunSummary, EngineError> {
        // The unobserved run is the observed run with the zero-cost null
        // sink — byte-identical results by construction.
        self.run_observed(log, &mut NullRecorder, &mut Registry::new())
    }

    /// [`Engine::run`] with observability: every job lifecycle transition
    /// is emitted to `recorder` as a virtual-time [`commsched_trace::Event`]
    /// and run counters/distributions accumulate in `registry` (snapshot it
    /// afterwards for a machine-readable report). Events derive only from
    /// virtual time and seeded state, so the trace is byte-identical across
    /// repeat runs and thread counts.
    pub fn run_observed(
        &self,
        log: &JobLog,
        recorder: &mut dyn Recorder,
        registry: &mut Registry,
    ) -> Result<RunSummary, EngineError> {
        // The run's cluster state is leased from a per-thread scratch
        // cache: sweeps replay thousands of logs, and re-allocating the
        // per-node vectors for each would dominate steady-state cost.
        crate::scratch::with_state(self.tree, |state| {
            self.run_observed_on(state, log, recorder, registry)
        })
    }

    fn run_observed_on(
        &self,
        state: &mut ClusterState,
        log: &JobLog,
        recorder: &mut dyn Recorder,
        registry: &mut Registry,
    ) -> Result<RunSummary, EngineError> {
        let mut obs = Obs::new(registry, Tracer::new(recorder));
        self.validate(log)?;
        let capacity = self.tree.num_nodes() - self.drained.len();
        let selector = self.build_selector();
        for &n in &self.drained {
            // A freshly-built state has every node up and free, so a
            // whole-run drain goes straight to Down.
            state
                .set_down(self.tree, n)
                .map_err(|e| EngineError::StateInconsistency(format!("draining {n:?}: {e}")))?;
        }
        let mut events: BinaryHeap<Reverse<(u64, EventKind)>> = BinaryHeap::new();
        for (i, j) in log.jobs.iter().enumerate() {
            events.push(Reverse((j.submit, EventKind::Submit(i))));
        }
        for (k, e) in self.faults.events().iter().enumerate() {
            events.push(Reverse((e.t, EventKind::Fault(u32_of_usize(k)))));
        }

        // FIFO queue of log indices, indexed by the width of each request.
        let mut pending = PendingQueue::default();
        // Running jobs: (expected_end_by_walltime, log idx, attempt).
        let mut running: Vec<(u64, usize, u32)> = Vec::new();
        let mut outcomes: Vec<JobOutcome> = Vec::new();
        // Per-job requeue count and destroyed node-seconds, accumulated
        // across attempts; the counts at start time double as the attempt
        // number that pairs a Finish event with its running entry.
        let mut retries: Vec<u32> = vec![0; log.jobs.len()];
        let mut lost: Vec<u64> = vec![0; log.jobs.len()];
        let mut makespan = 0u64;
        // Per-directed-link capacity factors, alive only when the fault
        // trace degrades links — failure-free runs never allocate or scan
        // this, keeping their placement arithmetic untouched.
        let mut link_factors: Vec<f64> = if self.faults.has_domain(FaultDomain::Link) {
            vec![1.0; self.tree.num_directed_links()]
        } else {
            Vec::new()
        };

        while let Some(Reverse((now, _))) = events.peek().copied() {
            // Drain all events at `now` (finishes first, then faults, then
            // submits, via enum ordering).
            while let Some(Reverse((t, ev))) = events.peek().copied() {
                if t != now {
                    break;
                }
                events.pop();
                match ev {
                    EventKind::Finish(id, att) => {
                        let live = running
                            .iter()
                            .any(|&(_, i, a)| log.jobs[i].id == id && a == att);
                        if !live {
                            // Stale finish of an attempt killed by a fault.
                            continue;
                        }
                        state.release(self.tree, id).map_err(|e| {
                            EngineError::StateInconsistency(format!("releasing {id}: {e}"))
                        })?;
                        running.retain(|&(_, i, a)| log.jobs[i].id != id || a != att);
                        obs.tr.emit(
                            us(now),
                            TK::JobFinish {
                                job: id.0,
                                attempt: att,
                                status: EndStatus::Completed,
                            },
                        );
                        obs.reg.inc(obs.c_completed, 1);
                    }
                    EventKind::Fault(k) => self.apply_fault(
                        usize_of_u32(k),
                        now,
                        log,
                        &mut *state,
                        &mut pending,
                        &mut running,
                        &mut events,
                        &mut outcomes,
                        &mut retries,
                        &mut lost,
                        &mut link_factors,
                        &mut obs,
                    )?,
                    EventKind::Submit(i) => {
                        let job = &log.jobs[i];
                        if retries[i] == 0 {
                            // First entry; requeue re-submissions skip this.
                            obs.tr.emit(
                                us(now),
                                TK::JobSubmit {
                                    job: job.id.0,
                                    nodes: u64_of_usize(job.nodes),
                                },
                            );
                            obs.reg.inc(obs.c_submitted, 1);
                        }
                        if job.nodes > capacity {
                            // Only reachable under OversizedPolicy::Reject —
                            // Abort already returned from validate().
                            outcomes.push(Self::rejected_outcome(job, 0, 0));
                            obs.tr.emit(us(now), TK::JobReject { job: job.id.0 });
                            obs.reg.inc(obs.c_rejected, 1);
                        } else {
                            pending.push_back(i, job.nodes);
                            obs.tr.emit(
                                us(now),
                                TK::JobEligible {
                                    job: job.id.0,
                                    attempt: retries[i],
                                },
                            );
                        }
                    }
                }
            }

            // Scheduling pass.
            self.schedule_pass(
                now,
                log,
                selector.as_ref(),
                &mut *state,
                &mut pending,
                &mut running,
                &mut events,
                &mut outcomes,
                &retries,
                &lost,
                &link_factors,
                &mut obs,
            )?;
            makespan = makespan.max(now);
        }

        // Jobs still queued when the event stream runs dry can never start
        // (wider than the surviving capacity, or FIFO-stuck behind one that
        // is): record them as rejected instead of looping or losing them.
        // Unreachable without faults — validate() guarantees every job fits
        // the full machine, so a failure-free queue always drains.
        for (_, i) in pending.iter() {
            outcomes.push(Self::rejected_outcome(&log.jobs[i], retries[i], lost[i]));
            obs.tr.emit(
                us(makespan),
                TK::JobReject {
                    job: log.jobs[i].id.0,
                },
            );
            obs.reg.inc(obs.c_rejected, 1);
        }
        debug_assert!(running.is_empty(), "jobs left running");
        debug_assert_eq!(outcomes.len(), log.jobs.len());
        let makespan = outcomes.iter().map(|o| o.end).max().unwrap_or(makespan);

        // End-of-run distributions and totals, in outcome (completion)
        // order — a pure function of the outcomes, so reports stay
        // deterministic.
        let h_wait = obs.reg.hist("job.wait_s");
        let h_exec = obs.reg.hist("job.exec_s");
        let mut lost_total = 0u64;
        for o in &outcomes {
            if o.status == JobStatus::Completed {
                obs.reg.observe(h_wait, f64_of_u64(o.wait()));
                obs.reg.observe(h_exec, f64_of_u64(o.exec()));
            }
            lost_total = lost_total.saturating_add(o.lost_node_seconds);
        }
        let g_makespan = obs.reg.gauge("makespan_s");
        obs.reg.set(g_makespan, f64_of_u64(makespan));
        let g_lost = obs.reg.gauge("lost_node_seconds");
        obs.reg.set(g_lost, f64_of_u64(lost_total));

        Ok(RunSummary {
            selector: self.cfg.selector.name().to_string(),
            outcomes,
            makespan,
        })
    }

    /// Apply one fault-trace event at `now`: kill the victim job (per the
    /// configured [`FailurePolicy`]) and transition the node's lifecycle
    /// state. Lenient on redundant transitions (failing a down node,
    /// recovering an up node): explicit traces need not be minimal.
    #[allow(clippy::too_many_arguments)]
    fn apply_fault(
        &self,
        k: usize,
        now: u64,
        log: &JobLog,
        state: &mut ClusterState,
        pending: &mut PendingQueue,
        running: &mut Vec<(u64, usize, u32)>,
        events: &mut BinaryHeap<Reverse<(u64, EventKind)>>,
        outcomes: &mut Vec<JobOutcome>,
        retries: &mut [u32],
        lost: &mut [u64],
        link_factors: &mut [f64],
        obs: &mut Obs<'_, '_>,
    ) -> Result<(), EngineError> {
        use commsched_core::NodeHealth;

        let e = self.faults.events()[k];
        obs.reg.inc(obs.c_faults, 1);
        match e.kind {
            FaultKind::Fail => {
                let n = NodeId(e.node);
                obs.tr.emit(
                    us(now),
                    TK::Fault {
                        node: u64_of_usize(e.node),
                        kind: FaultClass::Fail,
                    },
                );
                if let Some(victim) = state.job_on(n) {
                    self.kill_victim(
                        victim, now, log, state, pending, running, events, outcomes, retries, lost,
                        obs,
                    )?;
                }
                // The kill freed the node — unless it was draining, in
                // which case release already completed the drain to Down.
                if state.health(n) != NodeHealth::Down {
                    state.set_down(self.tree, n).map_err(|e| {
                        EngineError::StateInconsistency(format!("failing node {n:?}: {e}"))
                    })?;
                }
            }
            FaultKind::Recover => {
                let n = NodeId(e.node);
                obs.tr.emit(
                    us(now),
                    TK::Fault {
                        node: u64_of_usize(e.node),
                        kind: FaultClass::Recover,
                    },
                );
                if state.health(n) != NodeHealth::Up {
                    state.set_up(self.tree, n).map_err(|e| {
                        EngineError::StateInconsistency(format!("recovering node {n:?}: {e}"))
                    })?;
                }
            }
            FaultKind::Drain => {
                let n = NodeId(e.node);
                obs.tr.emit(
                    us(now),
                    TK::Fault {
                        node: u64_of_usize(e.node),
                        kind: FaultClass::Drain,
                    },
                );
                if state.health(n) != NodeHealth::Down {
                    state.set_draining(self.tree, n).map_err(|e| {
                        EngineError::StateInconsistency(format!("draining node {n:?}: {e}"))
                    })?;
                }
            }
            FaultKind::SwitchDown => {
                let s = SwitchId(e.node);
                let already = state.switch_is_down(s);
                // Victim set first (in JobId order, off the deterministic
                // allocation map), so the blast radius is on the trace
                // event before the individual kill records.
                let victims: Vec<JobId> = if already {
                    Vec::new()
                } else {
                    let under: std::collections::BTreeSet<usize> =
                        self.tree.leaf_ordinals_under(s).iter().copied().collect();
                    state
                        .allocations()
                        .filter(|(_, a)| {
                            a.nodes
                                .iter()
                                .any(|&n| under.contains(&self.tree.leaf_ordinal_of(n)))
                        })
                        .map(|(j, _)| j)
                        .collect()
                };
                obs.tr.emit(
                    us(now),
                    TK::SwitchFault {
                        switch: u64_of_usize(e.node),
                        kind: FaultClass::Fail,
                        victims: u64_of_usize(victims.len()),
                        nodes: u64_of_usize(self.tree.subtree_nodes(s)),
                    },
                );
                // Registered lazily: failure-free (and switch-free) runs
                // keep their report byte layout.
                let c = obs.reg.counter("faults.switch.applied");
                obs.reg.inc(c, 1);
                if !victims.is_empty() {
                    let c = obs.reg.counter("faults.switch.victims");
                    obs.reg.inc(c, u64_of_usize(victims.len()));
                }
                for victim in victims {
                    self.kill_victim(
                        victim, now, log, state, pending, running, events, outcomes, retries, lost,
                        obs,
                    )?;
                }
                if !already {
                    state.set_switch_down(self.tree, s).map_err(|e| {
                        EngineError::StateInconsistency(format!("failing switch {s:?}: {e}"))
                    })?;
                }
            }
            FaultKind::SwitchUp => {
                let s = SwitchId(e.node);
                obs.tr.emit(
                    us(now),
                    TK::SwitchFault {
                        switch: u64_of_usize(e.node),
                        kind: FaultClass::Recover,
                        victims: 0,
                        nodes: u64_of_usize(self.tree.subtree_nodes(s)),
                    },
                );
                let c = obs.reg.counter("faults.switch.applied");
                obs.reg.inc(c, 1);
                if state.switch_is_down(s) {
                    state.set_switch_up(self.tree, s).map_err(|e| {
                        EngineError::StateInconsistency(format!("recovering switch {s:?}: {e}"))
                    })?;
                }
            }
            FaultKind::LinkDegrade { permille } => {
                obs.tr.emit(
                    us(now),
                    TK::LinkFault {
                        link: u64_of_usize(e.node),
                        capacity_permille: u64::from(permille),
                    },
                );
                let c = obs.reg.counter("faults.link.applied");
                obs.reg.inc(c, 1);
                if let Some(f) = link_factors.get_mut(e.node) {
                    *f = f64::from(permille) / 1000.0;
                }
            }
            FaultKind::LinkRestore => {
                obs.tr.emit(
                    us(now),
                    TK::LinkFault {
                        link: u64_of_usize(e.node),
                        capacity_permille: 1000,
                    },
                );
                let c = obs.reg.counter("faults.link.applied");
                obs.reg.inc(c, 1);
                if let Some(f) = link_factors.get_mut(e.node) {
                    *f = 1.0;
                }
            }
        }
        Ok(())
    }

    /// Kill one running job for a fault at `now`: release its nodes,
    /// account the destroyed node-seconds, and cancel or requeue it per
    /// the configured [`FailurePolicy`]. Shared by node `Fail` and the
    /// subtree kills of `SwitchDown`.
    #[allow(clippy::too_many_arguments)]
    fn kill_victim(
        &self,
        victim: JobId,
        now: u64,
        log: &JobLog,
        state: &mut ClusterState,
        pending: &mut PendingQueue,
        running: &mut Vec<(u64, usize, u32)>,
        events: &mut BinaryHeap<Reverse<(u64, EventKind)>>,
        outcomes: &mut Vec<JobOutcome>,
        retries: &mut [u32],
        lost: &mut [u64],
        obs: &mut Obs<'_, '_>,
    ) -> Result<(), EngineError> {
        let pos = running
            .iter()
            .position(|&(_, i, _)| log.jobs[i].id == victim);
        debug_assert!(pos.is_some(), "allocated job must be running");
        let Some(pos) = pos else {
            return Ok(());
        };
        let (_, i, _) = running[pos];
        running.remove(pos);
        let alloc = state.release(self.tree, victim).map_err(|e| {
            EngineError::StateInconsistency(format!("releasing fault victim {victim}: {e}"))
        })?;
        let opos = outcomes
            .iter()
            .rposition(|o| o.id == victim)
            .ok_or_else(|| {
                EngineError::StateInconsistency(format!(
                    "running job {victim} has no outcome record"
                ))
            })?;
        let started = outcomes[opos].start;
        let wasted = (now - started) * u64_of_usize(alloc.nodes.len());
        lost[i] = lost[i].saturating_add(wasted);
        // None = cancel; Some(None) = requeue at the front;
        // Some(Some(backoff)) = requeue at the back.
        let requeue = match self.cfg.failure_policy {
            FailurePolicy::Cancel => None,
            FailurePolicy::Requeue {
                max_retries,
                backoff,
            } => (retries[i] < max_retries).then_some(Some(backoff)),
            FailurePolicy::RequeueFront => Some(None),
        };
        match requeue {
            None => {
                let o = &mut outcomes[opos];
                o.end = now;
                o.runtime_adjusted = now - started;
                o.status = JobStatus::Cancelled;
                o.retries = retries[i];
                o.lost_node_seconds = lost[i];
                obs.tr.emit(
                    us(now),
                    TK::JobFinish {
                        job: victim.0,
                        attempt: retries[i],
                        status: EndStatus::Cancelled,
                    },
                );
                obs.reg.inc(obs.c_cancelled, 1);
            }
            Some(None) => {
                obs.tr.emit(
                    us(now),
                    TK::JobRequeue {
                        job: victim.0,
                        attempt: retries[i],
                        resubmit_us: us(now),
                    },
                );
                obs.reg.inc(obs.c_requeued, 1);
                retries[i] += 1;
                outcomes.remove(opos);
                pending.push_front(i, log.jobs[i].nodes);
                obs.tr.emit(
                    us(now),
                    TK::JobEligible {
                        job: victim.0,
                        attempt: retries[i],
                    },
                );
            }
            Some(Some(backoff)) => {
                obs.tr.emit(
                    us(now),
                    TK::JobRequeue {
                        job: victim.0,
                        attempt: retries[i],
                        resubmit_us: us(now.saturating_add(backoff)),
                    },
                );
                obs.reg.inc(obs.c_requeued, 1);
                retries[i] += 1;
                outcomes.remove(opos);
                events.push(Reverse((now.saturating_add(backoff), EventKind::Submit(i))));
            }
        }
        Ok(())
    }

    /// Drain the SA selector's last search record (if one ran) into the
    /// `sa_search` trace event and the lazy SA counters. A no-op — and
    /// byte-neutral for traces and reports — under every other selector,
    /// and for budget-0/compute placements where no search runs.
    fn emit_sa(&self, now: u64, obs: &mut Obs<'_, '_>) {
        let Some(st) = self.sa_stats.lock().ok().and_then(|mut s| s.take()) else {
            return;
        };
        obs.tr.emit(
            us(now),
            TK::SaSearch {
                job: st.job.0,
                attempt: st.attempt,
                budget: u64::from(st.budget),
                evals: u64::from(st.evals),
                accepted: u64::from(st.accepted),
                rejected: u64::from(st.rejected),
                cost_incumbent: st.cost_incumbent,
                cost_final: st.cost_final,
            },
        );
        // Registered lazily, like the fault counters: non-SA runs keep
        // their report byte layout.
        let c = obs.reg.counter("sa.searches");
        obs.reg.inc(c, 1);
        let c = obs.reg.counter("sa.evals");
        obs.reg.inc(c, u64::from(st.evals));
        if st.cost_final < st.cost_incumbent {
            let c = obs.reg.counter("sa.improved");
            obs.reg.inc(c, 1);
        }
    }

    /// One pass of the scheduler: start the head while it fits, then EASY
    /// backfill behind its reservation.
    #[allow(clippy::too_many_arguments)]
    fn schedule_pass(
        &self,
        now: u64,
        log: &JobLog,
        selector: &dyn NodeSelector,
        state: &mut ClusterState,
        pending: &mut PendingQueue,
        running: &mut Vec<(u64, usize, u32)>,
        events: &mut BinaryHeap<Reverse<(u64, EventKind)>>,
        outcomes: &mut Vec<JobOutcome>,
        retries: &[u32],
        lost: &[u64],
        links: &[f64],
        obs: &mut Obs<'_, '_>,
    ) -> Result<(), EngineError> {
        obs.reg.inc(obs.c_passes, 1);
        let start_job = |i: usize,
                         state: &mut ClusterState,
                         running: &mut Vec<(u64, usize, u32)>,
                         events: &mut BinaryHeap<Reverse<(u64, EventKind)>>,
                         outcomes: &mut Vec<JobOutcome>|
         -> Result<bool, EngineError> {
            let job = &log.jobs[i];
            let Some(mut placed) = self.place(state, job, selector, links, retries[i]) else {
                return Ok(false);
            };
            if self.cfg.enforce_walltime {
                placed.adjusted = placed.adjusted.min(job.walltime);
            }
            state
                .allocate(self.tree, job.id, &placed.nodes, job.nature)
                .map_err(|e| {
                    EngineError::StateInconsistency(format!(
                        "allocating {} on selector-chosen nodes: {e}",
                        job.id
                    ))
                })?;
            let end = now.saturating_add(placed.adjusted);
            let wall_end = now.saturating_add(job.walltime.max(placed.adjusted));
            running.push((wall_end, i, retries[i]));
            events.push(Reverse((end, EventKind::Finish(job.id, retries[i]))));
            outcomes.push(JobOutcome {
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
                retries: retries[i],
                lost_node_seconds: lost[i],
            });
            Ok(true)
        };

        // Start head-of-queue jobs while they fit.
        while let Some((slot, head)) = pending.first() {
            if log.jobs[head].nodes <= state.free_total()
                && start_job(head, state, running, events, outcomes)?
            {
                pending.remove(slot);
                self.emit_sa(now, obs);
                if let Some(o) = outcomes.last() {
                    obs.note_start(now, o, retries[head], false);
                }
            } else {
                break;
            }
        }

        let Some((head_slot, head)) = pending.first() else {
            return Ok(());
        };
        if self.cfg.backfill == BackfillPolicy::None {
            return Ok(());
        }
        if self.cfg.backfill == BackfillPolicy::Conservative {
            return self.conservative_backfill_pass(
                now, log, state, pending, running, events, outcomes, retries, obs, &start_job,
            );
        }

        // EASY reservation for the head: find the shadow time when enough
        // nodes will be free (by requested walltimes), and the extra nodes
        // beyond the head's need at that moment.
        let need = log.jobs[head].nodes;
        let mut ends: Vec<(u64, usize)> = running
            .iter()
            .map(|&(wall_end, i, _)| (wall_end, log.jobs[i].nodes))
            .collect();
        ends.sort_unstable();
        let mut avail = state.free_total();
        let mut shadow = u64::MAX;
        for &(t, n) in &ends {
            avail += n;
            if avail >= need {
                shadow = t;
                break;
            }
        }
        let extra = avail.saturating_sub(need);

        // Backfill later jobs that cannot delay the head's reservation,
        // visiting only those that fit the nodes free right now — which
        // shrink as this loop starts jobs, so each lookup asks afresh.
        let mut from = head_slot + 1;
        while let Some((slot, i)) = pending.next_fit(from, state.free_total()) {
            from = slot + 1;
            let job = &log.jobs[i];
            let harmless = now.saturating_add(job.walltime) <= shadow || job.nodes <= extra;
            if harmless && start_job(i, state, running, events, outcomes)? {
                pending.remove(slot);
                self.emit_sa(now, obs);
                if let Some(o) = outcomes.last() {
                    obs.note_start(now, o, retries[i], true);
                }
            }
        }
        Ok(())
    }

    /// Conservative backfilling: build a future-availability profile from
    /// the running jobs' walltimes, give every queued job (in order) the
    /// earliest reservation that fits, and start only jobs whose
    /// reservation is *now*. Reservations are rebuilt from scratch on each
    /// pass, the standard implementation shape.
    #[allow(clippy::too_many_arguments)]
    fn conservative_backfill_pass<F>(
        &self,
        now: u64,
        log: &JobLog,
        state: &mut ClusterState,
        pending: &mut PendingQueue,
        running: &mut Vec<(u64, usize, u32)>,
        events: &mut BinaryHeap<Reverse<(u64, EventKind)>>,
        outcomes: &mut Vec<JobOutcome>,
        retries: &[u32],
        obs: &mut Obs<'_, '_>,
        start_job: &F,
    ) -> Result<(), EngineError>
    where
        F: Fn(
            usize,
            &mut ClusterState,
            &mut Vec<(u64, usize, u32)>,
            &mut BinaryHeap<Reverse<(u64, EventKind)>>,
            &mut Vec<JobOutcome>,
        ) -> Result<bool, EngineError>,
    {
        'restart: loop {
            // Availability deltas at future instants (all keys >= now).
            let mut deltas: BTreeMap<u64, i64> = BTreeMap::new();
            for &(wall_end, i, _) in running.iter() {
                *deltas.entry(wall_end.max(now)).or_insert(0) += i64_of_usize(log.jobs[i].nodes);
            }
            let base = i64_of_usize(state.free_total());

            let head = pending.first();
            let mut next = head;
            while let Some((slot, i)) = next {
                next = pending.after(slot);
                let job = &log.jobs[i];
                let need = i64_of_usize(job.nodes);
                let dur = job.walltime.max(1);
                let Some(s) = earliest_fit(&deltas, base, now, dur, need) else {
                    // With failed nodes the job may not fit even the fully
                    // drained future machine; it holds no reservation and
                    // waits for a recovery (or end-of-run rejection).
                    continue;
                };
                if s == now
                    && need <= i64_of_usize(state.free_total())
                    && start_job(i, state, running, events, outcomes)?
                {
                    pending.remove(slot);
                    self.emit_sa(now, obs);
                    if let Some(o) = outcomes.last() {
                        obs.note_start(now, o, retries[i], Some((slot, i)) != head);
                    }
                    // The profile base changed; rebuild and rescan.
                    continue 'restart;
                }
                // Reserve [s, s + dur) for this job.
                *deltas.entry(s).or_insert(0) -= need;
                *deltas.entry(s.saturating_add(dur)).or_insert(0) += need;
            }
            break;
        }
        Ok(())
    }
}

/// Earliest `s >= now` at which `need` nodes stay available for `dur`
/// seconds under the delta profile. Candidate starts are `now` and every
/// profile breakpoint; availability after the last breakpoint is every
/// node not currently down, so on a healthy machine a fit always exists
/// for validated jobs — but a mid-run node failure can leave `need` out
/// of reach entirely, in which case there is no fit (`None`).
///
/// One forward sweep carrying the availability prefix. A breakpoint `p`
/// short of `need` rules out every candidate at or before it, not just the
/// current one: each of their windows contains `p`, whose availability does
/// not depend on where the window starts.
pub(crate) fn earliest_fit(
    deltas: &BTreeMap<u64, i64>,
    base: i64,
    now: u64,
    dur: u64,
    need: i64,
) -> Option<u64> {
    let mut avail = base + deltas.range(..=now).map(|(_, d)| *d).sum::<i64>();
    // The earliest start not yet ruled out, with the end of its window.
    let mut fit = (avail >= need).then_some((now, now.saturating_add(dur)));
    for (&p, d) in deltas.range((Bound::Excluded(now), Bound::Unbounded)) {
        if let Some((s, end)) = fit {
            if p >= end {
                return Some(s);
            }
        }
        avail += d;
        if avail < need {
            fit = None;
        } else if fit.is_none() {
            fit = Some((p, p.saturating_add(dur)));
        }
    }
    fit.map(|(s, _)| s)
}

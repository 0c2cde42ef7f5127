//! Job, log and system-model types.

use commsched_collectives::Pattern;
use commsched_core::{JobId, JobNature};
use serde::Serialize;

/// One job, as the scheduler sees it at submission.
///
/// Times are integral seconds of virtual time, like SLURM accounting.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct Job {
    /// Stable id (SWF job number or generator index).
    pub id: JobId,
    /// Submission time, seconds from log start.
    pub submit: u64,
    /// Recorded execution time from the log — the job's duration when it
    /// runs under the conditions the log was captured under (the paper's
    /// emulation replays exactly this under the *default* allocator).
    pub runtime: u64,
    /// Requested wall-clock limit (>= runtime); used by backfilling.
    pub walltime: u64,
    /// Whole nodes requested.
    pub nodes: usize,
    /// Communication- or compute-intensive (assigned per §5.1).
    pub nature: JobNature,
    /// Communication components: `(pattern, fraction of runtime)` pairs.
    /// Empty for compute-intensive jobs; fractions sum to at most 1, the
    /// remainder being compute time. Experiment set D, for example, gives
    /// every communication-intensive job `[(RD, 0.15), (Binomial, 0.35)]`.
    pub comm: Vec<(Pattern, f64)>,
}

impl Job {
    /// Fraction of runtime spent communicating (0 for compute jobs).
    pub fn comm_fraction(&self) -> f64 {
        self.comm.iter().map(|(_, f)| f).sum()
    }

    /// Node-seconds consumed when the job runs for `runtime` seconds,
    /// saturating at `u64::MAX`.
    pub(crate) fn node_seconds(&self) -> u64 {
        self.runtime.saturating_mul(self.nodes as u64)
    }
}

/// A job log: an ordered sequence of jobs over one system.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct JobLog {
    /// Human-readable provenance ("theta-synthetic-seed42", file name, ...).
    pub name: String,
    /// Jobs sorted by submission time.
    pub jobs: Vec<Job>,
}

impl JobLog {
    /// Construct, sorting jobs by `(submit, id)`.
    pub fn new(name: impl Into<String>, mut jobs: Vec<Job>) -> Self {
        jobs.sort_by_key(|j| (j.submit, j.id));
        JobLog {
            name: name.into(),
            jobs,
        }
    }

    /// The span the fault generators cover for this log: twice its latest
    /// `submit + walltime`, at least 1 s, so requeued work that runs past
    /// the last submit still sees failures.
    pub fn fault_horizon(&self) -> u64 {
        self.jobs
            .iter()
            .map(|j| j.submit + j.walltime)
            .max()
            .unwrap_or(0)
            .saturating_mul(2)
            .max(1)
    }

    /// Largest node request in the log.
    pub fn max_nodes(&self) -> usize {
        self.jobs.iter().map(|j| j.nodes).max().unwrap_or(0)
    }

    /// Fraction of jobs with power-of-two node requests.
    pub fn pow2_fraction(&self) -> f64 {
        if self.jobs.is_empty() {
            return 0.0;
        }
        let n = self
            .jobs
            .iter()
            .filter(|j| j.nodes.is_power_of_two())
            .count();
        n as f64 / self.jobs.len() as f64
    }

    /// Fraction of communication-intensive jobs.
    pub fn comm_percent(&self) -> f64 {
        if self.jobs.is_empty() {
            return 0.0;
        }
        let n = self.jobs.iter().filter(|j| j.nature.is_comm()).count();
        100.0 * n as f64 / self.jobs.len() as f64
    }

    /// Node-seconds of recorded runtimes, saturating at `u64::MAX`.
    pub(crate) fn total_node_seconds(&self) -> u64 {
        self.jobs
            .iter()
            .fold(0, |sum, j| sum.saturating_add(j.node_seconds()))
    }

    /// Total node-hours of recorded runtimes.
    pub(crate) fn total_node_hours(&self) -> f64 {
        self.total_node_seconds() as f64 / 3600.0
    }
}

/// Statistical model of one of the paper's systems, driving the synthetic
/// generator. The constants reproduce the marginals stated in §5.1 plus
/// load levels that land the three logs in the paper's qualitatively
/// different queueing regimes (Intrepid lightly loaded, Theta saturated,
/// Mira in between — visible in Table 3's wait-time columns).
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct SystemModel {
    /// System name ("intrepid", "theta", "mira").
    pub name: &'static str,
    /// Compute nodes in the machine.
    pub total_nodes: usize,
    /// Smallest schedulable request (Blue Gene partition minimum etc.).
    pub min_request: usize,
    /// Largest request observed in the paper's log slice.
    pub max_request: usize,
    /// Fraction of jobs with power-of-two requests.
    pub pow2_fraction: f64,
    /// Mean of the exponential interarrival time, seconds.
    pub mean_interarrival: f64,
    /// Median runtime, seconds (lognormal body).
    pub runtime_median: f64,
    /// Lognormal sigma of runtimes.
    pub runtime_sigma: f64,
    /// Requested walltime = runtime * this slack, on average.
    pub walltime_slack: f64,
}

impl SystemModel {
    /// Intrepid: Blue Gene/P, 40k nodes; max request 40960; >=99% power of
    /// two; light queueing (Table 3 row 1 shows tiny wait times).
    pub fn intrepid() -> Self {
        SystemModel {
            name: "intrepid",
            total_nodes: 40960,
            min_request: 256,
            max_request: 40960,
            pow2_fraction: 0.995,
            mean_interarrival: 700.0,
            runtime_median: 3600.0,
            runtime_sigma: 1.0,
            walltime_slack: 1.8,
        }
    }

    /// Theta: 4392 nodes; max request 512; 90% power of two; saturated
    /// queue (Table 3 row 2 shows waits dwarfing execution).
    pub fn theta() -> Self {
        SystemModel {
            name: "theta",
            total_nodes: 4392,
            min_request: 128,
            max_request: 512,
            pow2_fraction: 0.90,
            mean_interarrival: 420.0,
            runtime_median: 7200.0,
            runtime_sigma: 1.1,
            walltime_slack: 1.6,
        }
    }

    /// Mira: Blue Gene/Q, 48k nodes; max request 16384; >=99% power of
    /// two; moderate queueing.
    pub fn mira() -> Self {
        SystemModel {
            name: "mira",
            total_nodes: 49152,
            min_request: 512,
            max_request: 16384,
            pow2_fraction: 0.995,
            mean_interarrival: 480.0,
            runtime_median: 7200.0,
            runtime_sigma: 1.0,
            walltime_slack: 1.7,
        }
    }
}

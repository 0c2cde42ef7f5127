//! Log profiling: the summary a site administrator (or a reviewer
//! checking our synthetic logs against the paper's marginals) wants.

use crate::model::JobLog;
use serde::Serialize;

/// Aggregate profile of a job log.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct LogProfile {
    /// Log name.
    pub name: String,
    /// Number of jobs.
    pub jobs: usize,
    /// Smallest / median / largest node request.
    pub nodes_min: usize,
    /// Median node request.
    pub nodes_median: usize,
    /// Largest node request.
    pub nodes_max: usize,
    /// Fraction of power-of-two requests.
    pub pow2_fraction: f64,
    /// Percentage of communication-intensive jobs.
    pub comm_percent: f64,
    /// Shortest / median / longest runtime (seconds).
    pub runtime_min: u64,
    /// Median runtime (seconds).
    pub runtime_median: u64,
    /// Longest runtime (seconds).
    pub runtime_max: u64,
    /// Mean interarrival gap (seconds).
    pub mean_interarrival: f64,
    /// Span from first submit to last submit (seconds).
    pub span: u64,
    /// Total node-hours of recorded runtimes.
    pub total_node_hours: f64,
    /// Offered load against a machine of `machine_nodes` nodes:
    /// `total node-seconds / (machine_nodes * span)`. >1 means the log
    /// oversubscribes the machine (queues must grow).
    pub offered_load: f64,
    /// Histogram of log2(node request), index = exponent.
    pub size_histogram: Vec<(usize, usize)>,
}

impl LogProfile {
    /// Profile `log` against a machine of `machine_nodes` nodes.
    pub fn new(log: &JobLog, machine_nodes: usize) -> Self {
        let n = log.jobs.len();
        let mut sizes: Vec<usize> = log.jobs.iter().map(|j| j.nodes).collect();
        sizes.sort_unstable();
        let mut runtimes: Vec<u64> = log.jobs.iter().map(|j| j.runtime).collect();
        runtimes.sort_unstable();

        let span = match (log.jobs.first(), log.jobs.last()) {
            (Some(a), Some(b)) => b.submit - a.submit,
            _ => 0,
        };
        let gaps: Vec<f64> = log
            .jobs
            .windows(2)
            .map(|w| (w[1].submit - w[0].submit) as f64)
            .collect();
        let mean_interarrival = if gaps.is_empty() {
            0.0
        } else {
            gaps.iter().sum::<f64>() / gaps.len() as f64
        };

        let offered_load = if span > 0 && machine_nodes > 0 {
            log.total_node_seconds() as f64 / (machine_nodes as f64 * span as f64)
        } else {
            0.0
        };

        // Histogram over log2 buckets (non-powers land in their floor).
        let mut hist: std::collections::BTreeMap<usize, usize> = Default::default();
        for &s in &sizes {
            *hist.entry((s.max(1)).ilog2() as usize).or_default() += 1;
        }

        LogProfile {
            name: log.name.clone(),
            jobs: n,
            nodes_min: sizes.first().copied().unwrap_or(0),
            nodes_median: sizes.get(n / 2).copied().unwrap_or(0),
            nodes_max: sizes.last().copied().unwrap_or(0),
            pow2_fraction: log.pow2_fraction(),
            comm_percent: log.comm_percent(),
            runtime_min: runtimes.first().copied().unwrap_or(0),
            runtime_median: runtimes.get(n / 2).copied().unwrap_or(0),
            runtime_max: runtimes.last().copied().unwrap_or(0),
            mean_interarrival,
            span,
            total_node_hours: log.total_node_hours(),
            offered_load,
            size_histogram: hist.into_iter().collect(),
        }
    }

    /// Multi-line human-readable rendering.
    pub fn render(&self) -> String {
        let mut out = format!(
            "log {:?}: {} jobs over {:.1} h (mean gap {:.0} s)\n\
             nodes: min {} / median {} / max {}  ({:.1}% powers of two)\n\
             runtime: min {} s / median {} s / max {} s\n\
             {:.1}% communication-intensive, {:.0} node-hours total, \
             offered load {:.2}\n",
            self.name,
            self.jobs,
            self.span as f64 / 3600.0,
            self.mean_interarrival,
            self.nodes_min,
            self.nodes_median,
            self.nodes_max,
            100.0 * self.pow2_fraction,
            self.runtime_min,
            self.runtime_median,
            self.runtime_max,
            self.comm_percent,
            self.total_node_hours,
            self.offered_load,
        );
        let peak = self
            .size_histogram
            .iter()
            .map(|&(_, c)| c)
            .max()
            .unwrap_or(1)
            .max(1);
        for &(exp, count) in &self.size_histogram {
            out.push_str(&format!(
                "  2^{exp:<2} ({:>6} nodes)  {:>5}  {}\n",
                1usize << exp,
                count,
                "#".repeat(count * 40 / peak)
            ));
        }
        out
    }
}

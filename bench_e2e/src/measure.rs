//! Timed passes over a workload's logs, and the helpers that summarise
//! and check them.

use commsched_metrics::Registry;
use commsched_slurmsim::{Engine, EngineError, JobStatus, RunSummary};
use commsched_trace::Capture;
use commsched_workload::JobLog;
use std::hint::black_box;
use std::time::Instant;

/// Median, extremes and count of a set of samples.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Stats {
    pub median: f64,
    pub min: f64,
    pub max: f64,
    pub n: usize,
}

impl Stats {
    /// `None` for no samples. The median of an even count is the mean of
    /// the middle two.
    pub fn of(samples: &[f64]) -> Option<Stats> {
        let mut sorted = samples.to_vec();
        sorted.sort_by(f64::total_cmp);
        let n = sorted.len();
        let median = match n {
            0 => return None,
            _ if n % 2 == 1 => sorted[n / 2],
            _ => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
        };
        Some(Stats {
            median,
            min: sorted[0],
            max: sorted[n - 1],
            n,
        })
    }
}

/// How long to keep sampling: at least `min` samples, then until
/// `budget_s` host seconds have gone into them.
#[derive(Debug, Clone, Copy)]
pub struct Plan {
    pub min: usize,
    pub budget_s: f64,
}

impl Plan {
    /// Collect what `f` returns, call after call, under this plan.
    pub fn sample<T, E>(self, mut f: impl FnMut() -> Result<T, E>) -> Result<Vec<T>, E> {
        let started = Instant::now();
        let mut samples = Vec::new();
        while samples.len() < self.min || started.elapsed().as_secs_f64() < self.budget_s {
            samples.push(f()?);
        }
        Ok(samples)
    }
}

/// FNV-1a over the fields of every outcome that a scheduling decision can
/// change. Equal digests mean equal schedules and equal Eq. 6 costs, so a
/// speed-only change must leave it as it is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest(pub u64);

impl Digest {
    pub fn of(runs: &[RunSummary]) -> Digest {
        let mut hash = 0xcbf2_9ce4_8422_2325u64;
        let mut word = |w: u64| {
            for b in w.to_le_bytes() {
                hash = (hash ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
            }
        };
        for o in runs.iter().flat_map(|r| &r.outcomes) {
            word(o.id.0);
            word(o.start);
            word(o.end);
            word(match o.status {
                JobStatus::Completed => 0,
                JobStatus::Cancelled => 1,
                JobStatus::Rejected => 2,
            });
            word(o.cost_actual.to_bits());
            word(o.cost_default.to_bits());
        }
        Digest(hash)
    }
}

/// The least of each part over repeated samples of the same parts.
///
/// The host this benchmark was defined on is a small virtual machine
/// whose neighbours slow memory-bound code by 10-60 % for seconds at a
/// time. Interference only ever adds time, so the least time seen for a
/// part is the estimate of the program's own time that repeats: across
/// ten processes it held within 3 % where the median moved by 50 %.
pub fn best(samples: &[Vec<f64>]) -> Vec<f64> {
    let mut best = samples.first().cloned().unwrap_or_default();
    for sample in samples {
        for (b, &s) in best.iter_mut().zip(sample) {
            *b = b.min(s);
        }
    }
    best
}

/// One pass: every log through `Engine::run`. Returns the host seconds of
/// each run, timed around the call only, and what the runs returned.
pub fn pass(
    engine: &Engine<'_>,
    logs: &[JobLog],
) -> Result<(Vec<f64>, Vec<RunSummary>), EngineError> {
    let mut seconds = Vec::with_capacity(logs.len());
    let mut runs = Vec::with_capacity(logs.len());
    for log in logs {
        let started = Instant::now();
        let run = black_box(engine.run(black_box(log))?);
        seconds.push(started.elapsed().as_secs_f64());
        runs.push(run);
    }
    Ok((seconds, runs))
}

/// What an observed pass leaves behind, one entry per log.
pub struct Observed {
    pub runs: Vec<RunSummary>,
    pub captures: Vec<Capture>,
    pub registries: Vec<Registry>,
}

/// One pass through `Engine::run_observed`, each log into a full-mask
/// `Capture` and a fresh `Registry` — what `--trace-out` costs a user.
pub fn observed_pass(
    engine: &Engine<'_>,
    logs: &[JobLog],
) -> Result<(Vec<f64>, Observed), EngineError> {
    let mut seconds = Vec::with_capacity(logs.len());
    let mut out = Observed {
        runs: Vec::with_capacity(logs.len()),
        captures: Vec::with_capacity(logs.len()),
        registries: Vec::with_capacity(logs.len()),
    };
    for log in logs {
        let started = Instant::now();
        let mut capture = Capture::new();
        let mut registry = Registry::new();
        let run = engine.run_observed(black_box(log), &mut capture, &mut registry)?;
        let run = black_box(run);
        seconds.push(started.elapsed().as_secs_f64());
        out.runs.push(run);
        out.captures.push(capture);
        out.registries.push(registry);
    }
    Ok((seconds, out))
}

/// Do the captured events carry sequence numbers 0, 1, 2, ...?
pub fn seq_is_dense(capture: &Capture) -> bool {
    capture
        .events
        .iter()
        .enumerate()
        .all(|(i, e)| e.seq == i as u64)
}

/// Peak resident set of this process so far, in MB (`VmHWM`).
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().strip_suffix("kB"))
        .and_then(|kb| kb.trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::{set_up, Workload};

    #[test]
    fn stats_of_odd_even_and_empty_sets() {
        assert_eq!(Stats::of(&[]), None);
        assert_eq!(
            Stats::of(&[3.0, 1.0, 2.0]),
            Some(Stats {
                median: 2.0,
                min: 1.0,
                max: 3.0,
                n: 3
            })
        );
        assert_eq!(
            Stats::of(&[4.0, 1.0, 2.0, 10.0]),
            Some(Stats {
                median: 3.0,
                min: 1.0,
                max: 10.0,
                n: 4
            })
        );
    }

    #[test]
    fn best_is_taken_part_by_part() {
        assert_eq!(best(&[]), Vec::<f64>::new());
        assert_eq!(
            best(&[vec![3.0, 1.0], vec![2.0, 5.0], vec![4.0, 0.5]]),
            [2.0, 0.5]
        );
    }

    #[test]
    fn plan_takes_its_minimum_even_without_a_budget() {
        let plan = Plan {
            min: 3,
            budget_s: 0.0,
        };
        let mut calls = 0;
        let samples = plan
            .sample(|| {
                calls += 1;
                Ok::<f64, ()>(1.0)
            })
            .unwrap();
        assert_eq!((samples.len(), calls), (3, 3));
    }

    #[test]
    fn digest_is_stable_across_runs_and_sensitive_to_the_schedule() {
        let w = Workload::find("theta_saturated").unwrap().smoke();
        let setup = set_up(&w, 7);
        let engine = Engine::new(&setup.tree, w.config());
        let (_, first) = pass(&engine, &setup.logs).unwrap();
        let (_, second) = pass(&engine, &setup.logs).unwrap();
        assert_eq!(Digest::of(&first), Digest::of(&second));

        let mut moved = first.clone();
        moved[0].outcomes[0].end += 1;
        assert_ne!(Digest::of(&first), Digest::of(&moved));
        let other = set_up(&w, 8);
        let (_, different) = pass(&Engine::new(&other.tree, w.config()), &other.logs).unwrap();
        assert_ne!(Digest::of(&first), Digest::of(&different));
    }

    #[test]
    fn peak_rss_reads_a_positive_figure() {
        assert!(peak_rss_mb().unwrap() > 0.0);
    }
}

//! Spans, and the shadow replay that attributes a run's time to layers.
//!
//! The engine cannot be timed from inside (detlint D2 bans wall-clock
//! reads in library crates), so the bench re-issues, on a cluster state
//! of its own and through public `commsched_core` API, exactly the calls
//! `Engine::place` and the engine loop made for a finished run, each
//! inside a span. What is left of the run's time after subtracting those
//! spans is the engine's own queue and backfill work. Because the replay
//! recomputes every job's Eq. 6 costs, it is also the output check.

use commsched_collectives::CollectiveSpec;
use commsched_core::{
    AdaptiveSelector, AllocRequest, ClusterState, CostModel, DefaultTreeSelector, JobId,
    NodeSelector, PlacementEvaluator, SelectorKind,
};
use commsched_slurmsim::{EngineConfig, JobOutcome};
use commsched_topology::Tree;
use commsched_workload::{Job, JobLog};
use std::collections::HashMap;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// One timed interval: a call into a layer, or the replay around them.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    /// The job the call was made for (0 for a root span).
    pub job: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Spans kept in memory until the benchmark ends.
pub struct SpanLog {
    origin: Instant,
    pub spans: Vec<Span>,
}

impl SpanLog {
    pub fn new() -> Self {
        SpanLog {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Open a span; it ends at [`SpanLog::close`].
    pub fn open(&mut self, name: &'static str, parent: Option<usize>, job: u64) -> usize {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            job,
        });
        self.spans.len() - 1
    }

    pub fn close(&mut self, id: usize) {
        self.spans[id].end_ns = self.now_ns();
    }

    /// Run `f` inside a span.
    pub fn record<R>(
        &mut self,
        name: &'static str,
        parent: usize,
        job: u64,
        f: impl FnOnce() -> R,
    ) -> R {
        let id = self.open(name, Some(parent), job);
        let out = f();
        self.close(id);
        out
    }

    /// Calls and summed nanoseconds of every span called `name`.
    pub fn total(&self, name: &str) -> (u64, u64) {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .fold((0, 0), |(n, ns), s| (n + 1, ns + s.duration_ns()))
    }

    /// Indices of the spans no other span caused: one `bench.shadow` per
    /// replayed log.
    pub fn roots(&self) -> impl Iterator<Item = usize> + '_ {
        (0..self.spans.len()).filter(|&i| self.spans[i].parent.is_none())
    }

    /// Nanoseconds inside calls into `core`: every span with a parent.
    pub fn core_ns(&self) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.parent.is_some())
            .map(Span::duration_ns)
            .sum()
    }

    /// One JSON object per line: id, name, start_ns, end_ns, parent, job.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            out.push_str(&format!(
                "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"job\":{}}}\n",
                s.name, s.start_ns, s.end_ns, s.job
            ));
        }
        out
    }
}

/// A span's self time: its duration minus the part its direct children
/// cover (children of one span never overlap here: the replay is
/// single-threaded and closes each before opening the next).
pub fn self_time_ns(spans: &[Span], id: usize) -> u64 {
    let children: u64 = spans
        .iter()
        .filter(|s| s.parent == Some(id))
        .map(Span::duration_ns)
        .sum();
    spans[id].duration_ns().saturating_sub(children)
}

/// One step of a finished run, named by outcome index.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Step {
    // Finish sorts first: at one instant the engine releases every
    // finishing job before its scheduling pass starts any.
    Finish(usize),
    Start(usize),
}

/// The order in which the engine allocated and released: by time, finishes
/// before starts, then by outcome index — outcomes are pushed as jobs
/// start, so the index is the start order within a scheduling pass.
pub fn replay_order(outcomes: &[JobOutcome]) -> Vec<(u64, Step)> {
    let mut steps: Vec<(u64, Step)> = outcomes
        .iter()
        .enumerate()
        .flat_map(|(i, o)| [(o.start, Step::Start(i)), (o.end, Step::Finish(i))])
        .collect();
    steps.sort_unstable();
    steps
}

/// Most jobs ever submitted but not yet started. At one instant the engine
/// queues every submit before its pass starts anything, so submits count
/// first.
pub fn peak_pending(outcomes: &[JobOutcome]) -> usize {
    let mut moves: Vec<(u64, bool)> = outcomes
        .iter()
        .flat_map(|o| [(o.submit, false), (o.start, true)])
        .collect();
    moves.sort_unstable();
    let (mut pending, mut peak) = (0usize, 0usize);
    for (_, started) in moves {
        if started {
            pending -= 1;
        } else {
            pending += 1;
            peak = peak.max(pending);
        }
    }
    peak
}

/// What one replay found.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Replay {
    /// Jobs whose recomputed Eq. 6 costs differ from the engine's by a bit.
    pub mismatches: u64,
    /// Nodes passed through `allocate` plus nodes returned by `release`.
    pub nodes_touched: u64,
}

/// Replay one finished, fault-free run of `log` under `cfg` on `state`,
/// recording a span per call under a new `bench.shadow` root. `state` is
/// reset first, as the engine resets the state it leases for a run. An
/// `Err` means the replay could not follow the run at all (a selection or
/// allocation the engine made was impossible on the shadow state).
pub fn replay(
    tree: &Tree,
    cfg: &EngineConfig,
    log: &JobLog,
    outcomes: &[JobOutcome],
    state: &mut ClusterState,
    spans: &mut SpanLog,
) -> Result<Replay, String> {
    // `Engine::place` evaluates once per component when both models share
    // a trunk discount, which `EngineConfig::new` guarantees.
    assert!(cfg.cost_model.trunk_discount == cfg.ratio_model.trunk_discount);
    let eval = Arc::new(Mutex::new(PlacementEvaluator::new()));
    // As `Engine::build_selector`: the adaptive selector shares the
    // evaluator that Eq. 6 then reuses.
    let selector: Box<dyn NodeSelector> = match cfg.selector {
        SelectorKind::Adaptive => Box::new(AdaptiveSelector::with_evaluator(
            CostModel::HOP_BYTES,
            Arc::clone(&eval),
        )),
        kind => kind.build(),
    };
    let jobs: HashMap<JobId, &Job> = log.jobs.iter().map(|j| (j.id, j)).collect();
    let mut found = Replay::default();

    let root = spans.open("bench.shadow", None, 0);
    spans.record("core.state.reset", root, 0, || state.reset(tree));
    for (_, step) in replay_order(outcomes) {
        match step {
            Step::Finish(i) => {
                let id = outcomes[i].id;
                let freed = spans
                    .record("core.state.release", root, id.0, || state.release(tree, id))
                    .map_err(|e| format!("releasing {id}: {e}"))?;
                found.nodes_touched += freed.nodes.len() as u64;
            }
            Step::Start(i) => {
                let o = &outcomes[i];
                let job = jobs[&o.id];
                let id = job.id.0;
                let req = AllocRequest {
                    job: job.id,
                    nodes: job.nodes,
                    nature: job.nature,
                    pattern: job
                        .comm
                        .first()
                        .map(|(p, _)| CollectiveSpec::new(*p, cfg.msize)),
                    attempt: 0,
                };
                let nodes = spans
                    .record("core.select", root, id, || {
                        selector.select(tree, state, &req)
                    })
                    .map_err(|e| format!("selecting for {}: {e}", job.id))?;
                let mut costs = [0.0f64; 2];
                if job.nature.is_comm() && !job.comm.is_empty() {
                    let default_nodes = if cfg.selector == SelectorKind::Default {
                        nodes.clone()
                    } else {
                        spans
                            .record("core.select.default", root, id, || {
                                DefaultTreeSelector.select(tree, state, &req)
                            })
                            .map_err(|e| format!("default selection for {}: {e}", job.id))?
                    };
                    let mut ev = eval.lock().expect("the replay is single-threaded");
                    for (cost, alloc) in costs.iter_mut().zip([&nodes, &default_nodes]) {
                        for &(pattern, _) in &job.comm {
                            let spec = CollectiveSpec::new(pattern, cfg.msize);
                            let totals = spans.record("core.eval", root, id, || {
                                ev.evaluate(
                                    tree,
                                    state,
                                    cfg.cost_model.trunk_discount,
                                    alloc,
                                    &spec,
                                )
                            });
                            *cost += totals.for_model(&cfg.cost_model);
                        }
                    }
                }
                if costs[0].to_bits() != o.cost_actual.to_bits()
                    || costs[1].to_bits() != o.cost_default.to_bits()
                {
                    found.mismatches += 1;
                }
                spans
                    .record("core.state.allocate", root, id, || {
                        state.allocate(tree, job.id, &nodes, job.nature)
                    })
                    .map_err(|e| format!("allocating {}: {e}", job.id))?;
                found.nodes_touched += nodes.len() as u64;
            }
        }
    }
    spans.close(root);
    Ok(found)
}

#[cfg(test)]
mod tests {
    use super::*;
    use commsched_core::JobNature;
    use commsched_slurmsim::JobStatus;

    fn outcome(id: u64, submit: u64, start: u64, end: u64) -> JobOutcome {
        JobOutcome {
            id: JobId(id),
            submit,
            start,
            end,
            nodes: 1,
            nature: JobNature::ComputeIntensive,
            cost_actual: 0.0,
            cost_default: 0.0,
            runtime_original: end - start,
            runtime_adjusted: end - start,
            comm_ratio: 1.0,
            status: JobStatus::Completed,
            retries: 0,
            lost_node_seconds: 0,
        }
    }

    #[test]
    fn replay_releases_before_it_starts_at_equal_times() {
        // Job 2 starts at the instant job 1 finishes: the engine frees
        // job 1's nodes first. Jobs 2 and 3 start together, in outcome
        // (queue) order.
        let outcomes = [
            outcome(1, 0, 0, 10),
            outcome(2, 0, 10, 30),
            outcome(3, 5, 10, 20),
        ];
        assert_eq!(
            replay_order(&outcomes),
            [
                (0, Step::Start(0)),
                (10, Step::Finish(0)),
                (10, Step::Start(1)),
                (10, Step::Start(2)),
                (20, Step::Finish(2)),
                (30, Step::Finish(1)),
            ]
        );
    }

    #[test]
    fn peak_pending_counts_submits_before_starts() {
        // t=0: job 1 submitted and started (queue 1, then 0). t=5: jobs 2
        // and 3 wait. t=10: job 4 arrives as job 2 starts — four jobs were
        // never queued at once, but three were.
        let outcomes = [
            outcome(1, 0, 0, 10),
            outcome(2, 5, 10, 20),
            outcome(3, 5, 20, 30),
            outcome(4, 10, 30, 40),
        ];
        assert_eq!(peak_pending(&outcomes), 3);
        assert_eq!(peak_pending(&[]), 0);
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let span = |name, start_ns, end_ns, parent| Span {
            name,
            start_ns,
            end_ns,
            parent,
            job: 0,
        };
        let spans = [
            span("root", 0, 100, None),
            span("child", 10, 40, Some(0)),
            span("grandchild", 15, 20, Some(1)),
            span("child", 50, 60, Some(0)),
        ];
        assert_eq!(self_time_ns(&spans, 0), 60);
        assert_eq!(self_time_ns(&spans, 1), 25);
        assert_eq!(self_time_ns(&spans, 3), 10);
        let log = SpanLog {
            origin: Instant::now(),
            spans: spans.to_vec(),
        };
        assert_eq!(log.total("child"), (2, 40));
        assert_eq!(log.total("absent"), (0, 0));
    }

    #[test]
    fn spans_render_one_object_per_line() {
        let mut log = SpanLog::new();
        let root = log.open("bench.shadow", None, 0);
        log.record("core.select", root, 7, || ());
        log.close(root);
        let text = log.to_jsonl();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].starts_with("{\"id\":0,\"name\":\"bench.shadow\""));
        assert!(lines[0].contains("\"parent\":null"));
        assert!(lines[1].contains("\"parent\":0,\"job\":7}"));
        for line in lines {
            serde_json::from_str::<serde_json::Value>(line).expect("each line is JSON");
        }
    }
}

//! Property tests for the trace layer: whatever the workload, selector,
//! backfill policy, or fault pattern, a trace must obey its structural
//! invariants — dense sequence numbers, non-decreasing virtual time,
//! `place` immediately before each `start`, every `finish`/`requeue`
//! closing a span that a `start` opened.

use commsched::metrics::Registry;
use commsched::prelude::*;
use commsched::slurmsim::FailurePolicy;
use commsched::trace::{Capture, Event, EventKind};
use commsched::workload::FaultTrace;
use proptest::prelude::*;

fn toy_log(seed: u64, pct: u8, jobs: usize) -> JobLog {
    LogSpec::new(
        SystemModel {
            name: "toy",
            total_nodes: 18,
            min_request: 1,
            max_request: 12,
            pow2_fraction: 0.7,
            mean_interarrival: 60.0,
            runtime_median: 400.0,
            runtime_sigma: 1.0,
            walltime_slack: 1.5,
        },
        jobs,
        seed,
    )
    .comm_percent(pct)
    .generate()
}

fn engine_for(
    tree: &Tree,
    sel: usize,
    backfill: usize,
    policy: usize,
    faults: Option<FaultTrace>,
) -> Engine<'_> {
    let kind = SelectorKind::ALL[sel % SelectorKind::ALL.len()];
    let mut cfg = EngineConfig::new(kind);
    cfg.backfill = [
        BackfillPolicy::None,
        BackfillPolicy::Easy,
        BackfillPolicy::Conservative,
    ][backfill % 3];
    cfg.failure_policy = [
        FailurePolicy::Cancel,
        FailurePolicy::Requeue {
            max_retries: 2,
            backoff: 15,
        },
        FailurePolicy::RequeueFront,
    ][policy % 3];
    let mut engine = Engine::new(tree, cfg);
    if let Some(f) = faults {
        engine = engine.with_faults(f);
    }
    engine
}

fn mtbf_faults(seed: u64, log: &JobLog) -> Option<FaultTrace> {
    let horizon = log
        .jobs
        .iter()
        .map(|j| j.submit + j.walltime)
        .max()
        .unwrap_or(0)
        .max(1);
    FaultTrace::mtbf(18, 30_000.0, 2_000.0, horizon, seed).ok()
}

/// The structural invariants every engine trace must satisfy.
fn check_trace_invariants(events: &[Event]) {
    let mut last_t = 0u64;
    // (job, attempt) spans opened by `start` and not yet closed.
    let mut open: Vec<(u64, u32)> = Vec::new();
    for (i, ev) in events.iter().enumerate() {
        assert_eq!(ev.seq, i as u64, "sequence numbers must be dense");
        assert!(ev.t_us >= last_t, "timestamps must be non-decreasing");
        last_t = ev.t_us;
        match ev.kind {
            EventKind::JobStart { job, attempt, .. } => {
                // `place` carries the placement decision for exactly this
                // start, so it must be the immediately preceding event.
                match i.checked_sub(1).map(|p| events[p].kind) {
                    Some(EventKind::JobPlace {
                        job: pj,
                        attempt: pa,
                        ..
                    }) => {
                        assert_eq!((pj, pa), (job, attempt), "place/start must pair up");
                    }
                    other => panic!("start at seq {i} not preceded by place: {other:?}"),
                }
                assert!(
                    !open.contains(&(job, attempt)),
                    "span (job {job}, attempt {attempt}) started twice"
                );
                open.push((job, attempt));
            }
            EventKind::JobFinish { job, attempt, .. } => {
                let pos = open
                    .iter()
                    .position(|&s| s == (job, attempt))
                    .unwrap_or_else(|| {
                        panic!("finish of (job {job}, attempt {attempt}) closes nothing")
                    });
                open.remove(pos);
            }
            EventKind::JobRequeue { job, attempt, .. } => {
                let pos = open
                    .iter()
                    .position(|&s| s == (job, attempt))
                    .unwrap_or_else(|| {
                        panic!("requeue of (job {job}, attempt {attempt}) closes nothing")
                    });
                open.remove(pos);
            }
            _ => {}
        }
    }
    assert!(open.is_empty(), "spans left open at end of run: {open:?}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Healthy runs: invariants hold for every selector × backfill combo.
    #[test]
    fn healthy_traces_are_well_formed(
        seed in any::<u64>(),
        pct in 0u8..=100,
        sel in 0usize..4,
        backfill in 0usize..3,
    ) {
        let tree = Tree::regular_two_level(3, 6);
        let log = toy_log(seed, pct, 25);
        let engine = engine_for(&tree, sel, backfill, 0, None);
        let mut cap = Capture::new();
        let mut reg = Registry::new();
        engine.run_observed(&log, &mut cap, &mut reg).expect("toy log fits");
        check_trace_invariants(&cap.events);
    }

    /// Faulted runs: kills, requeues and retries must still produce
    /// well-formed traces under every failure policy.
    #[test]
    fn faulted_traces_are_well_formed(
        seed in any::<u64>(),
        sel in 0usize..4,
        backfill in 0usize..3,
        policy in 0usize..3,
    ) {
        let tree = Tree::regular_two_level(3, 6);
        let log = toy_log(seed, 80, 25);
        let faults = mtbf_faults(seed ^ 0xFA17, &log);
        let engine = engine_for(&tree, sel, backfill, policy, faults);
        let mut cap = Capture::new();
        let mut reg = Registry::new();
        engine.run_observed(&log, &mut cap, &mut reg).expect("toy log fits");
        check_trace_invariants(&cap.events);
    }

    /// Tracing must never change scheduling: summaries from `run` and
    /// `run_observed` are interchangeable.
    #[test]
    fn tracing_never_changes_outcomes(
        seed in any::<u64>(),
        sel in 0usize..4,
        backfill in 0usize..3,
    ) {
        let tree = Tree::regular_two_level(3, 6);
        let log = toy_log(seed, 50, 20);
        let plain = engine_for(&tree, sel, backfill, 0, None)
            .run(&log)
            .expect("toy log fits");
        let mut cap = Capture::new();
        let mut reg = Registry::new();
        let observed = engine_for(&tree, sel, backfill, 0, None)
            .run_observed(&log, &mut cap, &mut reg)
            .expect("toy log fits");
        prop_assert_eq!(plain, observed);
    }
}

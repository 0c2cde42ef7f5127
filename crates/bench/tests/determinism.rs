//! Every experiment must produce identical output at every rayon thread
//! count: per-cell seeding is deterministic and the vendored rayon
//! concatenates results in source order, so nothing downstream may depend
//! on scheduling. Each case below runs at 1, 2, 4 and 8 worker threads and
//! compares every run's bytes with the 1-thread run's.

use commsched_bench::experiments::{
    ablation, faults, fig6, fig7, run_golden, table4, tournament, GOLDEN_SCENARIOS,
};
use commsched_bench::{ExperimentResult, Scale};
use rayon::ThreadPoolBuilder;

const SCALE: Scale = Scale { jobs: 30, seed: 42 };

/// Run `f` in pools of 1, 2, 4 and 8 threads and assert that every run
/// returns what the 1-thread run did.
fn identical_across_thread_counts<T: PartialEq + std::fmt::Debug>(what: &str, f: impl Fn() -> T) {
    let pool = |threads: usize| {
        ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .expect("thread pool")
    };
    let base = pool(1).install(&f);
    for threads in [2usize, 4, 8] {
        assert_eq!(
            base,
            pool(threads).install(&f),
            "{what} differs between 1 and {threads} threads"
        );
    }
}

/// An experiment at [`SCALE`], as the text and JSON bytes `repro` writes.
fn experiment(run: fn(Scale) -> ExperimentResult) -> impl Fn() -> (String, String) {
    move || {
        let r = run(SCALE);
        (r.text, serde_json::to_string(&r.json).expect("serialize"))
    }
}

/// A reduced Figure 6 sweep: 3 systems × 5 mixes × 4 selectors, one flat
/// work list.
#[test]
fn fig6_sweep_identical_across_thread_counts() {
    identical_across_thread_counts("fig6", experiment(fig6));
}

/// The fault-injection sweep adds a second axis of hidden state (one
/// shared MTBF trace per failure rate, engines killing and requeueing jobs
/// mid-run) — it must be just as schedule-independent as the healthy
/// sweep.
#[test]
fn faults_sweep_identical_across_thread_counts() {
    identical_across_thread_counts("faults", experiment(faults));
}

/// The ablation sweep mixes engine configurations and two logs in one
/// grid; each study's rows are read back in cell order.
#[test]
fn ablation_sweep_identical_across_thread_counts() {
    identical_across_thread_counts("ablation", experiment(ablation));
}

/// Figure 7 runs a four-cell sweep beside its individual runs.
#[test]
fn fig7_identical_across_thread_counts() {
    identical_across_thread_counts("fig7", experiment(fig7));
}

/// Table 4's individual runs exercise the chunked probe fan-out with
/// per-chunk engine reuse — chunk geometry (a function of the thread
/// budget) must never leak into a byte of output.
#[test]
fn table4_individual_runs_identical_across_thread_counts() {
    identical_across_thread_counts("table4", experiment(table4));
}

/// The SA tournament fans annealing searches (seeded ChaCha walks over a
/// shared frozen state) across the cell grid — the searches themselves
/// must be schedule-independent, not just the cell collection order.
#[test]
fn tournament_identical_across_thread_counts() {
    identical_across_thread_counts("tournament", experiment(tournament));
}

/// The golden-trace scenarios are what the conformance suite pins to exact
/// bytes, so they must be bit-identical at any thread count — trace bytes
/// and RunReport bytes alike, whether or not rayon is even involved.
#[test]
fn golden_traces_identical_across_thread_counts() {
    for name in GOLDEN_SCENARIOS {
        identical_across_thread_counts(name, || {
            let (trace, report) = run_golden(name, 24, 7).expect("known scenario");
            assert!(!trace.is_empty(), "{name}: empty trace");
            (trace, report)
        });
    }
}

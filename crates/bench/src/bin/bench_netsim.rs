//! Measure the flow simulator and write `BENCH_netsim.json`.
//!
//! Two measurements:
//!
//! 1. **Rate solver** — whole runs of the steady-state and churn scenarios
//!    from [`commsched_bench::perf::NetsimCase`] under the incremental
//!    dirty-frontier max–min solver. (That it matches the reference
//!    fixpoint exactly on these two scenarios is a `commsched-netsim`
//!    test, `identical_on_bench_scenarios`.)
//! 2. **Sweep harness** — a reduced Figure 6 sweep (3 systems × 5 mixes ×
//!    4 selectors) under rayon thread budgets of 1, 2 and 4 threads,
//!    asserting the rendered output is identical at every count. The
//!    1-vs-4-thread wall-clock ratio is the `parallel_speedup` gate: on a
//!    multi-core host (`host_cpus > 1`) a ratio <= 1.0 means the scoped
//!    helper threads cost more than they return and the run fails (exit
//!    1); on a single-core host the gate is recorded as skipped, because
//!    no scheduler can conjure parallel speedup out of one CPU.
//!
//! ```text
//! cargo run --release -p commsched-bench --bin bench_netsim [out.json]
//! cargo run --release -p commsched-bench --bin bench_netsim -- --check BENCH_netsim.json
//! ```
//!
//! `--check` re-measures the solver scenarios and fails (exit 1) if any
//! case regresses more than 2x against the baseline's medians; sweep
//! wall-clock is machine-dependent and is never gated.

#![expect(clippy::disallowed_methods, reason = "bench bins time themselves")]
use commsched_bench::baseline;
use commsched_bench::experiments::fig6;
use commsched_bench::perf::NetsimCase;
use commsched_bench::Scale;
use rayon::ThreadPoolBuilder;
use std::time::Instant;

const ITERS: usize = 21;
const SWEEP_ITERS: usize = 3;
const SWEEP_SCALE: Scale = Scale { jobs: 40, seed: 42 };

fn median_ns<F: FnMut()>(iters: usize, mut f: F) -> f64 {
    let mut samples: Vec<f64> = (0..iters)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_nanos() as f64
        })
        .collect();
    samples.sort_by(|a, b| a.total_cmp(b));
    samples[samples.len() / 2]
}

/// Measure every solver scenario; returns `(case, median_ns, nodes, jobs)`
/// rows.
fn measure_solver() -> Vec<(String, f64, usize, usize)> {
    [NetsimCase::steady_state(), NetsimCase::churn()]
        .into_iter()
        .map(|case| {
            let ns = median_ns(ITERS, || {
                std::hint::black_box(case.run());
            });
            (
                case.name.to_string(),
                ns,
                case.tree.num_nodes(),
                case.workloads.len(),
            )
        })
        .collect()
}

fn sweep_under(threads: usize) -> (f64, commsched_bench::ExperimentResult) {
    let pool = ThreadPoolBuilder::new()
        .num_threads(threads)
        .build()
        .expect("thread pool");
    let result = pool.install(|| fig6(SWEEP_SCALE));
    let ns = median_ns(SWEEP_ITERS, || {
        pool.install(|| {
            std::hint::black_box(fig6(SWEEP_SCALE));
        });
    });
    (ns, result)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();

    if args.first().map(String::as_str) == Some("--check") {
        let Some(path) = args.get(1) else {
            eprintln!("usage: bench_netsim --check <baseline.json>");
            std::process::exit(2);
        };
        let live: Vec<(String, f64)> = measure_solver()
            .into_iter()
            .map(|(case, ns, _, _)| (case, ns))
            .collect();
        baseline::check_or_exit(path, &live);
    }

    let out = args
        .first()
        .cloned()
        .unwrap_or_else(|| "BENCH_netsim.json".to_string());

    let mut entries = Vec::new();
    for (case, ns, nodes, jobs) in measure_solver() {
        eprintln!("{case}: {:.2} ms", ns / 1e6);
        entries.push(format!(
            "    {{\n      \"case\": \"{case}\",\n      \"nodes\": {nodes},\n      \"jobs\": {jobs},\n      \"median_ns\": {ns:.0}\n    }}"
        ));
    }

    // Reduced Figure 6 sweep under 1, 2 and 4 threads. The outputs must
    // match exactly (the vendored rayon stitches chunk results in source
    // order); the wall-clock ratios depend on the host's core count.
    let host_cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    let (ns_1, res_1) = sweep_under(1);
    let (ns_2, res_2) = sweep_under(2);
    let (ns_4, res_4) = sweep_under(4);
    for (threads, res) in [(2usize, &res_2), (4, &res_4)] {
        assert_eq!(
            res_1.text, res.text,
            "sweep text differs between 1 and {threads} threads"
        );
        assert_eq!(
            res_1.json, res.json,
            "sweep json differs between 1 and {threads} threads"
        );
    }
    let parallel_speedup = ns_1 / ns_4;
    eprintln!(
        "fig6 sweep ({} jobs/log): 1 thread {:.2} s, 2 threads {:.2} s, 4 threads {:.2} s, 1->4 ratio {parallel_speedup:.2}x (host has {host_cpus} cpu(s))",
        SWEEP_SCALE.jobs,
        ns_1 / 1e9,
        ns_2 / 1e9,
        ns_4 / 1e9
    );

    // The speedup gate: a multi-core host that sees no gain from 4
    // threads means the runtime's overhead ate the parallelism — hard-fail
    // so CI catches the regression. A single-core host has nothing to
    // speed up, so the gate is honestly recorded as skipped.
    let gate_failed = host_cpus > 1 && parallel_speedup <= 1.0;
    let gate = if host_cpus == 1 {
        "skipped (host_cpus=1)".to_string()
    } else if gate_failed {
        format!("failed (parallel_speedup={parallel_speedup:.2} <= 1.0)")
    } else {
        "passed".to_string()
    };

    let json = format!(
        "{{\n  \"bench\": \"flow-level network simulation: incremental max-min solver runs, and fig6 sweep scaling\",\n  \"iters\": {ITERS},\n  \"host_cpus\": {host_cpus},\n  \"results\": [\n{}\n  ],\n  \"sweep\": {{\n    \"experiment\": \"fig6\",\n    \"jobs_per_log\": {},\n    \"iters\": {SWEEP_ITERS},\n    \"threads_1_median_ns\": {ns_1:.0},\n    \"threads_2_median_ns\": {ns_2:.0},\n    \"threads_4_median_ns\": {ns_4:.0},\n    \"parallel_speedup\": {parallel_speedup:.2},\n    \"identical_across_threads\": true,\n    \"gate\": \"{gate}\"\n  }}\n}}\n",
        entries.join(",\n"),
        SWEEP_SCALE.jobs
    );
    if let Err(e) = std::fs::write(&out, json) {
        eprintln!("error: cannot write {out}: {e}");
        std::process::exit(1);
    }
    eprintln!("wrote {out}");
    if gate_failed {
        eprintln!(
            "error: parallel speedup gate failed: {parallel_speedup:.2}x at 4 threads on a \
             {host_cpus}-cpu host (a scoped four-thread team must beat sequential on multi-core)"
        );
        std::process::exit(1);
    }
}

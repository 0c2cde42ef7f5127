//! `bench_e2e`: whole logs through `Engine::run`, measured from outside.
//!
//! ```text
//! bench_e2e --workload NAME --seed N [--seconds S] [--trace 0|1] [--smoke]
//!           [--spans-out FILE]
//! bench_e2e --all --seed N [--seconds S] [--smoke] [--out FILE]
//! bench_e2e --compare A.json B.json
//! ```
//!
//! One workload runs in one process on one thread. The last line of
//! standard output is the result: `correct`, `attempted`, `failed` and
//! `metrics` — the end-to-end metrics with `--trace 0`, the per-layer
//! metrics with `--trace 1`. See the README beside this package for the
//! protocol and for what each workload is for.

mod measure;
mod report;
mod shadow;
mod workloads;

use commsched_core::ClusterState;
use commsched_slurmsim::{Engine, EngineError, JobOutcome, JobStatus, RunSummary};
use commsched_workload::swf;
use measure::{Digest, Observed, Plan, Stats};
use report::{Outcome, Values};
use serde_json::{json, Value};
use shadow::SpanLog;
use std::hint::black_box;
use std::process::{Command, ExitCode};
use std::time::Instant;
use workloads::{set_up, Setup, Workload};

/// Set-up is repeated at least this often, and until [`SETUP_BUDGET_S`]
/// is spent: the small machines set up in milliseconds.
const SETUP_MIN_REPS: usize = 7;
const SETUP_BUDGET_S: f64 = 1.0;
/// Fewest passes, observed passes and shadow replays a best time is
/// taken over.
const MIN_PASSES: usize = 3;
/// Share of `--seconds` that goes to untraced passes. With `--trace 0`
/// the rest goes to observed passes; with `--trace 1` the observed passes
/// and the shadow replays take their minimum count, which is about the
/// rest.
const UNTRACED_SHARE: [f64; 2] = [0.7, 0.4];

struct Args {
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    spans_out: Option<String>,
}

/// How many samples to take: `--smoke` takes one of everything.
fn plan(args: &Args, min: usize, budget_s: f64) -> Plan {
    if args.smoke {
        Plan {
            min: 1,
            budget_s: 0.0,
        }
    } else {
        Plan { min, budget_s }
    }
}

/// Σ `cost_actual` / Σ `cost_default` over the pass, 1 with no comm jobs.
fn comm_cost_ratio(runs: &[RunSummary]) -> f64 {
    let sum =
        |f: fn(&JobOutcome) -> f64| -> f64 { runs.iter().flat_map(|r| &r.outcomes).map(f).sum() };
    let default = sum(|o| o.cost_default);
    if default > 0.0 {
        sum(|o| o.cost_actual) / default
    } else {
        1.0
    }
}

fn run_workload(w: &Workload, args: &Args) -> Result<Outcome, String> {
    let engine_err = |e: EngineError| format!("{}: {e}", w.name);
    let mut correct = true;
    let mut check = |ok: bool, what: &str| {
        if !ok {
            eprintln!("{}: CHECK FAILED: {what}", w.name);
            correct = false;
        }
    };

    // Set-up, repeated; the last one's products are the ones measured.
    let mut last = None;
    let setups = plan(args, SETUP_MIN_REPS, SETUP_BUDGET_S).sample(|| {
        let s = last.insert(set_up(w, args.seed));
        Ok::<_, String>(vec![
            s.total_s,
            s.topology_build_s,
            s.workload_generate_s,
            s.state_new_s,
        ])
    })?;
    let setup = last.expect("every plan takes a sample");
    let jobs = w.total_jobs();
    let engine = Engine::new(&setup.tree, w.config());

    // Untimed warm-up: the engine's cluster state and the allocator's
    // pages are first touched here, as they are once in a user's sweep.
    let (_, warm) = measure::pass(&engine, &setup.logs).map_err(engine_err)?;
    let digest = Digest::of(&warm);
    let outcomes: usize = warm.iter().map(|r| r.outcomes.len()).sum();
    check(outcomes == jobs, "an outcome per submitted job");
    let failed = warm
        .iter()
        .flat_map(|r| &r.outcomes)
        .filter(|o| o.status != JobStatus::Completed)
        .count();
    check(failed == 0, "every job completes");

    // Timed, untraced passes.
    let budget = args.seconds * UNTRACED_SHARE[usize::from(args.trace)];
    let passes = plan(args, MIN_PASSES, budget).sample(|| {
        let (seconds, runs) = measure::pass(&engine, &setup.logs).map_err(engine_err)?;
        check(
            Digest::of(&runs) == digest,
            "the same outcomes on every pass",
        );
        Ok::<_, String>(seconds)
    })?;
    let run_s: f64 = measure::best(&passes).iter().sum();
    let peak_rss_mb = measure::peak_rss_mb()?;
    let totals: Vec<f64> = passes.iter().map(|p| p.iter().sum()).collect();
    let spread = Stats::of(&totals).expect("every plan takes a sample");
    eprintln!(
        "{}: {} passes of {jobs} jobs: best {run_s:.4} s, median {:.4} s, min {:.4} s, max {:.4} s",
        w.name, spread.n, spread.median, spread.min, spread.max
    );

    // Observed passes, after and apart from the timed ones; the last
    // one's trace, registry and outcomes are the ones examined.
    let mut last = None;
    let traced_budget = if args.trace {
        0.0
    } else {
        args.seconds - budget
    };
    let traced = plan(args, MIN_PASSES, traced_budget).sample(|| {
        let (seconds, observed) =
            measure::observed_pass(&engine, &setup.logs).map_err(engine_err)?;
        check(
            Digest::of(&observed.runs) == digest,
            "the same outcomes when observed",
        );
        check(
            observed.captures.iter().all(measure::seq_is_dense),
            "dense trace sequence numbers",
        );
        last = Some(observed);
        Ok::<_, String>(seconds)
    })?;
    let observed = last.expect("every plan takes a sample");
    let timed = Timed {
        setup: measure::best(&setups),
        run_s,
        traced_s: measure::best(&traced).iter().sum(),
        peak_rss_mb,
    };

    let values = if args.trace {
        let (layers, mismatches) = per_layer(w, args, &setup, &timed, &observed)?;
        check(
            mismatches == 0,
            "Eq. 6 costs recomputed by the shadow replay match",
        );
        layers
    } else {
        vec![
            ("jobs_per_sec", jobs as f64 / timed.run_s),
            ("traced_jobs_per_sec", jobs as f64 / timed.traced_s),
            ("setup_s", timed.setup[0]),
            ("comm_cost_ratio", comm_cost_ratio(&warm)),
        ]
    };
    Ok(Outcome {
        correct,
        attempted: jobs as u64,
        failed: failed as u64,
        digest: digest.0,
        values,
    })
}

/// What the timed phases of a run found, for [`per_layer`] to report.
struct Timed {
    /// Best seconds of the whole set-up and of its three parts.
    setup: Vec<f64>,
    /// Best seconds of an untraced and of an observed pass.
    run_s: f64,
    traced_s: f64,
    /// Peak resident set once the untraced passes were done.
    peak_rss_mb: f64,
}

/// The per-layer metrics of a run, and the shadow replay's mismatches:
/// the set-up's parts, what the observed pass left behind, and the layer
/// spans of a shadow replay of it.
fn per_layer(
    w: &Workload,
    args: &Args,
    setup: &Setup,
    timed: &Timed,
    observed: &Observed,
) -> Result<(Values, u64), String> {
    let Timed {
        run_s, traced_s, ..
    } = *timed;
    // The SWF round trip a user with an archive log pays at set-up.
    let roundtrips = plan(args, MIN_PASSES, 0.0).sample(|| {
        let started = Instant::now();
        for log in &setup.logs {
            let text = swf::emit(black_box(log));
            black_box(swf::parse(&text, &log.name, 1).map_err(|e| e.to_string())?);
        }
        Ok::<_, String>(vec![started.elapsed().as_secs_f64()])
    })?;

    let started = Instant::now();
    let trace_bytes: usize = observed
        .captures
        .iter()
        .map(|c| black_box(c.to_jsonl()).len())
        .sum();
    let render_s = started.elapsed().as_secs_f64();
    let started = Instant::now();
    let report_bytes: usize = observed
        .registries
        .iter()
        .map(|r| black_box(r.snapshot().to_json_pretty()).len())
        .sum();
    let report_render_s = started.elapsed().as_secs_f64();
    let counter = |name: &str| -> f64 {
        observed
            .registries
            .iter()
            .map(|r| r.counter_value(name).unwrap_or(0))
            .sum::<u64>() as f64
    };

    // The shadow replay: layer spans, and the output check. Replayed once
    // untimed, so that the shadow state's pages are touched as the
    // engine's were by the warm-up pass, then a few times; the replay
    // whose calls into `core` took the least time is kept.
    let mut state = ClusterState::new(&setup.tree);
    let mut replay_all = |spans: &mut SpanLog| -> Result<shadow::Replay, String> {
        let mut sum = shadow::Replay::default();
        for (log, run) in setup.logs.iter().zip(&observed.runs) {
            let r = shadow::replay(
                &setup.tree,
                &w.config(),
                log,
                &run.outcomes,
                &mut state,
                spans,
            )?;
            sum.mismatches += r.mismatches;
            sum.nodes_touched += r.nodes_touched;
        }
        Ok(sum)
    };
    replay_all(&mut SpanLog::new())?;
    let replays = plan(args, MIN_PASSES, 0.0).sample(|| {
        let mut spans = SpanLog::new();
        let replayed = replay_all(&mut spans)?;
        Ok::<_, String>((spans.core_ns(), spans, replayed))
    })?;
    let (core_ns, spans, replayed) = replays
        .into_iter()
        .min_by_key(|r| r.0)
        .expect("every plan takes a sample");

    let secs = |ns: u64| ns as f64 / 1e9;
    let per = |ns: u64, n: u64| if n == 0 { 0.0 } else { ns as f64 / n as f64 };
    let (selects, select_ns) = spans.total("core.select");
    let (_, default_ns) = spans.total("core.select.default");
    let (evals, eval_ns) = spans.total("core.eval");
    let (_, allocate_ns) = spans.total("core.state.allocate");
    let (_, release_ns) = spans.total("core.state.release");
    let shadow_ns: u64 = spans.roots().map(|i| spans.spans[i].duration_ns()).sum();
    let overhead_ns: u64 = spans
        .roots()
        .map(|i| shadow::self_time_ns(&spans.spans, i))
        .sum();
    // What is left of a run once the calls into `core` are taken out is
    // the engine's own work. Signed: on a workload where the engine does
    // next to nothing, timing noise can push it below zero.
    let self_s = run_s - secs(core_ns);
    let jobs = w.total_jobs() as f64;
    let passes = counter("sched.passes");
    let started_jobs = counter("jobs.started");
    let backfilled = counter("jobs.backfilled");
    let over_runs = |f: fn(&RunSummary) -> f64| -> f64 { observed.runs.iter().map(f).sum() };

    if let Some(path) = &args.spans_out {
        std::fs::write(path, spans.to_jsonl()).map_err(|e| format!("writing {path}: {e}"))?;
    }
    let values = vec![
        ("topology.build_s", timed.setup[1]),
        ("workload.generate_s", timed.setup[2]),
        ("workload.swf_roundtrip_s", measure::best(&roundtrips)[0]),
        ("core.state.new_s", timed.setup[3]),
        ("core.select.calls", selects as f64),
        ("core.select.busy_s", secs(select_ns)),
        ("core.select.ns_per_call", per(select_ns, selects)),
        ("core.select.default_busy_s", secs(default_ns)),
        ("core.eval.calls", evals as f64),
        ("core.eval.busy_s", secs(eval_ns)),
        ("core.eval.ns_per_call", per(eval_ns, evals)),
        ("core.state.allocate_busy_s", secs(allocate_ns)),
        ("core.state.release_busy_s", secs(release_ns)),
        ("core.state.nodes_touched", replayed.nodes_touched as f64),
        (
            "core.state.ns_per_node",
            per(allocate_ns + release_ns, replayed.nodes_touched),
        ),
        ("slurmsim.run_s", run_s),
        ("slurmsim.self_s", self_s),
        ("slurmsim.self_share", self_s / run_s),
        ("slurmsim.passes", passes),
        ("slurmsim.passes_per_job", passes / jobs),
        ("slurmsim.self_us_per_pass", self_s * 1e6 / passes),
        ("slurmsim.started", started_jobs),
        ("slurmsim.backfilled", backfilled),
        ("slurmsim.backfill_share", backfilled / started_jobs),
        (
            "slurmsim.peak_pending",
            observed
                .runs
                .iter()
                .map(|r| shadow::peak_pending(&r.outcomes))
                .max()
                .unwrap_or(0) as f64,
        ),
        (
            "slurmsim.sim_exec_hours",
            over_runs(RunSummary::total_exec_hours),
        ),
        (
            "slurmsim.sim_wait_hours",
            over_runs(RunSummary::total_wait_hours),
        ),
        (
            "slurmsim.sim_makespan_h",
            over_runs(|r| r.makespan as f64 / 3600.0),
        ),
        (
            "trace.events",
            observed
                .captures
                .iter()
                .map(|c| c.events.len())
                .sum::<usize>() as f64,
        ),
        ("trace.overhead_pct", (traced_s / run_s - 1.0) * 100.0),
        ("trace.render_s", render_s),
        ("trace.bytes", trace_bytes as f64),
        ("trace.render_mb_per_s", trace_bytes as f64 / 1e6 / render_s),
        ("metrics.report_render_s", report_render_s),
        ("metrics.report_bytes", report_bytes as f64),
        ("process.peak_rss_mb", timed.peak_rss_mb),
        ("bench.shadow_s", secs(shadow_ns)),
        ("bench.shadow_overhead_s", secs(overhead_ns)),
        ("bench.shadow_mismatches", replayed.mismatches as f64),
    ];
    Ok((values, replayed.mismatches))
}

/// Run one workload and print its result.
fn single(w: &Workload, args: &Args) -> Result<bool, String> {
    let o = run_workload(w, args)?;
    let result = report::result_json(args.trace, &o);
    println!("{} seed {}", w.name, args.seed);
    report::print_metrics(&result["metrics"]);
    println!("outcome_digest={:016x}", o.digest);
    println!("{}", result.to_compact_string());
    Ok(o.correct)
}

/// Run one workload in a fresh process of this program; returns its
/// result line, its outcome digest and whether it exited with success.
fn child(w: &Workload, args: &Args, trace: &str) -> Result<(Value, String, bool), String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut cmd = Command::new(&exe);
    cmd.args(["--workload", w.name, "--trace", trace])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()]);
    if args.smoke {
        cmd.arg("--smoke");
    }
    let output = cmd.output().map_err(|e| format!("running {exe:?}: {e}"))?;
    eprint!("{}", String::from_utf8_lossy(&output.stderr));
    let stdout = String::from_utf8_lossy(&output.stdout);
    let mut lines = stdout.lines().rev();
    let result: Value = lines
        .next()
        .and_then(|l| serde_json::from_str(l).ok())
        .ok_or_else(|| format!("{} --trace {trace} printed no result", w.name))?;
    let digest = lines
        .find_map(|l| l.strip_prefix("outcome_digest="))
        .ok_or_else(|| format!("{} --trace {trace} printed no digest", w.name))?;
    Ok((result, digest.to_string(), output.status.success()))
}

/// Run every workload in both modes, each in a fresh process so that one
/// workload's memory and caches never reach the next, and merge the
/// results into one document.
fn all(args: &Args, out: Option<&str>) -> Result<bool, String> {
    let mut docs = Vec::new();
    let mut correct = true;
    for w in &workloads::ALL {
        let (end_to_end, digest, ok) = child(w, args, "0")?;
        let (per_layer, traced_digest, traced_ok) = child(w, args, "1")?;
        correct &= ok && traced_ok;
        if digest != traced_digest {
            eprintln!("{}: the two runs' outcome digests differ", w.name);
            correct = false;
        }
        println!("{} seed {} outcome_digest={digest}", w.name, args.seed);
        report::print_metrics(&end_to_end["metrics"]);
        report::print_metrics(&per_layer["metrics"]);
        docs.push(json!({
            "name": w.name,
            "outcome_digest": digest,
            "attempted": end_to_end["attempted"],
            "failed": end_to_end["failed"],
            "end_to_end": end_to_end["metrics"],
            "per_layer": per_layer["metrics"],
        }));
    }
    let merged = json!({
        "seed": args.seed,
        "seconds": args.seconds,
        "smoke": args.smoke,
        "workloads": Value::Array(docs),
    });
    if let Some(path) = out {
        let text = merged.to_pretty_string() + "\n";
        std::fs::write(path, text).map_err(|e| format!("writing {path}: {e}"))?;
    }
    Ok(correct)
}

fn usage() -> String {
    let names: Vec<&str> = workloads::ALL.iter().map(|w| w.name).collect();
    format!(
        "usage: bench_e2e --workload NAME --seed N [--seconds S] [--trace 0|1] [--smoke] \
         [--spans-out FILE]\n       bench_e2e --all --seed N [--seconds S] [--smoke] [--out FILE]\n       \
         bench_e2e --compare A.json B.json\nworkloads: {}",
        names.join(", ")
    )
}

fn read_json(path: &str) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    serde_json::from_str(&text).map_err(|e| format!("{path}: {e}"))
}

/// Parse the command line and run; `Ok(false)` is a failed check.
fn run(argv: &[String]) -> Result<bool, String> {
    let mut args = Args {
        seed: 1,
        seconds: 20.0,
        trace: false,
        smoke: false,
        spans_out: None,
    };
    let mut workload = None;
    let mut run_all = false;
    let mut out = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("{flag} needs a value\n{}", usage()))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value()?.clone()),
            "--seed" => {
                args.seed = value()?
                    .parse()
                    .map_err(|e| format!("--seed: {e}\n{}", usage()))?
            }
            "--seconds" => {
                args.seconds = value()?
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s >= 0.0)
                    .ok_or_else(|| format!("--seconds wants a number >= 0\n{}", usage()))?
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace wants 0 or 1, not {other}")),
                }
            }
            "--smoke" => args.smoke = true,
            "--spans-out" => args.spans_out = Some(value()?.clone()),
            "--out" => out = Some(value()?.clone()),
            "--all" => run_all = true,
            "--compare" => {
                let (a, b) = (value()?.clone(), value()?.clone());
                return report::compare(&read_json(&a)?, &read_json(&b)?);
            }
            other => return Err(format!("unknown argument {other}\n{}", usage())),
        }
    }
    match (run_all, workload) {
        (true, None) => all(&args, out.as_deref()),
        (false, Some(name)) => {
            let w = Workload::find(&name)
                .ok_or_else(|| format!("unknown workload {name}\n{}", usage()))?;
            let w = if args.smoke { w.smoke() } else { w };
            single(&w, &args)
        }
        _ => Err(usage()),
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match run(&argv) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(msg) => {
            eprintln!("{msg}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn names(list: &Value) -> Vec<(String, String)> {
        list.as_array()
            .expect("a list in BENCHMARK.json")
            .iter()
            .map(|d| {
                let text = |key: &str| d[key].as_str().unwrap_or_default().to_string();
                (text("name"), text("unit"))
            })
            .collect()
    }

    /// Every workload and metric `BENCHMARK.json` names is emitted by the
    /// runner, under that name and unit and in that order, and nothing
    /// else is.
    #[test]
    fn the_runner_emits_what_benchmark_json_names() {
        let contract: Value = serde_json::from_str(report::BENCHMARK).expect("BENCHMARK.json");
        let well_formed = |name: &str| {
            !name.is_empty()
                && name.len() <= 64
                && name
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
        };
        let listed: Vec<String> = names(&contract["workloads"])
            .into_iter()
            .map(|(n, _)| n)
            .collect();
        let run: Vec<&str> = workloads::ALL.iter().map(|w| w.name).collect();
        assert_eq!(listed, run);
        assert!(listed.iter().all(|n| well_formed(n)));

        for w in &workloads::ALL {
            for (trace, key) in [(false, "end_to_end"), (true, "per_layer")] {
                let args = Args {
                    seed: 3,
                    seconds: 0.0,
                    trace,
                    smoke: true,
                    spans_out: None,
                };
                let outcome = run_workload(&w.smoke(), &args).expect("the workload runs");
                assert!(outcome.correct, "{} --trace {trace}", w.name);
                assert_eq!(outcome.failed, 0);
                let result = report::result_json(trace, &outcome);
                let Value::Object(emitted) = &result["metrics"] else {
                    panic!("metrics is an object");
                };
                let emitted: Vec<(String, String)> = emitted
                    .iter()
                    .map(|(n, m)| {
                        (
                            n.clone(),
                            m["unit"].as_str().unwrap_or_default().to_string(),
                        )
                    })
                    .collect();
                assert_eq!(emitted, names(&contract[key]), "{} {key}", w.name);
                assert!(emitted.iter().all(|(n, _)| well_formed(n)));
                assert!(result["metrics"].to_compact_string().contains("\"value\":"));
            }
        }
    }

    #[test]
    fn the_command_line_is_checked() {
        let argv = |s: &str| s.split(' ').map(String::from).collect::<Vec<_>>();
        assert!(run(&argv("--workload nonesuch --seed 1")).is_err());
        assert!(run(&argv("--workload theta_saturated --trace 2")).is_err());
        assert!(run(&argv("--seed")).is_err());
        assert!(run(&argv("--all --workload theta_saturated")).is_err());
        assert!(run(&argv("--compare only-one.json")).is_err());
    }
}

//! Metric names and units, the JSON the runner prints, and `--compare`.
//!
//! `BENCHMARK.json` at the root of the repository is the contract; it is
//! compiled in, so `--compare` reads directions and bounds from the same
//! file the pipeline does, and a test holds the tables below to it.

use serde_json::{json, Value};

/// The benchmark's contract, as committed.
pub const BENCHMARK: &str = include_str!("../../BENCHMARK.json");

/// `(name, unit)` of each end-to-end metric, as printed with `--trace 0`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("jobs_per_sec", "1/s"),
    ("traced_jobs_per_sec", "1/s"),
    ("setup_s", "s"),
    ("comm_cost_ratio", "ratio"),
];

/// `(name, unit, exact)` of each per-layer metric, as printed with
/// `--trace 1`. An exact metric is a count or a simulated quantity: it
/// repeats to the bit for one seed and must not move under a speed-only
/// change.
pub const PER_LAYER: &[(&str, &str, bool)] = &[
    ("topology.build_s", "s", false),
    ("workload.generate_s", "s", false),
    ("workload.swf_roundtrip_s", "s", false),
    ("core.state.new_s", "s", false),
    ("core.select.calls", "count", true),
    ("core.select.busy_s", "s", false),
    ("core.select.ns_per_call", "ns", false),
    ("core.select.default_busy_s", "s", false),
    ("core.eval.calls", "count", true),
    ("core.eval.busy_s", "s", false),
    ("core.eval.ns_per_call", "ns", false),
    ("core.state.allocate_busy_s", "s", false),
    ("core.state.release_busy_s", "s", false),
    ("core.state.nodes_touched", "count", true),
    ("core.state.ns_per_node", "ns", false),
    ("slurmsim.run_s", "s", false),
    ("slurmsim.self_s", "s", false),
    ("slurmsim.self_share", "ratio", false),
    ("slurmsim.passes", "count", true),
    ("slurmsim.passes_per_job", "ratio", true),
    ("slurmsim.self_us_per_pass", "us", false),
    ("slurmsim.started", "count", true),
    ("slurmsim.backfilled", "count", true),
    ("slurmsim.backfill_share", "ratio", true),
    ("slurmsim.peak_pending", "count", true),
    ("slurmsim.sim_exec_hours", "h", true),
    ("slurmsim.sim_wait_hours", "h", true),
    ("slurmsim.sim_makespan_h", "h", true),
    ("trace.events", "count", true),
    ("trace.overhead_pct", "%", false),
    ("trace.render_s", "s", false),
    ("trace.bytes", "B", true),
    ("trace.render_mb_per_s", "MB/s", false),
    ("metrics.report_render_s", "s", false),
    ("metrics.report_bytes", "B", true),
    ("process.peak_rss_mb", "MB", false),
    ("bench.shadow_s", "s", false),
    ("bench.shadow_overhead_s", "s", false),
    ("bench.shadow_mismatches", "count", true),
];

/// The simulated end-to-end metric: exact for one seed, like the exact
/// per-layer metrics, although across seeds it has a spread and a bound.
const EXACT_END_TO_END: &str = "comm_cost_ratio";

/// `setup_s` may differ by this much whatever its bound says: set-up of
/// the small machines takes a few milliseconds, and a tenth of that is
/// below what the host's clock and allocator repeat to.
const SETUP_FLOOR_S: f64 = 0.002;

/// Measured values by metric name.
pub type Values = Vec<(&'static str, f64)>;

/// What one run of one workload found.
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub digest: u64,
    pub values: Values,
}

/// The `metrics` object for a run with `--trace 0` or `--trace 1`: every
/// metric of that mode, in the contract's order, each with its unit.
/// Panics if `values` is not exactly that set — the set a mode prints is
/// fixed by the contract, not by what a run happened to compute.
pub fn metrics_for(trace: bool, values: &Values) -> Value {
    let units: Vec<(&str, &str)> = if trace {
        PER_LAYER.iter().map(|&(n, u, _)| (n, u)).collect()
    } else {
        END_TO_END.to_vec()
    };
    assert_eq!(units.len(), values.len(), "a metric too many or too few");
    Value::Object(
        units
            .into_iter()
            .map(|(name, unit)| {
                let (_, value) = values
                    .iter()
                    .find(|(n, _)| *n == name)
                    .unwrap_or_else(|| panic!("metric {name} was not computed"));
                (name.to_string(), json!({"value": *value, "unit": unit}))
            })
            .collect(),
    )
}

/// The object a run prints as the last line of its standard output.
pub fn result_json(trace: bool, o: &Outcome) -> Value {
    json!({
        "correct": o.correct,
        "attempted": o.attempted,
        "failed": o.failed,
        "metrics": metrics_for(trace, &o.values),
    })
}

/// A human-readable table of one metrics object.
pub fn print_metrics(metrics: &Value) {
    let Value::Object(entries) = metrics else {
        return;
    };
    for (name, m) in entries {
        let value = m["value"].as_f64().unwrap_or(f64::NAN);
        println!(
            "  {name:<32} {value:>18.6} {}",
            m["unit"].as_str().unwrap_or("?")
        );
    }
}

/// One line of a comparison, and whether the metric is within its limit:
/// `bound` for a measured metric, equality to the bit for an exact one.
fn compare_metric(name: &str, a: f64, b: f64, better: &str, bound: Option<f64>) -> (String, bool) {
    let rel = if a == 0.0 { b - a } else { (b - a) / a.abs() };
    let (ok, limit) = match bound {
        None => (a.to_bits() == b.to_bits(), "exact".to_string()),
        Some(bound) => {
            let worse = if better == "higher" { -rel } else { rel };
            let within_floor = name == "setup_s" && (b - a).abs() <= SETUP_FLOOR_S;
            (
                worse <= bound || within_floor,
                format!("{:.1}%", bound * 100.0),
            )
        }
    };
    let line = format!(
        "  {name:<28} {a:>16.6} {b:>16.6} {:>+9.2}%  limit {limit:<7} {}",
        rel * 100.0,
        if ok { "ok" } else { "EXCEEDED" }
    );
    (line, ok)
}

/// Compare two `--all` documents: per workload, every end-to-end metric
/// against its bound, and the digest, the counts and the simulated
/// metrics for equality. Prints the table; `Ok(false)` if any row exceeds
/// its limit.
pub fn compare(a: &Value, b: &Value) -> Result<bool, String> {
    let contract: Value = serde_json::from_str(BENCHMARK).map_err(|e| e.to_string())?;
    let workloads = |doc: &'_ Value| -> Result<Vec<Value>, String> {
        doc["workloads"]
            .as_array()
            .cloned()
            .ok_or_else(|| "not a bench_e2e --all document: no `workloads` array".to_string())
    };
    let (wa, wb) = (workloads(a)?, workloads(b)?);
    if a["seed"] != b["seed"] {
        println!(
            "seeds differ ({} and {}): digests, counts and simulated metrics will too",
            a["seed"], b["seed"]
        );
    }
    let mut all_ok = true;
    for x in &wa {
        let name = x["name"].as_str().unwrap_or("?");
        let Some(y) = wb.iter().find(|y| y["name"] == x["name"]) else {
            println!("{name}: only in the first document");
            all_ok = false;
            continue;
        };
        println!("{name}");
        let same = x["outcome_digest"] == y["outcome_digest"];
        println!(
            "  outcome_digest {} {} {}",
            x["outcome_digest"],
            y["outcome_digest"],
            if same { "ok" } else { "DIFFERENT" }
        );
        all_ok &= same;
        for def in contract["end_to_end"].as_array().into_iter().flatten() {
            let metric = def["name"].as_str().unwrap_or("?");
            let value = |w: &Value| {
                w["end_to_end"][metric]["value"]
                    .as_f64()
                    .ok_or_else(|| format!("{name}: no end-to-end metric {metric}"))
            };
            let bound = (metric != EXACT_END_TO_END).then(|| def["bound"].as_f64().unwrap_or(0.0));
            let better = def["better"].as_str().unwrap_or("lower");
            let (line, ok) = compare_metric(metric, value(x)?, value(y)?, better, bound);
            println!("{line}");
            all_ok &= ok;
        }
        for &(metric, _, exact) in PER_LAYER {
            let value = |w: &Value| w["per_layer"][metric]["value"].as_f64();
            if let (true, Some(va), Some(vb)) = (exact, value(x), value(y)) {
                let (line, ok) = compare_metric(metric, va, vb, "lower", None);
                // Exact metrics fill the screen when they agree; show
                // the ones that do not.
                if !ok {
                    println!("{line}");
                }
                all_ok &= ok;
            }
        }
    }
    for y in &wb {
        if !wa.iter().any(|x| x["name"] == y["name"]) {
            println!("{}: only in the second document", y["name"]);
            all_ok = false;
        }
    }
    Ok(all_ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn doc(jobs_per_sec: f64, setup_s: f64, ratio: f64, passes: f64, digest: &str) -> Value {
        let m = |v: f64| json!({"value": v, "unit": "x"});
        json!({
            "seed": 1u64,
            "workloads": [{
                "name": "theta_saturated",
                "outcome_digest": digest,
                "end_to_end": {
                    "jobs_per_sec": m(jobs_per_sec),
                    "traced_jobs_per_sec": m(1000.0),
                    "setup_s": m(setup_s),
                    "comm_cost_ratio": m(ratio),
                },
                "per_layer": {"slurmsim.passes": m(passes)},
            }],
        })
    }

    #[test]
    fn compare_applies_bounds_in_the_metric_s_direction() {
        let base = doc(1000.0, 0.5, 0.9, 40.0, "ab");
        assert_eq!(compare(&base, &base), Ok(true));
        // Much faster is never a regression; a little slower is within the
        // bound; far slower is not.
        assert_eq!(compare(&base, &doc(5000.0, 0.5, 0.9, 40.0, "ab")), Ok(true));
        assert_eq!(compare(&base, &doc(990.0, 0.5, 0.9, 40.0, "ab")), Ok(true));
        assert_eq!(compare(&base, &doc(500.0, 0.5, 0.9, 40.0, "ab")), Ok(false));
        // Lower is better for set-up.
        assert_eq!(compare(&base, &doc(1000.0, 0.1, 0.9, 40.0, "ab")), Ok(true));
        assert_eq!(
            compare(&base, &doc(1000.0, 0.9, 0.9, 40.0, "ab")),
            Ok(false)
        );
    }

    #[test]
    fn compare_wants_simulated_results_and_counts_to_the_bit() {
        let base = doc(1000.0, 0.5, 0.9, 40.0, "ab");
        assert_eq!(
            compare(&base, &doc(1000.0, 0.5, 0.9001, 40.0, "ab")),
            Ok(false)
        );
        assert_eq!(
            compare(&base, &doc(1000.0, 0.5, 0.9, 41.0, "ab")),
            Ok(false)
        );
        assert_eq!(
            compare(&base, &doc(1000.0, 0.5, 0.9, 40.0, "cd")),
            Ok(false)
        );
    }

    #[test]
    fn compare_lets_a_millisecond_set_up_jitter() {
        let base = doc(1000.0, 0.004, 0.9, 40.0, "ab");
        assert_eq!(
            compare(&base, &doc(1000.0, 0.0055, 0.9, 40.0, "ab")),
            Ok(true)
        );
        assert_eq!(
            compare(&base, &doc(1000.0, 0.0070, 0.9, 40.0, "ab")),
            Ok(false)
        );
    }

    #[test]
    fn compare_rejects_a_document_of_another_shape() {
        assert!(compare(&json!({"x": 1u64}), &json!({"x": 1u64})).is_err());
    }

    #[test]
    #[should_panic(expected = "was not computed")]
    fn metrics_json_refuses_a_missing_metric() {
        let mut values: Values = END_TO_END.iter().map(|&(n, _)| (n, 1.0)).collect();
        values[0].0 = "something_else";
        metrics_for(false, &values);
    }
}

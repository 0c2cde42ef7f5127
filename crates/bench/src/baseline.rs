//! Baseline regression checks for the `BENCH_*.json` runners.
//!
//! Both runners write a `results` array of `{ "case": ..,
//! "median_ns": .. }` entries. In `--check` mode they re-measure the
//! cases and compare against the checked-in medians, failing when a
//! case regresses beyond a factor — the CI gate that keeps the optimized
//! paths honest without requiring stable absolute numbers across machines.

use serde_json::Value;

/// Factor beyond which a live median counts as a regression.
const REGRESSION_FACTOR: f64 = 2.0;

/// Compare live `(case, median_ns)` measurements against the
/// `results` array of a baseline JSON written by the same runner.
///
/// Returns one human-readable line per case, or an error naming every
/// case whose live median exceeds `factor` times its baseline. Cases
/// missing from the baseline are reported but never fail — a new scenario
/// must be able to land together with its first recorded numbers.
fn check_medians(
    baseline: &Value,
    live: &[(String, f64)],
    factor: f64,
) -> Result<Vec<String>, String> {
    let entries = baseline["results"].as_array().cloned().unwrap_or_default();
    let mut lines = Vec::new();
    let mut failures = Vec::new();
    for (case, live_ns) in live {
        let Some(base_ns) = entries
            .iter()
            .find(|e| e["case"].as_str() == Some(case))
            .and_then(|e| e["median_ns"].as_f64())
        else {
            lines.push(format!("{case}: no baseline entry, skipped"));
            continue;
        };
        let ratio = live_ns / base_ns;
        let line = format!(
            "{case}: live {:.1} µs vs baseline {:.1} µs ({ratio:.2}x)",
            live_ns / 1e3,
            base_ns / 1e3
        );
        if ratio > factor {
            failures.push(format!("{line} — exceeds {factor}x"));
        } else {
            lines.push(line);
        }
    }
    if failures.is_empty() {
        Ok(lines)
    } else {
        Err(failures.join("\n"))
    }
}

/// Load a baseline file and run [`check_medians`], exiting the
/// process with a report on stderr. Shared `--check` entry point for the
/// bench binaries.
pub fn check_or_exit(path: &str, live: &[(String, f64)]) -> ! {
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("error: cannot read baseline {path}: {e}");
            std::process::exit(1);
        }
    };
    let baseline: Value = match serde_json::from_str(&text) {
        Ok(v) => v,
        Err(e) => {
            eprintln!("error: baseline {path} is not valid JSON: {e}");
            std::process::exit(1);
        }
    };
    match check_medians(&baseline, live, REGRESSION_FACTOR) {
        Ok(lines) => {
            for line in lines {
                eprintln!("ok: {line}");
            }
            eprintln!("check passed against {path}");
            std::process::exit(0);
        }
        Err(report) => {
            eprintln!("regression detected against {path}:\n{report}");
            std::process::exit(1);
        }
    }
}

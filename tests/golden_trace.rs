//! Golden-trace conformance suite.
//!
//! Every scenario in `commsched_bench::experiments::GOLDEN_SCENARIOS` is
//! run at a pinned scale (jobs=24, seed=7; the two backlog scenarios
//! multiply the job count) and its full-class JSONL trace
//! and pretty `RunReport` JSON are compared **byte for byte** against the
//! checked-in files under `tests/golden/`. Traces derive only from virtual
//! time and seeded state, so any diff here is a real behavior change — in
//! the scheduler, the flow solver, the event schema, or the JSON
//! rendering — and must be either fixed or deliberately re-blessed.
//!
//! To re-bless after an intentional change:
//!
//! ```text
//! GOLDEN_BLESS=1 cargo test --test golden_trace
//! git diff tests/golden/   # review what actually changed
//! ```

use commsched_bench::experiments::{run_golden, GOLDEN_SCENARIOS};
use std::path::PathBuf;

/// The pinned golden scale. Changing either constant re-keys every golden
/// file, so bump them only together with a bless.
const JOBS: usize = 24;
const SEED: u64 = 7;

fn golden_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("golden")
}

#[expect(clippy::disallowed_methods, reason = "GOLDEN_BLESS rewrites goldens")]
fn blessing() -> bool {
    std::env::var("GOLDEN_BLESS").is_ok_and(|v| v == "1")
}

/// Show the first diverging line instead of dumping two multi-KB blobs.
fn assert_same(name: &str, file: &str, expected: &str, actual: &str) {
    if expected == actual {
        return;
    }
    let mismatch = expected
        .lines()
        .zip(actual.lines())
        .enumerate()
        .find(|(_, (e, a))| e != a);
    match mismatch {
        Some((i, (e, a))) => panic!(
            "{name}: {file} differs from golden at line {}:\n  golden: {e}\n  actual: {a}\n\
             re-bless with GOLDEN_BLESS=1 if this change is intentional",
            i + 1
        ),
        None => panic!(
            "{name}: {file} differs from golden in length ({} vs {} bytes); \
             re-bless with GOLDEN_BLESS=1 if this change is intentional",
            expected.len(),
            actual.len()
        ),
    }
}

#[test]
fn traces_match_golden_files() {
    let dir = golden_dir();
    let bless = blessing();
    if bless {
        std::fs::create_dir_all(&dir).expect("create tests/golden");
    }
    for name in GOLDEN_SCENARIOS {
        let (trace, report) = run_golden(name, JOBS, SEED).expect("known scenario");
        assert!(!trace.is_empty(), "{name}: scenario produced no events");

        // Replay stability first: if the same process cannot reproduce its
        // own bytes, comparing against a checked-in file is meaningless.
        let (trace2, report2) = run_golden(name, JOBS, SEED).expect("known scenario");
        assert_eq!(trace, trace2, "{name}: trace not replay-stable");
        assert_eq!(report, report2, "{name}: report not replay-stable");

        let tpath = dir.join(format!("{name}.trace.jsonl"));
        let rpath = dir.join(format!("{name}.report.json"));
        if bless {
            std::fs::write(&tpath, &trace).expect("write golden trace");
            std::fs::write(&rpath, &report).expect("write golden report");
            continue;
        }
        let want_trace = std::fs::read_to_string(&tpath).unwrap_or_else(|e| {
            panic!(
                "missing golden file {} ({e}); run GOLDEN_BLESS=1 cargo test --test golden_trace",
                tpath.display()
            )
        });
        let want_report = std::fs::read_to_string(&rpath).unwrap_or_else(|e| {
            panic!(
                "missing golden file {} ({e}); run GOLDEN_BLESS=1 cargo test --test golden_trace",
                rpath.display()
            )
        });
        assert_same(name, "trace", &want_trace, &trace);
        assert_same(name, "report", &want_report, &report);
    }
}

/// The golden files themselves must be well-formed JSONL/JSON — guards
/// against a bad hand edit or a truncated bless.
#[test]
fn golden_files_are_well_formed() {
    if blessing() {
        return; // files may not exist yet mid-bless
    }
    for name in GOLDEN_SCENARIOS {
        let trace = std::fs::read_to_string(golden_dir().join(format!("{name}.trace.jsonl")))
            .expect("golden trace present");
        let mut last_t = 0u64;
        for (i, line) in trace.lines().enumerate() {
            let v: serde_json::Value = serde_json::from_str(line).expect("valid JSON line");
            assert_eq!(
                v.get("seq").and_then(|s| s.as_u64()),
                Some(i as u64),
                "{name}: sequence numbers must be dense"
            );
            let t = v.get("t_us").and_then(|t| t.as_u64()).expect("t_us");
            assert!(t >= last_t, "{name}: timestamps must be non-decreasing");
            assert!(v.get("ev").is_some(), "{name}: every event is tagged");
            last_t = t;
        }
        let report = std::fs::read_to_string(golden_dir().join(format!("{name}.report.json")))
            .expect("golden report present");
        let v: serde_json::Value = serde_json::from_str(&report).expect("valid report JSON");
        assert_eq!(
            v.get("version").and_then(|x| x.as_u64()),
            Some(commsched::metrics::RUN_REPORT_VERSION),
            "{name}: report version"
        );
    }
}

/// The two scheduling-pass scenarios must keep exercising what they were
/// added for: a queue deeper than 200 scanned by EASY with a front requeue
/// on the path, and a conservative pass that actually backfills.
#[test]
fn backlog_scenarios_stay_deep() {
    let count = |trace: &str, needle: &str| trace.lines().filter(|l| l.contains(needle)).count();

    let (trace, _) = run_golden("deep-queue-easy", JOBS, SEED).expect("known scenario");
    let (mut pending, mut peak) = (0usize, 0usize);
    for line in trace.lines() {
        if line.contains("\"ev\":\"eligible\"") {
            pending += 1;
            peak = peak.max(pending);
        } else if line.contains("\"ev\":\"start\"") {
            pending -= 1;
        }
    }
    assert!(peak >= 200, "deep-queue-easy peaked at {peak} pending jobs");
    assert_eq!(count(&trace, "\"ev\":\"requeue\""), 1);
    assert!(count(&trace, "\"backfilled\":true") >= 20);

    let (trace, _) = run_golden("conservative-backfill", JOBS, SEED).expect("known scenario");
    assert!(count(&trace, "\"backfilled\":true") >= 5);
}

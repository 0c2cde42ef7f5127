//! Measure fast-vs-naive placement evaluation and write `BENCH_engine.json`.
//!
//! The seed revision cannot be rebuilt in this offline environment, so the
//! baseline is the *retained* naive pipeline measured in the same binary,
//! in two tiers:
//!
//! * **placement** rows (`theta_256` … `dragonfly_1m`): clone-based
//!   what-if states + four `job_cost` traversals per component (see
//!   [`commsched_bench::perf`]) vs the fused
//!   [`commsched_core::PlacementEvaluator`] path;
//! * **selection** rows (`select_*`): the retained linear-scan selectors
//!   (`commsched_core::select_scan`, O(cluster size) per placement) vs the
//!   production free-count-index descent, on the exascale presets up to
//!   the 1,048,576-node dragonfly.
//!
//! Medians of `ITERS` single placements, in nanoseconds.
//!
//! ```text
//! cargo run --release -p commsched-bench --bin bench_engine [out.json]
//! cargo run --release -p commsched-bench --bin bench_engine -- --check BENCH_engine.json
//! ```
//!
//! `--check` re-measures the fast paths and fails (exit 1) if any case
//! regresses more than 2x against the baseline's medians. Both modes also
//! enforce the exascale gate: indexed selection on the 1M-node preset must
//! beat the linear scan by at least [`GATE_MIN_SPEEDUP`]x — a
//! machine-independent ratio, measured live.

#![expect(clippy::disallowed_methods, reason = "bench bins time themselves")]
use commsched_bench::baseline;
use commsched_bench::perf::PlacementCase;
use commsched_core::PlacementEvaluator;
use commsched_topology::SystemPreset;
use std::sync::{Arc, Mutex};
use std::time::Instant;

const ITERS: usize = 31;

/// The exascale selection case and the scan-vs-index speedup it must hold.
const GATE_CASE: &str = "select_dragonfly_1m";
const GATE_MIN_SPEEDUP: f64 = 5.0;

/// The annealed-search throughput case (`sa_theta_256`): evaluator budget
/// per search, and the proposal-evaluation rate the scratch what-if path
/// must sustain on the Theta preset. Like the exascale gate, the floor is
/// checked live in both modes — throughput this far above the bar is a
/// structural property (no clones, memo re-stamped per proposal), not a
/// machine constant.
const SA_BUDGET: u32 = 512;
const SA_MIN_EVALS_PER_SEC: f64 = 100_000.0;

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

/// One measured row: a fast path against its retained-naive baseline.
struct Row {
    label: String,
    /// `"placement"` (evaluator fast-vs-naive) or `"selection"`
    /// (index-vs-scan).
    kind: &'static str,
    nodes: usize,
    want: usize,
    naive_ns: f64,
    fast_ns: f64,
}

/// Request size for the pure-selection rows: a typical job from the
/// paper's workloads. Selection output is proportional to the request, so
/// a moderate size keeps the measurement on the search-and-order work the
/// index replaces rather than on materializing the placement — which is
/// identical on both paths.
const SELECT_WANT: usize = 256;

/// Measure both paths on every case. Placement (fast evaluator vs naive
/// clone-based pipeline) runs where the naive path is affordable; pure
/// selection (indexed vs linear scan) runs everywhere, including the
/// 500k/1M presets where the scan is the dominant cost being replaced.
fn measure() -> Vec<Row> {
    let cases = [
        ("theta_256", SystemPreset::Theta, 256usize, true),
        ("mira_2048", SystemPreset::Mira, 2048usize, true),
        (
            "multirail_500k",
            SystemPreset::Multirail500k,
            4096usize,
            false,
        ),
        ("dragonfly_1m", SystemPreset::Dragonfly1M, 4096usize, true),
    ];
    let mut rows = Vec::new();
    for (label, preset, want, placement) in cases {
        let case = PlacementCase::new(preset, want);
        let nodes = case.tree.num_nodes();

        if placement {
            let eval = Arc::new(Mutex::new(PlacementEvaluator::new()));
            // The two paths must agree exactly before timing means anything.
            let naive = case.place_naive();
            let fast = case.place_fast(&eval);
            assert_eq!(
                naive.cost_actual.to_bits(),
                fast.cost_actual.to_bits(),
                "{label}: fast path diverged from naive"
            );
            assert_eq!(naive.cost_default.to_bits(), fast.cost_default.to_bits());
            assert_eq!(naive.adjusted.to_bits(), fast.adjusted.to_bits());

            let naive_ns = median_ns(ITERS, || {
                std::hint::black_box(case.place_naive());
            });
            let fast_ns = median_ns(ITERS, || {
                std::hint::black_box(case.place_fast(&eval));
            });
            rows.push(Row {
                label: label.to_string(),
                kind: "placement",
                nodes,
                want,
                naive_ns,
                fast_ns,
            });
        }

        // Pure selection: the indexed descent must choose exactly the
        // nodes of the retained scans before timing means anything (a
        // placement lists its ids ascending, a scan in fill order).
        let indexed: Vec<_> = case
            .select_indexed(SELECT_WANT)
            .iter()
            .map(|p| p.nodes())
            .collect();
        let mut scanned = case.select_scan(SELECT_WANT);
        scanned.iter_mut().for_each(|ids| ids.sort_unstable());
        assert_eq!(
            indexed, scanned,
            "{label}: indexed selectors diverged from the scan baselines"
        );
        let scan_ns = median_ns(ITERS, || {
            std::hint::black_box(case.select_scan(SELECT_WANT));
        });
        let indexed_ns = median_ns(ITERS, || {
            std::hint::black_box(case.select_indexed(SELECT_WANT));
        });
        rows.push(Row {
            label: format!("select_{label}"),
            kind: "selection",
            nodes,
            want: SELECT_WANT,
            naive_ns: scan_ns,
            fast_ns: indexed_ns,
        });
    }
    rows
}

/// Measure annealed-search throughput: whole seeded searches on the Theta
/// preset (a 256-node comm probe over the half-occupied cluster), counting
/// actual evaluator calls. Distinct seeds per search keep the walk from
/// replaying one memoized trajectory; the shared evaluator is reused
/// across searches exactly as the engine reuses it across jobs.
fn measure_sa() -> f64 {
    let case = PlacementCase::new(SystemPreset::Theta, 256);
    let eval = Arc::new(Mutex::new(PlacementEvaluator::new()));
    // Warm-up search: the annealing loop must actually run here, or the
    // throughput number would be measuring the incumbent fast path.
    let warm = case
        .run_sa(SA_BUDGET, 7, &eval)
        .expect("theta case enters the annealing loop");
    assert!(warm.evals > 0, "warm-up search performed no evaluations");
    let mut total_evals = 0u64;
    let t = Instant::now();
    for i in 0..ITERS {
        let stats = case
            .run_sa(SA_BUDGET, 7 + i as u64, &eval)
            .expect("theta case enters the annealing loop");
        total_evals += u64::from(stats.evals);
    }
    commsched_core::evals_per_sec(total_evals, t.elapsed().as_nanos() as u64)
}

/// Enforce the annealed-search throughput floor; exits 1 when it fails.
fn check_sa_gate(eps: f64) {
    if eps < SA_MIN_EVALS_PER_SEC {
        eprintln!(
            "gate FAILED: sa_theta_256 sustains only {eps:.0} evals/s \
             (required: {SA_MIN_EVALS_PER_SEC:.0})"
        );
        std::process::exit(1);
    }
    eprintln!(
        "gate ok: sa_theta_256 {:.2}M sa evals/s (floor {:.1}M)",
        eps / 1e6,
        SA_MIN_EVALS_PER_SEC / 1e6
    );
}

/// Enforce the exascale gate on live numbers; exits 1 when it fails.
fn check_gate(rows: &[Row]) {
    let gate = rows
        .iter()
        .find(|r| r.label == GATE_CASE)
        .unwrap_or_else(|| panic!("gate case {GATE_CASE} was not measured"));
    let speedup = gate.naive_ns / gate.fast_ns;
    if speedup < GATE_MIN_SPEEDUP {
        eprintln!(
            "gate FAILED: {GATE_CASE} indexed selection is only {speedup:.2}x over the \
             linear scan (required: {GATE_MIN_SPEEDUP}x)"
        );
        std::process::exit(1);
    }
    eprintln!("gate ok: {GATE_CASE} indexed selection {speedup:.1}x over the linear scan");
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();

    if args.first().map(String::as_str) == Some("--check") {
        let Some(path) = args.get(1) else {
            eprintln!("usage: bench_engine --check <baseline.json>");
            std::process::exit(2);
        };
        let rows = measure();
        check_gate(&rows);
        check_sa_gate(measure_sa());
        let live: Vec<(String, f64)> = rows.into_iter().map(|r| (r.label, r.fast_ns)).collect();
        baseline::check_or_exit(path, &live);
    }

    let out = args
        .first()
        .cloned()
        .unwrap_or_else(|| "BENCH_engine.json".to_string());
    let rows = measure();

    let mut entries = Vec::new();
    for row in &rows {
        let Row {
            label,
            kind,
            nodes,
            want,
            naive_ns,
            fast_ns,
        } = row;
        let speedup = naive_ns / fast_ns;
        let baseline_key = if *kind == "selection" {
            "scan_median_ns"
        } else {
            "naive_median_ns"
        };
        eprintln!(
            "{label}: baseline {:.1} µs, fast {:.1} µs, speedup {speedup:.1}x",
            naive_ns / 1e3,
            fast_ns / 1e3
        );
        entries.push(format!(
            "    {{\n      \"case\": \"{label}\",\n      \"kind\": \"{kind}\",\n      \"nodes\": {nodes},\n      \"request\": {want},\n      \"{baseline_key}\": {naive_ns:.0},\n      \"fast_median_ns\": {fast_ns:.0},\n      \"speedup\": {speedup:.2}\n    }}"
        ));
    }

    check_gate(&rows);
    let sa_eps = measure_sa();
    check_sa_gate(sa_eps);

    // `sa` is an absolute-throughput case, not a fast-vs-naive pair, so it
    // lives outside `results` (the regression checker compares
    // `fast_median_ns` entries; the SA floor is re-measured live instead).
    let json = format!(
        "{{\n  \"bench\": \"placement evaluation (fast vs retained-naive) and node selection (free-count index vs retained linear scan)\",\n  \"iters\": {ITERS},\n  \"gate\": {{\n    \"case\": \"{GATE_CASE}\",\n    \"min_speedup\": {GATE_MIN_SPEEDUP:.1}\n  }},\n  \"sa\": {{\n    \"case\": \"sa_theta_256\",\n    \"budget\": {SA_BUDGET},\n    \"searches\": {ITERS},\n    \"sa_evals_per_sec\": {sa_eps:.0},\n    \"min_evals_per_sec\": {SA_MIN_EVALS_PER_SEC:.0}\n  }},\n  \"results\": [\n{}\n  ]\n}}\n",
        entries.join(",\n")
    );
    if let Err(e) = std::fs::write(&out, json) {
        eprintln!("error: cannot write {out}: {e}");
        std::process::exit(1);
    }
    eprintln!("wrote {out}");
}

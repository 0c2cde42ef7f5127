//! Measure placement evaluation and node selection and write
//! `BENCH_engine.json`.
//!
//! Two kinds of row, each the shipped path on a half-occupied preset (see
//! [`commsched_bench::perf`]): **placement** (`theta_256` … `dragonfly_1m`)
//! is one whole placement as the engine performs it — adaptive decision
//! plus the Eq. 6/Eq. 7 numbers through the shared evaluator; **selection**
//! (`select_*`) is the three direct selectors back to back over the
//! free-count index (`select_dragonfly_1m_leaf`: a request one leaf
//! serves). Medians of `ITERS` single placements, in nanoseconds.
//! That these paths compute what their slow references compute is checked
//! by tests at these sizes (`commsched-core`, `tests::scale`); what a
//! change does to whole runs is `bench_e2e --compare parent change`.
//!
//! ```text
//! cargo run --release -p commsched-bench --bin bench_engine [out.json]
//! cargo run --release -p commsched-bench --bin bench_engine -- --check BENCH_engine.json
//! ```
//!
//! `--check` fails (exit 1) if any case regresses more than 2x against the
//! baseline's medians. Both modes enforce two live gates: selection on the
//! 1M-node preset may cost at most [`GATE_MAX_RATIO`]x selection on the
//! 4,392-node one (a machine-independent ratio, which a selector that
//! scans the machine misses by orders of magnitude), and the annealed
//! search must sustain [`SA_MIN_EVALS_PER_SEC`].

#![expect(clippy::disallowed_methods, reason = "bench bins time themselves")]
use commsched_bench::baseline;
use commsched_bench::perf::PlacementCase;
use commsched_core::PlacementEvaluator;
use commsched_topology::SystemPreset;
use std::sync::{Arc, Mutex};
use std::time::Instant;

const ITERS: usize = 31;

/// The sublinearity gate: the exascale selection case, the small-machine
/// case it is held against, and the largest ratio allowed between them
/// (239x the nodes; measured 1.3x).
const GATE_CASE: &str = "select_dragonfly_1m";
const GATE_AGAINST: &str = "select_theta_256";
const GATE_MAX_RATIO: f64 = 4.0;

/// The annealed-search throughput case (`sa_theta_256`): evaluator budget
/// per search, and the proposal-evaluation rate the overlay what-if path
/// must sustain on the Theta preset — throughput this far above the bar
/// is a structural property (no clones, memo re-stamped per proposal),
/// not a machine constant.
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

/// One measured row.
struct Row {
    label: String,
    /// `"placement"` or `"selection"`.
    kind: &'static str,
    nodes: usize,
    want: usize,
    median_ns: f64,
}

/// Request size for the pure-selection rows: a typical job from the
/// paper's workloads. Selection output is proportional to the request, so
/// a moderate size keeps the measurement on the search-and-order work the
/// index does rather than on materializing the placement.
const SELECT_WANT: usize = 256;

/// Request size for `select_dragonfly_1m_leaf`: half of one 64-node
/// router, so every selector is served by one leaf and the row times the
/// level-1 best-fit query over the 16,384-entry leaf set.
const LEAF_WANT: usize = 32;

/// Measure one whole placement and one pure selection on every preset.
fn measure() -> Vec<Row> {
    let cases = [
        ("theta_256", SystemPreset::Theta, 256usize),
        ("mira_2048", SystemPreset::Mira, 2048usize),
        ("multirail_500k", SystemPreset::Multirail500k, 4096usize),
        ("dragonfly_1m", SystemPreset::Dragonfly1M, 4096usize),
    ];
    let mut rows = Vec::new();
    for (label, preset, want) in cases {
        let case = PlacementCase::new(preset, want);
        let nodes = case.tree.num_nodes();
        let eval = Arc::new(Mutex::new(PlacementEvaluator::new()));
        rows.push(Row {
            label: label.to_string(),
            kind: "placement",
            nodes,
            want,
            median_ns: median_ns(ITERS, || {
                std::hint::black_box(case.place(&eval));
            }),
        });
        rows.push(Row {
            label: format!("select_{label}"),
            kind: "selection",
            nodes,
            want: SELECT_WANT,
            median_ns: median_ns(ITERS, || {
                std::hint::black_box(case.select(SELECT_WANT));
            }),
        });
        if preset == SystemPreset::Dragonfly1M {
            rows.push(Row {
                label: format!("select_{label}_leaf"),
                kind: "selection",
                nodes,
                want: LEAF_WANT,
                median_ns: median_ns(ITERS, || {
                    std::hint::black_box(case.select(LEAF_WANT));
                }),
            });
        }
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
    let elapsed_ns = t.elapsed().as_nanos();
    if elapsed_ns == 0 {
        return 0.0;
    }
    total_evals as f64 * 1e9 / elapsed_ns as f64
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

/// Enforce the sublinearity gate on live numbers; exits 1 when it fails.
fn check_gate(rows: &[Row]) {
    let median_of = |case: &str| {
        rows.iter()
            .find(|r| r.label == case)
            .unwrap_or_else(|| panic!("gate case {case} was not measured"))
            .median_ns
    };
    let ratio = median_of(GATE_CASE) / median_of(GATE_AGAINST);
    if ratio > GATE_MAX_RATIO {
        eprintln!(
            "gate FAILED: {GATE_CASE} costs {ratio:.2}x {GATE_AGAINST} \
             (allowed: {GATE_MAX_RATIO}x)"
        );
        std::process::exit(1);
    }
    eprintln!("gate ok: {GATE_CASE} costs {ratio:.2}x {GATE_AGAINST} (allowed: {GATE_MAX_RATIO}x)");
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let check = args.first().map(String::as_str) == Some("--check");
    if check && args.len() < 2 {
        eprintln!("usage: bench_engine --check <baseline.json>");
        std::process::exit(2);
    }

    let rows = measure();
    check_gate(&rows);
    let sa_eps = measure_sa();
    check_sa_gate(sa_eps);
    if check {
        let live: Vec<(String, f64)> = rows.into_iter().map(|r| (r.label, r.median_ns)).collect();
        baseline::check_or_exit(&args[1], &live);
    }

    let mut entries = Vec::new();
    for row in &rows {
        let Row {
            label,
            kind,
            nodes,
            want,
            median_ns,
        } = row;
        eprintln!("{label}: {:.1} µs", median_ns / 1e3);
        entries.push(format!(
            "    {{\n      \"case\": \"{label}\",\n      \"kind\": \"{kind}\",\n      \"nodes\": {nodes},\n      \"request\": {want},\n      \"median_ns\": {median_ns:.0}\n    }}"
        ));
    }
    // `sa` is an absolute-throughput case, so it lives outside `results`
    // (the regression checker compares `median_ns` entries; the SA
    // floor is re-measured live instead).
    let json = format!(
        "{{\n  \"bench\": \"placement evaluation and node selection (shipped path)\",\n  \"iters\": {ITERS},\n  \"gate\": {{\n    \"case\": \"{GATE_CASE}\",\n    \"against\": \"{GATE_AGAINST}\",\n    \"max_ratio\": {GATE_MAX_RATIO:.1}\n  }},\n  \"sa\": {{\n    \"case\": \"sa_theta_256\",\n    \"budget\": {SA_BUDGET},\n    \"searches\": {ITERS},\n    \"sa_evals_per_sec\": {sa_eps:.0},\n    \"min_evals_per_sec\": {SA_MIN_EVALS_PER_SEC:.0}\n  }},\n  \"results\": [\n{}\n  ]\n}}\n",
        entries.join(",\n")
    );
    let out = args.first().map_or("BENCH_engine.json", String::as_str);
    if let Err(e) = std::fs::write(out, json) {
        eprintln!("error: cannot write {out}: {e}");
        std::process::exit(1);
    }
    eprintln!("wrote {out}");
}

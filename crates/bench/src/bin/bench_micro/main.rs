//! Time the scheduler's and the simulator's units of work and write
//! `BENCH_micro.json`.
//!
//! Each row is the median of [`ITERS`] single calls of a shipped path (see
//! [`commsched_bench::perf`]) in one schema — `case, kind, nodes, request,
//! median_ns`:
//!
//! - **placement** (`theta_256` … `dragonfly_1m`): `Engine::place` under
//!   all four selectors for one probe job from a frozen half-occupied
//!   state, through `individual_runs` — Table 4's unit, with the fresh
//!   evaluators a job sees after a state change;
//! - **selection** (`select_*`): the three direct selectors back to back
//!   over the free-count index;
//! - **evaluation** (`eval_theta_300`, `eval_intrepid_5000`):
//!   `PlacementEvaluator::evaluate_takes` alone — the Eq. 6 kernel — on the
//!   default fill of the half-occupied state for an RHVD request, one
//!   evaluator reused as the engine reuses its own; a sample is a batch of
//!   [`EVAL_BATCH`] calls and the row its per-call median;
//! - **state** (`state_dragonfly_1m`, `state_dragonfly_1m_run`): `allocate`
//!   then `release` of a 4,096-node placement of 64 whole leaves on
//!   Dragonfly1M — the counters' and the free-count index's upkeep, not the
//!   bit fills. The first holds every other leaf, so each leaf is a run of
//!   its own and the row times the per-leaf path; the second takes 64
//!   consecutive leaves of one group from an idle machine, one run.
//!   `state_theta_fragmented` is the bit side: the default selector's
//!   256-node placement on Theta with every other node held, so each take
//!   is every other node of its leaf;
//! - **build** (`build_dragonfly_1m`): `SystemPreset::Dragonfly1M.build()`,
//!   the tree every run on that preset starts from, dropped again;
//!   `request` counts the nodes built;
//! - **simulation** (`steady_state`, `churn`): whole flow-simulator runs;
//!   `request` counts the jobs simulated.
//!
//! Three live gates run in both modes and exit 1 on failure: selection on
//! the 1M-node preset may cost at most [`GATE_MAX_RATIO`]x selection on
//! Theta (a ratio a machine-scanning selector misses by orders of
//! magnitude); the annealed search must sustain [`SA_MIN_EVALS_PER_SEC`];
//! and a reduced Figure 6 sweep at 1, 2 and 4 rayon threads must render
//! identically and, on a multi-core host, run faster at 4 threads than at 1
//! (each count's fastest of [`SWEEP_ROUNDS`] interleaved rounds).
//!
//! ```text
//! cargo run --release -p commsched-bench --bin bench_micro [out.json]
//! cargo run --release -p commsched-bench --bin bench_micro -- --check BENCH_micro.json
//! ```
//!
//! `--check` writes nothing; it fails if a case is more than
//! [`REGRESSION_FACTOR`]x slower than the baseline's median, or if a
//! baseline case is no longer measured. A case the baseline lacks is
//! reported and skipped. That these paths compute what their slow
//! references compute is tested in `commsched-core` and `commsched-netsim`;
//! what a change does to whole runs is `bench_e2e --compare parent change`.

#![expect(clippy::disallowed_methods, reason = "bench bins time themselves")]
use commsched_bench::experiments::fig6;
use commsched_bench::perf::{NetsimCase, PlacementCase};
use commsched_bench::{ExperimentResult, Scale};
use commsched_collectives::{CollectiveSpec, Pattern};
use commsched_core::{
    AllocRequest, ClusterState, DefaultTreeSelector, GreedySelector, JobId, JobNature,
    NodeSelector, Placement, PlacementEvaluator, SelectorKind,
};
use commsched_slurmsim::individual::individual_runs;
use commsched_slurmsim::EngineConfig;
use commsched_topology::{NodeId, SystemPreset, Tree};
use rayon::ThreadPoolBuilder;
use serde::Serialize;
use serde_json::{json, Value};
use std::time::Instant;

/// Single calls per row median, and whole searches per SA measurement.
const ITERS: usize = 31;

/// Factor beyond which a live median counts as a regression in `--check`.
const REGRESSION_FACTOR: f64 = 2.0;

/// The sublinearity gate: 239x the nodes may cost at most this much more.
const GATE_CASE: &str = "select_dragonfly_1m";
const GATE_AGAINST: &str = "select_theta_256";
const GATE_MAX_RATIO: f64 = 4.0;

/// The annealed-search case (`sa_theta_256`): evaluator budget per search,
/// and the rate the overlay what-if path must sustain — a structural
/// property (no clones, memo re-stamped per proposal), not a machine
/// constant.
const SA_BUDGET: u32 = 512;
const SA_MIN_EVALS_PER_SEC: f64 = 100_000.0;

/// Selection request size: a typical job, so the row times the index's
/// search and ordering rather than materializing a placement. The
/// `_leaf` row asks for half of one 64-node Dragonfly router: the level-1
/// best-fit query over the 16,384-entry leaf set.
const SELECT_WANT: usize = 256;
const LEAF_WANT: usize = 32;

/// The state row's request: the Dragonfly1M placement row's size.
const STATE_WANT: usize = 4096;

/// The evaluation rows: the default fill of `PlacementCase`'s
/// half-occupied state for an RHVD request — on Theta a few hundred ranks
/// over two leaves, on Intrepid a few thousand over tens of leaves — and
/// the calls per sample, which a sub-microsecond call needs to rise above
/// the clock's own cost.
const EVAL_CASES: [(&str, SystemPreset, usize); 2] = [
    ("eval_theta_300", SystemPreset::Theta, 300),
    ("eval_intrepid_5000", SystemPreset::Intrepid, 5000),
];
const EVAL_BATCH: usize = 64;

/// The index rows' live keys: the root's ratio set of a two-level tree
/// whose every leaf has a ratio of its own, as many as a parent can have
/// leaf children — far past every preset's 144 (DESIGN.md §4.7).
const INDEX_KEYS: [usize; 2] = [4096, 16_384];

/// The reduced Figure 6 sweep (3 systems × 5 mixes × 4 selectors).
const SWEEP_SCALE: Scale = Scale { jobs: 40, seed: 42 };
/// Rounds of the sweep: each round runs every thread count once, in
/// turn, so a contended stretch of a shared host slows every count alike
/// instead of landing on one; each count keeps its fastest round.
const SWEEP_ROUNDS: usize = 5;
const SWEEP_THREADS: [usize; 3] = [1, 2, 4];

fn median_ns<F: FnMut()>(iters: usize, mut f: F) -> u64 {
    let mut samples: Vec<u64> = (0..iters)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_nanos() as u64
        })
        .collect();
    samples.sort_unstable();
    samples[samples.len() / 2]
}

/// One measured row, as `results` records it.
#[derive(Serialize)]
struct Row {
    case: String,
    /// `"placement"`, `"selection"`, `"evaluation"`, `"state"`, `"build"`
    /// or `"simulation"`.
    kind: &'static str,
    nodes: usize,
    /// Nodes requested, or jobs simulated.
    request: usize,
    median_ns: u64,
}

/// One placement and one selection per preset (two selections, the state
/// row and the build row on Dragonfly1M), then the evaluations and the
/// simulator runs.
fn measure_rows() -> Vec<Row> {
    let presets = [
        ("theta_256", SystemPreset::Theta, 256),
        ("mira_2048", SystemPreset::Mira, 2048),
        ("multirail_500k", SystemPreset::Multirail500k, 4096),
        ("dragonfly_1m", SystemPreset::Dragonfly1M, 4096),
    ];
    let mut rows = Vec::new();
    for (label, preset, want) in presets {
        let case = PlacementCase::new(preset, want);
        let nodes = case.tree.num_nodes();
        let row = |case: String, kind, request, median_ns| Row {
            case,
            kind,
            nodes,
            request,
            median_ns,
        };
        let probe = std::slice::from_ref(&case.probe);
        let cfg = EngineConfig::new(SelectorKind::Default);
        let ns = median_ns(ITERS, || {
            std::hint::black_box(individual_runs(&case.tree, &case.state, probe, cfg));
        });
        rows.push(row(label.into(), "placement", want, ns));
        if preset == SystemPreset::Theta {
            let (mut state, placement) = fragmented_case(&case.tree, want);
            let job = JobId(u64::MAX);
            let ns = median_ns(ITERS, || {
                state
                    .allocate(&case.tree, job, &placement, JobNature::CommIntensive)
                    .expect("the placement is free");
                std::hint::black_box(state.release(&case.tree, job).expect("just allocated"));
            });
            rows.push(row("state_theta_fragmented".into(), "state", want, ns));
        }
        let leaf = (preset == SystemPreset::Dragonfly1M).then_some(("_leaf", LEAF_WANT));
        for (suffix, want) in [("", SELECT_WANT)].into_iter().chain(leaf) {
            let ns = median_ns(ITERS, || {
                std::hint::black_box(case.select(want));
            });
            let name = format!("select_{label}{suffix}");
            rows.push(row(name, "selection", want, ns));
        }
        if preset == SystemPreset::Dragonfly1M {
            let cases = [
                ("", whole_leaf_case(&case.tree)),
                ("_run", sibling_run_case(&case.tree)),
            ];
            for (suffix, (mut state, placement)) in cases {
                let job = JobId(u64::MAX);
                let ns = median_ns(ITERS, || {
                    state
                        .allocate(&case.tree, job, &placement, JobNature::ComputeIntensive)
                        .expect("the placement is free");
                    std::hint::black_box(state.release(&case.tree, job).expect("just allocated"));
                });
                let name = format!("state_{label}{suffix}");
                rows.push(row(name, "state", STATE_WANT, ns));
            }
            let ns = median_ns(ITERS, || {
                std::hint::black_box(preset.build());
            });
            rows.push(row(format!("build_{label}"), "build", nodes, ns));
        }
    }
    for keys in INDEX_KEYS {
        let (tree, mut state, probes) = keyed_leaves_case(keys);
        let job = JobId(u64::MAX);
        let batch_ns = median_ns(ITERS, || {
            for probe in &probes {
                state
                    .allocate(&tree, job, probe, JobNature::CommIntensive)
                    .expect("the node is free");
                std::hint::black_box(state.release(&tree, job).expect("just allocated"));
            }
        });
        rows.push(Row {
            case: format!("bucket_rekey_{keys}"),
            kind: "index",
            nodes: tree.num_nodes(),
            request: keys,
            median_ns: batch_ns / EVAL_BATCH as u64,
        });
    }
    for (label, preset, want) in EVAL_CASES {
        let case = PlacementCase::new(preset, want);
        let req = AllocRequest::comm(case.probe.id, want);
        let fill = DefaultTreeSelector
            .select(&case.tree, &case.state, &req)
            .expect("half the machine is free");
        let msize = EngineConfig::new(SelectorKind::Adaptive).msize;
        let spec = CollectiveSpec::new(Pattern::Rhvd, msize);
        let mut eval = PlacementEvaluator::new();
        let batch_ns = median_ns(ITERS, || {
            for _ in 0..EVAL_BATCH {
                std::hint::black_box(eval.evaluate_takes(
                    &case.tree,
                    &case.state,
                    0.5,
                    std::hint::black_box(fill.takes()),
                    &spec,
                ));
            }
        });
        rows.push(Row {
            case: label.into(),
            kind: "evaluation",
            nodes: case.tree.num_nodes(),
            request: want,
            median_ns: batch_ns / EVAL_BATCH as u64,
        });
    }
    for case in [NetsimCase::steady_state(), NetsimCase::churn()] {
        rows.push(Row {
            case: case.name.into(),
            kind: "simulation",
            nodes: case.tree.num_nodes(),
            request: case.workloads.len(),
            median_ns: median_ns(ITERS, || {
                std::hint::black_box(case.run());
            }),
        });
    }
    rows
}

/// `tree` with every other leaf held whole (eight leaves to a compute
/// job), and the default selector's [`STATE_WANT`]-node placement on it:
/// the first free leaves of the first group, each taken whole.
fn whole_leaf_case(tree: &Tree) -> (ClusterState, Placement) {
    let mut state = ClusterState::new(tree);
    let held: Vec<usize> = (0..tree.num_leaves()).step_by(2).collect();
    for (job, leaves) in held.chunks(8).enumerate() {
        let nodes: Vec<NodeId> = leaves
            .iter()
            .flat_map(|&k| tree.leaf_node_range(k).map(NodeId))
            .collect();
        let placement = Placement::from_nodes(tree, &nodes).expect("leaves hold their nodes");
        state
            .allocate(
                tree,
                JobId(job as u64),
                &placement,
                JobNature::ComputeIntensive,
            )
            .expect("each leaf is held once");
    }
    let req = AllocRequest::comm(JobId(u64::MAX), STATE_WANT);
    let placement = DefaultTreeSelector
        .select(tree, &state, &req)
        .expect("half the machine is free");
    let whole = placement
        .takes()
        .iter()
        .all(|&(k, n)| n as usize == tree.leaf_size(k));
    assert!(whole, "every take is a whole leaf");
    (state, placement)
}

/// `tree` with every odd node held by one compute job, and the default
/// selector's `want`-node placement on it: the even nodes of its leaves.
fn fragmented_case(tree: &Tree, want: usize) -> (ClusterState, Placement) {
    let mut state = ClusterState::new(tree);
    let odd: Vec<NodeId> = (1..tree.num_nodes()).step_by(2).map(NodeId).collect();
    let held = Placement::from_nodes(tree, &odd).expect("each node is named once");
    state
        .allocate(tree, JobId(0), held, JobNature::ComputeIntensive)
        .expect("the machine is idle");
    let req = AllocRequest::comm(JobId(u64::MAX), want);
    let placement = DefaultTreeSelector
        .select(tree, &state, &req)
        .expect("half the machine is free");
    assert!(
        placement.iter().all(|n| n.0 % 2 == 0),
        "only even nodes are free"
    );
    (state, placement)
}

/// An idle `tree` and a [`STATE_WANT`]-node placement of its first whole
/// leaves, consecutive siblings of one group.
fn sibling_run_case(tree: &Tree) -> (ClusterState, Placement) {
    let leaves = STATE_WANT / tree.leaf_size(0);
    let nodes: Vec<NodeId> = (0..leaves)
        .flat_map(|k| tree.leaf_node_range(k).map(NodeId))
        .collect();
    assert_eq!(
        nodes.len(),
        STATE_WANT,
        "whole leaves add up to the request"
    );
    let parent = |k| tree.switch(tree.leaf(k)).parent;
    assert_eq!(parent(0), parent(leaves - 1), "one group");
    let placement = Placement::from_nodes(tree, &nodes).expect("leaves hold their nodes");
    (ClusterState::new(tree), placement)
}

/// A two-level tree of `leaves` leaves of 33 to 96 nodes, each with its
/// own `(busy, comm)` occupancy and so its own communication ratio: the
/// root's ratio set holds `leaves` live keys, one member each. Each of the
/// [`EVAL_BATCH`] probes is one more node on a leaf, the leaves spread
/// evenly over the ordinals: allocating and releasing one re-keys its leaf
/// twice in that set (and in the level-1 set, whose keys are the few free
/// counts), each probe at another place in the key order. The ratio set
/// is built on the first greedy read, so one greedy selection across
/// leaves reads it before the probes run.
fn keyed_leaves_case(leaves: usize) -> (Tree, ClusterState, Vec<Placement>) {
    let sizes: Vec<usize> = (0..leaves).map(|k| 33 + k % 64).collect();
    let tree = Tree::irregular_two_level(&sizes);
    // Per size, occupancies in turn, each whose ratio no leaf has yet.
    let pairs: Vec<(usize, usize)> = (1..32)
        .flat_map(|busy| (0..=busy).map(move |comm| (busy, comm)))
        .collect();
    let mut cursor = [0; 64];
    let mut seen = std::collections::BTreeSet::new();
    let (mut comm, mut compute, mut probes) = (Vec::new(), Vec::new(), Vec::new());
    for (k, &size) in sizes.iter().enumerate() {
        let (busy, held) = loop {
            let (busy, held) = pairs[cursor[k % 64]];
            cursor[k % 64] += 1;
            let ratio = held as f64 / busy as f64 + busy as f64 / size as f64;
            if seen.insert(ratio.to_bits()) {
                break (busy, held);
            }
        };
        let first = tree.leaf_node_range(k).start;
        comm.extend((first..first + held).map(NodeId));
        compute.extend((first + held..first + busy).map(NodeId));
        if k % (leaves / EVAL_BATCH) == 0 {
            let node = [NodeId(first + busy)];
            probes.push(Placement::from_nodes(&tree, &node).expect("the leaf holds it"));
        }
    }
    let mut state = ClusterState::new(&tree);
    for (job, nodes, nature) in [
        (0, &comm, JobNature::CommIntensive),
        (1, &compute, JobNature::ComputeIntensive),
    ] {
        let placement = Placement::from_nodes(&tree, nodes).expect("leaves hold their nodes");
        state
            .allocate(&tree, JobId(job), placement, nature)
            .expect("each node is held once");
    }
    let wider_than_a_leaf = AllocRequest::comm(JobId(2), 97);
    GreedySelector
        .select(&tree, &state, &wider_than_a_leaf)
        .expect("the machine has that many free");
    (tree, state, probes)
}

/// Evaluator calls per second over [`ITERS`] seeded searches on Theta.
/// Distinct seeds keep the walk from replaying one trajectory; each search
/// is one whole `decide`, its scratch evaluator included, as the engine
/// runs it per job.
fn measure_sa() -> f64 {
    let case = PlacementCase::new(SystemPreset::Theta, 256);
    // The annealing loop must run, or this would time the incumbent path.
    let search = |seed| {
        case.run_sa(SA_BUDGET, seed)
            .expect("theta case enters the annealing loop")
            .evals
    };
    assert!(search(7) > 0, "warm-up search performed no evaluations");
    let t = Instant::now();
    let evals: u64 = (0..ITERS as u64).map(|i| u64::from(search(7 + i))).sum();
    evals as f64 / t.elapsed().as_secs_f64()
}

/// The sweep's fastest wall-clock at each of [`SWEEP_THREADS`] over
/// [`SWEEP_ROUNDS`] interleaved rounds, asserting identical output at
/// every count.
fn measure_sweep() -> [u64; 3] {
    let mut first: Option<ExperimentResult> = None;
    let pools = SWEEP_THREADS.map(|threads| {
        let pool = ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .expect("thread pool");
        let result = pool.install(|| fig6(SWEEP_SCALE));
        let base = first.get_or_insert_with(|| result.clone());
        let same = base.text == result.text && base.json == result.json;
        assert!(same, "sweep output differs at {threads} threads");
        pool
    });
    let mut best = [u64::MAX; 3];
    for _ in 0..SWEEP_ROUNDS {
        for (pool, best) in pools.iter().zip(&mut best) {
            let t = Instant::now();
            pool.install(|| std::hint::black_box(fig6(SWEEP_SCALE)));
            *best = (*best).min(t.elapsed().as_nanos() as u64);
        }
    }
    best
}

/// Compare live medians with the `results` of a baseline this runner
/// wrote. Returns one line per live case, or every failure: a case more
/// than [`REGRESSION_FACTOR`]x slower, a baseline case no longer measured,
/// or a baseline that is not such a document.
fn check_medians(baseline: &str, live: &[Row]) -> Result<Vec<String>, String> {
    let baseline: Value =
        serde_json::from_str(baseline).map_err(|e| format!("baseline is not valid JSON: {e}"))?;
    let entries = baseline["results"]
        .as_array()
        .ok_or("baseline has no `results` array")?;
    let medians = entries
        .iter()
        .map(|e| match (e["case"].as_str(), e["median_ns"].as_f64()) {
            (Some(case), Some(ns)) => Ok((case, ns)),
            _ => Err(format!(
                "baseline entry without a case and median_ns: {e:?}"
            )),
        })
        .collect::<Result<Vec<_>, _>>()?;
    let (mut lines, mut failures) = (Vec::new(), Vec::new());
    for row in live {
        let Some(&(_, base_ns)) = medians.iter().find(|(case, _)| *case == row.case) else {
            lines.push(format!("{}: no baseline entry, skipped", row.case));
            continue;
        };
        let live_ns = row.median_ns as f64;
        let ratio = live_ns / base_ns;
        let line = format!(
            "{}: live {:.1} µs vs baseline {:.1} µs ({ratio:.2}x)",
            row.case,
            live_ns / 1e3,
            base_ns / 1e3
        );
        if ratio > REGRESSION_FACTOR {
            failures.push(format!("{line} — exceeds {REGRESSION_FACTOR}x"));
        } else {
            lines.push(line);
        }
    }
    for (case, _) in &medians {
        if !live.iter().any(|r| r.case == *case) {
            failures.push(format!("{case}: in the baseline but no longer measured"));
        }
    }
    if failures.is_empty() {
        Ok(lines)
    } else {
        Err(failures.join("\n"))
    }
}

/// [`check_medians`] against the baseline file at `path`.
fn check_file(path: &str, live: &[Row]) -> Result<Vec<String>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read baseline: {e}"))?;
    check_medians(&text, live)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (check, out) = match args.as_slice() {
        [] => (None, "BENCH_micro.json"),
        [flag, path] if flag == "--check" => (Some(path.as_str()), ""),
        [path] if !path.starts_with("--") => (None, path.as_str()),
        _ => {
            eprintln!("usage: bench_micro [OUT.json] | bench_micro --check BASELINE.json");
            std::process::exit(2);
        }
    };

    let rows = measure_rows();
    for row in &rows {
        eprintln!("{}: {:.1} µs", row.case, row.median_ns as f64 / 1e3);
    }
    let sa_eps = measure_sa();
    let sweep_ns = measure_sweep();
    let speedup = sweep_ns[0] as f64 / sweep_ns[2] as f64;
    let host_cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    // A multi-core host that gains nothing from 4 threads means the
    // runtime's overhead ate the parallelism; one CPU has nothing to gain.
    let sweep_gate = match (host_cpus, speedup > 1.0) {
        (1, _) => "skipped (host_cpus=1)".to_string(),
        (_, true) => "passed".to_string(),
        (_, false) => format!("failed (parallel_speedup={speedup:.2} <= 1.0)"),
    };
    let median_of = |case: &str| {
        rows.iter()
            .find(|r| r.case == case)
            .map_or(0, |r| r.median_ns)
    };
    let ratio = median_of(GATE_CASE) as f64 / median_of(GATE_AGAINST) as f64;
    let gates = [
        (
            ratio <= GATE_MAX_RATIO,
            format!("{GATE_CASE} costs {ratio:.2}x {GATE_AGAINST} (allowed: {GATE_MAX_RATIO}x)"),
        ),
        (
            sa_eps >= SA_MIN_EVALS_PER_SEC,
            format!("sa_theta_256 sustains {sa_eps:.0} evals/s (floor {SA_MIN_EVALS_PER_SEC:.0})"),
        ),
        (
            !sweep_gate.starts_with("failed"),
            format!(
                "fig6 sweep ({} jobs/log) at 1/2/4 threads: {:.3?} ms, 1->4 ratio {speedup:.2}x \
                 on {host_cpus} cpu(s): {sweep_gate}",
                SWEEP_SCALE.jobs,
                sweep_ns.map(|ns| ns as f64 / 1e6)
            ),
        ),
    ];
    let mut failed = false;
    for (ok, line) in gates {
        eprintln!("gate {}: {line}", if ok { "ok" } else { "FAILED" });
        failed |= !ok;
    }

    if let Some(path) = check {
        match check_file(path, &rows) {
            Ok(lines) => {
                lines.iter().for_each(|line| eprintln!("ok: {line}"));
                eprintln!("check passed against {path}");
            }
            Err(report) => {
                eprintln!("check FAILED against {path}:\n{report}");
                failed = true;
            }
        }
    } else {
        let [ns_1, ns_2, ns_4] = sweep_ns;
        let doc = json!({
            "bench": "scheduler and simulator units of work (shipped paths)",
            "iters": ITERS,
            "host_cpus": host_cpus,
            "sublinearity": {
                "case": GATE_CASE,
                "against": GATE_AGAINST,
                "max_ratio": GATE_MAX_RATIO,
            },
            "sa": {
                "case": "sa_theta_256",
                "budget": SA_BUDGET,
                "searches": ITERS,
                "sa_evals_per_sec": sa_eps.round() as u64,
                "min_evals_per_sec": SA_MIN_EVALS_PER_SEC.round() as u64,
            },
            "sweep": {
                "experiment": "fig6",
                "jobs_per_log": SWEEP_SCALE.jobs,
                "rounds": SWEEP_ROUNDS,
                "threads_1_best_ns": ns_1,
                "threads_2_best_ns": ns_2,
                "threads_4_best_ns": ns_4,
                "parallel_speedup": (speedup * 100.0).round() / 100.0,
                "identical_across_threads": true,
                "gate": sweep_gate,
            },
            "results": rows,
        });
        let text = serde_json::to_string_pretty(&doc).expect("in-memory JSON renders") + "\n";
        if let Err(e) = std::fs::write(out, text) {
            eprintln!("error: cannot write {out}: {e}");
            std::process::exit(1);
        }
        eprintln!("wrote {out}");
    }
    std::process::exit(i32::from(failed));
}

#[cfg(test)]
mod tests;

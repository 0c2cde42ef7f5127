//! Subcommand implementations.
#![deny(clippy::wildcard_enum_match_arm)]

use crate::args::Parsed;
use commsched_collectives::{CollectiveSpec, Pattern};
use commsched_core::{SaSelector, SelectorKind};
use commsched_metrics::{Registry, Table};
use commsched_slurmsim::{BackfillPolicy, Engine, EngineConfig, FailurePolicy, JobStatus};
use commsched_topology::{SystemPreset, Tree};
use commsched_trace::{chrome_trace, Capture, ClassMask};
use commsched_workload::{swf, FaultTrace, JobLog, LogProfile, LogSpec, SystemModel};
use std::io::Write;

type CmdResult = Result<(), String>;

/// Flags every command accepts.
const GLOBAL: &[&str] = &["threads"];
/// [`load_tree`].
const TOPOLOGY: &[&str] = &["preset", "conf"];
/// [`load_log`].
const WORKLOAD: &[&str] = &[
    "swf", "ppn", "system", "jobs", "seed", "comm-pct", "pattern",
];
/// [`load_faults`] and [`load_failure_policy`].
const FAULTS: &[&str] = &[
    "fault-trace",
    "mtbf",
    "mttr",
    "switch-mtbf",
    "switch-mttr",
    "link-degrade",
    "link-mtbf",
    "link-mttr",
    "fault-seed",
    "failure-policy",
    "max-retries",
    "backoff",
];
/// [`run_sim`]'s trace and report sinks.
const OBSERVE: &[&str] = &["trace-out", "trace-filter", "report-out"];
/// [`run_sim`]'s engine knobs.
const ENGINE: &[&str] = &[
    "backfill",
    "drain",
    "utilization",
    "reject-oversized",
    "quiet",
];
/// [`run_sim`]'s single-selector knobs (`compare` runs all four).
const SELECTOR: &[&str] = &["selector", "sa-budget", "sa-seed"];

/// The flags the command `p` names reads, or `None` for an unknown
/// command or subcommand (which the command itself reports).
pub(crate) fn accepted_flags(p: &Parsed) -> Option<Vec<&'static str>> {
    let groups: &[&[&str]] = match (p.command.as_str(), p.positional.first().map(String::as_str)) {
        ("topology", Some("validate")) | ("patterns" | "help" | "--help" | "-h", _) => &[],
        ("topology", Some("show")) => &[TOPOLOGY],
        ("log", Some("generate")) => &[WORKLOAD, &["out"]],
        ("log", Some("stats")) => &[WORKLOAD, &["json"]],
        ("run", _) => &[TOPOLOGY, WORKLOAD, FAULTS, OBSERVE, ENGINE, SELECTOR],
        ("compare", _) => &[TOPOLOGY, WORKLOAD, FAULTS, OBSERVE, ENGINE],
        ("individual", _) => &[TOPOLOGY, WORKLOAD, &["warmup", "probes"]],
        _ => return None,
    };
    Some(
        groups
            .iter()
            .chain([&GLOBAL])
            .flat_map(|g| g.iter().copied())
            .collect(),
    )
}

fn preset_by_name(name: &str) -> Result<SystemPreset, String> {
    match name.to_ascii_lowercase().as_str() {
        "iitk-dept" | "department" => Ok(SystemPreset::IitkDepartment),
        "iitk-hpc2010" | "hpc2010" => Ok(SystemPreset::IitkHpc2010),
        "cori" | "cori-like" => Ok(SystemPreset::CoriLike),
        "intrepid" => Ok(SystemPreset::Intrepid),
        "theta" => Ok(SystemPreset::Theta),
        "mira" => Ok(SystemPreset::Mira),
        "multirail-500k" => Ok(SystemPreset::Multirail500k),
        "dragonfly-1m" => Ok(SystemPreset::Dragonfly1M),
        other => Err(format!("unknown preset {other:?}")),
    }
}

fn system_by_name(name: &str) -> Result<SystemModel, String> {
    match name.to_ascii_lowercase().as_str() {
        "intrepid" => Ok(SystemModel::intrepid()),
        "theta" => Ok(SystemModel::theta()),
        "mira" => Ok(SystemModel::mira()),
        other => Err(format!("unknown system {other:?}")),
    }
}

/// Topology from `--preset` or `--conf`.
fn load_tree(p: &Parsed) -> Result<Tree, String> {
    match (p.get("preset"), p.get("conf")) {
        (Some(name), None) => Ok(preset_by_name(name)?.build()),
        (None, Some(path)) => {
            let text =
                std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
            Tree::from_conf(&text).map_err(|e| format!("{path}: {e}"))
        }
        _ => Err("give exactly one of --preset NAME or --conf FILE".into()),
    }
}

/// Workload from `--swf` or `--system` (+ generator knobs).
fn load_log(p: &Parsed) -> Result<(JobLog, usize), String> {
    let comm_pct: u8 = p.get_parsed("comm-pct", 90u8)?;
    if comm_pct > 100 {
        return Err(format!("--comm-pct {comm_pct} is above 100"));
    }
    let pattern: Pattern = p
        .get("pattern")
        .map(|s| s.parse())
        .transpose()?
        .unwrap_or(Pattern::Rhvd);
    match (p.get("swf"), p.get("system")) {
        (Some(path), None) => {
            let ppn: usize = p.get_parsed("ppn", 1usize)?;
            let text =
                std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
            let mut log = swf::parse(&text, path, ppn).map_err(|e| e.to_string())?;
            let jobs: usize = p.get_parsed("jobs", log.jobs.len())?;
            log.jobs.truncate(jobs);
            let seed: u64 = p.get_parsed("seed", 42u64)?;
            swf::assign_natures(&mut log, comm_pct, &[(pattern, 0.5)], seed);
            let machine = log.max_nodes();
            Ok((log, machine))
        }
        (None, Some(name)) => {
            let system = system_by_name(name)?;
            let jobs: usize = p.get_parsed("jobs", 1000usize)?;
            let seed: u64 = p.get_parsed("seed", 42u64)?;
            let log = LogSpec::new(system, jobs, seed)
                .comm_percent(comm_pct)
                .pattern(pattern)
                .generate();
            Ok((log, system.total_nodes))
        }
        _ => Err("give exactly one of --swf FILE or --system NAME".into()),
    }
}

/// Fault trace from `--fault-trace FILE` or the seeded generators:
/// `--mtbf SECS` (node churn, plus `--mttr`), `--switch-mtbf SECS`
/// (correlated subtree outages, plus `--switch-mttr`) and
/// `--link-degrade PERMILLE` (degraded cables, plus `--link-mtbf` /
/// `--link-mttr`). Generators compose — each draws from its own seed
/// stream off `--fault-seed` — and `None` is returned when nothing asks
/// for faults.
fn load_faults(p: &Parsed, tree: &Tree, log: &JobLog) -> Result<Option<FaultTrace>, String> {
    let num_nodes = tree.num_nodes();
    let generated = p.get("mtbf").is_some()
        || p.get("switch-mtbf").is_some()
        || p.get("link-degrade").is_some();
    let trace = match (p.get("fault-trace"), generated) {
        (None, false) => return Ok(None),
        (Some(_), true) => {
            return Err(
                "give at most one of --fault-trace FILE or the --mtbf/--switch-mtbf/\
                 --link-degrade generators"
                    .into(),
            )
        }
        (Some(path), false) => {
            let text =
                std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
            FaultTrace::parse(&text).map_err(|e| format!("{path}: {e}"))?
        }
        (None, true) => {
            let seed: u64 = p.get_parsed("fault-seed", 7u64)?;
            // Generate faults over twice the log's nominal span so requeues
            // that run past the last submit still see failures.
            let span = log
                .jobs
                .iter()
                .map(|j| j.submit + j.walltime)
                .max()
                .unwrap_or(0);
            let horizon = span.saturating_mul(2).max(1);
            let mut trace = FaultTrace::empty();
            if p.get("mtbf").is_some() {
                let mtbf: f64 = p.get_parsed("mtbf", 0.0f64)?;
                let mttr: f64 = p.get_parsed("mttr", 3600.0f64)?;
                trace = trace.merge(
                    FaultTrace::mtbf(num_nodes, mtbf, mttr, horizon, seed)
                        .map_err(|e| e.to_string())?,
                );
            }
            if p.get("switch-mtbf").is_some() {
                let mtbf: f64 = p.get_parsed("switch-mtbf", 0.0f64)?;
                let mttr: f64 = p.get_parsed("switch-mttr", 3600.0f64)?;
                let all = FaultTrace::switch_mtbf(
                    tree.num_switches(),
                    mtbf,
                    mttr,
                    horizon,
                    seed.wrapping_add(1),
                )
                .map_err(|e| e.to_string())?;
                // Never generate a whole-machine outage: drop the root
                // switch's events (the draw sequence is per-switch, so the
                // filter does not shift any other switch's schedule).
                let root = tree.root().0;
                let kept: Vec<_> = all
                    .events()
                    .iter()
                    .filter(|e| e.node != root)
                    .copied()
                    .collect();
                trace = trace.merge(FaultTrace::new(kept));
            }
            if p.get("link-degrade").is_some() {
                let permille: u32 = p.get_parsed("link-degrade", 500u32)?;
                let mtbf: f64 = p.get_parsed("link-mtbf", 86400.0f64)?;
                let mttr: f64 = p.get_parsed("link-mttr", 3600.0f64)?;
                trace = trace.merge(
                    FaultTrace::link_degrade(
                        tree.num_directed_links(),
                        mtbf,
                        mttr,
                        permille,
                        horizon,
                        seed.wrapping_add(2),
                    )
                    .map_err(|e| e.to_string())?,
                );
            }
            trace
        }
    };
    trace
        .validate_machine(num_nodes, tree.num_switches(), tree.num_directed_links())
        .map_err(|e| e.to_string())?;
    Ok(Some(trace))
}

/// Failure policy from `--failure-policy` (+ `--max-retries`, `--backoff`).
fn load_failure_policy(p: &Parsed) -> Result<FailurePolicy, String> {
    let max_retries: u32 = p.get_parsed("max-retries", 3u32)?;
    let backoff: u64 = p.get_parsed("backoff", 0u64)?;
    match p.get("failure-policy").unwrap_or("requeue") {
        "cancel" => Ok(FailurePolicy::Cancel),
        "requeue" => Ok(FailurePolicy::Requeue {
            max_retries,
            backoff,
        }),
        "requeue-front" => Ok(FailurePolicy::RequeueFront),
        other => Err(format!(
            "unknown failure policy {other:?} (cancel | requeue | requeue-front)"
        )),
    }
}

/// `commsched topology validate|show`.
pub(crate) fn topology(p: &Parsed, out: &mut dyn Write) -> CmdResult {
    match p.positional.first().map(String::as_str) {
        Some("validate") => {
            let path = p
                .positional
                .get(1)
                .ok_or("usage: topology validate <topology.conf>")?;
            let text =
                std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
            let tree = Tree::from_conf(&text).map_err(|e| format!("{path}: {e}"))?;
            writeln!(
                out,
                "{path}: OK — {} nodes, {} switches ({} leaves), {} levels",
                tree.num_nodes(),
                tree.num_switches(),
                tree.num_leaves(),
                tree.height()
            )
            .map_err(|e| e.to_string())
        }
        Some("show") => {
            let tree = load_tree(p)?;
            writeln!(
                out,
                "{} nodes, {} switches ({} leaves), {} levels\n",
                tree.num_nodes(),
                tree.num_switches(),
                tree.num_leaves(),
                tree.height()
            )
            .map_err(|e| e.to_string())?;
            let mut t = Table::new(["leaf", "name", "nodes"].map(String::from).to_vec());
            for k in 0..tree.num_leaves().min(40) {
                let sw = tree.switch(tree.leaf(k));
                t.row(vec![
                    k.to_string(),
                    sw.name.clone(),
                    tree.leaf_size(k).to_string(),
                ]);
            }
            write!(out, "{t}").map_err(|e| e.to_string())?;
            if tree.num_leaves() > 40 {
                writeln!(out, "... ({} more leaves)", tree.num_leaves() - 40)
                    .map_err(|e| e.to_string())?;
            }
            Ok(())
        }
        _ => Err("usage: topology validate <file> | topology show --preset NAME".into()),
    }
}

/// `commsched log generate|stats`.
pub(crate) fn log(p: &Parsed, out: &mut dyn Write) -> CmdResult {
    match p.positional.first().map(String::as_str) {
        Some("generate") => {
            let (log, _) = load_log(p)?;
            let text = swf::emit(&log);
            match p.get("out") {
                Some(path) => {
                    std::fs::write(path, text).map_err(|e| format!("cannot write {path}: {e}"))?;
                    writeln!(out, "wrote {} jobs to {path}", log.jobs.len())
                        .map_err(|e| e.to_string())
                }
                None => write!(out, "{text}").map_err(|e| e.to_string()),
            }
        }
        Some("stats") => {
            let (log, machine) = load_log(p)?;
            let profile = LogProfile::new(&log, machine);
            if p.switch("json") {
                let json = serde_json::to_string_pretty(&profile).map_err(|e| e.to_string())?;
                writeln!(out, "{json}").map_err(|e| e.to_string())
            } else {
                write!(out, "{}", profile.render()).map_err(|e| e.to_string())
            }
        }
        _ => Err("usage: log generate|stats ...".into()),
    }
}

/// Insert a selector name into `path` before its extension, so compare
/// runs can write one trace/report per selector: `trace.jsonl` becomes
/// `trace.adaptive.jsonl`.
fn with_selector(path: &str, name: &str) -> String {
    let after_slash = path.rfind('/').map_or(0, |s| s + 1);
    match path.rfind('.') {
        Some(dot) if dot > after_slash => format!("{}.{name}{}", &path[..dot], &path[dot..]),
        _ => format!("{path}.{name}"),
    }
}

/// `commsched run` / `commsched compare`.
pub(crate) fn run_sim(p: &Parsed, out: &mut dyn Write, compare: bool) -> CmdResult {
    let tree = load_tree(p)?;
    let (log, _) = load_log(p)?;
    let drain_count: usize = p.get_parsed("drain", 0usize)?;
    if drain_count >= tree.num_nodes() {
        return Err(format!(
            "--drain {drain_count} would leave no healthy nodes (machine has {})",
            tree.num_nodes()
        ));
    }
    if !p.switch("reject-oversized") {
        for j in &log.jobs {
            if j.nodes > tree.num_nodes() {
                return Err(format!(
                    "{} requests {} nodes but the topology has {} — pick a larger \
                     --preset, trim the log with --jobs, or pass --reject-oversized",
                    j.id,
                    j.nodes,
                    tree.num_nodes()
                ));
            }
        }
    }
    let faults = load_faults(p, &tree, &log)?;
    let failure_policy = load_failure_policy(p)?;

    // Observability: every run goes through `run_observed` (`Engine::run`
    // is that call with a null sink), so these flags only choose what is
    // captured and written.
    let trace_out = p.get("trace-out").map(str::to_string);
    let report_out = p.get("report-out").map(str::to_string);
    let trace_mask = match p.get("trace-filter") {
        Some(_) if trace_out.is_none() => {
            return Err("--trace-filter needs --trace-out".into());
        }
        Some(spec) => ClassMask::parse(spec)?,
        None => ClassMask::ALL,
    };

    // Engine knobs.
    let backfill = match p.get("backfill").unwrap_or("easy") {
        "none" | "fifo" => BackfillPolicy::None,
        "easy" => BackfillPolicy::Easy,
        "conservative" => BackfillPolicy::Conservative,
        other => return Err(format!("unknown backfill policy {other:?}")),
    };
    // Drain the tail of the machine: deterministic and easy to reason about.
    let drained: Vec<commsched_topology::NodeId> = (tree.num_nodes() - drain_count
        ..tree.num_nodes())
        .map(commsched_topology::NodeId)
        .collect();

    let selectors: Vec<SelectorKind> = if compare {
        SelectorKind::ALL.to_vec()
    } else {
        vec![p
            .get("selector")
            .unwrap_or("adaptive")
            .parse::<SelectorKind>()?]
    };

    let mut t = Table::new(
        [
            "selector",
            "exec(h)",
            "wait(h)",
            "turnaround(h)",
            "node-h/job",
            "comm cost",
            "throughput(j/h)",
        ]
        .map(String::from)
        .to_vec(),
    );
    let mut timelines: Vec<(SelectorKind, Vec<(u64, f64)>)> = Vec::new();
    let mut fault_lines: Vec<String> = Vec::new();
    let mut obs_lines: Vec<String> = Vec::new();
    // SA knobs (accepted — and checked — only when the SA selector runs;
    // the search seed defaults to the workload seed so one --seed flag
    // reproduces the whole run).
    let sa_budget: u32 = p.get_parsed("sa-budget", SaSelector::default().evals)?;
    let sa_seed: u64 = p.get_parsed("sa-seed", p.get_parsed("seed", 42u64)?)?;

    for kind in selectors {
        let mut cfg = EngineConfig::new(kind);
        cfg.backfill = backfill;
        cfg.failure_policy = failure_policy;
        if kind == SelectorKind::Sa {
            cfg = cfg.with_sa(sa_budget, sa_seed);
        }
        if p.switch("reject-oversized") {
            cfg = cfg.reject_oversized();
        }
        if p.switch("quiet") {
            cfg.adjust_runtimes = false;
        }
        let mut engine = Engine::new(&tree, cfg).drain_nodes(drained.clone());
        if let Some(f) = &faults {
            engine = engine.with_faults(f.clone());
        }
        // Only capture events when a trace sink was requested; otherwise
        // the mask stays empty (counters still collect for --report-out).
        let mut cap = Capture::with_mask(if trace_out.is_some() {
            trace_mask
        } else {
            ClassMask::NONE
        });
        let mut reg = Registry::new();
        let summary = engine
            .run_observed(&log, &mut cap, &mut reg)
            .map_err(|e| e.to_string())?;
        if let Some(path) = &trace_out {
            let path = if compare {
                with_selector(path, kind.name())
            } else {
                path.clone()
            };
            let text = if path.ends_with(".json") {
                chrome_trace(&cap.events)
            } else {
                cap.to_jsonl()
            };
            std::fs::write(&path, text).map_err(|e| format!("cannot write {path}: {e}"))?;
            obs_lines.push(format!(
                "{}: wrote {} trace events to {path}",
                kind.name(),
                cap.events.len()
            ));
        }
        if let Some(path) = &report_out {
            let path = if compare {
                with_selector(path, kind.name())
            } else {
                path.clone()
            };
            std::fs::write(&path, reg.snapshot().to_json_pretty())
                .map_err(|e| format!("cannot write {path}: {e}"))?;
            obs_lines.push(format!("{}: wrote run report to {path}", kind.name()));
        }
        if faults.is_some() || p.switch("reject-oversized") {
            fault_lines.push(format!(
                "{}: {} completed, {} cancelled, {} rejected; {} requeues, \
                 {:.1} node-hours lost to failures",
                kind.name(),
                summary.count_status(JobStatus::Completed),
                summary.count_status(JobStatus::Cancelled),
                summary.count_status(JobStatus::Rejected),
                summary.total_retries(),
                summary.lost_node_hours(),
            ));
        }
        if p.get("utilization").is_some() {
            let buckets: usize = p.get_parsed("utilization", 20usize)?;
            timelines.push((kind, summary.utilization(tree.num_nodes(), buckets)));
        }
        t.row(vec![
            kind.name().to_string(),
            format!("{:.1}", summary.total_exec_hours()),
            format!("{:.1}", summary.total_wait_hours()),
            format!("{:.2}", summary.avg_turnaround_hours()),
            format!("{:.1}", summary.avg_node_hours()),
            format!("{:.0}", summary.total_comm_cost()),
            format!("{:.1}", summary.throughput()),
        ]);
    }
    writeln!(
        out,
        "log {:?}: {} jobs on {} nodes{}\n\n{t}",
        log.name,
        log.jobs.len(),
        tree.num_nodes(),
        if drained.is_empty() {
            String::new()
        } else {
            format!(" ({} drained)", drained.len())
        },
    )
    .map_err(|e| e.to_string())?;
    if !fault_lines.is_empty() {
        writeln!(out, "failures (policy: {failure_policy}):").map_err(|e| e.to_string())?;
        for line in &fault_lines {
            writeln!(out, "  {line}").map_err(|e| e.to_string())?;
        }
    }
    for line in &obs_lines {
        writeln!(out, "{line}").map_err(|e| e.to_string())?;
    }
    for (kind, timeline) in timelines {
        writeln!(out, "utilization over time — {}:", kind.name()).map_err(|e| e.to_string())?;
        for (t0, frac) in timeline {
            writeln!(
                out,
                "  t={t0:>10}s  {:>5.1}%  {}",
                frac * 100.0,
                "#".repeat((frac * 40.0) as usize)
            )
            .map_err(|e| e.to_string())?;
        }
    }
    Ok(())
}

/// `commsched individual` — the paper's individual-runs protocol (§5.4,
/// Table 4): freeze a partially occupied cluster and place each probe job
/// from the identical state under all four allocators.
pub(crate) fn individual(p: &Parsed, out: &mut dyn Write) -> CmdResult {
    use commsched_slurmsim::individual::{individual_runs, mean_improvement, warmup_state};

    let tree = load_tree(p)?;
    let (log, _) = load_log(p)?;
    let warm: f64 = p.get_parsed("warmup", 0.55f64)?;
    if !(0.0..1.0).contains(&warm) {
        return Err("--warmup must be in [0, 1)".into());
    }
    let probes_wanted: usize = p.get_parsed("probes", 200usize)?;

    let state = warmup_state(&tree, &log, warm);
    let probes: Vec<_> = log
        .jobs
        .iter()
        .filter(|j| j.nature.is_comm() && j.nodes <= state.free_total())
        .take(probes_wanted)
        .cloned()
        .collect();
    if probes.is_empty() {
        return Err("no communication-intensive probes fit the warm cluster".into());
    }
    let outcomes = individual_runs(
        &tree,
        &state,
        &probes,
        EngineConfig::new(SelectorKind::Default),
    );

    let mut t = Table::new(
        ["selector", "mean % exec improvement over default"]
            .map(String::from)
            .to_vec(),
    );
    for kind in SelectorKind::PROPOSED {
        t.row(vec![
            kind.name().to_string(),
            format!("{:.2}", mean_improvement(&outcomes, kind)),
        ]);
    }
    writeln!(
        out,
        "individual runs: {} probes from a {:.0}%-occupied cluster ({} busy / {} nodes)\n\n{t}",
        outcomes.len(),
        100.0 * state.busy_total() as f64 / tree.num_nodes() as f64,
        state.busy_total(),
        tree.num_nodes()
    )
    .map_err(|e| e.to_string())
}

/// The most ranks `commsched patterns` prints: every step's pair list is
/// expanded before its line is written, and ring and alltoall have
/// `ranks − 1` steps of O(ranks) pairs. 4,096 is the largest power of two
/// the blessed `steps(p)` digests in `collectives` cover.
const MAX_PATTERN_RANKS: usize = 4096;

/// `commsched patterns [RANKS]`.
pub(crate) fn patterns(p: &Parsed, out: &mut dyn Write) -> CmdResult {
    let ranks: usize = p
        .positional
        .first()
        .map(|s| s.parse().map_err(|_| format!("bad rank count {s:?}")))
        .transpose()?
        .unwrap_or(8);
    if ranks > MAX_PATTERN_RANKS {
        return Err(format!(
            "patterns prints at most {MAX_PATTERN_RANKS} ranks, not {ranks}"
        ));
    }
    for pattern in Pattern::ALL {
        let spec = CollectiveSpec::new(pattern, 1 << 20);
        writeln!(
            out,
            "{pattern}: {} steps over {ranks} ranks, {} total bytes",
            spec.num_steps(ranks),
            spec.total_bytes(ranks)
        )
        .map_err(|e| e.to_string())?;
        for (k, step) in spec.steps(ranks).iter().enumerate() {
            let pairs: Vec<String> = step.pairs.iter().map(|(a, b)| format!("{a}-{b}")).collect();
            writeln!(
                out,
                "  step {k:>2} ({:>8} B): {}",
                step.msize,
                pairs.join(" ")
            )
            .map_err(|e| e.to_string())?;
        }
    }
    Ok(())
}

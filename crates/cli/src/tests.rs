use crate::args::Parsed;
use crate::run;

fn run_cli(args: &[&str]) -> (i32, String, String) {
    let argv: Vec<String> = args.iter().map(|s| s.to_string()).collect();
    let mut out = Vec::new();
    let mut err = Vec::new();
    let code = run(&argv, &mut out, &mut err);
    (
        code,
        String::from_utf8(out).unwrap(),
        String::from_utf8(err).unwrap(),
    )
}

// ------------------------------------------------------------------ args

#[test]
fn parses_command_flags_and_positionals() {
    let p = Parsed::new(&[
        "run".into(),
        "--preset".into(),
        "theta".into(),
        "extra".into(),
        "--jobs".into(),
        "100".into(),
    ])
    .unwrap()
    .0;
    assert_eq!(p.command, "run");
    assert_eq!(p.positional, ["extra"]);
    assert_eq!(p.get("preset"), Some("theta"));
    assert_eq!(p.get_parsed("jobs", 0usize).unwrap(), 100);
    assert_eq!(p.get_parsed("seed", 7u64).unwrap(), 7); // default
}

#[test]
fn rejects_flag_without_value() {
    let err = |args: &[&str]| run_cli(args).2;
    assert!(err(&["run", "--preset"]).starts_with("error: --preset needs a value\n"));
    assert!(err(&["run", "--preset", "--jobs"])
        .starts_with("error: --preset needs a value, got --jobs\n"));
    // `--selector`'s value decides whether the annealing flags are read,
    // so its missing value comes first.
    assert!(err(&["run", "--selector", "--sa-budget", "8"])
        .starts_with("error: --selector needs a value, got --sa-budget\n"));
    assert!(Parsed::new(&[]).is_err());
}

#[test]
fn switches_take_no_value() {
    let (p, _) = Parsed::new(&["log".into(), "--json".into(), "stats".into()]).unwrap();
    assert!(p.switch("json"));
    assert_eq!(p.positional, ["stats"]);
}

/// A misspelled or foreign flag is a usage error (exit 2) that names it,
/// raised before the command does any work.
fn assert_unknown_flag(args: &[&str], flag: &str) {
    let (code, out, err) = run_cli(args);
    assert_eq!(code, 2, "{args:?}: {err}");
    assert!(out.is_empty(), "{args:?} ran: {out}");
    assert!(err.contains("unknown flag"), "{err}");
    assert!(err.contains(flag), "{err}");
}

#[test]
fn run_rejects_unknown_flags() {
    let args = [
        "run",
        "--preset",
        "theta",
        "--system",
        "theta",
        "--jobs",
        "20",
        "--selecter",
        "sa",
        "--baclfill",
        "conservative",
    ];
    assert_unknown_flag(&args, "--selecter");
    assert_unknown_flag(&args, "--baclfill");
}

/// `--quiet` was an undocumented switch that turned off Eq. 7; it is no
/// flag at all now.
#[test]
fn quiet_is_not_a_flag() {
    assert_unknown_flag(
        &[
            "run", "--preset", "theta", "--system", "theta", "--jobs", "20", "--quiet",
        ],
        "--quiet",
    );
    assert_unknown_flag(
        &[
            "run", "--preset", "theta", "--system", "theta", "--quiet", "--jobs", "20",
        ],
        "--quiet",
    );
}

/// The annealing budget and seed belong to `--selector sa`: with any other
/// selector, or none, they would be silently ignored.
#[test]
fn sa_flags_need_the_sa_selector() {
    let base = [
        "run", "--preset", "theta", "--system", "theta", "--jobs", "20",
    ];
    for (selector, flag) in [
        (&["--selector", "adaptive"][..], "--sa-budget"),
        (&["--selector", "balanced"][..], "--sa-seed"),
        (&[][..], "--sa-budget"),
    ] {
        assert_unknown_flag(&[&base[..], selector, &[flag, "8"]].concat(), flag);
    }
    let trace = tmp_path("sa-flags", "jsonl");
    let trace_arg = trace.to_str().unwrap();
    for selector in ["sa", "anneal"] {
        let args = [
            &base[..],
            &["--selector", selector, "--sa-budget", "8", "--sa-seed", "3"],
            &["--trace-out", trace_arg],
        ]
        .concat();
        let (code, out, err) = run_cli(&args);
        assert_eq!(code, 0, "{err}");
        assert!(out.contains("sa "), "{out}");
        let searches = std::fs::read_to_string(&trace).unwrap();
        assert!(searches.contains("\"ev\":\"sa_search\""), "no search ran");
        for line in searches.lines().filter(|l| l.contains("sa_search")) {
            assert!(line.contains("\"budget\":8,"), "{line}");
        }
    }
    std::fs::remove_file(&trace).unwrap();
}

#[test]
fn compare_rejects_unknown_and_single_selector_flags() {
    let base = [
        "compare", "--preset", "theta", "--system", "theta", "--jobs", "20",
    ];
    assert_unknown_flag(
        &[&base[..], &["--trace-outt", "x.jsonl"]].concat(),
        "--trace-outt",
    );
    // `compare` runs all four selectors, so a selector choice would be
    // silently ignored.
    assert_unknown_flag(&[&base[..], &["--selector", "sa"]].concat(), "--selector");
}

#[test]
fn individual_rejects_unknown_flags() {
    assert_unknown_flag(
        &[
            "individual",
            "--preset",
            "theta",
            "--system",
            "theta",
            "--probe",
            "3",
        ],
        "--probe",
    );
    assert_unknown_flag(
        &[
            "individual",
            "--preset",
            "theta",
            "--system",
            "theta",
            "--backfill",
            "easy",
        ],
        "--backfill",
    );
}

#[test]
fn log_rejects_flags_of_the_other_subcommand() {
    assert_unknown_flag(
        &["log", "stats", "--system", "theta", "--out", "x.swf"],
        "--out",
    );
    assert_unknown_flag(
        &["log", "generate", "--system", "theta", "--json"],
        "--json",
    );
    assert_unknown_flag(&["log", "stats", "--sytem", "theta"], "--sytem");
}

#[test]
fn global_threads_flag_is_accepted_everywhere() {
    let (code, _, err) = run_cli(&["patterns", "4", "--threads", "2"]);
    assert_eq!(code, 0, "{err}");
    let (code, _, err) = run_cli(&[
        "log",
        "stats",
        "--system",
        "theta",
        "--jobs",
        "10",
        "--threads",
        "1",
    ]);
    assert_eq!(code, 0, "{err}");
}

/// The first value past each size bound is a usage error, raised before
/// a thread is spawned or a log allocated.
#[test]
fn size_flags_are_bounded_by_name() {
    for (args, flag) in [
        (
            &["patterns", "4", "--threads", "1025"][..],
            "--threads 1025 is above 1024",
        ),
        (
            &["log", "generate", "--system", "theta", "--jobs", "1000001"][..],
            "--jobs 1000001 is above 1000000",
        ),
        (
            &["run", "--selector", "sa", "--sa-budget", "1000001"][..],
            "--sa-budget 1000001 is above 1000000",
        ),
        (
            &["individual", "--probes", "1000001"][..],
            "--probes 1000001 is above 1000000",
        ),
        (
            &["log", "stats", "--swf", "no-such.swf", "--ppn", "65537"][..],
            "--ppn 65537 is above 65536",
        ),
    ] {
        let (code, out, err) = run_cli(args);
        assert_eq!(code, 2, "{args:?}: {err}");
        assert!(out.is_empty(), "{args:?}: {out}");
        assert!(err.starts_with(&format!("error: {flag}\n")), "{err}");
    }
}

// ------------------------------------------------------------- commands

#[test]
fn help_prints_usage() {
    let (code, out, _) = run_cli(&["help"]);
    assert_eq!(code, 0);
    assert!(out.contains("USAGE"));
}

#[test]
fn unknown_command_fails() {
    let (code, _, err) = run_cli(&["frobnicate"]);
    assert_eq!(code, 1);
    assert!(err.contains("unknown command"));
}

#[test]
fn topology_show_preset() {
    let (code, out, _) = run_cli(&["topology", "show", "--preset", "iitk-dept"]);
    assert_eq!(code, 0);
    assert!(out.contains("50 nodes"));
    assert!(out.contains("4 leaves") || out.contains("(4 leaves)"));
}

#[test]
fn topology_show_exascale_presets() {
    let (code, out, _) = run_cli(&["topology", "show", "--preset", "multirail-500k"]);
    assert_eq!(code, 0);
    assert!(out.contains("524288 nodes"));
    let (code, out, _) = run_cli(&["topology", "show", "--preset", "dragonfly-1m"]);
    assert_eq!(code, 0);
    assert!(out.contains("1048576 nodes"));
}

#[test]
fn topology_validate_round_trip() {
    let dir = std::env::temp_dir().join("commsched-cli-test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("topo.conf");
    std::fs::write(
        &path,
        "SwitchName=s0 Nodes=n[0-3]\nSwitchName=s1 Nodes=n[4-7]\nSwitchName=s2 Switches=s[0-1]\n",
    )
    .unwrap();
    let (code, out, _) = run_cli(&["topology", "validate", path.to_str().unwrap()]);
    assert_eq!(code, 0);
    assert!(out.contains("OK"));
    assert!(out.contains("8 nodes"));

    std::fs::write(
        &path,
        "SwitchName=s0 Nodes=n[0-3]\nSwitchName=s1 Nodes=n[2-5]\n",
    )
    .unwrap();
    let (code, _, err) = run_cli(&["topology", "validate", path.to_str().unwrap()]);
    assert_eq!(code, 1);
    assert!(err.contains("more than one switch"), "{err}");
}

#[test]
fn log_stats_synthetic() {
    let (code, out, _) = run_cli(&[
        "log", "stats", "--system", "theta", "--jobs", "50", "--seed", "3",
    ]);
    assert_eq!(code, 0);
    assert!(out.contains("50 jobs"));
    assert!(out.contains("powers of two"));
}

#[test]
fn log_stats_json() {
    let (code, out, _) = run_cli(&["log", "stats", "--system", "mira", "--jobs", "20", "--json"]);
    assert_eq!(code, 0);
    let v: serde_json::Value = serde_json::from_str(&out).unwrap();
    assert_eq!(v["jobs"], 20);
}

#[test]
fn log_generate_and_stats_round_trip() {
    let dir = std::env::temp_dir().join("commsched-cli-test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("gen.swf");
    let (code, _, _) = run_cli(&[
        "log",
        "generate",
        "--system",
        "theta",
        "--jobs",
        "30",
        "--out",
        path.to_str().unwrap(),
    ]);
    assert_eq!(code, 0);
    let (code, out, _) = run_cli(&["log", "stats", "--swf", path.to_str().unwrap()]);
    assert_eq!(code, 0);
    assert!(out.contains("30 jobs"));
}

/// A percentage above 100 is a usage error on both workload paths: the
/// generator would panic on it, and the SWF path would clamp it.
#[test]
fn comm_pct_above_100_is_rejected() {
    let generated = "--system theta --jobs 5 --comm-pct 101";
    for cmd in [
        "run --preset theta",
        "compare --preset theta",
        "individual --preset theta",
        "log generate",
    ] {
        let line = format!("{cmd} {generated}");
        let args: Vec<&str> = line.split(' ').collect();
        let (code, _, err) = run_cli(&args);
        assert_eq!(code, 1, "{line}: {err}");
        assert!(err.contains("--comm-pct 101 is above 100"), "{line}: {err}");
    }

    let dir = std::env::temp_dir().join("commsched-cli-test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("comm-pct.swf");
    let path = path.to_str().unwrap();
    let (code, _, err) = run_cli(&["log", "generate", "--system", "theta", "--out", path]);
    assert_eq!(code, 0, "{err}");
    let args = [
        "run",
        "--preset",
        "theta",
        "--swf",
        path,
        "--comm-pct",
        "101",
    ];
    let (code, _, err) = run_cli(&args);
    assert_eq!(code, 1, "{err}");
    assert!(err.contains("--comm-pct 101 is above 100"), "{err}");
}

/// An SWF time past 2^53 s is refused by name: a 10^17 s runtime used
/// to reach the engine and trip `commsched_num`'s exact-`f64` check.
#[test]
fn run_rejects_an_swf_time_above_2_pow_53() {
    let dir = std::env::temp_dir().join("commsched-cli-test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("huge-runtime.swf");
    std::fs::write(
        &path,
        "1 0 -1 100000000000000000 8 -1 -1 8 100000000000000000 -1 1 -1 -1 -1 -1 -1 -1 -1\n",
    )
    .unwrap();
    let path = path.to_str().unwrap();
    let args = [
        "run",
        "--swf",
        path,
        "--preset",
        "theta",
        "--comm-pct",
        "100",
    ];
    let (code, out, err) = run_cli(&args);
    assert_eq!(code, 1, "{out}");
    assert!(err.contains("field 'run_time'"), "{err}");
}

/// Times `swf::parse` accepts can still end a run past 2^53 s: a job
/// submitted at 2^53 s that runs 2^53 s. The run fails by name instead of
/// tripping the exact-`f64` assertion on its report's makespan.
#[test]
fn run_rejects_a_makespan_above_2_pow_53() {
    let dir = std::env::temp_dir().join("commsched-cli-test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("late-makespan.swf");
    let t = 1u64 << 53;
    let line = format!("1 {t} -1 {t} 8 -1 -1 8 {t} -1 1 -1 -1 -1 -1 -1 -1 -1\n");
    std::fs::write(&path, line).unwrap();
    let path = path.to_str().unwrap();
    let args = [
        "run",
        "--swf",
        path,
        "--preset",
        "theta",
        "--comm-pct",
        "100",
    ];
    let (code, out, err) = run_cli(&args);
    assert_eq!(code, 1, "{out}");
    assert!(
        err.contains("makespan in seconds is 18014398509481984"),
        "{err}"
    );
}

/// A degraded link stretches Eq. 7's runtime: a 2^46 s job on Theta whose
/// every link runs at 1 ‰ from time 0 ends at 35,219,556,460,920,832 s.
/// The run fails by name, in a debug build too, instead of tripping the
/// exact-`f64` assertion on the stretched runtime.
#[test]
fn run_rejects_a_runtime_stretched_past_2_pow_53() {
    let dir = std::env::temp_dir().join("commsched-cli-test");
    std::fs::create_dir_all(&dir).unwrap();
    let log = dir.join("stretched.swf");
    let t = 1u64 << 46;
    let line = format!("1 0 -1 {t} 8 -1 -1 8 {t} -1 1 -1 -1 -1 -1 -1 -1 -1\n");
    std::fs::write(&log, line).unwrap();
    let faults = dir.join("slow-links.trace");
    let links = commsched_topology::SystemPreset::Theta
        .build()
        .num_directed_links();
    let slow: String = (0..links)
        .map(|l| format!("0 link:{l} degrade 1\n"))
        .collect();
    std::fs::write(&faults, slow).unwrap();
    let args = [
        "run",
        "--swf",
        log.to_str().unwrap(),
        "--preset",
        "theta",
        "--comm-pct",
        "100",
        "--fault-trace",
        faults.to_str().unwrap(),
    ];
    let (code, out, err) = run_cli(&args);
    assert_eq!(code, 1, "{out}");
    assert!(
        err.contains("makespan in seconds is 35219556460920832"),
        "{err}"
    );
}

/// A failure can destroy more than 2^53 node-seconds of work in a run
/// that ends inside 2^53 s: a 4,000-node job of 2^52 s whose node 0 fails
/// half way, requeued. The run fails by name instead of tripping the
/// exact-`f64` assertion on its report's lost node-seconds.
#[test]
fn run_rejects_lost_work_above_2_pow_53() {
    let dir = std::env::temp_dir().join("commsched-cli-test");
    std::fs::create_dir_all(&dir).unwrap();
    let log = dir.join("wide-long.swf");
    let t = 1u64 << 52;
    let line = format!("1 0 -1 {t} 4000 -1 -1 4000 {t} -1 1 -1 -1 -1 -1 -1 -1 -1\n");
    std::fs::write(&log, line).unwrap();
    let faults = dir.join("wide-long.trace");
    std::fs::write(&faults, format!("{} node:0 fail\n", t / 2)).unwrap();
    let args = [
        "run",
        "--swf",
        log.to_str().unwrap(),
        "--preset",
        "theta",
        "--fault-trace",
        faults.to_str().unwrap(),
        "--failure-policy",
        "requeue",
    ];
    let (code, out, err) = run_cli(&args);
    assert_eq!(code, 1, "{out}");
    assert!(err.contains("node-seconds is 9007199254740992000"), "{err}");
}

/// A bucket count outside `1..=10_000` is a usage error on both
/// simulating commands, refused before any selector runs: 0 drew an empty
/// timeline, and a huge count allocated and printed one line per bucket.
/// The bounds themselves are accepted.
#[test]
fn utilization_outside_1_to_10000_is_rejected() {
    let dir = std::env::temp_dir().join("commsched-cli-test");
    std::fs::create_dir_all(&dir).unwrap();
    for cmd in ["run", "compare"] {
        for buckets in ["0", "10001", "18446744073709551615"] {
            let trace = dir.join(format!("utilization-{cmd}-{buckets}.jsonl"));
            let _ = std::fs::remove_file(&trace);
            let line = format!(
                "{cmd} --preset theta --system theta --jobs 5 --utilization {buckets} \
                 --trace-out {}",
                trace.display()
            );
            let args: Vec<&str> = line.split_whitespace().collect();
            let (code, out, err) = run_cli(&args);
            assert_eq!(code, 1, "{line}: {err}");
            assert!(
                err.contains(&format!("--utilization {buckets} is outside 1..=10000")),
                "{line}: {err}"
            );
            assert!(out.is_empty(), "{line} printed before refusing:\n{out}");
            assert!(!trace.exists(), "{line} wrote a trace before refusing");
        }
    }
    for buckets in ["1", "10000"] {
        let line = format!("run --preset theta --system theta --jobs 5 --utilization {buckets}");
        let args: Vec<&str> = line.split(' ').collect();
        let (code, out, err) = run_cli(&args);
        assert_eq!(code, 0, "{line}: {err}");
        assert_eq!(
            out.matches("t=").count(),
            buckets.parse::<usize>().unwrap(),
            "{line}"
        );
    }
}

#[test]
fn compare_runs_all_selectors() {
    let (code, out, _) = run_cli(&[
        "compare", "--preset", "theta", "--system", "theta", "--jobs", "40",
    ]);
    assert_eq!(code, 0);
    for name in ["default", "greedy", "balanced", "adaptive"] {
        assert!(out.contains(name), "missing {name} in:\n{out}");
    }
}

#[test]
fn threads_flag_never_changes_output() {
    let base = run_cli(&[
        "compare", "--preset", "theta", "--system", "theta", "--jobs", "40",
    ]);
    assert_eq!(base.0, 0, "{}", base.2);
    for threads in ["1", "2", "4"] {
        let run = run_cli(&[
            "compare",
            "--preset",
            "theta",
            "--system",
            "theta",
            "--jobs",
            "40",
            "--threads",
            threads,
        ]);
        assert_eq!(run.0, 0, "{}", run.2);
        assert_eq!(base.1, run.1, "output differs at --threads {threads}");
    }
}

#[test]
fn threads_flag_rejects_garbage() {
    let (code, _, err) = run_cli(&[
        "run",
        "--preset",
        "theta",
        "--system",
        "theta",
        "--threads",
        "many",
    ]);
    assert_eq!(code, 2, "{err}");
    assert!(err.contains("--threads"), "{err}");
}

#[test]
fn run_single_selector() {
    let (code, out, _) = run_cli(&[
        "run",
        "--preset",
        "theta",
        "--system",
        "theta",
        "--jobs",
        "25",
        "--selector",
        "balanced",
        "--pattern",
        "rd",
    ]);
    assert_eq!(code, 0);
    assert!(out.contains("balanced"));
    assert!(!out.contains("greedy"));
}

#[test]
fn run_rejects_oversized_log() {
    let (code, _, err) = run_cli(&[
        "run",
        "--preset",
        "iitk-dept",
        "--system",
        "mira",
        "--jobs",
        "5",
    ]);
    assert_eq!(code, 1);
    assert!(err.contains("requests"), "{err}");
}

#[test]
fn patterns_lists_all() {
    let (code, out, _) = run_cli(&["patterns", "4"]);
    assert_eq!(code, 0);
    for name in ["RD", "RHVD", "Binomial", "Ring", "Stencil2D", "Alltoall"] {
        assert!(out.contains(name), "missing {name}");
    }
}

#[test]
fn patterns_rejects_more_than_4096_ranks() {
    // Only refusals are run here: 4,096 ranks print ~33 M pairs, and
    // 100,000 unbounded would expand ~10^10 before the first line.
    for ranks in ["4097", "100000"] {
        let (code, out, err) = run_cli(&["patterns", ranks]);
        assert_eq!(code, 1, "{ranks}: {err}");
        assert!(out.is_empty(), "{ranks}: printed before refusing");
        assert!(
            err.contains(&format!("at most 4096 ranks, not {ranks}")),
            "{ranks}: {err}"
        );
    }
}

#[test]
fn bad_preset_and_system_errors() {
    let (code, _, err) = run_cli(&["topology", "show", "--preset", "nope"]);
    assert_eq!(code, 1);
    assert!(err.contains("unknown preset"));

    let (code, _, err) = run_cli(&["log", "stats", "--system", "nope"]);
    assert_eq!(code, 1);
    assert!(err.contains("unknown system"));
}

/// The engine checks widths against the machine less its drained nodes,
/// so a job wider than that gets the same hint as one wider than the
/// whole machine.
#[test]
fn run_hints_at_a_job_wider_than_the_drained_machine() {
    // Theta has 4,392 nodes; the log's widest job fits it, but not the
    // 392 left after draining 4,000.
    let (code, out, err) = run_cli(&[
        "run", "--preset", "theta", "--system", "theta", "--jobs", "20", "--drain", "4000",
    ]);
    assert_eq!(code, 1, "{out}");
    assert!(err.contains("has 392 (4000 drained)"), "{err}");
    assert!(err.contains("--reject-oversized"), "{err}");
}

#[test]
fn run_with_drain_and_backfill_flags() {
    let (code, out, _) = run_cli(&[
        "run",
        "--preset",
        "theta",
        "--system",
        "theta",
        "--jobs",
        "20",
        "--drain",
        "100",
        "--backfill",
        "conservative",
    ]);
    assert_eq!(code, 0, "{out}");
    assert!(out.contains("(100 drained)"), "{out}");
}

#[test]
fn run_rejects_full_drain_and_bad_backfill() {
    let (code, _, err) = run_cli(&[
        "run",
        "--preset",
        "iitk-dept",
        "--system",
        "theta",
        "--jobs",
        "5",
        "--drain",
        "50",
    ]);
    assert_eq!(code, 1);
    assert!(err.contains("no healthy nodes"), "{err}");

    let (code, _, err) = run_cli(&[
        "run",
        "--preset",
        "theta",
        "--system",
        "theta",
        "--jobs",
        "5",
        "--backfill",
        "bogus",
    ]);
    assert_eq!(code, 1);
    assert!(err.contains("unknown backfill"), "{err}");
}

#[test]
fn run_prints_utilization_timeline() {
    let (code, out, _) = run_cli(&[
        "run",
        "--preset",
        "theta",
        "--system",
        "theta",
        "--jobs",
        "15",
        "--selector",
        "default",
        "--utilization",
        "5",
    ]);
    assert_eq!(code, 0);
    assert!(out.contains("utilization over time"), "{out}");
    assert!(out.matches("t=").count() == 5, "{out}");
}

#[test]
fn individual_subcommand_reports_improvements() {
    let (code, out, _) = run_cli(&[
        "individual",
        "--preset",
        "theta",
        "--system",
        "theta",
        "--jobs",
        "120",
        "--probes",
        "20",
        "--warmup",
        "0.4",
    ]);
    assert_eq!(code, 0, "{out}");
    // The whole header line: `individual runs: 20 probes from a P%-occupied
    // cluster (B busy / 4392 nodes)`, with P the rounded share B / 4392.
    let header = out
        .lines()
        .find(|l| l.starts_with("individual runs:"))
        .unwrap_or_else(|| panic!("no header in {out}"));
    let parsed = header
        .strip_prefix("individual runs: 20 probes from a ")
        .and_then(|rest| rest.split_once("%-occupied cluster ("))
        .and_then(|(pct, rest)| Some((pct, rest.strip_suffix(" busy / 4392 nodes)")?)))
        .and_then(|(pct, busy)| Some((pct, busy.parse::<u32>().ok()?)));
    let Some((pct, busy)) = parsed else {
        panic!("malformed header {header:?}");
    };
    assert_eq!(
        pct,
        format!("{:.0}", 100.0 * f64::from(busy) / 4392.0),
        "{header}"
    );
    for name in ["greedy", "balanced", "adaptive"] {
        assert!(out.contains(name), "missing {name}");
    }
}

#[test]
fn individual_rejects_bad_warmup() {
    let (code, _, err) = run_cli(&[
        "individual",
        "--preset",
        "theta",
        "--system",
        "theta",
        "--jobs",
        "10",
        "--warmup",
        "1.5",
    ]);
    assert_eq!(code, 1);
    assert!(err.contains("--warmup"), "{err}");
}

// ---------------------------------------------------------------- faults

#[test]
fn run_with_mtbf_prints_failure_summary() {
    let (code, out, _) = run_cli(&[
        "run",
        "--preset",
        "iitk-hpc2010",
        "--system",
        "theta",
        "--jobs",
        "30",
        "--mtbf",
        "500000",
        "--mttr",
        "3600",
        "--fault-seed",
        "11",
    ]);
    assert_eq!(code, 0, "{out}");
    assert!(out.contains("failures (policy: requeue"), "{out}");
    assert!(out.contains("node-hours lost"), "{out}");
}

#[test]
fn run_with_fault_trace_file() {
    let dir = std::env::temp_dir().join("commsched-cli-test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("faults.trace");
    std::fs::write(
        &path,
        "# node 3 dies early and comes back\n100 3 fail\n5000 3 recover\n",
    )
    .unwrap();
    let (code, out, _) = run_cli(&[
        "run",
        "--preset",
        "theta",
        "--system",
        "theta",
        "--jobs",
        "20",
        "--fault-trace",
        path.to_str().unwrap(),
        "--failure-policy",
        "cancel",
    ]);
    assert_eq!(code, 0, "{out}");
    assert!(out.contains("failures (policy: cancel)"), "{out}");
}

#[test]
fn malformed_fault_trace_reports_line() {
    let dir = std::env::temp_dir().join("commsched-cli-test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("bad.trace");
    std::fs::write(&path, "100 3 fail\n200 x recover\n").unwrap();
    let (code, _, err) = run_cli(&[
        "run",
        "--preset",
        "theta",
        "--system",
        "theta",
        "--jobs",
        "5",
        "--fault-trace",
        path.to_str().unwrap(),
    ]);
    assert_eq!(code, 1);
    assert!(err.contains("line 2"), "{err}");
}

#[test]
fn fault_trace_node_out_of_range_is_rejected() {
    let dir = std::env::temp_dir().join("commsched-cli-test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("range.trace");
    std::fs::write(&path, "100 99999 fail\n").unwrap();
    let (code, _, err) = run_cli(&[
        "run",
        "--preset",
        "theta",
        "--system",
        "theta",
        "--jobs",
        "5",
        "--fault-trace",
        path.to_str().unwrap(),
    ]);
    assert_eq!(code, 1);
    assert!(err.contains("99999"), "{err}");
}

#[test]
fn fault_trace_and_mtbf_are_mutually_exclusive() {
    let (code, _, err) = run_cli(&[
        "run",
        "--preset",
        "theta",
        "--system",
        "theta",
        "--jobs",
        "5",
        "--mtbf",
        "1000",
        "--fault-trace",
        "whatever.trace",
    ]);
    assert_eq!(code, 1);
    assert!(err.contains("at most one"), "{err}");
}

#[test]
fn run_with_switch_and_link_generators_composes() {
    // All three fault-domain generators at once: the run must succeed and
    // still report the failure summary, and the composed trace must be
    // deterministic — the same flags twice give byte-identical output.
    let args = [
        "run",
        "--preset",
        "iitk-hpc2010",
        "--system",
        "theta",
        "--jobs",
        "30",
        "--mtbf",
        "500000",
        "--switch-mtbf",
        "800000",
        "--switch-mttr",
        "7200",
        "--link-degrade",
        "250",
        "--link-mtbf",
        "400000",
        "--fault-seed",
        "11",
    ];
    let (code, out, _) = run_cli(&args);
    assert_eq!(code, 0, "{out}");
    assert!(out.contains("failures (policy: requeue"), "{out}");
    assert!(out.contains("node-hours lost"), "{out}");
    let (code2, out2, _) = run_cli(&args);
    assert_eq!(code2, 0);
    assert_eq!(out, out2, "fault-domain generators not deterministic");
}

#[test]
fn switch_mtbf_conflicts_with_fault_trace() {
    let (code, _, err) = run_cli(&[
        "run",
        "--preset",
        "theta",
        "--system",
        "theta",
        "--jobs",
        "5",
        "--switch-mtbf",
        "1000",
        "--fault-trace",
        "whatever.trace",
    ]);
    assert_eq!(code, 1);
    assert!(err.contains("at most one"), "{err}");
}

#[test]
fn link_degrade_rejects_zero_permille() {
    let (code, _, err) = run_cli(&[
        "run",
        "--preset",
        "theta",
        "--system",
        "theta",
        "--jobs",
        "5",
        "--link-degrade",
        "0",
    ]);
    assert_eq!(code, 1);
    assert!(err.contains("permille"), "{err}");
}

#[test]
fn bad_failure_policy_is_rejected() {
    let (code, _, err) = run_cli(&[
        "run",
        "--preset",
        "theta",
        "--system",
        "theta",
        "--jobs",
        "5",
        "--mtbf",
        "100000",
        "--failure-policy",
        "explode",
    ]);
    assert_eq!(code, 1);
    assert!(err.contains("unknown failure policy"), "{err}");
}

#[test]
fn reject_oversized_turns_abort_into_outcomes() {
    // Mira jobs on the 50-node department cluster: without the switch the
    // run aborts (see run_rejects_oversized_log); with it, wide jobs become
    // per-job rejections and the run completes.
    let (code, out, _) = run_cli(&[
        "run",
        "--preset",
        "iitk-dept",
        "--system",
        "mira",
        "--jobs",
        "5",
        "--reject-oversized",
    ]);
    assert_eq!(code, 0, "{out}");
    assert!(out.contains("rejected"), "{out}");
}

// ---------------------------------------------------------- observability

fn tmp_path(stem: &str, ext: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("commsched-cli-{}-{stem}.{ext}", std::process::id()))
}

#[test]
fn trace_filter_requires_trace_out() {
    let (code, _, err) = run_cli(&[
        "run",
        "--preset",
        "theta",
        "--system",
        "theta",
        "--jobs",
        "5",
        "--trace-filter",
        "job",
    ]);
    assert_eq!(code, 1);
    assert!(err.contains("--trace-filter needs --trace-out"), "{err}");
}

#[test]
fn trace_out_is_deterministic_and_leaves_summary_unchanged() {
    let trace = tmp_path("trace-det", "jsonl");
    let base = &[
        "run", "--preset", "theta", "--system", "theta", "--jobs", "20", "--seed", "3",
    ];
    let (code, plain, _) = run_cli(base);
    assert_eq!(code, 0, "{plain}");

    let mut traced_args: Vec<&str> = base.to_vec();
    let trace_s = trace.to_string_lossy().into_owned();
    traced_args.extend_from_slice(&["--trace-out", &trace_s]);
    let (code, traced, _) = run_cli(&traced_args);
    assert_eq!(code, 0, "{traced}");
    let first = std::fs::read_to_string(&trace).unwrap();
    assert!(!first.is_empty());
    assert!(
        first.lines().all(|l| l.starts_with("{\"t_us\":")),
        "bad jsonl"
    );
    // The summary table is unchanged apart from the trailing "wrote" line.
    assert!(
        traced.starts_with(&plain),
        "observed run changed the summary"
    );

    // Same seed, same bytes.
    let (code, _, _) = run_cli(&traced_args);
    assert_eq!(code, 0);
    assert_eq!(std::fs::read_to_string(&trace).unwrap(), first);
    let _ = std::fs::remove_file(&trace);
}

#[test]
fn compare_writes_per_selector_reports() {
    let report = tmp_path("cmp-report", "json");
    let report_s = report.to_string_lossy().into_owned();
    let (code, out, _) = run_cli(&[
        "compare",
        "--preset",
        "theta",
        "--system",
        "theta",
        "--jobs",
        "10",
        "--report-out",
        &report_s,
    ]);
    assert_eq!(code, 0, "{out}");
    for sel in ["default", "greedy", "balanced", "adaptive"] {
        let p = report_s.replace(".json", &format!(".{sel}.json"));
        let text = std::fs::read_to_string(&p).unwrap_or_else(|_| panic!("missing {p}"));
        assert!(text.contains("\"jobs.submitted\": 10"), "{text}");
        let _ = std::fs::remove_file(&p);
    }
}

#[test]
fn chrome_export_for_json_extension() {
    let trace = tmp_path("chrome", "json");
    let trace_s = trace.to_string_lossy().into_owned();
    let (code, out, _) = run_cli(&[
        "run",
        "--preset",
        "theta",
        "--system",
        "theta",
        "--jobs",
        "5",
        "--trace-out",
        &trace_s,
        "--trace-filter",
        "job,fault",
    ]);
    assert_eq!(code, 0, "{out}");
    let text = std::fs::read_to_string(&trace).unwrap();
    assert!(text.starts_with("{\"traceEvents\":["), "{text}");
    assert!(text.contains("\"name\":\"queued\""), "{text}");
    let _ = std::fs::remove_file(&trace);
}

//! Regenerate the paper's tables and figures.
//!
//! ```text
//! repro [EXPERIMENT ...] [--jobs N] [--seed S] [--out DIR] [--quick]
//!       [--threads N] [--report-out FILE]
//!
//! EXPERIMENT: fig1 corr table2 table3 fig6 table4 fig7 fig8 fig9 ablation mapping seeds faults trace tournament | all
//! --jobs N    jobs per synthetic log (default 1000, the paper's size)
//! --seed S    base RNG seed (default 42)
//! --out DIR   write <name>.txt and <name>.json under DIR (default results/)
//! --quick     shorthand for --jobs 150
//! --threads N worker threads for the sweeps (default: RAYON_NUM_THREADS,
//!             then the host's CPU count; never changes output bytes)
//! --report-out FILE  write a machine-readable RunReport of the repro run
//!                    itself (experiments run, output sizes) — derived only
//!                    from experiment outputs, so it is seed-deterministic
//! ```
//!
//! Build with `--release`; the full Table 3 grid runs 24 thousand-job
//! simulations (a few minutes on a laptop, parallelized with rayon).

#![expect(clippy::disallowed_methods, reason = "bench bins time themselves")]
use commsched_bench::{experiments, Scale};
use commsched_metrics::Registry;
use std::io::Write;
use std::path::PathBuf;
use std::process::ExitCode;

fn main() -> ExitCode {
    let mut names: Vec<String> = Vec::new();
    let mut scale = Scale::paper();
    let mut out_dir = PathBuf::from("results");
    let mut report_out: Option<PathBuf> = None;
    let mut threads: usize = 0;

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--jobs" => match args.next().and_then(|v| v.parse().ok()) {
                Some(n) if n > 0 => scale.jobs = n,
                _ => return usage("--jobs needs a positive integer"),
            },
            "--seed" => match args.next().and_then(|v| v.parse().ok()) {
                Some(s) => scale.seed = s,
                None => return usage("--seed needs an integer"),
            },
            "--out" => match args.next() {
                Some(d) => out_dir = PathBuf::from(d),
                None => return usage("--out needs a directory"),
            },
            "--quick" => scale.jobs = Scale::quick().jobs,
            "--threads" => match args.next().and_then(|v| v.parse().ok()) {
                Some(n) if n > 0 => threads = n,
                _ => return usage("--threads needs a positive integer"),
            },
            "--report-out" => match args.next() {
                Some(f) => report_out = Some(PathBuf::from(f)),
                None => return usage("--report-out needs a file"),
            },
            "--help" | "-h" => return usage(""),
            other if other.starts_with('-') => return usage(&format!("unknown flag {other}")),
            other => names.push(other.to_string()),
        }
    }

    let registry = experiments::all();
    let run_all = names.is_empty() || names.iter().any(|n| n == "all");
    let selected: Vec<_> = registry
        .iter()
        .filter(|(name, _)| run_all || names.iter().any(|n| n == name))
        .collect();
    if selected.is_empty() {
        return usage(&format!("no experiment matches {names:?}"));
    }
    for name in &names {
        if name != "all" && !registry.iter().any(|(n, _)| n == name) {
            return usage(&format!("unknown experiment {name:?}"));
        }
    }

    if let Err(e) = std::fs::create_dir_all(&out_dir) {
        eprintln!("cannot create {}: {e}", out_dir.display());
        return ExitCode::FAILURE;
    }

    // `--threads 0` (unset) builds a pool at the ambient default, so
    // installing it is behavior-preserving; thread count affects
    // wall-clock only, never output bytes.
    let pool = match rayon::ThreadPoolBuilder::new().num_threads(threads).build() {
        Ok(p) => p,
        Err(e) => {
            eprintln!("cannot build thread pool: {e}");
            return ExitCode::FAILURE;
        }
    };

    // RunReport of the repro run itself: everything observed here derives
    // from experiment outputs (never wall-clock), so the report is a
    // deterministic function of (experiments, jobs, seed).
    let mut reg = Registry::new();
    *reg.gauge("scale.jobs") = scale.jobs as f64;
    *reg.gauge("scale.seed") = scale.seed as f64;

    for (name, run) in selected {
        eprintln!(
            "==> running {name} (jobs={}, seed={})",
            scale.jobs, scale.seed
        );
        let t0 = std::time::Instant::now();
        let result = pool.install(|| run(scale));
        let dt = t0.elapsed();
        println!("\n{}", result.text);
        let txt = out_dir.join(format!("{name}.txt"));
        let json = out_dir.join(format!("{name}.json"));
        if let Err(e) = std::fs::write(&txt, &result.text) {
            eprintln!("cannot write {}: {e}", txt.display());
            return ExitCode::FAILURE;
        }
        let mut f = match std::fs::File::create(&json) {
            Ok(f) => f,
            Err(e) => {
                eprintln!("cannot write {}: {e}", json.display());
                return ExitCode::FAILURE;
            }
        };
        if serde_json::to_writer_pretty(&mut f, &result.json).is_err() || writeln!(f).is_err() {
            eprintln!("cannot serialize {name}");
            return ExitCode::FAILURE;
        }
        eprintln!(
            "<== {name} done in {dt:.1?}; wrote {} and {}",
            txt.display(),
            json.display()
        );
        *reg.counter("experiments.run") += 1;
        reg.hist("experiment.text_bytes")
            .observe(result.text.len() as f64);
        let json_len = serde_json::to_string(&result.json).map_or(0, |s| s.len());
        reg.hist("experiment.json_bytes").observe(json_len as f64);
    }

    if let Some(path) = report_out {
        if let Err(e) = std::fs::write(&path, reg.snapshot().to_json_pretty()) {
            eprintln!("cannot write {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
        eprintln!("wrote run report to {}", path.display());
    }
    ExitCode::SUCCESS
}

fn usage(err: &str) -> ExitCode {
    if !err.is_empty() {
        eprintln!("error: {err}\n");
    }
    eprintln!(
        "usage: repro [EXPERIMENT ...] [--jobs N] [--seed S] [--out DIR] [--quick] [--threads N] [--report-out FILE]\n\
         experiments: fig1 corr table2 table3 fig6 table4 fig7 fig8 fig9 ablation mapping seeds faults trace tournament (default: all)"
    );
    if err.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

//! Implementation of the `commsched` command-line tool.
//!
//! The binary is a thin `main` over [`run`], so every subcommand is unit-
//! testable: commands take parsed arguments and write to any `io::Write`.
//!
//! ```text
//! commsched topology validate <topology.conf>
//! commsched topology show (--preset NAME | --conf FILE)
//! commsched log generate --system NAME [--jobs N] [--seed S]
//!                        [--comm-pct P] [--pattern PAT] [--out FILE]
//! commsched log stats (--swf FILE [--ppn N] | --system NAME [...])
//! commsched run (--preset NAME | --conf FILE) --selector SEL
//!               (--swf FILE [--ppn N] | --system NAME) [--jobs N] [...]
//! commsched compare ...         # `run` for all four selectors
//! commsched patterns [RANKS]    # print collective schedules
//! ```

#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::unwrap_used))]
mod args;
mod cmd;

use std::io::Write;

/// Entry point: parse `argv` (without the program name) and execute.
///
/// Returns the process exit code; all output goes to `out`, errors to
/// `err`.
pub fn run(argv: &[String], out: &mut dyn Write, err: &mut dyn Write) -> i32 {
    let parsed = args::Parsed::new(argv).and_then(|(p, missing)| {
        match (missing, cmd::accepted_flags(&p)) {
            // Which flags a command reads can depend on one (`--selector`),
            // so a flag it reads is reported first if it lacks its value; a
            // flag it does not read is unknown, whatever follows it.
            (Some((flag, e)), accepted)
                if accepted.as_ref().is_none_or(|a| a.contains(&flag.as_str())) =>
            {
                Err(e)
            }
            (_, Some(accepted)) => p.reject_unknown(&accepted).map(|()| p),
            (_, None) => Ok(p),
        }
    });
    let parsed = match parsed {
        Ok(p) => p,
        Err(e) => {
            let _ = writeln!(err, "error: {e}\n\n{}", usage());
            return 2;
        }
    };
    // `--threads 0` (unset) builds the pool at the ambient default, so
    // installing it unconditionally is behavior-preserving; thread count
    // affects wall-clock only, never output bytes.
    let threads = match sizes(&parsed) {
        Ok(n) => n,
        Err(e) => {
            let _ = writeln!(err, "error: {e}\n\n{}", usage());
            return 2;
        }
    };
    let pool = match rayon::ThreadPoolBuilder::new().num_threads(threads).build() {
        Ok(p) => p,
        Err(e) => {
            let _ = writeln!(err, "error: cannot build thread pool: {e}");
            return 2;
        }
    };
    let result = pool.install(|| match parsed.command.as_str() {
        "topology" => cmd::topology(&parsed, out),
        "log" => cmd::log(&parsed, out),
        "run" => cmd::run_sim(&parsed, out, false),
        "individual" => cmd::individual(&parsed, out),
        "compare" => cmd::run_sim(&parsed, out, true),
        "patterns" => cmd::patterns(&parsed, out),
        "help" | "--help" | "-h" => {
            let _ = writeln!(out, "{}", usage());
            Ok(())
        }
        other => Err(format!("unknown command {other:?}")),
    });
    match result {
        Ok(()) => 0,
        Err(e) => {
            let _ = writeln!(err, "error: {e}");
            1
        }
    }
}

/// The most worker threads `--threads` may ask for.
const MAX_THREADS: usize = 1024;

/// The most jobs `--jobs` may ask for, a thousand times the paper's
/// 1,000-job logs; a generated log is allocated at the size asked for.
const MAX_JOBS: usize = 1_000_000;

/// `--threads` (0 when unset), once it and `--jobs` are within their
/// bounds: checked before any thread is spawned or any log allocated.
fn sizes(p: &args::Parsed) -> Result<usize, String> {
    let threads = p.get_parsed::<usize>("threads", 0)?;
    if threads > MAX_THREADS {
        return Err(format!("--threads {threads} is above {MAX_THREADS}"));
    }
    let jobs = p.get_parsed::<usize>("jobs", 0)?;
    if jobs > MAX_JOBS {
        return Err(format!("--jobs {jobs} is above {MAX_JOBS}"));
    }
    Ok(threads)
}

/// The usage text.
pub fn usage() -> &'static str {
    "commsched — communication-aware job scheduling toolkit

USAGE:
  commsched topology validate <topology.conf>
  commsched topology show (--preset NAME | --conf FILE)
  commsched log generate --system NAME [--jobs N] [--seed S]
                         [--comm-pct P] [--pattern PAT] [--out FILE]
  commsched log stats (--swf FILE [--ppn N] | --system NAME [--jobs N] [--seed S])
  commsched run     (--preset NAME | --conf FILE) [--selector SEL] <workload>
                    [--backfill none|easy|conservative] [--drain N]
                    [--utilization BUCKETS] [<faults>] [--reject-oversized]
                    [<observe>] [--sa-budget N] [--sa-seed S]  # SEL = sa only
  commsched compare (--preset NAME | --conf FILE) <workload> [<faults>]
                    [<observe>]   # one trace/report file per selector
                    (and run's other flags but --selector/--sa-*)
  commsched individual (--preset NAME | --conf FILE) <workload>
                    [--warmup FRAC] [--probes N]
  commsched patterns [RANKS]

  <workload> = --swf FILE [--ppn N] | --system NAME [--jobs N] [--seed S]
               [--comm-pct P] [--pattern PAT]
  <faults>   = (--fault-trace FILE |
                [--mtbf SECS [--mttr SECS]]            # node churn
                [--switch-mtbf SECS [--switch-mttr SECS]]  # subtree outages
                [--link-degrade PERMILLE [--link-mtbf SECS] [--link-mttr SECS]]
                [--fault-seed S])
               [--failure-policy cancel|requeue|requeue-front]
               [--max-retries N] [--backoff SECS]
               the three generators compose; a switch fault downs every
               node under it, a link event degrades one directed cable to
               PERMILLE/1000 of nominal until its repair
  <observe>  = [--trace-out FILE] [--trace-filter job,fault,net|all]
               [--report-out FILE]
               trace files ending in .json use the Chrome trace_event
               format (open in ui.perfetto.dev); anything else is JSONL

  Every command also accepts --threads N (worker threads for parallel
  sections; default: RAYON_NUM_THREADS, then the host's CPU count).
  Thread count never changes output bytes.

  NAME (presets): iitk-dept | iitk-hpc2010 | cori | intrepid | theta | mira
                  | multirail-500k | dragonfly-1m
  NAME (systems): intrepid | theta | mira
  SEL:  default | greedy | balanced | adaptive | sa
        sa refines the adaptive placement with seeded simulated annealing;
        only it takes --sa-budget N, evaluator calls per job (default 256;
        0 = incumbent bit-for-bit), and --sa-seed S, the search seed
        (default: the --seed value)
  PAT:  rd | rhvd | binomial | ring | stencil2d | alltoall"
}

#[cfg(test)]
mod tests;

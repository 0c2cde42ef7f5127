//! Standard Workload Format (SWF) parsing and emission.
//!
//! The Parallel Workload Archive distributes logs — including the Intrepid
//! log the paper uses — in SWF: `;`-prefixed header comments followed by
//! one line of 18 whitespace-separated integer fields per job
//! (Feitelson et al.). This module reads the fields the scheduler needs and
//! can write a [`JobLog`] back out for interchange.
//!
//! Missing values are encoded as `-1` in SWF; we substitute sensible
//! fallbacks (requested ← used, walltime ← runtime).

use crate::model::{Job, JobLog};
use commsched_core::{JobId, JobNature};
use std::fmt;

/// SWF field indices (0-based) of the columns we consume.
const F_JOB: usize = 0;
const F_SUBMIT: usize = 1;
const F_RUN: usize = 3;
const F_PROCS_USED: usize = 4;
const F_PROCS_REQ: usize = 7;
const F_TIME_REQ: usize = 8;
const F_STATUS: usize = 10;
const FIELDS: usize = 18;
/// Largest time field accepted, 2^53 s: the engine's time arithmetic
/// converts seconds to `f64`, exact only up to there.
const MAX_SECONDS: i64 = commsched_num::F64_EXACT_MAX as i64;

/// SWF column name for a consumed 0-based field index (Feitelson et al.).
fn field_name(i: usize) -> &'static str {
    match i {
        F_JOB => "job_number",
        F_SUBMIT => "submit_time",
        F_RUN => "run_time",
        F_PROCS_USED => "allocated_processors",
        F_PROCS_REQ => "requested_processors",
        F_TIME_REQ => "requested_time",
        F_STATUS => "status",
        _ => "unknown",
    }
}

/// A parse failure, with the 1-based line number and offending field.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SwfError {
    /// Line the error occurred on (1-based; 0 when not line-specific).
    pub line: usize,
    /// SWF column name the error refers to, when a single field is at fault.
    pub field: Option<&'static str>,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for SwfError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "SWF line {}", self.line)?;
        if let Some(field) = self.field {
            write!(f, " field '{field}'")?;
        }
        write!(f, ": {}", self.message)
    }
}

impl std::error::Error for SwfError {}

/// Parse an SWF document into a [`JobLog`].
///
/// * Jobs with non-positive runtime or zero processors are skipped, like
///   the paper's preprocessing (cancelled/failed stubs).
/// * `procs_per_node` converts SWF processor counts to whole nodes
///   (Intrepid: 4, Mira: 16, Theta: 64); counts round up.
/// * All jobs come out compute-intensive with no pattern — callers assign
///   natures with [`assign_natures`], as the paper does (§5.1).
pub fn parse(text: &str, name: &str, procs_per_node: usize) -> Result<JobLog, SwfError> {
    if procs_per_node == 0 {
        return Err(SwfError {
            line: 0,
            field: None,
            message: "procs_per_node must be at least 1".into(),
        });
    }
    let mut jobs = Vec::new();
    for (lineno, raw) in text.lines().enumerate() {
        let line = raw.trim();
        if line.is_empty() || line.starts_with(';') {
            continue;
        }
        let fields: Vec<&str> = line.split_whitespace().collect();
        if fields.len() < FIELDS {
            return Err(SwfError {
                line: lineno + 1,
                field: None,
                message: format!("expected {FIELDS} fields, found {}", fields.len()),
            });
        }
        let get = |i: usize| -> Result<i64, SwfError> {
            fields[i].parse().map_err(|_| SwfError {
                line: lineno + 1,
                field: Some(field_name(i)),
                message: format!("column {} is not an integer: {:?}", i + 1, fields[i]),
            })
        };
        let time = |i: usize| -> Result<i64, SwfError> {
            let t = get(i)?;
            if t > MAX_SECONDS {
                return Err(SwfError {
                    line: lineno + 1,
                    field: Some(field_name(i)),
                    message: format!("{t} s is above 2^53 s"),
                });
            }
            Ok(t)
        };
        let id = get(F_JOB)?;
        let submit = time(F_SUBMIT)?.max(0) as u64;
        let runtime = time(F_RUN)?;
        let status = get(F_STATUS)?;
        let procs_used = get(F_PROCS_USED)?;
        let procs_req = get(F_PROCS_REQ)?;
        let time_req = time(F_TIME_REQ)?;

        let procs = if procs_req > 0 { procs_req } else { procs_used };
        if runtime <= 0 || procs <= 0 || status == 0 || status == 5 {
            // Failed (0) and cancelled (5) jobs never occupied the machine
            // for a meaningful duration in the paper's replay.
            continue;
        }
        let runtime = runtime as u64;
        let walltime = if time_req > 0 {
            (time_req as u64).max(runtime)
        } else {
            runtime
        };
        let nodes = (procs as usize).div_ceil(procs_per_node);
        jobs.push(Job {
            id: JobId(id.max(0) as u64),
            submit,
            runtime,
            walltime,
            nodes,
            nature: JobNature::ComputeIntensive,
            comm: Vec::new(),
        });
    }
    Ok(JobLog::new(name, jobs))
}

/// Emit a [`JobLog`] as SWF (18 fields; unknowns written as `-1`).
pub fn emit(log: &JobLog) -> String {
    let mut out = String::new();
    out.push_str("; SWF written by commsched-workload\n");
    out.push_str(&format!("; Jobs: {}\n", log.jobs.len()));
    for j in &log.jobs {
        // job submit wait run used_procs avg_cpu mem req_procs req_time
        // req_mem status uid gid exe queue partition preceding think
        out.push_str(&format!(
            "{} {} -1 {} {} -1 -1 {} {} -1 1 -1 -1 -1 -1 -1 -1 -1\n",
            j.id.0, j.submit, j.runtime, j.nodes, j.nodes, j.walltime
        ));
    }
    out
}

/// Assign natures/patterns to a parsed log the way [`crate::LogSpec`]
/// does for synthetic ones: `pct`% of jobs (chosen by a seeded shuffle)
/// become communication-intensive with the given components. Percentages
/// above 100 are clamped to 100.
pub fn assign_natures(
    log: &mut JobLog,
    pct: u8,
    components: &[(commsched_collectives::Pattern, f64)],
    seed: u64,
) {
    use rand::SeedableRng;
    let mut rng = rand_chacha::ChaCha12Rng::seed_from_u64(seed);
    crate::generate::assign_natures(&mut log.jobs, pct, components, &mut rng);
}

//! Seeded synthetic log generation calibrated to the paper's marginals.

use crate::model::{Job, JobLog, SystemModel};
use commsched_collectives::Pattern;
use commsched_core::{JobId, JobNature};
use rand::prelude::*;
use rand_chacha::ChaCha12Rng;

/// The paper's §6.2 experiment sets: per-job compute/communication splits.
///
/// Each communication-intensive job divides its runtime into a compute part
/// and one or two collective components. Sets D and E model CMC2D-like
/// proxy apps that mix RD with binomial collectives.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MixSet {
    /// 67% compute, 33% RHVD.
    A,
    /// 50% compute, 50% RHVD.
    B,
    /// 30% compute, 70% RHVD.
    C,
    /// 50% compute, 15% RD, 35% binomial (CMC2D-like).
    D,
    /// 30% compute, 21% RD, 49% binomial (CMC2D-like, heavier comm).
    E,
}

impl MixSet {
    /// All five sets in the paper's order.
    pub const ALL: [MixSet; 5] = [MixSet::A, MixSet::B, MixSet::C, MixSet::D, MixSet::E];

    /// `(pattern, fraction-of-runtime)` components of a comm-intensive job.
    pub(crate) fn components(self) -> Vec<(Pattern, f64)> {
        match self {
            MixSet::A => vec![(Pattern::Rhvd, 0.33)],
            MixSet::B => vec![(Pattern::Rhvd, 0.50)],
            MixSet::C => vec![(Pattern::Rhvd, 0.70)],
            MixSet::D => vec![(Pattern::Rd, 0.15), (Pattern::Binomial, 0.35)],
            MixSet::E => vec![(Pattern::Rd, 0.21), (Pattern::Binomial, 0.49)],
        }
    }

    /// Label used in figures ("A".."E").
    pub fn label(self) -> &'static str {
        match self {
            MixSet::A => "A",
            MixSet::B => "B",
            MixSet::C => "C",
            MixSet::D => "D",
            MixSet::E => "E",
        }
    }
}

/// Builder for a synthetic job log.
///
/// Deterministic: the same spec (including seed) always generates the same
/// log, on every platform (ChaCha12 RNG, no platform-dependent
/// distributions).
#[derive(Debug, Clone)]
pub struct LogSpec {
    system: SystemModel,
    jobs: usize,
    seed: u64,
    comm_percent: u8,
    components: Vec<(Pattern, f64)>,
}

impl LogSpec {
    /// A spec for `jobs` jobs on `system`, seeded by `seed`.
    ///
    /// Defaults: 90% communication-intensive jobs, each spending 50% of its
    /// runtime in RHVD (the paper's Table 3 top sub-rows).
    pub fn new(system: SystemModel, jobs: usize, seed: u64) -> Self {
        LogSpec {
            system,
            jobs,
            seed,
            comm_percent: 90,
            components: vec![(Pattern::Rhvd, 0.5)],
        }
    }

    /// Percentage (0–100) of communication-intensive jobs (§6.5 varies
    /// this over 30 / 60 / 90).
    pub fn comm_percent(mut self, pct: u8) -> Self {
        assert!(pct <= 100);
        self.comm_percent = pct;
        self
    }

    /// Give every communication-intensive job a single collective pattern
    /// at the current total communication fraction.
    pub fn pattern(mut self, pattern: Pattern) -> Self {
        let total: f64 = self.components.iter().map(|(_, f)| f).sum();
        self.components = vec![(pattern, total)];
        self
    }

    /// Use one of the paper's experiment sets A–E (§6.2).
    pub fn mix(mut self, set: MixSet) -> Self {
        self.components = set.components();
        self
    }

    /// Generate the log.
    pub fn generate(&self) -> JobLog {
        let sys = &self.system;
        let mut rng = ChaCha12Rng::seed_from_u64(self.seed ^ 0x636f_6d6d_7363_6864);
        let mut jobs = Vec::with_capacity(self.jobs);
        let mut submit = 0u64;

        for i in 0..self.jobs {
            // Bursty Poisson arrivals: exponential interarrival with an
            // occasional burst (several jobs submitted together), which
            // production logs show and which exercises backfilling.
            if rng.random::<f64>() < 0.85 || i == 0 {
                let u: f64 = rng.random::<f64>().max(1e-12);
                let gap = -u.ln() * sys.mean_interarrival;
                submit += gap as u64;
            }
            let nodes = self.sample_nodes(&mut rng);
            let runtime = self.sample_runtime(&mut rng);
            let walltime = ((runtime as f64)
                * (1.0 + (sys.walltime_slack - 1.0) * rng.random::<f64>() * 2.0))
                .max(runtime as f64) as u64;
            jobs.push(Job {
                id: JobId(i as u64 + 1),
                submit,
                runtime,
                walltime,
                nodes,
                nature: JobNature::ComputeIntensive, // assigned below
                comm: Vec::new(),
            });
        }

        assign_natures(&mut jobs, self.comm_percent, &self.components, &mut rng);
        JobLog::new(format!("{}-synthetic-seed{}", sys.name, self.seed), jobs)
    }

    /// Sample a node request: a power of two with probability
    /// `pow2_fraction` (geometric over exponents so small jobs dominate,
    /// as in production logs), otherwise uniform in range.
    fn sample_nodes(&self, rng: &mut ChaCha12Rng) -> usize {
        let sys = &self.system;
        let emin = sys.min_request.next_power_of_two().trailing_zeros();
        let emax = sys.max_request.ilog2();
        if rng.random::<f64>() < sys.pow2_fraction {
            // Geometric over exponents, ratio 0.62 per step.
            let mut e = emin;
            while e < emax && rng.random::<f64>() < 0.62 {
                e += 1;
            }
            1usize << e
        } else {
            let span = sys.max_request - sys.min_request;
            let mut v = sys.min_request + rng.random_range(0..=span);
            if v.is_power_of_two() {
                v = (v + 1).min(sys.max_request);
            }
            v
        }
    }

    /// Lognormal runtime via Box–Muller, floored at 60 s and capped at
    /// 24 h (PWA logs clean away longer outliers).
    fn sample_runtime(&self, rng: &mut ChaCha12Rng) -> u64 {
        let sys = &self.system;
        let u1: f64 = rng.random::<f64>().max(1e-12);
        let u2: f64 = rng.random::<f64>();
        let z = (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos();
        let t = sys.runtime_median * (sys.runtime_sigma * z).exp();
        t.clamp(60.0, 86_400.0) as u64
    }
}

/// Make `floor(n · pct / 100)` of the `n` jobs (`pct` clamped to 100),
/// picked by a shuffle drawn from `rng`, communicate with `components`;
/// the rest only compute.
pub(crate) fn assign_natures(
    jobs: &mut [Job],
    pct: u8,
    components: &[(Pattern, f64)],
    rng: &mut ChaCha12Rng,
) {
    let n_comm = jobs.len() * usize::from(pct.min(100)) / 100;
    let mut idx: Vec<usize> = (0..jobs.len()).collect();
    idx.shuffle(rng);
    for j in jobs.iter_mut() {
        j.nature = JobNature::ComputeIntensive;
        j.comm.clear();
    }
    for &k in idx.iter().take(n_comm) {
        jobs[k].nature = JobNature::CommIntensive;
        jobs[k].comm = components.to_vec();
    }
}

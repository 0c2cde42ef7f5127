//! Budgeted simulated-annealing placement refinement (DESIGN.md §4.10).
//!
//! [`SaSelector`] starts from the adaptive greedy/balanced incumbent
//! (§4.3) and spends a fixed evaluation budget exploring neighbouring
//! placements: proposal moves *shift* nodes between sibling leaves or
//! *swap* two leaves' grants under the switch the incumbent's own descent
//! stopped at (the one `topology/tree` picks), and
//! every proposal is scored with the fused what-if [`PlacementEvaluator`]
//! — no `ClusterState` clones, the hop memo re-stamps per proposal, and the
//! evaluator is a scratch local to one `decide`. The
//! acceptance rule is classic Metropolis with geometric cooling; see
//! DESIGN.md §4.10 for the determinism argument.
//!
//! Determinism contract:
//! * the proposal stream is drawn from a ChaCha generator seeded by
//!   [`derive_seed`]`(run_seed, job, attempt)` — placement is a pure
//!   function of (tree, state, request, budget, seed), independent of
//!   thread count or call history;
//! * a budget of 0 (or a compute-intensive job, or a single-leaf grant)
//!   returns the incumbent's takes **unchanged** — the ones the adaptive
//!   rule produced, not a reconstruction;
//! * the returned placement never costs more than the incumbent: the
//!   search only replaces it when a strictly cheaper candidate was found;
//! * the decision carries the totals of every candidate scored outside
//!   the loop — the adaptive pair, or the incumbent when the pair
//!   coincided — plus the best proposal's when it replaced the incumbent,
//!   and, when the loop ran, its [`SaStats`] in [`Decision::search`].
#![deny(clippy::as_conversions)]

use crate::cost::CostModel;
use crate::eval::PlacementEvaluator;
use crate::select::{
    adaptive_choice, AllocRequest, Choice, Decision, NodeSelector, Scored, SelectError,
};
use crate::state::{ClusterState, JobId};
use commsched_topology::Tree;
use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha12Rng;

/// Initial Metropolis temperature, as a fraction of the incumbent cost
/// (the scale is `INIT_TEMP * max(cost_incumbent, 1)`).
const INIT_TEMP: f64 = 0.08;

/// Geometric cooling factor applied after every evaluation: cold enough
/// to converge well inside the default budget.
const COOLING: f64 = 0.97;

/// Outcome of one annealing search, recorded for tracing.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SaStats {
    /// The selector's evaluation budget.
    pub budget: u32,
    /// Evaluator calls actually spent (≤ `budget`).
    pub evals: u32,
    /// Accepted proposals (including uphill Metropolis accepts).
    pub accepted: u32,
    /// Rejected proposals.
    pub rejected: u32,
    /// Eq. 6 cost of the incumbent placement under the search model.
    pub cost_incumbent: f64,
    /// Cost of the returned placement (≤ `cost_incumbent`).
    pub cost_final: f64,
}

/// Derive the per-search RNG seed from the run seed, the job id and the
/// scheduling attempt (splitmix64-style finalizers), so requeued attempts
/// explore a *different* neighbourhood than the first try while staying
/// fully reproducible from the run seed.
pub(crate) fn derive_seed(run_seed: u64, job: JobId, attempt: u32) -> u64 {
    let mut z = run_seed
        .wrapping_add(job.0.wrapping_mul(0x9e37_79b9_7f4a_7c15))
        .wrapping_add(u64::from(attempt).wrapping_mul(0xbf58_476d_1ce4_e5b9));
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Budgeted simulated-annealing selector over the free-count index: plain
/// configuration, so a decision depends on nothing but its arguments.
/// Proposals are scored under hop-bytes, like the adaptive rule it refines.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SaSelector {
    /// Maximum number of evaluator calls per placement. 0 disables the
    /// search entirely — the incumbent is returned bit-for-bit.
    pub evals: u32,
    /// Run seed the per-job search seed is derived from.
    pub seed: u64,
}

impl Default for SaSelector {
    /// 256 evaluations, run seed 0.
    fn default() -> Self {
        SaSelector::new(256, 0)
    }
}

impl SaSelector {
    /// SA spending at most `evals` evaluations per placement.
    pub fn new(evals: u32, seed: u64) -> Self {
        SaSelector { evals, seed }
    }

    /// Run the annealing loop from the adaptive `incumbent`, over the
    /// leaves under the switch its descent stopped at, scoring through
    /// `eval`; returns the refined choice (or the incumbent's takes
    /// unchanged when no strictly cheaper candidate was found) with the
    /// loop's [`SaStats`] as its `search`.
    fn anneal(
        &self,
        eval: &mut PlacementEvaluator,
        tree: &Tree,
        state: &ClusterState,
        req: &AllocRequest,
        mut incumbent: Choice,
    ) -> Choice {
        let p = incumbent.switch;
        if tree.switch(p).children.is_empty() {
            // Single-leaf grant — no sibling subtrees to move across.
            return incumbent;
        }
        // Candidate leaves in ascending ordinal order: (ordinal, capacity).
        let leaves: Vec<(usize, u32)> = tree
            .leaf_ordinals_under(p)
            .map(|k| (k, state.leaf_free(k)))
            .filter(|&(_, free)| free > 0)
            .collect();
        if leaves.len() < 2 {
            return incumbent;
        }
        // Incumbent takes spread over the candidate leaves.
        let mut take = vec![0u32; leaves.len()];
        for &(ord, count) in &incumbent.takes {
            let Ok(idx) = leaves.binary_search_by_key(&ord, |&(o, _)| o) else {
                // Incumbent take on a leaf the index does not list under
                // `p` — cannot model the move space; keep the incumbent.
                return incumbent;
            };
            take[idx] = count;
        }
        let spec = req.spec();
        let model = CostModel::HOP_BYTES;
        let discount = model.trunk_discount;
        let totals_incumbent = incumbent.totals().unwrap_or_else(|| {
            // The adaptive rule scored nothing (its two candidates
            // coincided): score the incumbent here, and keep the totals.
            let totals = eval.evaluate_takes(tree, state, discount, &incumbent.takes, &spec);
            incumbent.candidates.push(Scored {
                takes: incumbent.takes.clone(),
                totals,
                spec,
                trunk_discount: discount,
            });
            totals
        });
        let cost_incumbent = totals_incumbent.for_model(&model);
        let scale = cost_incumbent.max(1.0);
        let mut rng = ChaCha12Rng::seed_from_u64(derive_seed(self.seed, req.job, req.attempt));
        let mut temp = INIT_TEMP;
        let mut cur = take.clone();
        let mut cur_cost = cost_incumbent;
        let mut best = take.clone();
        let mut best_totals = totals_incumbent;
        let mut best_cost = cost_incumbent;
        let mut groups: Vec<(usize, u32)> = Vec::with_capacity(leaves.len());
        let mut evals = 0u32;
        let mut accepted = 0u32;
        let mut rejected = 0u32;
        let mut cand = cur.clone();
        while evals < self.evals {
            cand.copy_from_slice(&cur);
            if !propose(&mut rng, &leaves, &mut cand) {
                // No legal move found in the retry window (e.g. every
                // leaf drained exactly); further draws are futile.
                break;
            }
            // Score the proposal from its takes directly — `leaves` is
            // ordinal-ascending, so the non-zero entries are too.
            takes_of(&leaves, &cand, &mut groups);
            let totals = eval.evaluate_takes(tree, state, discount, &groups, &spec);
            let cost = totals.for_model(&model);
            evals += 1;
            let delta = cost - cur_cost;
            let accept = delta <= 0.0 || rng.random::<f64>() < (-delta / (temp * scale)).exp();
            if accept {
                accepted += 1;
                cur.copy_from_slice(&cand);
                cur_cost = cost;
                if cost < best_cost {
                    best.copy_from_slice(&cand);
                    best_totals = totals;
                    best_cost = cost;
                }
            } else {
                rejected += 1;
            }
            temp *= COOLING;
        }
        let cost_final = if best_cost < cost_incumbent {
            takes_of(&leaves, &best, &mut groups);
            incumbent.takes = groups.clone();
            incumbent.candidates.push(Scored {
                takes: groups,
                totals: best_totals,
                spec,
                trunk_discount: discount,
            });
            best_cost
        } else {
            cost_incumbent
        };
        incumbent.search = Some(SaStats {
            budget: self.evals,
            evals,
            accepted,
            rejected,
            cost_incumbent,
            cost_final,
        });
        incumbent
    }
}

/// The non-zero entries of a take vector over `leaves`, as
/// `(leaf ordinal, count)` takes.
fn takes_of(leaves: &[(usize, u32)], take: &[u32], out: &mut Vec<(usize, u32)>) {
    out.clear();
    out.extend(
        leaves
            .iter()
            .zip(take)
            .filter(|&(_, &t)| t > 0)
            .map(|(&(ord, _), &t)| (ord, t)),
    );
}

/// Mutate `cand` with one legal shift or swap move; `false` when no legal
/// move was found within the retry window.
fn propose(rng: &mut ChaCha12Rng, leaves: &[(usize, u32)], cand: &mut [u32]) -> bool {
    const RETRIES: u32 = 8;
    let n = leaves.len();
    for _ in 0..RETRIES {
        let i = rng.random_range(0..n);
        let j = rng.random_range(0..n);
        if i == j {
            continue;
        }
        if rng.random::<bool>() {
            // Shift: move nodes from leaf i to leaf j's headroom.
            let room = leaves[j].1 - cand[j];
            let movable = cand[i].min(room);
            if movable == 0 {
                continue;
            }
            let amt = rng.random_range(1..=movable);
            cand[i] -= amt;
            cand[j] += amt;
        } else {
            // Swap the two leaves' grants, capacities permitting.
            if cand[i] == cand[j] || cand[i] > leaves[j].1 || cand[j] > leaves[i].1 {
                continue;
            }
            cand.swap(i, j);
        }
        return true;
    }
    false
}

impl NodeSelector for SaSelector {
    fn decide(
        &self,
        tree: &Tree,
        state: &ClusterState,
        req: &AllocRequest,
    ) -> Result<Decision, SelectError> {
        // One scratch evaluator scores the incumbent pair and every
        // proposal; it keeps buffers, never results, and dies here.
        let mut eval = PlacementEvaluator::new();
        let mut choice = adaptive_choice(&CostModel::HOP_BYTES, &mut eval, tree, state, req)?;
        if self.evals > 0 && req.nature.is_comm() {
            choice = self.anneal(&mut eval, tree, state, req, choice);
        }
        Ok(choice.resolve(tree, state))
    }
}

//! Fused single-pass placement evaluation.
//!
//! [`PlacementEvaluator`] walks a collective schedule **once** and returns
//! both Eq. 6 totals — raw effective hops and effective hop-bytes — from
//! the same traversal. The two default [`CostModel`]s differ only in the
//! per-step weighting (`worst` vs `worst * msize`); the per-step maximum
//! itself is identical whenever the trunk discounts match, so one pass over
//! the schedule yields both numbers bit-for-bit as the naive
//! [`CostModel::job_cost`] computes them.
//!
//! The schedule is never expanded into rank pairs. A placement is a short
//! ascending `(leaf, count)` take list with ranks contiguous per take, and
//! a step is a short list of affine rank segments
//! ([`CollectiveSpec::step_segments`]): intersecting the two names every
//! *leaf pair* the step's rank pairs join, and Eq. 5 depends on nothing
//! else. The per-step maximum is taken over the same set of leaf pairs the
//! pair-by-pair sweep visits — a maximum does not care how often or in
//! what order a value is offered — and the steps are summed in the same
//! order, so the totals are the same bits.
//!
//! The evaluator never mutates the [`ClusterState`]. The hypothetical
//! job's own contribution to `L_comm` (the paper's worked example counts
//! the job's own nodes) is applied as an *overlay*: integer deltas added to
//! the `u32` leaf counters before the `f64` conversion, which is exactly
//! what a real allocation would have produced.
//!
//! A **per-leaf-pair hop memo** lets the steps of one schedule reuse hop
//! values. It lives for one call: every evaluation starts from a fresh
//! stamp, so the totals depend only on the arguments, never on what the
//! evaluator scored before. Reusing one evaluator saves allocations, not
//! answers.
#![deny(clippy::as_conversions)]

use crate::cost::CostModel;
use crate::placement::Placement;
use crate::state::ClusterState;
use commsched_collectives::{CollectiveSpec, StepSegments};
use commsched_num::{f64_of_u64, usize_of_u32};
use commsched_topology::Tree;

/// Both Eq. 6 totals from one schedule traversal.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EvalTotals {
    /// Σ per-step max effective hops (the paper's Eq. 6 as printed).
    pub raw_hops: f64,
    /// Σ per-step max effective hops × step message size (§5.3 hop-bytes).
    pub hop_bytes: f64,
}

impl EvalTotals {
    /// The total the given model would have reported from its own
    /// [`CostModel::job_cost`] traversal.
    #[inline]
    pub fn for_model(&self, model: &CostModel) -> f64 {
        if model.hop_bytes {
            self.hop_bytes
        } else {
            self.raw_hops
        }
    }
}

/// Widest candidate (in *touched* leaf switches) whose leaf-pair hops are
/// memoized (16 MiB of table); a wider one computes each probed pair
/// afresh — a sweep probes a few pairs per take and step, so the memo is
/// sized by the job's own leaf spread and never by the machine.
const FLAT_MEMO_MAX_TOUCHED: usize = 1024;

/// Single-pass what-if cost evaluator (see module docs).
///
/// Reusable across placements, trees and states: it keeps buffers between
/// calls but no results, so one evaluator per engine or selector only
/// saves allocations.
#[derive(Debug, Default)]
pub struct PlacementEvaluator {
    /// Hop memo for canonical *touched-leaf* pairs, `(stamp, hops)`:
    /// leaves are named by their position in the candidate's takes, and
    /// the memo is indexed `da * touched + db` with `da <= db`. An entry
    /// is valid only when its stamp matches [`Self::stamp`], which every
    /// call bumps, so invalidation is one counter bump, not a table wipe,
    /// and the table only ever grows.
    hops: Vec<(u64, f64)>,
    stamp: u64,
    /// Prefix sums of the current candidate's take counts: take `t` holds
    /// the ranks `bounds[t]..bounds[t + 1]`.
    bounds: Vec<usize>,
}

impl PlacementEvaluator {
    pub fn new() -> Self {
        Self::default()
    }

    /// Evaluate placing `placement` as a communication-intensive job
    /// running `spec`, without mutating `state`. Returns both Eq. 6 totals.
    ///
    /// Equivalent (bit-for-bit) to allocating the placement on a copy of
    /// `state` and calling [`CostModel::job_cost`] on its node ids once per
    /// model with `trunk_discount`, but in a single traversal of the
    /// schedule and without ever looking at an id.
    pub fn evaluate(
        &mut self,
        tree: &Tree,
        state: &ClusterState,
        trunk_discount: f64,
        placement: &Placement,
        spec: &CollectiveSpec,
    ) -> EvalTotals {
        self.evaluate_takes(tree, state, trunk_discount, placement.takes(), spec)
    }

    /// [`Self::evaluate`] on bare takes — `(leaf ordinal, count)` pairs in
    /// strictly ascending ordinal order with every count positive — for
    /// candidates never resolved to nodes: the selectors' losers, the
    /// annealing loop's proposals and the engine's Eq. 7 default.
    ///
    /// Block rank order is node-id order and leaf `k`'s ids are one
    /// contiguous range ascending with `k` ([`Tree::leaf_node_range`]), so
    /// the takes laid end to end *are* the rank→leaf map, and they are
    /// also the job's own `L_comm` overlay, already sorted and merged.
    pub fn evaluate_takes(
        &mut self,
        tree: &Tree,
        state: &ClusterState,
        trunk_discount: f64,
        takes: &[(usize, u32)],
        spec: &CollectiveSpec,
    ) -> EvalTotals {
        debug_assert!(
            takes.windows(2).all(|w| w[0].0 < w[1].0) && takes.iter().all(|t| t.1 > 0),
            "takes must ascend strictly by leaf ordinal with positive counts: {takes:?}"
        );
        self.bounds.clear();
        self.bounds.push(0);
        let mut ranks = 0;
        for &(_, count) in takes {
            ranks += usize_of_u32(count);
            self.bounds.push(ranks);
        }
        self.stamp += 1;
        let m = takes.len();
        let memoized = m <= FLAT_MEMO_MAX_TOUCHED;
        if memoized && self.hops.len() < m * m {
            self.hops.resize(m * m, (0, 0.0));
        }

        let contention = CostModel {
            hop_bytes: false,
            trunk_discount,
        };
        let (bounds, hops, stamp) = (&self.bounds, &mut self.hops, self.stamp);

        let mut raw_hops = 0.0;
        let mut hop_bytes = 0.0;
        let mut worst: f64 = 0.0;
        let mut swept: Option<StepSegments> = None;
        for step in spec.step_segments(ranks) {
            // Identical consecutive steps (a ring's `p - 1`) share one
            // sweep; each is still added on its own.
            if swept != Some(step) {
                worst = 0.0;
                step.for_each_part_pair(bounds, |da, db| {
                    let hop = || {
                        let ((la, delta_a), (lb, delta_b)) = (takes[da], takes[db]);
                        Self::hop_value(tree, state, &contention, la, lb, delta_a, delta_b)
                    };
                    let h = if memoized {
                        let slot = &mut hops[da * m + db];
                        if slot.0 != stamp {
                            *slot = (stamp, hop());
                        }
                        slot.1
                    } else {
                        hop()
                    };
                    if h > worst {
                        worst = h;
                    }
                });
                swept = Some(step);
            }
            raw_hops += worst;
            hop_bytes += worst * f64_of_u64(step.msize);
        }
        EvalTotals {
            raw_hops,
            hop_bytes,
        }
    }

    /// Eq. 5 for a canonical leaf pair under the candidate's own `L_comm`
    /// deltas — float-op-identical to the expression inside the
    /// [`CostModel::job_cost`] sweep's memo fill.
    #[inline]
    fn hop_value(
        tree: &Tree,
        state: &ClusterState,
        contention: &CostModel,
        la: usize,
        lb: usize,
        delta_a: u32,
        delta_b: u32,
    ) -> f64 {
        // One leaf is level 1, so `d` is Eq. 4's 2 there too.
        let level = tree.leaf_lca_level(la, lb);
        let d = f64::from(2 * level);
        let comm_a = state.leaf_comm(la) + delta_a;
        let comm_b = state.leaf_comm(lb) + delta_b;
        d * (1.0 + contention.leaf_contention_counts(tree, la, lb, level, comm_a, comm_b))
    }
}

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
//! The evaluator never mutates the [`ClusterState`]. The hypothetical
//! job's own contribution to `L_comm` (the paper's worked example counts
//! the job's own nodes) is applied as an *overlay*: integer deltas added to
//! the `u32` leaf counters before the `f64` conversion, which is exactly
//! what a real allocation would have produced.
//!
//! Two memoization layers amortize repeated evaluations:
//!
//! * a **per-leaf-pair hop memo**, tagged with the state version, trunk
//!   discount and the exact overlay, so successive components of the same
//!   job (same allocation, same state) reuse hop values across collectives;
//! * a **schedule cache** keyed on `(pattern, ranks, msize)`, because
//!   [`CollectiveSpec::steps`] regenerates the full step list on every call
//!   and placement evaluates the same spec for several candidate
//!   allocations in a row.
#![deny(clippy::as_conversions)]

use crate::cost::CostModel;
use crate::placement::Placement;
use crate::state::ClusterState;
use commsched_collectives::{CollectiveSpec, Pattern, Step};
use commsched_num::{f64_of_u64, usize_of_u32};
use commsched_topology::Tree;
use std::collections::HashMap;
use std::sync::Arc;

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

/// Upper bound on distinct cached schedules before the cache is cleared.
const MAX_CACHED_SCHEDULES: usize = 128;
/// Schedules with more total pairs than this are not cached (an alltoall
/// at large rank counts holds millions of pairs; regenerate those instead
/// of pinning the memory).
const MAX_CACHED_SCHEDULE_PAIRS: usize = 1 << 22;
/// Widest candidate (in touched leaf switches) whose canonical hop matrix
/// is filled eagerly before the pair sweep — at most 136 `hop_value`
/// calls, repaid many times over by dropping the per-pair stamp check.
const EAGER_MATRIX_MAX_TOUCHED: usize = 16;
/// Widest candidate (in *touched* leaf switches) served by the flat dense
/// hop memo; beyond this (8 MiB of table) a hash map takes over. The memo
/// is sized by the job's own leaf spread — never by the machine — so the
/// fast path holds even on the 1M-node presets, where a 4096-node job
/// spans at most a few hundred leaves.
const FLAT_MEMO_MAX_TOUCHED: usize = 1024;

/// Single-pass what-if cost evaluator (see module docs).
///
/// Reusable across placements; hold one per engine/selector and feed every
/// evaluation through it so the hop memo and schedule cache stay warm.
#[derive(Debug, Default)]
pub struct PlacementEvaluator {
    /// `(pattern, ranks, msize)` → generated steps.
    schedules: HashMap<(Pattern, usize, u64), Arc<Vec<Step>>>,
    /// Flat hop memo for canonical *touched-leaf* pairs: leaves are
    /// remapped to their dense position in the sorted overlay (the
    /// candidate's touched leaves), and the memo is indexed
    /// `da * touched + db` with `da <= db`. An entry is valid only when its
    /// stamp matches [`Self::stamp`], so invalidation is one counter bump,
    /// not a table wipe. The inner pair loop is the hottest code in
    /// placement — an array probe here beats a `HashMap` probe by an order
    /// of magnitude, and sizing by the job's leaf spread (not the machine's
    /// leaf count) keeps the table small on exascale trees.
    hop_stamp: Vec<u64>,
    hop_vals: Vec<f64>,
    stamp: u64,
    /// Fallback memo (keyed by canonical leaf ordinals) for candidates
    /// spread over more leaves than the flat table serves.
    hop_map: HashMap<(usize, usize), f64>,
    /// Touched-leaf count the flat memo is sized for.
    dense_dim: usize,
    /// `(state version, trunk discount bits)` the hop memo was filled
    /// under; together with [`Self::overlay`] it is the memo's validity.
    tag: Option<(u64, u64)>,
    /// The last candidate's takes: its sorted `(leaf ordinal, +comm delta)`
    /// overlay, and what `dense_of_rank` was expanded from.
    overlay: Vec<(usize, u32)>,
    /// Dense overlay position of each rank's leaf.
    dense_of_rank: Vec<usize>,
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
    /// the annealing loop, which scores proposals it never resolves to
    /// nodes.
    ///
    /// Block rank order is node-id order and leaf `k`'s ids are one
    /// contiguous range ascending with `k` ([`Tree::leaf_node_range`]), so
    /// the takes laid end to end *are* the rank→leaf map, and they are
    /// also the job's own `L_comm` overlay, already sorted and merged.
    pub(crate) fn evaluate_takes(
        &mut self,
        tree: &Tree,
        state: &ClusterState,
        trunk_discount: f64,
        takes: &[(usize, u32)],
        spec: &CollectiveSpec,
    ) -> EvalTotals {
        // The engine scores one placement once per collective component,
        // and right after the adaptive rule scored it: the rank map is
        // rebuilt only when the takes change.
        let same_takes = self.overlay == takes;
        if !same_takes {
            self.overlay.clear();
            self.overlay.extend_from_slice(takes);
            self.dense_of_rank.clear();
            for (d, &(_, count)) in takes.iter().enumerate() {
                self.dense_of_rank
                    .extend(std::iter::repeat_n(d, usize_of_u32(count)));
            }
        }
        // The hop memo survives across calls only while the contention
        // context is unchanged: same state version, same discount, and the
        // same overlay (compared exactly — no fingerprint collisions).
        let tag = (state.version(), trunk_discount.to_bits());
        if self.tag != Some(tag) || !same_takes {
            self.stamp += 1;
            self.hop_map.clear();
            self.tag = Some(tag);
        }
        let m = self.overlay.len();
        let flat = m <= FLAT_MEMO_MAX_TOUCHED;
        if flat && self.dense_dim != m {
            self.dense_dim = m;
            self.hop_stamp.clear();
            self.hop_stamp.resize(m * m, 0);
            self.hop_vals.clear();
            self.hop_vals.resize(m * m, 0.0);
            self.stamp += 1;
        }

        let steps = self.schedule(spec, self.dense_of_rank.len());
        let contention = CostModel {
            hop_bytes: false,
            trunk_discount,
        };

        // Narrow spreads (the common case: power-of-two jobs touch a
        // handful of large leaves) fill the whole canonical matrix up
        // front — the inner pair loop then degenerates to one array load,
        // with no per-pair stamp check. Values are identical: the same
        // [`Self::hop_value`] per canonical pair, only computed eagerly.
        let eager = flat && m <= EAGER_MATRIX_MAX_TOUCHED;
        let mut matrix_max = f64::NEG_INFINITY;
        if eager {
            for da in 0..m {
                let (la, delta_a) = self.overlay[da];
                for db in da..m {
                    let idx = da * m + db;
                    if self.hop_stamp[idx] != self.stamp {
                        let (lb, delta_b) = self.overlay[db];
                        self.hop_vals[idx] =
                            Self::hop_value(tree, state, &contention, la, lb, delta_a, delta_b);
                        self.hop_stamp[idx] = self.stamp;
                    }
                    if self.hop_vals[idx] > matrix_max {
                        matrix_max = self.hop_vals[idx];
                    }
                }
            }
        }

        let mut raw_hops = 0.0;
        let mut hop_bytes = 0.0;
        for step in steps.iter() {
            let mut worst: f64 = 0.0;
            for &(ri, rj) in &step.pairs {
                let (da, db) = {
                    let (a, b) = (self.dense_of_rank[ri], self.dense_of_rank[rj]);
                    if a <= b {
                        (a, b)
                    } else {
                        (b, a)
                    }
                };
                let hops = if eager {
                    let h = self.hop_vals[da * m + db];
                    if h >= matrix_max {
                        // No pair type can beat the matrix maximum: the
                        // step's max is decided, and the remaining pairs
                        // cannot change it — an exact early exit.
                        worst = h;
                        break;
                    }
                    h
                } else if flat {
                    let idx = da * m + db;
                    if self.hop_stamp[idx] == self.stamp {
                        self.hop_vals[idx]
                    } else {
                        let (la, delta_a) = self.overlay[da];
                        let (lb, delta_b) = self.overlay[db];
                        let h = Self::hop_value(tree, state, &contention, la, lb, delta_a, delta_b);
                        self.hop_stamp[idx] = self.stamp;
                        self.hop_vals[idx] = h;
                        h
                    }
                } else {
                    let (la, delta_a) = self.overlay[da];
                    let (lb, delta_b) = self.overlay[db];
                    match self.hop_map.get(&(la, lb)) {
                        Some(&h) => h,
                        None => {
                            let h =
                                Self::hop_value(tree, state, &contention, la, lb, delta_a, delta_b);
                            self.hop_map.insert((la, lb), h);
                            h
                        }
                    }
                };
                if hops > worst {
                    worst = hops;
                }
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
        let d = if la == lb {
            2.0
        } else {
            f64::from(2 * tree.leaf_lca_level(la, lb))
        };
        let comm_a = state.leaf_comm(la) + delta_a;
        let comm_b = state.leaf_comm(lb) + delta_b;
        d * (1.0 + contention.leaf_contention_counts(tree, la, lb, comm_a, comm_b))
    }

    fn schedule(&mut self, spec: &CollectiveSpec, ranks: usize) -> Arc<Vec<Step>> {
        let key = (spec.pattern, ranks, spec.msize);
        if let Some(steps) = self.schedules.get(&key) {
            return Arc::clone(steps);
        }
        let steps = Arc::new(spec.steps(ranks));
        let pairs: usize = steps.iter().map(|s| s.pairs.len()).sum();
        if pairs <= MAX_CACHED_SCHEDULE_PAIRS {
            if self.schedules.len() >= MAX_CACHED_SCHEDULES {
                self.schedules.clear();
            }
            self.schedules.insert(key, Arc::clone(&steps));
        }
        steps
    }
}

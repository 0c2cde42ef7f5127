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
//! order, so the totals are the same bits. A narrow XOR step
//! ([`XorLevels`]) joins only neighbouring takes and takes with themselves,
//! each from a level on or up to a level, so it is priced from per-level
//! maxima of those hops, built once per call, instead of swept.
//!
//! The evaluator never mutates the [`ClusterState`]. The hypothetical
//! job's own contribution to `L_comm` (the paper's worked example counts
//! the job's own nodes) is applied as an *overlay*: integer deltas added to
//! the `u32` leaf counters before the `f64` conversion, which is exactly
//! what a real allocation would have produced.
//!
//! Everything Eqs. 2–5 need of one take is read once per call: its
//! overlaid load ([`LeafLoad`]: `c = L_comm + count`, `n`, `c / n`), its
//! self hop `2 · (1 + c / n)` and its leaf's ancestors by level, beside a
//! table of the trunk discount per level. A cross pair's hop is then one
//! ancestor comparison and Eq. 3's one expression — the same function the
//! oracle sweep calls — and a **per-take-pair hop memo** lets the steps of
//! one schedule reuse it. All of it lives for one call: every evaluation
//! starts from a fresh stamp, so the totals depend only on the arguments,
//! never on what the evaluator scored before. Reusing one evaluator saves
//! allocations, not answers.
#![deny(clippy::as_conversions)]

use crate::cost::{leaf_contention_counts, CostModel, LeafLoad};
use crate::placement::Placement;
use crate::state::ClusterState;
use commsched_collectives::{CollectiveSpec, RankParts, StepSegments, XorLevels};
use commsched_num::{f64_of_u64, usize_of_u32};
use commsched_topology::{SwitchId, Tree};

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
    /// Hop memo for canonical take pairs, `(stamp, hops)`: leaves are
    /// named by their position in the candidate's takes, and the memo is
    /// indexed `da * takes + db` with `da < db`. An entry is valid only
    /// when its stamp matches [`Self::stamp`], which every call bumps, so
    /// invalidation is one counter bump, not a table wipe, and the table
    /// only ever grows.
    hops: Vec<(u64, f64)>,
    stamp: u64,
    /// The current candidate's takes as rank parts: take `t` holds the
    /// next `count` ranks.
    parts: RankParts,
    /// Per take: its leaf's load under the overlay, and its self hop.
    loads: Vec<(LeafLoad, f64)>,
    /// Per take, `height − 2` entries: for each level `l` from 2 up to
    /// below the root's, the lowest ancestor of the take's leaf at level
    /// `l` or above, with its level. Two leaves' first common entry is
    /// their lowest common switch; with none in common, it is the root (so
    /// a two-level tree stores nothing).
    above: Vec<(SwitchId, u32)>,
    /// Eq. 3's pooled-term weight for a common switch at level `l ≥ 2`,
    /// at index `l − 2`.
    discounts: Vec<f64>,
    /// Per narrow XOR level `k` ([`XorLevels`]): the largest hop of a
    /// neighbour take pair joined at `k`, and of a take paired with itself
    /// at `k` — the step's maximum is the larger of the two.
    level_max: Vec<(f64, f64)>,
    /// Steps swept and part pairs they reported, over every call.
    #[cfg(test)]
    swept: (u64, u64),
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
        self.load_takes(tree, state, trunk_discount, takes);
        self.stamp += 1;
        let m = takes.len();
        let memoized = m <= FLAT_MEMO_MAX_TOUCHED;
        if memoized && self.hops.len() < m * m {
            self.hops.resize(m * m, (0, 0.0));
        }
        let height = tree.height();
        let stride = usize_of_u32(height).saturating_sub(2);
        let PlacementEvaluator {
            hops,
            stamp,
            parts,
            loads,
            above,
            discounts,
            level_max,
            ..
        } = self;
        let (stamp, loads, above, discounts) = (*stamp, &*loads, &*above, &*discounts);
        // Eq. 5 across two takes' leaves: their lowest common switch is
        // their first shared ancestor entry, or else the root.
        let cross = |da: usize, db: usize| {
            let (a, b) = (&above[da * stride..], &above[db * stride..]);
            let level = (0..stride)
                .find(|&i| a[i].0 == b[i].0)
                .map_or(height, |i| a[i].1);
            let discount = discounts[usize_of_u32(level) - 2];
            f64::from(2 * level)
                * (1.0 + leaf_contention_counts(&loads[da].0, &loads[db].0, discount))
        };
        let mut hop = |da: usize, db: usize| {
            if da == db {
                loads[da].1
            } else if memoized {
                let slot = &mut hops[da * m + db];
                if slot.0 != stamp {
                    *slot = (stamp, cross(da, db));
                }
                slot.1
            } else {
                cross(da, db)
            }
        };

        let mut raw_hops = 0.0;
        let mut hop_bytes = 0.0;
        let mut worst: f64 = 0.0;
        let mut swept: Option<StepSegments> = None;
        // The fold whose narrow XOR steps `level_max` holds the maxima of.
        let mut tabled = None;
        for step in spec.step_segments(parts.ranks()) {
            // Identical consecutive steps (a ring's `p - 1`) share one
            // sweep; each is still added on its own.
            if swept != Some(step) {
                worst = if let Some((k, levels)) = step.narrow_xor(parts) {
                    if tabled != Some(levels.fold()) {
                        tabulate(levels, level_max, &mut hop);
                        tabled = Some(levels.fold());
                    }
                    level_max[k].0.max(level_max[k].1)
                } else {
                    let mut max: f64 = 0.0;
                    step.for_each_part_pair(parts, |da, db| {
                        #[cfg(test)]
                        {
                            self.swept.1 += 1;
                        }
                        let h = hop(da, db);
                        if h > max {
                            max = h;
                        }
                    });
                    #[cfg(test)]
                    {
                        self.swept.0 += 1;
                    }
                    max
                };
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

    /// Steps swept pair by pair and the part pairs they reported, over
    /// every call so far: the work the narrow XOR steps' tables skip.
    #[cfg(test)]
    pub(crate) fn swept(&self) -> (u64, u64) {
        self.swept
    }

    /// Everything the sweep reads of the takes, once: their rank parts,
    /// their overlaid loads and self hops (Eq. 5 inside one leaf, where
    /// `d` is Eq. 4's 2), their leaves' ancestors by level, and the
    /// discount per level.
    fn load_takes(
        &mut self,
        tree: &Tree,
        state: &ClusterState,
        trunk_discount: f64,
        takes: &[(usize, u32)],
    ) {
        let height = tree.height();
        let model = CostModel {
            hop_bytes: false,
            trunk_discount,
        };
        self.discounts.clear();
        self.discounts
            .extend((2..=height).map(|level| model.level_discount(level)));
        self.parts.clear();
        self.loads.clear();
        self.above.clear();
        for &(leaf, count) in takes {
            self.parts.push(usize_of_u32(count));
            let load = LeafLoad::new(state.leaf_comm(leaf) + count, tree.leaf_size(leaf));
            self.loads.push((load, 2.0 * (1.0 + load.ratio)));
            let mut s = tree.leaf(leaf);
            for level in 2..height {
                while tree.switch(s).level < level {
                    match tree.switch(s).parent {
                        Some(up) => s = up,
                        None => break,
                    }
                }
                self.above.push((s, tree.switch(s).level));
            }
        }
    }
}

/// Fill `level_max` for the narrow steps of one fold: each neighbour pair's
/// hop in the bucket of the lowest level that joins it, each self hop in
/// the bucket of the highest level that pairs its take with itself, then
/// a prefix maximum over the first and a suffix maximum over the second,
/// since a pair joined at one narrow level is joined at every narrow level
/// above (neighbours) or below (self). `hop` fills the memo for the
/// neighbour pairs, which the wider steps' sweeps then read.
fn tabulate(
    levels: &XorLevels,
    level_max: &mut Vec<(f64, f64)>,
    hop: &mut impl FnMut(usize, usize) -> f64,
) {
    let narrow = levels.narrow();
    level_max.clear();
    level_max.resize(narrow, (0.0, 0.0));
    for (t, &k) in levels.joins().iter().enumerate() {
        let k = usize::from(k);
        if k < narrow {
            let h = hop(t, t + 1);
            level_max[k].0 = level_max[k].0.max(h);
        }
    }
    for (t, &n) in levels.selves().iter().enumerate() {
        if n > 0 {
            let k = usize::from(n).min(narrow) - 1;
            level_max[k].1 = level_max[k].1.max(hop(t, t));
        }
    }
    for k in 1..narrow {
        level_max[k].0 = level_max[k].0.max(level_max[k - 1].0);
    }
    for k in (1..narrow).rev() {
        level_max[k - 1].1 = level_max[k - 1].1.max(level_max[k].1);
    }
}

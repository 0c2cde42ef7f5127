//! The paper's contention and communication-cost model (§5.3, Eqs. 2–6).
#![deny(clippy::as_conversions)]

use crate::eval::PlacementEvaluator;
use crate::placement::Placement;
use crate::state::ClusterState;
use commsched_collectives::CollectiveSpec;
use commsched_num::{f64_of_u64, f64_of_usize, i32_of_u32};
use commsched_topology::{NodeId, Tree};
use std::collections::HashMap;

/// Evaluator for the paper's effective-hops cost model.
///
/// * **Contention factor** `C(i, j)` — Eq. 2 when the nodes share a leaf,
///   Eq. 3 across leaves (individual leaf contentions plus half the pooled
///   contention of the common upper switch; the half models fat-tree links
///   doubling upward).
/// * **Effective hops** — Eq. 5: `Hops(i, j) = d(i, j) * (1 + C(i, j))`.
/// * **Job cost** — Eq. 6: per collective step, the *maximum* effective hops
///   over the step's concurrently communicating node pairs, summed across
///   steps. With [`CostModel::hop_bytes`] the per-step maximum is weighted
///   by the step's message size (the paper's "effective hop-bytes").
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostModel {
    /// Weight each step by its message size (hop-bytes) instead of raw hops.
    pub hop_bytes: bool,
    /// Per-level discount of the pooled contention term in Eq. 3. The
    /// paper uses ½ "because the number of links double as we move up in a
    /// fat-tree"; generalizing, a common switch at level `l` contributes
    /// `trunk_discount^(l-1)` of the pooled term — the paper's §7 hook for
    /// "other topologies using appropriate contention factor".
    pub trunk_discount: f64,
}

impl Default for CostModel {
    /// Eq. 6 as printed: raw effective hops per step, paper's ½ discount.
    fn default() -> Self {
        CostModel::HOPS
    }
}

impl CostModel {
    /// Eq. 6 as printed in the paper (raw hops).
    pub const HOPS: CostModel = CostModel {
        hop_bytes: false,
        trunk_discount: 0.5,
    };
    /// Hop-bytes variant (§5.3: hops × msize "gives an indication of
    /// communication time").
    pub const HOP_BYTES: CostModel = CostModel {
        hop_bytes: true,
        trunk_discount: 0.5,
    };

    /// Eqs. 2–3 — contention factor between two *leaf ordinals*, with the
    /// pooled term discounted for the level of their common switch.
    ///
    /// The counters include every running communication-intensive job on the
    /// two leaves (the paper's worked example counts the job's own nodes).
    /// For leaves meeting at level 2 this is Eq. 3 verbatim; deeper common
    /// switches (fatter trunks) discount the pooled term further.
    pub(crate) fn leaf_contention(
        &self,
        tree: &Tree,
        state: &ClusterState,
        a: usize,
        b: usize,
    ) -> f64 {
        let level = tree.leaf_lca_level(a, b);
        self.leaf_contention_counts(tree, a, b, level, state.leaf_comm(a), state.leaf_comm(b))
    }

    /// Eqs. 2–3 with the `L_comm` counts and the pair's
    /// [`Tree::leaf_lca_level`] supplied by the caller — the single
    /// implementation of the contention formula, shared by the state-reading
    /// wrapper above and the overlay-based [`crate::PlacementEvaluator`] so
    /// both produce bit-identical values.
    #[inline]
    pub(crate) fn leaf_contention_counts(
        &self,
        tree: &Tree,
        a: usize,
        b: usize,
        level: u32,
        comm_a: u32,
        comm_b: u32,
    ) -> f64 {
        let comm_a = f64::from(comm_a);
        let nodes_a = f64_of_usize(tree.leaf_size(a));
        if a == b {
            // Eq. 2: both endpoints under one leaf switch.
            return comm_a / nodes_a;
        }
        // Eq. 3: two leaf terms plus the discounted pooled term for the
        // common upper switch.
        let comm_b = f64::from(comm_b);
        let nodes_b = f64_of_usize(tree.leaf_size(b));
        let discount = self.trunk_discount.powi(i32_of_u32(level) - 1);
        comm_a / nodes_a + comm_b / nodes_b + discount * (comm_a + comm_b) / (nodes_a + nodes_b)
    }

    /// Eqs. 2–3 — contention factor `C(i, j)` between two nodes.
    #[cfg(test)]
    pub(crate) fn contention(
        &self,
        tree: &Tree,
        state: &ClusterState,
        i: NodeId,
        j: NodeId,
    ) -> f64 {
        self.leaf_contention(
            tree,
            state,
            tree.leaf_ordinal_of(i),
            tree.leaf_ordinal_of(j),
        )
    }

    /// Eq. 5 — effective hops `d(i, j) * (1 + C(i, j))`.
    #[cfg(test)]
    pub(crate) fn hops(&self, tree: &Tree, state: &ClusterState, i: NodeId, j: NodeId) -> f64 {
        if i == j {
            return 0.0;
        }
        let d = f64::from(tree.distance(i, j));
        d * (1.0 + self.contention(tree, state, i, j))
    }

    /// Eq. 6 — total communication cost of a job.
    ///
    /// `nodes` is the job's allocation; rank `r` of the collective runs on
    /// `sorted(nodes)[r]` (SLURM's block task distribution over the node
    /// bitmap). Contention is read from `state`, which should already
    /// include the job's own allocation — the paper's worked example counts
    /// the job's own nodes in `L_comm`.
    pub fn job_cost(
        &self,
        tree: &Tree,
        state: &ClusterState,
        nodes: &[NodeId],
        spec: &CollectiveSpec,
    ) -> f64 {
        let mut ranked = nodes.to_vec();
        ranked.sort_unstable();
        self.ranked_cost(tree, state, &ranked, spec)
    }

    /// Eq. 6 over an explicit rank layout (rank `r` runs on `ranked[r]`):
    /// the one sweep behind [`CostModel::job_cost`] (block layout) and
    /// [`crate::mapping::mapped_cost`] (any layout).
    pub(crate) fn ranked_cost(
        &self,
        tree: &Tree,
        state: &ClusterState,
        ranked: &[NodeId],
        spec: &CollectiveSpec,
    ) -> f64 {
        // Leaf ordinal per rank; hop values only depend on the leaf pair, so
        // memoize them: collective schedules revisit the same leaf pairs in
        // nearly every step.
        let leaf_of_rank: Vec<usize> = ranked.iter().map(|n| tree.leaf_ordinal_of(*n)).collect();
        let mut hop_cache: HashMap<(usize, usize), f64> = HashMap::new();

        let mut total = 0.0;
        for step in spec.steps(ranked.len()) {
            let mut worst: f64 = 0.0;
            for &(ri, rj) in &step.pairs {
                let (la, lb) = {
                    let (a, b) = (leaf_of_rank[ri], leaf_of_rank[rj]);
                    if a <= b {
                        (a, b)
                    } else {
                        (b, a)
                    }
                };
                let hops = *hop_cache.entry((la, lb)).or_insert_with(|| {
                    let d = if la == lb {
                        2.0
                    } else {
                        f64::from(2 * tree.leaf_lca_level(la, lb))
                    };
                    d * (1.0 + self.leaf_contention(tree, state, la, lb))
                });
                if hops > worst {
                    worst = hops;
                }
            }
            total += if self.hop_bytes {
                worst * f64_of_u64(step.msize)
            } else {
                worst
            };
        }
        total
    }

    /// Cost of a *hypothetical* allocation: what [`CostModel::job_cost`]
    /// would report once `placement` were allocated on `state` as a
    /// communication-intensive job (the job's own contention counts, per
    /// the paper's example). `state` is only read — [`PlacementEvaluator`]
    /// overlays the takes on the `L_comm` counters — and for a placement
    /// of free nodes the result is bit-identical to allocating it on a
    /// copy and calling `job_cost`.
    ///
    /// The nodes need not be free: the overlay never looks at occupancy or
    /// health, so busy or down nodes are priced as if added on top of the
    /// current counters — a finite cost, never a panic.
    pub fn hypothetical_cost(
        &self,
        tree: &Tree,
        state: &ClusterState,
        placement: &Placement,
        spec: &CollectiveSpec,
    ) -> f64 {
        PlacementEvaluator::new()
            .evaluate(tree, state, self.trunk_discount, placement, spec)
            .for_model(self)
    }
}

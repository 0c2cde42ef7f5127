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

/// One leaf's side of Eqs. 2–3: its `L_comm` and `L_nodes` as floats and
/// their ratio, which is Eq. 2 itself. The placement evaluator builds one
/// per take per call (its counts overlaid with the take's own nodes); the
/// per-pair oracle builds them per pair — from the same conversions.
#[derive(Debug, Clone, Copy)]
pub(crate) struct LeafLoad {
    pub(crate) comm: f64,
    pub(crate) nodes: f64,
    /// `comm / nodes`: Eq. 2, the contention inside the leaf.
    pub(crate) ratio: f64,
}

impl LeafLoad {
    pub(crate) fn new(comm: u32, nodes: usize) -> Self {
        let (comm, nodes) = (f64::from(comm), f64_of_usize(nodes));
        LeafLoad {
            comm,
            nodes,
            ratio: comm / nodes,
        }
    }
}

/// Eq. 3 for two distinct leaves whose common switch weighs the pooled
/// term by `discount` ([`CostModel::level_discount`]): the two leaf terms
/// plus the discounted pooled term — the single implementation of the
/// cross-leaf contention formula, shared by [`CostModel::job_cost`]'s sweep
/// and [`PlacementEvaluator`] so both produce bit-identical values.
#[inline]
pub(crate) fn leaf_contention_counts(a: &LeafLoad, b: &LeafLoad, discount: f64) -> f64 {
    a.ratio + b.ratio + discount * (a.comm + b.comm) / (a.nodes + b.nodes)
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
        let load = |k: usize| LeafLoad::new(state.leaf_comm(k), tree.leaf_size(k));
        if a == b {
            return load(a).ratio;
        }
        let discount = self.level_discount(tree.leaf_lca_level(a, b));
        leaf_contention_counts(&load(a), &load(b), discount)
    }

    /// The weight `trunk_discount^(level − 1)` of Eq. 3's pooled term for
    /// two leaves whose common switch sits at `level` — the one place the
    /// power is taken, so a per-call table of it and the per-pair oracle
    /// hold the same bits.
    pub(crate) fn level_discount(&self, level: u32) -> f64 {
        self.trunk_discount.powi(i32_of_u32(level) - 1)
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

//! The placement currency: how many nodes a job takes from which leaf
//! switch, plus the node-id runs those takes resolve to.
//!
//! The paper's Algorithms 1–2 and Eqs. 1–3 decide per-leaf node *counts*;
//! node ids only matter where something reads them (link-fault lookups,
//! netsim, rank mapping, reports). A [`Placement`] therefore carries both
//! views, built once: selectors produce it, the evaluator reads its takes,
//! [`ClusterState::allocate`](crate::ClusterState::allocate) moves counters
//! per take and fills the packed free bits a word range per run, and the
//! recorded [`Allocation`](crate::Allocation) hands the same value back on
//! release.
//!
//! It leans on one topology invariant
//! ([`Tree::leaf_node_range`]): leaf `k`'s nodes are one ascending
//! contiguous id range and the ranges ascend with `k`. So the sorted node
//! list of a placement is its takes laid end to end — rank `r` of a job
//! sits on the leaf of the take covering `r` — and the first `count` ids
//! of the runs inside leaf `k`'s range are take `k`'s nodes.
#![deny(clippy::as_conversions)]

use crate::state::{ClusterState, StateError};
use commsched_num::{u32_of_usize, usize_of_u32};
use commsched_topology::{NodeId, Tree};

/// A set of nodes as per-leaf takes and node-id runs (see module docs).
///
/// Invariants, established by every constructor:
/// * takes are `(leaf ordinal, count)` with strictly ascending ordinals
///   and positive counts;
/// * runs are `(first node, length)`, ascending, disjoint and maximal (no
///   two runs touch), with positive lengths;
/// * leaf `k`'s take counts exactly the run nodes inside
///   `tree.leaf_node_range(k)`, so Σ counts = Σ lengths = [`Self::len`].
///
/// Equality is set equality: two placements over one tree are `==`
/// exactly when they hold the same nodes.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Placement {
    takes: Vec<(usize, u32)>,
    runs: Vec<(NodeId, u32)>,
}

impl Placement {
    /// The placement holding exactly `nodes` (any order) — the constructor
    /// for callers with explicit ids. A repeated id is a
    /// [`StateError::DuplicateNode`]. Panics on an id outside `tree`.
    pub fn from_nodes(tree: &Tree, nodes: &[NodeId]) -> Result<Self, StateError> {
        let mut sorted = nodes.to_vec();
        sorted.sort_unstable();
        if let Some(w) = sorted.windows(2).find(|w| w[0] == w[1]) {
            return Err(StateError::DuplicateNode(w[0]));
        }
        let mut out = Placement::default();
        for n in sorted {
            let k = tree.leaf_ordinal_of(n);
            match out.takes.last_mut() {
                Some((last, count)) if *last == k => *count += 1,
                _ => out.takes.push((k, 1)),
            }
            out.push_run(n.0, 1);
        }
        Ok(out)
    }

    /// Resolve per-leaf takes against `state`: each `(leaf ordinal, count)`
    /// becomes the first `count` free nodes of that leaf, lowest id first
    /// (SLURM's bitmap order). `takes` ascend strictly by ordinal, with
    /// positive counts that never ask a leaf for more than it has free.
    pub(crate) fn from_takes(tree: &Tree, state: &ClusterState, takes: Vec<(usize, u32)>) -> Self {
        debug_assert!(
            takes.windows(2).all(|w| w[0].0 < w[1].0) && takes.iter().all(|t| t.1 > 0),
            "takes must ascend strictly by leaf ordinal with positive counts: {takes:?}"
        );
        let mut out = Placement::default();
        for &(k, count) in &takes {
            // A take splits into at most one run per busy node it skips.
            let busy = tree.leaf_size(k) - usize_of_u32(state.leaf_free(k));
            out.runs.reserve(usize_of_u32(count).min(busy + 1));
            state.free_runs_on_leaf(tree, k, count, |start, len| out.push_run(start, len));
        }
        out.takes = takes;
        out
    }

    /// Append `len` nodes from `start`, extending the last run when they
    /// touch so runs stay maximal.
    fn push_run(&mut self, start: usize, len: u32) {
        match self.runs.last_mut() {
            Some((first, n)) if first.0 + usize_of_u32(*n) == start => *n += len,
            _ => self.runs.push((NodeId(start), len)),
        }
    }

    /// Number of **nodes** held (not takes, not runs).
    pub fn len(&self) -> usize {
        self.takes.iter().map(|&(_, c)| usize_of_u32(c)).sum()
    }

    /// True when no node is held.
    pub fn is_empty(&self) -> bool {
        self.takes.is_empty()
    }

    /// `(leaf ordinal, count)` per touched leaf, ascending by ordinal.
    pub fn takes(&self) -> &[(usize, u32)] {
        &self.takes
    }

    /// `(first node, length)` maximal runs, ascending.
    pub(crate) fn runs(&self) -> &[(NodeId, u32)] {
        &self.runs
    }

    /// The node ids, ascending — block rank order.
    pub fn iter(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.runs
            .iter()
            .flat_map(|&(first, len)| (first.0..first.0 + usize_of_u32(len)).map(NodeId))
    }

    /// The node ids materialized, ascending. For consumers that need ids
    /// as a slice (netsim workloads, rank mapping, reports); the
    /// scheduling path never calls this.
    pub fn nodes(&self) -> Vec<NodeId> {
        let mut out = Vec::with_capacity(self.len());
        out.extend(self.iter());
        out
    }

    /// Does the placement hold `n`? O(log runs).
    pub(crate) fn contains(&self, n: NodeId) -> bool {
        let after = self.runs.partition_point(|&(first, _)| first <= n);
        after > 0 && {
            let (first, len) = self.runs[after - 1];
            n.0 < first.0 + usize_of_u32(len)
        }
    }

    /// Check every invariant of the type against `tree` (tests and debug
    /// assertions; a placement applied to the tree it was built for always
    /// passes).
    pub(crate) fn check(&self, tree: &Tree) -> Result<(), String> {
        let mut end = 0;
        for (i, &(first, len)) in self.runs.iter().enumerate() {
            if len == 0 {
                return Err(format!("run {i} is empty"));
            }
            if i > 0 && first.0 <= end {
                return Err(format!(
                    "run {i} at {first} overlaps or touches its predecessor"
                ));
            }
            end = first.0 + usize_of_u32(len);
        }
        if end > tree.num_nodes() {
            return Err(format!("runs end at {end}, past the machine"));
        }
        let mut counted: Vec<(usize, u32)> = Vec::with_capacity(self.takes.len());
        for &(first, len) in &self.runs {
            let mut at = first.0;
            let end = first.0 + usize_of_u32(len);
            while at < end {
                let k = tree.leaf_ordinal_of(NodeId(at));
                let stop = end.min(tree.leaf_node_range(k).end);
                let n = u32_of_usize(stop - at);
                match counted.last_mut() {
                    Some((last, count)) if *last == k => *count += n,
                    _ => counted.push((k, n)),
                }
                at = stop;
            }
        }
        if counted != self.takes {
            return Err(format!(
                "takes {:?} disagree with the runs' per-leaf counts {counted:?}",
                self.takes
            ));
        }
        Ok(())
    }

    /// A placement from raw parts, invariants unchecked — for tests that
    /// feed `allocate` malformed input.
    #[cfg(test)]
    pub(crate) fn from_raw_parts(takes: Vec<(usize, u32)>, runs: Vec<(NodeId, u32)>) -> Self {
        Placement { takes, runs }
    }
}

/// A borrowed placement converts by cloning, so
/// [`ClusterState::allocate`](crate::ClusterState::allocate) takes either
/// an owned placement, kept as it is, or a borrowed one.
impl From<&Placement> for Placement {
    fn from(placement: &Placement) -> Self {
        placement.clone()
    }
}

//! The placement currency: how many nodes a job takes from which leaf
//! switch, plus the words of the node bitmap those takes resolve to.
//!
//! The paper's Algorithms 1–2 and Eqs. 1–3 decide per-leaf node *counts*;
//! node ids only matter where something reads them (link-fault lookups,
//! netsim, rank mapping, reports). A [`Placement`] therefore carries both
//! views, built once: selectors produce it, the evaluator reads its takes,
//! [`ClusterState::allocate`](crate::ClusterState::allocate) moves counters
//! per take and checks and clears the packed free bits a word per entry,
//! and the recorded [`Allocation`](crate::Allocation) hands the same value
//! back on release.
//!
//! It leans on one topology invariant
//! ([`Tree::leaf_node_range`]): leaf `k`'s nodes are one ascending
//! contiguous id range and the ranges ascend with `k`. So the sorted node
//! list of a placement is its takes laid end to end — rank `r` of a job
//! sits on the leaf of the take covering `r` — and the first `count` set
//! bits of the words inside leaf `k`'s range are take `k`'s nodes.
#![deny(clippy::as_conversions)]

use crate::state::{bits, ClusterState, StateError};
use commsched_num::usize_of_u32;
use commsched_topology::{NodeId, Tree};

/// Nodes per word of the node bitmap.
const BITS: usize = 64;

/// A set of nodes as per-leaf takes and node-bitmap words (see module
/// docs).
///
/// Invariants, established by every constructor:
/// * takes are `(leaf ordinal, count)` with strictly ascending ordinals
///   and positive counts;
/// * words are `(word index, mask)`, word indices strictly ascending and
///   masks non-zero: bit `b` of word `w` is node `64 w + b`;
/// * leaf `k`'s take counts exactly the word bits inside
///   `tree.leaf_node_range(k)`, so Σ counts = Σ set bits = [`Self::len`].
///
/// Equality is set equality: two placements over one tree are `==`
/// exactly when they hold the same nodes.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Placement {
    takes: Vec<(usize, u32)>,
    words: Vec<(usize, u64)>,
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
            bits::push(&mut out.words, n.0 / BITS, 1 << (n.0 % BITS));
        }
        Ok(out)
    }

    /// Resolve per-leaf takes against `state`: each `(leaf ordinal, count)`
    /// becomes the first `count` free nodes of that leaf, lowest id first
    /// (SLURM's bitmap order). `takes` ascend strictly by ordinal, with
    /// positive counts that never ask a leaf for more than it has free.
    pub(crate) fn from_takes(tree: &Tree, state: &ClusterState, takes: Vec<(usize, u32)>) -> Self {
        debug_assert!(
            takes.windows(2).all(|w| w[0].0 < w[1].0)
                && takes.iter().all(|&(k, c)| c > 0 && c <= state.leaf_free(k)),
            "takes must ascend strictly by leaf ordinal, each within its leaf's free: {takes:?}"
        );
        // A take of `count` nodes touches at most `count` of its leaf's words.
        let most = takes.iter().map(|&(k, count)| {
            let range = tree.leaf_node_range(k);
            (range.end.div_ceil(BITS) - range.start / BITS).min(usize_of_u32(count))
        });
        let mut words = Vec::with_capacity(most.sum());
        for &(k, count) in &takes {
            let range = tree.leaf_node_range(k);
            // A fully free leaf's first `count` nodes are its first ids.
            if usize_of_u32(state.leaf_free(k)) == range.len() {
                let ids = range.start..range.start + usize_of_u32(count);
                for (w, mask) in bits::spans(ids) {
                    bits::push(&mut words, w, mask);
                }
            } else {
                state.free_bits().pick(range, count, &mut words);
            }
        }
        Placement { takes, words }
    }

    /// Number of **nodes** held (not takes, not words).
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

    /// `(word index, mask)` entries of the node bitmap, ascending.
    pub(crate) fn words(&self) -> &[(usize, u64)] {
        &self.words
    }

    /// The node ids, ascending — block rank order.
    pub fn iter(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.words.iter().flat_map(|&(w, mask)| {
            let bits = (0..BITS).filter(move |b| mask >> b & 1 == 1);
            bits.map(move |b| NodeId(w * BITS + b))
        })
    }

    /// The node ids materialized, ascending. For consumers that need ids
    /// as a slice (netsim workloads, rank mapping, reports); the
    /// scheduling path never calls this.
    pub fn nodes(&self) -> Vec<NodeId> {
        let mut out = Vec::with_capacity(self.len());
        out.extend(self.iter());
        out
    }

    /// Does the placement hold `n`? O(log words).
    pub(crate) fn contains(&self, n: NodeId) -> bool {
        let at = self.words.binary_search_by_key(&(n.0 / BITS), |&(w, _)| w);
        at.is_ok_and(|i| self.words[i].1 >> (n.0 % BITS) & 1 == 1)
    }

    /// Check every invariant of the type against `tree` (tests and debug
    /// assertions; a placement applied to the tree it was built for always
    /// passes): it must be the placement `from_nodes` builds from its own
    /// nodes, which holds words ascending and non-zero and the takes
    /// counted from them.
    pub(crate) fn check(&self, tree: &Tree) -> Result<(), String> {
        let nodes = self.nodes();
        if let Some(n) = nodes.iter().find(|n| n.0 >= tree.num_nodes()) {
            return Err(format!("{n} is past the machine"));
        }
        match Placement::from_nodes(tree, &nodes) {
            Ok(canonical) if canonical == *self => Ok(()),
            _ => Err(format!("{self:?} is not the placement of its nodes")),
        }
    }

    /// A placement from raw parts, invariants unchecked — for tests that
    /// feed `allocate` malformed input.
    #[cfg(test)]
    pub(crate) fn from_raw_parts(takes: Vec<(usize, u32)>, words: Vec<(usize, u64)>) -> Self {
        Placement { takes, words }
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

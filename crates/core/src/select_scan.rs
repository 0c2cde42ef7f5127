//! Linear-scan reference implementations of the three direct selectors.
//!
//! These are the exact pre-index algorithms (scan every switch for the
//! lowest-level pick, collect-and-sort every leaf under it for the fill
//! order, build the id list node by node in fill order), preserved
//! verbatim as a test oracle (this module is `#[cfg(test)]`): the
//! property tests in `tests` assert every indexed selector in
//! [`crate::select`] chooses exactly the node set of its scan twin on
//! randomized trees and occupancies, and `tests::scale` does the same on
//! the 4k–1M-node presets (the adaptive twin, a composition of these with
//! the naive cost path, lives with those tests).
//!
//! They are O(cluster size) per placement.
#![deny(clippy::as_conversions)]

use crate::select::{check_request, AllocRequest, SelectError};
use crate::state::ClusterState;
use commsched_num::usize_of_u32;
use commsched_topology::{NodeId, SwitchId, Tree};

/// Find the lowest-level switch whose subtree has at least `want` free
/// nodes by scanning every switch. Ties at the same level break toward the
/// *fewest* free nodes (best fit), then lowest id.
fn lowest_level_switch(tree: &Tree, state: &ClusterState, want: usize) -> Option<SwitchId> {
    let mut best: Option<(u32, usize, usize)> = None; // (level, free, id)
    for id in 0..tree.num_switches() {
        let s = SwitchId(id);
        let sw = tree.switch(s);
        if tree.subtree_nodes(s) < want {
            continue;
        }
        let free = state.subtree_free(tree, s);
        if free < want {
            continue;
        }
        let key = (sw.level, free, id);
        if best.is_none_or(|b| key < b) {
            best = Some(key);
        }
    }
    best.map(|(_, _, id)| SwitchId(id))
}

fn pick_switch_scan(
    tree: &Tree,
    state: &ClusterState,
    req: &AllocRequest,
) -> Result<SwitchId, SelectError> {
    check_request(state, req)?;
    lowest_level_switch(tree, state, req.nodes).ok_or(SelectError::NotEnoughNodes {
        requested: req.nodes,
        free: state.free_total(),
    })
}

/// The first `want` free nodes on leaf ordinal `k`, lowest node id first
/// (SLURM's bitmap order).
pub(crate) fn free_nodes_on_leaf(
    tree: &Tree,
    state: &ClusterState,
    k: usize,
    want: usize,
) -> Vec<NodeId> {
    tree.leaf_nodes(k)
        .filter(|&n| state.is_free(n))
        .take(want)
        .collect()
}

/// Fill `out` by taking `min(free, remaining)` nodes from each leaf of
/// `order` in turn. Returns the number still unallocated.
fn fill_in_order(
    tree: &Tree,
    state: &ClusterState,
    order: &[usize],
    mut remaining: usize,
    out: &mut Vec<NodeId>,
) -> usize {
    for &k in order {
        if remaining == 0 {
            break;
        }
        let free = usize_of_u32(state.leaf_free(k));
        if free == 0 {
            continue;
        }
        let take = free.min(remaining);
        out.extend(free_nodes_on_leaf(tree, state, k, take));
        remaining -= take;
    }
    remaining
}

/// Scan twin of [`crate::DefaultTreeSelector`].
pub(crate) fn default_select(
    tree: &Tree,
    state: &ClusterState,
    req: &AllocRequest,
) -> Result<Vec<NodeId>, SelectError> {
    let p = pick_switch_scan(tree, state, req)?;
    let mut order: Vec<usize> = tree
        .leaf_ordinals_under(p)
        .filter(|&k| state.leaf_free(k) > 0)
        .collect();
    order.sort_by_key(|&k| (state.leaf_free(k), k));
    let mut out = Vec::with_capacity(req.nodes);
    let left = fill_in_order(tree, state, &order, req.nodes, &mut out);
    debug_assert_eq!(left, 0, "switch was checked to have enough free nodes");
    Ok(out)
}

/// Scan twin of [`crate::GreedySelector`].
pub(crate) fn greedy_select(
    tree: &Tree,
    state: &ClusterState,
    req: &AllocRequest,
) -> Result<Vec<NodeId>, SelectError> {
    let p = pick_switch_scan(tree, state, req)?;
    // Leaf-switch fast path (Alg. 1 lines 3-5): a single leaf serves the
    // whole request.
    if tree.switch(p).children.is_empty() {
        let k = tree.leaf_ordinal(p);
        return Ok(free_nodes_on_leaf(tree, state, k, req.nodes));
    }
    let mut order: Vec<usize> = tree
        .leaf_ordinals_under(p)
        .filter(|&k| state.leaf_free(k) > 0)
        .collect();
    // Sort by communication ratio; f64 keys via total_cmp, leaf ordinal
    // as the deterministic tie-break.
    if req.nature.is_comm() {
        order.sort_by(|&a, &b| {
            state
                .communication_ratio(tree, a)
                .total_cmp(&state.communication_ratio(tree, b))
                .then(a.cmp(&b))
        });
    } else {
        order.sort_by(|&a, &b| {
            state
                .communication_ratio(tree, b)
                .total_cmp(&state.communication_ratio(tree, a))
                .then(a.cmp(&b))
        });
    }
    let mut out = Vec::with_capacity(req.nodes);
    let left = fill_in_order(tree, state, &order, req.nodes, &mut out);
    debug_assert_eq!(left, 0);
    Ok(out)
}

/// Scan twin of [`crate::BalancedSelector`].
pub(crate) fn balanced_select(
    tree: &Tree,
    state: &ClusterState,
    req: &AllocRequest,
) -> Result<Vec<NodeId>, SelectError> {
    let p = pick_switch_scan(tree, state, req)?;
    if tree.switch(p).children.is_empty() {
        let k = tree.leaf_ordinal(p);
        return Ok(free_nodes_on_leaf(tree, state, k, req.nodes));
    }
    let mut order: Vec<usize> = tree
        .leaf_ordinals_under(p)
        .filter(|&k| state.leaf_free(k) > 0)
        .collect();

    if !req.nature.is_comm() {
        // Lines 29-36: compute jobs take the fullest-first (fewest free)
        // leaves without the power-of-two discipline.
        order.sort_by_key(|&k| (state.leaf_free(k), k));
        let mut out = Vec::with_capacity(req.nodes);
        let left = fill_in_order(tree, state, &order, req.nodes, &mut out);
        debug_assert_eq!(left, 0);
        return Ok(out);
    }

    // Lines 9-21: decreasing free order, grant sizes halving to fit.
    order.sort_by(|&a, &b| state.leaf_free(b).cmp(&state.leaf_free(a)).then(a.cmp(&b)));
    let mut free: Vec<usize> = order
        .iter()
        .map(|&k| usize_of_u32(state.leaf_free(k)))
        .collect();
    let mut taken: Vec<usize> = vec![0; order.len()];
    let mut remaining = req.nodes;
    // `S` carries over between leaves and only ever shrinks (the paper's
    // Figure 4 subdivision; this is what reproduces Table 2).
    let mut s = req.nodes;
    for (idx, &f) in free.iter().enumerate() {
        if remaining == 0 {
            break;
        }
        debug_assert!(f > 0);
        while s > f {
            s /= 2;
        }
        let take = s.min(remaining);
        taken[idx] = take;
        remaining -= take;
    }
    for (idx, t) in taken.iter().enumerate() {
        free[idx] -= t;
    }
    // Lines 22-27: leftovers in reverse sorted order, no constraint.
    if remaining > 0 {
        for idx in (0..order.len()).rev() {
            if remaining == 0 {
                break;
            }
            let take = free[idx].min(remaining);
            taken[idx] += take;
            free[idx] -= take;
            remaining -= take;
        }
    }
    debug_assert_eq!(remaining, 0, "switch had enough free nodes");
    let mut out = Vec::with_capacity(req.nodes);
    for (idx, &k) in order.iter().enumerate() {
        if taken[idx] > 0 {
            out.extend(free_nodes_on_leaf(tree, state, k, taken[idx]));
        }
    }
    Ok(out)
}

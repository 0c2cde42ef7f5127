//! The hierarchical free-count index: ordered summaries over the
//! incremental per-switch/per-leaf counters that make every selector's
//! descent sublinear in machine size.
//!
//! [`ClusterState`](crate::ClusterState) has maintained exact
//! `leaf_free`/`switch_free` counters since PR 1; the selectors still paid
//! a full scan over *all* switches (lowest-level-switch search) plus a
//! collect-and-sort over *all* leaves under the chosen switch on **every**
//! placement — the dominant cost at the 500k–1M-node presets. The index
//! keeps three queryable summaries, all plain ordered sets so iteration
//! order is a pure function of the counters (determinism rule D1):
//!
//! * **per level**: `(subtree_free, switch_id)` for every switch with free
//!   capacity — the lowest-level-switch query walks levels bottom-up and
//!   takes one `BTreeSet::range` successor per level, O(height · log S)
//!   instead of O(S);
//! * **per non-leaf switch**: its descendant leaves with free nodes,
//!   ordered by `(leaf_free, ordinal)` — the default/balanced fill orders;
//! * **per non-leaf switch**: the same leaves ordered by
//!   `(communication-ratio key, ordinal)` — the greedy (Eq. 1) fill order.
//!
//! Selectors *iterate* these orders lazily and stop as soon as the request
//! is satisfied, so a placement costs O(height · log S + leaves actually
//! used) — the old path's sort alone was O(L log L) in the leaves under
//! the chosen switch.
//!
//! Maintenance is eager: `ClusterState::shift`, the one routine every
//! counter mutation goes through, moves a whole per-leaf take at a time
//! and re-keys that leaf and each ancestor switch right there
//! ([`FreeIndex::apply_leaf`], [`FreeIndex::apply_switch`]) — one
//! remove+insert per *touched summary entry*, not per node, so allocating
//! a 512-node job on one leaf updates that leaf's entries once. There is
//! no pending state: the index equals a from-scratch rebuild of the
//! counters after every `shift`.
#![deny(clippy::as_conversions)]

use commsched_num::usize_of_u32;
use commsched_topology::{SwitchId, Tree};
use std::collections::BTreeSet;

const SIGN: u64 = 1 << 63;

/// Map an `f64` to a `u64` whose unsigned order equals `f64::total_cmp`
/// order — the greedy fill order sorts by communication ratio with
/// `total_cmp`, and the index must reproduce that order exactly from a
/// stored key.
#[inline]
pub(crate) fn ratio_key(r: f64) -> u64 {
    let b = r.to_bits();
    if b & SIGN == 0 {
        b | SIGN
    } else {
        !b
    }
}

/// The index proper. Owned by [`ClusterState`](crate::ClusterState);
/// derived entirely from the occupancy counters, and therefore excluded
/// from state equality, like the version token.
#[derive(Debug, Clone, Default, PartialEq)]
pub(crate) struct FreeIndex {
    /// `[level - 1]` → `(subtree_free, switch_id)` of every switch at that
    /// level with `subtree_free > 0`.
    level_sets: Vec<BTreeSet<(u32, u32)>>,
    /// `[switch_id]` → `(leaf_free, leaf_ordinal)` of the descendant
    /// leaves with free nodes. Empty for leaf switches (a leaf's own
    /// counter is `leaf_free`).
    by_free: Vec<BTreeSet<(u32, u32)>>,
    /// `[switch_id]` → `(ratio_key, leaf_ordinal)` of the same leaves.
    by_ratio: Vec<BTreeSet<(u64, u32)>>,
}

impl FreeIndex {
    /// Rebuild from scratch against explicit counter slices (construction,
    /// reset, the invariant check). `ratio` must be the exact value
    /// `ClusterState::communication_ratio` would report for the ordinal.
    pub(crate) fn rebuild(
        &mut self,
        tree: &Tree,
        leaf_free: &[u32],
        switch_free: &[u32],
        ratio: impl Fn(usize) -> f64,
    ) {
        let height = usize::try_from(tree.height()).unwrap_or(1);
        self.level_sets.clear();
        self.level_sets.resize(height, BTreeSet::new());
        self.by_free.clear();
        self.by_free.resize(tree.num_switches(), BTreeSet::new());
        self.by_ratio.clear();
        self.by_ratio.resize(tree.num_switches(), BTreeSet::new());

        for (id, sw) in tree.switches().iter().enumerate() {
            let free = switch_free[id];
            if free > 0 {
                if let (Ok(id32), Some(set)) = (
                    u32::try_from(id),
                    self.level_sets.get_mut(level_slot(sw.level)),
                ) {
                    set.insert((free, id32));
                }
            }
        }
        for (k, &free) in leaf_free.iter().enumerate() {
            if free == 0 {
                continue;
            }
            let Ok(ord) = u32::try_from(k) else { continue };
            let rkey = ratio_key(ratio(k));
            let mut up = tree.switch(tree.leaf(k)).parent;
            while let Some(p) = up {
                self.by_free[p.0].insert((free, ord));
                self.by_ratio[p.0].insert((rkey, ord));
                up = tree.switch(p).parent;
            }
        }
    }

    /// Re-key one switch in its level set.
    #[inline]
    pub(crate) fn apply_switch(&mut self, level: u32, id: u32, old_free: u32, new_free: u32) {
        if let Some(set) = self.level_sets.get_mut(level_slot(level)) {
            if old_free > 0 {
                set.remove(&(old_free, id));
            }
            if new_free > 0 {
                set.insert((new_free, id));
            }
        }
    }

    /// Re-key one leaf in every ancestor's fill-order sets.
    pub(crate) fn apply_leaf(
        &mut self,
        tree: &Tree,
        ord: u32,
        (old_free, old_rkey): (u32, u64),
        (new_free, new_rkey): (u32, u64),
    ) {
        let mut up = tree.switch(tree.leaf(usize_of_u32(ord))).parent;
        while let Some(p) = up {
            let bf = &mut self.by_free[p.0];
            if old_free > 0 {
                bf.remove(&(old_free, ord));
            }
            if new_free > 0 {
                bf.insert((new_free, ord));
            }
            let br = &mut self.by_ratio[p.0];
            if old_free > 0 {
                br.remove(&(old_rkey, ord));
            }
            if new_free > 0 {
                br.insert((new_rkey, ord));
            }
            up = tree.switch(p).parent;
        }
    }

    /// The lowest-level switch whose subtree has at least `want` free
    /// nodes; ties at the same level break toward fewest free, then lowest
    /// id — exactly the scan baseline's `(level, free, id)` minimum.
    /// Requires `want >= 1`.
    pub(crate) fn lowest_level_switch(&self, want: usize) -> Option<SwitchId> {
        let want = u32::try_from(want).ok()?;
        for set in &self.level_sets {
            if let Some(&(_, id)) = set.range((want, 0u32)..).next() {
                return Some(SwitchId(usize_of_u32(id)));
            }
        }
        None
    }

    /// Descendant leaves of `p` with free nodes, ordered by
    /// `(leaf_free, ordinal)` ascending.
    #[inline]
    pub(crate) fn leaves_by_free(&self, p: SwitchId) -> &BTreeSet<(u32, u32)> {
        &self.by_free[p.0]
    }

    /// Descendant leaves of `p` with free nodes, ordered by
    /// `(ratio_key, ordinal)` ascending.
    #[inline]
    pub(crate) fn leaves_by_ratio(&self, p: SwitchId) -> &BTreeSet<(u64, u32)> {
        &self.by_ratio[p.0]
    }
}

/// `level_sets` slot of a switch level (levels are 1-based).
#[inline]
fn level_slot(level: u32) -> usize {
    usize_of_u32(level.saturating_sub(1))
}

/// Visit `(key, ordinal)` entries in *descending* key order with ties in
/// *ascending* ordinal order — the order the scan selectors produce with
/// `sort_by(|a, b| key(b).cmp(&key(a)).then(a.cmp(&b)))`. Each equal-key
/// group costs one range seek; iteration stops when `visit` returns
/// `false`.
pub(crate) fn visit_desc<K: Ord + Copy>(
    set: &BTreeSet<(K, u32)>,
    mut visit: impl FnMut(u32) -> bool,
) {
    let mut bound: Option<K> = None;
    loop {
        let last = match bound {
            None => set.iter().next_back(),
            Some(b) => set.range(..(b, 0u32)).next_back(),
        };
        let Some(&(key, _)) = last else { return };
        for &(_, ord) in set.range((key, 0u32)..=(key, u32::MAX)) {
            if !visit(ord) {
                return;
            }
        }
        bound = Some(key);
    }
}

//! The hierarchical free-count index: ordered summaries over the
//! incremental per-switch/per-leaf counters that make every selector's
//! descent sublinear in machine size.
//!
//! [`ClusterState`](crate::ClusterState) maintains one exact free counter
//! per switch, `switch_free`, the leaves' own first; without an index the
//! selectors would scan *all* switches for the lowest-level switch and
//! collect-and-sort *all* leaves under it on every placement — the
//! dominant cost at the 500k–1M-node presets. The index keeps ordered
//! sets of `(key, member)`, so iteration order is a pure function of the
//! counters (determinism rule D1), and holds each leaf in at most two of
//! them:
//!
//! * **per level**: `subtree_free` of every switch with free capacity.
//!   Leaf switch `k` has id `k` (`Tree::from_parts` numbers leaves first),
//!   so a leaf's member is its ordinal and the level-1 set is also every
//!   free leaf in `(leaf_free, ordinal)` order: the default/balanced fill
//!   order. An upper switch's member is its id less the leaf count, in a
//!   set over all upper switches. Either way members ascend with ids.
//! * **by ratio**: every free leaf keyed by its communication-ratio key,
//!   member its ordinal — the *ratio order*, read by the greedy fill
//!   alone, so it is built from the counters on its first read
//!   ([`FreeIndex::leaves_by_ratio`]) and kept from then on: a run whose
//!   selector never reads it never builds or re-keys it.
//!
//! Every switch's leaves are one ordinal range, so a switch's fill order
//! is one of these leaf-wide sets read over that range ([`FillOrder`]):
//! nothing here knows the tree's shape above the leaves.
//!
//! Every set is a [`BucketSet`]: each distinct live key holds a bitset of
//! its members, and the keys sit in a small ordered map. A re-key is a bit
//! flip plus a map lookup over the set's distinct live keys (at most 64 in
//! Dragonfly1M's 16,384-leaf level-1 set, whose keys are free counts of
//! 64-node leaves), whatever the member count.
//! The lowest-level-switch query takes, per level bottom-up, the first
//! live key ≥ `want` and its lowest member: O(height · (log keys + U/64))
//! for `U` switches at a level. A walk over a leaf range costs one step
//! per live key of the set plus one per word of the range in each bucket
//! it enters.
//!
//! Memory: a set over `U` members holds `⌈U/64⌉` words per slot — `U` is
//! the leaf count at level 1 and in the ratio order, the upper-switch
//! count at every level above — and a slot only for a live key — an
//! emptied bucket's slot is reused by the next new key — so at most the
//! most keys it has held live at once, which is at most
//! `min(U, distinct key values)`. It never holds `max key × U` bits, so a
//! skewed `topology.conf` cannot make it quadratic in its largest leaf.
//!
//! Selectors iterate lazily and stop as soon as the request is satisfied,
//! so a placement costs one lowest-level-switch query plus the live keys
//! and words its walk passes over.
//!
//! Maintenance is eager, and run-wise within a mutation:
//! `ClusterState::shift` gathers consecutive leaves of one size that make
//! the same counter move into a run, and re-keys the run's (at most) two
//! ranges of entries at once ([`FreeIndex::apply_leaves`]) — one key
//! lookup per set however long the run; a single take is a run of one.
//! Every mutation re-keys each ancestor switch it moved in its level set
//! ([`FreeIndex::apply_switch`]) once, from the count the entry was keyed
//! by to the final one, before it returns — once per placement, not once
//! per take. Nothing is pending between calls: the index equals a
//! from-scratch rebuild of the orders built so far after every mutation.
//! The ratio order is a pure function of the counters, so one built late
//! reads exactly as one kept from the start would.
#![deny(clippy::as_conversions)]

use commsched_num::{u32_of_usize, usize_of_u32};
use commsched_topology::{SwitchId, Tree};
use std::ops::Range;
use std::sync::OnceLock;

mod bucket;

pub(crate) use bucket::BucketSet;
#[cfg(test)]
pub(crate) use bucket::BLOCK;

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

/// The ratio-keyed set and each leaf's key, built and dropped together.
#[derive(Debug, Clone, Default, PartialEq)]
struct RatioOrder {
    /// Every free leaf keyed by `ratio_key`, member its ordinal.
    set: BucketSet<u64>,
    /// Leaf ordinal → `ratio_key` of its counters, free or not.
    keys: Vec<u64>,
}

/// The index proper. Owned by [`ClusterState`](crate::ClusterState);
/// derived entirely from the occupancy counters, and therefore excluded
/// from state equality.
#[derive(Debug, Clone, Default, PartialEq)]
pub(crate) struct FreeIndex {
    /// `[level - 1]` → `subtree_free` of every switch at that level with
    /// `subtree_free > 0`. `[0]` is every free leaf keyed `leaf_free`,
    /// members its ordinal; above, an upper switch's member is its id less
    /// the leaf count.
    level_sets: Vec<BucketSet<u32>>,
    /// The ratio order with every leaf's key. Built on the first
    /// [`FreeIndex::leaves_by_ratio`], dropped by `rebuild`.
    by_ratio: OnceLock<RatioOrder>,
}

impl FreeIndex {
    /// Rebuild from scratch against the per-switch free counts
    /// (construction, reset, the invariant check), reusing every buffer
    /// but the ratio order's, which is dropped until its next read: one
    /// insert per run of consecutive members of a set that share a key.
    pub(crate) fn rebuild(&mut self, tree: &Tree, switch_free: &[u32]) {
        let height = usize::try_from(tree.height()).unwrap_or(1);
        let leaves = tree.num_leaves();
        let uppers = &tree.switches()[leaves..];
        self.level_sets.resize_with(height, BucketSet::default);
        for (l, set) in self.level_sets.iter_mut().enumerate() {
            set.clear(if l == 0 { leaves } else { uppers.len() });
        }
        self.by_ratio.take();
        // Leaf `k` is member `k` of level 1; an upper switch is its slot.
        let leaf_entries = (0..leaves).filter_map(|k| Some((0, keyed(switch_free[k])?, k)));
        let upper_entries = uppers
            .iter()
            .enumerate()
            .filter_map(|(u, sw)| Some((level_slot(sw.level), keyed(switch_free[leaves + u])?, u)));
        insert_runs(&mut self.level_sets, leaf_entries.chain(upper_entries));
    }

    /// The ratio order, built from the counters if this is its first read.
    /// `ratio` must be the exact value `ClusterState::communication_ratio`
    /// would report for the ordinal.
    fn ratio_order(
        &self,
        tree: &Tree,
        switch_free: &[u32],
        ratio: impl Fn(usize) -> f64,
    ) -> &RatioOrder {
        self.by_ratio
            .get_or_init(|| build_ratio_order(tree, switch_free, ratio))
    }

    /// Does this index equal a from-scratch rebuild of the orders built so
    /// far (the invariant check)? `ratio` as for the ratio order.
    pub(crate) fn is_rebuild_of(
        &self,
        tree: &Tree,
        switch_free: &[u32],
        ratio: impl Fn(usize) -> f64,
    ) -> bool {
        let mut expect = FreeIndex::default();
        expect.rebuild(tree, switch_free);
        if self.by_ratio.get().is_some() {
            expect.ratio_order(tree, switch_free, ratio);
        }
        expect == *self
    }

    /// Has the ratio order been built since the last `rebuild`?
    #[inline]
    pub(crate) fn ratio_built(&self) -> bool {
        self.by_ratio.get().is_some()
    }

    /// Re-key upper switch `s` in its level set.
    #[inline]
    pub(crate) fn apply_switch(&mut self, tree: &Tree, s: SwitchId, old_free: u32, new_free: u32) {
        let set = &mut self.level_sets[level_slot(tree.switch(s).level)];
        let member = u32_of_usize(s.0 - tree.num_leaves());
        set.rekey(member, 1, keyed(old_free), keyed(new_free));
    }

    /// Re-key the `len` leaves `first..first + len`, which all move from
    /// the same keys to the same keys, in the level-1 set and the ratio
    /// order: their ordinals are their members in both, so each set
    /// re-keys one range. `ratio_key` is their new ratio key once the
    /// ratio order is built ([`FreeIndex::ratio_built`]), and `None`
    /// before; their old one is the key the order holds for them.
    pub(crate) fn apply_leaves(
        &mut self,
        (first, len): (u32, u32),
        (old_free, new_free): (u32, u32),
        ratio_key: Option<u64>,
    ) {
        debug_assert_eq!(ratio_key.is_some(), self.ratio_built());
        let (old, new) = (keyed(old_free), keyed(new_free));
        self.level_sets[0].rekey(first, len, old, new);
        if let Some((order, new_rkey)) = self.by_ratio.get_mut().zip(ratio_key) {
            let run = usize_of_u32(first)..usize_of_u32(first + len);
            let old_rkey = order.keys[run.start];
            order.keys[run].fill(new_rkey);
            let (old_r, new_r) = (old.map(|_| old_rkey), new.map(|_| new_rkey));
            order.set.rekey(first, len, old_r, new_r);
        }
    }

    /// The lowest-level switch whose subtree has at least `want` free
    /// nodes; ties at the same level break toward fewest free, then lowest
    /// id — exactly the scan baseline's `(level, free, id)` minimum: per
    /// level, the first live key ≥ `want` and its lowest member.
    /// Requires `want >= 1`.
    pub(crate) fn lowest_level_switch(&self, tree: &Tree, want: usize) -> Option<SwitchId> {
        let want = u32::try_from(want).ok()?;
        self.level_sets.iter().enumerate().find_map(|(l, set)| {
            let (_, member) = set.first_at_least(want)?;
            let above = if l == 0 { 0 } else { tree.num_leaves() };
            Some(SwitchId(usize_of_u32(member) + above))
        })
    }

    /// Free leaves under `p`, keyed `(leaf_free, ordinal)` — the
    /// default/balanced fill order: the level-1 set over `p`'s leaves.
    pub(crate) fn leaves_by_free(&self, tree: &Tree, p: SwitchId) -> FillOrder<'_, u32> {
        FillOrder::new(&self.level_sets[0], tree, p)
    }

    /// Free leaves under `p`, keyed `(ratio_key, ordinal)` — the greedy
    /// (Eq. 1) fill order, the ratio order built on the first call (see
    /// `ratio_order` for `ratio`) and read over `p`'s leaves.
    pub(crate) fn leaves_by_ratio(
        &self,
        tree: &Tree,
        p: SwitchId,
        switch_free: &[u32],
        ratio: impl Fn(usize) -> f64,
    ) -> FillOrder<'_, u64> {
        let order = self.ratio_order(tree, switch_free, ratio);
        FillOrder::new(&order.set, tree, p)
    }

    /// `free_keyed` of each set keyed by free count — the level sets —
    /// followed by `ratio_keyed` of the ratio order's set once it is built.
    #[cfg(test)]
    pub(crate) fn map_sets<T>(
        &self,
        free_keyed: impl Fn(&BucketSet<u32>) -> T,
        ratio_keyed: impl Fn(&BucketSet<u64>) -> T,
    ) -> Vec<T> {
        let free = self.level_sets.iter().map(free_keyed);
        let ratio = self.by_ratio.get().map(|o| ratio_keyed(&o.set));
        free.chain(ratio).collect()
    }
}

/// The key of something with `free` free nodes: none when it has none.
#[inline]
fn keyed(free: u32) -> Option<u32> {
    (free > 0).then_some(free)
}

/// `level_sets` slot of a switch level (levels are 1-based).
#[inline]
fn level_slot(level: u32) -> usize {
    usize_of_u32(level.saturating_sub(1))
}

/// Every leaf's `ratio_key`, and every free leaf keyed by it, one insert
/// per run as in `rebuild`. Once per state, so kept out of the read path.
#[cold]
fn build_ratio_order(tree: &Tree, switch_free: &[u32], ratio: impl Fn(usize) -> f64) -> RatioOrder {
    let leaves = tree.num_leaves();
    let keys = Vec::from_iter((0..leaves).map(|k| ratio_key(ratio(k))));
    let mut set = BucketSet::default();
    set.clear(leaves);
    let free = (0..leaves).filter(|&k| switch_free[k] > 0);
    insert_runs(
        std::slice::from_mut(&mut set),
        free.map(|k| (0, keys[k], k)),
    );
    RatioOrder { set, keys }
}

/// Insert `(set, key, member)` entries into `sets`, one
/// [`BucketSet::insert`] per run of consecutive entries that are
/// consecutive members of one set under one key.
fn insert_runs<K: Ord + Copy>(
    sets: &mut [BucketSet<K>],
    entries: impl Iterator<Item = (usize, K, usize)>,
) {
    let mut run: Option<(usize, K, u32, u32)> = None;
    for (set, key, member) in entries {
        let member = u32_of_usize(member);
        match &mut run {
            Some((s, k, first, len)) if (*s, *k, *first + *len) == (set, key, member) => {
                *len += 1;
            }
            _ => {
                if let Some((s, k, first, len)) = run.replace((set, key, member, 1)) {
                    sets[s].insert(k, first, len);
                }
            }
        }
    }
    if let Some((s, k, first, len)) = run {
        sets[s].insert(k, first, len);
    }
}

/// One switch's free leaves: a leaf-wide set, whose members are leaf
/// ordinals, read over the switch's leaf range.
pub(crate) struct FillOrder<'a, K> {
    set: &'a BucketSet<K>,
    leaves: Range<u32>,
}

impl<'a, K: Ord + Copy> FillOrder<'a, K> {
    fn new(set: &'a BucketSet<K>, tree: &Tree, p: SwitchId) -> Self {
        let leaves = &tree.switch(p).leaves;
        let leaves = u32_of_usize(leaves.start)..u32_of_usize(leaves.end);
        FillOrder { set, leaves }
    }

    /// `(key, ordinal)` entries in ascending order.
    pub(crate) fn asc(self) -> impl Iterator<Item = (K, u32)> + 'a {
        self.set.asc(self.leaves)
    }

    /// `(key, ordinal)` entries in *descending* key order with ties in
    /// *ascending* ordinal order — the order the scan selectors produce
    /// with `sort_by(|a, b| key(b).cmp(&key(a)).then(a.cmp(&b)))`.
    pub(crate) fn desc(self) -> impl Iterator<Item = (K, u32)> + 'a {
        self.set.desc(self.leaves)
    }
}

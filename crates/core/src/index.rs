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
//! counters (determinism rule D1), and holds each leaf in at most three
//! of them:
//!
//! * **per level**: `subtree_free` of every switch with free capacity.
//!   Leaf switch `k` has id `k` (`Tree::from_parts` numbers leaves first),
//!   so a leaf's member is its ordinal and the level-1 set is also every
//!   free leaf in `(leaf_free, ordinal)` order: the root's fill order. An
//!   upper switch's member is its `upper` slot, its id less the leaf
//!   count, in a set over all upper switches. Either way members ascend
//!   with ids.
//! * **per parent** — a switch with at least one leaf child — its free
//!   leaf children keyed by `leaf_free` (not kept for the root, whose order
//!   is the level-1 set) and by communication-ratio key. A switch's leaves
//!   are one ordinal range, its leaf children first, so a leaf child's
//!   member is its ordinal less the range's start. The ratio-keyed sets,
//!   the *ratio order*, are read by the greedy fill alone, so they are
//!   built from the counters on their first read
//!   ([`FreeIndex::leaves_by_ratio`]) and kept from then on: a run whose
//!   selector never reads them never builds or re-keys them.
//!
//! Every set is a [`BucketSet`]: each distinct live key holds a bitset of
//! its members, and the keys sit in a small ordered map. A re-key is a bit
//! flip plus a map lookup over the set's distinct live keys (at most 64 in
//! Dragonfly1M's 16,384-leaf level-1 set, whose keys are free counts of
//! 64-node leaves), whatever the member count.
//! The lowest-level-switch query takes, per level bottom-up, the first
//! live key ≥ `want` and its lowest member: O(height · (log keys + U/64))
//! for `U` switches at a level. A walk costs one step per live key plus
//! one per word of each bucket it enters.
//!
//! Memory: a set over `U` members holds `⌈U/64⌉` words per slot — `U` is
//! the leaf count at level 1, the upper-switch count at every level above
//! and a parent's leaf-child count in its sets — and a slot only for a
//! live key — an emptied bucket's slot is reused by the next new key — so
//! at most the most keys it has held live at once, which is at most
//! `min(U, distinct key values)`. It never holds
//! `max key × U` bits, so a skewed `topology.conf` cannot make it
//! quadratic in its largest leaf.
//!
//! Any other switch's fill order is the lazy k-way merge of the parent
//! sets in its subtree ([`Merge`]); with one such set — every switch of
//! the two-level presets, every group of the three-level ones — it is that
//! set's own iterator. Selectors iterate lazily and stop as soon as the
//! request is satisfied, so a placement costs one lowest-level-switch
//! query plus the leaves actually used, and one heap operation per leaf
//! where a merge runs.
//!
//! Maintenance is eager, and run-wise within a mutation:
//! `ClusterState::shift` gathers consecutive sibling leaves of one size
//! that make the same counter move into a run, and re-keys the run's (at
//! most) three ranges of entries at once ([`FreeIndex::apply_leaves`]) —
//! one key lookup per set however long the run; a single take is a run of
//! one. Every mutation re-keys each ancestor switch it moved in its level
//! set ([`FreeIndex::apply_switch`]) once, from the count the entry was
//! keyed by to the final one, before it returns — once per placement, not
//! once per take. Nothing is pending between calls: the index equals a
//! from-scratch rebuild of the orders built so far after every mutation.
//! The ratio order is a pure function of the counters, so one built late
//! reads exactly as one kept from the start would.
#![deny(clippy::as_conversions)]

use commsched_num::{u32_of_usize, usize_of_u32};
use commsched_topology::{Switch, SwitchId, Tree};
use std::cmp::Reverse;
use std::collections::binary_heap::PeekMut;
use std::collections::BinaryHeap;
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

/// The ratio-keyed sets and each leaf's key, built and dropped together.
#[derive(Debug, Clone, Default, PartialEq)]
struct RatioOrder {
    /// `[upper(switch)]` → `ratio_key` of the free leaf children.
    sets: Vec<BucketSet<u64>>,
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
    /// members its ordinal; above, members are `upper` slots.
    level_sets: Vec<BucketSet<u32>>,
    /// `[upper(switch)]` → `leaf_free` of the free leaf children, member
    /// `m` the ordinal `m` past the start of the switch's leaf range. Empty
    /// for the root and for switches without leaf children.
    by_free: Vec<BucketSet<u32>>,
    /// `[upper(switch)]` → `ratio_key` of the free leaf children, over the
    /// same members, with every leaf's key. Built on the first
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
        self.by_free.resize_with(uppers.len(), BucketSet::default);
        for (set, sw) in self.by_free.iter_mut().zip(uppers) {
            set.clear(sw.leaf_children);
        }
        self.by_ratio.take();
        // Leaf `k` is member `k` of level 1; an upper switch is its slot.
        let leaf_entries = (0..leaves).filter_map(|k| Some((0, keyed(switch_free[k])?, k)));
        let upper_entries = uppers
            .iter()
            .enumerate()
            .filter_map(|(u, sw)| Some((level_slot(sw.level), keyed(switch_free[leaves + u])?, u)));
        insert_runs(&mut self.level_sets, leaf_entries.chain(upper_entries));
        // Each parent's free leaf children, member by member; the root,
        // the last switch, keeps no `by_free` set.
        let parents = &uppers[..uppers.len().saturating_sub(1)];
        let by_free = parent_members(parents, switch_free).map(|(u, m, k)| (u, switch_free[k], m));
        insert_runs(&mut self.by_free, by_free);
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
        let member = u32_of_usize(upper(tree, s));
        set.rekey(member, 1, keyed(old_free), keyed(new_free));
    }

    /// Re-key the `len` leaves `first..first + len`, children of `parent`
    /// that all move from the same keys to the same keys, in the level-1
    /// set and their parent's sets: consecutive ordinals under one parent
    /// are consecutive members of each, so every set re-keys one range.
    /// `ratio_key` is their new ratio key once the ratio order is built
    /// ([`FreeIndex::ratio_built`]), and `None` before; their old one is
    /// the key the order holds for them.
    pub(crate) fn apply_leaves(
        &mut self,
        tree: &Tree,
        parent: Option<SwitchId>,
        (first, len): (u32, u32),
        (old_free, new_free): (u32, u32),
        ratio_key: Option<u64>,
    ) {
        debug_assert_eq!(ratio_key.is_some(), self.ratio_built());
        let (old, new) = (keyed(old_free), keyed(new_free));
        // Level 1 is exactly the leaves, ids `0..num_leaves`: its member
        // is the ordinal itself.
        self.level_sets[0].rekey(first, len, old, new);
        let order = self.by_ratio.get_mut().zip(ratio_key);
        let ratio_keys = order.map(|(order, new_rkey)| {
            let run = usize_of_u32(first)..usize_of_u32(first + len);
            let old_rkey = order.keys[run.start];
            order.keys[run].fill(new_rkey);
            (&mut order.sets, old_rkey, new_rkey)
        });
        let Some(g) = parent else {
            return;
        };
        let sw = tree.switch(g);
        let member = first - u32_of_usize(sw.leaves.start);
        debug_assert!(
            usize_of_u32(member + len) <= sw.leaf_children,
            "leaves {first}.. are not consecutive leaf children of {g}"
        );
        let u = upper(tree, g);
        if g != tree.root() {
            self.by_free[u].rekey(member, len, old, new);
        }
        if let Some((sets, old_rkey, new_rkey)) = ratio_keys {
            let (old_r, new_r) = (old.map(|_| old_rkey), new.map(|_| new_rkey));
            sets[u].rekey(member, len, old_r, new_r);
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
    /// default/balanced fill order. Empty for a leaf.
    pub(crate) fn leaves_by_free(&self, tree: &Tree, p: SwitchId) -> FillOrder<'_, u32> {
        if p == tree.root() {
            FillOrder::One(Members {
                set: &self.level_sets[0],
                base: 0,
            })
        } else {
            self.parent_sets(tree, p, &self.by_free)
        }
    }

    /// Free leaves under `p`, keyed `(ratio_key, ordinal)` — the greedy
    /// (Eq. 1) fill order, the ratio order built on the first call (see
    /// `ratio_order` for `ratio`). Empty for a leaf.
    pub(crate) fn leaves_by_ratio(
        &self,
        tree: &Tree,
        p: SwitchId,
        switch_free: &[u32],
        ratio: impl Fn(usize) -> f64,
    ) -> FillOrder<'_, u64> {
        self.parent_sets(tree, p, &self.ratio_order(tree, switch_free, ratio).sets)
    }

    /// `p`'s fill order over `sets`: the sets of the parents in its
    /// subtree, `p` included. A level-2 switch has only leaf children, so
    /// it is its own one set; above, the walk reads child lists and
    /// descends into non-leaves. Nothing is stored: the walk touches only
    /// switches above the leaves.
    fn parent_sets<'a, K>(
        &'a self,
        tree: &Tree,
        p: SwitchId,
        sets: &'a [BucketSet<K>],
    ) -> FillOrder<'a, K> {
        let members = |s: SwitchId| Members {
            set: &sets[upper(tree, s)],
            base: u32_of_usize(tree.switch(s).leaves.start),
        };
        if tree.switch(p).level == 2 {
            return FillOrder::One(members(p));
        }
        let mut out = Vec::new();
        let mut stack = vec![p];
        while let Some(s) = stack.pop() {
            let sw = tree.switch(s);
            if sw.leaf_children > 0 {
                out.push(members(s));
            }
            stack.extend(sw.children.iter().filter(|c| tree.switch(**c).level > 1));
        }
        FillOrder::Many(out)
    }

    /// `free_keyed` of each set keyed by free count — the level sets, then
    /// `by_free` — followed by `ratio_keyed` of each ratio-keyed set once
    /// the ratio order is built.
    #[cfg(test)]
    pub(crate) fn map_sets<T>(
        &self,
        free_keyed: impl Fn(&BucketSet<u32>) -> T,
        ratio_keyed: impl Fn(&BucketSet<u64>) -> T,
    ) -> Vec<T> {
        let free = self.level_sets.iter().chain(&self.by_free).map(free_keyed);
        let ratio = self.by_ratio.get().into_iter().flat_map(|o| &o.sets);
        let ratio = ratio.map(ratio_keyed);
        free.chain(ratio).collect()
    }
}

/// The `by_free`/`by_ratio` slot of a non-leaf switch: `Tree::from_parts`
/// numbers the leaves first, so the others follow from `num_leaves`.
#[inline]
fn upper(tree: &Tree, s: SwitchId) -> usize {
    s.0 - tree.num_leaves()
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

/// `(upper slot, member, ordinal)` of each free leaf child of `parents`,
/// the upper switches from slot 0 on, in slot and member order: a parent's
/// leaf children are the first ordinals of its range.
fn parent_members<'a>(
    parents: &'a [Switch],
    switch_free: &'a [u32],
) -> impl Iterator<Item = (usize, usize, usize)> + 'a {
    parents.iter().enumerate().flat_map(move |(u, sw)| {
        let kids = sw.leaves.clone().take(sw.leaf_children).enumerate();
        kids.filter(|&(_, k)| switch_free[k] > 0)
            .map(move |(m, k)| (u, m, k))
    })
}

/// Every leaf's `ratio_key`, and each parent's free leaf children keyed by
/// it, one insert per run as in `rebuild`. Once per state, so kept out of
/// the read path.
#[cold]
fn build_ratio_order(tree: &Tree, switch_free: &[u32], ratio: impl Fn(usize) -> f64) -> RatioOrder {
    let parents = &tree.switches()[tree.num_leaves()..];
    let keys = Vec::from_iter((0..tree.num_leaves()).map(|k| ratio_key(ratio(k))));
    let mut sets: Vec<BucketSet<u64>> = Vec::with_capacity(parents.len());
    sets.resize_with(parents.len(), BucketSet::default);
    for (set, sw) in sets.iter_mut().zip(parents) {
        set.clear(sw.leaf_children);
    }
    let entries = parent_members(parents, switch_free).map(|(u, m, k)| (u, keys[k], m));
    insert_runs(&mut sets, entries);
    RatioOrder { sets, keys }
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

/// One bucketed set with the leaf ordinal of its member 0: every member
/// is that many ordinals past it (0 for the level-1 set, whose members are
/// ordinals).
#[derive(Clone, Copy)]
pub(crate) struct Members<'a, K> {
    set: &'a BucketSet<K>,
    base: u32,
}

impl<K> Members<'_, K> {
    /// The leaf ordinal of member `m`.
    #[inline]
    fn ordinal(&self, m: u32) -> u32 {
        self.base + m
    }
}

/// One switch's free leaves, as the sets whose union they are: its own
/// parent set, or every parent set in its subtree. Each leaf is in exactly
/// one of them, so the merged order is the union's order whatever order
/// the sets come in.
pub(crate) enum FillOrder<'a, K> {
    One(Members<'a, K>),
    Many(Vec<Members<'a, K>>),
}

impl<'a, K: Ord + Copy> FillOrder<'a, K> {
    /// `(key, ordinal)` entries in ascending order.
    pub(crate) fn asc(self) -> impl Iterator<Item = (K, u32)> + 'a {
        self.merge(|m| {
            m.set
                .asc()
                .map(move |(key, member)| (key, m.ordinal(member)))
        })
    }

    /// `(key, ordinal)` entries in *descending* key order with ties in
    /// *ascending* ordinal order — the order the scan selectors produce
    /// with `sort_by(|a, b| key(b).cmp(&key(a)).then(a.cmp(&b)))`.
    pub(crate) fn desc(self) -> impl Iterator<Item = (K, u32)> + 'a {
        self.merge(|m| {
            m.set
                .desc()
                .map(move |(key, member)| (Reverse(key), m.ordinal(member)))
        })
        .map(|(Reverse(key), ord)| (key, ord))
    }

    fn merge<I: Iterator>(self, stream: impl Fn(Members<'a, K>) -> I) -> Merge<I>
    where
        I::Item: Ord + Copy,
    {
        match self {
            FillOrder::One(set) => Merge::One(stream(set)),
            FillOrder::Many(sets) => {
                let mut streams: Vec<I> = sets.into_iter().map(stream).collect();
                let heads = streams
                    .iter_mut()
                    .enumerate()
                    .filter_map(|(i, s)| Some(Reverse((s.next()?, i))))
                    .collect();
                Merge::Many { heads, streams }
            }
        }
    }
}

/// Streams merged by item order: one stream passes straight through, more
/// go through a min-heap of their heads.
enum Merge<I: Iterator> {
    One(I),
    Many {
        heads: BinaryHeap<Reverse<(I::Item, usize)>>,
        streams: Vec<I>,
    },
}

impl<I: Iterator> Iterator for Merge<I>
where
    I::Item: Ord + Copy,
{
    type Item = I::Item;

    fn next(&mut self) -> Option<I::Item> {
        match self {
            Merge::One(stream) => stream.next(),
            Merge::Many { heads, streams } => {
                let mut top = heads.peek_mut()?;
                let Reverse((item, i)) = *top;
                match streams[i].next() {
                    Some(next) => *top = Reverse((next, i)),
                    None => {
                        PeekMut::pop(top);
                    }
                }
                Some(item)
            }
        }
    }
}

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
//!   is the level-1 set) and by communication-ratio key, members its leaf
//!   children in ascending ordinal.
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
//! from-scratch rebuild of the counters after every mutation.
#![deny(clippy::as_conversions)]

use commsched_num::{u32_of_usize, usize_of_u32};
use commsched_topology::{SwitchId, Tree};
use std::cmp::Reverse;
use std::collections::binary_heap::PeekMut;
use std::collections::BinaryHeap;

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

/// The index proper. Owned by [`ClusterState`](crate::ClusterState);
/// derived entirely from the occupancy counters, and therefore excluded
/// from state equality.
#[derive(Debug, Clone, Default, PartialEq)]
pub(crate) struct FreeIndex {
    /// `[level - 1]` → `subtree_free` of every switch at that level with
    /// `subtree_free > 0`. `[0]` is every free leaf keyed `leaf_free`,
    /// members its ordinal; above, members are `upper` slots.
    level_sets: Vec<BucketSet<u32>>,
    /// `[upper(switch)]` → `leaf_free` of the free leaf children, over the
    /// switch's leaf children in ascending ordinal. Empty for the root and
    /// for switches without leaf children.
    by_free: Vec<BucketSet<u32>>,
    /// `[upper(switch)]` → `ratio_key` of the free leaf children, over the
    /// same members. Empty for switches without leaf children.
    by_ratio: Vec<BucketSet<u64>>,
    /// Leaf ordinals by parent, ascending within a parent: upper switch
    /// `u`'s members are `child_ords[child_start[u]..child_start[u + 1]]`.
    child_ords: Vec<u32>,
    child_start: Vec<u32>,
    /// Leaf ordinal → its member in its parent's sets.
    child_member: Vec<u32>,
}

impl FreeIndex {
    /// Rebuild from scratch against the per-switch free counts
    /// (construction, reset, the invariant check), reusing every buffer:
    /// one insert per run of consecutive members of a set that share a
    /// key. `ratio` must be the exact value
    /// `ClusterState::communication_ratio` would report for the ordinal.
    pub(crate) fn rebuild(
        &mut self,
        tree: &Tree,
        switch_free: &[u32],
        ratio: impl Fn(usize) -> f64,
    ) {
        let height = usize::try_from(tree.height()).unwrap_or(1);
        let leaves = tree.num_leaves();
        let uppers = tree.num_switches() - leaves;
        // Each parent's leaf children in ordinal order.
        self.child_ords.clear();
        self.child_start.clear();
        self.child_member.clear();
        self.child_member.resize(leaves, 0);
        for sw in &tree.switches()[leaves..] {
            let first = self.child_ords.len();
            self.child_start.push(u32_of_usize(first));
            let kids = sw.children.iter().filter(|c| c.0 < leaves);
            self.child_ords.extend(kids.map(|c| u32_of_usize(c.0)));
            self.child_ords[first..].sort_unstable();
            for (m, &k) in self.child_ords[first..].iter().enumerate() {
                self.child_member[usize_of_u32(k)] = u32_of_usize(m);
            }
        }
        self.child_start.push(u32_of_usize(self.child_ords.len()));

        self.level_sets.resize_with(height, BucketSet::default);
        for (l, set) in self.level_sets.iter_mut().enumerate() {
            set.clear(if l == 0 { leaves } else { uppers });
        }
        self.by_free.resize_with(uppers, BucketSet::default);
        self.by_ratio.resize_with(uppers, BucketSet::default);
        for u in 0..uppers {
            let universe = span(&self.child_start, u).len();
            self.by_free[u].clear(universe);
            self.by_ratio[u].clear(universe);
        }
        // Leaf `k` is member `k` of level 1; an upper switch is its slot.
        let leaf_entries = (0..leaves).filter_map(|k| Some((0, keyed(switch_free[k])?, k)));
        let upper_entries = tree.switches()[leaves..]
            .iter()
            .enumerate()
            .filter_map(|(u, sw)| Some((level_slot(sw.level), keyed(switch_free[leaves + u])?, u)));
        insert_runs(&mut self.level_sets, leaf_entries.chain(upper_entries));
        // Each parent's free leaf children, member by member; the root,
        // the last switch, keeps no `by_free` set.
        for u in 0..uppers {
            // `(member, ordinal, free count)` of each free leaf child.
            let free = || {
                let ords = self.child_ords[span(&self.child_start, u)].iter();
                ords.enumerate().filter_map(|(m, &k)| {
                    let k = usize_of_u32(k);
                    Some((m, k, keyed(switch_free[k])?))
                })
            };
            if u + 1 < uppers {
                insert_runs(&mut self.by_free, free().map(|(m, _, f)| (u, f, m)));
            }
            let by_ratio = free().map(|(m, k, _)| (u, ratio_key(ratio(k)), m));
            insert_runs(&mut self.by_ratio, by_ratio);
        }
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
    pub(crate) fn apply_leaves(
        &mut self,
        tree: &Tree,
        parent: Option<SwitchId>,
        (first, len): (u32, u32),
        (old_free, old_rkey): (u32, u64),
        (new_free, new_rkey): (u32, u64),
    ) {
        let (old, new) = (keyed(old_free), keyed(new_free));
        // Level 1 is exactly the leaves, ids `0..num_leaves`: its member
        // is the ordinal itself.
        self.level_sets[0].rekey(first, len, old, new);
        let Some(g) = parent else {
            return;
        };
        let member = self.child_member[usize_of_u32(first)];
        debug_assert_eq!(
            self.child_member[usize_of_u32(first + len - 1)],
            member + len - 1,
            "leaves {first}.. are not consecutive siblings"
        );
        let u = upper(tree, g);
        if g != tree.root() {
            self.by_free[u].rekey(member, len, old, new);
        }
        let (old_r, new_r) = (old.map(|_| old_rkey), new.map(|_| new_rkey));
        self.by_ratio[u].rekey(member, len, old_r, new_r);
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
                ords: None,
            })
        } else {
            self.parent_sets(tree, p, &self.by_free)
        }
    }

    /// Free leaves under `p`, keyed `(ratio_key, ordinal)` — the greedy
    /// (Eq. 1) fill order. Empty for a leaf.
    pub(crate) fn leaves_by_ratio(&self, tree: &Tree, p: SwitchId) -> FillOrder<'_, u64> {
        self.parent_sets(tree, p, &self.by_ratio)
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
            ords: Some(&self.child_ords[span(&self.child_start, upper(tree, s))]),
        };
        fn walk<'a, K>(
            tree: &Tree,
            p: SwitchId,
            members: &impl Fn(SwitchId) -> Members<'a, K>,
            out: &mut Vec<Members<'a, K>>,
        ) {
            let mut has_leaf = false;
            for &c in &tree.switch(p).children {
                match tree.switch(c).level {
                    1 => has_leaf = true,
                    2 => out.push(members(c)),
                    _ => walk(tree, c, members, out),
                }
            }
            if has_leaf {
                out.push(members(p));
            }
        }
        if tree.switch(p).level == 2 {
            return FillOrder::One(members(p));
        }
        let mut out = Vec::new();
        walk(tree, p, &members, &mut out);
        FillOrder::Many(out)
    }

    /// `free_keyed` of each set keyed by free count — the level sets, then
    /// `by_free` — followed by `ratio_keyed` of each `by_ratio` set.
    #[cfg(test)]
    pub(crate) fn map_sets<T>(
        &self,
        free_keyed: impl Fn(&BucketSet<u32>) -> T,
        ratio_keyed: impl Fn(&BucketSet<u64>) -> T,
    ) -> Vec<T> {
        let free = self.level_sets.iter().chain(&self.by_free).map(free_keyed);
        free.chain(self.by_ratio.iter().map(ratio_keyed)).collect()
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

/// Upper switch `g`'s range of `child_ords`, from `child_start`.
#[inline]
fn span(start: &[u32], g: usize) -> std::ops::Range<usize> {
    usize_of_u32(start[g])..usize_of_u32(start[g + 1])
}

/// One bucketed set with the leaf ordinal of each of its members: `None`
/// for the level-1 set, whose members are ordinals.
#[derive(Clone, Copy)]
pub(crate) struct Members<'a, K> {
    set: &'a BucketSet<K>,
    ords: Option<&'a [u32]>,
}

impl<K> Members<'_, K> {
    /// The leaf ordinal of member `m`.
    #[inline]
    fn ordinal(&self, m: u32) -> u32 {
        self.ords.map_or(m, |ords| ords[usize_of_u32(m)])
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

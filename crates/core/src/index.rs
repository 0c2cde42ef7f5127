//! The hierarchical free-count index: ordered summaries over the
//! incremental per-switch/per-leaf counters that make every selector's
//! descent sublinear in machine size.
//!
//! [`ClusterState`](crate::ClusterState) maintains exact
//! `leaf_free`/`switch_free` counters; without an index the selectors would
//! scan *all* switches for the lowest-level switch and collect-and-sort
//! *all* leaves under it on every placement — the dominant cost at the
//! 500k–1M-node presets. The index keeps plain ordered sets, so iteration
//! order is a pure function of the counters (determinism rule D1), and
//! holds each leaf in at most three of them:
//!
//! * **per level**: `(subtree_free, switch_id)` for every switch with free
//!   capacity — the lowest-level-switch query walks levels bottom-up and
//!   takes one `BTreeSet::range` successor per level, O(height · log S).
//!   Leaf switch `k` has id `k` (`Tree::from_parts` numbers leaves first),
//!   so the level-1 set is also every free leaf in `(leaf_free, ordinal)`
//!   order: the root's fill order.
//! * **per parent** — a switch with at least one leaf child — its free
//!   leaf children ordered by `(leaf_free, ordinal)` (not kept for the
//!   root, whose order is the level-1 set) and by
//!   `(communication-ratio key, ordinal)`.
//!
//! Any other switch's fill order is the lazy k-way merge of the parent
//! sets in its subtree ([`Merge`]); with one such set — every switch of
//! the two-level presets, every group of the three-level ones — it is that
//! set's own iterator. Selectors iterate lazily and stop as soon as the
//! request is satisfied, so a placement costs O(height · log S + leaves
//! actually used), plus one heap operation per leaf where a merge runs.
//!
//! Maintenance is eager: `ClusterState::shift` re-keys a leaf's (at most)
//! three entries on the spot ([`FreeIndex::apply_leaf`]), and every
//! mutation re-keys each ancestor switch it moved in its level set
//! ([`FreeIndex::apply_switch`]) once, from the count the entry was keyed
//! by to the final one, before it returns — once per placement, not once
//! per take. Nothing is pending between calls: the index equals a
//! from-scratch rebuild of the counters after every mutation.
#![deny(clippy::as_conversions)]

use commsched_num::usize_of_u32;
use commsched_topology::{SwitchId, Tree};
use std::cmp::Reverse;
use std::collections::binary_heap::PeekMut;
use std::collections::{btree_set, BTreeSet, BinaryHeap};

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
    /// level with `subtree_free > 0`. `[0]` is every free leaf as
    /// `(leaf_free, ordinal)`.
    level_sets: Vec<BTreeSet<(u32, u32)>>,
    /// `[upper(switch)]` → `(leaf_free, leaf_ordinal)` of the free leaf
    /// children. Empty for the root and for switches without leaf
    /// children.
    by_free: Vec<BTreeSet<(u32, u32)>>,
    /// `[upper(switch)]` → `(ratio_key, leaf_ordinal)` of the free leaf
    /// children. Empty for switches without leaf children.
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
        // Entries are gathered per set and each set is built in one go
        // (`BTreeSet::from_iter` sorts, then fills nodes to capacity).
        let height = usize::try_from(tree.height()).unwrap_or(1);
        let uppers = tree.num_switches() - tree.num_leaves();
        let mut levels = vec![Vec::new(); height];
        let mut by_free = vec![Vec::new(); uppers];
        let mut by_ratio = vec![Vec::new(); uppers];
        for (id, sw) in tree.switches().iter().enumerate() {
            let free = switch_free[id];
            if free > 0 {
                if let (Ok(id32), Some(level)) =
                    (u32::try_from(id), levels.get_mut(level_slot(sw.level)))
                {
                    level.push((free, id32));
                }
            }
        }
        for (k, &free) in leaf_free.iter().enumerate() {
            debug_assert_eq!(tree.leaf(k).0, k, "leaf switch ids are ordinals");
            let Ok(ord) = u32::try_from(k) else { continue };
            if free == 0 {
                continue;
            }
            if let Some(g) = tree.switch(tree.leaf(k)).parent {
                if g != tree.root() {
                    by_free[upper(tree, g)].push((free, ord));
                }
                by_ratio[upper(tree, g)].push((ratio_key(ratio(k)), ord));
            }
        }
        self.level_sets = levels.into_iter().map(BTreeSet::from_iter).collect();
        self.by_free = by_free.into_iter().map(BTreeSet::from_iter).collect();
        self.by_ratio = by_ratio.into_iter().map(BTreeSet::from_iter).collect();
    }

    /// Re-key one switch in its level set.
    #[inline]
    pub(crate) fn apply_switch(&mut self, level: u32, id: u32, old_free: u32, new_free: u32) {
        if let Some(set) = self.level_sets.get_mut(level_slot(level)) {
            rekey(set, keyed(old_free, id), keyed(new_free, id));
        }
    }

    /// Re-key one leaf in the level-1 set and its parent's sets.
    pub(crate) fn apply_leaf(
        &mut self,
        tree: &Tree,
        ord: u32,
        (old_free, old_rkey): (u32, u64),
        (new_free, new_rkey): (u32, u64),
    ) {
        let (old, new) = (keyed(old_free, ord), keyed(new_free, ord));
        rekey(&mut self.level_sets[0], old, new);
        let Some(g) = tree.switch(tree.leaf(usize_of_u32(ord))).parent else {
            return;
        };
        if g != tree.root() {
            rekey(&mut self.by_free[upper(tree, g)], old, new);
        }
        rekey(
            &mut self.by_ratio[upper(tree, g)],
            old.map(|_| (old_rkey, ord)),
            new.map(|_| (new_rkey, ord)),
        );
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

    /// Free leaves under `p`, keyed `(leaf_free, ordinal)` — the
    /// default/balanced fill order. Empty for a leaf.
    pub(crate) fn leaves_by_free(&self, tree: &Tree, p: SwitchId) -> FillOrder<'_, u32> {
        if p == tree.root() {
            FillOrder::One(&self.level_sets[0])
        } else {
            parent_sets(tree, p, &self.by_free)
        }
    }

    /// Free leaves under `p`, keyed `(ratio_key, ordinal)` — the greedy
    /// (Eq. 1) fill order. Empty for a leaf.
    pub(crate) fn leaves_by_ratio(&self, tree: &Tree, p: SwitchId) -> FillOrder<'_, u64> {
        parent_sets(tree, p, &self.by_ratio)
    }
}

/// The `by_free`/`by_ratio` slot of a non-leaf switch: `Tree::from_parts`
/// numbers the leaves first, so the others follow from `num_leaves`.
#[inline]
fn upper(tree: &Tree, s: SwitchId) -> usize {
    s.0 - tree.num_leaves()
}

/// The `(free, id)` entry of something with `free` free nodes: none when
/// it has none.
#[inline]
fn keyed(free: u32, id: u32) -> Option<(u32, u32)> {
    (free > 0).then_some((free, id))
}

/// Move `old` to `new` in `set`; `None` is "not in the set".
#[inline]
fn rekey<T: Ord>(set: &mut BTreeSet<T>, old: Option<T>, new: Option<T>) {
    if old == new {
        return;
    }
    if let Some(old) = old {
        set.remove(&old);
    }
    if let Some(new) = new {
        set.insert(new);
    }
}

/// `level_sets` slot of a switch level (levels are 1-based).
#[inline]
fn level_slot(level: u32) -> usize {
    usize_of_u32(level.saturating_sub(1))
}

/// `p`'s fill order over `sets`: the sets of the parents in its subtree,
/// `p` included. A level-2 switch has only leaf children, so it is its own
/// one set; above, the walk reads child lists and descends into
/// non-leaves. Nothing is stored: the walk touches only switches above the
/// leaves.
fn parent_sets<'a, K>(
    tree: &Tree,
    p: SwitchId,
    sets: &'a [BTreeSet<(K, u32)>],
) -> FillOrder<'a, K> {
    fn walk<'a, K>(
        tree: &Tree,
        p: SwitchId,
        sets: &'a [BTreeSet<(K, u32)>],
        out: &mut Vec<&'a BTreeSet<(K, u32)>>,
    ) {
        let mut has_leaf = false;
        for &c in &tree.switch(p).children {
            match tree.switch(c).level {
                1 => has_leaf = true,
                2 => out.push(&sets[upper(tree, c)]),
                _ => walk(tree, c, sets, out),
            }
        }
        if has_leaf {
            out.push(&sets[upper(tree, p)]);
        }
    }
    if tree.switch(p).level == 2 {
        return FillOrder::One(&sets[upper(tree, p)]);
    }
    let mut out = Vec::new();
    walk(tree, p, sets, &mut out);
    FillOrder::Many(out)
}

/// One switch's free leaves, as the sets whose union they are: its own
/// parent set, or every parent set in its subtree. Each leaf is in exactly
/// one of them, so the merged order is the union's order whatever order
/// the sets come in.
pub(crate) enum FillOrder<'a, K> {
    One(&'a BTreeSet<(K, u32)>),
    Many(Vec<&'a BTreeSet<(K, u32)>>),
}

impl<'a, K: Ord + Copy> FillOrder<'a, K> {
    /// `(key, ordinal)` entries in ascending order.
    pub(crate) fn asc(self) -> impl Iterator<Item = (K, u32)> + 'a {
        self.merge(|set| set.iter().copied())
    }

    /// `(key, ordinal)` entries in *descending* key order with ties in
    /// *ascending* ordinal order — the order the scan selectors produce
    /// with `sort_by(|a, b| key(b).cmp(&key(a)).then(a.cmp(&b)))`.
    pub(crate) fn desc(self) -> impl Iterator<Item = (K, u32)> + 'a {
        self.merge(Desc::new).map(|(Reverse(key), ord)| (key, ord))
    }

    fn merge<I: Iterator>(self, stream: impl Fn(&'a BTreeSet<(K, u32)>) -> I) -> Merge<I>
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

/// One set walked by descending key, ties by ascending ordinal: each
/// equal-key group costs one range seek.
struct Desc<'a, K> {
    set: &'a BTreeSet<(K, u32)>,
    /// The rest of the current equal-key group.
    group: btree_set::Range<'a, (K, u32)>,
    /// That group's key, below which the next group lies (`None` before
    /// the first).
    bound: Option<K>,
}

impl<'a, K: Ord + Copy> Desc<'a, K> {
    fn new(set: &'a BTreeSet<(K, u32)>) -> Self {
        Desc {
            set,
            group: btree_set::Range::default(),
            bound: None,
        }
    }
}

impl<K: Ord + Copy> Iterator for Desc<'_, K> {
    type Item = (Reverse<K>, u32);

    fn next(&mut self) -> Option<Self::Item> {
        loop {
            if let Some(&(key, ord)) = self.group.next() {
                return Some((Reverse(key), ord));
            }
            let last = match self.bound {
                None => self.set.iter().next_back(),
                Some(b) => self.set.range(..(b, 0u32)).next_back(),
            };
            let &(key, _) = last?;
            self.group = self.set.range((key, 0u32)..=(key, u32::MAX));
            self.bound = Some(key);
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

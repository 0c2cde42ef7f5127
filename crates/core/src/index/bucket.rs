//! `BucketSet<K>`: an ordered set of `(key, member)` over a fixed universe
//! of members `0..U`, bucketed by key.
//!
//! Each live key owns one *slot*: a member count and `⌈U/64⌉` words of a
//! flat arena, bit `m` set while `(key, m)` is in the set. The live keys
//! sit in a `BTreeMap<K, slot>`, so an insert or a remove of a range of
//! consecutive members is one map lookup over the *distinct live keys*,
//! however many members share them, plus one word mask per 64 members. A
//! bucket that empties leaves the map and its slot — all bits clear
//! again — goes on a free list for the next new key, so the
//! arena holds at most as many slots as the set has ever had live keys at
//! once, never `max key × U` bits.
//!
//! Order is `(key, member)`: [`BucketSet::asc`] walks keys ascending,
//! [`BucketSet::desc`] keys descending; both give a key's members
//! ascending.
#![deny(clippy::as_conversions)]

use commsched_num::{u32_of_usize, usize_of_u32};
use std::collections::btree_map::Entry;
use std::collections::BTreeMap;

const BITS: usize = 64;

/// See the module docs. Equality compares members only, so it does not
/// depend on the insert/remove history or on which slot a key landed in.
#[derive(Debug, Clone)]
pub(crate) struct BucketSet<K> {
    /// Members in the universe (`U`).
    universe: usize,
    /// Arena words per slot: `⌈U/64⌉`.
    words: usize,
    /// Live key → its slot.
    keys: BTreeMap<K, u32>,
    /// Per slot: members in its bucket.
    counts: Vec<u32>,
    /// Slot `s`'s bits are `arena[s * words..(s + 1) * words]`.
    arena: Vec<u64>,
    /// Slots of emptied buckets, all bits clear, for the next new key.
    spare: Vec<u32>,
    /// Key-map lookups `insert` and `remove` have made.
    #[cfg(test)]
    lookups: u64,
}

impl<K> Default for BucketSet<K> {
    fn default() -> Self {
        BucketSet {
            universe: 0,
            words: 0,
            keys: BTreeMap::new(),
            counts: Vec::new(),
            arena: Vec::new(),
            spare: Vec::new(),
            #[cfg(test)]
            lookups: 0,
        }
    }
}

impl<K: Ord + Copy> BucketSet<K> {
    /// Make this the empty set over members `0..universe`, keeping the
    /// arena's buffer.
    pub(crate) fn clear(&mut self, universe: usize) {
        self.universe = universe;
        self.words = universe.div_ceil(BITS);
        self.keys.clear();
        self.counts.clear();
        self.arena.clear();
        self.spare.clear();
    }

    /// Add `(key, m)` for every member `m` of `first..first + len`, none
    /// of which may be in the set: one key lookup, one bit-range set.
    #[inline]
    pub(crate) fn insert(&mut self, key: K, first: u32, len: u32) {
        self.lookup(first, len);
        let slot = match self.keys.entry(key) {
            Entry::Occupied(e) => usize_of_u32(*e.get()),
            Entry::Vacant(e) => {
                let slot = match self.spare.pop() {
                    Some(slot) => usize_of_u32(slot),
                    None => {
                        self.arena.resize(self.arena.len() + self.words, 0);
                        self.counts.push(0);
                        self.counts.len() - 1
                    }
                };
                e.insert(u32_of_usize(slot));
                slot
            }
        };
        flip(&mut self.arena, slot * self.words, first, len, true);
        self.counts[slot] += len;
    }

    /// Drop `(key, m)` for every member `m` of `first..first + len`, all
    /// of which must be in the set under `key`: one key lookup, one
    /// bit-range clear.
    #[inline]
    pub(crate) fn remove(&mut self, key: K, first: u32, len: u32) {
        self.lookup(first, len);
        let Entry::Occupied(e) = self.keys.entry(key) else {
            debug_assert!(false, "no bucket for the key of member {first}");
            return;
        };
        let slot = usize_of_u32(*e.get());
        flip(&mut self.arena, slot * self.words, first, len, false);
        self.counts[slot] -= len;
        if self.counts[slot] == 0 {
            self.spare.push(e.remove());
        }
    }

    /// Move members `first..first + len` from key `old` to key `new`;
    /// `None` is "not in the set".
    #[inline]
    pub(crate) fn rekey(&mut self, first: u32, len: u32, old: Option<K>, new: Option<K>) {
        if old == new {
            return;
        }
        if let Some(old) = old {
            self.remove(old, first, len);
        }
        if let Some(new) = new {
            self.insert(new, first, len);
        }
    }

    /// Check members `first..first + len` and count the key-map lookup
    /// about to be made for them.
    #[inline]
    fn lookup(&mut self, first: u32, len: u32) {
        debug_assert!(len > 0 && usize_of_u32(first + len) <= self.universe);
        #[cfg(test)]
        {
            self.lookups += 1;
        }
    }

    /// Slot `slot`'s members, ascending.
    #[inline]
    fn members(&self, slot: u32) -> Ones<'_> {
        let at = usize_of_u32(slot) * self.words;
        Ones {
            words: self.arena[at..at + self.words].iter(),
            next: 0,
            base: 0,
            word: 0,
        }
    }

    /// The first entry whose key is at least `want`: that key's lowest
    /// member.
    pub(crate) fn first_at_least(&self, want: K) -> Option<(K, u32)> {
        let (&key, &slot) = self.keys.range(want..).next()?;
        self.members(slot).next().map(|m| (key, m))
    }

    /// Every entry, keys ascending, members ascending within a key.
    pub(crate) fn asc(&self) -> impl Iterator<Item = (K, u32)> + '_ {
        self.keys
            .iter()
            .flat_map(move |(&key, &slot)| self.members(slot).map(move |m| (key, m)))
    }

    /// Every entry, keys *descending*, members ascending within a key.
    pub(crate) fn desc(&self) -> impl Iterator<Item = (K, u32)> + '_ {
        self.keys
            .iter()
            .rev()
            .flat_map(move |(&key, &slot)| self.members(slot).map(move |m| (key, m)))
    }

    /// Arena words held (live and spare slots alike), words per slot
    /// (`⌈U/64⌉`), distinct live keys, and the key-map lookups `insert`
    /// and `remove` have made.
    #[cfg(test)]
    pub(crate) fn stats(&self) -> (usize, usize, usize, u64) {
        (self.arena.len(), self.words, self.keys.len(), self.lookups)
    }
}

impl<K: Ord + Copy> PartialEq for BucketSet<K> {
    fn eq(&self, other: &Self) -> bool {
        self.universe == other.universe
            && self.keys.len() == other.keys.len()
            && self
                .keys
                .iter()
                .zip(&other.keys)
                .all(|((a, &sa), (b, &sb))| {
                    let at = |set: &Self, slot: u32| {
                        let at = usize_of_u32(slot) * set.words;
                        at..at + set.words
                    };
                    a == b && self.arena[at(self, sa)] == other.arena[at(other, sb)]
                })
    }
}

/// Set (`on`) or clear bits `first..first + len` of the slot whose words
/// start at `arena[at]`, a word mask at a time; each must hold the other
/// value before.
#[inline]
fn flip(arena: &mut [u64], at: usize, first: u32, len: u32, on: bool) {
    let (mut m, end) = (usize_of_u32(first), usize_of_u32(first + len));
    while m < end {
        let (w, bit) = (at + m / BITS, m % BITS);
        let n = (BITS - bit).min(end - m);
        let mask = (u64::MAX >> (BITS - n)) << bit;
        debug_assert_eq!(arena[w] & mask, if on { 0 } else { mask }, "{m}..{end}");
        if on {
            arena[w] |= mask;
        } else {
            arena[w] &= !mask;
        }
        m += n;
    }
}

/// The set bits of a run of words, ascending, as positions from the run's
/// first bit.
struct Ones<'a> {
    words: std::slice::Iter<'a, u64>,
    /// Position of the next word's first bit.
    next: u32,
    /// Position of `word`'s first bit.
    base: u32,
    /// The unread bits of the current word.
    word: u64,
}

impl Iterator for Ones<'_> {
    type Item = u32;

    #[inline]
    fn next(&mut self) -> Option<u32> {
        while self.word == 0 {
            self.word = *self.words.next()?;
            self.base = self.next;
            self.next += 64;
        }
        let bit = self.word.trailing_zeros();
        self.word &= self.word - 1;
        Some(self.base + bit)
    }
}

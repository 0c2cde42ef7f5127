//! `BucketSet<K>`: an ordered set of `(key, member)` over a fixed universe
//! of members `0..U`, bucketed by key.
//!
//! Each live key owns one *slot*: a member count and `⌈U/64⌉` words of a
//! flat arena, bit `m` set while `(key, m)` is in the set. The live keys
//! sit in ascending order in [`Keys`], sorted blocks of at most [`BLOCK`]
//! keys, so an insert or a remove of a range of consecutive members is one
//! key search over the *distinct live keys*, however many members share
//! them, plus one word mask per 64 members. A bucket that empties drops
//! its key and its slot — all bits clear again — goes on a free list for
//! the next new key, so the arena holds at most as many slots as the set
//! has ever had live keys at once, never `max key × U` bits. A re-key that
//! moves a whole bucket to a key not yet live renames the key in place:
//! the slot and its bits go with it.
//!
//! Order is `(key, member)`: [`BucketSet::asc`] walks keys ascending,
//! [`BucketSet::desc`] keys descending; both give a key's members
//! ascending.
#![deny(clippy::as_conversions)]

use commsched_num::{u32_of_usize, usize_of_u32};

const BITS: usize = 64;

/// Most keys one block of [`Keys`] holds: every key created or dropped
/// moves at most this many entries, however many keys the set holds. A
/// set of up to `BLOCK` live keys — every set of every preset — is one
/// plain sorted vector. Chosen by measurement (DESIGN.md §4.7).
pub(crate) const BLOCK: usize = 256;

/// See the module docs. Equality compares members only, so it does not
/// depend on the insert/remove history or on which slot a key landed in.
#[derive(Debug, Clone)]
pub(crate) struct BucketSet<K> {
    /// Members in the universe (`U`).
    universe: usize,
    /// Arena words per slot: `⌈U/64⌉`.
    words: usize,
    /// Live keys, ascending, each with its slot.
    keys: Keys<K>,
    /// Per slot: members in its bucket.
    counts: Vec<u32>,
    /// Slot `s`'s bits are `arena[s * words..(s + 1) * words]`.
    arena: Vec<u64>,
    /// Slots of emptied buckets, all bits clear, for the next new key.
    spare: Vec<u32>,
    #[cfg(test)]
    tally: Tally,
}

/// One step of a set's upkeep, for the `cfg(test)` [`Tally`].
#[derive(Clone, Copy)]
enum Step {
    Insert,
    Remove,
    Move,
    Create,
    Drop,
}

/// What a set's upkeep has done since it was made (`cfg(test)`).
#[cfg(test)]
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct Tally {
    /// Member ranges added; a re-key within the set is one of these…
    pub(crate) inserts: u64,
    /// …and one of these.
    pub(crate) removes: u64,
    /// Re-keys that renamed a whole bucket's key in place.
    pub(crate) moves: u64,
    /// Keys created, and keys dropped; an in-place move is neither.
    pub(crate) created: u64,
    pub(crate) dropped: u64,
    /// Key entries shifted within or between blocks, in-place moves'
    /// included.
    pub(crate) shifted: u64,
}

impl<K> Default for BucketSet<K> {
    fn default() -> Self {
        BucketSet {
            universe: 0,
            words: 0,
            keys: Keys::default(),
            counts: Vec::new(),
            arena: Vec::new(),
            spare: Vec::new(),
            #[cfg(test)]
            tally: Tally::default(),
        }
    }
}

impl<K: Ord + Copy> BucketSet<K> {
    /// Make this the empty set over members `0..universe`, keeping the
    /// arena's and the keys' buffers.
    pub(crate) fn clear(&mut self, universe: usize) {
        self.universe = universe;
        self.words = universe.div_ceil(BITS);
        self.keys.clear();
        self.counts.clear();
        self.arena.clear();
        self.spare.clear();
    }

    /// Add `(key, m)` for every member `m` of `first..first + len`, none
    /// of which may be in the set: one key search, one bit-range set.
    #[inline]
    pub(crate) fn insert(&mut self, key: K, first: u32, len: u32) {
        self.check(first, len);
        self.count(Step::Insert, 0);
        let at = self.keys.find(key);
        self.insert_at(at, key, first, len);
    }

    /// Drop `(key, m)` for every member `m` of `first..first + len`, all
    /// of which must be in the set under `key`: one key search, one
    /// bit-range clear.
    #[inline]
    pub(crate) fn remove(&mut self, key: K, first: u32, len: u32) {
        self.check(first, len);
        self.count(Step::Remove, 0);
        let Ok(at) = self.keys.find(key) else {
            debug_assert!(false, "no bucket for the key of member {first}");
            return;
        };
        self.remove_at(at, first, len);
    }

    /// Move members `first..first + len` from key `old` to key `new`;
    /// `None` is "not in the set". Two key searches; when the members are
    /// `old`'s whole bucket and `new` is not live, `old` is renamed `new`
    /// in place and no bit moves.
    #[inline]
    pub(crate) fn rekey(&mut self, first: u32, len: u32, old: Option<K>, new: Option<K>) {
        let (old, new) = match (old, new) {
            _ if old == new => return,
            (Some(old), Some(new)) => (old, new),
            (Some(old), None) => return self.remove(old, first, len),
            (None, Some(new)) => return self.insert(new, first, len),
            (None, None) => return,
        };
        self.check(first, len);
        self.count(Step::Remove, 0);
        self.count(Step::Insert, 0);
        let Ok(from) = self.keys.find(old) else {
            debug_assert!(false, "no bucket for the key of member {first}");
            return;
        };
        let whole = self.counts[usize_of_u32(self.keys.slot(from))] == len;
        // The step that may add or drop an entry goes last, so the other
        // step's position still holds.
        match self.keys.find(new) {
            Err(to) if whole => {
                let shifted = self.keys.rename(from, to, new);
                self.count(Step::Move, shifted);
            }
            Ok(to) => {
                self.insert_at(Ok(to), new, first, len);
                self.remove_at(from, first, len);
            }
            Err(to) => {
                self.remove_at(from, first, len);
                self.insert_at(Err(to), new, first, len);
            }
        }
    }

    /// [`BucketSet::insert`] at the position `Keys::find` gave for `key`.
    #[inline]
    fn insert_at(&mut self, at: Result<Pos, Pos>, key: K, first: u32, len: u32) {
        let slot = match at {
            Ok(at) => usize_of_u32(self.keys.slot(at)),
            Err(at) => {
                let slot = match self.spare.pop() {
                    Some(slot) => usize_of_u32(slot),
                    None => {
                        self.arena.resize(self.arena.len() + self.words, 0);
                        self.counts.push(0);
                        self.counts.len() - 1
                    }
                };
                let shifted = self.keys.insert(at, key, u32_of_usize(slot));
                self.count(Step::Create, shifted);
                slot
            }
        };
        flip(&mut self.arena, slot * self.words, first, len, true);
        self.counts[slot] += len;
    }

    /// [`BucketSet::remove`] at `at`, the position of the members' key.
    #[inline]
    fn remove_at(&mut self, at: Pos, first: u32, len: u32) {
        let slot = usize_of_u32(self.keys.slot(at));
        flip(&mut self.arena, slot * self.words, first, len, false);
        self.counts[slot] -= len;
        if self.counts[slot] == 0 {
            let shifted = self.keys.remove(at);
            self.spare.push(u32_of_usize(slot));
            self.count(Step::Drop, shifted);
        }
    }

    /// Check members `first..first + len`.
    #[inline]
    fn check(&self, first: u32, len: u32) {
        debug_assert!(len > 0 && usize_of_u32(first + len) <= self.universe);
    }

    /// Count `step`, which shifted `shifted` key entries, in the
    /// `cfg(test)` tally; nothing otherwise.
    #[inline]
    fn count(&mut self, step: Step, shifted: usize) {
        #[cfg(test)]
        {
            let t = &mut self.tally;
            match step {
                Step::Insert => t.inserts += 1,
                Step::Remove => t.removes += 1,
                Step::Move => t.moves += 1,
                Step::Create => t.created += 1,
                Step::Drop => t.dropped += 1,
            }
            t.shifted += commsched_num::u64_of_usize(shifted);
        }
        let _ = (step, shifted);
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
        let (key, slot) = self.keys.at_least(want)?;
        self.members(slot).next().map(|m| (key, m))
    }

    /// Every entry, keys ascending, members ascending within a key.
    pub(crate) fn asc(&self) -> impl Iterator<Item = (K, u32)> + '_ {
        self.keys
            .iter()
            .flat_map(move |(key, slot)| self.members(slot).map(move |m| (key, m)))
    }

    /// Every entry, keys *descending*, members ascending within a key.
    pub(crate) fn desc(&self) -> impl Iterator<Item = (K, u32)> + '_ {
        self.keys
            .iter()
            .rev()
            .flat_map(move |(key, slot)| self.members(slot).map(move |m| (key, m)))
    }

    /// Arena words held (live and spare slots alike), words per slot
    /// (`⌈U/64⌉`), distinct live keys, and the member ranges `insert`,
    /// `remove` and `rekey` have added and dropped.
    #[cfg(test)]
    pub(crate) fn stats(&self) -> (usize, usize, usize, u64) {
        let lookups = self.tally.inserts + self.tally.removes;
        (self.arena.len(), self.words, self.keys.len(), lookups)
    }

    /// The upkeep's counts (see [`Tally`]).
    #[cfg(test)]
    pub(crate) fn tally(&self) -> Tally {
        self.tally
    }

    /// Live keys per block, in key order.
    #[cfg(test)]
    pub(crate) fn blocks(&self) -> Vec<usize> {
        let blocks = self.keys.blocks.len().max(1);
        (0..blocks).map(|b| self.keys.span(b).len()).collect()
    }
}

impl<K: Ord + Copy> PartialEq for BucketSet<K> {
    fn eq(&self, other: &Self) -> bool {
        let at = |set: &Self, slot: u32| {
            let at = usize_of_u32(slot) * set.words;
            at..at + set.words
        };
        self.universe == other.universe
            && self.keys.len() == other.keys.len()
            && self
                .keys
                .iter()
                .zip(other.keys.iter())
                .all(|((a, sa), (b, sb))| {
                    a == b && self.arena[at(self, sa)] == other.arena[at(other, sb)]
                })
    }
}

/// Block and offset of an entry of [`Keys`].
type Pos = (usize, usize);

/// `(key, slot)` entries, keys strictly ascending, in blocks of 1 to
/// [`BLOCK`] entries each above the block before.
///
/// While the keys fit one block, `entries` is that block: a plain sorted
/// vector, one allocation. Past it, `entries` is cut into regions of
/// `BLOCK` entries and `blocks` lists, in key order, each block's first
/// key, region and length. A key search bisects the blocks' first keys,
/// then one block; a new or dropped key shifts the rest of its block, and
/// a new key in a full block first moves the upper half to a region of
/// its own. Emptied regions are reused by the next split, so keys come and
/// go without allocating once the set has held its most blocks.
#[derive(Debug, Clone)]
struct Keys<K> {
    entries: Vec<(K, u32)>,
    /// `(first key, region, len)` of each block in key order: its entries
    /// are `region * BLOCK..region * BLOCK + len`. Empty while `entries` is
    /// one block.
    blocks: Vec<(K, u32, u32)>,
    /// Regions of emptied blocks.
    spare: Vec<u32>,
}

impl<K> Default for Keys<K> {
    fn default() -> Self {
        Keys {
            entries: Vec::new(),
            blocks: Vec::new(),
            spare: Vec::new(),
        }
    }
}

impl<K: Ord + Copy> Keys<K> {
    fn clear(&mut self) {
        self.entries.clear();
        self.blocks.clear();
        self.spare.clear();
    }

    fn len(&self) -> usize {
        match self.blocks.len() {
            0 => self.entries.len(),
            _ => self.blocks.iter().map(|&(.., len)| usize_of_u32(len)).sum(),
        }
    }

    /// Block `b`'s entries, as indices into `entries`.
    #[inline]
    fn span(&self, b: usize) -> std::ops::Range<usize> {
        match self.blocks.get(b) {
            None => 0..self.entries.len(),
            Some(&(_, region, len)) => {
                let at = usize_of_u32(region) * BLOCK;
                at..at + usize_of_u32(len)
            }
        }
    }

    /// `Ok` with `key`'s position, or `Err` with where it would go. One
    /// block is searched branch-free; past one, the blocks' first keys and
    /// then a block are bisected with branches ([`bisect`]).
    #[inline]
    fn find(&self, key: K) -> Result<Pos, Pos> {
        if self.blocks.is_empty() {
            return match self.entries.binary_search_by(|e| e.0.cmp(&key)) {
                Ok(i) => Ok((0, i)),
                Err(i) => Err((0, i)),
            };
        }
        let b = bisect(&self.blocks, |&(head, ..)| head <= key).saturating_sub(1);
        let block = &self.entries[self.span(b)];
        let i = bisect(block, |e| e.0 < key);
        if block.get(i).is_some_and(|e| e.0 == key) {
            Ok((b, i))
        } else {
            Err((b, i))
        }
    }

    #[inline]
    fn slot(&self, (b, i): Pos) -> u32 {
        self.entries[self.span(b).start + i].1
    }

    /// Add `(key, slot)` at `at`, where [`Keys::find`] said `key` goes;
    /// returns the entries shifted.
    fn insert(&mut self, (mut b, mut i): Pos, key: K, slot: u32) -> usize {
        if self.blocks.is_empty() {
            if self.entries.len() < BLOCK {
                self.entries.insert(i, (key, slot));
                return self.entries.len() - 1 - i;
            }
            // The one block is full: it becomes region 0.
            self.blocks
                .push((self.entries[0].0, 0, u32_of_usize(BLOCK)));
        }
        let mut shifted = 0;
        if usize_of_u32(self.blocks[b].2) == BLOCK {
            let region = self.spare.pop().unwrap_or_else(|| {
                let grown = self.entries.len() + BLOCK;
                self.entries.resize(grown, (key, slot));
                u32_of_usize(grown / BLOCK - 1)
            });
            let half = self.span(b).start + BLOCK / 2;
            let to = usize_of_u32(region) * BLOCK;
            self.entries.copy_within(half..half + BLOCK / 2, to);
            shifted += BLOCK / 2;
            self.blocks[b].2 = u32_of_usize(BLOCK / 2);
            let head = self.entries[to].0;
            self.blocks
                .insert(b + 1, (head, region, u32_of_usize(BLOCK / 2)));
            if i > BLOCK / 2 {
                (b, i) = (b + 1, i - BLOCK / 2);
            }
        }
        let span = self.span(b);
        self.entries
            .copy_within(span.start + i..span.end, span.start + i + 1);
        self.entries[span.start + i] = (key, slot);
        let block = &mut self.blocks[b];
        block.2 += 1;
        if i == 0 {
            block.0 = key;
        }
        shifted + span.len() - i
    }

    /// Drop the entry at `at`; returns the entries shifted.
    fn remove(&mut self, (b, i): Pos) -> usize {
        let span = self.span(b);
        if self.blocks.is_empty() {
            self.entries.remove(i);
            return span.len() - 1 - i;
        }
        self.entries
            .copy_within(span.start + i + 1..span.end, span.start + i);
        let block = &mut self.blocks[b];
        block.2 -= 1;
        if block.2 == 0 {
            self.spare.push(self.blocks.remove(b).1);
            if self.blocks.is_empty() {
                self.clear();
            }
        } else if i == 0 {
            block.0 = self.entries[span.start].0;
        }
        span.len() - 1 - i
    }

    /// Rename the key at `from` to `key`, which [`Keys::find`] said goes
    /// at `to`, keeping its slot; returns the entries shifted. Within one
    /// block only the entries between the two positions move.
    fn rename(&mut self, from: Pos, to: Pos, key: K) -> usize {
        if from.0 != to.0 {
            // Dropping `from` moves no other block's entries; if it empties
            // its block, the blocks after it move up one.
            let (slot, blocks) = (self.slot(from), self.blocks.len());
            let shifted = self.remove(from);
            let gone = usize::from(from.0 < to.0 && self.blocks.len() < blocks);
            return shifted + self.insert((to.0 - gone, to.1), key, slot);
        }
        let start = self.span(from.0).start;
        let (i, j) = (start + from.1, start + to.1);
        let at = if j > i {
            self.entries[i..j].rotate_left(1);
            j - 1
        } else {
            self.entries[j..=i].rotate_right(1);
            j
        };
        self.entries[at].0 = key;
        if let Some(block) = self.blocks.get_mut(from.0) {
            block.0 = self.entries[start].0;
        }
        i.abs_diff(at)
    }

    /// The first entry whose key is at least `want`.
    fn at_least(&self, want: K) -> Option<(K, u32)> {
        let (b, i) = match self.find(want) {
            Ok(at) | Err(at) => at,
        };
        let span = self.span(b);
        let at = if span.start + i < span.end {
            span.start + i
        } else if b + 1 < self.blocks.len() {
            self.span(b + 1).start
        } else {
            return None;
        };
        Some(self.entries[at])
    }

    /// Every entry in key order.
    fn iter(&self) -> impl DoubleEndedIterator<Item = (K, u32)> + '_ {
        let blocks = self.blocks.len().max(1);
        (0..blocks).flat_map(move |b| self.entries[self.span(b)].iter().copied())
    }
}

/// The first index of `items` whose item fails `below`, which must hold
/// for a prefix: a binary search that branches. On sets of thousands of
/// keys it read faster than the standard library's branch-free search,
/// which waits on each of its dependent loads in turn (the
/// `bucket_rekey_*` rows, DESIGN.md §4.7); on one block, which stays in
/// cache, the branch-free search is the faster.
#[inline]
fn bisect<T>(items: &[T], below: impl Fn(&T) -> bool) -> usize {
    let (mut lo, mut hi) = (0, items.len());
    while lo < hi {
        let mid = (lo + hi) / 2;
        if below(&items[mid]) {
            lo = mid + 1;
        } else {
            hi = mid;
        }
    }
    lo
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

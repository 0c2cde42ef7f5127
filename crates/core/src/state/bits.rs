//! The per-node free bits, packed 64 to a `u64` word: bit `i` of word
//! `i / 64` is set while node `i` is free — SLURM's node bitmap. Ranges
//! are read and written a word at a time, so a fill, a count or a leaf's
//! lowest-free pick costs one step per 64 nodes, not one per node.
//!
//! Bits at and past `len` in the last word stay clear — `set` and `fill`
//! check their bounds in every build — so the derived `==` can compare
//! whole words.

use commsched_num::usize_of_u32;
use std::ops::Range;

const BITS: usize = 64;

/// Bits `lo..hi` of a word set, `0 ≤ lo < hi ≤ 64`.
#[inline]
fn span(lo: usize, hi: usize) -> u64 {
    (!0u64 >> (BITS - (hi - lo))) << lo
}

/// The words `range` touches, ascending, each with the mask of its bits
/// that lie inside `range`.
#[inline]
pub(crate) fn spans(range: Range<usize>) -> impl Iterator<Item = (usize, u64)> {
    let words = if range.is_empty() {
        0..0
    } else {
        range.start / BITS..range.end.div_ceil(BITS)
    };
    words.map(move |w| {
        let base = w * BITS;
        let lo = range.start.saturating_sub(base);
        let hi = (range.end - base).min(BITS);
        (w, span(lo, hi))
    })
}

/// A fixed-length packed bitset (see module docs).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub(crate) struct FreeBits {
    words: Vec<u64>,
    len: usize,
}

impl FreeBits {
    /// Make this `len` bits, all `value`, reusing the buffer.
    pub(crate) fn reset(&mut self, len: usize, value: bool) {
        self.words.clear();
        self.words
            .resize(len.div_ceil(BITS), if value { !0 } else { 0 });
        if value && !len.is_multiple_of(BITS) {
            let last = self.words.len() - 1;
            self.words[last] = span(0, len % BITS);
        }
        self.len = len;
    }

    /// Number of bits (nodes), not of words.
    #[inline]
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    #[inline]
    pub(crate) fn get(&self, i: usize) -> bool {
        debug_assert!(i < self.len, "bit {i} of {}", self.len);
        (self.words[i / BITS] >> (i % BITS)) & 1 == 1
    }

    #[inline]
    pub(crate) fn set(&mut self, i: usize, value: bool) {
        assert!(i < self.len, "bit {i} of {}", self.len);
        self.fill_word(i / BITS, 1 << (i % BITS), value);
    }

    /// Set every bit of `range` to `value`.
    pub(crate) fn fill(&mut self, range: Range<usize>, value: bool) {
        assert!(range.end <= self.len, "{range:?} past {}", self.len);
        for (w, mask) in spans(range) {
            self.fill_word(w, mask, value);
        }
    }

    /// Word `w`: bit `b` is node `64 w + b`.
    #[inline]
    pub(crate) fn word(&self, w: usize) -> u64 {
        self.words[w]
    }

    /// Set the bits of `mask` in word `w`, all below `len`, to `value`.
    #[inline]
    pub(crate) fn fill_word(&mut self, w: usize, mask: u64, value: bool) {
        if value {
            self.words[w] |= mask;
        } else {
            self.words[w] &= !mask;
        }
    }

    /// Number of set bits in `range`.
    pub(crate) fn count_ones(&self, range: Range<usize>) -> usize {
        debug_assert!(range.end <= self.len, "{range:?} past {}", self.len);
        spans(range)
            .map(|(w, mask)| usize_of_u32((self.words[w] & mask).count_ones()))
            .sum()
    }

    /// Append the lowest `want` set bits of `range` (all, if fewer) to
    /// `out` as ascending `(word index, mask)` entries: whole words while
    /// they hold no more than is still wanted, then the last one's lowest.
    pub(crate) fn pick(&self, range: Range<usize>, want: u32, out: &mut Vec<(usize, u64)>) {
        debug_assert!(range.end <= self.len, "{range:?} past {}", self.len);
        let mut left = want;
        for (w, mask) in spans(range) {
            if left == 0 {
                break;
            }
            let mut free = self.words[w] & mask;
            let ones = free.count_ones();
            if ones > left {
                free = lowest(free, left);
            }
            left -= ones.min(left);
            if free != 0 {
                push(out, w, free);
            }
        }
    }
}

/// Append the bits `mask` of word `w` to ascending `(word index, mask)`
/// entries, merged into the last entry when it is word `w`'s.
#[inline]
pub(crate) fn push(out: &mut Vec<(usize, u64)>, w: usize, mask: u64) {
    match out.last_mut() {
        Some((last, m)) if *last == w => *m |= mask,
        _ => out.push((w, mask)),
    }
}

/// The lowest `r` set bits of `x`, `0 < r < x.count_ones()`: a window
/// halved six times narrows onto the `r`-th set bit.
#[inline]
fn lowest(x: u64, mut r: u32) -> u64 {
    let mut at = 0;
    for half in [32, 16, 8, 4, 2, 1] {
        let below = ((x >> at) & ((1u64 << half) - 1)).count_ones();
        if below < r {
            (at, r) = (at + half, r - below);
        }
    }
    x & (!0u64 >> (63 - at))
}

#[cfg(test)]
impl FreeBits {
    /// A bitset holding exactly `bits`, built bit by bit (the model side
    /// of the lockstep test: it shares no word or mask arithmetic with
    /// [`FreeBits::reset`] or [`FreeBits::fill`]).
    pub(crate) fn from_bools(bits: &[bool]) -> Self {
        let mut out = FreeBits::default();
        out.reset(bits.len(), false);
        for (i, &b) in bits.iter().enumerate() {
            out.set(i, b);
        }
        out
    }
}

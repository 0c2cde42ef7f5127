//! The per-node free bits, packed 64 to a `u64` word: bit `i` of word
//! `i / 64` is set while node `i` is free — SLURM's node bitmap. Ranges
//! are read and written a word at a time, so a fill, a free check or a
//! leaf's run resolution costs one step per 64 nodes, not one per node.
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
fn spans(range: Range<usize>) -> impl Iterator<Item = (usize, u64)> {
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
        let bit = 1u64 << (i % BITS);
        if value {
            self.words[i / BITS] |= bit;
        } else {
            self.words[i / BITS] &= !bit;
        }
    }

    /// Set every bit of `range` to `value`.
    pub(crate) fn fill(&mut self, range: Range<usize>, value: bool) {
        assert!(range.end <= self.len, "{range:?} past {}", self.len);
        for (w, mask) in spans(range) {
            if value {
                self.words[w] |= mask;
            } else {
                self.words[w] &= !mask;
            }
        }
    }

    /// The lowest clear bit in `range`, if any.
    pub(crate) fn first_clear(&self, range: Range<usize>) -> Option<usize> {
        debug_assert!(range.end <= self.len, "{range:?} past {}", self.len);
        spans(range).find_map(|(w, mask)| {
            let clear = !self.words[w] & mask;
            (clear != 0).then(|| w * BITS + usize_of_u32(clear.trailing_zeros()))
        })
    }

    /// Number of set bits in `range`.
    pub(crate) fn count_ones(&self, range: Range<usize>) -> usize {
        debug_assert!(range.end <= self.len, "{range:?} past {}", self.len);
        spans(range)
            .map(|(w, mask)| usize_of_u32((self.words[w] & mask).count_ones()))
            .sum()
    }

    /// The first `want` set bits of `range` as ascending maximal runs
    /// `(first bit, length)`: a word's runs are found by `trailing_zeros`
    /// of the word and of its complement, and a run that reaches the end
    /// of a word is extended by one that starts the next. Fewer than
    /// `want` set bits yield all of them.
    pub(crate) fn runs(&self, range: Range<usize>, want: u32, mut push: impl FnMut(usize, u32)) {
        debug_assert!(range.end <= self.len, "{range:?} past {}", self.len);
        let (mut start, mut len, mut left) = (range.start, 0u32, want);
        for (w, mask) in spans(range) {
            let mut word = self.words[w] & mask;
            while word != 0 && left > 0 {
                let lo = word.trailing_zeros();
                let ones = (!(word >> lo)).trailing_zeros();
                let at = w * BITS + usize_of_u32(lo);
                let take = ones.min(left);
                if len > 0 && start + usize_of_u32(len) == at {
                    len += take;
                } else {
                    if len > 0 {
                        push(start, len);
                    }
                    (start, len) = (at, take);
                }
                left -= take;
                word &= (!0u64).checked_shl(lo + ones).unwrap_or(0);
            }
            if left == 0 {
                break;
            }
        }
        if len > 0 {
            push(start, len);
        }
    }
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

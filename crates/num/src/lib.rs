//! Checked numeric conversions for the workspace's hot paths.
//!
//! Rule **N1** (`#![deny(clippy::as_conversions)]`) forbids raw `as` casts in
//! the solver/engine hot files: a silent truncation or a float rounding of
//! a large integer is exactly the kind of bug that corrupts a simulation
//! without failing a test. Hot files route every conversion through these
//! helpers instead.
//!
//! Each helper compiles to the same single `as` instruction as the raw
//! cast — results are bit-identical — but carries a `debug_assert!` that
//! traps the lossy case under the hardened CI profile
//! (`-C debug-assertions=on`). Helpers that can never lose information
//! (widening conversions) carry no assertion and exist so the hot files
//! contain no `as` token at all.

#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![cfg_attr(not(test), deny(clippy::panic, clippy::unreachable))]

/// Largest integer magnitude an `f64` represents exactly (2^53).
pub const F64_EXACT_MAX: u64 = 1 << 53;

/// `u64` → `f64`, exact for values up to 2^53 (every virtual-time second,
/// byte count and node count in the simulator is far below that).
#[inline]
pub fn f64_of_u64(x: u64) -> f64 {
    debug_assert!(x <= F64_EXACT_MAX, "u64 {x} not exactly representable");
    x as f64
}

/// `usize` → `f64`, exact for values up to 2^53.
#[inline]
pub fn f64_of_usize(x: usize) -> f64 {
    debug_assert!(
        x as u64 <= F64_EXACT_MAX,
        "usize {x} not exactly representable"
    );
    x as f64
}

/// `f64` → `u64` for a non-negative integral value (e.g. the result of
/// `round()`); traps on negatives, NaN, fractions and overflow in debug.
#[inline]
pub fn u64_of_f64(x: f64) -> u64 {
    debug_assert!(
        x >= 0.0 && x.fract() == 0.0 && x <= F64_EXACT_MAX as f64,
        "f64 {x} is not a representable non-negative integer"
    );
    x as u64
}

/// `f64` → `u64` for a non-negative integral value that may lie past 2^53,
/// where every `f64` is an integer and the cast is still exact, saturating
/// at `u64::MAX`; traps on negatives, NaN and fractions in debug. For a
/// derived quantity whose caller refuses what lands past 2^53 later.
#[inline]
pub fn u64_of_f64_saturating(x: f64) -> u64 {
    debug_assert!(
        x >= 0.0 && x.fract() == 0.0,
        "f64 {x} is not a non-negative integer"
    );
    x as u64
}

/// `usize` → `u32`; traps on truncation in debug.
#[inline]
pub fn u32_of_usize(x: usize) -> u32 {
    debug_assert!(u32::try_from(x).is_ok(), "usize {x} truncated to u32");
    x as u32
}

/// `u32` → `usize`. Lossless on every supported target (usize ≥ 32 bits).
#[inline]
pub fn usize_of_u32(x: u32) -> usize {
    x as usize
}

/// `u64` → `usize`; traps on truncation (32-bit targets) in debug.
#[inline]
pub fn usize_of_u64(x: u64) -> usize {
    debug_assert!(usize::try_from(x).is_ok(), "u64 {x} truncated to usize");
    x as usize
}

/// `usize` → `u64`. Lossless on every supported target.
#[inline]
pub fn u64_of_usize(x: usize) -> u64 {
    x as u64
}

/// `usize` → `i64`; traps when the top bit would flip the sign in debug.
#[inline]
pub fn i64_of_usize(x: usize) -> i64 {
    debug_assert!(i64::try_from(x).is_ok(), "usize {x} overflows i64");
    x as i64
}

/// `u32` → `i32`; traps when the top bit would flip the sign in debug.
#[inline]
pub fn i32_of_u32(x: u32) -> i32 {
    debug_assert!(i32::try_from(x).is_ok(), "u32 {x} overflows i32");
    x as i32
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn widening_is_exact() {
        assert_eq!(f64_of_u64(0), 0.0);
        assert_eq!(f64_of_u64(F64_EXACT_MAX), 9007199254740992.0);
        assert_eq!(f64_of_usize(123), 123.0);
        assert_eq!(usize_of_u32(u32::MAX), 4294967295);
        assert_eq!(u64_of_usize(7), 7);
    }

    #[test]
    fn narrowing_round_trips_in_range() {
        assert_eq!(u64_of_f64(42.0), 42);
        assert_eq!(u64_of_f64_saturating(2f64.powi(55)), 1 << 55);
        assert_eq!(u64_of_f64_saturating(2f64.powi(70)), u64::MAX);
        assert_eq!(u32_of_usize(65536), 65536);
        assert_eq!(usize_of_u64(1 << 20), 1 << 20);
        assert_eq!(i64_of_usize(9), 9);
        assert_eq!(i32_of_u32(13), 13);
    }

    #[test]
    #[should_panic(expected = "truncated")]
    #[cfg(debug_assertions)]
    fn narrowing_traps_in_debug() {
        let _ = u32_of_usize(usize::MAX);
    }
}

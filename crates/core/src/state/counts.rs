//! Counted work of the state's upkeep (`cfg(test)`): the tallies that pin
//! what an allocation, a release or a flush costs, read by the tests
//! through [`ClusterState::tally`] and [`RATIO_EVALS`].

use super::ClusterState;
use std::cell::Cell;

/// What the state's upkeep has done since it was made.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct StateCounts {
    /// `(word, mask)` entries of the placements allocated and released
    /// (a release with draining nodes, which frees node by node, aside).
    pub(crate) word_entries: usize,
    /// Free-bit words those allocations and releases wrote.
    pub(crate) words_written: usize,
    /// Runs of leaves flushed while the ratio order is built.
    pub(crate) ratio_runs: usize,
}

impl StateCounts {
    /// Count `entries` placement entries read, `written` free-bit words
    /// written and `runs` ratio-order runs flushed.
    pub(super) fn add(&mut self, entries: usize, written: usize, runs: usize) {
        self.word_entries += entries;
        self.words_written += written;
        self.ratio_runs += runs;
    }
}

thread_local! {
    /// Eq. 1 evaluations on this thread.
    pub(crate) static RATIO_EVALS: Cell<usize> = const { Cell::new(0) };
}

/// Count one Eq. 1 evaluation on this thread.
pub(super) fn ratio_eval() {
    RATIO_EVALS.with(|n| n.set(n.get() + 1));
}

impl ClusterState {
    /// The work counted since this state was made.
    pub(crate) fn tally(&self) -> StateCounts {
        self.tally
    }
}

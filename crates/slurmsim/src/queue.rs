//! The pending queue: FIFO slots under a (width, walltime) tournament tree.
//!
//! Invariants: the live slots, read left to right, are the queue in FIFO
//! order; leaf `cap + s` holds the width (node request) and requested
//! walltime of the job in slot `s`, or [`EMPTY`] and `u64::MAX` once it was
//! removed or before it is filled; every inner node holds the least width
//! and the least walltime of its two children. So "leftmost entry at or
//! after a slot that EASY may backfill now" is a climb and a descent,
//! O(log n) but for the dead ends below, where the `Vec` queue this
//! replaces scanned every entry and a width-only tree visited every entry
//! that fit the free nodes.
//!
//! The two minima of a node may come from different jobs, so a subtree
//! whose minima pass the backfill test can hold no job that does. The
//! descent then dead-ends and the search climbs on from there. The root's
//! minima are the whole queue's, so a lookup they fail ends there, before
//! any climb.
//!
//! The queue also keeps its head, the first live slot: a removal of the
//! head slot moves it on to the next live one and a repack resets it, so
//! the head lookup every scheduling pass opens with starts at a live slot
//! instead of climbing over the dead ones in front of it.
//!
//! Slots are handed out left to right and never reused. When the tail
//! reaches capacity the live entries are repacked to the front, into a
//! doubled tree if more than half the slots are live, so memory follows the
//! peak queue length. Slot numbers are therefore stable between pushes —
//! all a scheduling pass needs, since a pass only removes.
#![deny(clippy::as_conversions)]

/// Width of a slot that holds no job; no request is this wide.
const EMPTY: usize = usize::MAX;
/// A width bound every live slot meets: plain in-order iteration.
const ANY: usize = EMPTY - 1;

#[derive(Debug, Default)]
pub(crate) struct PendingQueue {
    /// Log index of the job in each slot; `jobs.len()` is the capacity, a
    /// power of two (or zero before the first push).
    jobs: Vec<usize>,
    /// The tournament: root at 1, leaves at `cap..2 * cap`. Least widths
    /// and least walltimes are two arrays, not one of pairs, so that
    /// `first` and `after` — the conservative pass's walk — read only the
    /// widths.
    widths: Vec<usize>,
    walltimes: Vec<u64>,
    /// Next slot `push_back` fills.
    tail: usize,
    /// The first live slot, or `tail` when the queue is empty.
    head: usize,
    /// Tree nodes the lookups have tested (`cfg(test)`).
    #[cfg(test)]
    visits: std::sync::atomic::AtomicU64,
}

/// The test a lookup applies to a node's minima: width at most `narrow`,
/// or width at most `wide` with walltime at most `window`.
#[derive(Clone, Copy)]
struct Fit {
    narrow: usize,
    wide: usize,
    window: u64,
}

/// The fit every live slot passes: plain in-order iteration.
const LIVE: Fit = Fit {
    narrow: ANY,
    wide: ANY,
    window: 0,
};

impl PendingQueue {
    /// Append `job`, which requests `nodes` nodes for `walltime` seconds, at
    /// the back of the queue.
    pub(crate) fn push_back(&mut self, job: usize, nodes: usize, walltime: u64) {
        debug_assert!(nodes < EMPTY);
        if self.tail == self.jobs.len() {
            self.repack(None);
        }
        self.jobs[self.tail] = job;
        self.set_leaf(self.tail, nodes, walltime);
        self.tail += 1;
    }

    /// Put `job` ahead of every queued job. Repacks the whole queue: only
    /// the `RequeueFront` fault path calls this.
    pub(crate) fn push_front(&mut self, job: usize, nodes: usize, walltime: u64) {
        debug_assert!(nodes < EMPTY);
        self.repack(Some((job, nodes, walltime)));
    }

    /// Remove the job in `slot`; a dead or unused slot is left alone.
    pub(crate) fn remove(&mut self, slot: usize) {
        let live = slot < self.tail && self.widths[self.jobs.len() + slot] != EMPTY;
        debug_assert!(live, "removing slot {slot}, which holds no job");
        if live {
            self.set_leaf(slot, EMPTY, u64::MAX);
            if slot == self.head {
                self.head = self.after(slot).map_or(self.tail, |(next, _)| next);
            }
        }
    }

    /// The queue head as `(slot, job)`.
    pub(crate) fn first(&self) -> Option<(usize, usize)> {
        debug_assert!(
            self.head == self.tail || self.widths[self.jobs.len() + self.head] != EMPTY,
            "head slot {} holds no job",
            self.head
        );
        self.seek(self.head, LIVE)
    }

    /// The queued job following `slot` in FIFO order.
    pub(crate) fn after(&self, slot: usize) -> Option<(usize, usize)> {
        self.seek(slot.saturating_add(1), LIVE)
    }

    /// The queue in FIFO order as `(slot, job)` pairs.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        std::iter::successors(self.first(), |&(slot, _)| self.after(slot))
    }

    /// Leftmost live slot at or after `from` whose job may be backfilled,
    /// as `(slot, job)`: it requests at most `min(spare, free)` nodes, or at
    /// most `free` nodes for at most `window` seconds. `window: None` admits
    /// no walltime, not even zero.
    pub(crate) fn next_fit(
        &self,
        from: usize,
        free: usize,
        spare: usize,
        window: Option<u64>,
    ) -> Option<(usize, usize)> {
        debug_assert!(free <= ANY);
        let narrow = spare.min(free);
        // Without a window the walltime arm admits nothing the width arm
        // does not.
        let (wide, window) = window.map_or((narrow, 0), |w| (free, w));
        let fit = Fit {
            narrow,
            wide,
            window,
        };
        // The root's minima are the queue's: if they fail, so does every
        // slot.
        if from >= self.tail || !self.pass(1, fit) {
            return None;
        }
        self.seek(from, fit)
    }

    /// Does inner node or leaf `i` pass `fit`? Counted in the `cfg(test)`
    /// visit tally.
    #[inline]
    fn pass(&self, i: usize, fit: Fit) -> bool {
        #[cfg(test)]
        self.visits
            .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let width = self.widths[i];
        width <= fit.narrow || (width <= fit.wide && self.walltimes[i] <= fit.window)
    }

    /// Leftmost live slot at or after `from` that passes `fit`: a climb and
    /// a descent.
    fn seek(&self, from: usize, fit: Fit) -> Option<(usize, usize)> {
        if from >= self.tail {
            return None;
        }
        let pass = |i: usize| self.pass(i, fit);
        let cap = self.jobs.len();
        let mut i = cap + from;
        'climb: loop {
            // Climb to the nearest subtree at or to the right of `i` whose
            // minima pass: a right child's parent ends where the child does,
            // and a left child's sibling covers exactly the slots after it.
            while !pass(i) {
                while i & 1 == 1 {
                    if i == 1 {
                        return None;
                    }
                    i >>= 1;
                }
                i += 1;
            }
            // Descend to its leftmost passing leaf. Where neither child
            // passes, every slot left of the failing right child and in it
            // is ruled out: climb on from there.
            while i < cap {
                i *= 2;
                if !pass(i) {
                    i += 1;
                    if !pass(i) {
                        continue 'climb;
                    }
                }
            }
            return Some((i - cap, self.jobs[i - cap]));
        }
    }

    fn set_leaf(&mut self, slot: usize, width: usize, walltime: u64) {
        let mut i = self.jobs.len() + slot;
        self.widths[i] = width;
        self.walltimes[i] = walltime;
        while i > 1 {
            i >>= 1;
            self.pull_up(i);
        }
    }

    /// Refresh inner node `i` from its two children.
    fn pull_up(&mut self, i: usize) {
        self.widths[i] = self.widths[2 * i].min(self.widths[2 * i + 1]);
        self.walltimes[i] = self.walltimes[2 * i].min(self.walltimes[2 * i + 1]);
    }

    /// Move the live entries (behind `front`, if any) to slots `0..n` of a
    /// tree with at least `n` further slots free, growing only if needed.
    fn repack(&mut self, front: Option<(usize, usize, u64)>) {
        let old_cap = self.jobs.len();
        let mut live: Vec<(usize, usize, u64)> = Vec::from_iter(front);
        for (slot, job) in self.iter() {
            let leaf = old_cap + slot;
            live.push((job, self.widths[leaf], self.walltimes[leaf]));
        }
        let cap = (2 * live.len()).next_power_of_two().max(old_cap);
        self.jobs.clear();
        self.jobs.resize(cap, 0);
        self.widths.clear();
        self.widths.resize(2 * cap, EMPTY);
        self.walltimes.clear();
        self.walltimes.resize(2 * cap, u64::MAX);
        for (slot, &(job, width, walltime)) in live.iter().enumerate() {
            self.jobs[slot] = job;
            self.widths[cap + slot] = width;
            self.walltimes[cap + slot] = walltime;
        }
        for i in (1..cap).rev() {
            self.pull_up(i);
        }
        self.tail = live.len();
        self.head = 0;
    }

    /// Tree nodes the lookups have tested so far.
    #[cfg(test)]
    pub(crate) fn visits(&self) -> u64 {
        self.visits.load(std::sync::atomic::Ordering::Relaxed)
    }
}

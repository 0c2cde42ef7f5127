//! The pending queue: FIFO slots under a min-width tournament tree.
//!
//! Invariants: the live slots, read left to right, are the queue in FIFO
//! order; leaf `tree[cap + s]` holds the width (node request) of the job in
//! slot `s`, or [`EMPTY`] once it was removed or before it is filled; every
//! inner node is the minimum of its two children. So "leftmost entry at or
//! after a slot that needs at most `free` nodes" is one climb and one
//! descent, O(log n), where the `Vec` queue this replaces scanned every
//! entry.
//!
//! Slots are handed out left to right and never reused. When the tail
//! reaches capacity the live entries are repacked to the front, into a
//! doubled tree if more than half the slots are live, so memory follows the
//! peak queue length. Slot numbers are therefore stable between pushes —
//! all a scheduling pass needs, since a pass only removes.
#![deny(clippy::as_conversions)]

/// Leaf value of a slot that holds no job; no request is this wide.
const EMPTY: usize = usize::MAX;
/// A `free` bound every live slot meets: plain in-order iteration.
const ANY: usize = EMPTY - 1;

#[derive(Debug, Default)]
pub(crate) struct PendingQueue {
    /// Log index of the job in each slot; `jobs.len()` is the capacity, a
    /// power of two (or zero before the first push).
    jobs: Vec<usize>,
    /// The tournament: root at 1, leaves at `cap..2 * cap`.
    tree: Vec<usize>,
    /// Next slot `push_back` fills.
    tail: usize,
    /// Times `repack` ran.
    repacks: u64,
}

impl PendingQueue {
    /// Append `job`, which requests `nodes` nodes, at the back of the queue.
    pub(crate) fn push_back(&mut self, job: usize, nodes: usize) {
        debug_assert!(nodes < EMPTY);
        if self.tail == self.jobs.len() {
            self.repack(None);
        }
        self.jobs[self.tail] = job;
        self.set_leaf(self.tail, nodes);
        self.tail += 1;
    }

    /// Put `job` ahead of every queued job. Repacks the whole queue: only
    /// the `RequeueFront` fault path calls this.
    pub(crate) fn push_front(&mut self, job: usize, nodes: usize) {
        debug_assert!(nodes < EMPTY);
        self.repack(Some((job, nodes)));
    }

    /// Remove the job in `slot`; a dead or unused slot is left alone.
    pub(crate) fn remove(&mut self, slot: usize) {
        let live = slot < self.tail && self.tree[self.jobs.len() + slot] != EMPTY;
        debug_assert!(live, "removing slot {slot}, which holds no job");
        if live {
            self.set_leaf(slot, EMPTY);
        }
    }

    /// The queue head as `(slot, job)`.
    pub(crate) fn first(&self) -> Option<(usize, usize)> {
        self.next_fit(0, ANY)
    }

    /// The queued job following `slot` in FIFO order.
    pub(crate) fn after(&self, slot: usize) -> Option<(usize, usize)> {
        self.next_fit(slot.saturating_add(1), ANY)
    }

    /// How many times the queue has repacked; a slot number read before
    /// stays the same job's while this count does not move.
    pub(crate) fn repacks(&self) -> u64 {
        self.repacks
    }

    /// The queue in FIFO order as `(slot, job)` pairs.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        std::iter::successors(self.first(), |&(slot, _)| self.after(slot))
    }

    /// Leftmost live slot at or after `from` whose job requests at most
    /// `free` nodes, as `(slot, job)`.
    pub(crate) fn next_fit(&self, from: usize, free: usize) -> Option<(usize, usize)> {
        if from >= self.tail {
            return None;
        }
        let cap = self.jobs.len();
        let mut i = cap + from;
        // Climb to the nearest subtree at or to the right of `from` that
        // holds a fit: a right child's parent ends where the child does,
        // and a left child's sibling covers exactly the slots after it.
        while self.tree[i] > free {
            while i & 1 == 1 {
                if i == 1 {
                    return None;
                }
                i >>= 1;
            }
            i += 1;
        }
        // Descend to its leftmost fitting leaf.
        while i < cap {
            i *= 2;
            if self.tree[i] > free {
                i += 1;
            }
        }
        Some((i - cap, self.jobs[i - cap]))
    }

    fn set_leaf(&mut self, slot: usize, value: usize) {
        let mut i = self.jobs.len() + slot;
        self.tree[i] = value;
        while i > 1 {
            i >>= 1;
            self.tree[i] = self.tree[2 * i].min(self.tree[2 * i + 1]);
        }
    }

    /// Move the live entries (behind `front`, if any) to slots `0..n` of a
    /// tree with at least `n` further slots free, growing only if needed.
    fn repack(&mut self, front: Option<(usize, usize)>) {
        let old_cap = self.jobs.len();
        let mut live: Vec<(usize, usize)> = Vec::from_iter(front);
        for (slot, job) in self.iter() {
            live.push((job, self.tree[old_cap + slot]));
        }
        let cap = (2 * live.len()).next_power_of_two().max(old_cap);
        self.jobs.clear();
        self.jobs.resize(cap, 0);
        self.tree.clear();
        self.tree.resize(2 * cap, EMPTY);
        for (slot, &(job, nodes)) in live.iter().enumerate() {
            self.jobs[slot] = job;
            self.tree[cap + slot] = nodes;
        }
        for i in (1..cap).rev() {
            self.tree[i] = self.tree[2 * i].min(self.tree[2 * i + 1]);
        }
        self.tail = live.len();
        self.repacks += 1;
    }
}

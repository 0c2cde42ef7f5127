//! Cluster occupancy state: which nodes are busy, and the per-leaf counters
//! (`L_nodes`, `L_busy`, `L_comm`) that drive the paper's Eqs. 1–3.
#![deny(clippy::as_conversions)]

use crate::index::{ratio_key, FillOrder, FreeIndex};
use crate::placement::Placement;
use commsched_num::{f64_of_usize, u32_of_usize, usize_of_u32};
use commsched_topology::{NodeId, SwitchId, Tree};
use serde::Serialize;
use std::collections::BTreeMap;
use std::fmt;

pub(crate) mod bits;
#[cfg(test)]
mod counts;
#[cfg(test)]
mod reference;

#[cfg(test)]
pub(crate) use bits::FreeBits;
#[cfg(test)]
pub(crate) use counts::RATIO_EVALS;
#[cfg(test)]
pub(crate) use reference::Reference;

/// Make `v` exactly `n` copies of `value`, in its own buffer.
fn refill<T: Clone>(v: &mut Vec<T>, n: usize, value: T) {
    v.clear();
    v.resize(n, value);
}

/// Scheduler-wide job identifier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Default)]
pub struct JobId(pub u64);

impl fmt::Display for JobId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "job{}", self.0)
    }
}

/// The paper's binary job classification (§4): supplied by the user or
/// deduced from MPI profiles.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize)]
pub enum JobNature {
    /// Dominated by MPI communication; benefits from contention avoidance.
    CommIntensive,
    /// Dominated by computation; insensitive to placement.
    ComputeIntensive,
}

impl JobNature {
    /// True for [`JobNature::CommIntensive`].
    #[inline]
    pub fn is_comm(self) -> bool {
        matches!(self, JobNature::CommIntensive)
    }
}

/// A recorded allocation: the nodes a job occupies and its nature.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Allocation {
    /// Nodes held by the job, exactly as they were allocated.
    pub nodes: Placement,
    /// Job classification at allocation time.
    pub nature: JobNature,
}

/// Errors from state mutation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StateError {
    /// Tried to allocate a node that is already busy.
    NodeBusy(NodeId),
    /// A node named more than once in one placement.
    DuplicateNode(NodeId),
    /// Tried to allocate under a job id that already holds nodes.
    JobExists(JobId),
    /// Tried to release a job with no recorded allocation.
    UnknownJob(JobId),
    /// Empty allocation.
    EmptyAllocation(JobId),
    /// Tried to allocate or drain a node that is down.
    NodeDown(NodeId),
    /// Tried to recover a node that is not down (or draining).
    NodeNotDown(NodeId),
    /// Tried to down a switch that is already down.
    SwitchDown(SwitchId),
    /// Tried to bring up a switch that is not down.
    SwitchNotDown(SwitchId),
    /// Tried to down a switch while a job still holds a descendant node —
    /// the caller must kill or release the job first.
    SwitchBusy {
        /// The switch being downed.
        switch: SwitchId,
        /// The first busy descendant node found.
        node: NodeId,
    },
}

impl fmt::Display for StateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::NodeBusy(n) => write!(f, "{n} is already allocated"),
            Self::DuplicateNode(n) => write!(f, "{n} is named more than once"),
            Self::JobExists(j) => write!(f, "{j} already holds an allocation"),
            Self::UnknownJob(j) => write!(f, "{j} has no allocation"),
            Self::EmptyAllocation(j) => write!(f, "refusing empty allocation for {j}"),
            Self::NodeDown(n) => write!(f, "{n} is down"),
            Self::NodeNotDown(n) => write!(f, "{n} is not down"),
            Self::SwitchDown(s) => write!(f, "{s} is already down"),
            Self::SwitchNotDown(s) => write!(f, "{s} is not down"),
            Self::SwitchBusy { switch, node } => {
                write!(f, "{switch} still has busy descendant {node}")
            }
        }
    }
}

impl std::error::Error for StateError {}

/// Lifecycle of a node under the fault model: healthy, scheduled to go
/// down once its current job releases it, or failed.
///
/// Only `Up` nodes can ever be free; `Down` and `Draining` nodes are
/// excluded from every free counter the selectors read (the per-switch
/// counters behind the index, [`ClusterState::leaf_free`],
/// [`ClusterState::free_total`]), so placement transparently avoids them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum NodeHealth {
    /// Healthy; schedulable.
    #[default]
    Up,
    /// Busy with a job; will transition to `Down` when the job releases.
    Draining,
    /// Failed; invisible to selectors until recovered.
    Down,
}

/// What a node counts as in the per-leaf counters: free, held by a job
/// (`L_busy`, and `L_comm` too when the job is communication-intensive),
/// or out of service.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Class {
    Free,
    Busy { comm: bool },
    Down,
}

/// What one mutation has moved but not yet re-keyed in the index: `run`,
/// the pending run of sibling leaves ([`ClusterState::flush`]), and
/// `switches[level - 2]`, the ancestor at that level the mutation moved
/// last with the count its level-set entry is keyed by. An ancestor chain
/// has one switch per level, so a switch is re-keyed once, to its current
/// count, when a walk under another switch of its level displaces it or
/// when the mutation ends ([`ClusterState::catch_up`]). Takes ascend by
/// ordinal and every switch's leaves are one ordinal range, so each
/// ancestor moves once per placement.
#[derive(Default)]
struct Lag {
    run: Option<LeafRun>,
    switches: Vec<Option<(SwitchId, u32)>>,
}

impl Lag {
    /// Record that `s`, at `level` ≥ 2, is about to move from `free`; the
    /// switch it displaces from that level's slot, if any, is returned for
    /// re-keying.
    fn note(&mut self, level: u32, s: SwitchId, free: u32) -> Option<(SwitchId, u32)> {
        let slot = usize_of_u32(level) - 2;
        if slot >= self.switches.len() {
            self.switches.resize(slot + 1, None);
        }
        match self.switches[slot] {
            Some((held, _)) if held == s => None,
            prev => {
                self.switches[slot] = Some((s, free));
                prev
            }
        }
    }
}

/// Leaves `first..first + len`, consecutive children of `parent` of
/// `size` nodes each, whose `(free, busy, comm)` counters each went from
/// `before` to `after`; their index keys and their ancestors' counts have
/// not moved yet. A single take is a run of one.
struct LeafRun {
    first: usize,
    len: u32,
    before: [u32; 3],
    after: [u32; 3],
    parent: Option<SwitchId>,
    size: usize,
}

/// Mutable occupancy state over an immutable [`Tree`].
///
/// Keeps packed per-node free bits, the per-leaf counters the paper's
/// formulas read, and one incremental free counter per switch that keys
/// the free-count index (see `crate::index`), so switch selection never
/// recounts a subtree. Leaf `k` is switch `k` and the root is the last
/// switch, so that one table also holds each leaf's free count and the
/// machine's. What-if evaluation never touches the state:
/// [`crate::PlacementEvaluator`] overlays the candidate on the counters it
/// reads.
#[derive(Debug, Clone, Default)]
pub struct ClusterState {
    /// Per-node: is the node free? One bit per node, 64 to a word.
    node_free: bits::FreeBits,
    /// Per-leaf-ordinal: busy node count (the paper's `L_busy`).
    leaf_busy: Vec<u32>,
    /// Per-leaf-ordinal: nodes running communication-intensive jobs
    /// (the paper's `L_comm`).
    leaf_comm: Vec<u32>,
    /// Per-switch: free nodes in the whole subtree — a leaf's own on the
    /// take, its ancestors' by walking the chain once per run of leaves.
    switch_free: Vec<u32>,
    /// Lifecycle state (fault model) of each node that is not `Up`, by
    /// node id: a node the map does not hold is `Up`, and it never holds
    /// `Up`, so a healthy machine's map is empty whatever its size.
    node_health: BTreeMap<usize, NodeHealth>,
    /// Per-leaf-ordinal: nodes that are down (neither free nor busy).
    leaf_down: Vec<u32>,
    /// Total down nodes (intrinsically failed *or* masked by a down
    /// switch; see `leaf_mask`).
    down_total: usize,
    /// Total draining nodes (busy, will go down on release).
    draining_total: usize,
    /// Per-switch: is the switch itself failed? A down switch transitively
    /// excludes every descendant node from the free counters.
    switch_down: Vec<bool>,
    /// Per-leaf-ordinal: number of down switches on the leaf's ancestor
    /// chain (itself included) — every node of a leaf shares that chain.
    /// While positive the leaf's nodes are effectively down (counted in
    /// `leaf_down` and `down_total`) regardless of their intrinsic
    /// `node_health`, which is preserved so recoveries compose in either
    /// order.
    leaf_mask: Vec<u32>,
    /// Ordered so that iteration (`allocations`, invariant sweeps) is
    /// deterministic regardless of insertion history.
    allocs: BTreeMap<JobId, Allocation>,
    /// Hierarchical free-count index over the counters above (see
    /// [`crate::index`]). Derived data: excluded from `PartialEq`.
    index: FreeIndex,
    /// Counted work (`state/counts.rs`), excluded from `PartialEq`.
    #[cfg(test)]
    tally: counts::StateCounts,
}

/// Occupancy equality compares the node bits, counters and allocations and
/// skips the free-count index, which is derived from them.
impl PartialEq for ClusterState {
    fn eq(&self, other: &Self) -> bool {
        self.node_free == other.node_free
            && self.leaf_busy == other.leaf_busy
            && self.leaf_comm == other.leaf_comm
            && self.switch_free == other.switch_free
            && self.node_health == other.node_health
            && self.leaf_down == other.leaf_down
            && self.down_total == other.down_total
            && self.draining_total == other.draining_total
            && self.switch_down == other.switch_down
            && self.leaf_mask == other.leaf_mask
            && self.allocs == other.allocs
    }
}

impl ClusterState {
    /// A fully-free cluster over `tree`: the empty state after one
    /// [`reset`](Self::reset).
    pub fn new(tree: &Tree) -> Self {
        let mut state = ClusterState::default();
        state.reset(tree);
        state
    }

    /// Make this state a fully-free cluster over `tree` — the one
    /// initialiser — reusing the existing buffers. Every counter is
    /// rewritten, so nothing of the previous occupancy survives.
    pub fn reset(&mut self, tree: &Tree) {
        let nodes = tree.num_nodes();
        let leaves = tree.num_leaves();
        self.node_free.reset(nodes, true);
        refill(&mut self.leaf_busy, leaves, 0);
        refill(&mut self.leaf_comm, leaves, 0);
        // Sizes from `leaf_first`, not from each leaf's `Switch`.
        self.switch_free.clear();
        let sizes = (0..leaves).map(|k| tree.leaf_size(k));
        let uppers = (leaves..tree.num_switches()).map(|s| tree.subtree_nodes(SwitchId(s)));
        self.switch_free
            .extend(sizes.chain(uppers).map(u32_of_usize));
        self.node_health.clear();
        refill(&mut self.leaf_down, leaves, 0);
        self.down_total = 0;
        self.draining_total = 0;
        refill(&mut self.switch_down, tree.num_switches(), false);
        refill(&mut self.leaf_mask, leaves, 0);
        self.allocs.clear();
        self.index.rebuild(tree, &self.switch_free);
    }

    /// Leaf `k`'s `(free, busy, comm)` counters: what its index keys are
    /// a function of, with its size.
    #[inline]
    fn counters(&self, k: usize) -> [u32; 3] {
        [self.switch_free[k], self.leaf_busy[k], self.leaf_comm[k]]
    }

    /// Read access to the free-count index for the selectors.
    #[inline]
    pub(crate) fn index(&self) -> &FreeIndex {
        &self.index
    }

    /// Free leaves under `p` in the greedy (Eq. 1) fill order: the index's
    /// ratio order, built from these counters on its first read.
    #[inline]
    pub(crate) fn leaves_by_ratio(&self, tree: &Tree, p: SwitchId) -> FillOrder<'_, u64> {
        self.index.leaves_by_ratio(tree, p, &self.switch_free, |k| {
            self.communication_ratio(tree, k)
        })
    }

    /// Total free nodes in the cluster: the root's count, the last switch's
    /// (0 for the default state, which has no switches).
    #[inline]
    pub fn free_total(&self) -> usize {
        self.switch_free
            .last()
            .map_or(0, |&free| usize_of_u32(free))
    }

    /// Total busy nodes in the cluster (held by jobs; excludes down nodes).
    #[inline]
    pub fn busy_total(&self) -> usize {
        self.node_free.len() - self.free_total() - self.down_total
    }

    /// Total down nodes in the cluster.
    #[cfg(test)]
    pub(crate) fn down_total(&self) -> usize {
        self.down_total
    }

    /// Total draining nodes in the cluster (busy, will go down on release).
    #[cfg(test)]
    pub(crate) fn draining_total(&self) -> usize {
        self.draining_total
    }

    /// Is this node free?
    #[cfg(test)]
    pub(crate) fn is_free(&self, n: NodeId) -> bool {
        self.node_free.get(n.0)
    }

    /// Lifecycle state of node `n`.
    #[inline]
    pub fn health(&self, n: NodeId) -> NodeHealth {
        debug_assert!(n.0 < self.node_free.len(), "{n} is not a node");
        self.node_health.get(&n.0).copied().unwrap_or_default()
    }

    /// Record node `n`'s lifecycle state: `Up` is its absence from the map.
    fn set_health(&mut self, n: NodeId, health: NodeHealth) {
        if health == NodeHealth::Up {
            self.node_health.remove(&n.0);
        } else {
            self.node_health.insert(n.0, health);
        }
    }

    /// Down nodes on leaf ordinal `k` (intrinsic failures plus nodes
    /// masked by a down ancestor switch).
    #[cfg(test)]
    pub(crate) fn leaf_down(&self, k: usize) -> u32 {
        self.leaf_down[k]
    }

    /// Is switch `s` itself down?
    #[inline]
    pub fn switch_is_down(&self, s: SwitchId) -> bool {
        self.switch_down[s.0]
    }

    /// Is node `n` masked out by at least one down ancestor switch?
    #[inline]
    fn is_masked(&self, tree: &Tree, n: NodeId) -> bool {
        self.leaf_mask[tree.leaf_ordinal_of(n)] > 0
    }

    /// The node's *effective* lifecycle state: `Down` while any ancestor
    /// switch is down, otherwise its intrinsic [`ClusterState::health`].
    #[cfg(test)]
    pub(crate) fn effective_health(&self, tree: &Tree, n: NodeId) -> NodeHealth {
        if self.is_masked(tree, n) {
            NodeHealth::Down
        } else {
            self.health(n)
        }
    }

    /// The job holding node `n`, if any. O(allocations); at most one job
    /// can hold a node, so the answer is unique and deterministic.
    pub fn job_on(&self, n: NodeId) -> Option<JobId> {
        self.allocs
            .iter()
            .find(|(_, a)| a.nodes.contains(n))
            .map(|(j, _)| *j)
    }

    /// Free nodes on leaf ordinal `k` (the complement of `L_busy`): leaf
    /// switch `k`'s subtree count.
    #[inline]
    pub fn leaf_free(&self, k: usize) -> u32 {
        self.switch_free[k]
    }

    /// The paper's `L_busy` for leaf ordinal `k`.
    #[inline]
    pub fn leaf_busy(&self, k: usize) -> u32 {
        self.leaf_busy[k]
    }

    /// The paper's `L_comm` for leaf ordinal `k`.
    #[inline]
    pub fn leaf_comm(&self, k: usize) -> u32 {
        self.leaf_comm[k]
    }

    /// Iterate over all current allocations.
    pub fn allocations(&self) -> impl Iterator<Item = (JobId, &Allocation)> {
        self.allocs.iter().map(|(j, a)| (*j, a))
    }

    /// Eq. 1 — the *communication ratio* of leaf ordinal `k`:
    /// `L_comm / L_busy + L_busy / L_nodes`.
    ///
    /// An idle leaf (`L_busy == 0`) has ratio 0: no contention, everything
    /// free — the most attractive leaf for a communication-intensive job.
    pub fn communication_ratio(&self, tree: &Tree, k: usize) -> f64 {
        ratio_value(
            self.leaf_busy[k],
            self.leaf_comm[k],
            f64_of_usize(tree.leaf_size(k)),
        )
    }

    /// Free nodes in the subtree of `s` — O(1), read from the incremental
    /// per-switch counter.
    #[cfg(test)]
    pub(crate) fn subtree_free(&self, tree: &Tree, s: SwitchId) -> usize {
        let _ = tree; // counters are maintained against the same tree
        usize_of_u32(self.switch_free[s.0])
    }

    /// The per-node free bits, read by `Placement::from_takes`.
    #[inline]
    pub(crate) fn free_bits(&self) -> &bits::FreeBits {
        &self.node_free
    }

    /// Move `count` nodes of leaf ordinal `k` from one occupancy class to
    /// another across every counter: the leaf's own (its free count is
    /// leaf switch `k`'s) and the down total here, its index entries and
    /// the ancestor chain of subtree free counts when its run is flushed
    /// ([`ClusterState::flush`]). Every mutation goes through here; the
    /// per-node free bits and health are the caller's.
    fn shift(&mut self, tree: &Tree, k: usize, count: u32, from: Class, to: Class, lag: &mut Lag) {
        if count == 0 {
            return;
        }
        let before = self.counters(k);
        let n = usize_of_u32(count);
        match from {
            Class::Free => self.switch_free[k] -= count,
            Class::Busy { comm } => {
                self.leaf_busy[k] -= count;
                if comm {
                    self.leaf_comm[k] -= count;
                }
            }
            Class::Down => {
                self.leaf_down[k] -= count;
                self.down_total -= n;
            }
        }
        match to {
            Class::Free => self.switch_free[k] += count,
            Class::Busy { comm } => {
                self.leaf_busy[k] += count;
                if comm {
                    self.leaf_comm[k] += count;
                }
            }
            Class::Down => {
                self.leaf_down[k] += count;
                self.down_total += n;
            }
        }
        // The take joins the pending run if it is the next sibling of the
        // same size making the same move: one parent and one size read.
        let after = self.counters(k);
        let (parent, size) = (tree.switch(tree.leaf(k)).parent, tree.leaf_size(k));
        if let Some(run) = &mut lag.run {
            if run.first + usize_of_u32(run.len) == k
                && (run.before, run.after) == (before, after)
                && (run.parent, run.size) == (parent, size)
            {
                run.len += 1;
                return;
            }
        }
        self.flush(tree, lag);
        lag.run = Some(LeafRun {
            first: k,
            len: 1,
            before,
            after,
            parent,
            size,
        });
    }

    /// Re-key the pending run's leaves in the index, one range per set,
    /// and walk its summed free-count move up the ancestor chain once,
    /// leaving each ancestor's re-key to `lag`.
    fn flush(&mut self, tree: &Tree, lag: &mut Lag) {
        let Some(run) = lag.run.take() else {
            return;
        };
        // The order holds the run's old ratio key: only the new one is due.
        let [_, busy, comm] = run.after;
        let new_rkey = || ratio_key(ratio_value(busy, comm, f64_of_usize(run.size)));
        let rkey = self.index.ratio_built().then(new_rkey);
        #[cfg(test)]
        self.tally.add(0, 0, usize::from(rkey.is_some()));
        let leaves = (u32_of_usize(run.first), run.len);
        let (old, new) = (run.before[0], run.after[0]);
        self.index.apply_leaves(leaves, (old, new), rkey);
        let moved = old.abs_diff(new) * run.len;
        if moved == 0 {
            return;
        }
        let mut s = run.parent;
        while let Some(id) = s {
            let sw = tree.switch(id);
            if let Some((displaced, keyed)) = lag.note(sw.level, id, self.switch_free[id.0]) {
                self.rekey_switch(tree, displaced, keyed);
            }
            if new > old {
                self.switch_free[id.0] += moved;
            } else {
                self.switch_free[id.0] -= moved;
            }
            s = sw.parent;
        }
    }

    /// Re-key switch `s` in its level set from `keyed` to its current
    /// free count.
    fn rekey_switch(&mut self, tree: &Tree, s: SwitchId, keyed: u32) {
        self.index
            .apply_switch(tree, s, keyed, self.switch_free[s.0]);
    }

    /// Flush `lag`'s run, then re-key every switch it holds: the end of
    /// every mutation, so nothing is pending when it returns.
    fn catch_up(&mut self, tree: &Tree, mut lag: Lag) {
        self.flush(tree, &mut lag);
        for (s, keyed) in lag.switches.into_iter().flatten() {
            self.rekey_switch(tree, s, keyed);
        }
    }

    /// One [`ClusterState::shift`] with its ancestors caught up at once —
    /// a single-leaf mutation.
    fn shift_now(&mut self, tree: &Tree, k: usize, count: u32, from: Class, to: Class) {
        let mut lag = Lag::default();
        self.shift(tree, k, count, from, to, &mut lag);
        self.catch_up(tree, lag);
    }

    /// Move a whole placement between classes: one word write of the free
    /// bits per entry, one [`ClusterState::shift`] per take, one index
    /// re-key per run of sibling leaves, each ancestor re-keyed once.
    fn shift_placement(&mut self, tree: &Tree, placement: &Placement, from: Class, to: Class) {
        let free = to == Class::Free;
        for &(w, mask) in placement.words() {
            self.node_free.fill_word(w, mask, free);
        }
        #[cfg(test)]
        self.tally
            .add(placement.words().len(), placement.words().len(), 0);
        let mut lag = Lag::default();
        for &(k, count) in placement.takes() {
            self.shift(tree, k, count, from, to, &mut lag);
        }
        self.catch_up(tree, lag);
    }

    /// `Ok` when `placement`'s words ascend and every node they name is
    /// free: one AND per word, the first taken bit named.
    fn check_free(&self, tree: &Tree, placement: &Placement) -> Result<(), StateError> {
        let mut after = None;
        for &(w, mask) in placement.words() {
            let lowest = |bits: u64| NodeId(w * 64 + usize_of_u32(bits.trailing_zeros()));
            if after.is_some_and(|prev| w <= prev) {
                return Err(StateError::DuplicateNode(lowest(mask)));
            }
            after = Some(w);
            let taken = mask & !self.node_free.word(w);
            if taken != 0 {
                let n = lowest(taken);
                let down = self.health(n) == NodeHealth::Down || self.is_masked(tree, n);
                return Err(if down {
                    StateError::NodeDown(n)
                } else {
                    StateError::NodeBusy(n)
                });
            }
        }
        Ok(())
    }

    /// Record an allocation: mark `placement` busy under `job` with
    /// `nature`, keeping the placement itself (a borrowed one is cloned).
    /// Nothing changes unless every node is free and named once.
    pub fn allocate(
        &mut self,
        tree: &Tree,
        job: JobId,
        placement: impl Into<Placement>,
        nature: JobNature,
    ) -> Result<(), StateError> {
        let placement = placement.into();
        if placement.is_empty() {
            return Err(StateError::EmptyAllocation(job));
        }
        if self.allocs.contains_key(&job) {
            return Err(StateError::JobExists(job));
        }
        self.check_free(tree, &placement)?;
        debug_assert_eq!(placement.check(tree), Ok(()));
        let comm = nature.is_comm();
        self.shift_placement(tree, &placement, Class::Free, Class::Busy { comm });
        let alloc = Allocation {
            nodes: placement,
            nature,
        };
        self.allocs.insert(job, alloc);
        Ok(())
    }

    /// Release the allocation held by `job`, returning it.
    ///
    /// Nodes marked [`NodeHealth::Draining`] do not return to the free
    /// pool: they transition straight to [`NodeHealth::Down`].
    pub fn release(&mut self, tree: &Tree, job: JobId) -> Result<Allocation, StateError> {
        let alloc = self
            .allocs
            .remove(&job)
            .ok_or(StateError::UnknownJob(job))?;
        let busy = Class::Busy {
            comm: alloc.nature.is_comm(),
        };
        if self.draining_total == 0 {
            self.shift_placement(tree, &alloc.nodes, busy, Class::Free);
        } else {
            // Some node somewhere is draining: read each node's health and
            // split every take into the part that returns to the free pool
            // and the part that goes busy -> down (it was not free before
            // and is not free now, so the subtree counts skip it). Takes
            // and ids both ascend, so the next `count` ids are the take's.
            let mut ids = alloc.nodes.iter();
            let mut lag = Lag::default();
            for &(k, count) in alloc.nodes.takes() {
                let mut drained = 0;
                for n in ids.by_ref().take(usize_of_u32(count)) {
                    if self.health(n) == NodeHealth::Draining {
                        self.set_health(n, NodeHealth::Down);
                        drained += 1;
                    } else {
                        self.node_free.set(n.0, true);
                    }
                }
                self.draining_total -= usize_of_u32(drained);
                self.shift(tree, k, count - drained, busy, Class::Free, &mut lag);
                self.shift(tree, k, drained, busy, Class::Down, &mut lag);
            }
            self.catch_up(tree, lag);
        }
        Ok(alloc)
    }

    /// Take a *free* node out of service (fault-injection `Fail` on an idle
    /// node, or the second half of killing the job that held it).
    ///
    /// On a node masked by a down ancestor switch only the intrinsic
    /// health flips to `Down` (the counters already exclude it), so the
    /// node stays down when the switch later comes back up.
    ///
    /// Errors with [`StateError::NodeBusy`] if a job still holds the node —
    /// the caller must release (kill) the job first — and with
    /// [`StateError::NodeDown`] if the node is already down.
    pub fn set_down(&mut self, tree: &Tree, n: NodeId) -> Result<(), StateError> {
        match self.health(n) {
            NodeHealth::Down => return Err(StateError::NodeDown(n)),
            // A masked node is never busy or draining: record the
            // intrinsic failure without touching the counters.
            NodeHealth::Up if self.is_masked(tree, n) => {
                self.set_health(n, NodeHealth::Down);
                return Ok(());
            }
            NodeHealth::Up | NodeHealth::Draining if !self.node_free.get(n.0) => {
                return Err(StateError::NodeBusy(n));
            }
            _ => {}
        }
        self.node_free.set(n.0, false);
        self.shift_now(tree, tree.leaf_ordinal_of(n), 1, Class::Free, Class::Down);
        self.set_health(n, NodeHealth::Down);
        Ok(())
    }

    /// Return a down node to service (fault-injection `Recover`), or cancel
    /// a pending drain on a still-busy `Draining` node.
    ///
    /// Errors with [`StateError::NodeNotDown`] if the node is already up.
    pub fn set_up(&mut self, tree: &Tree, n: NodeId) -> Result<(), StateError> {
        match self.health(n) {
            NodeHealth::Up => Err(StateError::NodeNotDown(n)),
            NodeHealth::Draining => {
                self.set_health(n, NodeHealth::Up);
                self.draining_total -= 1;
                Ok(())
            }
            // Intrinsic recovery under a still-down switch: the node stays
            // effectively down (counters untouched) until the switch
            // returns to service.
            NodeHealth::Down if self.is_masked(tree, n) => {
                self.set_health(n, NodeHealth::Up);
                Ok(())
            }
            NodeHealth::Down => {
                self.node_free.set(n.0, true);
                self.shift_now(tree, tree.leaf_ordinal_of(n), 1, Class::Down, Class::Free);
                self.set_health(n, NodeHealth::Up);
                Ok(())
            }
        }
    }

    /// Fail switch `s`: every descendant node leaves the free counters
    /// (correlated failure), exactly as if each free node had gone down,
    /// while keeping the nodes' intrinsic health so
    /// [`ClusterState::set_switch_up`] can restore exactly the survivors.
    /// Masking nests: a node under two down switches needs both back up.
    ///
    /// Errors with [`StateError::SwitchDown`] if `s` is already down and
    /// with [`StateError::SwitchBusy`] while any descendant node is still
    /// held by a job — the caller must kill or release those jobs first,
    /// mirroring the node-level [`ClusterState::set_down`] contract.
    pub fn set_switch_down(&mut self, tree: &Tree, s: SwitchId) -> Result<(), StateError> {
        if self.switch_down[s.0] {
            return Err(StateError::SwitchDown(s));
        }
        // `leaf_busy` counts exactly the job-held nodes, so only the first
        // leaf that has some is scanned for the one to name (and such a
        // leaf is unmasked: a masked leaf holds no job).
        let leaves = tree.leaf_ordinals_under(s);
        if let Some(k) = leaves.clone().find(|&k| self.leaf_busy[k] > 0) {
            let mut held = tree.leaf_node_range(k);
            let down = |i| self.health(NodeId(i)) == NodeHealth::Down;
            if let Some(i) = held.find(|&i| !self.node_free.get(i) && !down(i)) {
                let node = NodeId(i);
                return Err(StateError::SwitchBusy { switch: s, node });
            }
        }
        // With no job under `s`, every free node there is a healthy one
        // of a leaf not yet masked, and all of them go: one fill over the
        // subtree's node range.
        let nodes =
            tree.leaf_node_range(leaves.start).start..tree.leaf_node_range(leaves.end - 1).end;
        self.node_free.fill(nodes, false);
        let mut lag = Lag::default();
        for k in leaves {
            self.leaf_mask[k] += 1;
            let free = self.switch_free[k];
            self.shift(tree, k, free, Class::Free, Class::Down, &mut lag);
        }
        self.catch_up(tree, lag);
        self.switch_down[s.0] = true;
        Ok(())
    }

    /// Return switch `s` to service: descendant nodes whose *only* reason
    /// for being down was this switch (intrinsically `Up`, no other down
    /// ancestor) re-enter the free counters; nodes that failed on their
    /// own stay down until their own `Recover`.
    ///
    /// Errors with [`StateError::SwitchNotDown`] if `s` is not down.
    pub fn set_switch_up(&mut self, tree: &Tree, s: SwitchId) -> Result<(), StateError> {
        if !self.switch_down[s.0] {
            return Err(StateError::SwitchNotDown(s));
        }
        let mut lag = Lag::default();
        for k in tree.leaf_ordinals_under(s) {
            self.leaf_mask[k] -= 1;
            if self.leaf_mask[k] > 0 {
                continue;
            }
            // Last mask off the leaf: its intrinsically healthy nodes
            // return. None of its nodes is free while masked, and the map
            // holds exactly the ones that stay down.
            let range = tree.leaf_node_range(k);
            let mut unmasked = u32_of_usize(range.len());
            self.node_free.fill(range.clone(), true);
            for &i in self.node_health.range(range).map(|(i, _)| i) {
                self.node_free.set(i, false);
                unmasked -= 1;
            }
            self.shift(tree, k, unmasked, Class::Down, Class::Free, &mut lag);
        }
        self.catch_up(tree, lag);
        self.switch_down[s.0] = false;
        Ok(())
    }

    /// Gracefully drain node `n`: a free node goes straight down (returns
    /// `true`); a busy node is marked [`NodeHealth::Draining`] and will go
    /// down when its job releases (returns `false`, also for a node already
    /// draining). Errors with [`StateError::NodeDown`] if already down.
    pub fn set_draining(&mut self, tree: &Tree, n: NodeId) -> Result<bool, StateError> {
        match self.health(n) {
            NodeHealth::Down => Err(StateError::NodeDown(n)),
            NodeHealth::Draining => Ok(false),
            // Effectively down already (masked, so idle): draining it is a
            // hard down — the node must not return at switch-up.
            NodeHealth::Up if self.is_masked(tree, n) => {
                self.set_health(n, NodeHealth::Down);
                Ok(true)
            }
            NodeHealth::Up if self.node_free.get(n.0) => {
                self.set_down(tree, n)?;
                Ok(true)
            }
            NodeHealth::Up => {
                self.set_health(n, NodeHealth::Draining);
                self.draining_total += 1;
                Ok(false)
            }
        }
    }

    /// `leaf_mask` from scratch: per leaf, the down switches above it.
    fn recount_leaf_mask(&self, tree: &Tree) -> Vec<u32> {
        let mut mask = vec![0u32; tree.num_leaves()];
        for (id, _) in self.switch_down.iter().enumerate().filter(|(_, &d)| d) {
            for m in &mut mask[tree.leaf_ordinals_under(SwitchId(id))] {
                *m += 1;
            }
        }
        mask
    }

    /// Invariant check: every counter agrees with a recount from the
    /// per-node bits and health, and the index with a rebuild. O(nodes);
    /// the state's tests and the churn proptests call it after every step.
    pub fn check_invariants(&self, tree: &Tree) -> Result<(), String> {
        for k in 0..tree.num_leaves() {
            let counted = u32_of_usize(self.node_free.count_ones(tree.leaf_node_range(k)));
            if counted != self.switch_free[k] {
                return Err(format!(
                    "leaf {k}: counted {counted} free, recorded {}",
                    self.switch_free[k]
                ));
            }
            if self.switch_free[k] + self.leaf_busy[k] + self.leaf_down[k]
                != u32_of_usize(tree.leaf_size(k))
            {
                return Err(format!("leaf {k}: free + busy + down != size"));
            }
            if self.leaf_comm[k] > self.leaf_busy[k] {
                return Err(format!("leaf {k}: comm > busy"));
            }
        }
        // Recount the per-leaf switch masks from the per-switch down bits,
        // then recount the down counters against *effective* health: a node
        // is down when it failed intrinsically or any ancestor switch did.
        let mask = self.recount_leaf_mask(tree);
        if mask != self.leaf_mask {
            return Err("leaf_mask disagrees with a recount from switch_down".into());
        }
        let mut down = vec![0u32; tree.num_leaves()];
        let mut down_count = 0usize;
        let mut draining_count = 0usize;
        let stray =
            |(&i, &h): (&usize, &NodeHealth)| h == NodeHealth::Up || i >= self.node_free.len();
        if let Some((i, _)) = self.node_health.iter().find(|&e| stray(e)) {
            return Err(format!("node {i}: Up or no such node in the health map"));
        }
        for i in 0..self.node_free.len() {
            let h = self.health(NodeId(i));
            let masked = mask[tree.leaf_ordinal_of(NodeId(i))] > 0;
            if masked {
                if self.node_free.get(i) {
                    return Err(format!("node {i}: masked by a down switch but marked free"));
                }
                if h == NodeHealth::Draining {
                    return Err(format!("node {i}: masked by a down switch but draining"));
                }
            }
            if masked || h == NodeHealth::Down {
                if self.node_free.get(i) {
                    return Err(format!("node {i}: down but marked free"));
                }
                down[tree.leaf_ordinal_of(NodeId(i))] += 1;
                down_count += 1;
            } else if h == NodeHealth::Draining {
                if self.node_free.get(i) {
                    return Err(format!("node {i}: draining but marked free"));
                }
                draining_count += 1;
            }
        }
        for (k, &counted) in down.iter().enumerate() {
            if counted != self.leaf_down[k] {
                return Err(format!(
                    "leaf {k}: counted {counted} down, recorded {}",
                    self.leaf_down[k]
                ));
            }
        }
        if down_count != self.down_total {
            return Err(format!(
                "down_total {} != counted {down_count}",
                self.down_total
            ));
        }
        if draining_count != self.draining_total {
            return Err(format!(
                "draining_total {} != counted {draining_count}",
                self.draining_total
            ));
        }
        for id in 0..tree.num_switches() {
            let recount: u32 = self.switch_free[tree.leaf_ordinals_under(SwitchId(id))]
                .iter()
                .sum();
            if self.switch_free[id] != recount {
                return Err(format!(
                    "switch {id}: counter {} free, recounted {recount}",
                    self.switch_free[id]
                ));
            }
            if self.switch_down[id] && self.switch_free[id] != 0 {
                return Err(format!(
                    "switch {id}: down but reports {} free descendants",
                    self.switch_free[id]
                ));
            }
        }
        let total = self.node_free.count_ones(0..self.node_free.len());
        if total != self.free_total() {
            return Err(format!(
                "free_total {} != counted {total}",
                self.free_total()
            ));
        }
        let held: usize = self.allocs.values().map(|a| a.nodes.len()).sum();
        if held != self.busy_total() {
            return Err(format!(
                "allocations hold {held} nodes but {} are busy",
                self.busy_total()
            ));
        }
        let ratio = |k| self.communication_ratio(tree, k);
        if !self.index.is_rebuild_of(tree, &self.switch_free, ratio) {
            return Err("free-count index disagrees with a from-scratch rebuild".into());
        }
        Ok(())
    }
}

/// Eq. 1 evaluated from raw counters — shared by
/// [`ClusterState::communication_ratio`] and the ratio order's upkeep so
/// the stored ratio keys are bit-identical to the live computation.
#[inline]
fn ratio_value(busy: u32, comm: u32, nodes: f64) -> f64 {
    #[cfg(test)]
    counts::ratio_eval();
    let busy_f = f64::from(busy);
    if busy == 0 {
        0.0
    } else {
        f64::from(comm) / busy_f + busy_f / nodes
    }
}

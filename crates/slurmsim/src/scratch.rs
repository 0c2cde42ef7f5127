//! Per-thread scratch arenas for sweep workloads.
//!
//! A continuous run allocates a full [`ClusterState`] — node, leaf and
//! switch vectors sized to the machine — and a sweep runs thousands of
//! them. Each thread keeps a small cache of retired states and leases
//! one out per run, [`ClusterState::reset`] back to exactly the
//! freshly-constructed state, so the runs one thread makes stop
//! re-allocating their world. A cache lives as long as its thread: for
//! the thread that calls into a parallel region (or never enters one,
//! like `bench_e2e`'s) that is the process; for a region's helper thread
//! it is that region, whose share of the sweep's cells it serves.
//!
//! Determinism is untouched: a reset state is value-identical to
//! `ClusterState::new`, and no cache anywhere outlives one Eq. 6
//! evaluation, so nothing can remember a state's previous life. Which
//! thread ran which cell therefore cannot leak into any output byte.

use commsched_core::ClusterState;
use commsched_topology::Tree;
use std::cell::RefCell;

/// Retired states kept per thread; beyond this, drop instead of caching
/// (bounds memory when many differently-sized topologies interleave).
const MAX_CACHED: usize = 4;

thread_local! {
    static CACHE: RefCell<Vec<ClusterState>> = const { RefCell::new(Vec::new()) };
}

/// Run `f` with a cluster state freshly initialized for `tree`, drawn
/// from (and, on success, returned to) the calling thread's cache. If
/// `f` unwinds the state is simply not recycled — no poisoning, no
/// cleanup obligations.
pub(crate) fn with_state<R>(tree: &Tree, f: impl FnOnce(&mut ClusterState) -> R) -> R {
    let mut state = match CACHE.with(|c| c.borrow_mut().pop()) {
        Some(mut s) => {
            s.reset(tree);
            s
        }
        None => ClusterState::new(tree),
    };
    let out = f(&mut state);
    CACHE.with(|c| {
        let mut cache = c.borrow_mut();
        if cache.len() < MAX_CACHED {
            cache.push(state);
        }
    });
    out
}

//! Process mapping after node allocation — the paper's §7 future work
//! ("Process mapping after node allocation can provide further
//! improvements").
//!
//! The engine's default is SLURM's **block** distribution: rank `r` runs on
//! the `r`-th allocated node in node-id order. That is already good when
//! the allocation is balanced, but an *unbalanced* allocation (say 3 + 5
//! nodes over two leaves) puts a rank-block boundary in the middle of a
//! leaf, so the small-distance steps of RD/RHVD — which carry the largest
//! payloads — cross switches.
//!
//! [`MappingStrategy::AlignedBlocks`] applies the paper's own Figure 4
//! subdivision to *rank blocks*: each leaf's slice of the allocation
//! receives the largest remaining power-of-two-aligned block of ranks that
//! fits it, so XOR partners at distance `< 2^a` stay inside a leaf holding
//! an aligned `2^a` block.
//!
//! Note that under Eq. 6's *max-per-step* metric a single crossing pair
//! costs a step as much as all pairs crossing, so alignment only pays when
//! it purges a step of crossings entirely — [`best_mapping`] evaluates the
//! candidates and returns the cheapest, which is therefore never worse
//! than the block default.
#![deny(clippy::as_conversions)]

use crate::cost::CostModel;
use crate::state::ClusterState;
use commsched_collectives::CollectiveSpec;
use commsched_topology::{NodeId, Tree};

/// How ranks are laid out over an allocation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MappingStrategy {
    /// SLURM block distribution: rank `r` on the `r`-th node in node-id
    /// order. The engine's (and the paper's) default.
    Block,
    /// Round-robin across leaf switches — a deliberately cache-hostile
    /// baseline: adjacent ranks land on different switches.
    RoundRobin,
    /// Power-of-two-aligned rank blocks per leaf (Figure 4 applied to the
    /// rank space). Never worse than [`MappingStrategy::Block`] for
    /// XOR-structured collectives on two-level trees.
    AlignedBlocks,
}

impl MappingStrategy {
    /// Every strategy, for sweeps.
    pub const ALL: [MappingStrategy; 3] = [
        MappingStrategy::Block,
        MappingStrategy::RoundRobin,
        MappingStrategy::AlignedBlocks,
    ];
}

/// Compute the rank→node map for `nodes` under `strategy`.
///
/// The result is a permutation of `nodes`: entry `r` is rank `r`'s node.
pub(crate) fn map_ranks(tree: &Tree, nodes: &[NodeId], strategy: MappingStrategy) -> Vec<NodeId> {
    let mut sorted = nodes.to_vec();
    sorted.sort_unstable();
    match strategy {
        MappingStrategy::Block => sorted,
        MappingStrategy::RoundRobin => round_robin(tree, &sorted),
        MappingStrategy::AlignedBlocks => aligned_blocks(tree, &sorted),
    }
}

/// Eq. 6 cost of an allocation under a mapping strategy.
///
/// Like [`CostModel::job_cost`] but with an explicit rank layout instead of
/// the implicit block distribution.
pub fn mapped_cost(
    model: CostModel,
    tree: &Tree,
    state: &ClusterState,
    nodes: &[NodeId],
    spec: &CollectiveSpec,
    strategy: MappingStrategy,
) -> f64 {
    model.ranked_cost(tree, state, &map_ranks(tree, nodes, strategy), spec)
}

/// Evaluate every strategy and return the cheapest layout with its cost.
///
/// Guaranteed no worse than [`MappingStrategy::Block`] (block is among the
/// candidates); ties break toward block, so the engine's default layout is
/// kept when mapping cannot help.
pub fn best_mapping(
    model: CostModel,
    tree: &Tree,
    state: &ClusterState,
    nodes: &[NodeId],
    spec: &CollectiveSpec,
) -> (MappingStrategy, Vec<NodeId>, f64) {
    let mut best = (
        MappingStrategy::Block,
        map_ranks(tree, nodes, MappingStrategy::Block),
        mapped_cost(model, tree, state, nodes, spec, MappingStrategy::Block),
    );
    for s in [MappingStrategy::AlignedBlocks, MappingStrategy::RoundRobin] {
        let cost = mapped_cost(model, tree, state, nodes, spec, s);
        if cost < best.2 {
            best = (s, map_ranks(tree, nodes, s), cost);
        }
    }
    best
}

/// Per-leaf groups of an allocation, in leaf-ordinal order.
fn leaf_groups(tree: &Tree, sorted: &[NodeId]) -> Vec<Vec<NodeId>> {
    let mut groups: Vec<Vec<NodeId>> = Vec::new();
    let mut last_leaf = usize::MAX;
    for &n in sorted {
        let k = tree.leaf_ordinal_of(n);
        if k != last_leaf {
            groups.push(Vec::new());
            last_leaf = k;
        }
        if let Some(group) = groups.last_mut() {
            group.push(n);
        }
    }
    groups
}

fn round_robin(tree: &Tree, sorted: &[NodeId]) -> Vec<NodeId> {
    let mut groups = leaf_groups(tree, sorted);
    let mut out = Vec::with_capacity(sorted.len());
    let mut g = 0;
    while out.len() < sorted.len() {
        if !groups[g].is_empty() {
            out.push(groups[g].remove(0));
        }
        g = (g + 1) % groups.len();
    }
    out
}

/// Figure 4 on the rank space: hand each leaf group the largest remaining
/// *aligned* power-of-two rank block that fits it; leftovers fill
/// whatever rank slots remain.
fn aligned_blocks(tree: &Tree, sorted: &[NodeId]) -> Vec<NodeId> {
    // The buddy invariants below guarantee `Some`; if they were ever
    // violated the plain block layout is a safe, deterministic fallback —
    // a worse mapping, never a crash.
    aligned_blocks_impl(tree, sorted).unwrap_or_else(|| sorted.to_vec())
}

fn aligned_blocks_impl(tree: &Tree, sorted: &[NodeId]) -> Option<Vec<NodeId>> {
    let n = sorted.len();
    let mut groups = leaf_groups(tree, sorted);
    // Largest groups claim blocks first.
    groups.sort_by_key(|g| std::cmp::Reverse(g.len()));

    let mut layout: Vec<Option<NodeId>> = vec![None; n];
    // Free aligned blocks, managed like a buddy allocator over [0, n).
    // Start from the aligned decomposition of [0, n).
    let mut free_blocks: Vec<(usize, usize)> = Vec::new(); // (start, len), len = pow2, start % len == 0
    {
        let mut start = 0usize;
        while start < n {
            let align = if start == 0 {
                usize::MAX
            } else {
                1 << start.trailing_zeros()
            };
            let mut len = (n - start).next_power_of_two();
            while len > n - start || len > align {
                len /= 2;
            }
            free_blocks.push((start, len));
            start += len;
        }
    }

    for group in &mut groups {
        let mut want = group.len();
        while want > 0 {
            // Largest power-of-two chunk of this group still unplaced.
            let mut chunk = want.next_power_of_two();
            if chunk > want {
                chunk /= 2;
            }
            // Find the smallest free block that fits the chunk, splitting
            // buddy-style; if none fits, halve the chunk.
            let candidate = free_blocks
                .iter()
                .enumerate()
                .filter(|(_, &(_, len))| len >= chunk)
                .min_by_key(|(_, &(_, len))| len)
                .map(|(i, _)| i);
            let Some(i) = candidate else {
                // No block of this size left anywhere: fall back to
                // single-slot placement for the rest of the group.
                chunk = 1;
                // Total free slots always equal unplaced ranks, so a
                // single-slot block must exist here.
                let j = free_blocks.iter().position(|&(_, len)| len >= 1)?;
                let (start, len) = free_blocks.swap_remove(j);
                layout[start] = Some(group.pop()?);
                if len > 1 {
                    // Return the tail as aligned sub-blocks.
                    push_aligned(&mut free_blocks, start + 1, len - 1);
                }
                want -= 1;
                continue;
            };
            let (mut start, mut len) = free_blocks.swap_remove(i);
            while len > chunk {
                len /= 2;
                free_blocks.push((start + len, len));
            }
            for slot in layout.iter_mut().skip(start).take(chunk) {
                *slot = Some(group.pop()?);
            }
            let _ = &mut start;
            want -= chunk;
        }
    }
    // `collect` over options doubles as the "every slot filled" check.
    layout.into_iter().collect()
}

/// Decompose `[start, start+len)` into maximal aligned power-of-two blocks.
fn push_aligned(free: &mut Vec<(usize, usize)>, mut start: usize, mut len: usize) {
    while len > 0 {
        let align = if start == 0 {
            usize::MAX
        } else {
            1 << start.trailing_zeros()
        };
        let mut block = len.next_power_of_two();
        while block > len || block > align {
            block /= 2;
        }
        free.push((start, block));
        start += block;
        len -= block;
    }
}

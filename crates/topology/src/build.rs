//! Synthetic topology builders and paper-system presets, including the
//! exascale topology classes (multi-rail fat-tree, dragonfly-as-tree)
//! grounded in "Scalable HPC Job Scheduling and Resource Management in
//! SST" (PAPERS.md).

use crate::tree::{SwitchId, Tree};

/// How a layered shape names its switches. The root is always `root`.
#[derive(Debug, Clone, Copy)]
pub(crate) enum SwitchNames {
    /// Leaves `s{k}` numbered across the machine, groups `g{g}` — the
    /// paper-system shapes.
    Flat,
    /// `Nested(group, leaf)`: groups `{group}{g}`, leaves
    /// `{group}{g}{leaf}{j}` numbered within their group — `p3l7` (pod 3,
    /// leaf 7), `g3r7` (group 3, router 7).
    Nested(char, char),
}

impl Tree {
    /// A regular two-level fat-tree: `leaves` leaf switches named `s0..`,
    /// each with `nodes_per_leaf` nodes named `n0..`, under one root.
    ///
    /// This is the shape of the paper's Figure 2 (with `leaves = 2`,
    /// `nodes_per_leaf = 4`).
    pub fn regular_two_level(leaves: usize, nodes_per_leaf: usize) -> Tree {
        Self::irregular_two_level(&vec![nodes_per_leaf; leaves])
    }

    /// A two-level tree with the given per-leaf node counts.
    pub fn irregular_two_level(leaf_sizes: &[usize]) -> Tree {
        Self::layered(leaf_sizes, None, SwitchNames::Flat)
    }

    /// A regular three-level tree: `groups` level-2 switches, each over
    /// `leaves_per_group` leaf switches of `nodes_per_leaf` nodes, under one
    /// root.
    pub fn regular_three_level(
        groups: usize,
        leaves_per_group: usize,
        nodes_per_leaf: usize,
    ) -> Tree {
        Self::layered(
            &vec![nodes_per_leaf; groups * leaves_per_group],
            Some(leaves_per_group),
            SwitchNames::Flat,
        )
    }

    /// The one shape builder: leaf `k` holds `leaf_sizes[k]` nodes, `n0..`
    /// in leaf order; with `leaves_per_group` the leaves sit that many at a
    /// time under level-2 switches, and everything hangs off one root. The
    /// tree stores no node names ([`Tree::node_name`] renders them) and is
    /// assembled by id.
    pub(crate) fn layered(
        leaf_sizes: &[usize],
        leaves_per_group: Option<usize>,
        names: SwitchNames,
    ) -> Tree {
        assert!(!leaf_sizes.is_empty(), "need at least one leaf");
        for (k, &size) in leaf_sizes.iter().enumerate() {
            assert!(size > 0, "leaf {k} has zero nodes");
        }
        let leaves = leaf_sizes.len();
        let per_group = leaves_per_group.unwrap_or(leaves);
        let group_names: Vec<String> = (0..leaves.div_ceil(per_group))
            .map(|g| match names {
                SwitchNames::Flat => format!("g{g}"),
                SwitchNames::Nested(group, _) => format!("{group}{g}"),
            })
            .collect();
        let leaf_names = (0..leaves)
            .map(|k| match names {
                SwitchNames::Flat => format!("s{k}"),
                SwitchNames::Nested(_, leaf) => {
                    format!("{}{leaf}{}", group_names[k / per_group], k % per_group)
                }
            })
            .collect();
        let ids = |range: std::ops::Range<usize>| range.map(SwitchId).collect();
        let uppers = match leaves_per_group {
            None => vec![("root".to_string(), ids(0..leaves))],
            Some(_) => {
                let groups = group_names.len();
                let mut uppers: Vec<(String, Vec<SwitchId>)> = group_names
                    .into_iter()
                    .enumerate()
                    .map(|(g, name)| (name, ids(g * per_group..leaves.min((g + 1) * per_group))))
                    .collect();
                uppers.push(("root".to_string(), ids(leaves..leaves + groups)));
                uppers
            }
        };
        Tree::from_parts(leaf_names, leaf_sizes, None, uppers)
    }
}

/// Topologies scaled to the systems in the paper's evaluation (§5).
///
/// The paper emulates Intrepid/Theta/Mira job logs on fat-tree topology
/// files from IIT Kanpur (16 nodes per leaf switch) and LBNL Cori
/// (330–380 nodes per leaf switch). These presets reproduce the stated
/// branching factors at each system's node count.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SystemPreset {
    /// The 50-node IIT Kanpur department cluster from the Figure 1
    /// motivation study: tree topology, a handful of leaf switches.
    IitkDepartment,
    /// The IIT Kanpur HPC2010 shape: 16 nodes/leaf.
    IitkHpc2010,
    /// Cori-like: large irregular leaves (330–380 nodes each).
    CoriLike,
    /// Intrepid scale: 40,960 nodes (Blue Gene/P) as a two-level tree of
    /// 118 Cori-like leaves (330–380 nodes each).
    Intrepid,
    /// Theta scale: 4,392 nodes, Cori-like large leaves.
    Theta,
    /// Mira scale: 49,152 nodes (Blue Gene/Q) as a two-level tree of 144
    /// Cori-like leaves (330–380 nodes each).
    Mira,
    /// Exascale multi-rail fat-tree flattened to its placement hierarchy:
    /// 524,288 nodes — 32 pods (`p{i}`) × 32 leaves (`p{i}l{j}`) × (4 rails
    /// × 128 nodes).
    ///
    /// In a real multi-rail fabric every node injects into `rails`
    /// parallel planes with identical hierarchy, so the *distance*
    /// structure (Eq. 4) of every rail is the same tree; rails multiply
    /// leaf injection bandwidth, not depth. The SST scheduling paper's
    /// fat-tree class models it the same way: the tree carries the
    /// hierarchy, the rail count scales the per-leaf radix.
    Multirail500k,
    /// Exascale dragonfly flattened to a tree: 1,048,576 nodes — 64
    /// all-to-all groups (`g{i}`) × 256 routers (`g{i}r{j}`) × 64 nodes.
    ///
    /// A dragonfly's distance hierarchy collapses to three tiers — same
    /// router, same group (one local hop), different group (global link)
    /// — which is exactly a three-level tree: routers are leaf switches,
    /// groups are level-2 switches, the global link layer is the root.
    /// The all-to-all wiring *within* those tiers affects bandwidth, not
    /// the hop hierarchy the placement cost model reads.
    Dragonfly1M,
}

impl SystemPreset {
    /// Build the topology for this preset.
    ///
    /// Deterministic: the "irregular" Cori-like leaf sizes follow a fixed
    /// repeating pattern in 330–380 (the paper only states the range).
    pub fn build(self) -> Tree {
        match self {
            // 50 nodes, 13/13/12/12 across 4 leaf switches; the motivation
            // experiment placed jobs across two of these.
            Self::IitkDepartment => Tree::irregular_two_level(&[13, 13, 12, 12]),
            // HPC2010: 768 nodes at 16/leaf = 48 leaves, two aggregation
            // switches of 24 leaves each.
            Self::IitkHpc2010 => Tree::regular_three_level(2, 24, 16),
            // A 12-leaf Cori-ish tree, ~4.3k nodes.
            Self::CoriLike => Tree::irregular_two_level(&cori_leaf_sizes(12, 4392)),
            // The three evaluation systems are emulated on the LBNL/Cori
            // leaf shape (330-380 nodes per leaf switch, §5.2). Large
            // leaves never divide the logs' power-of-two requests, which
            // is what gives the allocators real choices; the IITK 16/leaf
            // shape makes every power-of-two job occupy whole leaves under
            // *any* policy (see DESIGN.md). 40,960 nodes over 118 leaves.
            Self::Intrepid => Tree::irregular_two_level(&cori_leaf_sizes(118, 40960)),
            // 4,392 nodes over 12 large leaves.
            Self::Theta => Tree::irregular_two_level(&cori_leaf_sizes(12, 4392)),
            // 49,152 nodes over 144 large leaves.
            Self::Mira => Tree::irregular_two_level(&cori_leaf_sizes(144, 49152)),
            // The two exascale classes (DESIGN.md §4.7): 2^19 nodes over
            // 1,024 fat leaves, and 2^20 nodes over 16,384 thin routers.
            Self::Multirail500k => Tree::layered(
                &vec![4 * 128; 32 * 32],
                Some(32),
                SwitchNames::Nested('p', 'l'),
            ),
            Self::Dragonfly1M => Tree::layered(
                &vec![64; 64 * 256],
                Some(256),
                SwitchNames::Nested('g', 'r'),
            ),
        }
    }

    /// Total node count of the built topology (without building it).
    #[cfg(test)]
    pub(crate) fn num_nodes(self) -> usize {
        match self {
            Self::IitkDepartment => 50,
            Self::IitkHpc2010 => 768,
            Self::CoriLike | Self::Theta => 4392,
            Self::Intrepid => 40960,
            Self::Mira => 49152,
            Self::Multirail500k => 524288,
            Self::Dragonfly1M => 1048576,
        }
    }
}

/// Leaf sizes in the 330–380 band summing exactly to `total`.
fn cori_leaf_sizes(leaves: usize, total: usize) -> Vec<usize> {
    // Cycle through the band deterministically, then fix up the remainder on
    // the last leaf while keeping every size within [330, 380].
    let pattern = [
        366usize, 352, 374, 338, 360, 380, 344, 370, 332, 356, 376, 348,
    ];
    let mut sizes: Vec<usize> = (0..leaves).map(|k| pattern[k % pattern.len()]).collect();
    let sum: usize = sizes.iter().sum();
    let mut diff = total as isize - sum as isize;
    let mut k = 0;
    while diff != 0 {
        let s = &mut sizes[k % leaves];
        if diff > 0 && *s < 380 {
            *s += 1;
            diff -= 1;
        } else if diff < 0 && *s > 330 {
            *s -= 1;
            diff += 1;
        }
        k += 1;
        assert!(k < leaves * 200, "cannot fit {total} nodes in band");
    }
    sizes
}

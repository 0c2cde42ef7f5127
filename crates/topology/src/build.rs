//! Synthetic topology builders and paper-system presets, including the
//! exascale topology classes (multi-rail fat-tree, dragonfly-as-tree)
//! grounded in "Scalable HPC Job Scheduling and Resource Management in
//! SST" (PAPERS.md).

use crate::tree::{Tree, TreeError};
use std::fmt;

/// Error parsing a `"AxBx...xN"` topology spec string, carrying the
/// offending factor's position and text (the typed-error convention the
/// conf/SWF/fault parsers already follow).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SpecError {
    /// A factor that is not a positive integer.
    BadFactor {
        /// Zero-based factor position in the spec.
        index: usize,
        /// The factor text as written.
        text: String,
    },
    /// A factor equal to zero.
    ZeroFactor {
        /// Zero-based factor position in the spec.
        index: usize,
    },
    /// Fewer than two factors — a tree needs at least one switch level
    /// over the nodes-per-leaf factor.
    TooFewFactors {
        /// Number of factors found.
        count: usize,
    },
    /// The factors describe a structurally invalid tree.
    Structure(TreeError),
}

impl fmt::Display for SpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::BadFactor { index, text } => {
                write!(f, "factor {index}: {text:?} is not a positive integer")
            }
            Self::ZeroFactor { index } => write!(f, "factor {index}: must be nonzero"),
            Self::TooFewFactors { count } => write!(
                f,
                "found {count} factor(s), need at least two (switch fan-out x nodes/leaf)"
            ),
            Self::Structure(e) => write!(f, "invalid topology: {e}"),
        }
    }
}

impl std::error::Error for SpecError {}

impl From<TreeError> for SpecError {
    fn from(e: TreeError) -> Self {
        Self::Structure(e)
    }
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
        assert!(!leaf_sizes.is_empty(), "need at least one leaf");
        let mut leaf_names = Vec::with_capacity(leaf_sizes.len());
        let mut leaf_nodes = Vec::with_capacity(leaf_sizes.len());
        let mut next = 0usize;
        for (k, &sz) in leaf_sizes.iter().enumerate() {
            assert!(sz > 0, "leaf {k} has zero nodes");
            leaf_names.push(format!("s{k}"));
            leaf_nodes.push((next..next + sz).map(|i| format!("n{i}")).collect());
            next += sz;
        }
        let children = (0..leaf_sizes.len()).map(|k| format!("s{k}")).collect();
        let uppers = vec![("root".to_string(), children)];
        #[expect(
            clippy::expect_used,
            reason = "the builder enumerates unique names and a single root by construction, which is exactly what from_parts validates"
        )]
        Tree::from_parts(leaf_names, leaf_nodes, uppers).expect("builder produces valid trees")
    }

    /// A regular three-level tree: `groups` level-2 switches, each over
    /// `leaves_per_group` leaf switches of `nodes_per_leaf` nodes, under one
    /// root.
    pub fn regular_three_level(
        groups: usize,
        leaves_per_group: usize,
        nodes_per_leaf: usize,
    ) -> Tree {
        assert!(groups > 0 && leaves_per_group > 0 && nodes_per_leaf > 0);
        let total_leaves = groups * leaves_per_group;
        let mut leaf_names = Vec::with_capacity(total_leaves);
        let mut leaf_nodes = Vec::with_capacity(total_leaves);
        let mut next = 0usize;
        for k in 0..total_leaves {
            leaf_names.push(format!("s{k}"));
            leaf_nodes.push(
                (next..next + nodes_per_leaf)
                    .map(|i| format!("n{i}"))
                    .collect(),
            );
            next += nodes_per_leaf;
        }
        let mut uppers = Vec::with_capacity(groups + 1);
        for g in 0..groups {
            let children = (g * leaves_per_group..(g + 1) * leaves_per_group)
                .map(|k| format!("s{k}"))
                .collect();
            uppers.push((format!("g{g}"), children));
        }
        uppers.push((
            "root".to_string(),
            (0..groups).map(|g| format!("g{g}")).collect(),
        ));
        #[expect(
            clippy::expect_used,
            reason = "the builder enumerates unique names and a single root by construction, which is exactly what from_parts validates"
        )]
        Tree::from_parts(leaf_names, leaf_nodes, uppers).expect("builder produces valid trees")
    }
}

impl Tree {
    /// Build a regular tree of arbitrary depth from a spec string:
    /// `"AxBx...xN"` where the last factor is nodes per leaf and earlier
    /// factors are switch fan-outs, root first. `"2x24x16"` is two
    /// aggregation switches over 24 leaves each with 16 nodes (the IITK
    /// HPC2010 shape); `"48x366"` is a flat 48-leaf tree.
    ///
    /// # Errors
    ///
    /// Returns a [`SpecError`] naming the offending factor for malformed
    /// specs (non-numeric, zero factors, empty, or a single factor — a
    /// tree needs at least one switch level).
    pub fn from_spec(spec: &str) -> Result<Tree, SpecError> {
        let factors: Vec<usize> = spec
            .split('x')
            .enumerate()
            .map(|(index, p)| {
                p.trim().parse::<usize>().map_err(|_| SpecError::BadFactor {
                    index,
                    text: p.trim().to_string(),
                })
            })
            .collect::<Result<_, _>>()?;
        if factors.len() < 2 {
            return Err(SpecError::TooFewFactors {
                count: factors.len(),
            });
        }
        if let Some(index) = factors.iter().position(|&f| f == 0) {
            return Err(SpecError::ZeroFactor { index });
        }
        #[expect(
            clippy::expect_used,
            reason = "the TooFewFactors check above guarantees a non-empty factor list"
        )]
        let nodes_per_leaf = *factors.last().expect("len checked");
        let fanouts = &factors[..factors.len() - 1];
        let total_leaves: usize = fanouts.iter().product();

        let mut leaf_names = Vec::with_capacity(total_leaves);
        let mut leaf_nodes = Vec::with_capacity(total_leaves);
        for k in 0..total_leaves {
            leaf_names.push(format!("s{k}"));
            leaf_nodes.push(
                (k * nodes_per_leaf..(k + 1) * nodes_per_leaf)
                    .map(|i| format!("n{i}"))
                    .collect(),
            );
        }
        // Build upper levels bottom-up: children of level l are grouped in
        // runs of fanouts[depth - 1 - l].
        let mut uppers: Vec<(String, Vec<String>)> = Vec::new();
        let mut current: Vec<String> = leaf_names.clone();
        for (level, &fan) in fanouts.iter().rev().enumerate() {
            if current.len() == 1 {
                break;
            }
            let mut next = Vec::new();
            for (g, chunk) in current.chunks(fan).enumerate() {
                let name = if current.len() / fan <= 1 {
                    "root".to_string()
                } else {
                    format!("l{level}g{g}")
                };
                uppers.push((name.clone(), chunk.to_vec()));
                next.push(name);
            }
            current = next;
        }
        Ok(Tree::from_parts(leaf_names, leaf_nodes, uppers)?)
    }

    /// A multi-rail fat-tree flattened to its placement hierarchy:
    /// `pods` pod switches over `leaves_per_pod` leaf switches each, with
    /// `rails * nodes_per_rail` nodes per leaf.
    ///
    /// In a real multi-rail fabric every node injects into `rails`
    /// parallel planes with identical hierarchy, so the *distance*
    /// structure (Eq. 4) of every rail is the same tree; rails multiply
    /// leaf injection bandwidth, not depth. The SST scheduling paper's
    /// fat-tree class models it the same way: the tree carries the
    /// hierarchy, the rail count scales the per-leaf radix. Switches are
    /// named `p{i}` (pods) and `p{i}l{j}` (leaves); nodes `n0..`.
    pub(crate) fn multirail_fat_tree(
        pods: usize,
        leaves_per_pod: usize,
        nodes_per_rail: usize,
        rails: usize,
    ) -> Tree {
        assert!(pods > 0 && leaves_per_pod > 0 && nodes_per_rail > 0 && rails > 0);
        let per_leaf = nodes_per_rail * rails;
        let mut leaf_names = Vec::with_capacity(pods * leaves_per_pod);
        let mut leaf_nodes = Vec::with_capacity(pods * leaves_per_pod);
        let mut uppers = Vec::with_capacity(pods + 1);
        let mut next = 0usize;
        for p in 0..pods {
            let mut children = Vec::with_capacity(leaves_per_pod);
            for l in 0..leaves_per_pod {
                let name = format!("p{p}l{l}");
                leaf_nodes.push((next..next + per_leaf).map(|i| format!("n{i}")).collect());
                next += per_leaf;
                children.push(name.clone());
                leaf_names.push(name);
            }
            uppers.push((format!("p{p}"), children));
        }
        uppers.push((
            "root".to_string(),
            (0..pods).map(|p| format!("p{p}")).collect(),
        ));
        #[expect(
            clippy::expect_used,
            reason = "the builder enumerates unique names and a single root by construction, which is exactly what from_parts validates"
        )]
        Tree::from_parts(leaf_names, leaf_nodes, uppers).expect("builder produces valid trees")
    }

    /// A dragonfly flattened to a tree: `groups` all-to-all groups of
    /// `routers_per_group` routers with `nodes_per_router` nodes each.
    ///
    /// A dragonfly's distance hierarchy collapses to three tiers — same
    /// router, same group (one local hop), different group (global link)
    /// — which is exactly a three-level tree: routers are leaf switches,
    /// groups are level-2 switches, the global link layer is the root.
    /// The all-to-all wiring *within* those tiers affects bandwidth, not
    /// the hop hierarchy the placement cost model reads. Switches are
    /// named `g{i}` (groups) and `g{i}r{j}` (routers); nodes `n0..`.
    pub(crate) fn dragonfly_tree(
        groups: usize,
        routers_per_group: usize,
        nodes_per_router: usize,
    ) -> Tree {
        assert!(groups > 0 && routers_per_group > 0 && nodes_per_router > 0);
        let mut leaf_names = Vec::with_capacity(groups * routers_per_group);
        let mut leaf_nodes = Vec::with_capacity(groups * routers_per_group);
        let mut uppers = Vec::with_capacity(groups + 1);
        let mut next = 0usize;
        for g in 0..groups {
            let mut children = Vec::with_capacity(routers_per_group);
            for r in 0..routers_per_group {
                let name = format!("g{g}r{r}");
                leaf_nodes.push(
                    (next..next + nodes_per_router)
                        .map(|i| format!("n{i}"))
                        .collect(),
                );
                next += nodes_per_router;
                children.push(name.clone());
                leaf_names.push(name);
            }
            uppers.push((format!("g{g}"), children));
        }
        uppers.push((
            "root".to_string(),
            (0..groups).map(|g| format!("g{g}")).collect(),
        ));
        #[expect(
            clippy::expect_used,
            reason = "the builder enumerates unique names and a single root by construction, which is exactly what from_parts validates"
        )]
        Tree::from_parts(leaf_names, leaf_nodes, uppers).expect("builder produces valid trees")
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
    /// Intrepid scale: 40,960 nodes (Blue Gene/P), three-level tree.
    Intrepid,
    /// Theta scale: 4,392 nodes, Cori-like large leaves.
    Theta,
    /// Mira scale: 49,152 nodes (Blue Gene/Q), three-level tree.
    Mira,
    /// Exascale multi-rail fat-tree: 524,288 nodes — 32 pods × 32 leaves
    /// × (4 rails × 128 nodes). See [`Tree::multirail_fat_tree`].
    Multirail500k,
    /// Exascale dragonfly-as-tree: 1,048,576 nodes — 64 groups × 256
    /// routers × 64 nodes. See [`Tree::dragonfly_tree`].
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
            // The two exascale classes (ROADMAP item 3): 2^19 nodes over
            // 1,024 fat leaves, and 2^20 nodes over 16,384 thin routers.
            Self::Multirail500k => Tree::multirail_fat_tree(32, 32, 128, 4),
            Self::Dragonfly1M => Tree::dragonfly_tree(64, 256, 64),
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

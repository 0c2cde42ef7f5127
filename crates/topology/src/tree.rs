//! The core immutable tree topology structure and its queries.

use commsched_num::{u32_of_usize, usize_of_u32};
use serde::Serialize;
use std::borrow::Cow;
use std::fmt;

/// Identifier of a compute node (dense, `0..num_nodes`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Default)]
pub struct NodeId(pub usize);

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "node{}", self.0)
    }
}

/// Identifier of a switch (dense, `0..num_switches`): the leaves first, in
/// ordinal order, then the upper switches.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Default)]
pub struct SwitchId(pub usize);

impl fmt::Display for SwitchId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "switch{}", self.0)
    }
}

/// One switch in the tree.
#[derive(Debug, Clone)]
pub struct Switch {
    /// Configured name (e.g. `s0`).
    pub name: String,
    /// Level in the tree: leaves are 1, the root has the highest level.
    pub level: u32,
    /// Parent switch; `None` only for the root.
    pub parent: Option<SwitchId>,
    /// Child switches (empty for leaf switches).
    pub children: Vec<SwitchId>,
    /// Total compute nodes in this switch's subtree.
    pub subtree_nodes: usize,
    /// Ordinals (equal to the switch ids) of leaf switches under this
    /// switch, in child-list order: each child's list in turn, so an upper
    /// switch configured as `Switches=s2,s0` holds `[2, 0]`. For a leaf
    /// switch this is its own ordinal.
    pub leaf_ordinals: Vec<usize>,
}

/// Structural errors detected while validating a topology.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TreeError {
    /// No switches at all.
    Empty,
    /// More than one switch has no parent.
    MultipleRoots(Vec<String>),
    /// A node is attached to more than one leaf switch.
    DuplicateNode(String),
    /// A switch is claimed as child by more than one parent.
    DuplicateChild(String),
    /// A referenced child switch was never defined.
    UnknownSwitch(String),
}

impl fmt::Display for TreeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Empty => write!(f, "topology has no switches"),
            Self::MultipleRoots(names) => write!(f, "multiple root switches: {names:?}"),
            Self::DuplicateNode(n) => write!(f, "node {n} attached to more than one switch"),
            Self::DuplicateChild(s) => write!(f, "switch {s} has more than one parent"),
            Self::UnknownSwitch(s) => write!(f, "switch {s} referenced but never defined"),
        }
    }
}

impl std::error::Error for TreeError {}

/// Interned node names: one shared byte buffer plus an offset table.
///
/// Only a tree read from `topology.conf` has names of its own; a built tree
/// stores none and renders node `i` as `n{i}` ([`Tree::node_name`]). A
/// `Vec<String>` would cost 24 bytes of struct plus one heap allocation per
/// node; the arena stores every name contiguously and hands out `&str`
/// slices.
#[derive(Debug, Clone, Default)]
pub(crate) struct NameArena {
    buf: String,
    /// `offsets[i]` ends name `i`, which starts where name `i - 1` ends.
    offsets: Vec<u32>,
}

impl NameArena {
    pub(crate) fn push(&mut self, name: &str) {
        self.buf.push_str(name);
        #[expect(
            clippy::expect_used,
            reason = "offsets are u32 by design; a topology with over 4 GiB of node names is out of scope for every target scale"
        )]
        let end = u32::try_from(self.buf.len()).expect("name arena exceeds 4 GiB");
        self.offsets.push(end);
    }

    fn get(&self, i: usize) -> &str {
        let start = i.checked_sub(1).map_or(0, |prev| self.offsets[prev]);
        &self.buf[usize_of_u32(start)..usize_of_u32(self.offsets[i])]
    }

    fn len(&self) -> usize {
        self.offsets.len()
    }

    /// A name that occurs more than once, if any: a throw-away sort, run
    /// by [`Tree::from_conf`], whose names arrive from outside the program.
    pub(crate) fn duplicate(&self) -> Option<&str> {
        let mut sorted: Vec<&str> = (0..self.len()).map(|i| self.get(i)).collect();
        sorted.sort_unstable();
        sorted.windows(2).find(|w| w[0] == w[1]).map(|w| w[0])
    }
}

/// An immutable, validated tree/fat-tree topology.
///
/// Construction goes through [`Tree::from_conf`] or the builders in this
/// crate. Where a node sits is stored once: its leaf ordinal, with
/// `leaf_first` turning an ordinal back into the leaf's id range. All
/// queries are cheap: LCA is O(depth) with no allocation, everything else
/// is O(1) table lookups.
#[derive(Debug, Clone)]
pub struct Tree {
    /// Node names of a tree read from `topology.conf`; `None` for a built
    /// tree, whose node `i` is `n{i}`.
    pub(crate) node_names: Option<NameArena>,
    /// Leaf ordinal of each node — the one per-node table.
    pub(crate) node_leaf: Vec<u32>,
    /// Leaves first: leaf ordinal `k` is switch `k`. Children come before
    /// their parents, so the root is the last.
    pub(crate) switches: Vec<Switch>,
    /// First node id of each leaf ordinal, plus the node count as a final
    /// sentinel — the [`Tree::leaf_node_range`] table (`num_leaves + 1`).
    pub(crate) leaf_first: Vec<usize>,
}

impl Tree {
    /// Build and validate a tree from explicit parts, by id.
    ///
    /// Leaf `k` is switch `k`, named `leaf_names[k]`, and holds the next
    /// `leaf_sizes[k]` node ids; upper switch `i` is switch
    /// `leaf_names.len() + i`, a `(name, children)` pair whose children are
    /// leaves or earlier uppers. `node_names`, if any, name the nodes in id
    /// order. No name is looked up here: [`Tree::from_conf`], whose names
    /// come from outside, resolves them to ids and checks them for
    /// duplicates first.
    pub(crate) fn from_parts(
        leaf_names: Vec<String>,
        leaf_sizes: &[usize],
        node_names: Option<NameArena>,
        uppers: Vec<(String, Vec<SwitchId>)>,
    ) -> Result<Self, TreeError> {
        assert_eq!(leaf_names.len(), leaf_sizes.len());
        let num_nodes = leaf_sizes.iter().sum();
        assert!(node_names.as_ref().is_none_or(|n| n.len() == num_nodes));
        if leaf_names.is_empty() {
            return Err(TreeError::Empty);
        }

        let num_leaves = leaf_names.len();
        let mut switches: Vec<Switch> = Vec::with_capacity(num_leaves + uppers.len());
        let mut node_leaf = Vec::with_capacity(num_nodes);
        let mut leaf_first = Vec::with_capacity(num_leaves + 1);
        for (k, (name, &size)) in leaf_names.into_iter().zip(leaf_sizes).enumerate() {
            leaf_first.push(node_leaf.len());
            node_leaf.resize(node_leaf.len() + size, u32_of_usize(k));
            switches.push(Switch {
                name,
                level: 1,
                parent: None,
                children: Vec::new(),
                subtree_nodes: size,
                leaf_ordinals: vec![k],
            });
        }
        leaf_first.push(node_leaf.len());

        for (name, children) in uppers {
            let id = SwitchId(switches.len());
            for &c in &children {
                assert!(c < id, "child {c} of {id} is not defined before it");
                if switches[c.0].parent.replace(id).is_some() {
                    return Err(TreeError::DuplicateChild(switches[c.0].name.clone()));
                }
            }
            // `from_conf` rejects an empty hostlist; the builders group
            // at least one leaf.
            assert!(!children.is_empty(), "upper switch {name} has no children");
            let level = 1 + children
                .iter()
                .map(|c| switches[c.0].level)
                .max()
                .unwrap_or(0);
            let subtree_nodes = children.iter().map(|c| switches[c.0].subtree_nodes).sum();
            let leaf_ordinals = children
                .iter()
                .flat_map(|c| switches[c.0].leaf_ordinals.iter().copied())
                .collect();
            switches.push(Switch {
                name,
                level,
                parent: None,
                children,
                subtree_nodes,
                leaf_ordinals,
            });
        }

        // A parent comes after its children, so the last switch has none,
        // every parent chain climbs by id to a parentless switch, and no
        // chain can cycle: one parentless switch is a connected tree.
        let roots = switches.iter().filter(|s| s.parent.is_none());
        if roots.clone().nth(1).is_some() {
            return Err(TreeError::MultipleRoots(
                roots.map(|s| s.name.clone()).collect(),
            ));
        }

        Ok(Tree {
            node_names,
            node_leaf,
            switches,
            leaf_first,
        })
    }

    /// Number of compute nodes.
    #[inline]
    pub fn num_nodes(&self) -> usize {
        self.node_leaf.len()
    }

    /// Number of switches (all levels).
    #[inline]
    pub fn num_switches(&self) -> usize {
        self.switches.len()
    }

    /// Number of leaf switches.
    #[inline]
    pub fn num_leaves(&self) -> usize {
        self.leaf_first.len() - 1
    }

    /// The root switch: the last id, since every switch's children are
    /// numbered before it and only the root has no parent.
    #[inline]
    pub fn root(&self) -> SwitchId {
        SwitchId(self.switches.len() - 1)
    }

    /// Height of the tree = level of the root (leaves are level 1).
    #[inline]
    pub fn height(&self) -> u32 {
        self.switches[self.root().0].level
    }

    /// Access a switch by id.
    #[inline]
    pub fn switch(&self, s: SwitchId) -> &Switch {
        &self.switches[s.0]
    }

    /// All switches, dense by id.
    #[inline]
    pub fn switches(&self) -> &[Switch] {
        &self.switches
    }

    /// Leaf switch id for a leaf ordinal: the same number, since
    /// `from_parts` numbers leaves first. Panics past the last leaf.
    #[inline]
    pub fn leaf(&self, ordinal: usize) -> SwitchId {
        assert!(ordinal < self.num_leaves(), "no leaf ordinal {ordinal}");
        SwitchId(ordinal)
    }

    /// Leaf ordinal of a leaf switch id; panics on non-leaf.
    #[inline]
    pub fn leaf_ordinal(&self, s: SwitchId) -> usize {
        assert!(s.0 < self.num_leaves(), "{s} is not a leaf switch");
        s.0
    }

    /// The leaf switch a node hangs off.
    #[inline]
    pub fn leaf_of(&self, n: NodeId) -> SwitchId {
        SwitchId(self.leaf_ordinal_of(n))
    }

    /// Leaf ordinal of the leaf switch a node hangs off.
    #[inline]
    pub fn leaf_ordinal_of(&self, n: NodeId) -> usize {
        usize_of_u32(self.node_leaf[n.0])
    }

    /// Nodes attached to a leaf (by ordinal), ascending.
    #[inline]
    pub fn leaf_nodes(&self, ordinal: usize) -> impl Iterator<Item = NodeId> {
        self.leaf_node_range(ordinal).map(NodeId)
    }

    /// Number of nodes on a leaf (the paper's `L_nodes`).
    #[inline]
    pub fn leaf_size(&self, ordinal: usize) -> usize {
        self.leaf_node_range(ordinal).len()
    }

    /// The node ids on a leaf (by ordinal), as one ascending contiguous
    /// range: `Tree::from_parts` numbers nodes leaf by leaf, so leaf `k`
    /// holds exactly `leaf_node_range(k)` and the ranges ascend with `k`.
    /// Everything that trades in per-leaf node counts instead of id lists
    /// rests on this.
    #[inline]
    pub fn leaf_node_range(&self, ordinal: usize) -> std::ops::Range<usize> {
        self.leaf_first[ordinal]..self.leaf_first[ordinal + 1]
    }

    /// Name of a node: a `topology.conf` tree's own, a built tree's
    /// `n{id}`, rendered on demand.
    pub(crate) fn node_name(&self, n: NodeId) -> Cow<'_, str> {
        match &self.node_names {
            Some(names) => Cow::Borrowed(names.get(n.0)),
            None => Cow::Owned(format!("n{}", n.0)),
        }
    }

    /// Lowest common ancestor switch of two *switches*.
    pub fn lca_switch(&self, mut a: SwitchId, mut b: SwitchId) -> SwitchId {
        #[expect(
            clippy::expect_used,
            reason = "from_parts validates a single connected root, so two switches of the same tree always meet before either walk runs past the root"
        )]
        let up = |s: SwitchId| self.switches[s.0].parent.expect("reached root before LCA");
        while a != b {
            let (la, lb) = (self.switches[a.0].level, self.switches[b.0].level);
            if la < lb {
                a = up(a);
            } else if lb < la {
                b = up(b);
            } else {
                a = up(a);
                b = up(b);
            }
        }
        a
    }

    /// Lowest common ancestor switch of two nodes.
    #[inline]
    pub fn lca(&self, i: NodeId, j: NodeId) -> SwitchId {
        self.lca_switch(self.leaf_of(i), self.leaf_of(j))
    }

    /// The paper's Eq. 4: `d(i, j) = 2 * level(lowest common switch)`.
    ///
    /// Two nodes on the same leaf are at distance 2; `d(i, i) = 0`.
    #[inline]
    pub fn distance(&self, i: NodeId, j: NodeId) -> u32 {
        if i == j {
            return 0;
        }
        2 * self.switches[self.lca(i, j).0].level
    }

    /// Level of the lowest common switch of two leaf *ordinals*.
    ///
    /// This is the inner loop of the cost model, so it avoids the node
    /// indirection of [`Tree::distance`].
    #[inline]
    pub fn leaf_lca_level(&self, a: usize, b: usize) -> u32 {
        if a == b {
            return 1;
        }
        self.switches[self.lca_switch(self.leaf(a), self.leaf(b)).0].level
    }

    /// Leaf ordinals under `s`, in child-list order (see
    /// [`Switch::leaf_ordinals`]) — not necessarily ascending.
    pub fn leaf_ordinals_under(&self, s: SwitchId) -> &[usize] {
        &self.switches[s.0].leaf_ordinals
    }

    /// Total nodes in a switch's subtree.
    #[inline]
    pub fn subtree_nodes(&self, s: SwitchId) -> usize {
        self.switches[s.0].subtree_nodes
    }

    /// Size of the canonical *directed-link* id space over this tree: one
    /// up/down pair per node (toward/from its leaf switch) followed by one
    /// up/down pair per switch (toward/from its parent; the root's pair is
    /// reserved but unused). This numbering is shared by the netsim flow
    /// solver and the engine's link-fault model, so a link ordinal in a
    /// fault trace means the same wire in both simulators.
    #[inline]
    pub fn num_directed_links(&self) -> usize {
        2 * (self.node_leaf.len() + self.switches.len())
    }

    /// Directed link carrying traffic from node `n` up into its leaf switch.
    #[inline]
    pub fn node_uplink(&self, n: NodeId) -> usize {
        2 * n.0
    }

    /// Directed link carrying traffic from the leaf switch down to node `n`.
    #[inline]
    pub fn node_downlink(&self, n: NodeId) -> usize {
        2 * n.0 + 1
    }

    /// Directed link carrying traffic from switch `s` up to its parent.
    #[inline]
    pub fn switch_uplink(&self, s: SwitchId) -> usize {
        2 * self.node_leaf.len() + 2 * s.0
    }

    /// Directed link carrying traffic from `s`'s parent down into `s`.
    #[inline]
    pub fn switch_downlink(&self, s: SwitchId) -> usize {
        2 * self.node_leaf.len() + 2 * s.0 + 1
    }
}

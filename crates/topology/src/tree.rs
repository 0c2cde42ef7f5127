//! The core immutable tree topology structure and its queries.

use commsched_num::{u32_of_usize, usize_of_u32};
use serde::Serialize;
use std::fmt;

/// Identifier of a compute node (dense, `0..num_nodes`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Default)]
pub struct NodeId(pub usize);

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "node{}", self.0)
    }
}

/// Identifier of a switch (dense, `0..num_switches`, leaves and uppers mixed).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Default)]
pub struct SwitchId(pub usize);

impl fmt::Display for SwitchId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "switch{}", self.0)
    }
}

/// One switch in the tree.
#[derive(Debug, Clone, Serialize)]
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
    /// Ordinals (indices into `Tree::leaves`) of leaf switches under this
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
    /// No root (a parent cycle).
    NoRoot,
    /// A node is attached to more than one leaf switch.
    DuplicateNode(String),
    /// A switch is claimed as child by more than one parent.
    DuplicateChild(String),
    /// A referenced child switch was never defined.
    UnknownSwitch(String),
    /// A switch mixes `Nodes=` and `Switches=` or has neither.
    MalformedSwitch(String),
    /// A cycle in the switch hierarchy.
    Cycle(String),
}

impl fmt::Display for TreeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Empty => write!(f, "topology has no switches"),
            Self::MultipleRoots(names) => write!(f, "multiple root switches: {names:?}"),
            Self::NoRoot => write!(f, "no root switch (parent cycle?)"),
            Self::DuplicateNode(n) => write!(f, "node {n} attached to more than one switch"),
            Self::DuplicateChild(s) => write!(f, "switch {s} has more than one parent"),
            Self::UnknownSwitch(s) => write!(f, "switch {s} referenced but never defined"),
            Self::MalformedSwitch(s) => {
                write!(f, "switch {s} must have exactly one of Nodes= or Switches=")
            }
            Self::Cycle(s) => write!(f, "cycle in switch hierarchy at {s}"),
        }
    }
}

impl std::error::Error for TreeError {}

/// Interned node names: one shared byte buffer plus an offset table.
///
/// A `Vec<String>` costs 24 bytes of struct plus one heap allocation per
/// node; at the 1M-node presets that is tens of megabytes of pointer
/// chasing before the first query runs. The arena stores every name
/// contiguously (~9 bytes per node for `n1048575`-style names) and hands
/// out `&str` slices.
#[derive(Debug, Clone, Serialize)]
pub(crate) struct NameArena {
    buf: String,
    /// `offsets[i]..offsets[i+1]` is name `i`; always `count + 1` entries.
    offsets: Vec<u32>,
}

impl NameArena {
    pub(crate) fn with_capacity(names: usize, bytes: usize) -> Self {
        let mut offsets = Vec::with_capacity(names + 1);
        offsets.push(0);
        NameArena {
            buf: String::with_capacity(bytes),
            offsets,
        }
    }

    pub(crate) fn push(&mut self, name: &str) {
        self.buf.push_str(name);
        self.close_name();
    }

    /// The generated names `n0..n{count - 1}`, each formatted into the
    /// buffer, never into a `String` of its own.
    pub(crate) fn numbered(count: usize) -> Self {
        use std::fmt::Write;
        // `n` plus at most as many digits as `count` has.
        let width = 1 + count.to_string().len();
        let mut arena = Self::with_capacity(count, count * width);
        for i in 0..count {
            // `fmt::Write for String` cannot fail.
            let _ = write!(arena.buf, "n{i}");
            arena.close_name();
        }
        arena
    }

    fn close_name(&mut self) {
        #[expect(
            clippy::expect_used,
            reason = "offsets are u32 by design; a topology with over 4 GiB of node names is out of scope for every target scale"
        )]
        let end = u32::try_from(self.buf.len()).expect("name arena exceeds 4 GiB");
        self.offsets.push(end);
    }

    #[inline]
    fn get(&self, i: usize) -> &str {
        &self.buf[usize_of_u32(self.offsets[i])..usize_of_u32(self.offsets[i + 1])]
    }

    #[inline]
    fn len(&self) -> usize {
        self.offsets.len() - 1
    }

    /// A name that occurs more than once, if any. A throw-away sort run
    /// where names arrive from outside the program ([`Tree::from_conf`]);
    /// the builders number their nodes, so they never ask.
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
#[derive(Debug, Clone, Serialize)]
pub struct Tree {
    pub(crate) node_names: NameArena,
    /// Leaf ordinal of each node — the one per-node table.
    pub(crate) node_leaf: Vec<u32>,
    pub(crate) switches: Vec<Switch>,
    /// Leaf switch ids in node order (ordinal -> SwitchId).
    pub(crate) leaves: Vec<SwitchId>,
    /// SwitchId -> leaf ordinal (usize::MAX for non-leaves).
    pub(crate) leaf_ordinal: Vec<usize>,
    /// First node id of each leaf ordinal, plus the node count as a final
    /// sentinel — the [`Tree::leaf_node_range`] table (`num_leaves + 1`).
    pub(crate) leaf_first: Vec<usize>,
    pub(crate) root: SwitchId,
    /// Switch ids in increasing level order (ties by id) — the precomputed
    /// [`Tree::switches_by_level`] answer.
    pub(crate) level_order: Vec<SwitchId>,
}

impl Tree {
    /// Build and validate a tree from explicit parts.
    ///
    /// Leaf `k` is named `leaf_names[k]` and holds the next `leaf_sizes[k]`
    /// names of `node_names`, which the caller wrote in leaf order; `uppers`
    /// is a list of `(name, children)` where children name either leaves or
    /// earlier-defined upper switches. Node names are taken as unique: a
    /// caller that did not generate them checks [`NameArena::duplicate`].
    pub(crate) fn from_parts(
        leaf_names: Vec<String>,
        leaf_sizes: &[usize],
        node_names: NameArena,
        uppers: Vec<(String, Vec<String>)>,
    ) -> Result<Self, TreeError> {
        use std::collections::BTreeMap;

        assert_eq!(leaf_names.len(), leaf_sizes.len());
        assert_eq!(leaf_sizes.iter().sum::<usize>(), node_names.len());
        if leaf_names.is_empty() {
            return Err(TreeError::Empty);
        }

        let num_leaves = leaf_names.len();
        let mut switches: Vec<Switch> = Vec::with_capacity(num_leaves + uppers.len());
        // Ordered containers: switch/node numbering must never depend on
        // hash order, even if a future refactor iterates these.
        let mut by_name: BTreeMap<String, SwitchId> = BTreeMap::new();

        let mut node_leaf = Vec::with_capacity(node_names.len());
        let mut leaves = Vec::with_capacity(num_leaves);
        let mut leaf_first = Vec::with_capacity(num_leaves + 1);

        for (k, (name, &size)) in leaf_names.into_iter().zip(leaf_sizes).enumerate() {
            let id = SwitchId(switches.len());
            if by_name.insert(name.clone(), id).is_some() {
                return Err(TreeError::DuplicateChild(name));
            }
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
            leaves.push(id);
        }
        leaf_first.push(node_leaf.len());

        for (name, children) in uppers {
            let id = SwitchId(switches.len());
            if by_name.contains_key(&name) {
                return Err(TreeError::DuplicateChild(name));
            }
            let mut child_ids = Vec::with_capacity(children.len());
            for c in &children {
                let cid = *by_name
                    .get(c)
                    .ok_or_else(|| TreeError::UnknownSwitch(c.clone()))?;
                if switches[cid.0].parent.is_some() {
                    return Err(TreeError::DuplicateChild(c.clone()));
                }
                switches[cid.0].parent = Some(id);
                child_ids.push(cid);
            }
            if child_ids.is_empty() {
                return Err(TreeError::MalformedSwitch(name));
            }
            let level = 1 + child_ids
                .iter()
                .map(|c| switches[c.0].level)
                .max()
                .unwrap_or(0);
            let subtree_nodes = child_ids.iter().map(|c| switches[c.0].subtree_nodes).sum();
            let leaf_ordinals = child_ids
                .iter()
                .flat_map(|c| switches[c.0].leaf_ordinals.iter().copied())
                .collect();
            by_name.insert(name.clone(), id);
            switches.push(Switch {
                name,
                level,
                parent: None,
                children: child_ids,
                subtree_nodes,
                leaf_ordinals,
            });
        }

        let roots: Vec<SwitchId> = (0..switches.len())
            .map(SwitchId)
            .filter(|s| switches[s.0].parent.is_none())
            .collect();
        let root = match roots.as_slice() {
            [] => return Err(TreeError::NoRoot),
            [r] => *r,
            many => {
                return Err(TreeError::MultipleRoots(
                    many.iter().map(|s| switches[s.0].name.clone()).collect(),
                ))
            }
        };

        // Reachability from the root guards against disconnected groups that
        // happen to form a second tree whose root got a parent via a cycle.
        let mut reach = vec![false; switches.len()];
        let mut stack = vec![root];
        while let Some(s) = stack.pop() {
            if std::mem::replace(&mut reach[s.0], true) {
                return Err(TreeError::Cycle(switches[s.0].name.clone()));
            }
            stack.extend(switches[s.0].children.iter().copied());
        }
        if let Some(unreached) = reach.iter().position(|r| !r) {
            return Err(TreeError::Cycle(switches[unreached].name.clone()));
        }

        let mut leaf_ordinal = vec![usize::MAX; switches.len()];
        for (k, l) in leaves.iter().enumerate() {
            leaf_ordinal[l.0] = k;
        }

        let mut level_order: Vec<SwitchId> = (0..switches.len()).map(SwitchId).collect();
        level_order.sort_by_key(|s| switches[s.0].level);

        Ok(Tree {
            node_names,
            node_leaf,
            switches,
            leaves,
            leaf_ordinal,
            leaf_first,
            root,
            level_order,
        })
    }

    /// Number of compute nodes.
    #[inline]
    pub fn num_nodes(&self) -> usize {
        self.node_names.len()
    }

    /// Number of switches (all levels).
    #[inline]
    pub fn num_switches(&self) -> usize {
        self.switches.len()
    }

    /// Number of leaf switches.
    #[inline]
    pub fn num_leaves(&self) -> usize {
        self.leaves.len()
    }

    /// The root switch.
    #[inline]
    pub fn root(&self) -> SwitchId {
        self.root
    }

    /// Height of the tree = level of the root (leaves are level 1).
    #[inline]
    pub fn height(&self) -> u32 {
        self.switches[self.root.0].level
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

    /// Leaf switch ids, ordinal order.
    #[cfg(test)]
    pub(crate) fn leaves(&self) -> &[SwitchId] {
        &self.leaves
    }

    /// Leaf switch id for a leaf ordinal.
    #[inline]
    pub fn leaf(&self, ordinal: usize) -> SwitchId {
        self.leaves[ordinal]
    }

    /// Leaf ordinal of a leaf switch id; panics on non-leaf.
    #[inline]
    pub fn leaf_ordinal(&self, s: SwitchId) -> usize {
        let o = self.leaf_ordinal[s.0];
        assert!(o != usize::MAX, "{s} is not a leaf switch");
        o
    }

    /// The leaf switch a node hangs off.
    #[inline]
    pub fn leaf_of(&self, n: NodeId) -> SwitchId {
        self.leaves[self.leaf_ordinal_of(n)]
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

    /// Configured name of a node.
    #[inline]
    pub(crate) fn node_name(&self, n: NodeId) -> &str {
        self.node_names.get(n.0)
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
        self.switches[self.lca_switch(self.leaves[a], self.leaves[b]).0].level
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

    /// Switches in increasing level order (leaves first, ties by id), for
    /// bottom-up scans. Precomputed at construction — the old
    /// allocate-and-sort on every call showed up in per-placement profiles.
    #[inline]
    pub(crate) fn switches_by_level(&self) -> &[SwitchId] {
        &self.level_order
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

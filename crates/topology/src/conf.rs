//! SLURM `topology.conf` parsing and emission.
//!
//! Grammar (the subset SLURM's `topology/tree` plugin reads):
//!
//! ```text
//! # comment
//! SwitchName=<name> Nodes=<hostlist>
//! SwitchName=<name> Switches=<hostlist>
//! ```
//!
//! Keys are case-insensitive like SLURM's parser; `LinkSpeed=` (accepted and
//! ignored by SLURM) is accepted and ignored here too.

use crate::tree::{NameArena, NodeId, SwitchId, Tree, TreeError};
use commsched_hostlist as hostlist;
use std::cmp::Reverse;
use std::collections::BTreeMap;
use std::fmt;
use std::ops::Range;

/// Error parsing a `topology.conf` document.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ConfError {
    /// A line that is not a comment and has no `SwitchName=`.
    MissingSwitchName { line: usize },
    /// Unrecognized `key=value` token.
    UnknownKey { line: usize, key: String },
    /// A bad hostlist expression.
    BadHostlist { line: usize, err: String },
    /// Line defines both or neither of `Nodes=` / `Switches=`.
    NodesXorSwitches { line: usize, switch: String },
    /// The switch graph is structurally invalid.
    Structure(TreeError),
}

impl fmt::Display for ConfError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::MissingSwitchName { line } => {
                write!(f, "line {line}: missing SwitchName=")
            }
            Self::UnknownKey { line, key } => write!(f, "line {line}: unknown key {key:?}"),
            Self::BadHostlist { line, err } => write!(f, "line {line}: bad hostlist: {err}"),
            Self::NodesXorSwitches { line, switch } => write!(
                f,
                "line {line}: switch {switch} needs exactly one of Nodes= or Switches="
            ),
            Self::Structure(e) => write!(f, "invalid topology: {e}"),
        }
    }
}

impl std::error::Error for ConfError {}

impl From<TreeError> for ConfError {
    fn from(e: TreeError) -> Self {
        Self::Structure(e)
    }
}

struct RawSwitch {
    name: String,
    nodes: Option<Vec<String>>,
    switches: Option<Vec<String>>,
}

fn parse_line(line: &str, lineno: usize) -> Result<Option<RawSwitch>, ConfError> {
    let line = match line.find('#') {
        Some(i) => &line[..i],
        None => line,
    }
    .trim();
    if line.is_empty() {
        return Ok(None);
    }

    let mut name: Option<String> = None;
    let mut nodes: Option<Vec<String>> = None;
    let mut switches: Option<Vec<String>> = None;

    for token in line.split_whitespace() {
        let Some((key, value)) = token.split_once('=') else {
            return Err(ConfError::UnknownKey {
                line: lineno,
                key: token.to_string(),
            });
        };
        match key.to_ascii_lowercase().as_str() {
            "switchname" => name = Some(value.to_string()),
            "nodes" => {
                nodes = Some(hostlist::expand(value).map_err(|e| ConfError::BadHostlist {
                    line: lineno,
                    err: e.to_string(),
                })?)
            }
            "switches" => {
                switches = Some(hostlist::expand(value).map_err(|e| ConfError::BadHostlist {
                    line: lineno,
                    err: e.to_string(),
                })?)
            }
            "linkspeed" => {} // accepted and ignored, like SLURM
            _ => {
                return Err(ConfError::UnknownKey {
                    line: lineno,
                    key: key.to_string(),
                })
            }
        }
    }

    let name = name.ok_or(ConfError::MissingSwitchName { line: lineno })?;
    if nodes.is_some() == switches.is_some() {
        return Err(ConfError::NodesXorSwitches {
            line: lineno,
            switch: name,
        });
    }
    Ok(Some(RawSwitch {
        name,
        nodes,
        switches,
    }))
}

impl Tree {
    /// Parse a SLURM `topology.conf` document.
    ///
    /// Leaf switches (lines with `Nodes=`) may appear in any order relative
    /// to upper switches, but an upper switch must be defined after all of
    /// its children, which is how SLURM sites lay the file out in practice
    /// (leaves first, then aggregation layers).
    ///
    /// Leaf ordinals, and so node ids, follow a walk from the root that
    /// visits a switch's leaf children first, in declaration order, then
    /// its child switches by when their first leaf was declared; a file in
    /// that order, as every [`Tree::to_conf`] is, keeps its own.
    pub fn from_conf(text: &str) -> Result<Self, ConfError> {
        // Each leaf's name and hosts, a range of `node_names`.
        let mut leaves: Vec<(String, Range<usize>)> = Vec::new();
        let mut node_names = NameArena::default();
        let mut uppers = Vec::new();
        for (i, line) in text.lines().enumerate() {
            if let Some(raw) = parse_line(line, i + 1)? {
                // parse_line guarantees nodes XOR switches is populated.
                if let Some(nodes) = raw.nodes {
                    let first = node_names.len();
                    nodes.iter().for_each(|n| node_names.push(n));
                    leaves.push((raw.name, first..node_names.len()));
                } else if let Some(switches) = raw.switches {
                    uppers.push((raw.name, switches));
                }
            }
        }
        // The file is outside input: one host on two leaves, or twice in
        // one hostlist, would give two ids the same name.
        if let Some(name) = node_names.duplicate() {
            return Err(TreeError::DuplicateNode(name.into()).into());
        }
        // Switch names become file-order ids: leaves first, in file order,
        // then each upper, which may list only switches defined before it.
        // Ordered map: numbering never follows hash order.
        let mut ids: BTreeMap<&str, SwitchId> = BTreeMap::new();
        for (k, (name, _)) in leaves.iter().enumerate() {
            if ids.insert(name, SwitchId(k)).is_some() {
                return Err(TreeError::DuplicateChild(name.clone()).into());
            }
        }
        let mut children = Vec::with_capacity(uppers.len());
        for (i, (name, kids)) in uppers.iter().enumerate() {
            let kids: Result<Vec<SwitchId>, _> = kids
                .iter()
                .map(|c| ids.get(c.as_str()).copied().ok_or(c))
                .collect();
            children.push(kids.map_err(|c| TreeError::UnknownSwitch(c.clone()))?);
            if ids.insert(name, SwitchId(leaves.len() + i)).is_some() {
                return Err(TreeError::DuplicateChild(name.clone()).into());
            }
        }
        let name = |s: usize| match s.checked_sub(leaves.len()) {
            Some(u) => uppers[u].0.clone(),
            None => leaves[s].0.clone(),
        };
        let order = walk_order(leaves.len(), &children, name)?;
        // File leaf `order[k]` becomes leaf `k`, with its name and hosts;
        // uppers keep their ids and child lists, the leaves renumbered.
        let mut ordinal = vec![0; order.len()];
        let (mut leaf_names, mut sizes) = (Vec::new(), Vec::new());
        let mut names = NameArena::default();
        for (k, &file) in order.iter().enumerate() {
            let (name, hosts) = std::mem::take(&mut leaves[file]);
            ordinal[file] = k;
            leaf_names.push(name);
            sizes.push(hosts.len());
            hosts.for_each(|i| names.push(node_names.get(i)));
        }
        let renumber = |c: SwitchId| SwitchId(ordinal.get(c.0).copied().unwrap_or(c.0));
        let uppers = uppers
            .into_iter()
            .zip(children)
            .map(|((name, _), kids)| (name, kids.into_iter().map(renumber).collect()))
            .collect();
        Ok(Tree::from_parts(leaf_names, &sizes, Some(names), uppers))
    }

    /// Emit this topology as a `topology.conf` document.
    ///
    /// Hostlists are compressed canonically, so `from_conf(to_conf(t))`
    /// reproduces an identical tree.
    pub fn to_conf(&self) -> String {
        // Bottom-up, ties by id: a stable sort of the ids by level.
        let mut order: Vec<SwitchId> = (0..self.num_switches()).map(SwitchId).collect();
        order.sort_by_key(|s| self.switch(*s).level);
        let mut out = String::new();
        for s in order {
            let sw = self.switch(s);
            let (key, list) = if sw.children.is_empty() {
                let hosts = self.leaf_node_range(s.0).map(|n| self.node_name(NodeId(n)));
                ("Nodes", hostlist::compress(&hosts.collect::<Vec<_>>()))
            } else {
                let kids = sw.children.iter().map(|c| self.switch(*c).name.as_str());
                ("Switches", hostlist::compress(&kids.collect::<Vec<_>>()))
            };
            out.push_str(&format!("SwitchName={} {key}={list}\n", sw.name));
        }
        out
    }
}

/// Validate a conf file's switch graph as one tree, by file-order id
/// (leaves `0..leaves`, then upper `u` with `children[u]`), and return its
/// leaves in walk order ([`Tree::from_conf`]); `name` names a switch.
fn walk_order(
    leaves: usize,
    children: &[Vec<SwitchId>],
    name: impl Fn(usize) -> String,
) -> Result<Vec<usize>, TreeError> {
    if leaves == 0 {
        return Err(TreeError::Empty);
    }
    let mut has_parent = vec![false; leaves + children.len()];
    for c in children.iter().flatten() {
        if std::mem::replace(&mut has_parent[c.0], true) {
            return Err(TreeError::DuplicateChild(name(c.0)));
        }
    }
    // Parents follow their children, so the last switch is a root.
    let roots: Vec<usize> = (0..has_parent.len()).filter(|&s| !has_parent[s]).collect();
    if roots.len() > 1 {
        let names = roots.into_iter().map(name).collect();
        return Err(TreeError::MultipleRoots(names));
    }
    // The first-declared leaf under each switch; a leaf's is itself.
    let mut first: Vec<usize> = (0..leaves).collect();
    for kids in children {
        first.push(kids.iter().map(|c| first[c.0]).min().unwrap_or(usize::MAX));
    }
    let mut order = Vec::with_capacity(leaves);
    let mut stack = roots;
    while let Some(s) = stack.pop() {
        match s.checked_sub(leaves) {
            None => order.push(s),
            // Leaf children first, then switches, each by first leaf:
            // pushed in reverse, so popped in order.
            Some(u) => {
                let at = stack.len();
                stack.extend(children[u].iter().map(|c| c.0));
                stack[at..].sort_unstable_by_key(|&c| Reverse((c >= leaves, first[c])));
            }
        }
    }
    Ok(order)
}

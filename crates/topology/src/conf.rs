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

use crate::tree::{NameArena, SwitchId, Tree, TreeError};
use commsched_hostlist as hostlist;
use std::collections::BTreeMap;
use std::fmt;

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
    pub fn from_conf(text: &str) -> Result<Self, ConfError> {
        let mut leaf_names = Vec::new();
        let mut leaf_sizes = Vec::new();
        let mut node_names = NameArena::default();
        let mut uppers = Vec::new();
        for (i, line) in text.lines().enumerate() {
            if let Some(raw) = parse_line(line, i + 1)? {
                // parse_line guarantees nodes XOR switches is populated.
                if let Some(nodes) = raw.nodes {
                    leaf_names.push(raw.name);
                    leaf_sizes.push(nodes.len());
                    for n in &nodes {
                        node_names.push(n);
                    }
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
        // Switch names become the ids `from_parts` numbers: leaves first,
        // in file order, then each upper, which may list only switches
        // defined before it. Ordered map: numbering never follows hash order.
        let mut ids: BTreeMap<&str, SwitchId> = BTreeMap::new();
        for (k, name) in leaf_names.iter().enumerate() {
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
            if ids.insert(name, SwitchId(leaf_names.len() + i)).is_some() {
                return Err(TreeError::DuplicateChild(name.clone()).into());
            }
        }
        let uppers = uppers
            .into_iter()
            .map(|(name, _)| name)
            .zip(children)
            .collect();
        Ok(Tree::from_parts(
            leaf_names,
            &leaf_sizes,
            Some(node_names),
            uppers,
        )?)
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
            if sw.children.is_empty() {
                let names: Vec<_> = self
                    .leaf_nodes(self.leaf_ordinal(s))
                    .map(|n| self.node_name(n))
                    .collect();
                out.push_str(&format!(
                    "SwitchName={} Nodes={}\n",
                    sw.name,
                    hostlist::compress(&names)
                ));
            } else {
                let names: Vec<&str> = sw
                    .children
                    .iter()
                    .map(|c| self.switch(*c).name.as_str())
                    .collect();
                out.push_str(&format!(
                    "SwitchName={} Switches={}\n",
                    sw.name,
                    hostlist::compress(&names)
                ));
            }
        }
        out
    }
}

//! Tree and fat-tree cluster topologies.
//!
//! SLURM describes hierarchical networks in `topology.conf`: leaf switches
//! list their attached compute nodes, upper switches list their child
//! switches. This crate provides:
//!
//! * [`Tree`] — an immutable, validated topology with O(depth) lowest-common-
//!   ancestor queries and the paper's distance metric
//!   `d(i, j) = 2 * level(LCA)` (Eq. 4);
//! * `topology.conf` parsing and emission compatible with SLURM syntax
//!   (see [`Tree::from_conf`] / [`Tree::to_conf`]);
//! * builders for regular and irregular trees plus presets that model the
//!   systems used in the paper's evaluation: the IIT Kanpur cluster
//!   (16 nodes/leaf), a Cori-like tree (330–380 nodes/leaf), and
//!   Intrepid/Theta/Mira-scaled trees — plus the exascale classes
//!   (multi-rail fat-tree at 524,288 nodes, dragonfly-as-tree at
//!   1,048,576 nodes; DESIGN.md §4.7).
//!
//! Levels follow the paper's convention: leaf switches are level 1, their
//! parents level 2, and so on up to the root.
//!
//! # Example
//!
//! ```
//! use commsched_topology::{NodeId, Tree};
//!
//! // The fat-tree from Figure 2 of the paper: s2 over s0, s1; 4 nodes each.
//! let conf = "SwitchName=s0 Nodes=n[0-3]\n\
//!             SwitchName=s1 Nodes=n[4-7]\n\
//!             SwitchName=s2 Switches=s[0-1]\n";
//! let tree = Tree::from_conf(conf).unwrap();
//! assert_eq!(tree.num_nodes(), 8);
//! assert_eq!(tree.distance(NodeId(0), NodeId(1)), 2); // same leaf
//! assert_eq!(tree.distance(NodeId(0), NodeId(4)), 4); // via s2
//! ```

#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![cfg_attr(not(test), deny(clippy::panic, clippy::unreachable))]
mod build;
mod conf;
mod tree;

pub use build::SystemPreset;
pub use conf::ConfError;
pub use tree::{NodeId, Switch, SwitchId, Tree, TreeError};

#[cfg(test)]
mod tests;

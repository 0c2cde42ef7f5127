//! SLURM hostlist expressions.
//!
//! SLURM configuration files (notably `topology.conf`) name sets of hosts and
//! switches with compact *hostlist expressions* such as `n[0-3,5,8-9]` or
//! `rack[01-04]sw[0-1]`. This crate implements the subset of the syntax that
//! SLURM's own `hostlist_create`/`hostlist_ranged_string` support for
//! bracketed names:
//!
//! * plain names: `login1`
//! * bracketed numeric range groups with comma-separated entries:
//!   `n[0-3,7,9-12]`
//! * multiple groups expand as a cross product: `r[0-1]c[0-2]`
//! * zero padding, preserved on expansion: `n[001-010]`
//! * comma-separated concatenation of the above: `n[0-3],gpu[0-1],login1`
//!
//! The inverse operation, [`compress`], produces a canonical minimal
//! expression (sorted, padded runs merged) and round-trips with [`expand`].
//!
//! # Examples
//!
//! ```
//! use commsched_hostlist::{expand, compress};
//!
//! let hosts = expand("n[0-2,5]").unwrap();
//! assert_eq!(hosts, ["n0", "n1", "n2", "n5"]);
//! assert_eq!(compress(&hosts), "n[0-2,5]");
//! ```

#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![cfg_attr(not(test), deny(clippy::panic, clippy::unreachable))]
mod parse;

pub use parse::{compress, expand, HostlistError};

#[cfg(test)]
mod tests;

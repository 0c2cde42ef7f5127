//! Step-wise communication schedules of MPI collective algorithms.
//!
//! The paper (§3.3) keys its allocator on the *parallel algorithm* underneath
//! the application's most time-consuming MPI collective rather than on a
//! profiled communication matrix. Three algorithm families cover the MPICH
//! collectives (Thakur et al., 2005):
//!
//! * **Recursive doubling (RD)** — `MPI_Allreduce` & friends: `log2 p` steps,
//!   rank `i` pairs with `i XOR 2^k`, full vector each step.
//! * **Recursive halving with vector doubling (RHVD)** — the
//!   `MPI_Allgather` schedule the paper's name describes literally:
//!   `log2 p` steps in which the partner *distance halves* while the
//!   gathered *vector doubles*. Only the first step crosses the two halves
//!   of the rank space (the paper's §6.1 observation), and it carries the
//!   smallest payload.
//! * **Binomial tree** — `MPI_Bcast`/`MPI_Reduce`/`MPI_Gather`: `log2 p`
//!   steps, rank `i < 2^k` pairs with `i + 2^k`.
//!
//! Each schedule is a sequence of [`Step`]s: the set of rank pairs that
//! communicate *concurrently* in that step and the per-pair message size.
//! The cost model (Eq. 6) takes the per-step `max` of effective hops over
//! these pairs and sums across steps; the network simulator turns the same
//! steps into bandwidth-sharing flows.
//!
//! Every step has one closed-form description, [`StepSegments`]: a short
//! sequence of affine rank segments. [`CollectiveSpec::steps`] expands it
//! into the pair lists above; the placement evaluator, whose ranks are
//! contiguous per leaf switch, intersects it with those rank intervals
//! ([`RankParts`]) instead ([`StepSegments::for_each_part_pair`]) and never
//! lists a pair. Most XOR steps need not even that: over intervals no
//! narrower than the step's distance, their part pairs follow from each
//! part boundary's trailing zeros and each part's length
//! ([`StepSegments::narrow_xor`], [`XorLevels`]).
//!
//! Non-power-of-two rank counts use the standard MPICH reduction: the
//! `r = p - 2^⌊log2 p⌋` excess ranks fold into a power-of-two core with a
//! pre-step (and a mirror post-step for RD/RHVD), exactly the mechanism that
//! makes the paper's power-of-two *node* allocations profitable.
//!
//! The paper's future-work patterns, **ring** and **2-D stencil**, are also
//! provided ([`Pattern::Ring`], [`Pattern::Stencil2D`]).
//!
//! # Example
//!
//! ```
//! use commsched_collectives::{CollectiveSpec, Pattern};
//!
//! // 1 MiB MPI_Allgather over 8 ranks, as in the paper's Figure 1 study.
//! let spec = CollectiveSpec::new(Pattern::Rhvd, 1 << 20);
//! let steps = spec.steps(8);
//! assert_eq!(steps.len(), 3); // log2(8)
//! // First step: ranks exchange their single block with distance-4
//! // partners; later steps stay within each half with doubled payloads.
//! assert!(steps[0].pairs.contains(&(0, 4)));
//! ```

#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![cfg_attr(not(test), deny(clippy::panic, clippy::unreachable))]
mod schedule;

pub use schedule::{CollectiveSpec, Pattern, RankParts, Step, StepSegments, XorLevels};

#[cfg(test)]
mod tests;

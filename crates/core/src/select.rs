//! The four node-selection algorithms: SLURM's default best-fit baseline and
//! the paper's greedy (Alg. 1), balanced (Alg. 2) and adaptive (§4.3).
//!
//! All four descend the hierarchical free-count index (see [`crate::index`])
//! instead of scanning and sorting every switch/leaf, and each is a *fill
//! order over leaf takes*: it decides how many nodes to take from which
//! leaf, and only the chosen `(leaf ordinal, count)` list reaches
//! [`Placement`], which resolves the ids. A selection returns a
//! [`Decision`]: the placement, the switch the descent stopped at, the
//! candidates it scored and, for SA, its search statistics. A placement
//! costs O(tree height + leaves actually granted) plus, per partly occupied
//! granted leaf, a scan of its packed free bits 64 nodes at a time.
//! The pre-index linear-scan algorithms live on as the test-only
//! `select_scan` module, still building id lists node by node; the
//! property tests in `tests` assert the two choose identical node sets.
#![deny(clippy::as_conversions)]

use crate::cost::CostModel;
use crate::eval::{EvalTotals, PlacementEvaluator};
use crate::placement::Placement;
use crate::sa::{SaSelector, SaStats};
use crate::state::{ClusterState, JobId, JobNature};
use commsched_collectives::{CollectiveSpec, Pattern};
use commsched_num::{u32_of_usize, usize_of_u32};
use commsched_topology::{SwitchId, Tree};
use std::fmt;
use std::sync::{Arc, Mutex, PoisonError};

/// A node-allocation request, the paper's job parameters: size, nature and
/// (for the adaptive selector and the cost model) the dominant collective.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AllocRequest {
    /// Job being placed.
    pub job: JobId,
    /// Whole nodes requested (`select/linear` semantics).
    pub nodes: usize,
    /// Communication- or compute-intensive.
    pub nature: JobNature,
    /// Dominant collective of the job, if known. Used by
    /// [`AdaptiveSelector`] to compare candidate allocations; `None` falls
    /// back to recursive doubling with a 1 MiB vector (the paper's Figure 1
    /// message size).
    pub pattern: Option<CollectiveSpec>,
    /// Scheduling attempt (0 = first try; requeues bump it). Folded into
    /// the per-job RNG seed by [`crate::SaSelector`] so a requeued job
    /// explores a different neighbourhood than its failed attempt.
    pub attempt: u32,
}

impl AllocRequest {
    /// A communication-intensive request without an explicit pattern.
    pub fn comm(job: JobId, nodes: usize) -> Self {
        AllocRequest {
            job,
            nodes,
            nature: JobNature::CommIntensive,
            pattern: None,
            attempt: 0,
        }
    }

    /// A compute-intensive request.
    #[cfg(test)]
    pub(crate) fn compute(job: JobId, nodes: usize) -> Self {
        AllocRequest {
            job,
            nodes,
            nature: JobNature::ComputeIntensive,
            pattern: None,
            attempt: 0,
        }
    }

    /// Attach the dominant collective pattern.
    pub fn with_pattern(mut self, spec: CollectiveSpec) -> Self {
        self.pattern = Some(spec);
        self
    }

    /// The collective spec used for cost comparisons.
    pub fn spec(&self) -> CollectiveSpec {
        self.pattern
            .unwrap_or_else(|| CollectiveSpec::new(Pattern::Rd, 1 << 20))
    }
}

/// Why a selection failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SelectError {
    /// Not enough free nodes anywhere in the cluster.
    NotEnoughNodes {
        /// Nodes requested.
        requested: usize,
        /// Nodes currently free cluster-wide.
        free: usize,
    },
    /// Zero-node request.
    ZeroNodes,
}

impl fmt::Display for SelectError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::NotEnoughNodes { requested, free } => {
                write!(f, "requested {requested} nodes but only {free} are free")
            }
            Self::ZeroNodes => write!(f, "requested zero nodes"),
        }
    }
}

impl std::error::Error for SelectError {}

/// One candidate a selector scored on its way to a decision: its takes
/// (ascending by leaf ordinal) and its Eq. 6 totals, with the collective
/// and trunk discount they were scored under.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Scored {
    pub(crate) takes: Vec<(usize, u32)>,
    pub(crate) totals: EvalTotals,
    pub(crate) spec: CollectiveSpec,
    pub(crate) trunk_discount: f64,
}

/// What one selection decided: the chosen placement, the switch the
/// descent stopped at, every candidate the selector scored by Eq. 6 on
/// the way — so a caller pricing the placement (or SLURM's default from
/// the same state, Eq. 7) reuses those totals instead of scoring again —
/// and the statistics of the search that refined it, if one ran.
#[derive(Debug, Clone, PartialEq)]
pub struct Decision {
    /// The chosen nodes.
    pub placement: Placement,
    /// The lowest-level switch with enough free nodes (§3.1); every
    /// candidate lies under it.
    pub switch: SwitchId,
    pub(crate) candidates: Vec<Scored>,
    /// The annealing search behind this placement: `Some` only when
    /// [`crate::SaSelector`]'s loop ran (a comm-intensive job, a non-zero
    /// budget and more than one candidate leaf).
    pub search: Option<SaStats>,
}

impl Decision {
    /// The takes SLURM's default selector would choose from `state`, the
    /// state this decision was made in: the fewest-free-first fill under
    /// [`Self::switch`], ascending by leaf ordinal and never resolved to
    /// node ids.
    pub fn default_takes(&self, tree: &Tree, state: &ClusterState) -> Vec<(usize, u32)> {
        let want = self.placement.len();
        fill(tree, self.switch, want, || {
            fill_fewest_free_first(tree, state, self.switch, want)
        })
    }

    /// The Eq. 6 totals of `takes` if the selector scored exactly them
    /// under `spec` and `trunk_discount`; `None` means the caller scores
    /// them itself.
    pub fn scored(
        &self,
        takes: &[(usize, u32)],
        spec: &CollectiveSpec,
        trunk_discount: f64,
    ) -> Option<EvalTotals> {
        self.candidates
            .iter()
            .find(|c| {
                c.spec == *spec
                    && c.trunk_discount.to_bits() == trunk_discount.to_bits()
                    && c.takes == takes
            })
            .map(|c| c.totals)
    }
}

/// A decision whose chosen takes are not yet resolved to node runs — what
/// every selector builds, so only the winner ever reads the free bits.
#[derive(Debug)]
pub(crate) struct Choice {
    pub(crate) switch: SwitchId,
    /// The chosen takes, ascending by leaf ordinal.
    pub(crate) takes: Vec<(usize, u32)>,
    pub(crate) candidates: Vec<Scored>,
    pub(crate) search: Option<SaStats>,
}

impl Choice {
    /// The Eq. 6 totals recorded for the chosen takes, if any.
    pub(crate) fn totals(&self) -> Option<EvalTotals> {
        self.candidates
            .iter()
            .find(|c| c.takes == self.takes)
            .map(|c| c.totals)
    }

    /// Resolve the chosen takes to the lowest free ids of each leaf.
    pub(crate) fn resolve(self, tree: &Tree, state: &ClusterState) -> Decision {
        Decision {
            placement: Placement::from_takes(tree, state, self.takes),
            switch: self.switch,
            candidates: self.candidates,
            search: self.search,
        }
    }
}

/// A node-selection algorithm, SLURM's `select/linear` decision point.
///
/// Implementations must return a placement of exactly `req.nodes` free
/// nodes, or an error; they never mutate state (the caller records the
/// allocation).
pub trait NodeSelector: Send + Sync {
    /// Choose `req.nodes` free nodes for `req.job`, with the switch the
    /// choice was made under and the candidates scored on the way.
    fn decide(
        &self,
        tree: &Tree,
        state: &ClusterState,
        req: &AllocRequest,
    ) -> Result<Decision, SelectError>;

    /// Choose `req.nodes` free nodes for `req.job`: the placement of
    /// [`Self::decide`].
    fn select(
        &self,
        tree: &Tree,
        state: &ClusterState,
        req: &AllocRequest,
    ) -> Result<Placement, SelectError> {
        self.decide(tree, state, req).map(|d| d.placement)
    }
}

/// The descent every selector shares: validate the request, then find the
/// lowest-level switch whose subtree has at least `req.nodes` free nodes,
/// like SLURM's `topology/tree` plugin (§3.1). Ties at the same level break
/// toward the *fewest* free nodes (best fit), then lowest id — the
/// free-count index stores exactly that order, so the descent is
/// O(height · log switches).
fn descend(tree: &Tree, state: &ClusterState, req: &AllocRequest) -> Result<SwitchId, SelectError> {
    check_request(state, req)?;
    state
        .index()
        .lowest_level_switch(tree, req.nodes)
        .ok_or(SelectError::NotEnoughNodes {
            requested: req.nodes,
            free: state.free_total(),
        })
}

/// The takes of one fill order under `p`, ascending by leaf ordinal. A
/// leaf switch serves the whole request itself (Alg. 1 lines 3-5); under
/// any other, `order` returns `(leaf ordinal, count)` takes in its own
/// order. The three direct selectors differ only in `order`.
fn fill(
    tree: &Tree,
    p: SwitchId,
    want: usize,
    order: impl FnOnce() -> Vec<(usize, u32)>,
) -> Vec<(usize, u32)> {
    if tree.switch(p).children.is_empty() {
        return vec![(tree.leaf_ordinal(p), u32_of_usize(want))];
    }
    let mut takes = order();
    takes.retain(|&(_, count)| count > 0);
    takes.sort_unstable();
    takes
}

/// One direct selector's decision: the descent, one fill, nothing scored.
fn decide_by(
    tree: &Tree,
    state: &ClusterState,
    req: &AllocRequest,
    order: impl FnOnce(SwitchId) -> Vec<(usize, u32)>,
) -> Result<Decision, SelectError> {
    let switch = descend(tree, state, req)?;
    let takes = fill(tree, switch, req.nodes, || order(switch));
    Ok(Choice {
        switch,
        takes,
        candidates: Vec::new(),
        search: None,
    }
    .resolve(tree, state))
}

pub(crate) fn check_request(state: &ClusterState, req: &AllocRequest) -> Result<(), SelectError> {
    if req.nodes == 0 {
        return Err(SelectError::ZeroNodes);
    }
    if state.free_total() < req.nodes {
        return Err(SelectError::NotEnoughNodes {
            requested: req.nodes,
            free: state.free_total(),
        });
    }
    Ok(())
}

/// Take whole leaves in ascending `(leaf_free, ordinal)` order until the
/// request is satisfied — the shared fill of the default selector and the
/// balanced selector's compute arm, driven lazily off the index so only the
/// granted prefix of the order is ever visited.
fn fill_fewest_free_first(
    tree: &Tree,
    state: &ClusterState,
    p: SwitchId,
    want: usize,
) -> Vec<(usize, u32)> {
    let mut takes = Vec::new();
    let mut remaining = u32_of_usize(want);
    for (free, ord) in state.index().leaves_by_free(tree, p).asc() {
        if remaining == 0 {
            break;
        }
        let take = free.min(remaining);
        takes.push((usize_of_u32(ord), take));
        remaining -= take;
    }
    debug_assert_eq!(remaining, 0, "switch was checked to have enough free nodes");
    takes
}

/// SLURM's stock `topology/tree` + `select/linear` algorithm — the paper's
/// baseline ("default").
///
/// Picks the lowest-level switch with enough free nodes, then fills its leaf
/// switches in *increasing* order of free nodes (best fit, to limit
/// fragmentation), regardless of job nature.
#[derive(Debug, Clone, Copy, Default)]
pub struct DefaultTreeSelector;

impl NodeSelector for DefaultTreeSelector {
    fn decide(
        &self,
        tree: &Tree,
        state: &ClusterState,
        req: &AllocRequest,
    ) -> Result<Decision, SelectError> {
        decide_by(tree, state, req, |p| {
            fill_fewest_free_first(tree, state, p, req.nodes)
        })
    }
}

/// Algorithm 1 — greedy allocation on the least-contended leaf switches.
///
/// Communication-intensive jobs take leaves in *increasing* communication
/// ratio (Eq. 1) — least contended, most free first. Compute-intensive jobs
/// take the *decreasing* order, keeping quiet leaves free for future
/// communication-intensive jobs.
#[derive(Debug, Clone, Copy, Default)]
pub struct GreedySelector;

impl NodeSelector for GreedySelector {
    fn decide(
        &self,
        tree: &Tree,
        state: &ClusterState,
        req: &AllocRequest,
    ) -> Result<Decision, SelectError> {
        decide_by(tree, state, req, |p| fill_greedy(tree, state, p, req))
    }
}

/// Algorithm 1's fill under `p`. The index orders leaves by (ratio key,
/// ordinal) — the communication ratio under `total_cmp` with the leaf
/// ordinal as tie-break, exactly the scan baseline's sort.
/// Comm-intensive jobs walk it forward (least contended first),
/// compute-intensive backward.
fn fill_greedy(
    tree: &Tree,
    state: &ClusterState,
    p: SwitchId,
    req: &AllocRequest,
) -> Vec<(usize, u32)> {
    let mut takes = Vec::new();
    let mut remaining = u32_of_usize(req.nodes);
    let grant = |(_, ord): (u64, u32)| {
        let k = usize_of_u32(ord);
        let take = state.leaf_free(k).min(remaining);
        takes.push((k, take));
        remaining -= take;
        remaining > 0
    };
    let order = state.leaves_by_ratio(tree, p);
    if req.nature.is_comm() {
        order.asc().all(grant);
    } else {
        order.desc().all(grant);
    }
    debug_assert_eq!(remaining, 0);
    takes
}

/// Algorithm 2 — balanced allocation in powers of two per leaf switch.
///
/// Communication-intensive jobs walk the leaves in *decreasing* free-node
/// order; the per-leaf grant is the running allocation size `S` (starting at
/// the request), halved until it fits the leaf — producing the paper's
/// Table 2 split. A second pass in reverse order hands out leftovers when
/// the power-of-two discipline could not satisfy the request. Compute jobs
/// fill leaves in increasing free order with no power-of-two constraint,
/// preserving the large leaves.
#[derive(Debug, Clone, Copy, Default)]
pub struct BalancedSelector;

impl NodeSelector for BalancedSelector {
    fn decide(
        &self,
        tree: &Tree,
        state: &ClusterState,
        req: &AllocRequest,
    ) -> Result<Decision, SelectError> {
        decide_by(tree, state, req, |p| fill_balanced(tree, state, p, req))
    }
}

/// Algorithm 2's fill under `p`.
fn fill_balanced(
    tree: &Tree,
    state: &ClusterState,
    p: SwitchId,
    req: &AllocRequest,
) -> Vec<(usize, u32)> {
    if !req.nature.is_comm() {
        // Lines 29-36: compute jobs take the fullest-first (fewest
        // free) leaves without the power-of-two discipline.
        return fill_fewest_free_first(tree, state, p, req.nodes);
    }

    // Lines 9-21: decreasing free order, grant sizes halving to fit.
    // The index yields the leaves lazily in that order, so the walk
    // stops at the leaf that satisfies the request; the visited
    // prefix is complete exactly when the leftover pass below needs
    // the full list.
    let mut takes: Vec<(usize, u32)> = Vec::new();
    let mut remaining = u32_of_usize(req.nodes);
    // `S` carries over between leaves and only ever shrinks (the
    // paper's Figure 4 subdivision; this is what reproduces Table 2).
    let mut s = remaining;
    state
        .index()
        .leaves_by_free(tree, p)
        .desc()
        .all(|(f, ord)| {
            let k = usize_of_u32(ord);
            debug_assert!(f > 0);
            while s > f {
                s /= 2;
            }
            let take = s.min(remaining);
            takes.push((k, take));
            remaining -= take;
            remaining > 0
        });
    // Lines 22-27: leftovers in reverse sorted order, no constraint.
    for (k, taken) in takes.iter_mut().rev() {
        if remaining == 0 {
            break;
        }
        let take = (state.leaf_free(*k) - *taken).min(remaining);
        *taken += take;
        remaining -= take;
    }
    debug_assert_eq!(remaining, 0, "switch had enough free nodes");
    takes
}

/// §4.3 — adaptive allocation: evaluate greedy and balanced, keep the
/// cheaper one (by Eq. 6 under the job's collective pattern); for
/// compute-intensive jobs keep the *costlier* one, reserving the better
/// placement for communication-intensive work.
///
/// The what-if costs run through a [`PlacementEvaluator`] — a single fused
/// traversal per candidate, no cluster-state clone — and both totals ride
/// the [`Decision`].
#[derive(Debug, Clone)]
pub struct AdaptiveSelector {
    /// Cost model used for the comparison (hops vs hop-bytes).
    pub cost: CostModel,
    eval: Arc<Mutex<PlacementEvaluator>>,
}

impl Default for AdaptiveSelector {
    /// Compares by hop-bytes — the §5.3 estimate of communication *time*,
    /// which is what §4.3 says the adaptive algorithm minimizes. (The
    /// reported Eq. 6 cost is raw hops, so adaptive can occasionally show
    /// slightly higher reported cost than balanced — the anomaly the paper
    /// itself observes in §6.4.)
    fn default() -> Self {
        AdaptiveSelector::with_evaluator(
            CostModel::HOP_BYTES,
            Arc::new(Mutex::new(PlacementEvaluator::new())),
        )
    }
}

impl AdaptiveSelector {
    /// Adaptive selection scoring through `eval`. An evaluator keeps no
    /// results between calls, so sharing one only shares its buffers, and
    /// a lock poisoned by a panic elsewhere guards nothing stale.
    pub fn with_evaluator(cost: CostModel, eval: Arc<Mutex<PlacementEvaluator>>) -> Self {
        AdaptiveSelector { cost, eval }
    }
}

/// The §4.3 rule, shared by [`AdaptiveSelector`] and the incumbent of
/// [`crate::SaSelector`]: one descent, greedy and balanced filled under its
/// switch and scored under `cost` through `eval`, the cheaper kept for a
/// communication-intensive job (balanced on ties) and the costlier for a
/// compute-intensive one. Both candidates are scored unless they coincide,
/// in which case nothing is.
pub(crate) fn adaptive_choice(
    cost: &CostModel,
    eval: &mut PlacementEvaluator,
    tree: &Tree,
    state: &ClusterState,
    req: &AllocRequest,
) -> Result<Choice, SelectError> {
    let switch = descend(tree, state, req)?;
    let greedy = fill(tree, switch, req.nodes, || {
        fill_greedy(tree, state, switch, req)
    });
    let balanced = fill(tree, switch, req.nodes, || {
        fill_balanced(tree, state, switch, req)
    });
    if greedy == balanced {
        return Ok(Choice {
            switch,
            takes: balanced,
            candidates: Vec::new(),
            search: None,
        });
    }
    let spec = req.spec();
    let mut score = |takes: Vec<(usize, u32)>| Scored {
        totals: eval.evaluate_takes(tree, state, cost.trunk_discount, &takes, &spec),
        takes,
        spec,
        trunk_discount: cost.trunk_discount,
    };
    let scored = vec![score(greedy), score(balanced)];
    let (cost_g, cost_b) = (
        scored[0].totals.for_model(cost),
        scored[1].totals.for_model(cost),
    );
    let take_balanced = if req.nature.is_comm() {
        cost_b <= cost_g
    } else {
        cost_b > cost_g
    };
    Ok(Choice {
        switch,
        takes: scored[usize::from(take_balanced)].takes.clone(),
        candidates: scored,
        search: None,
    })
}

impl NodeSelector for AdaptiveSelector {
    fn decide(
        &self,
        tree: &Tree,
        state: &ClusterState,
        req: &AllocRequest,
    ) -> Result<Decision, SelectError> {
        let mut eval = self.eval.lock().unwrap_or_else(PoisonError::into_inner);
        adaptive_choice(&self.cost, &mut eval, tree, state, req).map(|c| c.resolve(tree, state))
    }
}

/// The selectors, each with its configuration, for CLI/bench plumbing: the
/// paper's four (which have none) plus the annealed refinement.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SelectorKind {
    /// SLURM stock best-fit ([`DefaultTreeSelector`]).
    Default,
    /// Algorithm 1 ([`GreedySelector`]).
    Greedy,
    /// Algorithm 2 ([`BalancedSelector`]).
    Balanced,
    /// §4.3 ([`AdaptiveSelector`]).
    Adaptive,
    /// Budgeted simulated-annealing refinement of the adaptive incumbent,
    /// with its budget and seed ([`SaSelector`], DESIGN.md §4.10).
    /// Not part of [`SelectorKind::ALL`]: the paper's sweeps compare its
    /// four selectors, SA rides the dedicated `tournament` experiment.
    Sa(SaSelector),
}

impl SelectorKind {
    /// All four, in the paper's reporting order.
    pub const ALL: [SelectorKind; 4] = [
        SelectorKind::Default,
        SelectorKind::Greedy,
        SelectorKind::Balanced,
        SelectorKind::Adaptive,
    ];

    /// The paper's three proposed algorithms (everything but the baseline).
    pub const PROPOSED: [SelectorKind; 3] = [
        SelectorKind::Greedy,
        SelectorKind::Balanced,
        SelectorKind::Adaptive,
    ];

    /// Instantiate the selector.
    pub fn build(self) -> Box<dyn NodeSelector> {
        match self {
            SelectorKind::Default => Box::new(DefaultTreeSelector),
            SelectorKind::Greedy => Box::new(GreedySelector),
            SelectorKind::Balanced => Box::new(BalancedSelector),
            SelectorKind::Adaptive => Box::new(AdaptiveSelector::default()),
            SelectorKind::Sa(sa) => Box::new(sa),
        }
    }

    /// Stable lower-case name.
    pub fn name(self) -> &'static str {
        match self {
            SelectorKind::Default => "default",
            SelectorKind::Greedy => "greedy",
            SelectorKind::Balanced => "balanced",
            SelectorKind::Adaptive => "adaptive",
            SelectorKind::Sa(_) => "sa",
        }
    }
}

impl fmt::Display for SelectorKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

impl std::str::FromStr for SelectorKind {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.to_ascii_lowercase().as_str() {
            "default" | "slurm" => Ok(SelectorKind::Default),
            "greedy" => Ok(SelectorKind::Greedy),
            "balanced" => Ok(SelectorKind::Balanced),
            "adaptive" => Ok(SelectorKind::Adaptive),
            "sa" | "anneal" => Ok(SelectorKind::Sa(SaSelector::default())),
            other => Err(format!("unknown selector {other:?}")),
        }
    }
}

//! The fluid flow simulator: routing, max–min rate allocation, event loop.
//!
//! # Hot-path architecture
//!
//! The simulator spends essentially all of its time reacting to events
//! (a flow drains, a step's overhead gate opens, a job arrives) and
//! recomputing max–min fair rates. Three structures keep that loop
//! allocation-free and sub-linear in the machine size:
//!
//! * **Route arena** ([`RouteArena`]): every flow's route is a contiguous
//!   slice of one shared `LinkId` buffer (CSR style), written in place when
//!   a step's flows are created — no per-flow `Vec` allocations. Retired
//!   flows leave dead segments; the arena compacts itself once more than
//!   half the buffer is dead.
//! * **Maintained link index** ([`RunState::link_flows`]): the set of
//!   *active* flows crossing each link is kept up to date on every flow
//!   activation/retirement instead of being rebuilt from scratch at each
//!   event; its length is the per-link active-flow count the solver needs.
//! * **Dirty-link frontier solver** ([`FlowSim::solve_incremental`]): an
//!   event only changes rates for flows connected to the changed links
//!   through shared-link connectivity (max–min allocations decompose across
//!   connected components of the flow/link graph). The solver BFSes from
//!   the dirty links, re-waterfills just the affected component(s), and
//!   leaves every other flow's rate untouched. The full-fixpoint reference
//!   solver survives as a `#[cfg(test)]` oracle (`solve_naive`) and the
//!   two are property-tested for exact rate equality.
#![deny(clippy::as_conversions)]

use commsched_collectives::{CollectiveSpec, Pattern, Step};
use commsched_num::{f64_of_u64, i32_of_u32, u32_of_usize, u64_of_f64, u64_of_usize, usize_of_u32};
use commsched_topology::{NodeId, SwitchId, Tree};
use commsched_trace::{EventClass, EventKind as TK, NullRecorder, Recorder, Tracer};
use serde::Serialize;

/// Link capacities and protocol overheads.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct NetConfig {
    /// Capacity of a node↔leaf link, bytes/second per direction.
    pub node_bandwidth: f64,
    /// Capacity multiplier for a switch↔parent link at level `l` (the
    /// leaf's uplink is level 1): `node_bandwidth * trunk_factor^l`.
    /// `1.0` models the paper's department cluster (1G everywhere, heavy
    /// contention on uplinks); `2.0` models a fat-tree that doubles upward.
    pub trunk_factor: f64,
    /// Fixed per-step synchronization overhead in seconds (MPI call and
    /// switch latency); keeps tiny-message steps from completing in 0 time.
    pub step_overhead: f64,
    /// Aggregate switching fabric of each *leaf* switch, as a multiple of
    /// `node_bandwidth`: every flow entering or leaving a leaf consumes a
    /// share of its backplane. `None` models a non-blocking switch (the
    /// default). Cheap department-cluster switches are oversubscribed —
    /// the effect behind the paper's same-leaf contention term (Eq. 2).
    pub backplane_factor: Option<f64>,
}

impl NetConfig {
    /// 1 Gbit/s Ethernet everywhere — the IIT Kanpur department cluster of
    /// the Figure 1 study.
    pub fn gigabit_ethernet() -> Self {
        NetConfig {
            node_bandwidth: 125.0e6, // 1 Gb/s in bytes/s
            trunk_factor: 1.0,
            step_overhead: 100.0e-6,
            backplane_factor: None,
        }
    }

    /// A department cluster with oversubscribed leaf switches: 1 Gb/s
    /// links but only 6 line-rates of fabric per leaf. Same-leaf traffic
    /// now contends, as Eq. 2 assumes.
    pub fn cheap_ethernet() -> Self {
        NetConfig {
            backplane_factor: Some(6.0),
            ..Self::gigabit_ethernet()
        }
    }
}

/// One collective job to simulate: a node set, the collective it runs, when
/// it is submitted, and how many back-to-back iterations it performs.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct Workload {
    /// Caller-chosen id, reported back in [`JobResult`].
    pub id: u64,
    /// Nodes the job occupies; rank `r` runs on `nodes[r]` after sorting.
    pub nodes: Vec<NodeId>,
    /// The collective and its message size.
    pub spec: CollectiveSpec,
    /// Submission time in seconds.
    pub submit: f64,
    /// Back-to-back iterations of the collective (≥ 1).
    pub iterations: usize,
}

/// Timing of one iteration of a job's collective.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct IterationSample {
    /// Wall-clock second the iteration started.
    pub start: f64,
    /// Seconds the iteration took.
    pub duration: f64,
}

/// Completed-job report.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct JobResult {
    /// Id from the [`Workload`].
    pub id: u64,
    /// Submission time (the job starts immediately; netsim has no queue).
    pub submit: f64,
    /// Completion time of the last iteration.
    pub end: f64,
    /// Per-iteration timings — the Figure 1 series.
    pub iterations: Vec<IterationSample>,
}

/// Directed-link id space: `2*n`/`2*n+1` are node `n`'s up/down links;
/// switch `s`'s up/down links to its parent follow.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct LinkId(usize);

/// One directed flow. Its route lives in the [`RouteArena`] as the
/// half-open slice `route.0..route.1`.
#[derive(Debug, Clone)]
struct Flow {
    route: (u32, u32),
    remaining: f64,
    rate: f64,
    job_idx: usize,
    /// Whether the step's overhead gate has opened for this flow. Inactive
    /// flows hold rate 0 and do not appear in the link index.
    active: bool,
}

#[derive(Debug)]
struct ActiveJob {
    workload_idx: usize,
    steps: Vec<Step>,
    /// Sorted node list; rank r -> ranked[r].
    ranked: Vec<NodeId>,
    step_idx: usize,
    iter_idx: usize,
    iter_start: f64,
    /// When the current step's overhead gate opens (flows start draining).
    gate: f64,
    flows_left: usize,
    samples: Vec<IterationSample>,
    done: bool,
}

const EPS: f64 = 1e-9;

/// CSR-style route storage shared by all live flows of a run.
#[derive(Debug, Default)]
struct RouteArena {
    links: Vec<LinkId>,
    /// Link slots owned by retired flows, reclaimed by compaction.
    dead: usize,
}

impl RouteArena {
    #[inline]
    fn slice(&self, route: (u32, u32)) -> &[LinkId] {
        &self.links[usize_of_u32(route.0)..usize_of_u32(route.1)]
    }

    /// Copying compaction: drop dead segments once they dominate the
    /// buffer, rewriting the surviving flows' ranges. Amortized O(1) per
    /// retired link slot.
    fn maybe_compact(&mut self, flows: &mut [Flow]) {
        if self.dead < 4096 || self.dead * 2 < self.links.len() {
            return;
        }
        let mut packed = Vec::with_capacity(self.links.len() - self.dead);
        for f in flows.iter_mut() {
            let start = u32_of_usize(packed.len());
            packed.extend_from_slice(self.slice(f.route));
            f.route = (start, u32_of_usize(packed.len()));
        }
        self.links = packed;
        self.dead = 0;
    }
}

/// Per-run mutable simulation state: flow table, route arena, and the
/// incrementally maintained per-link index of active flows.
struct RunState {
    flows: Vec<Flow>,
    arena: RouteArena,
    /// Indices of the *active* flows crossing each link; `len()` is the
    /// maintained per-link active-flow count. Updated on activation and
    /// retirement, never rebuilt from scratch.
    link_flows: Vec<Vec<u32>>,
    /// Links whose active-flow set changed since the last rate solve.
    dirty_links: Vec<usize>,
    dirty_mark: Vec<bool>,
}

impl RunState {
    fn new(nlinks: usize) -> Self {
        RunState {
            flows: Vec::new(),
            arena: RouteArena::default(),
            link_flows: vec![Vec::new(); nlinks],
            dirty_links: Vec::new(),
            dirty_mark: vec![false; nlinks],
        }
    }

    #[inline]
    fn mark_dirty(&mut self, l: usize) {
        if !self.dirty_mark[l] {
            self.dirty_mark[l] = true;
            self.dirty_links.push(l);
        }
    }

    fn clear_dirty(&mut self) {
        for &l in &self.dirty_links {
            self.dirty_mark[l] = false;
        }
        self.dirty_links.clear();
    }

    /// Open the gate for flow `f`: index it on its links and mark them
    /// dirty for the next solve.
    fn activate(&mut self, f: usize) {
        debug_assert!(!self.flows[f].active);
        self.flows[f].active = true;
        let (a, b) = self.flows[f].route;
        for i in a..b {
            let l = self.arena.links[usize_of_u32(i)].0;
            self.link_flows[l].push(u32_of_usize(f));
            self.mark_dirty(l);
        }
    }

    /// Retire flow `f` (drained): unlink it, mark its links dirty, and
    /// reclaim its arena segment lazily.
    fn remove_flow(&mut self, f: usize) {
        let (a, b) = self.flows[f].route;
        if self.flows[f].active {
            for i in a..b {
                let l = self.arena.links[usize_of_u32(i)].0;
                #[expect(
                    clippy::expect_used,
                    reason = "activate() indexed this flow on every link of its route; absence is memory corruption"
                )]
                let pos = self.link_flows[l]
                    .iter()
                    .position(|&x| x == u32_of_usize(f))
                    .expect("active flow is indexed on each of its links");
                self.link_flows[l].swap_remove(pos);
                self.mark_dirty(l);
            }
        }
        self.arena.dead += usize_of_u32(b - a);
        self.flows.swap_remove(f);
        // The flow formerly at the tail now sits at `f`; repoint its index
        // entries.
        if f < self.flows.len() {
            let old = u32_of_usize(self.flows.len());
            if self.flows[f].active {
                let (a, b) = self.flows[f].route;
                for i in a..b {
                    let l = self.arena.links[usize_of_u32(i)].0;
                    #[expect(
                        clippy::expect_used,
                        reason = "the tail flow was active, so it is indexed on each of its links by construction"
                    )]
                    let pos = self.link_flows[l]
                        .iter()
                        .position(|&x| x == old)
                        .expect("moved flow is indexed on each of its links");
                    self.link_flows[l][pos] = u32_of_usize(f);
                }
            }
        }
        self.arena.maybe_compact(&mut self.flows);
    }
}

/// Reusable solver scratch — allocated once per run, epoch-stamped so the
/// incremental solver never clears whole-machine-sized arrays per event.
struct SolverScratch {
    residual: Vec<f64>,
    load: Vec<u32>,
    link_epoch: Vec<u32>,
    flow_epoch: Vec<u32>,
    epoch: u32,
    /// Links / flows of the component currently being waterfilled.
    affected_links: Vec<usize>,
    affected_flows: Vec<usize>,
    frozen: Vec<bool>,
    /// Positions (into `affected_flows`) frozen in the current round.
    round: Vec<usize>,
    /// The reference solver's from-scratch load rebuild, checked against
    /// the maintained `link_flows` index.
    #[cfg(test)]
    naive_load: Vec<u32>,
}

impl SolverScratch {
    fn new(nlinks: usize) -> Self {
        SolverScratch {
            residual: vec![0.0; nlinks],
            load: vec![0; nlinks],
            link_epoch: vec![0; nlinks],
            flow_epoch: Vec::new(),
            epoch: 0,
            affected_links: Vec::new(),
            affected_flows: Vec::new(),
            frozen: Vec::new(),
            round: Vec::new(),
            #[cfg(test)]
            naive_load: vec![0; nlinks],
        }
    }

    fn next_epoch(&mut self) -> u32 {
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            self.link_epoch.fill(0);
            self.flow_epoch.fill(0);
            self.epoch = 1;
        }
        self.epoch
    }
}

/// Fluid-flow simulator over a [`Tree`].
///
/// Construct once per topology; [`FlowSim::run`] is `&self` and can be
/// called repeatedly with different workloads.
pub struct FlowSim<'t> {
    tree: &'t Tree,
    cfg: NetConfig,
    /// Capacity per directed link: the [`Tree`] numbering, then one
    /// backplane link per leaf when those are modelled.
    capacity: Vec<f64>,
    /// Leaf-backplane link base index (`usize::MAX` when disabled).
    backplane_base: usize,
    /// Drive the event loop with the reference fixpoint
    /// ([`FlowSim::solve_naive`]) instead of the incremental solver.
    #[cfg(test)]
    reference_solver: bool,
}

impl<'t> FlowSim<'t> {
    /// Build the link table for `tree` under `cfg`.
    pub fn new(tree: &'t Tree, cfg: NetConfig) -> Self {
        assert!(cfg.node_bandwidth > 0.0 && cfg.trunk_factor > 0.0);
        let mut capacity = vec![cfg.node_bandwidth; tree.num_directed_links()];
        for s in (0..tree.num_switches()).map(SwitchId) {
            let level = tree.switch(s).level;
            let cap = cfg.node_bandwidth * cfg.trunk_factor.powi(i32_of_u32(level));
            capacity[tree.switch_uplink(s)] = cap;
            capacity[tree.switch_downlink(s)] = cap;
        }
        let backplane_base = if let Some(factor) = cfg.backplane_factor {
            assert!(factor > 0.0, "backplane factor must be positive");
            let base = capacity.len();
            capacity.extend(std::iter::repeat_n(
                cfg.node_bandwidth * factor,
                tree.num_leaves(),
            ));
            base
        } else {
            usize::MAX
        };
        FlowSim {
            tree,
            cfg,
            capacity,
            backplane_base,
            #[cfg(test)]
            reference_solver: false,
        }
    }

    /// The same simulator driven by the reference fixpoint — the oracle
    /// side of the solver-equivalence tests.
    #[cfg(test)]
    pub(crate) fn with_reference_solver(mut self) -> Self {
        self.reference_solver = true;
        self
    }

    /// Append the route from `src` to `dst` — up-links to the LCA, then
    /// down-links — to the arena buffer, returning the written range.
    fn route_into(&self, src: NodeId, dst: NodeId, arena: &mut Vec<LinkId>) -> (u32, u32) {
        let start = u32_of_usize(arena.len());
        arena.push(LinkId(self.tree.node_uplink(src)));
        let lca = self.tree.lca(src, dst);
        let mut s = self.tree.leaf_of(src);
        #[expect(
            clippy::expect_used,
            reason = "the walk stops at the LCA, which is a strict ancestor, so every switch visited has a parent"
        )]
        while s != lca {
            arena.push(LinkId(self.tree.switch_uplink(s)));
            s = self.tree.switch(s).parent.expect("LCA above leaf");
        }
        // Down-links are discovered leaf-upward; reverse in place to get
        // LCA-downward order.
        let down_start = arena.len();
        let mut d = self.tree.leaf_of(dst);
        #[expect(clippy::expect_used, reason = "same LCA-ancestor argument as above")]
        while d != lca {
            arena.push(LinkId(self.tree.switch_downlink(d)));
            d = self.tree.switch(d).parent.expect("LCA above leaf");
        }
        arena[down_start..].reverse();
        arena.push(LinkId(self.tree.node_downlink(dst)));
        if self.backplane_base != usize::MAX {
            let a = self.tree.leaf_ordinal_of(src);
            let b = self.tree.leaf_ordinal_of(dst);
            arena.push(LinkId(self.backplane_base + a));
            if b != a {
                arena.push(LinkId(self.backplane_base + b));
            }
        }
        (start, u32_of_usize(arena.len()))
    }

    /// BFS one connected component of the flow/link sharing graph into
    /// `sc.affected_links` / `sc.affected_flows`, starting from the links
    /// queued at `sc.affected_links[link_head..]`. Uses epoch stamps, so
    /// components already visited this solve are skipped for free.
    fn collect_component(&self, rs: &RunState, sc: &mut SolverScratch, mut head: usize) {
        let epoch = sc.epoch;
        while head < sc.affected_links.len() {
            let l = sc.affected_links[head];
            head += 1;
            for k in 0..rs.link_flows[l].len() {
                let f = usize_of_u32(rs.link_flows[l][k]);
                if sc.flow_epoch[f] == epoch {
                    continue;
                }
                sc.flow_epoch[f] = epoch;
                sc.affected_flows.push(f);
                let (a, b) = rs.flows[f].route;
                for i in a..b {
                    let l2 = rs.arena.links[usize_of_u32(i)].0;
                    if sc.link_epoch[l2] != epoch {
                        sc.link_epoch[l2] = epoch;
                        sc.affected_links.push(l2);
                    }
                }
            }
        }
    }

    /// Max–min progressive filling over one component
    /// (`sc.affected_links` / `sc.affected_flows`), writing each flow's
    /// bottleneck share into its rate.
    ///
    /// Each round computes the component's bottleneck share, then freezes
    /// in **two phases**: first decide the freeze set against the
    /// *pre-round* residuals, then apply all the subtractions. That makes
    /// the result a pure function of the component's {links, loads,
    /// capacities} — independent of flow visit order and of when (or with
    /// what else) the component is solved — which is what lets the
    /// incremental solver skip untouched components and still match the
    /// full fixpoint bit for bit. (In real arithmetic the two phases are
    /// equivalent: freezing a flow can only *raise* the remaining shares
    /// on its links, never pull a new link under the bottleneck; the
    /// mid-round cascade of a single-phase loop only fires on
    /// floating-point noise at the tolerance edge, and then depends on
    /// visit order.)
    fn waterfill(&self, rs: &mut RunState, sc: &mut SolverScratch) {
        for &l in &sc.affected_links {
            sc.residual[l] = self.capacity[l];
            sc.load[l] = u32_of_usize(rs.link_flows[l].len());
        }
        sc.frozen.clear();
        sc.frozen.resize(sc.affected_flows.len(), false);
        let mut left = sc.affected_flows.len();
        while left > 0 {
            // Bottleneck: minimal residual share among loaded links.
            let mut share = f64::INFINITY;
            for &l in &sc.affected_links {
                if sc.load[l] > 0 {
                    let s = sc.residual[l] / f64::from(sc.load[l]);
                    if s < share {
                        share = s;
                    }
                }
            }
            debug_assert!(share.is_finite());
            // Phase 1: the freeze set, judged on pre-round residuals only.
            sc.round.clear();
            for k in 0..sc.affected_flows.len() {
                if sc.frozen[k] {
                    continue;
                }
                let f = sc.affected_flows[k];
                let bottlenecked = rs.arena.slice(rs.flows[f].route).iter().any(|l| {
                    sc.load[l.0] > 0
                        && sc.residual[l.0] / f64::from(sc.load[l.0]) <= share * (1.0 + 1e-12)
                });
                if bottlenecked {
                    sc.round.push(k);
                }
            }
            // The argmin link's flows always pass the test, so every round
            // makes progress.
            debug_assert!(!sc.round.is_empty(), "progressive filling stalled");
            if sc.round.is_empty() {
                break;
            }
            // Phase 2: apply.
            left -= sc.round.len();
            for ri in 0..sc.round.len() {
                let k = sc.round[ri];
                sc.frozen[k] = true;
                let f = sc.affected_flows[k];
                rs.flows[f].rate = share;
                for l in rs.arena.slice(rs.flows[f].route) {
                    sc.residual[l.0] = (sc.residual[l.0] - share).max(0.0);
                    sc.load[l.0] -= 1;
                }
            }
        }
    }

    /// The dirty-link frontier solver. For each link whose active-flow set
    /// changed since the last solve, BFS the connected component of flows
    /// and links around it and re-waterfill that component alone. Flows in
    /// untouched components keep their rates: max–min allocations
    /// decompose across connected components of the flow/link sharing
    /// graph, and the per-component waterfill is a pure function of the
    /// component, so an untouched component would recompute to exactly the
    /// rates it already holds.
    /// Returns `(components re-solved, flows re-rated)` — observability
    /// counts that fall out of the work already done.
    fn solve_incremental(&self, rs: &mut RunState, sc: &mut SolverScratch) -> (u64, u64) {
        if rs.dirty_links.is_empty() {
            return (0, 0);
        }
        sc.next_epoch();
        if sc.flow_epoch.len() < rs.flows.len() {
            sc.flow_epoch.resize(rs.flows.len(), 0);
        }
        let epoch = sc.epoch;
        let (mut components, mut rerated) = (0u64, 0u64);
        for di in 0..rs.dirty_links.len() {
            let l = rs.dirty_links[di];
            if sc.link_epoch[l] == epoch {
                continue; // already solved as part of an earlier component
            }
            sc.affected_links.clear();
            sc.affected_flows.clear();
            sc.link_epoch[l] = epoch;
            sc.affected_links.push(l);
            self.collect_component(rs, sc, 0);
            if !sc.affected_flows.is_empty() {
                self.waterfill(rs, sc);
                components += 1;
                rerated += u64_of_usize(sc.affected_flows.len());
            }
        }
        rs.clear_dirty();
        (components, rerated)
    }

    /// The reference solver: rebuild every per-link load from scratch and
    /// re-waterfill every component at every event — the pre-optimization
    /// O(links + flows) + O(rounds × links × flows) fixpoint the
    /// incremental solver is property-tested against. Inactive flows are
    /// pinned at rate 0.
    /// Returns `(components re-solved, flows re-rated)`, like
    /// [`FlowSim::solve_incremental`].
    #[cfg(test)]
    fn solve_naive(&self, rs: &mut RunState, sc: &mut SolverScratch) -> (u64, u64) {
        // The from-scratch rebuild the maintained `link_flows` index
        // replaces, checked against it.
        sc.naive_load.fill(0);
        for flow in rs.flows.iter() {
            if flow.active {
                for l in rs.arena.slice(flow.route) {
                    sc.naive_load[l.0] += 1;
                }
            }
        }
        debug_assert!((0..self.capacity.len())
            .all(|l| usize_of_u32(sc.naive_load[l]) == rs.link_flows[l].len()));
        for flow in rs.flows.iter_mut() {
            if !flow.active {
                flow.rate = 0.0;
            }
        }
        sc.next_epoch();
        if sc.flow_epoch.len() < rs.flows.len() {
            sc.flow_epoch.resize(rs.flows.len(), 0);
        }
        let epoch = sc.epoch;
        let (mut components, mut rerated) = (0u64, 0u64);
        for f in 0..rs.flows.len() {
            if !rs.flows[f].active || sc.flow_epoch[f] == epoch {
                continue;
            }
            sc.affected_links.clear();
            sc.affected_flows.clear();
            sc.flow_epoch[f] = epoch;
            sc.affected_flows.push(f);
            let (a, b) = rs.flows[f].route;
            for i in a..b {
                let l = rs.arena.links[usize_of_u32(i)].0;
                if sc.link_epoch[l] != epoch {
                    sc.link_epoch[l] = epoch;
                    sc.affected_links.push(l);
                }
            }
            self.collect_component(rs, sc, 0);
            self.waterfill(rs, sc);
            components += 1;
            rerated += u64_of_usize(sc.affected_flows.len());
        }
        rs.clear_dirty();
        (components, rerated)
    }

    /// Re-solve max–min rates after an event.
    fn solve(&self, rs: &mut RunState, sc: &mut SolverScratch) -> (u64, u64) {
        #[cfg(test)]
        if self.reference_solver {
            return self.solve_naive(rs, sc);
        }
        self.solve_incremental(rs, sc)
    }

    /// Simulate the workloads to completion and report per-job results.
    ///
    /// Jobs start at their submit times (there is no queue here — queueing
    /// is `commsched-slurmsim`'s business) and run their iterations back to
    /// back. Completed jobs are reported in workload order.
    pub fn run(&self, workloads: Vec<Workload>) -> Vec<JobResult> {
        self.run_traced(workloads, &mut NullRecorder)
    }

    /// Like [`FlowSim::run`], emitting solver records (`net_solve`,
    /// `net_rates`, `net_links` events) to `recorder` after every rate
    /// re-solve. Timestamps are the simulation clock in microseconds, so a
    /// netsim trace interleaves cleanly with a scheduler trace. With a
    /// masked-out sink the per-event cost is one integer test; the
    /// link-occupancy scan behind `net_links` runs only when the `net`
    /// class is recorded.
    pub fn run_traced(
        &self,
        workloads: Vec<Workload>,
        recorder: &mut dyn Recorder,
    ) -> Vec<JobResult> {
        self.run_impl(workloads, None, recorder)
    }

    /// Run and record the full per-flow rate vector after every solve — the
    /// observable the solver-equivalence property tests compare.
    #[cfg(test)]
    pub(crate) fn run_tracing_rates(
        &self,
        workloads: Vec<Workload>,
    ) -> (Vec<JobResult>, Vec<Vec<f64>>) {
        let mut trace = Vec::new();
        let results = self.run_impl(workloads, Some(&mut trace), &mut NullRecorder);
        (results, trace)
    }

    fn run_impl(
        &self,
        workloads: Vec<Workload>,
        mut rate_trace: Option<&mut Vec<Vec<f64>>>,
        recorder: &mut dyn Recorder,
    ) -> Vec<JobResult> {
        let mut tracer = Tracer::new(recorder);
        let mut jobs: Vec<ActiveJob> = workloads
            .iter()
            .enumerate()
            .map(|(i, w)| {
                assert!(w.iterations >= 1, "iterations must be >= 1");
                let mut ranked = w.nodes.clone();
                ranked.sort_unstable();
                ranked.dedup();
                ActiveJob {
                    workload_idx: i,
                    steps: w.spec.steps(ranked.len()),
                    ranked,
                    step_idx: 0,
                    iter_idx: 0,
                    iter_start: w.submit,
                    gate: 0.0,
                    flows_left: 0,
                    samples: Vec::new(),
                    done: false,
                }
            })
            .collect();

        // Arrival order.
        let mut arrivals: Vec<usize> = (0..jobs.len()).collect();
        arrivals.sort_by(|&a, &b| workloads[a].submit.total_cmp(&workloads[b].submit));
        let mut next_arrival = 0usize;

        let mut rs = RunState::new(self.capacity.len());
        let mut sc = SolverScratch::new(self.capacity.len());
        let mut now = 0.0f64;

        // Start a job's current step: write its flows into the arena, set
        // the overhead gate. RD/RHVD/ring/stencil pairs exchange in both
        // directions; binomial sends one way (lower rank holds the data in
        // every step of the schedule).
        fn start_step(
            sim: &FlowSim<'_>,
            jobs: &mut [ActiveJob],
            rs: &mut RunState,
            workloads: &[Workload],
            j: usize,
            now: f64,
        ) {
            loop {
                let job = &mut jobs[j];
                if job.done {
                    return;
                }
                if job.step_idx >= job.steps.len() {
                    // Iteration finished.
                    job.samples.push(IterationSample {
                        start: job.iter_start,
                        duration: now - job.iter_start,
                    });
                    job.iter_idx += 1;
                    if job.iter_idx >= workloads[job.workload_idx].iterations {
                        job.done = true;
                        return;
                    }
                    job.step_idx = 0;
                    job.iter_start = now;
                }
                let step = &job.steps[job.step_idx];
                let pattern = workloads[job.workload_idx].spec.pattern;
                let bidirectional = !matches!(pattern, Pattern::Binomial);
                job.gate = now + sim.cfg.step_overhead;
                let active_now = now + EPS >= job.gate;
                let mut created = 0usize;
                for &(a, b) in &step.pairs {
                    let (na, nb) = (job.ranked[a], job.ranked[b]);
                    if na == nb {
                        continue;
                    }
                    let route = sim.route_into(na, nb, &mut rs.arena.links);
                    rs.flows.push(Flow {
                        route,
                        remaining: f64_of_u64(step.msize),
                        rate: 0.0,
                        job_idx: j,
                        active: false,
                    });
                    if active_now {
                        rs.activate(rs.flows.len() - 1);
                    }
                    created += 1;
                    if bidirectional {
                        let route = sim.route_into(nb, na, &mut rs.arena.links);
                        rs.flows.push(Flow {
                            route,
                            remaining: f64_of_u64(step.msize),
                            rate: 0.0,
                            job_idx: j,
                            active: false,
                        });
                        if active_now {
                            rs.activate(rs.flows.len() - 1);
                        }
                        created += 1;
                    }
                }
                job.flows_left = created;
                if created == 0 {
                    // Degenerate step (no pairs, e.g. single-node job):
                    // consume the overhead and move on immediately. The
                    // overhead gate is modelled as instantaneous here to
                    // keep the loop simple; empty steps are rare.
                    job.step_idx += 1;
                    continue;
                }
                return;
            }
        }

        loop {
            // Admit arrivals that are due.
            while next_arrival < arrivals.len()
                && workloads[arrivals[next_arrival]].submit <= now + EPS
            {
                let j = arrivals[next_arrival];
                jobs[j].iter_start = workloads[j].submit.max(now);
                if jobs[j].steps.is_empty() || jobs[j].ranked.len() <= 1 {
                    // Nothing to communicate: all iterations are instant.
                    for _ in 0..workloads[j].iterations {
                        jobs[j].samples.push(IterationSample {
                            start: now,
                            duration: 0.0,
                        });
                    }
                    jobs[j].done = true;
                } else {
                    start_step(self, &mut jobs, &mut rs, &workloads, j, now);
                }
                next_arrival += 1;
            }

            if rs.flows.is_empty() && next_arrival >= arrivals.len() {
                break;
            }

            // Open the gates that have expired; rates for newly active
            // flows (and anything sharing links with them) are solved next.
            for f in 0..rs.flows.len() {
                if !rs.flows[f].active && now + EPS >= jobs[rs.flows[f].job_idx].gate {
                    rs.activate(f);
                }
            }

            let dirty = rs.dirty_links.len();
            let (components, rerated) = self.solve(&mut rs, &mut sc);
            if let Some(trace) = rate_trace.as_deref_mut() {
                trace.push(rs.flows.iter().map(|f| f.rate).collect());
            }
            if dirty > 0 && tracer.enabled(EventClass::Net) {
                // Simulation seconds → whole microseconds; the trace clock
                // shared with the scheduling engine.
                let t_us = u64_of_f64((now * 1e6).round());
                tracer.emit(
                    t_us,
                    TK::NetSolve {
                        components,
                        flows: rerated,
                        dirty_links: u64_of_usize(dirty),
                    },
                );
                let mut active = 0u64;
                let mut min_rate = f64::INFINITY;
                let mut max_rate = 0.0f64;
                for flow in &rs.flows {
                    if flow.active {
                        active += 1;
                        min_rate = min_rate.min(flow.rate);
                        max_rate = max_rate.max(flow.rate);
                    }
                }
                if active > 0 {
                    tracer.emit(
                        t_us,
                        TK::NetRates {
                            flows: active,
                            min_rate,
                            max_rate,
                        },
                    );
                }
                // Link occupancy: a tracing-only scan, gated above.
                let mut live = 0u64;
                let mut saturated = 0u64;
                for (l, on_link) in rs.link_flows.iter().enumerate() {
                    if on_link.is_empty() {
                        continue;
                    }
                    live += 1;
                    let allocated: f64 = on_link
                        .iter()
                        .map(|&fi| rs.flows[usize_of_u32(fi)].rate)
                        .sum();
                    if allocated >= self.capacity[l] * (1.0 - 1e-9) {
                        saturated += 1;
                    }
                }
                tracer.emit(
                    t_us,
                    TK::NetLinks {
                        active: live,
                        saturated,
                    },
                );
            }

            // Next event: flow completion, gate opening, or arrival.
            let mut dt = f64::INFINITY;
            for flow in &rs.flows {
                if flow.active && flow.rate > 0.0 {
                    dt = dt.min(flow.remaining / flow.rate);
                } else if !flow.active {
                    dt = dt.min(jobs[flow.job_idx].gate - now);
                }
            }
            if next_arrival < arrivals.len() {
                dt = dt.min(workloads[arrivals[next_arrival]].submit - now);
            }
            assert!(
                dt.is_finite() && dt >= -EPS,
                "simulator stuck at t={now} (dt={dt})"
            );
            let dt = dt.max(0.0);
            now += dt;

            // Drain and retire flows.
            let mut finished_jobs: Vec<usize> = Vec::new();
            let mut f = 0;
            while f < rs.flows.len() {
                if rs.flows[f].active && rs.flows[f].rate > 0.0 {
                    rs.flows[f].remaining -= rs.flows[f].rate * dt;
                    if rs.flows[f].remaining <= EPS {
                        let j = rs.flows[f].job_idx;
                        jobs[j].flows_left -= 1;
                        if jobs[j].flows_left == 0 {
                            finished_jobs.push(j);
                        }
                        rs.remove_flow(f);
                        continue;
                    }
                }
                f += 1;
            }
            for j in finished_jobs {
                jobs[j].step_idx += 1;
                start_step(self, &mut jobs, &mut rs, &workloads, j, now);
            }
        }

        jobs.into_iter()
            .map(|j| {
                assert!(j.done, "job {} never completed", j.workload_idx);
                let w = &workloads[j.workload_idx];
                JobResult {
                    id: w.id,
                    submit: w.submit,
                    end: j.samples.last().map_or(w.submit, |s| s.start + s.duration),
                    iterations: j.samples,
                }
            })
            .collect()
    }

    /// Convenience: time one collective run over `nodes`, alone on the
    /// network.
    pub fn solo_time(&self, nodes: &[NodeId], spec: CollectiveSpec) -> f64 {
        let res = self.run(vec![Workload {
            id: 0,
            nodes: nodes.to_vec(),
            spec,
            submit: 0.0,
            iterations: 1,
        }]);
        res[0].end
    }
}

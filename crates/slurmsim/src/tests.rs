use crate::individual::{comm_probes, individual_runs, mean_improvement, warmup_state};
use crate::{Engine, EngineConfig, EngineError};
use commsched_collectives::Pattern;
use commsched_core::{JobId, JobNature, SaSelector, SelectorKind};
use commsched_topology::Tree;
use commsched_workload::{Job, JobLog, LogSpec, SystemModel};

fn job(id: u64, submit: u64, runtime: u64, nodes: usize) -> Job {
    Job {
        id: JobId(id),
        submit,
        runtime,
        walltime: runtime,
        nodes,
        nature: JobNature::ComputeIntensive,
        comm: Vec::new(),
    }
}

fn comm_job(id: u64, submit: u64, runtime: u64, nodes: usize, frac: f64) -> Job {
    Job {
        nature: JobNature::CommIntensive,
        comm: vec![(Pattern::Rhvd, frac)],
        ..job(id, submit, runtime, nodes)
    }
}

fn small_tree() -> Tree {
    Tree::regular_two_level(2, 2) // 4 nodes
}

#[test]
fn empty_log_runs() {
    let tree = small_tree();
    let engine = Engine::new(&tree, EngineConfig::new(SelectorKind::Default));
    let s = engine.run(&JobLog::new("empty", vec![])).unwrap();
    assert!(s.outcomes.is_empty());
    assert_eq!(s.makespan, 0);
    assert_eq!(s.throughput(), 0.0);
    // +0.0, not the -0.0 an empty `f64` sum gives (printed as "-0.0").
    let totals = [
        s.total_exec_hours(),
        s.total_wait_hours(),
        s.total_comm_cost(),
        s.lost_node_hours(),
    ];
    for total in totals {
        assert_eq!(total.to_bits(), 0.0f64.to_bits());
    }
}

#[test]
fn single_job_runs_immediately() {
    let tree = small_tree();
    let engine = Engine::new(&tree, EngineConfig::new(SelectorKind::Default));
    let s = engine
        .run(&JobLog::new("one", vec![job(1, 5, 100, 2)]))
        .unwrap();
    let o = &s.outcomes[0];
    assert_eq!((o.submit, o.start, o.end), (5, 5, 105));
    assert_eq!(o.wait(), 0);
    assert_eq!(o.exec(), 100);
    assert_eq!(o.turnaround(), 100);
    assert_eq!(s.makespan, 105);
}

#[test]
fn fifo_order_without_backfill() {
    // Three full-machine jobs: strict serial execution in submit order.
    let tree = small_tree();
    let engine = Engine::new(
        &tree,
        EngineConfig::new(SelectorKind::Default).without_backfill(),
    );
    let log = JobLog::new(
        "serial",
        vec![job(1, 0, 50, 4), job(2, 1, 50, 4), job(3, 2, 50, 4)],
    );
    let s = engine.run(&log).unwrap();
    assert_eq!(s.outcome(JobId(1)).unwrap().start, 0);
    assert_eq!(s.outcome(JobId(2)).unwrap().start, 50);
    assert_eq!(s.outcome(JobId(3)).unwrap().start, 100);
    assert_eq!(s.makespan, 150);
    assert_eq!(s.total_wait_hours() * 3600.0, (49 + 98) as f64);
}

#[test]
fn outcomes_are_in_start_order() {
    // J1 starts first and ends last; J2 is wider than the machine and is
    // rejected where it is submitted; J3 starts after both and ends first.
    // Completion order would read 3, 1.
    let tree = small_tree();
    let log = JobLog::new(
        "order",
        vec![job(1, 0, 100, 2), job(2, 1, 10, 8), job(3, 2, 10, 2)],
    );
    let s = Engine::new(
        &tree,
        EngineConfig::new(SelectorKind::Default).reject_oversized(),
    )
    .run(&log)
    .unwrap();
    let order: Vec<(u64, u64)> = s.outcomes.iter().map(|o| (o.id.0, o.end)).collect();
    assert_eq!(order, [(1, 100), (2, 1), (3, 12)]);
    assert_eq!(s.outcomes[1].status, crate::JobStatus::Rejected);
}

#[test]
fn small_job_backfills_without_delaying_head() {
    // J1 holds 3 of 4 nodes until t=100. J2 (4 nodes) must wait for it.
    // J3 (1 node, 50 s) fits in the hole and ends before J2's reservation.
    let tree = small_tree();
    let log = JobLog::new(
        "bf",
        vec![job(1, 0, 100, 3), job(2, 10, 100, 4), job(3, 20, 50, 1)],
    );
    let s = Engine::new(&tree, EngineConfig::new(SelectorKind::Default))
        .run(&log)
        .unwrap();
    assert_eq!(s.outcome(JobId(3)).unwrap().start, 20); // backfilled
    assert_eq!(s.outcome(JobId(2)).unwrap().start, 100); // not delayed

    // Without backfill J3 queues behind J2.
    let s2 = Engine::new(
        &tree,
        EngineConfig::new(SelectorKind::Default).without_backfill(),
    )
    .run(&log)
    .unwrap();
    assert_eq!(s2.outcome(JobId(3)).unwrap().start, 200);
}

#[test]
fn backfill_never_delays_the_reservation() {
    // A long small job may NOT backfill when it would outlive the head's
    // shadow time and eat into the head's nodes.
    let tree = small_tree();
    let log = JobLog::new(
        "bf2",
        vec![
            job(1, 0, 100, 3),
            job(2, 10, 100, 4), // head reservation at t=100
            job(3, 20, 500, 1), // would hold a node until 520 > 100
        ],
    );
    let s = Engine::new(&tree, EngineConfig::new(SelectorKind::Default))
        .run(&log)
        .unwrap();
    assert_eq!(s.outcome(JobId(2)).unwrap().start, 100);
    assert!(s.outcome(JobId(3)).unwrap().start >= 100);
}

#[test]
fn conservative_backfill_protects_every_reservation() {
    // J1 holds 3/4 nodes until t=100. J2 wants 4 (reserved at 100).
    // J3 wants 2 and would be reserved at 200 (after J2). J4 (1 node,
    // 30 s) may run now under BOTH policies. But a 1-node job lasting
    // 150 s (J5) may backfill under EASY using the "extra" rule only if
    // it doesn't eat J2's nodes — with 4 needed and 4 total, extra = 0,
    // so both policies agree here; the divergence shows at J3: EASY
    // ignores J3's reservation, conservative enforces it.
    let tree = small_tree();
    let log = JobLog::new(
        "cons",
        vec![
            job(1, 0, 100, 3),
            job(2, 10, 100, 4),
            job(3, 20, 100, 2),
            job(4, 30, 30, 1),
        ],
    );
    for make in [
        EngineConfig::new(SelectorKind::Default),
        EngineConfig::new(SelectorKind::Default).conservative_backfill(),
    ] {
        let s = Engine::new(&tree, make).run(&log).unwrap();
        // J4 fits in the hole and ends before J2's shadow time.
        assert_eq!(
            s.outcome(JobId(4)).unwrap().start,
            30,
            "{:?}",
            make.backfill
        );
        // J2 is never delayed past its reservation.
        assert_eq!(s.outcome(JobId(2)).unwrap().start, 100);
        // J3 runs after J2 (FIFO order preserved for equal contenders).
        assert_eq!(s.outcome(JobId(3)).unwrap().start, 200);
    }
}

#[test]
fn conservative_starts_multiple_where_fifo_stalls() {
    // Head blocked; two small jobs behind it both start immediately under
    // conservative backfill (each gets a reservation at `now`).
    let tree = small_tree();
    let log = JobLog::new(
        "cons2",
        vec![
            job(1, 0, 100, 3),
            job(2, 10, 100, 4),
            job(3, 20, 40, 1),
            job(4, 25, 40, 1),
        ],
    );
    let s = Engine::new(
        &tree,
        EngineConfig::new(SelectorKind::Default).conservative_backfill(),
    )
    .run(&log)
    .unwrap();
    assert_eq!(s.outcome(JobId(3)).unwrap().start, 20);
    // J4 arrives at 25; the single free node is taken by J3 until 60, and
    // starting at 60 would still end (100) by J2's reservation start (100).
    assert_eq!(s.outcome(JobId(4)).unwrap().start, 60);
    assert_eq!(s.outcome(JobId(2)).unwrap().start, 100);
}

#[test]
fn drained_nodes_reduce_capacity() {
    let tree = small_tree(); // 4 nodes
    let drained: Vec<commsched_topology::NodeId> =
        vec![commsched_topology::NodeId(0), commsched_topology::NodeId(1)];

    // A 3-node job no longer fits a 4-node machine with 2 drained.
    let err = Engine::new(&tree, EngineConfig::new(SelectorKind::Default))
        .drain_nodes(drained.clone())
        .run(&JobLog::new("d", vec![job(1, 0, 10, 3)]))
        .unwrap_err();
    assert_eq!(
        err,
        EngineError::JobTooLarge {
            job: JobId(1),
            nodes: 3,
            machine: 2
        }
    );

    // A 2-node job runs on the two healthy nodes; with all of leaf 0
    // drained it must serialize behind itself when two such jobs arrive.
    let log = JobLog::new("d2", vec![job(1, 0, 50, 2), job(2, 0, 50, 2)]);
    let s = Engine::new(&tree, EngineConfig::new(SelectorKind::Default))
        .drain_nodes(drained)
        .run(&log)
        .unwrap();
    let starts: Vec<u64> = {
        let mut v: Vec<u64> = s.outcomes.iter().map(|o| o.start).collect();
        v.sort_unstable();
        v
    };
    assert_eq!(starts, vec![0, 50]); // forced serial: only 2 healthy nodes
}

#[test]
fn drain_dedups_and_zero_is_noop() {
    let tree = small_tree();
    let log = JobLog::new("d3", vec![job(1, 0, 10, 4)]);
    let s = Engine::new(&tree, EngineConfig::new(SelectorKind::Default))
        .drain_nodes(vec![])
        .run(&log)
        .unwrap();
    assert_eq!(s.outcomes.len(), 1);

    // Duplicate drain entries are tolerated.
    let n = commsched_topology::NodeId(3);
    let s = Engine::new(&tree, EngineConfig::new(SelectorKind::Default))
        .drain_nodes(vec![n, n, n])
        .run(&JobLog::new("d4", vec![job(1, 0, 10, 3)]))
        .unwrap();
    assert_eq!(s.outcomes.len(), 1);
}

#[test]
fn walltime_enforcement_clamps_runtimes() {
    let tree = small_tree();
    let mut j = job(1, 0, 500, 2);
    j.walltime = 300; // requested less than the true runtime
    let log = JobLog::new("wt", vec![j]);
    let mut cfg = EngineConfig::new(SelectorKind::Default);
    cfg.enforce_walltime = true;
    let s = Engine::new(&tree, cfg).run(&log).unwrap();
    assert_eq!(s.outcome(JobId(1)).unwrap().exec(), 300);

    // Without enforcement the full duration replays.
    let s = Engine::new(&tree, EngineConfig::new(SelectorKind::Default))
        .run(&log)
        .unwrap();
    assert_eq!(s.outcome(JobId(1)).unwrap().exec(), 500);
}

#[test]
fn rejects_oversized_job() {
    let tree = small_tree();
    let engine = Engine::new(&tree, EngineConfig::new(SelectorKind::Default));
    let err = engine
        .run(&JobLog::new("big", vec![job(1, 0, 10, 5)]))
        .unwrap_err();
    assert_eq!(
        err,
        EngineError::JobTooLarge {
            job: JobId(1),
            nodes: 5,
            machine: 4
        }
    );
}

#[test]
fn default_run_replays_original_runtimes() {
    // Under the default selector the Eq. 7 ratio is 1 by construction, so
    // the emulation replays the log durations exactly.
    let tree = Tree::regular_two_level(4, 8);
    let log = LogSpec::new(
        SystemModel {
            total_nodes: 32,
            min_request: 1,
            max_request: 16,
            name: "toy",
            pow2_fraction: 0.9,
            mean_interarrival: 100.0,
            runtime_median: 600.0,
            runtime_sigma: 0.8,
            walltime_slack: 1.5,
        },
        80,
        3,
    )
    .comm_percent(90)
    .generate();
    let s = Engine::new(&tree, EngineConfig::new(SelectorKind::Default))
        .run(&log)
        .unwrap();
    for o in &s.outcomes {
        assert_eq!(o.runtime_adjusted, o.runtime_original, "{:?}", o.id);
        if o.nature.is_comm() && o.nodes > 1 {
            assert!(o.cost_actual > 0.0);
            assert_eq!(o.cost_actual, o.cost_default);
        }
    }
}

#[test]
fn eq7_adjustment_matches_cost_ratio() {
    // Occupy the cluster asymmetrically, then place one comm job with each
    // selector and check T' = T_compute + T_comm * (cost/cost_default).
    let tree = Tree::regular_two_level(4, 8);
    let mut warm_jobs = vec![comm_job(100, 0, 100_000, 6, 0.5)];
    warm_jobs.push(comm_job(101, 0, 100_000, 3, 0.5));
    let probe = comm_job(1, 0, 10_000, 8, 0.5);
    let mut all = warm_jobs.clone();
    all.push(probe.clone());
    let log = JobLog::new("warm", all);

    for kind in SelectorKind::ALL {
        let cfg = EngineConfig::new(kind);
        let s = Engine::new(&tree, cfg).run(&log).unwrap();
        let o = s.outcome(JobId(1)).unwrap();
        let want = (10_000.0 * 0.5 + 10_000.0 * 0.5 * o.comm_ratio).round() as u64;
        assert_eq!(o.runtime_adjusted, want, "{kind}");
        if kind == SelectorKind::Default {
            assert_eq!(o.comm_ratio, 1.0);
            assert_eq!(o.cost_actual, o.cost_default);
        }
        if kind == SelectorKind::Adaptive || kind == SelectorKind::Balanced {
            assert!(
                o.comm_ratio <= 1.0 + 1e-9,
                "{kind} worsened the job: {}",
                o.comm_ratio
            );
        }
    }
}

#[test]
fn place_matches_naive_clone_replication() {
    // The fused evaluator path in `place()` must reproduce, bit for bit,
    // what the naive implementation computed: clone the state, allocate the
    // what-if job, and run `job_cost` once per component per cost model —
    // whether `place` reuses totals its selector scored or scores itself.
    // Every selector, SA included, runs under four configurations: one
    // comm component under the default models, where the adaptive winner's
    // totals (and often the Eq. 7 default's) are reused; a ratio model with
    // a flat trunk, a discount no selector scored under; and three
    // components, the later two collectives no selector scored, under
    // either ratio model. The second machine state (one whole leaf of an
    // idle machine) makes a non-default selector land exactly where the
    // default one does, so the engine reuses the chosen totals as the
    // Eq. 7 denominator.
    use commsched_collectives::CollectiveSpec;
    use commsched_core::{
        AllocRequest, ClusterState, CostModel, DefaultTreeSelector, NodeSelector, Placement,
        PlacementEvaluator,
    };

    let tree = Tree::regular_two_level(6, 8);
    let contended = [comm_job(50, 0, 1, 7, 0.5), comm_job(51, 0, 1, 5, 0.5)];
    let flat = CostModel {
        trunk_discount: 1.0,
        ..CostModel::HOP_BYTES
    };
    let components = [
        vec![(Pattern::Rhvd, 0.6)],
        vec![
            (Pattern::Rhvd, 0.3),
            (Pattern::Rd, 0.2),
            (Pattern::Alltoall, 0.1),
        ],
    ];
    let mut eval = PlacementEvaluator::new();
    let mut same_as_default = 0;
    for (warm, width) in [(&contended[..], 10), (&[][..], 8)] {
        for comm in &components {
            let probe = Job {
                comm: comm.clone(),
                ..comm_job(1, 0, 10_000, width, 0.6)
            };
            let sa = SelectorKind::Sa(SaSelector::new(256, 3));
            for kind in SelectorKind::ALL.into_iter().chain([sa]) {
                for ratio_model in [CostModel::HOP_BYTES, flat] {
                    let cfg = EngineConfig {
                        ratio_model,
                        ..EngineConfig::new(kind)
                    };
                    let engine = Engine::new(&tree, cfg);

                    // A partially occupied, contended state (or an idle one).
                    let mut state = ClusterState::new(&tree);
                    for (i, j) in warm.iter().enumerate() {
                        let sel = kind.build();
                        let req = AllocRequest::comm(j.id, j.nodes);
                        let nodes = sel.select(&tree, &state, &req).unwrap();
                        state
                            .allocate(&tree, JobId(50 + i as u64), &nodes, j.nature)
                            .unwrap();
                    }

                    let selector = kind.build();
                    let placed = engine
                        .place(&mut eval, &state, &probe, selector.as_ref(), &[], 0)
                        .unwrap();

                    // Naive replication (selectors are deterministic, so
                    // re-selecting from the same state reproduces the
                    // allocation).
                    let req = AllocRequest {
                        job: probe.id,
                        nodes: probe.nodes,
                        nature: probe.nature,
                        pattern: Some(CollectiveSpec::new(probe.comm[0].0, cfg.msize)),
                        attempt: 0,
                    };
                    let nodes = selector.select(&tree, &state, &req).unwrap();
                    assert_eq!(nodes, placed.nodes, "{kind}: allocation changed");
                    let default_nodes = DefaultTreeSelector.select(&tree, &state, &req).unwrap();
                    if kind != SelectorKind::Default && default_nodes == nodes {
                        same_as_default += 1;
                    }
                    // The naive path works on materialized node ids.
                    let what_if = |alloc: &Placement| {
                        let mut s = state.clone();
                        s.allocate(&tree, JobId(u64::MAX), alloc, JobNature::CommIntensive)
                            .unwrap();
                        (s, alloc.nodes())
                    };
                    let (state_actual, nodes) = what_if(&nodes);
                    let (state_default, default_nodes) = what_if(&default_nodes);
                    let mut cost_actual = 0.0;
                    let mut cost_default = 0.0;
                    let mut adjusted = probe.runtime as f64 * (1.0 - probe.comm_fraction());
                    for &(pattern, fraction) in &probe.comm {
                        let spec = CollectiveSpec::new(pattern, cfg.msize);
                        let cost = |model: &CostModel, s: &ClusterState, n: &[_]| {
                            model.job_cost(&tree, s, n, &spec)
                        };
                        cost_actual += cost(&cfg.cost_model, &state_actual, &nodes);
                        cost_default += cost(&cfg.cost_model, &state_default, &default_nodes);
                        let ca = cost(&cfg.ratio_model, &state_actual, &nodes);
                        let cd = cost(&cfg.ratio_model, &state_default, &default_nodes);
                        let ratio = if cd > 0.0 { ca / cd } else { 1.0 };
                        adjusted += probe.runtime as f64 * fraction * ratio;
                    }

                    let case = format!(
                        "{kind}, {} components, ratio discount {}",
                        probe.comm.len(),
                        ratio_model.trunk_discount
                    );
                    assert_eq!(
                        placed.cost_actual.to_bits(),
                        cost_actual.to_bits(),
                        "{case}: cost_actual diverged from naive ({} vs {})",
                        placed.cost_actual,
                        cost_actual
                    );
                    assert_eq!(
                        placed.cost_default.to_bits(),
                        cost_default.to_bits(),
                        "{case}: cost_default diverged from naive ({} vs {})",
                        placed.cost_default,
                        cost_default
                    );
                    assert_eq!(
                        placed.adjusted,
                        adjusted.round().max(1.0) as u64,
                        "{case}: adjusted runtime diverged from naive"
                    );
                }
            }
        }
    }
    assert!(
        same_as_default > 0,
        "no non-default placement coincided with the default one"
    );
}

#[test]
fn place_scores_only_what_its_selector_did_not() {
    // On an Intrepid-shaped adaptive log, `place` runs an Eq. 6 evaluation
    // exactly for the candidates the adaptive decision left unscored under
    // a component's collective: the winner when greedy and balanced
    // coincided (nothing scored), and the Eq. 7 default when it is neither
    // the winner nor a scored loser. Both models share one trunk discount,
    // so one evaluation serves both.
    use commsched_collectives::CollectiveSpec;
    use commsched_core::{
        AllocRequest, ClusterState, DefaultTreeSelector, NodeSelector, PlacementEvaluator,
    };
    use commsched_topology::SystemPreset;
    use std::collections::VecDeque;

    let tree = SystemPreset::Intrepid.build();
    let log = LogSpec::new(SystemModel::intrepid(), 120, 11)
        .comm_percent(90)
        .generate();
    let cfg = EngineConfig::new(SelectorKind::Adaptive);
    let engine = Engine::new(&tree, cfg);
    let selector = cfg.selector.build();
    let mut eval = PlacementEvaluator::new();
    let mut state = ClusterState::new(&tree);
    let mut running = VecDeque::new();
    let (mut expected, mut afresh) = (0, 0);
    let (mut default_unscored, mut comm_jobs) = (0, 0);
    for job in &log.jobs {
        while state.free_total() < job.nodes {
            state.release(&tree, running.pop_front().unwrap()).unwrap();
        }
        let placed = engine
            .place(&mut eval, &state, job, selector.as_ref(), &[], 0)
            .unwrap();
        if job.nature.is_comm() && !job.comm.is_empty() {
            comm_jobs += 1;
            let req = AllocRequest {
                job: job.id,
                nodes: job.nodes,
                nature: job.nature,
                pattern: Some(CollectiveSpec::new(job.comm[0].0, cfg.msize)),
                attempt: 0,
            };
            let decision = selector.decide(&tree, &state, &req).unwrap();
            assert_eq!(decision.placement, placed.nodes);
            let default = DefaultTreeSelector.select(&tree, &state, &req).unwrap();
            let mut candidates = vec![placed.nodes.takes()];
            if default != placed.nodes {
                candidates.push(default.takes());
            }
            let unscored = |takes: &[(usize, u32)], pattern| {
                let spec = CollectiveSpec::new(pattern, cfg.msize);
                decision
                    .scored(takes, &spec, cfg.cost_model.trunk_discount)
                    .is_none()
            };
            for &(pattern, _) in &job.comm {
                expected += candidates.iter().filter(|t| unscored(t, pattern)).count() as u64;
                afresh += candidates.len() as u64;
            }
            if candidates.len() == 2 && unscored(default.takes(), job.comm[0].0) {
                default_unscored += 1;
            }
        }
        state
            .allocate(&tree, job.id, &placed.nodes, job.nature)
            .unwrap();
        running.push_back(job.id);
    }
    assert_eq!(engine.evals.get(), expected);
    // The log exercises both sides — defaults the selector had scored and
    // defaults it had not — and reuse saves evaluations against scoring
    // the winner and a distinct default afresh.
    assert!(0 < default_unscored && default_unscored < comm_jobs);
    assert!(
        expected < afresh,
        "{expected} evaluations where scoring afresh takes {afresh}"
    );
}

#[test]
fn no_oversubscription_at_any_instant() {
    let tree = Tree::regular_two_level(3, 4); // 12 nodes
    let log = LogSpec::new(
        SystemModel {
            total_nodes: 12,
            min_request: 1,
            max_request: 8,
            name: "toy",
            pow2_fraction: 0.8,
            mean_interarrival: 50.0,
            runtime_median: 300.0,
            runtime_sigma: 1.0,
            walltime_slack: 1.5,
        },
        120,
        7,
    )
    .generate();
    for kind in SelectorKind::ALL {
        let s = Engine::new(&tree, EngineConfig::new(kind))
            .run(&log)
            .unwrap();
        assert_eq!(s.outcomes.len(), 120);
        // At every job start, the set of overlapping jobs fits the machine.
        for o in &s.outcomes {
            let in_use: usize = s
                .outcomes
                .iter()
                .filter(|p| p.start <= o.start && o.start < p.end)
                .map(|p| p.nodes)
                .sum();
            assert!(in_use <= 12, "{kind}: {in_use} nodes in use at {}", o.start);
        }
        // Sanity on ordering metrics.
        for o in &s.outcomes {
            assert!(o.start >= o.submit && o.end > o.start);
        }
    }
}

#[test]
fn utilization_timeline_accounts_node_seconds() {
    // One 4-node job for 100 s then one 2-node job for 100 s on a 4-node
    // machine: first half 100% busy, second half 50%.
    let tree = small_tree();
    let log = JobLog::new("u", vec![job(1, 0, 100, 4), job(2, 0, 100, 2)]);
    let s = Engine::new(&tree, EngineConfig::new(SelectorKind::Default))
        .run(&log)
        .unwrap();
    assert_eq!(s.makespan, 200);
    let u = s.utilization(4, 2);
    assert_eq!(u.len(), 2);
    assert_eq!(u[0], (0, 1.0));
    assert_eq!(u[1], (100, 0.5));
    // Utilization can never exceed 1.
    for (_, frac) in s.utilization(4, 7) {
        assert!(frac <= 1.0 + 1e-9);
    }
    // Empty run -> empty timeline.
    let empty = Engine::new(&tree, EngineConfig::new(SelectorKind::Default))
        .run(&JobLog::new("e", vec![]))
        .unwrap();
    assert!(empty.utilization(4, 10).is_empty());
}

#[test]
fn runs_are_deterministic() {
    let tree = Tree::regular_two_level(4, 8);
    let log = LogSpec::new(SystemModel::theta(), 60, 5).generate();
    // Shrink requests to fit the toy tree.
    let jobs: Vec<Job> = log
        .jobs
        .iter()
        .map(|j| Job {
            nodes: j.nodes.clamp(1, 32),
            ..j.clone()
        })
        .collect();
    let log = JobLog::new("det", jobs);
    for kind in SelectorKind::ALL {
        let a = Engine::new(&tree, EngineConfig::new(kind))
            .run(&log)
            .unwrap();
        let b = Engine::new(&tree, EngineConfig::new(kind))
            .run(&log)
            .unwrap();
        assert_eq!(a, b, "{kind}");
    }
}

/// The frozen state Table 4's Theta/RHVD cell probes from (paper scale:
/// 1000 jobs, seed 42, 90 % communication-intensive, warmed to 55 %),
/// pinned by an FNV-1a digest over every allocation's job, nature, takes
/// and node ids. Blessed on commit 768a376, where `warmup_state` went through
/// `Engine::place`; selecting directly must freeze the same machine.
#[test]
fn warmup_state_digest_on_table4_theta_cell() {
    let tree = commsched_topology::SystemPreset::Theta.build();
    let log = LogSpec::new(SystemModel::theta(), 1000, 42)
        .comm_percent(90)
        .pattern(Pattern::Rhvd)
        .generate();
    let state = warmup_state(&tree, &log, 0.55);
    state.check_invariants(&tree).unwrap();
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut mix = |word: u64| h = (h ^ word).wrapping_mul(0x0000_0100_0000_01b3);
    for (job, alloc) in state.allocations() {
        mix(job.0);
        mix(u64::from(alloc.nature.is_comm()));
        mix(alloc.nodes.takes().len() as u64);
        for &(k, count) in alloc.nodes.takes() {
            mix(k as u64);
            mix(u64::from(count));
        }
        for n in alloc.nodes.iter() {
            mix(n.0 as u64);
        }
    }
    assert_eq!(state.allocations().count(), 9);
    assert_eq!(state.busy_total(), 2688);
    assert_eq!(h, 0x393b_6147_ff24_b877, "digest {h:#018x}");
}

#[test]
fn warmup_reaches_target_occupancy() {
    let tree = Tree::regular_two_level(4, 8);
    let log = LogSpec::new(
        SystemModel {
            total_nodes: 32,
            min_request: 2,
            max_request: 8,
            name: "toy",
            pow2_fraction: 1.0,
            mean_interarrival: 10.0,
            runtime_median: 600.0,
            runtime_sigma: 0.5,
            walltime_slack: 1.2,
        },
        100,
        9,
    )
    .comm_percent(50)
    .generate();
    let state = warmup_state(&tree, &log, 0.5);
    assert!(state.busy_total() >= 16);
    assert!(state.free_total() > 0);
    state.check_invariants(&tree).unwrap();
}

#[test]
fn individual_runs_compare_from_identical_state() {
    let tree = Tree::regular_two_level(4, 8);
    let log = LogSpec::new(
        SystemModel {
            total_nodes: 32,
            min_request: 2,
            max_request: 8,
            name: "toy",
            pow2_fraction: 1.0,
            mean_interarrival: 10.0,
            runtime_median: 600.0,
            runtime_sigma: 0.5,
            walltime_slack: 1.2,
        },
        200,
        11,
    )
    .comm_percent(90)
    .generate();
    let state = warmup_state(&tree, &log, 0.4);
    let probes = comm_probes(&log, 40);
    assert!(!probes.is_empty());
    let outcomes = individual_runs(
        &tree,
        &state,
        &probes,
        EngineConfig::new(SelectorKind::Default),
    );
    assert!(!outcomes.is_empty());
    for o in &outcomes {
        assert_eq!(o.placements.len(), 4);
        // Default improvement over itself is zero.
        assert_eq!(o.improvement_over_default(SelectorKind::Default), 0.0);
        // Adaptive never does worse than the better of greedy/balanced.
        let by = |k: SelectorKind| {
            o.placements
                .iter()
                .find(|p| p.selector == k.name())
                .unwrap()
                .runtime_adjusted
        };
        assert!(
            by(SelectorKind::Adaptive) <= by(SelectorKind::Greedy).min(by(SelectorKind::Balanced)),
            "adaptive worse than both components for {:?}",
            o.job
        );
    }
    // Mean improvements: adaptive >= balanced-or-greedy is not guaranteed
    // in aggregate, but no proposed algorithm should *hurt* on average
    // from an identical state with this mild warm-up.
    for kind in [SelectorKind::Balanced, SelectorKind::Adaptive] {
        let imp = mean_improvement(&outcomes, kind);
        assert!(imp >= -1e-9, "{kind} mean improvement {imp}");
    }
}

#[test]
fn wait_times_fall_when_runtimes_shrink() {
    // A saturated toy cluster: if balanced cuts comm-job runtimes, total
    // wait time must not exceed the default run's.
    let tree = Tree::regular_two_level(2, 8); // 16 nodes
    let mut jobs = Vec::new();
    for i in 0..40u64 {
        jobs.push(comm_job(i + 1, i * 30, 2_000, 8, 0.7));
    }
    let log = JobLog::new("sat", jobs);
    let d = Engine::new(&tree, EngineConfig::new(SelectorKind::Default))
        .run(&log)
        .unwrap();
    let b = Engine::new(&tree, EngineConfig::new(SelectorKind::Balanced))
        .run(&log)
        .unwrap();
    assert!(
        b.total_exec_hours() <= d.total_exec_hours() + 1e-9,
        "balanced exec {} vs default {}",
        b.total_exec_hours(),
        d.total_exec_hours()
    );
    assert!(
        b.total_wait_hours() <= d.total_wait_hours() + 1e-9,
        "balanced wait {} vs default {}",
        b.total_wait_hours(),
        d.total_wait_hours()
    );
}

mod properties {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(12))]

        /// Any synthetic toy log completes: every job gets exactly one
        /// outcome with submit <= start < end, under every selector.
        #[test]
        fn all_jobs_complete(seed in any::<u64>(), pct in 0u8..=100) {
            let tree = Tree::regular_two_level(3, 6); // 18 nodes
            let log = LogSpec::new(
                SystemModel {
                    total_nodes: 18,
                    min_request: 1,
                    max_request: 16,
                    name: "toy",
                    pow2_fraction: 0.7,
                    mean_interarrival: 60.0,
                    runtime_median: 400.0,
                    runtime_sigma: 1.0,
                    walltime_slack: 1.6,
                },
                60,
                seed,
            )
            .comm_percent(pct)
            .generate();
            for kind in SelectorKind::ALL {
                let s = Engine::new(&tree, EngineConfig::new(kind)).run(&log).unwrap();
                prop_assert_eq!(s.outcomes.len(), 60);
                let mut ids: Vec<u64> = s.outcomes.iter().map(|o| o.id.0).collect();
                ids.sort_unstable();
                ids.dedup();
                prop_assert_eq!(ids.len(), 60);
                for o in &s.outcomes {
                    prop_assert!(o.submit <= o.start);
                    prop_assert!(o.start < o.end);
                }
            }
        }

        /// Conservative backfilling never delays any job past the start it
        /// would get under strict FIFO with the same (replayed) runtimes,
        /// and like EASY it cannot hurt the total wait.
        #[test]
        fn conservative_never_worse_than_fifo(seed in any::<u64>()) {
            let tree = Tree::regular_two_level(3, 6);
            let log = LogSpec::new(
                SystemModel {
                    total_nodes: 18,
                    min_request: 1,
                    max_request: 18,
                    name: "toy",
                    pow2_fraction: 0.6,
                    mean_interarrival: 30.0,
                    runtime_median: 500.0,
                    runtime_sigma: 1.0,
                    walltime_slack: 1.0,
                },
                50,
                seed,
            )
            .generate();
            let fifo = Engine::new(
                &tree,
                EngineConfig::new(SelectorKind::Default)
                    .without_backfill()
                    .without_adjustment(),
            )
            .run(&log)
            .unwrap();
            let cons = Engine::new(
                &tree,
                EngineConfig::new(SelectorKind::Default)
                    .conservative_backfill()
                    .without_adjustment(),
            )
            .run(&log)
            .unwrap();
            prop_assert!(cons.total_wait_hours() <= fifo.total_wait_hours() + 1e-9);
            // With exact walltimes, no single job starts later than FIFO.
            for o in &cons.outcomes {
                let f = fifo.outcome(o.id).unwrap();
                prop_assert!(
                    o.start <= f.start,
                    "{:?} delayed: conservative {} vs fifo {}",
                    o.id, o.start, f.start
                );
            }
        }

        /// Draining random nodes never breaks a run: jobs that fit the
        /// reduced capacity all complete and never overlap beyond it.
        #[test]
        fn drained_runs_complete(seed in any::<u64>(), drain in 0usize..10) {
            let tree = Tree::regular_two_level(3, 6); // 18 nodes
            let healthy = 18 - drain;
            let log = LogSpec::new(
                SystemModel {
                    total_nodes: 18,
                    min_request: 1,
                    max_request: healthy.max(1),
                    name: "toy",
                    pow2_fraction: 0.5,
                    mean_interarrival: 40.0,
                    runtime_median: 300.0,
                    runtime_sigma: 0.8,
                    walltime_slack: 1.4,
                },
                40,
                seed,
            )
            .generate();
            let drained: Vec<commsched_topology::NodeId> =
                (0..drain).map(|i| commsched_topology::NodeId(i * 2)).collect();
            let s = Engine::new(&tree, EngineConfig::new(SelectorKind::Adaptive))
                .drain_nodes(drained)
                .run(&log)
                .unwrap();
            prop_assert_eq!(s.outcomes.len(), 40);
            for o in &s.outcomes {
                let in_use: usize = s
                    .outcomes
                    .iter()
                    .filter(|p| p.start <= o.start && o.start < p.end)
                    .map(|p| p.nodes)
                    .sum();
                prop_assert!(in_use <= healthy, "{in_use} > {healthy} healthy nodes");
            }
        }

        /// Backfill can only improve (or preserve) every job's start time
        /// when runtimes are not adjusted (pure replay), relative to FIFO.
        /// (With Eq. 7 feedback the comparison is not monotone, so we pin
        /// adjustment off.)
        #[test]
        fn backfill_helps_total_wait(seed in any::<u64>()) {
            let tree = Tree::regular_two_level(3, 6);
            let log = LogSpec::new(
                SystemModel {
                    total_nodes: 18,
                    min_request: 1,
                    max_request: 18,
                    name: "toy",
                    pow2_fraction: 0.6,
                    mean_interarrival: 30.0,
                    runtime_median: 500.0,
                    runtime_sigma: 1.0,
                    walltime_slack: 1.0, // exact walltimes: EASY is conservative-safe
                },
                50,
                seed,
            )
            .generate();
            let fifo = Engine::new(
                &tree,
                EngineConfig::new(SelectorKind::Default)
                    .without_backfill()
                    .without_adjustment(),
            )
            .run(&log)
            .unwrap();
            let easy = Engine::new(
                &tree,
                EngineConfig::new(SelectorKind::Default).without_adjustment(),
            )
            .run(&log)
            .unwrap();
            prop_assert!(easy.total_wait_hours() <= fifo.total_wait_hours() + 1e-9);
        }
    }
}

mod faults {
    use super::*;
    use crate::{FailurePolicy, JobStatus};
    use commsched_workload::fault::{FaultEvent, FaultKind, FaultTrace};

    fn trace(events: &[(u64, usize, FaultKind)]) -> FaultTrace {
        FaultTrace::new(
            events
                .iter()
                .map(|&(t, node, kind)| FaultEvent { t, node, kind })
                .collect(),
        )
    }

    #[test]
    fn empty_trace_is_bit_identical() {
        let tree = Tree::regular_two_level(3, 6);
        let log = LogSpec::new(
            SystemModel {
                total_nodes: 18,
                min_request: 1,
                max_request: 16,
                ..SystemModel::theta()
            },
            40,
            7,
        )
        .comm_percent(60)
        .generate();
        for kind in SelectorKind::ALL {
            let plain = Engine::new(&tree, EngineConfig::new(kind))
                .run(&log)
                .unwrap();
            let faulty = Engine::new(&tree, EngineConfig::new(kind))
                .with_faults(FaultTrace::empty())
                .run(&log)
                .unwrap();
            assert_eq!(plain, faulty);
        }
    }

    #[test]
    fn fail_cancels_running_job() {
        let tree = small_tree();
        let cfg =
            EngineConfig::new(SelectorKind::Default).with_failure_policy(FailurePolicy::Cancel);
        let s = Engine::new(&tree, cfg)
            .with_faults(trace(&[(30, 0, FaultKind::Fail)]))
            .run(&JobLog::new("one", vec![job(1, 0, 100, 4)]))
            .unwrap();
        let o = &s.outcomes[0];
        assert_eq!(o.status, JobStatus::Cancelled);
        assert_eq!((o.start, o.end), (0, 30));
        assert_eq!(o.retries, 0);
        assert_eq!(o.lost_node_seconds, 30 * 4);
        assert_eq!(s.count_status(JobStatus::Cancelled), 1);
        assert!(s.lost_node_hours() > 0.0);
    }

    #[test]
    fn fail_requeues_and_job_completes_after_recovery() {
        let tree = small_tree();
        let s = Engine::new(&tree, EngineConfig::new(SelectorKind::Default))
            .with_faults(trace(&[
                (30, 2, FaultKind::Fail),
                (50, 2, FaultKind::Recover),
            ]))
            .run(&JobLog::new("one", vec![job(1, 0, 100, 4)]))
            .unwrap();
        let o = &s.outcomes[0];
        assert_eq!(o.status, JobStatus::Completed);
        // Killed at 30, requeued; 4 nodes only available again at 50.
        assert_eq!((o.start, o.end), (50, 150));
        assert_eq!(o.retries, 1);
        assert_eq!(o.lost_node_seconds, 30 * 4);
        assert_eq!(s.total_retries(), 1);
        assert_eq!(s.makespan, 150);
    }

    #[test]
    fn requeue_with_backoff_delays_resubmission() {
        let tree = small_tree();
        let cfg =
            EngineConfig::new(SelectorKind::Default).with_failure_policy(FailurePolicy::Requeue {
                max_retries: 3,
                backoff: 100,
            });
        let s = Engine::new(&tree, cfg)
            .with_faults(trace(&[
                (30, 2, FaultKind::Fail),
                (40, 2, FaultKind::Recover),
            ]))
            .run(&JobLog::new("one", vec![job(1, 0, 100, 4)]))
            .unwrap();
        let o = &s.outcomes[0];
        // Resubmitted at 130 (kill + backoff), machine healthy by then.
        assert_eq!(o.status, JobStatus::Completed);
        assert_eq!((o.start, o.end), (130, 230));
    }

    /// At second 130 a job finishes, a requeued job's backoff ends and
    /// another job arrives for the first time. The finish goes first, then
    /// the two submits in log-index order, whichever source each comes
    /// from: first arrivals are read by a cursor beside the event heap,
    /// and the two merge by the whole `(t, event)` key.
    #[test]
    fn a_finish_then_resubmits_and_arrivals_in_log_order() {
        use commsched_metrics::Registry;
        use commsched_trace::{Capture, EventKind as TK};
        let tree = small_tree();
        let cfg =
            EngineConfig::new(SelectorKind::Default).with_failure_policy(FailurePolicy::Requeue {
                max_retries: 3,
                backoff: 100,
            });
        // Job 2 is killed on node 2 at 30 and resubmitted at 130, when
        // job 1 ends and job 3 arrives.
        let engine = Engine::new(&tree, cfg).with_faults(trace(&[
            (30, 2, FaultKind::Fail),
            (40, 2, FaultKind::Recover),
        ]));
        let (one, two, three) = (job(1, 0, 130, 2), job(2, 0, 500, 2), job(3, 130, 10, 1));
        let sorted = JobLog::new("sorted", vec![three.clone(), two.clone(), one.clone()]);
        // The arrival first in the log: a log built field by field keeps
        // its order, and submits at one second go by index.
        let arrival_first = JobLog {
            name: "arrival first".into(),
            jobs: vec![three, one, two],
        };
        for (log, order) in [(sorted, [2, 3]), (arrival_first, [3, 2])] {
            let mut cap = Capture::new();
            let s = engine
                .run_observed(&log, &mut cap, &mut Registry::new())
                .unwrap();
            assert_eq!(s.total_retries(), 1, "{}", log.name);
            let at_130: Vec<(u64, &str)> = (cap.events.iter())
                .filter(|e| e.t_us == 130_000_000)
                .filter_map(|e| match e.kind {
                    TK::JobFinish { job, .. } => Some((job, "finish")),
                    TK::JobEligible { job, .. } => Some((job, "eligible")),
                    _ => None,
                })
                .collect();
            let want = [
                (1, "finish"),
                (order[0], "eligible"),
                (order[1], "eligible"),
            ];
            assert_eq!(at_130[..3], want, "{}", log.name);
        }
    }

    /// Work a failure destroys can pass 2^53 node-seconds while the run
    /// ends well inside 2^53 s: an eight-node job of 2^52 s killed half way
    /// loses 2^54. The run ends in a typed error, not in the exact-`f64`
    /// assertion on the report's lost node-seconds; 2^53 itself (four
    /// nodes) is reported.
    #[test]
    fn lost_work_past_2_pow_53_is_an_error() {
        let tree = Tree::regular_two_level(2, 4);
        let cfg =
            EngineConfig::new(SelectorKind::Default).with_failure_policy(FailurePolicy::Requeue {
                max_retries: 1,
                backoff: 0,
            });
        let t = 1u64 << 51;
        let engine = Engine::new(&tree, cfg).with_faults(trace(&[(t, 0, FaultKind::Fail)]));
        let wide = JobLog::new("wide", vec![job(1, 0, 2 * t, 8)]);
        let mut reg = commsched_metrics::Registry::new();
        let mut rec = commsched_trace::NullRecorder;
        let err = engine.run_observed(&wide, &mut rec, &mut reg).unwrap_err();
        assert_eq!(err, EngineError::LostWorkTooLarge(8 * t));
        assert!(err.to_string().contains("past the 2^53"), "{err}");
        assert_eq!(engine.run(&wide), Err(err));

        let edge = JobLog::new("edge", vec![job(1, 0, 2 * t, 4)]);
        let s = engine.run_observed(&edge, &mut rec, &mut reg).unwrap();
        assert_eq!(s.outcomes[0].lost_node_seconds, 4 * t);
        assert_eq!(s.lost_node_hours(), (4 * t) as f64 / 3600.0);
    }

    #[test]
    fn exhausted_retries_cancel() {
        let tree = small_tree();
        let cfg =
            EngineConfig::new(SelectorKind::Default).with_failure_policy(FailurePolicy::Requeue {
                max_retries: 0,
                backoff: 0,
            });
        let s = Engine::new(&tree, cfg)
            .with_faults(trace(&[(30, 1, FaultKind::Fail)]))
            .run(&JobLog::new("one", vec![job(1, 0, 100, 4)]))
            .unwrap();
        assert_eq!(s.outcomes[0].status, JobStatus::Cancelled);
        assert_eq!(s.outcomes[0].end, 30);
    }

    #[test]
    fn requeue_front_restarts_before_queue() {
        let tree = small_tree();
        let mk = |policy| {
            let cfg = EngineConfig::new(SelectorKind::Default).with_failure_policy(policy);
            Engine::new(&tree, cfg)
                .with_faults(trace(&[
                    (30, 0, FaultKind::Fail),
                    (40, 0, FaultKind::Recover),
                ]))
                .run(&JobLog::new(
                    "two",
                    vec![job(1, 0, 100, 4), job(2, 10, 100, 4)],
                ))
                .unwrap()
        };
        // Front: the killed job restarts first.
        let front = mk(FailurePolicy::RequeueFront);
        assert_eq!(front.outcome(JobId(1)).unwrap().start, 40);
        assert_eq!(front.outcome(JobId(2)).unwrap().start, 140);
        // Back (default): the killed job waits behind the queued one.
        let back = mk(FailurePolicy::default());
        assert_eq!(back.outcome(JobId(2)).unwrap().start, 40);
        assert_eq!(back.outcome(JobId(1)).unwrap().start, 140);
    }

    #[test]
    fn drain_waits_for_job_then_downs_node() {
        let tree = small_tree();
        let log = JobLog::new(
            "mix",
            vec![job(1, 0, 100, 4), job(2, 20, 10, 4), job(3, 25, 10, 3)],
        );
        let s = Engine::new(&tree, EngineConfig::new(SelectorKind::Default))
            .with_faults(trace(&[(10, 0, FaultKind::Drain)]))
            .run(&log)
            .unwrap();
        // The drain does not kill job 1: it runs its full 100 s.
        let o1 = s.outcome(JobId(1)).unwrap();
        assert_eq!((o1.status, o1.end), (JobStatus::Completed, 100));
        // Afterwards only 3 nodes survive: job 2 (4 nodes) can never run
        // and is rejected; job 3 backfills past the stuck head.
        let o2 = s.outcome(JobId(2)).unwrap();
        assert_eq!(o2.status, JobStatus::Rejected);
        let o3 = s.outcome(JobId(3)).unwrap();
        assert_eq!((o3.status, o3.start), (JobStatus::Completed, 100));
    }

    #[test]
    fn fail_on_idle_node_is_a_plain_capacity_loss() {
        let tree = small_tree();
        let s = Engine::new(&tree, EngineConfig::new(SelectorKind::Default))
            .with_faults(trace(&[(5, 3, FaultKind::Fail)]))
            .run(&JobLog::new("one", vec![job(1, 10, 50, 3)]))
            .unwrap();
        // 3 of 4 nodes survive; the 3-node job still runs on time.
        let o = &s.outcomes[0];
        assert_eq!((o.status, o.start), (JobStatus::Completed, 10));
    }

    #[test]
    fn redundant_transitions_are_tolerated() {
        let tree = small_tree();
        let s = Engine::new(&tree, EngineConfig::new(SelectorKind::Default))
            .with_faults(trace(&[
                (5, 0, FaultKind::Fail),
                (6, 0, FaultKind::Fail),    // already down
                (7, 1, FaultKind::Recover), // already up
                (8, 0, FaultKind::Drain),   // down stays down
                (9, 0, FaultKind::Recover),
            ]))
            .run(&JobLog::new("one", vec![job(1, 20, 10, 4)]))
            .unwrap();
        assert_eq!(s.outcomes[0].status, JobStatus::Completed);
    }

    #[test]
    fn oversized_reject_policy_keeps_others_running() {
        let tree = small_tree();
        let cfg = EngineConfig::new(SelectorKind::Default).reject_oversized();
        let log = JobLog::new("mix", vec![job(1, 0, 50, 9), job(2, 5, 50, 2)]);
        let s = Engine::new(&tree, cfg).run(&log).unwrap();
        let o1 = s.outcome(JobId(1)).unwrap();
        assert_eq!(o1.status, JobStatus::Rejected);
        assert_eq!((o1.start, o1.end), (0, 0));
        let o2 = s.outcome(JobId(2)).unwrap();
        assert_eq!((o2.status, o2.start), (JobStatus::Completed, 5));
        assert_eq!(s.count_status(JobStatus::Rejected), 1);
        assert_eq!(s.count_status(JobStatus::Completed), 1);
        // Throughput counts the completed job only, not the rejected one.
        assert_eq!(s.makespan, 55);
        assert_eq!(s.throughput(), 3600.0 / 55.0);
    }

    #[test]
    fn validation_rejects_degenerate_input() {
        let tree = small_tree();
        let cfg = EngineConfig::new(SelectorKind::Default);
        // Duplicate job ids.
        let dup = JobLog::new("dup", vec![job(7, 0, 10, 1), job(7, 1, 10, 1)]);
        assert_eq!(
            Engine::new(&tree, cfg).run(&dup),
            Err(EngineError::DuplicateJob(JobId(7)))
        );
        // Zero-node job.
        let zero = JobLog::new("zero", vec![job(1, 0, 10, 0)]);
        assert_eq!(
            Engine::new(&tree, cfg).run(&zero),
            Err(EngineError::ZeroNodeJob(JobId(1)))
        );
        // Fault trace naming a node outside the machine.
        let err = Engine::new(&tree, cfg)
            .with_faults(trace(&[(1, 99, FaultKind::Fail)]))
            .run(&JobLog::new("ok", vec![job(1, 0, 10, 1)]))
            .unwrap_err();
        assert!(matches!(err, EngineError::InvalidFaultTrace(_)));
        // Drain list naming a node outside the machine.
        let err = Engine::new(&tree, cfg)
            .drain_nodes(vec![commsched_topology::NodeId(99)])
            .run(&JobLog::new("ok", vec![job(1, 0, 10, 1)]))
            .unwrap_err();
        assert_eq!(
            err,
            EngineError::NodeOutOfRange {
                node: 99,
                machine: 4
            }
        );
    }

    #[test]
    fn conservative_backfill_survives_permanent_capacity_loss() {
        let tree = small_tree();
        let cfg = EngineConfig::new(SelectorKind::Default).conservative_backfill();
        let log = JobLog::new(
            "mix",
            vec![job(1, 0, 100, 4), job(2, 20, 10, 4), job(3, 25, 10, 2)],
        );
        let s = Engine::new(&tree, cfg)
            .with_faults(trace(&[(10, 0, FaultKind::Drain)]))
            .run(&log)
            .unwrap();
        // Job 2 can never fit the surviving 3 nodes: no reservation, no
        // panic, rejected at the end; job 3 still runs.
        assert_eq!(s.outcome(JobId(2)).unwrap().status, JobStatus::Rejected);
        assert_eq!(s.outcome(JobId(3)).unwrap().status, JobStatus::Completed);
    }

    #[test]
    fn walltime_enforcement_composes_with_requeue() {
        let tree = small_tree();
        let mut cfg = EngineConfig::new(SelectorKind::Default);
        cfg.enforce_walltime = true;
        let s = Engine::new(&tree, cfg)
            .with_faults(trace(&[
                (30, 0, FaultKind::Fail),
                (35, 0, FaultKind::Recover),
            ]))
            .run(&JobLog::new("one", vec![job(1, 0, 100, 4)]))
            .unwrap();
        let o = &s.outcomes[0];
        assert_eq!(o.status, JobStatus::Completed);
        assert_eq!(o.end - o.start, 100);
    }

    #[test]
    fn switch_down_kills_subtree_and_requeue_waits_for_recovery() {
        // A whole-machine job dies when one leaf switch goes dark; the
        // requeued copy cannot restart until the switch returns, because
        // the masked leaf's nodes never re-enter the free counters early.
        let tree = small_tree();
        let leaf0 = tree.leaf(0).0;
        let cfg = EngineConfig::new(SelectorKind::Default);
        let s = Engine::new(&tree, cfg)
            .with_faults(trace(&[
                (30, leaf0, FaultKind::SwitchDown),
                (60, leaf0, FaultKind::SwitchUp),
            ]))
            .run(&JobLog::new("one", vec![job(1, 0, 100, 4)]))
            .unwrap();
        let o = &s.outcomes[0];
        assert_eq!(o.status, JobStatus::Completed);
        assert_eq!((o.start, o.end), (60, 160));
        assert_eq!(o.retries, 1);
        assert_eq!(o.lost_node_seconds, 30 * 4);
        assert_eq!(s.makespan, 160);
    }

    #[test]
    fn scheduler_places_around_downed_switch() {
        // Graceful degradation: with one leaf masked, a job that fits the
        // surviving subtree starts immediately on it.
        let tree = small_tree();
        let leaf0 = tree.leaf(0).0;
        let s = Engine::new(&tree, EngineConfig::new(SelectorKind::Default))
            .with_faults(trace(&[
                (10, leaf0, FaultKind::SwitchDown),
                (200, leaf0, FaultKind::SwitchUp),
            ]))
            .run(&JobLog::new("one", vec![job(1, 20, 5, 2)]))
            .unwrap();
        let o = &s.outcomes[0];
        assert_eq!(o.status, JobStatus::Completed);
        assert_eq!((o.start, o.end), (20, 25));
        assert_eq!(o.retries, 0);
    }

    #[test]
    fn degraded_links_stretch_comm_runtime_until_restored() {
        use commsched_topology::NodeId;
        let tree = small_tree();
        // Halve every node uplink so the job's routes are degraded no
        // matter which leaf the selector picks.
        let degrade: Vec<(u64, usize, FaultKind)> = (0..tree.num_nodes())
            .map(|n| {
                (
                    0,
                    tree.node_uplink(NodeId(n)),
                    FaultKind::LinkDegrade { permille: 500 },
                )
            })
            .collect();
        let log = JobLog::new("one", vec![comm_job(1, 10, 100, 2, 0.5)]);

        // Degraded fabric: the 50% comm fraction runs at half speed, so
        // 50s compute + 100s communication = 150s.
        let s = Engine::new(&tree, EngineConfig::new(SelectorKind::Default))
            .with_faults(trace(&degrade))
            .run(&log)
            .unwrap();
        assert_eq!(s.outcomes[0].status, JobStatus::Completed);
        assert_eq!(s.outcomes[0].end - s.outcomes[0].start, 150);

        // Repairing the cables before the job starts restores the
        // nominal 100s runtime exactly (division by 1.0 is a no-op).
        let mut repaired = degrade.clone();
        repaired.extend(
            (0..tree.num_nodes()).map(|n| (5, tree.node_uplink(NodeId(n)), FaultKind::LinkRestore)),
        );
        let s = Engine::new(&tree, EngineConfig::new(SelectorKind::Default))
            .with_faults(trace(&repaired))
            .run(&log)
            .unwrap();
        assert_eq!(s.outcomes[0].end - s.outcomes[0].start, 100);
    }

    #[test]
    fn mixed_domain_chaos_is_deterministic() {
        use commsched_metrics::Registry;
        use commsched_trace::Capture;

        // Node churn, correlated switch outages and degraded cables all
        // at once: two runs of the same chaos must agree byte-for-byte on
        // trace, report and summary, and every job must reach a terminal
        // outcome.
        let tree = Tree::regular_two_level(3, 6);
        let log = LogSpec::new(
            SystemModel {
                total_nodes: 18,
                min_request: 1,
                max_request: 12,
                ..SystemModel::theta()
            },
            60,
            11,
        )
        .comm_percent(70)
        .generate();
        let horizon = log.fault_horizon();
        let node = FaultTrace::mtbf(tree.num_nodes(), 30_000.0, 4_000.0, horizon, 3).unwrap();
        let root = tree.root().0;
        let switches =
            FaultTrace::switch_mtbf(tree.num_switches(), root, 60_000.0, 6_000.0, horizon, 4)
                .unwrap();
        let links = FaultTrace::link_degrade(
            tree.num_directed_links(),
            20_000.0,
            5_000.0,
            400,
            horizon,
            5,
        )
        .unwrap();
        let faults = node.merge(switches).merge(links);

        let run = || {
            let cfg = EngineConfig::new(SelectorKind::Adaptive).with_failure_policy(
                FailurePolicy::Requeue {
                    max_retries: 3,
                    backoff: 10,
                },
            );
            let engine = Engine::new(&tree, cfg).with_faults(faults.clone());
            let mut cap = Capture::new();
            let mut reg = Registry::new();
            let s = engine.run_observed(&log, &mut cap, &mut reg).unwrap();
            (s, cap.to_jsonl(), reg.snapshot().to_json_pretty())
        };
        let (s1, j1, r1) = run();
        let (s2, j2, r2) = run();
        assert_eq!(s1, s2, "summary not replay-stable under mixed chaos");
        assert_eq!(j1, j2, "trace not replay-stable under mixed chaos");
        assert_eq!(r1, r2, "report not replay-stable under mixed chaos");

        assert_eq!(s1.outcomes.len(), log.jobs.len());
        // The chaos actually exercised all three fault domains.
        assert!(j1.contains("\"ev\":\"fault\""), "no node-fault events");
        assert!(
            j1.contains("\"ev\":\"switch_fault\""),
            "no switch-fault events"
        );
        assert!(j1.contains("\"ev\":\"link_fault\""), "no link-fault events");
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(12))]

            /// (a) An empty fault trace leaves every RunSummary bit-equal
            /// to the failure-free engine, for every selector.
            #[test]
            fn empty_trace_changes_nothing(seed in any::<u64>(), pct in 0u8..=100) {
                let tree = Tree::regular_two_level(3, 6);
                let log = LogSpec::new(
                    SystemModel {
                        total_nodes: 18,
                        min_request: 1,
                        max_request: 8,
                        ..SystemModel::theta()
                    },
                    25,
                    seed,
                )
                .comm_percent(pct)
                .generate();
                for kind in SelectorKind::ALL {
                    let plain = Engine::new(&tree, EngineConfig::new(kind))
                        .run(&log)
                        .unwrap();
                    let faulty = Engine::new(&tree, EngineConfig::new(kind))
                        .with_faults(FaultTrace::empty())
                        .run(&log)
                        .unwrap();
                    prop_assert_eq!(&plain, &faulty);
                }
            }

            /// (b) Under arbitrary fault traces no job is ever lost: every
            /// job ends with exactly one terminal outcome, and kills never
            /// panic or hang the virtual clock.
            #[test]
            fn no_job_lost_under_random_faults(
                seed in any::<u64>(),
                raw in proptest::collection::vec((0u64..3000, 0usize..18, 0u8..3), 0..40),
            ) {
                let tree = Tree::regular_two_level(3, 6);
                let log = LogSpec::new(
                    SystemModel {
                        total_nodes: 18,
                        min_request: 1,
                        max_request: 8,
                        ..SystemModel::theta()
                    },
                    25,
                    seed,
                )
                .comm_percent(50)
                .generate();
                let events: Vec<FaultEvent> = raw
                    .iter()
                    .map(|&(t, node, k)| FaultEvent {
                        t,
                        node,
                        kind: match k {
                            0 => FaultKind::Fail,
                            1 => FaultKind::Recover,
                            _ => FaultKind::Drain,
                        },
                    })
                    .collect();
                for policy in [
                    FailurePolicy::Cancel,
                    FailurePolicy::default(),
                    FailurePolicy::RequeueFront,
                ] {
                    let cfg = EngineConfig::new(SelectorKind::Balanced)
                        .with_failure_policy(policy);
                    let s = Engine::new(&tree, cfg)
                        .with_faults(FaultTrace::new(events.clone()))
                        .run(&log)
                        .unwrap();
                    prop_assert_eq!(s.outcomes.len(), log.jobs.len());
                    let mut ids: Vec<u64> =
                        s.outcomes.iter().map(|o| o.id.0).collect();
                    ids.sort_unstable();
                    ids.dedup();
                    prop_assert_eq!(ids.len(), log.jobs.len());
                    let terminal = s.count_status(JobStatus::Completed)
                        + s.count_status(JobStatus::Cancelled)
                        + s.count_status(JobStatus::Rejected);
                    prop_assert_eq!(terminal, s.outcomes.len());
                    for o in &s.outcomes {
                        prop_assert!(o.submit <= o.start && o.start <= o.end);
                    }
                }
            }
        }
    }
}

mod observed {
    use super::*;
    use crate::{FailurePolicy, JobStatus};
    use commsched_metrics::Registry;
    use commsched_trace::{Capture, EventKind as TK, NullRecorder};
    use commsched_workload::fault::{FaultEvent, FaultKind, FaultTrace};

    fn faulty_setup() -> (Tree, JobLog, FaultTrace) {
        let tree = Tree::regular_two_level(3, 6);
        let log = LogSpec::new(
            SystemModel {
                total_nodes: 18,
                min_request: 1,
                max_request: 12,
                ..SystemModel::theta()
            },
            30,
            11,
        )
        .comm_percent(60)
        .generate();
        let faults = FaultTrace::new(vec![
            FaultEvent {
                t: 500,
                node: 2,
                kind: FaultKind::Fail,
            },
            FaultEvent {
                t: 900,
                node: 2,
                kind: FaultKind::Recover,
            },
            FaultEvent {
                t: 1400,
                node: 7,
                kind: FaultKind::Fail,
            },
            FaultEvent {
                t: 2000,
                node: 7,
                kind: FaultKind::Recover,
            },
        ]);
        (tree, log, faults)
    }

    #[test]
    fn observed_run_matches_unobserved() {
        let (tree, log, faults) = faulty_setup();
        let cfg =
            EngineConfig::new(SelectorKind::Balanced).with_failure_policy(FailurePolicy::Requeue {
                max_retries: 2,
                backoff: 30,
            });
        let plain = Engine::new(&tree, cfg)
            .with_faults(faults.clone())
            .run(&log)
            .unwrap();
        let mut cap = Capture::new();
        let mut reg = Registry::new();
        let observed = Engine::new(&tree, cfg)
            .with_faults(faults)
            .run_observed(&log, &mut cap, &mut reg)
            .unwrap();
        assert_eq!(plain, observed);
        assert!(!cap.events.is_empty());

        // Counters reconcile with the summary.
        assert_eq!(
            reg.counter_value("jobs.submitted"),
            Some(log.jobs.len() as u64)
        );
        assert_eq!(
            reg.counter_value("jobs.completed"),
            Some(observed.count_status(JobStatus::Completed) as u64)
        );
        assert_eq!(
            reg.counter_value("jobs.cancelled"),
            Some(observed.count_status(JobStatus::Cancelled) as u64)
        );
        assert_eq!(
            reg.counter_value("jobs.rejected"),
            Some(observed.count_status(JobStatus::Rejected) as u64)
        );
        assert_eq!(
            reg.counter_value("jobs.requeued"),
            Some(observed.total_retries())
        );
        assert_eq!(reg.counter_value("faults.applied"), Some(4));
        let report = reg.snapshot();
        let wait = &report
            .histograms
            .iter()
            .find(|(n, _)| n == "job.wait_s")
            .unwrap()
            .1;
        assert_eq!(
            wait.count(),
            observed.count_status(JobStatus::Completed) as u64
        );
    }

    #[test]
    fn null_recorder_emits_nothing_and_changes_nothing() {
        let (tree, log, faults) = faulty_setup();
        let cfg = EngineConfig::new(SelectorKind::Adaptive);
        let mut reg = Registry::new();
        let a = Engine::new(&tree, cfg)
            .with_faults(faults.clone())
            .run_observed(&log, &mut NullRecorder, &mut reg)
            .unwrap();
        let b = Engine::new(&tree, cfg)
            .with_faults(faults)
            .run(&log)
            .unwrap();
        assert_eq!(a, b);
        // The registry still fills (counters are independent of tracing).
        assert!(reg.counter_value("jobs.started").unwrap() > 0);
    }

    #[test]
    fn trace_is_ordered_and_spans_pair_up() {
        let (tree, log, faults) = faulty_setup();
        let cfg = EngineConfig::new(SelectorKind::Greedy)
            .with_failure_policy(FailurePolicy::RequeueFront);
        let mut cap = Capture::new();
        let mut reg = Registry::new();
        Engine::new(&tree, cfg)
            .with_faults(faults)
            .run_observed(&log, &mut cap, &mut reg)
            .unwrap();

        let mut last_t = 0;
        let mut open: Vec<(u64, u32)> = Vec::new(); // running (job, attempt)
        for (i, ev) in cap.events.iter().enumerate() {
            assert_eq!(ev.seq, i as u64, "dense sequence numbers");
            assert!(ev.t_us >= last_t, "timestamps never go backwards");
            last_t = ev.t_us;
            match ev.kind {
                TK::JobStart { job, attempt, .. } => {
                    // The immediately preceding event is this attempt's place.
                    match cap.events[i - 1].kind {
                        TK::JobPlace {
                            job: pj,
                            attempt: pa,
                            ..
                        } => {
                            assert_eq!((pj, pa), (job, attempt));
                        }
                        other => panic!("start not preceded by place: {other:?}"),
                    }
                    open.push((job, attempt));
                }
                TK::JobFinish { job, attempt, .. } | TK::JobRequeue { job, attempt, .. } => {
                    let pos = open
                        .iter()
                        .position(|&(j, a)| (j, a) == (job, attempt))
                        .expect("finish/requeue closes an open span");
                    open.remove(pos);
                }
                _ => {}
            }
        }
        assert!(open.is_empty(), "all started attempts terminate");
    }

    /// A zero `msize` is a configuration error, not a panic at the first
    /// communication-intensive placement: `run` and `run_observed` return
    /// it before anything is recorded, and a log that would never have
    /// needed a `CollectiveSpec` is rejected the same way.
    #[test]
    fn zero_message_size_is_rejected_before_the_run() {
        let tree = small_tree();
        let cfg = EngineConfig {
            msize: 0,
            ..EngineConfig::new(SelectorKind::Default)
        };
        let comm = JobLog::new("comm", vec![comm_job(1, 0, 100, 2, 0.5)]);
        let compute_only = JobLog::new("compute", vec![job(1, 0, 100, 2)]);
        for log in [&comm, &compute_only] {
            assert_eq!(
                Engine::new(&tree, cfg).run(log),
                Err(EngineError::ZeroMessageSize)
            );
            let mut cap = Capture::new();
            let mut reg = Registry::new();
            assert_eq!(
                Engine::new(&tree, cfg).run_observed(log, &mut cap, &mut reg),
                Err(EngineError::ZeroMessageSize)
            );
            assert!(cap.events.is_empty(), "{:?}", cap.events);
        }
        assert_eq!(
            EngineError::ZeroMessageSize.to_string(),
            "the collective message size (msize) is zero"
        );
    }
}

/// Run counters are a tally of the emitted events (DESIGN.md §4.5): each
/// equals a recount of its event kind in a full trace, whatever the caller
/// records, and each one a run may lack appears exactly when its event did.
mod tally {
    use super::*;
    use crate::{FailurePolicy, JobStatus, RunSummary};
    use commsched_metrics::Registry;
    use commsched_trace::{Capture, ClassMask, EndStatus, Event, EventKind as TK};
    use commsched_workload::fault::{FaultEvent, FaultKind, FaultTrace};
    use proptest::prelude::*;
    use std::collections::BTreeMap;

    /// The counters registered on every run, rejected inputs included.
    const SCHED: [&str; 9] = [
        "faults.applied",
        "jobs.backfilled",
        "jobs.cancelled",
        "jobs.completed",
        "jobs.rejected",
        "jobs.requeued",
        "jobs.started",
        "jobs.submitted",
        "sched.passes",
    ];

    /// The counters a full trace implies, `sched.passes` aside: the eight
    /// eager ones at zero or more, the rest only where their event fired.
    fn recount(events: &[Event]) -> BTreeMap<String, u64> {
        let mut want: BTreeMap<String, u64> = SCHED
            .iter()
            .filter(|&&n| n != "sched.passes")
            .map(|&n| (n.to_string(), 0))
            .collect();
        let mut add = |name: &str, by: u64| *want.entry(name.to_string()).or_insert(0) += by;
        for e in events {
            match e.kind {
                TK::JobSubmit { .. } => add("jobs.submitted", 1),
                TK::JobStart { backfilled, .. } => {
                    add("jobs.started", 1);
                    add("jobs.backfilled", u64::from(backfilled));
                }
                TK::JobFinish { status, .. } => match status {
                    EndStatus::Completed => add("jobs.completed", 1),
                    EndStatus::Cancelled => add("jobs.cancelled", 1),
                },
                TK::JobRequeue { .. } => add("jobs.requeued", 1),
                TK::JobReject { .. } => add("jobs.rejected", 1),
                TK::Fault { .. } => add("faults.applied", 1),
                TK::SwitchFault { victims, .. } => {
                    add("faults.applied", 1);
                    add("faults.switch.applied", 1);
                    if victims > 0 {
                        add("faults.switch.victims", victims);
                    }
                }
                TK::LinkFault { .. } => {
                    add("faults.applied", 1);
                    add("faults.link.applied", 1);
                }
                TK::SaSearch {
                    evals,
                    cost_incumbent,
                    cost_final,
                    ..
                } => {
                    add("sa.searches", 1);
                    add("sa.evals", evals);
                    if cost_final < cost_incumbent {
                        add("sa.improved", 1);
                    }
                }
                TK::JobEligible { .. }
                | TK::JobPlace { .. }
                | TK::NetSolve { .. }
                | TK::NetRates { .. }
                | TK::NetLinks { .. } => {}
            }
        }
        want
    }

    /// One observed run into a capture of `mask`: (summary, capture,
    /// registry).
    fn observe(
        engine: &Engine<'_>,
        log: &JobLog,
        mask: ClassMask,
    ) -> (RunSummary, Capture, Registry) {
        let mut cap = Capture::with_mask(mask);
        let mut reg = Registry::new();
        let s = engine.run_observed(log, &mut cap, &mut reg).unwrap();
        (s, cap, reg)
    }

    fn is_dense(cap: &Capture) -> bool {
        cap.events.iter().zip(0u64..).all(|(e, i)| e.seq == i)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(8))]

        #[test]
        fn counters_are_a_tally_of_the_trace(
            seed in any::<u64>(),
            raw in prop::collection::vec((any::<u16>(), any::<u16>(), 0u8..9), 0..24),
        ) {
            let tree = Tree::regular_two_level(3, 6);
            let log = LogSpec::new(
                SystemModel {
                    total_nodes: 18,
                    min_request: 1,
                    max_request: 12,
                    ..SystemModel::theta()
                },
                24,
                seed,
            )
            .comm_percent(60)
            .generate();
            let horizon = log.jobs.iter().map(|j| j.submit + j.runtime).max().unwrap_or(0);
            let leaves: Vec<usize> = (0..3).map(|k| tree.leaf(k).0).collect();
            let links = tree.num_directed_links();
            let faults = FaultTrace::new(
                raw.iter()
                    .map(|&(t, target, kind)| {
                        let target = usize::from(target);
                        let (node, kind) = match kind {
                            0 => (target % 18, FaultKind::Fail),
                            1 => (target % 18, FaultKind::Recover),
                            2 => (target % 18, FaultKind::Drain),
                            3 => (leaves[target % 3], FaultKind::SwitchDown),
                            4 => (leaves[target % 3], FaultKind::SwitchUp),
                            5 | 6 => (
                                target % links,
                                FaultKind::LinkDegrade {
                                    permille: u32::try_from(target % 1000).unwrap() + 1,
                                },
                            ),
                            _ => (target % links, FaultKind::LinkRestore),
                        };
                        FaultEvent {
                            t: horizon * u64::from(t) / 65_536,
                            node,
                            kind,
                        }
                    })
                    .collect(),
            );
            let backfills: [fn(EngineConfig) -> EngineConfig; 3] = [
                |c| c,
                EngineConfig::conservative_backfill,
                EngineConfig::without_backfill,
            ];
            for backfill in backfills {
                for policy in [
                    FailurePolicy::Cancel,
                    FailurePolicy::Requeue { max_retries: 2, backoff: 30 },
                    FailurePolicy::RequeueFront,
                ] {
                    let sa = SelectorKind::Sa(SaSelector::new(16, seed));
                    for kind in SelectorKind::ALL.into_iter().chain([sa]) {
                        let cfg = backfill(EngineConfig::new(kind)).with_failure_policy(policy);
                        let engine = Engine::new(&tree, cfg).with_faults(faults.clone());
                        let (s, cap, reg) = observe(&engine, &log, ClassMask::ALL);
                        let report = reg.snapshot();
                        let mut got: BTreeMap<String, u64> =
                            report.counters.iter().cloned().collect();
                        prop_assert!(got.remove("sched.passes").is_some_and(|n| n > 0));
                        prop_assert_eq!(&got, &recount(&cap.events), "{:?} {} {}", cfg.backfill, policy, kind);

                        let count = |name: &str| got[name];
                        let status = |st| u64::try_from(s.count_status(st)).unwrap();
                        prop_assert_eq!(count("jobs.completed"), status(JobStatus::Completed));
                        prop_assert_eq!(count("jobs.cancelled"), status(JobStatus::Cancelled));
                        prop_assert_eq!(count("jobs.rejected"), status(JobStatus::Rejected));
                        prop_assert_eq!(count("jobs.requeued"), s.total_retries());
                        prop_assert_eq!(
                            count("jobs.started"),
                            count("jobs.completed") + count("jobs.cancelled") + count("jobs.requeued")
                        );
                        prop_assert_eq!(
                            count("faults.applied"),
                            u64::try_from(faults.events().len()).unwrap()
                        );
                        prop_assert!(is_dense(&cap));
                        // The engine stamps each search with the job it
                        // starts next and the budget it configured.
                        for w in cap.events.windows(2) {
                            if let TK::SaSearch { job, attempt, budget, .. } = w[0].kind {
                                prop_assert_eq!(budget, 16);
                                prop_assert!(
                                    matches!(w[1].kind, TK::JobPlace { job: j, attempt: a, .. } if (j, a) == (job, attempt)),
                                    "sa_search for job {} attempt {} not followed by its place",
                                    job,
                                    attempt
                                );
                            }
                        }
                        prop_assert!(!matches!(
                            cap.events.last().map(|e| e.kind),
                            Some(TK::SaSearch { .. })
                        ));

                        // What the caller records changes neither the
                        // counts nor the numbering of what it gets.
                        let json = report.to_json_pretty();
                        let masks = [
                            ClassMask::NONE,
                            ClassMask::JOB,
                            ClassMask::parse("fault").unwrap(),
                        ];
                        for mask in masks {
                            let (masked, cap, reg) = observe(&engine, &log, mask);
                            prop_assert_eq!(&masked, &s);
                            prop_assert!(reg.snapshot().to_json_pretty() == json, "{:?}", mask);
                            prop_assert!(is_dense(&cap));
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn a_rejected_log_leaves_the_nine_scheduler_counters_at_zero() {
        let tree = small_tree();
        let logs = [
            JobLog::new("zero", vec![job(1, 0, 100, 2), job(2, 5, 100, 0)]),
            JobLog::new("dup", vec![job(1, 0, 100, 2), job(1, 5, 100, 2)]),
            JobLog::new("wide", vec![job(1, 0, 100, 2), job(2, 5, 100, 5)]),
        ];
        let want: Vec<(String, u64)> = SCHED.iter().map(|&n| (n.to_string(), 0)).collect();
        for log in &logs {
            let mut reg = Registry::new();
            let err = Engine::new(&tree, EngineConfig::new(SelectorKind::Default))
                .run_observed(log, &mut Capture::new(), &mut reg)
                .unwrap_err();
            assert!(
                matches!(
                    err,
                    EngineError::ZeroNodeJob(_)
                        | EngineError::DuplicateJob(_)
                        | EngineError::JobTooLarge { .. }
                ),
                "{err:?}"
            );
            let report = reg.snapshot();
            assert_eq!(report.counters, want, "{}", log.name);
            assert!(report.gauges.is_empty() && report.histograms.is_empty());
        }
    }

    #[test]
    fn a_switch_fault_without_victims_counts_no_victims() {
        // The leaf goes down and comes back before the only job arrives.
        let tree = small_tree();
        let leaf = tree.leaf(0).0;
        let faults = FaultTrace::new(vec![
            FaultEvent {
                t: 10,
                node: leaf,
                kind: FaultKind::SwitchDown,
            },
            FaultEvent {
                t: 20,
                node: leaf,
                kind: FaultKind::SwitchUp,
            },
        ]);
        let log = JobLog::new("late", vec![job(1, 50, 100, 2)]);
        let mut reg = Registry::new();
        Engine::new(&tree, EngineConfig::new(SelectorKind::Default))
            .with_faults(faults)
            .run_observed(&log, &mut Capture::new(), &mut reg)
            .unwrap();
        assert_eq!(reg.counter_value("faults.switch.applied"), Some(2));
        assert_eq!(reg.counter_value("faults.applied"), Some(2));
        assert_eq!(reg.counter_value("faults.switch.victims"), None);
    }

    #[test]
    fn a_search_without_improvement_counts_no_improvement() {
        // A whole-machine job fills every leaf, so the anneal finds no
        // legal move: one search, no evaluation, nothing better.
        let tree = Tree::regular_two_level(3, 6);
        let log = JobLog::new("full", vec![comm_job(1, 0, 100, 18, 0.5)]);
        let cfg = EngineConfig::new(SelectorKind::Sa(SaSelector::new(16, 1)));
        let mut cap = Capture::new();
        let mut reg = Registry::new();
        Engine::new(&tree, cfg)
            .run_observed(&log, &mut cap, &mut reg)
            .unwrap();
        assert!(cap
            .events
            .iter()
            .any(|e| matches!(e.kind, TK::SaSearch { evals: 0, .. })));
        assert_eq!(reg.counter_value("sa.searches"), Some(1));
        assert_eq!(reg.counter_value("sa.evals"), Some(0));
        assert_eq!(reg.counter_value("sa.improved"), None);
    }

    #[test]
    fn two_runs_into_one_registry_add_up() {
        // An annealed run (it has `sa.*` counters) and a default one: in a
        // shared registry counters and histogram counts sum, and each
        // gauge holds the second run's value.
        let tree = Tree::regular_two_level(3, 6);
        let spec = |jobs, seed| {
            let model = SystemModel {
                total_nodes: 18,
                min_request: 1,
                max_request: 12,
                ..SystemModel::theta()
            };
            LogSpec::new(model, jobs, seed).comm_percent(60).generate()
        };
        let runs = [
            (SelectorKind::Sa(SaSelector::new(16, 1)), spec(24, 3)),
            (SelectorKind::Default, spec(17, 4)),
        ];
        let mut shared = Registry::new();
        let mut alone = Vec::new();
        for (kind, log) in &runs {
            let engine = Engine::new(&tree, EngineConfig::new(*kind));
            engine
                .run_observed(log, &mut Capture::new(), &mut shared)
                .unwrap();
            let mut reg = Registry::new();
            engine
                .run_observed(log, &mut Capture::new(), &mut reg)
                .unwrap();
            alone.push(reg.snapshot());
        }
        let [first, second] = [&alone[0], &alone[1]];
        assert!(first.counters.iter().any(|(n, _)| n == "sa.searches"));
        assert!(second.counters.iter().all(|(n, _)| n != "sa.searches"));

        let both = shared.snapshot();
        let mut sums: BTreeMap<String, u64> = BTreeMap::new();
        for (name, v) in first.counters.iter().chain(&second.counters) {
            *sums.entry(name.clone()).or_insert(0) += v;
        }
        assert_eq!(both.counters, sums.into_iter().collect::<Vec<_>>());
        assert_eq!(both.gauges, second.gauges);
        assert_ne!(both.gauges, first.gauges);
        let counts = |r: &commsched_metrics::RunReport| -> Vec<(String, u64)> {
            r.histograms
                .iter()
                .map(|(n, h)| (n.clone(), h.count()))
                .collect()
        };
        let want: Vec<(String, u64)> = counts(first)
            .into_iter()
            .zip(counts(second))
            .map(|((n, a), (m, b))| {
                assert_eq!(n, m);
                (n, a + b)
            })
            .collect();
        assert_eq!(want.len(), 2);
        assert_eq!(counts(&both), want);
    }
}

/// The two structures a scheduling pass leans on: the fit-indexed pending
/// queue and the linear-sweep reservation search.
mod passes {
    use super::*;
    use crate::engine::reference::earliest_fit_naive;
    use crate::engine::{add_delta, earliest_fit, start_bound};
    use crate::queue::PendingQueue;
    use commsched_num::i64_of_usize;
    use proptest::prelude::*;
    use std::collections::BTreeMap;

    /// Check the queue against the plain `(job, nodes, walltime)` list it
    /// stands for: same order from `iter`, same head, slots strictly
    /// increasing.
    fn assert_matches(q: &PendingQueue, model: &[(usize, usize, u64)]) -> Vec<usize> {
        let entries: Vec<(usize, usize)> = q.iter().collect();
        let jobs: Vec<usize> = entries.iter().map(|&(_, job)| job).collect();
        let want: Vec<usize> = model.iter().map(|&(job, ..)| job).collect();
        assert_eq!(jobs, want);
        assert!(entries.windows(2).all(|w| w[0].0 < w[1].0));
        assert_eq!(q.first(), entries.first().copied());
        entries.into_iter().map(|(slot, _)| slot).collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Random push/remove/lookup sequences, long enough to grow the
        /// tree several times and to repack after heavy removal, with
        /// walltimes of 0 and `u64::MAX` among the small ones. Each lookup
        /// is checked against a filter of the model: `from` on live slots,
        /// dead slots and past the tail; `spare` of 0, below and above
        /// `free`; no window, a window of 0, of `u64::MAX` and in between.
        #[test]
        fn pending_queue_matches_vec_model(
            ops in prop::collection::vec(
                (0u8..10, any::<usize>(), 0usize..18, 0usize..20, any::<u64>()),
                1..400,
            )
        ) {
            let mut q = PendingQueue::default();
            let mut model: Vec<(usize, usize, u64)> = Vec::new();
            let mut next_job = 0usize;
            for (op, a, free, spare, w) in ops {
                let walltime = match w % 8 {
                    0 => 0,
                    1 => u64::MAX,
                    _ => w % 40,
                };
                match op {
                    0..=3 => {
                        q.push_back(next_job, 1 + a % 16, walltime);
                        model.push((next_job, 1 + a % 16, walltime));
                        next_job += 1;
                    }
                    4 => {
                        q.push_front(next_job, 1 + a % 16, walltime);
                        model.insert(0, (next_job, 1 + a % 16, walltime));
                        next_job += 1;
                    }
                    5..=7 if !model.is_empty() => {
                        // Mostly the head (as a draining queue does), so
                        // dead slots pile up in front of the tail.
                        let k = if op == 7 { a % model.len() } else { 0 };
                        let slots = assert_matches(&q, &model);
                        q.remove(slots[k]);
                        model.remove(k);
                    }
                    _ => {
                        let slots = assert_matches(&q, &model);
                        // Live slots, dead slots and slots past the tail.
                        let from = a % (slots.last().map_or(0, |s| s + 1) + 3);
                        let window = match w % 6 {
                            0 => None,
                            1 => Some(0),
                            2 => Some(u64::MAX),
                            _ => Some(w % 40),
                        };
                        let want = slots
                            .iter()
                            .zip(&model)
                            .find(|&(&slot, &(_, nodes, wall))| {
                                slot >= from
                                    && nodes <= free
                                    && (nodes <= spare || window.is_some_and(|w| wall <= w))
                            })
                            .map(|(&slot, &(job, ..))| (slot, job));
                        prop_assert_eq!(q.next_fit(from, free, spare, window), want);
                    }
                }
                assert_matches(&q, &model);
            }
        }

        /// The sweep over the flat profile returns what the per-candidate
        /// search over a `BTreeMap` returned, on profiles with adjacent
        /// breakpoints, repeated instants merged into one entry,
        /// breakpoints before `now` and at `u64::MAX`, needs no future
        /// meets, and saturating windows.
        #[test]
        fn earliest_fit_matches_naive(
            points in prop::collection::vec((0u64..48, any::<bool>(), -8i64..9), 0..24),
            base in 0i64..16,
            now in 0u64..24,
            dur in 1u64..40,
            long in 0u8..4,
            need in 1i64..24,
        ) {
            let mut deltas: BTreeMap<u64, i64> = BTreeMap::new();
            let mut profile = Vec::new();
            for (t, far, d) in points {
                let t = if far { u64::MAX - t } else { t };
                *deltas.entry(t).or_insert(0) += d;
                add_delta(&mut profile, t, d);
            }
            prop_assert!(profile.windows(2).all(|w| w[0].0 < w[1].0));
            let dur = match long {
                0 => u64::MAX,
                1 => u64::MAX - dur,
                _ => dur,
            };
            prop_assert_eq!(
                earliest_fit(&profile, base, now, dur, need),
                earliest_fit_naive(&deltas, base, now, dur, need)
            );
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The conservative pass's stop rule is sound: a job that could
        /// start now — it fits the free nodes and `earliest_fit` puts it at
        /// `now` — is always one the queue lookup returns under the bound
        /// `start_bound` derives from the same profile. Profiles as
        /// `earliest_fit_matches_naive` builds them: breakpoints before, at
        /// and after `now`, at and just below `u64::MAX`, drops anywhere
        /// (the last breakpoint included) or none. Walltimes of 0, of
        /// `u64::MAX` and just short of it (windows that saturate and so
        /// never contain a breakpoint at `u64::MAX`) among the small ones.
        #[test]
        fn start_bound_admits_every_job_that_can_start_now(
            points in prop::collection::vec((0u64..48, any::<bool>(), -8i64..9), 0..24),
            free in 0usize..16,
            now in 0u64..24,
            width in 1usize..16,
            wall in 0u64..40,
            long in 0u8..5,
        ) {
            let mut profile = Vec::new();
            for (t, far, d) in points {
                add_delta(&mut profile, if far { u64::MAX - t } else { t }, d);
            }
            let walltime = match long {
                0 => 0,
                1 => u64::MAX,
                2 => u64::MAX - wall,
                _ => wall,
            };
            let fits_now = width <= free
                && earliest_fit(
                    &profile,
                    i64_of_usize(free),
                    now,
                    walltime.max(1),
                    i64_of_usize(width),
                ) == Some(now);
            let (bound_free, spare, window) = start_bound(&profile, free, now);
            prop_assert_eq!(bound_free, free);
            prop_assert!(spare <= free);
            let mut q = PendingQueue::default();
            q.push_back(7, width, walltime);
            if fits_now {
                prop_assert_eq!(q.next_fit(0, free, spare, window), Some((0, 7)));
            }
        }
    }

    /// `start_bound` on hand-made profiles, four nodes free at `now = 5`.
    #[test]
    fn start_bound_reads_the_first_drop_below_the_free_count() {
        let bound = |profile: &[(u64, i64)]| start_bound(profile, 4, 5);
        // No breakpoint, or none after `now`: the free count is the bound.
        assert_eq!(bound(&[]), (4, 4, None));
        assert_eq!(bound(&[(0, -1), (5, 1)]), (4, 4, None));
        // Releases only: availability never drops.
        assert_eq!(bound(&[(10, 2), (20, 3)]), (4, 4, None));
        // A drop at the last breakpoint, below the free count.
        assert_eq!(bound(&[(10, 2), (20, -3)]), (4, 3, Some(15)));
        // A drop that stays at the free count is no drop; the first one
        // below it counts, not the deepest.
        assert_eq!(
            bound(&[(10, 2), (20, -2), (30, -1), (40, -3)]),
            (4, 3, Some(25))
        );
        // A drop below zero (more down than free) spares nothing.
        assert_eq!(bound(&[(6, -9)]), (4, 0, Some(1)));
        // No window contains a breakpoint at `u64::MAX`.
        assert_eq!(bound(&[(10, 2), (u64::MAX, -5)]), (4, 4, None));
        assert_eq!(
            bound(&[(u64::MAX - 1, -1), (u64::MAX, -5)]),
            (4, 3, Some(u64::MAX - 6))
        );
    }

    /// A queue that stays short while thousands of jobs pass through it
    /// keeps reusing the same few slots: memory follows the peak length.
    #[test]
    fn pending_queue_repacks_instead_of_growing() {
        let mut q = PendingQueue::default();
        for job in 0..100 {
            q.push_back(job, 1 + job % 7, 10);
        }
        for job in 100..20_000 {
            let (slot, head) = q.first().unwrap();
            assert_eq!(head, job - 100);
            q.remove(slot);
            q.push_back(job, 1 + job % 7, 10);
            assert!(q.iter().all(|(slot, _)| slot < 512));
        }
        assert_eq!(q.iter().count(), 100);
        assert_eq!(q.next_fit(0, 0, 0, Some(u64::MAX)), None);
    }

    /// Slot 0 is too wide and slot 1 too long, but their parent's minima
    /// (2 nodes, 1 s) pass: the descent dead-ends there and the search
    /// climbs on to slot 2 instead of giving up. Slots 4–7 repeat the
    /// pattern one level up, behind a dead slot 3.
    #[test]
    fn next_fit_climbs_on_after_a_dead_end() {
        let mut q = PendingQueue::default();
        for (job, (nodes, walltime)) in [
            (5, 1),
            (2, 100),
            (1, 5),
            (9, 9),
            (5, 1),
            (2, 100),
            (5, 1),
            (2, 100),
            (3, 3),
        ]
        .into_iter()
        .enumerate()
        {
            q.push_back(job, nodes, walltime);
        }
        assert_eq!(q.next_fit(0, 3, 0, Some(10)), Some((2, 2)));
        q.remove(2);
        q.remove(3);
        assert_eq!(q.next_fit(0, 3, 0, Some(10)), Some((8, 8)));
        assert_eq!(q.next_fit(0, 3, 2, Some(10)), Some((1, 1)));
        assert_eq!(q.next_fit(0, 3, 0, None), None);
    }

    /// Start time plus an unlimited walltime, or plus a runtime that never
    /// ends, saturates instead of overflowing (a panic under overflow
    /// checks, a finish event in the past without them).
    #[test]
    fn virtual_time_sums_saturate() {
        use crate::FailurePolicy;
        use commsched_workload::FaultTrace;

        let tree = small_tree();
        let unlimited = Job {
            walltime: u64::MAX,
            ..job(1, 5, 20, 2)
        };
        // Runs "forever" until every node fails under it at t = 50.
        let endless = job(2, 10, u64::MAX - 5, 2);
        let queued = job(3, 12, 30, 4);
        let log = JobLog::new("saturating", vec![unlimited, endless, queued]);
        let faults = FaultTrace::parse(
            "50 0 fail\n50 1 fail\n50 2 fail\n50 3 fail\n\
             60 0 recover\n60 1 recover\n60 2 recover\n60 3 recover\n",
        )
        .unwrap();
        for cfg in [
            EngineConfig::new(SelectorKind::Default),
            EngineConfig::new(SelectorKind::Default).conservative_backfill(),
        ] {
            let s = Engine::new(&tree, cfg.with_failure_policy(FailurePolicy::Cancel))
                .with_faults(faults.clone())
                .run(&log)
                .unwrap();
            let ends: Vec<(u64, u64)> = [1, 2, 3]
                .map(|id| s.outcome(JobId(id)).unwrap())
                .iter()
                .map(|o| (o.start, o.end))
                .collect();
            assert_eq!(ends, [(5, 25), (10, 50), (60, 90)]);
            assert_eq!(s.makespan, 90);
        }
    }

    /// The node-seconds a kill destroys are elapsed time × width: 2^51 s
    /// under 8,192 nodes is 2^64, which must saturate, not wrap to 0 — and
    /// so end the run as too much lost work.
    #[test]
    fn lost_work_product_saturates() {
        use crate::FailurePolicy;
        use commsched_workload::FaultTrace;

        let tree = Tree::regular_two_level(64, 128);
        let log = JobLog::new("wide", vec![job(1, 0, 1 << 52, 8192)]);
        let cfg =
            EngineConfig::new(SelectorKind::Default).with_failure_policy(FailurePolicy::Cancel);
        let err = Engine::new(&tree, cfg)
            .with_faults(FaultTrace::parse(&format!("{} 0 fail\n", 1u64 << 51)).unwrap())
            .run(&log)
            .unwrap_err();
        assert_eq!(err, EngineError::LostWorkTooLarge(u64::MAX));
    }
}

/// Engine paths the eight goldens never combine — conservative backfill
/// with fault kills, `Reject` with end-of-run rejection of FIFO-stuck jobs,
/// walltime enforcement, `Cancel`, link degradation in a continuous run —
/// pinned by digest over a backfill × failure-policy × selector matrix.
mod config_matrix {
    use super::*;
    use crate::FailurePolicy;
    use commsched_metrics::Registry;
    use commsched_topology::NodeId;
    use commsched_trace::Capture;
    use commsched_workload::fault::{FaultEvent, FaultKind, FaultTrace};

    fn fnv1a(parts: &[&str]) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for b in parts.iter().flat_map(|p| p.bytes()) {
            h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
        h
    }

    /// Digest per row, in the nesting order of the loops below. Blessed
    /// on the engine of commit 8fe27ea (before the `Run` refactor).
    const BLESSED: [u64; 27] = [
        0x7478_a2e9_e465_c585,
        0xf4bc_35d5_dd99_ee40,
        0xf7dd_e33a_ef79_2d1e,
        0xa8bc_dc69_70bb_12fa,
        0x1fc5_4f72_7f23_bfb2,
        0x8e90_bb05_b5ce_ae5c,
        0x248a_f3fa_59d7_755c,
        0xccdf_1586_d44b_6e30,
        0x62bb_6661_633b_0ad9,
        0x617d_ecef_c285_95d4,
        0x26fb_1b77_3898_86c2,
        0xb8a3_788a_99e4_2270,
        0xb0e4_256d_7327_145d,
        0xedb8_1ee7_0830_8755,
        0xfe69_5ed7_c883_3c3e,
        0x337c_e793_ced4_55f3,
        0xc20f_1ea6_3cc0_ad0a,
        0x6d6f_2d63_1281_8559,
        0x3da9_c06d_29d2_b705,
        0x0cdd_56da_9585_d08b,
        0xcf42_b1d8_7d28_26ed,
        0x57e4_214c_7ad8_2df9,
        0xc6c6_738b_eca2_17aa,
        0x3c5f_6dcb_ca32_b051,
        0x9b6e_9e72_a6af_2456,
        0x5cc5_2f42_9d92_759b,
        0xf2b5_487d_cb5f_65b7,
    ];

    #[test]
    fn digests_match_the_pre_refactor_engine() {
        let tree = Tree::regular_two_level(3, 6);
        let mut jobs = LogSpec::new(
            SystemModel {
                total_nodes: 18,
                min_request: 1,
                max_request: 12,
                ..SystemModel::theta()
            },
            36,
            11,
        )
        .comm_percent(60)
        .generate()
        .jobs;
        // Wider than the machine: rejected on submission.
        jobs.push(job(101, 1000, 700, 19));
        // Outlives its walltime unless enforcement cuts it short.
        jobs.push(Job {
            walltime: 1000,
            ..comm_job(104, 200, 5000, 3, 0.5)
        });
        // Needs the node the drain takes for good, so it never starts, and
        // under strict FIFO neither does the job behind it.
        jobs.push(job(102, 13_000, 900, 18));
        jobs.push(job(103, 13_500, 500, 2));
        jobs.sort_by_key(|j| j.submit);
        let log = JobLog::new("matrix", jobs);

        let leaf = tree.leaf_of(NodeId(6));
        let cable = tree.node_uplink(NodeId(0));
        let trunk = tree.switch_uplink(tree.leaf_of(NodeId(0)));
        let faults = FaultTrace::new(
            [
                (2000, 2, FaultKind::Fail),
                (3000, cable, FaultKind::LinkDegrade { permille: 400 }),
                (3500, trunk, FaultKind::LinkDegrade { permille: 500 }),
                (5000, leaf.0, FaultKind::SwitchDown),
                (6000, 2, FaultKind::Recover),
                (9000, leaf.0, FaultKind::SwitchUp),
                (12_000, 17, FaultKind::Drain),
                (15_000, 0, FaultKind::Fail),
                (16_000, 0, FaultKind::Recover),
                (20_000, cable, FaultKind::LinkRestore),
                (30_000, 13, FaultKind::Fail),
                (31_000, 13, FaultKind::Recover),
                (40_000, trunk, FaultKind::LinkRestore),
            ]
            .map(|(t, node, kind)| FaultEvent { t, node, kind })
            .to_vec(),
        );

        let backfills: [fn(EngineConfig) -> EngineConfig; 3] = [
            |c| c,
            EngineConfig::conservative_backfill,
            EngineConfig::without_backfill,
        ];
        let policies = [
            FailurePolicy::Cancel,
            FailurePolicy::Requeue {
                max_retries: 1,
                backoff: 40,
            },
            FailurePolicy::RequeueFront,
        ];
        let selectors = [
            EngineConfig::new(SelectorKind::Default),
            EngineConfig::new(SelectorKind::Adaptive),
            EngineConfig::new(SelectorKind::Sa(SaSelector::new(16, 7))),
        ];
        let mut got = Vec::new();
        for backfill in backfills {
            for policy in policies {
                for selector in selectors {
                    let mut cfg = backfill(selector)
                        .with_failure_policy(policy)
                        .reject_oversized();
                    // Every other row kills at the requested walltime.
                    if got.len() % 2 == 1 {
                        cfg.enforce_walltime = true;
                    }
                    let mut cap = Capture::new();
                    let mut reg = Registry::new();
                    let s = Engine::new(&tree, cfg)
                        .with_faults(faults.clone())
                        .run_observed(&log, &mut cap, &mut reg)
                        .unwrap();
                    assert_eq!(s.outcomes.len(), log.jobs.len());
                    got.push(fnv1a(&[
                        &serde_json::to_string(&s.outcomes).unwrap(),
                        &cap.to_jsonl(),
                        &reg.snapshot().to_json_pretty(),
                    ]));
                }
            }
        }
        assert!(
            got == BLESSED,
            "config-matrix digests moved; this engine gives\n{got:#018x?}"
        );
    }
}

/// The shipped backfill passes against the reference passes of
/// `engine/reference.rs` (DESIGN.md §4.14): same outcomes and the same
/// JSONL trace, byte for byte, whatever the log, faults, policy, backfill
/// and selector — and the edges the no-move argument of DESIGN.md §4.11
/// has to cover, each pinned by the starts it must produce.
mod backfill_reference {
    use super::*;
    use crate::{FailurePolicy, RunSummary};
    use commsched_metrics::Registry;
    use commsched_trace::Capture;
    use commsched_workload::fault::{FaultEvent, FaultKind, FaultTrace};
    use proptest::prelude::*;

    /// Declines about one placement in four, by job and instant.
    fn flaky(job: JobId, now: u64) -> bool {
        (job.0 ^ now).wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 62 == 0
    }

    /// The shipped and the reference run of `log`, as (outcomes, trace,
    /// queued jobs the conservative passes fitted).
    fn both(
        tree: &Tree,
        cfg: EngineConfig,
        faults: &FaultTrace,
        refuse: fn(JobId, u64) -> bool,
        log: &JobLog,
    ) -> [(RunSummary, String, u64); 2] {
        let run = |engine: Engine<'_>| {
            let mut cap = Capture::new();
            let engine = engine
                .with_faults(faults.clone())
                .with_refused_starts(refuse);
            let s = engine
                .run_observed(log, &mut cap, &mut Registry::new())
                .unwrap();
            (s, cap.to_jsonl(), engine.fits.get())
        };
        [
            run(Engine::new(tree, cfg)),
            run(Engine::new(tree, cfg).with_reference_passes()),
        ]
    }

    /// Start times by job id, after checking the two passes agree.
    fn starts(tree: &Tree, cfg: EngineConfig, log: &JobLog) -> Vec<(u64, u64)> {
        let [(shipped, trace, _), (reference, reference_trace, _)] =
            both(tree, cfg, &FaultTrace::empty(), |_, _| false, log);
        assert_eq!(shipped, reference);
        assert!(trace == reference_trace, "traces differ");
        let mut starts: Vec<(u64, u64)> =
            shipped.outcomes.iter().map(|o| (o.id.0, o.start)).collect();
        starts.sort_unstable();
        starts
    }

    fn conservative() -> EngineConfig {
        EngineConfig::new(SelectorKind::Default).conservative_backfill()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        #[test]
        fn shipped_passes_match_reference(
            seed in any::<u64>(),
            backlog in any::<bool>(),
            walltimes in prop::collection::vec(0u8..6, 30..31),
            raw in prop::collection::vec((any::<u16>(), 0usize..18, 0u8..5), 0..24),
            enforce in any::<bool>(),
            refuse in any::<bool>(),
        ) {
            let tree = Tree::regular_two_level(3, 6);
            let mut log = LogSpec::new(
                SystemModel {
                    total_nodes: 18,
                    min_request: 1,
                    max_request: 12,
                    mean_interarrival: if backlog { 30.0 } else { 420.0 },
                    ..SystemModel::theta()
                },
                30,
                seed,
            )
            .comm_percent(60)
            .generate();
            // Requested walltimes of zero, short of the runtime (a hold
            // that outlasts its reservation) and of zero-runtime jobs,
            // beside the generated ones.
            for (j, &w) in log.jobs.iter_mut().zip(&walltimes) {
                match w {
                    0 => j.walltime = 0,
                    1 => j.walltime = j.runtime / 3,
                    2 if !j.nature.is_comm() => j.runtime = 0,
                    _ => {}
                }
            }
            let horizon = log.jobs.iter().map(|j| j.submit + j.runtime).max().unwrap_or(0);
            let leaves: Vec<usize> = (0..3).map(|k| tree.leaf(k).0).collect();
            let events: Vec<FaultEvent> = raw
                .iter()
                .map(|&(t, target, kind)| FaultEvent {
                    t: horizon * u64::from(t) / 65_536,
                    node: if kind >= 3 { leaves[target % 3] } else { target },
                    kind: match kind {
                        0 => FaultKind::Fail,
                        1 => FaultKind::Recover,
                        2 => FaultKind::Drain,
                        3 => FaultKind::SwitchDown,
                        _ => FaultKind::SwitchUp,
                    },
                })
                .collect();
            let faults = FaultTrace::new(events);
            let backfills: [fn(EngineConfig) -> EngineConfig; 2] =
                [|c| c, EngineConfig::conservative_backfill];
            for backfill in backfills {
                for policy in [
                    FailurePolicy::Cancel,
                    FailurePolicy::Requeue { max_retries: 2, backoff: 30 },
                    FailurePolicy::RequeueFront,
                ] {
                    for kind in SelectorKind::ALL {
                        let mut cfg = backfill(EngineConfig::new(kind)).with_failure_policy(policy);
                        cfg.enforce_walltime = enforce;
                        let [(shipped, trace, _), (reference, reference_trace, _)] =
                            both(&tree, cfg, &faults, if refuse { flaky } else { |_, _| false }, &log);
                        prop_assert_eq!(&shipped, &reference, "{:?} {} {}", cfg.backfill, policy, kind);
                        prop_assert!(trace == reference_trace, "traces differ: {:?} {} {}", cfg.backfill, policy, kind);
                    }
                }
            }
        }
    }

    /// A backlog over 300 deep on the 18-node tree of the proptest above:
    /// 400 jobs four seconds apart, one in seven with a zero walltime and
    /// one in seven asking for a third of its runtime, and a node failure
    /// at job 200's submit, recovered ten minutes later.
    fn deep_backlog() -> (Tree, JobLog, FaultTrace) {
        let mut log = LogSpec::new(
            SystemModel {
                total_nodes: 18,
                min_request: 1,
                max_request: 12,
                mean_interarrival: 4.0,
                ..SystemModel::theta()
            },
            400,
            5,
        )
        .comm_percent(60)
        .generate();
        for (k, j) in log.jobs.iter_mut().enumerate() {
            match k % 7 {
                0 => j.walltime = 0,
                1 => j.walltime = j.runtime / 3,
                _ => {}
            }
        }
        let mid = log.jobs[200].submit;
        let faults = FaultTrace::new(vec![
            FaultEvent {
                t: mid,
                node: 4,
                kind: FaultKind::Fail,
            },
            FaultEvent {
                t: mid + 600,
                node: 4,
                kind: FaultKind::Recover,
            },
        ]);
        (Tree::regular_two_level(3, 6), log, faults)
    }

    /// Hold the shipped passes of `backfill` to the reference on `log`
    /// under all five selectors, each with every one of `refusals`, the
    /// failure's victim requeued at the front (a repack of the deep queue).
    /// Checks the queue peaked at 300 or more; returns the shipped and the
    /// reference fit counts of each run.
    fn match_on_a_deep_queue(
        tree: &Tree,
        log: &JobLog,
        faults: &FaultTrace,
        backfill: fn(EngineConfig) -> EngineConfig,
        refusals: &[fn(JobId, u64) -> bool],
    ) -> Vec<(u64, u64)> {
        let mut fits = Vec::new();
        let sa = SelectorKind::Sa(SaSelector::new(16, 5));
        for kind in SelectorKind::ALL.into_iter().chain([sa]) {
            for &refuse in refusals {
                let cfg = backfill(EngineConfig::new(kind))
                    .with_failure_policy(FailurePolicy::RequeueFront);
                let [(shipped, trace, shipped_fits), (reference, reference_trace, reference_fits)] =
                    both(tree, cfg, faults, refuse, log);
                assert_eq!(shipped, reference, "{kind}");
                assert!(trace == reference_trace, "traces differ: {kind}");
                let (mut pending, mut peak) = (0usize, 0usize);
                for line in trace.lines() {
                    if line.contains("\"ev\":\"eligible\"") {
                        pending += 1;
                        peak = peak.max(pending);
                    } else if line.contains("\"ev\":\"start\"") {
                        pending -= 1;
                    }
                }
                assert!(peak >= 300, "{kind}: the queue peaked at {peak}");
                assert_eq!(trace.matches("\"ev\":\"requeue\"").count(), 1, "{kind}");
                fits.push((shipped_fits, reference_fits));
            }
        }
        fits
    }

    /// The same equivalence on the deep backlog, so the tournament is many
    /// levels tall and its descents dead-end: EASY, with and without
    /// declined starts.
    #[test]
    fn shipped_easy_matches_reference_on_a_deep_queue() {
        let (tree, log, faults) = deep_backlog();
        match_on_a_deep_queue(&tree, &log, &faults, |c| c, &[|_, _| false, flaky]);
    }

    /// The same under conservative backfilling, with declined starts and
    /// the last 40 jobs trickling in ten minutes apart once the backlog
    /// stands, so that many passes follow a submit alone: nothing was
    /// released, and the pass fits the deep queue again from its head to
    /// find whether the newcomer at its back may start now. The shipped
    /// pass stops once no queued job can start now and fits 49–54 k jobs a
    /// run here (five selectors); the reference reserves every queued job
    /// and starts over after every start (150–152 k); a shipped pass that
    /// never stops fits 141–142 k.
    #[test]
    fn shipped_conservative_matches_reference_on_a_deep_queue() {
        let (tree, mut log, faults) = deep_backlog();
        let late = log.jobs[359].submit;
        for (k, j) in (1..).zip(&mut log.jobs[360..]) {
            j.submit = late + 600 * k;
        }
        let conservative = EngineConfig::conservative_backfill;
        for (shipped, reference) in
            match_on_a_deep_queue(&tree, &log, &faults, conservative, &[flaky])
        {
            assert!(
                2 * shipped < reference,
                "the shipped pass fitted {shipped} jobs, the reference {reference}"
            );
        }
    }

    /// `extra` is computed once per pass and never decremented (DESIGN.md
    /// §4.11, ROADMAP item 2): J1 holds 5 of 8 nodes until 100, so the head
    /// J2 (7 nodes) has its shadow at 100 with `extra` = 1. J3, J4 and J5
    /// (1 node, 500 s each) each fit `extra`, so all three start at 1,
    /// together taking 3 nodes of the 1 spare, and J2 waits until 501
    /// instead of 100. The `extra` fix flips this to J2 at 100.
    #[test]
    fn undecremented_extra_admits_backfills_that_delay_the_head() {
        let tree = Tree::regular_two_level(1, 8);
        let log = JobLog::new(
            "extra",
            vec![
                job(1, 0, 100, 5),
                job(2, 1, 100, 7),
                job(3, 1, 500, 1),
                job(4, 1, 500, 1),
                job(5, 1, 500, 1),
            ],
        );
        assert_eq!(
            starts(&tree, EngineConfig::new(SelectorKind::Default), &log),
            [(1, 0), (2, 501), (3, 1), (4, 1), (5, 1)]
        );
    }

    /// The shadow bound is inclusive and exact: J1 holds 2 of 4 nodes until
    /// 100, so the head J2 (4 nodes) has its shadow at 100 and no `extra`.
    /// At 10, J3 (1 node, 90 s) ends at the shadow and backfills; J4 (1
    /// node, 91 s) would end a second after it and waits for J2.
    #[test]
    fn backfill_may_end_at_the_shadow_time_not_after() {
        let log = JobLog::new(
            "shadow",
            vec![
                job(1, 0, 100, 2),
                job(2, 10, 50, 4),
                job(3, 10, 90, 1),
                job(4, 10, 91, 1),
            ],
        );
        assert_eq!(
            starts(
                &small_tree(),
                EngineConfig::new(SelectorKind::Default),
                &log
            ),
            [(1, 0), (2, 100), (3, 10), (4, 150)]
        );
    }

    /// A zero walltime is a one-second reservation and a zero-length hold.
    /// J1 holds 2 of 4 nodes until 5; J2 (all 4 nodes, walltime 0) is
    /// reserved `[5, 6)`, which keeps J3 (2 nodes, 10 s) from starting now —
    /// a zero-second reservation would let it through. J4 (1 node, walltime
    /// and runtime 0) starts now in the backfill pass, its hold ending where
    /// it starts.
    #[test]
    fn zero_walltime_reserves_one_second() {
        let log = JobLog::new(
            "zero",
            vec![
                job(1, 0, 5, 2),
                job(2, 0, 0, 4),
                job(3, 0, 10, 2),
                job(4, 0, 0, 1),
            ],
        );
        assert_eq!(
            starts(&small_tree(), conservative(), &log),
            [(1, 0), (2, 5), (3, 5), (4, 0)]
        );
    }

    /// J3 asks for 10 s but runs 50: started now, its hold reaches past the
    /// window it was fitted in and pushes J2's reservation from 30 to 50.
    /// Only a pass that fits again from the head sees that J4 (1 node, 45 s)
    /// now ends before J2 starts and may run at once; continuing with J2
    /// still reserved at 30 would hold J4 back until J2 is done.
    #[test]
    fn hold_longer_than_its_reservation_refits_from_the_head() {
        let tree = Tree::regular_two_level(1, 5);
        let log = JobLog::new(
            "stretched",
            vec![
                job(1, 0, 30, 3),
                job(2, 0, 40, 5),
                Job {
                    walltime: 10,
                    ..job(3, 0, 50, 1)
                },
                job(4, 0, 45, 1),
            ],
        );
        assert_eq!(
            starts(&tree, conservative(), &log),
            [(1, 0), (2, 50), (3, 0), (4, 0)]
        );
    }

    /// J1 asked for 5 s and runs 20; at 10 it is past its requested
    /// walltime but still holds its nodes until 20 in the profile (the
    /// walltime end is `start + max(walltime, runtime)`), so J2 (all 4
    /// nodes) is reserved at 20 and J3 (2 nodes, 8 s) backfills at 10.
    #[test]
    fn job_past_its_requested_walltime_holds_until_its_end() {
        let log = JobLog::new(
            "overdue",
            vec![
                Job {
                    walltime: 5,
                    ..job(1, 0, 20, 2)
                },
                job(2, 10, 10, 4),
                job(3, 10, 8, 2),
            ],
        );
        assert_eq!(
            starts(&small_tree(), conservative(), &log),
            [(1, 0), (2, 20), (3, 10)]
        );
    }
}

/// A log whose every time `swf::parse` accepts can still end past 2^53 s:
/// a job submitted at 2^53 that runs 2^53 s. The run ends in a typed error,
/// not in `commsched_num`'s exact-`f64` assertion on the report's
/// makespan; a run that ends at 2^53 s itself is reported.
#[test]
fn a_makespan_past_2_pow_53_is_an_error() {
    let tree = small_tree();
    let engine = Engine::new(&tree, EngineConfig::new(SelectorKind::Adaptive));
    let t = 1u64 << 53;
    let late = JobLog::new("late", vec![comm_job(1, t, t, 2, 1.0)]);
    let mut reg = commsched_metrics::Registry::new();
    let mut rec = commsched_trace::NullRecorder;
    let err = engine.run_observed(&late, &mut rec, &mut reg).unwrap_err();
    assert_eq!(err, EngineError::MakespanTooLong(2 * t));
    assert!(err.to_string().contains("past the 2^53 s"), "{err}");
    assert_eq!(engine.run(&late), Err(err));

    let edge = JobLog::new("edge", vec![comm_job(1, 0, t, 2, 1.0)]);
    let mut reg = commsched_metrics::Registry::new();
    let s = engine.run_observed(&edge, &mut rec, &mut reg).unwrap();
    assert_eq!(s.makespan, t);
}

/// Eq. 7's runtime is stretched by a degraded link: a 2^46 s job whose
/// every link runs at 1 ‰ from time 0 ends past 2^53 s. The run ends in
/// `MakespanTooLong`, in a debug build too, instead of tripping the
/// exact-`f64` assertion on the stretched runtime.
#[test]
fn a_runtime_stretched_past_2_pow_53_is_an_error() {
    use commsched_workload::fault::{FaultEvent, FaultKind, FaultTrace};
    let tree = small_tree();
    let t = 1u64 << 46;
    let slow = (0..tree.num_directed_links())
        .map(|node| FaultEvent {
            t: 0,
            node,
            kind: FaultKind::LinkDegrade { permille: 1 },
        })
        .collect();
    let engine = Engine::new(&tree, EngineConfig::new(SelectorKind::Adaptive))
        .with_faults(FaultTrace::new(slow));
    let log = JobLog::new("stretched", vec![comm_job(1, 0, t, 2, 1.0)]);
    let err = engine.run(&log).unwrap_err();
    assert!(
        matches!(err, EngineError::MakespanTooLong(end) if end > 1 << 53),
        "{err}"
    );
}

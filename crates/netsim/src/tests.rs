use crate::{FlowSim, NetConfig, Workload};
use commsched_collectives::{CollectiveSpec, Pattern};
use commsched_topology::{NodeId, Tree};

/// 1 MB/s links and no per-step overhead: times come out in round numbers.
fn unit_config() -> NetConfig {
    NetConfig {
        node_bandwidth: 1.0e6,
        trunk_factor: 1.0,
        step_overhead: 0.0,
        backplane_factor: None,
    }
}

fn wl(id: u64, nodes: &[usize], spec: CollectiveSpec, submit: f64, iters: usize) -> Workload {
    Workload {
        id,
        nodes: nodes.iter().map(|&n| NodeId(n)).collect(),
        spec,
        submit,
        iterations: iters,
    }
}

#[test]
fn single_pair_exchange_timing() {
    // Two nodes on one leaf, recursive doubling, 1 MB at 1 MB/s per
    // direction: the full-duplex exchange takes exactly 1 second.
    let tree = Tree::regular_two_level(2, 4);
    let sim = FlowSim::new(&tree, unit_config());
    let t = sim.solo_time(
        &[NodeId(0), NodeId(1)],
        CollectiveSpec::new(Pattern::Rd, 1_000_000),
    );
    assert!((t - 1.0).abs() < 1e-6, "t = {t}");
}

#[test]
fn binomial_is_one_directional() {
    // A 2-rank binomial send moves msize one way only — same 1 second
    // (rates don't halve because the reverse direction is idle).
    let tree = Tree::regular_two_level(2, 4);
    let sim = FlowSim::new(&tree, unit_config());
    let t = sim.solo_time(
        &[NodeId(0), NodeId(1)],
        CollectiveSpec::new(Pattern::Binomial, 1_000_000),
    );
    assert!((t - 1.0).abs() < 1e-6, "t = {t}");
}

#[test]
fn shared_uplink_halves_rates() {
    // Two cross-switch sends sharing the s0->root->s1 trunk: each gets half
    // the trunk, so both finish in 2 seconds instead of 1.
    let tree = Tree::regular_two_level(2, 4);
    let sim = FlowSim::new(&tree, unit_config());
    let spec = CollectiveSpec::new(Pattern::Binomial, 1_000_000);
    let res = sim.run(vec![
        wl(1, &[0, 4], spec, 0.0, 1),
        wl(2, &[1, 5], spec, 0.0, 1),
    ]);
    assert!((res[0].end - 2.0).abs() < 1e-6, "end = {}", res[0].end);
    assert!((res[1].end - 2.0).abs() < 1e-6, "end = {}", res[1].end);

    // Alone, the same send takes 1 second.
    let t = sim.solo_time(&[NodeId(0), NodeId(4)], spec);
    assert!((t - 1.0).abs() < 1e-6, "t = {t}");
}

#[test]
fn disjoint_leaves_do_not_interfere() {
    // Intra-leaf jobs on different leaves never share a link, so running
    // together costs the same as running alone.
    let tree = Tree::regular_two_level(2, 4);
    let sim = FlowSim::new(&tree, unit_config());
    let spec = CollectiveSpec::new(Pattern::Rd, 500_000);
    let alone = sim.solo_time(&[NodeId(0), NodeId(1)], spec);
    let res = sim.run(vec![
        wl(1, &[0, 1], spec, 0.0, 1),
        wl(2, &[4, 5], spec, 0.0, 1),
    ]);
    assert!((res[0].end - alone).abs() < 1e-6);
    assert!((res[1].end - alone).abs() < 1e-6);
}

#[test]
fn fat_trunk_removes_uplink_bottleneck() {
    // With trunk_factor 2 the two cross-switch sends of
    // `shared_uplink_halves_rates` no longer contend on the trunk.
    let tree = Tree::regular_two_level(2, 4);
    let mut cfg = unit_config();
    cfg.trunk_factor = 2.0;
    let sim = FlowSim::new(&tree, cfg);
    let spec = CollectiveSpec::new(Pattern::Binomial, 1_000_000);
    let res = sim.run(vec![
        wl(1, &[0, 4], spec, 0.0, 1),
        wl(2, &[1, 5], spec, 0.0, 1),
    ]);
    // Bottleneck is now each node's own 1 MB/s link.
    assert!((res[0].end - 1.0).abs() < 1e-6, "end = {}", res[0].end);
}

#[test]
fn step_overhead_accumulates() {
    let tree = Tree::regular_two_level(2, 4);
    let mut cfg = unit_config();
    cfg.step_overhead = 0.5;
    let sim = FlowSim::new(&tree, cfg);
    // 4-rank RD = 2 steps; each step pays the 0.5 s gate.
    let t = sim.solo_time(
        &[NodeId(0), NodeId(1), NodeId(2), NodeId(3)],
        CollectiveSpec::new(Pattern::Rd, 1_000_000),
    );
    assert!((t - 3.0).abs() < 1e-6, "t = {t}"); // 2 * (0.5 + 1.0)
}

#[test]
fn iteration_samples_cover_run() {
    let tree = Tree::regular_two_level(2, 4);
    let sim = FlowSim::new(&tree, unit_config());
    let spec = CollectiveSpec::new(Pattern::Rd, 100_000);
    let res = sim.run(vec![wl(1, &[0, 1], spec, 3.0, 5)]);
    let r = &res[0];
    assert_eq!(r.iterations.len(), 5);
    assert_eq!(r.submit, 3.0);
    assert!((r.iterations[0].start - 3.0).abs() < 1e-9);
    // Back-to-back iterations: each starts where the previous ended.
    for w in r.iterations.windows(2) {
        assert!((w[1].start - (w[0].start + w[0].duration)).abs() < 1e-6);
    }
    assert!((r.end - (3.0 + 5.0 * 0.1)).abs() < 1e-6, "end = {}", r.end);
}

#[test]
fn figure1_interference_shape() {
    // The headline motivation experiment: J1 iterates an allgather on 8
    // nodes (4 + 4 across two leaves); J2 (12 nodes, 6 + 6 on the same
    // leaves) arrives later. J1's iteration time must spike while J2 is
    // active and recover afterwards.
    let tree = Tree::irregular_two_level(&[13, 13, 12, 12]);
    let sim = FlowSim::new(&tree, NetConfig::gigabit_ethernet());
    let j1_nodes: Vec<usize> = (0..4).chain(13..17).collect();
    let j2_nodes: Vec<usize> = (4..10).chain(17..23).collect();
    // 1 MB per rank gathered over 8 ranks = an 8 MB vector.
    let spec = CollectiveSpec::new(Pattern::Rhvd, 8 << 20);

    let res = sim.run(vec![
        wl(1, &j1_nodes, spec, 0.0, 120),
        wl(2, &j2_nodes, spec, 1.0, 40),
    ]);
    let j1 = &res[0];
    let j2 = &res[1];
    let quiet: Vec<f64> = j1
        .iterations
        .iter()
        .filter(|s| s.start + s.duration < j2.submit || s.start > j2.end)
        .map(|s| s.duration)
        .collect();
    let busy: Vec<f64> = j1
        .iterations
        .iter()
        .filter(|s| s.start < j2.end && s.start + s.duration > j2.submit)
        .map(|s| s.duration)
        .collect();
    assert!(!quiet.is_empty() && !busy.is_empty());
    let quiet_avg = quiet.iter().sum::<f64>() / quiet.len() as f64;
    let busy_max = busy.iter().cloned().fold(0.0, f64::max);
    assert!(
        busy_max > 1.2 * quiet_avg,
        "no interference spike: quiet avg {quiet_avg}, busy max {busy_max}"
    );
}

#[test]
fn backplane_limits_intra_leaf_aggregate() {
    // 4 concurrent intra-leaf exchanges = 8 flows. Non-blocking: each flow
    // runs at line rate (1 s). With a 4x backplane the 8 flows share
    // 4 MB/s of fabric -> 0.5 MB/s each -> 2 s.
    let mut cfg = unit_config();
    let tree = Tree::regular_two_level(2, 8);
    let spec = CollectiveSpec::new(Pattern::Rd, 1_000_000);
    let jobs = |_: ()| {
        (0..4)
            .map(|k| wl(k as u64 + 1, &[2 * k, 2 * k + 1], spec, 0.0, 1))
            .collect::<Vec<_>>()
    };

    let open = FlowSim::new(&tree, cfg).run(jobs(()));
    assert!((open[0].end - 1.0).abs() < 1e-6, "end = {}", open[0].end);

    cfg.backplane_factor = Some(4.0);
    let limited = FlowSim::new(&tree, cfg).run(jobs(()));
    assert!(
        (limited[0].end - 2.0).abs() < 1e-6,
        "end = {}",
        limited[0].end
    );
}

#[test]
fn backplane_charges_cross_leaf_flows_on_both_leaves() {
    // One cross-leaf send with an ample backplane: unchanged timing.
    let mut cfg = unit_config();
    cfg.backplane_factor = Some(16.0);
    let tree = Tree::regular_two_level(2, 8);
    let sim = FlowSim::new(&tree, cfg);
    let t = sim.solo_time(
        &[NodeId(0), NodeId(8)],
        CollectiveSpec::new(Pattern::Binomial, 1_000_000),
    );
    assert!((t - 1.0).abs() < 1e-6, "t = {t}");

    // A starved backplane (0.5x) becomes the bottleneck: 2 s.
    let mut cfg = unit_config();
    cfg.backplane_factor = Some(0.5);
    let sim = FlowSim::new(&tree, cfg);
    let t = sim.solo_time(
        &[NodeId(0), NodeId(8)],
        CollectiveSpec::new(Pattern::Binomial, 1_000_000),
    );
    assert!((t - 2.0).abs() < 1e-6, "t = {t}");
}

#[test]
fn cheap_ethernet_preset_contends_same_leaf() {
    // Under the oversubscribed preset, same-leaf neighbours slow each
    // other down — the premise of the paper's Eq. 2.
    let tree = Tree::regular_two_level(2, 13);
    let spec = CollectiveSpec::new(Pattern::Rhvd, 8 << 20);
    let alone = FlowSim::new(&tree, NetConfig::cheap_ethernet())
        .solo_time(&(0..8).map(NodeId).collect::<Vec<_>>(), spec);
    let crowded = {
        let sim = FlowSim::new(&tree, NetConfig::cheap_ethernet());
        let res = sim.run(vec![
            wl(1, &(0..8).collect::<Vec<_>>(), spec, 0.0, 1),
            wl(2, &(8..13).collect::<Vec<_>>(), spec, 0.0, 4),
        ]);
        res[0].end
    };
    assert!(
        crowded > alone * 1.05,
        "no same-leaf contention: alone {alone}, crowded {crowded}"
    );
}

#[test]
fn results_come_back_in_workload_order() {
    // Submit times out of order and ids neither sorted nor dense: the
    // report follows the input vector, not arrival time or id.
    let tree = Tree::regular_two_level(2, 4);
    let sim = FlowSim::new(&tree, unit_config());
    let spec = CollectiveSpec::new(Pattern::Rd, 100_000);
    let res = sim.run(vec![
        wl(30, &[0, 1], spec, 2.0, 1),
        wl(7, &[2, 3], spec, 0.0, 1),
        wl(12, &[4, 5], spec, 1.0, 1),
        wl(1, &[6, 7], spec, 0.5, 1),
    ]);
    let ids: Vec<u64> = res.iter().map(|r| r.id).collect();
    assert_eq!(ids, [30, 7, 12, 1]);
    let submits: Vec<f64> = res.iter().map(|r| r.submit).collect();
    assert_eq!(submits, [2.0, 0.0, 1.0, 0.5]);
}

#[test]
fn single_node_job_is_instant() {
    let tree = Tree::regular_two_level(2, 4);
    let sim = FlowSim::new(&tree, unit_config());
    let res = sim.run(vec![wl(
        1,
        &[0],
        CollectiveSpec::new(Pattern::Rd, 1 << 20),
        2.0,
        3,
    )]);
    assert_eq!(res[0].end, 2.0);
    assert_eq!(res[0].iterations.len(), 3);
}

#[test]
fn deterministic_across_runs() {
    let tree = Tree::regular_two_level(4, 8);
    let sim = FlowSim::new(&tree, NetConfig::gigabit_ethernet());
    let mk = || {
        vec![
            wl(
                1,
                &[0, 1, 8, 9],
                CollectiveSpec::new(Pattern::Rhvd, 1 << 18),
                0.0,
                4,
            ),
            wl(
                2,
                &[2, 3, 10, 11],
                CollectiveSpec::new(Pattern::Rd, 1 << 19),
                0.5,
                3,
            ),
            wl(
                3,
                &[16, 17, 24, 25],
                CollectiveSpec::new(Pattern::Binomial, 1 << 20),
                1.0,
                2,
            ),
        ]
    };
    let a = sim.run(mk());
    let b = sim.run(mk());
    assert_eq!(a, b);
}

#[test]
fn larger_messages_take_proportionally_longer() {
    let tree = Tree::regular_two_level(2, 4);
    let sim = FlowSim::new(&tree, unit_config());
    let nodes = [NodeId(0), NodeId(1), NodeId(2), NodeId(3)];
    let t1 = sim.solo_time(&nodes, CollectiveSpec::new(Pattern::Rd, 250_000));
    let t2 = sim.solo_time(&nodes, CollectiveSpec::new(Pattern::Rd, 500_000));
    assert!((t2 / t1 - 2.0).abs() < 1e-6, "t1={t1} t2={t2}");
}

#[test]
fn three_level_routing() {
    // Cross-group flows traverse the level-2 trunk; three jobs sharing it
    // split the bandwidth three ways.
    let tree = Tree::regular_three_level(2, 2, 4);
    let sim = FlowSim::new(&tree, unit_config());
    let spec = CollectiveSpec::new(Pattern::Binomial, 900_000);
    // Group 0 nodes: 0-7, group 1 nodes: 8-15. All three flows cross g0->g1.
    let res = sim.run(vec![
        wl(1, &[0, 8], spec, 0.0, 1),
        wl(2, &[1, 9], spec, 0.0, 1),
        wl(3, &[4, 12], spec, 0.0, 1),
    ]);
    for r in &res {
        assert!((r.end - 2.7).abs() < 1e-6, "end = {}", r.end);
    }
}

mod properties {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// Conservation: a solo collective can never beat the time needed
        /// to push its largest step through one node link, and never exceed
        /// serialized total bytes over one link (plus overheads).
        #[test]
        fn solo_time_within_physical_bounds(
            logp in 1u32..5,
            msize in 10_000u64..2_000_000,
            pat in prop::sample::select(Pattern::PAPER.to_vec()),
        ) {
            let p = 1usize << logp;
            let tree = Tree::regular_two_level(4, 8);
            let cfg = unit_config();
            let sim = FlowSim::new(&tree, cfg);
            let nodes: Vec<NodeId> = (0..p).map(NodeId).collect();
            let spec = CollectiveSpec::new(pat, msize);
            let t = sim.solo_time(&nodes, spec);
            let steps = spec.steps(p);
            let lower: f64 = steps
                .iter()
                .filter(|s| !s.pairs.is_empty())
                .map(|s| s.msize as f64 / cfg.node_bandwidth)
                .sum();
            let upper: f64 = steps
                .iter()
                .map(|s| 2.0 * (s.pairs.len() as f64) * s.msize as f64 / cfg.node_bandwidth)
                .sum::<f64>()
                + 1e-6;
            prop_assert!(t >= lower - 1e-6, "t={t} < lower bound {lower}");
            prop_assert!(t <= upper, "t={t} > upper bound {upper}");
        }

        /// Interference monotonicity: adding a competing job never makes
        /// the first job finish earlier.
        #[test]
        fn competition_never_helps(
            seed in 0usize..4,
            msize in 100_000u64..1_000_000,
        ) {
            let tree = Tree::regular_two_level(2, 8);
            let sim = FlowSim::new(&tree, unit_config());
            let spec = CollectiveSpec::new(Pattern::Rhvd, msize);
            let j1: Vec<usize> = vec![0, 1, 8, 9];
            let competitors: Vec<Vec<usize>> = vec![
                vec![2, 3, 10, 11],
                vec![4, 5, 12, 13],
                vec![2, 10],
                vec![6, 7, 14, 15],
            ];
            let alone = sim.run(vec![wl(1, &j1, spec, 0.0, 2)]);
            let both = sim.run(vec![
                wl(1, &j1, spec, 0.0, 2),
                wl(2, &competitors[seed], spec, 0.0, 2),
            ]);
            prop_assert!(both[0].end >= alone[0].end - 1e-9,
                "competition sped the job up: {} < {}", both[0].end, alone[0].end);
        }
    }
}

/// The incremental (dirty-link frontier) solver must be *observationally
/// identical* to the retained naive fixpoint: same per-flow rate vector
/// after every solve and the same `JobResult`s — bit for bit, not
/// approximately.
mod solver_equivalence {
    use super::*;
    use proptest::prelude::*;

    fn assert_solvers_agree(tree: &Tree, cfg: NetConfig, workloads: Vec<Workload>) {
        let fast = FlowSim::new(tree, cfg);
        let naive = FlowSim::new(tree, cfg).with_reference_solver();

        let (res_f, trace_f) = fast.run_tracing_rates(workloads.clone());
        let (res_n, trace_n) = naive.run_tracing_rates(workloads);
        assert_eq!(trace_f.len(), trace_n.len(), "event counts diverged");
        for (ev, (a, b)) in trace_f.iter().zip(&trace_n).enumerate() {
            assert_eq!(a.len(), b.len(), "flow counts diverged at event {ev}");
            for (f, (ra, rb)) in a.iter().zip(b).enumerate() {
                assert_eq!(
                    ra.to_bits(),
                    rb.to_bits(),
                    "rate of flow {f} diverged at event {ev}: {ra} vs {rb}"
                );
            }
        }
        assert_eq!(res_f, res_n, "job results diverged");
    }

    /// `commsched_bench::perf::NetsimCase::steady_state`: four
    /// machine-spanning RHVD collectives iterating together — one large
    /// coupled component per solve.
    fn bench_steady_state() -> (Tree, NetConfig, Vec<Workload>) {
        let tree = Tree::regular_two_level(8, 32);
        let n = tree.num_nodes();
        let workloads = (0..4u64)
            .map(|k| {
                let nodes: Vec<NodeId> = (0..32)
                    .map(|i| NodeId(((k as usize) + 4 * i + (i / 8) * 37) % n))
                    .collect();
                Workload {
                    id: k + 1,
                    nodes,
                    spec: CollectiveSpec::new(Pattern::Rhvd, 1 << 19),
                    submit: 0.002 * k as f64,
                    iterations: 6,
                }
            })
            .collect();
        (tree, NetConfig::gigabit_ethernet(), workloads)
    }

    /// `NetsimCase::churn`: 128 short two-node exchanges arriving and
    /// finishing all over a 2,048-node machine — every event touches a
    /// tiny component.
    fn bench_churn() -> (Tree, NetConfig, Vec<Workload>) {
        let tree = Tree::regular_two_level(64, 32);
        let n = tree.num_nodes();
        let workloads = (0..128u64)
            .map(|k| {
                let a = (k as usize * 53) % n;
                let b = (a + 7 + (k as usize % 11)) % n;
                Workload {
                    id: k + 1,
                    nodes: vec![NodeId(a), NodeId(b)],
                    spec: CollectiveSpec::new(Pattern::Rd, 100_000 + 9_001 * k),
                    submit: 0.0007 * k as f64,
                    iterations: 8,
                }
            })
            .collect();
        (tree, NetConfig::cheap_ethernet(), workloads)
    }

    /// The two scenarios `bench_micro` times as its `simulation` rows: same
    /// `JobResult`s, exactly.
    #[test]
    fn identical_on_bench_scenarios() {
        for (tree, cfg, workloads) in [bench_steady_state(), bench_churn()] {
            let fast = FlowSim::new(&tree, cfg).run(workloads.clone());
            let naive = FlowSim::new(&tree, cfg)
                .with_reference_solver()
                .run(workloads);
            assert_eq!(fast, naive);
        }
    }

    #[test]
    #[ignore = "diagnostic"]
    fn diag_first_divergence() {
        let (tree, cfg, workloads) = bench_steady_state();
        let fast = FlowSim::new(&tree, cfg);
        let naive = FlowSim::new(&tree, cfg).with_reference_solver();
        let (_, tf) = fast.run_tracing_rates(workloads.clone());
        let (_, tn) = naive.run_tracing_rates(workloads);
        assert_eq!(
            tf.len(),
            tn.len(),
            "event counts: {} vs {}",
            tf.len(),
            tn.len()
        );
        for (ev, (a, b)) in tf.iter().zip(&tn).enumerate() {
            assert_eq!(a.len(), b.len(), "flow count at event {ev}");
            for (f, (ra, rb)) in a.iter().zip(b).enumerate() {
                assert!(
                    ra.to_bits() == rb.to_bits(),
                    "event {ev} flow {f}/{}: fast {ra:.17e} ({:#x}) vs naive {rb:.17e} ({:#x}), rel {:.3e}",
                    a.len(),
                    ra.to_bits(),
                    rb.to_bits(),
                    (ra - rb).abs() / rb.abs().max(1e-300)
                );
            }
        }
    }

    #[test]
    fn identical_on_staggered_churn() {
        // Many small jobs arriving and finishing at different times — the
        // scenario the incremental solver accelerates — must produce the
        // exact event-by-event rates of the full fixpoint.
        let tree = Tree::regular_two_level(4, 8);
        let workloads: Vec<Workload> = (0..12)
            .map(|k| {
                let a = (k * 2) % 32;
                let b = (k * 2 + 9) % 32;
                wl(
                    k as u64 + 1,
                    &[a, b],
                    CollectiveSpec::new(Pattern::Rd, 200_000 + 37_000 * k as u64),
                    0.07 * k as f64,
                    3,
                )
            })
            .collect();
        assert_solvers_agree(&tree, NetConfig::gigabit_ethernet(), workloads);
    }

    #[test]
    fn identical_through_arena_compaction() {
        // Enough iterations that retired routes exceed the compaction
        // threshold mid-run: surviving flows' routes are rewritten and the
        // rates must not notice.
        let tree = Tree::regular_two_level(2, 8);
        let long = wl(
            1,
            &(0..16).collect::<Vec<_>>(),
            CollectiveSpec::new(Pattern::Rhvd, 1 << 16),
            0.0,
            60,
        );
        let mut workloads = vec![long];
        for k in 0..6 {
            workloads.push(wl(
                k + 2,
                &[(k as usize) % 16, (k as usize + 5) % 16],
                CollectiveSpec::new(Pattern::Binomial, 1 << 18),
                0.01 * k as f64,
                40,
            ));
        }
        assert_solvers_agree(&tree, NetConfig::cheap_ethernet(), workloads);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// Random trees, random flow sets, optional oversubscribed leaf
        /// backplanes: the two solvers agree on every rate at every event.
        #[test]
        fn incremental_matches_naive(
            leaves in 2usize..5,
            per_leaf in 2usize..7,
            backplane in prop::option::of(0.5f64..8.0),
            overhead in prop::sample::select(vec![0.0, 100.0e-6, 0.01]),
            jobs in prop::collection::vec(
                (
                    prop::sample::select(Pattern::ALL.to_vec()),
                    prop::collection::vec(0usize..24, 2..6),
                    10_000u64..2_000_000,
                    0.0f64..0.5,
                    1usize..4,
                ),
                1..6,
            ),
        ) {
            let tree = Tree::regular_two_level(leaves, per_leaf);
            let n = tree.num_nodes();
            let cfg = NetConfig {
                node_bandwidth: 1.0e6,
                trunk_factor: 1.0,
                step_overhead: overhead,
                backplane_factor: backplane,
            };
            let workloads: Vec<Workload> = jobs
                .into_iter()
                .enumerate()
                .map(|(i, (pat, nodes, msize, submit, iters))| {
                    let nodes: Vec<usize> = nodes.into_iter().map(|x| x % n).collect();
                    wl(i as u64 + 1, &nodes, CollectiveSpec::new(pat, msize), submit, iters)
                })
                .collect();
            assert_solvers_agree(&tree, cfg, workloads);
        }

        /// Same property on three-level trees (deeper routes, level-2
        /// trunks).
        #[test]
        fn incremental_matches_naive_three_level(
            trunk in prop::sample::select(vec![1.0f64, 2.0]),
            jobs in prop::collection::vec(
                (
                    prop::sample::select(Pattern::PAPER.to_vec()),
                    prop::collection::vec(0usize..16, 2..5),
                    50_000u64..1_000_000,
                    0.0f64..0.3,
                    1usize..3,
                ),
                1..5,
            ),
        ) {
            let tree = Tree::regular_three_level(2, 2, 4);
            let cfg = NetConfig {
                node_bandwidth: 1.0e6,
                trunk_factor: trunk,
                step_overhead: 100.0e-6,
                backplane_factor: None,
            };
            let workloads: Vec<Workload> = jobs
                .into_iter()
                .enumerate()
                .map(|(i, (pat, nodes, msize, submit, iters))| {
                    wl(i as u64 + 1, &nodes, CollectiveSpec::new(pat, msize), submit, iters)
                })
                .collect();
            assert_solvers_agree(&tree, cfg, workloads);
        }
    }
}

mod traced {
    use super::*;
    use commsched_trace::{Capture, ClassMask, EventKind as TK, NullRecorder};

    fn overlapping_workloads() -> Vec<Workload> {
        vec![
            wl(
                1,
                &[0, 1, 2, 3],
                CollectiveSpec::new(Pattern::Rhvd, 1 << 20),
                0.0,
                2,
            ),
            wl(
                2,
                &[2, 3, 4, 5],
                CollectiveSpec::new(Pattern::Rd, 1 << 19),
                0.5,
                2,
            ),
            wl(
                3,
                &[6, 7],
                CollectiveSpec::new(Pattern::Ring, 1 << 18),
                1.0,
                1,
            ),
        ]
    }

    #[test]
    fn traced_run_matches_untraced() {
        let tree = Tree::regular_two_level(2, 4);
        let sim = FlowSim::new(&tree, unit_config());
        let plain = sim.run(overlapping_workloads());
        let mut cap = Capture::new();
        let traced = sim.run_traced(overlapping_workloads(), &mut cap);
        assert_eq!(plain, traced);
        assert!(!cap.events.is_empty());

        // Every solve record is internally consistent and time-ordered.
        let mut last_t = 0;
        for (i, ev) in cap.events.iter().enumerate() {
            assert_eq!(ev.seq, i as u64);
            assert!(ev.t_us >= last_t);
            last_t = ev.t_us;
            match ev.kind {
                TK::NetSolve {
                    components,
                    flows,
                    dirty_links,
                } => {
                    assert!(dirty_links > 0, "solves are only recorded when dirty");
                    assert!(components <= flows, "each component has >= 1 flow");
                }
                TK::NetRates {
                    flows,
                    min_rate,
                    max_rate,
                } => {
                    assert!(flows > 0);
                    assert!(min_rate <= max_rate);
                    assert!(max_rate <= 1.0e6 + 1.0, "rates bounded by link capacity");
                }
                TK::NetLinks { active, saturated } => {
                    assert!(saturated <= active);
                }
                other => panic!("unexpected event class in a netsim trace: {other:?}"),
            }
        }
    }

    #[test]
    fn traced_run_is_deterministic() {
        let tree = Tree::regular_two_level(2, 4);
        let sim = FlowSim::new(&tree, unit_config());
        let mut a = Capture::new();
        let mut b = Capture::new();
        sim.run_traced(overlapping_workloads(), &mut a);
        sim.run_traced(overlapping_workloads(), &mut b);
        assert_eq!(a.to_jsonl(), b.to_jsonl());
    }

    #[test]
    fn masked_sink_skips_net_events() {
        let tree = Tree::regular_two_level(2, 4);
        let sim = FlowSim::new(&tree, unit_config());
        // A job-only sink records nothing from netsim...
        let mut cap = Capture::with_mask(ClassMask::JOB);
        let with_mask = sim.run_traced(overlapping_workloads(), &mut cap);
        assert!(cap.events.is_empty());
        // ...and a null sink changes nothing about the results.
        let with_null = sim.run_traced(overlapping_workloads(), &mut NullRecorder);
        assert_eq!(with_mask, with_null);
        assert_eq!(with_null, sim.run(overlapping_workloads()));
    }
}

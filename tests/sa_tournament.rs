//! End-to-end tournament guarantees for the annealed selector.
//!
//! Two pins: on a contended three-level tree the budgeted search strictly
//! beats the greedy Eq. 6 cost (and the adaptive incumbent — a real
//! annealing win, not just inheriting balanced's edge), and with budget 0
//! the selector is a bit-for-bit stand-in for adaptive, so the Table 2
//! repro and continuous-run outputs cannot regress under `--selector sa
//! --sa-budget 0`.

use commsched::collectives::{CollectiveSpec, Pattern};
use commsched::core::{
    AdaptiveSelector, AllocRequest, BalancedSelector, ClusterState, CostModel, GreedySelector,
    JobId, JobNature, NodeSelector, PlacementEvaluator, SaSelector, SelectorKind,
};
use commsched::prelude::*;
use commsched::slurmsim::EngineConfig as Cfg;

/// Eq. 6 hop-bytes of a placement (the model the selectors optimize).
fn cost(tree: &Tree, st: &ClusterState, placement: &Placement, spec: &CollectiveSpec) -> f64 {
    PlacementEvaluator::new()
        .evaluate(
            tree,
            st,
            CostModel::HOP_BYTES.trunk_discount,
            placement,
            spec,
        )
        .for_model(&CostModel::HOP_BYTES)
}

/// The pinned contended machine: two aggregation switches over eight
/// 8-node leaves. Leaves 0–1 host busy communication-intensive jobs
/// (contention), leaves 2–3 hold quiet compute jobs with fewer free
/// nodes, and the second aggregation domain is half-busy with comm
/// traffic — so the cheapest 20-node placement is not the greedy
/// most-free-first one, and finding it takes search.
fn contended_scenario() -> (Tree, ClusterState) {
    let tree = Tree::regular_three_level(2, 4, 8);
    let mut st = ClusterState::new(&tree);
    let mut id = 100u64;
    let mut alloc = |st: &mut ClusterState, nodes: &[usize], nature: JobNature| {
        let nodes: Vec<NodeId> = nodes.iter().copied().map(NodeId).collect();
        let placement = Placement::from_nodes(&tree, &nodes).unwrap();
        st.allocate(&tree, JobId(id), &placement, nature).unwrap();
        id += 1;
    };
    // Leaves 0 and 1 (nodes 0..8, 8..16): two comm nodes busy each.
    alloc(&mut st, &[0, 1], JobNature::CommIntensive);
    alloc(&mut st, &[8, 9], JobNature::CommIntensive);
    // Leaves 2 and 3 (16..24, 24..32): three compute nodes busy each.
    alloc(&mut st, &[16, 17, 18], JobNature::ComputeIntensive);
    alloc(&mut st, &[24, 25, 26], JobNature::ComputeIntensive);
    // Leaves 4..8 (32..64): four comm nodes busy on each.
    for leaf in 4..8 {
        let base = leaf * 8;
        alloc(
            &mut st,
            &[base, base + 1, base + 2, base + 3],
            JobNature::CommIntensive,
        );
    }
    (tree, st)
}

#[test]
fn sa_strictly_beats_greedy_on_contended_tree() {
    let (tree, st) = contended_scenario();
    let req =
        AllocRequest::comm(JobId(1), 20).with_pattern(CollectiveSpec::new(Pattern::Rhvd, 1 << 20));
    let spec = req.spec();

    let greedy = GreedySelector.select(&tree, &st, &req).unwrap();
    let balanced = BalancedSelector.select(&tree, &st, &req).unwrap();
    let adaptive = AdaptiveSelector::default()
        .select(&tree, &st, &req)
        .unwrap();
    let sa = SaSelector::new(256, 42).select(&tree, &st, &req).unwrap();

    let cost_g = cost(&tree, &st, &greedy, &spec);
    let cost_b = cost(&tree, &st, &balanced, &spec);
    let cost_a = cost(&tree, &st, &adaptive, &spec);
    let cost_sa = cost(&tree, &st, &sa, &spec);
    println!("greedy {cost_g} balanced {cost_b} adaptive {cost_a} sa {cost_sa}");

    // The acceptance pin: budget 256 strictly under greedy...
    assert!(
        cost_sa < cost_g,
        "sa@256 ({cost_sa}) must strictly beat greedy ({cost_g})"
    );
    // ...and strictly under the adaptive incumbent too — the improvement
    // comes from the annealing walk, not from inheriting balanced's win.
    assert!(
        cost_sa < cost_a,
        "sa@256 ({cost_sa}) must strictly beat the incumbent ({cost_a})"
    );
}

#[test]
fn budget_zero_never_regresses_adaptive_outputs() {
    // Table 2: the balanced split itself, untouched by the SA machinery.
    let tree = Tree::irregular_two_level(&[160, 150, 100, 80, 70, 50, 40]);
    let state = ClusterState::new(&tree);
    let nodes = BalancedSelector
        .select(&tree, &state, &AllocRequest::comm(JobId(1), 512))
        .unwrap();
    let per_leaf: Vec<u32> = nodes.takes().iter().map(|&(_, count)| count).collect();
    assert_eq!(per_leaf, [128, 128, 64, 64, 64, 32, 32], "Table 2 split");

    // And on the same machine, sa@0 is the adaptive placement verbatim.
    let adaptive = AdaptiveSelector::default()
        .select(&tree, &state, &AllocRequest::comm(JobId(2), 512))
        .unwrap();
    let sa0 = SaSelector::new(0, 42)
        .select(&tree, &state, &AllocRequest::comm(JobId(2), 512))
        .unwrap();
    assert_eq!(adaptive, sa0, "sa@0 diverged from adaptive");
}

#[test]
fn engine_with_sa_budget_zero_matches_adaptive_run() {
    // A whole continuous run: `--selector sa --sa-budget 0` must produce
    // the same schedule — same outcomes, same makespan — as adaptive.
    let tree = Tree::regular_two_level(4, 8);
    let log = LogSpec::new(
        SystemModel {
            name: "toy",
            total_nodes: 32,
            min_request: 1,
            max_request: 16,
            pow2_fraction: 0.9,
            mean_interarrival: 60.0,
            runtime_median: 600.0,
            runtime_sigma: 1.0,
            walltime_slack: 1.5,
        },
        60,
        9,
    )
    .comm_percent(90)
    .pattern(Pattern::Rhvd)
    .generate();

    let adaptive = Engine::new(&tree, Cfg::new(SelectorKind::Adaptive))
        .run(&log)
        .unwrap();
    let sa0 = Engine::new(&tree, Cfg::new(SelectorKind::Sa(SaSelector::new(0, 7))))
        .run(&log)
        .unwrap();
    assert_eq!(adaptive.outcomes, sa0.outcomes);
    assert_eq!(adaptive.makespan, sa0.makespan);
}

use crate::{
    AdaptiveSelector, AllocRequest, BalancedSelector, ClusterState, CostModel, DefaultTreeSelector,
    GreedySelector, JobId, JobNature, NodeSelector, Placement, PlacementEvaluator, SelectError,
    SelectorKind, StateError,
};
use commsched_collectives::{CollectiveSpec, Pattern};
use commsched_topology::{NodeId, Tree};

/// Per index set, in `FreeIndex::map_sets` order, its `BucketSet::stats`:
/// arena words, words per slot, live keys and the key-map lookups its
/// upkeep has made.
fn set_stats(index: &crate::index::FreeIndex) -> Vec<(usize, usize, usize, u64)> {
    use crate::index::BucketSet;
    index.map_sets(BucketSet::stats, BucketSet::stats)
}

/// The paper's Figure 2 / Figure 5 topology: two leaves of 4 under a root.
fn figure2() -> Tree {
    Tree::regular_two_level(2, 4)
}

/// Occupancy of the Figure 5 worked example: Job1 (comm) on n0,n1,n4,n5;
/// Job2 (comm) on n2,n3; n6,n7 free.
fn figure5_state(tree: &Tree) -> ClusterState {
    let mut st = ClusterState::new(tree);
    st.allocate(
        tree,
        JobId(1),
        ids(tree, &[NodeId(0), NodeId(1), NodeId(4), NodeId(5)]),
        JobNature::CommIntensive,
    )
    .unwrap();
    st.allocate(
        tree,
        JobId(2),
        ids(tree, &[NodeId(2), NodeId(3)]),
        JobNature::CommIntensive,
    )
    .unwrap();
    st
}

/// The placement holding exactly `nodes`, for tests with explicit ids.
fn ids(tree: &Tree, nodes: &[NodeId]) -> Placement {
    Placement::from_nodes(tree, nodes).unwrap()
}

/// The independent Eq. 6 reference for a what-if: allocate `placement` on a
/// copy of `state` as a communication-intensive job, then run the naive
/// [`CostModel::job_cost`] sweep over its node ids. Shares nothing with
/// [`PlacementEvaluator`], which is what tests check against it.
fn reference_cost(
    model: &CostModel,
    tree: &Tree,
    state: &ClusterState,
    placement: &Placement,
    spec: &CollectiveSpec,
) -> f64 {
    let mut what_if = state.clone();
    what_if
        .allocate(tree, JobId(u64::MAX), placement, JobNature::CommIntensive)
        .unwrap();
    model.job_cost(tree, &what_if, &placement.nodes(), spec)
}

/// Per-leaf node counts of a placement, recounted from its node ids (not
/// read off its takes — [`Placement::check`] ties the two together).
fn nodes_per_leaf(tree: &Tree, placement: &Placement) -> Vec<usize> {
    placement.check(tree).unwrap();
    let mut v = vec![0usize; tree.num_leaves()];
    for n in placement.iter() {
        v[tree.leaf_ordinal_of(n)] += 1;
    }
    v
}

// ---------------------------------------------------------------- state

#[test]
fn allocate_and_release_round_trip() {
    let tree = figure2();
    let mut st = ClusterState::new(&tree);
    assert_eq!(st.free_total(), 8);
    st.allocate(
        &tree,
        JobId(7),
        ids(&tree, &[NodeId(0), NodeId(4)]),
        JobNature::CommIntensive,
    )
    .unwrap();
    assert_eq!(st.free_total(), 6);
    assert_eq!(st.leaf_busy(0), 1);
    assert_eq!(st.leaf_comm(0), 1);
    assert_eq!(st.leaf_comm(1), 1);
    st.check_invariants(&tree).unwrap();

    let alloc = st.release(&tree, JobId(7)).unwrap();
    assert_eq!(alloc.nodes.nodes(), vec![NodeId(0), NodeId(4)]);
    assert_eq!(alloc.nodes.takes(), [(0, 1), (1, 1)]);
    assert_eq!(st.free_total(), 8);
    assert_eq!(st.leaf_comm(0), 0);
    st.check_invariants(&tree).unwrap();
}

#[test]
fn compute_jobs_do_not_count_in_leaf_comm() {
    let tree = figure2();
    let mut st = ClusterState::new(&tree);
    st.allocate(
        &tree,
        JobId(1),
        ids(&tree, &[NodeId(0)]),
        JobNature::ComputeIntensive,
    )
    .unwrap();
    assert_eq!(st.leaf_busy(0), 1);
    assert_eq!(st.leaf_comm(0), 0);
}

#[test]
fn state_errors() {
    let tree = figure2();
    let mut st = ClusterState::new(&tree);
    st.allocate(
        &tree,
        JobId(1),
        ids(&tree, &[NodeId(0)]),
        JobNature::CommIntensive,
    )
    .unwrap();
    assert_eq!(
        st.allocate(
            &tree,
            JobId(2),
            ids(&tree, &[NodeId(0)]),
            JobNature::CommIntensive
        ),
        Err(StateError::NodeBusy(NodeId(0)))
    );
    assert_eq!(
        st.allocate(
            &tree,
            JobId(1),
            ids(&tree, &[NodeId(1)]),
            JobNature::CommIntensive
        ),
        Err(StateError::JobExists(JobId(1)))
    );
    assert_eq!(
        st.allocate(&tree, JobId(3), ids(&tree, &[]), JobNature::CommIntensive),
        Err(StateError::EmptyAllocation(JobId(3)))
    );
    // A busy node is reported wherever it sits in the list.
    assert_eq!(
        st.allocate(
            &tree,
            JobId(4),
            ids(&tree, &[NodeId(5), NodeId(0), NodeId(2)]),
            JobNature::CommIntensive
        ),
        Err(StateError::NodeBusy(NodeId(0)))
    );
    assert_eq!(
        st.release(&tree, JobId(9)),
        Err(StateError::UnknownJob(JobId(9)))
    );
    // failed allocations must not disturb the counters
    st.check_invariants(&tree).unwrap();
}

#[test]
fn communication_ratio_eq1() {
    let tree = figure2();
    let st = figure5_state(&tree);
    // Leaf 0: L_comm=4, L_busy=4, L_nodes=4 -> 4/4 + 4/4 = 2.
    assert_eq!(st.communication_ratio(&tree, 0), 2.0);
    // Leaf 1: L_comm=2, L_busy=2, L_nodes=4 -> 2/2 + 2/4 = 1.5.
    assert_eq!(st.communication_ratio(&tree, 1), 1.5);
    // Idle leaf -> 0.
    let idle = ClusterState::new(&tree);
    assert_eq!(idle.communication_ratio(&tree, 0), 0.0);
}

// ---------------------------------------------------------------- cost

#[test]
fn contention_matches_paper_worked_example() {
    // Section 5.3: C(n0, n1) = 1 and C(n0, n4) = 1.875.
    let tree = figure2();
    let st = figure5_state(&tree);
    let m = CostModel::HOPS;
    assert_eq!(m.contention(&tree, &st, NodeId(0), NodeId(1)), 1.0);
    assert_eq!(m.contention(&tree, &st, NodeId(0), NodeId(4)), 1.875);
}

#[test]
fn hops_match_paper_worked_example() {
    // Section 5.3: Hops(n0, n1) = 4 and Hops(n0, n4) = 11.5.
    let tree = figure2();
    let st = figure5_state(&tree);
    let m = CostModel::HOPS;
    assert_eq!(m.hops(&tree, &st, NodeId(0), NodeId(1)), 4.0);
    assert_eq!(m.hops(&tree, &st, NodeId(0), NodeId(4)), 11.5);
    assert_eq!(m.hops(&tree, &st, NodeId(0), NodeId(0)), 0.0);
}

#[test]
fn contention_discount_deepens_with_lca_level() {
    // Three-level tree: leaves meeting at level 3 pool with a quarter
    // weight (the "links double as we move up" rule applied twice).
    let tree = Tree::regular_three_level(2, 2, 4); // 16 nodes
    let mut st = ClusterState::new(&tree);
    // 2 comm nodes on every leaf.
    for k in 0..4 {
        let nodes: Vec<NodeId> = tree.leaf_nodes(k).take(2).collect();
        st.allocate(
            &tree,
            JobId(k as u64 + 1),
            ids(&tree, &nodes),
            JobNature::CommIntensive,
        )
        .unwrap();
    }
    let m = CostModel::HOPS;
    // Same group (LCA level 2): 2/4 + 2/4 + 0.5 * 4/8 = 1.25.
    assert_eq!(m.leaf_contention(&tree, &st, 0, 1), 1.25);
    // Across groups (LCA level 3): 2/4 + 2/4 + 0.25 * 4/8 = 1.125.
    assert_eq!(m.leaf_contention(&tree, &st, 0, 2), 1.125);
    // A flat-contention model (discount 1.0) removes the distinction.
    let flat = CostModel {
        trunk_discount: 1.0,
        ..CostModel::HOPS
    };
    assert_eq!(
        flat.leaf_contention(&tree, &st, 0, 1),
        flat.leaf_contention(&tree, &st, 0, 2)
    );
}

#[test]
fn job_cost_single_leaf_beats_split() {
    // 8-rank RD on one leaf vs split 4+4: same contention state, the
    // intra-leaf placement must be strictly cheaper.
    let tree = Tree::regular_two_level(4, 8);
    let st = ClusterState::new(&tree);
    let spec = CollectiveSpec::new(Pattern::Rd, 1 << 20);
    let m = CostModel::HOPS;
    let together: Vec<NodeId> = (0..8).map(NodeId).collect();
    let split: Vec<NodeId> = (0..4).chain(8..12).map(NodeId).collect();
    let c1 = reference_cost(&m, &tree, &st, &ids(&tree, &together), &spec);
    let c2 = reference_cost(&m, &tree, &st, &ids(&tree, &split), &spec);
    assert!(c1 < c2, "together={c1} split={c2}");
}

#[test]
fn job_cost_balanced_split_beats_unbalanced() {
    // Section 4.2's motivating example: 8 nodes over two leaves as 4+4 vs
    // 3+5 — the balanced split has fewer inter-switch steps under RD.
    let tree = Tree::regular_two_level(2, 8);
    let st = ClusterState::new(&tree);
    let spec = CollectiveSpec::new(Pattern::Rd, 1 << 20);
    let m = CostModel::HOPS;
    let balanced: Vec<NodeId> = (0..4).chain(8..12).map(NodeId).collect();
    let unbalanced: Vec<NodeId> = (0..3).chain(8..13).map(NodeId).collect();
    let cb = reference_cost(&m, &tree, &st, &ids(&tree, &balanced), &spec);
    let cu = reference_cost(&m, &tree, &st, &ids(&tree, &unbalanced), &spec);
    assert!(cb <= cu, "balanced={cb} unbalanced={cu}");
}

#[test]
fn job_cost_empty_and_single() {
    let tree = figure2();
    let st = ClusterState::new(&tree);
    let spec = CollectiveSpec::new(Pattern::Rd, 1024);
    assert_eq!(CostModel::HOPS.job_cost(&tree, &st, &[], &spec), 0.0);
    assert_eq!(
        CostModel::HOPS.job_cost(&tree, &st, &[NodeId(0)], &spec),
        0.0
    );
}

#[test]
fn hop_bytes_scales_with_message_size() {
    let tree = figure2();
    let st = figure5_state(&tree);
    let nodes = [NodeId(6), NodeId(7)];
    let small = CollectiveSpec::new(Pattern::Rd, 1024);
    let large = CollectiveSpec::new(Pattern::Rd, 2048);
    let m = CostModel::HOP_BYTES;
    let cs = m.job_cost(&tree, &st, &nodes, &small);
    let cl = m.job_cost(&tree, &st, &nodes, &large);
    assert_eq!(cl, 2.0 * cs);
    // Raw-hops cost ignores msize.
    let h = CostModel::HOPS;
    assert_eq!(
        h.job_cost(&tree, &st, &nodes, &small),
        h.job_cost(&tree, &st, &nodes, &large)
    );
}

// ---------------------------------------------------------------- default

#[test]
fn default_lowest_level_switch_matches_section_3_1() {
    // Section 3.1's example: n0, n1 allocated. A 4-node job finds its
    // lowest-level switch at s1 (leaf), a 6-node job at s2 (root).
    let tree = figure2();
    let mut st = ClusterState::new(&tree);
    st.allocate(
        &tree,
        JobId(1),
        ids(&tree, &[NodeId(0), NodeId(1)]),
        JobNature::ComputeIntensive,
    )
    .unwrap();

    let four = DefaultTreeSelector
        .select(&tree, &st, &AllocRequest::comm(JobId(2), 4))
        .unwrap();
    assert_eq!(nodes_per_leaf(&tree, &four), [0, 4]); // all from s1

    let six = DefaultTreeSelector
        .select(&tree, &st, &AllocRequest::comm(JobId(3), 6))
        .unwrap();
    // Best-fit: s0 has fewer free (2), taken first, then 4 from s1.
    assert_eq!(nodes_per_leaf(&tree, &six), [2, 4]);
}

#[test]
fn default_best_fit_prefers_fuller_leaves() {
    let tree = Tree::regular_two_level(3, 4);
    let mut st = ClusterState::new(&tree);
    // Leaf 1 has 1 free, leaf 0 has 4, leaf 2 has 2.
    st.allocate(
        &tree,
        JobId(1),
        ids(
            &tree,
            &[NodeId(4), NodeId(5), NodeId(6), NodeId(8), NodeId(9)],
        ),
        JobNature::ComputeIntensive,
    )
    .unwrap();
    // A 3-node job fits leaf 0 alone: the lowest-level switch is that leaf.
    let got = DefaultTreeSelector
        .select(&tree, &st, &AllocRequest::comm(JobId(2), 3))
        .unwrap();
    assert_eq!(nodes_per_leaf(&tree, &got), [3, 0, 0]);
    // A 6-node job needs the root; best-fit fills the emptiest-last:
    // leaf1 (1 free), leaf2 (2 free), then leaf0.
    let got = DefaultTreeSelector
        .select(&tree, &st, &AllocRequest::comm(JobId(3), 6))
        .unwrap();
    assert_eq!(nodes_per_leaf(&tree, &got), [3, 1, 2]);
}

// ---------------------------------------------------------------- greedy

#[test]
fn greedy_comm_prefers_least_contended() {
    let tree = Tree::regular_two_level(3, 4);
    let mut st = ClusterState::new(&tree);
    // Leaf 0: 2 comm nodes busy; leaf 1: 2 compute busy; leaf 2: idle.
    st.allocate(
        &tree,
        JobId(1),
        ids(&tree, &[NodeId(0), NodeId(1)]),
        JobNature::CommIntensive,
    )
    .unwrap();
    st.allocate(
        &tree,
        JobId(2),
        ids(&tree, &[NodeId(4), NodeId(5)]),
        JobNature::ComputeIntensive,
    )
    .unwrap();
    // Ratios: leaf0 = 2/2 + 2/4 = 1.5; leaf1 = 0/2 + 2/4 = 0.5; leaf2 = 0.
    let got = GreedySelector
        .select(&tree, &st, &AllocRequest::comm(JobId(3), 6))
        .unwrap();
    // leaf2 first (4 nodes), then leaf1 (2 nodes).
    assert_eq!(nodes_per_leaf(&tree, &got), [0, 2, 4]);
}

#[test]
fn greedy_compute_takes_most_contended_first() {
    let tree = Tree::regular_two_level(3, 4);
    let mut st = ClusterState::new(&tree);
    st.allocate(
        &tree,
        JobId(1),
        ids(&tree, &[NodeId(0), NodeId(1)]),
        JobNature::CommIntensive,
    )
    .unwrap();
    st.allocate(
        &tree,
        JobId(2),
        ids(&tree, &[NodeId(4), NodeId(5)]),
        JobNature::ComputeIntensive,
    )
    .unwrap();
    // 5 nodes won't fit any single leaf, so P is the root and the leaves
    // are taken in decreasing communication-ratio order:
    // leaf0 (1.5) gives 2, leaf1 (0.5) gives 2, leaf2 (0) gives 1.
    let got = GreedySelector
        .select(&tree, &st, &AllocRequest::compute(JobId(3), 5))
        .unwrap();
    assert_eq!(nodes_per_leaf(&tree, &got), [2, 2, 1]);
}

#[test]
fn greedy_leaf_fast_path() {
    let tree = figure2();
    let st = figure5_state(&tree);
    // Only n6, n7 free (both on leaf 1): a 2-node job fits a single leaf.
    let got = GreedySelector
        .select(&tree, &st, &AllocRequest::comm(JobId(9), 2))
        .unwrap();
    assert_eq!(got.nodes(), vec![NodeId(6), NodeId(7)]);
}

// ---------------------------------------------------------------- balanced

#[test]
fn balanced_reproduces_table2() {
    // Table 2 of the paper: 512 nodes over leaves with free counts
    // 160/150/100/80/70/50/40 -> allocations 128/128/64/64/64/32/32.
    let tree = Tree::irregular_two_level(&[160, 150, 100, 80, 70, 50, 40]);
    let st = ClusterState::new(&tree);
    let got = BalancedSelector
        .select(&tree, &st, &AllocRequest::comm(JobId(1), 512))
        .unwrap();
    assert_eq!(got.len(), 512);
    assert_eq!(nodes_per_leaf(&tree, &got), [128, 128, 64, 64, 64, 32, 32]);
}

#[test]
fn balanced_table2_with_busy_nodes() {
    // Same Table 2 free counts, produced by occupying a uniform cluster.
    let sizes = vec![200usize; 7];
    let tree = Tree::irregular_two_level(&sizes);
    let mut st = ClusterState::new(&tree);
    let busy = [40usize, 50, 100, 120, 130, 150, 160];
    let mut next = JobId(100);
    for (k, &b) in busy.iter().enumerate() {
        let nodes: Vec<NodeId> = tree.leaf_nodes(k).take(b).collect();
        st.allocate(&tree, next, ids(&tree, &nodes), JobNature::ComputeIntensive)
            .unwrap();
        next = JobId(next.0 + 1);
    }
    let got = BalancedSelector
        .select(&tree, &st, &AllocRequest::comm(JobId(1), 512))
        .unwrap();
    assert_eq!(nodes_per_leaf(&tree, &got), [128, 128, 64, 64, 64, 32, 32]);
}

#[test]
fn balanced_second_pass_takes_leftovers() {
    // 3 leaves of 3 free; request 8. First pass grants powers of two:
    // S: 8->4->2 per leaf => 2+2+2 = 6; second pass (reverse order) takes
    // the remaining 2 from the tail leaves.
    let tree = Tree::regular_two_level(3, 3);
    let st = ClusterState::new(&tree);
    let got = BalancedSelector
        .select(&tree, &st, &AllocRequest::comm(JobId(1), 8))
        .unwrap();
    assert_eq!(got.len(), 8);
    let per = nodes_per_leaf(&tree, &got);
    assert_eq!(per.iter().sum::<usize>(), 8);
    // First pass gave each leaf 2; the reverse pass adds to the last leaves.
    assert_eq!(per, [2, 3, 3]);
}

#[test]
fn balanced_compute_preserves_free_leaves() {
    let tree = Tree::regular_two_level(3, 4);
    let mut st = ClusterState::new(&tree);
    st.allocate(
        &tree,
        JobId(1),
        ids(&tree, &[NodeId(0)]),
        JobNature::ComputeIntensive,
    )
    .unwrap();
    // Compute job of 3: increasing free order -> leaf0 (3 free) first.
    let got = BalancedSelector
        .select(&tree, &st, &AllocRequest::compute(JobId(2), 3))
        .unwrap();
    assert_eq!(nodes_per_leaf(&tree, &got), [3, 0, 0]);
}

#[test]
fn balanced_whole_leaf_fits() {
    let tree = figure2();
    let st = ClusterState::new(&tree);
    let got = BalancedSelector
        .select(&tree, &st, &AllocRequest::comm(JobId(1), 4))
        .unwrap();
    // Fits entirely on one leaf (the lowest-level switch is that leaf).
    assert_eq!(nodes_per_leaf(&tree, &got).iter().max(), Some(&4));
}

// ---------------------------------------------------------------- adaptive

#[test]
fn adaptive_picks_cheaper_of_greedy_and_balanced() {
    // Build a state where greedy and balanced disagree: leaf free counts
    // 5/4/4; greedy (by ratio) and balanced (powers of two) split an
    // 8-node request differently.
    let tree = Tree::regular_two_level(3, 8);
    let mut st = ClusterState::new(&tree);
    // leaf0: 3 busy comm; leaf1: 4 busy compute; leaf2: 4 busy compute.
    st.allocate(
        &tree,
        JobId(1),
        ids(&tree, &[NodeId(0), NodeId(1), NodeId(2)]),
        JobNature::CommIntensive,
    )
    .unwrap();
    st.allocate(
        &tree,
        JobId(2),
        ids(&tree, &[NodeId(8), NodeId(9), NodeId(10), NodeId(11)]),
        JobNature::ComputeIntensive,
    )
    .unwrap();
    st.allocate(
        &tree,
        JobId(3),
        ids(&tree, &[NodeId(16), NodeId(17), NodeId(18), NodeId(19)]),
        JobNature::ComputeIntensive,
    )
    .unwrap();

    let req =
        AllocRequest::comm(JobId(4), 8).with_pattern(CollectiveSpec::new(Pattern::Rd, 1 << 20));
    let greedy = GreedySelector.select(&tree, &st, &req).unwrap();
    let balanced = BalancedSelector.select(&tree, &st, &req).unwrap();
    assert_ne!(greedy, balanced, "test requires disagreement");

    let adaptive = AdaptiveSelector::default()
        .select(&tree, &st, &req)
        .unwrap();
    let m = CostModel::HOPS;
    let spec = req.spec();
    let cg = reference_cost(&m, &tree, &st, &greedy, &spec);
    let cb = reference_cost(&m, &tree, &st, &balanced, &spec);
    let ca = reference_cost(&m, &tree, &st, &adaptive, &spec);
    assert_eq!(ca, cg.min(cb));
}

#[test]
fn adaptive_compute_takes_costlier() {
    let tree = Tree::regular_two_level(3, 8);
    let mut st = ClusterState::new(&tree);
    st.allocate(
        &tree,
        JobId(1),
        ids(&tree, &[NodeId(0), NodeId(1), NodeId(2)]),
        JobNature::CommIntensive,
    )
    .unwrap();
    st.allocate(
        &tree,
        JobId(2),
        ids(&tree, &[NodeId(8), NodeId(9), NodeId(10), NodeId(11)]),
        JobNature::ComputeIntensive,
    )
    .unwrap();
    st.allocate(
        &tree,
        JobId(3),
        ids(&tree, &[NodeId(16), NodeId(17), NodeId(18), NodeId(19)]),
        JobNature::ComputeIntensive,
    )
    .unwrap();
    let req = AllocRequest::compute(JobId(4), 8);
    let greedy = GreedySelector.select(&tree, &st, &req).unwrap();
    let balanced = BalancedSelector.select(&tree, &st, &req).unwrap();
    if greedy != balanced {
        let adaptive = AdaptiveSelector::default()
            .select(&tree, &st, &req)
            .unwrap();
        let m = CostModel::HOPS;
        let spec = req.spec();
        let cg = reference_cost(&m, &tree, &st, &greedy, &spec);
        let cb = reference_cost(&m, &tree, &st, &balanced, &spec);
        let ca = reference_cost(&m, &tree, &st, &adaptive, &spec);
        assert_eq!(ca, cg.max(cb));
    }
}

// ---------------------------------------------------------------- common

#[test]
fn selectors_error_on_overcommit_and_zero() {
    let tree = figure2();
    let st = figure5_state(&tree); // 2 nodes free
    for kind in SelectorKind::ALL {
        let sel = kind.build();
        assert!(matches!(
            sel.select(&tree, &st, &AllocRequest::comm(JobId(9), 3)),
            Err(SelectError::NotEnoughNodes {
                requested: 3,
                free: 2
            })
        ));
        assert!(matches!(
            sel.select(&tree, &st, &AllocRequest::comm(JobId(9), 0)),
            Err(SelectError::ZeroNodes)
        ));
    }
}

#[test]
fn selector_kind_round_trips() {
    let sa = SelectorKind::Sa(crate::SaSelector::default());
    for k in SelectorKind::ALL.into_iter().chain([sa]) {
        assert_eq!(k.name().parse::<SelectorKind>().unwrap(), k);
    }
    assert_eq!("anneal".parse::<SelectorKind>().unwrap(), sa);
    assert!("nope".parse::<SelectorKind>().is_err());
}

#[test]
fn full_cluster_single_job() {
    let tree = Tree::regular_two_level(4, 4);
    let st = ClusterState::new(&tree);
    for kind in SelectorKind::ALL {
        let got = kind
            .build()
            .select(&tree, &st, &AllocRequest::comm(JobId(1), 16))
            .unwrap();
        assert_eq!(got.len(), 16, "{kind}");
    }
}

#[test]
fn hypothetical_cost_equals_cost_after_allocation() {
    // hypothetical_cost(state, nodes) must equal job_cost evaluated on a
    // state where the job is actually allocated — the two code paths the
    // engine and the adaptive selector rely on agreeing.
    let tree = Tree::regular_two_level(3, 8);
    let mut st = ClusterState::new(&tree);
    st.allocate(
        &tree,
        JobId(1),
        ids(&tree, &[NodeId(0), NodeId(8)]),
        JobNature::CommIntensive,
    )
    .unwrap();
    let nodes: Vec<NodeId> = (1..5).chain(9..13).map(NodeId).collect();
    let spec = CollectiveSpec::new(Pattern::Rhvd, 1 << 20);
    for m in [CostModel::HOPS, CostModel::HOP_BYTES] {
        let hypo = m.hypothetical_cost(&tree, &st, &ids(&tree, &nodes), &spec);
        let mut applied = st.clone();
        applied
            .allocate(
                &tree,
                JobId(2),
                ids(&tree, &nodes),
                JobNature::CommIntensive,
            )
            .unwrap();
        let real = m.job_cost(&tree, &applied, &nodes, &spec);
        assert_eq!(hypo, real);
    }
}

/// Regression: `hypothetical_cost` used to apply the placement through a
/// mutate-and-revert guard whose `assert!` killed the process on any node
/// that was not free. It only reads the counters now, so a placement
/// naming a busy node or a down node is priced like any other.
#[test]
fn hypothetical_cost_prices_busy_and_down_placements() {
    let tree = Tree::regular_two_level(3, 8);
    let mut st = ClusterState::new(&tree);
    st.allocate(
        &tree,
        JobId(1),
        ids(&tree, &[NodeId(0), NodeId(8)]),
        JobNature::CommIntensive,
    )
    .unwrap();
    st.set_down(&tree, NodeId(16)).unwrap();
    let snapshot = st.clone();
    let spec = CollectiveSpec::new(Pattern::Rhvd, 1 << 20);
    let busy = ids(&tree, &[NodeId(0), NodeId(1), NodeId(8), NodeId(9)]);
    let down = ids(&tree, &[NodeId(1), NodeId(2), NodeId(16), NodeId(17)]);
    for m in [CostModel::HOPS, CostModel::HOP_BYTES] {
        for placement in [&busy, &down] {
            let cost = m.hypothetical_cost(&tree, &st, placement, &spec);
            assert!(cost.is_finite() && cost > 0.0, "cost {cost}");
        }
    }
    assert_eq!(st, snapshot);
    st.check_invariants(&tree).unwrap();
}

#[test]
fn error_displays_are_informative() {
    let e = SelectError::NotEnoughNodes {
        requested: 10,
        free: 3,
    };
    assert!(e.to_string().contains("10"));
    assert!(e.to_string().contains('3'));
    assert!(SelectError::ZeroNodes.to_string().contains("zero"));
    assert!(StateError::NodeBusy(NodeId(4))
        .to_string()
        .contains("node4"));
    assert!(StateError::UnknownJob(JobId(9))
        .to_string()
        .contains("job9"));
}

// ----------------------------------------------------- three-level trees

mod three_level {
    use super::*;

    /// 2 groups x 2 leaves x 4 nodes = 16 nodes.
    fn tree() -> Tree {
        Tree::regular_three_level(2, 2, 4)
    }

    #[test]
    fn lowest_level_switch_prefers_group_over_root() {
        // 6 nodes fit inside one level-2 group (8 nodes), so every
        // selector must confine the job to a single group.
        let t = tree();
        let st = ClusterState::new(&t);
        for kind in SelectorKind::ALL {
            let got = kind
                .build()
                .select(&t, &st, &AllocRequest::comm(JobId(1), 6))
                .unwrap();
            let groups: std::collections::HashSet<usize> =
                got.iter().map(|n| t.leaf_ordinal_of(n) / 2).collect();
            assert_eq!(groups.len(), 1, "{kind} crossed groups: {got:?}");
        }
    }

    #[test]
    fn default_within_group_uses_best_fit() {
        let t = tree();
        let mut st = ClusterState::new(&t);
        // Group 0: leaf0 has 1 free, leaf1 has 3 free.
        st.allocate(
            &t,
            JobId(1),
            ids(&t, &[NodeId(0), NodeId(1), NodeId(2), NodeId(4)]),
            JobNature::ComputeIntensive,
        )
        .unwrap();
        let got = DefaultTreeSelector
            .select(&t, &st, &AllocRequest::comm(JobId(2), 4))
            .unwrap();
        let per = nodes_per_leaf(&t, &got);
        // 4 free exist in group 0 (1 + 3) and in each group-1 leaf (4).
        // Both group-1 leaves are single leaves holding the whole request,
        // so the lowest-level switch is a group-1 leaf — level 1 beats
        // group 0 at level 2.
        assert_eq!(per[0] + per[1], 0);
        assert_eq!(per[2] + per[3], 4);
    }

    #[test]
    fn greedy_sorts_across_groups_by_ratio() {
        let t = tree();
        let mut st = ClusterState::new(&t);
        // Fill 2 comm nodes on every leaf so no leaf fits 4 alone...
        for k in 0..4 {
            let nodes: Vec<NodeId> = t.leaf_nodes(k).take(2).collect();
            st.allocate(
                &t,
                JobId(10 + k as u64),
                ids(&t, &nodes),
                JobNature::CommIntensive,
            )
            .unwrap();
        }
        // ...and make leaf 3 the least contended by releasing its job.
        st.release(&t, JobId(13)).unwrap();
        // 8 free total in leaves 0-2 (2 each) + leaf 3 (4): a 5-node comm
        // job must span groups; greedy takes leaf 3 (ratio 0) first.
        let got = GreedySelector
            .select(&t, &st, &AllocRequest::comm(JobId(1), 5))
            .unwrap();
        let on_leaf3 = got.iter().filter(|n| t.leaf_ordinal_of(*n) == 3).count();
        assert_eq!(on_leaf3, 4, "greedy should drain the idle leaf first");
    }

    #[test]
    fn balanced_prefers_whole_leaves_across_groups() {
        let t = tree();
        let mut st = ClusterState::new(&t);
        // leaf0: 3 free, leaf1: 1 free, leaf2: 4 free, leaf3: 2 free.
        let busy: Vec<NodeId> = [3usize, 5, 6, 7, 14, 15]
            .iter()
            .map(|&i| NodeId(i))
            .collect();
        st.allocate(&t, JobId(1), ids(&t, &busy), JobNature::ComputeIntensive)
            .unwrap();
        // 8-node comm job: balanced sorts leaves by free desc
        // (4, 3, 2, 1) and grants 4, 2, 2, ... then leftovers.
        let got = BalancedSelector
            .select(&t, &st, &AllocRequest::comm(JobId(2), 8))
            .unwrap();
        let per = nodes_per_leaf(&t, &got);
        assert_eq!(per.iter().sum::<usize>(), 8);
        // The emptiest leaf (leaf2, 4 free) received a full aligned block.
        assert_eq!(per[2], 4);
    }

    #[test]
    fn distance_hierarchy_shows_in_cost() {
        // Same split shape, nearer vs farther leaves: the cost model must
        // price the deeper LCA higher.
        let t = tree();
        let st = ClusterState::new(&t);
        let spec = CollectiveSpec::new(Pattern::Rd, 1 << 20);
        let same_group: Vec<NodeId> = (0..2).chain(4..6).map(NodeId).collect();
        let cross_group: Vec<NodeId> = (0..2).chain(8..10).map(NodeId).collect();
        let m = CostModel::HOPS;
        let near = reference_cost(&m, &t, &st, &ids(&t, &same_group), &spec);
        let far = reference_cost(&m, &t, &st, &ids(&t, &cross_group), &spec);
        assert!(near < far, "near {near} !< far {far}");
    }
}

// ---------------------------------------------------------------- mapping

mod mapping_tests {
    use super::*;
    use crate::mapping::{map_ranks, mapped_cost, MappingStrategy};

    #[test]
    fn block_mapping_is_sorted_nodes() {
        let tree = Tree::regular_two_level(2, 8);
        let nodes = vec![NodeId(9), NodeId(1), NodeId(0), NodeId(8)];
        let m = map_ranks(&tree, &nodes, MappingStrategy::Block);
        assert_eq!(m, vec![NodeId(0), NodeId(1), NodeId(8), NodeId(9)]);
    }

    #[test]
    fn round_robin_alternates_leaves() {
        let tree = Tree::regular_two_level(2, 8);
        let nodes: Vec<NodeId> = (0..2).chain(8..10).map(NodeId).collect();
        let m = map_ranks(&tree, &nodes, MappingStrategy::RoundRobin);
        let leaves: Vec<usize> = m.iter().map(|n| tree.leaf_ordinal_of(*n)).collect();
        assert_eq!(leaves, vec![0, 1, 0, 1]);
    }

    #[test]
    fn all_strategies_are_permutations() {
        let tree = Tree::regular_two_level(3, 8);
        let nodes: Vec<NodeId> = (0..3).chain(8..13).chain(16..18).map(NodeId).collect();
        for s in MappingStrategy::ALL {
            let mut m = map_ranks(&tree, &nodes, s);
            m.sort_unstable();
            let mut want = nodes.clone();
            want.sort_unstable();
            assert_eq!(m, want, "{s:?}");
        }
    }

    #[test]
    fn best_mapping_never_worse_than_block() {
        use crate::mapping::best_mapping;
        // An unbalanced 3 + 5 allocation: under Eq. 6's max-per-step
        // metric, odd leaf groups make a distance-1 crossing inevitable,
        // so block may already be optimal — but best_mapping must never
        // lose to it, and must equal the minimum over all strategies.
        let tree = Tree::regular_two_level(2, 8);
        let state = ClusterState::new(&tree);
        let nodes: Vec<NodeId> = (0..3).chain(8..13).map(NodeId).collect();
        let spec = CollectiveSpec::new(Pattern::Rhvd, 1 << 20);
        let (_, layout, cost) = best_mapping(CostModel::HOP_BYTES, &tree, &state, &nodes, &spec);
        let per_strategy: Vec<f64> = MappingStrategy::ALL
            .iter()
            .map(|&s| mapped_cost(CostModel::HOP_BYTES, &tree, &state, &nodes, &spec, s))
            .collect();
        let min = per_strategy.iter().cloned().fold(f64::INFINITY, f64::min);
        assert_eq!(cost, min);
        assert!(cost <= per_strategy[0]); // never worse than block
        assert_eq!(layout.len(), nodes.len());
    }

    #[test]
    fn mapping_strictly_beats_round_robin_layouts() {
        // A balanced 4+4 allocation where the distance-1 and distance-2
        // steps are intra-leaf under block but ALL cross under round-robin:
        // the strategies genuinely order.
        let tree = Tree::regular_two_level(2, 8);
        let state = ClusterState::new(&tree);
        let nodes: Vec<NodeId> = (0..4).chain(8..12).map(NodeId).collect();
        let spec = CollectiveSpec::new(Pattern::Rhvd, 1 << 20);
        let block = mapped_cost(
            CostModel::HOP_BYTES,
            &tree,
            &state,
            &nodes,
            &spec,
            MappingStrategy::Block,
        );
        let rr = mapped_cost(
            CostModel::HOP_BYTES,
            &tree,
            &state,
            &nodes,
            &spec,
            MappingStrategy::RoundRobin,
        );
        assert!(block < rr, "block {block} !< round-robin {rr}");
    }

    #[test]
    fn aligned_blocks_equal_block_when_balanced() {
        // On a balanced 4+4 split, block mapping is already aligned.
        let tree = Tree::regular_two_level(2, 8);
        let state = ClusterState::new(&tree);
        let nodes: Vec<NodeId> = (0..4).chain(8..12).map(NodeId).collect();
        let spec = CollectiveSpec::new(Pattern::Rd, 1 << 20);
        let block = mapped_cost(
            CostModel::HOPS,
            &tree,
            &state,
            &nodes,
            &spec,
            MappingStrategy::Block,
        );
        let aligned = mapped_cost(
            CostModel::HOPS,
            &tree,
            &state,
            &nodes,
            &spec,
            MappingStrategy::AlignedBlocks,
        );
        assert_eq!(block, aligned);
    }

    #[test]
    fn round_robin_is_the_worst_case() {
        let tree = Tree::regular_two_level(2, 8);
        let state = ClusterState::new(&tree);
        let nodes: Vec<NodeId> = (0..4).chain(8..12).map(NodeId).collect();
        let spec = CollectiveSpec::new(Pattern::Rhvd, 1 << 20);
        let costs: Vec<f64> = MappingStrategy::ALL
            .iter()
            .map(|&s| mapped_cost(CostModel::HOP_BYTES, &tree, &state, &nodes, &spec, s))
            .collect();
        // round-robin (index 1) at least as costly as both others
        assert!(costs[1] >= costs[0]);
        assert!(costs[1] >= costs[2]);
    }

    #[test]
    fn mapped_cost_block_matches_job_cost() {
        let tree = Tree::regular_two_level(3, 8);
        let mut state = ClusterState::new(&tree);
        state
            .allocate(
                &tree,
                JobId(5),
                ids(&tree, &[NodeId(3), NodeId(4)]),
                JobNature::CommIntensive,
            )
            .unwrap();
        let nodes: Vec<NodeId> = (0..3).chain(8..11).chain(16..18).map(NodeId).collect();
        let spec = CollectiveSpec::new(Pattern::Binomial, 4096);
        let a = CostModel::HOPS.job_cost(&tree, &state, &nodes, &spec);
        let b = mapped_cost(
            CostModel::HOPS,
            &tree,
            &state,
            &nodes,
            &spec,
            MappingStrategy::Block,
        );
        assert_eq!(a, b);
    }
}

mod properties {
    use super::*;
    use proptest::prelude::*;
    use rand::prelude::*;
    use rand::SeedableRng;

    /// Random partially-occupied cluster over a random two-level tree.
    fn random_scenario(leaf_sizes: &[usize], occupancy_pct: u8, seed: u64) -> (Tree, ClusterState) {
        let tree = Tree::irregular_two_level(leaf_sizes);
        let st = occupy(&tree, occupancy_pct, seed);
        (tree, st)
    }

    /// `tree` with a random `occupancy_pct` of its nodes held by
    /// three-node jobs of random nature.
    pub(super) fn occupy(tree: &Tree, occupancy_pct: u8, seed: u64) -> ClusterState {
        let mut st = ClusterState::new(tree);
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
        let mut nodes: Vec<NodeId> = (0..tree.num_nodes()).map(NodeId).collect();
        nodes.shuffle(&mut rng);
        let busy = tree.num_nodes() * occupancy_pct as usize / 100;
        for (job, chunk) in nodes[..busy].chunks(3).enumerate() {
            let nature = if rng.random::<bool>() {
                JobNature::CommIntensive
            } else {
                JobNature::ComputeIntensive
            };
            st.allocate(tree, JobId(1000 + job as u64), ids(tree, chunk), nature)
                .unwrap();
        }
        st
    }

    fn arb_leaf_sizes() -> impl Strategy<Value = Vec<usize>> {
        proptest::collection::vec(2usize..20, 2..8)
    }

    /// The shapes [`shaped_tree`] builds.
    const SHAPES: u8 = 6;

    /// A tree of the given shape over (some of) `sizes`, which holds at
    /// least four leaf sizes — the shapes where the index's layout has its
    /// edges:
    ///
    /// 0. two levels, every leaf a child of the root (the paper presets);
    /// 1. three regular levels (the exascale presets);
    /// 2. uppers whose leaves interleave in the file and are listed out
    ///    of order (`a = s2,s0`, `b = s3,s1`), which `from_conf` renumbers
    ///    so each upper's leaves are one range;
    /// 3. a root with leaf and upper children (`r = s0,a,s3`): leaves at
    ///    two depths under one switch;
    /// 4. the same one level down (`m = s0,a`, `r = m,s3`), so a non-root
    ///    switch's leaf range holds leaves at two depths too;
    /// 5. one leaf, which is also the root.
    fn shaped_tree(shape: u8, sizes: &[usize]) -> Tree {
        // Leaves `s0..` over `sizes[..leaves]`, then `uppers` as
        // `name = children` pairs.
        let conf = |leaves: usize, uppers: &[(&str, &str)]| {
            let mut text = String::new();
            let mut first = 0;
            for (k, size) in sizes[..leaves].iter().enumerate() {
                text += &format!("SwitchName=s{k} Nodes=n[{first}-{}]\n", first + size - 1);
                first += size;
            }
            for (name, children) in uppers {
                text += &format!("SwitchName={name} Switches={children}\n");
            }
            Tree::from_conf(&text).unwrap()
        };
        match shape {
            0 => Tree::irregular_two_level(sizes),
            1 => Tree::regular_three_level(2, sizes.len() / 2, sizes[0]),
            2 => conf(4, &[("a", "s2,s0"), ("b", "s3,s1"), ("r", "a,b")]),
            3 => conf(4, &[("a", "s1,s2"), ("r", "s0,a,s3")]),
            4 => conf(4, &[("a", "s1,s2"), ("m", "s0,a"), ("r", "m,s3")]),
            _ => conf(1, &[]),
        }
    }

    fn arb_shape_sizes() -> impl Strategy<Value = Vec<usize>> {
        proptest::collection::vec(2usize..20, 4..8)
    }

    proptest! {
        /// `reset` restores a churned state to exactly what `new` builds —
        /// even when the state is recycled onto a differently-shaped tree.
        #[test]
        fn reset_equals_new(
            sizes in arb_leaf_sizes(),
            other_sizes in arb_leaf_sizes(),
            occ in 0u8..80,
            seed in any::<u64>(),
        ) {
            let (tree, mut st) = random_scenario(&sizes, occ, seed);
            st.reset(&tree);
            prop_assert_eq!(&st, &ClusterState::new(&tree));
            st.check_invariants(&tree).unwrap();

            let other = Tree::irregular_two_level(&other_sizes);
            st.reset(&other);
            prop_assert_eq!(&st, &ClusterState::new(&other));
            st.check_invariants(&other).unwrap();
        }

        /// Every selector returns exactly N distinct, currently-free nodes
        /// whenever N <= free_total; otherwise it errors.
        #[test]
        fn selectors_return_exact_free_sets(
            sizes in arb_leaf_sizes(),
            occ in 0u8..80,
            seed in any::<u64>(),
            want in 1usize..40,
            comm in any::<bool>(),
        ) {
            let (tree, st) = random_scenario(&sizes, occ, seed);
            let nature = if comm { JobNature::CommIntensive } else { JobNature::ComputeIntensive };
            let req = AllocRequest { job: JobId(1), nodes: want, nature, pattern: None, attempt: 0 };
            for kind in SelectorKind::ALL {
                let res = kind.build().select(&tree, &st, &req);
                if want <= st.free_total() {
                    let got = res.unwrap();
                    prop_assert_eq!(got.check(&tree), Ok(()), "{} broke a placement invariant", kind);
                    prop_assert_eq!(got.len(), want, "{} returned wrong count", kind);
                    let mut uniq = got.nodes();
                    uniq.dedup();
                    prop_assert_eq!(uniq.len(), want, "{} returned duplicates", kind);
                    for n in got.iter() {
                        prop_assert!(st.is_free(n), "{} allocated busy node {}", kind, n);
                    }
                } else {
                    prop_assert!(res.is_err(), "{} should have failed", kind);
                }
            }
        }

        /// Balanced grants per leaf are powers of two (first pass) or drain
        /// the leaf (leftover pass); at most one leaf — the final leftover
        /// target — may hold a partial, non-power-of-two grant.
        #[test]
        fn balanced_grants_mostly_powers_of_two(
            sizes in arb_leaf_sizes(),
            occ in 0u8..60,
            seed in any::<u64>(),
            logw in 0u32..6,
        ) {
            let (tree, st) = random_scenario(&sizes, occ, seed);
            let want = 1usize << logw;
            prop_assume!(want <= st.free_total());
            let got = BalancedSelector
                .select(&tree, &st, &AllocRequest::comm(JobId(1), want))
                .unwrap();
            let per = nodes_per_leaf(&tree, &got);
            let mut partials = 0usize;
            for (k, &cnt) in per.iter().enumerate() {
                if cnt == 0 {
                    continue;
                }
                let leaf_drained = cnt == st.leaf_free(k) as usize;
                if !cnt.is_power_of_two() && !leaf_drained {
                    partials += 1;
                }
            }
            prop_assert!(
                partials <= 1,
                "{partials} leaves hold partial non-power-of-two grants: {per:?}"
            );
        }

        /// Allocate/release keeps all invariants, in any interleaving.
        #[test]
        fn state_invariants_under_churn(
            sizes in arb_leaf_sizes(),
            seed in any::<u64>(),
            ops in 1usize..60,
        ) {
            let tree = Tree::irregular_two_level(&sizes);
            let mut st = ClusterState::new(&tree);
            let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
            let mut live: Vec<JobId> = Vec::new();
            let mut next = 0u64;
            for _ in 0..ops {
                if !live.is_empty() && rng.random::<f64>() < 0.4 {
                    let j = live.swap_remove(rng.random_range(0..live.len()));
                    st.release(&tree, j).unwrap();
                } else if st.free_total() > 0 {
                    let want = rng.random_range(1..=st.free_total().min(6));
                    let nature = if rng.random::<bool>() {
                        JobNature::CommIntensive
                    } else {
                        JobNature::ComputeIntensive
                    };
                    let req = AllocRequest { job: JobId(next), nodes: want, nature, pattern: None, attempt: 0 };
                    let kind = SelectorKind::ALL[rng.random_range(0usize..4)];
                    let nodes = kind.build().select(&tree, &st, &req).unwrap();
                    st.allocate(&tree, JobId(next), &nodes, nature).unwrap();
                    live.push(JobId(next));
                    next += 1;
                }
                let inv = st.check_invariants(&tree);
                prop_assert!(inv.is_ok(), "invariant broken: {:?}", inv);
            }
        }

        /// Every mapping strategy yields a permutation of the allocation,
        /// and best_mapping never exceeds the block cost.
        #[test]
        fn mapping_permutation_and_best_dominance(
            sizes in proptest::collection::vec(4usize..16, 2..5),
            logw in 1u32..5,
            seed in any::<u64>(),
        ) {
            use crate::mapping::{best_mapping, map_ranks, mapped_cost, MappingStrategy};
            let (tree, st) = random_scenario(&sizes, 30, seed);
            let want = 1usize << logw;
            prop_assume!(want <= st.free_total());
            let nodes = BalancedSelector
                .select(&tree, &st, &AllocRequest::comm(JobId(1), want))
                .unwrap()
                .nodes();
            for s in MappingStrategy::ALL {
                let mut m = map_ranks(&tree, &nodes, s);
                m.sort_unstable();
                prop_assert_eq!(&m, &nodes, "{:?} not a permutation", s);
            }
            let spec = CollectiveSpec::new(Pattern::Rd, 1 << 16);
            let block = mapped_cost(CostModel::HOPS, &tree, &st, &nodes, &spec, MappingStrategy::Block);
            let (_, _, best) = best_mapping(CostModel::HOPS, &tree, &st, &nodes, &spec);
            prop_assert!(best <= block + 1e-9, "best {best} > block {block}");
        }

        /// Cost is monotone in contention: adding a comm-intensive job on
        /// the same leaves never lowers another job's cost.
        #[test]
        fn cost_monotone_in_contention(seed in any::<u64>()) {
            let tree = Tree::regular_two_level(4, 8);
            let mut st = ClusterState::new(&tree);
            let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
            let job: Vec<NodeId> = (0..8).map(|i| NodeId(i * 2)).collect();
            st.allocate(&tree, JobId(1), ids(&tree, &job), JobNature::CommIntensive).unwrap();
            let spec = CollectiveSpec::new(Pattern::Rhvd, 1 << 16);
            let before = CostModel::HOPS.job_cost(&tree, &st, &job, &spec);
            // Add a second comm job on random free nodes.
            let mut free: Vec<NodeId> = (0..tree.num_nodes())
                .map(NodeId)
                .filter(|n| st.is_free(*n))
                .collect();
            free.shuffle(&mut rng);
            st.allocate(&tree, JobId(2), ids(&tree, &free[..6]), JobNature::CommIntensive).unwrap();
            let after = CostModel::HOPS.job_cost(&tree, &st, &job, &spec);
            prop_assert!(after >= before, "cost fell from {before} to {after}");
        }

        /// The evaluator returns, from one traversal of a placement's
        /// takes, *exactly* the values the naive clone-allocate-then-
        /// `job_cost` path computes on the materialized node ids under both
        /// default cost models — bit for bit, warm or cold memo.
        #[test]
        fn evaluator_matches_naive_job_cost(
            sizes in arb_leaf_sizes(),
            occ in 0u8..70,
            seed in any::<u64>(),
            want in 1usize..24,
            pat in 0usize..6,
        ) {
            let (tree, st) = random_scenario(&sizes, occ, seed);
            prop_assume!(want <= st.free_total());
            let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed ^ 0x9e37);
            let mut free: Vec<NodeId> = (0..tree.num_nodes())
                .map(NodeId)
                .filter(|n| st.is_free(*n))
                .collect();
            free.shuffle(&mut rng);
            let nodes = &free[..want];
            let placement = ids(&tree, nodes);
            let spec = CollectiveSpec::new(Pattern::ALL[pat], 1 << 16);

            // Naive reference: full clone, real allocation, one traversal
            // per model over the ids in the order they were drawn.
            let mut what_if = st.clone();
            what_if
                .allocate(&tree, JobId(u64::MAX), &placement, JobNature::CommIntensive)
                .unwrap();
            let naive_hops = CostModel::HOPS.job_cost(&tree, &what_if, nodes, &spec);
            let naive_bytes = CostModel::HOP_BYTES.job_cost(&tree, &what_if, nodes, &spec);

            let mut ev = PlacementEvaluator::new();
            let cold = ev.evaluate(&tree, &st, 0.5, &placement, &spec);
            prop_assert_eq!(cold.raw_hops.to_bits(), naive_hops.to_bits());
            prop_assert_eq!(cold.hop_bytes.to_bits(), naive_bytes.to_bits());
            // Second pass hits the hop memo and the kept take boundaries.
            let warm = ev.evaluate(&tree, &st, 0.5, &placement, &spec);
            prop_assert_eq!(warm, cold);
            if let Some(&spare) = free.get(want) {
                // A different placement in between must not leak into a
                // replay of the first.
                let other = ids(&tree, &[spare]);
                ev.evaluate(&tree, &st, 0.5, &other, &spec);
                prop_assert_eq!(ev.evaluate(&tree, &st, 0.5, &placement, &spec), cold);
                // Same takes over a changed occupancy: the memo must go.
                let mut moved = st.clone();
                moved
                    .allocate(&tree, JobId(u64::MAX - 1), &other, JobNature::CommIntensive)
                    .unwrap();
                let mut moved_if = moved.clone();
                moved_if
                    .allocate(&tree, JobId(u64::MAX), &placement, JobNature::CommIntensive)
                    .unwrap();
                let got = ev.evaluate(&tree, &moved, 0.5, &placement, &spec);
                let naive = CostModel::HOPS.job_cost(&tree, &moved_if, nodes, &spec);
                prop_assert_eq!(got.raw_hops.to_bits(), naive.to_bits());
            }
        }

        /// `evaluator_matches_naive_job_cost` over every [`shaped_tree`]
        /// shape and a drawn trunk discount: three-level trees, uppers that
        /// list their leaves out of order, leaves at different depths and
        /// the one-leaf tree, where the per-take ancestors and the
        /// per-level discount table decide every cross-leaf hop. One
        /// evaluator scores the placement, then its bare takes under a
        /// second discount, then the placement again.
        #[test]
        fn evaluator_matches_naive_job_cost_on_every_shape(
            shape in 0..SHAPES,
            sizes in arb_shape_sizes(),
            discounts in (0usize..3, 0usize..3),
            occ in 0u8..70,
            seed in any::<u64>(),
            want in 1usize..48,
            pat in 0usize..6,
        ) {
            const DISCOUNTS: [f64; 3] = [0.25, 0.5, 1.0];
            let tree = shaped_tree(shape, &sizes);
            let st = occupy(&tree, occ, seed);
            prop_assume!(want <= st.free_total());
            let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed ^ 0x5eed);
            let mut free: Vec<NodeId> = (0..tree.num_nodes())
                .map(NodeId)
                .filter(|n| st.is_free(*n))
                .collect();
            free.shuffle(&mut rng);
            let placement = ids(&tree, &free[..want]);
            let spec = CollectiveSpec::new(Pattern::ALL[pat], 1 << 16);
            let mut ev = PlacementEvaluator::new();
            let (d, other) = (DISCOUNTS[discounts.0], DISCOUNTS[discounts.1]);
            for (bare, d) in [(false, d), (true, other), (false, d)] {
                let got = if bare {
                    ev.evaluate_takes(&tree, &st, d, placement.takes(), &spec)
                } else {
                    ev.evaluate(&tree, &st, d, &placement, &spec)
                };
                for hop_bytes in [false, true] {
                    let model = CostModel { hop_bytes, trunk_discount: d };
                    let want = reference_cost(&model, &tree, &st, &placement, &spec);
                    prop_assert_eq!(
                        got.for_model(&model).to_bits(),
                        want.to_bits(),
                        "shape {} discount {} bare {} hop_bytes {}",
                        shape, d, bare, hop_bytes
                    );
                }
            }
        }

        /// One evaluator reused across a random sequence of calls answers
        /// every call exactly as a fresh one does: two trees with the same
        /// leaf ordinals but different leaf sizes, occupancies changed
        /// between calls (an overlay leaf's `L_comm` included, then the
        /// same takes scored again), both trunk discounts, and placements
        /// as well as the annealing loop's bare takes.
        #[test]
        fn evaluation_is_history_independent(
            sizes in proptest::collection::vec(2usize..12, 3..7),
            grow in 1usize..4,
            occ in 0u8..60,
            seed in any::<u64>(),
            calls in proptest::collection::vec(
                (any::<bool>(), any::<bool>(), 0u8..3, 1usize..16, any::<u64>()),
                4..16,
            ),
        ) {
            let grown: Vec<usize> = sizes.iter().map(|s| s + grow).collect();
            let trees = [
                Tree::irregular_two_level(&sizes),
                Tree::irregular_two_level(&grown),
            ];
            let mut states = [occupy(&trees[0], occ, seed), occupy(&trees[1], occ, !seed)];
            let mut live: [Vec<JobId>; 2] = Default::default();
            let mut ev = PlacementEvaluator::new();
            let mut check = |tree: &Tree,
                             st: &ClusterState,
                             bare: bool,
                             placement: &Placement,
                             spec: &CollectiveSpec|
             -> Result<(), proptest::test_runner::TestCaseError> {
                for d in [0.5, 1.0] {
                    let got = if bare {
                        ev.evaluate_takes(tree, st, d, placement.takes(), spec)
                    } else {
                        ev.evaluate(tree, st, d, placement, spec)
                    };
                    let fresh = PlacementEvaluator::new().evaluate(tree, st, d, placement, spec);
                    prop_assert_eq!(got.raw_hops.to_bits(), fresh.raw_hops.to_bits());
                    prop_assert_eq!(got.hop_bytes.to_bits(), fresh.hop_bytes.to_bits());
                }
                Ok(())
            };
            for (job, (second, bare, mutation, want, pick)) in calls.into_iter().enumerate() {
                let t = usize::from(second);
                let (tree, st) = (&trees[t], &mut states[t]);
                let mut free: Vec<NodeId> = (0..tree.num_nodes())
                    .map(NodeId)
                    .filter(|n| st.is_free(*n))
                    .collect();
                if free.is_empty() {
                    continue;
                }
                free.shuffle(&mut rand_chacha::ChaCha8Rng::seed_from_u64(pick));
                let (chosen, rest) = free.split_at(want.min(free.len()));
                let placement = ids(tree, chosen);
                let pattern = Pattern::ALL[pick as usize % Pattern::ALL.len()];
                let spec = CollectiveSpec::new(pattern, 1 << (10 + (pick >> 8) % 10));
                check(tree, st, bare, &placement, &spec)?;
                match mutation {
                    // A comm node joins a leaf the placement touches when one
                    // is free there: that overlay leaf's `L_comm` moves.
                    0 | 1 => {
                        let leaves: Vec<usize> = placement.takes().iter().map(|t| t.0).collect();
                        let on_overlay = rest
                            .iter()
                            .find(|n| leaves.contains(&tree.leaf_ordinal_of(**n)));
                        let Some(&n) = on_overlay.or(rest.first()) else {
                            continue;
                        };
                        let nature = if mutation == 0 {
                            JobNature::CommIntensive
                        } else {
                            JobNature::ComputeIntensive
                        };
                        let id = JobId(1 << 40 | job as u64);
                        st.allocate(tree, id, ids(tree, &[n]), nature).unwrap();
                        live[t].push(id);
                    }
                    _ => {
                        if let Some(id) = live[t].pop() {
                            st.release(tree, id).unwrap();
                        }
                    }
                }
                // The same takes over the changed occupancy.
                check(tree, st, bare, &placement, &spec)?;
            }
        }

        /// `hypothetical_cost` equals clone + `allocate` + `job_cost` bit
        /// for bit and leaves the state untouched.
        #[test]
        fn scratch_guard_matches_clone_and_restores(
            sizes in arb_leaf_sizes(),
            occ in 0u8..70,
            seed in any::<u64>(),
            want in 1usize..24,
        ) {
            let (tree, st) = random_scenario(&sizes, occ, seed);
            prop_assume!(want <= st.free_total());
            let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed ^ 0x51f1);
            let mut free: Vec<NodeId> = (0..tree.num_nodes())
                .map(NodeId)
                .filter(|n| st.is_free(*n))
                .collect();
            free.shuffle(&mut rng);
            let nodes = ids(&tree, &free[..want]);
            let spec = CollectiveSpec::new(Pattern::Rhvd, 1 << 16);

            let snapshot = st.clone();
            for m in [CostModel::HOPS, CostModel::HOP_BYTES] {
                let naive = reference_cost(&m, &tree, &st, &nodes, &spec);
                let hypo = m.hypothetical_cost(&tree, &st, &nodes, &spec);
                prop_assert_eq!(hypo.to_bits(), naive.to_bits());
            }
            prop_assert_eq!(&st, &snapshot, "state changed by hypothetical_cost");
            prop_assert!(st.check_invariants(&tree).is_ok());
        }

        /// The incremental per-switch free counters always equal a fresh
        /// per-leaf recount, through arbitrary allocate/release
        /// interleavings.
        #[test]
        fn switch_counters_match_recount(
            sizes in arb_leaf_sizes(),
            seed in any::<u64>(),
            ops in 1usize..50,
        ) {
            use commsched_topology::SwitchId;
            let tree = Tree::irregular_two_level(&sizes);
            let mut st = ClusterState::new(&tree);
            let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
            let mut live: Vec<JobId> = Vec::new();
            let mut next = 0u64;
            for _ in 0..ops {
                let roll = rng.random::<f64>();
                if !live.is_empty() && roll < 0.35 {
                    let j = live.swap_remove(rng.random_range(0..live.len()));
                    st.release(&tree, j).unwrap();
                } else if st.free_total() > 0 {
                    let want = rng.random_range(1..=st.free_total().min(6));
                    let req = AllocRequest::comm(JobId(next), want);
                    let kind = SelectorKind::ALL[rng.random_range(0usize..4)];
                    let nodes = kind.build().select(&tree, &st, &req).unwrap();
                    st.allocate(&tree, JobId(next), &nodes, JobNature::CommIntensive).unwrap();
                    live.push(JobId(next));
                    next += 1;
                }
                for id in 0..tree.num_switches() {
                    let s = SwitchId(id);
                    let recount: usize = tree
                        .leaf_ordinals_under(s)
                        .map(|k| st.leaf_free(k) as usize)
                        .sum();
                    prop_assert_eq!(
                        st.subtree_free(&tree, s),
                        recount,
                        "switch {} counter diverged from recount", id
                    );
                }
            }
        }

        /// The evaluator-backed adaptive selector makes the same decision a
        /// naive clone-based reimplementation of §4.3 makes.
        #[test]
        fn adaptive_matches_naive_decision(
            sizes in arb_leaf_sizes(),
            occ in 0u8..70,
            seed in any::<u64>(),
            want in 1usize..24,
            comm in any::<bool>(),
        ) {
            let (tree, st) = random_scenario(&sizes, occ, seed);
            prop_assume!(want <= st.free_total());
            let nature = if comm { JobNature::CommIntensive } else { JobNature::ComputeIntensive };
            let req = AllocRequest { job: JobId(7), nodes: want, nature, pattern: None, attempt: 0 };
            let chosen = AdaptiveSelector::default().select(&tree, &st, &req).unwrap();

            // Naive §4.3: compare clone-based hypothetical hop-bytes costs.
            let greedy = GreedySelector.select(&tree, &st, &req).unwrap();
            let balanced = BalancedSelector.select(&tree, &st, &req).unwrap();
            let expected = if greedy == balanced {
                balanced
            } else {
                let spec = req.spec();
                let m = CostModel::HOP_BYTES;
                let cg = reference_cost(&m, &tree, &st, &greedy, &spec);
                let cb = reference_cost(&m, &tree, &st, &balanced, &spec);
                let take_balanced = if nature.is_comm() { cb <= cg } else { cb > cg };
                if take_balanced { balanced } else { greedy }
            };
            prop_assert_eq!(chosen, expected);
        }

        /// The free-count index stays exactly consistent with a
        /// from-scratch rebuild (verified inside `check_invariants`)
        /// through arbitrary allocate / release / fault / recover / drain /
        /// switch-outage churn — every counter path that can move a leaf's
        /// fill keys or a switch's subtree-free total — on every shape of
        /// [`shaped_tree`], with requests up to root size. The ratio order
        /// is first read at step `build_at`: before it, a greedy or adaptive
        /// draw selects by default or balanced instead, so the order stays
        /// unbuilt; from there on it equals a from-scratch build after
        /// every mutation.
        #[test]
        fn free_index_survives_fault_churn(
            shape in 0..SHAPES,
            sizes in arb_shape_sizes(),
            seed in any::<u64>(),
            ops in 1usize..60,
            build_at in 0usize..60,
        ) {
            use commsched_topology::SwitchId;
            let tree = shaped_tree(shape, &sizes);
            let mut st = ClusterState::new(&tree);
            let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
            let mut live: Vec<JobId> = Vec::new();
            let mut next = 0u64;
            for step in 0..ops {
                prop_assert_eq!(st.index().ratio_built(), step > build_at);
                if step == build_at {
                    let _ = st.leaves_by_ratio(&tree, tree.root());
                    st.check_invariants(&tree).unwrap();
                }
                let roll = rng.random::<f64>();
                let n = NodeId(rng.random_range(0..tree.num_nodes()));
                let s = SwitchId(rng.random_range(0..tree.num_switches()));
                // Busy, down and not-down refusals are all fine.
                if roll < 0.2 && !live.is_empty() {
                    let j = live.swap_remove(rng.random_range(0..live.len()));
                    st.release(&tree, j).unwrap();
                } else if roll < 0.3 {
                    let _ = st.set_down(&tree, n);
                } else if roll < 0.4 {
                    let _ = st.set_up(&tree, n);
                } else if roll < 0.5 {
                    let _ = st.set_draining(&tree, n);
                } else if roll < 0.55 {
                    let _ = st.set_switch_down(&tree, s);
                } else if roll < 0.6 {
                    let _ = st.set_switch_up(&tree, s);
                } else if st.free_total() > 0 {
                    let want = rng.random_range(1..=st.free_total().min(40));
                    let req = AllocRequest::comm(JobId(next), want);
                    let mut kind = SelectorKind::ALL[rng.random_range(0usize..4)];
                    if step < build_at {
                        kind = match kind {
                            SelectorKind::Greedy => SelectorKind::Default,
                            SelectorKind::Adaptive => SelectorKind::Balanced,
                            other => other,
                        };
                    }
                    let nodes = kind.build().select(&tree, &st, &req).unwrap();
                    let nature = if rng.random::<bool>() {
                        JobNature::CommIntensive
                    } else {
                        JobNature::ComputeIntensive
                    };
                    st.allocate(&tree, JobId(next), &nodes, nature).unwrap();
                    live.push(JobId(next));
                    next += 1;
                }
                st.check_invariants(&tree).unwrap();
            }
        }

        /// Every take-returning selector chooses exactly the nodes of its
        /// pre-index, id-list-building linear-scan twin in `select_scan`,
        /// on every shape of [`shaped_tree`] with leaves fragmented by
        /// random occupancy, down and draining nodes and a down switch, and
        /// requests up to everything free — so the root's merged fill
        /// orders are checked too. The independent check on the placement
        /// currency.
        #[test]
        fn selectors_match_scan_oracles(
            shape in 0..SHAPES,
            sizes in arb_shape_sizes(),
            occ in 0u8..80,
            seed in any::<u64>(),
            want in 1usize..64,
            comm in any::<bool>(),
            faults in 0usize..8,
            down_leaf in any::<bool>(),
        ) {
            let tree = shaped_tree(shape, &sizes);
            let mut st = occupy(&tree, occ, seed);
            // Knock nodes down (idle ones) or set them draining (busy
            // ones), and maybe take a whole leaf switch out, so the fault
            // paths shape the fill orders and the free-bit scans too.
            let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed ^ 0xd0d0);
            for _ in 0..faults {
                let n = NodeId(rng.random_range(0..tree.num_nodes()));
                let _ = st.set_draining(&tree, n);
            }
            if down_leaf {
                // Refused while a job holds a node under it; fine.
                let k = rng.random_range(0..tree.num_leaves());
                let _ = st.set_switch_down(&tree, tree.leaf(k));
            }
            st.check_invariants(&tree).unwrap();
            let want = want.min(st.free_total());
            prop_assume!(want > 0);
            let nature = if comm { JobNature::CommIntensive } else { JobNature::ComputeIntensive };
            let req = AllocRequest { job: JobId(9), nodes: want, nature, pattern: None, attempt: 0 };
            assert_matches_scan_oracles(&tree, &st, &req)?;
        }

        /// The same guarantee on deeper three-level trees, where the
        /// lowest-level-switch descent crosses real level structure
        /// instead of collapsing to leaves-plus-root, and a down mid-level
        /// switch masks several leaves at once.
        #[test]
        fn selectors_match_scan_oracles_three_level(
            spines in 2usize..4,
            leaves in 2usize..5,
            nodes_per_leaf in 2usize..8,
            occ in 0u8..80,
            seed in any::<u64>(),
            want in 1usize..40,
            comm in any::<bool>(),
            faults in 0usize..8,
            down_group in any::<bool>(),
        ) {
            let tree = Tree::regular_three_level(spines, leaves, nodes_per_leaf);
            let mut st = ClusterState::new(&tree);
            let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
            let mut all: Vec<NodeId> = (0..tree.num_nodes()).map(NodeId).collect();
            all.shuffle(&mut rng);
            let busy = tree.num_nodes() * occ as usize / 100;
            // Under a group that will go down nothing may be busy.
            let doomed = tree.switch(tree.root()).children[0];
            let under_doomed = |n: &NodeId| {
                tree.leaf_ordinals_under(doomed)
                    .contains(&tree.leaf_ordinal_of(*n))
            };
            all.retain(|n| !(down_group && under_doomed(n)));
            for (job, chunk) in all[..busy.min(all.len())].chunks(4).enumerate() {
                let nature = if rng.random::<bool>() {
                    JobNature::CommIntensive
                } else {
                    JobNature::ComputeIntensive
                };
                st.allocate(&tree, JobId(500 + job as u64), ids(&tree, chunk), nature).unwrap();
            }
            for _ in 0..faults {
                let n = NodeId(rng.random_range(0..tree.num_nodes()));
                let _ = st.set_draining(&tree, n);
            }
            if down_group {
                st.set_switch_down(&tree, doomed).unwrap();
            }
            st.check_invariants(&tree).unwrap();
            prop_assume!(want <= st.free_total());
            let nature = if comm { JobNature::CommIntensive } else { JobNature::ComputeIntensive };
            let req = AllocRequest { job: JobId(9), nodes: want, nature, pattern: None, attempt: 0 };
            assert_matches_scan_oracles(&tree, &st, &req)?;
        }
    }

    /// Scan twin of [`AdaptiveSelector`], as the parent commit had it: the
    /// scan greedy and balanced candidates as id lists *in fill order*,
    /// compared as lists (so one node set reached through two leaf orders
    /// still goes to the cost comparison), priced by the naive
    /// [`reference_cost`], cheaper kept for communication-
    /// intensive jobs and costlier for compute-intensive ones.
    fn adaptive_scan(
        cost: &CostModel,
        tree: &Tree,
        st: &ClusterState,
        req: &AllocRequest,
    ) -> Result<Vec<NodeId>, SelectError> {
        use crate::select_scan::{balanced_select, greedy_select};
        let greedy = greedy_select(tree, st, req)?;
        let balanced = balanced_select(tree, st, req)?;
        if greedy == balanced {
            return Ok(balanced);
        }
        let spec = req.spec();
        let cost_g = reference_cost(cost, tree, st, &ids(tree, &greedy), &spec);
        let cost_b = reference_cost(cost, tree, st, &ids(tree, &balanced), &spec);
        let take_balanced = if req.nature.is_comm() {
            cost_b <= cost_g
        } else {
            cost_b > cost_g
        };
        Ok(if take_balanced { balanced } else { greedy })
    }

    /// The scan oracle's pick for `kind`, as sorted ids.
    pub(super) fn scan_oracle(
        kind: SelectorKind,
        tree: &Tree,
        st: &ClusterState,
        req: &AllocRequest,
    ) -> Vec<NodeId> {
        use crate::select_scan;
        let mut picked = match kind {
            SelectorKind::Default => select_scan::default_select(tree, st, req),
            SelectorKind::Greedy => select_scan::greedy_select(tree, st, req),
            SelectorKind::Balanced => select_scan::balanced_select(tree, st, req),
            // SA at budget 0 is the adaptive rule.
            SelectorKind::Adaptive | SelectorKind::Sa(_) => {
                adaptive_scan(&CostModel::HOP_BYTES, tree, st, req)
            }
        }
        .expect("the scan twin sees the same free_total");
        picked.sort_unstable();
        picked
    }

    /// `select(..).nodes()` of all four selectors, and of SA at budget 0,
    /// against the scan oracles; every placement also passes
    /// [`Placement::check`] and holds only free, healthy, unmasked nodes.
    fn assert_matches_scan_oracles(
        tree: &Tree,
        st: &ClusterState,
        req: &AllocRequest,
    ) -> Result<(), proptest::test_runner::TestCaseError> {
        let sa0 = SelectorKind::Sa(crate::SaSelector::new(0, 17));
        for kind in SelectorKind::ALL.into_iter().chain([sa0]) {
            let got = kind
                .build()
                .select(tree, st, req)
                .expect("free_total covers the request");
            prop_assert_eq!(got.check(tree), Ok(()), "{}: malformed placement", kind);
            prop_assert_eq!(got.len(), req.nodes, "{}: wrong node count", kind);
            prop_assert_eq!(
                got.nodes(),
                scan_oracle(kind, tree, st, req),
                "{} diverged from its scan twin",
                kind
            );
            for n in got.iter() {
                prop_assert!(
                    st.is_free(n) && st.effective_health(tree, n) == crate::NodeHealth::Up,
                    "{} placed on unavailable {}",
                    kind,
                    n
                );
            }
        }
        Ok(())
    }

    /// The four situations `evaluator_matches_naive_job_cost` checks —
    /// cold, warm, after another placement in between, after a state
    /// change — for one placement, `to_bits` against the pair-by-pair
    /// oracle under both models.
    fn assert_evaluator_matches_oracle(
        tree: &Tree,
        st: &ClusterState,
        placement: &Placement,
        spec: &CollectiveSpec,
    ) -> Result<(), proptest::test_runner::TestCaseError> {
        let hops = reference_cost(&CostModel::HOPS, tree, st, placement, spec);
        let bytes = reference_cost(&CostModel::HOP_BYTES, tree, st, placement, spec);
        let mut ev = PlacementEvaluator::new();
        let cold = ev.evaluate(tree, st, 0.5, placement, spec);
        prop_assert_eq!(cold.raw_hops.to_bits(), hops.to_bits());
        prop_assert_eq!(cold.hop_bytes.to_bits(), bytes.to_bits());
        prop_assert_eq!(ev.evaluate(tree, st, 0.5, placement, spec), cold);
        let held: std::collections::BTreeSet<NodeId> = placement.iter().collect();
        let spare = (0..tree.num_nodes())
            .map(NodeId)
            .find(|n| st.is_free(*n) && !held.contains(n));
        if let Some(spare) = spare {
            let other = ids(tree, &[spare]);
            ev.evaluate(tree, st, 0.5, &other, spec);
            prop_assert_eq!(ev.evaluate(tree, st, 0.5, placement, spec), cold);
            let mut moved = st.clone();
            moved
                .allocate(tree, JobId(u64::MAX - 1), &other, JobNature::CommIntensive)
                .unwrap();
            let got = ev.evaluate(tree, &moved, 0.5, placement, spec);
            let naive = reference_cost(&CostModel::HOPS, tree, &moved, placement, spec);
            prop_assert_eq!(got.raw_hops.to_bits(), naive.to_bits());
        }
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// `evaluator_matches_naive_job_cost` where interval scoring has
        /// its edges: ragged leaves of 1..=64 nodes and jobs of up to 700
        /// ranks, so takes straddle XOR blocks, the fold boundary and
        /// stencil rows; powers of two and ragged counts; all six
        /// patterns; the four selectors' own placements and a scattered
        /// one — leaves in random order, single-node takes between
        /// multi-node ones — which is also scored as the bare takes the
        /// annealing loop proposes and never resolves.
        #[test]
        fn evaluator_matches_job_cost_on_large_ragged_placements(
            sizes in proptest::collection::vec(1usize..=64, 4..28),
            occ in 0u8..60,
            seed in any::<u64>(),
            want in 2usize..=700,
            pow2 in any::<bool>(),
            pat in 0usize..6,
        ) {
            let (tree, st) = random_scenario(&sizes, occ, seed);
            let pattern = Pattern::ALL[pat];
            // The oracle walks every pair, and these two have `p²` of them.
            let cap = if matches!(pattern, Pattern::Ring | Pattern::Alltoall) { 160 } else { 700 };
            let mut want = want.min(cap).min(st.free_total());
            prop_assume!(want >= 2);
            if pow2 {
                want = 1 << want.ilog2();
            }
            let spec = CollectiveSpec::new(pattern, 1 << 16);

            let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed ^ 0x7a6b);
            let mut leaves: Vec<usize> =
                (0..tree.num_leaves()).filter(|&k| st.leaf_free(k) > 0).collect();
            leaves.shuffle(&mut rng);
            let mut takes: Vec<(usize, u32)> = Vec::new();
            let mut left = want;
            for (i, &k) in leaves.iter().enumerate() {
                let free = st.leaf_free(k) as usize;
                let count = if i % 2 == 0 { 1 } else { rng.random_range(1..=free) };
                let count = count.min(left);
                if count > 0 {
                    takes.push((k, count as u32));
                    left -= count;
                }
            }
            for (k, count) in &mut takes {
                let more = (st.leaf_free(*k) - *count).min(left as u32);
                *count += more;
                left -= more as usize;
            }
            prop_assert_eq!(left, 0);
            takes.sort_unstable();
            let scattered = Placement::from_takes(&tree, &st, takes.clone());
            let bare = PlacementEvaluator::new().evaluate_takes(&tree, &st, 0.5, &takes, &spec);
            let hops = reference_cost(&CostModel::HOPS, &tree, &st, &scattered, &spec);
            let bytes = reference_cost(&CostModel::HOP_BYTES, &tree, &st, &scattered, &spec);
            prop_assert_eq!(bare.raw_hops.to_bits(), hops.to_bits());
            prop_assert_eq!(bare.hop_bytes.to_bits(), bytes.to_bits());
            assert_evaluator_matches_oracle(&tree, &st, &scattered, &spec)?;

            let req = AllocRequest::comm(JobId(7), want).with_pattern(spec);
            for kind in SelectorKind::ALL {
                let placement = kind.build().select(&tree, &st, &req).unwrap();
                assert_evaluator_matches_oracle(&tree, &st, &placement, &spec)?;
            }
        }
    }

    /// One shared churn driver for the switch-fault properties: interleave
    /// selector-driven allocations, releases, intrinsic node faults and
    /// correlated switch outages, checking after every step that the
    /// invariants hold, that no selector ever places on a node whose
    /// effective health is not `Up` (in particular, never on a leaf under
    /// a down switch), and that every selector keeps choosing exactly its
    /// scan twin's nodes while the health mask reshapes the free counters.
    fn churn_with_switch_faults(
        tree: &Tree,
        seed: u64,
    ) -> Result<(), proptest::test_runner::TestCaseError> {
        use crate::NodeHealth;
        use commsched_topology::SwitchId;
        use proptest::test_runner::TestCaseError;
        let mut st = ClusterState::new(tree);
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
        let mut live: Vec<JobId> = Vec::new();
        let mut next = 0u64;
        // The root stays up: masking the whole machine degenerates every
        // later step into a no-op.
        let candidates: Vec<SwitchId> = (0..tree.num_switches())
            .map(SwitchId)
            .filter(|&s| s != tree.root())
            .collect();
        for step in 0..60u32 {
            match rng.random_range(0..6u8) {
                0 | 1 => {
                    // Place through a random selector; the placement
                    // itself is the property under test.
                    let want = rng.random_range(1..=4usize);
                    if want > st.free_total() {
                        continue;
                    }
                    let kind = SelectorKind::ALL[rng.random_range(0..SelectorKind::ALL.len())];
                    let nature = if rng.random::<bool>() {
                        JobNature::CommIntensive
                    } else {
                        JobNature::ComputeIntensive
                    };
                    let req = AllocRequest {
                        job: JobId(next),
                        nodes: want,
                        nature,
                        pattern: None,
                        attempt: 0,
                    };
                    assert_matches_scan_oracles(tree, &st, &req)?;
                    let got = kind
                        .build()
                        .select(tree, &st, &req)
                        .expect("free_total covers the request");
                    st.allocate(tree, JobId(next), &got, nature)
                        .expect("selected nodes are free");
                    live.push(JobId(next));
                    next += 1;
                }
                2 => {
                    if live.is_empty() {
                        continue;
                    }
                    let job = live.swap_remove(rng.random_range(0..live.len()));
                    st.release(tree, job).expect("live jobs hold allocations");
                }
                3 => {
                    // Intrinsic node fault or recovery; a busy node's job
                    // is killed first, mirroring the engine's fail path.
                    let n = NodeId(rng.random_range(0..tree.num_nodes()));
                    if st.health(n) == NodeHealth::Down {
                        st.set_up(tree, n)
                            .expect("intrinsically down nodes recover");
                    } else {
                        if let Some(victim) = st.job_on(n) {
                            st.release(tree, victim)
                                .expect("victim holds an allocation");
                            live.retain(|&j| j != victim);
                        }
                        // A draining victim goes down on release; only
                        // fail the node if the release didn't already.
                        if st.health(n) != NodeHealth::Down {
                            st.set_down(tree, n).expect("node is idle after the kill");
                        }
                    }
                }
                4 => {
                    if candidates.is_empty() {
                        continue;
                    }
                    let s = candidates[rng.random_range(0..candidates.len())];
                    if st.switch_is_down(s) {
                        continue;
                    }
                    // Kill everything under the subtree first, mirroring
                    // the engine's blast-radius handling.
                    let under = tree.leaf_ordinals_under(s);
                    let victims: Vec<JobId> = st
                        .allocations()
                        .filter(|(_, a)| a.nodes.takes().iter().any(|(k, _)| under.contains(k)))
                        .map(|(j, _)| j)
                        .collect();
                    for v in victims {
                        st.release(tree, v).expect("victims hold allocations");
                        live.retain(|&j| j != v);
                    }
                    st.set_switch_down(tree, s)
                        .expect("subtree is idle after the kills");
                }
                _ => {
                    let down: Vec<SwitchId> = (0..tree.num_switches())
                        .map(SwitchId)
                        .filter(|&s| st.switch_is_down(s))
                        .collect();
                    if down.is_empty() {
                        continue;
                    }
                    let s = down[rng.random_range(0..down.len())];
                    st.set_switch_up(tree, s).expect("picked from the down set");
                }
            }
            if let Err(e) = st.check_invariants(tree) {
                return Err(TestCaseError::fail(format!("step {step}: {e}")));
            }
        }
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// Combined node + switch churn on random two-level trees:
        /// invariants stay clean, selectors never place under a down
        /// switch, and indexed selection tracks the scan baseline
        /// byte-for-byte through arbitrary health masking.
        #[test]
        fn switch_churn_two_level(sizes in arb_leaf_sizes(), seed in any::<u64>()) {
            let tree = Tree::irregular_two_level(&sizes);
            churn_with_switch_faults(&tree, seed)?;
        }

        /// The same combined churn on three-level trees, where one down
        /// mid-level switch masks several leaves at once and nested
        /// outages (spine above an already-failed leaf) overlap.
        #[test]
        fn switch_churn_three_level(
            spines in 2usize..4,
            leaves in 2usize..4,
            nodes_per_leaf in 2usize..6,
            seed in any::<u64>(),
        ) {
            let tree = Tree::regular_three_level(spines, leaves, nodes_per_leaf);
            churn_with_switch_faults(&tree, seed)?;
        }
    }
}

/// `evaluate_takes` documents its precondition — strictly ascending leaf
/// ordinals, positive counts — and, with debug assertions on, checks it.
#[cfg(debug_assertions)]
mod take_precondition {
    use super::*;

    fn score(takes: &[(usize, u32)]) {
        let tree = Tree::regular_two_level(4, 8);
        let st = ClusterState::new(&tree);
        let spec = CollectiveSpec::new(Pattern::Rd, 1 << 16);
        PlacementEvaluator::new().evaluate_takes(&tree, &st, 0.5, takes, &spec);
    }

    #[test]
    #[should_panic(expected = "takes must ascend strictly")]
    fn unsorted_takes_are_rejected() {
        score(&[(2, 3), (1, 3)]);
    }

    #[test]
    #[should_panic(expected = "takes must ascend strictly")]
    fn a_leaf_named_twice_is_rejected() {
        score(&[(1, 3), (1, 2)]);
    }

    #[test]
    #[should_panic(expected = "takes must ascend strictly")]
    fn an_empty_take_is_rejected() {
        score(&[(0, 4), (1, 0)]);
    }
}

/// The fast paths against their oracles at the sizes the benchmarks run
/// (`commsched_bench::perf::PlacementCase`): the property tests above stop
/// at a few hundred nodes.
/// Eq. 6 where the narrow XOR steps' closed form has its edges (DESIGN.md
/// §4.1): every total tied `to_bits` to the pair-by-pair oracle under both
/// models, and the steps the evaluator still sweeps counted.
mod narrow_steps {
    use super::*;
    use commsched_topology::SystemPreset;

    /// Leaves of `size` nodes; leaf `k` has its top `5k` nodes held by a
    /// communication-intensive job, so neighbouring takes' hops differ.
    fn loaded(leaves: usize, size: usize) -> (Tree, ClusterState) {
        let tree = Tree::irregular_two_level(&vec![size; leaves]);
        let mut st = ClusterState::new(&tree);
        let busy: Vec<NodeId> = (0..leaves)
            .flat_map(|k| (0..5 * k).map(move |i| NodeId(size * (k + 1) - 1 - i)))
            .collect();
        st.allocate(&tree, JobId(1), ids(&tree, &busy), JobNature::CommIntensive)
            .unwrap();
        (tree, st)
    }

    /// Tie `takes` to the oracle under RD and RHVD, and return the steps
    /// the evaluator swept for each.
    fn swept_steps(tree: &Tree, st: &ClusterState, takes: &[(usize, u32)]) -> [u64; 2] {
        let placement = Placement::from_takes(tree, st, takes.to_vec());
        [Pattern::Rd, Pattern::Rhvd].map(|pattern| {
            let spec = CollectiveSpec::new(pattern, 1 << 20);
            let mut ev = PlacementEvaluator::new();
            let got = ev.evaluate_takes(tree, st, 0.5, takes, &spec);
            let hops = reference_cost(&CostModel::HOPS, tree, st, &placement, &spec);
            let bytes = reference_cost(&CostModel::HOP_BYTES, tree, st, &placement, &spec);
            assert_eq!(
                got.raw_hops.to_bits(),
                hops.to_bits(),
                "{pattern} {takes:?}"
            );
            assert_eq!(
                got.hop_bytes.to_bits(),
                bytes.to_bits(),
                "{pattern} {takes:?}"
            );
            ev.swept().0
        })
    }

    /// 64 ranks whose narrowest interior take holds 16 indices: the step
    /// at distance 16 is narrow, and only the one at 32 is swept. With 15,
    /// the step at 16 is swept too.
    #[test]
    fn an_interior_take_of_d_is_narrow_and_of_d_minus_one_is_not() {
        let (tree, st) = loaded(4, 64);
        assert_eq!(
            swept_steps(&tree, &st, &[(0, 12), (1, 16), (2, 17), (3, 19)]),
            [1, 1]
        );
        assert_eq!(
            swept_steps(&tree, &st, &[(0, 12), (1, 15), (2, 18), (3, 19)]),
            [2, 2]
        );
    }

    /// A balanced 256-node grant of four 64-node takes: every boundary is
    /// a multiple of `2d` for the steps up to distance 32, which join no
    /// neighbour pair, and the step at 64 joins two of the three.
    #[test]
    fn boundaries_on_multiples_of_2d_join_no_neighbours() {
        let (tree, st) = loaded(4, 80);
        let takes = [(0, 64), (1, 64), (2, 64), (3, 64)];
        assert_eq!(swept_steps(&tree, &st, &takes), [1, 1]);
    }

    /// First and last takes shorter than the step's distance, unfolded
    /// (64 ranks, nothing swept) and folded (100 ranks: the fold's pre-
    /// and post-step and the step at 32, wider than the 29 indices the
    /// interior take keeps, are swept).
    #[test]
    fn short_first_and_last_takes() {
        let (tree, st) = loaded(3, 64);
        assert_eq!(swept_steps(&tree, &st, &[(0, 3), (1, 40), (2, 21)]), [0, 0]);
        assert_eq!(swept_steps(&tree, &st, &[(0, 3), (1, 58), (2, 39)]), [3, 3]);
    }

    /// A one-rank take on an even rank below the fold keeps no index, as a
    /// first take or an interior one: no step is narrow, and all eight of
    /// an 80-rank schedule's steps are swept.
    #[test]
    fn a_take_the_fold_leaves_empty_is_swept() {
        let (tree, st) = loaded(4, 64);
        assert_eq!(swept_steps(&tree, &st, &[(0, 1), (1, 45), (2, 34)]), [8, 8]);
        assert_eq!(
            swept_steps(&tree, &st, &[(0, 4), (1, 1), (2, 40), (3, 35)]),
            [8, 8]
        );
    }

    /// An RHVD candidate of whole Intrepid leaves sweeps the fold's two
    /// steps and only the core steps wider than its narrowest interior
    /// take in the fold's index space; every narrower step is priced from
    /// the tables.
    #[test]
    fn whole_intrepid_leaves_sweep_only_the_wide_steps() {
        let tree = SystemPreset::Intrepid.build();
        let st = ClusterState::new(&tree);
        let spec = CollectiveSpec::new(Pattern::Rhvd, 1 << 20);
        for leaves in [1, 2, 3, 5, 12, 40] {
            let takes: Vec<(usize, u32)> =
                (0..leaves).map(|k| (k, tree.leaf_size(k) as u32)).collect();
            let p: usize = takes.iter().map(|t| t.1 as usize).sum();
            let core = 1usize << p.ilog2();
            let excess = p - core;
            let fold = |b: usize| if b <= 2 * excess { b / 2 } else { b - excess };
            let mut ends = vec![0];
            for t in &takes {
                ends.push(ends[ends.len() - 1] + t.1 as usize);
            }
            let narrowest = (1..leaves.saturating_sub(1))
                .map(|t| fold(ends[t + 1]) - fold(ends[t]))
                .min()
                .unwrap_or(usize::MAX);
            let wide = (0..p.ilog2()).filter(|&k| 1usize << k > narrowest).count();
            let want = wide as u64 + 2 * u64::from(excess > 0);
            let mut ev = PlacementEvaluator::new();
            let got = ev.evaluate_takes(&tree, &st, 0.5, &takes, &spec);
            assert_eq!(ev.swept().0, want, "{leaves} leaves, {p} ranks");
            assert!(
                want < spec.num_steps(p) as u64 || leaves <= 1,
                "{leaves} leaves"
            );
            let placement = Placement::from_takes(&tree, &st, takes);
            let hops = reference_cost(&CostModel::HOPS, &tree, &st, &placement, &spec);
            assert_eq!(got.raw_hops.to_bits(), hops.to_bits(), "{leaves} leaves");
        }
    }
}

mod scale {
    use super::properties::scan_oracle;
    use super::*;
    use commsched_topology::SystemPreset;
    use rand::prelude::*;

    /// `PlacementCase::new`'s occupancy: half the nodes, drawn by a seed-7
    /// shuffle, held by 512-node jobs of alternating nature.
    fn half_occupied(tree: &Tree) -> ClusterState {
        occupied(tree, tree.num_nodes() / 2)
    }

    /// `half_occupied` with `busy` nodes held instead of half of them.
    fn occupied(tree: &Tree, busy: usize) -> ClusterState {
        let mut st = ClusterState::new(tree);
        let mut rng = rand_chacha::ChaCha12Rng::seed_from_u64(7);
        let mut nodes: Vec<NodeId> = (0..tree.num_nodes()).map(NodeId).collect();
        nodes.shuffle(&mut rng);
        for (job, chunk) in nodes[..busy].chunks(512).enumerate() {
            let nature = if job % 2 == 0 {
                JobNature::CommIntensive
            } else {
                JobNature::ComputeIntensive
            };
            st.allocate(tree, JobId(job as u64), ids(tree, chunk), nature)
                .unwrap();
        }
        // Counters ≡ recount and index ≡ from-scratch rebuild, at scale.
        st.check_invariants(tree).unwrap();
        st
    }

    /// Indexed ≡ scan for the three direct selectors at 256 nodes, and for
    /// the adaptive pick at the preset's benchmark request size, where the
    /// evaluator's totals for the adaptive and the default placement must
    /// also equal clone + `allocate` + `job_cost` bit for bit, under both
    /// models and both of the probe's collectives.
    fn assert_preset_matches_oracles(preset: SystemPreset, want: usize) {
        let tree = preset.build();
        let st = half_occupied(&tree);
        let probe = |nodes| {
            AllocRequest::comm(JobId(999_999), nodes)
                .with_pattern(CollectiveSpec::new(Pattern::Rhvd, 1 << 20))
        };
        let req = probe(256);
        for kind in [
            SelectorKind::Default,
            SelectorKind::Greedy,
            SelectorKind::Balanced,
        ] {
            let got = kind.build().select(&tree, &st, &req).unwrap();
            assert_eq!(
                got.nodes(),
                scan_oracle(kind, &tree, &st, &req),
                "{preset:?}: {kind} diverged from its scan twin"
            );
        }

        let req = probe(want);
        let adaptive = AdaptiveSelector::default()
            .select(&tree, &st, &req)
            .unwrap();
        assert_eq!(
            adaptive.nodes(),
            scan_oracle(SelectorKind::Adaptive, &tree, &st, &req),
            "{preset:?}: adaptive diverged from the clone-based rule"
        );
        let default = DefaultTreeSelector.select(&tree, &st, &req).unwrap();
        let mut eval = PlacementEvaluator::new();
        for placement in [&adaptive, &default] {
            let mut what_if = st.clone();
            what_if
                .allocate(&tree, JobId(u64::MAX), placement, JobNature::CommIntensive)
                .unwrap();
            let nodes = placement.nodes();
            for pattern in [Pattern::Rhvd, Pattern::Rd] {
                let spec = CollectiveSpec::new(pattern, 1 << 20);
                let got = eval.evaluate(&tree, &st, 0.5, placement, &spec);
                let hops = CostModel::HOPS.job_cost(&tree, &what_if, &nodes, &spec);
                let bytes = CostModel::HOP_BYTES.job_cost(&tree, &what_if, &nodes, &spec);
                assert_eq!(got.raw_hops.to_bits(), hops.to_bits(), "{preset:?}");
                assert_eq!(got.hop_bytes.to_bits(), bytes.to_bits(), "{preset:?}");
            }
        }
    }

    /// `bench_micro`'s `eval_theta_300` and `eval_intrepid_5000` cases —
    /// the half-occupied state, the default fill of the probe's request,
    /// RHVD at 1 MiB — sweep exactly these steps and report exactly these
    /// part pairs per call: the rows' timing bound cannot tell the
    /// narrow-step tables switched off (about 1.5x slower), this count
    /// can.
    #[test]
    fn benchmark_candidates_sweep_pinned_steps() {
        for (preset, want, pinned) in [
            (SystemPreset::Theta, 300, (2, 2)),
            (SystemPreset::Intrepid, 5000, (8, 283)),
        ] {
            let tree = preset.build();
            let st = half_occupied(&tree);
            let req = AllocRequest::comm(JobId(999_999), want);
            let fill = DefaultTreeSelector.select(&tree, &st, &req).unwrap();
            let spec = CollectiveSpec::new(Pattern::Rhvd, 1 << 20);
            let mut eval = PlacementEvaluator::new();
            let got = eval.evaluate_takes(&tree, &st, 0.5, fill.takes(), &spec);
            assert_eq!(eval.swept(), pinned, "{preset:?}: steps, part pairs");
            let hops = reference_cost(&CostModel::HOPS, &tree, &st, &fill, &spec);
            assert_eq!(got.raw_hops.to_bits(), hops.to_bits(), "{preset:?}");
        }
    }

    /// Interval scoring against the pair-by-pair oracle at the rank counts
    /// `bench_e2e`'s logs carry — the largest power of two, the whole
    /// machine and the largest folded count on Intrepid, Mira's largest
    /// request — where a take holds hundreds of ranks and a step tens of
    /// thousands of pairs. The machine is half occupied, or as occupied as
    /// still leaves the job room.
    #[test]
    fn evaluator_matches_oracle_at_benchmark_scale() {
        for (preset, sizes) in [
            (SystemPreset::Intrepid, &[40_960usize, 39_914, 32_768][..]),
            (SystemPreset::Mira, &[16_384][..]),
        ] {
            let tree = preset.build();
            for &want in sizes {
                let st = occupied(&tree, (tree.num_nodes() / 2).min(tree.num_nodes() - want));
                let mut eval = PlacementEvaluator::new();
                for kind in [
                    SelectorKind::Balanced,
                    SelectorKind::Greedy,
                    SelectorKind::Default,
                ] {
                    let req = AllocRequest::comm(JobId(999_999), want);
                    let placement = kind.build().select(&tree, &st, &req).unwrap();
                    let mut what_if = st.clone();
                    what_if
                        .allocate(&tree, JobId(u64::MAX), &placement, JobNature::CommIntensive)
                        .unwrap();
                    let nodes = placement.nodes();
                    for pattern in Pattern::PAPER {
                        let spec = CollectiveSpec::new(pattern, 1 << 20);
                        let got = eval.evaluate(&tree, &st, 0.5, &placement, &spec);
                        let hops = CostModel::HOPS.job_cost(&tree, &what_if, &nodes, &spec);
                        let bytes = CostModel::HOP_BYTES.job_cost(&tree, &what_if, &nodes, &spec);
                        let case = format!("{preset:?} {want} {kind} {pattern}");
                        assert_eq!(got.raw_hops.to_bits(), hops.to_bits(), "{case}");
                        assert_eq!(got.hop_bytes.to_bits(), bytes.to_bits(), "{case}");
                    }
                }
            }
        }
    }

    /// A candidate spread over more leaves than the hop memo serves is
    /// scored without it — same totals, bit for bit.
    #[test]
    fn evaluator_matches_oracle_beyond_the_hop_memo() {
        let tree = Tree::irregular_two_level(&vec![2; 1200]);
        let mut st = ClusterState::new(&tree);
        let busy: Vec<NodeId> = (0..100).map(|k| NodeId(20 * k)).collect();
        st.allocate(&tree, JobId(1), ids(&tree, &busy), JobNature::CommIntensive)
            .unwrap();
        let req = AllocRequest::comm(JobId(2), 2_200);
        let placement = GreedySelector.select(&tree, &st, &req).unwrap();
        assert!(
            placement.takes().len() > 1024,
            "{}",
            placement.takes().len()
        );
        for pattern in [Pattern::Rhvd, Pattern::Binomial] {
            let spec = CollectiveSpec::new(pattern, 1 << 20);
            let got = PlacementEvaluator::new().evaluate(&tree, &st, 0.5, &placement, &spec);
            let hops = reference_cost(&CostModel::HOPS, &tree, &st, &placement, &spec);
            let bytes = reference_cost(&CostModel::HOP_BYTES, &tree, &st, &placement, &spec);
            assert_eq!(got.raw_hops.to_bits(), hops.to_bits(), "{pattern}");
            assert_eq!(got.hop_bytes.to_bits(), bytes.to_bits(), "{pattern}");
        }
    }

    #[test]
    fn theta_matches_oracles() {
        assert_preset_matches_oracles(SystemPreset::Theta, 256);
    }

    #[test]
    fn mira_matches_oracles() {
        assert_preset_matches_oracles(SystemPreset::Mira, 2048);
    }

    #[test]
    fn multirail500k_matches_oracles() {
        assert_preset_matches_oracles(SystemPreset::Multirail500k, 4096);
    }

    #[test]
    fn dragonfly1m_matches_oracles() {
        assert_preset_matches_oracles(SystemPreset::Dragonfly1M, 4096);
    }

    /// Live keys the fill walks enter (`SetCounts::walked`) in one
    /// 256-node selection on `PlacementCase`'s half-occupied Dragonfly1M,
    /// whose descent stops at a group: Algorithm 1 walks the leaf-wide
    /// ratio order, whose live keys it enters whether or not the group
    /// holds a member under them, and the balanced compute arm the
    /// level-1 set. Pinned so a change to that trade shows on any host
    /// (DESIGN.md §4.7).
    #[test]
    fn fills_at_a_dragonfly_1m_group_enter_pinned_keys() {
        let tree = SystemPreset::Dragonfly1M.build();
        let st = half_occupied(&tree);
        let _ = st.leaves_by_ratio(&tree, tree.root());
        let g = st.index().lowest_level_switch(&tree, 256).unwrap();
        assert_eq!(tree.switch(g).level, 2);
        let walked = |st: &ClusterState| -> u64 {
            let sets = st.index().map_sets(|s| s.tally(), |s| s.tally());
            sets.iter().map(|t| t.walked).sum()
        };
        let fills = [
            (SelectorKind::Greedy, AllocRequest::comm(JobId(1), 256)),
            (SelectorKind::Greedy, AllocRequest::compute(JobId(1), 256)),
            (SelectorKind::Balanced, AllocRequest::compute(JobId(1), 256)),
        ];
        let got = fills.map(|(kind, req)| {
            let before = walked(&st);
            let placement = kind.build().select(&tree, &st, &req).unwrap();
            assert!(placement
                .takes()
                .iter()
                .all(|t| tree.leaf_ordinals_under(g).contains(&t.0)));
            walked(&st) - before
        });
        let live: Vec<usize> = set_stats(st.index()).iter().map(|s| s.2).collect();
        assert_eq!(
            live,
            [32, 58, 1, 398],
            "live keys: the level sets, the ratio order"
        );
        assert_eq!(
            got,
            [64, 75, 8],
            "greedy comm, greedy compute, balanced compute"
        );
    }
}

mod lifecycle {
    use super::*;
    use crate::NodeHealth;

    fn tree() -> Tree {
        Tree::regular_two_level(2, 3) // 2 leaves x 3 nodes
    }

    #[test]
    fn down_nodes_leave_every_free_counter() {
        let t = tree();
        let mut s = ClusterState::new(&t);
        s.set_down(&t, NodeId(0)).unwrap();
        s.set_down(&t, NodeId(4)).unwrap();
        assert_eq!(s.free_total(), 4);
        assert_eq!(s.down_total(), 2);
        assert_eq!(s.busy_total(), 0);
        assert_eq!(s.leaf_free(0), 2);
        assert_eq!(s.leaf_down(0), 1);
        assert_eq!(s.leaf_busy(0), 0);
        assert_eq!(s.health(NodeId(0)), NodeHealth::Down);
        assert!(!s.is_free(NodeId(0)));
        s.check_invariants(&t).unwrap();

        s.set_up(&t, NodeId(0)).unwrap();
        s.set_up(&t, NodeId(4)).unwrap();
        assert_eq!(s.free_total(), 6);
        assert_eq!(s.down_total(), 0);
        assert_eq!(s, ClusterState::new(&t));
        s.check_invariants(&t).unwrap();
    }

    /// Bringing up a switch that is up, and downing one over a running
    /// job (the job's lowest node, not a down one beside it, is named),
    /// are refused and change nothing.
    #[test]
    fn switch_errors_name_the_switch() {
        let t = tree();
        let mut s = ClusterState::new(&t);
        let leaf = t.leaf(1);
        assert_eq!(
            s.set_switch_up(&t, leaf),
            Err(StateError::SwitchNotDown(leaf))
        );
        s.set_down(&t, NodeId(3)).unwrap();
        let nodes = ids(&t, &[NodeId(4), NodeId(5)]);
        s.allocate(&t, JobId(1), &nodes, JobNature::ComputeIntensive)
            .unwrap();
        let before = s.clone();
        for sw in [leaf, t.root()] {
            let err = StateError::SwitchBusy {
                switch: sw,
                node: NodeId(4),
            };
            assert_eq!(s.set_switch_down(&t, sw), Err(err));
        }
        assert_eq!(s, before);
        s.check_invariants(&t).unwrap();
        s.release(&t, JobId(1)).unwrap();
        s.set_switch_down(&t, leaf).unwrap();
        assert_eq!(
            s.set_switch_down(&t, leaf),
            Err(StateError::SwitchDown(leaf))
        );
        s.set_switch_up(&t, leaf).unwrap();
        assert_eq!(s.free_total(), 5);
    }

    #[test]
    fn selectors_avoid_down_nodes() {
        let t = tree();
        let mut s = ClusterState::new(&t);
        // Down all of leaf 0: every selector must land on leaf 1.
        for n in 0..3 {
            s.set_down(&t, NodeId(n)).unwrap();
        }
        let req = AllocRequest::comm(JobId(1), 2);
        for sel in [
            &DefaultTreeSelector as &dyn NodeSelector,
            &GreedySelector,
            &BalancedSelector,
            &AdaptiveSelector::default(),
        ] {
            let nodes = sel.select(&t, &s, &req).unwrap();
            assert!(nodes.iter().all(|n| n.0 >= 3), "{nodes:?}");
        }
        // And a request wider than the surviving capacity fails cleanly.
        let wide = AllocRequest::comm(JobId(2), 4);
        assert!(DefaultTreeSelector.select(&t, &s, &wide).is_err());
    }

    #[test]
    fn lifecycle_transition_errors_are_typed() {
        let t = tree();
        let mut s = ClusterState::new(&t);
        s.allocate(
            &t,
            JobId(1),
            ids(&t, &[NodeId(0)]),
            JobNature::ComputeIntensive,
        )
        .unwrap();
        // Busy node cannot be downed directly.
        assert_eq!(
            s.set_down(&t, NodeId(0)),
            Err(StateError::NodeBusy(NodeId(0)))
        );
        // Up node cannot be recovered.
        assert_eq!(
            s.set_up(&t, NodeId(1)),
            Err(StateError::NodeNotDown(NodeId(1)))
        );
        s.set_down(&t, NodeId(1)).unwrap();
        // Down node cannot be downed or drained again.
        assert_eq!(
            s.set_down(&t, NodeId(1)),
            Err(StateError::NodeDown(NodeId(1)))
        );
        assert_eq!(
            s.set_draining(&t, NodeId(1)),
            Err(StateError::NodeDown(NodeId(1)))
        );
        // Allocating over a down node reports NodeDown, not NodeBusy.
        assert_eq!(
            s.allocate(
                &t,
                JobId(2),
                ids(&t, &[NodeId(1)]),
                JobNature::ComputeIntensive
            ),
            Err(StateError::NodeDown(NodeId(1)))
        );
        s.check_invariants(&t).unwrap();
    }

    #[test]
    fn draining_busy_node_goes_down_on_release() {
        let t = tree();
        let mut s = ClusterState::new(&t);
        s.allocate(
            &t,
            JobId(1),
            ids(&t, &[NodeId(0), NodeId(1)]),
            JobNature::CommIntensive,
        )
        .unwrap();
        // Busy node: drain is deferred.
        assert_eq!(s.set_draining(&t, NodeId(0)), Ok(false));
        assert_eq!(s.health(NodeId(0)), NodeHealth::Draining);
        assert_eq!(s.draining_total(), 1);
        // Free node: drain is immediate.
        assert_eq!(s.set_draining(&t, NodeId(5)), Ok(true));
        assert_eq!(s.health(NodeId(5)), NodeHealth::Down);
        s.check_invariants(&t).unwrap();

        s.release(&t, JobId(1)).unwrap();
        assert_eq!(s.health(NodeId(0)), NodeHealth::Down);
        assert_eq!(s.health(NodeId(1)), NodeHealth::Up);
        assert!(s.is_free(NodeId(1)));
        assert_eq!(s.down_total(), 2);
        assert_eq!(s.draining_total(), 0);
        s.check_invariants(&t).unwrap();
    }

    #[test]
    fn recover_cancels_a_pending_drain() {
        let t = tree();
        let mut s = ClusterState::new(&t);
        s.allocate(
            &t,
            JobId(1),
            ids(&t, &[NodeId(0)]),
            JobNature::ComputeIntensive,
        )
        .unwrap();
        s.set_draining(&t, NodeId(0)).unwrap();
        s.set_up(&t, NodeId(0)).unwrap();
        assert_eq!(s.health(NodeId(0)), NodeHealth::Up);
        s.release(&t, JobId(1)).unwrap();
        assert!(s.is_free(NodeId(0)));
        assert_eq!(s, ClusterState::new(&t));
    }

    #[test]
    fn job_on_finds_the_unique_holder() {
        let t = tree();
        let mut s = ClusterState::new(&t);
        s.allocate(
            &t,
            JobId(9),
            ids(&t, &[NodeId(2), NodeId(3)]),
            JobNature::CommIntensive,
        )
        .unwrap();
        assert_eq!(s.job_on(NodeId(2)), Some(JobId(9)));
        assert_eq!(s.job_on(NodeId(3)), Some(JobId(9)));
        assert_eq!(s.job_on(NodeId(0)), None);
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;
        use rand::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(16))]

            /// Random interleavings of allocate/release/fail/recover/drain
            /// keep every incremental counter consistent, and draining the
            /// whole history returns the state to the full machine.
            #[test]
            fn counters_survive_random_churn(seed in any::<u64>()) {
                let t = Tree::irregular_two_level(&[3, 5, 2, 4]);
                let n = t.num_nodes();
                let mut s = ClusterState::new(&t);
                let mut rng = rand_chacha::ChaCha12Rng::seed_from_u64(seed);
                let mut live: Vec<JobId> = Vec::new();
                let mut next_id = 0u64;
                for step in 0..120 {
                    match rng.random_range(0..5) {
                        0 | 1 => {
                            // Allocate a small job on any free nodes.
                            let want = rng.random_range(1..=3usize);
                            let free: Vec<NodeId> = (0..n)
                                .map(NodeId)
                                .filter(|&x| s.is_free(x))
                                .collect();
                            if free.len() >= want {
                                let nodes = &free[..want];
                                let nature = if rng.random::<f64>() < 0.5 {
                                    JobNature::CommIntensive
                                } else {
                                    JobNature::ComputeIntensive
                                };
                                next_id += 1;
                                s.allocate(&t, JobId(next_id), ids(&t, nodes), nature).unwrap();
                                live.push(JobId(next_id));
                            }
                        }
                        2 => {
                            if !live.is_empty() {
                                let k = rng.random_range(0..live.len());
                                let id = live.remove(k);
                                s.release(&t, id).unwrap();
                            }
                        }
                        3 => {
                            let x = NodeId(rng.random_range(0..n));
                            if s.is_free(x) && s.health(x) == crate::NodeHealth::Up {
                                s.set_down(&t, x).unwrap();
                            } else if s.health(x) == crate::NodeHealth::Down {
                                s.set_up(&t, x).unwrap();
                            }
                        }
                        _ => {
                            let x = NodeId(rng.random_range(0..n));
                            if s.health(x) != crate::NodeHealth::Down {
                                s.set_draining(&t, x).unwrap();
                            }
                        }
                    }
                    if step % 10 == 0 {
                        prop_assert!(s.check_invariants(&t).is_ok());
                    }
                }
                s.check_invariants(&t).unwrap();
                // Drain the run: release every job, recover every node.
                for id in live {
                    s.release(&t, id).unwrap();
                }
                for x in (0..n).map(NodeId) {
                    if s.health(x) != crate::NodeHealth::Up {
                        s.set_up(&t, x).unwrap();
                    }
                }
                prop_assert_eq!(s.free_total(), n);
                prop_assert_eq!(s.down_total(), 0);
                prop_assert_eq!(s.draining_total(), 0);
                prop_assert_eq!(&s, &ClusterState::new(&t));
                prop_assert!(s.check_invariants(&t).is_ok());
            }
        }
    }
}

mod sa_properties {
    use super::*;
    use crate::sa::derive_seed;
    use crate::SaSelector;
    use proptest::prelude::*;
    use rand::prelude::*;
    use rand::SeedableRng;

    /// Random partially-occupied cluster over a random two-level tree
    /// (bigger leaves than the selector suite's scenario, so multi-leaf
    /// grants — the annealing move space — actually occur).
    fn sa_scenario(leaf_sizes: &[usize], occupancy_pct: u8, seed: u64) -> (Tree, ClusterState) {
        let tree = Tree::irregular_two_level(leaf_sizes);
        let mut st = ClusterState::new(&tree);
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
        let mut nodes: Vec<NodeId> = (0..tree.num_nodes()).map(NodeId).collect();
        nodes.shuffle(&mut rng);
        let busy = tree.num_nodes() * occupancy_pct as usize / 100;
        for (job, chunk) in nodes[..busy].chunks(3).enumerate() {
            let nature = if rng.random::<bool>() {
                JobNature::CommIntensive
            } else {
                JobNature::ComputeIntensive
            };
            st.allocate(&tree, JobId(1000 + job as u64), ids(&tree, chunk), nature)
                .unwrap();
        }
        (tree, st)
    }

    fn arb_leaf_sizes() -> impl Strategy<Value = Vec<usize>> {
        proptest::collection::vec(4usize..24, 2..8)
    }

    /// Eq. 6 hop-bytes of a placement through a fresh evaluator — the
    /// yardstick every guarantee below is measured with.
    fn hop_bytes_cost(
        tree: &Tree,
        st: &ClusterState,
        placement: &Placement,
        spec: &CollectiveSpec,
    ) -> f64 {
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

    proptest! {
        /// The same (tree, state, request, budget, seed) always yields the
        /// same decision — placement, scored candidates and search
        /// statistics — on one selector around an unrelated decision, and
        /// through a *fresh* selector: nothing carries between decisions.
        #[test]
        fn same_seed_same_placement(
            sizes in arb_leaf_sizes(),
            occ in 0u8..70,
            seed in any::<u64>(),
            sa_seed in any::<u64>(),
            want in 1usize..24,
            budget in 0u32..96,
        ) {
            let (tree, st) = sa_scenario(&sizes, occ, seed);
            prop_assume!(want <= st.free_total());
            let req = AllocRequest::comm(JobId(5), want)
                .with_pattern(CollectiveSpec::new(Pattern::Rhvd, 1 << 16));
            let sa = SaSelector::new(budget, sa_seed);
            let first = sa.decide(&tree, &st, &req).unwrap();
            let other = AllocRequest::comm(JobId(6), st.free_total())
                .with_pattern(CollectiveSpec::new(Pattern::Binomial, 1 << 12));
            sa.decide(&tree, &st, &other).unwrap();
            let replay = sa.decide(&tree, &st, &req).unwrap();
            prop_assert_eq!(&first, &replay, "same selector replays differently");
            let fresh = SaSelector::new(budget, sa_seed)
                .decide(&tree, &st, &req)
                .unwrap();
            prop_assert_eq!(&first, &fresh, "a fresh selector decides differently");
        }

        /// The returned placement never costs more than the adaptive
        /// incumbent, for every (tree, occupancy, budget) sample.
        #[test]
        fn final_cost_never_exceeds_incumbent(
            sizes in arb_leaf_sizes(),
            occ in 0u8..70,
            seed in any::<u64>(),
            sa_seed in any::<u64>(),
            want in 1usize..24,
            budget in 0u32..96,
        ) {
            let (tree, st) = sa_scenario(&sizes, occ, seed);
            prop_assume!(want <= st.free_total());
            let req = AllocRequest::comm(JobId(5), want)
                .with_pattern(CollectiveSpec::new(Pattern::Rd, 1 << 16));
            let spec = req.spec();
            let incumbent = AdaptiveSelector::default().select(&tree, &st, &req).unwrap();
            let refined = SaSelector::new(budget, sa_seed)
                .select(&tree, &st, &req)
                .unwrap();
            let cost_inc = hop_bytes_cost(&tree, &st, &incumbent, &spec);
            let cost_sa = hop_bytes_cost(&tree, &st, &refined, &spec);
            prop_assert!(
                cost_sa <= cost_inc,
                "sa@{} cost {} exceeds incumbent {}", budget, cost_sa, cost_inc
            );
        }

        /// Budget 0 is the adaptive placement bit-for-bit — same takes,
        /// same runs — for comm and compute jobs alike.
        #[test]
        fn budget_zero_is_adaptive_bit_for_bit(
            sizes in arb_leaf_sizes(),
            occ in 0u8..70,
            seed in any::<u64>(),
            sa_seed in any::<u64>(),
            want in 1usize..24,
            comm in any::<bool>(),
        ) {
            let (tree, st) = sa_scenario(&sizes, occ, seed);
            prop_assume!(want <= st.free_total());
            let req = if comm {
                AllocRequest::comm(JobId(5), want)
            } else {
                AllocRequest::compute(JobId(5), want)
            };
            let adaptive = AdaptiveSelector::default().select(&tree, &st, &req).unwrap();
            let sa = SaSelector::new(0, sa_seed)
                .select(&tree, &st, &req)
                .unwrap();
            prop_assert_eq!(adaptive, sa);
        }

        /// Under random node and switch fault churn the search still
        /// returns exactly N distinct free, healthy nodes — never a downed
        /// or masked one.
        #[test]
        fn valid_placement_under_fault_churn(
            sizes in arb_leaf_sizes(),
            occ in 0u8..50,
            seed in any::<u64>(),
            sa_seed in any::<u64>(),
            want in 1usize..16,
            downs in proptest::collection::vec(any::<u32>(), 0..12),
            down_leaf in any::<bool>(),
        ) {
            let (tree, mut st) = sa_scenario(&sizes, occ, seed);
            for d in downs {
                let n = NodeId(d as usize % tree.num_nodes());
                let _ = st.set_down(&tree, n);
            }
            if down_leaf {
                let _ = st.set_switch_down(&tree, tree.leaf(0));
            }
            st.check_invariants(&tree).unwrap();
            let req = AllocRequest::comm(JobId(5), want)
                .with_pattern(CollectiveSpec::new(Pattern::Rhvd, 1 << 16));
            let res = SaSelector::new(64, sa_seed)
                .select(&tree, &st, &req);
            if want > st.free_total() {
                prop_assert!(res.is_err());
            } else {
                let got = res.unwrap();
                prop_assert_eq!(got.check(&tree), Ok(()));
                prop_assert_eq!(got.len(), want);
                let mut uniq = got.nodes();
                uniq.dedup();
                prop_assert_eq!(uniq.len(), want, "duplicate nodes in placement");
                for n in got.iter() {
                    prop_assert!(st.is_free(n), "allocated busy/unavailable node {}", n);
                    prop_assert_eq!(
                        st.effective_health(&tree, n),
                        crate::NodeHealth::Up,
                        "allocated masked or unhealthy node {}", n
                    );
                }
            }
        }

        /// Scoring bare takes (what the annealing loop does to proposals
        /// it never resolves) is bit-identical to scoring the placement
        /// those takes resolve to, and to the naive `job_cost` on its ids —
        /// so the cost the search reports for its winner is the cost
        /// callers measure on the returned placement.
        #[test]
        fn take_scores_match_resolved_placements(
            sizes in arb_leaf_sizes(),
            occ in 0u8..70,
            seed in any::<u64>(),
            want in 1usize..24,
            logm in 10u32..22,
        ) {
            let (tree, st) = sa_scenario(&sizes, occ, seed);
            prop_assume!(want <= st.free_total());
            // A take vector over the leaves: greedily fill in ordinal order.
            let mut takes: Vec<(usize, u32)> = Vec::new();
            let mut nodes: Vec<NodeId> = Vec::new();
            let mut left = want;
            for k in 0..tree.num_leaves() {
                let free = st.leaf_free(k) as usize;
                let t = free.min(left);
                if t > 0 {
                    takes.push((k, t as u32));
                    nodes.extend(crate::select_scan::free_nodes_on_leaf(&tree, &st, k, t));
                    left -= t;
                }
            }
            prop_assert_eq!(left, 0);
            let resolved = Placement::from_takes(&tree, &st, takes.clone());
            prop_assert_eq!(&resolved, &ids(&tree, &nodes));
            let spec = CollectiveSpec::new(Pattern::Rhvd, 1u64 << logm);
            let mut eval = PlacementEvaluator::new();
            let d = CostModel::HOP_BYTES.trunk_discount;
            let bare = eval.evaluate_takes(&tree, &st, d, &takes, &spec);
            let placed = PlacementEvaluator::new().evaluate(&tree, &st, d, &resolved, &spec);
            prop_assert_eq!(bare.raw_hops.to_bits(), placed.raw_hops.to_bits());
            prop_assert_eq!(bare.hop_bytes.to_bits(), placed.hop_bytes.to_bits());
            let naive = reference_cost(&CostModel::HOP_BYTES, &tree, &st, &resolved, &spec);
            prop_assert_eq!(bare.hop_bytes.to_bits(), naive.to_bits());
        }

        /// The cost a search reports for its result is the cost of the
        /// placement it returns (there is no separate confirmation pass).
        #[test]
        fn reported_final_cost_is_the_returned_placements(
            sizes in arb_leaf_sizes(),
            occ in 0u8..70,
            seed in any::<u64>(),
            sa_seed in any::<u64>(),
            want in 2usize..24,
        ) {
            let (tree, st) = sa_scenario(&sizes, occ, seed);
            prop_assume!(want <= st.free_total());
            let req = AllocRequest::comm(JobId(5), want)
                .with_pattern(CollectiveSpec::new(Pattern::Rhvd, 1 << 16));
            let got = SaSelector::new(48, sa_seed)
                .decide(&tree, &st, &req)
                .unwrap();
            if let Some(stats) = got.search {
                let measured = hop_bytes_cost(&tree, &st, &got.placement, &req.spec());
                prop_assert_eq!(stats.cost_final.to_bits(), measured.to_bits());
                prop_assert!(stats.cost_final <= stats.cost_incumbent);
            }
        }

        /// Distinct (job, attempt) pairs derive distinct search seeds —
        /// requeued attempts explore a different neighbourhood.
        #[test]
        fn derived_seeds_distinct_across_attempts(
            run_seed in any::<u64>(),
            job in 0u64..1_000_000,
            a1 in 0u32..16,
            a2 in 0u32..16,
        ) {
            prop_assume!(a1 != a2);
            prop_assert_ne!(
                derive_seed(run_seed, JobId(job), a1),
                derive_seed(run_seed, JobId(job), a2)
            );
        }
    }

    /// Requeue regression (the per-job RNG must fold in the attempt): on a
    /// contended cluster the retry's annealing walk differs from the first
    /// try's — observable as a different proposal stream in the stats.
    #[test]
    fn requeued_attempt_explores_different_neighborhood() {
        let (tree, st) = sa_scenario(&[16, 16, 16, 16], 40, 11);
        let sa = SaSelector::new(64, 42);
        let req = AllocRequest::comm(JobId(9), 20)
            .with_pattern(CollectiveSpec::new(Pattern::Rhvd, 1 << 20));
        let first = sa.decide(&tree, &st, &req).unwrap();
        let stats_first = first.search.expect("search ran");
        let retry_req = AllocRequest { attempt: 1, ..req };
        let retry = sa.decide(&tree, &st, &retry_req).unwrap();
        let stats_retry = retry.search.expect("search ran");
        // Different seed, different walk: the accept/reject tallies (or
        // the placements themselves) must diverge.
        assert!(
            first.placement != retry.placement
                || (stats_first.accepted, stats_first.rejected)
                    != (stats_retry.accepted, stats_retry.rejected),
            "attempt 1 replayed attempt 0's search exactly"
        );
    }

    /// A search's statistics ride the decision it made: a placement that
    /// runs no search (compute job, zero budget) reports none, whatever
    /// the selector decided before.
    #[test]
    fn search_stats_are_fresh_per_select() {
        let (tree, st) = sa_scenario(&[16, 16, 16, 16], 40, 11);
        let spec = CollectiveSpec::new(Pattern::Rhvd, 1 << 20);
        let comm = AllocRequest::comm(JobId(9), 20).with_pattern(spec);
        let sa = SaSelector::new(64, 42);
        let decided = sa.decide(&tree, &st, &comm).unwrap();
        let searched = decided.search.expect("search ran");
        assert!(searched.evals <= 64, "spent past its budget");
        // A compute-intensive placement right after two searches runs no
        // search of its own, and reports none.
        sa.decide(&tree, &st, &comm).unwrap();
        let compute = AllocRequest::compute(JobId(10), 20).with_pattern(spec);
        assert_eq!(sa.decide(&tree, &st, &compute).unwrap().search, None);
        let sa0 = SaSelector::new(0, 42);
        assert_eq!(sa0.decide(&tree, &st, &comm).unwrap().search, None);
        // Selectors that never search never report one.
        let adaptive = AdaptiveSelector::default().decide(&tree, &st, &comm);
        assert_eq!(adaptive.unwrap().search, None);
    }
}

mod placement_currency {
    use super::*;
    use crate::state::Reference;
    use crate::NodeHealth;
    use commsched_topology::SwitchId;
    use proptest::prelude::*;
    use proptest::test_runner::TestCaseError;
    use rand::prelude::*;
    use rand::SeedableRng;

    /// Regression: a repeated id used to pass `allocate`'s validation loop
    /// (it checked `node_free` before any mutation, so the repeat still
    /// read "free"), return `Ok(())` in a release build and leave
    /// `leaf_free` one short — `check_invariants` then reported
    /// "leaf 0: counted 3 free, recorded 2". Now the explicit-id
    /// constructor refuses it with a typed error and nothing is touched.
    #[test]
    fn duplicate_nodes_are_refused_before_any_mutation() {
        let tree = figure2();
        assert_eq!(
            Placement::from_nodes(&tree, &[NodeId(0), NodeId(0)]),
            Err(StateError::DuplicateNode(NodeId(0)))
        );
        assert_eq!(
            Placement::from_nodes(&tree, &[NodeId(5), NodeId(2), NodeId(7), NodeId(5)]),
            Err(StateError::DuplicateNode(NodeId(5)))
        );
        assert!(StateError::DuplicateNode(NodeId(4))
            .to_string()
            .contains("node4"));

        // `allocate` defends itself too, should a malformed placement ever
        // reach it: words that repeat (the same bits, or other bits of the
        // same word) or descend, and words naming a busy or a down node
        // after free ones — refused, state bit-for-bit as before. Two
        // leaves of 64 nodes, one word each; node 70 is busy, node 100
        // down.
        let tree = Tree::regular_two_level(2, 64);
        let mut st = ClusterState::new(&tree);
        st.allocate(
            &tree,
            JobId(9),
            ids(&tree, &[NodeId(70)]),
            JobNature::CommIntensive,
        )
        .unwrap();
        st.set_down(&tree, NodeId(100)).unwrap();
        let untouched = st.clone();
        let cases: [(&[(usize, u64)], StateError); 5] = [
            (&[(0, 0b1), (0, 0b1)], StateError::DuplicateNode(NodeId(0))),
            (
                &[(0, 0b111), (0, 0b1100)],
                StateError::DuplicateNode(NodeId(2)),
            ),
            (
                &[(1, 0b11), (0, 0b11)],
                StateError::DuplicateNode(NodeId(0)),
            ),
            (
                &[(0, 0b1), (1, 0b1111_0000)],
                StateError::NodeBusy(NodeId(70)),
            ),
            (&[(0, 0b1), (1, 1 << 36)], StateError::NodeDown(NodeId(100))),
        ];
        for (words, want) in cases {
            let counts = words.iter().map(|&(w, m)| (w, m.count_ones()));
            let takes: Vec<(usize, u32)> = counts.fold(Vec::new(), |mut takes, (k, n)| {
                match takes.last_mut() {
                    Some((last, c)) if *last == k => *c += n,
                    _ => takes.push((k, n)),
                }
                takes
            });
            let bad = Placement::from_raw_parts(takes, words.to_vec());
            let got = st.allocate(&tree, JobId(1), &bad, JobNature::CommIntensive);
            assert_eq!(got, Err(want), "{words:?}");
            assert_eq!(st, untouched);
            st.check_invariants(&tree).unwrap();
        }
        assert_eq!(st.allocations().count(), 1);
    }

    /// (d) One node set reached through two leaf orders. Greedy walks the
    /// leaves by communication ratio (leaf 1 first, then leaf 0), balanced
    /// by free count (leaf 0 first, then leaf 1); both end up draining the
    /// same two leaves. As id lists in fill order the two differ, so the
    /// parent went to the cost comparison and kept balanced for a comm job
    /// (`cost_b <= cost_g` on equal costs) and greedy for a compute job —
    /// the same nodes either way. As placements they are equal outright.
    #[test]
    fn adaptive_tie_between_leaf_orders_keeps_the_node_set() {
        use crate::select_scan::{balanced_select, greedy_select};
        let tree = Tree::regular_two_level(3, 4);
        let mut st = ClusterState::new(&tree);
        // Leaf 0: one comm node busy (3 free, ratio 1.25). Leaf 1: two
        // compute nodes busy (2 free, ratio 0.5). Leaf 2: full.
        st.allocate(
            &tree,
            JobId(1),
            ids(&tree, &[NodeId(0)]),
            JobNature::CommIntensive,
        )
        .unwrap();
        st.allocate(
            &tree,
            JobId(2),
            ids(&tree, &[NodeId(4), NodeId(5)]),
            JobNature::ComputeIntensive,
        )
        .unwrap();
        st.allocate(
            &tree,
            JobId(3),
            ids(&tree, &[NodeId(8), NodeId(9), NodeId(10), NodeId(11)]),
            JobNature::ComputeIntensive,
        )
        .unwrap();

        let want = vec![NodeId(1), NodeId(2), NodeId(3), NodeId(6), NodeId(7)];
        for req in [
            AllocRequest::comm(JobId(4), 5),
            AllocRequest::compute(JobId(4), 5),
        ] {
            // The premise: the fill orders differ, the sets do not. (A
            // compute job's greedy walk is reversed, so the two orders
            // coincide there — the tie is the comm case; the compute case
            // pins that nothing else changed.)
            let scan_g = greedy_select(&tree, &st, &req).unwrap();
            let scan_b = balanced_select(&tree, &st, &req).unwrap();
            if req.nature.is_comm() {
                assert_ne!(scan_g, scan_b, "test requires two fill orders");
                assert_eq!(scan_g[0], NodeId(6));
                assert_eq!(scan_b[0], NodeId(1));
            }
            let greedy = GreedySelector.select(&tree, &st, &req).unwrap();
            let balanced = BalancedSelector.select(&tree, &st, &req).unwrap();
            assert_eq!(greedy, balanced, "one set, one placement");
            assert_eq!(greedy.takes(), [(0, 3), (1, 2)]);

            // The parent's outcome: its adaptive rule over the id lists.
            let mut parent = if scan_g == scan_b {
                scan_b
            } else {
                let spec = req.spec();
                let m = CostModel::HOP_BYTES;
                let cg = reference_cost(&m, &tree, &st, &ids(&tree, &scan_g), &spec);
                let cb = reference_cost(&m, &tree, &st, &ids(&tree, &scan_b), &spec);
                assert_eq!(cg.to_bits(), cb.to_bits(), "one set, one cost");
                let take_balanced = if req.nature.is_comm() {
                    cb <= cg
                } else {
                    cb > cg
                };
                if take_balanced {
                    scan_b
                } else {
                    scan_g
                }
            };
            parent.sort_unstable();
            assert_eq!(parent, want);

            let adaptive = AdaptiveSelector::default()
                .select(&tree, &st, &req)
                .unwrap();
            assert_eq!(adaptive.nodes(), want);
            let sa0 = crate::SaSelector::new(0, 3)
                .select(&tree, &st, &req)
                .unwrap();
            assert_eq!(sa0, adaptive);
        }
    }

    /// The reference model and the state under test, driven in lockstep.
    struct Lockstep<'t> {
        tree: &'t Tree,
        fast: ClusterState,
        model: Reference,
    }

    impl Lockstep<'_> {
        /// After every operation: same result, same state, invariants hold.
        fn settle<T: PartialEq + std::fmt::Debug>(
            &self,
            what: &str,
            fast: Result<T, StateError>,
            model: Result<T, StateError>,
        ) -> Result<bool, TestCaseError> {
            prop_assert_eq!(&fast, &model, "{}: results differ", what);
            prop_assert!(self.fast == self.model.state, "{}: states differ", what);
            if let Err(e) = self.fast.check_invariants(self.tree) {
                return Err(TestCaseError::fail(format!("{what}: {e}")));
            }
            Ok(fast.is_ok())
        }

        fn allocate(
            &mut self,
            job: JobId,
            nodes: &[NodeId],
            nature: JobNature,
        ) -> Result<bool, TestCaseError> {
            let placement = ids(self.tree, nodes);
            let fast = self.fast.allocate(self.tree, job, &placement, nature);
            let model = self.model.ref_allocate(self.tree, job, nodes, nature);
            self.settle(&format!("allocate {job} {nodes:?}"), fast, model)
        }

        fn release(&mut self, job: JobId) -> Result<bool, TestCaseError> {
            let fast = self.fast.release(self.tree, job);
            let model = self.model.ref_release(self.tree, job);
            self.settle(&format!("release {job}"), fast, model)
        }

        fn set_down(&mut self, n: NodeId) -> Result<bool, TestCaseError> {
            let fast = self.fast.set_down(self.tree, n);
            let model = self.model.ref_set_down(self.tree, n);
            self.settle(&format!("set_down {n}"), fast, model)
        }

        fn set_up(&mut self, n: NodeId) -> Result<bool, TestCaseError> {
            let fast = self.fast.set_up(self.tree, n);
            let model = self.model.ref_set_up(self.tree, n);
            self.settle(&format!("set_up {n}"), fast, model)
        }

        fn set_draining(&mut self, n: NodeId) -> Result<bool, TestCaseError> {
            let fast = self.fast.set_draining(self.tree, n);
            let model = self.model.ref_set_draining(self.tree, n);
            self.settle(&format!("set_draining {n}"), fast, model)
        }

        fn set_switch_down(&mut self, s: SwitchId) -> Result<bool, TestCaseError> {
            let fast = self.fast.set_switch_down(self.tree, s);
            let model = self.model.ref_set_switch_down(self.tree, s);
            self.settle(&format!("set_switch_down {s}"), fast, model)
        }

        fn set_switch_up(&mut self, s: SwitchId) -> Result<bool, TestCaseError> {
            let fast = self.fast.set_switch_up(self.tree, s);
            let model = self.model.ref_set_switch_up(self.tree, s);
            self.settle(&format!("set_switch_up {s}"), fast, model)
        }
    }

    /// (c) Random allocate / release / set_down / set_up / set_draining /
    /// set_switch_down / set_switch_up sequences — refused operations
    /// included — against the per-node reference. The ratio order is read,
    /// and so built, before step `build_at`: `check_invariants` holds it
    /// to a from-scratch build at that step and after every step that
    /// follows.
    fn drive_against_reference(
        tree: &Tree,
        seed: u64,
        steps: usize,
        build_at: usize,
    ) -> Result<(), TestCaseError> {
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
        let mut both = Lockstep {
            tree,
            fast: ClusterState::new(tree),
            model: Reference::new(tree),
        };
        let mut live: Vec<JobId> = Vec::new();
        let mut next = 0u64;
        for step in 0..steps {
            prop_assert_eq!(both.fast.index().ratio_built(), step > build_at);
            if step == build_at {
                let free = both.fast.leaves_by_ratio(tree, tree.root()).asc().count();
                let want = (0..tree.num_leaves()).filter(|&k| both.fast.leaf_free(k) > 0);
                prop_assert_eq!(free, want.count());
                both.fast
                    .check_invariants(tree)
                    .map_err(TestCaseError::fail)?;
            }
            let n = NodeId(rng.random_range(0..tree.num_nodes()));
            let s = SwitchId(rng.random_range(0..tree.num_switches()));
            match rng.random_range(0..12u8) {
                0..=3 => {
                    // A scattered set of free nodes (fragmented takes, many
                    // runs), sometimes with one unavailable node mixed in
                    // so the refusal path is compared too.
                    let mut free: Vec<NodeId> = (0..tree.num_nodes())
                        .map(NodeId)
                        .filter(|&x| both.fast.is_free(x))
                        .collect();
                    free.shuffle(&mut rng);
                    free.truncate(rng.random_range(0..=9usize));
                    if rng.random_range(0..6u8) == 0 && !both.fast.is_free(n) {
                        free.push(n);
                    }
                    let nature = if rng.random::<bool>() {
                        JobNature::CommIntensive
                    } else {
                        JobNature::ComputeIntensive
                    };
                    // Now and then under an id already in use.
                    let job = match live.first() {
                        Some(&held) if rng.random_range(0..10u8) == 0 => held,
                        _ => JobId(next),
                    };
                    if both.allocate(job, &free, nature)? {
                        live.push(job);
                        next += 1;
                    }
                }
                4 | 5 => {
                    // Mostly a live job, sometimes one that does not exist.
                    let job = if live.is_empty() || rng.random_range(0..8u8) == 0 {
                        JobId(next + 100)
                    } else {
                        live.swap_remove(rng.random_range(0..live.len()))
                    };
                    both.release(job)?;
                }
                6 => drop(both.set_down(n)?),
                7 => drop(both.set_up(n)?),
                8 | 9 => drop(both.set_draining(n)?),
                10 => {
                    // The engine's protocol: kill what runs under the
                    // switch, then fail it — but try the refused call too.
                    if rng.random::<bool>() {
                        let under = tree.leaf_ordinals_under(s);
                        let victims: Vec<JobId> = both
                            .fast
                            .allocations()
                            .filter(|(_, a)| a.nodes.takes().iter().any(|(k, _)| under.contains(k)))
                            .map(|(j, _)| j)
                            .collect();
                        for v in victims {
                            both.release(v)?;
                            live.retain(|&j| j != v);
                        }
                    }
                    both.set_switch_down(s)?;
                }
                _ => drop(both.set_switch_up(s)?),
            }
        }
        // Unwind: everything released and recovered is a fresh machine.
        for job in live {
            both.release(job)?;
        }
        for id in 0..tree.num_switches() {
            if both.fast.switch_is_down(SwitchId(id)) {
                both.set_switch_up(SwitchId(id))?;
            }
        }
        for x in (0..tree.num_nodes()).map(NodeId) {
            if both.fast.health(x) != NodeHealth::Up {
                both.set_up(x)?;
            }
        }
        prop_assert!(both.fast == ClusterState::new(tree));
        Ok(())
    }

    /// The case the random walk only sometimes hits, pinned: one release
    /// whose multi-node leaf take holds draining nodes next to healthy
    /// ones, beside a take with none and a take that drains entirely.
    #[test]
    fn release_splits_a_take_with_draining_nodes() {
        let tree = Tree::regular_two_level(3, 5);
        let mut both = Lockstep {
            tree: &tree,
            fast: ClusterState::new(&tree),
            model: Reference::new(&tree),
        };
        let held: Vec<NodeId> = [0, 1, 3, 4, 6, 7, 10, 12].map(NodeId).to_vec();
        both.allocate(JobId(1), &held, JobNature::CommIntensive)
            .unwrap();
        both.allocate(JobId(2), &[NodeId(2)], JobNature::ComputeIntensive)
            .unwrap();
        // Leaf 0's take of four: two draining. Leaf 1's take of two: none.
        // Leaf 2's take of two: both. And a bystander job's node.
        for n in [1, 4, 10, 12, 2] {
            both.set_draining(NodeId(n)).unwrap();
        }
        assert_eq!(both.fast.draining_total(), 5);
        let held = both.fast.allocations().find(|a| a.0 == JobId(1));
        let freed = held.unwrap().1.nodes.clone();
        assert_eq!(freed.takes(), [(0, 4), (1, 2), (2, 2)]);

        both.release(JobId(1)).unwrap();
        let st = &both.fast;
        assert_eq!(
            (st.leaf_free(0), st.leaf_busy(0), st.leaf_down(0)),
            (2, 1, 2)
        );
        assert_eq!(
            (st.leaf_free(1), st.leaf_busy(1), st.leaf_down(1)),
            (5, 0, 0)
        );
        assert_eq!(
            (st.leaf_free(2), st.leaf_busy(2), st.leaf_down(2)),
            (3, 0, 2)
        );
        assert_eq!(st.leaf_comm(0), 0);
        assert_eq!(st.draining_total(), 1);
        assert_eq!(st.down_total(), 4);
        assert_eq!(st.free_total(), 10);
        assert_eq!(st.subtree_free(&tree, tree.root()), 10);
        for n in [1, 4, 10, 12] {
            assert_eq!(st.health(NodeId(n)), NodeHealth::Down);
            assert!(!st.is_free(NodeId(n)));
        }
        for n in [0, 3, 6, 7] {
            assert!(st.is_free(NodeId(n)));
        }
        assert_eq!(st.health(NodeId(2)), NodeHealth::Draining);
    }

    /// Masking nests per leaf: under a down leaf switch *and* its down
    /// parent the leaf's nodes return only with the second recovery,
    /// whichever order the two come back in, and an intrinsic failure
    /// recorded meanwhile survives both.
    #[test]
    fn nested_down_switches_recover_in_either_order() {
        let tree = Tree::regular_three_level(2, 2, 4);
        let leaf = tree.leaf(0);
        let parent = tree.switch(leaf).parent.expect("a leaf below a spine");
        for order in [[leaf, parent], [parent, leaf]] {
            let mut both = Lockstep {
                tree: &tree,
                fast: ClusterState::new(&tree),
                model: Reference::new(&tree),
            };
            both.set_switch_down(parent).unwrap();
            both.set_switch_down(leaf).unwrap();
            both.set_down(NodeId(1)).unwrap();
            assert_eq!(both.fast.leaf_free(0), 0);
            assert_eq!(both.fast.leaf_down(0), 4);

            both.set_switch_up(order[0]).unwrap();
            assert_eq!(both.fast.leaf_free(0), 0, "one mask is still on");
            assert_eq!(
                both.fast.effective_health(&tree, NodeId(0)),
                NodeHealth::Down
            );
            both.set_switch_up(order[1]).unwrap();
            assert_eq!(both.fast.leaf_free(0), 3);
            assert_eq!(both.fast.leaf_down(0), 1);
            assert!(!both.fast.is_free(NodeId(1)) && both.fast.is_free(NodeId(0)));
            assert_eq!(both.fast.free_total(), tree.num_nodes() - 1);
        }
    }

    /// Whole leaves `ks`, their nodes in id order.
    fn leaves(tree: &Tree, ks: &[usize]) -> Vec<NodeId> {
        ks.iter()
            .flat_map(|&k| tree.leaf_node_range(k).map(NodeId))
            .collect()
    }

    /// Level-1 set lookups `step` makes: one per run of sibling leaves
    /// that leaves or enters the set, two per run that moves within it.
    fn level1_lookups(
        both: &mut Lockstep,
        step: impl FnOnce(&mut Lockstep) -> Result<bool, TestCaseError>,
    ) -> u64 {
        let before = set_stats(both.fast.index())[0].3;
        assert!(step(both).unwrap(), "the step is refused");
        set_stats(both.fast.index())[0].3 - before
    }

    /// On a uniform three-level tree, allocating and releasing `m`
    /// consecutive whole leaves of one group costs the same key-map
    /// lookups in every set whatever `m` is: one bucket per leaf-wide set
    /// and direction, one walk up the group's ancestors. The ratio order's
    /// set is counted only once it is built: first without a read, then
    /// with one before the allocation.
    #[test]
    fn a_run_of_sibling_leaves_costs_one_lookup_per_set() {
        let tree = Tree::regular_three_level(2, 8, 4);
        let g = tree.switch(tree.leaf(0)).parent.unwrap();
        let height = tree.height() as usize;
        for read in [false, true] {
            let mut per_set = Vec::new();
            for m in 1..8 {
                let mut st = ClusterState::new(&tree);
                if read {
                    assert_eq!(st.leaves_by_ratio(&tree, g).asc().count(), 8);
                }
                let lookups =
                    |st: &ClusterState| set_stats(st.index()).iter().map(|s| s.3).collect();
                let before: Vec<u64> = lookups(&st);
                let placement = ids(&tree, &leaves(&tree, &(0..m).collect::<Vec<_>>()));
                st.allocate(&tree, JobId(1), &placement, JobNature::CommIntensive)
                    .unwrap();
                st.release(&tree, JobId(1)).unwrap();
                st.check_invariants(&tree).unwrap();
                let after: Vec<u64> = lookups(&st);
                let delta: Vec<u64> = after.iter().zip(&before).map(|(a, b)| a - b).collect();
                // The level-1 set and the ratio order's: out, then back in.
                let mut sets = vec![0];
                if read {
                    sets.push(height);
                }
                for set in sets {
                    assert_eq!(delta[set], 2, "m = {m}, set {set}: {delta:?}");
                }
                assert_eq!(delta.len(), height + usize::from(read), "m = {m}");
                assert_eq!(st.index().ratio_built(), read);
                per_set.push(delta);
            }
            assert!(per_set.windows(2).all(|w| w[0] == w[1]), "{per_set:?}");
        }
    }

    /// The ratio order is built through a shared reference, and the state
    /// stays shareable across threads.
    #[test]
    fn cluster_state_is_send_and_sync() {
        fn shareable<T: Send + Sync>() {}
        shareable::<ClusterState>();
    }

    /// Only the greedy fill reads the ratio order: default and balanced
    /// placements, releases and every fault path leave it unbuilt, so none
    /// of them computes a ratio key; the first greedy read builds it, and
    /// `reset` drops it again.
    #[test]
    fn default_and_balanced_runs_never_build_the_ratio_order() {
        let tree = Tree::regular_three_level(2, 4, 4);
        let mut st = ClusterState::new(&tree);
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(7);
        let mut live = Vec::new();
        for j in 0..200u64 {
            let n = NodeId(rng.random_range(0..tree.num_nodes()));
            match rng.random_range(0..8u8) {
                0 | 1 if !live.is_empty() => {
                    let job = live.swap_remove(rng.random_range(0..live.len()));
                    st.release(&tree, job).unwrap();
                }
                2 => {
                    let _ = st.set_draining(&tree, n);
                }
                3 => {
                    let _ = st.set_up(&tree, n);
                }
                4 => {
                    let s = SwitchId(rng.random_range(0..tree.num_switches()));
                    let _ = st
                        .set_switch_down(&tree, s)
                        .or_else(|_| st.set_switch_up(&tree, s));
                }
                _ if st.free_total() > 0 => {
                    let want = rng.random_range(1..=st.free_total().min(12));
                    let req = if j % 2 == 0 {
                        AllocRequest::comm(JobId(j), want)
                    } else {
                        AllocRequest::compute(JobId(j), want)
                    };
                    let selector: &dyn NodeSelector = if j % 3 == 0 {
                        &BalancedSelector
                    } else {
                        &DefaultTreeSelector
                    };
                    let placement = selector.select(&tree, &st, &req).unwrap();
                    st.allocate(&tree, JobId(j), placement, req.nature).unwrap();
                    live.push(JobId(j));
                }
                _ => {}
            }
            assert!(!st.index().ratio_built(), "step {j}");
        }
        st.check_invariants(&tree).unwrap();
        // A greedy request wider than a leaf reads the order.
        st.reset(&tree);
        let req = AllocRequest::comm(JobId(1000), 6);
        GreedySelector.select(&tree, &st, &req).unwrap();
        assert!(st.index().ratio_built());
        st.check_invariants(&tree).unwrap();
        st.reset(&tree);
        assert!(!st.index().ratio_built());
    }

    /// A take of 64 free nodes on a leaf whose every other node is busy
    /// resolves to one `(word, mask)` entry per word its picks span: two
    /// on a leaf that starts on a word edge, three on one that starts
    /// mid-word (as id runs it was 64 runs of one node). `allocate` and
    /// `release` each read and write exactly those words.
    #[test]
    fn a_fragmented_take_costs_a_word_entry_per_word() {
        // Leaf 0 is nodes 0..160, leaf 1 nodes 160..360 (word 2, bit 32).
        let tree = Tree::irregular_two_level(&[160, 200]);
        let mut st = ClusterState::new(&tree);
        let odd: Vec<NodeId> = (0..tree.num_nodes())
            .filter(|i| i % 2 == 1)
            .map(NodeId)
            .collect();
        st.allocate(
            &tree,
            JobId(0),
            ids(&tree, &odd),
            JobNature::ComputeIntensive,
        )
        .unwrap();
        for (k, words, first) in [(0, 2, 0), (1, 3, 160)] {
            let take = Placement::from_takes(&tree, &st, vec![(k, 64)]);
            let want: Vec<NodeId> = (0..64).map(|i| NodeId(first + 2 * i)).collect();
            assert_eq!(take.nodes(), want);
            assert_eq!(take.words().len(), words, "leaf {k}");
            let before = st.tally();
            st.allocate(&tree, JobId(1), take, JobNature::CommIntensive)
                .unwrap();
            st.release(&tree, JobId(1)).unwrap();
            let after = st.tally();
            assert_eq!(after.word_entries - before.word_entries, 2 * words);
            assert_eq!(after.words_written - before.words_written, 2 * words);
            st.check_invariants(&tree).unwrap();
        }
    }

    /// Once the ratio order is built it holds each leaf's current Eq. 1
    /// key, so a flushed run of leaves computes only its new key: on a
    /// greedy churn over Intrepid every allocation and release evaluates
    /// Eq. 1 once per flushed run, where it evaluated it twice.
    #[test]
    fn a_flush_computes_one_ratio_key_per_run() {
        use crate::state::RATIO_EVALS;
        let tree = commsched_topology::SystemPreset::Intrepid.build();
        let mut st = ClusterState::new(&tree);
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(11);
        let mut live = std::collections::VecDeque::new();
        let (mut evals, mut runs) = (0, 0);
        for j in 0..200u64 {
            let want = rng.random_range(1..=4096usize);
            let mut counted = |st: &mut ClusterState, step: &mut dyn FnMut(&mut ClusterState)| {
                let before = (RATIO_EVALS.get(), st.tally().ratio_runs);
                step(st);
                evals += RATIO_EVALS.get() - before.0;
                runs += st.tally().ratio_runs - before.1;
            };
            while st.free_total() < want {
                let job = live.pop_front().unwrap();
                counted(&mut st, &mut |st| drop(st.release(&tree, job).unwrap()));
            }
            let req = if rng.random::<bool>() {
                AllocRequest::comm(JobId(j), want)
            } else {
                AllocRequest::compute(JobId(j), want)
            };
            let placement = GreedySelector.select(&tree, &st, &req).unwrap();
            assert!(st.index().ratio_built());
            counted(&mut st, &mut |st| {
                st.allocate(&tree, JobId(j), &placement, req.nature)
                    .unwrap()
            });
            live.push_back(JobId(j));
        }
        st.check_invariants(&tree).unwrap();
        assert_eq!(evals, runs);
        assert_eq!(runs, 3505);
    }

    /// A run ends wherever the next take is not the next sibling making
    /// the same move: a gap, a group boundary, a leaf of another size, a
    /// partial take, a draining node and a switch-masked leaf. Each step is
    /// held to the per-node reference and `check_invariants` (the index
    /// against a rebuild); the lookups count the runs.
    #[test]
    fn runs_break_where_siblings_differ() {
        let tree = Tree::regular_three_level(2, 6, 4);
        let fresh = |tree| Lockstep {
            tree,
            fast: ClusterState::new(tree),
            model: Reference::new(tree),
        };
        let comm = JobNature::CommIntensive;
        let cases: [(&[usize], u64); 2] = [(&[0, 1, 3, 4], 2), (&[4, 5, 6, 7], 2)];
        for (ks, runs) in cases {
            let mut both = fresh(&tree);
            let nodes = leaves(&tree, ks);
            let n = level1_lookups(&mut both, |b| b.allocate(JobId(1), &nodes, comm));
            assert_eq!(n, runs, "allocate {ks:?}");
            let n = level1_lookups(&mut both, |b| b.release(JobId(1)));
            assert_eq!(n, runs, "release {ks:?}");
        }

        // Leaf 2 is one node short of its siblings under group `a`.
        let mixed = Tree::from_conf(
            "SwitchName=s0 Nodes=n[0-3]\n\
             SwitchName=s1 Nodes=n[4-7]\n\
             SwitchName=s2 Nodes=n[8-10]\n\
             SwitchName=s3 Nodes=n[11-14]\n\
             SwitchName=s4 Nodes=n[15-18]\n\
             SwitchName=a Switches=s[0-3]\n\
             SwitchName=b Switches=s4\n\
             SwitchName=r Switches=a,b\n",
        )
        .unwrap();
        let mut both = fresh(&mixed);
        let nodes = leaves(&mixed, &[0, 1, 2, 3]);
        let n = level1_lookups(&mut both, |b| b.allocate(JobId(1), &nodes, comm));
        assert_eq!(n, 3, "[0, 1], [2], [3]");
        let n = level1_lookups(&mut both, |b| b.release(JobId(1)));
        assert_eq!(n, 3);
        // With one node of leaf 1 down, leaves 1 and 2 make the same
        // counter move: only their sizes tell their ratio keys apart.
        assert!(both.set_down(NodeId(7)).unwrap());
        let nodes = [4, 5, 6, 8, 9, 10].map(NodeId);
        let n = level1_lookups(&mut both, |b| b.allocate(JobId(2), &nodes, comm));
        assert_eq!(n, 2, "[1], [2]");

        // Half of leaf 1 between whole leaves: it stays in the set under a
        // new key.
        let mut both = fresh(&tree);
        let mut nodes = leaves(&tree, &[0, 2]);
        nodes.extend([4, 5].map(NodeId));
        nodes.sort_unstable();
        let n = level1_lookups(&mut both, |b| b.allocate(JobId(1), &nodes, comm));
        assert_eq!(n, 1 + 2 + 1);

        // A draining node in leaf 2 of a whole-leaf run: its take splits
        // into three freed nodes and one that goes down in place.
        let mut both = fresh(&tree);
        let nodes = leaves(&tree, &[0, 1, 2, 3]);
        let n = level1_lookups(&mut both, |b| b.allocate(JobId(1), &nodes, comm));
        assert_eq!(n, 1);
        assert!(both.set_draining(NodeId(9)).unwrap());
        assert_eq!(both.fast.draining_total(), 1);
        let n = level1_lookups(&mut both, |b| b.release(JobId(1)));
        assert_eq!(n, 3, "[0, 1], [2] freed, [2] down (no move), [3]");

        // Leaf 2 masked by its own switch: the group going down and up
        // skips it, and a whole-leaf allocation around it is two runs.
        let mut both = fresh(&tree);
        assert!(both.set_switch_down(tree.leaf(2)).unwrap());
        let g = tree.switch(tree.leaf(0)).parent.unwrap();
        let n = level1_lookups(&mut both, |b| b.set_switch_down(g));
        assert_eq!(n, 2, "[0, 1], [3, 4, 5]");
        let n = level1_lookups(&mut both, |b| b.set_switch_up(g));
        assert_eq!(n, 2);
        let nodes = leaves(&tree, &[0, 1, 3]);
        let n = level1_lookups(&mut both, |b| b.allocate(JobId(1), &nodes, comm));
        assert_eq!(n, 2);
        assert!(both.release(JobId(1)).unwrap());
        assert!(both.set_switch_up(tree.leaf(2)).unwrap());
        assert!(both.fast == ClusterState::new(&tree));
    }

    proptest! {
        #[test]
        fn state_matches_per_node_reference(
            sizes in proptest::collection::vec(1usize..9, 2..7),
            seed in any::<u64>(),
            build_at in 0usize..100,
        ) {
            let tree = Tree::irregular_two_level(&sizes);
            drive_against_reference(&tree, seed, 80, build_at)?;
        }

        #[test]
        fn state_matches_per_node_reference_three_level(
            spines in 2usize..4,
            leaves in 2usize..4,
            nodes_per_leaf in 1usize..6,
            seed in any::<u64>(),
            build_at in 0usize..100,
        ) {
            let tree = Tree::regular_three_level(spines, leaves, nodes_per_leaf);
            drive_against_reference(&tree, seed, 80, build_at)?;
        }

        /// (e) A placement survives the trip through its own node list,
        /// its takes and its words add up to its length, and membership
        /// agrees with the list.
        #[test]
        fn placement_round_trips(
            sizes in proptest::collection::vec(1usize..12, 1..8),
            seed in any::<u64>(),
            pct in 0u8..=100,
        ) {
            let tree = Tree::irregular_two_level(&sizes);
            let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
            let mut picked: Vec<NodeId> = (0..tree.num_nodes())
                .map(NodeId)
                .filter(|_| rng.random_range(0..100u8) < pct)
                .collect();
            let sorted = picked.clone();
            picked.shuffle(&mut rng);

            let p = Placement::from_nodes(&tree, &picked).unwrap();
            prop_assert_eq!(p.check(&tree), Ok(()));
            prop_assert_eq!(p.nodes(), sorted.clone());
            prop_assert_eq!(&Placement::from_nodes(&tree, &p.nodes()).unwrap(), &p);
            prop_assert_eq!(p.len(), sorted.len());
            prop_assert_eq!(p.is_empty(), sorted.is_empty());
            prop_assert_eq!(p.takes().iter().map(|t| t.1 as usize).sum::<usize>(), p.len());
            let bits = p.words().iter().map(|w| w.1.count_ones() as usize);
            prop_assert_eq!(bits.sum::<usize>(), p.len());
            prop_assert_eq!(p.iter().count(), p.len());
            for n in (0..tree.num_nodes()).map(NodeId) {
                prop_assert_eq!(p.contains(n), sorted.binary_search(&n).is_ok());
            }

            // Selector-built placements (takes resolved against the free
            // bits of an occupied state) round-trip the same way.
            let mut st = ClusterState::new(&tree);
            if !p.is_empty() {
                st.allocate(&tree, JobId(1), &p, JobNature::CommIntensive).unwrap();
            }
            if st.free_total() > 0 {
                let want = rng.random_range(1..=st.free_total());
                for kind in SelectorKind::ALL {
                    let q = kind
                        .build()
                        .select(&tree, &st, &AllocRequest::comm(JobId(2), want))
                        .unwrap();
                    prop_assert_eq!(q.check(&tree), Ok(()));
                    prop_assert_eq!(&Placement::from_nodes(&tree, &q.nodes()).unwrap(), &q);
                    prop_assert_eq!(q.len(), want);
                }
            }
            // And what `release` hands back is what `allocate` was given.
            if !p.is_empty() {
                prop_assert_eq!(st.release(&tree, JobId(1)).unwrap().nodes, p);
            }
        }
    }
}

mod free_bits {
    //! The packed free bits (`state/bits.rs`) against a plain `Vec<bool>`,
    //! driven in lockstep over lengths on both sides of a word edge.
    use crate::state::FreeBits;
    use proptest::prelude::*;
    use proptest::test_runner::TestCaseError;
    use rand::prelude::*;
    use rand::SeedableRng;
    use std::ops::Range;

    /// The model's answer: the first `want` set bits of `range`.
    fn model_pick(model: &[bool], range: Range<usize>, want: u32) -> Vec<usize> {
        range.filter(|&i| model[i]).take(want as usize).collect()
    }

    /// `pick`'s answer as bits, after checking its entries' form: word
    /// indices strictly ascending, masks non-zero, and a word `out`
    /// already ends with (the bits below a mid-word `range`, standing for
    /// the leaf before) merged into rather than repeated.
    fn pick(bits: &FreeBits, range: Range<usize>, want: u32) -> Result<Vec<usize>, TestCaseError> {
        let (w0, below) = (range.start / 64, (1u64 << (range.start % 64)) - 1);
        let mut out = if below == 0 {
            vec![]
        } else {
            vec![(w0, below)]
        };
        bits.pick(range, want, &mut out);
        prop_assert!(out.windows(2).all(|w| w[0].0 < w[1].0), "{:?}", out);
        prop_assert!(out.iter().all(|&(_, m)| m != 0), "{:?}", out);
        if below != 0 {
            prop_assert_eq!(out[0].1 & below, below);
            out[0].1 &= !below;
        }
        let ones = out.iter().flat_map(|&(w, m)| {
            (0..64)
                .filter(move |b| m >> b & 1 == 1)
                .map(move |b| w * 64 + b)
        });
        Ok(ones.collect())
    }

    /// A range bound, half the time within one of a word edge.
    fn bound(rng: &mut impl Rng, len: usize) -> usize {
        if rng.random::<bool>() {
            let edge = rng.random_range(0..=len / 64) * 64;
            (edge + rng.random_range(0..3usize))
                .saturating_sub(1)
                .min(len)
        } else {
            rng.random_range(0..=len)
        }
    }

    fn range(rng: &mut impl Rng, len: usize) -> Range<usize> {
        let (a, b) = (bound(rng, len), bound(rng, len));
        a.min(b)..a.max(b)
    }

    fn drive(len: usize, seed: u64, steps: usize) -> Result<(), TestCaseError> {
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
        let init = rng.random::<bool>();
        let mut bits = FreeBits::default();
        bits.reset(len, init);
        let mut model = vec![init; len];
        for _ in 0..steps {
            let r = range(&mut rng, len);
            match rng.random_range(0..6u8) {
                0 | 1 => {
                    let v = rng.random::<bool>();
                    bits.fill(r.clone(), v);
                    model[r].fill(v);
                }
                2 => {
                    let (i, v) = (rng.random_range(0..len), rng.random::<bool>());
                    bits.set(i, v);
                    model[i] = v;
                }
                3 => {
                    // One word's bits, as a placement entry writes them.
                    let w = rng.random_range(0..len.div_ceil(64));
                    let valid = (0..64).filter(|b| w * 64 + b < len);
                    let mask = valid.fold(0u64, |m, b| m | u64::from(rng.random::<bool>()) << b);
                    let v = rng.random::<bool>();
                    bits.fill_word(w, mask, v);
                    for b in (0..64).filter(|b| mask >> b & 1 == 1) {
                        model[w * 64 + b] = v;
                    }
                    let want = (0..64).filter(|b| w * 64 + b < len && model[w * 64 + b]);
                    let word = want.fold(0u64, |m, b| m | 1 << b);
                    prop_assert_eq!(bits.word(w), word, "word {}", w);
                }
                4 => {
                    // Up to one more than the range holds, so "all of them"
                    // and "stop mid-word" both come up.
                    let want = rng.random_range(0..=r.len() as u32 + 1);
                    prop_assert_eq!(
                        pick(&bits, r.clone(), want)?,
                        model_pick(&model, r.clone(), want),
                        "pick {:?} want {}",
                        r,
                        want
                    );
                }
                _ => prop_assert_eq!(
                    bits.count_ones(r.clone()),
                    model[r.clone()].iter().filter(|&&b| b).count(),
                    "count_ones {:?}",
                    r
                ),
            }
            // Built bit by bit, so no word or mask arithmetic is shared:
            // a stray bit past `len` shows here.
            prop_assert!(bits == FreeBits::from_bools(&model));
        }
        for (i, &b) in model.iter().enumerate() {
            prop_assert_eq!(bits.get(i), b, "bit {}", i);
        }
        prop_assert_eq!(bits.len(), len);
        Ok(())
    }

    proptest! {
        #[test]
        fn free_bits_match_a_bool_vector(
            len in proptest::sample::select(vec![1usize, 63, 64, 65, 4392]),
            seed in any::<u64>(),
        ) {
            drive(len, seed, 120)?;
        }

        /// The lowest-`want`-free pick against the model on a random
        /// bitmap, each bit free with probability `pct`, over ranges that
        /// start and end on both sides of word edges and at the end of
        /// Theta's 4,392 nodes, 40 bits into a word; `want` runs from 0 to
        /// one past the range's free bits, so a pick ends mid-word, at a
        /// word's end and past the last free bit.
        #[test]
        fn lowest_free_pick_matches_a_bool_vector(
            len in proptest::sample::select(vec![64usize, 65, 200, 4392]),
            pct in 0u32..=100,
            seed in any::<u64>(),
        ) {
            let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
            let model: Vec<bool> = (0..len).map(|_| rng.random_range(0..100u32) < pct).collect();
            let bits = FreeBits::from_bools(&model);
            for _ in 0..16 {
                let mut r = range(&mut rng, len);
                if rng.random_range(0..4u8) == 0 {
                    r.end = len;
                }
                let free = model[r.clone()].iter().filter(|&&b| b).count() as u32;
                for want in [0, 1, free / 2, free.saturating_sub(1), free, free + 1, rng.random_range(0..=free + 1)] {
                    prop_assert_eq!(
                        pick(&bits, r.clone(), want)?,
                        model_pick(&model, r.clone(), want),
                        "pick {:?} want {}",
                        r,
                        want
                    );
                }
            }
        }
    }

    /// Theta's 4,392 nodes end 40 bits into a word: a full reset sets
    /// exactly those, and is the machine rebuilt bit by bit.
    #[test]
    fn a_reset_sets_no_bit_past_the_last_node() {
        let mut bits = FreeBits::default();
        bits.reset(4392, true);
        assert_eq!(bits.count_ones(0..4392), 4392);
        assert_eq!(bits.word(68), (1 << 40) - 1);
        assert_eq!(bits, FreeBits::from_bools(&[true; 4392]));
    }
}

mod bucket_set {
    //! The free-count index's bucketed set (`index/bucket.rs`) against a
    //! `BTreeSet<(key, member)>`, driven in lockstep.
    use crate::index::{ratio_key, BucketSet, BLOCK};
    use proptest::prelude::*;
    use proptest::test_runner::TestCaseError;
    use rand::prelude::*;
    use rand::SeedableRng;
    use std::collections::BTreeSet;
    use std::fmt::Debug;

    /// The set built from `entries` in the given order, onto a fresh arena.
    fn built<K: Ord + Copy>(
        universe: usize,
        entries: impl Iterator<Item = (K, u32)>,
    ) -> BucketSet<K> {
        let mut set = BucketSet::default();
        set.clear(universe);
        entries.for_each(|(key, m)| set.insert(key, m, 1));
        set
    }

    /// Every query against the model: both walks, `first_at_least` at each
    /// probe, and equality with sets that hold the same members after a
    /// different history (and inequality with one member short).
    fn agree<K: Ord + Copy + Debug>(
        set: &BucketSet<K>,
        model: &BTreeSet<(K, u32)>,
        universe: usize,
        probes: &[K],
    ) -> Result<(), TestCaseError> {
        let asc: Vec<(K, u32)> = model.iter().copied().collect();
        // Both walks over every range between word-edge cut points.
        let cuts = [0, 1, 63, 64, 65, 127, 128, universe - 1, universe];
        let cuts = cuts.map(|c| c.min(universe) as u32);
        for (start, end) in cuts.iter().flat_map(|&a| cuts.map(|b| (a, b))) {
            let range = start..end.max(start);
            let in_range = asc.iter().filter(|e| range.contains(&e.1));
            let want: Vec<(K, u32)> = in_range.copied().collect();
            prop_assert_eq!(set.asc(range.clone()).collect::<Vec<_>>(), want.clone());
            let mut desc = want;
            desc.sort_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));
            prop_assert_eq!(set.desc(range).collect::<Vec<_>>(), desc);
        }
        for &want in probes {
            let expect = model.range((want, 0)..).next().copied();
            prop_assert_eq!(set.first_at_least(want), expect, "first >= {:?}", want);
        }
        prop_assert!(*set == built(universe, asc.iter().copied()));
        prop_assert!(*set == built(universe, asc.iter().rev().copied()));
        if let Some((_, rest)) = asc.split_first() {
            prop_assert!(*set != built(universe, rest.iter().copied()));
        }
        Ok(())
    }

    /// A member, half the time one of the word-edge cases 0, 63, 64 and
    /// `universe - 1` that the universe holds.
    fn member(rng: &mut impl Rng, universe: usize) -> u32 {
        let edges: Vec<usize> = [0, 63, 64, universe - 1]
            .into_iter()
            .filter(|&m| m < universe)
            .collect();
        let m = if rng.random::<bool>() {
            edges[rng.random_range(0..edges.len())]
        } else {
            rng.random_range(0..universe)
        };
        m as u32
    }

    /// One random step on `set` and its model: a range of members that
    /// share a key (up to two words' worth, so ranges start and end
    /// anywhere in a word and cross word edges) is inserted under a key
    /// drawn from `keys`, removed, or re-keyed — half the time from the
    /// start of a run of one key, so a re-key often moves a whole bucket,
    /// onto a key that is live or one that is not.
    fn step<K: Ord + Copy + Debug>(
        rng: &mut impl Rng,
        set: &mut BucketSet<K>,
        model: &mut BTreeSet<(K, u32)>,
        key_of: &mut [Option<K>],
        keys: &[K],
    ) {
        let universe = key_of.len();
        let mut m = member(rng, universe) as usize;
        if rng.random::<bool>() {
            while m > 0 && key_of[m - 1] == key_of[m] {
                m -= 1;
            }
        }
        let new = Some(keys[rng.random_range(0..keys.len())]);
        let cur = key_of[m];
        let most = rng.random_range(1..=130usize);
        let len = (m..universe)
            .take(most)
            .take_while(|&i| key_of[i] == cur)
            .count();
        let new = if cur.is_some() && rng.random::<bool>() {
            None
        } else {
            new
        };
        set.rekey(m as u32, len as u32, cur, new);
        for (i, key) in key_of.iter_mut().enumerate().skip(m).take(len) {
            if let Some(old) = cur {
                model.remove(&(old, i as u32));
            }
            if let Some(new) = new {
                model.insert((new, i as u32));
            }
            *key = new;
        }
    }

    /// `steps` random [`step`]s over keys drawn from `keys`, checking
    /// [`agree`] after each.
    fn drive<K: Ord + Copy + Debug>(
        universe: usize,
        keys: &[K],
        seed: u64,
        steps: usize,
    ) -> Result<(), TestCaseError> {
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
        let mut set = BucketSet::default();
        set.clear(universe);
        let mut model = BTreeSet::new();
        let mut key_of: Vec<Option<K>> = vec![None; universe];
        for _ in 0..steps {
            step(&mut rng, &mut set, &mut model, &mut key_of, keys);
            // Every key the set may hold, each live one among them, and
            // keys past both ends.
            let mut probes = keys.to_vec();
            probes.extend(model.iter().map(|&(key, _)| key));
            agree(&set, &model, universe, &probes)?;
        }
        Ok(())
    }

    /// Communication ratios on both sides of the sign bit, the two zeros
    /// included, as the index keys them.
    fn ratio_keys() -> Vec<u64> {
        [-2.5, -1.0, -0.0, 0.0, 0.25, 1.0, 1.75, f64::MAX]
            .into_iter()
            .map(ratio_key)
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        #[test]
        fn bucket_set_matches_an_ordered_set(
            universe in proptest::sample::select(vec![1usize, 63, 64, 65, 128, 200]),
            seed in any::<u64>(),
        ) {
            drive::<u32>(universe, &[0, 1, 2, 3, 5, 8, u32::MAX], seed, 150)?;
            drive::<u64>(universe, &ratio_keys(), seed, 150)?;
        }
    }

    /// A skewed tree — one 4,096-node leaf beside 4,096 one-node leaves —
    /// churned under every direct selector: each set's arena stays within
    /// the most keys it has held live at once × `⌈U/64⌉` words, far below
    /// the `max key × U / 64` a per-key-value layout would hold.
    #[test]
    fn index_arenas_stay_within_their_live_keys_on_a_skewed_tree() {
        use crate::{
            AllocRequest, BalancedSelector, ClusterState, DefaultTreeSelector, GreedySelector,
            JobId, NodeSelector,
        };
        use commsched_topology::Tree;

        let mut sizes = vec![4096];
        sizes.extend([1; 4096]);
        let tree = Tree::irregular_two_level(&sizes);
        let mut st = ClusterState::new(&tree);
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(11);
        let mut peak: Vec<usize> = Vec::new();
        let mut running: Vec<JobId> = Vec::new();
        for step in 0..400u64 {
            if !running.is_empty() && (rng.random_range(0..3) == 0 || st.free_total() < 64) {
                let job = running.swap_remove(rng.random_range(0..running.len()));
                st.release(&tree, job).unwrap();
            } else {
                let job = JobId(step);
                let want = rng.random_range(1..=st.free_total().min(1500));
                let req = if rng.random::<bool>() {
                    AllocRequest::comm(job, want)
                } else {
                    AllocRequest::compute(job, want)
                };
                let selectors: [&dyn NodeSelector; 3] =
                    [&DefaultTreeSelector, &GreedySelector, &BalancedSelector];
                let placement = selectors[rng.random_range(0..3usize)]
                    .select(&tree, &st, &req)
                    .unwrap();
                st.allocate(&tree, job, &placement, req.nature).unwrap();
                running.push(job);
            }
            st.check_invariants(&tree).unwrap();
            let sets = crate::tests::set_stats(st.index());
            peak.resize(sets.len(), 0);
            for (i, &(words, slot_words, live, _)) in sets.iter().enumerate() {
                peak[i] = peak[i].max(live);
                assert!(
                    words <= peak[i] * slot_words,
                    "set {i}: {words} words for at most {} live keys of {slot_words} words",
                    peak[i]
                );
            }
        }
        // Level 1 and the ratio order range over all 4,097 leaves with
        // keys up to 4,096: the big leaf's and the small leaves' one key.
        // The churn split the big leaf, so both of them were live at once.
        assert_eq!(peak, [2, 1, 2], "peak live keys: level 1, root, by ratio");
        let held: usize = crate::tests::set_stats(st.index())
            .iter()
            .map(|&(words, ..)| words)
            .sum();
        let per_key_value = 4096 * 4097 / 64;
        assert!(held <= 4 * 4097usize.div_ceil(64) + 1, "{held} arena words");
        assert!(
            held * 1000 < per_key_value,
            "{held} vs {per_key_value} words"
        );
    }

    /// 6,000 members, one per key at first: the keys fill many blocks, and
    /// re-keys move entries within and across block edges, whole buckets
    /// onto keys live and not, while blocks split and empty. Held to the
    /// model after every step, in full every 250 steps.
    #[test]
    fn thousands_of_keys_match_an_ordered_set() {
        const UNIVERSE: usize = 6000;
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(52);
        let mut set = BucketSet::default();
        set.clear(UNIVERSE);
        let mut model = BTreeSet::new();
        let mut key_of: Vec<Option<u32>> = vec![None; UNIVERSE];
        for m in 0..UNIVERSE as u32 {
            set.insert(3 * m, m, 1);
            model.insert((3 * m, m));
            key_of[m as usize] = Some(3 * m);
        }
        let keys: Vec<u32> = (0..3 * UNIVERSE as u32 + 50).collect();
        let mut peak = 0;
        for i in 0..3000 {
            let before = set.blocks().len();
            step(&mut rng, &mut set, &mut model, &mut key_of, &keys);
            peak = peak.max(set.stats().2);
            let blocks = set.blocks();
            assert!(
                blocks.iter().all(|&n| (1..=BLOCK).contains(&n)),
                "{blocks:?}"
            );
            assert!(blocks.len().abs_diff(before) <= 1, "step {i}");
            let want = rng.random_range(0..3 * UNIVERSE as u32 + 60);
            let expect = model.range((want, 0)..).next().copied();
            assert_eq!(
                set.first_at_least(want),
                expect,
                "step {i}: first >= {want}"
            );
            if i % 250 == 0 {
                let probes: Vec<u32> = (0..80).map(|p| p * 230).collect();
                agree(&set, &model, UNIVERSE, &probes).unwrap();
            }
        }
        agree(&set, &model, UNIVERSE, &keys[..200]).unwrap();
        assert_eq!(
            set.stats().2,
            model.iter().map(|e| e.0).collect::<BTreeSet<_>>().len()
        );
        assert!(peak >= 5000, "{peak} live keys at most");
        let tally = set.tally();
        assert!(
            tally.moves > 100 && tally.created > 100 && tally.dropped > 100,
            "{tally:?}"
        );
        // Emptied, from the top down, and filled again.
        for &(key, m) in model.iter().rev() {
            set.remove(key, m, 1);
        }
        assert_eq!(
            (set.asc(set.all()).next(), set.first_at_least(0)),
            (None, None)
        );
        set.insert(7, 3, 1);
        assert_eq!(set.blocks(), [1]);
        assert_eq!(set.desc(set.all()).collect::<Vec<_>>(), [(7, 3)]);
    }

    /// 16,384 live keys, one member each, then random re-keys to keys live
    /// or not and drops and re-inserts: no step shifts more than
    /// [`BLOCK`] entries per key it creates or drops, however many keys
    /// the set holds — a rename drops one entry and makes another. A key
    /// renamed in place keeps its slot: the arena does not grow.
    #[test]
    fn a_key_change_shifts_at_most_one_block() {
        const KEYS: u32 = 16_384;
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(16);
        let mut set = BucketSet::default();
        set.clear(KEYS as usize);
        let mut key_of: Vec<Option<u64>> = (0..KEYS).map(|m| Some(u64::from(m) * 8)).collect();
        for m in 0..KEYS {
            set.insert(u64::from(m) * 8, m, 1);
        }
        assert_eq!(set.stats().2, KEYS as usize);
        let arena = set.stats().0;
        let start = set.tally();
        for _ in 0..20_000 {
            let m = rng.random_range(0..KEYS);
            let old = key_of[m as usize];
            let new = match rng.random_range(0..4) {
                0 => None,
                1 => Some(u64::from(rng.random_range(0..KEYS)) * 8),
                _ => Some(rng.random_range(0..u64::from(KEYS) * 8)),
            };
            let before = set.tally();
            set.rekey(m, 1, old, new);
            key_of[m as usize] = new;
            let after = set.tally();
            let keys = (after.created - before.created)
                + (after.dropped - before.dropped)
                + 2 * (after.moves - before.moves);
            let shifted = after.shifted - before.shifted;
            assert!(
                shifted <= keys * BLOCK as u64,
                "{old:?} -> {new:?}: {shifted} entries shifted for {keys} keys"
            );
        }
        let end = set.tally();
        assert!(end.moves - start.moves > 5000, "{end:?}");
        assert!(set.stats().0 <= arena, "renamed keys keep their slots");
        let mut asc: Vec<(u64, u32)> = (0..KEYS)
            .filter_map(|m| Some((key_of[m as usize]?, m)))
            .collect();
        asc.sort_unstable();
        assert_eq!(set.asc(set.all()).collect::<Vec<_>>(), asc);
    }

    /// Pinned: a whole bucket re-keyed onto a key that is not live is
    /// renamed in place (no key made or dropped, no arena growth, its
    /// members in place); onto a live key it merges, and the slot it
    /// frees is the next new key's; a part of a bucket leaves the rest
    /// under the old key.
    #[test]
    fn whole_buckets_rename_in_place_and_merge_into_live_keys() {
        let mut set = BucketSet::default();
        set.clear(70);
        set.insert(5u32, 0, 3);
        set.insert(9, 64, 2);
        set.insert(12, 10, 1);
        let words = set.stats().0;
        let made = set.tally();
        // 5 → 10: between 9 and 12, so it passes 9.
        set.rekey(0, 3, Some(5), Some(10));
        let t = set.tally();
        assert_eq!(
            (t.moves, t.created, t.dropped, t.shifted),
            (1, 3, 0, made.shifted + 1)
        );
        assert_eq!(
            set.asc(set.all()).collect::<Vec<_>>(),
            [(9, 64), (9, 65), (10, 0), (10, 1), (10, 2), (12, 10)]
        );
        // 10 → 2: to the front, past 9.
        set.rekey(0, 3, Some(10), Some(2));
        assert_eq!(set.first_at_least(0), Some((2, 0)));
        assert_eq!(set.first_at_least(3), Some((9, 64)));
        assert_eq!(set.tally().shifted, made.shifted + 2);
        // 12 → 13: the last key, to the end, shifting nothing.
        set.rekey(10, 1, Some(12), Some(13));
        assert_eq!(set.tally().shifted, made.shifted + 2);
        assert_eq!(set.first_at_least(12), Some((13, 10)));
        assert_eq!(set.stats().0, words, "no slot made");
        // 9 → 2 merges two buckets; the freed slot takes the next key.
        set.rekey(64, 2, Some(9), Some(2));
        let t = set.tally();
        assert_eq!((t.moves, t.created, t.dropped), (3, 3, 1));
        assert_eq!(set.stats().2, 2);
        set.insert(40, 30, 1);
        assert_eq!(set.stats().0, words, "the merged bucket's slot is reused");
        // Part of a bucket: the rest stays under 2.
        set.rekey(1, 2, Some(2), Some(3));
        assert_eq!(
            set.asc(set.all()).collect::<Vec<_>>(),
            [(2, 0), (2, 64), (2, 65), (3, 1), (3, 2), (13, 10), (40, 30)]
        );
        assert_eq!(set.tally().moves, 3);
        assert!(set == built(70, set.asc(set.all())));
    }

    /// Pinned: a key's members come back ascending under both walks, an
    /// emptied bucket leaves the key map, and its slot is reused rather
    /// than grown.
    #[test]
    fn buckets_empty_out_and_their_slots_come_back() {
        let mut set = BucketSet::default();
        set.clear(130);
        for (key, m) in [(5u32, 129), (5, 0), (2, 64), (5, 63), (9, 1)] {
            set.insert(key, m, 1);
        }
        let asc: Vec<_> = set.asc(set.all()).collect();
        assert_eq!(asc, [(2, 64), (5, 0), (5, 63), (5, 129), (9, 1)]);
        let desc: Vec<_> = set.desc(set.all()).collect();
        assert_eq!(desc, [(9, 1), (5, 0), (5, 63), (5, 129), (2, 64)]);
        assert_eq!(set.first_at_least(5), Some((5, 0)));
        assert_eq!(set.first_at_least(6), Some((9, 1)));
        assert_eq!(set.first_at_least(10), None);
        assert_eq!(set.stats().1, 3, "words per slot");
        assert_eq!(set.stats().0, 3 * 3, "arena words");
        set.remove(2, 64, 1);
        assert_eq!(set.stats().2, 2, "live keys");
        assert_eq!(set.first_at_least(0), Some((5, 0)));
        set.insert(7, 64, 1);
        assert_eq!(set.stats().2, 3, "live keys");
        assert_eq!(set.stats().0, 3 * 3, "the emptied slot is reused");
        // A range across two word edges is one lookup and one bucket;
        // removing it in two parts empties that bucket again.
        let mut set = BucketSet::default();
        set.clear(130);
        set.insert(4u32, 2, 125);
        assert_eq!(
            set.asc(set.all()).collect::<Vec<_>>(),
            (2..127).map(|m| (4, m)).collect::<Vec<_>>()
        );
        assert_eq!((set.stats().3, set.stats().2), (1, 1), "lookups, live keys");
        set.remove(4, 2, 60);
        assert_eq!(set.first_at_least(0), Some((4, 62)));
        set.remove(4, 62, 65);
        assert_eq!((set.stats().3, set.stats().2), (3, 0), "lookups, live keys");
    }
}

mod index_rebuild {
    //! `FreeIndex::rebuild` against `(key, member)` lists sorted directly
    //! from the counters, and its one insert per run of members.
    use crate::index::{ratio_key, BucketSet, FreeIndex};
    use crate::ClusterState;
    use commsched_topology::{SwitchId, SystemPreset, Tree};
    use proptest::prelude::*;
    use rand::prelude::*;
    use rand::SeedableRng;

    /// Leaf 1 has no free node, leaf 3 is a node short, leaf 6 has another
    /// ratio, and leaves 4 and 5 have different parents.
    fn runs_conf() -> Tree {
        Tree::from_conf(
            "SwitchName=s0 Nodes=n[0-3]\n\
             SwitchName=s1 Nodes=n[4-7]\n\
             SwitchName=s2 Nodes=n[8-11]\n\
             SwitchName=s3 Nodes=n[12-14]\n\
             SwitchName=s4 Nodes=n[15-18]\n\
             SwitchName=s5 Nodes=n[19-22]\n\
             SwitchName=s6 Nodes=n[23-26]\n\
             SwitchName=s7 Nodes=n[27-30]\n\
             SwitchName=a Switches=s[0-4]\n\
             SwitchName=b Switches=s[5-7]\n\
             SwitchName=r Switches=a,b\n",
        )
        .unwrap()
    }

    /// Rebuild `index` from per-leaf free counts and ratios, and check every
    /// set against its entries sorted straight from them: a level set holds
    /// `(switch_free, id)` with ids numbered from the level's first kind of
    /// id (leaves from 0, uppers from `num_leaves`), the ratio order
    /// `(ratio_key, ordinal)` of every free leaf.
    fn rebuild_and_check(index: &mut FreeIndex, tree: &Tree, free: &[u32], ratio: &[f64]) {
        let leaves = tree.num_leaves();
        let switch_free: Vec<u32> = (0..tree.num_switches())
            .map(|id| free[tree.leaf_ordinals_under(SwitchId(id))].iter().sum())
            .collect();
        index.rebuild(tree, &switch_free);
        // The first read builds the ratio order.
        let _ = index.leaves_by_ratio(tree, tree.root(), &switch_free, |k| ratio[k]);

        let height = tree.height() as usize;
        let mut want: Vec<Vec<(u64, u32)>> = vec![Vec::new(); height + 1];
        for (id, &f) in switch_free.iter().enumerate().filter(|(_, &f)| f > 0) {
            let level = tree.switch(SwitchId(id)).level as usize;
            let member = if level == 1 { id } else { id - leaves };
            want[level - 1].push((u64::from(f), member as u32));
        }
        for k in (0..leaves).filter(|&k| free[k] > 0) {
            want[height].push((ratio_key(ratio[k]), k as u32));
        }
        want.iter_mut().for_each(|set| set.sort_unstable());
        let widen = |set: &BucketSet<u32>| -> Vec<(u64, u32)> {
            set.asc(set.all()).map(|(k, m)| (u64::from(k), m)).collect()
        };
        assert_eq!(
            index.map_sets(widen, |set| set.asc(set.all()).collect()),
            want
        );
    }

    /// Each break in `runs_conf` starts a new insert: per set, the runs of
    /// consecutive members under one key.
    #[test]
    fn rebuild_inserts_one_run_per_set_and_key() {
        let tree = runs_conf();
        let mut free: Vec<u32> = (0..8).map(|k| tree.leaf_size(k) as u32).collect();
        free[1] = 0;
        let mut ratio = [0.0; 8];
        ratio[6] = 0.5;
        let mut index = FreeIndex::default();
        rebuild_and_check(&mut index, &tree, &free, &ratio);
        let lookups: Vec<u64> = crate::tests::set_stats(&index)
            .iter()
            .map(|s| s.3)
            .collect();
        // Level 1: [0], [2], [3], [4-7]; level 2: a, b; the root. By
        // ratio: [0], [2-5], [6], [7] — a's last leaf and b's first share
        // a key and are consecutive ordinals.
        assert_eq!(lookups, [4, 2, 1, 4]);
    }

    /// A one-leaf tree has no upper switch: until a greedy read builds the
    /// ratio order, the index is its level-1 set alone, and the state still
    /// allocates, releases and selects.
    #[test]
    fn a_single_leaf_tree_has_only_a_level_set() {
        let tree = Tree::from_conf("SwitchName=s0 Nodes=n[0-3]\n").unwrap();
        let mut st = ClusterState::new(&tree);
        assert_eq!(crate::tests::set_stats(st.index()).len(), 1);
        let req = crate::AllocRequest::comm(crate::JobId(1), 3);
        let placement =
            crate::NodeSelector::select(&crate::DefaultTreeSelector, &tree, &st, &req).unwrap();
        assert_eq!(placement.takes(), [(0, 3)]);
        st.allocate(
            &tree,
            crate::JobId(1),
            &placement,
            crate::JobNature::CommIntensive,
        )
        .unwrap();
        st.check_invariants(&tree).unwrap();
        assert_eq!(st.index().lowest_level_switch(&tree, 1), Some(tree.leaf(0)));
        st.release(&tree, crate::JobId(1)).unwrap();
        assert!(st == ClusterState::new(&tree));
    }

    /// A fresh machine's leaves are consecutive ordinals of one size and
    /// ratio: one insert per set that holds anything — the three level
    /// sets, then the ratio order's once the first read builds it.
    #[test]
    fn a_fresh_dragonfly_1m_state_inserts_one_run_per_set() {
        let tree = SystemPreset::Dragonfly1M.build();
        let st = ClusterState::new(&tree);
        let check = |st: &ClusterState| {
            let sets = crate::tests::set_stats(st.index());
            for (i, &(_, _, live, lookups)) in sets.iter().enumerate() {
                assert_eq!(lookups, u64::from(live > 0), "set {i}");
            }
            sets.iter().map(|s| s.3).sum::<u64>()
        };
        assert_eq!(check(&st), 3);
        assert!(!st.index().ratio_built());
        assert_eq!(st.leaves_by_ratio(&tree, tree.root()).asc().count(), 16_384);
        assert_eq!(check(&st), 3 + 1);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Random counters over four shapes — the run breaks above, a
        /// uniform three-level tree, ragged leaves under one root and a conf
        /// whose parents' leaves interleave — rebuilt into one index in
        /// turn, buffers reused.
        #[test]
        fn rebuild_matches_sorted_counters(seed in any::<u64>()) {
            let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
            let interleaved = Tree::from_conf(
                "SwitchName=s0 Nodes=n[0-1]\n\
                 SwitchName=s1 Nodes=n[2-3]\n\
                 SwitchName=s2 Nodes=n[4-5]\n\
                 SwitchName=s3 Nodes=n[6-8]\n\
                 SwitchName=a Switches=s0,s2\n\
                 SwitchName=b Switches=s3,s1\n\
                 SwitchName=r Switches=a,b\n",
            )
            .unwrap();
            let trees = [
                runs_conf(),
                Tree::regular_three_level(3, 4, 2),
                Tree::irregular_two_level(&[3, 3, 3, 2, 3, 3]),
                interleaved,
            ];
            let mut index = FreeIndex::default();
            for tree in &trees {
                let leaves = tree.num_leaves();
                let free: Vec<u32> = (0..leaves)
                    .map(|k| {
                        let size = tree.leaf_size(k) as u32;
                        [0, 1, size / 2, size, size][rng.random_range(0..5usize)]
                    })
                    .collect();
                let ratio: Vec<f64> = (0..leaves)
                    .map(|_| [0.0, 0.0, 0.5, 1.25][rng.random_range(0..4usize)])
                    .collect();
                rebuild_and_check(&mut index, tree, &free, &ratio);
            }
        }
    }
}

/// Every fill order is a leaf-wide set read over a switch's leaf range
/// (`index::FillOrder`): the walk masks the range's first word and stops
/// at its end, so ranges that start and end mid-word, on a word edge, or
/// span one leaf or 64 are where it can read a neighbour's leaves.
mod fill_orders {
    use super::*;
    use crate::index::ratio_key;
    use commsched_topology::SwitchId;
    use proptest::prelude::*;
    use rand::prelude::*;

    /// A skewed four-level `topology.conf` (root, pods, aggregations,
    /// leaves of one to four nodes or of 40): some leaves hang straight
    /// off a pod or the root, and the file lists them out of walk order.
    fn skewed_conf(rng: &mut impl Rng) -> Tree {
        let leaves = rng.random_range(4..90usize);
        let mut text = String::new();
        let mut first = 0;
        for k in 0..leaves {
            let size = [1, 2, 3, 4, 40][rng.random_range(0..5usize)];
            text += &format!("SwitchName=s{k} Nodes=n[{first}-{}]\n", first + size - 1);
            first += size;
        }
        let mut order: Vec<usize> = (0..leaves).collect();
        order.shuffle(rng);
        // Cut the shuffled leaves into aggregations and loose leaves, the
        // aggregations and some loose leaves into pods, the pods and the
        // other loose leaves under the root.
        let (mut top, mut pod, mut aggs) = (Vec::new(), Vec::new(), 0);
        let mut rest = &order[..];
        while !rest.is_empty() {
            let take = rng.random_range(1..=9usize).min(rest.len());
            let (group, tail) = rest.split_at(take);
            rest = tail;
            let names: Vec<String> = group.iter().map(|k| format!("s{k}")).collect();
            if take == 1 && rng.random_range(0..3) == 0 {
                pod.push(names[0].clone());
            } else if take == 1 && rng.random_range(0..3) == 0 {
                top.push(names[0].clone());
            } else {
                text += &format!("SwitchName=a{aggs} Switches={}\n", names.join(","));
                pod.push(format!("a{aggs}"));
                aggs += 1;
            }
            if !pod.is_empty() && (rest.is_empty() || rng.random_range(0..3) == 0) {
                text += &format!("SwitchName=p{} Switches={}\n", top.len(), pod.join(","));
                top.push(format!("p{}", top.len()));
                pod.clear();
            }
        }
        text += &format!("SwitchName=root Switches={}\n", top.join(","));
        Tree::from_conf(&text).unwrap()
    }

    /// `tree` with random jobs allocated and some released again; `warm`
    /// reads the ratio order first, so the churn re-keys it in place.
    fn churned(tree: &Tree, warm: bool, rng: &mut impl Rng) -> ClusterState {
        let mut st = ClusterState::new(tree);
        if warm {
            let _ = st.leaves_by_ratio(tree, tree.root());
        }
        let mut nodes: Vec<NodeId> = (0..tree.num_nodes()).map(NodeId).collect();
        nodes.shuffle(rng);
        let busy = tree.num_nodes() * rng.random_range(0..90usize) / 100;
        for (job, chunk) in nodes[..busy].chunks(3).enumerate() {
            let nature = if rng.random::<bool>() {
                JobNature::CommIntensive
            } else {
                JobNature::ComputeIntensive
            };
            let job = JobId(job as u64);
            st.allocate(tree, job, ids(tree, chunk), nature).unwrap();
            if rng.random_range(0..4) == 0 {
                st.release(tree, job).unwrap();
            }
        }
        st
    }

    /// `(key, ordinal)` of `p`'s free leaves, sorted ascending and in the
    /// descending walk's order (keys down, ordinals up).
    fn sorted<K: Ord + Copy>(
        tree: &Tree,
        st: &ClusterState,
        p: SwitchId,
        key: impl Fn(usize) -> K,
    ) -> [Vec<(K, u32)>; 2] {
        let free = tree.leaf_ordinals_under(p).filter(|&k| st.leaf_free(k) > 0);
        let mut asc: Vec<(K, u32)> = free.map(|k| (key(k), k as u32)).collect();
        asc.sort_unstable();
        let mut desc = asc.clone();
        desc.sort_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));
        [asc, desc]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Both fill orders of every switch, ascending and descending,
        /// equal a collect-and-sort over its leaf range.
        #[test]
        fn fill_orders_read_exactly_the_leaf_range(seed in any::<u64>(), warm in any::<bool>()) {
            let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
            // Groups of 64 leaves (word edges), of 37 (mid-word starts and
            // ends), of one leaf, and of 100 (two edges inside a range).
            let trees = [
                skewed_conf(&mut rng),
                Tree::regular_three_level(3, 64, 2),
                Tree::regular_three_level(5, 37, 3),
                Tree::regular_three_level(70, 1, 3),
                Tree::regular_three_level(3, 100, 2),
            ];
            for tree in &trees {
                let st = churned(tree, warm, &mut rng);
                for p in (0..tree.num_switches()).map(SwitchId) {
                    let [asc, desc] = sorted(tree, &st, p, |k| st.leaf_free(k));
                    let order = || st.index().leaves_by_free(tree, p);
                    prop_assert_eq!(order().asc().collect::<Vec<_>>(), asc, "{}", p);
                    prop_assert_eq!(order().desc().collect::<Vec<_>>(), desc, "{}", p);
                    let [asc, desc] = sorted(tree, &st, p, |k| ratio_key(st.communication_ratio(tree, k)));
                    let order = || st.leaves_by_ratio(tree, p);
                    prop_assert_eq!(order().asc().collect::<Vec<_>>(), asc, "{}", p);
                    prop_assert_eq!(order().desc().collect::<Vec<_>>(), desc, "{}", p);
                }
            }
        }
    }
}

/// A selection's [`crate::Decision`] says no more than the selector did:
/// its placement is `select`'s, its switch is the descent's, every scored
/// candidate's totals are what a fresh evaluator computes for those takes,
/// and its default fill is SLURM's default selection from the same state.
mod decisions {
    use super::*;
    use crate::SaSelector;
    use commsched_topology::SystemPreset;
    use proptest::prelude::*;
    use proptest::test_runner::TestCaseError;

    /// The department cluster, or a small three-level shape.
    fn tree_of(shape: u8) -> Tree {
        match shape {
            0 => SystemPreset::IitkDepartment.build(),
            1 => Tree::regular_three_level(2, 3, 6),
            2 => Tree::regular_three_level(3, 2, 8),
            _ => Tree::regular_three_level(2, 4, 4),
        }
    }

    fn assert_decision(
        tree: &Tree,
        st: &ClusterState,
        kind: SelectorKind,
        req: &AllocRequest,
    ) -> Result<(), TestCaseError> {
        let selector = kind.build();
        let name = kind.name();
        // The annealing budget, `None` for a selector that is not SA.
        let sa_budget = match kind {
            SelectorKind::Sa(sa) => Some(sa.evals),
            SelectorKind::Default
            | SelectorKind::Greedy
            | SelectorKind::Balanced
            | SelectorKind::Adaptive => None,
        };
        let decision = selector.decide(tree, st, req).unwrap();
        prop_assert_eq!(
            &decision.placement,
            &selector.select(tree, st, req).unwrap(),
            "{}: decide and select disagree",
            name
        );
        prop_assert_eq!(
            Some(decision.switch),
            st.index().lowest_level_switch(tree, req.nodes),
            "{}: not the descent's switch",
            name
        );
        for c in &decision.candidates {
            let fresh = PlacementEvaluator::new().evaluate_takes(
                tree,
                st,
                c.trunk_discount,
                &c.takes,
                &c.spec,
            );
            prop_assert_eq!(c.totals.raw_hops.to_bits(), fresh.raw_hops.to_bits());
            prop_assert_eq!(c.totals.hop_bytes.to_bits(), fresh.hop_bytes.to_bits());
            prop_assert_eq!(
                decision.scored(&c.takes, &c.spec, c.trunk_discount),
                Some(c.totals)
            );
        }
        // Whatever was scored includes the winner: only the direct
        // selectors and a coinciding adaptive pair score nothing.
        prop_assert!(
            decision.candidates.is_empty()
                || decision
                    .candidates
                    .iter()
                    .any(|c| c.takes == decision.placement.takes()),
            "{}: scored candidates but not the winner",
            name
        );
        if matches!(
            kind,
            SelectorKind::Default | SelectorKind::Greedy | SelectorKind::Balanced
        ) {
            prop_assert!(
                decision.candidates.is_empty(),
                "{}: a direct selector scored",
                name
            );
        }
        let default = DefaultTreeSelector.select(tree, st, req).unwrap();
        prop_assert_eq!(
            decision.default_takes(tree, st),
            default.takes(),
            "{}: default fill under the decision's switch",
            name
        );
        // Only SA's loop reports a search — never at budget 0 or for a
        // compute job — and what it reports stays within the budget and
        // carries the cost of the placement it returned.
        if let Some(search) = decision.search {
            prop_assert!(
                sa_budget.is_some_and(|b| b > 0) && req.nature.is_comm(),
                "{}: reported a search it cannot have run",
                name
            );
            prop_assert!(
                sa_budget.is_some_and(|b| search.evals <= b),
                "{}: spent past its budget",
                name
            );
            prop_assert_eq!(
                Some(search.budget),
                sa_budget,
                "{}: not its own budget",
                name
            );
            prop_assert!(search.cost_final <= search.cost_incumbent);
            let measured = PlacementEvaluator::new()
                .evaluate(
                    tree,
                    st,
                    CostModel::HOP_BYTES.trunk_discount,
                    &decision.placement,
                    &req.spec(),
                )
                .for_model(&CostModel::HOP_BYTES);
            prop_assert_eq!(search.cost_final.to_bits(), measured.to_bits());
        }
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn decisions_are_what_select_and_a_fresh_evaluator_say(
            shape in 0u8..4,
            occ in 0u8..80,
            seed in any::<u64>(),
            sa_seed in any::<u64>(),
            want in 1usize..40,
            comm in any::<bool>(),
            attempt in 0u32..3,
            pattern in prop::sample::select(vec![Pattern::Rd, Pattern::Rhvd, Pattern::Binomial]),
        ) {
            let tree = tree_of(shape);
            let st = super::properties::occupy(&tree, occ, seed);
            prop_assume!(want <= st.free_total());
            let spec = CollectiveSpec::new(pattern, 1 << 16);
            let req = if comm {
                AllocRequest::comm(JobId(7), want)
            } else {
                AllocRequest::compute(JobId(7), want)
            }
            .with_pattern(spec);
            let req = AllocRequest { attempt, ..req };
            let sa = |budget| SelectorKind::Sa(SaSelector::new(budget, sa_seed));
            for kind in SelectorKind::ALL.into_iter().chain([sa(0), sa(256)]) {
                assert_decision(&tree, &st, kind, &req)?;
            }
        }
    }

    /// An evaluator keeps no results between calls, so a lock poisoned by
    /// a thread that panicked holding it guards nothing stale: an
    /// adaptive selector sharing it decides as a fresh one does.
    #[test]
    fn adaptive_decides_through_a_poisoned_evaluator() {
        use std::sync::{Arc, Mutex};
        let eval = Arc::new(Mutex::new(PlacementEvaluator::new()));
        let holder = Arc::clone(&eval);
        let panicked = std::thread::spawn(move || {
            let _held = holder.lock();
            panic!("poisoning the evaluator lock on purpose");
        })
        .join();
        assert!(panicked.is_err() && eval.is_poisoned());
        let shared = AdaptiveSelector::with_evaluator(CostModel::HOP_BYTES, eval);
        let tree = tree_of(0);
        let st = super::properties::occupy(&tree, 30, 9);
        let spec = CollectiveSpec::new(Pattern::Rhvd, 1 << 16);
        let mut scored = 0;
        for want in [1, 3, 9, 17, 25] {
            for req in [
                AllocRequest::comm(JobId(7), want),
                AllocRequest::compute(JobId(7), want),
            ] {
                let req = req.with_pattern(spec);
                let got = shared.decide(&tree, &st, &req).unwrap();
                scored += got.candidates.len();
                assert_eq!(
                    got,
                    AdaptiveSelector::default()
                        .decide(&tree, &st, &req)
                        .unwrap()
                );
            }
        }
        assert!(scored > 0, "no decision scored through the evaluator");
    }
}

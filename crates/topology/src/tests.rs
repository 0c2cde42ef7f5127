use crate::build::SwitchNames;
use crate::{ConfError, NodeId, SwitchId, SystemPreset, Tree, TreeError};

/// The paper's Figure 2 topology: s2 over s0, s1; nodes n0-n3 / n4-n7.
fn figure2() -> Tree {
    Tree::from_conf(
        "SwitchName=s0 Nodes=n[0-3]\n\
         SwitchName=s1 Nodes=n[4-7]\n\
         SwitchName=s2 Switches=s[0-1]\n",
    )
    .unwrap()
}

#[test]
fn figure2_shape() {
    let t = figure2();
    assert_eq!(t.num_nodes(), 8);
    assert_eq!(t.num_switches(), 3);
    assert_eq!(t.num_leaves(), 2);
    assert_eq!(t.height(), 2);
    assert_eq!(t.switch(t.root()).name, "s2");
}

#[test]
fn figure2_distances_match_paper() {
    // Section 5.3: d(n0, n1) = 2 and d(n0, n4) = 4.
    let t = figure2();
    let [n0, n1, n4] = [0, 1, 4].map(NodeId);
    assert_eq!(t.node_name(n4), "n4");
    assert_eq!(t.distance(n0, n1), 2);
    assert_eq!(t.distance(n0, n4), 4);
    assert_eq!(t.distance(n0, n0), 0);
}

#[test]
fn leaf_queries() {
    let t = figure2();
    assert_eq!(t.leaf_size(0), 4);
    assert_eq!(t.leaf_size(1), 4);
    assert_eq!(t.leaf_ordinal_of(NodeId(0)), 0);
    assert_eq!(t.leaf_ordinal_of(NodeId(5)), 1);
    assert_eq!(
        t.leaf_nodes(1).collect::<Vec<_>>(),
        [NodeId(4), NodeId(5), NodeId(6), NodeId(7)]
    );
    let leaf0 = t.leaf(0);
    assert_eq!(t.leaf_ordinal(leaf0), 0);
}

#[test]
fn lca_levels() {
    let t = Tree::regular_three_level(2, 2, 2); // 8 nodes, 3 levels
    assert_eq!(t.height(), 3);
    // Same leaf -> level 1; same group -> level 2; across groups -> level 3.
    assert_eq!(t.leaf_lca_level(0, 0), 1);
    assert_eq!(t.leaf_lca_level(0, 1), 2);
    assert_eq!(t.leaf_lca_level(0, 2), 3);
    assert_eq!(t.distance(NodeId(0), NodeId(1)), 2);
    assert_eq!(t.distance(NodeId(0), NodeId(2)), 4);
    assert_eq!(t.distance(NodeId(0), NodeId(7)), 6);
}

#[test]
fn subtree_counts() {
    let t = Tree::regular_three_level(3, 4, 5);
    assert_eq!(t.num_nodes(), 60);
    assert_eq!(t.subtree_nodes(t.root()), 60);
    let g0 = t.switch(t.root()).children[0];
    assert_eq!(t.subtree_nodes(g0), 20);
    assert_eq!(t.leaf_ordinals_under(g0), 0..4);
    assert_eq!(t.leaf_ordinals_under(t.root()).len(), 12);
}

#[test]
fn conf_round_trip() {
    for t in [
        figure2(),
        Tree::regular_two_level(4, 8),
        Tree::regular_three_level(2, 3, 4),
        Tree::irregular_two_level(&[3, 7, 1, 12]),
    ] {
        let conf = t.to_conf();
        let t2 = Tree::from_conf(&conf).unwrap();
        assert_eq!(t.num_nodes(), t2.num_nodes());
        assert_eq!(t.num_switches(), t2.num_switches());
        assert_eq!(t.height(), t2.height());
        for a in 0..t.num_nodes() {
            for b in 0..t.num_nodes() {
                assert_eq!(
                    t.distance(NodeId(a), NodeId(b)),
                    t2.distance(NodeId(a), NodeId(b)),
                    "distance mismatch after round trip"
                );
            }
        }
    }
}

#[test]
fn conf_comments_and_blank_lines() {
    let t = Tree::from_conf(
        "# cluster topology\n\
         \n\
         SwitchName=s0 Nodes=n[0-1]  # leaf\n\
         SwitchName=s1 Nodes=n[2-3]\n\
         SwitchName=top Switches=s[0-1]\n",
    )
    .unwrap();
    assert_eq!(t.num_nodes(), 4);
}

/// `leaf_ordinals_under` is one range whatever order the file lists
/// children in: a parent's leaf children come first, in declaration order,
/// then its child switches by their first-declared leaf, and the child lists
/// themselves stay as written.
#[test]
fn leaf_ordinals_follow_the_walk_from_the_root() {
    let t = Tree::from_conf(
        "SwitchName=s0 Nodes=n[0-1]\n\
         SwitchName=s1 Nodes=n[2-3]\n\
         SwitchName=s2 Nodes=n[4-5]\n\
         SwitchName=s3 Nodes=n[6-7]\n\
         SwitchName=s4 Nodes=n8\n\
         SwitchName=a Switches=s2,s0\n\
         SwitchName=b Switches=s3,s1\n\
         SwitchName=r Switches=b,s4,a\n",
    )
    .unwrap();
    let id = |name: &str| {
        (0..t.num_switches())
            .map(SwitchId)
            .find(|&s| t.switch(s).name == name)
            .unwrap()
    };
    let leaf_names: Vec<&str> = (0..t.num_leaves())
        .map(|k| t.switch(t.leaf(k)).name.as_str())
        .collect();
    assert_eq!(leaf_names, ["s4", "s0", "s2", "s1", "s3"]);
    assert_eq!(t.leaf_ordinals_under(id("r")), 0..5);
    assert_eq!(t.switch(id("r")).leaf_children, 1);
    assert_eq!(t.leaf_ordinals_under(id("a")), 1..3);
    assert_eq!(t.leaf_ordinals_under(id("b")), 3..5);
    assert_eq!(t.leaf_ordinals_under(id("s1")), 3..4);
    assert_eq!(t.subtree_nodes(id("a")), 4);
    let kids: Vec<&str> = t
        .switch(id("a"))
        .children
        .iter()
        .map(|&c| t.switch(c).name.as_str())
        .collect();
    assert_eq!(kids, ["s2", "s0"]);
    // Each host keeps its name on its switch.
    assert_eq!(t.node_name(NodeId(0)), "n8");
    assert_eq!(t.node_name(NodeId(1)), "n0");
    assert_eq!(t.leaf_of(NodeId(3)), id("s2"));
    assert_eq!(t.node_name(NodeId(3)), "n4");
}

/// `from_parts` numbers the leaves first, so leaf ordinal `k` is switch
/// `k` and every later switch is an upper one — in every preset and in a
/// conf whose uppers sit between its leaves and list them out of order.
/// The free-count index keys its level-1 set on this.
/// Every preset, and a conf that lists leaves after uppers and children
/// out of order.
fn presets_and_a_shuffled_conf() -> Vec<(String, Tree)> {
    let conf = Tree::from_conf(
        "SwitchName=s0 Nodes=n[0-1]\n\
         SwitchName=a Switches=s0\n\
         SwitchName=s1 Nodes=n[2-4]\n\
         SwitchName=s2 Nodes=n5\n\
         SwitchName=b Switches=s2,s1\n\
         SwitchName=r Switches=b,a\n",
    )
    .unwrap();
    [
        SystemPreset::IitkDepartment,
        SystemPreset::IitkHpc2010,
        SystemPreset::CoriLike,
        SystemPreset::Intrepid,
        SystemPreset::Theta,
        SystemPreset::Mira,
        SystemPreset::Multirail500k,
        SystemPreset::Dragonfly1M,
    ]
    .map(|p| (format!("{p:?}"), p.build()))
    .into_iter()
    .chain([("conf".to_string(), conf)])
    .collect()
}

#[test]
fn leaf_ordinals_are_the_first_switch_ids() {
    for (what, t) in presets_and_a_shuffled_conf() {
        for s in (0..t.num_switches()).map(SwitchId) {
            let sw = t.switch(s);
            if s.0 < t.num_leaves() {
                assert_eq!((sw.level, sw.leaves.clone()), (1, s.0..s.0 + 1), "{what}");
                assert_eq!((t.leaf(s.0), t.leaf_ordinal(s)), (s, s.0), "{what}");
            } else {
                assert!(sw.level > 1 && !sw.children.is_empty(), "{what}: {s}");
            }
        }
        for n in (0..t.num_nodes()).step_by(97).map(NodeId) {
            assert_eq!(t.leaf_of(n), SwitchId(t.leaf_ordinal_of(n)), "{what}");
        }
    }
}

/// Children are numbered before their parents, so the one switch without a
/// parent is the last id — on every preset, an out-of-order conf and a
/// lone leaf that is its own root.
#[test]
fn the_root_is_the_last_switch_id() {
    let lone = Tree::from_conf("SwitchName=s0 Nodes=n[0-2]\n").unwrap();
    let trees = presets_and_a_shuffled_conf()
        .into_iter()
        .chain([("one leaf".to_string(), lone)]);
    for (what, t) in trees {
        let last = SwitchId(t.num_switches() - 1);
        let parentless: Vec<SwitchId> = (0..t.num_switches())
            .map(SwitchId)
            .filter(|&s| t.switch(s).parent.is_none())
            .collect();
        assert_eq!(parentless, [last], "{what}");
        assert_eq!(t.root(), last, "{what}");
        assert_eq!(t.subtree_nodes(last), t.num_nodes(), "{what}");
        assert_eq!(t.height(), t.switch(last).level, "{what}");
    }
}

#[test]
#[should_panic(expected = "is not a leaf switch")]
fn leaf_ordinal_of_an_upper_switch_panics() {
    let t = Tree::regular_two_level(2, 2);
    t.leaf_ordinal(t.root());
}

#[test]
fn conf_case_insensitive_keys_and_linkspeed() {
    let t = Tree::from_conf(
        "switchname=s0 nodes=n[0-1] LinkSpeed=100\n\
         SWITCHNAME=top SWITCHES=s0\n",
    )
    .unwrap();
    assert_eq!(t.num_nodes(), 2);
    assert_eq!(t.height(), 2);
}

#[test]
fn conf_errors() {
    assert!(matches!(
        Tree::from_conf("Nodes=n[0-1]\n").unwrap_err(),
        ConfError::MissingSwitchName { line: 1 }
    ));
    assert!(matches!(
        Tree::from_conf("SwitchName=s0 Nodes=n0 Switches=s1\n").unwrap_err(),
        ConfError::NodesXorSwitches { line: 1, .. }
    ));
    assert!(matches!(
        Tree::from_conf("SwitchName=s0\n").unwrap_err(),
        ConfError::NodesXorSwitches { line: 1, .. }
    ));
    assert!(matches!(
        Tree::from_conf("SwitchName=s0 Nodes=n[2-1]\n").unwrap_err(),
        ConfError::BadHostlist { line: 1, .. }
    ));
    assert!(matches!(
        Tree::from_conf("SwitchName=s0 Frobnicate=1 Nodes=n0\n").unwrap_err(),
        ConfError::UnknownKey { line: 1, .. }
    ));
}

#[test]
fn structure_errors() {
    // duplicate node
    let e = Tree::from_conf(
        "SwitchName=s0 Nodes=n0\nSwitchName=s1 Nodes=n0\nSwitchName=t Switches=s[0-1]\n",
    )
    .unwrap_err();
    assert!(matches!(
        e,
        crate::ConfError::Structure(TreeError::DuplicateNode(_))
    ));

    // two roots
    let e = Tree::from_conf("SwitchName=s0 Nodes=n0\nSwitchName=s1 Nodes=n1\n").unwrap_err();
    assert!(matches!(
        e,
        crate::ConfError::Structure(TreeError::MultipleRoots(_))
    ));

    // unknown child
    let e = Tree::from_conf("SwitchName=s0 Nodes=n0\nSwitchName=t Switches=s[0-1]\n").unwrap_err();
    assert!(matches!(
        e,
        crate::ConfError::Structure(TreeError::UnknownSwitch(_))
    ));

    // An upper resolves only switches defined before it, so one that lists
    // itself or a later switch names an unknown switch: no parent cycle
    // gets past the reader.
    for conf in [
        "SwitchName=s0 Nodes=n0\nSwitchName=t Switches=s0,t\n",
        "SwitchName=s0 Nodes=n0\nSwitchName=t0 Switches=s0,t1\nSwitchName=t1 Switches=t0\n",
    ] {
        let e = Tree::from_conf(conf).unwrap_err();
        assert!(
            matches!(e, crate::ConfError::Structure(TreeError::UnknownSwitch(_))),
            "{e:?}"
        );
    }

    // child with two parents
    let e = Tree::from_conf(
        "SwitchName=s0 Nodes=n0\nSwitchName=t0 Switches=s0\nSwitchName=t1 Switches=s0,t0\n",
    )
    .unwrap_err();
    assert!(matches!(
        e,
        crate::ConfError::Structure(TreeError::DuplicateChild(_))
    ));

    // empty file
    let e = Tree::from_conf("# nothing\n").unwrap_err();
    assert!(matches!(e, crate::ConfError::Structure(TreeError::Empty)));

    // The structure is checked in file order before any renumbering: a
    // second parent is named before the extra roots, and the roots come
    // in declaration order, leaves first.
    let two_parents_and_roots = "SwitchName=s0 Nodes=n0\nSwitchName=s1 Nodes=n1\n\
         SwitchName=t0 Switches=s0\nSwitchName=t1 Switches=s0\n";
    let e = Tree::from_conf(two_parents_and_roots).unwrap_err();
    assert_eq!(
        e.to_string(),
        "invalid topology: switch s0 has more than one parent"
    );
    let e = Tree::from_conf(
        "SwitchName=b Nodes=n0\nSwitchName=c Nodes=n1\nSwitchName=a Nodes=n2\n\
         SwitchName=t Switches=c\n",
    )
    .unwrap_err();
    let roots = TreeError::MultipleRoots(vec!["b".into(), "a".into(), "t".into()]);
    assert_eq!(e, crate::ConfError::Structure(roots));
}

#[test]
fn presets_build_to_stated_sizes() {
    for p in [
        SystemPreset::IitkDepartment,
        SystemPreset::IitkHpc2010,
        SystemPreset::CoriLike,
        SystemPreset::Intrepid,
        SystemPreset::Theta,
        SystemPreset::Mira,
    ] {
        let t = p.build();
        assert_eq!(t.num_nodes(), p.num_nodes(), "{p:?}");
    }
}

#[test]
fn preset_branching_factors_match_paper() {
    // IITK HPC2010: 16 nodes/leaf (Section 5.2).
    let t = SystemPreset::IitkHpc2010.build();
    for k in 0..t.num_leaves() {
        assert_eq!(t.leaf_size(k), 16);
    }
    // Cori-like: 330-380 nodes/leaf (Section 2 mentions 330-380 nodes/switch).
    let t = SystemPreset::Theta.build();
    for k in 0..t.num_leaves() {
        let s = t.leaf_size(k);
        assert!((330..=380).contains(&s), "leaf {k} has {s} nodes");
    }
    // Intrepid and Mira: emulated on the Cori leaf shape too (330-380
    // nodes per leaf; see DESIGN.md for why not the 16/leaf file).
    for p in [SystemPreset::Intrepid, SystemPreset::Mira] {
        let t = p.build();
        for k in 0..t.num_leaves() {
            let s = t.leaf_size(k);
            assert!((330..=380).contains(&s), "{p:?} leaf {k} has {s} nodes");
        }
    }
}

#[test]
fn node_names_dense_and_unique() {
    let t = Tree::regular_two_level(3, 4);
    for i in 0..t.num_nodes() {
        assert_eq!(t.node_name(NodeId(i)), format!("n{i}"));
    }
    assert!(t.node_names.is_none(), "a built tree stores no node names");
}

/// `to_conf` writes switches bottom-up, ties by id, also where a lower
/// switch has a higher id than an upper one.
#[test]
fn to_conf_lists_switches_bottom_up() {
    let t = Tree::from_conf(
        "SwitchName=s0 Nodes=n0\n\
         SwitchName=s1 Nodes=n1\n\
         SwitchName=g Switches=s0\n\
         SwitchName=h Switches=g\n\
         SwitchName=k Switches=s1\n\
         SwitchName=r Switches=h,k\n",
    )
    .unwrap();
    let conf = t.to_conf();
    let names: Vec<&str> = conf
        .lines()
        .map(|l| l.split_whitespace().next().unwrap())
        .collect();
    let want = ["s0", "s1", "g", "k", "h", "r"].map(|n| format!("SwitchName={n}"));
    assert_eq!(names, want);
}

#[test]
fn lca_switch_of_leaf_and_ancestor() {
    let t = Tree::regular_three_level(2, 2, 2);
    let leaf = t.leaf(0);
    let group = t.switch(t.root()).children[0];
    assert_eq!(t.lca_switch(leaf, group), group);
    assert_eq!(t.lca_switch(leaf, t.root()), t.root());
    assert_eq!(t.lca_switch(leaf, leaf), leaf);
}

mod properties {
    use super::*;
    use proptest::prelude::*;

    fn arb_leaf_sizes() -> impl Strategy<Value = Vec<usize>> {
        proptest::collection::vec(1usize..12, 1..10)
    }

    proptest! {
        /// Distance is a symmetric, reflexive-zero metric bounded by
        /// 2 * height, and equals 2 exactly for distinct same-leaf pairs.
        #[test]
        fn distance_metric_axioms(sizes in arb_leaf_sizes(), seed in 0u64..1000) {
            let t = Tree::irregular_two_level(&sizes);
            let n = t.num_nodes();
            let a = NodeId((seed as usize) % n);
            let b = NodeId((seed as usize * 7 + 3) % n);
            prop_assert_eq!(t.distance(a, a), 0);
            prop_assert_eq!(t.distance(a, b), t.distance(b, a));
            if a != b {
                prop_assert!(t.distance(a, b) >= 2);
                prop_assert!(t.distance(a, b) <= 2 * t.height());
                let same_leaf = t.leaf_of(a) == t.leaf_of(b);
                prop_assert_eq!(same_leaf, t.distance(a, b) == 2);
            }
        }

        /// Every node belongs to exactly one leaf and leaf ordinals tile the
        /// node range in order.
        #[test]
        fn leaves_partition_nodes(sizes in arb_leaf_sizes()) {
            let t = Tree::irregular_two_level(&sizes);
            let mut seen = vec![false; t.num_nodes()];
            for k in 0..t.num_leaves() {
                for n in t.leaf_nodes(k) {
                    prop_assert!(!seen[n.0]);
                    seen[n.0] = true;
                    prop_assert_eq!(t.leaf_ordinal_of(n), k);
                }
            }
            prop_assert!(seen.into_iter().all(|s| s));
        }

        /// conf round trip preserves all pairwise distances (three-level).
        #[test]
        fn conf_round_trip_three_level(groups in 1usize..4, lpg in 1usize..4, npl in 1usize..5) {
            let t = Tree::regular_three_level(groups, lpg, npl);
            let t2 = Tree::from_conf(&t.to_conf()).unwrap();
            prop_assert_eq!(t.num_nodes(), t2.num_nodes());
            for a in 0..t.num_nodes() {
                for b in (a + 1)..t.num_nodes() {
                    prop_assert_eq!(
                        t.distance(NodeId(a), NodeId(b)),
                        t2.distance(NodeId(a), NodeId(b))
                    );
                }
            }
        }

        /// LCA is an ancestor of both and has minimal level among common
        /// ancestors.
        #[test]
        fn lca_is_lowest_common_ancestor(
            groups in 1usize..4, lpg in 1usize..4, npl in 1usize..4,
            ai in any::<prop::sample::Index>(), bi in any::<prop::sample::Index>()
        ) {
            let t = Tree::regular_three_level(groups, lpg, npl);
            let a = NodeId(ai.index(t.num_nodes()));
            let b = NodeId(bi.index(t.num_nodes()));
            let lca = t.lca(a, b);

            // ancestors of a leaf switch
            let ancestors = |mut s: SwitchId| {
                let mut v = vec![s];
                while let Some(p) = t.switch(s).parent {
                    v.push(p);
                    s = p;
                }
                v
            };
            let aa = ancestors(t.leaf_of(a));
            let ab = ancestors(t.leaf_of(b));
            prop_assert!(aa.contains(&lca));
            prop_assert!(ab.contains(&lca));
            // minimal level common ancestor
            let min_common = aa.iter().filter(|s| ab.contains(s))
                .map(|s| t.switch(*s).level).min().unwrap();
            prop_assert_eq!(t.switch(lca).level, min_common);
        }
    }
}

/// A 2 x 3 x 4 x 5 machine as a `topology.conf`: 24 leaves of 5 nodes, four
/// to a level-2 switch, three of those to a level-3 switch, two under the
/// root. No builder goes deeper than three levels; a site's file may.
const FOUR_LEVEL_CONF: &str = "\
    SwitchName=s0 Nodes=n[0-4]\n\
    SwitchName=s1 Nodes=n[5-9]\n\
    SwitchName=s2 Nodes=n[10-14]\n\
    SwitchName=s3 Nodes=n[15-19]\n\
    SwitchName=s4 Nodes=n[20-24]\n\
    SwitchName=s5 Nodes=n[25-29]\n\
    SwitchName=s6 Nodes=n[30-34]\n\
    SwitchName=s7 Nodes=n[35-39]\n\
    SwitchName=s8 Nodes=n[40-44]\n\
    SwitchName=s9 Nodes=n[45-49]\n\
    SwitchName=s10 Nodes=n[50-54]\n\
    SwitchName=s11 Nodes=n[55-59]\n\
    SwitchName=s12 Nodes=n[60-64]\n\
    SwitchName=s13 Nodes=n[65-69]\n\
    SwitchName=s14 Nodes=n[70-74]\n\
    SwitchName=s15 Nodes=n[75-79]\n\
    SwitchName=s16 Nodes=n[80-84]\n\
    SwitchName=s17 Nodes=n[85-89]\n\
    SwitchName=s18 Nodes=n[90-94]\n\
    SwitchName=s19 Nodes=n[95-99]\n\
    SwitchName=s20 Nodes=n[100-104]\n\
    SwitchName=s21 Nodes=n[105-109]\n\
    SwitchName=s22 Nodes=n[110-114]\n\
    SwitchName=s23 Nodes=n[115-119]\n\
    SwitchName=l0g0 Switches=s[0-3]\n\
    SwitchName=l0g1 Switches=s[4-7]\n\
    SwitchName=l0g2 Switches=s[8-11]\n\
    SwitchName=l0g3 Switches=s[12-15]\n\
    SwitchName=l0g4 Switches=s[16-19]\n\
    SwitchName=l0g5 Switches=s[20-23]\n\
    SwitchName=l1g0 Switches=l0g[0-2]\n\
    SwitchName=l1g1 Switches=l0g[3-5]\n\
    SwitchName=root Switches=l1g[0-1]\n\
";

mod shapes {
    use super::*;

    #[test]
    fn four_level_conf() {
        let t = Tree::from_conf(FOUR_LEVEL_CONF).unwrap();
        assert_eq!(t.num_nodes(), 2 * 3 * 4 * 5);
        assert_eq!(t.num_leaves(), 24);
        assert_eq!(t.height(), 4);
        // Distances span 2..8.
        assert_eq!(t.distance(NodeId(0), NodeId(1)), 2);
        assert_eq!(t.distance(NodeId(0), NodeId(5)), 4);
        assert_eq!(t.distance(NodeId(0), NodeId(20)), 6);
        assert_eq!(t.distance(NodeId(0), NodeId(t.num_nodes() - 1)), 8);
        assert_eq!(t.leaf_node_range(23), 115..120);
        assert_eq!(t.to_conf(), FOUR_LEVEL_CONF);
    }

    #[test]
    fn multirail_fat_tree_shape() {
        // 2 pods x 3 leaves x (2 rails x 4 nodes) = 48 nodes, 8 per leaf.
        let t = Tree::layered(&[4 * 2; 2 * 3], Some(3), SwitchNames::Nested('p', 'l'));
        assert_eq!(t.num_nodes(), 48);
        assert_eq!(t.num_leaves(), 6);
        assert_eq!(t.height(), 3);
        for k in 0..t.num_leaves() {
            assert_eq!(t.leaf_size(k), 8);
        }
        assert_eq!(t.switch(t.leaf(4)).name, "p1l1");
        // Same pod: distance 4; across pods: 6.
        assert_eq!(t.distance(NodeId(0), NodeId(8)), 4);
        assert_eq!(t.distance(NodeId(0), NodeId(24)), 6);
    }

    #[test]
    fn dragonfly_tree_shape() {
        // 3 groups x 4 routers x 2 nodes = 24 nodes.
        let t = Tree::layered(&[2; 3 * 4], Some(4), SwitchNames::Nested('g', 'r'));
        assert_eq!(t.num_nodes(), 24);
        assert_eq!(t.num_leaves(), 12);
        assert_eq!(t.height(), 3);
        assert_eq!(t.switch(t.leaf(5)).name, "g1r1");
        // Same router: 2; same group: 4; across groups: 6.
        assert_eq!(t.distance(NodeId(0), NodeId(1)), 2);
        assert_eq!(t.distance(NodeId(0), NodeId(2)), 4);
        assert_eq!(t.distance(NodeId(0), NodeId(8)), 6);
    }

    #[test]
    #[ignore = "builds the 524k/1M-node presets; run with --ignored or rely on bench_micro"]
    fn exascale_presets_build_to_stated_size() {
        for preset in [SystemPreset::Multirail500k, SystemPreset::Dragonfly1M] {
            let t = preset.build();
            assert_eq!(t.num_nodes(), preset.num_nodes());
            assert_eq!(t.height(), 3);
            for s in (0..t.num_switches()).map(SwitchId) {
                assert!(t.subtree_nodes(s) > 0);
            }
        }
    }
}

mod leaf_ranges {
    use super::*;

    /// The invariant every per-leaf take rests on: leaf `k` holds exactly
    /// the ascending contiguous ids `leaf_node_range(k)`, and the ranges
    /// tile `0..num_nodes` in ordinal order.
    fn assert_leaf_ranges(t: &Tree, what: &str) {
        let mut next = 0;
        for k in 0..t.num_leaves() {
            let range = t.leaf_node_range(k);
            assert_eq!(
                range.start,
                next,
                "{what}: leaf {k} does not follow leaf {}",
                k.max(1) - 1
            );
            let ids: Vec<NodeId> = range.clone().map(NodeId).collect();
            assert_eq!(t.leaf_nodes(k).collect::<Vec<_>>(), ids, "{what}: leaf {k}");
            assert_eq!(range.len(), t.leaf_size(k), "{what}: leaf {k}");
            for n in ids {
                assert_eq!(t.leaf_ordinal_of(n), k, "{what}: {n}");
                assert_eq!(t.leaf_of(n), t.leaf(k), "{what}: {n}");
            }
            next = range.end;
        }
        assert_eq!(
            next,
            t.num_nodes(),
            "{what}: ranges do not cover the machine"
        );
    }

    #[test]
    fn every_builder_numbers_nodes_leaf_by_leaf() {
        assert_leaf_ranges(&Tree::regular_two_level(5, 7), "regular_two_level");
        assert_leaf_ranges(
            &Tree::irregular_two_level(&[3, 1, 9, 4, 1, 6]),
            "irregular_two_level",
        );
        assert_leaf_ranges(&Tree::regular_three_level(3, 4, 5), "regular_three_level");
        assert_leaf_ranges(
            &Tree::from_conf(FOUR_LEVEL_CONF).unwrap(),
            "four-level conf",
        );
        let nested = SwitchNames::Nested('p', 'l');
        assert_leaf_ranges(&Tree::layered(&[10; 12], Some(4), nested), "nested layered");
    }

    #[test]
    fn every_preset_below_100k_nodes_numbers_nodes_leaf_by_leaf() {
        for p in [
            SystemPreset::IitkDepartment,
            SystemPreset::IitkHpc2010,
            SystemPreset::CoriLike,
            SystemPreset::Intrepid,
            SystemPreset::Theta,
            SystemPreset::Mira,
        ] {
            assert!(p.num_nodes() < 100_000);
            assert_leaf_ranges(&p.build(), &format!("{p:?}"));
        }
    }

    /// A conf file may declare its leaves (and list their hosts) in any
    /// order: ordinals follow the walk from the root, ids follow ordinals
    /// and, within a leaf, the file's host order, never the host names.
    #[test]
    fn conf_leaves_declared_in_shuffled_order() {
        let t = Tree::from_conf(
            "SwitchName=s2 Nodes=n[8-11]\n\
             SwitchName=s0 Nodes=n[2-3],n[0-1]\n\
             SwitchName=g1 Switches=s[2-3]\n\
             SwitchName=s3 Nodes=n15,n[12-14]\n\
             SwitchName=s1 Nodes=n[4-7]\n\
             SwitchName=g0 Switches=s[0-1]\n\
             SwitchName=root Switches=g[0-1]\n",
        )
        .unwrap();
        assert_leaf_ranges(&t, "shuffled conf");
        // `g1` holds the first-declared leaf, `s2`, so its leaves come
        // first: `s2`, then `s3`, then `g0`'s `s0` and `s1`.
        assert_eq!(t.switch(t.leaf(0)).name, "s2");
        assert_eq!(t.node_name(NodeId(0)), "n8");
        assert_eq!(t.leaf_node_range(1), 4..8);
        assert_eq!(t.node_name(NodeId(4)), "n15");
        assert_eq!(t.node_name(NodeId(8)), "n2");
        assert_eq!(t.leaf_ordinal_of(NodeId(8)), 2);
        assert_eq!(t.switch(t.leaf(3)).name, "s1");

        // The round trip through to_conf shuffles nothing back.
        assert_leaf_ranges(&Tree::from_conf(&t.to_conf()).unwrap(), "round trip");
    }

    proptest::proptest! {
        #[test]
        fn shuffled_conf_files_keep_the_invariant(
            sizes in proptest::collection::vec(1usize..9, 2..8),
            rot in 0usize..8,
        ) {
            // Leaves declared rotated by `rot`, hosts listed high-to-low.
            let n = sizes.len();
            let mut first = 0;
            let mut lines = Vec::new();
            for (k, &size) in sizes.iter().enumerate() {
                let hosts: Vec<String> =
                    (first..first + size).rev().map(|i| format!("n{i}")).collect();
                lines.push(format!("SwitchName=s{k} Nodes={}\n", hosts.join(",")));
                first += size;
            }
            lines.rotate_left(rot % n);
            let mut conf: String = lines.concat();
            conf.push_str(&format!("SwitchName=top Switches=s[0-{}]\n", n - 1));
            let t = Tree::from_conf(&conf).unwrap();
            assert_leaf_ranges(&t, "rotated conf");
            proptest::prop_assert_eq!(t.num_nodes(), first);
        }
    }
}

mod duplicate_nodes {
    use super::*;

    fn duplicate_named(conf: &str) -> String {
        match Tree::from_conf(conf).unwrap_err() {
            ConfError::Structure(TreeError::DuplicateNode(name)) => name,
            other => panic!("expected a duplicate node, got {other:?}"),
        }
    }

    /// Names that agree on far more than their first 8 bytes are told
    /// apart when they differ and caught when they do not.
    #[test]
    fn long_names_with_a_common_prefix() {
        let t = Tree::from_conf(
            "SwitchName=s0 Nodes=computenode[0100-0199]\n\
             SwitchName=s1 Nodes=computenode[0000-0099]\n\
             SwitchName=top Switches=s[0-1]\n",
        )
        .unwrap();
        assert_eq!(t.num_nodes(), 200);
        assert_eq!(t.node_name(NodeId(50)), "computenode0150");

        let dup = duplicate_named(
            "SwitchName=s0 Nodes=computenode[0000-0099]\n\
             SwitchName=s1 Nodes=computenode[0099-0119]\n\
             SwitchName=top Switches=s[0-1]\n",
        );
        assert_eq!(dup, "computenode0099");
    }

    #[test]
    fn duplicate_inside_one_hostlist() {
        let dup = duplicate_named("SwitchName=s0 Nodes=n[0-3,2]\n");
        assert_eq!(dup, "n2");
    }

    /// A name that prefixes another is a different name.
    #[test]
    fn prefixes_are_not_duplicates() {
        let t = Tree::from_conf("SwitchName=s0 Nodes=n,n1,n10,n1a,N1\n").unwrap();
        assert_eq!(t.num_nodes(), 5);
    }
}

/// Every preset's `to_conf()` bytes — switch names, node names, leaf order
/// and hostlist compression — pinned by FNV-1a digest.
mod preset_conf_digests {
    use super::*;

    fn fnv1a(text: &str) -> u64 {
        text.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
        })
    }

    /// Blessed on the tree of commit 522c129 (before the arena-writing
    /// builder), the way `slurmsim`'s config matrix was.
    const BLESSED: [(SystemPreset, u64); 8] = [
        (SystemPreset::IitkDepartment, 0x61da_c4f2_7a58_ca85),
        (SystemPreset::IitkHpc2010, 0xb5a0_bfae_9437_ec3d),
        (SystemPreset::CoriLike, 0x3015_dbda_c371_b3b6),
        (SystemPreset::Intrepid, 0xc845_51fe_ae91_bdfb),
        (SystemPreset::Theta, 0x3015_dbda_c371_b3b6),
        (SystemPreset::Mira, 0x3067_6110_a69d_698b),
        (SystemPreset::Multirail500k, 0xed17_13a9_09b0_175d),
        (SystemPreset::Dragonfly1M, 0x151d_2977_ba5e_9bc8),
    ];

    #[test]
    fn every_preset_emits_the_blessed_conf() {
        for (preset, want) in BLESSED {
            let got = fnv1a(&preset.build().to_conf());
            assert_eq!(got, want, "{preset:?}: to_conf() digest {got:#018x}");
        }
    }
}

/// The builders assemble by id and `from_conf` by name, both through
/// `from_parts`: every preset read back from its own `topology.conf` must
/// be the built tree, table by table.
mod builder_matches_conf {
    use super::*;

    fn assert_same_tables(built: &Tree, read: &Tree, what: &str) {
        assert_eq!(built.switches.len(), read.switches.len(), "{what}");
        for (a, b) in built.switches.iter().zip(&read.switches) {
            assert_eq!(a.name, b.name, "{what}");
            let shape = |s: &crate::Switch| {
                let (leaves, children) = (s.leaves.clone(), s.children.clone());
                (s.level, s.parent, children, s.leaf_children, leaves)
            };
            assert_eq!(shape(a), shape(b), "{what}: switch {}", a.name);
        }
        assert_eq!(built.leaf_first, read.leaf_first, "{what}: leaf_first");
        assert_eq!(built.node_leaf, read.node_leaf, "{what}: node_leaf");
        let n = built.num_nodes();
        for i in [0, n / 2, n - 1] {
            assert_eq!(
                built.node_name(NodeId(i)),
                read.node_name(NodeId(i)),
                "{what}: node {i}"
            );
        }
    }

    #[test]
    fn every_preset_reads_back_from_its_conf() {
        for p in [
            SystemPreset::IitkDepartment,
            SystemPreset::IitkHpc2010,
            SystemPreset::CoriLike,
            SystemPreset::Intrepid,
            SystemPreset::Theta,
            SystemPreset::Mira,
            SystemPreset::Multirail500k,
            SystemPreset::Dragonfly1M,
        ] {
            let built = p.build();
            assert!(built.node_names.is_none(), "{p:?} stores node names");
            let read = Tree::from_conf(&built.to_conf()).unwrap();
            assert_same_tables(&built, &read, &format!("{p:?}"));
        }
    }
}

/// `from_conf` numbers every tree along the walk from the root, whatever
/// order the file declares and lists its switches in.
mod walk_numbering {
    use super::*;
    use proptest::prelude::*;

    /// `(leaf name, hosts)` of each `Nodes=` line and the hosts of the
    /// whole file, in file order.
    fn declared(conf: &str) -> Vec<(String, Vec<String>)> {
        conf.lines()
            .filter_map(|line| {
                let mut name = None;
                let mut hosts = None;
                for token in line.split_whitespace() {
                    match token.split_once('=') {
                        Some(("SwitchName", v)) => name = Some(v.to_string()),
                        Some(("Nodes", v)) => hosts = Some(commsched_hostlist::expand(v).unwrap()),
                        _ => {}
                    }
                }
                Some((name?, hosts?))
            })
            .collect()
    }

    fn id_of(t: &Tree, name: &str) -> SwitchId {
        (0..t.num_switches())
            .map(SwitchId)
            .find(|&s| t.switch(s).name == name)
            .unwrap()
    }

    /// Every switch's leaves are the range `leaf_ordinals_under` reports,
    /// found by walking its children, with its leaf children first.
    fn assert_ranges(t: &Tree) {
        for s in (0..t.num_switches()).map(SwitchId) {
            let sw = t.switch(s);
            let mut under = Vec::new();
            let mut stack = vec![s];
            while let Some(x) = stack.pop() {
                match t.switch(x).children.as_slice() {
                    [] => under.push(t.leaf_ordinal(x)),
                    kids => stack.extend(kids),
                }
            }
            under.sort_unstable();
            let range = t.leaf_ordinals_under(s);
            assert_eq!(under, range.clone().collect::<Vec<_>>(), "{}", sw.name);
            let mut leaf_kids: Vec<usize> = sw
                .children
                .iter()
                .filter(|c| t.switch(**c).children.is_empty())
                .map(|&c| t.leaf_ordinal(c))
                .collect();
            leaf_kids.sort_unstable();
            let prefix = range.start..range.start + sw.leaf_children;
            assert_eq!(leaf_kids, prefix.collect::<Vec<_>>(), "{}", sw.name);
            let nodes = t.leaf_node_range(range.start).start..t.leaf_node_range(range.end - 1).end;
            assert_eq!(t.subtree_nodes(s), nodes.len(), "{}", sw.name);
        }
    }

    /// A conf already in walk order parses to the identity numbering:
    /// leaf `k` is the `k`-th `Nodes=` line and node `i` the `i`-th host.
    fn assert_identity(conf: &str, what: &str) {
        let t = Tree::from_conf(conf).unwrap();
        let mut next = 0;
        for (k, (name, hosts)) in declared(conf).iter().enumerate() {
            assert_eq!(&t.switch(t.leaf(k)).name, name, "{what}: leaf {k}");
            let range = t.leaf_node_range(k);
            assert_eq!(
                (range.start, range.len()),
                (next, hosts.len()),
                "{what}: {name}"
            );
            for i in [range.start, range.end - 1] {
                assert_eq!(t.node_name(NodeId(i)), hosts[i - next], "{what}: node {i}");
            }
            next = range.end;
        }
        assert_eq!(next, t.num_nodes(), "{what}");
    }

    #[test]
    fn presets_and_the_example_conf_keep_their_numbering() {
        for p in [
            SystemPreset::IitkDepartment,
            SystemPreset::IitkHpc2010,
            SystemPreset::CoriLike,
            SystemPreset::Intrepid,
            SystemPreset::Theta,
            SystemPreset::Mira,
            SystemPreset::Multirail500k,
            SystemPreset::Dragonfly1M,
        ] {
            assert_identity(&p.build().to_conf(), &format!("{p:?}"));
        }
        let example = include_str!("../../../examples/data/topology.conf");
        assert_identity(example, "examples/data/topology.conf");
        assert_identity(FOUR_LEVEL_CONF, "four-level conf");
    }

    /// The interleaved example is renumbered: `agg1`'s leaf child `s1`,
    /// declared between `agg0`'s leaves, follows them.
    #[test]
    fn the_interleaved_example_conf_is_renumbered() {
        let t = Tree::from_conf(include_str!(
            "../../../examples/data/topology-interleaved.conf"
        ))
        .unwrap();
        assert_ranges(&t);
        let names: Vec<&str> = (0..t.num_leaves())
            .map(|k| t.switch(t.leaf(k)).name.as_str())
            .collect();
        assert_eq!(names, ["s0", "s2", "s1", "s3", "s4"]);
        assert_eq!(t.node_name(NodeId(12)), "n24");
        assert_eq!(t.leaf_ordinals_under(id_of(&t, "agg1")), 2..5);
        assert_eq!(t.switch(id_of(&t, "agg1")).leaf_children, 1);
    }

    /// splitmix64: the draws of one generated conf.
    struct Draws(u64);

    impl Draws {
        fn below(&mut self, n: usize) -> usize {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            ((z ^ (z >> 31)) % n as u64) as usize
        }

        fn shuffle<T>(&mut self, v: &mut [T]) {
            for i in (1..v.len()).rev() {
                v.swap(i, self.below(i + 1));
            }
        }
    }

    /// A random tree as a conf file: `leaves` leaves of 1–3 hosts, grouped
    /// under uppers that take a random handful of the parentless switches,
    /// leaves and uppers mixed, in shuffled or reversed child lists, until
    /// one root is left (a lone leaf needs none). Leaf lines land anywhere,
    /// before or after the uppers; hosts are listed out of name order.
    fn random_conf(leaves: usize, seed: u64) -> String {
        let mut d = Draws(seed);
        let mut leaf_lines = Vec::new();
        let mut host = 0;
        for k in 0..leaves {
            let size = 1 + d.below(3);
            let mut hosts: Vec<String> = (host..host + size).map(|i| format!("h{i}")).collect();
            d.shuffle(&mut hosts);
            host += size;
            leaf_lines.push(format!("SwitchName=s{k} Nodes={}\n", hosts.join(",")));
        }
        let mut pool: Vec<String> = (0..leaves).map(|k| format!("s{k}")).collect();
        let mut upper_lines = Vec::new();
        while pool.len() > 1 {
            d.shuffle(&mut pool);
            let take = 1 + d.below(pool.len().min(4));
            let mut kids: Vec<String> = pool.drain(..take).collect();
            if d.below(2) == 0 {
                kids.sort();
                kids.reverse();
            }
            let name = format!("u{}", upper_lines.len());
            upper_lines.push(format!("SwitchName={name} Switches={}\n", kids.join(",")));
            pool.push(name);
        }
        let mut lines = upper_lines;
        d.shuffle(&mut leaf_lines);
        for line in leaf_lines {
            let at = d.below(lines.len() + 1);
            lines.insert(at, line);
        }
        lines.concat()
    }

    proptest! {
        #[test]
        fn random_conf_files_are_numbered_along_the_walk(
            leaves in 1usize..10,
            seed in any::<u64>(),
        ) {
            let conf = random_conf(leaves, seed);
            let t = Tree::from_conf(&conf).unwrap();
            assert_ranges(&t);
            // Every host stays on the switch the file named, under its name.
            let mut seen = 0;
            for (name, hosts) in declared(&conf) {
                let leaf = t.leaf_ordinal(id_of(&t, &name));
                let got: Vec<String> = t.leaf_nodes(leaf).map(|n| t.node_name(n).into_owned()).collect();
                prop_assert_eq!(got, hosts.clone(), "{}", name);
                seen += hosts.len();
            }
            prop_assert_eq!(seen, t.num_nodes());
            // Uppers keep their names and child lists as written.
            for line in conf.lines().filter(|l| l.contains("Switches=")) {
                let (head, kids) = line.split_once(" Switches=").unwrap();
                let sw = t.switch(id_of(&t, &head["SwitchName=".len()..]));
                let names: Vec<&str> = sw.children.iter().map(|&c| t.switch(c).name.as_str()).collect();
                prop_assert_eq!(names.join(","), kids);
            }
            // The emitted conf is in walk order: its leaves read back
            // unrenumbered, each leaf's hosts in the compressed hostlist's
            // order (uppers are emitted by level, so their ids may move).
            let again = Tree::from_conf(&t.to_conf()).unwrap();
            for sw in t.switches() {
                let same = again.switch(id_of(&again, &sw.name));
                prop_assert_eq!(&sw.leaves, &same.leaves, "{}", sw.name);
            }
            let hosts = |t: &Tree, k: usize| {
                let mut names: Vec<String> = t.leaf_nodes(k).map(|n| t.node_name(n).into_owned()).collect();
                names.sort();
                names
            };
            for k in 0..t.num_leaves() {
                prop_assert_eq!(t.leaf_node_range(k), again.leaf_node_range(k));
                prop_assert_eq!(hosts(&t, k), hosts(&again, k));
            }
            assert_identity(&t.to_conf(), "to_conf");
        }
    }
}

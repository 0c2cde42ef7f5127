use super::*;

fn row(case: &str, median_ns: u64) -> Row {
    Row {
        case: case.into(),
        kind: "selection",
        nodes: 0,
        request: 0,
        median_ns,
    }
}

const BASELINE: &str = r#"{"results": [
    {"case": "a", "median_ns": 1000},
    {"case": "b", "median_ns": 2000}
]}"#;

#[test]
fn within_factor_passes() {
    let lines = check_medians(BASELINE, &[row("a", 1999), row("b", 1000)]).unwrap();
    assert_eq!(lines.len(), 2);
}

#[test]
fn above_factor_fails_naming_the_case() {
    let err = check_medians(BASELINE, &[row("a", 2001), row("b", 2000)]).unwrap_err();
    assert!(err.starts_with("a: "), "{err}");
    assert!(!err.contains("b: "), "{err}");
}

#[test]
fn new_case_is_skipped() {
    let live = [row("a", 1000), row("b", 2000), row("c", 1_000_000)];
    let lines = check_medians(BASELINE, &live).unwrap();
    assert!(lines.contains(&"c: no baseline entry, skipped".to_string()));
}

#[test]
fn vanished_case_fails_naming_it() {
    let err = check_medians(BASELINE, &[row("a", 1000)]).unwrap_err();
    assert_eq!(err, "b: in the baseline but no longer measured");
}

#[test]
fn missing_or_invalid_baseline_is_an_error() {
    let live = [row("a", 1000)];
    assert!(check_file("no/such/BENCH_micro.json", &live).is_err());
    assert!(check_medians("{not json", &live).is_err());
    assert!(check_medians(r#"{"bench": "x"}"#, &live).is_err());
    assert!(check_medians(r#"{"results": [{"case": "a"}]}"#, &live).is_err());
}

/// The index rows' state gives every leaf a ratio of its own and leaves
/// each one free nodes, so the ratio order holds one live key per
/// leaf; each probe is one free node of every 64th leaf.
#[test]
fn keyed_leaves_have_distinct_ratios() {
    let (tree, state, probes) = keyed_leaves_case(4096);
    let mut ratios: Vec<u64> = (0..tree.num_leaves())
        .map(|k| state.communication_ratio(&tree, k).to_bits())
        .collect();
    ratios.sort_unstable();
    ratios.dedup();
    assert_eq!(ratios.len(), 4096);
    assert!((0..4096).all(|k| state.leaf_free(k) > 0));
    let leaves: Vec<usize> = probes.iter().map(|p| p.takes()[0].0).collect();
    assert_eq!(leaves, (0..4096).step_by(64).collect::<Vec<_>>());
    assert!(probes.iter().all(|p| p.len() == 1));
}

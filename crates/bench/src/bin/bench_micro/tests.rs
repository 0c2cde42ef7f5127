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

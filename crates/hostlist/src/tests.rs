use super::*;

#[test]
fn plain_name() {
    assert_eq!(expand("login1").unwrap(), ["login1"]);
}

#[test]
fn simple_range() {
    assert_eq!(expand("n[0-3]").unwrap(), ["n0", "n1", "n2", "n3"]);
}

#[test]
fn single_value_bracket() {
    assert_eq!(expand("n[7]").unwrap(), ["n7"]);
}

#[test]
fn mixed_entries() {
    assert_eq!(
        expand("n[0-2,5,9-10]").unwrap(),
        ["n0", "n1", "n2", "n5", "n9", "n10"]
    );
}

#[test]
fn zero_padding_preserved() {
    assert_eq!(expand("n[08-11]").unwrap(), ["n08", "n09", "n10", "n11"]);
}

#[test]
fn suffix_after_bracket() {
    assert_eq!(expand("r[0-1]-ib").unwrap(), ["r0-ib", "r1-ib"]);
}

#[test]
fn multi_bracket_cross_product() {
    assert_eq!(
        expand("r[0-1]c[0-2]").unwrap(),
        ["r0c0", "r0c1", "r0c2", "r1c0", "r1c1", "r1c2"]
    );
    // Three groups, with padding in the middle one.
    assert_eq!(
        expand("a[0-1]b[01-02]c[5]").unwrap(),
        ["a0b01c5", "a0b02c5", "a1b01c5", "a1b02c5"]
    );
}

#[test]
fn multi_bracket_errors_propagate() {
    assert!(matches!(
        expand("r[0-1]c[5-2]").unwrap_err(),
        HostlistError::DescendingRange(_)
    ));
    assert!(matches!(
        expand("r[0-1]c]").unwrap_err(),
        HostlistError::UnbalancedBracket(_)
    ));
}

#[test]
fn top_level_concatenation() {
    assert_eq!(expand("a[0-1],b3,c[2]").unwrap(), ["a0", "a1", "b3", "c2"]);
}

#[test]
fn whitespace_tolerated() {
    assert_eq!(expand("  n[0-1] , m2 ").unwrap(), ["n0", "n1", "m2"]);
}

#[test]
fn error_unbalanced_open() {
    assert!(matches!(
        expand("n[0-3").unwrap_err(),
        HostlistError::UnbalancedBracket(_)
    ));
}

#[test]
fn error_unbalanced_close() {
    assert!(matches!(
        expand("n0-3]").unwrap_err(),
        HostlistError::UnbalancedBracket(_)
    ));
}

#[test]
fn error_descending() {
    assert!(matches!(
        expand("n[5-2]").unwrap_err(),
        HostlistError::DescendingRange(_)
    ));
}

#[test]
fn error_bad_entry() {
    assert!(matches!(
        expand("n[a-b]").unwrap_err(),
        HostlistError::BadRange(_)
    ));
}

#[test]
fn error_empty() {
    assert!(matches!(expand("").unwrap_err(), HostlistError::Empty));
    assert!(matches!(expand("a,,b").unwrap_err(), HostlistError::Empty));
}

#[test]
fn error_empty_bracket() {
    assert!(matches!(
        expand("n[]").unwrap_err(),
        HostlistError::BadRange(_)
    ));
}

#[test]
fn error_too_large() {
    assert!(matches!(
        expand("n[0-99999999]").unwrap_err(),
        HostlistError::TooLarge { .. }
    ));
}

#[test]
fn compress_merges_runs() {
    assert_eq!(compress(&["n0", "n1", "n2", "n5"]), "n[0-2,5]");
}

#[test]
fn compress_single_host_no_bracket() {
    assert_eq!(compress(&["n3"]), "n3");
}

#[test]
fn compress_sorts_and_dedups() {
    assert_eq!(compress(&["n5", "n1", "n5", "n0", "n2"]), "n[0-2,5]");
}

#[test]
fn compress_multiple_prefixes() {
    assert_eq!(compress(&["b0", "a0", "a1", "b1"]), "a[0-1],b[0-1]");
}

#[test]
fn compress_respects_padding_groups() {
    // n01 (width 2) and n1 (no padding) are distinct groups, like SLURM.
    assert_eq!(compress(&["n01", "n1"]), "n1,n01");
    assert_eq!(compress(&["n01", "n02", "n1"]), "n1,n[01-02]");
}

#[test]
fn compress_plain_names() {
    assert_eq!(compress(&["login", "admin"]), "admin,login");
}

#[test]
fn round_trip_paper_example() {
    // The topology.conf example from the paper (Section 5.2).
    let hosts = expand("n[0-3]").unwrap();
    assert_eq!(compress(&hosts), "n[0-3]");
    let hosts = expand("n[4-7]").unwrap();
    assert_eq!(compress(&hosts), "n[4-7]");
    let sw = expand("s[0-1]").unwrap();
    assert_eq!(sw, ["s0", "s1"]);
}

mod properties {
    use super::*;
    use proptest::prelude::*;

    fn host_strategy() -> impl Strategy<Value = String> {
        // prefix of lowercase letters + a number 0..5000
        ("[a-z]{1,6}", 0u64..5000).prop_map(|(p, v)| format!("{p}{v}"))
    }

    proptest! {
        /// compress(expand(e)) == e is not guaranteed for arbitrary e (order,
        /// duplicates), but expand(compress(hosts)) must equal sorted-deduped
        /// hosts for numeric-suffixed names.
        #[test]
        fn compress_expand_round_trip(hosts in proptest::collection::vec(host_strategy(), 1..64)) {
            let expr = compress(&hosts);
            let expanded = expand(&expr).unwrap();
            let mut want: Vec<String> = hosts.clone();
            want.sort_by(|a, b| {
                // same group ordering as compress: (prefix, suffix, width), then value
                let (pa, va, _, _) = parse_host_for_test(a);
                let (pb, vb, _, _) = parse_host_for_test(b);
                (pa, va).cmp(&(pb, vb))
            });
            want.dedup();
            let mut got = expanded;
            got.sort_by(|a, b| {
                let (pa, va, _, _) = parse_host_for_test(a);
                let (pb, vb, _, _) = parse_host_for_test(b);
                (pa, va).cmp(&(pb, vb))
            });
            prop_assert_eq!(got, want);
        }

        /// Expansion count of a pure range equals hi-lo+1.
        #[test]
        fn range_count(lo in 0u64..2000, len in 0u64..200) {
            let hi = lo + len;
            let hosts = expand(&format!("n[{lo}-{hi}]")).unwrap();
            prop_assert_eq!(hosts.len() as u64, len + 1);
        }

        /// Compress output always re-expands without error.
        #[test]
        fn compress_always_valid(hosts in proptest::collection::vec(host_strategy(), 0..64)) {
            if hosts.is_empty() {
                prop_assert_eq!(compress(&hosts), "");
            } else {
                let expr = compress(&hosts);
                prop_assert!(expand(&expr).is_ok());
            }
        }
    }
}

/// Test-only re-export of the host splitter so property tests can sort the
/// way `compress` groups.
pub(crate) fn parse_host_for_test(h: &str) -> (String, u64, usize, String) {
    let bytes = h.as_bytes();
    let mut end = bytes.len();
    while end > 0 && !bytes[end - 1].is_ascii_digit() {
        end -= 1;
    }
    let mut start = end;
    while start > 0 && bytes[start - 1].is_ascii_digit() {
        start -= 1;
    }
    let v = h[start..end].parse().unwrap_or(0);
    (h[..start].to_string(), v, 0, h[end..].to_string())
}

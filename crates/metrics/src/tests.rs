use crate::stats::stddev;
use crate::*;

#[test]
fn mean_basics() {
    assert_eq!(mean(&[]), 0.0);
    assert_eq!(mean(&[2.0, 4.0]), 3.0);
}

#[test]
fn stddev_basics() {
    assert_eq!(stddev(&[5.0]), 0.0);
    let s = stddev(&[2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]);
    assert!((s - 2.0).abs() < 1e-12);
}

#[test]
fn pearson_perfect_and_inverse() {
    let x = [1.0, 2.0, 3.0, 4.0];
    let y = [2.0, 4.0, 6.0, 8.0];
    assert!((pearson(&x, &y) - 1.0).abs() < 1e-12);
    let z = [8.0, 6.0, 4.0, 2.0];
    assert!((pearson(&x, &z) + 1.0).abs() < 1e-12);
    assert_eq!(pearson(&x, &[5.0, 5.0, 5.0, 5.0]), 0.0); // no variance
    assert_eq!(pearson(&[1.0], &[2.0]), 0.0);
}

#[test]
fn ci95_shrinks_with_samples() {
    let few: Vec<f64> = (0..10).map(|i| i as f64).collect();
    let many: Vec<f64> = (0..1000).map(|i| (i % 10) as f64).collect();
    let (m1, w1) = mean_ci95(&few);
    let (m2, w2) = mean_ci95(&many);
    assert!((m1 - 4.5).abs() < 1e-9);
    assert!((m2 - 4.5).abs() < 1e-9);
    assert!(w2 < w1);
    assert_eq!(mean_ci95(&[7.0]), (7.0, 0.0));
    assert_eq!(mean_ci95(&[]), (0.0, 0.0));
}

#[test]
fn ci95_uses_the_sample_standard_deviation() {
    // s = √(10/4) over 1..=5, so the half-width is 1.96 · √(1/2) = 1.385929…;
    // the population SD (divisor n) would give 1.239613….
    let (m, w) = mean_ci95(&[1.0, 2.0, 3.0, 4.0, 5.0]);
    assert!((m - 3.0).abs() < 1e-12);
    assert!((w - 1.385_929_291_125_633).abs() < 1e-12, "half-width {w}");
}

#[test]
fn peak_to_mean_detects_spikes() {
    let quiet = [1.0, 1.0, 1.0, 1.0];
    let spiky = [1.0, 1.0, 4.0, 1.0];
    assert_eq!(peak_to_mean(&quiet), 1.0);
    assert!(peak_to_mean(&spiky) > 2.0);
    assert_eq!(peak_to_mean(&[]), 0.0);
}

#[test]
fn table_renders_aligned() {
    let mut t = Table::new(vec!["Log".into(), "Exec".into()]);
    t.row(vec!["Intrepid".into(), "1382".into()]);
    t.row(vec!["Theta".into(), "2189".into()]);
    let s = t.to_string();
    let lines: Vec<&str> = s.lines().collect();
    assert_eq!(lines.len(), 4); // header, rule, 2 rows
    assert!(lines[0].starts_with("Log"));
    assert!(lines[2].contains("Intrepid"));
}

#[test]
fn table_pads_short_rows() {
    let mut t = Table::new(vec!["A".into(), "B".into(), "C".into()]);
    t.row(vec!["x".into()]);
    let s = t.to_string();
    assert!(s.contains('x'));
}

#[test]
fn series_csv() {
    let mut a = Series::new("default");
    a.push(30.0, 1.0);
    a.push(60.0, 2.0);
    let mut b = Series::new("balanced");
    b.push(30.0, 0.5);
    b.push(60.0, 1.5);
    let csv = Series::to_csv(&[a, b]);
    assert_eq!(csv, "x,default,balanced\n30,1,0.5\n60,2,1.5\n");
}

mod properties {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// Pearson is symmetric, bounded in [-1, 1], and invariant under
        /// positive affine transforms.
        #[test]
        fn pearson_properties(
            pairs in proptest::collection::vec((-1e3f64..1e3, -1e3f64..1e3), 2..40),
            scale in 0.1f64..10.0,
            shift in -100.0f64..100.0,
        ) {
            let xs: Vec<f64> = pairs.iter().map(|p| p.0).collect();
            let ys: Vec<f64> = pairs.iter().map(|p| p.1).collect();
            let r = pearson(&xs, &ys);
            prop_assert!((-1.0 - 1e-9..=1.0 + 1e-9).contains(&r));
            prop_assert!((r - pearson(&ys, &xs)).abs() < 1e-9);
            let xs2: Vec<f64> = xs.iter().map(|x| x * scale + shift).collect();
            prop_assert!((pearson(&xs2, &ys) - r).abs() < 1e-6);
        }
    }
}

mod registry_tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn registry_counters_by_name() {
        let mut r = Registry::new();
        *r.counter("jobs.started") += 2;
        *r.counter("jobs.started") += 3; // a second `counter(name)` is the same counter
        assert_eq!(r.counter_value("jobs.started"), Some(5));
        assert_eq!(r.counter_value("missing"), None);
        *r.gauge("makespan_s") = 1234.5;
        r.hist("job.wait_s").observe(10.0);
        let snap = r.snapshot();
        assert_eq!(snap.counters, vec![("jobs.started".to_string(), 5)]);
        assert_eq!(snap.gauges, vec![("makespan_s".to_string(), 1234.5)]);
        assert_eq!(snap.histograms.len(), 1);
        assert_eq!(snap.histograms[0].1.count(), 1);
    }

    #[test]
    fn snapshot_sorts_by_name() {
        let mut r = Registry::new();
        r.counter("zeta");
        r.counter("alpha");
        r.counter("mid");
        let snap = r.snapshot();
        let names: Vec<&str> = snap.counters.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, vec!["alpha", "mid", "zeta"]);
    }

    #[test]
    fn empty_histogram_is_well_defined() {
        let h = LogHistogram::default();
        assert_eq!(h.count(), 0);
        assert_eq!(h.min(), 0.0);
        assert_eq!(h.max(), 0.0);
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.quantile(0.5), 0.0);
    }

    #[test]
    fn histogram_drops_non_finite() {
        let mut h = LogHistogram::default();
        h.observe(f64::NAN);
        h.observe(f64::INFINITY);
        h.observe(3.0);
        assert_eq!(h.count(), 1);
        assert_eq!(h.sum(), 3.0);
    }

    #[test]
    fn report_json_round_trip() {
        let mut r = Registry::new();
        *r.counter("jobs.completed") += 17;
        *r.gauge("lost_node_seconds") = 960.0;
        let h = r.hist("job.exec_s");
        for x in [30.0, 600.0, 601.5, 4000.0, 0.0, -2.5] {
            h.observe(x);
        }
        let report = r.snapshot();
        let text = report.to_json_pretty();
        let back = RunReport::from_json(&text).expect("round trip parses");
        assert_eq!(back, report);
        // Serialization is deterministic: re-rendering gives the same bytes.
        assert_eq!(back.to_json_pretty(), text);
    }

    #[test]
    fn report_rejects_unknown_version() {
        let mut r = Registry::new();
        r.counter("x");
        let text = r
            .snapshot()
            .to_json_pretty()
            .replace("\"version\": 1", "\"version\": 999");
        assert!(RunReport::from_json(&text).is_err());
    }

    proptest! {
        /// Every quantile lands inside the observed [min, max], and q0/q100
        /// are exactly the extremes.
        #[test]
        fn quantile_bounds(
            xs in proptest::collection::vec(-1e9f64..1e9, 1..200),
            q in 0.0f64..1.0,
        ) {
            let mut h = LogHistogram::default();
            for &x in &xs {
                h.observe(x);
            }
            let (min, max) = (h.min(), h.max());
            prop_assert_eq!(h.quantile(0.0), min);
            prop_assert_eq!(h.quantile(1.0), max);
            let v = h.quantile(q);
            prop_assert!((min..=max).contains(&v), "q{} = {} outside [{}, {}]", q, v, min, max);
        }

        /// Reports survive a JSON round trip for arbitrary histogram
        /// contents (quantiles are recomputed from buckets, not trusted).
        #[test]
        fn report_round_trip_any_samples(
            xs in proptest::collection::vec(-1e12f64..1e12, 0..60),
        ) {
            let mut r = Registry::new();
            let h = r.hist("samples");
            for &x in &xs {
                h.observe(x);
            }
            let report = r.snapshot();
            let back = RunReport::from_json(&report.to_json_pretty());
            prop_assert_eq!(back.as_ref(), Ok(&report));
        }
    }
}

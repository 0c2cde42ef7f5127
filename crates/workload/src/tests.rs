use crate::{swf, Job, JobId, JobLog, JobNature, LogSpec, MixSet, SystemModel};
use commsched_collectives::Pattern;

// ------------------------------------------------------------- generators

#[test]
fn generator_is_deterministic() {
    let a = LogSpec::new(SystemModel::theta(), 200, 7).generate();
    let b = LogSpec::new(SystemModel::theta(), 200, 7).generate();
    assert_eq!(a, b);
    let c = LogSpec::new(SystemModel::theta(), 200, 8).generate();
    assert_ne!(a, c);
}

#[test]
fn theta_marginals_match_paper() {
    let log = LogSpec::new(SystemModel::theta(), 1000, 42).generate();
    assert_eq!(log.jobs.len(), 1000);
    // §5.1: Theta max request 512, ~90% power-of-two jobs.
    assert!(log.max_nodes() <= 512);
    assert!(log.max_nodes() >= 256, "max {}", log.max_nodes());
    let p2 = log.pow2_fraction();
    assert!((0.85..=0.95).contains(&p2), "pow2 fraction {p2}");
    assert!(log.jobs.iter().all(|j| j.nodes >= 128));
}

#[test]
fn intrepid_and_mira_marginals() {
    let intrepid = LogSpec::new(SystemModel::intrepid(), 1000, 1).generate();
    assert!(intrepid.max_nodes() <= 40960);
    assert!(intrepid.pow2_fraction() >= 0.98);

    let mira = LogSpec::new(SystemModel::mira(), 1000, 1).generate();
    assert!(mira.max_nodes() <= 16384);
    assert!(mira.pow2_fraction() >= 0.98);
    assert!(mira.jobs.iter().all(|j| j.nodes >= 512));
}

#[test]
fn comm_percent_is_exact() {
    for pct in [30u8, 60, 90] {
        let log = LogSpec::new(SystemModel::theta(), 500, 3)
            .comm_percent(pct)
            .generate();
        let n_comm = log.jobs.iter().filter(|j| j.nature.is_comm()).count();
        assert_eq!(n_comm, 500 * pct as usize / 100);
    }
}

#[test]
fn submit_times_are_sorted_and_runtime_bounds_hold() {
    let log = LogSpec::new(SystemModel::mira(), 800, 9).generate();
    for w in log.jobs.windows(2) {
        assert!(w[0].submit <= w[1].submit);
    }
    for j in &log.jobs {
        assert!(j.runtime >= 60 && j.runtime <= 86_400);
        assert!(j.walltime >= j.runtime);
    }
}

#[test]
fn pattern_builder_sets_single_component() {
    let log = LogSpec::new(SystemModel::theta(), 100, 5)
        .pattern(Pattern::Binomial)
        .generate();
    for j in log.jobs.iter().filter(|j| j.nature.is_comm()) {
        assert_eq!(j.comm.len(), 1);
        assert_eq!(j.comm[0].0, Pattern::Binomial);
        assert_eq!(j.comm[0].1, 0.5);
    }
    for j in log.jobs.iter().filter(|j| !j.nature.is_comm()) {
        assert!(j.comm.is_empty());
        assert_eq!(j.comm_fraction(), 0.0);
    }
}

#[test]
fn mix_sets_match_section_6_2() {
    assert_eq!(MixSet::A.components(), vec![(Pattern::Rhvd, 0.33)]);
    assert_eq!(MixSet::B.components(), vec![(Pattern::Rhvd, 0.50)]);
    assert_eq!(MixSet::C.components(), vec![(Pattern::Rhvd, 0.70)]);
    assert_eq!(
        MixSet::D.components(),
        vec![(Pattern::Rd, 0.15), (Pattern::Binomial, 0.35)]
    );
    assert_eq!(
        MixSet::E.components(),
        vec![(Pattern::Rd, 0.21), (Pattern::Binomial, 0.49)]
    );
}

#[test]
fn mix_applies_to_comm_jobs() {
    let log = LogSpec::new(SystemModel::intrepid(), 300, 11)
        .comm_percent(90)
        .mix(MixSet::E)
        .generate();
    let comm_jobs: Vec<&Job> = log.jobs.iter().filter(|j| j.nature.is_comm()).collect();
    assert_eq!(comm_jobs.len(), 270);
    for j in comm_jobs {
        assert_eq!(j.comm.len(), 2);
        assert!((j.comm_fraction() - 0.70).abs() < 1e-12);
    }
}

#[test]
fn job_log_stats() {
    let jobs = vec![
        Job {
            id: JobId(2),
            submit: 10,
            runtime: 3600,
            walltime: 3600,
            nodes: 4,
            nature: JobNature::CommIntensive,
            comm: vec![(Pattern::Rd, 0.5)],
        },
        Job {
            id: JobId(1),
            submit: 5,
            runtime: 7200,
            walltime: 7200,
            nodes: 3,
            nature: JobNature::ComputeIntensive,
            comm: vec![],
        },
    ];
    let log = JobLog::new("test", jobs);
    assert_eq!(log.jobs[0].id, JobId(1)); // sorted by submit
    assert_eq!(log.max_nodes(), 4);
    assert_eq!(log.pow2_fraction(), 0.5);
    assert_eq!(log.comm_percent(), 50.0);
    assert!((log.total_node_hours() - (4.0 + 6.0)).abs() < 1e-12);
    // Twice the latest `submit + walltime` (5 + 7200), at least 1 s.
    assert_eq!(log.fault_horizon(), 14_410);
    assert_eq!(JobLog::new("empty", vec![]).fault_horizon(), 1);
}

// ------------------------------------------------------------------- swf

const SWF_SAMPLE: &str = "\
; Version: 2.2
; Computer: Blue Gene/P
1 0 10 3600 4096 -1 -1 4096 7200 -1 1 1 1 -1 -1 -1 -1 -1
2 100 -1 1800 -1 -1 -1 2048 3600 -1 1 1 1 -1 -1 -1 -1 -1
3 200 5 -1 128 -1 -1 128 600 -1 1 1 1 -1 -1 -1 -1 -1
4 300 5 600 128 -1 -1 128 600 -1 5 1 1 -1 -1 -1 -1 -1
5 400 5 600 64 -1 -1 -1 300 -1 1 1 1 -1 -1 -1 -1 -1
";

#[test]
fn swf_parse_basics() {
    // Intrepid has 4 cores/node.
    let log = swf::parse(SWF_SAMPLE, "sample", 4).unwrap();
    // Job 3 (runtime -1) and job 4 (status 5 = cancelled) are skipped.
    assert_eq!(log.jobs.len(), 3);
    let j1 = &log.jobs[0];
    assert_eq!(j1.id, JobId(1));
    assert_eq!(j1.nodes, 1024); // 4096 procs / 4 per node
    assert_eq!(j1.runtime, 3600);
    assert_eq!(j1.walltime, 7200);
    // Job 5 had no requested procs; falls back to used procs (64/4 = 16).
    let j5 = &log.jobs[2];
    assert_eq!(j5.nodes, 16);
    // Requested time (300) below runtime (600) is clamped up.
    assert_eq!(j5.walltime, 600);
}

#[test]
fn swf_procs_round_up_to_nodes() {
    let text = "9 0 0 100 5 -1 -1 5 100 -1 1 -1 -1 -1 -1 -1 -1 -1\n";
    let log = swf::parse(text, "x", 4).unwrap();
    assert_eq!(log.jobs[0].nodes, 2); // ceil(5/4)
}

#[test]
fn swf_rejects_malformed() {
    assert!(swf::parse("1 2 3\n", "x", 1).is_err());
    assert!(swf::parse("a b c d e f g h i j k l m n o p q r\n", "x", 1).is_err());
}

#[test]
fn swf_round_trip() {
    let orig = LogSpec::new(SystemModel::theta(), 50, 13).generate();
    let text = swf::emit(&orig);
    let back = swf::parse(&text, "rt", 1).unwrap();
    assert_eq!(back.jobs.len(), orig.jobs.len());
    for (a, b) in orig.jobs.iter().zip(back.jobs.iter()) {
        assert_eq!(a.id, b.id);
        assert_eq!(a.submit, b.submit);
        assert_eq!(a.runtime, b.runtime);
        assert_eq!(a.walltime, b.walltime);
        assert_eq!(a.nodes, b.nodes);
    }
}

#[test]
fn swf_assign_natures() {
    let mut log = swf::parse(SWF_SAMPLE, "sample", 4).unwrap();
    swf::assign_natures(&mut log, 67, &[(Pattern::Rd, 0.5)], 99);
    let n_comm = log.jobs.iter().filter(|j| j.nature.is_comm()).count();
    assert_eq!(n_comm, 3 * 67 / 100);
    // Re-assignment resets previous labels.
    swf::assign_natures(&mut log, 0, &[(Pattern::Rd, 0.5)], 99);
    assert!(log
        .jobs
        .iter()
        .all(|j| !j.nature.is_comm() && j.comm.is_empty()));
}

mod properties {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        /// Every generated job respects the system's request band and the
        /// comm-percent accounting is exact for any percentage.
        #[test]
        fn generated_jobs_in_band(seed in any::<u64>(), pct in 0u8..=100) {
            for sys in [SystemModel::intrepid(), SystemModel::theta(), SystemModel::mira()] {
                let log = LogSpec::new(sys, 120, seed).comm_percent(pct).generate();
                prop_assert_eq!(log.jobs.len(), 120);
                for j in &log.jobs {
                    prop_assert!(j.nodes >= sys.min_request && j.nodes <= sys.max_request);
                    prop_assert!(j.nodes <= sys.total_nodes);
                }
                let n_comm = log.jobs.iter().filter(|j| j.nature.is_comm()).count();
                prop_assert_eq!(n_comm, 120 * pct as usize / 100);
            }
        }

        /// SWF emit/parse round-trips any synthetic log.
        #[test]
        fn swf_round_trip_any(seed in any::<u64>()) {
            let orig = LogSpec::new(SystemModel::intrepid(), 40, seed).generate();
            let back = swf::parse(&swf::emit(&orig), "rt", 1).unwrap();
            prop_assert_eq!(back.jobs.len(), orig.jobs.len());
            for (a, b) in orig.jobs.iter().zip(back.jobs.iter()) {
                prop_assert_eq!(a.nodes, b.nodes);
                prop_assert_eq!(a.runtime, b.runtime);
            }
        }
    }
}

// ------------------------------------------------------------------ stats

mod stats_tests {
    use super::*;
    use crate::LogProfile;

    #[test]
    fn profile_of_synthetic_log() {
        let log = LogSpec::new(SystemModel::theta(), 500, 21)
            .comm_percent(60)
            .generate();
        let p = LogProfile::new(&log, SystemModel::theta().total_nodes);
        assert_eq!(p.jobs, 500);
        assert!(p.nodes_min >= 128 && p.nodes_max <= 512);
        assert!((p.comm_percent - 60.0).abs() < 1.0);
        assert!(p.runtime_min >= 60 && p.runtime_max <= 86_400);
        assert!(p.offered_load > 0.0);
        assert!(p.span > 0);
        // Histogram covers every job exactly once.
        let total: usize = p.size_histogram.iter().map(|&(_, c)| c).sum();
        assert_eq!(total, 500);
        // Rendering mentions the key facts.
        let text = p.render();
        assert!(text.contains("500 jobs"));
        assert!(text.contains("communication-intensive"));
    }

    #[test]
    fn profile_of_empty_log() {
        let log = JobLog::new("empty", vec![]);
        let p = LogProfile::new(&log, 100);
        assert_eq!(p.jobs, 0);
        assert_eq!(p.span, 0);
        assert_eq!(p.offered_load, 0.0);
        assert!(p.size_histogram.is_empty());
    }

    /// Two jobs of 4·10^10 nodes × 10^11 s: 8·10^21 node-seconds, past
    /// `u64::MAX`. The sums saturate instead of wrapping (or trapping).
    #[test]
    fn node_seconds_saturate_on_a_hostile_log() {
        let line = |id, submit| {
            format!(
                "{id} {submit} -1 100000000000 40000000000 -1 -1 40000000000 \
                 100000000000 -1 1 -1 -1 -1 -1 -1 -1 -1\n"
            )
        };
        let text = line(1, 0) + &line(2, 10);
        let log = swf::parse(&text, "hostile", 1).unwrap();
        let saturated = u64::MAX as f64 / 3600.0;
        assert_eq!(log.total_node_hours(), saturated);
        let p = LogProfile::new(&log, 4392);
        assert_eq!(p.total_node_hours, saturated);
        assert_eq!(p.offered_load, u64::MAX as f64 / (4392.0 * 10.0));
    }

    #[test]
    fn offered_load_reflects_saturation() {
        // Same jobs, half the machine: load doubles.
        let log = LogSpec::new(SystemModel::theta(), 300, 5).generate();
        let full = LogProfile::new(&log, 4392).offered_load;
        let half = LogProfile::new(&log, 2196).offered_load;
        assert!((half / full - 2.0).abs() < 1e-9);
    }
}

// ------------------------------------------------------------ fault traces

mod fault_traces {
    use crate::fault::{FaultEvent, FaultKind, FaultTrace};

    #[test]
    fn parse_emit_round_trip() {
        let text = "\
# a comment
10 3 fail

20 3 recover   # trailing comment
15 0 drain
";
        let trace = FaultTrace::parse(text).unwrap();
        assert_eq!(trace.events().len(), 3);
        // Canonical order: by (t, node, kind).
        assert_eq!(
            trace.events()[0],
            FaultEvent {
                t: 10,
                node: 3,
                kind: FaultKind::Fail
            }
        );
        assert_eq!(trace.events()[1].t, 15);
        let reparsed = FaultTrace::parse(&trace.emit()).unwrap();
        assert_eq!(trace, reparsed);
    }

    #[test]
    fn parse_errors_carry_line_and_field() {
        let err = FaultTrace::parse("10 3 fail\nnope 0 fail").unwrap_err();
        assert_eq!(err.line, Some(2));
        assert_eq!(err.field, Some("time"));

        let err = FaultTrace::parse("10 x fail").unwrap_err();
        assert_eq!(err.field, Some("target"));

        let err = FaultTrace::parse("10 3 explode").unwrap_err();
        assert_eq!(err.field, Some("kind"));
        assert!(err.to_string().contains("line 1"));

        let err = FaultTrace::parse("10 3").unwrap_err();
        assert_eq!(err.field, Some("kind"));

        let err = FaultTrace::parse("10 3 fail extra").unwrap_err();
        assert!(err.message.contains("trailing"));
    }

    #[test]
    fn mtbf_generator_is_deterministic_and_well_formed() {
        let a = FaultTrace::mtbf(16, 5_000.0, 600.0, 50_000, 42).unwrap();
        let b = FaultTrace::mtbf(16, 5_000.0, 600.0, 50_000, 42).unwrap();
        assert_eq!(a, b);
        let c = FaultTrace::mtbf(16, 5_000.0, 600.0, 50_000, 43).unwrap();
        assert_ne!(a, c);
        assert!(
            !a.events().is_empty(),
            "a 10x-horizon MTBF should produce churn"
        );

        // Sorted canonically, every fail inside the horizon, and per node
        // the events alternate fail/recover starting with fail.
        let events = a.events();
        for w in events.windows(2) {
            assert!((w[0].t, w[0].node, w[0].kind) <= (w[1].t, w[1].node, w[1].kind));
        }
        for node in 0..16 {
            let mine: Vec<_> = events.iter().filter(|e| e.node == node).collect();
            for (i, e) in mine.iter().enumerate() {
                let expect = if i % 2 == 0 {
                    FaultKind::Fail
                } else {
                    FaultKind::Recover
                };
                assert_eq!(e.kind, expect, "node {node} event {i}");
            }
            for e in &mine {
                if e.kind == FaultKind::Fail {
                    assert!(e.t < 50_000);
                }
            }
        }
    }

    #[test]
    fn mtbf_rejects_degenerate_parameters() {
        assert!(FaultTrace::mtbf(4, 0.0, 600.0, 1000, 1).is_err());
        assert!(FaultTrace::mtbf(4, -5.0, 600.0, 1000, 1).is_err());
        assert!(FaultTrace::mtbf(4, f64::NAN, 600.0, 1000, 1).is_err());
        assert!(FaultTrace::mtbf(4, 5000.0, f64::INFINITY, 1000, 1).is_err());
        // Zero nodes or zero horizon is legal and empty.
        assert!(FaultTrace::mtbf(0, 5000.0, 600.0, 1000, 1)
            .unwrap()
            .events()
            .is_empty());
        assert!(FaultTrace::mtbf(4, 5000.0, 600.0, 0, 1)
            .unwrap()
            .events()
            .is_empty());
    }

    #[test]
    fn parse_switch_and_link_domains_round_trip() {
        use crate::fault::FaultDomain;
        let text = "\
100 switch:2 down
200 link:5 degrade 250
300 link:5 restore
400 switch:2 up
500 7 fail
";
        let trace = FaultTrace::parse(text).unwrap();
        assert_eq!(trace.events().len(), 5);
        assert!(trace.has_domain(FaultDomain::Node));
        assert!(trace.has_domain(FaultDomain::Switch));
        assert!(trace.has_domain(FaultDomain::Link));
        assert_eq!(
            trace.events()[1].kind,
            FaultKind::LinkDegrade { permille: 250 }
        );
        assert_eq!(trace.events()[0].kind, FaultKind::SwitchDown);
        let reparsed = FaultTrace::parse(&trace.emit()).unwrap();
        assert_eq!(trace, reparsed);
        // Node events still emit in the PR-3 bare-ordinal format.
        assert!(trace.emit().contains("500 7 fail"));
    }

    #[test]
    fn parse_rejects_bad_domain_lines() {
        // Wrong kind for the domain.
        assert!(FaultTrace::parse("10 switch:0 fail").is_err());
        assert!(FaultTrace::parse("10 link:0 down").is_err());
        assert!(FaultTrace::parse("10 node:0 degrade 500").is_err());
        // Degrade needs an in-range permille argument.
        assert!(FaultTrace::parse("10 link:0 degrade").is_err());
        assert!(FaultTrace::parse("10 link:0 degrade 0").is_err());
        assert!(FaultTrace::parse("10 link:0 degrade 1001").is_err());
        assert!(FaultTrace::parse("10 link:0 degrade 500 junk").is_err());
        // Unknown prefix.
        assert!(FaultTrace::parse("10 rack:0 fail").is_err());
    }

    #[test]
    fn parse_rejects_overlapping_down_intervals() {
        use crate::fault::FaultTraceErrorKind;
        // A second `fail` while node 3 is still down is a typed overlap.
        let err = FaultTrace::parse("10 3 fail\n20 3 fail").unwrap_err();
        assert_eq!(err.kind, FaultTraceErrorKind::Overlap);
        assert!(err.to_string().contains("already down"));
        // Same for switches.
        let err = FaultTrace::parse("10 switch:1 down\n20 switch:1 down").unwrap_err();
        assert_eq!(err.kind, FaultTraceErrorKind::Overlap);
        // Down → up → down again is fine.
        assert!(FaultTrace::parse("10 3 fail\n20 3 recover\n30 3 fail").is_ok());
        assert!(FaultTrace::parse("10 switch:1 down\n20 switch:1 up\n30 switch:1 down").is_ok());
        // Different targets (or domains) never overlap each other: node 1
        // and switch 1 are distinct streams.
        assert!(FaultTrace::parse("10 1 fail\n20 switch:1 down").is_ok());
        // Drains and link events are not down intervals.
        assert!(FaultTrace::parse("10 3 drain\n20 3 drain").is_ok());
        assert!(FaultTrace::parse("10 link:0 degrade 500\n20 link:0 degrade 250").is_ok());
    }

    #[test]
    fn validate_machine_checks_every_domain() {
        let trace =
            FaultTrace::parse("10 7 fail\n20 switch:4 down\n30 link:63 degrade 500").unwrap();
        assert!(trace.validate_machine(8, 5, 64).is_ok());
        assert!(trace.validate_machine(7, 5, 64).is_err());
        assert!(trace.validate_machine(8, 4, 64).is_err());
        assert!(trace.validate_machine(8, 5, 63).is_err());
    }

    #[test]
    fn switch_and_link_generators_are_deterministic_and_valid() {
        use crate::fault::FaultDomain;
        let a = FaultTrace::switch_mtbf(6, 5, 40_000.0, 5_000.0, 2_000_000, 9).unwrap();
        let b = FaultTrace::switch_mtbf(6, 5, 40_000.0, 5_000.0, 2_000_000, 9).unwrap();
        assert_eq!(a, b);
        // The root never fails, and sparing it shifts no other switch's
        // schedule.
        let c = FaultTrace::switch_mtbf(6, 0, 40_000.0, 5_000.0, 2_000_000, 9).unwrap();
        assert!(a.events().iter().all(|e| e.node != 5));
        assert!(c.events().iter().any(|e| e.node == 5));
        let others = |t: &FaultTrace| -> Vec<_> {
            t.events()
                .iter()
                .filter(|e| e.node % 5 != 0)
                .copied()
                .collect()
        };
        assert_eq!(others(&a), others(&c));
        assert!(
            !a.events().is_empty(),
            "horizon long enough to draw outages"
        );
        assert!(a.events().iter().all(|e| e.domain() == FaultDomain::Switch));
        // Generated schedules never overlap, so they re-parse cleanly.
        assert!(FaultTrace::parse(&a.emit()).is_ok());

        let l = FaultTrace::link_degrade(16, 40_000.0, 5_000.0, 250, 2_000_000, 9).unwrap();
        let l2 = FaultTrace::link_degrade(16, 40_000.0, 5_000.0, 250, 2_000_000, 9).unwrap();
        assert_eq!(l, l2);
        assert!(!l.events().is_empty());
        assert!(l.events().iter().all(|e| e.domain() == FaultDomain::Link));
        assert!(l.events().iter().all(|e| matches!(
            e.kind,
            FaultKind::LinkDegrade { permille: 250 } | FaultKind::LinkRestore
        )));
        assert!(FaultTrace::link_degrade(16, 40_000.0, 5_000.0, 0, 2_000_000, 9).is_err());

        // Merging disjoint domains keeps every event and stays canonical.
        let merged = a.clone().merge(l.clone());
        assert_eq!(merged.events().len(), a.events().len() + l.events().len());
        assert!(FaultTrace::parse(&merged.emit()).is_ok());
    }
}

// --------------------------------------------------------------- swf fuzz

mod swf_fuzz {
    use super::swf;

    #[test]
    fn error_names_the_offending_field() {
        // 18 fields with a bad run_time (index 3).
        let line = "1 0 0 oops 4 -1 -1 4 100 -1 1 -1 -1 -1 -1 -1 -1 -1";
        let err = swf::parse(line, "t", 1).unwrap_err();
        assert_eq!(err.line, 1);
        assert_eq!(err.field, Some("run_time"));
        assert!(err.to_string().contains("field 'run_time'"));

        // Bad submit time (index 1).
        let line = "1 ? 0 10 4 -1 -1 4 100 -1 1 -1 -1 -1 -1 -1 -1 -1";
        let err = swf::parse(line, "t", 1).unwrap_err();
        assert_eq!(err.field, Some("submit_time"));
    }

    /// A time past 2^53 s, where `f64` seconds stop being exact, is an
    /// error naming its column; 2^53 itself parses.
    #[test]
    fn times_above_2_pow_53_name_their_field() {
        let line = |submit: u64, run: u64, req: u64| {
            format!("1 {submit} -1 {run} 4 -1 -1 4 {req} -1 1 -1 -1 -1 -1 -1 -1 -1")
        };
        let (max, over) = (1u64 << 53, (1u64 << 53) + 1);
        let log = swf::parse(&line(max, max, max), "t", 1).unwrap();
        assert_eq!(log.jobs[0].submit, max);
        assert_eq!(log.jobs[0].walltime, max);
        for (text, field) in [
            (line(over, 10, 10), "submit_time"),
            (line(0, over, 10), "run_time"),
            (line(0, 10, over), "requested_time"),
        ] {
            let err = swf::parse(&text, "t", 1).unwrap_err();
            assert_eq!((err.line, err.field), (1, Some(field)), "{err}");
            assert!(err.to_string().contains("above 2^53 s"), "{err}");
        }
    }

    #[test]
    fn truncated_and_garbage_lines_error_not_panic() {
        let cases: &[&str] = &[
            "1 2 3",                                         // truncated
            "only one",                                      // way short
            "\u{0} \u{1} \u{2}",                             // control garbage
            "1 0 0 10 4 -1 -1 4 100 -1 1 -1 -1 -1 -1 -1 -1", // 17 fields
            "NaN NaN NaN NaN NaN NaN NaN NaN NaN NaN NaN NaN NaN NaN NaN NaN NaN NaN",
            "9999999999999999999999999999 0 0 10 4 -1 -1 4 100 -1 1 -1 -1 -1 -1 -1 -1 -1",
        ];
        for case in cases {
            let res = swf::parse(case, "fuzz", 4);
            assert!(res.is_err(), "{case:?} should fail to parse");
        }
        // Comments, blank lines, and an empty document are fine.
        assert!(swf::parse("; header only\n\n", "ok", 4)
            .unwrap()
            .jobs
            .is_empty());
        // procs_per_node of zero is a typed error, not a panic.
        assert!(swf::parse("", "ok", 0).is_err());
    }

    #[test]
    fn fuzz_random_byte_lines_never_panic() {
        // Cheap deterministic fuzz: pseudo-random ASCII lines must either
        // parse or produce a typed SwfError, never panic.
        let mut x = 0x9E3779B97F4A7C15u64;
        for _ in 0..200 {
            let mut line = String::new();
            for _ in 0..40 {
                x = x
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let b = (x >> 33) as u8;
                line.push((b % 94 + 32) as char); // printable ASCII
            }
            let _ = swf::parse(&line, "fuzz", 4);
        }
    }
}

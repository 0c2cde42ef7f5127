use crate::*;

fn sample_events() -> Vec<Event> {
    let mut cap = Capture::new();
    let mut tr = Tracer::new(&mut cap);
    tr.emit(0, EventKind::JobSubmit { job: 3, nodes: 4 });
    tr.emit(0, EventKind::JobEligible { job: 3, attempt: 0 });
    tr.emit(
        0,
        EventKind::JobPlace {
            job: 3,
            attempt: 0,
            nodes: 4,
            cost_actual: 12.0,
            cost_default: 12.5,
        },
    );
    tr.emit(
        0,
        EventKind::JobStart {
            job: 3,
            attempt: 0,
            nodes: 4,
            backfilled: false,
        },
    );
    tr.emit(
        5_000_000,
        EventKind::Fault {
            node: 1,
            kind: FaultClass::Fail,
        },
    );
    tr.emit(
        5_000_000,
        EventKind::JobRequeue {
            job: 3,
            attempt: 0,
            resubmit_us: 6_000_000,
        },
    );
    tr.emit(
        9_000_000,
        EventKind::JobFinish {
            job: 3,
            attempt: 1,
            status: EndStatus::Completed,
        },
    );
    cap.events
}

#[test]
fn json_lines_have_fixed_key_order() {
    let ev = Event {
        t_us: 7,
        seq: 2,
        kind: EventKind::JobPlace {
            job: 1,
            attempt: 0,
            nodes: 8,
            cost_actual: 3.25,
            cost_default: 4.0,
        },
    };
    assert_eq!(
        ev.to_json_line(),
        "{\"t_us\":7,\"seq\":2,\"ev\":\"place\",\"job\":1,\"attempt\":0,\"nodes\":8,\
         \"cost_actual\":3.25,\"cost_default\":4.0}"
    );
    // Integral floats keep the .0 (serde_json convention); non-finite
    // values degrade to null rather than producing invalid JSON.
    let ev = Event {
        t_us: 0,
        seq: 0,
        kind: EventKind::NetRates {
            flows: 2,
            min_rate: 125.0e6,
            max_rate: f64::INFINITY,
        },
    };
    assert_eq!(
        ev.to_json_line(),
        "{\"t_us\":0,\"seq\":0,\"ev\":\"net_rates\",\"flows\":2,\
         \"min_rate\":125000000.0,\"max_rate\":null}"
    );
}

#[test]
fn class_mask_parse_and_filtering() {
    assert_eq!(ClassMask::parse("").unwrap(), ClassMask::ALL);
    assert_eq!(ClassMask::parse("all").unwrap(), ClassMask::ALL);
    assert_eq!(ClassMask::parse("job").unwrap(), ClassMask::JOB);
    let jf = ClassMask::parse("job, fault").unwrap();
    assert!(jf.contains(EventClass::Job));
    assert!(jf.contains(EventClass::Fault));
    assert!(!jf.contains(EventClass::Net));
    assert!(ClassMask::parse("bogus").is_err());

    // A masked tracer records only matching classes, renumbering densely.
    let mut cap = Capture::with_mask(ClassMask::FAULT);
    let mut tr = Tracer::new(&mut cap);
    tr.emit(1, EventKind::JobSubmit { job: 1, nodes: 1 });
    tr.emit(
        2,
        EventKind::Fault {
            node: 0,
            kind: FaultClass::Drain,
        },
    );
    tr.emit(
        3,
        EventKind::NetLinks {
            active: 1,
            saturated: 0,
        },
    );
    assert_eq!(tr.seq, 1);
    assert_eq!(cap.events.len(), 1);
    assert_eq!(cap.events[0].seq, 0);
    assert_eq!(cap.events[0].t_us, 2);
}

#[test]
fn null_recorder_records_nothing() {
    let mut null = NullRecorder;
    let mut tr = Tracer::new(&mut null);
    assert!(!tr.enabled(EventClass::Job));
    assert!(!tr.enabled(EventClass::Net));
    tr.emit(0, EventKind::JobReject { job: 9 });
    assert_eq!(tr.seq, 0);
}

#[test]
fn chrome_export_balances_spans() {
    let events = sample_events();
    let doc = chrome_trace(&events);
    assert!(doc.starts_with("{\"traceEvents\":["));
    assert!(doc.trim_end().ends_with('}'));
    // queued B/E pair + run#0 B / requeue E; run#1 finish arrives with no
    // matching B (the second eligible/start was not emitted here), so no
    // stray E may appear for it.
    let begins = doc.matches("\"ph\":\"B\"").count();
    let ends = doc.matches("\"ph\":\"E\"").count();
    assert_eq!(begins, ends);
    assert!(doc.contains("\"name\":\"queued\""));
    assert!(doc.contains("\"name\":\"run#0\""));
    assert!(doc.contains("fault:fail n1"));
}

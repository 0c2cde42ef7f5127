//! Deterministic, virtual-time structured event tracing.
//!
//! The simulators in this workspace are pure functions of their seeded
//! inputs; this crate makes their *internal decisions* observable without
//! giving up that purity. An [`Event`] is a virtual-time instant (`t_us`,
//! microseconds of simulated time) plus a sequence number and a typed
//! [`EventKind`] — job lifecycle transitions from the scheduling engine
//! (submit/eligible/place/start/finish/requeue/reject and node faults) and
//! flow-solver records from the network simulator (component solves, rate
//! recomputes, link saturation). Nothing in an event derives from wall
//! clocks, iteration order of unordered maps, or thread scheduling, so a
//! trace is a byte-identical artifact of the run it describes: the same
//! seed yields the same bytes at any thread count, which is what lets the
//! golden-trace conformance suite diff traces as test oracles.
//!
//! # Sinks
//!
//! Producers write through the [`Recorder`] trait:
//!
//! * [`NullRecorder`] — records nothing and masks every class, so an
//!   instrumented hot path costs a single integer test per event site.
//! * [`Capture`] — an in-memory `Vec<Event>`, for tests and for callers
//!   that post-process (e.g. Chrome export, or [`Capture::to_jsonl`]: one
//!   JSON object per line, in a fixed key order — see
//!   [`Event::to_json_line`]).
//!
//! The [`Tracer`] wrapper caches the recorder's [`ClassMask`] and assigns
//! sequence numbers, so engines test `tracer.enabled(class)` before doing
//! any tracing-only work.
//!
//! # Chrome export
//!
//! [`chrome_trace`] renders a captured event list in the Chrome
//! `trace_event` JSON format: load the file in `about:tracing` or
//! <https://ui.perfetto.dev> to see per-job queued/run spans on a shared
//! virtual timeline.

#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![cfg_attr(not(test), deny(clippy::panic, clippy::unreachable))]
#![deny(clippy::wildcard_enum_match_arm)]

mod chrome;
mod event;
mod recorder;

pub use chrome::chrome_trace;
pub use event::{EndStatus, Event, EventClass, EventKind, FaultClass};
pub use recorder::{Capture, ClassMask, NullRecorder, Recorder};

/// The producer-side handle: caches the sink's [`ClassMask`] and stamps
/// sequence numbers. With a [`NullRecorder`] every emit site reduces to
/// one masked-bit test.
pub struct Tracer<'r> {
    rec: &'r mut dyn Recorder,
    mask: ClassMask,
    seq: u64,
}

impl<'r> Tracer<'r> {
    /// A tracer feeding `rec`, with the mask the recorder advertises.
    pub fn new(rec: &'r mut dyn Recorder) -> Self {
        let mask = rec.mask();
        Tracer { rec, mask, seq: 0 }
    }

    /// Is any sink listening for `class`? Guard tracing-only computation
    /// (e.g. link-saturation scans) behind this.
    #[inline]
    pub fn enabled(&self, class: EventClass) -> bool {
        self.mask.contains(class)
    }

    /// Record `kind` at virtual time `t_us`, if its class is unmasked.
    /// Sequence numbers count only *recorded* events, so a filtered trace
    /// is still densely numbered.
    #[inline]
    pub fn emit(&mut self, t_us: u64, kind: EventKind) {
        if !self.mask.contains(kind.class()) {
            return;
        }
        let ev = Event {
            t_us,
            seq: self.seq,
            kind,
        };
        self.seq += 1;
        self.rec.record(&ev);
    }
}

#[cfg(test)]
mod tests;

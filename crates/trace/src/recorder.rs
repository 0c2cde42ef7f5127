//! Recorder sinks and the event-class mask.

use crate::event::{Event, EventClass};

/// A set of [`EventClass`]es a sink wants to receive.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClassMask(u8);

impl ClassMask {
    /// No classes — the zero-cost default.
    pub const NONE: ClassMask = ClassMask(0);
    /// Every class.
    pub const ALL: ClassMask = ClassMask(1 | 2 | 4);
    /// Job lifecycle events only.
    pub const JOB: ClassMask = ClassMask(1);
    /// Fault events only.
    pub(crate) const FAULT: ClassMask = ClassMask(2);
    /// Network-solver events only.
    pub(crate) const NET: ClassMask = ClassMask(4);

    /// Does the mask include `class`?
    #[inline]
    pub(crate) fn contains(self, class: EventClass) -> bool {
        self.0 & class.bit() != 0
    }

    /// Union of two masks.
    pub(crate) fn union(self, other: ClassMask) -> ClassMask {
        ClassMask(self.0 | other.0)
    }

    /// Parse a `--trace-filter` spec: comma-separated class names out of
    /// `job`, `fault`, `net`, or `all`. Empty input means `all`.
    pub fn parse(spec: &str) -> Result<ClassMask, String> {
        let spec = spec.trim();
        if spec.is_empty() {
            return Ok(ClassMask::ALL);
        }
        let mut mask = ClassMask::NONE;
        for part in spec.split(',') {
            mask = mask.union(match part.trim() {
                "job" | "jobs" => ClassMask::JOB,
                "fault" | "faults" => ClassMask::FAULT,
                "net" => ClassMask::NET,
                "all" => ClassMask::ALL,
                other => {
                    return Err(format!(
                        "unknown trace class {other:?} (job | fault | net | all)"
                    ))
                }
            });
        }
        Ok(mask)
    }
}

/// An event sink. [`crate::Tracer`] reads [`Recorder::mask`] once at
/// construction and filters before calling [`Recorder::record`], so a
/// sink only ever sees classes it asked for.
pub trait Recorder {
    /// Which event classes this sink wants. Defaults to all.
    fn mask(&self) -> ClassMask {
        ClassMask::ALL
    }

    /// Consume one event.
    fn record(&mut self, ev: &Event);
}

/// The zero-cost sink: masks everything, records nothing.
#[derive(Debug, Default, Clone, Copy)]
pub struct NullRecorder;

impl Recorder for NullRecorder {
    fn mask(&self) -> ClassMask {
        ClassMask::NONE
    }

    fn record(&mut self, _ev: &Event) {}
}

/// In-memory sink: keeps every event for post-processing.
#[derive(Debug, Default, Clone)]
pub struct Capture {
    mask: ClassMask,
    /// The recorded events, in emission order.
    pub events: Vec<Event>,
}

impl Capture {
    /// Capture all classes.
    pub fn new() -> Self {
        Capture {
            mask: ClassMask::ALL,
            events: Vec::new(),
        }
    }

    /// Capture only the classes in `mask`.
    pub fn with_mask(mask: ClassMask) -> Self {
        Capture {
            mask,
            events: Vec::new(),
        }
    }

    /// The canonical JSONL rendering of the captured events: one
    /// [`Event::to_json_line`] per line, each newline-terminated.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for ev in &self.events {
            out.push_str(&ev.to_json_line());
            out.push('\n');
        }
        out
    }
}

impl Default for ClassMask {
    fn default() -> Self {
        ClassMask::ALL
    }
}

impl Recorder for Capture {
    fn mask(&self) -> ClassMask {
        self.mask
    }

    fn record(&mut self, ev: &Event) {
        self.events.push(*ev);
    }
}

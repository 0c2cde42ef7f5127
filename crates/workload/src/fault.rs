//! Fault traces: deterministic failure/recovery schedules over three
//! hierarchical fault domains.
//!
//! A [`FaultTrace`] is an ordered list of [`FaultEvent`]s consumed by the
//! simulation engine alongside a job log. Events target one of three
//! **fault domains** ([`FaultDomain`]):
//!
//! * **nodes** — `Fail`, `Recover` and `Drain` transitions, exactly the
//!   PR-3 model;
//! * **switches** — `SwitchDown`/`SwitchUp` transitions that take an entire
//!   subtree out of (and back into) service: one switch event is a
//!   *correlated* failure of every descendant node;
//! * **links** — `LinkDegrade`/`LinkRestore` transitions that reduce a
//!   directed link's capacity to `permille/1000` of nominal (and restore
//!   it), degrading communication instead of killing jobs.
//!
//! Traces come from two sources:
//!
//! * an **explicit event list**, parsed from a small text format
//!   ([`FaultTrace::parse`], one `<time> <target> <kind> [<arg>]` event per
//!   line) or built programmatically; or
//! * **seeded MTBF/MTTR generators** ([`FaultTrace::mtbf`],
//!   [`FaultTrace::switch_mtbf`], [`FaultTrace::link_degrade`]) that draw
//!   per-target exponential sequences from a ChaCha stream, so the same
//!   parameter tuple always yields the same churn regardless of thread
//!   count or platform. Compose domains with [`FaultTrace::merge`].
//!
//! Target indices are plain `usize` ordinals into the topology's node,
//! switch, or directed-link spaces; [`FaultTrace::validate_machine`]
//! range-checks them so a bad trace yields a typed error instead of an
//! index panic downstream.
#![deny(clippy::as_conversions, clippy::wildcard_enum_match_arm)]

use commsched_num::u64_of_f64;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha12Rng;
use serde::Serialize;
use std::collections::BTreeMap;
use std::fmt;

/// The topology stratum a fault event targets.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize)]
pub enum FaultDomain {
    /// A single compute node.
    Node,
    /// A switch: the event covers its entire subtree.
    Switch,
    /// A directed network link.
    Link,
}

impl fmt::Display for FaultDomain {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            FaultDomain::Node => "node",
            FaultDomain::Switch => "switch",
            FaultDomain::Link => "link",
        })
    }
}

/// What happens to the target at the event instant.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub enum FaultKind {
    /// The node fails hard: any job running on it is killed.
    #[default]
    Fail,
    /// The node returns to service.
    Recover,
    /// The node is drained: it leaves service once its current job (if any)
    /// finishes; no job is killed.
    Drain,
    /// The switch fails hard: every job with a node in its subtree is
    /// killed and all descendant nodes leave service (correlated failure).
    SwitchDown,
    /// The switch (and every descendant node that did not fail on its own)
    /// returns to service.
    SwitchUp,
    /// The directed link's capacity drops to `permille/1000` of nominal
    /// (1..=1000). A second degrade on an already-degraded link *updates*
    /// the factor. No job is killed; communication slows down.
    LinkDegrade {
        /// New capacity in thousandths of nominal, 1..=1000.
        permille: u32,
    },
    /// The directed link returns to nominal capacity.
    LinkRestore,
}

impl FaultKind {
    /// The fault domain this kind applies to.
    pub(crate) fn domain(self) -> FaultDomain {
        match self {
            FaultKind::Fail | FaultKind::Recover | FaultKind::Drain => FaultDomain::Node,
            FaultKind::SwitchDown | FaultKind::SwitchUp => FaultDomain::Switch,
            FaultKind::LinkDegrade { .. } | FaultKind::LinkRestore => FaultDomain::Link,
        }
    }
}

impl fmt::Display for FaultKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            FaultKind::Fail => "fail",
            FaultKind::Recover => "recover",
            FaultKind::Drain => "drain",
            FaultKind::SwitchDown => "down",
            FaultKind::SwitchUp => "up",
            FaultKind::LinkDegrade { .. } => "degrade",
            FaultKind::LinkRestore => "restore",
        })
    }
}

// Hand-written: the vendored serde derive covers unit variants only, and
// `LinkDegrade` carries its permille. Unit kinds render as their
// [`fmt::Display`] token; a degrade renders as `{"degrade": permille}`.
impl Serialize for FaultKind {
    fn to_json_value(&self) -> serde::Value {
        match self {
            FaultKind::LinkDegrade { permille } => {
                serde::Value::Object(vec![("degrade".to_string(), permille.to_json_value())])
            }
            FaultKind::Fail
            | FaultKind::Recover
            | FaultKind::Drain
            | FaultKind::SwitchDown
            | FaultKind::SwitchUp
            | FaultKind::LinkRestore => serde::Value::String(self.to_string()),
        }
    }
}
/// One fault transition at virtual time `t` (seconds).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize)]
pub struct FaultEvent {
    /// Virtual time of the transition, seconds since the run origin.
    pub t: u64,
    /// Target ordinal (0-based) in the domain implied by `kind`: a node
    /// ordinal for node kinds, a switch id for switch kinds, a directed
    /// link id for link kinds. Named `node` for backward compatibility
    /// with the PR-3 node-only model.
    pub node: usize,
    /// Transition kind (also fixes the target's [`FaultDomain`]).
    pub kind: FaultKind,
}

impl FaultEvent {
    /// The fault domain of this event's target.
    pub(crate) fn domain(&self) -> FaultDomain {
        self.kind.domain()
    }
}

/// Classification of a [`FaultTraceError`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum FaultTraceErrorKind {
    /// The text did not parse (bad field, unknown kind, garbage).
    Syntax,
    /// The trace is well-formed but names an impossible machine element or
    /// parameter (out-of-range target, non-positive MTBF, bad permille).
    Semantic,
    /// Two down intervals for the same target overlap: a `fail` (or
    /// `down`) arrives while the target is already down, so the earlier
    /// interval has no matching `recover`/`up`.
    Overlap,
}

/// A malformed or out-of-range fault trace, with source context.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultTraceError {
    /// What class of error this is.
    pub kind: FaultTraceErrorKind,
    /// 1-based source line for parse errors; `None` for semantic errors.
    pub line: Option<usize>,
    /// Offending field (`"time"`, `"target"`, `"kind"`, ...), when known.
    pub field: Option<&'static str>,
    /// Human-readable description.
    pub message: String,
}

impl fmt::Display for FaultTraceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "fault trace")?;
        if let Some(line) = self.line {
            write!(f, " line {line}")?;
        }
        if let Some(field) = self.field {
            write!(f, " field '{field}'")?;
        }
        write!(f, ": {}", self.message)
    }
}

impl std::error::Error for FaultTraceError {}

impl FaultTraceError {
    fn at(line: usize, field: &'static str, message: impl Into<String>) -> Self {
        FaultTraceError {
            kind: FaultTraceErrorKind::Syntax,
            line: Some(line),
            field: Some(field),
            message: message.into(),
        }
    }

    fn semantic(message: impl Into<String>) -> Self {
        FaultTraceError {
            kind: FaultTraceErrorKind::Semantic,
            line: None,
            field: None,
            message: message.into(),
        }
    }

    fn overlap(message: impl Into<String>) -> Self {
        FaultTraceError {
            kind: FaultTraceErrorKind::Overlap,
            line: None,
            field: None,
            message: message.into(),
        }
    }
}

/// An ordered schedule of fault events across all three domains.
///
/// Events are kept sorted by `(t, target, kind)` so consumption order — and
/// therefore every downstream simulation — is deterministic even when the
/// trace was assembled out of order. At equal `(t, target)` a `Fail` sorts
/// before a `Recover`, so a zero-length outage is processed fail-first.
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize)]
pub struct FaultTrace {
    events: Vec<FaultEvent>,
}

impl FaultTrace {
    /// A trace with no events (the failure-free default).
    pub fn empty() -> Self {
        FaultTrace { events: Vec::new() }
    }

    /// Build from an arbitrary event list; events are sorted and
    /// de-duplicated into canonical order.
    pub fn new(mut events: Vec<FaultEvent>) -> Self {
        events.sort_unstable();
        events.dedup();
        FaultTrace { events }
    }

    /// The events in canonical `(t, target, kind)` order.
    pub fn events(&self) -> &[FaultEvent] {
        &self.events
    }

    /// True if any event targets the given domain.
    pub fn has_domain(&self, domain: FaultDomain) -> bool {
        self.events.iter().any(|e| e.domain() == domain)
    }

    /// Merge two traces into one canonical schedule.
    pub fn merge(self, other: FaultTrace) -> FaultTrace {
        let mut events = self.events;
        events.extend(other.events);
        FaultTrace::new(events)
    }

    /// Range-check every event against a machine with `num_nodes` nodes,
    /// `num_switches` switches and `num_links` directed links.
    pub fn validate_machine(
        &self,
        num_nodes: usize,
        num_switches: usize,
        num_links: usize,
    ) -> Result<(), FaultTraceError> {
        for e in &self.events {
            let (bound, what) = match e.domain() {
                FaultDomain::Node => (num_nodes, "nodes"),
                FaultDomain::Switch => (num_switches, "switches"),
                FaultDomain::Link => (num_links, "directed links"),
            };
            if e.node >= bound {
                return Err(FaultTraceError::semantic(format!(
                    "event at t={} names {} {} but the machine has {} {}",
                    e.t,
                    e.domain(),
                    e.node,
                    bound,
                    what
                )));
            }
            if let FaultKind::LinkDegrade { permille } = e.kind {
                if !(1..=1000).contains(&permille) {
                    return Err(FaultTraceError::semantic(format!(
                        "event at t={} degrades link {} to {} permille; must be 1..=1000 \
                         (a dead link is a switch/node failure, not a degrade)",
                        e.t, e.node, permille
                    )));
                }
            }
        }
        Ok(())
    }

    /// Reject overlapping down intervals: a second `fail` on an
    /// already-failed node, or a second `down` on an already-down switch,
    /// means the earlier interval is missing its `recover`/`up` and the
    /// trace would silently churn state. Link re-degrades are legal (they
    /// update the factor) and drains are idempotent, so neither is checked.
    fn check_overlaps(&self) -> Result<(), FaultTraceError> {
        // Sorted by (t, target, kind), so each (domain, target) stream is
        // visited in time order.
        let mut down_since: BTreeMap<(FaultDomain, usize), u64> = BTreeMap::new();
        for e in &self.events {
            let key = (e.domain(), e.node);
            match e.kind {
                FaultKind::Fail | FaultKind::SwitchDown => {
                    if let Some(&t0) = down_since.get(&key) {
                        return Err(FaultTraceError::overlap(format!(
                            "{} {} goes down at t={} but is already down since t={} \
                             (overlapping down intervals; missing {})",
                            e.domain(),
                            e.node,
                            e.t,
                            t0,
                            if e.domain() == FaultDomain::Switch {
                                "up"
                            } else {
                                "recover"
                            }
                        )));
                    }
                    down_since.insert(key, e.t);
                }
                FaultKind::Recover | FaultKind::SwitchUp => {
                    down_since.remove(&key);
                }
                FaultKind::Drain | FaultKind::LinkDegrade { .. } | FaultKind::LinkRestore => {}
            }
        }
        Ok(())
    }

    /// Parse the text format: one event per line, blank lines and `#`
    /// comments ignored. Each line is `<time> <target> <kind> [<arg>]`:
    ///
    /// ```text
    /// # time target kind
    /// 120  7         fail          # node 7 fails (bare ordinal = node)
    /// 240  node:7    recover       # explicit node prefix also accepted
    /// 300  switch:2  down          # switch 2 and its whole subtree fail
    /// 600  switch:2  up
    /// 700  link:13   degrade 500   # directed link 13 at 50.0% capacity
    /// 900  link:13   restore
    /// ```
    ///
    /// The PR-3 node-only format (`<time> <node> <fail|recover|drain>`) is
    /// a strict subset. Overlapping down intervals for the same target are
    /// rejected with a [`FaultTraceErrorKind::Overlap`] error.
    pub fn parse(text: &str) -> Result<Self, FaultTraceError> {
        let mut events = Vec::new();
        for (i, raw) in text.lines().enumerate() {
            let lineno = i + 1;
            let line = raw.split('#').next().unwrap_or("").trim();
            if line.is_empty() {
                continue;
            }
            let mut fields = line.split_whitespace();
            let t_str = fields
                .next()
                .ok_or_else(|| FaultTraceError::at(lineno, "time", "missing time"))?;
            let t: u64 = t_str.parse().map_err(|_| {
                FaultTraceError::at(lineno, "time", format!("'{t_str}' is not a u64"))
            })?;
            let target_str = fields
                .next()
                .ok_or_else(|| FaultTraceError::at(lineno, "target", "missing target ordinal"))?;
            let (domain, ord_str) = match target_str.split_once(':') {
                Some(("node", rest)) => (FaultDomain::Node, rest),
                Some(("switch", rest)) => (FaultDomain::Switch, rest),
                Some(("link", rest)) => (FaultDomain::Link, rest),
                Some((prefix, _)) => {
                    return Err(FaultTraceError::at(
                        lineno,
                        "target",
                        format!("'{prefix}' is not one of node|switch|link"),
                    ));
                }
                None => (FaultDomain::Node, target_str),
            };
            let node: usize = ord_str.parse().map_err(|_| {
                FaultTraceError::at(
                    lineno,
                    "target",
                    format!("'{ord_str}' is not a {domain} ordinal"),
                )
            })?;
            let kind_str = fields
                .next()
                .ok_or_else(|| FaultTraceError::at(lineno, "kind", "missing event kind"))?;
            let kind = match (domain, kind_str) {
                (FaultDomain::Node, "fail") => FaultKind::Fail,
                (FaultDomain::Node, "recover") => FaultKind::Recover,
                (FaultDomain::Node, "drain") => FaultKind::Drain,
                (FaultDomain::Node, other) => {
                    return Err(FaultTraceError::at(
                        lineno,
                        "kind",
                        format!("'{other}' is not one of fail|recover|drain for a node target"),
                    ));
                }
                (FaultDomain::Switch, "down") => FaultKind::SwitchDown,
                (FaultDomain::Switch, "up") => FaultKind::SwitchUp,
                (FaultDomain::Switch, other) => {
                    return Err(FaultTraceError::at(
                        lineno,
                        "kind",
                        format!("'{other}' is not one of down|up for a switch target"),
                    ));
                }
                (FaultDomain::Link, "degrade") => {
                    let p_str = fields.next().ok_or_else(|| {
                        FaultTraceError::at(
                            lineno,
                            "permille",
                            "degrade needs a permille (1..=1000)",
                        )
                    })?;
                    let permille: u32 = p_str.parse().map_err(|_| {
                        FaultTraceError::at(
                            lineno,
                            "permille",
                            format!("'{p_str}' is not a permille (1..=1000)"),
                        )
                    })?;
                    if !(1..=1000).contains(&permille) {
                        return Err(FaultTraceError::at(
                            lineno,
                            "permille",
                            format!("permille {permille} out of range 1..=1000"),
                        ));
                    }
                    FaultKind::LinkDegrade { permille }
                }
                (FaultDomain::Link, "restore") => FaultKind::LinkRestore,
                (FaultDomain::Link, other) => {
                    return Err(FaultTraceError::at(
                        lineno,
                        "kind",
                        format!("'{other}' is not one of degrade|restore for a link target"),
                    ));
                }
            };
            if let Some(extra) = fields.next() {
                return Err(FaultTraceError::at(
                    lineno,
                    "kind",
                    format!("trailing garbage '{extra}' after event"),
                ));
            }
            events.push(FaultEvent { t, node, kind });
        }
        let trace = FaultTrace::new(events);
        trace.check_overlaps()?;
        Ok(trace)
    }

    /// Render in the [`FaultTrace::parse`] text format. Node events keep
    /// the PR-3 bare-ordinal form; switch/link events use prefixed targets.
    pub fn emit(&self) -> String {
        let mut out = String::from("# time target kind\n");
        for e in &self.events {
            match e.kind {
                FaultKind::Fail | FaultKind::Recover | FaultKind::Drain => {
                    out.push_str(&format!("{} {} {}\n", e.t, e.node, e.kind));
                }
                FaultKind::SwitchDown | FaultKind::SwitchUp => {
                    out.push_str(&format!("{} switch:{} {}\n", e.t, e.node, e.kind));
                }
                FaultKind::LinkDegrade { permille } => {
                    out.push_str(&format!("{} link:{} degrade {}\n", e.t, e.node, permille));
                }
                FaultKind::LinkRestore => {
                    out.push_str(&format!("{} link:{} restore\n", e.t, e.node));
                }
            }
        }
        out
    }

    /// Generate a seeded MTBF/MTTR node-churn schedule over `[0, horizon)`.
    ///
    /// Each node alternates exponential up-times (mean `mtbf_secs`) and
    /// down-times (mean `mttr_secs`), sampled node-by-node in ordinal order
    /// from one ChaCha12 stream seeded with `seed` — fully deterministic.
    /// Every `Fail` that lands inside the horizon is paired with its
    /// `Recover` (which may land beyond the horizon, so a run that outlives
    /// the horizon still gets its nodes back).
    pub fn mtbf(
        num_nodes: usize,
        mtbf_secs: f64,
        mttr_secs: f64,
        horizon: u64,
        seed: u64,
    ) -> Result<Self, FaultTraceError> {
        let events = churn_events(
            num_nodes,
            mtbf_secs,
            mttr_secs,
            horizon,
            seed,
            |t, node, up| FaultEvent {
                t,
                node,
                kind: if up {
                    FaultKind::Recover
                } else {
                    FaultKind::Fail
                },
            },
        )?;
        Ok(FaultTrace::new(events))
    }

    /// Generate a seeded MTBF/MTTR *switch*-churn schedule over
    /// `[0, horizon)` — the correlated-failure generator: each
    /// `SwitchDown` takes the switch's entire subtree out of service when
    /// applied, so one draw fails many nodes at once.
    ///
    /// Same sampling discipline as [`FaultTrace::mtbf`], switch-by-switch
    /// over ordinals `0..num_switches`. The switch `root` never fails, so
    /// the whole machine never goes dark: its events are dropped after the
    /// draws, which therefore leave every other switch's schedule as is.
    pub fn switch_mtbf(
        num_switches: usize,
        root: usize,
        mtbf_secs: f64,
        mttr_secs: f64,
        horizon: u64,
        seed: u64,
    ) -> Result<Self, FaultTraceError> {
        let events = churn_events(
            num_switches,
            mtbf_secs,
            mttr_secs,
            horizon,
            seed,
            |t, node, up| FaultEvent {
                t,
                node,
                kind: if up {
                    FaultKind::SwitchUp
                } else {
                    FaultKind::SwitchDown
                },
            },
        )?;
        Ok(FaultTrace::new(
            events.into_iter().filter(|e| e.node != root).collect(),
        ))
    }

    /// Generate a seeded link-degradation schedule over `[0, horizon)`:
    /// each directed link alternates exponential healthy periods (mean
    /// `mtbf_secs`) and degraded periods (mean `mttr_secs`) at
    /// `permille/1000` of nominal capacity.
    pub fn link_degrade(
        num_links: usize,
        mtbf_secs: f64,
        mttr_secs: f64,
        permille: u32,
        horizon: u64,
        seed: u64,
    ) -> Result<Self, FaultTraceError> {
        if !(1..=1000).contains(&permille) {
            return Err(FaultTraceError::semantic(format!(
                "link degrade permille must be 1..=1000, got {permille}"
            )));
        }
        let events = churn_events(
            num_links,
            mtbf_secs,
            mttr_secs,
            horizon,
            seed,
            |t, node, up| FaultEvent {
                t,
                node,
                kind: if up {
                    FaultKind::LinkRestore
                } else {
                    FaultKind::LinkDegrade { permille }
                },
            },
        )?;
        Ok(FaultTrace::new(events))
    }
}

/// Shared MTBF/MTTR alternation used by all three generators: per-target
/// exponential up/down sequences from one ChaCha12 stream. `mk(t, target,
/// up)` builds the domain-specific event (`up == false` for the outage
/// start, `true` for the repair).
fn churn_events(
    num_targets: usize,
    mtbf_secs: f64,
    mttr_secs: f64,
    horizon: u64,
    seed: u64,
    mk: impl Fn(u64, usize, bool) -> FaultEvent,
) -> Result<Vec<FaultEvent>, FaultTraceError> {
    if !(mtbf_secs.is_finite() && mtbf_secs > 0.0) {
        return Err(FaultTraceError::semantic(format!(
            "mtbf must be a positive finite number of seconds, got {mtbf_secs}"
        )));
    }
    if !(mttr_secs.is_finite() && mttr_secs > 0.0) {
        return Err(FaultTraceError::semantic(format!(
            "mttr must be a positive finite number of seconds, got {mttr_secs}"
        )));
    }
    let mut rng = ChaCha12Rng::seed_from_u64(seed);
    // Exponential draw: -mean * ln(1 - u), u uniform in [0, 1); at least
    // one second so virtual time always advances. Capped below 2^53 so the
    // f64 -> u64 conversion stays exact even for absurd means.
    let mut exp = |mean: f64| -> u64 {
        let u: f64 = rng.random();
        let secs = -mean * (1.0 - u).ln();
        u64_of_f64(secs.ceil().min(9.0e15)).max(1)
    };
    let mut events = Vec::new();
    for target in 0..num_targets {
        let mut t: u64 = 0;
        loop {
            t = t.saturating_add(exp(mtbf_secs));
            if t >= horizon {
                break;
            }
            events.push(mk(t, target, false));
            t = t.saturating_add(exp(mttr_secs));
            events.push(mk(t, target, true));
        }
    }
    Ok(events)
}

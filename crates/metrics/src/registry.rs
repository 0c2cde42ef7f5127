//! A named-metric registry snapshotting into a machine-readable
//! [`RunReport`].
//!
//! Producers write by name through three find-or-create accessors
//! ([`Registry::counter`] / [`Registry::gauge`] / [`Registry::hist`]); a
//! hot loop counts into plain numbers of its own and writes them once.
//! Each kind is a name-keyed map, so a [`Registry::snapshot`] is already
//! name-sorted and its JSON rendering is deterministic: same run, same
//! bytes, at any thread count.
//!
//! Histograms are [`LogHistogram`]s — power-of-two magnitude buckets plus
//! exact count/min/max/sum — chosen because they answer quantile queries
//! with bounded relative error, clamped to the observed `[min, max]`.

use commsched_num::f64_of_u64;
use serde_json::{Number, Value};
use std::collections::BTreeMap;

/// A histogram over power-of-two magnitude buckets.
///
/// Each finite sample lands in the bucket of its binary exponent (signed;
/// zero has its own bucket), and the exact `count`/`min`/`max`/`sum` ride
/// along. Non-finite samples are ignored.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct LogHistogram {
    count: u64,
    min: f64,
    max: f64,
    sum: f64,
    /// Bucket key → sample count. Keys order numerically: more-negative
    /// samples sort first, zero in the middle, larger positives last.
    buckets: BTreeMap<i32, u64>,
}

fn vu(v: u64) -> Value {
    Value::Number(Number::from_u64(v))
}

fn vi(v: i64) -> Value {
    Value::Number(Number::from_i64(v))
}

fn vf(v: f64) -> Value {
    Value::Number(Number::from_f64(v))
}

/// Bucket key of a finite sample: 0 for zero, `±(exponent + 1100)`
/// otherwise, so keys sort in numeric sample order.
fn bucket_key(x: f64) -> i32 {
    if x == 0.0 {
        return 0;
    }
    // IEEE-754 exponent extraction: deterministic across platforms, no
    // transcendental calls. Subnormals share the -1023 bucket.
    let bits = x.abs().to_bits();
    let exp = i32::try_from((bits >> 52) & 0x7ff).unwrap_or(0) - 1023;
    let mag = exp + 1100;
    if x > 0.0 {
        mag
    } else {
        -mag
    }
}

/// Upper edge of a bucket (the value a quantile query reports before
/// clamping to the observed range).
fn bucket_upper(key: i32) -> f64 {
    if key == 0 {
        return 0.0;
    }
    if key > 0 {
        2.0f64.powi(key - 1100 + 1)
    } else {
        -(2.0f64.powi(-key - 1100))
    }
}

impl LogHistogram {
    /// Record one sample. Non-finite samples are dropped.
    pub fn observe(&mut self, x: f64) {
        if !x.is_finite() {
            return;
        }
        if self.count == 0 {
            self.min = x;
            self.max = x;
        } else {
            self.min = self.min.min(x);
            self.max = self.max.max(x);
        }
        self.count += 1;
        self.sum += x;
        *self.buckets.entry(bucket_key(x)).or_insert(0) += 1;
    }

    /// Samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Smallest sample (0 when empty).
    #[cfg(test)]
    pub(crate) fn min(&self) -> f64 {
        self.min
    }

    /// Largest sample (0 when empty).
    #[cfg(test)]
    pub(crate) fn max(&self) -> f64 {
        self.max
    }

    /// Sum of samples.
    #[cfg(test)]
    pub(crate) fn sum(&self) -> f64 {
        self.sum
    }

    /// Mean of samples (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / f64_of_u64(self.count)
        }
    }

    /// The `q`-quantile (`q` clamped to `[0, 1]`): walk the buckets to the
    /// sample of rank `ceil(q·count)` and report that bucket's upper edge,
    /// clamped to the observed `[min, max]`. Exact at the extremes
    /// (`q=0` → min, `q=1` → max); within a power of two elsewhere.
    pub(crate) fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let q = q.clamp(0.0, 1.0);
        if q == 0.0 {
            return self.min;
        }
        let rank = (q * f64_of_u64(self.count)).ceil().max(1.0);
        let mut seen = 0.0f64;
        for (&key, &n) in &self.buckets {
            seen += f64_of_u64(n);
            if seen >= rank {
                return bucket_upper(key).clamp(self.min, self.max);
            }
        }
        self.max
    }

    fn to_value(&self) -> Value {
        Value::Object(vec![
            ("count".into(), vu(self.count)),
            ("min".into(), vf(self.min)),
            ("max".into(), vf(self.max)),
            ("sum".into(), vf(self.sum)),
            ("q0".into(), vf(self.quantile(0.0))),
            ("q50".into(), vf(self.quantile(0.5))),
            ("q100".into(), vf(self.quantile(1.0))),
            (
                "buckets".into(),
                Value::Array(
                    self.buckets
                        .iter()
                        .map(|(&k, &n)| Value::Array(vec![vi(i64::from(k)), vu(n)]))
                        .collect(),
                ),
            ),
        ])
    }

    fn from_value(v: &Value) -> Result<LogHistogram, String> {
        let field = |name: &str| -> Result<&Value, String> {
            v.get(name)
                .ok_or_else(|| format!("histogram missing {name}"))
        };
        let count = field("count")?
            .as_u64()
            .ok_or("histogram count not a u64")?;
        let num = |name: &str| -> Result<f64, String> {
            field(name)?
                .as_f64()
                .ok_or_else(|| format!("histogram {name} not a number"))
        };
        let mut buckets = BTreeMap::new();
        for entry in field("buckets")?
            .as_array()
            .ok_or("histogram buckets not an array")?
        {
            let pair = entry.as_array().ok_or("bucket entry not an array")?;
            let (Some(k), Some(n)) = (
                pair.first().and_then(Value::as_i64),
                pair.get(1).and_then(Value::as_u64),
            ) else {
                return Err("bucket entry not [key, count]".into());
            };
            let key = i32::try_from(k).map_err(|_| "bucket key out of range".to_string())?;
            buckets.insert(key, n);
        }
        Ok(LogHistogram {
            count,
            min: num("min")?,
            max: num("max")?,
            sum: num("sum")?,
            buckets,
        })
    }
}

/// The registry: named counters, gauges and histograms.
#[derive(Debug, Default)]
pub struct Registry {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, f64>,
    hists: BTreeMap<String, LogHistogram>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Registry::default()
    }

    /// The counter `name`, created at 0 if absent.
    pub fn counter(&mut self, name: &str) -> &mut u64 {
        self.counters.entry(name.to_string()).or_default()
    }

    /// The gauge `name`, created at 0 if absent.
    pub fn gauge(&mut self, name: &str) -> &mut f64 {
        self.gauges.entry(name.to_string()).or_default()
    }

    /// The histogram `name`, created empty if absent.
    pub fn hist(&mut self, name: &str) -> &mut LogHistogram {
        self.hists.entry(name.to_string()).or_default()
    }

    /// Current value of a counter, by name (tests and report assembly).
    pub fn counter_value(&self, name: &str) -> Option<u64> {
        self.counters.get(name).copied()
    }

    /// Snapshot into a name-sorted, serializable [`RunReport`].
    pub fn snapshot(&self) -> RunReport {
        RunReport {
            counters: self.counters.clone().into_iter().collect(),
            gauges: self.gauges.clone().into_iter().collect(),
            histograms: self.hists.clone().into_iter().collect(),
        }
    }
}

/// Report format version, bumped on breaking schema changes.
pub const RUN_REPORT_VERSION: u64 = 1;

/// A point-in-time snapshot of a [`Registry`], sorted by metric name, with
/// a deterministic JSON rendering.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct RunReport {
    /// `(name, value)` counters, name-sorted.
    pub counters: Vec<(String, u64)>,
    /// `(name, value)` gauges, name-sorted.
    pub gauges: Vec<(String, f64)>,
    /// `(name, histogram)` pairs, name-sorted.
    pub histograms: Vec<(String, LogHistogram)>,
}

impl RunReport {
    /// The report as a JSON value (objects keep insertion order, so the
    /// rendering is deterministic).
    fn to_value(&self) -> Value {
        Value::Object(vec![
            ("version".into(), vu(RUN_REPORT_VERSION)),
            (
                "counters".into(),
                Value::Object(
                    self.counters
                        .iter()
                        .map(|(n, v)| (n.clone(), vu(*v)))
                        .collect(),
                ),
            ),
            (
                "gauges".into(),
                Value::Object(
                    self.gauges
                        .iter()
                        .map(|(n, v)| (n.clone(), vf(*v)))
                        .collect(),
                ),
            ),
            (
                "histograms".into(),
                Value::Object(
                    self.histograms
                        .iter()
                        .map(|(n, h)| (n.clone(), h.to_value()))
                        .collect(),
                ),
            ),
        ])
    }

    /// Pretty-printed JSON with a trailing newline — the `--report-out`
    /// file format.
    pub fn to_json_pretty(&self) -> String {
        let mut s = serde_json::to_string_pretty(&self.to_value()).unwrap_or_default();
        s.push('\n');
        s
    }

    /// Rebuild a report from its JSON value (derived quantile fields are
    /// recomputed, not trusted).
    fn from_value(v: &Value) -> Result<RunReport, String> {
        let version = v
            .get("version")
            .and_then(Value::as_u64)
            .ok_or("report missing version")?;
        if version != RUN_REPORT_VERSION {
            return Err(format!(
                "unsupported report version {version} (expected {RUN_REPORT_VERSION})"
            ));
        }
        let entries = |name: &str| -> Result<&Vec<(String, Value)>, String> {
            match v.get(name) {
                Some(Value::Object(entries)) => Ok(entries),
                _ => Err(format!("report missing object {name}")),
            }
        };
        let mut counters = Vec::new();
        for (n, val) in entries("counters")? {
            counters.push((
                n.clone(),
                val.as_u64().ok_or_else(|| format!("counter {n} not u64"))?,
            ));
        }
        let mut gauges = Vec::new();
        for (n, val) in entries("gauges")? {
            gauges.push((
                n.clone(),
                val.as_f64()
                    .ok_or_else(|| format!("gauge {n} not a number"))?,
            ));
        }
        let mut histograms = Vec::new();
        for (n, val) in entries("histograms")? {
            histograms.push((n.clone(), LogHistogram::from_value(val)?));
        }
        Ok(RunReport {
            counters,
            gauges,
            histograms,
        })
    }

    /// Parse the `--report-out` file format.
    pub fn from_json(s: &str) -> Result<RunReport, String> {
        let v: Value = serde_json::from_str(s).map_err(|e| e.to_string())?;
        Self::from_value(&v)
    }
}

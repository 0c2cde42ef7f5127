//! Hostlist expression parser and canonical compressor.

use std::fmt;

/// Error produced when a hostlist expression is malformed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HostlistError {
    /// A `[` without a matching `]`, or vice versa.
    UnbalancedBracket(String),
    /// A range entry that is not a number or `lo-hi` pair.
    BadRange(String),
    /// A descending range such as `9-3`.
    DescendingRange(String),
    /// Empty expression or empty list entry.
    Empty,
    /// Expansion would exceed the safety cap.
    TooLarge { expr: String, cap: usize },
}

impl fmt::Display for HostlistError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::UnbalancedBracket(e) => write!(f, "unbalanced brackets in {e:?}"),
            Self::BadRange(e) => write!(f, "malformed range entry {e:?}"),
            Self::DescendingRange(e) => write!(f, "descending range {e:?}"),
            Self::Empty => write!(f, "empty hostlist expression"),
            Self::TooLarge { expr, cap } => {
                write!(f, "hostlist {expr:?} expands past the cap of {cap} hosts")
            }
        }
    }
}

impl std::error::Error for HostlistError {}

/// Safety cap on expansion size; larger than any real cluster so it only
/// trips on typos like `n[0-999999999]`.
const EXPANSION_CAP: usize = 4 << 20;

/// Expand a hostlist expression into explicit host names.
///
/// Order follows the expression left to right; duplicates are preserved
/// (SLURM behaves the same way and de-duplicates at a higher layer).
pub fn expand(expr: &str) -> Result<Vec<String>, HostlistError> {
    let expr = expr.trim();
    if expr.is_empty() {
        return Err(HostlistError::Empty);
    }
    let mut out = Vec::new();
    for term in split_top_level(expr)? {
        expand_term(term, &mut out)?;
        if out.len() > EXPANSION_CAP {
            return Err(HostlistError::TooLarge {
                expr: expr.to_string(),
                cap: EXPANSION_CAP,
            });
        }
    }
    Ok(out)
}

/// Split on commas that are *outside* brackets: `a[0-1],b2` -> `["a[0-1]", "b2"]`.
fn split_top_level(expr: &str) -> Result<Vec<&str>, HostlistError> {
    let mut terms = Vec::new();
    let mut depth = 0usize;
    let mut start = 0usize;
    for (i, c) in expr.char_indices() {
        match c {
            '[' => depth += 1,
            ']' => {
                depth = depth
                    .checked_sub(1)
                    .ok_or_else(|| HostlistError::UnbalancedBracket(expr.to_string()))?;
            }
            ',' if depth == 0 => {
                terms.push(&expr[start..i]);
                start = i + 1;
            }
            _ => {}
        }
    }
    if depth != 0 {
        return Err(HostlistError::UnbalancedBracket(expr.to_string()));
    }
    terms.push(&expr[start..]);
    Ok(terms)
}

fn expand_term(term: &str, out: &mut Vec<String>) -> Result<(), HostlistError> {
    let term = term.trim();
    if term.is_empty() {
        return Err(HostlistError::Empty);
    }
    let Some(open) = term.find('[') else {
        // Plain host name.
        if term.contains(']') {
            return Err(HostlistError::UnbalancedBracket(term.to_string()));
        }
        out.push(term.to_string());
        return Ok(());
    };
    // Split at the FIRST bracket group; any remaining groups in the suffix
    // are expanded recursively, so `r[0-1]c[0-2]` yields the cross product
    // like SLURM's hostlist does.
    let close = term[open..]
        .find(']')
        .map(|i| open + i)
        .ok_or_else(|| HostlistError::UnbalancedBracket(term.to_string()))?;
    let prefix = &term[..open];
    let body = &term[open + 1..close];
    let suffix = &term[close + 1..];
    if body.is_empty() {
        return Err(HostlistError::BadRange(term.to_string()));
    }
    let suffix_has_more = suffix.contains('[');
    if !suffix_has_more && suffix.contains(']') {
        return Err(HostlistError::UnbalancedBracket(term.to_string()));
    }
    for entry in body.split(',') {
        let entry = entry.trim();
        let (lo_s, hi_s) = match entry.split_once('-') {
            Some((l, h)) => (l, h),
            None => (entry, entry),
        };
        let lo: u64 = lo_s
            .parse()
            .map_err(|_| HostlistError::BadRange(entry.to_string()))?;
        let hi: u64 = hi_s
            .parse()
            .map_err(|_| HostlistError::BadRange(entry.to_string()))?;
        if hi < lo {
            return Err(HostlistError::DescendingRange(entry.to_string()));
        }
        // SLURM preserves the zero padding of the *low* endpoint.
        let width = if lo_s.starts_with('0') && lo_s.len() > 1 {
            lo_s.len()
        } else {
            0
        };
        if (hi - lo) as usize >= EXPANSION_CAP {
            return Err(HostlistError::TooLarge {
                expr: term.to_string(),
                cap: EXPANSION_CAP,
            });
        }
        for v in lo..=hi {
            if suffix_has_more {
                expand_term(&format!("{prefix}{v:0width$}{suffix}"), out)?;
            } else {
                out.push(format!("{prefix}{v:0width$}{suffix}"));
            }
            if out.len() > EXPANSION_CAP {
                return Err(HostlistError::TooLarge {
                    expr: term.to_string(),
                    cap: EXPANSION_CAP,
                });
            }
        }
    }
    Ok(())
}

/// A host split into `(prefix, numeric value, pad width, suffix)` for grouping.
fn split_host(host: &str) -> Option<(&str, u64, usize, &str)> {
    // Find the last run of ASCII digits; that is the index SLURM compresses.
    let bytes = host.as_bytes();
    let mut end = bytes.len();
    while end > 0 && !bytes[end - 1].is_ascii_digit() {
        end -= 1;
    }
    if end == 0 {
        return None;
    }
    let mut start = end;
    while start > 0 && bytes[start - 1].is_ascii_digit() {
        start -= 1;
    }
    let digits = &host[start..end];
    let value: u64 = digits.parse().ok()?;
    let width = if digits.starts_with('0') && digits.len() > 1 {
        digits.len()
    } else {
        0
    };
    Some((&host[..start], value, width, &host[end..]))
}

/// Compress explicit host names into a canonical hostlist expression.
///
/// Hosts that share a `(prefix, suffix, pad-width)` are grouped into one
/// bracket with sorted, de-duplicated, merged ranges. Groups are emitted in
/// sorted order of prefix, so the output is a canonical form: any two host
/// sets are equal iff their compressed strings are equal.
pub fn compress<S: AsRef<str>>(hosts: &[S]) -> String {
    use std::collections::BTreeMap;

    // (prefix, suffix, width) -> sorted values; non-numeric hosts verbatim.
    let mut groups: BTreeMap<(String, String, usize), Vec<u64>> = BTreeMap::new();
    let mut plain: Vec<String> = Vec::new();
    for h in hosts {
        let h = h.as_ref();
        match split_host(h) {
            Some((p, v, w, s)) => groups
                .entry((p.to_string(), s.to_string(), w))
                .or_default()
                .push(v),
            None => plain.push(h.to_string()),
        }
    }
    plain.sort();
    plain.dedup();

    let mut parts: Vec<String> = plain;
    for ((prefix, suffix, width), mut vals) in groups {
        vals.sort_unstable();
        vals.dedup();
        if vals.len() == 1 {
            parts.push(format!("{prefix}{:0w$}{suffix}", vals[0], w = width));
            continue;
        }
        let mut ranges: Vec<String> = Vec::new();
        let mut i = 0;
        while i < vals.len() {
            let mut j = i;
            while j + 1 < vals.len() && vals[j + 1] == vals[j] + 1 {
                j += 1;
            }
            if i == j {
                ranges.push(format!("{:0w$}", vals[i], w = width));
            } else {
                ranges.push(format!("{:0w$}-{:0w$}", vals[i], vals[j], w = width));
            }
            i = j + 1;
        }
        parts.push(format!("{prefix}[{}]{suffix}", ranges.join(",")));
    }
    parts.join(",")
}

//! Minimal argument parsing: `command [subcommand] [positional...]
//! [--flag value | --switch]...`, no external dependencies.

use std::collections::BTreeMap;
use std::fmt;

/// A parse failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct ArgError(pub String);

impl fmt::Display for ArgError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for ArgError {}

/// Parsed command line.
#[derive(Debug, Clone, Default)]
pub(crate) struct Parsed {
    /// First token ("topology", "run", ...). Empty if none given.
    pub command: String,
    /// Positional arguments after the command.
    pub positional: Vec<String>,
    /// `--key value` flags (every flag here takes a value).
    pub flags: BTreeMap<String, String>,
}

/// Flags that take no value.
const SWITCHES: &[&str] = &["--json", "--reject-oversized"];

impl Parsed {
    /// Parse raw arguments (program name already stripped).
    pub(crate) fn new(argv: &[String]) -> Result<Self, ArgError> {
        let mut parsed = Parsed::default();
        let mut it = argv.iter().peekable();
        parsed.command = it
            .next()
            .cloned()
            .ok_or_else(|| ArgError("no command given".into()))?;
        while let Some(tok) = it.next() {
            if let Some(name) = tok.strip_prefix("--") {
                if SWITCHES.contains(&tok.as_str()) {
                    parsed.flags.insert(name.to_string(), String::new());
                    continue;
                }
                let value = it
                    .next()
                    .ok_or_else(|| ArgError(format!("--{name} needs a value")))?;
                if value.starts_with("--") {
                    return Err(ArgError(format!("--{name} needs a value, got {value}")));
                }
                parsed.flags.insert(name.to_string(), value.clone());
            } else {
                parsed.positional.push(tok.clone());
            }
        }
        Ok(parsed)
    }

    /// A usage error naming every given flag not in `accepted`.
    pub(crate) fn reject_unknown(&self, accepted: &[&str]) -> Result<(), ArgError> {
        let unknown: Vec<String> = self
            .flags
            .keys()
            .filter(|flag| !accepted.contains(&flag.as_str()))
            .map(|flag| format!("--{flag}"))
            .collect();
        if unknown.is_empty() {
            Ok(())
        } else {
            let noun = if unknown.len() == 1 { "flag" } else { "flags" };
            Err(ArgError(format!(
                "unknown {noun} {} for `{}`",
                unknown.join(", "),
                self.command
            )))
        }
    }

    /// An optional `--flag`.
    pub(crate) fn get(&self, name: &str) -> Option<&str> {
        self.flags.get(name).map(String::as_str)
    }

    /// An optional parsed `--flag`, with a default.
    pub(crate) fn get_parsed<T: std::str::FromStr>(
        &self,
        name: &str,
        default: T,
    ) -> Result<T, String> {
        match self.flags.get(name) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("--{name}: cannot parse {v:?}")),
        }
    }

    /// Is a no-value switch present?
    pub(crate) fn switch(&self, name: &str) -> bool {
        self.flags.contains_key(name)
    }
}

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
    /// Parse raw arguments (program name already stripped). A flag given
    /// last or before another flag gets an empty value; the first such flag
    /// comes back by name with its "needs a value" error.
    pub(crate) fn new(argv: &[String]) -> Result<(Self, Option<(String, ArgError)>), ArgError> {
        let mut parsed = Parsed::default();
        let mut it = argv.iter().peekable();
        parsed.command = it
            .next()
            .cloned()
            .ok_or_else(|| ArgError("no command given".into()))?;
        let mut missing = None;
        while let Some(tok) = it.next() {
            if let Some(name) = tok.strip_prefix("--") {
                let value = if SWITCHES.contains(&tok.as_str()) {
                    String::new()
                } else if let Some(value) = it.next_if(|v| !v.starts_with("--")) {
                    value.clone()
                } else {
                    let got = it
                        .peek()
                        .map_or(String::new(), |next| format!(", got {next}"));
                    let error = ArgError(format!("--{name} needs a value{got}"));
                    missing.get_or_insert((name.to_string(), error));
                    String::new()
                };
                parsed.flags.insert(name.to_string(), value);
            } else {
                parsed.positional.push(tok.clone());
            }
        }
        Ok((parsed, missing))
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

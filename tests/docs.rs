//! Cross-references into the documents stay true.
//!
//! Four checks, each over files read relative to the package root:
//!
//! - every `DESIGN.md §N[.M]` cited in code, CI, lint configuration,
//!   README.md, ROADMAP.md or CHANGES.md names a DESIGN.md heading, so a
//!   section that is renumbered or folded away fails here instead of
//!   leaving a dangling pointer;
//! - every backticked name in the "property test that ties them" column
//!   of DESIGN.md §4.14's oracle table is a `fn` or `mod` somewhere in the
//!   workspace (`{a,b}` groups expanded, a trailing `*` a prefix), so an
//!   oracle test cannot be renamed or deleted behind the table's back;
//! - every CHANGES.md line is one entry that starts `PR <n>`, with `n`
//!   non-decreasing down the file;
//! - no CHANGES.md line runs past 1,500 characters: the full record of a
//!   change lives in git, and its entry names the commit.

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

fn root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

fn read(path: &Path) -> String {
    std::fs::read_to_string(path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

/// Every text file under `dir`, recursively, skipping build output.
/// Files that are not UTF-8 are skipped too.
fn text_files(dir: &Path, out: &mut Vec<(PathBuf, String)>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    let mut paths: Vec<PathBuf> = entries.flatten().map(|e| e.path()).collect();
    paths.sort();
    for path in paths {
        if path.is_dir() {
            if path.file_name().is_some_and(|n| n != "target") {
                text_files(&path, out);
            }
        } else if let Ok(text) = std::fs::read_to_string(&path) {
            out.push((path, text));
        }
    }
}

/// The section numbers DESIGN.md has headings for: `## 4.` gives `4`,
/// `### 4.11 …` gives `4.11`.
fn design_sections(design: &str) -> BTreeSet<String> {
    design
        .lines()
        .filter_map(|line| {
            let rest = line
                .strip_prefix("### ")
                .or_else(|| line.strip_prefix("## "))?;
            let number = rest.split_whitespace().next()?.trim_end_matches('.');
            let numeric = !number.is_empty()
                && number
                    .split('.')
                    .all(|p| !p.is_empty() && p.bytes().all(|b| b.is_ascii_digit()));
            numeric.then(|| number.to_string())
        })
        .collect()
}

/// A section number `N` or `N.M` at the start of `s`, if there is one.
fn section_number(s: &str) -> Option<&str> {
    let bytes = s.as_bytes();
    let mut end = 0;
    while end < bytes.len() {
        let dot_then_digit =
            end > 0 && bytes[end] == b'.' && bytes.get(end + 1).is_some_and(u8::is_ascii_digit);
        if !(bytes[end].is_ascii_digit() || dot_then_digit) {
            break;
        }
        end += 1;
    }
    (end > 0).then(|| &s[..end])
}

/// Every section cited as `DESIGN.md §N[.M]` in `text`, with the line of
/// its `DESIGN.md`. The `§` may follow on the next line of a comment, and
/// a list such as `DESIGN.md §4.1, §4.10` or `§4.1/§4.7` cites each member.
fn design_citations(text: &str) -> Vec<(usize, String)> {
    const NAME: &str = "DESIGN.md";
    let mut found = Vec::new();
    let mut from = 0;
    while let Some(at) = text[from..].find(NAME) {
        let start = from + at;
        from = start + NAME.len();
        let line = text[..start].matches('\n').count() + 1;
        // Whitespace and comment leaders may sit between the name and `§`.
        let mut rest = text[from..]
            .trim_start_matches(|c: char| c.is_whitespace() || matches!(c, '/' | '!' | '#'));
        while let Some(number) = rest.strip_prefix('§').and_then(section_number) {
            found.push((line, number.to_string()));
            rest = &rest['§'.len_utf8() + number.len()..];
            match [", ", "/", " and ", " + "]
                .iter()
                .find_map(|sep| rest.strip_prefix(sep))
            {
                Some(next) if next.starts_with('§') => rest = next,
                _ => break,
            }
        }
    }
    found
}

#[test]
fn design_citations_name_design_headings() {
    let root = root();
    let sections = design_sections(&read(&root.join("DESIGN.md")));
    assert!(
        sections.contains("4.14"),
        "DESIGN.md headings not found: {sections:?}"
    );

    let mut files = Vec::new();
    for dir in ["crates", "src", "tests", "examples", "vendor", ".github"] {
        text_files(&root.join(dir), &mut files);
    }
    for name in ["clippy.toml", "README.md", "ROADMAP.md", "CHANGES.md"] {
        let path = root.join(name);
        let text = read(&path);
        files.push((path, text));
    }

    let mut cited = 0;
    let mut dangling = Vec::new();
    for (path, text) in &files {
        for (line, number) in design_citations(text) {
            cited += 1;
            if !sections.contains(&number) {
                let shown = path.strip_prefix(&root).unwrap_or(path);
                dangling.push(format!("{}:{line}: DESIGN.md §{number}", shown.display()));
            }
        }
    }
    assert!(
        cited > 50,
        "only {cited} citations found: is the scan broken?"
    );
    assert!(
        dangling.is_empty(),
        "citations of DESIGN.md sections that have no heading:\n{}",
        dangling.join("\n")
    );
}

/// `a{b,c}d` → `abd`, `acd`; groups nest left to right.
fn expand_braces(name: &str) -> Vec<String> {
    let (Some(open), Some(close)) = (name.find('{'), name.find('}')) else {
        return vec![name.to_string()];
    };
    let (head, tail) = (&name[..open], &name[close + 1..]);
    name[open + 1..close]
        .split(',')
        .flat_map(|alt| expand_braces(&format!("{head}{alt}{tail}")))
        .collect()
}

/// The `fn` and `mod` names declared in every Rust file of the workspace.
fn workspace_items() -> BTreeSet<String> {
    let root = root();
    let mut files = Vec::new();
    for dir in ["crates", "src", "tests", "examples", "vendor"] {
        text_files(&root.join(dir), &mut files);
    }
    let mut items = BTreeSet::new();
    for (path, text) in &files {
        if path.extension().is_none_or(|e| e != "rs") {
            continue;
        }
        let words: Vec<&str> = text
            .split(|c: char| !(c.is_alphanumeric() || c == '_'))
            .filter(|w| !w.is_empty())
            .collect();
        for pair in words.windows(2) {
            if matches!(pair[0], "fn" | "mod") {
                items.insert(pair[1].to_string());
            }
        }
    }
    items
}

/// The backticked spans of the given column in §4.14's oracle table.
fn oracle_column_names(design: &str, column: &str) -> Vec<String> {
    let section = design
        .split("\n### ")
        .find(|s| s.starts_with("4.14 "))
        .expect("DESIGN.md has a §4.14");
    let mut rows = section.lines().filter(|l| l.starts_with('|'));
    let header: Vec<&str> = rows.next().expect("§4.14 has a table").split('|').collect();
    let index = header
        .iter()
        .position(|cell| cell.trim() == column)
        .unwrap_or_else(|| panic!("§4.14's table has no {column:?} column"));
    let mut names = Vec::new();
    for row in rows.skip(1) {
        let cell = row.split('|').nth(index).unwrap_or("");
        names.extend(
            cell.split('`')
                .skip(1)
                .step_by(2)
                .filter(|span| is_test_name(span))
                .map(str::to_string),
        );
    }
    names
}

/// Is a backticked span a test or module path? Every test here is a
/// snake_case name with an underscore; a crate label (`collectives`), a
/// type (`u32`), a variant (`Cancel`) or an expression (`U − 1`) is not.
fn is_test_name(span: &str) -> bool {
    span.contains('_')
        && span.starts_with(|c: char| c.is_ascii_lowercase())
        && span
            .chars()
            .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || "_:{},*".contains(c))
}

#[test]
fn oracle_table_names_workspace_tests() {
    let design = read(&root().join("DESIGN.md"));
    let names = oracle_column_names(&design, "property test that ties them");
    assert!(
        names.len() > 10,
        "only {} names in §4.14's table",
        names.len()
    );

    let items = workspace_items();
    let mut missing = Vec::new();
    for span in &names {
        for name in expand_braces(span) {
            let found = name
                .split("::")
                .all(|segment| match segment.strip_suffix('*') {
                    Some(prefix) => items.iter().any(|item| item.starts_with(prefix)),
                    None => items.contains(segment),
                });
            if !found {
                missing.push(name);
            }
        }
    }
    assert!(
        missing.is_empty(),
        "DESIGN.md §4.14 names tests no `fn` or `mod` in the workspace declares: {missing:?}"
    );
}

#[test]
fn changes_has_one_entry_per_line_in_pr_order() {
    let changes = read(&root().join("CHANGES.md"));
    let mut last = 0;
    for (k, line) in changes.lines().enumerate() {
        let number = line
            .strip_prefix("PR ")
            .and_then(|rest| rest.split(|c: char| !c.is_ascii_digit()).next())
            .and_then(|digits| digits.parse::<u32>().ok())
            .unwrap_or_else(|| panic!("CHANGES.md:{}: does not start `PR <n>`", k + 1));
        assert!(
            number >= last,
            "CHANGES.md:{}: PR {number} follows PR {last}",
            k + 1
        );
        last = number;
    }
    assert!(last > 0, "CHANGES.md is empty");
}

#[test]
fn changes_lines_are_at_most_1500_characters() {
    let changes = read(&root().join("CHANGES.md"));
    for (k, line) in changes.lines().enumerate() {
        let chars = line.chars().count();
        assert!(
            chars <= 1500,
            "CHANGES.md:{}: {chars} characters, over 1,500",
            k + 1
        );
    }
}

#[test]
fn the_scanners_read_what_they_claim() {
    assert_eq!(
        design_sections("## 4. Engine\n### 4.11 Cost\n### Notes\n## 7. Testing"),
        ["4", "4.11", "7"].map(String::from).into()
    );
    let cited = design_citations(
        "see DESIGN.md §4.1, §4.10 and DESIGN.md\n    /// §4.11), DESIGN.md §4.1/§4.7. Also DESIGN.md) §9",
    );
    let numbers: Vec<&str> = cited.iter().map(|(_, n)| n.as_str()).collect();
    assert_eq!(numbers, ["4.1", "4.10", "4.11", "4.1", "4.7"]);
    // A citation is reported on the line of its `DESIGN.md`.
    assert_eq!((cited[2].0, cited[3].0), (1, 2));
    assert_eq!(
        expand_braces("switch_churn_{two,three}_level"),
        ["switch_churn_two_level", "switch_churn_three_level"]
    );
    assert_eq!(
        expand_braces("oracles{,_three_level}"),
        ["oracles", "oracles_three_level"]
    );
    assert!(is_test_name(
        "backfill_reference::shipped_passes_match_reference"
    ));
    assert!(is_test_name("selectors_match_scan_oracles*"));
    for other in [
        "collectives",
        "u32",
        "U − 1",
        "Cancel",
        "==",
        "ratio_key < 0",
    ] {
        assert!(!is_test_name(other), "{other}");
    }
}

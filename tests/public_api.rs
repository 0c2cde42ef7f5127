//! Public-API snapshot.
//!
//! Every `pub fn|struct|enum|trait|const|type|mod|use` item head in `src/`
//! and `crates/*/src/` — not `pub(crate)`, not under `#[cfg(test)]`, not in
//! a `tests.rs` — every method signature of a public trait, every `pub`
//! field of a public struct and every variant of a public enum (its named
//! fields indented once more), indented under it, is listed per file, in
//! source order, and compared with
//! `tests/golden/public_api.txt`. Growing (or shrinking) the surface is
//! then a reviewed diff of that file rather than something a reader has to
//! notice: the slow twins of DESIGN.md §4.14 were public for seven PRs
//! because nothing made their export visible.
//!
//! This is a line scanner, not a parser. It sees what `rustfmt` lays out —
//! one item head per `pub` line, continued until the line that ends in
//! `{` or `;`, a field or a variant until the line that ends it with a
//! `,` — which is every item in this workspace; macro-generated items are
//! not listed, and a tuple struct's or tuple variant's fields stay on its
//! head.
//!
//! To re-bless after an intentional change:
//!
//! ```text
//! GOLDEN_BLESS=1 cargo test --test public_api
//! git diff tests/golden/public_api.txt   # review what actually changed
//! ```

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

const KINDS: [&str; 8] = [
    "fn", "struct", "enum", "trait", "const", "type", "mod", "use",
];

fn root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

/// Every `.rs` file under `dir`, recursively, except `tests.rs`.
fn rust_files(dir: &Path, out: &mut BTreeSet<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            rust_files(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs")
            && path.file_name().is_some_and(|n| n != "tests.rs")
        {
            out.insert(path);
        }
    }
}

/// `src/` of the root package and of every workspace crate.
fn source_files() -> BTreeSet<PathBuf> {
    let mut files = BTreeSet::new();
    rust_files(&root().join("src"), &mut files);
    let crates = std::fs::read_dir(root().join("crates")).expect("crates/ exists");
    for krate in crates.flatten() {
        rust_files(&krate.path().join("src"), &mut files);
    }
    files
}

/// Where `mod name;` declared in `file` keeps its source: the path without
/// extension (`…/name.rs` or `…/name/`).
fn module_stem(file: &Path, name: &str) -> PathBuf {
    let dir = file.parent().expect("source files have a parent");
    let stem = file.file_stem().and_then(|s| s.to_str()).unwrap_or("");
    if matches!(stem, "lib" | "main" | "mod") {
        dir.join(name)
    } else {
        dir.join(stem).join(name)
    }
}

/// Is `line` (trimmed) the start of a listed public item?
fn is_public_item(line: &str) -> bool {
    line.strip_prefix("pub ").is_some_and(|rest| {
        KINDS
            .iter()
            .any(|k| rest.strip_prefix(k).is_some_and(|r| r.starts_with(' ')))
    })
}

/// One file's public item heads, plus the out-of-line modules it declares
/// under `#[cfg(test)]` (as path stems, see [`module_stem`]).
fn scan(file: &Path, text: &str) -> (Vec<String>, Vec<PathBuf>) {
    let mut items = Vec::new();
    let mut test_modules = Vec::new();
    let mut lines = text.lines().map(str::trim);
    // Set by `#[cfg(test)]`, consumed by the item the attribute sits on.
    let mut test_only = false;
    // Brace depth inside a public trait's, struct's or enum's body; 0
    // outside one.
    let mut body_depth = 0i64;
    // Whose body that is: a struct's members are its `pub` fields, an
    // enum's its variants, a trait's its methods.
    let mut body = Body::Trait;
    while let Some(line) = lines.next() {
        if line.starts_with("#[cfg(test)]") {
            test_only = true;
            continue;
        }
        if line.is_empty() || line.starts_with("//") || line.starts_with("#[") {
            continue;
        }
        if test_only {
            test_only = false;
            if let Some(name) = line
                .strip_prefix("mod ")
                .and_then(|rest| rest.strip_suffix(';'))
            {
                test_modules.push(module_stem(file, name));
            }
            // Skip the item's block, if it opens one on this line.
            let mut depth = brace_delta(line);
            while depth > 0 {
                match lines.next() {
                    Some(inner) => depth += brace_delta(inner),
                    None => break,
                }
            }
            continue;
        }
        // A variant at the top level of a public enum's body is read whole,
        // named fields and their docs included, and listed under the enum.
        if body == Body::Enum && body_depth == 1 && !line.starts_with('}') {
            let mut variant = line.to_string();
            while !(variant.ends_with(',') && open_brackets(&variant) == 0) {
                match lines.next() {
                    Some(more) if more.starts_with("//") || more.starts_with("#[") => {}
                    Some(more) => {
                        variant.push(' ');
                        variant.push_str(more);
                    }
                    None => break,
                }
            }
            items.extend(variant_lines(&variant));
            continue;
        }
        // A method at the top level of a public trait's body, or a `pub`
        // field at the top level of a public struct's, is listed, indented,
        // under its item; the body's other lines only move the depth.
        let member = body_depth == 1
            && match body {
                Body::Struct => line.starts_with("pub "),
                Body::Trait => line.starts_with("fn "),
                Body::Enum => false,
            };
        let field = member && body == Body::Struct;
        if !is_public_item(line) && !member {
            if body_depth > 0 {
                body_depth += brace_delta(line);
            }
            continue;
        }
        let mut head = line.to_string();
        let is_use = head.starts_with("pub use ");
        let is_const = head.starts_with("pub const ") && head.contains(" = ");
        // A `use` list may break after its `{`; anything else is complete
        // at the line that opens its body or ends the declaration.
        let complete = |head: &str| {
            head.ends_with(';')
                || (field && head.ends_with(',') && open_brackets(head) == 0)
                || (!is_use && !field && (is_const || head.ends_with(['{', '}'])))
        };
        while !complete(&head) {
            match lines.next() {
                Some(more) => {
                    head.push(' ');
                    head.push_str(more);
                }
                None => break,
            }
        }
        if member {
            body_depth += brace_delta(&head);
        } else if head.ends_with('{') {
            let opened = [
                ("pub struct ", Body::Struct),
                ("pub enum ", Body::Enum),
                ("pub trait ", Body::Trait),
            ]
            .into_iter()
            .find(|(prefix, _)| head.starts_with(prefix));
            if let Some((_, kind)) = opened {
                body = kind;
                body_depth = 1;
            }
        }
        // Keep the signature, drop the body / value.
        let cut = if is_use || field {
            head.len()
        } else if is_const {
            head.find(" = ").unwrap_or(head.len())
        } else {
            head.find(" {").unwrap_or(head.len())
        };
        let head = tidy(&head[..cut]);
        items.push(if member { format!("  {head}") } else { head });
    }
    (items, test_modules)
}

/// The kind of public item whose body the scanner is inside.
#[derive(Clone, Copy, PartialEq)]
enum Body {
    Struct,
    Enum,
    Trait,
}

/// `text` without its trailing `;`/`,`, and with rustfmt's
/// one-argument-per-line layout undone.
fn tidy(text: &str) -> String {
    text.trim_end_matches([';', ',', ' '])
        .replace("( ", "(")
        .replace(", )", ")")
        .replace("< ", "<")
        .replace(", >", ">")
        .replace("{ ", "{")
        .replace(", }", "}")
}

/// One enum variant's listing: the variant, indented, then each of its
/// named fields indented once more.
fn variant_lines(variant: &str) -> Vec<String> {
    let variant = variant.trim_end_matches(',');
    let Some((name, fields)) = variant.split_once(" {") else {
        return vec![format!("  {}", tidy(variant))];
    };
    let fields = fields.trim_end().trim_end_matches('}');
    let mut lines = vec![format!("  {name}")];
    let mut start = 0;
    for (i, c) in fields.char_indices().chain([(fields.len(), ',')]) {
        if c == ',' && open_brackets(&fields[start..i]) == 0 {
            let field = fields[start..i].trim();
            if !field.is_empty() {
                lines.push(format!("    {}", tidy(field)));
            }
            start = i + 1;
        }
    }
    lines
}

/// Brackets `(`, `[`, `{` and `<` left open in `text`; the `>` of an `->`
/// closes none.
fn open_brackets(text: &str) -> i64 {
    let mut depth = 0;
    let mut prev = ' ';
    for c in text.chars() {
        match c {
            '(' | '[' | '{' | '<' => depth += 1,
            ')' | ']' | '}' => depth -= 1,
            '>' if prev != '-' => depth -= 1,
            _ => {}
        }
        prev = c;
    }
    depth
}

fn brace_delta(line: &str) -> i64 {
    let count = |c| line.matches(c).count() as i64;
    count('{') - count('}')
}

fn snapshot() -> String {
    let root = root();
    let mut scanned = Vec::new();
    let mut test_modules = Vec::new();
    for file in source_files() {
        let text = std::fs::read_to_string(&file).expect("source file is readable");
        let (items, mods) = scan(&file, &text);
        test_modules.extend(mods);
        scanned.push((file, items));
    }
    let mut out = String::new();
    for (file, items) in scanned {
        let in_test_module = test_modules
            .iter()
            .any(|stem| file.with_extension("") == *stem || file.starts_with(stem));
        if in_test_module || items.is_empty() {
            continue;
        }
        let shown = file.strip_prefix(&root).unwrap_or(&file);
        out.push_str(&format!("# {}\n", shown.display()));
        for item in items {
            out.push_str(&item);
            out.push('\n');
        }
        out.push('\n');
    }
    out
}

#[expect(clippy::disallowed_methods, reason = "GOLDEN_BLESS rewrites goldens")]
fn blessing() -> bool {
    std::env::var("GOLDEN_BLESS").is_ok_and(|v| v == "1")
}

#[test]
fn public_api_matches_golden() {
    let path = root().join("tests").join("golden").join("public_api.txt");
    let actual = snapshot();
    if blessing() {
        std::fs::write(&path, &actual).expect("write public_api.txt");
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_default();
    if expected == actual {
        return;
    }
    let was: BTreeSet<&str> = expected.lines().collect();
    let now: BTreeSet<&str> = actual.lines().collect();
    let mut report = String::new();
    for gone in was.difference(&now) {
        report.push_str(&format!("  - {gone}\n"));
    }
    for new in now.difference(&was) {
        report.push_str(&format!("  + {new}\n"));
    }
    panic!(
        "the public API differs from tests/golden/public_api.txt:\n{report}\
         re-bless with GOLDEN_BLESS=1 if this change is intentional"
    );
}

#[test]
fn scanner_skips_test_only_items() {
    let text = "\
pub fn shipped(a: u32) -> u32 { a }
pub(crate) fn internal() {}
#[cfg(test)]
pub fn oracle() {
    let _ = 1;
}
#[cfg(test)]
mod select_scan;
pub struct S {
    #[cfg(test)]
    probe: bool,
    pub field: u32,
    pub(crate) hidden: u8,
    /// Doc.
    pub wide: std::collections::BTreeMap<
        u32,
        u64,
    >,
    plain: u8,
}
pub struct Unit;
pub struct Pair(pub u32, u32);
impl S {
    pub fn long(
        &self,
        x: u32,
    ) -> u32 {
        x
    }
}
pub const N: usize = 3;
pub use a::{
    B, C,
};
pub trait T: Send {
    /// Doc with a brace {.
    fn required(
        &self,
        x: u32,
    ) -> u32;
    fn provided(&self) -> u32 {
        if true { 1 } else { 2 }
    }
}
pub enum E<T> {
    /// Doc.
    Unit,
    #[default]
    Tuple(u32, T),
    Inline { a: u32 },
    Named {
        /// Doc with a brace {.
        b: Option<Vec<
            u8,
        >>,
        c: (u32, u64),
    },
    Valued = 3,
}
pub fn after() {}
";
    let (items, mods) = scan(Path::new("crates/x/src/lib.rs"), text);
    assert_eq!(
        items,
        [
            "pub fn shipped(a: u32) -> u32",
            "pub struct S",
            "  pub field: u32",
            "  pub wide: std::collections::BTreeMap<u32, u64>",
            "pub struct Unit",
            "pub struct Pair(pub u32, u32)",
            "pub fn long(&self, x: u32) -> u32",
            "pub const N: usize",
            "pub use a::{B, C}",
            "pub trait T: Send",
            "  fn required(&self, x: u32) -> u32",
            "  fn provided(&self) -> u32",
            "pub enum E<T>",
            "  Unit",
            "  Tuple(u32, T)",
            "  Inline",
            "    a: u32",
            "  Named",
            "    b: Option<Vec<u8>>",
            "    c: (u32, u64)",
            "  Valued = 3",
            "pub fn after()",
        ]
    );
    assert_eq!(mods, [PathBuf::from("crates/x/src/select_scan")]);
}

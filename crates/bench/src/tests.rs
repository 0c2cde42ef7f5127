//! Checks on the crate's own documentation.

use crate::experiments;

/// The experiment table in the crate docs has a row for every id
/// `experiments::all()` returns.
#[test]
fn crate_docs_list_every_experiment() {
    let docs = include_str!("lib.rs");
    for (id, _) in experiments::all() {
        let row = format!("//! | `{id}`");
        assert!(
            docs.contains(&row),
            "lib.rs's experiment table has no row for `{id}`"
        );
    }
}

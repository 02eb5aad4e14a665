//! Self-run test: every audited stats counter of the real workspace is
//! updated in non-test code and asserted by a test.

use std::path::PathBuf;

fn workspace_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .expect("workspace root")
}

#[test]
fn real_workspace_is_lint_clean() {
    let diagnostics = noftl_lint::run(&workspace_root());
    assert!(
        diagnostics.is_empty(),
        "the workspace has lint findings:\n{}",
        diagnostics
            .iter()
            .map(|d| d.to_string())
            .collect::<Vec<_>>()
            .join("\n")
    );
}

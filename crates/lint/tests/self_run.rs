//! Self-run test: the linter must come up clean on the real workspace.
//!
//! Clean includes the `determinism` pass's environment rule: no file of the
//! workspace — crate, test or example — reads the process environment.

use std::path::PathBuf;

fn workspace_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .expect("workspace root")
}

#[test]
fn real_workspace_is_lint_clean() {
    let report = noftl_lint::run(&workspace_root(), None);
    assert!(
        report.diagnostics.is_empty(),
        "the workspace has lint findings:\n{}",
        report
            .diagnostics
            .iter()
            .map(|d| d.to_string())
            .collect::<Vec<_>>()
            .join("\n")
    );
}

//! Self-run test: the linter must come up clean on the real workspace.
//!
//! Clean includes the knob-registry's single parse point: the environment is
//! read in `StackConfig::from_env` and nowhere else — no other function,
//! crate, test or example.  (Were `from_env` renamed away, its own
//! `env::var` line would be the finding.)

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

#[test]
fn knob_registry_matches_the_documented_knobs() {
    let report = noftl_lint::run(&workspace_root(), None);
    let knobs: Vec<&str> = report.knobs.knobs.keys().map(String::as_str).collect();
    assert_eq!(
        knobs,
        vec![
            "NOFTL_ASYNC",
            "NOFTL_BATCH",
            "NOFTL_FAULTS",
            "NOFTL_READAHEAD",
            "NOFTL_REDUNDANCY",
            "NOFTL_SLO",
        ]
    );
    assert!(report.knobs.in_ci.values().all(|v| *v), "{:?}", report.knobs.in_ci);
    assert!(report.knobs.in_roadmap.values().all(|v| *v), "{:?}", report.knobs.in_roadmap);
}

#[test]
fn emit_knobs_prints_the_registry_under_any_pass_filter() {
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_noftl-lint"))
        .arg("--root")
        .arg(workspace_root())
        .args(["--emit-knobs", "--pass", "panic-path"])
        .output()
        .expect("run noftl-lint");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let table = String::from_utf8(out.stdout).expect("utf-8 output");
    let rows = table.lines().filter(|l| l.starts_with("| `NOFTL_")).count();
    assert_eq!(rows, 6, "{table}");
}

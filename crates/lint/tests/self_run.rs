//! Self-run test: the linter must come up clean on the real workspace, and
//! its `one-lock` pass must demonstrably see the engine lock's acquisition
//! sites — otherwise a "no findings" result proves nothing.
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
fn one_lock_pass_sees_every_engine_lock_site() {
    let report = noftl_lint::run(&workspace_root(), Some(&["one-lock".to_string()]));
    // The engine's accessors, the two combinators, the session's `commit`
    // and the one `forward_engine_ops!` invocation that generates every
    // other session operation: a clean result over fewer sites would mean
    // the pass stopped looking.
    assert!(report.lock_sites >= 17, "lock sites: {}", report.lock_sites);
    assert!(report.diagnostics.is_empty(), "{:#?}", report.diagnostics);
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
            "NOFTL_BATCH_GLOBAL",
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
    assert_eq!(rows, 7, "{table}");
}

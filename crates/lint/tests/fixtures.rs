//! Fixture tests: the check runs over a `clean` mini-workspace (expecting
//! zero findings) and a `violation` mini-workspace seeded with the exact
//! defects it exists to catch (expecting file:line diagnostics for every one
//! of them).

use std::collections::BTreeSet;
use std::path::PathBuf;

fn run_fixture(kind: &str) -> Vec<noftl_lint::diag::Diagnostic> {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("fixtures/stats_recon")
        .join(kind);
    noftl_lint::run(&root)
}

#[test]
fn stats_recon_clean_fixture_has_no_findings() {
    let diagnostics = run_fixture("clean");
    assert!(
        diagnostics.is_empty(),
        "unexpected findings: {:#?}",
        diagnostics
    );
}

#[test]
fn stats_recon_violation_fixture_flags_unmaintained_counters() {
    let diagnostics = run_fixture("violation");
    let msgs: Vec<&str> = diagnostics.iter().map(|d| d.message.as_str()).collect();
    assert!(msgs.iter().any(|m| m.contains("stale") && m.contains("never updated")));
    assert!(msgs.iter().any(|m| m.contains("stale") && m.contains("never asserted")));
    assert!(msgs.iter().any(|m| m.contains("unasserted") && m.contains("never asserted")));
    assert_eq!(diagnostics.len(), 3, "{:#?}", diagnostics);
    let lines: BTreeSet<usize> = diagnostics
        .iter()
        .filter(|d| d.file == "crates/nand-flash/src/stats.rs")
        .map(|d| d.line)
        .collect();
    assert_eq!(lines, BTreeSet::from([6, 7]));
}

//! Per-pass fixture tests: each pass runs over a `clean` mini-workspace
//! (expecting zero findings) and a `violation` mini-workspace seeded with
//! the exact defects the pass exists to catch (expecting file:line
//! diagnostics for every one of them).

use std::collections::BTreeSet;
use std::path::PathBuf;

use noftl_lint::run;

fn fixture_root(pass_dir: &str, kind: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("fixtures")
        .join(pass_dir)
        .join(kind)
}

fn run_pass(pass_dir: &str, kind: &str, pass: &str) -> noftl_lint::LintReport {
    run(&fixture_root(pass_dir, kind), Some(&[pass.to_string()]))
}

fn lines_of(report: &noftl_lint::LintReport, pass: &str, file: &str) -> BTreeSet<usize> {
    report
        .diagnostics
        .iter()
        .filter(|d| d.pass == pass && d.file == file)
        .map(|d| d.line)
        .collect()
}

// --- panic-path ----------------------------------------------------------

#[test]
fn panic_path_clean_fixture_has_no_findings() {
    let report = run_pass("panic_path", "clean", "panic-path");
    assert!(
        report.diagnostics.is_empty(),
        "unexpected findings: {:#?}",
        report.diagnostics
    );
}

#[test]
fn panic_path_violation_fixture_flags_every_construct() {
    let report = run_pass("panic_path", "violation", "panic-path");
    let file = "crates/nand-flash/src/device.rs";
    // .unwrap(), .expect(, unreachable!, panic!, and the .unwrap() whose
    // reasonless allow must not suppress.
    assert_eq!(
        lines_of(&report, "panic-path", file),
        BTreeSet::from([5, 9, 16, 21, 26])
    );
    // The reasonless directive is itself a finding.
    assert_eq!(lines_of(&report, "allow-policy", file), BTreeSet::from([25]));
}

// --- determinism ---------------------------------------------------------

#[test]
fn determinism_clean_fixture_has_no_findings() {
    let report = run_pass("determinism", "clean", "determinism");
    assert!(
        report.diagnostics.is_empty(),
        "unexpected findings: {:#?}",
        report.diagnostics
    );
}

#[test]
fn determinism_violation_fixture_flags_every_source() {
    let report = run_pass("determinism", "violation", "determinism");
    let file = "crates/core/src/gc.rs";
    // HashMap/HashSet imports and fields, Instant::now, SystemTime,
    // thread_rng, std::thread, Mutex, RwLock; then environment reads in
    // non-test code (34) and in a `#[cfg(test)]` module (41).
    assert_eq!(
        lines_of(&report, "determinism", file),
        BTreeSet::from([4, 5, 8, 9, 13, 17, 21, 25, 29, 30, 34, 41])
    );
    // An environment read in a `tests/` file outside any crate.
    assert_eq!(lines_of(&report, "determinism", "tests/smoke.rs"), BTreeSet::from([5]));
    assert_eq!(report.diagnostics.len(), 13, "{:#?}", report.diagnostics);
}

// --- stats-reconciliation ------------------------------------------------

#[test]
fn stats_recon_clean_fixture_has_no_findings() {
    let report = run_pass("stats_recon", "clean", "stats-reconciliation");
    assert!(
        report.diagnostics.is_empty(),
        "unexpected findings: {:#?}",
        report.diagnostics
    );
}

#[test]
fn stats_recon_violation_fixture_flags_unmaintained_counters() {
    let report = run_pass("stats_recon", "violation", "stats-reconciliation");
    let file = "crates/nand-flash/src/stats.rs";
    let msgs: Vec<&str> = report
        .diagnostics
        .iter()
        .map(|d| d.message.as_str())
        .collect();
    assert!(msgs.iter().any(|m| m.contains("stale") && m.contains("never updated")));
    assert!(msgs.iter().any(|m| m.contains("stale") && m.contains("never asserted")));
    assert!(msgs.iter().any(|m| m.contains("unasserted") && m.contains("never asserted")));
    assert_eq!(report.diagnostics.len(), 3, "{:#?}", report.diagnostics);
    assert_eq!(lines_of(&report, "stats-reconciliation", file), BTreeSet::from([6, 7]));
}

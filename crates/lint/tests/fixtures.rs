//! Per-pass fixture tests: each pass runs over a `clean` mini-workspace
//! (expecting zero findings) and a `violation` mini-workspace seeded with
//! the exact defects the pass exists to catch (expecting file:line
//! diagnostics for every one of them).
//!
//! Fixture knob names that are deliberately *not* real workspace knobs are
//! built with `format!` so this test file's own string literals never trip
//! the knob-registry drift check when the linter runs over the real tree.

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

// --- one-lock ------------------------------------------------------------

#[test]
fn one_lock_clean_fixture_has_no_findings() {
    let report = run_pass("one_lock", "clean", "one-lock");
    assert!(
        report.diagnostics.is_empty(),
        "unexpected findings: {:#?}",
        report.diagnostics
    );
    // The accessors', the combinator's and the session's temporary guards;
    // the test module's own lock in lib.rs is not a site.
    assert_eq!(report.lock_sites, 4);
}

#[test]
fn one_lock_violation_fixture_flags_every_defect_at_its_line() {
    let report = run_pass("one_lock", "violation", "one-lock");
    let found: BTreeSet<String> = report
        .diagnostics
        .iter()
        .map(|d| format!("{}:{}", d.file, d.line))
        .collect();
    let engine = "crates/storage-engine/src/concurrent.rs";
    let expected: BTreeSet<String> = [
        // 1. A second lock field, below the engine and beside it.
        "crates/storage-engine/src/buffer.rs:6".to_string(),
        format!("{engine}:10"),
        // 2. `.lock()` outside concurrent.rs.
        "crates/storage-engine/src/buffer.rs:11".to_string(),
        // 3. A let-bound guard, a double acquisition in one statement,
        //    re-acquisition through a `self.` call, a guard held across a
        //    `match`, and re-acquisition through `self.engine.`.
        format!("{engine}:23"),
        format!("{engine}:28"),
        format!("{engine}:32"),
        format!("{engine}:36"),
        format!("{engine}:49"),
        // 4. Closures that re-enter the engine under its lock: through a
        //    locking accessor, and through `.lock()` itself.
        "tests/concurrency.rs:8".to_string(),
        "tests/concurrency.rs:10".to_string(),
        // 5. `ConcurrentEngine` named below the lock (the doc comment and
        //    the `pub use` in lib.rs are not findings).
        "crates/storage-engine/src/engine.rs:5".to_string(),
    ]
    .into_iter()
    .collect();
    assert_eq!(found, expected, "{:#?}", report.diagnostics);
    assert_eq!(report.diagnostics.len(), expected.len());
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
    // thread_rng.
    assert_eq!(
        lines_of(&report, "determinism", file),
        BTreeSet::from([4, 5, 8, 9, 13, 17, 21])
    );
}

// --- knob-registry -------------------------------------------------------

#[test]
fn knob_registry_clean_fixture_has_no_findings() {
    let report = run_pass("knob_registry", "clean", "knob-registry");
    assert!(
        report.diagnostics.is_empty(),
        "unexpected findings: {:#?}",
        report.diagnostics
    );
    // Registry derived from the fixture's central module, both knobs
    // covered everywhere; its unit test, `tests/` and `examples/` reach the
    // environment through `from_env` only.  (Fixture-only knob names are
    // assembled at runtime so this file's literals stay drift-clean.)
    let trace = format!("NOFTL_{}", "TRACE");
    let knobs: Vec<&String> = report.knobs.knobs.keys().collect();
    assert_eq!(knobs, vec!["NOFTL_BATCH", &trace]);
    assert!(report.knobs.in_ci.values().all(|v| *v));
    assert!(report.knobs.in_roadmap.values().all(|v| *v));
}

#[test]
fn knob_registry_violation_fixture_flags_all_four_rules() {
    let report = run_pass("knob_registry", "violation", "knob-registry");
    let central = "crates/storage-engine/src/backend.rs";
    let outside = "crates/nand-flash/src/faults.rs";
    let trace = format!("NOFTL_{}", "TRACE");
    let legacy = format!("NOFTL_{}", "LEGACY");
    let stale = format!("NOFTL_{}", "STALE");

    let find = |file: &str, line: usize| -> Vec<&str> {
        report
            .diagnostics
            .iter()
            .filter(|d| d.file == file && d.line == line)
            .map(|d| d.message.as_str())
            .collect()
    };

    // Rule 1: an environment read anywhere but the central `from_env` —
    // another crate, a second function of the central module, a test, an
    // example.  `from_env` itself (central, line 11) is clean.
    for (file, line) in [
        (outside, 6),
        (central, 16),
        ("tests/smoke.rs", 6),
        ("examples/demo.rs", 5),
    ] {
        assert!(
            find(file, line).iter().any(|m| m.contains("single parse point")),
            "{file}:{line}"
        );
    }
    assert!(find(central, 11).is_empty());
    // Rule 2: registered knob that CI names (comment, step name, echo) but
    // never sets.
    assert!(find(central, 7).iter().any(|m| m.contains(&trace) && m.contains("CI")));
    // Rule 3: registered knob missing from the ROADMAP.
    assert!(find(central, 7).iter().any(|m| m.contains("NOFTL_BATCH") && m.contains("ROADMAP")));
    // Rule 4: drift in a source string and in the CI config.
    assert!(find(outside, 11).iter().any(|m| m.contains(&legacy)));
    assert!(find("ci.yml", 8).iter().any(|m| m.contains(&stale)));

    assert_eq!(report.diagnostics.len(), 8, "{:#?}", report.diagnostics);
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

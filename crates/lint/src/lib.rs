//! # noftl-lint
//!
//! Workspace static-analysis passes for the NoFTL reproduction, run as a
//! blocking CI step (`cargo run --release -p noftl-lint`).  The tool is
//! dependency-free: sources are preprocessed by a line/token-level scanner
//! ([`source::SourceFile`]) that masks comments and strings, tracks
//! `cfg(test)` regions, and understands `lint:allow` directives — no external
//! parser crates.
//!
//! ## Pass catalogue
//!
//! | Pass | What it enforces |
//! |---|---|
//! | `one-lock` | `storage-engine` has one lock, `ConcurrentEngine.inner`, taken only in `concurrent.rs` and only as a temporary of one statement; no statement, and no closure passed to `with_backend` / `with_wal` anywhere, takes it again while it is held; nothing below the lock names `ConcurrentEngine` / `ClientSession`. See [`passes::one_lock`]. |
//! | `panic-path` | No `.unwrap()`/`.expect()`/`panic!`/`unreachable!`/`todo!`/`unimplemented!` in non-test code of the device-facing crates (`core`, `nand-flash`, `flash-emulator`). See [`passes::panic_path`]. |
//! | `determinism` | No hash-ordered containers, wall-clock reads, or ambient RNGs in non-test code of the simulation crates; offenders are pointed at `sim_utils::{FlatMap, IntMap, FlatBitSet}`, `BTreeMap`/`BTreeSet`, and `SimInstant`. See [`passes::determinism`]. |
//! | `knob-registry` | The environment is read in one function only, `storage_engine::backend::StackConfig::from_env` (tests and examples included); every `NOFTL_*` knob it parses is set by a CI step (`NOFTL_X=` or `NOFTL_X:` outside a YAML comment), documented in the ROADMAP, and no stale knob token survives anywhere. See [`passes::knob_registry`]. |
//! | `stats-reconciliation` | Every counter field on the six audited stats structs (`FlashStats`, `ReadaheadStats`, `AdmissionStats`, `ThrottleStats`, `RedundancyStats`, `RebuildStats`) is updated in non-test code and asserted by at least one test. See [`passes::stats_recon`]. |
//!
//! `panic-path` and `determinism` are two tables ([`passes::Banned`]) over
//! one banned-token scan, [`passes::scan`].
//!
//! ## `lint:allow` policy
//!
//! A finding may be suppressed with a comment on the offending line or in
//! the contiguous comment block directly above it:
//!
//! ```text
//! // lint:allow(panic-path): construction-time configuration check —
//! // no device I/O has happened yet.
//! .expect("invalid flash geometry");
//! ```
//!
//! The `: <reason>` part is **mandatory**: a reasonless `lint:allow` is
//! itself reported (pass `allow-policy`) and does *not* suppress the
//! original finding.  Reviewers should treat every new `lint:allow` as a
//! design smell to be argued for in the PR description.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod diag;
pub mod passes;
pub mod source;
pub mod workspace;

use std::path::Path;

use diag::Diagnostic;
use passes::knob_registry::KnobRegistry;

/// The combined result of a lint run.
#[derive(Debug, Default)]
pub struct LintReport {
    /// All findings, in pass order.
    pub diagnostics: Vec<Diagnostic>,
    /// `.lock()` sites the `one-lock` pass saw (0 when it did not run).
    pub lock_sites: usize,
    /// The derived knob registry, whichever passes run.
    pub knobs: KnobRegistry,
}

/// Run the selected passes (`None` = all) over the workspace at `root`.
///
/// The reasonless-`lint:allow` policy check always runs: a directive without
/// a reason never suppresses anything and is itself a finding.
pub fn run(root: &Path, selected: Option<&[String]>) -> LintReport {
    let sources = workspace::collect_sources(root);
    let enabled = |name: &str| selected.is_none_or(|s| s.iter().any(|p| p == name));
    let mut report = LintReport::default();

    if enabled(passes::one_lock::PASS) {
        let (diags, lock_sites) = passes::one_lock::run(&sources);
        report.diagnostics.extend(diags);
        report.lock_sites = lock_sites;
    }
    if enabled(passes::panic_path::PASS) {
        report.diagnostics.extend(passes::panic_path::run(&sources));
    }
    if enabled(passes::determinism::PASS) {
        report.diagnostics.extend(passes::determinism::run(&sources));
    }
    let ci = workspace::read_text(root, ".github/workflows/ci.yml");
    let roadmap = workspace::read_text(root, "ROADMAP.md");
    let (diags, knobs) = passes::knob_registry::run(&sources, ci.as_deref(), roadmap.as_deref());
    if enabled(passes::knob_registry::PASS) {
        report.diagnostics.extend(diags);
    }
    report.knobs = knobs;
    if enabled(passes::stats_recon::PASS) {
        report.diagnostics.extend(passes::stats_recon::run(&sources));
    }

    // Allow-policy check: reasonless directives are findings everywhere.
    for f in &sources {
        for (no, line) in f.numbered() {
            if let Some(a) = &line.allow {
                if a.reason.is_none() {
                    report.diagnostics.push(Diagnostic::new(
                        &f.rel,
                        no,
                        "allow-policy",
                        format!(
                            "lint:allow({}) without a reason; write \
                             `lint:allow({}): <why this is safe>`",
                            a.pass, a.pass
                        ),
                    ));
                }
            }
        }
    }
    report
}

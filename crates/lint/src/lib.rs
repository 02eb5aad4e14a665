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
//! | `panic-path` | No `.unwrap()`/`.expect()`/`panic!`/`unreachable!`/`todo!`/`unimplemented!` in non-test code of the device-facing crates (`core`, `nand-flash`, `flash-emulator`). See [`passes::panic_path`]. |
//! | `determinism` | No hash-ordered containers, wall-clock reads, ambient RNGs, OS threads or locks (`std::thread`, `Mutex`, `RwLock`) in non-test code of the simulation crates; offenders are pointed at `sim_utils::{FlatMap, IntMap, FlatBitSet}`, `BTreeMap`/`BTreeSet`, `SimInstant`, and clients stepped on the one virtual clock.  No environment read (`env::var(`, `env::var_os(`) in any linted file, test code, `tests/` and `examples/` included: a stack is the `StackConfig` value its caller states. See [`passes::determinism`]. |
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

/// The combined result of a lint run.
#[derive(Debug, Default)]
pub struct LintReport {
    /// All findings, in pass order.
    pub diagnostics: Vec<Diagnostic>,
}

/// Run the selected passes (`None` = all) over the workspace at `root`.
///
/// The reasonless-`lint:allow` policy check always runs: a directive without
/// a reason never suppresses anything and is itself a finding.
pub fn run(root: &Path, selected: Option<&[String]>) -> LintReport {
    let sources = workspace::collect_sources(root);
    let enabled = |name: &str| selected.is_none_or(|s| s.iter().any(|p| p == name));
    let mut report = LintReport::default();

    if enabled(passes::panic_path::PASS) {
        report.diagnostics.extend(passes::panic_path::run(&sources));
    }
    if enabled(passes::determinism::PASS) {
        report.diagnostics.extend(passes::determinism::run(&sources));
    }
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

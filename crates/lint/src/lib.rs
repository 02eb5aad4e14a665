//! # noftl-lint
//!
//! The workspace's `stats-reconciliation` check, run as a blocking CI step
//! (`cargo run --release -p noftl-lint`): every counter field on the six
//! audited stats structs (`FlashStats`, `ReadaheadStats`, `AdmissionStats`,
//! `ThrottleStats`, `RedundancyStats`, `RebuildStats`) is updated in non-test
//! code and asserted by at least one test.  See [`stats_recon`].
//!
//! No clippy lint covers that.  The other static bans of the workspace are
//! clippy's, configured in the tree and run by CI's Clippy step:
//!
//! - `crates/clippy.toml` bans hash-ordered containers, wall clocks, OS
//!   threads and locks in the crates under `crates/`; the seven simulation
//!   crates exempt their unit tests from the type ban;
//! - `clippy.toml` at the root bans environment reads everywhere else;
//! - `core`, `nand-flash`, `flash-emulator` and `ftl` deny `unwrap`,
//!   `expect`, `panic!`, `unreachable!`, `todo!` and `unimplemented!` in
//!   non-test code;
//! - every simulation crate denies an `allow` without a `reason`.
//!
//! `tests/clippy_config.rs` fails when one of those settings goes missing.
//!
//! The tool is dependency-free: sources are preprocessed by a line/token-level
//! scanner ([`source::SourceFile`]) that masks comments and strings and
//! tracks `cfg(test)` regions — no external parser crates.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod diag;
pub mod source;
pub mod stats_recon;
pub mod workspace;

use std::path::Path;

use diag::Diagnostic;

/// Every finding of the check over the workspace at `root`.
pub fn run(root: &Path) -> Vec<Diagnostic> {
    stats_recon::run(&workspace::collect_sources(root))
}

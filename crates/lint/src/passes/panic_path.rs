//! `panic-path`: no panicking constructs in non-test code of device-facing
//! crates.
//!
//! A panic in the device model or the DBMS flash manager turns an injected
//! flash fault into a simulator abort, which is exactly the failure mode the
//! recovery machinery (PR 6) exists to avoid.  Banned in non-test code of
//! `core`, `nand-flash` and `flash-emulator`:
//!
//! - `.unwrap()` / `.expect(...)`
//! - `panic!` / `unreachable!` / `todo!` / `unimplemented!`
//!
//! Escape hatch: `// lint:allow(panic-path): <reason>` on the offending line
//! or in the comment block directly above it.  The reason is mandatory.

use super::{scan, Banned};
use crate::diag::Diagnostic;
use crate::source::SourceFile;

/// Pass name used in diagnostics and allow directives.
pub const PASS: &str = "panic-path";

/// Crate directories (under `crates/`) the pass applies to.
pub const DEVICE_CRATES: &[&str] = &["core", "nand-flash", "flash-emulator"];

const TABLE: Banned = Banned {
    pass: PASS,
    crates: DEVICE_CRATES,
    scope: "device-facing",
    tokens: &[
        (".unwrap()", "use `?`, a typed FlashError, or a checked alternative"),
        (".expect(", "use `?`, a typed FlashError, or a checked alternative"),
        ("panic!", "return a typed error instead of aborting the simulation"),
        ("unreachable!", "restructure the match so the compiler proves the arm dead"),
        ("todo!", "device-facing code must not ship unimplemented paths"),
        ("unimplemented!", "device-facing code must not ship unimplemented paths"),
    ],
    // A method token is whole by its leading dot; a macro needs a word
    // boundary on the left so e.g. `dont_panic!` never fires.
    boundary: |code, at, pat| {
        pat.starts_with('.')
            || !code[..at].ends_with(|c: char| c.is_alphanumeric() || c == '_' || c == ':')
    },
};

/// Run the pass over preprocessed sources.
pub fn run(sources: &[SourceFile]) -> Vec<Diagnostic> {
    scan(sources, &TABLE)
}

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
//! - direct `[...]` indexing of a device completion batch
//!   (`drain_queues()[...]`)
//!
//! Escape hatch: `// lint:allow(panic-path): <reason>` on the offending line
//! or in the comment block directly above it.  The reason is mandatory.

use crate::diag::Diagnostic;
use crate::source::{AllowState, SourceFile};

/// Pass name used in diagnostics and allow directives.
pub const PASS: &str = "panic-path";

/// Crate directories (under `crates/`) the pass applies to.
pub const DEVICE_CRATES: &[&str] = &["core", "nand-flash", "flash-emulator"];

const BANNED: &[(&str, &str)] = &[
    (".unwrap()", "use `?`, a typed FlashError, or a checked alternative"),
    (".expect(", "use `?`, a typed FlashError, or a checked alternative"),
    ("panic!", "return a typed error instead of aborting the simulation"),
    ("unreachable!", "restructure the match so the compiler proves the arm dead"),
    ("todo!", "device-facing code must not ship unimplemented paths"),
    ("unimplemented!", "device-facing code must not ship unimplemented paths"),
    (
        "drain_queues()[",
        "completion batches may be shorter than expected under faults; iterate or use .get()",
    ),
];

/// Run the pass over preprocessed sources.
pub fn run(sources: &[SourceFile]) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    for f in sources {
        let in_scope = f
            .crate_dir
            .as_deref()
            .is_some_and(|c| DEVICE_CRATES.contains(&c));
        if !in_scope {
            continue;
        }
        for (no, line) in f.numbered() {
            if line.in_test {
                continue;
            }
            for (pat, fix) in BANNED {
                let mut from = 0;
                while let Some(p) = line.code[from..].find(pat) {
                    let at = from + p;
                    from = at + pat.len();
                    // Word boundary on the left so e.g. `dont_panic!` or a
                    // method named `my_unwrap()` never fires.
                    let prev = line.code[..at].chars().next_back();
                    let boundary = match pat.chars().next() {
                        Some('.') | Some('[') => true,
                        _ => !prev.is_some_and(|c| c.is_alphanumeric() || c == '_' || c == ':'),
                    };
                    if !boundary {
                        continue;
                    }
                    match f.allow_state(no, PASS) {
                        AllowState::Allowed => {}
                        AllowState::NotAllowed | AllowState::AllowedNoReason(_) => {
                            out.push(Diagnostic::new(
                                &f.rel,
                                no,
                                PASS,
                                format!("`{pat}` in device-facing non-test code; {fix}"),
                            ));
                        }
                    }
                }
            }
        }
    }
    out
}

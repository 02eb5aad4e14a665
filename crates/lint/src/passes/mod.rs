//! The four lint passes, and the banned-token scan two of them share.

pub mod determinism;
pub mod knob_registry;
pub mod panic_path;
pub mod stats_recon;

/// All pass names, in execution order.
pub const ALL: &[&str] = &[
    panic_path::PASS,
    determinism::PASS,
    knob_registry::PASS,
    stats_recon::PASS,
];

use crate::diag::Diagnostic;
use crate::source::{AllowState, SourceFile};

/// A banned-token table, the shared shape of `panic-path` and `determinism`.
pub struct Banned {
    /// Pass name used in diagnostics and allow directives.
    pub pass: &'static str,
    /// Crate directories (under `crates/`) the table applies to.
    pub crates: &'static [&'static str],
    /// What those crates' code must be, for messages (`device-facing`, ...).
    pub scope: &'static str,
    /// Each banned token with its suggested fix.
    pub tokens: &'static [(&'static str, &'static str)],
    /// Whether `pat`, found at byte `at` of a code line, is a whole token.
    pub boundary: fn(code: &str, at: usize, pat: &str) -> bool,
}

/// Every banned token of `table` in non-test code of its crates that no
/// reasoned allow directive for its pass suppresses.
pub fn scan(sources: &[SourceFile], table: &Banned) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    let in_scope = |f: &&SourceFile| {
        f.crate_dir.as_deref().is_some_and(|c| table.crates.contains(&c))
    };
    for f in sources.iter().filter(in_scope) {
        for (no, line) in f.numbered().filter(|(_, l)| !l.in_test) {
            for (pat, fix) in table.tokens {
                for (at, _) in line.code.match_indices(pat) {
                    if (table.boundary)(&line.code, at, pat)
                        && f.allow_state(no, table.pass) != AllowState::Allowed
                    {
                        let msg = format!("`{pat}` in {} non-test code; {fix}", table.scope);
                        out.push(Diagnostic::new(&f.rel, no, table.pass, msg));
                    }
                }
            }
        }
    }
    out
}

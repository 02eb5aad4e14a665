//! `one-lock`: `storage-engine` has one lock, `ConcurrentEngine.inner`, and
//! nothing takes it while it is held (it is not reentrant).  In non-test code:
//!
//! 1. `storage-engine` names `Mutex<` / `RwLock<` once, in [`ENGINE`];
//! 2. no other `storage-engine` file calls `.lock()`;
//! 3. in [`ENGINE`] a guard lives for one statement (up to a `;`, `{` or `}`
//!    outside parentheses): not `let`-bound, not in a block header, not taken
//!    twice, not held across a `self.` / `self.engine.` call that locks;
//! 4. anywhere, tests included, a closure passed to `.with_backend(` /
//!    `.with_wal(` neither locks nor calls a function of [`ENGINE`] that does;
//! 5. nothing else in `storage-engine` names `ConcurrentEngine` or
//!    `ClientSession`, except to `pub use` them.

use std::collections::BTreeSet;

use crate::{diag::Diagnostic, source::SourceFile};

/// Pass name used in diagnostics.
pub const PASS: &str = "one-lock";

/// Root-relative path of the one file that may take the engine lock.
pub const ENGINE: &str = "crates/storage-engine/src/concurrent.rs";

const LOCK: &str = ".lock()";

/// The code view joined by `\n`; test lines are blank unless `tests`.
fn code(f: &SourceFile, tests: bool) -> String {
    let lines = f.lines.iter().map(|l| if tests || !l.in_test { &l.code[..] } else { "" });
    lines.collect::<Vec<_>>().join("\n")
}

/// The identifier starting at byte `at`.
fn ident(t: &str, at: usize) -> &str {
    let rest = &t[at..];
    &rest[..rest.find(|c: char| !c.is_alphanumeric() && c != '_').unwrap_or(rest.len())]
}

/// Byte offset just past the bracket closing the one opened at `open`.
fn close(t: &str, open: usize) -> usize {
    let mut depth = 0;
    let end = t[open..].find(|c| {
        depth += i32::from("([{".contains(c)) - i32::from(")]}".contains(c));
        depth == 0
    });
    end.map_or(t.len(), |i| open + i + 1)
}

/// Offsets in `s` of calls `<recv><name>(` to a function in `fns`.
fn calls(s: &str, fns: &BTreeSet<&str>, recvs: &[&str]) -> Vec<usize> {
    let pats = recvs.iter().flat_map(|r| fns.iter().map(move |n| format!("{r}{n}(")));
    pats.flat_map(|p| s.match_indices(&p).map(|(k, _)| k).collect::<Vec<_>>()).collect()
}

/// Run the pass.  Also returns the number of `.lock()` sites seen in
/// `storage-engine`, so that a clean result is never a vacuous one.
pub fn run(sources: &[SourceFile]) -> (Vec<Diagnostic>, usize) {
    let engine = sources.iter().find(|f| f.rel == ENGINE).map_or(String::new(), |f| code(f, false));
    let mut fns = BTreeSet::new(); // the functions of ENGINE whose body locks
    for (at, _) in engine.match_indices("fn ") {
        let body = engine[at..].find('{').map_or(engine.len(), |o| at + o);
        if engine[body..close(&engine, body)].contains(LOCK) {
            fns.insert(ident(&engine, at + 3));
        }
    }
    let (mut out, mut sites) = (Vec::new(), 0);
    for f in sources {
        let mut flag = |t: &str, at: usize, msg: &str| {
            let line = t[..at].matches('\n').count() + 1;
            out.push(Diagnostic::new(&f.rel, line, PASS, format!("{msg} (the engine lock is not reentrant)")));
        };
        let (t, is_engine) = (code(f, false), f.rel == ENGINE);
        if f.crate_dir.as_deref() == Some("storage-engine") {
            let locks = ["Mutex<", "RwLock<"].into_iter().flat_map(|p| t.match_indices(p));
            for (at, _) in locks.skip(usize::from(is_engine)) {
                flag(&t, at, "a lock besides `ConcurrentEngine.inner`; keep the state under that one");
            }
            sites += t.matches(LOCK).count();
            for (at, _) in t.match_indices(LOCK).filter(|_| !is_engine) {
                flag(&t, at, &format!("`.lock()` outside {ENGINE}"));
            }
            let reexport = |at: usize| f.lines[t[..at].matches('\n').count()].code.trim_start().starts_with("pub use");
            for name in ["ConcurrentEngine", "ClientSession"].into_iter().filter(|_| !is_engine) {
                for (at, _) in t.match_indices(name).filter(|&(at, _)| ident(&t, at) == name && !reexport(at)) {
                    flag(&t, at, &format!("`{name}` named below the lock"));
                }
            }
        }
        let (mut depth, mut start) = (0, 0);
        for (end, c) in t.char_indices().filter(|_| is_engine) {
            depth += i32::from("([".contains(c)) - i32::from(")]".contains(c));
            if depth != 0 || !matches!(c, ';' | '{' | '}') {
                continue;
            }
            let s = &t[start..=end];
            let takes: Vec<usize> = s.match_indices(LOCK).map(|(k, _)| start + k).collect();
            let stmt = s.trim().trim_end_matches([';', '?']);
            let outlives = s.ends_with('{') || (stmt.starts_with("let ") && stmt.ends_with(LOCK));
            if let (Some(&at), true) = (takes.first(), outlives) {
                flag(&t, at, "the guard outlives its statement; take the lock as a temporary");
            }
            for &at in takes.iter().skip(1) {
                flag(&t, at, "the lock is taken twice in one statement");
            }
            for k in calls(s, &fns, &["self.", "self.engine."]).into_iter().filter(|_| !takes.is_empty()) {
                flag(&t, start + k, "the statement holds the lock and calls a function that takes it");
            }
            start = end + 1;
        }
        let t = code(f, true);
        for (at, call) in t.match_indices(".with_backend(").chain(t.match_indices(".with_wal(")) {
            let open = at + call.len() - 1;
            let arg = &t[open..close(&t, open)];
            for k in arg.match_indices(LOCK).map(|(k, _)| k).chain(calls(arg, &fns, &["."])) {
                flag(&t, open + k, &format!("the closure passed to `{call}..)` runs under the lock"));
            }
        }
    }
    (out, sites)
}

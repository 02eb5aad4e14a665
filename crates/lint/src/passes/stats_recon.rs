//! `stats-reconciliation`: every observability counter is both maintained
//! and tested.
//!
//! A counter that is declared but never incremented silently reports zero; a
//! counter no test asserts can rot without anyone noticing.  For every
//! integer counter field on the [`AUDITED`] stats structs (`FlashStats`,
//! `ReadaheadStats`, `AdmissionStats`, `ThrottleStats`, `RedundancyStats`,
//! `RebuildStats`) this pass requires:
//!
//! - an **update site** in non-test code (`.field += ...`, `.field = ...`,
//!   or an indexed update for `Vec` counters), and
//! - an **assertion** naming the field inside an `assert*` macro call in
//!   test code.
//!
//! Latency `Histogram` fields are exempt (they are distributions, not
//! counters, and are exercised through their own crate's tests).

use crate::diag::Diagnostic;
use crate::source::SourceFile;

/// Pass name used in diagnostics.
pub const PASS: &str = "stats-reconciliation";

/// Struct names audited by the pass.
pub const AUDITED: &[&str] = &[
    "FlashStats",
    "ReadaheadStats",
    "AdmissionStats",
    "ThrottleStats",
    "RedundancyStats",
    "RebuildStats",
];

/// Field types counted as counters.
const COUNTER_TYPES: &[&str] = &["u64", "u32", "usize", "Vec<u64>", "Vec<usize>"];

#[derive(Debug, Clone)]
struct Field {
    strukt: &'static str,
    name: String,
    file: String,
    line: usize,
}

/// Run the pass over preprocessed sources.
pub fn run(sources: &[SourceFile]) -> Vec<Diagnostic> {
    let mut fields: Vec<Field> = Vec::new();
    for strukt in AUDITED {
        let decl = format!("pub struct {strukt} ");
        let decl_brace = format!("pub struct {strukt} {{");
        for f in sources {
            for (no, line) in f.numbered() {
                let t = line.code.trim();
                if !(t.starts_with(&decl_brace) || t.starts_with(&decl)) {
                    continue;
                }
                // Walk the struct body collecting counter-typed fields.
                let mut depth = 0i32;
                for (no2, l2) in f.numbered().skip(no - 1) {
                    for c in l2.code.chars() {
                        match c {
                            '{' => depth += 1,
                            '}' => depth -= 1,
                            _ => {}
                        }
                    }
                    let t2 = l2.code.trim().trim_start_matches("pub ");
                    if let Some((name, ty)) = t2.split_once(':') {
                        let name = name.trim();
                        let ty = ty.trim().trim_end_matches(',');
                        let is_ident = !name.is_empty()
                            && name.chars().all(|c| c.is_alphanumeric() || c == '_');
                        if is_ident && COUNTER_TYPES.contains(&ty) {
                            fields.push(Field {
                                strukt,
                                name: name.to_string(),
                                file: f.rel.clone(),
                                line: no2,
                            });
                        }
                    }
                    if no2 > no && depth <= 0 {
                        break;
                    }
                }
                break;
            }
        }
    }

    let mut out = Vec::new();
    for field in &fields {
        let updated = sources.iter().any(|f| has_update(f, &field.name));
        let asserted = sources.iter().any(|f| has_assert(f, &field.name));
        if !updated {
            out.push(Diagnostic::new(
                &field.file,
                field.line,
                PASS,
                format!(
                    "counter {}::{} is never updated in non-test code",
                    field.strukt, field.name
                ),
            ));
        }
        if !asserted {
            out.push(Diagnostic::new(
                &field.file,
                field.line,
                PASS,
                format!(
                    "counter {}::{} is never asserted in any test",
                    field.strukt, field.name
                ),
            ));
        }
    }
    out
}

/// Does `f` contain a non-test update of `.{name}` (`+=`, `-=`, or single
/// `=`, with an optional `[index]` between field and operator)?
fn has_update(f: &SourceFile, name: &str) -> bool {
    let pat = format!(".{name}");
    for (_, line) in f.numbered() {
        if line.in_test {
            continue;
        }
        let code = &line.code;
        let mut from = 0;
        while let Some(p) = code[from..].find(&pat) {
            let at = from + p;
            from = at + pat.len();
            let mut rest = code[at + pat.len()..].chars().peekable();
            // Field token boundary.
            if rest.peek().is_some_and(|c| c.is_alphanumeric() || *c == '_') {
                continue;
            }
            // Skip an optional [index] (single-line).
            let tail: String = code[at + pat.len()..].to_string();
            let mut s = tail.trim_start();
            if s.starts_with('[') {
                if let Some(close) = s.find(']') {
                    s = s[close + 1..].trim_start();
                } else {
                    continue;
                }
            }
            if s.starts_with("+=") || s.starts_with("-=") {
                return true;
            }
            if s.starts_with('=') && !s.starts_with("==") {
                return true;
            }
        }
    }
    false
}

/// Does `f` contain a test-code `assert*` macro whose argument span names
/// `.{name}`?
fn has_assert(f: &SourceFile, name: &str) -> bool {
    // Concatenate test-region code with line breaks so macro calls spanning
    // lines are searchable, then find assert-family macro spans.
    let pat = format!(".{name}");
    let lines: Vec<&str> = f
        .lines
        .iter()
        .map(|l| if l.in_test { l.code.as_str() } else { "" })
        .collect();
    let text = lines.join("\n");
    let bytes = text.as_bytes();
    let mut i = 0;
    while let Some(p) = text[i..].find('!') {
        let bang = i + p;
        i = bang + 1;
        // Identifier before the bang.
        let mut start = bang;
        while start > 0 {
            let c = bytes[start - 1] as char;
            if c.is_alphanumeric() || c == '_' {
                start -= 1;
            } else {
                break;
            }
        }
        let ident = &text[start..bang];
        if !ident.contains("assert") {
            continue;
        }
        // Balanced span from the macro's opening delimiter.
        let open = match text[bang..].find(['(', '[', '{']) {
            Some(o) => bang + o,
            None => continue,
        };
        let (oc, cc) = match bytes[open] as char {
            '(' => ('(', ')'),
            '[' => ('[', ']'),
            _ => ('{', '}'),
        };
        let mut depth = 0i32;
        let mut end = open;
        for (off, c) in text[open..].char_indices() {
            if c == oc {
                depth += 1;
            } else if c == cc {
                depth -= 1;
                if depth == 0 {
                    end = open + off;
                    break;
                }
            }
        }
        let span = &text[open..end.max(open)];
        let mut from = 0;
        while let Some(q) = span[from..].find(&pat) {
            let at = from + q;
            from = at + pat.len();
            let next = span[at + pat.len()..].chars().next();
            if !next.is_some_and(|c| c.is_alphanumeric() || c == '_') {
                return true;
            }
        }
    }
    false
}

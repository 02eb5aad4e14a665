//! `knob-registry`: every `NOFTL_*` environment knob is read in exactly one
//! function and documented everywhere it must be.
//!
//! The registry is derived from the central knob module
//! (`crates/storage-engine/src/backend.rs`): every `NOFTL_*` string literal
//! in its non-test code is a registered knob.  The pass then enforces:
//!
//! 1. **Single parse point** — the process environment is read
//!    (`env::var`, `env::var_os`, or `env!` of a knob) in one function only,
//!    the central module's `from_env`.  Anywhere else — other functions of
//!    the central module, other crates, `tests/`, `examples/`, unit tests —
//!    it is a violation: a stack is a pure function of its config value, and
//!    a fixture that reads the environment asserts about whatever leg it
//!    happens to run under.  `set_var` stays legal (the one test that
//!    exercises `from_env` needs it).
//! 2. **CI coverage** — every registered knob must be set in
//!    `.github/workflows/ci.yml`: `NOFTL_X=` (a shell assignment) or
//!    `NOFTL_X:` (an `env:` key) outside a YAML comment.  A knob no CI step
//!    sets is dead config; naming it in a comment, a step name or an `echo`
//!    sets nothing.
//! 3. **Docs coverage** — every registered knob must appear in `ROADMAP.md`'s
//!    knob table.
//! 4. **No drift** — a `NOFTL_*` token appearing in any workspace string
//!    literal, in CI, or in the ROADMAP that is *not* in the registry fails
//!    the build (a renamed or removed knob must disappear everywhere).
//!
//! `noftl-lint --emit-knobs` prints the registry as a markdown table.

use std::collections::BTreeMap;

use crate::diag::Diagnostic;
use crate::source::SourceFile;

/// Pass name used in diagnostics.
pub const PASS: &str = "knob-registry";

/// Root-relative path of the central knob module.
pub const CENTRAL: &str = "crates/storage-engine/src/backend.rs";

/// 1-based inclusive line span of `fn from_env` in the central module — the
/// one function allowed to read the environment — from its signature to the
/// brace that closes its body.
fn from_env_span(central: &SourceFile) -> Option<(usize, usize)> {
    let start = central
        .numbered()
        .find(|(_, l)| !l.in_test && l.code.contains("fn from_env("))?
        .0;
    let mut depth = 0usize;
    for (no, line) in central.numbered().skip(start - 1) {
        for c in line.code.chars() {
            match c {
                '{' => depth += 1,
                '}' if depth == 1 => return Some((start, no)),
                '}' => depth = depth.saturating_sub(1),
                _ => {}
            }
        }
    }
    None
}

/// The derived knob registry.
#[derive(Debug, Clone, Default)]
pub struct KnobRegistry {
    /// Knob name → 1-based line in the central module where it is parsed.
    pub knobs: BTreeMap<String, usize>,
    /// Whether each knob appears in the CI config / ROADMAP.
    pub in_ci: BTreeMap<String, bool>,
    /// Whether each knob appears in the ROADMAP.
    pub in_roadmap: BTreeMap<String, bool>,
}

impl KnobRegistry {
    /// Render the registry as a markdown table.
    pub fn to_markdown(&self) -> String {
        let mut s = String::from("| Knob | Parsed at | In CI | In ROADMAP |\n|---|---|---|---|\n");
        for (k, line) in &self.knobs {
            s.push_str(&format!(
                "| `{k}` | `{CENTRAL}:{line}` | {} | {} |\n",
                if self.in_ci.get(k).copied().unwrap_or(false) { "yes" } else { "no" },
                if self.in_roadmap.get(k).copied().unwrap_or(false) { "yes" } else { "no" },
            ));
        }
        s
    }
}

/// Extract `NOFTL_[A-Z0-9_]+` tokens from a string, requiring at least one
/// character after the prefix (a bare `NOFTL_` is not a knob name).
fn knob_tokens(text: &str) -> Vec<String> {
    let mut out = Vec::new();
    let bytes = text.as_bytes();
    let mut i = 0;
    while let Some(p) = text[i..].find("NOFTL_") {
        let start = i + p;
        // Left identifier boundary.
        let left_ok = start == 0 || {
            let c = bytes[start - 1] as char;
            !(c.is_alphanumeric() || c == '_')
        };
        let mut end = start + "NOFTL_".len();
        while end < text.len() {
            let c = bytes[end] as char;
            if c.is_ascii_uppercase() || c.is_ascii_digit() || c == '_' {
                end += 1;
            } else {
                break;
            }
        }
        if left_ok && end > start + "NOFTL_".len() {
            out.push(text[start..end].trim_end_matches('_').to_string());
        }
        i = end.max(start + 1);
    }
    out
}

/// The knobs a CI `line` sets: a `NOFTL_*` token outside the line's YAML
/// comment (a `#` at the start or after whitespace) that is followed by `=`
/// (a shell assignment) or `:` (an `env:` key).
fn knobs_set(line: &str) -> Vec<String> {
    let b = line.as_bytes();
    let cut = (0..b.len()).find(|&i| b[i] == b'#' && (i == 0 || b[i - 1].is_ascii_whitespace()));
    let code = &line[..cut.unwrap_or(b.len())];
    knob_tokens(code)
        .into_iter()
        .filter(|k| code.contains(&format!("{k}=")) || code.contains(&format!("{k}:")))
        .collect()
}

/// Run the pass.  `ci` and `roadmap` are the CI config and ROADMAP texts
/// (when present in the linted tree).
pub fn run(
    sources: &[SourceFile],
    ci: Option<&str>,
    roadmap: Option<&str>,
) -> (Vec<Diagnostic>, KnobRegistry) {
    let mut out = Vec::new();
    let mut reg = KnobRegistry::default();

    // 0. Build the registry from the central module's non-test strings.
    let central = sources.iter().find(|f| f.rel == CENTRAL);
    match central {
        None => {
            out.push(Diagnostic::new(
                CENTRAL,
                1,
                PASS,
                "central knob module not found; every NOFTL_* knob must be parsed there".into(),
            ));
            return (out, reg);
        }
        Some(f) => {
            for (no, line) in f.numbered() {
                if line.in_test {
                    continue;
                }
                for s in &line.strings {
                    for k in knob_tokens(s) {
                        reg.knobs.entry(k).or_insert(no);
                    }
                }
            }
        }
    }
    if reg.knobs.is_empty() {
        out.push(Diagnostic::new(
            CENTRAL,
            1,
            PASS,
            "knob registry is empty; expected NOFTL_* parsers in the central module".into(),
        ));
    }

    // 1. Environment reads outside the central module's `from_env`, test
    //    code included.
    let allowed = central.and_then(from_env_span);
    for f in sources {
        for (no, line) in f.numbered() {
            let reads_env = line.code.contains("env::var(")
                || line.code.contains("env::var_os(")
                || (line.code.contains("env!(")
                    && line.strings.iter().any(|s| !knob_tokens(s).is_empty()));
            let in_from_env =
                f.rel == CENTRAL && allowed.is_some_and(|(lo, hi)| (lo..=hi).contains(&no));
            if reads_env && !in_from_env {
                out.push(Diagnostic::new(
                    &f.rel,
                    no,
                    PASS,
                    format!(
                        "environment read outside the single parse point; take a \
                         StackConfig value, or call StackConfig::from_env() in main \
                         ({CENTRAL})"
                    ),
                ));
            }
        }
    }

    // 2./3. Registry knobs must be set by CI and appear in the ROADMAP.
    let ci_set: Vec<String> = ci.into_iter().flat_map(str::lines).flat_map(knobs_set).collect();
    for (k, line) in &reg.knobs {
        let ci_has = ci_set.contains(k);
        let rm_has = roadmap.map(|t| t.contains(k.as_str())).unwrap_or(false);
        reg.in_ci.insert(k.clone(), ci_has);
        reg.in_roadmap.insert(k.clone(), rm_has);
        if !ci_has {
            out.push(Diagnostic::new(
                CENTRAL,
                *line,
                PASS,
                format!("knob `{k}` is registered but no CI step sets it (`{k}=` or `{k}:` outside a comment in .github/workflows/ci.yml)"),
            ));
        }
        if !rm_has {
            out.push(Diagnostic::new(
                CENTRAL,
                *line,
                PASS,
                format!("knob `{k}` is registered but missing from the ROADMAP knob table"),
            ));
        }
    }

    // 4. Drift: NOFTL_* tokens outside the registry.
    for f in sources {
        for (no, line) in f.numbered() {
            for s in &line.strings {
                for k in knob_tokens(s) {
                    if !reg.knobs.contains_key(&k) {
                        out.push(Diagnostic::new(
                            &f.rel,
                            no,
                            PASS,
                            format!("unknown knob `{k}`: not parsed in the central knob module"),
                        ));
                    }
                }
            }
        }
    }
    for (name, text) in [("ci.yml", ci), ("ROADMAP.md", roadmap)] {
        if let Some(t) = text {
            for (i, l) in t.lines().enumerate() {
                for k in knob_tokens(l) {
                    if !reg.knobs.contains_key(&k) {
                        out.push(Diagnostic::new(
                            name,
                            i + 1,
                            PASS,
                            format!("unknown knob `{k}`: not parsed in the central knob module"),
                        ));
                    }
                }
            }
        }
    }

    (out, reg)
}

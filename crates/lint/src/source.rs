//! Comment-, string- and `cfg(test)`-aware preprocessing of Rust sources.
//!
//! Every pass consumes [`SourceFile`]s instead of raw text: the scanner masks
//! comments and string-literal interiors out of the `code` view (so token
//! searches never fire on prose), tracks which lines sit inside test-only
//! regions (`#[cfg(test)]` modules, `#[test]` functions, `tests/` trees),
//! and extracts `lint:allow` directives from comments.
//!
//! The scanner is line/token-level by design — no external parser crates —
//! and handles nested block comments, raw strings (`r#"..."#`), byte strings,
//! char literals vs. lifetimes, and multi-line string literals.

/// A `// lint:allow(<pass>): <reason>` directive found in a comment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AllowDirective {
    /// The pass being silenced (`panic-path`, `determinism`, ...).
    pub pass: String,
    /// The justification after the colon; `None` when missing (a violation).
    pub reason: Option<String>,
}

/// One line of a source file, in its masked views.
#[derive(Debug, Clone)]
pub struct Line {
    /// Original text (no trailing newline).
    pub raw: String,
    /// Code view: comments and string interiors replaced by spaces, string
    /// delimiters kept, so token searches see real code only.
    pub code: String,
    /// Concatenated comment text on this line (without `//`/`/*` markers).
    pub comment: String,
    /// Whether the line is inside a test-only region.
    pub in_test: bool,
    /// Parsed `lint:allow` directive, if the comment carries one.
    pub allow: Option<AllowDirective>,
}

/// A preprocessed source file.
#[derive(Debug, Clone)]
pub struct SourceFile {
    /// Path relative to the lint root, `/`-separated.
    pub rel: String,
    /// `crates/<dir>/...` → `<dir>`; `None` for top-level files.
    pub crate_dir: Option<String>,
    /// Whole file is test code (a `tests/` tree).
    pub is_test_file: bool,
    /// The preprocessed lines.
    pub lines: Vec<Line>,
}

/// Result of asking whether a finding at some line is suppressed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AllowState {
    /// No matching directive.
    NotAllowed,
    /// Directive with a reason — suppress the finding.
    Allowed,
    /// Directive found but it has no reason; the 1-based line it sits on.
    AllowedNoReason(usize),
}

impl SourceFile {
    /// Preprocess `text` into masked lines.
    pub fn parse(rel: &str, text: &str) -> Self {
        let crate_dir = rel
            .strip_prefix("crates/")
            .and_then(|rest| rest.split('/').next())
            .map(|s| s.to_string());
        let is_test_file = rel.starts_with("tests/") || rel.contains("/tests/");
        let mut lines = mask(text);
        mark_test_regions(&mut lines, is_test_file);
        for line in &mut lines {
            line.allow = parse_allow(&line.comment);
        }
        Self {
            rel: rel.to_string(),
            crate_dir,
            is_test_file,
            lines,
        }
    }

    /// Whether a finding of `pass` at 1-based line `line_no` is suppressed by
    /// a `lint:allow` directive on the same line or in the contiguous comment
    /// block directly above it.
    pub fn allow_state(&self, line_no: usize, pass: &str) -> AllowState {
        let idx = line_no.saturating_sub(1);
        if idx >= self.lines.len() {
            return AllowState::NotAllowed;
        }
        let check = |i: usize| -> Option<AllowState> {
            let a = self.lines[i].allow.as_ref()?;
            if a.pass != pass {
                return None;
            }
            Some(match a.reason {
                Some(_) => AllowState::Allowed,
                None => AllowState::AllowedNoReason(i + 1),
            })
        };
        if let Some(s) = check(idx) {
            return s;
        }
        // Walk upward through the contiguous comment-only block above the
        // offending line (a directive may open a multi-line justification).
        let mut i = idx;
        while i > 0 {
            i -= 1;
            let l = &self.lines[i];
            let comment_only = l.code.trim().is_empty() && !l.comment.trim().is_empty();
            if !comment_only {
                break;
            }
            if let Some(s) = check(i) {
                return s;
            }
        }
        AllowState::NotAllowed
    }

    /// Iterate 1-based line numbers with their lines.
    pub fn numbered(&self) -> impl Iterator<Item = (usize, &Line)> {
        self.lines.iter().enumerate().map(|(i, l)| (i + 1, l))
    }
}

fn parse_allow(comment: &str) -> Option<AllowDirective> {
    let start = comment.find("lint:allow(")?;
    let rest = &comment[start + "lint:allow(".len()..];
    let close = rest.find(')')?;
    let pass = rest[..close].trim().to_string();
    let after = rest[close + 1..].trim_start();
    let reason = after
        .strip_prefix(':')
        .map(|r| r.trim())
        .filter(|r| !r.is_empty())
        .map(|r| r.to_string());
    Some(AllowDirective { pass, reason })
}

#[derive(Debug)]
enum State {
    Normal,
    LineComment,
    BlockComment(u32),
    Str { raw_hashes: Option<u8> },
    CharLit,
}

/// Split `text` into lines with comments and string interiors masked out of
/// the `code` view.
fn mask(text: &str) -> Vec<Line> {
    let chars: Vec<char> = text.chars().collect();
    let mut lines: Vec<Line> = Vec::new();
    let mut code = String::new();
    let mut comment = String::new();
    let mut raw_line = String::new();
    let mut state = State::Normal;
    let mut i = 0usize;

    macro_rules! flush_line {
        () => {{
            lines.push(Line {
                raw: std::mem::take(&mut raw_line),
                code: std::mem::take(&mut code),
                comment: std::mem::take(&mut comment),
                in_test: false,
                allow: None,
            });
        }};
    }

    while i < chars.len() {
        let c = chars[i];
        if c == '\n' {
            if let State::LineComment = state {
                state = State::Normal;
            }
            flush_line!();
            i += 1;
            continue;
        }
        raw_line.push(c);
        match state {
            State::Normal => {
                let next = chars.get(i + 1).copied();
                let prev_ident = i > 0 && (chars[i - 1].is_alphanumeric() || chars[i - 1] == '_');
                if c == '/' && next == Some('/') {
                    state = State::LineComment;
                    code.push(' ');
                } else if c == '/' && next == Some('*') {
                    state = State::BlockComment(1);
                    code.push(' ');
                    comment.push(' ');
                    raw_line.push('*');
                    code.push(' ');
                    i += 1;
                } else if c == '"' {
                    state = State::Str { raw_hashes: None };
                    code.push('"');
                } else if (c == 'r' || c == 'b') && !prev_ident {
                    // Possible raw/byte string prefix: r", r#", b", br#", rb...
                    let mut j = i + 1;
                    if c == 'b' && chars.get(j) == Some(&'r') {
                        j += 1;
                    }
                    let mut hashes = 0u8;
                    while chars.get(j) == Some(&'#') {
                        hashes += 1;
                        j += 1;
                    }
                    let is_raw = j > i + 1 || c == 'r';
                    if chars.get(j) == Some(&'"') && (is_raw || c == 'b') {
                        // Consume the prefix + opening quote.
                        for (k, &ch) in chars.iter().enumerate().take(j + 1).skip(i) {
                            code.push(ch);
                            comment.push(' ');
                            if k > i {
                                raw_line.push(ch);
                            }
                        }
                        // `b"` with no hashes and no `r` is a plain byte
                        // string (escapes active); treat hashes>0 or an `r`
                        // in the prefix as raw.
                        let raw = chars[i..j].contains(&'r');
                        state = State::Str {
                            raw_hashes: if raw { Some(hashes) } else { None },
                        };
                        i = j + 1;
                        continue;
                    } else {
                        code.push(c);
                        comment.push(' ');
                    }
                } else if c == '\'' {
                    // Char literal vs lifetime.
                    let is_char = match next {
                        Some('\\') => true,
                        Some(_) => chars.get(i + 2) == Some(&'\''),
                        None => false,
                    };
                    if is_char {
                        state = State::CharLit;
                    }
                    code.push('\'');
                    comment.push(' ');
                } else {
                    code.push(c);
                    comment.push(' ');
                }
            }
            State::LineComment => {
                code.push(' ');
                comment.push(c);
            }
            State::BlockComment(depth) => {
                let next = chars.get(i + 1).copied();
                if c == '*' && next == Some('/') {
                    code.push(' ');
                    comment.push(' ');
                    raw_line.push('/');
                    code.push(' ');
                    comment.push(' ');
                    i += 1;
                    if depth == 1 {
                        state = State::Normal;
                    } else {
                        state = State::BlockComment(depth - 1);
                    }
                } else if c == '/' && next == Some('*') {
                    code.push(' ');
                    comment.push(c);
                    raw_line.push('*');
                    code.push(' ');
                    comment.push('*');
                    i += 1;
                    state = State::BlockComment(depth + 1);
                } else {
                    code.push(' ');
                    comment.push(c);
                }
            }
            State::Str { raw_hashes } => match raw_hashes {
                None => {
                    if c == '\\' {
                        code.push(' ');
                        comment.push(' ');
                        if let Some(n) = chars.get(i + 1).copied() {
                            if n != '\n' {
                                raw_line.push(n);
                                code.push(' ');
                                comment.push(' ');
                                i += 1;
                            }
                        }
                    } else if c == '"' {
                        code.push('"');
                        comment.push(' ');
                        state = State::Normal;
                    } else {
                        code.push(' ');
                        comment.push(' ');
                    }
                }
                Some(h) => {
                    if c == '"' {
                        let closes = (1..=h as usize)
                            .all(|k| chars.get(i + k) == Some(&'#'));
                        if closes {
                            code.push('"');
                            comment.push(' ');
                            for _ in 0..h {
                                raw_line.push('#');
                                code.push('#');
                                comment.push(' ');
                            }
                            i += h as usize;
                            state = State::Normal;
                        } else {
                            code.push(' ');
                            comment.push(' ');
                        }
                    } else {
                        code.push(' ');
                        comment.push(' ');
                    }
                }
            },
            State::CharLit => {
                comment.push(' ');
                if c == '\\' {
                    code.push(' ');
                    if let Some(n) = chars.get(i + 1).copied() {
                        if n != '\n' {
                            raw_line.push(n);
                            code.push(' ');
                            i += 1;
                        }
                    }
                } else if c == '\'' {
                    code.push('\'');
                    state = State::Normal;
                } else {
                    code.push(' ');
                }
            }
        }
        i += 1;
    }
    if !raw_line.is_empty() || !code.is_empty() {
        flush_line!();
    }
    lines
}

/// Mark lines inside `#[cfg(test)]` / `#[test]` regions via brace tracking on
/// the masked code view.
fn mark_test_regions(lines: &mut [Line], whole_file: bool) {
    if whole_file {
        for l in lines.iter_mut() {
            l.in_test = true;
        }
        return;
    }
    let mut stack: Vec<bool> = Vec::new();
    let mut in_test = false;
    let mut pending_test = false;
    for line in lines.iter_mut() {
        let start_state = in_test;
        let code = line.code.clone();
        let t = code.trim_start();
        if t.starts_with("#[cfg(test")
            || t.starts_with("#[test]")
            || t.starts_with("#[cfg(all(test")
            || t.starts_with("#[cfg(any(test")
            || t.contains("#[cfg(test)]")
            || t.contains("#[test]")
        {
            pending_test = true;
        }
        for c in code.chars() {
            match c {
                '{' => {
                    in_test = in_test || pending_test;
                    stack.push(in_test);
                    pending_test = false;
                }
                '}' => {
                    stack.pop();
                    in_test = stack.last().copied().unwrap_or(false);
                }
                ';' if stack.is_empty() || !in_test => {
                    // An attribute consumed by a braceless item.
                    pending_test = false;
                }
                _ => {}
            }
        }
        line.in_test = start_state || in_test || pending_test;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn masks_comments_and_strings() {
        let f = SourceFile::parse(
            "crates/x/src/lib.rs",
            "let a = \"HashMap in a string\"; // HashMap in a comment\nlet b = 1;\n",
        );
        assert!(!f.lines[0].code.contains("HashMap"));
        assert!(f.lines[0].comment.contains("HashMap in a comment"));
        assert!(f.lines[1].code.contains("let b = 1;"));
    }

    #[test]
    fn raw_strings_and_char_literals() {
        let src = "let r = r#\"unwrap() \"quoted\" inside\"#;\nlet c = '\\'';\nlet l: &'static str = \"x\";\n";
        let f = SourceFile::parse("crates/x/src/lib.rs", src);
        assert!(!f.lines[0].code.contains("unwrap"));
        assert!(!f.lines[0].code.contains("quoted") && !f.lines[0].code.contains("inside"));
        assert!(f.lines[2].code.contains("&'static str"));
        assert!(!f.lines[2].code.contains('x'));
    }

    #[test]
    fn multiline_strings_stay_masked_to_their_close() {
        let src = "let s = \"line one\nline two\";\nlet t = 5;\n";
        let f = SourceFile::parse("crates/x/src/lib.rs", src);
        assert!(!f.lines[0].code.contains("line one"));
        assert!(!f.lines[1].code.contains("line two"));
        assert!(f.lines[1].code.contains(';'));
        assert!(f.lines[2].code.contains("let t"));
    }

    #[test]
    fn nested_block_comments() {
        let src = "/* outer /* inner */ still comment */ let x = 1;\n";
        let f = SourceFile::parse("crates/x/src/lib.rs", src);
        assert!(f.lines[0].code.contains("let x = 1;"));
        assert!(!f.lines[0].code.contains("outer"));
    }

    #[test]
    fn cfg_test_regions() {
        let src = "fn prod() { a.unwrap(); }\n#[cfg(test)]\nmod tests {\n    fn t() { b.unwrap(); }\n}\nfn prod2() {}\n";
        let f = SourceFile::parse("crates/x/src/lib.rs", src);
        assert!(!f.lines[0].in_test);
        assert!(f.lines[3].in_test);
        assert!(!f.lines[5].in_test);
    }

    #[test]
    fn cfg_not_test_is_not_a_test_region() {
        let src = "#[cfg(not(test))]\nfn prod() { x(); }\n";
        let f = SourceFile::parse("crates/x/src/lib.rs", src);
        assert!(!f.lines[1].in_test);
    }

    #[test]
    fn tests_dir_is_all_test() {
        let f = SourceFile::parse("tests/chaos.rs", "fn x() { a.unwrap(); }\n");
        assert!(f.is_test_file);
        assert!(f.lines[0].in_test);
    }

    #[test]
    fn allow_directive_with_and_without_reason() {
        let src = "// lint:allow(panic-path): checked above\nx.unwrap();\n// lint:allow(panic-path)\ny.unwrap();\n";
        let f = SourceFile::parse("crates/x/src/lib.rs", src);
        assert_eq!(f.allow_state(2, "panic-path"), AllowState::Allowed);
        assert_eq!(
            f.allow_state(4, "panic-path"),
            AllowState::AllowedNoReason(3)
        );
        assert_eq!(f.allow_state(2, "determinism"), AllowState::NotAllowed);
    }

    #[test]
    fn allow_directive_found_through_multiline_comment_block() {
        let src = "// lint:allow(panic-path): construction-time check —\n// continues over\n// several lines.\nx.expect(\"boom\");\n";
        let f = SourceFile::parse("crates/x/src/lib.rs", src);
        assert_eq!(f.allow_state(4, "panic-path"), AllowState::Allowed);
    }

    #[test]
    fn crate_dir_extraction() {
        let f = SourceFile::parse("crates/nand-flash/src/device.rs", "");
        assert_eq!(f.crate_dir.as_deref(), Some("nand-flash"));
        let g = SourceFile::parse("src/lib.rs", "");
        assert_eq!(g.crate_dir, None);
    }
}

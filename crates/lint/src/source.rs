//! Comment-, string- and `cfg(test)`-aware preprocessing of Rust sources.
//!
//! The pass consumes [`SourceFile`]s instead of raw text: the scanner masks
//! comments and string-literal interiors out of the `code` view (so token
//! searches never fire on prose) and tracks which lines sit inside test-only
//! regions (`#[cfg(test)]` modules, `#[test]` functions, `tests/` trees).
//!
//! The scanner is line/token-level by design — no external parser crates —
//! and handles nested block comments, raw strings (`r#"..."#`), byte strings,
//! char literals vs. lifetimes, and multi-line string literals.

/// One line of a source file, in its masked view.
#[derive(Debug, Clone)]
pub struct Line {
    /// Code view: comments and string interiors replaced by spaces, string
    /// delimiters kept, so token searches see real code only.
    pub code: String,
    /// Whether the line is inside a test-only region.
    pub in_test: bool,
}

/// A preprocessed source file.
#[derive(Debug, Clone)]
pub struct SourceFile {
    /// Path relative to the lint root, `/`-separated.
    pub rel: String,
    /// The preprocessed lines.
    pub lines: Vec<Line>,
}

impl SourceFile {
    /// Preprocess `text` into masked lines.
    pub fn parse(rel: &str, text: &str) -> Self {
        let mut lines = mask(text);
        let whole_file = rel.starts_with("tests/") || rel.contains("/tests/");
        mark_test_regions(&mut lines, whole_file);
        Self {
            rel: rel.to_string(),
            lines,
        }
    }

    /// Iterate 1-based line numbers with their lines.
    pub fn numbered(&self) -> impl Iterator<Item = (usize, &Line)> {
        self.lines.iter().enumerate().map(|(i, l)| (i + 1, l))
    }
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
/// the `code` view.  Each source char maps to one char of `code`.
fn mask(text: &str) -> Vec<Line> {
    let chars: Vec<char> = text.chars().collect();
    let mut lines: Vec<Line> = Vec::new();
    let mut code = String::new();
    let mut state = State::Normal;
    let mut i = 0usize;
    let flush = |lines: &mut Vec<Line>, code: &mut String| {
        lines.push(Line {
            code: std::mem::take(code),
            in_test: false,
        });
    };

    while i < chars.len() {
        let c = chars[i];
        if c == '\n' {
            if let State::LineComment = state {
                state = State::Normal;
            }
            flush(&mut lines, &mut code);
            i += 1;
            continue;
        }
        match state {
            State::Normal => {
                let next = chars.get(i + 1).copied();
                let prev_ident = i > 0 && (chars[i - 1].is_alphanumeric() || chars[i - 1] == '_');
                if c == '/' && next == Some('/') {
                    state = State::LineComment;
                    code.push(' ');
                } else if c == '/' && next == Some('*') {
                    state = State::BlockComment(1);
                    code.push_str("  ");
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
                        code.extend(&chars[i..=j]);
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
                } else {
                    code.push(c);
                }
            }
            State::LineComment => code.push(' '),
            State::BlockComment(depth) => {
                let next = chars.get(i + 1).copied();
                if c == '*' && next == Some('/') {
                    code.push_str("  ");
                    i += 1;
                    state = if depth == 1 {
                        State::Normal
                    } else {
                        State::BlockComment(depth - 1)
                    };
                } else if c == '/' && next == Some('*') {
                    code.push_str("  ");
                    i += 1;
                    state = State::BlockComment(depth + 1);
                } else {
                    code.push(' ');
                }
            }
            State::Str { raw_hashes: None } => {
                if c == '\\' {
                    code.push(' ');
                    if chars.get(i + 1).is_some_and(|&n| n != '\n') {
                        code.push(' ');
                        i += 1;
                    }
                } else if c == '"' {
                    code.push('"');
                    state = State::Normal;
                } else {
                    code.push(' ');
                }
            }
            State::Str {
                raw_hashes: Some(h),
            } => {
                let closes = c == '"' && (1..=h as usize).all(|k| chars.get(i + k) == Some(&'#'));
                if closes {
                    code.push('"');
                    code.extend(std::iter::repeat_n('#', h as usize));
                    i += h as usize;
                    state = State::Normal;
                } else {
                    code.push(' ');
                }
            }
            State::CharLit => {
                if c == '\\' {
                    code.push(' ');
                    if chars.get(i + 1).is_some_and(|&n| n != '\n') {
                        code.push(' ');
                        i += 1;
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
    if !code.is_empty() {
        flush(&mut lines, &mut code);
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
        assert!(f.lines[0].in_test);
    }
}

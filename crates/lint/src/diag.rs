//! Diagnostic type shared by every lint pass.

use std::fmt;

/// One finding, anchored to a file and 1-based line number.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Root-relative path with `/` separators.
    pub file: String,
    /// 1-based line number.
    pub line: usize,
    /// Pass that produced the finding (`one-lock`, `panic-path`, ...).
    pub pass: &'static str,
    /// Human-readable description, including the suggested fix.
    pub message: String,
}

impl Diagnostic {
    /// Build a diagnostic.
    pub fn new(file: &str, line: usize, pass: &'static str, message: String) -> Self {
        Self {
            file: file.to_string(),
            line,
            pass,
            message,
        }
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file, self.line, self.pass, self.message
        )
    }
}

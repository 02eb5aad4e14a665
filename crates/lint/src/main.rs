//! `noftl-lint` — workspace static-analysis gate.
//!
//! ```text
//! noftl-lint [--root <dir>]
//! ```
//!
//! Exits non-zero when the check reports a finding.

use std::path::PathBuf;
use std::process::ExitCode;

fn main() -> ExitCode {
    let mut root = PathBuf::from(".");
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--root" => match args.next() {
                Some(r) => root = PathBuf::from(r),
                None => return usage("--root requires a path"),
            },
            "--help" | "-h" => return usage(""),
            other => return usage(&format!("unknown argument `{other}`")),
        }
    }

    let diagnostics = noftl_lint::run(&root);
    for d in &diagnostics {
        println!("{d}");
    }
    eprintln!("noftl-lint: {} finding(s)", diagnostics.len());
    if diagnostics.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn usage(err: &str) -> ExitCode {
    if !err.is_empty() {
        eprintln!("noftl-lint: {err}");
    }
    eprintln!("usage: noftl-lint [--root <dir>]");
    if err.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

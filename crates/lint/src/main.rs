//! `noftl-lint` — workspace static-analysis gate.
//!
//! ```text
//! noftl-lint [--root <dir>] [--pass <name>]...
//! ```
//!
//! Exits non-zero when any pass reports a finding.

use std::path::PathBuf;
use std::process::ExitCode;

fn main() -> ExitCode {
    let mut root = PathBuf::from(".");
    let mut selected: Vec<String> = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--root" => match args.next() {
                Some(r) => root = PathBuf::from(r),
                None => return usage("--root requires a path"),
            },
            "--pass" => match args.next() {
                Some(p) => {
                    if !noftl_lint::passes::ALL.contains(&p.as_str()) {
                        return usage(&format!(
                            "unknown pass `{p}` (known: {})",
                            noftl_lint::passes::ALL.join(", ")
                        ));
                    }
                    selected.push(p);
                }
                None => return usage("--pass requires a pass name"),
            },
            "--help" | "-h" => return usage(""),
            other => return usage(&format!("unknown argument `{other}`")),
        }
    }

    let report = noftl_lint::run(
        &root,
        if selected.is_empty() {
            None
        } else {
            Some(&selected)
        },
    );

    for d in &report.diagnostics {
        println!("{d}");
    }
    eprintln!("noftl-lint: {} finding(s)", report.diagnostics.len());
    if report.diagnostics.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn usage(err: &str) -> ExitCode {
    if !err.is_empty() {
        eprintln!("noftl-lint: {err}");
    }
    eprintln!("usage: noftl-lint [--root <dir>] [--pass <name>]...");
    if err.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

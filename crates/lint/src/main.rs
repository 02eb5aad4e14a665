//! `noftl-lint` — workspace static-analysis gate.
//!
//! ```text
//! noftl-lint [--root <dir>] [--pass <name>]... [--emit-knobs]
//! ```
//!
//! Exits non-zero when any pass reports a finding.  `--emit-knobs` prints
//! the derived `NOFTL_*` knob registry as a markdown table, whichever passes
//! `--pass` selects (and still runs them).

use std::path::PathBuf;
use std::process::ExitCode;

fn main() -> ExitCode {
    let mut root = PathBuf::from(".");
    let mut selected: Vec<String> = Vec::new();
    let mut emit_knobs = false;
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
            "--emit-knobs" => emit_knobs = true,
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

    if emit_knobs {
        print!("{}", report.knobs.to_markdown());
    }
    for d in &report.diagnostics {
        println!("{d}");
    }
    eprintln!(
        "noftl-lint: {} finding(s); {} engine-lock site(s); {} registered knob(s)",
        report.diagnostics.len(),
        report.lock_sites,
        report.knobs.knobs.len(),
    );
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
    eprintln!("usage: noftl-lint [--root <dir>] [--pass <name>]... [--emit-knobs]");
    if err.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

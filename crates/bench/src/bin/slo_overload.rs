//! SLO overload sweep (PR 9): open-loop Poisson arrivals at increasing
//! offered rates, with the `NOFTL_SLO` policies off vs on, over 1 and 4
//! client sessions.
//!
//! Prints an aligned table to stdout, or with `--json` a JSON document.
//!
//! Usage:
//!   `cargo run --release -p noftl-bench --bin slo_overload [--json]`

use noftl_bench::slo::{render_json, render_table, run_sweep};

fn main() {
    let json = std::env::args().any(|a| a == "--json");
    eprintln!("running SLO overload sweep (arrival rate x NOFTL_SLO x clients)...");
    match run_sweep() {
        Ok(points) => {
            if json {
                println!("{}", render_json(&points));
            } else {
                println!("{}", render_table(&points));
            }
        }
        Err(e) => {
            eprintln!("sweep failed: {e}");
            std::process::exit(1);
        }
    }
}

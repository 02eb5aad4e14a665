//! Availability-under-die-failure sweep (PR 10): foreground tail latency
//! with no failure, with a naive foreground `rebuild_all`, and with the
//! rebuild spread through the SLO background hook.
//!
//! Prints an aligned table to stdout, or with `--json` a JSON document.
//!
//! Usage:
//!   `cargo run --release -p noftl-bench --bin availability [--json]`

use noftl_bench::availability::{render_json, render_table, run_sweep};

fn main() {
    let json = std::env::args().any(|a| a == "--json");
    eprintln!("running availability sweep (no-failure / naive / scheduled rebuild)...");
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

//! SLO overload sweep (PR 9): open-loop Poisson arrivals at increasing
//! offered rates, with the `StackConfig::slo` policies off vs on, over 1 and 4
//! client sessions.
//!
//! Usage: `cargo run --release -p noftl-bench --bin slo_overload`

use noftl_bench::slo::{render_table, run_sweep};

fn main() {
    eprintln!("running SLO overload sweep (arrival rate x StackConfig::slo x clients)...");
    match run_sweep() {
        Ok(points) => println!("{}", render_table(&points)),
        Err(e) => {
            eprintln!("sweep failed: {e}");
            std::process::exit(1);
        }
    }
}

//! Availability-under-die-failure sweep (PR 10): foreground tail latency
//! with no failure, with a naive foreground `rebuild_all`, and with the
//! rebuild spread through the SLO background hook.
//!
//! Usage: `cargo run --release -p noftl-bench --bin availability`

use noftl_bench::availability::{render_table, run_sweep};

fn main() {
    eprintln!("running availability sweep (no-failure / naive / scheduled rebuild)...");
    match run_sweep() {
        Ok(points) => println!("{}", render_table(&points)),
        Err(e) => {
            eprintln!("sweep failed: {e}");
            std::process::exit(1);
        }
    }
}

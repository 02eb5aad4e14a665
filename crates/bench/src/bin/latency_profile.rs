//! Reproduces the **§3 latency example**: the 4 KiB random-write latency
//! distribution of a conventional FTL-based SSD (average ≈ 0.45 ms with
//! outliers up to ~80 ms) versus NoFTL on native Flash.
//!
//! Usage: `cargo run --release -p noftl-bench --bin latency_profile`

use noftl_bench::latency::{render_table, run_latency_profile};

fn main() {
    let ops = 5_000;
    eprintln!("running 4 KiB random-write latency profile ({ops} ops per stack)...");
    let profiles = run_latency_profile(ops);
    println!("{}", render_table(&profiles));
}

//! Client-scaling sweep (PR 7): aggregate scan/point-mix throughput of 1, 2,
//! 4 and 8 concurrent clients over one shared engine, on the virtual clock.
//! The device has 8 dies, per-die queue depth 8.
//!
//! Usage: `cargo run --release -p noftl-bench --bin client_scaling`

use noftl_bench::client_scaling::{render_table, run_client_scaling};

fn main() {
    let client_counts = [1, 2, 4, 8];
    let per_client = 48;
    eprintln!(
        "running client-scaling sweep over {client_counts:?} clients ({per_client} txns/client)..."
    );
    let result = run_client_scaling(&client_counts, 8, per_client);
    println!("{}", render_table(&result));
}

//! Client-scaling sweep (PR 7): aggregate scan/point-mix throughput of N
//! concurrent clients over one shared engine, on the virtual clock.
//!
//! The sweep runs 1/2/4/8 clients (up to 32 with `--full`), capped by the
//! optional `MAX_CLIENTS` argument; the device has 8 dies, per-die queue
//! depth 8.
//!
//! Usage:
//!   `cargo run --release -p noftl-bench --bin client_scaling [--full] [MAX_CLIENTS]`

use noftl_bench::client_scaling::{render_table, run_client_scaling};

fn main() {
    let full = std::env::args().any(|a| a == "--full");
    let per_client: u64 = if full { 200 } else { 48 };
    let max_clients = std::env::args()
        .skip(1)
        .find(|a| a != "--full")
        .map_or(usize::MAX, |a| a.parse().expect("MAX_CLIENTS must be a number"));
    let client_counts: Vec<usize> = [1usize, 2, 4, 8, 16, 32]
        .into_iter()
        .filter(|&c| c == 1 || c <= max_clients)
        .filter(|&c| full || c <= 8)
        .collect();
    eprintln!(
        "running client-scaling sweep over {client_counts:?} clients ({per_client} txns/client)..."
    );
    let result = run_client_scaling(&client_counts, 8, per_client);
    println!("{}", render_table(&result));
}

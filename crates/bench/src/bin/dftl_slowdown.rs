//! Reproduces the **§3.1 claim**: DFTL (demand-cached page mapping) is up to
//! 3.7× slower than pure page-level mapping under TPC-C and TPC-B because of
//! translation-page traffic.
//!
//! Usage: `cargo run --release -p noftl-bench --bin dftl_slowdown`

use noftl_bench::dftl_slowdown::{render_table, run_dftl_slowdown};
use storage_engine::backend::StackConfig;

fn main() {
    eprintln!("recording traces and replaying against page-mapping and DFTL...");
    // Device RAM big enough for ~0.5 % of the mapping table — the regime the
    // paper targets.
    let rows = run_dftl_slowdown(&StackConfig::default(), 0.005);
    println!("{}", render_table(&rows));
}

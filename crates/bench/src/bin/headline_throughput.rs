//! Reproduces the **headline throughput claim** of the paper (§1, §5): live
//! TPC-C and TPC-B runs on FASTer and DFTL SSDs versus NoFTL, reporting the
//! NoFTL speedup (paper: ≥ 2.4× for TPC-C, 2.25× for TPC-B).
//!
//! Usage: `cargo run --release -p noftl-bench --bin headline_throughput`

use noftl_bench::setup::Benchmark;
use noftl_bench::throughput::{render_table, run_headline};
use storage_engine::backend::StackConfig;

fn main() {
    eprintln!("running TPC-C / TPC-B on faster, dftl and noftl stacks...");
    let knobs = StackConfig::from_env();
    let rows = run_headline(&knobs, &[Benchmark::TpcC, Benchmark::TpcB]);
    println!("{}", render_table(&rows));
}

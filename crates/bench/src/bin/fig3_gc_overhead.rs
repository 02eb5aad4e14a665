//! Reproduces **Figure 3** of the paper: absolute and relative COPYBACK /
//! ERASE overhead of garbage collection under FASTer vs NoFTL, off-line
//! trace-driven (TPC-C, TPC-B, TPC-E).
//!
//! Usage: `cargo run --release -p noftl-bench --bin fig3_gc_overhead`

use noftl_bench::gc_overhead::{render_table, run_gc_overhead};
use storage_engine::backend::StackConfig;

fn main() {
    eprintln!("recording in-memory traces and replaying against FASTer / NoFTL...");
    let rows = run_gc_overhead(&StackConfig::default());
    println!("{}", render_table(&rows));
    for row in &rows {
        println!(
            "{}: write amplification FASTer {:.2} vs NoFTL {:.2}; erase ratio {:.2}x -> NoFTL roughly doubles device lifetime",
            row.benchmark,
            row.faster.write_amplification,
            row.noftl.write_amplification,
            row.erase_ratio()
        );
    }
}

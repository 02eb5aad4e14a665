//! Reproduces **Figure 4** of the paper: TPC-C / TPC-B throughput with
//! die-wise striping under *global* vs *die-wise* association of db-writers,
//! as the number of NAND dies (= db-writers) grows — plus the §3.2
//! NCQ-vs-native companion: the same flush-wave burst swept over per-die
//! queue depth × host link.
//!
//! Usage: `cargo run --release -p noftl-bench --bin fig4_dbwriters`

use noftl_bench::dbwriters::{
    render_depth_link_table, render_table, run_dbwriter_scaling, run_depth_link_sweep,
};
use noftl_bench::setup::Benchmark;
use storage_engine::backend::StackConfig;

fn main() {
    let knobs = StackConfig::from_env();
    for b in [Benchmark::TpcC, Benchmark::TpcB] {
        eprintln!("running {} die-scaling sweep...", b.name());
        let result = run_dbwriter_scaling(&knobs, b, &[1, 2, 4, 8]);
        println!("{}", render_table(&result));
    }
    // The NCQ-vs-native argument as a figure table: per-die queue depth
    // (the NOFTL_ASYNC axis) × host link on the flush-wave burst.
    eprintln!("running queue depth x host link sweep...");
    let sweep = run_depth_link_sweep(8, &[1, 2, 4, 8]);
    println!("{}", render_depth_link_table(&sweep));
}

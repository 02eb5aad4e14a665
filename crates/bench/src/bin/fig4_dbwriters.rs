//! Reproduces **Figure 4** of the paper: TPC-C / TPC-B throughput with
//! die-wise striping under *global* vs *die-wise* association of db-writers,
//! as the number of NAND dies (= db-writers) grows — plus the §3.2
//! NCQ-vs-native companion: the same flush-wave burst swept over per-die
//! queue depth × host link.
//!
//! Usage:
//!   `cargo run --release -p noftl-bench --bin fig4_dbwriters [tpcc|tpcb] [--full]`

use noftl_bench::dbwriters::{
    render_depth_link_table, render_table, run_dbwriter_scaling, run_depth_link_sweep,
};
use noftl_bench::setup::{Benchmark, Scale};
use storage_engine::backend::StackConfig;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let scale = if args.iter().any(|a| a == "--full") {
        Scale::Full
    } else {
        Scale::Quick
    };
    let benchmarks: Vec<Benchmark> = if args.iter().any(|a| a == "tpcb") {
        vec![Benchmark::TpcB]
    } else if args.iter().any(|a| a == "tpcc") {
        vec![Benchmark::TpcC]
    } else {
        vec![Benchmark::TpcC, Benchmark::TpcB]
    };
    let die_counts: Vec<u32> = match scale {
        Scale::Quick => vec![1, 2, 4, 8],
        Scale::Full => vec![1, 2, 4, 8, 16, 32],
    };
    let knobs = StackConfig::from_env();
    for b in benchmarks {
        eprintln!("running {} die-scaling sweep ({scale:?})...", b.name());
        let result = run_dbwriter_scaling(&knobs, b, scale, &die_counts);
        println!("{}", render_table(&result));
    }
    // The NCQ-vs-native argument as a figure table: per-die queue depth
    // (the NOFTL_ASYNC axis) × host link on the flush-wave burst.
    eprintln!("running queue depth x host link sweep...");
    let depths: Vec<usize> = match scale {
        Scale::Quick => vec![1, 2, 4, 8],
        Scale::Full => vec![1, 2, 4, 8, 16, 32],
    };
    let sweep = run_depth_link_sweep(8, &depths);
    println!("{}", render_depth_link_table(&sweep));
}

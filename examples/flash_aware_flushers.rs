//! Demonstrates the Flash-aware db-writer assignment of §3.2 / Figure 4:
//! the same TPC-B workload with the db-writers either picking dirty pages
//! globally or each owning one NAND die (region).
//!
//! Run with: `cargo run --release --example flash_aware_flushers`

use noftl::nand_flash::FlashGeometry;
use noftl::noftl_core::{FlusherAssignment, NoFtlConfig};
use noftl::storage_engine::{StackConfig, StorageEngine};
use noftl::workloads::{BenchmarkDriver, DriverConfig, TpcB, TpcBConfig, Workload};

fn run(knobs: &StackConfig, dies: u32, assignment: FlusherAssignment) -> f64 {
    let geometry = FlashGeometry::with_dies(dies, 2048, 64, 4096);
    let mut cfg = knobs.engine();
    cfg.buffer_frames = 512;
    cfg.flushers = knobs.flushers(assignment, dies as usize);
    cfg.flushers.dirty_high_watermark = 0.3;
    cfg.flushers.dirty_low_watermark = 0.02;
    let backend = knobs.noftl_backend(NoFtlConfig::new(geometry));
    let mut engine = StorageEngine::new(Box::new(backend), cfg);

    let mut workload = TpcB::new(TpcBConfig {
        scale_factor: 8,
        tellers_per_branch: 10,
        accounts_per_branch: 2_000,
        seed: 7,
    });
    let start = workload.setup(&mut engine, 0).expect("setup");
    let driver = BenchmarkDriver::new(DriverConfig::write_pressure(16, 1_500));
    let report = driver.run(&mut engine, &mut workload, start).expect("run");
    report.tps
}

fn main() {
    // The default stack (batching, queue depth, ...), stated as one value.
    let knobs = StackConfig::default();
    println!("TPC-B throughput: global vs die-wise db-writer association (16 clients)\n");
    println!("{:>6} {:>14} {:>14} {:>10}", "dies", "global TPS", "die-wise TPS", "speedup");
    for dies in [1u32, 2, 4, 8] {
        let global = run(&knobs, dies, FlusherAssignment::Global);
        let die_wise = run(&knobs, dies, FlusherAssignment::DieWise);
        println!(
            "{:>6} {:>14.1} {:>14.1} {:>9.2}x",
            dies,
            global,
            die_wise,
            die_wise / global
        );
    }
    println!("\n(the gap grows with the number of dies — Figure 4 of the paper)");
}

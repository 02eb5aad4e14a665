//! Reproduces **Demo Scenario 1**: validation of the Flash emulator
//! (measured vs analytic latencies for several device profiles) and the
//! utilisation of Flash parallelism (IOPS vs queue depth and die count).
//!
//! Usage: `cargo run --release -p noftl-bench --bin emulator_validation`

use flash_emulator::validation::validate_standard_profiles;
use noftl_bench::validation::{render_parallelism, render_validation, run_parallelism_sweep};

fn main() {
    let (val_ops, sweep_ops) = (800, 1_500);
    eprintln!("validating emulator profiles ({val_ops} ops each)...");
    let reports = validate_standard_profiles(val_ops, 0.35);
    println!("{}", render_validation(&reports));
    eprintln!("running parallelism sweep ({sweep_ops} ops per point)...");
    let points = run_parallelism_sweep(sweep_ops);
    println!("{}", render_parallelism(&points));
}

//! Run a short TPC-C comparison between the conventional storage stack
//! (FASTer FTL behind a SATA2 block interface) and NoFTL on native Flash —
//! a miniature version of the paper's headline experiment.
//!
//! Run with: `cargo run --release --example tpcc_noftl_vs_faster`

use noftl::flash_emulator::{EmulatedSsd, HostLink};
use noftl::ftl::faster::{FasterConfig, FasterFtl};
use noftl::nand_flash::FlashGeometry;
use noftl::noftl_core::{FlusherAssignment, NoFtlConfig};
use noftl::storage_engine::{backend::BlockDeviceBackend, EngineConfig, StackConfig, StorageEngine};
use noftl::workloads::{BenchmarkDriver, DriverConfig, TpcC, TpcCConfig, Workload};

fn engine_config(knobs: &StackConfig) -> EngineConfig {
    let mut cfg = knobs.engine();
    cfg.buffer_frames = 512;
    cfg.flushers = knobs.flushers(FlusherAssignment::DieWise, 8);
    cfg.flushers.dirty_high_watermark = 0.3;
    cfg.flushers.dirty_low_watermark = 0.05;
    cfg
}

fn run(name: &str, mut engine: StorageEngine) -> f64 {
    let mut workload = TpcC::new(TpcCConfig {
        warehouses: 2,
        districts_per_warehouse: 10,
        customers_per_district: 200,
        items: 1_000,
        seed: 0xCC,
    });
    let start = workload.setup(&mut engine, 0).expect("setup");
    let driver = BenchmarkDriver::new(DriverConfig::write_pressure(16, 2_000));
    let report = driver.run(&mut engine, &mut workload, start).expect("run");
    println!(
        "{name:<12} {:>10.1} TPS   mean response {:>7.3} ms   p99 {:>7.3} ms",
        report.tps,
        report.mean_response_ms(),
        report.response_time.percentile(0.99) as f64 / 1e6,
    );
    report.tps
}

fn main() {
    let knobs = StackConfig::default();
    let geometry = FlashGeometry::with_dies(8, 2048, 64, 4096);
    println!(
        "TPC-C (2 warehouses) on a {} MiB, 8-die emulated Flash device\n",
        geometry.capacity_bytes() >> 20
    );

    // Conventional stack: FASTer FTL inside an emulated SATA2 SSD.
    let faster = FasterFtl::new(FasterConfig::new(geometry));
    let ssd = EmulatedSsd::new(faster, HostLink::sata2());
    let conventional = StorageEngine::new(
        Box::new(BlockDeviceBackend::new(ssd, "ftl-faster")),
        engine_config(&knobs),
    );
    let faster_tps = run("ftl-faster", conventional);

    // NoFTL stack: DBMS-integrated Flash management on native Flash.
    let backend = knobs.noftl_backend(NoFtlConfig::new(geometry));
    let native = StorageEngine::new(Box::new(backend), engine_config(&knobs));
    let noftl_tps = run("noftl", native);

    println!(
        "\nNoFTL speedup: {:.2}x (paper reports >= 2.4x for TPC-C on real hardware)",
        noftl_tps / faster_tps
    );
}

//! Shared experiment plumbing: device sizing, engine construction per
//! storage stack, and the one live TPC run behind Figure 4 and the headline.

use flash_emulator::{EmulatedSsd, HostLink};
use ftl::dftl::{Dftl, DftlConfig};
use ftl::faster::{FasterConfig, FasterFtl};
use nand_flash::FlashGeometry;
use noftl_core::{FlusherAssignment, NoFtlConfig};
use storage_engine::{
    backend::{BlockDeviceBackend, StackConfig},
    EngineConfig, StorageEngine,
};
use workloads::{BenchmarkDriver, DriverConfig, DriverReport};

use crate::gc_overhead::gc_workload;

/// Which storage stack an experiment runs on (the alternatives of Figure 1 /
/// Figure 6 of the paper).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stack {
    /// NoFTL: DBMS-integrated Flash management on native Flash.
    NoFtl,
    /// Conventional SSD with the FASTer hybrid FTL behind SATA2.
    Faster,
    /// Conventional SSD with DFTL behind SATA2.
    Dftl,
}

impl Stack {
    /// Human-readable name.
    pub fn name(&self) -> &'static str {
        match self {
            Stack::NoFtl => "noftl",
            Stack::Faster => "ftl-faster",
            Stack::Dftl => "ftl-dftl",
        }
    }
}

/// Which TPC benchmark an experiment drives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Benchmark {
    /// TPC-B.
    TpcB,
    /// TPC-C.
    TpcC,
    /// TPC-E.
    TpcE,
}

impl Benchmark {
    /// Human-readable name.
    pub fn name(&self) -> &'static str {
        match self {
            Benchmark::TpcB => "TPC-B",
            Benchmark::TpcC => "TPC-C",
            Benchmark::TpcE => "TPC-E",
        }
    }
}

/// Build a geometry providing at least `logical_pages` logical pages at the
/// given utilisation, spread over `dies` dies.
pub fn geometry_for_pages(logical_pages: u64, utilisation: f64, dies: u32) -> FlashGeometry {
    let pages_per_block = 64u64;
    let needed_pages = (logical_pages as f64 / utilisation.clamp(0.1, 0.95)).ceil() as u64;
    let blocks_total = (needed_pages.div_ceil(pages_per_block)).max(dies as u64 * 8);
    FlashGeometry::with_dies(dies, blocks_total as u32, pages_per_block as u32, 4096)
}

/// Construct a storage engine with configuration `cfg` on the requested
/// stack over a device with the given geometry, under `knobs`.
pub fn build_engine(
    knobs: &StackConfig,
    stack: Stack,
    geometry: FlashGeometry,
    cfg: EngineConfig,
) -> StorageEngine {
    match stack {
        Stack::NoFtl => {
            let backend = knobs.noftl_backend(NoFtlConfig::new(geometry));
            StorageEngine::new(Box::new(backend), cfg)
        }
        Stack::Faster => {
            let ftl = FasterFtl::new(FasterConfig::new(geometry));
            let ssd = EmulatedSsd::new(ftl, HostLink::sata2());
            StorageEngine::new(Box::new(BlockDeviceBackend::new(ssd, "ftl-faster")), cfg)
        }
        Stack::Dftl => {
            let ftl = Dftl::new(DftlConfig::new(geometry));
            let ssd = EmulatedSsd::new(ftl, HostLink::sata2());
            StorageEngine::new(Box::new(BlockDeviceBackend::new(ssd, "ftl-dftl")), cfg)
        }
    }
}

/// One live run under `knobs`: 800 write-pressure transactions of
/// `benchmark` from `clients` clients on `stack`, over a fixed 24 000-page
/// drive at 0.85 utilisation split over `dies` dies, with `dies` db-writers
/// in the given assignment.  The 512-frame buffer pool is a small fraction
/// of the database, so the storage stack is on the critical path.
pub fn run_live(
    knobs: &StackConfig,
    benchmark: Benchmark,
    stack: Stack,
    dies: u32,
    assignment: FlusherAssignment,
    clients: usize,
) -> DriverReport {
    let mut workload = gc_workload(benchmark);
    let geometry = geometry_for_pages(24_000, 0.85, dies);
    let mut cfg = knobs.engine();
    cfg.buffer_frames = 512;
    cfg.flushers = knobs.flushers(assignment, dies as usize);
    cfg.flushers.dirty_high_watermark = 0.3;
    cfg.flushers.dirty_low_watermark = 0.02;
    let mut engine = build_engine(knobs, stack, geometry, cfg);
    let start = workload.setup(&mut engine, 0).expect("setup");
    BenchmarkDriver::new(DriverConfig::write_pressure(clients, 800))
        .run(&mut engine, workload.as_mut(), start)
        .expect("driver run")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geometry_sizing_provides_requested_capacity() {
        let g = geometry_for_pages(10_000, 0.85, 8);
        assert!(g.total_pages() as f64 * 0.95 >= 10_000.0);
        assert_eq!(g.total_dies(), 8);
    }

    #[test]
    fn engines_build_on_every_stack() {
        let g = geometry_for_pages(4_000, 0.8, 4);
        let knobs = StackConfig::default();
        for stack in [Stack::NoFtl, Stack::Faster, Stack::Dftl] {
            let engine = build_engine(&knobs, stack, g, knobs.engine());
            assert!(engine.page_size() > 0);
            assert!(engine.backend_name().contains(match stack {
                Stack::NoFtl => "noftl",
                _ => "ftl",
            }));
        }
    }
}

//! Shared experiment plumbing: device sizing and engine construction per
//! storage stack.

use flash_emulator::{EmulatedSsd, HostLink};
use ftl::dftl::{Dftl, DftlConfig};
use ftl::faster::{FasterConfig, FasterFtl};
use ftl::page_ftl::{PageFtl, PageFtlConfig};
use nand_flash::FlashGeometry;
use noftl_core::{FlusherAssignment, NoFtlConfig};
use storage_engine::{
    backend::{BlockDeviceBackend, MemBackend, StackConfig},
    FlusherConfig, StorageEngine,
};

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
    /// Conventional SSD with pure page-level mapping behind SATA2.
    PageFtl,
    /// Zero-latency in-memory backend (trace recording / baselines).
    Mem,
}

impl Stack {
    /// Human-readable name.
    pub fn name(&self) -> &'static str {
        match self {
            Stack::NoFtl => "noftl",
            Stack::Faster => "ftl-faster",
            Stack::Dftl => "ftl-dftl",
            Stack::PageFtl => "ftl-page",
            Stack::Mem => "mem",
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

/// Experiment scale: `quick` keeps everything small enough for CI; `full`
/// approaches the paper's relative database sizes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Small databases / few transactions (seconds).
    Quick,
    /// Larger databases / more transactions (minutes).
    Full,
}

/// Build a geometry providing at least `logical_pages` logical pages at the
/// given utilisation, spread over `dies` dies.
pub fn geometry_for_pages(logical_pages: u64, utilisation: f64, dies: u32) -> FlashGeometry {
    let pages_per_block = 64u64;
    let needed_pages = (logical_pages as f64 / utilisation.clamp(0.1, 0.95)).ceil() as u64;
    let blocks_total = (needed_pages.div_ceil(pages_per_block)).max(dies as u64 * 8);
    FlashGeometry::with_dies(dies, blocks_total as u32, pages_per_block as u32, 4096)
}

/// Construct a storage engine on the requested stack over a device with the
/// given geometry, under `knobs`, with `buffer_frames` pool frames.  The paper's
/// live experiments use buffer pools far smaller than the database, so the
/// I/O path — and therefore the storage stack — dominates.
pub fn build_engine_with_buffer(
    knobs: &StackConfig,
    stack: Stack,
    geometry: FlashGeometry,
    flushers: FlusherConfig,
    buffer_frames: usize,
) -> StorageEngine {
    let mut cfg = knobs.engine();
    cfg.buffer_frames = buffer_frames;
    cfg.flushers = flushers;
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
        Stack::PageFtl => {
            let ftl = PageFtl::new(PageFtlConfig::new(geometry));
            let ssd = EmulatedSsd::new(ftl, HostLink::sata2());
            StorageEngine::new(Box::new(BlockDeviceBackend::new(ssd, "ftl-page")), cfg)
        }
        Stack::Mem => {
            let backend = MemBackend::new(geometry.page_size as usize, geometry.total_pages());
            StorageEngine::new(Box::new(backend), cfg)
        }
    }
}

/// Default number of measured transactions for a benchmark at a scale.
pub fn default_transactions(scale: Scale) -> u64 {
    match scale {
        Scale::Quick => 400,
        Scale::Full => 4_000,
    }
}

/// The db-writer configuration of the live experiments, under `knobs`.
pub fn default_flushers(
    knobs: &StackConfig,
    assignment: FlusherAssignment,
    writers: usize,
) -> FlusherConfig {
    let mut cfg = knobs.flushers(assignment, writers);
    cfg.dirty_high_watermark = 0.4;
    cfg.dirty_low_watermark = 0.05;
    cfg
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
        for stack in [Stack::NoFtl, Stack::Faster, Stack::Dftl, Stack::PageFtl, Stack::Mem] {
            let knobs = StackConfig::default();
            let engine = build_engine_with_buffer(&knobs, stack, g, FlusherConfig::global(2), 2048);
            assert!(engine.page_size() > 0);
            assert!(engine.backend_name().contains(match stack {
                Stack::Mem => "mem",
                Stack::NoFtl => "noftl",
                _ => "ftl",
            }));
        }
    }
}

//! Hermetic construction of the storage stacks, and the cumulative counters
//! read back from their public statistics accessors.
//!
//! Every configuration struct is built field by field: `EngineConfig::new()`,
//! `FlusherConfig::global()` and `NoFtlBackend::new()` read `NOFTL_*` knobs
//! ambiently, and a suite whose numbers depend on the caller's shell is not a
//! baseline.  [`clear_knobs`] removes the variables at start.
//!
//! One knob cannot be passed explicitly: `WalManager::new` takes its
//! submission depth from `NOFTL_ASYNC` and the engine exposes no setter.
//! [`with_async_env`] therefore sets the variable around engine construction
//! and removes it again, under a process-wide lock (tests build engines on
//! parallel threads).

use std::sync::Mutex;

use flash_emulator::{EmulatedSsd, HostLink};
use ftl::faster::{FasterConfig, FasterFtl};
use ftl::Ftl;
use nand_flash::{
    BlockAddr, DeviceConfig, DieAddr, FlashGeometry, FlashStats, NandDevice, NativeFlashInterface,
    TraceEntry,
};
use noftl_core::{FlusherAssignment, NoFtl, NoFtlConfig, StripingMode};
use storage_engine::backend::{BlockDeviceBackend, NoFtlBackend, StorageBackend};
use storage_engine::buffer::BufferStats;
use storage_engine::{EngineConfig, FlusherConfig, FlusherStats, ReadaheadStats};

use crate::json::Json;
use crate::shims::{FasterStack, TimedBackend};

/// Dies of every simulated drive in the suite.
pub const DIES: u32 = 8;
/// Pages per erase block.
pub const PAGES_PER_BLOCK: u32 = 32;
/// Page size (bytes): DB page = flash page.
pub const PAGE_SIZE: u32 = 4096;
/// Pages per batched submission (flushers and WAL): batching on.
pub const BATCH_PAGES: usize = 64;

static ENV_LOCK: Mutex<()> = Mutex::new(());

/// Remove every `NOFTL_*` variable from this process's environment.
pub fn clear_knobs() {
    let _guard = ENV_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    for (key, _) in std::env::vars_os() {
        if key.to_string_lossy().starts_with("NOFTL_") {
            std::env::remove_var(&key);
        }
    }
}

/// Run `build` with `NOFTL_ASYNC=depth` set (see the module docs), restoring
/// a clean environment afterwards.
pub fn with_async_env<T>(depth: usize, build: impl FnOnce() -> T) -> T {
    let _guard = ENV_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    if depth > 1 {
        std::env::set_var("NOFTL_ASYNC", depth.to_string());
    } else {
        std::env::remove_var("NOFTL_ASYNC");
    }
    let out = build();
    std::env::remove_var("NOFTL_ASYNC");
    out
}

/// An 8-die drive with at least `physical_pages` pages.
pub fn geometry(physical_pages: u64) -> FlashGeometry {
    let blocks = physical_pages.div_ceil(PAGES_PER_BLOCK as u64) as u32;
    FlashGeometry::with_dies(DIES, blocks, PAGES_PER_BLOCK, PAGE_SIZE)
}

/// How a scenario wants its backend wrapped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Wrap {
    /// No shim: the untraced run.
    None,
    /// Span-recording shim, device command tracing on: the `--trace` run.
    Trace,
    /// Fixed host-time spin per backend call: `perf selfcheck`.
    Spin(u64),
}

impl Wrap {
    /// Whether spans are recorded.
    pub fn tracing(self) -> bool {
        self == Wrap::Trace
    }

    fn apply<B: StorageBackend + Send + 'static>(self, b: B) -> Box<dyn StorageBackend + Send> {
        match self {
            Wrap::None => Box::new(b),
            Wrap::Trace => Box::new(TimedBackend::tracing(b)),
            Wrap::Spin(ns) => Box::new(TimedBackend::spinning(b, ns)),
        }
    }
}

/// Device commands kept for the bare-device replay of a `--trace` run.
pub const DEVICE_TRACE_CAPACITY: usize = 1_500_000;

/// The device configuration behind every NoFTL stack of the suite.
pub fn device_config(geometry: FlashGeometry, wrap: Wrap) -> DeviceConfig {
    DeviceConfig {
        trace_capacity: if wrap.tracing() {
            DEVICE_TRACE_CAPACITY
        } else {
            0
        },
        ..DeviceConfig::new(geometry)
    }
}

/// NoFTL configuration, every field explicit.
pub fn noftl_config(geometry: FlashGeometry, op_ratio: f64, async_depth: usize) -> NoFtlConfig {
    NoFtlConfig {
        geometry,
        op_ratio,
        striping: StripingMode::DieWise,
        gc_low_watermark: 2,
        gc_high_watermark: 4,
        wear_leveling_threshold: 64,
        store_data: true,
        async_queue_depth: async_depth,
        gc_batch_pages: 0,
        gc_read_heat_penalty: 0.0,
        gc_schedule_read_occupancy: 0,
        endurance_override: None,
        scrub_read_disturb_threshold: 10_000,
        redundancy: Vec::new(),
    }
}

/// A NoFTL backend over a fresh device.
pub fn noftl_backend(
    geometry: FlashGeometry,
    op_ratio: f64,
    async_depth: usize,
    wrap: Wrap,
) -> Box<dyn StorageBackend + Send> {
    let device = NandDevice::new(device_config(geometry, wrap));
    let noftl = NoFtl::with_device(device, noftl_config(geometry, op_ratio, async_depth));
    wrap.apply(NoFtlBackend::new(noftl))
}

/// Write static filler to logical pages `0..pages` of a fresh drive, so that
/// it starts a run as full as it will ever be.  What the database later
/// writes there replaces filler page for page.
pub fn fill(backend: &mut dyn StorageBackend, pages: u64) -> Result<(), String> {
    if backend.num_pages() < pages {
        return Err(format!(
            "drive exports {} logical pages, {pages} are to be filled",
            backend.num_pages()
        ));
    }
    let filler = vec![0xF1u8; backend.page_size()];
    let mut now = 0;
    for first in (0..pages).step_by(BATCH_PAGES) {
        let batch: Vec<(u64, &[u8])> = (first..pages.min(first + BATCH_PAGES as u64))
            .map(|p| (p, filler.as_slice()))
            .collect();
        now = backend
            .write_pages(now, &batch)
            .map_err(|e| format!("fill page {first}: {e}"))?;
    }
    Ok(())
}

/// The conventional stack: FASTer FTL inside an emulated SATA2 SSD.
pub fn faster_backend(geometry: FlashGeometry, wrap: Wrap) -> Box<dyn StorageBackend + Send> {
    let ftl = FasterFtl::new(FasterConfig {
        geometry,
        log_fraction: 0.08,
        spare_blocks: 8,
        second_chance: true,
        store_data: true,
    });
    let ssd = EmulatedSsd::new(ftl, HostLink::sata2());
    let stack: FasterStack = BlockDeviceBackend::new(ssd, "ftl-faster");
    match wrap {
        // Never bare: see the module docs of `shims`.
        Wrap::None => Box::new(TimedBackend::passive(stack)),
        _ => wrap.apply(stack),
    }
}

/// Engine configuration, every field explicit.
pub fn engine_config(
    buffer_frames: usize,
    assignment: FlusherAssignment,
    async_depth: usize,
    buffer_hit_ns: u64,
) -> EngineConfig {
    EngineConfig {
        buffer_frames,
        flushers: FlusherConfig {
            writers: DIES as usize,
            assignment,
            dirty_high_watermark: 0.3,
            dirty_low_watermark: 0.02,
            batch_pages: BATCH_PAGES,
            batch_global: false,
            async_depth,
        },
        log_pages: 64,
        wal_group_commit: 1,
        readahead_window: 64,
        buffer_hit_ns,
        admission: None,
        slo_scheduling: false,
    }
}

/// The effective engine configuration as a JSON record.
pub fn engine_config_json(cfg: &EngineConfig) -> Json {
    let mut o = Json::obj();
    o.set("buffer_frames", cfg.buffer_frames)
        .set("flusher_writers", cfg.flushers.writers)
        .set(
            "flusher_assignment",
            match cfg.flushers.assignment {
                FlusherAssignment::Global => "global",
                FlusherAssignment::DieWise => "die_wise",
            },
        )
        .set("dirty_high_watermark", cfg.flushers.dirty_high_watermark)
        .set("dirty_low_watermark", cfg.flushers.dirty_low_watermark)
        .set("batch_pages", cfg.flushers.batch_pages)
        .set("batch_global", cfg.flushers.batch_global)
        .set("async_depth", cfg.flushers.async_depth)
        .set("log_pages", cfg.log_pages)
        .set("wal_group_commit", cfg.wal_group_commit)
        .set("readahead_window", cfg.readahead_window)
        .set("buffer_hit_ns", cfg.buffer_hit_ns)
        .set("admission", false)
        .set("slo_scheduling", cfg.slo_scheduling);
    o
}

/// The geometry as a JSON record.
pub fn geometry_json(g: &FlashGeometry) -> Json {
    let mut o = Json::obj();
    o.set("dies", g.total_dies() as u64)
        .set("blocks", g.total_blocks())
        .set("pages_per_block", g.pages_per_block as u64)
        .set("page_size", g.page_size as u64)
        .set("physical_pages", g.total_pages());
    o
}

/// Upper bound on dies tracked per drive.
pub const MAX_DIES: usize = 16;

/// Cumulative counters of one stack, read from public accessors only.  A
/// plain `Copy` struct so a snapshot allocates nothing (one is taken in the
/// middle of the timed phase).
#[derive(Debug, Clone, Copy, Default)]
pub struct Counters {
    /// `FlashStats::reads`.
    pub flash_reads: u64,
    /// `FlashStats::programs`.
    pub flash_programs: u64,
    /// `FlashStats::erases`.
    pub flash_erases: u64,
    /// `FlashStats::copybacks`.
    pub flash_copybacks: u64,
    /// `FlashStats::queued_submissions`.
    pub queued: u64,
    /// `FlashStats::queue_gated_submissions`.
    pub queue_gated: u64,
    /// `NandDevice::die_busy_time` per die (virtual ns).
    pub die_busy_ns: [u64; MAX_DIES],
    /// `NandDevice::max_erase_count`.
    pub max_erase: u64,
    /// `NandDevice::mean_erase_count`.
    pub mean_erase: f64,
    /// Host page reads seen by the Flash-management layer.
    pub host_page_reads: u64,
    /// Host page writes seen by the Flash-management layer.
    pub host_page_writes: u64,
    /// Pages relocated by GC / merges.
    pub gc_page_copies: u64,
    /// Writes that had to wait for GC (`NoFtlStats::gc_stalls`,
    /// `FtlStats::gc_stalls`).
    pub gc_stalls: u64,
    /// FASTer merges of any kind.
    pub ftl_merges: u64,
    /// Host-link queue wait (virtual ns).
    pub link_wait_ns: u64,
    /// Commands admitted by the host link.
    pub link_cmds: u64,
    /// Buffer-pool hits.
    pub buf_hits: u64,
    /// Buffer-pool misses.
    pub buf_misses: u64,
    /// Buffer-pool evictions.
    pub buf_evictions: u64,
    /// Flusher cycles.
    pub flush_cycles: u64,
    /// Pages written by flusher cycles.
    pub flush_pages: u64,
    /// WAL forces.
    pub wal_forces: u64,
    /// WAL page writes.
    pub wal_pages: u64,
    /// Readahead pages issued.
    pub ra_issued: u64,
    /// Readahead pages consumed.
    pub ra_useful: u64,
    /// Readahead pages evicted unused.
    pub ra_wasted: u64,
    /// Backend page reads issued by full table scans (`scan_q1_async`).
    pub scan_page_reads: u64,
    /// Fewest page reads those scans could have needed.
    pub scan_min_pages: u64,
    /// Blocks reclaimed by NoFTL's GC (`NoFtlStats::gc_erases`).
    pub gc_erases: u64,
}

impl Counters {
    /// Device commands executed.
    pub fn flash_cmds(&self) -> u64 {
        self.flash_reads + self.flash_programs + self.flash_erases + self.flash_copybacks
    }

    /// Physical page programs (host, GC and copyback).
    pub fn physical_writes(&self) -> u64 {
        self.flash_programs + self.flash_copybacks
    }

    /// Counts accumulated since `earlier` (gauges keep their later value).
    pub fn since(&self, earlier: &Counters) -> Counters {
        let mut die_busy_ns = [0; MAX_DIES];
        for (d, slot) in die_busy_ns.iter_mut().enumerate() {
            *slot = self.die_busy_ns[d] - earlier.die_busy_ns[d];
        }
        Counters {
            flash_reads: self.flash_reads - earlier.flash_reads,
            flash_programs: self.flash_programs - earlier.flash_programs,
            flash_erases: self.flash_erases - earlier.flash_erases,
            flash_copybacks: self.flash_copybacks - earlier.flash_copybacks,
            queued: self.queued - earlier.queued,
            queue_gated: self.queue_gated - earlier.queue_gated,
            die_busy_ns,
            max_erase: self.max_erase,
            mean_erase: self.mean_erase,
            host_page_reads: self.host_page_reads - earlier.host_page_reads,
            host_page_writes: self.host_page_writes - earlier.host_page_writes,
            gc_page_copies: self.gc_page_copies - earlier.gc_page_copies,
            gc_stalls: self.gc_stalls - earlier.gc_stalls,
            ftl_merges: self.ftl_merges - earlier.ftl_merges,
            link_wait_ns: self.link_wait_ns - earlier.link_wait_ns,
            link_cmds: self.link_cmds - earlier.link_cmds,
            buf_hits: self.buf_hits - earlier.buf_hits,
            buf_misses: self.buf_misses - earlier.buf_misses,
            buf_evictions: self.buf_evictions - earlier.buf_evictions,
            flush_cycles: self.flush_cycles - earlier.flush_cycles,
            flush_pages: self.flush_pages - earlier.flush_pages,
            wal_forces: self.wal_forces - earlier.wal_forces,
            wal_pages: self.wal_pages - earlier.wal_pages,
            ra_issued: self.ra_issued - earlier.ra_issued,
            ra_useful: self.ra_useful - earlier.ra_useful,
            ra_wasted: self.ra_wasted - earlier.ra_wasted,
            scan_page_reads: self.scan_page_reads - earlier.scan_page_reads,
            scan_min_pages: self.scan_min_pages - earlier.scan_min_pages,
            gc_erases: self.gc_erases - earlier.gc_erases,
        }
    }

    fn add_flash(&mut self, f: &FlashStats, device: &NandDevice) {
        self.flash_reads = f.reads;
        self.flash_programs = f.programs;
        self.flash_erases = f.erases;
        self.flash_copybacks = f.copybacks;
        self.queued = f.queued_submissions;
        self.queue_gated = f.queue_gated_submissions;
        let g = *device.geometry();
        for d in 0..(g.total_dies() as usize).min(MAX_DIES) {
            self.die_busy_ns[d] = device.die_busy_time(DieAddr::from_flat(&g, d as u64));
        }
        self.max_erase = device.max_erase_count();
        self.mean_erase = device.mean_erase_count();
    }

    /// Fold in the counters of the backend behind `backend` (a
    /// [`NoFtlBackend`], or a [`FasterStack`] inside a [`TimedBackend`]).
    pub fn add_backend(&mut self, backend: &dyn StorageBackend) {
        let any = backend.as_any().expect("suite backends expose as_any");
        if let Some(b) = any.downcast_ref::<NoFtlBackend>() {
            self.add_noftl(b.noftl());
        } else if let Some(b) = any.downcast_ref::<FasterStack>() {
            let ssd = b.device();
            let s = ssd.ftl().ftl_stats();
            self.add_flash(ssd.ftl().flash_stats(), ssd.ftl().device());
            // The block-device backend counts host I/O itself; the FTL's own
            // host counters would also include set-up trims.
            let c = backend.counters();
            self.host_page_reads = c.host_reads;
            self.host_page_writes = c.host_writes;
            self.gc_page_copies = s.gc_page_copies;
            self.gc_stalls = s.gc_stalls;
            self.ftl_merges = s.total_merges();
            self.link_wait_ns = ssd.host().total_queue_wait();
            self.link_cmds = ssd.host().admitted();
        } else {
            panic!("unknown backend type behind as_any");
        }
    }

    /// Fold in the counters of a bare NoFTL instance.
    pub fn add_noftl(&mut self, noftl: &NoFtl) {
        let s = noftl.stats();
        self.add_flash(noftl.flash_stats(), noftl.device());
        self.host_page_reads = s.host_reads;
        self.host_page_writes = s.host_writes;
        self.gc_page_copies = s.gc_page_copies;
        self.gc_stalls = s.gc_stalls;
        self.gc_erases = s.gc_erases;
    }

    /// Fold in the engine-level statistics.
    pub fn add_engine(
        &mut self,
        buffer: BufferStats,
        readahead: ReadaheadStats,
        flushers: FlusherStats,
        wal_forces: u64,
        wal_pages: u64,
    ) {
        self.buf_hits = buffer.hits;
        self.buf_misses = buffer.misses;
        self.buf_evictions = buffer.evictions;
        self.flush_cycles = flushers.cycles;
        self.flush_pages = flushers.pages_flushed;
        self.wal_forces = wal_forces;
        self.wal_pages = wal_pages;
        self.ra_issued = readahead.prefetch_issued;
        self.ra_useful = readahead.prefetch_useful;
        self.ra_wasted = readahead.prefetch_wasted;
    }
}

/// The NoFTL instance behind `backend`, if that is the stack in use.
pub fn noftl_of(backend: &dyn StorageBackend) -> Option<&NoFtl> {
    backend
        .as_any()
        .and_then(|a| a.downcast_ref::<NoFtlBackend>())
        .map(|b| b.noftl())
}

/// The device behind `backend` (either stack).
pub fn device_of(backend: &dyn StorageBackend) -> &NandDevice {
    let any = backend.as_any().expect("suite backends expose as_any");
    if let Some(b) = any.downcast_ref::<NoFtlBackend>() {
        b.noftl().device()
    } else if let Some(b) = any.downcast_ref::<FasterStack>() {
        b.device().ftl().device()
    } else {
        panic!("unknown backend type behind as_any");
    }
}

/// Physical pages holding valid data.
pub fn valid_pages(device: &NandDevice) -> u64 {
    let g = *device.geometry();
    (0..g.total_blocks())
        .filter_map(|b| device.block_info(BlockAddr::from_flat(&g, b)).ok())
        .map(|info| info.valid_pages as u64)
        .sum()
}

/// Share of the drive's physical pages holding valid data.
pub fn utilisation(device: &NandDevice) -> f64 {
    valid_pages(device) as f64 / device.geometry().total_pages() as f64
}

/// Hand `visit` the command stream of the device behind `backend`, if it is
/// a NoFTL stack that recorded one.
pub fn visit_device_trace(
    backend: &dyn StorageBackend,
    visit: &mut dyn FnMut(&DeviceConfig, &[TraceEntry]),
) {
    if let Some(noftl) = noftl_of(backend) {
        let entries = noftl.device().tracer().entries();
        if !entries.is_empty() {
            // The replay device records nothing itself.
            visit(
                &device_config(*noftl.device().geometry(), Wrap::None),
                entries,
            );
        }
    }
}

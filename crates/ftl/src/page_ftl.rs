//! Pure page-level mapping FTL.
//!
//! The whole logical→physical table is held in (device) RAM — the scheme the
//! paper calls "pure page-level mapping" and uses as the upper bound that
//! DFTL is compared against (§3.1: DFTL is up to 3.7× slower because it can
//! only cache a fraction of this table).  Garbage collection is greedy: the
//! block with the most invalid pages is reclaimed, its valid pages are moved
//! with `COPYBACK` and the block is erased.

use nand_flash::error::{check_buf, check_lpn};
use nand_flash::{
    DeviceConfig, FlashError, FlashGeometry, FlashResult, FlashStats, NandDevice,
    NativeFlashInterface, Oob, OpCompletion, PageState, Ppa,
};
use sim_utils::time::SimInstant;

use crate::alloc::BlockPools;
use crate::mapping::PageMap;
use crate::stats::FtlStats;
use crate::traits::Ftl;

/// Configuration of the page-mapping FTL.
#[derive(Debug, Clone)]
pub struct PageFtlConfig {
    /// Device geometry.
    pub geometry: FlashGeometry,
    /// Fraction of physical capacity reserved as over-provisioning
    /// (not exported to the host). Typical SSDs use 7–28 %.
    pub op_ratio: f64,
    /// GC is triggered when the number of free blocks drops to
    /// `gc_low_watermark` (expressed in blocks).
    pub gc_low_watermark: usize,
    /// GC keeps reclaiming until this many blocks are free again.
    pub gc_high_watermark: usize,
    /// Whether the underlying device stores page contents.
    pub store_data: bool,
}

impl PageFtlConfig {
    /// Reasonable defaults for `geometry`: 10 % over-provisioning, GC kicks in
    /// at 2 free blocks per plane and refills to 4 per plane.
    pub fn new(geometry: FlashGeometry) -> Self {
        let planes = geometry.total_planes() as usize;
        Self {
            geometry,
            op_ratio: 0.10,
            gc_low_watermark: 2 * planes,
            gc_high_watermark: 4 * planes,
            store_data: true,
        }
    }

    /// Metadata-only variant (page contents not stored) for trace replay.
    pub fn metadata_only(geometry: FlashGeometry) -> Self {
        Self {
            store_data: false,
            ..Self::new(geometry)
        }
    }
}

/// Page-level mapping FTL with greedy garbage collection.
pub struct PageFtl {
    device: NandDevice,
    map: PageMap,
    pools: BlockPools,
    stats: FtlStats,
    logical_pages: u64,
    gc_low: usize,
    gc_high: usize,
    page_size: usize,
    /// Buffer of GC moves that cross planes.
    scratch: Vec<u8>,
}

impl PageFtl {
    /// Build a page-mapping FTL and its backing device from `config`.
    pub fn new(config: PageFtlConfig) -> Self {
        let geometry = config.geometry;
        let mut dev_cfg = DeviceConfig::new(geometry);
        dev_cfg.store_data = config.store_data;
        let device = NandDevice::new(dev_cfg);
        let logical_pages =
            ((geometry.total_pages() as f64) * (1.0 - config.op_ratio)).floor() as u64;
        assert!(logical_pages > 0, "over-provisioning leaves no logical space");
        Self {
            device,
            map: PageMap::with_physical_pages(logical_pages, geometry.total_pages()),
            pools: BlockPools::new_all_free(geometry),
            stats: FtlStats::new(),
            logical_pages,
            gc_low: config.gc_low_watermark.max(1),
            gc_high: config.gc_high_watermark.max(config.gc_low_watermark + 1),
            page_size: geometry.page_size as usize,
            scratch: vec![0u8; geometry.page_size as usize],
        }
    }

    /// Build with default configuration for `geometry`.
    pub fn with_geometry(geometry: FlashGeometry) -> Self {
        Self::new(PageFtlConfig::new(geometry))
    }

    /// Reclaim one victim block. Returns the completion time of the last
    /// flash command, or `None` when no victim exists.
    fn gc_once(&mut self, now: SimInstant) -> FlashResult<Option<SimInstant>> {
        let Some(victim) = self.pools.select_victim(&self.device) else {
            return Ok(None);
        };
        let g = *self.device.geometry();
        let mut t = now;

        for page_idx in 0..g.pages_per_block {
            let src = victim.page(page_idx);
            if self.device.page_state(src)? != PageState::Valid {
                continue;
            }
            let src_flat = src.flat(&g);
            let Some(lpn) = self.map.reverse(src_flat) else {
                // Valid on the device but not referenced by the map — the host
                // trimmed it concurrently; treat as garbage.
                continue;
            };
            let (dst, completion) =
                self.pools
                    .relocate(&mut self.device, t, src, &mut self.scratch)?;
            t = t.max(completion.completed_at);
            self.map.update(lpn, dst.flat(&g));
            self.stats.gc_page_copies += 1;
        }

        let done = self.device.erase_block(t, victim)?;
        t = t.max(done.completed_at);
        self.stats.gc_erases += 1;
        self.pools.release_block(victim);
        Ok(Some(t))
    }

    /// Run GC until the free-block pool is back above the high watermark.
    /// Returns the virtual time at which the caller may proceed.
    fn ensure_free_space(&mut self, now: SimInstant) -> FlashResult<SimInstant> {
        let mut t = now;
        if self.pools.total_free_blocks() > self.gc_low {
            return Ok(t);
        }
        self.stats.gc_stalls += 1;
        while self.pools.total_free_blocks() < self.gc_high {
            match self.gc_once(t)? {
                Some(end) => t = end,
                None => break, // nothing left to reclaim
            }
        }
        Ok(t)
    }

    /// Direct access to the block pools (test instrumentation).
    #[cfg(test)]
    pub(crate) fn free_blocks(&self) -> usize {
        self.pools.total_free_blocks()
    }
}

impl Ftl for PageFtl {
    fn name(&self) -> &'static str {
        "page-ftl"
    }

    fn logical_pages(&self) -> u64 {
        self.logical_pages
    }

    fn read(&mut self, now: SimInstant, lpn: u64, buf: &mut [u8]) -> FlashResult<OpCompletion> {
        check_lpn(lpn, self.logical_pages)?;
        check_buf(buf.len(), self.page_size)?;
        let g = *self.device.geometry();
        let Some(flat) = self.map.get(lpn) else {
            return Err(FlashError::ReadOfUnwrittenPage(Ppa::from_flat(&g, 0)));
        };
        let ppa = Ppa::from_flat(&g, flat);
        let (_, completion) = self.device.read_page(now, ppa, buf)?;
        self.stats.host_reads += 1;
        self.stats.read_latency.record(completion.latency_from(now));
        Ok(completion)
    }

    fn write(&mut self, now: SimInstant, lpn: u64, data: &[u8]) -> FlashResult<OpCompletion> {
        check_lpn(lpn, self.logical_pages)?;
        check_buf(data.len(), self.page_size)?;
        let g = *self.device.geometry();
        let t = self.ensure_free_space(now)?;
        let ppa = self
            .pools
            .allocate_page_round_robin()
            .ok_or(FlashError::OutOfSpareBlocks)?;
        let completion = self.device.program_page(t, ppa, data, Oob::data(lpn, 0))?;
        if let Some(old) = self.map.update(lpn, ppa.flat(&g)) {
            self.device.invalidate_page(Ppa::from_flat(&g, old))?;
        }
        self.stats.host_writes += 1;
        self.stats
            .write_latency
            .record(completion.completed_at.saturating_sub(now));
        Ok(OpCompletion {
            started_at: completion.started_at,
            completed_at: completion.completed_at,
        })
    }

    fn trim(&mut self, _now: SimInstant, lpn: u64) -> FlashResult<()> {
        check_lpn(lpn, self.logical_pages)?;
        let g = *self.device.geometry();
        if let Some(old) = self.map.unmap(lpn) {
            self.device.invalidate_page(Ppa::from_flat(&g, old))?;
        }
        self.stats.host_trims += 1;
        Ok(())
    }

    fn ftl_stats(&self) -> &FtlStats {
        &self.stats
    }

    fn flash_stats(&self) -> &FlashStats {
        self.device.stats()
    }

    fn device(&self) -> &NandDevice {
        &self.device
    }

    fn reset_stats(&mut self) {
        self.stats.clear();
        self.device.reset_stats();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nand_flash::FlashGeometry;

    fn small_ftl() -> PageFtl {
        PageFtl::with_geometry(FlashGeometry::small())
    }

    fn tiny_ftl() -> PageFtl {
        // Tiny geometry with generous over-provisioning so GC always has room.
        let mut cfg = PageFtlConfig::new(FlashGeometry::tiny());
        cfg.op_ratio = 0.30;
        cfg.gc_low_watermark = 2;
        cfg.gc_high_watermark = 3;
        PageFtl::new(cfg)
    }

    fn page(ftl: &PageFtl, byte: u8) -> Vec<u8> {
        vec![byte; ftl.device().geometry().page_size as usize]
    }

    #[test]
    fn read_your_writes() {
        let mut ftl = small_ftl();
        let data = page(&ftl, 0x42);
        ftl.write(0, 7, &data).unwrap();
        let mut buf = page(&ftl, 0);
        ftl.read(0, 7, &mut buf).unwrap();
        assert_eq!(buf, data);
    }

    #[test]
    fn overwrite_returns_newest_version() {
        let mut ftl = small_ftl();
        let v1 = page(&ftl, 1);
        let v2 = page(&ftl, 2);
        ftl.write(0, 5, &v1).unwrap();
        ftl.write(0, 5, &v2).unwrap();
        let mut buf = page(&ftl, 0);
        ftl.read(0, 5, &mut buf).unwrap();
        assert_eq!(buf, v2);
        // The old physical page is now invalid garbage.
        assert_eq!(ftl.flash_stats().programs, 2);
    }

    #[test]
    fn read_unwritten_lpn_fails() {
        let mut ftl = small_ftl();
        let mut buf = page(&ftl, 0);
        assert!(ftl.read(0, 3, &mut buf).is_err());
    }

    #[test]
    fn out_of_range_lpn_rejected() {
        let mut ftl = small_ftl();
        let cap = ftl.logical_pages();
        let data = page(&ftl, 0);
        assert!(matches!(
            ftl.write(0, cap, &data),
            Err(FlashError::InvalidAddress { .. })
        ));
        let mut buf = page(&ftl, 0);
        assert!(ftl.read(0, cap + 10, &mut buf).is_err());
    }

    #[test]
    fn trim_makes_page_unreadable_and_reclaims_space() {
        let mut ftl = small_ftl();
        let data = page(&ftl, 9);
        ftl.write(0, 11, &data).unwrap();
        ftl.trim(0, 11).unwrap();
        let mut buf = page(&ftl, 0);
        assert!(ftl.read(0, 11, &mut buf).is_err());
        assert_eq!(ftl.ftl_stats().host_trims, 1);
    }

    #[test]
    fn sustained_overwrites_trigger_gc_and_stay_correct() {
        let mut ftl = tiny_ftl();
        let lpns = ftl.logical_pages();
        // Write every logical page, then overwrite them all several times —
        // forces GC multiple times on the tiny device.
        let mut now = 0;
        for round in 0u8..6 {
            for lpn in 0..lpns {
                let data = vec![round.wrapping_add(lpn as u8); ftl.page_size];
                let c = ftl.write(now, lpn, &data).unwrap();
                now = c.completed_at;
            }
        }
        assert!(ftl.ftl_stats().gc_erases > 0, "GC never ran");
        assert!(ftl.ftl_stats().gc_page_copies > 0);
        // All pages still return their newest content.
        for lpn in 0..lpns {
            let mut buf = vec![0u8; ftl.page_size];
            ftl.read(now, lpn, &mut buf).unwrap();
            assert!(buf.iter().all(|&b| b == 5u8.wrapping_add(lpn as u8)));
        }
        // Write amplification must be > 1 once GC has copied pages.
        assert!(ftl.ftl_stats().write_amplification() > 1.0);
    }

    #[test]
    fn gc_uses_copyback_for_same_plane_moves() {
        let mut ftl = tiny_ftl();
        let lpns = ftl.logical_pages();
        let mut now = 0;
        for round in 0u8..6 {
            for lpn in 0..lpns {
                let data = vec![round; ftl.page_size];
                now = ftl.write(now, lpn, &data).unwrap().completed_at;
            }
        }
        // Tiny geometry has a single plane, so every GC move is a copyback.
        assert_eq!(
            ftl.flash_stats().copybacks,
            ftl.ftl_stats().gc_page_copies
        );
    }

    #[test]
    fn write_latency_includes_gc_stalls() {
        // A larger device where only a fraction of writes coincide with GC:
        // the median write is a plain program, but stalled writes pay for
        // block erases and page relocations — the "FTL outliers" of §3.
        let mut cfg = PageFtlConfig::new(FlashGeometry::small());
        cfg.op_ratio = 0.12;
        let mut ftl = PageFtl::new(cfg);
        let lpns = ftl.logical_pages();
        let mut rng = sim_utils::rng::SimRng::new(1);
        let mut now = 0;
        // Fill once, then random overwrites to generate garbage and GC.
        for lpn in 0..lpns {
            let data = vec![1u8; ftl.page_size];
            now = ftl.write(now, lpn, &data).unwrap().completed_at;
        }
        for _ in 0..5000 {
            let lpn = rng.range(0, lpns);
            let data = vec![2u8; ftl.page_size];
            now = ftl.write(now, lpn, &data).unwrap().completed_at;
        }
        let stats = ftl.ftl_stats();
        assert!(stats.gc_stalls > 0);
        let max = stats.write_latency.max();
        let p50 = stats.write_latency.percentile(0.5);
        assert!(
            max > p50 * 3,
            "expected GC outliers: max {max} p50 {p50}"
        );
    }

    #[test]
    fn logical_capacity_respects_over_provisioning() {
        let g = FlashGeometry::small();
        let mut cfg = PageFtlConfig::new(g);
        cfg.op_ratio = 0.25;
        let ftl = PageFtl::new(cfg);
        let expected = (g.total_pages() as f64 * 0.75).floor() as u64;
        assert_eq!(ftl.logical_pages(), expected);
    }

    #[test]
    fn reset_stats_clears_both_layers() {
        let mut ftl = small_ftl();
        let data = page(&ftl, 1);
        ftl.write(0, 0, &data).unwrap();
        ftl.reset_stats();
        assert_eq!(ftl.ftl_stats().host_writes, 0);
        assert_eq!(ftl.flash_stats().programs, 0);
    }

    #[test]
    fn free_block_accounting_stays_consistent() {
        let mut ftl = tiny_ftl();
        let before = ftl.free_blocks();
        let data = page(&ftl, 1);
        ftl.write(0, 0, &data).unwrap();
        // One active block was opened; free count drops by exactly one.
        assert_eq!(ftl.free_blocks(), before - 1);
    }
}

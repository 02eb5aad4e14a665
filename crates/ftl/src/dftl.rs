//! DFTL — Demand-based Flash Translation Layer (Gupta et al., ASPLOS 2009).
//!
//! DFTL keeps the logical→physical mapping at page granularity, but only a
//! small *Cached Mapping Table* (CMT) resides in device RAM; the full table
//! lives in *translation pages* on Flash, located through the Global
//! Translation Directory (GTD).  Cache misses cost extra Flash reads, dirty
//! evictions cost read-modify-write cycles of translation pages — the
//! overhead behind the paper's observation that DFTL can be up to **3.7×
//! slower** than pure page-level mapping under TPC-C/-B (§3.1).

use nand_flash::error::{check_buf, check_lpn};
use nand_flash::{
    DeviceConfig, FlashError, FlashGeometry, FlashResult, FlashStats, NandDevice,
    NativeFlashInterface, Oob, OpCompletion, PageKind, PageState, Ppa,
};
use serde::{Deserialize, Serialize};
use sim_utils::flatmap::FlatMap;
use sim_utils::time::SimInstant;

use crate::alloc::BlockPools;
use crate::mapping::{CmtEntry, LruCache, PageMap};
use crate::stats::FtlStats;
use crate::traits::Ftl;

/// Configuration of DFTL.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DftlConfig {
    /// Device geometry.
    pub geometry: FlashGeometry,
    /// Over-provisioning fraction.
    pub op_ratio: f64,
    /// Capacity of the Cached Mapping Table, in entries.  Real devices cache
    /// a tiny fraction of the full table (the paper cites ≤512 MB device RAM
    /// for multi-hundred-GB drives).
    pub cmt_entries: usize,
    /// GC low watermark (free blocks).
    pub gc_low_watermark: usize,
    /// GC high watermark (free blocks).
    pub gc_high_watermark: usize,
    /// Whether the device stores page contents.
    pub store_data: bool,
}

impl DftlConfig {
    /// Defaults: 10 % OP, CMT covering ~2 % of the logical pages.
    pub fn new(geometry: FlashGeometry) -> Self {
        let planes = geometry.total_planes() as usize;
        let logical = (geometry.total_pages() as f64 * 0.9) as usize;
        Self {
            geometry,
            op_ratio: 0.10,
            cmt_entries: (logical / 50).max(64),
            gc_low_watermark: 2 * planes,
            gc_high_watermark: 4 * planes,
            store_data: true,
        }
    }
}

/// DFTL: demand-cached page-level mapping.
pub struct Dftl {
    device: NandDevice,
    /// Authoritative logical→physical map (models the union of all
    /// translation pages plus the dirty CMT entries).
    global_map: PageMap,
    /// GTD: translation-virtual-page → flat PPA of the translation page.
    gtd: Vec<Option<u64>>,
    /// Dense reverse table for translation pages (flat PPA → tvpn) used by
    /// GC — directly indexed by physical page, like the data-page maps.
    translation_reverse: FlatMap,
    cmt: LruCache,
    pools: BlockPools,
    stats: FtlStats,
    logical_pages: u64,
    entries_per_tp: u64,
    gc_low: usize,
    gc_high: usize,
    page_size: usize,
    scratch: Vec<u8>,
}

impl Dftl {
    /// Build DFTL and its backing device from `config`.
    pub fn new(config: DftlConfig) -> Self {
        let geometry = config.geometry;
        let mut dev_cfg = DeviceConfig::new(geometry);
        dev_cfg.store_data = config.store_data;
        let device = NandDevice::new(dev_cfg);
        let logical_pages =
            ((geometry.total_pages() as f64) * (1.0 - config.op_ratio)).floor() as u64;
        let entries_per_tp = (geometry.page_size as u64 / 8).max(1);
        let translation_pages = logical_pages.div_ceil(entries_per_tp);
        Self {
            device,
            global_map: PageMap::with_physical_pages(logical_pages, geometry.total_pages()),
            gtd: vec![None; translation_pages as usize],
            translation_reverse: FlatMap::with_index_capacity(geometry.total_pages() as usize),
            cmt: LruCache::new(config.cmt_entries.max(1)),
            pools: BlockPools::new_all_free(geometry),
            stats: FtlStats::new(),
            logical_pages,
            entries_per_tp,
            gc_low: config.gc_low_watermark.max(1),
            gc_high: config.gc_high_watermark.max(config.gc_low_watermark + 1),
            page_size: geometry.page_size as usize,
            scratch: vec![0u8; geometry.page_size as usize],
        }
    }

    /// Build with default configuration.
    pub fn with_geometry(geometry: FlashGeometry) -> Self {
        Self::new(DftlConfig::new(geometry))
    }

    fn tvpn_of(&self, lpn: u64) -> u64 {
        lpn / self.entries_per_tp
    }

    /// Write a (new version of a) translation page for `tvpn`: invalidate the
    /// old copy, program a fresh page, update GTD.  Returns the completion
    /// time of the program.
    fn write_translation_page(&mut self, now: SimInstant, tvpn: u64) -> FlashResult<SimInstant> {
        let g = *self.device.geometry();
        let mut t = self.ensure_free_space_internal(now)?;
        // Read-modify-write: reading the old copy costs a Flash read.
        if let Some(old) = self.gtd[tvpn as usize] {
            let (_, c) = self
                .device
                .read_page(t, Ppa::from_flat(&g, old), &mut self.scratch)?;
            t = t.max(c.completed_at);
            self.stats.translation_reads += 1;
            self.device.invalidate_page(Ppa::from_flat(&g, old))?;
            self.translation_reverse.remove(old);
        }
        let dst = self
            .pools
            .allocate_page_round_robin()
            .ok_or(FlashError::OutOfSpareBlocks)?;
        let payload = vec![0u8; self.page_size];
        let c = self
            .device
            .program_page(t, dst, &payload, Oob::translation(tvpn, 0))?;
        t = t.max(c.completed_at);
        let flat = dst.flat(&g);
        self.gtd[tvpn as usize] = Some(flat);
        self.translation_reverse.insert(flat, tvpn);
        self.stats.translation_writes += 1;
        Ok(t)
    }

    /// Handle a dirty CMT eviction: write back the victim's translation page.
    /// DFTL's batching optimisation piggybacks every other dirty entry of the
    /// same translation page onto the same write-back.
    fn write_back_victim(&mut self, now: SimInstant, victim_lpn: u64) -> FlashResult<SimInstant> {
        let tvpn = self.tvpn_of(victim_lpn);
        let t = self.write_translation_page(now, tvpn)?;
        // Batch: clean all cached entries that belong to the same tvpn.
        let batch: Vec<u64> = self
            .cmt
            .iter()
            .filter(|(lpn, e)| e.dirty && self.tvpn_of(*lpn) == tvpn)
            .map(|(lpn, _)| lpn)
            .collect();
        for lpn in batch {
            if let Some(entry) = self.cmt.peek(lpn) {
                self.cmt.update_in_place(lpn, entry.ppa, false);
            }
        }
        Ok(t)
    }

    /// Insert `lpn → ppa` into the CMT, handling an eventual dirty eviction.
    /// Returns the time after any write-back I/O.
    fn cmt_insert(
        &mut self,
        now: SimInstant,
        lpn: u64,
        ppa: u64,
        dirty: bool,
    ) -> FlashResult<SimInstant> {
        let mut t = now;
        if let Some((victim_lpn, victim)) = self.cmt.insert(lpn, CmtEntry { ppa, dirty }) {
            if victim.dirty {
                t = self.write_back_victim(t, victim_lpn)?;
            }
        }
        Ok(t)
    }

    /// Translate `lpn`, charging translation-page reads on CMT misses.
    /// Returns `(physical_page, time_after_lookup)`.
    fn lookup(&mut self, now: SimInstant, lpn: u64) -> FlashResult<(Option<u64>, SimInstant)> {
        let mut t = now;
        if let Some(entry) = self.cmt.get(lpn) {
            return Ok((Some(entry.ppa), t));
        }
        let tvpn = self.tvpn_of(lpn);
        let Some(tp_flat) = self.gtd[tvpn as usize] else {
            // No translation page exists ⇒ the page was never written.
            return Ok((None, t));
        };
        // Cache miss: fetch the translation page from Flash.
        let g = *self.device.geometry();
        let mut buf = std::mem::take(&mut self.scratch);
        let (_, c) = self.device.read_page(t, Ppa::from_flat(&g, tp_flat), &mut buf)?;
        self.scratch = buf;
        t = t.max(c.completed_at);
        self.stats.translation_reads += 1;
        match self.global_map.get(lpn) {
            Some(ppa) => {
                t = self.cmt_insert(t, lpn, ppa, false)?;
                Ok((Some(ppa), t))
            }
            None => Ok((None, t)),
        }
    }

    fn gc_once(&mut self, now: SimInstant) -> FlashResult<Option<SimInstant>> {
        let Some(victim) = self.pools.select_victim(&self.device) else {
            return Ok(None);
        };
        let g = *self.device.geometry();
        let mut t = now;
        let mut touched_tvpns: Vec<u64> = Vec::new();

        for page_idx in 0..g.pages_per_block {
            let src = victim.page(page_idx);
            if self.device.page_state(src)? != PageState::Valid {
                continue;
            }
            let oob = self.device.peek_oob(src)?;
            let src_flat = src.flat(&g);
            let (dst, same_plane) = self.pools.allocate_gc_destination(src)?;
            let completion = if same_plane {
                self.device.copyback(t, src, dst, None)?
            } else {
                let mut buf = std::mem::take(&mut self.scratch);
                let (moved_oob, _) = self.device.read_page(t, src, &mut buf)?;
                let c = self.device.program_page(t, dst, &buf, moved_oob)?;
                self.scratch = buf;
                c
            };
            t = t.max(completion.completed_at);
            let dst_flat = dst.flat(&g);
            self.stats.gc_page_copies += 1;

            match oob.kind {
                PageKind::Translation => {
                    let tvpn = oob.lpn;
                    self.gtd[tvpn as usize] = Some(dst_flat);
                    self.translation_reverse.remove(src_flat);
                    self.translation_reverse.insert(dst_flat, tvpn);
                }
                _ => {
                    let lpn = oob.lpn;
                    if lpn == Oob::NO_LPN {
                        continue;
                    }
                    // Only relocate if this physical page is still the current
                    // version of the logical page.
                    if self.global_map.get(lpn) == Some(src_flat) {
                        self.global_map.update(lpn, dst_flat);
                        if self.cmt.peek(lpn).is_some() {
                            self.cmt.update_in_place(lpn, dst_flat, true);
                        } else {
                            let tvpn = self.tvpn_of(lpn);
                            if !touched_tvpns.contains(&tvpn) {
                                touched_tvpns.push(tvpn);
                            }
                        }
                    }
                }
            }
        }

        let done = self.device.erase_block(t, victim)?;
        t = t.max(done.completed_at);
        self.stats.gc_erases += 1;
        self.pools.release_block(victim);

        // Data pages whose mapping is not cached require their translation
        // pages to be updated on Flash.
        for tvpn in touched_tvpns {
            t = self.write_translation_page(t, tvpn)?;
        }
        Ok(Some(t))
    }

    /// GC driver used from host paths (counts stalls).
    fn ensure_free_space(&mut self, now: SimInstant) -> FlashResult<SimInstant> {
        if self.pools.total_free_blocks() > self.gc_low {
            return Ok(now);
        }
        self.stats.gc_stalls += 1;
        self.ensure_free_space_internal(now)
    }

    /// GC driver used from internal paths (translation writes) — no stall
    /// accounting to avoid double counting.
    fn ensure_free_space_internal(&mut self, now: SimInstant) -> FlashResult<SimInstant> {
        let mut t = now;
        if self.pools.total_free_blocks() > self.gc_low {
            return Ok(t);
        }
        while self.pools.total_free_blocks() < self.gc_high {
            match self.gc_once(t)? {
                Some(end) => t = end,
                None => break,
            }
        }
        Ok(t)
    }
}

impl Ftl for Dftl {
    fn name(&self) -> &'static str {
        "dftl"
    }

    fn logical_pages(&self) -> u64 {
        self.logical_pages
    }

    fn read(&mut self, now: SimInstant, lpn: u64, buf: &mut [u8]) -> FlashResult<OpCompletion> {
        check_lpn(lpn, self.logical_pages)?;
        check_buf(buf.len(), self.page_size)?;
        let g = *self.device.geometry();
        let (ppa, t) = self.lookup(now, lpn)?;
        let Some(flat) = ppa else {
            return Err(FlashError::ReadOfUnwrittenPage(Ppa::from_flat(&g, 0)));
        };
        let (_, completion) = self.device.read_page(t, Ppa::from_flat(&g, flat), buf)?;
        self.stats.host_reads += 1;
        self.stats
            .read_latency
            .record(completion.completed_at.saturating_sub(now));
        Ok(OpCompletion {
            started_at: completion.started_at,
            completed_at: completion.completed_at,
        })
    }

    fn write(&mut self, now: SimInstant, lpn: u64, data: &[u8]) -> FlashResult<OpCompletion> {
        check_lpn(lpn, self.logical_pages)?;
        check_buf(data.len(), self.page_size)?;
        let g = *self.device.geometry();
        let mut t = self.ensure_free_space(now)?;
        let dst = self
            .pools
            .allocate_page_round_robin()
            .ok_or(FlashError::OutOfSpareBlocks)?;
        let completion = self.device.program_page(t, dst, data, Oob::data(lpn, 0))?;
        t = t.max(completion.completed_at);
        let flat = dst.flat(&g);
        // Invalidate the superseded version (bookkeeping only — real FTLs do
        // this lazily through OOB scans).
        if let Some(old) = self.global_map.update(lpn, flat) {
            self.device.invalidate_page(Ppa::from_flat(&g, old))?;
        }
        // Update the cached mapping; a dirty eviction may cost translation I/O.
        t = self.cmt_insert(t, lpn, flat, true)?;
        self.stats.host_writes += 1;
        self.stats.write_latency.record(t.saturating_sub(now));
        Ok(OpCompletion {
            started_at: completion.started_at,
            completed_at: t,
        })
    }

    fn trim(&mut self, _now: SimInstant, lpn: u64) -> FlashResult<()> {
        check_lpn(lpn, self.logical_pages)?;
        let g = *self.device.geometry();
        self.cmt.remove(lpn);
        if let Some(old) = self.global_map.unmap(lpn) {
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

    fn small_dftl(cmt_entries: usize) -> Dftl {
        let mut cfg = DftlConfig::new(FlashGeometry::small());
        cfg.cmt_entries = cmt_entries;
        Dftl::new(cfg)
    }

    fn page(ftl: &Dftl, byte: u8) -> Vec<u8> {
        vec![byte; ftl.device().geometry().page_size as usize]
    }

    #[test]
    fn read_your_writes() {
        let mut ftl = small_dftl(64);
        let data = page(&ftl, 0x77);
        ftl.write(0, 13, &data).unwrap();
        let mut buf = page(&ftl, 0);
        ftl.read(0, 13, &mut buf).unwrap();
        assert_eq!(buf, data);
    }

    #[test]
    fn unwritten_page_read_fails_without_flash_io() {
        let mut ftl = small_dftl(64);
        let before = ftl.flash_stats().reads;
        let mut buf = page(&ftl, 0);
        assert!(ftl.read(0, 5, &mut buf).is_err());
        // GTD has no translation page yet, so the miss is resolved in RAM.
        assert_eq!(ftl.flash_stats().reads, before);
    }

    #[test]
    fn cmt_miss_costs_translation_read() {
        // CMT of 4 entries: writing 100 distinct pages evicts aggressively,
        // so later reads of early pages must fetch translation pages.
        let mut ftl = small_dftl(4);
        let mut now = 0;
        for lpn in 0..100u64 {
            let data = page(&ftl, lpn as u8);
            now = ftl.write(now, lpn, &data).unwrap().completed_at;
        }
        let tr_reads_before = ftl.ftl_stats().translation_reads;
        let mut buf = page(&ftl, 0);
        ftl.read(now, 0, &mut buf).unwrap();
        assert!(
            ftl.ftl_stats().translation_reads > tr_reads_before,
            "expected a translation-page read on CMT miss"
        );
        assert_eq!(buf, page(&ftl, 0));
    }

    #[test]
    fn dirty_evictions_cost_translation_writes() {
        let mut ftl = small_dftl(4);
        let mut now = 0;
        for lpn in 0..64u64 {
            let data = page(&ftl, 1);
            now = ftl.write(now, lpn, &data).unwrap().completed_at;
        }
        assert!(ftl.ftl_stats().translation_writes > 0);
        // Write amplification above 1 even without GC, because translation
        // pages consume programs.
        assert!(ftl.ftl_stats().write_amplification() > 1.0);
    }

    #[test]
    fn large_cmt_behaves_like_page_mapping() {
        // When the CMT covers the whole working set, no translation traffic
        // occurs after the initial writes.
        let mut ftl = small_dftl(10_000);
        let mut now = 0;
        for lpn in 0..100u64 {
            let data = page(&ftl, lpn as u8);
            now = ftl.write(now, lpn, &data).unwrap().completed_at;
        }
        let tr = ftl.ftl_stats().translation_reads + ftl.ftl_stats().translation_writes;
        assert_eq!(tr, 0, "no translation I/O expected with a huge CMT");
        for lpn in (0..100u64).rev() {
            let mut buf = page(&ftl, 0);
            ftl.read(now, lpn, &mut buf).unwrap();
            assert_eq!(buf[0], lpn as u8);
        }
    }

    #[test]
    fn small_cmt_is_slower_than_large_cmt() {
        // The mechanism behind the paper's "up to 3.7x slowdown": same
        // workload, the only difference is the CMT size.
        let run = |cmt: usize| -> u64 {
            let mut ftl = small_dftl(cmt);
            let mut rng = sim_utils::rng::SimRng::new(7);
            let mut now = 0;
            // Span the working set over many translation pages so a tiny CMT
            // misses (and writes back) constantly.
            let span = ftl.logical_pages().min(7000);
            for _ in 0..3000 {
                let lpn = rng.range(0, span);
                let data = vec![1u8; ftl.page_size];
                now = ftl.write(now, lpn, &data).unwrap().completed_at;
            }
            now
        };
        let slow = run(16);
        let fast = run(100_000);
        assert!(
            slow > fast * 3 / 2,
            "small CMT should be noticeably slower: {slow} vs {fast}"
        );
    }

    #[test]
    fn overwrites_and_gc_preserve_data() {
        let g = FlashGeometry::tiny();
        let mut cfg = DftlConfig::new(g);
        cfg.cmt_entries = 8;
        cfg.op_ratio = 0.4;
        cfg.gc_low_watermark = 2;
        cfg.gc_high_watermark = 3;
        let mut ftl = Dftl::new(cfg);
        let lpns = ftl.logical_pages().min(24);
        let mut now = 0;
        for round in 0u8..8 {
            for lpn in 0..lpns {
                let data = vec![round ^ lpn as u8; ftl.page_size];
                now = ftl.write(now, lpn, &data).unwrap().completed_at;
            }
        }
        assert!(ftl.ftl_stats().gc_erases > 0, "GC should have run");
        for lpn in 0..lpns {
            let mut buf = vec![0u8; ftl.page_size];
            ftl.read(now, lpn, &mut buf).unwrap();
            assert!(buf.iter().all(|&b| b == 7 ^ lpn as u8));
        }
    }

    #[test]
    fn trim_removes_mapping() {
        let mut ftl = small_dftl(64);
        let data = page(&ftl, 5);
        ftl.write(0, 3, &data).unwrap();
        ftl.trim(0, 3).unwrap();
        let mut buf = page(&ftl, 0);
        assert!(ftl.read(0, 3, &mut buf).is_err());
    }
}

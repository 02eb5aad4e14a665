//! FASTer — hybrid (log-block) mapping FTL (Lim, Lee, Moon, SNAPI 2010).
//!
//! The device is split into a **data area** mapped at *block* granularity and
//! a small **log area** mapped at *page* granularity.  Every host write is
//! appended to the log area; when the log runs out of space the oldest log
//! block is reclaimed:
//!
//! * **switch merge** — the log block contains a complete, in-order image of
//!   one logical block: it simply *becomes* the data block (no copies);
//! * **full merge** — otherwise each logical block with valid pages in the
//!   victim is rebuilt into a fresh data block by collecting the newest
//!   version of every page (from the log area or the old data block);
//! * **second chance (FASTer)** — valid pages that have not been given a
//!   second chance yet are instead copied forward to the current log block,
//!   postponing their merge; pages already given a chance are merged.
//!
//! Merges are the FTL-internal copy/erase traffic that Figure 3 of the NoFTL
//! paper measures: under TPC-B/C/E, FASTer performs roughly **2× more
//! copybacks and erases** than the DBMS-integrated NoFTL scheme.

use std::collections::VecDeque;

use nand_flash::error::{check_buf, check_lpn};
use nand_flash::{
    BlockAddr, DeviceConfig, FlashError, FlashGeometry, FlashResult, FlashStats, NandDevice,
    NativeFlashInterface, Oob, OpCompletion, PageState, Ppa,
};
use sim_utils::flatmap::FlatBitSet;
use sim_utils::time::SimInstant;

use crate::mapping::PageMap;
use crate::stats::FtlStats;
use crate::traits::Ftl;

/// Configuration of the FASTer FTL.
#[derive(Debug, Clone)]
pub struct FasterConfig {
    /// Device geometry.
    pub geometry: FlashGeometry,
    /// Fraction of all blocks dedicated to the log area (FAST uses a few
    /// percent; larger logs postpone merges).
    pub log_fraction: f64,
    /// Blocks kept in reserve as merge destinations.
    pub spare_blocks: usize,
    /// Enable the FASTer second-chance (isolation) pass.
    pub second_chance: bool,
    /// Whether the device stores page contents.
    pub store_data: bool,
}

impl FasterConfig {
    /// Defaults: 8 % log area, 8 spare blocks, second chance enabled.
    pub fn new(geometry: FlashGeometry) -> Self {
        Self {
            geometry,
            log_fraction: 0.08,
            spare_blocks: 8,
            second_chance: true,
            store_data: true,
        }
    }
}

/// FASTer hybrid-mapping FTL.
pub struct FasterFtl {
    device: NandDevice,
    /// Logical block → physical data block.
    block_map: Vec<Option<BlockAddr>>,
    /// Page-level map of the log area (LPN → flat PPA, and back).
    log_map: PageMap,
    /// Sealed log blocks, oldest first.
    sealed_logs: VecDeque<BlockAddr>,
    /// Currently filling log block and its next page offset.
    active_log: Option<(BlockAddr, u32)>,
    /// Erased blocks reserved for the log area.
    free_logs: VecDeque<BlockAddr>,
    /// Erased blocks available as data blocks / merge destinations.
    free_data: VecDeque<BlockAddr>,
    /// LPNs that already received their second chance (dense bitmap).
    chanced: FlatBitSet,
    second_chance: bool,
    stats: FtlStats,
    logical_pages: u64,
    pages_per_block: u64,
    page_size: usize,
    /// The second-chance survivors of the log block being reclaimed — their
    /// LPNs and, back to back, their page images — kept for their capacity
    /// between merges.
    survivor_lpns: Vec<u64>,
    survivor_bytes: Vec<u8>,
}

impl FasterFtl {
    /// Build FASTer and its backing device from `config`.
    pub fn new(config: FasterConfig) -> Self {
        let geometry = config.geometry;
        let mut dev_cfg = DeviceConfig::new(geometry);
        dev_cfg.store_data = config.store_data;
        // Block-mapped data blocks are written at arbitrary page offsets
        // during merges — allowed on SLC NAND.
        dev_cfg.strict_sequential_program = false;
        let device = NandDevice::new(dev_cfg);

        let total_blocks = geometry.total_blocks();
        let log_blocks = ((total_blocks as f64 * config.log_fraction).ceil() as u64)
            .clamp(2, total_blocks / 2);
        let spare = config.spare_blocks.max(2) as u64;
        let data_blocks = total_blocks - log_blocks - spare;
        assert!(data_blocks > 0, "geometry too small for FASTer layout");

        let mut free_logs = VecDeque::new();
        let mut free_data = VecDeque::new();
        for flat in 0..total_blocks {
            let addr = BlockAddr::from_flat(&geometry, flat);
            if flat < log_blocks {
                free_logs.push_back(addr);
            } else {
                free_data.push_back(addr);
            }
        }

        let logical_pages = data_blocks * geometry.pages_per_block as u64;
        Self {
            device,
            block_map: vec![None; data_blocks as usize],
            log_map: PageMap::with_physical_pages(logical_pages, geometry.total_pages()),
            sealed_logs: VecDeque::new(),
            active_log: None,
            free_logs,
            free_data,
            chanced: FlatBitSet::with_index_capacity(logical_pages as usize),
            second_chance: config.second_chance,
            stats: FtlStats::new(),
            logical_pages,
            pages_per_block: geometry.pages_per_block as u64,
            page_size: geometry.page_size as usize,
            survivor_lpns: Vec::new(),
            survivor_bytes: Vec::new(),
        }
    }

    /// Build with default configuration.
    pub fn with_geometry(geometry: FlashGeometry) -> Self {
        Self::new(FasterConfig::new(geometry))
    }

    fn lbn_of(&self, lpn: u64) -> u64 {
        lpn / self.pages_per_block
    }

    fn offset_of(&self, lpn: u64) -> u32 {
        (lpn % self.pages_per_block) as u32
    }

    /// Invalidate whatever version of `lpn` is currently live.
    fn invalidate_current(&mut self, lpn: u64) -> FlashResult<()> {
        let g = *self.device.geometry();
        if let Some(old) = self.log_map.unmap(lpn) {
            self.device.invalidate_page(Ppa::from_flat(&g, old))?;
            return Ok(());
        }
        let lbn = self.lbn_of(lpn) as usize;
        if let Some(data_block) = self.block_map[lbn] {
            let ppa = data_block.page(self.offset_of(lpn));
            if self.device.page_state(ppa)? == PageState::Valid {
                self.device.invalidate_page(ppa)?;
            }
        }
        Ok(())
    }

    /// Move one page (`src` → `dst`) inside the device: a COPYBACK when both
    /// ends sit on the same plane, otherwise a PAGE READ plus a PAGE PROGRAM
    /// ([`NandDevice::copy_page`]). Returns the completion time.
    fn relocate(
        &mut self,
        now: SimInstant,
        src: Ppa,
        dst: Ppa,
        oob: Oob,
    ) -> FlashResult<SimInstant> {
        let completion = if src.channel == dst.channel && src.die == dst.die && src.plane == dst.plane
        {
            self.device.copyback(now, src, dst, Some(oob))?
        } else {
            self.device.copy_page(now, src, dst, Some(oob))?
        };
        self.stats.gc_page_copies += 1;
        Ok(completion.completed_at)
    }

    /// Append a page to the log area on behalf of the host or of the
    /// second-chance pass. The caller must have ensured space exists.
    fn append_to_log(&mut self, now: SimInstant, lpn: u64, data: &[u8]) -> FlashResult<SimInstant> {
        let g = *self.device.geometry();
        // Open a log block if needed.
        let (block, next) = match self.active_log.take() {
            Some((block, next)) if next < g.pages_per_block => (block, next),
            full => {
                if let Some((block, _)) = full {
                    self.sealed_logs.push_back(block);
                }
                let fresh = self
                    .free_logs
                    .pop_front()
                    .ok_or(FlashError::OutOfSpareBlocks)?;
                (fresh, 0)
            }
        };
        let dst = block.page(next);
        self.active_log = Some((block, next + 1));

        let c = self.device.program_page(now, dst, data, Oob::log(lpn, 0))?;
        self.log_map.update(lpn, dst.flat(&g));
        Ok(c.completed_at)
    }

    /// Whether the log area can absorb one more page without a merge.
    fn log_has_room(&self) -> bool {
        let g = self.device.geometry();
        match self.active_log {
            Some((_, next)) if next < g.pages_per_block => true,
            _ => !self.free_logs.is_empty(),
        }
    }

    /// Full merge of logical block `lbn`: rebuild it into a fresh data block
    /// from the newest version of every page. Returns the completion time.
    fn full_merge(&mut self, now: SimInstant, lbn: u64) -> FlashResult<SimInstant> {
        let g = *self.device.geometry();
        let mut t = now;
        let dest = self
            .free_data
            .pop_front()
            .ok_or(FlashError::OutOfSpareBlocks)?;
        let old_data = self.block_map[lbn as usize];

        for offset in 0..g.pages_per_block {
            let lpn = lbn * self.pages_per_block + offset as u64;
            let dst = dest.page(offset);
            // Newest version: log area first, then the old data block.
            if let Some(log_flat) = self.log_map.get(lpn) {
                let src = Ppa::from_flat(&g, log_flat);
                t = self.relocate(t, src, dst, Oob::data(lpn, 0))?.max(t);
                self.device.invalidate_page(src)?;
                self.log_map.unmap(lpn);
                self.chanced.remove(lpn);
            } else if let Some(old_block) = old_data {
                let src = old_block.page(offset);
                if self.device.page_state(src)? == PageState::Valid {
                    t = self.relocate(t, src, dst, Oob::data(lpn, 0))?.max(t);
                    self.device.invalidate_page(src)?;
                }
            }
        }

        // Retire the old data block.
        if let Some(old_block) = old_data {
            let c = self.device.erase_block(t, old_block)?;
            t = t.max(c.completed_at);
            self.stats.gc_erases += 1;
            self.free_data.push_back(old_block);
        }
        self.block_map[lbn as usize] = Some(dest);
        self.stats.full_merges += 1;
        Ok(t)
    }

    /// Reclaim the oldest sealed log block (switch merge, second chance or
    /// full merges as appropriate). Returns the completion time.
    fn reclaim_log_block(&mut self, now: SimInstant) -> FlashResult<SimInstant> {
        let g = *self.device.geometry();
        let mut t = now;
        let victim = match self.sealed_logs.pop_front() {
            Some(b) => b,
            None => {
                // All log blocks are free or active; seal the active block.
                let (b, _) = self
                    .active_log
                    .take()
                    .ok_or(FlashError::OutOfSpareBlocks)?;
                b
            }
        };

        // Switch-merge check: does the victim hold a complete in-order image
        // of exactly one logical block?
        if let Some(lbn) = self.switch_merge_candidate(victim)? {
            let old = self.block_map[lbn as usize];
            self.block_map[lbn as usize] = Some(victim);
            for offset in 0..g.pages_per_block {
                let lpn = lbn * self.pages_per_block + offset as u64;
                self.log_map.unmap(lpn);
                self.chanced.remove(lpn);
            }
            if let Some(old_block) = old {
                let c = self.device.erase_block(t, old_block)?;
                t = t.max(c.completed_at);
                self.stats.gc_erases += 1;
                self.free_data.push_back(old_block);
            }
            // The victim left the log area; take a replacement from the data
            // pool so the log area keeps its size.
            if let Some(replacement) = self.free_data.pop_front() {
                self.free_logs.push_back(replacement);
            }
            self.stats.switch_merges += 1;
            return Ok(t);
        }

        let mut lpns = std::mem::take(&mut self.survivor_lpns);
        let mut bytes = std::mem::take(&mut self.survivor_bytes);
        lpns.clear();
        bytes.clear();
        let end = self.merge_log_block(t, victim, &mut lpns, &mut bytes);
        self.survivor_lpns = lpns;
        self.survivor_bytes = bytes;
        end
    }

    /// The general case of [`FasterFtl::reclaim_log_block`]: walk the
    /// victim's pages.  Valid pages that have not had their second chance
    /// yet are *survivors* (collected in the empty `lpns` / `bytes`): FASTer
    /// copies them forward to the head of the log (the isolation area)
    /// instead of merging their logical block immediately.  Pages that
    /// already had their chance force a full merge of their logical block.
    fn merge_log_block(
        &mut self,
        now: SimInstant,
        victim: BlockAddr,
        lpns: &mut Vec<u64>,
        bytes: &mut Vec<u8>,
    ) -> FlashResult<SimInstant> {
        let g = *self.device.geometry();
        let mut t = now;
        for page_idx in 0..g.pages_per_block {
            let src = victim.page(page_idx);
            let flat = src.flat(&g);
            let Some(lpn) = self.log_map.reverse(flat) else {
                continue; // stale or never-written page
            };
            if self.device.page_state(src)? != PageState::Valid {
                continue;
            }
            let give_chance = self.second_chance && !self.chanced.contains(lpn);
            if give_chance {
                // Read the survivor out of the victim; it is re-appended to
                // the log once the victim has been erased (circular log).
                let at = bytes.len();
                bytes.resize(at + self.page_size, 0);
                let (_, c) = self.device.read_page(t, src, &mut bytes[at..])?;
                t = t.max(c.completed_at);
                self.log_map.unmap(lpn);
                lpns.push(lpn);
                self.chanced.insert(lpn);
            } else {
                let lbn = self.lbn_of(lpn);
                t = self.full_merge(t, lbn)?.max(t);
            }
        }

        // The victim now holds no live pages the log still references: erase
        // and recycle it, then re-append the survivors.
        let c = self.device.erase_block(t, victim)?;
        t = t.max(c.completed_at);
        self.stats.gc_erases += 1;
        self.free_logs.push_back(victim);
        for (&lpn, data) in lpns.iter().zip(bytes.chunks(self.page_size)) {
            t = t.max(self.append_to_log(t, lpn, data)?);
            self.stats.gc_page_copies += 1;
        }
        Ok(t)
    }

    /// Detect a switch-merge opportunity: the victim contains a full,
    /// in-order, still-valid image of exactly one logical block.
    fn switch_merge_candidate(&self, victim: BlockAddr) -> FlashResult<Option<u64>> {
        let g = *self.device.geometry();
        let mut lbn: Option<u64> = None;
        for page_idx in 0..g.pages_per_block {
            let src = victim.page(page_idx);
            if self.device.page_state(src)? != PageState::Valid {
                return Ok(None);
            }
            let flat = src.flat(&g);
            let Some(lpn) = self.log_map.reverse(flat) else {
                return Ok(None);
            };
            if self.offset_of(lpn) != page_idx {
                return Ok(None);
            }
            let this_lbn = self.lbn_of(lpn);
            match lbn {
                None => lbn = Some(this_lbn),
                Some(l) if l != this_lbn => return Ok(None),
                _ => {}
            }
        }
        Ok(lbn)
    }

    /// Make sure the log area can take one more page, merging if necessary.
    fn ensure_log_space(&mut self, now: SimInstant) -> FlashResult<SimInstant> {
        let mut t = now;
        if self.log_has_room() {
            return Ok(t);
        }
        self.stats.gc_stalls += 1;
        while !self.log_has_room() {
            t = self.reclaim_log_block(t)?;
        }
        Ok(t)
    }
}

impl Ftl for FasterFtl {
    fn name(&self) -> &'static str {
        "faster"
    }

    fn logical_pages(&self) -> u64 {
        self.logical_pages
    }

    fn read(&mut self, now: SimInstant, lpn: u64, buf: &mut [u8]) -> FlashResult<OpCompletion> {
        check_lpn(lpn, self.logical_pages)?;
        check_buf(buf.len(), self.page_size)?;
        let g = *self.device.geometry();
        let ppa = if let Some(flat) = self.log_map.get(lpn) {
            Ppa::from_flat(&g, flat)
        } else {
            let lbn = self.lbn_of(lpn) as usize;
            let Some(block) = self.block_map[lbn] else {
                return Err(FlashError::ReadOfUnwrittenPage(Ppa::from_flat(&g, 0)));
            };
            let p = block.page(self.offset_of(lpn));
            if self.device.page_state(p)? != PageState::Valid {
                return Err(FlashError::ReadOfUnwrittenPage(p));
            }
            p
        };
        let (_, completion) = self.device.read_page(now, ppa, buf)?;
        self.stats.host_reads += 1;
        self.stats
            .read_latency
            .record(completion.completed_at.saturating_sub(now));
        Ok(completion)
    }

    fn write(&mut self, now: SimInstant, lpn: u64, data: &[u8]) -> FlashResult<OpCompletion> {
        check_lpn(lpn, self.logical_pages)?;
        check_buf(data.len(), self.page_size)?;
        let start = now;
        let mut t = self.ensure_log_space(now)?;
        self.invalidate_current(lpn)?;
        self.chanced.remove(lpn);
        t = t.max(self.append_to_log(t, lpn, data)?);
        self.stats.host_writes += 1;
        self.stats.write_latency.record(t.saturating_sub(start));
        Ok(OpCompletion {
            started_at: start,
            completed_at: t,
        })
    }

    fn trim(&mut self, _now: SimInstant, lpn: u64) -> FlashResult<()> {
        check_lpn(lpn, self.logical_pages)?;
        self.invalidate_current(lpn)?;
        self.chanced.remove(lpn);
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

    fn small_faster() -> FasterFtl {
        FasterFtl::with_geometry(FlashGeometry::small())
    }

    fn page(ftl: &FasterFtl, byte: u8) -> Vec<u8> {
        vec![byte; ftl.device().geometry().page_size as usize]
    }

    /// Blocks dedicated to the log area: sealed, active and free.
    fn log_area_blocks(ftl: &FasterFtl) -> usize {
        ftl.sealed_logs.len() + ftl.free_logs.len() + usize::from(ftl.active_log.is_some())
    }

    #[test]
    fn read_your_writes() {
        let mut ftl = small_faster();
        let data = page(&ftl, 0x31);
        ftl.write(0, 100, &data).unwrap();
        let mut buf = page(&ftl, 0);
        ftl.read(0, 100, &mut buf).unwrap();
        assert_eq!(buf, data);
    }

    #[test]
    fn overwrite_returns_newest() {
        let mut ftl = small_faster();
        let v1 = page(&ftl, 1);
        let v2 = page(&ftl, 2);
        ftl.write(0, 100, &v1).unwrap();
        ftl.write(0, 100, &v2).unwrap();
        let mut buf = page(&ftl, 0);
        ftl.read(0, 100, &mut buf).unwrap();
        assert_eq!(buf, v2);
    }

    #[test]
    fn unwritten_read_fails() {
        let mut ftl = small_faster();
        let mut buf = page(&ftl, 0);
        assert!(ftl.read(0, 42, &mut buf).is_err());
    }

    #[test]
    fn random_overwrites_force_full_merges() {
        let mut ftl = small_faster();
        let mut rng = sim_utils::rng::SimRng::new(3);
        let span = 512u64.min(ftl.logical_pages());
        let mut now = 0;
        // Fill then keep overwriting random pages until merges happen.
        for i in 0..span {
            let data = page(&ftl, i as u8);
            now = ftl.write(now, i, &data).unwrap().completed_at;
        }
        for _ in 0..3000 {
            let lpn = rng.range(0, span);
            let data = page(&ftl, lpn as u8);
            now = ftl.write(now, lpn, &data).unwrap().completed_at;
        }
        let s = ftl.ftl_stats();
        assert!(s.full_merges > 0, "expected full merges under random writes");
        assert!(s.gc_erases > 0);
        assert!(s.gc_page_copies > 0);
        assert!(s.write_amplification() > 1.0);
        // Data must still be correct after merges.
        for lpn in 0..span {
            let mut buf = page(&ftl, 0);
            ftl.read(now, lpn, &mut buf).unwrap();
            assert_eq!(buf[0], lpn as u8, "lpn {lpn} corrupted by merges");
        }
    }

    #[test]
    fn sequential_writes_enable_switch_merges() {
        let mut ftl = small_faster();
        let ppb = ftl.pages_per_block;
        // Sequentially write more logical blocks than the log area can hold,
        // so log blocks are reclaimed while they still contain a complete,
        // in-order, fully valid image of one logical block — the switch-merge
        // case (no page copies, one erase at most).
        let log_pages = log_area_blocks(&ftl) as u64 * ppb;
        let lbns = (log_pages / ppb) * 3;
        let mut now = 0;
        for lbn in 0..lbns {
            for off in 0..ppb {
                let lpn = lbn * ppb + off;
                let data = page(&ftl, lbn as u8);
                now = ftl.write(now, lpn, &data).unwrap().completed_at;
            }
        }
        assert!(
            ftl.ftl_stats().switch_merges > 0,
            "sequential writes should produce switch merges"
        );
        // Switch merges are cheap: far fewer page copies than host writes.
        assert!(ftl.ftl_stats().gc_page_copies < ftl.ftl_stats().host_writes / 2);
        // All data still readable and correct.
        for lbn in 0..lbns {
            let mut buf = page(&ftl, 0);
            ftl.read(now, lbn * ppb, &mut buf).unwrap();
            assert_eq!(buf[0], lbn as u8);
        }
    }

    #[test]
    fn second_chance_reduces_merges_for_skewed_workload() {
        let run = |second_chance: bool| -> (u64, u64) {
            let mut cfg = FasterConfig::new(FlashGeometry::small());
            cfg.second_chance = second_chance;
            let mut ftl = FasterFtl::new(cfg);
            let mut rng = sim_utils::rng::SimRng::new(11);
            let zipf = sim_utils::dist::Zipf::new(1024, 0.99);
            let mut now = 0;
            for _ in 0..4000 {
                let lpn = zipf.sample(&mut rng);
                let data = vec![7u8; ftl.page_size];
                now = ftl.write(now, lpn, &data).unwrap().completed_at;
            }
            (ftl.ftl_stats().full_merges, ftl.ftl_stats().gc_page_copies)
        };
        let (merges_with, _) = run(true);
        let (merges_without, _) = run(false);
        assert!(
            merges_with <= merges_without,
            "second chance should not increase full merges ({merges_with} vs {merges_without})"
        );
    }

    #[test]
    fn trim_invalidates_latest_version() {
        let mut ftl = small_faster();
        let data = page(&ftl, 4);
        ftl.write(0, 9, &data).unwrap();
        ftl.trim(0, 9).unwrap();
        let mut buf = page(&ftl, 0);
        assert!(ftl.read(0, 9, &mut buf).is_err());
    }

    #[test]
    fn out_of_range_lpn_rejected() {
        let mut ftl = small_faster();
        let cap = ftl.logical_pages();
        let data = page(&ftl, 0);
        assert!(ftl.write(0, cap, &data).is_err());
    }

    #[test]
    fn log_area_size_is_preserved_across_merges() {
        let mut ftl = small_faster();
        let initial = log_area_blocks(&ftl);
        let mut rng = sim_utils::rng::SimRng::new(5);
        let span = 512u64.min(ftl.logical_pages());
        let mut now = 0;
        for _ in 0..4000 {
            let lpn = rng.range(0, span);
            let data = page(&ftl, 1);
            now = ftl.write(now, lpn, &data).unwrap().completed_at;
        }
        let after = log_area_blocks(&ftl);
        // Switch merges may hand a log block to the data area and take a
        // replacement; tolerate a small drift but not collapse.
        assert!(
            after + 2 >= initial && after <= initial + 2,
            "log area drifted: {initial} -> {after}"
        );
    }

    #[test]
    fn write_latency_shows_merge_outliers() {
        let mut ftl = small_faster();
        let mut rng = sim_utils::rng::SimRng::new(17);
        let span = 512u64.min(ftl.logical_pages());
        let mut now = 0;
        for _ in 0..4000 {
            let lpn = rng.range(0, span);
            let data = page(&ftl, 1);
            now = ftl.write(now, lpn, &data).unwrap().completed_at;
        }
        let h = &ftl.ftl_stats().write_latency;
        // The paper's motivation: median writes are sub-millisecond, but FTL
        // maintenance produces orders-of-magnitude outliers.
        assert!(h.max() > h.percentile(0.5) * 10);
    }
}

//! The relocation seam of [`NoFtl`]: moving a block's live pages out, then
//! erasing or retiring it, for GC, wear leveling, scrubbing and retirement.

use nand_flash::{BlockAddr, FlashError, FlashResult, NativeFlashInterface, Oob, PageState, Ppa};
use sim_utils::time::SimInstant;

use super::NoFtl;
use crate::bad_block::RetireReason;
use crate::config::RedundancyPolicy;
use crate::gc::select_victim;
use crate::regions::RegionId;

impl NoFtl {
    /// Proactively reclaim one victim block in the most-pressured region,
    /// but only during a *read-cold* instant: when
    /// [`NoFtl::read_occupancy`] is at or above the configured threshold the
    /// relocation is deferred (counted in `gc_deferred_hot` of
    /// [`NoFtlStats`](crate::NoFtlStats)), so background copies do not land
    /// in the middle of a foreground read burst.  Demand GC on the allocator's
    /// low-watermark path ([`ensure_region_space`](NoFtl) internals) remains
    /// the emergency backstop and is unchanged.
    ///
    /// Returns `Ok(None)` when scheduling is off (threshold 0), no region is
    /// under pressure (every region is above the high watermark), the
    /// instant is read-hot, or the chosen region holds no reclaimable
    /// garbage.  A device failure the relocation runs into is recovered
    /// from as on the demand path: the next call picks the work up.
    pub fn schedule_gc(&mut self, now: SimInstant) -> FlashResult<Option<SimInstant>> {
        if self.gc_schedule_read_occupancy == 0 {
            return Ok(None);
        }
        let Some(region) = (0..self.regions.regions())
            .filter(|&r| self.regions.region_alive(r))
            .min_by_key(|&r| self.regions.free_blocks_in(r))
        else {
            return Ok(None);
        };
        if self.regions.free_blocks_in(region) >= self.gc_high {
            return Ok(None);
        }
        if self.read_occupancy(now) >= self.gc_schedule_read_occupancy {
            self.stats.gc_deferred_hot += 1;
            return Ok(None);
        }
        match self.gc_region_once(now, region) {
            Ok(end) => {
                if end.is_some() {
                    self.stats.gc_scheduled_cold += 1;
                }
                Ok(end)
            }
            // No block was reclaimed: recovered, but not counted.
            Err(e) => self.recover(now, e).map(Some),
        }
    }

    /// Run GC in `region` until it is back above the high watermark.  Returns
    /// the time at which the caller may proceed.
    pub(super) fn ensure_region_space(&mut self, now: SimInstant, region: RegionId) -> FlashResult<SimInstant> {
        let mut t = now;
        if self.regions.free_blocks_in(region) > self.gc_low {
            return Ok(t);
        }
        // A stall is only counted when GC actually attempts work: a region
        // that is low on free blocks but holds no reclaimable garbage (all
        // pages live) never delays the write, so it must not inflate the
        // Figure 3 stall statistic.
        let mut attempted = false;
        while self.regions.free_blocks_in(region) < self.gc_high {
            match self.gc_region_once(t, region)? {
                Some(end) => {
                    attempted = true;
                    t = end;
                }
                None => break,
            }
        }
        if attempted {
            self.stats.gc_stalls += 1;
        }
        Ok(t)
    }

    /// Return destination pages that were allocated but never programmed —
    /// the uncommitted tail of a write run, or a relocation's destinations,
    /// whose dispatch failed with `err` — to the allocator, so it stays in
    /// lockstep with the blocks' sequential write pointers.  Pages of the
    /// block a failed PAGE PROGRAM names are skipped: that block is retired
    /// wholesale by the caller.
    pub(super) fn rollback_unprogrammed(&mut self, err: &FlashError, unprogrammed: impl Iterator<Item = Ppa>) {
        let failed_block = match err {
            FlashError::ProgramFailed(p) => Some(p.block_addr()),
            _ => None,
        };
        let leaked: Vec<Ppa> = unprogrammed
            .filter(|p| Some(p.block_addr()) != failed_block)
            .collect();
        self.regions.rollback_unprogrammed(&leaked);
    }

    /// Commit one relocation: the page of `lpn` moved from `src` to `dst`.
    /// The mapping follows, the source becomes garbage, and the page's
    /// redundancy is re-linked at its new address (`data` is the relocated
    /// content when the move went through host memory, `None` after a
    /// copyback).  Returns when the re-protection work completed.
    fn commit_relocation(
        &mut self,
        now: SimInstant,
        src: Ppa,
        dst: Ppa,
        lpn: u64,
        data: Option<&[u8]>,
    ) -> FlashResult<SimInstant> {
        let g = *self.device.geometry();
        self.map.update(lpn, dst.flat(&g));
        self.device.invalidate_page(src)?;
        self.stats.gc_page_copies += 1;
        if self.redundancy_active {
            return self.relink_redundancy(now, src.flat(&g), dst.flat(&g), lpn, data);
        }
        Ok(now)
    }

    /// Relocate the pages of `block` that are still valid on the device and
    /// still mapped into `region`, invalidating each source *as it moves* so
    /// an interrupted migration can never leave stale-`Valid` pages whose
    /// reverse mappings are gone (those would permanently skew
    /// `invalid_pages` counts and GC victim scoring).
    ///
    /// Plane-local survivors move by copyback.  A cross-plane survivor is
    /// read into host memory and re-programmed as a run of one
    /// ([`NoFtl::program_relocation`]), dispatched once the next survivor's
    /// destination is allocated, and always before a copyback so the
    /// destination block's sequential programming order is preserved.
    /// Every relocation command goes through the dispatch helpers, so under
    /// async background GC queues behind — and delays — foreground
    /// flush/read traffic.
    ///
    /// Returns the completion time, whether every survivor moved and how
    /// many there were.  When the region runs out of space mid-relocation
    /// the already-moved prefix is kept (sources invalidated) and the flag
    /// is `false`.
    fn relocate_block(
        &mut self,
        now: SimInstant,
        region: RegionId,
        block: BlockAddr,
    ) -> FlashResult<(SimInstant, bool, u64)> {
        let g = *self.device.geometry();
        let mut survivors = std::mem::take(&mut self.survivors);
        survivors.clear();
        for page_idx in 0..g.pages_per_block {
            let src = block.page(page_idx);
            if self.device.page_state(src)? != PageState::Valid {
                continue;
            }
            let Some(lpn) = self.map.reverse(src.flat(&g)) else {
                continue;
            };
            survivors.push((src, lpn));
        }
        let mut data = std::mem::take(&mut self.relocation_data);
        let moved = self.relocate_pages(now, region, &survivors, &mut data);
        let count = survivors.len() as u64;
        self.survivors = survivors;
        self.relocation_data = data;
        moved.map(|(t, all)| (t, all, count))
    }

    /// The body of [`NoFtl::relocate_block`] over its survivors — (source
    /// page, logical page) pairs — with `data` as the page buffer of the
    /// pending cross-plane relocation.
    fn relocate_pages(
        &mut self,
        now: SimInstant,
        region: RegionId,
        survivors: &[(Ppa, u64)],
        data: &mut Vec<u8>,
    ) -> FlashResult<(SimInstant, bool)> {
        let mut t = now;
        let mut pending = None;
        for &(src, lpn) in survivors {
            // The destination is allocated before the pending program
            // dispatches, and goes back to the allocator if that dispatch
            // fails.
            let Some(dst) = self.regions.allocate_page_in(region) else {
                t = self.program_relocation(t, pending, data, None)?;
                return Ok((t, false));
            };
            t = self.program_relocation(t, pending.take(), data, Some(dst))?;
            // A parity-protected page must re-join the open stripe at its
            // new address, which needs the host-side content — so its
            // relocation always goes read + program, never copyback.  With
            // redundancy off this gate is a single false branch and the
            // copyback decision is untouched.
            let parity_protected = self.redundancy_active
                && matches!(self.policy_of_lpn(lpn), RedundancyPolicy::Parity(_));
            let same_plane = !parity_protected
                && dst.channel == src.channel
                && dst.die == src.die
                && dst.plane == src.plane;
            if same_plane {
                let c = match self.dispatch_copyback(t, src, dst) {
                    Ok(c) => c,
                    Err(e) => {
                        // A failed program consumed `dst` (its block is
                        // retired by the caller); any other error leaves it
                        // un-programmed and it goes back to the allocator.
                        self.rollback_unprogrammed(&e, std::iter::once(dst));
                        return Err(e);
                    }
                };
                // Copyback is only taken for non-parity pages; a mirror link
                // just travels with the page.
                t = self.commit_relocation(t.max(c.completed_at), src, dst, lpn, None)?;
                continue;
            }
            // Read now, program once the next destination is allocated.  The
            // source read gets the retry ladder: a survivor whose first read
            // overwhelms ECC is usually recoverable on a re-sense, and GC
            // must not lose it over one bad draw.
            data.resize(self.page_size, 0);
            let (oob, c) = match self.read_page_retrying(t, src, data) {
                Ok(r) => r,
                Err(e) => {
                    self.rollback_unprogrammed(&e, std::iter::once(dst));
                    return Err(e);
                }
            };
            pending = Some(((src, dst, lpn, oob), c.completed_at));
        }
        t = self.program_relocation(t, pending, data, None)?;
        Ok((t, true))
    }

    /// Program the `pending` relocation — `(source, destination, logical
    /// page, OOB)` with its content in `data` and its source read complete
    /// at the paired instant — at `now`, and commit its mapping and
    /// bookkeeping updates.  Nothing pending returns `now`.
    ///
    /// The dispatch may not start before its data exists.  A program bound
    /// for the die its source was read from is ordered behind that read by
    /// the die's channel, so it issues at `now` like any synchronous command
    /// (and queued, at the read's completion); a program onto another die
    /// always waits for the read, whatever the queue depth.
    ///
    /// On a failed dispatch the destination and `extra`, a destination the
    /// caller allocated *after* the pending one, go back to the allocator
    /// before the error propagates.
    fn program_relocation(
        &mut self,
        now: SimInstant,
        pending: Option<((Ppa, Ppa, u64, Oob), SimInstant)>,
        data: &[u8],
        extra: Option<Ppa>,
    ) -> FlashResult<SimInstant> {
        let Some(((src, dst, lpn, oob), ready)) = pending else {
            return Ok(now);
        };
        let now = if src.die_addr() != dst.die_addr() { now.max(ready) } else { now };
        match self.dispatch_program_run(now, ready, &[(dst, data, oob)]) {
            Ok(c) => self.commit_relocation(now.max(c.completed_at), src, dst, lpn, Some(data)),
            Err(e) => {
                if self.redundancy_active && matches!(e, FlashError::ProgramFailed(_)) {
                    // The retirement that follows the failed program starts
                    // from the dispatch instant, which the error cannot carry.
                    self.unwind_horizon = self.unwind_horizon.max(now);
                }
                self.rollback_unprogrammed(&e, std::iter::once(dst).chain(extra));
                Err(e)
            }
        }
    }

    /// Erase a reclaimed block, retiring it when it is worn out.  The erase
    /// attempt's latency is charged even on failure — a worn-out erase
    /// occupied the die exactly like a successful one before reporting its
    /// status, so it must never be free on the virtual clock.
    fn erase_reclaimed(
        &mut self,
        mut now: SimInstant,
        block: BlockAddr,
    ) -> FlashResult<(SimInstant, bool)> {
        // Erasing is the one operation that destroys flash content, so any
        // stripe with a member or parity page in this block — and any mirror
        // copy stored here — must be dissolved and its survivors
        // re-protected *before* the erase is attempted (the hook also covers
        // the failure path: a worn-out erase still retires the block).
        if self.redundancy_active {
            now = self.break_redundancy_in_block(now, block)?;
        }
        match self.dispatch_erase(now, block) {
            Ok(c) => {
                self.stats.gc_erases += 1;
                self.regions.release_block(block);
                Ok((now.max(c.completed_at), true))
            }
            Err(FlashError::WornOut(b)) => Ok(self.retire_failed_erase(now, b)),
            Err(FlashError::EraseFailed(b)) => {
                self.stats.erase_fail_retirements += 1;
                Ok(self.retire_failed_erase(now, b))
            }
            Err(e) => Err(e),
        }
    }

    /// Shared tail of erase-failure handling: the block is grown-bad, its
    /// region drops it, and the failed erase still held the die until it
    /// reported its status.
    fn retire_failed_erase(&mut self, now: SimInstant, b: BlockAddr) -> (SimInstant, bool) {
        let t = now.max(self.device.die_busy_until(b.die_addr()));
        self.bad_blocks.retire(b, RetireReason::Grown);
        self.regions.retire_block(b);
        self.stats.retired_blocks += 1;
        (t, false)
    }

    /// Move every survivor out of `block` into its region.  A program
    /// failure *during* the relocation retires that destination block too
    /// (recursively) and the relocation resumes with whatever survivors
    /// remain — those moved before the nested failure are already
    /// invalidated on `block`, so the re-collection picks up only the rest.
    /// A region that fills up first gives up one block of redundancy pages
    /// ([`NoFtl::reclaim_redundancy_block`]) and the relocation resumes the
    /// same way.  The recursion is bounded because every level permanently
    /// removes one block or frees one.  Returns the completion time and the
    /// pages the final pass moved.
    fn evacuate_block(&mut self, now: SimInstant, block: BlockAddr) -> FlashResult<(SimInstant, u64)> {
        let region = self.regions.region_of_block(block);
        let mut t = now;
        loop {
            match self.relocate_block(t, region, block) {
                Ok((end, true, moved)) => return Ok((end, moved)),
                Ok((end, false, _)) => t = self.reclaim_redundancy_block(end, region)?,
                Err(FlashError::ProgramFailed(failed)) => {
                    t = self.retire_failed_block(t, failed.block_addr())?;
                }
                Err(e) => return Err(e),
            }
        }
    }

    /// Retire a block one of whose PAGE PROGRAMs reported failure.  The
    /// failed page is consumed but the rest of the block stays readable, so
    /// its still-valid pages are relocated into the block's region first
    /// ([`NoFtl::evacuate_block`]) — only then is the block handed to the
    /// bad-block manager.
    pub(super) fn retire_failed_block(
        &mut self,
        now: SimInstant,
        block: BlockAddr,
    ) -> FlashResult<SimInstant> {
        // Out of the allocation pools first, so relocation destinations can
        // never land in the block being retired.
        self.regions.retire_block(block);
        // Start no earlier than the failed relocation program's dispatch —
        // the error that routed control here could not carry that instant.
        let t = now.max(std::mem::take(&mut self.unwind_horizon));
        let (mut t, _) = self.evacuate_block(t, block)?;
        // Retirement takes the block's content out of service exactly like
        // an erase: mapped pages were just relocated (their protection moved
        // with them), so what remains are stripe members/parity pages and
        // mirror copies — dissolve those and re-protect their survivors
        // while the block is still readable.
        if self.redundancy_active {
            t = self.break_redundancy_in_block(t, block)?;
        }
        // Write the device-side bad-block mark last: the survivors above had
        // to be readable while the relocation ran.  From here on the device
        // rejects every access, so neither GC victim selection nor the wear
        // leveler can resurrect the block into the free pool.
        self.device.mark_block_bad(block)?;
        self.bad_blocks.retire(block, RetireReason::Grown);
        self.stats.retired_blocks += 1;
        self.stats.program_fail_retirements += 1;
        Ok(t)
    }

    /// Read-disturb scrubbing: when a block has served
    /// [`scrub_read_disturb_threshold`](crate::NoFtlConfig) reads since its last
    /// erase, relocate its live pages and erase it preventively, before
    /// accumulated disturb pushes its raw bit-error rate past what ECC can
    /// correct.  The relocations and the erase ride the per-die command
    /// queues exactly like GC traffic.  A no-op (zero device calls) unless
    /// the device runs with a fault plan — without one the disturb counter
    /// is not even maintained.
    pub(super) fn maybe_scrub(&mut self, now: SimInstant, block: BlockAddr) -> FlashResult<SimInstant> {
        if !self.faults_active {
            return Ok(now);
        }
        if self.device.read_disturb(block)? < self.scrub_threshold {
            return Ok(now);
        }
        // The active allocation block cannot be erased out from under the
        // region's write pointer; it rotates out on its own soon enough.
        if self.bad_blocks.is_bad(block) || self.regions.is_active(block) {
            return Ok(now);
        }
        let g = *self.device.geometry();
        // A dead die can be neither relocated from nor erased.
        if self
            .regions
            .die_dead(block.die_addr().flat(&g) as usize)
        {
            return Ok(now);
        }
        let (t, relocated) = self.evacuate_block(now, block)?;
        // Erasing resets the disturb counter; a worn-out or failing erase
        // retires the block instead (erase_reclaimed handles both).
        let t = self.erase_reclaimed(t, block)?.0;
        self.stats.scrubbed_blocks += 1;
        self.stats.scrub_relocations += relocated;
        Ok(t)
    }

    /// Make room in a `region` too full to relocate into: erase one of its
    /// blocks that holds only redundancy pages — parity pages and mirror
    /// copies, valid on the device but mapped to no logical page.  Victim
    /// scoring never picks such a block while its stripes live (it counts no
    /// invalid pages), and a stripe lives until one of its blocks erases —
    /// which, for members in a region with plenty of free space, may be
    /// never.  Yet the content is derived: the erase breaks the block's
    /// stripes and mirror pairs, and [`NoFtl::erase_reclaimed`] re-protects
    /// their still-mapped pages on other dies.  Fails with
    /// [`FlashError::OutOfSpareBlocks`] when the region holds no such block
    /// (always, with redundancy off).
    fn reclaim_redundancy_block(
        &mut self,
        now: SimInstant,
        region: RegionId,
    ) -> FlashResult<SimInstant> {
        let g = *self.device.geometry();
        let redundancy_only = |n: &Self, b: BlockAddr| {
            !n.regions.is_active(b)
                && !n.regions.is_free(b)
                && n.device
                    .block_info(b)
                    .is_ok_and(|i| i.usable && i.valid_pages > 0)
                && (0..g.pages_per_block).all(|p| n.map.reverse(b.page(p).flat(&g)).is_none())
        };
        let block = self
            .regions
            .dies_of(region)
            .iter()
            .filter(|die| self.redundancy_active && !self.regions.die_dead(die.flat(&g) as usize))
            .flat_map(|die| {
                (0..g.planes_per_die).flat_map(move |plane| {
                    (0..g.blocks_per_plane)
                        .map(move |b| BlockAddr::new(die.channel, die.die, plane, b))
                })
            })
            .find(|&b| redundancy_only(self, b))
            .ok_or(FlashError::OutOfSpareBlocks)?;
        Ok(self.erase_reclaimed(now, block)?.0)
    }

    /// Reclaim one block in `region`. Returns the completion time of the last
    /// command, or `None` when the region holds no reclaimable garbage.
    fn gc_region_once(
        &mut self,
        now: SimInstant,
        region: RegionId,
    ) -> FlashResult<Option<SimInstant>> {
        let Some(victim) = select_victim(&self.device, &self.regions, region, self.gc_policy) else {
            return Ok(None);
        };
        // Credit dead-page hints: invalid pages the DBMS declared dead are
        // garbage GC never had to copy.
        let g = *self.device.geometry();
        for page_idx in 0..g.pages_per_block {
            let src = victim.page(page_idx);
            if self.device.page_state(src)? == PageState::Invalid
                && self.dead_hinted.remove(src.flat(&g))
            {
                self.stats.gc_dead_skipped += 1;
            }
        }
        let (mut t, moved_all, _) = self.relocate_block(now, region, victim)?;
        if !moved_all {
            // The victim's survivors did not fit.  The moved prefix is
            // already invalidated on the victim, so a later pass picks up
            // only the rest once a redundancy block made room.
            return self.reclaim_redundancy_block(t, region).map(Some);
        }

        // Erase the victim; a worn-out failure retires the block instead of
        // recycling it (but still costs the erase attempt's latency).
        t = self.erase_reclaimed(t, victim)?.0;

        // Static wear leveling, evaluated every few erases.
        if self.wear.on_erase() {
            t = self.maybe_level_wear(t, region)?;
        }
        Ok(Some(t))
    }

    /// Migrate a cold block if the wear spread in `region` demands it.
    fn maybe_level_wear(&mut self, now: SimInstant, region: RegionId) -> FlashResult<SimInstant> {
        let Some(migration) = self.wear.select_migration(&self.device, &self.regions, region)
        else {
            return Ok(now);
        };
        let cold = migration.cold_block;
        let (t, moved_all, _) = self.relocate_block(now, region, cold)?;
        if !moved_all {
            // The region filled up mid-migration.  The moved prefix is
            // already invalidated on the cold block, so its garbage counts
            // stay truthful; the erase waits for a later attempt.
            return Ok(t);
        }
        let (t, erased) = self.erase_reclaimed(t, cold)?;
        if erased {
            self.stats.wear_migrations += 1;
        }
        Ok(t)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::NoFtlConfig;
    use crate::noftl::tests::{faulty_noftl, tiny_noftl};
    use crate::regions::StripingMode;
    use nand_flash::fault::FaultPlan;
    use nand_flash::{DeviceConfig, FlashGeometry, NandDevice};

    #[test]
    fn overwrites_and_gc_preserve_newest_data() {
        let mut n = tiny_noftl();
        let lpns = n.logical_pages();
        let mut now = 0;
        for round in 0u8..6 {
            for lpn in 0..lpns {
                let data = vec![round ^ lpn as u8; n.page_size];
                now = n.write(now, lpn, &data).unwrap().completed_at;
            }
        }
        assert!(n.stats().gc_erases > 0, "GC should have run");
        for lpn in 0..lpns {
            let mut buf = vec![0u8; n.page_size];
            n.read(now, lpn, &mut buf).unwrap();
            assert!(buf.iter().all(|&b| b == 5 ^ lpn as u8));
        }
    }

    #[test]
    fn dead_page_hints_reduce_gc_copies() {
        // Two identical runs, except one marks half the pages dead before the
        // overwrite storm: GC should copy fewer pages in that run.
        let run = |use_hints: bool| -> (u64, u64) {
            let mut n = tiny_noftl();
            let lpns = n.logical_pages();
            let mut now = 0;
            for lpn in 0..lpns {
                let data = vec![1u8; n.page_size];
                now = n.write(now, lpn, &data).unwrap().completed_at;
            }
            if use_hints {
                for lpn in (0..lpns).step_by(2) {
                    n.mark_dead(lpn).unwrap();
                }
            }
            // Overwrite the other half repeatedly to force GC.
            for round in 0u8..8 {
                for lpn in (1..lpns).step_by(2) {
                    let data = vec![round; n.page_size];
                    now = n.write(now, lpn, &data).unwrap().completed_at;
                }
            }
            (n.stats().gc_page_copies, n.stats().gc_erases)
        };
        let (copies_without, _) = run(false);
        let (copies_with, _) = run(true);
        assert!(
            copies_with < copies_without,
            "dead-page hints should reduce GC copies: {copies_with} vs {copies_without}"
        );
    }

    #[test]
    fn gc_work_is_less_than_faster_style_merging() {
        // NoFTL's greedy page-level GC should produce clearly less copy work
        // than one full-merge per updated block would — sanity check of the
        // mechanism behind Figure 3 (exact ratios are checked in the bench
        // harness / integration tests).
        let mut cfg = NoFtlConfig::new(FlashGeometry::small());
        cfg.op_ratio = 0.20;
        let mut n = NoFtl::new(cfg);
        let lpns = n.logical_pages();
        let mut now = 0;
        let mut rng = sim_utils::rng::SimRng::new(5);
        for lpn in 0..lpns {
            let data = vec![0u8; n.page_size];
            now = n.write(now, lpn, &data).unwrap().completed_at;
        }
        let writes = 2000u64;
        for _ in 0..writes {
            let lpn = rng.range(0, lpns);
            let data = vec![1u8; n.page_size];
            now = n.write(now, lpn, &data).unwrap().completed_at;
        }
        let wa = n.stats().write_amplification();
        assert!(wa < 3.0, "NoFTL write amplification unexpectedly high: {wa}");
    }

    #[test]
    fn idle_region_with_low_free_count_does_not_count_a_gc_stall() {
        // Regression (PR 3): `ensure_region_space` used to bump `gc_stalls`
        // before checking whether the region held any reclaimable garbage, so
        // filling a region with *live* data inflated the stall statistic.
        let mut cfg = NoFtlConfig::new(FlashGeometry::tiny());
        cfg.op_ratio = 0.30;
        cfg.gc_low_watermark = 2;
        cfg.gc_high_watermark = 3;
        let mut n = NoFtl::new(cfg);
        let lpns = n.logical_pages();
        let mut now = 0;
        // Every logical page written exactly once: no garbage anywhere, but
        // the free-block count sinks below the low watermark.
        for lpn in 0..lpns {
            let data = vec![lpn as u8; n.page_size];
            now = n.write(now, lpn, &data).unwrap().completed_at;
        }
        assert!(
            n.regions.free_blocks_in(0) <= 2,
            "fixture must reach the low watermark"
        );
        assert_eq!(n.stats().gc_erases, 0, "no garbage, no GC work");
        assert_eq!(
            n.stats().gc_stalls,
            0,
            "a region without reclaimable garbage must not count as a stall"
        );
        // Once overwrites create garbage, real stalls are counted again.
        for round in 0u8..4 {
            for lpn in 0..lpns {
                let data = vec![round; n.page_size];
                now = n.write(now, lpn, &data).unwrap().completed_at;
            }
        }
        assert!(n.stats().gc_erases > 0);
        assert!(n.stats().gc_stalls > 0, "real GC work must count stalls");
    }

    #[test]
    fn schedule_gc_runs_in_read_cold_instants_and_defers_in_hot_ones() {
        let g = FlashGeometry::small();
        let mut cfg = NoFtlConfig::new(g);
        cfg.striping = StripingMode::Single;
        let mut n = NoFtl::new(cfg);
        let data = vec![1u8; n.page_size];
        // Fill one block completely, then overwrite those pages: block 0 is
        // closed and all-garbage, the canonical proactive-GC victim.  Raising
        // the high watermark above the current free count puts the region
        // under scheduling pressure without a demand-GC pass eating the
        // garbage first.
        let ppb = g.pages_per_block as u64;
        let mut now = 0;
        for lpn in 0..ppb {
            now = n.write(now, lpn, &data).unwrap().completed_at;
        }
        for lpn in 0..ppb {
            now = n.write(now, lpn, &data).unwrap().completed_at;
        }
        n.gc_high = n.regions.free_blocks_in(0) + 1;

        // Threshold 0: proactive scheduling is off entirely.
        assert_eq!(n.schedule_gc(now).unwrap(), None);
        assert_eq!(n.stats().gc_scheduled_cold, 0);
        assert_eq!(n.stats().gc_deferred_hot, 0);

        // Read-hot instant: one read in flight defers the relocation.
        n.gc_schedule_read_occupancy = 1;
        let ppa_flat = n.map.get(0).expect("lpn 0 is mapped");
        let g = *n.device.geometry();
        let mut buf = vec![0u8; n.page_size];
        let (_, sub) = n
            .device
            .submit_read_page(now, Ppa::from_flat(&g, ppa_flat), &mut buf)
            .unwrap();
        assert!(n.read_occupancy(now) >= 1);
        assert_eq!(n.schedule_gc(now).unwrap(), None);
        assert_eq!(n.stats().gc_deferred_hot, 1);
        assert_eq!(n.stats().gc_scheduled_cold, 0);

        // Read-cold instant (past the read's completion): the relocation
        // runs and restores a free block.
        let later = sub.completion.completed_at;
        assert_eq!(n.read_occupancy(later), 0);
        let end = n.schedule_gc(later).unwrap();
        assert!(end.is_some(), "pressured region with garbage must reclaim");
        assert_eq!(n.stats().gc_scheduled_cold, 1);
        // Draining the pressure (or the reclaimable garbage) ends with the
        // scheduler declining further work.
        let mut t = end.unwrap();
        while let Some(e) = n.schedule_gc(t).unwrap() {
            t = e;
        }
        assert_eq!(n.schedule_gc(t).unwrap(), None);
        assert!(n.stats().gc_scheduled_cold >= 1);
        assert_eq!(n.stats().gc_deferred_hot, 1);
    }

    #[test]
    fn worn_out_erase_is_not_free() {
        // Regression (PR 3): the `WornOut` branch retired the block but never
        // advanced the GC timeline, so a failed erase cost zero virtual time.
        let g = FlashGeometry::small();
        let mut cfg = NoFtlConfig::new(g);
        cfg.striping = StripingMode::Single;
        cfg.endurance_override = Some(0); // every erase past 0 cycles fails
        let mut n = NoFtl::new(cfg);
        let data = vec![1u8; n.page_size];
        // Fill one block completely, then overwrite those pages so the block
        // becomes all-garbage (the next GC victim with zero survivors).
        let ppb = g.pages_per_block as u64;
        for lpn in 0..ppb {
            n.write(0, lpn, &data).unwrap();
        }
        for lpn in 0..ppb {
            n.write(0, lpn, &data).unwrap();
        }
        let end = n.gc_region_once(1_000_000, 0).unwrap().expect("victim exists");
        assert_eq!(n.stats().retired_blocks, 1, "worn-out erase retires the block");
        assert_eq!(n.stats().gc_erases, 0);
        let charged = end.saturating_sub(1_000_000);
        assert!(
            charged >= n.device.timing().erase_block,
            "a worn-out erase must cost at least the erase latency (charged {charged} ns)"
        );
    }

    #[test]
    fn aborted_wear_migration_invalidates_relocated_sources() {
        // Regression (PR 3): when `allocate_page_in` ran dry mid-migration,
        // already-relocated source pages stayed `Valid` on the device while
        // their reverse mappings were gone — permanently skewing
        // `invalid_pages` counts and victim scoring.
        let g = FlashGeometry::tiny(); // 1 die, 8 blocks x 8 pages
        let mut n = NoFtl::with_geometry(g);
        let data = vec![7u8; n.page_size];
        let ppb = g.pages_per_block as u64;
        // Fill block 0 with live data, then open block 1 so block 0 closes.
        for lpn in 0..=ppb {
            n.write(0, lpn, &data).unwrap();
        }
        let cold = BlockAddr::new(0, 0, 0, 0);
        assert_eq!(n.device.block_info(cold).unwrap().valid_pages, 8);
        // Wear a pooled block far past the leveling threshold (64).
        let hot = BlockAddr::new(0, 0, 0, 7);
        for _ in 0..70 {
            n.device.erase_block(0, hot).unwrap();
        }
        // Drain the region down to exactly 2 allocatable pages, programming
        // every allocated page so the sequential-programming rule holds.
        let total: u64 = g.total_pages();
        let already = ppb + 1; // block 0 + first page of block 1
        for _ in 0..(total - already - 2) {
            let ppa = n.regions.allocate_page_in(0).unwrap();
            n.device
                .program_page(0, ppa, &data, Oob::data(u64::MAX - 1, 0))
                .unwrap();
        }
        n.maybe_level_wear(0, 0).unwrap();
        // Two survivors moved, then the region ran dry: the migration must
        // abort, and the moved sources must be garbage on the cold block.
        let info = n.device.block_info(cold).unwrap();
        assert_eq!(
            (info.valid_pages, info.invalid_pages),
            (6, 2),
            "relocated sources must be invalidated as they move"
        );
        assert_eq!(n.stats().gc_page_copies, 2);
        assert_eq!(n.stats().wear_migrations, 0, "aborted migration is not counted");
        // The moved logical pages still read back correctly.
        let mut buf = vec![0u8; n.page_size];
        for lpn in 0..2u64 {
            n.read(0, lpn, &mut buf).unwrap();
            assert_eq!(buf, data);
        }
    }

    #[test]
    fn batched_gc_cross_die_program_waits_for_its_source_reads() {
        // Regression (code review): a relocation program must not dispatch
        // before the read that produced its data completed — with a
        // cross-die destination, die occupancy alone does not order them.
        let g = FlashGeometry::small(); // 4 dies
        let mut cfg = NoFtlConfig::new(g);
        cfg.striping = StripingMode::Single;
        let mut n = NoFtl::new(cfg);
        let data = vec![5u8; n.page_size];
        let ppb = g.pages_per_block as u64;
        // Fill the die-0 block, then open the next block (die 1 under the
        // round-robin cursor) so relocations allocate on a different die.
        for lpn in 0..=ppb {
            n.write(0, lpn, &data).unwrap();
        }
        let src_block = BlockAddr::new(0, 0, 0, 0);
        let survivors: Vec<(Ppa, u64)> = (0..4u32).map(|p| (src_block.page(p), p as u64)).collect();
        let t0 = 10_000_000;
        let programs = n.device.stats().programs;
        let (end, all) = n.relocate_pages(t0, 0, &survivors, &mut Vec::new()).unwrap();
        assert!(all);
        assert_eq!(n.device.stats().programs - programs, 4);
        let timing = n.device.timing();
        let floor = 4 * (timing.read_page + timing.program_page);
        assert!(
            end - t0 >= floor,
            "each program must be charged behind its source read: end-t0={}",
            end - t0
        );
        // The sources moved: invalidated on the old block, readable content.
        assert_eq!(n.device.block_info(src_block).unwrap().invalid_pages, 4);
        let mut buf = vec![0u8; n.page_size];
        for lpn in 0..4u64 {
            n.read(end, lpn, &mut buf).unwrap();
            assert_eq!(buf, data);
        }
    }

    #[test]
    fn failed_relocation_program_sends_the_next_destination_block_to_the_back() {
        // The next survivor's destination is allocated before the pending
        // program dispatches.  When that program fails, the fresh block the
        // destination opened goes back to the back of its die's free list,
        // so the blocks opened after the failure skip it.
        let g = FlashGeometry::small(); // 4 dies, 1 plane each
        let mut cfg = NoFtlConfig::new(g);
        cfg.striping = StripingMode::Single;
        let mut n = NoFtl::new(cfg);
        let data = vec![3u8; n.page_size];
        let ppb = g.pages_per_block as u64;
        // Fill the die-0 block and all but the last page of a die-1 block:
        // the first survivor's destination is that last page, the second's
        // opens the first block of die 2.
        for lpn in 0..2 * ppb - 1 {
            n.write(0, lpn, &data).unwrap();
        }
        let src = BlockAddr::new(0, 0, 0, 0);
        let fresh = BlockAddr::new(1, 0, 0, 0);
        let mut plan = FaultPlan::seeded(1);
        plan.program_fail_base = 1.0;
        plan.program_fail_wear_scale = 0.0;
        plan.read_error_base = 0.0;
        n.set_fault_plan(Some(plan));
        let survivors = [(src.page(0), 0), (src.page(1), 1)];
        let err = n.relocate_pages(1_000_000, 0, &survivors, &mut Vec::new()).unwrap_err();
        assert_eq!(err, FlashError::ProgramFailed(BlockAddr::new(0, 1, 0, 0).page(g.pages_per_block - 1)));
        assert!(n.regions.is_free(fresh));
        n.set_fault_plan(None);
        let mut opened = Vec::new();
        for lpn in 2 * ppb - 1..5 * ppb {
            n.write(2_000_000, lpn, &data).unwrap();
            let ppa = Ppa::from_flat(&g, n.map.get(lpn).unwrap());
            if ppa.page == 0 {
                opened.push(ppa.block_addr());
            }
        }
        assert_eq!(
            opened,
            [
                BlockAddr::new(1, 1, 0, 0),
                BlockAddr::new(0, 0, 0, 1),
                BlockAddr::new(0, 1, 0, 1),
                BlockAddr::new(1, 0, 0, 1),
            ]
        );
    }

    #[test]
    #[should_panic(expected = "gc_batch_pages accepts only 0 or 1")]
    fn gc_batch_pages_above_one_is_refused() {
        let mut cfg = NoFtlConfig::new(FlashGeometry::tiny());
        cfg.gc_batch_pages = 2;
        NoFtl::new(cfg);
    }

    #[test]
    #[should_panic(expected = "gc_read_heat_penalty accepts only 0.0")]
    fn gc_read_heat_penalty_above_zero_is_refused() {
        let mut cfg = NoFtlConfig::new(FlashGeometry::tiny());
        cfg.gc_read_heat_penalty = 1.0;
        NoFtl::new(cfg);
    }

    #[test]
    fn gc_under_async_routes_through_queues_and_preserves_content() {
        // The same overwrite storm, synchronous vs async depth 8: GC's
        // relocations and erases must flow through the queued interface
        // (observable in queued_submissions) without changing any content or
        // the amount of GC work.
        let storm = |async_depth: usize| -> (Vec<Vec<u8>>, u64, u64, u64) {
            let mut g = FlashGeometry::tiny();
            g.planes_per_die = 2;
            let mut cfg = NoFtlConfig::new(g);
            cfg.op_ratio = 0.30;
            cfg.gc_low_watermark = 2;
            cfg.gc_high_watermark = 3;
            cfg.async_queue_depth = async_depth;
            let mut n = NoFtl::new(cfg);
            let lpns = n.logical_pages();
            let mut now = 0;
            for lpn in 0..lpns {
                let data = vec![lpn as u8; n.page_size];
                now = n.write(now, lpn, &data).unwrap().completed_at;
            }
            for round in 1u8..12 {
                for lpn in (0..lpns).filter(|l| l % 3 != 0) {
                    let data = vec![round ^ lpn as u8; n.page_size];
                    now = n.write(now, lpn, &data).unwrap().completed_at;
                }
            }
            now = n.drain(now);
            let mut contents = Vec::new();
            let mut buf = vec![0u8; n.page_size];
            for lpn in 0..lpns {
                n.read(now, lpn, &mut buf).unwrap();
                contents.push(buf.clone());
            }
            let s = n.stats();
            (contents, s.gc_page_copies, s.gc_erases, n.flash_stats().queued_submissions)
        };
        let (contents_sync, copies_sync, erases_sync, queued_sync) = storm(1);
        let (contents_async, copies_async, erases_async, queued_async) = storm(8);
        assert!(erases_sync > 0, "storm must trigger GC");
        assert_eq!(queued_sync, 0, "depth 1 never queues");
        assert!(
            queued_async > erases_async,
            "async GC must submit relocations and erases through the queues"
        );
        assert_eq!(contents_async, contents_sync, "async GC must not corrupt data");
        assert_eq!(copies_async, copies_sync, "same GC decisions, same copy count");
        assert_eq!(erases_async, erases_sync);
    }

    #[test]
    fn erase_failures_retire_blocks_mid_gc_without_losing_survivors() {
        let mut plan = FaultPlan::seeded(14);
        plan.program_fail_base = 0.0;
        plan.read_error_base = 0.0;
        plan.erase_fail_knee = 0.0;
        plan.erase_fail_prob = 0.08;
        let mut g = FlashGeometry::tiny();
        g.planes_per_die = 2; // 2 planes x 8 blocks x 8 pages
        let mut cfg = NoFtlConfig::new(g);
        cfg.op_ratio = 0.30;
        cfg.gc_low_watermark = 2;
        cfg.gc_high_watermark = 3;
        // Endurance 0 pins the plan's wear fraction at 1.0, so every erase
        // draws the full `erase_fail_prob` — and the hard WornOut model is
        // switched off so only the injected failures retire blocks.
        cfg.endurance_override = Some(0);
        let mut dev_cfg = DeviceConfig::new(g);
        dev_cfg.endurance_override = Some(0);
        dev_cfg.bad_blocks = nand_flash::bad_block::BadBlockPolicy {
            factory_bad_fraction: 0.0,
            wear_out_failure_prob: 0.0,
            seed: 1,
        };
        dev_cfg.faults = Some(plan);
        let mut n = NoFtl::with_device(NandDevice::new(dev_cfg), cfg);
        let lpns = n.logical_pages();
        let mut t = 0;
        // Seed everything, then overwrite a skewed subset so GC erases
        // constantly (and its victims carry survivors).
        for lpn in 0..lpns {
            let data = vec![lpn as u8; 512];
            t = n.write(t, lpn, &data).unwrap().completed_at;
        }
        let mut last = vec![0u8; lpns as usize];
        for (i, d) in last.iter_mut().enumerate() {
            *d = i as u8;
        }
        // Overwrite until the injected erase failures have fired a couple of
        // times (the early exit keeps the shrinking block pool comfortable —
        // every failure permanently retires a block).
        'storm: for round in 1u8..32 {
            for lpn in (0..lpns).filter(|l| l % 3 != 0) {
                let data = vec![round ^ lpn as u8; 512];
                t = n.write(t, lpn, &data).unwrap().completed_at;
                last[lpn as usize] = round ^ lpn as u8;
                if n.stats().erase_fail_retirements >= 2 {
                    break 'storm;
                }
            }
        }
        assert!(n.stats().gc_erases > 0, "workload must have forced GC");
        assert!(
            n.stats().erase_fail_retirements > 0,
            "wear-ramped erase failures across {} erases must have fired",
            n.stats().gc_erases
        );
        assert_eq!(
            n.flash_stats().erase_failures,
            n.stats().erase_fail_retirements
        );
        assert!(n.stats().retired_blocks >= n.stats().erase_fail_retirements);
        let mut buf = vec![0u8; 512];
        for lpn in 0..lpns {
            n.read(t, lpn, &mut buf).unwrap();
            assert_eq!(buf, vec![last[lpn as usize]; 512], "lpn {lpn}");
        }
    }

    #[test]
    fn read_disturb_scrubber_rewrites_hot_blocks() {
        let mut plan = FaultPlan::seeded(15);
        plan.program_fail_base = 0.0;
        plan.read_error_base = 0.0; // isolate the scrubber from the ladder
        let mut cfg = NoFtlConfig::new(FlashGeometry::tiny());
        cfg.op_ratio = 0.30;
        cfg.scrub_read_disturb_threshold = 40;
        let mut n = faulty_noftl(plan, cfg);
        // Fill several blocks so the hot page's block is sealed (the active
        // allocation block is exempt from scrubbing).
        let lpns = n.logical_pages();
        for lpn in 0..lpns {
            let data = vec![lpn as u8; 512];
            n.write(0, lpn, &data).unwrap();
        }
        let mut buf = vec![0u8; 512];
        for i in 0..60u64 {
            n.read(1_000 + i, 5, &mut buf).unwrap();
        }
        assert!(n.stats().scrubbed_blocks >= 1, "threshold 40 < 60 reads");
        assert!(n.stats().scrub_relocations > 0, "live pages moved out");
        // The hot page survived the scrub and every other page is intact.
        for lpn in 0..lpns {
            n.read(2_000_000, lpn, &mut buf).unwrap();
            assert_eq!(buf, vec![lpn as u8; 512], "lpn {lpn}");
        }
    }

    #[test]
    fn parity_with_program_failures_keeps_gc_going() {
        // Parity pages are valid but mapped to no logical page, and the seal
        // places each on the lowest-numbered die disjoint from its members.
        // So die 0's region fills with live parity down to its GC reserve,
        // and a block retirement takes that reserve: the next relocation
        // found no room and the write failed with OutOfSpareBlocks.  The
        // region must erase a parity block instead, and lose no page.  With
        // proactive GC on, a program failure inside a scheduled relocation
        // must be recovered from like one on the demand path.
        for schedule_gc in [false, true] {
            let mut plan = FaultPlan::seeded(3);
            plan.program_fail_base = 1e-3;
            plan.program_fail_wear_scale = 0.0;
            plan.read_error_base = 0.0;
            let mut cfg = NoFtlConfig::new(FlashGeometry::with_dies(8, 256, 16, 512));
            cfg.redundancy = vec![RedundancyPolicy::Parity(3); 8];
            cfg.gc_schedule_read_occupancy = usize::from(schedule_gc);
            let mut n = faulty_noftl(plan, cfg);
            let lpns = n.logical_pages() / 4;
            let mut rng = sim_utils::rng::SimRng::new(3);
            let mut last = vec![0u8; lpns as usize];
            let mut now = 0;
            for i in 0..lpns * 3 {
                let lpn = if i < lpns { i } else { rng.range(0, lpns) };
                last[lpn as usize] = i as u8;
                let data = vec![i as u8; n.page_size];
                now = n.write(now, lpn, &data).unwrap().completed_at;
                now = n.schedule_gc(now).unwrap().unwrap_or(now);
            }
            assert!(n.stats().program_fail_retirements > 0);
            assert_eq!(n.stats().gc_scheduled_cold > 0, schedule_gc);
            let mut buf = vec![0u8; n.page_size];
            for lpn in 0..lpns {
                n.read(now, lpn, &mut buf).unwrap();
                assert_eq!(buf, vec![last[lpn as usize]; n.page_size], "lpn {lpn}");
            }
        }
    }
}

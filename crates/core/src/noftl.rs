//! The NoFTL storage manager: DBMS-integrated Flash management over the
//! native Flash interface.
//!
//! [`NoFtl`] is the component a database storage manager embeds when it runs
//! on native Flash (Figure 2 of the paper).  It owns the device, the
//! host-resident mapping table, the region manager, GC, wear leveling and the
//! bad-block manager, and exposes a logical-page read/write interface plus
//! the DBMS-specific hooks that an on-device FTL can never have:
//!
//! * [`NoFtl::mark_dead`] — the free-space manager declares a page dead so GC
//!   never copies it;
//! * [`NoFtl::region_of_lpn`] / [`NoFtl::regions`] — exposes the physical
//!   layout so the buffer manager can bind db-writers to regions (§3.2);
//! * [`NoFtl::write_in_region`] — placement-aware writes used by the
//!   Flash-aware flusher assignment.

use nand_flash::error::{check_buf, check_lpn};
use nand_flash::{
    BlockAddr, DeviceConfig, DeviceIdentification, FaultPlan, FlashError, FlashGeometry,
    FlashResult, FlashStats, NandDevice, NativeFlashInterface, Oob, OpCompletion, Ppa,
};
use sim_utils::flatmap::FlatBitSet;
use sim_utils::time::SimInstant;

use crate::bad_block::{BadBlockManager, RetireReason};
use crate::config::{NoFtlConfig, RedundancyPolicy};
use crate::gc::GcPolicy;
use crate::mapping::HostMappingTable;
use crate::regions::{RegionId, RegionManager};
use crate::stats::NoFtlStats;
use crate::wear::WearLeveler;

mod rebuild;
mod redundancy;
mod relocate;

use redundancy::Stripe;

/// DBMS-integrated Flash management (the paper's contribution).
pub struct NoFtl {
    device: NandDevice,
    map: HostMappingTable,
    regions: RegionManager,
    bad_blocks: BadBlockManager,
    wear: WearLeveler,
    gc_policy: GcPolicy,
    stats: NoFtlStats,
    /// Physical pages invalidated through dead-page hints (distinguished from
    /// ordinary superseded pages for reporting).
    dead_hinted: FlatBitSet,
    logical_pages: u64,
    gc_low: usize,
    gc_high: usize,
    page_size: usize,
    /// Working lists kept for their capacity between calls (each is taken,
    /// filled, used and put back): the survivors of the block a GC run or an
    /// evacuation is emptying, the page content of the pending cross-plane
    /// relocation, and a write batch's per-region page indices and
    /// `(allocated page, batch index)` placement.
    survivors: Vec<(Ppa, u64)>,
    relocation_data: Vec<u8>,
    batch_by_region: Vec<Vec<usize>>,
    batch_allocs: Vec<(Ppa, usize)>,
    /// Per-die command-queue depth of the asynchronous write path (1 = every
    /// dispatch waits for its predecessor: the synchronous semantics).
    async_depth: usize,
    /// Proactive GC read-occupancy threshold (0 = scheduling off; see
    /// [`NoFtl::schedule_gc`]).
    gc_schedule_read_occupancy: usize,
    /// Whether the device runs with a fault plan (cached at construction so
    /// the fault-free hot paths pay nothing for the recovery machinery).
    faults_active: bool,
    /// Read-disturb scrub threshold (see
    /// [`NoFtlConfig::scrub_read_disturb_threshold`]).
    scrub_threshold: u64,
    /// Per-region redundancy policy (empty = unconfigured, all `None`).
    redundancy: Vec<RedundancyPolicy>,
    /// Cached "any region is protected" gate: when false every redundancy
    /// hook is a single branch, keeping the unprotected build bit- and
    /// cycle-identical to one without the machinery.
    redundancy_active: bool,
    /// Open parity stripe: flat addresses of data members accumulated so
    /// far.  Global — under die-wise striping a region is a single die, so
    /// die-disjoint stripes necessarily span regions.
    open_stripe: Vec<u64>,
    /// Running XOR of the open stripe members' contents, kept in host
    /// memory so the stripe can seal without re-reading members (even ones
    /// on a die that just died).
    open_stripe_xor: Vec<u8>,
    /// Flat physical page → sealed stripe id (`NO_STRIPE` = none).
    /// Dense `Vec` rather than a hash map per the determinism rules of the
    /// simulation crates; sized lazily when redundancy first activates.
    stripe_of: Vec<u32>,
    /// Sealed stripes by id; `None` slots are free for reuse.
    stripes: Vec<Option<Stripe>>,
    /// Free-list of reusable stripe ids.
    stripe_free_ids: Vec<u32>,
    /// Flat physical page ↔ flat physical page mirror links, both
    /// directions (`NO_MIRROR` = none).
    mirror_of: Vec<u64>,
    /// Dies this layer has already reacted to as dead (flat index), diffed
    /// against [`NandDevice::dead_dies`] on each failure notification.
    known_dead: Vec<bool>,
    /// Online-rebuild cursors: `(die_flat, next page offset inside the
    /// die)` for every dead die whose mapped pages are still being walked.
    rebuild_cursors: Vec<(usize, u64)>,
    /// Dispatch instant of a GC relocation program that failed with
    /// redundancy on.  The error path cannot carry a timestamp, so it is
    /// stashed here and the retirement that always follows the failure
    /// starts from it ([`NoFtl::retire_failed_block`] takes it).  Stays 0
    /// with redundancy off, keeping the off leg cycle-identical.
    unwind_horizon: SimInstant,
}

/// Additional read attempts the retry ladder issues after an uncorrectable
/// ECC result before giving up (each attempt draws the read-error model
/// independently, the way real controllers step through retry voltages).
const READ_RETRY_LIMIT: u32 = 3;

impl NoFtl {
    /// Build a NoFTL instance and its backing device from `config`.
    pub fn new(config: NoFtlConfig) -> Self {
        let geometry = config.geometry;
        let mut dev_cfg = DeviceConfig::new(geometry);
        dev_cfg.store_data = config.store_data;
        dev_cfg.endurance_override = config.endurance_override;
        let device = NandDevice::new(dev_cfg);
        Self::with_device(device, config)
    }

    /// Build NoFTL on top of an existing device (e.g. one shared with an
    /// emulator front-end).
    ///
    /// Blocks the device reports as factory-bad are retired up front, and
    /// the exported logical capacity (and thus the OP headroom the GC
    /// watermarks defend) is derived from the *post-retirement* physical
    /// capacity — a device shipped with bad blocks must not promise logical
    /// pages it cannot back.
    pub fn with_device(device: NandDevice, config: NoFtlConfig) -> Self {
        let geometry = *device.geometry();
        let mut regions = RegionManager::new(geometry, config.striping);
        let mut bad_blocks = BadBlockManager::new();
        let mut factory_bad_pages: u64 = 0;
        for channel in 0..geometry.channels {
            for die in 0..geometry.dies_per_channel {
                for plane in 0..geometry.planes_per_die {
                    for block in 0..geometry.blocks_per_plane {
                        let addr = BlockAddr::new(channel, die, plane, block);
                        let usable = device.block_info(addr).map(|i| i.usable).unwrap_or(false);
                        if !usable {
                            bad_blocks.retire(addr, RetireReason::Factory);
                            regions.retire_block(addr);
                            factory_bad_pages += geometry.pages_per_block as u64;
                        }
                    }
                }
            }
        }
        let usable_pages = geometry.total_pages() - factory_bad_pages;
        let logical_pages = config
            .logical_pages()
            .min(((usable_pages as f64) * (1.0 - config.op_ratio)).floor() as u64);
        assert!(logical_pages > 0, "no logical capacity left after OP");
        assert!(config.gc_batch_pages <= 1, "gc_batch_pages accepts only 0 or 1");
        assert!(config.gc_read_heat_penalty == 0.0, "gc_read_heat_penalty accepts only 0.0");
        let mut device = device;
        device.set_queue_depth(config.async_queue_depth.max(1));
        let faults_active = device.faults_enabled();
        let mut noftl = Self {
            faults_active,
            redundancy: config.redundancy.clone(),
            redundancy_active: false,
            open_stripe: Vec::new(),
            open_stripe_xor: Vec::new(),
            stripe_of: Vec::new(),
            stripes: Vec::new(),
            stripe_free_ids: Vec::new(),
            mirror_of: Vec::new(),
            known_dead: Vec::new(),
            rebuild_cursors: Vec::new(),
            unwind_horizon: 0,
            scrub_threshold: config.scrub_read_disturb_threshold.max(1),
            device,
            map: HostMappingTable::with_physical_pages(logical_pages, geometry.total_pages()),
            regions,
            bad_blocks,
            wear: WearLeveler::new(config.wear_leveling_threshold),
            gc_policy: GcPolicy::Greedy,
            stats: NoFtlStats::new(),
            dead_hinted: FlatBitSet::with_index_capacity(geometry.total_pages() as usize),
            logical_pages,
            gc_low: config.gc_low_watermark.max(1),
            gc_high: config.gc_high_watermark.max(config.gc_low_watermark + 1),
            page_size: geometry.page_size as usize,
            survivors: Vec::new(),
            relocation_data: Vec::new(),
            batch_by_region: Vec::new(),
            batch_allocs: Vec::new(),
            async_depth: config.async_queue_depth.max(1),
            gc_schedule_read_occupancy: config.gc_schedule_read_occupancy,
        };
        noftl.refresh_redundancy();
        noftl
    }

    /// Convenience constructor with the default configuration for `geometry`.
    pub fn with_geometry(geometry: FlashGeometry) -> Self {
        Self::new(NoFtlConfig::new(geometry))
    }

    /// Number of logical pages exported to the DBMS.
    pub fn logical_pages(&self) -> u64 {
        self.logical_pages
    }

    /// Device identification (geometry, endurance, capabilities) — what the
    /// DBMS learns through the native interface's IDENTIFY command.
    pub fn identify(&self) -> DeviceIdentification {
        self.device.identify()
    }

    /// Number of physical regions (die-wise striping ⇒ number of dies).
    pub fn regions(&self) -> usize {
        self.regions.regions()
    }

    /// Region a logical page is striped to.
    pub fn region_of_lpn(&self, lpn: u64) -> RegionId {
        self.regions.region_of_lpn(lpn)
    }

    /// GC victim-selection policy (greedy by default).
    pub fn set_gc_policy(&mut self, policy: GcPolicy) {
        self.gc_policy = policy;
    }

    /// Per-die queue depth of the asynchronous write path.
    pub fn async_depth(&self) -> usize {
        self.async_depth
    }

    /// Set the per-die queue depth for batched write dispatches.  At depth 1
    /// every dispatch takes the synchronous `program_pages` path — commands,
    /// timing and statistics are identical to the pre-async code.  Deeper
    /// queues route dispatches through the device's queued interface so
    /// runs from *different* submissions (successive flush cycles, WAL group
    /// commits) pipeline on the per-die command queues.
    pub fn set_async_depth(&mut self, depth: usize) {
        self.async_depth = depth.max(1);
        self.device.set_queue_depth(self.async_depth);
    }

    /// Enable or disable gap-backfilling die/channel occupancy on the
    /// device (default off: the pinned `busy_until` ratchet).  The
    /// multi-client engine turns it on so concurrent clients whose
    /// commands arrive out of timestamp order are not charged queue-wait
    /// on provably-idle resources.
    pub fn set_backfill_occupancy(&mut self, on: bool) {
        self.device.set_backfill_occupancy(on);
    }

    /// Commands in flight across every die as of `now`.
    pub fn queue_occupancy(&self, now: SimInstant) -> usize {
        self.device.inflight_total(now)
    }

    /// Read commands in flight across every die as of `now`.
    pub fn read_occupancy(&self, now: SimInstant) -> usize {
        self.device.inflight_reads(now)
    }

    /// Barrier over the device command queues: the instant by which every
    /// in-flight dispatch has completed (at least `now`).
    pub fn drain(&mut self, now: SimInstant) -> SimInstant {
        self.device.drain_queues(now)
    }

    /// NoFTL-level statistics.
    pub fn stats(&self) -> &NoFtlStats {
        &self.stats
    }

    /// Native-command statistics of the device.
    pub fn flash_stats(&self) -> &FlashStats {
        self.device.stats()
    }

    /// Borrow the underlying device.
    pub fn device(&self) -> &NandDevice {
        &self.device
    }

    /// Whether the underlying device runs with a fault-injection plan.
    pub fn faults_enabled(&self) -> bool {
        self.faults_active
    }

    /// Install (or clear) the device's fault-injection plan, keeping the
    /// cached fault-path gate in sync (chaos tests arm a die kill mid-run;
    /// `storage_engine::backend::StackConfig::noftl_backend` installs its
    /// `faults` plan).
    pub fn set_fault_plan(&mut self, plan: Option<FaultPlan>) {
        self.device.set_fault_plan(plan);
        self.faults_active = self.device.faults_enabled();
    }

    /// Bad-block registry.
    pub fn bad_blocks(&self) -> &BadBlockManager {
        &self.bad_blocks
    }

    /// Whether any die of the device has failed permanently.
    pub fn any_die_dead(&self) -> bool {
        self.device.any_die_dead()
    }

    /// Reset NoFTL and device statistics.
    pub fn reset_stats(&mut self) {
        self.stats.clear();
        self.device.reset_stats();
    }

    // -- device dispatch -------------------------------------------------------
    //
    // One helper per native command holds the only `async_depth` decisions in
    // this file: at depth 1 a command is the synchronous trait call — the
    // trace-equality baseline — and at deeper settings the *same* command is
    // submitted into its die's queue, so it honestly queues behind (and
    // delays) whatever is already in flight there.  Every caller below goes
    // through these; none consults the depth itself.

    /// PAGE READ of one physical page.
    fn dispatch_read(
        &mut self,
        now: SimInstant,
        ppa: Ppa,
        buf: &mut [u8],
    ) -> FlashResult<(Oob, OpCompletion)> {
        if self.async_depth > 1 {
            self.device
                .submit_read_page(now, ppa, buf)
                .map(|(oob, q)| (oob, q.completion))
        } else {
            self.device.read_page(now, ppa, buf)
        }
    }

    /// PAGE READ run on one die.
    fn dispatch_read_run(
        &mut self,
        now: SimInstant,
        ops: &mut [(Ppa, &mut [u8])],
    ) -> FlashResult<OpCompletion> {
        if self.async_depth > 1 {
            self.device.submit_read_pages(now, ops).map(|q| q.completion)
        } else {
            self.device.read_pages(now, ops)
        }
    }

    /// PAGE PROGRAM run on one die.  `data_ready` is the instant the payload
    /// exists in host memory (a relocation's source-read completion; `now`
    /// for host data): a queued program may not issue before it, whereas the
    /// synchronous dispatch issues at `now` and lets die/channel occupancy
    /// order it — the two legs the depth-1 equivalence tests pin.  A caller
    /// whose occupancy does not order the program behind its data (a
    /// relocation onto another die) passes `now >= data_ready`.
    fn dispatch_program_run(
        &mut self,
        now: SimInstant,
        data_ready: SimInstant,
        ops: &[(Ppa, &[u8], Oob)],
    ) -> FlashResult<OpCompletion> {
        if self.async_depth > 1 {
            self.device
                .submit_program_pages(now.max(data_ready), ops)
                .map(|q| q.completion)
        } else {
            self.device.program_pages(now, ops)
        }
    }

    /// COPYBACK PROGRAM (plane-local relocation; keeps the source OOB).
    fn dispatch_copyback(&mut self, now: SimInstant, src: Ppa, dst: Ppa) -> FlashResult<OpCompletion> {
        if self.async_depth > 1 {
            self.device.submit_copyback(now, src, dst, None).map(|q| q.completion)
        } else {
            self.device.copyback(now, src, dst, None)
        }
    }

    /// BLOCK ERASE.  A failed queued submission cannot evict in-flight
    /// commands, and a worn-out attempt still charges its die occupancy.
    fn dispatch_erase(&mut self, now: SimInstant, block: BlockAddr) -> FlashResult<OpCompletion> {
        if self.async_depth > 1 {
            self.device.submit_erase(now, block).map(|q| q.completion)
        } else {
            self.device.erase_block(now, block)
        }
    }

    /// Read logical page `lpn`.
    ///
    /// At [`NoFtl::async_depth`] 1 this is the synchronous PAGE READ —
    /// identical commands, timing and statistics to the pre-async code.  At
    /// deeper settings the read is *submitted* into its die's command queue,
    /// so it honestly queues behind whatever program/erase/GC commands are
    /// already in flight there; the returned completion (a ticket on the
    /// deterministic virtual clock) says when the data may be used, and the
    /// recorded read latency includes the queueing delay — the paper's
    /// foreground-read interference, now observable.
    pub fn read(&mut self, now: SimInstant, lpn: u64, buf: &mut [u8]) -> FlashResult<OpCompletion> {
        check_lpn(lpn, self.logical_pages)?;
        check_buf(buf.len(), self.page_size)?;
        let g = *self.device.geometry();
        let Some(flat) = self.map.get(lpn) else {
            return Err(FlashError::ReadOfUnwrittenPage(Ppa::from_flat(&g, 0)));
        };
        let ppa = Ppa::from_flat(&g, flat);
        let completion = self.read_host_page(now, ppa, buf)?;
        self.maybe_scrub(completion.completed_at, ppa.block_addr())?;
        Ok(completion)
    }

    /// One host read of the mapped physical page `ppa`, with everything a
    /// single page can need: the retry ladder, the degraded fallback when the
    /// page's die has failed (mark the loss, then serve the read through the
    /// page's redundancy; unprotected pages surface the typed failure to the
    /// engine's WAL-replay rebuild), and the host-read statistics.  Shared
    /// by [`NoFtl::read`] and the per-page fallbacks of [`NoFtl::read_batch`].
    fn read_host_page(
        &mut self,
        now: SimInstant,
        ppa: Ppa,
        buf: &mut [u8],
    ) -> FlashResult<OpCompletion> {
        let completion = match self.read_page_retrying(now, ppa, buf) {
            Ok((_, c)) => c,
            Err(FlashError::DieFailed(_)) => {
                self.note_die_failures(now)?;
                let g = *self.device.geometry();
                self.read_degraded(now, ppa.flat(&g), buf)?
            }
            Err(e) => return Err(e),
        };
        self.stats.host_reads += 1;
        self.stats.read_latency.record(completion.latency_from(now));
        Ok(completion)
    }

    /// One physical read with the bounded read-retry ladder: an uncorrectable
    /// ECC result is re-attempted up to [`READ_RETRY_LIMIT`] more times (each
    /// attempt draws the error model independently and charges real device
    /// time) before the failure is surfaced to the caller.  Fault-free
    /// devices never retry, so this is exactly the legacy single read.
    fn read_page_retrying(
        &mut self,
        now: SimInstant,
        ppa: Ppa,
        buf: &mut [u8],
    ) -> FlashResult<(Oob, OpCompletion)> {
        let mut attempt = 0;
        loop {
            match self.dispatch_read(now, ppa, buf) {
                Ok(oc) => {
                    if attempt > 0 {
                        self.stats.read_retry_successes += 1;
                    }
                    return Ok(oc);
                }
                Err(FlashError::UncorrectableEcc(_)) if attempt < READ_RETRY_LIMIT => {
                    attempt += 1;
                    self.stats.read_retries += 1;
                }
                Err(e) => return Err(e),
            }
        }
    }

    /// Read a batch of logical pages as die-wise multi-page read dispatches —
    /// the read-side sibling of [`NoFtl::write_batch`].
    ///
    /// The batch is grouped by die in arrival order; each die's run is handed
    /// to the device as one multi-page read command dispatched at `now`, so
    /// runs on different dies overlap and within a die the array senses
    /// pipeline with the channel transfers.  At [`NoFtl::async_depth`] > 1
    /// each run is *submitted* into its die's command queue and therefore
    /// queues behind in-flight flush/GC traffic instead of ignoring it.
    ///
    /// Invariants: a 1-page batch *is* a [`NoFtl::read`] (it delegates, and
    /// below it the device times a single page as a run of one through the
    /// same body as any run); reading the same LPN twice returns the same
    /// content twice; an invalid entry (unknown LPN, wrong buffer size) fails
    /// the whole batch before any device command issues.
    ///
    /// Returns the virtual time when the last dispatch completed.
    pub fn read_batch(
        &mut self,
        now: SimInstant,
        reqs: &mut [(u64, &mut [u8])],
    ) -> FlashResult<SimInstant> {
        match reqs {
            [] => return Ok(now),
            [(lpn, buf)] => {
                let lpn = *lpn;
                return Ok(self.read(now, lpn, buf)?.completed_at);
            }
            _ => {}
        }
        let g = *self.device.geometry();
        // Validate the whole batch (and resolve every mapping) up front: a
        // bad entry must not leave a partially issued batch behind.  The one
        // list is then stably sorted by die, so each die's run is contiguous
        // and in arrival order, and the runs go out in die order.
        let mut runs: Vec<(Ppa, &mut [u8])> = Vec::with_capacity(reqs.len());
        for (lpn, buf) in reqs.iter_mut() {
            check_lpn(*lpn, self.logical_pages)?;
            check_buf(buf.len(), self.page_size)?;
            let Some(flat) = self.map.get(*lpn) else {
                return Err(FlashError::ReadOfUnwrittenPage(Ppa::from_flat(&g, 0)));
            };
            runs.push((Ppa::from_flat(&g, flat), &mut **buf));
        }
        runs.sort_by_key(|(ppa, _)| ppa.die_addr().flat(&g));
        let mut end = now;
        for ops in runs.chunk_by_mut(|(a, _), (b, _)| a.die_addr() == b.die_addr()) {
            let pages = ops.len() as u64;
            match self.dispatch_read_run(now, ops) {
                Ok(completion) => {
                    end = end.max(completion.completed_at);
                    self.stats.host_reads += pages;
                    for _ in 0..pages {
                        self.stats
                            .read_latency
                            .record(completion.completed_at.saturating_sub(now));
                    }
                }
                Err(e @ (FlashError::UncorrectableEcc(_) | FlashError::DieFailed(_))) => {
                    // The run did not complete: one page overwhelmed ECC and
                    // the dispatch aborted there, or the run's die failed and
                    // nothing of it transferred.  Fall back to per-page reads
                    // so a single bad page cannot fail the whole run — each
                    // page gets its own retry ladder and, on a dead die, its
                    // own degraded read.  After an ECC abort the fallback is
                    // itself a retry of the failed run (each per-page read
                    // re-senses), so it counts even when every page then
                    // reads clean on its first attempt.
                    let resensed = u64::from(matches!(e, FlashError::UncorrectableEcc(_)));
                    self.stats.read_retries += resensed;
                    for (ppa, buf) in ops.iter_mut() {
                        let c = self.read_host_page(now, *ppa, buf)?;
                        end = end.max(c.completed_at);
                    }
                    self.stats.read_retry_successes += resensed;
                }
                Err(e) => return Err(e),
            }
            if self.faults_active {
                let mut seen: Vec<BlockAddr> = Vec::new();
                for (ppa, _) in ops.iter() {
                    let block = ppa.block_addr();
                    if !seen.contains(&block) {
                        seen.push(block);
                        self.maybe_scrub(end, block)?;
                    }
                }
            }
        }
        Ok(end)
    }

    /// Write logical page `lpn`, placing it in the region its address stripes
    /// to (die-wise striping).
    pub fn write(&mut self, now: SimInstant, lpn: u64, data: &[u8]) -> FlashResult<OpCompletion> {
        let region = self.regions.region_of_lpn(lpn);
        self.write_in_region(now, region, lpn, data)
    }

    /// Write logical page `lpn` into an explicitly chosen region.  Used by
    /// the Flash-aware flusher experiments where placement is driven by the
    /// db-writer that owns the page.  A single page is a run of one: it
    /// takes the program dispatch, failure recovery and commit of
    /// [`NoFtl::write_batch`], so at any queue depth it queues on its die
    /// like every other command.
    pub fn write_in_region(
        &mut self,
        now: SimInstant,
        region: RegionId,
        lpn: u64,
        data: &[u8],
    ) -> FlashResult<OpCompletion> {
        check_lpn(lpn, self.logical_pages)?;
        check_buf(data.len(), self.page_size)?;
        let mut allocs = std::mem::take(&mut self.batch_allocs);
        allocs.clear();
        let written = self.write_region_run(now, &[(lpn, data)], region, &[0], &mut allocs);
        self.batch_allocs = allocs;
        written
    }

    /// Recover from a device failure that a write or its GC ran into, and
    /// return when the caller may retry: a failed PAGE PROGRAM retires the
    /// failing block (after relocating its still-valid pages); a dead die is
    /// marked — which also drops its allocation state, so dead regions stop
    /// garbage-collecting and the allocator routes around them.  Any other
    /// error is not recoverable here and propagates.
    fn recover(&mut self, now: SimInstant, e: FlashError) -> FlashResult<SimInstant> {
        match e {
            FlashError::ProgramFailed(failed) => self.retire_failed_block(now, failed.block_addr()),
            FlashError::DieFailed(_) => self.note_die_failures(now),
            e => Err(e),
        }
    }

    /// Allocate a page in the first region that has space.
    fn allocate_anywhere(&mut self) -> FlashResult<Ppa> {
        (0..self.regions.regions())
            .find_map(|r| self.regions.allocate_page_in(r))
            .ok_or(FlashError::OutOfSpareBlocks)
    }

    /// Commit a host write: `lpn`'s new content `data` landed at `ppa` at
    /// `now`.  The mapping moves, the superseded page (if any) becomes
    /// garbage — its dead-page hint and mirror copy go with it — and the new
    /// page is protected per its region's redundancy policy.  Returns when
    /// the protection work completed (`now` with redundancy off).
    fn commit_host_write(
        &mut self,
        now: SimInstant,
        lpn: u64,
        ppa: Ppa,
        data: &[u8],
    ) -> FlashResult<SimInstant> {
        let g = *self.device.geometry();
        if let Some(old) = self.map.update(lpn, ppa.flat(&g)) {
            self.device.invalidate_page(Ppa::from_flat(&g, old))?;
            self.dead_hinted.remove(old);
            if self.redundancy_active {
                self.drop_mirror_of(old)?;
            }
        }
        let end = if self.redundancy_active {
            self.protect_written(now, lpn, ppa, data)?
        } else {
            now
        };
        self.stats.host_writes += 1;
        Ok(end)
    }

    /// Write a batch of logical pages as die-wise multi-page program
    /// dispatches.
    ///
    /// The batch is grouped by region (die under die-wise striping) in
    /// arrival order; each region's run is allocated contiguously
    /// ([`RegionManager::allocate_run_in`]) and handed to the device as one
    /// multi-page program command per die, all dispatched at `now` — so runs
    /// on different dies overlap, and within a die the data transfers
    /// pipeline with the cell programs.  GC, when a region is below its
    /// watermark, runs on that region's own timeline before its dispatch.
    ///
    /// Invariants:
    /// * a 1-page batch *is* a [`NoFtl::write`] (it delegates; both commit
    ///   through the same `commit_host_write`, and the device times a single
    ///   page as a run of one through the same body as any run);
    /// * absent GC pressure, page placement is identical to issuing the
    ///   batch as sequential single-page writes (same allocation order per
    ///   region).  When a region crosses its GC watermark *mid-run* the
    ///   paths may place differently: the sequential path re-checks GC
    ///   before every page, while the batch path runs GC once per region
    ///   per submission and spills a drained region's remainder to other
    ///   regions;
    /// * if the same LPN appears twice, the later entry supersedes the
    ///   earlier one, exactly as sequential writes would.
    ///
    /// Returns the virtual time when the last dispatch completed.
    pub fn write_batch(&mut self, now: SimInstant, pages: &[(u64, &[u8])]) -> FlashResult<SimInstant> {
        match pages {
            [] => return Ok(now),
            [(lpn, data)] => return Ok(self.write(now, *lpn, data)?.completed_at),
            _ => {}
        }
        for (lpn, data) in pages {
            check_lpn(*lpn, self.logical_pages)?;
            check_buf(data.len(), self.page_size)?;
        }
        let mut by_region = std::mem::take(&mut self.batch_by_region);
        by_region.resize_with(self.regions.regions(), Vec::new);
        for idxs in &mut by_region {
            idxs.clear();
        }
        for (i, (lpn, _)) in pages.iter().enumerate() {
            by_region[self.regions.region_of_lpn(*lpn)].push(i);
        }
        let mut allocs = std::mem::take(&mut self.batch_allocs);
        let end = by_region
            .iter()
            .enumerate()
            .filter(|(_, idxs)| !idxs.is_empty())
            .try_fold(now, |end, (region, idxs)| {
                allocs.clear();
                let c = self.write_region_run(now, pages, region, idxs, &mut allocs)?;
                Ok(end.max(c.completed_at))
            });
        self.batch_by_region = by_region;
        self.batch_allocs = allocs;
        end
    }

    /// One region's share of a [`NoFtl::write_batch`] (or a single-page
    /// [`NoFtl::write_in_region`]): the entries `idxs` of `pages`, all bound
    /// for `region`.  `allocs` is empty working space.  Returns when the
    /// region's first dispatch started and its last dispatch (and commit)
    /// completed.
    fn write_region_run(
        &mut self,
        now: SimInstant,
        pages: &[(u64, &[u8])],
        region: RegionId,
        idxs: &[usize],
        allocs: &mut Vec<(Ppa, usize)>,
    ) -> FlashResult<OpCompletion> {
        let mut end = now;
        let mut started = None;
        // Each region is a disjoint die set: its GC (if needed) and its
        // program dispatch run on their own timeline starting at `now`.
        let mut t0 = now;
        loop {
            match self.ensure_region_space(t0, region) {
                Ok(end) => {
                    t0 = end;
                    break;
                }
                Err(e) => t0 = self.recover(t0, e)?,
            }
        }
        allocs.extend(
            self.regions
                .allocate_run_in(region, idxs.len())
                .zip(idxs.iter().copied()),
        );
        // The region filled up mid-run (severely skewed placement): spill
        // the rest to any region with space, like write_in_region does.
        for &i in &idxs[allocs.len()..] {
            allocs.push((self.allocate_anywhere()?, i));
        }
        // Dispatch maximal same-die runs (a spill may change the die, and
        // multi-die regions round-robin dies at block boundaries).
        let mut j = 0;
        while j < allocs.len() {
            let die = allocs[j].0.die_addr();
            let mut k = j + 1;
            while k < allocs.len() && allocs[k].0.die_addr() == die {
                k += 1;
            }
            let die_run = &allocs[j..k];
            let op = |&(ppa, i): &(Ppa, usize)| (ppa, pages[i].1, Oob::data(pages[i].0, 0));
            // A one-page run (a short log force striped over the dies) needs
            // no list.
            let dispatched = match die_run {
                [one] => self.dispatch_program_run(t0, t0, &[op(one)]),
                _ => {
                    let ops: Vec<(Ppa, &[u8], Oob)> = die_run.iter().map(op).collect();
                    self.dispatch_program_run(t0, t0, &ops)
                }
            };
            // How much of the run is committed on the device and when
            // that part finished, plus the failure (if any) to recover
            // from before re-writing the rest.
            let (committed, t_run, failure) = match dispatched {
                Ok(completion) => {
                    started.get_or_insert(completion.started_at);
                    (die_run.len(), completion.completed_at, None)
                }
                Err(e @ FlashError::ProgramFailed(failed)) => {
                    // The run aborted at `failed`; the pages before it
                    // are committed on the device, and the aborted
                    // dispatch charged its partial timing up to the
                    // failing page.
                    let fail_pos =
                        die_run.iter().position(|&(ppa, _)| ppa == failed).unwrap_or(0);
                    (fail_pos, t0.max(self.device.die_busy_until(die)), Some(e))
                }
                // The run's die failed before any page transferred (a
                // dead-die submission is rejected up front).
                Err(e @ FlashError::DieFailed(_)) => (0, t0, Some(e)),
                Err(e) => return Err(e),
            };
            end = end.max(t_run);
            let (done, rest) = die_run.split_at(committed);
            for &(ppa, i) in done {
                let (lpn, data) = pages[i];
                end = end.max(self.commit_host_write(t_run, lpn, ppa, data)?);
                self.stats.write_latency.record(t_run.saturating_sub(now));
            }
            if let Some(e) = failure {
                // The uncommitted tail's allocations must be unwound
                // first: leaked pages in blocks the device never touched
                // would desynchronise the allocator from the blocks'
                // sequential write pointers (a failing block's own pages
                // are covered by its retirement).  Then recover — retire
                // the failing block or mark the dead die — and re-write
                // the tail one page at a time, each a run of one on a fresh
                // allocation, which routes around retired blocks and dead
                // regions.  The recursion ends because every failure removes
                // a block or a die; when the device runs out, the allocation
                // itself fails.
                self.rollback_unprogrammed(&e, rest.iter().map(|&(ppa, _)| ppa));
                let t_rec = self.recover(t_run, e)?;
                end = end.max(t_rec);
                for &(_, i) in rest {
                    let (lpn, data) = pages[i];
                    let c = self.write_in_region(t_rec, region, lpn, data)?;
                    started.get_or_insert(c.started_at);
                    end = end.max(c.completed_at);
                }
            }
            j = k;
        }
        Ok(OpCompletion {
            started_at: started.unwrap_or(now),
            completed_at: end,
        })
    }

    /// Dead-page hint from the DBMS free-space manager: the logical page no
    /// longer holds useful data (dropped table, freed extent, superseded
    /// version).  Its physical page becomes garbage immediately and GC will
    /// never copy it.
    pub fn mark_dead(&mut self, lpn: u64) -> FlashResult<()> {
        check_lpn(lpn, self.logical_pages)?;
        let g = *self.device.geometry();
        if let Some(old) = self.map.unmap(lpn) {
            self.device.invalidate_page(Ppa::from_flat(&g, old))?;
            self.dead_hinted.insert(old);
            if self.redundancy_active {
                self.drop_mirror_of(old)?;
            }
        }
        self.stats.dead_page_hints += 1;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nand_flash::FlashGeometry;

    pub(super) fn small_noftl() -> NoFtl {
        NoFtl::with_geometry(FlashGeometry::small())
    }

    pub(super) fn tiny_noftl() -> NoFtl {
        let mut cfg = NoFtlConfig::new(FlashGeometry::tiny());
        cfg.op_ratio = 0.30;
        cfg.gc_low_watermark = 2;
        cfg.gc_high_watermark = 3;
        NoFtl::new(cfg)
    }

    pub(super) fn page(n: &NoFtl, byte: u8) -> Vec<u8> {
        vec![byte; n.device().geometry().page_size as usize]
    }

    #[test]
    fn read_your_writes() {
        let mut n = small_noftl();
        let data = page(&n, 0x5C);
        n.write(0, 42, &data).unwrap();
        let mut buf = page(&n, 0);
        n.read(0, 42, &mut buf).unwrap();
        assert_eq!(buf, data);
    }

    #[test]
    fn writes_follow_die_wise_striping() {
        let mut n = small_noftl();
        let g = *n.device().geometry();
        let data = page(&n, 1);
        for lpn in 0..16u64 {
            n.write(0, lpn, &data).unwrap();
        }
        // Each die must have received writes (4 dies, 16 striped pages).
        let per_die = &n.flash_stats().per_die_ops;
        assert_eq!(per_die.len(), g.total_dies() as usize);
        assert!(per_die.iter().all(|&c| c > 0), "striping skipped a die: {per_die:?}");
    }

    #[test]
    fn region_of_lpn_matches_flash_placement() {
        let mut n = small_noftl();
        let g = *n.device().geometry();
        let data = page(&n, 2);
        for lpn in 0..32u64 {
            n.write(0, lpn, &data).unwrap();
            let region = n.region_of_lpn(lpn);
            // Read back through the map and check the die matches the region.
            let flat = n.map.get(lpn).unwrap();
            let ppa = Ppa::from_flat(&g, flat);
            assert_eq!(n.regions.region_of_die(ppa.die_addr()), region);
        }
    }

    #[test]
    fn mark_dead_makes_page_unreadable() {
        let mut n = small_noftl();
        let data = page(&n, 3);
        n.write(0, 9, &data).unwrap();
        n.mark_dead(9).unwrap();
        let mut buf = page(&n, 0);
        assert!(n.read(0, 9, &mut buf).is_err());
        assert_eq!(n.stats().dead_page_hints, 1);
    }

    #[test]
    fn write_in_region_places_page_on_requested_die() {
        let mut n = small_noftl();
        let g = *n.device().geometry();
        let data = page(&n, 4);
        // Place lpn 0 (which stripes to region 0) explicitly into region 3.
        n.write_in_region(0, 3, 0, &data).unwrap();
        let flat = n.map.get(0).unwrap();
        let ppa = Ppa::from_flat(&g, flat);
        assert_eq!(n.regions.region_of_die(ppa.die_addr()), 3);
        let mut buf = page(&n, 0);
        n.read(0, 0, &mut buf).unwrap();
        assert_eq!(buf, data);
    }

    #[test]
    fn write_batch_roundtrips_and_places_die_wise() {
        let mut n = small_noftl(); // 4 regions
        let g = *n.device().geometry();
        let pages: Vec<(u64, Vec<u8>)> = (0..16u64).map(|l| (l, vec![l as u8; 4096])).collect();
        let batch: Vec<(u64, &[u8])> = pages.iter().map(|(l, d)| (*l, d.as_slice())).collect();
        let end = n.write_batch(0, &batch).unwrap();
        assert!(end > 0);
        assert_eq!(n.stats().host_writes, 16);
        assert_eq!(n.flash_stats().programs, 16);
        assert!(n.flash_stats().multi_page_dispatches >= 4, "one dispatch per die");
        for (lpn, data) in &pages {
            let mut buf = vec![0u8; 4096];
            n.read(end, *lpn, &mut buf).unwrap();
            assert_eq!(&buf, data);
            let flat = n.map.get(*lpn).unwrap();
            let ppa = Ppa::from_flat(&g, flat);
            assert_eq!(
                n.regions.region_of_die(ppa.die_addr()),
                n.region_of_lpn(*lpn),
                "batched placement must follow die-wise striping"
            );
        }
    }

    #[test]
    fn write_batch_of_one_is_identical_to_write() {
        let mut a = small_noftl();
        let mut b = small_noftl();
        let data = page(&a, 0x3D);
        let c = a.write(1000, 7, &data).unwrap();
        let end = b.write_batch(1000, &[(7, data.as_slice())]).unwrap();
        assert_eq!(c.completed_at, end);
        assert_eq!(a.flash_stats().programs, b.flash_stats().programs);
        assert_eq!(b.flash_stats().multi_page_dispatches, 0);
        assert_eq!(a.map.get(7), b.map.get(7));
    }

    #[test]
    fn write_batch_placement_matches_sequential_writes() {
        let mut seq = small_noftl();
        let mut bat = small_noftl();
        let data = page(&seq, 1);
        for lpn in 0..32u64 {
            seq.write(0, lpn, &data).unwrap();
        }
        let batch: Vec<(u64, &[u8])> = (0..32u64).map(|l| (l, data.as_slice())).collect();
        bat.write_batch(0, &batch).unwrap();
        for lpn in 0..32u64 {
            assert_eq!(seq.map.get(lpn), bat.map.get(lpn), "lpn {lpn} placed differently");
        }
    }

    #[test]
    fn write_batch_overlaps_dies_and_beats_sequential() {
        let run = |batched: bool| -> u64 {
            let mut n = small_noftl(); // 4 dies
            let data = page(&n, 2);
            let batch: Vec<(u64, &[u8])> = (0..32u64).map(|l| (l, data.as_slice())).collect();
            if batched {
                n.write_batch(0, &batch).unwrap()
            } else {
                let mut t = 0;
                for (lpn, d) in &batch {
                    t = t.max(n.write(t, *lpn, d).unwrap().completed_at);
                }
                t
            }
        };
        let sequential = run(false);
        let batched = run(true);
        assert!(
            (sequential as f64) / (batched as f64) >= 2.0,
            "expected >=2x from die overlap + pipelining: seq={sequential} batched={batched}"
        );
    }

    #[test]
    fn write_batch_duplicate_lpn_keeps_last_version() {
        let mut n = small_noftl();
        let a = page(&n, 0xAA);
        let b = page(&n, 0xBB);
        let end = n
            .write_batch(0, &[(4, a.as_slice()), (4, b.as_slice())])
            .unwrap();
        let mut buf = page(&n, 0);
        n.read(end, 4, &mut buf).unwrap();
        assert_eq!(buf, b);
        assert_eq!(n.stats().host_writes, 2);
    }

    #[test]
    fn write_batch_rejects_bad_input_without_writing() {
        let mut n = small_noftl();
        let good = page(&n, 1);
        let bad = vec![0u8; 7];
        assert!(n
            .write_batch(0, &[(0, good.as_slice()), (1, bad.as_slice())])
            .is_err());
        assert_eq!(n.stats().host_writes, 0);
        assert_eq!(n.flash_stats().programs, 0);
        assert!(n
            .write_batch(0, &[(0, good.as_slice()), (n.logical_pages(), good.as_slice())])
            .is_err());
        assert_eq!(n.flash_stats().programs, 0);
    }

    #[test]
    fn single_page_write_queues_on_its_die_at_depth() {
        // Regression: at depth > 1 a single-page host write (a one-page WAL
        // force, a per-page flush) used to program its die directly, past
        // the die queue — neither gated behind a full queue nor visible to
        // the occupancy signal `schedule_gc` reads.
        let mut n = small_noftl();
        n.set_async_depth(8);
        let g = *n.device().geometry();
        let data = page(&n, 3);
        let regions = n.regions() as u64;
        // Every lpn ≡ 0 (mod regions) stripes to region 0, one die.
        let run: Vec<(u64, &[u8])> = (0..4).map(|k| (k * regions, data.as_slice())).collect();
        n.write_batch(0, &run).unwrap();
        let die = Ppa::from_flat(&g, n.map.get(0).unwrap()).die_addr();
        assert_eq!(n.flash_stats().queued_submissions, 1);
        assert_eq!(n.device.inflight_on(die, 0), 1);
        n.write(0, 4 * regions, &data).unwrap();
        assert_eq!(n.flash_stats().queued_submissions, 2, "the write is a queued submission");
        assert_eq!(n.device.inflight_on(die, 0), 2, "and holds a slot of its die's window");
    }

    #[test]
    fn async_write_batches_to_disjoint_regions_overlap() {
        // Two batches bound for different dies: the synchronous caller chains
        // them; the asynchronous submitter hands both over at t=0 and the
        // per-die queues overlap them almost completely.
        let data = vec![3u8; 4096];
        // Region r holds lpns r, r+4, r+8, ... under 4-way striping.
        let batch_a: Vec<(u64, &[u8])> = (0..8u64).map(|i| (i * 4, data.as_slice())).collect();
        let batch_b: Vec<(u64, &[u8])> = (0..8u64).map(|i| (1 + i * 4, data.as_slice())).collect();
        let sync_end = {
            let mut n = small_noftl();
            let t = n.write_batch(0, &batch_a).unwrap();
            n.write_batch(t, &batch_b).unwrap()
        };
        let async_end = {
            let mut n = small_noftl();
            n.set_async_depth(8);
            n.write_batch(0, &batch_a).unwrap();
            n.write_batch(0, &batch_b).unwrap();
            n.drain(0)
        };
        assert!(
            (sync_end as f64) / (async_end as f64) > 1.5,
            "disjoint-die batches must overlap under async: sync={sync_end} async={async_end}"
        );
    }

    #[test]
    fn async_depth_one_write_batch_is_identical_to_sync() {
        let mut a = small_noftl();
        let mut b = small_noftl();
        b.set_async_depth(1);
        let data = page(&a, 0x42);
        let batch: Vec<(u64, &[u8])> = (0..16u64).map(|l| (l, data.as_slice())).collect();
        let end_a = a.write_batch(0, &batch).unwrap();
        let end_b = b.write_batch(0, &batch).unwrap();
        assert_eq!(end_a, end_b);
        assert_eq!(a.flash_stats().programs, b.flash_stats().programs);
        assert_eq!(b.flash_stats().queued_submissions, 0, "depth 1 never queues");
    }

    #[test]
    fn read_batch_roundtrips_and_overlaps_dies() {
        // Each run gets its own device so the other run's die occupancy
        // cannot leak into its timing.
        let run = |batched: bool| -> u64 {
            let mut n = small_noftl(); // 4 dies
            let pages: Vec<(u64, Vec<u8>)> = (0..32u64).map(|l| (l, vec![l as u8; 4096])).collect();
            let batch: Vec<(u64, &[u8])> = pages.iter().map(|(l, d)| (*l, d.as_slice())).collect();
            let end = n.write_batch(0, &batch).unwrap();
            if batched {
                let mut bufs: Vec<(u64, Vec<u8>)> =
                    (0..32u64).map(|l| (l, vec![0u8; 4096])).collect();
                let mut reqs: Vec<(u64, &mut [u8])> = bufs
                    .iter_mut()
                    .map(|(l, b)| (*l, b.as_mut_slice()))
                    .collect();
                let done = n.read_batch(end, &mut reqs).unwrap();
                for (lpn, buf) in &bufs {
                    assert_eq!(buf, &vec![*lpn as u8; 4096], "lpn {lpn} content wrong");
                }
                assert!(
                    n.flash_stats().multi_page_read_dispatches >= 4,
                    "one dispatch per die"
                );
                assert_eq!(n.stats().host_reads, 32);
                done - end
            } else {
                // Sequential chained reads: each read issued at the previous
                // one's completion — the pre-PR4 issuer.
                let mut t = end;
                let mut buf = vec![0u8; 4096];
                for lpn in 0..32u64 {
                    t = n.read(t, lpn, &mut buf).unwrap().completed_at;
                }
                t - end
            }
        };
        let sequential = run(false);
        let batched = run(true);
        assert!(
            (sequential as f64) / (batched as f64) >= 2.0,
            "expected >=2x from die overlap + read pipelining: seq={sequential} batched={batched}"
        );
    }

    #[test]
    fn read_batch_of_one_is_identical_to_read() {
        let mut a = small_noftl();
        let mut b = small_noftl();
        let data = page(&a, 0x51);
        a.write(0, 7, &data).unwrap();
        b.write(0, 7, &data).unwrap();
        let mut buf_a = page(&a, 0);
        let c = a.read(5000, 7, &mut buf_a).unwrap();
        let mut buf_b = page(&b, 0);
        let end = b.read_batch(5000, &mut [(7, buf_b.as_mut_slice())]).unwrap();
        assert_eq!(c.completed_at, end);
        assert_eq!(buf_a, buf_b);
        assert_eq!(a.flash_stats().reads, b.flash_stats().reads);
        assert_eq!(b.flash_stats().multi_page_read_dispatches, 0);
        assert_eq!(a.stats().host_reads, b.stats().host_reads);
    }

    #[test]
    fn read_batch_rejects_bad_input_without_reading() {
        let mut n = small_noftl();
        let data = page(&n, 1);
        n.write(0, 0, &data).unwrap();
        let mut good = page(&n, 0);
        let mut unmapped = page(&n, 0);
        assert!(n
            .read_batch(0, &mut [(0, good.as_mut_slice()), (9, unmapped.as_mut_slice())])
            .is_err());
        assert_eq!(n.stats().host_reads, 0);
        assert_eq!(n.flash_stats().reads, 0, "no device command may issue");
        let mut small_buf = vec![0u8; 7];
        assert!(n
            .read_batch(0, &mut [(0, good.as_mut_slice()), (0, small_buf.as_mut_slice())])
            .is_err());
        assert_eq!(n.flash_stats().reads, 0);
    }

    #[test]
    fn async_depth_one_read_is_identical_to_sync() {
        let mut a = small_noftl();
        let mut b = small_noftl();
        b.set_async_depth(1);
        let data = page(&a, 0x66);
        for lpn in 0..8u64 {
            a.write(0, lpn, &data).unwrap();
            b.write(0, lpn, &data).unwrap();
        }
        let mut buf_a = page(&a, 0);
        let mut buf_b = page(&b, 0);
        for lpn in 0..8u64 {
            let ca = a.read(1000, lpn, &mut buf_a).unwrap();
            let cb = b.read(1000, lpn, &mut buf_b).unwrap();
            assert_eq!(ca, cb);
            assert_eq!(buf_a, buf_b);
        }
        assert_eq!(b.flash_stats().queued_reads, 0, "depth 1 never queues");
    }

    #[test]
    fn async_point_read_queues_behind_inflight_write_traffic() {
        // The same read issued at the same instant: on an idle device it is
        // fast; with a flush batch in flight on its die it must wait its turn
        // in the queue — the foreground-read interference the synchronous
        // model could never show (a sync read only paid die occupancy, never
        // queue admission).
        let data = vec![9u8; 4096];
        let idle_latency = {
            let mut n = small_noftl();
            n.set_async_depth(8);
            n.write(0, 0, &data).unwrap();
            let t0 = n.drain(0) + 1_000_000;
            let mut buf = vec![0u8; 4096];
            let c = n.read(t0, 0, &mut buf).unwrap();
            c.completed_at - t0
        };
        let busy_latency = {
            let mut n = small_noftl();
            n.set_async_depth(8);
            n.write(0, 0, &data).unwrap();
            let t0 = n.drain(0) + 1_000_000;
            // Two flush batches bound for lpn 0's die (region 0 holds lpns
            // 0, 4, 8, ... under 4-way striping), submitted just before.
            let batch: Vec<(u64, &[u8])> = (1..9u64).map(|i| (i * 4, data.as_slice())).collect();
            n.write_batch(t0, &batch).unwrap();
            n.write_batch(t0, &batch).unwrap();
            let mut buf = vec![0u8; 4096];
            let c = n.read(t0, 0, &mut buf).unwrap();
            assert_eq!(buf, data, "queued read returns correct content");
            c.completed_at - t0
        };
        assert!(
            busy_latency > idle_latency,
            "a read behind in-flight writes must be slower: busy={busy_latency} idle={idle_latency}"
        );
    }

    #[test]
    fn unwritten_and_out_of_range_reads_fail() {
        let mut n = small_noftl();
        let mut buf = page(&n, 0);
        assert!(n.read(0, 1, &mut buf).is_err());
        assert!(n.read(0, n.logical_pages() + 1, &mut buf).is_err());
    }

    #[test]
    fn identify_exposes_geometry_to_dbms() {
        let n = small_noftl();
        let id = n.identify();
        assert_eq!(id.geometry, *n.device().geometry());
        assert_eq!(n.regions(), id.geometry.total_dies() as usize);
    }

    #[test]
    fn reset_stats_clears_all_layers() {
        let mut n = small_noftl();
        let data = page(&n, 1);
        n.write(0, 0, &data).unwrap();
        n.reset_stats();
        assert_eq!(n.stats().host_writes, 0);
        assert_eq!(n.flash_stats().programs, 0);
    }

    #[test]
    fn buffer_size_mismatch_rejected() {
        let mut n = small_noftl();
        assert!(matches!(
            n.write(0, 0, &[0u8; 7]),
            Err(FlashError::BufferSizeMismatch { .. })
        ));
    }

    use nand_flash::fault::FaultPlan;

    /// NoFTL over a device with an explicit fault plan.
    pub(super) fn faulty_noftl(plan: FaultPlan, config: NoFtlConfig) -> NoFtl {
        let mut dev_cfg = DeviceConfig::new(config.geometry);
        dev_cfg.store_data = config.store_data;
        dev_cfg.endurance_override = config.endurance_override;
        dev_cfg.faults = Some(plan);
        NoFtl::with_device(NandDevice::new(dev_cfg), config)
    }

    #[test]
    fn writes_survive_program_failures() {
        let mut plan = FaultPlan::seeded(11);
        plan.program_fail_base = 0.03;
        plan.program_fail_wear_scale = 0.0;
        plan.read_error_base = 0.0;
        let mut n = faulty_noftl(plan, NoFtlConfig::new(FlashGeometry::small()));
        let lpns: u64 = 200;
        let mut t = 0;
        for round in 0..3u64 {
            for lpn in 0..lpns {
                let data = vec![(lpn as u8) ^ (round as u8); 4096];
                t = n.write(t, lpn, &data).unwrap().completed_at;
            }
        }
        assert!(
            n.stats().program_fail_retirements > 0,
            "600 writes at 3% failure rate must have tripped recovery"
        );
        assert!(n.stats().retired_blocks >= n.stats().program_fail_retirements);
        assert_eq!(n.bad_blocks().grown_count() as u64, n.stats().retired_blocks);
        // Zero data loss: every logical page reads back its newest version.
        let mut buf = vec![0u8; 4096];
        for lpn in 0..lpns {
            n.read(t, lpn, &mut buf).unwrap();
            assert_eq!(buf, vec![(lpn as u8) ^ 2u8; 4096], "lpn {lpn}");
        }
        // The device saw the failures the DBMS recovered from.
        assert_eq!(
            n.flash_stats().program_failures > 0,
            n.stats().program_fail_retirements > 0
        );
    }

    #[test]
    fn batched_writes_survive_program_failures() {
        let mut plan = FaultPlan::seeded(12);
        plan.program_fail_base = 0.03;
        plan.program_fail_wear_scale = 0.0;
        plan.read_error_base = 0.0;
        let mut cfg = NoFtlConfig::new(FlashGeometry::small());
        cfg.async_queue_depth = 8;
        let mut n = faulty_noftl(plan, cfg);
        let lpns: u64 = 192;
        let mut t = 0;
        for round in 0..3u64 {
            let payloads: Vec<Vec<u8>> = (0..lpns)
                .map(|lpn| vec![(lpn as u8).wrapping_add(round as u8); 4096])
                .collect();
            for chunk in (0..lpns).collect::<Vec<_>>().chunks(16) {
                let batch: Vec<(u64, &[u8])> = chunk
                    .iter()
                    .map(|&lpn| (lpn, payloads[lpn as usize].as_slice()))
                    .collect();
                t = n.write_batch(t, &batch).unwrap();
            }
        }
        t = n.drain(t);
        assert!(n.stats().program_fail_retirements > 0);
        let mut buf = vec![0u8; 4096];
        for lpn in 0..lpns {
            n.read(t, lpn, &mut buf).unwrap();
            assert_eq!(buf, vec![(lpn as u8).wrapping_add(2); 4096], "lpn {lpn}");
        }
    }

    #[test]
    fn uncorrectable_reads_recover_through_the_retry_ladder() {
        let mut plan = FaultPlan::seeded(13);
        plan.program_fail_base = 0.0;
        plan.read_error_base = 0.4;
        plan.read_error_wear_scale = 0.0;
        plan.read_error_retention_scale = 0.0;
        plan.read_error_disturb_scale = 0.0;
        plan.uncorrectable_fraction = 0.25;
        let mut cfg = NoFtlConfig::new(FlashGeometry::small());
        cfg.scrub_read_disturb_threshold = u64::MAX; // isolate the ladder
        let mut n = faulty_noftl(plan, cfg);
        let mut buf = vec![0u8; 4096];
        for lpn in 0..32u64 {
            let data = vec![lpn as u8; 4096];
            n.write(0, lpn, &data).unwrap();
        }
        for round in 1..10u64 {
            for lpn in 0..32u64 {
                n.read(round * 1_000_000, lpn, &mut buf).unwrap();
                assert_eq!(buf, vec![lpn as u8; 4096]);
            }
        }
        assert!(n.stats().read_retries > 0, "10% uncorrectable per attempt");
        assert!(n.stats().read_retry_successes > 0);
        assert!(n.flash_stats().uncorrectable_reads >= n.stats().read_retries);
        assert!(n.flash_stats().corrected_reads > 0);
    }

    #[test]
    fn exhausting_the_block_pool_fails_typed_not_panicking() {
        // Every program fails, so every write retires another block; once
        // the last free block is gone the write must surface
        // OutOfSpareBlocks as an error instead of panicking or looping.
        let mut plan = FaultPlan::seeded(16);
        plan.program_fail_base = 1.0;
        plan.read_error_base = 0.0;
        let mut cfg = NoFtlConfig::new(FlashGeometry::tiny());
        cfg.op_ratio = 0.30;
        let mut n = faulty_noftl(plan, cfg);
        let data = vec![0xAB; 512];
        let err = n.write(0, 0, &data).unwrap_err();
        assert_eq!(err, FlashError::OutOfSpareBlocks);
        // The pool is genuinely gone: every block was retired exactly once.
        assert_eq!(
            n.stats().retired_blocks,
            FlashGeometry::tiny().total_blocks()
        );
        assert_eq!(n.bad_blocks().grown_count() as u64, n.stats().retired_blocks);
    }

    #[test]
    fn factory_bad_blocks_shrink_exported_capacity() {
        use nand_flash::bad_block::BadBlockPolicy;
        let g = FlashGeometry::small();
        let cfg = NoFtlConfig::new(g);
        let full_capacity = cfg.logical_pages();
        let mut dev_cfg = DeviceConfig::new(g);
        dev_cfg.bad_blocks = BadBlockPolicy {
            factory_bad_fraction: 0.10,
            wear_out_failure_prob: 1.0,
            seed: 99,
        };
        let mut n = NoFtl::with_device(NandDevice::new(dev_cfg), cfg);
        let factory = n.bad_blocks().factory_count();
        assert!(factory > 0, "10% of 256 blocks must mark some factory-bad");
        assert!(
            n.logical_pages() < full_capacity,
            "capacity must shrink with the factory-bad pool ({} vs {})",
            n.logical_pages(),
            full_capacity
        );
        // The shrunken promise is honest: every exported page is writable
        // and readable even though the physical pool lost blocks.
        let mut t = 0;
        for lpn in 0..n.logical_pages() {
            let data = vec![(lpn % 251) as u8; 4096];
            t = n.write(t, lpn, &data).unwrap().completed_at;
        }
        let mut buf = vec![0u8; 4096];
        for lpn in 0..n.logical_pages() {
            n.read(t, lpn, &mut buf).unwrap();
            assert_eq!(buf[0], (lpn % 251) as u8);
        }
        // A pristine device still exports the full configured capacity.
        let pristine = small_noftl();
        assert_eq!(pristine.logical_pages(), full_capacity);
    }

    /// A fault plan with every probabilistic failure mode zeroed, so only
    /// the deterministic die kill (fired by the next device command) acts.
    pub(super) fn kill_plan(die_flat: u32) -> FaultPlan {
        let mut plan = FaultPlan::seeded(7).with_die_kill(0, die_flat);
        plan.program_fail_base = 0.0;
        plan.erase_fail_prob = 0.0;
        plan.read_error_base = 0.0;
        plan
    }

    /// Flat die index logical page `lpn` is currently mapped to.
    pub(super) fn die_of_lpn(n: &NoFtl, lpn: u64) -> u32 {
        let g = *n.device().geometry();
        let flat = n.map.get(lpn).expect("lpn is mapped");
        Ppa::from_flat(&g, flat).die_addr().flat(&g) as u32
    }
}

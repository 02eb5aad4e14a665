//! Storage back ends: the three I/O stacks of Figure 1.
//!
//! The storage manager talks to one of these through the [`StorageBackend`]
//! trait.  The trait surface is deliberately shaped like what a DBMS needs —
//! page reads/writes plus *hints* (dead pages, placement regions) — so that
//! the NoFTL back end can exploit them while the block-device back ends
//! silently ignore what the legacy interface cannot express.

use ftl::block_device::BlockDevice;
use nand_flash::{FlashResult, NativeFlashInterface, OpCompletion};
use noftl_core::{FlusherAssignment, NoFtl, NoFtlConfig, RedundancyPolicy};
use sim_utils::time::SimInstant;

use crate::engine::EngineConfig;
use crate::flusher::FlusherConfig;
use crate::transaction::AdmissionConfig;

/// Page id alias used by the batch write API (kept here to avoid a cyclic
/// import with [`crate::page`]).
type PageId = u64;

/// Pages per batched write submission of the default stack
/// ([`StackConfig::batch_pages`]).
pub const DEFAULT_BATCH_PAGES: usize = 64;

/// Readahead window cap (pages) of the default engine
/// ([`EngineConfig::readahead_window`]).
pub const DEFAULT_READAHEAD_WINDOW: usize = 64;

/// Read-occupancy threshold (in-flight device reads) of the
/// [`StackConfig::slo`] bundle: a background rebuild step offered while this
/// many reads are in flight defers (see
/// [`noftl_core::NoFtlConfig::gc_schedule_read_occupancy`]).
pub const DEFAULT_SLO_GC_READ_OCCUPANCY: usize = 2;

/// The five stack-wide settings as one typed value: a stack is a pure
/// function of it, and its caller states it in code — nothing in this
/// workspace reads the process environment.  A caller projects the value
/// onto the configuration structs with [`StackConfig::engine`],
/// [`StackConfig::flushers`], [`StackConfig::noftl`] and
/// [`StackConfig::noftl_backend`].  A field at its default leaves the
/// projected base untouched; a field that is set wins.
///
/// [`Default`] is the stack the paper figures run, and every field's default
/// is pinned trace-identical to the behaviour before the field existed.
#[derive(Debug, Clone, PartialEq)]
pub struct StackConfig {
    /// Pages per batched write submission (die-wise writers and the WAL), at
    /// least 1: 1 is one page per submission, `k` runs of at most `k` pages.
    /// Default [`DEFAULT_BATCH_PAGES`].
    pub batch_pages: usize,
    /// Submission depth per die / per submitter: 1 (the default) is
    /// synchronous dispatch, `k` a window of `k`.
    pub async_depth: usize,
    /// Seeded fault-injection plan armed on the device; default none.
    pub faults: Option<nand_flash::FaultPlan>,
    /// The overload bundle; default off.  It sets
    /// [`EngineConfig::admission`] (the WAL commit-admission window, which
    /// sheds arrivals whose wait would pass a deadline),
    /// [`EngineConfig::slo_scheduling`] (one bounded rebuild step offered
    /// after each flush decision) and
    /// [`DEFAULT_SLO_GC_READ_OCCUPANCY`] as the NoFTL read-occupancy
    /// threshold (a rebuild step defers at a read-hot instant).  The window
    /// has a price at low load: in `slo_overload` at 500 offered TPS and one
    /// client it raises p99 from 0.508 to 1.704 ms.
    pub slo: bool,
    /// One redundancy policy for every region; default none.
    pub redundancy: Option<RedundancyPolicy>,
}

impl Default for StackConfig {
    fn default() -> Self {
        Self {
            batch_pages: DEFAULT_BATCH_PAGES,
            async_depth: 1,
            faults: None,
            slo: false,
            redundancy: None,
        }
    }
}

impl StackConfig {
    /// [`EngineConfig::new`] under these settings.
    pub fn engine(&self) -> EngineConfig {
        EngineConfig {
            flushers: self.flushers(FlusherAssignment::Global, 4),
            admission: self.slo.then(AdmissionConfig::default),
            slo_scheduling: self.slo,
            ..EngineConfig::new()
        }
    }

    /// [`FlusherConfig::global`] / [`FlusherConfig::die_wise`] under these
    /// settings.  The engine hands the same depth and batch size to its WAL.
    pub fn flushers(&self, assignment: FlusherAssignment, writers: usize) -> FlusherConfig {
        FlusherConfig {
            assignment,
            batch_pages: self.batch_pages,
            async_depth: self.async_depth,
            ..FlusherConfig::global(writers)
        }
    }

    /// `base` under these settings: queue depth, the SLO bundle's
    /// read-occupancy threshold and the redundancy policy (applied to every
    /// region).
    pub fn noftl(&self, mut base: NoFtlConfig) -> NoFtlConfig {
        if self.async_depth > 1 {
            base.async_queue_depth = self.async_depth;
        }
        if self.slo {
            base.gc_schedule_read_occupancy = DEFAULT_SLO_GC_READ_OCCUPANCY;
        }
        if let Some(policy) = self.redundancy {
            base.redundancy = vec![policy; base.striping.regions(&base.geometry)];
        }
        base
    }

    /// A NoFTL backend over a fresh device, built from `base` under these
    /// settings — [`StackConfig::noftl`] plus the fault plan, which lives on the
    /// device.
    pub fn noftl_backend(&self, base: NoFtlConfig) -> NoFtlBackend {
        let mut noftl = NoFtl::new(self.noftl(base));
        if self.faults.is_some() {
            noftl.set_fault_plan(self.faults.clone());
        }
        NoFtlBackend::new(noftl)
    }
}

/// Spare-space ratio that preserves the GC headroom of `base` once
/// `policy`'s redundancy copies start consuming physical capacity.
///
/// Redundancy writes come out of over-provisioning: a `Parity(k)` region
/// keeps ≈ `1/k` extra live pages per mapped page (the sealed parity — and
/// stale stripes pin their parity until an erase breaks them, so churny
/// workloads pin more), a `Mirror` region a full copy.  A config built for
/// the unprotected baseline therefore deadlocks the allocator when the policy
/// turns on.  Harnesses that size a run's logical capacity pass their
/// baseline ratio through here:
///
/// * `None` — `base` unchanged (off stays bit-identical);
/// * `Parity(k)` — `1 − (1 − base) · k/(k+1)`: logical capacity shrinks by
///   the parity share;
/// * `Mirror` — `1 − (1 − base)/2`: logical capacity halves.
///
/// The result is a *floor*: update-heavy workloads on parity regions should
/// start from a generous `base`, because superseded stripe members keep
/// their parity page live until a member's block erases.
pub fn redundancy_op_ratio(base: f64, policy: Option<RedundancyPolicy>) -> f64 {
    match policy {
        None | Some(RedundancyPolicy::None) => base,
        Some(RedundancyPolicy::Parity(k)) => {
            let k = k.max(1) as f64;
            1.0 - (1.0 - base) * k / (k + 1.0)
        }
        Some(RedundancyPolicy::Mirror) => 1.0 - (1.0 - base) / 2.0,
    }
}

/// Bounded window of in-flight asynchronous submissions, one per issuer
/// stream (each db-writer, the WAL's group submissions, the buffer pool's
/// miss fills): a FIFO of the completion times of submissions issued but not
/// yet waited for.  A window carries one class of work — the pool's holds
/// reads, the flushers' and the WAL's hold writes.
///
/// At depth 1 [`InflightWindow::gate`] makes every submission wait for its
/// predecessor — the synchronous chaining the pre-async code performed.
#[derive(Debug, Clone, Default)]
pub struct InflightWindow {
    completions: std::collections::VecDeque<SimInstant>,
}

impl InflightWindow {
    /// Create an empty window.
    pub fn new() -> Self {
        Self::default()
    }

    /// Submissions currently in flight.
    pub fn len(&self) -> usize {
        self.completions.len()
    }

    /// Whether nothing is in flight.
    pub fn is_empty(&self) -> bool {
        self.completions.is_empty()
    }

    /// Forget every in-flight entry without waiting (synchronous-mode reset).
    pub fn clear(&mut self) {
        self.completions.clear();
    }

    /// Earliest time a new submission may issue: pops window entries until
    /// fewer than `depth` remain, waiting for each popped completion.
    pub fn gate(&mut self, depth: usize, now: SimInstant) -> SimInstant {
        let mut at = now;
        while self.completions.len() >= depth.max(1) {
            let free_at = self
                .completions
                .pop_front()
                .expect("window cannot be empty here");
            at = at.max(free_at);
        }
        at
    }

    /// Record a submission's completion time.
    pub fn push(&mut self, completed_at: SimInstant) {
        self.completions.push_back(completed_at);
    }

    /// Barrier: the instant by which everything in flight has completed (at
    /// least `now`).  Clears the window.
    pub fn drain(&mut self, now: SimInstant) -> SimInstant {
        let t = self.horizon(now);
        self.completions.clear();
        t
    }

    /// The instant by which everything in flight has completed (at least
    /// `now`) — like [`InflightWindow::drain`] but leaves the window intact,
    /// so submissions keep pipelining while the caller reports a horizon.
    pub fn horizon(&self, now: SimInstant) -> SimInstant {
        self.completions.iter().fold(now, |t, &c| t.max(c))
    }

    /// Entries still genuinely in flight *as of* `now` (completion after
    /// `now`).  Unlike [`InflightWindow::len`] this does not count entries
    /// whose completion has already passed but which the gate has not yet
    /// popped — the honest pressure signal admission control reads.
    pub fn inflight_at(&self, now: SimInstant) -> usize {
        self.completions.iter().filter(|&&c| c > now).count()
    }
}

/// Aggregate I/O counters a backend can report (used by the benchmark
/// harness to print GC overhead tables).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BackendCounters {
    /// Host-visible page reads.
    pub host_reads: u64,
    /// Host-visible page writes.
    pub host_writes: u64,
    /// Pages copied internally (GC / merges / wear leveling).
    pub internal_copies: u64,
    /// Block erases.
    pub erases: u64,
    /// Native COPYBACK commands issued by the device.
    pub device_copybacks: u64,
}

/// The storage manager's view of a storage device.
pub trait StorageBackend {
    /// Stack name ("noftl", "ftl-faster", "ftl-dftl", "mem", ...).
    fn name(&self) -> String;

    /// Page size in bytes (DB page = Flash page in this reproduction).
    fn page_size(&self) -> usize;

    /// Number of addressable pages.
    fn num_pages(&self) -> u64;

    /// Read `page_id` into `buf`.
    fn read_page(
        &mut self,
        now: SimInstant,
        page_id: u64,
        buf: &mut [u8],
    ) -> FlashResult<OpCompletion>;

    /// Write `page_id` from `data`.
    fn write_page(
        &mut self,
        now: SimInstant,
        page_id: u64,
        data: &[u8],
    ) -> FlashResult<OpCompletion>;

    /// Write `page_id`, requesting placement in `region` (only meaningful for
    /// the NoFTL back end; others fall back to [`StorageBackend::write_page`]).
    fn write_page_in_region(
        &mut self,
        now: SimInstant,
        _region: usize,
        page_id: u64,
        data: &[u8],
    ) -> FlashResult<OpCompletion> {
        self.write_page(now, page_id, data)
    }

    /// Write a batch of pages as one submission.
    ///
    /// The batch write protocol and its invariants:
    ///
    /// * the backend may reorder and overlap the writes internally (the NoFTL
    ///   backend groups them by region and dispatches one multi-page program
    ///   per die), but after the returned instant **every** page of the batch
    ///   is durable with exactly the content passed in;
    /// * if the same page id appears twice, the later entry wins — the same
    ///   outcome as issuing the batch as sequential `write_page` calls;
    /// * a 1-page batch must behave exactly like [`StorageBackend::write_page`]
    ///   (same commands, same timing, same counters);
    /// * an error fails the submission; the caller must not assume any page
    ///   of the batch became durable.
    ///
    /// The default implementation is the legacy path: one `write_page` per
    /// page, each issued at the completion of the previous one.  Returns the
    /// virtual time when the last write completed.
    fn write_pages(
        &mut self,
        now: SimInstant,
        pages: &[(PageId, &[u8])],
    ) -> FlashResult<SimInstant> {
        let mut t = now;
        for (page_id, data) in pages {
            let c = self.write_page(t, *page_id, data)?;
            t = t.max(c.completed_at);
        }
        Ok(t)
    }

    /// Read a batch of pages as one submission — the read-side sibling of
    /// [`StorageBackend::write_pages`].
    ///
    /// The backend may reorder and overlap the reads internally (the NoFTL
    /// backend groups them by die and dispatches one multi-page read per
    /// die); after the returned instant **every** buffer holds its page's
    /// content.  A 1-page batch must behave exactly like
    /// [`StorageBackend::read_page`]; an error fails the whole submission
    /// with no buffer guaranteed filled.
    ///
    /// The default implementation is the legacy path: one `read_page` per
    /// page, each issued at the completion of the previous one.  Returns the
    /// virtual time when the last read completed.
    fn read_pages(
        &mut self,
        now: SimInstant,
        reqs: &mut [(PageId, &mut [u8])],
    ) -> FlashResult<SimInstant> {
        let mut t = now;
        for (page_id, buf) in reqs.iter_mut() {
            let c = self.read_page(t, *page_id, buf)?;
            t = t.max(c.completed_at);
        }
        Ok(t)
    }

    /// Always empty: every back end reports a completion once, as the return
    /// value of the call that issued it.  Kept only because the `perf` suite
    /// (`perf/src/shims.rs` and its TPC-B and scan workloads) still calls
    /// it; nothing in the stack does.
    fn poll_completions(&mut self) -> Vec<nand_flash::QueuedCompletion> {
        Vec::new()
    }

    /// Hint that `page_id` no longer holds useful data (deallocated by the
    /// free-space manager, truncated WAL segment, dropped table).
    fn free_page_hint(&mut self, now: SimInstant, page_id: u64) -> FlashResult<()>;

    /// Set the asynchronous submission depth (per-die command-queue window).
    /// Depth 1 is the synchronous dispatch; back ends without device queues
    /// ignore the setting.
    fn set_async_depth(&mut self, _depth: usize) {}

    /// Enable gap-backfilling device occupancy for multi-client timing
    /// (off = the pinned `busy_until` ratchet, identical for monotone
    /// submission times).  Back ends without a timing model ignore it.
    fn set_backfill_occupancy(&mut self, _on: bool) {}

    /// Barrier over any in-flight asynchronous submissions: returns the
    /// instant by which everything submitted so far has completed (at least
    /// `now`).  Synchronous back ends complete every call inline, so the
    /// default is a no-op.
    fn drain(&mut self, now: SimInstant) -> SimInstant {
        now
    }

    /// Commands in flight on the device as of `now`.  Back ends without
    /// device queues report no pressure.
    fn queue_occupancy(&self, _now: SimInstant) -> usize {
        0
    }

    /// Give the backend one opportunity for proactive background
    /// reclamation.  No back end here overrides it and the engine never
    /// calls it; it returns `now` unchanged.
    fn schedule_background_gc(&mut self, now: SimInstant) -> FlashResult<SimInstant> {
        Ok(now)
    }

    /// Give the backend one opportunity for background rebuild work after a
    /// die failure (the NoFTL backend reconstructs a bounded batch of lost
    /// pages onto surviving dies; see [`noftl_core::NoFtl::schedule_rebuild`]).
    /// Returns the completion instant of any work done (at least `now`);
    /// back ends without redundancy machinery return `now` unchanged.
    fn schedule_rebuild(&mut self, now: SimInstant) -> FlashResult<SimInstant> {
        Ok(now)
    }

    /// Number of physical regions the backend exposes (1 when the physical
    /// layout is hidden behind a block interface).
    fn regions(&self) -> usize {
        1
    }

    /// Region a page maps to (always 0 for single-region back ends).
    fn region_of_page(&self, _page_id: u64) -> usize {
        0
    }

    /// Aggregate I/O counters.
    fn counters(&self) -> BackendCounters;

    /// Reset statistics between experiment phases.
    fn reset_counters(&mut self);

    /// Downcast hook: the concrete backend behind a `dyn StorageBackend`.
    /// The engine owns its backend as a trait object; fault-injection tests
    /// use this to reach the embedded NoFTL's recovery statistics after a
    /// run.  Backends that do not opt in return `None`.
    fn as_any(&self) -> Option<&dyn std::any::Any> {
        None
    }

    /// Mutable counterpart of [`StorageBackend::as_any`]: die-failure chaos
    /// tests use this to arm a deterministic kill plan on the embedded
    /// device *mid-run*, after the workload's load phase has placed real
    /// data on the die about to fail.
    fn as_any_mut(&mut self) -> Option<&mut dyn std::any::Any> {
        None
    }
}

// ---------------------------------------------------------------------------
// NoFTL backend (Figure 1.c)
// ---------------------------------------------------------------------------

/// Native-Flash backend: the DBMS embeds [`noftl_core::NoFtl`].
pub struct NoFtlBackend {
    noftl: NoFtl,
}

impl NoFtlBackend {
    /// Wrap a NoFTL instance exactly as configured.
    pub fn new(noftl: NoFtl) -> Self {
        Self { noftl }
    }

    /// Borrow the embedded NoFTL (statistics, region manager).
    pub fn noftl(&self) -> &NoFtl {
        &self.noftl
    }

    /// Mutably borrow the embedded NoFTL.
    pub fn noftl_mut(&mut self) -> &mut NoFtl {
        &mut self.noftl
    }
}

impl StorageBackend for NoFtlBackend {
    fn name(&self) -> String {
        "noftl".into()
    }

    fn page_size(&self) -> usize {
        self.noftl.device().geometry().page_size as usize
    }

    fn num_pages(&self) -> u64 {
        self.noftl.logical_pages()
    }

    fn read_page(
        &mut self,
        now: SimInstant,
        page_id: u64,
        buf: &mut [u8],
    ) -> FlashResult<OpCompletion> {
        self.noftl.read(now, page_id, buf)
    }

    fn write_page(
        &mut self,
        now: SimInstant,
        page_id: u64,
        data: &[u8],
    ) -> FlashResult<OpCompletion> {
        self.noftl.write(now, page_id, data)
    }

    fn write_page_in_region(
        &mut self,
        now: SimInstant,
        region: usize,
        page_id: u64,
        data: &[u8],
    ) -> FlashResult<OpCompletion> {
        self.noftl.write_in_region(now, region, page_id, data)
    }

    fn write_pages(
        &mut self,
        now: SimInstant,
        pages: &[(PageId, &[u8])],
    ) -> FlashResult<SimInstant> {
        self.noftl.write_batch(now, pages)
    }

    fn read_pages(
        &mut self,
        now: SimInstant,
        reqs: &mut [(PageId, &mut [u8])],
    ) -> FlashResult<SimInstant> {
        self.noftl.read_batch(now, reqs)
    }

    fn free_page_hint(&mut self, _now: SimInstant, page_id: u64) -> FlashResult<()> {
        self.noftl.mark_dead(page_id)
    }

    fn set_async_depth(&mut self, depth: usize) {
        self.noftl.set_async_depth(depth);
    }

    fn set_backfill_occupancy(&mut self, on: bool) {
        self.noftl.set_backfill_occupancy(on);
    }

    fn drain(&mut self, now: SimInstant) -> SimInstant {
        self.noftl.drain(now)
    }

    fn queue_occupancy(&self, now: SimInstant) -> usize {
        self.noftl.queue_occupancy(now)
    }

    fn schedule_rebuild(&mut self, now: SimInstant) -> FlashResult<SimInstant> {
        Ok(self.noftl.schedule_rebuild(now)?.unwrap_or(now))
    }

    fn regions(&self) -> usize {
        self.noftl.regions()
    }

    fn region_of_page(&self, page_id: u64) -> usize {
        self.noftl.region_of_lpn(page_id)
    }

    fn counters(&self) -> BackendCounters {
        let s = self.noftl.stats();
        let f = self.noftl.flash_stats();
        BackendCounters {
            host_reads: s.host_reads,
            host_writes: s.host_writes,
            internal_copies: s.gc_page_copies,
            erases: s.gc_erases,
            device_copybacks: f.copybacks,
        }
    }

    fn reset_counters(&mut self) {
        self.noftl.reset_stats();
    }

    fn as_any(&self) -> Option<&dyn std::any::Any> {
        Some(self)
    }

    fn as_any_mut(&mut self) -> Option<&mut dyn std::any::Any> {
        Some(self)
    }
}

// ---------------------------------------------------------------------------
// Block-device backend (Figure 1.a / 1.b)
// ---------------------------------------------------------------------------

/// Conventional backend: any [`BlockDevice`] (an emulated SSD with an FTL
/// inside, or a plain raw device).
pub struct BlockDeviceBackend<D: BlockDevice> {
    device: D,
    name: String,
    reads: u64,
    writes: u64,
}

impl<D: BlockDevice> BlockDeviceBackend<D> {
    /// Wrap a block device under the given stack name.
    pub fn new(device: D, name: impl Into<String>) -> Self {
        Self {
            device,
            name: name.into(),
            reads: 0,
            writes: 0,
        }
    }

    /// Borrow the wrapped device.
    pub fn device(&self) -> &D {
        &self.device
    }

    /// Mutably borrow the wrapped device.
    pub fn device_mut(&mut self) -> &mut D {
        &mut self.device
    }
}

impl<D: BlockDevice> StorageBackend for BlockDeviceBackend<D> {
    fn name(&self) -> String {
        self.name.clone()
    }

    fn page_size(&self) -> usize {
        self.device.block_size()
    }

    fn num_pages(&self) -> u64 {
        self.device.num_blocks()
    }

    fn read_page(
        &mut self,
        now: SimInstant,
        page_id: u64,
        buf: &mut [u8],
    ) -> FlashResult<OpCompletion> {
        self.reads += 1;
        self.device.read_block(now, page_id, buf)
    }

    fn write_page(
        &mut self,
        now: SimInstant,
        page_id: u64,
        data: &[u8],
    ) -> FlashResult<OpCompletion> {
        self.writes += 1;
        self.device.write_block(now, page_id, data)
    }

    fn free_page_hint(&mut self, now: SimInstant, page_id: u64) -> FlashResult<()> {
        // The legacy interface can at best express this as a TRIM.
        self.device.trim_block(now, page_id)
    }

    fn counters(&self) -> BackendCounters {
        BackendCounters {
            host_reads: self.reads,
            host_writes: self.writes,
            ..Default::default()
        }
    }

    fn reset_counters(&mut self) {
        self.reads = 0;
        self.writes = 0;
    }
}

// ---------------------------------------------------------------------------
// In-memory backend (trace recording / correctness oracle)
// ---------------------------------------------------------------------------

/// Zero-latency, RAM-backed storage used for in-memory benchmark runs and as
/// a correctness oracle.
pub struct MemBackend {
    page_size: usize,
    pages: Vec<Option<Box<[u8]>>>,
    reads: u64,
    writes: u64,
}

impl MemBackend {
    /// Create an in-memory backend with `num_pages` pages of `page_size` bytes.
    pub fn new(page_size: usize, num_pages: u64) -> Self {
        Self {
            page_size,
            pages: vec![None; num_pages as usize],
            reads: 0,
            writes: 0,
        }
    }
}

impl StorageBackend for MemBackend {
    fn name(&self) -> String {
        "mem".into()
    }

    fn page_size(&self) -> usize {
        self.page_size
    }

    fn num_pages(&self) -> u64 {
        self.pages.len() as u64
    }

    fn read_page(
        &mut self,
        now: SimInstant,
        page_id: u64,
        buf: &mut [u8],
    ) -> FlashResult<OpCompletion> {
        match self.pages.get(page_id as usize) {
            Some(Some(data)) => buf.copy_from_slice(data),
            Some(None) => buf.fill(0),
            None => {
                return Err(nand_flash::FlashError::InvalidAddress {
                    what: format!("page {page_id} out of range"),
                })
            }
        }
        self.reads += 1;
        Ok(OpCompletion {
            started_at: now,
            completed_at: now,
        })
    }

    fn write_page(
        &mut self,
        now: SimInstant,
        page_id: u64,
        data: &[u8],
    ) -> FlashResult<OpCompletion> {
        if page_id as usize >= self.pages.len() {
            return Err(nand_flash::FlashError::InvalidAddress {
                what: format!("page {page_id} out of range"),
            });
        }
        self.pages[page_id as usize] = Some(data.to_vec().into_boxed_slice());
        self.writes += 1;
        Ok(OpCompletion {
            started_at: now,
            completed_at: now,
        })
    }

    fn free_page_hint(&mut self, _now: SimInstant, page_id: u64) -> FlashResult<()> {
        if let Some(slot) = self.pages.get_mut(page_id as usize) {
            *slot = None;
        }
        Ok(())
    }

    fn counters(&self) -> BackendCounters {
        BackendCounters {
            host_reads: self.reads,
            host_writes: self.writes,
            ..Default::default()
        }
    }

    fn reset_counters(&mut self) {
        self.reads = 0;
        self.writes = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftl::{Ftl, FtlBlockDevice, PageFtl};
    use nand_flash::FlashGeometry;
    use noftl_core::NoFtlConfig;

    #[test]
    fn mem_backend_roundtrip() {
        let mut b = MemBackend::new(4096, 32);
        let data = vec![7u8; 4096];
        b.write_page(0, 5, &data).unwrap();
        let mut buf = vec![0u8; 4096];
        b.read_page(0, 5, &mut buf).unwrap();
        assert_eq!(buf, data);
        assert_eq!(b.counters().host_reads, 1);
        assert_eq!(b.counters().host_writes, 1);
        b.free_page_hint(0, 5).unwrap();
        b.read_page(0, 5, &mut buf).unwrap();
        assert!(buf.iter().all(|&x| x == 0));
        b.reset_counters();
        assert_eq!(b.counters().host_reads, 0);
    }

    #[test]
    fn noftl_backend_exposes_regions() {
        let noftl = NoFtl::new(NoFtlConfig::new(FlashGeometry::small()));
        let mut b = NoFtlBackend::new(noftl);
        assert_eq!(b.name(), "noftl");
        assert_eq!(b.regions(), 4);
        let data = vec![1u8; b.page_size()];
        b.write_page(0, 0, &data).unwrap();
        b.write_page_in_region(0, 2, 1, &data).unwrap();
        let mut buf = vec![0u8; b.page_size()];
        b.read_page(0, 1, &mut buf).unwrap();
        assert_eq!(buf, data);
        assert_eq!(b.counters().host_writes, 2);
        b.free_page_hint(0, 0).unwrap();
        assert_eq!(b.noftl().stats().dead_page_hints, 1);
    }

    #[test]
    fn block_backend_wraps_ftl_device() {
        let ftl = PageFtl::with_geometry(FlashGeometry::small());
        let mut b = BlockDeviceBackend::new(FtlBlockDevice::new(ftl), "ftl-page");
        assert_eq!(b.regions(), 1);
        assert_eq!(b.region_of_page(1234), 0);
        let data = vec![2u8; b.page_size()];
        b.write_page(0, 9, &data).unwrap();
        let mut buf = vec![0u8; b.page_size()];
        b.read_page(0, 9, &mut buf).unwrap();
        assert_eq!(buf, data);
        // write_page_in_region falls back to a plain write.
        b.write_page_in_region(0, 3, 10, &data).unwrap();
        assert_eq!(b.counters().host_writes, 2);
        assert!(
            b.device().ftl().device().stats().programs >= 2,
            "writes must reach the flash device"
        );
    }

    #[test]
    fn write_pages_default_loop_on_mem_backend() {
        let mut b = MemBackend::new(512, 32);
        let pages: Vec<Vec<u8>> = (0..4u8).map(|i| vec![i; 512]).collect();
        let batch: Vec<(u64, &[u8])> = pages.iter().enumerate().map(|(i, d)| (i as u64, d.as_slice())).collect();
        let t = b.write_pages(0, &batch).unwrap();
        assert_eq!(t, 0, "mem backend has zero latency");
        assert_eq!(b.counters().host_writes, 4);
        let mut buf = vec![0u8; 512];
        for (i, data) in pages.iter().enumerate() {
            b.read_page(0, i as u64, &mut buf).unwrap();
            assert_eq!(&buf, data);
        }
    }

    #[test]
    fn noftl_backend_batches_through_write_batch() {
        let noftl = NoFtl::new(NoFtlConfig::new(FlashGeometry::small()));
        let mut b = NoFtlBackend::new(noftl);
        let pages: Vec<Vec<u8>> = (0..16u8).map(|i| vec![i; b.page_size()]).collect();
        let batch: Vec<(u64, &[u8])> = pages.iter().enumerate().map(|(i, d)| (i as u64, d.as_slice())).collect();
        let t = b.write_pages(0, &batch).unwrap();
        assert!(t > 0);
        assert_eq!(b.counters().host_writes, 16);
        assert!(
            b.noftl().flash_stats().multi_page_dispatches > 0,
            "batch must reach the multi-page program command"
        );
        let mut buf = vec![0u8; b.page_size()];
        for (i, data) in pages.iter().enumerate() {
            b.read_page(t, i as u64, &mut buf).unwrap();
            assert_eq!(&buf, data);
        }
    }

    #[test]
    fn default_knobs_project_onto_the_pure_constructors() {
        let knobs = StackConfig::default();
        assert_eq!(format!("{:?}", knobs.engine()), format!("{:?}", EngineConfig::new()));
        assert_eq!(
            format!("{:?}", knobs.flushers(FlusherAssignment::DieWise, 3)),
            format!("{:?}", FlusherConfig::die_wise(3))
        );
        let base = NoFtlConfig::new(FlashGeometry::small());
        assert_eq!(format!("{:?}", knobs.noftl(base.clone())), format!("{base:?}"));
        assert!(!knobs.noftl_backend(base).noftl().faults_enabled());
    }

    #[test]
    fn set_knobs_project_onto_every_layer() {
        let knobs = StackConfig {
            batch_pages: 16,
            async_depth: 6,
            faults: Some(nand_flash::FaultPlan::seeded(987654)),
            slo: true,
            redundancy: Some(RedundancyPolicy::Mirror),
        };
        let e = knobs.engine();
        assert!(e.slo_scheduling && e.admission.is_some());
        let global = knobs.flushers(FlusherAssignment::Global, 4);
        assert_eq!(format!("{:?}", e.flushers), format!("{global:?}"));
        let f = knobs.flushers(FlusherAssignment::DieWise, 3);
        assert_eq!(
            (f.writers, f.assignment, f.batch_pages, f.async_depth),
            (3, FlusherAssignment::DieWise, 16, 6)
        );
        let base = NoFtlConfig::new(FlashGeometry::small());
        let mut no_slo = StackConfig {
            slo: false,
            ..knobs.clone()
        }
        .noftl(base.clone());
        no_slo.gc_schedule_read_occupancy = DEFAULT_SLO_GC_READ_OCCUPANCY;
        assert_eq!(
            format!("{:?}", knobs.noftl(base.clone())),
            format!("{no_slo:?}"),
            "the SLO bundle sets one NoFTL field, the read-occupancy threshold"
        );
        let b = knobs.noftl_backend(base);
        assert_eq!(b.noftl().async_depth(), 6);
        assert_eq!(b.noftl().device().fault_plan().map(|p| p.seed), Some(987654));
        for r in 0..b.regions() {
            assert_eq!(b.noftl().redundancy_policy(r), RedundancyPolicy::Mirror);
        }
    }

    #[test]
    fn inflight_window_gates_and_drains() {
        let mut w = InflightWindow::new();
        assert_eq!(w.gate(2, 100), 100, "empty window never waits");
        w.push(500);
        w.push(700);
        assert_eq!(w.len(), 2);
        // Depth 2 full: next submission waits for the oldest completion.
        assert_eq!(w.gate(2, 100), 500);
        assert_eq!(w.len(), 1);
        // Depth 1 pops everything remaining.
        assert_eq!(w.gate(1, 100), 700);
        assert!(w.is_empty());
        w.push(900);
        assert_eq!(w.drain(100), 900, "barrier covers the slowest entry");
        assert_eq!(w.drain(100), 100, "drained window is empty");
        w.push(300);
        w.clear();
        assert_eq!(w.drain(0), 0, "clear forgets without waiting");
    }

    #[test]
    fn noftl_backend_batches_reads_and_surfaces_completions() {
        let noftl = NoFtl::new(NoFtlConfig::new(FlashGeometry::small()));
        let mut b = NoFtlBackend::new(noftl);
        let pages: Vec<Vec<u8>> = (0..16u8).map(|i| vec![i; b.page_size()]).collect();
        let batch: Vec<(u64, &[u8])> = pages
            .iter()
            .enumerate()
            .map(|(i, d)| (i as u64, d.as_slice()))
            .collect();
        let t = b.write_pages(0, &batch).unwrap();
        b.set_async_depth(4);
        let mut bufs: Vec<Vec<u8>> = (0..16).map(|_| vec![0u8; b.page_size()]).collect();
        let mut reqs: Vec<(u64, &mut [u8])> = bufs
            .iter_mut()
            .enumerate()
            .map(|(i, buf)| (i as u64, buf.as_mut_slice()))
            .collect();
        let end = b.read_pages(t, &mut reqs).unwrap();
        assert!(end > t);
        for (i, buf) in bufs.iter().enumerate() {
            assert_eq!(buf, &pages[i], "page {i} content wrong after batched read");
        }
        assert!(
            b.noftl().flash_stats().multi_page_read_dispatches > 0,
            "batch must reach the multi-page read command"
        );
        // The reads went through the device queues; their completions came
        // back as the call's return, so there is no stream left to poll.
        let stats = b.noftl().flash_stats();
        assert!(stats.queued_reads > 0);
        assert_eq!(stats.queued_reads, stats.multi_page_read_dispatches);
        assert!(b.poll_completions().is_empty());
        // The default (mem backend) read_pages loop also fills correctly.
        let mut m = MemBackend::new(512, 32);
        m.write_page(0, 3, &vec![7u8; 512]).unwrap();
        let mut buf = vec![0u8; 512];
        let t = m.read_pages(0, &mut [(3, buf.as_mut_slice())]).unwrap();
        assert_eq!(t, 0);
        assert_eq!(buf[0], 7);
        assert!(m.poll_completions().is_empty(), "mem backend has no queues");
    }

    #[test]
    fn redundancy_op_ratio_reserves_the_copy_share() {
        // Off leaves the baseline untouched (the equivalence invariant).
        assert_eq!(redundancy_op_ratio(0.10, None), 0.10);
        assert_eq!(redundancy_op_ratio(0.10, Some(RedundancyPolicy::None)), 0.10);
        // Parity(3): logical capacity shrinks by the 1/(k+1) parity share.
        let p3 = redundancy_op_ratio(0.10, Some(RedundancyPolicy::Parity(3)));
        assert!((p3 - 0.325).abs() < 1e-12, "got {p3}");
        // Wider stripes cost less spare space.
        let p7 = redundancy_op_ratio(0.10, Some(RedundancyPolicy::Parity(7)));
        assert!(p7 < p3);
        // Mirror halves the logical capacity.
        let m = redundancy_op_ratio(0.10, Some(RedundancyPolicy::Mirror));
        assert!((m - 0.55).abs() < 1e-12, "got {m}");
        // The physical budget actually covers the copies: (1-op')*(1+1/k)
        // must not exceed the baseline's occupancy ceiling.
        assert!((1.0 - p3) * (1.0 + 1.0 / 3.0) <= 1.0 - 0.10 + 1e-12);
        assert!((1.0 - m) * 2.0 <= 1.0 - 0.10 + 1e-12);
    }

    #[test]
    fn noftl_backend_schedules_rebuild_through_the_trait() {
        // A healthy device has no rebuild work: the hook is a timing no-op
        // (the equivalence invariant for the engine's background slot).
        let mut b = NoFtlBackend::new(NoFtl::new(NoFtlConfig::new(FlashGeometry::small())));
        assert_eq!(b.schedule_rebuild(123).unwrap(), 123);
        assert_eq!(b.noftl().stats().rebuild_scheduled, 0);
        // Back ends without redundancy machinery return `now` unchanged.
        assert_eq!(MemBackend::new(512, 8).schedule_rebuild(7).unwrap(), 7);
    }

    #[test]
    fn noftl_backend_surfaces_queue_occupancy() {
        let mut b = NoFtlBackend::new(NoFtl::new(NoFtlConfig::new(FlashGeometry::small())));
        b.set_async_depth(4);
        let data = vec![5u8; b.page_size()];
        let batch: Vec<(u64, &[u8])> = (0..8u64).map(|i| (i, data.as_slice())).collect();
        let end = b.write_pages(0, &batch).unwrap();
        assert!(
            b.queue_occupancy(0) > 0,
            "queued writes must register as occupancy at submit time"
        );
        assert_eq!(b.queue_occupancy(end), 0, "occupancy clears past the horizon");
        // Back ends without device queues never report pressure.
        assert_eq!(MemBackend::new(512, 8).queue_occupancy(0), 0);
    }

    #[test]
    fn inflight_window_reports_honest_occupancy() {
        let mut w = InflightWindow::new();
        w.push(500);
        w.push(700);
        assert_eq!(w.len(), 2);
        assert_eq!(w.inflight_at(100), 2);
        assert_eq!(w.inflight_at(500), 1, "a passed completion is not in flight");
        assert_eq!(w.inflight_at(700), 0);
        // len() still counts un-popped entries; inflight_at() does not.
        assert_eq!(w.len(), 2);
    }

    #[test]
    fn backends_are_object_safe() {
        let mut backends: Vec<Box<dyn StorageBackend>> = vec![
            Box::new(MemBackend::new(512, 8)),
            Box::new(NoFtlBackend::new(NoFtl::new(NoFtlConfig::new(
                FlashGeometry::tiny(),
            )))),
        ];
        for b in backends.iter_mut() {
            let data = vec![3u8; b.page_size()];
            b.write_page(0, 0, &data).unwrap();
            let mut buf = vec![0u8; b.page_size()];
            b.read_page(0, 0, &mut buf).unwrap();
            assert_eq!(buf, data);
        }
    }
}

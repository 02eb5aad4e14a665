//! Background db-writers (page flushers).
//!
//! §3.2 of the paper: "Instead of having multiple db-writers, where each is
//! responsible for a subset of dirty pages from the whole address space, we
//! have assigned each db-writer to a certain physical region (i.e., set of
//! NAND chips)."  This module implements both schemes:
//!
//! * **Global** — dirty pages are dealt to the writers round-robin, so every
//!   writer ends up writing to every die and writers contend for chips;
//! * **DieWise** — each writer owns the regions assigned to it and only
//!   flushes pages that stripe to those regions, so writers never compete for
//!   a Flash chip.
//!
//! Each writer is modelled as a sequential actor that submits its dirty
//! pages as [`StorageBackend::write_pages`] runs straight out of the
//! buffer-pool arena (no per-page copy).  Under the legacy (per-page) I/O
//! model every run is one page, and the writer issues its next page only
//! after the previous one completed.  Under the *batched* model — a
//! capability of the Flash-aware (die-wise) configuration — a run is up to
//! [`FlusherConfig::batch_pages`] pages: the NoFTL backend turns it into one
//! multi-page program dispatch per die, so the dies the writer owns work in
//! parallel and each die pipelines data transfers with cell programs.  The
//! conventional global writers keep the per-page model: without the region
//! knowledge of §3.2 there is nothing to group a batch by, which is
//! precisely the asymmetry the paper exploits.
//!
//! A flush *cycle* starts all writers at the same virtual instant and ends
//! when the last one finishes — exactly the quantity that differs between
//! the two assignments in Figure 4.
//!
//! Batching is controlled by [`FlusherConfig::batch_pages`] (the
//! `NOFTL_BATCH` knob of [`crate::backend::StackConfig`]).  Batching off is a
//! batch size of 1: single-page runs through the same batch API.

use nand_flash::FlashResult;
use noftl_core::FlusherAssignment;
use serde::{Deserialize, Serialize};
use sim_utils::time::SimInstant;

use crate::backend::{InflightWindow, StorageBackend, DEFAULT_BATCH_PAGES};
use crate::buffer::BufferPool;
use crate::page::PageId;

/// Configuration of the db-writer subsystem.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct FlusherConfig {
    /// Number of background writers.
    pub writers: usize,
    /// Page-to-writer assignment policy.
    pub assignment: FlusherAssignment,
    /// Start a flush cycle when the dirty fraction of the pool exceeds this.
    pub dirty_high_watermark: f64,
    /// A flush cycle stops once the dirty fraction falls below this
    /// (flush-everything when 0.0).
    pub dirty_low_watermark: f64,
    /// Maximum pages per batched backend submission under the die-wise
    /// assignment, at least 1 (read it through [`FlusherConfig::run_pages`]).
    /// Defaults to [`DEFAULT_BATCH_PAGES`].  The engine's WAL batches by the
    /// same number, whatever the assignment.
    pub batch_pages: usize,
    /// Ablation: let the conventional **global** writers batch too (default
    /// off).  Off preserves the paper's Figure 4 asymmetry — global writers
    /// model the legacy per-page path; on quantifies how much of that gap
    /// NCQ-style batching alone closes without the writer-to-region
    /// association.
    pub batch_global: bool,
    /// Submissions each writer may keep in flight before gating on the
    /// oldest one's completion.  Depth 1 (the default) is the synchronous
    /// model — every submission waits for its predecessor — and is bit- and
    /// cycle-identical to the pre-async code.  Deeper windows let a writer's
    /// submissions, including ones from *different flush cycles*, pipeline
    /// on the device's per-die queues.
    pub async_depth: usize,
}

impl FlusherConfig {
    /// Conventional configuration: `writers` db-writers with global
    /// assignment, flushing at 50 % dirty, every `NOFTL_*` knob at its
    /// default ([`crate::backend::StackConfig::flushers`] is this under a
    /// given set of knobs).
    pub fn global(writers: usize) -> Self {
        Self {
            writers: writers.max(1),
            assignment: FlusherAssignment::Global,
            dirty_high_watermark: 0.5,
            dirty_low_watermark: 0.1,
            batch_pages: DEFAULT_BATCH_PAGES,
            batch_global: false,
            async_depth: 1,
        }
    }

    /// Flash-aware configuration: die-wise writer-to-region association.
    pub fn die_wise(writers: usize) -> Self {
        Self {
            assignment: FlusherAssignment::DieWise,
            ..Self::global(writers)
        }
    }

    /// Maximum pages per batched submission: [`FlusherConfig::batch_pages`],
    /// where batching off is a run of one page.
    pub fn run_pages(&self) -> usize {
        self.batch_pages.max(1)
    }

    /// Pages per batched submission actually in effect: batching requires
    /// the region knowledge of the die-wise assignment; the conventional
    /// global writers submit one page at a time unless the
    /// [`FlusherConfig::batch_global`] ablation is switched on.
    pub fn effective_batch_pages(&self) -> usize {
        match self.assignment {
            FlusherAssignment::Global if !self.batch_global => 1,
            _ => self.run_pages(),
        }
    }
}

/// Cumulative statistics of the db-writer subsystem.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct FlusherStats {
    /// Flush cycles executed.
    pub cycles: u64,
    /// Pages written out by the writers.
    pub pages_flushed: u64,
    /// `write_pages` submissions issued (one page each under the per-page
    /// model).
    pub batch_submissions: u64,
    /// Sum of cycle wall-clock durations (virtual ns).
    pub total_cycle_time: u64,
    /// Longest single cycle (virtual ns).
    pub max_cycle_time: u64,
}

/// Truthful accounting of the load-aware wave throttle: every
/// [`FlusherPool::throttled_wave`] probe with the throttle on lands in
/// exactly one of `throttled_waves` / `clear_waves`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ThrottleStats {
    /// Waves deferred because foreground queue occupancy was at or above
    /// the threshold.
    pub throttled_waves: u64,
    /// Waves allowed through (the device was quiet, or the dirty pool hit
    /// the emergency level where deferring would risk running out of clean
    /// frames).
    pub clear_waves: u64,
}

/// The db-writer pool.
#[derive(Debug)]
pub struct FlusherPool {
    config: FlusherConfig,
    stats: FlusherStats,
    /// Per-writer in-flight windows: completion times of submissions the
    /// writer has issued but not yet waited for.  Bounded by
    /// [`FlusherConfig::async_depth`]; persists across cycles so successive
    /// flush cycles overlap on the device under the asynchronous model.
    windows: Vec<InflightWindow>,
    /// Load-aware wave throttle: defer a flush wave while the backend has
    /// this many commands in flight (0 = off, the pinned legacy behaviour).
    /// Set by the engine from the `NOFTL_SLO` bundle — deliberately not a
    /// [`FlusherConfig`] field, whose exhaustive literals are pinned all
    /// over the test suite.
    throttle_occupancy: usize,
    throttle_stats: ThrottleStats,
    /// The cycle's dirty-page list and its per-writer partition, kept for
    /// their capacity between cycles.
    dirty: Vec<PageId>,
    batches: Vec<Vec<PageId>>,
}

impl FlusherPool {
    /// Create a pool from `config`.
    pub fn new(config: FlusherConfig) -> Self {
        Self {
            config,
            stats: FlusherStats::default(),
            windows: vec![InflightWindow::new(); config.writers.max(1)],
            throttle_occupancy: 0,
            throttle_stats: ThrottleStats::default(),
            dirty: Vec::new(),
            batches: Vec::new(),
        }
    }

    /// Current configuration.
    pub fn config(&self) -> FlusherConfig {
        self.config
    }

    /// Cumulative statistics.
    pub fn stats(&self) -> FlusherStats {
        self.stats
    }

    /// Submissions currently in flight across all writers.
    pub fn inflight(&self) -> usize {
        self.windows.iter().map(|w| w.len()).sum()
    }

    /// Barrier: the instant by which every in-flight submission of every
    /// writer has completed (at least `now`).  Clears the windows.  Under the
    /// synchronous model (depth 1) every submission was already waited for,
    /// so the barrier is `now` itself.
    pub fn drain(&mut self, now: SimInstant) -> SimInstant {
        let sync = self.config.async_depth.max(1) <= 1;
        let mut t = now;
        for w in &mut self.windows {
            let end = w.drain(now);
            if !sync {
                t = t.max(end);
            }
        }
        t
    }

    /// Whether a flush cycle should start given the pool's dirty fraction.
    pub fn should_flush(&self, pool: &BufferPool) -> bool {
        pool.dirty_fraction() >= self.config.dirty_high_watermark
    }

    /// Set the load-aware wave throttle, in in-flight backend commands
    /// (0 disables the throttle — the pinned legacy behaviour).
    pub fn set_throttle_occupancy(&mut self, occupancy: usize) {
        self.throttle_occupancy = occupancy;
    }

    /// Throttle counters.
    pub fn throttle_stats(&self) -> ThrottleStats {
        self.throttle_stats
    }

    /// Whether a due flush wave should be *deferred* because the foreground
    /// is busy: the backend has [`throttle_occupancy`](FlusherPool::set_throttle_occupancy)
    /// or more commands in flight as of `now`.  Two overrides keep the
    /// throttle safe: it is inert at occupancy 0 (the knob-off leg probes
    /// nothing and counts nothing), and a dirty pool at or past 1.5× the
    /// high watermark (capped at 95 %) always flushes — deferring at the
    /// emergency level would run the pool out of clean frames and stall the
    /// foreground worse than the wave it avoided.
    pub fn throttled_wave(
        &mut self,
        pool: &BufferPool,
        backend: &dyn StorageBackend,
        now: SimInstant,
    ) -> bool {
        if self.throttle_occupancy == 0 {
            return false;
        }
        let emergency = (self.config.dirty_high_watermark * 1.5).min(0.95);
        if pool.dirty_fraction() >= emergency {
            self.throttle_stats.clear_waves += 1;
            return false;
        }
        if backend.queue_occupancy(now) >= self.throttle_occupancy {
            self.throttle_stats.throttled_waves += 1;
            true
        } else {
            self.throttle_stats.clear_waves += 1;
            false
        }
    }

    /// Partition `dirty` pages among the writers according to the assignment
    /// policy. The outer index is the writer id.
    ///
    /// Under the global policy the dirty list is dealt out in (deterministic)
    /// hash order — the order a buffer-pool hash table hands pages to its
    /// cleaners — so every writer receives pages from the whole address space
    /// and therefore targets every die in an uncoordinated order (`dirty` is
    /// shuffled in place).  Under the die-wise policy each writer receives
    /// exactly the pages whose region it owns.
    pub fn partition(
        &mut self,
        backend: &dyn StorageBackend,
        dirty: &mut [PageId],
    ) -> &[Vec<PageId>] {
        let writers = self.config.writers;
        self.batches.resize_with(writers, Vec::new);
        for batch in &mut self.batches {
            batch.clear();
        }
        match self.config.assignment {
            FlusherAssignment::Global => {
                let mut rng = sim_utils::rng::SimRng::new(0x0F1D_5EED ^ dirty.len() as u64);
                rng.shuffle(dirty);
                for (i, &p) in dirty.iter().enumerate() {
                    self.batches[i % writers].push(p);
                }
            }
            FlusherAssignment::DieWise => {
                for &p in dirty.iter() {
                    let region = backend.region_of_page(p);
                    self.batches[region % writers].push(p);
                }
            }
        }
        &self.batches
    }

    /// Run one flush cycle starting at `now`: write out dirty pages until the
    /// pool's dirty fraction falls below the low watermark (or everything if
    /// the watermark is 0).
    ///
    /// Under the synchronous model (`async_depth` 1) every writer waits for
    /// each of its submissions and the returned instant is when the last
    /// writer *finished* — unchanged semantics.  Under the asynchronous model
    /// each writer keeps up to `async_depth` submissions in flight (the
    /// windows persist **across cycles**, so a later cycle's runs pipeline
    /// behind an earlier cycle's on the device queues) and the returned
    /// instant is when the last submission was *handed to the backend*; the
    /// caller observes completion with [`FlusherPool::drain`].  Cycle-time
    /// statistics are completion-based in both modes.
    pub fn run_cycle(
        &mut self,
        pool: &mut BufferPool,
        backend: &mut dyn StorageBackend,
        now: SimInstant,
    ) -> FlashResult<SimInstant> {
        let mut dirty = std::mem::take(&mut self.dirty);
        dirty.clear();
        dirty.extend(pool.dirty_pages());
        let end = if dirty.is_empty() {
            Ok(now)
        } else {
            // Flush enough pages to get back under the low watermark.
            let target_dirty =
                (self.config.dirty_low_watermark * pool.capacity() as f64).floor() as usize;
            let to_flush = dirty.len().saturating_sub(target_dirty).max(1);
            dirty.truncate(to_flush);
            self.partition(backend, &mut dirty);
            let batches = std::mem::take(&mut self.batches);
            let end = self.submit_batches(pool, backend, now, &batches);
            self.batches = batches;
            end
        };
        self.dirty = dirty;
        end
    }

    /// The submission half of [`FlusherPool::run_cycle`]: writer `i` writes
    /// out `batches[i]`.
    fn submit_batches(
        &mut self,
        pool: &mut BufferPool,
        backend: &mut dyn StorageBackend,
        now: SimInstant,
        batches: &[Vec<PageId>],
    ) -> FlashResult<SimInstant> {
        let run_pages = self.config.effective_batch_pages();
        let depth = self.config.async_depth.max(1);
        let mut cycle_end = now;
        let mut last_submit = now;
        for (writer, batch) in batches.iter().enumerate() {
            let window = &mut self.windows[writer];
            if depth <= 1 {
                // Synchronous semantics: no carry-over between cycles.
                window.clear();
            }
            // Submit runs of up to `run_pages` pages as one backend call,
            // borrowed straight out of the arena under pins.  The window
            // bounds how many runs are in flight (depth 1: each is issued at
            // the completion of the previous one); the backend overlaps the
            // dies *within* a run, the device queues pipeline runs *across*
            // submissions.
            for chunk in batch.chunks(run_pages) {
                let submit_at = window.gate(depth, now);
                let (submitted, written) = pool.with_pinned_pages(chunk, |run| {
                    (backend.write_pages(submit_at, run), run.len() as u64)
                });
                let end = submitted?;
                window.push(end);
                cycle_end = cycle_end.max(end);
                last_submit = last_submit.max(submit_at);
                for &page_id in chunk {
                    pool.mark_clean(page_id);
                }
                self.stats.pages_flushed += written;
                self.stats.batch_submissions += 1;
            }
        }
        let duration = cycle_end.saturating_sub(now);
        self.stats.cycles += 1;
        self.stats.total_cycle_time += duration;
        self.stats.max_cycle_time = self.stats.max_cycle_time.max(duration);
        if depth <= 1 {
            Ok(cycle_end)
        } else {
            Ok(last_submit)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::{MemBackend, NoFtlBackend, StorageBackend};
    use nand_flash::FlashGeometry;
    use noftl_core::{NoFtl, NoFtlConfig};

    #[test]
    fn partition_global_is_balanced_and_complete() {
        let backend = MemBackend::new(512, 64);
        let mut pool = FlusherPool::new(FlusherConfig::global(3));
        let dirty: Vec<PageId> = (0..10).collect();
        let batches = pool.partition(&backend, &mut dirty.clone());
        assert_eq!(batches.len(), 3);
        // Every dirty page is assigned to exactly one writer, batches are
        // within one page of each other in size.
        let mut all: Vec<PageId> = batches.iter().flatten().copied().collect();
        all.sort_unstable();
        assert_eq!(all, dirty);
        let sizes: Vec<usize> = batches.iter().map(|b| b.len()).collect();
        assert!(sizes.iter().max().unwrap() - sizes.iter().min().unwrap() <= 1);
    }

    #[test]
    fn partition_die_wise_respects_regions() {
        let noftl = NoFtl::new(NoFtlConfig::new(FlashGeometry::small())); // 4 regions
        let backend = NoFtlBackend::new(noftl);
        let mut flushers = FlusherPool::new(FlusherConfig::die_wise(2));
        let mut dirty: Vec<PageId> = (0..16).collect();
        let batches = flushers.partition(&backend, &mut dirty);
        // Writer 0 owns regions 0 and 2, writer 1 owns regions 1 and 3.
        for &p in &batches[0] {
            assert_eq!(backend.region_of_page(p) % 2, 0);
        }
        for &p in &batches[1] {
            assert_eq!(backend.region_of_page(p) % 2, 1);
        }
        assert_eq!(batches[0].len() + batches[1].len(), 16);
    }

    #[test]
    fn run_cycle_cleans_pages_and_persists_them() {
        let mut backend = MemBackend::new(512, 128);
        let mut pool = BufferPool::new(16, 512);
        for p in 0..8u64 {
            pool.new_page(&mut backend, 0, p, |d| d[0] = p as u8).unwrap();
        }
        let mut flushers = FlusherPool::new(FlusherConfig {
            writers: 2,
            assignment: FlusherAssignment::Global,
            dirty_high_watermark: 0.2,
            dirty_low_watermark: 0.0,
            batch_pages: 0,
            batch_global: false,
            async_depth: 1,
        });
        assert!(flushers.should_flush(&pool));
        flushers.run_cycle(&mut pool, &mut backend, 0).unwrap();
        assert_eq!(pool.dirty_count(), 0);
        assert_eq!(flushers.stats().pages_flushed, 8);
        assert_eq!(flushers.stats().cycles, 1);
        let mut buf = vec![0u8; 512];
        backend.read_page(0, 5, &mut buf).unwrap();
        assert_eq!(buf[0], 5);
    }

    #[test]
    fn die_wise_cycles_are_faster_on_flash() {
        // The Figure 4 mechanism in miniature: same dirty pages, same number
        // of writers, one cycle each; the die-wise association must finish at
        // least as fast as the global one (and usually faster) because writers
        // never queue behind each other on a die.
        let run = |assignment: FlusherAssignment| -> u64 {
            let geometry = FlashGeometry::with_dies(8, 1024, 32, 4096);
            let noftl = NoFtl::new(NoFtlConfig::new(geometry));
            let mut backend = NoFtlBackend::new(noftl);
            let mut pool = BufferPool::new(256, 4096);
            for p in 0..128u64 {
                pool.new_page(&mut backend, 0, p, |d| d[0] = p as u8).unwrap();
            }
            let mut flushers = FlusherPool::new(FlusherConfig {
                writers: 8,
                assignment,
                dirty_high_watermark: 0.1,
                dirty_low_watermark: 0.0,
                // Per-page model on both sides: this test reproduces the
                // paper's Figure 4 mechanism, which predates batching.
                batch_pages: 0,
                batch_global: false,
                async_depth: 1,
            });
            flushers.run_cycle(&mut pool, &mut backend, 0).unwrap()
        };
        let global = run(FlusherAssignment::Global);
        let die_wise = run(FlusherAssignment::DieWise);
        assert!(
            die_wise <= global,
            "die-wise cycle ({die_wise}) must not be slower than global ({global})"
        );
        assert!(
            (global as f64) / (die_wise as f64) > 1.1,
            "expected a visible speedup from die-wise association: global={global} die_wise={die_wise}"
        );
    }

    /// Build a NoFTL backend + pool with `dirty` freshly dirtied pages.
    fn noftl_fixture(dies: u32, dirty: u64) -> (BufferPool, NoFtlBackend) {
        let geometry = nand_flash::FlashGeometry::with_dies(dies, 1024, 32, 4096);
        let noftl = NoFtl::new(NoFtlConfig::new(geometry));
        let mut backend = NoFtlBackend::new(noftl);
        let mut pool = BufferPool::new(dirty.max(2) as usize * 2, 4096);
        for p in 0..dirty {
            pool.new_page(&mut backend, 0, p, |d| d[0] = p as u8).unwrap();
        }
        (pool, backend)
    }

    fn die_wise_cycle(batch_pages: usize, writers: usize, dies: u32, dirty: u64) -> (u64, FlusherStats) {
        let (mut pool, mut backend) = noftl_fixture(dies, dirty);
        let mut flushers = FlusherPool::new(FlusherConfig {
            writers,
            assignment: FlusherAssignment::DieWise,
            dirty_high_watermark: 0.1,
            dirty_low_watermark: 0.0,
            batch_pages,
            batch_global: false,
            async_depth: 1,
        });
        let end = flushers.run_cycle(&mut pool, &mut backend, 0).unwrap();
        assert_eq!(pool.dirty_count(), 0);
        (end, flushers.stats())
    }

    #[test]
    fn batching_off_is_a_batch_of_one() {
        // Batch size 0 runs as 1: the same cycle timing, one page per
        // submission.
        let (off, s_off) = die_wise_cycle(0, 2, 8, 64);
        let (one, s_one) = die_wise_cycle(1, 2, 8, 64);
        assert_eq!(off, one, "batch size 0 must run as batch size 1");
        assert_eq!(s_off.pages_flushed, s_one.pages_flushed);
        assert_eq!(s_off.batch_submissions, 64, "one page per submission");
        assert_eq!(s_one.batch_submissions, 64);
    }

    #[test]
    fn batched_cycle_beats_per_page_on_multi_die_pool() {
        // 8 dies x 8 dirty pages per die, 2 writers: the batched writers
        // overlap their dies and pipeline within each die; the per-page
        // writers wait for every single page.  The acceptance bar is 2x.
        let (per_page, _) = die_wise_cycle(0, 2, 8, 64);
        let (batched, stats) = die_wise_cycle(64, 2, 8, 64);
        assert!(stats.batch_submissions >= 2);
        assert!(
            per_page as f64 / batched as f64 >= 2.0,
            "expected >=2x at 8 pages/die: per_page={per_page} batched={batched}"
        );
    }

    #[test]
    fn batched_pages_land_with_correct_content() {
        let (mut pool, mut backend) = noftl_fixture(4, 32);
        let mut flushers = FlusherPool::new(FlusherConfig {
            writers: 2,
            assignment: FlusherAssignment::DieWise,
            dirty_high_watermark: 0.1,
            dirty_low_watermark: 0.0,
            batch_pages: 8,
            batch_global: false,
            async_depth: 1,
        });
        let end = flushers.run_cycle(&mut pool, &mut backend, 0).unwrap();
        assert_eq!(flushers.stats().pages_flushed, 32);
        let mut buf = vec![0u8; 4096];
        for p in 0..32u64 {
            backend.read_page(end, p, &mut buf).unwrap();
            assert_eq!(buf[0], p as u8, "page {p} content corrupted by batching");
        }
    }

    #[test]
    fn global_assignment_never_batches() {
        let (mut pool, mut backend) = noftl_fixture(4, 32);
        let mut flushers = FlusherPool::new(FlusherConfig {
            writers: 2,
            assignment: FlusherAssignment::Global,
            dirty_high_watermark: 0.1,
            dirty_low_watermark: 0.0,
            batch_pages: 64,
            batch_global: false,
            async_depth: 1,
        });
        assert_eq!(flushers.config().effective_batch_pages(), 1);
        flushers.run_cycle(&mut pool, &mut backend, 0).unwrap();
        let s = flushers.stats();
        assert_eq!(
            s.batch_submissions, s.pages_flushed,
            "one page per submission"
        );
        assert_eq!(backend.noftl().flash_stats().multi_page_dispatches, 0);
    }

    #[test]
    fn zero_low_watermark_flushes_everything() {
        let (mut pool, mut backend) = noftl_fixture(2, 16);
        let mut flushers = FlusherPool::new(FlusherConfig {
            writers: 2,
            assignment: FlusherAssignment::DieWise,
            dirty_high_watermark: 0.5,
            dirty_low_watermark: 0.0,
            batch_pages: 8,
            batch_global: false,
            async_depth: 1,
        });
        flushers.run_cycle(&mut pool, &mut backend, 0).unwrap();
        assert_eq!(pool.dirty_count(), 0, "low watermark 0.0 must drain the pool");
        assert_eq!(flushers.stats().pages_flushed, 16);
    }

    #[test]
    fn high_equal_low_watermark_still_makes_progress() {
        // high == low: should_flush fires at the threshold and the cycle must
        // flush at least one page (no livelock between the two watermarks).
        let (mut pool, mut backend) = noftl_fixture(2, 16);
        let mut flushers = FlusherPool::new(FlusherConfig {
            writers: 2,
            assignment: FlusherAssignment::DieWise,
            dirty_high_watermark: 0.5,
            dirty_low_watermark: 0.5,
            batch_pages: 4,
            batch_global: false,
            async_depth: 1,
        });
        assert!(flushers.should_flush(&pool));
        let before = pool.dirty_count();
        flushers.run_cycle(&mut pool, &mut backend, 0).unwrap();
        assert!(pool.dirty_count() < before, "cycle must flush at least one page");
        assert!(flushers.stats().pages_flushed >= 1);
    }

    #[test]
    fn writer_with_zero_dirty_pages_is_harmless() {
        // All dirty pages stripe to region 0 (lpn % regions == 0), so under
        // die-wise assignment with 2 writers, writer 1 owns a region with no
        // dirty pages at all.
        let geometry = nand_flash::FlashGeometry::with_dies(2, 256, 32, 4096);
        let noftl = NoFtl::new(NoFtlConfig::new(geometry));
        let mut backend = NoFtlBackend::new(noftl);
        let mut pool = BufferPool::new(32, 4096);
        for p in (0..32u64).step_by(2) {
            pool.new_page(&mut backend, 0, p, |d| d[0] = p as u8).unwrap();
        }
        for batch_pages in [0usize, 8] {
            let mut flushers = FlusherPool::new(FlusherConfig {
                writers: 2,
                assignment: FlusherAssignment::DieWise,
                dirty_high_watermark: 0.1,
                dirty_low_watermark: 0.0,
                batch_pages,
                batch_global: false,
                async_depth: 1,
            });
            let mut dirty: Vec<PageId> = pool.dirty_pages().collect();
            let batches = flushers.partition(&backend, &mut dirty);
            assert!(batches.iter().any(|b| b.is_empty()), "one writer must be idle");
            let end = flushers.run_cycle(&mut pool, &mut backend, 0).unwrap();
            if batch_pages == 0 {
                assert_eq!(flushers.stats().pages_flushed, 16);
                assert!(end > 0);
                // Re-dirty for the second configuration.
                for p in (0..32u64).step_by(2) {
                    pool.new_page(&mut backend, 0, p, |d| d[0] = p as u8).unwrap();
                }
            }
        }
        assert_eq!(pool.dirty_count(), 0);
    }

    /// Dirty `per_die` pages striping to each die in `dies_subset` (lpns are
    /// chosen so `lpn % total_dies` lands on the wanted die).
    fn dirty_subset(
        pool: &mut BufferPool,
        backend: &mut NoFtlBackend,
        total_dies: u64,
        dies_subset: std::ops::Range<u64>,
        per_die: u64,
    ) {
        for die in dies_subset {
            for i in 0..per_die {
                let lpn = die + i * total_dies;
                pool.new_page(backend, 0, lpn, |d| d[0] = lpn as u8).unwrap();
            }
        }
    }

    #[test]
    fn interleaved_async_cycles_overlap_on_the_device() {
        // Two flush cycles with complementary die skew: cycle 1 dirties dies
        // 0..4, cycle 2 dirties dies 4..8.  The synchronous driver waits for
        // cycle 1's completion barrier before starting cycle 2; the
        // asynchronous windows hand cycle 2 to the device while cycle 1 is
        // still programming, so the disjoint die sets overlap almost fully.
        let run = |async_depth: usize| -> u64 {
            let geometry = nand_flash::FlashGeometry::with_dies(8, 1024, 32, 4096);
            let noftl = NoFtl::new(NoFtlConfig::new(geometry));
            let mut backend = NoFtlBackend::new(noftl);
            backend.set_async_depth(async_depth);
            let mut pool = BufferPool::new(256, 4096);
            let mut flushers = FlusherPool::new(FlusherConfig {
                writers: 2,
                assignment: FlusherAssignment::DieWise,
                dirty_high_watermark: 0.1,
                dirty_low_watermark: 0.0,
                batch_pages: 64,
                batch_global: false,
                async_depth,
            });
            dirty_subset(&mut pool, &mut backend, 8, 0..4, 8);
            let t1 = flushers.run_cycle(&mut pool, &mut backend, 0).unwrap();
            dirty_subset(&mut pool, &mut backend, 8, 4..8, 8);
            let t2 = flushers.run_cycle(&mut pool, &mut backend, t1).unwrap();
            let end = flushers.drain(t2).max(backend.drain(t2));
            assert_eq!(pool.dirty_count(), 0);
            end
        };
        let sync = run(1);
        let asynchronous = run(8);
        assert!(
            sync as f64 / asynchronous as f64 >= 1.5,
            "complementary-skew cycles must overlap under async: sync={sync} async={asynchronous}"
        );
    }

    #[test]
    fn async_cycle_returns_submission_time_and_drain_completes() {
        let (mut pool, mut backend) = noftl_fixture(4, 32);
        backend.set_async_depth(4);
        let mut flushers = FlusherPool::new(FlusherConfig {
            writers: 2,
            assignment: FlusherAssignment::DieWise,
            dirty_high_watermark: 0.1,
            dirty_low_watermark: 0.0,
            batch_pages: 8,
            batch_global: false,
            async_depth: 4,
        });
        let submitted = flushers.run_cycle(&mut pool, &mut backend, 0).unwrap();
        assert!(flushers.inflight() > 0, "submissions stay in flight");
        let done = flushers.drain(submitted);
        assert!(
            done > submitted,
            "completion barrier ({done}) must lie beyond the submission time ({submitted})"
        );
        assert_eq!(flushers.inflight(), 0);
        assert_eq!(flushers.drain(done), done, "drained windows are empty");
        // Content is intact after the async cycle.
        let mut buf = vec![0u8; 4096];
        for p in 0..32u64 {
            backend.read_page(done, p, &mut buf).unwrap();
            assert_eq!(buf[0], p as u8);
        }
        // Cycle statistics stay completion-based (the cycle started at 0, so
        // its recorded duration is the completion barrier itself).
        assert!(flushers.stats().total_cycle_time >= done);
    }

    #[test]
    fn global_batching_ablation_quantifies_the_batching_share_of_the_gap() {
        // `batch_global` off (the default): global writers run the legacy
        // per-page model even with a batch size configured.  On: they batch,
        // quantifying how much of the Figure 4 gap NCQ-style batching alone
        // closes — without the writer-to-region association.
        let run = |assignment: FlusherAssignment, batch_global: bool| -> (u64, FlusherStats) {
            let (mut pool, mut backend) = noftl_fixture(8, 64);
            let mut flushers = FlusherPool::new(FlusherConfig {
                writers: 2,
                assignment,
                dirty_high_watermark: 0.1,
                dirty_low_watermark: 0.0,
                batch_pages: 64,
                batch_global,
                async_depth: 1,
            });
            let end = flushers.run_cycle(&mut pool, &mut backend, 0).unwrap();
            assert_eq!(pool.dirty_count(), 0);
            (end, flushers.stats())
        };
        let (global_legacy, s_legacy) = run(FlusherAssignment::Global, false);
        let (global_batched, s_batched) = run(FlusherAssignment::Global, true);
        let (die_wise, _) = run(FlusherAssignment::DieWise, false);
        assert_eq!(
            s_legacy.batch_submissions, s_legacy.pages_flushed,
            "ablation off keeps the per-page model: one page per submission"
        );
        assert!(s_batched.batch_submissions > 0, "ablation on must batch");
        assert!(
            global_batched < global_legacy,
            "batching alone must close part of the gap: legacy={global_legacy} batched={global_batched}"
        );
        assert!(
            die_wise < global_legacy,
            "the full Figure 4 gap stays visible: die_wise={die_wise} global={global_legacy}"
        );
    }

    #[test]
    fn empty_cycle_returns_now_unchanged() {
        let (mut pool, mut backend) = noftl_fixture(2, 0);
        let mut flushers = FlusherPool::new(FlusherConfig::die_wise(2));
        let end = flushers.run_cycle(&mut pool, &mut backend, 7777).unwrap();
        assert_eq!(end, 7777);
        assert_eq!(flushers.stats().cycles, 0);
    }

    #[test]
    fn wave_throttle_defers_on_busy_device_but_never_at_emergency_dirty() {
        let (mut pool, mut backend) = noftl_fixture(4, 8);
        backend.set_async_depth(4);
        let mut flushers = FlusherPool::new(FlusherConfig {
            writers: 2,
            assignment: FlusherAssignment::DieWise,
            dirty_high_watermark: 0.5,
            dirty_low_watermark: 0.0,
            batch_pages: 8,
            batch_global: false,
            async_depth: 4,
        });
        // Busy the device: a queued batch is in flight at submit time.
        let data = vec![9u8; backend.page_size()];
        let batch: Vec<(u64, &[u8])> = (100..108u64).map(|i| (i, data.as_slice())).collect();
        let horizon = backend.write_pages(0, &batch).unwrap();
        assert!(backend.queue_occupancy(0) >= 1);

        // Throttle off (the pinned leg): a busy device never defers and the
        // counters stay untouched.
        assert!(!flushers.throttled_wave(&pool, &backend, 0));
        assert_eq!(flushers.throttle_stats(), ThrottleStats::default());

        // Throttle on: the busy instant defers, the quiet instant clears.
        flushers.set_throttle_occupancy(1);
        assert!(flushers.throttled_wave(&pool, &backend, 0));
        assert!(!flushers.throttled_wave(&pool, &backend, horizon));
        let s = flushers.throttle_stats();
        assert_eq!(s.throttled_waves, 1);
        assert_eq!(s.clear_waves, 1);

        // Emergency override: past 1.5x the high watermark (here 0.75) the
        // wave always runs, busy device or not — 8 dirty pages in a pool of
        // at most 16 frames is not yet emergency, so dirty more.
        for p in 0..8u64 {
            pool.new_page(&mut backend, 0, 200 + p, |d| d[0] = p as u8).unwrap();
        }
        assert!(pool.dirty_fraction() >= 0.75, "fixture must reach emergency");
        let batch2: Vec<(u64, &[u8])> = (300..308u64).map(|i| (i, data.as_slice())).collect();
        backend.write_pages(horizon, &batch2).unwrap();
        assert!(backend.queue_occupancy(horizon) >= 1);
        assert!(!flushers.throttled_wave(&pool, &backend, horizon));
        assert_eq!(flushers.throttle_stats().clear_waves, 2);
    }

    #[test]
    fn stats_accumulate_over_cycles() {
        let mut backend = MemBackend::new(512, 64);
        let mut pool = BufferPool::new(8, 512);
        let mut flushers = FlusherPool::new(FlusherConfig::global(2));
        for cycle in 0..3u64 {
            for p in 0..4u64 {
                pool.new_page(&mut backend, 0, cycle * 4 + p, |d| d[0] = 1)
                    .unwrap();
            }
            flushers.run_cycle(&mut pool, &mut backend, 0).unwrap();
        }
        assert_eq!(flushers.stats().cycles, 3);
        assert_eq!(flushers.stats().pages_flushed, 12);
    }
}

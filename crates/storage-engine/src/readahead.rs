//! Streaming readahead for sequential access paths (heap scans, B+-tree
//! range reads).
//!
//! PR 4 gave the buffer pool a batched miss-fill path
//! ([`crate::buffer::BufferPool::prefetch`] → one multi-page read dispatch per die), but the
//! sequential consumers still filled the pool one frame at a time, so the
//! TPC-H-style scan workloads saw none of the read pipeline's win.  For a
//! scan the page run to fetch next is *known in advance* — the heap file owns
//! its page list, a B+-tree internal node names the leaf run covering the
//! query range — so the pipeline can be kept full: the transfer-cost lever
//! the red-blue pebble-game literature formalizes for I/O-bounded
//! computations.
//!
//! [`ScanPrefetcher`] maintains a sliding window of upcoming page ids and
//! issues [`ShardedBufferPool::prefetch`] batches *ahead of consumption*, so miss
//! fills overlap with record visits on the device's per-die command queues.
//! The window ramps adaptively: it starts small, doubles (up to a cap) after
//! a full window of consecutive useful prefetches, and halves when a
//! prefetched page was evicted before the scan reached it (pool pressure —
//! prefetching further ahead than the pool can hold is pure waste).
//!
//! The prefetcher is **inert** unless both settings are open: a window of 0
//! (`StackConfig::readahead_window` = 0) or a per-die queue depth of 1 (the
//! default) leaves every access on the frame-at-a-time path, bit- and
//! cycle-identical to the pre-readahead code — the equivalence suite pins
//! this.  At depth > 1 the issued batches pipeline on the pool's bounded
//! read window and the per-die device queues like every other read
//! submission.

use std::collections::VecDeque;

use nand_flash::FlashResult;
use sim_utils::time::SimInstant;

use crate::backend::StorageBackend;
use crate::shard::ShardedBufferPool;
use crate::page::PageId;

/// Smallest window the ramp starts from (and never shrinks below).
pub const MIN_READAHEAD_WINDOW: usize = 4;

/// Streaming readahead state for one scan.
///
/// A scan feeds the prefetcher its upcoming page ids ([`ScanPrefetcher::feed`]
/// — whole extents for a heap scan, the covering leaf run for a B+-tree range
/// read) and calls [`ScanPrefetcher::on_access`] immediately before touching
/// each page.  `on_access` keeps up to `window` fed pages in flight ahead of
/// the access cursor, consuming the plan as the scan advances.
#[derive(Debug)]
pub struct ScanPrefetcher {
    /// Whether readahead is active (window cap > 0 **and** async depth > 1).
    enabled: bool,
    /// Current window size (pages kept in flight ahead of consumption).
    window: usize,
    /// Ramp cap.
    cap: usize,
    /// Fed pages not yet issued to the pool.
    pending: VecDeque<PageId>,
    /// Issued pages not yet consumed, with the completion time of the batch
    /// that fetched them (a visit may not observe data before its fill
    /// completed).
    inflight: VecDeque<(PageId, SimInstant)>,
    /// Consecutive useful prefetches since the last ramp step.
    streak: usize,
}

impl ScanPrefetcher {
    /// Create a prefetcher with the given window cap for a pool running at
    /// `async_depth`.  A cap of 0 or a depth of 1 yields an inert prefetcher:
    /// every access stays on the frame-at-a-time path.
    pub fn new(window_cap: usize, async_depth: usize) -> Self {
        let enabled = window_cap > 0 && async_depth > 1;
        // Neither queue outgrows the cap on a heap scan: sized once here,
        // they never reallocate while the window ramps.
        let queue_cap = if enabled { window_cap } else { 0 };
        Self {
            enabled,
            window: MIN_READAHEAD_WINDOW.min(window_cap.max(1)),
            cap: window_cap,
            pending: VecDeque::with_capacity(queue_cap),
            inflight: VecDeque::with_capacity(queue_cap),
            streak: 0,
        }
    }

    /// An inert prefetcher (the frame-at-a-time path).
    pub fn disabled() -> Self {
        Self::new(0, 1)
    }

    /// Whether this prefetcher issues readahead at all.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Current window size.
    pub fn window(&self) -> usize {
        self.window
    }

    /// Append upcoming page ids to the plan, in visit order.
    pub fn feed(&mut self, pages: &[PageId]) {
        if self.enabled {
            self.pending.extend(pages.iter().copied());
        }
    }

    /// Feed from an extent the caller owns (a heap file's page list) without
    /// copying it whole: `extent[..fed]` is already in the plan; tops the
    /// un-issued plan up to one full window cap and returns the new `fed`.
    /// A top-up never takes more than a window, so called before every
    /// [`ScanPrefetcher::on_access`] this issues exactly the batches feeding
    /// the whole extent up front would.
    pub fn feed_ahead(&mut self, extent: &[PageId], fed: usize) -> usize {
        if !self.enabled {
            return extent.len();
        }
        let n = self.cap.saturating_sub(self.pending.len()).min(extent.len() - fed);
        self.feed(&extent[fed..fed + n]);
        fed + n
    }

    /// Whether `page` is already planned (pending or in flight) — used by the
    /// B+-tree leaf walk to keep the sibling window warm without re-feeding
    /// leaves the covering run already named.
    pub fn planned(&self, page: PageId) -> bool {
        self.pending.contains(&page) || self.inflight.iter().any(|&(p, _)| p == page)
    }

    /// Called immediately before the scan accesses `page`: tops the pipeline
    /// up to `window` pages ahead of the cursor, then consumes the plan entry
    /// for `page`.  Returns the advanced virtual time — at least the fill
    /// completion of the batch that fetched `page` (a record visit cannot
    /// observe data that has not arrived).  Inert when disabled: returns
    /// `now` untouched and performs no I/O.
    pub fn on_access(
        &mut self,
        pool: &mut ShardedBufferPool,
        backend: &mut dyn StorageBackend,
        now: SimInstant,
        page: PageId,
    ) -> FlashResult<SimInstant> {
        if !self.enabled {
            return Ok(now);
        }
        let mut t = now;
        // Top up first so the very first access of a scan is already part of
        // a batched fill; later calls issue the next batch while the current
        // one's pages are being consumed — that is the overlap.
        if self.inflight.len() < self.window && !self.pending.is_empty() {
            let take = (self.window - self.inflight.len()).min(self.pending.len());
            let batch = &self.pending.make_contiguous()[..take];
            pool.note_readahead_window(self.inflight.len() + take);
            let ready = pool.prefetch(backend, t, batch)?;
            self.inflight.extend(batch.iter().map(|&p| (p, ready)));
            self.pending.drain(..take);
        }
        // Consume the plan entry for `page`.
        if let Some(pos) = self.inflight.iter().position(|&(p, _)| p == page) {
            // Entries skipped over (a scan that jumped ahead) just retire.
            for _ in 0..pos {
                self.inflight.pop_front();
            }
            let (_, ready) = self.inflight.pop_front().expect("position was valid");
            t = t.max(ready);
            if pool.contains(page) {
                self.streak += 1;
                if self.streak >= self.window && self.window < self.cap {
                    // A full window of useful prefetches: ramp up.
                    self.window = (self.window * 2).min(self.cap);
                    self.streak = 0;
                }
            } else {
                // Prefetched but evicted before the scan arrived: the window
                // ran further ahead than the pool can hold — shrink.
                self.window = (self.window / 2).max(MIN_READAHEAD_WINDOW.min(self.cap));
                self.streak = 0;
            }
        } else if let Some(pos) = self.pending.iter().position(|&p| p == page) {
            // The consumer overtook the prefetcher: drop the stale prefix so
            // the pipeline re-anchors at the cursor.
            for _ in 0..=pos {
                self.pending.pop_front();
            }
            self.streak = 0;
        }
        Ok(t)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::MemBackend;

    fn setup(frames: usize) -> (ShardedBufferPool, MemBackend) {
        let mut pool = ShardedBufferPool::new(1, frames, 512);
        pool.set_async_depth(4);
        (pool, MemBackend::new(512, 4096))
    }

    #[test]
    fn disabled_prefetcher_is_inert() {
        let (mut pool, mut backend) = setup(8);
        for ra in [ScanPrefetcher::disabled(), ScanPrefetcher::new(0, 8), ScanPrefetcher::new(64, 1)] {
            let mut ra = ra;
            assert!(!ra.is_enabled());
            ra.feed(&[1, 2, 3]);
            let t = ra.on_access(&mut pool, &mut backend, 77, 1).unwrap();
            assert_eq!(t, 77);
            assert_eq!(backend.counters().host_reads, 0, "inert prefetcher must not read");
            assert!(!pool.contains(1));
        }
    }

    #[test]
    fn prefetches_ahead_and_consumes_in_order() {
        let (mut pool, mut backend) = setup(32);
        for p in 0..16u64 {
            backend.write_page(0, p, &vec![p as u8 + 1; 512]).unwrap();
        }
        let mut ra = ScanPrefetcher::new(8, 4);
        assert!(ra.is_enabled());
        let pages: Vec<u64> = (0..16).collect();
        ra.feed(&pages);
        let mut t = 0;
        for &p in &pages {
            t = ra.on_access(&mut pool, &mut backend, t, p).unwrap();
            // After on_access the page is resident: the visit is a pool hit.
            assert!(pool.contains(p), "page {p} must be prefetched before access");
            let (seen, _) = pool.with_page(&mut backend, t, p, |d| d[0]).unwrap();
            assert_eq!(seen, p as u8 + 1);
        }
        let ra_stats = pool.readahead_stats();
        assert_eq!(ra_stats.prefetch_issued, 16);
        assert_eq!(ra_stats.prefetch_useful, 16);
        assert_eq!(ra_stats.prefetch_wasted, 0);
        assert!(ra_stats.window_high_water >= MIN_READAHEAD_WINDOW);
    }

    #[test]
    fn window_ramps_up_on_useful_streaks() {
        let (mut pool, mut backend) = setup(128);
        for p in 0..64u64 {
            backend.write_page(0, p, &vec![1u8; 512]).unwrap();
        }
        let mut ra = ScanPrefetcher::new(32, 8);
        assert_eq!(ra.window(), MIN_READAHEAD_WINDOW);
        let pages: Vec<u64> = (0..64).collect();
        ra.feed(&pages);
        let mut t = 0;
        for &p in &pages {
            t = ra.on_access(&mut pool, &mut backend, t, p).unwrap();
        }
        assert_eq!(ra.window(), 32, "a clean streak must ramp the window to its cap");
        assert_eq!(pool.readahead_stats().window_high_water, 32);
    }

    #[test]
    fn window_shrinks_when_pool_pressure_evicts_prefetched_pages() {
        // A pool far smaller than the window: later batch fills evict earlier
        // prefetched pages before the scan reaches them.
        let (mut pool, mut backend) = setup(4);
        for p in 0..64u64 {
            backend.write_page(0, p, &vec![1u8; 512]).unwrap();
        }
        let mut ra = ScanPrefetcher::new(8, 8);
        // Force the widest window straight away: twice the pool capacity, so
        // top-up batches must evict unconsumed prefetched frames.
        ra.window = 8;
        let pages: Vec<u64> = (0..64).collect();
        ra.feed(&pages);
        let mut t = 0;
        for &p in &pages {
            t = ra.on_access(&mut pool, &mut backend, t, p).unwrap();
        }
        assert!(
            ra.window() < 8,
            "evictions of unconsumed prefetches must shrink the window (got {})",
            ra.window()
        );
        assert!(pool.readahead_stats().prefetch_wasted > 0);
    }

    #[test]
    fn consumer_overtaking_the_plan_reanchors() {
        let (mut pool, mut backend) = setup(16);
        for p in 0..16u64 {
            backend.write_page(0, p, &vec![1u8; 512]).unwrap();
        }
        let mut ra = ScanPrefetcher::new(4, 4);
        ra.feed(&(0..16).collect::<Vec<_>>());
        // Jump straight to page 10: the stale prefix of the plan is dropped
        // and the pipeline re-anchors behind the cursor.
        let t = ra.on_access(&mut pool, &mut backend, 0, 10).unwrap();
        let mut t = t;
        for p in 11..16u64 {
            t = ra.on_access(&mut pool, &mut backend, t, p).unwrap();
            assert!(pool.contains(p) || p > 10, "pipeline must continue past the jump");
        }
        assert!(!ra.planned(5), "the overtaken prefix must be gone");
    }

    #[test]
    fn planned_reports_pending_and_inflight() {
        let (mut pool, mut backend) = setup(16);
        for p in 0..8u64 {
            backend.write_page(0, p, &vec![1u8; 512]).unwrap();
        }
        let mut ra = ScanPrefetcher::new(4, 4);
        ra.feed(&[1, 2, 3, 4, 5, 6]);
        assert!(ra.planned(6));
        ra.on_access(&mut pool, &mut backend, 0, 1).unwrap();
        assert!(ra.planned(2), "issued-but-unconsumed pages stay planned");
        assert!(!ra.planned(1), "consumed pages leave the plan");
        assert!(!ra.planned(99));
    }
}

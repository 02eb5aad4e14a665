//! Buffer pool with clock eviction, dirty tracking and pin counts.
//!
//! The buffer manager is deliberately close to Shore-MT's in spirit: fixed
//! frame count, clock (second-chance) replacement, explicit dirty tracking so
//! the background db-writers ([`crate::flusher`]) can flush asynchronously,
//! and synchronous write-back only as a last resort when a victim frame is
//! dirty and no clean frame exists — the situation whose cost the Flash-aware
//! flusher assignment is designed to avoid.
//!
//! Hot-path data structures are flat: page bytes live in one contiguous
//! arena (`capacity * page_size`), the resident map is an open-addressing
//! integer table ([`sim_utils::intmap::IntMap`], no SipHash), and dirty state
//! is a bitmap plus an incremental counter so the flusher's
//! `dirty_count()` / `dirty_fraction()` ticks are O(1) instead of scanning
//! every frame.

use nand_flash::{FlashError, FlashResult};
use sim_utils::flatmap::FlatBitSet;
use sim_utils::intmap::IntMap;
use sim_utils::time::SimInstant;

use crate::backend::{InflightWindow, StorageBackend};
use crate::page::PageId;

/// Buffer pool statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BufferStats {
    /// Page requests served from the pool.
    pub hits: u64,
    /// Page requests that had to read from the backend.
    pub misses: u64,
    /// Frames reclaimed by the clock hand.
    pub evictions: u64,
    /// Evictions that had to write back a dirty page synchronously
    /// (foreground write stalls).
    pub dirty_evictions: u64,
    /// Pages written back by the background flushers.
    pub flushed_by_writers: u64,
}

/// Readahead statistics of the pool's prefetch path (the
/// [`crate::readahead::ScanPrefetcher`] feeds these).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReadaheadStats {
    /// Pages fetched from the backend by prefetch batches.
    pub prefetch_issued: u64,
    /// Prefetched pages later consumed by an access while still resident.
    pub prefetch_useful: u64,
    /// Prefetched pages evicted or discarded before any access — wasted
    /// device work the adaptive window exists to minimise.
    pub prefetch_wasted: u64,
    /// High-water mark of the readahead window size a scan reached.
    pub window_high_water: usize,
}

/// Frame metadata; page bytes live in the pool's arena.
#[derive(Debug)]
struct Frame {
    page_id: PageId,
    dirty: bool,
    pins: u32,
    referenced: bool,
    /// Filled by a prefetch batch and not yet consumed by an access — the
    /// marker behind the useful/wasted readahead accounting.
    prefetched: bool,
}

/// Sentinel page id marking a frame that holds no page.
const NO_PAGE: PageId = u64::MAX;

/// Unpins a frame when dropped, so a panicking access closure cannot leak a
/// pin and wedge the clock hand forever.
struct PinGuard<'a> {
    pins: &'a mut u32,
}

impl<'a> PinGuard<'a> {
    fn new(pins: &'a mut u32) -> Self {
        *pins += 1;
        Self { pins }
    }
}

impl Drop for PinGuard<'_> {
    fn drop(&mut self) {
        *self.pins -= 1;
    }
}

/// A fixed-capacity buffer pool of database pages.
pub struct BufferPool {
    capacity: usize,
    page_size: usize,
    frames: Vec<Frame>,
    /// One contiguous allocation holding every frame's bytes.
    arena: Vec<u8>,
    /// PageId → frame index.
    map: IntMap,
    /// Frame-indexed dirty bitmap; its population count is `dirty_count()`.
    dirty: FlatBitSet,
    clock_hand: usize,
    stats: BufferStats,
    readahead: ReadaheadStats,
    /// Miss-fill submissions kept in flight before gating on the oldest
    /// completion (1 = the synchronous model: every fill is waited for
    /// inline, bit- and cycle-identical to the pre-async code).
    async_depth: usize,
    /// In-flight miss-fill reads — the pool's [`InflightWindow`]; under async,
    /// point-read fills pipeline here while the flushers' write windows
    /// pipeline next to them on the same per-die device queues.
    read_window: InflightWindow,
    /// Virtual CPU nanoseconds charged per buffer hit (0 = hits are free).
    hit_ns: u64,
    /// Scratch lists of [`BufferPool::prefetch`] and
    /// [`BufferPool::with_pinned_pages`], kept for their capacity: a
    /// streaming scan tops its window up one page at a time, and rebuilding
    /// them per call was four allocations per page.
    scratch: PoolScratch,
}

/// Reused working lists (always left empty between calls).
#[derive(Default)]
struct PoolScratch {
    /// Frames of requested pages that were already resident (pinned).
    resident: Vec<usize>,
    /// `(frame, page)` claimed for the batch's misses, in request order.
    claimed: Vec<(usize, PageId)>,
    /// `claimed` in frame order (the arena is carved front to back).
    sorted: Vec<(usize, PageId)>,
    /// `(page, frame)` of the resident pages of a pinned run.
    pinned: Vec<(PageId, usize)>,
}

impl BufferPool {
    /// Create a pool of `capacity` frames of `page_size` bytes.
    pub fn new(capacity: usize, page_size: usize) -> Self {
        assert!(capacity >= 2, "buffer pool needs at least two frames");
        Self {
            capacity,
            page_size,
            frames: Vec::with_capacity(capacity),
            arena: Vec::new(),
            map: IntMap::with_capacity(capacity),
            dirty: FlatBitSet::with_index_capacity(capacity),
            clock_hand: 0,
            stats: BufferStats::default(),
            readahead: ReadaheadStats::default(),
            async_depth: 1,
            read_window: InflightWindow::new(),
            hit_ns: 0,
            scratch: PoolScratch::default(),
        }
    }

    /// Set the number of miss-fill read submissions the pool keeps in flight
    /// (clamped to at least 1; 1 restores the synchronous model).
    pub fn set_async_depth(&mut self, depth: usize) {
        self.async_depth = depth.max(1);
    }

    /// Charge `ns` of virtual CPU time per buffer hit (default 0: hits are
    /// free, the historical model).  A non-zero cost keeps a fully cached
    /// client's virtual clock advancing, so multi-client interleavings don't
    /// degenerate into zero-duration bursts of free hits.
    pub fn set_hit_cost_ns(&mut self, ns: u64) {
        self.hit_ns = ns;
    }

    /// The pool's asynchronous miss-fill depth (1 = synchronous).
    pub fn async_depth(&self) -> usize {
        self.async_depth
    }

    /// Miss-fill reads currently in flight.
    pub fn inflight_reads(&self) -> usize {
        self.read_window.len()
    }

    /// Barrier: the instant by which every in-flight miss-fill read has
    /// completed (at least `now`).  Clears the window.  Under the synchronous
    /// model the window is empty (every fill was already waited for), so the
    /// barrier is `now`; entries left over from a deeper setting are still
    /// honoured.
    pub fn drain_reads(&mut self, now: SimInstant) -> SimInstant {
        self.read_window.drain(now)
    }

    /// Number of frames.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Page size in bytes.
    pub fn page_size(&self) -> usize {
        self.page_size
    }

    /// Pool statistics.
    pub fn stats(&self) -> BufferStats {
        self.stats
    }

    /// Readahead statistics (prefetch issued/useful/wasted, window mark).
    pub fn readahead_stats(&self) -> ReadaheadStats {
        self.readahead
    }

    /// Record the readahead window size a scan is running at (keeps the
    /// high-water mark).
    pub fn note_readahead_window(&mut self, window: usize) {
        self.readahead.window_high_water = self.readahead.window_high_water.max(window);
    }

    /// Consume a frame's prefetched marker as *useful* (an access reached the
    /// page while it was still resident).
    #[inline]
    fn consume_prefetched(&mut self, frame: usize) {
        if self.frames[frame].prefetched {
            self.frames[frame].prefetched = false;
            self.readahead.prefetch_useful += 1;
        }
    }

    /// Retire a frame's prefetched marker as *wasted* (the frame is being
    /// evicted or discarded before any access consumed it).
    #[inline]
    fn waste_prefetched(&mut self, frame: usize) {
        if self.frames[frame].prefetched {
            self.frames[frame].prefetched = false;
            self.readahead.prefetch_wasted += 1;
        }
    }

    /// Number of resident pages.
    pub fn resident(&self) -> usize {
        self.map.len()
    }

    /// Number of dirty resident pages — O(1), maintained incrementally.
    pub fn dirty_count(&self) -> usize {
        self.dirty.len()
    }

    /// Fraction of frames that are dirty — O(1).
    pub fn dirty_fraction(&self) -> f64 {
        self.dirty_count() as f64 / self.capacity as f64
    }

    /// Page ids of all dirty resident pages (bitmap walk, skips clean words).
    pub fn dirty_pages(&self) -> impl Iterator<Item = PageId> + '_ {
        self.dirty.iter().map(|i| self.frames[i as usize].page_id)
    }

    /// Whether `page_id` is resident.
    pub fn contains(&self, page_id: PageId) -> bool {
        self.map.contains_key(page_id)
    }

    /// Whether `page_id` is resident and dirty.
    pub fn is_dirty(&self, page_id: PageId) -> bool {
        self.map
            .get(page_id)
            .map(|i| self.frames[i as usize].dirty)
            .unwrap_or(false)
    }

    #[inline]
    fn data_mut(&mut self, frame: usize) -> &mut [u8] {
        &mut self.arena[frame * self.page_size..(frame + 1) * self.page_size]
    }

    #[inline]
    fn set_dirty(&mut self, frame: usize) {
        if !self.frames[frame].dirty {
            self.frames[frame].dirty = true;
            self.dirty.insert(frame as u64);
        }
    }

    #[inline]
    fn set_clean(&mut self, frame: usize) {
        if self.frames[frame].dirty {
            self.frames[frame].dirty = false;
            self.dirty.remove(frame as u64);
        }
    }

    /// Pin every resident page of `ids`, hand `f` the `(page_id, bytes)` run
    /// in `ids` order (non-resident ids are skipped) borrowed straight from
    /// the arena, then unpin — even if `f` panics.  This is what lets the
    /// flushers submit their runs to the backend with no per-page copy; a
    /// run of one page (every per-page flush) is built on the stack.
    pub fn with_pinned_pages<R>(
        &mut self,
        ids: &[PageId],
        f: impl FnOnce(&[(PageId, &[u8])]) -> R,
    ) -> R {
        let mut resident = std::mem::take(&mut self.scratch.pinned);
        resident.extend(
            ids.iter()
                .filter_map(|&p| self.map.get(p).map(|i| (p, i as usize))),
        );
        struct UnpinGuard<'a> {
            frames: &'a mut Vec<Frame>,
            pinned: &'a [(PageId, usize)],
        }
        impl Drop for UnpinGuard<'_> {
            fn drop(&mut self) {
                for &(_, i) in self.pinned {
                    self.frames[i].pins -= 1;
                }
            }
        }
        let page_size = self.page_size;
        let (frames, arena) = (&mut self.frames, &self.arena);
        for &(_, i) in &resident {
            frames[i].pins += 1;
        }
        let r = {
            let _guard = UnpinGuard {
                frames,
                pinned: &resident,
            };
            let page = |&(p, i): &(PageId, usize)| (p, &arena[i * page_size..(i + 1) * page_size]);
            match resident.as_slice() {
                [one] => f(&[page(one)]),
                // The run borrows the arena, so it cannot live in the scratch.
                run => f(&run.iter().map(page).collect::<Vec<_>>()),
            }
        };
        resident.clear();
        self.scratch.pinned = resident;
        r
    }

    /// Mark a resident page clean (after a flusher wrote it out).
    pub fn mark_clean(&mut self, page_id: PageId) {
        if let Some(i) = self.map.get(page_id) {
            if self.frames[i as usize].dirty {
                self.set_clean(i as usize);
                self.stats.flushed_by_writers += 1;
            }
        }
    }

    /// Find a victim frame index using the clock algorithm. Pinned frames are
    /// never chosen. Returns `None` when every frame is pinned.
    ///
    /// Prefetched-but-unconsumed frames are protected in a first pass: the
    /// clock hand skips them (without clearing their reference bit) so a small
    /// pool running a wide readahead window does not evict pages it just paid
    /// device time to fill before the scan reaches them.  Only when the first
    /// pass finds nothing evictable does a second pass treat prefetched frames
    /// like any other — pressure still wins, and the eviction is accounted as
    /// wasted readahead by the caller via `waste_prefetched`.
    fn find_victim(&mut self) -> Option<usize> {
        if self.frames.len() < self.capacity {
            // Grow: fresh frame slot (arena extends by one page).
            self.frames.push(Frame {
                page_id: NO_PAGE,
                dirty: false,
                pins: 0,
                referenced: false,
                prefetched: false,
            });
            self.arena.resize(self.frames.len() * self.page_size, 0);
            return Some(self.frames.len() - 1);
        }
        for _ in 0..(2 * self.capacity) {
            let i = self.clock_hand;
            self.clock_hand = (self.clock_hand + 1) % self.capacity;
            let frame = &mut self.frames[i];
            if frame.pins > 0 {
                continue;
            }
            if frame.prefetched {
                continue;
            }
            if frame.referenced {
                frame.referenced = false;
                continue;
            }
            return Some(i);
        }
        for _ in 0..(2 * self.capacity) {
            let i = self.clock_hand;
            self.clock_hand = (self.clock_hand + 1) % self.capacity;
            let frame = &mut self.frames[i];
            if frame.pins > 0 {
                continue;
            }
            if frame.referenced {
                frame.referenced = false;
                continue;
            }
            return Some(i);
        }
        None
    }

    /// Ensure `page_id` is resident, reading it from `backend` on a miss.
    /// Returns the frame index and the virtual time after any I/O.  When
    /// `read_from_backend` is false the frame content is zeroed — including
    /// on the hit path, so `new_page` on an already-resident page hands out a
    /// fresh frame rather than the stale bytes.
    fn fetch(
        &mut self,
        backend: &mut dyn StorageBackend,
        now: SimInstant,
        page_id: PageId,
        read_from_backend: bool,
    ) -> FlashResult<(usize, SimInstant)> {
        if let Some(i) = self.map.get(page_id) {
            let i = i as usize;
            self.frames[i].referenced = true;
            self.stats.hits += 1;
            self.consume_prefetched(i);
            if !read_from_backend {
                self.data_mut(i).fill(0);
                self.set_dirty(i);
            }
            return Ok((i, now + self.hit_ns));
        }
        self.stats.misses += 1;
        let mut t = now;
        let victim = self.find_victim().ok_or(FlashError::OutOfSpareBlocks)?;
        // Write back a dirty victim synchronously (foreground stall).
        if self.frames[victim].page_id != NO_PAGE {
            if self.frames[victim].dirty {
                let old_id = self.frames[victim].page_id;
                let range = victim * self.page_size..(victim + 1) * self.page_size;
                let c = backend.write_page(t, old_id, &self.arena[range])?;
                t = t.max(c.completed_at);
                self.set_clean(victim);
                self.stats.dirty_evictions += 1;
            }
            self.map.remove(self.frames[victim].page_id);
            self.waste_prefetched(victim);
            // Detach the frame *before* the fallible backend read below: if
            // the read errors out, a frame still carrying the old page_id
            // (with no map entry) would later poison the map when this frame
            // is victimized again — removing another frame's live mapping.
            self.frames[victim].page_id = NO_PAGE;
            self.stats.evictions += 1;
        }
        // Load the new page.  Under async (depth > 1) the fill is gated only
        // by the pool's bounded read window — not chained on anything else —
        // and its completion is recorded in the pool's read window; the
        // device-side queues are what make it honestly wait its turn behind
        // in-flight flush traffic on the same die.
        if read_from_backend {
            let range = victim * self.page_size..(victim + 1) * self.page_size;
            let submit_at = if self.async_depth > 1 {
                self.read_window.gate(self.async_depth, t)
            } else {
                t
            };
            let c = backend.read_page(submit_at, page_id, &mut self.arena[range])?;
            if self.async_depth > 1 {
                self.read_window.push(c.completed_at);
            }
            t = t.max(c.completed_at);
        } else {
            self.data_mut(victim).fill(0);
        }
        self.frames[victim].page_id = page_id;
        self.set_clean(victim);
        self.frames[victim].referenced = true;
        self.frames[victim].pins = 0;
        self.map.insert(page_id, victim as u64);
        if !read_from_backend {
            // A fresh (zeroed) page is dirty from the moment it exists, even
            // if the caller's init closure later panics: a clean all-zero
            // frame would silently shadow the backend's copy.
            self.set_dirty(victim);
        }
        Ok((victim, t))
    }

    /// Read-access a page through a closure. Returns the closure result and
    /// the virtual time after any backend I/O.  The frame stays pinned for
    /// exactly the closure's duration, even if it panics.
    pub fn with_page<R>(
        &mut self,
        backend: &mut dyn StorageBackend,
        now: SimInstant,
        page_id: PageId,
        f: impl FnOnce(&[u8]) -> R,
    ) -> FlashResult<(R, SimInstant)> {
        let (i, t) = self.fetch(backend, now, page_id, true)?;
        let _pin = PinGuard::new(&mut self.frames[i].pins);
        let r = f(&self.arena[i * self.page_size..(i + 1) * self.page_size]);
        Ok((r, t))
    }

    /// Write-access a page through a closure (marks it dirty).  The dirty
    /// bit is set *before* the closure runs: a panicking closure may already
    /// have mutated the frame, and mutated-but-clean bytes would silently
    /// revert to the backend copy on eviction.
    pub fn with_page_mut<R>(
        &mut self,
        backend: &mut dyn StorageBackend,
        now: SimInstant,
        page_id: PageId,
        f: impl FnOnce(&mut [u8]) -> R,
    ) -> FlashResult<(R, SimInstant)> {
        let (i, t) = self.fetch(backend, now, page_id, true)?;
        self.set_dirty(i);
        let r = {
            let _pin = PinGuard::new(&mut self.frames[i].pins);
            f(&mut self.arena[i * self.page_size..(i + 1) * self.page_size])
        };
        Ok((r, t))
    }

    /// Create/overwrite a page in the pool *without* reading it from the
    /// backend first (freshly allocated pages).  The frame is zeroed even if
    /// an old version of the page was resident, and is marked dirty by
    /// `fetch` before the closure runs (panic-consistent on both paths).
    pub fn new_page<R>(
        &mut self,
        backend: &mut dyn StorageBackend,
        now: SimInstant,
        page_id: PageId,
        f: impl FnOnce(&mut [u8]) -> R,
    ) -> FlashResult<(R, SimInstant)> {
        let (i, t) = self.fetch(backend, now, page_id, false)?;
        let r = {
            let _pin = PinGuard::new(&mut self.frames[i].pins);
            f(&mut self.arena[i * self.page_size..(i + 1) * self.page_size])
        };
        Ok((r, t))
    }

    /// Make the pages of `ids` resident with **one** batched backend read
    /// submission for all the misses ([`StorageBackend::read_pages`]): the
    /// NoFTL backend turns the run into one multi-page read dispatch per die,
    /// so a scan's or a point-read burst's fills overlap across dies instead
    /// of chaining on each other.  Dirty victims are written back
    /// synchronously, exactly as a per-page miss would.  Already-resident
    /// requested pages are pinned for the duration of the call, so a later
    /// miss in the same batch can never evict them.
    ///
    /// Prefetching is best-effort on capacity: when the misses outnumber the
    /// evictable frames, the overflow is simply left to on-demand fills (the
    /// pool stays consistent and the call still succeeds).  On a backend
    /// error no claimed frame keeps a partial fill (the frames are left
    /// empty and re-claimable).  Returns the virtual time when every page
    /// this call made resident is usable.
    pub fn prefetch(
        &mut self,
        backend: &mut dyn StorageBackend,
        now: SimInstant,
        ids: &[PageId],
    ) -> FlashResult<SimInstant> {
        let mut scratch = std::mem::take(&mut self.scratch);
        let result = self.prefetch_with(backend, now, ids, &mut scratch);
        scratch.resident.clear();
        scratch.claimed.clear();
        scratch.sorted.clear();
        self.scratch = scratch;
        result
    }

    /// [`BufferPool::prefetch`] over the (empty) working lists of `scratch`.
    fn prefetch_with(
        &mut self,
        backend: &mut dyn StorageBackend,
        now: SimInstant,
        ids: &[PageId],
        scratch: &mut PoolScratch,
    ) -> FlashResult<SimInstant> {
        let PoolScratch {
            resident,
            claimed,
            sorted,
            ..
        } = scratch;
        let mut t = now;
        // Pin the requested pages that are already resident: they must
        // survive the batch's own evictions.
        for &page_id in ids {
            if let Some(i) = self.map.get(page_id) {
                let i = i as usize;
                // A requested resident page is a pool hit, exactly as the
                // per-page access path would count it.
                self.stats.hits += 1;
                self.consume_prefetched(i);
                if !resident.contains(&i) {
                    self.frames[i].pins += 1;
                    self.frames[i].referenced = true;
                    resident.push(i);
                }
            }
        }
        let mut result: FlashResult<()> = Ok(());
        for &page_id in ids {
            if self.map.contains_key(page_id) || claimed.iter().any(|&(_, p)| p == page_id) {
                continue;
            }
            let Some(victim) = self.find_victim() else {
                // Out of evictable frames: leave the rest to on-demand fills.
                break;
            };
            self.stats.misses += 1;
            if self.frames[victim].page_id != NO_PAGE {
                if self.frames[victim].dirty {
                    let old_id = self.frames[victim].page_id;
                    let range = victim * self.page_size..(victim + 1) * self.page_size;
                    match backend.write_page(t, old_id, &self.arena[range]) {
                        Ok(c) => {
                            t = t.max(c.completed_at);
                            self.set_clean(victim);
                            self.stats.dirty_evictions += 1;
                        }
                        Err(e) => {
                            result = Err(e);
                            break;
                        }
                    }
                }
                self.map.remove(self.frames[victim].page_id);
                self.waste_prefetched(victim);
                self.frames[victim].page_id = NO_PAGE;
                self.stats.evictions += 1;
            }
            // Guard the claimed frame against being victimized again while
            // the rest of the batch claims its frames.
            self.frames[victim].pins += 1;
            claimed.push((victim, page_id));
        }
        if result.is_ok() && !claimed.is_empty() {
            let submit_at = if self.async_depth > 1 {
                self.read_window.gate(self.async_depth, t)
            } else {
                t
            };
            let ps = self.page_size;
            let filled = if let [(frame, page_id)] = claimed[..] {
                // One claimed page — every top-up of a streaming scan: the
                // request list borrows the arena and so cannot be kept, but
                // a list of one fits on the stack.
                let page = &mut self.arena[frame * ps..(frame + 1) * ps];
                backend.read_pages(submit_at, &mut [(page_id, page)])
            } else {
                // Carve disjoint arena slices for the batched fill.
                sorted.extend_from_slice(claimed);
                sorted.sort_unstable_by_key(|&(f, _)| f);
                let mut reqs: Vec<(PageId, &mut [u8])> = Vec::with_capacity(sorted.len());
                let mut rest: &mut [u8] = &mut self.arena[..];
                let mut base = 0usize;
                for &(frame, page_id) in sorted.iter() {
                    let (_, tail) = rest.split_at_mut(frame * ps - base);
                    let (page, tail) = tail.split_at_mut(ps);
                    reqs.push((page_id, page));
                    rest = tail;
                    base = (frame + 1) * ps;
                }
                backend.read_pages(submit_at, &mut reqs)
            };
            match filled {
                Ok(end) => {
                    if self.async_depth > 1 {
                        self.read_window.push(end);
                    }
                    t = t.max(end);
                }
                Err(e) => result = Err(e),
            }
        }
        for &(frame, page_id) in claimed.iter() {
            self.frames[frame].pins -= 1;
            self.frames[frame].referenced = true;
            if result.is_ok() {
                self.frames[frame].page_id = page_id;
                self.frames[frame].prefetched = true;
                self.readahead.prefetch_issued += 1;
                self.set_clean(frame);
                self.map.insert(page_id, frame as u64);
            }
        }
        for &i in resident.iter() {
            self.frames[i].pins -= 1;
        }
        result.map(|_| t)
    }

    /// Pin a resident page (prevents eviction). Returns `false` if the page
    /// is not resident.
    pub fn pin(&mut self, page_id: PageId) -> bool {
        if let Some(i) = self.map.get(page_id) {
            self.frames[i as usize].pins += 1;
            true
        } else {
            false
        }
    }

    /// Unpin a resident page.
    pub fn unpin(&mut self, page_id: PageId) {
        if let Some(i) = self.map.get(page_id) {
            let frame = &mut self.frames[i as usize];
            frame.pins = frame.pins.saturating_sub(1);
        }
    }

    /// Drop a page from the pool without writing it back (used when the page
    /// was freed by the free-space manager — its content is dead anyway).
    pub fn discard(&mut self, page_id: PageId) {
        if let Some(i) = self.map.remove(page_id) {
            let i = i as usize;
            self.set_clean(i);
            self.waste_prefetched(i);
            self.frames[i].page_id = NO_PAGE;
            self.frames[i].pins = 0;
            self.frames[i].referenced = false;
        }
    }

    /// Write every dirty page back to the backend (checkpoint / shutdown).
    /// Returns the time after all writes complete.
    pub fn flush_all(
        &mut self,
        backend: &mut dyn StorageBackend,
        now: SimInstant,
    ) -> FlashResult<SimInstant> {
        let mut t = now;
        let dirty: Vec<usize> = self.dirty.iter().map(|i| i as usize).collect();
        for i in dirty {
            let page_id = self.frames[i].page_id;
            let range = i * self.page_size..(i + 1) * self.page_size;
            let c = backend.write_page(t, page_id, &self.arena[range])?;
            t = t.max(c.completed_at);
            self.set_clean(i);
        }
        Ok(t)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::MemBackend;

    fn setup(frames: usize) -> (BufferPool, MemBackend) {
        (BufferPool::new(frames, 512), MemBackend::new(512, 256))
    }

    #[test]
    fn miss_then_hit() {
        let (mut pool, mut backend) = setup(4);
        backend.write_page(0, 7, &vec![9u8; 512]).unwrap();
        let (first, _) = pool
            .with_page(&mut backend, 0, 7, |d| d[0])
            .unwrap();
        assert_eq!(first, 9);
        assert_eq!(pool.stats().misses, 1);
        let (second, _) = pool.with_page(&mut backend, 0, 7, |d| d[0]).unwrap();
        assert_eq!(second, 9);
        assert_eq!(pool.stats().hits, 1);
    }

    #[test]
    fn writes_mark_dirty_and_flush_all_persists() {
        let (mut pool, mut backend) = setup(4);
        pool.new_page(&mut backend, 0, 3, |d| d[0] = 0xAB).unwrap();
        assert!(pool.is_dirty(3));
        assert_eq!(pool.dirty_count(), 1);
        pool.flush_all(&mut backend, 0).unwrap();
        assert!(!pool.is_dirty(3));
        let mut buf = vec![0u8; 512];
        backend.read_page(0, 3, &mut buf).unwrap();
        assert_eq!(buf[0], 0xAB);
    }

    #[test]
    fn eviction_writes_back_dirty_victims() {
        let (mut pool, mut backend) = setup(2);
        pool.new_page(&mut backend, 0, 1, |d| d[0] = 1).unwrap();
        pool.new_page(&mut backend, 0, 2, |d| d[0] = 2).unwrap();
        // Touching a third page forces an eviction of a dirty frame.
        pool.new_page(&mut backend, 0, 3, |d| d[0] = 3).unwrap();
        assert!(pool.stats().dirty_evictions >= 1);
        // The evicted page's content must be durable.
        let evicted: Vec<u64> = [1u64, 2]
            .iter()
            .copied()
            .filter(|p| !pool.contains(*p))
            .collect();
        assert_eq!(evicted.len(), 1);
        let mut buf = vec![0u8; 512];
        backend.read_page(0, evicted[0], &mut buf).unwrap();
        assert_eq!(buf[0], evicted[0] as u8);
    }

    #[test]
    fn pinned_pages_are_never_evicted() {
        let (mut pool, mut backend) = setup(2);
        pool.new_page(&mut backend, 0, 1, |d| d[0] = 1).unwrap();
        pool.new_page(&mut backend, 0, 2, |d| d[0] = 2).unwrap();
        assert!(pool.pin(1));
        assert!(pool.pin(2));
        // No frame can be evicted: the fetch must fail rather than evict.
        assert!(pool.with_page(&mut backend, 0, 3, |_| ()).is_err());
        pool.unpin(1);
        assert!(pool.with_page(&mut backend, 0, 3, |_| ()).is_ok());
        assert!(pool.contains(2), "pinned page must survive");
    }

    #[test]
    fn mark_clean_tracks_flusher_writes() {
        let (mut pool, mut backend) = setup(4);
        pool.new_page(&mut backend, 0, 5, |d| d[0] = 5).unwrap();
        assert_eq!(pool.dirty_pages().collect::<Vec<_>>(), vec![5]);
        pool.mark_clean(5);
        assert_eq!(pool.dirty_count(), 0);
        assert_eq!(pool.stats().flushed_by_writers, 1);
        // Marking an already-clean page again does not double count.
        pool.mark_clean(5);
        assert_eq!(pool.stats().flushed_by_writers, 1);
    }

    #[test]
    fn discard_drops_without_write_back() {
        let (mut pool, mut backend) = setup(4);
        pool.new_page(&mut backend, 0, 9, |d| d[0] = 9).unwrap();
        pool.discard(9);
        assert!(!pool.contains(9));
        assert_eq!(pool.dirty_count(), 0);
        // Nothing was written to the backend for page 9.
        let mut buf = vec![0u8; 512];
        backend.read_page(0, 9, &mut buf).unwrap();
        assert_eq!(buf[0], 0);
    }

    #[test]
    fn dirty_fraction_reflects_state() {
        let (mut pool, mut backend) = setup(4);
        assert_eq!(pool.dirty_fraction(), 0.0);
        pool.new_page(&mut backend, 0, 1, |_| ()).unwrap();
        pool.new_page(&mut backend, 0, 2, |_| ()).unwrap();
        assert!((pool.dirty_fraction() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn new_page_on_resident_page_zeroes_stale_bytes() {
        let (mut pool, mut backend) = setup(4);
        pool.new_page(&mut backend, 0, 6, |d| d.fill(0x77)).unwrap();
        // Re-allocating the same page id must present a zeroed frame, not the
        // stale resident bytes (the seed returned the old content here).
        let (seen, _) = pool
            .new_page(&mut backend, 0, 6, |d| (d[0], d[511]))
            .unwrap();
        assert_eq!(seen, (0, 0));
        assert!(pool.is_dirty(6));
    }

    #[test]
    fn panicking_closure_does_not_leak_pin() {
        let (mut pool, mut backend) = setup(2);
        pool.new_page(&mut backend, 0, 1, |d| d[0] = 1).unwrap();
        let panicked = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _ = pool.with_page(&mut backend, 0, 1, |_| panic!("access failed"));
        }));
        assert!(panicked.is_err());
        // The pin must have been released: filling the pool and evicting
        // page 1 must succeed rather than error with every frame pinned.
        pool.new_page(&mut backend, 0, 2, |d| d[0] = 2).unwrap();
        assert!(pool.with_page(&mut backend, 0, 3, |_| ()).is_ok());
    }

    #[test]
    fn panicking_mut_closure_leaves_page_dirty() {
        let (mut pool, mut backend) = setup(2);
        pool.new_page(&mut backend, 0, 1, |d| d[0] = 1).unwrap();
        pool.flush_all(&mut backend, 0).unwrap();
        let panicked = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _ = pool.with_page_mut(&mut backend, 0, 1, |d| {
                d[0] = 0x7E;
                panic!("mutated, then died");
            });
        }));
        assert!(panicked.is_err());
        // The half-applied mutation must not be silently dropped on eviction:
        // the frame carries it, so it must be marked dirty.
        assert!(pool.is_dirty(1));
        let (seen, _) = pool.with_page(&mut backend, 0, 1, |d| d[0]).unwrap();
        assert_eq!(seen, 0x7E);
    }

    #[test]
    fn failed_backend_read_does_not_poison_resident_map() {
        let (mut pool, mut backend) = setup(3);
        pool.new_page(&mut backend, 0, 1, |d| d[0] = 1).unwrap();
        pool.new_page(&mut backend, 0, 2, |d| d[0] = 2).unwrap();
        pool.new_page(&mut backend, 0, 3, |d| d[0] = 3).unwrap();
        // Out-of-range page: a victim is evicted, then the backend read
        // fails, leaving an empty frame behind.
        assert!(pool.with_page(&mut backend, 0, 9999, |_| ()).is_err());
        // Reload page 1 (into a different frame) and dirty it, then cycle
        // pages 2 and 3 so the clock hand victimizes the frame the failed
        // fetch emptied.  If that frame still carried the stale page id 1,
        // its eviction would delete page 1's *live* mapping.
        pool.with_page_mut(&mut backend, 0, 1, |d| d[0] = 0xEE).unwrap();
        pool.with_page(&mut backend, 0, 2, |_| ()).unwrap();
        pool.with_page(&mut backend, 0, 3, |_| ()).unwrap();
        assert!(
            pool.contains(1),
            "live mapping of page 1 deleted by a stale-frame eviction"
        );
        // No dirty page may exist outside the resident map.
        for p in pool.dirty_pages() {
            assert!(pool.contains(p), "dirty orphan page {p} outside the map");
        }
        let (seen, _) = pool.with_page(&mut backend, 0, 1, |d| d[0]).unwrap();
        assert_eq!(seen, 0xEE, "dirty update lost after failed fetch");
    }

    #[test]
    fn with_pinned_pages_exposes_run_in_order_and_unpins() {
        let (mut pool, mut backend) = setup(8);
        for p in [4u64, 2, 7] {
            pool.new_page(&mut backend, 0, p, |d| d[0] = p as u8).unwrap();
        }
        let ids = [4u64, 99, 2, 7]; // 99 is not resident and must be skipped
        let collected = pool.with_pinned_pages(&ids, |run| {
            run.iter().map(|&(p, bytes)| (p, bytes[0])).collect::<Vec<_>>()
        });
        assert_eq!(collected, vec![(4, 4), (2, 2), (7, 7)]);
        // A run of one (the per-page flush) and a run of nothing.
        let one = pool.with_pinned_pages(&[2], |run| {
            run.iter()
                .map(|&(p, bytes)| (p, bytes[0]))
                .collect::<Vec<_>>()
        });
        assert_eq!(one, vec![(2, 2)]);
        assert!(pool.with_pinned_pages(&[99], |run| run.is_empty()));
        // All pins released: every frame can be evicted.
        for p in 20..28u64 {
            pool.new_page(&mut backend, 0, p, |_| ()).unwrap();
        }
        assert!(!pool.contains(4) && !pool.contains(2) && !pool.contains(7));
    }

    #[test]
    fn with_pinned_pages_unpins_after_panic() {
        let (mut pool, mut backend) = setup(2);
        pool.new_page(&mut backend, 0, 1, |d| d[0] = 1).unwrap();
        pool.new_page(&mut backend, 0, 2, |d| d[0] = 2).unwrap();
        let panicked = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            pool.with_pinned_pages(&[1, 2], |_| panic!("backend exploded"));
        }));
        assert!(panicked.is_err());
        // Both pins must be gone or this eviction would fail.
        assert!(pool.with_page(&mut backend, 0, 3, |_| ()).is_ok());
    }

    #[test]
    fn prefetch_fills_misses_with_one_batched_read() {
        let (mut pool, mut backend) = setup(8);
        for p in 0..6u64 {
            backend.write_page(0, p, &vec![p as u8 + 1; 512]).unwrap();
        }
        // Page 2 resident (and dirty) already: prefetch must skip it.
        pool.new_page(&mut backend, 0, 2, |d| d[0] = 0xAA).unwrap();
        let before_reads = backend.counters().host_reads;
        let t = pool.prefetch(&mut backend, 0, &[0, 1, 2, 3, 2]).unwrap();
        assert_eq!(t, 0, "mem backend is zero-latency");
        assert_eq!(backend.counters().host_reads - before_reads, 3, "only the misses are read");
        for p in [0u64, 1, 3] {
            assert!(pool.contains(p));
            let (seen, _) = pool.with_page(&mut backend, 0, p, |d| d[0]).unwrap();
            assert_eq!(seen, p as u8 + 1);
        }
        // The resident dirty page kept its in-pool content.
        let (seen, _) = pool.with_page(&mut backend, 0, 2, |d| d[0]).unwrap();
        assert_eq!(seen, 0xAA);
        assert!(pool.is_dirty(2), "prefetch must not clean a resident dirty page");
        // Prefetched frames are evictable (no leaked pins).
        for p in 10..18u64 {
            pool.new_page(&mut backend, 0, p, |_| ()).unwrap();
        }
        assert!(!pool.contains(0));
    }

    #[test]
    fn prefetch_writes_back_dirty_victims_and_survives_errors() {
        let (mut pool, mut backend) = setup(2);
        pool.new_page(&mut backend, 0, 1, |d| d[0] = 1).unwrap();
        pool.new_page(&mut backend, 0, 2, |d| d[0] = 2).unwrap();
        backend.write_page(0, 5, &vec![5u8; 512]).unwrap();
        backend.write_page(0, 6, &vec![6u8; 512]).unwrap();
        pool.prefetch(&mut backend, 0, &[5, 6]).unwrap();
        assert!(pool.contains(5) && pool.contains(6));
        assert!(pool.stats().dirty_evictions >= 1);
        // The evicted dirty pages are durable.
        let mut buf = vec![0u8; 512];
        for p in [1u64, 2] {
            backend.read_page(0, p, &mut buf).unwrap();
            assert_eq!(buf[0], p as u8);
        }
        // A failing prefetch (out-of-range page) leaves no partial state:
        // claimed frames stay empty and re-claimable, no mapping is added.
        assert!(pool.prefetch(&mut backend, 0, &[9999]).is_err());
        assert!(!pool.contains(9999));
        pool.prefetch(&mut backend, 0, &[1]).unwrap();
        let (seen, _) = pool.with_page(&mut backend, 0, 1, |d| d[0]).unwrap();
        assert_eq!(seen, 1);
    }

    #[test]
    fn prefetch_never_evicts_a_requested_resident_page() {
        // Regression (code review): a resident requested page used to be
        // skipped without a pin, so a later miss in the same batch could
        // victimize its frame — violating "make the pages of ids resident".
        let (mut pool, mut backend) = setup(2);
        backend.write_page(0, 5, &vec![55u8; 512]).unwrap();
        pool.new_page(&mut backend, 0, 0, |d| d[0] = 10).unwrap();
        pool.new_page(&mut backend, 0, 1, |d| d[0] = 11).unwrap();
        pool.prefetch(&mut backend, 0, &[0, 5]).unwrap();
        assert!(pool.contains(0), "requested resident page must survive the batch");
        assert!(pool.contains(5));
        let (seen, _) = pool.with_page(&mut backend, 0, 0, |d| d[0]).unwrap();
        assert_eq!(seen, 10, "page 0 kept its in-pool content");
        // Consume page 5 so neither frame keeps prefetched-victim protection;
        // the temporary pins are released: both frames evict normally.
        let (seen, _) = pool.with_page(&mut backend, 0, 5, |d| d[0]).unwrap();
        assert_eq!(seen, 55);
        pool.new_page(&mut backend, 0, 20, |_| ()).unwrap();
        pool.new_page(&mut backend, 0, 21, |_| ()).unwrap();
        assert!(!pool.contains(0) && !pool.contains(5));
    }

    #[test]
    fn prefetch_is_best_effort_when_misses_outnumber_frames() {
        // Regression (code review): running out of evictable frames used to
        // fail the whole batch with OutOfSpareBlocks; it now fills what fits
        // and leaves the overflow to on-demand misses.
        let (mut pool, mut backend) = setup(2);
        for p in 0..6u64 {
            backend.write_page(0, p, &vec![p as u8 + 1; 512]).unwrap();
        }
        let t = pool.prefetch(&mut backend, 0, &[0, 1, 2, 3, 4, 5]).unwrap();
        assert_eq!(t, 0);
        let filled = (0..6u64).filter(|&p| pool.contains(p)).count();
        assert_eq!(filled, 2, "exactly the pool capacity is prefetched");
        // Requested resident pages are pinned during the call, so a batch of
        // "residents + too many misses" keeps the residents and claims none.
        let resident_before: Vec<u64> = (0..6).filter(|&p| pool.contains(p)).collect();
        pool.prefetch(&mut backend, 0, &[resident_before[0], resident_before[1], 4, 5])
            .unwrap();
        for &p in &resident_before {
            assert!(pool.contains(p), "resident page {p} must survive the overflow");
        }
    }

    #[test]
    fn drain_reads_honours_entries_left_from_a_deeper_setting() {
        // Regression (code review): drain_reads used to return `now` at depth
        // 1 even when the window still held completions recorded at a deeper
        // setting, letting a checkpoint barrier predate an in-flight fill.
        use crate::backend::{NoFtlBackend, StorageBackend as _};
        use nand_flash::FlashGeometry;
        use noftl_core::{NoFtl, NoFtlConfig};

        let noftl = NoFtl::new(NoFtlConfig::new(FlashGeometry::small()));
        let mut backend = NoFtlBackend::new(noftl);
        backend.set_async_depth(4);
        let mut pool = BufferPool::new(8, 4096);
        pool.set_async_depth(4);
        backend.write_page(0, 0, &vec![1u8; 4096]).unwrap();
        let (_, fill_done) = pool.with_page(&mut backend, 0, 0, |d| d[0]).unwrap();
        assert!(pool.inflight_reads() > 0);
        pool.set_async_depth(1);
        assert_eq!(
            pool.drain_reads(0),
            fill_done,
            "the barrier must cover fills recorded before the depth change"
        );
    }

    #[test]
    fn async_miss_fills_track_in_the_read_window_and_drain() {
        use crate::backend::{NoFtlBackend, StorageBackend as _};
        use nand_flash::FlashGeometry;
        use noftl_core::{NoFtl, NoFtlConfig};

        let noftl = NoFtl::new(NoFtlConfig::new(FlashGeometry::small()));
        let mut backend = NoFtlBackend::new(noftl);
        backend.set_async_depth(4);
        let mut pool = BufferPool::new(16, 4096);
        for p in 0..8u64 {
            backend.write_page(0, p, &vec![p as u8; 4096]).unwrap();
        }
        pool.set_async_depth(4);
        let mut end = 0;
        for p in 0..4u64 {
            let (seen, t) = pool.with_page(&mut backend, 0, p, |d| d[0]).unwrap();
            assert_eq!(seen, p as u8);
            end = end.max(t);
        }
        assert!(pool.inflight_reads() > 0, "fills stay in the window");
        let done = pool.drain_reads(0);
        assert_eq!(done, end, "barrier covers the slowest fill");
        assert_eq!(pool.inflight_reads(), 0);
        // Depth 1: the window stays empty and the barrier is a no-op.
        pool.set_async_depth(1);
        pool.with_page(&mut backend, 0, 5, |_| ()).unwrap();
        assert_eq!(pool.inflight_reads(), 0);
        assert_eq!(pool.drain_reads(123), 123);
    }

    #[test]
    fn readahead_accounting_tracks_useful_and_wasted() {
        let (mut pool, mut backend) = setup(4);
        for p in 0..8u64 {
            backend.write_page(0, p, &vec![p as u8; 512]).unwrap();
        }
        pool.prefetch(&mut backend, 0, &[0, 1, 2]).unwrap();
        assert_eq!(pool.readahead_stats().prefetch_issued, 3);
        // Consuming a prefetched page counts it useful exactly once.
        pool.with_page(&mut backend, 0, 0, |_| ()).unwrap();
        pool.with_page(&mut backend, 0, 0, |_| ()).unwrap();
        assert_eq!(pool.readahead_stats().prefetch_useful, 1);
        // Discarding an unconsumed prefetched page counts it wasted.
        pool.discard(1);
        assert_eq!(pool.readahead_stats().prefetch_wasted, 1);
        // Evicting an unconsumed prefetched frame also counts it wasted.  The
        // clock hand protects prefetched frames while plain victims exist, so
        // make the whole pool prefetched first: pressure then falls on a
        // prefetched frame (second pass) and must be charged as waste.
        pool.discard(0);
        pool.prefetch(&mut backend, 0, &[4, 5, 6]).unwrap();
        pool.with_page(&mut backend, 0, 7, |_| ()).unwrap();
        assert_eq!(pool.readahead_stats().prefetch_wasted, 2);
        assert_eq!(pool.readahead_stats().prefetch_useful, 1);
        // The window high-water mark is monotone.
        pool.note_readahead_window(8);
        pool.note_readahead_window(4);
        assert_eq!(pool.readahead_stats().window_high_water, 8);
    }

    #[test]
    fn clock_hand_protects_prefetched_frames_while_alternatives_exist() {
        // Regression (ROADMAP carry-over): a wide readahead window on a small
        // pool used to let on-demand misses evict prefetched-but-unconsumed
        // frames even though plain unreferenced frames were available,
        // thrashing the window the scan just paid for.
        let (mut pool, mut backend) = setup(4);
        for p in 0..16u64 {
            backend.write_page(0, p, &vec![p as u8 + 1; 512]).unwrap();
        }
        // Two plain resident pages, then two prefetched ones.
        pool.with_page(&mut backend, 0, 10, |_| ()).unwrap();
        pool.with_page(&mut backend, 0, 11, |_| ()).unwrap();
        pool.prefetch(&mut backend, 0, &[0, 1]).unwrap();
        // Cycle enough on-demand misses to sweep the clock twice over: every
        // eviction must pick the plain frames, never the prefetched ones.
        pool.with_page(&mut backend, 0, 12, |_| ()).unwrap();
        pool.with_page(&mut backend, 0, 13, |_| ()).unwrap();
        assert!(pool.contains(0) && pool.contains(1), "prefetched frames evicted while plain victims existed");
        assert_eq!(pool.readahead_stats().prefetch_wasted, 0);
        // Consuming a prefetched page lifts its protection.
        pool.with_page(&mut backend, 0, 0, |_| ()).unwrap();
        assert_eq!(pool.readahead_stats().prefetch_useful, 1);
        // When *everything* evictable is prefetched, pressure still wins
        // (second pass) and the eviction counts as wasted readahead.
        pool.discard(0);
        pool.discard(12);
        pool.discard(13);
        pool.prefetch(&mut backend, 0, &[2, 3, 4]).unwrap();
        let before = pool.readahead_stats().prefetch_wasted;
        pool.with_page(&mut backend, 0, 14, |_| ()).unwrap();
        assert_eq!(pool.readahead_stats().prefetch_wasted, before + 1, "all-prefetched pool must still yield a victim");
    }

    #[test]
    fn dirty_tracking_consistent_under_churn() {
        use sim_utils::rng::SimRng;
        let (mut pool, mut backend) = setup(8);
        let mut rng = SimRng::new(21);
        for _ in 0..4000 {
            let p = rng.range(0, 32);
            match rng.range(0, 4) {
                0 => {
                    pool.new_page(&mut backend, 0, p, |d| d[0] = p as u8).unwrap();
                }
                1 => {
                    pool.with_page_mut(&mut backend, 0, p, |d| d[0] ^= 1).unwrap();
                }
                2 => pool.mark_clean(p),
                _ => pool.discard(p),
            }
            // The incremental counter must always agree with a full scan.
            let scanned = (0..64u64).filter(|&q| pool.is_dirty(q)).count();
            assert_eq!(pool.dirty_count(), scanned);
            assert_eq!(pool.dirty_pages().count(), scanned);
            assert!(pool.resident() <= 8);
        }
    }
}

//! Sharded buffer pool: N [`BufferPool`]s routed by page id.
//!
//! The pool is partitioned by page id (`page_id % shards`).  Each shard keeps
//! its own clock hand, dirty bitmap, resident table and miss-fill read
//! window, and is flushed by its own db-writer pool (the engine keeps one
//! [`crate::flusher::FlusherPool`] per shard), so N clients with drifting
//! virtual clocks evict and flush within their pages' shards instead of
//! through one clock hand, and `with_pinned_pages` pin-stability holds per
//! shard exactly as it does on a single pool.
//!
//! There are no latches here.  Every page access takes `&mut dyn
//! StorageBackend`, so a caller can only reach a shard while it holds the
//! whole engine exclusively — under the one engine lock of
//! [`crate::concurrent::ConcurrentEngine`], or as the sole owner of a
//! [`crate::engine::StorageEngine`].  Per-shard latches inside that exclusive
//! section never had a second contender; the `&mut self` receivers state the
//! same exclusion in the type system.
//!
//! Whole-pool sweeps (`flush_all`, `drain_reads`, `prefetch`, `stats`) visit
//! shards in ascending index.  A 1-shard pool is exactly a plain
//! [`BufferPool`]: the modulo routing is the identity, so every access
//! sequence — and therefore every device trace — is bit- and cycle-identical
//! to an unsharded pool.  That is what lets `StorageEngine::new` (1 shard)
//! and an N-session engine share one implementation.

use nand_flash::FlashResult;
use sim_utils::time::SimInstant;

use crate::backend::StorageBackend;
use crate::buffer::{BufferPool, BufferStats, ReadaheadStats};
use crate::page::PageId;

/// A buffer pool partitioned into shards by page id.
pub struct ShardedBufferPool {
    shards: Vec<BufferPool>,
    /// Per-shard split of a prefetch batch, kept for its capacity.
    by_shard: Vec<Vec<PageId>>,
}

impl ShardedBufferPool {
    /// Create a pool of `total_frames` frames of `page_size` bytes split over
    /// `shards` shards (each shard gets at least two frames).
    pub fn new(shards: usize, total_frames: usize, page_size: usize) -> Self {
        let shards = shards.max(1);
        let per_shard = (total_frames / shards).max(2);
        Self {
            shards: (0..shards)
                .map(|_| BufferPool::new(per_shard, page_size))
                .collect(),
            by_shard: vec![Vec::new(); shards],
        }
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Shard index owning `page_id`.
    #[inline]
    pub fn shard_of(&self, page_id: PageId) -> usize {
        (page_id % self.shards.len() as u64) as usize
    }

    /// The shards, in index order.
    pub fn shards(&self) -> &[BufferPool] {
        &self.shards
    }

    /// The shards, mutably, in index order (per-shard flusher cycles).
    pub fn shards_mut(&mut self) -> &mut [BufferPool] {
        &mut self.shards
    }

    /// The shard owning `page_id`.
    #[inline]
    fn owner(&mut self, page_id: PageId) -> &mut BufferPool {
        let i = self.shard_of(page_id);
        &mut self.shards[i]
    }

    /// Set every shard's asynchronous miss-fill depth.
    pub fn set_async_depth(&mut self, depth: usize) {
        for s in &mut self.shards {
            s.set_async_depth(depth);
        }
    }

    /// Set every shard's per-hit virtual CPU cost (see
    /// [`BufferPool::set_hit_cost_ns`]).
    pub fn set_hit_cost_ns(&mut self, ns: u64) {
        for s in &mut self.shards {
            s.set_hit_cost_ns(ns);
        }
    }

    /// Aggregate pool statistics, summed over shards.  Each counter is
    /// maintained by exactly one shard, so the sum reconciles exactly: no
    /// hit or eviction is lost or double-counted.
    pub fn stats(&self) -> BufferStats {
        let mut total = BufferStats::default();
        for s in &self.shards {
            let st = s.stats();
            total.hits += st.hits;
            total.misses += st.misses;
            total.evictions += st.evictions;
            total.dirty_evictions += st.dirty_evictions;
            total.flushed_by_writers += st.flushed_by_writers;
        }
        total
    }

    /// Aggregate readahead statistics (counters summed, window high-water is
    /// the max over shards).
    pub fn readahead_stats(&self) -> ReadaheadStats {
        let mut total = ReadaheadStats::default();
        for s in &self.shards {
            let st = s.readahead_stats();
            total.prefetch_issued += st.prefetch_issued;
            total.prefetch_useful += st.prefetch_useful;
            total.prefetch_wasted += st.prefetch_wasted;
            total.window_high_water = total.window_high_water.max(st.window_high_water);
        }
        total
    }

    /// Total resident pages across shards.
    pub fn resident(&self) -> usize {
        self.shards.iter().map(|s| s.resident()).sum()
    }

    /// Total dirty resident pages across shards.
    pub fn dirty_count(&self) -> usize {
        self.shards.iter().map(|s| s.dirty_count()).sum()
    }

    /// Fraction of all frames that are dirty.
    pub fn dirty_fraction(&self) -> f64 {
        let frames: usize = self.shards.iter().map(|s| s.capacity()).sum();
        self.dirty_count() as f64 / frames as f64
    }

    /// Drop `page_id` from its shard without write-back.
    pub fn discard(&mut self, page_id: PageId) {
        self.owner(page_id).discard(page_id);
    }

    /// Barrier over every shard's in-flight miss-fill reads: the instant by
    /// which all of them have completed (at least `now`).  Shards are drained
    /// in index order; the result is the max, so a checkpoint barrier taken
    /// here covers the slowest fill of *any* shard.
    pub fn drain_reads(&mut self, now: SimInstant) -> SimInstant {
        let mut t = now;
        for s in &mut self.shards {
            t = t.max(s.drain_reads(now));
        }
        t
    }

    /// Write every dirty page of every shard back to the backend.  Shards are
    /// swept in index order on the caller's single timeline.
    pub fn flush_all(
        &mut self,
        backend: &mut dyn StorageBackend,
        now: SimInstant,
    ) -> FlashResult<SimInstant> {
        let mut t = now;
        for s in &mut self.shards {
            t = s.flush_all(backend, t)?;
        }
        Ok(t)
    }

    // -- page access: each goes to exactly the shard owning the page id ------

    /// Page size in bytes.
    pub fn page_size(&self) -> usize {
        self.shards[0].page_size()
    }

    /// The pool's asynchronous miss-fill depth (1 = synchronous; uniform
    /// across shards).
    pub fn async_depth(&self) -> usize {
        self.shards[0].async_depth()
    }

    /// Whether `page_id` is resident.
    pub fn contains(&self, page_id: PageId) -> bool {
        self.shards[self.shard_of(page_id)].contains(page_id)
    }

    /// Record the readahead window size a scan is running at (a pool-global
    /// high-water mark, kept on shard 0).
    pub fn note_readahead_window(&mut self, window: usize) {
        self.shards[0].note_readahead_window(window);
    }

    /// Read-access a page through a closure.
    pub fn with_page<R>(
        &mut self,
        backend: &mut dyn StorageBackend,
        now: SimInstant,
        page_id: PageId,
        f: impl FnOnce(&[u8]) -> R,
    ) -> FlashResult<(R, SimInstant)> {
        self.owner(page_id).with_page(backend, now, page_id, f)
    }

    /// Write-access a page through a closure (marks it dirty).
    pub fn with_page_mut<R>(
        &mut self,
        backend: &mut dyn StorageBackend,
        now: SimInstant,
        page_id: PageId,
        f: impl FnOnce(&mut [u8]) -> R,
    ) -> FlashResult<(R, SimInstant)> {
        self.owner(page_id).with_page_mut(backend, now, page_id, f)
    }

    /// Create/overwrite a page without reading it from the backend first.
    pub fn new_page<R>(
        &mut self,
        backend: &mut dyn StorageBackend,
        now: SimInstant,
        page_id: PageId,
        f: impl FnOnce(&mut [u8]) -> R,
    ) -> FlashResult<(R, SimInstant)> {
        self.owner(page_id).new_page(backend, now, page_id, f)
    }

    /// Make the pages of `ids` resident with batched backend reads.
    pub fn prefetch(
        &mut self,
        backend: &mut dyn StorageBackend,
        now: SimInstant,
        ids: &[PageId],
    ) -> FlashResult<SimInstant> {
        // Split the batch by owning shard, preserving the request order
        // within each shard, and issue one batched fill per shard, all at
        // `now`.  Shards are visited in ascending index; the returned
        // instant covers the slowest shard's batch.
        let n = self.shards.len();
        if n == 1 {
            return self.shards[0].prefetch(backend, now, ids);
        }
        for batch in &mut self.by_shard {
            batch.clear();
        }
        for &id in ids {
            self.by_shard[(id % n as u64) as usize].push(id);
        }
        let mut t = now;
        for (shard, batch) in self.shards.iter_mut().zip(&self.by_shard) {
            if batch.is_empty() {
                continue;
            }
            t = t.max(shard.prefetch(backend, now, batch)?);
        }
        Ok(t)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::MemBackend;

    fn backend() -> MemBackend {
        MemBackend::new(512, 256)
    }

    #[test]
    fn one_shard_pool_is_the_plain_pool() {
        // Identical access sequence against a plain pool and a 1-shard
        // sharded pool must produce identical stats and residency.
        let mut plain = BufferPool::new(8, 512);
        let mut sharded = ShardedBufferPool::new(1, 8, 512);
        let mut b1 = backend();
        let mut b2 = backend();
        for p in 0..16u64 {
            b1.write_page(0, p, &vec![p as u8; 512]).unwrap();
            b2.write_page(0, p, &vec![p as u8; 512]).unwrap();
        }
        let seq: Vec<u64> = vec![0, 1, 2, 0, 3, 9, 10, 11, 12, 13, 0, 1, 5];
        for &p in &seq {
            let (a, ta) = plain.with_page(&mut b1, 0, p, |d| d[0]).unwrap();
            let (b, tb) = sharded.with_page(&mut b2, 0, p, |d| d[0]).unwrap();
            assert_eq!((a, ta), (b, tb));
        }
        assert_eq!(plain.stats(), sharded.stats());
        assert_eq!(plain.resident(), sharded.resident());
    }

    #[test]
    fn pages_route_to_their_owning_shard() {
        let mut pool = ShardedBufferPool::new(4, 16, 512);
        let mut b = backend();
        for p in 0..8u64 {
            pool.new_page(&mut b, 0, p, |d| d[0] = p as u8).unwrap();
        }
        for p in 0..8u64 {
            assert_eq!(pool.shard_of(p), (p % 4) as usize);
            assert!(pool.contains(p));
            assert!(pool.shards()[pool.shard_of(p)].is_dirty(p));
            // Resident exactly in the owning shard.
            for s in 0..4 {
                let here = pool.shards()[s].contains(p);
                assert_eq!(here, s == pool.shard_of(p));
            }
        }
        assert_eq!(pool.resident(), 8);
        assert_eq!(pool.dirty_count(), 8);
    }

    #[test]
    fn aggregate_stats_reconcile_exactly_across_shards() {
        let mut pool = ShardedBufferPool::new(4, 16, 512);
        let mut b = backend();
        for p in 0..32u64 {
            b.write_page(0, p, &vec![p as u8; 512]).unwrap();
        }
        let mut expected_hits = 0u64;
        let mut expected_misses = 0u64;
        for round in 0..3 {
            for p in 0..32u64 {
                let resident = pool.contains(p);
                pool.with_page(&mut b, 0, p, |_| ()).unwrap();
                if resident {
                    expected_hits += 1;
                } else {
                    expected_misses += 1;
                }
            }
            let _ = round;
        }
        let st = pool.stats();
        assert_eq!(st.hits, expected_hits);
        assert_eq!(st.misses, expected_misses);
        // The per-shard sums equal the aggregate (nothing lost or doubled).
        let mut sum = 0u64;
        for sp in pool.shards() {
            sum += sp.stats().hits + sp.stats().misses;
        }
        assert_eq!(sum, st.hits + st.misses);
        assert_eq!(sum, expected_hits + expected_misses);
    }

    #[test]
    fn prefetch_splits_batches_by_shard() {
        let mut pool = ShardedBufferPool::new(2, 8, 512);
        let mut b = backend();
        for p in 0..8u64 {
            b.write_page(0, p, &vec![p as u8 + 1; 512]).unwrap();
        }
        let before = b.counters().host_reads;
        pool.prefetch(&mut b, 0, &[0, 1, 2, 3, 4, 5]).unwrap();
        assert_eq!(b.counters().host_reads - before, 6);
        for p in 0..6u64 {
            assert!(pool.contains(p), "page {p} not resident after prefetch");
        }
        let ra = pool.readahead_stats();
        assert_eq!(ra.prefetch_issued, 6);
    }

    #[test]
    fn flush_all_sweeps_every_shard() {
        let mut pool = ShardedBufferPool::new(4, 16, 512);
        let mut b = backend();
        for p in 0..8u64 {
            pool.new_page(&mut b, 0, p, |d| d[0] = 0xC0 + p as u8)
                .unwrap();
        }
        assert_eq!(pool.dirty_count(), 8);
        pool.flush_all(&mut b, 0).unwrap();
        assert_eq!(pool.dirty_count(), 0);
        let mut buf = vec![0u8; 512];
        for p in 0..8u64 {
            b.read_page(0, p, &mut buf).unwrap();
            assert_eq!(buf[0], 0xC0 + p as u8);
        }
    }

    #[test]
    fn per_shard_capacity_has_a_floor_of_two() {
        let pool = ShardedBufferPool::new(8, 4, 512);
        // 4 frames over 8 shards would starve shards; each gets the 2-frame
        // minimum the plain pool asserts.
        assert_eq!(pool.shard_count(), 8);
        for shard in pool.shards() {
            assert_eq!(shard.capacity(), 2);
        }
    }
}

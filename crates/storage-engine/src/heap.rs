//! Heap files: unordered collections of variable-length records.
//!
//! TPC tables are stored as heap files; secondary access paths use the
//! B+-tree ([`crate::btree`]).  Heap operations log redo records to the WAL
//! before dirtying the page (write-ahead rule) and allocate pages through the
//! free-space manager, so freed pages generate dead-page hints for NoFTL.

use nand_flash::{FlashError, FlashResult};
use serde::{Deserialize, Serialize};
use sim_utils::time::SimInstant;

use crate::backend::StorageBackend;
use crate::engine::{EngineError, EngineResult};
use crate::shard::ShardedBufferPool;
use crate::free_space::FreeSpaceManager;
use crate::page::{PageId, SlottedPage};
use crate::readahead::ScanPrefetcher;
use crate::transaction::TxnId;
use crate::wal::{LogRecord, WalManager};

/// Record identifier: page + slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct Rid {
    /// Page holding the record.
    pub page: PageId,
    /// Slot within the page.
    pub slot: u16,
}

/// A heap file: a growable list of slotted pages.
#[derive(Debug)]
pub struct HeapFile {
    name: String,
    pages: Vec<PageId>,
    /// Cache of the page most likely to have room (append locality).
    last_with_space: Option<PageId>,
    records: u64,
}

impl HeapFile {
    /// Create an empty heap file.
    pub fn new(name: impl Into<String>) -> Self {
        Self {
            name: name.into(),
            pages: Vec::new(),
            last_with_space: None,
            records: 0,
        }
    }

    /// Table name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Pages owned by this heap file.
    pub fn pages(&self) -> &[PageId] {
        &self.pages
    }

    /// Number of live records (approximate under deletes from other handles).
    pub fn record_count(&self) -> u64 {
        self.records
    }

    /// Drop the cached append-target page.  The engine calls this when that
    /// page turns out to be unreadable (uncorrectable ECC): the next insert
    /// then allocates a fresh page instead of retrying the lost one.
    pub fn forget_append_hint(&mut self) {
        self.last_with_space = None;
    }

    /// Insert a record; returns its RID and the virtual time after I/O.
    /// A zero-length record is refused ([`EngineError::EmptyRecord`]): the
    /// redo log spells a delete as an update with no bytes.
    #[allow(
        clippy::too_many_arguments,
        reason = "the heap borrows the pool, backend, free-space map and log apart, as the \
                  engine holds them"
    )]
    pub fn insert(
        &mut self,
        pool: &mut ShardedBufferPool,
        backend: &mut dyn StorageBackend,
        fsm: &mut FreeSpaceManager,
        wal: &mut WalManager,
        txn: TxnId,
        now: SimInstant,
        record: &[u8],
    ) -> EngineResult<(Rid, SimInstant)> {
        if record.is_empty() {
            return Err(EngineError::EmptyRecord);
        }
        let mut t = now;
        // Try the cached page first, then allocate a fresh one.
        if let Some(page_id) = self.last_with_space {
            let (slot, t2) = pool.with_page_mut(backend, t, page_id, |bytes| {
                SlottedPage::from_bytes(bytes).insert(record)
            })?;
            t = t2;
            if let Some(slot) = slot {
                wal.append(LogRecord::Update {
                    txn,
                    page: page_id,
                    slot,
                    bytes: record,
                });
                self.records += 1;
                return Ok((Rid { page: page_id, slot }, t));
            }
        }
        // Allocate and format a new page.
        let page_id = fsm.allocate().ok_or(FlashError::OutOfSpareBlocks)?;
        let (slot, t2) = pool.new_page(backend, t, page_id, |bytes| {
            SlottedPage::format(bytes, page_id)
                .insert(record)
                .expect("fresh page must fit one record")
        })?;
        t = t2;
        self.pages.push(page_id);
        self.last_with_space = Some(page_id);
        wal.append(LogRecord::Update {
            txn,
            page: page_id,
            slot,
            bytes: record,
        });
        self.records += 1;
        Ok((Rid { page: page_id, slot }, t))
    }

    /// Read the record at `rid` into `out` (cleared first); `true` when the
    /// record exists.
    pub fn get(
        &self,
        pool: &mut ShardedBufferPool,
        backend: &mut dyn StorageBackend,
        now: SimInstant,
        rid: Rid,
        out: &mut Vec<u8>,
    ) -> FlashResult<(bool, SimInstant)> {
        out.clear();
        pool.with_page(backend, now, rid.page, |bytes| {
            SlottedPage::from_bytes(bytes)
                .get(rid.slot)
                .map(|r| out.extend_from_slice(r))
                .is_some()
        })
    }

    /// Update the record at `rid` in place (the new value must fit the page;
    /// otherwise the record is deleted and reinserted, returning a new RID).
    /// A zero-length record is refused, as in [`HeapFile::insert`].
    #[allow(
        clippy::too_many_arguments,
        reason = "the heap borrows the pool, backend, free-space map and log apart, as the \
                  engine holds them"
    )]
    pub fn update(
        &mut self,
        pool: &mut ShardedBufferPool,
        backend: &mut dyn StorageBackend,
        fsm: &mut FreeSpaceManager,
        wal: &mut WalManager,
        txn: TxnId,
        now: SimInstant,
        rid: Rid,
        record: &[u8],
    ) -> EngineResult<(Rid, SimInstant)> {
        if record.is_empty() {
            return Err(EngineError::EmptyRecord);
        }
        let (updated, mut t) = pool.with_page_mut(backend, now, rid.page, |bytes| {
            SlottedPage::from_bytes(bytes).update(rid.slot, record)
        })?;
        if let Some(slot) = updated {
            if slot != rid.slot {
                // The record moved slots within its page (delete + compact +
                // reinsert).  Log the tombstone of the old slot too, so WAL
                // replay — crash recovery and the engine's page rescue —
                // reconstructs the exact slot state, not a page with a ghost
                // copy of the old record.
                wal.append(LogRecord::Update {
                    txn,
                    page: rid.page,
                    slot: rid.slot,
                    bytes: &[],
                });
            }
            wal.append(LogRecord::Update {
                txn,
                page: rid.page,
                slot,
                bytes: record,
            });
            return Ok((Rid { page: rid.page, slot }, t));
        }
        // Did not fit on its page: move the record.
        let (_, t2) = self.delete(pool, backend, wal, txn, t, rid)?;
        t = t2;
        let (new_rid, t3) = self.insert(pool, backend, fsm, wal, txn, t, record)?;
        Ok((new_rid, t3))
    }

    /// Delete the record at `rid`.
    pub fn delete(
        &mut self,
        pool: &mut ShardedBufferPool,
        backend: &mut dyn StorageBackend,
        wal: &mut WalManager,
        txn: TxnId,
        now: SimInstant,
        rid: Rid,
    ) -> FlashResult<(bool, SimInstant)> {
        let (deleted, t) = pool.with_page_mut(backend, now, rid.page, |bytes| {
            SlottedPage::from_bytes(bytes).delete(rid.slot)
        })?;
        if deleted {
            wal.append(LogRecord::Update {
                txn,
                page: rid.page,
                slot: rid.slot,
                bytes: &[],
            });
            self.records = self.records.saturating_sub(1);
        }
        Ok((deleted, t))
    }

    /// Full scan: visit every live record.  Returns the number of records
    /// visited and the virtual time after all page reads.
    pub fn scan(
        &self,
        pool: &mut ShardedBufferPool,
        backend: &mut dyn StorageBackend,
        now: SimInstant,
        visit: impl FnMut(Rid, &[u8]),
    ) -> FlashResult<(u64, SimInstant)> {
        self.scan_with_readahead(pool, backend, &mut ScanPrefetcher::disabled(), now, visit)
    }

    /// [`HeapFile::scan`] with streaming readahead: the page list is fully
    /// known, so `ra` is fed from it a window cap ahead of the cursor and
    /// keeps a window of upcoming pages in flight ([`ShardedBufferPool::prefetch`] batches — one
    /// multi-page read dispatch per die) while records of already-filled
    /// pages are visited.  With an inert prefetcher this is the
    /// frame-at-a-time path, call for call.
    pub fn scan_with_readahead(
        &self,
        pool: &mut ShardedBufferPool,
        backend: &mut dyn StorageBackend,
        ra: &mut ScanPrefetcher,
        now: SimInstant,
        mut visit: impl FnMut(Rid, &[u8]),
    ) -> FlashResult<(u64, SimInstant)> {
        let mut fed = 0;
        let mut t = now;
        let mut visited = 0;
        for &page_id in &self.pages {
            fed = ra.feed_ahead(&self.pages, fed);
            t = ra.on_access(pool, backend, t, page_id)?;
            let (count, t2) = pool.with_page(backend, t, page_id, |bytes| {
                let mut n = 0;
                for (slot, record) in SlottedPage::from_bytes(bytes).iter() {
                    visit(Rid { page: page_id, slot }, record);
                    n += 1;
                }
                n
            })?;
            visited += count;
            t = t2;
        }
        Ok((visited, t))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::MemBackend;

    struct Ctx {
        pool: ShardedBufferPool,
        backend: MemBackend,
        fsm: FreeSpaceManager,
        wal: WalManager,
    }

    fn setup() -> Ctx {
        Ctx {
            pool: ShardedBufferPool::new(1, 32, 4096),
            backend: MemBackend::new(4096, 1024),
            fsm: FreeSpaceManager::new(0, 900),
            wal: WalManager::new(900, 100, 4096),
        }
    }

    fn get(c: &mut Ctx, heap: &HeapFile, rid: Rid) -> Option<Vec<u8>> {
        let mut out = Vec::new();
        let (found, _) = heap.get(&mut c.pool, &mut c.backend, 0, rid, &mut out).unwrap();
        found.then_some(out)
    }

    #[test]
    fn insert_and_get() {
        let mut c = setup();
        let mut heap = HeapFile::new("t");
        let (rid, _) = heap
            .insert(&mut c.pool, &mut c.backend, &mut c.fsm, &mut c.wal, 1, 0, b"row-1")
            .unwrap();
        let value = get(&mut c, &heap, rid);
        assert_eq!(value.unwrap(), b"row-1");
        assert_eq!(heap.record_count(), 1);
    }

    #[test]
    fn inserts_spill_to_new_pages() {
        let mut c = setup();
        let mut heap = HeapFile::new("t");
        let record = vec![7u8; 500];
        for _ in 0..40 {
            heap.insert(&mut c.pool, &mut c.backend, &mut c.fsm, &mut c.wal, 1, 0, &record)
                .unwrap();
        }
        assert!(heap.pages().len() > 1, "records must spill over pages");
        assert_eq!(heap.record_count(), 40);
    }

    #[test]
    fn update_in_place_and_move() {
        let mut c = setup();
        let mut heap = HeapFile::new("t");
        let (rid, _) = heap
            .insert(&mut c.pool, &mut c.backend, &mut c.fsm, &mut c.wal, 1, 0, b"short")
            .unwrap();
        let (same, _) = heap
            .update(&mut c.pool, &mut c.backend, &mut c.fsm, &mut c.wal, 1, 0, rid, b"tiny")
            .unwrap();
        assert_eq!(same.page, rid.page);
        let value = get(&mut c, &heap, same);
        assert_eq!(value.unwrap(), b"tiny");
        // Grow beyond the page: fill the page first so the record must move.
        let filler = vec![1u8; 1200];
        for _ in 0..3 {
            heap.insert(&mut c.pool, &mut c.backend, &mut c.fsm, &mut c.wal, 1, 0, &filler)
                .unwrap();
        }
        let big = vec![2u8; 1500];
        let (moved, _) = heap
            .update(&mut c.pool, &mut c.backend, &mut c.fsm, &mut c.wal, 1, 0, same, &big)
            .unwrap();
        let value = get(&mut c, &heap, moved);
        assert_eq!(value.unwrap(), big);
    }

    #[test]
    fn delete_then_get_returns_none() {
        let mut c = setup();
        let mut heap = HeapFile::new("t");
        let (rid, _) = heap
            .insert(&mut c.pool, &mut c.backend, &mut c.fsm, &mut c.wal, 1, 0, b"bye")
            .unwrap();
        let (deleted, _) = heap
            .delete(&mut c.pool, &mut c.backend, &mut c.wal, 1, 0, rid)
            .unwrap();
        assert!(deleted);
        let value = get(&mut c, &heap, rid);
        assert!(value.is_none());
        assert_eq!(heap.record_count(), 0);
    }

    #[test]
    fn scan_visits_all_live_records() {
        let mut c = setup();
        let mut heap = HeapFile::new("t");
        let mut rids = Vec::new();
        for i in 0..20u8 {
            let (rid, _) = heap
                .insert(&mut c.pool, &mut c.backend, &mut c.fsm, &mut c.wal, 1, 0, &[i; 32])
                .unwrap();
            rids.push(rid);
        }
        heap.delete(&mut c.pool, &mut c.backend, &mut c.wal, 1, 0, rids[3])
            .unwrap();
        let mut seen = Vec::new();
        let (count, _) = heap
            .scan(&mut c.pool, &mut c.backend, 0, |_, r| seen.push(r[0]))
            .unwrap();
        assert_eq!(count, 19);
        assert!(!seen.contains(&3));
    }

    #[test]
    fn wal_records_written_before_pages() {
        let mut c = setup();
        let mut heap = HeapFile::new("t");
        heap.insert(&mut c.pool, &mut c.backend, &mut c.fsm, &mut c.wal, 1, 0, b"logged")
            .unwrap();
        let has_update = c
            .wal
            .records()
            .iter()
            .any(|(_, r)| matches!(r, LogRecord::Update { bytes: b"logged", .. }));
        assert!(has_update, "insert must be WAL-logged");
    }

    #[test]
    fn intra_page_record_move_logs_the_tombstone() {
        let mut c = setup();
        let mut heap = HeapFile::new("t");
        let (rid, _) = heap
            .insert(&mut c.pool, &mut c.backend, &mut c.fsm, &mut c.wal, 1, 0, b"small")
            .unwrap();
        // Growing the record moves it to a new slot within the page; the WAL
        // must carry the old slot's tombstone so replay reconstructs the
        // exact slot state (no ghost copy of the old record).
        let grown = vec![9u8; 64];
        let (moved, _) = heap
            .update(&mut c.pool, &mut c.backend, &mut c.fsm, &mut c.wal, 1, 0, rid, &grown)
            .unwrap();
        assert_eq!(moved.page, rid.page, "the grown record still fits its page");
        assert_ne!(moved.slot, rid.slot, "the move gets a fresh slot");
        let tail: Vec<LogRecord<'_>> = c.wal.records().iter().map(|(_, r)| r).collect();
        assert!(
            matches!(
                tail[tail.len() - 2],
                LogRecord::Update { page, slot, bytes: [], .. }
                    if page == rid.page && slot == rid.slot
            ),
            "the old slot's tombstone must be logged before the re-insert"
        );
        assert!(
            matches!(
                tail[tail.len() - 1],
                LogRecord::Update { page, slot, bytes, .. }
                    if page == moved.page && slot == moved.slot && bytes == grown
            ),
            "the re-insert carries the new slot and the post-image"
        );
    }

    #[test]
    fn survives_buffer_pressure() {
        // A pool much smaller than the data forces evictions and re-reads.
        let mut c = Ctx {
            pool: ShardedBufferPool::new(1, 4, 4096),
            backend: MemBackend::new(4096, 1024),
            fsm: FreeSpaceManager::new(0, 900),
            wal: WalManager::new(900, 100, 4096),
        };
        let mut heap = HeapFile::new("t");
        let mut rids = Vec::new();
        for i in 0..60u32 {
            // ~600-byte records: only a handful fit per page, so 60 of them
            // span far more pages than the 4-frame pool can hold.
            let mut rec = vec![0u8; 600];
            rec[..4].copy_from_slice(&i.to_le_bytes());
            let (rid, _) = heap
                .insert(&mut c.pool, &mut c.backend, &mut c.fsm, &mut c.wal, 1, 0, &rec)
                .unwrap();
            rids.push((rid, rec));
        }
        for (rid, expected) in &rids {
            let value = get(&mut c, &heap, *rid);
            assert_eq!(value.unwrap(), *expected);
        }
        assert!(c.pool.stats().evictions > 0);
    }
}

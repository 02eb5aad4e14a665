//! The storage engine: wires the buffer pool, free-space manager, WAL,
//! transactions, db-writers, tables and indexes over a pluggable backend.
//!
//! This is the component the workload drivers (TPC-B/C/E/H) talk to.  Every
//! operation takes and returns virtual time so a driver can interleave many
//! logical clients deterministically and measure transactional throughput on
//! the virtual clock — the TPS numbers of the paper's Figures.
//!
//! There is one engine.  Every operation takes `&mut self`, so a sole owner
//! drives it directly and N client sessions share it through
//! [`crate::concurrent::ConcurrentEngine`] — the same code either way.  The
//! buffer pool is split into page-id-routed shards, each flushed by its own
//! db-writer pool ([`crate::shard`]); [`StorageEngine::new`] builds one
//! shard, which is a plain [`crate::buffer::BufferPool`].

use nand_flash::{FlashError, FlashResult};
use sim_utils::time::SimInstant;

use crate::backend::{
    BackendCounters, StorageBackend, DEFAULT_READAHEAD_WINDOW, DEFAULT_SLO_FLUSH_OCCUPANCY,
};
use crate::btree::BTree;
use crate::buffer::{BufferStats, ReadaheadStats};
use crate::catalog::Catalog;
use crate::flusher::{FlusherConfig, FlusherPool, FlusherStats, ThrottleStats};
use crate::free_space::FreeSpaceManager;
use crate::heap::Rid;
use crate::heap::HeapFile;
use crate::page::{PageId, SlottedPage};
use crate::readahead::ScanPrefetcher;
use crate::shard::ShardedBufferPool;
use crate::transaction::{
    AdmissionConfig, AdmissionControl, AdmissionStats, TransactionManager, TxnId,
};
use crate::wal::{LogRecord, WalManager};

/// Typed engine-level error: the storage engine either recovers from a flash
/// fault (read-retry ladder in the core, WAL-replay page rescue here) or
/// reports what it could not recover — it never panics on a device error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EngineError {
    /// A flash-layer error the engine has no recovery for (propagated with
    /// its original context).
    Flash(FlashError),
    /// A data page was unreadable (uncorrectable ECC after the core's retry
    /// ladder) and could not be reconstructed from the WAL — for example an
    /// index page (index updates are not redo-logged; indexes are rebuilt
    /// from their base tables) or a page whose history predates the oldest
    /// in-memory log record.
    UnrecoverablePage {
        /// The logical page that was lost.
        page: PageId,
        /// The device error that made it unreadable.
        cause: FlashError,
    },
    /// The commit-admission window shed this transaction: admitting it would
    /// have meant waiting past the configured virtual-time deadline.  Nothing
    /// was begun or logged — retrying later is safe and expected.
    Overloaded {
        /// Virtual nanoseconds the arrival would have had to wait for the
        /// pressure to clear (already past the admission deadline).
        waited_ns: u64,
        /// Back-off hint: virtual nanoseconds after which a re-offer could
        /// clear the admission deadline — the pressure horizon minus the
        /// deadline budget.  A retry before `now + retry_after_ns` faces the
        /// same horizon and sheds again; open-loop drivers that re-offer
        /// shed requests honor this instead of hammering the window.
        retry_after_ns: u64,
    },
    /// A zero-length record was offered to a heap insert or update.  The
    /// redo log spells a delete as an update with no bytes, so an empty
    /// record could not be told from a tombstone on replay: refused before
    /// anything is written or logged.
    EmptyRecord,
}

impl std::fmt::Display for EngineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EngineError::Flash(e) => write!(f, "flash error: {e}"),
            EngineError::UnrecoverablePage { page, cause } => {
                write!(f, "page {page} unrecoverable from WAL replay after {cause}")
            }
            EngineError::Overloaded {
                waited_ns,
                retry_after_ns,
            } => {
                write!(
                    f,
                    "admission deadline exceeded ({waited_ns} ns of pressure ahead, retry after {retry_after_ns} ns)"
                )
            }
            EngineError::EmptyRecord => write!(f, "zero-length heap record refused"),
        }
    }
}

impl std::error::Error for EngineError {}

impl From<FlashError> for EngineError {
    fn from(e: FlashError) -> Self {
        EngineError::Flash(e)
    }
}

/// Lossy down-conversion so `FlashResult`-typed callers (the workload
/// drivers) keep propagating engine errors with `?`; direct engine callers
/// see the full typed error.
impl From<EngineError> for FlashError {
    fn from(e: EngineError) -> Self {
        match e {
            EngineError::Flash(e) => e,
            EngineError::UnrecoverablePage { cause, .. } => cause,
            // A shed transaction maps onto the device's transient BUSY
            // status — still typed, still retryable, no payload invented.
            EngineError::Overloaded { .. } => FlashError::Busy,
            // A record must hold at least one byte.
            EngineError::EmptyRecord => FlashError::BufferSizeMismatch {
                expected: 1,
                actual: 0,
            },
        }
    }
}

/// Result alias of the engine's DML entry points.
pub type EngineResult<T> = Result<T, EngineError>;

/// Engine construction parameters.
#[derive(Debug, Clone, Copy)]
pub struct EngineConfig {
    /// Buffer pool size in frames.
    pub buffer_frames: usize,
    /// Background db-writer configuration.
    pub flushers: FlusherConfig,
    /// Number of pages reserved at the top of the address space for the WAL.
    pub log_pages: u64,
    /// Group-commit factor: commits per WAL force (1 = force every commit).
    pub wal_group_commit: usize,
    /// Streaming-readahead window cap (pages) for heap scans and B+-tree
    /// range reads; 0 disables readahead.  Readahead only *issues* at an
    /// asynchronous depth > 1 — at depth 1 scans stay frame-at-a-time,
    /// bit- and cycle-identical to the pre-readahead path.  Defaults to
    /// [`DEFAULT_READAHEAD_WINDOW`].
    pub readahead_window: usize,
    /// Virtual CPU nanoseconds charged per buffer-pool hit.  Defaults to 0
    /// (hits are free, the historical model, and what every pinned trace
    /// assumes).  Benchmarks measuring multi-client interleavings set a small
    /// non-zero cost so a fully cached client still advances its virtual
    /// clock instead of replaying its whole workload at one instant.
    pub buffer_hit_ns: u64,
    /// Commit-admission window for [`StorageEngine::begin_admitted`]; `None`
    /// leaves admission unbounded (every begin admits immediately — the
    /// historical behaviour, and the default).
    pub admission: Option<AdmissionConfig>,
    /// Load-aware background scheduling: flusher waves defer to busy device
    /// queues and GC is proactively scheduled into read-cold instants.  Off,
    /// [`StorageEngine::maybe_flush`] is bit- and cycle-identical to the
    /// pre-SLO engine.  Defaults to off.
    pub slo_scheduling: bool,
}

impl EngineConfig {
    /// Reasonable defaults: 1024 frames, 4 global db-writers, 64 log pages,
    /// force-per-commit (group commit still batches the multi-page tail of
    /// each force; raising `wal_group_commit` additionally shares one force
    /// among several committing transactions), every `NOFTL_*` knob at its
    /// default.  [`crate::backend::StackConfig::engine`] is this under a
    /// given set of knobs.
    pub fn new() -> Self {
        Self {
            buffer_frames: 1024,
            flushers: FlusherConfig::global(4),
            log_pages: 64,
            wal_group_commit: 1,
            readahead_window: DEFAULT_READAHEAD_WINDOW,
            buffer_hit_ns: 0,
            admission: None,
            slo_scheduling: false,
        }
    }
}

impl Default for EngineConfig {
    fn default() -> Self {
        Self::new()
    }
}

/// The storage engine.
pub struct StorageEngine {
    backend: Box<dyn StorageBackend>,
    pool: ShardedBufferPool,
    fsm: FreeSpaceManager,
    wal: WalManager,
    txns: TransactionManager,
    /// One db-writer pool per buffer-pool shard, in shard-index order.
    flushers: Vec<FlusherPool>,
    catalog: Catalog,
    readahead_window: usize,
    /// Data pages reconstructed from WAL replay after an uncorrectable read.
    rescued_pages: u64,
    /// Commit-admission window (`None` = unbounded, the historical model).
    admission: Option<AdmissionControl>,
    /// Load-aware flusher-throttle / proactive-GC hooks in `maybe_flush`.
    slo_scheduling: bool,
}

impl StorageEngine {
    /// Create an engine over `backend` with a single buffer-pool shard.
    pub fn new(backend: Box<dyn StorageBackend>, config: EngineConfig) -> Self {
        Self::with_shards(backend, config, 1)
    }

    /// Create an engine whose `config.buffer_frames` are split over `shards`
    /// page-id-routed pool shards (at least two frames each), every shard
    /// with its own db-writer pool.
    pub(crate) fn with_shards(
        mut backend: Box<dyn StorageBackend>,
        config: EngineConfig,
        shards: usize,
    ) -> Self {
        // Several shards means several clients, whose virtual clocks drift
        // apart, so their commands reach the device out of timestamp order.
        // Gap-backfilling occupancy keeps the device from charging queue-wait
        // on resources that were provably idle at a laggard's submission
        // instant.  A single shard keeps the pinned ratchet (and thereby the
        // exact single-client traces).
        if shards > 1 {
            backend.set_backfill_occupancy(true);
        }
        let page_size = backend.page_size();
        let total_pages = backend.num_pages();
        assert!(
            total_pages > config.log_pages + 16,
            "backend too small for the requested log segment"
        );
        let data_pages = total_pages - config.log_pages;
        let mut wal = WalManager::new(data_pages, config.log_pages, page_size);
        wal.set_group_commit(config.wal_group_commit);
        // The WAL's group submissions and the pool's miss-fill reads join the
        // same asynchronous submission model as the db-writers, so log writes
        // and point reads overlap in-flight flush traffic on the device's
        // per-die queues.  The WAL batches whatever the writer assignment
        // (hence `run_pages()`, not `effective_batch_pages()`).
        wal.set_async_depth(config.flushers.async_depth);
        wal.set_batch_pages(config.flushers.run_pages());
        let mut pool = ShardedBufferPool::new(shards, config.buffer_frames, page_size);
        pool.set_async_depth(config.flushers.async_depth);
        pool.set_hit_cost_ns(config.buffer_hit_ns);
        let flushers = (0..pool.shard_count())
            .map(|_| {
                let mut f = FlusherPool::new(config.flushers);
                if config.slo_scheduling {
                    f.set_throttle_occupancy(DEFAULT_SLO_FLUSH_OCCUPANCY);
                }
                f
            })
            .collect();
        Self {
            pool,
            fsm: FreeSpaceManager::new(0, data_pages),
            wal,
            txns: TransactionManager::new(),
            flushers,
            catalog: Catalog::new(),
            readahead_window: config.readahead_window,
            rescued_pages: 0,
            admission: config.admission.map(AdmissionControl::new),
            slo_scheduling: config.slo_scheduling,
            backend,
        }
    }

    /// Page size of the underlying backend.
    pub fn page_size(&self) -> usize {
        self.backend.page_size()
    }

    /// Name of the storage stack in use.
    pub fn backend_name(&self) -> String {
        self.backend.name()
    }

    /// Number of physical regions the backend exposes.
    pub fn regions(&self) -> usize {
        self.backend.regions()
    }

    /// The sharded buffer pool (per-shard statistics and occupancy).
    pub fn pool(&self) -> &ShardedBufferPool {
        &self.pool
    }

    /// Buffer pool statistics, summed over shards.
    pub fn buffer_stats(&self) -> BufferStats {
        self.pool.stats()
    }

    /// Readahead statistics of the buffer pool (prefetch issued / useful /
    /// wasted, window high-water mark).
    pub fn readahead_stats(&self) -> ReadaheadStats {
        self.pool.readahead_stats()
    }

    /// Db-writer statistics, summed over the per-shard pools.
    pub fn flusher_stats(&self) -> FlusherStats {
        let mut total = FlusherStats::default();
        for f in &self.flushers {
            let s = f.stats();
            total.cycles += s.cycles;
            total.pages_flushed += s.pages_flushed;
            total.batch_submissions += s.batch_submissions;
            total.total_cycle_time += s.total_cycle_time;
            total.max_cycle_time = total.max_cycle_time.max(s.max_cycle_time);
        }
        total
    }

    /// Flusher-throttle statistics, summed over the per-shard pools (all
    /// zero unless `NOFTL_SLO` scheduling is on).
    pub fn throttle_stats(&self) -> ThrottleStats {
        let mut total = ThrottleStats::default();
        for f in &self.flushers {
            let s = f.throttle_stats();
            total.throttled_waves += s.throttled_waves;
            total.clear_waves += s.clear_waves;
        }
        total
    }

    /// Backend I/O counters.
    pub fn backend_counters(&self) -> BackendCounters {
        self.backend.counters()
    }

    /// Borrow the backend (downcasting / detailed statistics in benches).
    pub fn backend(&self) -> &dyn StorageBackend {
        self.backend.as_ref()
    }

    /// Mutably borrow the backend.
    pub fn backend_mut(&mut self) -> &mut dyn StorageBackend {
        self.backend.as_mut()
    }

    /// Tear the engine down and hand back the backend (crash-recovery legs
    /// re-run WAL recovery against the medium).
    pub fn into_backend(self) -> Box<dyn StorageBackend> {
        self.backend
    }

    /// Number of committed transactions.
    pub fn committed(&self) -> u64 {
        self.txns.committed()
    }

    /// Number of WAL forces (group commits).
    pub fn log_forces(&self) -> u64 {
        self.wal.forces()
    }

    // -- transactions -------------------------------------------------------

    /// Begin a transaction.
    pub fn begin(&mut self) -> TxnId {
        self.txns.begin(&mut self.wal)
    }

    /// Begin a transaction through the commit-admission window (the
    /// `NOFTL_SLO` overload policy).  With no window configured this is
    /// exactly [`StorageEngine::begin`] at `now`.  Otherwise the arrival
    /// waits on the virtual clock while the WAL group window is full or the
    /// dirty pool is over its high watermark — dirty pressure is actively
    /// relieved by running a flusher cycle — and an arrival whose pressure
    /// cannot clear before the admission deadline is shed with a typed
    /// [`EngineError::Overloaded`] (nothing begun, nothing logged).  Returns
    /// the transaction and the instant it was actually admitted (>= `now`;
    /// the difference is queueing delay the caller should charge to its
    /// latency, not hide).
    pub fn begin_admitted(&mut self, now: SimInstant) -> EngineResult<(TxnId, SimInstant)> {
        let Some(cfg) = self.admission.as_ref().map(|a| a.config()) else {
            return Ok((self.begin(), now));
        };
        let deadline = now.saturating_add(cfg.deadline_ns);
        let mut t = now;
        // Two relieving rounds bound the loop: one for the WAL horizon, one
        // for a flusher cycle — pressure still standing after both either
        // sheds (horizon past deadline) or admits (horizon cannot move, so
        // waiting longer would be a livelock, e.g. a zero-group window).
        for _ in 0..2 {
            let groups = self.wal.inflight_groups_at(t);
            let dirty = self.pool.dirty_fraction();
            if groups < cfg.max_inflight_groups && dirty < cfg.dirty_high_watermark {
                break;
            }
            let mut clear = self.wal.inflight_horizon(t);
            if dirty >= cfg.dirty_high_watermark {
                clear = clear.max(self.relieve_dirty(t)?);
            }
            if clear <= t {
                break;
            }
            if clear > deadline {
                if let Some(a) = self.admission.as_mut() {
                    a.note_shed();
                }
                return Err(EngineError::Overloaded {
                    waited_ns: clear - now,
                    // The earliest re-offer that could admit: by then the
                    // horizon sits within the deadline budget again.
                    retry_after_ns: (clear - now).saturating_sub(cfg.deadline_ns),
                });
            }
            t = clear;
        }
        if let Some(a) = self.admission.as_mut() {
            a.note_admitted(now, t);
        }
        Ok((self.begin(), t))
    }

    /// Relieve dirty pressure for an over-watermark admission: one flusher
    /// cycle on every shard at the same `now`, unconditionally (the admission
    /// watermark may sit below the flushers' own trigger).  Returns when the
    /// slowest shard's cycle is done.
    fn relieve_dirty(&mut self, now: SimInstant) -> FlashResult<SimInstant> {
        let mut t = now;
        for (flusher, shard) in self.flushers.iter_mut().zip(self.pool.shards_mut()) {
            t = t.max(flusher.run_cycle(shard, self.backend.as_mut(), now)?);
        }
        Ok(t)
    }

    /// Replace the commit-admission window (`None` disables admission
    /// control); resets the admission counters.
    pub fn set_admission(&mut self, config: Option<AdmissionConfig>) {
        self.admission = config.map(AdmissionControl::new);
    }

    /// Truthful admission counters (all zero when no window is configured).
    pub fn admission_stats(&self) -> AdmissionStats {
        self.admission.as_ref().map(|a| a.stats()).unwrap_or_default()
    }

    /// Commit a transaction (forces the WAL). Returns the completion time.
    pub fn commit(&mut self, txn: TxnId, now: SimInstant) -> FlashResult<SimInstant> {
        self.txns
            .commit(txn, &mut self.wal, self.backend.as_mut(), now)
    }

    /// Abort a transaction.
    pub fn abort(&mut self, txn: TxnId) {
        self.txns.abort(txn, &mut self.wal);
    }

    // -- DDL ----------------------------------------------------------------

    /// Create a heap table. Returns `false` if the name is taken.
    pub fn create_table(&mut self, name: &str) -> bool {
        self.catalog.add_table(HeapFile::new(name))
    }

    /// Create a B+-tree index. Returns `false` if the name is taken.
    pub fn create_index(&mut self, name: &str, now: SimInstant) -> FlashResult<bool> {
        if self.catalog.index(name).is_some() {
            return Ok(false);
        }
        let (tree, _) = BTree::create(&mut self.pool, self.backend.as_mut(), &mut self.fsm, now)?;
        Ok(self.catalog.add_index(name, tree))
    }

    /// Drop a table: free all its pages (dead-page hints to the backend).
    pub fn drop_table(&mut self, name: &str, now: SimInstant) -> FlashResult<bool> {
        let Some(table) = self.catalog.drop_table(name) else {
            return Ok(false);
        };
        for &page in table.pages() {
            self.free_page(page, now)?;
        }
        Ok(true)
    }

    /// Free one page: tell the free-space manager, drop it from the pool and
    /// hint the backend that the content is dead.
    pub fn free_page(&mut self, page: PageId, now: SimInstant) -> FlashResult<()> {
        self.fsm.free(page);
        self.pool.discard(page);
        self.backend.free_page_hint(now, page)
    }

    // -- DML ----------------------------------------------------------------
    //
    // Every DML entry point recovers from an uncorrectable page read (the
    // core's retry ladder already failed by the time the error gets here) by
    // reconstructing the page from WAL replay and retrying once; what cannot
    // be reconstructed surfaces as a typed [`EngineError`] — never a panic.

    /// Insert a record into `table`.
    pub fn insert(
        &mut self,
        table: &str,
        txn: TxnId,
        now: SimInstant,
        record: &[u8],
    ) -> EngineResult<(Rid, SimInstant)> {
        match self.try_insert(table, txn, now, record) {
            Err(EngineError::Flash(FlashError::UncorrectableEcc(_))) => {
                // The only page an insert reads is the cached append target.
                // Dropping the cache makes the retry allocate a fresh page;
                // the unreadable one is rescued lazily when next read.
                if let Some(heap) = self.catalog.table_mut(table) {
                    heap.forget_append_hint();
                }
                self.try_insert(table, txn, now, record)
            }
            r => r,
        }
    }

    fn try_insert(
        &mut self,
        table: &str,
        txn: TxnId,
        now: SimInstant,
        record: &[u8],
    ) -> EngineResult<(Rid, SimInstant)> {
        let heap = self
            .catalog
            .table_mut(table)
            .ok_or_else(|| FlashError::InvalidAddress {
                what: format!("unknown table {table}"),
            })?;
        heap.insert(
            &mut self.pool,
            self.backend.as_mut(),
            &mut self.fsm,
            &mut self.wal,
            txn,
            now,
            record,
        )
    }

    /// Read a record by RID.
    pub fn read(
        &mut self,
        table: &str,
        now: SimInstant,
        rid: Rid,
    ) -> EngineResult<(Option<Vec<u8>>, SimInstant)> {
        let mut out = Vec::new();
        let (found, t) = self.read_into(table, now, rid, &mut out)?;
        Ok((found.then_some(out), t))
    }

    /// Read a record by RID into the caller's buffer: `out` is cleared and,
    /// when the record exists (`true`), filled with its bytes — a driver that
    /// keeps one row buffer reads without allocating.
    pub fn read_into(
        &mut self,
        table: &str,
        now: SimInstant,
        rid: Rid,
        out: &mut Vec<u8>,
    ) -> EngineResult<(bool, SimInstant)> {
        match self.try_read_into(table, now, rid, out) {
            Err(EngineError::Flash(e @ FlashError::UncorrectableEcc(_))) => {
                let t = self.rescue_page(rid.page, now, e)?;
                self.try_read_into(table, t, rid, out)
            }
            r => r,
        }
    }

    fn try_read_into(
        &mut self,
        table: &str,
        now: SimInstant,
        rid: Rid,
        out: &mut Vec<u8>,
    ) -> EngineResult<(bool, SimInstant)> {
        let heap = self
            .catalog
            .table(table)
            .ok_or_else(|| FlashError::InvalidAddress {
                what: format!("unknown table {table}"),
            })?;
        Ok(heap.get(&mut self.pool, self.backend.as_mut(), now, rid, out)?)
    }

    /// Update a record by RID (the record may move; the new RID is returned).
    pub fn update(
        &mut self,
        table: &str,
        txn: TxnId,
        now: SimInstant,
        rid: Rid,
        record: &[u8],
    ) -> EngineResult<(Rid, SimInstant)> {
        match self.try_update(table, txn, now, rid, record) {
            Err(EngineError::Flash(e @ FlashError::UncorrectableEcc(_))) => {
                let t = self.rescue_page(rid.page, now, e)?;
                self.try_update(table, txn, t, rid, record)
            }
            r => r,
        }
    }

    fn try_update(
        &mut self,
        table: &str,
        txn: TxnId,
        now: SimInstant,
        rid: Rid,
        record: &[u8],
    ) -> EngineResult<(Rid, SimInstant)> {
        let heap = self
            .catalog
            .table_mut(table)
            .ok_or_else(|| FlashError::InvalidAddress {
                what: format!("unknown table {table}"),
            })?;
        heap.update(
            &mut self.pool,
            self.backend.as_mut(),
            &mut self.fsm,
            &mut self.wal,
            txn,
            now,
            rid,
            record,
        )
    }

    /// Delete a record by RID.
    pub fn delete(
        &mut self,
        table: &str,
        txn: TxnId,
        now: SimInstant,
        rid: Rid,
    ) -> EngineResult<(bool, SimInstant)> {
        match self.try_delete(table, txn, now, rid) {
            Err(EngineError::Flash(e @ FlashError::UncorrectableEcc(_))) => {
                let t = self.rescue_page(rid.page, now, e)?;
                self.try_delete(table, txn, t, rid)
            }
            r => r,
        }
    }

    fn try_delete(
        &mut self,
        table: &str,
        txn: TxnId,
        now: SimInstant,
        rid: Rid,
    ) -> EngineResult<(bool, SimInstant)> {
        let heap = self
            .catalog
            .table_mut(table)
            .ok_or_else(|| FlashError::InvalidAddress {
                what: format!("unknown table {table}"),
            })?;
        Ok(heap.delete(
            &mut self.pool,
            self.backend.as_mut(),
            &mut self.wal,
            txn,
            now,
            rid,
        )?)
    }

    /// Reconstruct a lost heap page from WAL replay.
    ///
    /// Heap DML is fully redo-logged ([`LogRecord::Update`] with the
    /// post-image; an empty byte vector is a delete), so replaying every
    /// in-memory log record for `page` in LSN order over an empty slotted
    /// page rebuilds its exact slot state — including aborted transactions'
    /// writes, which the redo-only engine leaves on pages too.  The rebuilt
    /// page is written back through the backend (the NoFTL backend remaps
    /// the logical page onto fresh flash; the unreadable physical page
    /// becomes invalid and is reclaimed by GC/scrubbing), the stale frame is
    /// discarded, and the caller retries.  Returns the virtual time after
    /// the rewrite, or [`EngineError::UnrecoverablePage`] when the log holds
    /// no history for the page (index pages are not redo-logged) or the
    /// replay diverges.
    fn rescue_page(
        &mut self,
        page: PageId,
        now: SimInstant,
        cause: FlashError,
    ) -> EngineResult<SimInstant> {
        let page_size = self.backend.page_size();
        let mut rebuilt = SlottedPage::new(page, page_size);
        let mut touched = false;
        for (_, record) in self.wal.records().iter() {
            let LogRecord::Update {
                page: p,
                slot,
                bytes,
                ..
            } = record
            else {
                continue;
            };
            if p != page {
                continue;
            }
            touched = true;
            let replayed = if bytes.is_empty() {
                // Deletes of already-dead slots are legal (idempotent replay).
                rebuilt.delete(slot);
                true
            } else if slot as usize == rebuilt.slot_count() {
                rebuilt.insert(bytes) == Some(slot)
            } else {
                rebuilt.update(slot, bytes) == Some(slot)
            };
            if !replayed {
                return Err(EngineError::UnrecoverablePage { page, cause });
            }
        }
        if !touched {
            return Err(EngineError::UnrecoverablePage { page, cause });
        }
        self.pool.discard(page);
        let c = self
            .backend
            .write_page(now, page, rebuilt.as_bytes())
            .map_err(EngineError::Flash)?;
        self.rescued_pages += 1;
        Ok(c.completed_at)
    }

    /// Pages reconstructed from WAL replay after uncorrectable reads.
    pub fn rescued_pages(&self) -> u64 {
        self.rescued_pages
    }

    /// Scan a whole table.  Sequential page runs stream through the
    /// readahead pipeline when `readahead_window` > 0 and the asynchronous
    /// depth > 1 (frame-at-a-time otherwise).
    pub fn scan(
        &mut self,
        table: &str,
        now: SimInstant,
        visit: impl FnMut(Rid, &[u8]),
    ) -> FlashResult<(u64, SimInstant)> {
        let heap = self
            .catalog
            .table(table)
            .ok_or_else(|| FlashError::InvalidAddress {
                what: format!("unknown table {table}"),
            })?;
        let mut ra = ScanPrefetcher::new(self.readahead_window, self.pool.async_depth());
        heap.scan_with_readahead(&mut self.pool, self.backend.as_mut(), &mut ra, now, visit)
    }

    // -- index access -------------------------------------------------------

    /// Insert into an index.
    pub fn index_insert(
        &mut self,
        index: &str,
        now: SimInstant,
        key: u64,
        value: u64,
    ) -> FlashResult<(Option<u64>, SimInstant)> {
        let tree = self
            .catalog
            .index_mut(index)
            .ok_or_else(|| FlashError::InvalidAddress {
                what: format!("unknown index {index}"),
            })?;
        tree.insert(
            &mut self.pool,
            self.backend.as_mut(),
            &mut self.fsm,
            now,
            key,
            value,
        )
    }

    /// Look up a key in an index.
    pub fn index_get(
        &mut self,
        index: &str,
        now: SimInstant,
        key: u64,
    ) -> FlashResult<(Option<u64>, SimInstant)> {
        let tree = self
            .catalog
            .index(index)
            .ok_or_else(|| FlashError::InvalidAddress {
                what: format!("unknown index {index}"),
            })?;
        tree.get(&mut self.pool, self.backend.as_mut(), now, key)
    }

    /// Range scan `[lo, hi]` in an index.  The leaf chain streams through
    /// the readahead pipeline when `readahead_window` > 0 and the
    /// asynchronous depth > 1 (frame-at-a-time otherwise).
    pub fn index_range(
        &mut self,
        index: &str,
        now: SimInstant,
        lo: u64,
        hi: u64,
        visit: impl FnMut(u64, u64),
    ) -> FlashResult<(u64, SimInstant)> {
        let tree = self
            .catalog
            .index(index)
            .ok_or_else(|| FlashError::InvalidAddress {
                what: format!("unknown index {index}"),
            })?;
        let mut ra = ScanPrefetcher::new(self.readahead_window, self.pool.async_depth());
        tree.range_with_readahead(&mut self.pool, self.backend.as_mut(), &mut ra, now, lo, hi, visit)
    }

    // -- background work ----------------------------------------------------

    /// Let the db-writers of each shard whose dirty-page watermark is
    /// exceeded run.  Returns the time after the slowest flush cycle (or
    /// `now` if nothing ran).
    ///
    /// Under `NOFTL_SLO` scheduling this wave additionally defers to a busy
    /// device queue ([`FlusherPool::throttled_wave`]) and, after the flush
    /// decision, offers the backend a proactive GC step into the current
    /// instant if it is read-cold
    /// ([`StorageBackend::schedule_background_gc`]) followed by one bounded
    /// online-rebuild step ([`StorageBackend::schedule_rebuild`]) when a die
    /// has failed, so lost pages are reconstructed as background work paced
    /// by foreground load.  Background cost reaches the foreground only
    /// through device-queue occupancy, never this return value.  With
    /// scheduling off none of the hooks run — the path is identical to the
    /// pre-SLO engine.
    pub fn maybe_flush(&mut self, now: SimInstant) -> FlashResult<SimInstant> {
        // Every shard's wave starts at the same `now`; the slowest one is
        // when the flush is done.
        let mut t = now;
        for (flusher, shard) in self.flushers.iter_mut().zip(self.pool.shards_mut()) {
            if flusher.should_flush(shard)
                && !flusher.throttled_wave(shard, self.backend.as_ref(), now)
            {
                t = t.max(flusher.run_cycle(shard, self.backend.as_mut(), now)?);
            }
        }
        if self.slo_scheduling {
            self.backend.schedule_background_gc(t)?;
            self.backend.schedule_rebuild(t)?;
        }
        Ok(t)
    }

    /// Barrier over all asynchronous submissions — every shard's db-writer
    /// windows, then every shard's miss-fill reads, then the WAL window, then
    /// the backend's device queues, each stage folding the previous stage's
    /// barrier instant forward: the instant by which everything in flight
    /// has completed (at least `now`).  A no-op under the synchronous model.
    pub fn quiesce(&mut self, now: SimInstant) -> SimInstant {
        let mut t = now;
        for f in &mut self.flushers {
            t = t.max(f.drain(now));
        }
        let t = self.pool.drain_reads(t);
        let t = self.wal.drain(t);
        self.backend.drain(t)
    }

    /// Always empty ([`StorageBackend::poll_completions`]): each queued
    /// submission's completion is the return value of the call that issued
    /// it.  Kept only because the `perf` suite still calls it.
    pub fn poll_completions(&mut self) -> Vec<nand_flash::QueuedCompletion> {
        self.backend.poll_completions()
    }

    /// Force a full flush of every dirty page plus a WAL force (checkpoint).
    /// Quiesces in-flight asynchronous submissions first so the checkpoint
    /// really covers everything submitted before it, and advances the WAL's
    /// start-of-log pointer — everything logged before the checkpoint is now
    /// redundant, so recovery of a wrapped log segment can start its scan
    /// here ([`WalManager::recover_records_from`]).
    pub fn checkpoint(&mut self, now: SimInstant) -> FlashResult<SimInstant> {
        let now = self.quiesce(now);
        let t = self.wal.flush(self.backend.as_mut(), now)?;
        let t = self.pool.flush_all(self.backend.as_mut(), t)?;
        self.wal.append(crate::wal::LogRecord::Checkpoint);
        let t = self.wal.flush(self.backend.as_mut(), t)?;
        self.wal.note_checkpoint();
        Ok(t)
    }

    /// Dirty fraction of the whole buffer pool (drivers use this to decide
    /// when to trigger [`StorageEngine::maybe_flush`]).
    pub fn dirty_fraction(&self) -> f64 {
        self.pool.dirty_fraction()
    }

    /// Borrow the WAL (recovery tests).
    pub fn wal(&self) -> &WalManager {
        &self.wal
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::{MemBackend, NoFtlBackend};
    use nand_flash::FlashGeometry;
    use noftl_core::{NoFtl, NoFtlConfig};

    fn mem_engine() -> StorageEngine {
        let backend = MemBackend::new(4096, 4096);
        let mut cfg = EngineConfig::new();
        cfg.buffer_frames = 64;
        StorageEngine::new(Box::new(backend), cfg)
    }

    fn noftl_engine() -> StorageEngine {
        let noftl = NoFtl::new(NoFtlConfig::new(FlashGeometry::small()));
        let mut cfg = EngineConfig::new();
        cfg.buffer_frames = 64;
        cfg.flushers = FlusherConfig::die_wise(4);
        StorageEngine::new(Box::new(NoFtlBackend::new(noftl)), cfg)
    }

    #[test]
    fn wal_takes_its_depth_and_batch_size_from_the_flusher_config() {
        // Three commits of two log pages each; what stays in the WAL's
        // in-flight window afterwards tells its depth and batch size apart.
        let inflight_after_three_forces = |depth: usize, batch_pages: usize| {
            let mut cfg = EngineConfig::new();
            cfg.flushers.async_depth = depth;
            cfg.flushers.batch_pages = batch_pages;
            let mut e = StorageEngine::new(Box::new(MemBackend::new(4096, 4096)), cfg);
            e.create_table("t");
            for _ in 0..3 {
                let txn = e.begin();
                let (_, t) = e.insert("t", txn, 0, &[7u8; 3000]).unwrap();
                let (_, t) = e.insert("t", txn, t, &[8u8; 3000]).unwrap();
                e.commit(txn, t).unwrap();
            }
            assert_eq!(e.log_forces(), 3);
            e.wal().inflight_writes()
        };
        // Global writers (the default) never batch, yet the WAL does: it
        // takes `run_pages()`, one submission per force.
        assert_eq!(inflight_after_three_forces(1, 64), 1, "sync: nothing carries over");
        assert_eq!(inflight_after_three_forces(8, 64), 3, "depth 8: one group per force");
        assert_eq!(inflight_after_three_forces(8, 0), 6, "batching off: one per log page");
    }

    #[test]
    fn begin_admitted_without_window_is_plain_begin() {
        let mut e = mem_engine();
        e.create_table("t");
        let (txn, t) = e.begin_admitted(500).unwrap();
        assert_eq!(t, 500, "no window: admitted exactly at arrival");
        let (_, t) = e.insert("t", txn, t, b"x").unwrap();
        e.commit(txn, t).unwrap();
        assert_eq!(e.admission_stats(), AdmissionStats::default());
    }

    #[test]
    fn begin_admitted_waits_out_dirty_pressure_and_counts_the_delay() {
        let mut e = noftl_engine();
        e.create_table("t");
        let txn = e.begin();
        let mut t = 0;
        for i in 0..20u64 {
            // Page-sized rows: each insert dirties a fresh heap page.
            let (_, t2) = e.insert("t", txn, t, &vec![i as u8; 3000]).unwrap();
            t = t2;
        }
        assert!(e.dirty_fraction() > 0.2, "fixture must build dirty pressure");
        e.set_admission(Some(AdmissionConfig {
            max_inflight_groups: usize::MAX,
            dirty_high_watermark: 0.2,
            deadline_ns: u64::MAX,
        }));
        let (txn2, admitted_at) = e.begin_admitted(t).unwrap();
        assert!(admitted_at > t, "the relieving flush must cost virtual time");
        let s = e.admission_stats();
        assert_eq!(s.admitted, 1);
        assert_eq!(s.delayed, 1);
        assert_eq!(s.total_delay_ns, admitted_at - t);
        assert!(e.flusher_stats().pages_flushed > 0, "pressure relieved by flushing");
        let t = e.commit(txn, admitted_at).unwrap();
        e.commit(txn2, t).unwrap();
    }

    #[test]
    fn begin_admitted_sheds_past_deadline_with_typed_error() {
        let mut e = noftl_engine();
        e.create_table("t");
        let txn = e.begin();
        let mut t = 0;
        for i in 0..20u64 {
            let (_, t2) = e.insert("t", txn, t, &vec![i as u8; 3000]).unwrap();
            t = t2;
        }
        e.set_admission(Some(AdmissionConfig {
            max_inflight_groups: usize::MAX,
            dirty_high_watermark: 0.2,
            deadline_ns: 1,
        }));
        match e.begin_admitted(t) {
            Err(EngineError::Overloaded {
                waited_ns,
                retry_after_ns,
            }) => {
                assert!(waited_ns > 1, "the wait that triggered the shed is reported");
                assert_eq!(
                    retry_after_ns,
                    waited_ns - 1,
                    "the back-off hint is the horizon minus the deadline budget"
                );
            }
            other => panic!("expected Overloaded, got {other:?}"),
        }
        let s = e.admission_stats();
        assert_eq!(s.shed, 1);
        assert_eq!(s.admitted, 0, "a shed arrival is not admitted");
        assert!(matches!(
            FlashError::from(EngineError::Overloaded {
                waited_ns: 7,
                retry_after_ns: 3
            }),
            FlashError::Busy
        ));
    }

    #[test]
    fn zero_group_window_admits_when_nothing_can_clear() {
        // Watermark 0 on an idle engine: over pressure by definition, but the
        // horizon cannot move, so the arrival admits instead of livelocking.
        let mut e = mem_engine();
        e.set_admission(Some(AdmissionConfig {
            max_inflight_groups: 0,
            dirty_high_watermark: 1.1,
            deadline_ns: 1000,
        }));
        let (_, admitted_at) = e.begin_admitted(42).unwrap();
        assert_eq!(admitted_at, 42);
        let s = e.admission_stats();
        assert_eq!(s.admitted, 1);
        assert_eq!(s.delayed, 0);
    }

    #[test]
    fn create_insert_read_commit() {
        let mut e = mem_engine();
        assert!(e.create_table("accounts"));
        assert!(!e.create_table("accounts"));
        let txn = e.begin();
        let (rid, t) = e.insert("accounts", txn, 0, b"acct-1").unwrap();
        let t = e.commit(txn, t).unwrap();
        let (val, _) = e.read("accounts", t, rid).unwrap();
        assert_eq!(val.unwrap(), b"acct-1");
        assert_eq!(e.committed(), 1);
        assert!(e.log_forces() >= 1);
    }

    #[test]
    fn unknown_table_is_an_error() {
        let mut e = mem_engine();
        let txn = e.begin();
        assert!(e.insert("nope", txn, 0, b"x").is_err());
        assert!(e.read("nope", 0, Rid { page: 0, slot: 0 }).is_err());
    }

    #[test]
    fn update_and_delete_roundtrip() {
        let mut e = mem_engine();
        e.create_table("t");
        let txn = e.begin();
        let (rid, _) = e.insert("t", txn, 0, b"v1").unwrap();
        let (rid, _) = e.update("t", txn, 0, rid, b"v2").unwrap();
        let (val, _) = e.read("t", 0, rid).unwrap();
        assert_eq!(val.unwrap(), b"v2");
        let (deleted, _) = e.delete("t", txn, 0, rid).unwrap();
        assert!(deleted);
        let (gone, _) = e.read("t", 0, rid).unwrap();
        assert!(gone.is_none());
    }

    #[test]
    fn index_operations_through_engine() {
        let mut e = mem_engine();
        e.create_index("pk", 0).unwrap();
        assert!(!e.create_index("pk", 0).unwrap());
        for k in 0..200u64 {
            e.index_insert("pk", 0, k, k * 3).unwrap();
        }
        let (v, _) = e.index_get("pk", 0, 77).unwrap();
        assert_eq!(v, Some(231));
        let mut count = 0;
        e.index_range("pk", 0, 10, 19, |_, _| count += 1).unwrap();
        assert_eq!(count, 10);
    }

    #[test]
    fn flushers_run_on_dirty_watermark() {
        let mut e = mem_engine();
        e.create_table("t");
        let txn = e.begin();
        // Dirty lots of pages with large records.
        let rec = vec![1u8; 2000];
        let mut now = 0;
        for _ in 0..80 {
            let (_, t) = e.insert("t", txn, now, &rec).unwrap();
            now = t;
        }
        assert!(e.dirty_fraction() > 0.0);
        let before = e.flusher_stats().cycles;
        // Force the watermark by checking: with 64 frames and ~40 pages dirty
        // the 50% watermark should have been crossed.
        let t = e.maybe_flush(now).unwrap();
        let _ = t;
        assert!(
            e.flusher_stats().cycles > before || e.dirty_fraction() < 0.5,
            "flush cycle should have run once the watermark was crossed"
        );
    }

    #[test]
    fn group_commit_defers_until_group_fills() {
        let backend = MemBackend::new(4096, 4096);
        let mut cfg = EngineConfig::new();
        cfg.buffer_frames = 64;
        cfg.wal_group_commit = 4;
        let mut e = StorageEngine::new(Box::new(backend), cfg);
        e.create_table("t");
        let mut now = 0;
        for _ in 0..3 {
            let txn = e.begin();
            let (_, t) = e.insert("t", txn, now, b"row").unwrap();
            now = e.commit(txn, t).unwrap();
        }
        assert_eq!(e.log_forces(), 0, "3 commits stay pending under group=4");
        let txn = e.begin();
        let (_, t) = e.insert("t", txn, now, b"row4").unwrap();
        now = e.commit(txn, t).unwrap();
        assert_eq!(e.log_forces(), 1, "4th commit fills the group");
        assert_eq!(e.committed(), 4);
        // A checkpoint forces whatever group is pending.
        let txn = e.begin();
        let (_, t) = e.insert("t", txn, now, b"row5").unwrap();
        now = e.commit(txn, t).unwrap();
        e.checkpoint(now).unwrap();
        assert_eq!(e.wal().flushed_lsn(), e.wal().current_lsn());
    }

    #[test]
    fn async_flush_submits_through_the_device_queues_and_quiesces() {
        use crate::flusher::FlusherConfig;
        use noftl_core::FlusherAssignment;

        let noftl = NoFtl::new(NoFtlConfig::new(FlashGeometry::small()));
        let mut backend = NoFtlBackend::new(noftl);
        backend.set_async_depth(8);
        let mut cfg = EngineConfig::new();
        cfg.buffer_frames = 64;
        cfg.flushers = FlusherConfig {
            writers: 2,
            assignment: FlusherAssignment::DieWise,
            dirty_high_watermark: 0.1,
            dirty_low_watermark: 0.0,
            batch_pages: 8,
            batch_global: false,
            async_depth: 8,
        };
        let mut e = StorageEngine::new(Box::new(backend), cfg);
        e.create_table("t");
        let txn = e.begin();
        let rec = vec![1u8; 2000];
        let mut now = 0;
        for _ in 0..40 {
            let (_, t) = e.insert("t", txn, now, &rec).unwrap();
            now = t;
        }
        let submitted = e.maybe_flush(now).unwrap();
        // The flush went through the queued interface: its runs are still in
        // flight on the device queues when the last one was handed over.
        assert!(
            e.backend().queue_occupancy(submitted) > 0,
            "async flush must queue"
        );
        assert!(
            e.poll_completions().is_empty(),
            "completions are returned, not streamed"
        );
        // Quiesce barriers everything in flight (fills, flush runs, WAL).
        let done = e.quiesce(submitted);
        assert!(done >= submitted);
        assert_eq!(e.quiesce(done), done, "drained engine quiesces to now");
    }

    #[test]
    fn scan_readahead_streams_and_beats_frame_at_a_time() {
        use crate::flusher::FlusherConfig;
        use noftl_core::FlusherAssignment;

        // Two identical NoFTL engines at async depth 8 — one frame-at-a-time
        // (window 0), one with streaming readahead.  The pool is far smaller
        // than the table, so the scan misses most pages.
        let run = |window: usize| -> (u64, Vec<u8>, crate::buffer::ReadaheadStats) {
            let geometry = FlashGeometry::with_dies(8, 64, 32, 4096);
            let mut noftl_cfg = NoFtlConfig::new(geometry);
            noftl_cfg.async_queue_depth = 8;
            let mut cfg = EngineConfig::new();
            cfg.buffer_frames = 64;
            cfg.readahead_window = window;
            cfg.flushers = FlusherConfig {
                writers: 2,
                assignment: FlusherAssignment::DieWise,
                dirty_high_watermark: 0.4,
                dirty_low_watermark: 0.05,
                batch_pages: 64,
                batch_global: false,
                async_depth: 8,
            };
            let mut e = StorageEngine::new(Box::new(NoFtlBackend::new(NoFtl::new(noftl_cfg))), cfg);
            e.create_table("t");
            let txn = e.begin();
            let mut now = 0;
            for i in 0..800u64 {
                let mut rec = vec![0u8; 1000];
                rec[..8].copy_from_slice(&i.to_le_bytes());
                let (_, t) = e.insert("t", txn, now, &rec).unwrap();
                now = t;
                if i % 64 == 0 {
                    now = e.maybe_flush(now).unwrap();
                }
            }
            now = e.commit(txn, now).unwrap();
            now = e.checkpoint(now).unwrap();
            let mut seen = Vec::new();
            let (count, end) = e.scan("t", now, |_, r| seen.push(r[0])).unwrap();
            assert_eq!(count, 800);
            let end = e.quiesce(end);
            (end - now, seen, e.readahead_stats())
        };
        let (frame_at_a_time, seen_base, ra_base) = run(0);
        let (streamed, seen_ra, ra_on) = run(32);
        assert_eq!(seen_base, seen_ra, "readahead must not change the record sequence");
        assert_eq!(ra_base.prefetch_issued, 0, "window 0 must never prefetch");
        assert!(ra_on.prefetch_issued > 0, "readahead must issue prefetch batches");
        assert!(
            ra_on.prefetch_wasted * 10 <= ra_on.prefetch_issued,
            "a sequential scan must waste <10% of its prefetches ({} of {})",
            ra_on.prefetch_wasted,
            ra_on.prefetch_issued
        );
        assert!(
            frame_at_a_time as f64 / streamed as f64 >= 2.0,
            "streaming readahead must be >=2x on an 8-die scan: {frame_at_a_time} vs {streamed}"
        );
    }

    #[test]
    fn index_range_readahead_preserves_key_sequence() {
        use crate::flusher::FlusherConfig;
        use noftl_core::FlusherAssignment;

        let run = |window: usize| -> (Vec<u64>, crate::buffer::ReadaheadStats) {
            let geometry = FlashGeometry::with_dies(8, 64, 32, 4096);
            let mut noftl_cfg = NoFtlConfig::new(geometry);
            noftl_cfg.async_queue_depth = 8;
            let mut cfg = EngineConfig::new();
            // Far fewer frames than the tree has leaves: the range walk
            // misses most of the chain.
            cfg.buffer_frames = 8;
            cfg.readahead_window = window;
            cfg.flushers = FlusherConfig {
                writers: 2,
                assignment: FlusherAssignment::DieWise,
                dirty_high_watermark: 0.4,
                dirty_low_watermark: 0.05,
                batch_pages: 64,
                batch_global: false,
                async_depth: 8,
            };
            let mut e = StorageEngine::new(Box::new(NoFtlBackend::new(NoFtl::new(noftl_cfg))), cfg);
            e.create_index("pk", 0).unwrap();
            let mut now = 0;
            for k in 0..4000u64 {
                let (_, t) = e.index_insert("pk", now, k, k * 3).unwrap();
                now = t;
            }
            now = e.checkpoint(now).unwrap();
            let mut keys = Vec::new();
            let (_, end) = e
                .index_range("pk", now, 500, 3500, |k, v| {
                    assert_eq!(v, k * 3);
                    keys.push(k);
                })
                .unwrap();
            e.quiesce(end);
            (keys, e.readahead_stats())
        };
        let (keys_base, _) = run(0);
        let (keys_ra, ra_on) = run(64);
        assert_eq!(keys_base, keys_ra, "readahead must not change the key sequence");
        assert_eq!(keys_base.len(), 3001);
        assert!(
            ra_on.prefetch_issued > 0,
            "the leaf chain must stream through the prefetcher"
        );
    }

    #[test]
    fn checkpoint_makes_everything_durable() {
        let mut e = mem_engine();
        e.create_table("t");
        let txn = e.begin();
        let (rid, t) = e.insert("t", txn, 0, b"durable").unwrap();
        let t = e.checkpoint(t).unwrap();
        assert_eq!(e.dirty_fraction(), 0.0);
        // Data must be readable through a fresh read (backend has it).
        let (val, _) = e.read("t", t, rid).unwrap();
        assert_eq!(val.unwrap(), b"durable");
    }

    #[test]
    fn drop_table_sends_dead_page_hints_to_noftl() {
        let mut e = noftl_engine();
        e.create_table("temp");
        let txn = e.begin();
        let rec = vec![9u8; 1000];
        let mut now = 0;
        for _ in 0..30 {
            let (_, t) = e.insert("temp", txn, now, &rec).unwrap();
            now = t;
        }
        let now = e.checkpoint(now).unwrap();
        e.drop_table("temp", now).unwrap();
        // The NoFTL backend must have received dead-page hints.
        let counters_name = e.backend_name();
        assert_eq!(counters_name, "noftl");
        // Downcast via the known concrete type is not possible through the
        // trait object; the hint count is visible indirectly: freed pages are
        // reusable without GC copying them, which the integration tests and
        // the GC-overhead bench verify quantitatively.
        assert!(e.backend_counters().host_writes > 0);
    }

    /// MemBackend wrapper that makes chosen pages unreadable until they are
    /// rewritten — the shape of a page lost to uncorrectable ECC, where the
    /// NoFTL backend remaps the logical page onto fresh flash on rewrite.
    struct UnreadableBackend {
        inner: MemBackend,
        bad: std::sync::Arc<std::sync::Mutex<std::collections::HashSet<PageId>>>,
    }

    impl StorageBackend for UnreadableBackend {
        fn name(&self) -> String {
            "unreadable-mem".into()
        }

        fn page_size(&self) -> usize {
            self.inner.page_size()
        }

        fn num_pages(&self) -> u64 {
            self.inner.num_pages()
        }

        fn read_page(
            &mut self,
            now: SimInstant,
            page_id: u64,
            buf: &mut [u8],
        ) -> FlashResult<nand_flash::OpCompletion> {
            if self.bad.lock().unwrap().contains(&page_id) {
                return Err(FlashError::UncorrectableEcc(
                    nand_flash::BlockAddr::new(0, 0, 0, 0).page(0),
                ));
            }
            self.inner.read_page(now, page_id, buf)
        }

        fn write_page(
            &mut self,
            now: SimInstant,
            page_id: u64,
            data: &[u8],
        ) -> FlashResult<nand_flash::OpCompletion> {
            self.bad.lock().unwrap().remove(&page_id);
            self.inner.write_page(now, page_id, data)
        }

        fn free_page_hint(&mut self, now: SimInstant, page_id: u64) -> FlashResult<()> {
            self.inner.free_page_hint(now, page_id)
        }

        fn counters(&self) -> BackendCounters {
            self.inner.counters()
        }

        fn reset_counters(&mut self) {
            self.inner.reset_counters()
        }
    }

    #[test]
    fn uncorrectable_heap_page_is_rescued_from_wal_replay() {
        let bad = std::sync::Arc::new(std::sync::Mutex::new(std::collections::HashSet::new()));
        let backend = UnreadableBackend {
            inner: MemBackend::new(4096, 4096),
            bad: bad.clone(),
        };
        let mut cfg = EngineConfig::new();
        cfg.buffer_frames = 8;
        let mut e = StorageEngine::new(Box::new(backend), cfg);
        e.create_table("t");
        // ~2 KiB records: two per page, 20 pages total — far beyond the
        // 8-frame pool, so early pages get evicted.
        let txn = e.begin();
        let mut rids = Vec::new();
        let mut now = 0;
        for i in 0..40u8 {
            let (rid, t) = e.insert("t", txn, now, &vec![i; 2000]).unwrap();
            now = t;
            rids.push(rid);
        }
        now = e.commit(txn, now).unwrap();
        // Give the victim page a non-trivial history: an update and a delete.
        let txn = e.begin();
        let (rid1, t) = e.update("t", txn, now, rids[1], &vec![0xEE; 2000]).unwrap();
        let (_, t) = e.delete("t", txn, t, rids[0]).unwrap();
        now = e.commit(txn, t).unwrap();
        // Cycle the pool so the victim page is evicted (written back): 16
        // distinct later pages through an 8-frame pool.
        for rid in rids.iter().rev().take(32) {
            let (_, t) = e.read("t", now, *rid).unwrap();
            now = t;
        }
        // The page rots on flash: the next read gets uncorrectable ECC.
        bad.lock().unwrap().insert(rids[0].page);
        let (v, t) = e.read("t", now, rid1).unwrap();
        assert_eq!(v.unwrap(), vec![0xEE; 2000], "rescued page serves the updated record");
        assert_eq!(e.rescued_pages(), 1, "exactly one WAL-replay rescue");
        let (gone, _) = e.read("t", t, rids[0]).unwrap();
        assert!(gone.is_none(), "deleted record stays deleted after the rescue");
        assert!(
            !bad.lock().unwrap().contains(&rids[0].page),
            "the rescue rewrote the page through the backend"
        );
    }

    #[test]
    fn zero_length_record_is_refused_and_its_page_stays_rescuable() {
        // The WAL spells a delete as an update with no bytes, so a logged
        // empty record would replay as a tombstone and the rebuilt page's
        // slots would diverge from the live page's.
        let bad = std::sync::Arc::new(std::sync::Mutex::new(std::collections::HashSet::new()));
        let backend = UnreadableBackend {
            inner: MemBackend::new(4096, 4096),
            bad: bad.clone(),
        };
        let mut cfg = EngineConfig::new();
        cfg.buffer_frames = 8;
        let mut e = StorageEngine::new(Box::new(backend), cfg);
        e.create_table("t");
        let txn = e.begin();
        let logged = e.wal().current_lsn();
        assert_eq!(e.insert("t", txn, 0, &[]), Err(EngineError::EmptyRecord));
        let mut rids = Vec::new();
        let mut now = 0;
        for i in 0..40u8 {
            let (rid, t) = e.insert("t", txn, now, &vec![i; 2000]).unwrap();
            now = t;
            rids.push(rid);
        }
        let before_update = e.wal().current_lsn();
        assert_eq!(
            e.update("t", txn, now, rids[0], &[]),
            Err(EngineError::EmptyRecord),
            "an empty update would be replayed as a delete"
        );
        assert_eq!(e.wal().current_lsn(), before_update, "a refused record logs nothing");
        assert!(before_update > logged);
        now = e.commit(txn, now).unwrap();
        // Evict the first page, then let it rot on flash.
        for rid in rids.iter().rev().take(32) {
            let (_, t) = e.read("t", now, *rid).unwrap();
            now = t;
        }
        bad.lock().unwrap().insert(rids[0].page);
        let (v, _) = e.read("t", now, rids[0]).unwrap();
        assert_eq!(v.unwrap(), vec![0u8; 2000], "the page is rebuilt from its log records");
        assert_eq!(e.rescued_pages(), 1);
    }

    #[test]
    fn unrescuable_page_surfaces_a_typed_error() {
        let bad = std::sync::Arc::new(std::sync::Mutex::new(std::collections::HashSet::new()));
        let backend = UnreadableBackend {
            inner: MemBackend::new(4096, 4096),
            bad: bad.clone(),
        };
        let mut cfg = EngineConfig::new();
        cfg.buffer_frames = 8;
        let mut e = StorageEngine::new(Box::new(backend), cfg);
        e.create_index("pk", 0).unwrap();
        let mut now = 0;
        // Enough keys that the tree has internal + leaf pages beyond the pool.
        for k in 0..2000u64 {
            let (_, t) = e.index_insert("pk", now, k, k).unwrap();
            now = t;
        }
        // Index pages are not redo-logged, so an unreadable one cannot be
        // rebuilt; the engine's rescue refuses rather than fabricating data.
        // (index_get itself propagates the raw flash error — drive the rescue
        // directly to pin the typed refusal.)
        let err = e.rescue_page(3, now, FlashError::UncorrectableEcc(
            nand_flash::BlockAddr::new(0, 0, 0, 0).page(0),
        ));
        assert!(
            matches!(err, Err(EngineError::UnrecoverablePage { page: 3, .. })),
            "a page with no WAL history must be a typed unrecoverable error: {err:?}"
        );
        assert_eq!(e.rescued_pages(), 0);
    }

    #[test]
    fn end_to_end_on_noftl_backend() {
        let mut e = noftl_engine();
        e.create_table("orders");
        e.create_index("orders_pk", 0).unwrap();
        let mut now = 0;
        let mut rids = Vec::new();
        for i in 0..200u64 {
            let txn = e.begin();
            let rec = format!("order-{i}");
            let (rid, t) = e.insert("orders", txn, now, rec.as_bytes()).unwrap();
            let (_, t) = e.index_insert("orders_pk", t, i, rid.page).unwrap();
            now = e.commit(txn, t).unwrap();
            now = e.maybe_flush(now).unwrap();
            rids.push((i, rid, rec));
        }
        for (i, rid, rec) in &rids {
            let (val, t) = e.read("orders", now, *rid).unwrap();
            assert_eq!(val.unwrap(), rec.as_bytes());
            let (page, t2) = e.index_get("orders_pk", t, *i).unwrap();
            assert_eq!(page, Some(rid.page));
            now = t2;
        }
        assert_eq!(e.committed(), 200);
        assert!(e.backend_counters().host_writes > 0);
    }
}

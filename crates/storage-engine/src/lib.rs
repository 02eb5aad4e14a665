//! # storage-engine
//!
//! A Shore-MT-like storage engine: the DBMS substrate the paper integrates
//! NoFTL into (§3.3).  It provides slotted pages, a buffer pool with
//! background db-writers, a free-space manager, ARIES-style write-ahead
//! logging, transactions, heap files and B+-tree indexes — and, crucially,
//! a pluggable [`backend::StorageBackend`] with three concrete stacks:
//!
//! * **Cooked/raw block device** — an FTL-based SSD behind the legacy block
//!   interface ([`backend::BlockDeviceBackend`], Figure 1.a/1.b);
//! * **NoFTL native Flash** — DBMS-integrated Flash management
//!   ([`backend::NoFtlBackend`], Figure 1.c);
//! * **In-memory** — zero-latency backend used to record page-level traces
//!   (the paper's Figure 3 methodology).
//!
//! The db-writer (background flusher) subsystem supports both the
//! conventional *global* page assignment and the paper's *Flash-aware
//! (die-wise)* assignment (§3.2), which is what the Figure 4 experiment
//! varies.
//!
//! ## One representation of a page
//!
//! A page exists once: as the bytes of the buffer-pool frame that pins it.
//! [`page::SlottedPage`] and the B+-tree's node are views over those bytes —
//! `&[u8]` inside `with_page`, `&mut [u8]` inside `with_page_mut` /
//! `new_page` — that read and write them in place (slot directory from the
//! front and payload from the back; keys after the node header and values /
//! children at a fixed second offset).  There is no owned page object to
//! decode into or encode from; the only owned copies are the rare ones the
//! algorithms need (the image of a node about to split, a compaction's
//! scratch, the page the engine rebuilds from the WAL).
//!
//! ## The batched multi-page write path
//!
//! [`backend::StorageBackend::write_pages`] submits a whole run of pages as
//! one call.  The protocol, top to bottom:
//!
//! * **Flushers** ([`flusher`]) — a die-wise db-writer collects its run of
//!   dirty pages and submits it straight out of the buffer-pool arena
//!   ([`buffer::BufferPool::with_pinned_pages`], no per-page copy; the
//!   legacy per-page fallback writes from the pinned frame too).  Global
//!   writers keep the conventional one-page-at-a-time model — batching
//!   rides on the region knowledge only the Flash-aware assignment has.
//! * **WAL group commit** ([`wal`]) — a force frames the record tail
//!   accumulated across transactions into self-describing log pages and
//!   writes them as one batch; sequential log page ids stripe die-wise, so
//!   the force fans out over the dies.  `WalManager::set_group_commit`
//!   additionally lets several commits share one force.
//! * **NoFTL backend** — `write_pages` groups the batch by region,
//!   allocates each region's run contiguously and dispatches one multi-page
//!   program command per die; dies work in parallel and each die pipelines
//!   channel transfers with cell programs.
//!
//! Invariants of the protocol: after the returned instant every page of the
//! batch is durable with the content passed in; a duplicated page id
//! resolves to the later entry (as sequential writes would); a 1-page batch
//! is command-, timing- and counter-identical to `write_page`.  Batching
//! off (`StackConfig::batch_pages` = 1) is batch size 1: one value, one code
//! path.
//!
//! The [`flusher::FlusherConfig::batch_global`] ablation (default off, set
//! in code) lets the conventional global writers batch too — isolating how
//! much of the Figure 4 gap is NCQ-style batching versus the
//! writer-to-region association itself.
//!
//! ## The asynchronous read/completion pipeline (PR 4)
//!
//! At a per-die queue depth above 1 reads share the write path's per-die
//! command queues end to end:
//!
//! * **Buffer pool** ([`buffer`]) — a miss fill is gated by the pool's
//!   bounded read window (an [`backend::InflightWindow`] of read
//!   completions) and its completion is recorded in that window;
//!   [`buffer::BufferPool::prefetch`] turns a burst of misses into one
//!   batched [`backend::StorageBackend::read_pages`] submission — one
//!   multi-page read dispatch per die on the NoFTL backend.
//! * **One window type** — db-writer windows, the WAL's group-submission
//!   window and the pool's fill window are each an
//!   [`backend::InflightWindow`], a FIFO of completion instants holding one
//!   class of work; the device-side per-die queues are where reads and writes genuinely
//!   contend, which is what makes a point read honestly queue behind
//!   in-flight flush, WAL and GC traffic.
//! * **Completion-driven engine** ([`engine`]) — every queued submission
//!   returns its own completion, and each lane keeps the instant in its
//!   window; `StorageEngine::quiesce` barriers flusher windows, the read
//!   window, the WAL window and the device queues.  Depth 1 of every lane
//!   is bit- and cycle-identical to the synchronous code.
//!
//! ## Streaming readahead for sequential scans (PR 5)
//!
//! Heap scans and B+-tree range reads know their upcoming page runs in
//! advance — the heap file owns its page list, an internal B+-tree node
//! names the leaf run covering a query range — so the read pipeline can be
//! kept full instead of filling the pool one frame at a time:
//!
//! * **[`readahead::ScanPrefetcher`]** maintains a sliding window of
//!   upcoming page ids and issues [`buffer::BufferPool::prefetch`] batches
//!   *ahead of consumption*; on the NoFTL backend each batch becomes one
//!   multi-page read dispatch per die, and at queue depth > 1 the
//!   batches pipeline on the pool's bounded read window and the per-die
//!   device queues, so miss fills overlap with record visits.
//! * **Adaptive window ramp** — the window starts at
//!   [`readahead::MIN_READAHEAD_WINDOW`] pages, doubles (up to the
//!   `StackConfig::readahead_window` cap) after a full window of consecutive useful
//!   prefetches, and halves whenever a prefetched page was evicted before
//!   the scan reached it (pool pressure: running further ahead than the
//!   pool can hold is pure waste).  The pool tracks `prefetch_issued` /
//!   `prefetch_useful` / `prefetch_wasted` and the window high-water mark
//!   ([`buffer::ReadaheadStats`], surfaced through
//!   `StorageEngine::readahead_stats`).
//! * **Interaction with the stack settings** —
//!   `StackConfig::readahead_window` caps the window (0 disables; default
//!   64).  Readahead only *issues* at queue depth > 1: with the window at 0 **or** depth 1 every
//!   scan stays on the frame-at-a-time path, bit- and cycle-identical to
//!   the pre-readahead code (pinned by `tests/equivalence.rs`).  The
//!   batches themselves ride the batched-I/O multi-page read
//!   dispatches, so readahead composes with — rather than bypasses — the
//!   batched I/O protocol; a prefetch never evicts a pinned frame, and a
//!   dirty victim is written back before its frame is reused, exactly like
//!   a demand miss.
//!
//! ## Wrapped-log recovery
//!
//! [`wal::WalManager::note_checkpoint`] checkpoints a start-of-log pointer;
//! [`wal::WalManager::recover_records_from`] scans the segment in *sequence*
//! order from that pointer (slot = `seq % log_pages`), so recovery replays
//! the post-checkpoint stream across the wrap point — a stale-sequence slot
//! marks the durable frontier.  `StorageEngine::checkpoint` advances the
//! pointer automatically.
//!
//! ## Flash-fault recovery (PR 6)
//!
//! Under a `StackConfig::faults` plan the device injects program, erase and read
//! failures; the NoFTL core recovers what it can (block retirement with
//! survivor relocation, a bounded read-retry ladder, read-disturb
//! scrubbing).  What still surfaces here is handled without panicking:
//!
//! * **Writes** — `NoFtl::write`/`write_batch` only return after any failed
//!   program has been re-programmed onto a fresh block, so flusher and WAL
//!   submissions need no payload retention: a returned completion *is*
//!   success.
//! * **Uncorrectable reads** — the engine's DML entry points reconstruct the
//!   lost heap page from WAL replay (heap DML is fully redo-logged with
//!   post-images), rewrite it through the backend and retry once; what
//!   cannot be rebuilt — index pages, pre-log history — surfaces as the
//!   typed [`engine::EngineError`].
//! * **Unreadable log pages** — [`wal::WalManager::recover_records_from`]
//!   skips the hole and resynchronises at the next record-aligned log page
//!   (force starts carry an alignment flag) instead of truncating the scan.
//! * **Buffer pool** — a frame whose fill errors out is detached before the
//!   read, so no poisoned frame can enter the map.
//!
//! ## Concurrency model: one engine, one thread, one virtual clock
//!
//! There is one implementation of the engine, [`engine::StorageEngine`];
//! every operation takes `&mut self`.  A single client owns it and calls it
//! directly.  N clients share it as a [`concurrent::ConcurrentEngine`] — the
//! same engine inside an `Rc<RefCell<_>>` — through per-client
//! [`concurrent::ClientSession`] handles that borrow it for exactly one
//! operation and forward (each also recording its own commit stream);
//! `workloads::MultiClientDriver` drives them, laggard-stepped on one thread.
//! Clients are concurrent on the virtual clock only, so a multi-client run
//! is a function of its config like any other.  The client count is an
//! argument of the driver (`client_scaling` sweeps 1, 2, 4 and 8); it
//! selects no code path.
//!
//! * **Sharded buffer pool** ([`shard::ShardedBufferPool`]) — the engine's
//!   pool is `shards` plain [`buffer::BufferPool`]s routed by `page_id %
//!   shards`, each with its own clock hand, dirty bitmap, resident table,
//!   miss-fill read window and db-writer pool, so drifting clients evict and
//!   flush per shard.  It is the one pool type the heap/B+-tree/readahead
//!   code takes (a bare `BufferPool` is reached only as a shard).
//!   `StorageEngine::new` builds 1 shard — identical traces to a plain
//!   `BufferPool`, pinned in `shard.rs` —
//!   `ConcurrentEngine::new` as many as it is given (and, above one, turns on
//!   the device's gap-backfilling occupancy for out-of-order timestamps).
//! * **Serialization points** — a commit appends its record and forces the
//!   WAL inside one operation, so the durable commit order is the order the
//!   driver steps its clients in and each client sees a serializable commit
//!   prefix; `quiesce` and `checkpoint` are single operations too, draining
//!   *every* shard's flusher windows, then every shard's miss-fill read
//!   window, then the WAL window, then the device queues, so a checkpoint
//!   record can never predate an in-flight write of any shard.
//!
//! ## One config
//!
//! A stack is a pure function of its configuration values, and its caller
//! states them in code: nothing in the workspace reads the process
//! environment.  The six stack-wide settings are one typed
//! [`backend::StackConfig`].  Every constructor —
//! [`engine::EngineConfig::new`], [`flusher::FlusherConfig::global`] /
//! `die_wise`, [`backend::NoFtlBackend::new`], [`wal::WalManager::new`] — is
//! pure and means `StackConfig::default()`; a caller that wants another
//! stack projects its value with `StackConfig::{engine, flushers, noftl,
//! noftl_backend}`.  The engine hands its WAL the db-writers' depth and batch
//! size, so an engine given `flushers.async_depth = k` has a depth-`k` WAL.
//!
//! ## Overload and scheduling (PR 9)
//!
//! `StackConfig::slo` gates graceful degradation under open-loop overload — an
//! arrival-rate-driven workload (`workloads::OpenLoopDriver`) keeps
//! offering work whether or not the engine kept up, so queueing delay is
//! part of every latency sample and an engine without back-pressure shows
//! an unbounded p999.  Three cooperating policies, all off by default (the
//! off leg is pinned bit- and cycle-identical by `tests/equivalence.rs`):
//!
//! * **WAL admission control** ([`transaction::AdmissionConfig`] decides,
//!   [`transaction::AdmissionControl`] counts) —
//!   `begin_admitted` bounds the commit queue: while the WAL has
//!   [`transaction::AdmissionConfig::max_inflight_groups`] group commits
//!   genuinely in flight ([`wal::WalManager::inflight_groups_at`]) or the
//!   dirty pool is over its watermark, a new transaction waits on the
//!   virtual clock (actively relieving dirty pressure with a flusher
//!   cycle), and a wait that would pass the admission deadline is *shed*
//!   with a typed [`engine::EngineError::Overloaded`] — nothing begun,
//!   nothing logged, safe to retry.  [`transaction::AdmissionStats`] counts
//!   admitted / delayed / shed truthfully: every arrival lands in exactly
//!   one of admitted or shed, and the open-loop driver reconciles the
//!   engine's counters against what its clients observed.
//! * **Load-aware flusher throttling** ([`flusher::FlusherPool::throttled_wave`])
//!   — a due flush wave defers while the device queues hold foreground
//!   work ([`backend::StorageBackend::queue_occupancy`]), unless the pool
//!   has reached emergency dirtiness (then flushing *is* the foreground
//!   concern).  [`flusher::ThrottleStats`] counts throttled vs clear waves.
//! * **Proactive GC scheduling** ([`backend::StorageBackend::schedule_background_gc`])
//!   — `maybe_flush` offers the NoFTL core one GC step per call; the core
//!   runs it only when a region is under pressure *and* the device's
//!   in-flight read count says the instant is read-cold, deferring (and
//!   counting `gc_deferred_hot`) otherwise, so reclamation lands in the
//!   arrival process's natural gaps instead of ahead of point reads.
//!
//! Engine-side the bundle enters through [`engine::EngineConfig`]
//! (`admission`, `slo_scheduling`), both off by default;
//! [`backend::StackConfig::engine`] turns them on when `slo` is set.
//!
//! ## Die-level failure tolerance (PR 10)
//!
//! [`backend::StackConfig::redundancy`] (projected onto
//! [`noftl_core::NoFtlConfig::redundancy`] by [`backend::StackConfig::noftl`])
//! arms per-region redundancy in the NoFTL core: `Parity(k)` for
//! die-disjoint XOR stripes, `Mirror` for per-page die-disjoint copies,
//! `None` (the default) bit- and cycle-identical to a build without it.  The engine's part
//! of the bargain:
//!
//! * [`backend::StorageBackend::schedule_rebuild`] — `maybe_flush` offers
//!   the core one bounded online-rebuild step per call (right after the
//!   proactive-GC offer, under the same `slo_scheduling` gate), so pages
//!   lost to a dead die are re-homed onto surviving dies as background work
//!   scheduled into read-cold instants rather than one foreground stall.
//! * [`backend::redundancy_op_ratio`] — the over-provisioning floor a
//!   redundant region needs: parity multiplies the data share by
//!   `(k+1)/k`, mirroring by 2.
//! * A shed [`engine::EngineError::Overloaded`] now carries
//!   `retry_after_ns`, the earliest re-offer instant whose remaining
//!   admission wait fits the deadline budget, for a client that re-offers;
//!   `workloads::OpenLoopDriver` fails a shed request fast.
//!
//! Zero committed-data loss across a mid-workload die kill — and bit-identical
//! degraded reads before the rebuild lands — is pinned by the die-failure
//! storms in `tests/storms.rs`.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]
#![deny(clippy::allow_attributes_without_reason)]
#![cfg_attr(
    test,
    allow(
        clippy::disallowed_types,
        reason = "only simulation code must be deterministic; unit tests may use hash containers, clocks and locks"
    )
)]

pub mod backend;
pub mod btree;
pub mod buffer;
pub mod catalog;
pub mod concurrent;
pub mod engine;
pub mod flusher;
pub mod free_space;
pub mod heap;
pub mod ops;
pub mod page;
pub mod readahead;
pub mod shard;
pub mod transaction;
pub mod wal;

pub use backend::{BlockDeviceBackend, MemBackend, NoFtlBackend, StackConfig, StorageBackend};
pub use buffer::{BufferPool, ReadaheadStats};
pub use concurrent::{ClientSession, ConcurrentEngine};
pub use readahead::ScanPrefetcher;
pub use engine::{EngineConfig, EngineError, EngineResult, StorageEngine};
pub use flusher::{FlusherConfig, FlusherStats, ThrottleStats};
pub use heap::{HeapFile, Rid};
pub use ops::EngineOps;
pub use page::{PageId, SlottedPage};
pub use shard::ShardedBufferPool;
pub use transaction::{AdmissionConfig, AdmissionControl, AdmissionStats, TxnId};
pub use wal::{LogRecord, LogStream, Lsn, WalManager};

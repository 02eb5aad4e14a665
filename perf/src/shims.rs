//! Bench-owned wrappers around the stack's public traits: the places where
//! the `--trace` run reads its clocks.
//!
//! * [`TimedOps`] sits between a workload and the engine ([`EngineOps`]).
//! * [`TimedBackend`] sits between the engine and its backend
//!   ([`StorageBackend`]) and forwards **every** trait method, defaulted ones
//!   included — a defaulted method left out would silently replace the
//!   backend's batched or queued implementation with the trait's per-page
//!   loop and change the virtual numbers.  The same wrapper, with recording
//!   off and a spin configured, is `perf selfcheck`'s injected host cost.
//!
//! The untraced run installs neither — with one exception: the FASTer stack
//! always sits inside a [`TimedBackend`], recording off, because
//! `BlockDeviceBackend` offers no `as_any` and the engine's
//! `Box<dyn StorageBackend>` would otherwise swallow the FTL's statistics for
//! good.  The wrapper's `as_any` answers with the wrapped backend.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use flash_emulator::EmulatedSsd;
use ftl::faster::FasterFtl;
use nand_flash::{FlashResult, OpCompletion, QueuedCompletion};
use sim_utils::time::SimInstant;
use storage_engine::backend::{BackendCounters, BlockDeviceBackend, StorageBackend};
use storage_engine::{AdmissionStats, EngineOps, EngineResult, Rid, StorageEngine, TxnId};

use crate::spans::{self, Name};

/// Access to the engine handle behind an optional [`TimedOps`], so a
/// scenario written once reads statistics the same way in both runs.
pub trait Inner<E> {
    /// The wrapped handle (or `self`).
    fn inner(&self) -> &E;
    /// The wrapped handle (or `self`), mutably.
    fn inner_mut(&mut self) -> &mut E;
}

impl Inner<StorageEngine> for StorageEngine {
    fn inner(&self) -> &StorageEngine {
        self
    }
    fn inner_mut(&mut self) -> &mut StorageEngine {
        self
    }
}

impl<E> Inner<E> for TimedOps<E> {
    fn inner(&self) -> &E {
        &self.0
    }
    fn inner_mut(&mut self) -> &mut E {
        &mut self.0
    }
}

/// Span-recording wrapper around an engine handle.
pub struct TimedOps<E>(pub E);

fn end_of<T>(now: SimInstant) -> impl FnOnce(&EngineResult<(T, SimInstant)>) -> SimInstant {
    move |r| r.as_ref().map_or(now, |x| x.1)
}

fn flash_end_of<T>(now: SimInstant) -> impl FnOnce(&FlashResult<(T, SimInstant)>) -> SimInstant {
    move |r| r.as_ref().map_or(now, |x| x.1)
}

fn instant_or(now: SimInstant) -> impl FnOnce(&FlashResult<SimInstant>) -> SimInstant {
    move |r| *r.as_ref().unwrap_or(&now)
}

impl<E: EngineOps> EngineOps for TimedOps<E> {
    fn begin(&mut self) -> TxnId {
        spans::timed(Name::Begin, 0, || self.0.begin(), |_| 0)
    }

    fn begin_admitted(&mut self, now: SimInstant) -> EngineResult<(TxnId, SimInstant)> {
        spans::timed(Name::Begin, now, || self.0.begin_admitted(now), end_of(now))
    }

    fn admission_stats(&self) -> AdmissionStats {
        self.0.admission_stats()
    }

    fn commit(&mut self, txn: TxnId, now: SimInstant) -> FlashResult<SimInstant> {
        spans::timed(
            Name::Commit,
            now,
            || self.0.commit(txn, now),
            instant_or(now),
        )
    }

    fn abort(&mut self, txn: TxnId) {
        spans::timed(Name::EngineOther, 0, || self.0.abort(txn), |_| 0)
    }

    fn create_table(&mut self, name: &str) -> bool {
        spans::timed(Name::Ddl, 0, || self.0.create_table(name), |_| 0)
    }

    fn create_index(&mut self, name: &str, now: SimInstant) -> FlashResult<bool> {
        spans::timed(Name::Ddl, now, || self.0.create_index(name, now), |_| now)
    }

    fn insert(
        &mut self,
        table: &str,
        txn: TxnId,
        now: SimInstant,
        record: &[u8],
    ) -> EngineResult<(Rid, SimInstant)> {
        spans::timed(
            Name::Insert,
            now,
            || self.0.insert(table, txn, now, record),
            end_of(now),
        )
    }

    fn read(
        &mut self,
        table: &str,
        now: SimInstant,
        rid: Rid,
    ) -> EngineResult<(Option<Vec<u8>>, SimInstant)> {
        spans::timed(
            Name::Read,
            now,
            || self.0.read(table, now, rid),
            end_of(now),
        )
    }

    fn update(
        &mut self,
        table: &str,
        txn: TxnId,
        now: SimInstant,
        rid: Rid,
        record: &[u8],
    ) -> EngineResult<(Rid, SimInstant)> {
        spans::timed(
            Name::Update,
            now,
            || self.0.update(table, txn, now, rid, record),
            end_of(now),
        )
    }

    fn delete(
        &mut self,
        table: &str,
        txn: TxnId,
        now: SimInstant,
        rid: Rid,
    ) -> EngineResult<(bool, SimInstant)> {
        spans::timed(
            Name::Delete,
            now,
            || self.0.delete(table, txn, now, rid),
            end_of(now),
        )
    }

    fn scan(
        &mut self,
        table: &str,
        now: SimInstant,
        visit: &mut dyn FnMut(Rid, &[u8]),
    ) -> FlashResult<(u64, SimInstant)> {
        spans::timed(
            Name::Scan,
            now,
            || self.0.scan(table, now, visit),
            flash_end_of(now),
        )
    }

    fn index_insert(
        &mut self,
        index: &str,
        now: SimInstant,
        key: u64,
        value: u64,
    ) -> FlashResult<(Option<u64>, SimInstant)> {
        spans::timed(
            Name::IndexInsert,
            now,
            || self.0.index_insert(index, now, key, value),
            flash_end_of(now),
        )
    }

    fn index_get(
        &mut self,
        index: &str,
        now: SimInstant,
        key: u64,
    ) -> FlashResult<(Option<u64>, SimInstant)> {
        spans::timed(
            Name::IndexGet,
            now,
            || self.0.index_get(index, now, key),
            flash_end_of(now),
        )
    }

    fn index_range(
        &mut self,
        index: &str,
        now: SimInstant,
        lo: u64,
        hi: u64,
        visit: &mut dyn FnMut(u64, u64),
    ) -> FlashResult<(u64, SimInstant)> {
        spans::timed(
            Name::IndexRange,
            now,
            || self.0.index_range(index, now, lo, hi, visit),
            flash_end_of(now),
        )
    }

    fn maybe_flush(&mut self, now: SimInstant) -> FlashResult<SimInstant> {
        spans::timed(
            Name::MaybeFlush,
            now,
            || self.0.maybe_flush(now),
            instant_or(now),
        )
    }

    fn checkpoint(&mut self, now: SimInstant) -> FlashResult<SimInstant> {
        spans::timed(
            Name::Checkpoint,
            now,
            || self.0.checkpoint(now),
            instant_or(now),
        )
    }

    fn quiesce(&mut self, now: SimInstant) -> SimInstant {
        spans::timed(Name::EngineOther, now, || self.0.quiesce(now), |t| *t)
    }

    fn backend_name(&self) -> String {
        self.0.backend_name()
    }

    fn committed(&self) -> u64 {
        self.0.committed()
    }

    fn dirty_fraction(&self) -> f64 {
        self.0.dirty_fraction()
    }
}

/// Backend calls a spinning [`TimedBackend`] has delayed, process-wide: what
/// `perf selfcheck` multiplies by the spin to predict the slowdown.
pub static SPUN_CALLS: AtomicU64 = AtomicU64::new(0);

/// Forwarding wrapper around a backend: records a span per call when
/// `record` is set, and burns `spin_ns` of host time per call when non-zero.
pub struct TimedBackend<B> {
    inner: B,
    record: bool,
    spin_ns: u64,
}

impl<B: StorageBackend> TimedBackend<B> {
    /// Wrapper that only forwards.
    pub fn passive(inner: B) -> Self {
        Self {
            inner,
            record: false,
            spin_ns: 0,
        }
    }

    /// Span-recording wrapper (the `--trace` run).
    pub fn tracing(inner: B) -> Self {
        Self {
            inner,
            record: true,
            spin_ns: 0,
        }
    }

    /// Wrapper that spins `spin_ns` of host time in every backend call and
    /// records nothing (`perf selfcheck`).
    pub fn spinning(inner: B, spin_ns: u64) -> Self {
        Self {
            inner,
            record: false,
            spin_ns,
        }
    }

    fn call<T>(
        &mut self,
        name: Name,
        now: SimInstant,
        f: impl FnOnce(&mut B) -> T,
        v_end: impl FnOnce(&T) -> SimInstant,
    ) -> T {
        if self.spin_ns > 0 {
            SPUN_CALLS.fetch_add(1, Ordering::Relaxed);
            let start = Instant::now();
            while (start.elapsed().as_nanos() as u64) < self.spin_ns {
                std::hint::spin_loop();
            }
        }
        if self.record {
            spans::timed(name, now, || f(&mut self.inner), v_end)
        } else {
            f(&mut self.inner)
        }
    }

    /// A write call: additionally notes whether the backend erased blocks
    /// during it (GC ran in the foreground of this write).
    fn write_call<T>(
        &mut self,
        name: Name,
        now: SimInstant,
        pages: u64,
        f: impl FnOnce(&mut B) -> FlashResult<T>,
        end: fn(&T) -> SimInstant,
    ) -> FlashResult<T> {
        let v_end = move |r: &FlashResult<T>| r.as_ref().map_or(now, end);
        if !self.record {
            return self.call(name, now, f, v_end);
        }
        let erases_before = self.inner.counters().erases;
        let out = self.call(name, now, f, v_end);
        let stalled = self.inner.counters().erases > erases_before;
        let v_ns = v_end(&out).saturating_sub(now);
        spans::with(|r| {
            if name == Name::WritePages {
                r.backend.batch_pages += pages;
            }
            if stalled {
                r.backend.gc_stall_calls += 1;
                r.backend.gc_stall_v_ns += v_ns;
            }
        });
        out
    }
}

fn completed(now: SimInstant) -> impl FnOnce(&FlashResult<OpCompletion>) -> SimInstant {
    move |r| r.as_ref().map_or(now, |c| c.completed_at)
}

impl<B: StorageBackend + 'static> StorageBackend for TimedBackend<B> {
    fn name(&self) -> String {
        self.inner.name()
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
    ) -> FlashResult<OpCompletion> {
        self.call(
            Name::ReadPage,
            now,
            |b| b.read_page(now, page_id, buf),
            completed(now),
        )
    }

    fn write_page(
        &mut self,
        now: SimInstant,
        page_id: u64,
        data: &[u8],
    ) -> FlashResult<OpCompletion> {
        self.write_call(
            Name::WritePage,
            now,
            1,
            |b| b.write_page(now, page_id, data),
            |c| c.completed_at,
        )
    }

    fn write_page_in_region(
        &mut self,
        now: SimInstant,
        region: usize,
        page_id: u64,
        data: &[u8],
    ) -> FlashResult<OpCompletion> {
        self.write_call(
            Name::WritePage,
            now,
            1,
            |b| b.write_page_in_region(now, region, page_id, data),
            |c| c.completed_at,
        )
    }

    fn write_pages(&mut self, now: SimInstant, pages: &[(u64, &[u8])]) -> FlashResult<SimInstant> {
        self.write_call(
            Name::WritePages,
            now,
            pages.len() as u64,
            |b| b.write_pages(now, pages),
            |t| *t,
        )
    }

    fn read_pages(
        &mut self,
        now: SimInstant,
        reqs: &mut [(u64, &mut [u8])],
    ) -> FlashResult<SimInstant> {
        self.call(
            Name::ReadPages,
            now,
            |b| b.read_pages(now, reqs),
            |r| *r.as_ref().unwrap_or(&now),
        )
    }

    fn poll_completions(&mut self) -> Vec<QueuedCompletion> {
        let polled = self.call(Name::Poll, 0, |b| b.poll_completions(), |_| 0);
        if self.record {
            spans::with(|r| {
                r.backend.polled += polled.len() as u64;
                r.backend.queue_wait_v_ns += polled
                    .iter()
                    .map(|q| q.completion.started_at.saturating_sub(q.submitted_at))
                    .sum::<u64>();
            });
        }
        polled
    }

    fn free_page_hint(&mut self, now: SimInstant, page_id: u64) -> FlashResult<()> {
        self.call(
            Name::FreeHint,
            now,
            |b| b.free_page_hint(now, page_id),
            |_| now,
        )
    }

    fn set_async_depth(&mut self, depth: usize) {
        self.inner.set_async_depth(depth)
    }

    fn set_backfill_occupancy(&mut self, on: bool) {
        self.inner.set_backfill_occupancy(on)
    }

    fn drain(&mut self, now: SimInstant) -> SimInstant {
        self.call(Name::BackendOther, now, |b| b.drain(now), |t| *t)
    }

    fn queue_occupancy(&self, now: SimInstant) -> usize {
        self.inner.queue_occupancy(now)
    }

    fn schedule_background_gc(&mut self, now: SimInstant) -> FlashResult<SimInstant> {
        self.call(
            Name::BackendOther,
            now,
            |b| b.schedule_background_gc(now),
            |r| *r.as_ref().unwrap_or(&now),
        )
    }

    fn schedule_rebuild(&mut self, now: SimInstant) -> FlashResult<SimInstant> {
        self.call(
            Name::BackendOther,
            now,
            |b| b.schedule_rebuild(now),
            |r| *r.as_ref().unwrap_or(&now),
        )
    }

    fn regions(&self) -> usize {
        self.inner.regions()
    }

    fn region_of_page(&self, page_id: u64) -> usize {
        self.inner.region_of_page(page_id)
    }

    fn counters(&self) -> BackendCounters {
        self.inner.counters()
    }

    fn reset_counters(&mut self) {
        self.inner.reset_counters()
    }

    // Whatever the wrapped backend answers, or else the wrapped backend.
    fn as_any(&self) -> Option<&dyn std::any::Any> {
        self.inner.as_any().or(Some(&self.inner))
    }

    fn as_any_mut(&mut self) -> Option<&mut dyn std::any::Any> {
        if self.inner.as_any().is_some() {
            self.inner.as_any_mut()
        } else {
            Some(&mut self.inner)
        }
    }
}

/// The conventional stack of workload `tpcc_faster`.
pub type FasterStack = BlockDeviceBackend<EmulatedSsd<FasterFtl>>;

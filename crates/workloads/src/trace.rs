//! Page-level trace recording and replay.
//!
//! The paper's Figure 3 is produced *off-line*: "Traces were recorded on an
//! in-memory database running the benchmarks for 60 minutes", then replayed
//! against the competing Flash-management schemes to count their GC work.
//! This module provides both halves:
//!
//! * [`TracingBackend`] — wraps any storage backend (normally the in-memory
//!   one) and records every page read/write/free the DBMS issues;
//! * [`PageTrace::replay_on_ftl`] / [`PageTrace::replay_on_noftl`] — replay
//!   the recorded page stream against an FTL or a NoFTL instance sized like
//!   the experiment's drive and report the copyback / erase counts.

use nand_flash::{FlashResult, NativeFlashInterface, OpCompletion};
use sim_utils::time::SimInstant;

use ftl::traits::Ftl;
use noftl_core::NoFtl;
use storage_engine::backend::{BackendCounters, StorageBackend};

/// One traced page-level operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceOp {
    /// The DBMS read this page.
    Read(u64),
    /// The DBMS wrote this page.
    Write(u64),
    /// The DBMS declared this page dead (free-space manager / log truncation).
    Free(u64),
}

/// A recorded page-level trace.
#[derive(Debug, Clone, Default)]
pub struct PageTrace {
    /// The operations, in issue order.
    pub ops: Vec<TraceOp>,
    /// Largest page id seen.
    pub max_page: u64,
}

impl PageTrace {
    /// Number of write operations in the trace.
    pub fn writes(&self) -> u64 {
        self.ops.iter().filter(|o| matches!(o, TraceOp::Write(_))).count() as u64
    }

    /// Number of read operations in the trace.
    pub fn reads(&self) -> u64 {
        self.ops.iter().filter(|o| matches!(o, TraceOp::Read(_))).count() as u64
    }

    /// Number of free (dead-page) hints in the trace.
    pub fn frees(&self) -> u64 {
        self.ops.iter().filter(|o| matches!(o, TraceOp::Free(_))).count() as u64
    }

    /// Number of distinct pages written.
    pub fn distinct_written_pages(&self) -> u64 {
        let mut pages: Vec<u64> = self
            .ops
            .iter()
            .filter_map(|o| match o {
                TraceOp::Write(p) => Some(*p),
                _ => None,
            })
            .collect();
        pages.sort_unstable();
        pages.dedup();
        pages.len() as u64
    }

    /// Replay the trace against an FTL (the conventional-SSD scheme).
    /// Write data is synthetic (zero-filled pages); only command counts and
    /// timing matter.
    pub fn replay_on_ftl(&self, ftl: &mut dyn Ftl) -> FlashResult<TraceReplayReport> {
        let (host_reads, host_writes, t) = self.replay(ftl)?;
        let flash = ftl.flash_stats();
        let s = ftl.ftl_stats();
        Ok(TraceReplayReport {
            scheme: ftl.name().to_string(),
            host_reads,
            host_writes,
            copybacks: flash.copybacks,
            gc_page_copies: s.gc_page_copies,
            erases: flash.erases,
            write_amplification: s.write_amplification(),
            duration_ns: t,
        })
    }

    /// Replay the trace against NoFTL (DBMS-integrated Flash management).
    /// `Free` hints map to [`NoFtl::mark_dead`] — the information an on-device
    /// FTL never sees.
    pub fn replay_on_noftl(&self, noftl: &mut NoFtl) -> FlashResult<TraceReplayReport> {
        let (host_reads, host_writes, t) = self.replay(noftl)?;
        let flash = noftl.flash_stats();
        let s = noftl.stats();
        Ok(TraceReplayReport {
            scheme: "noftl".to_string(),
            host_reads,
            host_writes,
            copybacks: flash.copybacks,
            gc_page_copies: s.gc_page_copies,
            erases: flash.erases,
            write_amplification: s.write_amplification(),
            duration_ns: t,
        })
    }

    /// The one replay loop: every page id folds onto the target's logical
    /// capacity.  Returns `(host_reads, host_writes, end instant)`.
    fn replay<T: ReplayTarget + ?Sized>(&self, target: &mut T) -> FlashResult<(u64, u64, SimInstant)> {
        let (page_size, capacity) = target.shape();
        let data = vec![0u8; page_size];
        let mut buf = vec![0u8; page_size];
        let mut t: SimInstant = 0;
        let mut host_reads = 0u64;
        let mut host_writes = 0u64;
        for op in &self.ops {
            match op {
                TraceOp::Write(p) => {
                    let c = target.write(t, p % capacity, &data)?;
                    t = t.max(c.completed_at);
                    host_writes += 1;
                }
                TraceOp::Read(p) => {
                    // Reads of never-written pages are skipped (the in-memory
                    // run may have read zero pages the replay never wrote).
                    if let Ok(c) = target.read(t, p % capacity, &mut buf) {
                        t = t.max(c.completed_at);
                    }
                    host_reads += 1;
                }
                TraceOp::Free(p) => target.free(t, p % capacity)?,
            }
        }
        Ok((host_reads, host_writes, t))
    }
}

/// What a trace replays against: an FTL or NoFTL.
trait ReplayTarget {
    /// `(page size, logical pages)`.
    fn shape(&self) -> (usize, u64);
    fn write(&mut self, now: SimInstant, lpn: u64, data: &[u8]) -> FlashResult<OpCompletion>;
    fn read(&mut self, now: SimInstant, lpn: u64, buf: &mut [u8]) -> FlashResult<OpCompletion>;
    /// A dead-page hint: `trim` on an FTL, `mark_dead` on NoFTL.
    fn free(&mut self, now: SimInstant, lpn: u64) -> FlashResult<()>;
}

impl ReplayTarget for dyn Ftl + '_ {
    fn shape(&self) -> (usize, u64) {
        (self.device().geometry().page_size as usize, self.logical_pages())
    }
    fn write(&mut self, now: SimInstant, lpn: u64, data: &[u8]) -> FlashResult<OpCompletion> {
        Ftl::write(self, now, lpn, data)
    }
    fn read(&mut self, now: SimInstant, lpn: u64, buf: &mut [u8]) -> FlashResult<OpCompletion> {
        Ftl::read(self, now, lpn, buf)
    }
    fn free(&mut self, now: SimInstant, lpn: u64) -> FlashResult<()> {
        self.trim(now, lpn)
    }
}

impl ReplayTarget for NoFtl {
    fn shape(&self) -> (usize, u64) {
        (self.device().geometry().page_size as usize, self.logical_pages())
    }
    fn write(&mut self, now: SimInstant, lpn: u64, data: &[u8]) -> FlashResult<OpCompletion> {
        NoFtl::write(self, now, lpn, data)
    }
    fn read(&mut self, now: SimInstant, lpn: u64, buf: &mut [u8]) -> FlashResult<OpCompletion> {
        NoFtl::read(self, now, lpn, buf)
    }
    fn free(&mut self, _now: SimInstant, lpn: u64) -> FlashResult<()> {
        self.mark_dead(lpn)
    }
}

/// Result of replaying a trace against one Flash-management scheme — one row
/// of the Figure 3 table.
#[derive(Debug, Clone)]
pub struct TraceReplayReport {
    /// Scheme name ("faster", "dftl", "page-ftl", "noftl").
    pub scheme: String,
    /// Host-level page reads replayed.
    pub host_reads: u64,
    /// Host-level page writes replayed.
    pub host_writes: u64,
    /// Native COPYBACK commands issued by the device.
    pub copybacks: u64,
    /// Pages relocated by GC/merges (copyback or read+program).
    pub gc_page_copies: u64,
    /// BLOCK ERASE commands issued.
    pub erases: u64,
    /// Write amplification.
    pub write_amplification: f64,
    /// Virtual time the replay took.
    pub duration_ns: u64,
}

/// The recorded trace, shared between a [`TracingBackend`] and its caller.
// lint:allow(determinism): the perf suite's trace replay reads the recorded
// trace through `lock()` on this handle; no thread ever shares it.
pub type TraceHandle = std::sync::Arc<parking_lot::Mutex<PageTrace>>;

/// A storage backend wrapper that records every operation into a shared
/// [`PageTrace`].
pub struct TracingBackend<B: StorageBackend> {
    inner: B,
    trace: TraceHandle,
}

impl<B: StorageBackend> TracingBackend<B> {
    /// Wrap `inner`; the returned handle can be cloned cheaply and read after
    /// the engine (which owns the backend) is dropped.
    pub fn new(inner: B) -> (Self, TraceHandle) {
        let trace = TraceHandle::default();
        (
            Self {
                inner,
                trace: TraceHandle::clone(&trace),
            },
            trace,
        )
    }

    fn record(&self, op: TraceOp) {
        let mut trace = self.trace.lock();
        let page = match op {
            TraceOp::Read(p) | TraceOp::Write(p) | TraceOp::Free(p) => p,
        };
        trace.max_page = trace.max_page.max(page);
        trace.ops.push(op);
    }
}

impl<B: StorageBackend> StorageBackend for TracingBackend<B> {
    fn name(&self) -> String {
        format!("traced-{}", self.inner.name())
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
        self.record(TraceOp::Read(page_id));
        self.inner.read_page(now, page_id, buf)
    }

    fn write_page(
        &mut self,
        now: SimInstant,
        page_id: u64,
        data: &[u8],
    ) -> FlashResult<OpCompletion> {
        self.record(TraceOp::Write(page_id));
        self.inner.write_page(now, page_id, data)
    }

    fn free_page_hint(&mut self, now: SimInstant, page_id: u64) -> FlashResult<()> {
        self.record(TraceOp::Free(page_id));
        self.inner.free_page_hint(now, page_id)
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
        self.inner.reset_counters();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftl::faster::{FasterConfig, FasterFtl};
    use nand_flash::FlashGeometry;
    use noftl_core::NoFtlConfig;
    use sim_utils::rng::SimRng;
    use storage_engine::backend::MemBackend;

    #[test]
    fn tracing_backend_records_operations() {
        let (mut backend, trace) = TracingBackend::new(MemBackend::new(512, 64));
        let data = vec![1u8; 512];
        backend.write_page(0, 3, &data).unwrap();
        backend.write_page(0, 7, &data).unwrap();
        let mut buf = vec![0u8; 512];
        backend.read_page(0, 3, &mut buf).unwrap();
        backend.free_page_hint(0, 7).unwrap();
        let t = trace.lock();
        assert_eq!(t.ops.len(), 4);
        assert_eq!(t.writes(), 2);
        assert_eq!(t.reads(), 1);
        assert_eq!(t.frees(), 1);
        assert_eq!(t.max_page, 7);
        assert_eq!(t.distinct_written_pages(), 2);
    }

    fn synthetic_trace(pages: u64, writes: u64) -> PageTrace {
        // Fill once, then skewed overwrites — the page-level shape of an OLTP
        // run.
        let mut rng = SimRng::new(9);
        let mut ops = Vec::new();
        for p in 0..pages {
            ops.push(TraceOp::Write(p));
        }
        for _ in 0..writes {
            ops.push(TraceOp::Write(rng.range(0, pages)));
        }
        PageTrace {
            ops,
            max_page: pages - 1,
        }
    }

    #[test]
    fn replay_counts_gc_work_for_both_schemes() {
        // Size the database at ~80 % of the drive, as in the paper's setups,
        // so garbage collection is actually exercised by the overwrites.
        let geometry = FlashGeometry::small();
        let trace = synthetic_trace(6000, 6000);

        let mut faster = FasterFtl::new(FasterConfig::new(geometry));
        let faster_report = trace.replay_on_ftl(&mut faster).unwrap();

        let mut noftl_cfg = NoFtlConfig::new(geometry);
        noftl_cfg.op_ratio = 0.10;
        let mut noftl = NoFtl::new(noftl_cfg);
        let noftl_report = trace.replay_on_noftl(&mut noftl).unwrap();

        assert_eq!(faster_report.host_writes, noftl_report.host_writes);
        assert!(faster_report.erases > 0);
        assert!(noftl_report.erases > 0);
        // The core Figure 3 relationship: the hybrid log-block FTL does more
        // GC work than DBMS-integrated page-level management.
        assert!(
            faster_report.gc_page_copies > noftl_report.gc_page_copies,
            "FASTer copies {} vs NoFTL {}",
            faster_report.gc_page_copies,
            noftl_report.gc_page_copies
        );
        assert!(
            faster_report.erases > noftl_report.erases,
            "FASTer erases {} vs NoFTL {}",
            faster_report.erases,
            noftl_report.erases
        );
    }

    #[test]
    fn free_hints_reduce_noftl_gc_work() {
        let geometry = FlashGeometry::small();
        let pages = 1500u64;
        let mut with_hints = synthetic_trace(pages, 3000);
        // Declare a third of the pages dead midway through the overwrites.
        let insert_at = pages as usize + 1500;
        for p in (0..pages).step_by(3) {
            with_hints.ops.insert(insert_at, TraceOp::Free(p));
        }
        let without_hints = synthetic_trace(pages, 3000);

        let mut a = NoFtl::new(NoFtlConfig::new(geometry));
        let mut b = NoFtl::new(NoFtlConfig::new(geometry));
        let hinted = with_hints.replay_on_noftl(&mut a).unwrap();
        let unhinted = without_hints.replay_on_noftl(&mut b).unwrap();
        assert!(
            hinted.gc_page_copies <= unhinted.gc_page_copies,
            "dead-page hints must not increase GC copies ({} vs {})",
            hinted.gc_page_copies,
            unhinted.gc_page_copies
        );
    }
}

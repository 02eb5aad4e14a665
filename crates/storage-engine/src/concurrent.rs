//! N client sessions over one storage engine, on one thread.
//!
//! [`ConcurrentEngine`] is a [`StorageEngine`] with N buffer-pool shards
//! inside an `Rc<RefCell<_>>`; each client drives it through a
//! [`ClientSession`] handle implementing [`EngineOps`] — the same trait
//! surface [`StorageEngine`] itself exposes, so the TPC workloads run
//! unchanged on either.  A session borrows the engine for exactly one
//! operation and forwards to the engine method of the same name; it holds no
//! engine logic of its own.  Each session records its own commit stream
//! `(txn, commit-time)`, which is what the concurrency test harness asserts
//! serializable per-client prefixes over.
//!
//! Clients are concurrent on the virtual clock only: one thread steps them,
//! so a multi-client run is a pure function of its config.  A closure passed
//! to [`ConcurrentEngine::with_backend`] / [`ConcurrentEngine::with_wal`]
//! that calls back into the engine finds it borrowed and panics, the first
//! time it runs.
//!
//! ## Serialization points
//!
//! * **WAL force order** — a commit appends its Commit record and forces the
//!   log inside one operation, so the durable commit order is the order the
//!   driver steps its clients in; each client's own commits are totally
//!   ordered in it (serializable per-client commit prefixes).
//! * **Data partitioning** — the engine is redo-only (no undo), so the
//!   workload layer keeps clients on disjoint tables (per-client table-name
//!   prefixes); pool frames, WAL bandwidth, flusher capacity and the per-die
//!   device queues remain genuinely shared and contended on the virtual
//!   clock.
//! * **Quiesce barrier** — `quiesce` and `checkpoint` are single operations
//!   of the engine, so the WAL checkpoint record can never land before an
//!   in-flight write of *any* shard completes.

use std::cell::RefCell;
use std::rc::Rc;

use nand_flash::FlashResult;
use sim_utils::time::SimInstant;

use crate::backend::StorageBackend;
use crate::buffer::{BufferStats, ReadaheadStats};
use crate::engine::{EngineConfig, EngineResult, StorageEngine};
use crate::flusher::FlusherStats;
use crate::heap::Rid;
use crate::ops::EngineOps;
use crate::transaction::{AdmissionStats, TxnId};
use crate::wal::WalManager;

/// A storage engine shared by N clients.
///
/// Construct once, then mint one [`ClientSession`] per client with
/// [`ConcurrentEngine::session`].  With 1 shard this is exactly
/// `StorageEngine::new` — device traces, WAL contents and virtual timings
/// are identical (the single-client equivalence leg).
pub struct ConcurrentEngine {
    /// Borrowed for one operation at a time, never across two.
    inner: Rc<RefCell<StorageEngine>>,
}

impl ConcurrentEngine {
    /// Create an engine over `backend` with `shards` buffer-pool shards
    /// (typically the client count).
    pub fn new(
        backend: Box<dyn StorageBackend>,
        config: EngineConfig,
        shards: usize,
    ) -> Self {
        Self {
            inner: Rc::new(RefCell::new(StorageEngine::with_shards(
                backend, config, shards,
            ))),
        }
    }

    /// Mint a client session.  Sessions are cheap handles onto the shared
    /// engine; each records its own commit stream.
    pub fn session(&self) -> ClientSession {
        ClientSession {
            engine: ConcurrentEngine {
                inner: Rc::clone(&self.inner),
            },
            commits: Vec::new(),
        }
    }

    /// Number of buffer-pool shards.
    pub fn shard_count(&self) -> usize {
        self.inner.borrow_mut().pool().shard_count()
    }

    /// Aggregate buffer-pool statistics (summed over shards; each counter is
    /// maintained by exactly one shard, so the sum is exact).
    pub fn buffer_stats(&self) -> BufferStats {
        self.inner.borrow_mut().buffer_stats()
    }

    /// Aggregate readahead statistics.
    pub fn readahead_stats(&self) -> ReadaheadStats {
        self.inner.borrow_mut().readahead_stats()
    }

    /// Per-shard buffer statistics, in shard-index order.  The concurrency
    /// harness reconciles their sum against [`Self::buffer_stats`].
    pub fn shard_buffer_stats(&self) -> Vec<BufferStats> {
        self.inner.borrow_mut().pool().shards().iter().map(|s| s.stats()).collect()
    }

    /// Per-shard `(resident, dirty)` frame counts, in shard-index order.
    pub fn shard_occupancy(&self) -> Vec<(usize, usize)> {
        self.inner
            .borrow_mut()
            .pool()
            .shards()
            .iter()
            .map(|s| (s.resident(), s.dirty_count()))
            .collect()
    }

    /// Aggregate db-writer statistics, summed over the per-shard pools.
    pub fn flusher_stats(&self) -> FlusherStats {
        self.inner.borrow_mut().flusher_stats()
    }

    /// Run `f` on the backend (downcasting / detailed statistics).  `f` must
    /// not call back into this engine or its sessions: the engine is
    /// borrowed while `f` runs, so such a call panics.
    pub fn with_backend<R>(&self, f: impl FnOnce(&mut dyn StorageBackend) -> R) -> R {
        f(self.inner.borrow_mut().backend_mut())
    }

    /// Run `f` on the WAL (recovery tests).  `f` must not call back into
    /// this engine or its sessions, as for [`Self::with_backend`].
    pub fn with_wal<R>(&self, f: impl FnOnce(&WalManager) -> R) -> R {
        f(self.inner.borrow_mut().wal())
    }

    /// Number of committed transactions (all clients).
    pub fn committed(&self) -> u64 {
        self.inner.borrow_mut().committed()
    }

    /// Number of WAL forces (group commits).
    pub fn log_forces(&self) -> u64 {
        self.inner.borrow_mut().log_forces()
    }

    /// Total resident pages across shards.
    pub fn resident(&self) -> usize {
        self.inner.borrow_mut().pool().resident()
    }

    /// Total dirty pages across shards.
    pub fn dirty_count(&self) -> usize {
        self.inner.borrow_mut().pool().dirty_count()
    }

    /// Tear the engine down and hand back the backend (crash-recovery legs
    /// re-run WAL recovery against the medium).  Panics if any
    /// [`ClientSession`] is still alive.
    pub fn into_backend(self) -> Box<dyn StorageBackend> {
        Rc::try_unwrap(self.inner)
            .unwrap_or_else(|_| panic!("sessions still alive at into_backend"))
            .into_inner()
            .into_backend()
    }
}

/// One client's handle onto a shared [`ConcurrentEngine`].
///
/// Implements [`EngineOps`], so the TPC workloads drive it exactly like a
/// [`StorageEngine`]: every method borrows the engine and calls the engine
/// method of the same name.  Commits are recorded per session: the
/// stream of `(txn, commit-time)` pairs in commit order, which the
/// concurrency test harness asserts serializable per-client prefixes and
/// crash-recovery durability over.
pub struct ClientSession {
    engine: ConcurrentEngine,
    commits: Vec<(TxnId, SimInstant)>,
}

impl ClientSession {
    /// This session's commit stream, in commit order.
    pub fn commits(&self) -> &[(TxnId, SimInstant)] {
        &self.commits
    }
}

impl EngineOps for ClientSession {
    crate::ops::forward_engine_ops!(self => self.engine.inner.borrow_mut());

    fn commit(&mut self, txn: TxnId, now: SimInstant) -> FlashResult<SimInstant> {
        let t = self.engine.inner.borrow_mut().commit(txn, now)?;
        self.commits.push((txn, t));
        Ok(t)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::MemBackend;

    fn engine(shards: usize) -> ConcurrentEngine {
        let backend = MemBackend::new(4096, 4096);
        let mut cfg = EngineConfig::new();
        cfg.buffer_frames = 64;
        ConcurrentEngine::new(Box::new(backend), cfg, shards)
    }

    #[test]
    fn sessions_share_one_engine() {
        let e = engine(4);
        let mut a = e.session();
        let mut b = e.session();
        assert!(a.create_table("a_t"));
        assert!(b.create_table("b_t"));
        assert!(!b.create_table("a_t"), "catalog is shared");
        let ta = a.begin();
        let tb = b.begin();
        assert_ne!(ta, tb, "txn ids come from one shared manager");
        let (rid_a, t1) = a.insert("a_t", ta, 0, b"from-a").unwrap();
        let (rid_b, t2) = b.insert("b_t", tb, 0, b"from-b").unwrap();
        let t1 = a.commit(ta, t1).unwrap();
        let t2 = b.commit(tb, t2).unwrap();
        assert_eq!(e.committed(), 2);
        assert_eq!(a.commits(), &[(ta, t1)]);
        assert_eq!(b.commits(), &[(tb, t2)]);
        // Each session sees the other's tables through the shared catalog.
        let (v, _) = b.read("a_t", t1.max(t2), rid_a).unwrap();
        assert_eq!(v.unwrap(), b"from-a");
        let (v, _) = a.read("b_t", t1.max(t2), rid_b).unwrap();
        assert_eq!(v.unwrap(), b"from-b");
    }

    #[test]
    fn commit_streams_are_per_session_and_ordered() {
        let e = engine(2);
        let mut s = e.session();
        s.create_table("t");
        let mut now = 0;
        for i in 0..5u8 {
            let txn = s.begin();
            let (_, t) = s.insert("t", txn, now, &[i; 16]).unwrap();
            now = s.commit(txn, t).unwrap();
        }
        assert_eq!(s.commits().len(), 5);
        for w in s.commits().windows(2) {
            assert!(w[0].1 <= w[1].1, "commit times are monotone per session");
            assert!(w[0].0 < w[1].0, "txn ids are monotone per session");
        }
    }

    #[test]
    #[should_panic(expected = "already borrowed")]
    fn a_closure_that_reenters_the_engine_panics() {
        let e = engine(2);
        e.with_backend(|_| e.committed());
    }

    #[test]
    fn into_backend_returns_the_medium() {
        let e = engine(2);
        let mut s = e.session();
        s.create_table("t");
        let txn = s.begin();
        let (_, t) = s.insert("t", txn, 0, b"durable-row").unwrap();
        let t = s.commit(txn, t).unwrap();
        s.checkpoint(t).unwrap();
        drop(s);
        let backend = e.into_backend();
        assert!(backend.counters().host_writes > 0);
    }

    #[test]
    fn checkpoint_cleans_every_shard() {
        let e = engine(4);
        let mut s = e.session();
        s.create_table("t");
        let txn = s.begin();
        let mut now = 0;
        for i in 0..30u8 {
            let (_, t) = s.insert("t", txn, now, &vec![i; 1200]).unwrap();
            now = t;
        }
        now = s.commit(txn, now).unwrap();
        assert!(e.dirty_count() > 0);
        s.checkpoint(now).unwrap();
        assert_eq!(e.dirty_count(), 0, "checkpoint must flush every shard");
    }
}

//! The transactional operation surface workloads drive an engine through.
//!
//! [`EngineOps`] is implemented by [`StorageEngine`] itself (a sole owner
//! calling the engine directly) and by a
//! [`crate::concurrent::ClientSession`] (one of N handles that borrow the
//! shared engine of a [`crate::concurrent::ConcurrentEngine`] per call), so
//! the TPC drivers (`workloads::TpcB`, `workloads::TpcC`) run unchanged
//! against either.  Both impls only forward: every operation has exactly one
//! body, the inherent method of the same name in [`crate::engine`].
//!
//! The closure-taking entry points (`scan`, `index_range`) take `&mut dyn
//! FnMut` rather than a generic parameter so the trait stays object-safe —
//! `Box<dyn Workload>` erasure in the bench setup relies on that.

use nand_flash::FlashResult;
use sim_utils::time::SimInstant;

use crate::engine::{EngineResult, StorageEngine};
use crate::heap::Rid;
use crate::transaction::{AdmissionStats, TxnId};

/// The engine operations a workload needs: transactions, DDL, DML, index
/// access and background-work hooks, all on the virtual clock.
pub trait EngineOps {
    /// Begin a transaction.
    fn begin(&mut self) -> TxnId;

    /// Begin a transaction through the engine's commit-admission window (the
    /// `StackConfig::slo` overload policy).  Returns the transaction and the
    /// instant it was actually admitted (>= `now`; the difference is
    /// queueing delay the caller should charge to its latency), or a typed
    /// [`crate::EngineError::Overloaded`] if the arrival was shed.  Engines
    /// without a window — the default — admit immediately at `now`.
    fn begin_admitted(&mut self, now: SimInstant) -> EngineResult<(TxnId, SimInstant)> {
        Ok((self.begin(), now))
    }

    /// Truthful admission counters (all zero without a configured window).
    fn admission_stats(&self) -> AdmissionStats {
        AdmissionStats::default()
    }

    /// Commit a transaction (forces the WAL). Returns the completion time.
    fn commit(&mut self, txn: TxnId, now: SimInstant) -> FlashResult<SimInstant>;

    /// Abort a transaction.
    fn abort(&mut self, txn: TxnId);

    /// Create a heap table. Returns `false` if the name is taken.
    fn create_table(&mut self, name: &str) -> bool;

    /// Create a B+-tree index. Returns `false` if the name is taken.
    fn create_index(&mut self, name: &str, now: SimInstant) -> FlashResult<bool>;

    /// Insert a record into `table`.
    fn insert(
        &mut self,
        table: &str,
        txn: TxnId,
        now: SimInstant,
        record: &[u8],
    ) -> EngineResult<(Rid, SimInstant)>;

    /// Read a record by RID.
    fn read(
        &mut self,
        table: &str,
        now: SimInstant,
        rid: Rid,
    ) -> EngineResult<(Option<Vec<u8>>, SimInstant)>;

    /// Read a record by RID into the caller's buffer: `out` is cleared and,
    /// when the record exists (`true`), filled with its bytes.  The engine
    /// and its sessions copy straight from the pinned frame, so a driver
    /// that keeps one row buffer reads without allocating; the default body
    /// serves wrappers that only implement [`EngineOps::read`].
    fn read_into(
        &mut self,
        table: &str,
        now: SimInstant,
        rid: Rid,
        out: &mut Vec<u8>,
    ) -> EngineResult<(bool, SimInstant)> {
        let (row, t) = self.read(table, now, rid)?;
        out.clear();
        if let Some(row) = &row {
            out.extend_from_slice(row);
        }
        Ok((row.is_some(), t))
    }

    /// Update a record by RID (the record may move; the new RID is returned).
    fn update(
        &mut self,
        table: &str,
        txn: TxnId,
        now: SimInstant,
        rid: Rid,
        record: &[u8],
    ) -> EngineResult<(Rid, SimInstant)>;

    /// Delete a record by RID.
    fn delete(
        &mut self,
        table: &str,
        txn: TxnId,
        now: SimInstant,
        rid: Rid,
    ) -> EngineResult<(bool, SimInstant)>;

    /// Scan a whole table.
    fn scan(
        &mut self,
        table: &str,
        now: SimInstant,
        visit: &mut dyn FnMut(Rid, &[u8]),
    ) -> FlashResult<(u64, SimInstant)>;

    /// Insert into an index.
    fn index_insert(
        &mut self,
        index: &str,
        now: SimInstant,
        key: u64,
        value: u64,
    ) -> FlashResult<(Option<u64>, SimInstant)>;

    /// Look up a key in an index.
    fn index_get(
        &mut self,
        index: &str,
        now: SimInstant,
        key: u64,
    ) -> FlashResult<(Option<u64>, SimInstant)>;

    /// Range scan `[lo, hi]` in an index.
    fn index_range(
        &mut self,
        index: &str,
        now: SimInstant,
        lo: u64,
        hi: u64,
        visit: &mut dyn FnMut(u64, u64),
    ) -> FlashResult<(u64, SimInstant)>;

    /// Let the db-writers run if the dirty-page watermark is exceeded.
    fn maybe_flush(&mut self, now: SimInstant) -> FlashResult<SimInstant>;

    /// Force a full flush of every dirty page plus a WAL force (checkpoint).
    fn checkpoint(&mut self, now: SimInstant) -> FlashResult<SimInstant>;

    /// Barrier over all asynchronous submissions.
    fn quiesce(&mut self, now: SimInstant) -> SimInstant;

    /// Name of the storage stack in use.
    fn backend_name(&self) -> String;

    /// Number of committed transactions.
    fn committed(&self) -> u64;

    /// Dirty fraction of the buffer pool.
    fn dirty_fraction(&self) -> f64;
}

/// The one forwarding list: every [`EngineOps`] method except `commit`,
/// forwarded to the [`StorageEngine`] method of the same name.  `$engine` is
/// an expression over `$self` that derefs to the engine — `self` for the
/// engine itself, the borrowed engine for a session.
macro_rules! forward_engine_ops {
    ($self:ident => $engine:expr;
        $(fn $name:ident(&mut self $(, $arg:ident: $ty:ty)*) $(-> $ret:ty)?;)*
        shared: $(fn $shared:ident(&self) -> $shared_ret:ty;)*
    ) => {
        $(fn $name(&mut $self $(, $arg: $ty)*) $(-> $ret)? {
            StorageEngine::$name(&mut *$engine $(, $arg)*)
        })*
        $(fn $shared(&$self) -> $shared_ret {
            StorageEngine::$shared(&*$engine)
        })*
    };
    ($self:ident => $engine:expr) => {
        $crate::ops::forward_engine_ops! { $self => $engine;
            fn begin(&mut self) -> TxnId;
            fn begin_admitted(&mut self, now: SimInstant) -> EngineResult<(TxnId, SimInstant)>;
            fn abort(&mut self, txn: TxnId);
            fn create_table(&mut self, name: &str) -> bool;
            fn create_index(&mut self, name: &str, now: SimInstant) -> FlashResult<bool>;
            fn insert(&mut self, table: &str, txn: TxnId, now: SimInstant, record: &[u8]) -> EngineResult<(Rid, SimInstant)>;
            fn read(&mut self, table: &str, now: SimInstant, rid: Rid) -> EngineResult<(Option<Vec<u8>>, SimInstant)>;
            fn read_into(&mut self, table: &str, now: SimInstant, rid: Rid, out: &mut Vec<u8>) -> EngineResult<(bool, SimInstant)>;
            fn update(&mut self, table: &str, txn: TxnId, now: SimInstant, rid: Rid, record: &[u8]) -> EngineResult<(Rid, SimInstant)>;
            fn delete(&mut self, table: &str, txn: TxnId, now: SimInstant, rid: Rid) -> EngineResult<(bool, SimInstant)>;
            fn scan(&mut self, table: &str, now: SimInstant, visit: &mut dyn FnMut(Rid, &[u8])) -> FlashResult<(u64, SimInstant)>;
            fn index_insert(&mut self, index: &str, now: SimInstant, key: u64, value: u64) -> FlashResult<(Option<u64>, SimInstant)>;
            fn index_get(&mut self, index: &str, now: SimInstant, key: u64) -> FlashResult<(Option<u64>, SimInstant)>;
            fn index_range(&mut self, index: &str, now: SimInstant, lo: u64, hi: u64, visit: &mut dyn FnMut(u64, u64)) -> FlashResult<(u64, SimInstant)>;
            fn maybe_flush(&mut self, now: SimInstant) -> FlashResult<SimInstant>;
            fn checkpoint(&mut self, now: SimInstant) -> FlashResult<SimInstant>;
            fn quiesce(&mut self, now: SimInstant) -> SimInstant;
            shared:
            fn admission_stats(&self) -> AdmissionStats;
            fn backend_name(&self) -> String;
            fn committed(&self) -> u64;
            fn dirty_fraction(&self) -> f64;
        }
    };
}
pub(crate) use forward_engine_ops;

impl EngineOps for StorageEngine {
    forward_engine_ops!(self => self);

    fn commit(&mut self, txn: TxnId, now: SimInstant) -> FlashResult<SimInstant> {
        StorageEngine::commit(self, txn, now)
    }
}

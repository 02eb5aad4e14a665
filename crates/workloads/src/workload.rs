//! The [`Workload`] trait: what the benchmark driver runs.

use nand_flash::FlashResult;
use sim_utils::time::SimInstant;
use storage_engine::{EngineOps, StorageEngine};

/// Classification of a transaction for per-type reporting.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TxnKind {
    /// A read-write transaction (counts toward TPS).
    ReadWrite,
    /// A read-only transaction (counts toward TPS).
    ReadOnly,
}

/// A benchmark workload: schema setup plus a stream of transactions.
///
/// The engine parameter defaults to [`StorageEngine`], so existing
/// `dyn Workload` call sites keep meaning "a workload over one engine".
/// Workloads implemented generically over [`EngineOps`] (TPC-B, TPC-C)
/// additionally run against a `storage_engine::ClientSession` — one of N
/// clients sharing a `storage_engine::ConcurrentEngine`.
pub trait Workload<E: EngineOps = StorageEngine> {
    /// Workload name ("tpcb", "tpcc", ...).
    fn name(&self) -> &'static str;

    /// Create tables/indexes and load the initial data.  Returns the virtual
    /// time after loading.
    fn setup(&mut self, engine: &mut E, now: SimInstant) -> FlashResult<SimInstant>;

    /// Execute one transaction on behalf of `client`, starting at `now`.
    /// Returns the commit time and the transaction kind.
    fn run_transaction(
        &mut self,
        engine: &mut E,
        client: usize,
        now: SimInstant,
    ) -> FlashResult<(SimInstant, TxnKind)>;
}

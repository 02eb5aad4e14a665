//! TPC-B: the classic update-heavy banking benchmark.
//!
//! Each transaction updates one account, one teller and one branch balance
//! and appends a history record — four writes and three index lookups per
//! transaction, uniformly distributed over the accounts.  The paper runs
//! TPC-B at SF 350/500; here the scale factor sets the number of branches and
//! the rows per branch are configurable so the database fits the simulated
//! device.

use nand_flash::FlashResult;
use sim_utils::rng::SimRng;
use sim_utils::time::SimInstant;
use storage_engine::EngineOps;

use crate::fill_row;
use crate::rid_codec::{rid_to_u64, u64_to_rid};
use crate::workload::{TxnKind, Workload};

/// TPC-B configuration.
#[derive(Debug, Clone, Copy)]
pub struct TpcBConfig {
    /// Scale factor = number of branches.
    pub scale_factor: u64,
    /// Tellers per branch (TPC-B specifies 10).
    pub tellers_per_branch: u64,
    /// Accounts per branch (TPC-B specifies 100 000; scaled down by default).
    pub accounts_per_branch: u64,
    /// Random seed.
    pub seed: u64,
}

impl TpcBConfig {
    /// A configuration that keeps the database around `scale_factor × 1 000`
    /// accounts — small enough for RAM-backed devices, large enough to exceed
    /// any reasonable buffer pool.
    pub fn scaled(scale_factor: u64) -> Self {
        Self {
            scale_factor: scale_factor.max(1),
            tellers_per_branch: 10,
            accounts_per_branch: 1_000,
            seed: 0xB_0B,
        }
    }

    /// Total number of accounts.
    pub fn accounts(&self) -> u64 {
        self.scale_factor * self.accounts_per_branch
    }

    /// Total number of tellers.
    pub fn tellers(&self) -> u64 {
        self.scale_factor * self.tellers_per_branch
    }
}

/// The TPC-B workload driver.
pub struct TpcB {
    config: TpcBConfig,
    rng: SimRng,
    history_counter: u64,
    /// Table/index names under this client's prefix — concurrent clients of
    /// one shared engine use disjoint prefixes ("c0_", "c1_", ...) so their
    /// data partitions never overlap (the engine is redo-only; isolation
    /// comes from partitioning).
    names: Names,
    /// The one row buffer every read fills and every written row is built in.
    row: Vec<u8>,
}

/// The four tables and three indexes, each name resolved once: the prefix is
/// fixed at construction, so no transaction formats a name.
struct Names {
    branch: String,
    teller: String,
    account: String,
    history: String,
    branch_pk: String,
    teller_pk: String,
    account_pk: String,
}

impl Names {
    fn new(prefix: &str) -> Self {
        let name = |base: &str| format!("{prefix}{base}");
        Self {
            branch: name("branch"),
            teller: name("teller"),
            account: name("account"),
            history: name("history"),
            branch_pk: name("branch_pk"),
            teller_pk: name("teller_pk"),
            account_pk: name("account_pk"),
        }
    }
}

// Fixed-size row images, built in `row` (sizes follow the TPC-B minimum row
// sizes).

fn account_row(row: &mut Vec<u8>, id: u64, branch: u64, balance: i64) {
    fill_row(row, 100, &[id, branch, balance as u64]);
}

fn branch_row(row: &mut Vec<u8>, id: u64, balance: i64) {
    fill_row(row, 100, &[id, balance as u64]);
}

fn history_row(row: &mut Vec<u8>, account: u64, teller: u64, branch: u64, delta: i64, seq: u64) {
    fill_row(row, 50, &[account, teller, branch, delta as u64, seq]);
}

/// Read the balance field (bytes 16..24) out of an account or teller row.
/// A branch row keeps its balance at bytes 8..16 instead.
pub fn row_balance(row: &[u8]) -> i64 {
    i64::from_le_bytes(row[16..24].try_into().expect("row too short"))
}

impl TpcB {
    /// Create the workload from a configuration.
    pub fn new(config: TpcBConfig) -> Self {
        Self::with_prefix(config, "")
    }

    /// Create the workload with every table/index name prefixed — N
    /// concurrent clients sharing one engine each use a distinct prefix so
    /// their partitions are disjoint.
    pub fn with_prefix(config: TpcBConfig, prefix: impl Into<String>) -> Self {
        Self {
            rng: SimRng::new(config.seed),
            config,
            history_counter: 0,
            names: Names::new(&prefix.into()),
            row: Vec::new(),
        }
    }

    /// The configuration in use.
    pub fn config(&self) -> TpcBConfig {
        self.config
    }

}

impl<E: EngineOps> Workload<E> for TpcB {
    fn name(&self) -> &'static str {
        "tpcb"
    }

    fn setup(&mut self, engine: &mut E, now: SimInstant) -> FlashResult<SimInstant> {
        let n = &self.names;
        let mut t = now;
        for table in [&n.branch, &n.teller, &n.account, &n.history] {
            engine.create_table(table);
        }
        for index in [&n.branch_pk, &n.teller_pk, &n.account_pk] {
            engine.create_index(index, t)?;
        }
        let txn = engine.begin();
        for b in 0..self.config.scale_factor {
            branch_row(&mut self.row, b, 0);
            let (rid, t2) = engine.insert(&n.branch, txn, t, &self.row)?;
            let (_, t3) = engine.index_insert(&n.branch_pk, t2, b, rid_to_u64(rid))?;
            t = t3;
        }
        for teller in 0..self.config.tellers() {
            let branch = teller / self.config.tellers_per_branch;
            // A teller row has the account row's layout.
            account_row(&mut self.row, teller, branch, 0);
            let (rid, t2) = engine.insert(&n.teller, txn, t, &self.row)?;
            let (_, t3) = engine.index_insert(&n.teller_pk, t2, teller, rid_to_u64(rid))?;
            t = t3;
        }
        for account in 0..self.config.accounts() {
            let branch = account / self.config.accounts_per_branch;
            account_row(&mut self.row, account, branch, 0);
            let (rid, t2) = engine.insert(&n.account, txn, t, &self.row)?;
            let (_, t3) = engine.index_insert(&n.account_pk, t2, account, rid_to_u64(rid))?;
            t = t3;
            // Keep the load phase from overflowing the buffer pool.
            if account % 512 == 0 {
                t = engine.maybe_flush(t)?;
            }
        }
        t = engine.commit(txn, t)?;
        t = engine.checkpoint(t)?;
        Ok(t)
    }

    fn run_transaction(
        &mut self,
        engine: &mut E,
        _client: usize,
        now: SimInstant,
    ) -> FlashResult<(SimInstant, TxnKind)> {
        let account = self.rng.range(0, self.config.accounts());
        let branch = account / self.config.accounts_per_branch;
        let teller = branch * self.config.tellers_per_branch
            + self.rng.range(0, self.config.tellers_per_branch);
        let delta = self.rng.range(0, 2_000_000) as i64 - 1_000_000;

        let txn = engine.begin();
        let (n, row) = (&self.names, &mut self.row);
        let mut t = now;

        // Account: index lookup, read, update balance.
        let (acct_ref, t2) = engine.index_get(&n.account_pk, t, account)?;
        t = t2;
        let acct_rid = u64_to_rid(acct_ref.expect("account must exist"));
        let (found, t2) = engine.read_into(&n.account, t, acct_rid, row)?;
        t = t2;
        assert!(found, "account row present");
        let balance = row_balance(row) + delta;
        row[16..24].copy_from_slice(&balance.to_le_bytes());
        let (_, t2) = engine.update(&n.account, txn, t, acct_rid, row)?;
        t = t2;

        // Teller.
        let (teller_ref, t2) = engine.index_get(&n.teller_pk, t, teller)?;
        t = t2;
        let teller_rid = u64_to_rid(teller_ref.expect("teller must exist"));
        let (found, t2) = engine.read_into(&n.teller, t, teller_rid, row)?;
        t = t2;
        assert!(found, "teller row present");
        let tbal = row_balance(row) + delta;
        row[16..24].copy_from_slice(&tbal.to_le_bytes());
        let (_, t2) = engine.update(&n.teller, txn, t, teller_rid, row)?;
        t = t2;

        // Branch.
        let (branch_ref, t2) = engine.index_get(&n.branch_pk, t, branch)?;
        t = t2;
        let branch_rid = u64_to_rid(branch_ref.expect("branch must exist"));
        let (found, t2) = engine.read_into(&n.branch, t, branch_rid, row)?;
        t = t2;
        assert!(found, "branch row present");
        let bbal = i64::from_le_bytes(row[8..16].try_into().unwrap()) + delta;
        row[8..16].copy_from_slice(&bbal.to_le_bytes());
        let (_, t2) = engine.update(&n.branch, txn, t, branch_rid, row)?;
        t = t2;

        // History append.
        self.history_counter += 1;
        history_row(row, account, teller, branch, delta, self.history_counter);
        let (_, t2) = engine.insert(&n.history, txn, t, row)?;
        t = t2;

        let t = engine.commit(txn, t)?;
        Ok((t, TxnKind::ReadWrite))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use storage_engine::{backend::MemBackend, EngineConfig, StorageEngine};

    fn engine() -> StorageEngine {
        let mut cfg = EngineConfig::new();
        cfg.buffer_frames = 256;
        StorageEngine::new(Box::new(MemBackend::new(4096, 16_384)), cfg)
    }

    fn tiny_config() -> TpcBConfig {
        TpcBConfig {
            scale_factor: 2,
            tellers_per_branch: 5,
            accounts_per_branch: 50,
            seed: 1,
        }
    }

    #[test]
    fn setup_loads_all_tables() {
        let mut e = engine();
        let mut w = TpcB::new(tiny_config());
        w.setup(&mut e, 0).unwrap();
        let (branches, _) = e.scan("branch", 0, |_, _| {}).unwrap();
        let (tellers, _) = e.scan("teller", 0, |_, _| {}).unwrap();
        let (accounts, _) = e.scan("account", 0, |_, _| {}).unwrap();
        assert_eq!(branches, 2);
        assert_eq!(tellers, 10);
        assert_eq!(accounts, 100);
    }

    #[test]
    fn transactions_commit_and_append_history() {
        let mut e = engine();
        let mut w = TpcB::new(tiny_config());
        let mut now = w.setup(&mut e, 0).unwrap();
        let committed_before = e.committed();
        for client in 0..3 {
            let (t, kind) = w.run_transaction(&mut e, client, now).unwrap();
            assert_eq!(kind, TxnKind::ReadWrite);
            assert!(t >= now);
            now = t;
        }
        assert_eq!(e.committed(), committed_before + 3);
        let (history, _) = e.scan("history", now, |_, _| {}).unwrap();
        assert_eq!(history, 3);
    }

    #[test]
    fn balances_change_by_the_applied_delta() {
        // Sum of all branch balances must equal the sum of all deltas applied
        // (the TPC-B consistency condition).
        let mut e = engine();
        let mut w = TpcB::new(tiny_config());
        let mut now = w.setup(&mut e, 0).unwrap();
        for _ in 0..20 {
            let (t, _) = w.run_transaction(&mut e, 0, now).unwrap();
            now = t;
        }
        let mut branch_total = 0i64;
        e.scan("branch", now, |_, row| {
            branch_total += i64::from_le_bytes(row[8..16].try_into().unwrap());
        })
        .unwrap();
        let mut history_total = 0i64;
        e.scan("history", now, |_, row| {
            history_total += i64::from_le_bytes(row[24..32].try_into().unwrap());
        })
        .unwrap();
        assert_eq!(branch_total, history_total);
    }

    #[test]
    fn row_sizes_match_spec_minimums() {
        let mut row = Vec::new();
        account_row(&mut row, 1, 1, 0);
        assert_eq!(row.len(), 100);
        branch_row(&mut row, 1, 0);
        assert_eq!(row.len(), 100);
        history_row(&mut row, 1, 1, 1, 5, 1);
        assert_eq!(row.len(), 50);
        assert_eq!(row[24..32], 5i64.to_le_bytes(), "fields are consecutive words");
    }
}

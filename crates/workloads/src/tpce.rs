//! TPC-E (simplified): a brokerage workload with a read-heavier mix.
//!
//! The paper uses TPC-E at "1 K customers" for the trace-driven GC comparison
//! (Figure 3).  The full TPC-E schema has 33 tables; what matters for the
//! storage experiments is the access *shape*: mostly reads (customer
//! positions, trade lookups) with a substantial stream of trade inserts and
//! account/trade updates, Zipf-skewed towards active customers.  This driver
//! models that shape with four tables: `customer`, `account`, `security` and
//! `trade`.

use nand_flash::FlashResult;
use sim_utils::dist::Zipf;
use sim_utils::rng::SimRng;
use sim_utils::time::SimInstant;
use storage_engine::StorageEngine;

use crate::rid_codec::{rid_to_u64, u64_to_rid};
use crate::workload::{TxnKind, Workload};

/// TPC-E configuration.
#[derive(Debug, Clone, Copy)]
pub struct TpcEConfig {
    /// Number of customers (the paper's unit: "1K customers").
    pub customers: u64,
    /// Accounts per customer (spec: 5 on average).
    pub accounts_per_customer: u64,
    /// Number of securities.
    pub securities: u64,
    /// Skew of customer activity.
    pub customer_skew: f64,
    /// Random seed.
    pub seed: u64,
}

impl TpcEConfig {
    /// A scaled configuration for `customers` customers.
    pub fn scaled(customers: u64) -> Self {
        Self {
            customers: customers.max(1),
            accounts_per_customer: 5,
            securities: 500,
            customer_skew: 0.85,
            seed: 0xEE,
        }
    }

    /// A tiny configuration for unit tests.
    pub fn tiny() -> Self {
        Self {
            customers: 20,
            accounts_per_customer: 2,
            securities: 20,
            customer_skew: 0.5,
            seed: 0xEE,
        }
    }

    fn accounts(&self) -> u64 {
        self.customers * self.accounts_per_customer
    }
}

/// The TPC-E workload driver.
pub struct TpcE {
    config: TpcEConfig,
    rng: SimRng,
    customer_dist: Zipf,
    next_trade_id: u64,
    /// The one row buffer every read fills and every written row is built in.
    row: Vec<u8>,
    /// Committed transactions per type: [trade_order, trade_result,
    /// trade_lookup, customer_position].
    pub mix_counts: [u64; 4],
}

/// Build a synthetic row of `len` bytes in `out`.
fn row(out: &mut Vec<u8>, len: usize, key: u64, extra: u64) {
    crate::fill_row(out, len, &[key, extra]);
}

impl TpcE {
    /// Create the workload from a configuration.
    pub fn new(config: TpcEConfig) -> Self {
        Self {
            rng: SimRng::new(config.seed),
            customer_dist: Zipf::new(config.customers, config.customer_skew),
            next_trade_id: 0,
            row: Vec::new(),
            mix_counts: [0; 4],
            config,
        }
    }

    fn account_key(&self, customer: u64, slot: u64) -> u64 {
        customer * self.config.accounts_per_customer + slot
    }

    fn read_by_key(
        engine: &mut StorageEngine,
        index: &str,
        table: &str,
        key: u64,
        now: SimInstant,
        row: &mut Vec<u8>,
    ) -> FlashResult<(storage_engine::heap::Rid, SimInstant)> {
        let (rid_ref, t) = engine.index_get(index, now, key)?;
        let rid = u64_to_rid(rid_ref.unwrap_or_else(|| panic!("{table} key {key} missing")));
        let (found, t) = engine.read_into(table, t, rid, row)?;
        assert!(found, "row present");
        Ok((rid, t))
    }

    /// Trade-Order: insert a trade and debit the account.
    fn trade_order(&mut self, engine: &mut StorageEngine, now: SimInstant) -> FlashResult<SimInstant> {
        let customer = self.customer_dist.sample(&mut self.rng);
        let account_slot = self.rng.range(0, self.config.accounts_per_customer);
        let account = self.account_key(customer, account_slot);
        let security = self.rng.range(0, self.config.securities);
        let txn = engine.begin();
        let mut t = now;
        let (_, t2) = Self::read_by_key(engine, "customer_pk", "customer", customer, t, &mut self.row)?;
        t = t2;
        let (_, t2) = Self::read_by_key(engine, "security_pk", "security", security, t, &mut self.row)?;
        t = t2;
        let (arid, t2) = Self::read_by_key(engine, "account_pk", "account", account, t, &mut self.row)?;
        t = t2;
        let bal = i64::from_le_bytes(self.row[8..16].try_into().unwrap()) - 500;
        self.row[8..16].copy_from_slice(&bal.to_le_bytes());
        let (_, t2) = engine.update("account", txn, t, arid, &self.row)?;
        t = t2;
        self.next_trade_id += 1;
        let trade_id = self.next_trade_id;
        row(&mut self.row, 140, trade_id, security);
        let (trid, t2) = engine.insert("trade", txn, t, &self.row)?;
        t = t2;
        let (_, t2) = engine.index_insert("trade_pk", t, trade_id, rid_to_u64(trid))?;
        t = t2;
        engine.commit(txn, t)
    }

    /// Trade-Result: mark a recent trade completed and credit the account.
    fn trade_result(&mut self, engine: &mut StorageEngine, now: SimInstant) -> FlashResult<SimInstant> {
        let txn = engine.begin();
        let mut t = now;
        if self.next_trade_id > 0 {
            let lo = self.next_trade_id.saturating_sub(50).max(1);
            let trade_id = self.rng.range(lo, self.next_trade_id + 1);
            if let (Some(tref), t2) = engine.index_get("trade_pk", t, trade_id)? {
                t = t2;
                let trid = u64_to_rid(tref);
                if let (true, t2) = engine.read_into("trade", t, trid, &mut self.row)? {
                    t = t2;
                    self.row[16..24].copy_from_slice(&1u64.to_le_bytes()); // status = completed
                    let (_, t2) = engine.update("trade", txn, t, trid, &self.row)?;
                    t = t2;
                }
            }
        }
        let customer = self.customer_dist.sample(&mut self.rng);
        let account = self.account_key(customer, 0);
        let (arid, t2) = Self::read_by_key(engine, "account_pk", "account", account, t, &mut self.row)?;
        t = t2;
        let bal = i64::from_le_bytes(self.row[8..16].try_into().unwrap()) + 500;
        self.row[8..16].copy_from_slice(&bal.to_le_bytes());
        let (_, t2) = engine.update("account", txn, t, arid, &self.row)?;
        t = t2;
        engine.commit(txn, t)
    }

    /// Trade-Lookup: read a window of recent trades.
    fn trade_lookup(&mut self, engine: &mut StorageEngine, now: SimInstant) -> FlashResult<SimInstant> {
        let txn = engine.begin();
        let mut t = now;
        if self.next_trade_id > 0 {
            let lo = self.next_trade_id.saturating_sub(20).max(1);
            let mut refs = Vec::new();
            let (_, t2) = engine.index_range("trade_pk", t, lo, self.next_trade_id, |_, v| refs.push(v))?;
            t = t2;
            for r in refs {
                let (_, t2) = engine.read_into("trade", t, u64_to_rid(r), &mut self.row)?;
                t = t2;
            }
        }
        engine.commit(txn, t)
    }

    /// Customer-Position: read a customer and all their accounts.
    fn customer_position(
        &mut self,
        engine: &mut StorageEngine,
        now: SimInstant,
    ) -> FlashResult<SimInstant> {
        let customer = self.customer_dist.sample(&mut self.rng);
        let txn = engine.begin();
        let mut t = now;
        let (_, t2) = Self::read_by_key(engine, "customer_pk", "customer", customer, t, &mut self.row)?;
        t = t2;
        for slot in 0..self.config.accounts_per_customer {
            let account = self.account_key(customer, slot);
            let (_, t2) = Self::read_by_key(engine, "account_pk", "account", account, t, &mut self.row)?;
            t = t2;
        }
        engine.commit(txn, t)
    }
}

impl Workload for TpcE {
    fn name(&self) -> &'static str {
        "tpce"
    }

    fn setup(&mut self, engine: &mut StorageEngine, now: SimInstant) -> FlashResult<SimInstant> {
        let mut t = now;
        for table in ["customer", "account", "security", "trade"] {
            engine.create_table(table);
        }
        for index in ["customer_pk", "account_pk", "security_pk", "trade_pk"] {
            engine.create_index(index, t)?;
        }
        let txn = engine.begin();
        for c in 0..self.config.customers {
            row(&mut self.row, 280, c, 0);
            let (rid, t2) = engine.insert("customer", txn, t, &self.row)?;
            let (_, t3) = engine.index_insert("customer_pk", t2, c, rid_to_u64(rid))?;
            t = t3;
        }
        for a in 0..self.config.accounts() {
            row(&mut self.row, 120, a, 10_000);
            let (rid, t2) = engine.insert("account", txn, t, &self.row)?;
            let (_, t3) = engine.index_insert("account_pk", t2, a, rid_to_u64(rid))?;
            t = t3;
            if a % 256 == 0 {
                t = engine.maybe_flush(t)?;
            }
        }
        for s in 0..self.config.securities {
            row(&mut self.row, 180, s, 0);
            let (rid, t2) = engine.insert("security", txn, t, &self.row)?;
            let (_, t3) = engine.index_insert("security_pk", t2, s, rid_to_u64(rid))?;
            t = t3;
        }
        t = engine.commit(txn, t)?;
        t = engine.checkpoint(t)?;
        Ok(t)
    }

    fn run_transaction(
        &mut self,
        engine: &mut StorageEngine,
        _client: usize,
        now: SimInstant,
    ) -> FlashResult<(SimInstant, TxnKind)> {
        // Read-heavier mix: ~23 % writes, 77 % reads (in the spirit of TPC-E's
        // 76.9 % read-only transaction share).
        let dice = self.rng.range(0, 100);
        let (end, kind, slot) = if dice < 12 {
            (self.trade_order(engine, now)?, TxnKind::ReadWrite, 0)
        } else if dice < 23 {
            (self.trade_result(engine, now)?, TxnKind::ReadWrite, 1)
        } else if dice < 60 {
            (self.trade_lookup(engine, now)?, TxnKind::ReadOnly, 2)
        } else {
            (self.customer_position(engine, now)?, TxnKind::ReadOnly, 3)
        };
        self.mix_counts[slot] += 1;
        Ok((end, kind))
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

    #[test]
    fn setup_and_mix() {
        let mut e = engine();
        let mut w = TpcE::new(TpcEConfig::tiny());
        let mut now = w.setup(&mut e, 0).unwrap();
        for _ in 0..150 {
            let (t, _) = w.run_transaction(&mut e, 0, now).unwrap();
            now = t;
        }
        assert!(w.mix_counts.iter().all(|&c| c > 0), "{:?}", w.mix_counts);
        // Read-only transactions dominate.
        let reads = w.mix_counts[2] + w.mix_counts[3];
        let writes = w.mix_counts[0] + w.mix_counts[1];
        assert!(reads > writes * 2, "mix should be read-heavy: {:?}", w.mix_counts);
    }

    #[test]
    fn trades_accumulate() {
        let mut e = engine();
        let mut w = TpcE::new(TpcEConfig::tiny());
        let mut now = w.setup(&mut e, 0).unwrap();
        for _ in 0..10 {
            now = w.trade_order(&mut e, now).unwrap();
        }
        let (trades, _) = e.scan("trade", now, |_, _| {}).unwrap();
        assert_eq!(trades, 10);
    }
}

//! TPC-C: order-entry OLTP.
//!
//! The five-transaction mix (New-Order 45 %, Payment 43 %, Order-Status 4 %,
//! Delivery 4 %, Stock-Level 4 %) with NURand customer/item skew, implemented
//! against the storage engine's heap files and B+-tree indexes.  Row widths
//! follow the TPC-C schema closely (customer ≈ 650 B, stock ≈ 300 B, ...), so
//! page-access patterns — the quantity that matters for the Flash experiments
//! — are representative even though the row *contents* are synthetic.

use std::collections::VecDeque;

use nand_flash::FlashResult;
use sim_utils::dist::NuRand;
use sim_utils::rng::SimRng;
use sim_utils::time::SimInstant;
use storage_engine::EngineOps;

use crate::rid_codec::{rid_to_u64, u64_to_rid};
use crate::workload::{TxnKind, Workload};

/// TPC-C configuration (scaled-down defaults).
#[derive(Debug, Clone, Copy)]
pub struct TpcCConfig {
    /// Scale factor = number of warehouses.
    pub warehouses: u64,
    /// Districts per warehouse (spec: 10).
    pub districts_per_warehouse: u64,
    /// Customers per district (spec: 3 000; scaled down by default).
    pub customers_per_district: u64,
    /// Number of items (spec: 100 000; scaled down by default).
    pub items: u64,
    /// Random seed.
    pub seed: u64,
}

impl TpcCConfig {
    /// A scaled configuration: `warehouses` warehouses, 10 districts each,
    /// 300 customers per district, 2 000 items.
    pub fn scaled(warehouses: u64) -> Self {
        Self {
            warehouses: warehouses.max(1),
            districts_per_warehouse: 10,
            customers_per_district: 300,
            items: 2_000,
            seed: 0xCC,
        }
    }

    /// A very small configuration for unit tests.
    pub fn tiny() -> Self {
        Self {
            warehouses: 1,
            districts_per_warehouse: 2,
            customers_per_district: 30,
            items: 100,
            seed: 0xCC,
        }
    }

    fn districts(&self) -> u64 {
        self.warehouses * self.districts_per_warehouse
    }

    fn customers(&self) -> u64 {
        self.districts() * self.customers_per_district
    }
}

/// The TPC-C workload driver.
pub struct TpcC {
    config: TpcCConfig,
    /// Table/index names under this client's prefix — concurrent clients of
    /// one shared engine use disjoint prefixes so their data partitions
    /// never overlap.
    names: Names,
    /// The one row buffer every read fills and every written row is built in.
    row: Vec<u8>,
    /// Index-range results of Order-Status / Stock-Level (reused).
    refs: Vec<u64>,
    rng: SimRng,
    nurand_customer: NuRand,
    nurand_item: NuRand,
    /// Global order-id counter.
    next_order_id: u64,
    /// Undelivered orders, per warehouse (FIFO), for the Delivery txn.
    undelivered: Vec<VecDeque<u64>>,
    /// Statistics: committed transactions per type.
    pub mix_counts: [u64; 5],
}

/// The nine tables and seven indexes, each name resolved once: the prefix is
/// fixed at construction, so no transaction formats a name.
struct Names {
    warehouse: String,
    district: String,
    customer: String,
    item: String,
    stock: String,
    orders: String,
    order_line: String,
    new_order: String,
    history: String,
    warehouse_pk: String,
    district_pk: String,
    customer_pk: String,
    item_pk: String,
    stock_pk: String,
    orders_pk: String,
    order_line_pk: String,
}

impl Names {
    fn new(prefix: &str) -> Self {
        let name = |base: &str| format!("{prefix}{base}");
        Self {
            warehouse: name("warehouse"),
            district: name("district"),
            customer: name("customer"),
            item: name("item"),
            stock: name("stock"),
            orders: name("orders"),
            order_line: name("order_line"),
            new_order: name("new_order"),
            history: name("history"),
            warehouse_pk: name("warehouse_pk"),
            district_pk: name("district_pk"),
            customer_pk: name("customer_pk"),
            item_pk: name("item_pk"),
            stock_pk: name("stock_pk"),
            orders_pk: name("orders_pk"),
            order_line_pk: name("order_line_pk"),
        }
    }
}

/// Build a synthetic row of `len` bytes (at least 16) in `out`.
fn row(out: &mut Vec<u8>, len: usize, key: u64, extra: u64) {
    crate::fill_row(out, len.max(16), &[key, extra]);
}

impl TpcC {
    /// Create the workload from a configuration.
    pub fn new(config: TpcCConfig) -> Self {
        Self::with_prefix(config, "")
    }

    /// Create the workload with every table/index name prefixed — N
    /// concurrent clients sharing one engine each use a distinct prefix so
    /// their partitions are disjoint.
    pub fn with_prefix(config: TpcCConfig, prefix: impl Into<String>) -> Self {
        Self {
            names: Names::new(&prefix.into()),
            row: Vec::new(),
            refs: Vec::new(),
            rng: SimRng::new(config.seed),
            nurand_customer: NuRand::new(1023, 0, config.customers_per_district - 1, 661),
            nurand_item: NuRand::new(8191, 0, config.items - 1, 7911),
            next_order_id: 0,
            undelivered: (0..config.warehouses).map(|_| VecDeque::new()).collect(),
            mix_counts: [0; 5],
            config,
        }
    }

    /// Configuration in use.
    pub fn config(&self) -> TpcCConfig {
        self.config
    }

    fn district_key(&self, w: u64, d: u64) -> u64 {
        w * self.config.districts_per_warehouse + d
    }

    fn customer_key(&self, w: u64, d: u64, c: u64) -> u64 {
        self.district_key(w, d) * self.config.customers_per_district + c
    }

    fn stock_key(&self, w: u64, item: u64) -> u64 {
        w * self.config.items + item
    }

    /// Helper: index lookup + heap read into `row`; panics if the row is
    /// missing (load-time invariant).
    fn read_by_key<E: EngineOps>(
        engine: &mut E,
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

    // --- the five transactions ---------------------------------------------

    fn new_order<E: EngineOps>(
        &mut self,
        engine: &mut E,
        now: SimInstant,
    ) -> FlashResult<SimInstant> {
        let w = self.rng.range(0, self.config.warehouses);
        let d = self.rng.range(0, self.config.districts_per_warehouse);
        let c = self.nurand_customer.sample(&mut self.rng);
        let txn = engine.begin();
        let n = &self.names;
        let mut t = now;

        // Warehouse and customer reads.
        let (_, t2) = Self::read_by_key(engine, &n.warehouse_pk, &n.warehouse, w, t, &mut self.row)?;
        t = t2;
        let ckey = self.customer_key(w, d, c);
        let (_, t2) = Self::read_by_key(engine, &n.customer_pk, &n.customer, ckey, t, &mut self.row)?;
        t = t2;

        // District read + update (next order id).
        let dkey = self.district_key(w, d);
        let (drid, t2) = Self::read_by_key(engine, &n.district_pk, &n.district, dkey, t, &mut self.row)?;
        t = t2;
        let next_oid = u64::from_le_bytes(self.row[8..16].try_into().unwrap()) + 1;
        self.row[8..16].copy_from_slice(&next_oid.to_le_bytes());
        let (_, t2) = engine.update(&n.district, txn, t, drid, &self.row)?;
        t = t2;

        // Insert the order and its lines.
        self.next_order_id += 1;
        let o_id = self.next_order_id;
        let ol_cnt = self.rng.range(5, 16);
        row(&mut self.row, 32, o_id, ol_cnt);
        let (orid, t2) = engine.insert(&n.orders, txn, t, &self.row)?;
        t = t2;
        let (_, t2) = engine.index_insert(&n.orders_pk, t, o_id, rid_to_u64(orid))?;
        t = t2;
        row(&mut self.row, 8, o_id, 0);
        let (_, t2) = engine.insert(&n.new_order, txn, t, &self.row)?;
        t = t2;
        self.undelivered[w as usize].push_back(o_id);

        for line in 0..ol_cnt {
            let item = self.nurand_item.sample(&mut self.rng);
            // Item read (read-only table).
            let (_, t2) = Self::read_by_key(engine, &n.item_pk, &n.item, item, t, &mut self.row)?;
            t = t2;
            // Stock read + update.
            let skey = self.stock_key(w, item);
            let (srid, t2) = Self::read_by_key(engine, &n.stock_pk, &n.stock, skey, t, &mut self.row)?;
            t = t2;
            let qty = u64::from_le_bytes(self.row[8..16].try_into().unwrap());
            let new_qty = if qty > 10 { qty - 5 } else { qty + 91 };
            self.row[8..16].copy_from_slice(&new_qty.to_le_bytes());
            let (_, t2) = engine.update(&n.stock, txn, t, srid, &self.row)?;
            t = t2;
            // Order line insert + index entry (o_id * 16 + line).
            row(&mut self.row, 54, o_id, item);
            let (olrid, t2) = engine.insert(&n.order_line, txn, t, &self.row)?;
            t = t2;
            let (_, t2) = engine.index_insert(&n.order_line_pk, t, o_id * 16 + line, rid_to_u64(olrid))?;
            t = t2;
        }
        engine.commit(txn, t)
    }

    fn payment<E: EngineOps>(&mut self, engine: &mut E, now: SimInstant) -> FlashResult<SimInstant> {
        let w = self.rng.range(0, self.config.warehouses);
        let d = self.rng.range(0, self.config.districts_per_warehouse);
        let c = self.nurand_customer.sample(&mut self.rng);
        let amount = self.rng.range(1, 5000) as i64;
        let txn = engine.begin();
        let n = &self.names;
        let mut t = now;

        // Warehouse read + update (YTD).
        let (wrid, t2) = Self::read_by_key(engine, &n.warehouse_pk, &n.warehouse, w, t, &mut self.row)?;
        t = t2;
        let ytd = i64::from_le_bytes(self.row[8..16].try_into().unwrap()) + amount;
        self.row[8..16].copy_from_slice(&ytd.to_le_bytes());
        let (_, t2) = engine.update(&n.warehouse, txn, t, wrid, &self.row)?;
        t = t2;

        // District read + update.
        let dkey = self.district_key(w, d);
        let (drid, t2) = Self::read_by_key(engine, &n.district_pk, &n.district, dkey, t, &mut self.row)?;
        t = t2;
        let dytd = i64::from_le_bytes(self.row[16..24].try_into().unwrap()) + amount;
        self.row[16..24].copy_from_slice(&dytd.to_le_bytes());
        let (_, t2) = engine.update(&n.district, txn, t, drid, &self.row)?;
        t = t2;

        // Customer read + update (balance).
        let ckey = self.customer_key(w, d, c);
        let (crid, t2) = Self::read_by_key(engine, &n.customer_pk, &n.customer, ckey, t, &mut self.row)?;
        t = t2;
        let bal = i64::from_le_bytes(self.row[8..16].try_into().unwrap()) - amount;
        self.row[8..16].copy_from_slice(&bal.to_le_bytes());
        let (_, t2) = engine.update(&n.customer, txn, t, crid, &self.row)?;
        t = t2;

        // History append.
        row(&mut self.row, 46, ckey, amount as u64);
        let (_, t2) = engine.insert(&n.history, txn, t, &self.row)?;
        t = t2;
        engine.commit(txn, t)
    }

    fn order_status<E: EngineOps>(
        &mut self,
        engine: &mut E,
        now: SimInstant,
    ) -> FlashResult<SimInstant> {
        let w = self.rng.range(0, self.config.warehouses);
        let d = self.rng.range(0, self.config.districts_per_warehouse);
        let c = self.nurand_customer.sample(&mut self.rng);
        let txn = engine.begin();
        let n = &self.names;
        let mut t = now;
        let ckey = self.customer_key(w, d, c);
        let (_, t2) = Self::read_by_key(engine, &n.customer_pk, &n.customer, ckey, t, &mut self.row)?;
        t = t2;
        // Read a recent order and its lines.
        if self.next_order_id > 0 {
            let lo = self.next_order_id.saturating_sub(20).max(1);
            let o_id = self.rng.range(lo, self.next_order_id + 1);
            if let (Some(oref), t2) = engine.index_get(&n.orders_pk, t, o_id)? {
                t = t2;
                let (_, t2) = engine.read_into(&n.orders, t, u64_to_rid(oref), &mut self.row)?;
                t = t2;
                let refs = &mut self.refs;
                refs.clear();
                let (_, t2) = engine.index_range(&n.order_line_pk, t, o_id * 16, o_id * 16 + 15, &mut |_, v| {
                    refs.push(v);
                })?;
                t = t2;
                for &r in self.refs.iter() {
                    let (_, t2) = engine.read_into(&n.order_line, t, u64_to_rid(r), &mut self.row)?;
                    t = t2;
                }
            } else {
                // Order not found (already cleaned up) — nothing more to read.
            }
        }
        engine.commit(txn, t)
    }

    fn delivery<E: EngineOps>(&mut self, engine: &mut E, now: SimInstant) -> FlashResult<SimInstant> {
        let w = self.rng.range(0, self.config.warehouses) as usize;
        let txn = engine.begin();
        let n = &self.names;
        let mut t = now;
        for _ in 0..10 {
            let Some(o_id) = self.undelivered[w].pop_front() else {
                break;
            };
            if let (Some(oref), t2) = engine.index_get(&n.orders_pk, t, o_id)? {
                t = t2;
                let orid = u64_to_rid(oref);
                let (found, t2) = engine.read_into(&n.orders, t, orid, &mut self.row)?;
                t = t2;
                if found {
                    // Set the carrier id field.
                    self.row[8..16].copy_from_slice(&7u64.to_le_bytes());
                    let (_, t2) = engine.update(&n.orders, txn, t, orid, &self.row)?;
                    t = t2;
                }
            }
            // Credit a random customer of the warehouse.
            let d = self.rng.range(0, self.config.districts_per_warehouse);
            let c = self.rng.range(0, self.config.customers_per_district);
            let ckey = self.customer_key(w as u64, d, c);
            let (crid, t2) = Self::read_by_key(engine, &n.customer_pk, &n.customer, ckey, t, &mut self.row)?;
            t = t2;
            let bal = i64::from_le_bytes(self.row[8..16].try_into().unwrap()) + 100;
            self.row[8..16].copy_from_slice(&bal.to_le_bytes());
            let (_, t2) = engine.update(&n.customer, txn, t, crid, &self.row)?;
            t = t2;
        }
        engine.commit(txn, t)
    }

    fn stock_level<E: EngineOps>(
        &mut self,
        engine: &mut E,
        now: SimInstant,
    ) -> FlashResult<SimInstant> {
        let w = self.rng.range(0, self.config.warehouses);
        let d = self.rng.range(0, self.config.districts_per_warehouse);
        let txn = engine.begin();
        let n = &self.names;
        let mut t = now;
        let dkey = self.district_key(w, d);
        let (_, t2) = Self::read_by_key(engine, &n.district_pk, &n.district, dkey, t, &mut self.row)?;
        t = t2;
        // Examine the order lines of the last 20 orders and read their stock.
        if self.next_order_id > 0 {
            let lo = self.next_order_id.saturating_sub(20).max(1);
            let refs = &mut self.refs;
            refs.clear();
            let (_, t2) = engine.index_range(
                &n.order_line_pk,
                t,
                lo * 16,
                self.next_order_id * 16 + 15,
                &mut |_, v| refs.push(v),
            )?;
            t = t2;
            for &r in self.refs.iter().take(40) {
                let (found, t2) = engine.read_into(&n.order_line, t, u64_to_rid(r), &mut self.row)?;
                t = t2;
                if found {
                    let item = u64::from_le_bytes(self.row[8..16].try_into().unwrap());
                    let skey = self.stock_key(w, item);
                    let (_, t2) = Self::read_by_key(engine, &n.stock_pk, &n.stock, skey, t, &mut self.row)?;
                    t = t2;
                }
            }
        }
        engine.commit(txn, t)
    }
}

impl<E: EngineOps> Workload<E> for TpcC {
    fn name(&self) -> &'static str {
        "tpcc"
    }

    fn setup(&mut self, engine: &mut E, now: SimInstant) -> FlashResult<SimInstant> {
        let n = &self.names;
        let mut t = now;
        for table in [
            &n.warehouse,
            &n.district,
            &n.customer,
            &n.item,
            &n.stock,
            &n.orders,
            &n.order_line,
            &n.new_order,
            &n.history,
        ] {
            engine.create_table(table);
        }
        for index in [
            &n.warehouse_pk,
            &n.district_pk,
            &n.customer_pk,
            &n.item_pk,
            &n.stock_pk,
            &n.orders_pk,
            &n.order_line_pk,
        ] {
            engine.create_index(index, t)?;
        }
        let txn = engine.begin();
        for w in 0..self.config.warehouses {
            row(&mut self.row, 89, w, 0);
            let (rid, t2) = engine.insert(&n.warehouse, txn, t, &self.row)?;
            let (_, t3) = engine.index_insert(&n.warehouse_pk, t2, w, rid_to_u64(rid))?;
            t = t3;
        }
        for d in 0..self.config.districts() {
            row(&mut self.row, 95, d, 1);
            let (rid, t2) = engine.insert(&n.district, txn, t, &self.row)?;
            let (_, t3) = engine.index_insert(&n.district_pk, t2, d, rid_to_u64(rid))?;
            t = t3;
        }
        for c in 0..self.config.customers() {
            row(&mut self.row, 650, c, 0);
            let (rid, t2) = engine.insert(&n.customer, txn, t, &self.row)?;
            let (_, t3) = engine.index_insert(&n.customer_pk, t2, c, rid_to_u64(rid))?;
            t = t3;
            if c % 256 == 0 {
                t = engine.maybe_flush(t)?;
            }
        }
        for i in 0..self.config.items {
            row(&mut self.row, 82, i, 0);
            let (rid, t2) = engine.insert(&n.item, txn, t, &self.row)?;
            let (_, t3) = engine.index_insert(&n.item_pk, t2, i, rid_to_u64(rid))?;
            t = t3;
        }
        for w in 0..self.config.warehouses {
            for i in 0..self.config.items {
                let key = self.stock_key(w, i);
                row(&mut self.row, 306, key, 50);
                let (rid, t2) = engine.insert(&n.stock, txn, t, &self.row)?;
                let (_, t3) = engine.index_insert(&n.stock_pk, t2, key, rid_to_u64(rid))?;
                t = t3;
                if key.is_multiple_of(256) {
                    t = engine.maybe_flush(t)?;
                }
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
        // Standard TPC-C mix.
        let dice = self.rng.range(0, 100);
        let (end, kind, slot) = if dice < 45 {
            (self.new_order(engine, now)?, TxnKind::ReadWrite, 0)
        } else if dice < 88 {
            (self.payment(engine, now)?, TxnKind::ReadWrite, 1)
        } else if dice < 92 {
            (self.order_status(engine, now)?, TxnKind::ReadOnly, 2)
        } else if dice < 96 {
            (self.delivery(engine, now)?, TxnKind::ReadWrite, 3)
        } else {
            (self.stock_level(engine, now)?, TxnKind::ReadOnly, 4)
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
        cfg.buffer_frames = 512;
        StorageEngine::new(Box::new(MemBackend::new(4096, 32_768)), cfg)
    }

    #[test]
    fn setup_loads_catalog() {
        let mut e = engine();
        let mut w = TpcC::new(TpcCConfig::tiny());
        w.setup(&mut e, 0).unwrap();
        let (warehouses, _) = e.scan("warehouse", 0, |_, _| {}).unwrap();
        let (stock, _) = e.scan("stock", 0, |_, _| {}).unwrap();
        assert_eq!(warehouses, 1);
        assert_eq!(stock, 100);
    }

    #[test]
    fn mix_runs_all_transaction_types() {
        let mut e = engine();
        let mut w = TpcC::new(TpcCConfig::tiny());
        let mut now = w.setup(&mut e, 0).unwrap();
        for _ in 0..200 {
            let (t, _) = w.run_transaction(&mut e, 0, now).unwrap();
            assert!(t >= now);
            now = t;
        }
        assert_eq!(e.committed(), 200 + 1); // +1 for the load transaction
        // Every transaction type must have run at least once.
        assert!(w.mix_counts.iter().all(|&c| c > 0), "{:?}", w.mix_counts);
        // New-Order + Payment dominate the mix.
        let rw = w.mix_counts[0] + w.mix_counts[1];
        assert!(rw > 150, "read-write transactions should dominate: {:?}", w.mix_counts);
    }

    #[test]
    fn new_orders_accumulate_order_lines() {
        let mut e = engine();
        let mut w = TpcC::new(TpcCConfig::tiny());
        let mut now = w.setup(&mut e, 0).unwrap();
        for _ in 0..30 {
            now = w.new_order(&mut e, now).unwrap();
        }
        let (orders, _) = e.scan("orders", now, |_, _| {}).unwrap();
        let (lines, _) = e.scan("order_line", now, |_, _| {}).unwrap();
        assert_eq!(orders, 30);
        assert!((30 * 5..=30 * 15).contains(&lines));
    }

    #[test]
    fn deliveries_consume_undelivered_orders() {
        let mut e = engine();
        let mut cfg = TpcCConfig::tiny();
        cfg.warehouses = 1;
        let mut w = TpcC::new(cfg);
        let mut now = w.setup(&mut e, 0).unwrap();
        for _ in 0..12 {
            now = w.new_order(&mut e, now).unwrap();
        }
        let pending_before = w.undelivered[0].len();
        now = w.delivery(&mut e, now).unwrap();
        let pending_after = w.undelivered[0].len();
        assert!(pending_before > pending_after);
        assert!(pending_before - pending_after <= 10);
        let _ = now;
    }
}

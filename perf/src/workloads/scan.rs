//! Workload `scan_q1_async`: read-only analytical queries over a `lineitem`
//! table several times the buffer pool, with streaming readahead (window 64)
//! and per-die queue depth 8.
//!
//! Three ops in four are a Q1-style full heap scan with aggregation; the
//! fourth is a Q6-style range read over a ship-date index whose entries carry
//! the revenue, so it never touches the heap.  Four closed-loop clients,
//! laggard-stepped: their queries overlap on the virtual clock and queue for
//! the same eight dies, which is what spreads the response times (a lone
//! client's scans all cost the same).  No writes, no WAL, no GC: write-path
//! changes must leave this workload unmoved.
//!
//! The table and the queries are generated here rather than taken from
//! `workloads::TpcH`, which is written against the concrete `StorageEngine`
//! and so cannot run through [`TimedOps`].

use std::collections::BTreeSet;

use nand_flash::{DeviceConfig, TraceEntry};
use noftl_core::FlusherAssignment;
use sim_utils::rng::SimRng;
use sim_utils::time::SimInstant;
use storage_engine::{EngineOps, StorageEngine};

use crate::json::Json;
use crate::scenario::{Scenario, Step};
use crate::shims::{Inner, TimedOps};
use crate::stack::{self, Counters, Wrap};
use crate::workloads::{laggard, Plan};

/// Logical clients interleaved by the loop.
pub const CLIENTS: usize = 4;
/// Per-die queue depth of miss fills and readahead batches.
pub const ASYNC_DEPTH: usize = 8;
/// Buffer-pool frames.
pub const BUFFER_FRAMES: usize = 400;
/// Rows loaded (plus a seed-dependent handful, so no two seeds scan
/// byte-identical tables).
pub const ROWS: u64 = 80_000;
/// Bytes per row.
pub const ROW_BYTES: usize = 120;
/// Distinct ship dates.
pub const DATES: u64 = 2_000;
/// Ship dates covered by one Q6 range.
pub const Q6_WINDOW: u64 = 100;
/// Physical pages of the drive (the table fills about a third).
pub const PHYSICAL_PAGES: u64 = 8_192;

const TABLE: &str = "lineitem";
const INDEX: &str = "lineitem_ship";

/// What the generator knows the queries must return.
struct Expected {
    rows: u64,
    quantity: u64,
    price: u64,
    /// Index entries with ship date < d, for d in 0..=DATES.
    entries_before: Vec<u64>,
    /// Σ revenue over ship dates < d.
    revenue_before: Vec<u64>,
}

struct Scan<O> {
    ops: O,
    rng: SimRng,
    clock: [SimInstant; CLIENTS],
    issued: u64,
    expected: Expected,
    heap_pages: u64,
    writes_after_load: u64,
    scan_page_reads: u64,
    scans: u64,
    config: Json,
}

/// Build, load and warm the workload.
pub fn build(seed: u64, plan: Plan, wrap: Wrap) -> Result<Box<dyn Scenario>, String> {
    let geometry = stack::geometry(PHYSICAL_PAGES);
    let backend = stack::noftl_backend(geometry, 0.10, ASYNC_DEPTH, wrap);
    let engine_config =
        stack::engine_config(BUFFER_FRAMES, FlusherAssignment::DieWise, ASYNC_DEPTH, 0);
    let engine = stack::with_async_env(ASYNC_DEPTH, || StorageEngine::new(backend, engine_config));
    let mut config = Json::obj();
    config
        .set("clients", CLIENTS)
        .set("q1_share", 0.75)
        .set("q6_window_dates", Q6_WINDOW)
        .set("noftl_async_queue_depth", ASYNC_DEPTH)
        .set("engine", stack::engine_config_json(&engine_config))
        .set("geometry", stack::geometry_json(&geometry));
    if wrap.tracing() {
        finish_build(TimedOps(engine), seed, config, plan)
    } else {
        finish_build(engine, seed, config, plan)
    }
}

fn finish_build<O: EngineOps + Inner<StorageEngine> + 'static>(
    mut ops: O,
    seed: u64,
    config: Json,
    plan: Plan,
) -> Result<Box<dyn Scenario>, String> {
    let mut rng = SimRng::new(seed);
    let (expected, now) = load(&mut ops, &mut rng).map_err(|e| format!("scan load: {e}"))?;
    let mut sc = Scan {
        ops,
        rng,
        clock: [now; CLIENTS],
        issued: 0,
        expected,
        heap_pages: 0,
        writes_after_load: 0,
        scan_page_reads: 0,
        scans: 0,
        config,
    };
    let mut pages = BTreeSet::new();
    sc.ops
        .scan(TABLE, now, &mut |rid, _| {
            pages.insert(rid.page);
        })
        .map_err(|e| format!("scan load: {e}"))?;
    sc.heap_pages = pages.len() as u64;
    sc.writes_after_load = sc.ops.inner().backend_counters().host_writes;
    for i in 0..plan.warmup {
        let step = sc.step().map_err(|e| format!("scan warm-up op {i}: {e}"))?;
        if !step.ok {
            return Err(format!("scan warm-up op {i}: wrong aggregate"));
        }
    }
    Ok(Box::new(sc))
}

fn load<O: EngineOps>(ops: &mut O, rng: &mut SimRng) -> Result<(Expected, SimInstant), String> {
    let rows = ROWS + rng.range(0, 256);
    let mut t = 0;
    ops.create_table(TABLE);
    ops.create_index(INDEX, t).map_err(|e| e.to_string())?;
    let mut quantity_total = 0u64;
    let mut price_total = 0u64;
    let mut entries = vec![0u64; DATES as usize + 1];
    let mut revenue = vec![0u64; DATES as usize + 1];
    let txn = ops.begin();
    let mut row = vec![0u8; ROW_BYTES];
    for r in 0..rows {
        let quantity = rng.range(1, 51);
        let price = rng.range(100, 10_000);
        let date = rng.range(0, DATES);
        row[..8].copy_from_slice(&r.to_le_bytes());
        row[8..16].copy_from_slice(&date.to_le_bytes());
        row[16..24].copy_from_slice(&quantity.to_le_bytes());
        row[24..32].copy_from_slice(&price.to_le_bytes());
        let (_, t2) = ops.insert(TABLE, txn, t, &row).map_err(|e| e.to_string())?;
        let (_, t3) = ops
            .index_insert(INDEX, t2, date << 24 | r, quantity * price)
            .map_err(|e| e.to_string())?;
        t = t3;
        quantity_total += quantity;
        price_total += price;
        entries[date as usize + 1] += 1;
        revenue[date as usize + 1] += quantity * price;
        if r % 1024 == 0 {
            t = ops.maybe_flush(t).map_err(|e| e.to_string())?;
        }
    }
    t = ops.commit(txn, t).map_err(|e| e.to_string())?;
    t = ops.checkpoint(t).map_err(|e| e.to_string())?;
    for d in 0..DATES as usize {
        entries[d + 1] += entries[d];
        revenue[d + 1] += revenue[d];
    }
    Ok((
        Expected {
            rows,
            quantity: quantity_total,
            price: price_total,
            entries_before: entries,
            revenue_before: revenue,
        },
        t,
    ))
}

fn u64_at(row: &[u8], at: usize) -> u64 {
    u64::from_le_bytes(row[at..at + 8].try_into().expect("8-byte field"))
}

impl<O: EngineOps + Inner<StorageEngine>> Scenario for Scan<O> {
    fn step(&mut self) -> Result<Step, String> {
        let client = laggard(&self.clock);
        let now = self.clock[client];
        let is_range = self.issued % 4 == 3;
        self.issued += 1;
        let (end, ok) = if is_range {
            let lo = self.rng.range(0, DATES - Q6_WINDOW);
            let hi = lo + Q6_WINDOW;
            let (mut count, mut revenue) = (0u64, 0u64);
            let (_, end) = self
                .ops
                .index_range(INDEX, now, lo << 24, (hi << 24) - 1, &mut |_, v| {
                    count += 1;
                    revenue += v;
                })
                .map_err(|e| e.to_string())?;
            let e = &self.expected;
            let (lo, hi) = (lo as usize, hi as usize);
            let ok = count == e.entries_before[hi] - e.entries_before[lo]
                && revenue == e.revenue_before[hi] - e.revenue_before[lo];
            (end, ok)
        } else {
            let reads_before = self.ops.inner().backend_counters().host_reads;
            let (mut rows, mut quantity, mut price) = (0u64, 0u64, 0u64);
            let (_, end) = self
                .ops
                .scan(TABLE, now, &mut |_, row| {
                    rows += 1;
                    quantity += u64_at(row, 16);
                    price += u64_at(row, 24);
                })
                .map_err(|e| e.to_string())?;
            self.scan_page_reads += self.ops.inner().backend_counters().host_reads - reads_before;
            self.scans += 1;
            let e = &self.expected;
            (
                end,
                rows == e.rows && quantity == e.quantity && price == e.price,
            )
        };
        // Consume the queued-completion stream of the miss fills and
        // readahead batches (see `tpcb.rs`).
        drop(self.ops.inner_mut().poll_completions());
        self.clock[client] = end;
        Ok(Step {
            v_start: now,
            v_end: end,
            flush_stall_v_ns: 0,
            ok: ok && end >= now,
        })
    }

    fn makespan(&self) -> SimInstant {
        *self.clock.iter().max().expect("clients")
    }

    fn counters(&self) -> Counters {
        let e = self.ops.inner();
        let mut c = Counters::default();
        c.add_backend(e.backend());
        c.add_engine(
            e.buffer_stats(),
            e.readahead_stats(),
            e.flusher_stats(),
            e.log_forces(),
            e.wal().log_writes(),
        );
        c.scan_page_reads = self.scan_page_reads;
        // Fewest page transfers a full scan of `heap_pages` needs with
        // `BUFFER_FRAMES` frames, whatever the replacement policy: the frames
        // can keep at most that many pages from the previous scan.
        c.scan_min_pages = self.scans * self.heap_pages.saturating_sub(BUFFER_FRAMES as u64);
        c
    }

    fn finish(&mut self) -> Result<(), String> {
        // The property the workload is chosen for: queries write nothing.
        let written = self.ops.inner().backend_counters().host_writes;
        if written != self.writes_after_load {
            return Err(format!(
                "scan: read-only queries wrote {} pages",
                written - self.writes_after_load
            ));
        }
        Ok(())
    }

    fn describe(&self) -> Json {
        let mut o = self.config.clone();
        o.set("stack", "noftl")
            .set("rows", self.expected.rows)
            .set("heap_pages", self.heap_pages)
            .set(
                "table_over_pool",
                self.heap_pages as f64 / BUFFER_FRAMES as f64,
            )
            .set("logical_pages", self.ops.inner().backend().num_pages())
            .set(
                "utilisation_end",
                stack::utilisation(stack::device_of(self.ops.inner().backend())),
            );
        o
    }

    fn device_trace(&self, visit: &mut dyn FnMut(&DeviceConfig, &[TraceEntry])) {
        stack::visit_device_trace(self.ops.inner().backend(), visit);
    }
}

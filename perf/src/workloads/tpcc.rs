//! Workloads `tpcc_noftl` and `tpcc_faster`: the TPC-C five-transaction mix,
//! 16 logical clients laggard-stepped on the virtual clock, a flush cycle
//! stalling all of them (`stall_all_on_flush`), over a single-threaded
//! `StorageEngine` with synchronous dispatch.
//!
//! The two workloads run the identical transaction stream (same seed, same
//! op counts, same drive geometry) and differ only in the stack below the
//! `StorageBackend` trait: NoFTL with die-wise flushers, or the FASTer FTL
//! inside an emulated SATA2 SSD with global flushers.

use nand_flash::{DeviceConfig, TraceEntry};
use noftl_core::FlusherAssignment;
use sim_utils::time::SimInstant;
use storage_engine::{EngineOps, StorageEngine};
use workloads::{TpcC, TpcCConfig, Workload};

use crate::json::Json;
use crate::scenario::{Scenario, Step};
use crate::shims::{Inner, TimedOps};
use crate::stack::{self, Counters, Wrap};
use crate::workloads::{laggard, Plan};

/// Which stack the transaction stream runs on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stack {
    /// `NoFtlBackend`, die-wise flushers.
    NoFtl,
    /// `BlockDeviceBackend(EmulatedSsd(FasterFtl, sata2))`, global flushers.
    Faster,
}

/// Logical clients interleaved by the loop.
pub const CLIENTS: usize = 16;
/// Warehouses loaded.
pub const WAREHOUSES: u64 = 32;
/// Customers per district.
pub const CUSTOMERS_PER_DISTRICT: u64 = 300;
/// Items (and stock rows per warehouse).
pub const ITEMS: u64 = 2_000;
/// Buffer-pool frames: at most 1/8 of the loaded database.
pub const BUFFER_FRAMES: usize = 640;
/// Pages the loaded database occupies (heap + index, measured).
pub const LOADED_PAGES: u64 = 22_400;
/// Pages the database grows by per 1000 transactions (measured).
pub const GROWTH_PAGES_PER_KOP: f64 = 117.0;
/// Share of the drive's physical pages holding valid data, start to end:
/// set-up writes static filler to every logical page the run will use before
/// it loads the database (see [`stack::fill`]), so utilisation does not
/// climb as TPC-C inserts grow the database and GC works from the first op.
pub const UTILISATION: f64 = 0.75;
/// Logical pages left over when the run ends, as a share of the database.
pub const HEADROOM: f64 = 0.05;

struct Tpcc<O> {
    ops: O,
    workload: TpcC,
    clock: [SimInstant; CLIENTS],
    stack: Stack,
    config: Json,
}

/// Build, load and warm the workload.
pub fn build(stack: Stack, seed: u64, plan: Plan, wrap: Wrap) -> Result<Box<dyn Scenario>, String> {
    let live_at_end =
        LOADED_PAGES as f64 + GROWTH_PAGES_PER_KOP * (plan.warmup + plan.timed) as f64 / 1000.0;
    let filled = (live_at_end * (1.0 + HEADROOM)).ceil() as u64;
    let geometry = stack::geometry((filled as f64 / UTILISATION).ceil() as u64);
    let (mut backend, assignment) = match stack {
        Stack::NoFtl => (
            stack::noftl_backend(geometry, 1.0 - UTILISATION, 1, wrap),
            FlusherAssignment::DieWise,
        ),
        Stack::Faster => (
            stack::faster_backend(geometry, wrap),
            FlusherAssignment::Global,
        ),
    };
    // Both stacks hold the same filler, whatever their own logical capacity.
    stack::fill(backend.as_mut(), filled)?;
    let engine_config = stack::engine_config(BUFFER_FRAMES, assignment, 1, 0);
    let engine = stack::with_async_env(1, || StorageEngine::new(backend, engine_config));
    let tpcc_config = TpcCConfig {
        warehouses: WAREHOUSES,
        districts_per_warehouse: 10,
        customers_per_district: CUSTOMERS_PER_DISTRICT,
        items: ITEMS,
        seed,
    };
    let mut config = Json::obj();
    config
        .set("clients", CLIENTS)
        .set("stall_all_on_flush", true)
        .set("warehouses", WAREHOUSES)
        .set("customers", WAREHOUSES * 10 * CUSTOMERS_PER_DISTRICT)
        .set("stock_rows", WAREHOUSES * ITEMS)
        .set("filled_logical_pages", filled)
        .set("engine", stack::engine_config_json(&engine_config))
        .set("geometry", stack::geometry_json(&geometry));
    let workload = TpcC::new(tpcc_config);
    if wrap.tracing() {
        finish_build(TimedOps(engine), workload, stack, config, plan)
    } else {
        finish_build(engine, workload, stack, config, plan)
    }
}

fn finish_build<O: EngineOps + Inner<StorageEngine> + 'static>(
    ops: O,
    workload: TpcC,
    stack: Stack,
    config: Json,
    plan: Plan,
) -> Result<Box<dyn Scenario>, String> {
    let mut sc = Tpcc {
        ops,
        workload,
        clock: [0; CLIENTS],
        stack,
        config,
    };
    let loaded = sc
        .workload
        .setup(&mut sc.ops, 0)
        .map_err(|e| format!("tpcc load: {e}"))?;
    sc.clock = [loaded; CLIENTS];
    let loaded_pages = stack::valid_pages(stack::device_of(sc.ops.inner().backend()));
    sc.config.set("loaded_pages", loaded_pages);
    for i in 0..plan.warmup {
        sc.step().map_err(|e| format!("tpcc warm-up op {i}: {e}"))?;
    }
    Ok(Box::new(sc))
}

impl<O: EngineOps + Inner<StorageEngine>> Tpcc<O> {
    fn count_rows(&mut self, table: &str) -> Result<u64, String> {
        let now = self.makespan();
        self.ops
            .scan(table, now, &mut |_, _| {})
            .map(|(rows, _)| rows)
            .map_err(|e| format!("scan {table}: {e}"))
    }
}

impl<O: EngineOps + Inner<StorageEngine>> Scenario for Tpcc<O> {
    fn step(&mut self) -> Result<Step, String> {
        let client = laggard(&self.clock);
        let now = self.clock[client];
        let committed = self.ops.committed();
        let (end, _) = self
            .workload
            .run_transaction(&mut self.ops, client, now)
            .map_err(|e| e.to_string())?;
        let flush_end = self.ops.maybe_flush(end).map_err(|e| e.to_string())?;
        self.clock[client] = end;
        if flush_end > end {
            // No clean frames until the db-writers finish: every client waits.
            for t in self.clock.iter_mut() {
                *t = (*t).max(flush_end);
            }
        }
        Ok(Step {
            v_start: now,
            v_end: end.max(flush_end),
            flush_stall_v_ns: flush_end.saturating_sub(end),
            ok: end >= now && self.ops.committed() == committed + 1,
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
        c
    }

    fn finish(&mut self) -> Result<(), String> {
        // TPC-C consistency: every New-Order inserted exactly one `orders`
        // and one `new_order` row; every Payment one `history` row.
        let [new_orders, payments, ..] = self.workload.mix_counts;
        for (table, expect) in [
            ("orders", new_orders),
            ("new_order", new_orders),
            ("history", payments),
        ] {
            let rows = self.count_rows(table)?;
            if rows != expect {
                return Err(format!(
                    "tpcc: table {table} holds {rows} rows, the transaction stream inserted {expect}"
                ));
            }
        }
        Ok(())
    }

    fn describe(&self) -> Json {
        let e = self.ops.inner();
        let mut o = self.config.clone();
        o.set(
            "stack",
            match self.stack {
                Stack::NoFtl => "noftl",
                Stack::Faster => "ftl-faster",
            },
        )
        .set("logical_pages", e.backend().num_pages())
        .set(
            "utilisation_end",
            stack::utilisation(stack::device_of(e.backend())),
        )
        .set(
            "mix_counts",
            Json::Arr(self.workload.mix_counts.iter().map(|&c| c.into()).collect()),
        );
        o
    }

    fn device_trace(&self, visit: &mut dyn FnMut(&DeviceConfig, &[TraceEntry])) {
        stack::visit_device_trace(self.ops.inner().backend(), visit);
    }
}

//! Workload `trace_replay_gc`: a TPC-C page trace, recorded during set-up on
//! an in-memory engine (the paper's Figure 3 methodology), replayed op by op
//! into NoFTL's page interface and looped until well past GC steady state.
//!
//! `storage-engine` is idle in the timed phase; mapping, regions, GC, wear
//! leveling (`noftl-core`) and the device model (`nand-flash`) do all the
//! work, which makes `write_amp` and `erases_per_kop` the headline here.
//!
//! The replay goes through `NoFtlBackend`, whose `read_page`, `write_page`
//! and `free_page_hint` are one-line forwards to `NoFtl::{read, write,
//! mark_dead}` — that way the traced run reuses [`crate::shims::TimedBackend`]
//! instead of a fourth shim.
//!
//! Every written page carries `(lpn, version)` in its first 16 bytes; every
//! read checks that stamp against the last version written, and every 64th
//! read compares the whole payload.

use std::collections::BTreeMap;

use nand_flash::{DeviceConfig, TraceEntry};
use noftl_core::FlusherAssignment;
use sim_utils::time::SimInstant;
use storage_engine::backend::{MemBackend, StorageBackend};
use storage_engine::StorageEngine;
use workloads::trace::TracingBackend;
use workloads::{BenchmarkDriver, DriverConfig, TpcC, TpcCConfig, TraceOp, Workload};

use crate::json::Json;
use crate::scenario::{Scenario, Step};
use crate::stack::{self, Counters, Wrap};
use crate::workloads::Plan;

/// Warehouses of the recorded TPC-C database.
pub const RECORDED_WAREHOUSES: u64 = 8;
/// TPC-C transactions recorded into the trace.
pub const RECORDED_TRANSACTIONS: u64 = 12_000;
/// Buffer-pool frames of the recording engine (small, so the trace is
/// write-heavy like the paper's buffer-constrained set-ups).
pub const RECORDING_FRAMES: usize = 256;
/// Share of the drive's physical pages the trace's distinct written pages
/// fill.
pub const UTILISATION: f64 = 0.70;
/// Over-provisioning ratio of the replay drive.
pub const OP_RATIO: f64 = 0.10;
/// Page operations per op.  A single page read is a device constant on the
/// virtual clock (sense + transfer), and more than half of the trace is
/// reads: per page operation, the median latency could never move.  A burst
/// mixes reads, writes and whatever GC they trigger.
pub const BURST: usize = 16;
/// Every n-th read compares the whole payload, not just its stamp.
const FULL_COMPARE_EVERY: u64 = 64;
const FILL: u8 = 0xA5;

struct Replay {
    backend: Box<dyn StorageBackend + Send>,
    ops: Vec<TraceOp>,
    cursor: usize,
    issued: u64,
    now: SimInstant,
    /// Last version written per logical page (0 = never written or freed).
    version: Vec<u64>,
    reads: u64,
    page: Vec<u8>,
    buf: Vec<u8>,
    config: Json,
}

/// Record the trace, size the drive from it and warm the replay.
pub fn build(seed: u64, plan: Plan, wrap: Wrap) -> Result<Box<dyn Scenario>, String> {
    let (ops, distinct_pages) = record(seed)?;
    let geometry = stack::geometry((distinct_pages as f64 / UTILISATION).ceil() as u64);
    let backend = stack::noftl_backend(geometry, OP_RATIO, 1, wrap);
    if backend.num_pages() < distinct_pages {
        return Err(format!(
            "replay drive exports {} logical pages, the trace needs {distinct_pages}",
            backend.num_pages()
        ));
    }
    let page_size = backend.page_size();
    let mut config = Json::obj();
    config
        .set("stack", "noftl (bare, no engine)")
        .set("recorded_transactions", RECORDED_TRANSACTIONS)
        .set("trace_page_ops", ops.len())
        .set("page_ops_per_op", BURST)
        .set("distinct_pages", distinct_pages)
        .set("op_ratio", OP_RATIO)
        .set("geometry", stack::geometry_json(&geometry));
    let mut sc = Replay {
        backend,
        ops,
        cursor: 0,
        issued: 0,
        now: 0,
        version: vec![0; distinct_pages as usize],
        reads: 0,
        page: vec![FILL; page_size],
        buf: vec![0; page_size],
        config,
    };
    for i in 0..plan.warmup {
        let step = sc
            .step()
            .map_err(|e| format!("replay warm-up op {i}: {e}"))?;
        if !step.ok {
            return Err(format!("replay warm-up op {i}: wrong payload read back"));
        }
    }
    Ok(Box::new(sc))
}

/// Run TPC-C on an in-memory engine and return its page-level op stream,
/// with page ids renumbered densely in order of first use and reads of pages
/// that hold no data at that point dropped (the in-memory run may read a page
/// it never wrote; flash cannot).  Also returns the number of distinct pages.
fn record(seed: u64) -> Result<(Vec<TraceOp>, u64), String> {
    let (backend, trace) = TracingBackend::new(MemBackend::new(stack::PAGE_SIZE as usize, 1 << 18));
    let mut engine_config = stack::engine_config(RECORDING_FRAMES, FlusherAssignment::Global, 1, 0);
    engine_config.flushers.writers = 4;
    engine_config.flushers.dirty_low_watermark = 0.05;
    let mut engine =
        stack::with_async_env(1, || StorageEngine::new(Box::new(backend), engine_config));
    let mut workload = TpcC::new(TpcCConfig {
        warehouses: RECORDED_WAREHOUSES,
        districts_per_warehouse: 10,
        customers_per_district: 300,
        items: 2_000,
        seed,
    });
    let start = Workload::<StorageEngine>::setup(&mut workload, &mut engine, 0)
        .map_err(|e| format!("trace recording load: {e}"))?;
    let driver = BenchmarkDriver::new(DriverConfig {
        clients: 8,
        transactions: RECORDED_TRANSACTIONS,
        warmup_transactions: 0,
        stall_all_on_flush: false,
    });
    let report = driver
        .run(&mut engine, &mut workload, start)
        .map_err(|e| format!("trace recording run: {e}"))?;
    engine
        .checkpoint(start + report.duration_ns)
        .map_err(|e| format!("trace recording checkpoint: {e}"))?;
    drop(engine);
    let recorded = std::mem::take(&mut trace.lock().ops);

    let mut dense: BTreeMap<u64, u64> = BTreeMap::new();
    let mut live: Vec<bool> = Vec::new();
    let mut ops = Vec::with_capacity(recorded.len());
    for op in recorded {
        let page = match op {
            TraceOp::Read(p) | TraceOp::Write(p) | TraceOp::Free(p) => p,
        };
        let next = dense.len() as u64;
        let lpn = *dense.entry(page).or_insert(next);
        if lpn as usize == live.len() {
            live.push(false);
        }
        match op {
            TraceOp::Write(_) => {
                live[lpn as usize] = true;
                ops.push(TraceOp::Write(lpn));
            }
            TraceOp::Read(_) if live[lpn as usize] => ops.push(TraceOp::Read(lpn)),
            TraceOp::Read(_) => {}
            TraceOp::Free(_) => {
                live[lpn as usize] = false;
                ops.push(TraceOp::Free(lpn));
            }
        }
    }
    if ops.is_empty() {
        return Err("trace recording produced no page operations".into());
    }
    Ok((ops, dense.len() as u64))
}

impl Replay {
    /// Replay the next page operation of the trace; `Ok(false)` is a wrong
    /// payload read back.
    fn replay_one(&mut self) -> Result<bool, String> {
        let op = self.ops[self.cursor];
        self.cursor = (self.cursor + 1) % self.ops.len();
        self.issued += 1;
        let now = self.now;
        let mut ok = true;
        match op {
            TraceOp::Write(lpn) => {
                let version = self.version[lpn as usize] + 1;
                self.version[lpn as usize] = version;
                self.page[..8].copy_from_slice(&lpn.to_le_bytes());
                self.page[8..16].copy_from_slice(&version.to_le_bytes());
                let c = self
                    .backend
                    .write_page(now, lpn, &self.page)
                    .map_err(|e| format!("write lpn {lpn}: {e}"))?;
                self.now = now.max(c.completed_at);
            }
            TraceOp::Read(lpn) if self.version[lpn as usize] > 0 => {
                let c = self
                    .backend
                    .read_page(now, lpn, &mut self.buf)
                    .map_err(|e| format!("read lpn {lpn}: {e}"))?;
                self.now = now.max(c.completed_at);
                self.reads += 1;
                let version = self.version[lpn as usize];
                ok = self.buf[..8] == lpn.to_le_bytes() && self.buf[8..16] == version.to_le_bytes();
                if self.reads.is_multiple_of(FULL_COMPARE_EVERY) {
                    ok &= self.buf[16..].iter().all(|&b| b == FILL);
                }
            }
            // A page freed at the end of one pass over the trace and read
            // early in the next, before its rewrite: the first pass started
            // from an empty drive, later ones do not.  Nothing to read.
            TraceOp::Read(_) => {}
            TraceOp::Free(lpn) => {
                self.version[lpn as usize] = 0;
                self.backend
                    .free_page_hint(now, lpn)
                    .map_err(|e| format!("free lpn {lpn}: {e}"))?;
            }
        }
        Ok(ok)
    }
}

impl Scenario for Replay {
    fn step(&mut self) -> Result<Step, String> {
        let v_start = self.now;
        let mut ok = true;
        for _ in 0..BURST {
            ok &= self.replay_one()?;
        }
        Ok(Step {
            v_start,
            v_end: self.now,
            flush_stall_v_ns: 0,
            ok,
        })
    }

    fn makespan(&self) -> SimInstant {
        self.now
    }

    fn counters(&self) -> Counters {
        let mut c = Counters::default();
        c.add_backend(self.backend.as_ref());
        c
    }

    fn finish(&mut self) -> Result<(), String> {
        // Read every live page back once: nothing GC relocated was lost.
        for lpn in 0..self.version.len() as u64 {
            let version = self.version[lpn as usize];
            if version == 0 {
                continue;
            }
            self.backend
                .read_page(self.now, lpn, &mut self.buf)
                .map_err(|e| format!("final read lpn {lpn}: {e}"))?;
            if self.buf[..8] != lpn.to_le_bytes() || self.buf[8..16] != version.to_le_bytes() {
                return Err(format!(
                    "replay: lpn {lpn} reads back a stale or foreign payload (expected version {version})"
                ));
            }
        }
        Ok(())
    }

    fn describe(&self) -> Json {
        let mut o = self.config.clone();
        o.set("logical_pages", self.backend.num_pages())
            .set(
                "passes_over_trace",
                self.issued as f64 / self.ops.len() as f64,
            )
            .set(
                "utilisation_end",
                stack::utilisation(stack::device_of(self.backend.as_ref())),
            );
        o
    }

    fn device_trace(&self, visit: &mut dyn FnMut(&DeviceConfig, &[TraceEntry])) {
        stack::visit_device_trace(self.backend.as_ref(), visit);
    }
}

//! Workload `tpcb_clients_async`: eight `ClientSession`s, each running TPC-B
//! over its own table-name partition of one 8-shard `ConcurrentEngine`,
//! laggard-stepped by this loop (deterministic), with per-die queue depth 8
//! for flushers, WAL and miss fills.
//!
//! Same layers as `tpcc_noftl`, used the other way: queued submit/poll
//! instead of synchronous calls, the sharded pool instead of the single one,
//! small update transactions instead of the wide TPC-C mix.

use nand_flash::{DeviceConfig, TraceEntry};
use noftl_core::FlusherAssignment;
use sim_utils::time::SimInstant;
use storage_engine::{ConcurrentEngine, EngineOps};
use workloads::tpcb::row_balance;
use workloads::{TpcB, TpcBConfig, Workload};

use crate::json::Json;
use crate::scenario::{Scenario, Step};
use crate::shims::TimedOps;
use crate::stack::{self, Counters, Wrap};
use crate::workloads::{laggard, Plan};

/// Client sessions (and buffer-pool shards).
pub const CLIENTS: usize = 8;
/// Per-die queue depth of every submitter.
pub const ASYNC_DEPTH: usize = 8;
/// Branches per client partition.
pub const BRANCHES: u64 = 4;
/// Accounts per branch.
pub const ACCOUNTS_PER_BRANCH: u64 = 5_000;
/// Buffer-pool frames across all shards.
pub const BUFFER_FRAMES: usize = 512;
/// Virtual CPU cost of a buffer hit, so cached clients still advance.
pub const BUFFER_HIT_NS: u64 = 2_000;
/// Pages the loaded database occupies (measured).
pub const LOADED_PAGES: u64 = 5_500;
/// Pages the history tables grow by per 1000 transactions (measured).
pub const GROWTH_PAGES_PER_KOP: f64 = 13.5;
/// Share of the drive's physical pages holding valid data, start to end
/// (the drive is filled in set-up, as in `tpcc.rs`).
pub const UTILISATION: f64 = 0.75;
/// Logical pages left over when the run ends, as a share of the database.
pub const HEADROOM: f64 = 0.05;

struct Tpcb<O> {
    engine: ConcurrentEngine,
    sessions: Vec<O>,
    workloads: Vec<TpcB>,
    clock: [SimInstant; CLIENTS],
    config: Json,
}

/// Build, load and warm the workload.
pub fn build(seed: u64, plan: Plan, wrap: Wrap) -> Result<Box<dyn Scenario>, String> {
    let live_at_end =
        LOADED_PAGES as f64 + GROWTH_PAGES_PER_KOP * (plan.warmup + plan.timed) as f64 / 1000.0;
    let filled = (live_at_end * (1.0 + HEADROOM)).ceil() as u64;
    let geometry = stack::geometry((filled as f64 / UTILISATION).ceil() as u64);
    let mut backend = stack::noftl_backend(geometry, 1.0 - UTILISATION, ASYNC_DEPTH, wrap);
    stack::fill(backend.as_mut(), filled)?;
    let engine_config = stack::engine_config(
        BUFFER_FRAMES,
        FlusherAssignment::DieWise,
        ASYNC_DEPTH,
        BUFFER_HIT_NS,
    );
    let engine = stack::with_async_env(ASYNC_DEPTH, || {
        ConcurrentEngine::new(backend, engine_config, CLIENTS)
    });
    let workloads = (0..CLIENTS)
        .map(|i| {
            TpcB::with_prefix(
                TpcBConfig {
                    scale_factor: BRANCHES,
                    tellers_per_branch: 10,
                    accounts_per_branch: ACCOUNTS_PER_BRANCH,
                    seed: seed.wrapping_mul(CLIENTS as u64).wrapping_add(i as u64),
                },
                format!("c{i}_"),
            )
        })
        .collect();
    let mut config = Json::obj();
    config
        .set("clients", CLIENTS)
        .set("shards", engine.shard_count())
        .set("stepping", "deterministic laggard")
        .set("backfill_occupancy", true)
        .set("accounts", CLIENTS as u64 * BRANCHES * ACCOUNTS_PER_BRANCH)
        .set("filled_logical_pages", filled)
        .set("noftl_async_queue_depth", ASYNC_DEPTH)
        .set("wal_async_depth", ASYNC_DEPTH)
        .set("engine", stack::engine_config_json(&engine_config))
        .set("geometry", stack::geometry_json(&geometry));
    if wrap.tracing() {
        let sessions = (0..CLIENTS).map(|_| TimedOps(engine.session())).collect();
        finish_build(engine, sessions, workloads, config, plan)
    } else {
        let sessions = (0..CLIENTS).map(|_| engine.session()).collect();
        finish_build(engine, sessions, workloads, config, plan)
    }
}

fn finish_build<O: EngineOps + 'static>(
    engine: ConcurrentEngine,
    sessions: Vec<O>,
    workloads: Vec<TpcB>,
    config: Json,
    plan: Plan,
) -> Result<Box<dyn Scenario>, String> {
    let mut sc = Tpcb {
        engine,
        sessions,
        workloads,
        clock: [0; CLIENTS],
        config,
    };
    let mut t = 0;
    for (w, s) in sc.workloads.iter_mut().zip(sc.sessions.iter_mut()) {
        t = w.setup(s, t).map_err(|e| format!("tpcb load: {e}"))?;
    }
    sc.clock = [t; CLIENTS];
    let loaded_pages = sc
        .engine
        .with_backend(|b| stack::valid_pages(stack::device_of(b)));
    sc.config.set("loaded_pages", loaded_pages);
    for i in 0..plan.warmup {
        sc.step().map_err(|e| format!("tpcb warm-up op {i}: {e}"))?;
    }
    Ok(Box::new(sc))
}

impl<O: EngineOps> Tpcb<O> {
    fn sum(&mut self, client: usize, table: &str, field: fn(&[u8]) -> i64) -> Result<i64, String> {
        let table = format!("c{client}_{table}");
        let now = self.clock[client];
        let mut total = 0i64;
        self.sessions[client]
            .scan(&table, now, &mut |_, row| total += field(row))
            .map_err(|e| format!("scan {table}: {e}"))?;
        Ok(total)
    }
}

fn i64_at(row: &[u8], at: usize) -> i64 {
    i64::from_le_bytes(row[at..at + 8].try_into().expect("8-byte field"))
}

impl<O: EngineOps> Scenario for Tpcb<O> {
    fn step(&mut self) -> Result<Step, String> {
        let client = laggard(&self.clock);
        let now = self.clock[client];
        let session = &mut self.sessions[client];
        let committed = session.committed();
        let (end, _) = self.workloads[client]
            .run_transaction(session, client, now)
            .map_err(|e| e.to_string())?;
        let flush_end = session.maybe_flush(end).map_err(|e| e.to_string())?;
        let ok = end >= now && session.committed() == committed + 1;
        self.clock[client] = end.max(flush_end);
        // The poll-driven part of the loop: consume the queued-completion
        // stream, which otherwise grows without bound.  (The traced run's
        // backend shim reads the queueing stamps off it on the way.)
        drop(self.engine.with_backend(|b| b.poll_completions()));
        Ok(Step {
            v_start: now,
            v_end: end.max(flush_end),
            flush_stall_v_ns: flush_end.saturating_sub(end),
            ok,
        })
    }

    fn makespan(&self) -> SimInstant {
        *self.clock.iter().max().expect("clients")
    }

    fn counters(&self) -> Counters {
        let e = &self.engine;
        let mut c = Counters::default();
        e.with_backend(|b| c.add_backend(b));
        c.add_engine(
            e.buffer_stats(),
            e.readahead_stats(),
            e.flusher_stats(),
            e.log_forces(),
            e.with_wal(|w| w.log_writes()),
        );
        c
    }

    fn finish(&mut self) -> Result<(), String> {
        // TPC-B consistency: within each partition the account, teller and
        // branch balances each sum to the sum of the history deltas.
        for client in 0..CLIENTS {
            let history = self.sum(client, "history", |row| i64_at(row, 24))?;
            for (table, field) in [
                ("account", row_balance as fn(&[u8]) -> i64),
                ("teller", row_balance),
                ("branch", |row| i64_at(row, 8)),
            ] {
                let total = self.sum(client, table, field)?;
                if total != history {
                    return Err(format!(
                        "tpcb: client {client}: Σ {table} balance = {total}, Σ history delta = {history}"
                    ));
                }
            }
        }
        Ok(())
    }

    fn describe(&self) -> Json {
        let mut o = self.config.clone();
        self.engine.with_backend(|b| {
            o.set("stack", "noftl")
                .set("logical_pages", b.num_pages())
                .set("utilisation_end", stack::utilisation(stack::device_of(b)));
        });
        o
    }

    fn device_trace(&self, visit: &mut dyn FnMut(&DeviceConfig, &[TraceEntry])) {
        self.engine
            .with_backend(|b| stack::visit_device_trace(b, visit));
    }
}

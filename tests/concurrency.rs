//! Concurrency harness (PR 7): N seeded clients hammer one shared
//! [`ConcurrentEngine`] — TPC-B and TPC-C mixes, synchronous and
//! asynchronous submission depths, with and without injected Flash faults —
//! and every run must uphold the concurrent engine's three promises:
//!
//! * **Serializable per-client commit prefixes** — each client's commit
//!   stream is strictly monotone in transaction id and non-decreasing in
//!   commit time, and transaction ids never collide across clients (the
//!   engine's one transaction manager hands them out).
//! * **Zero committed-data loss** — after a storm the per-client TPC-B
//!   consistency conditions hold on each client's private table partition,
//!   and on the crash legs the durable log recovered from the medium alone
//!   contains every post-checkpoint commit of every client.
//! * **Exact counter reconciliation** — the per-shard buffer-pool counters
//!   sum to the aggregate statistics exactly (every counter lives in
//!   exactly one shard), and the clients' commit streams account for
//!   every committed transaction the engine reports.
//!
//! One thread steps the clients on the virtual clock, so a storm is
//! reproducible (same seeds → same schedule → identical commit streams) and
//! every assertion can be exact.  The checkpoint
//! regression leg pins the barrier contract: a checkpoint taken while other
//! shards still have asynchronous flush windows in flight must drain them
//! *all* before the WAL checkpoint record lands.

use proptest::prelude::*;
use std::collections::HashSet;

use noftl::nand_flash::fault::FaultPlan;
use noftl::nand_flash::{DeviceConfig, FlashError, FlashGeometry, NandDevice};
use noftl::noftl_core::{NoFtl, NoFtlConfig, RedundancyPolicy};
use noftl::sim_utils::time::SimInstant;
use noftl::storage_engine::backend::{NoFtlBackend, StackConfig};
use noftl::storage_engine::{
    ClientSession, ConcurrentEngine, EngineConfig, EngineOps, FlusherConfig, LogRecord,
    TxnId, WalManager,
};
use noftl::workloads::{
    ClientWorkload, MultiClientConfig, MultiClientDriver, MultiClientReport, TpcB,
    TpcBConfig, TpcC, TpcCConfig,
};

/// Log segment size used by every engine here (the crash legs' recovery
/// scans must agree with it).
const LOG_PAGES: u64 = 64;

/// Same aggressive fault mix as the single-client chaos storms: every
/// failure mode frequent enough that a short storm exercises recovery, low
/// enough that the spare-block pool survives.
fn storm_plan(seed: u64) -> FaultPlan {
    let mut plan = FaultPlan::seeded(seed);
    plan.program_fail_base = 2e-3;
    plan.program_fail_wear_scale = 0.0;
    plan.erase_fail_knee = 0.0;
    plan.erase_fail_prob = 0.25;
    plan.read_error_base = 2e-3;
    plan.read_error_wear_scale = 1.0;
    plan.read_error_retention_scale = 0.0;
    plan.read_error_disturb_scale = 1e-6;
    plan.uncorrectable_fraction = 0.1;
    plan
}

/// Full concurrent stack: device (optionally with a fault plan) → NoFTL →
/// backend → [`ConcurrentEngine`] with `shards` buffer-pool shards.
fn concurrent_engine(plan: Option<FaultPlan>, depth: usize, shards: usize) -> ConcurrentEngine {
    concurrent_engine_with(plan, depth, shards, RedundancyPolicy::None)
}

/// [`concurrent_engine`] with `policy` on every region.  A protected stack
/// additionally gets the over-provisioning parity needs (see the die-kill
/// storms in `tests/chaos.rs`) and `slo_scheduling`, so the online rebuild
/// rides the background hook in `maybe_flush`.
fn concurrent_engine_with(
    plan: Option<FaultPlan>,
    depth: usize,
    shards: usize,
    policy: RedundancyPolicy,
) -> ConcurrentEngine {
    let protected = policy != RedundancyPolicy::None;
    let geometry = FlashGeometry::small();
    let mut cfg = NoFtlConfig::new(geometry);
    cfg.async_queue_depth = depth;
    if protected {
        cfg.op_ratio = 0.60;
    }
    let mut dev_cfg = DeviceConfig::new(geometry);
    dev_cfg.store_data = cfg.store_data;
    dev_cfg.faults = plan;
    let mut noftl = NoFtl::with_device(NandDevice::new(dev_cfg), cfg);
    if protected {
        noftl.set_redundancy_all(policy);
    }
    let backend = NoFtlBackend::new(noftl);

    let mut ecfg = EngineConfig::new();
    // A pool smaller than the combined working set, so clients genuinely
    // contend for frames and evictions cross client partitions.
    ecfg.buffer_frames = 96;
    ecfg.log_pages = LOG_PAGES;
    let mut flushers = FlusherConfig::die_wise(2);
    flushers.async_depth = depth;
    ecfg.flushers = flushers;
    ecfg.readahead_window = 16;
    if protected {
        ecfg.slo_scheduling = true;
    }
    ConcurrentEngine::new(Box::new(backend), ecfg, shards)
}

/// Client `i`'s workload over its private `c{i}_` table-name partition.
fn client_workload(i: usize, tpcc: bool, seed: u64) -> ClientWorkload {
    let client_seed = seed ^ (i as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    if tpcc {
        Box::new(TpcC::with_prefix(
            TpcCConfig {
                warehouses: 1,
                districts_per_warehouse: 2,
                customers_per_district: 10,
                items: 30,
                seed: client_seed,
            },
            format!("c{i}_"),
        ))
    } else {
        Box::new(TpcB::with_prefix(
            TpcBConfig {
                scale_factor: 1,
                tellers_per_branch: 4,
                accounts_per_branch: 60,
                seed: client_seed,
            },
            format!("c{i}_"),
        ))
    }
}

fn client_workloads(clients: usize, tpcc: bool, seed: u64) -> Vec<ClientWorkload> {
    (0..clients).map(|i| client_workload(i, tpcc, seed)).collect()
}

/// Scan a table through a session, retrying the whole pass on an
/// uncorrectable read (the bounded ladder of a real controller).
fn scan_rows(
    session: &mut ClientSession,
    table: &str,
    now: SimInstant,
) -> (Vec<Vec<u8>>, SimInstant) {
    let mut last = None;
    for _ in 0..8 {
        let mut rows = Vec::new();
        match session.scan(table, now, &mut |_, r| rows.push(r.to_vec())) {
            Ok((_, t)) => return (rows, t),
            Err(e @ FlashError::UncorrectableEcc(_)) => last = Some(e),
            Err(e) => panic!("scan of {table} failed with a non-read fault: {e}"),
        }
    }
    panic!("table {table} unreadable after 8 scan attempts: {last:?}");
}

fn le_i64(bytes: &[u8]) -> i64 {
    i64::from_le_bytes(bytes.try_into().expect("8-byte field"))
}

/// Serializable per-client prefixes: commit streams strictly monotone in
/// transaction id, non-decreasing in commit time, ids globally unique.
fn assert_serializable_streams(report: &MultiClientReport) {
    let mut all_ids: Vec<TxnId> = Vec::new();
    for run in &report.clients {
        assert!(
            !run.commits.is_empty(),
            "client {} committed nothing",
            run.client
        );
        for w in run.commits.windows(2) {
            assert!(
                w[1].0 > w[0].0,
                "client {}: commit stream not monotone in txn id ({} after {})",
                run.client,
                w[1].0,
                w[0].0
            );
            assert!(
                w[1].1 >= w[0].1,
                "client {}: commit time went backwards",
                run.client
            );
        }
        all_ids.extend(run.commits.iter().map(|&(txn, _)| txn));
    }
    let n = all_ids.len();
    all_ids.sort_unstable();
    all_ids.dedup();
    assert_eq!(all_ids.len(), n, "transaction ids collided across clients");
}

/// Exact cross-shard counter reconciliation: shard counters sum to the
/// aggregate, and the clients' streams account for every commit.
fn assert_counters_reconcile(engine: &ConcurrentEngine, report: &MultiClientReport) {
    let shards = engine.shard_buffer_stats();
    let agg = engine.buffer_stats();
    assert_eq!(shards.len(), engine.shard_count());
    assert_eq!(
        shards.iter().map(|s| s.hits).sum::<u64>(),
        agg.hits,
        "shard hit counters do not sum to the aggregate"
    );
    assert_eq!(shards.iter().map(|s| s.misses).sum::<u64>(), agg.misses);
    assert_eq!(shards.iter().map(|s| s.evictions).sum::<u64>(), agg.evictions);
    assert_eq!(
        shards.iter().map(|s| s.dirty_evictions).sum::<u64>(),
        agg.dirty_evictions
    );
    assert_eq!(
        shards.iter().map(|s| s.flushed_by_writers).sum::<u64>(),
        agg.flushed_by_writers
    );
    let occ = engine.shard_occupancy();
    assert_eq!(occ.iter().map(|&(r, _)| r).sum::<usize>(), engine.resident());
    assert_eq!(
        occ.iter().map(|&(_, d)| d).sum::<usize>(),
        engine.dirty_count()
    );

    let stream_total: u64 = report.clients.iter().map(|c| c.commits.len() as u64).sum();
    assert_eq!(
        engine.committed(),
        stream_total,
        "client commit streams do not account for every committed transaction"
    );
    // Force-per-commit WAL: at least one force per commit (checkpoints and
    // batch tails add more, never fewer).
    assert!(
        engine.log_forces() >= stream_total,
        "fewer WAL forces ({}) than commits ({stream_total}) under group commit 1",
        engine.log_forces()
    );
}

/// Zero committed-data loss, workload-level: each TPC-B client's private
/// partition still satisfies the money-flow condition (balance sums at all
/// three levels equal the history deltas) and no loaded row is missing.
fn assert_tpcb_partitions_consistent(engine: &ConcurrentEngine, clients: usize, now: SimInstant) {
    let mut s = engine.session();
    let mut t = now;
    for i in 0..clients {
        let (accounts, t2) = scan_rows(&mut s, &format!("c{i}_account"), t);
        assert_eq!(accounts.len(), 60, "client {i}: account rows lost");
        let (tellers, t2) = scan_rows(&mut s, &format!("c{i}_teller"), t2);
        assert_eq!(tellers.len(), 4, "client {i}: teller rows lost");
        let (branches, t2) = scan_rows(&mut s, &format!("c{i}_branch"), t2);
        assert_eq!(branches.len(), 1, "client {i}: branch rows lost");
        let (history, t2) = scan_rows(&mut s, &format!("c{i}_history"), t2);
        let history_total: i64 = history.iter().map(|r| le_i64(&r[24..32])).sum();
        let account_total: i64 = accounts.iter().map(|r| le_i64(&r[16..24])).sum();
        let teller_total: i64 = tellers.iter().map(|r| le_i64(&r[16..24])).sum();
        let branch_total: i64 = branches.iter().map(|r| le_i64(&r[8..16])).sum();
        assert_eq!(
            account_total, history_total,
            "client {i}: account balances diverged from history"
        );
        assert_eq!(
            teller_total, history_total,
            "client {i}: teller balances diverged from history"
        );
        assert_eq!(
            branch_total, history_total,
            "client {i}: branch balances diverged from history"
        );
        t = t2;
    }
}

/// TPC-C clients: loaded rows of every private partition intact.
fn assert_tpcc_partitions_intact(engine: &ConcurrentEngine, clients: usize, now: SimInstant) {
    let mut s = engine.session();
    let mut t = now;
    for i in 0..clients {
        let (warehouses, t2) = scan_rows(&mut s, &format!("c{i}_warehouse"), t);
        assert_eq!(warehouses.len(), 1, "client {i}: warehouse rows lost");
        let (districts, t2) = scan_rows(&mut s, &format!("c{i}_district"), t2);
        assert_eq!(districts.len(), 2, "client {i}: district rows lost");
        let (customers, t2) = scan_rows(&mut s, &format!("c{i}_customer"), t2);
        assert_eq!(customers.len(), 20, "client {i}: customer rows lost");
        let (stock, t2) = scan_rows(&mut s, &format!("c{i}_stock"), t2);
        assert_eq!(stock.len(), 30, "client {i}: stock rows lost");
        t = t2;
    }
}

/// Every device-reported failure must be accounted for by a DBMS-side
/// recovery action — the truthful-statistics promise under concurrency.
fn assert_truthful_fault_stats(engine: &ConcurrentEngine) {
    engine.with_backend(|b| {
        let n = b
            .as_any()
            .and_then(|a| a.downcast_ref::<NoFtlBackend>())
            .expect("storms run on the NoFTL backend")
            .noftl();
        let flash = n.flash_stats();
        let stats = n.stats();
        assert_eq!(
            stats.program_fail_retirements, flash.program_failures,
            "every device program failure must be recovered by exactly one retirement"
        );
        assert_eq!(
            stats.erase_fail_retirements, flash.erase_failures,
            "every device erase failure must be recovered by exactly one retirement"
        );
        if flash.uncorrectable_reads > 0 {
            assert!(
                stats.read_retries > 0,
                "uncorrectable reads were reported but nothing retried them"
            );
        }
        assert_eq!(
            n.bad_blocks().grown_count() as u64,
            stats.retired_blocks,
            "grown-bad census must match the retirement count"
        );
    });
}

/// One deterministic storm: `clients` clients × the chosen mix × submission
/// depth × fault leg, asserting every promise.  Returns the report so the
/// reproducibility leg can compare runs.
fn storm(seed: u64, clients: usize, tpcc: bool, depth: usize, faults: bool) -> MultiClientReport {
    let engine = concurrent_engine(faults.then(|| storm_plan(seed)), depth, clients);
    let driver = MultiClientDriver::new(MultiClientConfig::new(10));
    let report = driver
        .run(&engine, client_workloads(clients, tpcc, seed), 0)
        .expect("concurrent storm must recover from every injected fault");

    assert_eq!(report.clients.len(), clients);
    assert_eq!(report.transactions, 10 * clients as u64);
    assert_serializable_streams(&report);
    assert_counters_reconcile(&engine, &report);

    let end = engine.session().quiesce(report.clients.iter().map(|c| c.end).max().unwrap_or(0));
    if tpcc {
        assert_tpcc_partitions_intact(&engine, clients, end);
    } else {
        assert_tpcb_partitions_consistent(&engine, clients, end);
    }
    if faults {
        assert_truthful_fault_stats(&engine);
    }
    report
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The storm matrix: seeded clients × {TPC-B, TPC-C} × {sync, async
    /// depth 8} × {faults on, off}, deterministic interleaving.
    #[test]
    fn concurrent_storms_uphold_engine_promises(
        seed in 1u64..1 << 32,
        clients in 2usize..=4,
        tpcc in any::<bool>(),
        deep in any::<bool>(),
        faults in any::<bool>(),
    ) {
        storm(seed, clients, tpcc, if deep { 8 } else { 1 }, faults);
    }

    /// Determinism: the same seeds must reproduce the exact same commit
    /// streams and aggregate report, faults and async depth notwithstanding.
    #[test]
    fn deterministic_mode_is_reproducible(
        seed in 1u64..1 << 32,
        tpcc in any::<bool>(),
    ) {
        let a = storm(seed, 3, tpcc, 8, true);
        let b = storm(seed, 3, tpcc, 8, true);
        prop_assert_eq!(a.transactions, b.transactions);
        prop_assert_eq!(a.duration_ns, b.duration_ns);
        for (ca, cb) in a.clients.iter().zip(b.clients.iter()) {
            prop_assert_eq!(&ca.commits, &cb.commits,
                "client {} diverged between identical runs", ca.client);
            prop_assert_eq!(ca.end, cb.end);
        }
    }
}

/// Crash leg: after a concurrent storm and a checkpoint, every client runs a
/// few more transactions; the log rebuilt from the medium alone must contain
/// every record since the checkpoint — in particular every client's
/// post-checkpoint commits.  Force-per-commit, so nothing may ride on a
/// volatile tail.
fn crash_recovery_leg(seed: u64, depth: usize, faults: bool) {
    let clients = 3;
    let engine = concurrent_engine(faults.then(|| storm_plan(seed)), depth, clients);
    let mut workloads = client_workloads(clients, false, seed);
    let mut sessions: Vec<ClientSession> = (0..clients).map(|_| engine.session()).collect();

    let mut t = 0;
    for (w, s) in workloads.iter_mut().zip(sessions.iter_mut()) {
        t = w.setup(s, t).expect("setup");
    }
    // A short concurrent burst, round-robin across clients.
    for round in 0..4 {
        for c in 0..clients {
            let (end, _) = workloads[c]
                .run_transaction(&mut sessions[c], c, t)
                .unwrap_or_else(|e| panic!("round {round} client {c}: {e}"));
            t = sessions[c].maybe_flush(end).expect("flush").max(end);
        }
    }

    let mut t = sessions[0].checkpoint(t).expect("checkpoint under load");

    // Post-checkpoint transactions — the records a crash must not lose.
    let mut post_ckpt: Vec<TxnId> = Vec::new();
    for _ in 0..3 {
        for c in 0..clients {
            let before = sessions[c].commits().len();
            let (end, _) = workloads[c]
                .run_transaction(&mut sessions[c], c, t)
                .expect("post-checkpoint transaction");
            t = sessions[c].maybe_flush(end).expect("flush").max(end);
            post_ckpt.extend(sessions[c].commits()[before..].iter().map(|&(txn, _)| txn));
        }
    }
    let t = sessions[0].quiesce(t);
    assert!(!post_ckpt.is_empty());

    let ckpt_lsn = engine.with_wal(|w| w.checkpoint_lsn());
    let start_seq = engine.with_wal(|w| w.recovery_start_seq());
    let history = engine.with_wal(|w| w.records().clone());
    let expected: Vec<LogRecord<'_>> = history
        .iter()
        .filter(|(lsn, _)| *lsn >= ckpt_lsn)
        .map(|(_, r)| r)
        .collect();
    let page_size = engine.with_backend(|b| b.page_size());
    let num_pages = engine.with_backend(|b| b.num_pages());

    drop(sessions);
    let mut medium = engine.into_backend();
    let recovered = WalManager::recover_records_from(
        medium.as_mut(),
        num_pages - LOG_PAGES,
        LOG_PAGES,
        page_size,
        start_seq,
        t,
    );
    let recovered: Vec<LogRecord<'_>> = recovered.iter().map(|(_, r)| r).collect();
    assert_eq!(
        recovered, expected,
        "a crash must find every record since the checkpoint durable"
    );
    let durable_commits: HashSet<TxnId> = recovered
        .iter()
        .filter_map(|r| match r {
            LogRecord::Commit { txn } => Some(*txn),
            _ => None,
        })
        .collect();
    for txn in &post_ckpt {
        assert!(
            durable_commits.contains(txn),
            "committed transaction {txn} lost by the crash"
        );
    }
}

#[test]
fn crash_recovery_loses_no_commit_sync() {
    crash_recovery_leg(0xC0FFEE, 1, false);
}

#[test]
fn crash_recovery_loses_no_commit_async_under_faults() {
    crash_recovery_leg(0xC0FFEE, 8, true);
}

/// Satellite 4 regression: a checkpoint taken while *other shards* still
/// have asynchronous flush windows in flight must barrier them all — plus
/// the read window — before the WAL checkpoint record lands.  Observable
/// contract: the checkpoint's returned instant is a full barrier (an
/// immediate quiesce is a virtual-time no-op), the pool is clean on every
/// shard, and the checkpoint record is the last record in the log.
#[test]
fn checkpoint_barriers_all_shards_inflight_windows() {
    let shards = 4;
    let engine = concurrent_engine(None, 8, shards);
    let mut s = engine.session();
    let mut t = 0;
    // Dirty pages on every shard: four clients' worth of tables, bulk
    // inserts, no intervening checkpoint.
    for i in 0..shards {
        let table = format!("t{i}");
        assert!(s.create_table(&table));
        let txn = s.begin();
        for k in 0..200u64 {
            let rec = [i as u8 + 1; 48].map(|b| b.wrapping_add(k as u8));
            let (_, end) = s.insert(&table, txn, t, &rec).expect("insert");
            t = end;
        }
        t = s.commit(txn, t).expect("commit");
    }
    let occupancy = engine.shard_occupancy();
    assert!(
        occupancy.iter().all(|&(_, dirty)| dirty > 0),
        "fixture must dirty every shard, got {occupancy:?}"
    );

    // Launch flush cycles (asynchronous windows, depth 8) and checkpoint
    // immediately — without quiescing in between.  The recovery pointer is
    // captured *before* the checkpoint advances it, so the medium scan below
    // still sees the whole log, checkpoint record included.
    let pre_ckpt_start_seq = engine.with_wal(|w| w.recovery_start_seq());
    let t = s.maybe_flush(t).expect("flush cycles");
    let t = s.checkpoint(t).expect("checkpoint");

    // The barrier covered every shard's window: nothing is still in flight
    // (quiesce is a no-op on the virtual clock), no shard holds dirty
    // frames, and the last log record is the checkpoint marker.
    assert_eq!(
        s.quiesce(t),
        t,
        "checkpoint returned before an in-flight window completed"
    );
    assert_eq!(engine.dirty_count(), 0, "a shard kept dirty frames across checkpoint");
    assert!(
        engine.shard_occupancy().iter().all(|&(_, d)| d == 0),
        "per-shard dirty counts must all be zero after checkpoint"
    );
    let last = engine.with_wal(|w| w.records().iter().last().map(|(_, r)| r.encode()));
    assert_eq!(
        last,
        Some(LogRecord::Checkpoint.encode()),
        "the checkpoint record must land after every barriered write"
    );

    // And the record is durable on the medium, behind every earlier record.
    let page_size = engine.with_backend(|b| b.page_size());
    let num_pages = engine.with_backend(|b| b.num_pages());
    drop(s);
    let mut medium = engine.into_backend();
    let recovered = WalManager::recover_records_from(
        medium.as_mut(),
        num_pages - LOG_PAGES,
        LOG_PAGES,
        page_size,
        pre_ckpt_start_seq,
        t,
    );
    assert_eq!(
        recovered.iter().last().map(|(_, r)| r),
        Some(LogRecord::Checkpoint),
        "the durable log must end with the checkpoint record"
    );
}

/// Regression (PR 10 drift): the online rebuild is offered by `maybe_flush`
/// under `slo_scheduling`, and the multi-session engine's `maybe_flush` used
/// to be a separate copy that offered the proactive GC step but never the
/// rebuild step — after a die loss nothing was ever re-homed unless a caller
/// drained the rebuild by hand.  Two sessions on a parity-protected stack, a
/// die killed mid-run, nothing but the sessions' own `maybe_flush` calls
/// afterwards: the rebuild must have made progress and lost nothing.
fn rebuild_rides_the_sessions_maybe_flush(policy: RedundancyPolicy) {
    let clients = 2;
    let plan = |kill: bool| {
        let mut plan = FaultPlan::seeded(7);
        plan.program_fail_base = 0.0;
        plan.erase_fail_prob = 0.0;
        plan.read_error_base = 0.0;
        if kill {
            plan.with_die_kill(0, 1)
        } else {
            plan
        }
    };
    let engine = concurrent_engine_with(Some(plan(false)), 1, clients, policy);
    let mut workloads = client_workloads(clients, false, 0xD1E);
    let mut sessions: Vec<ClientSession> = (0..clients).map(|_| engine.session()).collect();
    let mut t = 0;
    for (w, s) in workloads.iter_mut().zip(sessions.iter_mut()) {
        t = w.setup(s, t).expect("setup");
    }
    let mut burst = |t: &mut SimInstant, rounds: usize| {
        for round in 0..rounds {
            for c in 0..clients {
                let (end, _) = workloads[c]
                    .run_transaction(&mut sessions[c], c, *t)
                    .unwrap_or_else(|e| panic!("round {round} client {c}: {e}"));
                *t = sessions[c].maybe_flush(end).expect("flush").max(end);
            }
        }
    };
    burst(&mut t, 8);
    // The very next device command fires the kill, on a die that by now
    // holds committed rows, WAL pages and parity.
    engine.with_backend(|b| {
        b.as_any_mut()
            .and_then(|a| a.downcast_mut::<NoFtlBackend>())
            .expect("NoFTL backend")
            .noftl_mut()
            .set_fault_plan(Some(plan(true)))
    });
    burst(&mut t, 16);
    let end = sessions[0].quiesce(t);

    engine.with_backend(|b| {
        let n = b
            .as_any()
            .and_then(|a| a.downcast_ref::<NoFtlBackend>())
            .expect("NoFTL backend")
            .noftl();
        let rb = n.rebuild_stats();
        assert!(n.any_die_dead(), "the kill must actually have fired");
        assert_eq!(rb.die_failures_detected, 1);
        assert!(
            rb.pages_rebuilt > 0,
            "maybe_flush never offered the backend a rebuild step: {rb:?}"
        );
        assert_eq!(rb.pages_lost, 0, "a protected region must lose nothing");
    });
    assert_tpcb_partitions_consistent(&engine, clients, end);
}

#[test]
fn sessions_maybe_flush_drives_the_online_rebuild_on_parity() {
    rebuild_rides_the_sessions_maybe_flush(RedundancyPolicy::Parity(3));
}

#[test]
fn sessions_maybe_flush_drives_the_online_rebuild_on_mirror() {
    rebuild_rides_the_sessions_maybe_flush(RedundancyPolicy::Mirror);
}

/// High-iteration storm smoke for CI: 16 clients, and `NOFTL_FAULTS` for
/// the fault leg, like the chaos smoke.
#[test]
fn concurrent_storm_smoke() {
    let faults = StackConfig::from_env().faults.is_some();
    storm(0xD1E5, 16, false, 8, faults);
    storm(0xD1E5, 16, true, 8, faults);
}

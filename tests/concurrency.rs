//! Session storms: N seeded clients hammer one shared `ConcurrentEngine` —
//! TPC-B and TPC-C mixes, synchronous and asynchronous submission depths,
//! with and without injected Flash faults, across a die kill and a crash —
//! and every run must uphold the engine's promises: serializable per-client
//! commit streams, zero committed-data loss on each client's table
//! partition and on the medium after a crash, and per-shard counters that
//! reconcile exactly with the aggregate.
//!
//! Every storm is a `harness::Scenario` and goes through the same builder,
//! driver step, checker and crash leg as the single-client storms of
//! `tests/storms.rs`.  The checkpoint regression leg pins the barrier
//! contract: a checkpoint taken while other shards still have asynchronous
//! flush windows in flight must drain them *all* before the WAL checkpoint
//! record lands.

pub mod harness;

use harness::*;
use noftl::noftl_core::RedundancyPolicy::{Mirror, Parity};
use noftl::sim_utils::rng::SimRng;
use noftl::storage_engine::{EngineOps, LogRecord};

/// The storm matrix: seeded clients × {TPC-B, TPC-C} × {sync, async depth 8}
/// × {faults on, off}.
#[test]
fn concurrent_storms_uphold_engine_promises() {
    for case in 0..12 {
        let mut rng = SimRng::new(case);
        let seed = rng.range(1, 1 << 32);
        let clients = rng.range_usize(2, 5);
        let mix = *rng.choose(&[Mix::TpcB, Mix::TpcC]);
        let depth = *rng.choose(&[1, 8]);
        storm(Scenario::new(mix, clients, depth, seed).faults(rng.range(0, 2) == 1));
    }
}

/// Determinism: the same seeds must reproduce the exact same commit streams,
/// per-session end instants and final barrier, faults and async depth
/// notwithstanding.
#[test]
fn deterministic_mode_is_reproducible() {
    for case in 0..12 {
        let mut rng = SimRng::new(case);
        let mix = *rng.choose(&[Mix::TpcB, Mix::TpcC]);
        let sc = Scenario::new(mix, 3, 8, rng.range(1, 1 << 32)).faults(true);
        assert_eq!(storm(sc.clone()).0, storm(sc).0, "identical runs diverged");
    }
}

#[test]
fn crash_recovery_loses_no_commit_sync() {
    storm(Scenario { txns: 4, ..Scenario::new(Mix::TpcB, 3, 1, 0xC0FFEE).crash(3) });
}

#[test]
fn crash_recovery_loses_no_commit_async_under_faults() {
    storm(Scenario { txns: 4, ..Scenario::new(Mix::TpcB, 3, 8, 0xC0FFEE).faults(true).crash(3) });
}

/// Regression: the online rebuild is offered by `maybe_flush` under the SLO
/// bundle, and the multi-session engine's `maybe_flush` used to be a
/// separate copy that never offered the rebuild step.  Two sessions on a
/// protected stack, a die killed halfway, nothing but the sessions' own
/// `maybe_flush` calls afterwards: the checker demands the rebuild made
/// progress before it drains the rest.
#[test]
fn sessions_maybe_flush_drives_the_online_rebuild_on_parity() {
    storm(Scenario { txns: 32, ..Scenario::new(Mix::TpcB, 2, 1, 0xD1E).kill(Parity(3), 1).slo() });
}

#[test]
fn sessions_maybe_flush_drives_the_online_rebuild_on_mirror() {
    storm(Scenario { txns: 32, ..Scenario::new(Mix::TpcB, 2, 1, 0xD1E).kill(Mirror, 1).slo() });
}

/// High-iteration smoke: 16 clients at depth 8, TPC-B and TPC-C, fault-free
/// (the fault legs are `concurrent_storms_uphold_engine_promises`).
#[test]
fn concurrent_storm_smoke() {
    storm(Scenario::new(Mix::TpcB, 16, 8, 0xD1E5));
    storm(Scenario::new(Mix::TpcC, 16, 8, 0xD1E5));
}

/// A checkpoint taken while *other shards* still have asynchronous flush
/// windows in flight must barrier them all — plus the read window — before
/// the WAL checkpoint record lands.  Observable contract: the checkpoint's
/// returned instant is a full barrier (an immediate quiesce is a
/// virtual-time no-op), the pool is clean on every shard, and the checkpoint
/// record is the last record in the log, on the medium too.
#[test]
fn checkpoint_barriers_all_shards_inflight_windows() {
    let shards = 4;
    let Engine::Many(engine, mut sessions) = build(&Scenario::new(Mix::TpcB, shards, 8, 0)) else {
        unreachable!("four clients share one engine")
    };
    let s = &mut sessions[0];
    let mut t = 0;
    // Dirty pages on every shard: four tables' bulk inserts, no intervening
    // checkpoint.
    for i in 0..shards {
        let table = format!("t{i}");
        assert!(s.create_table(&table));
        let txn = s.begin();
        for k in 0..200u64 {
            let rec = [i as u8 + 1; 48].map(|b| b.wrapping_add(k as u8));
            t = s.insert(&table, txn, t, &rec).expect("insert").1;
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

    assert_eq!(s.quiesce(t), t, "checkpoint returned before an in-flight window completed");
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

    drop(sessions);
    let mut medium = engine.into_backend();
    let durable = durable_log(medium.as_mut(), pre_ckpt_start_seq, t);
    assert_eq!(
        durable.iter().last().map(|(_, r)| r),
        Some(LogRecord::Checkpoint),
        "the durable log must end with the checkpoint record"
    );
}

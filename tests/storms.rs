//! Fault, die-failure, session and overload storms against the full NoFTL
//! stack.
//!
//! One client under the chaos fault mix (TPC-B and TPC-C, sync and at depth
//! 8), a die killed mid-run on a redundancy policy, N seeded sessions
//! sharing one `ConcurrentEngine`, every pair of the seven storm axes
//! composed, and the commit-admission window under overload.  Every storm is
//! a `harness::Scenario` and goes through the harness's one stack build,
//! driver step, checker and crash leg.  Seven runs, most of them storms, also
//! check the stack's stats counters (`every_stats_counter_moves_and_reconciles`).

mod fixtures;
mod harness;

use harness::*;
use noftl::nand_flash::{FlashError, FlashGeometry, FlashStats, NativeFlashInterface};
use noftl::noftl_core::{NoFtl, NoFtlConfig, NoFtlStats, RedundancyPolicy};
use noftl::sim_utils::histogram::Histogram;
use noftl::sim_utils::rng::SimRng;
use noftl::storage_engine::flusher::FlusherConfig;
use noftl::storage_engine::{
    AdmissionConfig, AdmissionStats, EngineConfig, EngineError, EngineOps, FlusherStats, LogRecord, NoFtlBackend,
    ReadaheadStats, StackConfig, StorageEngine,
};
use noftl::workloads::{
    Arrivals, BenchmarkDriver, DriverConfig, OpenLoopConfig, OpenLoopDriver, OpenLoopReport, TpcB, TpcBConfig, Workload,
};

use RedundancyPolicy::{Mirror, Parity};

// ---------------------------------------------------------------------------
// Fault storms: one client under the chaos mix, sync and at depth 8
// ---------------------------------------------------------------------------

/// A lone client's fault storm, the crash leg optional.  The leg runs an odd
/// number of commits, so a log that forced only every second commit would
/// leave the last one volatile.
fn chaos(mix: Mix, depth: usize, seed: u64, crash: bool) -> Scenario {
    let mut sc = Scenario::new(mix, 1, depth, seed).faults(true);
    sc.base.endurance_override = Some(64);
    let k = if mix == Mix::TpcB { 5 } else { 3 };
    sc.crash(if crash { k } else { 0 })
}

/// 26 seeded fault storms, the crash leg on about half of them.
fn chaos_sweep(mix: Mix, depth: usize) {
    for case in 0..26 {
        let mut rng = SimRng::new(case);
        storm(chaos(mix, depth, rng.next_u64(), rng.range(0, 2) == 1));
    }
}

#[test]
fn tpcb_storms_survive_fault_plans_sync() {
    chaos_sweep(Mix::TpcB, 1);
}

#[test]
fn tpcb_storms_survive_fault_plans_async_depth8() {
    chaos_sweep(Mix::TpcB, 8);
}

#[test]
fn tpcc_storms_survive_fault_plans_sync() {
    chaos_sweep(Mix::TpcC, 1);
}

#[test]
fn tpcc_storms_survive_fault_plans_async_depth8() {
    chaos_sweep(Mix::TpcC, 8);
}

/// Smoke: TPC-B storms under two fixed fault seeds, each at depth 8 with the
/// crash leg and at depth 1.
#[test]
fn fault_storm_smoke() {
    for seed in [0xFA17_5EED, 0xDEAD_BEEF] {
        storm(chaos(Mix::TpcB, 8, seed, true));
        storm(chaos(Mix::TpcB, 1, seed, false));
    }
}

/// One run with every failure mode cranked high enough that all three fault
/// classes demonstrably fire — and are all recovered — in a single storm.
fn every_fault_class() -> Scenario {
    let mut sc = chaos(Mix::TpcB, 8, 0xC4A05, false);
    let plan = sc.stack.faults.as_mut().expect("chaos plan");
    plan.program_fail_base = 0.004;
    plan.erase_fail_prob = 0.4;
    plan.read_error_base = 0.02;
    // Endurance 32: erase failures ramp with wear from the first P/E cycles.
    // A deliberately tiny device (2 dies x 16 blocks x 8 pages) with 50 %
    // over-provisioning keeps GC running throughout the storm — so erases,
    // and their failure draws, actually happen — while the small blocks
    // leave enough spares to absorb the retirements; a 12-frame pool sends
    // reads to the device.
    sc.base = NoFtlConfig::new(FlashGeometry::with_dies(2, 32, 8, 4096));
    sc.base.op_ratio = 0.5;
    sc.base.endurance_override = Some(32);
    sc.frames = 12;
    sc.txns = 250;
    sc
}

#[test]
fn storm_injects_and_recovers_every_fault_class() {
    let (_, mut medium) = storm(every_fault_class());
    let n = noftl(medium.as_mut());
    let flash = n.flash_stats();
    assert!(flash.program_failures > 0, "storm must inject program failures");
    assert!(flash.erase_failures > 0, "storm must inject erase failures");
    assert!(flash.corrected_reads > 0, "storm must inject correctable read errors");
    assert!(n.stats().retired_blocks > 0, "recovery must have retired blocks");
}

// ---------------------------------------------------------------------------
// Die-failure storms: a whole die dies mid-workload while every region runs
// a redundancy policy.  The workload completes across the failure, reads of
// lost pages come back bit-identical through reconstruction, the rebuild
// re-homes them, and nothing committed is lost.
// ---------------------------------------------------------------------------

/// A lone client's TPC-B storm on a `policy`-protected stack, die `seed % 4`
/// killed halfway, the crash leg (an odd number of commits) optional.
fn die_kill(policy: RedundancyPolicy, seed: u64, depth: usize, crash: bool) -> Scenario {
    let sc = Scenario::new(Mix::TpcB, 1, depth, seed).kill(policy, (seed % 4) as u32).slo();
    sc.crash(if crash { 5 } else { 0 })
}

fn die_kill_sweep(policy: RedundancyPolicy, depth: usize) {
    for case in 0..10 {
        let mut rng = SimRng::new(case);
        storm(die_kill(policy, rng.next_u64(), depth, rng.range(0, 2) == 1));
    }
}

#[test]
fn die_kill_storms_parity_sync() {
    die_kill_sweep(Parity(3), 1);
}

#[test]
fn die_kill_storms_parity_async_depth8() {
    die_kill_sweep(Parity(3), 8);
}

#[test]
fn die_kill_storms_mirror_sync() {
    die_kill_sweep(Mirror, 1);
}

#[test]
fn die_kill_storms_mirror_async_depth8() {
    die_kill_sweep(Mirror, 8);
}

/// Smoke: one die-kill rebuild storm on `Parity(3)` stripes, at depth 8 with
/// the crash leg and at depth 1.
#[test]
fn redundancy_rebuild_smoke() {
    storm(die_kill(Parity(3), 0xD1E5EED, 8, true));
    storm(die_kill(Parity(3), 0xD1E5EED, 1, false));
}

/// Before any rebuild runs, reads of pages lost to a dead die must be served
/// **bit-identical** through reconstruction: a degraded leg (die killed
/// after the storm, no rebuild) scans the same rows as a healthy leg of the
/// identical seeded run — and scans them again, still identical, after the
/// rebuild re-homes them.
#[test]
fn degraded_reads_after_die_loss_are_bit_identical() {
    let mut sc = Scenario::new(Mix::TpcB, 1, 1, 0xD1E).kill(Parity(3), 2).slo();
    // A pool far smaller than the database: the scans reach the dead die.
    sc.frames = 6;
    let tables = ["account", "teller", "branch", "history"];
    let run = |kill: bool| -> Vec<Vec<Vec<u8>>> {
        let mut s = Storm::new(sc.clone());
        s.drive(20);
        if kill {
            s.arm_kill(2);
        }
        let rows = tables.map(|t| s.scan(t)).to_vec();
        if kill {
            s.engine.noftl(|n| {
                assert!(n.any_die_dead(), "the scan must have fired the kill");
                assert!(
                    n.stats().degraded_reads > 0,
                    "scans of a quarter-dead device must serve degraded reads"
                );
                assert_eq!(n.stats().pages_lost, 0);
            });
            s.drain_rebuild();
            assert!(s.engine.noftl(|n| n.stats().pages_rebuilt) > 0);
            for (table, before) in tables.iter().zip(&rows) {
                assert_eq!(&s.scan(table), before, "{table} changed across the rebuild");
            }
        }
        rows
    };
    assert_eq!(run(false), run(true), "degraded reads must be bit-identical to the healthy leg");
}

/// A TPC-B storm on an unprotected drive whose die 1 dies after 20
/// transactions, the rebuild drained.
fn unprotected_die_kill() -> Storm {
    let mut s = Storm::new(Scenario::new(Mix::TpcB, 1, 1, 0xDEAD).kill(RedundancyPolicy::None, 1).slo());
    s.drive(20);
    s.arm_kill(1);
    let now = s.now;
    // One device read fires the armed kill (on whichever die it targets).
    s.engine.noftl(|n| {
        let _ = n.read(now, 0, &mut [0; 4096]);
        assert!(n.any_die_dead(), "the kill must fire on the first command");
    });
    s.drain_rebuild();
    s
}

/// Without redundancy a die failure *is* data loss — and the stack must say
/// so: typed read failures on lost pages, truthful loss counters, and no
/// phantom reconstructions.
#[test]
fn die_loss_without_redundancy_fails_typed_and_counts_losses() {
    let mut s = unprotected_die_kill();
    let now = s.now;
    let mut buf = vec![0u8; 4096];
    s.engine.noftl(|n| {
        let s = n.stats();
        assert_eq!(s.die_failures_detected, 1);
        assert_eq!(s.pages_rebuilt, 0, "nothing to rebuild from without redundancy");
        assert!(s.pages_lost > 0, "losses must be counted, not hidden");
        assert!(s.accounted());
        assert_eq!(s.reconstructed_pages, 0);
        // Every lost page fails typed — the WAL-replay layer above can take
        // over — and the loss counter matches the typed failures one for one.
        let mut typed = 0u64;
        for lpn in 0..n.logical_pages() {
            match n.read(now, lpn, &mut buf) {
                Ok(_) => {}
                Err(FlashError::DieFailed(_)) => typed += 1,
                // Logical pages the workload never wrote have no mapping.
                Err(FlashError::ReadOfUnwrittenPage(_)) => {}
                Err(e) => panic!("read of lpn {lpn}: expected DieFailed, got {e}"),
            }
        }
        assert!(typed > 0, "a quarter of the mapped pages died with the die");
        assert_eq!(
            typed,
            n.stats().pages_lost,
            "the loss counter must match the typed read failures exactly"
        );
    });
}

// ---------------------------------------------------------------------------
// Every pair of axes, composed
// ---------------------------------------------------------------------------

/// Seven axes — workload, clients, depth, faults, die kill, SLO bundle,
/// crash leg — and a table of storms that holds every pair of their values
/// at least once (the table checks that itself).  Each row with a kill
/// demands the kill fired, the rebuild lost nothing and every promise held
/// across it.
#[test]
fn every_pair_of_axes_composes() {
    use Mix::{TpcB as B, TpcC as C};
    let rows = [
        // mix, clients, depth, faults, kill, slo, crash
        (C, 1, 8, true, None, true, false),
        (B, 1, 1, true, Some(Parity(3)), false, false),
        (C, 3, 8, false, Some(Parity(3)), true, true),
        (C, 3, 1, true, Some(Mirror), false, true),
        (B, 1, 8, false, Some(Mirror), false, true),
        (B, 3, 1, false, Some(Mirror), true, false),
        (B, 3, 1, false, None, false, true),
    ];
    let values: Vec<[usize; 7]> = rows
        .iter()
        .map(|&(mix, clients, depth, faults, kill, slo, crash)| {
            let kill = match kill {
                None => 0,
                Some(Parity(_)) => 1,
                Some(_) => 2,
            };
            [(mix == C) as usize, (clients == 3) as usize, (depth == 8) as usize, faults as usize, kill, slo as usize, crash as usize]
        })
        .collect();
    let levels = [2, 2, 2, 2, 3, 2, 2];
    for a in 0..7 {
        for b in a + 1..7 {
            for (va, vb) in (0..levels[a]).flat_map(|va| (0..levels[b]).map(move |vb| (va, vb))) {
                assert!(
                    values.iter().any(|v| v[a] == va && v[b] == vb),
                    "no row composes value {va} of axis {a} with value {vb} of axis {b}"
                );
            }
        }
    }
    for (i, &(mix, clients, depth, faults, kill, slo, crash)) in rows.iter().enumerate() {
        let seed = 0xA11_0000 + i as u64;
        let mut sc = Scenario::new(mix, clients, depth, seed).faults(faults);
        if let Some(policy) = kill {
            sc = sc.kill(policy, (seed % 4) as u32);
        }
        sc.stack.slo = slo;
        storm(sc.crash(if crash { 3 } else { 0 }));
    }
}

// ---------------------------------------------------------------------------
// Overload: the commit-admission window (`EngineConfig::admission`) promises
// that a shed request fails before anything is begun or logged (no
// committed-data loss), that `admitted + delayed + shed` matches the clients'
// view call for call (truthful stats), and that degenerate windows shed or
// admit but never hang the virtual clock (no livelock).
// ---------------------------------------------------------------------------

/// The overload stack: a 4-die drive, 128 frames, four die-wise writers and
/// the SLO bundle with `admission` as its window, for `sessions` clients.
fn overload(sessions: usize, admission: AdmissionConfig) -> Engine {
    let mut sc = Scenario::new(Mix::TpcB, sessions, 1, 0);
    sc.stack = StackConfig { slo: true, ..StackConfig::default() };
    sc.base = NoFtlConfig::new(FlashGeometry::with_dies(4, 128, 64, 4096));
    sc.frames = 128;
    sc.writers = 4;
    sc.admission = Some(admission);
    build(&sc)
}

/// An engine with one committed update transaction whose WAL force is the
/// single retained in-flight entry; returns the engine and the commit end.
fn engine_with_one_force(admission: AdmissionConfig) -> (Engine, u64) {
    let mut engine = overload(1, admission);
    let e = engine.ops(0);
    e.create_table("t");
    let txn = e.begin();
    let (_, t) = e.insert("t", txn, 0, &[7u8; 64]).expect("insert");
    let end = e.commit(txn, t).expect("commit");
    assert!(end > 0, "the commit force takes real virtual time");
    (engine, end)
}

#[test]
fn window_of_one_admits_on_an_idle_engine() {
    // Window 1 on a fresh engine: nothing in flight, nothing dirty — the
    // arrival admits immediately (the livelock guard, not the deadline).
    let admission = AdmissionConfig { max_inflight_groups: 1, deadline_ns: 10, ..AdmissionConfig::default() };
    let mut engine = overload(1, admission);
    let e = engine.ops(0);
    let (_, at) = e.begin_admitted(5).expect("idle engine admits");
    assert_eq!(at, 5);
    let stats = e.admission_stats();
    assert_eq!((stats.admitted, stats.delayed, stats.shed), (1, 0, 0));
}

#[test]
fn window_of_one_waits_out_the_inflight_force() {
    // An arrival that lands while the previous commit's WAL force is still
    // in flight (its completion is after the arrival instant) waits until
    // the force clears, and the delay is counted.
    let admission = AdmissionConfig { max_inflight_groups: 1, deadline_ns: u64::MAX, ..AdmissionConfig::default() };
    let (mut engine, end) = engine_with_one_force(admission);
    let e = engine.ops(0);
    let (_, at) = e.begin_admitted(1).expect("bounded wait admits");
    assert!(at >= end, "admission waits for the in-flight force: admitted {at}, force ends {end}");
    let stats = e.admission_stats();
    assert_eq!((stats.admitted, stats.delayed), (1, 1));
    assert!(stats.total_delay_ns >= end - 1);
}

#[test]
fn deadline_shorter_than_one_wal_group_sheds_with_typed_error() {
    // The force in flight takes longer than the whole admission deadline, so
    // the arrival cannot clear pressure in time: typed shed, nothing begun.
    let admission = AdmissionConfig { max_inflight_groups: 1, deadline_ns: 1, ..AdmissionConfig::default() };
    let (mut engine, end) = engine_with_one_force(admission);
    let e = engine.ops(0);
    let committed_before = e.committed();
    match e.begin_admitted(1) {
        Err(EngineError::Overloaded { waited_ns, retry_after_ns }) => {
            assert!(waited_ns >= end - 1, "the error reports the pressure ahead: {waited_ns}");
            assert_eq!(
                retry_after_ns,
                waited_ns - 1,
                "the back-off hint is the pressure ahead minus the deadline budget"
            );
        }
        other => panic!("expected Overloaded, got {other:?}"),
    }
    let stats = e.admission_stats();
    assert_eq!((stats.shed, stats.admitted), (1, 0));
    assert_eq!(e.committed(), committed_before, "a shed begin leaves the durability ledger untouched");
}

/// Open-loop case `case`: a seeded arrival rate, deadline and session
/// topology (one client, or eight sessions over the sharded engine) on the
/// overload stack.  Returns the engine, the driver's report and the commits
/// of the setup.
fn open_loop(case: u64) -> (Engine, OpenLoopReport, u64) {
    let mut rng = SimRng::new(case);
    let seed = rng.range(0, 1_000_000);
    let mean_gap_ns = *rng.choose(&[50_000, 150_000, 600_000]);
    let deadline_ns = *rng.choose(&[1, 500_000, 2_000_000]);
    let sessions = *rng.choose(&[1, 8]);

    let admission = AdmissionConfig { max_inflight_groups: 1, dirty_high_watermark: 0.25, deadline_ns };
    let mut engine = overload(sessions, admission);
    let mut olcfg = OpenLoopConfig::new(150, Arrivals::Poisson { mean_interarrival_ns: mean_gap_ns });
    olcfg.rows = 300;
    olcfg.row_bytes = 64;
    olcfg.update_every = 2;
    olcfg.seed = seed;
    let driver = OpenLoopDriver::new(olcfg);
    let t0 = match &mut engine {
        Engine::One(e) => driver.setup(e.as_mut(), 0),
        Engine::Many(_, s) => driver.setup(&mut s[0], 0),
    }
    .expect("setup");
    let setup_committed = engine.ops(0).committed();
    let report = match &mut engine {
        Engine::One(e) => driver.run(std::slice::from_mut(e.as_mut()), t0),
        Engine::Many(_, s) => driver.run(s, t0),
    }
    .expect("run");
    (engine, report, setup_committed)
}

/// Across seeds, arrival rates, deadlines and session topologies: no
/// committed-data loss, and the engine's admission counters reconcile call
/// for call with what the clients observed.
#[test]
fn open_loop_storms_never_lose_committed_data() {
    for case in 0..12 {
        let (_, report, setup_committed) = open_loop(case);
        let total = 165; // 150 measured + 15 warmup
        let (admitted, delayed, shed) = report.observed;
        // Every offered request is admitted or shed — none vanish.
        assert_eq!(admitted + shed, total);
        assert!(delayed <= admitted);
        // Engine-side counters match the client-side observations exactly.
        assert_eq!(report.admission.admitted, admitted);
        assert_eq!(report.admission.delayed, delayed);
        assert_eq!(report.admission.shed, shed);
        // Zero committed-transaction loss: the durability ledger is setup
        // plus exactly the admitted begins — shed requests never logged.
        assert_eq!(report.committed, setup_committed + admitted);
        // The measured phase accounts for every request.
        assert_eq!(report.completed + report.shed, report.requests);
    }
}

// ---------------------------------------------------------------------------
// Session storms: N seeded clients hammer one shared `ConcurrentEngine` —
// TPC-B and TPC-C mixes, sync and at depth 8, with and without injected
// faults, across a die kill and a crash — and every run upholds serializable
// per-client commit streams, zero committed-data loss on each client's
// table partition and on the medium after a crash, and per-shard counters
// that reconcile exactly with the aggregate.  The checkpoint leg pins the
// barrier contract: a checkpoint taken while other shards still have
// asynchronous flush windows in flight drains them *all* before the WAL
// checkpoint record lands.
// ---------------------------------------------------------------------------

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

// ---------------------------------------------------------------------------
// Stats counters: every counter of the five audited stats structs moves in
// some fixture, and counters that count the same event agree
// ---------------------------------------------------------------------------

/// The five audited stats structs as one run left them, with the page size
/// that one identity needs; a bare NoFTL run leaves the engine's parts at
/// their defaults.
#[derive(Default)]
struct Counters {
    page_size: u64,
    flash: FlashStats,
    noftl: NoFtlStats,
    readahead: ReadaheadStats,
    admission: AdmissionStats,
    flusher: FlusherStats,
}

/// A counter's size: a scalar's value, a `Vec`'s sum, a histogram's sample
/// count.
trait Total {
    fn total(&self) -> u64;
}

impl Total for u64 {
    fn total(&self) -> u64 {
        *self
    }
}

impl Total for usize {
    fn total(&self) -> u64 {
        *self as u64
    }
}

impl Total for Vec<u64> {
    fn total(&self) -> u64 {
        self.iter().sum()
    }
}

impl Total for Histogram {
    fn total(&self) -> u64 {
        self.count()
    }
}

/// `("Struct::field", total)` for every field of `$value`, destructured as a
/// `$ty` with no `..`: a field added to the struct fails to compile until it
/// is listed here.
macro_rules! totals {
    ($value:expr => $ty:ident { $($field:ident),* $(,)? }) => {{
        let $ty { $($field),* } = $value;
        [$((concat!(stringify!($ty), "::", stringify!($field)), Total::total($field))),*]
    }};
}

impl Counters {
    fn of_noftl(n: &NoFtl) -> Self {
        Counters {
            page_size: n.device().geometry().page_size as u64,
            flash: n.flash_stats().clone(),
            noftl: n.stats().clone(),
            ..Counters::default()
        }
    }

    fn of(engine: &mut Engine) -> Self {
        let Engine::One(e) = engine else { panic!("the counter fixtures run one client") };
        Counters::of_engine(e)
    }

    fn of_engine(e: &mut StorageEngine) -> Self {
        let (readahead, admission, flusher) = (e.readahead_stats(), e.admission_stats(), e.flusher_stats());
        Counters { readahead, admission, flusher, ..Counters::of_noftl(noftl(e.backend_mut())) }
    }

    /// Every field of the five structs by name.
    fn totals(&self) -> Vec<(&'static str, u64)> {
        let mut all = Vec::new();
        all.extend(totals!(&self.flash => FlashStats {
            reads, programs, erases, copybacks, multi_page_dispatches, batched_pages,
            multi_page_read_dispatches, batched_read_pages, queued_submissions, queue_wait_ns,
            queue_gated_submissions, queued_reads, read_stalls, program_failures, erase_failures,
            corrected_reads, uncorrectable_reads, die_failures, dead_die_rejections,
            inflight_die_failures, bytes_read, bytes_written, read_latency, program_latency,
            erase_latency, copyback_latency, per_die_ops, per_die_reads,
        }));
        all.extend(totals!(&self.noftl => NoFtlStats {
            host_reads, host_writes, dead_page_hints, gc_page_copies, gc_dead_skipped, gc_erases,
            gc_batch_dispatches, gc_stalls, gc_scheduled_cold, gc_deferred_hot, wear_migrations,
            retired_blocks, program_fail_retirements, erase_fail_retirements, read_retries,
            read_retry_successes, scrubbed_blocks, scrub_relocations, parity_pages_written,
            stripes_sealed, stripes_sealed_degraded, stripes_abandoned, open_members_purged,
            stripes_broken, members_reprotected, mirror_pages_written, mirror_skipped_no_space,
            degraded_reads, reconstructed_pages, die_failures_detected, pages_scanned, pages_rebuilt,
            pages_lost, rebuild_scheduled, rebuild_deferred_hot, write_latency, read_latency,
        }));
        all.extend(totals!(&self.readahead => ReadaheadStats {
            prefetch_issued, prefetch_useful, prefetch_wasted, window_high_water,
        }));
        all.extend(totals!(&self.admission => AdmissionStats { admitted, delayed, shed, total_delay_ns }));
        all.extend(totals!(&self.flusher => FlusherStats {
            cycles, pages_flushed, batch_submissions, total_cycle_time, max_cycle_time,
        }));
        all
    }

    /// The identities between counters that do not hold.
    fn broken_identities(&self) -> Vec<&'static str> {
        let (f, n, ra, ad, fl) = (&self.flash, &self.noftl, &self.readahead, &self.admission, &self.flusher);
        [
            ("per_die_reads sums to reads", f.per_die_reads.iter().sum::<u64>() == f.reads),
            ("per_die_ops sums to total_ops()", f.per_die_ops.iter().sum::<u64>() == f.total_ops()),
            ("one read_latency sample per read", f.read_latency.count() == f.reads),
            ("one program_latency sample per program", f.program_latency.count() == f.programs),
            ("one erase_latency sample per erase", f.erase_latency.count() == f.erases),
            ("one copyback_latency sample per copyback", f.copyback_latency.count() == f.copybacks),
            ("bytes_written is programs pages", f.bytes_written == f.programs * self.page_size),
            ("a batched read run has two pages or more", f.batched_read_pages >= 2 * f.multi_page_read_dispatches),
            ("queued reads are queued submissions", f.queued_reads <= f.queued_submissions),
            ("ECC outcomes are reads", f.corrected_reads + f.uncorrectable_reads <= f.reads),
            ("program failures are programs", f.program_failures <= f.programs + f.copybacks),
            ("erase failures are erases", f.erase_failures <= f.erases),
            ("one read_latency sample per host read", n.read_latency.count() == n.host_reads),
            ("one write_latency sample per host write", n.write_latency.count() == n.host_writes),
            ("a batched GC dispatch relocates two pages or more", n.gc_page_copies >= 2 * n.gc_batch_dispatches),
            ("retry successes are retries", n.read_retry_successes <= n.read_retries),
            (
                "fault retirements are retirements",
                n.program_fail_retirements + n.erase_fail_retirements <= n.retired_blocks,
            ),
            ("NoFTL detects every failed die", n.die_failures_detected == f.die_failures),
            ("one parity page per sealed stripe", n.parity_pages_written == n.stripes_sealed),
            ("degraded seals are seals", n.stripes_sealed_degraded <= n.stripes_sealed),
            (
                "degraded reads and rebuilt pages are reconstructions",
                n.degraded_reads + n.pages_rebuilt <= n.reconstructed_pages,
            ),
            ("NoFtlStats::accounted()", n.accounted()),
            ("prefetches end useful, wasted or resident", ra.prefetch_useful + ra.prefetch_wasted <= ra.prefetch_issued),
            ("delayed admissions are admissions", ad.delayed <= ad.admitted),
            ("a flush submission writes a page or more", fl.batch_submissions <= fl.pages_flushed),
            ("the longest flush cycle is part of the total", fl.max_cycle_time <= fl.total_cycle_time),
        ]
        .into_iter()
        .filter(|&(_, holds)| !holds)
        .map(|(identity, _)| identity)
        .collect()
    }
}

/// Counters no fixture moves, each with the reason.
const UNMOVED: &[(&str, &str)] = &[
    (
        "NoFtlStats::gc_batch_dispatches",
        "only `gc_batch_pages > 1` moves it, and no stack sets that (FOUND in CHANGES.md)",
    ),
    ("NoFtlStats::mirror_skipped_no_space", "every mirror fixture has free space on a second die (ROADMAP item 19)"),
];

/// Eight clients on one engine whose die-wise db-writers keep eight writes
/// in flight per die over die queues two deep: submissions, reads among
/// them, wait for a die-queue slot.  `StackConfig::noftl` gives the device
/// the writers' depth, so the stack is built here.
fn contended_die_queues() -> StorageEngine {
    let mut base = NoFtlConfig::new(FlashGeometry::with_dies(8, 64, 64, 4096));
    base.async_queue_depth = 2;
    let mut cfg = EngineConfig::new();
    cfg.buffer_frames = 128;
    cfg.flushers = FlusherConfig { async_depth: 8, ..FlusherConfig::die_wise(8) };
    let mut engine = StorageEngine::new(Box::new(NoFtlBackend::new(NoFtl::new(base))), cfg);
    let mut workload = TpcB::new(TpcBConfig::scaled(4));
    let start = workload.setup(&mut engine, 0).expect("setup");
    BenchmarkDriver::new(DriverConfig::new(8, 400)).run(&mut engine, &mut workload, start).expect("run");
    engine
}

/// A bare NoFTL drive on `Mirror`, die queues eight deep and the
/// scheduling threshold at one read in flight, churned through GC
/// relocations across two planes per die.  Die 1 dies while a batched write
/// and a burst of reads are in flight at one instant: the kill catches
/// queued commands, and the GC and rebuild steps offered at that instant
/// defer as read-hot.  The rebuild then runs with a `schedule_gc` step
/// before each of its steps, and every read, in the window and after the
/// rebuild, returns the last data written.
fn inflight_die_kill() -> NoFtl {
    let geometry = FlashGeometry { planes_per_die: 2, blocks_per_plane: 8, ..FlashGeometry::with_dies(4, 64, 16, 512) };
    let mut cfg = NoFtlConfig::new(geometry);
    cfg.op_ratio = 0.75;
    cfg.gc_low_watermark = 2;
    cfg.gc_high_watermark = 4;
    cfg.async_queue_depth = 8;
    cfg.gc_schedule_read_occupancy = 1;
    cfg.redundancy = vec![Mirror; 4];
    let mut n = NoFtl::new(cfg);
    let lpns = n.logical_pages();
    let ps = geometry.page_size as usize;
    let mut last = vec![0u8; lpns as usize];
    let mut write = |n: &mut NoFtl, t, batch: &[u64], fill: u8| {
        let data = vec![fill; ps];
        let pages: Vec<(u64, &[u8])> = batch.iter().map(|&l| (l, data.as_slice())).collect();
        batch.iter().for_each(|&l| last[l as usize] = fill);
        n.write_batch(t, &pages).expect("write batch")
    };
    // One sequential pass, then five passes' worth of random batches of 8.
    let mut rng = SimRng::new(0x1F11);
    let mut now = 0;
    for round in 0..lpns / 8 * 6 {
        let batch: Vec<u64> = match round {
            r if r < lpns / 8 => (r * 8..r * 8 + 8).collect(),
            _ => (0..8).map(|_| rng.range(0, lpns)).collect(),
        };
        now = write(&mut n, now, &batch, round as u8);
    }
    let t = n.drain(now);
    write(&mut n, t, &[1, 2, 3, 4, 5, 6, 7, 8], 0xEE);
    // The third command after arming, one of the reads below, kills die 1.
    n.set_fault_plan(Some(quiet_plan().with_die_kill(2, 1)));
    let mut buf = vec![0u8; ps];
    for lpn in 16..48 {
        n.read(t, lpn, &mut buf).expect("read in the kill window");
        assert_eq!(buf, vec![last[lpn as usize]; ps], "lpn {lpn} in the kill window");
    }
    assert!(n.flash_stats().inflight_die_failures > 0, "the kill must catch queued commands");
    assert_eq!(n.schedule_gc(t).expect("GC step"), None, "a GC step at a read-hot instant defers");
    assert_eq!(n.schedule_rebuild(t).expect("rebuild step"), None, "a rebuild step at a read-hot instant defers");
    let mut t = n.drain(t);
    loop {
        t = n.schedule_gc(t).expect("GC step").unwrap_or(t).max(t);
        match n.schedule_rebuild(t).expect("rebuild step") {
            Some(end) => t = end.max(t),
            None => break,
        }
    }
    for lpn in 0..lpns {
        n.read(t, lpn, &mut buf).expect("read after the rebuild");
        assert_eq!(buf, vec![last[lpn as usize]; ps], "lpn {lpn} after the rebuild");
    }
    n
}

/// The stats counters checked by running them: after the seven fixtures
/// below, every counter of the five audited structs has moved in at least one
/// of them (or is on [`UNMOVED`] with its reason), and every identity between
/// counters holds in each.  A counter whose update is lost reads zero
/// everywhere or breaks an identity, and fails here.
#[test]
fn every_stats_counter_moves_and_reconciles() {
    let storm = |sc: Scenario| {
        let mut s = Storm::run(sc);
        s.check();
        Counters::of(&mut s.engine)
    };
    // A Mirror die kill at depth 8 on a 6-frame pool: the checker's scans
    // stream through readahead that the pool evicts before use.
    let mut readahead = die_kill(Mirror, 0xD1E5EED, 8, false);
    readahead.frames = 6;
    let runs = [
        ("Parity(3) die kill", Counters::of_noftl(&fixtures::parity_die_kill())),
        ("every fault class", storm(every_fault_class())),
        ("readahead scan at depth 8", storm(readahead)),
        ("SLO-on open loop", Counters::of(&mut open_loop(1).0)),
        ("unprotected die kill", Counters::of(&mut unprotected_die_kill().engine)),
        ("contended die queues", Counters::of_engine(&mut contended_die_queues())),
        ("in-flight die kill", Counters::of_noftl(&inflight_die_kill())),
    ];
    let mut moved = std::collections::BTreeMap::new();
    for (fixture, counters) in &runs {
        let broken = counters.broken_identities();
        assert!(broken.is_empty(), "{fixture}: {broken:?}");
        for (name, total) in counters.totals() {
            *moved.entry(name).or_insert(false) |= total > 0;
        }
    }
    let unmoved: Vec<&str> = moved.into_iter().filter(|&(_, m)| !m).map(|(name, _)| name).collect();
    let allowed: Vec<&str> = UNMOVED.iter().map(|&(name, _)| name).collect();
    assert_eq!(unmoved, allowed, "counters no fixture moves, against the allow-list");
}

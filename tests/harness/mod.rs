//! Storm harness of `tests/storms.rs`:
//! TPC-B and TPC-C storms on the full NoFTL stack under every recovery duty
//! the paper hands the DBMS — injected Flash faults, a die killed mid-run on
//! a redundancy policy, a crash at a run boundary, the overload bundle — with
//! one client on a `StorageEngine` or N sessions sharing a `ConcurrentEngine`.
//!
//! Every storm is one [`Scenario`]: [`build`] makes the stack,
//! [`Storm::drive`] runs the workload (arming the die kill after half of
//! it), [`Storm::check`] and [`check_noftl`] assert the engine's promises —
//! zero committed-data loss, truthful fault, redundancy and rebuild
//! statistics, serializable sessions with shard counters that sum to the
//! aggregate — and [`Storm::crash`] rebuilds the log from the medium alone
//! after a crash.  One thread steps every client on the virtual clock — a
//! lone client under `BenchmarkDriver`, sessions under the one closed-loop
//! step `MultiClientDriver::step` — so a storm is a pure function of its
//! scenario.

use std::collections::HashSet;

use noftl::nand_flash::{FaultPlan, FlashError, FlashGeometry, FlashResult};
use noftl::noftl_core::{FlusherAssignment, NoFtl, NoFtlConfig, RedundancyPolicy};
use noftl::sim_utils::time::SimInstant;
use noftl::storage_engine::buffer::BufferStats;
use noftl::storage_engine::{
    AdmissionConfig, ClientSession, ConcurrentEngine, EngineOps, LogRecord,
    LogStream, NoFtlBackend, StackConfig, StorageBackend, StorageEngine, TxnId, WalManager,
};
use noftl::workloads::workload::TxnKind;
use noftl::workloads::{
    BenchmarkDriver, DriverConfig, MultiClientDriver, TpcB, TpcBConfig, TpcC, TpcCConfig, Workload,
};

use RedundancyPolicy::{Mirror, Parity};

/// Log segment size of every storm engine (the crash leg's recovery scan
/// must agree with it).
pub const LOG_PAGES: u64 = 64;

/// Chaos fault mix: every failure mode is orders of magnitude more likely
/// than on the default plan, so a short storm actually exercises recovery,
/// but rates stay low enough that the spare-block pool survives the run.
pub fn chaos_plan(seed: u64) -> FaultPlan {
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

/// A fault plan with every probabilistic failure mode zeroed: nothing fires
/// until a die kill is armed.
pub fn quiet_plan() -> FaultPlan {
    let mut plan = FaultPlan::seeded(7);
    plan.program_fail_base = 0.0;
    plan.erase_fail_prob = 0.0;
    plan.read_error_base = 0.0;
    plan
}

// ---------------------------------------------------------------------------
// The scenario and the one stack build
// ---------------------------------------------------------------------------

#[derive(Clone, Copy, PartialEq)]
pub enum Mix {
    TpcB,
    TpcC,
}

/// One storm, stated in full.
#[derive(Clone)]
pub struct Scenario {
    pub mix: Mix,
    /// 1: a `StorageEngine` under `BenchmarkDriver`'s three interleaved
    /// streams.  n: n sessions on a `ConcurrentEngine` with n pool shards,
    /// client `i` on its own `c{i}_` table partition.
    pub clients: usize,
    /// Depth, faults, redundancy and SLO bundle of the stack.
    pub stack: StackConfig,
    /// Die killed after half the transactions.
    pub kill: Option<u32>,
    /// Transactions per client between a checkpoint and the crash; 0 runs
    /// no crash leg.
    pub crash: u64,
    pub seed: u64,
    /// Transactions per client (one client: `BenchmarkDriver`'s measured
    /// transactions, which add a 10 % warm-up).
    pub txns: u64,
    /// Geometry, over-provisioning and endurance of the device.
    pub base: NoFtlConfig,
    /// Buffer-pool frames: far fewer than the database has pages, so reads
    /// reach the device and its fault model instead of the cache.
    pub frames: usize,
    /// Die-wise db-writers.
    pub writers: usize,
    /// Replaces the SLO bundle's default admission window.
    pub admission: Option<AdmissionConfig>,
}

impl Scenario {
    /// `clients` clients of `mix` at submission depth `depth` on the small
    /// device, no faults, no kill, no crash: the sizing every storm starts
    /// from.
    pub fn new(mix: Mix, clients: usize, depth: usize, seed: u64) -> Self {
        Scenario {
            mix,
            clients,
            stack: StackConfig {
                async_depth: depth,
                ..StackConfig::default()
            },
            kill: None,
            crash: 0,
            seed,
            txns: match (clients, mix) {
                (1, Mix::TpcB) => 44,
                (1, Mix::TpcC) => 40,
                _ => 10,
            },
            base: NoFtlConfig::new(FlashGeometry::small()),
            frames: if clients == 1 { 48 } else { 96 },
            writers: 2,
            admission: None,
        }
    }

    /// The chaos fault mix, seeded with the scenario's seed, if `on`.
    pub fn faults(mut self, on: bool) -> Self {
        self.stack.faults = on.then(|| chaos_plan(self.seed));
        self
    }

    /// `policy` on every region and `die` killed after half the
    /// transactions.  Over-provisioning is generous (0.60): parity overhead,
    /// stale-stripe parity pinning and the loss of a quarter of the physical
    /// pool all eat spare blocks.  Without a fault mix the device carries
    /// the inert plan, so the fault-path gates are live before the kill.
    pub fn kill(mut self, policy: RedundancyPolicy, die: u32) -> Self {
        self.stack.redundancy = Some(policy);
        self.stack.faults.get_or_insert_with(quiet_plan);
        self.base.op_ratio = 0.60;
        self.kill = Some(die);
        self
    }

    /// The overload bundle; under it `maybe_flush` also drives the online
    /// rebuild.
    pub fn slo(mut self) -> Self {
        self.stack.slo = true;
        self
    }

    pub fn crash(mut self, txns: u64) -> Self {
        self.crash = txns;
        self
    }

    pub fn prefix(&self, client: usize) -> String {
        if self.clients == 1 {
            String::new()
        } else {
            format!("c{client}_")
        }
    }

    /// Client `client`'s workload: the chaos sizes for a lone client, a
    /// smaller partition per client of a shared engine.
    pub fn load(&self, client: usize) -> Load {
        let seed = self.seed ^ (client as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        let one = self.clients == 1;
        match self.mix {
            Mix::TpcB => Load::B(Box::new(TpcB::with_prefix(
                TpcBConfig {
                    scale_factor: 1,
                    tellers_per_branch: if one { 10 } else { 4 },
                    accounts_per_branch: if one { 400 } else { 60 },
                    seed,
                },
                self.prefix(client),
            ))),
            Mix::TpcC => Load::C(Box::new(TpcC::with_prefix(
                TpcCConfig {
                    warehouses: 1,
                    districts_per_warehouse: if one { 4 } else { 2 },
                    customers_per_district: if one { 40 } else { 10 },
                    items: if one { 200 } else { 30 },
                    seed,
                },
                self.prefix(client),
            ))),
        }
    }
}

/// An engine with its clients' handles.
pub enum Engine {
    One(Box<StorageEngine>),
    Many(ConcurrentEngine, Vec<ClientSession>),
}

/// The one stack build: `sc.base` under `sc.stack` on a fresh device, and
/// the stack's engine with the scenario's pool, log, die-wise writers and a
/// 16-page readahead window.
pub fn build(sc: &Scenario) -> Engine {
    let backend = Box::new(sc.stack.noftl_backend(sc.base.clone()));
    let mut cfg = sc.stack.engine();
    cfg.readahead_window = 16;
    cfg.buffer_frames = sc.frames;
    cfg.log_pages = LOG_PAGES;
    cfg.flushers = sc.stack.flushers(FlusherAssignment::DieWise, sc.writers);
    cfg.admission = sc.admission.or(cfg.admission);
    if sc.clients == 1 {
        return Engine::One(Box::new(StorageEngine::new(backend, cfg)));
    }
    let engine = ConcurrentEngine::new(backend, cfg, sc.clients);
    let sessions = (0..sc.clients).map(|_| engine.session()).collect();
    Engine::Many(engine, sessions)
}

impl Engine {
    /// Client `client`'s handle on the engine.
    pub fn ops(&mut self, client: usize) -> &mut dyn EngineOps {
        match self {
            Engine::One(e) => e.as_mut(),
            Engine::Many(_, sessions) => &mut sessions[client],
        }
    }

    pub fn noftl<R>(&mut self, f: impl FnOnce(&mut NoFtl) -> R) -> R {
        match self {
            Engine::One(e) => f(noftl(e.backend_mut())),
            Engine::Many(e, _) => e.with_backend(|b| f(noftl(b))),
        }
    }

    pub fn wal<R>(&mut self, f: impl FnOnce(&WalManager) -> R) -> R {
        match self {
            Engine::One(e) => f(e.wal()),
            Engine::Many(e, _) => e.with_wal(f),
        }
    }

    pub fn into_backend(self) -> Box<dyn StorageBackend> {
        match self {
            Engine::One(e) => e.into_backend(),
            Engine::Many(e, sessions) => {
                drop(sessions);
                e.into_backend()
            }
        }
    }
}

/// The NoFTL under a storm's backend.
pub fn noftl(backend: &mut dyn StorageBackend) -> &mut NoFtl {
    backend
        .as_any_mut()
        .and_then(|a| a.downcast_mut::<NoFtlBackend>())
        .expect("storms run on the NoFTL backend")
        .noftl_mut()
}

/// A client's workload, kept concrete so the checker can read its counters.
pub enum Load {
    B(Box<TpcB>),
    C(Box<TpcC>),
}

impl<E: EngineOps> Workload<E> for Load {
    fn name(&self) -> &'static str {
        match self {
            Load::B(w) => Workload::<E>::name(w.as_ref()),
            Load::C(w) => Workload::<E>::name(w.as_ref()),
        }
    }

    fn setup(&mut self, e: &mut E, now: SimInstant) -> FlashResult<SimInstant> {
        match self {
            Load::B(w) => w.setup(e, now),
            Load::C(w) => w.setup(e, now),
        }
    }

    fn run_transaction(&mut self, e: &mut E, client: usize, now: SimInstant) -> FlashResult<(SimInstant, TxnKind)> {
        match self {
            Load::B(w) => w.run_transaction(e, client, now),
            Load::C(w) => w.run_transaction(e, client, now),
        }
    }
}

// ---------------------------------------------------------------------------
// Driving, checking, crashing
// ---------------------------------------------------------------------------

pub struct Storm {
    pub sc: Scenario,
    pub engine: Engine,
    pub loads: Vec<Load>,
    /// Transactions each client has run since the load.
    pub ran: u64,
    /// Each session's instant after its last step.
    pub ends: Vec<SimInstant>,
    pub now: SimInstant,
}

/// What a storm's sessions saw: each one's commit stream `(txn, commit
/// time)` in commit order and its instant after its last step, and the
/// barrier after the drive.
#[derive(Debug, PartialEq)]
pub struct Trace {
    pub commits: Vec<Vec<(TxnId, SimInstant)>>,
    pub ends: Vec<SimInstant>,
    pub barrier: SimInstant,
}

/// Run `sc` end to end — load, drive (arming the kill halfway), check,
/// crash — and hand back what its sessions saw and the medium, whose
/// statistics have been checked.
pub fn storm(sc: Scenario) -> (Trace, Box<dyn StorageBackend>) {
    let mut s = Storm::run(sc.clone());
    let barrier = s.now;
    s.check();
    let commits = match &s.engine {
        Engine::One(_) => Vec::new(),
        Engine::Many(_, sessions) => sessions.iter().map(|s| s.commits().to_vec()).collect(),
    };
    let trace = Trace { commits, ends: s.ends.clone(), barrier };
    let mut medium = if sc.crash > 0 { s.crash() } else { s.engine.into_backend() };
    check_noftl(&sc, noftl(medium.as_mut()));
    (trace, medium)
}

impl Storm {
    /// Build the stack and load every client's partition, one after another
    /// on the virtual clock.
    pub fn new(sc: Scenario) -> Self {
        let mut engine = build(&sc);
        let mut loads: Vec<Load> = (0..sc.clients).map(|c| sc.load(c)).collect();
        let mut now = 0;
        match &mut engine {
            Engine::One(e) => now = loads[0].setup(e.as_mut(), now).expect("load"),
            Engine::Many(_, sessions) => {
                for (load, s) in loads.iter_mut().zip(sessions) {
                    now = load.setup(s, now).expect("load");
                }
            }
        }
        Storm { sc, engine, loads, ran: 0, ends: Vec::new(), now }
    }

    /// Build the stack, load it and run every transaction of `sc`, arming
    /// the kill halfway.
    pub fn run(sc: Scenario) -> Self {
        let mut s = Storm::new(sc);
        let (txns, kill) = (s.sc.txns, s.sc.kill);
        match kill {
            Some(die) => {
                s.drive(txns / 2);
                s.arm_kill(die);
                s.drive(txns - txns / 2);
            }
            None => s.drive(txns),
        }
        s
    }

    /// The one driver step: `txns` more transactions per client, then a
    /// barrier.  A lone client runs under `BenchmarkDriver`, sessions under
    /// `MultiClientDriver::step`.  A failed step panics with the device's
    /// failure counters.
    pub fn drive(&mut self, txns: u64) {
        let start = self.now;
        let result = match &mut self.engine {
            Engine::One(e) => {
                let cfg = DriverConfig::new(3, txns);
                self.ran += cfg.transactions + cfg.warmup_transactions;
                BenchmarkDriver::new(cfg).run(e, &mut self.loads[0], start).map(|_| e.quiesce(start))
            }
            Engine::Many(_, sessions) => {
                self.ran += txns;
                let mut ends = vec![start; sessions.len()];
                MultiClientDriver::step(sessions, &mut self.loads, &mut ends, txns).map(|()| {
                    let last = ends.iter().copied().max().unwrap_or(start);
                    self.ends = ends;
                    sessions[0].quiesce(last)
                })
            }
        };
        self.now = result.unwrap_or_else(|e| {
            let why = self.engine.noftl(|n| {
                let (f, s) = (n.flash_stats(), n.stats());
                format!("pf={} ef={} retired={}", f.program_failures, f.erase_failures, s.retired_blocks)
            });
            panic!("storm step failed: {e} ({why})")
        });
    }

    /// Arm the kill of `die` on top of the scenario's fault plan: the very
    /// next device command fires it, on a die whose blocks by now hold
    /// committed rows, WAL pages and redundancy copies.
    pub fn arm_kill(&mut self, die: u32) {
        let plan = self.sc.stack.faults.clone().unwrap_or_else(quiet_plan);
        self.engine.noftl(|n| n.set_fault_plan(Some(plan.with_die_kill(0, die))));
    }

    /// Run the online rebuild to completion.
    pub fn drain_rebuild(&mut self) {
        let now = self.now;
        self.now = self.engine.noftl(|n| {
            let mut t = now;
            while let Some(end) = n.schedule_rebuild(t).expect("rebuild step") {
                t = end.max(t);
            }
            t
        });
    }

    pub fn scan(&mut self, table: &str) -> Vec<Vec<u8>> {
        let (rows, t) = scan_rows(self.engine.ops(0), table, self.now);
        self.now = t;
        rows
    }

    /// The one checker, engine side: after a kill the online rebuild rode
    /// `maybe_flush` (under the SLO bundle) and is drained; every client's
    /// partition lost nothing; sessions are serializable.
    pub fn check(&mut self) {
        if self.sc.kill.is_some() {
            if self.sc.stack.slo {
                let rebuilt = self.engine.noftl(|n| n.stats().pages_rebuilt);
                assert!(rebuilt > 0, "maybe_flush never offered the backend a rebuild step");
            }
            self.drain_rebuild();
        }
        for (c, load) in self.loads.iter().enumerate() {
            let prefix = self.sc.prefix(c);
            self.now = check_partition(self.engine.ops(0), load, &prefix, self.ran, self.now);
        }
        if let Engine::Many(engine, sessions) = &self.engine {
            check_sessions(engine, sessions);
        }
    }

    /// The one crash leg: checkpoint, `sc.crash` more transactions per
    /// client, a barrier — then tear the engine down and rebuild the log
    /// from the medium alone.  Every record since the checkpoint must be
    /// durable, every post-checkpoint commit among them: force-per-commit,
    /// so nothing may ride on a volatile tail.
    pub fn crash(mut self) -> Box<dyn StorageBackend> {
        self.now = self.engine.ops(0).checkpoint(self.now).expect("checkpoint");
        let before = self.engine.ops(0).committed();
        self.drive(self.sc.crash);
        let committed = self.engine.ops(0).committed() - before;
        let (log, ckpt_lsn, start_seq) = self
            .engine
            .wal(|w| (w.records().clone(), w.checkpoint_lsn(), w.recovery_start_seq()));
        let expected: Vec<LogRecord<'_>> =
            log.iter().filter(|(lsn, _)| *lsn >= ckpt_lsn).map(|(_, r)| r).collect();
        let mut medium = self.engine.into_backend();
        let durable = durable_log(medium.as_mut(), start_seq, self.now);
        let recovered: Vec<LogRecord<'_>> = durable.iter().map(|(_, r)| r).collect();
        assert_eq!(
            recovered, expected,
            "a crash must find every record since the checkpoint durable"
        );
        let commits = recovered.iter().filter(|r| matches!(r, LogRecord::Commit { .. })).count();
        assert_eq!(commits as u64, committed, "a committed transaction was lost by the crash");
        medium
    }
}

/// The log recovered from the medium alone, scanning from `start_seq`.
pub fn durable_log(medium: &mut dyn StorageBackend, start_seq: u64, now: SimInstant) -> LogStream {
    let (pages, page_size) = (medium.num_pages(), medium.page_size());
    WalManager::recover_records_from(medium, pages - LOG_PAGES, LOG_PAGES, page_size, start_seq, now)
}

/// Scan a table, retrying the whole pass on an uncorrectable read: every
/// retry redraws the read-error model (the ladder of a real controller), so
/// a transient uncorrectable never fails verification.  Any other error is a
/// genuine bug and panics the case.
pub fn scan_rows(e: &mut dyn EngineOps, table: &str, now: SimInstant) -> (Vec<Vec<u8>>, SimInstant) {
    let mut last = None;
    for _ in 0..8 {
        let mut rows = Vec::new();
        match e.scan(table, now, &mut |_, r| rows.push(r.to_vec())) {
            Ok((_, t)) => return (rows, t),
            Err(err @ FlashError::UncorrectableEcc(_)) => last = Some(err),
            Err(err) => panic!("scan of {table} failed with a non-read fault: {err}"),
        }
    }
    panic!("table {table} unreadable after 8 scan attempts: {last:?}");
}

/// Sum of the little-endian `i64` at byte `at` of every row.
pub fn sum(rows: &[Vec<u8>], at: usize) -> i64 {
    rows.iter()
        .map(|r| i64::from_le_bytes(r[at..at + 8].try_into().expect("8-byte field")))
        .sum()
}

/// Zero committed-data loss on one client's partition (tables under
/// `prefix`): every loaded row is present, every one of the `ran`
/// transactions left its trace, and the money flow balances.
pub fn check_partition(e: &mut dyn EngineOps, load: &Load, prefix: &str, ran: u64, mut now: SimInstant) -> SimInstant {
    let mut rows = |table: &str| {
        let (rows, t) = scan_rows(e, &format!("{prefix}{table}"), now);
        now = t;
        rows
    };
    match load {
        Load::B(w) => {
            let c = w.config();
            let (accounts, tellers) = (rows("account"), rows("teller"));
            let (branches, history) = (rows("branch"), rows("history"));
            assert_eq!(accounts.len() as u64, c.accounts(), "{prefix}account rows lost");
            assert_eq!(tellers.len() as u64, c.tellers(), "{prefix}teller rows lost");
            assert_eq!(branches.len() as u64, c.scale_factor, "{prefix}branch rows lost");
            assert_eq!(history.len() as u64, ran, "{prefix}history rows lost");
            let paid = sum(&history, 24);
            assert_eq!(sum(&accounts, 16), paid, "{prefix}account balances diverged from history");
            assert_eq!(sum(&tellers, 16), paid, "{prefix}teller balances diverged from history");
            assert_eq!(sum(&branches, 8), paid, "{prefix}branch balances diverged from history");
        }
        Load::C(w) => {
            let c = w.config();
            let (warehouses, districts) = (rows("warehouse"), rows("district"));
            let (customers, stock) = (rows("customer"), rows("stock"));
            let (orders, order_lines, history) = (rows("orders"), rows("order_line"), rows("history"));
            let districts_total = c.warehouses * c.districts_per_warehouse;
            assert_eq!(warehouses.len() as u64, c.warehouses, "{prefix}warehouse rows lost");
            assert_eq!(districts.len() as u64, districts_total, "{prefix}district rows lost");
            assert_eq!(
                customers.len() as u64,
                districts_total * c.customers_per_district,
                "{prefix}customer rows lost"
            );
            assert_eq!(stock.len() as u64, c.warehouses * c.items, "{prefix}stock rows lost");
            assert_eq!(w.mix_counts.iter().sum::<u64>(), ran, "{prefix}transactions went missing");
            assert_eq!(
                orders.len() as u64, w.mix_counts[0],
                "{prefix}every committed New-Order must have its order row"
            );
            assert!(
                order_lines.len() >= orders.len() * 5,
                "{prefix}order lines lost: {} lines for {} orders",
                order_lines.len(),
                orders.len()
            );
            assert_eq!(
                history.len() as u64, w.mix_counts[1],
                "{prefix}every committed Payment must have its history row"
            );
            let paid = sum(&history, 8);
            assert_eq!(sum(&warehouses, 8), paid, "{prefix}warehouse YTD diverged from the payment history");
            assert_eq!(sum(&districts, 16), paid, "{prefix}district YTD diverged from the payment history");
        }
    }
    now
}

/// Serializable sessions and exact counter reconciliation: commit streams
/// strictly monotone in transaction id and non-decreasing in time, ids
/// unique across sessions and accounting for every commit the engine
/// reports, per-shard counters summing to the aggregate.
pub fn check_sessions(engine: &ConcurrentEngine, sessions: &[ClientSession]) {
    let mut ids = HashSet::new();
    for (c, s) in sessions.iter().enumerate() {
        assert!(!s.commits().is_empty(), "client {c} committed nothing");
        for w in s.commits().windows(2) {
            assert!(w[1].0 > w[0].0, "client {c}: commit stream not monotone in txn id");
            assert!(w[1].1 >= w[0].1, "client {c}: commit time went backwards");
        }
        for &(txn, _) in s.commits() {
            assert!(ids.insert(txn), "transaction id {txn} collided across clients");
        }
    }
    let commits = ids.len() as u64;
    assert_eq!(
        engine.committed(),
        commits,
        "client commit streams do not account for every committed transaction"
    );
    // Force-per-commit WAL: checkpoints and batch tails add forces, never
    // remove one.
    assert!(engine.log_forces() >= commits, "fewer WAL forces than commits");

    let shards = engine.shard_buffer_stats();
    assert_eq!(shards.len(), engine.shard_count());
    let agg = engine.buffer_stats();
    let total = |f: fn(&BufferStats) -> u64| shards.iter().map(f).sum::<u64>();
    assert_eq!(total(|s| s.hits), agg.hits, "shard hit counters do not sum to the aggregate");
    assert_eq!(total(|s| s.misses), agg.misses);
    assert_eq!(total(|s| s.evictions), agg.evictions);
    assert_eq!(total(|s| s.dirty_evictions), agg.dirty_evictions);
    assert_eq!(total(|s| s.flushed_by_writers), agg.flushed_by_writers);
    let occupancy = engine.shard_occupancy();
    assert_eq!(occupancy.iter().map(|&(r, _)| r).sum::<usize>(), engine.resident());
    assert_eq!(occupancy.iter().map(|&(_, d)| d).sum::<usize>(), engine.dirty_count());
}

/// The one checker, device side.  Every device-reported failure is
/// recovered by exactly one DBMS-side action — injected faults never vanish
/// silently.  After a die kill the redundancy and rebuild counters tell the
/// truth about a single-die failure on a fully protected device.
pub fn check_noftl(sc: &Scenario, n: &NoFtl) {
    let (flash, stats) = (n.flash_stats(), n.stats());
    assert_eq!(
        stats.program_fail_retirements, flash.program_failures,
        "every device program failure must be recovered by exactly one retirement"
    );
    assert_eq!(
        stats.erase_fail_retirements, flash.erase_failures,
        "every device erase failure must be recovered by exactly one retirement"
    );
    if flash.uncorrectable_reads > 0 {
        assert!(stats.read_retries > 0, "uncorrectable reads were reported but nothing retried them");
    }
    assert!(stats.read_retry_successes <= stats.read_retries, "retry successes cannot exceed retries");
    assert!(
        stats.retired_blocks >= stats.program_fail_retirements + stats.erase_fail_retirements,
        "the retirement census must cover every fault-driven retirement"
    );
    assert_eq!(
        n.bad_blocks().grown_count() as u64,
        stats.retired_blocks,
        "grown-bad census must match the retirement count"
    );
    if sc.kill.is_none() {
        return;
    }
    match sc.stack.redundancy {
        Some(Parity(_)) => {
            assert!(stats.stripes_sealed > 0, "a parity storm must seal stripes");
            assert!(stats.parity_pages_written >= stats.stripes_sealed, "every sealed stripe has a parity page");
            assert!(stats.stripes_sealed_degraded <= stats.stripes_sealed, "degraded seals are a subset of all seals");
            assert_eq!(stats.stripes_abandoned, 0, "a storm with free space must never abandon a stripe unsealed");
        }
        Some(Mirror) => {
            assert!(stats.mirror_pages_written > 0, "a mirror storm must write copies");
            assert_eq!(stats.mirror_skipped_no_space, 0, "a storm with free space must never skip a mirror copy");
        }
        _ => {}
    }
    assert!(n.any_die_dead(), "the kill must actually have fired");
    assert_eq!(stats.die_failures_detected, 1, "exactly one die failed");
    assert_eq!(stats.pages_lost, 0, "no committed page may be lost on a protected region");
    assert!(stats.pages_rebuilt > 0, "the dead die held mapped pages to re-home");
    assert!(stats.accounted(), "the rebuild walker must account for every page");
    assert!(
        stats.reconstructed_pages >= stats.pages_rebuilt,
        "every rebuilt page was reconstructed from redundancy"
    );
}

//! The benchmark drivers.
//!
//! * [`BenchmarkDriver`] interleaves logical clients on the virtual clock of
//!   one single-threaded engine and reports transactional throughput (TPS)
//!   and response times — the numbers shown on the paper's Figure 4 axes.
//! * [`MultiClientDriver`] runs N clients as separate [`ClientSession`]s of
//!   one shared [`ConcurrentEngine`] (the multi-client path), each with
//!   its own workload instance over a disjoint data partition, stepped on
//!   the one virtual clock.
//! * [`OpenLoopDriver`] offers requests at a configured *arrival rate*
//!   (Poisson or fixed-interval on the virtual clock) instead of waiting for
//!   the previous response: when the engine falls behind, requests queue and
//!   every latency sample includes the queueing delay — the regime where an
//!   engine without back-pressure shows an unbounded p999 and the
//!   `NOFTL_SLO` admission/scheduling bundle has to degrade gracefully.

use nand_flash::FlashResult;
use sim_utils::dist::{NuRand, Zipf};
use sim_utils::histogram::Histogram;
use sim_utils::rng::SimRng;
use sim_utils::time::SimInstant;
use storage_engine::{
    AdmissionStats, ClientSession, ConcurrentEngine, EngineError, EngineOps, StorageEngine, TxnId,
};

use crate::rid_codec::u64_to_rid;
use crate::workload::{TxnKind, Workload};

/// Driver configuration.
#[derive(Debug, Clone, Copy)]
pub struct DriverConfig {
    /// Number of logical clients ("read processes" in the paper's Figure 4
    /// captions) interleaved by the driver.
    pub clients: usize,
    /// Number of transactions to execute in the measured phase.
    pub transactions: u64,
    /// Number of warm-up transactions executed (and discarded) first.
    pub warmup_transactions: u64,
    /// When `true`, a background flush cycle stalls *every* client until it
    /// completes — the memory-pressure regime of the paper's experiments,
    /// where the buffer pool is far smaller than the database and foreground
    /// threads block on frame allocation whenever the db-writers fall behind.
    /// When `false`, only the client whose commit triggered the cycle pays
    /// for it.
    pub stall_all_on_flush: bool,
}

impl DriverConfig {
    /// `clients` clients, `transactions` measured transactions, 10 % warm-up.
    pub fn new(clients: usize, transactions: u64) -> Self {
        Self {
            clients: clients.max(1),
            transactions,
            warmup_transactions: transactions / 10,
            stall_all_on_flush: false,
        }
    }

    /// Same, but with flush cycles stalling all clients (write-heavy,
    /// buffer-constrained experiments such as Figure 4).
    pub fn write_pressure(clients: usize, transactions: u64) -> Self {
        Self {
            stall_all_on_flush: true,
            ..Self::new(clients, transactions)
        }
    }
}

/// Result of a driver run.
#[derive(Debug, Clone)]
pub struct DriverReport {
    /// Workload name.
    pub workload: String,
    /// Storage stack name.
    pub backend: String,
    /// Transactions committed in the measured phase.
    pub transactions: u64,
    /// Virtual duration of the measured phase (ns).
    pub duration_ns: u64,
    /// Transactions per (virtual) second.
    pub tps: f64,
    /// Response-time histogram (ns).
    pub response_time: Histogram,
    /// Read-only transactions among the measured ones.
    pub read_only: u64,
}

impl DriverReport {
    /// Mean response time in milliseconds.
    pub fn mean_response_ms(&self) -> f64 {
        self.response_time.mean() / 1e6
    }
}

/// The benchmark driver.
pub struct BenchmarkDriver {
    config: DriverConfig,
}

impl BenchmarkDriver {
    /// Create a driver.
    pub fn new(config: DriverConfig) -> Self {
        Self { config }
    }

    /// Run `workload` against `engine` (which must already be set up) and
    /// report TPS over the measured phase.
    ///
    /// Clients are interleaved: on every step the driver picks the client
    /// whose virtual clock is furthest behind, runs one transaction on its
    /// timeline, then lets the background flushers run if the dirty watermark
    /// was crossed.  This keeps all client timelines close together (bounded
    /// drift), which is what makes per-die queueing contention meaningful.
    pub fn run(
        &self,
        engine: &mut StorageEngine,
        workload: &mut dyn Workload,
        start: SimInstant,
    ) -> FlashResult<DriverReport> {
        let clients = self.config.clients;
        let mut client_time = vec![start; clients];

        // Warm-up phase (not measured).
        for _ in 0..self.config.warmup_transactions {
            let client = Self::laggard(&client_time);
            let now = client_time[client];
            let (end, _) = workload.run_transaction(engine, client, now)?;
            client_time[client] = end;
            let flush_end = engine.maybe_flush(end)?;
            if flush_end > end {
                Self::charge_flush(&mut client_time, client, flush_end, self.config.stall_all_on_flush);
            }
        }

        let measure_start = *client_time.iter().max().expect("at least one client");
        for t in client_time.iter_mut() {
            *t = (*t).max(measure_start);
        }

        let mut response_time = Histogram::new();
        let mut read_only = 0u64;
        for _ in 0..self.config.transactions {
            let client = Self::laggard(&client_time);
            let now = client_time[client];
            let (end, kind) = workload.run_transaction(engine, client, now)?;
            response_time.record(end.saturating_sub(now));
            if kind == TxnKind::ReadOnly {
                read_only += 1;
            }
            client_time[client] = end;
            // Background db-writers run when the dirty watermark is crossed;
            // under write pressure they stall every client (no clean frames),
            // otherwise only the triggering client pays.
            let flush_end = engine.maybe_flush(end)?;
            if flush_end > end {
                Self::charge_flush(&mut client_time, client, flush_end, self.config.stall_all_on_flush);
            }
        }

        let measure_end = *client_time.iter().max().expect("at least one client");
        let duration_ns = measure_end.saturating_sub(measure_start).max(1);
        let tps = self.config.transactions as f64 / (duration_ns as f64 / 1e9);
        Ok(DriverReport {
            workload: workload.name().to_string(),
            backend: engine.backend_name(),
            transactions: self.config.transactions,
            duration_ns,
            tps,
            response_time,
            read_only,
        })
    }

    fn charge_flush(
        times: &mut [SimInstant],
        triggering_client: usize,
        flush_end: SimInstant,
        stall_all: bool,
    ) {
        if stall_all {
            for t in times.iter_mut() {
                *t = (*t).max(flush_end);
            }
        } else {
            times[triggering_client] = times[triggering_client].max(flush_end);
        }
    }

    fn laggard(times: &[SimInstant]) -> usize {
        times
            .iter()
            .enumerate()
            .min_by_key(|(_, &t)| t)
            .map(|(i, _)| i)
            .expect("non-empty client list")
    }
}

/// [`MultiClientDriver`] configuration.
#[derive(Debug, Clone, Copy)]
pub struct MultiClientConfig {
    /// Measured transactions per client.
    pub transactions_per_client: u64,
    /// Warm-up transactions per client (run, not measured).
    pub warmup_per_client: u64,
}

impl MultiClientConfig {
    /// `per_client` measured transactions per client, 10 % warm-up.
    pub fn new(per_client: u64) -> Self {
        Self {
            transactions_per_client: per_client,
            warmup_per_client: per_client / 10,
        }
    }
}

/// One client's slice of a [`MultiClientReport`].
#[derive(Debug, Clone)]
pub struct ClientRun {
    /// Client index.
    pub client: usize,
    /// Workload name.
    pub workload: String,
    /// Measured transactions this client committed.
    pub transactions: u64,
    /// Virtual time the measured phase started for this client.
    pub start: SimInstant,
    /// Virtual time of this client's last commit.
    pub end: SimInstant,
    /// The client's full commit stream `(txn id, commit time)` in commit
    /// order — including setup and warm-up commits.  What the concurrency
    /// harness asserts serializable per-client prefixes and crash-recovery
    /// durability over.
    pub commits: Vec<(TxnId, SimInstant)>,
}

/// Result of a [`MultiClientDriver`] run.
#[derive(Debug, Clone)]
pub struct MultiClientReport {
    /// Per-client results, indexed by client.
    pub clients: Vec<ClientRun>,
    /// Total measured transactions across clients.
    pub transactions: u64,
    /// Virtual duration from measure start to the last client's end (ns).
    pub duration_ns: u64,
    /// Aggregate transactions per virtual second across all clients.
    pub aggregate_tps: f64,
}

/// The multi-client driver: N workloads over N sessions of one shared
/// [`ConcurrentEngine`].
///
/// Each client owns a workload instance (over a disjoint table-name
/// partition — construct them via `TpcB::with_prefix` / `TpcC::with_prefix`)
/// and a [`ClientSession`].  Setup runs sequentially on the virtual clock;
/// the measured phase steps the furthest-behind client each time (bounded
/// drift), so the same seeds give the same schedule and the same report.
pub struct MultiClientDriver {
    config: MultiClientConfig,
}

/// A workload a [`MultiClientDriver`] client owns.
pub type ClientWorkload = Box<dyn Workload<ClientSession>>;

impl MultiClientDriver {
    /// Create a driver.
    pub fn new(config: MultiClientConfig) -> Self {
        Self { config }
    }

    /// Set up every workload (sequentially, chaining the virtual clock) and
    /// run the measured phase.  `workloads[i]` becomes client `i`.
    pub fn run(
        &self,
        engine: &ConcurrentEngine,
        mut workloads: Vec<ClientWorkload>,
        start: SimInstant,
    ) -> FlashResult<MultiClientReport> {
        assert!(!workloads.is_empty(), "at least one client workload");
        let mut sessions: Vec<ClientSession> =
            (0..workloads.len()).map(|_| engine.session()).collect();
        let mut t = start;
        for (w, s) in workloads.iter_mut().zip(sessions.iter_mut()) {
            t = w.setup(s, t)?;
        }
        let n = workloads.len();
        let mut time = vec![t; n];
        for _ in 0..self.config.warmup_per_client * n as u64 {
            let c = BenchmarkDriver::laggard(&time);
            let (end, _) = workloads[c].run_transaction(&mut sessions[c], c, time[c])?;
            time[c] = sessions[c].maybe_flush(end)?.max(end);
        }
        let measure_start = *time.iter().max().expect("clients");
        for t in time.iter_mut() {
            *t = (*t).max(measure_start);
        }
        let mut done = vec![0u64; n];
        while done.iter().any(|&d| d < self.config.transactions_per_client) {
            // Laggard stepping among clients that still have work.
            let c = time
                .iter()
                .enumerate()
                .filter(|(i, _)| done[*i] < self.config.transactions_per_client)
                .min_by_key(|(_, &t)| t)
                .map(|(i, _)| i)
                .expect("unfinished client");
            let (end, _) = workloads[c].run_transaction(&mut sessions[c], c, time[c])?;
            time[c] = sessions[c].maybe_flush(end)?.max(end);
            done[c] += 1;
        }
        let clients = workloads
            .iter()
            .zip(sessions.iter())
            .enumerate()
            .map(|(i, (w, s))| ClientRun {
                client: i,
                workload: Workload::<ClientSession>::name(&**w).to_string(),
                transactions: self.config.transactions_per_client,
                start: measure_start,
                end: time[i],
                commits: s.commits().to_vec(),
            })
            .collect();
        Ok(self.report(clients, measure_start))
    }

    fn report(&self, clients: Vec<ClientRun>, measure_start: SimInstant) -> MultiClientReport {
        let transactions: u64 = clients.iter().map(|c| c.transactions).sum();
        let measure_end = clients
            .iter()
            .map(|c| c.end)
            .max()
            .expect("at least one client");
        let duration_ns = measure_end.saturating_sub(measure_start).max(1);
        let aggregate_tps = transactions as f64 / (duration_ns as f64 / 1e9);
        MultiClientReport {
            clients,
            transactions,
            duration_ns,
            aggregate_tps,
        }
    }
}

/// The arrival process of an [`OpenLoopDriver`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Arrivals {
    /// One request every `interval_ns` virtual nanoseconds.
    Fixed {
        /// Inter-arrival gap (ns).
        interval_ns: u64,
    },
    /// Exponential inter-arrival gaps with the given mean (a Poisson process
    /// on the virtual clock), sampled deterministically from the driver's
    /// seeded RNG.
    Poisson {
        /// Mean inter-arrival gap (ns).
        mean_interarrival_ns: u64,
    },
}

impl Arrivals {
    fn next_gap(&self, rng: &mut SimRng) -> u64 {
        match *self {
            Arrivals::Fixed { interval_ns } => interval_ns.max(1),
            Arrivals::Poisson {
                mean_interarrival_ns,
            } => {
                // Inverse-CDF of the exponential; clamp the uniform away
                // from 0 so ln() stays finite.
                let u = rng.next_f64().max(1e-12);
                ((-(u.ln())) * mean_interarrival_ns as f64).round().max(1.0) as u64
            }
        }
    }

    /// Mean inter-arrival gap (ns) — the offered rate is `1e9 / mean`.
    pub fn mean_interarrival_ns(&self) -> u64 {
        match *self {
            Arrivals::Fixed { interval_ns } => interval_ns.max(1),
            Arrivals::Poisson {
                mean_interarrival_ns,
            } => mean_interarrival_ns.max(1),
        }
    }
}

/// [`OpenLoopDriver`] configuration.
#[derive(Debug, Clone, Copy)]
pub struct OpenLoopConfig {
    /// Measured requests.
    pub requests: u64,
    /// Warm-up requests offered (and served) before measurement starts.
    pub warmup: u64,
    /// The arrival process.
    pub arrivals: Arrivals,
    /// Logical key domain the Zipfian skew runs over (typically millions —
    /// requests fold a logical key onto the loaded rows, so hot logical keys
    /// stay hot without materialising the whole domain).
    pub logical_keys: u64,
    /// Physical rows loaded at setup.
    pub rows: u64,
    /// Payload bytes per row.
    pub row_bytes: usize,
    /// Zipfian skew parameter for read keys (0 = uniform; 0.99 = YCSB-like).
    pub zipf_theta: f64,
    /// Every `update_every`-th request is an update transaction (0 = all
    /// reads); the update key comes from a TPC-C-style NURand so the write
    /// working set is skewed but not identical to the read hot set.
    pub update_every: u64,
    /// RNG seed (arrival gaps and key choices).
    pub seed: u64,
    /// Re-offer shed requests after the engine's back-off hint
    /// ([`storage_engine::EngineError::Overloaded`]`::retry_after_ns`): a
    /// shed request is offered again at `shed instant + hint` (at most
    /// [`OpenLoopDriver::MAX_REOFFERS`] times) instead of being dropped.
    /// Off — the default, and the PR 9 behaviour — a shed request fails fast
    /// and is never retried.
    pub retry_shed: bool,
}

impl OpenLoopConfig {
    /// A small default: 2 M logical keys folded onto 2 000 rows of 120 B,
    /// YCSB-like 0.99 skew, 1-in-10 updates, 10 % warm-up.
    pub fn new(requests: u64, arrivals: Arrivals) -> Self {
        Self {
            requests,
            warmup: requests / 10,
            arrivals,
            logical_keys: 2_000_000,
            rows: 2_000,
            row_bytes: 120,
            zipf_theta: 0.99,
            update_every: 10,
            seed: 42,
            retry_shed: false,
        }
    }
}

/// Result of an [`OpenLoopDriver`] run.
#[derive(Debug, Clone)]
pub struct OpenLoopReport {
    /// Storage stack name.
    pub backend: String,
    /// Measured requests offered.
    pub requests: u64,
    /// Measured requests that completed (committed).
    pub completed: u64,
    /// Measured requests shed by admission control
    /// ([`storage_engine::EngineError::Overloaded`]) — with
    /// [`OpenLoopConfig::retry_shed`] on, only requests whose every re-offer
    /// was also shed.
    pub shed: u64,
    /// Whole-run client-side observations, for reconciling against the
    /// engine's [`AdmissionStats`]: `(admitted, delayed, shed)` over *every*
    /// `begin_admitted` call including warm-up and re-offers — so
    /// `observed.0 + observed.2` equals the total offers made.
    pub observed: (u64, u64, u64),
    /// Re-offers of shed requests made after honoring the engine's
    /// `retry_after_ns` back-off hint (0 unless
    /// [`OpenLoopConfig::retry_shed`] is on).
    pub reoffered: u64,
    /// Engine-side admission counters at the end of the run (all zero
    /// without a configured window).
    pub admission: AdmissionStats,
    /// Engine-wide committed transactions at the end of the run (setup and
    /// warm-up included) — the durability ledger the storm tests reconcile.
    pub committed: u64,
    /// Request latency (ns), arrival to commit — queueing delay included.
    pub latency: Histogram,
    /// Latency of read requests only.
    pub read_latency: Histogram,
    /// Latency of update requests only.
    pub update_latency: Histogram,
    /// Virtual duration of the measured phase (ns).
    pub duration_ns: u64,
    /// Offered request rate (per virtual second) — a property of the
    /// arrival process (`1e9 / mean gap`), independent of whether the
    /// engine kept up.
    pub offered_tps: f64,
    /// Completed request rate (per virtual second).
    pub completed_tps: f64,
}

impl OpenLoopReport {
    /// p50/p99/p999 of the overall latency histogram (ns).
    pub fn latency_percentiles(&self) -> (u64, u64, u64) {
        let p = self.latency.percentiles(&[0.5, 0.99, 0.999]);
        (p[0], p[1], p[2])
    }
}

/// The open-loop driver: requests arrive on their own clock, not the
/// engine's.
///
/// Each request is scheduled at a virtual arrival instant produced by the
/// [`Arrivals`] process and assigned round-robin to one of the driven
/// sessions.  A request first passes through [`EngineOps::begin_admitted`]
/// **at its arrival instant** — the engine probes its in-flight state as of
/// that instant, so the WAL groups of queued-ahead work count as admission
/// pressure, and a request whose pressure cannot clear within the deadline
/// is shed before it ever queues.  An admitted request is then served in
/// arrival order: it begins at `max(admitted-at, session-free)`, runs one
/// transaction, and the session is busy until the commit (plus any
/// triggered flush) completes.  Latency is measured **from the scheduled
/// arrival**, so time spent queued behind a busy session — exactly what a
/// closed-loop driver can never observe — lands in the histogram.
pub struct OpenLoopDriver {
    config: OpenLoopConfig,
}

impl OpenLoopDriver {
    /// Table name the driver loads.
    pub const TABLE: &'static str = "ol";
    /// Primary-key index name.
    pub const INDEX: &'static str = "ol_pk";
    /// Bound on re-offers of one shed request under
    /// [`OpenLoopConfig::retry_shed`] — an open-loop client gives up after
    /// this many backed-off retries rather than retrying forever into a
    /// saturated engine.
    pub const MAX_REOFFERS: u32 = 3;

    /// Create a driver.
    pub fn new(config: OpenLoopConfig) -> Self {
        Self { config }
    }

    /// Load the table and its primary-key index (plain `begin`: setup is not
    /// subject to admission control).  Returns the virtual time after setup.
    pub fn setup<E: EngineOps>(&self, engine: &mut E, now: SimInstant) -> FlashResult<SimInstant> {
        engine.create_table(Self::TABLE);
        engine.create_index(Self::INDEX, now)?;
        let mut t = now;
        let mut row = vec![0u8; self.config.row_bytes.max(16)];
        let mut loaded = 0u64;
        while loaded < self.config.rows {
            let txn = engine.begin();
            for _ in 0..128 {
                if loaded >= self.config.rows {
                    break;
                }
                row[..8].copy_from_slice(&loaded.to_le_bytes());
                let (rid, t2) = engine
                    .insert(Self::TABLE, txn, t, &row)
                    .map_err(nand_flash::FlashError::from)?;
                let (_, t3) =
                    engine.index_insert(Self::INDEX, t2, loaded, crate::rid_codec::rid_to_u64(rid))?;
                t = t3;
                loaded += 1;
            }
            t = engine.commit(txn, t)?;
            t = engine.maybe_flush(t)?.max(t);
        }
        Ok(t)
    }

    /// Offer `warmup + requests` requests to `sessions` (round-robin) and
    /// report measured-phase latency.  All sessions must share one engine
    /// (or be one single-threaded engine in a 1-slice).
    pub fn run(
        &self,
        sessions: &mut [&mut dyn EngineOps],
        start: SimInstant,
    ) -> FlashResult<OpenLoopReport> {
        assert!(!sessions.is_empty(), "at least one session");
        let cfg = self.config;
        let mut rng = SimRng::new(cfg.seed);
        let zipf = Zipf::new(cfg.logical_keys.max(1), cfg.zipf_theta);
        let nurand = NuRand::customer_id(cfg.seed);
        let n = sessions.len();
        let mut session_free = vec![start; n];
        // The one row buffer every request reads into (and updates from).
        let mut row = Vec::new();
        let mut arrival = start;
        let mut observed = (0u64, 0u64, 0u64); // (admitted, delayed, shed)
        let mut latency = Histogram::new();
        let mut read_latency = Histogram::new();
        let mut update_latency = Histogram::new();
        let mut completed = 0u64;
        let mut shed = 0u64;
        let mut reoffered = 0u64;
        let mut measure_start = start;
        let mut measure_end = start;
        let total = cfg.warmup + cfg.requests;
        for i in 0..total {
            arrival += cfg.arrivals.next_gap(&mut rng);
            if i == cfg.warmup {
                measure_start = arrival;
            }
            let measured = i >= cfg.warmup;
            let s = (i as usize) % n;
            let is_update = cfg.update_every > 0 && i % cfg.update_every == 0;
            // Admission runs at the request's *arrival* instant, before it
            // joins the session queue: the engine probes its in-flight state
            // as of that instant, so WAL groups still uncommitted at arrival
            // — the backlog of queued-ahead work — are visible pressure, not
            // invisible client-side queueing.
            let session = &mut *sessions[s];
            let mut offer_at = arrival;
            let mut reoffers = 0u32;
            let admitted = loop {
                match session.begin_admitted(offer_at) {
                    Ok(ok) => {
                        observed.0 += 1;
                        if ok.1 > offer_at {
                            observed.1 += 1;
                        }
                        break Some(ok);
                    }
                    Err(EngineError::Overloaded { retry_after_ns, .. }) => {
                        observed.2 += 1;
                        if cfg.retry_shed && reoffers < Self::MAX_REOFFERS {
                            // Honor the engine's back-off hint: re-offer at
                            // the earliest instant a retry could clear the
                            // admission deadline (never the same instant —
                            // the horizon has not moved).
                            offer_at += retry_after_ns.max(1);
                            reoffers += 1;
                            reoffered += 1;
                            continue;
                        }
                        break None;
                    }
                    Err(other) => return Err(other.into()),
                }
            };
            let Some((txn, admitted_at)) = admitted else {
                if measured {
                    shed += 1;
                }
                // A shed request leaves the session free at the shed
                // decision; the client sees a fast typed error (after its
                // bounded back-off retries, when those are on).
                continue;
            };
            let key = if is_update {
                nurand.sample(&mut rng) % cfg.rows.max(1)
            } else {
                zipf.sample(&mut rng) % cfg.rows.max(1)
            };
            // The session serves in arrival order: an admitted request still
            // waits for the previous one's commit (open-loop queueing delay).
            let begin_at = admitted_at.max(session_free[s]);
            let (slot, t) = session.index_get(Self::INDEX, begin_at, key)?;
            let mut t = t;
            if let Some(packed) = slot {
                let rid = u64_to_rid(packed);
                let (found, t2) = session
                    .read_into(Self::TABLE, t, rid, &mut row)
                    .map_err(nand_flash::FlashError::from)?;
                t = t2;
                if is_update {
                    if !found {
                        row.resize(cfg.row_bytes.max(16), 0);
                    }
                    row[8..16].copy_from_slice(&i.to_le_bytes());
                    let (_, t3) = session
                        .update(Self::TABLE, txn, t, rid, &row)
                        .map_err(nand_flash::FlashError::from)?;
                    t = t3;
                }
            }
            let t = session.commit(txn, t)?;
            let end = session.maybe_flush(t)?.max(t);
            session_free[s] = end;
            measure_end = measure_end.max(end);
            if measured {
                completed += 1;
                let sample = end.saturating_sub(arrival);
                latency.record(sample);
                if is_update {
                    update_latency.record(sample);
                } else {
                    read_latency.record(sample);
                }
            }
        }
        let duration_ns = measure_end.saturating_sub(measure_start).max(1);
        let secs = duration_ns as f64 / 1e9;
        Ok(OpenLoopReport {
            backend: sessions[0].backend_name(),
            requests: cfg.requests,
            completed,
            shed,
            observed,
            reoffered,
            admission: sessions[0].admission_stats(),
            committed: sessions[0].committed(),
            latency,
            read_latency,
            update_latency,
            duration_ns,
            offered_tps: 1e9 / cfg.arrivals.mean_interarrival_ns() as f64,
            completed_tps: completed as f64 / secs,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tpcb::{TpcB, TpcBConfig};
    use storage_engine::{backend::MemBackend, EngineConfig, StorageEngine};

    fn engine() -> StorageEngine {
        let mut cfg = EngineConfig::new();
        cfg.buffer_frames = 256;
        StorageEngine::new(Box::new(MemBackend::new(4096, 16_384)), cfg)
    }

    fn tiny_tpcb() -> TpcB {
        TpcB::new(TpcBConfig {
            scale_factor: 2,
            tellers_per_branch: 5,
            accounts_per_branch: 50,
            seed: 3,
        })
    }

    #[test]
    fn driver_reports_tps_on_mem_backend() {
        let mut e = engine();
        let mut w = tiny_tpcb();
        let start = w.setup(&mut e, 0).unwrap();
        let driver = BenchmarkDriver::new(DriverConfig::new(4, 100));
        let report = driver.run(&mut e, &mut w, start).unwrap();
        assert_eq!(report.transactions, 100);
        assert_eq!(report.workload, "tpcb");
        assert_eq!(report.backend, "mem");
        assert!(report.tps > 0.0);
        assert_eq!(report.response_time.count(), 100);
    }

    #[test]
    fn laggard_selects_minimum() {
        assert_eq!(BenchmarkDriver::laggard(&[5, 2, 9]), 1);
        assert_eq!(BenchmarkDriver::laggard(&[1]), 0);
    }

    #[test]
    fn client_count_must_be_at_least_one() {
        let cfg = DriverConfig::new(0, 10);
        assert_eq!(cfg.clients, 1);
    }

    fn concurrent_engine(shards: usize) -> ConcurrentEngine {
        let mut cfg = EngineConfig::new();
        cfg.buffer_frames = 256;
        ConcurrentEngine::new(Box::new(MemBackend::new(4096, 16_384)), cfg, shards)
    }

    fn client_workloads(n: usize) -> Vec<ClientWorkload> {
        (0..n)
            .map(|i| {
                Box::new(TpcB::with_prefix(
                    TpcBConfig {
                        scale_factor: 1,
                        tellers_per_branch: 3,
                        accounts_per_branch: 30,
                        seed: 7 + i as u64,
                    },
                    format!("c{i}_"),
                )) as ClientWorkload
            })
            .collect()
    }

    fn open_noftl_engine() -> StorageEngine {
        use noftl_core::{NoFtl, NoFtlConfig};
        use storage_engine::backend::NoFtlBackend;
        let noftl = NoFtl::new(NoFtlConfig::new(nand_flash::FlashGeometry::small()));
        let mut cfg = EngineConfig::new();
        cfg.buffer_frames = 64;
        StorageEngine::new(Box::new(NoFtlBackend::new(noftl)), cfg)
    }

    fn small_open_loop(requests: u64, arrivals: Arrivals) -> OpenLoopConfig {
        OpenLoopConfig {
            rows: 300,
            row_bytes: 64,
            ..OpenLoopConfig::new(requests, arrivals)
        }
    }

    #[test]
    fn open_loop_accounts_for_every_request() {
        let mut e = engine();
        let driver = OpenLoopDriver::new(small_open_loop(
            200,
            Arrivals::Poisson {
                mean_interarrival_ns: 10_000,
            },
        ));
        let start = driver.setup(&mut e, 0).unwrap();
        let report = driver.run(&mut [&mut e], start).unwrap();
        assert_eq!(report.requests, 200);
        assert_eq!(report.completed, 200, "no admission window: nothing shed");
        assert_eq!(report.shed, 0);
        assert_eq!(report.latency.count(), 200);
        assert_eq!(
            report.read_latency.count() + report.update_latency.count(),
            200
        );
        // 220 begin_admitted calls (warm-up included), all admitted through
        // the no-window default path — engine counters stay zero.
        assert_eq!(report.observed.0, 220);
        assert_eq!(report.observed.2, 0);
        assert_eq!(report.admission, AdmissionStats::default());
        assert!(report.offered_tps > 0.0 && report.completed_tps > 0.0);
    }

    #[test]
    fn open_loop_latency_includes_queueing_delay() {
        // Arrivals far faster than NoFTL service: later requests queue
        // behind earlier ones, so tail latency grows far past the service
        // time of any single transaction — the open-loop signature a
        // closed-loop driver cannot produce.
        let mut e = open_noftl_engine();
        let driver = OpenLoopDriver::new(small_open_loop(300, Arrivals::Fixed { interval_ns: 100 }));
        let start = driver.setup(&mut e, 0).unwrap();
        let report = driver.run(&mut [&mut e], start).unwrap();
        assert_eq!(report.completed, 300);
        let (p50, _, p999) = report.latency_percentiles();
        assert!(p50 <= p999);
        // With a 100 ns inter-arrival gap and microsecond-scale service the
        // queue only ever grows: even the *fastest* measured sample carries
        // the backlog built during warm-up (thousands of gaps deep), and the
        // tail keeps growing past it.
        assert!(
            report.latency.min() > 100 * 1000,
            "min latency {} carries no queueing backlog",
            report.latency.min()
        );
        assert!(
            p999 > 2 * report.latency.min(),
            "p999 {p999} shows no queue growth over min {}",
            report.latency.min()
        );
        assert!(report.offered_tps > report.completed_tps);
    }

    #[test]
    fn open_loop_run_is_deterministic() {
        let run = || {
            let mut e = engine();
            let driver = OpenLoopDriver::new(small_open_loop(
                150,
                Arrivals::Poisson {
                    mean_interarrival_ns: 5_000,
                },
            ));
            let start = driver.setup(&mut e, 0).unwrap();
            driver.run(&mut [&mut e], start).unwrap()
        };
        let (a, b) = (run(), run());
        assert_eq!(a.duration_ns, b.duration_ns);
        assert_eq!(a.latency_percentiles(), b.latency_percentiles());
        assert_eq!(a.observed, b.observed);
    }

    #[test]
    fn open_loop_sheds_reconcile_with_engine_counters() {
        use storage_engine::AdmissionConfig;
        let mut e = open_noftl_engine();
        let mut olcfg = small_open_loop(300, Arrivals::Fixed { interval_ns: 100 });
        olcfg.update_every = 1; // all updates: dirty pressure builds fast
        let driver = OpenLoopDriver::new(olcfg);
        let start = driver.setup(&mut e, 0).unwrap();
        let setup_commits = e.committed();
        e.set_admission(Some(AdmissionConfig {
            max_inflight_groups: usize::MAX,
            dirty_high_watermark: 0.05,
            deadline_ns: 1,
        }));
        let report = driver.run(&mut [&mut e], start).unwrap();
        assert!(report.shed > 0, "overload fixture must shed");
        let (admitted, _, shed) = report.observed;
        assert_eq!(report.admission.admitted, admitted);
        assert_eq!(report.admission.shed, shed);
        assert_eq!(report.reoffered, 0, "retries are opt-in");
        assert_eq!(
            admitted + shed,
            330,
            "every arrival lands in exactly one bucket"
        );
        // Zero committed-transaction loss: every admitted request committed.
        assert_eq!(report.committed, setup_commits + admitted);
        assert_eq!(report.completed + report.shed, report.requests);
    }

    #[test]
    fn open_loop_reoffers_shed_requests_on_the_backoff_hint() {
        use storage_engine::AdmissionConfig;
        let mut e = open_noftl_engine();
        let mut olcfg = small_open_loop(300, Arrivals::Fixed { interval_ns: 100 });
        olcfg.update_every = 1;
        olcfg.retry_shed = true;
        let driver = OpenLoopDriver::new(olcfg);
        let start = driver.setup(&mut e, 0).unwrap();
        let setup_commits = e.committed();
        e.set_admission(Some(AdmissionConfig {
            max_inflight_groups: usize::MAX,
            dirty_high_watermark: 0.05,
            deadline_ns: 1,
        }));
        let report = driver.run(&mut [&mut e], start).unwrap();
        assert!(report.reoffered > 0, "a shedding run must exercise re-offers");
        let (admitted, _, shed) = report.observed;
        // The reconciliation still holds offer for offer: every offer —
        // 330 arrivals plus every re-offer — is admitted or shed, and the
        // engine's counters agree with the client's observations exactly.
        assert_eq!(admitted + shed, 330 + report.reoffered);
        assert_eq!(report.admission.admitted, admitted);
        assert_eq!(report.admission.shed, shed);
        // Zero committed-transaction loss, retries included.
        assert_eq!(report.committed, setup_commits + admitted);
        assert_eq!(report.completed + report.shed, report.requests);
        // The backed-off retries rescue at least one request a fail-fast
        // client would have dropped.
        let mut fail_fast_cfg = small_open_loop(300, Arrivals::Fixed { interval_ns: 100 });
        fail_fast_cfg.update_every = 1;
        let fail_fast = OpenLoopDriver::new(fail_fast_cfg);
        let mut e2 = open_noftl_engine();
        let start2 = fail_fast.setup(&mut e2, 0).unwrap();
        e2.set_admission(Some(AdmissionConfig {
            max_inflight_groups: usize::MAX,
            dirty_high_watermark: 0.05,
            deadline_ns: 1,
        }));
        let base = fail_fast.run(&mut [&mut e2], start2).unwrap();
        assert!(
            report.completed >= base.completed,
            "honoring the hint must not complete fewer requests ({} vs {})",
            report.completed,
            base.completed
        );
    }

    #[test]
    fn multi_client_deterministic_run_reports_per_client_streams() {
        let e = concurrent_engine(4);
        let driver = MultiClientDriver::new(MultiClientConfig::new(20));
        let report = driver.run(&e, client_workloads(4), 0).unwrap();
        assert_eq!(report.clients.len(), 4);
        assert_eq!(report.transactions, 80);
        assert!(report.aggregate_tps > 0.0);
        for c in &report.clients {
            assert_eq!(c.transactions, 20);
            // At least setup (1) + measured (20) commits, strictly ordered
            // per client (warmup distribution depends on the backend's
            // virtual latencies).
            assert!(c.commits.len() >= 21);
            for w in c.commits.windows(2) {
                assert!(w[0].0 < w[1].0);
                assert!(w[0].1 <= w[1].1);
            }
        }
        // Nothing lost: setups (4) + warmups (4 × 2) + measured (80).
        let total: usize = report.clients.iter().map(|c| c.commits.len()).sum();
        assert_eq!(total, 92);
    }

    #[test]
    fn multi_client_deterministic_run_is_reproducible() {
        let run = || {
            let e = concurrent_engine(2);
            MultiClientDriver::new(MultiClientConfig::new(15))
                .run(&e, client_workloads(2), 0)
                .unwrap()
        };
        let (a, b) = (run(), run());
        assert_eq!(a.duration_ns, b.duration_ns);
        assert_eq!(a.aggregate_tps, b.aggregate_tps);
        for (x, y) in a.clients.iter().zip(&b.clients) {
            assert_eq!(x.commits, y.commits, "same seeds must give same streams");
        }
    }
}

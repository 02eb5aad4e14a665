//! SLO overload experiment (PR 9): graceful degradation under open-loop
//! arrival pressure.
//!
//! A closed-loop driver can never offer more work than the engine absorbs —
//! each client waits for its own commit — so the latency cliff the paper's
//! motivation describes (average 0.45 ms writes with 80 ms outliers under
//! background GC) is invisible to it.  This experiment drives the engine
//! with [`OpenLoopDriver`]: requests arrive on their own virtual clock at a
//! configured rate, queue behind busy sessions, and their latency is
//! measured **from the scheduled arrival**.  When the offered rate exceeds
//! the service rate the queue — and therefore the tail latency — grows
//! without bound.
//!
//! The sweep compares two engines at each arrival rate:
//!
//! * **SLO off** — the historical engine: every request is admitted, the
//!   queue absorbs the excess, and p999 diverges linearly with run length.
//! * **SLO on** — the `StackConfig::slo` bundle's commit-admission window
//!   ([`AdmissionConfig`]) sheds requests whose pressure-clear horizon
//!   exceeds the deadline (a fast, typed [`EngineError::Overloaded`] the
//!   client can retry).  The engine serves at its capacity, sheds the rest
//!   truthfully, and the latency of what it *does* complete stays bounded.
//!   The window has a price at low load: at 500 offered TPS and one client
//!   the on leg's p99 is 1.704 ms against the off leg's 0.508 ms.  The
//!   bundle's other parts act only after a die failure, and none happens
//!   here.
//!
//! [`EngineError::Overloaded`]: storage_engine::EngineError::Overloaded
//!
//! Everything runs on the virtual clock with seeded randomness and explicit
//! configuration, so every sweep point is bit-identical across runs.

use nand_flash::FlashResult;
use noftl_core::{NoFtl, NoFtlConfig};
use storage_engine::backend::NoFtlBackend;
use storage_engine::{
    AdmissionConfig, ClientSession, ConcurrentEngine, EngineConfig, EngineOps, FlusherConfig,
};
use workloads::{Arrivals, OpenLoopConfig, OpenLoopDriver, OpenLoopReport};

use crate::setup::geometry_for_pages;

/// Dies in the overload device.
const DIES: u32 = 4;
/// Per-die asynchronous queue depth.
const DEPTH: usize = 8;

/// The admission policy the SLO leg runs.  The engine's WAL is synchronous
/// here (depth-1 submissions), so its in-flight window retains exactly the
/// latest force — a group window of 1 therefore means "admit only once the
/// engine has durably caught up past your arrival", which is the honest
/// backlog signal for a fully synchronous engine.  The dirty watermark
/// engages *below* the flusher's own (0.5) so commit admission sees dirty
/// pressure before a wave clears it, and the deadline is an operator-chosen
/// response-time budget — a request whose pressure cannot clear within 2 ms
/// of its arrival is shed instead of queued.
pub fn slo_admission() -> AdmissionConfig {
    AdmissionConfig {
        max_inflight_groups: 1,
        dirty_high_watermark: 0.25,
        deadline_ns: 2_000_000,
    }
}

fn overload_backend() -> NoFtlBackend {
    let geometry = geometry_for_pages(2_048, 0.55, DIES);
    let mut ncfg = NoFtlConfig::new(geometry);
    ncfg.async_queue_depth = DEPTH;
    NoFtlBackend::new(NoFtl::new(ncfg))
}

fn overload_engine_config(slo: bool) -> EngineConfig {
    let mut cfg = EngineConfig::new();
    // A pool a little above the working set (~70 data pages + index), so the
    // measured phase is write-bound on the WAL/flush path, not read-thrashed.
    cfg.buffer_frames = 128;
    cfg.log_pages = 256;
    // Depth-1 db-writers: a flush wave is synchronous on the virtual clock,
    // so the pressure-clear horizon admission control computes when it
    // relieves dirty pressure is a *real* future instant — exactly the
    // legacy write-back model whose stalls the admission deadline bounds.
    cfg.flushers = FlusherConfig::die_wise(DIES as usize);
    cfg.readahead_window = 0;
    // Force per commit: each update transaction pays a real device program
    // for its WAL force, which is what makes the offered rates below
    // genuinely exceed the service rate.
    cfg.wal_group_commit = 1;
    cfg.buffer_hit_ns = 2_000;
    cfg.admission = slo.then(slo_admission);
    cfg
}

fn overload_workload(interarrival_ns: u64, requests: u64) -> OpenLoopConfig {
    let mut cfg = OpenLoopConfig::new(
        requests,
        Arrivals::Poisson {
            mean_interarrival_ns: interarrival_ns,
        },
    );
    // Update-heavy: every second request writes, so commit-time WAL forces
    // and dirty-page pressure dominate the service time.
    cfg.update_every = 2;
    cfg.rows = 2_000;
    cfg.row_bytes = 120;
    cfg.seed = 0x510_0AD;
    cfg
}

/// One measured sweep point.
#[derive(Debug, Clone)]
pub struct SloPoint {
    /// Whether the SLO admission window was on.
    pub slo: bool,
    /// Sessions the arrivals were spread over.
    pub clients: usize,
    /// Mean inter-arrival gap of the Poisson arrival process (ns).
    pub interarrival_ns: u64,
    /// Measured requests offered.
    pub requests: u64,
    /// Measured requests that committed.
    pub completed: u64,
    /// Measured requests shed with a typed `Overloaded` error.
    pub shed: u64,
    /// p50 of request latency, arrival to commit (ns).
    pub p50_ns: u64,
    /// p99 of request latency (ns).
    pub p99_ns: u64,
    /// p999 of request latency (ns).
    pub p999_ns: u64,
    /// Offered request rate (per virtual second).
    pub offered_tps: f64,
    /// Completed request rate (per virtual second).
    pub completed_tps: f64,
    /// Engine-side admission counters: begins admitted.
    pub admitted: u64,
    /// Engine-side admission counters: begins that waited for pressure.
    pub delayed: u64,
    /// Engine-side admission counters: begins shed past the deadline.
    pub admission_shed: u64,
    /// Client-side `(admitted, delayed, shed)` observations over the whole
    /// run, reconciled against the engine counters by the acceptance tests.
    pub observed: (u64, u64, u64),
    /// Transactions committed by the engine over the whole run.
    pub committed: u64,
    /// Transactions committed during setup (loading the table).
    pub setup_committed: u64,
}

impl SloPoint {
    fn from_report(
        slo: bool,
        clients: usize,
        interarrival_ns: u64,
        setup_committed: u64,
        r: &OpenLoopReport,
    ) -> Self {
        let (p50_ns, p99_ns, p999_ns) = r.latency_percentiles();
        Self {
            slo,
            clients,
            interarrival_ns,
            requests: r.requests,
            completed: r.completed,
            shed: r.shed,
            p50_ns,
            p99_ns,
            p999_ns,
            offered_tps: r.offered_tps,
            completed_tps: r.completed_tps,
            admitted: r.admission.admitted,
            delayed: r.admission.delayed,
            admission_shed: r.admission.shed,
            observed: r.observed,
            committed: r.committed,
            setup_committed,
        }
    }
}

/// Run one sweep point: `requests` measured open-loop requests at the given
/// mean inter-arrival gap over `clients` sessions, with the SLO policies on
/// or off.
pub fn run_point(
    slo: bool,
    clients: usize,
    interarrival_ns: u64,
    requests: u64,
) -> FlashResult<SloPoint> {
    let driver = OpenLoopDriver::new(overload_workload(interarrival_ns, requests));
    let backend = overload_backend();
    let cfg = overload_engine_config(slo);
    let session_count = clients.max(1);
    let engine = ConcurrentEngine::new(Box::new(backend), cfg, session_count);
    let mut sessions: Vec<ClientSession> = (0..session_count).map(|_| engine.session()).collect();
    let t0 = driver.setup(&mut sessions[0], 0)?;
    let setup_committed = sessions[0].committed();
    let report = driver.run(&mut sessions, t0)?;
    Ok(SloPoint::from_report(
        slo,
        clients,
        interarrival_ns,
        setup_committed,
        &report,
    ))
}

/// Mean inter-arrival gaps (ns) swept, from comfortably under capacity to
/// hard overload.  The middle gap is the divergence point the acceptance
/// tests pin: the off leg's p999 grows with run length there while the on
/// leg holds it bounded.
pub const SWEEP_INTERARRIVALS_NS: [u64; 3] = [2_000_000, 400_000, 150_000];

/// Measured requests per sweep point.
pub const SWEEP_REQUESTS: u64 = 400;

/// Run the full sweep: arrival rate x SLO off/on x {1, 4} clients.
pub fn run_sweep() -> FlashResult<Vec<SloPoint>> {
    let mut points = Vec::new();
    for &gap in &SWEEP_INTERARRIVALS_NS {
        for &slo in &[false, true] {
            for &clients in &[1usize, 4] {
                points.push(run_point(slo, clients, gap, SWEEP_REQUESTS)?);
            }
        }
    }
    Ok(points)
}

/// Render the sweep as an aligned text table.
pub fn render_table(points: &[SloPoint]) -> String {
    let mut out = String::new();
    out.push_str(
        "  slo  clients  offered_tps  completed  shed   p50_ms   p99_ms  p999_ms\n",
    );
    for p in points {
        out.push_str(&format!(
            "  {:<4} {:>7} {:>12.0} {:>10} {:>5} {:>8.3} {:>8.3} {:>8.3}\n",
            if p.slo { "on" } else { "off" },
            p.clients,
            p.offered_tps,
            p.completed,
            p.shed,
            p.p50_ns as f64 / 1e6,
            p.p99_ns as f64 / 1e6,
            p.p999_ns as f64 / 1e6,
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The divergence gap: offered rate well past the write-path capacity.
    const OVERLOAD_GAP_NS: u64 = 150_000;

    /// `(p50_ns, p99_ns, p999_ns, completed, shed, (admitted, delayed,
    /// admission_shed))` of a point, pinned exactly: every point is
    /// deterministic, so any drift is a change to the model.
    fn cells(p: &SloPoint) -> (u64, u64, u64, u64, u64, (u64, u64, u64)) {
        (
            p.p50_ns,
            p.p99_ns,
            p.p999_ns,
            p.completed,
            p.shed,
            (p.admitted, p.delayed, p.admission_shed),
        )
    }

    #[test]
    fn off_leg_p999_diverges_with_run_length() {
        // Open-loop overload with no admission control: the queue grows
        // linearly, so doubling the run roughly doubles the tail.
        let short = run_point(false, 1, OVERLOAD_GAP_NS, 300).unwrap();
        assert_eq!(
            cells(&short),
            (22_020_095, 39_009_315, 39_009_315, 300, 0, (0, 0, 0))
        );
        let long = run_point(false, 1, OVERLOAD_GAP_NS, 600).unwrap();
        assert_eq!(
            cells(&long),
            (41_943_039, 71_303_167, 71_404_274, 600, 0, (0, 0, 0))
        );
        assert_eq!(short.shed, 0, "no shedding without a window");
        assert_eq!(short.completed, 300, "everything completes, however late");
        assert!(
            long.p999_ns as f64 > short.p999_ns as f64 * 1.5,
            "p999 must grow with run length under overload: {} -> {}",
            short.p999_ns,
            long.p999_ns
        );
        assert!(
            long.p999_ns > 10 * slo_admission().deadline_ns,
            "unbounded queueing blows an order of magnitude past the SLO \
             budget (deadline {} ns): p999 {}",
            slo_admission().deadline_ns,
            long.p999_ns
        );
    }

    #[test]
    fn slo_leg_holds_p999_bounded_at_the_divergence_point() {
        let on = run_point(true, 1, OVERLOAD_GAP_NS, 600).unwrap();
        assert_eq!(
            cells(&on),
            (2_228_223, 2_621_439, 2_647_772, 333, 267, (381, 380, 279))
        );
        assert!(on.shed > 0, "overload must actually shed: {on:?}");
        assert!(
            on.p999_ns <= 10 * on.p50_ns.max(1),
            "SLO leg holds the tail within 10x p50: p50 {} p999 {}",
            on.p50_ns,
            on.p999_ns
        );
        // Truthful stats: engine counters match the client's observations.
        assert_eq!(
            (on.admitted, on.delayed, on.admission_shed),
            on.observed,
            "admission counters reconcile with client-side observations"
        );
        // Zero committed-transaction loss: every admitted begin committed.
        assert_eq!(
            on.committed,
            on.setup_committed + on.admitted,
            "every admitted transaction commits; shed ones never begin"
        );
    }

    #[test]
    fn under_capacity_both_legs_agree_and_nothing_sheds() {
        let off = run_point(false, 1, 2_000_000, 200).unwrap();
        assert_eq!(cells(&off), (253_951, 589_823, 732_851, 200, 0, (0, 0, 0)));
        let on = run_point(true, 1, 2_000_000, 200).unwrap();
        assert_eq!(
            cells(&on),
            (253_951, 1_703_935, 1_827_325, 200, 0, (220, 44, 0))
        );
        assert_eq!(off.shed, 0);
        assert_eq!(on.shed, 0, "no shedding under capacity: {on:?}");
        assert_eq!(off.completed, 200);
        assert_eq!(on.completed, 200);
    }

    #[test]
    fn concurrent_sessions_shed_and_reconcile_under_overload() {
        let on = run_point(true, 4, OVERLOAD_GAP_NS, 400).unwrap();
        assert_eq!(
            cells(&on),
            (2_097_151, 2_251_171, 2_251_171, 232, 168, (267, 266, 173))
        );
        assert_eq!(
            (on.admitted, on.delayed, on.admission_shed),
            on.observed,
            "sharded engine reports the same admission story the clients saw"
        );
        assert_eq!(on.committed, on.setup_committed + on.admitted);
    }
}

//! Availability under die failure (PR 10): foreground tail latency while a
//! lost die is being rebuilt.
//!
//! A die failure on a parity-protected region leaves every lost page
//! readable through reconstruction, but the *rebuild* — re-materialising the
//! lost pages onto surviving dies — is a burst of background work the engine
//! must place somewhere.  This experiment measures where it lands:
//!
//! * **no-failure** — baseline: the same workload with no die kill.  Its
//!   p999 is the reference the availability bar is measured against.
//! * **naive** — the die is killed mid-run and the engine rebuilds the
//!   whole die *foreground* ([`NoFtl::rebuild_all`]) the moment the failure
//!   is detected.  Every request that arrives during the rebuild queues
//!   behind it, so one stall blows the tail.
//! * **scheduled** — the die is killed at the same instant, but rebuild
//!   proceeds as bounded background steps through the PR 9 SLO hook
//!   ([`StorageEngine::maybe_flush`] calls the backend's `schedule_rebuild`
//!   when `slo_scheduling` is on), deferring to read-hot instants.
//!   Foreground requests are served — degraded where necessary — and the
//!   acceptance bar holds p999 within 10x the no-failure baseline.
//!
//! Requests arrive on a fixed open-loop schedule and latency is measured
//! **from the scheduled arrival**, so a foreground stall is charged to every
//! request it delays — exactly the accounting that makes the naive leg
//! honest about its outage.  Everything runs on the virtual clock with
//! seeded randomness and explicit configs, so every point is bit-identical
//! across runs.
//!
//! [`NoFtl::rebuild_all`]: noftl_core::NoFtl::rebuild_all
//! [`StorageEngine::maybe_flush`]: storage_engine::StorageEngine::maybe_flush

use nand_flash::fault::FaultPlan;
use nand_flash::{DeviceConfig, FlashGeometry, FlashResult, NandDevice};
use noftl_core::{NoFtl, NoFtlConfig, RedundancyPolicy};
use storage_engine::backend::NoFtlBackend;
use storage_engine::{EngineConfig, FlusherConfig, StorageEngine};
use workloads::{TpcB, TpcBConfig, Workload};

/// How the engine handles the die failure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RebuildMode {
    /// No die is killed: the baseline the availability bar measures against.
    NoFailure,
    /// Kill a die mid-run and rebuild it foreground in one stall.
    Naive,
    /// Kill a die mid-run and rebuild through the SLO background hook.
    Scheduled,
}

impl RebuildMode {
    /// Stable label used in tables and JSON.
    pub fn label(self) -> &'static str {
        match self {
            RebuildMode::NoFailure => "no-failure",
            RebuildMode::Naive => "naive",
            RebuildMode::Scheduled => "scheduled",
        }
    }
}

/// Measured open-loop requests per leg.
pub const REQUESTS: u64 = 300;
/// Request index at which the die-kill plan is armed (fires on the next
/// device command, i.e. within that same transaction's WAL force).
pub const KILL_AT: u64 = 100;
/// Fixed inter-arrival gap (ns): comfortably under the write-path capacity
/// *with headroom for one bounded rebuild step per gap*, so baseline
/// queueing is negligible and the scheduled leg can absorb its background
/// bursts without the queue growing.  The naive leg's single foreground
/// stall dwarfs any gap, so the contrast does not depend on this choice.
pub const ARRIVAL_GAP_NS: u64 = 8_000_000;
/// Flat index of the die the failure legs kill.
pub const KILLED_DIE: u32 = 2;

/// A fault plan with every probabilistic failure mode zeroed, optionally
/// carrying the deterministic die kill.  The quiet plan is armed even on the
/// no-failure leg, so every leg runs the same fault-path gates.
fn quiet_plan(kill: Option<u32>) -> FaultPlan {
    let mut plan = FaultPlan::seeded(7);
    plan.program_fail_base = 0.0;
    plan.erase_fail_prob = 0.0;
    plan.read_error_base = 0.0;
    match kill {
        Some(die) => plan.with_die_kill(0, die),
        None => plan,
    }
}

/// The full stack with `Parity(3)` on every region: 2 channels x 2 dies
/// (die-disjoint 3+1 stripes), generous over-provisioning for the parity
/// overhead and the eventual loss of a quarter of the physical pool, and
/// `slo_scheduling` on for *every* leg so the only difference between modes
/// is where the rebuild work is placed.
fn availability_engine() -> StorageEngine {
    let geometry = FlashGeometry::small();
    let mut cfg = NoFtlConfig::new(geometry);
    cfg.op_ratio = 0.60;
    let mut dev_cfg = DeviceConfig::new(geometry);
    dev_cfg.store_data = cfg.store_data;
    dev_cfg.faults = Some(quiet_plan(None));
    let mut noftl = NoFtl::with_device(NandDevice::new(dev_cfg), cfg);
    noftl.set_redundancy_all(RedundancyPolicy::Parity(3));
    let backend = NoFtlBackend::new(noftl);

    let mut ecfg = EngineConfig::new();
    // A pool below the TPC-B working set: reads reach the device, so the
    // failure legs actually serve degraded reads while the die is down.
    ecfg.buffer_frames = 24;
    ecfg.log_pages = 128;
    ecfg.flushers = FlusherConfig::die_wise(2);
    ecfg.readahead_window = 0;
    // Force per commit: each transaction pays a real device program, which
    // is what lets the armed kill fire inside the transaction that crosses
    // the failure instant.
    ecfg.wal_group_commit = 1;
    ecfg.buffer_hit_ns = 2_000;
    ecfg.slo_scheduling = true;
    StorageEngine::new(Box::new(backend), ecfg)
}

fn availability_workload() -> TpcB {
    // Large enough that the killed die holds a substantial slice of the
    // mapped pages: the naive leg's foreground stall scales with that slice,
    // while the scheduled leg's per-step cost stays bounded regardless.
    TpcB::new(TpcBConfig {
        scale_factor: 1,
        tellers_per_branch: 40,
        accounts_per_branch: 8_000,
        seed: 0xA7A11,
    })
}

/// Mutable access to the embedded NoFTL (via the backend downcast hook), for
/// arming the kill plan mid-run and draining the rebuild.
fn noftl_mut_of(engine: &mut StorageEngine) -> &mut NoFtl {
    engine
        .backend_mut()
        .as_any_mut()
        .and_then(|a| a.downcast_mut::<NoFtlBackend>())
        .expect("availability legs run on the NoFTL backend")
        .noftl_mut()
}

/// One measured leg.
#[derive(Debug, Clone)]
pub struct AvailabilityPoint {
    /// Leg label: `no-failure`, `naive`, or `scheduled`.
    pub mode: &'static str,
    /// Measured requests.
    pub requests: u64,
    /// p50 of request latency, scheduled arrival to commit (ns).
    pub p50_ns: u64,
    /// p99 of request latency (ns).
    pub p99_ns: u64,
    /// p999 of request latency (ns).
    pub p999_ns: u64,
    /// Worst request latency (ns).
    pub max_ns: u64,
    /// Virtual time the foreground was stalled by `rebuild_all` (ns); zero
    /// on the no-failure and scheduled legs.
    pub stall_ns: u64,
    /// Reads served by parity reconstruction while the die was down.
    pub degraded_reads: u64,
    /// Lost pages re-materialised during the measured run (before the
    /// post-run drain).
    pub rebuilt_in_run: u64,
    /// Lost pages re-materialised in total (run + drain).
    pub pages_rebuilt: u64,
    /// Mapped pages on the dead die that could not be reconstructed.
    pub pages_lost: u64,
    /// Bounded rebuild steps the SLO hook scheduled.
    pub rebuild_scheduled: u64,
    /// Rebuild steps deferred because the device was read-hot.
    pub rebuild_deferred_hot: u64,
    /// Transactions committed over the whole run (setup included).
    pub committed: u64,
}

fn percentile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let idx = ((sorted.len() as f64 - 1.0) * p).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

/// Run one leg: `REQUESTS` transactions on a fixed arrival schedule, with
/// the die killed at `KILL_AT` (failure legs) and rebuilt per `mode`.
pub fn run_point(mode: RebuildMode) -> FlashResult<AvailabilityPoint> {
    let mut engine = availability_engine();
    let mut w = availability_workload();
    let t0 = w.setup(&mut engine, 0)?;

    let mut now = t0;
    let mut latencies: Vec<u64> = Vec::with_capacity(REQUESTS as usize);
    let mut stall_ns = 0u64;
    let mut naive_rebuilt = false;
    for i in 0..REQUESTS {
        let arrival = t0 + (i + 1) * ARRIVAL_GAP_NS;
        let begin = now.max(arrival);
        if mode != RebuildMode::NoFailure && i == KILL_AT {
            noftl_mut_of(&mut engine).set_fault_plan(Some(quiet_plan(Some(KILLED_DIE))));
        }
        let (t, _) = w.run_transaction(&mut engine, 0, begin)?;
        let mut t = engine.maybe_flush(t)?.max(t);
        if mode == RebuildMode::Naive && !naive_rebuilt {
            let n = noftl_mut_of(&mut engine);
            if n.any_die_dead() {
                let end = n.rebuild_all(t)?;
                stall_ns = end.saturating_sub(t);
                t = end;
                naive_rebuilt = true;
            }
        }
        latencies.push(t.saturating_sub(arrival));
        now = t;
    }
    let end = engine.quiesce(now);
    let rebuilt_in_run = noftl_mut_of(&mut engine).rebuild_stats().pages_rebuilt;

    // Finish any rebuild the measured window left outstanding (scheduled
    // legs stop mid-rebuild if the run ends first); charged after the run.
    {
        let n = noftl_mut_of(&mut engine);
        let mut t = end;
        while let Some(step_end) = n.schedule_rebuild(t)? {
            t = step_end.max(t);
        }
    }

    latencies.sort_unstable();
    let n = noftl_mut_of(&mut engine);
    let rs = n.redundancy_stats().clone();
    let rb = n.rebuild_stats().clone();
    Ok(AvailabilityPoint {
        mode: mode.label(),
        requests: REQUESTS,
        p50_ns: percentile(&latencies, 0.5),
        p99_ns: percentile(&latencies, 0.99),
        p999_ns: percentile(&latencies, 0.999),
        max_ns: *latencies.last().unwrap_or(&0),
        stall_ns,
        degraded_reads: rs.degraded_reads,
        rebuilt_in_run,
        pages_rebuilt: rb.pages_rebuilt,
        pages_lost: rb.pages_lost,
        rebuild_scheduled: rb.rebuild_scheduled,
        rebuild_deferred_hot: rb.rebuild_deferred_hot,
        committed: engine.committed(),
    })
}

/// Run all three legs.
pub fn run_sweep() -> FlashResult<Vec<AvailabilityPoint>> {
    let mut points = Vec::new();
    for mode in [RebuildMode::NoFailure, RebuildMode::Naive, RebuildMode::Scheduled] {
        points.push(run_point(mode)?);
    }
    Ok(points)
}

/// Render the sweep as an aligned text table.
pub fn render_table(points: &[AvailabilityPoint]) -> String {
    let mut out = String::new();
    out.push_str(
        "  mode        p50_ms   p99_ms  p999_ms   max_ms  stall_ms  degraded  rebuilt  lost\n",
    );
    for p in points {
        out.push_str(&format!(
            "  {:<10} {:>7.3} {:>8.3} {:>8.3} {:>8.3} {:>9.3} {:>9} {:>8} {:>5}\n",
            p.mode,
            p.p50_ns as f64 / 1e6,
            p.p99_ns as f64 / 1e6,
            p.p999_ns as f64 / 1e6,
            p.max_ns as f64 / 1e6,
            p.stall_ns as f64 / 1e6,
            p.degraded_reads,
            p.pages_rebuilt,
            p.pages_lost,
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The PR 10 availability bar: with the rebuild spread through the SLO
    /// hook, the foreground p999 during the rebuild stays within 10x the
    /// no-failure baseline — and nothing is lost.
    #[test]
    fn scheduled_rebuild_holds_foreground_p999_within_10x_baseline() {
        let base = run_point(RebuildMode::NoFailure).unwrap();
        let sched = run_point(RebuildMode::Scheduled).unwrap();
        assert_eq!(base.pages_lost, 0);
        assert_eq!(base.stall_ns, 0);
        assert!(
            sched.pages_rebuilt > 0,
            "the kill must have cost mapped pages to rebuild: {sched:?}"
        );
        assert_eq!(sched.pages_lost, 0, "parity loses nothing: {sched:?}");
        assert!(
            sched.degraded_reads > 0,
            "the down window must have served degraded reads: {sched:?}"
        );
        assert!(
            sched.rebuild_scheduled > 0,
            "rebuild must ride the SLO background hook: {sched:?}"
        );
        assert_eq!(sched.stall_ns, 0, "the scheduled leg never stalls foreground");
        assert_eq!(
            sched.committed, base.committed,
            "the failure leg commits exactly what the baseline does"
        );
        assert!(
            sched.p999_ns <= 10 * base.p999_ns.max(1),
            "scheduled rebuild holds the tail: baseline p999 {} ns, \
             under-rebuild p999 {} ns",
            base.p999_ns,
            sched.p999_ns
        );
    }

    /// The contrast leg: rebuilding the die foreground at detection time is
    /// one long stall, and the open-loop accounting charges it to every
    /// request queued behind it.
    #[test]
    fn naive_foreground_rebuild_stalls_the_tail() {
        let naive = run_point(RebuildMode::Naive).unwrap();
        let sched = run_point(RebuildMode::Scheduled).unwrap();
        assert!(naive.stall_ns > 0, "rebuild_all must have run: {naive:?}");
        assert_eq!(naive.pages_lost, 0, "parity loses nothing: {naive:?}");
        assert!(naive.pages_rebuilt > 0);
        assert!(
            naive.max_ns >= naive.stall_ns,
            "the stall lands on at least one request: {naive:?}"
        );
        assert!(
            naive.p999_ns > 2 * sched.p999_ns.max(1),
            "the foreground stall must visibly blow the tail the scheduled \
             leg holds: naive p999 {} ns, scheduled p999 {} ns",
            naive.p999_ns,
            sched.p999_ns
        );
        assert_eq!(
            naive.committed, sched.committed,
            "both failure legs commit the same transactions"
        );
    }
}

//! The five workloads of the suite (README.md says why each was chosen).

pub mod replay;
pub mod scan;
pub mod tpcb;
pub mod tpcc;

use sim_utils::time::SimInstant;

use crate::scenario::Scenario;
use crate::stack::Wrap;

/// Workload names, in suite order.
pub const NAMES: [&str; 5] = [
    "tpcc_noftl",
    "tpcc_faster",
    "tpcb_clients_async",
    "scan_q1_async",
    "trace_replay_gc",
];

/// Op counts of one run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Plan {
    /// Untimed ops run at the end of set-up.
    pub warmup: u64,
    /// Ops of the timed phase.
    pub timed: u64,
}

/// Timed ops per requested second: the op count of a run is this rate times
/// `--seconds`, a fixed count rather than a duration, so every virtual-clock
/// number repeats exactly for a `(seed, seconds)` pair.  Calibrated so that
/// on the commit that introduced the suite, on the 2-core reference machine,
/// the timed phase takes about as many wall seconds as were requested.
pub fn ops_per_second(workload: &str) -> Option<u64> {
    Some(match workload {
        "tpcc_noftl" => 6_000,
        "tpcc_faster" => 6_000,
        "tpcb_clients_async" => 36_000,
        "scan_q1_async" => 330,
        "trace_replay_gc" => 90_000,
        _ => return None,
    })
}

/// Warm-up ops per requested second (same scaling rule as the timed count).
fn warmup_per_second(workload: &str) -> u64 {
    match workload {
        "tpcc_noftl" | "tpcc_faster" => 1_500,
        "tpcb_clients_async" => 2_500,
        "scan_q1_async" => 20,
        _ => 3_000,
    }
}

/// The op counts of one repeat of `workload` for a run of `seconds`: the
/// run measures `seconds` in all, split evenly over its
/// [`crate::run::REPEATS`] repeats of the same experiment.
pub fn plan(workload: &str, seconds: u64) -> Option<Plan> {
    let rate = ops_per_second(workload)?;
    let repeats = crate::run::REPEATS as u64;
    Some(Plan {
        warmup: warmup_per_second(workload) * seconds / repeats,
        timed: rate * seconds / repeats,
    })
}

/// Build, load and warm `workload`.
pub fn build(
    workload: &str,
    seed: u64,
    plan: Plan,
    wrap: Wrap,
) -> Result<Box<dyn Scenario>, String> {
    match workload {
        "tpcc_noftl" => tpcc::build(tpcc::Stack::NoFtl, seed, plan, wrap),
        "tpcc_faster" => tpcc::build(tpcc::Stack::Faster, seed, plan, wrap),
        "tpcb_clients_async" => tpcb::build(seed, plan, wrap),
        "scan_q1_async" => scan::build(seed, plan, wrap),
        "trace_replay_gc" => replay::build(seed, plan, wrap),
        other => Err(format!("unknown workload {other:?}")),
    }
}

/// Index of the client whose virtual clock is furthest behind.
pub fn laggard(clock: &[SimInstant]) -> usize {
    let mut best = 0;
    for (i, &t) in clock.iter().enumerate() {
        if t < clock[best] {
            best = i;
        }
    }
    best
}

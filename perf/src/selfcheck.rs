//! `perf selfcheck`: evidence that the suite measures host time at all.
//!
//! The previous attempt at a suite reported only virtual-clock numbers and
//! allocation counts, so nothing in it could move when the program got
//! faster or slower.  This command measures `tpcc_noftl` twice at a reduced
//! count (each time like `perf run`: three repeats, per-op minimum), the
//! second time through a backend shim that burns a fixed
//! [`SPIN_NS`] of host time per backend call, and asserts that
//!
//! * `host_tput` falls by the amount the injected cost predicts (±20 %),
//!   and `host_lat_p50_us` and `sim_cmds_per_host_s` move with it;
//! * every virtual metric and both allocation counts are bit-identical.

use crate::json::Json;
use crate::run;
use crate::scenario;
use crate::stack::Wrap;
use crate::suite::END_TO_END;
use crate::workloads;

/// Host time burnt per backend call in the second run.
pub const SPIN_NS: u64 = 5_000;

const WORKLOAD: &str = "tpcc_noftl";

/// Outcome of the self-check.
pub struct Report {
    /// Both runs' metrics, the prediction and the verdict.
    pub detail: Json,
    /// One line per violated expectation; empty when the check passes.
    pub failures: Vec<String>,
}

/// Seed of both runs.
const SEED: u64 = 1;
/// Run length of both runs (as `perf run --seconds`): the reduced count.
const SECONDS: u64 = 3;

/// Run the check.
pub fn run() -> Result<Report, String> {
    let plan = workloads::plan(WORKLOAD, SECONDS).expect("known workload");
    let measure = |wrap: Wrap| {
        let mut run = run::measure_repeated(WORKLOAD, SEED, plan, wrap)?;
        run.scenario.finish()?;
        let metrics = scenario::end_to_end(&run.phase, 0.0);
        Ok::<_, String>((metrics, run.phase.op_host_ns(), run.phase.spun_calls))
    };
    let (base, base_host_ns, _) = measure(Wrap::None)?;
    let (spun, spun_host_ns, spun_calls) = measure(Wrap::Spin(SPIN_NS))?;

    let mut failures = Vec::new();
    let injected_ns = spun_calls * SPIN_NS;
    let predicted = plan.timed as f64 / ((base_host_ns + injected_ns) as f64 / 1e9);
    let measured = spun["host_tput"];
    if spun_calls == 0 {
        failures.push("the spin shim saw no backend calls".into());
    }
    if (measured / predicted - 1.0).abs() > 0.20 {
        failures.push(format!(
            "host_tput with {SPIN_NS} ns per backend call: measured {measured:.1} ops/s, \
             predicted {predicted:.1} (base {:.1}, {spun_calls} calls)",
            base["host_tput"]
        ));
    }
    for (name, must_rise) in [
        ("host_tput", false),
        ("sim_cmds_per_host_s", false),
        ("host_lat_p50_us", true),
    ] {
        if (spun[name] > base[name]) != must_rise {
            failures.push(format!(
                "{name} did not move with the injected cost: {} -> {}",
                base[name], spun[name]
            ));
        }
    }
    for m in END_TO_END.iter().filter(|m| m.deterministic) {
        if base[m.name].to_bits() != spun[m.name].to_bits() {
            failures.push(format!(
                "{} moved with an injected host-only cost: {} -> {}",
                m.name, base[m.name], spun[m.name]
            ));
        }
    }

    let mut detail = Json::obj();
    detail
        .set("record", "perf-selfcheck")
        .set("workload", WORKLOAD)
        .set("seed", SEED)
        .set("seconds", SECONDS)
        .set("timed_ops", plan.timed)
        .set("spin_ns_per_backend_call", SPIN_NS)
        .set("backend_calls", spun_calls)
        .set("base_host_s", base_host_ns as f64 / 1e9)
        .set("spun_host_s", spun_host_ns as f64 / 1e9)
        .set("predicted_host_tput", predicted)
        .set("measured_host_tput", measured)
        .set("measured_over_predicted", measured / predicted)
        .set("base", base)
        .set("spun", spun)
        .set("passed", failures.is_empty());
    Ok(Report { detail, failures })
}

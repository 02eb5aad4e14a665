//! The contract between a workload and the run loop, the timed phase itself,
//! and the end-to-end metrics computed from it.

use std::collections::BTreeMap;
use std::sync::atomic::Ordering;
use std::time::Instant;

use nand_flash::{DeviceConfig, TraceEntry};
use sim_utils::time::SimInstant;

use crate::alloc;
use crate::json::Json;
use crate::shims::SPUN_CALLS;
use crate::spans::{self, Name};
use crate::stack::Counters;

/// Outcome of one op.
#[derive(Debug, Clone, Copy)]
pub struct Step {
    /// Virtual instant the op was issued.
    pub v_start: SimInstant,
    /// Virtual instant its client may issue the next op (commit, plus any
    /// flush cycle the commit triggered).
    pub v_end: SimInstant,
    /// Part of `v_end - v_start` spent waiting for a triggered flush cycle.
    pub flush_stall_v_ns: u64,
    /// Whether the op's result passed its correctness check.
    pub ok: bool,
}

/// One workload, set up and warmed: the run loop drives it op by op.
pub trait Scenario {
    /// Run the next op of the seeded stream.  `Err` is a stack failure (the
    /// run aborts); a wrong result is `Ok` with `ok == false`.
    fn step(&mut self) -> Result<Step, String>;

    /// The furthest any client's virtual clock has advanced.
    fn makespan(&self) -> SimInstant;

    /// Cumulative counters of the stack.
    fn counters(&self) -> Counters;

    /// End-of-run correctness checks over the database state.
    fn finish(&mut self) -> Result<(), String>;

    /// Effective configuration and final sizes.
    fn describe(&self) -> Json;

    /// Hand `visit` the device command stream recorded since device creation
    /// (a bounded prefix) and the configuration the device was built with.
    /// Only NoFTL stacks of a `--trace` run record one; a callback because
    /// the concurrent engine keeps its backend behind a lock.
    fn device_trace(&self, _visit: &mut dyn FnMut(&DeviceConfig, &[TraceEntry])) {}
}

/// Measurements of one timed phase.
pub struct Phase {
    /// Ops attempted.
    pub ops: u64,
    /// Ops whose result failed its check.
    pub failed: u64,
    /// Description of the first failed op.
    pub first_failure: Option<String>,
    /// Wall time of the whole phase (ns).
    pub host_ns: u64,
    /// Wall time of each op (ns, saturating at 4.29 s), in op order.
    pub host_lat_ns: Vec<u32>,
    /// Virtual response time of each op (ns, saturating), in op order.
    pub v_lat_ns: Vec<u32>,
    /// Virtual time the phase spans (ns).
    pub v_span_ns: u64,
    /// Σ flush stall (virtual ns).
    pub flush_stall_v_ns: u64,
    /// Counters accumulated over the phase.
    pub counters: Counters,
    /// Counters accumulated over the second half of the ops.
    pub second_half: Counters,
    /// Heap allocation calls during the phase.
    pub allocs: u64,
    /// Heap bytes requested during the phase.
    pub alloc_bytes: u64,
    /// Backend calls a spinning shim delayed during the phase (`perf
    /// selfcheck`; 0 otherwise).
    pub spun_calls: u64,
}

impl Phase {
    /// Σ wall time of the ops (ns).
    pub fn op_host_ns(&self) -> u64 {
        self.host_lat_ns.iter().map(|&v| v as u64).sum()
    }
}

/// Run `ops` ops of `sc` and measure them.  With `tracing`, each op runs
/// inside a root span.
pub fn run_phase(sc: &mut dyn Scenario, ops: u64, tracing: bool) -> Result<Phase, String> {
    let n = ops as usize;
    let mut host_lat_ns = Vec::with_capacity(n);
    let mut v_lat_ns = Vec::with_capacity(n);
    let mut failed = 0u64;
    let mut first_failure = None;
    let mut flush_stall_v_ns = 0u64;
    let start_counters = sc.counters();
    let mut mid_counters = start_counters;
    let v_begin = sc.makespan();
    // Everything the loop itself needs is allocated above, so the allocation
    // counts below are the stack's and the workload generator's alone.
    let spun0 = SPUN_CALLS.load(Ordering::Relaxed);
    let (allocs0, bytes0) = alloc::snapshot();
    let t0 = Instant::now();
    for i in 0..ops {
        if i == ops / 2 {
            mid_counters = sc.counters();
        }
        let h = Instant::now();
        let step = if tracing {
            spans::root(
                Name::Op,
                || sc.step(),
                |r| match r {
                    Ok(s) => (s.v_start, s.v_end),
                    Err(_) => (0, 0),
                },
            )
        } else {
            sc.step()
        };
        let host = h.elapsed().as_nanos() as u64;
        let step = step.map_err(|e| format!("op {i}: {e}"))?;
        host_lat_ns.push(u32::try_from(host).unwrap_or(u32::MAX));
        v_lat_ns.push(u32::try_from(step.v_end.saturating_sub(step.v_start)).unwrap_or(u32::MAX));
        flush_stall_v_ns += step.flush_stall_v_ns;
        if !step.ok {
            failed += 1;
            if first_failure.is_none() {
                first_failure = Some(format!("op {i} at virtual {} ns", step.v_start));
            }
        }
    }
    let host_ns = t0.elapsed().as_nanos() as u64;
    let (allocs1, bytes1) = alloc::snapshot();
    let end_counters = sc.counters();
    Ok(Phase {
        ops,
        failed,
        first_failure,
        host_ns,
        host_lat_ns,
        v_lat_ns,
        v_span_ns: sc.makespan().saturating_sub(v_begin).max(1),
        flush_stall_v_ns,
        counters: end_counters.since(&start_counters),
        second_half: end_counters.since(&mid_counters),
        allocs: allocs1 - allocs0,
        alloc_bytes: bytes1 - bytes0,
        spun_calls: SPUN_CALLS.load(Ordering::Relaxed) - spun0,
    })
}

/// The `q` quantile of `sorted` (ascending, non-empty) as the mean of the
/// samples ranked within `half_band` of it: `(0.50, 0.05)` averages the
/// 45th–55th percentile, `(0.99, 0.005)` the 98.5th–99.5th.
///
/// A single order statistic is a poor fit for both clocks.  Virtual
/// latencies are sums of a few device constants (a page read is always
/// sense + transfer), so the sample at one rank sits on an atom and cannot
/// move until a change crosses a whole atom; host latencies are quantised by
/// the timer and the 99th-percentile sample alone is noisy.  The band mean
/// moves with the distribution around the quantile in both cases.
pub fn quantile_band(sorted: &[u32], q: f64, half_band: f64) -> f64 {
    let n = sorted.len() as f64;
    let lo = (((q - half_band) * n).floor() as usize).min(sorted.len() - 1);
    let hi = (((q + half_band) * n).ceil() as usize).clamp(lo + 1, sorted.len());
    let band = &sorted[lo..hi];
    band.iter().map(|&v| v as f64).sum::<f64>() / band.len() as f64
}

/// Median latency (ns): band mean over the 45th–55th percentile.
pub fn p50(sorted: &[u32]) -> f64 {
    quantile_band(sorted, 0.50, 0.05)
}

/// Tail latency (ns): band mean over the 98.5th–99.5th percentile, which
/// leaves 1 % of the samples beyond its centre (13 of the 1 320 queries
/// `scan_q1_async`, the workload with the fewest ops, runs per repeat).
pub fn p99(sorted: &[u32]) -> f64 {
    quantile_band(sorted, 0.99, 0.005)
}

/// Physical page programs per host page write; 1.0 when nothing was written.
pub fn write_amp(c: &Counters) -> f64 {
    if c.host_page_writes == 0 {
        1.0
    } else {
        c.physical_writes() as f64 / c.host_page_writes as f64
    }
}

/// Peak resident set of this process (MiB), from `/proc/self/status`.
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Median of `values` (non-empty).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The end-to-end metrics of an untraced phase, by name (and two host
/// latency quantiles that are reported without a bound).
pub fn end_to_end(phase: &Phase, setup_s: f64) -> BTreeMap<String, f64> {
    let ops = phase.ops as f64;
    let v_s = phase.v_span_ns as f64 / 1e9;
    let mut host = phase.host_lat_ns.clone();
    // Host time of the ops themselves: the loop's own bookkeeping between
    // two ops is not the stack's cost.
    let host_tput = ops / (phase.op_host_ns() as f64 / 1e9);
    host.sort_unstable();
    let mut virt = phase.v_lat_ns.clone();
    virt.sort_unstable();
    let c = &phase.counters;
    let mut m = BTreeMap::new();
    let mut put = |k: &str, v: f64| {
        m.insert(k.to_string(), v);
    };
    put("host_tput", host_tput);
    // The two host quantiles are in the record but not in `BENCHMARK.json`.
    put("host_lat_p50_us", p50(&host) / 1e3);
    put("host_lat_p99_us", p99(&host) / 1e3);
    put(
        "sim_cmds_per_host_s",
        c.flash_cmds() as f64 / ops * host_tput,
    );
    put("allocs_per_op", phase.allocs as f64 / ops);
    put("alloc_bytes_per_op", phase.alloc_bytes as f64 / ops);
    put("peak_rss_mb", peak_rss_mib());
    put("tput_v", ops / v_s);
    put("lat_p50_v_us", p50(&virt) / 1e3);
    put("lat_p99_v_us", p99(&virt) / 1e3);
    put("write_amp", write_amp(c));
    // Add-one: a read-only workload erases nothing, and the benchmark
    // contract has no place for a metric that reads 0.
    put("erases_per_kop", 1000.0 * (c.flash_erases + 1) as f64 / ops);
    put("ok_ops_ratio", (phase.ops - phase.failed) as f64 / ops);
    put("setup_s", setup_s);
    m
}

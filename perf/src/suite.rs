//! The suite's metric tables: names, units and directions, in the order
//! `BENCHMARK.json` lists them.  `tests/contract.rs` checks the two agree.

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Larger is better.
    Higher,
    /// Smaller is better.
    Lower,
}

impl Better {
    /// Spelling used in `BENCHMARK.json`.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// One metric of the suite.
#[derive(Debug, Clone, Copy)]
pub struct Metric {
    /// Name (says which clock: `host_*` or `*_v*`).
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction of improvement.
    pub better: Better,
    /// Whether the value is a pure function of `(seed, seconds)`: virtual
    /// clock, counts and checks — no host time in it.
    pub deterministic: bool,
}

const fn m(name: &'static str, unit: &'static str, better: Better, deterministic: bool) -> Metric {
    Metric {
        name,
        unit,
        better,
        deterministic,
    }
}

use Better::{Higher, Lower};

/// End-to-end metrics, reported by the untraced run.  (Its record also
/// carries `host_lat_p50_us` and `host_lat_p99_us`, which do not repeat well
/// enough on a shared machine to be held to a bound — see README.md.)
pub const END_TO_END: [Metric; 12] = [
    m("host_tput", "ops/s", Higher, false),
    m("sim_cmds_per_host_s", "cmds/s", Higher, false),
    m("allocs_per_op", "count", Lower, true),
    m("alloc_bytes_per_op", "B", Lower, true),
    m("peak_rss_mb", "MiB", Lower, false),
    m("tput_v", "ops/s", Higher, true),
    m("lat_p50_v_us", "us", Lower, true),
    m("lat_p99_v_us", "us", Lower, true),
    m("write_amp", "ratio", Lower, true),
    m("erases_per_kop", "count", Lower, true),
    m("ok_ops_ratio", "ratio", Higher, true),
    m("setup_s", "s", Lower, false),
];

/// Per-layer metrics, reported by the `--trace` run.  Layers are crate
/// names; a metric of a layer that a workload does not exercise reads 0.
pub const PER_LAYER: [Metric; 56] = [
    m("workloads.self_host_us_per_op", "us", Lower, false),
    m("workloads.engine_calls_per_op", "count", Lower, true),
    m("workloads.op.host_us_p50", "us", Lower, false),
    m("workloads.op.host_us_p99", "us", Lower, false),
    m("storage-engine.self_host_us_per_op", "us", Lower, false),
    m("storage-engine.host_share", "ratio", Lower, false),
    m("storage-engine.read.host_us_p50", "us", Lower, false),
    m("storage-engine.update.host_us_p50", "us", Lower, false),
    m("storage-engine.scan.host_us_p50", "us", Lower, false),
    m("storage-engine.commit.host_us_p50", "us", Lower, false),
    m("storage-engine.commit.v_us_p50", "us", Lower, true),
    m("storage-engine.wal_forces_per_op", "count", Lower, true),
    m("storage-engine.wal_pages_per_force", "count", Lower, true),
    m("storage-engine.buffer_hit_ratio", "ratio", Higher, true),
    m(
        "storage-engine.buffer_evictions_per_op",
        "count",
        Lower,
        true,
    ),
    m("storage-engine.pages_read_per_op", "count", Lower, true),
    m("storage-engine.pages_written_per_op", "count", Lower, true),
    m("storage-engine.backend_calls_per_op", "count", Lower, true),
    m("storage-engine.pages_read_vs_min", "ratio", Lower, true),
    m("storage-engine.maybe_flush.host_us_p99", "us", Lower, false),
    m("storage-engine.maybe_flush.v_us_p99", "us", Lower, true),
    m("storage-engine.flush_cycles", "count", Lower, true),
    m(
        "storage-engine.flush_pages_per_cycle",
        "count",
        Higher,
        true,
    ),
    m("storage-engine.flush_stall_v_us_per_op", "us", Lower, true),
    m(
        "storage-engine.readahead_useful_ratio",
        "ratio",
        Higher,
        true,
    ),
    m(
        "storage-engine.readahead_wasted_per_op",
        "count",
        Lower,
        true,
    ),
    m("storage-engine.poll_calls_per_op", "count", Lower, true),
    m("noftl-core.host_us_per_op", "us", Lower, false),
    m("noftl-core.self_host_ns_per_cmd", "ns", Lower, false),
    m("noftl-core.host_share", "ratio", Lower, false),
    m("noftl-core.read.v_us_p50", "us", Lower, true),
    m("noftl-core.read.v_us_p99", "us", Lower, true),
    m("noftl-core.write.v_us_p99", "us", Lower, true),
    m(
        "noftl-core.write_batch.pages_per_call",
        "count",
        Higher,
        true,
    ),
    m("noftl-core.gc_runs", "count", Lower, true),
    m("noftl-core.gc_pages_moved_per_kop", "count", Lower, true),
    m("noftl-core.gc_stalls", "count", Lower, true),
    m("noftl-core.gc_stall_v_ms", "ms", Lower, true),
    m("noftl-core.wear_spread", "ratio", Lower, true),
    m("ftl.host_us_per_op", "us", Lower, false),
    m("ftl.merges_per_kop", "count", Lower, true),
    m("ftl.gc_page_copies_per_kop", "count", Lower, true),
    m("flash-emulator.link_wait_v_us_per_op", "us", Lower, true),
    m("flash-emulator.cmds_per_op", "count", Lower, true),
    m("nand-flash.host_ns_per_cmd", "ns", Lower, false),
    m("nand-flash.cmds_per_op", "count", Lower, true),
    m("nand-flash.reads_per_kop", "count", Lower, true),
    m("nand-flash.programs_per_kop", "count", Lower, true),
    m("nand-flash.erases_per_kop", "count", Lower, true),
    m("nand-flash.copybacks_per_kop", "count", Lower, true),
    m("nand-flash.queue_wait_v_us_per_cmd", "us", Lower, true),
    m("nand-flash.queue_gated_ratio", "ratio", Lower, true),
    m("nand-flash.die_busy_ratio", "ratio", Higher, true),
    m("nand-flash.die_busy_max_over_mean", "ratio", Lower, true),
    m("trace.overhead_ratio", "ratio", Lower, false),
    m("trace.self_sum_error", "ratio", Lower, false),
];

/// Look a metric up in either table.
pub fn metric(name: &str) -> Option<&'static Metric> {
    END_TO_END
        .iter()
        .chain(PER_LAYER.iter())
        .find(|m| m.name == name)
}

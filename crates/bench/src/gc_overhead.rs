//! Figure 3 reproduction: absolute and relative COPYBACK / ERASE overhead of
//! garbage collection under FASTer vs NoFTL, off-line trace-driven.
//!
//! Methodology (as in the paper): each benchmark is run on an *in-memory*
//! database while its page-level I/O is recorded; the recorded trace is then
//! replayed against (a) the FASTer hybrid FTL and (b) NoFTL, both configured
//! over an identically sized Flash device, and the GC command counts are
//! compared.

use std::sync::Arc;

use ftl::faster::{FasterConfig, FasterFtl};
use noftl_core::{NoFtl, NoFtlConfig};
use parking_lot::Mutex;
use storage_engine::backend::{MemBackend, StackConfig};
use storage_engine::StorageEngine;
use workloads::{BenchmarkDriver, DriverConfig, PageTrace, TraceReplayReport};
use workloads::trace::TracingBackend;

use workloads::{TpcB, TpcBConfig, TpcC, TpcCConfig, TpcE, TpcEConfig, Workload};

use crate::setup::{geometry_for_pages, Benchmark, Scale};

/// One row of the Figure 3 table.
#[derive(Debug, Clone)]
pub struct GcOverheadRow {
    /// Benchmark name ("TPC-C", ...).
    pub benchmark: String,
    /// Host page writes replayed (same for both schemes).
    pub host_writes: u64,
    /// FASTer replay results.
    pub faster: TraceReplayReport,
    /// NoFTL replay results.
    pub noftl: TraceReplayReport,
}

impl GcOverheadRow {
    /// Relative copyback overhead (FASTer / NoFTL).
    pub fn copyback_ratio(&self) -> f64 {
        if self.noftl.gc_page_copies == 0 {
            f64::INFINITY
        } else {
            self.faster.gc_page_copies as f64 / self.noftl.gc_page_copies as f64
        }
    }

    /// Relative erase overhead (FASTer / NoFTL).
    pub fn erase_ratio(&self) -> f64 {
        if self.noftl.erases == 0 {
            f64::INFINITY
        } else {
            self.faster.erases as f64 / self.noftl.erases as f64
        }
    }
}

/// Workload configurations used for the Figure 3 traces.  They are larger
/// than the generic quick configurations so the database spans thousands of
/// pages and the replay drives reach steady-state garbage collection, as in
/// the paper's 60-minute runs (TPC-C SF 30, TPC-B SF 350, TPC-E 1K customers,
/// proportionally scaled down).
pub fn gc_workload(benchmark: Benchmark, scale: Scale) -> Box<dyn Workload> {
    let factor = match scale {
        Scale::Quick => 1,
        Scale::Full => 4,
    };
    match benchmark {
        Benchmark::TpcC => Box::new(TpcC::new(TpcCConfig {
            warehouses: 3 * factor,
            districts_per_warehouse: 10,
            customers_per_district: 300,
            items: 2_000,
            seed: 0xCC,
        })),
        Benchmark::TpcB => Box::new(TpcB::new(TpcBConfig {
            scale_factor: 16 * factor,
            tellers_per_branch: 10,
            accounts_per_branch: 2_000,
            seed: 0xB0B,
        })),
        Benchmark::TpcE => Box::new(TpcE::new(TpcEConfig {
            customers: 1_000 * factor,
            accounts_per_customer: 5,
            securities: 500,
            customer_skew: 0.85,
            seed: 0xEE,
        })),
    }
}

/// Record a page-level trace by running `benchmark` on an in-memory engine
/// configured under `knobs`.
pub fn record_trace(
    knobs: &StackConfig,
    benchmark: Benchmark,
    scale: Scale,
    transactions: u64,
) -> PageTrace {
    let (backend, trace): (TracingBackend<MemBackend>, Arc<Mutex<PageTrace>>) =
        TracingBackend::new(MemBackend::new(4096, 1 << 20));
    let mut cfg = knobs.engine();
    // A deliberately small buffer pool relative to the database pushes more
    // page writes to the backend — mirroring the paper's buffer-constrained
    // setups where the I/O path dominates.
    cfg.buffer_frames = 256;
    cfg.flushers.dirty_high_watermark = 0.3;
    cfg.flushers.dirty_low_watermark = 0.05;
    let mut engine = StorageEngine::new(Box::new(backend), cfg);
    let mut workload = gc_workload(benchmark, scale);
    let start = workload.setup(&mut engine, 0).expect("setup");
    let driver = BenchmarkDriver::new(DriverConfig::new(8, transactions));
    driver
        .run(&mut engine, workload.as_mut(), start)
        .expect("trace recording run");
    // Final checkpoint so every dirtied page reaches the trace.
    engine.checkpoint(start).expect("checkpoint");
    let result = trace.lock().clone();
    result
}

/// Replay `trace` against FASTer and NoFTL over drives sized for the given
/// space utilisation, producing one Figure 3 row.
///
/// The drive is sized from the number of *distinct pages the trace writes*
/// (the live database size), not from the largest page id — the WAL segment
/// sits at the top of the engine's logical address space and would otherwise
/// inflate the drive and hide all GC activity.  Page ids are folded onto the
/// drive capacity during the replay.
pub fn replay_trace(benchmark: Benchmark, trace: &PageTrace, utilisation: f64) -> GcOverheadRow {
    let logical_pages = trace.distinct_written_pages().max(256);
    let geometry = geometry_for_pages(logical_pages, utilisation, 8);

    let mut faster = FasterFtl::new(FasterConfig::new(geometry));
    let faster_report = trace.replay_on_ftl(&mut faster).expect("faster replay");

    let mut noftl_cfg = NoFtlConfig::new(geometry);
    noftl_cfg.op_ratio = 0.10;
    let mut noftl = NoFtl::new(noftl_cfg);
    let noftl_report = trace.replay_on_noftl(&mut noftl).expect("noftl replay");

    GcOverheadRow {
        benchmark: benchmark.name().to_string(),
        host_writes: trace.writes(),
        faster: faster_report,
        noftl: noftl_report,
    }
}

/// Run the full Figure 3 experiment: TPC-C, TPC-B and TPC-E traces replayed
/// against FASTer and NoFTL.
pub fn run_gc_overhead(knobs: &StackConfig, scale: Scale) -> Vec<GcOverheadRow> {
    let transactions = match scale {
        Scale::Quick => 12_000,
        Scale::Full => 40_000,
    };
    [Benchmark::TpcC, Benchmark::TpcB, Benchmark::TpcE]
        .iter()
        .map(|&b| {
            let trace = record_trace(knobs, b, scale, transactions);
            // The paper's drives hold the database at moderate space
            // utilisation (SF-30 TPC-C on a 10 GB drive); 55 % reproduces that
            // regime: NoFTL's GC stays cheap while FASTer's small log area
            // still forces merges.
            replay_trace(b, &trace, 0.55)
        })
        .collect()
}

/// Render the rows in the layout of the paper's Figure 3.
pub fn render_table(rows: &[GcOverheadRow]) -> String {
    use sim_utils::stats::fmt_count;
    let mut out = String::new();
    out.push_str("Figure 3: I/O overhead of garbage collection (FASTer vs NoFTL), trace-driven\n");
    out.push_str(&format!(
        "{:<10} {:>14} {:>14} {:>9} | {:>10} {:>10} {:>8}\n",
        "workload", "COPYBACK(F)", "COPYBACK(N)", "relative", "ERASE(F)", "ERASE(N)", "relative"
    ));
    for row in rows {
        out.push_str(&format!(
            "{:<10} {:>14} {:>14} {:>8.2}x | {:>10} {:>10} {:>7.2}x\n",
            row.benchmark,
            fmt_count(row.faster.gc_page_copies),
            fmt_count(row.noftl.gc_page_copies),
            row.copyback_ratio(),
            fmt_count(row.faster.erases),
            fmt_count(row.noftl.erases),
            row.erase_ratio(),
        ));
    }
    out.push_str("\n(F = FASTer, N = NoFTL; paper reports ~1.97-2.15x copyback and ~1.68-1.82x erase overhead)\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trace_recording_produces_writes() {
        let trace = record_trace(&StackConfig::default(), Benchmark::TpcB, Scale::Quick, 60);
        assert!(trace.writes() > 0, "trace must contain page writes");
        assert!(trace.max_page > 0);
    }

    #[test]
    fn replay_produces_figure3_shape() {
        let trace = record_trace(&StackConfig::default(), Benchmark::TpcB, Scale::Quick, 200);
        let row = replay_trace(Benchmark::TpcB, &trace, 0.85);
        assert_eq!(row.faster.host_writes, row.noftl.host_writes);
        // The headline relationship of Figure 3: FASTer does more GC work.
        assert!(
            row.faster.gc_page_copies >= row.noftl.gc_page_copies,
            "FASTer {} vs NoFTL {}",
            row.faster.gc_page_copies,
            row.noftl.gc_page_copies
        );
        let table = render_table(&[row]);
        assert!(table.contains("TPC-B"));
    }
}

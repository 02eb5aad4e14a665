//! §3.1 reproduction: DFTL (demand-cached page mapping) versus pure
//! page-level mapping.  The paper cites earlier results of a slowdown of up
//! to 3.7× under TPC-C and TPC-B when the mapping table no longer fits in
//! device RAM.

use ftl::dftl::{Dftl, DftlConfig};
use ftl::page_ftl::{PageFtl, PageFtlConfig};
use ftl::traits::Ftl;
use storage_engine::backend::StackConfig;
use workloads::PageTrace;

use crate::gc_overhead::record_trace;
use crate::setup::{geometry_for_pages, Benchmark, Scale};

/// Result of replaying one trace against the two mapping schemes.
#[derive(Debug, Clone)]
pub struct DftlSlowdownRow {
    /// Benchmark name.
    pub benchmark: String,
    /// Virtual time of the pure page-mapping replay (ns).
    pub page_mapping_ns: u64,
    /// Virtual time of the DFTL replay (ns).
    pub dftl_ns: u64,
    /// Translation-page reads DFTL performed.
    pub translation_reads: u64,
    /// Translation-page writes DFTL performed.
    pub translation_writes: u64,
}

impl DftlSlowdownRow {
    /// Slowdown of DFTL relative to pure page mapping.
    pub fn slowdown(&self) -> f64 {
        if self.page_mapping_ns == 0 {
            0.0
        } else {
            self.dftl_ns as f64 / self.page_mapping_ns as f64
        }
    }
}

/// Replay `trace` against both schemes.  `cmt_fraction` is the share of the
/// mapping table DFTL may cache (the paper's point is that realistic devices
/// can only cache a small fraction).
pub fn compare_on_trace(
    benchmark: Benchmark,
    trace: &PageTrace,
    cmt_fraction: f64,
) -> DftlSlowdownRow {
    // Size the drive from the live database (distinct pages written), folding
    // page ids onto it during replay — see `gc_overhead::replay_trace`.
    let logical_pages = trace.distinct_written_pages().max(256);
    let geometry = geometry_for_pages(logical_pages, 0.85, 8);

    let mut page_ftl = PageFtl::new(PageFtlConfig::new(geometry));
    let page_report = trace.replay_on_ftl(&mut page_ftl).expect("page-ftl replay");

    let mut dftl_cfg = DftlConfig::new(geometry);
    dftl_cfg.cmt_entries = ((logical_pages as f64 * cmt_fraction) as usize).max(32);
    let mut dftl = Dftl::new(dftl_cfg);
    let dftl_report = trace.replay_on_ftl(&mut dftl).expect("dftl replay");
    let dftl_stats = dftl.ftl_stats();

    DftlSlowdownRow {
        benchmark: benchmark.name().to_string(),
        page_mapping_ns: page_report.duration_ns,
        dftl_ns: dftl_report.duration_ns,
        translation_reads: dftl_stats.translation_reads,
        translation_writes: dftl_stats.translation_writes,
    }
}

/// Run the experiment for TPC-C and TPC-B (traces recorded under `knobs`).
pub fn run_dftl_slowdown(
    knobs: &StackConfig,
    scale: Scale,
    cmt_fraction: f64,
) -> Vec<DftlSlowdownRow> {
    let transactions = crate::setup::default_transactions(scale) * 2;
    [Benchmark::TpcC, Benchmark::TpcB]
        .iter()
        .map(|&b| {
            let trace = record_trace(knobs, b, scale, transactions);
            compare_on_trace(b, &trace, cmt_fraction)
        })
        .collect()
}

/// Render the comparison.
pub fn render_table(rows: &[DftlSlowdownRow]) -> String {
    let mut out = String::new();
    out.push_str("DFTL vs pure page-level mapping (trace replay)\n");
    out.push_str(&format!(
        "{:<8} {:>18} {:>14} {:>10} {:>12} {:>12}\n",
        "bench", "page-map (ms)", "DFTL (ms)", "slowdown", "tr. reads", "tr. writes"
    ));
    for r in rows {
        out.push_str(&format!(
            "{:<8} {:>18.2} {:>14.2} {:>9.2}x {:>12} {:>12}\n",
            r.benchmark,
            r.page_mapping_ns as f64 / 1e6,
            r.dftl_ns as f64 / 1e6,
            r.slowdown(),
            r.translation_reads,
            r.translation_writes
        ));
    }
    out.push_str("(paper/§3.1: DFTL up to 3.7x slower than pure page mapping under TPC-C/-B)\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dftl_is_slower_with_tiny_cmt() {
        let trace = record_trace(&StackConfig::default(), Benchmark::TpcB, Scale::Quick, 300);
        let row = compare_on_trace(Benchmark::TpcB, &trace, 0.002);
        assert!(
            row.slowdown() >= 1.0,
            "DFTL should not be faster than full page mapping (got {:.2})",
            row.slowdown()
        );
        assert!(row.translation_reads + row.translation_writes > 0);
        let table = render_table(&[row]);
        assert!(table.contains("TPC-B"));
    }
}

//! Headline throughput comparison (§1, §3.1, §5 of the paper): live TPC-C and
//! TPC-B runs on the conventional FTL stacks (FASTer, DFTL) versus NoFTL.
//! The paper reports a NoFTL improvement of 2.4× (TPC-C) and 2.25× (TPC-B)
//! over the conventional stacks.

use noftl_core::FlusherAssignment;
use storage_engine::backend::StackConfig;

use crate::setup::{run_live, Benchmark, Stack};

/// TPS of one (benchmark, stack) combination.
#[derive(Debug, Clone)]
pub struct ThroughputPoint {
    /// Benchmark name.
    pub benchmark: String,
    /// Storage stack name.
    pub stack: String,
    /// Transactions per virtual second.
    pub tps: f64,
    /// Mean response time (ms).
    pub response_ms: f64,
    /// 99th-percentile response time (ms).
    pub p99_ms: f64,
}

/// Run one benchmark on one stack under `knobs`: 8 dies, 8 db-writers, 16
/// clients.  NoFTL gets the Flash-aware die-wise flusher assignment; the FTL
/// stacks cannot (the block interface hides the layout), so they use the
/// global scheme.
pub fn run_stack(knobs: &StackConfig, benchmark: Benchmark, stack: Stack) -> ThroughputPoint {
    let assignment = match stack {
        Stack::NoFtl => FlusherAssignment::DieWise,
        _ => FlusherAssignment::Global,
    };
    let report = run_live(knobs, benchmark, stack, 8, assignment, 16);
    ThroughputPoint {
        benchmark: benchmark.name().to_string(),
        stack: stack.name().to_string(),
        tps: report.tps,
        response_ms: report.mean_response_ms(),
        p99_ms: report.response_time.percentile(0.99) as f64 / 1e6,
    }
}

/// Run the headline comparison: each benchmark on FASTer, DFTL and NoFTL.
pub fn run_headline(knobs: &StackConfig, benchmarks: &[Benchmark]) -> Vec<ThroughputPoint> {
    let mut rows = Vec::new();
    for &b in benchmarks {
        for stack in [Stack::Faster, Stack::Dftl, Stack::NoFtl] {
            rows.push(run_stack(knobs, b, stack));
        }
    }
    rows
}

/// Speedup of NoFTL over the best conventional stack for `benchmark`.
pub fn noftl_speedup(rows: &[ThroughputPoint], benchmark: &str) -> Option<f64> {
    let noftl = rows
        .iter()
        .find(|r| r.benchmark == benchmark && r.stack == "noftl")?
        .tps;
    let best_ftl = rows
        .iter()
        .filter(|r| r.benchmark == benchmark && r.stack != "noftl")
        .map(|r| r.tps)
        .fold(f64::MIN, f64::max);
    (best_ftl > 0.0).then(|| noftl / best_ftl)
}

/// Render the comparison table.
pub fn render_table(rows: &[ThroughputPoint]) -> String {
    let mut out = String::new();
    out.push_str("Headline: transactional throughput per storage stack\n");
    out.push_str(&format!(
        "{:<8} {:<12} {:>12} {:>14} {:>12}\n",
        "bench", "stack", "TPS", "mean resp ms", "p99 resp ms"
    ));
    for r in rows {
        out.push_str(&format!(
            "{:<8} {:<12} {:>12.1} {:>14.3} {:>12.3}\n",
            r.benchmark, r.stack, r.tps, r.response_ms, r.p99_ms
        ));
    }
    let benchmarks: Vec<String> = {
        let mut b: Vec<String> = rows.iter().map(|r| r.benchmark.clone()).collect();
        b.dedup();
        b
    };
    for b in benchmarks {
        if let Some(speedup) = noftl_speedup(rows, &b) {
            out.push_str(&format!(
                "{b}: NoFTL speedup over best FTL stack = {speedup:.2}x\n"
            ));
        }
    }
    out.push_str("(paper: >= 2.4x for TPC-C, 2.25x for TPC-B over conventional Flash storage)\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn noftl_beats_faster_on_tpcb_quick() {
        let knobs = StackConfig::default();
        let rows = [run_stack(&knobs, Benchmark::TpcB, Stack::Faster),
            run_stack(&knobs, Benchmark::TpcB, Stack::NoFtl)];
        let faster = rows.iter().find(|r| r.stack == "ftl-faster").unwrap().tps;
        let noftl = rows.iter().find(|r| r.stack == "noftl").unwrap().tps;
        assert!(
            noftl > faster,
            "NoFTL ({noftl:.1} TPS) should outperform FASTer ({faster:.1} TPS)"
        );
    }

    #[test]
    fn speedup_helper_and_table() {
        let rows = vec![
            ThroughputPoint {
                benchmark: "TPC-C".into(),
                stack: "ftl-faster".into(),
                tps: 100.0,
                response_ms: 5.0,
                p99_ms: 20.0,
            },
            ThroughputPoint {
                benchmark: "TPC-C".into(),
                stack: "noftl".into(),
                tps: 240.0,
                response_ms: 2.0,
                p99_ms: 6.0,
            },
        ];
        assert!((noftl_speedup(&rows, "TPC-C").unwrap() - 2.4).abs() < 1e-9);
        let table = render_table(&rows);
        assert!(table.contains("2.40x"));
    }
}

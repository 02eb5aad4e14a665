//! Ablation studies of the design choices that ROADMAP item 5's attribution
//! ladders split into rungs:
//!
//! 1. **Dead-page hints** — NoFTL's GC advantage partly comes from the DBMS
//!    free-space manager declaring pages dead; how much GC work do the hints
//!    actually save?
//! 2. **GC victim-selection policy** — greedy vs cost-benefit (wear-aware).
//! 3. **FASTer second chance** — the isolation pass that distinguishes FASTer
//!    from plain FAST.
//! 4. **Over-provisioning** — how the spare-space ratio changes NoFTL's write
//!    amplification.

use ftl::faster::{FasterConfig, FasterFtl};
use nand_flash::FlashGeometry;
use noftl_core::gc::GcPolicy;
use noftl_core::{NoFtl, NoFtlConfig};
use sim_utils::dist::Zipf;
use sim_utils::rng::SimRng;
use workloads::{PageTrace, TraceOp};

/// One ablation measurement.
#[derive(Debug, Clone)]
pub struct AblationRow {
    /// Which knob was varied and its setting.
    pub variant: String,
    /// GC page relocations.
    pub gc_copies: u64,
    /// Block erases.
    pub erases: u64,
    /// Write amplification.
    pub write_amplification: f64,
    /// Virtual completion time of the stream (ms).
    pub duration_ms: f64,
}

/// Build the skewed overwrite stream shared by all ablations, with an
/// optional stretch of dead-page hints over `dead_fraction` of the pages.
pub fn ablation_trace(pages: u64, overwrites: u64, dead_fraction: f64) -> PageTrace {
    let mut rng = SimRng::new(0xAB1A);
    let zipf = Zipf::new(pages, 0.8);
    let mut ops: Vec<TraceOp> = (0..pages).map(TraceOp::Write).collect();
    // Dead-page hints arrive after the initial load (e.g. a dropped index or
    // truncated staging table).
    let dead_every = if dead_fraction > 0.0 {
        (1.0 / dead_fraction).round() as u64
    } else {
        0
    };
    if dead_every > 0 {
        for p in (0..pages).step_by(dead_every as usize) {
            ops.push(TraceOp::Free(p));
        }
    }
    for _ in 0..overwrites {
        ops.push(TraceOp::Write(zipf.sample(&mut rng)));
    }
    PageTrace {
        ops,
        max_page: pages - 1,
    }
}

fn noftl_row(variant: &str, trace: &PageTrace, geometry: FlashGeometry, policy: GcPolicy, op: f64) -> AblationRow {
    let mut cfg = NoFtlConfig::new(geometry);
    cfg.op_ratio = op;
    let mut noftl = NoFtl::new(cfg);
    noftl.set_gc_policy(policy);
    let report = trace.replay_on_noftl(&mut noftl).expect("replay");
    AblationRow {
        variant: variant.to_string(),
        gc_copies: report.gc_page_copies,
        erases: report.erases,
        write_amplification: report.write_amplification,
        duration_ms: report.duration_ns as f64 / 1e6,
    }
}

/// Ablation 1: dead-page hints on/off (same write stream otherwise).
pub fn ablate_dead_page_hints(pages: u64, overwrites: u64) -> Vec<AblationRow> {
    let geometry = FlashGeometry::small();
    let without = ablation_trace(pages, overwrites, 0.0);
    let with = ablation_trace(pages, overwrites, 0.33);
    vec![
        noftl_row("noftl / no hints", &without, geometry, GcPolicy::Greedy, 0.10),
        noftl_row("noftl / dead-page hints (1/3 of pages)", &with, geometry, GcPolicy::Greedy, 0.10),
    ]
}

/// Ablation 2: GC victim-selection policy.
pub fn ablate_gc_policy(pages: u64, overwrites: u64) -> Vec<AblationRow> {
    let geometry = FlashGeometry::small();
    let trace = ablation_trace(pages, overwrites, 0.0);
    vec![
        noftl_row("noftl / greedy GC", &trace, geometry, GcPolicy::Greedy, 0.10),
        noftl_row("noftl / cost-benefit GC", &trace, geometry, GcPolicy::CostBenefit, 0.10),
    ]
}

/// Ablation 3: over-provisioning ratio.  The live database fills ~97 % of the
/// logical space in every variant, so a smaller spare area directly raises
/// the GC pressure (classic WA-vs-OP trade-off).
pub fn ablate_over_provisioning(_pages: u64, overwrites: u64) -> Vec<AblationRow> {
    let geometry = FlashGeometry::small();
    [0.07, 0.15, 0.28]
        .iter()
        .map(|&op| {
            let logical = (geometry.total_pages() as f64 * (1.0 - op)) as u64;
            let live = (logical as f64 * 0.97) as u64;
            let trace = ablation_trace(live, overwrites, 0.0);
            noftl_row(
                &format!("noftl / {}% over-provisioning", (op * 100.0) as u32),
                &trace,
                geometry,
                GcPolicy::Greedy,
                op,
            )
        })
        .collect()
}

/// Ablation 4: FASTer second chance on/off.
pub fn ablate_faster_second_chance(pages: u64, overwrites: u64) -> Vec<AblationRow> {
    let geometry = FlashGeometry::small();
    let trace = ablation_trace(pages, overwrites, 0.0);
    [true, false]
        .iter()
        .map(|&second_chance| {
            let mut cfg = FasterConfig::new(geometry);
            cfg.second_chance = second_chance;
            let mut ftl = FasterFtl::new(cfg);
            let report = trace.replay_on_ftl(&mut ftl).expect("replay");
            AblationRow {
                variant: if second_chance {
                    "faster / second chance on".to_string()
                } else {
                    "fast  / second chance off".to_string()
                },
                gc_copies: report.gc_page_copies,
                erases: report.erases,
                write_amplification: report.write_amplification,
                duration_ms: report.duration_ns as f64 / 1e6,
            }
        })
        .collect()
}

/// Render a group of ablation rows.
pub fn render_rows(title: &str, rows: &[AblationRow]) -> String {
    let mut out = String::new();
    out.push_str(&format!("{title}\n"));
    out.push_str(&format!(
        "{:<42} {:>12} {:>10} {:>8} {:>14}\n",
        "variant", "GC copies", "erases", "WA", "duration (ms)"
    ));
    for r in rows {
        out.push_str(&format!(
            "{:<42} {:>12} {:>10} {:>8.2} {:>14.1}\n",
            r.variant, r.gc_copies, r.erases, r.write_amplification, r.duration_ms
        ));
    }
    out.push('\n');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    const PAGES: u64 = 5200;
    const OVERWRITES: u64 = 5000;

    #[test]
    fn dead_page_hints_reduce_gc_work() {
        let rows = ablate_dead_page_hints(PAGES, OVERWRITES);
        assert!(
            rows[1].gc_copies < rows[0].gc_copies,
            "hints should reduce GC copies: {} vs {}",
            rows[1].gc_copies,
            rows[0].gc_copies
        );
    }

    #[test]
    fn more_over_provisioning_means_less_write_amplification() {
        let rows = ablate_over_provisioning(PAGES, OVERWRITES);
        assert!(rows[0].write_amplification >= rows[2].write_amplification,
            "7% OP ({}) should have WA >= 28% OP ({})",
            rows[0].write_amplification, rows[2].write_amplification);
    }

    #[test]
    fn gc_policy_ablation_runs_both_policies() {
        let rows = ablate_gc_policy(PAGES, 3000);
        assert_eq!(rows.len(), 2);
        assert!(rows.iter().all(|r| r.erases > 0));
    }

    #[test]
    fn second_chance_ablation_exercises_log_reclaim() {
        let rows = ablate_faster_second_chance(PAGES, OVERWRITES);
        assert_eq!(rows.len(), 2);
        // Both variants must reach log-area reclamation; whether the second
        // chance helps or hurts depends on the skew, so only GC activity (not
        // an ordering) is asserted here — the `ablation` binary prints the
        // actual numbers.
        assert!(rows.iter().all(|r| r.erases > 0), "{rows:?}");
    }
}

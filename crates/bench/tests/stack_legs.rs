//! The four paper experiments that take a `StackConfig`, run as miniature
//! points on three non-default stacks.  The figure bins run the default stack
//! and CI diffs their output against `.github/golden/`; these legs keep every
//! other `StackConfig` field exercised through the same experiment bodies.
//! Together the three stacks give all five fields a non-default value:
//!
//! * batching off, queue depth 8, the SLO bundle on;
//! * a seeded fault plan, `Parity(3)` redundancy, queue depth 8;
//! * `Mirror` redundancy, the SLO bundle on.
//!
//! Each leg is a module with one test per benchmark, TPC-C and TPC-B.  A test
//! runs single points of the experiments through their own entry points and
//! pins their exact cells ([`Cells`]):
//!
//! * Figure 4: one live run (`setup::run_live`) with 4 dies and global
//!   db-writers — its measured virtual duration;
//! * the headline: one live run per stack (FASTer, DFTL, NoFTL; 8 dies) —
//!   the measured virtual duration of each;
//! * Figure 3: an 800-transaction page trace recorded under the leg's stack
//!   (`gc_overhead::record_trace`) and replayed on FASTer and NoFTL
//!   (`gc_overhead::replay_trace`) — the trace's writes and each scheme's GC
//!   copies and erases;
//! * §3.1: the same trace on page mapping and DFTL
//!   (`dftl_slowdown::compare_on_trace`) — both virtual durations.
//!
//! The runs are deterministic virtual-time simulations, so a change that
//! moves any of these numbers fails here even when every row keeps its
//! sign.  A change that moves the model on purpose re-pins them in the same
//! commit as the golden outputs (the failure message prints the new cells).

use nand_flash::FaultPlan;
use noftl_bench::setup::{self, Benchmark, Stack};
use noftl_bench::{dftl_slowdown, gc_overhead};
use noftl_core::{FlusherAssignment, RedundancyPolicy};
use storage_engine::backend::StackConfig;

/// The pinned cells of one benchmark on one stack.
#[derive(Debug, PartialEq)]
struct Cells {
    /// Figure 4 point, 4 dies and global db-writers: virtual ns.
    fig4_global_4_dies_ns: u64,
    /// Headline points on FASTer, DFTL and NoFTL: virtual ns.
    headline_ns: [u64; 3],
    /// Page writes of the recorded trace.
    trace_writes: u64,
    /// Figure 3 GC copies on FASTer and NoFTL.
    fig3_copies: [u64; 2],
    /// Figure 3 erases on FASTer and NoFTL.
    fig3_erases: [u64; 2],
    /// §3.1 replay on page mapping and DFTL: virtual ns.
    dftl_ns: [u64; 2],
}

fn cells(knobs: &StackConfig, b: Benchmark) -> Cells {
    let live = |stack, dies, assignment| {
        setup::run_live(knobs, b, stack, dies, assignment, 16).duration_ns
    };
    let trace = gc_overhead::record_trace(knobs, b, 800);
    let fig3 = gc_overhead::replay_trace(b, &trace, 0.55);
    let dftl = dftl_slowdown::compare_on_trace(b, &trace, 0.005);
    Cells {
        fig4_global_4_dies_ns: live(Stack::NoFtl, 4, FlusherAssignment::Global),
        headline_ns: [
            live(Stack::Faster, 8, FlusherAssignment::Global),
            live(Stack::Dftl, 8, FlusherAssignment::Global),
            live(Stack::NoFtl, 8, FlusherAssignment::DieWise),
        ],
        trace_writes: fig3.host_writes,
        fig3_copies: [fig3.faster.gc_page_copies, fig3.noftl.gc_page_copies],
        fig3_erases: [fig3.faster.erases, fig3.noftl.erases],
        dftl_ns: [dftl.page_mapping_ns, dftl.dftl_ns],
    }
}

fn assert_cells(knobs: &StackConfig, b: Benchmark, pinned: Cells) {
    assert_eq!(cells(knobs, b), pinned, "{} on {knobs:?}", b.name());
}

mod unbatched_async_stack_under_slo {
    use super::*;

    fn stack() -> StackConfig {
        StackConfig {
            batch_pages: 1,
            async_depth: 8,
            slo: true,
            ..StackConfig::default()
        }
    }

    #[test]
    fn tpcc() {
        assert_cells(
            &stack(),
            Benchmark::TpcC,
            Cells {
                fig4_global_4_dies_ns: 493_776_000,
                headline_ns: [1_809_085_480, 487_224_360, 309_958_000],
                trace_writes: 9_735,
                fig3_copies: [21_717, 9_392],
                fig3_erases: [455, 256],
                dftl_ns: [10_545_620_400, 38_644_479_400],
            },
        );
    }

    #[test]
    fn tpcb() {
        assert_cells(
            &stack(),
            Benchmark::TpcB,
            Cells {
                fig4_global_4_dies_ns: 149_962_920,
                headline_ns: [793_876_800, 124_219_440, 85_084_680],
                trace_writes: 3_934,
                fig3_copies: [4_867, 344],
                fig3_erases: [115, 32],
                dftl_ns: [1_165_440_400, 1_342_082_160],
            },
        );
    }
}

mod faulty_async_stack_on_parity {
    use super::*;

    fn stack() -> StackConfig {
        StackConfig {
            faults: Some(FaultPlan::seeded(0xDEAD_BEEF)),
            redundancy: Some(RedundancyPolicy::Parity(3)),
            async_depth: 8,
            ..StackConfig::default()
        }
    }

    #[test]
    fn tpcc() {
        assert_cells(
            &stack(),
            Benchmark::TpcC,
            Cells {
                fig4_global_4_dies_ns: 866_329_480,
                headline_ns: [1_822_481_160, 513_810_920, 6_027_082_640],
                trace_writes: 9_735,
                fig3_copies: [21_856, 9_032],
                fig3_erases: [457, 249],
                dftl_ns: [10_557_662_400, 41_603_660_880],
            },
        );
    }

    #[test]
    fn tpcb() {
        assert_cells(
            &stack(),
            Benchmark::TpcB,
            Cells {
                fig4_global_4_dies_ns: 244_760_360,
                headline_ns: [793_876_800, 124_219_440, 273_283_000],
                trace_writes: 3_934,
                fig3_copies: [4_867, 344],
                fig3_erases: [115, 32],
                dftl_ns: [1_165_440_400, 1_339_981_440],
            },
        );
    }
}

mod mirrored_stack_under_slo {
    use super::*;

    fn stack() -> StackConfig {
        StackConfig {
            redundancy: Some(RedundancyPolicy::Mirror),
            slo: true,
            ..StackConfig::default()
        }
    }

    #[test]
    fn tpcc() {
        assert_cells(
            &stack(),
            Benchmark::TpcC,
            Cells {
                fig4_global_4_dies_ns: 2_184_864_600,
                headline_ns: [2_031_703_800, 990_398_560, 1_890_199_920],
                trace_writes: 9_735,
                fig3_copies: [21_856, 9_032],
                fig3_erases: [457, 249],
                dftl_ns: [10_557_662_400, 41_603_660_880],
            },
        );
    }

    #[test]
    fn tpcb() {
        assert_cells(
            &stack(),
            Benchmark::TpcB,
            Cells {
                fig4_global_4_dies_ns: 727_907_560,
                headline_ns: [836_097_960, 224_989_640, 658_484_840],
                trace_writes: 3_934,
                fig3_copies: [4_867, 344],
                fig3_erases: [115, 32],
                dftl_ns: [1_165_440_400, 1_339_981_440],
            },
        );
    }
}

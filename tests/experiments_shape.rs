//! Shape assertions for the paper's experiments: these integration tests run
//! miniature versions of the benchmark-harness experiments and assert the
//! *relative ordering* the paper reports.  Each run also pins its exact
//! cells: the runs are deterministic virtual-time simulations, so a model
//! change that keeps the ordering still fails here.  A change that moves the
//! model on purpose re-pins them in the same commit as the golden outputs.

use noftl::ftl::faster::{FasterConfig, FasterFtl};
use noftl::nand_flash::FlashGeometry;
use noftl::noftl_core::{NoFtl, NoFtlConfig};
use noftl::sim_utils::dist::Zipf;
use noftl::sim_utils::rng::SimRng;
use noftl::workloads::{PageTrace, TraceOp};

/// Synthetic OLTP-shaped page trace: fill once, then skewed overwrites.
fn oltp_trace(pages: u64, overwrites: u64) -> PageTrace {
    let mut rng = SimRng::new(0xEDB7);
    let zipf = Zipf::new(pages, 0.8);
    let mut ops: Vec<TraceOp> = (0..pages).map(TraceOp::Write).collect();
    for _ in 0..overwrites {
        ops.push(TraceOp::Write(zipf.sample(&mut rng)));
    }
    PageTrace {
        ops,
        max_page: pages - 1,
    }
}

#[test]
fn figure3_shape_faster_does_more_gc_work_than_noftl() {
    let geometry = FlashGeometry::small();
    let trace = oltp_trace(5200, 9000);

    let mut faster = FasterFtl::new(FasterConfig::new(geometry));
    let faster_report = trace.replay_on_ftl(&mut faster).unwrap();

    let mut noftl = NoFtl::new(NoFtlConfig::new(geometry));
    let noftl_report = trace.replay_on_noftl(&mut noftl).unwrap();

    assert_eq!(
        (faster_report.gc_page_copies, faster_report.erases),
        (36_588, 1_405)
    );
    assert_eq!((noftl_report.gc_page_copies, noftl_report.erases), (4_797, 352));
    assert!(faster_report.erases > 0 && noftl_report.erases > 0, "both schemes must GC");
    assert!(
        faster_report.gc_page_copies as f64 >= 1.3 * noftl_report.gc_page_copies as f64,
        "FASTer should relocate clearly more pages ({} vs {})",
        faster_report.gc_page_copies,
        noftl_report.gc_page_copies
    );
    assert!(
        faster_report.erases as f64 >= 1.3 * noftl_report.erases as f64,
        "FASTer should erase clearly more blocks ({} vs {})",
        faster_report.erases,
        noftl_report.erases
    );
    // §5: fewer erases => proportionally longer device lifetime.
    assert!(faster_report.write_amplification > noftl_report.write_amplification);
}

#[test]
fn headline_shape_noftl_faster_than_ftl_stack_on_random_writes() {
    // The latency/throughput advantage in its simplest form: the same page
    // write stream completes sooner on NoFTL than behind the FASTer FTL.
    let geometry = FlashGeometry::small();
    let trace = oltp_trace(5200, 6000);

    let mut faster = FasterFtl::new(FasterConfig::new(geometry));
    let faster_report = trace.replay_on_ftl(&mut faster).unwrap();

    let mut noftl = NoFtl::new(NoFtlConfig::new(geometry));
    let noftl_report = trace.replay_on_noftl(&mut noftl).unwrap();

    assert_eq!(
        (faster_report.duration_ns, noftl_report.duration_ns),
        (10_253_308_160, 3_470_522_000)
    );
    assert!(
        faster_report.duration_ns as f64 > 1.2 * noftl_report.duration_ns as f64,
        "NoFTL should complete the stream clearly faster ({} vs {} ns)",
        noftl_report.duration_ns,
        faster_report.duration_ns
    );
}

#[test]
fn figure4_shape_die_wise_flushers_scale_better() {
    use noftl::noftl_core::FlusherAssignment;
    use noftl::storage_engine::{
        backend::NoFtlBackend, buffer::BufferPool, flusher::{FlusherConfig, FlusherPool},
    };

    // One flush cycle of 256 dirty pages with 8 writers over 8 dies: the
    // die-wise association must finish clearly sooner than the global one.
    let run = |assignment: FlusherAssignment| -> u64 {
        let geometry = FlashGeometry::with_dies(8, 1024, 32, 4096);
        let noftl = NoFtl::new(NoFtlConfig::new(geometry));
        let mut backend = NoFtlBackend::new(noftl);
        let mut pool = BufferPool::new(512, 4096);
        for p in 0..256u64 {
            pool.new_page(&mut backend, 0, p, |d| d[0] = p as u8).unwrap();
        }
        let mut flushers = FlusherPool::new(FlusherConfig {
            writers: 8,
            assignment,
            dirty_high_watermark: 0.1,
            dirty_low_watermark: 0.0,
            // Per-page model on both sides: this experiment reproduces the
            // paper's Figure 4 contention mechanism, which predates batching.
            batch_pages: 0,
            batch_global: false,
            async_depth: 1,
        });
        flushers.run_cycle(&mut pool, &mut backend, 0).unwrap()
    };
    let global = run(FlusherAssignment::Global);
    let die_wise = run(FlusherAssignment::DieWise);
    assert_eq!((global, die_wise), (56_615_480, 7_783_680));
    assert!(
        global as f64 > die_wise as f64 * 1.2,
        "global cycle {global} ns should be clearly slower than die-wise {die_wise} ns"
    );
}

#[test]
fn dftl_shape_small_cache_slower_than_page_mapping() {
    use noftl::ftl::dftl::{Dftl, DftlConfig};
    use noftl::ftl::page_ftl::{PageFtl, PageFtlConfig};

    let geometry = FlashGeometry::small();
    let trace = oltp_trace(5000, 4000);

    let mut page_cfg = PageFtlConfig::new(geometry);
    page_cfg.op_ratio = 0.10;
    let mut page_ftl = PageFtl::new(page_cfg);
    let page_report = trace.replay_on_ftl(&mut page_ftl).unwrap();

    let mut dftl_cfg = DftlConfig::new(geometry);
    dftl_cfg.cmt_entries = 64;
    let mut dftl = Dftl::new(dftl_cfg);
    let dftl_report = trace.replay_on_ftl(&mut dftl).unwrap();

    assert_eq!(
        (dftl_report.duration_ns, page_report.duration_ns),
        (2_948_006_640, 2_379_743_000)
    );
    assert!(
        dftl_report.duration_ns > page_report.duration_ns,
        "DFTL with a tiny CMT must be slower ({} vs {})",
        dftl_report.duration_ns,
        page_report.duration_ns
    );
}

/// The reference chain every ratio is measured from: on the Figure 3 trace
/// an ideal page FTL, a DFTL whose cache holds every mapping, and NoFTL with
/// its defaults do the same GC work.  `PageFtl` is the anchor.
fn reference_chain_anchor(trace: &PageTrace) -> (u64, u64, u64) {
    use noftl::ftl::page_ftl::{PageFtl, PageFtlConfig};
    let mut page_ftl = PageFtl::new(PageFtlConfig::new(FlashGeometry::small()));
    let r = trace.replay_on_ftl(&mut page_ftl).unwrap();
    (r.gc_page_copies, r.erases, r.duration_ns)
}

#[test]
fn reference_chain_dftl_with_every_mapping_cached_is_page_ftl() {
    use noftl::ftl::dftl::{Dftl, DftlConfig};

    let trace = oltp_trace(5200, 9000);
    let page = reference_chain_anchor(&trace);
    assert_eq!(page, (4_805, 352, 5_069_531_320));

    let mut cfg = DftlConfig::new(FlashGeometry::small());
    cfg.cmt_entries = 1 << 20;
    let r = trace.replay_on_ftl(&mut Dftl::new(cfg)).unwrap();
    assert_eq!((r.gc_page_copies, r.erases, r.duration_ns), page);
}

#[test]
fn reference_chain_noftl_matches_page_ftl_within_half_a_percent() {
    let trace = oltp_trace(5200, 9000);
    let page = reference_chain_anchor(&trace);

    let mut noftl = NoFtl::new(NoFtlConfig::new(FlashGeometry::small()));
    let r = trace.replay_on_noftl(&mut noftl).unwrap();
    assert_eq!((r.gc_page_copies, r.erases, r.duration_ns), (4_797, 352, 5_066_482_000));
    for (name, noftl, page) in [
        ("copies", r.gc_page_copies, page.0),
        ("erases", r.erases, page.1),
        ("duration", r.duration_ns, page.2),
    ] {
        let gap = (noftl as f64 - page as f64).abs() / page as f64;
        assert!(gap <= 0.005, "{name}: NoFTL {noftl} vs PageFtl {page} ({:.3} %)", gap * 100.0);
    }
}

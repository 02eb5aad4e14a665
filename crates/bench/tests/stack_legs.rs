//! The four paper experiments that take a `StackConfig`, run end to end on
//! three non-default stacks.  The figure bins run the default stack and CI
//! diffs their output against `.github/golden/`; these legs keep every other
//! `StackConfig` field exercised through the same experiment bodies.
//! Together the three stacks give all six fields a non-default value:
//!
//! * batching off, queue depth 8, readahead off, the SLO bundle on;
//! * a seeded fault plan, `Parity(3)` redundancy, queue depth 8;
//! * `Mirror` redundancy, the SLO bundle on.
//!
//! Each leg asserts that every experiment completes and reports a positive
//! throughput or latency for every row.

use nand_flash::FaultPlan;
use noftl_bench::dbwriters::run_dbwriter_scaling;
use noftl_bench::dftl_slowdown::run_dftl_slowdown;
use noftl_bench::gc_overhead::run_gc_overhead;
use noftl_bench::setup::Benchmark;
use noftl_bench::throughput::run_headline;
use noftl_core::RedundancyPolicy;
use storage_engine::backend::StackConfig;

fn run_every_experiment(knobs: &StackConfig) {
    let gc = run_gc_overhead(knobs);
    assert_eq!(gc.len(), 3);
    assert!(gc.iter().all(|row| row.host_writes > 0), "{knobs:?}");

    for b in [Benchmark::TpcC, Benchmark::TpcB] {
        let scaling = run_dbwriter_scaling(knobs, b, &[1, 2, 4, 8]);
        assert!(!scaling.points.is_empty());
        assert!(scaling.points.iter().all(|p| p.tps > 0.0), "{knobs:?} {}", b.name());
    }

    let headline = run_headline(knobs, &[Benchmark::TpcC, Benchmark::TpcB]);
    assert_eq!(headline.len(), 6);
    assert!(headline.iter().all(|p| p.tps > 0.0), "{knobs:?}");

    let dftl = run_dftl_slowdown(knobs, 0.005);
    assert_eq!(dftl.len(), 2);
    assert!(dftl.iter().all(|row| row.page_mapping_ns > 0 && row.dftl_ns > 0), "{knobs:?}");
}

#[test]
fn unbatched_async_stack_without_readahead_under_slo() {
    run_every_experiment(&StackConfig {
        batch_pages: 1,
        async_depth: 8,
        readahead_window: 0,
        slo: true,
        ..StackConfig::default()
    });
}

#[test]
fn faulty_async_stack_on_parity() {
    run_every_experiment(&StackConfig {
        faults: Some(FaultPlan::seeded(0xDEAD_BEEF)),
        redundancy: Some(RedundancyPolicy::Parity(3)),
        async_depth: 8,
        ..StackConfig::default()
    });
}

#[test]
fn mirrored_stack_under_slo() {
    run_every_experiment(&StackConfig {
        redundancy: Some(RedundancyPolicy::Mirror),
        slo: true,
        ..StackConfig::default()
    });
}

//! The properties the suite's numbers rest on, checked on every workload at
//! a reduced op count:
//!
//! * the shims are transparent: a traced and an untraced run give
//!   bit-identical virtual metrics;
//! * the virtual clock is deterministic: the same seed gives identical
//!   virtual metrics, a different seed different ones;
//! * the span tree is sound: per op, the self times of the layers sum to the
//!   op's host time.

use std::collections::BTreeMap;

use noftl_perf::run::{measure, virtual_metrics};
use noftl_perf::spans::{Layer, Name};
use noftl_perf::stack::Wrap;
use noftl_perf::workloads::{Plan, NAMES};

/// Op counts small enough for a test, large enough to flush, force the WAL
/// and (on the write workloads) collect garbage.
fn small_plan(workload: &str) -> Plan {
    match workload {
        "tpcc_noftl" | "tpcc_faster" => Plan {
            warmup: 300,
            timed: 2_000,
        },
        "tpcb_clients_async" => Plan {
            warmup: 1_000,
            timed: 8_000,
        },
        "scan_q1_async" => Plan {
            warmup: 4,
            timed: 40,
        },
        "trace_replay_gc" => Plan {
            warmup: 2_000,
            timed: 20_000,
        },
        other => panic!("no test plan for {other}"),
    }
}

fn virtual_run(workload: &str, seed: u64, wrap: Wrap) -> BTreeMap<String, u64> {
    let plan = small_plan(workload);
    let mut run = measure(workload, seed, plan, wrap, plan.timed).expect("run");
    run.scenario.finish().expect("end-of-run checks");
    assert_eq!(
        run.phase.failed, 0,
        "{workload}: every op must pass its check"
    );
    if let Some(rec) = &run.recorder {
        assert!(
            rec.max_sum_error <= 0.05,
            "{workload}: layer self times deviate from op host time by {}",
            rec.max_sum_error
        );
        let total: u64 = rec.layer_self_ns.iter().sum();
        let root = rec.agg(Name::Op).host_ns;
        assert_eq!(rec.agg(Name::Op).count, plan.timed);
        assert!(
            (total as f64 - root as f64).abs() <= 0.05 * root as f64,
            "{workload}: Σ layer self {total} ns vs Σ op {root} ns"
        );
        assert!(
            rec.calls_into(Layer::Backend) > 0,
            "{workload}: backend shim saw no call"
        );
    }
    // Compare bit patterns: "identical" means identical.
    virtual_metrics(&run.phase)
        .into_iter()
        .map(|(k, v)| (k, v.to_bits()))
        .collect()
}

fn check(workload: &str) {
    let untraced = virtual_run(workload, 1, Wrap::None);
    assert!(untraced.contains_key("tput_v") && untraced.contains_key("write_amp"));
    assert_eq!(
        untraced,
        virtual_run(workload, 1, Wrap::Trace),
        "{workload}: tracing moved a virtual metric"
    );
    assert_eq!(
        untraced,
        virtual_run(workload, 1, Wrap::None),
        "{workload}: same seed, different virtual metrics"
    );
    assert_eq!(
        untraced,
        virtual_run(workload, 1, Wrap::Spin(200)),
        "{workload}: an injected host-time cost moved a virtual metric"
    );
    assert_ne!(
        untraced,
        virtual_run(workload, 2, Wrap::None),
        "{workload}: the seed does not reach the workload generator"
    );
}

#[test]
fn tpcc_noftl_is_transparent_and_deterministic() {
    check("tpcc_noftl");
}

#[test]
fn tpcc_faster_is_transparent_and_deterministic() {
    check("tpcc_faster");
}

#[test]
fn tpcb_clients_async_is_transparent_and_deterministic() {
    check("tpcb_clients_async");
}

#[test]
fn scan_q1_async_is_transparent_and_deterministic() {
    check("scan_q1_async");
}

#[test]
fn trace_replay_gc_is_transparent_and_deterministic() {
    check("trace_replay_gc");
}

#[test]
fn every_workload_has_a_test() {
    assert_eq!(NAMES.len(), 5);
    for w in NAMES {
        small_plan(w);
    }
}

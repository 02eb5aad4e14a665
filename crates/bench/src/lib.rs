//! # noftl-bench
//!
//! Shared experiment harness behind the per-figure binaries.  Every table and
//! figure of the paper's evaluation has a corresponding entry point here:
//!
//! | Paper artefact | Harness function | Binary |
//! |---|---|---|
//! | Figure 3 (GC copyback/erase overhead, FASTer vs NoFTL) | [`gc_overhead::run_gc_overhead`] | `fig3_gc_overhead` |
//! | Figure 4a/4b (TPS vs #dies, global vs die-wise db-writers) | [`dbwriters::run_dbwriter_scaling`] | `fig4_dbwriters` |
//! | §1/§5 headline (NoFTL ≥ 2.4× over FTL stacks) | [`throughput::run_headline`] | `headline_throughput` |
//! | §3.1 (DFTL up to 3.7× slower than page mapping) | [`dftl_slowdown::run_dftl_slowdown`] | `dftl_slowdown` |
//! | §3 latency example (0.45 ms avg writes, ~80 ms outliers) | [`latency::run_latency_profile`] | `latency_profile` |
//! | Demo scenario 1 (emulator validation & parallelism) | [`validation::run_validation`] | `emulator_validation` |
//! | §4 concurrency argument (N clients over the shared engine) | [`client_scaling::run_client_scaling`] | `client_scaling` |
//! | §3 motivation under overload (PR 9: open-loop SLO sweep) | [`slo::run_sweep`] | `slo_overload` |

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod ablation;
pub mod availability;
pub mod client_scaling;
pub mod dbwriters;
pub mod dftl_slowdown;
pub mod gc_overhead;
pub mod latency;
pub mod setup;
pub mod slo;
pub mod throughput;
pub mod validation;

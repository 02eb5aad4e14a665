//! # noftl-perf
//!
//! The repository's performance suite: five workloads, two clocks.
//!
//! * *Host* time (`std::time::Instant` around calls) is what the simulator
//!   costs to run.
//! * *Virtual* time (the `SimInstant`s the stack returns) is what the
//!   modelled flash would take.
//!
//! Every metric name says which clock it reads.  The suite drives the stack
//! in-process through public APIs only, from one load-generating thread, and
//! times each layer from outside with the wrappers in [`shims`].  See
//! `README.md` for the definitions and `BENCHMARK.json` for the contract.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod alloc;
pub mod compare;
pub mod json;
pub mod layers;
pub mod run;
pub mod scenario;
pub mod selfcheck;
pub mod shims;
pub mod spans;
pub mod stack;
pub mod suite;
pub mod workloads;

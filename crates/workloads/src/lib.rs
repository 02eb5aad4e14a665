//! # workloads
//!
//! TPC-style workload drivers for the NoFTL storage stack (§3.3 / §4 of the
//! paper evaluate live TPC-B, TPC-C, TPC-E and TPC-H runs under Shore-MT; the
//! TPC-H-style Q1/Q6 scan generator lives with its one caller, the perf
//! suite's `scan_q1_async` workload):
//!
//! * [`tpcb`] — TPC-B: the update-heavy banking benchmark (account / teller /
//!   branch updates plus a history append);
//! * [`tpcc`] — TPC-C: order-entry OLTP with the standard five-transaction
//!   mix and NURand skew;
//! * [`tpce`] — TPC-E (simplified): a read-heavier brokerage mix;
//! * [`driver`] — the benchmark driver: N logical clients interleaved on the
//!   virtual clock, TPS and response-time reporting;
//! * [`trace`] — page-level trace recording and replay (the paper's Figure 3
//!   is an *off-line trace-driven* comparison of GC overhead).
//!
//! The drivers are self-contained reimplementations: schemas are scaled down
//! (configurable rows per table) so simulated devices stay RAM-sized, while
//! the *access patterns* — read/write mix, skew, records touched per
//! transaction — follow the TPC specifications closely enough to reproduce
//! the paper's relative results.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]
#![deny(clippy::allow_attributes_without_reason)]
#![cfg_attr(
    test,
    allow(
        clippy::disallowed_types,
        reason = "only simulation code must be deterministic; unit tests may use hash containers, clocks and locks"
    )
)]

pub mod driver;
pub mod rid_codec;
pub mod tpcb;
pub mod tpcc;
pub mod tpce;
pub mod trace;
pub mod workload;

pub use driver::{
    Arrivals, BenchmarkDriver, ClientRun, ClientWorkload, DriverConfig, DriverReport,
    MultiClientConfig, MultiClientDriver, MultiClientReport, OpenLoopConfig, OpenLoopDriver,
    OpenLoopReport,
};
pub use tpcb::{TpcB, TpcBConfig};
pub use tpcc::{TpcC, TpcCConfig};
pub use tpce::{TpcE, TpcEConfig};
pub use trace::{PageTrace, TraceOp, TraceReplayReport};
pub use workload::Workload;

/// Build a synthetic row image in `row` (a driver's one reused buffer):
/// `len` bytes, zero except for `fields` as consecutive little-endian 64-bit
/// words from the front.
pub(crate) fn fill_row(row: &mut Vec<u8>, len: usize, fields: &[u64]) {
    row.clear();
    row.resize(len, 0);
    for (word, field) in row.chunks_exact_mut(8).zip(fields) {
        word.copy_from_slice(&field.to_le_bytes());
    }
}

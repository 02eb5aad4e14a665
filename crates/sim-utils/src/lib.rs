//! # sim-utils
//!
//! Shared utilities for the NoFTL simulation stack:
//!
//! * [`rng`] — deterministic, seedable pseudo-random number generators
//!   (SplitMix64 and xoshiro256**) so every experiment is reproducible
//!   bit-for-bit regardless of external crate versions.
//! * [`dist`] — the skewed distributions used by the TPC workload drivers
//!   (Zipf, TPC-C NURand, uniform ranges).
//! * [`histogram`] — latency histograms with percentile queries, used to
//!   report response-time distributions and FTL outliers.
//! * [`stats`] — human-readable formatting of counts.
//! * [`time`] — the simulated-time base types (nanosecond ticks).
//! * [`flatmap`] — dense directly-indexed bitset for per-page hot paths.
//! * [`intmap`] — open-addressing integer hash map (sparse key spaces).
//! * [`pagetable`] — the dense page-level translation table (forward +
//!   reverse) both the FTL baselines and NoFTL map pages with.

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

pub mod dist;
pub mod flatmap;
pub mod histogram;
pub mod intmap;
pub mod pagetable;
pub mod rng;
pub mod stats;
pub mod time;

pub use dist::{NuRand, Zipf};
pub use flatmap::FlatBitSet;
pub use histogram::Histogram;
pub use intmap::IntMap;
pub use pagetable::PageTable;
pub use rng::{SimRng, SplitMix64};
pub use stats::fmt_count;
pub use time::{SimDuration, SimInstant, MICROS, MILLIS, SECONDS};

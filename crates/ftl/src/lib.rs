//! # ftl
//!
//! On-device Flash Translation Layer (FTL) baselines used by the paper as the
//! conventional-storage counterparts of NoFTL (Figure 6.a):
//!
//! * [`PageFtl`] — pure page-level mapping with the whole table cached in
//!   device RAM (the upper bound an on-device FTL can reach),
//! * [`Dftl`] — DFTL (Gupta et al., ASPLOS 2009): demand-based caching of
//!   page-level mappings with translation pages stored on Flash,
//! * [`FasterFtl`] — FASTer (Lim/Lee/Moon, SNAPI 2010): hybrid mapping with a
//!   block-mapped data area and a page-mapped log area, switch/full merges and
//!   a second-chance (isolation) pass for hot pages.
//!
//! All FTLs implement the [`Ftl`] trait, own a [`nand_flash::NandDevice`] and
//! expose the legacy block interface through [`block_device::FtlBlockDevice`].
//! Garbage-collection work (page relocations and block erases) is accounted in
//! [`FtlStats`], which is what the Figure 3 reproduction reads out.

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
#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable,
        clippy::todo,
        clippy::unimplemented
    )
)]

pub mod alloc;
pub mod block_device;
pub mod dftl;
pub mod faster;
pub mod mapping;
pub mod page_ftl;
pub mod stats;
pub mod traits;

pub use block_device::{BlockDevice, FtlBlockDevice};
pub use dftl::{Dftl, DftlConfig};
pub use faster::{FasterConfig, FasterFtl};
pub use page_ftl::{PageFtl, PageFtlConfig};
pub use stats::FtlStats;
pub use traits::Ftl;

//! # flash-emulator
//!
//! The "real-time data-driven Flash emulator" of the paper (§3.3), rebuilt as
//! a deterministic virtual-clock emulator:
//!
//! * [`profiles`] — configurable device architectures (OpenSSD-like board,
//!   commodity SATA2 SSD, high-end PCIe device, SLC/MLC/TLC variants);
//! * [`host_interface`] — the host link model: a SATA2 link admits at most 32
//!   outstanding commands, while native Flash access can keep every die busy
//!   (the §3.2 parallelism argument);
//! * [`emulator`] — an emulated SSD: host interface + (any) FTL + NAND device,
//!   exposed through the legacy block interface, plus an emulated *native*
//!   Flash device for NoFTL;
//! * [`fio`] — a FIO-like synthetic workload generator (random/sequential
//!   read/write mixes, configurable queue depth) used to stress and validate
//!   the emulator (Demo Scenario 1);
//! * [`validation`] — self-validation of emulator latencies against the
//!   reference timing of the emulated NAND (the stand-in for the paper's
//!   validation against the physical OpenSSD board).

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

pub mod emulator;
pub mod fio;
pub mod host_interface;
pub mod profiles;
pub mod validation;

pub use emulator::{EmulatedNativeFlash, EmulatedSsd};
pub use fio::{run_fio, AccessPattern, FioJob, FioReport};
pub use host_interface::{HostInterface, HostLink};
pub use profiles::DeviceProfile;
pub use validation::{validate_profile, ValidationReport};

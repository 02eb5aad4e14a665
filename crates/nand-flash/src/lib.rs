//! # nand-flash
//!
//! A NAND Flash device model exposing the **native Flash interface** described
//! in the NoFTL paper (EDBT 2015, §3): `PAGE READ`, `PAGE PROGRAM`,
//! `COPYBACK PROGRAM`, `BLOCK ERASE`, page metadata (OOB) handling and an
//! `IDENTIFY` command that reports the internal architecture (channels, LUNs,
//! planes, blocks, pages, NAND type).
//!
//! The model plays the role of the raw NAND array on the OpenSSD board: it
//! enforces real NAND constraints (erase-before-program, sequential page
//! programming inside a block, whole-block erases, plane-local copyback),
//! tracks wear and grown bad blocks, and computes operation latencies from a
//! per-die / per-channel occupancy model so that Flash parallelism (the
//! subject of §3.2 of the paper) is observable.
//!
//! ## One body per command (`device.rs`)
//!
//! Each native command is timed in exactly one place in [`NandDevice`]:
//! `PAGE READ` and `PAGE PROGRAM` have one private *run* body each
//! (validation, fault draw, page store, die/channel occupancy, [`FlashStats`]
//! and trace entry), of which the single-page trait methods are runs of one
//! and the multi-page methods runs of `k`; `COPYBACK`, `BLOCK ERASE` and the
//! OOB-only read have one body each.  The [`NativeFlashInterface`] methods
//! and the `submit_*` wrappers only adapt arguments, so single-page and
//! batched dispatch cannot drift apart and the closed-form run costs are
//! asserted for `k = 1` by the same test that asserts them for `k > 1`.
//!
//! ## Queued submission interface (`device/submit.rs`)
//!
//! Beyond the blocking [`NativeFlashInterface`] calls, [`NandDevice`] exposes
//! a queued submission path ([`NandDevice::submit_program_pages`],
//! [`NandDevice::submit_erase`]) backed by bounded **per-die command queues**
//! ([`queue::CommandQueues`]).  A submission is admitted at the caller's
//! virtual `now`; when the target die's queue is full, its issue is gated
//! behind the oldest in-flight command — the behaviour of a real driver
//! spinning on a full hardware queue.  Each `submit_*` call returns its
//! command's [`QueuedCompletion`] — the only place a completion is reported —
//! and the queue keeps just the completion instants of its in-flight window
//! ([`NandDevice::drain_queues`] barriers on them), so an issuer can keep
//! several commands in flight per die and overlap channel transfers on one
//! die with cell programs on any die behind the channel.  A queue depth of 1
//! reproduces the synchronous dispatch exactly (the depth-1 equivalence
//! leg).
//!
//! ## Fault model (`fault.rs`, drawn in `device/faults.rs`)
//!
//! [`fault::FaultPlan`] is a seeded, deterministic model of the three ways
//! real NAND fails in the field, armed through [`DeviceConfig::faults`]
//! (off by default — when off, the device draws **zero** random numbers
//! from the plan and is bit- and cycle-identical to a fault-free build):
//!
//! - **Program failures** ([`FlashError::ProgramFailed`]): probability grows
//!   with block wear.  The attempted page is *consumed* (NAND cannot retry a
//!   page without an erase); still-valid pages of the block remain readable
//!   so the DBMS can relocate them before retiring the block.
//! - **Erase failures** ([`FlashError::EraseFailed`]): drawn only past a
//!   soft endurance knee; the block is marked grown-bad by the device.
//! - **Read bit errors**: the raw bit-error rate grows with P/E cycles,
//!   retention age and per-block read disturb.  Errors within the modelled
//!   ECC budget are counted as [`FlashStats::corrected_reads`] and the read
//!   succeeds; beyond it the read fails with [`FlashError::UncorrectableEcc`]
//!   (each retry draws independently, so a read-retry ladder can succeed).
//!
//! A queued command that fails on the device returns its typed
//! [`FlashError`] from its `submit_*` call, the way a real driver reads a
//! status register; it still holds its die-queue slot for the time it
//! occupied the die, so fault runs keep their timing.  Recovery (block
//! retirement, survivor relocation, read retries, scrubbing) is deliberately
//! *not* done here — it is the DBMS's job (`noftl-core`), per the NoFTL
//! argument.
//!
//! The higher layers built on top of this crate are the `ftl` crate
//! (on-device FTL baselines behind a legacy block interface) and `noftl-core`
//! (the DBMS-integrated Flash management of the paper).

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

pub mod addr;
pub mod bad_block;
pub mod block;
pub mod device;
pub mod die;
pub mod error;
pub mod fault;
pub mod geometry;
pub mod interface;
pub mod nand_type;
pub mod oob;
pub mod page;
pub mod queue;
pub mod stats;
pub mod timeline;
pub mod timing;
pub mod trace;

pub use addr::{BlockAddr, DieAddr, Ppa};
pub use device::{DeviceConfig, NandDevice};
pub use error::{FlashError, FlashResult};
pub use fault::{FaultPlan, KillSpec, ReadFaultOutcome};
pub use geometry::FlashGeometry;
pub use interface::{DeviceIdentification, NativeFlashInterface, OpCompletion, OpKind};
pub use nand_type::{NandType, TimingProfile};
pub use oob::{Oob, PageKind};
pub use page::PageState;
pub use queue::{CommandQueues, QueuedCompletion};
pub use stats::FlashStats;
pub use trace::{TraceEntry, Tracer};

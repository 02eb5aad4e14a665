//! # noftl-core
//!
//! The paper's primary contribution: **NoFTL**, DBMS-integrated Flash
//! management over native Flash storage (EDBT 2015, §3).
//!
//! Instead of hiding NAND behind an on-device FTL and the legacy block
//! interface, NoFTL lets the database operate on the native Flash interface
//! directly and moves the Flash-maintenance functionality into the DBMS:
//!
//! * **address translation** in host memory ([`mapping::HostMappingTable`]) —
//!   the host has enough RAM for a full page-level table, unlike the device
//!   (§3.1);
//! * **out-of-place updates, garbage collection and wear leveling**
//!   ([`NoFtl`], [`gc`], [`wear`]) — driven by DBMS knowledge: pages the
//!   free-space manager reports dead are never relocated;
//! * **bad-block management** ([`bad_block::BadBlockManager`]);
//! * **physical regions and Flash-aware writer assignment**
//!   ([`regions::RegionManager`]) — dies are grouped into regions,
//!   db-writers are bound to regions, and data placement follows die-wise
//!   striping (§3.2, the mechanism behind Figure 4).
//!
//! The crate depends only on the `nand-flash` device model; the Shore-MT-like
//! storage engine (`storage-engine` crate) plugs it in as one of its storage
//! back ends.
//!
//! ## Hot-path data structures
//!
//! The §3.1 resource argument — the *host* can afford dense per-page tables
//! where an SSD controller cannot — is applied literally to every per-page
//! code path in this crate.  Nothing on a write, GC-relocation or flusher
//! path hashes or scans:
//!
//! * [`mapping::HostMappingTable`] keeps **both** directions as dense arrays:
//!   logical→physical indexed by LPN, physical→logical indexed by flat
//!   physical page ([`sim_utils::pagetable::PageTable`]).  GC's "which LPN
//!   lives here?" is one indexed load.
//! * [`regions::RegionManager`] precomputes a `die_flat → RegionId` table, so
//!   `region_of_die` / `region_of_block` are one load instead of a scan over
//!   the region lists; free blocks are queued **per die**, so opening a fresh
//!   block in a multi-die region pops the next die's queue instead of
//!   scanning a region-wide list.
//! * Sparse-keyed hot structures elsewhere in the stack (buffer-pool resident
//!   table, DFTL's CMT directory) use [`sim_utils::intmap::IntMap`], an
//!   open-addressing integer table with Fibonacci hashing — no SipHash.
//!
//! The before/after numbers for each structure are recorded in the PR 1
//! entry of `CHANGES.md`.
//!
//! ## Asynchronous I/O path
//!
//! [`NoFtl::write_batch`] normally dispatches its per-die program runs
//! synchronously.  With [`NoFtl::set_async_depth`] above 1 the runs are
//! *submitted* into the device's bounded per-die command queues
//! (`nand_flash::NandDevice::submit_program_pages`) instead: a dispatch no
//! longer waits for commands still in flight on other dies, and runs from
//! **different submissions** — successive flush cycles, WAL group commits —
//! pipeline behind each other on the die they target.  A single-page
//! [`NoFtl::write`] is a run of one on the same path, so it queues too.
//! Each submission's completion is deterministic and comes back as the
//! return value of the call that issued it — there is no second completion
//! stream; [`NoFtl::drain`] is the barrier the storage engine uses at
//! checkpoints.  Depth 1 is bit- and cycle-identical to the synchronous
//! dispatch (the depth-1 equivalence leg in `tests/equivalence.rs`).
//!
//! Since PR 4 **reads ride the same queues**: [`NoFtl::read`] submits its
//! PAGE READ into the target die's queue at depth > 1, so a foreground point
//! read honestly waits its turn behind in-flight program/erase/GC commands
//! (the recorded read latency includes the queueing delay), and
//! [`NoFtl::read_batch`] groups a read burst by die and hands each die one
//! pipelined multi-page read dispatch
//! (`nand_flash::NativeFlashInterface::read_pages`: one command overhead,
//! array senses overlapping channel transfers).  GC is no longer a silent
//! bystander either: at depth > 1 its relocations (source reads, victim
//! programs, copybacks) and erases submit through the same queues, so
//! background GC visibly delays — and is delayed by — foreground traffic,
//! which is exactly the interference the paper's native-interface argument
//! is about.  GC still *chains* its own commands (it must observe its own
//! relocations); only the queue admission is shared.
//!
//! ## GC relocation (`noftl/relocate.rs`)
//!
//! GC relocates a victim's survivors plane-locally via COPYBACK when it can.
//! A cross-plane survivor goes through read + program: one program dispatch
//! per page, issued once its source read completed and once the next
//! survivor's destination is allocated, and always before an interleaved
//! copyback so the destination block's sequential-programming order holds.
//! Victims are scored by [`gc::select_victim`] on garbage alone (greedy, or
//! weighed against wear); read traffic does not steer them.
//!
//! ## Flash-fault recovery (PR 6)
//!
//! With NoFTL there is no device firmware to paper over media errors — the
//! DBMS layer *is* the error-handling layer.  The device model injects
//! deterministic, seeded program/erase/read failures
//! (`nand_flash::fault::FaultPlan`, armed by `StackConfig::faults`;
//! off is bit- and cycle-identical to a fault-free build), and this crate
//! recovers from every class without losing committed data:
//!
//! * **Program failure** — the failing page is consumed by the device and its
//!   block is worn out for writes.  [`NoFtl::write_batch`] commits the
//!   mappings of the pages that landed, rolls the un-programmed tail of the
//!   aborted run back into the allocator
//!   ([`regions::RegionManager::rollback_unprogrammed`] — otherwise the
//!   region's write pointer desynchronises from the device's sequential
//!   programming rule), retires the block (relocating its live pages), and
//!   re-programs the remainder on fresh blocks.  A failed GC relocation
//!   program rolls back the next survivor's destination, already allocated,
//!   the same way; its own block is retired.
//! * **Erase failure** — the victim block is retired permanently through
//!   [`bad_block::BadBlockManager`] (grown defect, spare capacity shrinks);
//!   already-relocated survivors keep their new homes and GC restarts victim
//!   selection rather than aborting the collection.
//! * **Read errors** — correctable ECC flips are counted and served; an
//!   uncorrectable page gets a bounded retry ladder
//!   (`NoFtl::read_page_retrying`), and only a page that stays unreadable
//!   surfaces a typed error for the storage engine's WAL-replay page rebuild.
//!   Blocks whose read-disturb counters cross
//!   [`NoFtlConfig`]`::scrub_read_disturb_threshold` are scrubbed in the
//!   background (live pages relocated, block erased) before disturb
//!   accumulates into data loss.
//!
//! [`stats::NoFtlStats`] reports the recovery truthfully (retirement counts
//! per failure class, retry/scrub counters) — the chaos storms in
//! `tests/storms.rs` drive TPC-B/TPC-C mixes under seeded fault plans, with
//! and without crash-recovery at commit boundaries, and assert zero
//! committed-data loss against those stats.
//!
//! ## Concurrency model
//!
//! The crate's hot tables split cleanly into `&self` readers and `&mut self`
//! writers with no interior mutability: [`mapping::HostMappingTable`]
//! lookups and [`regions::RegionManager`] placement queries read, mapping
//! updates and block allocation write.  The whole stack runs on one thread:
//! the multi-session storage engine (`storage-engine`'s `ConcurrentEngine`)
//! interleaves its clients on the virtual clock, so device-state mutation is
//! serialised and never observed half-applied.
//!
//! ## Die-level reliability (`noftl/redundancy.rs`, `noftl/rebuild.rs`)
//!
//! Block retirement (PR 6) recovers from failures the size of one erase
//! block; a *die* failure takes out every block of a plane group at once,
//! and without an FTL the DBMS again is the layer that must answer for it.
//! Each region carries a [`RedundancyPolicy`] (config field
//! [`NoFtlConfig::redundancy`], which the `redundancy` field of
//! `storage_engine::backend::StackConfig` projects onto; default `None` is
//! bit- and cycle-identical to a build without the feature):
//!
//! * **`Parity(k)`** — writes into the region accumulate an open stripe of
//!   `k` data pages on *pairwise-distinct dies* plus one XOR parity page on
//!   yet another die, sealed as the stripe fills.  One die failure costs at
//!   most one page per stripe, which the survivors reconstruct exactly.  GC
//!   and block retirement keep stripes honest: erasing or retiring a block
//!   holding a member (or the parity) breaks the stripe and re-queues the
//!   still-mapped members into the open stripe (`members_reprotected`).
//!   Space cost is `1/k` extra programs plus stale-stripe parity pinned
//!   until its members' blocks erase — over-provision accordingly
//!   (`storage_engine::backend::redundancy_op_ratio` computes the floor).
//! * **`Mirror`** — every program is duplicated onto a second die; the
//!   mirror serves reads of the primary's die after it fails, at 2x space.
//!
//! A die kill (deterministic `nand_flash::fault::KillSpec`, or wear) flows
//! through three stages: **degraded reads** ([`NoFtl::read`] reconstructs a
//! lost page bit-identical from its stripe or mirror, counting
//! `degraded_reads`), **online rebuild** ([`NoFtl::schedule_rebuild`] walks
//! the dead die's mapped pages in bounded background steps, offered by the
//! engine's `maybe_flush` under the SLO bundle and deferred at read-hot
//! instants when `gc_schedule_read_occupancy` is set; [`NoFtl::rebuild_all`]
//! is the foreground variant), and **honest loss accounting** (unprotected pages
//! keep their dead mapping, reads fail typed `DieFailed` so WAL-replay can
//! take over, and [`NoFtlStats`]`::pages_lost` counts them —
//! truthfulness is pinned by `tests/storms.rs`' die-failure storms).

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

pub mod bad_block;
pub mod config;
pub mod gc;
pub mod mapping;
pub mod noftl;
pub mod regions;
pub mod stats;
pub mod wear;

pub use config::{NoFtlConfig, RedundancyPolicy};
pub use noftl::NoFtl;
pub use regions::{FlusherAssignment, RegionId, RegionManager, StripingMode};
pub use stats::NoFtlStats;

//! The native Flash interface.
//!
//! This is the protocol the paper proposes instead of the legacy block
//! interface (Figure 1.c and §3): the host addresses *physical* pages and
//! blocks and issues the minimal NAND command set — `PAGE READ`,
//! `PAGE PROGRAM`, `COPYBACK PROGRAM`, `BLOCK ERASE` — plus an `IDENTIFY`
//! command that exposes the device architecture (channels, LUNs, NAND type),
//! and multi-page variants that map to ONFI cache/sequential commands.

use sim_utils::time::SimInstant;

use crate::addr::{BlockAddr, Ppa};
use crate::error::FlashResult;
use crate::geometry::FlashGeometry;
use crate::oob::Oob;
use crate::stats::FlashStats;

/// Kinds of native Flash commands (used for tracing and statistics).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OpKind {
    /// PAGE READ with data transfer to the host.
    Read,
    /// PAGE PROGRAM with data transfer from the host.
    Program,
    /// BLOCK ERASE (no data transfer).
    Erase,
    /// COPYBACK PROGRAM (on-die copy, no data transfer).
    Copyback,
    /// Read of the OOB (spare) area only.
    ReadOob,
}

/// Timing result of a native Flash command on the virtual clock.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OpCompletion {
    /// When the command actually started executing (≥ issue time; later if
    /// the target die or channel was busy).
    pub started_at: SimInstant,
    /// When the command finished.
    pub completed_at: SimInstant,
}

impl OpCompletion {
    /// End-to-end latency experienced by the issuer (completion − issue).
    pub fn latency_from(&self, issued_at: SimInstant) -> u64 {
        self.completed_at.saturating_sub(issued_at)
    }
}

/// Response of the `IDENTIFY` command: everything a DBMS needs to know about
/// the device architecture to do its own data placement (paper §3: "similar
/// to HDIO_GETGEO for HDDs").
#[derive(Debug, Clone, PartialEq)]
pub struct DeviceIdentification {
    /// Device model string.
    pub model: String,
    /// Full geometry (channels, dies, planes, blocks, pages, page size).
    pub geometry: FlashGeometry,
    /// Program/erase endurance per block for this NAND type.
    pub endurance: u64,
    /// Maximum number of in-flight commands per die the device supports.
    pub max_queue_per_die: u32,
    /// Whether the device supports the COPYBACK PROGRAM command.
    pub supports_copyback: bool,
    /// Whether multi-page (cache/sequential) command variants are supported.
    pub supports_multiplane: bool,
}

/// The native Flash interface: the contract between Flash-management software
/// (on-device FTL *or* the NoFTL-enabled DBMS) and the NAND array.
///
/// Every operation takes `now`, the issuer's current virtual time, and returns
/// an [`OpCompletion`] describing when the device could actually start and
/// finish the command given die/channel occupancy.  These calls are the
/// *blocking* protocol; hosts that want several commands in flight per die
/// use the device's queued submission path (`submit_program_pages` and its
/// siblings on `crate::NandDevice`, bounded by
/// [`DeviceIdentification::max_queue_per_die`]).
pub trait NativeFlashInterface {
    /// Device geometry (cheap accessor; same data as [`Self::identify`]).
    fn geometry(&self) -> &FlashGeometry;

    /// Full IDENTIFY response.
    fn identify(&self) -> DeviceIdentification;

    /// PAGE READ: read the user data of `ppa` into `buf`
    /// (`buf.len() == page_size`) and return the page's OOB metadata.
    fn read_page(
        &mut self,
        now: SimInstant,
        ppa: Ppa,
        buf: &mut [u8],
    ) -> FlashResult<(Oob, OpCompletion)>;

    /// Read only the OOB metadata of `ppa` (used by recovery scans; much
    /// cheaper than a full page read on real hardware).
    fn read_oob(&mut self, now: SimInstant, ppa: Ppa) -> FlashResult<(Oob, OpCompletion)>;

    /// Multi-page PAGE READ: read a run of pages **on one die** as a single
    /// dispatched command sequence (the read-side sibling of
    /// [`NativeFlashInterface::program_pages`]).
    ///
    /// Every `(ppa, buf)` entry is filled in order.  Implementations model
    /// the run as *one* command transfer — a single per-run command overhead
    /// — whose array senses serialise on the die while the data transfers
    /// serialise on the channel, so the sense of page *j+1* overlaps the
    /// transfer of page *j* (the ONFI cache-read pipeline): a k-page run
    /// costs roughly `cmd + tR + k·transfer ∥ k·tR` instead of
    /// `k·(cmd + tR + transfer)`.
    ///
    /// Returns the completion of the whole run (`started_at` of the first
    /// sense, `completed_at` of the last transfer).  An empty run completes
    /// at `now`.
    fn read_pages(
        &mut self,
        now: SimInstant,
        ops: &mut [(Ppa, &mut [u8])],
    ) -> FlashResult<OpCompletion>;

    /// PAGE PROGRAM: write `data` (+ OOB) to the erased page `ppa`.
    fn program_page(
        &mut self,
        now: SimInstant,
        ppa: Ppa,
        data: &[u8],
        oob: Oob,
    ) -> FlashResult<OpCompletion>;

    /// Multi-page PAGE PROGRAM: write a run of pages **on one die** as a
    /// single dispatched command sequence (the ONFI cache/sequential program
    /// variants the `IDENTIFY` response advertises via `supports_multiplane`).
    ///
    /// Every `(ppa, data, oob)` entry is programmed in order.  Implementations
    /// model the run as *one* command transfer — a single per-run command
    /// overhead — whose data transfers pipeline with the cell programs, so a
    /// k-page run costs roughly `cmd + k·transfer ∥ k·tPROG` instead of
    /// `k·(cmd + transfer + tPROG)`.
    ///
    /// Returns the completion of the whole run (`started_at` of the first
    /// page, `completed_at` of the last).  An empty run completes at `now`.
    fn program_pages(
        &mut self,
        now: SimInstant,
        ops: &[(Ppa, &[u8], Oob)],
    ) -> FlashResult<OpCompletion>;

    /// BLOCK ERASE.
    fn erase_block(&mut self, now: SimInstant, block: BlockAddr) -> FlashResult<OpCompletion>;

    /// COPYBACK PROGRAM: copy a valid page to an erased page on the same
    /// plane without transferring data over the channel.  The destination
    /// keeps the source's OOB unless `new_oob` overrides it.  In
    /// [`NandDevice`](crate::NandDevice) the destination shares the source's
    /// page-store slot, as a [`NandDevice::copy_page`](crate::NandDevice::copy_page)
    /// destination does; a PAGE PROGRAM of host bytes takes a slot of its own.
    fn copyback(
        &mut self,
        now: SimInstant,
        src: Ppa,
        dst: Ppa,
        new_oob: Option<Oob>,
    ) -> FlashResult<OpCompletion>;

    /// Mark a previously programmed page as invalid (host-side hint; does not
    /// touch the NAND array, only the model's bookkeeping used by GC).
    fn invalidate_page(&mut self, ppa: Ppa) -> FlashResult<()>;

    /// Command and latency statistics accumulated so far.
    fn stats(&self) -> &FlashStats;

    /// Reset statistics (counters and histograms).
    fn reset_stats(&mut self);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn completion_latency_math() {
        let c = OpCompletion {
            started_at: 150,
            completed_at: 200,
        };
        assert_eq!(c.latency_from(100), 100);
        assert_eq!(c.latency_from(300), 0); // saturating
    }
}

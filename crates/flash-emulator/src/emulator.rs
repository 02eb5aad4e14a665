//! Emulated devices: a conventional SSD (host link + FTL + NAND) behind the
//! legacy block interface, and an emulated native Flash device for NoFTL.

use ftl::block_device::BlockDevice;
use ftl::traits::Ftl;
use nand_flash::{FlashResult, NandDevice, NativeFlashInterface, OpCompletion, QueuedCompletion};
use sim_utils::time::SimInstant;

use crate::host_interface::{HostInterface, HostLink};

/// A conventional Flash SSD: an FTL hidden behind a host link with a bounded
/// command queue (Figure 1.a/1.b, Figure 6.a of the paper).
pub struct EmulatedSsd<F: Ftl> {
    ftl: F,
    host: HostInterface,
}

impl<F: Ftl> EmulatedSsd<F> {
    /// Wrap an FTL behind `link`.
    pub fn new(ftl: F, link: HostLink) -> Self {
        Self {
            ftl,
            host: HostInterface::new(link),
        }
    }

    /// Borrow the embedded FTL (statistics inspection).
    pub fn ftl(&self) -> &F {
        &self.ftl
    }

    /// Borrow the host-interface state (queue-wait accounting).
    pub fn host(&self) -> &HostInterface {
        &self.host
    }
}

impl<F: Ftl> BlockDevice for EmulatedSsd<F> {
    fn block_size(&self) -> usize {
        self.ftl.device().geometry().page_size as usize
    }

    fn num_blocks(&self) -> u64 {
        self.ftl.logical_pages()
    }

    fn read_block(
        &mut self,
        now: SimInstant,
        lba: u64,
        buf: &mut [u8],
    ) -> FlashResult<OpCompletion> {
        let start = self.host.admit(now);
        let completion = self.ftl.read(start, lba, buf)?;
        self.host.complete(completion.completed_at);
        Ok(OpCompletion {
            started_at: start,
            completed_at: completion.completed_at,
        })
    }

    fn write_block(
        &mut self,
        now: SimInstant,
        lba: u64,
        data: &[u8],
    ) -> FlashResult<OpCompletion> {
        let start = self.host.admit(now);
        let completion = self.ftl.write(start, lba, data)?;
        self.host.complete(completion.completed_at);
        Ok(OpCompletion {
            started_at: start,
            completed_at: completion.completed_at,
        })
    }

    fn trim_block(&mut self, now: SimInstant, lba: u64) -> FlashResult<()> {
        self.ftl.trim(now, lba)
    }
}

/// An emulated *native* Flash device: a raw NAND array plus a low-overhead
/// host link (the character-device front-end of the paper's emulator, or the
/// ATA-pass-through path on OpenSSD).  Every command is a queued submission
/// of a multi-page run: the batch occupies a single host queue slot and is
/// dispatched to the die as one command sequence, so a k-page run pays the
/// link's per-command overhead once instead of k times.
pub struct EmulatedNativeFlash {
    device: NandDevice,
    host: HostInterface,
}

impl EmulatedNativeFlash {
    /// Build from an explicit device and link.
    pub fn new(device: NandDevice, link: HostLink) -> Self {
        Self {
            device,
            host: HostInterface::new(link),
        }
    }

    /// Borrow the raw device.
    pub fn device(&self) -> &NandDevice {
        &self.device
    }

    /// Set the per-die queue depth of the submission path (depth 1 =
    /// synchronous dispatch semantics).
    pub fn set_queue_depth(&mut self, depth: usize) {
        self.device.set_queue_depth(depth);
    }

    /// Submit a multi-page program run through the host link into the target
    /// die's command queue **without blocking on its completion**: the link
    /// admits the run as one command (one queue slot, one protocol overhead)
    /// and hands it to the device queue, which may gate the issue behind
    /// commands already in flight on that die.  The returned record — the
    /// command's only completion report — carries the admission, issue and
    /// completion stamps.
    pub fn submit_program_pages(
        &mut self,
        now: SimInstant,
        ops: &[(nand_flash::Ppa, &[u8], nand_flash::Oob)],
    ) -> FlashResult<QueuedCompletion> {
        let start = self.host.admit(now);
        let queued = self.device.submit_program_pages(start, ops)?;
        self.host.complete(queued.completion.completed_at);
        Ok(queued)
    }

    /// Submit a multi-page read run through the host link into the target
    /// die's command queue **without blocking on its completion** (the read
    /// sibling of [`EmulatedNativeFlash::submit_program_pages`]): one queue
    /// slot, one protocol overhead, then queued on the die behind whatever
    /// commands are already in flight there — this is how a foreground point
    /// read honestly interferes with in-flight flush traffic.
    pub fn submit_read_pages(
        &mut self,
        now: SimInstant,
        ops: &mut [(nand_flash::Ppa, &mut [u8])],
    ) -> FlashResult<QueuedCompletion> {
        let start = self.host.admit(now);
        let queued = self.device.submit_read_pages(start, ops)?;
        self.host.complete(queued.completion.completed_at);
        Ok(queued)
    }

    /// Barrier: the instant by which every in-flight queued command has
    /// completed (at least `now`).
    pub fn drain(&mut self, now: SimInstant) -> SimInstant {
        self.device.drain_queues(now)
    }

    /// Host-interface state.
    pub fn host(&self) -> &HostInterface {
        &self.host
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profiles::DeviceProfile;
    use ftl::page_ftl::PageFtl;
    use nand_flash::{DeviceConfig, FlashGeometry, Oob, Ppa};

    #[test]
    fn emulated_ssd_roundtrip_and_overhead() {
        let ftl = PageFtl::with_geometry(FlashGeometry::small());
        let mut ssd = EmulatedSsd::new(ftl, HostLink::sata2());
        let data = vec![0x3Cu8; ssd.block_size()];
        let w = ssd.write_block(0, 7, &data).unwrap();
        // Host link overhead (20 µs) is part of the observed latency.
        assert!(w.completed_at >= 20_000);
        let mut buf = vec![0u8; ssd.block_size()];
        let r = ssd.read_block(w.completed_at, 7, &mut buf).unwrap();
        assert_eq!(buf, data);
        assert!(r.completed_at > w.completed_at);
        assert_eq!(ssd.host().admitted(), 2);
    }

    #[test]
    fn sata2_queue_depth_limits_concurrency() {
        // Issue 64 writes all at t=0: with QD=32, the second half must wait
        // for earlier completions, so the finish time is later than with the
        // native link.
        let run = |link: HostLink| -> u64 {
            let ftl = PageFtl::with_geometry(FlashGeometry::small());
            let mut ssd = EmulatedSsd::new(ftl, link);
            let data = vec![1u8; ssd.block_size()];
            let mut last = 0;
            for lba in 0..64u64 {
                let c = ssd.write_block(0, lba, &data).unwrap();
                last = last.max(c.completed_at);
            }
            last
        };
        let sata = run(HostLink::sata2());
        let native = run(HostLink::native());
        assert!(
            sata > native,
            "SATA2 queue depth should throttle 64 concurrent writes: {sata} vs {native}"
        );
    }

    /// The native device of `profile` at the default queue depth of 1.
    fn native_flash(profile: &DeviceProfile) -> EmulatedNativeFlash {
        let device = NandDevice::new(DeviceConfig::new(profile.geometry));
        EmulatedNativeFlash::new(device, profile.host_link)
    }

    #[test]
    fn native_batch_submission_admits_once_and_beats_per_page() {
        let profile = DeviceProfile::small();
        let data = vec![4u8; profile.geometry.page_size as usize];
        let block = nand_flash::BlockAddr::new(0, 0, 0, 0);
        let ops: Vec<(Ppa, &[u8], Oob)> = (0..8)
            .map(|i| (block.page(i), data.as_slice(), Oob::data(i as u64, 0)))
            .collect();

        // Batched: one admitted host command for the whole run.
        let mut batched = native_flash(&profile);
        let c = batched.submit_program_pages(0, &ops).unwrap().completion;
        assert_eq!(batched.host().admitted(), 1);
        assert_eq!(batched.device().stats().programs, 8);
        assert_eq!(batched.device().stats().multi_page_dispatches, 1);

        // Per-page: one admission and one completion wait per page.
        let mut per_page = native_flash(&profile);
        let mut t = 0;
        for op in &ops {
            let q = per_page
                .submit_program_pages(t, std::slice::from_ref(op))
                .unwrap();
            t = q.completion.completed_at;
        }
        assert_eq!(per_page.host().admitted(), 8);
        assert!(
            c.completed_at < t,
            "batched submission ({}) must beat per-page submission ({t})",
            c.completed_at
        );
    }

    #[test]
    fn queued_submissions_overlap_across_dies_without_blocking() {
        // Two runs on different dies submitted at the same instant through
        // the async path: both admitted (two host commands), issue times not
        // serialised, each completion returned by its submission.
        let profile = DeviceProfile::small();
        let data = vec![6u8; profile.geometry.page_size as usize];
        let b0 = nand_flash::BlockAddr::new(0, 0, 0, 0);
        let b1 = nand_flash::BlockAddr::new(1, 0, 0, 0);
        let ops0: Vec<(Ppa, &[u8], Oob)> = (0..4)
            .map(|i| (b0.page(i), data.as_slice(), Oob::data(i as u64, 0)))
            .collect();
        let ops1: Vec<(Ppa, &[u8], Oob)> = (0..4)
            .map(|i| (b1.page(i), data.as_slice(), Oob::data(16 + i as u64, 0)))
            .collect();
        let mut native = native_flash(&profile);
        native.set_queue_depth(8);
        let q0 = native.submit_program_pages(0, &ops0).unwrap();
        let q1 = native.submit_program_pages(0, &ops1).unwrap();
        assert_eq!(native.host().admitted(), 2);
        // Different channels: the second run is not gated behind the first.
        assert!(q1.issued_at < q0.completion.completed_at);
        assert_eq!(
            q0.submitted_at, q1.submitted_at,
            "the link admits both at once"
        );
        assert_eq!(native.device().stats().queued_submissions, 2);
        let barrier = native.drain(0);
        assert_eq!(
            barrier,
            q0.completion.completed_at.max(q1.completion.completed_at)
        );
    }

    #[test]
    fn queued_read_interferes_with_inflight_program_on_one_die() {
        // A program run submitted asynchronously, then a point read on the
        // same die at queue depth 1: the read pays one host admission and is
        // gated behind the program on the die queue.
        let profile = DeviceProfile::small();
        let data = vec![2u8; profile.geometry.page_size as usize];
        let b0 = nand_flash::BlockAddr::new(0, 0, 0, 0);
        let ops: Vec<(Ppa, &[u8], Oob)> = (0..4)
            .map(|i| (b0.page(i), data.as_slice(), Oob::data(i as u64, 0)))
            .collect();
        let mut native = native_flash(&profile);
        let q = native.submit_program_pages(0, &ops).unwrap();
        let mut bufs: Vec<Vec<u8>> = (0..2)
            .map(|_| vec![0u8; profile.geometry.page_size as usize])
            .collect();
        let mut read_ops: Vec<(Ppa, &mut [u8])> = bufs
            .iter_mut()
            .enumerate()
            .map(|(i, b)| (b0.page(i as u32), b.as_mut_slice()))
            .collect();
        let r = native.submit_read_pages(0, &mut read_ops).unwrap();
        assert_eq!(native.host().admitted(), 2, "one admission per run");
        assert_eq!(
            r.issued_at,
            q.completion.completed_at,
            "the read run must queue behind the in-flight program run"
        );
        assert_eq!(native.device().stats().read_stalls, 1);
        for buf in &bufs {
            assert_eq!(buf[0], 2, "queued read must return the programmed data");
        }
        // A read run on the idle die also pays exactly one admission.
        let t = native.drain(r.completion.completed_at);
        let mut read_ops: Vec<(Ppa, &mut [u8])> = bufs
            .iter_mut()
            .enumerate()
            .map(|(i, b)| (b0.page(i as u32), b.as_mut_slice()))
            .collect();
        native.submit_read_pages(t, &mut read_ops).unwrap();
        assert_eq!(native.host().admitted(), 3);
        assert_eq!(native.device().stats().multi_page_read_dispatches, 2);
    }
}

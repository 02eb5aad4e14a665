//! Queued submission to [`NandDevice`]: the per-die queue depth and
//! occupancy, and the `submit_*` methods.

use sim_utils::time::SimInstant;

use super::NandDevice;
use crate::addr::{BlockAddr, DieAddr, Ppa};
use crate::error::FlashResult;
use crate::interface::{NativeFlashInterface, OpCompletion, OpKind};
use crate::oob::Oob;
use crate::queue::QueuedCompletion;

impl NandDevice {
    /// Set the per-die queue depth (clamped to at least 1; capped at the
    /// `max_queue_per_die` the `IDENTIFY` response advertises).  Depth 1 makes
    /// every submission wait for its same-die predecessor — the synchronous
    /// dispatch semantics.
    pub fn set_queue_depth(&mut self, depth: usize) {
        let cap = self.identify().max_queue_per_die as usize;
        self.queues.set_depth(depth.clamp(1, cap));
    }

    /// Number of commands in flight on `die` as of `now`.
    pub fn inflight_on(&self, die: DieAddr, now: SimInstant) -> usize {
        self.queues.inflight_on(self.die_index(die), now)
    }

    /// Total commands in flight across every die as of `now` — the
    /// foreground-load signal the DBMS's load-aware schedulers consult
    /// before launching background work.
    pub fn inflight_total(&self, now: SimInstant) -> usize {
        self.queues.inflight_total(now)
    }

    /// Read commands in flight across every die as of `now` (nonzero means
    /// the instant is read-hot for background relocations).
    pub fn inflight_reads(&self, now: SimInstant) -> usize {
        self.queues.inflight_reads(now)
    }

    /// Shared spine of every `submit_*` method: admit into the die queue
    /// (gating behind a full queue), execute the command at the gated issue
    /// time, account the queued-submission statistics (read submissions and
    /// read stalls are additionally counted per [`FlashStats`](crate::FlashStats)'s read
    /// counters), and hold the command's slot in the die's window until it
    /// completes.  `run` returns the command's completion plus any extra
    /// payload (e.g. a read's OOB).
    ///
    /// An injected fault charged real timing, so the failed command holds
    /// its slot too (its stamps come from `fault_completion`) before the
    /// error propagates; a validation error issued nothing and holds none.
    fn submit_queued<T>(
        &mut self,
        die: DieAddr,
        kind: OpKind,
        now: SimInstant,
        run: impl FnOnce(&mut Self, SimInstant) -> FlashResult<(T, OpCompletion)>,
    ) -> FlashResult<(T, QueuedCompletion)> {
        let die_idx = self.die_index(die);
        let (issue, gated) = self.queues.admit(die_idx, now);
        // Only a fault of *this* command may hold a slot, not a stale stamp
        // left by an earlier synchronous call.
        self.fault_completion = None;
        let (payload, completion) = match run(self, issue) {
            Ok((payload, completion)) => (Ok(payload), completion),
            Err(e) => match self.fault_completion.take() {
                Some(completion) => (Err(e), completion),
                None => return Err(e),
            },
        };
        self.stats.queued_submissions += 1;
        self.stats.queue_wait_ns += completion.started_at.saturating_sub(now);
        if kind == OpKind::Read {
            self.stats.queued_reads += 1;
        }
        if gated {
            self.stats.queue_gated_submissions += 1;
            if kind == OpKind::Read {
                self.stats.read_stalls += 1;
            }
        }
        self.queues
            .record(die_idx, kind, issue, completion.completed_at);
        payload.map(|payload| {
            (
                payload,
                QueuedCompletion {
                    kind,
                    submitted_at: now,
                    issued_at: issue,
                    completion,
                },
            )
        })
    }

    /// Empty-run submission: completes immediately without touching a queue.
    fn empty_submission(kind: OpKind, now: SimInstant) -> QueuedCompletion {
        QueuedCompletion {
            kind,
            submitted_at: now,
            issued_at: now,
            completion: Self::empty_run(now),
        }
    }

    /// Submit a multi-page program run (one die) into the die's command
    /// queue.  The run is admitted at `now`; if the queue is full its issue is
    /// gated behind the oldest in-flight command.  The returned
    /// [`QueuedCompletion`] — the command's only completion report — carries
    /// both stamps plus the device-computed completion.
    pub fn submit_program_pages(
        &mut self,
        now: SimInstant,
        ops: &[(Ppa, &[u8], Oob)],
    ) -> FlashResult<QueuedCompletion> {
        let die = match ops.first() {
            Some((ppa, _, _)) => ppa.die_addr(),
            None => return Ok(Self::empty_submission(OpKind::Program, now)),
        };
        self.submit_queued(die, OpKind::Program, now, |dev, issue| {
            dev.program_pages(issue, ops).map(|c| ((), c))
        })
        .map(|((), q)| q)
    }

    /// Submit a single-page read into the page's die queue.  The read is
    /// admitted at `now`; if the queue is full its issue is gated behind the
    /// oldest in-flight command — this is how a point read honestly queues
    /// behind in-flight program/erase traffic on the same die.  `buf` is
    /// filled with the page content (the model is deterministic, so the data
    /// exists the moment the command is admitted); the returned completion
    /// stamps say when the host may *use* it on the virtual clock.
    pub fn submit_read_page(
        &mut self,
        now: SimInstant,
        ppa: Ppa,
        buf: &mut [u8],
    ) -> FlashResult<(Oob, QueuedCompletion)> {
        self.submit_queued(ppa.die_addr(), OpKind::Read, now, |dev, issue| {
            dev.read_page(issue, ppa, buf)
        })
    }

    /// Submit a multi-page read run (one die) into the die's command queue
    /// (same gating rules as [`NandDevice::submit_program_pages`]; the run
    /// itself gets the pipelined [`NativeFlashInterface::read_pages`] timing).
    pub fn submit_read_pages(
        &mut self,
        now: SimInstant,
        ops: &mut [(Ppa, &mut [u8])],
    ) -> FlashResult<QueuedCompletion> {
        let die = match ops.first() {
            Some((ppa, _)) => ppa.die_addr(),
            None => return Ok(Self::empty_submission(OpKind::Read, now)),
        };
        self.submit_queued(die, OpKind::Read, now, |dev, issue| {
            dev.read_pages(issue, ops).map(|c| ((), c))
        })
        .map(|((), q)| q)
    }

    /// Submit a block erase into the block's die queue (same gating rules as
    /// [`NandDevice::submit_program_pages`]).
    pub fn submit_erase(
        &mut self,
        now: SimInstant,
        block: BlockAddr,
    ) -> FlashResult<QueuedCompletion> {
        self.submit_queued(block.die_addr(), OpKind::Erase, now, |dev, issue| {
            dev.erase_block(issue, block).map(|c| ((), c))
        })
        .map(|((), q)| q)
    }

    /// Submit a COPYBACK PROGRAM into the source plane's die queue (same
    /// gating rules as [`NandDevice::submit_program_pages`]).  Used by GC
    /// under the asynchronous model so plane-local relocations occupy the
    /// die queue like every other background command.
    pub fn submit_copyback(
        &mut self,
        now: SimInstant,
        src: Ppa,
        dst: Ppa,
        new_oob: Option<Oob>,
    ) -> FlashResult<QueuedCompletion> {
        self.submit_queued(src.die_addr(), OpKind::Copyback, now, |dev, issue| {
            dev.copyback(issue, src, dst, new_oob).map(|c| ((), c))
        })
        .map(|((), q)| q)
    }

    /// Barrier over the command queues: the instant by which every in-flight
    /// command has completed (at least `now`).  Clears the in-flight windows.
    pub fn drain_queues(&mut self, now: SimInstant) -> SimInstant {
        self.queues.drain(now)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::tests::{page_of, tiny_device};
    use crate::device::DeviceConfig;
    use crate::error::FlashError;
    use crate::geometry::FlashGeometry;

    #[test]
    fn submitted_run_at_depth_one_matches_synchronous_dispatch() {
        // Two back-to-back runs on one die.  Synchronous dispatch issues run 2
        // at run 1's completion; the queued path at depth 1 must compute the
        // exact same stamps even though both runs are submitted at t=0.
        let data_sync = {
            let mut dev = tiny_device();
            let data = page_of(&dev, 1);
            let b0 = BlockAddr::new(0, 0, 0, 0);
            let ops1: Vec<(Ppa, &[u8], Oob)> = (0..4)
                .map(|i| (b0.page(i), data.as_slice(), Oob::data(i as u64, 0)))
                .collect();
            let ops2: Vec<(Ppa, &[u8], Oob)> = (4..8)
                .map(|i| (b0.page(i), data.as_slice(), Oob::data(i as u64, 0)))
                .collect();
            let c1 = dev.program_pages(0, &ops1).unwrap();
            let c2 = dev.program_pages(c1.completed_at, &ops2).unwrap();
            (c1, c2)
        };
        let data_queued = {
            let mut dev = tiny_device();
            dev.set_queue_depth(1);
            let data = page_of(&dev, 1);
            let b0 = BlockAddr::new(0, 0, 0, 0);
            let ops1: Vec<(Ppa, &[u8], Oob)> = (0..4)
                .map(|i| (b0.page(i), data.as_slice(), Oob::data(i as u64, 0)))
                .collect();
            let ops2: Vec<(Ppa, &[u8], Oob)> = (4..8)
                .map(|i| (b0.page(i), data.as_slice(), Oob::data(i as u64, 0)))
                .collect();
            let q1 = dev.submit_program_pages(0, &ops1).unwrap();
            let q2 = dev.submit_program_pages(0, &ops2).unwrap();
            assert_eq!(q2.issued_at, q1.completion.completed_at, "depth 1 gates");
            assert_eq!(dev.stats().queue_gated_submissions, 1);
            (q1.completion, q2.completion)
        };
        assert_eq!(data_sync, data_queued);
    }

    #[test]
    fn deeper_queue_pipelines_same_die_runs() {
        // At depth >= 2 the second run's command transfer queues on the
        // channel right behind the first run's transfers instead of waiting
        // for the first run's last cell program: the pair finishes earlier.
        let run = |depth: usize| -> u64 {
            let mut dev = tiny_device();
            dev.set_queue_depth(depth);
            let data = page_of(&dev, 1);
            let b0 = BlockAddr::new(0, 0, 0, 0);
            let ops1: Vec<(Ppa, &[u8], Oob)> = (0..4)
                .map(|i| (b0.page(i), data.as_slice(), Oob::data(i as u64, 0)))
                .collect();
            let ops2: Vec<(Ppa, &[u8], Oob)> = (4..8)
                .map(|i| (b0.page(i), data.as_slice(), Oob::data(i as u64, 0)))
                .collect();
            dev.submit_program_pages(0, &ops1).unwrap();
            let q2 = dev.submit_program_pages(0, &ops2).unwrap();
            q2.completion.completed_at
        };
        let sync = run(1);
        let deep = run(4);
        assert!(
            deep < sync,
            "pipelined submission ({deep}) must beat depth-1 dispatch ({sync})"
        );
    }

    #[test]
    fn submissions_return_their_completions_and_drain_barriers() {
        let g = FlashGeometry::small();
        let mut dev = NandDevice::with_geometry(g);
        dev.set_queue_depth(4);
        let data = vec![1u8; g.page_size as usize];
        let a = dev
            .submit_program_pages(0, &[(Ppa::new(0, 0, 0, 0, 0), data.as_slice(), Oob::data(1, 0))])
            .unwrap();
        let b = dev
            .submit_program_pages(0, &[(Ppa::new(1, 0, 0, 0, 0), data.as_slice(), Oob::data(2, 0))])
            .unwrap();
        let e = dev.submit_erase(0, BlockAddr::new(0, 1, 0, 3)).unwrap();
        assert_eq!(dev.stats().queued_submissions, 3);
        assert_eq!(dev.inflight_on(DieAddr::new(0, 0), 0), 1);
        assert_eq!(
            (a.kind, b.kind, e.kind),
            (OpKind::Program, OpKind::Program, OpKind::Erase)
        );
        assert!([a, b, e].iter().all(|q| q.submitted_at == 0));
        let waited: u64 = [a, b, e].iter().map(|q| q.completion.started_at).sum();
        assert_eq!(
            dev.stats().queue_wait_ns,
            waited,
            "wait = start - submit, summed"
        );
        let barrier = dev.drain_queues(0);
        let slowest = [a, b, e]
            .iter()
            .map(|q| q.completion.completed_at)
            .max()
            .unwrap();
        assert_eq!(barrier, slowest);
        assert_eq!(dev.inflight_total(0), 0, "the barrier empties every window");
    }

    #[test]
    fn failed_submission_does_not_evict_inflight_commands() {
        let g = FlashGeometry::tiny();
        let mut cfg = DeviceConfig::new(g);
        cfg.endurance_override = Some(0); // every erase wears out
        let mut dev = NandDevice::new(cfg);
        dev.set_queue_depth(1);
        let data = page_of(&dev, 1);
        let q1 = dev
            .submit_program_pages(0, &[(Ppa::new(0, 0, 0, 0, 0), data.as_slice(), Oob::data(1, 0))])
            .unwrap();
        // The erase is admitted (gated behind q1) but fails with WornOut.
        assert!(matches!(
            dev.submit_erase(0, BlockAddr::new(0, 0, 0, 1)),
            Err(FlashError::WornOut(_))
        ));
        // q1 must still be tracked: the barrier covers its completion.
        assert_eq!(dev.drain_queues(0), q1.completion.completed_at);
        assert_eq!(dev.stats().queued_submissions, 1);
    }

    #[test]
    fn submit_empty_run_completes_immediately() {
        let mut dev = tiny_device();
        let q = dev.submit_program_pages(42, &[]).unwrap();
        assert_eq!(q.completion.completed_at, 42);
        assert_eq!(dev.stats().queued_submissions, 0);
        assert_eq!(dev.inflight_total(0), 0);
    }

    #[test]
    fn submitted_read_at_depth_one_matches_synchronous_dispatch() {
        // Two back-to-back read runs on one die: the queued path at depth 1
        // must compute the exact same stamps the synchronous issuer sees.
        let fill = |dev: &mut NandDevice| {
            let data = page_of(dev, 1);
            let b0 = BlockAddr::new(0, 0, 0, 0);
            for i in 0..8u32 {
                dev.program_page(0, b0.page(i), &data, Oob::data(i as u64, 0))
                    .unwrap();
            }
        };
        let sync = {
            let mut dev = tiny_device();
            fill(&mut dev);
            let b0 = BlockAddr::new(0, 0, 0, 0);
            let mut bufs: Vec<Vec<u8>> = (0..8).map(|_| page_of(&dev, 0)).collect();
            let (first, second) = bufs.split_at_mut(4);
            let mut ops1: Vec<(Ppa, &mut [u8])> = first
                .iter_mut()
                .enumerate()
                .map(|(i, b)| (b0.page(i as u32), b.as_mut_slice()))
                .collect();
            let mut ops2: Vec<(Ppa, &mut [u8])> = second
                .iter_mut()
                .enumerate()
                .map(|(i, b)| (b0.page(4 + i as u32), b.as_mut_slice()))
                .collect();
            let t0 = 10_000_000;
            let c1 = dev.read_pages(t0, &mut ops1).unwrap();
            let c2 = dev.read_pages(c1.completed_at, &mut ops2).unwrap();
            (c1, c2)
        };
        let queued = {
            let mut dev = tiny_device();
            dev.set_queue_depth(1);
            fill(&mut dev);
            let b0 = BlockAddr::new(0, 0, 0, 0);
            let mut bufs: Vec<Vec<u8>> = (0..8).map(|_| page_of(&dev, 0)).collect();
            let (first, second) = bufs.split_at_mut(4);
            let mut ops1: Vec<(Ppa, &mut [u8])> = first
                .iter_mut()
                .enumerate()
                .map(|(i, b)| (b0.page(i as u32), b.as_mut_slice()))
                .collect();
            let mut ops2: Vec<(Ppa, &mut [u8])> = second
                .iter_mut()
                .enumerate()
                .map(|(i, b)| (b0.page(4 + i as u32), b.as_mut_slice()))
                .collect();
            let t0 = 10_000_000;
            let q1 = dev.submit_read_pages(t0, &mut ops1).unwrap();
            let q2 = dev.submit_read_pages(t0, &mut ops2).unwrap();
            assert_eq!(q2.issued_at, q1.completion.completed_at, "depth 1 gates");
            assert_eq!(dev.stats().queued_reads, 2);
            assert_eq!(dev.stats().read_stalls, 1);
            (q1.completion, q2.completion)
        };
        assert_eq!(sync, queued);
    }

    #[test]
    fn queued_read_gates_behind_inflight_program_and_counts_stalls() {
        // Regression for the FlashStats read counters: a point read submitted
        // while a program run occupies the die queue must be gated (a read
        // stall), counted in queued_reads/read_stalls and in the per-die read
        // occupancy — exactly like program/erase traffic already is.
        let mut dev = tiny_device();
        dev.set_queue_depth(1);
        let data = page_of(&dev, 7);
        let b0 = BlockAddr::new(0, 0, 0, 0);
        let ops: Vec<(Ppa, &[u8], Oob)> = (0..4)
            .map(|i| (b0.page(i), data.as_slice(), Oob::data(i as u64, 0)))
            .collect();
        let q = dev.submit_program_pages(0, &ops).unwrap();
        let mut buf = page_of(&dev, 0);
        let (oob, r) = dev.submit_read_page(0, b0.page(0), &mut buf).unwrap();
        assert_eq!(oob.lpn, 0);
        assert_eq!(buf, data);
        assert_eq!(
            r.issued_at,
            q.completion.completed_at,
            "the read must queue behind the in-flight program run"
        );
        assert!(r.completion.completed_at > q.completion.completed_at);
        let s = dev.stats();
        assert_eq!(s.queued_reads, 1);
        assert_eq!(s.read_stalls, 1);
        assert_eq!(s.queued_submissions, 2);
        assert_eq!(s.per_die_reads, vec![1]);
        assert_eq!(s.per_die_ops[0], 5, "4 programs + 1 read on die 0");
        assert_eq!((q.kind, r.kind), (OpKind::Program, OpKind::Read));
        // An ungated read on an idle die is not a stall.
        dev.drain_queues(r.completion.completed_at);
        let (_, r2) = dev
            .submit_read_page(r.completion.completed_at, b0.page(1), &mut buf)
            .unwrap();
        assert_eq!(r2.issued_at, r2.submitted_at);
        assert_eq!(dev.stats().read_stalls, 1, "ungated read is not a stall");
    }
}

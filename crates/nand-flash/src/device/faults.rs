//! Fault draws of [`NandDevice`]: the read, program and erase failure
//! models, die kills and the rejection of commands to a dead die.

use sim_utils::time::SimInstant;

use super::NandDevice;
use crate::addr::{BlockAddr, DieAddr};
use crate::error::{FlashError, FlashResult};
use crate::fault::ReadFaultOutcome;

impl NandDevice {
    // Every helper below is a no-op performing **zero RNG draws and zero
    // block-state updates** when no fault plan is installed, so the fault-off
    // device stays bit- and cycle-identical to a build without injection.

    /// Draw the read-error model for a read of `block` at `now`, counting the
    /// read against the block's read-disturb stress.
    pub(super) fn draw_read_fault(&mut self, now: SimInstant, block: BlockAddr) -> ReadFaultOutcome {
        if self.faults.is_none() {
            return ReadFaultOutcome::Clean;
        }
        let (erases, age, disturb) = {
            let b = self.block_ref(block);
            (
                b.erase_count(),
                now.saturating_sub(b.programmed_at()),
                b.read_disturb(),
            )
        };
        self.block_mut(block).note_read_disturb();
        let endurance = self.endurance;
        self.faults
            .as_mut()
            .map_or(ReadFaultOutcome::Clean, |plan| {
                plan.read_outcome(erases, endurance, age, disturb + 1)
            })
    }

    /// Draw the program-failure model for a program into `block`.
    pub(super) fn draw_program_fault(&mut self, block: BlockAddr) -> bool {
        if self.faults.is_none() {
            return false;
        }
        let erases = self.block_ref(block).erase_count();
        let endurance = self.endurance;
        self.faults
            .as_mut()
            .is_some_and(|plan| plan.program_fails(erases, endurance))
    }

    /// Note a program into `block` at `now` (the retention base of the read
    /// fault model).
    pub(super) fn note_programmed(&mut self, now: SimInstant, block: BlockAddr) {
        if self.faults.is_some() {
            self.block_mut(block).note_programmed_at(now);
        }
    }

    /// Draw the erase-failure model for the `erase_count`-th cycle.
    pub(super) fn draw_erase_fault(&mut self, erase_count: u64) -> bool {
        let endurance = self.endurance;
        self.faults
            .as_mut()
            .is_some_and(|plan| plan.erase_fails(erase_count, endurance))
    }

    /// Advance the array-command counter and fire any kill specs that are
    /// due, as of `now`.  A strict no-op (no counter, no scan) unless the
    /// plan carries kill specs, so the kill-free device stays bit- and
    /// cycle-identical.  When a kill fires, the die is marked dead, its
    /// in-flight queued commands are lost (counted in
    /// [`FlashStats::inflight_die_failures`](crate::FlashStats)), and its
    /// queue window is cleared.
    pub(super) fn tick_kills(&mut self, now: SimInstant) {
        if !self.has_kills {
            return;
        }
        let cmd = self.kill_commands;
        self.kill_commands += 1;
        let Some(plan) = &self.faults else { return };
        for (i, spec) in plan.kills.iter().enumerate() {
            if self.kills_applied[i] || cmd < spec.at_command {
                continue;
            }
            self.kills_applied[i] = true;
            let die = spec.die as usize;
            if die < self.dead_dies.len() && !self.dead_dies[die] {
                self.dead_dies[die] = true;
                self.stats.die_failures += 1;
                self.stats.inflight_die_failures += self.queues.fail_die(die, now) as u64;
            }
        }
    }

    /// Reject a command addressed to a dead die.  Pure rejection: no timing
    /// is charged and no completion is recorded (a real controller NAKs the
    /// submission immediately).
    pub(super) fn check_die_alive(&mut self, die: DieAddr) -> FlashResult<()> {
        if self.is_die_dead(die) {
            self.stats.dead_die_rejections += 1;
            return Err(FlashError::DieFailed(die));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::Ppa;
    use crate::device::tests::{assert_store_consistent, page_of, tiny_device};
    use crate::device::DeviceConfig;
    use crate::geometry::FlashGeometry;
    use crate::interface::NativeFlashInterface;
    use crate::oob::Oob;
    use crate::page::PageState;
    use crate::stats::FlashStats;

    use crate::fault::FaultPlan;

    #[test]
    fn run_validates_its_first_address_before_the_dead_die_check() {
        // Regression: multi-page runs used to ask whether the first op's die
        // was alive *before* validating that address, so an out-of-range page
        // on a dead die was rejected as `DieFailed` (and counted as a
        // dead-die rejection) by a run but as `InvalidAddress` by the same
        // address in a single command.
        let plan = FaultPlan::seeded(1).with_die_kill(0, 0);
        let mut dev = kill_only_device(plan);
        let g = *dev.geometry();
        let data = page_of(&dev, 0x5A);
        let bad = Ppa::new(0, 0, 0, 0, g.pages_per_block); // page index out of range
        let ok = Ppa::new(0, 0, 0, 0, 0);
        let mut b0 = page_of(&dev, 0);
        let mut b1 = page_of(&dev, 0);
        // The first command (any command) fires the kill of die 0.
        assert!(matches!(
            dev.read_pages(0, &mut [(bad, b0.as_mut_slice()), (ok, b1.as_mut_slice())]),
            Err(FlashError::InvalidAddress { .. })
        ));
        assert!(dev.is_die_dead(DieAddr::new(0, 0)));
        assert!(matches!(
            dev.program_pages(
                0,
                &[(bad, data.as_slice(), Oob::data(1, 0)), (ok, data.as_slice(), Oob::data(2, 0))]
            ),
            Err(FlashError::InvalidAddress { .. })
        ));
        assert!(matches!(
            dev.read_page(0, bad, &mut b0),
            Err(FlashError::InvalidAddress { .. })
        ));
        assert_eq!(dev.stats().dead_die_rejections, 0);
        // A valid address on the dead die is still the typed die failure.
        assert!(matches!(
            dev.read_pages(0, &mut [(ok, b0.as_mut_slice()), (ok, b1.as_mut_slice())]),
            Err(FlashError::DieFailed(_))
        ));
        assert_eq!(dev.stats().dead_die_rejections, 1);
    }

    /// A device with an explicitly set fault plan.
    fn faulty_device(plan: FaultPlan) -> NandDevice {
        let mut cfg = DeviceConfig::new(FlashGeometry::tiny());
        cfg.faults = Some(plan);
        NandDevice::new(cfg)
    }

    fn certain_program_failure() -> FaultPlan {
        let mut plan = FaultPlan::seeded(7);
        plan.program_fail_base = 1.0;
        plan
    }

    #[test]
    fn program_failure_consumes_the_page_and_counts() {
        let mut dev = faulty_device(certain_program_failure());
        let data = page_of(&dev, 0x11);
        let ppa = Ppa::new(0, 0, 0, 0, 0);
        let err = dev.program_page(0, ppa, &data, Oob::data(1, 0)).unwrap_err();
        assert_eq!(err, FlashError::ProgramFailed(ppa));
        assert_eq!(dev.stats().program_failures, 1);
        assert_eq!(dev.stats().programs, 1, "the attempt still cost a program");
        // The page is consumed: sequential rule moves on, the page is invalid.
        let info = dev.block_info(ppa.block_addr()).unwrap();
        assert_eq!(info.valid_pages, 0);
        assert_eq!(info.invalid_pages, 1);
        // The block is NOT device-retired: the DBMS decides after relocation.
        assert!(dev.block_info(ppa.block_addr()).unwrap().usable);
    }

    #[test]
    fn failed_copyback_keeps_the_source_readable_and_frees_its_slot_at_erase() {
        let mut dev = tiny_device();
        let data = page_of(&dev, 0x33);
        let (src, dst) = (Ppa::new(0, 0, 0, 0, 0), Ppa::new(0, 0, 0, 1, 0));
        dev.program_page(0, src, &data, Oob::data(4, 0)).unwrap();
        dev.set_fault_plan(Some(certain_program_failure()));
        let err = dev.copyback(0, src, dst, None).unwrap_err();
        assert_eq!(err, FlashError::ProgramFailed(dst));
        dev.set_fault_plan(None);
        assert_eq!(
            dev.page_state(dst).unwrap(),
            PageState::Invalid,
            "the destination is consumed"
        );
        let mut buf = page_of(&dev, 0);
        dev.read_page(0, src, &mut buf).unwrap();
        assert_eq!(buf, data, "the source is untouched");
        assert_store_consistent(&dev);
        dev.erase_block(0, dst.block_addr()).unwrap();
        assert_eq!(dev.store.live(), 1, "the source still holds the slot");
        dev.erase_block(0, src.block_addr()).unwrap();
        assert_eq!(dev.store.live(), 0);
        assert_store_consistent(&dev);
    }

    #[test]
    fn batched_program_failure_keeps_the_committed_prefix() {
        let mut plan = FaultPlan::seeded(7);
        // Draw order per page: one program draw each; fail the third draw.
        plan.program_fail_base = 0.0;
        let mut dev = faulty_device(plan);
        let data = page_of(&dev, 0x22);
        let block = BlockAddr::new(0, 0, 0, 0);
        let ops: Vec<(Ppa, &[u8], Oob)> = (0..3)
            .map(|p| (block.page(p), data.as_slice(), Oob::data(p as u64, 0)))
            .collect();
        // base 0.0 never fails: whole run commits.
        dev.program_pages(0, &ops).unwrap();
        dev.erase_block(1, block).unwrap();
        // Now a certain-failure plan: first page of the run fails, nothing
        // after it is charged.
        dev.set_fault_plan(Some(certain_program_failure()));
        let err = dev.program_pages(2, &ops).unwrap_err();
        assert_eq!(err, FlashError::ProgramFailed(block.page(0)));
        let info = dev.block_info(block).unwrap();
        assert_eq!(info.valid_pages, 0);
        assert_eq!(info.invalid_pages, 1, "only the failing page was consumed");
    }

    #[test]
    fn erase_failure_marks_the_block_grown_bad() {
        let mut plan = FaultPlan::seeded(3);
        plan.erase_fail_knee = 0.99;
        plan.erase_fail_prob = 1.0;
        let mut cfg = DeviceConfig::new(FlashGeometry::tiny());
        cfg.faults = Some(plan);
        cfg.endurance_override = Some(4);
        let mut dev = NandDevice::new(cfg);
        let b = BlockAddr::new(0, 0, 0, 0);
        // Below the knee the plan never even draws; at full wear (the 4th
        // erase reaches erase_count == endurance) the ramp hits 1.0.
        for t in 0..3u64 {
            dev.erase_block(t, b).unwrap();
        }
        let err = dev.erase_block(10, b).unwrap_err();
        assert_eq!(err, FlashError::EraseFailed(b));
        assert_eq!(dev.stats().erase_failures, 1);
        assert!(!dev.block_info(b).unwrap().usable);
        // Further operations on the block are rejected as bad-block ops.
        let data = page_of(&dev, 0);
        assert!(matches!(
            dev.program_page(1, b.page(0), &data, Oob::data(0, 0)),
            Err(FlashError::BadBlock(_))
        ));
    }

    #[test]
    fn read_faults_split_into_corrected_and_uncorrectable() {
        let mut plan = FaultPlan::seeded(5);
        plan.read_error_base = 1.0;
        plan.uncorrectable_fraction = 0.0;
        let mut dev = faulty_device(plan);
        let data = page_of(&dev, 0x33);
        let ppa = Ppa::new(0, 0, 0, 0, 0);
        dev.program_page(0, ppa, &data, Oob::data(4, 0)).unwrap();
        let mut buf = page_of(&dev, 0);
        // Every read hits bit errors but ECC corrects them all.
        dev.read_page(1_000, ppa, &mut buf).unwrap();
        assert_eq!(buf, data);
        assert_eq!(dev.stats().corrected_reads, 1);
        assert_eq!(dev.stats().uncorrectable_reads, 0);
        // Now every error overwhelms ECC.
        let mut plan = FaultPlan::seeded(5);
        plan.read_error_base = 1.0;
        plan.uncorrectable_fraction = 1.0;
        dev.set_fault_plan(Some(plan));
        let err = dev.read_page(2_000, ppa, &mut buf).unwrap_err();
        assert_eq!(err, FlashError::UncorrectableEcc(ppa));
        assert_eq!(dev.stats().uncorrectable_reads, 1);
        // Read-disturb stress accumulated on the block across both reads.
        assert_eq!(dev.read_disturb(ppa.block_addr()).unwrap(), 2);
    }

    #[test]
    fn failed_submission_holds_its_die_queue_slot() {
        let mut dev = faulty_device(certain_program_failure());
        dev.set_queue_depth(1);
        let data = page_of(&dev, 0x44);
        let ppa = Ppa::new(0, 0, 0, 0, 0);
        let ops: Vec<(Ppa, &[u8], Oob)> = vec![(ppa, data.as_slice(), Oob::data(1, 0))];
        let err = dev.submit_program_pages(0, &ops).unwrap_err();
        assert_eq!(err, FlashError::ProgramFailed(ppa));
        // The failed program occupied the die for its full duration: it is
        // counted and holds its slot, so the next submission is gated.
        assert_eq!(dev.stats().queued_submissions, 1);
        assert_eq!(dev.inflight_on(ppa.die_addr(), 0), 1);
        let busy = dev.die_busy_until(ppa.die_addr());
        let q = dev.submit_erase(0, BlockAddr::new(0, 0, 0, 1)).unwrap();
        assert_eq!(q.issued_at, busy, "gated behind the failed program");
        assert_eq!(dev.stats().queue_gated_submissions, 1);
    }

    #[test]
    fn same_fault_seed_reproduces_the_same_failures() {
        let run = |seed: u64| -> (Vec<bool>, FlashStats) {
            let mut plan = FaultPlan::seeded(seed);
            plan.program_fail_base = 0.3;
            plan.read_error_base = 0.3;
            let mut dev = faulty_device(plan);
            let data = page_of(&dev, 0x55);
            let block = BlockAddr::new(0, 0, 0, 0);
            let mut outcomes = Vec::new();
            let mut buf = page_of(&dev, 0);
            for p in 0..dev.geometry().pages_per_block {
                let ppa = block.page(p);
                let ok = dev.program_page(0, ppa, &data, Oob::data(p as u64, 0)).is_ok();
                outcomes.push(ok);
                if ok {
                    outcomes.push(dev.read_page(1_000, ppa, &mut buf).is_ok());
                }
            }
            (outcomes, dev.stats().clone())
        };
        let (a_out, a_stats) = run(42);
        let (b_out, b_stats) = run(42);
        assert_eq!(a_out, b_out);
        assert_eq!(a_stats.program_failures, b_stats.program_failures);
        assert_eq!(a_stats.uncorrectable_reads, b_stats.uncorrectable_reads);
        assert_eq!(a_stats.corrected_reads, b_stats.corrected_reads);
        // A different seed produces a different failure pattern (with these
        // probabilities the chance of an identical 64+-draw sequence is nil).
        let (c_out, _) = run(43);
        assert_ne!(a_out, c_out);
    }

    /// A small()-geometry device (4 dies) with every probabilistic failure
    /// mode zeroed, so only the deterministic kill specs of `plan` can fire.
    fn kill_only_device(plan: FaultPlan) -> NandDevice {
        let mut plan = plan;
        plan.program_fail_base = 0.0;
        plan.erase_fail_prob = 0.0;
        plan.read_error_base = 0.0;
        let mut cfg = DeviceConfig::new(FlashGeometry::small());
        cfg.faults = Some(plan);
        NandDevice::new(cfg)
    }

    #[test]
    fn die_kill_fires_at_the_seeded_command_index() {
        let plan = FaultPlan::seeded(1).with_die_kill(2, 1);
        let mut dev = kill_only_device(plan);
        let data = page_of(&dev, 0x11);
        // Command 0: die 0.  Command 1: die 1.  Command 2 fires the kill.
        dev.program_page(0, Ppa::new(0, 0, 0, 0, 0), &data, Oob::data(1, 0))
            .unwrap();
        dev.program_page(0, Ppa::new(0, 1, 0, 0, 0), &data, Oob::data(2, 0))
            .unwrap();
        let err = dev
            .program_page(0, Ppa::new(0, 1, 0, 0, 1), &data, Oob::data(3, 0))
            .unwrap_err();
        assert_eq!(err, FlashError::DieFailed(DieAddr::new(0, 1)));
        assert!(dev.is_die_dead(DieAddr::new(0, 1)));
        assert!(dev.any_die_dead());
        assert_eq!(dev.stats().die_failures, 1);
        assert_eq!(dev.stats().dead_die_rejections, 1);
        // The surviving dies keep working; the dead one rejects reads too.
        dev.program_page(0, Ppa::new(1, 0, 0, 0, 0), &data, Oob::data(4, 0))
            .unwrap();
        let mut buf = page_of(&dev, 0);
        let err = dev.read_page(0, Ppa::new(0, 1, 0, 0, 0), &mut buf).unwrap_err();
        assert_eq!(err, FlashError::DieFailed(DieAddr::new(0, 1)));
        assert_eq!(dev.stats().dead_die_rejections, 2);
        // Host bookkeeping on a dead die stays allowed.
        dev.invalidate_page(Ppa::new(0, 1, 0, 0, 0)).unwrap();
        dev.mark_block_bad(BlockAddr::new(0, 1, 0, 0)).unwrap();
    }

    #[test]
    fn die_kill_fails_inflight_queued_commands() {
        let plan = FaultPlan::seeded(1).with_die_kill(1, 1);
        let mut dev = kill_only_device(plan);
        dev.set_queue_depth(8);
        let data = page_of(&dev, 0x33);
        // Command 0: a queued 2-page program on die 1, in flight past t=0.
        let ops = [
            (Ppa::new(0, 1, 0, 0, 0), data.as_slice(), Oob::data(1, 0)),
            (Ppa::new(0, 1, 0, 0, 1), data.as_slice(), Oob::data(2, 0)),
        ];
        dev.submit_program_pages(0, &ops).unwrap();
        // Command 1 fires the kill; the submission itself is then rejected.
        let mut buf = page_of(&dev, 0);
        let err = dev
            .submit_read_page(0, Ppa::new(0, 1, 0, 0, 0), &mut buf)
            .unwrap_err();
        assert_eq!(err, FlashError::DieFailed(DieAddr::new(0, 1)));
        assert_eq!(dev.stats().die_failures, 1);
        assert_eq!(
            dev.stats().inflight_die_failures,
            1,
            "the in-flight program is lost with its die"
        );
        assert_eq!(dev.inflight_on(DieAddr::new(0, 1), 0), 0);
    }

    #[test]
    fn faults_off_keeps_the_device_fault_free() {
        let mut cfg = DeviceConfig::new(FlashGeometry::tiny());
        cfg.faults = None;
        let mut dev = NandDevice::new(cfg);
        let data = page_of(&dev, 0x66);
        let block = BlockAddr::new(0, 0, 0, 0);
        let mut buf = page_of(&dev, 0);
        for p in 0..dev.geometry().pages_per_block {
            dev.program_page(0, block.page(p), &data, Oob::data(p as u64, 0))
                .unwrap();
            dev.read_page(1_000, block.page(p), &mut buf).unwrap();
        }
        dev.erase_block(2_000, block).unwrap();
        assert_eq!(dev.stats().program_failures, 0);
        assert_eq!(dev.stats().erase_failures, 0);
        assert_eq!(dev.stats().corrected_reads, 0);
        assert_eq!(dev.stats().uncorrectable_reads, 0);
        // Read-disturb bookkeeping is not even maintained when faults are off
        // (the hot read path must stay untouched).
        assert_eq!(dev.read_disturb(block).unwrap(), 0);
    }
}

//! The rebuild seam of [`NoFtl`]: noticing a die failure and walking the
//! dead die's mapped pages onto surviving dies.

use nand_flash::{FlashResult, NativeFlashInterface};
use sim_utils::time::SimInstant;

use super::NoFtl;

/// Mapped pages one background rebuild step reconstructs before yielding —
/// small so foreground traffic slips between steps (a positive
/// `gc_schedule_read_occupancy` additionally defers steps at read-hot
/// instants).
const REBUILD_BATCH_PAGES: u64 = 8;

impl NoFtl {
    /// React to die failures the device reported: diff the device's dead-die
    /// set against what this layer already handled, and for each *new* death
    /// mark the die dead in the allocator, open a rebuild cursor over its
    /// page range, and seal the open stripe (its in-memory XOR still covers
    /// members whose program was swallowed by the failure).  Cheap no-op
    /// when no die is dead.
    pub(super) fn note_die_failures(&mut self, now: SimInstant) -> FlashResult<SimInstant> {
        let mut t = now;
        if !self.device.any_die_dead() {
            return Ok(t);
        }
        let dead: Vec<bool> = self.device.dead_dies().to_vec();
        if self.known_dead.len() < dead.len() {
            self.known_dead.resize(dead.len(), false);
        }
        let mut newly = false;
        for (d, &is_dead) in dead.iter().enumerate() {
            if is_dead && !self.known_dead[d] {
                self.known_dead[d] = true;
                self.regions.mark_die_dead(d);
                self.stats.die_failures_detected += 1;
                self.rebuild_cursors.push((d, 0));
                newly = true;
            }
        }
        if newly && self.redundancy_active && !self.open_stripe.is_empty() {
            t = self.seal_open_stripe(t)?;
        }
        Ok(t)
    }

    /// One background rebuild step, gated like [`NoFtl::schedule_gc`]: when
    /// the instant is read-hot (in-flight reads at or above the GC
    /// scheduling threshold) the step defers instead of competing with
    /// foreground traffic.  Walks the next dead die's mapped pages,
    /// reconstructing up to `REBUILD_BATCH_PAGES` of them per call onto
    /// surviving dies through the normal write path.  Returns `Ok(None)`
    /// when there is nothing to do — in particular, a single cheap check
    /// when no die has failed.
    pub fn schedule_rebuild(&mut self, now: SimInstant) -> FlashResult<Option<SimInstant>> {
        if !self.device.any_die_dead() {
            return Ok(None);
        }
        let mut t = self.note_die_failures(now)?;
        if self.rebuild_cursors.is_empty() {
            return Ok(None);
        }
        if self.gc_schedule_read_occupancy > 0
            && self.read_occupancy(now) >= self.gc_schedule_read_occupancy
        {
            self.stats.rebuild_deferred_hot += 1;
            return Ok(None);
        }
        let (end, progressed) = self.rebuild_step(t, REBUILD_BATCH_PAGES)?;
        t = t.max(end);
        if progressed {
            self.stats.rebuild_scheduled += 1;
            Ok(Some(t))
        } else {
            Ok(None)
        }
    }

    /// Synchronous full rebuild: loop `rebuild_step` until every
    /// dead die's page range has been walked.  The naive foreground
    /// alternative to [`NoFtl::schedule_rebuild`] (used by the availability
    /// benchmark's unscheduled leg and by tests).
    pub fn rebuild_all(&mut self, now: SimInstant) -> FlashResult<SimInstant> {
        let mut t = self.note_die_failures(now)?;
        while !self.rebuild_cursors.is_empty() {
            let (end, _) = self.rebuild_step(t, u64::MAX)?;
            t = t.max(end);
        }
        Ok(t)
    }

    /// Walk the first rebuild cursor, reconstructing up to `budget` mapped
    /// pages.  Returns `(end, progressed)`.
    fn rebuild_step(&mut self, now: SimInstant, budget: u64) -> FlashResult<(SimInstant, bool)> {
        let Some(&(die, start)) = self.rebuild_cursors.first() else {
            return Ok((now, false));
        };
        let g = *self.device.geometry();
        let ppd = g.pages_per_die();
        let base = die as u64 * ppd;
        let mut offset = start;
        let mut t = now;
        let mut processed = 0u64;
        while offset < ppd && processed < budget {
            let flat = base + offset;
            offset += 1;
            let Some(lpn) = self.map.reverse(flat) else {
                continue;
            };
            processed += 1;
            self.stats.pages_scanned += 1;
            let mut buf = vec![0u8; self.page_size];
            match self.reconstruct_flat(t, flat, &mut buf) {
                Ok(end) => {
                    t = t.max(end);
                    let w = self.write(t, lpn, &buf)?;
                    t = t.max(w.completed_at);
                    self.stats.pages_rebuilt += 1;
                }
                Err(_) => {
                    // No surviving redundancy: the mapping stays pointed at
                    // the dead die so reads keep failing typed (WAL-replay
                    // page rebuild is the layer above).
                    self.stats.pages_lost += 1;
                }
            }
        }
        if offset >= ppd {
            self.rebuild_cursors.remove(0);
        } else {
            self.rebuild_cursors[0] = (die, offset);
        }
        Ok((t, processed > 0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::RedundancyPolicy;
    use crate::noftl::tests::{die_of_lpn, kill_plan, page, small_noftl};
    use nand_flash::{FlashError, Ppa};

    #[test]
    fn rebuild_rehomes_parity_protected_pages() {
        let mut n = small_noftl();
        n.set_redundancy_all(RedundancyPolicy::Parity(3));
        let mut now = 0;
        for lpn in 0..32u64 {
            let data = page(&n, lpn as u8 + 1);
            now = n.write(now, lpn, &data).unwrap().completed_at;
        }
        let dead_die = die_of_lpn(&n, 0);
        let lost: Vec<u64> = (0..32u64)
            .filter(|&l| die_of_lpn(&n, l) == dead_die)
            .collect();
        assert!(!lost.is_empty());
        let live_lpn = (0..32u64)
            .find(|&l| die_of_lpn(&n, l) != dead_die)
            .unwrap();
        n.set_fault_plan(Some(kill_plan(dead_die)));
        let mut buf = page(&n, 0);
        n.read(now, live_lpn, &mut buf).unwrap();
        now = n.rebuild_all(now).unwrap();
        let rb = n.stats();
        assert_eq!(rb.die_failures_detected, 1);
        assert_eq!(rb.pages_rebuilt, lost.len() as u64);
        assert_eq!(rb.pages_lost, 0, "parity must recover every lost page");
        assert!(rb.accounted());
        // Every page — including the rebuilt ones — reads back bit-identical,
        // and nothing is mapped to the dead die any more.
        for lpn in 0..32u64 {
            n.read(now, lpn, &mut buf).unwrap();
            assert_eq!(buf, page(&n, lpn as u8 + 1), "lpn {lpn}");
            assert_ne!(die_of_lpn(&n, lpn), dead_die);
        }
        // The rebuilt pages are served by plain reads, not degraded ones.
        let degraded_before = n.stats().degraded_reads;
        n.read(now, lost[0], &mut buf).unwrap();
        assert_eq!(n.stats().degraded_reads, degraded_before);
    }

    #[test]
    fn die_loss_without_redundancy_counts_losses() {
        let mut n = small_noftl();
        let mut now = 0;
        for lpn in 0..8u64 {
            let data = page(&n, lpn as u8 + 1);
            now = n.write(now, lpn, &data).unwrap().completed_at;
        }
        let dead_die = die_of_lpn(&n, 2);
        let live_lpn = (0..8u64)
            .find(|&l| die_of_lpn(&n, l) != dead_die)
            .unwrap();
        n.set_fault_plan(Some(kill_plan(dead_die)));
        let mut buf = page(&n, 0);
        n.read(now, live_lpn, &mut buf).unwrap();
        now = n.rebuild_all(now).unwrap();
        let rb = n.stats();
        assert_eq!(rb.pages_rebuilt, 0);
        assert!(rb.pages_lost >= 1, "unprotected pages are lost");
        assert!(rb.accounted());
        // The mapping still points at the dead die: reads keep failing typed
        // so the storage engine's WAL-replay page rebuild can take over.
        let err = n.read(now, 2, &mut buf).unwrap_err();
        assert!(matches!(err, FlashError::DieFailed(_)), "got {err:?}");
    }

    #[test]
    fn schedule_rebuild_defers_hot_and_progresses_cold() {
        let mut n = small_noftl();
        n.set_redundancy_all(RedundancyPolicy::Parity(3));
        let mut now = 0;
        for lpn in 0..32u64 {
            let data = page(&n, lpn as u8 + 1);
            now = n.write(now, lpn, &data).unwrap().completed_at;
        }
        // No die dead: a single cheap check, no work, no counters.
        assert_eq!(n.schedule_rebuild(now).unwrap(), None);
        assert_eq!(n.stats().rebuild_scheduled, 0);
        let dead_die = die_of_lpn(&n, 0);
        let live_lpn = (0..32u64)
            .find(|&l| die_of_lpn(&n, l) != dead_die)
            .unwrap();
        n.set_fault_plan(Some(kill_plan(dead_die)));
        let g = *n.device.geometry();
        let mut buf = page(&n, 0);
        n.read(now, live_lpn, &mut buf).unwrap();
        // Read-hot instant: one read in flight defers the rebuild step.
        n.gc_schedule_read_occupancy = 1;
        let live_flat = n.map.get(live_lpn).unwrap();
        let (_, sub) = n
            .device
            .submit_read_page(now, Ppa::from_flat(&g, live_flat), &mut buf)
            .unwrap();
        assert_eq!(n.schedule_rebuild(now).unwrap(), None);
        assert_eq!(n.stats().rebuild_deferred_hot, 1);
        assert_eq!(n.stats().rebuild_scheduled, 0);
        // Read-cold instants: bounded steps make progress until the dead
        // die's page range is fully walked.
        let mut t = sub.completion.completed_at;
        while let Some(end) = n.schedule_rebuild(t).unwrap() {
            t = end.max(t);
        }
        let rb = n.stats();
        assert!(rb.rebuild_scheduled >= 1);
        assert_eq!(rb.rebuild_deferred_hot, 1);
        assert_eq!(rb.pages_lost, 0);
        assert!(rb.pages_rebuilt >= 1);
        assert!(rb.accounted());
        for lpn in 0..32u64 {
            n.read(t, lpn, &mut buf).unwrap();
            assert_eq!(buf, page(&n, lpn as u8 + 1), "lpn {lpn}");
        }
    }

    #[test]
    fn die_failure_seals_the_open_stripe() {
        let mut n = small_noftl();
        n.set_redundancy_all(RedundancyPolicy::Parity(3));
        let mut now = 0;
        // Two members in the open stripe (k = 3: not sealed yet).
        for lpn in 0..2u64 {
            let data = page(&n, lpn as u8 + 1);
            now = n.write(now, lpn, &data).unwrap().completed_at;
        }
        assert_eq!(n.stats().stripes_sealed, 0);
        let dead_die = die_of_lpn(&n, 0);
        let live_lpn = 1u64;
        assert_ne!(die_of_lpn(&n, live_lpn), dead_die);
        n.set_fault_plan(Some(kill_plan(dead_die)));
        let mut buf = page(&n, 0);
        n.read(now, live_lpn, &mut buf).unwrap();
        // Noticing the failure seals the short stripe from its in-memory
        // XOR — the member on the dead die is covered without re-reading it.
        n.schedule_rebuild(now).unwrap();
        assert_eq!(n.stats().stripes_sealed, 1);
        n.rebuild_all(now).unwrap();
        assert_eq!(n.stats().pages_lost, 0);
        n.read(now, 0, &mut buf).unwrap();
        assert_eq!(buf, page(&n, 1));
    }
}

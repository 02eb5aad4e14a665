//! The redundancy seam of [`NoFtl`]: parity stripes and mirror copies, how
//! a written page is protected, how an erase re-protects its block's
//! survivors, and how a page on a dead die is read.

use nand_flash::{BlockAddr, FlashError, FlashResult, NativeFlashInterface, Oob, OpCompletion, Ppa};
use sim_utils::time::SimInstant;

use super::NoFtl;
use crate::config::RedundancyPolicy;
use crate::regions::RegionId;

/// Sentinel: "this physical page is not in any parity stripe".
const NO_STRIPE: u32 = u32::MAX;
/// Sentinel: "this physical page has no mirror copy".
const NO_MIRROR: u64 = u64::MAX;

/// A sealed parity stripe: up to `k` data pages on pairwise-distinct dies
/// plus one XOR parity page on yet another die.  The stripe covers the
/// *flash contents* of its pages — content survives logical invalidation
/// (NAND keeps it until the block erases), so a stripe only breaks when one
/// of its blocks is erased or retired.
#[derive(Debug, Clone)]
pub(super) struct Stripe {
    /// Flat physical addresses of the data members.
    members: Vec<u64>,
    /// Flat physical address of the parity page.
    parity: u64,
}

/// XOR `data` into `acc` (parity accumulation and reconstruction).
fn xor_into(acc: &mut [u8], data: &[u8]) {
    for (a, b) in acc.iter_mut().zip(data.iter()) {
        *a ^= *b;
    }
}

impl NoFtl {
    /// Redundancy policy of `region` (`None` when unconfigured).
    pub fn redundancy_policy(&self, region: RegionId) -> RedundancyPolicy {
        self.redundancy
            .get(region)
            .copied()
            .unwrap_or(RedundancyPolicy::None)
    }

    /// Apply one redundancy policy to every region.
    pub fn set_redundancy_all(&mut self, policy: RedundancyPolicy) {
        self.redundancy = vec![policy; self.regions.regions()];
        self.refresh_redundancy();
    }

    /// Recompute the protection gate, and size the stripe and mirror tables
    /// the first time a region is protected.
    pub(super) fn refresh_redundancy(&mut self) {
        self.redundancy_active = self.redundancy.iter().any(|p| p.is_protected());
        if self.redundancy_active && self.stripe_of.is_empty() {
            let total = self.device.geometry().total_pages() as usize;
            self.stripe_of = vec![NO_STRIPE; total];
            self.mirror_of = vec![NO_MIRROR; total];
        }
    }

    /// Redundancy policy governing logical page `lpn` — the page's striping
    /// region decides, regardless of where a spill placed the physical copy,
    /// so a page's protection level is a stable function of its address.
    #[inline]
    pub(super) fn policy_of_lpn(&self, lpn: u64) -> RedundancyPolicy {
        self.redundancy
            .get(self.regions.region_of_lpn(lpn))
            .copied()
            .unwrap_or(RedundancyPolicy::None)
    }

    /// The mirror copy linked to the page at `flat`, if any.
    fn mirror_copy(&self, flat: u64) -> Option<u64> {
        self.mirror_of.get(flat as usize).copied().filter(|&m| m != NO_MIRROR)
    }

    /// The sealed stripe the page at `flat` belongs to, if any.
    fn sealed_stripe(&self, flat: u64) -> Option<u32> {
        self.stripe_of.get(flat as usize).copied().filter(|&s| s != NO_STRIPE)
    }

    /// A device read issued for reconstruction / redundancy maintenance /
    /// rebuild: identical to [`NoFtl::read_page_retrying`], but the per-die
    /// read counts it adds are shadow-tracked so GC's read-heat accumulator
    /// can subtract them ([`NoFtl::gc_region_once`]) — rebuild traffic must
    /// not masquerade as foreground heat and bias victim selection.
    pub(super) fn reconstruction_read(
        &mut self,
        now: SimInstant,
        ppa: Ppa,
        buf: &mut [u8],
    ) -> FlashResult<(Oob, OpCompletion)> {
        let g = *self.device.geometry();
        let die = ppa.die_addr().flat(&g) as usize;
        let reads = |n: &Self| n.device.stats().per_die_reads.get(die).copied().unwrap_or(0);
        let before = reads(self);
        let res = self.read_page_retrying(now, ppa, buf);
        let after = reads(self);
        if self.rebuild_reads_per_die.len() <= die {
            self.rebuild_reads_per_die.resize(die + 1, 0);
        }
        self.rebuild_reads_per_die[die] += after.saturating_sub(before);
        res
    }

    /// Post-commit protection hook: `lpn` just landed at `ppa` with content
    /// `data`.  Depending on the page's policy this mirrors it onto another
    /// die or joins it to the open parity stripe.  Must be called *after*
    /// the mapping committed.  No-op (one branch) when no region is
    /// protected.
    pub(super) fn protect_written(
        &mut self,
        now: SimInstant,
        lpn: u64,
        ppa: Ppa,
        data: &[u8],
    ) -> FlashResult<SimInstant> {
        match self.policy_of_lpn(lpn) {
            RedundancyPolicy::None => Ok(now),
            RedundancyPolicy::Mirror => self.mirror_write(now, ppa, data),
            RedundancyPolicy::Parity(k) => {
                let g = *self.device.geometry();
                self.stripe_join(now, ppa.flat(&g), data, k)
            }
        }
    }

    /// Program a mirror copy of the page at `primary` onto a different die.
    /// The copy is an unmapped `Valid` page linked through `mirror_of`; GC
    /// treats it as garbage once the link is dropped.  When no other die has
    /// space the write stays unmirrored (allocation pressure must not fail
    /// the foreground write), and so does every write on a single-die
    /// geometry: a same-die "mirror" would survive no die failure.
    fn mirror_write(&mut self, now: SimInstant, primary: Ppa, data: &[u8]) -> FlashResult<SimInstant> {
        let g = *self.device.geometry();
        let total = g.total_dies() as usize;
        let src_die = primary.die_addr().flat(&g) as usize;
        let mut t = now;
        for off in 1..total {
            let (end, copy) = self.program_on_die(t, (src_die + off) % total, data)?;
            t = end;
            if let Some(mp) = copy {
                let pf = primary.flat(&g) as usize;
                let mf = mp.flat(&g) as usize;
                self.mirror_of[pf] = mf as u64;
                self.mirror_of[mf] = pf as u64;
                self.stats.mirror_pages_written += 1;
                return Ok(t);
            }
        }
        self.stats.mirror_skipped_no_space += 1;
        Ok(t)
    }

    /// Program the redundancy page `data` (a mirror copy or a parity page)
    /// on die `d`.  A failed program retires its block and the die's next
    /// page is tried.  Returns when the work ended and the page programmed,
    /// or `None` when the die has no page to spare or has died (the death
    /// is noted).
    fn program_on_die(
        &mut self,
        now: SimInstant,
        d: usize,
        data: &[u8],
    ) -> FlashResult<(SimInstant, Option<Ppa>)> {
        let mut t = now;
        while let Some(p) = self.regions.allocate_page_on_die(d, self.gc_low) {
            match self.device.program_page(t, p, data, Oob::meta(0)) {
                Ok(c) => return Ok((t.max(c.completed_at), Some(p))),
                Err(FlashError::ProgramFailed(failed)) => {
                    t = self.retire_failed_block(t, failed.block_addr())?;
                }
                Err(FlashError::DieFailed(_)) => return Ok((self.note_die_failures(t)?, None)),
                Err(e) => return Err(e),
            }
        }
        Ok((t, None))
    }

    /// Add a just-written data page to the open parity stripe, sealing first
    /// when its die collides with an existing member (stripes must stay
    /// die-disjoint — one die failure may cost at most one page per stripe)
    /// and sealing after the join once `k` members accumulated.
    fn stripe_join(
        &mut self,
        now: SimInstant,
        flat: u64,
        data: &[u8],
        k: usize,
    ) -> FlashResult<SimInstant> {
        let g = *self.device.geometry();
        let mut t = now;
        let die = Ppa::from_flat(&g, flat).die_addr().flat(&g);
        let collides = self
            .open_stripe
            .iter()
            .any(|&m| Ppa::from_flat(&g, m).die_addr().flat(&g) == die);
        if collides {
            t = self.seal_open_stripe(t)?;
        }
        if self.open_stripe_xor.len() != self.page_size {
            self.open_stripe_xor = vec![0u8; self.page_size];
        }
        xor_into(&mut self.open_stripe_xor, data);
        self.open_stripe.push(flat);
        if self.open_stripe.len() >= k.max(1) {
            t = self.seal_open_stripe(t)?;
        }
        Ok(t)
    }

    /// Seal the open stripe: program its in-memory XOR as a parity page on a
    /// die disjoint from every member (falling back to any die with space)
    /// and record the stripe.  Taking the member list out *first* makes the
    /// seal re-entrancy-safe — nested failure handling may notify die
    /// deaths, which themselves try to seal.
    pub(super) fn seal_open_stripe(&mut self, now: SimInstant) -> FlashResult<SimInstant> {
        if self.open_stripe.is_empty() {
            return Ok(now);
        }
        let g = *self.device.geometry();
        let members = std::mem::take(&mut self.open_stripe);
        let xor = std::mem::take(&mut self.open_stripe_xor);
        let member_dies: Vec<u64> = members
            .iter()
            .map(|&m| Ppa::from_flat(&g, m).die_addr().flat(&g))
            .collect();
        let total = g.total_dies() as usize;
        let is_member = |d: &usize| member_dies.contains(&(*d as u64));
        let mut t = now;
        let mut parity = None;
        for d in (0..total).filter(|d| !is_member(d)).chain((0..total).filter(is_member)) {
            let (end, placed) = self.program_on_die(t, d, &xor)?;
            t = end;
            if let Some(pp) = placed {
                // A placement on a member's die survives block loss but no
                // longer every single-die failure.
                parity = Some((pp, is_member(&d)));
                break;
            }
        }
        let Some((pp, degraded)) = parity else {
            // No die anywhere has spare pages: the members stay unprotected
            // rather than failing the foreground write that triggered the
            // seal.
            self.stats.stripes_abandoned += 1;
            return Ok(t);
        };
        let pflat = pp.flat(&g);
        let id = match self.stripe_free_ids.pop() {
            Some(id) => id,
            None => {
                self.stripes.push(None);
                (self.stripes.len() - 1) as u32
            }
        };
        for &m in &members {
            self.stripe_of[m as usize] = id;
        }
        self.stripe_of[pflat as usize] = id;
        self.stripes[id as usize] = Some(Stripe {
            members,
            parity: pflat,
        });
        self.stats.parity_pages_written += 1;
        self.stats.stripes_sealed += 1;
        if degraded {
            self.stats.stripes_sealed_degraded += 1;
        }
        Ok(t)
    }

    /// A mapped page at `old_flat` was superseded (overwrite or dead-page
    /// hint): its mirror copy, if any, is garbage too.  Stripe membership is
    /// deliberately *kept* — the superseded flash content persists until its
    /// block erases, so the stripe stays XOR-consistent until then.
    pub(super) fn drop_mirror_of(&mut self, old_flat: u64) -> FlashResult<()> {
        let Some(other) = self.mirror_copy(old_flat) else {
            return Ok(());
        };
        self.mirror_of[old_flat as usize] = NO_MIRROR;
        self.mirror_of[other as usize] = NO_MIRROR;
        let g = *self.device.geometry();
        self.device.invalidate_page(Ppa::from_flat(&g, other))?;
        Ok(())
    }

    /// Redundancy bookkeeping for a GC/scrub/wear relocation that moved
    /// `lpn` from `src` to `dst`.  Mirror links travel with the page (no new
    /// writes).  A parity-protected page *re-joins* the open stripe at its
    /// new address — the old stripe keeps covering the source flash content
    /// until that block erases, so protection never lapses mid-move;
    /// `data` carries the relocated content (the relocation path reads
    /// instead of copyback for parity regions exactly so it is available).
    pub(super) fn relink_redundancy(
        &mut self,
        now: SimInstant,
        src_flat: u64,
        dst_flat: u64,
        lpn: u64,
        data: Option<&[u8]>,
    ) -> FlashResult<SimInstant> {
        let mut t = now;
        if let Some(other) = self.mirror_copy(src_flat) {
            self.mirror_of[src_flat as usize] = NO_MIRROR;
            self.mirror_of[dst_flat as usize] = other;
            self.mirror_of[other as usize] = dst_flat;
        }
        if let RedundancyPolicy::Parity(k) = self.policy_of_lpn(lpn) {
            if let Some(data) = data {
                // If the source still sat in the open stripe, back its
                // content (identical to the relocated `data`) out of the
                // in-memory XOR and drop the stale member — otherwise the
                // stripe could later seal over a flat whose block was
                // erased and re-programmed in the meantime.
                if let Some(pos) = self.open_stripe.iter().position(|&m| m == src_flat) {
                    self.open_stripe.remove(pos);
                    xor_into(&mut self.open_stripe_xor, data);
                    self.stats.open_members_purged += 1;
                }
                t = self.stripe_join(t, dst_flat, data, k)?;
            }
        }
        Ok(t)
    }

    /// Pre-erase/retirement hook: every stripe with a member or parity page
    /// in `block` breaks (the erase destroys its flash content), and every
    /// mirror pair with a copy in `block` re-mirrors.  Still-mapped stripe
    /// members elsewhere are re-protected through the open stripe; members
    /// marooned on a *dead* die are reconstructed right now — this is the
    /// last instant their parity still exists.
    pub(super) fn break_redundancy_in_block(
        &mut self,
        now: SimInstant,
        block: BlockAddr,
    ) -> FlashResult<SimInstant> {
        let g = *self.device.geometry();
        // The still-open stripe is tracked only in memory (`stripe_of` is
        // assigned at seal time), so it must be purged separately: any
        // pending member inside this block loses its flash content to the
        // erase, and a later seal would otherwise cover re-programmed data.
        let mut t = self.purge_open_stripe_in_block(now, block)?;
        for off in 0..g.pages_per_block {
            let flat = block.page(off).flat(&g);
            if let Some(other) = self.mirror_copy(flat) {
                self.mirror_of[flat as usize] = NO_MIRROR;
                self.mirror_of[other as usize] = NO_MIRROR;
                t = self.remirror_survivor(t, flat, other)?;
            }
            if let Some(sid) = self.sealed_stripe(flat) {
                t = self.break_stripe(t, sid, Some(block))?;
            }
        }
        Ok(t)
    }

    /// Back every still-open stripe member inside `block` out of the
    /// in-memory XOR before the block's erase destroys its flash content:
    /// re-read the stored content (invalidated pages stay readable until the
    /// erase lands) and re-XOR it, then drop the member.  Members end up
    /// here stale — superseded by an overwrite/dead-page hint, or left
    /// behind by a relocation whose re-join went to the new address.  When a
    /// member's content is unreadable (e.g. its die died) the XOR cannot be
    /// repaired, so the whole open stripe is abandoned rather than sealed
    /// over garbage.
    fn purge_open_stripe_in_block(
        &mut self,
        now: SimInstant,
        block: BlockAddr,
    ) -> FlashResult<SimInstant> {
        if self.open_stripe.is_empty() {
            return Ok(now);
        }
        let g = *self.device.geometry();
        let dying: Vec<u64> = self
            .open_stripe
            .iter()
            .copied()
            .filter(|&m| Ppa::from_flat(&g, m).block_addr() == block)
            .collect();
        let mut t = now;
        let mut buf = vec![0u8; self.page_size];
        for m in dying {
            match self.reconstruction_read(t, Ppa::from_flat(&g, m), &mut buf) {
                Ok((_, c)) => {
                    t = t.max(c.completed_at);
                    xor_into(&mut self.open_stripe_xor, &buf);
                    self.open_stripe.retain(|&x| x != m);
                    self.stats.open_members_purged += 1;
                }
                Err(_) => {
                    self.open_stripe.clear();
                    self.open_stripe_xor.clear();
                    self.stats.stripes_abandoned += 1;
                    return Ok(t);
                }
            }
        }
        Ok(t)
    }

    /// One side of a mirror pair (`dying_flat`) is about to be erased.  If
    /// the pair still backs a mapped page, restore two-copy protection: read
    /// the surviving mapped side and mirror it again — or, when the mapped
    /// side sits on a dead die, rescue the content from the dying copy
    /// *before* the erase destroys the last readable instance.
    fn remirror_survivor(
        &mut self,
        now: SimInstant,
        dying_flat: u64,
        other_flat: u64,
    ) -> FlashResult<SimInstant> {
        let g = *self.device.geometry();
        let mut t = now;
        let Some(lpn) = self.map.reverse(other_flat) else {
            // Neither side is mapped any more (the data was superseded or
            // relocated); nothing worth protecting.
            return Ok(t);
        };
        let other = Ppa::from_flat(&g, other_flat);
        let other_die = other.die_addr().flat(&g) as usize;
        let mut buf = vec![0u8; self.page_size];
        if !self.regions.die_dead(other_die) {
            if let Ok((_, c)) = self.reconstruction_read(t, other, &mut buf) {
                t = t.max(c.completed_at);
                t = self.mirror_write(t, other, &buf)?;
            }
            return Ok(t);
        }
        // The mapped side is on a dead die: the dying copy is the last
        // readable instance.  Rescue it through the normal write path (which
        // updates the mapping off the dead die and re-protects).
        let dying = Ppa::from_flat(&g, dying_flat);
        if let Ok((_, c)) = self.reconstruction_read(t, dying, &mut buf) {
            t = t.max(c.completed_at);
            self.stats.reconstructed_pages += 1;
            let w = self.write(t, lpn, &buf)?;
            t = t.max(w.completed_at);
        }
        Ok(t)
    }

    /// Break stripe `sid` (a member or parity block is going away) and
    /// re-protect its still-mapped members: live-die members re-join the
    /// open stripe; dead-die members are reconstructed from the stripe now,
    /// while the parity still exists, and rewritten onto surviving dies.
    fn break_stripe(
        &mut self,
        now: SimInstant,
        sid: u32,
        dying_block: Option<BlockAddr>,
    ) -> FlashResult<SimInstant> {
        let Some(stripe) = self.stripes.get_mut(sid as usize).and_then(|s| s.take()) else {
            return Ok(now);
        };
        self.stripe_free_ids.push(sid);
        self.stats.stripes_broken += 1;
        for &p in stripe.members.iter().chain(std::iter::once(&stripe.parity)) {
            self.stripe_of[p as usize] = NO_STRIPE;
        }
        let g = *self.device.geometry();
        let mut t = now;
        for &m in &stripe.members {
            let pm = Ppa::from_flat(&g, m);
            if dying_block == Some(pm.block_addr()) {
                // Members inside the dying block were either relocated (and
                // re-protected at their new home) or superseded — the erase
                // only destroys garbage there.
                continue;
            }
            let Some(lpn) = self.map.reverse(m) else {
                continue;
            };
            let die = pm.die_addr().flat(&g) as usize;
            let mut buf = vec![0u8; self.page_size];
            if self.regions.die_dead(die) {
                // Last chance: every other stripe page (including any inside
                // the dying block — still readable until the erase lands) can
                // serve the XOR reconstruction.
                if let Ok(end) = self.reconstruct_from_stripe(t, &stripe, m, &mut buf) {
                    t = t.max(end);
                    let w = self.write(t, lpn, &buf)?;
                    t = t.max(w.completed_at);
                }
                // Unrecoverable members stay mapped to the dead die: reads
                // keep failing typed and the rebuild walker counts the loss.
                continue;
            }
            if let Ok((_, c)) = self.reconstruction_read(t, pm, &mut buf) {
                t = t.max(c.completed_at);
                if let RedundancyPolicy::Parity(k) = self.policy_of_lpn(lpn) {
                    t = self.stripe_join(t, m, &buf, k)?;
                    self.stats.members_reprotected += 1;
                }
            }
        }
        // The parity page is garbage the instant the stripe dissolves —
        // invalidated last, because the reconstructions above may still have
        // needed to read it.  Without this, blocks full of live parity pages
        // would count zero invalid pages and never become GC victims.
        self.device
            .invalidate_page(Ppa::from_flat(&g, stripe.parity))?;
        Ok(t)
    }

    /// XOR-reconstruct the content of stripe page `exclude` from every other
    /// page of `stripe`.  Fails if any needed page is unreadable (e.g. a
    /// second die failure) — single-failure tolerance, per parity design.
    fn reconstruct_from_stripe(
        &mut self,
        now: SimInstant,
        stripe: &Stripe,
        exclude: u64,
        buf: &mut [u8],
    ) -> FlashResult<SimInstant> {
        buf.fill(0);
        let g = *self.device.geometry();
        let mut t = now;
        let mut tmp = vec![0u8; self.page_size];
        for &p in stripe.members.iter().chain(std::iter::once(&stripe.parity)) {
            if p == exclude {
                continue;
            }
            let (_, c) = self.reconstruction_read(t, Ppa::from_flat(&g, p), &mut tmp)?;
            t = t.max(c.completed_at);
            xor_into(buf, &tmp);
        }
        self.stats.reconstructed_pages += 1;
        Ok(t)
    }

    /// Reconstruct the content of the mapped-but-unreadable page `flat`
    /// (its die died) from its mirror or parity stripe.  Fails typed with
    /// [`FlashError::DieFailed`] when no redundancy covers it.
    pub(super) fn reconstruct_flat(
        &mut self,
        now: SimInstant,
        flat: u64,
        buf: &mut [u8],
    ) -> FlashResult<SimInstant> {
        let g = *self.device.geometry();
        if let Some(other) = self.mirror_copy(flat) {
            let (_, c) = self.reconstruction_read(now, Ppa::from_flat(&g, other), buf)?;
            self.stats.reconstructed_pages += 1;
            return Ok(c.completed_at);
        }
        if let Some(sid) = self.sealed_stripe(flat) {
            if let Some(stripe) = self.stripes.get(sid as usize).cloned().flatten() {
                return self.reconstruct_from_stripe(now, &stripe, flat, buf);
            }
        }
        Err(FlashError::DieFailed(Ppa::from_flat(&g, flat).die_addr()))
    }

    /// Serve a host read of the page at `flat` degraded — through its
    /// redundancy instead of the dead die.
    pub(super) fn read_degraded(
        &mut self,
        now: SimInstant,
        flat: u64,
        buf: &mut [u8],
    ) -> FlashResult<OpCompletion> {
        let end = self.reconstruct_flat(now, flat, buf)?;
        self.stats.degraded_reads += 1;
        Ok(OpCompletion {
            started_at: now,
            completed_at: end,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::NoFtlConfig;
    use crate::noftl::tests::{die_of_lpn, faulty_noftl, kill_plan, page, small_noftl, tiny_noftl};
    use nand_flash::{FaultPlan, FlashGeometry};

    #[test]
    fn parity_stripes_seal_die_disjoint() {
        let mut n = small_noftl();
        n.set_redundancy_all(RedundancyPolicy::Parity(3));
        assert_eq!(n.redundancy_policy(0), RedundancyPolicy::Parity(3));
        let mut now = 0;
        for lpn in 0..12u64 {
            let data = page(&n, lpn as u8 + 1);
            now = n.write(now, lpn, &data).unwrap().completed_at;
        }
        let rs = n.stats();
        assert_eq!(rs.stripes_sealed, 4, "12 writes at k = 3 seal 4 stripes");
        assert_eq!(rs.parity_pages_written, 4);
        assert_eq!(rs.stripes_broken, 0);
        // Every stripe (members + parity) must be die-disjoint: one die
        // failure may cost at most one page per stripe.
        let g = *n.device().geometry();
        for stripe in n.stripes.iter().flatten() {
            let mut dies: Vec<u64> = stripe
                .members
                .iter()
                .chain(std::iter::once(&stripe.parity))
                .map(|&m| Ppa::from_flat(&g, m).die_addr().flat(&g))
                .collect();
            let total = dies.len();
            dies.sort_unstable();
            dies.dedup();
            assert_eq!(dies.len(), total, "stripe pages share a die");
        }
        // Reads of parity-protected pages stay plain reads while no die is
        // dead.
        let mut buf = page(&n, 0);
        n.read(now, 5, &mut buf).unwrap();
        assert_eq!(buf, page(&n, 6));
        assert_eq!(n.stats().degraded_reads, 0);
    }

    #[test]
    fn mirror_writes_place_copies_on_other_dies() {
        let mut n = small_noftl();
        n.set_redundancy_all(RedundancyPolicy::Mirror);
        let g = *n.device().geometry();
        let mut now = 0;
        for lpn in 0..8u64 {
            let data = page(&n, lpn as u8 + 1);
            now = n.write(now, lpn, &data).unwrap().completed_at;
        }
        assert_eq!(n.stats().mirror_pages_written, 8);
        for lpn in 0..8u64 {
            let flat = n.map.get(lpn).unwrap() as usize;
            let copy = n.mirror_of[flat];
            assert_ne!(copy, NO_MIRROR, "every write must be mirrored");
            assert_eq!(n.mirror_of[copy as usize], flat as u64);
            let pd = Ppa::from_flat(&g, flat as u64).die_addr();
            let cd = Ppa::from_flat(&g, copy).die_addr();
            assert_ne!(pd, cd, "mirror copy must live on a different die");
        }
        // Superseding a mirrored page drops the copy as garbage.
        let data = page(&n, 0xEE);
        n.write(now, 0, &data).unwrap();
        assert_eq!(n.stats().mirror_pages_written, 9);
    }

    #[test]
    fn degraded_read_reconstructs_from_parity() {
        let mut n = small_noftl();
        n.set_redundancy_all(RedundancyPolicy::Parity(3));
        let mut now = 0;
        for lpn in 0..12u64 {
            let data = page(&n, lpn as u8 + 1);
            now = n.write(now, lpn, &data).unwrap().completed_at;
        }
        let victim_lpn = 5u64;
        let dead_die = die_of_lpn(&n, victim_lpn);
        let live_lpn = (0..12u64)
            .find(|&l| die_of_lpn(&n, l) != dead_die)
            .unwrap();
        n.set_fault_plan(Some(kill_plan(dead_die)));
        // The next device command fires the kill; aim it at a live die.
        let mut buf = page(&n, 0);
        n.read(now, live_lpn, &mut buf).unwrap();
        assert!(n.any_die_dead());
        // The read of the lost page is served bit-identical through XOR
        // reconstruction from its stripe's surviving pages.
        n.read(now, victim_lpn, &mut buf).unwrap();
        assert_eq!(buf, page(&n, victim_lpn as u8 + 1));
        assert_eq!(n.stats().degraded_reads, 1);
        assert!(n.stats().reconstructed_pages >= 1);
        assert_eq!(n.stats().die_failures_detected, 1);
    }

    #[test]
    fn degraded_read_reconstructs_from_mirror() {
        let mut n = small_noftl();
        n.set_redundancy_all(RedundancyPolicy::Mirror);
        let mut now = 0;
        for lpn in 0..8u64 {
            let data = page(&n, lpn as u8 + 1);
            now = n.write(now, lpn, &data).unwrap().completed_at;
        }
        let victim_lpn = 3u64;
        let dead_die = die_of_lpn(&n, victim_lpn);
        let live_lpn = (0..8u64)
            .find(|&l| die_of_lpn(&n, l) != dead_die)
            .unwrap();
        n.set_fault_plan(Some(kill_plan(dead_die)));
        let mut buf = page(&n, 0);
        n.read(now, live_lpn, &mut buf).unwrap();
        n.read(now, victim_lpn, &mut buf).unwrap();
        assert_eq!(buf, page(&n, victim_lpn as u8 + 1));
        assert_eq!(n.stats().degraded_reads, 1);
        assert_eq!(n.stats().reconstructed_pages, 1);
    }

    #[test]
    fn gc_churn_under_parity_breaks_and_reprotects_stripes() {
        let mut cfg = NoFtlConfig::new(FlashGeometry::small());
        // Parity(3) keeps ~1 extra live page per 3 logical ones — plus the
        // parity of superseded versions, pinned until their blocks erase —
        // so the over-provisioning must budget for it
        // (`storage_engine::backend::redundancy_op_ratio` applies the same
        // accounting when a harness sizes its config).
        cfg.op_ratio = 0.60;
        cfg.gc_low_watermark = 2;
        cfg.gc_high_watermark = 4;
        let mut n = NoFtl::new(cfg);
        n.set_redundancy_all(RedundancyPolicy::Parity(3));
        let lpns = n.logical_pages();
        let mut now = 0;
        // Round 0 writes everything, mixing hot (even) and cold (odd) pages
        // into the same stripes; the churn rounds then overwrite only the
        // hot half.  GC victims hold hot garbage whose stripe peers include
        // still-mapped cold pages — exactly the members the break hook must
        // re-protect.
        for lpn in 0..lpns {
            let data = vec![lpn as u8; n.page_size];
            now = n.write(now, lpn, &data).unwrap().completed_at;
        }
        for round in 1u8..6 {
            for lpn in (0..lpns).step_by(2) {
                let data = vec![round ^ lpn as u8; n.page_size];
                now = n.write(now, lpn, &data).unwrap().completed_at;
            }
        }
        assert!(n.stats().gc_erases > 0, "churn must trigger GC");
        let rs = n.stats();
        assert!(rs.stripes_sealed > 0);
        assert!(rs.stripes_broken > 0, "GC erases must dissolve stripes");
        assert!(rs.members_reprotected > 0);
        let mut buf = vec![0u8; n.page_size];
        for lpn in 0..lpns {
            let expect = if lpn % 2 == 0 { 5u8 ^ lpn as u8 } else { lpn as u8 };
            n.read(now, lpn, &mut buf).unwrap();
            assert_eq!(buf, vec![expect; n.page_size], "lpn {lpn}");
        }
    }

    #[test]
    fn off_leg_keeps_all_redundancy_machinery_dormant() {
        let mut n = tiny_noftl();
        let lpns = n.logical_pages();
        let mut now = 0;
        for round in 0u8..6 {
            for lpn in 0..lpns {
                let data = vec![round ^ lpn as u8; n.page_size];
                now = n.write(now, lpn, &data).unwrap().completed_at;
            }
        }
        assert!(n.stats().gc_erases > 0);
        assert!(!n.redundancy_active);
        assert!(n.stripe_of.is_empty(), "off leg allocates no stripe tables");
        assert!(n.mirror_of.is_empty());
        let rs = n.stats();
        assert_eq!(rs.parity_pages_written, 0);
        assert_eq!(rs.stripes_sealed, 0);
        assert_eq!(rs.stripes_sealed_degraded, 0);
        assert_eq!(rs.stripes_abandoned, 0);
        assert_eq!(rs.open_members_purged, 0);
        assert_eq!(rs.stripes_broken, 0);
        assert_eq!(rs.members_reprotected, 0);
        assert_eq!(rs.mirror_pages_written, 0);
        assert_eq!(rs.mirror_skipped_no_space, 0);
        assert_eq!(rs.degraded_reads, 0);
        assert_eq!(rs.reconstructed_pages, 0);
        let rb = n.stats();
        assert_eq!(rb.die_failures_detected, 0);
        assert_eq!(rb.pages_scanned, 0);
        assert_eq!(rb.rebuild_scheduled, 0);
        assert_eq!(rb.rebuild_deferred_hot, 0);
    }

    #[test]
    fn erase_purges_stale_open_stripe_members() {
        let mut n = small_noftl();
        n.set_redundancy_all(RedundancyPolicy::Parity(3));
        let g = *n.device.geometry();
        let mut now = 0;
        let d1 = page(&n, 0x22);
        now = n.write(now, 0, &page(&n, 0x11)).unwrap().completed_at;
        now = n.write(now, 1, &d1).unwrap().completed_at;
        let f0 = n.map.get(0).unwrap();
        let f1 = n.map.get(1).unwrap();
        assert_eq!(n.open_stripe, vec![f0, f1], "k = 3: stripe still open");
        // lpn 0's page goes stale without a re-join: dead-page hint.
        n.mark_dead(0).unwrap();
        assert!(n.open_stripe.contains(&f0), "hinted member stays pending");
        // Its block is reclaimed: the pre-erase hook must back the stale
        // member out of the open stripe — a later seal would otherwise
        // cover flash the erase is about to destroy.
        let block = Ppa::from_flat(&g, f0).block_addr();
        now = n.break_redundancy_in_block(now, block).unwrap();
        assert_eq!(n.open_stripe, vec![f1]);
        assert_eq!(n.stats().open_members_purged, 1);
        assert_eq!(n.stats().stripes_abandoned, 0);
        // The repaired stripe seals and reconstructs bit-identical: fill it,
        // kill the surviving member's die, and read the member degraded.
        now = n.write(now, 2, &page(&n, 0x33)).unwrap().completed_at;
        now = n.write(now, 3, &page(&n, 0x44)).unwrap().completed_at;
        assert_eq!(n.stats().stripes_sealed, 1);
        let dead_die = die_of_lpn(&n, 1);
        let live_lpn = (2..4u64).find(|&l| die_of_lpn(&n, l) != dead_die).unwrap();
        n.set_fault_plan(Some(kill_plan(dead_die)));
        let mut buf = page(&n, 0);
        n.read(now, live_lpn, &mut buf).unwrap();
        n.read(now, 1, &mut buf).unwrap();
        assert_eq!(buf, d1, "reconstruction must not see the purged member");
        assert!(n.stats().degraded_reads >= 1);
    }

    #[test]
    fn relocation_rejoin_drops_the_stale_open_member() {
        let mut n = small_noftl();
        n.set_redundancy_all(RedundancyPolicy::Parity(3));
        let g = *n.device.geometry();
        let d0 = page(&n, 0x5A);
        let now = n.write(0, 0, &d0).unwrap().completed_at;
        let f0 = n.map.get(0).unwrap();
        assert_eq!(n.open_stripe, vec![f0]);
        // Relocate lpn 0 to another die, as GC would: the re-join must
        // replace the stale member instead of accumulating beside it.
        let src_die = Ppa::from_flat(&g, f0).die_addr().flat(&g) as usize;
        let dst = n
            .regions
            .allocate_page_on_die((src_die + 1) % g.total_dies() as usize, n.gc_low)
            .unwrap();
        n.relink_redundancy(now, f0, dst.flat(&g), 0, Some(&d0)).unwrap();
        assert_eq!(n.open_stripe, vec![dst.flat(&g)]);
        assert_eq!(n.stats().open_members_purged, 1);
        assert_eq!(n.open_stripe_xor, d0, "XOR repaired to cover only the new member");
    }

    #[test]
    fn parity_exhausting_disjoint_dies_counts_degraded_seal() {
        // Two dies, Parity(2): both stripe members occupy all dies, so the
        // parity fallback must land on a member die — and say so.
        let mut g = FlashGeometry::small();
        g.channels = 1;
        g.dies_per_channel = 2;
        let mut n = NoFtl::with_geometry(g);
        n.set_redundancy_all(RedundancyPolicy::Parity(2));
        let r0 = n.regions.region_of_lpn(0);
        let l1 = (1..16u64)
            .find(|&l| n.regions.region_of_lpn(l) != r0)
            .expect("a second region exists");
        let mut now = 0;
        now = n.write(now, 0, &page(&n, 1)).unwrap().completed_at;
        now = n.write(now, l1, &page(&n, 2)).unwrap().completed_at;
        assert_ne!(die_of_lpn(&n, 0), die_of_lpn(&n, l1));
        let rs = n.stats();
        assert_eq!(rs.stripes_sealed, 1);
        assert_eq!(
            rs.stripes_sealed_degraded, 1,
            "a member-die parity placement must be observable"
        );
        // The stripe still recovers block-level loss: contents read back.
        let mut buf = page(&n, 0);
        n.read(now, 0, &mut buf).unwrap();
        assert_eq!(buf, page(&n, 1));
    }

    #[test]
    fn single_die_mirror_skips_instead_of_same_die_copy() {
        let mut n = tiny_noftl();
        n.set_redundancy_all(RedundancyPolicy::Mirror);
        let data = page(&n, 0x7E);
        let now = n.write(0, 0, &data).unwrap().completed_at;
        let rs = n.stats();
        assert_eq!(
            rs.mirror_pages_written, 0,
            "a same-die copy survives no die failure and must not be written"
        );
        assert_eq!(rs.mirror_skipped_no_space, 1);
        let mut buf = page(&n, 0);
        n.read(now, 0, &mut buf).unwrap();
        assert_eq!(buf, data);
    }

    #[test]
    fn a_failed_mirror_program_retires_its_block_and_lands_on_a_fresh_one() {
        // A fresh block never fails a program; a block erased once always
        // does.  The mirror die's first free block is erased once, so the
        // copy's first program fails and its retry lands on the next block.
        let mut plan = FaultPlan::seeded(5);
        plan.program_fail_base = 1e-12;
        plan.program_fail_wear_scale = 1e18;
        plan.read_error_base = 0.0;
        let mut n = faulty_noftl(plan, NoFtlConfig::new(FlashGeometry::small()));
        n.set_redundancy_all(RedundancyPolicy::Mirror);
        let g = *n.device().geometry();
        let primary_die = n.regions.dies_of(n.region_of_lpn(0))[0].flat(&g) as u32;
        let mirror_die = (primary_die + 1) % g.total_dies();
        let worn = Ppa::from_flat(&g, u64::from(mirror_die) * g.pages_per_die()).block_addr();
        n.device.erase_block(0, worn).unwrap();

        let data = page(&n, 0x3C);
        let now = n.write(0, 0, &data).unwrap().completed_at;
        assert_eq!(die_of_lpn(&n, 0), primary_die);
        assert_eq!(n.stats().program_fail_retirements, 1);
        assert_eq!(n.stats().retired_blocks, 1);
        assert!(n.bad_blocks().is_bad(worn), "the failing block is retired");
        let copy = n.mirror_of[n.map.get(0).unwrap() as usize];
        assert_ne!(copy, NO_MIRROR, "the write is still mirrored");
        let copy_block = Ppa::from_flat(&g, copy).block_addr();
        assert_eq!(copy_block.die_addr(), worn.die_addr());
        assert_ne!(copy_block, worn, "the copy lands on a fresh block");
        let rs = n.stats();
        assert_eq!((rs.mirror_pages_written, rs.mirror_skipped_no_space), (1, 0));

        // The primary's die dies: the read is served from the copy.
        n.set_fault_plan(Some(kill_plan(primary_die)));
        let mut buf = page(&n, 0);
        n.read(now, 0, &mut buf).unwrap();
        assert_eq!(buf, data);
        assert_eq!(n.stats().degraded_reads, 1);
    }

    #[test]
    fn a_die_kill_on_the_parity_program_moves_the_seal_to_the_next_die() {
        // The three members take the first three device commands, on dies
        // 0, 1 and 2; the fourth is the parity program on die 3, the first
        // die disjoint from them, and the kill fires on it.
        let mut plan = kill_plan(3);
        plan.kills[0].at_command = 3;
        let mut cfg = NoFtlConfig::new(FlashGeometry::with_dies(8, 256, 16, 512));
        cfg.redundancy = vec![RedundancyPolicy::Parity(3); 8];
        let mut n = faulty_noftl(plan, cfg);
        let mut now = 0;
        for lpn in 0..3u64 {
            now = n.write(now, lpn, &page(&n, lpn as u8 + 1)).unwrap().completed_at;
        }
        let g = *n.device().geometry();
        assert_eq!([0, 1, 2].map(|lpn| die_of_lpn(&n, lpn)), [0, 1, 2]);
        assert_eq!(n.stats().die_failures_detected, 1, "the death is counted");
        let rs = n.stats();
        assert_eq!((rs.stripes_sealed, rs.stripes_sealed_degraded), (1, 0));
        let stripe = n.stripes.iter().flatten().next().unwrap();
        let parity_die = Ppa::from_flat(&g, stripe.parity).die_addr().flat(&g);
        assert_eq!(parity_die, 4, "the seal goes on to the next disjoint die");
        let mut buf = page(&n, 0);
        n.read(now, 1, &mut buf).unwrap();
        assert_eq!(buf, page(&n, 2));
    }
}

//! DBMS-integrated garbage collection: victim selection policies.
//!
//! Compared with an on-device FTL, NoFTL's GC sees more information: the
//! host-resident mapping table tells it exactly which pages are live, and the
//! DBMS free-space manager has already invalidated pages it knows are dead
//! (dropped extents, superseded page versions, truncated WAL segments).  A
//! page those dead-page hints invalidate is never a candidate for
//! relocation, so GC copies only pages the DBMS still references; on the
//! Figure 3 traces the effect on copies is small (dropping the traces' `Free`
//! ops moves no stack's copies by more than 3 %).

use nand_flash::{BlockAddr, NandDevice, NativeFlashInterface};

use crate::regions::{RegionId, RegionManager};

/// Victim-selection policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GcPolicy {
    /// Pick the block with the most invalid pages (minimises copies now).
    Greedy,
    /// Weigh invalid pages against block wear: prefers less-worn blocks when
    /// the garbage counts are similar, folding dynamic wear leveling into GC.
    CostBenefit,
}

/// Select a GC victim inside `region`.
///
/// Only usable, non-free, non-active blocks that contain at least one invalid
/// page are candidates. Returns `None` when the region has no reclaimable
/// garbage.  The score is read-blind: the first candidate with the best
/// score, in die, plane and block order, wins.
pub fn select_victim(
    device: &NandDevice,
    regions: &RegionManager,
    region: RegionId,
    policy: GcPolicy,
) -> Option<BlockAddr> {
    let geometry = *device.geometry();
    let mut best: Option<(BlockAddr, f64)> = None;
    for die in regions.dies_of(region) {
        if regions.die_dead(die.flat(&geometry) as usize) {
            // A dead die can be neither read from nor erased — nothing on it
            // is reclaimable.
            continue;
        }
        for plane in 0..geometry.planes_per_die {
            for block in 0..geometry.blocks_per_plane {
                let addr = BlockAddr::new(die.channel, die.die, plane, block);
                if regions.is_active(addr) || regions.is_free(addr) {
                    continue;
                }
                let info = match device.block_info(addr) {
                    Ok(i) if i.usable => i,
                    _ => continue,
                };
                if info.invalid_pages == 0 {
                    continue;
                }
                let score = match policy {
                    GcPolicy::Greedy => info.invalid_pages as f64,
                    GcPolicy::CostBenefit => {
                        // Invalid pages are the benefit; wear is a penalty so
                        // heavily-cycled blocks are rested when possible.
                        let wear_penalty = 1.0 + info.erase_count as f64 / 64.0;
                        info.invalid_pages as f64 / wear_penalty
                    }
                };
                if best.is_none_or(|(_, s)| score > s) {
                    best = Some((addr, score));
                }
            }
        }
    }
    best.map(|(a, _)| a)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::regions::StripingMode;
    use nand_flash::{FlashGeometry, NativeFlashInterface, Oob};

    fn setup() -> (NandDevice, RegionManager) {
        let g = FlashGeometry::tiny();
        (
            NandDevice::with_geometry(g),
            RegionManager::new(g, StripingMode::DieWise),
        )
    }

    #[test]
    fn no_garbage_means_no_victim() {
        let (device, regions) = setup();
        assert!(select_victim(&device, &regions, 0, GcPolicy::Greedy).is_none());
    }

    #[test]
    fn greedy_prefers_most_invalid() {
        let (mut device, mut regions) = setup();
        let g = *device.geometry();
        let data = vec![0u8; g.page_size as usize];
        // Fill two blocks via the region manager so they are not "free".
        let mut ppas = Vec::new();
        for _ in 0..(g.pages_per_block * 2) {
            let ppa = regions.allocate_page_in(0).unwrap();
            device.program_page(0, ppa, &data, Oob::data(0, 0)).unwrap();
            ppas.push(ppa);
        }
        // Close the second (active) block by allocating one page into a third.
        let _ = regions.allocate_page_in(0).unwrap();
        let block_a = ppas[0].block_addr();
        let block_b = ppas[g.pages_per_block as usize].block_addr();
        // Invalidate 2 pages in block_a and 5 in block_b.
        for p in ppas.iter().take(2) {
            device.invalidate_page(*p).unwrap();
        }
        for p in ppas.iter().skip(g.pages_per_block as usize).take(5) {
            device.invalidate_page(*p).unwrap();
        }
        let victim = select_victim(&device, &regions, 0, GcPolicy::Greedy).unwrap();
        assert_eq!(victim, block_b);
        assert_ne!(victim, block_a);
    }

    #[test]
    fn cost_benefit_penalises_worn_blocks() {
        let (mut device, mut regions) = setup();
        let g = *device.geometry();
        let data = vec![0u8; g.page_size as usize];
        // Two closed blocks with equal garbage, but one heavily erased before.
        let worn = nand_flash::BlockAddr::new(0, 0, 0, 0);
        for _ in 0..200 {
            device.erase_block(0, worn).unwrap();
        }
        let mut ppas = Vec::new();
        for _ in 0..(g.pages_per_block * 2) {
            let ppa = regions.allocate_page_in(0).unwrap();
            device.program_page(0, ppa, &data, Oob::data(0, 0)).unwrap();
            ppas.push(ppa);
        }
        let _ = regions.allocate_page_in(0).unwrap();
        // Equal numbers of invalid pages in both blocks.
        for p in ppas.iter().take(3) {
            device.invalidate_page(*p).unwrap();
        }
        for p in ppas.iter().skip(g.pages_per_block as usize).take(3) {
            device.invalidate_page(*p).unwrap();
        }
        let fresh_block = ppas[g.pages_per_block as usize].block_addr();
        let victim = select_victim(&device, &regions, 0, GcPolicy::CostBenefit).unwrap();
        // The first block allocated is block 0 (the worn one), so cost-benefit
        // must pick the other block.
        assert_eq!(ppas[0].block_addr(), worn);
        assert_eq!(victim, fresh_block);
    }

    #[test]
    fn read_heat_penalty_off_leaves_victims_identical_under_skewed_reads() {
        // The scorer is read-blind (`NoFtlConfig::gc_read_heat_penalty`
        // accepts only 0.0): of two closed blocks with equal garbage on two
        // dies, the first in die order wins however hard the reads hammer
        // its die.
        let g = FlashGeometry::small(); // 4 dies
        let mut device = NandDevice::with_geometry(g);
        let mut regions = RegionManager::new(g, StripingMode::Single);
        let data = vec![0u8; g.page_size as usize];
        // Single striping round-robins dies at block boundaries: the first
        // block lands on die 0, the second on die 1.
        let mut ppas = Vec::new();
        for _ in 0..(g.pages_per_block * 2) {
            let ppa = regions.allocate_page_in(0).unwrap();
            device.program_page(0, ppa, &data, Oob::data(0, 0)).unwrap();
            ppas.push(ppa);
        }
        let _ = regions.allocate_page_in(0).unwrap(); // close the second block
        let hot_block = ppas[0].block_addr();
        let cold_block = ppas[g.pages_per_block as usize].block_addr();
        assert_ne!(hot_block.die_addr(), cold_block.die_addr());
        for p in ppas.iter().take(4) {
            device.invalidate_page(*p).unwrap();
        }
        for p in ppas.iter().skip(g.pages_per_block as usize).take(4) {
            device.invalidate_page(*p).unwrap();
        }
        let mut buf = vec![0u8; g.page_size as usize];
        for _ in 0..10 {
            for p in ppas.iter().skip(4).take(4) {
                device.read_page(0, *p, &mut buf).unwrap();
            }
        }
        let victim = select_victim(&device, &regions, 0, GcPolicy::Greedy).unwrap();
        assert_eq!(victim, hot_block);
        let cb = select_victim(&device, &regions, 0, GcPolicy::CostBenefit).unwrap();
        assert_eq!(cb, hot_block);
    }
}

//! Free-block pools and active-block (write point) management.
//!
//! Every Flash-management layer — the on-device FTL baselines here and the
//! DBMS-integrated NoFTL — needs the same low-level bookkeeping: per-plane
//! pools of erased blocks, one *active block* per plane that new pages are
//! appended to (NAND's sequential-program rule), and wear-aware selection of
//! the next free block.

use std::collections::VecDeque;

use nand_flash::{BlockAddr, FlashError, FlashGeometry, FlashResult, NandDevice, Ppa};

/// Identifier of a plane across the whole device:
/// `die_flat * planes_per_die + plane`.
pub type PlaneIndex = usize;

/// Compute the global plane index of a block/page address.
pub fn plane_index(g: &FlashGeometry, channel: u32, die: u32, plane: u32) -> PlaneIndex {
    ((channel as u64 * g.dies_per_channel as u64 + die as u64) * g.planes_per_die as u64
        + plane as u64) as usize
}

/// Per-plane free-block pool plus active write blocks.
#[derive(Debug, Clone)]
pub struct BlockPools {
    geometry: FlashGeometry,
    /// Erased blocks ready for allocation, per plane.
    free: Vec<VecDeque<BlockAddr>>,
    /// Current active (partially programmed) block per plane, with the next
    /// page offset to program.
    active: Vec<Option<(BlockAddr, u32)>>,
    /// Round-robin cursor used when the caller has no plane preference.
    rr_cursor: usize,
}

impl BlockPools {
    /// Create pools containing **all** blocks of the device as free blocks.
    pub fn new_all_free(geometry: FlashGeometry) -> Self {
        let planes = geometry.total_planes() as usize;
        let mut free = vec![VecDeque::new(); planes];
        for flat in 0..geometry.total_blocks() {
            let addr = BlockAddr::from_flat(&geometry, flat);
            let pi = plane_index(&geometry, addr.channel, addr.die, addr.plane);
            free[pi].push_back(addr);
        }
        Self {
            geometry,
            free,
            active: vec![None; planes],
            rr_cursor: 0,
        }
    }

    /// Create empty pools (no free blocks); the caller adds blocks explicitly.
    pub fn new_empty(geometry: FlashGeometry) -> Self {
        let planes = geometry.total_planes() as usize;
        Self {
            geometry,
            free: vec![VecDeque::new(); planes],
            active: vec![None; planes],
            rr_cursor: 0,
        }
    }

    /// Geometry the pools were built for.
    pub fn geometry(&self) -> &FlashGeometry {
        &self.geometry
    }

    /// Number of planes managed.
    pub fn planes(&self) -> usize {
        self.free.len()
    }

    /// Total number of free blocks across all planes.
    pub fn total_free_blocks(&self) -> usize {
        self.free.iter().map(|q| q.len()).sum()
    }

    /// Plane index of a block address.
    pub fn plane_of(&self, addr: BlockAddr) -> PlaneIndex {
        plane_index(&self.geometry, addr.channel, addr.die, addr.plane)
    }

    /// Return an erased block to its plane's free pool.
    pub fn release_block(&mut self, addr: BlockAddr) {
        let pi = self.plane_of(addr);
        self.free[pi].push_back(addr);
    }

    /// Permanently retire a block (grown bad): simply never re-add it.
    /// Also clears it from the active slot if it was active.
    pub fn retire_block(&mut self, addr: BlockAddr) {
        let pi = self.plane_of(addr);
        if let Some((active, _)) = self.active[pi] {
            if active == addr {
                self.active[pi] = None;
            }
        }
        self.free[pi].retain(|&b| b != addr);
    }

    /// Allocate the next page to program on `plane`.
    ///
    /// Opens a new active block from the free pool when needed. Returns
    /// `None` when the plane has neither an open block with room nor free
    /// blocks — the caller must run GC first.
    pub fn allocate_page_on(&mut self, plane: PlaneIndex) -> Option<Ppa> {
        let pages_per_block = self.geometry.pages_per_block;
        loop {
            match self.active[plane] {
                Some((addr, next)) if next < pages_per_block => {
                    self.active[plane] = Some((addr, next + 1));
                    return Some(addr.page(next));
                }
                _ => {
                    // Need a new active block.
                    let fresh = self.free[plane].pop_front()?;
                    self.active[plane] = Some((fresh, 0));
                }
            }
        }
    }

    /// Allocate the next page on any plane, round-robin over planes (striping
    /// writes over all dies — the "die-wise striping" layout of Figure 4).
    pub fn allocate_page_round_robin(&mut self) -> Option<Ppa> {
        let planes = self.planes();
        for _ in 0..planes {
            let plane = self.rr_cursor % planes;
            self.rr_cursor = (self.rr_cursor + 1) % planes;
            if let Some(ppa) = self.allocate_page_on(plane) {
                return Some(ppa);
            }
        }
        None
    }

    /// Whether `addr` is currently the active block of its plane.
    pub fn is_active(&self, addr: BlockAddr) -> bool {
        let pi = self.plane_of(addr);
        matches!(self.active[pi], Some((a, _)) if a == addr)
    }

    /// Whether `addr` currently sits in a free pool.
    pub fn is_free(&self, addr: BlockAddr) -> bool {
        let pi = self.plane_of(addr);
        self.free[pi].contains(&addr)
    }

    /// Greedy GC victim: the block of `device` with the most invalid pages
    /// among those that are usable and neither active nor free.  Returns
    /// `None` when no block holds any garbage.
    pub fn select_victim(&self, device: &NandDevice) -> Option<BlockAddr> {
        let mut best: Option<(BlockAddr, u32)> = None;
        for flat in 0..self.geometry.total_blocks() {
            let addr = BlockAddr::from_flat(&self.geometry, flat);
            if self.is_active(addr) || self.is_free(addr) {
                continue;
            }
            let info = match device.block_info(addr) {
                Ok(i) if i.usable => i,
                _ => continue,
            };
            if info.invalid_pages == 0 {
                continue;
            }
            if best.is_none_or(|(_, inv)| info.invalid_pages > inv) {
                best = Some((addr, info.invalid_pages));
            }
        }
        best.map(|(a, _)| a)
    }

    /// Allocate the GC destination of the survivor at `src`: on the same
    /// plane when it has room, so the move can be a COPYBACK, otherwise
    /// round-robin.  Returns the page and whether it shares `src`'s plane.
    pub fn allocate_gc_destination(&mut self, src: Ppa) -> FlashResult<(Ppa, bool)> {
        let plane = plane_index(&self.geometry, src.channel, src.die, src.plane);
        if let Some(p) = self.allocate_page_on(plane) {
            return Ok((p, true));
        }
        let p = self
            .allocate_page_round_robin()
            .ok_or(FlashError::OutOfSpareBlocks)?;
        Ok((p, p.channel == src.channel && p.die == src.die && p.plane == src.plane))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nand_flash::FlashGeometry;

    #[test]
    fn all_free_covers_every_block() {
        let g = FlashGeometry::small();
        let pools = BlockPools::new_all_free(g);
        assert_eq!(pools.total_free_blocks() as u64, g.total_blocks());
        assert_eq!(pools.planes() as u32, g.total_planes());
    }

    #[test]
    fn allocation_is_sequential_within_block() {
        let g = FlashGeometry::tiny();
        let mut pools = BlockPools::new_all_free(g);
        let first = pools.allocate_page_on(0).unwrap();
        let second = pools.allocate_page_on(0).unwrap();
        assert_eq!(first.block_addr(), second.block_addr());
        assert_eq!(first.page, 0);
        assert_eq!(second.page, 1);
    }

    #[test]
    fn allocation_opens_new_block_when_full() {
        let g = FlashGeometry::tiny(); // 8 pages per block
        let mut pools = BlockPools::new_all_free(g);
        let mut blocks_seen = std::collections::HashSet::new();
        for _ in 0..(g.pages_per_block * 2) {
            let ppa = pools.allocate_page_on(0).unwrap();
            blocks_seen.insert(ppa.block_addr());
        }
        assert_eq!(blocks_seen.len(), 2);
    }

    #[test]
    fn allocation_exhausts_and_returns_none() {
        let g = FlashGeometry::tiny();
        let mut pools = BlockPools::new_all_free(g);
        let total = g.total_pages();
        for _ in 0..total {
            assert!(pools.allocate_page_round_robin().is_some());
        }
        assert!(pools.allocate_page_round_robin().is_none());
        assert_eq!(pools.total_free_blocks(), 0);
    }

    #[test]
    fn round_robin_spreads_over_planes() {
        let g = FlashGeometry::small(); // 4 planes
        let mut pools = BlockPools::new_all_free(g);
        let mut per_plane = vec![0u32; pools.planes()];
        for _ in 0..64 {
            let ppa = pools.allocate_page_round_robin().unwrap();
            per_plane[plane_index(&g, ppa.channel, ppa.die, ppa.plane)] += 1;
        }
        assert!(per_plane.iter().all(|&c| c == 16), "{per_plane:?}");
    }

    #[test]
    fn release_and_retire() {
        let g = FlashGeometry::tiny();
        let mut pools = BlockPools::new_empty(g);
        let b = BlockAddr::new(0, 0, 0, 3);
        assert_eq!(pools.total_free_blocks(), 0);
        pools.release_block(b);
        assert!(pools.is_free(b));
        pools.retire_block(b);
        assert!(!pools.is_free(b));
        assert_eq!(pools.total_free_blocks(), 0);
    }

    #[test]
    fn is_active_tracks_current_block() {
        let g = FlashGeometry::tiny();
        let mut pools = BlockPools::new_all_free(g);
        let p = pools.allocate_page_on(0).unwrap();
        assert!(pools.is_active(p.block_addr()));
        assert!(!pools.is_free(p.block_addr()));
    }
}

//! Physical regions and Flash-aware writer assignment (§3.2 of the paper).
//!
//! A *region* is a set of NAND dies.  Under die-wise striping every die is
//! its own region and logical pages are striped over regions
//! (`region = lpn mod regions`), so a database page always lives on the same
//! die.  The DBMS assigns its background writers (db-writers) to regions:
//!
//! * [`FlusherAssignment::Global`] — the conventional scheme: every db-writer
//!   may flush any dirty page and therefore writes to every die, contending
//!   with the other writers for the same Flash chips;
//! * [`FlusherAssignment::DieWise`] — the paper's Flash-aware scheme: each
//!   db-writer owns a disjoint set of regions and only flushes pages that map
//!   to them, eliminating chip contention (up to 1.5× higher TPC-C
//!   throughput, Figure 4).
//!
//! The storage engine's flusher pool (`FlusherPool::partition`) splits the
//! dirty pages among the writers under either policy.
//!
//! Placement *queries* ([`RegionManager::region_of_lpn`],
//! [`RegionManager::region_of_die`], [`RegionManager::region_of_block`],
//! [`RegionManager::free_blocks_in`], ...) are `&self` over precomputed dense
//! tables — no interior mutability — while allocator *mutation*
//! ([`RegionManager::allocate_page_in`], [`RegionManager::release_block`],
//! ...) is `&mut self`.

use std::collections::VecDeque;

use nand_flash::{BlockAddr, DieAddr, FlashGeometry, Ppa};

/// Identifier of a region (dense, `0..regions()`).
pub type RegionId = usize;

/// How dies are grouped into regions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StripingMode {
    /// One region per die (the layout used throughout the paper's Figure 4).
    DieWise,
    /// A single region spanning the whole device (no placement control).
    Single,
}

impl StripingMode {
    /// Number of regions this mode splits `geometry` into.
    pub fn regions(self, geometry: &FlashGeometry) -> usize {
        match self {
            StripingMode::DieWise => geometry.total_dies() as usize,
            StripingMode::Single => 1,
        }
    }
}

/// How db-writers (background flushers) are associated with regions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlusherAssignment {
    /// Any flusher may write to any region (the conventional scheme).
    Global,
    /// Flusher *i* owns regions `{r : r mod flushers == i}` (die-wise
    /// association).
    DieWise,
}

/// Per-region block pools and active write blocks, plus the
/// logical-page → region striping function.
///
/// All placement queries are backed by dense lookup tables: `region_of_die`
/// is one indexed load into a `die_flat → RegionId` table (the seed version
/// ran a nested `position(..contains(..))` scan), and free blocks are kept in
/// *per-die* queues so multi-die regions round-robin by popping the next
/// die's queue instead of scanning a region-wide list.
#[derive(Debug, Clone)]
pub struct RegionManager {
    geometry: FlashGeometry,
    /// Dies belonging to each region.
    region_dies: Vec<Vec<DieAddr>>,
    /// Dense lookup table: flat die index → region.
    die_to_region: Vec<RegionId>,
    /// Free (erased) blocks per *die* (indexed by flat die index).
    free: Vec<VecDeque<BlockAddr>>,
    /// Free-block count per region, maintained incrementally so the
    /// per-write watermark check stays O(1).
    free_count: Vec<usize>,
    /// Active block and next page offset per region.
    active: Vec<Option<(BlockAddr, u32)>>,
    /// Round-robin cursor over each region's dies for block selection.
    die_cursor: Vec<usize>,
    /// Dies that failed permanently (flat index).  Dead dies hold no free
    /// blocks and are skipped by every allocator.
    dead_dies: Vec<bool>,
    /// Auxiliary die-targeted active block per die (flat index) — the write
    /// pointer used by [`RegionManager::allocate_page_on_die`] for parity
    /// and mirror pages, kept separate from the per-region pointer so
    /// redundancy placement never perturbs the region's data layout.
    aux_active: Vec<Option<(BlockAddr, u32)>>,
}

impl RegionManager {
    /// Build a region manager covering all blocks of `geometry`.  Runs in one
    /// pass over the dies plus one pass over the blocks (the seed version
    /// re-resolved every block's region by scanning the die lists).
    pub fn new(geometry: FlashGeometry, striping: StripingMode) -> Self {
        let total_dies = geometry.total_dies() as usize;
        let regions = striping.regions(&geometry);
        let mut region_dies: Vec<Vec<DieAddr>> = vec![Vec::new(); regions];
        let mut die_to_region: Vec<RegionId> = Vec::with_capacity(total_dies);
        for die_flat in 0..total_dies {
            let die = DieAddr::from_flat(&geometry, die_flat as u64);
            let region = match striping {
                StripingMode::DieWise => die_flat,
                StripingMode::Single => 0,
            };
            region_dies[region].push(die);
            die_to_region.push(region);
        }
        // Flat block indices are die-contiguous, so each die's blocks form one
        // run: fill the per-die free queues directly, in flat order.
        let blocks_per_die = geometry.blocks_per_die() as usize;
        let mut free: Vec<VecDeque<BlockAddr>> = (0..total_dies)
            .map(|_| VecDeque::with_capacity(blocks_per_die))
            .collect();
        let mut free_count = vec![0usize; regions];
        for flat in 0..geometry.total_blocks() {
            let addr = BlockAddr::from_flat(&geometry, flat);
            let die = flat as usize / blocks_per_die;
            free[die].push_back(addr);
            free_count[die_to_region[die]] += 1;
        }
        Self {
            geometry,
            region_dies,
            die_to_region,
            free,
            free_count,
            active: vec![None; regions],
            die_cursor: vec![0; regions],
            dead_dies: vec![false; total_dies],
            aux_active: vec![None; total_dies],
        }
    }

    /// Number of regions.
    pub fn regions(&self) -> usize {
        self.region_dies.len()
    }

    /// The dies belonging to `region`.
    pub fn dies_of(&self, region: RegionId) -> &[DieAddr] {
        &self.region_dies[region]
    }

    /// Region a logical page is striped to.
    #[inline]
    pub fn region_of_lpn(&self, lpn: u64) -> RegionId {
        (lpn % self.regions() as u64) as usize
    }

    /// Region a physical die belongs to — a single table load.
    #[inline]
    pub fn region_of_die(&self, die: DieAddr) -> RegionId {
        self.die_to_region[die.flat(&self.geometry) as usize]
    }

    /// Region a physical block belongs to.
    #[inline]
    pub fn region_of_block(&self, block: BlockAddr) -> RegionId {
        self.region_of_die(block.die_addr())
    }

    #[inline]
    fn die_index(&self, die: DieAddr) -> usize {
        die.flat(&self.geometry) as usize
    }

    /// Number of free blocks in `region` — O(1), maintained incrementally.
    pub fn free_blocks_in(&self, region: RegionId) -> usize {
        self.free_count[region]
    }

    /// Total free blocks across regions.
    pub fn total_free_blocks(&self) -> usize {
        self.free_count.iter().sum()
    }

    /// Return an erased block to its die's pool.
    pub fn release_block(&mut self, block: BlockAddr) {
        let die = self.die_index(block.die_addr());
        if self.dead_dies[die] {
            return; // a dead die's blocks never re-enter circulation
        }
        self.free[die].push_back(block);
        self.free_count[self.die_to_region[die]] += 1;
    }

    /// Permanently remove a block (grown bad).
    pub fn retire_block(&mut self, block: BlockAddr) {
        let region = self.region_of_block(block);
        if let Some((active, _)) = self.active[region] {
            if active == block {
                self.active[region] = None;
            }
        }
        let die = self.die_index(block.die_addr());
        if let Some((aux, _)) = self.aux_active[die] {
            if aux == block {
                self.aux_active[die] = None;
            }
        }
        let before = self.free[die].len();
        self.free[die].retain(|&b| b != block);
        self.free_count[region] -= before - self.free[die].len();
    }

    /// Whether `block` is the active block of its region, or the auxiliary
    /// die-targeted active block redundancy placement writes through (GC
    /// must not erase a half-open parity/mirror block either).
    pub fn is_active(&self, block: BlockAddr) -> bool {
        let region = self.region_of_block(block);
        if matches!(self.active[region], Some((a, _)) if a == block) {
            return true;
        }
        let die = self.die_index(block.die_addr());
        matches!(self.aux_active[die], Some((a, _)) if a == block)
    }

    /// Mark a die permanently dead: its free blocks leave circulation, any
    /// active pointer on it is dropped, and every allocator skips it from
    /// now on.  Idempotent.
    pub fn mark_die_dead(&mut self, die_flat: usize) {
        if die_flat >= self.dead_dies.len() || self.dead_dies[die_flat] {
            return;
        }
        self.dead_dies[die_flat] = true;
        let region = self.die_to_region[die_flat];
        let drained = self.free[die_flat].len();
        self.free[die_flat].clear();
        self.free_count[region] -= drained;
        if let Some((b, _)) = self.active[region] {
            if self.die_index(b.die_addr()) == die_flat {
                self.active[region] = None;
            }
        }
        self.aux_active[die_flat] = None;
    }

    /// Whether the die (flat index) has been marked dead.
    #[inline]
    pub fn die_dead(&self, die_flat: usize) -> bool {
        self.dead_dies.get(die_flat).copied().unwrap_or(false)
    }

    /// Whether `region` still has at least one live die — a region whose
    /// every die died can neither allocate nor garbage-collect and must be
    /// skipped by GC scheduling.
    pub fn region_alive(&self, region: RegionId) -> bool {
        self.region_dies[region]
            .iter()
            .any(|d| !self.dead_dies[self.die_index(*d)])
    }

    /// Allocate the next physical page on a *specific* die, through the
    /// die's auxiliary active block — used for parity and mirror pages that
    /// must land on a die disjoint from the data they protect.  Returns
    /// `None` when the die is dead or out of free blocks.
    pub fn allocate_page_on_die(&mut self, die_flat: usize, reserve: usize) -> Option<Ppa> {
        if self.die_dead(die_flat) {
            return None;
        }
        let pages_per_block = self.geometry.pages_per_block;
        if let Some((addr, next)) = self.aux_active[die_flat] {
            if next < pages_per_block {
                self.aux_active[die_flat] = Some((addr, next + 1));
                return Some(addr.page(next));
            }
        }
        // Opening a fresh aux block is refused while the die's free pool is
        // at or below `reserve`: auxiliary (parity/mirror) traffic bypasses
        // the demand-GC watermark path, so without this floor it would
        // drain the emergency blocks GC needs to relocate survivors into.
        if self.free[die_flat].len() <= reserve {
            return None;
        }
        let block = self.free[die_flat].pop_front()?;
        self.free_count[self.die_to_region[die_flat]] -= 1;
        self.aux_active[die_flat] = Some((block, 1));
        Some(block.page(0))
    }

    /// Whether `block` sits in a free pool.
    pub fn is_free(&self, block: BlockAddr) -> bool {
        let die = self.die_index(block.die_addr());
        self.free[die].contains(&block)
    }

    /// Allocate the next physical page in `region`, opening a new active
    /// block when needed (round-robin over the region's dies).  Returns
    /// `None` when the region has no space left — GC must run.
    #[inline]
    pub fn allocate_page_in(&mut self, region: RegionId) -> Option<Ppa> {
        let pages_per_block = self.geometry.pages_per_block;
        if let Some((addr, next)) = self.active[region] {
            if next < pages_per_block {
                self.active[region] = Some((addr, next + 1));
                return Some(addr.page(next));
            }
        }
        // Open a fresh block on the region's next die (striping inside
        // multi-die regions); fall back to any die of the region with blocks.
        let fresh = self.take_free_block_round_robin(region)?;
        self.active[region] = Some((fresh, 1));
        Some(fresh.page(0))
    }

    /// Allocate a run of up to `count` physical pages in `region`, in the
    /// exact order [`RegionManager::allocate_page_in`] would hand them out
    /// one by one — each page is allocated as the returned iterator yields
    /// it.  Stops early when the region is exhausted, so the run may be
    /// shorter than `count` (possibly empty) — the caller falls back to
    /// per-page allocation with cross-region spill for the rest.
    ///
    /// Within a die-wise region the run is sequential inside the active
    /// block and rolls over to fresh blocks of the same die, which is what
    /// lets the batch write path hand the whole run to one multi-page
    /// program dispatch per die.
    pub fn allocate_run_in(
        &mut self,
        region: RegionId,
        count: usize,
    ) -> impl Iterator<Item = Ppa> + '_ {
        (0..count).map_while(move |_| self.allocate_page_in(region))
    }

    /// Roll back the un-programmed tail of an aborted multi-page dispatch.
    ///
    /// A failed PAGE PROGRAM aborts its run: the device consumed the pages up
    /// to and including the failing one, but the allocations past it were
    /// never transferred.  Left alone they would desynchronise the allocator
    /// from the device's sequential write pointer — the next program into one
    /// of those blocks would land past page 0 on an untouched block.  The
    /// caller passes the leaked suffix in allocation order, *excluding* pages
    /// of the failing block (that block is retired wholesale); this unwinds
    /// the active block's pointer and returns blocks the run opened but never
    /// touched to the free pool.
    pub fn rollback_unprogrammed(&mut self, leaked: &[Ppa]) {
        for &ppa in leaked.iter().rev() {
            let block = ppa.block_addr();
            let region = self.region_of_block(block);
            let is_active_tail = matches!(
                self.active[region],
                Some((b, next)) if b == block && next == ppa.page + 1
            );
            if is_active_tail {
                if ppa.page == 0 {
                    // Fully unwound: the block was opened during the aborted
                    // run and no page of it was consumed.
                    self.active[region] = None;
                    self.release_block(block);
                } else {
                    self.active[region] = Some((block, ppa.page));
                }
            } else if ppa.page == 0 && !self.is_active(block) {
                // A non-active block of the aborted run was fully allocated
                // (the run rolled past it); reaching its first page means
                // every page was leaked — return it to the pool untouched.
                self.release_block(block);
            }
        }
    }

    fn take_free_block_round_robin(&mut self, region: RegionId) -> Option<BlockAddr> {
        let dies = &self.region_dies[region];
        if dies.len() == 1 {
            let die = self.die_index(dies[0]);
            let block = self.free[die].pop_front()?;
            self.free_count[region] -= 1;
            return Some(block);
        }
        let start = self.die_cursor[region];
        for i in 0..dies.len() {
            let which = (start + i) % dies.len();
            let die = self.die_index(self.region_dies[region][which]);
            if let Some(block) = self.free[die].pop_front() {
                self.die_cursor[region] = (which + 1) % self.region_dies[region].len();
                self.free_count[region] -= 1;
                return Some(block);
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nand_flash::FlashGeometry;

    #[test]
    fn die_wise_striping_one_region_per_die() {
        let g = FlashGeometry::small(); // 4 dies
        let rm = RegionManager::new(g, StripingMode::DieWise);
        assert_eq!(rm.regions(), 4);
        for r in 0..rm.regions() {
            assert_eq!(rm.dies_of(r).len(), 1);
        }
        assert_eq!(rm.total_free_blocks() as u64, g.total_blocks());
    }

    #[test]
    fn single_region_spans_everything() {
        let g = FlashGeometry::small();
        let rm = RegionManager::new(g, StripingMode::Single);
        assert_eq!(rm.regions(), 1);
        assert_eq!(rm.dies_of(0).len(), 4);
    }

    #[test]
    fn lpn_striping_is_balanced() {
        let g = FlashGeometry::small();
        let rm = RegionManager::new(g, StripingMode::DieWise);
        let mut counts = vec![0u32; rm.regions()];
        for lpn in 0..1000u64 {
            counts[rm.region_of_lpn(lpn)] += 1;
        }
        let max = *counts.iter().max().unwrap();
        let min = *counts.iter().min().unwrap();
        assert!(max - min <= 1, "striping imbalance: {counts:?}");
    }

    #[test]
    fn allocation_stays_inside_region() {
        let g = FlashGeometry::small();
        let mut rm = RegionManager::new(g, StripingMode::DieWise);
        for region in 0..rm.regions() {
            for _ in 0..10 {
                let ppa = rm.allocate_page_in(region).unwrap();
                assert_eq!(rm.region_of_die(ppa.die_addr()), region);
            }
        }
    }

    #[test]
    fn allocation_exhausts_region_independently() {
        let g = FlashGeometry::tiny(); // 1 die, 8 blocks x 8 pages
        let mut rm = RegionManager::new(g, StripingMode::DieWise);
        assert_eq!(rm.regions(), 1);
        for _ in 0..g.total_pages() {
            assert!(rm.allocate_page_in(0).is_some());
        }
        assert!(rm.allocate_page_in(0).is_none());
    }

    #[test]
    fn release_and_retire_blocks() {
        let g = FlashGeometry::tiny();
        let mut rm = RegionManager::new(g, StripingMode::DieWise);
        let b = BlockAddr::new(0, 0, 0, 2);
        assert!(rm.is_free(b));
        // Drain the pool, then give the block back.
        while rm.allocate_page_in(0).is_some() {}
        assert!(!rm.is_free(b));
        rm.release_block(b);
        assert!(rm.is_free(b));
        rm.retire_block(b);
        assert!(!rm.is_free(b));
    }

    fn run_in(rm: &mut RegionManager, region: RegionId, count: usize) -> Vec<Ppa> {
        rm.allocate_run_in(region, count).collect()
    }

    #[test]
    fn allocate_run_matches_page_at_a_time_order() {
        let g = FlashGeometry::small();
        let mut a = RegionManager::new(g, StripingMode::DieWise);
        let mut b = RegionManager::new(g, StripingMode::DieWise);
        // A run crossing a block boundary (32 pages per block).
        let run = run_in(&mut a, 1, 40);
        let singles: Vec<Ppa> = (0..40).filter_map(|_| b.allocate_page_in(1)).collect();
        assert_eq!(run, singles, "batched allocation must preserve the layout");
        assert_eq!(run.len(), 40);
        assert!(run.iter().all(|p| a.region_of_die(p.die_addr()) == 1));
    }

    #[test]
    fn allocate_run_stops_at_region_exhaustion() {
        let g = FlashGeometry::tiny(); // 64 pages total, one region
        let mut rm = RegionManager::new(g, StripingMode::DieWise);
        let run = run_in(&mut rm, 0, 100);
        assert_eq!(run.len() as u64, g.total_pages());
        assert!(run_in(&mut rm, 0, 4).is_empty());
    }

    #[test]
    fn rollback_unwinds_active_block_pointer() {
        let g = FlashGeometry::small(); // 32 pages per block
        let mut rm = RegionManager::new(g, StripingMode::DieWise);
        let run = run_in(&mut rm, 0, 8);
        // Abort after 3 programmed pages: pages 3..8 leaked.
        rm.rollback_unprogrammed(&run[3..]);
        // The next allocations replay the leaked tail exactly.
        let replay = run_in(&mut rm, 0, 5);
        assert_eq!(replay, run[3..].to_vec());
    }

    #[test]
    fn rollback_releases_blocks_opened_by_the_aborted_run() {
        let g = FlashGeometry::small();
        let mut rm = RegionManager::new(g, StripingMode::DieWise);
        // Position the active block near its end, then allocate a run that
        // rolls over into two fresh blocks.
        let ppb = g.pages_per_block as usize;
        let head = run_in(&mut rm, 0, ppb - 2);
        let free_before = rm.free_blocks_in(0);
        let run = run_in(&mut rm, 0, 2 + 2 * ppb);
        assert_eq!(rm.free_blocks_in(0), free_before - 2);
        // The whole rolled-over tail aborts un-programmed.
        rm.rollback_unprogrammed(&run[2..]);
        assert_eq!(rm.free_blocks_in(0), free_before, "fresh blocks returned");
        // The committed prefix consumed the old active block, so the next
        // allocation opens a fresh block at page 0 — never a mid-block page
        // of an untouched block.
        let replay = run_in(&mut rm, 0, 2);
        assert_eq!(replay[0].page, 0, "reopened allocation starts a fresh block");
        assert_eq!(head.len(), ppb - 2);
    }

    #[test]
    fn rollback_of_whole_active_block_closes_it() {
        let g = FlashGeometry::small();
        let mut rm = RegionManager::new(g, StripingMode::DieWise);
        let free_before = rm.free_blocks_in(0);
        let run = run_in(&mut rm, 0, 4);
        assert_eq!(run[0].page, 0);
        rm.rollback_unprogrammed(&run);
        assert_eq!(rm.free_blocks_in(0), free_before);
        assert!(!rm.is_active(run[0].block_addr()));
    }

    #[test]
    fn single_mode_assigns_every_die_to_region_zero() {
        let g = FlashGeometry::with_dies(8, 512, 32, 4096);
        let rm = RegionManager::new(g, StripingMode::Single);
        for die_flat in 0..g.total_dies() as u64 {
            let die = DieAddr::from_flat(&g, die_flat);
            assert_eq!(rm.region_of_die(die), 0);
        }
        assert_eq!(rm.dies_of(0).len(), g.total_dies() as usize);
        assert_eq!(rm.total_free_blocks() as u64, g.total_blocks());
    }

    #[test]
    fn region_of_lpn_invariants_across_striping_modes() {
        let g = FlashGeometry::small();
        for striping in [StripingMode::DieWise, StripingMode::Single] {
            let rm = RegionManager::new(g, striping);
            for lpn in 0..500u64 {
                let r = rm.region_of_lpn(lpn);
                assert!(r < rm.regions(), "{striping:?}: region out of range");
                // Striding by the region count stays in the same region —
                // the invariant the db-writer partitioning relies on.
                assert_eq!(rm.region_of_lpn(lpn + rm.regions() as u64), r);
            }
            // Consecutive logical pages land on consecutive regions.
            for lpn in 0..rm.regions() as u64 {
                assert_eq!(rm.region_of_lpn(lpn), lpn as usize);
            }
        }
    }

    #[test]
    fn region_of_block_matches_every_block() {
        // The dense die table must agree with the per-block die derivation
        // for every block in every mode.
        let g = FlashGeometry::small();
        for striping in [StripingMode::DieWise, StripingMode::Single] {
            let rm = RegionManager::new(g, striping);
            for flat in 0..g.total_blocks() {
                let block = BlockAddr::from_flat(&g, flat);
                let region = rm.region_of_block(block);
                assert!(rm.dies_of(region).contains(&block.die_addr()));
            }
        }
    }

    #[test]
    fn exhausted_region_recovers_after_release() {
        let g = FlashGeometry::tiny(); // 1 die, 8 blocks x 8 pages
        let mut rm = RegionManager::new(g, StripingMode::DieWise);
        let mut blocks = std::collections::HashSet::new();
        while let Some(ppa) = rm.allocate_page_in(0) {
            blocks.insert(ppa.block_addr());
        }
        assert_eq!(rm.free_blocks_in(0), 0);
        assert_eq!(blocks.len() as u64, g.total_blocks());
        // Refill: releasing erased blocks makes allocation succeed again,
        // and the refilled pool serves exactly the released capacity.
        let released: Vec<BlockAddr> = blocks.iter().copied().take(2).collect();
        for &b in &released {
            rm.release_block(b);
        }
        assert_eq!(rm.free_blocks_in(0), 2);
        let mut refilled = 0;
        while rm.allocate_page_in(0).is_some() {
            refilled += 1;
        }
        assert_eq!(refilled, 2 * g.pages_per_block);
        assert_eq!(rm.free_blocks_in(0), 0);
    }

    #[test]
    fn multi_die_region_exhaustion_drains_every_die() {
        let g = FlashGeometry::small(); // 4 dies
        let mut rm = RegionManager::new(g, StripingMode::Single);
        let mut allocated = 0u64;
        while rm.allocate_page_in(0).is_some() {
            allocated += 1;
        }
        assert_eq!(allocated, g.total_pages());
        assert_eq!(rm.free_blocks_in(0), 0);
    }

    #[test]
    fn mark_die_dead_drains_pool_and_stops_allocation() {
        let g = FlashGeometry::small(); // 4 dies, die-wise: 1 die per region
        let mut rm = RegionManager::new(g, StripingMode::DieWise);
        let free_before = rm.free_blocks_in(1);
        assert!(free_before > 0);
        let ppa = rm.allocate_page_in(1).unwrap();
        assert!(!rm.die_dead(1));
        assert!(rm.region_alive(1));
        rm.mark_die_dead(1);
        assert!(rm.die_dead(1));
        assert!(!rm.region_alive(1), "die-wise region dies with its die");
        assert_eq!(rm.free_blocks_in(1), 0, "pool drained");
        assert!(rm.allocate_page_in(1).is_none());
        assert!(rm.allocate_page_on_die(1, 0).is_none());
        // A release of the dead die's block must not resurrect the pool.
        rm.release_block(ppa.block_addr());
        assert_eq!(rm.free_blocks_in(1), 0);
        // Idempotent.
        rm.mark_die_dead(1);
        assert_eq!(rm.free_blocks_in(1), 0);
        // Other regions are untouched.
        assert!(rm.region_alive(0));
        assert!(rm.allocate_page_in(0).is_some());
    }

    #[test]
    fn multi_die_region_survives_one_dead_die() {
        let g = FlashGeometry::small(); // 4 dies
        let mut rm = RegionManager::new(g, StripingMode::Single);
        for die in 0..3 {
            rm.mark_die_dead(die);
        }
        assert!(rm.region_alive(0), "one die of the region survives");
        // Every allocation now lands on the surviving die.
        for _ in 0..(g.pages_per_block * 3) {
            let ppa = rm.allocate_page_in(0).unwrap();
            assert_eq!(ppa.die_addr().flat(&g), 3);
        }
    }

    #[test]
    fn die_targeted_allocation_keeps_its_own_write_pointer() {
        let g = FlashGeometry::small();
        let mut rm = RegionManager::new(g, StripingMode::DieWise);
        // Interleave region and die-targeted allocations on the same die:
        // each stream must stay block-sequential on its own.
        let r0 = rm.allocate_page_in(0).unwrap();
        let a0 = rm.allocate_page_on_die(0, 0).unwrap();
        let r1 = rm.allocate_page_in(0).unwrap();
        let a1 = rm.allocate_page_on_die(0, 0).unwrap();
        assert_ne!(r0.block_addr(), a0.block_addr());
        assert_eq!(r1.block_addr(), r0.block_addr());
        assert_eq!(r1.page, r0.page + 1);
        assert_eq!(a1.block_addr(), a0.block_addr());
        assert_eq!(a1.page, a0.page + 1);
        assert_eq!(a0.page, 0);
        // The half-open aux block counts as active (GC must skip it); a
        // retire clears the pointer.
        assert!(rm.is_active(a0.block_addr()));
        rm.retire_block(a0.block_addr());
        assert!(!rm.is_active(a0.block_addr()));
        let a2 = rm.allocate_page_on_die(0, 0).unwrap();
        assert_ne!(a2.block_addr(), a0.block_addr());
        assert_eq!(a2.page, 0);
    }

    #[test]
    fn multi_die_region_round_robins_over_dies() {
        let g = FlashGeometry::small();
        let mut rm = RegionManager::new(g, StripingMode::Single);
        // Allocate enough pages to open one block per die and check every
        // die of the region gets used.
        let mut dies_used = std::collections::HashSet::new();
        for _ in 0..(g.pages_per_block * 4) {
            let ppa = rm.allocate_page_in(0).unwrap();
            dies_used.insert(ppa.die_addr());
        }
        assert_eq!(dies_used.len(), 4, "expected striping over the region's dies");
    }
}

//! Free-space manager.
//!
//! Allocates and frees database pages out of the backend's logical address
//! space.  Under NoFTL the free-space manager is one of the DBMS modules the
//! FTL functionality "naturally leverages" (paper, Figure 2): every page it
//! frees is reported to the backend as a dead-page hint, so GC never copies
//! data the database no longer cares about.

use crate::page::PageId;

/// Bitmap-based page allocator over a contiguous logical address range.
#[derive(Debug, Clone)]
pub struct FreeSpaceManager {
    /// First allocatable page id (pages below are reserved, e.g. catalog).
    first: PageId,
    /// One bit per page: `true` = allocated.
    allocated: Vec<bool>,
    /// Free pages ready for reuse (freed before), popped before fresh pages.
    free_list: Vec<PageId>,
    /// Next never-allocated page.
    next_fresh: PageId,
    allocated_count: u64,
}

impl FreeSpaceManager {
    /// Manage pages `[first, first + count)`.
    pub fn new(first: PageId, count: u64) -> Self {
        Self {
            first,
            allocated: vec![false; count as usize],
            free_list: Vec::new(),
            next_fresh: first,
            allocated_count: 0,
        }
    }

    /// Total pages under management.
    pub fn capacity(&self) -> u64 {
        self.allocated.len() as u64
    }

    /// Number of pages currently allocated.
    pub fn allocated_count(&self) -> u64 {
        self.allocated_count
    }

    /// Number of pages still available.
    pub fn available(&self) -> u64 {
        self.capacity() - self.allocated_count
    }

    /// Allocate one page; prefers recycling freed pages over extending into
    /// fresh address space. Returns `None` when the space is exhausted.
    pub fn allocate(&mut self) -> Option<PageId> {
        let page = if let Some(page) = self.free_list.pop() {
            page
        } else if self.next_fresh < self.first + self.capacity() {
            let p = self.next_fresh;
            self.next_fresh += 1;
            p
        } else {
            return None;
        };
        let idx = (page - self.first) as usize;
        debug_assert!(!self.allocated[idx]);
        self.allocated[idx] = true;
        self.allocated_count += 1;
        Some(page)
    }

    /// Free a page. Returns `true` if the page was allocated.
    pub fn free(&mut self, page: PageId) -> bool {
        let Some(idx) = page.checked_sub(self.first) else {
            return false;
        };
        let Some(slot) = self.allocated.get_mut(idx as usize) else {
            return false;
        };
        if !*slot {
            return false;
        }
        *slot = false;
        self.allocated_count -= 1;
        self.free_list.push(page);
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn allocate_monotone_then_recycle() {
        let mut fsm = FreeSpaceManager::new(10, 4);
        let a = fsm.allocate().unwrap();
        let b = fsm.allocate().unwrap();
        assert_eq!(a, 10);
        assert_eq!(b, 11);
        assert!(fsm.allocated[0]);
        assert!(fsm.free(a));
        assert!(!fsm.allocated[0]);
        // Recycled page comes back before fresh ones.
        assert_eq!(fsm.allocate().unwrap(), a);
    }

    #[test]
    fn exhaustion_returns_none() {
        let mut fsm = FreeSpaceManager::new(0, 3);
        assert!(fsm.allocate().is_some());
        assert!(fsm.allocate().is_some());
        assert!(fsm.allocate().is_some());
        assert!(fsm.allocate().is_none());
        assert_eq!(fsm.available(), 0);
        fsm.free(1);
        assert_eq!(fsm.allocate().unwrap(), 1);
    }

    #[test]
    fn double_free_and_foreign_pages_rejected() {
        let mut fsm = FreeSpaceManager::new(5, 3);
        let a = fsm.allocate().unwrap();
        assert!(fsm.free(a));
        assert!(!fsm.free(a));
        assert!(!fsm.free(2), "page below the managed range");
        assert!(!fsm.free(100), "page above the managed range");
    }

    #[test]
    fn counters_stay_consistent() {
        let mut fsm = FreeSpaceManager::new(0, 100);
        let pages: Vec<PageId> = (0..50).map(|_| fsm.allocate().unwrap()).collect();
        assert_eq!(fsm.allocated_count(), 50);
        for p in &pages[..20] {
            fsm.free(*p);
        }
        assert_eq!(fsm.allocated_count(), 30);
        assert_eq!(fsm.available(), 70);
    }
}

//! Page-level address translation table.
//!
//! A dense logical-page → physical-page table plus an equally dense reverse
//! table (physical page → logical page), which GC needs to find out which
//! logical page a physical page holds.  Both directions are flat `u64`
//! arrays — every update, lookup and reverse resolution is a single array
//! access, no hashing anywhere on the per-page path.
//!
//! This is the one definition behind both names the stack uses for it:
//! `ftl::mapping::PageMap` (the on-device table of the page-mapping FTL and
//! DFTL's global translation directory) and
//! `noftl_core::mapping::HostMappingTable` (the same table held in DBMS
//! memory).  The paper's argument (§3.1) is about *where* the table lives,
//! not about what it is.
//!
//! The API splits into `&self` readers ([`PageTable::get`],
//! [`PageTable::reverse`], [`PageTable::mapped`]) and `&mut self` writers
//! ([`PageTable::update`], [`PageTable::unmap`]): no interior mutability, no
//! hidden caches on the read path.

use crate::flatmap::FlatMap;

/// Sentinel meaning "unmapped".
const UNMAPPED: u64 = u64::MAX;

/// Dense logical→physical page table (flat physical page indices) with an
/// equally dense reverse table.
#[derive(Debug, Clone)]
pub struct PageTable {
    forward: Vec<u64>,
    /// Physical flat page → LPN, indexed directly by physical page.
    reverse: FlatMap,
}

impl PageTable {
    /// Create a table for `logical_pages` pages, all unmapped.  The reverse
    /// table grows on demand; use [`Self::with_physical_pages`] when the
    /// physical page count is known up front.
    pub fn new(logical_pages: u64) -> Self {
        Self {
            forward: vec![UNMAPPED; logical_pages as usize],
            reverse: FlatMap::new(),
        }
    }

    /// Create a table with the reverse direction pre-sized for
    /// `physical_pages` flat page indices (no growth during operation).
    pub fn with_physical_pages(logical_pages: u64, physical_pages: u64) -> Self {
        Self {
            forward: vec![UNMAPPED; logical_pages as usize],
            reverse: FlatMap::with_index_capacity(physical_pages as usize),
        }
    }

    /// Number of logical pages covered.
    pub fn logical_pages(&self) -> u64 {
        self.forward.len() as u64
    }

    /// Resolve `lpn` to its physical page (flat index), if mapped.
    #[inline]
    pub fn get(&self, lpn: u64) -> Option<u64> {
        let v = *self.forward.get(lpn as usize)?;
        (v != UNMAPPED).then_some(v)
    }

    /// Which logical page lives at physical page `ppa`, if any.
    #[inline]
    pub fn reverse(&self, ppa: u64) -> Option<u64> {
        self.reverse.get(ppa)
    }

    /// Map `lpn` → `ppa`; returns the superseded physical page (which the
    /// caller must invalidate on the device), if any.
    #[inline]
    pub fn update(&mut self, lpn: u64, ppa: u64) -> Option<u64> {
        let old = core::mem::replace(&mut self.forward[lpn as usize], ppa);
        if old != UNMAPPED {
            self.reverse.remove(old);
        }
        self.reverse.insert(ppa, lpn);
        (old != UNMAPPED).then_some(old)
    }

    /// Drop the mapping of `lpn`; returns its physical page, if any.
    #[inline]
    pub fn unmap(&mut self, lpn: u64) -> Option<u64> {
        let old = core::mem::replace(&mut self.forward[lpn as usize], UNMAPPED);
        if old == UNMAPPED {
            return None;
        }
        self.reverse.remove(old);
        Some(old)
    }

    /// Number of currently mapped pages.
    pub fn mapped(&self) -> usize {
        self.reverse.len()
    }

    /// Memory footprint of the table in bytes — the resource argument of
    /// §3.1 (a 10 GB drive at 4 KiB pages needs ~20 MB for the forward
    /// direction: trivial for a DBMS host, impossible for many SSD
    /// controllers).  Both directions are flat `u64` arrays, so the
    /// footprint is exact rather than a hash-table estimate.
    pub fn memory_bytes(&self) -> usize {
        self.forward.len() * 8 + self.reverse.memory_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_unmap_roundtrip() {
        let mut t = PageTable::new(8);
        assert_eq!(t.get(2), None);
        assert_eq!(t.update(2, 77), None);
        assert_eq!(t.get(2), Some(77));
        assert_eq!(t.reverse(77), Some(2));
        // Remap returns the old location and fixes the reverse table.
        assert_eq!(t.update(2, 99), Some(77));
        assert_eq!(t.reverse(77), None);
        assert_eq!(t.reverse(99), Some(2));
        assert_eq!(t.mapped(), 1);
        assert_eq!(t.unmap(2), Some(99));
        assert_eq!(t.unmap(2), None);
        assert_eq!(t.get(2), None);
        assert_eq!(t.mapped(), 0);
    }

    #[test]
    fn memory_footprint_scales_with_pages() {
        let small = PageTable::new(1_000);
        let large = PageTable::new(100_000);
        assert!(large.memory_bytes() > small.memory_bytes());
        // ~8 bytes per logical page for the dense array.
        assert!(large.memory_bytes() >= 800_000);
    }

    #[test]
    fn presized_reverse_behaves_identically() {
        let mut lazy = PageTable::new(64);
        let mut sized = PageTable::with_physical_pages(64, 256);
        for lpn in 0..64u64 {
            assert_eq!(lazy.update(lpn, 200 + lpn), sized.update(lpn, 200 + lpn));
        }
        for ppa in 0..256u64 {
            assert_eq!(lazy.reverse(ppa), sized.reverse(ppa));
        }
        assert_eq!(lazy.mapped(), sized.mapped());
    }

    #[test]
    fn reverse_tracks_gc_style_relocation() {
        let mut t = PageTable::new(16);
        t.update(5, 40);
        // GC moves the physical page: update must clear the stale reverse
        // entry so no physical page resolves to two LPNs.
        t.update(5, 41);
        assert_eq!(t.reverse(40), None);
        assert_eq!(t.reverse(41), Some(5));
        assert_eq!(t.mapped(), 1);
    }
}

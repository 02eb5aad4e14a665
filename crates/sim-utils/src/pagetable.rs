//! Page-level address translation table.
//!
//! A dense logical-page → physical-page table plus an equally dense reverse
//! table (physical page → logical page), which GC needs to find out which
//! logical page a physical page holds.  Both directions are flat `u64`
//! arrays — every update, lookup and reverse resolution is a single array
//! access, no hashing anywhere on the per-page path.
//!
//! This is the one definition behind both names the stack uses for it:
//! `ftl::mapping::PageMap` (the on-device table of the page-mapping FTL,
//! DFTL's global translation directory and FASTer's log area) and
//! `noftl_core::mapping::HostMappingTable` (the same table held in DBMS
//! memory).  The paper's argument (§3.1) is about *where* the table lives,
//! not about what it is.
//!
//! The API splits into `&self` readers ([`PageTable::get`],
//! [`PageTable::reverse`]) and `&mut self` writers ([`PageTable::update`],
//! [`PageTable::unmap`]): no interior mutability, no hidden caches on the
//! read path.

/// Sentinel meaning "unmapped", in both directions.
const UNMAPPED: u64 = u64::MAX;

/// Dense logical→physical page table (flat physical page indices) with an
/// equally dense reverse table.
#[derive(Debug, Clone)]
pub struct PageTable {
    forward: Vec<u64>,
    /// Physical flat page → LPN, indexed directly by physical page.
    reverse: Vec<u64>,
}

impl PageTable {
    /// Create a table for `logical_pages` pages, all unmapped, with the
    /// reverse direction sized for `physical_pages` flat page indices.
    pub fn with_physical_pages(logical_pages: u64, physical_pages: u64) -> Self {
        Self {
            forward: vec![UNMAPPED; logical_pages as usize],
            reverse: vec![UNMAPPED; physical_pages as usize],
        }
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
        let v = *self.reverse.get(ppa as usize)?;
        (v != UNMAPPED).then_some(v)
    }

    /// Map `lpn` → `ppa`; returns the superseded physical page (which the
    /// caller must invalidate on the device), if any.
    #[inline]
    pub fn update(&mut self, lpn: u64, ppa: u64) -> Option<u64> {
        let old = self.unmap(lpn);
        self.forward[lpn as usize] = ppa;
        self.reverse[ppa as usize] = lpn;
        old
    }

    /// Drop the mapping of `lpn`; returns its physical page, if any.
    #[inline]
    pub fn unmap(&mut self, lpn: u64) -> Option<u64> {
        let old = core::mem::replace(&mut self.forward[lpn as usize], UNMAPPED);
        if old == UNMAPPED {
            return None;
        }
        self.reverse[old as usize] = UNMAPPED;
        Some(old)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::SimRng;
    use std::collections::HashMap;

    #[test]
    fn map_unmap_roundtrip() {
        let mut t = PageTable::with_physical_pages(8, 128);
        assert_eq!(t.get(2), None);
        assert_eq!(t.update(2, 77), None);
        assert_eq!(t.get(2), Some(77));
        assert_eq!(t.reverse(77), Some(2));
        // Remap returns the old location and fixes the reverse table.
        assert_eq!(t.update(2, 99), Some(77));
        assert_eq!(t.reverse(77), None);
        assert_eq!(t.reverse(99), Some(2));
        assert_eq!(t.unmap(2), Some(99));
        assert_eq!(t.unmap(2), None);
        assert_eq!(t.get(2), None);
        assert_eq!(t.reverse(99), None);
        // Past either end nothing is mapped.
        assert_eq!(t.get(8), None);
        assert_eq!(t.reverse(128), None);
    }

    #[test]
    fn presized_reverse_behaves_identically() {
        // Both directions against a hash-map model under random remaps and
        // unmaps: the reverse table is the exact inverse of the forward one.
        let mut rng = SimRng::new(42);
        let mut t = PageTable::with_physical_pages(64, 512);
        let mut model: HashMap<u64, u64> = HashMap::new();
        for _ in 0..20_000 {
            let lpn = rng.range(0, 64);
            if rng.range(0, 3) == 0 {
                assert_eq!(t.unmap(lpn), model.remove(&lpn));
                continue;
            }
            // A free physical page, as an allocator would hand out.
            let ppa = loop {
                let p = rng.range(0, 512);
                if t.reverse(p).is_none() {
                    break p;
                }
            };
            assert_eq!(t.update(lpn, ppa), model.insert(lpn, ppa));
        }
        for lpn in 0..64 {
            assert_eq!(t.get(lpn), model.get(&lpn).copied());
        }
        let mapped = (0..512).filter(|&p| t.reverse(p).is_some()).count();
        assert_eq!(mapped, model.len());
        for (&lpn, &ppa) in &model {
            assert_eq!(t.reverse(ppa), Some(lpn));
        }
    }

    #[test]
    fn reverse_tracks_gc_style_relocation() {
        let mut t = PageTable::with_physical_pages(16, 64);
        t.update(5, 40);
        // GC moves the physical page: update must clear the stale reverse
        // entry so no physical page resolves to two LPNs.
        t.update(5, 41);
        assert_eq!(t.reverse(40), None);
        assert_eq!(t.reverse(41), Some(5));
    }
}

//! Slotted database pages.
//!
//! A [`SlottedPage`] is the classic layout — a header, a slot directory
//! growing from the front and record payloads growing from the back — and it
//! is the page's only representation: `SlottedPage<B>` is a view over the
//! page's own bytes (`B` is the pinned buffer-pool frame, `&[u8]` to read and
//! `&mut [u8]` to modify, or an owned `Vec<u8>`), and every accessor and
//! mutator works on those bytes in place.  The bytes are exactly the
//! backend's page size, so they are written to Flash pages one-to-one.
//!
//! ```text
//! 0        8        16       20         24      32
//! | page id| reserved| slots  | payload  | magic | directory →   … free …   ← payload |
//! ```
//!
//! A directory entry is `(offset: u16, length: u16)`; the offset is absolute
//! within the page, `0xFFFF` marks a tombstone.  `payload` counts the bytes
//! taken at the back of the page, dead records included, until
//! [`SlottedPage::compact`] squeezes them out.  All-zero bytes read as an
//! empty page.

use std::ops::{Deref, DerefMut};

/// Identifier of a database page (equals the logical page number on the
/// storage backend).
pub type PageId = u64;

/// Size of the fixed page header in bytes.
const HEADER_SIZE: usize = 32;
/// Size of one slot-directory entry in bytes (offset + length).
const SLOT_SIZE: usize = 4;
/// Sentinel offset meaning "slot deleted".
const DELETED: u16 = u16::MAX;
/// Header offsets of the slot count and the payload byte count (both `u32`).
const SLOTS_AT: usize = 16;
const PAYLOAD_AT: usize = 20;
/// Format marker written at byte 24.
const MAGIC: u64 = 0xD0D0_CAFE_F00D_BABE;

/// A slotted page holding variable-length records, viewed over its bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SlottedPage<B> {
    bytes: B,
}

impl SlottedPage<Vec<u8>> {
    /// Create an empty page in an owned buffer of `page_size` bytes.
    pub fn new(page_id: PageId, page_size: usize) -> Self {
        Self::format(vec![0; page_size], page_id)
    }
}

impl<B: Deref<Target = [u8]>> SlottedPage<B> {
    /// View the bytes of a formatted (or all-zero) page.
    pub fn from_bytes(bytes: B) -> Self {
        Self { bytes }
    }

    /// The page image, exactly `page_size` bytes.
    pub fn as_bytes(&self) -> &[u8] {
        &self.bytes
    }

    fn u32_at(&self, at: usize) -> usize {
        u32::from_le_bytes(self.bytes[at..at + 4].try_into().expect("4 bytes")) as usize
    }

    /// Directory entry `i`: `(offset, length)`, offset == DELETED if dead.
    fn entry(&self, i: usize) -> (u16, usize) {
        let at = HEADER_SIZE + i * SLOT_SIZE;
        let half = |at: usize| u16::from_le_bytes([self.bytes[at], self.bytes[at + 1]]);
        (half(at), half(at + 2) as usize)
    }

    /// `(slot, offset, length)` of every live record, in slot order.
    fn live(&self) -> impl Iterator<Item = (u16, usize, usize)> + '_ {
        (0..self.slot_count())
            .map(|i| (i as u16, self.entry(i)))
            .filter(|&(_, (off, _))| off != DELETED)
            .map(|(slot, (off, len))| (slot, off as usize, len))
    }

    /// This page's identifier.
    pub fn page_id(&self) -> PageId {
        u64::from_le_bytes(self.bytes[..8].try_into().expect("8 bytes"))
    }

    /// Number of slots (including deleted ones).
    pub fn slot_count(&self) -> usize {
        self.u32_at(SLOTS_AT)
    }

    /// Number of live records.
    pub fn record_count(&self) -> usize {
        self.live().count()
    }

    /// Bytes of header + directory + payload currently used (dead records
    /// count until the page is compacted).
    pub fn used_space(&self) -> usize {
        HEADER_SIZE + self.slot_count() * SLOT_SIZE + self.u32_at(PAYLOAD_AT)
    }

    /// Bytes available for a new record (including its slot entry).
    pub fn free_space(&self) -> usize {
        self.bytes.len().saturating_sub(self.used_space())
    }

    /// Whether a record of `len` bytes fits.
    pub fn fits(&self, len: usize) -> bool {
        self.free_space() >= len + SLOT_SIZE
    }

    /// Read the record in `slot`, if it exists and is not deleted.
    pub fn get(&self, slot: u16) -> Option<&[u8]> {
        if slot as usize >= self.slot_count() {
            return None;
        }
        let (off, len) = self.entry(slot as usize);
        (off != DELETED).then(|| &self.bytes[off as usize..off as usize + len])
    }

    /// Iterate over `(slot, record)` pairs of live records.
    pub fn iter(&self) -> impl Iterator<Item = (u16, &[u8])> + '_ {
        self.live()
            .map(|(slot, off, len)| (slot, &self.bytes[off..off + len]))
    }
}

impl<B: DerefMut<Target = [u8]>> SlottedPage<B> {
    /// Format `bytes` as an empty page.  Slot offsets are absolute `u16`s,
    /// so the page must end below the `0xFFFF` tombstone offset.
    pub fn format(mut bytes: B, page_id: PageId) -> Self {
        assert!(bytes.len() >= HEADER_SIZE + 64, "page size too small");
        assert!(
            bytes.len() < DELETED as usize,
            "page size exceeds u16 slot offsets"
        );
        bytes.fill(0);
        bytes[..8].copy_from_slice(&page_id.to_le_bytes());
        bytes[24..HEADER_SIZE].copy_from_slice(&MAGIC.to_le_bytes());
        Self { bytes }
    }

    fn set_entry(&mut self, i: usize, off: u16, len: usize) {
        let at = HEADER_SIZE + i * SLOT_SIZE;
        self.bytes[at..at + 2].copy_from_slice(&off.to_le_bytes());
        self.bytes[at + 2..at + 4].copy_from_slice(&(len as u16).to_le_bytes());
    }

    fn set_u32(&mut self, at: usize, value: usize) {
        self.bytes[at..at + 4].copy_from_slice(&(value as u32).to_le_bytes());
    }

    /// Insert a record, returning its slot number, or `None` if it does not
    /// fit.  Records are limited to what a u16 length can express.
    pub fn insert(&mut self, record: &[u8]) -> Option<u16> {
        if record.len() > u16::MAX as usize - 1 || !self.fits(record.len()) {
            return None;
        }
        let slot = self.slot_count();
        let payload = self.u32_at(PAYLOAD_AT) + record.len();
        let off = self.bytes.len() - payload;
        self.bytes[off..off + record.len()].copy_from_slice(record);
        self.set_entry(slot, off as u16, record.len());
        self.set_u32(SLOTS_AT, slot + 1);
        self.set_u32(PAYLOAD_AT, payload);
        Some(slot as u16)
    }

    /// Delete the record in `slot`. Returns `true` if a live record was
    /// removed.  Space is reclaimed lazily by [`SlottedPage::compact`].
    pub fn delete(&mut self, slot: u16) -> bool {
        let live = self.get(slot).is_some();
        if live {
            self.set_entry(slot as usize, DELETED, 0);
        }
        live
    }

    /// Update the record in `slot` in place if the new value fits in the old
    /// space, otherwise delete + compact + reinsert (the slot number
    /// changes).  Returns the (possibly new) slot, or `None` — with the page
    /// untouched — if the slot is dead or the grown record does not fit.
    pub fn update(&mut self, slot: u16, record: &[u8]) -> Option<u16> {
        let old_len = self.get(slot)?.len();
        if record.len() <= old_len {
            let (off, _) = self.entry(slot as usize);
            self.bytes[off as usize..off as usize + record.len()].copy_from_slice(record);
            self.set_entry(slot as usize, off, record.len());
            return Some(slot);
        }
        // Judge the grow before mutating: what `fits` will say once this
        // record is dead and the page compacted.
        let live: usize = self.live().map(|(_, _, len)| len).sum();
        let used = HEADER_SIZE + self.slot_count() * SLOT_SIZE + live - old_len;
        if record.len() > u16::MAX as usize - 1
            || self.bytes.len().saturating_sub(used) < record.len() + SLOT_SIZE
        {
            return None;
        }
        self.delete(slot);
        self.compact();
        self.insert(record)
    }

    /// Reclaim the payload space of deleted records (slot numbers of live
    /// records are preserved; deleted slots remain as tombstones).
    pub fn compact(&mut self) {
        let size = self.bytes.len();
        let base = size - self.u32_at(PAYLOAD_AT);
        let old = self.bytes[base..].to_vec();
        let mut payload = 0;
        for i in 0..self.slot_count() {
            let (off, len) = self.entry(i);
            if off == DELETED {
                continue;
            }
            payload += len;
            let from = off as usize - base;
            self.bytes[size - payload..size - payload + len]
                .copy_from_slice(&old[from..from + len]);
            self.set_entry(i, (size - payload) as u16, len);
        }
        self.set_u32(PAYLOAD_AT, payload);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_get_roundtrip() {
        let mut p = SlottedPage::new(7, 4096);
        let s0 = p.insert(b"hello").unwrap();
        let s1 = p.insert(b"world!").unwrap();
        assert_eq!(p.get(s0).unwrap(), b"hello");
        assert_eq!(p.get(s1).unwrap(), b"world!");
        assert_eq!(p.record_count(), 2);
    }

    #[test]
    fn delete_leaves_tombstone() {
        let mut p = SlottedPage::new(1, 4096);
        let s0 = p.insert(b"abc").unwrap();
        let s1 = p.insert(b"def").unwrap();
        assert!(p.delete(s0));
        assert!(!p.delete(s0), "double delete returns false");
        assert!(!p.delete(9), "a slot that never existed is not deleted");
        assert!(p.get(s0).is_none());
        assert_eq!(p.get(s1).unwrap(), b"def");
        assert_eq!(p.record_count(), 1);
        assert_eq!(p.slot_count(), 2);
    }

    #[test]
    fn update_in_place_and_grow() {
        let mut p = SlottedPage::new(1, 4096);
        let s = p.insert(b"abcdef").unwrap();
        // Shrink in place: slot stays.
        assert_eq!(p.update(s, b"xy").unwrap(), s);
        assert_eq!(p.get(s).unwrap(), b"xy");
        // Grow: record is moved (possibly to a new slot).
        let s2 = p.update(s, b"a-much-longer-record").unwrap();
        assert_eq!(p.get(s2).unwrap(), b"a-much-longer-record");
    }

    #[test]
    fn grow_is_judged_before_mutating() {
        let mut p = SlottedPage::new(1, 256);
        let s = p.insert(&[1u8; 100]).unwrap();
        p.insert(&[2u8; 100]).unwrap();
        // With slot 0 dead and compacted away 32 + 2·4 + 100 bytes are used
        // and 116 free: a 112-byte record plus its 4-byte entry is the
        // largest grow that fits.
        let before = p.clone();
        assert_eq!(p.update(s, &[3u8; 113]), None);
        assert_eq!(p, before, "a refused grow leaves the page untouched");
        assert_eq!(p.update(s, &[3u8; 112]), Some(2));
        assert_eq!(p.get(2).unwrap(), &[3u8; 112]);
        assert_eq!(p.get(1).unwrap(), &[2u8; 100]);
        assert!(p.get(s).is_none());
        assert_eq!(p.free_space(), 0);
    }

    #[test]
    fn page_fills_up_and_rejects() {
        let mut p = SlottedPage::new(1, 256);
        let rec = [0u8; 50];
        let mut inserted = 0;
        while p.insert(&rec).is_some() {
            inserted += 1;
        }
        assert!(inserted >= 3, "a 256-byte page should fit a few records");
        assert!(!p.fits(50));
        // A smaller record may still fit.
        let _ = p.insert(&[1u8; 4]);
    }

    #[test]
    fn compact_reclaims_space() {
        let mut p = SlottedPage::new(1, 512);
        let mut slots = Vec::new();
        for i in 0..6 {
            slots.push(p.insert(&[i as u8; 40]).unwrap());
        }
        let used_before = p.used_space();
        for s in slots.iter().take(3) {
            p.delete(*s);
        }
        p.compact();
        assert!(p.used_space() < used_before);
        // Remaining records intact.
        for (i, s) in slots.iter().enumerate().skip(3) {
            assert_eq!(p.get(*s).unwrap(), &[i as u8; 40]);
        }
    }

    #[test]
    fn a_view_over_the_page_image_is_the_page() {
        let mut p = SlottedPage::new(99, 4096);
        let s0 = p.insert(b"alpha").unwrap();
        let s1 = p.insert(b"bravo").unwrap();
        p.delete(s0);
        assert_eq!(p.as_bytes().len(), 4096);
        // What the heap does on a pinned frame: modify through a `&mut [u8]`
        // view, read through a `&[u8]` view, no copy in between.
        let mut frame = p.as_bytes().to_vec();
        let s2 = SlottedPage::from_bytes(&mut frame[..])
            .insert(b"charlie")
            .unwrap();
        let q = SlottedPage::from_bytes(&frame[..]);
        assert_eq!(q.page_id(), 99);
        assert!(q.get(s0).is_none());
        assert_eq!(q.get(s1).unwrap(), b"bravo");
        assert_eq!(q.get(s2).unwrap(), b"charlie");
    }

    #[test]
    fn zeroed_buffer_reads_as_an_empty_page() {
        let zero = vec![0u8; 4096];
        let p = SlottedPage::from_bytes(&zero[..]);
        assert_eq!(
            (p.slot_count(), p.record_count(), p.used_space()),
            (0, 0, HEADER_SIZE)
        );
        assert!(p.get(0).is_none());
    }

    #[test]
    #[should_panic(expected = "page size exceeds u16 slot offsets")]
    fn page_too_large_for_u16_offsets_is_refused() {
        // Regression: this used to construct, and 70 000 bytes of records
        // later slot offsets had wrapped and `get` returned the wrong bytes.
        let mut p = SlottedPage::new(7, 131_072);
        for i in 0..70u8 {
            p.insert(&[i; 1000]).unwrap();
        }
        assert_eq!(p.get(69).unwrap(), &[69u8; 1000]);
    }

    #[test]
    fn iter_skips_deleted() {
        let mut p = SlottedPage::new(1, 4096);
        let a = p.insert(b"a").unwrap();
        let _b = p.insert(b"b").unwrap();
        p.delete(a);
        let collected: Vec<&[u8]> = p.iter().map(|(_, r)| r).collect();
        assert_eq!(collected, vec![b"b" as &[u8]]);
    }
}

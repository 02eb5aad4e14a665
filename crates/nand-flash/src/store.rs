//! The page store: the bytes of every programmed page, in reference-counted
//! slots.
//!
//! A page that holds data names a slot ([`crate::page::Page`]'s `data`).
//! PAGE PROGRAM copies the host bytes into a free slot with a count of 1.
//! COPYBACK gives its destination the source's slot and adds 1 to the
//! count: it copies no bytes, which is exact because nothing can write to a
//! programmed page before its block is erased.  BLOCK ERASE releases each
//! page's slot, and a slot whose count reaches 0 goes on the free list,
//! where the next PAGE PROGRAM finds it.
//!
//! Slots live in chunks of [`CHUNK_SLOTS`], taken from the heap as slots are
//! first needed, so a device that never fills keeps few of them and a
//! growing store reuses heap an earlier phase freed.  Each slot is padded by
//! [`SLOT_PAD`] bytes, so consecutive slots do not sit at the same offset
//! modulo 4 KiB as the page-sized host buffers they are copied to and from.

/// Slots per heap chunk (≈ 65 KiB of 4 KiB pages, below the size at which
/// the system allocator maps a chunk of its own).
const CHUNK_SLOTS: usize = 16;

/// Padding after each slot's bytes.
const SLOT_PAD: usize = 64;

/// Reference-counted page slots (see the module docs).
pub(crate) struct PageStore {
    /// Bytes per page.
    page_size: usize,
    /// The slots, [`CHUNK_SLOTS`] per chunk, `page_size + SLOT_PAD` bytes
    /// apart.
    chunks: Vec<Box<[u8]>>,
    /// Pages holding each slot; 0 for a free slot.
    refs: Vec<u32>,
    /// Slots whose count is 0, reused last-freed first.
    free: Vec<u32>,
}

impl PageStore {
    /// An empty store of `page_size`-byte slots.
    pub(crate) fn new(page_size: usize) -> Self {
        Self {
            page_size,
            chunks: Vec::new(),
            refs: Vec::new(),
            free: Vec::new(),
        }
    }

    fn stride(&self) -> usize {
        self.page_size + SLOT_PAD
    }

    fn range(&self, slot: u32) -> std::ops::Range<usize> {
        let at = (slot as usize % CHUNK_SLOTS) * self.stride();
        at..at + self.page_size
    }

    /// Copy `bytes` (one page) into a free slot held once, and return it.
    pub(crate) fn put(&mut self, bytes: &[u8]) -> u32 {
        let slot = match self.free.pop() {
            Some(slot) => slot,
            None => self.grow(),
        };
        self.refs[slot as usize] = 1;
        let range = self.range(slot);
        self.chunks[slot as usize / CHUNK_SLOTS][range].copy_from_slice(bytes);
        slot
    }

    /// Add one chunk; return its first slot and put the others on the free
    /// list.
    fn grow(&mut self) -> u32 {
        let first = self.refs.len() as u32;
        self.chunks
            .push(vec![0; CHUNK_SLOTS * self.stride()].into_boxed_slice());
        self.refs.resize(self.refs.len() + CHUNK_SLOTS, 0);
        self.free
            .extend((first + 1..first + CHUNK_SLOTS as u32).rev());
        first
    }

    /// Hold `slot` once more (a COPYBACK destination), and return it.
    pub(crate) fn share(&mut self, slot: u32) -> u32 {
        self.refs[slot as usize] += 1;
        slot
    }

    /// The bytes of `slot`.
    pub(crate) fn get(&self, slot: u32) -> &[u8] {
        &self.chunks[slot as usize / CHUNK_SLOTS][self.range(slot)]
    }

    /// Drop one hold on `slot`; the last one frees it.
    pub(crate) fn release(&mut self, slot: u32) {
        let refs = &mut self.refs[slot as usize];
        *refs -= 1;
        if *refs == 0 {
            self.free.push(slot);
        }
    }

    /// Each slot's count of holders (0 for a free slot).
    #[cfg(test)]
    pub(crate) fn refs(&self) -> &[u32] {
        &self.refs
    }

    /// Slots held by at least one page.
    #[cfg(test)]
    pub(crate) fn live(&self) -> usize {
        self.refs.len() - self.free.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slots_round_trip_their_bytes() {
        let mut store = PageStore::new(8);
        let slots: Vec<u32> = (0..40u8).map(|i| store.put(&[i; 8])).collect();
        assert_eq!(store.chunks.len(), 3, "slots come a chunk at a time");
        for (i, &slot) in slots.iter().enumerate() {
            assert_eq!(store.get(slot), &[i as u8; 8]);
        }
        assert_eq!(store.live(), 40);
    }

    #[test]
    fn a_shared_slot_is_freed_by_its_last_release() {
        let mut store = PageStore::new(8);
        let a = store.put(&[1; 8]);
        assert_eq!(store.share(a), a);
        store.release(a);
        assert_eq!(store.get(a), &[1; 8], "one holder is left");
        assert_eq!(store.live(), 1);
        store.release(a);
        assert_eq!(store.live(), 0);
        // The freed slot is the next one handed out, overwritten in full.
        assert_eq!(store.put(&[2; 8]), a);
        assert_eq!(store.get(a), &[2; 8]);
        assert_eq!(store.chunks.len(), 1);
    }
}

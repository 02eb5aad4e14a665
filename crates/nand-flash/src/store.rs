//! The page store: the bytes of every programmed page, in reference-counted
//! slots.
//!
//! A page that holds data names a slot ([`crate::page::Page`]'s `data`).
//! PAGE PROGRAM of host bytes copies them into a free slot held once.  Two
//! commands move a page without its bytes: COPYBACK and
//! [`NandDevice::copy_page`](crate::NandDevice::copy_page) (a PAGE READ and
//! a PAGE PROGRAM of the same bytes) give their destination the source's
//! slot and add 1 to the count.  They copy no bytes, which is exact because
//! nothing can write to a programmed page before its block is erased.
//! BLOCK ERASE releases each page's slot, and a slot whose count reaches 0
//! goes on the free list, where the next PAGE PROGRAM finds it.
//!
//! A page is [`LINES`] lines; its fill byte is its first uniform line's byte
//! (else 0).  A slot keeps only the lines that are not all fill bytes, packed
//! in order; the mask of stored lines and the fill byte sit beside its count,
//! so a read knows what to copy before it touches the slot.  A page under
//! [`LINES`] bytes or not a multiple of it is stored whole.
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

/// Lines per page, one bit each in a slot's mask.
const LINES: usize = 64;

/// Reference-counted page slots (see the module docs).
pub(crate) struct PageStore {
    /// Bytes per page.
    page_size: usize,
    /// Bytes per line: `page_size / LINES`, or the page when stored whole.
    line: usize,
    /// The slots, [`CHUNK_SLOTS`] per chunk, `page_size + SLOT_PAD` bytes
    /// apart.
    chunks: Vec<Box<[u8]>>,
    /// Each slot's count and shape.
    slots: Vec<Slot>,
    /// Slots whose count is 0, reused last-freed first.
    free: Vec<u32>,
}

/// A slot's holders (0 when free), mask of stored lines and fill byte.
#[derive(Clone, Copy, Default)]
struct Slot {
    refs: u32,
    mask: u64,
    fill: u8,
}

impl PageStore {
    /// An empty store of `page_size`-byte slots.
    pub(crate) fn new(page_size: usize) -> Self {
        Self {
            page_size,
            line: if page_size.is_multiple_of(LINES) { page_size / LINES } else { page_size },
            chunks: Vec::new(),
            slots: Vec::new(),
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

    /// Copy the stored lines of `bytes` into a free slot held once; return it.
    pub(crate) fn put(&mut self, bytes: &[u8]) -> u32 {
        let slot = match self.free.pop() {
            Some(slot) => slot,
            None => self.grow(),
        };
        let (mask, fill) = self.shape(bytes);
        self.slots[slot as usize] = Slot { refs: 1, mask, fill };
        let (runs, range) = (self.runs(mask), self.range(slot));
        let data = &mut self.chunks[slot as usize / CHUNK_SLOTS][range];
        for (run, at) in runs {
            data[at..at + run.len()].copy_from_slice(&bytes[run]);
        }
        slot
    }

    /// The mask of lines of `bytes` to store, and its fill byte.
    fn shape(&self, bytes: &[u8]) -> (u64, u8) {
        if self.line == self.page_size {
            return (1, 0);
        }
        let (mut fill, mut mask) = (None, 0u64);
        for (i, line) in bytes.chunks_exact(self.line).enumerate() {
            let first = line[0];
            if fill.is_some_and(|fill| fill != first) || !uniform(line, first) {
                mask |= 1 << i;
            } else if fill.replace(first).is_none() {
                // The first uniform line: if the rest of the page is all
                // this byte too, no later line is stored.
                let rest = &bytes[i * self.line..];
                if rest[1..] == rest[..rest.len() - 1] {
                    break;
                }
            }
        }
        (mask, fill.unwrap_or(0))
    }

    /// The byte ranges of a page that `mask` stores, one per run of stored
    /// lines, each with its offset in the slot.
    fn runs(&self, mut mask: u64) -> impl Iterator<Item = (std::ops::Range<usize>, usize)> {
        let (line, mut at) = (self.line, 0);
        std::iter::from_fn(move || {
            let first = mask.trailing_zeros();
            (first < u64::BITS).then(|| {
                let end = first + (mask >> first).trailing_ones();
                mask &= u64::MAX.checked_shl(end).unwrap_or(0);
                let run = first as usize * line..end as usize * line;
                at += run.len();
                (run.clone(), at - run.len())
            })
        })
    }

    /// Add one chunk; return its first slot and put the others on the free
    /// list.
    fn grow(&mut self) -> u32 {
        let first = self.slots.len() as u32;
        self.chunks
            .push(vec![0; CHUNK_SLOTS * self.stride()].into_boxed_slice());
        self.slots.resize(self.slots.len() + CHUNK_SLOTS, Slot::default());
        self.free
            .extend((first + 1..first + CHUNK_SLOTS as u32).rev());
        first
    }

    /// Hold `slot` once more (a COPYBACK destination), and return it.
    pub(crate) fn share(&mut self, slot: u32) -> u32 {
        self.slots[slot as usize].refs += 1;
        slot
    }

    /// Copy the page `slot` holds into `buf`: the fill byte, then the stored
    /// lines in place.
    pub(crate) fn read(&self, slot: u32, buf: &mut [u8]) {
        let Slot { mask, fill, .. } = self.slots[slot as usize];
        let data = &self.chunks[slot as usize / CHUNK_SLOTS][self.range(slot)];
        if mask == u64::MAX {
            return buf.copy_from_slice(data);
        }
        buf.fill(fill);
        for (run, at) in self.runs(mask) {
            buf[run.clone()].copy_from_slice(&data[at..at + run.len()]);
        }
    }

    /// Drop one hold on `slot`; the last one frees it.
    pub(crate) fn release(&mut self, slot: u32) {
        let refs = &mut self.slots[slot as usize].refs;
        *refs -= 1;
        if *refs == 0 {
            self.free.push(slot);
        }
    }

    /// Each slot's count of holders (0 for a free slot).
    #[cfg(test)]
    pub(crate) fn refs(&self) -> Vec<u32> {
        self.slots.iter().map(|s| s.refs).collect()
    }

    /// Slots held by at least one page.
    #[cfg(test)]
    pub(crate) fn live(&self) -> usize {
        self.slots.len() - self.free.len()
    }
}

/// Whether every byte of `line` is `byte`, compared a word at a time.
fn uniform(line: &[u8], byte: u8) -> bool {
    let (words, tail) = line.as_chunks::<8>();
    let splat = u64::from_ne_bytes([byte; 8]);
    let diff = words.iter().fold(0, |acc, w| acc | (u64::from_ne_bytes(*w) ^ splat));
    diff == 0 && tail.iter().all(|&b| b == byte)
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use sim_utils::SimRng;

    /// A page of `page_size` bytes in one of five shapes drawn from `rng`:
    /// one byte throughout, two uniform halves of different bytes, every
    /// line noisy, only line 0 noisy, or a mix of noisy lines and lines of
    /// a second byte.
    pub(crate) fn shaped_page(rng: &mut SimRng, page_size: usize) -> Vec<u8> {
        let (a, b) = (rng.next_u64() as u8, rng.next_u64() as u8);
        let mut page = vec![a; page_size];
        let kind = rng.range(0, 5);
        for (i, line) in page.chunks_mut((page_size / LINES).max(1)).enumerate() {
            let noisy = match kind {
                0 => false,
                1 => {
                    if i >= LINES / 2 {
                        line.fill(b);
                    }
                    false
                }
                2 => true,
                3 => i == 0,
                _ => match rng.range(0, 4) {
                    0 => true,
                    1 => {
                        line.fill(b);
                        false
                    }
                    _ => false,
                },
            };
            if noisy {
                line.iter_mut().for_each(|x| *x = rng.next_u64() as u8);
            }
        }
        page
    }

    /// The page `slot` holds, read into a buffer of stale bytes.
    fn read(store: &PageStore, slot: u32) -> Vec<u8> {
        let mut buf = vec![0xEE; store.page_size];
        store.read(slot, &mut buf);
        buf
    }

    /// Store `page`, check that it reads back, and return its shape.
    fn round_trip(store: &mut PageStore, page: &[u8]) -> (u64, u8) {
        let slot = store.put(page);
        assert_eq!(read(store, slot), page);
        store.shape(page)
    }

    /// A 4 KiB page of `byte` whose line `i` holds noise where `noisy(i)`.
    fn page_4k(byte: u8, noisy: impl Fn(usize) -> bool) -> Vec<u8> {
        let mut page = vec![byte; 4096];
        for (i, line) in page.chunks_mut(64).enumerate() {
            if noisy(i) {
                line.iter_mut().enumerate().for_each(|(j, x)| *x = (i * 64 + j) as u8);
            }
        }
        page
    }

    #[test]
    fn slots_round_trip_their_bytes() {
        let mut store = PageStore::new(8);
        let slots: Vec<u32> = (0..40u8).map(|i| store.put(&[i; 8])).collect();
        assert_eq!(store.refs().len(), 48, "slots come a chunk at a time");
        for (i, &slot) in slots.iter().enumerate() {
            assert_eq!(read(&store, slot), [i as u8; 8]);
        }
        assert_eq!(store.live(), 40);
    }

    #[test]
    fn a_shared_slot_is_freed_by_its_last_release() {
        let mut store = PageStore::new(8);
        let a = store.put(&[1; 8]);
        assert_eq!(store.share(a), a);
        store.release(a);
        assert_eq!(read(&store, a), [1; 8], "one holder is left");
        assert_eq!(store.live(), 1);
        store.release(a);
        assert_eq!(store.live(), 0);
        // The freed slot is the next one handed out, overwritten in full.
        assert_eq!(store.put(&[2; 8]), a);
        assert_eq!(read(&store, a), [2; 8]);
        assert_eq!(store.refs().len(), CHUNK_SLOTS);
    }

    #[test]
    fn a_uniform_page_stores_no_line() {
        let mut store = PageStore::new(4096);
        assert_eq!(round_trip(&mut store, &[0x5A; 4096]), (0, 0x5A));
        assert_eq!(round_trip(&mut store, &[0; 4096]), (0, 0));
    }

    #[test]
    fn uniform_lines_of_a_second_byte_are_stored() {
        let mut store = PageStore::new(4096);
        let mut page = vec![0; 4096];
        page[2048..].fill(0xFF);
        assert_eq!(round_trip(&mut store, &page), (u64::MAX << 32, 0));
        // The fill is the first uniform line's byte, after noisy lines.
        let page = page_4k(3, |i| i < 2);
        assert_eq!(round_trip(&mut store, &page), (0b11, 3));
    }

    #[test]
    fn a_dense_page_stores_every_line() {
        let mut store = PageStore::new(4096);
        let page = page_4k(0, |_| true);
        assert_eq!(round_trip(&mut store, &page), (u64::MAX, 0));
    }

    #[test]
    fn a_noisy_line_0_is_stored_and_the_rest_filled() {
        let mut store = PageStore::new(4096);
        let page = page_4k(0xA5, |i| i == 0);
        assert_eq!(round_trip(&mut store, &page), (1, 0xA5));
        // Scattered runs of noisy lines come back in place.
        let page = page_4k(0, |i| i % 8 < 3 || i == 63);
        let (mask, _) = round_trip(&mut store, &page);
        assert_eq!(mask.count_ones(), 25);
    }

    #[test]
    fn small_and_odd_pages_are_stored_whole() {
        for page_size in [8, 100] {
            let mut store = PageStore::new(page_size);
            let page: Vec<u8> = (0..page_size).map(|i| (i % 7) as u8).collect();
            assert_eq!(round_trip(&mut store, &page), (1, 0), "one line, the page");
            assert_eq!(round_trip(&mut store, &vec![9; page_size]), (1, 0));
        }
        // 512-byte pages have 8-byte lines.
        let mut store = PageStore::new(512);
        let mut page = vec![4; 512];
        page[100] = 5;
        assert_eq!(round_trip(&mut store, &page), (1 << 12, 4));
    }

    #[test]
    fn a_shared_slot_reads_back_after_its_source_is_released() {
        let mut store = PageStore::new(4096);
        let page = page_4k(0, |i| i % 2 == 1);
        let a = store.put(&page);
        // A COPYBACK destination holds the slot; the source block's erase
        // drops the source's hold; a later PROGRAM takes another slot.
        let b = store.share(a);
        store.release(a);
        let c = store.put(&[1; 4096]);
        assert_ne!(c, b);
        assert_eq!(read(&store, b), page);
    }

    #[test]
    fn seeded_pages_of_every_size_round_trip() {
        for page_size in [8, 512, 4096, 8192] {
            let mut rng = SimRng::new(page_size as u64);
            let mut store = PageStore::new(page_size);
            let mut held = Vec::new();
            for step in 0..400 {
                let page = shaped_page(&mut rng, page_size);
                held.push((store.put(&page), page));
                if step % 3 == 2 {
                    let (slot, _) = held.swap_remove(rng.range_usize(0, held.len()));
                    store.release(slot);
                }
            }
            for (slot, page) in &held {
                assert_eq!(&read(&store, *slot), page);
            }
        }
    }
}

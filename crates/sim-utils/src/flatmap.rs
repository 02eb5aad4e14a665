//! A dense, directly-indexed set for simulation hot paths.
//!
//! The NoFTL argument (paper §3.1) is that the *host* can afford dense
//! per-page tables where an SSD controller cannot.  [`FlatBitSet`] is the
//! set form of that argument (the map form is the flat `Vec` inside
//! [`crate::pagetable::PageTable`]): a bitset with a popcount-based
//! iterator in place of a `HashSet` on per-page paths — buffer-pool dirty
//! tracking, FASTer's second-chance set, NoFTL's dead-page hints.

/// A growable bitset over dense indices with O(1) membership updates and a
/// word-skipping iterator — backs the buffer pool's dirty-page tracking and
/// FASTer's second-chance set.
#[derive(Debug, Clone, Default)]
pub struct FlatBitSet {
    words: Vec<u64>,
    len: usize,
}

impl FlatBitSet {
    /// Empty set; grows on demand.
    pub fn new() -> Self {
        Self::default()
    }

    /// Empty set pre-sized for indices `0..capacity`.
    pub fn with_index_capacity(capacity: usize) -> Self {
        Self {
            words: vec![0; capacity.div_ceil(64)],
            len: 0,
        }
    }

    /// Number of set bits.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no bit is set.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Whether `index` is in the set.
    #[inline]
    pub fn contains(&self, index: u64) -> bool {
        match self.words.get(index as usize / 64) {
            Some(w) => w & (1u64 << (index % 64)) != 0,
            None => false,
        }
    }

    /// Add `index`; returns `true` if it was newly inserted.
    #[inline]
    pub fn insert(&mut self, index: u64) -> bool {
        let word = index as usize / 64;
        if word >= self.words.len() {
            let target = (word + 1).max(self.words.len() * 2).max(4);
            self.words.resize(target, 0);
        }
        let mask = 1u64 << (index % 64);
        let newly = self.words[word] & mask == 0;
        self.words[word] |= mask;
        self.len += usize::from(newly);
        newly
    }

    /// Remove `index`; returns `true` if it was present.
    #[inline]
    pub fn remove(&mut self, index: u64) -> bool {
        match self.words.get_mut(index as usize / 64) {
            Some(w) => {
                let mask = 1u64 << (index % 64);
                let was = *w & mask != 0;
                *w &= !mask;
                self.len -= usize::from(was);
                was
            }
            None => false,
        }
    }

    /// Clear every bit (keeps the allocation).
    pub fn clear(&mut self) {
        self.words.fill(0);
        self.len = 0;
    }

    /// Iterate over set indices in ascending order, skipping zero words.
    pub fn iter(&self) -> impl Iterator<Item = u64> + '_ {
        self.words
            .iter()
            .enumerate()
            .filter(|(_, &w)| w != 0)
            .flat_map(|(wi, &w)| {
                let base = wi as u64 * 64;
                BitIter { word: w }.map(move |b| base + b)
            })
    }
}

struct BitIter {
    word: u64,
}

impl Iterator for BitIter {
    type Item = u64;

    #[inline]
    fn next(&mut self) -> Option<u64> {
        if self.word == 0 {
            return None;
        }
        let bit = self.word.trailing_zeros() as u64;
        self.word &= self.word - 1;
        Some(bit)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::SimRng;
    use std::collections::HashSet;

    #[test]
    fn bitset_basics() {
        let mut s = FlatBitSet::with_index_capacity(128);
        assert!(s.insert(5));
        assert!(!s.insert(5));
        assert!(s.contains(5));
        assert!(s.insert(64));
        assert!(s.insert(127));
        assert_eq!(s.len(), 3);
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![5, 64, 127]);
        assert!(s.remove(64));
        assert!(!s.remove(64));
        assert_eq!(s.len(), 2);
        s.clear();
        assert!(s.is_empty());
        assert!(!s.contains(5));
    }

    #[test]
    fn bitset_grows_and_matches_hashset_model() {
        let mut rng = SimRng::new(7);
        let mut set = FlatBitSet::new();
        let mut model: HashSet<u64> = HashSet::new();
        for _ in 0..20_000 {
            let k = rng.range(0, 1000);
            match rng.range(0, 3) {
                0 => assert_eq!(set.insert(k), model.insert(k)),
                1 => assert_eq!(set.remove(k), model.remove(&k)),
                _ => assert_eq!(set.contains(k), model.contains(&k)),
            }
            assert_eq!(set.len(), model.len());
        }
        let mut sorted: Vec<u64> = model.into_iter().collect();
        sorted.sort_unstable();
        assert_eq!(set.iter().collect::<Vec<_>>(), sorted);
    }
}

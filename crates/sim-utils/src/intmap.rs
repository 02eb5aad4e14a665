//! Open-addressing integer hash map for hot paths with *sparse* key spaces.
//!
//! Where a flat `Vec` covers dense index keys, `IntMap` covers
//! keys too sparse to index directly (buffer-pool page ids over a huge
//! address space, LRU directory entries).  It is a linear-probing table with
//! Fibonacci hashing, backward-shift deletion (no tombstones) and a load
//! factor capped at 1/2 — roughly an FxHash map without the dependency, and
//! several times faster than `std`'s SipHash `HashMap` for integer keys.

const EMPTY: u64 = u64::MAX;

/// Multiplicative (Fibonacci) hash: spreads consecutive integers across the
/// table while staying a single multiply.
#[inline]
fn spread(key: u64) -> u64 {
    key.wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// A `u64 -> u64` open-addressing hash map.  Keys must not be `u64::MAX`
/// (used as the empty sentinel); page ids and LPNs always satisfy this.
#[derive(Debug, Clone)]
pub struct IntMap {
    keys: Vec<u64>,
    vals: Vec<u64>,
    len: usize,
    shift: u32,
}

impl Default for IntMap {
    fn default() -> Self {
        Self::with_capacity(8)
    }
}

impl IntMap {
    /// Empty map with default capacity.
    pub fn new() -> Self {
        Self::default()
    }

    /// Empty map able to hold `capacity` entries before resizing.
    pub fn with_capacity(capacity: usize) -> Self {
        let slots = (capacity.max(4) * 2).next_power_of_two();
        Self {
            keys: vec![EMPTY; slots],
            vals: vec![0; slots],
            len: 0,
            shift: 64 - slots.trailing_zeros(),
        }
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the map is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    #[inline]
    fn mask(&self) -> usize {
        self.keys.len() - 1
    }

    #[inline]
    fn ideal_slot(&self, key: u64) -> usize {
        (spread(key) >> self.shift) as usize
    }

    /// Value for `key`, if present.  The sentinel key `u64::MAX` is never
    /// stored, so querying it is always `None` (the EMPTY check runs first,
    /// which also keeps that true in release builds).
    #[inline]
    pub fn get(&self, key: u64) -> Option<u64> {
        let mask = self.mask();
        let mut i = self.ideal_slot(key);
        loop {
            let k = self.keys[i];
            if k == EMPTY {
                return None;
            }
            if k == key {
                return Some(self.vals[i]);
            }
            i = (i + 1) & mask;
        }
    }

    /// Whether `key` is present.
    #[inline]
    pub fn contains_key(&self, key: u64) -> bool {
        self.get(key).is_some()
    }

    /// Insert `key -> value`; returns the previous value if the key existed.
    #[inline]
    pub fn insert(&mut self, key: u64, value: u64) -> Option<u64> {
        debug_assert!(key != EMPTY, "IntMap key space excludes u64::MAX");
        if (self.len + 1) * 2 > self.keys.len() {
            self.grow();
        }
        let mask = self.mask();
        let mut i = self.ideal_slot(key);
        loop {
            let k = self.keys[i];
            if k == key {
                return Some(core::mem::replace(&mut self.vals[i], value));
            }
            if k == EMPTY {
                self.keys[i] = key;
                self.vals[i] = value;
                self.len += 1;
                return None;
            }
            i = (i + 1) & mask;
        }
    }

    /// Remove `key`, returning its value if present.  Uses backward-shift
    /// deletion so probe chains stay dense (no tombstones accumulate).
    /// The sentinel key `u64::MAX` is never stored, so removing it is a
    /// no-op returning `None` (the EMPTY check in the probe loop covers it).
    #[inline]
    pub fn remove(&mut self, key: u64) -> Option<u64> {
        let mask = self.mask();
        let mut i = self.ideal_slot(key);
        loop {
            let k = self.keys[i];
            if k == EMPTY {
                return None;
            }
            if k == key {
                break;
            }
            i = (i + 1) & mask;
        }
        let value = self.vals[i];
        // Backward shift: pull successors whose ideal slot precedes the hole.
        let mut hole = i;
        let mut j = i;
        loop {
            j = (j + 1) & mask;
            let k = self.keys[j];
            if k == EMPTY {
                break;
            }
            let ideal = self.ideal_slot(k);
            // Move k into the hole unless its ideal position lies strictly
            // inside the cyclic interval (hole, j].
            let in_interval = if hole <= j {
                ideal > hole && ideal <= j
            } else {
                ideal > hole || ideal <= j
            };
            if !in_interval {
                self.keys[hole] = k;
                self.vals[hole] = self.vals[j];
                hole = j;
            }
        }
        self.keys[hole] = EMPTY;
        self.len -= 1;
        Some(value)
    }

    /// Remove every entry (keeps the allocation).
    pub fn clear(&mut self) {
        self.keys.fill(EMPTY);
        self.len = 0;
    }

    /// Iterate over `(key, value)` pairs in table order.
    pub fn iter(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.keys
            .iter()
            .zip(self.vals.iter())
            .filter(|(&k, _)| k != EMPTY)
            .map(|(&k, &v)| (k, v))
    }

    fn grow(&mut self) {
        let new_slots = self.keys.len() * 2;
        let old_keys = core::mem::replace(&mut self.keys, vec![EMPTY; new_slots]);
        let old_vals = core::mem::take(&mut self.vals);
        self.vals = vec![0; new_slots];
        self.shift = 64 - new_slots.trailing_zeros();
        self.len = 0;
        for (k, v) in old_keys.into_iter().zip(old_vals) {
            if k != EMPTY {
                self.insert(k, v);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::SimRng;
    use std::collections::HashMap;

    #[test]
    fn sentinel_key_is_always_absent() {
        let mut m = IntMap::new();
        assert_eq!(m.get(u64::MAX), None);
        assert!(!m.contains_key(u64::MAX));
        assert_eq!(m.remove(u64::MAX), None);
        m.insert(0, 7); // occupy a slot; the sentinel must still miss
        assert_eq!(m.get(u64::MAX), None);
    }

    #[test]
    fn basics() {
        let mut m = IntMap::new();
        assert_eq!(m.get(1), None);
        assert_eq!(m.insert(1, 10), None);
        assert_eq!(m.insert(1, 11), Some(10));
        assert_eq!(m.get(1), Some(11));
        assert_eq!(m.remove(1), Some(11));
        assert_eq!(m.remove(1), None);
        assert!(m.is_empty());
    }

    #[test]
    fn grows_beyond_initial_capacity() {
        let mut m = IntMap::with_capacity(4);
        for k in 0..1000u64 {
            m.insert(k, k * 3);
        }
        assert_eq!(m.len(), 1000);
        for k in 0..1000u64 {
            assert_eq!(m.get(k), Some(k * 3));
        }
    }

    #[test]
    fn colliding_keys_and_backshift_deletion() {
        // Keys chosen to collide in a small table exercise the backward-shift
        // path; the model comparison proves chains stay reachable.
        let mut m = IntMap::with_capacity(4);
        let keys: Vec<u64> = (0..32).map(|i| i * 8).collect();
        for &k in &keys {
            m.insert(k, k + 1);
        }
        for &k in keys.iter().step_by(2) {
            assert_eq!(m.remove(k), Some(k + 1));
        }
        for (i, &k) in keys.iter().enumerate() {
            let expect = (i % 2 == 1).then_some(k + 1);
            assert_eq!(m.get(k), expect);
        }
    }

    #[test]
    fn matches_hashmap_model_under_churn() {
        let mut rng = SimRng::new(1234);
        let mut fast = IntMap::new();
        let mut model: HashMap<u64, u64> = HashMap::new();
        for _ in 0..50_000 {
            let k = rng.range(0, 700);
            match rng.range(0, 4) {
                0 | 1 => assert_eq!(fast.insert(k, k ^ 0xABCD), model.insert(k, k ^ 0xABCD)),
                2 => assert_eq!(fast.remove(k), model.remove(&k)),
                _ => assert_eq!(fast.get(k), model.get(&k).copied()),
            }
            assert_eq!(fast.len(), model.len());
        }
        let mut a: Vec<_> = fast.iter().collect();
        let mut b: Vec<_> = model.into_iter().collect();
        a.sort_unstable();
        b.sort_unstable();
        assert_eq!(a, b);
    }
}

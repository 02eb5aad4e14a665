//! Mapping-table data structures shared by the FTL implementations.
//!
//! * [`PageMap`] — a dense logical-page → physical-page table plus an equally
//!   dense reverse table needed by GC to find which logical page a physical
//!   page holds.
//! * [`LruCache`] — the Cached Mapping Table (CMT) used by DFTL: a bounded
//!   LRU of `lpn → ppa` entries with dirty tracking.
//!
//! Both directions of [`PageMap`] and the [`LruCache`] directory are flat
//! integer structures ([`sim_utils::flatmap::FlatMap`] /
//! [`sim_utils::intmap::IntMap`]): the FTL baselines must not be artificially
//! slowed by SipHash lookups the paper's comparisons never charged them for.

use sim_utils::intmap::IntMap;

/// The page-level mapping table: [`sim_utils::pagetable::PageTable`], the
/// structure NoFTL keeps in host memory under the name
/// `noftl_core::mapping::HostMappingTable`.
pub use sim_utils::pagetable::PageTable as PageMap;

/// Entry state inside the [`LruCache`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CmtEntry {
    /// Cached physical location.
    pub ppa: u64,
    /// Whether the cached mapping differs from the on-Flash translation page.
    pub dirty: bool,
}

/// A bounded LRU cache of `lpn → ppa` mappings (DFTL's CMT).
///
/// Implemented as an open-addressing integer directory plus an intrusive
/// doubly-linked list over a slab of nodes, giving O(1) lookup, insert,
/// touch and eviction without SipHash in the loop.
#[derive(Debug)]
pub struct LruCache {
    capacity: usize,
    map: IntMap,
    nodes: Vec<Node>,
    free: Vec<usize>,
    head: Option<usize>, // most recently used
    tail: Option<usize>, // least recently used
}

#[derive(Debug, Clone)]
struct Node {
    key: u64,
    entry: CmtEntry,
    prev: Option<usize>,
    next: Option<usize>,
}

impl LruCache {
    /// Create a cache holding at most `capacity` entries (capacity ≥ 1).
    pub fn new(capacity: usize) -> Self {
        assert!(capacity >= 1, "LRU capacity must be at least 1");
        Self {
            capacity,
            map: IntMap::with_capacity(capacity.min(1 << 20)),
            nodes: Vec::with_capacity(capacity),
            free: Vec::new(),
            head: None,
            tail: None,
        }
    }

    /// Number of entries currently cached.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Whether the cache is at capacity.
    pub fn is_full(&self) -> bool {
        self.map.len() >= self.capacity
    }

    /// Maximum number of entries.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    fn detach(&mut self, idx: usize) {
        let (prev, next) = (self.nodes[idx].prev, self.nodes[idx].next);
        match prev {
            Some(p) => self.nodes[p].next = next,
            None => self.head = next,
        }
        match next {
            Some(n) => self.nodes[n].prev = prev,
            None => self.tail = prev,
        }
        self.nodes[idx].prev = None;
        self.nodes[idx].next = None;
    }

    fn push_front(&mut self, idx: usize) {
        self.nodes[idx].prev = None;
        self.nodes[idx].next = self.head;
        if let Some(h) = self.head {
            self.nodes[h].prev = Some(idx);
        }
        self.head = Some(idx);
        if self.tail.is_none() {
            self.tail = Some(idx);
        }
    }

    /// Look up `key`, marking it most-recently-used.
    pub fn get(&mut self, key: u64) -> Option<CmtEntry> {
        let idx = self.map.get(key)? as usize;
        self.detach(idx);
        self.push_front(idx);
        Some(self.nodes[idx].entry)
    }

    /// Look up `key` without affecting recency.
    pub fn peek(&self, key: u64) -> Option<CmtEntry> {
        self.map.get(key).map(|idx| self.nodes[idx as usize].entry)
    }

    /// Insert or update `key`. Returns the evicted `(lpn, entry)` if the cache
    /// was full and a victim had to be dropped.
    pub fn insert(&mut self, key: u64, entry: CmtEntry) -> Option<(u64, CmtEntry)> {
        if let Some(idx) = self.map.get(key) {
            let idx = idx as usize;
            self.nodes[idx].entry = entry;
            self.detach(idx);
            self.push_front(idx);
            return None;
        }
        let evicted = if self.map.len() >= self.capacity {
            self.pop_lru()
        } else {
            None
        };
        let idx = if let Some(free) = self.free.pop() {
            self.nodes[free] = Node {
                key,
                entry,
                prev: None,
                next: None,
            };
            free
        } else {
            self.nodes.push(Node {
                key,
                entry,
                prev: None,
                next: None,
            });
            self.nodes.len() - 1
        };
        self.map.insert(key, idx as u64);
        self.push_front(idx);
        evicted
    }

    /// Remove and return the least-recently-used entry.
    pub fn pop_lru(&mut self) -> Option<(u64, CmtEntry)> {
        let tail = self.tail?;
        let key = self.nodes[tail].key;
        let entry = self.nodes[tail].entry;
        self.detach(tail);
        self.map.remove(key);
        self.free.push(tail);
        Some((key, entry))
    }

    /// Remove `key` if present.
    pub fn remove(&mut self, key: u64) -> Option<CmtEntry> {
        let idx = self.map.remove(key)? as usize;
        self.detach(idx);
        self.free.push(idx);
        Some(self.nodes[idx].entry)
    }

    /// Mark an existing entry dirty/clean and optionally change its ppa.
    pub fn update_in_place(&mut self, key: u64, ppa: u64, dirty: bool) -> bool {
        if let Some(idx) = self.map.get(key) {
            self.nodes[idx as usize].entry = CmtEntry { ppa, dirty };
            true
        } else {
            false
        }
    }

    /// Iterate over `(lpn, entry)` pairs in arbitrary order.
    pub fn iter(&self) -> impl Iterator<Item = (u64, CmtEntry)> + '_ {
        self.map
            .iter()
            .map(move |(k, idx)| (k, self.nodes[idx as usize].entry))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lru_basic_insert_get() {
        let mut c = LruCache::new(2);
        assert!(c.insert(1, CmtEntry { ppa: 10, dirty: false }).is_none());
        assert!(c.insert(2, CmtEntry { ppa: 20, dirty: false }).is_none());
        assert_eq!(c.get(1).unwrap().ppa, 10);
        // Inserting a third evicts the LRU (which is 2, since 1 was touched).
        let evicted = c.insert(3, CmtEntry { ppa: 30, dirty: true }).unwrap();
        assert_eq!(evicted.0, 2);
        assert!(c.get(2).is_none());
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn lru_update_existing_does_not_evict() {
        let mut c = LruCache::new(2);
        c.insert(1, CmtEntry { ppa: 10, dirty: false });
        c.insert(2, CmtEntry { ppa: 20, dirty: false });
        assert!(c.insert(1, CmtEntry { ppa: 11, dirty: true }).is_none());
        assert_eq!(c.len(), 2);
        assert_eq!(c.peek(1).unwrap().ppa, 11);
        assert!(c.peek(1).unwrap().dirty);
    }

    #[test]
    fn lru_pop_order_is_least_recent_first() {
        let mut c = LruCache::new(3);
        c.insert(1, CmtEntry { ppa: 1, dirty: false });
        c.insert(2, CmtEntry { ppa: 2, dirty: false });
        c.insert(3, CmtEntry { ppa: 3, dirty: false });
        c.get(1); // order now (MRU) 1, 3, 2 (LRU)
        assert_eq!(c.pop_lru().unwrap().0, 2);
        assert_eq!(c.pop_lru().unwrap().0, 3);
        assert_eq!(c.pop_lru().unwrap().0, 1);
        assert!(c.pop_lru().is_none());
    }

    #[test]
    fn lru_remove_and_reuse_slot() {
        let mut c = LruCache::new(2);
        c.insert(1, CmtEntry { ppa: 1, dirty: false });
        assert!(c.remove(1).is_some());
        assert!(c.remove(1).is_none());
        assert!(c.is_empty());
        c.insert(2, CmtEntry { ppa: 2, dirty: false });
        c.insert(3, CmtEntry { ppa: 3, dirty: false });
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn lru_update_in_place_preserves_recency_structure() {
        let mut c = LruCache::new(2);
        c.insert(1, CmtEntry { ppa: 1, dirty: false });
        c.insert(2, CmtEntry { ppa: 2, dirty: false });
        assert!(c.update_in_place(1, 99, true));
        assert!(!c.update_in_place(42, 0, false));
        assert_eq!(c.peek(1).unwrap().ppa, 99);
        // 1 was NOT touched by update_in_place, so it is still the LRU.
        let evicted = c.insert(3, CmtEntry { ppa: 3, dirty: false }).unwrap();
        assert_eq!(evicted.0, 1);
        assert!(evicted.1.dirty);
    }

    #[test]
    fn lru_stress_against_model() {
        // Compare against a simple Vec-based model under a pseudo-random
        // workload of inserts/gets/removes.
        use sim_utils::rng::SimRng;
        let mut rng = SimRng::new(99);
        let mut lru = LruCache::new(8);
        let mut model: Vec<u64> = Vec::new(); // MRU at front
        for _ in 0..10_000 {
            let key = rng.range(0, 32);
            match rng.range(0, 3) {
                0 => {
                    // insert
                    let evicted = lru.insert(key, CmtEntry { ppa: key, dirty: false });
                    if let Some(pos) = model.iter().position(|&k| k == key) {
                        model.remove(pos);
                        assert!(evicted.is_none());
                    } else if model.len() == 8 {
                        let victim = model.pop().unwrap();
                        assert_eq!(evicted.unwrap().0, victim);
                    } else {
                        assert!(evicted.is_none());
                    }
                    model.insert(0, key);
                }
                1 => {
                    // get
                    let got = lru.get(key).is_some();
                    let in_model = model.iter().position(|&k| k == key);
                    assert_eq!(got, in_model.is_some());
                    if let Some(pos) = in_model {
                        model.remove(pos);
                        model.insert(0, key);
                    }
                }
                _ => {
                    // remove
                    let removed = lru.remove(key).is_some();
                    let in_model = model.iter().position(|&k| k == key);
                    assert_eq!(removed, in_model.is_some());
                    if let Some(pos) = in_model {
                        model.remove(pos);
                    }
                }
            }
            assert_eq!(lru.len(), model.len());
        }
    }
}

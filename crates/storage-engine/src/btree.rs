//! B+-tree index over the buffer pool.
//!
//! Shore-MT provides B+-tree indexes; the TPC drivers use them for primary
//! keys (customer, stock, account lookups).  Keys and values are `u64`
//! (values typically encode a [`crate::heap::Rid`] or a row id).  Nodes are
//! stored one-per-page with a compact binary layout; splits propagate up and
//! create a new root when needed.  Deletion removes keys from leaves without
//! rebalancing (sufficient for the TPC workloads, which never shrink tables).

use bytes::{Buf, BufMut};
use nand_flash::{FlashError, FlashResult};
use sim_utils::time::SimInstant;

use crate::backend::StorageBackend;
use crate::shard::ShardedBufferPool;
use crate::free_space::FreeSpaceManager;
use crate::page::PageId;
use crate::readahead::ScanPrefetcher;

const LEAF_TAG: u8 = 1;
const INTERNAL_TAG: u8 = 2;
/// Node header: tag(1) + key count(2) + next-leaf(8) + padding to 16.
const NODE_HEADER: usize = 16;

/// In-memory representation of a B+-tree node.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Node {
    Leaf {
        keys: Vec<u64>,
        values: Vec<u64>,
        next: Option<PageId>,
    },
    Internal {
        keys: Vec<u64>,
        children: Vec<PageId>,
    },
}

impl Node {
    fn encode(&self, page_size: usize) -> Vec<u8> {
        let mut buf = Vec::with_capacity(page_size);
        match self {
            Node::Leaf { keys, values, next } => {
                buf.put_u8(LEAF_TAG);
                buf.put_u16_le(keys.len() as u16);
                buf.put_u64_le(next.map(|p| p + 1).unwrap_or(0));
                buf.resize(NODE_HEADER, 0);
                for k in keys {
                    buf.put_u64_le(*k);
                }
                for v in values {
                    buf.put_u64_le(*v);
                }
            }
            Node::Internal { keys, children } => {
                buf.put_u8(INTERNAL_TAG);
                buf.put_u16_le(keys.len() as u16);
                buf.put_u64_le(0);
                buf.resize(NODE_HEADER, 0);
                for k in keys {
                    buf.put_u64_le(*k);
                }
                for c in children {
                    buf.put_u64_le(*c);
                }
            }
        }
        assert!(buf.len() <= page_size, "btree node overflow");
        buf.resize(page_size, 0);
        buf
    }

    fn decode(data: &[u8]) -> Node {
        let mut cursor = data;
        let tag = cursor.get_u8();
        let count = cursor.get_u16_le() as usize;
        let next_raw = cursor.get_u64_le();
        let mut cursor = &data[NODE_HEADER..];
        match tag {
            INTERNAL_TAG => {
                let mut keys = Vec::with_capacity(count);
                for _ in 0..count {
                    keys.push(cursor.get_u64_le());
                }
                let mut children = Vec::with_capacity(count + 1);
                for _ in 0..count + 1 {
                    children.push(cursor.get_u64_le());
                }
                Node::Internal { keys, children }
            }
            _ => {
                // A zeroed page decodes as an empty leaf — convenient for
                // freshly allocated roots.
                let mut keys = Vec::with_capacity(count);
                for _ in 0..count {
                    keys.push(cursor.get_u64_le());
                }
                let mut values = Vec::with_capacity(count);
                for _ in 0..count {
                    values.push(cursor.get_u64_le());
                }
                Node::Leaf {
                    keys,
                    values,
                    next: (next_raw != 0).then(|| next_raw - 1),
                }
            }
        }
    }
}

/// A B+-tree index.
#[derive(Debug, Clone)]
pub struct BTree {
    root: PageId,
    page_size: usize,
    /// Maximum keys per node (derived from the page size).
    max_keys: usize,
    len: u64,
}

impl BTree {
    /// Create a new, empty tree. Allocates the root page.
    pub fn create(
        pool: &mut ShardedBufferPool,
        backend: &mut dyn StorageBackend,
        fsm: &mut FreeSpaceManager,
        now: SimInstant,
    ) -> FlashResult<(Self, SimInstant)> {
        let page_size = pool.page_size();
        let root = fsm.allocate().ok_or(FlashError::OutOfSpareBlocks)?;
        let node = Node::Leaf {
            keys: Vec::new(),
            values: Vec::new(),
            next: None,
        };
        let (_, t) = pool.new_page(backend, now, root, |bytes| {
            bytes.copy_from_slice(&node.encode(page_size));
        })?;
        // Each key/value or key/child pair costs 16 bytes; keep a small slack.
        let max_keys = (page_size - NODE_HEADER) / 16 - 2;
        Ok((
            Self {
                root,
                page_size,
                max_keys,
                len: 0,
            },
            t,
        ))
    }

    /// Root page id.
    pub fn root(&self) -> PageId {
        self.root
    }

    /// Number of keys stored.
    pub fn len(&self) -> u64 {
        self.len
    }

    /// Whether the tree is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    fn read_node(
        &self,
        pool: &mut ShardedBufferPool,
        backend: &mut dyn StorageBackend,
        now: SimInstant,
        page: PageId,
    ) -> FlashResult<(Node, SimInstant)> {
        pool.with_page(backend, now, page, Node::decode)
    }

    fn write_node(
        &self,
        pool: &mut ShardedBufferPool,
        backend: &mut dyn StorageBackend,
        now: SimInstant,
        page: PageId,
        node: &Node,
    ) -> FlashResult<SimInstant> {
        let encoded = node.encode(self.page_size);
        let (_, t) = pool.with_page_mut(backend, now, page, |bytes| {
            bytes.copy_from_slice(&encoded);
        })?;
        Ok(t)
    }

    /// Look up `key`.
    pub fn get(
        &self,
        pool: &mut ShardedBufferPool,
        backend: &mut dyn StorageBackend,
        now: SimInstant,
        key: u64,
    ) -> FlashResult<(Option<u64>, SimInstant)> {
        let mut t = now;
        let mut page = self.root;
        loop {
            let (node, t2) = self.read_node(pool, backend, t, page)?;
            t = t2;
            match node {
                Node::Internal { keys, children } => {
                    let idx = keys.partition_point(|&k| k <= key);
                    page = children[idx];
                }
                Node::Leaf { keys, values, .. } => {
                    let found = keys
                        .binary_search(&key)
                        .ok()
                        .map(|i| values[i]);
                    return Ok((found, t));
                }
            }
        }
    }

    /// Insert `key → value`, replacing any previous value.
    /// Returns the previous value (if any) and the time after I/O.
    pub fn insert(
        &mut self,
        pool: &mut ShardedBufferPool,
        backend: &mut dyn StorageBackend,
        fsm: &mut FreeSpaceManager,
        now: SimInstant,
        key: u64,
        value: u64,
    ) -> FlashResult<(Option<u64>, SimInstant)> {
        let (result, split, t) = self.insert_rec(pool, backend, fsm, now, self.root, key, value)?;
        let mut t = t;
        if let Some((sep, right)) = split {
            // Grow a new root.
            let new_root = fsm.allocate().ok_or(FlashError::OutOfSpareBlocks)?;
            let node = Node::Internal {
                keys: vec![sep],
                children: vec![self.root, right],
            };
            let encoded = node.encode(self.page_size);
            let (_, t2) = pool.new_page(backend, t, new_root, |bytes| {
                bytes.copy_from_slice(&encoded);
            })?;
            t = t2;
            self.root = new_root;
        }
        if result.is_none() {
            self.len += 1;
        }
        Ok((result, t))
    }

    #[allow(clippy::type_complexity, clippy::too_many_arguments)]
    fn insert_rec(
        &mut self,
        pool: &mut ShardedBufferPool,
        backend: &mut dyn StorageBackend,
        fsm: &mut FreeSpaceManager,
        now: SimInstant,
        page: PageId,
        key: u64,
        value: u64,
    ) -> FlashResult<(Option<u64>, Option<(u64, PageId)>, SimInstant)> {
        let (node, mut t) = self.read_node(pool, backend, now, page)?;
        match node {
            Node::Leaf {
                mut keys,
                mut values,
                next,
            } => {
                let old = match keys.binary_search(&key) {
                    Ok(i) => {
                        let prev = values[i];
                        values[i] = value;
                        Some(prev)
                    }
                    Err(i) => {
                        keys.insert(i, key);
                        values.insert(i, value);
                        None
                    }
                };
                if keys.len() <= self.max_keys {
                    let t2 = self.write_node(
                        pool,
                        backend,
                        t,
                        page,
                        &Node::Leaf { keys, values, next },
                    )?;
                    return Ok((old, None, t2));
                }
                // Split the leaf.
                let mid = keys.len() / 2;
                let right_keys = keys.split_off(mid);
                let right_values = values.split_off(mid);
                let sep = right_keys[0];
                let right_page = fsm.allocate().ok_or(FlashError::OutOfSpareBlocks)?;
                let right = Node::Leaf {
                    keys: right_keys,
                    values: right_values,
                    next,
                };
                let left = Node::Leaf {
                    keys,
                    values,
                    next: Some(right_page),
                };
                let encoded = right.encode(self.page_size);
                let (_, t2) = pool.new_page(backend, t, right_page, |bytes| {
                    bytes.copy_from_slice(&encoded);
                })?;
                t = t2;
                t = self.write_node(pool, backend, t, page, &left)?;
                Ok((old, Some((sep, right_page)), t))
            }
            Node::Internal {
                mut keys,
                mut children,
            } => {
                let idx = keys.partition_point(|&k| k <= key);
                let child = children[idx];
                let (old, split, t2) =
                    self.insert_rec(pool, backend, fsm, t, child, key, value)?;
                t = t2;
                if let Some((sep, right)) = split {
                    keys.insert(idx, sep);
                    children.insert(idx + 1, right);
                    if keys.len() <= self.max_keys {
                        let t3 = self.write_node(
                            pool,
                            backend,
                            t,
                            page,
                            &Node::Internal { keys, children },
                        )?;
                        return Ok((old, None, t3));
                    }
                    // Split the internal node.
                    let mid = keys.len() / 2;
                    let sep_up = keys[mid];
                    let right_keys = keys.split_off(mid + 1);
                    keys.pop(); // sep_up moves up
                    let right_children = children.split_off(mid + 1);
                    let right_page = fsm.allocate().ok_or(FlashError::OutOfSpareBlocks)?;
                    let right_node = Node::Internal {
                        keys: right_keys,
                        children: right_children,
                    };
                    let left_node = Node::Internal { keys, children };
                    let encoded = right_node.encode(self.page_size);
                    let (_, t3) = pool.new_page(backend, t, right_page, |bytes| {
                        bytes.copy_from_slice(&encoded);
                    })?;
                    t = t3;
                    t = self.write_node(pool, backend, t, page, &left_node)?;
                    return Ok((old, Some((sep_up, right_page)), t));
                }
                Ok((old, None, t))
            }
        }
    }

    /// Remove `key`. Returns its value if it was present.  Leaves are not
    /// rebalanced (acceptable for workloads that do not shrink).
    pub fn remove(
        &mut self,
        pool: &mut ShardedBufferPool,
        backend: &mut dyn StorageBackend,
        now: SimInstant,
        key: u64,
    ) -> FlashResult<(Option<u64>, SimInstant)> {
        let mut t = now;
        let mut page = self.root;
        loop {
            let (node, t2) = self.read_node(pool, backend, t, page)?;
            t = t2;
            match node {
                Node::Internal { keys, children } => {
                    let idx = keys.partition_point(|&k| k <= key);
                    page = children[idx];
                }
                Node::Leaf {
                    mut keys,
                    mut values,
                    next,
                } => {
                    return match keys.binary_search(&key) {
                        Ok(i) => {
                            keys.remove(i);
                            let v = values.remove(i);
                            let t3 = self.write_node(
                                pool,
                                backend,
                                t,
                                page,
                                &Node::Leaf { keys, values, next },
                            )?;
                            self.len -= 1;
                            Ok((Some(v), t3))
                        }
                        Err(_) => Ok((None, t)),
                    };
                }
            }
        }
    }

    /// Visit all `(key, value)` pairs with `key` in `[lo, hi]`, in order.
    pub fn range(
        &self,
        pool: &mut ShardedBufferPool,
        backend: &mut dyn StorageBackend,
        now: SimInstant,
        lo: u64,
        hi: u64,
        visit: impl FnMut(u64, u64),
    ) -> FlashResult<(u64, SimInstant)> {
        self.range_with_readahead(pool, backend, &mut ScanPrefetcher::disabled(), now, lo, hi, visit)
    }

    /// [`BTree::range`] with streaming readahead: when the last internal
    /// level is decoded during the descent, the child run covering
    /// `[lo, hi]` — exactly the leaf chain the walk below visits — is fed to
    /// `ra` and prefetched ahead of consumption.  Past the fed run (a range
    /// spanning several last-level parents) each leaf's `next` pointer is
    /// fed as it is discovered — a 1-ahead fallback that keeps the plan
    /// anchored but cannot overlap fills with visits, since a sibling is
    /// only known one leaf in advance (prefetching the *next parent's* child
    /// run is a ROADMAP follow-on).  With an inert prefetcher this is the
    /// frame-at-a-time path, call for call.
    #[allow(clippy::too_many_arguments)]
    pub fn range_with_readahead(
        &self,
        pool: &mut ShardedBufferPool,
        backend: &mut dyn StorageBackend,
        ra: &mut ScanPrefetcher,
        now: SimInstant,
        lo: u64,
        hi: u64,
        mut visit: impl FnMut(u64, u64),
    ) -> FlashResult<(u64, SimInstant)> {
        let mut t = now;
        // Descend to the leaf containing `lo`, remembering the child run of
        // the node we are descending *from*: when the descent bottoms out,
        // that run is the leaf chain covering the range.
        let mut page = self.root;
        let mut covering_run: Vec<PageId> = Vec::new();
        loop {
            let (node, t2) = self.read_node(pool, backend, t, page)?;
            t = t2;
            match node {
                Node::Internal { keys, children } => {
                    let idx = keys.partition_point(|&k| k <= lo);
                    if ra.is_enabled() {
                        // An inverted range (lo > hi) puts hi's child before
                        // lo's; clamp so the run is never back-to-front (the
                        // walk below then terminates on its first key).
                        let hi_idx = keys.partition_point(|&k| k <= hi).max(idx);
                        covering_run = children[idx..=hi_idx].to_vec();
                    }
                    page = children[idx];
                }
                Node::Leaf { .. } => break,
            }
        }
        if covering_run.len() > 1 {
            // The first entry is the leaf the descent just read (resident);
            // feeding the full run keeps the consume cursor aligned.
            ra.feed(&covering_run);
        }
        // Walk the leaf chain.
        let mut visited = 0;
        let mut current = Some(page);
        while let Some(p) = current {
            t = ra.on_access(pool, backend, t, p)?;
            let (node, t2) = self.read_node(pool, backend, t, p)?;
            t = t2;
            let Node::Leaf { keys, values, next } = node else {
                break;
            };
            // Keep the sibling window warm beyond the fed covering run.
            if let Some(sibling) = next {
                if !ra.planned(sibling) {
                    ra.feed(&[sibling]);
                }
            }
            for (k, v) in keys.iter().zip(values.iter()) {
                if *k > hi {
                    return Ok((visited, t));
                }
                if *k >= lo {
                    visit(*k, *v);
                    visited += 1;
                }
            }
            current = next;
        }
        Ok((visited, t))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::MemBackend;

    struct Ctx {
        pool: ShardedBufferPool,
        backend: MemBackend,
        fsm: FreeSpaceManager,
    }

    fn setup() -> Ctx {
        Ctx {
            pool: ShardedBufferPool::new(1, 64, 4096),
            backend: MemBackend::new(4096, 4096),
            fsm: FreeSpaceManager::new(0, 4000),
        }
    }

    #[test]
    fn node_encode_decode_roundtrip() {
        let leaf = Node::Leaf {
            keys: vec![1, 5, 9],
            values: vec![10, 50, 90],
            next: Some(77),
        };
        assert_eq!(Node::decode(&leaf.encode(4096)), leaf);
        let internal = Node::Internal {
            keys: vec![100, 200],
            children: vec![1, 2, 3],
        };
        assert_eq!(Node::decode(&internal.encode(4096)), internal);
        let leaf_no_next = Node::Leaf {
            keys: vec![],
            values: vec![],
            next: None,
        };
        assert_eq!(Node::decode(&leaf_no_next.encode(4096)), leaf_no_next);
    }

    #[test]
    fn insert_get_small() {
        let mut c = setup();
        let (mut tree, _) = BTree::create(&mut c.pool, &mut c.backend, &mut c.fsm, 0).unwrap();
        assert!(tree.is_empty());
        for k in [5u64, 3, 9, 1, 7] {
            tree.insert(&mut c.pool, &mut c.backend, &mut c.fsm, 0, k, k * 100)
                .unwrap();
        }
        assert_eq!(tree.len(), 5);
        for k in [1u64, 3, 5, 7, 9] {
            let (v, _) = tree.get(&mut c.pool, &mut c.backend, 0, k).unwrap();
            assert_eq!(v, Some(k * 100));
        }
        let (missing, _) = tree.get(&mut c.pool, &mut c.backend, 0, 4).unwrap();
        assert_eq!(missing, None);
    }

    #[test]
    fn insert_overwrites_existing_key() {
        let mut c = setup();
        let (mut tree, _) = BTree::create(&mut c.pool, &mut c.backend, &mut c.fsm, 0).unwrap();
        tree.insert(&mut c.pool, &mut c.backend, &mut c.fsm, 0, 42, 1).unwrap();
        let (old, _) = tree
            .insert(&mut c.pool, &mut c.backend, &mut c.fsm, 0, 42, 2)
            .unwrap();
        assert_eq!(old, Some(1));
        assert_eq!(tree.len(), 1);
        let (v, _) = tree.get(&mut c.pool, &mut c.backend, 0, 42).unwrap();
        assert_eq!(v, Some(2));
    }

    #[test]
    fn large_insert_matches_btreemap_model() {
        let mut c = setup();
        let (mut tree, _) = BTree::create(&mut c.pool, &mut c.backend, &mut c.fsm, 0).unwrap();
        let mut model = std::collections::BTreeMap::new();
        let mut rng = sim_utils::rng::SimRng::new(13);
        for _ in 0..3000 {
            let k = rng.range(0, 10_000);
            let v = rng.next_u64();
            let expected = model.insert(k, v);
            let (old, _) = tree
                .insert(&mut c.pool, &mut c.backend, &mut c.fsm, 0, k, v)
                .unwrap();
            assert_eq!(old, expected);
        }
        assert_eq!(tree.len() as usize, model.len());
        for (&k, &v) in &model {
            let (got, _) = tree.get(&mut c.pool, &mut c.backend, 0, k).unwrap();
            assert_eq!(got, Some(v), "mismatch for key {k}");
        }
    }

    #[test]
    fn range_scan_in_order() {
        let mut c = setup();
        let (mut tree, _) = BTree::create(&mut c.pool, &mut c.backend, &mut c.fsm, 0).unwrap();
        for k in (0..1000u64).rev() {
            tree.insert(&mut c.pool, &mut c.backend, &mut c.fsm, 0, k, k + 1)
                .unwrap();
        }
        let mut seen = Vec::new();
        let (count, _) = tree
            .range(&mut c.pool, &mut c.backend, 0, 100, 199, |k, v| {
                assert_eq!(v, k + 1);
                seen.push(k);
            })
            .unwrap();
        assert_eq!(count, 100);
        let expected: Vec<u64> = (100..200).collect();
        assert_eq!(seen, expected);
    }

    #[test]
    fn inverted_range_is_empty_on_both_scan_paths() {
        // Regression (code review): the covering-run slice used to panic on
        // lo > hi (`children[idx..=hi_idx]` with hi_idx < idx); both the
        // frame-at-a-time and readahead paths must return an empty result
        // like the pre-readahead code did.
        let mut c = setup();
        let (mut tree, _) = BTree::create(&mut c.pool, &mut c.backend, &mut c.fsm, 0).unwrap();
        for k in 0..2000u64 {
            tree.insert(&mut c.pool, &mut c.backend, &mut c.fsm, 0, k, k).unwrap();
        }
        let (count, _) = tree
            .range(&mut c.pool, &mut c.backend, 0, 1500, 100, |_, _| {
                panic!("inverted range must visit nothing")
            })
            .unwrap();
        assert_eq!(count, 0);
        let mut ra = crate::readahead::ScanPrefetcher::new(64, 8);
        assert!(ra.is_enabled());
        let (count, _) = tree
            .range_with_readahead(&mut c.pool, &mut c.backend, &mut ra, 0, 1500, 100, |_, _| {
                panic!("inverted range must visit nothing")
            })
            .unwrap();
        assert_eq!(count, 0);
    }

    #[test]
    fn remove_deletes_keys() {
        let mut c = setup();
        let (mut tree, _) = BTree::create(&mut c.pool, &mut c.backend, &mut c.fsm, 0).unwrap();
        for k in 0..500u64 {
            tree.insert(&mut c.pool, &mut c.backend, &mut c.fsm, 0, k, k).unwrap();
        }
        for k in (0..500u64).step_by(2) {
            let (v, _) = tree.remove(&mut c.pool, &mut c.backend, 0, k).unwrap();
            assert_eq!(v, Some(k));
        }
        assert_eq!(tree.len(), 250);
        let (gone, _) = tree.get(&mut c.pool, &mut c.backend, 0, 100).unwrap();
        assert_eq!(gone, None);
        let (kept, _) = tree.get(&mut c.pool, &mut c.backend, 0, 101).unwrap();
        assert_eq!(kept, Some(101));
        let (gone2, _) = tree.remove(&mut c.pool, &mut c.backend, 0, 100).unwrap();
        assert_eq!(gone2, None);
    }

    #[test]
    fn works_under_buffer_pressure() {
        let mut c = Ctx {
            pool: ShardedBufferPool::new(1, 8, 4096),
            backend: MemBackend::new(4096, 4096),
            fsm: FreeSpaceManager::new(0, 4000),
        };
        let (mut tree, _) = BTree::create(&mut c.pool, &mut c.backend, &mut c.fsm, 0).unwrap();
        for k in 0..2000u64 {
            tree.insert(&mut c.pool, &mut c.backend, &mut c.fsm, 0, k, k * 7)
                .unwrap();
        }
        for k in (0..2000u64).step_by(97) {
            let (v, _) = tree.get(&mut c.pool, &mut c.backend, 0, k).unwrap();
            assert_eq!(v, Some(k * 7));
        }
        assert!(c.pool.stats().evictions > 0, "pressure should cause evictions");
    }
}

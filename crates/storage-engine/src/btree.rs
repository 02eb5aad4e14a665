//! B+-tree index over the buffer pool.
//!
//! Shore-MT provides B+-tree indexes; the TPC drivers use them for primary
//! keys (customer, stock, account lookups).  Keys and values are `u64`
//! (values typically encode a [`crate::heap::Rid`] or a row id).  Nodes are
//! stored one-per-page; splits propagate up and create a new root when
//! needed.  Deletion removes keys from leaves without rebalancing
//! (sufficient for the TPC workloads, which never shrink tables).
//!
//! A node has one representation, its page: the private `Node<B>` is a view
//! over the pinned frame's bytes (or, for the image of a node about to split,
//! over an owned copy) and searches, inserts and removes in place.
//!
//! ```text
//! 0     1       3            16                     16 + 8·(max_keys + 1)
//! | tag | count | next-leaf+1 | keys[count] … room … | values[count] or children[count + 1] …
//! ```
//!
//! Both arrays have room for `max_keys + 1` keys, so an insert into a full
//! node may overflow before the node splits.  All-zero bytes read as an
//! empty leaf.

use std::ops::{ControlFlow, Deref, DerefMut};

use nand_flash::{FlashError, FlashResult};
use sim_utils::time::SimInstant;

use crate::backend::StorageBackend;
use crate::free_space::FreeSpaceManager;
use crate::page::PageId;
use crate::readahead::ScanPrefetcher;
use crate::shard::ShardedBufferPool;

const LEAF_TAG: u8 = 1;
const INTERNAL_TAG: u8 = 2;
/// Node header: tag(1) + key count(2) + next-leaf(8) + padding to 16.
const NODE_HEADER: usize = 16;

/// Keys a node of `page_size` bytes may hold: each key/value or key/child
/// pair costs 16 bytes; the two pairs of slack hold the overflowing key and
/// the extra child.
fn max_keys(page_size: usize) -> usize {
    (page_size - NODE_HEADER) / 16 - 2
}

/// A B+-tree node, viewed over its page bytes.
struct Node<B> {
    bytes: B,
}

impl<B: Deref<Target = [u8]>> Node<B> {
    fn u64_at(&self, at: usize) -> u64 {
        u64::from_le_bytes(self.bytes[at..at + 8].try_into().expect("8 bytes"))
    }

    fn is_leaf(&self) -> bool {
        self.bytes[0] != INTERNAL_TAG
    }

    fn count(&self) -> usize {
        u16::from_le_bytes([self.bytes[1], self.bytes[2]]) as usize
    }

    /// Values of a leaf, children (one more than keys) of an internal node.
    fn val_count(&self) -> usize {
        self.count() + usize::from(!self.is_leaf())
    }

    fn next(&self) -> Option<PageId> {
        self.u64_at(3).checked_sub(1)
    }

    /// Byte offset of key `i`.
    fn key_at(&self, i: usize) -> usize {
        NODE_HEADER + 8 * i
    }

    /// Byte offset of value / child `i`.
    fn val_at(&self, i: usize) -> usize {
        NODE_HEADER + 8 * (max_keys(self.bytes.len()) + 1 + i)
    }

    fn key(&self, i: usize) -> u64 {
        self.u64_at(self.key_at(i))
    }

    fn val(&self, i: usize) -> u64 {
        self.u64_at(self.val_at(i))
    }

    /// Number of leading keys for which `pred` holds (keys are sorted).
    fn partition_point(&self, pred: impl Fn(u64) -> bool) -> usize {
        let (mut lo, mut hi) = (0, self.count());
        while lo < hi {
            let mid = (lo + hi) / 2;
            if pred(self.key(mid)) {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        lo
    }

    /// Index of the child covering `key`.
    fn child_index(&self, key: u64) -> usize {
        self.partition_point(|k| k <= key)
    }

    /// Where `key` is or would be inserted, and its value if it is present.
    fn search(&self, key: u64) -> (usize, Option<u64>) {
        let i = self.partition_point(|k| k < key);
        (
            i,
            (i < self.count() && self.key(i) == key).then(|| self.val(i)),
        )
    }

    /// Copy keys `from..` and their values / children into the empty `right`.
    fn copy_tail(&self, from: usize, right: &mut Node<&mut [u8]>) {
        let moved = self.count() - from;
        let keys = self.key_at(from)..self.key_at(self.count());
        let vals = self.val_at(from)..self.val_at(self.val_count());
        right.bytes[self.key_at(0)..self.key_at(moved)].copy_from_slice(&self.bytes[keys]);
        right.bytes[self.val_at(0)..][..vals.len()].copy_from_slice(&self.bytes[vals]);
        right.set_count(moved);
    }

    /// An owned copy of the node.
    fn image(&self) -> Node<Vec<u8>> {
        Node {
            bytes: self.bytes.to_vec(),
        }
    }
}

impl<B: DerefMut<Target = [u8]>> Node<B> {
    fn format(mut bytes: B, tag: u8, next: Option<PageId>) -> Self {
        bytes.fill(0);
        bytes[0] = tag;
        let mut node = Self { bytes };
        node.set_next(next);
        node
    }

    fn set_count(&mut self, count: usize) {
        self.bytes[1..3].copy_from_slice(&(count as u16).to_le_bytes());
    }

    fn set_next(&mut self, next: Option<PageId>) {
        self.bytes[3..11].copy_from_slice(&next.map_or(0, |p| p + 1).to_le_bytes());
    }

    fn set_val(&mut self, i: usize, val: u64) {
        let at = self.val_at(i);
        self.bytes[at..at + 8].copy_from_slice(&val.to_le_bytes());
    }

    /// Insert `key` at key index `ki` and `val` at value / child index `vi`.
    fn insert_at(&mut self, ki: usize, key: u64, vi: usize, val: u64) {
        let (k, k_end) = (self.key_at(ki), self.key_at(self.count()));
        let (v, v_end) = (self.val_at(vi), self.val_at(self.val_count()));
        self.bytes.copy_within(k..k_end, k + 8);
        self.bytes[k..k + 8].copy_from_slice(&key.to_le_bytes());
        self.bytes.copy_within(v..v_end, v + 8);
        self.bytes[v..v + 8].copy_from_slice(&val.to_le_bytes());
        self.set_count(self.count() + 1);
    }

    /// Remove key `i` and value `i` of a leaf.
    fn remove_at(&mut self, i: usize) {
        let (k, k_end) = (self.key_at(i), self.key_at(self.count()));
        let (v, v_end) = (self.val_at(i), self.val_at(self.count()));
        self.bytes.copy_within(k + 8..k_end, k);
        self.bytes.copy_within(v + 8..v_end, v);
        self.set_count(self.count() - 1);
    }
}

/// A B+-tree index.
#[derive(Debug)]
pub struct BTree {
    root: PageId,
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
        let root = fsm.allocate().ok_or(FlashError::OutOfSpareBlocks)?;
        let (_, t) = pool.new_page(backend, now, root, |bytes| {
            Node::format(bytes, LEAF_TAG, None);
        })?;
        let max_keys = max_keys(pool.page_size());
        Ok((
            Self {
                root,
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

    /// Walk from the root to the leaf covering `key`, one `with_page` per
    /// level: `on_internal` sees each internal node and the child index
    /// taken, `on_leaf` the leaf.  Returns the leaf's page and result.
    fn descend<R>(
        &self,
        pool: &mut ShardedBufferPool,
        backend: &mut dyn StorageBackend,
        now: SimInstant,
        key: u64,
        mut on_internal: impl FnMut(&Node<&[u8]>, usize),
        mut on_leaf: impl FnMut(&Node<&[u8]>) -> R,
    ) -> FlashResult<(PageId, R, SimInstant)> {
        let (mut t, mut page) = (now, self.root);
        loop {
            let (step, t2) = pool.with_page(backend, t, page, |bytes| {
                let node = Node { bytes };
                if node.is_leaf() {
                    return ControlFlow::Break(on_leaf(&node));
                }
                let idx = node.child_index(key);
                on_internal(&node, idx);
                ControlFlow::Continue(node.val(idx))
            })?;
            t = t2;
            match step {
                ControlFlow::Continue(child) => page = child,
                ControlFlow::Break(r) => return Ok((page, r, t)),
            }
        }
    }

    /// Look up `key`.
    pub fn get(
        &self,
        pool: &mut ShardedBufferPool,
        backend: &mut dyn StorageBackend,
        now: SimInstant,
        key: u64,
    ) -> FlashResult<(Option<u64>, SimInstant)> {
        let (_, (_, found), t) =
            self.descend(pool, backend, now, key, |_, _| {}, |leaf| leaf.search(key))?;
        Ok((found, t))
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
        let (result, split, mut t) =
            self.insert_rec(pool, backend, fsm, now, self.root, key, value)?;
        if let Some((sep, right)) = split {
            // Grow a new root.
            let new_root = fsm.allocate().ok_or(FlashError::OutOfSpareBlocks)?;
            let (_, t2) = pool.new_page(backend, t, new_root, |bytes| {
                let mut node = Node::format(bytes, INTERNAL_TAG, None);
                node.set_val(0, self.root);
                node.insert_at(0, sep, 1, right);
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
        // Read pass: where the key goes — a leaf's key index and the value
        // already there, or an internal node's child index and that child —
        // and, only if adding a key here would overflow, the node's image.
        let max_keys = self.max_keys;
        let ((leaf, idx, hit, full), mut t) = pool.with_page(backend, now, page, |bytes| {
            let node = Node { bytes };
            let leaf = node.is_leaf();
            let (idx, hit) = if leaf {
                node.search(key)
            } else {
                let idx = node.child_index(key);
                (idx, Some(node.val(idx)))
            };
            let full = node.count() >= max_keys && !(leaf && hit.is_some());
            (leaf, idx, hit, full.then(|| node.image()))
        })?;
        if leaf {
            if let Some(old) = hit {
                let (_, t2) = pool.with_page_mut(backend, t, page, |bytes| {
                    Node { bytes }.set_val(idx, value);
                })?;
                return Ok((Some(old), None, t2));
            }
            let (split, t2) = Self::add(pool, backend, fsm, t, page, full, idx, key, idx, value)?;
            return Ok((None, split, t2));
        }
        let child = hit.expect("an internal node has a child at every index");
        let (old, split, t2) = self.insert_rec(pool, backend, fsm, t, child, key, value)?;
        t = t2;
        let Some((sep, right)) = split else {
            return Ok((old, None, t));
        };
        let (split, t3) = Self::add(pool, backend, fsm, t, page, full, idx, sep, idx + 1, right)?;
        Ok((old, split, t3))
    }

    /// Write pass of an insert: add `key` / `val` to the node on `page` in
    /// place, or — when the read pass found it `full` — to its image, which
    /// is then split: upper half to a new right page, lower half back onto
    /// `page`.  Returns the separator and right page of a split.
    #[allow(clippy::type_complexity, clippy::too_many_arguments)]
    fn add(
        pool: &mut ShardedBufferPool,
        backend: &mut dyn StorageBackend,
        fsm: &mut FreeSpaceManager,
        now: SimInstant,
        page: PageId,
        full: Option<Node<Vec<u8>>>,
        ki: usize,
        key: u64,
        vi: usize,
        val: u64,
    ) -> FlashResult<(Option<(u64, PageId)>, SimInstant)> {
        let Some(mut image) = full else {
            let (_, t) = pool.with_page_mut(backend, now, page, |bytes| {
                Node { bytes }.insert_at(ki, key, vi, val);
            })?;
            return Ok((None, t));
        };
        image.insert_at(ki, key, vi, val);
        let mid = image.count() / 2;
        let sep = image.key(mid);
        let right_page = fsm.allocate().ok_or(FlashError::OutOfSpareBlocks)?;
        let (_, t) = pool.new_page(backend, now, right_page, |bytes| {
            // A leaf keeps the separator as the right node's first key; an
            // internal node moves it up.
            let from = if image.is_leaf() { mid } else { mid + 1 };
            image.copy_tail(from, &mut Node::format(bytes, image.bytes[0], image.next()));
        })?;
        image.set_count(mid);
        if image.is_leaf() {
            image.set_next(Some(right_page));
        }
        let (_, t) = pool.with_page_mut(backend, t, page, |bytes| {
            bytes.copy_from_slice(&image.bytes);
        })?;
        Ok((Some((sep, right_page)), t))
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
        let (page, (idx, found), mut t) =
            self.descend(pool, backend, now, key, |_, _| {}, |leaf| leaf.search(key))?;
        if found.is_some() {
            (_, t) = pool.with_page_mut(backend, t, page, |bytes| {
                Node { bytes }.remove_at(idx);
            })?;
            self.len -= 1;
        }
        Ok((found, t))
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
        self.range_with_readahead(
            pool,
            backend,
            &mut ScanPrefetcher::disabled(),
            now,
            lo,
            hi,
            visit,
        )
    }

    /// [`BTree::range`] with streaming readahead: when the last internal
    /// level is read during the descent, the child run covering
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
        // Descend to the leaf containing `lo`, remembering the child run of
        // the node we are descending *from*: when the descent bottoms out,
        // that run is the leaf chain covering the range.
        let mut covering_run: Vec<PageId> = Vec::new();
        let remember_run = |node: &Node<&[u8]>, idx: usize| {
            if ra.is_enabled() {
                // An inverted range (lo > hi) puts hi's child before lo's;
                // clamp so the run is never back-to-front (the walk below
                // then terminates on its first key).
                let hi_idx = node.child_index(hi).max(idx);
                covering_run = (idx..=hi_idx).map(|i| node.val(i)).collect();
            }
        };
        let (page, (), mut t) = self.descend(pool, backend, now, lo, remember_run, |_| ())?;
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
            (current, t) = pool.with_page(backend, t, p, |bytes| {
                let node = Node { bytes };
                if !node.is_leaf() {
                    return None;
                }
                // Keep the sibling window warm beyond the fed covering run.
                if let Some(sibling) = node.next().filter(|&s| !ra.planned(s)) {
                    ra.feed(&[sibling]);
                }
                for i in 0..node.count() {
                    let k = node.key(i);
                    if k > hi {
                        return None;
                    }
                    if k >= lo {
                        visit(k, node.val(i));
                        visited += 1;
                    }
                }
                node.next()
            })?;
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
        tree.insert(&mut c.pool, &mut c.backend, &mut c.fsm, 0, 42, 1)
            .unwrap();
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
            tree.insert(&mut c.pool, &mut c.backend, &mut c.fsm, 0, k, k)
                .unwrap();
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
            .range_with_readahead(
                &mut c.pool,
                &mut c.backend,
                &mut ra,
                0,
                1500,
                100,
                |_, _| panic!("inverted range must visit nothing"),
            )
            .unwrap();
        assert_eq!(count, 0);
    }

    #[test]
    fn remove_deletes_keys() {
        let mut c = setup();
        let (mut tree, _) = BTree::create(&mut c.pool, &mut c.backend, &mut c.fsm, 0).unwrap();
        for k in 0..500u64 {
            tree.insert(&mut c.pool, &mut c.backend, &mut c.fsm, 0, k, k)
                .unwrap();
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
        assert!(
            c.pool.stats().evictions > 0,
            "pressure should cause evictions"
        );
    }
    #[test]
    fn every_key_count_across_leaf_and_internal_splits_matches_btreemap() {
        // 256-byte pages hold 13 keys a node, so a few hundred keys take the
        // tree through `max_keys` → `max_keys + 1` at a leaf (first root
        // change) and at an internal root (second root change).  The whole
        // tree is compared with the model after every single insert and
        // remove, in three insertion orders.
        let orders: [fn(u64) -> u64; 3] = [|i| i, |i| 399 - i, |i| (i * 149) % 400];
        for order in orders {
            let mut c = Ctx {
                pool: ShardedBufferPool::new(1, 64, 256),
                backend: MemBackend::new(256, 4096),
                fsm: FreeSpaceManager::new(0, 4000),
            };
            let (mut tree, _) = BTree::create(&mut c.pool, &mut c.backend, &mut c.fsm, 0).unwrap();
            assert_eq!(tree.max_keys, 13);
            let mut model = std::collections::BTreeMap::new();
            let check =
                |tree: &BTree, c: &mut Ctx, model: &std::collections::BTreeMap<u64, u64>| {
                    let mut scanned = Vec::new();
                    tree.range(&mut c.pool, &mut c.backend, 0, 0, u64::MAX, |k, v| {
                        scanned.push((k, v))
                    })
                    .unwrap();
                    assert!(scanned
                        .iter()
                        .copied()
                        .eq(model.iter().map(|(&k, &v)| (k, v))));
                    assert_eq!(tree.len() as usize, model.len());
                };
            let mut root_changes = Vec::new();
            for i in 0..400 {
                let (k, root) = (order(i), tree.root());
                let old = tree
                    .insert(&mut c.pool, &mut c.backend, &mut c.fsm, 0, k, k * 3)
                    .unwrap()
                    .0;
                assert_eq!(old, model.insert(k, k * 3));
                if tree.root() != root {
                    root_changes.push(model.len());
                }
                check(&tree, &mut c, &model);
            }
            assert_eq!(
                root_changes[0], 14,
                "the root leaf splits on key max_keys + 1"
            );
            assert!(
                root_changes.len() >= 2,
                "an internal root must have split too"
            );
            for i in 0..400 {
                let k = order((i * 7) % 400);
                assert_eq!(
                    tree.remove(&mut c.pool, &mut c.backend, 0, k).unwrap().0,
                    model.remove(&k)
                );
                assert_eq!(tree.get(&mut c.pool, &mut c.backend, 0, k).unwrap().0, None);
                check(&tree, &mut c, &model);
            }
            assert!(tree.is_empty());
        }
    }

    #[test]
    fn pool_access_sequence_is_pinned() {
        // The in-place node views must touch the pool exactly as the owned
        // decode → modify → encode nodes did (read pass, then write pass; a
        // split reads the node, creates the right page, then rewrites the
        // node): a fixed script on an 8-frame pool, counters recorded at the
        // commit before the views landed.
        let mut c = Ctx {
            pool: ShardedBufferPool::new(1, 8, 4096),
            backend: MemBackend::new(4096, 4096),
            fsm: FreeSpaceManager::new(0, 4000),
        };
        let (mut tree, _) = BTree::create(&mut c.pool, &mut c.backend, &mut c.fsm, 0).unwrap();
        let mut rng = sim_utils::rng::SimRng::new(22);
        for _ in 0..3000 {
            let k = rng.range(0, 5000);
            tree.insert(&mut c.pool, &mut c.backend, &mut c.fsm, 0, k, k + 1)
                .unwrap();
        }
        for _ in 0..500 {
            tree.remove(&mut c.pool, &mut c.backend, 0, rng.range(0, 5000))
                .unwrap();
        }
        let mut visited = 0;
        for _ in 0..200 {
            let lo = rng.range(0, 5000);
            let (n, _) = tree
                .range(&mut c.pool, &mut c.backend, 0, lo, lo + 300, |_, _| {})
                .unwrap();
            visited += n;
        }
        let s = c.pool.stats();
        assert_eq!(
            (tree.len(), visited, s.hits, s.misses, s.evictions),
            (2065, 24032, 9851, 901, 893)
        );
    }
}

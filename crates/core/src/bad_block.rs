//! DBMS-side bad-block management.
//!
//! Under NoFTL the DBMS owns the bad-block manager (paper, Figure 2): it keeps
//! the list of factory and grown bad blocks, removes them from the region
//! pools and remembers how much usable capacity remains.
//!
//! The sets are `BTreeSet`s, not hash sets: [`BadBlockManager::iter`] feeds
//! recovery reports and region rebuilds, so its order must be deterministic
//! across runs for the bit-identical-output guarantee (`crates/clippy.toml`
//! bans hash-ordered containers crate-wide).

use std::collections::BTreeSet;

use nand_flash::BlockAddr;

/// Why a block was retired.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RetireReason {
    /// Marked bad by the manufacturer (discovered at format time).
    Factory,
    /// Failed in the field (program/erase failure or worn out).
    Grown,
}

/// Registry of retired blocks.
#[derive(Debug, Clone, Default)]
pub struct BadBlockManager {
    factory: BTreeSet<BlockAddr>,
    grown: BTreeSet<BlockAddr>,
}

impl BadBlockManager {
    /// Create an empty manager.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record a retired block. Returns `false` if it was already known.
    ///
    /// A block can only ever be in one of the two sets: re-retiring a
    /// factory-bad block as grown is rejected, and a factory retirement of a
    /// block previously seen as grown *promotes* it (factory classification
    /// wins) without double counting it in [`BadBlockManager::total`].
    pub fn retire(&mut self, block: BlockAddr, reason: RetireReason) -> bool {
        match reason {
            RetireReason::Factory => {
                if self.grown.remove(&block) {
                    self.factory.insert(block);
                    return false;
                }
                self.factory.insert(block)
            }
            RetireReason::Grown => {
                if self.factory.contains(&block) {
                    return false;
                }
                self.grown.insert(block)
            }
        }
    }

    /// Whether a block is known bad.
    pub fn is_bad(&self, block: BlockAddr) -> bool {
        self.factory.contains(&block) || self.grown.contains(&block)
    }

    /// Number of factory bad blocks.
    pub fn factory_count(&self) -> usize {
        self.factory.len()
    }

    /// Number of grown bad blocks.
    pub fn grown_count(&self) -> usize {
        self.grown.len()
    }

    /// Total retired blocks.
    pub fn total(&self) -> usize {
        self.factory.len() + self.grown.len()
    }

    /// Iterate over all retired blocks.
    pub fn iter(&self) -> impl Iterator<Item = BlockAddr> + '_ {
        self.factory.iter().chain(self.grown.iter()).copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn retire_and_query() {
        let mut bbm = BadBlockManager::new();
        let b = BlockAddr::new(0, 0, 0, 5);
        assert!(!bbm.is_bad(b));
        assert!(bbm.retire(b, RetireReason::Grown));
        assert!(bbm.is_bad(b));
        assert!(!bbm.retire(b, RetireReason::Grown), "double retire rejected");
        assert_eq!(bbm.grown_count(), 1);
        assert_eq!(bbm.factory_count(), 0);
        assert_eq!(bbm.total(), 1);
    }

    #[test]
    fn factory_takes_precedence() {
        let mut bbm = BadBlockManager::new();
        let b = BlockAddr::new(0, 0, 0, 1);
        assert!(bbm.retire(b, RetireReason::Factory));
        assert!(!bbm.retire(b, RetireReason::Grown));
        assert_eq!(bbm.total(), 1);
    }

    #[test]
    fn iteration_covers_both_sets() {
        let mut bbm = BadBlockManager::new();
        bbm.retire(BlockAddr::new(0, 0, 0, 1), RetireReason::Factory);
        bbm.retire(BlockAddr::new(0, 0, 0, 2), RetireReason::Grown);
        assert_eq!(bbm.iter().count(), 2);
    }

    #[test]
    fn grown_then_factory_promotes_without_double_counting() {
        let mut bbm = BadBlockManager::new();
        let b = BlockAddr::new(0, 0, 0, 3);
        assert!(bbm.retire(b, RetireReason::Grown));
        // A later format-time scan classifies the same block factory-bad:
        // the block moves sets instead of being counted twice.
        assert!(!bbm.retire(b, RetireReason::Factory));
        assert_eq!(bbm.total(), 1);
        assert_eq!(bbm.factory_count(), 1);
        assert_eq!(bbm.grown_count(), 0);
        assert!(bbm.is_bad(b));
    }

    #[test]
    fn iteration_order_is_deterministic_and_sorted_within_each_set() {
        // Retire blocks in scrambled order; iter() must yield factory blocks
        // then grown blocks, each set in sorted address order, independent of
        // insertion order — recovery reports diff bit-identically across runs.
        let mut a = BadBlockManager::new();
        let mut b = BadBlockManager::new();
        let factory = [BlockAddr::new(1, 0, 0, 7), BlockAddr::new(0, 0, 0, 3)];
        let grown = [BlockAddr::new(0, 1, 0, 9), BlockAddr::new(0, 0, 1, 2)];
        for blk in factory.iter().chain(grown.iter().rev()) {
            a.retire(
                *blk,
                if factory.contains(blk) {
                    RetireReason::Factory
                } else {
                    RetireReason::Grown
                },
            );
        }
        for blk in factory.iter().rev().chain(grown.iter()) {
            b.retire(
                *blk,
                if factory.contains(blk) {
                    RetireReason::Factory
                } else {
                    RetireReason::Grown
                },
            );
        }
        let order_a: Vec<BlockAddr> = a.iter().collect();
        let order_b: Vec<BlockAddr> = b.iter().collect();
        assert_eq!(order_a, order_b, "iteration order must not depend on insertion order");
        let mut sorted_factory = factory.to_vec();
        sorted_factory.sort();
        let mut sorted_grown = grown.to_vec();
        sorted_grown.sort();
        let expected: Vec<BlockAddr> =
            sorted_factory.into_iter().chain(sorted_grown).collect();
        assert_eq!(order_a, expected, "factory first, then grown, each sorted");
    }

    #[test]
    fn total_is_monotone_under_any_retire_sequence() {
        // total() must never decrease and never exceed the number of
        // distinct blocks, whatever order retirements arrive in.
        let blocks = [
            (BlockAddr::new(0, 0, 0, 1), RetireReason::Grown),
            (BlockAddr::new(0, 0, 0, 1), RetireReason::Factory),
            (BlockAddr::new(0, 0, 0, 1), RetireReason::Grown),
            (BlockAddr::new(0, 0, 0, 2), RetireReason::Factory),
            (BlockAddr::new(0, 0, 0, 2), RetireReason::Factory),
            (BlockAddr::new(0, 0, 0, 2), RetireReason::Grown),
            (BlockAddr::new(0, 1, 0, 1), RetireReason::Grown),
        ];
        let mut bbm = BadBlockManager::new();
        let mut prev = 0;
        for (b, reason) in blocks {
            bbm.retire(b, reason);
            let t = bbm.total();
            assert!(t >= prev, "total went backwards: {prev} -> {t}");
            assert_eq!(t, bbm.factory_count() + bbm.grown_count());
            prev = t;
        }
        assert_eq!(prev, 3, "three distinct blocks were retired");
    }
}

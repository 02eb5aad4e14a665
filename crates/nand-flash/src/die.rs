//! Dies (LUNs): the unit of command parallelism.
//!
//! A die can execute one array operation at a time; different dies operate in
//! parallel.  The die keeps an occupancy [`Timeline`] so the device can model
//! queueing when several actors (db-writers, GC, foreground reads) target the
//! same die — the contention effect behind Figure 4 of the paper.  By default
//! the timeline is the pinned `busy_until` ratchet; the multi-client engine
//! enables gap backfilling so concurrent clients whose commands arrive out of
//! timestamp order are not penalised (see [`crate::timeline`]).

use sim_utils::time::{SimDuration, SimInstant};

use crate::block::Block;
use crate::timeline::Timeline;

/// A single NAND die (LUN) holding `planes × blocks_per_plane` erase blocks.
#[derive(Debug)]
pub struct Die {
    /// Blocks, indexed by `plane * blocks_per_plane + block`.
    blocks: Vec<Block>,
    /// Busy periods of the die's array (gap-aware).
    timeline: Timeline,
    /// Total busy time accumulated (for utilisation reporting).
    busy_time: SimDuration,
    /// Number of array operations executed.
    ops: u64,
}

impl Die {
    /// Create a die with `blocks` erase blocks of `pages_per_block` pages.
    pub fn new(blocks: u32, pages_per_block: u32) -> Self {
        Self {
            blocks: (0..blocks).map(|_| Block::new(pages_per_block)).collect(),
            timeline: Timeline::new(),
            busy_time: 0,
            ops: 0,
        }
    }

    /// Immutable access to a block by die-local index.
    pub fn block(&self, idx: u32) -> &Block {
        &self.blocks[idx as usize]
    }

    /// Mutable access to a block by die-local index.
    pub fn block_mut(&mut self, idx: u32) -> &mut Block {
        &mut self.blocks[idx as usize]
    }

    /// The instant until which the die is occupied.
    pub fn busy_until(&self) -> SimInstant {
        self.timeline.busy_until()
    }

    /// Enable or disable gap-backfilling occupancy (default off: the
    /// pinned `busy_until` ratchet; see [`crate::timeline`]).
    pub fn set_backfill_occupancy(&mut self, on: bool) {
        self.timeline.set_backfill(on);
    }

    /// Total accumulated busy time.
    pub fn busy_time(&self) -> SimDuration {
        self.busy_time
    }

    /// Number of array operations executed on this die.
    pub fn ops(&self) -> u64 {
        self.ops
    }

    /// Reserve the die for an array operation of length `duration`, starting
    /// no earlier than `earliest_start`: at the tail by default, in the
    /// earliest idle gap that fits with backfill on. Returns `(start, end)`.
    pub fn occupy(
        &mut self,
        earliest_start: SimInstant,
        duration: SimDuration,
    ) -> (SimInstant, SimInstant) {
        let (start, end) = self.timeline.reserve(earliest_start, duration);
        self.busy_time += duration;
        self.ops += 1;
        (start, end)
    }

    /// Utilisation of the die over `[0, horizon]` (clamped to 1.0).
    pub fn utilisation(&self, horizon: SimInstant) -> f64 {
        if horizon == 0 {
            0.0
        } else {
            (self.busy_time as f64 / horizon as f64).min(1.0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn occupy_serialises_operations() {
        let mut die = Die::new(4, 8);
        let (s1, e1) = die.occupy(100, 50);
        assert_eq!((s1, e1), (100, 150));
        // Second op issued "in the past" still has to wait for the die.
        let (s2, e2) = die.occupy(120, 30);
        assert_eq!((s2, e2), (150, 180));
        // Op issued after the die went idle starts immediately.
        let (s3, e3) = die.occupy(500, 10);
        assert_eq!((s3, e3), (500, 510));
        assert_eq!(die.ops(), 3);
        assert_eq!(die.busy_time(), 90);
    }

    #[test]
    fn utilisation_is_bounded() {
        let mut die = Die::new(1, 8);
        die.occupy(0, 100);
        assert!((die.utilisation(200) - 0.5).abs() < 1e-12);
        assert_eq!(die.utilisation(0), 0.0);
        assert!(die.utilisation(50) <= 1.0);
    }

    #[test]
    fn blocks_are_independent() {
        let mut die = Die::new(2, 4);
        die.block_mut(0)
            .record_program(0, None, crate::oob::Oob::data(1, 1));
        assert_eq!(die.block(0).valid_pages(), 1);
        assert_eq!(die.block(1).valid_pages(), 0);
    }
}

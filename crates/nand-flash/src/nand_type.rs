//! NAND cell types and their timing / endurance profiles.
//!
//! The emulator of the paper can be configured for SLC, MLC and TLC NAND
//! (§3.3); the cell type determines array operation latencies and the
//! program/erase endurance that the wear-leveling experiments build on.

use sim_utils::time::{micros, millis, SimDuration};

/// NAND Flash cell technology.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum NandType {
    /// Single-level cell: fastest, most durable (≈100 k P/E cycles).
    Slc,
    /// Multi-level cell (2 bits/cell): ≈3 k–10 k P/E cycles.
    Mlc,
    /// Triple-level cell (3 bits/cell): slowest, ≈1 k P/E cycles.
    Tlc,
}

impl NandType {
    /// Typical array-operation timing for this cell type.
    pub fn timing(&self) -> TimingProfile {
        match self {
            // Numbers follow the commonly cited datasheet/literature values
            // also used by FlashSim-style simulators.
            NandType::Slc => TimingProfile {
                read_page: micros(25),
                program_page: micros(200),
                erase_block: millis(1) + micros(500),
                channel_ns_per_byte: 10, // ≈100 MB/s bus, ~40 µs per 4 KiB page
                command_overhead: micros(1),
            },
            NandType::Mlc => TimingProfile {
                read_page: micros(50),
                program_page: micros(660),
                erase_block: millis(3),
                channel_ns_per_byte: 10,
                command_overhead: micros(1),
            },
            NandType::Tlc => TimingProfile {
                read_page: micros(75),
                program_page: micros(1500),
                erase_block: millis(4) + micros(500),
                channel_ns_per_byte: 10,
                command_overhead: micros(1),
            },
        }
    }

    /// Nominal program/erase endurance (cycles per block) for this cell type.
    pub fn endurance(&self) -> u64 {
        match self {
            NandType::Slc => 100_000,
            NandType::Mlc => 5_000,
            NandType::Tlc => 1_500,
        }
    }

    /// Short human-readable name.
    pub fn name(&self) -> &'static str {
        match self {
            NandType::Slc => "SLC",
            NandType::Mlc => "MLC",
            NandType::Tlc => "TLC",
        }
    }
}

/// Latency parameters of the NAND array and the channel bus.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TimingProfile {
    /// Array read time (tR): cell array → page register.
    pub read_page: SimDuration,
    /// Array program time (tPROG): page register → cell array.
    pub program_page: SimDuration,
    /// Block erase time (tBERS).
    pub erase_block: SimDuration,
    /// Channel transfer cost in nanoseconds per byte (data in/out of the page
    /// register over the Flash bus).
    pub channel_ns_per_byte: u64,
    /// Fixed per-command overhead (command/address cycles, controller work).
    pub command_overhead: SimDuration,
}

impl TimingProfile {
    /// Time to move `bytes` over the channel bus.
    pub fn transfer(&self, bytes: u64) -> SimDuration {
        bytes * self.channel_ns_per_byte
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slc_is_fastest() {
        let slc = NandType::Slc.timing();
        let mlc = NandType::Mlc.timing();
        let tlc = NandType::Tlc.timing();
        assert!(slc.read_page < mlc.read_page && mlc.read_page < tlc.read_page);
        assert!(slc.program_page < mlc.program_page && mlc.program_page < tlc.program_page);
        assert!(slc.erase_block < mlc.erase_block && mlc.erase_block < tlc.erase_block);
    }

    #[test]
    fn endurance_ordering() {
        assert!(NandType::Slc.endurance() > NandType::Mlc.endurance());
        assert!(NandType::Mlc.endurance() > NandType::Tlc.endurance());
    }

    #[test]
    fn transfer_cost_scales_with_size() {
        let t = NandType::Slc.timing();
        assert_eq!(t.transfer(4096), 4096 * t.channel_ns_per_byte);
        assert!(t.transfer(8192) > t.transfer(4096));
    }

    #[test]
    fn slc_4k_write_latency_near_quarter_millisecond() {
        // Sanity: array program + channel transfer of a 4 KiB page on SLC
        // should land in the ~0.2–0.5 ms band the paper quotes for average
        // random writes (before FTL-induced outliers).
        let t = NandType::Slc.timing();
        let total = t.program_page + t.transfer(4096) + t.command_overhead;
        assert!(total > micros(150) && total < micros(500), "latency {total}");
    }

    #[test]
    fn names() {
        assert_eq!(NandType::Slc.name(), "SLC");
        assert_eq!(NandType::Mlc.name(), "MLC");
        assert_eq!(NandType::Tlc.name(), "TLC");
    }
}

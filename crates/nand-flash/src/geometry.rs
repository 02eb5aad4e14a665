//! Flash device geometry: the architectural parameters a DBMS learns through
//! the `IDENTIFY` command of the native Flash interface.

use crate::nand_type::NandType;

/// Physical organisation of a NAND Flash device.
///
/// The hierarchy follows ONFI terminology (and the paper's Figure 2):
/// `channel → die (LUN) → plane → block → page`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlashGeometry {
    /// Number of independent channels (buses) between controller and NAND.
    pub channels: u32,
    /// Number of dies (LUNs) attached to each channel.
    pub dies_per_channel: u32,
    /// Number of planes per die (copyback stays within a plane).
    pub planes_per_die: u32,
    /// Number of erase blocks per plane.
    pub blocks_per_plane: u32,
    /// Number of pages per erase block.
    pub pages_per_block: u32,
    /// User-data bytes per page.
    pub page_size: u32,
    /// Out-of-band (spare) bytes per page, used for page metadata.
    pub oob_size: u32,
    /// NAND cell type; determines timing and endurance.
    pub nand_type: NandType,
}

impl FlashGeometry {
    /// A small geometry suitable for unit tests: 2 channels × 2 dies ×
    /// 1 plane × 64 blocks × 32 pages × 4 KiB pages (≈ 16 MiB of Flash).
    pub fn small() -> Self {
        Self {
            channels: 2,
            dies_per_channel: 2,
            planes_per_die: 1,
            blocks_per_plane: 64,
            pages_per_block: 32,
            page_size: 4096,
            oob_size: 128,
            nand_type: NandType::Slc,
        }
    }

    /// A tiny geometry for exhaustive property tests (1×1×1×8×8, 512-byte
    /// pages).
    pub fn tiny() -> Self {
        Self {
            channels: 1,
            dies_per_channel: 1,
            planes_per_die: 1,
            blocks_per_plane: 8,
            pages_per_block: 8,
            page_size: 512,
            oob_size: 16,
            nand_type: NandType::Slc,
        }
    }

    /// A geometry modelled after the OpenSSD (Jasmine) research board used in
    /// the paper: 4 channels × 2 dies (8 "banks"), 128 pages per block,
    /// 4 KiB pages, SLC-class timing. Capacity is scaled down relative to the
    /// physical board so simulations stay RAM-friendly.
    pub fn openssd_like() -> Self {
        Self {
            channels: 4,
            dies_per_channel: 2,
            planes_per_die: 1,
            blocks_per_plane: 256,
            pages_per_block: 128,
            page_size: 4096,
            oob_size: 128,
            nand_type: NandType::Slc,
        }
    }

    /// A geometry with `dies` total dies spread over up to 8 channels —
    /// used for the die-scaling experiment of Figure 4 (1..=32 dies).
    ///
    /// Capacity per die is chosen so total capacity stays constant
    /// (`blocks_per_plane` shrinks as dies grow), mirroring the paper's fixed
    /// 10 GB drive divided over a varying number of dies.
    pub fn with_dies(dies: u32, blocks_total: u32, pages_per_block: u32, page_size: u32) -> Self {
        assert!(dies > 0, "need at least one die");
        let channels = dies.min(8);
        let dies_per_channel = dies.div_ceil(channels);
        let total_dies = channels * dies_per_channel;
        let blocks_per_plane = blocks_total.div_ceil(total_dies).max(4);
        Self {
            channels,
            dies_per_channel,
            planes_per_die: 1,
            blocks_per_plane,
            pages_per_block,
            page_size,
            oob_size: 128,
            nand_type: NandType::Slc,
        }
    }

    /// Total number of dies (LUNs) in the device.
    pub fn total_dies(&self) -> u32 {
        self.channels * self.dies_per_channel
    }

    /// Total number of planes in the device.
    pub fn total_planes(&self) -> u32 {
        self.total_dies() * self.planes_per_die
    }

    /// Number of blocks per die.
    pub fn blocks_per_die(&self) -> u32 {
        self.planes_per_die * self.blocks_per_plane
    }

    /// Total number of erase blocks in the device.
    pub fn total_blocks(&self) -> u64 {
        self.total_planes() as u64 * self.blocks_per_plane as u64
    }

    /// Total number of pages in the device.
    pub fn total_pages(&self) -> u64 {
        self.total_blocks() * self.pages_per_block as u64
    }

    /// Number of pages per die.
    pub fn pages_per_die(&self) -> u64 {
        self.blocks_per_die() as u64 * self.pages_per_block as u64
    }

    /// Raw capacity in bytes (user data area only, OOB excluded).
    pub fn capacity_bytes(&self) -> u64 {
        self.total_pages() * self.page_size as u64
    }

    /// Validate internal consistency; returns a human-readable complaint if
    /// any dimension is zero.
    pub fn validate(&self) -> Result<(), String> {
        let dims = [
            ("channels", self.channels),
            ("dies_per_channel", self.dies_per_channel),
            ("planes_per_die", self.planes_per_die),
            ("blocks_per_plane", self.blocks_per_plane),
            ("pages_per_block", self.pages_per_block),
            ("page_size", self.page_size),
        ];
        for (name, v) in dims {
            if v == 0 {
                return Err(format!("geometry dimension `{name}` must be non-zero"));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_geometry_counts() {
        let g = FlashGeometry::small();
        assert_eq!(g.total_dies(), 4);
        assert_eq!(g.total_planes(), 4);
        assert_eq!(g.total_blocks(), 256);
        assert_eq!(g.total_pages(), 256 * 32);
        assert_eq!(g.capacity_bytes(), 256 * 32 * 4096);
        assert!(g.validate().is_ok());
    }

    #[test]
    fn tiny_geometry_counts() {
        let g = FlashGeometry::tiny();
        assert_eq!(g.total_blocks(), 8);
        assert_eq!(g.total_pages(), 64);
    }

    #[test]
    fn with_dies_keeps_capacity_roughly_constant() {
        let base = FlashGeometry::with_dies(1, 1024, 64, 4096);
        let cap1 = base.capacity_bytes();
        for dies in [2u32, 4, 8, 16, 32] {
            let g = FlashGeometry::with_dies(dies, 1024, 64, 4096);
            assert_eq!(g.total_dies(), dies.max(g.total_dies()));
            let cap = g.capacity_bytes();
            // Rounding may change capacity slightly; stay within 2x.
            assert!(cap * 2 >= cap1 && cap <= cap1 * 2, "capacity drifted: {cap} vs {cap1}");
        }
    }

    #[test]
    fn with_dies_distributes_over_channels() {
        let g = FlashGeometry::with_dies(16, 2048, 64, 4096);
        assert_eq!(g.channels, 8);
        assert_eq!(g.dies_per_channel, 2);
        assert_eq!(g.total_dies(), 16);
    }

    #[test]
    fn validate_rejects_zero_dimension() {
        let mut g = FlashGeometry::small();
        g.pages_per_block = 0;
        assert!(g.validate().is_err());
    }

    #[test]
    fn openssd_profile_is_plausible() {
        let g = FlashGeometry::openssd_like();
        assert_eq!(g.total_dies(), 8);
        assert!(g.capacity_bytes() >= 1 << 30);
    }
}

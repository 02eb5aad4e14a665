//! Physical addresses on the NAND array.
//!
//! The native Flash interface addresses *physical* pages and blocks — unlike
//! the legacy block interface, which only exposes logical block numbers
//! (paper, Figure 1).  Three address types exist:
//!
//! * [`Ppa`] — physical page address (channel, die, plane, block, page),
//! * [`BlockAddr`] — physical erase-block address (no page component),
//! * [`DieAddr`] — a die (LUN) position, used by the region manager when
//!   assigning db-writers to physical regions.

use crate::geometry::FlashGeometry;

/// Physical page address.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Ppa {
    /// Channel index.
    pub channel: u32,
    /// Die (LUN) index within the channel.
    pub die: u32,
    /// Plane index within the die.
    pub plane: u32,
    /// Block index within the plane.
    pub block: u32,
    /// Page index within the block.
    pub page: u32,
}

impl Ppa {
    /// Construct a physical page address.
    pub fn new(channel: u32, die: u32, plane: u32, block: u32, page: u32) -> Self {
        Self {
            channel,
            die,
            plane,
            block,
            page,
        }
    }

    /// The erase block this page belongs to.
    pub fn block_addr(&self) -> BlockAddr {
        BlockAddr {
            channel: self.channel,
            die: self.die,
            plane: self.plane,
            block: self.block,
        }
    }

    /// The die this page lives on.
    pub fn die_addr(&self) -> DieAddr {
        DieAddr {
            channel: self.channel,
            die: self.die,
        }
    }

    /// Flatten to a device-wide page index in `[0, geometry.total_pages())`.
    pub fn flat(&self, g: &FlashGeometry) -> u64 {
        self.block_addr().flat(g) * g.pages_per_block as u64 + self.page as u64
    }

    /// Rebuild a [`Ppa`] from a flat page index.
    pub fn from_flat(g: &FlashGeometry, flat: u64) -> Self {
        let pages_per_block = g.pages_per_block as u64;
        let block_flat = flat / pages_per_block;
        let page = (flat % pages_per_block) as u32;
        let block = BlockAddr::from_flat(g, block_flat);
        Self {
            channel: block.channel,
            die: block.die,
            plane: block.plane,
            block: block.block,
            page,
        }
    }

    /// True if the address is inside the geometry.
    pub fn is_valid(&self, g: &FlashGeometry) -> bool {
        self.channel < g.channels
            && self.die < g.dies_per_channel
            && self.plane < g.planes_per_die
            && self.block < g.blocks_per_plane
            && self.page < g.pages_per_block
    }
}

/// Physical erase-block address.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct BlockAddr {
    /// Channel index.
    pub channel: u32,
    /// Die (LUN) index within the channel.
    pub die: u32,
    /// Plane index within the die.
    pub plane: u32,
    /// Block index within the plane.
    pub block: u32,
}

impl BlockAddr {
    /// Construct a block address.
    pub fn new(channel: u32, die: u32, plane: u32, block: u32) -> Self {
        Self {
            channel,
            die,
            plane,
            block,
        }
    }

    /// The die this block lives on.
    pub fn die_addr(&self) -> DieAddr {
        DieAddr {
            channel: self.channel,
            die: self.die,
        }
    }

    /// The address of page `page` inside this block.
    pub fn page(&self, page: u32) -> Ppa {
        Ppa {
            channel: self.channel,
            die: self.die,
            plane: self.plane,
            block: self.block,
            page,
        }
    }

    /// Flatten to a device-wide block index in `[0, geometry.total_blocks())`.
    pub fn flat(&self, g: &FlashGeometry) -> u64 {
        let die_index = self.die_addr().flat(g);
        let blocks_per_die = g.blocks_per_die() as u64;
        die_index * blocks_per_die + (self.plane * g.blocks_per_plane + self.block) as u64
    }

    /// Rebuild a [`BlockAddr`] from a flat block index.
    pub fn from_flat(g: &FlashGeometry, flat: u64) -> Self {
        let blocks_per_die = g.blocks_per_die() as u64;
        let die_index = flat / blocks_per_die;
        let within_die = (flat % blocks_per_die) as u32;
        let die = DieAddr::from_flat(g, die_index);
        Self {
            channel: die.channel,
            die: die.die,
            plane: within_die / g.blocks_per_plane,
            block: within_die % g.blocks_per_plane,
        }
    }

    /// True if the address is inside the geometry.
    pub fn is_valid(&self, g: &FlashGeometry) -> bool {
        self.channel < g.channels
            && self.die < g.dies_per_channel
            && self.plane < g.planes_per_die
            && self.block < g.blocks_per_plane
    }
}

/// A die (LUN) position: the unit of Flash parallelism and the building block
/// of NoFTL regions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct DieAddr {
    /// Channel index.
    pub channel: u32,
    /// Die (LUN) index within the channel.
    pub die: u32,
}

impl DieAddr {
    /// Construct a die address.
    pub fn new(channel: u32, die: u32) -> Self {
        Self { channel, die }
    }

    /// Flatten to a device-wide die index in `[0, geometry.total_dies())`.
    pub fn flat(&self, g: &FlashGeometry) -> u64 {
        self.channel as u64 * g.dies_per_channel as u64 + self.die as u64
    }

    /// Rebuild a [`DieAddr`] from a flat die index.
    pub fn from_flat(g: &FlashGeometry, flat: u64) -> Self {
        Self {
            channel: (flat / g.dies_per_channel as u64) as u32,
            die: (flat % g.dies_per_channel as u64) as u32,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ppa_flat_roundtrip() {
        let g = FlashGeometry::small();
        for flat in 0..g.total_pages() {
            let ppa = Ppa::from_flat(&g, flat);
            assert!(ppa.is_valid(&g), "invalid ppa {ppa:?} from flat {flat}");
            assert_eq!(ppa.flat(&g), flat);
        }
    }

    #[test]
    fn block_flat_roundtrip() {
        let g = FlashGeometry::small();
        for flat in 0..g.total_blocks() {
            let b = BlockAddr::from_flat(&g, flat);
            assert!(b.is_valid(&g));
            assert_eq!(b.flat(&g), flat);
        }
    }

    #[test]
    fn die_flat_roundtrip() {
        let g = FlashGeometry::small();
        for flat in 0..g.total_dies() as u64 {
            let d = DieAddr::from_flat(&g, flat);
            assert_eq!(d.flat(&g), flat);
        }
    }

    #[test]
    fn flat_addresses_are_die_contiguous() {
        // All pages of one die occupy a contiguous flat range — the property
        // the region manager relies on for die-wise striping.
        let g = FlashGeometry::small();
        let pages_per_die = g.pages_per_die();
        for flat in 0..g.total_pages() {
            let ppa = Ppa::from_flat(&g, flat);
            let expected_die = flat / pages_per_die;
            assert_eq!(ppa.die_addr().flat(&g), expected_die);
        }
    }

    #[test]
    fn page_within_block_addressing() {
        let b = BlockAddr::new(1, 0, 0, 17);
        let p = b.page(5);
        assert_eq!(p.block_addr(), b);
        assert_eq!(p.page, 5);
    }

    #[test]
    fn is_valid_rejects_out_of_range() {
        let g = FlashGeometry::tiny();
        assert!(!Ppa::new(1, 0, 0, 0, 0).is_valid(&g));
        assert!(!Ppa::new(0, 0, 0, 8, 0).is_valid(&g));
        assert!(!Ppa::new(0, 0, 0, 0, 8).is_valid(&g));
        assert!(Ppa::new(0, 0, 0, 7, 7).is_valid(&g));
    }
}

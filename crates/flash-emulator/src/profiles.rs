//! Emulated device profiles.
//!
//! The emulator is "data driven": a profile bundles the NAND geometry, cell
//! type and host link so the audience can switch between internal
//! architectures (Demo Scenario 1 of the paper).

use nand_flash::{FlashGeometry, NandType};

use crate::host_interface::HostLink;

/// A complete emulated-device description.
#[derive(Debug, Clone, PartialEq)]
pub struct DeviceProfile {
    /// Human-readable profile name.
    pub name: String,
    /// NAND geometry.
    pub geometry: FlashGeometry,
    /// Host link characteristics.
    pub host_link: HostLink,
}

impl DeviceProfile {
    /// A profile modelled after the OpenSSD (Jasmine) research board:
    /// 8 banks of SLC-class NAND behind a SATA2 link.
    pub fn openssd() -> Self {
        Self {
            name: "openssd-jasmine".into(),
            geometry: FlashGeometry::openssd_like(),
            host_link: HostLink::sata2(),
        }
    }

    /// The same board accessed through the native (ATA pass-through)
    /// protocol, as in the paper's NoFTL setup.
    pub fn openssd_native() -> Self {
        Self {
            name: "openssd-native".into(),
            geometry: FlashGeometry::openssd_like(),
            host_link: HostLink::native(),
        }
    }

    /// A commodity SATA2 MLC SSD.
    pub fn commodity_mlc() -> Self {
        let mut geometry = FlashGeometry::openssd_like();
        geometry.nand_type = NandType::Mlc;
        Self {
            name: "commodity-mlc-sata2".into(),
            geometry,
            host_link: HostLink::sata2(),
        }
    }

    /// A TLC variant for lifetime studies.
    pub fn commodity_tlc() -> Self {
        let mut geometry = FlashGeometry::openssd_like();
        geometry.nand_type = NandType::Tlc;
        Self {
            name: "commodity-tlc-sata2".into(),
            geometry,
            host_link: HostLink::sata2(),
        }
    }

    /// A small profile for unit tests and quick demos.
    pub fn small() -> Self {
        Self {
            name: "small-slc".into(),
            geometry: FlashGeometry::small(),
            host_link: HostLink::native(),
        }
    }

    /// A profile with exactly `dies` dies (constant total capacity), used by
    /// the Figure 4 die-scaling experiment.
    pub fn with_dies(dies: u32) -> Self {
        Self {
            name: format!("scaling-{dies}-dies"),
            geometry: FlashGeometry::with_dies(dies, 2048, 64, 4096),
            host_link: HostLink::native(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn openssd_profile_has_8_banks() {
        let p = DeviceProfile::openssd();
        assert_eq!(p.geometry.total_dies(), 8);
        assert_eq!(p.host_link.max_outstanding, 32);
    }

    #[test]
    fn nand_variants_differ_only_in_cell_type() {
        let mlc = DeviceProfile::commodity_mlc();
        let tlc = DeviceProfile::commodity_tlc();
        assert_eq!(mlc.geometry.total_pages(), tlc.geometry.total_pages());
        assert_ne!(mlc.geometry.nand_type, tlc.geometry.nand_type);
    }

    #[test]
    fn with_dies_scales_parallelism() {
        for dies in [1u32, 2, 4, 8, 16, 32] {
            let p = DeviceProfile::with_dies(dies);
            assert_eq!(p.geometry.total_dies(), dies);
        }
    }

    #[test]
    fn small_profile_uses_native_link() {
        let p = DeviceProfile::small();
        assert!(p.host_link.max_outstanding > 32);
        assert!(p.geometry.total_dies() >= 4);
    }
}

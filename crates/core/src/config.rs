//! NoFTL configuration.

use nand_flash::FlashGeometry;

use crate::regions::StripingMode;

/// Per-region reliability policy — the configurable-storage axis of the
/// NoFTL argument applied to redundancy.  The DBMS, knowing what each region
/// holds, picks the protection level per region instead of paying one
/// device-wide scheme.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum RedundancyPolicy {
    /// No redundancy (the default — and the bit/cycle-equivalence baseline):
    /// a die failure loses the region's unprotected pages.
    #[default]
    None,
    /// XOR parity striping: every stripe of up to `k` data pages, each on a
    /// *distinct* die, carries one parity page on yet another die.  Any
    /// single lost page of a stripe is reconstructable from its peers.
    /// Overhead ≈ `1/k` extra page writes, taken out of OP headroom.
    Parity(usize),
    /// Full mirroring: every page write also writes a copy on a different
    /// die.  2× write overhead — meant for small, hot, critical regions
    /// (the WAL) where reconstruction latency matters more than space.
    Mirror,
}

impl RedundancyPolicy {
    /// Whether the policy adds any protection.
    pub fn is_protected(self) -> bool {
        self != RedundancyPolicy::None
    }
}

/// Configuration of the DBMS-integrated Flash management.
#[derive(Debug, Clone)]
pub struct NoFtlConfig {
    /// Device geometry (normally obtained via IDENTIFY).
    pub geometry: FlashGeometry,
    /// Fraction of physical capacity kept as spare space for out-of-place
    /// updates and GC headroom.
    pub op_ratio: f64,
    /// How dies are grouped into regions (die-wise striping by default).
    pub striping: StripingMode,
    /// Per-region GC low watermark, in free blocks.
    pub gc_low_watermark: usize,
    /// Per-region GC high watermark, in free blocks.
    pub gc_high_watermark: usize,
    /// Wear-leveling trigger: when `max_erase − min_erase` exceeds this many
    /// cycles, cold data is migrated into the most-worn free block.
    pub wear_leveling_threshold: u64,
    /// Whether the underlying device stores page contents.
    pub store_data: bool,
    /// Per-die command-queue depth used by the asynchronous write path
    /// (`1` = synchronous dispatch; see [`crate::NoFtl::set_async_depth`]).
    pub async_queue_depth: usize,
    /// Maximum pages per GC relocation program dispatch (`0` and `1` both
    /// dispatch each relocation as a run of one).
    pub gc_batch_pages: usize,
    /// Read-heat penalty of GC victim scoring (`0.0` = off, the default:
    /// victim selection is read-blind and identical to the legacy scorer).
    /// When positive, a candidate block on a die whose
    /// [`nand_flash::FlashStats::per_die_reads`] occupancy is `h`× the
    /// per-die mean has its score divided by `1 + penalty × h`, steering
    /// reclamation toward read-cold dies so relocations interfere less with
    /// foreground read traffic.
    pub gc_read_heat_penalty: f64,
    /// Proactive GC scheduling threshold, in in-flight device reads
    /// (`0` = off, the default: GC only runs on demand from the allocator's
    /// low-watermark path).  When positive, [`crate::NoFtl::schedule_gc`]
    /// relocates one victim in a pressured region *only* while fewer than
    /// this many reads are queued device-wide, steering background
    /// reclamation into read-cold instants.
    pub gc_schedule_read_occupancy: usize,
    /// Override of the device's per-block P/E endurance (tests use tiny
    /// values so wear-out paths are reachable).
    pub endurance_override: Option<u64>,
    /// Read-disturb scrub threshold: when a block serves this many reads
    /// since its last erase, the scrubber relocates its live pages and
    /// erases it preventively.  Only consulted while the device runs with a
    /// fault plan (`StackConfig::faults`); without one the device does not even
    /// maintain the counter.
    pub scrub_read_disturb_threshold: u64,
    /// Per-region redundancy policy (index = region id).  Empty — the
    /// default — means [`RedundancyPolicy::None`] everywhere, which keeps
    /// every write path bit- and cycle-identical to a build without the
    /// redundancy machinery.  A shorter-than-regions vector leaves the
    /// remaining regions unprotected.
    /// `storage_engine::backend::StackConfig::noftl` sets one policy for
    /// every region.
    pub redundancy: Vec<RedundancyPolicy>,
}

impl NoFtlConfig {
    /// Defaults for `geometry`: 10 % spare space, die-wise striping, GC at
    /// 2 free blocks per region, wear-leveling threshold of 64 cycles.
    pub fn new(geometry: FlashGeometry) -> Self {
        Self {
            geometry,
            op_ratio: 0.10,
            striping: StripingMode::DieWise,
            gc_low_watermark: 2,
            gc_high_watermark: 4,
            wear_leveling_threshold: 64,
            store_data: true,
            async_queue_depth: 1,
            gc_batch_pages: 0,
            gc_read_heat_penalty: 0.0,
            gc_schedule_read_occupancy: 0,
            endurance_override: None,
            scrub_read_disturb_threshold: 10_000,
            redundancy: Vec::new(),
        }
    }

    /// Metadata-only configuration for trace replay experiments.
    pub fn metadata_only(geometry: FlashGeometry) -> Self {
        Self {
            store_data: false,
            ..Self::new(geometry)
        }
    }

    /// Number of logical pages exported to the DBMS.
    pub fn logical_pages(&self) -> u64 {
        ((self.geometry.total_pages() as f64) * (1.0 - self.op_ratio)).floor() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_sane() {
        let cfg = NoFtlConfig::new(FlashGeometry::small());
        assert!(cfg.logical_pages() > 0);
        assert!(cfg.logical_pages() < FlashGeometry::small().total_pages());
        assert_eq!(cfg.striping, StripingMode::DieWise);
    }

    #[test]
    fn metadata_only_flips_store_data() {
        let cfg = NoFtlConfig::metadata_only(FlashGeometry::tiny());
        assert!(!cfg.store_data);
    }

    #[test]
    fn logical_pages_scale_with_op() {
        let mut cfg = NoFtlConfig::new(FlashGeometry::small());
        let at_10 = cfg.logical_pages();
        cfg.op_ratio = 0.30;
        let at_30 = cfg.logical_pages();
        assert!(at_30 < at_10);
    }
}

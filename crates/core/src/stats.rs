//! NoFTL statistics: host I/O, GC work, wear-leveling migrations, dead-page
//! hints honoured, and the redundancy and online-rebuild machinery.

use sim_utils::histogram::Histogram;

/// Counters maintained by [`crate::NoFtl`].
#[derive(Debug, Clone, Default)]
pub struct NoFtlStats {
    /// Logical page reads issued by the DBMS.
    pub host_reads: u64,
    /// Logical page writes issued by the DBMS.
    pub host_writes: u64,
    /// Dead-page hints received from the DBMS free-space manager.
    pub dead_page_hints: u64,
    /// Pages GC relocated (copyback or read+program).
    pub gc_page_copies: u64,
    /// Pages GC *skipped* because the DBMS had declared them dead — the
    /// copy/erase savings that Figure 3 attributes to database integration.
    pub gc_dead_skipped: u64,
    /// Blocks erased by GC.
    pub gc_erases: u64,
    /// Synchronous GC invocations that stalled a host write.
    pub gc_stalls: u64,
    /// Proactive GC relocations [`crate::NoFtl::schedule_gc`] launched into
    /// read-cold instants.
    pub gc_scheduled_cold: u64,
    /// Proactive GC attempts deferred because the instant was read-hot
    /// (in-flight reads at or above the scheduling threshold).
    pub gc_deferred_hot: u64,
    /// Blocks migrated by static wear leveling.
    pub wear_migrations: u64,
    /// Blocks retired by the bad-block manager.
    pub retired_blocks: u64,
    /// Blocks retired because a PAGE PROGRAM into them reported failure
    /// (their still-valid pages were relocated first).
    pub program_fail_retirements: u64,
    /// Blocks retired because a BLOCK ERASE reported failure.
    pub erase_fail_retirements: u64,
    /// Additional read attempts issued by the read-retry ladder after an
    /// uncorrectable ECC result.
    pub read_retries: u64,
    /// Reads rescued by the retry ladder (an attempt after the first
    /// returned correctable data).
    pub read_retry_successes: u64,
    /// Blocks preventively rewritten by the read-disturb scrubber.
    pub scrubbed_blocks: u64,
    /// Pages the scrubber relocated.
    pub scrub_relocations: u64,
    // Redundancy (`NoFtlConfig::redundancy`): parity striping, mirroring,
    // and degraded reads that reconstruct pages lost to a die failure.  All
    // zero while every region runs `RedundancyPolicy::None`.
    /// Parity pages programmed when a stripe sealed.
    pub parity_pages_written: u64,
    /// Stripes sealed (a parity page written covering ≥ 1 data member).
    pub stripes_sealed: u64,
    /// Stripes sealed with the parity page on a die that already holds a
    /// member (no disjoint die had space) — that stripe no longer survives
    /// every single-die failure, only block-level loss.
    pub stripes_sealed_degraded: u64,
    /// Open stripes discarded unsealed: no die anywhere had space for the
    /// parity page, or a dying member's content was unreadable and the
    /// in-memory XOR could not be repaired.  The pending members stay
    /// unprotected.
    pub stripes_abandoned: u64,
    /// Members of the still-open stripe backed out of the in-memory XOR
    /// because their block was erased or retired before the stripe sealed.
    pub open_members_purged: u64,
    /// Stripes broken because a member or parity page's block was erased or
    /// retired; surviving mapped members are re-protected.
    pub stripes_broken: u64,
    /// Still-mapped stripe members re-queued into the open stripe after
    /// their stripe broke.
    pub members_reprotected: u64,
    /// Mirror copies programmed for writes into `Mirror` regions.
    pub mirror_pages_written: u64,
    /// `Mirror`-region writes left with a single copy: no die other than
    /// the primary's had allocatable space, or the geometry has one die.
    pub mirror_skipped_no_space: u64,
    /// Host reads served degraded — the mapped page's die was dead and the
    /// content came from its mirror or stripe peers.
    pub degraded_reads: u64,
    /// Pages whose content was reconstructed (XOR of stripe survivors or a
    /// mirror copy), for degraded reads and rebuild combined.
    pub reconstructed_pages: u64,
    // Online rebuild: re-homes pages lost to a die failure onto surviving
    // dies.  All zero until a die actually dies.
    /// Die failures the NoFTL layer detected and started a rebuild for.
    pub die_failures_detected: u64,
    /// Mapped-page slots of dead dies the rebuild walker examined.
    pub pages_scanned: u64,
    /// Lost pages reconstructed and rewritten onto surviving dies.
    pub pages_rebuilt: u64,
    /// Lost pages with no surviving redundancy — unrecoverable at this
    /// layer; the mapping is left pointing at the dead die so reads keep
    /// failing typed and WAL-replay page rebuild can take over.
    pub pages_lost: u64,
    /// Background rebuild steps that made progress
    /// ([`crate::NoFtl::schedule_rebuild`]).
    pub rebuild_scheduled: u64,
    /// Background rebuild attempts deferred because the instant was
    /// read-hot (in-flight reads at or above the GC scheduling threshold).
    pub rebuild_deferred_hot: u64,
    /// Host-visible write latency (ns).
    pub write_latency: Histogram,
    /// Host-visible read latency (ns).
    pub read_latency: Histogram,
}

impl NoFtlStats {
    /// Create zeroed statistics.
    pub fn new() -> Self {
        Self::default()
    }

    /// Write amplification: (host writes + GC copies) / host writes.
    pub fn write_amplification(&self) -> f64 {
        if self.host_writes == 0 {
            return 1.0;
        }
        (self.host_writes + self.gc_page_copies) as f64 / self.host_writes as f64
    }

    /// Reset all counters.
    pub fn clear(&mut self) {
        *self = NoFtlStats::default();
    }

    /// Whether the one-pass rebuild walked every page it will ever walk
    /// (detected failures and finished cursors are reconciled by
    /// [`crate::NoFtl::schedule_rebuild`] returning no work).
    pub fn accounted(&self) -> bool {
        self.pages_rebuilt + self.pages_lost <= self.pages_scanned
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn redundancy_stats_clear_resets() {
        let mut s = NoFtlStats {
            parity_pages_written: 4,
            stripes_sealed: 2,
            stripes_sealed_degraded: 1,
            stripes_abandoned: 2,
            open_members_purged: 3,
            stripes_broken: 1,
            members_reprotected: 3,
            mirror_pages_written: 9,
            mirror_skipped_no_space: 2,
            degraded_reads: 5,
            reconstructed_pages: 6,
            ..NoFtlStats::default()
        };
        s.clear();
        assert_eq!(s.parity_pages_written, 0);
        assert_eq!(s.stripes_sealed, 0);
        assert_eq!(s.stripes_sealed_degraded, 0);
        assert_eq!(s.stripes_abandoned, 0);
        assert_eq!(s.open_members_purged, 0);
        assert_eq!(s.stripes_broken, 0);
        assert_eq!(s.members_reprotected, 0);
        assert_eq!(s.mirror_pages_written, 0);
        assert_eq!(s.mirror_skipped_no_space, 0);
        assert_eq!(s.degraded_reads, 0);
        assert_eq!(s.reconstructed_pages, 0);
    }

    #[test]
    fn rebuild_stats_reconcile() {
        let mut s = NoFtlStats {
            die_failures_detected: 1,
            pages_scanned: 10,
            pages_rebuilt: 7,
            pages_lost: 2,
            rebuild_scheduled: 4,
            rebuild_deferred_hot: 3,
            ..NoFtlStats::default()
        };
        assert!(s.accounted());
        assert_eq!(s.die_failures_detected, 1);
        assert_eq!(s.rebuild_scheduled, 4);
        assert_eq!(s.rebuild_deferred_hot, 3);
        s.pages_rebuilt = 11;
        assert!(!s.accounted());
        s.clear();
        assert_eq!(s.die_failures_detected, 0);
        assert_eq!(s.pages_scanned, 0);
        assert_eq!(s.pages_rebuilt, 0);
        assert_eq!(s.pages_lost, 0);
        assert_eq!(s.rebuild_scheduled, 0);
        assert_eq!(s.rebuild_deferred_hot, 0);
    }

    #[test]
    fn wa_baseline() {
        assert_eq!(NoFtlStats::new().write_amplification(), 1.0);
    }

    #[test]
    fn wa_counts_gc() {
        let mut s = NoFtlStats::new();
        s.host_writes = 100;
        s.gc_page_copies = 25;
        assert!((s.write_amplification() - 1.25).abs() < 1e-12);
    }

    #[test]
    fn clear_resets() {
        let mut s = NoFtlStats::new();
        s.gc_erases = 3;
        s.read_latency.record(5);
        s.clear();
        assert_eq!(s.gc_erases, 0);
        assert_eq!(s.read_latency.count(), 0);
    }
}

//! Command counters and latency statistics of the NAND device.
//!
//! Figure 3 of the paper is a table of absolute and relative COPYBACK / ERASE
//! counts; these counters are the source of those numbers.

use serde::{Deserialize, Serialize};
use sim_utils::histogram::Histogram;

/// Per-command counters plus latency histograms.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct FlashStats {
    /// Number of PAGE READ commands.
    pub reads: u64,
    /// Number of PAGE PROGRAM commands.
    pub programs: u64,
    /// Number of BLOCK ERASE commands.
    pub erases: u64,
    /// Number of COPYBACK PROGRAM commands.
    pub copybacks: u64,
    /// Number of multi-page program dispatches (one per batched run; the
    /// individual pages are also counted in [`FlashStats::programs`]).
    pub multi_page_dispatches: u64,
    /// Pages programmed through multi-page dispatches.
    pub batched_pages: u64,
    /// Number of multi-page read dispatches (one per batched run; the
    /// individual pages are also counted in [`FlashStats::reads`]).
    pub multi_page_read_dispatches: u64,
    /// Pages read through multi-page dispatches.
    pub batched_read_pages: u64,
    /// Commands submitted through the queued (`submit_*`) interface.
    pub queued_submissions: u64,
    /// Σ (device start − host submit) over queued submissions, in virtual
    /// ns: the time commands spent waiting for their die queue, die and
    /// channel.  Divided by [`FlashStats::queued_submissions`] it is the
    /// mean queue wait per command.
    pub queue_wait_ns: u64,
    /// Queued submissions whose issue was gated behind a full die queue.
    pub queue_gated_submissions: u64,
    /// Read commands submitted through the queued (`submit_*`) interface
    /// (a subset of [`FlashStats::queued_submissions`]).
    pub queued_reads: u64,
    /// Queued read submissions whose issue was gated behind a full die queue
    /// — the read stalls a host sees when point reads queue behind in-flight
    /// program/erase traffic.
    pub read_stalls: u64,
    /// PAGE PROGRAM (or copyback) commands that reported failure (fault
    /// injection; the attempted page is consumed).
    pub program_failures: u64,
    /// BLOCK ERASE commands that reported failure (fault injection; the
    /// block is marked grown-bad).
    pub erase_failures: u64,
    /// PAGE READ commands whose bit errors the modelled ECC engine corrected
    /// (data intact; scrubbers watch this).
    pub corrected_reads: u64,
    /// PAGE READ commands whose bit errors exceeded the ECC correction
    /// budget (each retry of the read-retry ladder counts separately).
    pub uncorrectable_reads: u64,
    /// Dies that failed permanently (deterministic die/channel kills; a
    /// channel kill counts every die it takes down).
    pub die_failures: u64,
    /// Commands rejected up front because they addressed a dead die.
    pub dead_die_rejections: u64,
    /// Queued commands that were still in their die's in-flight window when
    /// the die failed: they are lost with it.
    pub inflight_die_failures: u64,
    /// Bytes transferred from the device to the host.
    pub bytes_read: u64,
    /// Bytes transferred from the host to the device.
    pub bytes_written: u64,
    /// Latency histogram of read commands (ns).
    pub read_latency: Histogram,
    /// Latency histogram of program commands (ns).
    pub program_latency: Histogram,
    /// Latency histogram of erase commands (ns).
    pub erase_latency: Histogram,
    /// Latency histogram of copyback commands (ns).
    pub copyback_latency: Histogram,
    /// Per-die array-operation counts (index = flat die index).
    pub per_die_ops: Vec<u64>,
    /// Per-die read-command counts (index = flat die index) — the read
    /// occupancy view of [`FlashStats::per_die_ops`], so asynchronous read
    /// traffic is observable per parallel unit like program/erase traffic.
    pub per_die_reads: Vec<u64>,
}

impl FlashStats {
    /// Create zeroed statistics for a device with `dies` dies.
    pub fn new(dies: usize) -> Self {
        Self {
            per_die_ops: vec![0; dies],
            per_die_reads: vec![0; dies],
            ..Default::default()
        }
    }

    /// Total number of native Flash commands issued.
    pub fn total_ops(&self) -> u64 {
        self.reads + self.programs + self.erases + self.copybacks
    }

    /// Reset all counters and histograms.
    pub fn clear(&mut self) {
        let dies = self.per_die_ops.len();
        *self = FlashStats::new(dies);
    }

    /// Merge counters from another stats object (histograms included).
    pub fn merge(&mut self, other: &FlashStats) {
        self.reads += other.reads;
        self.programs += other.programs;
        self.erases += other.erases;
        self.copybacks += other.copybacks;
        self.multi_page_dispatches += other.multi_page_dispatches;
        self.batched_pages += other.batched_pages;
        self.multi_page_read_dispatches += other.multi_page_read_dispatches;
        self.batched_read_pages += other.batched_read_pages;
        self.queued_submissions += other.queued_submissions;
        self.queue_wait_ns += other.queue_wait_ns;
        self.queue_gated_submissions += other.queue_gated_submissions;
        self.queued_reads += other.queued_reads;
        self.read_stalls += other.read_stalls;
        self.program_failures += other.program_failures;
        self.erase_failures += other.erase_failures;
        self.corrected_reads += other.corrected_reads;
        self.uncorrectable_reads += other.uncorrectable_reads;
        self.die_failures += other.die_failures;
        self.dead_die_rejections += other.dead_die_rejections;
        self.inflight_die_failures += other.inflight_die_failures;
        self.bytes_read += other.bytes_read;
        self.bytes_written += other.bytes_written;
        self.read_latency.merge(&other.read_latency);
        self.program_latency.merge(&other.program_latency);
        self.erase_latency.merge(&other.erase_latency);
        self.copyback_latency.merge(&other.copyback_latency);
        if self.per_die_ops.len() < other.per_die_ops.len() {
            self.per_die_ops.resize(other.per_die_ops.len(), 0);
        }
        for (a, b) in self.per_die_ops.iter_mut().zip(other.per_die_ops.iter()) {
            *a += *b;
        }
        if self.per_die_reads.len() < other.per_die_reads.len() {
            self.per_die_reads.resize(other.per_die_reads.len(), 0);
        }
        for (a, b) in self.per_die_reads.iter_mut().zip(other.per_die_reads.iter()) {
            *a += *b;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn totals_add_up() {
        let mut s = FlashStats::new(2);
        s.reads = 10;
        s.programs = 5;
        s.erases = 2;
        s.copybacks = 3;
        assert_eq!(s.total_ops(), 20);
    }

    #[test]
    fn merge_accumulates() {
        let mut a = FlashStats::new(2);
        a.reads = 1;
        a.per_die_ops[0] = 4;
        let mut b = FlashStats::new(2);
        b.reads = 2;
        b.erases = 7;
        b.per_die_ops[1] = 6;
        a.merge(&b);
        assert_eq!(a.reads, 3);
        assert_eq!(a.erases, 7);
        assert_eq!(a.per_die_ops, vec![4, 6]);
    }

    #[test]
    fn merge_accumulates_die_failure_counters() {
        let mut a = FlashStats::new(2);
        a.die_failures = 1;
        a.dead_die_rejections = 3;
        let mut b = FlashStats::new(2);
        b.die_failures = 2;
        b.inflight_die_failures = 5;
        b.queue_wait_ns = 40;
        a.merge(&b);
        assert_eq!(a.queue_wait_ns, 40);
        assert_eq!(a.die_failures, 3);
        assert_eq!(a.dead_die_rejections, 3);
        assert_eq!(a.inflight_die_failures, 5);
    }

    #[test]
    fn clear_zeroes_everything() {
        let mut s = FlashStats::new(3);
        s.programs = 9;
        s.per_die_ops[2] = 5;
        s.program_latency.record(100);
        s.clear();
        assert_eq!(s.programs, 0);
        assert_eq!(s.per_die_ops, vec![0, 0, 0]);
        assert_eq!(s.program_latency.count(), 0);
    }
}

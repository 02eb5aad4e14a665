//! FIO-like synthetic workload generator.
//!
//! Demo Scenario 1 of the paper stresses the emulator "with the Linux FIO
//! tool" to showcase its accuracy and reconfigurability.  [`FioJob`] is the
//! equivalent here: a synthetic read/write mix with configurable access
//! pattern, skew and queue depth, run against any [`BlockDevice`] (an
//! emulated SSD with any FTL, or a NoFTL adapter).

use ftl::block_device::BlockDevice;
use serde::{Deserialize, Serialize};
use sim_utils::dist::Zipf;
use sim_utils::histogram::Histogram;
use sim_utils::rng::SimRng;
use sim_utils::time::SimInstant;

/// Spatial access pattern of a FIO job.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum AccessPattern {
    /// Uniformly random block addresses.
    Random,
    /// Strictly sequential addresses (wrapping).
    Sequential,
    /// Zipf-skewed addresses with the given theta.
    Zipfian(f64),
}

/// A synthetic benchmark job description.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FioJob {
    /// Human-readable job name.
    pub name: String,
    /// Fraction of operations that are reads (`0.0` = write-only).
    pub read_fraction: f64,
    /// Spatial access pattern.
    pub pattern: AccessPattern,
    /// Number of I/O operations to issue.
    pub ops: u64,
    /// Number of logically concurrent submitters. Each submitter issues its
    /// next I/O as soon as its previous one completes, so higher depths expose
    /// more device parallelism.
    pub queue_depth: u32,
    /// Fraction of the device address space the job touches.
    pub working_set: f64,
    /// Random seed.
    pub seed: u64,
    /// Prefill the working set before measuring (needed for read jobs).
    pub prefill: bool,
}

impl FioJob {
    /// 4 KiB random write job (the paper's §3 latency example).
    pub fn random_write(ops: u64) -> Self {
        Self {
            name: "4k-random-write".into(),
            read_fraction: 0.0,
            pattern: AccessPattern::Random,
            ops,
            queue_depth: 1,
            working_set: 0.8,
            seed: 42,
            prefill: true,
        }
    }

    /// 4 KiB random read job.
    pub fn random_read(ops: u64) -> Self {
        Self {
            name: "4k-random-read".into(),
            read_fraction: 1.0,
            pattern: AccessPattern::Random,
            ops,
            queue_depth: 1,
            working_set: 0.8,
            seed: 42,
            prefill: true,
        }
    }

    /// Mixed 70/30 read/write OLTP-like job with Zipf skew.
    pub fn oltp_mix(ops: u64, queue_depth: u32) -> Self {
        Self {
            name: "oltp-70-30-zipf".into(),
            read_fraction: 0.7,
            pattern: AccessPattern::Zipfian(0.99),
            ops,
            queue_depth,
            working_set: 0.6,
            seed: 42,
            prefill: true,
        }
    }
}

/// Result of running a [`FioJob`].
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FioReport {
    /// Job name.
    pub job: String,
    /// Operations completed.
    pub ops: u64,
    /// Virtual wall-clock duration of the measured phase (ns).
    pub duration_ns: u64,
    /// I/O operations per (virtual) second.
    pub iops: f64,
    /// Throughput in MiB per (virtual) second.
    pub throughput_mib_s: f64,
    /// Read latency histogram (ns).
    pub read_latency: Histogram,
    /// Write latency histogram (ns).
    pub write_latency: Histogram,
}

impl FioReport {
    /// Mean latency over reads and writes combined (ns).
    pub fn mean_latency_ns(&self) -> f64 {
        let n = self.read_latency.count() + self.write_latency.count();
        if n == 0 {
            return 0.0;
        }
        (self.read_latency.mean() * self.read_latency.count() as f64
            + self.write_latency.mean() * self.write_latency.count() as f64)
            / n as f64
    }
}

/// Run `job` against `device`, starting the virtual clock at `start`.
pub fn run_fio(device: &mut dyn BlockDevice, job: &FioJob, start: SimInstant) -> FioReport {
    let block_size = device.block_size();
    let blocks = device.num_blocks();
    let span = ((blocks as f64) * job.working_set.clamp(0.01, 1.0)).max(1.0) as u64;
    let mut rng = SimRng::new(job.seed);
    let zipf = match job.pattern {
        AccessPattern::Zipfian(theta) => Some(Zipf::new(span, theta)),
        _ => None,
    };

    let mut t = start;
    // Prefill the working set so reads always hit written data.
    if job.prefill {
        let data = vec![0xA5u8; block_size];
        for lba in 0..span {
            if let Ok(c) = device.write_block(t, lba, &data) {
                t = t.max(c.completed_at);
            }
        }
    }

    let measure_start = t;
    let mut read_latency = Histogram::new();
    let mut write_latency = Histogram::new();
    let depth = job.queue_depth.max(1) as usize;
    // Each "submitter" issues its next I/O when its previous one completed.
    let mut submitter_time = vec![measure_start; depth];
    let mut seq_cursor = 0u64;
    let data = vec![0x5Au8; block_size];
    let mut buf = vec![0u8; block_size];
    let mut completed = 0u64;

    for op in 0..job.ops {
        let submitter = (op % depth as u64) as usize;
        let now = submitter_time[submitter];
        let lba = match job.pattern {
            AccessPattern::Random => rng.range(0, span),
            AccessPattern::Sequential => {
                let l = seq_cursor % span;
                seq_cursor += 1;
                l
            }
            // `zipf` is Some exactly when the pattern is Zipfian (built
            // above); fall back to uniform rather than panicking if the two
            // ever disagree.
            AccessPattern::Zipfian(_) => match zipf.as_ref() {
                Some(z) => z.sample(&mut rng),
                None => rng.range(0, span),
            },
        };
        let is_read = rng.bool_with_prob(job.read_fraction);
        let completion = if is_read {
            device.read_block(now, lba, &mut buf)
        } else {
            device.write_block(now, lba, &data)
        };
        match completion {
            Ok(c) => {
                let latency = c.completed_at.saturating_sub(now);
                if is_read {
                    read_latency.record(latency);
                } else {
                    write_latency.record(latency);
                }
                submitter_time[submitter] = c.completed_at;
                completed += 1;
            }
            Err(_) => {
                // Reads of never-written blocks (no prefill): skip silently —
                // FIO would read zeroes; our devices report an error instead.
                submitter_time[submitter] = now;
            }
        }
    }

    let end = submitter_time.iter().copied().max().unwrap_or(measure_start);
    let duration_ns = end.saturating_sub(measure_start).max(1);
    let secs = duration_ns as f64 / 1e9;
    let iops = completed as f64 / secs;
    let throughput_mib_s = iops * block_size as f64 / (1024.0 * 1024.0);
    FioReport {
        job: job.name.clone(),
        ops: completed,
        duration_ns,
        iops,
        throughput_mib_s,
        read_latency,
        write_latency,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::emulator::EmulatedSsd;
    use crate::host_interface::HostLink;
    use ftl::page_ftl::PageFtl;
    use nand_flash::FlashGeometry;

    fn small_ssd() -> EmulatedSsd<PageFtl> {
        EmulatedSsd::new(
            PageFtl::with_geometry(FlashGeometry::small()),
            HostLink::native(),
        )
    }

    #[test]
    fn random_write_job_reports_latency() {
        let mut ssd = small_ssd();
        let mut job = FioJob::random_write(500);
        job.working_set = 0.2;
        let report = run_fio(&mut ssd, &job, 0);
        assert_eq!(report.ops, 500);
        assert!(report.iops > 0.0);
        assert!(report.write_latency.count() == 500);
        assert!(report.mean_latency_ns() > 0.0);
    }

    #[test]
    fn read_job_after_prefill_succeeds() {
        let mut ssd = small_ssd();
        let mut job = FioJob::random_read(300);
        job.working_set = 0.2;
        let report = run_fio(&mut ssd, &job, 0);
        assert_eq!(report.ops, 300);
        assert_eq!(report.read_latency.count(), 300);
        // SLC reads are much faster than programs.
        assert!(report.read_latency.mean() < report.write_latency.mean() || report.write_latency.count() == 0);
    }

    #[test]
    fn higher_queue_depth_increases_iops() {
        // With multiple submitters the device's die parallelism is exposed:
        // the same number of ops completes in less virtual time.
        let run_with_depth = |depth: u32| -> f64 {
            let mut ssd = small_ssd();
            let mut job = FioJob::random_write(2000);
            job.queue_depth = depth;
            job.working_set = 0.3;
            job.prefill = false;
            run_fio(&mut ssd, &job, 0).iops
        };
        let qd1 = run_with_depth(1);
        let qd8 = run_with_depth(8);
        assert!(
            qd8 > qd1 * 1.5,
            "queue depth should raise IOPS: qd1={qd1:.0} qd8={qd8:.0}"
        );
    }

    #[test]
    fn oltp_mix_has_both_reads_and_writes() {
        let mut ssd = small_ssd();
        let mut job = FioJob::oltp_mix(1000, 4);
        job.working_set = 0.2;
        let report = run_fio(&mut ssd, &job, 0);
        assert!(report.read_latency.count() > 0);
        assert!(report.write_latency.count() > 0);
        assert_eq!(
            report.read_latency.count() + report.write_latency.count(),
            1000
        );
    }
}

//! Demo Scenario 1 reproduction: validation of the Flash emulator and
//! utilisation of Flash parallelism.
//!
//! Without the physical OpenSSD board, validation means (a) checking that the
//! emulator's measured latencies match the analytic NAND timing model for
//! every profile (`flash_emulator::validation::validate_standard_profiles`,
//! rendered by [`render_validation`]), and (b) showing that richer
//! parallelism (more dies, deeper queues, native link) increases sustained
//! IOPS — the argument of §3.2.

use flash_emulator::{run_fio, DeviceProfile, EmulatedSsd, FioJob, HostLink, ValidationReport};
use ftl::page_ftl::{PageFtl, PageFtlConfig};

/// IOPS as a function of queue depth on a given profile.
#[derive(Debug, Clone)]
pub struct ParallelismPoint {
    /// Profile name.
    pub profile: String,
    /// Host link queue depth used by the job.
    pub queue_depth: u32,
    /// Number of dies in the profile.
    pub dies: u32,
    /// Measured IOPS.
    pub iops: f64,
}

/// Measure IOPS scaling with queue depth and die count (the parallelism
/// demonstration).
pub fn run_parallelism_sweep(ops: u64) -> Vec<ParallelismPoint> {
    let mut points = Vec::new();
    for dies in [1u32, 2, 4, 8] {
        let profile = DeviceProfile::with_dies(dies);
        for qd in [1u32, 4, 16, 32] {
            let mut cfg = PageFtlConfig::new(profile.geometry);
            cfg.op_ratio = 0.10;
            let mut ssd = EmulatedSsd::new(PageFtl::new(cfg), HostLink::native());
            let mut job = FioJob::random_write(ops);
            job.queue_depth = qd;
            job.working_set = 0.3;
            job.prefill = false;
            let report = run_fio(&mut ssd, &job, 0);
            points.push(ParallelismPoint {
                profile: profile.name.clone(),
                queue_depth: qd,
                dies,
                iops: report.iops,
            });
        }
    }
    points
}

/// Render the validation reports.
pub fn render_validation(reports: &[ValidationReport]) -> String {
    let mut out = String::new();
    out.push_str("Emulator validation: measured vs analytic NAND latencies\n");
    out.push_str(&format!(
        "{:<22} {:>12} {:>12} {:>12} {:>12} {:>8}\n",
        "profile", "read ref µs", "read meas µs", "write ref µs", "write meas µs", "pass"
    ));
    for r in reports {
        out.push_str(&format!(
            "{:<22} {:>12.1} {:>12.1} {:>12.1} {:>12.1} {:>8}\n",
            r.profile,
            r.reference.read_ns as f64 / 1e3,
            r.measured_read_ns / 1e3,
            r.reference.write_ns as f64 / 1e3,
            r.measured_write_ns / 1e3,
            if r.passed { "yes" } else { "NO" }
        ));
    }
    out
}

/// Render the parallelism sweep.
pub fn render_parallelism(points: &[ParallelismPoint]) -> String {
    let mut out = String::new();
    out.push_str("\nParallelism utilisation: IOPS vs queue depth and die count\n");
    out.push_str(&format!(
        "{:>6} {:>6} {:>14}\n",
        "dies", "QD", "write IOPS"
    ));
    for p in points {
        out.push_str(&format!("{:>6} {:>6} {:>14.0}\n", p.dies, p.queue_depth, p.iops));
    }
    out.push_str("(more dies + deeper queues -> higher sustained IOPS, §3.2)\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parallelism_scales_with_dies_and_queue_depth() {
        let points = run_parallelism_sweep(600);
        let iops = |dies: u32, qd: u32| {
            points
                .iter()
                .find(|p| p.dies == dies && p.queue_depth == qd)
                .map(|p| p.iops)
                .unwrap()
        };
        // With a deep queue, 8 dies must beat 1 die clearly.
        assert!(
            iops(8, 16) > iops(1, 16) * 2.0,
            "8-die IOPS {} should be well above 1-die IOPS {}",
            iops(8, 16),
            iops(1, 16)
        );
        // On a multi-die device, deeper queues help.
        assert!(iops(8, 16) > iops(8, 1) * 1.5);
        let table = render_parallelism(&points);
        assert!(table.contains("IOPS"));
    }
}

//! Emulator self-validation.
//!
//! The paper validates its kernel-level emulator against the physical OpenSSD
//! board (Demo Scenario 1).  Without the hardware, the equivalent check is a
//! *consistency validation*: the latencies the emulator produces under a
//! synthetic workload must match the analytic expectations derived from the
//! configured NAND timing (array time + bus transfer + protocol overhead)
//! within a small tolerance, for every profile.

use ftl::page_ftl::{PageFtl, PageFtlConfig};

use crate::emulator::EmulatedSsd;
use crate::fio::{run_fio, FioJob};
use crate::profiles::DeviceProfile;

/// Expected single-command latencies derived from a profile's NAND timing.
#[derive(Debug, Clone, Copy)]
pub struct ReferenceLatencies {
    /// Expected uncontended 4 KiB read latency (ns).
    pub read_ns: u64,
    /// Expected uncontended 4 KiB program latency (ns).
    pub write_ns: u64,
}

impl ReferenceLatencies {
    /// Derive the reference numbers from a profile (the "datasheet" model the
    /// emulator must reproduce).
    pub fn from_profile(profile: &DeviceProfile) -> Self {
        let timing = profile.geometry.nand_type.timing();
        let page = (profile.geometry.page_size + profile.geometry.oob_size) as u64;
        let xfer = timing.transfer(page);
        let overhead = timing.command_overhead + profile.host_link.command_overhead;
        Self {
            read_ns: timing.read_page + xfer + overhead,
            write_ns: timing.program_page + xfer + overhead,
        }
    }
}

/// Outcome of validating one profile.
#[derive(Debug, Clone)]
pub struct ValidationReport {
    /// Profile name.
    pub profile: String,
    /// Reference (analytic) latencies.
    pub reference: ReferenceLatencies,
    /// Measured mean read latency (ns).
    pub measured_read_ns: f64,
    /// Measured median write latency (ns) — the median is used because GC
    /// outliers are part of FTL behaviour, not of the raw device model.
    pub measured_write_ns: f64,
    /// Relative read error.
    pub read_error: f64,
    /// Relative write error.
    pub write_error: f64,
    /// Whether both errors are below the tolerance.
    pub passed: bool,
}

/// Validate a profile by running uncontended read and write FIO jobs on it
/// and comparing the measured latencies with the analytic reference.
pub fn validate_profile(profile: &DeviceProfile, ops: u64, tolerance: f64) -> ValidationReport {
    let reference = ReferenceLatencies::from_profile(profile);

    let mut cfg = PageFtlConfig::new(profile.geometry);
    cfg.op_ratio = 0.10;
    let mut ssd = EmulatedSsd::new(PageFtl::new(cfg), profile.host_link);

    let mut write_job = FioJob::random_write(ops);
    write_job.working_set = 0.3;
    write_job.prefill = false;
    let write_report = run_fio(&mut ssd, &write_job, 0);

    let mut read_job = FioJob::random_read(ops);
    read_job.working_set = 0.2;
    let read_report = run_fio(&mut ssd, &read_job, write_report.duration_ns);

    let measured_read_ns = read_report.read_latency.mean();
    let measured_write_ns = write_report.write_latency.percentile(0.5) as f64;
    let read_error = (measured_read_ns - reference.read_ns as f64).abs() / reference.read_ns as f64;
    let write_error =
        (measured_write_ns - reference.write_ns as f64).abs() / reference.write_ns as f64;
    ValidationReport {
        profile: profile.name.clone(),
        reference,
        measured_read_ns,
        measured_write_ns,
        read_error,
        write_error,
        passed: read_error <= tolerance && write_error <= tolerance,
    }
}

/// Validate the standard set of profiles (used by the `emulator_validation`
/// bench binary and the integration tests).
pub fn validate_standard_profiles(ops: u64, tolerance: f64) -> Vec<ValidationReport> {
    [
        DeviceProfile::small(),
        DeviceProfile::openssd(),
        DeviceProfile::commodity_mlc(),
        DeviceProfile::commodity_tlc(),
    ]
    .iter()
    .map(|p| validate_profile(p, ops, tolerance))
    .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_latencies_track_nand_type() {
        let slc = ReferenceLatencies::from_profile(&DeviceProfile::openssd());
        let mlc = ReferenceLatencies::from_profile(&DeviceProfile::commodity_mlc());
        let tlc = ReferenceLatencies::from_profile(&DeviceProfile::commodity_tlc());
        assert!(slc.read_ns < mlc.read_ns && mlc.read_ns < tlc.read_ns);
        assert!(slc.write_ns < mlc.write_ns && mlc.write_ns < tlc.write_ns);
    }

    #[test]
    fn small_profile_validates_within_tolerance() {
        let report = validate_profile(&DeviceProfile::small(), 400, 0.25);
        assert!(
            report.passed,
            "validation failed: read err {:.3}, write err {:.3} (ref {} / {} ns, measured {:.0} / {:.0} ns)",
            report.read_error,
            report.write_error,
            report.reference.read_ns,
            report.reference.write_ns,
            report.measured_read_ns,
            report.measured_write_ns
        );
    }

    #[test]
    fn validation_runs_for_all_standard_profiles() {
        let reports = validate_standard_profiles(200, 0.35);
        assert_eq!(reports.len(), 4);
        for r in &reports {
            assert!(r.measured_read_ns > 0.0);
            assert!(r.measured_write_ns > 0.0);
        }
        assert!(
            reports.iter().filter(|r| r.passed).count() >= 3,
            "most profiles should validate: {:?}",
            reports.iter().map(|r| (r.profile.clone(), r.passed)).collect::<Vec<_>>()
        );
    }

    #[test]
    fn slc_write_reference_matches_paper_ballpark() {
        // The paper cites ~0.45 ms average 4 KiB random write latency on a
        // SLC SSD; our SLC reference (NAND program + transfer + SATA overhead)
        // must land in the same order of magnitude.
        let r = ReferenceLatencies::from_profile(&DeviceProfile::openssd());
        assert!(
            r.write_ns > 150_000 && r.write_ns < 900_000,
            "SLC write reference {} ns outside plausible band",
            r.write_ns
        );
    }
}

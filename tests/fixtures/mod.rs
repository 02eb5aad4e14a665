//! Fixtures built by more than one test binary: `tests/equivalence.rs` pins
//! their command streams, `tests/storms.rs` audits their stats counters.

use noftl::nand_flash::{DeviceConfig, FaultPlan, FlashGeometry, NandDevice};
use noftl::noftl_core::{NoFtl, NoFtlConfig, RedundancyPolicy};

/// Bare-NoFTL fixture that reaches every decision of the storage manager
/// on one traced device: a `Parity(3)` drive under a chaos fault plan
/// (program failures, read errors and their retries, erase failures on worn
/// blocks, read-disturb scrubs) churns a hot set through GC and wear
/// leveling, loses die 2 mid-run, serves degraded reads, takes rebuild steps
/// between writes and finally drains the rebuild.  Every read, before and
/// after the rebuild, returns the last data written.  Returns the drive,
/// whose tracer holds every command of the run.
pub fn parity_die_kill() -> NoFtl {
    let geometry = FlashGeometry::with_dies(4, 128, 16, 512);
    let mut plan = FaultPlan::seeded(0xD1E).with_die_kill(3000, 2);
    plan.program_fail_base = 2e-3;
    plan.program_fail_wear_scale = 0.0;
    plan.read_error_base = 0.05;
    plan.uncorrectable_fraction = 0.5;
    plan.erase_fail_knee = 0.0;
    plan.erase_fail_prob = 0.2;
    let mut dev_cfg = DeviceConfig::new(geometry);
    dev_cfg.trace_capacity = 1 << 16;
    dev_cfg.endurance_override = Some(50);
    dev_cfg.faults = Some(plan);
    let mut cfg = NoFtlConfig::new(geometry);
    cfg.op_ratio = 0.60;
    cfg.gc_low_watermark = 2;
    cfg.gc_high_watermark = 4;
    cfg.wear_leveling_threshold = 4;
    cfg.scrub_read_disturb_threshold = 48;
    cfg.gc_schedule_read_occupancy = 1;
    cfg.redundancy = vec![RedundancyPolicy::Parity(3); 4];
    let mut n = NoFtl::with_device(NandDevice::new(dev_cfg), cfg);

    let lpns = 256;
    let ps = geometry.page_size as usize;
    let mut rng = noftl::sim_utils::rng::SimRng::new(0xD1E);
    let mut last = vec![0u8; lpns as usize];
    let mut buf = vec![0u8; ps];
    let mut now = 0;
    for i in 0..lpns * 10 {
        // One full pass, then a hot quarter takes four writes in five.
        let lpn = match i {
            i if i < lpns => i,
            _ if rng.bool_with_prob(0.8) => rng.range(0, lpns / 4),
            _ => rng.range(0, lpns),
        };
        last[lpn as usize] = i as u8;
        now = n.write(now, lpn, &vec![i as u8; ps]).unwrap().completed_at;
        if i % 4 == 0 {
            let l = rng.range(0, lpns.min(i + 1));
            now = n.read(now, l, &mut buf).unwrap().completed_at;
            assert_eq!(buf, vec![last[l as usize]; ps], "lpn {l}");
        }
        if i % 16 == 0 {
            now = n.schedule_gc(now).unwrap().unwrap_or(now);
            now = n.schedule_rebuild(now).unwrap().unwrap_or(now);
        }
    }
    now = n.rebuild_all(now).unwrap();
    let end = n.drain(now);
    // The run reaches every seam: GC, wear leveling, scrubbing, each
    // failure class's recovery, stripes broken and re-protected, degraded
    // reads and rebuild steps both scheduled and drained.
    let s = n.stats();
    for (what, count) in [
        ("GC erases", s.gc_erases),
        ("cold GC runs", s.gc_scheduled_cold),
        ("wear migrations", s.wear_migrations),
        ("scrubbed blocks", s.scrubbed_blocks),
        ("program-failure retirements", s.program_fail_retirements),
        ("erase-failure retirements", s.erase_fail_retirements),
        ("read retries", s.read_retries),
        ("stripes broken", s.stripes_broken),
        ("members re-protected", s.members_reprotected),
        ("degraded reads", s.degraded_reads),
        ("scheduled rebuild steps", s.rebuild_scheduled),
        ("rebuilt pages", s.pages_rebuilt),
    ] {
        assert!(count > 0, "the fixture must exercise {what}");
    }
    assert_eq!(s.pages_lost, 0);

    for l in 0..lpns {
        n.read(end, l, &mut buf).unwrap();
        assert_eq!(buf, vec![last[l as usize]; ps], "lpn {l} after the rebuild");
    }
    assert_eq!(n.device().tracer().dropped(), 0, "the trace must hold every command");
    n
}

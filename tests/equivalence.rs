//! Golden-trace equivalence of the batched multi-page write path and the
//! asynchronous per-die command queues.
//!
//! Every write goes through the `write_pages` API; batching off
//! (`StackConfig::batch_pages` = 1) is a batch size of 1, the same value and
//! so the same run.  Larger batch sizes may change *timing* (that is the
//! point) but never page *contents*.
//!
//! The asynchronous submission protocol (PR 3) makes the same promise for
//! the per-die queue depth: depth 1 — every submission waits for its
//! predecessor — is the synchronous dispatch; deeper windows may change
//! timing but never contents, and a crash with commands still in flight
//! recovers exactly the durable prefix.
//!
//! Every leg states the configuration values it compares: a stack is a pure
//! function of them (`StackConfig`), and the legs run in parallel.  A leg
//! exists only where its two sides are *different* values; that equal values
//! give equal runs is pinned once ([`same_config_same_trace`]).

use noftl::nand_flash::{DeviceConfig, FaultPlan, FlashGeometry, NandDevice, OpKind, TraceEntry};
use noftl::noftl_core::{FlusherAssignment, NoFtl, NoFtlConfig, RedundancyPolicy};
use noftl::storage_engine::backend::{NoFtlBackend, StorageBackend};
use noftl::storage_engine::flusher::{FlusherConfig, FlusherPool};
use noftl::storage_engine::shard::ShardedBufferPool;
use noftl::storage_engine::BufferPool;

/// Run two die-wise flush cycles over a traced device and return
/// (command trace, per-page readback, completion barrier).  `async_depth` 1
/// is the synchronous dispatch; deeper windows submit through the per-die
/// command queues.
fn traced_flush_cycles(
    batch_pages: usize,
    async_depth: usize,
) -> (Vec<TraceEntry>, Vec<Vec<u8>>, u64) {
    let geometry = FlashGeometry::with_dies(4, 256, 32, 4096);
    let mut dev_cfg = DeviceConfig::new(geometry);
    dev_cfg.trace_capacity = 4096;
    let device = NandDevice::new(dev_cfg);
    let noftl = NoFtl::with_device(device, NoFtlConfig::new(geometry));
    let mut backend = NoFtlBackend::new(noftl);
    backend.set_async_depth(async_depth);

    let mut pool = BufferPool::new(128, 4096);
    for p in 0..48u64 {
        pool.new_page(&mut backend, 0, p, |d| {
            d[0] = p as u8;
            d[4095] = !(p as u8);
        })
        .unwrap();
    }
    let mut flushers = FlusherPool::new(FlusherConfig {
        writers: 2,
        assignment: FlusherAssignment::DieWise,
        dirty_high_watermark: 0.1,
        dirty_low_watermark: 0.0,
        batch_pages,
        batch_global: false,
        async_depth,
    });
    let t = flushers.run_cycle(&mut pool, &mut backend, 0).unwrap();
    // A second cycle over re-dirtied pages: under the asynchronous model its
    // submissions pipeline behind the first cycle's on the device queues.
    for p in 0..48u64 {
        pool.new_page(&mut backend, 0, p, |d| {
            d[0] = p as u8 ^ 0x80;
            d[4095] = !(p as u8) ^ 0x80;
        })
        .unwrap();
    }
    let t = flushers.run_cycle(&mut pool, &mut backend, t).unwrap();
    let end = backend.drain(flushers.drain(t));

    let trace = backend.noftl().device().tracer().entries().to_vec();
    let mut contents = Vec::new();
    let mut buf = vec![0u8; 4096];
    for p in 0..48u64 {
        backend.noftl_mut().read(end, p, &mut buf).unwrap();
        contents.push(buf.clone());
    }
    (trace, contents, end)
}

#[test]
fn page_contents_identical_for_all_batch_sizes() {
    let (_, reference, _) = traced_flush_cycles(0, 1);
    for batch_pages in [1usize, 2, 3, 8, 64] {
        let (_, contents, _) = traced_flush_cycles(batch_pages, 1);
        assert_eq!(
            contents, reference,
            "batch size {batch_pages} changed page contents"
        );
    }
}

#[test]
fn page_contents_identical_for_all_async_depths() {
    // Deeper queues change timing (that is the point) but never contents.
    let (_, reference, end_sync) = traced_flush_cycles(64, 1);
    for depth in [2usize, 4, 8, 16] {
        let (_, contents, end) = traced_flush_cycles(64, depth);
        assert_eq!(contents, reference, "async depth {depth} changed page contents");
        assert!(
            end <= end_sync,
            "async depth {depth} must never be slower than sync ({end} vs {end_sync})"
        );
    }
    // And the second cycle genuinely pipelines: depth 8 beats sync.
    let (_, _, end_async) = traced_flush_cycles(64, 8);
    assert!(
        end_async < end_sync,
        "two async cycles must overlap on the device: {end_async} vs {end_sync}"
    );
}

/// Mixed read/write fixture with real GC pressure: a small over-provisioned
/// device, repeated skewed overwrite waves (which cross the GC watermarks and
/// force relocations) flushed by die-wise writers, interleaved with batched
/// miss-fill reads ([`BufferPool::prefetch`]) and point reads.  The driver is
/// poll-driven: reads return completion tickets that are collected, not
/// chained, and the final barrier is the quiesce over all windows and queues.
/// Returns (command trace, final per-lpn contents, completion barrier).
fn traced_mixed_read_write(async_depth: usize) -> (Vec<TraceEntry>, Vec<Vec<u8>>, u64) {
    let geometry = FlashGeometry::with_dies(4, 16, 8, 2048);
    let mut dev_cfg = DeviceConfig::new(geometry);
    dev_cfg.trace_capacity = 1 << 16;
    let device = NandDevice::new(dev_cfg);
    let mut cfg = NoFtlConfig::new(geometry);
    cfg.op_ratio = 0.40;
    cfg.gc_low_watermark = 2;
    cfg.gc_high_watermark = 3;
    cfg.async_queue_depth = async_depth;
    let noftl = NoFtl::with_device(device, cfg);
    let mut backend = NoFtlBackend::new(noftl);

    let lpns = backend.num_pages();
    let page_size = backend.page_size();
    let mut pool = BufferPool::new(96, page_size);
    pool.set_async_depth(async_depth);
    let mut flushers = FlusherPool::new(FlusherConfig {
        writers: 2,
        assignment: FlusherAssignment::DieWise,
        dirty_high_watermark: 0.1,
        dirty_low_watermark: 0.0,
        batch_pages: 16,
        batch_global: false,
        async_depth,
    });

    let mut now = 0u64;
    let mut read_horizon = 0u64;
    for round in 0u8..6 {
        // Dirty this round's pages in waves and flush each wave.  Under async
        // the cycle returns its submission time, so successive waves pipeline
        // on the per-die queues; at depth 1 every wave waits (sync).
        let targets: Vec<u64> = (0..lpns)
            .filter(|l| round == 0 || l % 3 != 0)
            .collect();
        for wave in targets.chunks(64) {
            for &l in wave {
                pool.new_page(&mut backend, now, l, |d| {
                    d[0] = round ^ l as u8;
                    d[page_size - 1] = !(round ^ l as u8);
                })
                .unwrap();
            }
            now = flushers.run_cycle(&mut pool, &mut backend, now).unwrap();
        }
        // Batched miss fills of a rotating subset, submitted at the driver's
        // clock while this round's writes may still be in flight on the
        // queues; their completion tickets are collected, not chained.
        let subset: Vec<u64> = (0..lpns).filter(|l| l % 5 == (round as u64) % 5).collect();
        let done = pool.prefetch(&mut backend, now, &subset).unwrap();
        read_horizon = read_horizon.max(done);
        // A few point reads straight through the backend.
        let mut buf = vec![0u8; page_size];
        for l in (0..lpns).step_by(37) {
            let c = backend.read_page(now, l, &mut buf).unwrap();
            read_horizon = read_horizon.max(c.completed_at);
        }
    }
    // Quiesce: flusher windows, pool read window, device queues.
    let t = flushers.drain(now.max(read_horizon));
    let t = pool.drain_reads(t);
    let end = backend.drain(t);
    pool.flush_all(&mut backend, end).unwrap();
    let end = backend.drain(end);

    let trace = backend.noftl().device().tracer().entries().to_vec();
    let mut contents = Vec::new();
    let mut buf = vec![0u8; page_size];
    for l in 0..lpns {
        backend.noftl_mut().read(end, l, &mut buf).unwrap();
        contents.push(buf.clone());
    }
    (trace, contents, end)
}

/// The determinism pin every by-value leg leans on: the same configuration
/// gives the same run — every command, address and stamp — on the mixed
/// read/write fixture with GC relocating pages under the reads.
#[test]
fn same_config_same_trace() {
    let first = traced_mixed_read_write(1);
    assert!(first.0.iter().any(|e| e.kind == OpKind::Read), "fixture must issue reads");
    assert!(first.0.iter().any(|e| e.kind == OpKind::Erase), "fixture must trigger GC");
    assert_eq!(first, traced_mixed_read_write(1));
}

#[test]
fn page_contents_identical_for_all_async_read_depths_with_concurrent_gc() {
    // Deeper queues change timing (that is the point) but never contents —
    // even with GC relocating pages between and under the reads.
    let (_, reference, end_sync) = traced_mixed_read_write(1);
    for depth in [2usize, 4, 8, 16] {
        let (_, contents, end) = traced_mixed_read_write(depth);
        assert_eq!(
            contents, reference,
            "async depth {depth} changed page contents under GC"
        );
        assert!(
            end <= end_sync,
            "async depth {depth} must never be slower than sync ({end} vs {end_sync})"
        );
    }
    let (_, _, end_async) = traced_mixed_read_write(8);
    assert!(
        end_async < end_sync,
        "the mixed workload must genuinely overlap under async: {end_async} vs {end_sync}"
    );
}

/// Bare-NoFTL fixture that reaches every decision of the storage manager
/// on one traced device: a `Parity(3)` drive under a chaos fault plan
/// (program failures, read errors and their retries, erase failures on worn
/// blocks, read-disturb scrubs) churns a hot set through GC and wear
/// leveling, loses die 2 mid-run, serves degraded reads, takes rebuild steps
/// between writes and finally drains the rebuild.  Every read, before and
/// after the rebuild, returns the last data written.  Returns the command
/// trace.
fn traced_parity_die_kill() -> Vec<TraceEntry> {
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
    let (s, rs, rb) = (n.stats(), n.redundancy_stats(), n.rebuild_stats());
    for (what, count) in [
        ("GC erases", s.gc_erases),
        ("cold GC runs", s.gc_scheduled_cold),
        ("wear migrations", s.wear_migrations),
        ("scrubbed blocks", s.scrubbed_blocks),
        ("program-failure retirements", s.program_fail_retirements),
        ("erase-failure retirements", s.erase_fail_retirements),
        ("read retries", s.read_retries),
        ("stripes broken", rs.stripes_broken),
        ("members re-protected", rs.members_reprotected),
        ("degraded reads", rs.degraded_reads),
        ("scheduled rebuild steps", rb.rebuild_scheduled),
        ("rebuilt pages", rb.pages_rebuilt),
    ] {
        assert!(count > 0, "the fixture must exercise {what}");
    }
    assert_eq!(rb.pages_lost, 0);

    for l in 0..lpns {
        n.read(end, l, &mut buf).unwrap();
        assert_eq!(buf, vec![last[l as usize]; ps], "lpn {l} after the rebuild");
    }
    assert_eq!(n.device().tracer().dropped(), 0, "the trace must hold every command");
    n.device().tracer().entries().to_vec()
}

/// FNV-1a over every field of every traced command: kind, page or block
/// address, issue and completion instants and logical page.
fn trace_digest(trace: &[TraceEntry]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut fold = |v: u64| {
        for b in v.to_le_bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for e in trace {
        fold(e.kind as u64);
        let page = e.ppa.map_or([0; 6], |p| [1, p.channel, p.die, p.plane, p.block, p.page]);
        let block = e.block.map_or([0; 5], |b| [1, b.channel, b.die, b.plane, b.block]);
        for f in page.into_iter().chain(block) {
            fold(f.into());
        }
        fold(e.issued_at);
        fold(e.completed_at);
        fold(e.lpn.map_or(0, |l| l + 1));
    }
    h
}

/// Tier-1's pin on the command stream.  Each run's trace folds into one
/// digest, and the digests must equal the values recorded when the pins were
/// last set: a change that moves, adds or drops one command, or shifts one
/// stamp, fails here without the golden figures or the perf drift gate.
/// A change that moves the command stream on purpose re-pins these values
/// in the same commit as the golden figures and lists them in CHANGES.md.
#[test]
fn command_traces_match_their_pinned_digests() {
    let runs = [
        ("mixed read/write, depth 1", traced_mixed_read_write(1).0, 0x2799_9320_55d6_b3fa),
        ("mixed read/write, depth 8", traced_mixed_read_write(8).0, 0xf2ba_2c68_f133_9f5c),
        ("two flush cycles, 64-page runs, depth 8", traced_flush_cycles(64, 8).0, 0x0a85_639d_6e1e_ed25),
        ("parity, chaos faults, die kill, rebuild", traced_parity_die_kill(), 0xc9b4_f1cb_9ff8_621a),
    ];
    let drifted: Vec<String> = runs
        .iter()
        .map(|(run, trace, pinned)| (run, trace.len(), trace_digest(trace), pinned))
        .filter(|(_, _, digest, pinned)| digest != *pinned)
        .map(|(run, len, digest, pinned)| {
            format!("{run}: {len} commands, digest {digest:#018x}, pinned {pinned:#018x}")
        })
        .collect();
    assert!(drifted.is_empty(), "command streams moved:\n{}", drifted.join("\n"));
}

/// Heap-scan fixture over a traced NoFTL device: seeds a heap file of `pages`
/// slotted pages (several records each), checkpoints it to the backend, then
/// runs one full scan through a [`ScanPrefetcher`] with the given window cap
/// at the given async depth.  Returns (visit sequence, device command trace
/// of the scan, scan end time).
fn traced_heap_scan(
    window: usize,
    async_depth: usize,
) -> (Vec<(u64, u16, u8)>, Vec<String>, u64) {
    use noftl::storage_engine::free_space::FreeSpaceManager;
    use noftl::storage_engine::readahead::ScanPrefetcher;
    use noftl::storage_engine::{HeapFile, WalManager};

    let geometry = FlashGeometry::with_dies(4, 64, 32, 4096);
    let mut dev_cfg = DeviceConfig::new(geometry);
    dev_cfg.trace_capacity = 1 << 16;
    let device = NandDevice::new(dev_cfg);
    let mut cfg = NoFtlConfig::new(geometry);
    cfg.async_queue_depth = async_depth;
    let noftl = NoFtl::with_device(device, cfg);
    let mut backend = NoFtlBackend::new(noftl);

    let mut pool = ShardedBufferPool::new(1, 24, 4096);
    pool.set_async_depth(async_depth);
    let mut fsm = FreeSpaceManager::new(0, 2000);
    let mut wal = WalManager::new(2000, 64, 4096);
    let mut heap = HeapFile::new("t");
    let mut now = 0u64;
    for i in 0..600u64 {
        let mut rec = vec![0u8; 800];
        rec[..8].copy_from_slice(&i.to_le_bytes());
        rec[8] = i as u8;
        let (_, t) = heap
            .insert(&mut pool, &mut backend, &mut fsm, &mut wal, 1, now, &rec)
            .unwrap();
        now = t;
    }
    now = pool.flush_all(&mut backend, now).unwrap();
    let t0 = backend.drain(pool.drain_reads(now));
    let trace_before = backend.noftl().device().tracer().entries().len();

    let mut ra = ScanPrefetcher::new(window, async_depth);
    let mut seen: Vec<(u64, u16, u8)> = Vec::new();
    let (count, end) = heap
        .scan_with_readahead(&mut pool, &mut backend, &mut ra, t0, |rid, r| {
            seen.push((rid.page, rid.slot, r[8]));
        })
        .unwrap();
    assert_eq!(count, 600);
    let end = backend.drain(pool.drain_reads(end));
    let trace: Vec<String> = backend
        .noftl()
        .device()
        .tracer()
        .entries()
        .iter()
        .skip(trace_before)
        .map(|e| format!("{e:?}"))
        .collect();
    (seen, trace, end - t0)
}

#[test]
fn heap_scan_readahead_off_and_depth_one_are_cycle_identical_to_frame_at_a_time() {
    // Window 0 (readahead off) and window > 0 at depth 1 must both be
    // command- and cycle-identical to the frame-at-a-time scan: same device
    // commands, same addresses, same stamps, same scan duration.
    let (seq_base, trace_base, dur_base) = traced_heap_scan(0, 1);
    assert!(!trace_base.is_empty(), "the scan must read from the device");
    for (window, depth, label) in [
        (64, 1, "window 64 / depth 1"),
        (0, 8, "window 0 / depth 8"),
    ] {
        let (seq, trace, dur) = traced_heap_scan(window, depth);
        assert_eq!(seq, seq_base, "{label} changed the visit sequence");
        if depth == 1 {
            assert_eq!(trace, trace_base, "{label} changed the device trace");
            assert_eq!(dur, dur_base, "{label} changed the scan duration");
        }
    }
    // Window 0 at depth 8 is the frame-at-a-time path of *that* depth: its
    // trace must equal a second run of itself (determinism) and its visit
    // sequence the baseline's.
    let (seq_a, trace_a, dur_a) = traced_heap_scan(0, 8);
    let (seq_b, trace_b, dur_b) = traced_heap_scan(0, 8);
    assert_eq!(seq_a, seq_b);
    assert_eq!(trace_a, trace_b);
    assert_eq!(dur_a, dur_b);
    assert_eq!(seq_a, seq_base);
}

#[test]
fn heap_scan_readahead_visits_identical_sequence_at_any_window_and_depth() {
    let (seq_base, _, dur_base) = traced_heap_scan(0, 1);
    for window in [4usize, 16, 64] {
        for depth in [2usize, 4, 8] {
            let (seq, _, dur) = traced_heap_scan(window, depth);
            assert_eq!(
                seq, seq_base,
                "window {window} depth {depth} changed the record sequence"
            );
            assert!(
                dur <= dur_base,
                "readahead must never slow a scan down (window {window} depth {depth}: {dur} vs {dur_base})"
            );
        }
    }
    // And the streaming pipeline genuinely overlaps: the widest window at
    // depth 8 strictly beats frame-at-a-time.
    let (_, _, dur_ra) = traced_heap_scan(64, 8);
    assert!(
        dur_ra < dur_base,
        "readahead at 4 dies depth 8 must beat frame-at-a-time: {dur_ra} vs {dur_base}"
    );
}

#[test]
fn btree_range_readahead_visits_identical_key_sequence() {
    use noftl::storage_engine::free_space::FreeSpaceManager;
    use noftl::storage_engine::readahead::ScanPrefetcher;
    use noftl::storage_engine::btree::BTree;

    let run = |window: usize, depth: usize| -> (Vec<(u64, u64)>, u64) {
        let geometry = FlashGeometry::with_dies(4, 64, 32, 4096);
        let mut cfg = NoFtlConfig::new(geometry);
        cfg.async_queue_depth = depth;
        let noftl = NoFtl::new(cfg);
        let mut backend = NoFtlBackend::new(noftl);
        let mut pool = ShardedBufferPool::new(1, 8, 4096);
        pool.set_async_depth(depth);
        let mut fsm = FreeSpaceManager::new(0, 2000);
        let (mut tree, _) = BTree::create(&mut pool, &mut backend, &mut fsm, 0).unwrap();
        let mut now = 0u64;
        for k in 0..3000u64 {
            // Insert in a shuffled-ish order so leaves split realistically.
            let key = (k * 7919) % 3000;
            let (_, t) = tree
                .insert(&mut pool, &mut backend, &mut fsm, now, key, key * 13)
                .unwrap();
            now = t;
        }
        now = pool.flush_all(&mut backend, now).unwrap();
        let t0 = backend.drain(pool.drain_reads(now));
        let mut ra = ScanPrefetcher::new(window, depth);
        let mut seen = Vec::new();
        let (count, end) = tree
            .range_with_readahead(&mut pool, &mut backend, &mut ra, t0, 100, 2700, |k, v| {
                seen.push((k, v))
            })
            .unwrap();
        assert_eq!(count, 2601);
        let end = backend.drain(pool.drain_reads(end));
        (seen, end - t0)
    };
    let (seq_base, dur_base) = run(0, 1);
    assert_eq!(seq_base.len(), 2601);
    assert!(seq_base.windows(2).all(|w| w[0].0 < w[1].0), "keys in order");
    for (window, depth) in [(4, 2), (16, 8), (64, 8), (64, 1), (0, 8)] {
        let (seq, dur) = run(window, depth);
        assert_eq!(seq, seq_base, "window {window} depth {depth} changed the key sequence");
        assert!(dur <= dur_base, "window {window} depth {depth} slowed the range read");
    }
    let (_, dur_ra) = run(64, 8);
    assert!(
        dur_ra < dur_base,
        "leaf-chain readahead at depth 8 must beat frame-at-a-time: {dur_ra} vs {dur_base}"
    );
}

#[test]
fn readahead_never_evicts_pinned_pages_and_never_loses_dirty_data() {
    use noftl::storage_engine::free_space::FreeSpaceManager;
    use noftl::storage_engine::readahead::ScanPrefetcher;
    use noftl::storage_engine::{HeapFile, StorageBackend as _, WalManager};

    let geometry = FlashGeometry::with_dies(4, 64, 32, 4096);
    let mut cfg = NoFtlConfig::new(geometry);
    cfg.async_queue_depth = 8;
    let noftl = NoFtl::new(cfg);
    let mut backend = NoFtlBackend::new(noftl);
    let mut pool = ShardedBufferPool::new(1, 12, 4096);
    pool.set_async_depth(8);
    let mut fsm = FreeSpaceManager::new(0, 2000);
    let mut wal = WalManager::new(2000, 64, 4096);
    let mut heap = HeapFile::new("t");
    let mut now = 0u64;
    for i in 0..400u64 {
        let mut rec = vec![0u8; 900];
        rec[..8].copy_from_slice(&i.to_le_bytes());
        let (_, t) = heap
            .insert(&mut pool, &mut backend, &mut fsm, &mut wal, 1, now, &rec)
            .unwrap();
        now = t;
    }
    now = pool.flush_all(&mut backend, now).unwrap();
    now = backend.drain(pool.drain_reads(now));
    // A page the "scan" (some other operator) holds pinned, plus a dirty
    // page awaiting flush, both resident while readahead floods the pool.
    let pinned_page = heap.pages()[0];
    let dirty_page = heap.pages()[1];
    let (_, t) = pool
        .with_page(&mut backend, now, pinned_page, |_| ())
        .unwrap();
    now = t;
    assert!(pool.shards_mut()[0].pin(pinned_page));
    let (_, t) = pool
        .with_page_mut(&mut backend, now, dirty_page, |d| d[4000] = 0xEE)
        .unwrap();
    now = t;
    // Scan the whole table with an aggressive window through the tiny pool.
    let mut ra = ScanPrefetcher::new(64, 8);
    let (count, end) = heap
        .scan_with_readahead(&mut pool, &mut backend, &mut ra, now, |_, _| {})
        .unwrap();
    assert_eq!(count, 400);
    let end = backend.drain(pool.drain_reads(end));
    // The pinned page must have survived every prefetch batch.
    assert!(
        pool.contains(pinned_page),
        "readahead must never evict a pinned page"
    );
    pool.shards_mut()[0].unpin(pinned_page);
    // The dirty page's update must not have been lost: either still resident
    // and dirty, or written back to the backend during a (legitimate)
    // dirty-victim eviction.
    let mut buf = vec![0u8; 4096];
    if pool.shards()[0].is_dirty(dirty_page) {
        let (seen, _) = pool
            .with_page(&mut backend, end, dirty_page, |d| d[4000])
            .unwrap();
        assert_eq!(seen, 0xEE, "dirty page content lost in the pool");
    } else {
        backend.read_page(end, dirty_page, &mut buf).unwrap();
        assert_eq!(buf[4000], 0xEE, "dirty page evicted without write-back");
    }
}

#[test]
fn async_crash_with_commands_in_flight_recovers_exact_durable_prefix() {
    // A WAL force submitted through the asynchronous path with commands still
    // in flight: killing the system at any instant must leave recovery with
    // exactly the contiguous durable prefix — every log page whose program
    // had completed by the kill, nothing from the in-flight tail.
    use noftl::nand_flash::OpKind;
    use noftl::storage_engine::backend::{MemBackend, StorageBackend};
    use noftl::storage_engine::{LogRecord, WalManager};
    use std::collections::HashMap;

    let geometry = FlashGeometry::with_dies(8, 1024, 32, 4096);
    let mut dev_cfg = DeviceConfig::new(geometry);
    dev_cfg.trace_capacity = 1 << 16;
    let device = NandDevice::new(dev_cfg);
    let noftl = NoFtl::with_device(device, NoFtlConfig::new(geometry));
    let mut backend = NoFtlBackend::new(noftl);
    backend.set_async_depth(4);

    let (log_start, log_pages, page_size) = (0u64, 64u64, 4096usize);
    let mut wal = WalManager::new(log_start, log_pages, page_size);
    // 3-page groups over 8 dies: consecutive groups hit rotating, partially
    // overlapping die sets, so program completions spread over many instants.
    wal.set_batch_pages(3);
    wal.set_async_depth(4);
    for txn in 0..16u64 {
        wal.append(LogRecord::Update {
            txn,
            page: txn,
            slot: 0,
            bytes: &[txn as u8; 4000],
        });
    }
    let done = wal.flush(&mut backend, 0).unwrap();
    let done = backend.drain(wal.drain(done));

    // Per-log-page program completion times, from the device's command trace
    // (the OOB lpn of a NoFTL write is the page id).
    let mut page_done: HashMap<u64, u64> = HashMap::new();
    for e in backend.noftl().device().tracer().entries() {
        if e.kind == OpKind::Program {
            if let Some(lpn) = e.lpn {
                if lpn < log_start + log_pages {
                    let slot = page_done.entry(lpn).or_insert(0);
                    *slot = (*slot).max(e.completed_at);
                }
            }
        }
    }
    assert!(page_done.len() >= 16, "force must have written 16+ log pages");
    let all_records: Vec<_> = wal.records().iter().collect();
    let mut kills: Vec<u64> = page_done.values().copied().collect();
    kills.sort_unstable();
    kills.dedup();
    assert!(kills.len() > 2, "completions must spread over several instants");

    let mut prev_recovered = 0usize;
    let mut saw_partial = false;
    for &kill in std::iter::once(&0u64).chain(kills.iter()) {
        // Rebuild the surviving medium: only pages whose program completed by
        // the kill instant hold their content.
        let mut survived = MemBackend::new(page_size, log_start + log_pages);
        let mut buf = vec![0u8; page_size];
        for (&page_id, &completed) in &page_done {
            if completed <= kill {
                backend.read_page(done, page_id, &mut buf).unwrap();
                survived.write_page(0, page_id, &buf).unwrap();
            }
        }
        let recovered =
            WalManager::recover_records_from(&mut survived, log_start, log_pages, page_size, 0, 0);
        // Exact prefix: same LSNs, same records, in order.
        assert_eq!(
            recovered.iter().collect::<Vec<_>>(),
            &all_records[..recovered.len()],
            "recovery at kill={kill} must replay an exact prefix"
        );
        assert!(
            recovered.len() >= prev_recovered,
            "a later kill can only recover more"
        );
        prev_recovered = recovered.len();
        if !recovered.is_empty() && recovered.len() < all_records.len() {
            saw_partial = true;
        }
    }
    assert!(
        saw_partial,
        "some kill instant must catch commands genuinely in flight"
    );
    assert_eq!(
        prev_recovered,
        all_records.len(),
        "killing after the last completion recovers everything"
    );
}

#[test]
fn wal_log_contents_identical_for_all_batch_sizes() {
    use noftl::storage_engine::backend::MemBackend;
    use noftl::storage_engine::{LogRecord, LogStream, WalManager};

    let mut reference: Option<LogStream> = None;
    for batch in [0usize, 1, 2, 4, 64] {
        let mut backend = MemBackend::new(512, 512);
        let mut wal = WalManager::new(32, 128, 512);
        wal.set_batch_pages(batch);
        for txn in 0..24u64 {
            wal.append(LogRecord::Begin { txn });
            wal.append(LogRecord::Update {
                txn,
                page: txn * 3,
                slot: 1,
                bytes: &[txn as u8; 150],
            });
            wal.append(LogRecord::Commit { txn });
            if txn % 3 == 2 {
                wal.flush(&mut backend, 0).unwrap();
            }
        }
        wal.flush(&mut backend, 0).unwrap();
        let recovered = WalManager::recover_records_from(&mut backend, 32, 128, 512, 0, 0);
        assert_eq!(recovered.len(), 72);
        match &reference {
            None => reference = Some(recovered),
            Some(r) => assert_eq!(&recovered, r, "batch {batch} changed the durable log"),
        }
    }
}

// ---------------------------------------------------------------------------
// One client over the shared engine (PR 7).  The client count is an argument
// of the drivers that sweep or storm with it, not a stack knob, so there is
// no figure leg to pin here.
// ---------------------------------------------------------------------------

/// The structural pin behind the knob: one [`ClientSession`] driving a
/// 1-shard `ConcurrentEngine` must be **bit- and cycle-identical** to driving
/// a `StorageEngine` directly — same device command trace, same durable WAL
/// records, same commit count, same WAL forces, same buffer-pool counters,
/// same end-to-end virtual time.  Both are the same engine code, so what this
/// pins is that a session forwards every operation unchanged and that 1-shard
/// routing is the identity.
///
/// [`ClientSession`]: noftl::storage_engine::ClientSession
mod threads_single_client_identity {
    use noftl::nand_flash::{DeviceConfig, FlashGeometry, NandDevice};
    use noftl::noftl_core::{NoFtl, NoFtlConfig};
    use noftl::sim_utils::time::SimInstant;
    use noftl::storage_engine::backend::NoFtlBackend;
    use noftl::storage_engine::{
        ConcurrentEngine, EngineConfig, EngineOps, FlusherConfig, LogStream, StorageEngine,
    };
    use noftl::workloads::{TpcB, TpcBConfig, Workload};

    /// What a run leaves behind; every field must match across the legs.
    #[derive(Debug, PartialEq)]
    struct RunImage {
        trace: Vec<String>,
        wal: LogStream,
        end: SimInstant,
        committed: u64,
        forces: u64,
        buffer: noftl::storage_engine::buffer::BufferStats,
    }

    fn traced_backend(depth: usize) -> NoFtlBackend {
        let geometry = FlashGeometry::with_dies(4, 256, 32, 4096);
        let mut cfg = NoFtlConfig::new(geometry);
        cfg.async_queue_depth = depth;
        let mut dev_cfg = DeviceConfig::new(geometry);
        dev_cfg.store_data = cfg.store_data;
        dev_cfg.trace_capacity = 1 << 16;
        NoFtlBackend::new(NoFtl::with_device(NandDevice::new(dev_cfg), cfg))
    }

    fn engine_config(depth: usize) -> EngineConfig {
        let mut ecfg = EngineConfig::new();
        ecfg.buffer_frames = 96;
        ecfg.log_pages = 64;
        ecfg.flushers = FlusherConfig::die_wise(2);
        ecfg.flushers.async_depth = depth;
        ecfg.readahead_window = 16;
        ecfg
    }

    /// Identical TPC-B work through the [`EngineOps`] surface — the same
    /// generic code path drives both legs, so any divergence comes from the
    /// engines, not the driver.
    fn drive<E: EngineOps>(engine: &mut E) -> SimInstant {
        let mut w = TpcB::new(TpcBConfig {
            scale_factor: 1,
            tellers_per_branch: 4,
            accounts_per_branch: 80,
            seed: 42,
        });
        let mut now = w.setup(engine, 0).expect("setup");
        for _ in 0..30 {
            let (end, _) = w.run_transaction(engine, 0, now).expect("transaction");
            now = engine.maybe_flush(end).expect("flush").max(end);
        }
        let t = engine.checkpoint(now).expect("checkpoint");
        engine.quiesce(t)
    }

    fn single_image(depth: usize) -> RunImage {
        let mut engine = StorageEngine::new(Box::new(traced_backend(depth)), engine_config(depth));
        let end = drive(&mut engine);
        RunImage {
            trace: engine
                .backend()
                .as_any()
                .and_then(|a| a.downcast_ref::<NoFtlBackend>())
                .expect("NoFTL backend")
                .noftl()
                .device()
                .tracer()
                .entries()
                .iter()
                .map(|e| format!("{e:?}"))
                .collect(),
            wal: engine.wal().records().clone(),
            end,
            committed: engine.committed(),
            forces: engine.wal().forces(),
            buffer: engine.buffer_stats(),
        }
    }

    fn concurrent_image(depth: usize) -> RunImage {
        let engine = ConcurrentEngine::new(Box::new(traced_backend(depth)), engine_config(depth), 1);
        let mut session = engine.session();
        let end = drive(&mut session);
        drop(session);
        RunImage {
            trace: engine.with_backend(|b| {
                b.as_any()
                    .and_then(|a| a.downcast_ref::<NoFtlBackend>())
                    .expect("NoFTL backend")
                    .noftl()
                    .device()
                    .tracer()
                    .entries()
                    .iter()
                    .map(|e| format!("{e:?}"))
                    .collect()
            }),
            wal: engine.with_wal(|w| w.records().clone()),
            end,
            committed: engine.committed(),
            forces: engine.log_forces(),
            buffer: engine.buffer_stats(),
        }
    }

    #[test]
    fn one_shard_one_client_is_trace_identical_to_single_threaded_sync() {
        let single = single_image(1);
        let concurrent = concurrent_image(1);
        assert_eq!(
            single, concurrent,
            "one client over the 1-shard concurrent engine must be bit- and \
             cycle-identical to the single-threaded engine (sync dispatch)"
        );
    }

    #[test]
    fn one_shard_one_client_is_trace_identical_to_single_threaded_async() {
        let single = single_image(8);
        let concurrent = concurrent_image(8);
        assert_eq!(
            single, concurrent,
            "one client over the 1-shard concurrent engine must be bit- and \
             cycle-identical to the single-threaded engine (async depth 8)"
        );
    }
}

/// `StackConfig::slo` on by value.  Off is the default value, and an engine built
/// from it has no admission window, throttle or proactive GC to differ by;
/// on may change timing (that is the point) but must stay consistent.
mod slo_off_identity {
    use noftl::nand_flash::FlashGeometry;
    use noftl::noftl_core::{FlusherAssignment, NoFtlConfig};
    use noftl::storage_engine::backend::StackConfig;
    use noftl::storage_engine::{EngineOps, StorageEngine};
    use noftl::workloads::{Arrivals, OpenLoopConfig, OpenLoopDriver};

    #[test]
    fn slo_on_leg_runs_the_same_workload_with_truthful_stats() {
        let knobs = StackConfig {
            slo: true,
            ..StackConfig::default()
        };
        let geometry = FlashGeometry::with_dies(4, 256, 32, 4096);
        let backend = knobs.noftl_backend(NoFtlConfig::new(geometry));
        let mut ecfg = knobs.engine();
        ecfg.buffer_frames = 96;
        ecfg.log_pages = 64;
        ecfg.flushers = knobs.flushers(FlusherAssignment::DieWise, 2);
        let mut engine = StorageEngine::new(Box::new(backend), ecfg);

        let mut olcfg = OpenLoopConfig::new(120, Arrivals::Fixed { interval_ns: 5_000 });
        olcfg.rows = 200;
        olcfg.row_bytes = 64;
        let driver = OpenLoopDriver::new(olcfg);
        let t0 = driver.setup(&mut engine, 0).expect("setup");
        let mut slots: [&mut dyn EngineOps; 1] = [&mut engine];
        let report = driver.run(&mut slots, t0).expect("run");
        // Every begin is either admitted or shed, and the engine's counters
        // say which.
        assert_eq!(
            report.observed.0 + report.observed.2,
            132,
            "every offered request (warmup included) is admitted or shed"
        );
        let stats = engine.admission_stats();
        assert_eq!((stats.admitted, stats.delayed, stats.shed), report.observed);
    }
}

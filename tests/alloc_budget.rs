//! Allocation budgets of the steady state, counted by this binary's own
//! allocator: a read does not clone its table's catalog entry, the log keeps
//! its records without an allocation per record, a TPC-C transaction stays
//! within a fixed number of heap allocations, a streaming scan allocates
//! per batch of pages, not per page, queued device commands keep nothing
//! once they retire, and a warm device stores pages without allocating.
//!
//! The counts are exact for a given build, so the budgets sit well above
//! what is measured today (noted at each assertion) and well below what the
//! removed copies cost.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard};

use noftl::nand_flash::{
    BlockAddr, DeviceConfig, FlashGeometry, NandDevice, NativeFlashInterface, Oob, Ppa,
};
use noftl::noftl_core::{FlusherAssignment, NoFtl, NoFtlConfig};
use noftl::storage_engine::{
    backend::{MemBackend, NoFtlBackend},
    EngineConfig, FlusherConfig, LogRecord, StorageEngine, WalManager,
};
use noftl::workloads::{TpcC, TpcCConfig, Workload};

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

struct CountingAlloc;

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged; the counter is a plain statistic and publishes no other data.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// The counter is process-wide: the tests of this binary take turns.
fn exclusive() -> MutexGuard<'static, ()> {
    static TURN: Mutex<()> = Mutex::new(());
    TURN.lock().unwrap_or_else(|e| e.into_inner())
}

/// Allocator calls made while `f` runs.
fn allocations_in(f: impl FnOnce()) -> u64 {
    allocations_and_bytes_in(f).0
}

/// Allocator calls made while `f` runs, and the bytes they asked for (a
/// `realloc` counts its new size).
fn allocations_and_bytes_in(f: impl FnOnce()) -> (u64, u64) {
    let (calls, bytes) = (
        ALLOCS.load(Ordering::Relaxed),
        BYTES.load(Ordering::Relaxed),
    );
    f();
    (
        ALLOCS.load(Ordering::Relaxed) - calls,
        BYTES.load(Ordering::Relaxed) - bytes,
    )
}

#[test]
fn a_read_costs_the_same_on_a_table_of_any_size() {
    let _turn = exclusive();
    // (allocations per `read`, per `read_into`) on a resident page of a
    // table of about `pages` pages.
    let per_read = |pages: u64| -> (u64, u64) {
        let mut cfg = EngineConfig::new();
        cfg.buffer_frames = 64;
        let mut e = StorageEngine::new(Box::new(MemBackend::new(4096, 8192)), cfg);
        e.create_table("t");
        let txn = e.begin();
        let mut now = 0;
        let mut last = None;
        // Two 2 000-byte rows fill a page.
        for i in 0..pages * 2 {
            let (rid, t) = e.insert("t", txn, now, &[i as u8; 2000]).unwrap();
            now = t;
            last = Some(rid);
        }
        let rid = last.unwrap();
        let mut row = Vec::new();
        // Warm-up: the page is resident and the row buffer sized.
        e.read_into("t", now, rid, &mut row).unwrap();
        const READS: u64 = 100;
        let by_value = allocations_in(|| {
            for _ in 0..READS {
                let (v, _) = e.read("t", now, rid).unwrap();
                assert_eq!(v.unwrap().len(), 2000);
            }
        });
        let into = allocations_in(|| {
            for _ in 0..READS {
                let (found, _) = e.read_into("t", now, rid, &mut row).unwrap();
                assert!(found && row.len() == 2000);
            }
        });
        (by_value / READS, into / READS)
    };
    let small = per_read(20);
    let large = per_read(2000);
    assert_eq!(small, (1, 0), "`read` allocates the row it returns, `read_into` nothing");
    assert_eq!(large, small, "a read must not copy anything that grows with its table");
}

#[test]
fn the_log_keeps_its_records_without_an_allocation_per_record() {
    let _turn = exclusive();
    let mut wal = WalManager::new(0, 64, 4096);
    let image = [3u8; 200];
    let append_txns = |wal: &mut WalManager, txns: std::ops::Range<u64>| {
        for txn in txns {
            wal.append(LogRecord::Begin { txn });
            wal.append(LogRecord::Update {
                txn,
                page: txn % 500,
                slot: 0,
                bytes: &image,
            });
            wal.append(LogRecord::Commit { txn });
        }
    };
    append_txns(&mut wal, 0..10);
    let before = wal.current_lsn();
    const TXNS: u64 = 10_000;
    let allocs = allocations_in(|| append_txns(&mut wal, 10..10 + TXNS));
    // The history is one byte stream in 1 MiB segments: an allocation per
    // segment opened, none per record (30 000 records here, 2.4 MiB).
    // Measured: 2 (10 000, one per update image, while the log kept decoded
    // copies).  The slack is for the harness, whose reporting threads share
    // the counter.
    let mib = (wal.current_lsn() - before).div_ceil(1 << 20);
    assert!(
        allocs <= mib + 8,
        "{allocs} allocations to log {TXNS} transactions ({mib} MiB)"
    );
    assert_eq!(wal.records().len() as u64, 3 * (10 + TXNS));
}

#[test]
fn a_tpcc_transaction_stays_within_its_allocation_budget() {
    let _turn = exclusive();
    let noftl = NoFtl::new(NoFtlConfig::new(FlashGeometry::small()));
    let mut cfg = EngineConfig::new();
    cfg.buffer_frames = 256;
    cfg.flushers = FlusherConfig::die_wise(4);
    let mut e = StorageEngine::new(Box::new(NoFtlBackend::new(noftl)), cfg);
    let mut w = TpcC::new(TpcCConfig::scaled(1));
    let mut now = w.setup(&mut e, 0).unwrap();
    let mut run = |e: &mut StorageEngine, txns: u64| {
        for _ in 0..txns {
            let (t, _) = w.run_transaction(e, 0, now).unwrap();
            now = e.maybe_flush(t).unwrap();
        }
    };
    run(&mut e, 200);
    const TXNS: u64 = 1000;
    let allocs = allocations_in(|| run(&mut e, TXNS));
    // Measured: 0.50 per transaction since the device keeps its pages in a
    // shared slot store and a read batch builds one list; 4.4 while each
    // PROGRAM and COPYBACK took a page buffer of its own; 17.6 while the log kept a decoded copy of every
    // record (one allocation per inserted or updated row), over 200 before
    // the copies went.
    assert!(
        allocs <= 8 * TXNS,
        "{:.2} allocations per TPC-C transaction (budget 8)",
        allocs as f64 / TXNS as f64
    );
}

#[test]
fn a_streaming_scan_allocates_per_batch_not_per_page() {
    let _turn = exclusive();
    const FRAMES: u64 = 64;
    // Allocations of one full scan of a table `pool_multiple` times the pool.
    let scan_allocations = |pool_multiple: u64| -> (u64, u64) {
        let geometry = FlashGeometry::with_dies(8, 64, 32, 4096);
        let mut noftl_cfg = NoFtlConfig::new(geometry);
        noftl_cfg.async_queue_depth = 8;
        let mut cfg = EngineConfig::new();
        cfg.buffer_frames = FRAMES as usize;
        cfg.readahead_window = 32;
        cfg.flushers = FlusherConfig {
            writers: 2,
            assignment: FlusherAssignment::DieWise,
            dirty_high_watermark: 0.4,
            dirty_low_watermark: 0.05,
            batch_pages: 64,
            batch_global: false,
            async_depth: 8,
        };
        let mut e = StorageEngine::new(Box::new(NoFtlBackend::new(NoFtl::new(noftl_cfg))), cfg);
        e.create_table("t");
        let txn = e.begin();
        let mut now = 0;
        // Two 2 000-byte rows fill a page.
        let rows = FRAMES * pool_multiple * 2;
        for i in 0..rows {
            let (_, t) = e.insert("t", txn, now, &[i as u8; 2000]).unwrap();
            now = t;
            if i % 64 == 0 {
                now = e.maybe_flush(now).unwrap();
            }
        }
        now = e.commit(txn, now).unwrap();
        now = e.checkpoint(now).unwrap();
        let scan = |e: &mut StorageEngine, now: u64| {
            let (count, end) = e.scan("t", now, |_, _| {}).unwrap();
            assert_eq!(count, rows);
            e.quiesce(end)
        };
        // Warm-up: every reused list reaches its working size.
        now = scan(&mut e, now);
        let allocs = allocations_in(|| {
            scan(&mut e, now);
        });
        assert!(e.readahead_stats().prefetch_issued >= rows / 2, "the scan must stream");
        (allocs, rows / 2)
    };
    let (allocs_5x, pages_5x) = scan_allocations(5);
    let (allocs_10x, pages_10x) = scan_allocations(10);
    // Measured: 10 allocations for 320 pages and 10 for 640, since a read
    // batch is one list sorted by die and the device stores pages in a slot
    // store; 39 while a batch built a list per die and each page its own
    // buffer (40 while the device also kept a completion list for polling); four
    // per page before.
    assert!(
        allocs_5x <= pages_5x / 4,
        "{allocs_5x} allocations to scan {pages_5x} pages"
    );
    assert!(
        allocs_10x - allocs_5x.min(allocs_10x) <= (pages_10x - pages_5x) / 16,
        "{pages_5x} -> {pages_10x} pages took {allocs_5x} -> {allocs_10x} allocations: \
         the streaming top-ups must not allocate"
    );
}

#[test]
fn queued_commands_keep_nothing_once_they_retire() {
    let _turn = exclusive();
    // 8 dies x 16 384 pages; page `k` of the sequence goes to die `k % 8`,
    // so each die's blocks fill in program order.
    let g = FlashGeometry::with_dies(8, 4096, 32, 4096);
    let dies = g.total_dies() as u64;
    let data = vec![0u8; g.page_size as usize];
    for depth in [1, 8] {
        let mut dev = NandDevice::new(DeviceConfig::metadata_only(g));
        dev.set_queue_depth(depth);
        let program = |dev: &mut NandDevice, k: u64| {
            let flat = (k % dies) * g.pages_per_die() + k / dies;
            let ppa = Ppa::from_flat(&g, flat);
            let q = dev
                .submit_program_pages(0, &[(ppa, &data, Oob::data(k, 0))])
                .unwrap();
            assert!(q.issued_at >= q.submitted_at);
        };
        // Warm-up: every die's window reaches its depth.
        const WARM: u64 = 1024;
        for k in 0..WARM {
            program(&mut dev, k);
        }
        const PROGRAMS: u64 = 100_000;
        let (allocs, bytes) = allocations_and_bytes_in(|| {
            for k in WARM..WARM + PROGRAMS {
                program(&mut dev, k);
            }
        });
        assert_eq!(dev.stats().queued_submissions, WARM + PROGRAMS);
        // Measured: 0 allocations, 0 bytes.  While the device also kept
        // every completion for a poll nobody made, that list grew to 101 024
        // entries: 7 allocations asking for 20 MB in all.
        assert!(
            allocs < 16 && bytes < 64 * 1024,
            "depth {depth}: {allocs} allocations, {bytes} bytes for {PROGRAMS} programs"
        );
    }
}

#[test]
fn a_warm_device_programs_copies_and_erases_without_allocating() {
    let _turn = exclusive();
    let g = FlashGeometry::with_dies(2, 64, 32, 4096);
    let mut dev = NandDevice::new(DeviceConfig::new(g));
    // Pages of every shape the store tells apart, 64 lines of 64 bytes
    // each: one byte throughout, two uniform halves of different bytes,
    // every line noisy, only line 0 noisy, and noisy lines among uniform
    // ones of two bytes.
    let noise = |page: &mut [u8], lines: &dyn Fn(usize) -> bool| {
        for (i, line) in page.chunks_mut(64).enumerate() {
            if lines(i) {
                line.iter_mut().enumerate().for_each(|(j, x)| *x = (i * 7 + j) as u8);
            }
        }
    };
    let mut shapes = vec![vec![7u8; g.page_size as usize]; 5];
    shapes[1][2048..].fill(0xFF);
    noise(&mut shapes[2], &|_| true);
    noise(&mut shapes[3], &|i| i == 0);
    shapes[4][..1024].fill(0);
    noise(&mut shapes[4], &|i| i % 5 == 2);
    let mut buf = vec![0u8; g.page_size as usize];
    // One GC round on each die: fill a block, copy its even pages into a
    // second one by COPYBACK and its odd pages into a third by a read and a
    // program inside the device, read the copies back, and erase all three.
    let cycle = |dev: &mut NandDevice, buf: &mut [u8], k: u64| {
        // One die per channel.
        for ch in 0..g.channels {
            let [victim, even, odd] = [0, 1, 2].map(|b| BlockAddr::new(ch, 0, 0, b));
            for p in 0..g.pages_per_block {
                let data = &shapes[(p as usize + k as usize) % shapes.len()];
                dev.program_page(0, victim.page(p), data, Oob::data(k + u64::from(p), 0))
                    .unwrap();
            }
            for p in 0..g.pages_per_block / 2 {
                dev.copyback(0, victim.page(2 * p), even.page(p), None)
                    .unwrap();
                dev.copy_page(0, victim.page(2 * p + 1), odd.page(p), None)
                    .unwrap();
            }
            dev.erase_block(0, victim).unwrap();
            for p in 0..g.pages_per_block {
                let copy = [even, odd][p as usize % 2].page(p / 2);
                dev.read_page(0, copy, buf).unwrap();
                assert_eq!(*buf, shapes[(p as usize + k as usize) % shapes.len()]);
            }
            dev.erase_block(0, even).unwrap();
            dev.erase_block(0, odd).unwrap();
        }
    };
    // Warm-up: the store and the die and channel timelines reach their
    // working sizes (a channel's timeline gains an interval per cycle up to
    // its bound of 32).
    const WARM: u64 = 40;
    for k in 0..WARM {
        cycle(&mut dev, &mut buf, k);
    }
    const CYCLES: u64 = 50;
    let (allocs, bytes) = allocations_and_bytes_in(|| {
        for k in WARM..WARM + CYCLES {
            cycle(&mut dev, &mut buf, k);
        }
    });
    // Measured: 0 allocations, 0 bytes (one 4 KiB buffer per PROGRAM,
    // COPYBACK or copy would be 6 400 here).  The slack is for the harness,
    // whose reporting threads share the counter.
    assert!(
        allocs < 16 && bytes < 64 * 1024,
        "{allocs} allocations, {bytes} bytes for {CYCLES} cycles of {} commands",
        g.channels * (7 * g.pages_per_block / 2 + 3)
    );
}

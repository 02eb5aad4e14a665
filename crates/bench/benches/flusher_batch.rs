//! Microbenchmarks of the batched multi-page flusher write path (PR 2) and
//! the asynchronous per-die command queues (PR 3).
//!
//! Two kinds of numbers:
//!
//! * **virtual time** — the simulated duration of one flush cycle, the
//!   quantity the paper's figures are built from.  Printed once per run as
//!   `FLUSHER_BATCH_VIRTUAL ...` / `FLUSHER_ASYNC_VIRTUAL ...` so a report
//!   can quote it deterministically.
//! * **real time** — criterion ns/iter of the cycle itself (allocation,
//!   partitioning, copy-free arena submission), showing the host-side
//!   savings of writing straight out of the arena.

use criterion::{criterion_group, criterion_main, Criterion};
use nand_flash::FlashGeometry;
use noftl_core::{FlusherAssignment, NoFtl, NoFtlConfig};
use std::hint::black_box;
use storage_engine::{
    backend::{NoFtlBackend, StorageBackend},
    buffer::BufferPool,
    flusher::{FlusherConfig, FlusherPool},
};

const DIES: u32 = 8;
const PAGES_PER_DIE: u64 = 8;
const WRITERS: usize = 2;

fn fixture() -> (BufferPool, NoFtlBackend) {
    let geometry = FlashGeometry::with_dies(DIES, 1024, 32, 4096);
    let noftl = NoFtl::new(NoFtlConfig::new(geometry));
    let mut backend = NoFtlBackend::new(noftl);
    let mut pool = BufferPool::new(256, 4096);
    for p in 0..(DIES as u64 * PAGES_PER_DIE) {
        pool.new_page(&mut backend, 0, p, |d| d[0] = p as u8).unwrap();
    }
    (pool, backend)
}

fn flusher_config(batch_pages: usize) -> FlusherConfig {
    FlusherConfig {
        writers: WRITERS,
        assignment: FlusherAssignment::DieWise,
        dirty_high_watermark: 0.1,
        dirty_low_watermark: 0.0,
        batch_pages,
        batch_global: false,
        async_depth: 1,
    }
}

/// One flush cycle of a fresh fixture; returns the virtual cycle duration.
fn virtual_cycle(batch_pages: usize) -> u64 {
    let (mut pool, mut backend) = fixture();
    let mut flushers = FlusherPool::new(flusher_config(batch_pages));
    flushers.run_cycle(&mut pool, &mut backend, 0).unwrap()
}

/// Two interleaved flush cycles with complementary die skew (cycle 1 dirties
/// dies 0..4, cycle 2 dies 4..8), both on the PR 2 batched write path.
/// `async_depth` 1 is the synchronous driver (cycle 2 waits for cycle 1's
/// completion barrier); deeper windows submit cycle 2 while cycle 1 is still
/// programming, so the disjoint die sets overlap on the per-die queues.
/// Returns the virtual completion time of both cycles.
fn interleaved_cycles_virtual(async_depth: usize) -> u64 {
    let geometry = FlashGeometry::with_dies(DIES, 1024, 32, 4096);
    let noftl = NoFtl::new(NoFtlConfig::new(geometry));
    let mut backend = NoFtlBackend::new(noftl);
    backend.set_async_depth(async_depth);
    let mut pool = BufferPool::new(256, 4096);
    let mut cfg = flusher_config(64);
    cfg.async_depth = async_depth;
    let mut flushers = FlusherPool::new(cfg);
    let dirty_half = |pool: &mut BufferPool, backend: &mut NoFtlBackend, dies: std::ops::Range<u64>| {
        for die in dies {
            for i in 0..PAGES_PER_DIE {
                let lpn = die + i * DIES as u64;
                pool.new_page(backend, 0, lpn, |d| d[0] = lpn as u8).unwrap();
            }
        }
    };
    dirty_half(&mut pool, &mut backend, 0..(DIES as u64 / 2));
    let t = flushers.run_cycle(&mut pool, &mut backend, 0).unwrap();
    dirty_half(&mut pool, &mut backend, (DIES as u64 / 2)..DIES as u64);
    let t = flushers.run_cycle(&mut pool, &mut backend, t).unwrap();
    flushers.drain(t).max(backend.drain(t))
}

fn bench_flusher_batch(c: &mut Criterion) {
    // Headline: virtual cycle time, per-page vs batched, on a multi-die
    // dirty pool (8 dies x 8 pages/die, 2 die-wise writers).
    let per_page = virtual_cycle(0);
    let batched = virtual_cycle(64);
    println!(
        "FLUSHER_BATCH_VIRTUAL dies={DIES} pages_per_die={PAGES_PER_DIE} writers={WRITERS} \
         per_page_ns={per_page} batched_ns={batched} speedup={:.2}",
        per_page as f64 / batched as f64
    );

    // PR 3 headline: two interleaved flush cycles, PR 2 sync batched dispatch
    // vs the asynchronous per-die command queues.
    let sync = interleaved_cycles_virtual(1);
    let asynchronous = interleaved_cycles_virtual(8);
    println!(
        "FLUSHER_ASYNC_VIRTUAL dies={DIES} pages_per_die={PAGES_PER_DIE} writers={WRITERS} \
         cycles=2 sync_ns={sync} async_ns={asynchronous} speedup={:.2}",
        sync as f64 / asynchronous as f64
    );

    // PR 3: one 32-page WAL force in 3-page die-striped groups, sync chained
    // vs pipelined through the in-flight window.
    let wal_sync = wal_force_virtual(1);
    let wal_async = wal_force_virtual(8);
    println!(
        "WAL_ASYNC_VIRTUAL dies={DIES} tail_pages=32 group_pages=3 \
         sync_ns={wal_sync} async_ns={wal_async} speedup={:.2}",
        wal_sync as f64 / wal_async as f64
    );

    c.bench_function("flusher/cycle_per_page_8die", |b| {
        let (mut pool, mut backend) = fixture();
        let mut flushers = FlusherPool::new(flusher_config(0));
        b.iter(|| {
            for p in 0..(DIES as u64 * PAGES_PER_DIE) {
                pool.new_page(&mut backend, 0, p, |d| d[0] = p as u8).unwrap();
            }
            black_box(flushers.run_cycle(&mut pool, &mut backend, 0).unwrap())
        })
    });

    c.bench_function("flusher/cycle_batched_8die", |b| {
        let (mut pool, mut backend) = fixture();
        let mut flushers = FlusherPool::new(flusher_config(64));
        b.iter(|| {
            for p in 0..(DIES as u64 * PAGES_PER_DIE) {
                pool.new_page(&mut backend, 0, p, |d| d[0] = p as u8).unwrap();
            }
            black_box(flushers.run_cycle(&mut pool, &mut backend, 0).unwrap())
        })
    });

    // Host-side cost of the interleaved two-cycle scenario, sync vs async
    // submission (the virtual-time headline is printed above).
    c.bench_function("flusher/interleaved_2cycles_sync", |b| {
        b.iter(|| black_box(interleaved_cycles_virtual(1)))
    });
    c.bench_function("flusher/interleaved_2cycles_async8", |b| {
        b.iter(|| black_box(interleaved_cycles_virtual(8)))
    });

    // WAL group commit: force a 16-page tail, sequential vs batched.
    c.bench_function("wal/force_16page_tail_per_page", |b| {
        bench_wal_force(b, 0)
    });
    c.bench_function("wal/force_16page_tail_batched", |b| {
        bench_wal_force(b, 64)
    });
}

/// One 32-page WAL force in 3-page groups over the 8-die backend; returns
/// the virtual completion time (`async_depth` 1 = synchronous chaining).
fn wal_force_virtual(async_depth: usize) -> u64 {
    use storage_engine::{LogRecord, WalManager};
    let geometry = FlashGeometry::with_dies(DIES, 1024, 32, 4096);
    let noftl = NoFtl::new(NoFtlConfig::new(geometry));
    let mut backend = NoFtlBackend::new(noftl);
    backend.set_async_depth(async_depth);
    let mut wal = WalManager::new(0, 64, 4096);
    wal.set_batch_pages(3);
    wal.set_async_depth(async_depth);
    for txn in 0..32u64 {
        wal.append(LogRecord::Update {
            txn,
            page: txn,
            slot: 0,
            bytes: &[txn as u8; 4000],
        });
    }
    let t = wal.flush(&mut backend, 0).unwrap();
    backend.drain(wal.drain(t))
}

fn bench_wal_force(b: &mut criterion::Bencher, batch_pages: usize) {
    use storage_engine::{LogRecord, WalManager};
    let geometry = FlashGeometry::with_dies(DIES, 1024, 32, 4096);
    let noftl = NoFtl::new(NoFtlConfig::new(geometry));
    let mut backend = NoFtlBackend::new(noftl);
    let mut wal = WalManager::new(1000, 4096, 4096);
    wal.set_batch_pages(batch_pages);
    let payload = vec![7u8; 1024];
    b.iter(|| {
        for txn in 0..60u64 {
            wal.append(LogRecord::Update {
                txn,
                page: txn,
                slot: 0,
                bytes: &payload,
            });
        }
        black_box(wal.flush(&mut backend, 0).unwrap())
    })
}

criterion_group!(benches, bench_flusher_batch);
criterion_main!(benches);

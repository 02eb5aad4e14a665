//! Microbenchmarks of the storage-engine substrate: buffer pool accesses,
//! B+-tree lookups and flusher partitioning.

use criterion::{criterion_group, criterion_main, Criterion};
use noftl_core::FlusherAssignment;
use sim_utils::rng::SimRng;
use std::hint::black_box;
use storage_engine::{
    backend::MemBackend,
    btree::BTree,
    buffer::BufferPool,
    flusher::{FlusherConfig, FlusherPool},
    free_space::FreeSpaceManager,
    shard::ShardedBufferPool,
};

fn bench_buffer(c: &mut Criterion) {
    c.bench_function("buffer/hit_path", |b| {
        let mut pool = BufferPool::new(256, 4096);
        let mut backend = MemBackend::new(4096, 4096);
        for p in 0..256u64 {
            pool.new_page(&mut backend, 0, p, |d| d[0] = p as u8).unwrap();
        }
        let mut rng = SimRng::new(1);
        b.iter(|| {
            let p = rng.range(0, 256);
            let (v, _) = pool.with_page(&mut backend, 0, p, |d| d[0]).unwrap();
            black_box(v)
        })
    });

    c.bench_function("buffer/miss_evict_path", |b| {
        let mut pool = BufferPool::new(64, 4096);
        let mut backend = MemBackend::new(4096, 8192);
        let mut rng = SimRng::new(2);
        b.iter(|| {
            let p = rng.range(0, 8192);
            let (v, _) = pool.with_page(&mut backend, 0, p, |d| d[0]).unwrap();
            black_box(v)
        })
    });

    c.bench_function("btree/point_lookup", |b| {
        let mut pool = ShardedBufferPool::new(1, 512, 4096);
        let mut backend = MemBackend::new(4096, 16384);
        let mut fsm = FreeSpaceManager::new(0, 16000);
        let (mut tree, _) = BTree::create(&mut pool, &mut backend, &mut fsm, 0).unwrap();
        for k in 0..50_000u64 {
            tree.insert(&mut pool, &mut backend, &mut fsm, 0, k, k).unwrap();
        }
        let mut rng = SimRng::new(3);
        b.iter(|| {
            let k = rng.range(0, 50_000);
            let (v, _) = tree.get(&mut pool, &mut backend, 0, k).unwrap();
            black_box(v)
        })
    });

    // The flusher-tick query: every db-writer wakeup asks for the dirty
    // fraction and the dirty page list of a large pool.
    c.bench_function("buffer/dirty_count_tick", |b| {
        let mut pool = BufferPool::new(4096, 512);
        let mut backend = MemBackend::new(512, 8192);
        for p in 0..4096u64 {
            if p % 2 == 0 {
                pool.new_page(&mut backend, 0, p, |d| d[0] = 1).unwrap();
            } else {
                pool.with_page(&mut backend, 0, p, |_| ()).unwrap();
            }
        }
        b.iter(|| black_box((pool.dirty_count(), pool.dirty_fraction())))
    });

    c.bench_function("buffer/dirty_pages_collect", |b| {
        let mut pool = BufferPool::new(4096, 512);
        let mut backend = MemBackend::new(512, 8192);
        for p in 0..4096u64 {
            if p % 8 == 0 {
                pool.new_page(&mut backend, 0, p, |d| d[0] = 1).unwrap();
            } else {
                pool.with_page(&mut backend, 0, p, |_| ()).unwrap();
            }
        }
        b.iter(|| black_box(pool.dirty_pages().count()))
    });

    // Repeated new_page on resident pages (fresh-page allocation reuse).
    c.bench_function("buffer/new_page_resident", |b| {
        let mut pool = BufferPool::new(256, 4096);
        let mut backend = MemBackend::new(4096, 4096);
        let mut rng = SimRng::new(9);
        b.iter(|| {
            let p = rng.range(0, 256);
            let (v, _) = pool.new_page(&mut backend, 0, p, |d| d[0]).unwrap();
            black_box(v)
        })
    });

    c.bench_function("flusher/partition_die_wise_vs_global", |b| {
        let backend = MemBackend::new(4096, 65536);
        let mut dirty: Vec<u64> = (0..4096).collect();
        let mut die_wise = FlusherPool::new(FlusherConfig {
            writers: 8,
            assignment: FlusherAssignment::DieWise,
            dirty_high_watermark: 0.5,
            dirty_low_watermark: 0.1,
            batch_pages: 0,
            batch_global: false,
            async_depth: 1,
        });
        let mut global = FlusherPool::new(FlusherConfig::global(8));
        b.iter(|| {
            let a = die_wise.partition(&backend, &mut dirty).len();
            let b2 = global.partition(&backend, &mut dirty).len();
            black_box((a, b2))
        })
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_buffer
}
criterion_main!(benches);

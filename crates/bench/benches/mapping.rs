//! Microbenchmarks of the address-translation layers: the page-level table
//! (one structure — NoFTL's host-resident `HostMappingTable` and the FTLs'
//! `PageMap` are the same `sim_utils::PageTable`) and the DFTL cached mapping
//! table.

use criterion::{criterion_group, criterion_main, Criterion};
use ftl::mapping::{CmtEntry, LruCache};
use nand_flash::FlashGeometry;
use noftl_core::mapping::HostMappingTable;
use noftl_core::regions::{RegionManager, StripingMode};
use sim_utils::rng::SimRng;
use std::hint::black_box;

fn bench_mapping(c: &mut Criterion) {
    let n: u64 = 100_000;

    c.bench_function("mapping/host_table_update_lookup", |b| {
        let mut table = HostMappingTable::new(n);
        let mut rng = SimRng::new(1);
        b.iter(|| {
            let lpn = rng.range(0, n);
            table.update(lpn, lpn * 2);
            black_box(table.get(lpn))
        })
    });

    c.bench_function("mapping/dftl_cmt_hit", |b| {
        let mut cmt = LruCache::new(4096);
        for lpn in 0..4096u64 {
            cmt.insert(lpn, CmtEntry { ppa: lpn, dirty: false });
        }
        let mut rng = SimRng::new(3);
        b.iter(|| {
            let lpn = rng.range(0, 4096);
            black_box(cmt.get(lpn))
        })
    });

    c.bench_function("mapping/dftl_cmt_miss_evict", |b| {
        let mut cmt = LruCache::new(1024);
        let mut rng = SimRng::new(4);
        b.iter(|| {
            let lpn = rng.range(0, n);
            black_box(cmt.insert(lpn, CmtEntry { ppa: lpn, dirty: true }))
        })
    });

    // GC's inner loop: physical page -> logical page resolution.
    c.bench_function("mapping/host_table_reverse_lookup", |b| {
        let mut table = HostMappingTable::new(n);
        for lpn in 0..n {
            table.update(lpn, n * 2 - lpn);
        }
        let mut rng = SimRng::new(5);
        b.iter(|| {
            let ppa = n + 1 + rng.range(0, n - 1);
            black_box(table.reverse(ppa))
        })
    });
}

fn bench_regions(c: &mut Criterion) {
    // Physical-placement resolution, once per GC page copy and per
    // flusher partition decision.
    c.bench_function("region/region_of_die", |b| {
        let g = FlashGeometry::with_dies(32, 256, 64, 4096);
        let rm = RegionManager::new(g, StripingMode::DieWise);
        let dies: Vec<_> = (0..g.total_dies() as u64)
            .map(|f| nand_flash::DieAddr::from_flat(&g, f))
            .collect();
        let mut rng = SimRng::new(7);
        b.iter(|| {
            let die = dies[rng.range(0, dies.len() as u64) as usize];
            black_box(rm.region_of_die(die))
        })
    });

    // Steady-state page allocation with block recycling: the per-write hot
    // path of NoFtl::write_in_region (die-wise: one die per region).
    c.bench_function("region/allocate_page_die_wise", |b| {
        let g = FlashGeometry::with_dies(8, 512, 32, 4096);
        let mut rm = RegionManager::new(g, StripingMode::DieWise);
        let ppb = g.pages_per_block;
        let mut region = 0usize;
        b.iter(|| {
            let ppa = rm.allocate_page_in(region).unwrap();
            if ppa.page == ppb - 1 {
                rm.release_block(ppa.block_addr());
                region = (region + 1) % rm.regions();
            }
            black_box(ppa)
        })
    });

    // Same, with multi-die regions: exercises the round-robin die selection
    // when an active block finishes.
    c.bench_function("region/allocate_page_channel_wise", |b| {
        let g = FlashGeometry::with_dies(16, 256, 32, 4096);
        let mut rm = RegionManager::new(g, StripingMode::ChannelWise);
        let ppb = g.pages_per_block;
        let mut region = 0usize;
        b.iter(|| {
            let ppa = rm.allocate_page_in(region).unwrap();
            if ppa.page == ppb - 1 {
                rm.release_block(ppa.block_addr());
                region = (region + 1) % rm.regions();
            }
            black_box(ppa)
        })
    });

    // Region-manager construction (free-list build over every block).
    c.bench_function("region/manager_new", |b| {
        let g = FlashGeometry::with_dies(16, 1024, 64, 4096);
        b.iter(|| black_box(RegionManager::new(g, StripingMode::DieWise).regions()))
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(30);
    targets = bench_mapping, bench_regions
}
criterion_main!(benches);

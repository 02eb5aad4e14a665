//! Property-based tests of the NAND device model: address round-trips for
//! arbitrary geometries, state-machine invariants of program/erase/copyback,
//! and conservation of per-block page counts.

use nand_flash::{
    BlockAddr, DeviceConfig, FlashGeometry, NandDevice, NandType, NativeFlashInterface, Oob,
    PageState, Ppa,
};
use sim_utils::rng::SimRng;

/// A geometry of 1..4 channels, 1..4 dies per channel, 1..3 planes and
/// 2..12 blocks of 2..12 pages.
fn geometry(rng: &mut SimRng) -> FlashGeometry {
    FlashGeometry {
        channels: rng.range(1, 4) as u32,
        dies_per_channel: rng.range(1, 4) as u32,
        planes_per_die: rng.range(1, 3) as u32,
        blocks_per_plane: rng.range(2, 12) as u32,
        pages_per_block: rng.range(2, 12) as u32,
        page_size: 512,
        oob_size: 16,
        nand_type: NandType::Slc,
    }
}

#[test]
fn flat_addressing_roundtrips_for_any_geometry() {
    for case in 0..64 {
        let mut rng = SimRng::new(case);
        let g = geometry(&mut rng);
        for flat in 0..g.total_pages() {
            let ppa = Ppa::from_flat(&g, flat);
            assert!(ppa.is_valid(&g));
            assert_eq!(ppa.flat(&g), flat);
        }
        for flat in 0..g.total_blocks() {
            let b = BlockAddr::from_flat(&g, flat);
            assert!(b.is_valid(&g));
            assert_eq!(b.flat(&g), flat);
        }
    }
}

#[test]
fn page_counts_are_conserved() {
    for case in 0..64 {
        let mut rng = SimRng::new(case);
        let g = geometry(&mut rng);
        let n = rng.range(1, 200);
        let ops: Vec<(u64, u64)> = (0..n).map(|_| (rng.range(0, 64), rng.range(0, 3))).collect();
        // Apply an arbitrary sequence of program/invalidate/erase operations
        // and check that valid + invalid + free always equals pages_per_block.
        let mut dev = NandDevice::new(DeviceConfig::metadata_only(g));
        let data = vec![0u8; g.page_size as usize];
        for (raw, op) in ops {
            let block_flat = raw % g.total_blocks();
            let addr = BlockAddr::from_flat(&g, block_flat);
            match op {
                0 => {
                    // Program the next free page, if any.
                    let info = dev.block_info(addr).unwrap();
                    if info.next_program_page < g.pages_per_block {
                        let ppa = addr.page(info.next_program_page);
                        dev.program_page(0, ppa, &data, Oob::data(raw, 0)).unwrap();
                    }
                }
                1 => {
                    // Invalidate the first valid page, if any.
                    for p in 0..g.pages_per_block {
                        if dev.page_state(addr.page(p)).unwrap() == PageState::Valid {
                            dev.invalidate_page(addr.page(p)).unwrap();
                            break;
                        }
                    }
                }
                _ => {
                    dev.erase_block(0, addr).unwrap();
                }
            }
            let info = dev.block_info(addr).unwrap();
            assert_eq!(
                info.valid_pages + info.invalid_pages + info.free_pages,
                g.pages_per_block
            );
        }
    }
}

#[test]
fn programmed_data_survives_until_erase() {
    for case in 0..64 {
        let mut rng = SimRng::new(case);
        let n = rng.range(1, 8);
        let writes: Vec<u8> = (0..n).map(|_| rng.next_u64() as u8).collect();
        let g = FlashGeometry::tiny();
        let mut dev = NandDevice::with_geometry(g);
        let block = BlockAddr::new(0, 0, 0, 0);
        let mut expected = Vec::new();
        for (i, byte) in writes.iter().enumerate() {
            let data = vec![*byte; g.page_size as usize];
            dev.program_page(0, block.page(i as u32), &data, Oob::data(i as u64, 0)).unwrap();
            expected.push(*byte);
        }
        let mut buf = vec![0u8; g.page_size as usize];
        for (i, byte) in expected.iter().enumerate() {
            dev.read_page(0, block.page(i as u32), &mut buf).unwrap();
            assert!(buf.iter().all(|b| b == byte));
        }
        dev.erase_block(0, block).unwrap();
        for i in 0..expected.len() {
            assert!(dev.read_page(0, block.page(i as u32), &mut buf).is_err());
        }
    }
}

#[test]
fn completion_times_never_precede_issue() {
    for case in 0..64 {
        let mut rng = SimRng::new(case);
        let n = rng.range(1, 50);
        let issue_times: Vec<u64> = (0..n).map(|_| rng.range(0, 1_000_000)).collect();
        let g = FlashGeometry::small();
        let mut dev = NandDevice::with_geometry(g);
        let data = vec![1u8; g.page_size as usize];
        let mut flat = 0u64;
        for now in issue_times {
            let ppa = Ppa::from_flat(&g, flat % g.total_pages());
            // Some programs fail (non-sequential) — only check timing on success.
            if let Ok(c) = dev.program_page(now, ppa, &data, Oob::data(flat, 0)) {
                assert!(c.started_at >= now);
                assert!(c.completed_at > c.started_at);
            }
            flat += g.pages_per_block as u64; // first page of successive blocks
        }
    }
}

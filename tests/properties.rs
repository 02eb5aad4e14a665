//! Property-based tests on the core invariants of the Flash-management
//! layers: read-your-writes for every scheme, no lost updates across GC,
//! B+-tree and slotted-page equivalence to a model.

use noftl::ftl::dftl::{Dftl, DftlConfig};
use noftl::ftl::faster::FasterFtl;
use noftl::ftl::page_ftl::{PageFtl, PageFtlConfig};
use noftl::ftl::Ftl;
use noftl::nand_flash::FlashGeometry;
use noftl::noftl_core::{NoFtl, NoFtlConfig};
use noftl::sim_utils::rng::SimRng;
use noftl::storage_engine::page::SlottedPage;

/// An abstract workload step applied to a logical-page store.
#[derive(Debug, Clone)]
enum Step {
    Write(u64, u8),
    Trim(u64),
    Read(u64),
}

/// 1..200 steps over `lpns` pages, writes, trims and reads weighted 3 : 1 : 2.
fn steps(rng: &mut SimRng, lpns: u64) -> Vec<Step> {
    let n = rng.range(1, 200);
    (0..n)
        .map(|_| {
            let l = rng.range(0, lpns);
            match rng.range(0, 6) {
                0..=2 => Step::Write(l, rng.next_u64() as u8),
                3 => Step::Trim(l),
                _ => Step::Read(l),
            }
        })
        .collect()
}

/// Apply the steps to an implementation and to a simple model, checking that
/// every read agrees with the model.
fn check_against_model<F>(steps: &[Step], page_size: usize, mut write: F)
where
    F: FnMut(&Step) -> Option<Option<u8>>,
{
    let mut model: std::collections::HashMap<u64, u8> = std::collections::HashMap::new();
    for step in steps {
        match step {
            Step::Write(l, b) => {
                model.insert(*l, *b);
                write(step);
            }
            Step::Trim(l) => {
                model.remove(l);
                write(step);
            }
            Step::Read(l) => {
                let got = write(step).expect("read step must return a value");
                assert_eq!(
                    got,
                    model.get(l).copied(),
                    "read of lpn {l} disagrees with model (page_size {page_size})"
                );
            }
        }
    }
}

fn run_steps_on_ftl(ftl: &mut dyn Ftl, steps: &[Step]) {
    let page_size = 512usize;
    let lpns = ftl.logical_pages();
    let mut now = 0;
    let mut buf = vec![0u8; page_size];
    check_against_model(steps, page_size, |step| match step {
        Step::Write(l, b) => {
            let data = vec![*b; page_size];
            now = ftl.write(now, l % lpns, &data).unwrap().completed_at;
            None
        }
        Step::Trim(l) => {
            ftl.trim(now, l % lpns).unwrap();
            None
        }
        Step::Read(l) => match ftl.read(now, l % lpns, &mut buf) {
            Ok(c) => {
                now = c.completed_at;
                Some(Some(buf[0]))
            }
            Err(_) => Some(None),
        },
    });
}

/// One step of the slotted-page model test.
#[derive(Debug, Clone)]
enum PageOp {
    Insert(Vec<u8>),
    Update(usize, Vec<u8>),
    Delete(usize),
    Compact,
}

/// A record of 0..120 random bytes.
fn record(rng: &mut SimRng) -> Vec<u8> {
    let n = rng.range(0, 120);
    (0..n).map(|_| rng.next_u64() as u8).collect()
}

/// 1..120 page operations: inserts, updates, deletes and compactions
/// weighted 4 : 3 : 2 : 1.
fn page_ops(rng: &mut SimRng) -> Vec<PageOp> {
    let n = rng.range(1, 120);
    (0..n)
        .map(|_| match rng.range(0, 10) {
            0..=3 => PageOp::Insert(record(rng)),
            4..=6 => PageOp::Update(rng.range_usize(0, 64), record(rng)),
            7 | 8 => PageOp::Delete(rng.range_usize(0, 64)),
            _ => PageOp::Compact,
        })
        .collect()
}

fn tiny_geometry() -> FlashGeometry {
    FlashGeometry {
        channels: 1,
        dies_per_channel: 2,
        planes_per_die: 1,
        blocks_per_plane: 16,
        pages_per_block: 8,
        page_size: 512,
        oob_size: 16,
        nand_type: noftl::nand_flash::NandType::Slc,
    }
}

#[test]
fn page_ftl_never_loses_updates() {
    for case in 0..24 {
        let mut rng = SimRng::new(case);
        let steps = steps(&mut rng, 40);
        let mut cfg = PageFtlConfig::new(tiny_geometry());
        cfg.op_ratio = 0.3;
        let mut ftl = PageFtl::new(cfg);
        run_steps_on_ftl(&mut ftl, &steps);
    }
}

#[test]
fn dftl_never_loses_updates() {
    for case in 0..24 {
        let mut rng = SimRng::new(case);
        let steps = steps(&mut rng, 40);
        let mut cfg = DftlConfig::new(tiny_geometry());
        cfg.op_ratio = 0.3;
        cfg.cmt_entries = 8; // tiny cache => constant evictions
        let mut ftl = Dftl::new(cfg);
        run_steps_on_ftl(&mut ftl, &steps);
    }
}

#[test]
fn faster_never_loses_updates() {
    for case in 0..24 {
        let mut rng = SimRng::new(case);
        let steps = steps(&mut rng, 40);
        let mut ftl = FasterFtl::with_geometry(tiny_geometry());
        run_steps_on_ftl(&mut ftl, &steps);
    }
}

#[test]
fn noftl_never_loses_updates() {
    for case in 0..24 {
        let mut rng = SimRng::new(case);
        let steps = steps(&mut rng, 40);
        let mut cfg = NoFtlConfig::new(tiny_geometry());
        cfg.op_ratio = 0.3;
        let mut noftl = NoFtl::new(cfg);
        let page_size = 512usize;
        let lpns = noftl.logical_pages();
        let mut now = 0;
        let mut buf = vec![0u8; page_size];
        check_against_model(&steps, page_size, |step| match step {
            Step::Write(l, b) => {
                let data = vec![*b; page_size];
                now = noftl.write(now, l % lpns, &data).unwrap().completed_at;
                None
            }
            Step::Trim(l) => {
                noftl.mark_dead(l % lpns).unwrap();
                None
            }
            Step::Read(l) => match noftl.read(now, l % lpns, &mut buf) {
                Ok(c) => {
                    now = c.completed_at;
                    Some(Some(buf[0]))
                }
                Err(_) => Some(None),
            },
        });
    }
}

#[test]
fn slotted_page_matches_model() {
    for case in 0..24 {
        let mut rng = SimRng::new(case);
        let ops = page_ops(&mut rng);
        // Model: the slot directory as `Option<record>` per slot, plus the
        // bytes taken at the back of the page (dead records included until a
        // compaction).  `fits` must be exactly header + directory + payload
        // arithmetic, and a refused operation must leave the bytes untouched.
        const SIZE: usize = 512;
        let mut page = SlottedPage::new(7, SIZE);
        let mut slots: Vec<Option<Vec<u8>>> = Vec::new();
        let mut payload = 0usize;
        let live = |slots: &[Option<Vec<u8>>]| slots.iter().flatten().map(Vec::len).sum::<usize>();
        let room = |n: usize, payload: usize, len: usize| SIZE.saturating_sub(32 + 4 * n + payload) >= len + 4;
        for op in ops {
            let before = page.clone();
            let refused = match op {
                PageOp::Insert(r) => {
                    let fits = room(slots.len(), payload, r.len());
                    assert_eq!(page.fits(r.len()), fits);
                    assert_eq!(page.insert(&r), fits.then_some(slots.len() as u16));
                    if fits {
                        payload += r.len();
                        slots.push(Some(r));
                    }
                    !fits
                }
                PageOp::Update(i, r) => {
                    let i = i % (slots.len() + 1);
                    let old_len = slots.get(i).and_then(|s| s.as_ref()).map(Vec::len);
                    let expect = match old_len {
                        None => None,
                        Some(old) if r.len() <= old => Some(i),
                        // A grow is delete + compact + insert, judged up front.
                        Some(old) => room(slots.len(), live(&slots) - old, r.len()).then_some(slots.len()),
                    };
                    assert_eq!(page.update(i as u16, &r), expect.map(|s| s as u16));
                    match expect {
                        Some(s) if s == i => slots[i] = Some(r),
                        Some(_) => {
                            slots[i] = None;
                            payload = live(&slots) + r.len();
                            slots.push(Some(r));
                        }
                        None => {}
                    }
                    expect.is_none()
                }
                PageOp::Delete(i) => {
                    let i = i % (slots.len() + 1);
                    let was_live = slots.get(i).is_some_and(|s| s.is_some());
                    assert_eq!(page.delete(i as u16), was_live);
                    if was_live {
                        slots[i] = None;
                    }
                    !was_live
                }
                PageOp::Compact => {
                    page.compact();
                    payload = live(&slots);
                    false
                }
            };
            assert!(!refused || page == before, "a refused operation changed the page");
            assert_eq!(page.slot_count(), slots.len());
            assert_eq!(page.used_space(), 32 + 4 * slots.len() + payload);
            assert_eq!(page.record_count(), slots.iter().flatten().count());
            for (i, expected) in slots.iter().enumerate() {
                assert_eq!(page.get(i as u16), expected.as_deref());
            }
            assert!(page.get(slots.len() as u16).is_none());
            let listed: Vec<(u16, &[u8])> = page.iter().collect();
            let expected: Vec<(u16, &[u8])> = slots.iter().enumerate()
                .filter_map(|(i, s)| s.as_deref().map(|r| (i as u16, r))).collect();
            assert_eq!(listed, expected);
        }
        // The image is the page: a view over a copy of the bytes reads the same.
        let frame = page.as_bytes().to_vec();
        assert_eq!(frame.len(), SIZE);
        let view = SlottedPage::from_bytes(&frame[..]);
        for (i, expected) in slots.iter().enumerate() {
            assert_eq!(view.get(i as u16), expected.as_deref());
        }
    }
}

#[test]
fn erase_counts_only_grow() {
    for case in 0..24 {
        let mut rng = SimRng::new(case);
        let n = rng.range(50, 300);
        let writes: Vec<u64> = (0..n).map(|_| rng.range(0, 60)).collect();
        // Wear (erase counts) must be monotonically non-decreasing no matter
        // the write pattern.
        use noftl::nand_flash::NativeFlashInterface;
        let mut cfg = PageFtlConfig::new(tiny_geometry());
        cfg.op_ratio = 0.3;
        let mut ftl = PageFtl::new(cfg);
        let lpns = ftl.logical_pages();
        let page = vec![1u8; 512];
        let mut last_erases = 0;
        let mut now = 0;
        for w in writes {
            now = ftl.write(now, w % lpns, &page).unwrap().completed_at;
            let erases = ftl.device().stats().erases;
            assert!(erases >= last_erases);
            last_erases = erases;
        }
    }
}

#[test]
fn btree_matches_btreemap() {
    use noftl::storage_engine::{backend::MemBackend, btree::BTree, free_space::FreeSpaceManager, shard::ShardedBufferPool};
    for case in 0..12 {
        let mut rng = SimRng::new(case);
        let n = rng.range(1, 400);
        let ops: Vec<(u64, u64, bool)> =
            (0..n).map(|_| (rng.range(0, 500), rng.next_u64(), rng.range(0, 2) == 1)).collect();
        let mut pool = ShardedBufferPool::new(1, 64, 4096);
        let mut backend = MemBackend::new(4096, 8192);
        let mut fsm = FreeSpaceManager::new(0, 8000);
        let (mut tree, _) = BTree::create(&mut pool, &mut backend, &mut fsm, 0).unwrap();
        let mut model = std::collections::BTreeMap::new();
        for (key, value, remove) in ops {
            if remove {
                let expected = model.remove(&key);
                let (got, _) = tree.remove(&mut pool, &mut backend, 0, key).unwrap();
                assert_eq!(got, expected);
            } else {
                let expected = model.insert(key, value);
                let (got, _) = tree.insert(&mut pool, &mut backend, &mut fsm, 0, key, value).unwrap();
                assert_eq!(got, expected);
            }
        }
        assert_eq!(tree.len() as usize, model.len());
        for (&k, &v) in &model {
            let (got, _) = tree.get(&mut pool, &mut backend, 0, k).unwrap();
            assert_eq!(got, Some(v));
        }
        // Ordered iteration agrees with the model.
        let mut scanned = Vec::new();
        tree.range(&mut pool, &mut backend, 0, 0, u64::MAX, |k, v| scanned.push((k, v))).unwrap();
        let expected: Vec<(u64, u64)> = model.iter().map(|(&k, &v)| (k, v)).collect();
        assert_eq!(scanned, expected);
    }
}

//! Integration tests spanning the whole stack: storage engine → backend →
//! (FTL / NoFTL) → NAND device, for every storage stack of Figure 1.

use noftl::flash_emulator::{EmulatedSsd, HostLink};
use noftl::ftl::dftl::{Dftl, DftlConfig};
use noftl::ftl::faster::{FasterConfig, FasterFtl};
use noftl::ftl::page_ftl::PageFtl;
use noftl::nand_flash::FlashGeometry;
use noftl::noftl_core::{NoFtl, NoFtlConfig};
use noftl::storage_engine::{
    backend::{BlockDeviceBackend, MemBackend, NoFtlBackend},
    EngineConfig, FlusherConfig, StorageEngine,
};

fn engine_config() -> EngineConfig {
    let mut cfg = EngineConfig::new();
    cfg.buffer_frames = 128;
    cfg.flushers = FlusherConfig::global(4);
    cfg
}

fn engines_under_test() -> Vec<(String, StorageEngine)> {
    let geometry = FlashGeometry::small();
    vec![
        (
            "noftl".to_string(),
            StorageEngine::new(
                Box::new(NoFtlBackend::new(NoFtl::new(NoFtlConfig::new(geometry)))),
                engine_config(),
            ),
        ),
        (
            "ftl-faster".to_string(),
            StorageEngine::new(
                Box::new(BlockDeviceBackend::new(
                    EmulatedSsd::new(FasterFtl::new(FasterConfig::new(geometry)), HostLink::sata2()),
                    "ftl-faster",
                )),
                engine_config(),
            ),
        ),
        (
            "ftl-dftl".to_string(),
            StorageEngine::new(
                Box::new(BlockDeviceBackend::new(
                    EmulatedSsd::new(Dftl::new(DftlConfig::new(geometry)), HostLink::sata2()),
                    "ftl-dftl",
                )),
                engine_config(),
            ),
        ),
        (
            "ftl-page".to_string(),
            StorageEngine::new(
                Box::new(BlockDeviceBackend::new(
                    EmulatedSsd::new(PageFtl::with_geometry(geometry), HostLink::native()),
                    "ftl-page",
                )),
                engine_config(),
            ),
        ),
        (
            "mem".to_string(),
            StorageEngine::new(Box::new(MemBackend::new(4096, 8192)), engine_config()),
        ),
    ]
}

#[test]
fn crud_and_index_work_on_every_stack() {
    for (name, mut engine) in engines_under_test() {
        engine.create_table("t");
        engine.create_index("t_pk", 0).unwrap();
        let mut now = 0;
        let mut rids = Vec::new();
        for i in 0..300u64 {
            let txn = engine.begin();
            let row = format!("row-{i}-{}", "x".repeat((i % 50) as usize));
            let (rid, t) = engine.insert("t", txn, now, row.as_bytes()).unwrap();
            let (_, t) = engine
                .index_insert("t_pk", t, i, (rid.page << 16) | rid.slot as u64)
                .unwrap();
            now = engine.commit(txn, t).unwrap();
            now = engine.maybe_flush(now).unwrap();
            rids.push((i, rid, row));
        }
        // Update a third of the rows, delete a tenth.
        let txn = engine.begin();
        for (i, rid, row) in rids.iter_mut() {
            if *i % 3 == 0 {
                *row = format!("updated-{i}");
                let (new_rid, t) = engine.update("t", txn, now, *rid, row.as_bytes()).unwrap();
                *rid = new_rid;
                now = t;
            }
            if *i % 10 == 9 {
                let (_, t) = engine.delete("t", txn, now, *rid).unwrap();
                now = t;
            }
        }
        now = engine.commit(txn, now).unwrap();
        now = engine.checkpoint(now).unwrap();

        // Verify through reads and the index.
        for (i, rid, row) in &rids {
            let (value, t) = engine.read("t", now, *rid).unwrap();
            now = t;
            if *i % 10 == 9 {
                assert!(value.is_none(), "[{name}] row {i} should be deleted");
            } else {
                assert_eq!(
                    value.as_deref(),
                    Some(row.as_bytes()),
                    "[{name}] row {i} content mismatch"
                );
            }
            let (idx, t) = engine.index_get("t_pk", now, *i).unwrap();
            now = t;
            assert!(idx.is_some(), "[{name}] index entry for {i} missing");
        }
        assert!(engine.committed() >= 301, "[{name}] commits missing");
    }
}

#[test]
fn scans_return_every_live_record_on_flash_stacks() {
    for (name, mut engine) in engines_under_test() {
        engine.create_table("scan_me");
        let txn = engine.begin();
        let mut now = 0;
        for i in 0..200u64 {
            let (_, t) = engine
                .insert("scan_me", txn, now, format!("value-{i:04}").as_bytes())
                .unwrap();
            now = t;
        }
        now = engine.commit(txn, now).unwrap();
        now = engine.checkpoint(now).unwrap();
        let mut seen = Vec::new();
        engine
            .scan("scan_me", now, |_, record| {
                seen.push(String::from_utf8_lossy(record).to_string());
            })
            .unwrap();
        assert_eq!(seen.len(), 200, "[{name}] scan missed records");
        seen.sort();
        assert_eq!(seen[0], "value-0000");
        assert_eq!(seen[199], "value-0199");
    }
}

#[test]
fn sustained_updates_exercise_gc_and_preserve_data_on_noftl() {
    // A deliberately small device (2048 physical pages) so repeated update
    // rounds push the write volume past the device capacity and GC must run.
    let geometry = FlashGeometry::with_dies(4, 64, 32, 4096);
    let mut noftl_cfg = NoFtlConfig::new(geometry);
    noftl_cfg.op_ratio = 0.15;
    let mut engine = StorageEngine::new(
        Box::new(NoFtlBackend::new(NoFtl::new(noftl_cfg))),
        engine_config(),
    );
    engine.create_table("hot");
    let mut now = 0;
    let txn = engine.begin();
    let mut rids = Vec::new();
    for i in 0..400u64 {
        let (rid, t) = engine
            .insert("hot", txn, now, vec![i as u8; 900].as_slice())
            .unwrap();
        rids.push(rid);
        now = t;
    }
    now = engine.commit(txn, now).unwrap();
    // Update rounds to generate flash garbage through the flushers.
    for round in 0..20u64 {
        let txn = engine.begin();
        for (i, rid) in rids.iter_mut().enumerate() {
            let (new_rid, t) = engine
                .update("hot", txn, now, *rid, vec![(round + i as u64) as u8; 900].as_slice())
                .unwrap();
            *rid = new_rid;
            now = t;
        }
        now = engine.commit(txn, now).unwrap();
        now = engine.maybe_flush(now).unwrap();
    }
    now = engine.checkpoint(now).unwrap();
    // All rows hold the newest version.
    for (i, rid) in rids.iter().enumerate() {
        let (value, t) = engine.read("hot", now, *rid).unwrap();
        now = t;
        let value = value.expect("row present");
        assert!(value.iter().all(|&b| b == (19 + i as u64) as u8));
    }
    // The device must have performed erases (GC ran) without losing data.
    let counters = engine.backend_counters();
    // The exact cells of this deterministic run: the engine runs the default
    // stack, so a change to one of its defaults (such as the batch size of
    // the WAL and the flushers) moves them.
    assert_eq!(
        (now, counters.host_writes, counters.internal_copies, counters.erases),
        (595_450_840, 3_684, 0, 64)
    );
    assert!(counters.host_writes > 400);
    assert!(counters.erases > 0, "expected GC activity on the NoFTL stack");
}

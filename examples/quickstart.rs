//! Quickstart: build a NoFTL-backed storage engine on emulated native Flash,
//! create a table and an index, run a few transactions and inspect the Flash
//! statistics the DBMS now has first-hand access to.
//!
//! Run with: `cargo run --release --example quickstart`

use noftl::nand_flash::FlashGeometry;
use noftl::noftl_core::{FlusherAssignment, NoFtlConfig};
use noftl::storage_engine::{StackConfig, StorageEngine};

fn main() {
    // 1. Describe the Flash device (what IDENTIFY would report on real
    //    hardware) and build the DBMS-integrated Flash management on top.
    let geometry = FlashGeometry::openssd_like();
    println!(
        "device: {} channels x {} dies, {} pages of {} bytes ({} MiB)",
        geometry.channels,
        geometry.dies_per_channel,
        geometry.total_pages(),
        geometry.page_size,
        geometry.capacity_bytes() >> 20
    );
    // One value carries every stack-wide setting; the stack below is a pure
    // function of it.
    let knobs = StackConfig::default();
    let backend = knobs.noftl_backend(NoFtlConfig::new(geometry));
    println!(
        "noftl: {} logical pages over {} regions (die-wise striping)",
        backend.noftl().logical_pages(),
        backend.noftl().regions()
    );

    // 2. Put the Shore-MT-like storage engine on top, with Flash-aware
    //    db-writers (one per region).
    let mut engine_cfg = knobs.engine();
    engine_cfg.buffer_frames = 1024;
    engine_cfg.flushers = knobs.flushers(FlusherAssignment::DieWise, 8);
    let mut engine = StorageEngine::new(Box::new(backend), engine_cfg);

    // 3. Create a table + index and run a few transactions.
    engine.create_table("accounts");
    engine.create_index("accounts_pk", 0).unwrap();
    let mut now = 0;
    for account in 0..1_000u64 {
        let txn = engine.begin();
        let row = format!("account-{account}:balance=1000");
        let (rid, t) = engine.insert("accounts", txn, now, row.as_bytes()).unwrap();
        let (_, t) = engine
            .index_insert("accounts_pk", t, account, (rid.page << 16) | rid.slot as u64)
            .unwrap();
        now = engine.commit(txn, t).unwrap();
        now = engine.maybe_flush(now).unwrap();
    }
    println!(
        "loaded 1000 accounts in {:.2} virtual ms ({} committed transactions)",
        now as f64 / 1e6,
        engine.committed()
    );

    // 4. Read a few accounts back through the index.
    for account in [0u64, 500, 999] {
        let (packed, t) = engine.index_get("accounts_pk", now, account).unwrap();
        let packed = packed.expect("account indexed");
        let rid = noftl::storage_engine::heap::Rid {
            page: packed >> 16,
            slot: (packed & 0xFFFF) as u16,
        };
        let (row, t2) = engine.read("accounts", t, rid).unwrap();
        now = t2;
        println!(
            "account {account}: {}",
            String::from_utf8_lossy(&row.expect("row present"))
        );
    }

    // 5. The DBMS can see exactly what the Flash did — no black box.
    let counters = engine.backend_counters();
    println!(
        "flash activity: {} host reads, {} host writes, {} GC copies, {} erases",
        counters.host_reads, counters.host_writes, counters.internal_copies, counters.erases
    );
}

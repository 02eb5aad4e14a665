//! Host-resident address translation.
//!
//! §3.1 of the paper: the logical→physical table is "one of the most memory
//! consuming subsystems" of an SSD and on-device RAM cannot hold it at page
//! granularity — but host memory can.  NoFTL therefore keeps the full
//! page-level table in DBMS memory, avoiding both DFTL's translation-page
//! traffic and FASTer's merge overhead.
//!
//! Both directions of the table are *dense arrays*: logical→physical indexed
//! by LPN, physical→logical indexed by flat physical page.  Every update,
//! lookup, and GC reverse resolution is a single array access — no hashing
//! anywhere on the per-page path.
//!
//! ## Reader safety (concurrent engine)
//!
//! The API splits cleanly into `&self` readers ([`HostMappingTable::get`],
//! [`HostMappingTable::reverse`], [`HostMappingTable::mapped`], ...) and
//! `&mut self` writers ([`HostMappingTable::update`],
//! [`HostMappingTable::unmap`]): no interior mutability, no hidden caches on
//! the read path.  The table is `Send + Sync`, so with several clients any
//! number of concurrent readers may share it behind an `RwLock` while device
//! mutation stays single-writer — the concurrent storage engine keeps it
//! (inside the NoFTL backend) behind the backend lock, last in its lock
//! order.

/// The host-resident page table: [`sim_utils::pagetable::PageTable`] — the
/// same structure an on-device page-mapping FTL keeps (`ftl::mapping::PageMap`
/// is the other name of it), held in DBMS memory instead of controller RAM.
pub use sim_utils::pagetable::PageTable as HostMappingTable;

// Reader-safety invariant: the table has no interior mutability, so shared
// references are safe across threads (concurrent readers under an RwLock).
const _: () = {
    fn assert_send_sync<T: Send + Sync>() {}
    let _ = assert_send_sync::<HostMappingTable>;
};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn concurrent_readers_share_the_table_under_a_single_writer() {
        // The multi-client reader-safety contract: N reader threads resolve
        // translations through a shared RwLock while one writer remaps pages
        // between read bursts.  Readers must only ever observe fully-applied
        // states (forward and reverse agree), never a torn update.
        use parking_lot::RwLock;
        use std::sync::Arc;

        let mut t = HostMappingTable::with_physical_pages(256, 1024);
        for lpn in 0..256u64 {
            t.update(lpn, lpn + 512);
        }
        let table = Arc::new(RwLock::new(t));
        let readers: Vec<_> = (0..4)
            .map(|r| {
                let table = Arc::clone(&table);
                std::thread::spawn(move || {
                    for i in 0..2_000u64 {
                        let lpn = (i * 31 + r) % 256;
                        let guard = table.read();
                        let ppa = guard.get(lpn).expect("always mapped");
                        assert_eq!(
                            guard.reverse(ppa),
                            Some(lpn),
                            "reader saw a torn forward/reverse pair"
                        );
                    }
                })
            })
            .collect();
        let writer = {
            let table = Arc::clone(&table);
            std::thread::spawn(move || {
                for i in 0..2_000u64 {
                    let lpn = (i * 17) % 256;
                    let mut guard = table.write();
                    // Relocate like GC would: bounce each page between its
                    // two (collision-free) physical homes, old reverse entry
                    // cleared, both sides updated under one write lock.
                    let cur = guard.get(lpn).expect("always mapped");
                    let fresh = if cur < 768 { lpn + 768 } else { lpn + 512 };
                    guard.update(lpn, fresh);
                }
            })
        };
        for h in readers {
            h.join().unwrap();
        }
        writer.join().unwrap();
        assert_eq!(table.read().mapped(), 256);
    }

}

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
//! The API splits cleanly into `&self` readers ([`HostMappingTable::get`],
//! [`HostMappingTable::reverse`]) and `&mut self` writers
//! ([`HostMappingTable::update`], [`HostMappingTable::unmap`]): no interior
//! mutability, no hidden caches on the read path.

/// The host-resident page table: [`sim_utils::pagetable::PageTable`] — the
/// same structure an on-device page-mapping FTL keeps (`ftl::mapping::PageMap`
/// is the other name of it), held in DBMS memory instead of controller RAM.
pub use sim_utils::pagetable::PageTable as HostMappingTable;

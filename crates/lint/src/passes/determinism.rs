//! `determinism`: no iteration-order-, wall-clock- or scheduler-dependent
//! constructs in simulation crates.
//!
//! The reproduction's headline guarantee is bit-identical figure output for a
//! given seed.  Anything whose behaviour varies run-to-run — hash-ordered
//! containers (`HashMap`/`HashSet` iteration order is randomized per
//! process), wall-clock reads, ambient RNGs, OS threads and the locks they
//! need — silently breaks that, usually in a way no single test catches.
//! Banned in non-test code of every simulation crate; use the deterministic
//! alternatives instead:
//!
//! - `HashMap`/`HashSet`/`RandomState` → `BTreeMap`/`BTreeSet` or
//!   `sim_utils::flatmap::{FlatMap, FlatBitSet}` / `sim_utils::intmap::IntMap`
//!   for dense integer keys
//! - `Instant::now` / `SystemTime` → `sim_utils::time::SimInstant` driven by
//!   the virtual clock
//! - `thread_rng` / `rand::random` → `sim_utils::rng` seeded from workload
//!   config
//! - `std::thread` / `Mutex` / `RwLock` → clients stepped on the virtual
//!   clock by one thread (`workloads::MultiClientDriver`) over an engine
//!   its sessions borrow (`Rc<RefCell<_>>`); under OS threads the host
//!   scheduler would pick the interleaving
//!
//! Escape hatch: `// lint:allow(determinism): <reason>` (reason mandatory).

use super::{scan, Banned};
use crate::diag::Diagnostic;
use crate::source::SourceFile;

/// Pass name used in diagnostics and allow directives.
pub const PASS: &str = "determinism";

/// Crate directories (under `crates/`) that must be sim-deterministic.
pub const SIM_CRATES: &[&str] = &[
    "core",
    "nand-flash",
    "flash-emulator",
    "ftl",
    "storage-engine",
    "sim-utils",
    "workloads",
];

const TABLE: Banned = Banned {
    pass: PASS,
    crates: SIM_CRATES,
    scope: "sim-deterministic",
    tokens: &[
        ("HashMap", "iteration order is randomized per process; use BTreeMap or sim_utils::{flatmap::FlatMap, intmap::IntMap}"),
        ("HashSet", "iteration order is randomized per process; use BTreeSet or sim_utils::flatmap::FlatBitSet"),
        ("RandomState", "per-process hash seeding breaks run-to-run reproducibility"),
        ("Instant::now", "wall-clock reads break virtual-time determinism; use sim_utils::time::SimInstant"),
        ("SystemTime", "wall-clock reads break virtual-time determinism; use sim_utils::time::SimInstant"),
        ("thread_rng", "ambient randomness; use a sim_utils::rng generator seeded from config"),
        ("rand::random", "ambient randomness; use a sim_utils::rng generator seeded from config"),
        ("std::thread", "the host scheduler would pick the interleaving; step clients on the virtual clock"),
        ("Mutex", "a lock lets the host scheduler order operations; share single-threaded state with Rc<RefCell<_>>"),
        ("RwLock", "a lock lets the host scheduler order operations; share single-threaded state with Rc<RefCell<_>>"),
    ],
    // Identifier boundaries on both sides: `SimInstant` must not fire
    // `Instant`, `HashMapExt` must not fire `HashMap`, `MutexGuard` must not
    // fire `Mutex`.
    boundary: |code, at, pat| {
        let id = |c: char| c.is_alphanumeric() || c == '_';
        !code[..at].ends_with(id) && !code[at + pat.len()..].starts_with(id)
    },
};

/// Run the pass over preprocessed sources.
pub fn run(sources: &[SourceFile]) -> Vec<Diagnostic> {
    scan(sources, &TABLE)
}

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
//! One input is banned everywhere, not only in simulation crates: the
//! process environment.  `env::var(` and `env::var_os(` fire in every linted
//! file — test code, `tests/` and `examples/` included.  A stack is the
//! `StackConfig` value its caller states in code; a run that read the
//! environment would assert about whatever stack it happened to get.
//! (`env!` at compile time and `env::args` are not environment reads.)
//!
//! Escape hatch: `// lint:allow(determinism): <reason>` (reason mandatory).

use super::{scan, Banned};
use crate::diag::Diagnostic;
use crate::source::{AllowState, SourceFile};

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

/// Environment reads, banned in every linted file.
const ENV_READS: &[&str] = &["env::var(", "env::var_os("];

/// Run the pass over preprocessed sources.
pub fn run(sources: &[SourceFile]) -> Vec<Diagnostic> {
    let mut out = scan(sources, &TABLE);
    for f in sources {
        for (no, line) in f.numbered() {
            for pat in ENV_READS.iter().filter(|p| line.code.contains(**p)) {
                if f.allow_state(no, PASS) != AllowState::Allowed {
                    let msg = format!(
                        "`{pat}` reads the process environment; state the stack as a StackConfig value"
                    );
                    out.push(Diagnostic::new(&f.rel, no, PASS, msg));
                }
            }
        }
    }
    out
}

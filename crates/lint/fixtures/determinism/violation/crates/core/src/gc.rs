//! Seeded-violation fixture: every banned nondeterminism source in
//! non-test sim-crate code.

use std::collections::HashMap;
use std::collections::HashSet;

struct Tracker {
    hot: HashSet<u64>,
    by_block: HashMap<u64, u32>,
}

fn stamp() -> std::time::Instant {
    std::time::Instant::now()
}

fn wall() -> u64 {
    SystemTime::now().elapsed().unwrap_or_default().as_nanos() as u64
}

fn jitter() -> u64 {
    thread_rng().next_u64()
}

fn spawn_writer() {
    std::thread::spawn(|| ());
}

struct Shared {
    engine: Mutex<Tracker>,
    table: RwLock<Vec<u64>>,
}

fn victim_policy() -> String {
    std::env::var("GC_POLICY").unwrap_or_default()
}

#[cfg(test)]
mod tests {
    #[test]
    fn tests_may_not_read_the_environment_either() {
        assert!(std::env::var_os("GC_POLICY").is_none());
    }
}

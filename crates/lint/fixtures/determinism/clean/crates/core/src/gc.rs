//! Clean fixture: deterministic containers and virtual time only; test
//! code may use hash containers for convenience.

use std::collections::BTreeMap;
use std::collections::BTreeSet;

struct Tracker {
    hot: BTreeSet<u64>,
    by_block: BTreeMap<u64, u32>,
    dead: FlatBitSet,
}

fn tick(now: SimInstant, t: &mut Tracker) -> SimInstant {
    // A string mentioning HashMap is fine; so is this comment about
    // Instant::now and thread_rng.
    let label = "not a real HashMap";
    t.by_block.insert(now.as_nanos(), label.len() as u32);
    now
}

// Identifiers that only contain a banned token are not findings.
fn guards(_: MutexGuard<'_, u64>, _: RwLockReadGuard<'_, u64>) {}

std::thread_local! {
    static SCRATCH: u64 = 0;
}

#[cfg(test)]
mod tests {
    use std::collections::HashMap;

    #[test]
    fn tests_may_hash() {
        let mut m = HashMap::new();
        m.insert(1, 2);
        assert_eq!(m.len(), 1);
    }

    #[test]
    fn tests_may_spawn() {
        let m = std::sync::Mutex::new(0);
        std::thread::scope(|s| s.spawn(|| *m.lock().unwrap() += 1));
    }
}

//! Seeded-violation fixture: closures that re-enter the engine under its
//! lock.

fn stats(engine: &ConcurrentEngine) -> u64 {
    let pages = engine.with_backend(|b| b.num_pages());
    engine.with_backend(|b| {
        let n = b.valid_pages();
        n + engine.committed()
    });
    engine.with_wal(|w| w.records().len() as u64 + engine.inner.lock().len())
}

//! Clean fixture: closures passed to the combinators only touch what they
//! are given.

fn stats(engine: &ConcurrentEngine) -> (usize, u64) {
    let pages = engine.with_backend(|b| b.num_pages());
    let seq = engine.with_wal(|w| w.recovery_start_seq());
    engine.with_backend(|b| {
        let n = b.as_any().and_then(|a| a.downcast_ref::<Device>()).expect("device");
        assert!(n.valid_pages() > 0);
    });
    (pages, seq + engine.committed())
}

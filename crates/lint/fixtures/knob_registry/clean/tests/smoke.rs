//! Clean fixture smoke test: honours the knobs through the single parse
//! point instead of reading the environment itself.

#[test]
fn smoke_honours_the_knobs() {
    let knobs = storage_engine::backend::StackConfig::from_env();
    assert!(knobs.batch || !knobs.batch);
}

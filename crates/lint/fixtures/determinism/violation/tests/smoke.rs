//! An integration test is linted for environment reads too.

#[test]
fn smoke_reads_a_seed() {
    let seed: u64 = std::env::var("SEED").map_or(1, |s| s.parse().unwrap_or(1));
    assert!(seed > 0);
}

//! Compile-time `env!` and the argument list are not environment reads.

use std::path::PathBuf;

#[test]
fn smoke_finds_its_fixtures() {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("fixtures");
    let args: Vec<String> = std::env::args().collect();
    assert!(!args.is_empty() && root.ends_with("fixtures"));
}

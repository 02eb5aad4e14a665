//! Tripwire for the clippy settings that carry the workspace's determinism,
//! environment and panic bans, which CI's Clippy step enforces:
//!
//! - `crates/clippy.toml` bans hash-ordered containers, wall clocks, OS
//!   threads and locks in the crates under `crates/`; the seven simulation
//!   crates exempt their unit tests from the type ban;
//! - `clippy.toml` at the root bans environment reads everywhere else;
//! - `core`, `nand-flash`, `flash-emulator` and `ftl` deny `unwrap`,
//!   `expect`, `panic!`, `unreachable!`, `todo!` and `unimplemented!` in
//!   non-test code;
//! - every simulation crate denies an `allow` without a `reason`.
//!
//! Clippy reads these from `clippy.toml` files and crate attributes, and a
//! deleted file or attribute would drop its bans without any lint firing;
//! this test fails instead.  It reads the files as text and runs no clippy.

use std::fs;
use std::path::PathBuf;

/// Crates under `crates/` whose non-test code must be deterministic.
const SIM_CRATES: &[&str] = &[
    "core",
    "nand-flash",
    "flash-emulator",
    "ftl",
    "storage-engine",
    "sim-utils",
    "workloads",
];

/// Crates that drive the device and must not panic on its errors.
const PANIC_FREE_CRATES: &[&str] = &["core", "nand-flash", "flash-emulator", "ftl"];

const ENV_READS: &[&str] = &["std::env::var", "std::env::var_os"];

const DETERMINISM_TYPES: &[&str] = &[
    "std::collections::HashMap",
    "std::collections::HashSet",
    "std::hash::RandomState",
    "std::time::Instant",
    "std::time::SystemTime",
    "std::sync::Mutex",
    "std::sync::RwLock",
    "parking_lot::Mutex",
    "parking_lot::RwLock",
];

const THREAD_METHODS: &[&str] = &[
    "std::thread::spawn",
    "std::thread::scope",
    "std::thread::Builder::spawn",
];

/// The file at `rel` from the workspace root, with the lines that open with
/// `comment` dropped and all whitespace removed, so a check sees neither
/// prose nor formatting.
fn squashed(rel: &str, comment: &str) -> String {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join(rel);
    let text = fs::read_to_string(&path).unwrap_or_else(|e| panic!("{rel}: {e}"));
    text.lines()
        .filter(|l| !l.trim_start().starts_with(comment))
        .flat_map(|l| l.chars().filter(|c| !c.is_whitespace()))
        .collect()
}

/// Each of `paths` is the `path` of an entry in the `key` list of `toml`.
fn assert_banned(file: &str, key: &str, paths: &[&str]) {
    let toml = squashed(file, "#");
    let list = toml
        .split_once(&format!("{key}=["))
        .map(|(_, rest)| rest.split_once(']').map_or(rest, |(list, _)| list))
        .unwrap_or_else(|| panic!("{file} has no `{key}` list"));
    for p in paths {
        assert!(
            list.contains(&format!("path=\"{p}\"")),
            "{file}: `{key}` lost `{p}`"
        );
    }
}

#[test]
fn root_config_bans_environment_reads() {
    assert_banned("clippy.toml", "disallowed-methods", ENV_READS);
}

#[test]
fn crates_config_bans_every_source_of_nondeterminism() {
    assert_banned("crates/clippy.toml", "disallowed-types", DETERMINISM_TYPES);
    let methods = [ENV_READS, THREAD_METHODS].concat();
    assert_banned("crates/clippy.toml", "disallowed-methods", &methods);
}

#[test]
fn simulation_crates_exempt_their_tests_and_want_a_reason_for_every_allow() {
    for c in SIM_CRATES {
        let lib = squashed(&format!("crates/{c}/src/lib.rs"), "//");
        assert!(
            lib.contains("#![deny(clippy::allow_attributes_without_reason)]"),
            "crates/{c}: reasonless allows are no longer denied"
        );
        assert!(
            lib.contains("#![cfg_attr(test,allow(clippy::disallowed_types,reason="),
            "crates/{c}: the test-only exemption from the type ban is gone"
        );
    }
}

#[test]
fn device_facing_crates_deny_panics_outside_tests() {
    let deny = "#![cfg_attr(not(test),deny(clippy::unwrap_used,clippy::expect_used,\
                clippy::panic,clippy::unreachable,clippy::todo,clippy::unimplemented))]";
    for c in PANIC_FREE_CRATES {
        let lib = squashed(&format!("crates/{c}/src/lib.rs"), "//");
        assert!(
            lib.contains(deny),
            "crates/{c}: the panic-path deny is gone"
        );
    }
}

//! Self-run test: the linter must come up clean on the real workspace, and
//! its latch-order analysis must demonstrably cover the engine lock's
//! acquisition sites — otherwise a "no findings" result proves nothing.
//!
//! Clean includes the knob-registry's single parse point: the environment is
//! read in `StackConfig::from_env` and nowhere else — no other function,
//! crate, test or example.  (Were `from_env` renamed away, its own
//! `env::var` line would be the finding.)

use std::path::PathBuf;

fn workspace_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .expect("workspace root")
}

#[test]
fn real_workspace_is_lint_clean() {
    let report = noftl_lint::run(&workspace_root(), None);
    assert!(
        report.diagnostics.is_empty(),
        "the workspace has lint findings:\n{}",
        report
            .diagnostics
            .iter()
            .map(|d| d.to_string())
            .collect::<Vec<_>>()
            .join("\n")
    );
}

#[test]
fn latch_pass_covers_the_concurrent_engine() {
    let report = noftl_lint::run(&workspace_root(), None);
    let latch = &report.latch;

    // Exactly one lock in the storage engine: the engine lock every session
    // operation takes.  A second `Mutex`/`RwLock` field anywhere in the crate
    // fails here before it can grow an order to get wrong.
    assert_eq!(
        latch.locks.iter().collect::<Vec<_>>(),
        [(&"ConcurrentEngine.inner".to_string(), &false)],
    );

    // Every acquisition is in concurrent.rs, and the pass sees the
    // hand-written ones: the engine's own accessors plus the session's
    // `commit`.  The other session operations are generated from the one
    // `forward_engine_ops!` list — a single `lock()` in the macro
    // invocation, each expansion `StorageEngine::name(&mut *guard, ..)` —
    // so there is no per-operation body left to get wrong.
    assert!(latch.sites.len() >= 17, "sites: {}", latch.sites.len());
    assert!(latch
        .sites
        .iter()
        .all(|s| s.file == "crates/storage-engine/src/concurrent.rs"));

    // Field-chain resolution (`self.engine.inner.lock()` in a session) and
    // the engine's own accessors both reach the lock.
    for f in [
        "ClientSession::commit",
        "ConcurrentEngine::committed",
        "ConcurrentEngine::with_backend",
    ] {
        let acquires = latch
            .fn_acquires
            .get(f)
            .unwrap_or_else(|| panic!("fn_acquires should cover {f}"));
        assert!(
            acquires.contains("ConcurrentEngine.inner"),
            "{f}: {acquires:?}"
        );
    }
    // ...and nothing below the lock takes it again.
    for f in [
        "StorageEngine::insert",
        "StorageEngine::maybe_flush",
        "StorageEngine::checkpoint",
    ] {
        assert!(
            latch.fn_acquires[f].is_empty(),
            "{f}: {:?}",
            latch.fn_acquires[f]
        );
    }

    // One node: no order, so no edges and no cycles; re-acquisition would
    // have been a diagnostic.
    assert!(latch.edges.is_empty(), "edges: {:?}", latch.edges);
    assert!(latch.cycles.is_empty(), "cycles: {:?}", latch.cycles);
    assert!(
        !report
            .diagnostics
            .iter()
            .any(|d| d.message.contains("re-acquired")),
        "{:?}",
        report.diagnostics
    );
}

#[test]
fn knob_registry_matches_the_documented_knobs() {
    let report = noftl_lint::run(&workspace_root(), None);
    let knobs: Vec<&str> = report.knobs.knobs.keys().map(String::as_str).collect();
    assert_eq!(
        knobs,
        vec![
            "NOFTL_ASYNC",
            "NOFTL_BATCH",
            "NOFTL_BATCH_GLOBAL",
            "NOFTL_FAULTS",
            "NOFTL_READAHEAD",
            "NOFTL_REDUNDANCY",
            "NOFTL_SLO",
        ]
    );
    assert!(report.knobs.in_ci.values().all(|v| *v), "{:?}", report.knobs.in_ci);
    assert!(report.knobs.in_roadmap.values().all(|v| *v), "{:?}", report.knobs.in_roadmap);
}

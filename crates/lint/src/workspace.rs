//! Workspace file discovery.

use std::fs;
use std::path::{Path, PathBuf};

use crate::source::SourceFile;

/// All `.rs` sources under `root`, preprocessed, sorted by path.
///
/// Skips `target/`, `vendor/` (stand-in crates are not simulator code),
/// `.git/`, and any `fixtures/` tree (seeded-violation corpora must never
/// lint the real workspace red).
pub fn collect_sources(root: &Path) -> Vec<SourceFile> {
    let mut paths: Vec<PathBuf> = Vec::new();
    walk(root, &mut paths);
    paths.sort();
    paths
        .iter()
        .filter_map(|p| {
            let rel = p
                .strip_prefix(root)
                .unwrap_or(p)
                .components()
                .map(|c| c.as_os_str().to_string_lossy().into_owned())
                .collect::<Vec<_>>()
                .join("/");
            let text = fs::read_to_string(p).ok()?;
            Some(SourceFile::parse(&rel, &text))
        })
        .collect()
}

fn walk(dir: &Path, out: &mut Vec<PathBuf>) {
    let entries = match fs::read_dir(dir) {
        Ok(e) => e,
        Err(_) => return,
    };
    for entry in entries.flatten() {
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if matches!(name.as_ref(), "target" | "vendor" | ".git" | "fixtures") {
                continue;
            }
            walk(&path, out);
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
}

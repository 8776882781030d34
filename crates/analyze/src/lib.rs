//! deepcam-analyze — a repo-invariant static checker.
//!
//! The workspace declares several invariants its benchmarks and tests
//! rely on but `rustc` cannot see: hot loops stay allocation-free, the
//! serve decode path never panics on hostile bytes, lowering has one
//! entry point, kernels read no host state, threads are created in
//! exactly three places, and every `unsafe` is audited. This crate
//! machine-checks all of them on every CI run, from a token-level
//! lexer over the repo's own sources — no rustc internals, no
//! dependencies, same no-crates spirit as the vendored shims.
//!
//! The lints:
//!
//! | ID | key | invariant |
//! |----|-----|-----------|
//! | A0 | `annotation` | every `// analyze:` directive is well-formed and justified |
//! | A1 | `alloc-free` | no allocation tokens in `// analyze: alloc-free` functions |
//! | A2 | `unsafe-audit` | every `unsafe` has `// SAFETY:` and matches `ANALYZE_UNSAFE.md` |
//! | A3 | `panic-free` | no panic/unwrap/indexing in the serve decode/read files |
//! | A4 | `single-lowering` | lowering entry points have exactly their declared call sites |
//! | A5 | `determinism` | no clock/env/rng/host tokens in bit-exact kernel files |
//! | A6 | `thread` | thread creation only in pool.rs, session.rs, event_loop.rs |
//!
//! Escape hatch: `// analyze: allow(<key>, "why")` directly above a
//! `fn`. The justification string is mandatory — an allow without one
//! is itself a violation (A0), so every suppression documents its
//! reason at the use site.

#![forbid(unsafe_code)]

pub mod lexer;
pub mod lints;
pub mod model;
pub mod report;

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

pub use lints::{CallSiteRule, Config};
pub use model::SourceFile;
pub use report::{LintId, Violation};

/// Directory names never descended into, at any depth.
const SKIP_DIRS: &[&str] = &["target", ".git", ".github"];
/// Repo-relative prefixes never scanned: the fixture corpus contains
/// deliberate violations.
const SKIP_PREFIXES: &[&str] = &["crates/analyze/tests/fixtures"];

/// Recursively collects every `.rs` file under `root`, returning
/// repo-relative `/`-separated paths, sorted for deterministic output.
pub fn collect_sources(root: &Path) -> io::Result<Vec<PathBuf>> {
    let mut out = Vec::new();
    let mut stack = vec![root.to_path_buf()];
    while let Some(dir) = stack.pop() {
        for entry in fs::read_dir(&dir)? {
            let path = entry?.path();
            let rel = rel_str(root, &path);
            if path.is_dir() {
                let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
                if SKIP_DIRS.contains(&name) || SKIP_PREFIXES.iter().any(|p| rel == *p) {
                    continue;
                }
                stack.push(path);
            } else if path.extension().is_some_and(|e| e == "rs") {
                out.push(path);
            }
        }
    }
    out.sort();
    Ok(out)
}

/// `path` relative to `root`, `/`-separated (stable across hosts).
fn rel_str(root: &Path, path: &Path) -> String {
    path.strip_prefix(root)
        .unwrap_or(path)
        .components()
        .map(|c| c.as_os_str().to_string_lossy())
        .collect::<Vec<_>>()
        .join("/")
}

/// Parses every source under `root` and runs all lints with `cfg`.
/// The unsafe registry is read from `root/<cfg.unsafe_registry>` if
/// present.
pub fn check_dir(root: &Path, cfg: &Config) -> io::Result<Vec<Violation>> {
    let mut files = Vec::new();
    for path in collect_sources(root)? {
        let source = fs::read_to_string(&path)?;
        files.push(SourceFile::parse(rel_str(root, &path), &source));
    }
    let registry = fs::read_to_string(root.join(cfg.unsafe_registry)).ok();
    Ok(lints::check(&files, cfg, registry.as_deref()))
}

/// Checks the live repository (the workspace this crate is part of)
/// against its declared invariants, [`Config::repo`].
pub fn check_repo(root: &Path) -> io::Result<Vec<Violation>> {
    check_dir(root, &Config::repo())
}

/// The workspace root when running from within the workspace (the
/// manifest dir is `crates/analyze`).
pub fn default_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The live repository must satisfy every invariant it declares.
    /// This is the self-run: the same check CI enforces, as a test.
    #[test]
    fn live_repo_is_clean() {
        let violations = check_repo(&default_root()).expect("walk repo");
        assert!(
            violations.is_empty(),
            "repo violates its declared invariants:\n{}",
            violations
                .iter()
                .map(|v| format!("  {v}"))
                .collect::<Vec<_>>()
                .join("\n")
        );
    }
}

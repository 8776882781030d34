//! The six invariant lints (plus A0 annotation hygiene).
//!
//! Every lint works on the token streams of [`crate::model::SourceFile`];
//! none of them parse Rust beyond what the model provides (function
//! spans, test spans, annotations). The configuration — which files a
//! lint covers, which call sites are declared — lives in
//! [`Config::repo`] so that changing an invariant is an explicit diff
//! to this crate, reviewed like any other contract change.

use std::collections::BTreeMap;

use crate::model::{Annotation, SourceFile};
use crate::report::{LintId, Violation};

/// One lowered-entry-point rule for A4: `method` may be called exactly
/// `count` times per declared file (and nowhere else) in production
/// code.
#[derive(Debug, Clone)]
pub struct CallSiteRule {
    pub method: &'static str,
    /// (repo-relative file, expected production call-site count).
    pub expected: Vec<(&'static str, usize)>,
}

/// Which files each lint covers. [`Config::repo`] is the live
/// repository's contract; fixture tests build their own.
#[derive(Debug, Clone, Default)]
pub struct Config {
    /// A3: files whose non-test code must be panic-free.
    pub panic_free_files: Vec<&'static str>,
    /// A5: files whose non-test code must be host/clock/rng-free.
    pub determinism_files: Vec<&'static str>,
    /// A6: the only files allowed to create threads.
    pub thread_owner_files: Vec<&'static str>,
    /// A4: declared call sites of single-lowering entry points.
    pub call_sites: Vec<CallSiteRule>,
    /// A2: repo-relative path of the unsafe registry markdown.
    pub unsafe_registry: &'static str,
}

impl Config {
    /// The DeepCAM repository's declared invariants.
    pub fn repo() -> Config {
        Config {
            // A3: the serve decode path (wire → Request), the
            // connection state machine that frames and dispatches it,
            // the server that binds it, and the epoll readiness loop
            // that drives it — the code hostile bytes reach first.
            panic_free_files: vec![
                "crates/serve/src/protocol.rs",
                "crates/serve/src/connection.rs",
                "crates/serve/src/server.rs",
                "crates/serve/src/event_loop.rs",
                "crates/serve/src/poll.rs",
            ],
            // A5: the bit-exact kernel files (hot path + frozen
            // reference), the pool/guard host probes, and the clock
            // boundary. Host state is reachable from these files only
            // through a justified `// analyze: allow(determinism, …)`.
            determinism_files: vec![
                "crates/core/src/engine.rs",
                // The engine's recorder: its one clock read carries the
                // only allow in deepcam-core.
                "crates/core/src/record.rs",
                // The sign certificate and exact fix-up the engine's hash
                // path runs.
                "crates/core/src/certify.rs",
                "crates/core/src/reference.rs",
                // The pass pipeline searches mappings over compiled
                // artifacts; it must be a pure function of the model and
                // config (resumable, replayable, cacheable).
                "crates/core/src/passes/mod.rs",
                "crates/core/src/passes/mapping.rs",
                "crates/hash/src/packed.rs",
                "crates/hash/src/bitvec.rs",
                "crates/tensor/src/tensor.rs",
                "crates/tensor/src/ops/conv.rs",
                // The implicit-im2col, zero-skipping projection the
                // engine's hot path runs instead of im2col + dense GEMM.
                "crates/tensor/src/ops/project.rs",
                // Its AVX-512 tiles are A5-bound; the dispatch layer
                // (tensor simd/mod.rs) is deliberately NOT — it is the
                // one place allowed to read the DEEPCAM_SIMD env
                // override, so kernels stay pure functions of their
                // inputs.
                "crates/tensor/src/simd/x86.rs",
                "crates/tensor/src/ops/linear.rs",
                "crates/tensor/src/pool.rs",
                "crates/bench/src/guard.rs",
                "crates/serve/src/clock.rs",
                "crates/serve/src/session.rs",
                // The fault-tolerance surface is deadline- and
                // retry-driven: every clock read goes through the Clock
                // trait and every random draw through a seeded rng, so
                // timeouts, backoff and fault plans replay exactly.
                "crates/serve/src/server.rs",
                "crates/serve/src/client.rs",
                "crates/serve/src/chaos.rs",
                // The connection state machine takes `now` from its
                // caller with every event and never reads a clock, so
                // the socket-free lifecycle tests replay exactly.
                "crates/serve/src/connection.rs",
                // The readiness core: every deadline in the event loop
                // is computed from `shared.clock`, and the syscall
                // wrappers in poll.rs take explicit timeouts — neither
                // file may reach for host time or env state itself.
                "crates/serve/src/event_loop.rs",
                "crates/serve/src/poll.rs",
            ],
            // A6: worker threads live in the pool; the session owns its
            // dispatcher; the event loop owns the server's single epoll
            // thread. Nothing else may create threads.
            thread_owner_files: vec![
                "crates/tensor/src/pool.rs",
                "crates/serve/src/session.rs",
                "crates/serve/src/event_loop.rs",
            ],
            call_sites: vec![
                // `ModelSpec::dot_layers` has exactly one production
                // caller (`LayerIr::from_spec`) — the PR 4 single-
                // lowering invariant. The other two entries pin the
                // same-named delegation methods (`CompiledModel::
                // dot_layers` via the engine, and the registry's
                // listing) so a new caller of *any* `dot_layers` is an
                // explicit diff here.
                CallSiteRule {
                    method: "dot_layers",
                    expected: vec![
                        ("crates/core/src/ir.rs", 1),
                        ("crates/core/src/engine.rs", 1),
                        ("crates/serve/src/registry.rs", 1),
                    ],
                },
                // `HashPlan::bind` is the one place widths meet lowered
                // IR. The serve entry is `TcpListener::bind` (an
                // unrelated method pinned on purpose: a new `.bind(`
                // call anywhere must show up as a diff here, whichever
                // `bind` it is).
                CallSiteRule {
                    method: "bind",
                    expected: vec![
                        ("crates/core/src/sched.rs", 1),
                        ("crates/core/src/ir.rs", 1),
                        ("crates/serve/src/server.rs", 1),
                        ("crates/bench/src/experiments/fig9.rs", 1),
                        ("crates/bench/src/experiments/fig10.rs", 1),
                        ("crates/bench/src/experiments/table2.rs", 1),
                        // The compiler bench costs the uniform_max
                        // baseline; its tuned bindings come from
                        // `tune_joint`, whose tuner takes the binding
                        // its final candidate's compile made.
                        ("crates/bench/src/bin/compiler.rs", 1),
                    ],
                },
            ],
            unsafe_registry: "ANALYZE_UNSAFE.md",
        }
    }
}

/// Whether `rel` is production source: a crate's `src/` tree or the
/// facade's. Test dirs, examples and benches are out of scope for the
/// call-site and thread lints (A2 still scans everything).
fn is_production(rel: &str) -> bool {
    rel.starts_with("src/") || (rel.starts_with("crates/") && rel.contains("/src/"))
}

/// Runs every lint over `files`. `registry` is the content of the
/// unsafe-registry markdown, if it exists.
pub fn check(files: &[SourceFile], cfg: &Config, registry: Option<&str>) -> Vec<Violation> {
    let mut v = Vec::new();
    v.extend(annotation_hygiene(files));
    v.extend(alloc_free(files));
    v.extend(unsafe_audit(files, cfg, registry));
    v.extend(panic_free(files, cfg));
    v.extend(single_lowering(files, cfg));
    v.extend(determinism(files, cfg));
    v.extend(thread_centralization(files, cfg));
    v.sort_by(|a, b| (a.file.as_str(), a.line, a.lint).cmp(&(b.file.as_str(), b.line, b.lint)));
    v
}

/// Whether `f`'s enclosing function carries a *justified* allow for
/// `lint` (unjustified allows never suppress; A0 flags them instead).
fn allowed(file: &SourceFile, tok_idx: usize, lint: LintId) -> bool {
    file.enclosing_fn(tok_idx).is_some_and(|f| {
        f.annotations.iter().any(|(_, a)| {
            matches!(a, Annotation::Allow { lint: l, justification: Some(_) }
                if l.as_str() == lint.allow_key())
        })
    })
}

/// A0 — every `// analyze:` directive must be well-formed, name a real
/// lint, and (for `allow`) carry a non-empty quoted justification.
fn annotation_hygiene(files: &[SourceFile]) -> Vec<Violation> {
    let mut out = Vec::new();
    for file in files {
        for f in &file.functions {
            for (line, ann) in &f.annotations {
                match ann {
                    Annotation::AllocFree => {}
                    Annotation::Allow {
                        lint,
                        justification,
                    } => match LintId::from_allow_key(lint) {
                        None => out.push(Violation::new(
                            &file.rel,
                            *line,
                            LintId::Annotation,
                            format!("allow names unknown lint {lint:?} on fn `{}`", f.name),
                        )),
                        Some(named) if justification.is_none() => out.push(Violation::new(
                            &file.rel,
                            *line,
                            LintId::Annotation,
                            format!(
                                "allow({}) on fn `{}` has no justification string — every \
                                 escape hatch must say why",
                                named.allow_key(),
                                f.name
                            ),
                        )),
                        Some(_) => {}
                    },
                    Annotation::Unknown(text) => out.push(Violation::new(
                        &file.rel,
                        *line,
                        LintId::Annotation,
                        format!("unrecognized analyze directive {text:?} on fn `{}`", f.name),
                    )),
                }
            }
        }
    }
    out
}

/// A1 — inside `// analyze: alloc-free` functions, none of the banned
/// allocation tokens may appear: `Vec::new`, `Box::new`, `.push(`,
/// `.to_vec(`, `.collect(`, `.clone(`, `format!`. (One-time scratch
/// via `vec![…]` at chunk entry is the sanctioned pattern and stays
/// legal — the contract is *no per-item allocation*.)
fn alloc_free(files: &[SourceFile]) -> Vec<Violation> {
    const BANNED_METHODS: &[&str] = &["push", "to_vec", "collect", "clone"];
    let mut out = Vec::new();
    for file in files {
        for f in &file.functions {
            let tagged = f
                .annotations
                .iter()
                .any(|(_, a)| *a == Annotation::AllocFree);
            if !tagged || f.body.is_empty() {
                continue;
            }
            for idx in f.body.clone() {
                let Some(word) = file.tokens[idx].ident() else {
                    continue;
                };
                let line = file.tokens[idx].line;
                let dot_call = BANNED_METHODS.contains(&word)
                    && file
                        .prev_significant(idx)
                        .is_some_and(|(_, t)| t.is_punct('.'));
                let path_new = word == "new"
                    && matches!(path_prefix(file, idx), Some("Vec" | "Box" | "String"));
                let fmt_macro = word == "format"
                    && file
                        .next_significant(idx + 1)
                        .is_some_and(|(_, t)| t.is_punct('!'));
                if dot_call || path_new || fmt_macro {
                    let shown = if path_new {
                        format!("{}::new", path_prefix(file, idx).unwrap_or(""))
                    } else if fmt_macro {
                        "format!".to_string()
                    } else {
                        format!(".{word}()")
                    };
                    out.push(Violation::new(
                        &file.rel,
                        line,
                        LintId::AllocFree,
                        format!(
                            "allocation token `{shown}` inside alloc-free fn `{}`",
                            f.name
                        ),
                    ));
                }
            }
        }
    }
    out
}

/// A2 — every `unsafe` token needs a `// SAFETY:` comment within the 12
/// preceding lines, and the per-file counts must match the registry
/// markdown exactly, so any new unsafe is an explicit two-file diff.
fn unsafe_audit(files: &[SourceFile], cfg: &Config, registry: Option<&str>) -> Vec<Violation> {
    let mut out = Vec::new();
    let mut actual: BTreeMap<&str, (usize, u32)> = BTreeMap::new(); // file -> (count, first line)
    for file in files {
        for (idx, t) in file.tokens.iter().enumerate() {
            if t.ident() != Some("unsafe") {
                continue;
            }
            let entry = actual.entry(file.rel.as_str()).or_insert((0, t.line));
            entry.0 += 1;
            if !has_safety_comment(file, idx) {
                out.push(Violation::new(
                    &file.rel,
                    t.line,
                    LintId::UnsafeAudit,
                    "`unsafe` without a `// SAFETY:` comment in the 12 lines above".to_string(),
                ));
            }
        }
    }
    let declared = registry.map(parse_registry).unwrap_or_default();
    if registry.is_none() && !actual.is_empty() {
        let (file, (_, line)) = actual.iter().next().expect("non-empty");
        out.push(Violation::new(
            file,
            *line,
            LintId::UnsafeAudit,
            format!(
                "repo contains `unsafe` but the registry {} is missing",
                cfg.unsafe_registry
            ),
        ));
    }
    for (file, (count, line)) in &actual {
        match declared.get(*file) {
            Some(n) if n == count => {}
            Some(n) => out.push(Violation::new(
                file,
                *line,
                LintId::UnsafeAudit,
                format!(
                    "{} declares {n} unsafe token(s) for this file, found {count}",
                    cfg.unsafe_registry
                ),
            )),
            None if registry.is_some() => out.push(Violation::new(
                file,
                *line,
                LintId::UnsafeAudit,
                format!(
                    "{count} unsafe token(s) not declared in {}",
                    cfg.unsafe_registry
                ),
            )),
            None => {}
        }
    }
    for (file, n) in &declared {
        if !actual.contains_key(file.as_str()) {
            out.push(Violation::new(
                cfg.unsafe_registry,
                1,
                LintId::UnsafeAudit,
                format!(
                    "{} declares {n} unsafe token(s) for {file}, found none — stale entry",
                    cfg.unsafe_registry
                ),
            ));
        }
    }
    out
}

/// Parses `| path.rs | N |` table rows out of the registry markdown.
fn parse_registry(md: &str) -> BTreeMap<String, usize> {
    let mut map = BTreeMap::new();
    for line in md.lines() {
        let line = line.trim();
        if !line.starts_with('|') {
            continue;
        }
        let cells: Vec<&str> = line
            .split('|')
            .map(str::trim)
            .filter(|c| !c.is_empty())
            .collect();
        if cells.len() >= 2 {
            let file = cells[0].trim_matches('`');
            if file.ends_with(".rs") {
                if let Ok(n) = cells[1].parse::<usize>() {
                    map.insert(file.to_string(), n);
                }
            }
        }
    }
    map
}

/// Whether a `// SAFETY:` comment sits within the 12 lines above token
/// `idx`.
fn has_safety_comment(file: &SourceFile, idx: usize) -> bool {
    let line = file.tokens[idx].line;
    file.tokens[..idx]
        .iter()
        .rev()
        .take_while(|t| t.line + 12 >= line)
        .any(|t| t.comment().is_some_and(|c| c.contains("SAFETY:")))
}

/// A3 — panic-free decode: no `panic!`-family macros, no
/// `.unwrap()`/`.expect()`, no `expr[...]` indexing in the non-test
/// code of the configured files. Escape hatch:
/// `// analyze: allow(panic-free, "…")`.
fn panic_free(files: &[SourceFile], cfg: &Config) -> Vec<Violation> {
    const PANIC_MACROS: &[&str] = &[
        "panic",
        "unreachable",
        "todo",
        "unimplemented",
        "assert",
        "assert_eq",
        "assert_ne",
        "debug_assert",
        "debug_assert_eq",
        "debug_assert_ne",
    ];
    let mut out = Vec::new();
    for file in files {
        if !cfg.panic_free_files.contains(&file.rel.as_str()) {
            continue;
        }
        for (idx, t) in file.tokens.iter().enumerate() {
            if file.is_test_code(idx) || allowed(file, idx, LintId::PanicFree) {
                continue;
            }
            if let Some(word) = t.ident() {
                let dot_call = matches!(word, "unwrap" | "expect")
                    && file
                        .prev_significant(idx)
                        .is_some_and(|(_, t)| t.is_punct('.'));
                let macro_call = PANIC_MACROS.contains(&word)
                    && file
                        .next_significant(idx + 1)
                        .is_some_and(|(_, t)| t.is_punct('!'));
                if dot_call {
                    out.push(Violation::new(
                        &file.rel,
                        t.line,
                        LintId::PanicFree,
                        format!("`.{word}()` on the decode/read path — return a typed error"),
                    ));
                } else if macro_call {
                    out.push(Violation::new(
                        &file.rel,
                        t.line,
                        LintId::PanicFree,
                        format!("`{word}!` on the decode/read path — return a typed error"),
                    ));
                }
            } else if t.is_punct('[') && is_index_expr(file, idx) {
                out.push(Violation::new(
                    &file.rel,
                    t.line,
                    LintId::PanicFree,
                    "indexing on the decode/read path — use `.get(…)` and a typed error"
                        .to_string(),
                ));
            }
        }
    }
    out
}

/// Whether the `[` at `idx` opens an index expression (as opposed to an
/// array literal/type, slice pattern or attribute): true when the
/// previous significant token ends an expression.
fn is_index_expr(file: &SourceFile, idx: usize) -> bool {
    const KEYWORDS: &[&str] = &[
        "in", "if", "else", "match", "return", "break", "continue", "let", "mut", "ref", "move",
        "as", "impl", "where", "for", "while", "loop", "dyn", "fn", "box", "await", "yield",
        "unsafe", "const", "static", "pub", "use", "mod", "enum", "struct", "trait", "type",
    ];
    match file.prev_significant(idx) {
        Some((_, t)) => match &t.kind {
            crate::lexer::TokKind::Ident(w) => !KEYWORDS.contains(&w.as_str()),
            crate::lexer::TokKind::Punct(')' | ']') => true,
            _ => false,
        },
        None => false,
    }
}

/// A4 — each registered entry point is called exactly its declared
/// number of times per declared production file, and nowhere else.
fn single_lowering(files: &[SourceFile], cfg: &Config) -> Vec<Violation> {
    let mut out = Vec::new();
    for rule in &cfg.call_sites {
        let mut found: BTreeMap<&str, (usize, u32)> = BTreeMap::new();
        for file in files {
            if !is_production(&file.rel) {
                continue;
            }
            for (idx, t) in file.tokens.iter().enumerate() {
                if t.ident() != Some(rule.method) || file.is_test_code(idx) {
                    continue;
                }
                let receiver = file
                    .prev_significant(idx)
                    .is_some_and(|(_, t)| t.is_punct('.'))
                    || file.preceded_by_path_sep(idx);
                let called = file
                    .next_significant(idx + 1)
                    .is_some_and(|(_, t)| t.is_punct('('));
                if receiver && called {
                    let e = found.entry(file.rel.as_str()).or_insert((0, t.line));
                    e.0 += 1;
                }
            }
        }
        for (file, (count, line)) in &found {
            match rule.expected.iter().find(|(f, _)| f == file) {
                Some((_, n)) if n == count => {}
                Some((_, n)) => out.push(Violation::new(
                    file,
                    *line,
                    LintId::SingleLowering,
                    format!(
                        "`{}` declared {n} production call site(s) in this file, found {count}",
                        rule.method
                    ),
                )),
                None => out.push(Violation::new(
                    file,
                    *line,
                    LintId::SingleLowering,
                    format!(
                        "undeclared production call site of `{}` ({count}×) — update the \
                         registry in deepcam-analyze if intentional",
                        rule.method
                    ),
                )),
            }
        }
        for (file, n) in &rule.expected {
            if !found.contains_key(file) {
                out.push(Violation::new(
                    file,
                    1,
                    LintId::SingleLowering,
                    format!(
                        "`{}` declared {n} production call site(s) here, found none — stale \
                         declaration",
                        rule.method
                    ),
                ));
            }
        }
    }
    out
}

/// A5 — bit-exact kernel files must not read clocks, RNGs, the
/// environment or other host state. Escape hatch (function-scoped,
/// justification required): `// analyze: allow(determinism, "…")`.
fn determinism(files: &[SourceFile], cfg: &Config) -> Vec<Violation> {
    let mut out = Vec::new();
    for file in files {
        if !cfg.determinism_files.contains(&file.rel.as_str()) {
            continue;
        }
        for (idx, t) in file.tokens.iter().enumerate() {
            if file.is_test_code(idx) {
                continue;
            }
            let Some(word) = t.ident() else { continue };
            let finding = match word {
                "now" if path_prefix(file, idx) == Some("Instant") => Some("Instant::now"),
                "SystemTime" => Some("SystemTime"),
                "thread_rng" => Some("thread_rng"),
                "var" | "var_os" if path_prefix(file, idx) == Some("env") => Some("env::var"),
                "available_parallelism" => Some("available_parallelism"),
                "read_to_string" => Some("read_to_string"),
                "println" | "eprintln" | "print" | "eprint"
                    if file
                        .next_significant(idx + 1)
                        .is_some_and(|(_, t)| t.is_punct('!')) =>
                {
                    Some("host stdio")
                }
                _ => None,
            };
            if let Some(what) = finding {
                if !allowed(file, idx, LintId::Determinism) {
                    out.push(Violation::new(
                        &file.rel,
                        t.line,
                        LintId::Determinism,
                        format!(
                            "{what} in a bit-exact kernel file — use the Clock trait or add a \
                             justified allow(determinism)"
                        ),
                    ));
                }
            }
        }
    }
    out
}

/// A6 — `thread::spawn` / `thread::Builder` only in the declared
/// thread-owner files.
fn thread_centralization(files: &[SourceFile], cfg: &Config) -> Vec<Violation> {
    let mut out = Vec::new();
    for file in files {
        if !is_production(&file.rel) || cfg.thread_owner_files.contains(&file.rel.as_str()) {
            continue;
        }
        for (idx, t) in file.tokens.iter().enumerate() {
            if file.is_test_code(idx) {
                continue;
            }
            let spawnish = matches!(t.ident(), Some("spawn" | "Builder"))
                && path_prefix(file, idx) == Some("thread");
            if spawnish {
                out.push(Violation::new(
                    &file.rel,
                    t.line,
                    LintId::ThreadCentralization,
                    "thread creation outside the declared owner files (pool/server/session)"
                        .to_string(),
                ));
            }
        }
    }
    out
}

/// The identifier before a `::` path separator leading into token
/// `idx`: for `Instant::now`, `path_prefix` at `now` is `Instant`.
fn path_prefix(file: &SourceFile, idx: usize) -> Option<&str> {
    if !file.preceded_by_path_sep(idx) {
        return None;
    }
    let (colon2, _) = file.prev_significant(idx)?;
    let (colon1, _) = file.prev_significant(colon2)?;
    let (_, prev) = file.prev_significant(colon1)?;
    prev.ident()
}

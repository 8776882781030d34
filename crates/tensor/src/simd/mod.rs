//! Runtime SIMD kernel selection for every hot kernel of the workspace.
//!
//! A *detection table* is built once per process
//! (`is_x86_feature_detected!` / NEON, cached in a [`OnceLock`]) and an
//! *active variant* is selected from it — by default the most capable
//! detected kernel, overridable with the `DEEPCAM_SIMD` environment
//! variable (`auto`, `scalar`, `avx2`, `avx512`, `neon`; read once, here,
//! outside the A5 kernel files).
//!
//! One variant selects every kernel that dispatches on it: the patch
//! projection in [`crate::ops::project`] (AVX-512 tiles in
//! `simd/x86.rs`) and, through the re-export in `deepcam_hash::simd`,
//! the packed Hamming and certify-pack kernels. Every variant
//! computes **identical bits** — the Hamming kernels are exact integer
//! popcounts, and the exact projection keeps each output's serial
//! multiply-then-add chain — so dispatch can never move an output bit.
//! The one exception is the fused multiply-add projection
//! ([`crate::ops::project::project_patches_approx_into`]), whose values
//! may differ on `Avx512` in their last bits; its only caller keeps just
//! the signs an error bound proves and recomputes the rest exactly, so
//! the hash bits it feeds are identical on every variant too. The
//! portable code is the always-available fallback *and* the differential
//! oracle.
//!
//! The dispatch cost is one relaxed atomic load per kernel call (not per
//! row), and [`force_variant`] lets benches and tests pin a variant
//! process-wide — safe to flip mid-run precisely because all variants
//! are bit-identical.

use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::OnceLock;

#[cfg(target_arch = "x86_64")]
pub(crate) mod x86;

/// Environment variable selecting the kernel variant (`auto` when
/// unset). Invalid or undetected values fall back to `auto` — loudly,
/// once per distinct bad value, mirroring `DEEPCAM_WORKERS`.
pub const SIMD_ENV: &str = "DEEPCAM_SIMD";

/// One implementation of the dispatched kernels.
///
/// Ordered by capability: later variants are preferred by `auto`
/// selection when detected.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Variant {
    /// Portable code — always available; the differential oracle every
    /// other variant is tested against.
    Scalar,
    /// AArch64 NEON `vcnt` byte popcount with pairwise widening.
    Neon,
    /// AVX2 Harley–Seal carry-save popcount over 256-bit lanes
    /// (nibble-LUT `vpshufb` + `vpsadbw` reduction).
    Avx2,
    /// AVX-512: `VPOPCNTDQ` Hamming over 512-bit blocks, 512-bit
    /// projection tiles and a mask-compare certify pack. Requires both
    /// `avx512f` and `avx512vpopcntdq`.
    Avx512,
}

impl Variant {
    /// The name used by `DEEPCAM_SIMD` and the bench JSON.
    pub fn name(self) -> &'static str {
        match self {
            Variant::Scalar => "scalar",
            Variant::Neon => "neon",
            Variant::Avx2 => "avx2",
            Variant::Avx512 => "avx512",
        }
    }

    fn from_name(name: &str) -> Option<Variant> {
        match name {
            "scalar" => Some(Variant::Scalar),
            "neon" => Some(Variant::Neon),
            "avx2" => Some(Variant::Avx2),
            "avx512" => Some(Variant::Avx512),
            _ => None,
        }
    }

    /// Encoding for the active-variant atomic (0 is "not yet resolved").
    fn code(self) -> u8 {
        match self {
            Variant::Scalar => 1,
            Variant::Neon => 2,
            Variant::Avx2 => 3,
            Variant::Avx512 => 4,
        }
    }

    fn from_code(code: u8) -> Option<Variant> {
        match code {
            1 => Some(Variant::Scalar),
            2 => Some(Variant::Neon),
            3 => Some(Variant::Avx2),
            4 => Some(Variant::Avx512),
            _ => None,
        }
    }
}

/// The variants this host supports, in ascending capability order —
/// always starts with [`Variant::Scalar`]. Detection runs once per
/// process and is cached (the `OnceLock` detection table).
pub fn detected() -> &'static [Variant] {
    static TABLE: OnceLock<Vec<Variant>> = OnceLock::new();
    TABLE.get_or_init(|| {
        #[allow(unused_mut)]
        let mut table = vec![Variant::Scalar];
        #[cfg(target_arch = "aarch64")]
        if std::arch::is_aarch64_feature_detected!("neon") {
            table.push(Variant::Neon);
        }
        #[cfg(target_arch = "x86_64")]
        {
            if is_x86_feature_detected!("avx2") {
                table.push(Variant::Avx2);
            }
            if is_x86_feature_detected!("avx512f") && is_x86_feature_detected!("avx512vpopcntdq") {
                table.push(Variant::Avx512);
            }
        }
        table
    })
}

/// Whether `variant` is runnable on this host.
pub fn is_detected(variant: Variant) -> bool {
    detected().contains(&variant)
}

/// Resolution of the `DEEPCAM_SIMD` override, pure so every outcome is
/// unit-testable without touching the process environment: returns the
/// selected variant plus the warning to emit when `raw` is set but
/// unusable (unknown name, or a variant this host does not support).
fn resolve_env(raw: Option<&str>, table: &[Variant]) -> (Variant, Option<String>) {
    let auto = *table.last().expect("non-empty table");
    let Some(raw) = raw else { return (auto, None) };
    let trimmed = raw.trim();
    if trimmed == "auto" {
        return (auto, None);
    }
    match Variant::from_name(trimmed) {
        Some(v) if table.contains(&v) => (v, None),
        Some(v) => (
            auto,
            Some(format!(
                "warning: {SIMD_ENV}={raw:?} requests the {} kernel but this host does not \
                 support it; falling back to {} (results are bit-identical either way)",
                v.name(),
                auto.name()
            )),
        ),
        None => (
            auto,
            Some(format!(
                "warning: ignoring unknown {SIMD_ENV}={raw:?} (expected auto, scalar, avx2, \
                 avx512 or neon); falling back to {}",
                auto.name()
            )),
        ),
    }
}

/// The process-wide active variant (0 = not yet resolved). A plain
/// atomic rather than the `OnceLock` itself so [`force_variant`] can
/// re-point dispatch mid-process — safe because every variant computes
/// identical bits.
static ACTIVE: AtomicU8 = AtomicU8::new(0);

/// The currently active kernel variant. First use resolves the
/// `DEEPCAM_SIMD` override against the detection table; subsequent
/// calls are one relaxed load.
pub fn active() -> Variant {
    match Variant::from_code(ACTIVE.load(Ordering::Relaxed)) {
        Some(v) => v,
        None => {
            let raw = std::env::var(SIMD_ENV).ok();
            let (variant, warning) = resolve_env(raw.as_deref(), detected());
            if let Some(msg) = warning {
                emit_env_warning_once(&msg);
            }
            // Racing first calls resolve to the same value; last store
            // wins harmlessly.
            ACTIVE.store(variant.code(), Ordering::Relaxed);
            variant
        }
    }
}

/// Pins the active variant process-wide (benches sweeping every kernel;
/// the differential suites). Returns the previously active variant, or
/// `None` — with dispatch unchanged — when `variant` is not detected on
/// this host.
pub fn force_variant(variant: Variant) -> Option<Variant> {
    if !is_detected(variant) {
        return None;
    }
    let prev = active();
    ACTIVE.store(variant.code(), Ordering::Relaxed);
    Some(prev)
}

/// Proof that the active variant is [`Variant::Avx512`], and so that
/// this host has `avx512f`: the AVX-512 projection kernels take one.
/// Only [`avx512`] makes one.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Avx512Token(());

/// An [`Avx512Token`] when the active variant is [`Variant::Avx512`]
/// (never on hosts or architectures without it).
pub(crate) fn avx512() -> Option<Avx512Token> {
    (active() == Variant::Avx512).then_some(Avx512Token(()))
}

/// Prints `msg` to stderr once per distinct message (same discipline as
/// the `DEEPCAM_WORKERS` misconfiguration warning).
fn emit_env_warning_once(msg: &str) {
    use std::sync::Mutex;
    static WARNED: OnceLock<Mutex<Vec<String>>> = OnceLock::new();
    let mut seen = WARNED
        .get_or_init(|| Mutex::new(Vec::new()))
        .lock()
        .expect("simd env warning lock");
    if seen.iter().any(|m| m == msg) {
        return;
    }
    eprintln!("{msg}");
    seen.push(msg.to_string());
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn detection_table_starts_with_scalar() {
        let table = detected();
        assert_eq!(table.first(), Some(&Variant::Scalar));
        // Ascending capability order, no duplicates.
        for pair in table.windows(2) {
            assert!(pair[0] < pair[1], "table out of order: {table:?}");
        }
    }

    #[test]
    fn env_resolution_rules() {
        let table = [Variant::Scalar, Variant::Avx2];
        // Unset and auto pick the most capable detected variant.
        assert_eq!(resolve_env(None, &table), (Variant::Avx2, None));
        assert_eq!(resolve_env(Some("auto"), &table), (Variant::Avx2, None));
        // A detected variant is honored (whitespace tolerated).
        assert_eq!(
            resolve_env(Some(" scalar "), &table),
            (Variant::Scalar, None)
        );
        assert_eq!(resolve_env(Some("avx2"), &table), (Variant::Avx2, None));
        // Known but undetected: fall back loudly.
        let (v, warn) = resolve_env(Some("avx512"), &table);
        assert_eq!(v, Variant::Avx2);
        assert!(warn.is_some_and(|w| w.contains("avx512")));
        // Unknown name: fall back loudly.
        let (v, warn) = resolve_env(Some("sse9"), &table);
        assert_eq!(v, Variant::Avx2);
        assert!(warn.is_some_and(|w| w.contains("unknown")));
    }

    #[test]
    fn force_variant_round_trips() {
        let initial = active();
        let prev = force_variant(Variant::Scalar).expect("scalar is always detected");
        assert_eq!(prev, initial);
        assert_eq!(active(), Variant::Scalar);
        force_variant(initial).expect("restoring a detected variant");
        assert_eq!(active(), initial);
    }

    #[test]
    fn force_variant_refuses_undetected() {
        // At most one of these can be detected on any real host; an
        // undetected one must leave dispatch untouched.
        let before = active();
        for v in [Variant::Avx2, Variant::Avx512, Variant::Neon] {
            if !is_detected(v) {
                assert_eq!(force_variant(v), None);
                assert_eq!(active(), before);
            }
        }
    }

    #[test]
    fn names_round_trip() {
        for v in [
            Variant::Scalar,
            Variant::Neon,
            Variant::Avx2,
            Variant::Avx512,
        ] {
            assert_eq!(Variant::from_name(v.name()), Some(v));
            assert_eq!(Variant::from_code(v.code()), Some(v));
        }
        assert_eq!(Variant::from_name("turbo"), None);
        assert_eq!(Variant::from_code(0), None);
    }
}

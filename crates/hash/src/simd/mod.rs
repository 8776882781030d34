//! Runtime-dispatched SIMD microkernels for the XOR+popcount and
//! certified sign-pack hot path.
//!
//! The packed Hamming kernels ([`PackedHashes::hamming_into`] and
//! friends) and [`certify_signs_into`] route through this module. The
//! detection table, the active variant and the `DEEPCAM_SIMD` override
//! live in `deepcam_tensor::simd` and are re-exported here unchanged, so
//! one variant selects these kernels *and* the patch projection, and
//! [`force_variant`] pins them all.
//!
//! The Hamming kernels compute the **same exact integer function** on
//! every variant — popcounts have one right answer — and the certify
//! pack is one exact sign comparison, one rounded multiply and one exact
//! bound comparison per value, so dispatch can never move an output
//! bit. The scalar kernels ([`scalar`], and the portable pack in
//! `bitvec`) are the always-available fallback *and* the differential
//! oracle: the per-width scalar-vs-SIMD suite plus
//! `tests/hotpath_reference.rs` assert bitwise equality on every variant
//! the host detects, and the CI `DEEPCAM_SIMD=scalar` leg keeps the
//! fallback exercised on SIMD-capable runners.
//!
//! The dispatch cost is one relaxed atomic load per *range* or *pack*
//! call (not per row).
//!
//! [`PackedHashes::hamming_into`]: crate::PackedHashes::hamming_into
//! [`certify_signs_into`]: crate::bitvec::certify_signs_into

pub use deepcam_tensor::simd::{active, detected, force_variant, is_detected, Variant, SIMD_ENV};

pub mod scalar;

#[cfg(target_arch = "aarch64")]
pub mod neon;
#[cfg(target_arch = "x86_64")]
pub mod x86;

/// A certify-pack kernel: `(values, bounds, scale, signs, uncertain)`.
type CertifyFn = fn(&[f32], &[f32], f32, &mut [u64], &mut [u64]);

/// The kernel entry points of one variant. Every entry computes the
/// identical function; only the instructions differ.
struct Kernels {
    /// Hamming distance of `query` against every `wpr`-word row of a
    /// contiguous slab, one `u32` per row.
    range: fn(slab: &[u64], wpr: usize, query: &[u64], out: &mut [u32]),
    /// Hamming distance between two equal-length word slices.
    pair: fn(a: &[u64], b: &[u64]) -> u32,
    /// Sign bits of `values` (`x >= 0.0`), 64 per word, into exactly
    /// `values.len().div_ceil(64)` words with the unused high bits zero,
    /// plus, per lane, whether `|x| > scale·bound` fails (the uncertain
    /// words).
    certify_signs: CertifyFn,
}

/// Kernel table for `variant`. Variants that cannot exist on this
/// architecture are unreachable here because [`detected`] never lists
/// them and [`force_variant`] refuses them.
fn kernels_of(variant: Variant) -> &'static Kernels {
    const SCALAR: Kernels = Kernels {
        range: scalar::hamming_range,
        pair: scalar::hamming_pair,
        certify_signs: crate::bitvec::certify_sign_words,
    };
    #[cfg(target_arch = "x86_64")]
    const AVX2: Kernels = Kernels {
        range: x86::hamming_range_avx2,
        pair: x86::hamming_pair_avx2,
        certify_signs: crate::bitvec::certify_sign_words,
    };
    #[cfg(target_arch = "x86_64")]
    const AVX512: Kernels = Kernels {
        range: x86::hamming_range_avx512,
        pair: x86::hamming_pair_avx512,
        certify_signs: x86::certify_signs_avx512,
    };
    #[cfg(target_arch = "aarch64")]
    const NEON: Kernels = Kernels {
        range: neon::hamming_range_neon,
        pair: neon::hamming_pair_neon,
        certify_signs: crate::bitvec::certify_sign_words,
    };
    match variant {
        #[cfg(target_arch = "x86_64")]
        Variant::Avx2 => &AVX2,
        #[cfg(target_arch = "x86_64")]
        Variant::Avx512 => &AVX512,
        #[cfg(target_arch = "aarch64")]
        Variant::Neon => &NEON,
        _ => &SCALAR,
    }
}

/// Validates the shared slab/query/out contract once, before any kernel
/// runs — every variant inherits the checked contract instead of
/// re-deriving (or forgetting) it.
#[inline]
fn check_range_contract(slab: &[u64], wpr: usize, query: &[u64], out: &mut [u32]) -> bool {
    assert_eq!(
        query.len(),
        wpr,
        "query width must match the row stride ({wpr} words)"
    );
    if wpr == 0 {
        // Zero-width rows: every distance is zero by definition.
        out.fill(0);
        return false;
    }
    assert_eq!(
        slab.len(),
        out.len() * wpr,
        "slab must hold exactly one stride per output slot"
    );
    true
}

/// Dispatched range kernel: Hamming distance of `query` against every
/// `wpr`-word row of `slab` (one `u32` per row, row order preserved).
///
/// # Panics
///
/// Panics when `query` is not exactly `wpr` words or `slab` is not
/// exactly `out.len() * wpr` words.
#[inline]
pub fn hamming_range(slab: &[u64], wpr: usize, query: &[u64], out: &mut [u32]) {
    if check_range_contract(slab, wpr, query, out) {
        (kernels_of(active()).range)(slab, wpr, query, out);
    }
}

/// [`hamming_range`] pinned to an explicit variant — the differential
/// suites compare every detected variant against the scalar oracle
/// through this entry without mutating process-wide dispatch.
///
/// # Panics
///
/// Panics when `variant` is not detected on this host, or on the same
/// contract violations as [`hamming_range`].
pub fn hamming_range_with(
    variant: Variant,
    slab: &[u64],
    wpr: usize,
    query: &[u64],
    out: &mut [u32],
) {
    assert!(
        is_detected(variant),
        "variant {} is not supported on this host",
        variant.name()
    );
    if check_range_contract(slab, wpr, query, out) {
        (kernels_of(variant).range)(slab, wpr, query, out);
    }
}

/// Dispatched single-pair kernel: Hamming distance between two
/// equal-length word slices (the occupancy-skip path of the CAM array).
///
/// # Panics
///
/// Panics when the slices differ in length.
#[inline]
pub fn hamming_pair(a: &[u64], b: &[u64]) -> u32 {
    assert_eq!(a.len(), b.len(), "word slices must be equal length");
    (kernels_of(active()).pair)(a, b)
}

/// [`hamming_pair`] pinned to an explicit variant.
///
/// # Panics
///
/// Panics when `variant` is not detected on this host or the slices
/// differ in length.
pub fn hamming_pair_with(variant: Variant, a: &[u64], b: &[u64]) -> u32 {
    assert!(
        is_detected(variant),
        "variant {} is not supported on this host",
        variant.name()
    );
    assert_eq!(a.len(), b.len(), "word slices must be equal length");
    (kernels_of(variant).pair)(a, b)
}

/// Dispatched certify pack behind [`crate::bitvec::certify_signs_into`],
/// which checks the buffer contract first.
#[inline]
pub(crate) fn certify_signs(
    values: &[f32],
    bounds: &[f32],
    scale: f32,
    signs: &mut [u64],
    uncertain: &mut [u64],
) {
    (kernels_of(active()).certify_signs)(values, bounds, scale, signs, uncertain);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_width_rows_have_zero_distance() {
        let mut out = [7u32; 3];
        hamming_range(&[], 0, &[], &mut out);
        assert_eq!(out, [0, 0, 0]);
    }

    #[test]
    fn every_detected_variant_matches_scalar_on_a_smoke_slab() {
        let wpr = 5;
        let slab: Vec<u64> = (0..40u64)
            .map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15))
            .collect();
        let query: Vec<u64> = (0..wpr as u64)
            .map(|i| !i.wrapping_mul(0x85EB_CA6B))
            .collect();
        let mut want = vec![0u32; slab.len() / wpr];
        hamming_range_with(Variant::Scalar, &slab, wpr, &query, &mut want);
        for &v in detected() {
            let mut got = vec![0u32; want.len()];
            hamming_range_with(v, &slab, wpr, &query, &mut got);
            assert_eq!(got, want, "variant {}", v.name());
            for (row, &w) in want.iter().enumerate() {
                let a = &slab[row * wpr..(row + 1) * wpr];
                assert_eq!(
                    hamming_pair_with(v, a, &query),
                    w,
                    "variant {} row {row}",
                    v.name()
                );
            }
        }
    }
}

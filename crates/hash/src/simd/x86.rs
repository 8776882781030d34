//! x86-64 Hamming kernels: AVX2 Harley–Seal popcount and AVX-512
//! `VPOPCNTDQ`.
//!
//! Selected at runtime by the dispatch table in [`super`]; the plain
//! wrapper functions at the bottom are the only entries the table
//! installs, and it installs them **only after**
//! `is_x86_feature_detected!` confirmed the features — that detection
//! is the soundness argument for every `unsafe` in this file.
//!
//! The AVX2 path is the published state of the art for this shape
//! (Muła/Kurz/Lemire, "Faster Population Counts Using AVX2
//! Instructions"): per 256-bit lane a nibble-LUT `vpshufb` popcount,
//! and across groups of four lanes a Harley–Seal carry-save adder that
//! replaces four per-lane popcounts with three plus two CSAs. The
//! AVX-512 path uses the dedicated `vpopcntq` instruction over 512-bit
//! blocks. Both paths are exact integer popcounts — bit-identical to
//! the scalar oracle by construction, and pinned against it by the
//! per-width differential suite.

#![cfg(target_arch = "x86_64")]

use std::arch::x86_64::*;

// ---------------------------------------------------------------------
// AVX2: Harley–Seal carry-save popcount over 256-bit lanes.
// ---------------------------------------------------------------------

/// Unaligned 256-bit load of `words[at..at + 4]`.
#[inline]
#[target_feature(enable = "avx2")]
fn load256(words: &[u64], at: usize) -> __m256i {
    debug_assert!(at + 4 <= words.len());
    // SAFETY: the debug_assert documents the caller contract (all call
    // sites below advance `at` in bounds-checked strides of 4), the
    // source is a live `&[u64]` allocation, and `_mm256_loadu_si256`
    // has no alignment requirement — this reads 32 in-bounds bytes.
    unsafe { _mm256_loadu_si256(words.as_ptr().add(at).cast()) }
}

/// Per-byte popcount of one 256-bit lane via the nibble-LUT `vpshufb`
/// trick: each byte is split into two nibbles, both looked up in a
/// 16-entry popcount table, and the halves summed. Every output byte
/// is ≤ 8.
#[inline]
#[target_feature(enable = "avx2")]
fn popcnt_bytes(v: __m256i) -> __m256i {
    #[rustfmt::skip]
    let lut = _mm256_setr_epi8(
        0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4,
        0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4,
    );
    let nibble = _mm256_set1_epi8(0x0f);
    let lo = _mm256_and_si256(v, nibble);
    let hi = _mm256_and_si256(_mm256_srli_epi16::<4>(v), nibble);
    _mm256_add_epi8(_mm256_shuffle_epi8(lut, lo), _mm256_shuffle_epi8(lut, hi))
}

/// One Harley–Seal carry-save adder step: compresses three bit vectors
/// of weight 1 into one of weight 1 (`sum`) and one of weight 2
/// (`carry`), so their popcounts satisfy
/// `pop(a) + pop(b) + pop(c) = pop(sum) + 2·pop(carry)`.
#[inline]
#[target_feature(enable = "avx2")]
fn csa(a: __m256i, b: __m256i, c: __m256i) -> (__m256i, __m256i) {
    let u = _mm256_xor_si256(a, b);
    let sum = _mm256_xor_si256(u, c);
    let carry = _mm256_or_si256(_mm256_and_si256(a, b), _mm256_and_si256(u, c));
    (sum, carry)
}

/// Hamming distance between two equal-length word slices on AVX2.
///
/// Groups of four XORed lanes (16 words) go through the Harley–Seal
/// compression; remaining full lanes take the plain per-lane LUT
/// popcount; tail words (< 4) use scalar `count_ones`. Byte counts are
/// reduced to quadword sums with `vpsadbw` (maximum per-byte value
/// before reduction is 8 + 2·16 = 40, far from overflow).
#[target_feature(enable = "avx2")]
fn pair_avx2(a: &[u64], b: &[u64]) -> u32 {
    debug_assert_eq!(a.len(), b.len());
    let n = a.len();
    let zero = _mm256_setzero_si256();
    let mut qacc = zero; // four u64 partial sums
    let mut i = 0usize;
    while i + 16 <= n {
        let x0 = _mm256_xor_si256(load256(a, i), load256(b, i));
        let x1 = _mm256_xor_si256(load256(a, i + 4), load256(b, i + 4));
        let x2 = _mm256_xor_si256(load256(a, i + 8), load256(b, i + 8));
        let x3 = _mm256_xor_si256(load256(a, i + 12), load256(b, i + 12));
        // Harley–Seal: 4 weight-1 vectors → 1 weight-1 + 2 weight-2.
        let (s1, c1) = csa(x0, x1, x2);
        let (s2, c2) = csa(s1, x3, zero);
        let w1 = popcnt_bytes(s2);
        let w2 = _mm256_add_epi8(popcnt_bytes(c1), popcnt_bytes(c2));
        let bytes = _mm256_add_epi8(w1, _mm256_add_epi8(w2, w2));
        qacc = _mm256_add_epi64(qacc, _mm256_sad_epu8(bytes, zero));
        i += 16;
    }
    while i + 4 <= n {
        let x = _mm256_xor_si256(load256(a, i), load256(b, i));
        qacc = _mm256_add_epi64(qacc, _mm256_sad_epu8(popcnt_bytes(x), zero));
        i += 4;
    }
    let mut total = (_mm256_extract_epi64::<0>(qacc)
        + _mm256_extract_epi64::<1>(qacc)
        + _mm256_extract_epi64::<2>(qacc)
        + _mm256_extract_epi64::<3>(qacc)) as u32;
    while i < n {
        total += (a[i] ^ b[i]).count_ones();
        i += 1;
    }
    total
}

/// Range kernel on AVX2: one [`pair_avx2`] per contiguous row.
#[target_feature(enable = "avx2")]
fn range_avx2(slab: &[u64], wpr: usize, query: &[u64], out: &mut [u32]) {
    for (row_words, o) in slab.chunks_exact(wpr).zip(out.iter_mut()) {
        *o = pair_avx2(row_words, query);
    }
}

// ---------------------------------------------------------------------
// AVX-512: hardware per-quadword popcount (VPOPCNTDQ).
// ---------------------------------------------------------------------

/// Unaligned 512-bit load of `words[at..at + 8]`.
#[inline]
#[target_feature(enable = "avx512f")]
fn load512(words: &[u64], at: usize) -> __m512i {
    debug_assert!(at + 8 <= words.len());
    // SAFETY: the debug_assert documents the caller contract (call
    // sites advance `at` in bounds-checked strides of 8), the source is
    // a live `&[u64]` allocation, and `_mm512_loadu_si512` has no
    // alignment requirement — this reads 64 in-bounds bytes.
    unsafe { _mm512_loadu_si512(words.as_ptr().add(at).cast()) }
}

/// Hamming distance between two equal-length word slices using
/// `vpopcntq`: XOR, per-quadword hardware popcount, quadword
/// accumulate; tail words (< 8) use scalar `count_ones`.
#[target_feature(enable = "avx512f,avx512vpopcntdq")]
fn pair_avx512(a: &[u64], b: &[u64]) -> u32 {
    debug_assert_eq!(a.len(), b.len());
    let n = a.len();
    let mut acc = _mm512_setzero_si512();
    let mut i = 0usize;
    while i + 8 <= n {
        let x = _mm512_xor_si512(load512(a, i), load512(b, i));
        acc = _mm512_add_epi64(acc, _mm512_popcnt_epi64(x));
        i += 8;
    }
    let mut total = _mm512_reduce_add_epi64(acc) as u32;
    while i < n {
        total += (a[i] ^ b[i]).count_ones();
        i += 1;
    }
    total
}

/// Range kernel on AVX-512: one [`pair_avx512`] per contiguous row.
#[target_feature(enable = "avx512f,avx512vpopcntdq")]
fn range_avx512(slab: &[u64], wpr: usize, query: &[u64], out: &mut [u32]) {
    for (row_words, o) in slab.chunks_exact(wpr).zip(out.iter_mut()) {
        *o = pair_avx512(row_words, query);
    }
}

// ---------------------------------------------------------------------
// Plain-ABI wrappers — the only symbols the dispatch table installs.
// ---------------------------------------------------------------------

/// [`super::hamming_range`] entry for [`super::Variant::Avx2`].
pub(super) fn hamming_range_avx2(slab: &[u64], wpr: usize, query: &[u64], out: &mut [u32]) {
    // SAFETY: the dispatch table installs this wrapper only for
    // `Variant::Avx2`, which `detected()` lists solely after
    // `is_x86_feature_detected!("avx2")` returned true on this host.
    unsafe { range_avx2(slab, wpr, query, out) }
}

/// [`super::hamming_pair`] entry for [`super::Variant::Avx2`].
pub(super) fn hamming_pair_avx2(a: &[u64], b: &[u64]) -> u32 {
    // SAFETY: installed only for `Variant::Avx2`, which `detected()`
    // lists solely after `is_x86_feature_detected!("avx2")` succeeded.
    unsafe { pair_avx2(a, b) }
}

/// [`super::hamming_range`] entry for [`super::Variant::Avx512`].
pub(super) fn hamming_range_avx512(slab: &[u64], wpr: usize, query: &[u64], out: &mut [u32]) {
    // SAFETY: installed only for `Variant::Avx512`, which `detected()`
    // lists solely after `is_x86_feature_detected!` confirmed both
    // "avx512f" and "avx512vpopcntdq" on this host.
    unsafe { range_avx512(slab, wpr, query, out) }
}

/// [`super::hamming_pair`] entry for [`super::Variant::Avx512`].
pub(super) fn hamming_pair_avx512(a: &[u64], b: &[u64]) -> u32 {
    // SAFETY: installed only for `Variant::Avx512`, which `detected()`
    // lists solely after `is_x86_feature_detected!` confirmed both
    // "avx512f" and "avx512vpopcntdq" on this host.
    unsafe { pair_avx512(a, b) }
}

//! AVX-512 patch-projection kernels: the dense 4-row × 64-column tile
//! and the tap-broadcast row tile of [`crate::ops::project`].
//!
//! Selected at runtime by [`crate::ops::project`] when the active
//! variant is [`super::Variant::Avx512`]. The plain wrapper functions at
//! the bottom are the only entries, and each takes an [`Avx512Token`],
//! which exists only while that variant is active — and the variant is
//! listed **only after** `is_x86_feature_detected!` confirmed `avx512f`.
//! That detection is the soundness argument for every `unsafe` in this
//! file.
//!
//! # Fused terms
//!
//! Every term is `acc = _mm512_fmadd_ps(x, r, acc)`, in ascending
//! patch-column order, from `+0.0` (dense) or from the partial sums of
//! earlier column tiles (broadcast). Lanes never mix, so every output
//! keeps its own serial chain, with one rounding per term where the
//! portable kernels round the multiply and the add: the value can differ
//! from theirs in its last bits. In exchange the 4×64 tile peaks at
//! 140–159 GFLOP/s against 84–88 for a separate multiply and add (2-vCPU
//! AVX-512 Xeon). The engine's sign-certified hash path recomputes
//! exactly every lane whose sign the error bound does not prove
//! (`crates/core/src/certify.rs`). The patch norms the broadcast
//! accumulates stay a separate multiply and add.

#![cfg(target_arch = "x86_64")]

use std::arch::x86_64::*;

use super::Avx512Token;
use crate::ops::project::KT;

/// Output columns per dense register tile: four 16-lane vectors.
const JT: usize = 64;

/// Loads the 16 floats `src[at..at + 16]`.
#[inline]
#[target_feature(enable = "avx512f")]
fn load16(src: &[f32], at: usize) -> __m512 {
    let lanes = &src[at..at + 16];
    // SAFETY: `lanes` is a bounds-checked 16-element slice of a live
    // allocation; `_mm512_loadu_ps` has no alignment requirement and
    // reads exactly its 64 bytes.
    unsafe { _mm512_loadu_ps(lanes.as_ptr()) }
}

/// Stores `v` into the 16 floats `dst[at..at + 16]`.
#[inline]
#[target_feature(enable = "avx512f")]
fn store16(dst: &mut [f32], at: usize, v: __m512) {
    let lanes = &mut dst[at..at + 16];
    // SAFETY: `lanes` is a bounds-checked, exclusively borrowed
    // 16-element slice; the unaligned store writes exactly its 64 bytes.
    unsafe { _mm512_storeu_ps(lanes.as_mut_ptr(), v) }
}

/// The lane mask enabling the first `lanes.min(16)` lanes.
#[inline]
fn lane_mask(lanes: usize) -> __mmask16 {
    if lanes >= 16 {
        u16::MAX
    } else {
        (1u16 << lanes) - 1
    }
}

/// Loads the first `lanes` (≤ 16) floats of `src[at..]`, zeroing the
/// other lanes.
#[inline]
#[target_feature(enable = "avx512f")]
fn load_lanes(src: &[f32], at: usize, lanes: usize) -> __m512 {
    assert!(
        lanes <= 16 && (lanes == 0 || at + lanes <= src.len()),
        "lanes in bounds"
    );
    // SAFETY: the assert proves the enabled lanes `src[at..at + lanes]`
    // lie in the live slice; masked-off lanes are never accessed (and
    // with `lanes == 0` nothing is), so the possibly out-of-range
    // `wrapping_add` pointer is only ever dereferenced in bounds.
    unsafe { _mm512_maskz_loadu_ps(lane_mask(lanes), src.as_ptr().wrapping_add(at)) }
}

/// Stores the first `lanes` (≤ 16) lanes of `v` into `dst[at..]`.
#[inline]
#[target_feature(enable = "avx512f")]
fn store_lanes(dst: &mut [f32], at: usize, lanes: usize, v: __m512) {
    assert!(
        lanes <= 16 && (lanes == 0 || at + lanes <= dst.len()),
        "lanes in bounds"
    );
    // SAFETY: as in `load_lanes` — only the asserted in-bounds lanes of
    // the exclusively borrowed slice are written.
    unsafe { _mm512_mask_storeu_ps(dst.as_mut_ptr().wrapping_add(at), lane_mask(lanes), v) }
}

/// One `R`-row × `JT`-column tile of the dense block GEMM: rows
/// `r0..r0 + R` of `a` (`[_, n]`) times columns `jt..jt + w` of `b`
/// (`[n, k]`), into `out` (`[_, k]`). `R × 4` accumulators stay in
/// registers for the whole ascending walk over `n`. `FULL` tiles
/// (`w == JT`) use plain loads and stores; a column tail masks its lanes.
#[inline]
#[target_feature(enable = "avx512f")]
#[allow(clippy::too_many_arguments)]
fn dense_tile<const R: usize, const FULL: bool>(
    a: &[f32],
    r0: usize,
    n: usize,
    b: &[f32],
    k: usize,
    jt: usize,
    w: usize,
    out: &mut [f32],
) {
    // Plain loops, not `array::from_fn`: a closure would carry the
    // target feature into a generic caller that cannot inline it.
    let a = &a[r0 * n..(r0 + R) * n];
    let mut acc = [[_mm512_setzero_ps(); 4]; R];
    let mut bv = [_mm512_setzero_ps(); 4];
    for kk in 0..n {
        let at = kk * k + jt;
        if FULL {
            let row = &b[at..at + JT];
            for (v, b_v) in bv.iter_mut().enumerate() {
                *b_v = load16(row, 16 * v);
            }
        } else {
            for (v, b_v) in bv.iter_mut().enumerate() {
                *b_v = load_lanes(b, at + 16 * v, w.saturating_sub(16 * v).min(16));
            }
        }
        for (i, acc_r) in acc.iter_mut().enumerate() {
            let x = _mm512_set1_ps(a[i * n + kk]);
            for (a_v, &b_v) in acc_r.iter_mut().zip(&bv) {
                *a_v = _mm512_fmadd_ps(x, b_v, *a_v);
            }
        }
    }
    for (i, acc_r) in acc.iter().enumerate() {
        let at = (r0 + i) * k + jt;
        for (v, &a_v) in acc_r.iter().enumerate() {
            if FULL {
                store16(out, at + 16 * v, a_v);
            } else {
                store_lanes(out, at + 16 * v, w.saturating_sub(16 * v).min(16), a_v);
            }
        }
    }
}

/// The dense block GEMM `out[rows, k] = a[rows, n] · b[n, k]` over
/// 4-row tiles (sixteen `zmm` accumulators), 1-row tiles for the
/// `rows % 4` tail, and masked lanes for the `k % 64` column tail.
#[target_feature(enable = "avx512f")]
fn dense_512(a: &[f32], rows: usize, n: usize, b: &[f32], k: usize, out: &mut [f32]) {
    let quads = rows / 4 * 4;
    let full = k / JT * JT;
    for r0 in (0..quads).step_by(4) {
        for jt in (0..full).step_by(JT) {
            dense_tile::<4, true>(a, r0, n, b, k, jt, JT, out);
        }
        if full < k {
            dense_tile::<4, false>(a, r0, n, b, k, full, k - full, out);
        }
    }
    for r0 in quads..rows {
        for jt in (0..full).step_by(JT) {
            dense_tile::<1, true>(a, r0, n, b, k, jt, JT, out);
        }
        if full < k {
            dense_tile::<1, false>(a, r0, n, b, k, full, k - full, out);
        }
    }
}

/// One row's taps `from..end` with column in `c0..c1`, each broadcast
/// across the `KT`-wide packed `strip` row of its column and added into
/// `tile` held in eight `zmm` accumulators (and, with `NORM`, its square
/// into `norm`, in scalar). Returns where the next column tile resumes.
#[target_feature(enable = "avx512f")]
#[allow(clippy::too_many_arguments)]
fn row_tile_512<const NORM: bool>(
    tap_col: &[u32],
    tap_x: &[f32],
    from: usize,
    end: usize,
    (c0, c1): (usize, usize),
    strip: &[f32],
    tile: &mut [f32; KT],
    norm: &mut f32,
) -> usize {
    let mut acc = [_mm512_setzero_ps(); KT / 16];
    for (v, a_v) in acc.iter_mut().enumerate() {
        *a_v = load16(tile, 16 * v);
    }
    let mut nrm = *norm;
    let mut i = from;
    while i < end {
        let col = tap_col[i] as usize;
        if col >= c1 {
            break;
        }
        let x = tap_x[i];
        if NORM {
            nrm += x * x;
        }
        let rv: &[f32; KT] = strip[(col - c0) * KT..(col - c0 + 1) * KT]
            .try_into()
            .expect("KT-wide tile");
        let xv = _mm512_set1_ps(x);
        for (v, a_v) in acc.iter_mut().enumerate() {
            *a_v = _mm512_fmadd_ps(xv, load16(rv, 16 * v), *a_v);
        }
        i += 1;
    }
    for (v, &a_v) in acc.iter().enumerate() {
        store16(tile, 16 * v, a_v);
    }
    *norm = nrm;
    i
}

// ---------------------------------------------------------------------
// Plain-ABI wrappers — the only symbols the projection calls.
// ---------------------------------------------------------------------

/// `matmul_dense_into`'s contract on AVX-512, with fused terms: the
/// dense branch of the projection for [`super::Variant::Avx512`].
///
/// # Panics
///
/// Panics when a slice length disagrees with its stated dimensions.
// analyze: alloc-free
pub(crate) fn dense_avx512(
    _: Avx512Token,
    a: &[f32],
    rows: usize,
    n: usize,
    b: &[f32],
    k: usize,
    out: &mut [f32],
) {
    assert_eq!(a.len(), rows * n, "lhs buffer must be rows*n");
    assert_eq!(b.len(), n * k, "rhs buffer must be n*k");
    assert_eq!(out.len(), rows * k, "out buffer must be rows*k");
    // SAFETY: an `Avx512Token` exists only while the active variant is
    // `Variant::Avx512`, which `detected()` lists solely after
    // `is_x86_feature_detected!` confirmed "avx512f" (the only feature
    // this kernel uses).
    unsafe { dense_512(a, rows, n, b, k, out) }
}

/// The tap-broadcast row tile of the projection on AVX-512 (the
/// portable row tile's contract, with fused terms).
// analyze: alloc-free
#[allow(clippy::too_many_arguments)]
pub(crate) fn row_tile_avx512<const NORM: bool>(
    _: Avx512Token,
    tap_col: &[u32],
    tap_x: &[f32],
    from: usize,
    end: usize,
    c: (usize, usize),
    strip: &[f32],
    tile: &mut [f32; KT],
    norm: &mut f32,
) -> usize {
    // SAFETY: an `Avx512Token` exists only while the active variant is
    // `Variant::Avx512`, which `detected()` lists solely after
    // `is_x86_feature_detected!` confirmed "avx512f" (the only feature
    // this kernel uses).
    unsafe { row_tile_512::<NORM>(tap_col, tap_x, from, end, c, strip, tile, norm) }
}

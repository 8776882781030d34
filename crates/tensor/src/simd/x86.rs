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
//! accumulates stay a separate multiply and add. A dense block's
//! `k % 64` column tail runs the portable tile, with exact terms.
//!
//! # Epilogue
//!
//! A finished tile's accumulators go to [`finish_512`]: the sign
//! epilogue compares whole 64-bit words in registers, and stores or a
//! partial word take the portable epilogue from a stack tile.

#![cfg(target_arch = "x86_64")]

use std::arch::x86_64::*;

use super::Avx512Token;
use crate::ops::project::{Epilogue, RowTile, KT};

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

/// Finishes an `R`-row tile's accumulators `acc` (`V` vectors a row,
/// rows `r0..r0 + R`, columns `j0..j0 + w`, `j0` a multiple of 64,
/// `w ≤ 16·V`) into `ep`. The sign epilogue of whole words, the engine's
/// case, compares them in registers: per word the 64 bounds are loaded
/// once for all `R` rows ([`sign_word_512`]). Stores and a partial last
/// word take the portable epilogue from a stack tile ([`spill_512`]).
/// The accumulators come by value, so the tile's own stay in registers
/// through its walk over `n`.
#[target_feature(enable = "avx512f")]
fn finish_512<const R: usize, const V: usize>(
    ep: &mut Epilogue<'_>,
    r0: usize,
    j0: usize,
    w: usize,
    acc: [[__m512; V]; R],
) {
    let st = match ep {
        Epilogue::Signs(st) if w == 16 * V => st,
        _ => {
            for (i, acc_r) in acc.into_iter().enumerate() {
                spill_512(ep, r0 + i, j0, w, acc_r);
            }
            return;
        }
    };
    let (k, cert) = (st.cert.bounds.len(), &mut st.cert);
    for q in 0..V / 4 {
        let j = j0 + 64 * q;
        let bounds = &cert.bounds[j..j + 64];
        let c = [0, 16, 32, 48].map(|at| load16(bounds, at));
        for (i, acc_r) in acc.iter().enumerate() {
            let r = r0 + i;
            let (scale, amp) = st.factors[r];
            let mut y = [
                acc_r[4 * q],
                acc_r[4 * q + 1],
                acc_r[4 * q + 2],
                acc_r[4 * q + 3],
            ];
            if let Some((_, z)) = cert.noise {
                let (amp, z) = (_mm512_set1_ps(amp), &z[r * k + j..r * k + j + 64]);
                for (v, y_v) in y.iter_mut().enumerate() {
                    *y_v = _mm512_add_ps(*y_v, _mm512_mul_ps(amp, load16(z, 16 * v)));
                }
            }
            let at = j / 64 * st.rows + r;
            (cert.signs[at], cert.uncertain[at]) = sign_word_512(y, c, scale);
        }
    }
}

/// The sign and uncertain words of 64 values `y` against the bounds `c`
/// of their columns. Per 16 lanes a `_CMP_GE_OQ` against `+0.0` gives a
/// quarter of the sign word, and a `_CMP_GT_OQ` of `|y|` (the sign bit
/// cleared, as `f32::abs` does) against `scale · c_j` (one rounded
/// multiply, as the portable `scale * c`) the lanes the bound certifies.
/// Both predicates are ordered and quiet, so they are exactly Rust's
/// `>=` and `>`: NaN packs 0 and fails the bound, and `-0.0 >= 0.0`
/// holds.
#[inline]
#[target_feature(enable = "avx512f")]
fn sign_word_512(y: [__m512; 4], c: [__m512; 4], scale: f32) -> (u64, u64) {
    let scale = _mm512_set1_ps(scale);
    let (mut sign, mut sure) = (0u64, 0u64);
    for (v, (y, c)) in y.into_iter().zip(c).enumerate() {
        let ge = _mm512_cmp_ps_mask::<_CMP_GE_OQ>(y, _mm512_setzero_ps());
        let gt = _mm512_cmp_ps_mask::<_CMP_GT_OQ>(_mm512_abs_ps(y), _mm512_mul_ps(scale, c));
        sign |= u64::from(ge) << (16 * v);
        sure |= u64::from(gt) << (16 * v);
    }
    (sign, !sure)
}

/// [`finish_512`] off the register path: the first `w` values through
/// the portable epilogue, from a stack tile.
#[cold]
#[target_feature(enable = "avx512f")]
fn spill_512<const V: usize>(
    ep: &mut Epilogue<'_>,
    r: usize,
    j0: usize,
    w: usize,
    acc: [__m512; V],
) {
    let mut tile = [0.0f32; KT];
    for (v, &a_v) in acc.iter().enumerate() {
        store16(&mut tile, 16 * v, a_v);
    }
    ep.finish(r, j0, tile, w);
}

/// One `R`-row × `JT`-column tile of the dense block GEMM: rows
/// `r0..r0 + R` of `a` (`[_, n]`) times columns `jt..jt + JT` of `b`
/// (`[n, k]`), finished into `ep`. `R × 4` accumulators stay in
/// registers for the whole ascending walk over `n`.
#[inline]
#[target_feature(enable = "avx512f")]
fn dense_tile<const R: usize>(
    a: &[f32],
    r0: usize,
    n: usize,
    b: &[f32],
    k: usize,
    jt: usize,
    ep: &mut Epilogue<'_>,
) {
    // Plain loops, not `array::from_fn`: a closure would carry the
    // target feature into a generic caller that cannot inline it. Rows of
    // length `n`, walked by `kk < n`, need no bounds check in the loop.
    let mut rows = [&a[..0]; R];
    for (i, row) in rows.iter_mut().enumerate() {
        *row = &a[(r0 + i) * n..(r0 + i + 1) * n];
    }
    let mut acc = [[_mm512_setzero_ps(); 4]; R];
    let mut bv = [_mm512_setzero_ps(); 4];
    for (kk, b_row) in (0..n).zip(b.chunks_exact(k)) {
        let row = &b_row[jt..jt + JT];
        for (v, b_v) in bv.iter_mut().enumerate() {
            *b_v = load16(row, 16 * v);
        }
        for (row, acc_r) in rows.iter().zip(acc.iter_mut()) {
            let x = _mm512_set1_ps(row[kk]);
            for (a_v, &b_v) in acc_r.iter_mut().zip(&bv) {
                *a_v = _mm512_fmadd_ps(x, b_v, *a_v);
            }
        }
    }
    finish_512(ep, r0, jt, JT, acc);
}

/// The dense block GEMM `a[rows, n] · b[n, k]` over its whole 64-column
/// tiles: 4-row tiles (sixteen `zmm` accumulators) and 1-row tiles for
/// the `rows % 4` tail, each finished into `ep`.
#[target_feature(enable = "avx512f")]
fn dense_512(a: &[f32], rows: usize, n: usize, b: &[f32], k: usize, ep: &mut Epilogue<'_>) {
    let quads = rows / 4 * 4;
    for jt in (0..k / JT * JT).step_by(JT) {
        for r0 in (0..quads).step_by(4) {
            dense_tile::<4>(a, r0, n, b, k, jt, ep);
        }
        for r0 in quads..rows {
            dense_tile::<1>(a, r0, n, b, k, jt, ep);
        }
    }
}

/// One row tile `t` of the tap broadcast: its taps, each broadcast across
/// the `KT`-wide packed `strip` row of its column, added into eight `zmm`
/// accumulators that start from `partial` (or `+0.0` on the first column
/// tile), with, under `NORM`, each square into `norm` in scalar. They go
/// back to `partial`, or on the last column tile to `ep` (with the row's
/// norm, now final). Returns where the next column tile resumes.
#[target_feature(enable = "avx512f")]
fn row_tile_512<const NORM: bool>(
    (tap_col, tap_x): (&[u32], &[f32]),
    t: RowTile,
    strip: &[f32],
    partial: &mut [f32; KT],
    norm: &mut f32,
    ep: &mut Epilogue<'_>,
) -> usize {
    let mut acc = [_mm512_setzero_ps(); KT / 16];
    if t.c0 > 0 {
        for (v, a_v) in acc.iter_mut().enumerate() {
            *a_v = load16(partial, 16 * v);
        }
    }
    let mut nrm = *norm;
    let (cols, xs) = (&tap_col[..t.end], &tap_x[..t.end]);
    let mut i = t.from;
    while i < t.end {
        let col = cols[i] as usize;
        if col >= t.c1 {
            break;
        }
        let x = xs[i];
        i += 1;
        if NORM {
            nrm += x * x;
        }
        let rv: &[f32; KT] = strip[(col - t.c0) * KT..(col - t.c0 + 1) * KT]
            .try_into()
            .expect("KT-wide tile");
        let xv = _mm512_set1_ps(x);
        for (v, a_v) in acc.iter_mut().enumerate() {
            *a_v = _mm512_fmadd_ps(xv, load16(rv, 16 * v), *a_v);
        }
    }
    if NORM {
        *norm = if t.last { nrm.sqrt() } else { nrm };
        if t.last {
            ep.set_norm(t.r, *norm);
        }
    }
    if t.last {
        finish_512(ep, t.r, t.kt, t.width, [acc]);
    } else {
        for (v, &a_v) in acc.iter().enumerate() {
            store16(partial, 16 * v, a_v);
        }
    }
    i
}

// ---------------------------------------------------------------------
// Plain-ABI wrappers — the only symbols the projection calls.
// ---------------------------------------------------------------------

/// The dense branch of the projection on AVX-512, with fused terms:
/// `a[rows, n] · b[n, k]` over the whole 64-column tiles (the caller
/// runs a `k % 64` tail), each finished tile into `ep`.
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
    ep: &mut Epilogue<'_>,
) {
    assert_eq!(a.len(), rows * n, "lhs buffer must be rows*n");
    assert_eq!(b.len(), n * k, "rhs buffer must be n*k");
    // SAFETY: an `Avx512Token` exists only while the active variant is
    // `Variant::Avx512`, which `detected()` lists solely after
    // `is_x86_feature_detected!` confirmed "avx512f" (the only feature
    // this kernel uses).
    unsafe { dense_512(a, rows, n, b, k, ep) }
}

/// The tap-broadcast row tile of the projection on AVX-512 (the
/// portable row tile's contract, with fused terms).
// analyze: alloc-free
pub(crate) fn row_tile_avx512<const NORM: bool>(
    _: Avx512Token,
    taps: (&[u32], &[f32]),
    t: RowTile,
    strip: &[f32],
    partial: &mut [f32; KT],
    norm: &mut f32,
    ep: &mut Epilogue<'_>,
) -> usize {
    // SAFETY: an `Avx512Token` exists only while the active variant is
    // `Variant::Avx512`, which `detected()` lists solely after
    // `is_x86_feature_detected!` confirmed "avx512f" (the only feature
    // this kernel uses).
    unsafe { row_tile_512::<NORM>(taps, t, strip, partial, norm, ep) }
}

//! The AVX-512 projection tile of [`crate::ops::project`]: 4 rows × 64
//! columns in sixteen `zmm` accumulators, walking one group of rows.
//!
//! It reads its operands in place. A group's values come from the
//! layer's (zero-padded) input through the source's offset table on a
//! dense layer, or packed `[len][4]` beside the group's union list on a
//! sparse one; `R` comes from its [`ProjPanels`]. Every step is one
//! contiguous, line-aligned 64-float panel row, four `zmm` loads shared
//! by the group's four rows.
//!
//! Selected at runtime by [`crate::ops::project`] when the active
//! variant is [`super::Variant::Avx512`]. The plain wrapper function at
//! the bottom is the only entry, and it takes an [`Avx512Token`], which
//! exists only while that variant is active — and the variant is listed
//! **only after** `is_x86_feature_detected!` confirmed `avx512f`. That
//! detection is the soundness argument for every `unsafe` in this file.
//!
//! # Fused terms
//!
//! Every term is `acc = _mm512_fmadd_ps(x, r, acc)`, in ascending
//! patch-column order, from `+0.0`. Lanes never mix, so every output
//! keeps its own serial chain, with one rounding per term where the
//! portable tile rounds the multiply and the add: the value can differ
//! from the portable one in its last bits. A step where a row is zero
//! adds that row nothing: `fma(±0.0, r, acc)` is `acc` rounded once,
//! exactly `acc` (or `+0.0` for a `-0.0` accumulator, which the
//! certificate treats alike). In exchange the 4×64 tile peaks at
//! 140–159 GFLOP/s against 84–88 for a separate multiply and add (2-vCPU
//! AVX-512 Xeon). The engine's sign-certified hash path recomputes
//! exactly every lane whose sign the error bound does not prove
//! (`crates/core/src/certify.rs`). A zero-padded last panel
//! (`k % 64 ≠ 0`) runs fused too; its padding lanes are never finished.
//!
//! # Epilogue
//!
//! A finished tile's accumulators go to [`finish_512`]: the sign
//! epilogue compares whole 64-bit words in registers, and stores or a
//! partial word take the portable epilogue from a stack tile.

#![cfg(target_arch = "x86_64")]

use std::arch::x86_64::*;

use super::Avx512Token;
use crate::ops::project::{windows, Epilogue, Groups, ProjPanels, Terms};

/// Output columns per register tile: four 16-lane vectors.
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

/// Finishes an `R`-row tile's accumulators `acc` (rows `r0..r0 + R`,
/// columns `j0..j0 + w`, `j0` a multiple of 64) into `ep`. The sign
/// epilogue of a whole word, the engine's case, compares it in
/// registers: the 64 bounds are loaded once for all `R` rows
/// ([`sign_word_512`]). Stores and a partial last word take the portable
/// epilogue from a stack tile ([`spill_512`]). The accumulators come by
/// value, so the tile's own stay in registers through its walk.
#[target_feature(enable = "avx512f")]
fn finish_512<const R: usize>(
    ep: &mut Epilogue<'_>,
    r0: usize,
    j0: usize,
    w: usize,
    acc: [[__m512; 4]; R],
) {
    let st = match ep {
        Epilogue::Signs(st) if w == JT => st,
        _ => {
            for (i, acc_r) in acc.into_iter().enumerate() {
                spill_512(ep, r0 + i, j0, w, acc_r);
            }
            return;
        }
    };
    let cert = &mut st.cert;
    let bounds = &cert.bounds[j0..j0 + JT];
    let c = [0, 16, 32, 48].map(|at| load16(bounds, at));
    for (i, y) in acc.into_iter().enumerate() {
        let r = r0 + i;
        let at = j0 / JT * st.rows + r;
        (cert.signs[at], cert.uncertain[at]) = sign_word_512(y, c, st.factors[r]);
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
fn spill_512(ep: &mut Epilogue<'_>, r: usize, j0: usize, w: usize, acc: [__m512; 4]) {
    let mut tile = [0.0f32; JT];
    for (v, &a_v) in acc.iter().enumerate() {
        store16(&mut tile, 16 * v, a_v);
    }
    ep.finish(r, j0, tile, w);
}

/// Adds one step of a walk to an `R`-row tile: the rows' values `xs`
/// times the 64-float panel row `b_row`, loaded once for all `R` rows.
#[inline]
#[target_feature(enable = "avx512f")]
fn add_step<const R: usize>(acc: &mut [[__m512; 4]; R], xs: &[f32; R], b_row: &[f32]) {
    let mut bv = [_mm512_setzero_ps(); 4];
    for (v, b_v) in bv.iter_mut().enumerate() {
        *b_v = load16(b_row, 16 * v);
    }
    for (&x, acc_r) in xs.iter().zip(acc.iter_mut()) {
        let x = _mm512_set1_ps(x);
        for (a_v, &b_v) in acc_r.iter_mut().zip(&bv) {
            *a_v = _mm512_fmadd_ps(x, b_v, *a_v);
        }
    }
}

/// One `R`-row × 64-column tile: the group at row `r0`, its `terms`
/// times `panel` (one panel of `R`, output columns `jt..jt + w` of it
/// kept), finished into `ep`. `R × 4` accumulators stay in registers for
/// the whole ascending walk, which loads each step's panel row once for
/// all `R` rows.
#[inline]
#[target_feature(enable = "avx512f")]
fn union_tile<const R: usize>(
    terms: Terms<'_, R>,
    r0: usize,
    panel: &[f32],
    jt: usize,
    w: usize,
    ep: &mut Epilogue<'_>,
) {
    // Plain loops, not `array::map`: a closure would carry the target
    // feature into a generic caller that cannot inline it. The rows'
    // windows are equally long, so one bounds check on `o` covers all
    // `R` loads of a column.
    let mut acc = [[_mm512_setzero_ps(); 4]; R];
    match terms {
        Terms::InPlace { rows, off } => {
            let rows = windows(rows, off);
            for (&o, b_row) in off.iter().zip(panel.chunks_exact(JT)) {
                let mut xs = [0.0f32; R];
                for (x, row) in xs.iter_mut().zip(&rows) {
                    *x = row[o];
                }
                add_step(&mut acc, &xs, b_row);
            }
        }
        Terms::Listed { cols, vals } => {
            for (&col, xs) in cols.iter().zip(vals.chunks_exact(R)) {
                let xs = xs.try_into().expect("R rows");
                add_step(&mut acc, xs, &panel[col as usize * JT..][..JT]);
            }
        }
    }
    finish_512(ep, r0, jt, w, acc);
}

/// The tile over every panel: 4-row groups (sixteen `zmm` accumulators)
/// and the 1-row groups after them, each finished into `ep`. A
/// zero-padded last panel runs whole; its padding lanes are not
/// finished.
#[target_feature(enable = "avx512f")]
fn union_512(g: &Groups<'_>, panels: &ProjPanels, ep: &mut Epilogue<'_>) {
    let k = panels.k();
    for jt in (0..k).step_by(JT) {
        let (panel, w) = (panels.panel(jt / JT), JT.min(k - jt));
        for r0 in (0..g.full).step_by(4) {
            union_tile(g.terms::<4>(r0), r0, panel, jt, w, ep);
        }
        for r0 in g.full..g.rows {
            union_tile(g.terms::<1>(r0), r0, panel, jt, w, ep);
        }
    }
}

// ---------------------------------------------------------------------
// Plain-ABI wrapper — the only symbol the projection calls.
// ---------------------------------------------------------------------

/// The projection tile on AVX-512, with fused terms: every group of
/// `groups` (4-row groups, then single rows) times every panel of
/// `panels`, each finished tile into `ep`.
// analyze: alloc-free
pub(crate) fn union_avx512(
    _: Avx512Token,
    groups: &Groups<'_>,
    panels: &ProjPanels,
    ep: &mut Epilogue<'_>,
) {
    assert_eq!(groups.group, 4, "the AVX-512 tile walks 4-row groups");
    // SAFETY: an `Avx512Token` exists only while the active variant is
    // `Variant::Avx512`, which `detected()` lists solely after
    // `is_x86_feature_detected!` confirmed "avx512f" (the only feature
    // this kernel uses).
    unsafe { union_512(groups, panels, ep) }
}

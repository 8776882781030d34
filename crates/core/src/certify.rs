//! Sign-certified hashing: a fused multiply-add projection, an error
//! bound that proves each hash bit, and an exact recompute for the lanes
//! it cannot prove.
//!
//! A hash bit is the sign of one projection `y_j = x·R[:, j]`, packed
//! as `y_j >= 0.0`.
//! The engine needs that predicate exactly as the serial
//! multiply-then-add chain gives it, not the float itself. So
//! [`SignHasher`] projects each sub-block with fused multiply-add tiles
//! whose epilogue packs the signs straight from the accumulators
//! ([`project_patches_signs_into`]), and lane `j` keeps the fused sign
//! only when an error bound proves that the exact chain has the same
//! one. Every other lane is recomputed with the exact chain
//! ([`ProjectScratch::exact_element`]) and its bit replaced. The sign
//! words and norms are therefore bit-identical to im2col →
//! `matmul_dense_into` → `pack_signs_into`, and so are the
//! logits, the wire bytes and the modeled CAM cost. Only kernel time
//! changes. Compile hashes the kernels the same way, through the same
//! [`Projection`] ([`crate::CompiledTile::compile`]), so every artifact
//! byte passes through this certificate too.
//!
//! # The bound
//!
//! Lane `j` of a row keeps its fused sign when `|y| > B = 4·n·u·‖x‖·c_j`:
//! - `u = 2⁻²⁴`, the unit roundoff of `f32`, and `n` the patch width;
//! - `‖x‖` the row's norm, which both projection forms compute exactly
//!   as the oracle does; `B = +∞` when it is not finite, lies outside
//!   `[2⁻⁴⁰, 2⁴⁰]`, or `n > 2²⁰`;
//! - `c_j ≥ ‖R[:, j]‖`, derived once per tile in f64 and rounded up
//!   ([`column_bounds`]); it is `+∞` when the column norm lies outside
//!   `[2⁻⁴⁰, 2⁴⁰]`.
//!
//! `B` is evaluated in `f32` as `(4·n·u·‖x‖) · c_j`, two roundings, in
//! the tile epilogue, which compares while the accumulators are still in
//! registers (the `Signs` epilogue of `deepcam_tensor::ops::project`).
//!
//! # Proof
//!
//! 1. **Each chain is within `γ_n·Σ|x_i·r_i|` of the true dot product**,
//!    `γ_n = n·u / (1 − n·u)`. The exact chain rounds each product and
//!    each sum, the fused chain each multiply-add once; in both a term
//!    passes through at most `n` roundings of relative size `≤ u`
//!    (Higham, *Accuracy and Stability of Numerical Algorithms*, §3.1).
//!    Skipped zero taps contribute nothing. The range guards keep the
//!    chains away from both ends of `f32`: every term and partial sum is
//!    below `2⁸¹`, so nothing overflows, and a rounding in the subnormal
//!    range errs by at most `2⁻¹⁵⁰` absolutely — under `n·2⁻¹⁴⁸` over a
//!    chain, against `B ≥ n·2⁻¹⁰²`.
//! 2. **`B` is more than twice that gap.** By Cauchy–Schwarz
//!    `Σ|x_i·r_i| ≤ ‖x‖·‖R[:, j]‖ ≤ ‖x‖·c_j`, so the fused and exact values
//!    differ by at most `G = 2·γ_n·‖x‖·c_j`. With `n·u ≤ 1/16` the
//!    computed norm is at least `0.96·‖x‖`, and the two roundings in `B`
//!    lose a factor `(1 − u)²`, so `B ≥ 3.8·n·u·‖x‖·c_j` while
//!    `G ≤ 2.2·n·u·‖x‖·c_j`: `B > 1.7·G`.
//! 3. **A certified lane has the exact sign.** Its fused value has
//!    `|y| > B`, and the exact value lies within `G` of it, so `y_exact`
//!    is on the same side of zero, at least `B − G > 2⁻¹⁰⁴` from it, and
//!    `>= 0.0` packs the same bit.
//! 4. **NaN and ∞ fail closed.** A non-finite tap makes `‖x‖` non-finite,
//!    so `B = +∞`, and `|y| > +∞` is false for every `y`, `±∞` included;
//!    an ordered compare against NaN is false too. Every such lane takes
//!    the exact path, which reproduces whatever the oracle computes.
//!
//! The fix-up packs the exact chain's own sign, so an uncertain lane
//! packs exactly the oracle's bit whatever its value. A
//! row whose factor is `+∞` (a zero, huge or non-finite norm) has every
//! lane uncertain, and each is recomputed the same way. On Gaussian
//! rows a lane is uncertain with probability about `3.2·n^1.5·u` (`y`
//! is `N(0, ‖x‖²)` and `c_j ≈ √n`): 0.003% at `n = 27`, 0.26% at
//! `n = 576`.

use deepcam_tensor::ops::project::{
    project_patches_signs_into, PatchSource, ProjPanels, ProjectScratch, Signs,
};

use crate::record::Probe;

/// The unit roundoff of `f32`, `2⁻²⁴`.
const U: f32 = f32::EPSILON / 2.0;

/// The norms outside `[LO, HI]` certify nothing: inside it neither the
/// chains nor `B` overflow or lose the bound to underflow.
const LO: f32 = 1.0 / (1u64 << 40) as f32;
const HI: f32 = (1u64 << 40) as f32;

/// The widest patch the bound covers (`n·u ≤ 1/16`).
const MAX_WIDTH: usize = 1 << 20;

/// Upward-rounded bounds `c_j ≥ ‖R[:, j]‖` on the column norms of
/// `panels`: `+∞` where the norm lies outside `[2⁻⁴⁰, 2⁴⁰]` or is not
/// finite.
pub(crate) fn column_bounds(panels: &ProjPanels) -> Vec<f32> {
    let k = panels.k();
    let mut squares = vec![0.0f64; k.div_ceil(64) * 64];
    for (p, sums) in squares.chunks_exact_mut(64).enumerate() {
        for row in panels.panel(p).chunks_exact(64) {
            for (s, &r) in sums.iter_mut().zip(row) {
                *s += f64::from(r) * f64::from(r);
            }
        }
    }
    squares[..k]
        .iter()
        .map(|&s| {
            // Each square is exact in f64, and the sum and square root
            // err by under n·2⁻⁵³ ≤ 2⁻³³ relatively, so the 2⁻³⁰ margin
            // bounds the true norm; rounding up to f32 keeps it a bound.
            let c = s.sqrt() * (1.0 + 1.0 / (1u64 << 30) as f64);
            let up = c as f32;
            let up = if f64::from(up) < c { up.next_up() } else { up };
            if (LO..=HI).contains(&up) {
                up
            } else {
                f32::INFINITY
            }
        })
        .collect()
}

/// One layer's projection `R` as the certified hash reads it: its
/// 64-column panels and their [`column_bounds`]. Compile hashes the
/// weights through it and the engine the activations, so both sides of
/// every Hamming distance come from the same tiles.
pub(crate) struct Projection {
    pub(crate) panels: ProjPanels,
    pub(crate) bounds: Vec<f32>,
}

impl Projection {
    /// The layer's seeded Gaussian `R`, drawn straight into its panels
    /// ([`ProjPanels::generate`]).
    ///
    /// # Panics
    ///
    /// Panics if `n` or `k` is zero.
    pub(crate) fn generate(n: usize, k: usize, seed: u64) -> Self {
        Projection::new(ProjPanels::generate(n, k, seed))
    }

    /// `panels` with their bounds.
    pub(crate) fn new(panels: ProjPanels) -> Self {
        let bounds = column_bounds(&panels);
        Projection { panels, bounds }
    }

    /// Hashes every row of `src`, 64 rows at a time: the row-major
    /// sign words (`k.div_ceil(64)` a row, the bits past `k` zero), the
    /// row norms and the number of lanes recomputed exactly. The words
    /// and norms are those of [`SignHasher::hash`], so they equal the
    /// exact chain's signs and the materialised rows' norms.
    pub(crate) fn hash_all(&self, src: &PatchSource<'_>) -> (Vec<u64>, Vec<f32>, usize) {
        let (rows, k) = (src.len(), self.panels.k());
        let (wpr, block) = (k.div_ceil(64), rows.clamp(1, 64));
        let mut hasher = SignHasher::new(block, src, k);
        let mut queries = vec![0u64; block * wpr];
        let mut words = vec![0u64; rows * wpr];
        let mut norms = Vec::with_capacity(rows);
        let mut recomputed = 0;
        for g0 in (0..rows).step_by(block) {
            let nq = block.min(rows - g0);
            let queries = &mut queries[..nq * wpr];
            recomputed += hasher.hash(src, g0, nq, self, queries, &mut ());
            for (r, row) in words[g0 * wpr..][..nq * wpr]
                .chunks_exact_mut(wpr)
                .enumerate()
            {
                for (w, word) in row.iter_mut().enumerate() {
                    *word = queries[w * nq + r];
                }
            }
            norms.extend_from_slice(&hasher.norms()[..nq]);
        }
        (words, norms, recomputed)
    }
}

/// The row factor `4·n·u·‖x‖` of the bound, or `+∞` when the row
/// certifies nothing.
fn row_scale(n: usize, norm: f32) -> f32 {
    if n <= MAX_WIDTH && (LO..=HI).contains(&norm) {
        (4 * n) as f32 * U * norm
    } else {
        f32::INFINITY
    }
}

/// Per-chunk buffers of the certified hash of one sub-block at a time,
/// allocated once per chunk, never per block, and only for what the
/// layer uses: the projection branch's own buffers.
pub(crate) struct SignHasher {
    scratch: ProjectScratch,
    /// Per row of the block, its uncertain words ORed together.
    any: Vec<u64>,
    norms: Vec<f32>,
    /// Word-major uncertain words, laid out as the queries.
    uncertain: Vec<u64>,
}

impl SignHasher {
    /// Buffers for sub-blocks of up to `block` rows of `src`, hashed to
    /// `k` bits.
    pub(crate) fn new(block: usize, src: &PatchSource<'_>, k: usize) -> Self {
        SignHasher {
            scratch: ProjectScratch::new(block, src),
            any: vec![0; block],
            norms: vec![0.0; block],
            uncertain: vec![0; k.div_ceil(64) * block],
        }
    }

    /// Hashes patch rows `g0..g0 + nq` of `src` through `proj`. The fused
    /// tiles compare each finished tile against the bound
    /// ([`project_patches_signs_into`]) and write sign word `w` of row
    /// `r` to `queries[w·nq + r]`, word-major as the Hamming tile reads
    /// it; the row's norm stays in [`SignHasher::norms`]`()[r]`. Then
    /// every lane the bound left uncertain is recomputed exactly. The
    /// projection is charged to `probe`'s project phase. Returns the
    /// number of lanes recomputed.
    ///
    /// # Panics
    ///
    /// Panics when the block exceeds the buffers, or a length disagrees
    /// with `n`, `k` or `nq`.
    // analyze: alloc-free
    pub(crate) fn hash<P: Probe>(
        &mut self,
        src: &PatchSource<'_>,
        g0: usize,
        nq: usize,
        proj: &Projection,
        queries: &mut [u64],
        probe: &mut P,
    ) -> usize {
        let Projection { panels, bounds } = proj;
        let SignHasher {
            scratch,
            any,
            norms,
            uncertain,
        } = self;
        let uncertain = &mut uncertain[..queries.len()];
        let signs = Signs {
            bounds,
            row_scale,
            signs: queries,
            uncertain,
        };
        project_patches_signs_into(src, g0, nq, panels, scratch, signs, norms);
        probe.lap(|d| &mut d.project);
        // The uncertain lanes of one group of rows share its walk: they
        // are recomputed four at a time, their chains side by side.
        let mut recomputed = 0;
        let mut fix = |lanes: &[(usize, usize)]| {
            let mut exact = [0.0; 4];
            match *lanes {
                [a] => exact[0] = scratch.exact_elements(src, [a], panels)[0],
                [a, b] => exact[..2].copy_from_slice(&scratch.exact_elements(src, [a, b], panels)),
                _ => {
                    let mut four = [lanes[0]; 4];
                    four[..lanes.len()].copy_from_slice(lanes);
                    exact = scratch.exact_elements(src, four, panels);
                }
            }
            for (&(r, j), v) in lanes.iter().zip(exact) {
                let (word, b) = (&mut queries[j / 64 * nq + r], j % 64);
                *word = (*word & !(1 << b)) | (u64::from(v >= 0.0) << b);
            }
            recomputed += lanes.len();
        };
        // Each row's uncertain words ORed together: most groups have none.
        let any = &mut any[..nq];
        any.fill(0);
        for flag_row in uncertain.chunks_exact(nq) {
            for (a, &flags) in any.iter_mut().zip(flag_row) {
                *a |= flags;
            }
        }
        let mut lanes = [(0, 0); 4];
        let mut r = 0;
        while r < nq {
            let std::ops::Range { start: r0, end: r1 } = scratch.group_rows(r);
            r = r1;
            if any[r0..r1].iter().all(|&a| a == 0) {
                continue;
            }
            let mut m = 0;
            for (w, flag_row) in uncertain.chunks_exact(nq).enumerate() {
                for (r, &flags) in (r0..r1).zip(&flag_row[r0..r1]) {
                    let mut left = flags;
                    while left != 0 {
                        lanes[m] = (r, w * 64 + left.trailing_zeros() as usize);
                        left &= left - 1;
                        m += 1;
                        if m == 4 {
                            fix(&lanes);
                            m = 0;
                        }
                    }
                }
            }
            if m > 0 {
                fix(&lanes[..m]);
            }
        }
        recomputed
    }

    /// The norms of the rows [`SignHasher::hash`] last hashed (its first
    /// `nq` entries).
    pub(crate) fn norms(&self) -> &[f32] {
        &self.norms
    }

    /// Multiply-adds the last block's tiles ran per output column
    /// ([`ProjectScratch::terms`]).
    pub(crate) fn terms(&self) -> usize {
        self.scratch.terms()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use deepcam_hash::bitvec::{certify_signs_into, pack_signs_into};
    use deepcam_tensor::ops::conv::{im2col, Conv2dConfig};
    use deepcam_tensor::ops::project::project_patches_approx_into;
    use deepcam_tensor::rng::seeded_rng;
    use deepcam_tensor::simd::{active, detected, force_variant, Variant};
    use deepcam_tensor::tensor::matmul_dense_into;
    use deepcam_tensor::{Shape, Tensor};
    use std::sync::{Mutex, MutexGuard};

    const BLOCK: usize = 64;

    /// Held by every test that pins a variant: the pin is process-wide,
    /// and one test asserts what the fused tile does on `Avx512` alone.
    static PINNED: Mutex<()> = Mutex::new(());

    fn pin() -> MutexGuard<'static, ()> {
        PINNED.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// The oracle: im2col rows → `matmul_dense_into` →
    /// `pack_signs_into`, and the historical norm expression. Sign words
    /// are row-major.
    fn oracle(patches: &[f32], n: usize, proj: &[f32], k: usize) -> (Vec<u64>, Vec<u32>) {
        let rows = patches.len() / n;
        let wpr = k.div_ceil(64);
        let mut y = vec![0.0f32; rows * k];
        matmul_dense_into(patches, rows, n, proj, k, &mut y);
        let mut words = vec![0u64; rows * wpr];
        let mut norms = Vec::with_capacity(rows);
        for r in 0..rows {
            let norm = patches[r * n..(r + 1) * n]
                .iter()
                .map(|&v| v * v)
                .sum::<f32>()
                .sqrt();
            pack_signs_into(&y[r * k..(r + 1) * k], &mut words[r * wpr..(r + 1) * wpr]);
            norms.push(norm.to_bits());
        }
        (words, norms)
    }

    /// Hashes every row of `src` ([`Projection::hash_all`]); returns the
    /// row-major sign words, the norm bits and the recomputed lanes.
    fn certified(src: &PatchSource<'_>, proj: &[f32], k: usize) -> (Vec<u64>, Vec<u32>, usize) {
        let proj = Projection::new(ProjPanels::pack(proj, src.width(), k));
        let (words, norms, recomputed) = proj.hash_all(src);
        (
            words,
            norms.iter().map(|v| v.to_bits()).collect(),
            recomputed,
        )
    }

    /// Asserts the certified hash of `src` equals the oracle over its
    /// materialised rows `patches`; returns the recomputed lanes.
    fn check(src: &PatchSource<'_>, patches: &[f32], proj: &[f32], k: usize, what: &str) -> usize {
        let (want_words, want_norms) = oracle(patches, src.width(), proj, k);
        let (words, norms, recomputed) = certified(src, proj, k);
        assert_eq!(words, want_words, "sign words: {what}");
        assert_eq!(norms, want_norms, "norms: {what}");
        recomputed
    }

    fn gaussian(shape: &[usize], seed: u64) -> Tensor {
        deepcam_tensor::init::normal(&mut seeded_rng(seed), Shape::new(shape), 0.0, 1.0)
    }

    /// `t` with about `keep_pct`% of its entries kept and the rest `±0.0`.
    fn sparsify(mut t: Tensor, keep_pct: u64) -> Tensor {
        for (i, v) in t.data_mut().iter_mut().enumerate() {
            if (i as u64).wrapping_mul(2654435761) % 100 >= keep_pct {
                *v = if i % 3 == 0 { -0.0 } else { 0.0 };
            }
        }
        t
    }

    #[test]
    fn certified_signs_match_the_exact_oracle_on_every_variant() {
        let _pin = pin();
        let initial = active();
        let cfg = Conv2dConfig::new(8, 4, 3).with_padding(1);
        let n = cfg.patch_len();
        // Dense inputs walk every column in place, 20%-dense ones walk
        // group lists; row sources hold explicit rows of both kinds.
        let inputs = [
            ("dense", gaussian(&[2, 8, 9, 9], 11)),
            ("sparse", sparsify(gaussian(&[2, 8, 9, 9], 12), 20)),
        ];
        for &v in detected() {
            force_variant(v).expect("detected variant");
            for (density, x) in &inputs {
                let patches = im2col(x, &cfg).unwrap();
                let conv = PatchSource::conv(x, &cfg).unwrap();
                let rows = PatchSource::rows(patches.data(), n);
                for k in [256, 512, 768, 1024] {
                    let proj = gaussian(&[n, k], k as u64);
                    for (source, src) in [("conv", &conv), ("rows", &rows)] {
                        let what = format!("{} {density} {source} k {k}", v.name());
                        check(src, patches.data(), proj.data(), k, &what);
                    }
                }
            }
        }
        let _ = force_variant(initial);
    }

    #[test]
    fn adversarial_rows_take_the_exact_path() {
        let _pin = pin();
        let initial = active();
        let (n, k) = (8, 256);
        let proj = gaussian(&[n, k], 5);
        let r = proj.data();
        // Column 7's taps 0 and 1 cancel exactly:
        // fl(r1·r0) + fl(−r0·r1) = +0.0, while a fused second term
        // leaves the rounding error of the first product.
        let j = 7;
        let mut cancel = vec![0.0f32; n];
        (cancel[0], cancel[1]) = (r[k + j], -r[j]);
        // Scaled by powers of two the cancellation stays exact, and the
        // norm leaves [2⁻⁴⁰, 2⁴⁰]: every lane of those rows is uncertain.
        let scaled = |s: f32| cancel.iter().map(|&x| x * s).collect::<Vec<f32>>();
        let rows: Vec<(&str, Vec<f32>)> = vec![
            ("cancelling taps", cancel.clone()),
            ("huge cancelling taps", scaled(2f32.powi(45))),
            ("tiny cancelling taps", scaled(2f32.powi(-70))),
            ("subnormals", vec![1e-40; n]),
            (
                "mixed subnormals",
                vec![1e-40, -1e-40, 0.0, 1e-40, -0.0, 1e-40, 1e-40, -1e-40],
            ),
            (
                "huge",
                vec![1e30, -1e30, 1e30, 1e30, -1e30, 1e30, -1e30, 1e30],
            ),
            (
                "huge and tiny",
                vec![1e30, 1e-40, -1e30, 0.0, 1e-40, -1e30, 1.0, -1.0],
            ),
            ("NaN", vec![1.0, f32::NAN, -1.0, 0.5, 2.0, -0.25, 1.0, 3.0]),
            (
                "+inf",
                vec![1.0, 2.0, f32::INFINITY, 0.5, -2.0, -0.25, 1.0, 3.0],
            ),
            (
                "-inf",
                vec![1.0, 2.0, 0.5, 0.0, -2.0, f32::NEG_INFINITY, 1.0, 3.0],
            ),
            ("+0.0", vec![0.0; n]),
            ("-0.0", vec![-0.0; n]),
            ("±0.0", vec![0.0, -0.0, -0.0, 0.0, 0.0, -0.0, 0.0, -0.0]),
        ];
        for &v in detected() {
            force_variant(v).expect("detected variant");
            for (what, row) in &rows {
                let what = format!("{} {what}", v.name());
                let src = PatchSource::rows(row, n);
                let fixed = check(&src, row, r, k, &what);
                assert!(fixed > 0, "the fix-up never fired: {what}");
            }
        }
        // A column of zeros has a +∞ bound: its lane is recomputed on
        // every row, on both branches.
        let mut zero_col = proj.data().to_vec();
        for c in 0..n {
            zero_col[c * k + j] = 0.0;
        }
        let zero_panels = ProjPanels::pack(&zero_col, n, k);
        assert_eq!(column_bounds(&zero_panels)[j], f32::INFINITY);
        let x = gaussian(&[40, n], 6);
        let x_sparse = sparsify(gaussian(&[40, n], 7), 20);
        for &v in detected() {
            force_variant(v).expect("detected variant");
            for (what, x) in [("dense", &x), ("sparse", &x_sparse)] {
                let src = PatchSource::rows(x.data(), n);
                let what = format!("{} zero column {what}", v.name());
                let fixed = check(&src, x.data(), &zero_col, k, &what);
                assert!(fixed >= 40, "{what}: {fixed} lanes recomputed");
            }
        }
        let _ = force_variant(initial);
    }

    #[test]
    fn cancelling_rows_in_a_dense_block_are_fixed_up() {
        let _pin = pin();
        let initial = active();
        let (n, k) = (8, 256);
        let proj = gaussian(&[n, k], 5);
        let r = proj.data();
        // A column whose product p = fl(r[k + j]·r[j]) rounds down: the
        // fused chain fma(−r[j], r[k + j], p) leaves p − r[k + j]·r[j], a
        // negative value, where the exact chain cancels to +0.0. Its
        // fused sign bit is 0, the oracle's 1.
        let j = (0..k)
            .find(|&j| {
                let exact = f64::from(r[k + j]) * f64::from(r[j]);
                f64::from(r[k + j] * r[j]) < exact
            })
            .expect("a product that rounds down");
        let mut cancel = vec![0.0f32; n];
        (cancel[0], cancel[1]) = (r[k + j], -r[j]);
        // 62 rows, the cancelling row at 0 (a 4-row tile) and at 61 (the
        // 1-row tail); the rest dense Gaussian, so the block is 0.97
        // dense and walks every column in place in both projection forms.
        let rows = 62;
        let mut x = gaussian(&[rows, n], 8).data().to_vec();
        for at in [0, rows - 1] {
            x[at * n..(at + 1) * n].copy_from_slice(&cancel);
        }
        let src = PatchSource::rows(&x, n);
        let wpr = k / 64;
        for &v in detected() {
            force_variant(v).expect("detected variant");
            let mut scratch = ProjectScratch::new(BLOCK, &src);
            let (mut y, mut norms) = (vec![0.0; rows * k], vec![0.0; rows]);
            let panels = ProjPanels::pack(r, n, k);
            project_patches_approx_into(&src, 0, rows, &panels, &mut scratch, &mut y, &mut norms);
            let what = format!("{} dense block with cancelling rows", v.name());
            let (words, _, fixed) = certified(&src, r, k);
            let (want, _) = oracle(&x, n, r, k);
            assert_eq!(words, want, "sign words: {what}");
            for at in [0, rows - 1] {
                assert_eq!(want[at * wpr + j / 64] >> (j % 64) & 1, 1, "{what}");
                if v == Variant::Avx512 {
                    assert!(y[at * k + j] < 0.0, "{what}: the fused sign did not flip");
                } else {
                    assert_eq!(y[at * k + j].to_bits(), 0, "{what}: exact tile");
                }
            }
            assert!(fixed >= 2, "{what}: {fixed} lanes recomputed");
        }
        let _ = force_variant(initial);
    }

    #[test]
    fn a_cancelling_border_window_of_a_padded_conv_is_fixed_up() {
        let _pin = pin();
        let initial = active();
        // The padded twin of `cancelling_rows_in_a_dense_block_are_fixed_up`:
        // image 0's top-left window (row 0) reads five padding zeros and
        // input (0, 0), (0, 1), (1, 0), (1, 1) at columns 4, 5, 7 and 8.
        // Columns 4 and 5 cancel exactly, as taps 0 and 1 do there, and
        // 7 and 8 are zero.
        let cfg = Conv2dConfig::new(1, 4, 3).with_padding(1);
        let (n, k) = (cfg.patch_len(), 256);
        let proj = gaussian(&[n, k], 5);
        let r = proj.data();
        let j = (0..k)
            .find(|&j| {
                let exact = f64::from(r[5 * k + j]) * f64::from(r[4 * k + j]);
                f64::from(r[5 * k + j] * r[4 * k + j]) < exact
            })
            .expect("a product that rounds down");
        let mut x = gaussian(&[2, 1, 9, 9], 8);
        let img = x.data_mut();
        (img[0], img[1], img[9], img[10]) = (r[5 * k + j], -r[4 * k + j], 0.0, 0.0);
        let patches = im2col(&x, &cfg).unwrap();
        let src = PatchSource::conv(&x, &cfg).unwrap();
        assert!(src.dense(), "the layer walks every column in place");
        let panels = ProjPanels::pack(r, n, k);
        let (rows, wpr) = (src.len(), k / 64);
        for &v in detected() {
            force_variant(v).expect("detected variant");
            let mut scratch = ProjectScratch::new(BLOCK, &src);
            let (mut y, mut norms) = (vec![0.0; BLOCK * k], vec![0.0; BLOCK]);
            project_patches_approx_into(&src, 0, BLOCK, &panels, &mut scratch, &mut y, &mut norms);
            let what = format!("{} padded border window", v.name());
            let (words, _, fixed) = certified(&src, r, k);
            let (want, _) = oracle(patches.data(), n, r, k);
            assert_eq!(words.len(), rows * wpr);
            assert_eq!(words, want, "sign words: {what}");
            assert_eq!(want[j / 64] >> (j % 64) & 1, 1, "{what}");
            if v == Variant::Avx512 {
                assert!(y[j] < 0.0, "{what}: the fused sign did not flip");
            } else {
                assert_eq!(y[j].to_bits(), 0, "{what}: exact tile");
            }
            assert!(fixed >= 1, "{what}: {fixed} lanes recomputed");
        }
        let _ = force_variant(initial);
    }

    /// The ±0.0, NaN, ±∞ and subnormal rows of
    /// `adversarial_rows_take_the_exact_path`, each repeated to width `n`.
    fn special_rows(n: usize) -> Vec<f32> {
        let rows: [[f32; 8]; 9] = [
            [1e-40; 8],
            [1e-40, -1e-40, 0.0, 1e-40, -0.0, 1e-40, 1e-40, -1e-40],
            [1.0, f32::NAN, -1.0, 0.5, 2.0, -0.25, 1.0, 3.0],
            [1.0, 2.0, f32::INFINITY, 0.5, -2.0, -0.25, 1.0, 3.0],
            [1.0, 2.0, 0.5, 0.0, -2.0, f32::NEG_INFINITY, 1.0, 3.0],
            [0.0; 8],
            [-0.0; 8],
            [0.0, -0.0, -0.0, 0.0, 0.0, -0.0, 0.0, -0.0],
            [1e30, 1e-40, -1e30, 0.0, 1e-40, -1e30, 1.0, -1.0],
        ];
        rows.iter()
            .flat_map(|row| row.iter().cycle().take(n).copied())
            .collect()
    }

    #[test]
    fn sign_epilogue_matches_the_portable_certify_of_the_stored_tile() {
        let _pin = pin();
        let initial = active();
        // Blocks of 61 rows (a `rows % 4` tail) of width 8, 27, 72 and
        // 200: Gaussian rows walk every column in place and 20%-dense ones
        // walk group lists; the special rows ride in blocks of both kinds.
        // k = 96 and 192 add a partial last word and a half last panel.
        let mut cases = Vec::new();
        for n in [8, 27, 72, 200] {
            let dense = gaussian(&[61, n], n as u64).data().to_vec();
            let sparse = sparsify(gaussian(&[61, n], 1 + n as u64), 20)
                .data()
                .to_vec();
            let mixed = |mut rows: Vec<f32>| {
                rows[..9 * n].copy_from_slice(&special_rows(n));
                rows
            };
            cases.push((n, "dense", true, mixed(dense)));
            cases.push((n, "sparse", false, mixed(sparse)));
        }
        for &v in detected() {
            force_variant(v).expect("detected variant");
            for (n, density, dense, x) in &cases {
                let (n, rows) = (*n, x.len() / n);
                let src = PatchSource::rows(x, n);
                for k in [256, 512, 768, 1024, 96, 192] {
                    let proj = gaussian(&[n, k], 7 + k as u64);
                    let panels = ProjPanels::pack(proj.data(), n, k);
                    let bounds = column_bounds(&panels);
                    let what = format!("{} n {n} {density} k {k}", v.name());
                    let (wpr, words) = (k.div_ceil(64), k.div_ceil(64) * rows);
                    let mut scratch = ProjectScratch::new(rows, &src);
                    let (mut y, mut norms) = (vec![0.0; rows * k], vec![0.0; rows]);
                    project_patches_approx_into(
                        &src,
                        0,
                        rows,
                        &panels,
                        &mut scratch,
                        &mut y,
                        &mut norms,
                    );
                    assert_eq!(src.dense(), *dense, "walk: {what}");
                    // Bounds at exactly the last row's `|v|` under a
                    // unit scale: a one-ulp change in how `v` or the
                    // compare rounds flips that row's words.
                    let tie: Vec<f32> = y[(rows - 1) * k..].iter().map(|v| v.abs()).collect();
                    let unit: fn(usize, f32) -> f32 = |_, _| 1.0;
                    for (bounds, scale) in
                        [(&bounds, row_scale as fn(usize, f32) -> f32), (&tie, unit)]
                    {
                        let (mut signs, mut uncertain) = (vec![!0; words], vec![!0; words]);
                        let mut sign_norms = vec![0.0; rows];
                        let epilogue = Signs {
                            bounds,
                            row_scale: scale,
                            signs: &mut signs,
                            uncertain: &mut uncertain,
                        };
                        project_patches_signs_into(
                            &src,
                            0,
                            rows,
                            &panels,
                            &mut scratch,
                            epilogue,
                            &mut sign_norms,
                        );
                        assert_eq!(src.dense(), *dense, "walk: {what}");
                        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                        assert_eq!(bits(&sign_norms), bits(&norms), "norms: {what}");
                        let (mut want_s, mut want_u) = (vec![0; wpr], vec![0; wpr]);
                        for (r, v) in y.chunks_exact(k).enumerate() {
                            let row_scale = scale(n, norms[r]);
                            certify_signs_into(v, bounds, row_scale, &mut want_s, &mut want_u);
                            for w in 0..wpr {
                                let at = w * rows + r;
                                assert_eq!(signs[at], want_s[w], "signs row {r} word {w}: {what}");
                                assert_eq!(
                                    uncertain[at], want_u[w],
                                    "uncertain row {r} word {w}: {what}"
                                );
                            }
                        }
                    }
                }
            }
        }
        let _ = force_variant(initial);
    }

    /// A row `x ≈ R[:, j] / ‖R[:, j]‖` whose fused and exact chains
    /// against `col` (column `j`) drift apart coherently: every tap is
    /// nudged by up to `i + 1` ulps, which moves its product across one
    /// ulp of the running sum, to the value that widens `exact − fused`
    /// most. Both chains round each step's sum to the nearest float, so
    /// the gap grows by up to one ulp of the sum a step, about
    /// `¾·n·u·‖x‖·‖R[:, j]‖` over the row. Returns the row and its
    /// exact and fused values.
    fn drifting_row(col: &[f32]) -> (Vec<f32>, f32, f32) {
        let norm = col
            .iter()
            .map(|&r| f64::from(r).powi(2))
            .sum::<f64>()
            .sqrt();
        let (mut x, mut exact, mut fused) = (Vec::new(), 0.0f32, 0.0f32);
        for (i, &r) in col.iter().enumerate() {
            let mut tap = (f64::from(r) / norm) as f32;
            for _ in 0..8 * (i + 1) {
                tap = tap.next_down();
            }
            let mut best = (f64::NEG_INFINITY, tap, exact, fused);
            for _ in 0..16 * (i + 1) + 1 {
                let (e, f) = (exact + tap * r, tap.mul_add(r, fused));
                if f64::from(e) - f64::from(f) > best.0 {
                    best = (f64::from(e) - f64::from(f), tap, e, f);
                }
                tap = tap.next_up();
            }
            (_, tap, exact, fused) = best;
            x.push(tap);
        }
        (x, exact, fused)
    }

    #[test]
    fn the_bound_is_within_sixteen_times_of_a_drift_the_fused_tile_reaches() {
        let _pin = pin();
        let initial = active();
        // Row j of each block drifts against column j.
        let (rows, k) = (16, 64);
        for n in [27, 288, 576] {
            let proj = gaussian(&[n, k], 40 + n as u64);
            let r = proj.data();
            let bounds = column_bounds(&ProjPanels::pack(r, n, k));
            let (mut x, mut chains) = (Vec::new(), Vec::new());
            for j in 0..rows {
                let col: Vec<f32> = (0..n).map(|i| r[i * k + j]).collect();
                let (row, exact, fused) = drifting_row(&col);
                x.extend_from_slice(&row);
                chains.push((exact, fused));
            }
            let mut worst = f64::INFINITY;
            for (j, (row, &(exact, fused))) in x.chunks_exact(n).zip(&chains).enumerate() {
                let norm = row.iter().map(|&v| v * v).sum::<f32>().sqrt();
                let bound = row_scale(n, norm) * bounds[j];
                let gap = (f64::from(fused) - f64::from(exact)).abs();
                let scale = n as f64 * f64::from(U) * f64::from(norm) * f64::from(bounds[j]);
                let what = format!("n {n} column {j}: gap {gap:e}, n·u·‖x‖·c_j {scale:e}");
                assert!(gap < f64::from(bound), "{what}: B = {bound:e} is no bound");
                worst = worst.min(gap / scale);
            }
            // Every drift reaches a quarter of n·u·‖x‖·c_j, a sixteenth of
            // B, and most reach half of it: a bound eight times weaker
            // certifies lanes whose exact sign it does not know.
            assert!(
                worst >= 0.25,
                "n {n}: a drift reaches only {worst:.3}·n·u·‖x‖·c_j"
            );
            // The tiles run these chains, fused on `Avx512` and exact
            // elsewhere, and the certified hash packs the exact signs.
            let src = PatchSource::rows(&x, n);
            for &v in detected() {
                force_variant(v).expect("detected variant");
                let panels = ProjPanels::pack(r, n, k);
                let mut scratch = ProjectScratch::new(rows, &src);
                let (mut y, mut norms) = (vec![0.0; rows * k], vec![0.0; rows]);
                project_patches_approx_into(
                    &src,
                    0,
                    rows,
                    &panels,
                    &mut scratch,
                    &mut y,
                    &mut norms,
                );
                for (j, &(exact, fused)) in chains.iter().enumerate() {
                    let want = if v == Variant::Avx512 { fused } else { exact };
                    let what = format!("{} n {n} column {j}", v.name());
                    assert_eq!(y[j * k + j].to_bits(), want.to_bits(), "{what}");
                }
                check(&src, &x, r, k, &format!("{} n {n} drifting rows", v.name()));
            }
        }
        let _ = force_variant(initial);
    }

    #[test]
    fn column_bounds_bound_every_column_norm() {
        let (n, k) = (576, 64);
        let proj = gaussian(&[n, k], 9);
        let bounds = column_bounds(&ProjPanels::pack(proj.data(), n, k));
        for (j, &c) in bounds.iter().enumerate() {
            let exact: f64 = (0..n)
                .map(|i| f64::from(proj.data()[i * k + j]).powi(2))
                .sum();
            assert!(f64::from(c) >= exact.sqrt(), "column {j}");
            assert!(
                f64::from(c) <= exact.sqrt() * (1.0 + 1e-6),
                "column {j} is loose"
            );
        }
        let huge = ProjPanels::pack(&vec![1e30f32; 2 * k], 2, k);
        assert!(column_bounds(&huge).iter().all(|c| c.is_infinite()));
    }

    #[test]
    fn fallback_rate_on_gaussian_rows_stays_below_half_a_percent() {
        // Guards the bound's tightness: a looser bound would send more
        // lanes down the exact path and erase the fused kernels' gain
        // without failing any bit-exactness test.
        let rows = 256;
        for n in [27, 72, 576] {
            let x = gaussian(&[rows, n], n as u64);
            let src = PatchSource::rows(x.data(), n);
            for k in [256, 1024] {
                let proj = gaussian(&[n, k], 100 + k as u64);
                let (_, _, recomputed) = certified(&src, proj.data(), k);
                let lanes = rows * k;
                assert!(
                    recomputed * 200 < lanes,
                    "n {n} k {k}: {recomputed} of {lanes} lanes recomputed"
                );
            }
        }
    }
}

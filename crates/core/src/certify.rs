//! Sign-certified hashing: a fused multiply-add projection, an error
//! bound that proves each hash bit, and an exact recompute for the lanes
//! it cannot prove.
//!
//! A hash bit is the sign of one projection `y_j = x·R[:, j]` (plus,
//! under crossbar noise, a disturbance `δ_j`), packed as `y_j >= 0.0`.
//! The engine needs that predicate exactly as the serial
//! multiply-then-add chain gives it, not the float itself. So
//! [`SignHasher`] projects each sub-block with fused multiply-add tiles
//! whose epilogue packs the signs straight from the accumulators
//! ([`project_patches_signs_into`]), and lane `j` keeps the fused sign
//! only when an error bound proves that the exact chain has the same
//! one. Every other lane is recomputed with the exact chain
//! ([`ProjectScratch::exact_element`]) and its bit replaced. The sign
//! words and norms are therefore bit-identical to im2col →
//! `matmul_dense_into` → noise → `pack_signs_into`, and so are the
//! logits, the wire bytes and the modeled CAM cost. Only kernel time
//! changes.
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
//! 3. **A certified lane has the exact sign.** Rounding is monotone and
//!    `B` is a float, so `fl(y + δ) > B` implies the real `y + δ > B`
//!    (and `< −B` likewise). The exact value lies within `G` of the
//!    fused one, so `y_exact + δ` is on the same side of zero, at least
//!    `B − G > 2⁻¹⁰⁴` from it. Rounding `fl(y_exact + δ)` keeps that side
//!    and cannot reach `−0.0` (only reals within `2⁻¹⁵⁰` of zero round to
//!    zero), so `>= 0.0` packs the same bit. Without noise `δ = 0` and
//!    the step is exact.
//! 4. **NaN and ∞ fail closed.** A non-finite tap makes `‖x‖` non-finite,
//!    so `B = +∞`, and `|y| > +∞` is false for every `y`, `±∞` included;
//!    an ordered compare against NaN is false too. Every such lane takes
//!    the exact path, which reproduces whatever the oracle computes.
//!
//! The fix-up evaluates `fl(exact + δ_j)` with the same `δ_j`, so an
//! uncertain lane packs exactly the oracle's bit whatever its value. A
//! row whose factor is `+∞` (a zero, huge or non-finite norm) has every
//! lane uncertain, and each is recomputed the same way. On Gaussian
//! rows a lane is uncertain with probability about `3.2·n^1.5·u` (`y`
//! is `N(0, ‖x‖²)` and `c_j ≈ √n`): 0.003% at `n = 27`, 0.26% at
//! `n = 576`.

use deepcam_tensor::ops::project::{
    project_patches_signs_into, PatchSource, ProjPanels, ProjectScratch, Signs,
};
use deepcam_tensor::rng::{seeded_rng, standard_normal};

use crate::engine::EngineConfig;
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

/// The row factor `4·n·u·‖x‖` of the bound, or `+∞` when the row
/// certifies nothing.
fn row_scale(n: usize, norm: f32) -> f32 {
    if n <= MAX_WIDTH && (LO..=HI).contains(&norm) {
        (4 * n) as f32 * U * norm
    } else {
        f32::INFINITY
    }
}

/// The crossbar noise of one dot step: its level and the step's seed,
/// from which every patch row's disturbance is drawn.
#[derive(Debug, Clone, Copy)]
pub(crate) struct CrossbarNoise {
    level: f32,
    seed: u64,
}

impl CrossbarNoise {
    /// The noise of dot step `layer_idx` under `cfg`; `None` on an ideal
    /// device.
    pub(crate) fn of(cfg: &EngineConfig, layer_idx: usize) -> Option<Self> {
        (cfg.crossbar_noise > 0.0).then_some(CrossbarNoise {
            level: cfg.crossbar_noise,
            seed: cfg.seed ^ ((layer_idx as u64) << 40),
        })
    }

    /// Fills `z` with the norm-free draws of the patch row at global
    /// index `row`, from an RNG keyed by that index: reproducible across
    /// runs, thread counts and batch splits. The row's disturbance is
    /// `δ_j = (level · ‖x‖) · z_j`, two roundings.
    fn draw(&self, row: usize, z: &mut [f32]) {
        let mut rng = seeded_rng(self.seed ^ (row as u64).wrapping_mul(0x9E3779B97F4A7C15));
        for v in z {
            *v = standard_normal(&mut rng) as f32;
        }
    }
}

/// Per-chunk buffers of the certified hash of one sub-block at a time,
/// allocated once per chunk, never per block, and only for what the
/// layer uses: the projection branch's own buffers, and noise draws only
/// under noise.
pub(crate) struct SignHasher {
    scratch: ProjectScratch,
    /// Per row of the block, its uncertain words ORed together.
    any: Vec<u64>,
    noise: Option<CrossbarNoise>,
    norms: Vec<f32>,
    /// The block's `[rows, k]` noise draws (empty without noise).
    z: Vec<f32>,
    /// Word-major uncertain words, laid out as the queries.
    uncertain: Vec<u64>,
}

impl SignHasher {
    /// Buffers for sub-blocks of up to `block` rows of `src`, hashed to
    /// `k` bits under `noise`.
    pub(crate) fn new(
        block: usize,
        src: &PatchSource<'_>,
        k: usize,
        noise: Option<CrossbarNoise>,
    ) -> Self {
        SignHasher {
            scratch: ProjectScratch::new(block, src),
            any: vec![0; block],
            noise,
            norms: vec![0.0; block],
            z: vec![0.0; if noise.is_some() { block * k } else { 0 }],
            uncertain: vec![0; k.div_ceil(64) * block],
        }
    }

    /// Hashes patch rows `g0..g0 + nq` of `src` through `panels` (`R`),
    /// with `bounds` its [`column_bounds`]. The fused tiles compare each
    /// finished tile against the bound ([`project_patches_signs_into`])
    /// and write sign word `w` of row `r` to `queries[w·nq + r]`,
    /// word-major as the Hamming tile reads it; the row's norm stays in
    /// [`SignHasher::norms`]`()[r]`. The noise disturbs row `r` as the
    /// patch at global index `first_row + r`. Then every lane the bound
    /// left uncertain is recomputed exactly. The projection is charged to
    /// `probe`'s project phase. Returns the number of lanes recomputed.
    ///
    /// # Panics
    ///
    /// Panics when the block exceeds the buffers, or a length disagrees
    /// with `n`, `k` or `nq`.
    // analyze: alloc-free
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn hash<P: Probe>(
        &mut self,
        src: &PatchSource<'_>,
        g0: usize,
        nq: usize,
        panels: &ProjPanels,
        bounds: &[f32],
        first_row: usize,
        queries: &mut [u64],
        probe: &mut P,
    ) -> usize {
        let SignHasher {
            scratch,
            any,
            noise,
            norms,
            z,
            uncertain,
        } = self;
        let k = bounds.len();
        let uncertain = &mut uncertain[..queries.len()];
        let noise = match *noise {
            Some(noise) => {
                for (r, row) in z[..nq * k].chunks_exact_mut(k).enumerate() {
                    noise.draw(first_row + r, row);
                }
                Some((noise.level, &z[..nq * k]))
            }
            None => None,
        };
        let signs = Signs {
            bounds,
            row_scale,
            noise,
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
            for (&(r, j), mut v) in lanes.iter().zip(exact) {
                if let Some((level, z)) = noise {
                    v += level * norms[r] * z[r * k + j];
                }
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

    /// Noise of the test dot step at `level` (`None` at 0).
    fn noise_at(level: f32) -> Option<CrossbarNoise> {
        let cfg = EngineConfig {
            crossbar_noise: level,
            ..EngineConfig::default()
        };
        CrossbarNoise::of(&cfg, 3)
    }

    /// The historical disturbance of row `row`, `δ_j = level · ‖x‖ · z_j`
    /// in one expression: the oracle [`CrossbarNoise::draw`] must match.
    fn fill(noise: &CrossbarNoise, row: usize, norm: f32, delta: &mut [f32]) {
        let mut rng = seeded_rng(noise.seed ^ (row as u64).wrapping_mul(0x9E3779B97F4A7C15));
        for d in delta {
            *d = noise.level * norm * standard_normal(&mut rng) as f32;
        }
    }

    /// The oracle: im2col rows → `matmul_dense_into` → noise →
    /// `pack_signs_into`, and the historical norm expression. Sign words
    /// are row-major.
    fn oracle(
        patches: &[f32],
        n: usize,
        proj: &[f32],
        k: usize,
        noise: Option<CrossbarNoise>,
    ) -> (Vec<u64>, Vec<u32>) {
        let rows = patches.len() / n;
        let wpr = k.div_ceil(64);
        let mut y = vec![0.0f32; rows * k];
        matmul_dense_into(patches, rows, n, proj, k, &mut y);
        let mut words = vec![0u64; rows * wpr];
        let mut norms = Vec::with_capacity(rows);
        let mut delta = vec![0.0f32; k];
        for r in 0..rows {
            let norm = patches[r * n..(r + 1) * n]
                .iter()
                .map(|&v| v * v)
                .sum::<f32>()
                .sqrt();
            let pre = &mut y[r * k..(r + 1) * k];
            if let Some(noise) = noise {
                fill(&noise, r, norm, &mut delta);
                for (v, &d) in pre.iter_mut().zip(&delta) {
                    *v += d;
                }
            }
            pack_signs_into(pre, &mut words[r * wpr..(r + 1) * wpr]);
            norms.push(norm.to_bits());
        }
        (words, norms)
    }

    /// Hashes every row of `src` in `BLOCK`-row sub-blocks; returns the
    /// row-major sign words, the norm bits and the recomputed lanes.
    fn certified(
        src: &PatchSource<'_>,
        proj: &[f32],
        k: usize,
        noise: Option<CrossbarNoise>,
    ) -> (Vec<u64>, Vec<u32>, usize) {
        let (rows, wpr) = (src.len(), k.div_ceil(64));
        let panels = ProjPanels::pack(proj, src.width(), k);
        let bounds = column_bounds(&panels);
        let mut hasher = SignHasher::new(BLOCK, src, k, noise);
        let mut words = vec![!0u64; rows * wpr];
        let mut norms = Vec::with_capacity(rows);
        let mut queries = vec![0u64; BLOCK * wpr];
        let mut recomputed = 0;
        for g0 in (0..rows).step_by(BLOCK) {
            let nq = BLOCK.min(rows - g0);
            let queries = &mut queries[..nq * wpr];
            recomputed += hasher.hash(src, g0, nq, &panels, &bounds, g0, queries, &mut ());
            for r in 0..nq {
                for w in 0..wpr {
                    words[(g0 + r) * wpr + w] = queries[w * nq + r];
                }
                norms.push(hasher.norms()[r].to_bits());
            }
        }
        (words, norms, recomputed)
    }

    /// Asserts the certified hash of `src` equals the oracle over its
    /// materialised rows `patches`; returns the recomputed lanes.
    fn check(
        src: &PatchSource<'_>,
        patches: &[f32],
        proj: &[f32],
        k: usize,
        noise: Option<CrossbarNoise>,
        what: &str,
    ) -> usize {
        let (want_words, want_norms) = oracle(patches, src.width(), proj, k, noise);
        let (words, norms, recomputed) = certified(src, proj, k, noise);
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
                    for level in [0.0, 0.05] {
                        for (source, src) in [("conv", &conv), ("rows", &rows)] {
                            let what =
                                format!("{} {density} {source} k {k} noise {level}", v.name());
                            check(src, patches.data(), proj.data(), k, noise_at(level), &what);
                        }
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
            for (i, (what, row)) in rows.iter().enumerate() {
                for level in [0.0, 0.05] {
                    let what = format!("{} {what} noise {level}", v.name());
                    let src = PatchSource::rows(row, n);
                    let fixed = check(&src, row, r, k, noise_at(level), &what);
                    // Noise moves the cancelled lane away from zero; every
                    // other row has an infinite bound on every lane.
                    if i > 0 || level == 0.0 {
                        assert!(fixed > 0, "the fix-up never fired: {what}");
                    }
                }
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
                let fixed = check(&src, x.data(), &zero_col, k, None, &what);
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
            let (words, _, fixed) = certified(&src, r, k, None);
            let (want, _) = oracle(&x, n, r, k, None);
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
            let (words, _, fixed) = certified(&src, r, k, None);
            let (want, _) = oracle(patches.data(), n, r, k, None);
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
                    for level in [0.0, 0.05] {
                        let what = format!("{} n {n} {density} k {k} noise {level}", v.name());
                        let noise = noise_at(level);
                        let (wpr, words) = (k.div_ceil(64), k.div_ceil(64) * rows);
                        let mut z = vec![0.0f32; rows * k];
                        if let Some(noise) = noise {
                            for (r, z) in z.chunks_exact_mut(k).enumerate() {
                                noise.draw(r, z);
                            }
                        }
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
                        // The stored floats plus the noise: what the
                        // epilogue compares.
                        for (r, y) in y.chunks_exact_mut(k).enumerate() {
                            if let Some(noise) = noise {
                                for (y, &z) in y.iter_mut().zip(&z[r * k..]) {
                                    *y += noise.level * norms[r] * z;
                                }
                            }
                        }
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
                                noise: noise.map(|noise| (noise.level, &z[..])),
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
                            let bits =
                                |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                            assert_eq!(bits(&sign_norms), bits(&norms), "norms: {what}");
                            let (mut want_s, mut want_u) = (vec![0; wpr], vec![0; wpr]);
                            for (r, v) in y.chunks_exact(k).enumerate() {
                                let row_scale = scale(n, norms[r]);
                                certify_signs_into(v, bounds, row_scale, &mut want_s, &mut want_u);
                                for w in 0..wpr {
                                    let at = w * rows + r;
                                    assert_eq!(
                                        signs[at], want_s[w],
                                        "signs row {r} word {w}: {what}"
                                    );
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
                let (_, _, recomputed) = certified(&src, proj.data(), k, None);
                let lanes = rows * k;
                assert!(
                    recomputed * 200 < lanes,
                    "n {n} k {k}: {recomputed} of {lanes} lanes recomputed"
                );
            }
        }
    }
}

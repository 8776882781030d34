//! Deterministic random-number helpers shared by the whole reproduction.
//!
//! Every stochastic component (weight init, synthetic datasets, projection
//! matrices) is seeded explicitly so experiments are
//! reproducible run-to-run. Gaussian variates come from the Box–Muller
//! transform — `rand` is in the allowed dependency set but `rand_distr` is
//! not, so the normal distribution is implemented here once and reused
//! everywhere.
//!
//! # The block generator and its certificate
//!
//! [`standard_normal`] is the definition: it draws `u1 = 1 − U`, then
//! `u2 = U`, and returns `sqrt(−2·ln u1)·cos(2π·u2)` through the
//! platform libm. [`fill_standard_normal`] writes exactly
//! `standard_normal(rng) as f32` for every element, drawing the same two
//! `u64`s per element in the same order, so the values and the RNG's
//! later state are both unchanged. It is about 3× faster, because it
//! evaluates the transform over fixed blocks of 256 lanes (4 KiB of
//! uniforms on the stack) in plain, branch-free f64 that the compiler
//! vectorizes:
//!
//! - `ln u1` in the fdlibm style: an exponent split into `2^k·m` with
//!   `m ∈ [√2/2, √2)`, then `ln m = 2·atanh(s)`, `s = (m − 1)/(m + 1)`,
//!   through fdlibm's degree-14 series (error below 1 ulp);
//! - `cos θ` for the same rounded argument `θ = (2π)·u2` that
//!   `standard_normal` passes to libm: Cody–Waite reduction by π/2 (the
//!   first product is exact, so `y` carries at most 2⁻⁵³ relative plus
//!   2⁻⁸² absolute error), fdlibm's sine and cosine kernels on
//!   `|y| ≤ π/4`, and an arithmetic quadrant select (bit masks, no
//!   data-dependent branch).
//!
//! No FMA is used, so every code generation computes the same fast
//! value `f`. Its error against the true transform `T` of the same
//! `(u1, θ)` is below 2⁻⁴⁹·|T| (1 ulp in `ln`, halved by the square
//! root, plus the rounding of the root, the reduction, the kernel and the
//! product). The libm value `F` that `standard_normal` returns is within
//! `(3/2)·2⁻⁴⁶ + 2⁻⁵²` of `T` under the **one assumption** of this proof:
//! the platform's `ln` and `cos` are within 2⁻⁴⁶ relative of the true
//! value, `cos` away from its zeros (glibc's are within about 1 ulp,
//! 2⁻⁵²). So `|F − f| < 2⁻⁴⁵·|f|`.
//!
//! A lane keeps `f` only when `f·(1 − 2⁻⁴⁴)` and `f·(1 + 2⁻⁴⁴)` round to
//! the same `f32`. Even after their own f64 rounding these two bracket
//! every value within 2⁻⁴⁴ − 2⁻⁵² of `f`, `F` among them, and rounding to
//! `f32` is monotone, so `F as f32` is that same `f32`. Every other lane is
//! recomputed through the unchanged transform of [`standard_normal`],
//! which stays both the fallback and the oracle: lanes whose bracket
//! straddles an `f32` rounding boundary, lanes with `f = 0` (which
//! includes every `u1 = 1`, where the fast `ln` is exactly `+0`, so the
//! sign of a zero is libm's), and lanes whose reduced argument is below
//! 2⁻¹⁰ in an odd quadrant, where `cos θ` is near a zero and the
//! assumption does not reach.
//!
//! Measured over 10⁸ draws from 10 seeds (release, AVX-512 Xeon), 0.062%
//! of lanes fall back, almost all of them near a cosine zero, the worst
//! relative gap `|F − f|/|f|` is about 2⁻⁵⁰·⁵, and no lane differs. A
//! filled value costs 9–13 ns, about 3 of them drawing its two `u64`s,
//! against 36–47 ns through `standard_normal` one at a time (the range
//! is the host's load).

use rand::rngs::StdRng;
use rand::{Rng, RngExt, SeedableRng};

/// Creates the standard deterministic RNG used across the workspace.
///
/// # Example
///
/// ```
/// use deepcam_tensor::rng::seeded_rng;
/// use rand::RngExt;
///
/// let mut a = seeded_rng(7);
/// let mut b = seeded_rng(7);
/// assert_eq!(a.random::<u64>(), b.random::<u64>());
/// ```
pub fn seeded_rng(seed: u64) -> StdRng {
    StdRng::seed_from_u64(seed)
}

/// Samples one standard-normal variate (mean 0, variance 1) using the
/// Box–Muller transform.
///
/// # Example
///
/// ```
/// use deepcam_tensor::rng::{seeded_rng, standard_normal};
///
/// let mut rng = seeded_rng(1);
/// let z = standard_normal(&mut rng);
/// assert!(z.is_finite());
/// ```
pub fn standard_normal<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    // Draw u1 from (0, 1] so the log never sees zero.
    let u1: f64 = 1.0 - rng.random::<f64>();
    let u2: f64 = rng.random::<f64>();
    box_muller(u1, u2)
}

/// The Box–Muller transform of one uniform pair through libm: the
/// definition of [`standard_normal`] and the fallback of
/// [`fill_standard_normal`].
fn box_muller(u1: f64, u2: f64) -> f64 {
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

/// Lanes per block of [`fill_standard_normal`]: two `f64` uniforms each,
/// 4 KiB of stack whatever the length of the output.
const BLOCK: usize = 256;

/// Fills `out` with `standard_normal(rng) as f32` for each element in
/// order, bit for bit, leaving `rng` in the same state as that many
/// [`standard_normal`] calls would. See the [module docs](self) for the
/// certificate that makes the block transform exact.
///
/// # Example
///
/// ```
/// use deepcam_tensor::rng::{fill_standard_normal, seeded_rng, standard_normal};
///
/// let mut block = seeded_rng(3);
/// let mut one_by_one = seeded_rng(3);
/// let mut out = [0.0f32; 300];
/// fill_standard_normal(&mut block, &mut out);
/// for v in out {
///     assert_eq!(v.to_bits(), (standard_normal(&mut one_by_one) as f32).to_bits());
/// }
/// ```
pub fn fill_standard_normal<R: Rng + ?Sized>(rng: &mut R, out: &mut [f32]) {
    let mut u1 = [0.0f64; BLOCK];
    let mut u2 = [0.0f64; BLOCK];
    for chunk in out.chunks_mut(BLOCK) {
        let n = chunk.len();
        for (a, b) in u1[..n].iter_mut().zip(&mut u2[..n]) {
            *a = 1.0 - rng.random::<f64>();
            *b = rng.random::<f64>();
        }
        for ((v, &a), &b) in chunk.iter_mut().zip(&u1).zip(&u2) {
            *v = certified(fast_box_muller(a, b));
        }
        for ((v, &a), &b) in chunk.iter_mut().zip(&u1).zip(&u2) {
            if v.is_nan() {
                *v = box_muller(a, b) as f32;
            }
        }
    }
}

/// `f as f32` when the 2⁻⁴⁴ bracket around `f` proves it equal to the
/// libm transform's `f32`, else NaN (recompute this lane).
#[inline(always)]
fn certified(f: f64) -> f32 {
    const TOL: f64 = 1.0 / (1u64 << 44) as f64;
    let lo = (f * (1.0 - TOL)) as f32;
    let hi = (f * (1.0 + TOL)) as f32;
    if lo == hi && f != 0.0 {
        lo
    } else {
        f32::NAN
    }
}

// fdlibm's constants, as bit patterns (e_log.c, k_sin.c, k_cos.c,
// e_rem_pio2.c).
const LN2_HI: f64 = f64::from_bits(0x3fe6_2e42_fee0_0000);
const LN2_LO: f64 = f64::from_bits(0x3dea_39ef_3579_3c76);
const LG1: f64 = f64::from_bits(0x3fe5_5555_5555_5593);
const LG2: f64 = f64::from_bits(0x3fd9_9999_9997_fa04);
const LG3: f64 = f64::from_bits(0x3fd2_4924_9422_9359);
const LG4: f64 = f64::from_bits(0x3fcc_71c5_1d8e_78af);
const LG5: f64 = f64::from_bits(0x3fc7_4664_96cb_03de);
const LG6: f64 = f64::from_bits(0x3fc3_9a09_d078_c69f);
const LG7: f64 = f64::from_bits(0x3fc2_f112_df3e_5244);
const S1: f64 = f64::from_bits(0xbfc5_5555_5555_5549);
const S2: f64 = f64::from_bits(0x3f81_1111_1110_f8a6);
const S3: f64 = f64::from_bits(0xbf2a_01a0_19c1_61d5);
const S4: f64 = f64::from_bits(0x3ec7_1de3_57b1_fe7d);
const S5: f64 = f64::from_bits(0xbe5a_e5e6_8a2b_9ceb);
const S6: f64 = f64::from_bits(0x3de5_d93a_5acf_d57c);
const C1: f64 = f64::from_bits(0x3fa5_5555_5555_554c);
const C2: f64 = f64::from_bits(0xbf56_c16c_16c1_5177);
const C3: f64 = f64::from_bits(0x3efa_01a0_19cb_1590);
const C4: f64 = f64::from_bits(0xbe92_7e4f_809c_52ad);
const C5: f64 = f64::from_bits(0x3e21_ee9e_bdb4_b1c4);
const C6: f64 = f64::from_bits(0xbda8_fae9_be88_38d4);
/// The first 33 bits of π/2, and π/2 minus them.
const PIO2_1: f64 = f64::from_bits(0x3ff9_21fb_5440_0000);
const PIO2_1T: f64 = f64::from_bits(0x3dd0_b461_1a62_6331);
const TWO52: f64 = (1u64 << 52) as f64;
/// `1.5·2⁵²`: adding it rounds a small `f64` to an integer (ties to
/// even) and leaves that integer in the low mantissa bits.
const TOINT: f64 = 1.5 * TWO52;

/// The fast value `f` of the transform of `(u1, u2)`, `u1 ∈ (0, 1]`,
/// `u2 ∈ [0, 1)`; `0.0` for a lane near a cosine zero, which
/// [`certified`] then rejects.
#[inline(always)]
fn fast_box_muller(u1: f64, u2: f64) -> f64 {
    let radius = (-2.0 * ln_unit(u1)).sqrt();
    let theta = 2.0 * std::f64::consts::PI * u2;
    // Nearest quadrant q, reduced argument y = θ − q·π/2.
    let t = theta * std::f64::consts::FRAC_2_PI + TOINT;
    let q = t.to_bits();
    let qf = t - TOINT;
    let y = (theta - qf * PIO2_1) - qf * PIO2_1T;
    // cos θ = ±cos y (even q) or ±sin y (odd q); negated for q ≡ 1, 2.
    let odd = (q & 1).wrapping_neg();
    let pick = (sin_kernel(y).to_bits() & odd) | (cos_kernel(y).to_bits() & !odd);
    let cos = f64::from_bits(pick ^ (((q + 1) & 2) << 62));
    let near_zero = odd & ((y.abs() < 1.0 / 1024.0) as u64).wrapping_neg();
    f64::from_bits((radius * cos).to_bits() & !near_zero)
}

/// `ln x` for a normal `x ∈ (0, 1]` (fdlibm's `log` without its special
/// cases): `x = 2^k·m`, `m ∈ [√2/2, √2)`, `ln m = 2·atanh(s)`.
#[inline(always)]
fn ln_unit(x: f64) -> f64 {
    let bits = x.to_bits();
    let hx = (bits >> 32) + (0x3ff0_0000 - 0x3fe6_a09e);
    // k + 1023 sits in bits 20.. of hx; turn it into an f64 without an
    // integer conversion: 2⁵² + (k + 1023) is exact, so is the subtraction.
    let dk = f64::from_bits(0x4330_0000_0000_0000 | (hx >> 20)) - (TWO52 + 1023.0);
    let m = f64::from_bits((((hx & 0x000f_ffff) + 0x3fe6_a09e) << 32) | (bits & 0xffff_ffff));
    let f = m - 1.0;
    let hfsq = 0.5 * f * f;
    let s = f / (2.0 + f);
    let z = s * s;
    let w = z * z;
    let t1 = w * (LG2 + w * (LG4 + w * LG6));
    let t2 = z * (LG1 + w * (LG3 + w * (LG5 + w * LG7)));
    let r = t2 + t1;
    s * (hfsq + r) + dk * LN2_LO - hfsq + f + dk * LN2_HI
}

/// `sin y` on `|y| ≤ π/4` (fdlibm's `__kernel_sin` with no tail).
#[inline(always)]
fn sin_kernel(y: f64) -> f64 {
    let z = y * y;
    let w = z * z;
    let r = S2 + z * (S3 + z * S4) + z * w * (S5 + z * S6);
    y + z * y * (S1 + z * r)
}

/// `cos y` on `|y| ≤ π/4` (fdlibm's `__kernel_cos` with no tail).
#[inline(always)]
fn cos_kernel(y: f64) -> f64 {
    let z = y * y;
    let w = z * z;
    let r = z * (C1 + z * (C2 + z * C3)) + w * w * (C4 + z * (C5 + z * C6));
    let hz = 0.5 * z;
    let one_minus = 1.0 - hz;
    one_minus + (((1.0 - one_minus) - hz) + z * r)
}

/// Fills `out` with i.i.d. normal variates of the given mean and standard
/// deviation: `mean + std_dev * (standard_normal(rng) as f32)` each.
pub fn fill_normal<R: Rng + ?Sized>(rng: &mut R, out: &mut [f32], mean: f32, std_dev: f32) {
    fill_standard_normal(rng, out);
    for v in out.iter_mut() {
        *v = mean + std_dev * *v;
    }
}

/// Fills `out` with i.i.d. uniform variates in `[lo, hi)`.
pub fn fill_uniform<R: Rng + ?Sized>(rng: &mut R, out: &mut [f32], lo: f32, hi: f32) {
    for v in out.iter_mut() {
        *v = rng.random_range(lo..hi);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One lane of the block generator: the certified fast value, else
    /// the libm transform.
    fn lane(u1: f64, u2: f64) -> f32 {
        let v = certified(fast_box_muller(u1, u2));
        if v.is_nan() {
            box_muller(u1, u2) as f32
        } else {
            v
        }
    }

    #[test]
    fn seeded_rng_is_deterministic() {
        let mut a = seeded_rng(42);
        let mut b = seeded_rng(42);
        for _ in 0..16 {
            assert_eq!(a.random::<u64>(), b.random::<u64>());
        }
    }

    #[test]
    fn normal_moments_are_plausible() {
        let mut rng = seeded_rng(7);
        let n = 20_000;
        let samples: Vec<f64> = (0..n).map(|_| standard_normal(&mut rng)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.05, "mean {mean}");
        assert!((var - 1.0).abs() < 0.05, "var {var}");
    }

    #[test]
    fn normal_values_are_finite() {
        let mut rng = seeded_rng(3);
        for _ in 0..10_000 {
            assert!(standard_normal(&mut rng).is_finite());
        }
    }

    #[test]
    fn fill_uniform_respects_bounds() {
        let mut rng = seeded_rng(9);
        let mut buf = vec![0.0f32; 1000];
        fill_uniform(&mut rng, &mut buf, -0.5, 0.5);
        assert!(buf.iter().all(|&x| (-0.5..0.5).contains(&x)));
    }

    #[test]
    fn fill_normal_scales() {
        let mut rng = seeded_rng(11);
        let mut buf = vec![0.0f32; 50_000];
        fill_normal(&mut rng, &mut buf, 10.0, 2.0);
        let mean = buf.iter().sum::<f32>() / buf.len() as f32;
        assert!((mean - 10.0).abs() < 0.1, "mean {mean}");
    }

    #[test]
    fn lane_matches_libm_at_the_edges() {
        const ULP53: f64 = 1.0 / (1u64 << 53) as f64;
        let mut u2s = Vec::new();
        for u2 in [0.0, 0.25, 0.5, 0.75] {
            u2s.push(u2);
            // f64 neighbours, then neighbours on the 2⁻⁵³ grid the RNG draws.
            let mut up = u2;
            let mut down = u2;
            for step in 1..=2 {
                up = f64::next_up(up);
                down = f64::next_down(down);
                u2s.extend([up, down, u2 + step as f64 * ULP53, u2 - step as f64 * ULP53]);
            }
        }
        let u2s: Vec<f64> = u2s.into_iter().filter(|u| (0.0..1.0).contains(u)).collect();
        for u1 in [1.0, 1.0 - ULP53, ULP53, 0.5] {
            for &u2 in &u2s {
                let want = box_muller(u1, u2) as f32;
                assert_eq!(
                    lane(u1, u2).to_bits(),
                    want.to_bits(),
                    "u1 {u1:e}, u2 {u2:e}: want {want:e}"
                );
            }
        }
        // u1 = 1 gives a signed zero whose sign only libm may choose.
        assert_eq!(fast_box_muller(1.0, 0.5), 0.0);
        assert!(certified(fast_box_muller(1.0, 0.5)).is_nan());
        // A cosine zero is never certified.
        assert!(certified(fast_box_muller(0.5, 0.25)).is_nan());
    }

    #[test]
    fn fill_keeps_values_and_rng_state() {
        for n in [1, 7, BLOCK + 1, 3 * BLOCK + 37] {
            let mut block = seeded_rng(n as u64);
            let mut one_by_one = seeded_rng(n as u64);
            let mut out = vec![0.0f32; n];
            fill_standard_normal(&mut block, &mut out);
            for (i, v) in out.iter().enumerate() {
                let want = standard_normal(&mut one_by_one) as f32;
                assert_eq!(v.to_bits(), want.to_bits(), "n {n}, element {i}");
            }
            assert_eq!(block.random::<u64>(), one_by_one.random::<u64>(), "n {n}");
        }
    }

    #[test]
    fn fill_normal_matches_the_scalar_formula() {
        let mut block = seeded_rng(12);
        let mut one_by_one = seeded_rng(12);
        let mut out = vec![0.0f32; 2 * BLOCK + 5];
        fill_normal(&mut block, &mut out, 0.25, 1.5);
        for v in out {
            let want = 0.25 + 1.5 * standard_normal(&mut one_by_one) as f32;
            assert_eq!(v.to_bits(), want.to_bits());
        }
        assert_eq!(block.random::<u64>(), one_by_one.random::<u64>());
    }

    /// Fills 10⁸ values from 10 seeds block by block and checks each
    /// against the transform `standard_normal` applies; prints the fallback rate and the
    /// worst relative gap between the fast value and libm's.
    #[test]
    #[ignore = "10^8 draws; run in release with --ignored"]
    fn block_generator_sweep() {
        const SEEDS: u64 = 10;
        const PER_SEED: usize = 10_000_000;
        let (mut fallbacks, mut worst) = (0usize, 0.0f64);
        for seed in 0..SEEDS {
            let mut block = seeded_rng(seed);
            // Draws the uniforms `standard_normal` would, in its order.
            let mut oracle = seeded_rng(seed);
            let mut out = [0.0f32; BLOCK];
            for _ in 0..PER_SEED / BLOCK {
                fill_standard_normal(&mut block, &mut out);
                for &v in &out {
                    let u1 = 1.0 - oracle.random::<f64>();
                    let u2 = oracle.random::<f64>();
                    let exact = box_muller(u1, u2);
                    assert_eq!(v.to_bits(), (exact as f32).to_bits(), "seed {seed}");
                    let fast = fast_box_muller(u1, u2);
                    if certified(fast).is_nan() {
                        fallbacks += 1;
                    }
                    if fast != 0.0 {
                        worst = worst.max(((fast - exact) / fast).abs());
                    }
                }
            }
            assert_eq!(block.random::<u64>(), oracle.random::<u64>(), "seed {seed}");
        }
        let draws = SEEDS as usize * (PER_SEED / BLOCK) * BLOCK;
        println!(
            "{draws} draws: {fallbacks} fallbacks ({:.4}%), worst fast-vs-libm gap 2^{:.2}",
            100.0 * fallbacks as f64 / draws as f64,
            worst.log2()
        );
        assert!(worst < 1.0 / (1u64 << 46) as f64, "gap {worst:e}");
    }
}

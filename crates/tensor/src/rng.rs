//! Deterministic random-number helpers shared by the whole reproduction.
//!
//! Every stochastic component (weight init, synthetic datasets, projection
//! matrices) is seeded explicitly so experiments are
//! reproducible run-to-run. Gaussian variates come from the Box–Muller
//! transform — `rand` is in the allowed dependency set but `rand_distr` is
//! not, so the normal distribution is implemented here once and reused
//! everywhere.

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
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

/// Fills `out` with i.i.d. normal variates of the given mean and standard
/// deviation.
pub fn fill_normal<R: Rng + ?Sized>(rng: &mut R, out: &mut [f32], mean: f32, std_dev: f32) {
    for v in out.iter_mut() {
        *v = mean + std_dev * standard_normal(rng) as f32;
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
}

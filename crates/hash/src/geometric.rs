//! The approximate geometric dot-product (paper eq. 2–4).

use crate::cosine::{approx_cosine, exact_cosine};
use crate::error::HashError;
use crate::minifloat::Minifloat8;
use crate::projection::ProjectionMatrix;
use crate::Result;

/// How the cosine of the estimated angle is evaluated.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum CosineMode {
    /// The paper's piecewise-linear eq. 5 (hardware default).
    #[default]
    PiecewiseEq5,
    /// Library cosine — the ablation reference.
    Exact,
}

impl CosineMode {
    /// Evaluates the selected cosine at `theta`.
    pub fn eval(self, theta: f32) -> f32 {
        match self {
            CosineMode::PiecewiseEq5 => approx_cosine(theta),
            CosineMode::Exact => exact_cosine(theta),
        }
    }
}

/// How operand L2 norms enter the final multiply.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum NormMode {
    /// Quantize through the 8-bit minifloat (hardware default, §III-A).
    #[default]
    Minifloat8,
    /// Full-precision norms — the ablation reference.
    Fp32,
}

impl serde::bin::BinCodec for CosineMode {
    fn encode(&self, w: &mut serde::bin::Writer) {
        w.put_u8(match self {
            CosineMode::PiecewiseEq5 => 0,
            CosineMode::Exact => 1,
        });
    }

    fn decode(r: &mut serde::bin::Reader<'_>) -> serde::bin::BinResult<Self> {
        match r.get_u8()? {
            0 => Ok(CosineMode::PiecewiseEq5),
            1 => Ok(CosineMode::Exact),
            other => Err(serde::bin::BinError::Invalid(format!(
                "CosineMode tag {other}"
            ))),
        }
    }
}

impl serde::bin::BinCodec for NormMode {
    fn encode(&self, w: &mut serde::bin::Writer) {
        w.put_u8(match self {
            NormMode::Minifloat8 => 0,
            NormMode::Fp32 => 1,
        });
    }

    fn decode(r: &mut serde::bin::Reader<'_>) -> serde::bin::BinResult<Self> {
        match r.get_u8()? {
            0 => Ok(NormMode::Minifloat8),
            1 => Ok(NormMode::Fp32),
            other => Err(serde::bin::BinError::Invalid(format!(
                "NormMode tag {other}"
            ))),
        }
    }
}

impl NormMode {
    /// Applies the selected quantization to a norm.
    #[inline]
    pub fn apply(self, norm: f32) -> f32 {
        match self {
            NormMode::Minifloat8 => Minifloat8::quantize(norm),
            NormMode::Fp32 => norm,
        }
    }
}

/// Tunable details of the approximation, for ablations and the variable
/// hash-length strategy.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct DotOptions {
    /// Compare only the first `k` hash bits (`None` = full width). This is
    /// the software twin of disabling CAM chunks.
    pub hash_len: Option<usize>,
    /// Cosine evaluation mode.
    pub cosine: CosineMode,
    /// Norm quantization mode.
    pub norm: NormMode,
}

/// Approximate geometric dot-product engine: owns a projection matrix and
/// reconstructs `x·y ≈ ‖x‖‖y‖cos((π/k)·HD(hash(x),hash(y)))`.
///
/// # Example
///
/// ```
/// use deepcam_hash::GeometricDot;
///
/// let gd = GeometricDot::new(4, 1024, 7)?;
/// let x = [0.6012, 0.8383, 0.6859, 0.5712];
/// let y = [0.9044, 0.5352, 0.8110, 0.9243];
/// let approx = gd.dot(&x, &y)?;
/// assert!((approx - 2.0765).abs() < 0.3); // vs the algebraic 2.0765
/// # Ok::<(), deepcam_hash::HashError>(())
/// ```
#[derive(Debug, Clone)]
pub struct GeometricDot {
    projection: ProjectionMatrix,
}

impl GeometricDot {
    /// Creates an engine for `input_dim`-dimensional vectors with a
    /// `hash_len`-bit hash.
    ///
    /// # Errors
    ///
    /// Returns [`HashError::InvalidConfig`] for zero dimensions.
    pub fn new(input_dim: usize, hash_len: usize, seed: u64) -> Result<Self> {
        if input_dim == 0 || hash_len == 0 {
            return Err(HashError::InvalidConfig(
                "input_dim and hash_len must be > 0".into(),
            ));
        }
        Ok(GeometricDot {
            projection: ProjectionMatrix::generate(input_dim, hash_len, seed),
        })
    }

    /// The underlying projection matrix.
    pub fn projection(&self) -> &ProjectionMatrix {
        &self.projection
    }

    /// Full hash width `k`.
    pub fn hash_len(&self) -> usize {
        self.projection.hash_len()
    }

    /// Converts a Hamming distance at width `k` into an angle estimate:
    /// `θ ≈ π·HD/k` (eq. 3).
    pub fn angle_from_hamming(hd: usize, k: usize) -> f32 {
        std::f32::consts::PI * hd as f32 / k.max(1) as f32
    }

    /// Estimates the angle between `x` and `y` from their hashes.
    ///
    /// # Errors
    ///
    /// Returns a dimension error when either vector mismatches the
    /// projection.
    pub fn estimate_angle(&self, x: &[f32], y: &[f32]) -> Result<f32> {
        let hx = self.projection.hash(x)?;
        let hy = self.projection.hash(y)?;
        let hd = hx.hamming(&hy)?;
        Ok(Self::angle_from_hamming(hd, self.hash_len()))
    }

    /// Approximate dot-product with default (hardware) options.
    ///
    /// # Errors
    ///
    /// Same conditions as [`GeometricDot::estimate_angle`].
    pub fn dot(&self, x: &[f32], y: &[f32]) -> Result<f32> {
        self.dot_with(x, y, DotOptions::default())
    }

    /// Approximate dot-product with explicit [`DotOptions`].
    ///
    /// # Errors
    ///
    /// Returns dimension errors from hashing and
    /// [`HashError::InvalidHashLength`] when `opts.hash_len` exceeds the
    /// projection width.
    pub fn dot_with(&self, x: &[f32], y: &[f32], opts: DotOptions) -> Result<f32> {
        let k = match opts.hash_len {
            Some(k) => {
                if k == 0 || k > self.hash_len() {
                    return Err(HashError::InvalidHashLength {
                        requested: k,
                        max: self.hash_len(),
                    });
                }
                k
            }
            None => self.hash_len(),
        };
        let hx = self.projection.hash(x)?;
        let hy = self.projection.hash(y)?;
        let hd = hx.hamming_prefix(&hy, k)?;
        let theta = Self::angle_from_hamming(hd, k);
        let nx = opts.norm.apply(l2(x));
        let ny = opts.norm.apply(l2(y));
        Ok(nx * ny * opts.cosine.eval(theta))
    }

    /// The algebraic reference `Σ xᵢyᵢ` (eq. 1), for error measurement.
    ///
    /// # Errors
    ///
    /// Returns a dimension error when the lengths differ.
    pub fn algebraic(x: &[f32], y: &[f32]) -> Result<f32> {
        if x.len() != y.len() {
            return Err(HashError::DimensionMismatch {
                expected: x.len(),
                actual: y.len(),
            });
        }
        Ok(x.iter().zip(y.iter()).map(|(a, b)| a * b).sum())
    }
}

fn l2(v: &[f32]) -> f32 {
    v.iter().map(|&x| x * x).sum::<f32>().sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;
    use deepcam_tensor::rng::{fill_normal, seeded_rng};

    #[test]
    fn identical_vectors_have_zero_angle() {
        let gd = GeometricDot::new(8, 512, 1).unwrap();
        let x = [0.3, -0.2, 0.8, 0.5, -0.1, 0.9, 0.4, -0.7];
        let theta = gd.estimate_angle(&x, &x).unwrap();
        assert_eq!(theta, 0.0);
        let d = gd
            .dot_with(
                &x,
                &x,
                DotOptions {
                    norm: NormMode::Fp32,
                    ..DotOptions::default()
                },
            )
            .unwrap();
        let alg = GeometricDot::algebraic(&x, &x).unwrap();
        assert!((d - alg).abs() / alg < 0.01, "{d} vs {alg}");
    }

    #[test]
    fn opposite_vectors_have_pi_angle() {
        let gd = GeometricDot::new(6, 1024, 2).unwrap();
        let x = [0.5, -0.3, 0.2, 0.9, -0.8, 0.1];
        let y: Vec<f32> = x.iter().map(|v| -v).collect();
        let theta = gd.estimate_angle(&x, &y).unwrap();
        assert!((theta - std::f32::consts::PI).abs() < 0.02);
    }

    #[test]
    fn orthogonal_vectors_near_half_pi() {
        let gd = GeometricDot::new(2, 4096, 3).unwrap();
        let theta = gd.estimate_angle(&[1.0, 0.0], &[0.0, 1.0]).unwrap();
        assert!(
            (theta - std::f32::consts::FRAC_PI_2).abs() < 0.1,
            "theta {theta}"
        );
    }

    #[test]
    fn paper_worked_example_converges_with_k() {
        // Fig. 2 of the paper: longer hashes approximate 2.0765 better.
        let x = [0.6012f32, 0.8383, 0.6859, 0.5712];
        let y = [0.9044f32, 0.5352, 0.8110, 0.9243];
        let reference = 2.0765f32;
        let mut errors = Vec::new();
        for &k in &[64usize, 512, 4096] {
            // Average over seeds to smooth hash variance.
            let mut acc = 0.0;
            let seeds = 8;
            for seed in 0..seeds {
                let gd = GeometricDot::new(4, k, seed).unwrap();
                let opts = DotOptions {
                    cosine: CosineMode::Exact,
                    norm: NormMode::Fp32,
                    hash_len: None,
                };
                acc += (gd.dot_with(&x, &y, opts).unwrap() - reference).abs();
            }
            errors.push(acc / seeds as f32);
        }
        assert!(
            errors[2] < errors[0],
            "error should shrink with k: {errors:?}"
        );
        assert!(errors[2] < 0.1, "k=4096 error too large: {}", errors[2]);
    }

    #[test]
    fn estimator_concentration_on_random_vectors() {
        // For random Gaussian vectors the angle estimate should be within
        // a few degrees of the true angle at k=1024.
        let mut rng = seeded_rng(99);
        let gd = GeometricDot::new(32, 1024, 5).unwrap();
        for _ in 0..20 {
            let mut x = vec![0.0f32; 32];
            let mut y = vec![0.0f32; 32];
            fill_normal(&mut rng, &mut x, 0.0, 1.0);
            fill_normal(&mut rng, &mut y, 0.0, 1.0);
            let true_theta = {
                let d = GeometricDot::algebraic(&x, &y).unwrap();
                (d / (l2(&x) * l2(&y))).clamp(-1.0, 1.0).acos()
            };
            let est = gd.estimate_angle(&x, &y).unwrap();
            assert!(
                (est - true_theta).abs() < 0.15,
                "estimate {est} vs true {true_theta}"
            );
        }
    }

    #[test]
    fn prefix_hash_len_matches_dedicated_projection_statistics() {
        // Using a 256-bit prefix of a 1024-bit projection behaves like a
        // 256-bit hash (both are 256 i.i.d. hyperplanes).
        let gd = GeometricDot::new(16, 1024, 11).unwrap();
        let mut rng = seeded_rng(1);
        let mut x = vec![0.0f32; 16];
        let mut y = vec![0.0f32; 16];
        fill_normal(&mut rng, &mut x, 0.0, 1.0);
        fill_normal(&mut rng, &mut y, 0.0, 1.0);
        let opts = DotOptions {
            hash_len: Some(256),
            cosine: CosineMode::Exact,
            norm: NormMode::Fp32,
        };
        let d256 = gd.dot_with(&x, &y, opts).unwrap();
        let alg = GeometricDot::algebraic(&x, &y).unwrap();
        // Coarser, but in the right ballpark.
        assert!((d256 - alg).abs() < l2(&x) * l2(&y) * 0.25);
    }

    #[test]
    fn invalid_hash_len_rejected() {
        let gd = GeometricDot::new(4, 64, 0).unwrap();
        let opts = DotOptions {
            hash_len: Some(65),
            ..DotOptions::default()
        };
        assert!(gd.dot_with(&[1.0; 4], &[1.0; 4], opts).is_err());
        let opts0 = DotOptions {
            hash_len: Some(0),
            ..DotOptions::default()
        };
        assert!(gd.dot_with(&[1.0; 4], &[1.0; 4], opts0).is_err());
    }

    #[test]
    fn minifloat_norms_change_result_slightly() {
        let gd = GeometricDot::new(8, 512, 4).unwrap();
        let x = [1.01, 2.3, -0.7, 0.01, 0.6, -1.4, 2.2, 0.9];
        let y = [0.4, -1.3, 0.8, 1.7, -0.2, 0.5, 1.1, -0.6];
        let exact = gd
            .dot_with(
                &x,
                &y,
                DotOptions {
                    norm: NormMode::Fp32,
                    ..Default::default()
                },
            )
            .unwrap();
        let quant = gd
            .dot_with(
                &x,
                &y,
                DotOptions {
                    norm: NormMode::Minifloat8,
                    ..Default::default()
                },
            )
            .unwrap();
        // Within the ~6% relative step of two 1-4-3 quantizations…
        assert!((exact - quant).abs() <= exact.abs() * 0.15 + 0.05);
    }

    #[test]
    fn zero_config_rejected() {
        assert!(GeometricDot::new(0, 64, 0).is_err());
        assert!(GeometricDot::new(4, 0, 0).is_err());
    }
}

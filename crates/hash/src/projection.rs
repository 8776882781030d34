//! Gaussian random-projection matrices (the paper's `C ∈ R^{n×k}`).

use deepcam_tensor::rng::{fill_standard_normal, seeded_rng};

use crate::bitvec::BitVec;
use crate::error::HashError;
use crate::Result;

/// A dense Gaussian projection matrix `C ∈ R^{n×k}` with entries drawn
/// i.i.d. from `N(0, 1)`, stored row-major (`n` rows of `k` columns).
///
/// In the accelerator this matrix is *fixed at deploy time*: the software
/// context generator uses it to hash pre-trained weights and input images,
/// and the on-chip NVM crossbar of the transformation module encodes the
/// same values as synaptic weights for on-the-fly activation hashing
/// (paper §III-C). Determinism therefore matters — the matrix is
/// reconstructable from `(input_dim, hash_len, seed)`.
///
/// # Example
///
/// ```
/// use deepcam_hash::ProjectionMatrix;
///
/// let p = ProjectionMatrix::generate(16, 256, 1);
/// let h = p.hash(&[0.5; 16])?;
/// assert_eq!(h.len(), 256);
/// # Ok::<(), deepcam_hash::HashError>(())
/// ```
#[derive(Debug, Clone)]
pub struct ProjectionMatrix {
    input_dim: usize,
    hash_len: usize,
    seed: u64,
    /// Row-major `[input_dim * hash_len]`.
    data: Vec<f32>,
}

impl ProjectionMatrix {
    /// Samples a fresh `n×k` projection from `N(0,1)` with the given seed.
    ///
    /// Entry `i` (row-major) is the `i`-th
    /// [`standard_normal`](deepcam_tensor::rng::standard_normal) draw of
    /// `seeded_rng(seed)` as `f32`, bit for bit. The block generator
    /// [`fill_standard_normal`] writes it, about 3× faster than one libm
    /// `ln` and `cos` per entry. [`ContextGenerator`](crate::ContextGenerator)
    /// and the engine's frozen reference datapath build their row-major
    /// matrices here. Compile and every artifact load draw the same
    /// values straight into the engine's 64-column panels instead
    /// (`ProjPanels::generate` in `deepcam-tensor`), never holding this
    /// row-major copy.
    ///
    /// # Panics
    ///
    /// Panics if `input_dim` or `hash_len` is zero.
    pub fn generate(input_dim: usize, hash_len: usize, seed: u64) -> Self {
        assert!(input_dim > 0, "projection input_dim must be > 0");
        assert!(hash_len > 0, "projection hash_len must be > 0");
        let mut data = vec![0.0f32; input_dim * hash_len];
        fill_standard_normal(&mut seeded_rng(seed), &mut data);
        ProjectionMatrix {
            input_dim,
            hash_len,
            seed,
            data,
        }
    }

    /// Input dimensionality `n`.
    pub fn input_dim(&self) -> usize {
        self.input_dim
    }

    /// Hash width `k`.
    pub fn hash_len(&self) -> usize {
        self.hash_len
    }

    /// Seed the matrix was generated from.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The whole matrix, row-major `[input_dim, hash_len]`.
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Row `i` of the matrix (the hyperplane coefficients fed by input
    /// element `i`).
    ///
    /// # Panics
    ///
    /// Panics if `i >= input_dim`.
    pub fn row(&self, i: usize) -> &[f32] {
        &self.data[i * self.hash_len..(i + 1) * self.hash_len]
    }

    /// Computes the raw projection `x·C ∈ R^k` (before the sign).
    ///
    /// Exposed separately so a caller can inspect the analog pre-sign
    /// values the sense amplifiers take the sign of.
    ///
    /// # Errors
    ///
    /// Returns [`HashError::DimensionMismatch`] when `x.len() !=
    /// input_dim`.
    pub fn project(&self, x: &[f32]) -> Result<Vec<f32>> {
        if x.len() != self.input_dim {
            return Err(HashError::DimensionMismatch {
                expected: self.input_dim,
                actual: x.len(),
            });
        }
        let mut acc = vec![0.0f32; self.hash_len];
        for (i, &xi) in x.iter().enumerate() {
            if xi == 0.0 {
                continue;
            }
            let row = self.row(i);
            for (a, &c) in acc.iter_mut().zip(row.iter()) {
                *a += xi * c;
            }
        }
        Ok(acc)
    }

    /// Materializes the matrix as an `[n, k]` tensor for batched
    /// projection via GEMM.
    ///
    /// The functional engine projects thousands of im2col patches per
    /// layer; `patches [P, n] · C [n, k]` through
    /// [`deepcam_tensor::Tensor::matmul`] is far faster than row-by-row
    /// [`ProjectionMatrix::project`] calls.
    pub fn to_tensor(&self) -> deepcam_tensor::Tensor {
        deepcam_tensor::Tensor::from_vec(
            self.data.clone(),
            deepcam_tensor::Shape::new(&[self.input_dim, self.hash_len]),
        )
        .expect("projection buffer volume matches its shape")
    }

    /// Hashes `x` to `k` sign bits: `hash(x) = sign(x·C)`.
    ///
    /// # Errors
    ///
    /// Returns [`HashError::DimensionMismatch`] when `x.len() !=
    /// input_dim`.
    pub fn hash(&self, x: &[f32]) -> Result<BitVec> {
        Ok(BitVec::from_signs(&self.project(x)?))
    }

    /// Hashes `x` and truncates to the first `k` bits (variable hash
    /// length via prefix truncation).
    ///
    /// # Errors
    ///
    /// Returns [`HashError::InvalidHashLength`] if `k > hash_len`, plus
    /// the errors of [`ProjectionMatrix::hash`].
    pub fn hash_prefix(&self, x: &[f32], k: usize) -> Result<BitVec> {
        if k > self.hash_len {
            return Err(HashError::InvalidHashLength {
                requested: k,
                max: self.hash_len,
            });
        }
        self.hash(x)?.prefix(k)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_given_seed() {
        let a = ProjectionMatrix::generate(8, 64, 5);
        let b = ProjectionMatrix::generate(8, 64, 5);
        assert_eq!(a.data, b.data);
        let c = ProjectionMatrix::generate(8, 64, 6);
        assert_ne!(a.data, c.data);
    }

    #[test]
    fn entries_are_the_seeded_standard_normal_sequence() {
        use deepcam_tensor::rng::standard_normal;
        for (n, k, seed) in [(1, 1, 0), (3, 7, 1), (25, 256, 2), (150, 512, 3)] {
            let p = ProjectionMatrix::generate(n, k, seed);
            let mut rng = seeded_rng(seed);
            for (i, v) in p.data.iter().enumerate() {
                let want = standard_normal(&mut rng) as f32;
                assert_eq!(v.to_bits(), want.to_bits(), "{n}x{k} seed {seed} entry {i}");
            }
        }
    }

    #[test]
    fn entries_look_standard_normal() {
        let p = ProjectionMatrix::generate(100, 500, 7);
        let n = p.data.len() as f64;
        let mean = p.data.iter().map(|&x| x as f64).sum::<f64>() / n;
        let var = p
            .data
            .iter()
            .map(|&x| (x as f64 - mean).powi(2))
            .sum::<f64>()
            / n;
        assert!(mean.abs() < 0.02, "mean {mean}");
        assert!((var - 1.0).abs() < 0.03, "var {var}");
    }

    #[test]
    fn project_is_linear() {
        let p = ProjectionMatrix::generate(4, 32, 1);
        let x = [1.0, -2.0, 0.5, 3.0];
        let y = [0.3, 0.7, -1.1, 0.0];
        let px = p.project(&x).unwrap();
        let py = p.project(&y).unwrap();
        let sum: Vec<f32> = x.iter().zip(y.iter()).map(|(a, b)| a + b).collect();
        let psum = p.project(&sum).unwrap();
        for i in 0..32 {
            assert!((psum[i] - (px[i] + py[i])).abs() < 1e-4);
        }
    }

    #[test]
    fn hash_is_scale_invariant() {
        // sign(αx·C) == sign(x·C) for α > 0 — the geometric dot-product
        // only sees direction, magnitude goes through the norms.
        let p = ProjectionMatrix::generate(6, 128, 9);
        let x = [0.2, -0.4, 0.8, 0.1, -0.9, 0.5];
        let scaled: Vec<f32> = x.iter().map(|v| v * 37.5).collect();
        assert_eq!(p.hash(&x).unwrap(), p.hash(&scaled).unwrap());
    }

    #[test]
    fn opposite_vectors_hash_to_complements() {
        let p = ProjectionMatrix::generate(5, 256, 2);
        let x = [0.1, 0.9, -0.3, 0.7, -0.2];
        let neg: Vec<f32> = x.iter().map(|v| -v).collect();
        let hx = p.hash(&x).unwrap();
        let hn = p.hash(&neg).unwrap();
        // Sign flips everywhere except exact zeros of the projection
        // (probability ~0 for continuous draws).
        assert_eq!(hx.hamming(&hn).unwrap(), 256);
    }

    #[test]
    fn dimension_mismatch_rejected() {
        let p = ProjectionMatrix::generate(4, 16, 0);
        assert!(p.project(&[1.0; 3]).is_err());
        assert!(p.hash(&[1.0; 5]).is_err());
    }

    #[test]
    fn hash_prefix_truncates() {
        let p = ProjectionMatrix::generate(4, 64, 3);
        let x = [0.4, -0.2, 0.9, 0.1];
        let full = p.hash(&x).unwrap();
        let pre = p.hash_prefix(&x, 40).unwrap();
        assert_eq!(pre.len(), 40);
        for i in 0..40 {
            assert_eq!(pre.get(i), full.get(i));
        }
        assert!(p.hash_prefix(&x, 65).is_err());
    }
}

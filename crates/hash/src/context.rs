//! Context generation — the paper's Fig. 4.
//!
//! A *context* is the CAM-resident representation of one vector: its L2
//! norm (8-bit minifloat) plus its k-bit hash. The software context
//! generator produces
//!
//! * **weight contexts** — one per convolution kernel (a `[C,KH,KW]`
//!   kernel reshaped to a flat vector) or one per linear-layer output
//!   neuron, and
//! * **activation contexts** — one per im2col patch (one per output
//!   spatial position).
//!
//! Both sides must use the *same* projection matrix, otherwise the
//! Hamming distance between their hashes estimates nothing.

use deepcam_tensor::{Shape, Tensor};

use crate::bitvec::BitVec;
use crate::error::HashError;
use crate::minifloat::Minifloat8;
use crate::projection::ProjectionMatrix;
use crate::Result;

/// The CAM-resident representation of one vector.
#[derive(Debug, Clone, PartialEq)]
pub struct Context {
    /// Full-precision L2 norm (kept for ablations).
    pub norm: f32,
    /// The 8-bit minifloat norm actually used by the hardware datapath.
    pub norm_q: Minifloat8,
    /// The hashed binary datum stored in (or searched against) CAM rows.
    pub bits: BitVec,
}

impl Context {
    /// Norm value as the hardware sees it.
    pub fn quantized_norm(&self) -> f32 {
        self.norm_q.to_f32()
    }
}

/// A batch of contexts sharing one projection (one CNN layer's weights, or
/// one input tile's activations).
#[derive(Debug, Clone, PartialEq)]
pub struct ContextSet {
    /// The contexts, in kernel order (weights) or output-position order
    /// (activations).
    pub contexts: Vec<Context>,
    /// Hash width each context was generated at.
    pub hash_len: usize,
    /// Dimensionality of the source vectors.
    pub source_dim: usize,
}

impl ContextSet {
    /// Number of contexts.
    pub fn len(&self) -> usize {
        self.contexts.len()
    }

    /// Returns `true` when the set is empty.
    pub fn is_empty(&self) -> bool {
        self.contexts.is_empty()
    }

    /// Iterates over the contexts.
    pub fn iter(&self) -> std::slice::Iter<'_, Context> {
        self.contexts.iter()
    }
}

/// Generates contexts for one layer: owns the layer's projection matrix.
///
/// Each context is projected one vector at a time through the row-major
/// matrix ([`ProjectionMatrix::project`]'s serial multiply-then-add
/// chain, skipping zero taps). The compiler in `deepcam-core` does not
/// call it: it hashes the kernels with the engine's certified panel
/// tile, whose bits and norms equal these for every finite projection,
/// and its tests keep this generator as the scalar oracle.
///
/// # Example
///
/// ```
/// use deepcam_hash::ContextGenerator;
/// use deepcam_tensor::{Tensor, Shape};
///
/// // A conv layer with 2 kernels of shape [3, 3, 3] → patch length 27.
/// let generator = ContextGenerator::new(27, 1024, 42)?;
/// let kernels = Tensor::full(Shape::new(&[2, 3, 3, 3]), 0.1);
/// let set = generator.weight_contexts(&kernels)?;
/// assert_eq!(set.len(), 2);
/// assert_eq!(set.hash_len, 1024);
/// # Ok::<(), deepcam_hash::HashError>(())
/// ```
#[derive(Debug, Clone)]
pub struct ContextGenerator {
    projection: ProjectionMatrix,
}

impl ContextGenerator {
    /// Creates a generator for `input_dim`-dimensional vectors hashing to
    /// `max_hash_len` bits. Shorter effective lengths are obtained by
    /// prefix truncation at comparison time.
    ///
    /// # Errors
    ///
    /// Returns [`HashError::InvalidConfig`] for zero dimensions.
    pub fn new(input_dim: usize, max_hash_len: usize, seed: u64) -> Result<Self> {
        if input_dim == 0 || max_hash_len == 0 {
            return Err(HashError::InvalidConfig(
                "context generator dimensions must be > 0".into(),
            ));
        }
        Ok(ContextGenerator {
            projection: ProjectionMatrix::generate(input_dim, max_hash_len, seed),
        })
    }

    /// The projection shared by every context from this generator.
    pub fn projection(&self) -> &ProjectionMatrix {
        &self.projection
    }

    /// Builds the context of a single vector.
    ///
    /// # Errors
    ///
    /// Returns a dimension error when `v.len()` disagrees with the
    /// projection.
    pub fn context_for(&self, v: &[f32]) -> Result<Context> {
        let bits = self.projection.hash(v)?;
        let norm = v.iter().map(|&x| x * x).sum::<f32>().sqrt();
        Ok(Context {
            norm,
            norm_q: Minifloat8::from_f32(norm),
            bits,
        })
    }

    /// Builds one context per kernel from a conv weight tensor
    /// `[M, C, KH, KW]` (or per output neuron from a linear weight
    /// `[F_out, F_in]`). Each kernel is flattened row-major, matching the
    /// im2col patch layout.
    ///
    /// # Errors
    ///
    /// Returns a dimension error when the flattened kernel length
    /// disagrees with the projection.
    pub fn weight_contexts(&self, weight: &Tensor) -> Result<ContextSet> {
        let dims = weight.shape().dims();
        if dims.is_empty() {
            return Err(HashError::InvalidConfig(
                "weight tensor must have at least one axis".into(),
            ));
        }
        let m = dims[0];
        let flat: usize = dims[1..].iter().product();
        let as_rows = weight
            .clone()
            .reshape(Shape::new(&[m, flat]))
            .map_err(|_| HashError::InvalidConfig("weight reshape failed".into()))?;
        let mut contexts = Vec::with_capacity(m);
        for i in 0..m {
            contexts.push(self.context_for(as_rows.row(i).data())?);
        }
        Ok(ContextSet {
            contexts,
            hash_len: self.projection.hash_len(),
            source_dim: flat,
        })
    }

    /// Builds one context per row of an im2col patch matrix `[P, n]`.
    ///
    /// # Errors
    ///
    /// Returns errors on non-rank-2 input or a patch length mismatch.
    pub fn activation_contexts(&self, patches: &Tensor) -> Result<ContextSet> {
        if patches.shape().rank() != 2 {
            return Err(HashError::InvalidConfig(format!(
                "activation patches must be rank 2, got {}",
                patches.shape()
            )));
        }
        let p = patches.shape().dim(0);
        let mut contexts = Vec::with_capacity(p);
        for i in 0..p {
            contexts.push(self.context_for(patches.row(i).data())?);
        }
        Ok(ContextSet {
            contexts,
            hash_len: self.projection.hash_len(),
            source_dim: patches.shape().dim(1),
        })
    }
}

/// Reconstructs the approximate dot-product of two contexts at hash width
/// `k` — the complete post-CAM arithmetic of the paper (Hamming → angle →
/// eq. 5 cosine → norm multiply).
///
/// # Errors
///
/// Returns [`HashError::InvalidHashLength`] when `k` exceeds either
/// context's hash width.
pub fn approx_dot(
    a: &Context,
    b: &Context,
    k: usize,
    cosine: crate::geometric::CosineMode,
    norm: crate::geometric::NormMode,
) -> Result<f32> {
    let hd = a.bits.hamming_prefix(&b.bits, k)?;
    let theta = crate::geometric::GeometricDot::angle_from_hamming(hd, k);
    let na = norm.apply(a.norm);
    let nb = norm.apply(b.norm);
    Ok(na * nb * cosine.eval(theta))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geometric::{CosineMode, NormMode};
    use deepcam_tensor::init;
    use deepcam_tensor::rng::seeded_rng;

    #[test]
    fn context_norm_is_l2() {
        let g = ContextGenerator::new(2, 64, 0).unwrap();
        let c = g.context_for(&[3.0, 4.0]).unwrap();
        assert!((c.norm - 5.0).abs() < 1e-6);
        assert_eq!(c.quantized_norm(), 5.0); // 5.0 is exactly representable
    }

    #[test]
    fn weight_contexts_one_per_kernel() {
        let mut rng = seeded_rng(1);
        let w = init::normal(&mut rng, Shape::new(&[6, 1, 5, 5]), 0.0, 0.2);
        let g = ContextGenerator::new(25, 256, 3).unwrap();
        let set = g.weight_contexts(&w).unwrap();
        assert_eq!(set.len(), 6);
        assert_eq!(set.source_dim, 25);
        // Every context hash has the full width.
        assert!(set.iter().all(|c| c.bits.len() == 256));
    }

    #[test]
    fn linear_weight_contexts() {
        let mut rng = seeded_rng(2);
        let w = init::normal(&mut rng, Shape::new(&[10, 84]), 0.0, 0.2);
        let g = ContextGenerator::new(84, 512, 4).unwrap();
        let set = g.weight_contexts(&w).unwrap();
        assert_eq!(set.len(), 10);
        assert_eq!(set.source_dim, 84);
    }

    #[test]
    fn activation_contexts_one_per_patch() {
        let mut rng = seeded_rng(3);
        let patches = init::normal(&mut rng, Shape::new(&[49, 25]), 0.0, 1.0);
        let g = ContextGenerator::new(25, 256, 3).unwrap();
        let set = g.activation_contexts(&patches).unwrap();
        assert_eq!(set.len(), 49);
    }

    #[test]
    fn dimension_mismatch_detected() {
        let g = ContextGenerator::new(10, 64, 0).unwrap();
        let w = Tensor::zeros(Shape::new(&[2, 3, 3])); // flat = 9 ≠ 10
        assert!(g.weight_contexts(&w).is_err());
    }

    #[test]
    fn approx_dot_tracks_algebraic() {
        let mut rng = seeded_rng(7);
        let g = ContextGenerator::new(32, 1024, 9).unwrap();
        let x = init::normal(&mut rng, Shape::new(&[32]), 0.0, 1.0);
        let y = init::normal(&mut rng, Shape::new(&[32]), 0.0, 1.0);
        let cx = g.context_for(x.data()).unwrap();
        let cy = g.context_for(y.data()).unwrap();
        let approx = approx_dot(&cx, &cy, 1024, CosineMode::Exact, NormMode::Fp32).unwrap();
        let alg: f32 = x.dot(&y).unwrap();
        let scale = cx.norm * cy.norm;
        assert!(
            (approx - alg).abs() < 0.15 * scale,
            "approx {approx} vs algebraic {alg} (scale {scale})"
        );
    }

    #[test]
    fn approx_dot_respects_hash_len() {
        let g = ContextGenerator::new(8, 512, 1).unwrap();
        let c = g.context_for(&[1.0; 8]).unwrap();
        assert!(approx_dot(&c, &c, 513, CosineMode::Exact, NormMode::Fp32).is_err());
        let self_dot = approx_dot(&c, &c, 256, CosineMode::Exact, NormMode::Fp32).unwrap();
        assert!((self_dot - 8.0).abs() < 1e-3); // ‖x‖² with θ=0
    }

    #[test]
    fn context_set_iteration() {
        let g = ContextGenerator::new(4, 64, 0).unwrap();
        let w = Tensor::full(Shape::new(&[3, 4]), 1.0);
        let set = g.weight_contexts(&w).unwrap();
        assert_eq!(set.iter().count(), 3);
        assert!(!set.is_empty());
    }
}

//! Max and average pooling.

use crate::error::TensorError;
use crate::shape::Shape;
use crate::tensor::Tensor;
use crate::Result;

/// Pooling window configuration.
///
/// # Example
///
/// ```
/// use deepcam_tensor::ops::PoolConfig;
///
/// let p = PoolConfig::new(2); // 2x2 window, stride 2
/// assert_eq!(p.output_hw(28, 28), (14, 14));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PoolConfig {
    /// Window size (square).
    pub kernel: usize,
    /// Stride; defaults to `kernel` (non-overlapping windows).
    pub stride: usize,
}

impl PoolConfig {
    /// Non-overlapping square window of size `kernel`.
    pub fn new(kernel: usize) -> Self {
        PoolConfig {
            kernel,
            stride: kernel,
        }
    }

    /// Output spatial size for an `h x w` input.
    pub fn output_hw(&self, h: usize, w: usize) -> (usize, usize) {
        (
            (h - self.kernel) / self.stride + 1,
            (w - self.kernel) / self.stride + 1,
        )
    }

    /// Validates the configuration against an input size.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::InvalidConfig`] for zero kernel/stride or a
    /// window larger than the input.
    pub fn validate(&self, h: usize, w: usize) -> Result<()> {
        if self.kernel == 0 || self.stride == 0 {
            return Err(TensorError::InvalidConfig(
                "pool kernel and stride must be > 0".into(),
            ));
        }
        if self.kernel > h || self.kernel > w {
            return Err(TensorError::InvalidConfig(format!(
                "pool window {} exceeds input {h}x{w}",
                self.kernel
            )));
        }
        Ok(())
    }
}

impl serde::bin::BinCodec for PoolConfig {
    fn encode(&self, w: &mut serde::bin::Writer) {
        w.put_usize(self.kernel);
        w.put_usize(self.stride);
    }

    fn decode(r: &mut serde::bin::Reader<'_>) -> serde::bin::BinResult<Self> {
        let cfg = PoolConfig {
            kernel: r.get_usize()?,
            stride: r.get_usize()?,
        };
        if cfg.kernel == 0 || cfg.stride == 0 {
            return Err(serde::bin::BinError::Invalid(
                "pool kernel and stride must be > 0".into(),
            ));
        }
        Ok(cfg)
    }
}

/// Max pooling. Returns the pooled tensor and the flat argmax index of each
/// window (needed by [`max_pool2d_backward`]).
///
/// # Errors
///
/// Returns an error for non-NCHW input or an invalid window.
pub fn max_pool2d(input: &Tensor, cfg: &PoolConfig) -> Result<(Tensor, Vec<usize>)> {
    let (n, c, h, w) = input.shape().as_nchw().ok_or(TensorError::RankMismatch {
        expected: 4,
        actual: input.shape().rank(),
        op: "max_pool2d",
    })?;
    cfg.validate(h, w)?;
    let (oh, ow) = cfg.output_hw(h, w);
    let mut out = vec![0.0f32; n * c * oh * ow];
    let mut idx = vec![0usize; n * c * oh * ow];
    let x = input.data();
    for nc in 0..n * c {
        let base = nc * h * w;
        for ohi in 0..oh {
            for owi in 0..ow {
                let mut best = f32::NEG_INFINITY;
                let mut best_at = 0;
                for kh in 0..cfg.kernel {
                    for kw in 0..cfg.kernel {
                        let ih = ohi * cfg.stride + kh;
                        let iw = owi * cfg.stride + kw;
                        let v = x[base + ih * w + iw];
                        if v > best {
                            best = v;
                            best_at = base + ih * w + iw;
                        }
                    }
                }
                let o = nc * oh * ow + ohi * ow + owi;
                out[o] = best;
                idx[o] = best_at;
            }
        }
    }
    Ok((Tensor::from_vec(out, Shape::new(&[n, c, oh, ow]))?, idx))
}

/// Backward pass of [`max_pool2d`]: routes each output gradient to the
/// input element that won its window.
///
/// # Errors
///
/// Returns an error when `grad_out` volume disagrees with `indices`.
pub fn max_pool2d_backward(
    grad_out: &Tensor,
    indices: &[usize],
    input_shape: &Shape,
) -> Result<Tensor> {
    if grad_out.len() != indices.len() {
        return Err(TensorError::LengthMismatch {
            expected: indices.len(),
            actual: grad_out.len(),
        });
    }
    let mut grad_in = Tensor::zeros(input_shape.clone());
    for (g, &i) in grad_out.data().iter().zip(indices.iter()) {
        grad_in.data_mut()[i] += g;
    }
    Ok(grad_in)
}

/// Average pooling.
///
/// # Errors
///
/// Returns an error for non-NCHW input or an invalid window.
pub fn avg_pool2d(input: &Tensor, cfg: &PoolConfig) -> Result<Tensor> {
    let (n, c, h, w) = input.shape().as_nchw().ok_or(TensorError::RankMismatch {
        expected: 4,
        actual: input.shape().rank(),
        op: "avg_pool2d",
    })?;
    cfg.validate(h, w)?;
    let (oh, ow) = cfg.output_hw(h, w);
    let norm = 1.0 / (cfg.kernel * cfg.kernel) as f32;
    let mut out = vec![0.0f32; n * c * oh * ow];
    let x = input.data();
    for nc in 0..n * c {
        let base = nc * h * w;
        for ohi in 0..oh {
            for owi in 0..ow {
                let mut acc = 0.0;
                for kh in 0..cfg.kernel {
                    for kw in 0..cfg.kernel {
                        acc += x[base + (ohi * cfg.stride + kh) * w + owi * cfg.stride + kw];
                    }
                }
                out[nc * oh * ow + ohi * ow + owi] = acc * norm;
            }
        }
    }
    Tensor::from_vec(out, Shape::new(&[n, c, oh, ow]))
}

/// Backward pass of [`avg_pool2d`]: spreads each output gradient uniformly
/// over its window.
///
/// # Errors
///
/// Returns an error when shapes are inconsistent with the configuration.
pub fn avg_pool2d_backward(
    grad_out: &Tensor,
    input_shape: &Shape,
    cfg: &PoolConfig,
) -> Result<Tensor> {
    let (n, c, h, w) = input_shape.as_nchw().ok_or(TensorError::RankMismatch {
        expected: 4,
        actual: input_shape.rank(),
        op: "avg_pool2d_backward",
    })?;
    let (oh, ow) = cfg.output_hw(h, w);
    if grad_out.shape() != &Shape::new(&[n, c, oh, ow]) {
        return Err(TensorError::ShapeMismatch {
            lhs: grad_out.shape().clone(),
            rhs: Shape::new(&[n, c, oh, ow]),
            op: "avg_pool2d_backward",
        });
    }
    let norm = 1.0 / (cfg.kernel * cfg.kernel) as f32;
    let mut grad_in = Tensor::zeros(input_shape.clone());
    let g = grad_out.data();
    for nc in 0..n * c {
        let base = nc * h * w;
        for ohi in 0..oh {
            for owi in 0..ow {
                let gv = g[nc * oh * ow + ohi * ow + owi] * norm;
                for kh in 0..cfg.kernel {
                    for kw in 0..cfg.kernel {
                        grad_in.data_mut()
                            [base + (ohi * cfg.stride + kh) * w + owi * cfg.stride + kw] += gv;
                    }
                }
            }
        }
    }
    Ok(grad_in)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize, c: usize, h: usize, w: usize) -> Tensor {
        Tensor::from_vec(
            (0..n * c * h * w).map(|i| i as f32).collect(),
            Shape::new(&[n, c, h, w]),
        )
        .unwrap()
    }

    #[test]
    fn max_pool_values_and_indices() {
        let x = ramp(1, 1, 4, 4);
        let (y, idx) = max_pool2d(&x, &PoolConfig::new(2)).unwrap();
        assert_eq!(y.data(), &[5.0, 7.0, 13.0, 15.0]);
        assert_eq!(idx, vec![5, 7, 13, 15]);
    }

    #[test]
    fn max_pool_backward_routes_gradient() {
        let x = ramp(1, 1, 4, 4);
        let (y, idx) = max_pool2d(&x, &PoolConfig::new(2)).unwrap();
        let go = Tensor::full(y.shape().clone(), 1.0);
        let gi = max_pool2d_backward(&go, &idx, x.shape()).unwrap();
        assert_eq!(gi.sum(), 4.0);
        assert_eq!(gi.data()[5], 1.0);
        assert_eq!(gi.data()[0], 0.0);
    }

    #[test]
    fn avg_pool_values() {
        let x = ramp(1, 1, 4, 4);
        let y = avg_pool2d(&x, &PoolConfig::new(2)).unwrap();
        assert_eq!(y.data(), &[2.5, 4.5, 10.5, 12.5]);
    }

    #[test]
    fn avg_pool_backward_conserves_gradient() {
        let x = ramp(1, 2, 4, 4);
        let cfg = PoolConfig::new(2);
        let y = avg_pool2d(&x, &cfg).unwrap();
        let go = Tensor::full(y.shape().clone(), 1.0);
        let gi = avg_pool2d_backward(&go, x.shape(), &cfg).unwrap();
        assert!((gi.sum() - go.sum()).abs() < 1e-5);
        assert!(gi.data().iter().all(|&v| (v - 0.25).abs() < 1e-6));
    }

    #[test]
    fn global_avg_pool() {
        // ResNet18 ends with a global average pool; window == input size.
        let x = ramp(1, 2, 4, 4);
        let y = avg_pool2d(&x, &PoolConfig::new(4)).unwrap();
        assert_eq!(y.shape(), &Shape::new(&[1, 2, 1, 1]));
        assert_eq!(y.data()[0], 7.5); // mean of 0..16
    }

    #[test]
    fn rejects_oversized_window() {
        let x = ramp(1, 1, 2, 2);
        assert!(max_pool2d(&x, &PoolConfig::new(3)).is_err());
    }
}

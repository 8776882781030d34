//! 2-D convolution via im2col/col2im.
//!
//! The im2col transform is load-bearing for the whole reproduction: the
//! DeepCAM context generator (paper Fig. 4) reshapes each convolution into
//! a set of patch vectors, computes an L2 norm and a hashed binary vector
//! per patch, and stores those *contexts* in the CAM. Keeping a single
//! im2col implementation here guarantees that the functional CAM inference
//! in `deepcam-core` sees exactly the same patch geometry as the reference
//! float convolution.

use crate::error::TensorError;
use crate::pool::ThreadPool;
use crate::shape::Shape;
use crate::tensor::Tensor;
use crate::Result;

/// Hyper-parameters of a 2-D convolution.
///
/// # Example
///
/// ```
/// use deepcam_tensor::ops::Conv2dConfig;
///
/// let cfg = Conv2dConfig::new(3, 16, 3).with_stride(1).with_padding(1);
/// assert_eq!(cfg.output_hw(32, 32), (32, 32));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Conv2dConfig {
    /// Input channels `C`.
    pub in_channels: usize,
    /// Output channels (number of kernels) `M`.
    pub out_channels: usize,
    /// Kernel height `KH`.
    pub kernel_h: usize,
    /// Kernel width `KW`.
    pub kernel_w: usize,
    /// Stride (same in both axes).
    pub stride: usize,
    /// Zero padding (same on all sides).
    pub padding: usize,
}

impl Conv2dConfig {
    /// Creates a square-kernel configuration with stride 1 and no padding.
    pub fn new(in_channels: usize, out_channels: usize, kernel: usize) -> Self {
        Conv2dConfig {
            in_channels,
            out_channels,
            kernel_h: kernel,
            kernel_w: kernel,
            stride: 1,
            padding: 0,
        }
    }

    /// Builder-style stride override.
    pub fn with_stride(mut self, stride: usize) -> Self {
        self.stride = stride;
        self
    }

    /// Builder-style padding override.
    pub fn with_padding(mut self, padding: usize) -> Self {
        self.padding = padding;
        self
    }

    /// Length of one im2col patch vector: `C * KH * KW`.
    ///
    /// This is the dimensionality `n` that the DeepCAM context generator
    /// hashes down to `k` bits.
    pub fn patch_len(&self) -> usize {
        self.in_channels * self.kernel_h * self.kernel_w
    }

    /// Output spatial size for an `h x w` input.
    ///
    /// # Panics
    ///
    /// Panics if the kernel does not fit in the padded input.
    pub fn output_hw(&self, h: usize, w: usize) -> (usize, usize) {
        let ph = h + 2 * self.padding;
        let pw = w + 2 * self.padding;
        assert!(
            ph >= self.kernel_h && pw >= self.kernel_w,
            "kernel {}x{} does not fit padded input {}x{}",
            self.kernel_h,
            self.kernel_w,
            ph,
            pw
        );
        (
            (ph - self.kernel_h) / self.stride + 1,
            (pw - self.kernel_w) / self.stride + 1,
        )
    }

    /// Validates internal consistency.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::InvalidConfig`] for a zero stride, zero
    /// kernel, or zero channel count.
    pub fn validate(&self) -> Result<()> {
        if self.stride == 0 {
            return Err(TensorError::InvalidConfig("conv stride must be > 0".into()));
        }
        if self.kernel_h == 0 || self.kernel_w == 0 {
            return Err(TensorError::InvalidConfig("conv kernel must be > 0".into()));
        }
        if self.in_channels == 0 || self.out_channels == 0 {
            return Err(TensorError::InvalidConfig(
                "conv channel counts must be > 0".into(),
            ));
        }
        Ok(())
    }
}

impl serde::bin::BinCodec for Conv2dConfig {
    fn encode(&self, w: &mut serde::bin::Writer) {
        w.put_usize(self.in_channels);
        w.put_usize(self.out_channels);
        w.put_usize(self.kernel_h);
        w.put_usize(self.kernel_w);
        w.put_usize(self.stride);
        w.put_usize(self.padding);
    }

    fn decode(r: &mut serde::bin::Reader<'_>) -> serde::bin::BinResult<Self> {
        let cfg = Conv2dConfig {
            in_channels: r.get_usize()?,
            out_channels: r.get_usize()?,
            kernel_h: r.get_usize()?,
            kernel_w: r.get_usize()?,
            stride: r.get_usize()?,
            padding: r.get_usize()?,
        };
        cfg.validate()
            .map_err(|e| serde::bin::BinError::Invalid(format!("conv config: {e}")))?;
        Ok(cfg)
    }
}

/// Unfolds an NCHW input into patch rows.
///
/// Output shape: `[N * OH * OW, C * KH * KW]`. Row `n * OH * OW + oh * OW +
/// ow` holds the receptive field feeding output position `(oh, ow)` of
/// batch item `n`, channel-major (all of channel 0's window first), which
/// matches the kernel layout `[M, C, KH, KW]` flattened per kernel.
///
/// # Errors
///
/// Returns an error if `input` is not rank 4, the channel count disagrees
/// with `cfg`, or `cfg` itself is invalid.
pub fn im2col(input: &Tensor, cfg: &Conv2dConfig) -> Result<Tensor> {
    im2col_sharded(input, cfg, 1)
}

/// Fills `out` (the slices for patch rows `row_start..row_start + len`)
/// with the im2col expansion of those rows. Each row depends only on the
/// input, so any partition of the row space reproduces [`im2col`] exactly.
#[allow(clippy::too_many_arguments)]
fn im2col_rows(
    x: &[f32],
    cfg: &Conv2dConfig,
    c: usize,
    h: usize,
    w: usize,
    oh: usize,
    ow: usize,
    row_start: usize,
    out: &mut [f32],
) {
    let patch = cfg.patch_len();
    let pad = cfg.padding as isize;
    let rows_here = out.len() / patch;
    for local in 0..rows_here {
        let row = row_start + local;
        let ni = row / (oh * ow);
        let ohi = (row / ow) % oh;
        let owi = row % ow;
        let base = local * patch;
        let ih0 = (ohi * cfg.stride) as isize - pad;
        let iw0 = (owi * cfg.stride) as isize - pad;
        let mut col = 0;
        for ci in 0..c {
            let chan_base = (ni * c + ci) * h * w;
            for kh in 0..cfg.kernel_h {
                let ih = ih0 + kh as isize;
                for kw in 0..cfg.kernel_w {
                    let iw = iw0 + kw as isize;
                    if ih >= 0 && (ih as usize) < h && iw >= 0 && (iw as usize) < w {
                        out[base + col] = x[chan_base + ih as usize * w + iw as usize];
                    }
                    col += 1;
                }
            }
        }
    }
}

/// [`im2col`] sharded over patch rows across `workers` pool workers.
///
/// Bit-identical to the serial transform for every worker count: each
/// output row is pure data movement from the input, written exactly once.
///
/// # Errors
///
/// Same conditions as [`im2col`].
pub fn im2col_sharded(input: &Tensor, cfg: &Conv2dConfig, workers: usize) -> Result<Tensor> {
    cfg.validate()?;
    let (n, c, h, w) = input.shape().as_nchw().ok_or(TensorError::RankMismatch {
        expected: 4,
        actual: input.shape().rank(),
        op: "im2col",
    })?;
    if c != cfg.in_channels {
        return Err(TensorError::ShapeMismatch {
            lhs: input.shape().clone(),
            rhs: Shape::new(&[cfg.in_channels]),
            op: "im2col (channels)",
        });
    }
    let (oh, ow) = cfg.output_hw(h, w);
    let patch = cfg.patch_len();
    let rows = n * oh * ow;
    let mut out = vec![0.0f32; rows * patch];
    let x = input.data();
    if workers <= 1 || rows <= 1 {
        im2col_rows(x, cfg, c, h, w, oh, ow, 0, &mut out);
    } else {
        let chunk_rows = rows.div_ceil(workers.min(rows));
        ThreadPool::global().run_chunks_mut(&mut out, chunk_rows * patch, |ci, chunk| {
            im2col_rows(x, cfg, c, h, w, oh, ow, ci * chunk_rows, chunk);
        });
    }
    Tensor::from_vec(out, Shape::new(&[rows, patch]))
}

/// Folds patch-row gradients back onto the input (the adjoint of
/// [`im2col`]). Overlapping windows accumulate.
///
/// # Errors
///
/// Returns an error if `cols` does not have the shape produced by
/// [`im2col`] for the given input geometry.
pub fn col2im(
    cols: &Tensor,
    n: usize,
    c: usize,
    h: usize,
    w: usize,
    cfg: &Conv2dConfig,
) -> Result<Tensor> {
    cfg.validate()?;
    let (oh, ow) = cfg.output_hw(h, w);
    let patch = cfg.patch_len();
    let rows = n * oh * ow;
    if cols.shape() != &Shape::new(&[rows, patch]) {
        return Err(TensorError::ShapeMismatch {
            lhs: cols.shape().clone(),
            rhs: Shape::new(&[rows, patch]),
            op: "col2im",
        });
    }
    let mut out = vec![0.0f32; n * c * h * w];
    let g = cols.data();
    let pad = cfg.padding as isize;
    for ni in 0..n {
        for ohi in 0..oh {
            for owi in 0..ow {
                let row = ni * oh * ow + ohi * ow + owi;
                let base = row * patch;
                let ih0 = (ohi * cfg.stride) as isize - pad;
                let iw0 = (owi * cfg.stride) as isize - pad;
                let mut col = 0;
                for ci in 0..c {
                    let chan_base = (ni * c + ci) * h * w;
                    for kh in 0..cfg.kernel_h {
                        let ih = ih0 + kh as isize;
                        for kw in 0..cfg.kernel_w {
                            let iw = iw0 + kw as isize;
                            if ih >= 0 && (ih as usize) < h && iw >= 0 && (iw as usize) < w {
                                out[chan_base + ih as usize * w + iw as usize] += g[base + col];
                            }
                            col += 1;
                        }
                    }
                }
            }
        }
    }
    Tensor::from_vec(out, Shape::new(&[n, c, h, w]))
}

/// Reference float convolution: `input [N,C,H,W] * weight [M,C,KH,KW] +
/// bias [M] -> [N,M,OH,OW]`.
///
/// Implemented as im2col followed by a GEMM, which is also how the DeepCAM
/// context generator decomposes the layer.
///
/// # Errors
///
/// Propagates shape errors from [`im2col`] and the GEMM, and rejects a
/// weight tensor whose shape disagrees with `cfg`.
pub fn conv2d(
    input: &Tensor,
    weight: &Tensor,
    bias: Option<&Tensor>,
    cfg: &Conv2dConfig,
) -> Result<Tensor> {
    let expected_w = Shape::new(&[
        cfg.out_channels,
        cfg.in_channels,
        cfg.kernel_h,
        cfg.kernel_w,
    ]);
    if weight.shape() != &expected_w {
        return Err(TensorError::ShapeMismatch {
            lhs: weight.shape().clone(),
            rhs: expected_w,
            op: "conv2d (weight)",
        });
    }
    let (n, _c, h, w) = input.shape().as_nchw().ok_or(TensorError::RankMismatch {
        expected: 4,
        actual: input.shape().rank(),
        op: "conv2d",
    })?;
    let (oh, ow) = cfg.output_hw(h, w);
    let patches = im2col(input, cfg)?; // [N*P, CKK]
    let wmat = weight
        .clone()
        .reshape(Shape::new(&[cfg.out_channels, cfg.patch_len()]))?;
    // [N*P, M]
    let out2d = patches.matmul(&wmat.transpose()?)?;
    // Permute [N*P, M] -> [N, M, OH, OW].
    let p = oh * ow;
    let m = cfg.out_channels;
    let mut out = vec![0.0f32; n * m * p];
    let src = out2d.data();
    for ni in 0..n {
        for pi in 0..p {
            let row = (ni * p + pi) * m;
            for mi in 0..m {
                out[(ni * m + mi) * p + pi] = src[row + mi];
            }
        }
    }
    if let Some(b) = bias {
        if b.len() != m {
            return Err(TensorError::ShapeMismatch {
                lhs: b.shape().clone(),
                rhs: Shape::new(&[m]),
                op: "conv2d (bias)",
            });
        }
        for (plane, &bv) in out.chunks_mut(p.max(1)).zip(b.data().iter().cycle()) {
            for v in plane {
                *v += bv;
            }
        }
    }
    Tensor::from_vec(out, Shape::new(&[n, m, oh, ow]))
}

/// Gradients of [`conv2d`] with respect to input, weight and bias.
///
/// `grad_out` has shape `[N, M, OH, OW]`; `patches` is the im2col matrix
/// cached from the forward pass. Returns `(grad_input, grad_weight,
/// grad_bias)`.
///
/// # Errors
///
/// Propagates shape errors from the internal GEMMs and [`col2im`].
pub fn conv2d_backward(
    grad_out: &Tensor,
    patches: &Tensor,
    weight: &Tensor,
    input_shape: &Shape,
    cfg: &Conv2dConfig,
) -> Result<(Tensor, Tensor, Tensor)> {
    let (n, c, h, w) = input_shape.as_nchw().ok_or(TensorError::RankMismatch {
        expected: 4,
        actual: input_shape.rank(),
        op: "conv2d_backward",
    })?;
    let (oh, ow) = cfg.output_hw(h, w);
    let p = oh * ow;
    let m = cfg.out_channels;
    // Permute grad_out [N, M, OH, OW] -> [N*P, M] matching forward ordering.
    let g = grad_out.data();
    let mut g2d = vec![0.0f32; n * p * m];
    for ni in 0..n {
        for mi in 0..m {
            for pi in 0..p {
                g2d[(ni * p + pi) * m + mi] = g[(ni * m + mi) * p + pi];
            }
        }
    }
    let g2d = Tensor::from_vec(g2d, Shape::new(&[n * p, m]))?;
    // dW = g2d^T . patches -> [M, CKK]
    let dw2d = g2d.transpose()?.matmul(patches)?;
    let dw = dw2d.reshape(Shape::new(&[m, c, cfg.kernel_h, cfg.kernel_w]))?;
    // db = column sums of g2d
    let mut db = vec![0.0f32; m];
    for row in 0..n * p {
        for (d, &g) in db.iter_mut().zip(&g2d.data()[row * m..(row + 1) * m]) {
            *d += g;
        }
    }
    let db = Tensor::from_vec(db, Shape::new(&[m]))?;
    // dpatches = g2d . W2d -> [N*P, CKK]
    let wmat = weight.clone().reshape(Shape::new(&[m, cfg.patch_len()]))?;
    let dpatches = g2d.matmul(&wmat)?;
    let dinput = col2im(&dpatches, n, c, h, w, cfg)?;
    Ok((dinput, dw, db))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::init;
    use crate::rng::seeded_rng;

    fn small_input() -> Tensor {
        // 1x1x4x4 ramp.
        Tensor::from_vec(
            (0..16).map(|i| i as f32).collect(),
            Shape::new(&[1, 1, 4, 4]),
        )
        .unwrap()
    }

    #[test]
    fn output_hw_examples() {
        let c = Conv2dConfig::new(1, 6, 5);
        assert_eq!(c.output_hw(32, 32), (28, 28)); // LeNet conv1
        let c = Conv2dConfig::new(3, 64, 3).with_padding(1);
        assert_eq!(c.output_hw(32, 32), (32, 32)); // VGG conv
        let c = Conv2dConfig::new(64, 128, 3).with_padding(1).with_stride(2);
        assert_eq!(c.output_hw(32, 32), (16, 16)); // ResNet downsample
    }

    #[test]
    fn validate_rejects_degenerate() {
        assert!(Conv2dConfig::new(1, 1, 0).validate().is_err());
        assert!(Conv2dConfig::new(0, 1, 3).validate().is_err());
        let mut c = Conv2dConfig::new(1, 1, 3);
        c.stride = 0;
        assert!(c.validate().is_err());
    }

    #[test]
    fn im2col_shape_and_content() {
        let cfg = Conv2dConfig::new(1, 1, 2);
        let cols = im2col(&small_input(), &cfg).unwrap();
        // 3x3 output positions, 4-element patches.
        assert_eq!(cols.shape(), &Shape::new(&[9, 4]));
        // First patch is the top-left 2x2 window of the ramp.
        assert_eq!(&cols.data()[0..4], &[0.0, 1.0, 4.0, 5.0]);
        // Last patch is the bottom-right window.
        assert_eq!(&cols.data()[32..36], &[10.0, 11.0, 14.0, 15.0]);
    }

    #[test]
    fn im2col_padding_zeroes_border() {
        let cfg = Conv2dConfig::new(1, 1, 3).with_padding(1);
        let cols = im2col(&small_input(), &cfg).unwrap();
        assert_eq!(cols.shape(), &Shape::new(&[16, 9]));
        // Patch at (0,0): top row and left column fall in the padding.
        assert_eq!(
            &cols.data()[0..9],
            &[0.0, 0.0, 0.0, 0.0, 0.0, 1.0, 0.0, 4.0, 5.0]
        );
    }

    #[test]
    fn conv2d_identity_kernel() {
        // A 1x1 kernel with weight 1 reproduces the input.
        let cfg = Conv2dConfig::new(1, 1, 1);
        let w = Tensor::full(Shape::new(&[1, 1, 1, 1]), 1.0);
        let x = small_input();
        let y = conv2d(&x, &w, None, &cfg).unwrap();
        assert_eq!(y.data(), x.data());
    }

    #[test]
    fn conv2d_known_values() {
        // Sum-pooling kernel: all-ones 2x2, no bias.
        let cfg = Conv2dConfig::new(1, 1, 2);
        let w = Tensor::full(Shape::new(&[1, 1, 2, 2]), 1.0);
        let y = conv2d(&small_input(), &w, None, &cfg).unwrap();
        // (0+1+4+5) = 10 at the first position.
        assert_eq!(y.data()[0], 10.0);
        assert_eq!(y.shape(), &Shape::new(&[1, 1, 3, 3]));
    }

    #[test]
    fn conv2d_bias_broadcast() {
        let cfg = Conv2dConfig::new(1, 2, 1);
        let w = Tensor::from_vec(vec![1.0, 2.0], Shape::new(&[2, 1, 1, 1])).unwrap();
        let b = Tensor::from_slice(&[10.0, 20.0]);
        let y = conv2d(&small_input(), &w, Some(&b), &cfg).unwrap();
        assert_eq!(y.at(&[0, 0, 0, 0]), 10.0);
        assert_eq!(y.at(&[0, 1, 0, 0]), 20.0);
        assert_eq!(y.at(&[0, 1, 3, 3]), 2.0 * 15.0 + 20.0);
    }

    #[test]
    fn conv2d_multichannel_matches_direct() {
        // Compare the im2col GEMM path against a naive direct convolution.
        let mut rng = seeded_rng(42);
        let x = init::normal(&mut rng, Shape::new(&[2, 3, 6, 6]), 0.0, 1.0);
        let cfg = Conv2dConfig::new(3, 4, 3).with_padding(1).with_stride(2);
        let w = init::normal(&mut rng, Shape::new(&[4, 3, 3, 3]), 0.0, 1.0);
        let b = init::normal(&mut rng, Shape::new(&[4]), 0.0, 1.0);
        let y = conv2d(&x, &w, Some(&b), &cfg).unwrap();
        let (oh, ow) = cfg.output_hw(6, 6);
        for n in 0..2 {
            for m in 0..4 {
                for ohi in 0..oh {
                    for owi in 0..ow {
                        let mut acc = b.data()[m];
                        for c in 0..3 {
                            for kh in 0..3 {
                                for kw in 0..3 {
                                    let ih = (ohi * 2 + kh) as isize - 1;
                                    let iw = (owi * 2 + kw) as isize - 1;
                                    if (0..6).contains(&ih) && (0..6).contains(&iw) {
                                        acc += x.at(&[n, c, ih as usize, iw as usize])
                                            * w.at(&[m, c, kh, kw]);
                                    }
                                }
                            }
                        }
                        let got = y.at(&[n, m, ohi, owi]);
                        assert!(
                            (got - acc).abs() < 1e-4,
                            "mismatch at {n},{m},{ohi},{owi}: {got} vs {acc}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn col2im_is_adjoint_of_im2col() {
        // <im2col(x), y> == <x, col2im(y)> for random x, y — the defining
        // property of an adjoint pair, which is exactly what backprop needs.
        let mut rng = seeded_rng(7);
        let cfg = Conv2dConfig::new(2, 1, 3).with_padding(1).with_stride(2);
        let x = init::normal(&mut rng, Shape::new(&[1, 2, 5, 5]), 0.0, 1.0);
        let cols = im2col(&x, &cfg).unwrap();
        let y = init::normal(&mut rng, cols.shape().clone(), 0.0, 1.0);
        let lhs = cols.dot(&y).unwrap();
        let folded = col2im(&y, 1, 2, 5, 5, &cfg).unwrap();
        let rhs = x.dot(&folded).unwrap();
        assert!((lhs - rhs).abs() < 1e-3, "{lhs} vs {rhs}");
    }

    #[test]
    fn conv2d_backward_matches_numeric_gradient() {
        let mut rng = seeded_rng(11);
        let cfg = Conv2dConfig::new(2, 3, 3).with_padding(1);
        let x = init::normal(&mut rng, Shape::new(&[1, 2, 4, 4]), 0.0, 1.0);
        let w = init::normal(&mut rng, Shape::new(&[3, 2, 3, 3]), 0.0, 0.5);
        let b = init::normal(&mut rng, Shape::new(&[3]), 0.0, 0.5);
        // Loss = sum of outputs, so grad_out = ones.
        let y = conv2d(&x, &w, Some(&b), &cfg).unwrap();
        let go = Tensor::full(y.shape().clone(), 1.0);
        let patches = im2col(&x, &cfg).unwrap();
        let (dx, dw, db) = conv2d_backward(&go, &patches, &w, x.shape(), &cfg).unwrap();

        let eps = 1e-3;
        // Spot-check a few coordinates of each gradient numerically.
        for &idx in &[0usize, 7, 15, 31] {
            let mut xp = x.clone();
            xp.data_mut()[idx] += eps;
            let mut xm = x.clone();
            xm.data_mut()[idx] -= eps;
            let fp = conv2d(&xp, &w, Some(&b), &cfg).unwrap().sum();
            let fm = conv2d(&xm, &w, Some(&b), &cfg).unwrap().sum();
            let num = (fp - fm) / (2.0 * eps);
            assert!(
                (num - dx.data()[idx]).abs() < 1e-2,
                "dx[{idx}]: {num} vs {}",
                dx.data()[idx]
            );
        }
        for &idx in &[0usize, 10, 20, 53] {
            let mut wp = w.clone();
            wp.data_mut()[idx] += eps;
            let mut wm = w.clone();
            wm.data_mut()[idx] -= eps;
            let fp = conv2d(&x, &wp, Some(&b), &cfg).unwrap().sum();
            let fm = conv2d(&x, &wm, Some(&b), &cfg).unwrap().sum();
            let num = (fp - fm) / (2.0 * eps);
            assert!(
                (num - dw.data()[idx]).abs() < 1e-2,
                "dw[{idx}]: {num} vs {}",
                dw.data()[idx]
            );
        }
        // Bias gradient for loss=sum is the number of output positions.
        let p = y.len() as f32 / 3.0;
        for &g in db.data() {
            assert!((g - p).abs() < 1e-3);
        }
    }

    #[test]
    fn conv2d_rejects_wrong_weight_shape() {
        let cfg = Conv2dConfig::new(1, 1, 3);
        let w = Tensor::zeros(Shape::new(&[1, 1, 2, 2]));
        assert!(conv2d(&small_input(), &w, None, &cfg).is_err());
    }

    #[test]
    fn im2col_sharded_is_bit_identical() {
        let mut rng = seeded_rng(21);
        let cfg = Conv2dConfig::new(3, 4, 3).with_padding(1).with_stride(2);
        let x = init::normal(&mut rng, Shape::new(&[2, 3, 7, 7]), 0.0, 1.0);
        let serial = im2col(&x, &cfg).unwrap();
        for workers in [2usize, 3, 8, 64] {
            let sharded = im2col_sharded(&x, &cfg, workers).unwrap();
            assert_eq!(serial.data(), sharded.data(), "workers {workers}");
        }
    }
}

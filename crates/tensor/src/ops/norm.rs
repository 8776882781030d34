//! Batch normalization (2-D, per-channel).

use crate::error::TensorError;
use crate::shape::Shape;
use crate::tensor::Tensor;
use crate::Result;

/// Numerical floor added to the variance before the square root.
pub const BN_EPS: f32 = 1e-5;

/// Intermediate values cached by [`batch_norm2d_train`] for the backward
/// pass.
#[derive(Debug, Clone)]
pub struct BatchNormCache {
    /// Normalized activations `x_hat`.
    pub x_hat: Tensor,
    /// Per-channel `1 / sqrt(var + eps)`.
    pub inv_std: Vec<f32>,
    /// Per-channel batch mean (also used to update running stats).
    pub mean: Vec<f32>,
    /// Per-channel batch variance (biased).
    pub var: Vec<f32>,
}

fn check_nchw(x: &Tensor, op: &'static str) -> Result<(usize, usize, usize, usize)> {
    x.shape().as_nchw().ok_or(TensorError::RankMismatch {
        expected: 4,
        actual: x.shape().rank(),
        op,
    })
}

/// Training-mode batch norm: normalizes with batch statistics and returns
/// the cache needed for backprop.
///
/// `gamma` and `beta` are per-channel scale and shift (`[C]`).
///
/// # Errors
///
/// Returns an error for non-NCHW input or mis-sized `gamma`/`beta`.
pub fn batch_norm2d_train(
    x: &Tensor,
    gamma: &Tensor,
    beta: &Tensor,
) -> Result<(Tensor, BatchNormCache)> {
    let (n, c, h, w) = check_nchw(x, "batch_norm2d")?;
    if gamma.len() != c || beta.len() != c {
        return Err(TensorError::ShapeMismatch {
            lhs: gamma.shape().clone(),
            rhs: Shape::new(&[c]),
            op: "batch_norm2d (params)",
        });
    }
    let (mean, var) = channel_stats(x)?;
    let inv_std: Vec<f32> = var.iter().map(|&v| 1.0 / (v + BN_EPS).sqrt()).collect();
    let data = x.data();
    let mut x_hat = vec![0.0f32; data.len()];
    let mut out = vec![0.0f32; data.len()];
    for ni in 0..n {
        for ci in 0..c {
            let base = (ni * c + ci) * h * w;
            let (g, b) = (gamma.data()[ci], beta.data()[ci]);
            for i in base..base + h * w {
                let xh = (data[i] - mean[ci]) * inv_std[ci];
                x_hat[i] = xh;
                out[i] = g * xh + b;
            }
        }
    }
    let shape = x.shape().clone();
    Ok((
        Tensor::from_vec(out, shape.clone())?,
        BatchNormCache {
            x_hat: Tensor::from_vec(x_hat, shape)?,
            inv_std,
            mean,
            var,
        },
    ))
}

/// Inference-mode batch norm, rewriting `x` in place: every value of
/// channel `c` becomes `gamma[c] · (x − mean[c]) / √(var[c] + ε) + beta[c]`.
///
/// # Errors
///
/// Returns an error for non-NCHW input or mis-sized parameter slices.
pub fn batch_norm2d_infer(
    x: &mut Tensor,
    gamma: &[f32],
    beta: &[f32],
    mean: &[f32],
    var: &[f32],
) -> Result<()> {
    let (n, c, h, w) = check_nchw(x, "batch_norm2d_infer")?;
    if let Some(p) = [gamma, beta, mean, var].into_iter().find(|p| p.len() != c) {
        return Err(TensorError::ShapeMismatch {
            lhs: Shape::new(&[p.len()]),
            rhs: Shape::new(&[c]),
            op: "batch_norm2d_infer (params)",
        });
    }
    let data = x.data_mut();
    for ni in 0..n {
        for ci in 0..c {
            let inv = 1.0 / (var[ci] + BN_EPS).sqrt();
            let base = (ni * c + ci) * h * w;
            for v in &mut data[base..base + h * w] {
                *v = gamma[ci] * (*v - mean[ci]) * inv + beta[ci];
            }
        }
    }
    Ok(())
}

/// Per-channel mean and biased variance of an NCHW tensor: the batch
/// statistics training normalizes with and BN calibration stores. The
/// count is clamped to 1, so an empty batch gives zero statistics, not
/// NaN.
///
/// # Errors
///
/// Returns an error for non-NCHW input.
pub fn channel_stats(x: &Tensor) -> Result<(Vec<f32>, Vec<f32>)> {
    let (n, c, h, w) = check_nchw(x, "channel_stats")?;
    let count = (n * h * w).max(1) as f32;
    let data = x.data();
    let mut mean = vec![0.0f32; c];
    for ni in 0..n {
        for (ci, m) in mean.iter_mut().enumerate() {
            let base = (ni * c + ci) * h * w;
            for &v in &data[base..base + h * w] {
                *m += v;
            }
        }
    }
    for m in &mut mean {
        *m /= count;
    }
    let mut var = vec![0.0f32; c];
    for ni in 0..n {
        for (ci, s) in var.iter_mut().enumerate() {
            let base = (ni * c + ci) * h * w;
            for &v in &data[base..base + h * w] {
                let d = v - mean[ci];
                *s += d * d;
            }
        }
    }
    for v in &mut var {
        *v /= count;
    }
    Ok((mean, var))
}

/// Backward pass of training-mode batch norm.
///
/// Returns `(grad_x, grad_gamma, grad_beta)` using the standard
/// batch-norm gradient derivation.
///
/// # Errors
///
/// Returns an error when `grad_out` disagrees with the cached shapes.
pub fn batch_norm2d_backward(
    grad_out: &Tensor,
    cache: &BatchNormCache,
    gamma: &Tensor,
) -> Result<(Tensor, Tensor, Tensor)> {
    let (n, c, h, w) = check_nchw(grad_out, "batch_norm2d_backward")?;
    if grad_out.shape() != cache.x_hat.shape() {
        return Err(TensorError::ShapeMismatch {
            lhs: grad_out.shape().clone(),
            rhs: cache.x_hat.shape().clone(),
            op: "batch_norm2d_backward",
        });
    }
    let count = (n * h * w) as f32;
    let g = grad_out.data();
    let xh = cache.x_hat.data();
    let mut dgamma = vec![0.0f32; c];
    let mut dbeta = vec![0.0f32; c];
    for ni in 0..n {
        for ci in 0..c {
            let base = (ni * c + ci) * h * w;
            for i in base..base + h * w {
                dgamma[ci] += g[i] * xh[i];
                dbeta[ci] += g[i];
            }
        }
    }
    let mut dx = vec![0.0f32; g.len()];
    for ni in 0..n {
        for ci in 0..c {
            let base = (ni * c + ci) * h * w;
            let scale = gamma.data()[ci] * cache.inv_std[ci] / count;
            for i in base..base + h * w {
                dx[i] = scale * (count * g[i] - dbeta[ci] - xh[i] * dgamma[ci]);
            }
        }
    }
    Ok((
        Tensor::from_vec(dx, grad_out.shape().clone())?,
        Tensor::from_vec(dgamma, Shape::new(&[c]))?,
        Tensor::from_vec(dbeta, Shape::new(&[c]))?,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::init;
    use crate::rng::seeded_rng;

    #[test]
    fn train_output_is_normalized() {
        let mut rng = seeded_rng(1);
        let x = init::normal(&mut rng, Shape::new(&[4, 3, 5, 5]), 3.0, 2.0);
        let gamma = Tensor::full(Shape::new(&[3]), 1.0);
        let beta = Tensor::zeros(Shape::new(&[3]));
        let (y, _) = batch_norm2d_train(&x, &gamma, &beta).unwrap();
        // Each channel of the output should be ~N(0,1).
        for ci in 0..3 {
            let mut vals = Vec::new();
            for ni in 0..4 {
                let base = (ni * 3 + ci) * 25;
                vals.extend_from_slice(&y.data()[base..base + 25]);
            }
            let mean: f32 = vals.iter().sum::<f32>() / vals.len() as f32;
            let var: f32 =
                vals.iter().map(|v| (v - mean) * (v - mean)).sum::<f32>() / vals.len() as f32;
            assert!(mean.abs() < 1e-4, "mean {mean}");
            assert!((var - 1.0).abs() < 1e-2, "var {var}");
        }
    }

    #[test]
    fn gamma_beta_shift_and_scale() {
        let mut rng = seeded_rng(2);
        let x = init::normal(&mut rng, Shape::new(&[2, 1, 4, 4]), 0.0, 1.0);
        let gamma = Tensor::full(Shape::new(&[1]), 2.0);
        let beta = Tensor::full(Shape::new(&[1]), 5.0);
        let (y, _) = batch_norm2d_train(&x, &gamma, &beta).unwrap();
        let mean = y.mean();
        assert!((mean - 5.0).abs() < 1e-3);
    }

    #[test]
    fn infer_uses_running_stats() {
        let mut x = Tensor::full(Shape::new(&[1, 1, 2, 2]), 10.0);
        batch_norm2d_infer(&mut x, &[1.0], &[0.0], &[10.0], &[1.0]).unwrap();
        assert!(x.data().iter().all(|&v| v.abs() < 1e-4));
    }

    #[test]
    fn backward_matches_numeric_gradient() {
        let mut rng = seeded_rng(5);
        let x = init::normal(&mut rng, Shape::new(&[2, 2, 3, 3]), 1.0, 1.5);
        let gamma = init::normal(&mut rng, Shape::new(&[2]), 1.0, 0.1);
        let beta = init::normal(&mut rng, Shape::new(&[2]), 0.0, 0.1);
        // Weighted-sum loss so gradients are non-uniform.
        let wts = init::normal(&mut rng, x.shape().clone(), 0.0, 1.0);
        let loss = |x: &Tensor| {
            let (y, _) = batch_norm2d_train(x, &gamma, &beta).unwrap();
            y.mul(&wts).unwrap().sum()
        };
        let (_, cache) = batch_norm2d_train(&x, &gamma, &beta).unwrap();
        let (dx, _, _) = batch_norm2d_backward(&wts, &cache, &gamma).unwrap();
        let eps = 1e-2;
        for &i in &[0usize, 5, 17, 35] {
            let mut xp = x.clone();
            xp.data_mut()[i] += eps;
            let mut xm = x.clone();
            xm.data_mut()[i] -= eps;
            let num = (loss(&xp) - loss(&xm)) / (2.0 * eps);
            assert!(
                (num - dx.data()[i]).abs() < 2e-2,
                "dx[{i}]: numeric {num} vs analytic {}",
                dx.data()[i]
            );
        }
    }

    #[test]
    fn backward_param_gradients() {
        let mut rng = seeded_rng(6);
        let x = init::normal(&mut rng, Shape::new(&[2, 1, 2, 2]), 0.0, 1.0);
        let gamma = Tensor::full(Shape::new(&[1]), 1.0);
        let beta = Tensor::zeros(Shape::new(&[1]));
        let (_, cache) = batch_norm2d_train(&x, &gamma, &beta).unwrap();
        let go = Tensor::full(x.shape().clone(), 1.0);
        let (_, dgamma, dbeta) = batch_norm2d_backward(&go, &cache, &gamma).unwrap();
        // dbeta = sum of grad_out per channel.
        assert!((dbeta.data()[0] - 8.0).abs() < 1e-5);
        // dgamma = sum of x_hat * grad_out; x_hat sums to ~0.
        assert!(dgamma.data()[0].abs() < 1e-3);
    }
}

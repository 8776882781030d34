//! Fully-connected (dense) layer math.

use crate::error::TensorError;
use crate::shape::Shape;
use crate::tensor::Tensor;
use crate::Result;

/// Forward pass: `x [N, F_in] . W^T [F_in, F_out] + b -> [N, F_out]`.
///
/// The weight layout `[F_out, F_in]` matches PyTorch's `nn.Linear`, and —
/// more importantly here — means each *row* of `W` is one output neuron's
/// weight vector, which is exactly the unit that the DeepCAM context
/// generator hashes into one CAM row.
///
/// # Errors
///
/// Returns a shape error if `x` is not rank 2 or the feature dimensions
/// disagree.
pub fn linear(x: &Tensor, weight: &Tensor, bias: Option<&Tensor>) -> Result<Tensor> {
    if x.shape().rank() != 2 {
        return Err(TensorError::RankMismatch {
            expected: 2,
            actual: x.shape().rank(),
            op: "linear",
        });
    }
    if weight.shape().rank() != 2 || weight.shape().dim(1) != x.shape().dim(1) {
        return Err(TensorError::ShapeMismatch {
            lhs: x.shape().clone(),
            rhs: weight.shape().clone(),
            op: "linear",
        });
    }
    let mut y = x.matmul(&weight.transpose()?)?;
    let f_out = weight.shape().dim(0);
    if let Some(b) = bias {
        if b.len() != f_out {
            return Err(TensorError::ShapeMismatch {
                lhs: b.shape().clone(),
                rhs: Shape::new(&[f_out]),
                op: "linear (bias)",
            });
        }
        for row in y.data_mut().chunks_mut(f_out.max(1)) {
            for (v, &bv) in row.iter_mut().zip(b.data()) {
                *v += bv;
            }
        }
    }
    Ok(y)
}

/// Gradients of [`linear`]: returns `(grad_x, grad_w, grad_b)`.
///
/// # Errors
///
/// Propagates shape errors from the internal GEMMs.
pub fn linear_backward(
    grad_out: &Tensor,
    x: &Tensor,
    weight: &Tensor,
) -> Result<(Tensor, Tensor, Tensor)> {
    // grad_x = grad_out . W           [N, F_in]
    // grad_w = grad_out^T . x         [F_out, F_in]
    // grad_b = column sums of grad_out
    let grad_x = grad_out.matmul(weight)?;
    let grad_w = grad_out.transpose()?.matmul(x)?;
    let (n, f_out) = (grad_out.shape().dim(0), grad_out.shape().dim(1));
    let mut gb = vec![0.0f32; f_out];
    for i in 0..n {
        for (g, &go) in gb
            .iter_mut()
            .zip(&grad_out.data()[i * f_out..(i + 1) * f_out])
        {
            *g += go;
        }
    }
    Ok((grad_x, grad_w, Tensor::from_vec(gb, Shape::new(&[f_out]))?))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::init;
    use crate::rng::seeded_rng;

    #[test]
    fn forward_known_values() {
        let x = Tensor::from_vec(vec![1.0, 2.0], Shape::new(&[1, 2])).unwrap();
        let w = Tensor::from_vec(vec![1.0, 0.0, 0.0, 1.0, 1.0, 1.0], Shape::new(&[3, 2])).unwrap();
        let b = Tensor::from_slice(&[0.0, 0.0, 1.0]);
        let y = linear(&x, &w, Some(&b)).unwrap();
        assert_eq!(y.data(), &[1.0, 2.0, 4.0]);
    }

    #[test]
    fn forward_rejects_mismatched_features() {
        let x = Tensor::zeros(Shape::new(&[1, 3]));
        let w = Tensor::zeros(Shape::new(&[4, 2]));
        assert!(linear(&x, &w, None).is_err());
    }

    #[test]
    fn backward_matches_numeric_gradient() {
        let mut rng = seeded_rng(3);
        let x = init::normal(&mut rng, Shape::new(&[4, 5]), 0.0, 1.0);
        let w = init::normal(&mut rng, Shape::new(&[3, 5]), 0.0, 1.0);
        let b = init::normal(&mut rng, Shape::new(&[3]), 0.0, 1.0);
        let go = Tensor::full(Shape::new(&[4, 3]), 1.0);
        let (dx, dw, db) = linear_backward(&go, &x, &w).unwrap();
        let eps = 1e-3;
        let f = |x: &Tensor, w: &Tensor, b: &Tensor| linear(x, w, Some(b)).unwrap().sum();
        for &i in &[0usize, 9, 19] {
            let mut xp = x.clone();
            xp.data_mut()[i] += eps;
            let mut xm = x.clone();
            xm.data_mut()[i] -= eps;
            let num = (f(&xp, &w, &b) - f(&xm, &w, &b)) / (2.0 * eps);
            assert!((num - dx.data()[i]).abs() < 1e-2);
        }
        for &i in &[0usize, 7, 14] {
            let mut wp = w.clone();
            wp.data_mut()[i] += eps;
            let mut wm = w.clone();
            wm.data_mut()[i] -= eps;
            let num = (f(&x, &wp, &b) - f(&x, &wm, &b)) / (2.0 * eps);
            assert!((num - dw.data()[i]).abs() < 1e-2);
        }
        for &g in db.data() {
            assert!((g - 4.0).abs() < 1e-4); // batch of 4, loss=sum
        }
    }
}

//! Stateful, trainable layers built from the pure ops in [`crate::ops`].
//!
//! The [`Layer`] trait is deliberately minimal — `forward`, `backward`,
//! parameter access — because only the scaled-down accuracy-experiment
//! models are trained in-repo (DESIGN.md §4). The same structures double
//! as the *float reference pipeline* against which `deepcam-core`'s
//! CAM-based inference is compared layer by layer.

use rand::Rng;

use crate::error::TensorError;
use crate::init;
use crate::ops::activation::{relu, relu_backward};
use crate::ops::conv::{conv2d, conv2d_backward, im2col, Conv2dConfig};
use crate::ops::linear::{linear, linear_backward};
use crate::ops::norm::{
    batch_norm2d_backward, batch_norm2d_infer, batch_norm2d_train, BatchNormCache,
};
use crate::ops::pool::{
    avg_pool2d, avg_pool2d_backward, max_pool2d, max_pool2d_backward, PoolConfig,
};
use crate::shape::Shape;
use crate::tensor::Tensor;
use crate::Result;

/// A trainable parameter: a value and its accumulated gradient.
#[derive(Debug, Clone)]
pub struct Param {
    /// Current parameter value.
    pub value: Tensor,
    /// Gradient of the loss with respect to `value` (same shape).
    pub grad: Tensor,
}

impl Param {
    /// Wraps a tensor as a parameter with a zeroed gradient.
    pub fn new(value: Tensor) -> Self {
        let grad = Tensor::zeros(value.shape().clone());
        Param { value, grad }
    }

    /// Clears the accumulated gradient.
    pub fn zero_grad(&mut self) {
        self.grad.map_inplace(|_| 0.0);
    }
}

/// A differentiable network layer.
///
/// `forward` caches whatever the subsequent `backward` needs; calling
/// `backward` before `forward` yields
/// [`TensorError::MissingForwardCache`].
pub trait Layer {
    /// Computes the layer output. `train` selects training-mode behaviour
    /// (batch statistics in batch norm).
    ///
    /// # Errors
    ///
    /// Propagates shape errors from the underlying op.
    fn forward(&mut self, x: &Tensor, train: bool) -> Result<Tensor>;

    /// Backpropagates `grad_out`, accumulating parameter gradients and
    /// returning the gradient with respect to the layer input.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::MissingForwardCache`] when called before
    /// `forward`, or shape errors from the underlying op.
    fn backward(&mut self, grad_out: &Tensor) -> Result<Tensor>;

    /// Mutable access to the layer's parameters (empty for stateless
    /// layers).
    fn params_mut(&mut self) -> Vec<&mut Param> {
        Vec::new()
    }

    /// Human-readable layer kind, used in summaries and error messages.
    fn name(&self) -> &'static str;
}

/// 2-D convolution layer with optional bias.
#[derive(Debug, Clone)]
pub struct Conv2d {
    /// Convolution geometry.
    pub cfg: Conv2dConfig,
    /// Kernel weights `[M, C, KH, KW]`.
    pub weight: Param,
    /// Bias `[M]`.
    pub bias: Param,
    cached_patches: Option<Tensor>,
    cached_input_shape: Option<Shape>,
}

impl Conv2d {
    /// Creates a He-initialized convolution layer.
    pub fn new<R: Rng + ?Sized>(rng: &mut R, cfg: Conv2dConfig) -> Self {
        let fan_in = cfg.patch_len();
        let weight = init::he_normal(
            rng,
            Shape::new(&[
                cfg.out_channels,
                cfg.in_channels,
                cfg.kernel_h,
                cfg.kernel_w,
            ]),
            fan_in,
        );
        let bias = Tensor::zeros(Shape::new(&[cfg.out_channels]));
        Conv2d {
            cfg,
            weight: Param::new(weight),
            bias: Param::new(bias),
            cached_patches: None,
            cached_input_shape: None,
        }
    }
}

impl Layer for Conv2d {
    fn forward(&mut self, x: &Tensor, _train: bool) -> Result<Tensor> {
        self.cached_patches = Some(im2col(x, &self.cfg)?);
        self.cached_input_shape = Some(x.shape().clone());
        conv2d(x, &self.weight.value, Some(&self.bias.value), &self.cfg)
    }

    fn backward(&mut self, grad_out: &Tensor) -> Result<Tensor> {
        let patches = self
            .cached_patches
            .as_ref()
            .ok_or(TensorError::MissingForwardCache("Conv2d"))?;
        let in_shape = self
            .cached_input_shape
            .as_ref()
            .ok_or(TensorError::MissingForwardCache("Conv2d"))?;
        let (dx, dw, db) =
            conv2d_backward(grad_out, patches, &self.weight.value, in_shape, &self.cfg)?;
        self.weight.grad.axpy(1.0, &dw)?;
        self.bias.grad.axpy(1.0, &db)?;
        Ok(dx)
    }

    fn params_mut(&mut self) -> Vec<&mut Param> {
        vec![&mut self.weight, &mut self.bias]
    }

    fn name(&self) -> &'static str {
        "Conv2d"
    }
}

/// Fully-connected layer.
#[derive(Debug, Clone)]
pub struct Linear {
    /// Weights `[F_out, F_in]` (PyTorch layout).
    pub weight: Param,
    /// Bias `[F_out]`.
    pub bias: Param,
    cached_input: Option<Tensor>,
}

impl Linear {
    /// Creates a He-initialized dense layer.
    pub fn new<R: Rng + ?Sized>(rng: &mut R, in_features: usize, out_features: usize) -> Self {
        let weight = init::he_normal(rng, Shape::new(&[out_features, in_features]), in_features);
        Linear {
            weight: Param::new(weight),
            bias: Param::new(Tensor::zeros(Shape::new(&[out_features]))),
            cached_input: None,
        }
    }
}

impl Layer for Linear {
    fn forward(&mut self, x: &Tensor, _train: bool) -> Result<Tensor> {
        self.cached_input = Some(x.clone());
        linear(x, &self.weight.value, Some(&self.bias.value))
    }

    fn backward(&mut self, grad_out: &Tensor) -> Result<Tensor> {
        let x = self
            .cached_input
            .as_ref()
            .ok_or(TensorError::MissingForwardCache("Linear"))?;
        let (dx, dw, db) = linear_backward(grad_out, x, &self.weight.value)?;
        self.weight.grad.axpy(1.0, &dw)?;
        self.bias.grad.axpy(1.0, &db)?;
        Ok(dx)
    }

    fn params_mut(&mut self) -> Vec<&mut Param> {
        vec![&mut self.weight, &mut self.bias]
    }

    fn name(&self) -> &'static str {
        "Linear"
    }
}

/// Rectified linear unit.
#[derive(Debug, Clone, Default)]
pub struct ReLU {
    cached_input: Option<Tensor>,
}

impl ReLU {
    /// Creates a ReLU layer.
    pub fn new() -> Self {
        ReLU::default()
    }
}

impl Layer for ReLU {
    fn forward(&mut self, x: &Tensor, _train: bool) -> Result<Tensor> {
        self.cached_input = Some(x.clone());
        Ok(relu(x))
    }

    fn backward(&mut self, grad_out: &Tensor) -> Result<Tensor> {
        let x = self
            .cached_input
            .as_ref()
            .ok_or(TensorError::MissingForwardCache("ReLU"))?;
        relu_backward(grad_out, x)
    }

    fn name(&self) -> &'static str {
        "ReLU"
    }
}

/// Max-pooling layer.
#[derive(Debug, Clone)]
pub struct MaxPool2d {
    /// Window configuration.
    pub cfg: PoolConfig,
    cached_indices: Option<Vec<usize>>,
    cached_input_shape: Option<Shape>,
}

impl MaxPool2d {
    /// Creates a max-pool layer with a non-overlapping square window.
    pub fn new(kernel: usize) -> Self {
        MaxPool2d {
            cfg: PoolConfig::new(kernel),
            cached_indices: None,
            cached_input_shape: None,
        }
    }
}

impl Layer for MaxPool2d {
    fn forward(&mut self, x: &Tensor, _train: bool) -> Result<Tensor> {
        let (y, idx) = max_pool2d(x, &self.cfg)?;
        self.cached_indices = Some(idx);
        self.cached_input_shape = Some(x.shape().clone());
        Ok(y)
    }

    fn backward(&mut self, grad_out: &Tensor) -> Result<Tensor> {
        let idx = self
            .cached_indices
            .as_ref()
            .ok_or(TensorError::MissingForwardCache("MaxPool2d"))?;
        let shape = self
            .cached_input_shape
            .as_ref()
            .ok_or(TensorError::MissingForwardCache("MaxPool2d"))?;
        max_pool2d_backward(grad_out, idx, shape)
    }

    fn name(&self) -> &'static str {
        "MaxPool2d"
    }
}

/// Average-pooling layer (window = input for global average pooling).
#[derive(Debug, Clone)]
pub struct AvgPool2d {
    /// Window configuration.
    pub cfg: PoolConfig,
    cached_input_shape: Option<Shape>,
}

impl AvgPool2d {
    /// Creates an average-pool layer with a non-overlapping square window.
    pub fn new(kernel: usize) -> Self {
        AvgPool2d {
            cfg: PoolConfig::new(kernel),
            cached_input_shape: None,
        }
    }
}

impl Layer for AvgPool2d {
    fn forward(&mut self, x: &Tensor, _train: bool) -> Result<Tensor> {
        self.cached_input_shape = Some(x.shape().clone());
        avg_pool2d(x, &self.cfg)
    }

    fn backward(&mut self, grad_out: &Tensor) -> Result<Tensor> {
        let shape = self
            .cached_input_shape
            .as_ref()
            .ok_or(TensorError::MissingForwardCache("AvgPool2d"))?;
        avg_pool2d_backward(grad_out, shape, &self.cfg)
    }

    fn name(&self) -> &'static str {
        "AvgPool2d"
    }
}

/// Per-channel 2-D batch normalization with running statistics.
#[derive(Debug, Clone)]
pub struct BatchNorm2d {
    /// Per-channel scale.
    pub gamma: Param,
    /// Per-channel shift.
    pub beta: Param,
    /// Exponential-moving-average mean used at inference.
    pub running_mean: Vec<f32>,
    /// Exponential-moving-average variance used at inference.
    pub running_var: Vec<f32>,
    /// EMA momentum (PyTorch convention: new = (1-m)*old + m*batch).
    pub momentum: f32,
    cache: Option<BatchNormCache>,
}

impl BatchNorm2d {
    /// Creates a batch-norm layer for `channels` feature maps.
    pub fn new(channels: usize) -> Self {
        BatchNorm2d {
            gamma: Param::new(Tensor::full(Shape::new(&[channels]), 1.0)),
            beta: Param::new(Tensor::zeros(Shape::new(&[channels]))),
            running_mean: vec![0.0; channels],
            running_var: vec![1.0; channels],
            momentum: 0.1,
            cache: None,
        }
    }
}

impl Layer for BatchNorm2d {
    fn forward(&mut self, x: &Tensor, train: bool) -> Result<Tensor> {
        if train {
            let (y, cache) = batch_norm2d_train(x, &self.gamma.value, &self.beta.value)?;
            for (r, &b) in self.running_mean.iter_mut().zip(cache.mean.iter()) {
                *r = (1.0 - self.momentum) * *r + self.momentum * b;
            }
            for (r, &b) in self.running_var.iter_mut().zip(cache.var.iter()) {
                *r = (1.0 - self.momentum) * *r + self.momentum * b;
            }
            self.cache = Some(cache);
            Ok(y)
        } else {
            batch_norm2d_infer(
                x,
                &self.gamma.value,
                &self.beta.value,
                &self.running_mean,
                &self.running_var,
            )
        }
    }

    fn backward(&mut self, grad_out: &Tensor) -> Result<Tensor> {
        let cache = self
            .cache
            .as_ref()
            .ok_or(TensorError::MissingForwardCache("BatchNorm2d"))?;
        let (dx, dgamma, dbeta) = batch_norm2d_backward(grad_out, cache, &self.gamma.value)?;
        self.gamma.grad.axpy(1.0, &dgamma)?;
        self.beta.grad.axpy(1.0, &dbeta)?;
        Ok(dx)
    }

    fn params_mut(&mut self) -> Vec<&mut Param> {
        vec![&mut self.gamma, &mut self.beta]
    }

    fn name(&self) -> &'static str {
        "BatchNorm2d"
    }
}

/// Flattens NCHW activations to `[N, C*H*W]` for the classifier head.
#[derive(Debug, Clone, Default)]
pub struct Flatten {
    cached_shape: Option<Shape>,
}

impl Flatten {
    /// Creates a flatten layer.
    pub fn new() -> Self {
        Flatten::default()
    }
}

impl Layer for Flatten {
    fn forward(&mut self, x: &Tensor, _train: bool) -> Result<Tensor> {
        self.cached_shape = Some(x.shape().clone());
        let n = x.shape().dim(0);
        let rest = x.len() / n.max(1);
        x.clone().reshape(Shape::new(&[n, rest]))
    }

    fn backward(&mut self, grad_out: &Tensor) -> Result<Tensor> {
        let shape = self
            .cached_shape
            .as_ref()
            .ok_or(TensorError::MissingForwardCache("Flatten"))?;
        grad_out.clone().reshape(shape.clone())
    }

    fn name(&self) -> &'static str {
        "Flatten"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::seeded_rng;

    #[test]
    fn backward_before_forward_errors() {
        let mut r = ReLU::new();
        let g = Tensor::zeros(Shape::new(&[1]));
        assert!(matches!(
            r.backward(&g),
            Err(TensorError::MissingForwardCache("ReLU"))
        ));
    }

    #[test]
    fn batch_norm_running_stats_update() {
        let mut bn = BatchNorm2d::new(1);
        let x = Tensor::full(Shape::new(&[2, 1, 2, 2]), 4.0);
        bn.forward(&x, true).unwrap();
        // Batch mean is 4.0, EMA with momentum 0.1 from 0.0 → 0.4.
        assert!((bn.running_mean[0] - 0.4).abs() < 1e-6);
    }

    #[test]
    fn batch_norm_infer_differs_from_train() {
        let mut rng = seeded_rng(4);
        let mut bn = BatchNorm2d::new(2);
        let x = init::normal(&mut rng, Shape::new(&[4, 2, 3, 3]), 5.0, 2.0);
        let y_train = bn.forward(&x, true).unwrap();
        let y_infer = bn.forward(&x, false).unwrap();
        // Training normalizes to ~0 mean; inference uses barely-updated
        // running stats, so the outputs must differ.
        assert!((y_train.mean() - y_infer.mean()).abs() > 0.1);
    }
}

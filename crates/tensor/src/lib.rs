//! # deepcam-tensor
//!
//! A minimal, dependency-light CPU tensor and neural-network substrate for
//! the DeepCAM (DATE 2023) reproduction.
//!
//! The DeepCAM paper evaluates its CAM-based accelerator on pretrained
//! PyTorch CNNs (LeNet5, VGG11, VGG16, ResNet18). Since no DNN framework is
//! available offline, this crate provides everything the reproduction needs
//! from such a framework:
//!
//! * an NCHW [`Tensor`] of `f32` with shape bookkeeping,
//! * the forward operators used by the paper's CNNs (convolution via
//!   im2col, linear, max/avg pooling, batch normalization, ReLU, softmax),
//! * full backpropagation through all of those operators plus an SGD
//!   optimizer, so that the scaled-down accuracy-experiment models can be
//!   trained in-repo (see `DESIGN.md` §4), and
//! * the [`layer`] module with a [`Layer`] trait and the trainable layers
//!   the model zoo's `Cnn` is built from.
//!
//! # Example
//!
//! ```
//! use deepcam_tensor::{Tensor, Shape};
//!
//! let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], Shape::new(&[2, 2]))?;
//! let b = a.scale(2.0);
//! assert_eq!(b.data()[3], 8.0);
//! # Ok::<(), deepcam_tensor::TensorError>(())
//! ```

// The unsafe in this crate lives in `pool.rs` and the `simd` kernel
// files (see ANALYZE_UNSAFE.md); inside any unsafe fn, each unsafe
// operation must still be wrapped in its own audited `unsafe {}` block.
#![deny(unsafe_op_in_unsafe_fn)]

pub mod error;
pub mod init;
pub mod layer;
pub mod ops;
pub mod optim;
pub mod pool;
pub mod rng;
pub mod shape;
pub mod simd;
pub mod tensor;

pub use error::TensorError;
pub use layer::Layer;
pub use pool::{Parallelism, ThreadPool};
pub use shape::Shape;
pub use tensor::{matmul_dense_into, matmul_into, Tensor};

/// Result alias used across the crate.
pub type Result<T> = std::result::Result<T, TensorError>;

//! Forward and backward implementations of every operator used by the
//! paper's CNNs.
//!
//! The functions here are *pure*: they take explicit inputs and return
//! outputs (plus whatever auxiliary data the corresponding backward pass
//! needs). The stateful, parameter-owning wrappers live in
//! [`crate::layer`].
//!
//! `im2col` in [`conv`] is shared with `deepcam-hash`: the paper's context
//! generator reshapes weights and activations into exactly these patch
//! vectors before hashing them (Fig. 4 of the paper).

pub mod activation;
pub mod conv;
pub mod linear;
pub mod loss;
pub mod norm;
pub mod pool;
pub mod project;

pub use conv::{col2im, conv2d, conv2d_sharded, im2col, im2col_sharded, Conv2dConfig};
pub use linear::{linear, linear_sharded};
pub use pool::{avg_pool2d, max_pool2d, PoolConfig};
pub use project::{
    project_patches_approx_into, project_patches_signs_into, PatchSource, ProjectScratch, Signs,
};

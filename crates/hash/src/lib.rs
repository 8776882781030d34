//! # deepcam-hash
//!
//! The mathematical core of DeepCAM (DATE 2023): random-hyperplane hashing
//! and the approximate *geometric* dot-product that replaces
//! multiply-accumulate in the accelerator.
//!
//! The paper's pipeline (§II-B and §III-A):
//!
//! 1. A vector `x ∈ R^n` is projected by a Gaussian random matrix
//!    `C ∈ R^{n×k}` and reduced to its sign bits:
//!    `hash(x) = sign(x·C) ∈ {0,1}^k` ([`projection`]).
//! 2. The angle between two vectors is estimated from the Hamming distance
//!    of their hashes: `θ ≈ (π/k)·HD(hash(x), hash(y))` (eq. 3, Goemans &
//!    Williamson) ([`geometric`]).
//! 3. The dot-product is reconstructed as
//!    `x·y ≈ ‖x‖‖y‖·cos(θ)` (eq. 4) with a cheap piecewise-linear cosine
//!    (eq. 5, [`cosine`]) and 8-bit minifloat norms ([`minifloat`]).
//! 4. A *context* — the (norm, hash-bits) pair for one im2col patch or one
//!    kernel — is the unit stored in, or searched against, the CAM
//!    ([`context`]).
//!
//! # Example: reproduce the paper's §II-B worked example
//!
//! ```
//! use deepcam_hash::geometric::GeometricDot;
//!
//! let x = [0.6012, 0.8383, 0.6859, 0.5712];
//! let y = [0.9044, 0.5352, 0.8110, 0.9243];
//! // Algebraic reference: 2.0765. Long hashes approximate it closely.
//! let gd = GeometricDot::new(4, 2048, 42)?;
//! let approx = gd.dot(&x, &y)?;
//! assert!((approx - 2.0765).abs() < 0.2);
//! # Ok::<(), deepcam_hash::HashError>(())
//! ```

// Machine-checked by deepcam-analyze (lint A2): this crate holds no
// unsafe code, and the compiler now enforces that it never grows any.
#![forbid(unsafe_code)]

pub mod bitvec;
pub mod context;
pub mod cosine;
pub mod error;
pub mod geometric;
pub mod minifloat;
pub mod packed;
pub mod projection;
pub mod stats;

pub use bitvec::{low_mask, tail_garbage_mask, BitVec};
pub use context::{Context, ContextGenerator, ContextSet};
pub use error::HashError;
pub use geometric::GeometricDot;
pub use minifloat::Minifloat8;
pub use packed::PackedHashes;
pub use projection::ProjectionMatrix;

/// Result alias used across the crate.
pub type Result<T> = std::result::Result<T, HashError>;

/// The four hash lengths supported by the dynamic-size CAM (one 256-bit
/// chunk up to all four chunks; paper §III-B).
pub const SUPPORTED_HASH_LENGTHS: [usize; 4] = [256, 512, 768, 1024];

/// Word width of one CAM chunk in bits.
pub const CHUNK_BITS: usize = 256;

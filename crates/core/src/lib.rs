//! # deepcam-core
//!
//! The DeepCAM accelerator (paper §III): a fully CAM-based CNN inference
//! engine with variable hash lengths, in two coupled views:
//!
//! * **Functional** ([`engine`]) — compiles a trained
//!   [`deepcam_models::Cnn`] into per-layer CAM contexts and runs actual
//!   inference with approximate geometric dot-products, reproducing the
//!   accuracy behaviour of Fig. 5. Peripheral operations (ReLU, pooling,
//!   batch-norm, bias) execute exactly, as they do in the digital
//!   post-processing module of the chip.
//! * **Performance** ([`sched`], [`postproc`], [`ctxgen`], [`perf`]) —
//!   analytical cycle/energy accounting over weight-free
//!   [`deepcam_models::ModelSpec`]s, reproducing Figs. 9–10 and Table II.
//!   The scheduler maps every conv/linear layer onto the dynamic-size CAM
//!   under a weight- or activation-stationary dataflow; the
//!   post-processing and online context-generation units are modelled as
//!   45 nm digital logic at 300 MHz.
//!
//! # Example
//!
//! ```
//! use deepcam_core::{sched::CamScheduler, Dataflow, HashPlan};
//! use deepcam_models::zoo;
//!
//! let sched = CamScheduler::new(64, Dataflow::ActivationStationary)?;
//! let perf = sched.run(&zoo::lenet5(), &HashPlan::Uniform(256))?;
//! assert!(perf.total_cycles > 0);
//! // The paper's §IV-B utilization example: AS mode fills the array for
//! // the first conv layer (784 activation contexts ≫ 64 rows).
//! assert!(perf.layers[0].utilization > 0.9);
//! # Ok::<(), deepcam_core::CoreError>(())
//! ```

// Machine-checked by deepcam-analyze (lint A2): this crate holds no
// unsafe code, and the compiler now enforces that it never grows any.
#![forbid(unsafe_code)]

mod certify;
pub mod ctxgen;
pub mod dataflow;
pub mod engine;
pub mod error;
pub mod hashplan;
pub mod ir;
pub mod passes;
pub mod perf;
pub mod postproc;
pub mod record;
mod reference;
pub mod sched;
pub mod tune;

pub use dataflow::Dataflow;
/// The engine's patch projection dispatches through this table at
/// runtime (`DEEPCAM_SIMD` selects a variant; the hash bits and logits
/// are bit-identical on every variant). Re-exported so accelerator-level
/// callers — benches sweeping kernel variants, serving deployments
/// pinning `scalar` — can reach dispatch without depending on
/// `deepcam-tensor` directly.
pub use deepcam_tensor::simd;
pub use engine::{Datapath, DeepCamEngine, EngineConfig};
pub use error::CoreError;
pub use hashplan::{HashPlan, PlanBinding};
pub use ir::{CompiledModel, CompiledStep, CompiledTile, DotIr, DotKind, LayerIr};
pub use passes::{LayerMapping, MappingConfig, ModelMapping, Pass, PassOutcome};
pub use perf::{EnergyBreakdown, LayerPerf, PerfReport};
pub use record::{DotRecord, Recording};
pub use tune::{JointTuneReport, JointTunerConfig, TuneReport, TunerConfig};

/// Result alias used across the crate.
pub type Result<T> = std::result::Result<T, CoreError>;

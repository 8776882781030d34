//! The optimizing pass pipeline over [`CompiledModel`].
//!
//! Compilation produces a straight-line step program
//! (`Cnn → LayerIr → PlanBinding → CompiledModel`); the passes here
//! run over that program *after* compilation, as an explicit, ordered
//! list. Every pass obeys one contract, pinned by
//! `tests/passes_invariance.rs` for every ordered subset of the list:
//!
//! * **May change:** scheduling metadata ([`CompiledModel::mapping`]).
//! * **May never change:** the logits. Output must stay **bitwise
//!   identical** to the unpassed pipeline for every input, worker
//!   count and SIMD variant.
//!
//! The default list is one pass, [`Pass::MapArrays`] ([`mapping`]): it
//! replaces the scheduler's fixed 64-row assumption with per-layer
//! tile-shape + dataflow selection over a modeled multi-array chip,
//! scored by the `deepcam-cam` cost model (modeled energy/latency win;
//! attaches metadata only). The step program keeps one form per dot
//! step (`Conv`/`Linear` plus bias); batch-norm and ReLU always run as
//! standalone peripheral steps.
//!
//! [`crate::tune::tune_joint`] runs the mapping search together with the
//! per-layer hash-length tuner, co-optimizing both.

pub mod mapping;

pub use mapping::{LayerMapping, MappingConfig, ModelMapping};

use crate::ir::CompiledModel;
use crate::Result;

/// One pass of the pipeline.
#[derive(Debug, Clone, PartialEq)]
pub enum Pass {
    /// Search a per-layer CAM array mapping under this configuration.
    MapArrays(MappingConfig),
}

impl Pass {
    /// Stable pass name (progress lines, [`PassOutcome::pass`]).
    pub fn name(&self) -> &'static str {
        match self {
            Pass::MapArrays(_) => "map-arrays",
        }
    }
}

/// What one pass did to the model.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PassOutcome {
    /// The pass's stable name.
    pub pass: &'static str,
    /// Whether the model was modified.
    pub changed: bool,
    /// Human-readable summary of the rewrite.
    pub detail: String,
}

/// The default pass list, in application order.
pub fn default_passes() -> Vec<Pass> {
    vec![Pass::MapArrays(MappingConfig::default())]
}

/// Applies `passes` to `model` in order, re-validating the model after
/// each rewrite.
///
/// # Errors
///
/// Returns the failing pass's error, or [`crate::CoreError::Artifact`]
/// when a rewrite leaves the model structurally inconsistent (a pass
/// bug — validation runs after every pass precisely so the offender is
/// named).
pub fn apply(model: &mut CompiledModel, passes: &[Pass]) -> Result<Vec<PassOutcome>> {
    let mut outcomes = Vec::with_capacity(passes.len());
    for pass in passes {
        let outcome = match pass {
            Pass::MapArrays(cfg) => mapping::run(model, cfg)?,
        };
        model.validate()?;
        outcomes.push(outcome);
    }
    Ok(outcomes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::EngineConfig;
    use crate::hashplan::HashPlan;
    use deepcam_models::scaled::scaled_vgg11;
    use deepcam_tensor::rng::seeded_rng;

    #[test]
    fn pass_names_are_stable() {
        assert_eq!(
            Pass::MapArrays(MappingConfig::default()).name(),
            "map-arrays"
        );
        let names: Vec<&str> = default_passes().iter().map(|p| p.name()).collect();
        assert_eq!(names, ["map-arrays"]);
    }

    #[test]
    fn default_pipeline_maps_a_bn_model_and_keeps_its_steps() {
        let mut rng = seeded_rng(11);
        let model = scaled_vgg11(&mut rng, 4, 10);
        let mut compiled = CompiledModel::compile(
            &model,
            EngineConfig {
                plan: HashPlan::Uniform(256),
                ..EngineConfig::default()
            },
        )
        .unwrap();
        let unpassed = compiled.steps.clone();
        let outcomes = apply(&mut compiled, &default_passes()).unwrap();
        assert_eq!(outcomes.len(), 1);
        assert!(outcomes[0].changed, "{outcomes:?}");
        assert!(compiled.mapping.is_some());
        assert_eq!(compiled.steps, unpassed, "passes never rewrite the steps");
        // Applying the same list again is deterministic.
        let again = apply(&mut compiled, &default_passes()).unwrap();
        assert!(!again[0].changed, "{:?}", again[0]);
    }
}

//! The array-mapping pass: per-layer CAM tile-shape selection over a
//! modeled multi-array chip.
//!
//! The scheduler historically costed every layer at one fixed geometry
//! (64 rows, activation-stationary). Real CAM chips offer several row
//! heights and many arrays; the right tile shape differs per layer — a
//! conv with thousands of output positions amortizes per-search fixed
//! costs over tall tiles, while a fully-connected layer occupies one
//! tile whatever the height. This pass scores every `(rows, dataflow)`
//! candidate for every dot layer with the `deepcam-cam` cost model
//! (through [`CamScheduler::layer_perf_mapped`]) and attaches the winner
//! as [`CompiledModel::mapping`].
//!
//! The mapping is **pure scheduling metadata**: the functional engine
//! never reads it, so the pass cannot change a bit of the logits — only
//! the modeled energy/cycle reports ([`CamScheduler::run_ir_mapped`])
//! and, eventually, a hardware backend consume it.

use deepcam_cam::SUPPORTED_ROW_SIZES;
use serde::bin::{BinCodec, BinResult, Reader, Writer};

use crate::dataflow::Dataflow;
use crate::error::CoreError;
use crate::hashplan::PlanBinding;
use crate::ir::{CompiledModel, LayerIr};
use crate::passes::PassOutcome;
use crate::sched::CamScheduler;
use crate::Result;

/// One dot layer's chosen tile geometry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LayerMapping {
    /// CAM rows per tile (64/128/256/512).
    pub rows: usize,
    /// Which operand occupies the rows.
    pub dataflow: Dataflow,
}

impl BinCodec for LayerMapping {
    fn encode(&self, w: &mut Writer) {
        w.put_usize(self.rows);
        self.dataflow.encode(w);
    }

    fn decode(r: &mut Reader<'_>) -> BinResult<Self> {
        Ok(LayerMapping {
            rows: r.get_usize()?,
            dataflow: BinCodec::decode(r)?,
        })
    }
}

/// A whole model's array mapping: the chip's array count plus one
/// [`LayerMapping`] per dot layer, traversal order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ModelMapping {
    /// CAM arrays available to run tiles side by side.
    pub arrays: usize,
    /// Per-dot-layer geometry, indexed by `DotIr::index`.
    pub per_layer: Vec<LayerMapping>,
}

impl ModelMapping {
    /// The degenerate mapping every pre-pass model implicitly ran under:
    /// one array, every layer at the same `rows × dataflow`.
    pub fn fixed(rows: usize, dataflow: Dataflow, layers: usize) -> Self {
        ModelMapping {
            arrays: 1,
            per_layer: vec![LayerMapping { rows, dataflow }; layers],
        }
    }

    /// Structural check against a model with `dots` dot layers
    /// ([`CompiledModel::validate`] calls this on every decoded
    /// artifact).
    pub(crate) fn check(&self, dots: usize) -> Result<()> {
        if self.arrays == 0 {
            return Err(CoreError::Artifact(
                "mapping declares a zero-array chip".to_string(),
            ));
        }
        if self.per_layer.len() != dots {
            return Err(CoreError::Artifact(format!(
                "mapping covers {} layers, IR has {dots}",
                self.per_layer.len()
            )));
        }
        for (i, lm) in self.per_layer.iter().enumerate() {
            if !SUPPORTED_ROW_SIZES.contains(&lm.rows) {
                return Err(CoreError::Artifact(format!(
                    "mapping for layer {i} uses row count {} not in {SUPPORTED_ROW_SIZES:?}",
                    lm.rows
                )));
            }
        }
        Ok(())
    }
}

impl BinCodec for ModelMapping {
    fn encode(&self, w: &mut Writer) {
        w.put_usize(self.arrays);
        self.per_layer.encode(w);
    }

    fn decode(r: &mut Reader<'_>) -> BinResult<Self> {
        Ok(ModelMapping {
            arrays: r.get_usize()?,
            per_layer: BinCodec::decode(r)?,
        })
    }
}

/// The mapping search's candidate space — the modeled chip.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MappingConfig {
    /// CAM arrays on the chip (cycles shrink with more; energy does not).
    pub arrays: usize,
    /// Row heights the search may pick per layer.
    pub rows_options: Vec<usize>,
    /// Dataflows the search may pick per layer.
    pub dataflows: Vec<Dataflow>,
}

impl Default for MappingConfig {
    fn default() -> Self {
        MappingConfig {
            arrays: 8,
            rows_options: SUPPORTED_ROW_SIZES.to_vec(),
            dataflows: Dataflow::both().to_vec(),
        }
    }
}

/// Searches the best per-layer `(rows, dataflow)` under `cfg`, scored by
/// modeled CAM **search** energy — the paper's headline metric and what
/// the variable hash lengths already optimize, making the joint search
/// directly comparable to width-only tuning. Ties are broken by write
/// energy, then cycles, then candidate order (smallest rows, WS before
/// AS) — fully deterministic. The fixed 64-row AS geometry is in the
/// default search space, so the result never scores worse than it.
///
/// # Errors
///
/// Returns [`CoreError::InvalidPlan`] when the binding does not cover
/// the IR or the candidate space is empty, and CAM errors for
/// unsupported geometry in `cfg`.
pub fn search_mapping(
    sched: &CamScheduler,
    ir: &LayerIr,
    binding: &PlanBinding,
    cfg: &MappingConfig,
) -> Result<ModelMapping> {
    if binding.len() != ir.dots.len() {
        return Err(CoreError::InvalidPlan(format!(
            "binding covers {} layers but IR '{}' has {}",
            binding.len(),
            ir.model_name,
            ir.dots.len()
        )));
    }
    if cfg.rows_options.is_empty() || cfg.dataflows.is_empty() {
        return Err(CoreError::InvalidPlan(
            "mapping search over an empty candidate space".to_string(),
        ));
    }
    let mut per_layer = Vec::with_capacity(ir.dots.len());
    for dot in &ir.dots {
        let k = binding.k_for(dot.index);
        let mut best: Option<(LayerMapping, (f64, f64, u64))> = None;
        for &rows in &cfg.rows_options {
            for &dataflow in &cfg.dataflows {
                let perf = sched.layer_perf_mapped(
                    &dot.shape,
                    k,
                    dot.index == 0,
                    rows,
                    dataflow,
                    cfg.arrays,
                )?;
                // Lexicographic score: search energy first (the metric
                // the hash widths tune), then write energy, then cycles.
                let score = (perf.energy.cam_search, perf.energy.cam_write, perf.cycles);
                let better = match &best {
                    None => true,
                    Some((_, bs)) => score < *bs,
                };
                if better {
                    best = Some((LayerMapping { rows, dataflow }, score));
                }
            }
        }
        let (lm, _) = best.expect("candidate space checked non-empty");
        per_layer.push(lm);
    }
    Ok(ModelMapping {
        arrays: cfg.arrays,
        per_layer,
    })
}

/// The pass entry point: search a mapping for `model` and attach it.
///
/// # Errors
///
/// Propagates [`search_mapping`] errors.
pub(crate) fn run(model: &mut CompiledModel, cfg: &MappingConfig) -> Result<PassOutcome> {
    // The scheduler here is a cost-model container; its own fixed
    // geometry is never consulted by the mapped entry point.
    let sched = CamScheduler::new(64, Dataflow::ActivationStationary)?;
    let mapping = search_mapping(&sched, &model.ir, &model.binding, cfg)?;
    let changed = model.mapping.as_ref() != Some(&mapping);
    let detail = format!(
        "mapped {} layers onto {} arrays ({} distinct geometries)",
        mapping.per_layer.len(),
        mapping.arrays,
        {
            let mut geoms: Vec<(usize, Dataflow)> = mapping
                .per_layer
                .iter()
                .map(|lm| (lm.rows, lm.dataflow))
                .collect();
            geoms.sort_by_key(|(r, df)| (*r, df.label()));
            geoms.dedup();
            geoms.len()
        }
    );
    model.mapping = Some(mapping);
    Ok(PassOutcome {
        pass: "map-arrays",
        changed,
        detail,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hashplan::HashPlan;
    use deepcam_models::zoo;

    fn lowered(spec: &deepcam_models::ModelSpec) -> (LayerIr, PlanBinding) {
        let ir = LayerIr::from_spec(spec);
        let plan = HashPlan::variable_for_dims(&ir.patch_lens());
        let binding = plan.bind(&ir).unwrap();
        (ir, binding)
    }

    #[test]
    fn search_is_deterministic_and_covers_every_layer() {
        let (ir, binding) = lowered(&zoo::vgg11());
        let sched = CamScheduler::new(64, Dataflow::ActivationStationary).unwrap();
        let cfg = MappingConfig::default();
        let a = search_mapping(&sched, &ir, &binding, &cfg).unwrap();
        let b = search_mapping(&sched, &ir, &binding, &cfg).unwrap();
        assert_eq!(a, b);
        assert_eq!(a.per_layer.len(), ir.len());
        a.check(ir.len()).unwrap();
    }

    #[test]
    fn searched_mapping_never_loses_to_fixed_64_as() {
        // The fixed geometry is a point of the search space, so the
        // searched mapping's CAM search energy is a lower bound — and
        // strictly lower on conv stacks, where taller AS tiles amortize
        // per-search fixed costs.
        let sched = CamScheduler::new(64, Dataflow::ActivationStationary).unwrap();
        for spec in [zoo::lenet5(), zoo::vgg11()] {
            let (ir, binding) = lowered(&spec);
            let plan_label = "tuned";
            let fixed = sched.run_ir(&ir, &binding, plan_label).unwrap();
            let mapping = search_mapping(&sched, &ir, &binding, &MappingConfig::default()).unwrap();
            let mapped = sched
                .run_ir_mapped(&ir, &binding, &mapping, plan_label)
                .unwrap();
            assert!(
                mapped.energy.cam_search < fixed.energy.cam_search,
                "{}: mapped {} vs fixed {}",
                spec.name,
                mapped.energy.cam_search,
                fixed.energy.cam_search
            );
        }
    }

    #[test]
    fn model_mapping_codec_round_trips() {
        let mapping = ModelMapping {
            arrays: 8,
            per_layer: vec![
                LayerMapping {
                    rows: 512,
                    dataflow: Dataflow::ActivationStationary,
                },
                LayerMapping {
                    rows: 64,
                    dataflow: Dataflow::WeightStationary,
                },
            ],
        };
        let mut w = Writer::new();
        mapping.encode(&mut w);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        let restored = ModelMapping::decode(&mut r).unwrap();
        r.finish().unwrap();
        assert_eq!(mapping, restored);
    }

    #[test]
    fn check_rejects_bad_mappings() {
        let good = ModelMapping::fixed(64, Dataflow::ActivationStationary, 3);
        good.check(3).unwrap();
        assert!(good.check(2).is_err());

        let mut zero_arrays = good.clone();
        zero_arrays.arrays = 0;
        assert!(zero_arrays.check(3).is_err());

        let mut bad_rows = good;
        bad_rows.per_layer[1].rows = 100;
        assert!(bad_rows.check(3).is_err());
    }

    #[test]
    fn empty_candidate_space_rejected() {
        let (ir, binding) = lowered(&zoo::lenet5());
        let sched = CamScheduler::new(64, Dataflow::ActivationStationary).unwrap();
        let cfg = MappingConfig {
            rows_options: Vec::new(),
            ..MappingConfig::default()
        };
        assert!(matches!(
            search_mapping(&sched, &ir, &binding, &cfg),
            Err(CoreError::InvalidPlan(_))
        ));
    }
}

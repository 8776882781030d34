//! The CAM scheduler: maps dot-product layers onto the dynamic-size CAM
//! and accounts cycles, energy and utilization (Figs. 9–10, Table II).
//!
//! Mapping arithmetic per layer (`P` input vectors, `M` kernels, CAM with
//! `R` rows):
//!
//! | Dataflow | rows hold | tiles | searches/tile | utilization |
//! |---|---|---|---|---|
//! | WS | kernel contexts | `ceil(M/R)` | `P` | `M / (tiles·R)` |
//! | AS | activation contexts | `ceil(P/R)` | `M` | `P / (tiles·R)` |
//!
//! Each search is O(1) in array size (paper's key property); a tile load
//! writes its occupied rows. Activation contexts are produced at runtime
//! by the online context generator ([`crate::ctxgen`]); weight contexts
//! are pre-generated in software. The first dot layer's *input* contexts
//! also come from software (the paper pre-processes input images), so
//! layer 0 is never charged context-generation cost.

use deepcam_cam::{CamConfig, CamCostModel, SUPPORTED_ROW_SIZES};
use deepcam_models::{DotLayer, ModelSpec};

use crate::ctxgen::CtxGenCostModel;
use crate::dataflow::Dataflow;
use crate::error::CoreError;
use crate::hashplan::{HashPlan, PlanBinding};
use crate::ir::LayerIr;
use crate::passes::mapping::ModelMapping;
use crate::perf::{EnergyBreakdown, LayerPerf, PerfReport};
use crate::postproc::PostProcCostModel;
use crate::Result;

/// How per-layer cycles combine across the accelerator's three stages
/// (CAM, context generator, post-processing).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum CycleModel {
    /// Stages overlap in a pipeline; the slowest stage bounds the layer
    /// (the paper's architecture, Fig. 3, processes in a pipeline).
    #[default]
    Pipelined,
    /// Stages execute back-to-back — the conservative upper bound.
    Sequential,
    /// Count only O(1) CAM search operations; writes, context generation
    /// and post-processing are assumed fully hidden. This matches the
    /// paper's implicit accounting (its ResNet18 speedup scales exactly
    /// with the row count, which only search counts do) and is reported
    /// alongside the honest `Pipelined` numbers in Fig. 9.
    SearchOnly,
}

/// Scheduler configuration + cost models.
#[derive(Debug, Clone, PartialEq)]
pub struct CamScheduler {
    /// CAM rows (64/128/256/512).
    pub rows: usize,
    /// Mapping dataflow.
    pub dataflow: Dataflow,
    /// CAM energy/latency model.
    pub cam_cost: CamCostModel,
    /// Post-processing unit model.
    pub postproc: PostProcCostModel,
    /// Online context generator model.
    pub ctxgen: CtxGenCostModel,
    /// Cycle combination model.
    pub cycle_model: CycleModel,
}

impl CamScheduler {
    /// Creates a scheduler with default cost models.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Cam`] when `rows` is not a supported size.
    pub fn new(rows: usize, dataflow: Dataflow) -> Result<Self> {
        if !SUPPORTED_ROW_SIZES.contains(&rows) {
            return Err(CoreError::Cam(deepcam_cam::CamError::InvalidConfig(
                format!("row count {rows} not in {SUPPORTED_ROW_SIZES:?}"),
            )));
        }
        Ok(CamScheduler {
            rows,
            dataflow,
            cam_cost: CamCostModel::default(),
            postproc: PostProcCostModel::default(),
            ctxgen: CtxGenCostModel::default(),
            cycle_model: CycleModel::default(),
        })
    }

    /// Builder-style cycle-model override.
    pub fn with_cycle_model(mut self, model: CycleModel) -> Self {
        self.cycle_model = model;
        self
    }

    /// Performance of one dot-product layer at hash length `k`.
    /// `is_first` marks the model's first dot layer, whose input contexts
    /// are pre-processed in software.
    ///
    /// Delegates to [`CamScheduler::layer_perf_mapped`] at the
    /// scheduler's own geometry on a single array — bitwise-identical to
    /// the pre-pass-pipeline accounting.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Cam`] for an unsupported hash length.
    pub fn layer_perf(&self, layer: &DotLayer, k: usize, is_first: bool) -> Result<LayerPerf> {
        self.layer_perf_mapped(layer, k, is_first, self.rows, self.dataflow, 1)
    }

    /// Performance of one dot-product layer under an explicit mapping:
    /// `rows × k` arrays, `arrays` of them operating in parallel, fed by
    /// the given `dataflow`. The mapping-pass search
    /// ([`crate::passes::mapping`]) scores every candidate through this
    /// entry point.
    ///
    /// Energy is mapping-shaped but array-count-independent (the same
    /// tiles are written and searched whether they run serially or
    /// side by side); cycles shrink with `arrays` because up to `arrays`
    /// tiles are searched per wave, with writes overlapped across the
    /// wave (the slowest write bounds it).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Cam`] for an unsupported row count, hash
    /// length, or a zero array count.
    pub fn layer_perf_mapped(
        &self,
        layer: &DotLayer,
        k: usize,
        is_first: bool,
        rows: usize,
        dataflow: Dataflow,
        arrays: usize,
    ) -> Result<LayerPerf> {
        if arrays == 0 {
            return Err(CoreError::Cam(deepcam_cam::CamError::InvalidConfig(
                "array count must be at least 1".to_string(),
            )));
        }
        if !SUPPORTED_ROW_SIZES.contains(&rows) {
            return Err(CoreError::Cam(deepcam_cam::CamError::InvalidConfig(
                format!("row count {rows} not in {SUPPORTED_ROW_SIZES:?}"),
            )));
        }
        let cfg = CamConfig::new(rows, k)?;
        let (stored, streamed) = match dataflow {
            Dataflow::WeightStationary => (layer.m, layer.p),
            Dataflow::ActivationStationary => (layer.p, layer.m),
        };
        let tiles = stored.div_ceil(rows).max(1);
        let mut searches = 0u64;
        let mut write_cycles = 0u64;
        let mut search_cycles = 0u64;
        let mut e_search = 0.0f64;
        let mut e_write = 0.0f64;
        let mut occupied = 0usize;
        let mut t = 0usize;
        while t < tiles {
            let wave = (tiles - t).min(arrays);
            let mut wave_write_cycles = 0u64;
            for i in 0..wave {
                let rows_used = (stored - (t + i) * rows).min(rows);
                occupied += rows_used;
                let wc = self.cam_cost.write_cost(&cfg, rows_used);
                wave_write_cycles = wave_write_cycles.max(wc.cycles);
                e_write += wc.energy_j;
                let sc = self.cam_cost.search_cost_with_rows(&cfg, rows_used);
                searches += streamed as u64;
                e_search += streamed as f64 * sc.energy_j;
                // Arrays of the wave search in lock-step on the same
                // streamed keys, so one tile's search cycles bound the
                // wave.
                if i == 0 {
                    search_cycles += streamed as u64 * sc.cycles;
                }
            }
            write_cycles += wave_write_cycles;
            t += wave;
        }
        let utilization = occupied as f64 / (tiles * rows) as f64;

        // Online context generation for this layer's input activations
        // (software pre-processing covers the first layer).
        let ctx = if is_first {
            crate::ctxgen::CtxGenCost::default()
        } else {
            self.ctxgen.layer_cost(layer.p, layer.n, k)
        };
        // Post-processing: reconstruct all P·M approximate dot-products.
        let post = self.postproc.dot_cost(layer.dot_products());

        let cam_cycles = write_cycles + search_cycles;
        let cycles = match self.cycle_model {
            CycleModel::Pipelined => cam_cycles.max(ctx.cycles).max(post.cycles),
            CycleModel::Sequential => cam_cycles + ctx.cycles + post.cycles,
            CycleModel::SearchOnly => search_cycles,
        };
        Ok(LayerPerf {
            name: layer.name.clone(),
            hash_len: k,
            tile_loads: tiles as u64,
            searches,
            cycles,
            utilization,
            energy: EnergyBreakdown {
                cam_search: e_search,
                cam_write: e_write,
                postproc: post.energy_j,
                ctxgen: ctx.energy_j,
            },
        })
    }

    /// Runs a whole model spec under a hash plan: lowers the spec through
    /// the shared compilation pipeline ([`LayerIr::from_spec`] →
    /// [`HashPlan::bind`]) and hands the result to
    /// [`CamScheduler::run_ir`].
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidPlan`] for an inconsistent plan and
    /// CAM errors for unsupported geometry.
    pub fn run(&self, spec: &ModelSpec, plan: &HashPlan) -> Result<PerfReport> {
        let ir = LayerIr::from_spec(spec);
        let binding = plan.bind(&ir)?;
        self.run_ir(&ir, &binding, plan.label())
    }

    /// Runs a lowered model under a validated binding — the IR-level
    /// entry point shared with the engine compiler and the auto-tuner
    /// (which lowers trained [`Cnn`](deepcam_models::Cnn)s through
    /// [`LayerIr::from_cnn`] and costs them here).
    ///
    /// Peripheral layers (pool/BN/activation/residual add) are executed
    /// by the post-processing module; each dot layer's trailing
    /// peripherals fold into its entry. `plan_label` tags the report's
    /// configuration string.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidPlan`] when the binding does not
    /// cover the IR, [`CoreError::Unsupported`] when the IR lacks static
    /// shapes (a [`Cnn`](deepcam_models::Cnn) lowered without a declared
    /// input), and CAM errors for unsupported geometry.
    pub fn run_ir(
        &self,
        ir: &LayerIr,
        binding: &PlanBinding,
        plan_label: impl AsRef<str>,
    ) -> Result<PerfReport> {
        let config = format!(
            "DeepCAM-{} rows={} {}",
            self.dataflow.label(),
            self.rows,
            plan_label.as_ref()
        );
        self.run_ir_body(ir, binding, None, config)
    }

    /// Runs a lowered model under a validated binding **and** a per-layer
    /// array mapping (the mapping pass's output): each dot layer is
    /// costed at its own tile geometry/dataflow on the mapping's
    /// multi-array chip instead of the scheduler's fixed `rows` ×
    /// `dataflow`.
    ///
    /// # Errors
    ///
    /// All [`CamScheduler::run_ir`] conditions, plus
    /// [`CoreError::InvalidPlan`] when the mapping does not cover the IR.
    pub fn run_ir_mapped(
        &self,
        ir: &LayerIr,
        binding: &PlanBinding,
        mapping: &ModelMapping,
        plan_label: impl AsRef<str>,
    ) -> Result<PerfReport> {
        let config = format!(
            "DeepCAM-mapped arrays={} {}",
            mapping.arrays,
            plan_label.as_ref()
        );
        self.run_ir_body(ir, binding, Some(mapping), config)
    }

    /// The one body behind [`CamScheduler::run_ir`] (no mapping: every
    /// layer on the scheduler's own single `rows × dataflow` array) and
    /// [`CamScheduler::run_ir_mapped`].
    fn run_ir_body(
        &self,
        ir: &LayerIr,
        binding: &PlanBinding,
        mapping: Option<&ModelMapping>,
        config: String,
    ) -> Result<PerfReport> {
        if binding.len() != ir.dots.len() {
            return Err(CoreError::InvalidPlan(format!(
                "binding covers {} layers but IR '{}' has {}",
                binding.len(),
                ir.model_name,
                ir.dots.len()
            )));
        }
        if let Some(mapping) = mapping.filter(|m| m.per_layer.len() != ir.dots.len()) {
            return Err(CoreError::InvalidPlan(format!(
                "mapping covers {} layers but IR '{}' has {}",
                mapping.per_layer.len(),
                ir.model_name,
                ir.dots.len()
            )));
        }
        if !ir.has_static_shapes() && !ir.is_empty() {
            return Err(CoreError::Unsupported(format!(
                "IR '{}' lacks static shapes (lower the model with a declared input)",
                ir.model_name
            )));
        }
        let mut layers: Vec<LayerPerf> = Vec::with_capacity(ir.dots.len());
        for dot in &ir.dots {
            let (rows, dataflow, arrays) = match mapping {
                Some(m) => {
                    let lm = m.per_layer[dot.index];
                    (lm.rows, lm.dataflow, m.arrays)
                }
                None => (self.rows, self.dataflow, 1),
            };
            let k = binding.k_for(dot.index);
            let mut perf =
                self.layer_perf_mapped(&dot.shape, k, dot.index == 0, rows, dataflow, arrays)?;
            for peripheral in &dot.peripherals {
                let cost = self.postproc.peripheral_cost(peripheral);
                perf.cycles += cost.cycles;
                perf.energy.postproc += cost.energy_j;
            }
            layers.push(perf);
        }
        // Pre-dot peripheral work (`ir.preamble`) exists in no paper
        // workload and is ignored, exactly as it was before the IR.
        Ok(PerfReport::from_layers(config, ir.workload.clone(), layers))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use deepcam_models::zoo;

    fn lenet_conv1() -> DotLayer {
        DotLayer {
            name: "conv1".into(),
            p: 784,
            m: 6,
            n: 25,
            input_elems: 1024,
        }
    }

    #[test]
    fn paper_utilization_example() {
        // §IV-B: 6 kernels in a 64-row CAM → 9.4% (WS); AS → ~100%.
        let ws = CamScheduler::new(64, Dataflow::WeightStationary).unwrap();
        let perf = ws.layer_perf(&lenet_conv1(), 256, true).unwrap();
        assert!((perf.utilization - 6.0 / 64.0).abs() < 1e-9);

        let as_ = CamScheduler::new(64, Dataflow::ActivationStationary).unwrap();
        let perf = as_.layer_perf(&lenet_conv1(), 256, true).unwrap();
        assert!(perf.utilization > 0.9, "AS util {}", perf.utilization);
    }

    #[test]
    fn as_beats_ws_on_search_count_for_convs() {
        // AS: ceil(784/64)·6 = 78 searches; WS: ceil(6/64)·784 = 784.
        let ws = CamScheduler::new(64, Dataflow::WeightStationary).unwrap();
        let as_ = CamScheduler::new(64, Dataflow::ActivationStationary).unwrap();
        let pw = ws.layer_perf(&lenet_conv1(), 256, true).unwrap();
        let pa = as_.layer_perf(&lenet_conv1(), 256, true).unwrap();
        assert_eq!(pw.searches, 784);
        assert_eq!(pa.searches, 78);
        assert!(pa.cycles < pw.cycles);
    }

    #[test]
    fn more_rows_fewer_cycles() {
        let layer = DotLayer {
            name: "wide".into(),
            p: 4096,
            m: 128,
            n: 576,
            input_elems: 65536,
        };
        let small = CamScheduler::new(64, Dataflow::ActivationStationary).unwrap();
        let large = CamScheduler::new(512, Dataflow::ActivationStationary).unwrap();
        let ps = small.layer_perf(&layer, 512, true).unwrap();
        let pl = large.layer_perf(&layer, 512, true).unwrap();
        assert!(pl.searches < ps.searches);
        assert!(pl.cycles < ps.cycles);
    }

    #[test]
    fn first_layer_skips_ctxgen() {
        let s = CamScheduler::new(64, Dataflow::ActivationStationary).unwrap();
        let first = s.layer_perf(&lenet_conv1(), 256, true).unwrap();
        let later = s.layer_perf(&lenet_conv1(), 256, false).unwrap();
        assert_eq!(first.energy.ctxgen, 0.0);
        assert!(later.energy.ctxgen > 0.0);
    }

    #[test]
    fn longer_hashes_cost_more_energy() {
        let s = CamScheduler::new(64, Dataflow::ActivationStationary).unwrap();
        let short = s.layer_perf(&lenet_conv1(), 256, false).unwrap();
        let long = s.layer_perf(&lenet_conv1(), 1024, false).unwrap();
        assert!(long.energy.cam_search > 2.0 * short.energy.cam_search);
        assert!(long.energy.ctxgen > 2.0 * short.energy.ctxgen);
    }

    #[test]
    fn run_whole_model() {
        let s = CamScheduler::new(64, Dataflow::ActivationStationary).unwrap();
        let perf = s.run(&zoo::lenet5(), &HashPlan::Uniform(256)).unwrap();
        assert_eq!(perf.layers.len(), 5);
        assert!(perf.total_cycles > 0);
        assert!(perf.total_energy_j > 0.0);
        assert!(perf.config.contains("AS"));
    }

    #[test]
    fn plan_mismatch_rejected() {
        let s = CamScheduler::new(64, Dataflow::ActivationStationary).unwrap();
        let bad = HashPlan::PerLayer(vec![256, 256]); // LeNet has 5 dot layers
        assert!(s.run(&zoo::lenet5(), &bad).is_err());
    }

    #[test]
    fn invalid_rows_rejected() {
        assert!(CamScheduler::new(100, Dataflow::ActivationStationary).is_err());
    }

    #[test]
    fn sequential_ge_pipelined() {
        let spec = zoo::vgg11();
        let pipe = CamScheduler::new(64, Dataflow::ActivationStationary).unwrap();
        let seq = pipe.clone().with_cycle_model(CycleModel::Sequential);
        let a = pipe.run(&spec, &HashPlan::Uniform(512)).unwrap();
        let b = seq.run(&spec, &HashPlan::Uniform(512)).unwrap();
        assert!(b.total_cycles >= a.total_cycles);
    }

    #[test]
    fn mapped_at_own_geometry_single_array_is_identical() {
        // The layer_perf → layer_perf_mapped delegation must not change a
        // bit of any existing report: one array at the scheduler's own
        // rows/dataflow is the old accounting.
        let spec = zoo::vgg11();
        let ir = LayerIr::from_spec(&spec);
        let plan = HashPlan::variable_for_dims(&ir.patch_lens());
        let binding = plan.bind(&ir).unwrap();
        for df in Dataflow::both() {
            let s = CamScheduler::new(64, df).unwrap();
            let fixed = s.run_ir(&ir, &binding, plan.label()).unwrap();
            let mapping = ModelMapping::fixed(64, df, ir.len());
            let mapped = s
                .run_ir_mapped(&ir, &binding, &mapping, plan.label())
                .unwrap();
            assert_eq!(fixed.layers.len(), mapped.layers.len());
            for (a, b) in fixed.layers.iter().zip(mapped.layers.iter()) {
                assert_eq!(a.cycles, b.cycles, "{}", a.name);
                assert_eq!(a.searches, b.searches, "{}", a.name);
                assert_eq!(a.energy.cam_search.to_bits(), b.energy.cam_search.to_bits());
                assert_eq!(a.energy.cam_write.to_bits(), b.energy.cam_write.to_bits());
                assert_eq!(a.utilization.to_bits(), b.utilization.to_bits());
            }
        }
    }

    #[test]
    fn more_arrays_cut_cycles_not_energy() {
        let layer = DotLayer {
            name: "wide".into(),
            p: 4096,
            m: 128,
            n: 576,
            input_elems: 65536,
        };
        let s = CamScheduler::new(64, Dataflow::ActivationStationary).unwrap();
        let one = s
            .layer_perf_mapped(&layer, 512, true, 64, Dataflow::ActivationStationary, 1)
            .unwrap();
        let eight = s
            .layer_perf_mapped(&layer, 512, true, 64, Dataflow::ActivationStationary, 8)
            .unwrap();
        assert!(
            eight.cycles < one.cycles,
            "{} vs {}",
            eight.cycles,
            one.cycles
        );
        assert_eq!(
            one.energy.cam_search.to_bits(),
            eight.energy.cam_search.to_bits()
        );
        assert_eq!(
            one.energy.cam_write.to_bits(),
            eight.energy.cam_write.to_bits()
        );
        assert_eq!(one.searches, eight.searches);
    }

    #[test]
    fn mapped_run_validates_coverage_and_geometry() {
        let spec = zoo::lenet5();
        let ir = LayerIr::from_spec(&spec);
        let plan = HashPlan::Uniform(256);
        let binding = plan.bind(&ir).unwrap();
        let s = CamScheduler::new(64, Dataflow::ActivationStationary).unwrap();

        let short = ModelMapping::fixed(64, Dataflow::ActivationStationary, ir.len() - 1);
        assert!(matches!(
            s.run_ir_mapped(&ir, &binding, &short, plan.label()),
            Err(CoreError::InvalidPlan(_))
        ));

        assert!(s
            .layer_perf_mapped(
                &lenet_conv1(),
                256,
                true,
                100, // unsupported row count
                Dataflow::ActivationStationary,
                1
            )
            .is_err());
        assert!(s
            .layer_perf_mapped(
                &lenet_conv1(),
                256,
                true,
                64,
                Dataflow::ActivationStationary,
                0 // zero arrays
            )
            .is_err());
    }

    #[test]
    fn variable_plan_saves_energy_vs_max() {
        let spec = zoo::vgg16();
        let dims = LayerIr::from_spec(&spec).patch_lens();
        let s = CamScheduler::new(64, Dataflow::ActivationStationary).unwrap();
        let vhl = s.run(&spec, &HashPlan::variable_for_dims(&dims)).unwrap();
        let max = s.run(&spec, &HashPlan::uniform_max()).unwrap();
        assert!(
            vhl.total_energy_j < max.total_energy_j,
            "vhl {} vs max {}",
            vhl.total_energy_j,
            max.total_energy_j
        );
    }
}

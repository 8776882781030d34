//! The variable-hash-length auto-tuner: the paper's defining knob
//! (per-layer hash widths trading accuracy for energy, §III-A/Fig. 5),
//! automated on top of the unified compilation pipeline.
//!
//! [`tune`] searches the smallest per-layer [`HashPlan`] whose accuracy
//! on a **tuning split** stays within [`TunerConfig::max_drop`] of the
//! all-1024 reference, then reports both plans' accuracy on the
//! **held-out split** the search never saw. The search is fully
//! deterministic: same model, data, split and config ⇒ bit-identical
//! plan and accuracies (pinned by `tuner_decisions_are_pinned`).
//!
//! Every candidate is an ordinary compile:
//! [`DeepCamEngine::compile`] under the base config with the trial
//! [`HashPlan::PerLayer`], BN-calibrated and evaluated like any engine,
//! so a tuned plan scores exactly what serving it would. Compiling is
//! cheap next to scoring: on VGG11 width 8 a compile costs about what
//! the engine's own derivation does, under 3% of a candidate that
//! calibrates and evaluates 500 images.
//!
//! Both strategies lower one layer at a time, in execution order, with
//! the layers before it at their chosen widths and the layers after it
//! still at 1024:
//!
//! * [`SearchStrategy::BinaryMinimal`] — binary-search the supported
//!   widths (2 evaluations per layer instead of up to 3).
//! * [`SearchStrategy::GreedyAscending`] — scan the widths upwards and
//!   take the first within tolerance; the Fig. 5 search
//!   (`experiments::fig5` in `deepcam-bench`).
//!
//! Either way a layer only ever takes a width whose trial plan passed,
//! so the final plan is the last accepted trial (or all-1024) and meets
//! the target on the tuning split by construction.

use deepcam_hash::SUPPORTED_HASH_LENGTHS;
use deepcam_models::Cnn;
use deepcam_tensor::{Shape, Tensor};

use crate::engine::{DeepCamEngine, EngineConfig};
use crate::error::CoreError;
use crate::hashplan::{HashPlan, PlanBinding};
use crate::ir::LayerIr;
use crate::passes::mapping::{search_mapping, MappingConfig, ModelMapping};
use crate::perf::PerfReport;
use crate::sched::CamScheduler;
use crate::Dataflow;
use crate::Result;

/// How the per-layer widths are searched.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SearchStrategy {
    /// Binary search per layer over the supported widths — the default;
    /// `⌈log₂ 4⌉ = 2` evaluations per layer.
    BinaryMinimal,
    /// Ascending scan per layer, accepting the first width within
    /// tolerance — the search behind Fig. 5's variable plan.
    GreedyAscending,
}

/// Auto-tuner configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct TunerConfig {
    /// Maximum accepted accuracy drop (absolute, on the tuning split)
    /// relative to the all-1024 reference.
    pub max_drop: f32,
    /// Mini-batch size for every evaluation.
    pub batch_size: usize,
    /// Fraction of the provided set used for tuning; the remainder is
    /// held out and only touched by the final report. The split is a
    /// deterministic prefix/suffix cut — shuffle upstream if needed.
    pub tune_fraction: f32,
    /// Search strategy.
    pub strategy: SearchStrategy,
}

impl Default for TunerConfig {
    fn default() -> Self {
        TunerConfig {
            max_drop: 0.01,
            batch_size: 16,
            tune_fraction: 0.5,
            strategy: SearchStrategy::BinaryMinimal,
        }
    }
}

/// What the tuner found.
#[derive(Debug, Clone, PartialEq)]
pub struct TuneReport {
    /// The selected per-layer plan.
    pub plan: HashPlan,
    /// The selected plan bound against the model's IR.
    pub binding: PlanBinding,
    /// All-1024 reference accuracy on the tuning split.
    pub reference_accuracy: f32,
    /// Tuned-plan accuracy on the tuning split.
    pub tuned_accuracy: f32,
    /// All-1024 reference accuracy on the held-out split.
    pub holdout_reference: f32,
    /// Tuned-plan accuracy on the held-out split.
    pub holdout_tuned: f32,
    /// Engine evaluations performed (search + reports).
    pub evaluations: usize,
    /// Mean tuned hash length (the energy headline's driver).
    pub mean_hash_len: f64,
    /// Whether the *held-out* accuracy drop also stayed within
    /// [`TunerConfig::max_drop`]. The search only constrains the tuning
    /// split; a `false` here means the tuned plan generalized worse than
    /// the budget and callers should surface a warning.
    pub holdout_within_budget: bool,
}

/// The tuner's acceptance rule, applied to a (reference, tuned) accuracy
/// pair: `tuned` may trail `reference` by at most `max_drop` (absolute).
/// Exposed so report consumers apply the *same* rule the search used.
pub fn holdout_within(max_drop: f32, reference: f32, tuned: f32) -> bool {
    tuned + max_drop >= reference
}

/// Candidate-engine factory: compiles, calibrates and scores trial
/// plans, counting every evaluation.
struct Searcher<'a> {
    model: &'a Cnn,
    base_cfg: &'a EngineConfig,
    calibration: Option<&'a Tensor>,
    batch_size: usize,
    evaluations: usize,
}

impl Searcher<'_> {
    /// Compiles (and BN-calibrates, when configured) an engine for `ks`.
    fn engine_for(&self, ks: &[usize]) -> Result<DeepCamEngine> {
        let cfg = EngineConfig {
            plan: HashPlan::PerLayer(ks.to_vec()),
            ..self.base_cfg.clone()
        };
        let mut engine = DeepCamEngine::compile(self.model, cfg)?;
        if let Some(calib) = self.calibration {
            engine.calibrate_bn(calib)?;
        }
        Ok(engine)
    }

    fn score(&mut self, engine: &DeepCamEngine, images: &Tensor, labels: &[usize]) -> Result<f32> {
        self.evaluations += 1;
        engine.evaluate(images, labels, self.batch_size)
    }

    fn eval(&mut self, ks: &[usize], images: &Tensor, labels: &[usize]) -> Result<f32> {
        let engine = self.engine_for(ks)?;
        self.score(&engine, images, labels)
    }
}

/// Searches the smallest per-layer hash plan meeting the accuracy target
/// on a held-out calibration split.
///
/// `images`/`labels` are split into a front tuning portion and a back
/// held-out portion per [`TunerConfig::tune_fraction`]; `calibration`
/// (training images, never evaluation data) is applied as BN
/// recalibration to every candidate engine when provided.
///
/// # Errors
///
/// Returns [`CoreError::InvalidInput`] when the set is too small to
/// split or labels mismatch; propagates compile/inference errors.
pub fn tune(
    model: &Cnn,
    images: &Tensor,
    labels: &[usize],
    base: &EngineConfig,
    calibration: Option<&Tensor>,
    cfg: &TunerConfig,
) -> Result<TuneReport> {
    let n = images.shape().dim(0);
    if n != labels.len() {
        return Err(CoreError::InvalidInput(format!(
            "tune: {n} images but {} labels",
            labels.len()
        )));
    }
    if n < 2 {
        return Err(CoreError::InvalidInput(
            "tune: need at least 2 images to split".to_string(),
        ));
    }
    if !(0.0..=1.0).contains(&cfg.tune_fraction) {
        return Err(CoreError::InvalidInput(format!(
            "tune: tune_fraction {} outside [0, 1]",
            cfg.tune_fraction
        )));
    }
    let n_tune = ((n as f64 * f64::from(cfg.tune_fraction)).round() as usize).clamp(1, n - 1);
    let (tune_x, tune_y) = subset(images, labels, 0, n_tune)?;
    let (hold_x, hold_y) = subset(images, labels, n_tune, n)?;

    let layers = model.dot_layer_count();
    let max_k = *SUPPORTED_HASH_LENGTHS.last().expect("non-empty");
    let mut searcher = Searcher {
        model,
        base_cfg: base,
        calibration,
        batch_size: cfg.batch_size,
        evaluations: 0,
    };

    let max_ks = vec![max_k; layers];
    let reference = searcher.eval(&max_ks, &tune_x, &tune_y)?;

    let acceptable = |acc: f32| acc + cfg.max_drop >= reference;
    let mut ks = max_ks.clone();
    match cfg.strategy {
        SearchStrategy::BinaryMinimal => {
            for layer in 0..layers {
                // Smallest supported index whose accuracy clears the
                // floor, by bisection (the top index is the incumbent and
                // always acceptable in isolation).
                let (mut lo, mut hi) = (0usize, SUPPORTED_HASH_LENGTHS.len() - 1);
                while lo < hi {
                    let mid = (lo + hi) / 2;
                    let mut trial = ks.clone();
                    trial[layer] = SUPPORTED_HASH_LENGTHS[mid];
                    if acceptable(searcher.eval(&trial, &tune_x, &tune_y)?) {
                        hi = mid;
                    } else {
                        lo = mid + 1;
                    }
                }
                ks[layer] = SUPPORTED_HASH_LENGTHS[lo];
            }
        }
        SearchStrategy::GreedyAscending => {
            for layer in 0..layers {
                for &candidate in SUPPORTED_HASH_LENGTHS.iter() {
                    if candidate >= ks[layer] {
                        break; // candidates ascend; nothing smaller left
                    }
                    let mut trial = ks.clone();
                    trial[layer] = candidate;
                    if acceptable(searcher.eval(&trial, &tune_x, &tune_y)?) {
                        ks[layer] = candidate;
                        break; // smallest acceptable found
                    }
                }
            }
        }
    }

    // The final plan is the last accepted trial (or all-1024), and
    // evaluation is deterministic, so this re-evaluation always passes.
    // One engine scores both splits, and its compile bound the plan.
    let tuned = searcher.engine_for(&ks)?;
    let tuned_accuracy = searcher.score(&tuned, &tune_x, &tune_y)?;
    debug_assert!(acceptable(tuned_accuracy));

    let holdout_reference = searcher.eval(&max_ks, &hold_x, &hold_y)?;
    let holdout_tuned = searcher.score(&tuned, &hold_x, &hold_y)?;

    let plan = HashPlan::PerLayer(ks);
    let binding = tuned.compiled().binding.clone();
    let mean_hash_len = binding.mean_length();
    Ok(TuneReport {
        plan,
        binding,
        reference_accuracy: reference,
        tuned_accuracy,
        holdout_reference,
        holdout_tuned,
        evaluations: searcher.evaluations,
        mean_hash_len,
        holdout_within_budget: holdout_within(cfg.max_drop, holdout_reference, holdout_tuned),
    })
}

/// Configuration for [`tune_joint`]: the hash-length tuner plus the
/// array-mapping search it co-optimizes with.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct JointTunerConfig {
    /// Hash-length search configuration.
    pub tuner: TunerConfig,
    /// Array-mapping search space.
    pub mapping: MappingConfig,
}

/// What the joint search found: the tuned plan, the mapping searched
/// *under that plan's widths*, and the modeled cost of the tuned plan on
/// the fixed 64-row chip versus the searched mapping.
#[derive(Debug, Clone, PartialEq)]
pub struct JointTuneReport {
    /// The hash-length tuner's report (accuracy-constrained widths).
    pub tune: TuneReport,
    /// Per-layer array mapping searched under the tuned widths.
    pub mapping: ModelMapping,
    /// Tuned plan costed on the fixed 64-row activation-stationary chip
    /// (the pre-mapping scheduler baseline).
    pub fixed: PerfReport,
    /// Tuned plan costed under `mapping` — the joint optimum. Its CAM
    /// search energy never exceeds `fixed`'s (the fixed geometry is in
    /// the search space).
    pub mapped: PerfReport,
}

/// Co-optimizes per-layer hash lengths **and** the CAM array mapping:
/// runs the accuracy-constrained width search ([`tune`]), then searches
/// the mapping space *at the tuned widths* — so tile geometry is chosen
/// for the hash lengths actually deployed, not the all-1024 reference.
///
/// # Errors
///
/// Everything [`tune`] returns, plus mapping-search errors
/// ([`CoreError::InvalidPlan`] on an empty candidate space).
pub fn tune_joint(
    model: &Cnn,
    images: &Tensor,
    labels: &[usize],
    base: &EngineConfig,
    calibration: Option<&Tensor>,
    cfg: &JointTunerConfig,
) -> Result<JointTuneReport> {
    let report = tune(model, images, labels, base, calibration, &cfg.tuner)?;
    let ir = LayerIr::from_cnn(model)?;
    // The scheduler here is the historical fixed-geometry baseline; the
    // mapping search borrows its cost model and overrides the geometry
    // per candidate.
    let sched = CamScheduler::new(64, Dataflow::ActivationStationary)?;
    let fixed = sched.run_ir(&ir, &report.binding, report.plan.label())?;
    let mapping = search_mapping(&sched, &ir, &report.binding, &cfg.mapping)?;
    let mapped = sched.run_ir_mapped(&ir, &report.binding, &mapping, report.plan.label())?;
    Ok(JointTuneReport {
        tune: report,
        mapping,
        fixed,
        mapped,
    })
}

/// Copies images/labels `start..end` into standalone buffers.
fn subset(
    images: &Tensor,
    labels: &[usize],
    start: usize,
    end: usize,
) -> Result<(Tensor, Vec<usize>)> {
    let sample: usize = images.shape().dims()[1..].iter().product();
    let mut dims = vec![end - start];
    dims.extend_from_slice(&images.shape().dims()[1..]);
    Ok((
        Tensor::from_vec(
            images.data()[start * sample..end * sample].to_vec(),
            Shape::new(&dims),
        )?,
        labels[start..end].to_vec(),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use deepcam_models::scaled::scaled_lenet5;
    use deepcam_tensor::rng::{fill_normal, seeded_rng};

    fn toy_images(n: usize) -> (Tensor, Vec<usize>) {
        // Same two-class structure as the trainer tests: class 0 lights
        // the top half, class 1 the bottom half.
        let mut rng = seeded_rng(11);
        let mut data = vec![0.0f32; n * 784];
        let mut labels = Vec::with_capacity(n);
        for i in 0..n {
            let class = i % 2;
            labels.push(class);
            let img = &mut data[i * 784..(i + 1) * 784];
            fill_normal(&mut rng, img, 0.0, 0.3);
            let rows = if class == 0 { 0..14 } else { 14..28 };
            for r in rows {
                for c in 0..28 {
                    img[r * 28 + c] += 1.2;
                }
            }
        }
        (
            Tensor::from_vec(data, Shape::new(&[n, 1, 28, 28])).unwrap(),
            labels,
        )
    }

    fn trained_lenet() -> Cnn {
        let mut rng = seeded_rng(1);
        let mut model = scaled_lenet5(&mut rng, 2);
        let (x, y) = toy_images(16);
        let cfg = deepcam_models::train::TrainConfig {
            epochs: 1,
            batch_size: 8,
            lr: 0.02,
            ..deepcam_models::train::TrainConfig::default()
        };
        deepcam_models::train::train(&mut model, &x, &y, &cfg).unwrap();
        model
    }

    #[test]
    fn tuner_produces_valid_plan_and_holdout_report() {
        let model = trained_lenet();
        let (x, y) = toy_images(24);
        for strategy in [
            SearchStrategy::BinaryMinimal,
            SearchStrategy::GreedyAscending,
        ] {
            let report = tune(
                &model,
                &x,
                &y,
                &EngineConfig::default(),
                None,
                &TunerConfig {
                    max_drop: 0.1,
                    batch_size: 8,
                    strategy,
                    ..TunerConfig::default()
                },
            )
            .unwrap();
            match &report.plan {
                HashPlan::PerLayer(ks) => {
                    assert_eq!(ks.len(), 5);
                    assert!(ks.iter().all(|k| SUPPORTED_HASH_LENGTHS.contains(k)));
                }
                other => panic!("{strategy:?}: expected per-layer plan, got {other:?}"),
            }
            assert_eq!(report.binding.len(), 5);
            assert!(report.tuned_accuracy + 0.1 >= report.reference_accuracy);
            for acc in [
                report.reference_accuracy,
                report.tuned_accuracy,
                report.holdout_reference,
                report.holdout_tuned,
            ] {
                assert!((0.0..=1.0).contains(&acc));
            }
            // Reference + at least one trial + final + 2 holdout.
            assert!(report.evaluations >= 5, "{strategy:?}");
            assert!(report.mean_hash_len >= 256.0 && report.mean_hash_len <= 1024.0);
        }
    }

    #[test]
    fn tuner_is_deterministic() {
        let model = trained_lenet();
        let (x, y) = toy_images(20);
        let cfg = TunerConfig {
            max_drop: 0.05,
            batch_size: 8,
            ..TunerConfig::default()
        };
        let a = tune(&model, &x, &y, &EngineConfig::default(), None, &cfg).unwrap();
        let b = tune(&model, &x, &y, &EngineConfig::default(), None, &cfg).unwrap();
        assert_eq!(a, b); // plan, accuracies and counts, bit-for-bit
    }

    #[test]
    fn generous_target_shrinks_everything() {
        // max_drop 1.0 accepts any accuracy → every layer drops to 256,
        // under both strategies.
        let mut rng = seeded_rng(2);
        let model = scaled_lenet5(&mut rng, 2);
        let (x, y) = toy_images(8);
        for strategy in [
            SearchStrategy::BinaryMinimal,
            SearchStrategy::GreedyAscending,
        ] {
            let report = tune(
                &model,
                &x,
                &y,
                &EngineConfig::default(),
                None,
                &TunerConfig {
                    max_drop: 1.0,
                    batch_size: 8,
                    strategy,
                    ..TunerConfig::default()
                },
            )
            .unwrap();
            match &report.plan {
                HashPlan::PerLayer(ks) => {
                    assert!(ks.iter().all(|&k| k == 256), "{strategy:?}: {ks:?}")
                }
                other => panic!("expected per-layer plan, got {other:?}"),
            }
            assert_eq!(report.mean_hash_len, 256.0);
        }
    }

    #[test]
    fn tuner_rejects_degenerate_inputs() {
        let mut rng = seeded_rng(3);
        let model = scaled_lenet5(&mut rng, 2);
        let (x, y) = toy_images(4);
        let cfg = TunerConfig::default();
        assert!(matches!(
            tune(&model, &x, &y[..3], &EngineConfig::default(), None, &cfg),
            Err(CoreError::InvalidInput(_))
        ));
        let (one_x, one_y) = toy_images(1);
        assert!(matches!(
            tune(&model, &one_x, &one_y, &EngineConfig::default(), None, &cfg),
            Err(CoreError::InvalidInput(_))
        ));
        let bad = TunerConfig {
            tune_fraction: 1.5,
            ..TunerConfig::default()
        };
        assert!(matches!(
            tune(&model, &x, &y, &EngineConfig::default(), None, &bad),
            Err(CoreError::InvalidInput(_))
        ));
    }

    #[test]
    fn holdout_budget_rule_matches_search_acceptance() {
        // Same rule as the search's `acceptable` closure, including the
        // boundary: a drop of exactly max_drop is within budget.
        assert!(holdout_within(0.01, 0.90, 0.90));
        assert!(holdout_within(0.01, 0.90, 0.89));
        assert!(!holdout_within(0.01, 0.90, 0.888));
        // A held-out *gain* is always within budget.
        assert!(holdout_within(0.0, 0.90, 0.95));
        assert!(holdout_within(1.0, 1.0, 0.0));
    }

    #[test]
    fn report_flags_holdout_violations() {
        let model = trained_lenet();
        let (x, y) = toy_images(24);
        // Generous budget: whatever the holdout split does, it's within
        // a 1.0 drop.
        let report = tune(
            &model,
            &x,
            &y,
            &EngineConfig::default(),
            None,
            &TunerConfig {
                max_drop: 1.0,
                batch_size: 8,
                ..TunerConfig::default()
            },
        )
        .unwrap();
        assert!(report.holdout_within_budget);
        // The flag must agree with the exposed rule on the report's own
        // numbers, whatever they are.
        assert_eq!(
            report.holdout_within_budget,
            holdout_within(1.0, report.holdout_reference, report.holdout_tuned)
        );
    }

    #[test]
    fn joint_tuning_never_loses_to_the_fixed_chip() {
        let model = trained_lenet();
        let (x, y) = toy_images(20);
        let cfg = JointTunerConfig {
            tuner: TunerConfig {
                max_drop: 0.1,
                batch_size: 8,
                ..TunerConfig::default()
            },
            ..JointTunerConfig::default()
        };
        let joint = tune_joint(&model, &x, &y, &EngineConfig::default(), None, &cfg).unwrap();
        assert_eq!(joint.mapping.per_layer.len(), 5);
        // The fixed 64-row AS geometry is in the search space, so the
        // searched mapping can never cost more CAM search energy.
        assert!(
            joint.mapped.energy.cam_search <= joint.fixed.energy.cam_search,
            "mapped {} > fixed {}",
            joint.mapped.energy.cam_search,
            joint.fixed.energy.cam_search
        );
        // Both reports cost the *tuned* plan, not the reference.
        assert_eq!(joint.fixed.layers.len(), 5);
        assert_eq!(joint.mapped.layers.len(), 5);
        // Deterministic end to end.
        let again = tune_joint(&model, &x, &y, &EngineConfig::default(), None, &cfg).unwrap();
        assert_eq!(joint, again);
    }

    #[test]
    fn tuner_decisions_are_pinned() {
        // The toy run's plan, evaluation count and accuracy bits, pinned
        // per strategy: a rewrite of how candidates are built must not
        // change what any of them scores.
        let model = trained_lenet();
        let (x, y) = toy_images(20);
        for (strategy, ks, evaluations) in [
            (
                SearchStrategy::BinaryMinimal,
                [256, 256, 1024, 1024, 1024],
                14,
            ),
            (
                SearchStrategy::GreedyAscending,
                [256, 256, 1024, 1024, 256],
                13,
            ),
        ] {
            let cfg = TunerConfig {
                max_drop: 0.05,
                batch_size: 8,
                strategy,
                ..TunerConfig::default()
            };
            let r = tune(&model, &x, &y, &EngineConfig::default(), None, &cfg).unwrap();
            assert_eq!(r.plan, HashPlan::PerLayer(ks.to_vec()), "{strategy:?}");
            assert_eq!(r.evaluations, evaluations, "{strategy:?}");
            let bits = [
                r.reference_accuracy,
                r.tuned_accuracy,
                r.holdout_reference,
                r.holdout_tuned,
            ]
            .map(f32::to_bits);
            assert_eq!(
                bits,
                [0x3f4c_cccd, 0x3f4c_cccd, 0x3f33_3333, 0x3f66_6666],
                "{strategy:?}"
            );
        }
    }
}

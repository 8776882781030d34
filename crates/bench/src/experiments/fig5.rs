//! Fig. 5 — Top-1 accuracy of the software baseline (BL) vs DeepCAM (DC)
//! across hash lengths, per workload.
//!
//! Substitutions (DESIGN.md §4): scaled-down topology-faithful models
//! trained on synthetic datasets replace the paper's pretrained
//! PyTorch models on MNIST/CIFAR. The measured quantity — how DC
//! accuracy degrades as hash length shrinks, per layer — is preserved.

use deepcam_core::tune::{tune, SearchStrategy, TunerConfig};
use deepcam_core::{DeepCamEngine, EngineConfig, HashPlan};
use deepcam_data::synth::{generate, SynthConfig};
use deepcam_models::scaled::{scaled_lenet5, scaled_resnet18, scaled_vgg11, scaled_vgg16};
use deepcam_models::train::{evaluate, train, TrainConfig};
use deepcam_models::Cnn;
use deepcam_tensor::rng::seeded_rng;
use deepcam_tensor::Parallelism;

/// Result row for one workload.
#[derive(Debug, Clone)]
pub struct Fig5Row {
    /// Workload label, e.g. `"LeNet5 / SynthDigits"`.
    pub workload: String,
    /// Float ("software baseline", BL) accuracy.
    pub baseline_acc: f32,
    /// DC accuracy at each uniform hash length, `(k, accuracy)`.
    pub uniform: Vec<(usize, f32)>,
    /// DC accuracy under the searched variable plan.
    pub variable_acc: f32,
    /// The searched per-layer plan.
    pub variable_plan: Vec<usize>,
}

/// Experiment scale knobs.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig5Config {
    /// Train samples per class for the 10-class sets (scaled down for the
    /// 100-class set automatically).
    pub train_per_class: usize,
    /// Test images evaluated per configuration.
    pub eval_images: usize,
    /// Images used inside the variable-plan search.
    pub search_images: usize,
    /// Training epochs.
    pub epochs: usize,
    /// Channel width of the scaled VGG/ResNet variants.
    pub width: usize,
    /// Uniform hash lengths to evaluate.
    pub hash_lengths: Vec<usize>,
    /// Accuracy tolerance for the variable-plan search.
    pub tolerance: f32,
    /// Which workloads to run (subset of 0..4, in Table I order).
    pub workloads: Vec<usize>,
    /// Worker parallelism for DC evaluation (bit-exact at any setting;
    /// `--workers N` on the binary maps to `Parallelism::Fixed(N)`).
    pub parallelism: Parallelism,
}

impl Default for Fig5Config {
    fn default() -> Self {
        Fig5Config {
            train_per_class: 64,
            eval_images: 40,
            search_images: 24,
            epochs: 3,
            width: 8,
            hash_lengths: vec![256, 512, 768, 1024],
            tolerance: 0.03,
            workloads: vec![0, 1, 2, 3],
            parallelism: Parallelism::Auto,
        }
    }
}

impl Fig5Config {
    /// A minimal configuration for unit tests.
    pub fn smoke() -> Self {
        Fig5Config {
            train_per_class: 6,
            eval_images: 12,
            search_images: 8,
            epochs: 1,
            width: 4,
            hash_lengths: vec![256, 1024],
            tolerance: 0.1,
            workloads: vec![0],
            parallelism: Parallelism::Fixed(2),
        }
    }
}

fn run_workload(name: &str, mut model: Cnn, data_cfg: &SynthConfig, cfg: &Fig5Config) -> Fig5Row {
    let (train_set, test_set) = generate(data_cfg);
    let tc = TrainConfig {
        epochs: cfg.epochs,
        batch_size: 32,
        lr: 0.03,
        momentum: 0.9,
        weight_decay: 1e-4,
        seed: 7,
    };
    train(&mut model, train_set.images(), train_set.labels(), &tc).expect("training succeeds");
    let n_eval = cfg.eval_images.min(test_set.len());
    let (eval_x, eval_y) = test_set.batch(&(0..n_eval).collect::<Vec<_>>());
    let baseline_acc = evaluate(&mut model, &eval_x, &eval_y, 16).expect("evaluation succeeds");
    // BN calibration set: training images, never test data.
    let (calib_x, _) = train_set.batch(&(0..32.min(train_set.len())).collect::<Vec<_>>());

    let mut uniform = Vec::new();
    for &k in &cfg.hash_lengths {
        let mut engine = DeepCamEngine::compile(
            &model,
            EngineConfig {
                plan: HashPlan::Uniform(k),
                parallelism: cfg.parallelism,
                ..EngineConfig::default()
            },
        )
        .expect("engine compiles");
        engine.calibrate_bn(&calib_x).expect("calibration succeeds");
        let acc = engine
            .evaluate(&eval_x, &eval_y, 16)
            .expect("dc evaluation succeeds");
        uniform.push((k, acc));
    }

    // The greedy search sees only the first `search_images` evaluation
    // images (the tuning split); the rest are its held-out split.
    let search = tune(
        &model,
        &eval_x,
        &eval_y,
        &EngineConfig::default(),
        Some(&calib_x),
        &TunerConfig {
            max_drop: cfg.tolerance,
            batch_size: 16,
            tune_fraction: cfg.search_images as f32 / n_eval as f32,
            strategy: SearchStrategy::GreedyAscending,
        },
    )
    .expect("vhl search succeeds");
    let variable_plan = search.binding.ks().to_vec();
    let mut engine = DeepCamEngine::compile(
        &model,
        EngineConfig {
            plan: search.plan,
            parallelism: cfg.parallelism,
            ..EngineConfig::default()
        },
    )
    .expect("engine compiles");
    engine.calibrate_bn(&calib_x).expect("calibration succeeds");
    let variable_acc = engine
        .evaluate(&eval_x, &eval_y, 16)
        .expect("dc evaluation succeeds");

    Fig5Row {
        workload: name.to_string(),
        baseline_acc,
        uniform,
        variable_acc,
        variable_plan,
    }
}

/// Runs the accuracy experiment for the selected workloads.
pub fn run(cfg: &Fig5Config) -> Vec<Fig5Row> {
    let mut rows = Vec::new();
    for &w in &cfg.workloads {
        let row = match w {
            0 => {
                let mut rng = seeded_rng(100);
                let data = SynthConfig::digits().with_samples(cfg.train_per_class, 20);
                run_workload(
                    "LeNet5 / SynthDigits",
                    scaled_lenet5(&mut rng, 10),
                    &data,
                    cfg,
                )
            }
            1 => {
                let mut rng = seeded_rng(101);
                let data = SynthConfig::objects10().with_samples(cfg.train_per_class, 16);
                run_workload(
                    "VGG11 / SynthObjects10",
                    scaled_vgg11(&mut rng, cfg.width, 10),
                    &data,
                    cfg,
                )
            }
            2 => {
                let mut rng = seeded_rng(102);
                let per_class = (cfg.train_per_class / 8).max(4);
                let data = SynthConfig::objects100().with_samples(per_class, 2);
                run_workload(
                    "VGG16 / SynthObjects100",
                    scaled_vgg16(&mut rng, cfg.width, 100),
                    &data,
                    cfg,
                )
            }
            3 => {
                let mut rng = seeded_rng(103);
                let per_class = (cfg.train_per_class / 8).max(4);
                let data = SynthConfig::objects100().with_samples(per_class, 2);
                run_workload(
                    "ResNet18 / SynthObjects100",
                    scaled_resnet18(&mut rng, cfg.width, 100),
                    &data,
                    cfg,
                )
            }
            other => panic!("workload index {other} out of range"),
        };
        rows.push(row);
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_lenet_runs_end_to_end() {
        let rows = run(&Fig5Config::smoke());
        assert_eq!(rows.len(), 1);
        let r = &rows[0];
        assert!(r.baseline_acc >= 0.0 && r.baseline_acc <= 1.0);
        assert_eq!(r.uniform.len(), 2);
        assert_eq!(r.variable_plan.len(), 5); // LeNet5 dot layers
        assert!(r.variable_acc >= 0.0 && r.variable_acc <= 1.0);
    }
}

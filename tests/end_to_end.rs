//! End-to-end integration: synthetic data → trained CNN → DeepCAM
//! compilation → CAM-based inference, across crates.

use deepcam::accel::tune::{tune, SearchStrategy, TunerConfig};
use deepcam::accel::{DeepCamEngine, EngineConfig, HashPlan};
use deepcam::data::synth::{generate, SynthConfig};
use deepcam::models::scaled::{scaled_lenet5, scaled_vgg11};
use deepcam::models::train::{evaluate, train, TrainConfig};
use deepcam::tensor::rng::seeded_rng;

fn quick_train_cfg() -> TrainConfig {
    TrainConfig {
        epochs: 2,
        batch_size: 24,
        lr: 0.03,
        momentum: 0.9,
        weight_decay: 1e-4,
        seed: 5,
    }
}

#[test]
fn lenet_digits_bl_vs_dc_pipeline() {
    // LeNet5 needs 28x28 inputs — the standard digits preset at a reduced
    // sample count keeps this test fast.
    let (train_set, test_set) = generate(&SynthConfig::digits().with_samples(24, 5));
    let mut rng = seeded_rng(1);
    let mut model = scaled_lenet5(&mut rng, 10);
    train(
        &mut model,
        train_set.images(),
        train_set.labels(),
        &quick_train_cfg(),
    )
    .expect("training runs");
    let bl = evaluate(&mut model, test_set.images(), test_set.labels(), 25).expect("bl eval");
    assert!(bl > 0.3, "float model failed to learn anything: {bl}");

    let engine = DeepCamEngine::compile(
        &model,
        EngineConfig {
            plan: HashPlan::Uniform(1024),
            ..EngineConfig::default()
        },
    )
    .expect("compiles");
    let dc = engine
        .evaluate(test_set.images(), test_set.labels(), 25)
        .expect("dc eval");
    // At k=1024 the approximation must retain most of the accuracy.
    assert!(dc + 0.25 >= bl, "DC@1024 {dc} lost too much versus BL {bl}");
}

#[test]
fn accuracy_improves_with_hash_length_on_average() {
    let (train_set, test_set) = generate(&SynthConfig::digits().with_samples(24, 5));
    let mut rng = seeded_rng(2);
    let mut model = scaled_lenet5(&mut rng, 10);
    train(
        &mut model,
        train_set.images(),
        train_set.labels(),
        &quick_train_cfg(),
    )
    .expect("training runs");
    let acc_at = |k: usize| {
        DeepCamEngine::compile(
            &model,
            EngineConfig {
                plan: HashPlan::Uniform(k),
                ..EngineConfig::default()
            },
        )
        .expect("compiles")
        .evaluate(test_set.images(), test_set.labels(), 25)
        .expect("dc eval")
    };
    // Fig. 5's monotone-recovery shape, with slack for hash variance on a
    // small evaluation set.
    let low = acc_at(256);
    let high = acc_at(1024);
    assert!(
        high + 0.15 >= low,
        "k=1024 ({high}) should not be meaningfully worse than k=256 ({low})"
    );
}

#[test]
fn vgg_family_compiles_and_infers_on_objects() {
    let (_, test_set) = generate(&SynthConfig::objects10().with_samples(4, 3));
    let mut rng = seeded_rng(3);
    let model = scaled_vgg11(&mut rng, 8, 10);
    let engine = DeepCamEngine::compile(
        &model,
        EngineConfig {
            plan: HashPlan::Uniform(256),
            ..EngineConfig::default()
        },
    )
    .expect("compiles");
    // Untrained accuracy is near chance, but inference must be finite and
    // shaped correctly end to end.
    let (batch, _) = test_set.batch(&[0, 1, 2]);
    let logits = engine.infer(&batch).expect("inference runs");
    assert_eq!(logits.shape().dims(), &[3, 10]);
    assert!(logits.all_finite());
}

#[test]
fn variable_plan_search_integrates_with_training() {
    let (train_set, test_set) = generate(&SynthConfig::digits().with_samples(16, 4));
    let mut rng = seeded_rng(4);
    let mut model = scaled_lenet5(&mut rng, 10);
    train(
        &mut model,
        train_set.images(),
        train_set.labels(),
        &quick_train_cfg(),
    )
    .expect("training runs");
    // The first 20 images are the tuning split, the last 20 held out.
    let (x, y) = test_set.batch(&(0..40).collect::<Vec<_>>());
    let result = tune(
        &model,
        &x,
        &y,
        &EngineConfig::default(),
        None,
        &TunerConfig {
            max_drop: 0.05,
            batch_size: 20,
            tune_fraction: 0.5,
            strategy: SearchStrategy::GreedyAscending,
        },
    )
    .expect("search runs");
    match result.plan {
        HashPlan::PerLayer(ks) => {
            assert_eq!(ks.len(), 5);
            assert!(ks.iter().all(|k| [256, 512, 768, 1024].contains(k)));
        }
        _ => panic!("expected a per-layer plan"),
    }
    assert!(result.tuned_accuracy + 0.05 >= result.reference_accuracy);
}

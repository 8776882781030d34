//! Differential tests for the parallel sharded inference runtime.
//!
//! The contract: parallelism changes *wall clock only*. Every sharded
//! path — image-level `infer_batch` fan-out, per-layer patch-hash
//! sharding, parallel mini-batch evaluation — must be **bit-identical** to its serial counterpart, on every model
//! of the zoo, for every worker count. `assert_eq!` on raw `f32` buffers
//! (no tolerance) is deliberate: a single reordered float accumulation
//! would fail the suite.

use deepcam::accel::{DeepCamEngine, EngineConfig, HashPlan};
use deepcam::models::scaled::{scaled_lenet5, scaled_resnet18, scaled_vgg11, scaled_vgg16};
use deepcam::models::Cnn;
use deepcam::tensor::pool::Parallelism;
use deepcam::tensor::rng::seeded_rng;
use deepcam::tensor::{init, Shape, Tensor};
use rand::RngExt;

const WORKER_SWEEP: [usize; 3] = [1, 2, 8];

/// Every zoo family, scaled to test-friendly widths, with a matching
/// input batch. Batch of 5 on a worker sweep of {1, 2, 8} exercises
/// even chunks, uneven chunks and more-workers-than-images.
fn zoo() -> Vec<(Cnn, Tensor)> {
    let mut models = Vec::new();
    {
        let mut rng = seeded_rng(100);
        let model = scaled_lenet5(&mut rng, 10);
        let mut xr = seeded_rng(200);
        let x = init::normal(&mut xr, Shape::new(&[5, 1, 28, 28]), 0.0, 1.0);
        models.push((model, x));
    }
    for (seed, model_fn) in [
        (101u64, scaled_vgg11 as fn(&mut _, usize, usize) -> Cnn),
        (102, scaled_vgg16),
        (103, scaled_resnet18),
    ] {
        let mut rng = seeded_rng(seed);
        let model = model_fn(&mut rng, 4, 10);
        let mut xr = seeded_rng(seed + 100);
        let x = init::normal(&mut xr, Shape::new(&[5, 3, 32, 32]), 0.0, 1.0);
        models.push((model, x));
    }
    models
}

#[test]
fn infer_batch_bit_identical_to_serial_on_every_zoo_model() {
    for (model, x) in zoo() {
        let engine = DeepCamEngine::compile(
            &model,
            EngineConfig {
                plan: HashPlan::Uniform(256),
                parallelism: Parallelism::Serial,
                ..EngineConfig::default()
            },
        )
        .expect("engine compiles");
        let serial = engine.infer(&x).expect("serial inference");
        for workers in WORKER_SWEEP {
            let sharded = engine
                .infer_batch_with(&x, Parallelism::Fixed(workers))
                .expect("sharded inference");
            assert_eq!(serial.shape(), sharded.shape());
            assert_eq!(
                serial.data(),
                sharded.data(),
                "{}: infer_batch with {workers} workers diverged from serial infer",
                model.name
            );
        }
    }
}

#[test]
fn evaluate_parallel_equals_evaluate_exactly() {
    let mut rng = seeded_rng(9);
    let model = scaled_lenet5(&mut rng, 10);
    let engine = DeepCamEngine::compile(
        &model,
        EngineConfig {
            plan: HashPlan::Uniform(256),
            parallelism: Parallelism::Serial,
            ..EngineConfig::default()
        },
    )
    .expect("engine compiles");
    let mut xr = seeded_rng(19);
    let x = init::normal(&mut xr, Shape::new(&[10, 1, 28, 28]), 0.0, 1.0);
    let mut lr = seeded_rng(29);
    let labels: Vec<usize> = (0..10).map(|_| lr.random_range(0..10usize)).collect();
    // Batch size 4 over 10 images leaves a remainder mini-batch.
    let reference = engine.evaluate(&x, &labels, 4).expect("serial evaluate");
    for workers in WORKER_SWEEP {
        let acc = engine
            .evaluate_with(&x, &labels, 4, Parallelism::Fixed(workers))
            .expect("parallel evaluate");
        assert_eq!(reference, acc, "{workers} workers");
    }
}

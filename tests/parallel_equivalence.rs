//! Differential tests for the parallel sharded inference runtime.
//!
//! The contract: parallelism changes *wall clock only*. Every sharded
//! path — image-level `infer_batch` fan-out, per-layer patch-hash
//! sharding, parallel mini-batch evaluation — must be **bit-identical** to its serial counterpart, on every model
//! of the zoo, for every worker count. `assert_eq!` on raw `f32` buffers
//! (no tolerance) is deliberate: a single reordered float accumulation
//! would fail the suite.

mod common;

use deepcam::accel::{DeepCamEngine, EngineConfig, HashPlan};
use deepcam::models::scaled::{scaled_lenet5, scaled_resnet18, scaled_vgg11, scaled_vgg16};
use deepcam::models::Cnn;
use deepcam::tensor::pool::Parallelism;
use deepcam::tensor::rng::seeded_rng;
use deepcam::tensor::{init, Shape, Tensor};
use rand::RngExt;

const WORKER_SWEEP: [usize; 3] = [1, 2, 8];

fn serial_engine(model: &Cnn) -> DeepCamEngine {
    DeepCamEngine::compile(
        model,
        EngineConfig {
            plan: HashPlan::Uniform(256),
            parallelism: Parallelism::Serial,
            ..EngineConfig::default()
        },
    )
    .expect("engine compiles")
}

/// Every zoo family, scaled to test-friendly widths, with its engine and
/// an input batch just big enough for the image fan-out to take 8 tasks,
/// so the worker sweep {1, 2, 8} exercises even and uneven chunks.
fn zoo() -> Vec<(Cnn, DeepCamEngine, Tensor)> {
    let mut models = vec![(scaled_lenet5(&mut seeded_rng(100), 10), 200u64, [1, 28, 28])];
    for (seed, model_fn) in [
        (101u64, scaled_vgg11 as fn(&mut _, usize, usize) -> Cnn),
        (102, scaled_vgg16),
        (103, scaled_resnet18),
    ] {
        models.push((
            model_fn(&mut seeded_rng(seed), 4, 10),
            seed + 100,
            [3, 32, 32],
        ));
    }
    models
        .into_iter()
        .map(|(model, data_seed, image)| {
            let engine = serial_engine(&model);
            let n = common::fan_out_images(&engine, &image, 8);
            let shape = Shape::new(&[n, image[0], image[1], image[2]]);
            let x = init::normal(&mut seeded_rng(data_seed), shape, 0.0, 1.0);
            (model, engine, x)
        })
        .collect()
}

#[test]
fn infer_batch_bit_identical_to_serial_on_every_zoo_model() {
    for (model, engine, x) in zoo() {
        let serial = engine.infer(&x).expect("serial inference");
        for workers in WORKER_SWEEP {
            let parallelism = Parallelism::Fixed(workers);
            assert_eq!(
                engine.image_tasks(&x, parallelism),
                workers,
                "{}",
                model.name
            );
            let sharded = engine
                .infer_batch_with(&x, parallelism)
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
    let engine = serial_engine(&scaled_lenet5(&mut seeded_rng(9), 10));
    // One image past an 8-task batch, so batch size 4 leaves a remainder
    // mini-batch.
    let n = common::fan_out_images(&engine, &[1, 28, 28], 8) + 1;
    let mut xr = seeded_rng(19);
    let x = init::normal(&mut xr, Shape::new(&[n, 1, 28, 28]), 0.0, 1.0);
    let mut lr = seeded_rng(29);
    let labels: Vec<usize> = (0..n).map(|_| lr.random_range(0..10usize)).collect();
    let reference = engine.evaluate(&x, &labels, 4).expect("serial evaluate");
    for workers in WORKER_SWEEP {
        let parallelism = Parallelism::Fixed(workers);
        assert_eq!(engine.image_tasks(&x, parallelism), workers);
        let acc = engine
            .evaluate_with(&x, &labels, 4, parallelism)
            .expect("parallel evaluate");
        assert_eq!(reference, acc, "{workers} workers");
    }
}

//! The recorder accounts for an inference pass's wall time: on a serial
//! fast pass, the dot layers' four phases plus the non-dot steps cover
//! 95–105% of the wall time measured around the call.

use std::time::Instant;

use deepcam::accel::{Datapath, DeepCamEngine, EngineConfig, HashPlan};
use deepcam::models::scaled::{scaled_lenet5, scaled_vgg11};
use deepcam::models::Cnn;
use deepcam::tensor::rng::seeded_rng;
use deepcam::tensor::{init, Parallelism, Shape};

/// The share of the call's wall time the recording accounts for, on the
/// fastest of three passes (the one the host disturbed least).
fn coverage(model: &Cnn, input: [usize; 4]) -> f64 {
    let cfg = EngineConfig {
        plan: HashPlan::Uniform(256),
        parallelism: Parallelism::Serial,
        ..EngineConfig::default()
    };
    let engine = DeepCamEngine::compile(model, cfg).unwrap();
    let batch = init::normal(&mut seeded_rng(1), Shape::new(&input), 0.0, 1.0);
    engine.infer(&batch).unwrap();
    let (wall, accounted) = (0..3)
        .map(|_| {
            let start = Instant::now();
            let (_, rec) = engine.infer_recorded(&batch, Datapath::Fast).unwrap();
            (start.elapsed(), rec.accounted())
        })
        .min_by_key(|&(wall, _)| wall)
        .unwrap();
    accounted.as_secs_f64() / wall.as_secs_f64()
}

#[test]
fn phases_and_non_dot_steps_cover_a_serial_pass() {
    let vgg11 = scaled_vgg11(&mut seeded_rng(0), 8, 10);
    let lenet5 = scaled_lenet5(&mut seeded_rng(0), 10);
    for (name, model, input) in [
        ("VGG11 w8", &vgg11, [16, 3, 32, 32]),
        ("LeNet5", &lenet5, [16, 1, 28, 28]),
    ] {
        let share = coverage(model, input);
        assert!(
            (0.95..=1.05).contains(&share),
            "{name}: phases and non-dot steps cover {:.1}% of the pass",
            share * 100.0
        );
    }
}

//! Non-ideality study: how sense-amplifier quantization affects
//! DeepCAM's Hamming-distance readout.
//!
//! The paper assumes ideal hashing and sensing. The engine models the
//! ideal device, whose accuracy this example prints once; the clocked
//! sense amplifier then quantizes Hamming distances, and the example
//! measures that readout error — the kind of robustness analysis a
//! deployment would need.
//!
//! Run: `cargo run --release --example fault_injection`

use deepcam::accel::{DeepCamEngine, EngineConfig, HashPlan};
use deepcam::cam::SenseModel;
use deepcam::data::synth::{generate, SynthConfig};
use deepcam::models::scaled::scaled_lenet5;
use deepcam::models::train::{evaluate, train, TrainConfig};
use deepcam::tensor::rng::seeded_rng;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let (train_set, test_set) = generate(&SynthConfig::digits().with_samples(60, 10));
    let mut rng = seeded_rng(7);
    let mut model = scaled_lenet5(&mut rng, 10);
    train(
        &mut model,
        train_set.images(),
        train_set.labels(),
        &TrainConfig {
            epochs: 3,
            batch_size: 32,
            lr: 0.03,
            ..TrainConfig::default()
        },
    )?;
    let bl = evaluate(&mut model, test_set.images(), test_set.labels(), 32)?;
    println!("BL (float) accuracy: {:.1}%", bl * 100.0);
    let engine = DeepCamEngine::compile(
        &model,
        EngineConfig {
            plan: HashPlan::Uniform(512),
            ..EngineConfig::default()
        },
    )?;
    let dc = engine.evaluate(test_set.images(), test_set.labels(), 32)?;
    println!("DC (ideal device, k=512) accuracy: {:.1}%", dc * 100.0);
    println!();

    println!("sense-amplifier quantization (std-alone readout error, k=1024 words):");
    for levels in [4usize, 8, 16, 64, 256] {
        let sense = SenseModel::Clocked { levels };
        let max_err = sense.max_error(1024);
        println!(
            "  {levels:3} clock levels: worst-case HD readout error {max_err:4} bits \
             (of 1024)"
        );
    }
    println!();
    println!(
        "reading guide: the self-referenced SA resolves small Hamming distances \
         — where dot-products are largest — almost exactly."
    );
    Ok(())
}

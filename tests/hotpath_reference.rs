//! Differential suite: the packed-tile + cosine-LUT hot path vs the
//! frozen pre-optimization reference datapath.
//!
//! `DeepCamEngine::infer_reference` preserves the engine's original
//! per-(patch, kernel) scalar pipeline verbatim (naive GEMM, per-bit
//! sign build, heap hashes, per-pair angle/cosine). The optimized path
//! must reproduce it **bit for bit** for every model family, cosine
//! mode and norm mode — this is the contract that let the
//! hot path be rebuilt for throughput without moving a single output
//! bit.

mod common;

use deepcam::accel::{passes, CompiledModel, Datapath, DeepCamEngine, EngineConfig, HashPlan};
use deepcam::hash::geometric::{CosineMode, NormMode};
use deepcam::models::scaled::{scaled_lenet5, scaled_resnet18, scaled_vgg11};
use deepcam::models::Cnn;
use deepcam::tensor::pool::Parallelism;
use deepcam::tensor::rng::seeded_rng;
use deepcam::tensor::{init, Shape, Tensor};

fn assert_paths_identical(model: &Cnn, x: &Tensor, cfg: EngineConfig, label: &str) {
    let engine = DeepCamEngine::compile(model, cfg).expect("engine compiles");
    let fast = engine.infer(x).expect("fast inference succeeds");
    let reference = engine
        .infer_reference(x)
        .expect("reference inference succeeds");
    assert_eq!(fast.shape(), reference.shape(), "{label}: shape");
    for (i, (a, b)) in fast.data().iter().zip(reference.data().iter()).enumerate() {
        assert_eq!(
            a.to_bits(),
            b.to_bits(),
            "{label}: logit {i} diverged (fast {a} vs reference {b})"
        );
    }
}

#[test]
fn lenet5_all_mode_combinations_match_reference() {
    let mut rng = seeded_rng(300);
    let model = scaled_lenet5(&mut rng, 10);
    let mut data_rng = seeded_rng(301);
    let x = init::normal(&mut data_rng, Shape::new(&[3, 1, 28, 28]), 0.0, 1.0);
    for cosine in [CosineMode::PiecewiseEq5, CosineMode::Exact] {
        for norm in [NormMode::Minifloat8, NormMode::Fp32] {
            let cfg = EngineConfig {
                plan: HashPlan::Uniform(256),
                cosine,
                norm,
                parallelism: Parallelism::Serial,
                ..EngineConfig::default()
            };
            assert_paths_identical(&model, &x, cfg, &format!("lenet5 {cosine:?}/{norm:?}"));
        }
    }
}

#[test]
fn vgg11_matches_reference_including_bn_layers() {
    let mut rng = seeded_rng(302);
    let model = scaled_vgg11(&mut rng, 4, 10);
    let mut data_rng = seeded_rng(303);
    let x = init::normal(&mut data_rng, Shape::new(&[2, 3, 32, 32]), 0.0, 1.0);
    let cfg = EngineConfig {
        plan: HashPlan::Uniform(256),
        parallelism: Parallelism::Serial,
        ..EngineConfig::default()
    };
    assert_paths_identical(&model, &x, cfg, "vgg11");
}

#[test]
fn resnet18_residual_wiring_matches_reference() {
    let mut rng = seeded_rng(304);
    let model = scaled_resnet18(&mut rng, 4, 10);
    let mut data_rng = seeded_rng(305);
    let x = init::normal(&mut data_rng, Shape::new(&[1, 3, 32, 32]), 0.0, 1.0);
    let cfg = EngineConfig {
        plan: HashPlan::Uniform(256),
        parallelism: Parallelism::Serial,
        ..EngineConfig::default()
    };
    assert_paths_identical(&model, &x, cfg, "resnet18");
}

#[test]
fn variable_hash_plan_matches_reference() {
    // Per-layer hash widths exercise distinct LUT sizes and packed tile
    // strides in one pipeline.
    let mut rng = seeded_rng(308);
    let model = scaled_lenet5(&mut rng, 10);
    let mut data_rng = seeded_rng(309);
    let x = init::normal(&mut data_rng, Shape::new(&[2, 1, 28, 28]), 0.0, 1.0);
    let cfg = EngineConfig {
        plan: HashPlan::PerLayer(vec![256, 512, 768, 1024, 256]),
        parallelism: Parallelism::Serial,
        ..EngineConfig::default()
    };
    assert_paths_identical(&model, &x, cfg, "lenet5 variable plan");
}

#[test]
fn every_detected_simd_variant_matches_reference() {
    // End-to-end gate for the kernel dispatch table: pin every variant
    // the host detects (scalar always included — the CI
    // `DEEPCAM_SIMD=scalar` leg runs this same suite with scalar as the
    // ambient default) and require the full pipeline to reproduce the
    // frozen reference bit for bit. VGG11 at width 8 puts patch widths over 64 through both projection
    // tiles. Flipping the process-wide variant is benign even if other
    // tests race this one: all variants compute identical bits, which is
    // exactly what this test enforces.
    use deepcam::tensor::simd::{detected, force_variant};
    let lenet = scaled_lenet5(&mut seeded_rng(312), 10);
    let lenet_x = init::normal(&mut seeded_rng(313), Shape::new(&[2, 1, 28, 28]), 0.0, 1.0);
    let vgg = scaled_vgg11(&mut seeded_rng(316), 8, 10);
    let vgg_x = init::normal(&mut seeded_rng(317), Shape::new(&[2, 3, 32, 32]), 0.0, 1.0);
    let cases: [(&str, &Cnn, &Tensor, usize); 2] = [
        ("lenet5", &lenet, &lenet_x, 512),
        ("vgg11", &vgg, &vgg_x, 256),
    ];
    let initial = force_variant(*detected().first().expect("non-empty")).expect("detected");
    for &variant in detected() {
        force_variant(variant).expect("detected variant");
        for (name, model, x, k) in cases {
            let cfg = EngineConfig {
                plan: HashPlan::Uniform(k),
                parallelism: Parallelism::Serial,
                ..EngineConfig::default()
            };
            let label = format!("{name} simd {}", variant.name());
            assert_paths_identical(model, x, cfg, &label);
        }
    }
    let _ = force_variant(initial);
}

/// A batch size at which the largest dot layer of `engine` splits its
/// patch rows `workers` ways: the image fan-out's size for `workers`
/// tasks, scaled by the whole pass's multiply-adds over that layer's
/// (`rows·n·k`, both per image, from a one-image recording).
fn row_split_images(engine: &DeepCamEngine, image: &[usize], workers: usize) -> usize {
    let one = Tensor::zeros(Shape::new(&[1, image[0], image[1], image[2]]));
    let (_, rec) = engine
        .infer_recorded(&one, Datapath::Fast)
        .expect("recorded succeeds");
    let tiles = engine.compiled().tiles();
    let layer_macs: Vec<usize> = rec
        .dots
        .iter()
        .map(|d| d.rows * tiles[d.layer].n * tiles[d.layer].k)
        .collect();
    let (total, largest) = (layer_macs.iter().sum::<usize>(), layer_macs.iter().max());
    (common::fan_out_images(engine, image, workers) * total).div_ceil(*largest.expect("dot layers"))
}

#[test]
fn sharded_fast_path_matches_serial_reference() {
    // Both axes at once: the reference (serial) pins the values, the
    // fast path must hit them at every worker count. Each batch is just
    // big enough for the largest worker count to split both the image
    // fan-out and the largest layer's rows that many ways. The row
    // ranges and 64-row sub-blocks cut the output planes in different
    // places per model: LeNet5's first layer (P = 784) splits mid-image,
    // and VGG11's 4×4 layer (P = 16) puts an image and part of the next
    // into one sub-block.
    let compile = |model: &Cnn, parallelism: Parallelism, passed: bool| {
        let cfg = EngineConfig {
            plan: HashPlan::Uniform(256),
            parallelism,
            ..EngineConfig::default()
        };
        let mut compiled = CompiledModel::compile(model, cfg).expect("model compiles");
        if passed {
            passes::apply(&mut compiled, &passes::default_passes()).expect("passes apply");
        }
        DeepCamEngine::from_compiled(compiled).expect("engine builds")
    };
    let lenet = scaled_lenet5(&mut seeded_rng(310), 10);
    let vgg = scaled_vgg11(&mut seeded_rng(314), 4, 10);
    let cases = [
        ("lenet5", &lenet, 311, [1, 28, 28], false, &[1, 2, 5][..]),
        (
            "vgg11 (default passes)",
            &vgg,
            315,
            [3, 32, 32],
            true,
            &[2, 3],
        ),
    ];
    for (label, model, data_seed, image, passed, workers) in cases {
        let most = *workers.iter().max().expect("a worker count");
        let n = row_split_images(
            &compile(model, Parallelism::Fixed(most), passed),
            &image,
            most,
        );
        let shape = Shape::new(&[n, image[0], image[1], image[2]]);
        let x = &init::normal(&mut seeded_rng(data_seed), shape, 0.0, 1.0);
        let reference = compile(model, Parallelism::Serial, passed)
            .infer_reference(x)
            .expect("reference succeeds");
        for &workers in workers {
            let engine = compile(model, Parallelism::Fixed(workers), passed);
            assert_eq!(engine.image_tasks(x, engine.config().parallelism), workers);
            let fast = engine.infer(x).expect("fast succeeds");
            assert_eq!(fast.data(), reference.data(), "{label}, workers {workers}");
            // `infer` fans whole images out to the workers; the recorded
            // pass (like BN calibration) splits each layer's rows over
            // the whole batch, which is where the cuts above fall.
            let (recorded, rec) = engine
                .infer_recorded(x, Datapath::Fast)
                .expect("recorded succeeds");
            let split = rec.dots.iter().map(|d| d.tasks).max();
            assert_eq!(split, Some(workers), "{label}, workers {workers}");
            assert_eq!(
                recorded.data(),
                reference.data(),
                "{label}, workers {workers}"
            );
        }
    }
}

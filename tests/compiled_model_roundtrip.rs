//! Artifact round-trip suite for the compilation pipeline: a
//! `CompiledModel` that is serialized and reloaded must serve inference
//! **bit-identically** to the in-memory compile, across zoo model
//! families, hash plans (uniform and variable) and engine modes. This
//! is the contract that makes "compile once, save,
//! serve anywhere" safe.

use std::path::PathBuf;

use deepcam::accel::{CompiledModel, CoreError, DeepCamEngine, EngineConfig, HashPlan};
use deepcam::hash::geometric::{CosineMode, NormMode};
use deepcam::models::scaled::{scaled_lenet5, scaled_resnet18, scaled_vgg11};
use deepcam::models::Cnn;
use deepcam::tensor::rng::seeded_rng;
use deepcam::tensor::{init, Shape, Tensor};
use proptest::prelude::*;

fn tmp_path(name: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR"));
    std::fs::create_dir_all(&dir).expect("tmpdir exists");
    dir.join(name)
}

fn batch_for(model: &Cnn, n: usize, seed: u64) -> Tensor {
    let (c, h, w) = model.input.expect("scaled models declare their input");
    let mut rng = seeded_rng(seed);
    init::normal(&mut rng, Shape::new(&[n, c, h, w]), 0.0, 1.0)
}

/// compile → infer must equal compile → bytes → decode → infer, and
/// compile → save → load → infer, bit for bit.
fn assert_roundtrip_bit_exact(model: &Cnn, cfg: EngineConfig, file: &str) {
    let engine = DeepCamEngine::compile(model, cfg).expect("compiles");
    let x = batch_for(model, 3, 99);
    let direct = engine.infer(&x).expect("in-memory inference");

    // Byte-level round trip.
    let bytes = engine.compiled().to_bytes();
    let decoded = CompiledModel::from_bytes(&bytes).expect("decodes");
    assert_eq!(engine.compiled(), &decoded, "artifact not value-identical");
    let served = DeepCamEngine::from_compiled(decoded).expect("builds runtime");
    assert_eq!(direct.data(), served.infer(&x).unwrap().data());

    // File-level round trip (the save/load API).
    let path = tmp_path(file);
    engine.compiled().save(&path).expect("saves");
    let loaded = DeepCamEngine::load(&path).expect("loads");
    assert_eq!(direct.data(), loaded.infer(&x).unwrap().data());
    assert_eq!(engine.model_name(), loaded.model_name());
    assert_eq!(engine.dot_layers(), loaded.dot_layers());
    std::fs::remove_file(&path).ok();
}

#[test]
fn lenet_roundtrips_across_plans() {
    let mut rng = seeded_rng(1);
    let model = scaled_lenet5(&mut rng, 10);
    for (i, plan) in [
        HashPlan::Uniform(256),
        HashPlan::uniform_max(),
        HashPlan::PerLayer(vec![256, 512, 768, 1024, 256]),
    ]
    .into_iter()
    .enumerate()
    {
        assert_roundtrip_bit_exact(
            &model,
            EngineConfig {
                plan,
                ..EngineConfig::default()
            },
            &format!("lenet_{i}.dcam"),
        );
    }
}

#[test]
fn vgg_roundtrips_with_noise_and_modes() {
    let mut rng = seeded_rng(2);
    let model = scaled_vgg11(&mut rng, 4, 10);
    assert_roundtrip_bit_exact(
        &model,
        EngineConfig {
            plan: HashPlan::PerLayer(vec![256, 256, 512, 512, 768, 768, 1024, 256, 512]),
            cosine: CosineMode::Exact,
            norm: NormMode::Fp32,
            ..EngineConfig::default()
        },
        "vgg11.dcam",
    );
}

#[test]
fn resnet_roundtrips_with_residual_steps() {
    let mut rng = seeded_rng(3);
    let model = scaled_resnet18(&mut rng, 4, 10);
    assert_roundtrip_bit_exact(
        &model,
        EngineConfig {
            plan: HashPlan::Uniform(256),
            ..EngineConfig::default()
        },
        "resnet18.dcam",
    );
}

#[test]
fn reference_datapath_survives_the_roundtrip_too() {
    // The frozen differential oracle reads the *derived* contexts, so a
    // reloaded artifact must reproduce it bitwise as well.
    let mut rng = seeded_rng(4);
    let model = scaled_lenet5(&mut rng, 10);
    let cfg = EngineConfig {
        plan: HashPlan::Uniform(512),
        ..EngineConfig::default()
    };
    let engine = DeepCamEngine::compile(&model, cfg).expect("compiles");
    let reloaded = DeepCamEngine::from_compiled(
        CompiledModel::from_bytes(&engine.compiled().to_bytes()).expect("decodes"),
    )
    .expect("builds runtime");
    let x = batch_for(&model, 2, 7);
    assert_eq!(
        engine.infer_reference(&x).unwrap().data(),
        reloaded.infer_reference(&x).unwrap().data()
    );
}

#[test]
fn load_of_missing_or_garbage_file_is_a_typed_error() {
    let missing = tmp_path("does_not_exist.dcam");
    assert!(matches!(
        CompiledModel::load(&missing),
        Err(CoreError::Artifact(_))
    ));
    let garbage = tmp_path("garbage.dcam");
    std::fs::write(&garbage, b"definitely not an artifact").unwrap();
    assert!(matches!(
        CompiledModel::load(&garbage),
        Err(CoreError::Artifact(_))
    ));
    std::fs::remove_file(&garbage).ok();
}

/// The legacy fused fixture and the fresh, unpassed compile it was
/// written from. The fixture was written by the fusion-era v2 writer
/// from `scaled_vgg11(seeded_rng(6), 4, 10)` at `Uniform(256)` with that
/// era's default passes (step fusion, then array mapping) applied: 8 of
/// its 15 top-level steps are fused (tag 8), which the reader expands
/// into the dot, batch-norm and ReLU steps they folded.
fn legacy_fused_fixture() -> (&'static [u8], CompiledModel, Cnn) {
    let bytes: &'static [u8] = include_bytes!("data/vgg11_fused_v2.dcam");
    let model = scaled_vgg11(&mut seeded_rng(6), 4, 10);
    let cfg = EngineConfig {
        plan: HashPlan::Uniform(256),
        ..EngineConfig::default()
    };
    let unpassed = CompiledModel::compile(&model, cfg).expect("compiles");
    (bytes, unpassed, model)
}

#[test]
fn passed_models_roundtrip_with_mapping_and_fused_steps() {
    // The pass pipeline's output — an array mapping — must survive the
    // v2 artifact bit-exactly.
    use deepcam::accel::passes;
    let mut rng = seeded_rng(6);
    let model = scaled_vgg11(&mut rng, 4, 10);
    let cfg = EngineConfig {
        plan: HashPlan::Uniform(256),
        ..EngineConfig::default()
    };
    let mut compiled = CompiledModel::compile(&model, cfg).expect("compiles");
    let outcomes = passes::apply(&mut compiled, &passes::default_passes()).expect("passes");
    assert!(outcomes.iter().all(|o| o.changed));
    assert!(compiled.mapping.is_some());

    let decoded = CompiledModel::from_bytes(&compiled.to_bytes()).expect("decodes");
    assert_eq!(compiled, decoded, "mapping lost in transit");

    let x = batch_for(&model, 3, 17);
    let direct = DeepCamEngine::from_compiled(compiled).expect("runtime");
    let served = DeepCamEngine::from_compiled(decoded).expect("reloaded runtime");
    assert_eq!(
        direct.infer(&x).unwrap().data(),
        served.infer(&x).unwrap().data()
    );

    // A legacy artifact with fused steps decodes to exactly the unpassed
    // compile's steps, keeps its mapping, and re-saves without them.
    let (fixture, mut expected, _) = legacy_fused_fixture();
    assert_eq!(
        &fixture[4..8],
        &2u32.to_le_bytes(),
        "fixture must be version 2"
    );
    let legacy = CompiledModel::from_bytes(fixture).expect("legacy fused artifact loads");
    assert!(legacy.mapping.is_some());
    expected.mapping = legacy.mapping.clone();
    assert_eq!(
        legacy, expected,
        "fused steps must expand to the unpassed steps"
    );
    let resaved = legacy.to_bytes();
    assert_eq!(resaved, expected.to_bytes());
    assert_ne!(resaved, fixture, "fixture must hold fused (tag 8) steps");
    assert_eq!(
        CompiledModel::from_bytes(&resaved).expect("re-saved decodes"),
        legacy
    );
}

#[test]
fn legacy_fused_artifact_serves_and_calibrates_like_unfused() {
    let (fixture, unpassed, model) = legacy_fused_fixture();
    let mut legacy =
        DeepCamEngine::from_compiled(CompiledModel::from_bytes(fixture).expect("loads"))
            .expect("legacy runtime");
    let mut fresh = DeepCamEngine::from_compiled(unpassed).expect("fresh runtime");
    let x = batch_for(&model, 3, 17);
    assert_eq!(
        fresh.infer(&x).unwrap().data(),
        legacy.infer(&x).unwrap().data()
    );
    assert_eq!(
        fresh.infer_reference(&x).unwrap().data(),
        legacy.infer_reference(&x).unwrap().data()
    );

    // Calibration lands on the same statistics: the two artifacts then
    // differ only in the fixture's mapping metadata.
    let calib = batch_for(&model, 4, 29);
    fresh.calibrate_bn(&calib).expect("fresh calibrates");
    legacy.calibrate_bn(&calib).expect("legacy calibrates");
    let mut expected = fresh.compiled().clone();
    expected.mapping = legacy.compiled().mapping.clone();
    assert_eq!(legacy.compiled(), &expected);
    assert_eq!(
        fresh.infer(&x).unwrap().data(),
        legacy.infer(&x).unwrap().data()
    );
}

#[test]
fn v1_artifacts_still_load() {
    // Pre-mapping artifacts (version 1) must keep loading: the fixture
    // was written by the historical v1 writer from this exact model and
    // config, and the version-aware reader fills the new fields with
    // their pre-change defaults.
    let v1 = include_bytes!("data/lenet5_v1.dcam");
    assert_eq!(&v1[4..8], &1u32.to_le_bytes(), "fixture must be version 1");
    let loaded = CompiledModel::from_bytes(v1).expect("v1 loads");
    assert_eq!(loaded.mapping, None);
    let mut rng = seeded_rng(7);
    let model = scaled_lenet5(&mut rng, 10);
    let cfg = EngineConfig {
        plan: HashPlan::Uniform(512),
        ..EngineConfig::default()
    };
    let compiled = CompiledModel::compile(&model, cfg).expect("compiles");
    assert_eq!(compiled, loaded);
    let x = batch_for(&model, 2, 23);
    assert_eq!(
        DeepCamEngine::from_compiled(compiled)
            .unwrap()
            .infer(&x)
            .unwrap()
            .data(),
        DeepCamEngine::from_compiled(loaded)
            .unwrap()
            .infer(&x)
            .unwrap()
            .data()
    );
}

fn plan_strategy(layers: usize) -> impl Strategy<Value = Vec<usize>> {
    proptest::collection::vec(
        prop_oneof![Just(256usize), Just(512), Just(768), Just(1024)],
        layers,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn random_plans_and_modes_roundtrip_bit_exactly(
        ks in plan_strategy(5),
        exact_cos in any::<bool>(),
        fp32_norms in any::<bool>(),
        seed in 0u64..1000,
    ) {
        let mut rng = seeded_rng(5);
        let model = scaled_lenet5(&mut rng, 10);
        let cfg = EngineConfig {
            plan: HashPlan::PerLayer(ks),
            cosine: if exact_cos { CosineMode::Exact } else { CosineMode::PiecewiseEq5 },
            norm: if fp32_norms { NormMode::Fp32 } else { NormMode::Minifloat8 },
            seed,
            ..EngineConfig::default()
        };
        let engine = DeepCamEngine::compile(&model, cfg).expect("compiles");
        let x = batch_for(&model, 2, seed ^ 0xABCD);
        let direct = engine.infer(&x).expect("in-memory inference");
        let decoded = CompiledModel::from_bytes(&engine.compiled().to_bytes())
            .expect("decodes");
        prop_assert_eq!(engine.compiled(), &decoded);
        let served = DeepCamEngine::from_compiled(decoded).expect("builds runtime");
        let reloaded = served.infer(&x).unwrap();
        prop_assert_eq!(direct.data(), reloaded.data());
    }
}

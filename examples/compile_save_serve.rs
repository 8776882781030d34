//! The artifact lifecycle in one pass: compile a model through the
//! staged pipeline (`Cnn → LayerIr → PlanBinding → CompiledModel`),
//! save the artifact to disk, reload it in a fresh engine, and verify
//! the reloaded engine serves **bit-identical** logits — the workflow a
//! production deployment uses so models are compiled once and served
//! everywhere.
//!
//! Run: `cargo run --release --example compile_save_serve`
//! (CI runs this as its end-to-end artifact smoke test.)

use deepcam::accel::{CompiledModel, DeepCamEngine, EngineConfig, HashPlan, LayerIr};
use deepcam::models::scaled::scaled_lenet5;
use deepcam::tensor::rng::seeded_rng;
use deepcam::tensor::{init, Shape};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut rng = seeded_rng(42);
    let model = scaled_lenet5(&mut rng, 10);

    // Stage 1+2: lower and bind a variable plan (shape-driven here; see
    // the `compiler` bench binary for the accuracy-driven search).
    let ir = LayerIr::from_cnn(&model)?;
    let plan = HashPlan::variable_for_dims(&ir.patch_lens());
    let binding = plan.bind(&ir)?;
    println!("lowered {}: {} dot layers", ir.model_name, ir.len());
    for (dot, &k) in ir.dots.iter().zip(binding.ks()) {
        println!(
            "  [{}] {:<6} {}x{} -> k={k}",
            dot.index, dot.shape.name, dot.shape.m, dot.shape.n
        );
    }

    // Stage 3: compile to the serializable artifact and build a runtime.
    let cfg = EngineConfig {
        plan,
        ..EngineConfig::default()
    };
    let compiled = CompiledModel::compile(&model, cfg)?;
    let engine = DeepCamEngine::from_compiled(compiled)?;

    // Save — the versioned binary artifact.
    let dir = std::env::temp_dir().join("deepcam-artifacts");
    std::fs::create_dir_all(&dir)?;
    let path = dir.join("lenet5.dcam");
    engine.compiled().save(&path)?;
    let bytes = std::fs::metadata(&path)?.len();
    println!(
        "saved artifact v{} to {} ({bytes} bytes)",
        deepcam::accel::ir::ARTIFACT_VERSION,
        path.display()
    );

    // Reload in a "fresh process" and serve.
    let served = DeepCamEngine::load(&path)?;
    let batch = init::normal(&mut seeded_rng(7), Shape::new(&[4, 1, 28, 28]), 0.0, 1.0);
    let direct = engine.infer(&batch)?;
    let reloaded = served.infer(&batch)?;
    assert_eq!(
        direct.data(),
        reloaded.data(),
        "reloaded artifact must serve bit-identical logits"
    );
    println!(
        "served {} images through the reloaded artifact: logits bit-identical to the \
         in-memory compile",
        batch.shape().dim(0)
    );
    std::fs::remove_file(&path).ok();
    Ok(())
}

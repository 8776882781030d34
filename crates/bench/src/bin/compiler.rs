//! The compiler pass-pipeline benchmark: the variable-hash-length tuner
//! against `uniform_max` (all-1024) and joint mapping+width search vs the
//! fixed 64-row chip, recorded in `BENCH_compiler.json`.
//!
//! Usage: `cargo run --release -p deepcam-bench --bin compiler
//! [--out PATH] [--repeats R] [--force] [--smoke] [--train-per-class N]
//! [--test-per-class N] [--epochs N]` (an unknown flag or a value that is
//! not a count of at least 1 exits 2 with this usage line).
//!
//! For each workload a scaled model is trained on its synthetic set,
//! then [`deepcam_core::tune::tune_joint`] co-optimizes per-layer hash
//! lengths (accuracy-constrained, on a tuning split) and the CAM array
//! mapping (rows × dataflow per layer on a multi-array chip, scored by
//! the `deepcam-cam` cost model). Three configurations are costed on the
//! trained model's own `LayerIr`:
//!
//! * `uniform_max` widths on the fixed 64-row AS chip (the historical
//!   baseline),
//! * tuned widths on the fixed chip (width-only tuning), and
//! * tuned widths under the searched mapping (the joint optimum).
//!
//! The search narrows a layer only when the tuning split shows no
//! accuracy loss at all; the recorded accuracies come from the
//! **held-out** split the search never saw, and full runs assert the
//! held-out drop stays within a 1% budget. Every run asserts the tuned
//! plan beats `uniform_max` on modeled CAM search energy.
//!
//! Separately, the full-set evaluation time of the tuned engine (default
//! passes applied) is recorded next to a `uniform_max` engine, each as
//! the median, min and max of `--repeats` runs.
//! **The passed model is gated bit-identical first**: it must produce
//! bitwise-equal logits to the no-pass pipeline on the entire test set
//! before any timing is taken, and the run asserts the joint search
//! strictly beats width-only tuning on modeled CAM search energy before
//! writing anything.
//!
//! `--smoke` shrinks everything (tiny data, one epoch, temp output) so
//! CI exercises the full search path on every push; the held-out drop is
//! reported but not asserted there (a few dozen held-out images cannot
//! resolve 1%).

use std::time::Instant;

use deepcam_bench::guard::{self, BenchArgs, Spread};
use deepcam_core::passes;
use deepcam_core::sched::CamScheduler;
use deepcam_core::tune::{
    holdout_within, tune_joint, JointTuneReport, JointTunerConfig, TunerConfig,
};
use deepcam_core::{
    CompiledModel, Dataflow, DeepCamEngine, EngineConfig, HashPlan, LayerIr, PerfReport,
};
use deepcam_data::synth::{generate, SynthConfig};
use deepcam_models::scaled::{scaled_lenet5, scaled_vgg11};
use deepcam_models::train::{train, TrainConfig};
use deepcam_models::Cnn;
use deepcam_tensor::rng::seeded_rng;
use deepcam_tensor::{Parallelism, Shape, Tensor};

/// Held-out accuracy budget (absolute top-1) a full run enforces.
const MAX_DROP: f32 = 0.01;

struct WorkloadResult {
    workload: String,
    dot_layers: usize,
    plan: Vec<usize>,
    mean_hash_len: f64,
    evaluations: usize,
    acc_max: f32,
    acc_tuned: f32,
    holdout_within_budget: bool,
    arrays: usize,
    mapping_rows: Vec<usize>,
    mapping_dataflows: Vec<&'static str>,
    cam_search_max_fixed: f64,
    cam_search_tuned_fixed: f64,
    cam_search_tuned_mapped: f64,
    cycles_max_fixed: u64,
    cycles_tuned_fixed: u64,
    cycles_tuned_mapped: u64,
    total_energy_max_fixed: f64,
    total_energy_tuned_fixed: f64,
    total_energy_tuned_mapped: f64,
    wall_ms_max: Spread,
    wall_ms_tuned: Spread,
}

/// Full-set logits in evaluation-sized chunks (bounds im2col memory the
/// same way `evaluate` does).
fn logits_chunked(engine: &DeepCamEngine, images: &Tensor, batch: usize) -> Vec<f32> {
    let n = images.shape().dim(0);
    let sample: usize = images.shape().dims()[1..].iter().product();
    let mut out = Vec::new();
    let mut start = 0usize;
    while start < n {
        let end = (start + batch).min(n);
        let mut dims = vec![end - start];
        dims.extend_from_slice(&images.shape().dims()[1..]);
        let chunk = Tensor::from_vec(
            images.data()[start * sample..end * sample].to_vec(),
            Shape::new(&dims),
        )
        .expect("chunk volume consistent");
        out.extend_from_slice(engine.infer(&chunk).expect("inference succeeds").data());
        start = end;
    }
    out
}

#[allow(clippy::too_many_arguments)]
fn run_workload(
    name: &str,
    mut model: Cnn,
    data_cfg: &SynthConfig,
    use_calibration: bool,
    repeats: usize,
    epochs: usize,
) -> WorkloadResult {
    println!("-- {name} --");
    let (train_set, test_set) = generate(data_cfg);
    let tc = TrainConfig {
        epochs,
        batch_size: 32,
        lr: 0.03,
        momentum: 0.9,
        weight_decay: 1e-4,
        seed: 7,
    };
    train(&mut model, train_set.images(), train_set.labels(), &tc).expect("training succeeds");
    let (calib_x, _) = train_set.batch(&(0..32.min(train_set.len())).collect::<Vec<_>>());
    let calibration = use_calibration.then_some(&calib_x);

    // Single-thread engines keep the wall-clock numbers comparable and
    // the whole run deterministic.
    let base = EngineConfig {
        parallelism: Parallelism::Serial,
        ..EngineConfig::default()
    };
    // Zero-drop acceptance: the tuning split accepts a width only with
    // no measurable loss, which absorbs the ~±1% sampling error between
    // it and the held-out split the budget is checked on.
    let joint: JointTuneReport = tune_joint(
        &model,
        test_set.images(),
        test_set.labels(),
        &base,
        calibration,
        &JointTunerConfig {
            tuner: TunerConfig {
                max_drop: 0.0,
                batch_size: 16,
                ..TunerConfig::default()
            },
            ..JointTunerConfig::default()
        },
    )
    .expect("joint tuning succeeds");
    let plan = joint.tune.binding.ks().to_vec();
    println!(
        "tuned plan {plan:?} (mean k {:.0}) in {} evaluations",
        joint.tune.mean_hash_len, joint.tune.evaluations
    );
    println!(
        "holdout accuracy: uniform_max {:.3}, tuned {:.3}",
        joint.tune.holdout_reference, joint.tune.holdout_tuned
    );
    let holdout_within_budget = holdout_within(
        MAX_DROP,
        joint.tune.holdout_reference,
        joint.tune.holdout_tuned,
    );
    let rows: Vec<usize> = joint.mapping.per_layer.iter().map(|lm| lm.rows).collect();
    let dataflows: Vec<&'static str> = joint
        .mapping
        .per_layer
        .iter()
        .map(|lm| lm.dataflow.label())
        .collect();
    println!(
        "searched mapping: arrays={}, rows {rows:?}, dataflows {dataflows:?}",
        joint.mapping.arrays
    );

    // The uniform_max baseline on the fixed chip — the one extra costed
    // configuration the joint report doesn't already carry.
    let ir = LayerIr::from_cnn(&model).expect("scaled models declare their input");
    let sched = CamScheduler::new(64, Dataflow::ActivationStationary).expect("64 rows supported");
    let max_plan = HashPlan::uniform_max();
    let perf_max: PerfReport = sched
        .run_ir(
            &ir,
            &max_plan.bind(&ir).expect("plan fits"),
            max_plan.label(),
        )
        .expect("sched runs");
    println!(
        "modeled CAM search energy: uniform_max/fixed64 {:.3e} J, tuned/fixed64 {:.3e} J, \
         tuned/mapped {:.3e} J ({:.1}% below width-only tuning)",
        perf_max.energy.cam_search,
        joint.fixed.energy.cam_search,
        joint.mapped.energy.cam_search,
        100.0 * (1.0 - joint.mapped.energy.cam_search / joint.fixed.energy.cam_search)
    );

    // The headline claims this benchmark exists to check: tuned widths
    // save CAM search energy over uniform_max, and co-optimizing mapping
    // and widths strictly dominates width-only tuning.
    assert!(
        joint.fixed.energy.cam_search < perf_max.energy.cam_search,
        "{name}: tuned plan does not save CAM search energy"
    );
    assert!(
        joint.mapped.energy.cam_search < joint.fixed.energy.cam_search,
        "{name}: joint search does not beat the fixed 64-row mapping"
    );

    // Build the no-pass and default-passes step programs from the
    // *same* compiled artifact, calibrate identically, then gate
    // bit-exactness on the full test set BEFORE timing anything.
    let tuned_cfg = EngineConfig {
        plan: joint.tune.plan.clone(),
        ..base.clone()
    };
    let compiled = CompiledModel::compile(&model, tuned_cfg).expect("compiles");
    let mut passed = compiled.clone();
    passes::apply(&mut passed, &passes::default_passes()).expect("passes apply");
    let mut engines = [
        DeepCamEngine::from_compiled(compiled).expect("no-pass runtime"),
        DeepCamEngine::from_compiled(passed).expect("passed runtime"),
    ];
    if let Some(calib) = calibration {
        for engine in &mut engines {
            engine.calibrate_bn(calib).expect("calibration succeeds");
        }
    }
    assert_eq!(
        logits_chunked(&engines[0], test_set.images(), 16),
        logits_chunked(&engines[1], test_set.images(), 16),
        "{name}: passed logits differ from the no-pass pipeline"
    );
    println!("bit-exactness gate passed: passed logits identical on the full test set");

    let time_eval = |engine: &DeepCamEngine| -> Spread {
        let warm = engine
            .evaluate(test_set.images(), test_set.labels(), 16)
            .expect("evaluation succeeds");
        std::hint::black_box(warm);
        let runs: Vec<f64> = (0..repeats)
            .map(|_| {
                let start = Instant::now();
                let acc = engine
                    .evaluate(test_set.images(), test_set.labels(), 16)
                    .expect("evaluation succeeds");
                std::hint::black_box(acc);
                start.elapsed().as_secs_f64() * 1e3
            })
            .collect();
        Spread::of(runs)
    };
    let wall_tuned = time_eval(&engines[1]);
    // The width baseline: a uniform_max engine, calibrated and timed
    // like the tuned one.
    let max_cfg = EngineConfig {
        plan: max_plan,
        ..base.clone()
    };
    let mut max_engine = DeepCamEngine::compile(&model, max_cfg).expect("compiles");
    if let Some(calib) = calibration {
        max_engine
            .calibrate_bn(calib)
            .expect("calibration succeeds");
    }
    let wall_max = time_eval(&max_engine);
    println!(
        "full-set eval (median): uniform_max {:.1} ms, tuned {:.1} ms",
        wall_max.median, wall_tuned.median
    );

    WorkloadResult {
        workload: name.to_string(),
        dot_layers: ir.len(),
        plan,
        mean_hash_len: joint.tune.mean_hash_len,
        evaluations: joint.tune.evaluations,
        acc_max: joint.tune.holdout_reference,
        acc_tuned: joint.tune.holdout_tuned,
        holdout_within_budget,
        arrays: joint.mapping.arrays,
        mapping_rows: rows,
        mapping_dataflows: dataflows,
        cam_search_max_fixed: perf_max.energy.cam_search,
        cam_search_tuned_fixed: joint.fixed.energy.cam_search,
        cam_search_tuned_mapped: joint.mapped.energy.cam_search,
        cycles_max_fixed: perf_max.total_cycles,
        cycles_tuned_fixed: joint.fixed.total_cycles,
        cycles_tuned_mapped: joint.mapped.total_cycles,
        total_energy_max_fixed: perf_max.total_energy_j,
        total_energy_tuned_fixed: joint.fixed.total_energy_j,
        total_energy_tuned_mapped: joint.mapped.total_energy_j,
        wall_ms_max: wall_max,
        wall_ms_tuned: wall_tuned,
    }
}

fn main() {
    let args = BenchArgs::from_env(
        "compiler [--out PATH] [--repeats R] [--force] [--smoke] [--train-per-class N] \
         [--test-per-class N] [--epochs N]",
        &["--train-per-class", "--test-per-class", "--epochs"],
        &["--smoke"],
    );
    let smoke = args.switch("--smoke");
    let out_path = args.out.clone().unwrap_or_else(|| {
        if smoke {
            // Smoke runs exercise the search path, not the record.
            std::env::temp_dir()
                .join("BENCH_compiler_smoke.json")
                .to_string_lossy()
                .into_owned()
        } else {
            "BENCH_compiler.json".to_string()
        }
    });
    let repeats = args.repeats.unwrap_or(if smoke { 1 } else { 5 });
    let force = args.force;
    let (train_pc, test_pc, epochs) = if smoke {
        (8, 8, 1)
    } else {
        (
            args.number("--train-per-class").unwrap_or(64),
            args.number("--test-per-class").unwrap_or(100),
            args.number("--epochs").unwrap_or(3),
        )
    };

    let host_cores = guard::host_cores();
    if !smoke && !guard::check_overwrite(&out_path, host_cores, force).proceed() {
        return; // verdict printed; keeping the bigger-host JSON is success
    }
    println!("== Compiler pass pipeline: joint mapping+width search vs fixed 64-row chip ==");
    println!(
        "host cores: {host_cores}, repeats: {repeats}, train/test per class: \
         {train_pc}/{test_pc}, epochs: {epochs}, smoke: {smoke}"
    );

    let mut results = Vec::new();
    {
        let mut rng = seeded_rng(100);
        let data = SynthConfig::digits().with_samples(train_pc, test_pc);
        results.push(run_workload(
            "LeNet5 / SynthDigits",
            scaled_lenet5(&mut rng, 10),
            &data,
            false, // no batch norm in LeNet5
            repeats,
            epochs,
        ));
    }
    {
        let mut rng = seeded_rng(101);
        let data = SynthConfig::objects10().with_samples(train_pc, test_pc);
        results.push(run_workload(
            "VGG11 / SynthObjects10",
            scaled_vgg11(&mut rng, 8, 10),
            &data,
            true, // BN-calibrate every engine identically
            repeats,
            epochs,
        ));
    }

    // Full-run acceptance gate: every held-out drop must stay within
    // the budget. Smoke holdout splits cannot resolve 1%, so it is not
    // asserted there.
    for r in results.iter().filter(|r| !r.holdout_within_budget) {
        println!(
            "WARNING: {}: held-out accuracy drop {:.4} exceeds the {MAX_DROP} budget",
            r.workload,
            r.acc_max - r.acc_tuned
        );
    }
    if smoke {
        println!("smoke mode: held-out budget not asserted");
    } else {
        assert!(
            results.iter().all(|r| r.holdout_within_budget),
            "held-out accuracy drop exceeds {MAX_DROP}"
        );
    }

    // Hand-rolled JSON (schema documented in ROADMAP.md); the vendored
    // serde's binary codec serves artifacts, not reports.
    let mut json = String::new();
    json.push_str("{\n");
    json.push_str(
        "  \"experiment\": \"compiler pass pipeline: auto-tuned variable hash lengths vs \
         uniform_max on held-out accuracy, joint array-mapping + hash-width search vs the \
         fixed 64-row AS chip on modeled CAM search energy/cycles, and full-set evaluation \
         wall-clock of the tuned and uniform_max engines (passed logits gated bit-identical \
         to the no-pass pipeline first)\",\n",
    );
    json.push_str(&format!("  \"host_cores\": {host_cores},\n"));
    json.push_str(&format!("  \"repeats\": {repeats},\n"));
    json.push_str(&format!("  \"smoke\": {smoke},\n"));
    json.push_str(&format!("  \"max_drop\": {MAX_DROP},\n"));
    json.push_str("  \"workloads\": [\n");
    for (i, r) in results.iter().enumerate() {
        let comma = if i + 1 == results.len() { "" } else { "," };
        let plan: Vec<String> = r.plan.iter().map(|k| k.to_string()).collect();
        let rows: Vec<String> = r.mapping_rows.iter().map(|v| v.to_string()).collect();
        let dfs: Vec<String> = r
            .mapping_dataflows
            .iter()
            .map(|d| format!("\"{d}\""))
            .collect();
        json.push_str(&format!(
            "    {{\"workload\": \"{}\", \"dot_layers\": {}, \"plan\": [{}], \
             \"mean_hash_len\": {:.1}, \"evaluations\": {}, \
             \"accuracy\": {{\"uniform_max\": {:.4}, \"tuned\": {:.4}, \"drop\": {:.4}, \
             \"holdout_within_budget\": {}}}, \
             \"mapping\": {{\"arrays\": {}, \"rows\": [{}], \"dataflows\": [{}]}}, \
             \"cam_search_energy_j\": {{\"uniform_max_fixed64\": {:.6e}, \
             \"tuned_fixed64\": {:.6e}, \"tuned_mapped\": {:.6e}, \
             \"joint_vs_width_only_saving_pct\": {:.1}}}, \
             \"total_cycles\": {{\"uniform_max_fixed64\": {}, \"tuned_fixed64\": {}, \
             \"tuned_mapped\": {}}}, \
             \"total_energy_j\": {{\"uniform_max_fixed64\": {:.6e}, \
             \"tuned_fixed64\": {:.6e}, \"tuned_mapped\": {:.6e}}}, \
             \"eval_wall_ms\": {{\"uniform_max\": {}, \"tuned\": {}}}, \
             \"bit_identical\": true}}{comma}\n",
            r.workload,
            r.dot_layers,
            plan.join(", "),
            r.mean_hash_len,
            r.evaluations,
            r.acc_max,
            r.acc_tuned,
            r.acc_max - r.acc_tuned,
            r.holdout_within_budget,
            r.arrays,
            rows.join(", "),
            dfs.join(", "),
            r.cam_search_max_fixed,
            r.cam_search_tuned_fixed,
            r.cam_search_tuned_mapped,
            100.0 * (1.0 - r.cam_search_tuned_mapped / r.cam_search_tuned_fixed),
            r.cycles_max_fixed,
            r.cycles_tuned_fixed,
            r.cycles_tuned_mapped,
            r.total_energy_max_fixed,
            r.total_energy_tuned_fixed,
            r.total_energy_tuned_mapped,
            r.wall_ms_max.json(),
            r.wall_ms_tuned.json(),
        ));
    }
    json.push_str("  ]\n}\n");
    std::fs::write(&out_path, &json).expect("write BENCH_compiler.json");
    println!("wrote {out_path}");
}

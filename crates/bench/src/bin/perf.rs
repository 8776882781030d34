//! The engine's performance record, in `BENCH_perf.json`: the frozen
//! reference datapath against the fast path, the fast path on every
//! detected SIMD variant, batched inference at 1, 2 and 4 workers, and
//! per-dot-layer phases from the engine's own recorder
//! ([`DeepCamEngine::infer_recorded`]).
//!
//! Usage: `cargo run --release -p deepcam-bench --bin perf
//! [--out PATH] [--images N] [--repeats R] [--force]` (an unknown flag or
//! a value that is not a count of at least 1 exits 2 with this usage
//! line).
//!
//! The workload is scaled VGG11 (width 8) at k = 256 on `--images`
//! random-normal images, one batch. Before any timing the run asserts
//! that every timed configuration gives the serial fast path's logits
//! bit for bit. Each timing is the median, min and max of `--repeats`
//! runs, and a `speedup` is written only when the two min–max intervals
//! do not overlap. The binary refuses to overwrite a committed JSON
//! measured on a bigger host unless `--force`.

use std::time::{Duration, Instant};

use deepcam_bench::guard::{self, BenchArgs, Spread};
use deepcam_core::simd::{self, Variant};
use deepcam_core::{Datapath, DeepCamEngine, EngineConfig, HashPlan, Recording};
use deepcam_models::scaled::scaled_vgg11;
use deepcam_tensor::rng::seeded_rng;
use deepcam_tensor::{init, Parallelism, Shape, Tensor};

const K: usize = 256;

/// One timed configuration of the workload.
#[derive(Debug, Clone, Copy)]
enum Config {
    /// `infer_reference`.
    Reference,
    /// `infer_recorded` on the fast datapath.
    Recorded,
    /// `infer` with one variant pinned.
    Fast(Variant),
    /// `infer_batch_with` at a parallelism.
    Batched(Parallelism),
}

impl Config {
    /// Runs the configuration; every one but `Fast` runs on `default`.
    fn run(self, engine: &DeepCamEngine, batch: &Tensor, default: Variant) -> Tensor {
        let pin = if let Config::Fast(v) = self {
            v
        } else {
            default
        };
        simd::force_variant(pin).expect("detected variant");
        match self {
            Config::Reference => engine.infer_reference(batch),
            Config::Recorded => engine.infer_recorded(batch, Datapath::Fast).map(|r| r.0),
            Config::Fast(_) => engine.infer(batch),
            Config::Batched(par) => engine.infer_batch_with(batch, par),
        }
        .expect("inference succeeds")
    }
}

/// `, "<key>": x` when the two spreads tell the runs apart, else nothing.
fn speedup_field(key: &str, before: &Spread, after: &Spread) -> String {
    before
        .speedup_to(after)
        .map_or(String::new(), |s| format!(", \"{key}\": {s:.3}"))
}

/// The CPU features the dispatched kernels can use.
fn cpu_features() -> Vec<&'static str> {
    #[cfg(target_arch = "x86_64")]
    let features = [
        ("fma", is_x86_feature_detected!("fma")),
        ("avx512f", is_x86_feature_detected!("avx512f")),
    ];
    #[cfg(not(target_arch = "x86_64"))]
    let features: [(&str, bool); 0] = [];
    features.iter().filter(|f| f.1).map(|f| f.0).collect()
}

/// The checked-out commit (`-dirty` with uncommitted changes), or
/// `unknown` outside a git checkout.
fn git_rev() -> String {
    std::process::Command::new("git")
        .args(["describe", "--always", "--dirty"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".to_string(), |s| s.trim().to_string())
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn main() {
    let args = BenchArgs::from_env(
        "perf [--out PATH] [--images N] [--repeats R] [--force]",
        &["--images"],
        &[],
    );
    let out_path = args
        .out
        .clone()
        .unwrap_or_else(|| "BENCH_perf.json".to_string());
    let images = args.number("--images").unwrap_or(16);
    let repeats = args.repeats.unwrap_or(7);
    let force = args.force;

    let host_cores = guard::host_cores();
    if !guard::check_overwrite(&out_path, host_cores, force).proceed() {
        return; // verdict printed; keeping the bigger-host JSON is success
    }
    let default = simd::active();
    let (features, rev) = (cpu_features(), git_rev());
    println!("== Engine performance: datapaths, variants, workers, per-layer phases ==");
    println!(
        "host cores: {host_cores}, features: {features:?}, variant: {}, rev: {rev}, \
         images: {images}, repeats: {repeats}",
        default.name()
    );

    let model = scaled_vgg11(&mut seeded_rng(0), 8, 10);
    let cfg = EngineConfig {
        plan: HashPlan::Uniform(K),
        parallelism: Parallelism::Serial,
        ..EngineConfig::default()
    };
    let engine = DeepCamEngine::compile(&model, cfg).expect("engine compiles");
    let shape = Shape::new(&[images, 3, 32, 32]);
    let batch = init::normal(&mut seeded_rng(1), shape, 0.0, 1.0);

    let variants = simd::detected();
    let workers = [1, 2, 4].map(Parallelism::Fixed);
    let mut configs = vec![
        Config::Reference,
        Config::Recorded,
        Config::Batched(Parallelism::Serial),
    ];
    configs.extend(variants.iter().map(|&v| Config::Fast(v)));
    configs.extend(workers.map(Config::Batched));
    // Gates: every timed configuration computes the same logits.
    let want = engine.infer(&batch).expect("inference succeeds");
    for c in &configs {
        let got = c.run(&engine, &batch, default);
        assert_eq!(got.data(), want.data(), "{c:?} differs from the fast path");
    }
    println!("gates passed: logits bit-identical across {configs:?}");
    let times: Vec<Spread> = configs
        .iter()
        .map(|c| {
            let t = Spread::of(
                (0..repeats)
                    .map(|_| {
                        let start = Instant::now();
                        c.run(&engine, &batch, default);
                        start.elapsed().as_secs_f64() * 1e3
                    })
                    .collect(),
            );
            println!("  {c:?}: {:.2} ms (median)", t.median);
            t
        })
        .collect();
    simd::force_variant(default).expect("restore the default variant");
    let (reference_t, recorded_t, serial_t) = (times[0], times[1], times[2]);
    let (variant_t, worker_t) = times[3..].split_at(variants.len());
    let fast_t = variant_t[variants.iter().position(|&v| v == default).expect("active")];

    // Per-layer rows from the recorded pass with the median wall time.
    let recording = |path: Datapath| -> Recording {
        let mut recs: Vec<Recording> = (0..repeats)
            .map(|_| {
                engine
                    .infer_recorded(&batch, path)
                    .expect("inference succeeds")
                    .1
            })
            .collect();
        recs.sort_by_key(Recording::wall);
        recs.swap_remove(recs.len() / 2)
    };
    let (fast_rec, reference_rec) = (recording(Datapath::Fast), recording(Datapath::Reference));
    let dot_wall: Duration = fast_rec.dots.iter().map(|d| d.wall).sum();
    let accounted = ms(fast_rec.accounted()) / ms(fast_rec.wall());
    println!(
        "recorded fast pass {:.2} ms, {:.1}% in phases and non-dot steps",
        ms(fast_rec.wall()),
        accounted * 100.0
    );

    // Hand-rolled JSON: the vendored serde is only the binary artifact
    // codec. Schema documented in ROADMAP.md.
    let quoted: Vec<String> = features.iter().map(|f| format!("\"{f}\"")).collect();
    let variant_rows: Vec<String> = variants
        .iter()
        .zip(variant_t)
        .map(|(v, t)| {
            let speedup = speedup_field("speedup_vs_reference", &reference_t, t);
            format!(
                "    {{\"variant\": \"{}\", \"fast\": {}{speedup}}}",
                v.name(),
                t.json()
            )
        })
        .collect();
    let worker_rows: Vec<String> = workers
        .iter()
        .zip(worker_t)
        .map(|(w, t)| {
            let speedup = speedup_field("speedup_vs_serial", &serial_t, t);
            let w = w.resolve();
            format!("    {{\"workers\": {w}, \"batch\": {}{speedup}}}", t.json())
        })
        .collect();
    let tiles = engine.compiled().tiles();
    let layer_rows: Vec<String> = fast_rec
        .dots
        .iter()
        .zip(&reference_rec.dots)
        .map(|(d, r)| {
            format!(
                "    {{\"layer\": {}, \"rows\": {}, \"kernels\": {}, \"k\": {}, \
                 \"reference_ms\": {:.3}, \"fast_ms\": {:.3}, \"project_ms\": {:.3}, \
                 \"certify_ms\": {:.3}, \"hamming_ms\": {:.3}, \"lut_ms\": {:.3}, \
                 \"sub_blocks\": {}, \"recomputed_lanes\": {}, \"macs\": {}, \
                 \"nonzero_macs\": {}}}",
                d.layer,
                d.rows,
                tiles[d.layer].kernels(),
                tiles[d.layer].k,
                ms(r.wall),
                ms(d.wall),
                ms(d.project),
                ms(d.certify),
                ms(d.hamming),
                ms(d.lut),
                d.sub_blocks,
                d.recomputed_lanes,
                d.macs,
                d.nonzero_macs,
            )
        })
        .collect();
    let json = format!(
        "{{\n  \"header\": {{\"host_cores\": {host_cores}, \"cpu_features\": [{}], \
         \"variant\": \"{}\", \"git_rev\": \"{rev}\", \"repeats\": {repeats}, \
         \"stat\": \"median_ms with min_ms and max_ms over repeats; a speedup only \
         where the min-max intervals do not overlap\"}},\n  \
         \"workload\": {{\"model\": \"scaled VGG11 (width 8)\", \"k\": {K}, \
         \"images\": {images}, \"input\": \"random normal, one batch\"}},\n  \
         \"bit_identical\": true,\n  \
         \"datapaths\": {{\"reference\": {}, \"fast\": {}, \"fast_recorded\": {}{}}},\n  \
         \"kernel_variants\": [\n{}\n  ],\n  \
         \"workers\": {{\"serial\": {}, \"rows\": [\n{}\n  ]}},\n  \
         \"per_layer\": {{\"fast_wall_ms\": {:.3}, \"reference_wall_ms\": {:.3}, \
         \"non_dot_ms\": {:.3}, \"accounted_share\": {accounted:.4}, \"layers\": [\n{}\n  ]}}\n}}\n",
        quoted.join(", "),
        default.name(),
        reference_t.json(),
        fast_t.json(),
        recorded_t.json(),
        speedup_field("speedup", &reference_t, &fast_t),
        variant_rows.join(",\n"),
        serial_t.json(),
        worker_rows.join(",\n"),
        ms(fast_rec.wall()),
        ms(reference_rec.wall()),
        ms(fast_rec.wall().saturating_sub(dot_wall)),
        layer_rows.join(",\n"),
    );
    std::fs::write(&out_path, &json).expect("write the perf JSON");
    println!("wrote {out_path}");
}

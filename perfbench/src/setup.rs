//! Workload definitions and set-up: build the seeded model, compile it,
//! apply the default passes, save and reload the artifact, bind it
//! (engine or registry + session + epoll server) and warm it up. Also
//! the bit-exact oracle and the modeled CAM cost of the served artifact.

use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use deepcam_core::passes::{self, default_passes};
use deepcam_core::sched::CamScheduler;
use deepcam_core::{CompiledModel, Dataflow, DeepCamEngine, EngineConfig, HashPlan, PerfReport};
use deepcam_models::scaled::{scaled_lenet5, scaled_vgg11};
use deepcam_models::Cnn;
use deepcam_serve::{
    CoreSelect, ModelRegistry, MuxClient, Runtime, Server, ServerConfig, SessionConfig,
};
use deepcam_tensor::rng::seeded_rng;
use deepcam_tensor::{init, Parallelism, Shape, Tensor};

use crate::stats::digest;

/// The benchmark's error type: every library error converts into it.
pub type Res<T> = Result<T, Box<dyn std::error::Error + Send + Sync>>;

/// Registry id (and artifact file stem) of the served model.
pub const MODEL_ID: &str = "model";

/// Engine worker count, pinned so `DEEPCAM_WORKERS` cannot change what
/// a workload measures.
pub const WORKERS: usize = 2;

/// Set-ups per run; `setup_s` and the compile timings are medians.
pub const SETUP_REPS: usize = 9;

/// Images per offline mini-batch, and the micro-batcher's `max_batch`.
pub const BATCH: usize = 16;

/// The VGG11 per-layer hash widths of the compiler benchmark's tuned
/// plan (traversal order).
pub const VGG11_VARIABLE_PLAN: [usize; 9] = [1024, 768, 1024, 512, 1024, 1024, 1024, 1024, 512];

/// Which network a workload serves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Net {
    /// Scaled LeNet5, 1×28×28 inputs.
    Lenet5,
    /// Scaled VGG11 at width 8, 3×32×32 inputs.
    Vgg11,
}

impl Net {
    /// Per-image input dims (no batch axis).
    pub fn dims(self) -> [usize; 3] {
        match self {
            Net::Lenet5 => [1, 28, 28],
            Net::Vgg11 => [3, 32, 32],
        }
    }

    /// The seeded, untrained float model (seed 0 for every workload, so
    /// the served artifact and its modeled cost never depend on the
    /// workload seed).
    pub fn build(self) -> Cnn {
        let mut rng = seeded_rng(0);
        match self {
            Net::Lenet5 => scaled_lenet5(&mut rng, 10),
            Net::Vgg11 => scaled_vgg11(&mut rng, 8, 10),
        }
    }
}

/// How a workload drives the program.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Load {
    /// Closed loop over `infer_batch`, no serving code.
    Offline,
    /// Open-loop Poisson arrivals at a fixed rate, then a capacity ladder.
    Poisson {
        /// Offered rate, requests per second.
        rate: f64,
    },
    /// Open-loop on/off bursts of `BATCH` back-to-back requests.
    Burst {
        /// Mean offered rate, requests per second.
        rate: f64,
        /// Shortest gap between burst starts, seconds.
        min_gap: f64,
    },
}

/// One named workload.
#[derive(Debug, Clone)]
pub struct Spec {
    /// Workload name as passed to `--workload`.
    pub name: &'static str,
    /// Served network.
    pub net: Net,
    /// Hash plan of the served artifact.
    pub plan: HashPlan,
    /// Load shape.
    pub load: Load,
    /// Latency limit a request (offline: a mini-batch call) must meet.
    pub slo_ms: f64,
    /// Distinct seeded inputs the run cycles through.
    pub pool: usize,
}

/// The benchmark's workloads.
pub fn spec(name: &str) -> Option<Spec> {
    match name {
        "offline-vgg11" => Some(Spec {
            name: "offline-vgg11",
            net: Net::Vgg11,
            plan: HashPlan::Uniform(256),
            load: Load::Offline,
            slo_ms: 250.0,
            pool: 8 * BATCH,
        }),
        "serve-lenet5-poisson" => Some(Spec {
            name: "serve-lenet5-poisson",
            net: Net::Lenet5,
            plan: HashPlan::Uniform(256),
            load: Load::Poisson { rate: 400.0 },
            slo_ms: 50.0,
            pool: 256,
        }),
        "serve-vgg11-burst" => Some(Spec {
            name: "serve-vgg11-burst",
            net: Net::Vgg11,
            plan: HashPlan::PerLayer(VGG11_VARIABLE_PLAN.to_vec()),
            load: Load::Burst {
                rate: 75.0,
                min_gap: 0.08,
            },
            slo_ms: 300.0,
            pool: 64,
        }),
        _ => None,
    }
}

/// The engine configuration every workload compiles under: explicit
/// parallelism, clean device.
pub fn engine_config(plan: &HashPlan) -> EngineConfig {
    EngineConfig {
        plan: plan.clone(),
        parallelism: Parallelism::Fixed(WORKERS),
        ..EngineConfig::default()
    }
}

/// The micro-batcher configuration of the serve workloads.
pub fn session_config() -> SessionConfig {
    SessionConfig {
        max_batch: BATCH,
        max_wait: Duration::from_millis(2),
        queue_capacity: 1024,
    }
}

/// `n` seeded N(0,1) images of shape `dims`, one flat vector each.
pub fn inputs(seed: u64, n: usize, dims: [usize; 3]) -> Vec<Vec<f32>> {
    let mut rng = seeded_rng(seed ^ 0x5EED_1A9E);
    let all = init::normal(
        &mut rng,
        Shape::new(&[n, dims[0], dims[1], dims[2]]),
        0.0,
        1.0,
    );
    let per: usize = dims.iter().product();
    all.data().chunks(per).map(<[f32]>::to_vec).collect()
}

/// Stacks pooled inputs into one NCHW batch.
pub fn stack(images: &[&[f32]], dims: [usize; 3]) -> Res<Tensor> {
    let data: Vec<f32> = images.iter().flat_map(|i| i.iter().copied()).collect();
    Ok(Tensor::from_vec(
        data,
        Shape::new(&[images.len(), dims[0], dims[1], dims[2]]),
    )?)
}

/// Set-up phase timings of one repetition, seconds.
#[derive(Debug, Clone, Copy, Default)]
pub struct Timings {
    /// `CompiledModel::compile`.
    pub compile: f64,
    /// `passes::apply(default_passes())`.
    pub passes: f64,
    /// Artifact load: `from_bytes` + engine derive (serve: registry load
    /// and session spawn).
    pub load: f64,
    /// Process CPU seconds of everything (see [`crate::cpu`]): build,
    /// compile, passes, save, load, bind, warm-up.
    pub cpu: f64,
    /// CPU seconds of the reference computation run right after it.
    pub reference: f64,
}

/// What the workload runs against.
pub enum Served {
    /// An engine loaded from the saved artifact.
    Engine(DeepCamEngine),
    /// A runtime (registry + session) behind a live epoll server.
    Server {
        /// The runtime the server submits through (also replayed
        /// in-process by the traced run).
        runtime: Arc<Runtime>,
        /// The bound server.
        server: Server,
    },
}

/// One completed set-up.
pub struct Prepared {
    /// The compiled model before any pass (the oracle's source).
    pub unpassed: CompiledModel,
    /// The compiled model after the default passes (what was saved).
    pub compiled: CompiledModel,
    /// The saved artifact bytes.
    pub artifact: Vec<u8>,
    /// Phase timings of this set-up.
    pub timings: Timings,
    /// The bound program.
    pub served: Served,
}

/// Runs one full set-up of `spec` into `dir` (emptied first).
pub fn prepare(spec: &Spec, dir: &Path, warm: &[f32]) -> Res<Prepared> {
    let cpu = crate::cpu::snapshot();
    let model = spec.net.build();
    let t = Instant::now();
    let mut compiled = CompiledModel::compile(&model, engine_config(&spec.plan))?;
    let compile = t.elapsed().as_secs_f64();
    let unpassed = compiled.clone();
    let t = Instant::now();
    passes::apply(&mut compiled, &default_passes())?;
    let passes = t.elapsed().as_secs_f64();
    if dir.exists() {
        std::fs::remove_dir_all(dir)?;
    }
    std::fs::create_dir_all(dir)?;
    let path = dir.join(format!("{MODEL_ID}.dcam"));
    let artifact = compiled.to_bytes();
    std::fs::write(&path, &artifact)?;
    let dims = spec.net.dims();
    let t = Instant::now();
    let (served, load) = match spec.load {
        Load::Offline => {
            let engine = DeepCamEngine::from_compiled(CompiledModel::load(&path)?)?;
            let load = t.elapsed().as_secs_f64();
            engine.infer_batch(&stack(&[warm], dims)?)?;
            (Served::Engine(engine), load)
        }
        Load::Poisson { .. } | Load::Burst { .. } => {
            let registry = Arc::new(ModelRegistry::open(dir)?);
            let runtime = Arc::new(Runtime::new(registry, session_config()));
            runtime.session(MODEL_ID)?;
            let load = t.elapsed().as_secs_f64();
            let server = Server::bind(
                "127.0.0.1:0",
                Arc::clone(&runtime),
                ServerConfig {
                    core: CoreSelect::Epoll,
                    max_connections: 8,
                    ..ServerConfig::default()
                },
            )?;
            let mut client = MuxClient::connect(server.local_addr())?;
            client.submit_infer(MODEL_ID, &dims, warm)?;
            client.recv()?;
            (Served::Server { runtime, server }, load)
        }
    };
    Ok(Prepared {
        unpassed,
        compiled,
        artifact,
        timings: Timings {
            compile,
            passes,
            load,
            cpu: crate::cpu::snapshot().since(&cpu),
            reference: crate::cpu::reference_s(),
        },
        served,
    })
}

/// The bit-exact oracle: the digest of every pooled input's logits from
/// a serial, single-image `infer` on the unpassed compile.
pub fn oracle(unpassed: &CompiledModel, pool: &[Vec<f32>], dims: [usize; 3]) -> Res<Vec<u64>> {
    let mut c = unpassed.clone();
    c.config.parallelism = Parallelism::Serial;
    let engine = DeepCamEngine::from_compiled(c)?;
    pool.iter()
        .map(|img| Ok(digest(engine.infer(&stack(&[img], dims)?)?.data())))
        .collect()
}

/// The modeled CAM cost of a compiled model on its searched mapping.
pub fn cam_report(c: &CompiledModel) -> Res<PerfReport> {
    let mapping = c
        .mapping
        .as_ref()
        .ok_or("compiled model carries no array mapping")?;
    let sched = CamScheduler::new(64, Dataflow::ActivationStationary)?;
    Ok(sched.run_ir_mapped(&c.ir, &c.binding, mapping, "perfbench")?)
}

/// Whether the artifact round trip reproduces the in-memory model's
/// modeled CAM report exactly.
pub fn roundtrip_matches(p: &Prepared) -> Res<bool> {
    Ok(cam_report(&p.compiled)? == cam_report(&CompiledModel::from_bytes(&p.artifact)?)?)
}

//! Behavioral suite for the registry and the micro-batching session:
//! lazy and racing cold loads, deterministic deadline batching under a
//! simulated clock, backpressure, stats counters, and submit-time
//! validation.

use std::sync::Arc;
use std::time::Duration;

use deepcam_core::{CompiledModel, CoreError, DeepCamEngine, EngineConfig, HashPlan};
use deepcam_models::scaled::scaled_lenet5;
use deepcam_serve::{ManualClock, ModelRegistry, Runtime, ServeError, Session, SessionConfig};
use deepcam_tensor::rng::seeded_rng;

fn lenet_engine(seed: u64) -> DeepCamEngine {
    let mut rng = seeded_rng(seed);
    let model = scaled_lenet5(&mut rng, 10);
    DeepCamEngine::compile(
        &model,
        EngineConfig {
            plan: HashPlan::Uniform(256),
            ..EngineConfig::default()
        },
    )
    .expect("compiles")
}

fn image(seed: u64) -> Vec<f32> {
    let mut rng = seeded_rng(seed);
    (0..784)
        .map(|_| deepcam_tensor::rng::standard_normal(&mut rng) as f32)
        .collect()
}

fn tmp_dir(name: &str) -> std::path::PathBuf {
    let dir = std::path::PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name);
    std::fs::create_dir_all(&dir).expect("tmp dir");
    dir
}

// ---------------------------------------------------------------- registry

#[test]
fn registry_loads_lazily_and_reports_typed_errors() {
    let dir = tmp_dir("registry_lazy");
    lenet_engine(1)
        .compiled()
        .save(dir.join("lenet5.dcam"))
        .unwrap();
    std::fs::write(dir.join("corrupt.dcam"), b"not an artifact").unwrap();
    std::fs::write(dir.join("ignored.txt"), b"not a model").unwrap();

    let registry = ModelRegistry::open(&dir).unwrap();
    assert_eq!(registry.len(), 2, "only *.dcam files are indexed");
    let listed = registry.list();
    assert!(listed.iter().all(|m| !m.loaded && m.model_name.is_none()));

    // Lazy load on first get.
    let engine = registry.get("lenet5").unwrap();
    assert_eq!(engine.model_name(), "LeNet5");
    assert!(registry
        .list()
        .iter()
        .any(|m| m.id == "lenet5" && m.loaded && m.dot_layers == Some(5)));

    // Typed errors: unknown id vs corrupt artifact.
    assert!(matches!(
        registry.get("missing"),
        Err(ServeError::ModelNotFound { model }) if model == "missing"
    ));
    assert!(matches!(
        registry.get("corrupt"),
        Err(ServeError::BadArtifact { model, .. }) if model == "corrupt"
    ));
}

#[test]
fn racing_cold_loads_share_the_first_cached_engine() {
    let dir = tmp_dir("registry_race");
    for (id, seed) in [("a", 2), ("b", 3), ("c", 4)] {
        lenet_engine(seed)
            .compiled()
            .save(dir.join(format!("{id}.dcam")))
            .unwrap();
    }
    let registry = Arc::new(ModelRegistry::open(&dir).unwrap());
    let runtime = Runtime::new(Arc::clone(&registry), SessionConfig::default());

    // Every racer is released at once onto a cold id: sessions of "a"
    // through the runtime, engines of "b" straight from the registry.
    const RACERS: usize = 4;
    let start = std::sync::Barrier::new(2 * RACERS);
    let (sessions, engines) = std::thread::scope(|s| {
        let sessions: Vec<_> = (0..RACERS)
            .map(|_| {
                s.spawn(|| {
                    start.wait();
                    runtime.session("a").unwrap()
                })
            })
            .collect();
        let engines: Vec<_> = (0..RACERS)
            .map(|_| {
                s.spawn(|| {
                    start.wait();
                    registry.get("b").unwrap()
                })
            })
            .collect();
        (
            sessions
                .into_iter()
                .map(|h| h.join().unwrap())
                .collect::<Vec<_>>(),
            engines
                .into_iter()
                .map(|h| h.join().unwrap())
                .collect::<Vec<_>>(),
        )
    });
    assert!(sessions.iter().all(|s| Arc::ptr_eq(s, &sessions[0])));
    assert!(engines.iter().all(|e| Arc::ptr_eq(e, &engines[0])));
    assert!(Arc::ptr_eq(&engines[0], &registry.get("b").unwrap()));

    registry.get("c").unwrap();
    let listed = registry.list();
    let ids: Vec<&str> = listed.iter().map(|m| m.id.as_str()).collect();
    assert_eq!(ids, ["a", "b", "c"]);
    for m in &listed {
        assert!(m.loaded && !m.quarantined, "{m:?}");
        assert_eq!(m.model_name.as_deref(), Some("LeNet5"), "{m:?}");
        assert_eq!(m.dot_layers, Some(5), "{m:?}");
    }
}

/// A clean artifact of `engine` with its crossbar-noise slot (right
/// after the magic, the version, and the config's plan, seed, cosine and
/// norm) overwritten with `noise`.
fn noisy_artifact(engine: &DeepCamEngine, noise: f32) -> Vec<u8> {
    use serde::bin::{BinCodec, Writer};
    let cfg = &engine.compiled().config;
    let mut w = Writer::new();
    cfg.plan.encode(&mut w);
    w.put_u64(cfg.seed);
    cfg.cosine.encode(&mut w);
    cfg.norm.encode(&mut w);
    let at = 8 + w.len();
    let mut bytes = engine.compiled().to_bytes();
    assert_eq!(&bytes[at..at + 4], &0f32.to_le_bytes(), "clean noise slot");
    bytes[at..at + 4].copy_from_slice(&noise.to_le_bytes());
    bytes
}

#[test]
fn noisy_artifacts_fail_closed() {
    // Every engine models an ideal device: an artifact compiled for a
    // noisy one is refused, never served as if it were clean.
    let engine = lenet_engine(21);
    for noise in [0.25f32, f32::NAN] {
        match CompiledModel::from_bytes(&noisy_artifact(&engine, noise)) {
            Err(CoreError::Artifact(detail)) => {
                assert!(
                    detail.contains(&format!("crossbar noise {noise}")),
                    "{detail}"
                )
            }
            other => panic!("noise {noise}: expected CoreError::Artifact, got {other:?}"),
        }
    }
    let dir = tmp_dir("registry_noisy");
    std::fs::write(dir.join("noisy.dcam"), noisy_artifact(&engine, 0.25)).unwrap();
    let registry = ModelRegistry::open(&dir).unwrap();
    match registry.get("noisy") {
        Err(ServeError::BadArtifact { detail, .. }) => {
            assert!(detail.contains("crossbar noise 0.25"), "{detail}")
        }
        Err(other) => panic!("expected BadArtifact, got {other:?}"),
        Ok(_) => panic!("expected BadArtifact, got a loaded engine"),
    }
    assert!(registry
        .list()
        .iter()
        .any(|m| m.id == "noisy" && m.quarantined && !m.loaded));
}

#[test]
fn corrupt_artifacts_are_quarantined_until_repaired() {
    let dir = tmp_dir("registry_quarantine");
    std::fs::write(dir.join("broken.dcam"), b"definitely not an artifact").unwrap();
    let registry = ModelRegistry::open(&dir).unwrap();

    // First get reads the file and fails with the real decode error.
    let first_detail = match registry.get("broken") {
        Err(ServeError::BadArtifact { detail, .. }) => detail,
        Err(other) => panic!("expected BadArtifact, got {other:?}"),
        Ok(_) => panic!("expected BadArtifact, got a loaded engine"),
    };
    assert!(
        !first_detail.starts_with("quarantined: "),
        "first failure must come from an actual read: {first_detail}"
    );

    // Second get fails fast off the negative cache — the quarantined
    // prefix proves the broken file was not re-read and re-parsed.
    match registry.get("broken") {
        Err(ServeError::BadArtifact { detail, .. }) => {
            assert!(detail.starts_with("quarantined: "), "{detail}");
            assert!(detail.contains(&first_detail), "{detail}");
        }
        Err(other) => panic!("expected quarantined BadArtifact, got {other:?}"),
        Ok(_) => panic!("expected quarantined BadArtifact, got a loaded engine"),
    }
    assert!(registry
        .list()
        .iter()
        .any(|m| m.id == "broken" && m.quarantined && !m.loaded));

    // Repairing the file on disk (its length/mtime key changes) clears
    // the quarantine and the model loads.
    lenet_engine(20)
        .compiled()
        .save(dir.join("broken.dcam"))
        .unwrap();
    assert_eq!(registry.get("broken").unwrap().model_name(), "LeNet5");
    assert!(registry
        .list()
        .iter()
        .any(|m| m.id == "broken" && !m.quarantined && m.loaded));
}

#[test]
fn quarantine_rekeys_when_a_still_corrupt_file_changes() {
    let dir = tmp_dir("registry_requarantine");
    std::fs::write(dir.join("bad.dcam"), b"corrupt v1").unwrap();
    let registry = ModelRegistry::open(&dir).unwrap();
    assert!(registry.get("bad").is_err());

    // Rewrite with *different* corrupt bytes: the old key no longer
    // matches, so the registry re-reads (no "quarantined:" prefix),
    // fails again, and re-quarantines against the new key.
    std::fs::write(dir.join("bad.dcam"), b"still corrupt, but longer").unwrap();
    match registry.get("bad") {
        Err(ServeError::BadArtifact { detail, .. }) => {
            assert!(!detail.starts_with("quarantined: "), "{detail}");
        }
        Err(other) => panic!("expected BadArtifact, got {other:?}"),
        Ok(_) => panic!("expected BadArtifact, got a loaded engine"),
    }
    match registry.get("bad") {
        Err(ServeError::BadArtifact { detail, .. }) => {
            assert!(detail.starts_with("quarantined: "), "{detail}");
        }
        Err(other) => panic!("expected quarantined BadArtifact, got {other:?}"),
        Ok(_) => panic!("expected quarantined BadArtifact, got a loaded engine"),
    }
}

// ---------------------------------------------------------------- batching

#[test]
fn full_batch_dispatches_without_the_clock_moving() {
    let clock = Arc::new(ManualClock::new());
    let session = Session::with_clock(
        Arc::new(lenet_engine(7)),
        SessionConfig {
            max_batch: 4,
            max_wait: Duration::from_secs(3600),
            queue_capacity: 64,
        },
        clock,
    );
    // Four submissions = one full batch; the hour-long max_wait proves
    // dispatch came from occupancy, not the deadline.
    let pendings: Vec<_> = (0..4)
        .map(|i| session.submit(&[1, 28, 28], &image(100 + i)).unwrap())
        .collect();
    for p in pendings {
        assert_eq!(p.wait().unwrap().len(), 10);
    }
    let stats = session.stats();
    assert_eq!(stats.submitted, 4);
    assert_eq!(stats.completed, 4);
    assert_eq!(stats.batches, 1, "all four must coalesce");
    assert_eq!(stats.mean_occupancy, 4.0);
    assert_eq!(stats.max_occupancy, 4);
}

#[test]
fn a_feature_map_output_splits_whole_per_request() {
    // A conv-final model answers each image with its `[16, 32, 32]`
    // feature map, not a `[classes]` row: a coalesced pair must reply
    // with each image's whole output.
    use deepcam_models::{Block, Cnn};
    use deepcam_tensor::layer::{Conv2d, ReLU};
    use deepcam_tensor::ops::conv::Conv2dConfig;
    let mut rng = seeded_rng(9);
    let model = Cnn::new(
        "conv-final",
        vec![
            Block::Conv(Conv2d::new(
                &mut rng,
                Conv2dConfig::new(1, 16, 3).with_padding(1),
            )),
            Block::Relu(ReLU::new()),
        ],
        16,
    )
    .with_input(1, 32, 32);
    let engine = Arc::new(
        DeepCamEngine::compile(
            &model,
            EngineConfig {
                plan: HashPlan::Uniform(1024),
                ..EngineConfig::default()
            },
        )
        .expect("compiles"),
    );
    let session = Session::with_clock(
        Arc::clone(&engine),
        SessionConfig {
            max_batch: 2,
            max_wait: Duration::from_secs(3600),
            queue_capacity: 8,
        },
        Arc::new(ManualClock::new()),
    );
    let images: Vec<Vec<f32>> = (0..2u64)
        .map(|i| {
            let mut rng = seeded_rng(300 + i);
            (0..1024)
                .map(|_| deepcam_tensor::rng::standard_normal(&mut rng) as f32)
                .collect()
        })
        .collect();
    let pendings: Vec<_> = images
        .iter()
        .map(|img| session.submit(&[1, 32, 32], img).unwrap())
        .collect();
    for (img, pending) in images.iter().zip(pendings) {
        let alone = engine
            .infer(
                &deepcam_tensor::Tensor::from_vec(
                    img.clone(),
                    deepcam_tensor::Shape::new(&[1, 1, 32, 32]),
                )
                .unwrap(),
            )
            .unwrap();
        let reply = pending.wait().unwrap();
        assert_eq!(reply.len(), 16 * 32 * 32);
        assert_eq!(reply.as_slice(), alone.data());
    }
    assert_eq!(session.stats().batches, 1, "the pair must coalesce");
}

#[test]
fn partial_batch_waits_for_the_simulated_deadline() {
    let clock = Arc::new(ManualClock::new());
    let session = Session::with_clock(
        Arc::new(lenet_engine(8)),
        SessionConfig {
            max_batch: 16,
            max_wait: Duration::from_millis(5),
            queue_capacity: 64,
        },
        Arc::clone(&clock) as Arc<dyn deepcam_serve::Clock>,
    );
    let pending = session.submit(&[1, 28, 28], &image(200)).unwrap();
    // Real time passes, simulated time does not: the partial batch must
    // stay queued no matter how long we wait.
    std::thread::sleep(Duration::from_millis(40));
    assert!(
        pending.wait_timeout(Duration::ZERO).is_none(),
        "dispatched before the deadline"
    );
    assert_eq!(session.stats().batches, 0);
    // Advance past max_wait: the deadline path dispatches a batch of 1.
    clock.advance(Duration::from_millis(6));
    assert_eq!(pending.wait().unwrap().len(), 10);
    let stats = session.stats();
    assert_eq!(stats.batches, 1);
    assert_eq!(stats.mean_occupancy, 1.0);
}

#[test]
fn bounded_queue_rejects_with_typed_overload() {
    let clock = Arc::new(ManualClock::new());
    let session = Session::with_clock(
        Arc::new(lenet_engine(9)),
        SessionConfig {
            max_batch: 64,
            max_wait: Duration::from_secs(3600),
            queue_capacity: 2,
        },
        clock,
    );
    // The frozen clock guarantees nothing drains: the third submission
    // must hit the bound.
    let _a = session.submit(&[1, 28, 28], &image(300)).unwrap();
    let _b = session.submit(&[1, 28, 28], &image(301)).unwrap();
    match session.submit(&[1, 28, 28], &image(302)) {
        Err(ServeError::Overloaded { queued, capacity }) => {
            assert_eq!(queued, 2);
            assert_eq!(capacity, 2);
        }
        other => panic!("expected Overloaded, got {other:?}"),
    }
    let stats = session.stats();
    assert_eq!(stats.submitted, 2);
    assert_eq!(stats.rejected, 1);
}

#[test]
fn submit_validates_shape_before_queueing() {
    let session = Session::new(Arc::new(lenet_engine(10)), SessionConfig::default());
    // Wrong element count for LeNet5 (expects 1*28*28 = 784).
    assert!(matches!(
        session.submit(&[1, 10, 10], &[0.0; 100]),
        Err(ServeError::InvalidRequest(_))
    ));
    // dims/data mismatch.
    assert!(matches!(
        session.submit(&[1, 28, 28], &[0.0; 3]),
        Err(ServeError::InvalidRequest(_))
    ));
    // Empty images.
    assert!(matches!(
        session.submit(&[], &[]),
        Err(ServeError::InvalidRequest(_))
    ));
    // Nothing bad reached the queue.
    assert_eq!(session.stats().submitted, 0);
    assert_eq!(session.queue_len(), 0);
}

#[test]
fn shutdown_flushes_accepted_requests() {
    let clock = Arc::new(ManualClock::new());
    let session = Session::with_clock(
        Arc::new(lenet_engine(11)),
        SessionConfig {
            max_batch: 64,
            max_wait: Duration::from_secs(3600),
            queue_capacity: 64,
        },
        clock,
    );
    // Queued but (with a frozen clock and a huge batch) never
    // dispatchable — until shutdown flushes it.
    let pending = session.submit(&[1, 28, 28], &image(400)).unwrap();
    session.shutdown();
    assert_eq!(pending.wait().unwrap().len(), 10);
    assert!(matches!(
        session.submit(&[1, 28, 28], &image(401)),
        Err(ServeError::ShuttingDown)
    ));
}

#[test]
fn runtime_serves_multiple_models_and_tracks_stats_separately() {
    let registry = Arc::new(ModelRegistry::new());
    registry.register("m1", lenet_engine(12));
    registry.register("m2", lenet_engine(13));
    let runtime = Runtime::new(
        registry,
        SessionConfig {
            max_batch: 2,
            max_wait: Duration::from_millis(1),
            queue_capacity: 64,
        },
    );
    let img = image(500);
    assert_eq!(runtime.infer("m1", &[1, 28, 28], &img).unwrap().len(), 10);
    assert_eq!(runtime.infer("m1", &[1, 28, 28], &img).unwrap().len(), 10);
    assert_eq!(runtime.infer("m2", &[1, 28, 28], &img).unwrap().len(), 10);
    assert_eq!(runtime.stats("m1").unwrap().completed, 2);
    assert_eq!(runtime.stats("m2").unwrap().completed, 1);
    assert!(matches!(
        runtime.stats("m3"),
        Err(ServeError::ModelNotFound { .. })
    ));
    // Identical inputs through two independently compiled engines with
    // different seeds should not produce identical logits — i.e. the
    // runtime really routed to distinct models.
    let a = runtime.infer("m1", &[1, 28, 28], &img).unwrap();
    let b = runtime.infer("m2", &[1, 28, 28], &img).unwrap();
    assert_ne!(a, b);
}

#[test]
fn reloaded_artifact_serves_identically_through_a_session() {
    // compile → save → registry-load → session micro-batcher must equal
    // the in-memory engine's own logits bit-for-bit.
    let dir = tmp_dir("session_artifact");
    let engine = lenet_engine(14);
    engine.compiled().save(dir.join("lenet5.dcam")).unwrap();
    let registry = Arc::new(ModelRegistry::open(&dir).unwrap());
    let runtime = Runtime::new(registry, SessionConfig::default());
    let img = image(600);
    let served = runtime.infer("lenet5", &[1, 28, 28], &img).unwrap();
    let direct = engine
        .infer(
            &deepcam_tensor::Tensor::from_vec(
                img.clone(),
                deepcam_tensor::Shape::new(&[1, 1, 28, 28]),
            )
            .unwrap(),
        )
        .unwrap();
    assert_eq!(served, direct.data());
    // Compiled before save, decoded after load: value-identical too.
    let reloaded = CompiledModel::load(dir.join("lenet5.dcam")).unwrap();
    assert_eq!(engine.compiled(), &reloaded);
}

//! Request validation at the serving boundary: a request the engine
//! cannot run must come back as a typed error and leave the model's
//! session serving — never kill its dispatcher thread — and non-finite
//! pixels are refused at submit, in-process and over the wire.

use std::net::SocketAddr;
use std::sync::Arc;
use std::time::Duration;

use deepcam_core::{DeepCamEngine, EngineConfig, HashPlan};
use deepcam_models::scaled::scaled_lenet5;
use deepcam_serve::protocol::{ErrorKind, Response};
use deepcam_serve::{
    ModelRegistry, MuxClient, Runtime, ServeError, Server, ServerConfig, Session, SessionConfig,
};
use deepcam_tensor::rng::seeded_rng;

fn lenet_engine() -> DeepCamEngine {
    let model = scaled_lenet5(&mut seeded_rng(91), 10);
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

fn expected_logits(engine: &DeepCamEngine, img: &[f32]) -> Vec<f32> {
    let tensor =
        deepcam_tensor::Tensor::from_vec(img.to_vec(), deepcam_tensor::Shape::new(&[1, 1, 28, 28]))
            .expect("tensor");
    engine.infer(&tensor).expect("inference").data().to_vec()
}

fn lenet_server() -> (Server, Arc<DeepCamEngine>) {
    let registry = Arc::new(ModelRegistry::new());
    let engine = registry.register("lenet", lenet_engine());
    let runtime = Arc::new(Runtime::new(registry, SessionConfig::default()));
    let server = Server::bind("127.0.0.1:0", runtime, ServerConfig::default()).expect("bind");
    (server, engine)
}

/// A protocol-v2 client whose reads give up after a few seconds, so a
/// request stranded by a dead dispatcher fails instead of hanging.
fn v2_client(addr: SocketAddr) -> MuxClient {
    let timeout = Some(Duration::from_secs(10));
    MuxClient::connect_with(addr, timeout, timeout).expect("connect")
}

/// One v2 round trip to `lenet`: its logits, or the typed error kind
/// the server answered with.
fn infer(client: &mut MuxClient, dims: &[usize], img: &[f32]) -> Result<Vec<f32>, ErrorKind> {
    let id = client.submit_infer("lenet", dims, img).expect("submit");
    let (reply_id, resp) = client.recv().expect("reply");
    assert_eq!(reply_id, id, "one request in flight");
    match resp {
        Response::Logits(logits) => Ok(logits),
        Response::Error { kind, .. } => Err(kind),
        other => panic!("expected Logits or Error, got {other:?}"),
    }
}

/// `[1, 14, 56]` has LeNet5's 784 input elements, so it passes the
/// element-count check, but it flattens to 192 features where `fc1`
/// hashes 400. That must be a typed error, and the next well-formed
/// request to the same model must still be answered, bit-exact.
#[test]
fn reshaped_image_is_a_typed_error_and_the_model_keeps_serving() {
    let (mut server, engine) = lenet_server();
    let mut client = v2_client(server.local_addr());
    let img = image(3);
    let kind = infer(&mut client, &[1, 14, 56], &img)
        .expect_err("a 14x56 image cannot run through LeNet5");
    assert!(
        matches!(kind, ErrorKind::Engine | ErrorKind::InvalidRequest),
        "{kind:?}"
    );
    let logits =
        infer(&mut client, &[1, 28, 28], &img).expect("the session survives the hostile shape");
    assert_eq!(logits, expected_logits(&engine, &img));
    server.shutdown();
}

/// The same shape straight through a session: typed engine error, then
/// a correct reply.
#[test]
fn reshaped_image_leaves_the_session_dispatcher_alive() {
    let engine = Arc::new(lenet_engine());
    let session = Session::new(Arc::clone(&engine), SessionConfig::default());
    let img = image(4);
    let err = session
        .submit(&[1, 14, 56], &img)
        .expect("784 elements pass the submit-time count check")
        .wait_timeout(Duration::from_secs(10))
        .expect("the batch completes")
        .expect_err("the engine rejects the row width");
    assert!(matches!(err, ServeError::Engine(_)), "{err}");
    let logits = session
        .submit(&[1, 28, 28], &img)
        .expect("queued")
        .wait_timeout(Duration::from_secs(10))
        .expect("the dispatcher still serves")
        .expect("a correct reply");
    assert_eq!(logits, expected_logits(&engine, &img));
}

/// NaN and ±inf pixels are refused at submit with `InvalidRequest` —
/// in-process and over protocol v2, where they map onto the existing
/// `InvalidRequest` wire kind — and never reach the engine.
#[test]
fn non_finite_pixels_are_invalid_requests() {
    let engine = Arc::new(lenet_engine());
    let session = Session::new(Arc::clone(&engine), SessionConfig::default());
    for bad in [f32::NAN, f32::INFINITY, f32::NEG_INFINITY] {
        let mut img = image(5);
        img[300] = bad;
        let err = session.submit(&[1, 28, 28], &img).map(|_| ()).unwrap_err();
        assert!(matches!(err, ServeError::InvalidRequest(_)), "{bad}: {err}");
    }
    assert_eq!(session.stats().submitted, 0, "nothing was queued");

    let (mut server, engine) = lenet_server();
    let mut client = v2_client(server.local_addr());
    for bad in [f32::NAN, f32::INFINITY, f32::NEG_INFINITY] {
        let mut img = image(6);
        img[0] = bad;
        let kind = infer(&mut client, &[1, 28, 28], &img).expect_err("non-finite pixel");
        assert_eq!(kind, ErrorKind::InvalidRequest, "{bad}");
    }
    let img = image(6);
    let logits = infer(&mut client, &[1, 28, 28], &img).expect("clean");
    assert_eq!(logits, expected_logits(&engine, &img));
    server.shutdown();
}

//! Protocol-v2 negotiation and multiplexing, end to end: version
//! downgrade against v1-only offers, pipelined v2 requests, and — the
//! point of the request ids — out-of-order reply delivery proven
//! bit-exact under a `ManualClock`.

use std::collections::HashMap;
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;

use deepcam_core::{DeepCamEngine, EngineConfig, HashPlan};
use deepcam_models::scaled::scaled_lenet5;
use deepcam_serve::protocol::{
    decode_payload, encode_payload, read_frame, write_frame, Frame, Request, Response,
    MAX_PROTOCOL_VERSION, PROTOCOL_V1,
};
use deepcam_serve::{
    Client, ManualClock, ModelRegistry, MuxClient, Runtime, Server, ServerConfig, SessionConfig,
};
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

fn expected_logits(engine: &DeepCamEngine, img: &[f32]) -> Vec<f32> {
    let tensor =
        deepcam_tensor::Tensor::from_vec(img.to_vec(), deepcam_tensor::Shape::new(&[1, 1, 28, 28]))
            .expect("tensor");
    engine
        .infer(&tensor)
        .expect("reference inference")
        .data()
        .to_vec()
}

fn lenet_server() -> (Server, Arc<DeepCamEngine>) {
    let registry = Arc::new(ModelRegistry::new());
    let engine = registry.register("lenet", lenet_engine(77));
    let runtime = Arc::new(Runtime::new(registry, SessionConfig::default()));
    let server = Server::bind("127.0.0.1:0", runtime, ServerConfig::default()).expect("bind");
    (server, engine)
}

/// `Client` speaks v1: it never sends a `Hello` and round-trips
/// unchanged — the downgrade path is "nothing happens".
#[test]
fn v1_clients_work_unchanged() {
    let (mut server, engine) = lenet_server();
    let addr = server.local_addr();
    let mut client = Client::connect(addr).expect("connect");
    let img = image(11);
    let logits = client.infer("lenet", &[1, 28, 28], &img).expect("infer");
    assert_eq!(logits, expected_logits(&engine, &img));
    server.shutdown();
}

/// Offering more than the server speaks clamps to the server's
/// maximum; offering exactly v1 locks v1 framing on the same wire.
#[test]
fn hello_offers_clamp_to_the_server_maximum() {
    let (mut server, _) = lenet_server();
    let addr = server.local_addr();

    let mux = MuxClient::connect(addr).expect("mux connect");
    assert_eq!(mux.negotiated_version(), MAX_PROTOCOL_VERSION);

    // A raw Hello offering u32::MAX comes back clamped, not errored.
    let mut s = TcpStream::connect(addr).expect("raw connect");
    write_frame(
        &mut s,
        &encode_payload(&Request::Hello {
            max_version: u32::MAX,
        }),
    )
    .expect("hello write");
    match read_frame(&mut s).expect("hello reply") {
        Frame::Payload(p) => match decode_payload::<Response>(&p).expect("decode") {
            Response::Hello { version } => assert_eq!(version, MAX_PROTOCOL_VERSION),
            other => panic!("expected Hello, got {other:?}"),
        },
        Frame::Closed => panic!("server closed on a valid Hello"),
    }

    // Offering exactly 1 keeps the whole connection v1-framed.
    let mut s = TcpStream::connect(addr).expect("raw v1 connect");
    write_frame(
        &mut s,
        &encode_payload(&Request::Hello {
            max_version: PROTOCOL_V1,
        }),
    )
    .expect("hello write");
    match read_frame(&mut s).expect("hello reply") {
        Frame::Payload(p) => match decode_payload::<Response>(&p).expect("decode") {
            Response::Hello { version } => assert_eq!(version, PROTOCOL_V1),
            other => panic!("expected Hello, got {other:?}"),
        },
        Frame::Closed => panic!("server closed on a v1 Hello"),
    }
    write_frame(&mut s, &encode_payload(&Request::ListModels)).expect("v1 request");
    match read_frame(&mut s).expect("v1 reply") {
        Frame::Payload(p) => match decode_payload::<Response>(&p).expect("v1 decode") {
            Response::Models(models) => assert_eq!(models.len(), 1),
            other => panic!("expected Models, got {other:?}"),
        },
        Frame::Closed => panic!("connection must keep serving after a v1 Hello"),
    }
    server.shutdown();
}

/// Pipelining through [`MuxClient`]: a window of requests written
/// before any reply is read, every reply attributed by id and
/// bit-exact. The server keeps them all in flight at once, so they
/// may share micro-batches.
#[test]
fn pipelined_v2_requests_all_answer_bit_exact() {
    const WINDOW: usize = 8;
    let (mut server, engine) = lenet_server();
    let addr = server.local_addr();
    let mut mux = MuxClient::connect(addr).expect("mux connect");

    let images: Vec<Vec<f32>> = (0..WINDOW as u64).map(|i| image(100 + i)).collect();
    let mut ids = Vec::new();
    for img in &images {
        ids.push(
            mux.submit_infer("lenet", &[1, 28, 28], img)
                .expect("submit"),
        );
    }
    let mut replies: HashMap<u64, Vec<f32>> = HashMap::new();
    for _ in 0..WINDOW {
        let (id, resp) = mux.recv().expect("reply");
        match resp {
            Response::Logits(logits) => {
                assert!(replies.insert(id, logits).is_none(), "duplicate id {id}");
            }
            other => panic!("expected Logits, got {other:?}"),
        }
    }
    for (id, img) in ids.iter().zip(&images) {
        assert_eq!(
            replies.get(id),
            Some(&expected_logits(&engine, img)),
            "request {id}"
        );
    }
    server.shutdown();
}

/// The multiplexing payoff, made deterministic: three requests go out
/// pipelined on one connection; the micro-batcher (frozen under a
/// `ManualClock`) completes the later two *first*, and only a clock
/// advance releases the first. The replies arrive out of submission
/// order, each attributed by request id and bit-exact.
#[test]
fn out_of_order_replies_are_attributed_by_request_id() {
    let clock = Arc::new(ManualClock::new());
    let registry = Arc::new(ModelRegistry::new());
    let slow = registry.register("slow", lenet_engine(40));
    let fast = registry.register("fast", lenet_engine(41));
    let runtime = Arc::new(Runtime::with_clock(
        Arc::clone(&registry),
        SessionConfig {
            // Batches dispatch only when full (2) or when simulated
            // time passes an hour: "slow" holds one request, "fast"
            // fills immediately.
            max_batch: 2,
            max_wait: Duration::from_secs(3600),
            queue_capacity: 64,
        },
        Arc::clone(&clock) as Arc<dyn deepcam_serve::Clock>,
    ));
    let mut server = Server::bind_with_clock(
        "127.0.0.1:0",
        Arc::clone(&runtime),
        ServerConfig::default(),
        Arc::clone(&clock) as Arc<dyn deepcam_serve::Clock>,
    )
    .expect("bind");
    let addr = server.local_addr();

    let mut mux = MuxClient::connect(addr).expect("mux connect");
    let held_img = image(900);
    let fast_imgs = [image(901), image(902)];
    let held_id = mux
        .submit_infer("slow", &[1, 28, 28], &held_img)
        .expect("submit held");
    let fast_ids = [
        mux.submit_infer("fast", &[1, 28, 28], &fast_imgs[0])
            .expect("submit fast 0"),
        mux.submit_infer("fast", &[1, 28, 28], &fast_imgs[1])
            .expect("submit fast 1"),
    ];

    // The "fast" batch fills and dispatches with the clock frozen, so
    // the first two replies answer the *later* submissions.
    let mut early = HashMap::new();
    for _ in 0..2 {
        let (id, resp) = mux.recv().expect("early reply");
        assert_ne!(id, held_id, "held request answered while clock frozen");
        match resp {
            Response::Logits(logits) => {
                early.insert(id, logits);
            }
            other => panic!("expected Logits, got {other:?}"),
        }
    }
    for (id, img) in fast_ids.iter().zip(&fast_imgs) {
        assert_eq!(
            early.get(id),
            Some(&expected_logits(&fast, img)),
            "request {id}"
        );
    }

    // Releasing simulated time dispatches the held batch; its reply
    // arrives last, attributed to the *first* submission.
    clock.advance(Duration::from_secs(3601));
    let (id, resp) = mux.recv().expect("held reply");
    assert_eq!(id, held_id);
    match resp {
        Response::Logits(logits) => assert_eq!(logits, expected_logits(&slow, &held_img)),
        other => panic!("expected Logits, got {other:?}"),
    }
    server.shutdown();
}

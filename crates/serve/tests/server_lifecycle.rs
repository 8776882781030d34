//! Connection-lifecycle and fault-tolerance suite for the server and
//! the retrying client: slow-loris reaping vs healthy idle
//! connections, idle timeouts, non-blocking refusals, two-phase
//! graceful drain (deterministic under a `ManualClock`), and the
//! client's retry policy against a hand-rolled scripted server.

use std::io::Write;
use std::net::{TcpListener, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

use deepcam_core::{DeepCamEngine, EngineConfig, HashPlan};
use deepcam_models::scaled::scaled_lenet5;
use deepcam_serve::protocol::{
    decode_payload, encode_payload, read_frame, write_frame, ErrorKind, Frame, Request, Response,
    MAX_PROTOCOL_VERSION,
};
use deepcam_serve::{
    Client, ClientConfig, ManualClock, ModelRegistry, MuxClient, RetryPolicy, Runtime, ServeError,
    Server, ServerConfig, SessionConfig,
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

fn empty_server(cfg: ServerConfig) -> Server {
    let registry = Arc::new(ModelRegistry::new());
    let runtime = Arc::new(Runtime::new(registry, SessionConfig::default()));
    Server::bind("127.0.0.1:0", runtime, cfg).expect("bind")
}

// ------------------------------------------------------------- timeouts

/// A peer trickling one byte per interval resets nothing: the frame
/// deadline is armed at the *first* byte, so the connection is reaped
/// within `read_timeout` — while a connection sitting quietly at a
/// frame boundary (no `idle_timeout`) keeps serving.
#[test]
fn slow_loris_is_reaped_while_an_idle_connection_survives() {
    let mut server = empty_server(ServerConfig {
        read_timeout: Some(Duration::from_millis(150)),
        ..ServerConfig::default()
    });
    let addr = server.local_addr();

    // The healthy connection: idle at a frame boundary throughout.
    let mut idle = Client::connect(addr).expect("idle client");
    assert!(idle.list_models().expect("pre-loris round trip").is_empty());

    // The loris: an honest length prefix, then one payload byte every
    // 40 ms. Each gap is under read_timeout, and bytes *are* flowing —
    // but the deadline is absolute per frame, so it still trips.
    let mut loris = TcpStream::connect(addr).expect("loris connect");
    let start = Instant::now();
    loris
        .write_all(&1000u32.to_le_bytes())
        .expect("prefix write");
    let mut reaped = false;
    for _ in 0..200 {
        if loris.write_all(&[0x01]).is_err() {
            reaped = true;
            break;
        }
        std::thread::sleep(Duration::from_millis(40));
    }
    let elapsed = start.elapsed();
    assert!(reaped, "server never reaped the trickling connection");
    assert!(
        elapsed >= Duration::from_millis(100),
        "reaped before read_timeout could have elapsed: {elapsed:?}"
    );
    assert!(elapsed < Duration::from_secs(5), "reap took {elapsed:?}");
    assert!(server.stats().timed_out >= 1);

    // The idle connection was never touched.
    assert!(idle
        .list_models()
        .expect("post-loris round trip")
        .is_empty());
    server.shutdown();
}

/// With an `idle_timeout` set, a connection that never sends a byte is
/// closed quietly — an EOF, not a `Timeout` error frame, and no
/// `timed_out` count (it did nothing wrong mid-frame).
#[test]
fn idle_timeout_reaps_quiet_connections_without_an_error_frame() {
    let mut server = empty_server(ServerConfig {
        idle_timeout: Some(Duration::from_millis(100)),
        read_timeout: Some(Duration::from_secs(10)),
        ..ServerConfig::default()
    });
    let addr = server.local_addr();

    let mut s = TcpStream::connect(addr).expect("connect");
    s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    let start = Instant::now();
    match read_frame(&mut s) {
        Ok(Frame::Closed) => {}
        other => panic!("expected a quiet close, got {other:?}"),
    }
    let elapsed = start.elapsed();
    assert!(
        elapsed < Duration::from_secs(8),
        "idle reap took {elapsed:?}"
    );
    assert_eq!(server.stats().timed_out, 0);
    server.shutdown();
}

// ------------------------------------------------------------- refusals

/// Refusal frames are written off the accept thread: peers that get
/// refused and never read can pile up without stalling accepts, the
/// refusal is still a typed `Overloaded` frame, and the moment a slot
/// frees a new client is served.
#[test]
fn refusals_never_block_the_accept_loop() {
    let mut server = empty_server(ServerConfig {
        max_connections: 1,
        ..ServerConfig::default()
    });
    let addr = server.local_addr();

    // Occupy the single slot and prove it.
    let mut occupant = Client::connect(addr).expect("occupant");
    assert!(occupant.list_models().expect("occupant serves").is_empty());

    // A pile of peers that will be refused and never read a byte —
    // the zero-window shape that used to wedge the accept thread.
    let refused: Vec<TcpStream> = (0..6)
        .map(|i| TcpStream::connect(addr).unwrap_or_else(|e| panic!("refused peer {i}: {e}")))
        .collect();
    let deadline = Instant::now() + Duration::from_secs(10);
    while server.stats().refused < 6 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(5));
    }
    assert_eq!(server.stats().refused, 6, "accept loop stalled on refusals");

    // The refusal is a typed Overloaded frame for peers that do read.
    let mut reader = refused.into_iter().next().expect("one refused peer");
    reader
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    match read_frame(&mut reader).expect("refusal frame") {
        Frame::Payload(p) => match decode_payload::<Response>(&p).expect("decodes") {
            Response::Error { kind, .. } => assert_eq!(kind, ErrorKind::Overloaded),
            other => panic!("expected Overloaded, got {other:?}"),
        },
        Frame::Closed => panic!("refused peer saw a bare hang-up"),
    }

    // Free the slot: the next client is accepted and served promptly.
    drop(occupant);
    let deadline = Instant::now() + Duration::from_secs(10);
    while server.active_connections() > 0 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(5));
    }
    let mut fresh = Client::connect(addr).expect("fresh client");
    assert!(fresh.list_models().expect("fresh round trip").is_empty());
    let stats = server.stats();
    assert!(stats.accepted >= 2, "{stats:?}");
    server.shutdown();
}

// ------------------------------------------------------------- drain

/// The graceful-drain contract, deterministic under a shared
/// `ManualClock`: an in-flight request (held queued by the frozen
/// micro-batch deadline) survives `shutdown`, its reply is delivered
/// bit-exact, a request arriving mid-drain gets the typed `Draining`
/// refusal, and only then does the server hard-close.
#[test]
fn graceful_drain_delivers_in_flight_replies() {
    let clock = Arc::new(ManualClock::new());
    let registry = Arc::new(ModelRegistry::new());
    let engine = registry.register("m", lenet_engine(40));
    let runtime = Arc::new(Runtime::with_clock(
        Arc::clone(&registry),
        SessionConfig {
            max_batch: 64,
            max_wait: Duration::from_secs(3600),
            queue_capacity: 64,
        },
        Arc::clone(&clock) as Arc<dyn deepcam_serve::Clock>,
    ));
    let mut server = Server::bind_with_clock(
        "127.0.0.1:0",
        Arc::clone(&runtime),
        ServerConfig {
            // Effectively unbounded: the drain must end because the
            // in-flight request *completes*, not because its budget
            // ran out when the test advances simulated time.
            drain_timeout: Duration::from_secs(100_000_000),
            ..ServerConfig::default()
        },
        Arc::clone(&clock) as Arc<dyn deepcam_serve::Clock>,
    )
    .expect("bind");
    let addr = server.local_addr();

    // In-process reference for the bit-exactness assertion.
    let img = image(800);
    let tensor =
        deepcam_tensor::Tensor::from_vec(img.clone(), deepcam_tensor::Shape::new(&[1, 1, 28, 28]))
            .unwrap();
    let expected = engine.infer(&tensor).unwrap();

    // The in-flight request: queued in the micro-batcher, undispatchable
    // while the clock is frozen (max_wait is an hour).
    let infer_img = img.clone();
    let infer_thread = std::thread::spawn(move || {
        let mut client = Client::connect(addr).expect("infer client");
        client.infer("m", &[1, 28, 28], &infer_img)
    });
    let deadline = Instant::now() + Duration::from_secs(10);
    while runtime.stats("m").map(|s| s.submitted).unwrap_or(0) < 1 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(2));
    }
    assert_eq!(
        runtime.stats("m").unwrap().submitted,
        1,
        "request never queued"
    );

    // Begin the drain on its own thread: it must block on the in-flight
    // request (busy > 0, frozen clock) rather than complete.
    let shutdown_thread = std::thread::spawn(move || {
        server.shutdown();
        server
    });
    std::thread::sleep(Duration::from_millis(100));
    assert!(
        !shutdown_thread.is_finished(),
        "shutdown completed while a request was in flight"
    );

    // A connection arriving mid-drain is refused with the typed,
    // retryable Draining kind.
    let mut late = Client::connect(addr).expect("mid-drain connect");
    match late.infer("m", &[1, 28, 28], &img) {
        Err(ServeError::Remote { kind, .. }) => assert_eq!(kind, ErrorKind::Draining),
        other => panic!("expected remote Draining, got {other:?}"),
    }

    // Advance simulated time past the batch deadline: the session
    // dispatches, the reply is written, and the drain completes.
    clock.advance(Duration::from_secs(3601));
    let served = infer_thread
        .join()
        .expect("infer thread")
        .expect("in-flight reply must be delivered during drain");
    assert_eq!(served, expected.data(), "drained reply must stay bit-exact");

    let server = shutdown_thread.join().expect("shutdown thread");
    let stats = server.stats();
    assert!(stats.drained >= 1, "{stats:?}");
    assert!(stats.refused >= 1, "{stats:?}");
}

// ------------------------------------------------------------- retries

/// A scripted one-connection server: answers `script` responses to
/// consecutive frames on one accepted connection, then exits.
fn scripted_server(listener: TcpListener, script: Vec<Response>) -> std::thread::JoinHandle<usize> {
    std::thread::spawn(move || {
        let (mut s, _) = listener.accept().expect("accept");
        let mut frames = 0usize;
        for resp in script {
            match read_frame(&mut s) {
                Ok(Frame::Payload(p)) => {
                    decode_payload::<Request>(&p).expect("well-formed request");
                    frames += 1;
                    write_frame(&mut s, &encode_payload(&resp)).expect("reply");
                }
                _ => break,
            }
        }
        frames
    })
}

fn quick_retries(max_attempts: u32) -> ClientConfig {
    ClientConfig {
        retry: RetryPolicy {
            max_attempts,
            base_backoff: Duration::from_millis(1),
            max_backoff: Duration::from_millis(5),
            overall_deadline: Some(Duration::from_secs(30)),
            seed: 11,
        },
        ..ClientConfig::default()
    }
}

#[test]
fn client_retries_overloaded_until_success() {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let overloaded = Response::Error {
        kind: ErrorKind::Overloaded,
        message: "full".into(),
    };
    let script = vec![
        overloaded.clone(),
        overloaded,
        Response::Logits(vec![1.0, 2.0]),
    ];
    let served = scripted_server(listener, script);

    let mut client = Client::connect_with(addr, quick_retries(5)).expect("connect");
    let logits = client.infer("m", &[1, 2], &[0.0, 0.0]).expect("retried");
    assert_eq!(logits, vec![1.0, 2.0]);
    assert_eq!(client.last_call_attempts(), 3);
    assert_eq!(served.join().expect("script"), 3);
}

#[test]
fn client_reconnects_after_a_transport_failure() {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let server = std::thread::spawn(move || {
        // Connection 1: read the request, hang up without answering.
        let (mut s, _) = listener.accept().expect("accept 1");
        let _ = read_frame(&mut s);
        drop(s);
        // Connection 2: serve properly.
        let (mut s, _) = listener.accept().expect("accept 2");
        match read_frame(&mut s) {
            Ok(Frame::Payload(_)) => {
                write_frame(&mut s, &encode_payload(&Response::Logits(vec![9.0]))).expect("reply");
            }
            other => panic!("expected a frame on the reconnect, got {other:?}"),
        }
    });

    let mut client = Client::connect_with(addr, quick_retries(3)).expect("connect");
    let logits = client.infer("m", &[1, 1], &[0.0]).expect("reconnected");
    assert_eq!(logits, vec![9.0]);
    assert_eq!(client.last_call_attempts(), 2);
    server.join().expect("server thread");
}

#[test]
fn typed_request_errors_are_not_retried() {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let served = scripted_server(
        listener,
        vec![Response::Error {
            kind: ErrorKind::NotFound,
            message: "no such model".into(),
        }],
    );

    // Generous retry budget — it must not be used for NotFound.
    let mut client = Client::connect_with(addr, quick_retries(5)).expect("connect");
    match client.infer("ghost", &[1, 1], &[0.0]) {
        Err(ServeError::Remote { kind, .. }) => assert_eq!(kind, ErrorKind::NotFound),
        other => panic!("expected remote NotFound, got {other:?}"),
    }
    assert_eq!(client.last_call_attempts(), 1);
    assert_eq!(served.join().expect("script"), 1, "exactly one frame sent");
}

#[test]
fn no_retry_policy_fails_fast_on_overload() {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let served = scripted_server(
        listener,
        vec![Response::Error {
            kind: ErrorKind::Overloaded,
            message: "full".into(),
        }],
    );

    let mut client = Client::connect(addr).expect("connect");
    assert!(matches!(
        client.infer("m", &[1, 1], &[0.0]),
        Err(ServeError::Remote {
            kind: ErrorKind::Overloaded,
            ..
        })
    ));
    assert_eq!(client.last_call_attempts(), 1);
    assert_eq!(served.join().expect("script"), 1);
}

/// The jittered first backoff is at least half of 1 s, which overruns a
/// 400 ms budget: the client must surface the first `Overloaded` rather
/// than sleep into a retry. The script holds a second answer, so a retry
/// would show up as a second served frame.
#[test]
fn client_stops_retrying_when_the_backoff_would_overrun_the_deadline() {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let overloaded = Response::Error {
        kind: ErrorKind::Overloaded,
        message: "full".into(),
    };
    let served = scripted_server(listener, vec![overloaded.clone(), overloaded]);

    let cfg = ClientConfig {
        retry: RetryPolicy {
            max_attempts: 5,
            base_backoff: Duration::from_secs(1),
            max_backoff: Duration::from_secs(1),
            overall_deadline: Some(Duration::from_millis(400)),
            seed: 11,
        },
        ..ClientConfig::default()
    };
    let mut client = Client::connect_with(addr, cfg).expect("connect");
    assert!(matches!(
        client.infer("m", &[1, 1], &[0.0]),
        Err(ServeError::Remote {
            kind: ErrorKind::Overloaded,
            ..
        })
    ));
    assert_eq!(client.last_call_attempts(), 1);
    drop(client);
    assert_eq!(
        served.join().expect("script"),
        1,
        "exactly one frame served"
    );
}

/// The `Hello` exchange (only `MuxClient` sends one) refuses a server
/// that answers with a version it did not offer (or with 0).
#[test]
fn clients_refuse_a_hello_answer_outside_their_offer() {
    for version in [0, MAX_PROTOCOL_VERSION + 1] {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let served = scripted_server(listener, vec![Response::Hello { version }]);
        let result = MuxClient::connect(addr).map(|_| ());
        assert!(
            matches!(result, Err(ServeError::Protocol(_))),
            "version {version}: {result:?}"
        );
        assert_eq!(served.join().expect("script"), 1, "one Hello frame");
    }
}

// ------------------------------------------------------------- stats

/// The robustness counters travel the wire: `Request::ServerStats`
/// returns the same snapshot the in-process accessor reports.
#[test]
fn server_stats_are_served_over_the_wire() {
    let mut server = empty_server(ServerConfig::default());
    let addr = server.local_addr();

    let mut client = Client::connect(addr).expect("connect");
    assert!(client.list_models().expect("round trip").is_empty());
    let wire = client.server_stats().expect("server stats");
    assert!(wire.accepted >= 1, "{wire:?}");
    assert_eq!(wire.refused, 0);
    assert_eq!(wire.timed_out, 0);
    assert_eq!(wire.drained, 0);
    let local = server.stats();
    assert_eq!(wire.accepted, local.accepted);
    assert_eq!(wire.protocol_errors, local.protocol_errors);
    server.shutdown();
}

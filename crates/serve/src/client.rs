//! A blocking client for the [`crate::server`] protocol, with per-call
//! socket timeouts and a deterministic retry policy.
//!
//! Retries are safe *because inference is pure*: `infer` is bit-exact
//! and side-effect free, so re-sending a request whose reply was lost
//! can never change a result. The policy therefore retries exactly the
//! failures where the server's answer is "not now, nothing is wrong
//! with the request": transport errors, [`ErrorKind::Overloaded`]
//! backpressure, and [`ErrorKind::Draining`] shutdowns. Typed request
//! errors (`NotFound`, `InvalidRequest`, …) fail fast — retrying them
//! would just repeat the refusal.

use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::time::Duration;

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use crate::clock::{Clock, SystemClock};
use crate::error::{Result, ServeError};
use crate::protocol::{
    decode_payload, decode_payload_v2, encode_payload, encode_payload_v2, read_frame, write_frame,
    ErrorKind, Frame, Request, Response, WireModelInfo, MAX_PROTOCOL_VERSION, PROTOCOL_V1,
    PROTOCOL_V2,
};
use crate::stats::{ServerStats, SessionStats};

/// When and how [`Client`] retries a failed call.
///
/// Backoff before attempt `n+1` is `min(base_backoff · 2ⁿ,
/// max_backoff)` scaled by a jitter factor in `[0.5, 1.0)` drawn from
/// a [`StdRng`] seeded with `seed` — the whole schedule is a pure
/// function of the policy, so tests replay it exactly.
#[derive(Debug, Clone, PartialEq)]
pub struct RetryPolicy {
    /// Total attempts (first try included). `1` means fail fast.
    pub max_attempts: u32,
    /// Backoff before the first retry; doubles per attempt.
    pub base_backoff: Duration,
    /// Ceiling the exponential backoff saturates at.
    pub max_backoff: Duration,
    /// Overall budget across all attempts and backoffs, measured from
    /// the start of the call; `None` bounds the call only by
    /// `max_attempts`.
    pub overall_deadline: Option<Duration>,
    /// Seed of the jitter stream.
    pub seed: u64,
}

impl RetryPolicy {
    /// No retries: every failure surfaces on the first attempt.
    pub fn none() -> Self {
        RetryPolicy {
            max_attempts: 1,
            base_backoff: Duration::ZERO,
            max_backoff: Duration::ZERO,
            overall_deadline: None,
            seed: 0,
        }
    }
}

impl Default for RetryPolicy {
    /// Four attempts, 10 ms base backoff capped at 1 s, 30 s overall.
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 4,
            base_backoff: Duration::from_millis(10),
            max_backoff: Duration::from_secs(1),
            overall_deadline: Some(Duration::from_secs(30)),
            seed: 0x5eed_cafe,
        }
    }
}

/// Jittered exponential backoff before retry number `attempt`
/// (0-based). Pure: the same `(policy, attempt, rng state)` always
/// produces the same delay.
fn backoff_delay(policy: &RetryPolicy, attempt: u32, rng: &mut StdRng) -> Duration {
    let doubled = policy
        .base_backoff
        .saturating_mul(1u32.checked_shl(attempt).unwrap_or(u32::MAX));
    let capped = doubled.min(policy.max_backoff);
    let jitter: f64 = rng.random_range(0.5f64..1.0);
    capped.mul_f64(jitter)
}

/// Socket timeouts and retry behavior for a [`Client`].
#[derive(Debug, Clone, PartialEq)]
pub struct ClientConfig {
    /// Per-read socket deadline (covers waiting for a reply frame).
    pub read_timeout: Option<Duration>,
    /// Per-write socket deadline.
    pub write_timeout: Option<Duration>,
    /// The retry policy; [`RetryPolicy::none`] by default, so plain
    /// [`Client::connect`] behaves exactly like the pre-retry client.
    pub retry: RetryPolicy,
}

impl Default for ClientConfig {
    fn default() -> Self {
        ClientConfig {
            read_timeout: Some(Duration::from_secs(30)),
            write_timeout: Some(Duration::from_secs(30)),
            retry: RetryPolicy::none(),
        }
    }
}

/// A connected client speaking one request/response at a time, in
/// protocol v1 (no `Hello`; [`MuxClient`] is the v2 client).
pub struct Client {
    addrs: Vec<SocketAddr>,
    cfg: ClientConfig,
    rng: StdRng,
    stream: Option<TcpStream>,
    last_attempts: u32,
}

impl Client {
    /// Connects to a running [`crate::server::Server`] with default
    /// timeouts and no retries.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::Io`] when the connect fails.
    pub fn connect(addr: impl ToSocketAddrs) -> Result<Client> {
        Client::connect_with(addr, ClientConfig::default())
    }

    /// Connects with explicit timeouts and retry policy.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::Io`] when the connect fails.
    pub fn connect_with(addr: impl ToSocketAddrs, cfg: ClientConfig) -> Result<Client> {
        let rng = StdRng::seed_from_u64(cfg.retry.seed);
        let mut client = Client {
            addrs: resolve(addr)?,
            cfg,
            rng,
            stream: None,
            last_attempts: 0,
        };
        client.ensure_connected()?;
        Ok(client)
    }

    /// Attempts the most recent call made, including the successful
    /// one — `1` when the first try succeeded. Exposed so retry tests
    /// can assert the schedule actually ran.
    pub fn last_call_attempts(&self) -> u32 {
        self.last_attempts
    }

    /// Re-establishes the connection if the last call tore it down.
    fn ensure_connected(&mut self) -> Result<()> {
        if self.stream.is_none() {
            self.stream = Some(open_stream(
                &self.addrs,
                self.cfg.read_timeout,
                self.cfg.write_timeout,
            )?);
        }
        Ok(())
    }

    /// One wire round trip. Transport failures drop the stream so the
    /// next attempt reconnects; a typed server error leaves the
    /// (healthy) connection in place and surfaces as
    /// [`ServeError::Remote`].
    fn call_once(&mut self, request: &Request) -> Result<Response> {
        let outcome: Result<Response> = (|| {
            self.ensure_connected()?;
            let stream = self
                .stream
                .as_mut()
                .ok_or_else(|| ServeError::Io("not connected".into()))?;
            write_frame(stream, &encode_payload(request))?;
            match read_frame(stream)? {
                Frame::Payload(payload) => decode_payload(&payload),
                Frame::Closed => Err(ServeError::Io(
                    "server closed the connection mid-call".into(),
                )),
            }
        })();
        match outcome {
            Ok(Response::Error { kind, message }) => Err(ServeError::Remote { kind, message }),
            Ok(resp) => Ok(resp),
            Err(e) => {
                self.stream = None;
                Err(e)
            }
        }
    }

    /// One request/response round trip under the retry policy.
    fn call(&mut self, request: &Request) -> Result<Response> {
        let deadline = self
            .cfg
            .retry
            .overall_deadline
            .and_then(|d| SystemClock.now().checked_add(d));
        let max_attempts = self.cfg.retry.max_attempts.max(1);
        let mut attempt = 0u32;
        loop {
            attempt += 1;
            self.last_attempts = attempt;
            let err = match self.call_once(request) {
                Ok(resp) => return Ok(resp),
                Err(e) => e,
            };
            if !is_retryable(&err) || attempt >= max_attempts {
                return Err(err);
            }
            let delay = backoff_delay(&self.cfg.retry, attempt - 1, &mut self.rng);
            if let Some(deadline) = deadline {
                // Would the backoff alone blow the budget? Give up and
                // surface the last failure rather than oversleeping.
                match SystemClock.now().checked_add(delay) {
                    Some(resumes_at) if resumes_at <= deadline => {}
                    _ => return Err(err),
                }
            }
            if !delay.is_zero() {
                std::thread::sleep(delay);
            }
        }
    }

    /// Runs one image (per-image dims, e.g. `[1, 28, 28]`) through
    /// `model`'s session and returns its logits row.
    ///
    /// # Errors
    ///
    /// [`ServeError::Remote`] carrying the server's typed error, or
    /// transport errors (after the retry policy is exhausted).
    pub fn infer(&mut self, model: &str, dims: &[usize], data: &[f32]) -> Result<Vec<f32>> {
        match self.call(&Request::Infer {
            model: model.into(),
            dims: dims.to_vec(),
            data: data.to_vec(),
        })? {
            Response::Logits(logits) => Ok(logits),
            other => Err(ServeError::Protocol(format!(
                "expected Logits, got {other:?}"
            ))),
        }
    }

    /// Lists the models the server's registry knows.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Client::infer`].
    pub fn list_models(&mut self) -> Result<Vec<WireModelInfo>> {
        match self.call(&Request::ListModels)? {
            Response::Models(models) => Ok(models),
            other => Err(ServeError::Protocol(format!(
                "expected Models, got {other:?}"
            ))),
        }
    }

    /// Fetches one model's serving counters.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Client::infer`].
    pub fn stats(&mut self, model: &str) -> Result<SessionStats> {
        match self.call(&Request::Stats {
            model: model.into(),
        })? {
            Response::Stats(stats) => Ok(stats),
            other => Err(ServeError::Protocol(format!(
                "expected Stats, got {other:?}"
            ))),
        }
    }

    /// Fetches the server's connection robustness counters.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Client::infer`].
    pub fn server_stats(&mut self) -> Result<ServerStats> {
        match self.call(&Request::ServerStats)? {
            Response::ServerStats(stats) => Ok(stats),
            other => Err(ServeError::Protocol(format!(
                "expected ServerStats, got {other:?}"
            ))),
        }
    }
}

/// A pipelining protocol-v2 client: many requests in flight on one
/// connection, replies keyed by request id.
///
/// [`MuxClient::submit`] writes a request and returns immediately with
/// its id; [`MuxClient::recv`] blocks for the *next* reply, which —
/// this being the whole point of v2 — may answer any outstanding id.
/// Pair them however the workload likes (a fixed window, fire-all-
/// then-drain, one reader thread). No retry machinery: a pipelined
/// stream has no safe notion of "re-send just this one", so transport
/// errors surface raw and the caller reconnects.
pub struct MuxClient {
    stream: TcpStream,
    version: u32,
    next_id: u64,
}

impl MuxClient {
    /// Connects and negotiates protocol v2 with default timeouts.
    ///
    /// # Errors
    ///
    /// [`ServeError::Io`] when the connect fails, and
    /// [`ServeError::Protocol`] when the server only speaks v1 —
    /// multiplexing is meaningless without request ids.
    pub fn connect(addr: impl ToSocketAddrs) -> Result<MuxClient> {
        MuxClient::connect_with(
            addr,
            Some(Duration::from_secs(30)),
            Some(Duration::from_secs(30)),
        )
    }

    /// [`MuxClient::connect`] with explicit socket timeouts.
    ///
    /// # Errors
    ///
    /// Same conditions as [`MuxClient::connect`].
    pub fn connect_with(
        addr: impl ToSocketAddrs,
        read_timeout: Option<Duration>,
        write_timeout: Option<Duration>,
    ) -> Result<MuxClient> {
        let mut stream = open_stream(&resolve(addr)?, read_timeout, write_timeout)?;
        let version = hello(&mut stream)?;
        if version < PROTOCOL_V2 {
            return Err(ServeError::Protocol(format!(
                "server negotiated protocol version {version}; multiplexing requires v2"
            )));
        }
        Ok(MuxClient {
            stream,
            version,
            next_id: 0,
        })
    }

    /// The version the server answered the handshake with.
    pub fn negotiated_version(&self) -> u32 {
        self.version
    }

    /// Writes one request frame and returns its request id without
    /// waiting for the reply.
    ///
    /// # Errors
    ///
    /// [`ServeError::Io`] on transport failure; the connection is then
    /// unusable.
    pub fn submit(&mut self, request: &Request) -> Result<u64> {
        let id = self.next_id;
        self.next_id = self.next_id.wrapping_add(1);
        write_frame(&mut self.stream, &encode_payload_v2(id, request))?;
        Ok(id)
    }

    /// [`MuxClient::submit`] for the common inference case.
    ///
    /// # Errors
    ///
    /// Same conditions as [`MuxClient::submit`].
    pub fn submit_infer(&mut self, model: &str, dims: &[usize], data: &[f32]) -> Result<u64> {
        self.submit(&Request::Infer {
            model: model.into(),
            dims: dims.to_vec(),
            data: data.to_vec(),
        })
    }

    /// Blocks for the next reply frame, whichever outstanding request
    /// it answers. Connection-scoped frames (timeouts, drain notices)
    /// come back under [`crate::protocol::CONNECTION_SCOPED_ID`].
    ///
    /// # Errors
    ///
    /// [`ServeError::Io`] on transport failure or server hang-up,
    /// [`ServeError::Protocol`] on an undecodable reply. A typed
    /// server error is **not** an `Err` here — it is a
    /// `(id, Response::Error { .. })` value, because it answers one
    /// request while others remain in flight.
    pub fn recv(&mut self) -> Result<(u64, Response)> {
        match read_frame(&mut self.stream)? {
            Frame::Payload(payload) => decode_payload_v2::<Response>(&payload),
            Frame::Closed => Err(ServeError::Io(
                "server closed the connection with replies outstanding".into(),
            )),
        }
    }
}

/// Resolves `addr` to the socket addresses a connect tries in order.
fn resolve(addr: impl ToSocketAddrs) -> Result<Vec<SocketAddr>> {
    Ok(addr
        .to_socket_addrs()
        .map_err(|e| ServeError::Io(format!("resolve: {e}")))?
        .collect())
}

/// Connects to the first of `addrs` that accepts, with Nagle off and
/// the given socket deadlines.
fn open_stream(
    addrs: &[SocketAddr],
    read_timeout: Option<Duration>,
    write_timeout: Option<Duration>,
) -> Result<TcpStream> {
    let mut last_err = None;
    for addr in addrs {
        match TcpStream::connect(addr) {
            Ok(s) => {
                let _ = s.set_nodelay(true);
                let _ = s.set_read_timeout(read_timeout);
                let _ = s.set_write_timeout(write_timeout);
                return Ok(s);
            }
            Err(e) => last_err = Some(e),
        }
    }
    Err(ServeError::Io(match last_err {
        Some(e) => format!("connect: {e}"),
        None => "address resolved to nothing".into(),
    }))
}

/// The v1-framed `Hello` exchange on a fresh stream: offers versions up
/// to [`MAX_PROTOCOL_VERSION`] and returns the server's pick, refusing
/// one outside `1..=MAX_PROTOCOL_VERSION`.
fn hello(stream: &mut TcpStream) -> Result<u32> {
    let offered = MAX_PROTOCOL_VERSION;
    write_frame(
        stream,
        &encode_payload(&Request::Hello {
            max_version: offered,
        }),
    )?;
    match read_frame(stream)? {
        Frame::Payload(payload) => match decode_payload::<Response>(&payload)? {
            Response::Hello { version } if (PROTOCOL_V1..=offered).contains(&version) => {
                Ok(version)
            }
            Response::Hello { version } => Err(ServeError::Protocol(format!(
                "server negotiated unsupported protocol version {version} (offered up to \
                 {offered})"
            ))),
            Response::Error { kind, message } => Err(ServeError::Remote { kind, message }),
            other => Err(ServeError::Protocol(format!(
                "expected Hello, got {other:?}"
            ))),
        },
        Frame::Closed => Err(ServeError::Io(
            "server closed the connection during the version handshake".into(),
        )),
    }
}

/// The retry gate: transport failures plus the two "not now" server
/// answers. Everything else is a fact about the request and fails
/// fast.
fn is_retryable(e: &ServeError) -> bool {
    match e {
        ServeError::Io(_) => true,
        ServeError::Remote { kind, .. } => {
            matches!(kind, ErrorKind::Overloaded | ErrorKind::Draining)
        }
        _ => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_is_deterministic_for_a_seed() {
        let policy = RetryPolicy::default();
        let mut a = StdRng::seed_from_u64(policy.seed);
        let mut b = StdRng::seed_from_u64(policy.seed);
        for attempt in 0..6 {
            assert_eq!(
                backoff_delay(&policy, attempt, &mut a),
                backoff_delay(&policy, attempt, &mut b)
            );
        }
    }

    #[test]
    fn backoff_doubles_within_jitter_bounds_and_caps() {
        let policy = RetryPolicy {
            max_attempts: 10,
            base_backoff: Duration::from_millis(10),
            max_backoff: Duration::from_millis(160),
            overall_deadline: None,
            seed: 7,
        };
        let mut rng = StdRng::seed_from_u64(policy.seed);
        for attempt in 0..12 {
            let nominal = policy
                .base_backoff
                .saturating_mul(1u32.checked_shl(attempt).unwrap_or(u32::MAX))
                .min(policy.max_backoff);
            let d = backoff_delay(&policy, attempt, &mut rng);
            // Jitter is in [0.5, 1.0); pad the bounds one nanosecond
            // for `mul_f64`'s rounding.
            assert!(
                d + Duration::from_nanos(1) >= nominal.mul_f64(0.5),
                "attempt {attempt}: {d:?}"
            );
            assert!(d <= nominal, "attempt {attempt}: {d:?} vs {nominal:?}");
            if attempt >= 4 {
                // 10 ms · 2⁴ = 160 ms hits the cap.
                assert!(d < policy.max_backoff);
            }
        }
    }

    #[test]
    fn huge_attempt_counts_saturate_instead_of_overflowing() {
        let policy = RetryPolicy {
            max_attempts: u32::MAX,
            base_backoff: Duration::from_secs(1),
            max_backoff: Duration::from_secs(5),
            overall_deadline: None,
            seed: 1,
        };
        let mut rng = StdRng::seed_from_u64(policy.seed);
        let d = backoff_delay(&policy, 64, &mut rng);
        assert!(d <= policy.max_backoff);
    }

    #[test]
    fn retry_gate_matches_the_contract() {
        assert!(is_retryable(&ServeError::Io("broken pipe".into())));
        assert!(is_retryable(&ServeError::Remote {
            kind: ErrorKind::Overloaded,
            message: String::new(),
        }));
        assert!(is_retryable(&ServeError::Remote {
            kind: ErrorKind::Draining,
            message: String::new(),
        }));
        for kind in [
            ErrorKind::NotFound,
            ErrorKind::BadArtifact,
            ErrorKind::InvalidRequest,
            ErrorKind::Engine,
            ErrorKind::Protocol,
            ErrorKind::Internal,
            ErrorKind::Timeout,
        ] {
            assert!(
                !is_retryable(&ServeError::Remote {
                    kind,
                    message: String::new(),
                }),
                "{kind:?} must fail fast"
            );
        }
        assert!(!is_retryable(&ServeError::Protocol("desync".into())));
        assert!(!is_retryable(&ServeError::ShuttingDown));
    }

    #[test]
    fn none_policy_is_single_attempt() {
        let p = RetryPolicy::none();
        assert_eq!(p.max_attempts, 1);
        assert_eq!(p.base_backoff, Duration::ZERO);
    }
}

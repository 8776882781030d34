//! The connection lifecycle, decided once: a sans-IO state machine that
//! the server's event loop drives.
//!
//! A [`Connection`] holds everything one client connection means to
//! the server: framing, Hello negotiation, v1 ordering, the deadlines,
//! typed refusals and the two-phase drain accounting. It does no I/O.
//! It never touches a socket, never creates a thread and never reads
//! the clock. A serving core feeds it what happened, each event stamped
//! with the core's `now`:
//!
//! - bytes received ([`Connection::on_bytes`]) and peer EOF
//!   ([`Connection::on_eof`]);
//! - bytes written ([`Connection::on_written`]);
//! - a finished inference ([`Connection::on_completion`]);
//! - a clock tick at or past [`Connection::next_deadline`]
//!   ([`Connection::on_tick`]).
//!
//! The core then acts on what the connection returns: reply bytes
//! ([`Connection::pending`]), `Infer` submissions to run
//! ([`Connection::take_submission`]), and what to do with the socket
//! ([`Connection::action`]). The epoll core (`crate::event_loop`) drives
//! every connection from one readiness loop.
//!
//! # Contracts
//!
//! - **Idle vs stalled**: a connection parked at a frame boundary lives
//!   under `idle_timeout` (quiet close). The first byte of a frame arms
//!   an *absolute* `read_timeout` deadline that trickled bytes cannot
//!   extend; expiry is answered once with a typed
//!   [`ErrorKind::Timeout`], then hang-up.
//! - **Admission**: [`Connection::accept`] refuses mid-drain connects
//!   with [`ErrorKind::Draining`] and over-limit connects with
//!   [`ErrorKind::Overloaded`], as a frame like any other reply.
//! - **Hang-up**: every final error frame (refusal, timeout, bad length
//!   prefix, drain, version-0 Hello) is followed by a write-half close
//!   and a bounded linger that discards peer bytes, so the frame is not
//!   lost to an RST.
//! - **Drain accounting**: `busy` rises when a complete frame is parsed
//!   and falls when its reply's last byte is written, or when the
//!   connection is dropped, so [`crate::server::Server::shutdown`]'s
//!   drain wait holds until in-flight replies are on the wire.
//! - **Ordering**: v1 frames are served one at a time (parsing holds
//!   while a request is in flight). v2 frames all enter the
//!   micro-batcher at once and are answered in completion order under
//!   their request ids.

use std::collections::VecDeque;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::error::{Result, ServeError};
use crate::protocol::{
    check_frame_len, classify, decode_payload, decode_payload_v2, encode_payload,
    encode_payload_v2, negotiate_version, ErrorKind, Request, Response, WireModelInfo,
    CONNECTION_SCOPED_ID, MAX_FRAME_BYTES, PROTOCOL_V1, PROTOCOL_V2,
};
use crate::server::ServerShared;

/// How long a connection whose write half is closed may keep
/// discarding peer bytes before it is closed outright.
const LINGER_TIMEOUT: Duration = Duration::from_millis(250);

/// What the serving core should do with the socket after feeding events.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Action {
    /// Keep going: write [`Connection::pending`], read until EOF, tick
    /// at [`Connection::next_deadline`].
    Serve,
    /// Shut the socket's write half now, then keep reading (the bytes
    /// are discarded) until EOF or the linger deadline.
    HalfClose,
    /// Close the socket now.
    Close,
}

/// One `Infer` request for the serving core to run. Its result goes back
/// through [`Connection::on_completion`] under `id`.
pub(crate) struct Submission {
    pub(crate) id: u64,
    pub(crate) model: String,
    pub(crate) dims: Vec<usize>,
    pub(crate) data: Vec<f32>,
}

/// Where a connection is in its life.
enum Phase {
    /// Serving: reading frames, writing replies.
    Open,
    /// No more frames will be served (refusal, timeout or drain
    /// answered). Once in-flight replies are written: half-close and
    /// linger, or close outright if the peer already hung up.
    Finishing,
    /// Write half closed; discarding peer bytes until EOF or the
    /// deadline.
    Lingering {
        deadline: Instant,
    },
    Closed,
}

/// A reply frame's record in the write buffer: when `sent_total`
/// passes `end`, the reply is on the wire.
struct Marker {
    end: u64,
    /// Whether writing it releases a `busy` count (and counts toward
    /// `drained` during a drain). False for refusal, timeout and drain
    /// frames, which answer no accepted request.
    counts_busy: bool,
}

/// One connection's lifecycle state.
pub(crate) struct Connection {
    shared: Arc<ServerShared>,
    /// Received-but-unparsed bytes.
    rbuf: Vec<u8>,
    /// Negotiated protocol version; `None` until the first frame.
    version: Option<u32>,
    /// Reply bytes; `[wstart..]` still pending.
    wbuf: Vec<u8>,
    wstart: usize,
    /// Lifetime bytes queued/written, so marker arithmetic survives
    /// buffer compaction.
    queued_total: u64,
    sent_total: u64,
    markers: VecDeque<Marker>,
    submissions: VecDeque<Submission>,
    /// Submitted requests whose completions are pending, including
    /// those still in `submissions`.
    inflight: usize,
    /// Absolute mid-frame deadline, armed at a partial frame's first
    /// byte.
    frame_deadline: Option<Instant>,
    /// When this connection last sat at a clean frame boundary (the
    /// idle clock).
    boundary_since: Instant,
    /// Absolute reply-write deadline, re-armed on write progress.
    write_deadline: Option<Instant>,
    /// The peer closed its sending half (it may still be reading).
    peer_eof: bool,
    phase: Phase,
    /// Holds an `active` slot (false for refusals).
    served: bool,
}

impl Connection {
    /// A freshly accepted connection, through the admission gate: the
    /// drain flag first, then `max_connections`. A refused connection
    /// starts out finishing with its typed refusal queued.
    pub(crate) fn accept(shared: Arc<ServerShared>, now: Instant) -> Connection {
        let refusal = if shared.draining.load(Ordering::SeqCst) {
            Some(draining())
        } else {
            let active = shared.active.load(Ordering::SeqCst);
            (active >= shared.cfg.max_connections).then(|| Response::Error {
                kind: ErrorKind::Overloaded,
                message: format!("server at its connection limit ({active} active)"),
            })
        };
        let mut conn = Connection {
            shared,
            rbuf: Vec::new(),
            version: None,
            wbuf: Vec::new(),
            wstart: 0,
            queued_total: 0,
            sent_total: 0,
            markers: VecDeque::new(),
            submissions: VecDeque::new(),
            inflight: 0,
            frame_deadline: None,
            boundary_since: now,
            write_deadline: None,
            peer_eof: false,
            phase: Phase::Open,
            served: false,
        };
        match refusal {
            Some(resp) => {
                conn.shared.counters.inc_refused();
                conn.finish_with(PROTOCOL_V1, CONNECTION_SCOPED_ID, &resp, now);
            }
            None => {
                conn.served = true;
                conn.shared.counters.inc_accepted();
                conn.shared.active.fetch_add(1, Ordering::SeqCst);
            }
        }
        conn
    }

    /// Reply bytes waiting to be written.
    pub(crate) fn pending(&self) -> &[u8] {
        self.wbuf.get(self.wstart..).unwrap_or_default()
    }

    /// Whether the serving core should keep reading the socket (the
    /// epoll core's read interest): false once the peer sent EOF.
    pub(crate) fn wants_read(&self) -> bool {
        !self.peer_eof
    }

    /// The next `Infer` request to run.
    pub(crate) fn take_submission(&mut self) -> Option<Submission> {
        self.submissions.pop_front()
    }

    /// When [`Connection::on_tick`] must next run, if any deadline is
    /// armed.
    pub(crate) fn next_deadline(&self) -> Option<Instant> {
        let read = match self.phase {
            Phase::Open => self.frame_deadline.or_else(|| self.idle_deadline()),
            Phase::Lingering { deadline } => Some(deadline),
            Phase::Finishing | Phase::Closed => None,
        };
        [read, self.write_deadline].into_iter().flatten().min()
    }

    /// Bytes arrived from the peer: parse and serve every complete
    /// frame. Bytes arriving after the connection stopped serving are
    /// discarded.
    pub(crate) fn on_bytes(&mut self, bytes: &[u8], now: Instant) {
        if matches!(self.phase, Phase::Open) {
            self.rbuf.extend_from_slice(bytes);
            self.parse(now);
        }
    }

    /// The peer closed its sending half. A half-closed peer is still
    /// served every buffered frame; EOF during a linger means the final
    /// frame was deliverable, so the connection closes.
    pub(crate) fn on_eof(&mut self, now: Instant) {
        self.peer_eof = true;
        match self.phase {
            Phase::Open => self.parse(now),
            Phase::Lingering { .. } => self.phase = Phase::Closed,
            Phase::Finishing | Phase::Closed => {}
        }
    }

    /// The serving core wrote the first `n` bytes of [`Connection::pending`]:
    /// release every reply now fully on the wire and keep the write
    /// deadline.
    pub(crate) fn on_written(&mut self, n: usize, now: Instant) {
        self.wstart += n;
        self.sent_total += n as u64;
        if self.pending().is_empty() {
            self.wbuf.clear();
            self.wstart = 0;
            self.write_deadline = None;
        } else if n > 0 {
            // A peer that keeps taking bytes keeps its budget; one that
            // stops reading is reaped when the deadline lapses.
            self.write_deadline = self
                .shared
                .cfg
                .write_timeout
                .and_then(|t| now.checked_add(t));
        }
        let draining = self.shared.draining.load(Ordering::SeqCst);
        while let Some(marker) = self.markers.front() {
            if marker.end > self.sent_total {
                break;
            }
            if marker.counts_busy {
                self.shared.busy.fetch_sub(1, Ordering::SeqCst);
                if draining {
                    self.shared.counters.inc_drained();
                }
            }
            self.markers.pop_front();
        }
    }

    /// A submission finished: queue its reply under the connection's
    /// version and resume parsing (a v1 connection may have its next
    /// frame waiting on exactly this reply).
    pub(crate) fn on_completion(&mut self, id: u64, result: Result<Vec<f32>>, now: Instant) {
        self.inflight = self.inflight.saturating_sub(1);
        let resp = match result {
            Ok(logits) => Response::Logits(logits),
            Err(e) => error_response(&e),
        };
        self.queue_reply(self.wire_version(), id, &resp, true, now);
        self.parse(now);
    }

    /// Expires whatever deadline lapsed at `now`.
    pub(crate) fn on_tick(&mut self, now: Instant) {
        match self.phase {
            Phase::Lingering { deadline } if now >= deadline => self.phase = Phase::Closed,
            Phase::Open => {
                if self.frame_deadline.is_some_and(|d| now >= d) {
                    // Slow-loris: answer once with the typed timeout,
                    // stop reading, hang up after the write.
                    self.shared.counters.inc_timed_out();
                    self.frame_deadline = None;
                    self.rbuf.clear();
                    let resp = Response::Error {
                        kind: ErrorKind::Timeout,
                        message: "connection stalled mid-frame past read_timeout".into(),
                    };
                    self.finish_with(self.wire_version(), CONNECTION_SCOPED_ID, &resp, now);
                } else if self.idle_deadline().is_some_and(|d| now >= d) {
                    // Idle past its welcome: close quietly, with no error
                    // frame and no counter.
                    self.phase = Phase::Closed;
                }
            }
            _ => {}
        }
        if self.write_deadline.is_some_and(|d| now >= d) {
            // A zero-window peer stalling reply writes.
            self.phase = Phase::Closed;
        }
    }

    /// Moves the phase forward once its obligations are met and says
    /// what to do with the socket. Call after feeding events and
    /// writing what the socket took; [`Action::HalfClose`] is returned
    /// once, and the serving core must act on it.
    pub(crate) fn action(&mut self, now: Instant) -> Action {
        match self.phase {
            Phase::Open if self.peer_eof && self.at_boundary() => {
                self.phase = Phase::Closed;
                Action::Close
            }
            Phase::Finishing if self.inflight == 0 && self.pending().is_empty() => {
                match now.checked_add(LINGER_TIMEOUT) {
                    Some(deadline) if !self.peer_eof => {
                        self.phase = Phase::Lingering { deadline };
                        Action::HalfClose
                    }
                    _ => {
                        self.phase = Phase::Closed;
                        Action::Close
                    }
                }
            }
            Phase::Closed => Action::Close,
            _ => Action::Serve,
        }
    }

    fn wire_version(&self) -> u32 {
        self.version.unwrap_or(PROTOCOL_V1)
    }

    /// Clean frame boundary with nothing pending in either direction:
    /// the only state `idle_timeout` applies to.
    fn at_boundary(&self) -> bool {
        // Every queued byte belongs to a marker, so no markers means
        // nothing left to write.
        self.rbuf.is_empty() && self.inflight == 0 && self.markers.is_empty()
    }

    fn idle_deadline(&self) -> Option<Instant> {
        if matches!(self.phase, Phase::Open) && self.at_boundary() && !self.peer_eof {
            self.shared
                .cfg
                .idle_timeout
                .and_then(|t| self.boundary_since.checked_add(t))
        } else {
            None
        }
    }

    /// Parses and serves every currently parseable frame, then re-arms
    /// the boundary/mid-frame deadline state.
    fn parse(&mut self, now: Instant) {
        // Frames are served out of the taken buffer; nothing below
        // touches `self.rbuf` until it is put back.
        let rbuf = std::mem::take(&mut self.rbuf);
        let mut pos = 0usize;
        let mut incomplete = false;
        while matches!(self.phase, Phase::Open) {
            // v1 has no request ids: replies must leave in request
            // order, so serving holds while one request is in flight.
            if self.inflight > 0 && self.version.is_some_and(|v| v < PROTOCOL_V2) {
                break;
            }
            let Some(Ok(prefix)) = rbuf.get(pos..pos + 4).map(<[u8; 4]>::try_from) else {
                incomplete = rbuf.len() > pos;
                break;
            };
            let len = u32::from_le_bytes(prefix) as usize;
            if let Err(e) = check_frame_len(len) {
                // A bad length prefix desyncs the stream: answer once,
                // stop reading, hang up after the write.
                self.shared.counters.inc_protocol_errors();
                self.finish_with(
                    self.wire_version(),
                    CONNECTION_SCOPED_ID,
                    &error_response(&e),
                    now,
                );
                break;
            }
            let Some(payload) = rbuf.get(pos + 4..pos + 4 + len) else {
                incomplete = true;
                break;
            };
            pos += 4 + len;
            self.on_frame(payload, now);
        }
        self.rbuf = rbuf;
        self.rbuf.drain(..pos.min(self.rbuf.len()));
        if incomplete && self.peer_eof {
            // Mid-frame EOF: the frame can never complete. Close quietly
            // with no counters.
            self.rbuf.clear();
            incomplete = false;
        }
        if incomplete {
            if self.frame_deadline.is_none() {
                self.frame_deadline = self
                    .shared
                    .cfg
                    .read_timeout
                    .and_then(|t| now.checked_add(t));
            }
        } else {
            self.frame_deadline = None;
            self.boundary_since = now;
        }
    }

    /// Serves one complete frame payload: drain gate, version sniffing,
    /// then dispatch. `Infer` becomes a submission; control requests
    /// are answered inline.
    fn on_frame(&mut self, payload: &[u8], now: Instant) {
        // Count the request in flight *before* checking the drain flag,
        // so the drain wait can never observe `busy == 0` while a
        // received frame is slipping into the runtime.
        self.shared.busy.fetch_add(1, Ordering::SeqCst);
        let wire_version = self.wire_version();
        let v2 = wire_version >= PROTOCOL_V2;
        if self.shared.draining.load(Ordering::SeqCst) {
            self.shared.busy.fetch_sub(1, Ordering::SeqCst);
            // Echo the request id when the frame is well-formed v2, so a
            // multiplexing client can attribute the refusal.
            let req_id = match decode_payload_v2::<Request>(payload) {
                Ok((id, _)) if v2 => id,
                _ => CONNECTION_SCOPED_ID,
            };
            self.finish_with(wire_version, req_id, &draining(), now);
            return;
        }
        let (req_id, decoded) = if v2 {
            match decode_payload_v2::<Request>(payload) {
                Ok((id, req)) => (id, Ok(req)),
                Err(e) => (CONNECTION_SCOPED_ID, Err(e)),
            }
        } else {
            (CONNECTION_SCOPED_ID, decode_payload::<Request>(payload))
        };
        let resp = match decoded {
            Ok(Request::Hello { max_version }) if self.version.is_none() => {
                // The handshake reply itself is always v1-framed; the
                // negotiated version governs later frames.
                match negotiate_version(max_version) {
                    Ok(v) => {
                        self.version = Some(v);
                        let hello = Response::Hello { version: v };
                        self.queue_reply(PROTOCOL_V1, CONNECTION_SCOPED_ID, &hello, true, now);
                    }
                    // Version 0 leaves the connection's version
                    // ambiguous: answer once, hang up.
                    Err(e) => {
                        self.shared.counters.inc_protocol_errors();
                        let resp = error_response(&e);
                        self.queue_reply(PROTOCOL_V1, CONNECTION_SCOPED_ID, &resp, true, now);
                        self.phase = Phase::Finishing;
                    }
                }
                return;
            }
            Ok(Request::Hello { .. }) => {
                // Hello after the first frame: a violation, but frame
                // boundaries are intact, so answer and keep serving.
                self.shared.counters.inc_protocol_errors();
                error_response(&ServeError::Protocol(
                    "Hello is only valid as a connection's first frame".to_string(),
                ))
            }
            Ok(Request::Infer { model, dims, data }) => {
                self.version.get_or_insert(PROTOCOL_V1);
                self.inflight += 1;
                self.submissions.push_back(Submission {
                    id: req_id,
                    model,
                    dims,
                    data,
                });
                return;
            }
            Ok(Request::ListModels) => Response::Models(
                self.shared
                    .runtime
                    .list()
                    .into_iter()
                    .map(|m| WireModelInfo {
                        id: m.id,
                        loaded: m.loaded,
                    })
                    .collect(),
            ),
            Ok(Request::Stats { model }) => match self.shared.runtime.stats(&model) {
                Ok(s) => Response::Stats(s),
                Err(e) => error_response(&e),
            },
            Ok(Request::ServerStats) => Response::ServerStats(self.shared.counters.snapshot()),
            Err(e) => {
                // Frame boundaries are intact, so a garbage payload is
                // answered and the connection keeps serving.
                self.shared.counters.inc_protocol_errors();
                error_response(&e)
            }
        };
        // Any first frame other than Hello locks v1.
        self.version.get_or_insert(PROTOCOL_V1);
        self.queue_reply(wire_version, req_id, &resp, true, now);
    }

    /// Queues a final frame that answers no accepted request, and stops
    /// serving.
    fn finish_with(&mut self, version: u32, req_id: u64, resp: &Response, now: Instant) {
        self.queue_reply(version, req_id, resp, false, now);
        if !matches!(self.phase, Phase::Closed) {
            self.phase = Phase::Finishing;
        }
    }

    /// Appends one framed reply to the write buffer with its marker.
    fn queue_reply(
        &mut self,
        version: u32,
        req_id: u64,
        resp: &Response,
        counts_busy: bool,
        now: Instant,
    ) {
        let payload = if version >= PROTOCOL_V2 {
            encode_payload_v2(req_id, resp)
        } else {
            encode_payload(resp)
        };
        if payload.len() > MAX_FRAME_BYTES {
            // Unreachable for the replies this server builds; close
            // rather than desync the stream if it ever becomes reachable.
            if counts_busy {
                self.shared.busy.fetch_sub(1, Ordering::SeqCst);
            }
            self.phase = Phase::Closed;
            return;
        }
        self.wbuf
            .extend_from_slice(&(payload.len() as u32).to_le_bytes());
        self.wbuf.extend_from_slice(&payload);
        self.queued_total += 4 + payload.len() as u64;
        self.markers.push_back(Marker {
            end: self.queued_total,
            counts_busy,
        });
        if self.write_deadline.is_none() {
            self.write_deadline = self
                .shared
                .cfg
                .write_timeout
                .and_then(|t| now.checked_add(t));
        }
    }
}

impl Drop for Connection {
    /// Releases what a closing connection still holds: the `busy`
    /// counts of unwritten replies and of submissions whose completions
    /// have not landed (the serving core drops those on arrival), and its
    /// `active` slot.
    fn drop(&mut self) {
        let unreleased = self.markers.iter().filter(|m| m.counts_busy).count() + self.inflight;
        if unreleased > 0 {
            self.shared.busy.fetch_sub(unreleased, Ordering::SeqCst);
        }
        if self.served {
            self.shared.active.fetch_sub(1, Ordering::SeqCst);
        }
    }
}

fn draining() -> Response {
    Response::Error {
        kind: ErrorKind::Draining,
        message: "server is draining for shutdown".into(),
    }
}

fn error_response(e: &ServeError) -> Response {
    let (kind, message) = classify(e);
    Response::Error { kind, message }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chaos::{FaultOp, FaultPlan};
    use crate::clock::{Clock, SystemClock};
    use crate::registry::ModelRegistry;
    use crate::server::ServerConfig;
    use crate::session::{Runtime, SessionConfig};

    fn shared(cfg: ServerConfig) -> Arc<ServerShared> {
        let registry = Arc::new(ModelRegistry::new());
        let runtime = Arc::new(Runtime::new(registry, SessionConfig::default()));
        Arc::new(ServerShared::new(runtime, cfg, Arc::new(SystemClock)))
    }

    /// The base instant; every later time in these tests is an explicit
    /// offset from it.
    fn epoch() -> Instant {
        SystemClock.now()
    }

    fn ms(n: u64) -> Duration {
        Duration::from_millis(n)
    }

    fn frame(payload: &[u8]) -> Vec<u8> {
        let mut out = (payload.len() as u32).to_le_bytes().to_vec();
        out.extend_from_slice(payload);
        out
    }

    fn v1(req: &Request) -> Vec<u8> {
        frame(&encode_payload(req))
    }

    fn v2(id: u64, req: &Request) -> Vec<u8> {
        frame(&encode_payload_v2(id, req))
    }

    fn infer(x: f32) -> Request {
        Request::Infer {
            model: "m".into(),
            dims: vec![1, 2, 2],
            data: vec![x; 4],
        }
    }

    /// Writes everything pending and returns it.
    fn flush(c: &mut Connection, now: Instant) -> Vec<u8> {
        let out = c.pending().to_vec();
        c.on_written(out.len(), now);
        out
    }

    /// Splits written bytes into frame payloads.
    fn payloads(mut bytes: &[u8]) -> Vec<Vec<u8>> {
        let mut out = Vec::new();
        while !bytes.is_empty() {
            let len = u32::from_le_bytes(bytes[..4].try_into().unwrap()) as usize;
            out.push(bytes[4..4 + len].to_vec());
            bytes = &bytes[4 + len..];
        }
        out
    }

    /// The one v1 reply written so far.
    fn v1_reply(c: &mut Connection, now: Instant) -> Response {
        let replies = payloads(&flush(c, now));
        assert_eq!(replies.len(), 1, "expected exactly one reply");
        decode_payload(&replies[0]).unwrap()
    }

    fn error_kind(resp: &Response) -> ErrorKind {
        match resp {
            Response::Error { kind, .. } => *kind,
            other => panic!("expected an error reply, got {other:?}"),
        }
    }

    /// Runs every submission to completion with logits derived from the
    /// request, then writes everything pending into `out`.
    fn serve(c: &mut Connection, out: &mut Vec<u8>, now: Instant) {
        while let Some(sub) = c.take_submission() {
            let logits = vec![sub.id as f32, sub.data.iter().sum(), sub.dims.len() as f32];
            c.on_completion(sub.id, Ok(logits), now);
            out.extend(flush(c, now));
        }
        out.extend(flush(c, now));
    }

    #[test]
    fn idle_at_a_boundary_closes_quietly() {
        let s = shared(ServerConfig {
            idle_timeout: Some(ms(100)),
            ..ServerConfig::default()
        });
        let t0 = epoch();
        let mut c = Connection::accept(Arc::clone(&s), t0);
        assert_eq!(c.next_deadline(), Some(t0 + ms(100)));
        c.on_tick(t0 + ms(99));
        assert_eq!(c.action(t0 + ms(99)), Action::Serve);
        // A served request resets the idle clock.
        c.on_bytes(&v1(&Request::ListModels), t0 + ms(50));
        assert!(matches!(v1_reply(&mut c, t0 + ms(50)), Response::Models(_)));
        assert_eq!(c.next_deadline(), Some(t0 + ms(150)));
        c.on_tick(t0 + ms(150));
        assert_eq!(c.action(t0 + ms(150)), Action::Close);
        assert!(c.pending().is_empty(), "an idle close writes no frame");
        assert_eq!(s.counters.snapshot().timed_out, 0);
    }

    #[test]
    fn stalled_mid_frame_gets_a_timeout_that_trickling_cannot_extend() {
        let s = shared(ServerConfig {
            read_timeout: Some(ms(150)),
            idle_timeout: Some(ms(100)),
            ..ServerConfig::default()
        });
        let t0 = epoch();
        let mut c = Connection::accept(Arc::clone(&s), t0);
        c.on_bytes(&1000u32.to_le_bytes(), t0);
        assert_eq!(c.next_deadline(), Some(t0 + ms(150)));
        for i in 1..15 {
            c.on_bytes(&[1], t0 + ms(10 * i));
            assert_eq!(c.next_deadline(), Some(t0 + ms(150)), "byte {i}");
        }
        c.on_tick(t0 + ms(149));
        assert!(c.pending().is_empty());
        let t = t0 + ms(150);
        c.on_tick(t);
        assert_eq!(error_kind(&v1_reply(&mut c, t)), ErrorKind::Timeout);
        assert_eq!(s.counters.snapshot().timed_out, 1);
        assert_eq!(c.action(t), Action::HalfClose);
        assert_eq!(c.next_deadline(), Some(t + LINGER_TIMEOUT));
        // Lingering discards whatever the peer still sends.
        c.on_bytes(&[1; 64], t + ms(10));
        assert!(c.pending().is_empty());
        assert_eq!(c.action(t + ms(10)), Action::Serve);
        c.on_tick(t + LINGER_TIMEOUT);
        assert_eq!(c.action(t + LINGER_TIMEOUT), Action::Close);
    }

    #[test]
    fn eof_mid_frame_closes_quietly_and_eof_ends_a_linger() {
        let s = shared(ServerConfig::default());
        let t0 = epoch();
        let mut c = Connection::accept(Arc::clone(&s), t0);
        c.on_bytes(&64u32.to_le_bytes(), t0);
        c.on_eof(t0);
        assert!(c.pending().is_empty());
        assert_eq!(c.action(t0), Action::Close);

        let mut c = Connection::accept(Arc::clone(&s), t0);
        c.on_bytes(&[0xFF; 8], t0);
        assert_eq!(error_kind(&v1_reply(&mut c, t0)), ErrorKind::Protocol);
        assert_eq!(c.action(t0), Action::HalfClose);
        c.on_eof(t0 + ms(1));
        assert_eq!(c.action(t0 + ms(1)), Action::Close);
        let stats = s.counters.snapshot();
        assert_eq!((stats.protocol_errors, stats.timed_out), (1, 0));
    }

    #[test]
    fn v1_parsing_waits_for_the_in_flight_request() {
        let s = shared(ServerConfig::default());
        let t0 = epoch();
        let mut c = Connection::accept(Arc::clone(&s), t0);
        let mut bytes = v1(&infer(1.0));
        bytes.extend(v1(&Request::ListModels));
        bytes.extend(v1(&infer(2.0)));
        c.on_bytes(&bytes, t0);
        let first = c.take_submission().expect("first request submitted");
        assert!(c.take_submission().is_none(), "v1 must hold the next frame");
        assert!(c.pending().is_empty(), "ListModels must wait its turn");
        assert_eq!(c.next_deadline(), None, "buffered frames are not a stall");
        c.on_completion(first.id, Ok(vec![1.0]), t0);
        // The first reply, then the inline ListModels reply, then the
        // next submission.
        let replies = payloads(&flush(&mut c, t0));
        assert_eq!(replies.len(), 2);
        assert_eq!(
            decode_payload::<Response>(&replies[0]).unwrap(),
            Response::Logits(vec![1.0])
        );
        assert!(matches!(
            decode_payload::<Response>(&replies[1]).unwrap(),
            Response::Models(_)
        ));
        let second = c.take_submission().expect("second request submitted");
        assert_eq!(second.data, vec![2.0; 4]);
    }

    #[test]
    fn v2_requests_are_all_submitted_and_answered_in_completion_order() {
        let s = shared(ServerConfig::default());
        let t0 = epoch();
        let mut c = Connection::accept(Arc::clone(&s), t0);
        let mut bytes = v1(&Request::Hello { max_version: 2 });
        bytes.extend(v2(10, &infer(1.0)));
        bytes.extend(v2(11, &infer(2.0)));
        c.on_bytes(&bytes, t0);
        flush(&mut c, t0);
        let a = c.take_submission().unwrap();
        let b = c.take_submission().unwrap();
        assert_eq!((a.id, b.id), (10, 11));
        c.on_completion(b.id, Ok(vec![2.0]), t0);
        c.on_completion(a.id, Ok(vec![1.0]), t0);
        let ids: Vec<u64> = payloads(&flush(&mut c, t0))
            .iter()
            .map(|p| decode_payload_v2::<Response>(p).unwrap().0)
            .collect();
        assert_eq!(ids, vec![11, 10]);
    }

    #[test]
    fn hello_is_only_valid_first_and_its_reply_is_v1_framed() {
        let s = shared(ServerConfig::default());
        let t0 = epoch();

        // Negotiation: the reply is v1-framed, later frames are v2.
        let mut c = Connection::accept(Arc::clone(&s), t0);
        c.on_bytes(&v1(&Request::Hello { max_version: 9 }), t0);
        assert_eq!(v1_reply(&mut c, t0), Response::Hello { version: 2 });
        // A second Hello is a violation answered under its request id;
        // the connection keeps serving.
        c.on_bytes(&v2(7, &Request::Hello { max_version: 2 }), t0);
        let replies = payloads(&flush(&mut c, t0));
        let (id, resp) = decode_payload_v2::<Response>(&replies[0]).unwrap();
        assert_eq!((id, error_kind(&resp)), (7, ErrorKind::Protocol));
        assert_eq!(c.action(t0), Action::Serve);

        // Hello after another first frame: answered, still serving v1.
        let mut c = Connection::accept(Arc::clone(&s), t0);
        c.on_bytes(&v1(&Request::ListModels), t0);
        flush(&mut c, t0);
        c.on_bytes(&v1(&Request::Hello { max_version: 2 }), t0);
        assert_eq!(error_kind(&v1_reply(&mut c, t0)), ErrorKind::Protocol);
        c.on_bytes(&v1(&Request::ListModels), t0);
        assert!(matches!(v1_reply(&mut c, t0), Response::Models(_)));
        assert_eq!(c.action(t0), Action::Serve);

        // A version-0 offer: one v1 error frame, then the hang-up, and
        // nothing after it is served.
        let mut c = Connection::accept(Arc::clone(&s), t0);
        let mut bytes = v1(&Request::Hello { max_version: 0 });
        bytes.extend(v1(&Request::ListModels));
        c.on_bytes(&bytes, t0);
        assert_eq!(error_kind(&v1_reply(&mut c, t0)), ErrorKind::Protocol);
        assert_eq!(c.action(t0), Action::HalfClose);
        assert_eq!(s.counters.snapshot().protocol_errors, 3);
    }

    #[test]
    fn a_draining_reply_echoes_the_v2_request_id() {
        let s = shared(ServerConfig::default());
        let t0 = epoch();
        let mut c = Connection::accept(Arc::clone(&s), t0);
        c.on_bytes(&v1(&Request::Hello { max_version: 2 }), t0);
        flush(&mut c, t0);
        s.draining.store(true, Ordering::SeqCst);
        c.on_bytes(&v2(42, &Request::ListModels), t0);
        let replies = payloads(&flush(&mut c, t0));
        assert_eq!(replies.len(), 1);
        let (id, resp) = decode_payload_v2::<Response>(&replies[0]).unwrap();
        assert_eq!((id, error_kind(&resp)), (42, ErrorKind::Draining));
        assert_eq!(c.action(t0), Action::HalfClose);
        assert_eq!(s.busy.load(Ordering::SeqCst), 0);
    }

    #[test]
    fn admission_refuses_over_the_limit_and_while_draining() {
        let s = shared(ServerConfig {
            max_connections: 1,
            ..ServerConfig::default()
        });
        let t0 = epoch();
        let first = Connection::accept(Arc::clone(&s), t0);
        assert_eq!(s.active.load(Ordering::SeqCst), 1);
        let mut refused = Connection::accept(Arc::clone(&s), t0);
        assert_eq!(
            error_kind(&v1_reply(&mut refused, t0)),
            ErrorKind::Overloaded
        );
        assert_eq!(refused.action(t0), Action::HalfClose);
        drop((first, refused));
        assert_eq!(s.active.load(Ordering::SeqCst), 0);

        s.draining.store(true, Ordering::SeqCst);
        let mut late = Connection::accept(Arc::clone(&s), t0);
        assert_eq!(error_kind(&v1_reply(&mut late, t0)), ErrorKind::Draining);
        let stats = s.counters.snapshot();
        assert_eq!((stats.accepted, stats.refused), (1, 2));
    }

    #[test]
    fn busy_returns_to_zero_however_the_connection_ends() {
        let s = shared(ServerConfig::default());
        let busy = || s.busy.load(Ordering::SeqCst);
        let t0 = epoch();

        // Flushed: busy falls with the reply's last byte.
        let mut c = Connection::accept(Arc::clone(&s), t0);
        c.on_bytes(&v1(&infer(1.0)), t0);
        assert_eq!(busy(), 1);
        let sub = c.take_submission().unwrap();
        c.on_completion(sub.id, Ok(vec![1.0]), t0);
        assert_eq!(busy(), 1, "computed is not delivered");
        let len = c.pending().len();
        c.on_written(len - 1, t0);
        assert_eq!(busy(), 1);
        c.on_written(1, t0);
        assert_eq!(busy(), 0);
        drop(c);
        assert_eq!(busy(), 0);

        // Closed with an unflushed reply.
        let mut c = Connection::accept(Arc::clone(&s), t0);
        c.on_bytes(&v1(&Request::ListModels), t0);
        assert_eq!(busy(), 1);
        drop(c);
        assert_eq!(busy(), 0);

        // Closed with submissions taken and not yet taken.
        let mut c = Connection::accept(Arc::clone(&s), t0);
        let mut bytes = v1(&Request::Hello { max_version: 2 });
        bytes.extend(v2(1, &infer(1.0)));
        bytes.extend(v2(2, &infer(2.0)));
        c.on_bytes(&bytes, t0);
        let _running = c.take_submission().unwrap();
        assert_eq!(busy(), 3);
        drop(c);
        assert_eq!(busy(), 0);
        assert_eq!(s.active.load(Ordering::SeqCst), 0);
    }

    #[test]
    fn a_reply_stuck_past_write_timeout_closes() {
        let s = shared(ServerConfig {
            write_timeout: Some(ms(100)),
            ..ServerConfig::default()
        });
        let t0 = epoch();
        let mut c = Connection::accept(Arc::clone(&s), t0);
        c.on_bytes(&v1(&Request::ListModels), t0);
        assert_eq!(c.next_deadline(), Some(t0 + ms(100)));
        // Progress re-arms the budget.
        c.on_written(1, t0 + ms(80));
        assert_eq!(c.next_deadline(), Some(t0 + ms(180)));
        c.on_tick(t0 + ms(180));
        assert_eq!(c.action(t0 + ms(180)), Action::Close);
    }

    /// One connection's request stream, v1 or v2 by seed parity. The v1
    /// stream mixes every frame kind; the v2 one only carries `Infer`
    /// (control replies are written inline, so their position among
    /// completions depends on delivery, which v2 permits).
    fn replay_stream(seed: u64) -> Vec<u8> {
        if seed.is_multiple_of(2) {
            let mut s = v1(&Request::ListModels);
            s.extend(v1(&infer(1.0)));
            s.extend(frame(&[0xAB; 5]));
            s.extend(v1(&Request::Stats {
                model: "nope".into(),
            }));
            s.extend(v1(&infer(2.0)));
            s.extend(v1(&Request::Hello { max_version: 2 }));
            s.extend(v1(&Request::ServerStats));
            s.extend(v1(&infer(3.0)));
            s
        } else {
            let mut s = v1(&Request::Hello { max_version: 2 });
            for id in 0..6 {
                s.extend(v2(id, &infer(id as f32)));
            }
            s
        }
    }

    /// Delivers `stream` to a fresh connection, split by `plan`'s
    /// `Chunk` ops (cycled until the stream is spent) with time advanced
    /// by its `Stall` ops, or whole when `plan` is `None`. Returns every
    /// reply byte.
    fn replay(stream: &[u8], plan: Option<&FaultPlan>) -> Vec<u8> {
        let s = shared(ServerConfig {
            read_timeout: Some(Duration::from_secs(3600)),
            idle_timeout: Some(Duration::from_secs(3600)),
            ..ServerConfig::default()
        });
        let mut now = epoch();
        let mut c = Connection::accept(Arc::clone(&s), now);
        let mut out = Vec::new();
        let mut rest = stream;
        let ops = plan.map_or(&[][..], |p| p.ops());
        if ops.iter().any(|op| matches!(op, FaultOp::Chunk(_))) {
            for op in ops.iter().cycle() {
                if rest.is_empty() {
                    break;
                }
                match *op {
                    FaultOp::Chunk(n) => {
                        let (head, tail) = rest.split_at(n.min(rest.len()));
                        c.on_bytes(head, now);
                        rest = tail;
                    }
                    FaultOp::Stall(d) => {
                        now += d;
                        if c.next_deadline().is_some_and(|d| now >= d) {
                            c.on_tick(now);
                        }
                    }
                    // Faulted calls move no bytes.
                    _ => {}
                }
                serve(&mut c, &mut out, now);
            }
        }
        c.on_bytes(rest, now);
        serve(&mut c, &mut out, now);
        assert_eq!(
            c.action(now),
            Action::Serve,
            "the connection must stay open"
        );
        assert_eq!(s.busy.load(Ordering::SeqCst), 0, "every reply delivered");
        out
    }

    /// Socket-free chaos: for seeded fault plans, chunked and stalled
    /// delivery produces exactly the reply bytes of unsplit delivery.
    /// `DEEPCAM_STRESS_ITERS` scales the seed count.
    #[test]
    fn seeded_replay_matches_unsplit_delivery() {
        let seeds: u64 = std::env::var("DEEPCAM_STRESS_ITERS")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(200);
        for seed in 0..seeds {
            let stream = replay_stream(seed);
            let whole = replay(&stream, None);
            let frames = payloads(&stream).len();
            assert_eq!(
                payloads(&whole).len(),
                frames,
                "seed {seed}: one reply per frame"
            );
            let plan = FaultPlan::seeded(0xC4A0_5000 + seed);
            assert_eq!(replay(&stream, Some(&plan)), whole, "seed {seed}: {plan:?}");
        }
    }
}

//! The length-prefixed binary wire protocol, built on the workspace's
//! [`serde::bin`] codec.
//!
//! # Framing
//!
//! Every message is one frame: a little-endian `u32` payload length
//! followed by that many payload bytes. The payload is a
//! [`Request`] or [`Response`] encoded with [`serde::bin::BinCodec`]
//! (leading tag byte, fields in declaration order). Limits are enforced
//! *before* allocation: a frame longer than [`MAX_FRAME_BYTES`] is
//! rejected from its prefix alone, and the payload buffer grows only as
//! bytes actually arrive — a hostile length prefix cannot reserve
//! memory it never sends.
//!
//! # Frames
//!
//! | tag | frame | payload |
//! |---|---|---|
//! | `0` | `Request::Infer` | model id, per-image dims, f32 image data |
//! | `1` | `Request::ListModels` | — |
//! | `2` | `Request::Stats` | model id |
//! | `3` | `Request::ServerStats` | — |
//! | `4` | `Request::Hello` | highest protocol version the client speaks |
//! | `0` | `Response::Logits` | f32 logits row |
//! | `1` | `Response::Models` | id + loaded flag per model |
//! | `2` | `Response::Stats` | serving counters snapshot |
//! | `3` | `Response::Error` | [`ErrorKind`] + message |
//! | `4` | `Response::ServerStats` | server robustness counters |
//! | `5` | `Response::Hello` | protocol version the connection will speak |
//!
//! # Protocol versions and multiplexing
//!
//! Two wire versions share the framing above:
//!
//! - **v1** (the original): a frame payload is exactly one encoded
//!   message. Strictly request→reply in order — at most one request is
//!   outstanding per connection.
//! - **v2**: every payload after the handshake is a little-endian
//!   `u64` *request id* followed by the v1 encoding of the message.
//!   Clients choose ids and may pipeline many requests; the server
//!   echoes each reply under the request's id, and replies may arrive
//!   **out of order** (the epoll core completes them as the
//!   micro-batcher finishes). Connection-scoped errors that answer no
//!   particular request (`Timeout`, a malformed length prefix) carry
//!   the reserved [`CONNECTION_SCOPED_ID`].
//!
//! Negotiation is first-frame sniffing, so v1 clients need no changes:
//! a connection's first frame either is a v1-encoded
//! [`Request::Hello`] carrying the client's highest version — answered
//! with a v1-encoded [`Response::Hello`] choosing
//! `min(client_max, 2)` ([`negotiate_version`]), after which the
//! connection speaks the chosen version — or it is any other frame,
//! which locks the connection to v1 for its lifetime. A `Hello`
//! advertising version 0, or arriving after negotiation, is a protocol
//! error.
//!
//! Decoding is hostile-input safe: truncation, unknown tags, trailing
//! bytes, over-limit dims/lengths and dims/data mismatches all return
//! typed errors (`tests/protocol_hostile.rs` fuzzes this).

use std::io::{Read, Write};

use serde::bin::{BinCodec, BinError, BinResult, Reader, Writer};

use crate::error::{Result, ServeError};
use crate::stats::{ServerStats, SessionStats};

/// Hard cap on one frame's payload bytes (16 MiB).
pub const MAX_FRAME_BYTES: usize = 1 << 24;
/// Most dimensions an image tensor may declare.
pub const MAX_DIMS: usize = 8;
/// Most elements an image may carry (4 Mi f32 = 16 MiB, the frame cap).
pub const MAX_IMAGE_ELEMS: usize = 1 << 22;
/// Longest model id accepted on the wire, in bytes.
pub const MAX_MODEL_ID_BYTES: usize = 256;
/// The original strictly-ordered request→reply protocol.
pub const PROTOCOL_V1: u32 = 1;
/// The multiplexed protocol: request-id-prefixed payloads, replies may
/// arrive out of order.
pub const PROTOCOL_V2: u32 = 2;
/// Highest protocol version this build speaks.
pub const MAX_PROTOCOL_VERSION: u32 = PROTOCOL_V2;
/// Reserved v2 request id for connection-scoped errors that answer no
/// particular request (mid-frame [`ErrorKind::Timeout`], malformed
/// length prefixes). Clients must not send it.
pub const CONNECTION_SCOPED_ID: u64 = u64::MAX;
/// Payload chunk size frame reads grow by (allocation tracks received
/// bytes, not the claimed length).
const READ_CHUNK: usize = 64 * 1024;

/// A client→server message.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Run one image through a model's session.
    Infer {
        /// Registry id of the model to serve.
        model: String,
        /// Per-image dims (no batch axis), e.g. `[1, 28, 28]`.
        dims: Vec<usize>,
        /// Row-major image data; length must equal the dims product.
        data: Vec<f32>,
    },
    /// List every model the registry knows.
    ListModels,
    /// Fetch one model's serving counters.
    Stats {
        /// Registry id of the model.
        model: String,
    },
    /// Fetch the server's connection-level robustness counters.
    ServerStats,
    /// Version handshake: must be a connection's first frame when
    /// sent. The server answers with [`Response::Hello`] choosing
    /// `min(max_version, MAX_PROTOCOL_VERSION)`; version 0 is a
    /// protocol error.
    Hello {
        /// Highest protocol version the client speaks (≥ 1).
        max_version: u32,
    },
}

/// A server→client message.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// The logits row for an `Infer` request.
    Logits(Vec<f32>),
    /// The registry listing for a `ListModels` request.
    Models(Vec<WireModelInfo>),
    /// The counters for a `Stats` request.
    Stats(SessionStats),
    /// The request failed; `kind` classifies it for typed client-side
    /// handling.
    Error {
        /// Coarse error class.
        kind: ErrorKind,
        /// Human-readable detail.
        message: String,
    },
    /// The robustness counters for a `ServerStats` request.
    ServerStats(ServerStats),
    /// Handshake reply: the protocol version every subsequent frame on
    /// this connection speaks.
    Hello {
        /// Negotiated version (`min(client max, MAX_PROTOCOL_VERSION)`).
        version: u32,
    },
}

/// One registry entry on the wire.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireModelInfo {
    /// Registry id.
    pub id: String,
    /// Whether the engine is loaded.
    pub loaded: bool,
}

/// Coarse error classes a [`Response::Error`] carries, so clients can
/// react (retry on `Overloaded`/`Draining`, fail fast on `NotFound`)
/// without parsing messages.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorKind {
    /// Unknown model id.
    NotFound,
    /// The model's artifact failed to load.
    BadArtifact,
    /// Backpressure: the session queue is full.
    Overloaded,
    /// The request was malformed.
    InvalidRequest,
    /// Inference failed inside the engine.
    Engine,
    /// The client violated the wire protocol.
    Protocol,
    /// Anything else (internal I/O).
    Internal,
    /// The client stalled mid-frame past the server's `read_timeout`;
    /// the server answers this once and hangs up. Idle connections at a
    /// frame *boundary* never receive it.
    Timeout,
    /// The server is draining for graceful shutdown: requests already
    /// in flight complete, requests arriving mid-drain get this.
    /// Retryable — the computation is pure, and another replica (or the
    /// restarted server) will produce a bit-identical answer.
    Draining,
}

impl BinCodec for ErrorKind {
    fn encode(&self, w: &mut Writer) {
        w.put_u8(match self {
            ErrorKind::NotFound => 0,
            ErrorKind::BadArtifact => 1,
            ErrorKind::Overloaded => 2,
            ErrorKind::InvalidRequest => 3,
            ErrorKind::Engine => 4,
            ErrorKind::Protocol => 5,
            ErrorKind::Internal => 6,
            ErrorKind::Timeout => 7,
            ErrorKind::Draining => 8,
        });
    }

    fn decode(r: &mut Reader<'_>) -> BinResult<Self> {
        Ok(match r.get_u8()? {
            0 => ErrorKind::NotFound,
            1 => ErrorKind::BadArtifact,
            2 => ErrorKind::Overloaded,
            3 => ErrorKind::InvalidRequest,
            4 => ErrorKind::Engine,
            5 => ErrorKind::Protocol,
            6 => ErrorKind::Internal,
            7 => ErrorKind::Timeout,
            8 => ErrorKind::Draining,
            other => return Err(BinError::Invalid(format!("ErrorKind tag {other}"))),
        })
    }
}

impl BinCodec for ServerStats {
    fn encode(&self, w: &mut Writer) {
        w.put_u64(self.accepted);
        w.put_u64(self.refused);
        w.put_u64(self.timed_out);
        w.put_u64(self.protocol_errors);
        w.put_u64(self.drained);
    }

    fn decode(r: &mut Reader<'_>) -> BinResult<Self> {
        Ok(ServerStats {
            accepted: r.get_u64()?,
            refused: r.get_u64()?,
            timed_out: r.get_u64()?,
            protocol_errors: r.get_u64()?,
            drained: r.get_u64()?,
        })
    }
}

/// Decodes a wire model id, enforcing [`MAX_MODEL_ID_BYTES`].
fn decode_model_id(r: &mut Reader<'_>) -> BinResult<String> {
    let id = r.get_str()?;
    if id.len() > MAX_MODEL_ID_BYTES {
        return Err(BinError::Invalid(format!(
            "model id of {} bytes exceeds the {MAX_MODEL_ID_BYTES}-byte limit",
            id.len()
        )));
    }
    Ok(id)
}

impl BinCodec for Request {
    fn encode(&self, w: &mut Writer) {
        match self {
            Request::Infer { model, dims, data } => {
                w.put_u8(0);
                w.put_str(model);
                dims.encode(w);
                data.encode(w);
            }
            Request::ListModels => w.put_u8(1),
            Request::Stats { model } => {
                w.put_u8(2);
                w.put_str(model);
            }
            Request::ServerStats => w.put_u8(3),
            Request::Hello { max_version } => {
                w.put_u8(4);
                w.put_u32(*max_version);
            }
        }
    }

    fn decode(r: &mut Reader<'_>) -> BinResult<Self> {
        match r.get_u8()? {
            0 => {
                let model = decode_model_id(r)?;
                let dims: Vec<usize> = BinCodec::decode(r)?;
                if dims.is_empty() || dims.len() > MAX_DIMS {
                    return Err(BinError::Invalid(format!(
                        "image declares {} dims (limit 1..={MAX_DIMS})",
                        dims.len()
                    )));
                }
                let mut elems = 1usize;
                for &d in &dims {
                    elems = d
                        .checked_mul(elems)
                        .filter(|&e| e <= MAX_IMAGE_ELEMS && d > 0)
                        .ok_or_else(|| {
                            BinError::Invalid(format!(
                                "image dims {dims:?} overflow the {MAX_IMAGE_ELEMS}-element limit"
                            ))
                        })?;
                }
                let data: Vec<f32> = BinCodec::decode(r)?;
                if data.len() != elems {
                    return Err(BinError::Invalid(format!(
                        "image dims {dims:?} imply {elems} elements, frame carries {}",
                        data.len()
                    )));
                }
                Ok(Request::Infer { model, dims, data })
            }
            1 => Ok(Request::ListModels),
            2 => Ok(Request::Stats {
                model: decode_model_id(r)?,
            }),
            3 => Ok(Request::ServerStats),
            4 => Ok(Request::Hello {
                max_version: r.get_u32()?,
            }),
            other => Err(BinError::Invalid(format!("Request tag {other}"))),
        }
    }
}

impl BinCodec for WireModelInfo {
    fn encode(&self, w: &mut Writer) {
        w.put_str(&self.id);
        w.put_bool(self.loaded);
    }

    fn decode(r: &mut Reader<'_>) -> BinResult<Self> {
        Ok(WireModelInfo {
            id: decode_model_id(r)?,
            loaded: r.get_bool()?,
        })
    }
}

/// `max_occupancy` travels as a `u64`, whatever the width of `usize`.
impl BinCodec for SessionStats {
    fn encode(&self, w: &mut Writer) {
        w.put_u64(self.submitted);
        w.put_u64(self.completed);
        w.put_u64(self.failed);
        w.put_u64(self.rejected);
        w.put_u64(self.batches);
        w.put_f64(self.mean_occupancy);
        w.put_u64(self.max_occupancy as u64);
        w.put_f64(self.p50_latency_ms);
        w.put_f64(self.p99_latency_ms);
    }

    fn decode(r: &mut Reader<'_>) -> BinResult<Self> {
        Ok(SessionStats {
            submitted: r.get_u64()?,
            completed: r.get_u64()?,
            failed: r.get_u64()?,
            rejected: r.get_u64()?,
            batches: r.get_u64()?,
            mean_occupancy: r.get_f64()?,
            max_occupancy: {
                let v = r.get_u64()?;
                usize::try_from(v).map_err(|_| {
                    BinError::Invalid(format!("max_occupancy {v} does not fit a usize"))
                })?
            },
            p50_latency_ms: r.get_f64()?,
            p99_latency_ms: r.get_f64()?,
        })
    }
}

impl BinCodec for Response {
    fn encode(&self, w: &mut Writer) {
        match self {
            Response::Logits(logits) => {
                w.put_u8(0);
                logits.encode(w);
            }
            Response::Models(models) => {
                w.put_u8(1);
                models.encode(w);
            }
            Response::Stats(stats) => {
                w.put_u8(2);
                stats.encode(w);
            }
            Response::Error { kind, message } => {
                w.put_u8(3);
                kind.encode(w);
                w.put_str(message);
            }
            Response::ServerStats(stats) => {
                w.put_u8(4);
                stats.encode(w);
            }
            Response::Hello { version } => {
                w.put_u8(5);
                w.put_u32(*version);
            }
        }
    }

    fn decode(r: &mut Reader<'_>) -> BinResult<Self> {
        match r.get_u8()? {
            0 => {
                let logits: Vec<f32> = BinCodec::decode(r)?;
                if logits.len() > MAX_IMAGE_ELEMS {
                    return Err(BinError::Invalid(format!(
                        "logits row of {} elements exceeds the {MAX_IMAGE_ELEMS} limit",
                        logits.len()
                    )));
                }
                Ok(Response::Logits(logits))
            }
            1 => Ok(Response::Models(BinCodec::decode(r)?)),
            2 => Ok(Response::Stats(BinCodec::decode(r)?)),
            3 => Ok(Response::Error {
                kind: BinCodec::decode(r)?,
                message: r.get_str()?,
            }),
            4 => Ok(Response::ServerStats(BinCodec::decode(r)?)),
            5 => Ok(Response::Hello {
                version: r.get_u32()?,
            }),
            other => Err(BinError::Invalid(format!("Response tag {other}"))),
        }
    }
}

/// Encodes one message into a standalone payload (no frame prefix).
pub fn encode_payload<T: BinCodec>(msg: &T) -> Vec<u8> {
    let mut w = Writer::new();
    msg.encode(&mut w);
    w.into_bytes()
}

/// Decodes one message from a complete frame payload, rejecting
/// trailing bytes.
///
/// # Errors
///
/// [`ServeError::Protocol`] on any malformed payload.
pub fn decode_payload<T: BinCodec>(payload: &[u8]) -> Result<T> {
    let mut r = Reader::new(payload);
    let msg = T::decode(&mut r).map_err(|e| ServeError::Protocol(e.to_string()))?;
    r.finish()
        .map_err(|e| ServeError::Protocol(e.to_string()))?;
    Ok(msg)
}

/// Encodes one message as a protocol-v2 payload: the request id
/// followed by the v1 encoding (no frame prefix).
pub fn encode_payload_v2<T: BinCodec>(request_id: u64, msg: &T) -> Vec<u8> {
    let mut w = Writer::new();
    w.put_u64(request_id);
    msg.encode(&mut w);
    w.into_bytes()
}

/// Decodes a protocol-v2 payload into its request id and message,
/// rejecting trailing bytes.
///
/// # Errors
///
/// [`ServeError::Protocol`] on any malformed payload (including one
/// too short to carry the id).
pub fn decode_payload_v2<T: BinCodec>(payload: &[u8]) -> Result<(u64, T)> {
    let mut r = Reader::new(payload);
    let id = r
        .get_u64()
        .map_err(|e| ServeError::Protocol(format!("v2 request id: {e}")))?;
    let msg = T::decode(&mut r).map_err(|e| ServeError::Protocol(e.to_string()))?;
    r.finish()
        .map_err(|e| ServeError::Protocol(e.to_string()))?;
    Ok((id, msg))
}

/// Picks the version a connection speaks from the client's advertised
/// maximum: `min(client_max, MAX_PROTOCOL_VERSION)`, or a typed
/// protocol error for the nonsensical version 0.
///
/// # Errors
///
/// [`ServeError::Protocol`] when `client_max` is 0.
pub fn negotiate_version(client_max: u32) -> Result<u32> {
    if client_max == 0 {
        return Err(ServeError::Protocol(
            "Hello advertises protocol version 0 (versions start at 1)".to_string(),
        ));
    }
    Ok(client_max.min(MAX_PROTOCOL_VERSION))
}

/// Writes one frame (length prefix + payload) and flushes.
///
/// # Errors
///
/// [`ServeError::Protocol`] when `payload` exceeds [`MAX_FRAME_BYTES`]
/// (nothing is written); [`ServeError::Io`] on socket failure.
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> Result<()> {
    if payload.len() > MAX_FRAME_BYTES {
        return Err(ServeError::Protocol(format!(
            "frame of {} bytes exceeds the {MAX_FRAME_BYTES}-byte limit",
            payload.len()
        )));
    }
    w.write_all(&(payload.len() as u32).to_le_bytes())?;
    w.write_all(payload)?;
    w.flush()?;
    Ok(())
}

/// Outcome of [`read_frame`] distinguishing a clean close from abuse.
#[derive(Debug)]
pub enum Frame {
    /// A complete payload arrived.
    Payload(Vec<u8>),
    /// The peer closed the stream at a frame boundary.
    Closed,
}

/// Validates a decoded frame-length prefix *before* any allocation:
/// zero and over-[`MAX_FRAME_BYTES`] lengths are protocol violations.
/// Shared by [`read_frame`] and the server's deadline-aware reader.
///
/// # Errors
///
/// [`ServeError::Protocol`] for zero/over-limit lengths.
pub fn check_frame_len(len: usize) -> Result<()> {
    if len == 0 || len > MAX_FRAME_BYTES {
        return Err(ServeError::Protocol(format!(
            "frame length {len} outside 1..={MAX_FRAME_BYTES}"
        )));
    }
    Ok(())
}

/// Reads one frame. The length prefix is validated against
/// [`MAX_FRAME_BYTES`] *before* any payload allocation, and the payload
/// buffer grows in 64 KiB steps as bytes arrive, so a
/// hostile prefix can never cause an over-allocation.
///
/// # Errors
///
/// [`ServeError::Protocol`] for zero/over-limit lengths;
/// [`ServeError::Io`] for mid-frame EOF or socket failure.
pub fn read_frame(r: &mut impl Read) -> Result<Frame> {
    let mut prefix = [0u8; 4];
    match r.read_exact(&mut prefix) {
        Ok(()) => {}
        Err(e) if e.kind() == std::io::ErrorKind::UnexpectedEof => return Ok(Frame::Closed),
        Err(e) => return Err(e.into()),
    }
    let len = u32::from_le_bytes(prefix) as usize;
    check_frame_len(len)?;
    let mut payload = Vec::with_capacity(len.min(READ_CHUNK));
    let mut remaining = len;
    while remaining > 0 {
        let step = remaining.min(READ_CHUNK);
        let start = payload.len();
        payload.resize(start + step, 0);
        let dst = payload
            .get_mut(start..)
            .ok_or_else(|| ServeError::Io("mid-frame read: chunk bounds".to_string()))?;
        r.read_exact(dst)
            .map_err(|e| ServeError::Io(format!("mid-frame read ({remaining} bytes left): {e}")))?;
        remaining -= step;
    }
    Ok(Frame::Payload(payload))
}

/// Maps a server-side failure to the (kind, message) pair put on the
/// wire.
pub fn classify(e: &ServeError) -> (ErrorKind, String) {
    let kind = match e {
        ServeError::ModelNotFound { .. } => ErrorKind::NotFound,
        ServeError::BadArtifact { .. } => ErrorKind::BadArtifact,
        ServeError::Overloaded { .. } => ErrorKind::Overloaded,
        ServeError::InvalidRequest(_) => ErrorKind::InvalidRequest,
        ServeError::Engine(_) => ErrorKind::Engine,
        ServeError::Protocol(_) => ErrorKind::Protocol,
        ServeError::ShuttingDown => ErrorKind::Draining,
        ServeError::Io(_) | ServeError::Remote { .. } => ErrorKind::Internal,
    };
    (kind, e.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip_request(req: &Request) {
        let bytes = encode_payload(req);
        let back: Request = decode_payload(&bytes).expect("decodes");
        assert_eq!(req, &back);
    }

    #[test]
    fn requests_round_trip() {
        roundtrip_request(&Request::Infer {
            model: "lenet5".into(),
            dims: vec![1, 28, 28],
            data: vec![0.5; 784],
        });
        roundtrip_request(&Request::ListModels);
        roundtrip_request(&Request::Stats {
            model: "vgg11".into(),
        });
        roundtrip_request(&Request::ServerStats);
        roundtrip_request(&Request::Hello { max_version: 2 });
        roundtrip_request(&Request::Hello {
            max_version: u32::MAX,
        });
    }

    #[test]
    fn hello_response_round_trips() {
        let resp = Response::Hello { version: 2 };
        let back: Response = decode_payload(&encode_payload(&resp)).expect("decodes");
        assert_eq!(resp, back);
    }

    #[test]
    fn v2_payloads_round_trip_with_their_ids() {
        for id in [0u64, 1, 42, u64::MAX - 1, CONNECTION_SCOPED_ID] {
            let req = Request::Stats { model: "m".into() };
            let bytes = encode_payload_v2(id, &req);
            let (back_id, back): (u64, Request) = decode_payload_v2(&bytes).expect("decodes");
            assert_eq!(back_id, id);
            assert_eq!(back, req);
        }
    }

    #[test]
    fn v2_decode_rejects_short_and_trailing_payloads() {
        // Too short to even carry the id.
        for len in 0..8 {
            let bytes = vec![0u8; len];
            assert!(matches!(
                decode_payload_v2::<Request>(&bytes),
                Err(ServeError::Protocol(_))
            ));
        }
        // Valid id, then garbage after a valid message.
        let mut bytes = encode_payload_v2(9, &Request::ListModels);
        bytes.push(0xFF);
        assert!(matches!(
            decode_payload_v2::<Request>(&bytes),
            Err(ServeError::Protocol(_))
        ));
        // A v1 payload is not a valid v2 payload (the id bytes eat the
        // tag) — decoding must fail cleanly, never panic.
        let v1 = encode_payload(&Request::ListModels);
        assert!(decode_payload_v2::<Request>(&v1).is_err());
    }

    #[test]
    fn negotiation_clamps_to_the_build_maximum() {
        assert!(negotiate_version(0).is_err());
        assert_eq!(negotiate_version(1).expect("v1"), PROTOCOL_V1);
        assert_eq!(negotiate_version(2).expect("v2"), PROTOCOL_V2);
        assert_eq!(
            negotiate_version(u32::MAX).expect("future client"),
            MAX_PROTOCOL_VERSION
        );
    }

    #[test]
    fn stats_responses_encode_to_pinned_bytes() {
        // A round trip cannot see a width or order change made on both
        // sides, so the bytes themselves are pinned: tag, five u64
        // counters, then `mean_occupancy` (f64), `max_occupancy` (u64)
        // and the two latencies (f64), all little-endian.
        let stats = encode_payload(&Response::Stats(SessionStats {
            submitted: 10,
            completed: 9,
            failed: 1,
            rejected: 2,
            batches: 3,
            mean_occupancy: 3.25,
            max_occupancy: 4,
            p50_latency_ms: 1.5,
            p99_latency_ms: 9.75,
        }));
        let mut want = vec![2u8];
        for v in [10u64, 9, 1, 2, 3] {
            want.extend(v.to_le_bytes());
        }
        want.extend(3.25f64.to_le_bytes());
        want.extend(4u64.to_le_bytes());
        want.extend(1.5f64.to_le_bytes());
        want.extend(9.75f64.to_le_bytes());
        assert_eq!(stats, want);

        let server = encode_payload(&Response::ServerStats(ServerStats {
            accepted: 12,
            refused: 3,
            timed_out: 2,
            protocol_errors: 1,
            drained: 4,
        }));
        let mut want = vec![4u8];
        for v in [12u64, 3, 2, 1, 4] {
            want.extend(v.to_le_bytes());
        }
        assert_eq!(server, want);
    }

    #[test]
    fn responses_round_trip() {
        for resp in [
            Response::Logits(vec![1.0, -2.5, f32::NAN]),
            Response::Models(vec![WireModelInfo {
                id: "a".into(),
                loaded: true,
            }]),
            Response::Stats(SessionStats {
                submitted: 10,
                completed: 9,
                failed: 1,
                rejected: 0,
                batches: 3,
                mean_occupancy: 3.33,
                max_occupancy: 4,
                p50_latency_ms: 1.0,
                p99_latency_ms: 9.5,
            }),
            Response::ServerStats(ServerStats {
                accepted: 12,
                refused: 3,
                timed_out: 2,
                protocol_errors: 1,
                drained: 4,
            }),
            Response::Error {
                kind: ErrorKind::Overloaded,
                message: "queue full".into(),
            },
            Response::Error {
                kind: ErrorKind::Timeout,
                message: "stalled mid-frame".into(),
            },
            Response::Error {
                kind: ErrorKind::Draining,
                message: "shutting down".into(),
            },
        ] {
            let bytes = encode_payload(&resp);
            let back: Response = decode_payload(&bytes).expect("decodes");
            match (&resp, &back) {
                // NaN logits: compare bit patterns.
                (Response::Logits(a), Response::Logits(b)) => {
                    assert_eq!(a.len(), b.len());
                    for (x, y) in a.iter().zip(b) {
                        assert_eq!(x.to_bits(), y.to_bits());
                    }
                }
                _ => assert_eq!(resp, back),
            }
        }
    }

    #[test]
    fn infer_decode_rejects_dims_data_mismatch() {
        let mut w = Writer::new();
        w.put_u8(0);
        w.put_str("m");
        vec![2usize, 2].encode(&mut w);
        vec![1.0f32; 5].encode(&mut w); // 5 != 4
        assert!(decode_payload::<Request>(&w.into_bytes()).is_err());
    }

    #[test]
    fn infer_decode_rejects_overflowing_dims() {
        // Product overflows usize — must be a typed error, not a panic.
        let mut w = Writer::new();
        w.put_u8(0);
        w.put_str("m");
        vec![usize::MAX, usize::MAX].encode(&mut w);
        Vec::<f32>::new().encode(&mut w);
        assert!(decode_payload::<Request>(&w.into_bytes()).is_err());
        // Product over the element cap but not overflowing.
        let mut w = Writer::new();
        w.put_u8(0);
        w.put_str("m");
        vec![MAX_IMAGE_ELEMS, 2].encode(&mut w);
        Vec::<f32>::new().encode(&mut w);
        assert!(decode_payload::<Request>(&w.into_bytes()).is_err());
        // Zero dims are meaningless for an image.
        let mut w = Writer::new();
        w.put_u8(0);
        w.put_str("m");
        vec![0usize, 4].encode(&mut w);
        Vec::<f32>::new().encode(&mut w);
        assert!(decode_payload::<Request>(&w.into_bytes()).is_err());
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let mut bytes = encode_payload(&Request::ListModels);
        bytes.push(0);
        assert!(matches!(
            decode_payload::<Request>(&bytes),
            Err(ServeError::Protocol(_))
        ));
    }

    #[test]
    fn frames_round_trip_over_a_buffer() {
        let payload = encode_payload(&Request::Stats { model: "x".into() });
        let mut wire = Vec::new();
        write_frame(&mut wire, &payload).unwrap();
        let mut cursor = std::io::Cursor::new(wire);
        match read_frame(&mut cursor).unwrap() {
            Frame::Payload(p) => assert_eq!(p, payload),
            Frame::Closed => panic!("expected payload"),
        }
        // EOF at the boundary is a clean close.
        assert!(matches!(read_frame(&mut cursor).unwrap(), Frame::Closed));
    }

    #[test]
    fn oversized_and_zero_length_prefixes_are_typed_errors() {
        let mut cursor = std::io::Cursor::new(u32::MAX.to_le_bytes().to_vec());
        assert!(matches!(
            read_frame(&mut cursor),
            Err(ServeError::Protocol(_))
        ));
        let mut cursor = std::io::Cursor::new(0u32.to_le_bytes().to_vec());
        assert!(matches!(
            read_frame(&mut cursor),
            Err(ServeError::Protocol(_))
        ));
        // A length claiming more bytes than will ever arrive: I/O error
        // once the stream dries up, allocation bounded by arrival.
        let mut wire = ((MAX_FRAME_BYTES) as u32).to_le_bytes().to_vec();
        wire.extend_from_slice(&[7u8; 16]);
        let mut cursor = std::io::Cursor::new(wire);
        assert!(matches!(read_frame(&mut cursor), Err(ServeError::Io(_))));
    }

    #[test]
    fn check_frame_len_bounds() {
        assert!(check_frame_len(1).is_ok());
        assert!(check_frame_len(MAX_FRAME_BYTES).is_ok());
        assert!(check_frame_len(0).is_err());
        assert!(check_frame_len(MAX_FRAME_BYTES + 1).is_err());
    }

    #[test]
    fn write_frame_refuses_over_limit_payloads() {
        let mut sink = Vec::new();
        let huge = vec![0u8; MAX_FRAME_BYTES + 1];
        assert!(matches!(
            write_frame(&mut sink, &huge),
            Err(ServeError::Protocol(_))
        ));
        assert!(sink.is_empty(), "nothing must hit the wire");
    }

    #[test]
    fn classify_covers_every_error() {
        let cases = [
            (
                ServeError::ModelNotFound { model: "x".into() },
                ErrorKind::NotFound,
            ),
            (
                ServeError::Overloaded {
                    queued: 1,
                    capacity: 1,
                },
                ErrorKind::Overloaded,
            ),
            (ServeError::Protocol("p".into()), ErrorKind::Protocol),
            (ServeError::ShuttingDown, ErrorKind::Draining),
        ];
        for (err, want) in cases {
            assert_eq!(classify(&err).0, want, "{err}");
        }
    }
}

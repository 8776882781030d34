//! Deterministic fault injection for the serving transport.
//!
//! [`FaultStream`] wraps any `Read + Write` transport and replays a
//! seeded [`FaultPlan`]: partial reads/writes capped at chosen byte
//! counts, injected `Interrupted`/`WouldBlock`/`ConnectionReset`
//! errors, mid-frame stalls, and sticky disconnects. The plan is a
//! pure function of its seed, so every failing soak iteration is
//! replayable from its seed alone.
//!
//! [`run_soak`] drives N seeded plans against a live server and checks
//! the fault-tolerance contract: chaos connections may fail in typed
//! ways, but every reply that *does* complete must be bit-identical to
//! in-process inference, and a clean client must still round-trip
//! after every chaos connection.

use std::collections::VecDeque;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use crate::error::{Result, ServeError};
use crate::protocol::{
    decode_payload, encode_payload, read_frame, write_frame, Frame, Request, Response,
};

/// One injected fault, applied to one I/O call (read or write — the
/// plan is a single queue consumed by whichever call comes next).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultOp {
    /// Cap this call to at most `n` bytes — forces the peer to see the
    /// frame arrive in fragments.
    Chunk(usize),
    /// Fail this call with `ErrorKind::Interrupted` (transparent to
    /// `read_exact`/`write_all`, which retry it).
    Interrupted,
    /// Fail this call with `ErrorKind::WouldBlock`.
    WouldBlock,
    /// Fail this call with `ErrorKind::ConnectionReset`.
    Reset,
    /// Sleep before passing the call through — a mid-frame stall the
    /// peer's deadlines must tolerate or reap.
    Stall(Duration),
    /// Fail this and every later call with `ConnectionAborted`; the
    /// harness then drops the stream, hanging up mid-frame.
    Disconnect,
}

/// A replayable schedule of [`FaultOp`]s.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultPlan {
    ops: Vec<FaultOp>,
}

impl FaultPlan {
    /// A plan derived purely from `seed`: 4–12 weighted ops, with the
    /// terminal ops (`Reset`, `Disconnect`) ending generation early
    /// when drawn.
    pub fn seeded(seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let count = rng.random_range(4usize..=12);
        let mut ops = Vec::with_capacity(count);
        for _ in 0..count {
            let roll: u32 = rng.random_range(0u32..100);
            let op = match roll {
                0..=44 => FaultOp::Chunk(rng.random_range(1usize..=7)),
                45..=64 => FaultOp::Stall(Duration::from_millis(rng.random_range(1u64..=25))),
                65..=79 => FaultOp::Interrupted,
                80..=89 => FaultOp::WouldBlock,
                90..=94 => FaultOp::Reset,
                _ => FaultOp::Disconnect,
            };
            let terminal = matches!(op, FaultOp::Reset | FaultOp::Disconnect);
            ops.push(op);
            if terminal {
                break;
            }
        }
        FaultPlan { ops }
    }

    /// An explicit schedule, for targeted tests.
    pub fn from_ops(ops: Vec<FaultOp>) -> Self {
        FaultPlan { ops }
    }

    /// The schedule, in application order.
    pub fn ops(&self) -> &[FaultOp] {
        &self.ops
    }
}

/// A `Read + Write` wrapper that replays a [`FaultPlan`] over its
/// inner transport.
pub struct FaultStream<S> {
    inner: S,
    ops: VecDeque<FaultOp>,
    disconnected: bool,
}

impl<S> FaultStream<S> {
    /// Wraps `inner`, consuming one op per I/O call until the plan
    /// runs dry (after which calls pass straight through).
    pub fn new(inner: S, plan: FaultPlan) -> Self {
        FaultStream {
            inner,
            ops: plan.ops.into(),
            disconnected: false,
        }
    }

    /// Unwraps the inner transport.
    pub fn into_inner(self) -> S {
        self.inner
    }

    /// Pops the next op, honoring a sticky disconnect.
    fn next_op(&mut self) -> std::io::Result<Option<FaultOp>> {
        if self.disconnected {
            return Err(std::io::Error::new(
                std::io::ErrorKind::ConnectionAborted,
                "injected disconnect (sticky)",
            ));
        }
        match self.ops.pop_front() {
            Some(FaultOp::Disconnect) => {
                self.disconnected = true;
                Err(std::io::Error::new(
                    std::io::ErrorKind::ConnectionAborted,
                    "injected disconnect",
                ))
            }
            Some(FaultOp::Interrupted) => Err(std::io::Error::new(
                std::io::ErrorKind::Interrupted,
                "injected interrupt",
            )),
            Some(FaultOp::WouldBlock) => Err(std::io::Error::new(
                std::io::ErrorKind::WouldBlock,
                "injected would-block",
            )),
            Some(FaultOp::Reset) => Err(std::io::Error::new(
                std::io::ErrorKind::ConnectionReset,
                "injected reset",
            )),
            other => Ok(other),
        }
    }
}

impl<S: Read> Read for FaultStream<S> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        match self.next_op()? {
            Some(FaultOp::Chunk(n)) => {
                let cap = n.max(1).min(buf.len());
                match buf.get_mut(..cap) {
                    Some(slice) => self.inner.read(slice),
                    None => self.inner.read(buf),
                }
            }
            Some(FaultOp::Stall(d)) => {
                std::thread::sleep(d);
                self.inner.read(buf)
            }
            _ => self.inner.read(buf),
        }
    }
}

impl<S: Write> Write for FaultStream<S> {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        match self.next_op()? {
            Some(FaultOp::Chunk(n)) => {
                let cap = n.max(1).min(buf.len());
                match buf.get(..cap) {
                    Some(slice) => self.inner.write(slice),
                    None => self.inner.write(buf),
                }
            }
            Some(FaultOp::Stall(d)) => {
                std::thread::sleep(d);
                self.inner.write(buf)
            }
            _ => self.inner.write(buf),
        }
    }

    fn flush(&mut self) -> std::io::Result<()> {
        if self.disconnected {
            return Err(std::io::Error::new(
                std::io::ErrorKind::ConnectionAborted,
                "injected disconnect (sticky)",
            ));
        }
        self.inner.flush()
    }
}

/// What one soak run should throw at the server.
#[derive(Debug, Clone)]
pub struct SoakConfig {
    /// Seeded fault plans to run (one chaos connection each).
    pub plans: usize,
    /// Plan `i` uses seed `base_seed + i`.
    pub base_seed: u64,
    /// Model id every request targets.
    pub model: String,
    /// Per-image dims of the requests.
    pub dims: Vec<usize>,
    /// Input images, cycled through across plans.
    pub images: Vec<Vec<f32>>,
    /// Reference logits per image, from in-process inference — every
    /// completed reply must match them bit-for-bit.
    pub expected: Vec<Vec<f32>>,
    /// Socket read timeout on chaos and clean connections, so a wedged
    /// server fails the soak instead of hanging it.
    pub reply_timeout: Duration,
}

/// Outcome tallies of one [`run_soak`] call.
///
/// The contract a soak asserts: `mismatched == 0` and
/// `clean_failures == 0`, with `completed + typed_errors + aborted ==
/// plans_run`. Aborted plans are *expected* — injected resets and
/// disconnects kill round trips by design; what they must never kill
/// is correctness or the server's ability to serve the next client.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SoakReport {
    /// Chaos plans executed.
    pub plans_run: usize,
    /// Round trips that completed with logits.
    pub completed: usize,
    /// Completed replies whose logits were not bit-identical to the
    /// reference (must be 0).
    pub mismatched: usize,
    /// Round trips answered by a typed server error frame.
    pub typed_errors: usize,
    /// Round trips killed by a transport-level failure.
    pub aborted: usize,
    /// Clean-client round trips that failed after a chaos plan
    /// (must be 0).
    pub clean_failures: usize,
}

/// Bit-exact logits comparison (NaN-safe).
fn bits_equal(a: &[f32], b: &[f32]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// One chaos round trip: connect, wrap in the plan, attempt a full
/// Infer request/response.
fn chaos_round_trip(
    addr: SocketAddr,
    plan: FaultPlan,
    cfg: &SoakConfig,
    image: &[f32],
) -> Result<Response> {
    let stream =
        TcpStream::connect(addr).map_err(|e| ServeError::Io(format!("chaos connect: {e}")))?;
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(cfg.reply_timeout));
    let _ = stream.set_write_timeout(Some(cfg.reply_timeout));
    let mut chaos = FaultStream::new(stream, plan);
    let request = Request::Infer {
        model: cfg.model.clone(),
        dims: cfg.dims.clone(),
        data: image.to_vec(),
    };
    write_frame(&mut chaos, &encode_payload(&request))?;
    match read_frame(&mut chaos)? {
        Frame::Payload(payload) => decode_payload(&payload),
        Frame::Closed => Err(ServeError::Io("server hung up before replying".into())),
    }
}

/// Runs `cfg.plans` seeded fault plans against the server at `addr`,
/// interleaving a clean-client round trip after every chaos
/// connection.
///
/// # Errors
///
/// Returns [`ServeError::Io`] only when the *clean* setup itself is
/// impossible (e.g. nothing listens at `addr` for the very first
/// connection); chaos-connection failures are tallied, not returned.
pub fn run_soak(addr: SocketAddr, cfg: &SoakConfig) -> Result<SoakReport> {
    if cfg.images.is_empty() || cfg.images.len() != cfg.expected.len() {
        return Err(ServeError::InvalidRequest(
            "soak needs images with matching expected logits".into(),
        ));
    }
    let mut report = SoakReport::default();
    for i in 0..cfg.plans {
        let plan = FaultPlan::seeded(cfg.base_seed.wrapping_add(i as u64));
        let idx = i % cfg.images.len();
        let (image, expected) = match (cfg.images.get(idx), cfg.expected.get(idx)) {
            (Some(img), Some(exp)) => (img, exp),
            _ => continue,
        };
        report.plans_run += 1;
        match chaos_round_trip(addr, plan, cfg, image) {
            Ok(Response::Logits(logits)) => {
                report.completed += 1;
                if !bits_equal(&logits, expected) {
                    report.mismatched += 1;
                }
            }
            Ok(Response::Error { .. }) => report.typed_errors += 1,
            // Any other response variant to an Infer is a server bug:
            // count it as a mismatch so the soak fails loudly.
            Ok(_) => {
                report.completed += 1;
                report.mismatched += 1;
            }
            Err(_) => report.aborted += 1,
        }
        // The invariant that matters: after every chaos connection, a
        // clean client still gets bit-exact service.
        match clean_round_trip(addr, cfg, image) {
            Ok(logits) if bits_equal(&logits, expected) => {}
            _ => report.clean_failures += 1,
        }
    }
    Ok(report)
}

/// One well-behaved round trip against `addr`.
fn clean_round_trip(addr: SocketAddr, cfg: &SoakConfig, image: &[f32]) -> Result<Vec<f32>> {
    let mut stream =
        TcpStream::connect(addr).map_err(|e| ServeError::Io(format!("clean connect: {e}")))?;
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(cfg.reply_timeout));
    let _ = stream.set_write_timeout(Some(cfg.reply_timeout));
    let request = Request::Infer {
        model: cfg.model.clone(),
        dims: cfg.dims.clone(),
        data: image.to_vec(),
    };
    write_frame(&mut stream, &encode_payload(&request))?;
    match read_frame(&mut stream)? {
        Frame::Payload(payload) => match decode_payload(&payload)? {
            Response::Logits(logits) => Ok(logits),
            Response::Error { kind, message } => Err(ServeError::Remote { kind, message }),
            other => Err(ServeError::Protocol(format!(
                "expected Logits, got {other:?}"
            ))),
        },
        Frame::Closed => Err(ServeError::Io("server hung up before replying".into())),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    #[test]
    fn seeded_plans_are_deterministic() {
        for seed in 0..32u64 {
            assert_eq!(FaultPlan::seeded(seed), FaultPlan::seeded(seed));
            let n = FaultPlan::seeded(seed).ops().len();
            assert!((1..=12).contains(&n), "seed {seed}: {n} ops");
        }
        // Different seeds explore different schedules (spot check).
        assert_ne!(FaultPlan::seeded(1), FaultPlan::seeded(2));
    }

    #[test]
    fn terminal_ops_end_a_plan() {
        for seed in 0..256u64 {
            let plan = FaultPlan::seeded(seed);
            for (i, op) in plan.ops().iter().enumerate() {
                if matches!(op, FaultOp::Reset | FaultOp::Disconnect) {
                    assert_eq!(i, plan.ops().len() - 1, "seed {seed}: terminal op mid-plan");
                }
            }
        }
    }

    #[test]
    fn chunk_caps_read_sizes() {
        let data = vec![7u8; 10];
        let plan = FaultPlan::from_ops(vec![FaultOp::Chunk(3), FaultOp::Chunk(2)]);
        let mut s = FaultStream::new(Cursor::new(data), plan);
        let mut buf = [0u8; 10];
        assert_eq!(s.read(&mut buf).expect("capped read"), 3);
        assert_eq!(s.read(&mut buf).expect("capped read"), 2);
        // Plan dry: the rest arrives unconstrained.
        assert_eq!(s.read(&mut buf).expect("free read"), 5);
    }

    #[test]
    fn interrupts_are_transparent_to_read_exact() {
        let data = vec![9u8; 4];
        let plan = FaultPlan::from_ops(vec![
            FaultOp::Interrupted,
            FaultOp::Chunk(1),
            FaultOp::Interrupted,
        ]);
        let mut s = FaultStream::new(Cursor::new(data), plan);
        let mut buf = [0u8; 4];
        s.read_exact(&mut buf).expect("read_exact retries EINTR");
        assert_eq!(buf, [9u8; 4]);
    }

    #[test]
    fn disconnect_is_sticky() {
        let plan = FaultPlan::from_ops(vec![FaultOp::Disconnect]);
        let mut s = FaultStream::new(Cursor::new(vec![1u8; 4]), plan);
        let mut buf = [0u8; 4];
        for _ in 0..3 {
            let err = s.read(&mut buf).expect_err("disconnected");
            assert_eq!(err.kind(), std::io::ErrorKind::ConnectionAborted);
        }
        assert!(s.flush().is_err(), "writes die too");
    }

    #[test]
    fn chunked_writes_still_complete_via_write_all() {
        let plan = FaultPlan::from_ops(vec![
            FaultOp::Chunk(2),
            FaultOp::Interrupted,
            FaultOp::Chunk(1),
        ]);
        let mut s = FaultStream::new(Vec::new(), plan);
        s.write_all(&[1, 2, 3, 4, 5, 6]).expect("write_all retries");
        assert_eq!(s.into_inner(), vec![1, 2, 3, 4, 5, 6]);
    }

    #[test]
    fn injected_errors_surface_with_their_kinds() {
        let plan = FaultPlan::from_ops(vec![FaultOp::WouldBlock, FaultOp::Reset]);
        let mut s = FaultStream::new(Cursor::new(vec![0u8; 2]), plan);
        let mut buf = [0u8; 2];
        assert_eq!(
            s.read(&mut buf).expect_err("would-block").kind(),
            std::io::ErrorKind::WouldBlock
        );
        assert_eq!(
            s.read(&mut buf).expect_err("reset").kind(),
            std::io::ErrorKind::ConnectionReset
        );
        // Reset is not sticky: the transport recovers.
        assert_eq!(s.read(&mut buf).expect("pass-through"), 2);
    }
}

//! The benchmark's own load generator. An open-loop phase drives one
//! protocol-v2 connection from two threads: a sender that writes each
//! request when it is due, and a receiver that matches replies by
//! request id. `MuxClient` keeps its stream private, so sending and
//! receiving could not overlap through it; the generator uses the same
//! public frame codec (`encode_payload_v2`, `write_frame`, `read_frame`,
//! `decode_payload_v2`) over a shared `TcpStream` instead. The
//! in-process replay drives the same schedule through `Runtime` with no
//! sockets.

use std::net::{SocketAddr, TcpStream};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use deepcam_serve::protocol::{
    decode_payload, decode_payload_v2, encode_payload, encode_payload_v2, read_frame, write_frame,
    ErrorKind, Frame, Request, Response, MAX_PROTOCOL_VERSION, PROTOCOL_V2,
};
use deepcam_serve::Runtime;

use crate::cpu;
use crate::schedule::Arrival;
use crate::setup::{Res, MODEL_ID};
use crate::stats::digest;

/// Lead time before a phase's first due instant, so threads are up.
const LEAD: Duration = Duration::from_millis(5);

/// How long a receiver waits for a reply before declaring it lost.
const REPLY_TIMEOUT: Duration = Duration::from_secs(30);

/// Opens one connection and negotiates protocol v2.
pub fn connect(addr: SocketAddr) -> Res<TcpStream> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(REPLY_TIMEOUT))?;
    stream.set_write_timeout(Some(REPLY_TIMEOUT))?;
    write_frame(
        &mut stream,
        &encode_payload(&Request::Hello {
            max_version: MAX_PROTOCOL_VERSION,
        }),
    )?;
    match read_frame(&mut stream)? {
        Frame::Payload(p) => match decode_payload::<Response>(&p)? {
            Response::Hello { version } if version >= PROTOCOL_V2 => Ok(stream),
            other => Err(format!("handshake answered {other:?}").into()),
        },
        Frame::Closed => Err("server closed during the handshake".into()),
    }
}

/// Everything one open-loop phase observed, indexed by schedule
/// position. Times are seconds from the phase start.
#[derive(Debug, Default)]
pub struct Phase {
    /// Due times (copied from the schedule).
    pub due: Vec<f64>,
    /// When each request was written (`INFINITY`: never).
    pub sent: Vec<f64>,
    /// When each reply arrived (`INFINITY`: never).
    pub done: Vec<f64>,
    /// Replies whose logits differ from the oracle.
    pub mismatched: usize,
    /// Typed refusals (`Overloaded`, `Draining`).
    pub refused: usize,
    /// Other typed error replies.
    pub errors: usize,
    /// Per-request encode time in seconds (traced phases only).
    pub encode_s: Vec<f64>,
    /// Per-reply decode time in seconds (traced phases only).
    pub decode_s: Vec<f64>,
    /// Process CPU seconds per reply, scaled to the nominal host
    /// ([`cpu::scaled`]), one value per consecutive window of replies
    /// (open-loop phases only).
    pub cpu_per_reply: Vec<f64>,
}

impl Phase {
    /// Replies that never arrived.
    pub fn missing(&self) -> usize {
        self.done.iter().filter(|d| d.is_infinite()).count()
    }

    /// Requests answered with logits.
    pub fn completed(&self) -> usize {
        self.due.len() - self.missing() - self.refused - self.errors
    }

    /// Failed, refused or lost requests.
    pub fn failed(&self) -> usize {
        self.missing() + self.refused + self.errors
    }
}

/// Runs `schedule` open loop over `stream`. Request ids start at
/// `*next_id` (advanced past the phase) so phases can share a
/// connection. `traced` adds per-frame encode/decode spans. The
/// receiver reads the process CPU time after every `cpu_window` replies.
#[allow(clippy::too_many_arguments)]
pub fn open_loop(
    stream: &TcpStream,
    next_id: &mut u64,
    schedule: &[Arrival],
    pool: &[Vec<f32>],
    oracle: &[u64],
    dims: [usize; 3],
    traced: bool,
    cpu_window: usize,
) -> Res<Phase> {
    let n = schedule.len();
    let base = *next_id;
    *next_id += n as u64;
    let start = Instant::now() + LEAD;
    let (sent, encode_s, recv) = std::thread::scope(|s| {
        let sender = s.spawn(|| -> Res<(Vec<f64>, Vec<f64>)> {
            let mut w = stream;
            let mut sent = Vec::with_capacity(n);
            let mut encode_s = Vec::new();
            for (i, a) in schedule.iter().enumerate() {
                let due = start + Duration::from_secs_f64(a.due);
                let now = Instant::now();
                if due > now {
                    std::thread::sleep(due - now);
                }
                let t = Instant::now();
                let payload = encode_payload_v2(
                    base + i as u64,
                    &Request::Infer {
                        model: MODEL_ID.into(),
                        dims: dims.to_vec(),
                        data: pool[a.input].clone(),
                    },
                );
                if traced {
                    encode_s.push(t.elapsed().as_secs_f64());
                }
                write_frame(&mut w, &payload)?;
                sent.push(secs_since(start, t));
            }
            Ok((sent, encode_s))
        });
        let receiver = s.spawn(|| -> Res<Phase> {
            let mut r = stream;
            let mut phase = Phase {
                due: schedule.iter().map(|a| a.due).collect(),
                done: vec![f64::INFINITY; n],
                ..Phase::default()
            };
            let mut mark = cpu::snapshot();
            for received in 1..=n {
                let payload = match read_frame(&mut r) {
                    Ok(Frame::Payload(p)) => p,
                    // A lost reply or a hang-up ends the phase; what is
                    // still outstanding counts as missing.
                    Ok(Frame::Closed) | Err(_) => break,
                };
                let t = Instant::now();
                let (id, resp) = decode_payload_v2::<Response>(&payload)?;
                if traced {
                    phase.decode_s.push(t.elapsed().as_secs_f64());
                }
                let Some(i) = id.checked_sub(base).map(|i| i as usize).filter(|&i| i < n) else {
                    return Err(format!("reply for unknown request id {id}").into());
                };
                phase.done[i] = secs_since(start, t);
                match resp {
                    Response::Logits(l) => {
                        if digest(&l) != oracle[schedule[i].input] {
                            phase.mismatched += 1;
                        }
                    }
                    Response::Error {
                        kind: ErrorKind::Overloaded | ErrorKind::Draining,
                        ..
                    } => phase.refused += 1,
                    _ => phase.errors += 1,
                }
                if received % cpu_window == 0 {
                    // The reference runs between two snapshots, outside
                    // every window.
                    let per_reply = cpu::snapshot().since(&mark) / cpu_window as f64;
                    let reference = cpu::reference_s();
                    phase.cpu_per_reply.push(cpu::scaled(per_reply, reference));
                    mark = cpu::snapshot();
                }
            }
            Ok(phase)
        });
        let sender = sender.join().expect("sender thread");
        let recv = receiver.join().expect("receiver thread");
        match sender {
            Ok((sent, enc)) => (sent, enc, recv),
            Err(e) => (Vec::new(), Vec::new(), Err(e)),
        }
    });
    let mut phase = recv?;
    phase.sent = sent;
    phase.sent.resize(n, f64::INFINITY);
    phase.encode_s = encode_s;
    Ok(phase)
}

/// Replays `schedule` in-process through `Runtime::submit_sink`: the
/// session layer alone, with no sockets or framing.
pub fn session_replay(
    runtime: &Runtime,
    schedule: &[Arrival],
    pool: &[Vec<f32>],
    oracle: &[u64],
    dims: [usize; 3],
) -> Res<Phase> {
    let n = schedule.len();
    let start = Instant::now() + LEAD;
    let shared = Arc::new(Mutex::new(Phase {
        due: schedule.iter().map(|a| a.due).collect(),
        sent: vec![f64::INFINITY; n],
        done: vec![f64::INFINITY; n],
        ..Phase::default()
    }));
    for (i, a) in schedule.iter().enumerate() {
        let due = start + Duration::from_secs_f64(a.due);
        let now = Instant::now();
        if due > now {
            std::thread::sleep(due - now);
        }
        let expected = oracle[a.input];
        let sink = Arc::clone(&shared);
        let t = Instant::now();
        let submitted = runtime.submit_sink(MODEL_ID, &dims, &pool[a.input], move |result| {
            let done = secs_since(start, Instant::now());
            let mut p = sink.lock().expect("replay lock");
            p.done[i] = done;
            match result {
                Ok(l) if digest(&l) == expected => {}
                Ok(_) => p.mismatched += 1,
                Err(_) => p.errors += 1,
            }
        });
        let mut p = shared.lock().expect("replay lock");
        p.sent[i] = secs_since(start, t);
        if submitted.is_err() {
            p.refused += 1;
            p.done[i] = p.sent[i];
        }
    }
    // Every accepted request's sink fires exactly once; wait for them.
    let deadline = Instant::now() + REPLY_TIMEOUT;
    loop {
        let p = shared.lock().expect("replay lock");
        if p.done.iter().filter(|d| d.is_finite()).count() >= n || Instant::now() > deadline {
            break;
        }
        drop(p);
        std::thread::sleep(Duration::from_millis(1));
    }
    let mut p = shared.lock().expect("replay lock");
    Ok(std::mem::take(&mut *p))
}

/// Seconds from `start` to `t` (negative when `t` precedes it).
fn secs_since(start: Instant, t: Instant) -> f64 {
    match t.checked_duration_since(start) {
        Some(d) => d.as_secs_f64(),
        None => -(start - t).as_secs_f64(),
    }
}

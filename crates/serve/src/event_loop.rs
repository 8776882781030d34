//! The epoll readiness core: one thread, every connection.
//!
//! Each connection's lifecycle is a [`Connection`] (`crate::connection`);
//! this loop only moves bytes and events to and from it. Readiness comes
//! from a level-triggered [`crate::poll::Epoll`] over non-blocking
//! sockets; completions come back from the session dispatcher threads
//! through a queue + `eventfd` waker ([`LoopCtl`]), keyed by (connection
//! token, request id) so protocol v2 clients multiplex many in-flight
//! requests over one socket.

#![cfg(target_os = "linux")]

use std::collections::{HashMap, VecDeque};
use std::io::{Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::sync::atomic::Ordering;
use std::sync::{Arc, Mutex, MutexGuard, Weak};
use std::time::{Duration, Instant};

use crate::connection::{Action, Connection};
use crate::error::{Result as ServeResult, ServeError};
use crate::poll::{Epoll, EpollEvent, EventFd, EPOLLERR, EPOLLHUP, EPOLLIN, EPOLLOUT, EPOLLRDHUP};
use crate::server::ServerShared;

/// Epoll token of the accept listener.
const LISTENER_TOKEN: u64 = 0;
/// Epoll token of the [`LoopCtl`] waker eventfd.
const WAKER_TOKEN: u64 = 1;
/// First token handed to a connection.
const FIRST_CONN_TOKEN: u64 = 2;
/// Scratch buffer per `read` syscall.
const READ_CHUNK: usize = 16 * 1024;
/// Most `read` calls serviced per readiness report per connection —
/// level-triggered epoll re-reports leftover data, so capping keeps
/// one firehose connection from starving the rest.
const READS_PER_WAKE: usize = 8;
/// Readiness records per `epoll_wait`.
const MAX_EVENTS: usize = 256;

/// One finished inference routed back from a session dispatcher
/// thread to the loop.
pub(crate) struct Completion {
    conn: u64,
    request: u64,
    result: ServeResult<Vec<f32>>,
}

/// The loop's cross-thread control surface: session completion sinks,
/// the clock waker and [`crate::server::Server::shutdown`] all wake
/// the loop through the eventfd; completions ride the queue.
pub(crate) struct LoopCtl {
    pub(crate) waker: EventFd,
    completions: Mutex<VecDeque<Completion>>,
}

/// The completion queue, recovering from a poisoned lock: a panicking
/// dispatcher thread must not take the event loop down with it, and
/// the queue is valid under any interleaving of push/drain.
fn lock_completions(ctl: &LoopCtl) -> MutexGuard<'_, VecDeque<Completion>> {
    ctl.completions.lock().unwrap_or_else(|p| p.into_inner())
}

impl LoopCtl {
    fn push(&self, completion: Completion) {
        lock_completions(self).push_back(completion);
        self.waker.signal();
    }

    fn drain(&self) -> VecDeque<Completion> {
        std::mem::take(&mut *lock_completions(self))
    }
}

/// Creates the epoll instance, registers the listener and waker, wires
/// the clock waker, and spawns the `deepcam-serve-epoll` loop thread.
///
/// # Errors
///
/// [`ServeError::Io`] when any of the kernel objects or the thread
/// cannot be created — surfaced from `Server::bind`, so a host that
/// cannot run the epoll core fails loudly instead of serving nothing.
pub(crate) fn spawn_event_loop(
    listener: TcpListener,
    shared: &Arc<ServerShared>,
) -> ServeResult<(std::thread::JoinHandle<()>, Arc<LoopCtl>)> {
    let epoll = Epoll::new().map_err(|e| ServeError::Io(format!("epoll_create: {e}")))?;
    let ctl = Arc::new(LoopCtl {
        waker: EventFd::new().map_err(|e| ServeError::Io(format!("eventfd: {e}")))?,
        completions: Mutex::new(VecDeque::new()),
    });
    listener
        .set_nonblocking(true)
        .map_err(|e| ServeError::Io(format!("listener nonblocking: {e}")))?;
    epoll
        .add(listener.as_raw_fd(), EPOLLIN, LISTENER_TOKEN)
        .map_err(|e| ServeError::Io(format!("register listener: {e}")))?;
    epoll
        .add(ctl.waker.raw_fd(), EPOLLIN, WAKER_TOKEN)
        .map_err(|e| ServeError::Io(format!("register waker: {e}")))?;
    // A clock jump (ManualClock::advance) must re-run the deadline
    // sweep. Hold the ctl weakly so a long-lived clock never keeps a
    // dead loop's eventfd open, and report death so the clock prunes
    // the registration.
    let waker_target: Weak<LoopCtl> = Arc::downgrade(&ctl);
    shared
        .clock
        .register_waker(Arc::new(move || match waker_target.upgrade() {
            Some(ctl) => {
                ctl.waker.signal();
                true
            }
            None => false,
        }));
    let loop_shared = Arc::clone(shared);
    let loop_ctl = Arc::clone(&ctl);
    let handle = std::thread::Builder::new()
        .name("deepcam-serve-epoll".into())
        .spawn(move || run_loop(&epoll, &listener, &loop_shared, &loop_ctl))
        .map_err(|e| ServeError::Io(format!("spawn event loop: {e}")))?;
    Ok((handle, ctl))
}

/// One registered connection: its socket, its lifecycle, and the epoll
/// interest currently registered for it.
struct Conn {
    stream: TcpStream,
    conn: Connection,
    interest: u32,
}

/// The loop body: wait for readiness, feed it to the connections, apply
/// completions, tick lapsed deadlines, close the dead. Exits when the
/// shutdown flag is observed (the waker guarantees a prompt wake);
/// dropping the connections then releases their counts and sockets.
fn run_loop(epoll: &Epoll, listener: &TcpListener, shared: &Arc<ServerShared>, ctl: &Arc<LoopCtl>) {
    let mut conns: HashMap<u64, Conn> = HashMap::new();
    let mut next_token = FIRST_CONN_TOKEN;
    let mut events = vec![EpollEvent::zeroed(); MAX_EVENTS];
    while !shared.shutdown.load(Ordering::SeqCst) {
        let timeout = wait_timeout_ms(&conns, shared.clock.now());
        let n = match epoll.wait(&mut events, timeout) {
            Ok(n) => n,
            // Only a broken epoll fd lands here; back off rather than
            // spin so shutdown can still be observed.
            Err(_) => {
                std::thread::sleep(Duration::from_millis(1));
                0
            }
        };
        let now = shared.clock.now();
        let mut dead: Vec<u64> = Vec::new();
        for ev in events.iter().take(n) {
            match ev.token() {
                LISTENER_TOKEN => accept_ready_conns(
                    listener,
                    epoll,
                    &mut conns,
                    &mut next_token,
                    shared,
                    ctl,
                    now,
                ),
                WAKER_TOKEN => ctl.waker.drain(),
                token => {
                    if let Some(c) = conns.get_mut(&token) {
                        let readable = ev.events() & (EPOLLIN | EPOLLRDHUP | EPOLLERR | EPOLLHUP);
                        if (readable != 0 && !read_ready(c, now))
                            || !pump(c, token, shared, ctl, now)
                        {
                            dead.push(token);
                        }
                    }
                }
            }
        }
        // Completions arrive from dispatcher threads at any time; drain
        // unconditionally (cheap when empty). One for a connection that
        // already closed is dropped: its busy count went with it.
        for completion in ctl.drain() {
            let token = completion.conn;
            if let Some(c) = conns.get_mut(&token) {
                c.conn
                    .on_completion(completion.request, completion.result, now);
                if !pump(c, token, shared, ctl, now) {
                    dead.push(token);
                }
            }
        }
        for (token, c) in conns.iter_mut() {
            if c.conn.next_deadline().is_some_and(|d| now >= d) {
                c.conn.on_tick(now);
                if !pump(c, *token, shared, ctl, now) {
                    dead.push(*token);
                }
            }
        }
        // Dropping a connection closes its socket, which also removes
        // it from the epoll set.
        for token in dead {
            conns.remove(&token);
        }
        for (token, c) in conns.iter_mut() {
            sync_interest(epoll, *token, c);
        }
    }
}

/// The `epoll_wait` budget: until the nearest deadline (rounded up a
/// millisecond so expiry lands inside the wake, never a spin before
/// it), or forever when nothing is armed — the waker eventfd covers
/// completions, clock jumps and shutdown.
fn wait_timeout_ms(conns: &HashMap<u64, Conn>, now: Instant) -> Option<u32> {
    let next = conns
        .values()
        .filter_map(|c| c.conn.next_deadline())
        .min()?;
    let ms = next
        .saturating_duration_since(now)
        .as_millis()
        .saturating_add(1);
    Some(u32::try_from(ms).unwrap_or(u32::MAX))
}

/// Reads whatever arrived (bounded per wake) into the connection.
/// Returns false on a hard socket error.
fn read_ready(c: &mut Conn, now: Instant) -> bool {
    let mut scratch = [0u8; READ_CHUNK];
    for _ in 0..READS_PER_WAKE {
        match c.stream.read(&mut scratch) {
            Ok(0) => {
                c.conn.on_eof(now);
                break;
            }
            Ok(n) => {
                c.conn.on_bytes(scratch.get(..n).unwrap_or_default(), now);
                if n < scratch.len() {
                    break;
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(_) => return false,
        }
    }
    true
}

/// Carries out what the connection asks for after an event: submits
/// its `Infer` requests into the micro-batcher, writes what the socket
/// takes, and applies its socket action. Returns false when the
/// connection must close now.
fn pump(c: &mut Conn, token: u64, shared: &ServerShared, ctl: &Arc<LoopCtl>, now: Instant) -> bool {
    while let Some(sub) = c.conn.take_submission() {
        let sink_ctl = Arc::clone(ctl);
        let request = sub.id;
        let submitted =
            shared
                .runtime
                .submit_sink(&sub.model, &sub.dims, &sub.data, move |result| {
                    sink_ctl.push(Completion {
                        conn: token,
                        request,
                        result,
                    });
                });
        if let Err(e) = submitted {
            c.conn.on_completion(request, Err(e), now);
        }
    }
    loop {
        let pending = c.conn.pending();
        if pending.is_empty() {
            break;
        }
        match c.stream.write(pending) {
            Ok(0) => return false,
            Ok(n) => c.conn.on_written(n, now),
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(_) => return false,
        }
    }
    match c.conn.action(now) {
        Action::Serve => true,
        Action::HalfClose => {
            let _ = c.stream.shutdown(Shutdown::Write);
            true
        }
        Action::Close => false,
    }
}

/// Accepts every pending connection. Refused connections are
/// registered too: their typed refusal flushes through the same
/// non-blocking path as any reply, so refusals never stall accepts.
fn accept_ready_conns(
    listener: &TcpListener,
    epoll: &Epoll,
    conns: &mut HashMap<u64, Conn>,
    next_token: &mut u64,
    shared: &Arc<ServerShared>,
    ctl: &Arc<LoopCtl>,
    now: Instant,
) {
    loop {
        let stream = match listener.accept() {
            Ok((stream, _)) => stream,
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            // Transient per-connection failures (ECONNABORTED) or fd
            // exhaustion: yield to the next wake rather than spin.
            Err(_) => break,
        };
        if stream.set_nonblocking(true).is_err() {
            continue;
        }
        let _ = stream.set_nodelay(true);
        let token = *next_token;
        *next_token += 1;
        let mut c = Conn {
            stream,
            conn: Connection::accept(Arc::clone(shared), now),
            interest: 0,
        };
        if !pump(&mut c, token, shared, ctl, now) {
            continue;
        }
        let interest = desired_interest(&c);
        if epoll.add(c.stream.as_raw_fd(), interest, token).is_ok() {
            c.interest = interest;
            conns.insert(token, c);
        }
    }
}

fn desired_interest(c: &Conn) -> u32 {
    let mut interest = 0;
    if !c.conn.pending().is_empty() {
        interest |= EPOLLOUT;
    }
    if c.conn.wants_read() {
        interest |= EPOLLIN | EPOLLRDHUP;
    }
    interest
}

fn sync_interest(epoll: &Epoll, token: u64, c: &mut Conn) {
    let want = desired_interest(c);
    if want != c.interest && epoll.modify(c.stream.as_raw_fd(), want, token).is_ok() {
        c.interest = want;
    }
}

//! A dependency-free (`std::net`) TCP inference server over the
//! [`crate::protocol`] framing.
//!
//! Every connection's lifecycle is one `Connection` state machine
//! (`crate::connection`). Two connection cores run it, selected by
//! [`ServerConfig::core`] / `DEEPCAM_SERVE_CORE`
//! ([`crate::core_select`]):
//!
//! - **threads** (this file): one accept thread plus one blocking
//!   thread per connection — portable, simple, capped by thread count.
//! - **epoll** (`crate::event_loop`, Linux default): one event-loop
//!   thread multiplexing every connection through readiness polling,
//!   built for many more concurrent connections than threads.
//!
//! Either way every connection submits through the shared [`Runtime`],
//! so concurrent clients' requests coalesce in the per-model
//! micro-batchers and replies stay bit-identical between cores.
//! Per-connection limits (frame size, image size, connection count)
//! are enforced before any allocation or engine work.
//!
//! # Connection lifecycle
//!
//! Each connection distinguishes three ways of "not sending bytes":
//!
//! - **Idle at a frame boundary** — no bytes of the next frame have
//!   arrived. Governed by [`ServerConfig::idle_timeout`] (default:
//!   wait forever); hitting it closes the connection quietly.
//! - **Stalled mid-frame** — the first byte of a frame arrived but the
//!   rest didn't within [`ServerConfig::read_timeout`]. This is the
//!   slow-loris shape: the connection is answered once with a typed
//!   [`ErrorKind::Timeout`] frame and hung up, so a half-frame peer
//!   can never pin a connection against `max_connections`.
//! - **Not reading replies** — a zero-window peer stalling reply
//!   writes is reaped by [`ServerConfig::write_timeout`].
//!
//! A final error frame (refusal, timeout, drain, bad length prefix) is
//! followed by a write-half close and a short linger, so it is not
//! lost to an RST.
//!
//! # Graceful drain
//!
//! [`Server::shutdown`] is a two-phase drain: the accept gate starts
//! refusing with [`ErrorKind::Draining`], in-flight requests complete
//! through the session flush and their replies are written (bounded by
//! [`ServerConfig::drain_timeout`]), then every remaining stream is
//! hard-closed and the accept thread joined.

use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use crate::clock::{Clock, SystemClock};
use crate::connection::{Action, Connection};
use crate::core_select::{self, CoreSelect, ServerCore};
use crate::error::{Result, ServeError};
#[cfg(doc)]
use crate::protocol::ErrorKind;
use crate::session::Runtime;
use crate::stats::{ServerCounters, ServerStats};

/// Read buffer of one connection thread.
const READ_CHUNK: usize = 64 * 1024;

/// Server limits and knobs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServerConfig {
    /// Most simultaneously served connections; excess connects receive
    /// an `Overloaded` error frame and are closed.
    pub max_connections: usize,
    /// Mid-frame deadline: once the first byte of a frame arrives, the
    /// rest must follow within this budget or the connection is
    /// answered with [`ErrorKind::Timeout`] and closed. `None` disables
    /// the deadline (a half-frame peer can then pin its thread).
    pub read_timeout: Option<Duration>,
    /// Per-write deadline on reply frames; a peer that stops reading
    /// (zero window) is reaped instead of pinning the thread. `None`
    /// blocks forever.
    pub write_timeout: Option<Duration>,
    /// How long a connection may sit with *no* bytes of a next frame
    /// before being closed quietly. `None` (default) waits forever —
    /// idle-at-boundary is a healthy keep-alive connection.
    pub idle_timeout: Option<Duration>,
    /// Phase-one budget of [`Server::shutdown`]: how long in-flight
    /// requests get to complete and write their replies before the
    /// hard close.
    pub drain_timeout: Duration,
    /// Which connection core runs this server:
    /// [`CoreSelect::Auto`] (the default) consults
    /// `DEEPCAM_SERVE_CORE`, then the platform default (epoll on
    /// Linux, threads elsewhere); an explicit selection wins outright.
    pub core: CoreSelect,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            max_connections: 64,
            read_timeout: Some(Duration::from_secs(10)),
            write_timeout: Some(Duration::from_secs(10)),
            idle_timeout: None,
            drain_timeout: Duration::from_secs(5),
            core: CoreSelect::Auto,
        }
    }
}

/// State every connection shares: the runtime, config, clock,
/// lifecycle flags and robustness counters. Each `Connection` holds
/// it; the threads core reaches it from the accept/connection threads,
/// the epoll core from its one event-loop thread (`crate::event_loop`).
pub(crate) struct ServerShared {
    pub(crate) runtime: Arc<Runtime>,
    pub(crate) cfg: ServerConfig,
    pub(crate) clock: Arc<dyn Clock>,
    pub(crate) shutdown: AtomicBool,
    /// Latched by [`Server::shutdown`] before the drain wait: the
    /// accept gate refuses, and frames already buffered on live
    /// connections are answered with [`ErrorKind::Draining`].
    pub(crate) draining: AtomicBool,
    pub(crate) active: AtomicUsize,
    /// Requests currently between frame receipt and reply write. The
    /// drain wait in [`Server::shutdown`] blocks on this reaching 0.
    pub(crate) busy: AtomicUsize,
    next_conn_id: AtomicUsize,
    pub(crate) counters: ServerCounters,
    /// Clones of live connection streams keyed by connection id, kept
    /// so shutdown can unblock their reader threads (threads core
    /// only; the epoll core owns its streams inside the loop). Each
    /// connection removes its own entry on exit, so the map (and its
    /// file descriptors) tracks live connections, not connection
    /// history.
    conns: Mutex<std::collections::HashMap<usize, TcpStream>>,
}

impl ServerShared {
    pub(crate) fn new(runtime: Arc<Runtime>, cfg: ServerConfig, clock: Arc<dyn Clock>) -> Self {
        ServerShared {
            runtime,
            cfg,
            clock,
            shutdown: AtomicBool::new(false),
            draining: AtomicBool::new(false),
            active: AtomicUsize::new(0),
            busy: AtomicUsize::new(0),
            next_conn_id: AtomicUsize::new(0),
            counters: ServerCounters::default(),
            conns: Mutex::new(std::collections::HashMap::new()),
        }
    }
}

/// The tracked-connection table, recovering from a poisoned lock: a
/// panicking connection thread must not take the server's shutdown
/// path (or other connections) down with it, and the map of stream
/// clones is valid under any interleaving of inserts/removes.
fn lock_conns(
    shared: &ServerShared,
) -> std::sync::MutexGuard<'_, std::collections::HashMap<usize, TcpStream>> {
    shared.conns.lock().unwrap_or_else(|p| p.into_inner())
}

/// The per-core runtime half of a [`Server`]: which threads exist and
/// how phase 2 of shutdown unblocks them.
enum CoreRuntime {
    /// One accept thread plus one thread per connection.
    Threads {
        accept: Option<std::thread::JoinHandle<()>>,
    },
    /// One event-loop thread multiplexing every connection.
    #[cfg(target_os = "linux")]
    Epoll {
        thread: Option<std::thread::JoinHandle<()>>,
        ctl: Arc<crate::event_loop::LoopCtl>,
    },
}

/// A running TCP inference server. Shuts down on drop (or explicitly
/// via [`Server::shutdown`]).
pub struct Server {
    addr: SocketAddr,
    shared: Arc<ServerShared>,
    core: CoreRuntime,
}

impl Server {
    /// Binds `addr` (use port 0 for an ephemeral port) and starts
    /// accepting connections against `runtime`, reading deadlines from
    /// the system clock.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::Io`] when the bind fails.
    pub fn bind(
        addr: impl ToSocketAddrs,
        runtime: Arc<Runtime>,
        cfg: ServerConfig,
    ) -> Result<Server> {
        Server::bind_with_clock(addr, runtime, cfg, Arc::new(SystemClock))
    }

    /// [`Server::bind`] with an explicit time source, so deadline and
    /// drain behavior can be driven deterministically from tests via
    /// [`crate::clock::ManualClock`].
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::Io`] when the bind fails.
    pub fn bind_with_clock(
        addr: impl ToSocketAddrs,
        runtime: Arc<Runtime>,
        cfg: ServerConfig,
        clock: Arc<dyn Clock>,
    ) -> Result<Server> {
        let listener = TcpListener::bind(addr).map_err(|e| ServeError::Io(format!("bind: {e}")))?;
        let addr = listener
            .local_addr()
            .map_err(|e| ServeError::Io(format!("local_addr: {e}")))?;
        let resolved = core_select::resolve(cfg.core);
        let shared = Arc::new(ServerShared::new(runtime, cfg, clock));
        let core = match resolved {
            ServerCore::Threads => {
                let accept_shared = Arc::clone(&shared);
                let accept = std::thread::Builder::new()
                    .name("deepcam-serve-accept".into())
                    .spawn(move || accept_loop(&listener, &accept_shared))
                    .map_err(|e| ServeError::Io(format!("spawn accept thread: {e}")))?;
                CoreRuntime::Threads {
                    accept: Some(accept),
                }
            }
            #[cfg(target_os = "linux")]
            ServerCore::Epoll => {
                let (thread, ctl) = crate::event_loop::spawn_event_loop(listener, &shared)?;
                CoreRuntime::Epoll {
                    thread: Some(thread),
                    ctl,
                }
            }
            // `core_select::resolve` only returns Epoll where it can run.
            #[cfg(not(target_os = "linux"))]
            ServerCore::Epoll => {
                return Err(ServeError::Io(
                    "epoll core resolved on a non-Linux host".to_string(),
                ))
            }
        };
        Ok(Server { addr, shared, core })
    }

    /// The bound address (with the resolved port).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Connections currently being served.
    pub fn active_connections(&self) -> usize {
        self.shared.active.load(Ordering::SeqCst)
    }

    /// A snapshot of the connection robustness counters.
    pub fn stats(&self) -> ServerStats {
        self.shared.counters.snapshot()
    }

    /// Stable name of the connection core this server runs
    /// (`"threads"` or `"epoll"`).
    pub fn core_name(&self) -> &'static str {
        match &self.core {
            CoreRuntime::Threads { .. } => ServerCore::Threads.name(),
            #[cfg(target_os = "linux")]
            CoreRuntime::Epoll { .. } => ServerCore::Epoll.name(),
        }
    }

    /// Two-phase graceful drain. Phase 1: stop admitting work (the
    /// accept gate refuses with [`ErrorKind::Draining`], frames
    /// arriving on live connections are answered likewise) and wait up
    /// to [`ServerConfig::drain_timeout`] for in-flight requests to
    /// complete through the session flush and write their replies.
    /// Phase 2: hard-close every remaining stream, unblock and join
    /// the accept loop. Idempotent; also runs on drop.
    pub fn shutdown(&mut self) {
        if self.shared.shutdown.load(Ordering::SeqCst) {
            return;
        }
        self.shared.draining.store(true, Ordering::SeqCst);
        #[cfg(target_os = "linux")]
        if let CoreRuntime::Epoll { ctl, .. } = &self.core {
            // Wake the loop so the accept gate starts refusing now,
            // not at its next natural wakeup.
            ctl.waker.signal();
        }
        let start = self.shared.clock.now();
        while self.shared.busy.load(Ordering::SeqCst) > 0
            && self.shared.clock.now().saturating_duration_since(start)
                < self.shared.cfg.drain_timeout
        {
            std::thread::sleep(Duration::from_millis(1));
        }
        self.shared.shutdown.store(true, Ordering::SeqCst);
        match &mut self.core {
            CoreRuntime::Threads { accept } => {
                // Unblock connection readers first, then the accept
                // loop (via a throwaway connect so `incoming()` yields
                // once more).
                for (_, conn) in lock_conns(&self.shared).drain() {
                    let _ = conn.shutdown(Shutdown::Both);
                }
                let _ = TcpStream::connect(self.addr);
                if let Some(handle) = accept.take() {
                    let _ = handle.join();
                }
            }
            #[cfg(target_os = "linux")]
            CoreRuntime::Epoll { thread, ctl } => {
                // The loop observes the shutdown flag on wake, closes
                // every connection itself and exits.
                ctl.waker.signal();
                if let Some(handle) = thread.take() {
                    let _ = handle.join();
                }
            }
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn accept_loop(listener: &TcpListener, shared: &Arc<ServerShared>) {
    for stream in listener.incoming() {
        if shared.shutdown.load(Ordering::SeqCst) {
            return;
        }
        let Ok(stream) = stream else { continue };
        let conn = Connection::accept(Arc::clone(shared), shared.clock.now());
        let conn_id = shared.next_conn_id.fetch_add(1, Ordering::SeqCst);
        if let Ok(clone) = stream.try_clone() {
            lock_conns(shared).insert(conn_id, clone);
        }
        let conn_shared = Arc::clone(shared);
        // Connection threads are not joined: shutdown unblocks them by
        // closing their streams, after which they exit promptly.
        let spawned = std::thread::Builder::new()
            .name("deepcam-serve-conn".into())
            .spawn(move || {
                serve_connection(stream, conn, &conn_shared);
                // Release this connection's tracked clone (and its fd).
                lock_conns(&conn_shared).remove(&conn_id);
            });
        if spawned.is_err() {
            // The failed spawn dropped the closure, and with it the
            // `Connection` (releasing its `active` slot) and the stream.
            // Release the tracked clone too, or every failed spawn would
            // keep one fd open until shutdown.
            lock_conns(shared).remove(&conn_id);
        }
    }
}

/// The threads core's loop: one [`Connection`] over a blocking
/// socket. Each `Infer` submission runs to completion with
/// [`Runtime::infer`] and its reply is written before the next runs,
/// writes block under `write_timeout`, and reads block until the
/// connection's next deadline, which is then fed back as a tick.
fn serve_connection(mut stream: TcpStream, mut conn: Connection, shared: &ServerShared) {
    let _ = stream.set_nodelay(true);
    if stream.set_write_timeout(shared.cfg.write_timeout).is_err() {
        return;
    }
    let clock = shared.clock.as_ref();
    let mut buf = vec![0u8; READ_CHUNK];
    while !shared.shutdown.load(Ordering::SeqCst) {
        while let Some(sub) = conn.take_submission() {
            let result = shared.runtime.infer(&sub.model, &sub.dims, &sub.data);
            conn.on_completion(sub.id, result, clock.now());
            if !write_pending(&mut stream, &mut conn, clock) {
                return;
            }
        }
        if !write_pending(&mut stream, &mut conn, clock) {
            return;
        }
        match conn.action(clock.now()) {
            Action::Serve => {}
            Action::HalfClose => {
                let _ = stream.shutdown(Shutdown::Write);
            }
            Action::Close => return,
        }
        let now = clock.now();
        let timer = match conn.next_deadline() {
            None => None,
            Some(deadline) => match deadline.checked_duration_since(now) {
                Some(left) if !left.is_zero() => Some(left),
                _ => {
                    conn.on_tick(now);
                    continue;
                }
            },
        };
        if stream.set_read_timeout(timer).is_err() {
            return;
        }
        match stream.read(&mut buf) {
            Ok(0) => conn.on_eof(clock.now()),
            Ok(n) => conn.on_bytes(buf.get(..n).unwrap_or_default(), clock.now()),
            // The read timer lapsed: the deadline may have passed.
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) =>
            {
                conn.on_tick(clock.now())
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(_) => return,
        }
    }
}

/// Writes every pending reply byte. Returns false when the socket
/// failed, including a lapsed `write_timeout`.
fn write_pending(stream: &mut TcpStream, conn: &mut Connection, clock: &dyn Clock) -> bool {
    loop {
        let pending = conn.pending();
        if pending.is_empty() {
            return true;
        }
        match stream.write(pending) {
            Ok(0) => return false,
            Ok(n) => conn.on_written(n, clock.now()),
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(_) => return false,
        }
    }
}

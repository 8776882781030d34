//! A dependency-free (`std::net`) TCP inference server over the
//! [`crate::protocol`] framing.
//!
//! Every connection's lifecycle is one `Connection` state machine
//! (`crate::connection`), and one epoll event loop (`crate::event_loop`)
//! runs them all: a single thread multiplexing every connection through
//! readiness polling. The server needs Linux for it; elsewhere
//! [`Server::bind`] fails with [`ServeError::Io`].
//!
//! Every connection submits through the shared [`Runtime`], so
//! concurrent clients' requests coalesce in the per-model
//! micro-batchers and replies stay bit-identical to serial inference.
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
//! hard-closed and the event-loop thread joined.

use std::net::{SocketAddr, TcpListener, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

use crate::clock::{Clock, SystemClock};
use crate::error::{Result, ServeError};
#[cfg(doc)]
use crate::protocol::ErrorKind;
use crate::session::Runtime;
use crate::stats::{ServerCounters, ServerStats};

/// The connection core of a [`ServerConfig`]. It has one value, and
/// nothing reads it; it stays so existing configs that name it still
/// build.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CoreSelect {
    /// The epoll event loop.
    #[default]
    Epoll,
}

/// Server limits and knobs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServerConfig {
    /// Most simultaneously served connections; excess connects receive
    /// an `Overloaded` error frame and are closed.
    pub max_connections: usize,
    /// Mid-frame deadline: once the first byte of a frame arrives, the
    /// rest must follow within this budget or the connection is
    /// answered with [`ErrorKind::Timeout`] and closed. `None` disables
    /// the deadline (a half-frame peer can then hold its connection
    /// slot forever).
    pub read_timeout: Option<Duration>,
    /// Budget for pending reply bytes, re-armed whenever the peer takes
    /// some; a peer that stops reading (zero window) is reaped instead
    /// of holding its connection slot. `None` waits forever.
    pub write_timeout: Option<Duration>,
    /// How long a connection may sit with *no* bytes of a next frame
    /// before being closed quietly. `None` (default) waits forever —
    /// idle-at-boundary is a healthy keep-alive connection.
    pub idle_timeout: Option<Duration>,
    /// Phase-one budget of [`Server::shutdown`]: how long in-flight
    /// requests get to complete and write their replies before the
    /// hard close.
    pub drain_timeout: Duration,
    /// Unread; see [`CoreSelect`].
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
            core: CoreSelect::Epoll,
        }
    }
}

/// State every connection shares: the runtime, config, clock,
/// lifecycle flags and robustness counters. Each `Connection` holds
/// it; the event-loop thread (`crate::event_loop`) and
/// [`Server::shutdown`] reach it.
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
    pub(crate) counters: ServerCounters,
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
            counters: ServerCounters::default(),
        }
    }
}

/// A running TCP inference server. Shuts down on drop (or explicitly
/// via [`Server::shutdown`]).
pub struct Server {
    addr: SocketAddr,
    shared: Arc<ServerShared>,
    /// The event-loop thread; taken when shutdown joins it.
    thread: Option<std::thread::JoinHandle<()>>,
    #[cfg(target_os = "linux")]
    ctl: Arc<crate::event_loop::LoopCtl>,
}

impl Server {
    /// Binds `addr` (use port 0 for an ephemeral port) and starts
    /// accepting connections against `runtime`, reading deadlines from
    /// the system clock.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::Io`] when the bind fails, when the event
    /// loop cannot start, or on a host other than Linux.
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
    /// As [`Server::bind`].
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
        let shared = Arc::new(ServerShared::new(runtime, cfg, clock));
        #[cfg(target_os = "linux")]
        {
            let (thread, ctl) = crate::event_loop::spawn_event_loop(listener, &shared)?;
            Ok(Server {
                addr,
                shared,
                thread: Some(thread),
                ctl,
            })
        }
        #[cfg(not(target_os = "linux"))]
        {
            let _ = (listener, addr, shared);
            Err(ServeError::Io(
                "the TCP server needs Linux: it serves from an epoll event loop".to_string(),
            ))
        }
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

    /// Wakes the event loop so it re-reads the lifecycle flags now,
    /// not at its next natural wakeup.
    fn wake(&self) {
        #[cfg(target_os = "linux")]
        self.ctl.waker.signal();
    }

    /// Two-phase graceful drain. Phase 1: stop admitting work (the
    /// accept gate refuses with [`ErrorKind::Draining`], frames
    /// arriving on live connections are answered likewise) and wait up
    /// to [`ServerConfig::drain_timeout`] for in-flight requests to
    /// complete through the session flush and write their replies.
    /// Phase 2: the event loop closes every remaining connection and
    /// exits, and its thread is joined. Idempotent; also runs on drop.
    pub fn shutdown(&mut self) {
        if self.shared.shutdown.load(Ordering::SeqCst) {
            return;
        }
        self.shared.draining.store(true, Ordering::SeqCst);
        self.wake();
        let start = self.shared.clock.now();
        while self.shared.busy.load(Ordering::SeqCst) > 0
            && self.shared.clock.now().saturating_duration_since(start)
                < self.shared.cfg.drain_timeout
        {
            std::thread::sleep(Duration::from_millis(1));
        }
        self.shared.shutdown.store(true, Ordering::SeqCst);
        self.wake();
        if let Some(handle) = self.thread.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shutdown();
    }
}

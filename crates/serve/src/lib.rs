//! # deepcam-serve
//!
//! The serving runtime the ROADMAP's "heavy traffic" north star hangs
//! off: everything between a compiled [`deepcam_core::CompiledModel`]
//! artifact and a client socket.
//!
//! ```text
//!                    ┌────────────────────────────────────────────┐
//!  *.dcam artifacts →│ ModelRegistry   lazy load, kept while open │
//!                    └───────────────┬────────────────────────────┘
//!                                    │ Arc<DeepCamEngine>
//!                    ┌───────────────▼────────────────────────────┐
//!  submit()/infer() →│ Runtime → Session   bounded queue, dynamic │
//!                    │ micro-batcher → DeepCamEngine::infer       │
//!                    └───────────────┬────────────────────────────┘
//!                                    │ logits rows
//!                    ┌───────────────▼────────────────────────────┐
//!  TCP clients      →│ Server / Client     length-prefixed binary │
//!                    │ frames (serde::bin), hostile-input safe    │
//!                    └────────────────────────────────────────────┘
//! ```
//!
//! * [`registry::ModelRegistry`] — `DCAM` artifacts (v2 is written,
//!   v1–v2 are read) keyed by model id, loaded lazily and kept for
//!   the registry's lifetime, with typed errors for missing/corrupt
//!   artifacts.
//! * [`session::Session`] / [`session::Runtime`] — the one submission
//!   path: a bounded request queue and a dynamic micro-batcher that
//!   coalesces concurrent single-image requests into
//!   [`deepcam_core::DeepCamEngine::infer`] calls. Coalescing is
//!   **bit-invisible**: served logits are identical to serial
//!   submission for every batch composition and worker count.
//!   Backpressure is a typed [`ServeError::Overloaded`];
//!   per-model counters track requests, batches, occupancy and p50/p99
//!   latency.
//! * [`server::Server`] / [`client::Client`] — a `std::net`-only TCP
//!   server speaking the [`protocol`] frames (`Infer`, `ListModels`,
//!   `Stats`, `ServerStats`), with per-connection limits and
//!   hostile-input-safe decoding. Connections live under typed
//!   deadlines (`read_timeout` reaps mid-frame stalls, `idle_timeout`
//!   governs quiet keep-alives), shutdown is a two-phase graceful
//!   drain, and the client retries transport faults, `Overloaded` and
//!   `Draining` under a seeded deterministic
//!   [`client::RetryPolicy`] — safe because inference is pure and
//!   bit-exact. The connection lifecycle is decided once, in a
//!   sans-IO state machine (`connection`) that does no I/O and reads
//!   no clock. One connection core runs it: a dependency-free epoll
//!   readiness loop ([`poll`] + `event_loop`, so the server needs
//!   Linux) that multiplexes every connection on one thread and serves
//!   protocol-v2 clients many requests in flight per socket.
//! * [`client::MuxClient`] — the pipelining counterpart: negotiates
//!   protocol v2 and keys replies by request id, so callers keep many
//!   requests outstanding on one connection.
//! * [`chaos`] — deterministic fault injection: seeded
//!   [`chaos::FaultPlan`]s replayed by a [`chaos::FaultStream`]
//!   wrapper (partial I/O, injected errno faults, stalls, mid-frame
//!   disconnects) and a [`chaos::run_soak`] harness that pins the
//!   fault-tolerance contract against a live server.
//!
//! # Example
//!
//! ```no_run
//! use std::sync::Arc;
//! use deepcam_serve::{ModelRegistry, Runtime, SessionConfig};
//!
//! let registry = Arc::new(ModelRegistry::open("./models")?);
//! let runtime = Runtime::new(registry, SessionConfig::default());
//! let logits = runtime.infer("lenet5", &[1, 28, 28], &vec![0.0; 784])?;
//! assert_eq!(logits.len(), 10);
//! # Ok::<(), deepcam_serve::ServeError>(())
//! ```

// Machine-checked by deepcam-analyze (lint A2): every unsafe block in
// this crate lives in `poll` (the audited epoll/eventfd syscall
// wrappers), carries a `// SAFETY:` justification, and is registered
// in ANALYZE_UNSAFE.md. `deny` (not `forbid`) so exactly that module
// can opt in with `#![allow(unsafe_code)]`; everything else stays
// compiler-enforced safe.
#![deny(unsafe_code)]
// Off Linux nothing drives a `Connection` (the server needs epoll), but
// the portable parts and the socket-free lifecycle tests still build.
#![cfg_attr(not(target_os = "linux"), allow(dead_code))]

pub mod chaos;
pub mod client;
pub mod clock;
mod connection;
pub mod error;
mod event_loop;
pub mod poll;
pub mod protocol;
pub mod registry;
pub mod server;
pub mod session;
pub mod stats;

pub use chaos::{FaultOp, FaultPlan, FaultStream, SoakConfig, SoakReport};
pub use client::{Client, ClientConfig, MuxClient, RetryPolicy};
pub use clock::{Clock, ManualClock, SystemClock, Waker};
pub use error::{Result, ServeError};
pub use registry::{ModelInfo, ModelRegistry};
pub use server::{CoreSelect, Server, ServerConfig};
pub use session::{Pending, Runtime, Session, SessionConfig};
pub use stats::{LatencyHistogram, ServerStats, SessionStats};

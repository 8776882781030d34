//! The one submission path: a per-model [`Session`] with a bounded
//! request queue and a dynamic micro-batcher, plus the multi-model
//! [`Runtime`] façade the TCP server and in-process clients share.
//!
//! # How a request flows
//!
//! 1. [`Session::submit`] validates the image, applies backpressure
//!    (bounded queue → typed [`ServeError::Overloaded`]) and enqueues it
//!    with a reply channel, returning a [`Pending`] handle.
//!    ([`Session::submit_sink`] is the same path with a caller-supplied
//!    completion callback instead of a channel — the epoll server core
//!    routes replies back to its event loop this way.)
//! 2. The session's dispatcher thread coalesces queued requests into a
//!    micro-batch: it dispatches as soon as `max_batch` same-shaped
//!    requests are waiting, or when the oldest request has waited
//!    `max_wait` (the deadline is read from a [`Clock`], so tests drive
//!    it deterministically with [`crate::clock::ManualClock`]).
//! 3. The batch runs through [`DeepCamEngine::infer`], whose
//!    contract makes coalescing invisible: every image's logits are
//!    bit-identical to a lone `infer` call, whatever the batch
//!    composition (`tests/serve_differential.rs`).
//! 4. Each request's logits row is sent back over its reply channel and
//!    the per-model counters (requests, batches, occupancy, latency
//!    percentiles) are updated.
//!
//! Dropping the session flushes the queue: already-accepted requests
//! are still served before the dispatcher exits.

use std::collections::{HashMap, VecDeque};
use std::sync::mpsc::Receiver;
use std::sync::{Arc, Condvar, Mutex, Weak};
use std::time::{Duration, Instant};

use deepcam_core::DeepCamEngine;
use deepcam_tensor::{Shape, Tensor};

use crate::clock::{Clock, SystemClock};
use crate::error::{Result, ServeError};
use crate::registry::{ModelInfo, ModelRegistry};
use crate::stats::{SessionStats, StatsInner};

/// Tuning knobs of one session's micro-batcher.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SessionConfig {
    /// Most images coalesced into one engine call.
    pub max_batch: usize,
    /// Longest a queued request may wait for co-travellers before a
    /// partial batch dispatches anyway.
    pub max_wait: Duration,
    /// Bounded-queue capacity; submissions beyond it are rejected with
    /// [`ServeError::Overloaded`].
    pub queue_capacity: usize,
}

impl Default for SessionConfig {
    fn default() -> Self {
        SessionConfig {
            max_batch: 16,
            max_wait: Duration::from_millis(2),
            queue_capacity: 256,
        }
    }
}

/// Whether a queue snapshot is ready to dispatch — the batcher's single
/// decision rule, kept pure so the deadline arithmetic is unit-testable
/// without threads or clocks.
pub(crate) fn batch_ready(
    leading_same_shape: usize,
    oldest_age: Duration,
    cfg: &SessionConfig,
) -> bool {
    leading_same_shape >= cfg.max_batch.max(1) || oldest_age >= cfg.max_wait
}

/// One request's completion: invoked exactly once with its result.
/// Runs on the dispatcher thread with no session locks held, so a sink
/// may re-enter the session or take unrelated locks (the event loop's
/// completion queue) without ordering hazards.
type ReplySink = Box<dyn FnOnce(Result<Vec<f32>>) + Send>;

struct QueuedRequest {
    /// Per-image dims (no batch axis), e.g. `[1, 28, 28]`.
    dims: Vec<usize>,
    data: Vec<f32>,
    enqueued: Instant,
    reply: ReplySink,
}

struct QueueState {
    queue: VecDeque<QueuedRequest>,
    shutdown: bool,
}

struct SessionShared {
    state: Mutex<QueueState>,
    changed: Condvar,
    stats: Mutex<StatsInner>,
}

/// A pending inference: the caller's half of one request's reply
/// channel.
pub struct Pending {
    rx: Receiver<Result<Vec<f32>>>,
}

impl std::fmt::Debug for Pending {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Pending").finish_non_exhaustive()
    }
}

impl Pending {
    /// Blocks until the logits (or the request's error) arrive.
    ///
    /// # Errors
    ///
    /// Whatever the batch produced; [`ServeError::ShuttingDown`] if the
    /// session died without replying.
    pub fn wait(self) -> Result<Vec<f32>> {
        self.rx.recv().unwrap_or(Err(ServeError::ShuttingDown))
    }

    /// Blocks up to `timeout` for the reply. `None` means the request
    /// is still in flight (and this `Pending` stays usable — callers
    /// under a deadline can keep polling or give up without losing the
    /// reply channel); `Some` carries the same outcomes as
    /// [`Pending::wait`].
    pub fn wait_timeout(&self, timeout: std::time::Duration) -> Option<Result<Vec<f32>>> {
        match self.rx.recv_timeout(timeout) {
            Ok(result) => Some(result),
            Err(std::sync::mpsc::RecvTimeoutError::Timeout) => None,
            Err(std::sync::mpsc::RecvTimeoutError::Disconnected) => {
                Some(Err(ServeError::ShuttingDown))
            }
        }
    }
}

/// One model's submission path: bounded queue + dispatcher thread. See
/// the [module docs](self).
pub struct Session {
    engine: Arc<DeepCamEngine>,
    cfg: SessionConfig,
    clock: Arc<dyn Clock>,
    shared: Arc<SessionShared>,
    /// Expected elements per image when the model's first step is a dot
    /// layer — submit-time validation that keeps a misshapen request
    /// from ever reaching (and failing) a coalesced batch.
    expected_elems: Option<usize>,
    dispatcher: Mutex<Option<std::thread::JoinHandle<()>>>,
}

impl Session {
    /// Spawns a session (and its dispatcher thread) over `engine`,
    /// timed by the real clock.
    pub fn new(engine: Arc<DeepCamEngine>, cfg: SessionConfig) -> Arc<Session> {
        Session::with_clock(engine, cfg, Arc::new(SystemClock))
    }

    /// [`Session::new`] with an explicit time source — pass a
    /// [`crate::clock::ManualClock`] to drive the max-wait deadline
    /// deterministically in tests.
    pub fn with_clock(
        engine: Arc<DeepCamEngine>,
        cfg: SessionConfig,
        clock: Arc<dyn Clock>,
    ) -> Arc<Session> {
        let shared = Arc::new(SessionShared {
            state: Mutex::new(QueueState {
                queue: VecDeque::new(),
                shutdown: false,
            }),
            changed: Condvar::new(),
            stats: Mutex::new(StatsInner::default()),
        });
        // A clock jump must re-run the deadline check; hold the shared
        // state weakly so a long-lived clock never keeps a dead
        // session's queue alive, and report death so the clock prunes
        // the registration.
        let waker_target: Weak<SessionShared> = Arc::downgrade(&shared);
        clock.register_waker(Arc::new(move || match waker_target.upgrade() {
            Some(shared) => {
                shared.changed.notify_all();
                true
            }
            None => false,
        }));
        let expected_elems = expected_image_elems(&engine);
        let session = Arc::new(Session {
            engine: Arc::clone(&engine),
            cfg: cfg.clone(),
            clock: Arc::clone(&clock),
            shared: Arc::clone(&shared),
            expected_elems,
            dispatcher: Mutex::new(None),
        });
        let handle = std::thread::Builder::new()
            .name("deepcam-session".into())
            .spawn(move || dispatch_loop(&engine, &shared, &cfg, clock.as_ref()))
            .expect("spawn session dispatcher");
        *session.dispatcher.lock().expect("dispatcher lock") = Some(handle);
        session
    }

    /// Enqueues one image (shape per image, no batch axis — e.g.
    /// `[1, 28, 28]`) and returns its [`Pending`] reply handle.
    ///
    /// # Errors
    ///
    /// [`ServeError::InvalidRequest`] for empty/misshapen images or
    /// non-finite (NaN, ±inf) values,
    /// [`ServeError::Overloaded`] when the bounded queue is full,
    /// [`ServeError::ShuttingDown`] after shutdown began.
    pub fn submit(&self, dims: &[usize], data: &[f32]) -> Result<Pending> {
        let (tx, rx) = std::sync::mpsc::sync_channel(1);
        self.submit_sink(dims, data, move |result| {
            let _ = tx.send(result);
        })?;
        Ok(Pending { rx })
    }

    /// [`Session::submit`] with a caller-supplied completion instead of
    /// a reply channel: `sink` is invoked exactly once, on the
    /// dispatcher thread with no session locks held, when the request's
    /// batch completes. On a submit *error* the sink is returned
    /// undisturbed inside the `Err` path semantics — it is simply
    /// dropped uncalled, and the caller reports the error itself.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Session::submit`].
    pub fn submit_sink(
        &self,
        dims: &[usize],
        data: &[f32],
        sink: impl FnOnce(Result<Vec<f32>>) + Send + 'static,
    ) -> Result<()> {
        // Checked product, mirroring the wire decoder: this is public
        // API, so hostile dims can arrive without passing protocol.rs.
        let mut elems = 1usize;
        for &d in dims {
            elems = match d.checked_mul(elems) {
                Some(e) if d > 0 => e,
                _ => {
                    return Err(ServeError::InvalidRequest(format!(
                        "image dims {dims:?} are zero or overflow"
                    )))
                }
            };
        }
        if dims.is_empty() {
            return Err(ServeError::InvalidRequest(format!(
                "image dims {dims:?} describe no elements"
            )));
        }
        if elems != data.len() {
            return Err(ServeError::InvalidRequest(format!(
                "image dims {dims:?} imply {elems} elements, got {}",
                data.len()
            )));
        }
        if let Some(expected) = self.expected_elems {
            if elems != expected {
                return Err(ServeError::InvalidRequest(format!(
                    "model {:?} expects {expected} elements per image, got {elems}",
                    self.engine.model_name()
                )));
            }
        }
        if let Some(i) = data.iter().position(|v| !v.is_finite()) {
            return Err(ServeError::InvalidRequest(format!(
                "image element {i} is {}, inputs must be finite",
                data[i]
            )));
        }
        let wake = {
            let mut st = self.shared.state.lock().expect("session lock");
            if st.shutdown {
                return Err(ServeError::ShuttingDown);
            }
            if st.queue.len() >= self.cfg.queue_capacity.max(1) {
                let queued = st.queue.len();
                drop(st);
                self.shared.stats.lock().expect("stats lock").rejected += 1;
                return Err(ServeError::Overloaded {
                    queued,
                    capacity: self.cfg.queue_capacity.max(1),
                });
            }
            // Count the submission while still holding the queue lock:
            // the dispatcher cannot complete this request before the
            // lock drops, so a stats snapshot can never observe
            // `completed > submitted`.
            self.shared.stats.lock().expect("stats lock").submitted += 1;
            st.queue.push_back(QueuedRequest {
                dims: dims.to_vec(),
                data: data.to_vec(),
                enqueued: self.clock.now(),
                reply: Box::new(sink),
            });
            // Wake the dispatcher only when this push changes its
            // decision: the queue stopped being empty, or the leading
            // same-shape run just reached `max_batch`. A push behind a
            // partial batch leaves its deadline where it was.
            let cap = self.cfg.max_batch.max(1);
            let len = st.queue.len();
            len == 1 || (len == cap && leading_same_shape(&st.queue, cap) == cap)
        };
        if wake {
            self.shared.changed.notify_all();
        }
        Ok(())
    }

    /// Blocking single-image inference: [`Session::submit`] +
    /// [`Pending::wait`].
    ///
    /// # Errors
    ///
    /// Same conditions as [`Session::submit`], plus whatever the batch
    /// produced.
    pub fn infer(&self, dims: &[usize], data: &[f32]) -> Result<Vec<f32>> {
        self.submit(dims, data)?.wait()
    }

    /// A point-in-time snapshot of this session's counters.
    pub fn stats(&self) -> SessionStats {
        self.shared.stats.lock().expect("stats lock").snapshot()
    }

    /// Requests currently queued (excluding any batch in flight).
    pub fn queue_len(&self) -> usize {
        self.shared.state.lock().expect("session lock").queue.len()
    }

    /// Stops accepting work, serves everything already queued, and
    /// joins the dispatcher. Idempotent; also runs on drop.
    pub fn shutdown(&self) {
        {
            let mut st = self.shared.state.lock().expect("session lock");
            st.shutdown = true;
        }
        self.shared.changed.notify_all();
        let handle = self.dispatcher.lock().expect("dispatcher lock").take();
        if let Some(handle) = handle {
            let _ = handle.join();
        }
    }
}

impl Drop for Session {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Elements per image the compiled model expects: the first dot layer's
/// unique-input count, which is the model input size only when nothing
/// runs before it (`None` otherwise — validation then falls to the
/// engine's own shape errors).
fn expected_image_elems(engine: &DeepCamEngine) -> Option<usize> {
    let ir = &engine.compiled().ir;
    let first = ir.dots.first().filter(|_| ir.preamble.is_empty())?;
    Some(first.shape.input_elems)
}

/// Length of the queue's leading run of same-shaped requests — the
/// most that can coalesce into the next batch without reordering.
fn leading_same_shape(queue: &VecDeque<QueuedRequest>, cap: usize) -> usize {
    let Some(front) = queue.front() else { return 0 };
    queue
        .iter()
        .take(cap.max(1))
        .take_while(|r| r.dims == front.dims)
        .count()
}

/// The dispatcher thread: waits for a dispatchable batch, drains it,
/// runs it, replies. Exits once shutdown is flagged *and* the queue is
/// empty, so accepted requests are always served.
fn dispatch_loop(
    engine: &Arc<DeepCamEngine>,
    shared: &Arc<SessionShared>,
    cfg: &SessionConfig,
    clock: &dyn Clock,
) {
    loop {
        let batch: Vec<QueuedRequest> = {
            let mut st = shared.state.lock().expect("session lock");
            loop {
                if st.queue.is_empty() {
                    if st.shutdown {
                        return;
                    }
                    st = shared.changed.wait(st).expect("session lock");
                    continue;
                }
                if st.shutdown {
                    break; // flush whatever is queued, without waiting
                }
                let now = clock.now();
                let oldest = st.queue.front().expect("non-empty queue").enqueued;
                let age = now.saturating_duration_since(oldest);
                let run = leading_same_shape(&st.queue, cfg.max_batch);
                if batch_ready(run, age, cfg) {
                    break;
                }
                // Sleep until the deadline (or a queue/clock change). A
                // manual clock wakes us via its registered waker; a
                // spurious or real-time wake just re-checks above.
                let deadline = oldest + cfg.max_wait;
                let timeout = deadline.saturating_duration_since(now);
                let (g, _) = shared
                    .changed
                    .wait_timeout(st, timeout.max(Duration::from_micros(100)))
                    .expect("session lock");
                st = g;
            }
            let run = leading_same_shape(&st.queue, cfg.max_batch);
            st.queue.drain(..run.max(1)).collect()
        };
        run_batch(engine, shared, clock, batch);
    }
}

/// Runs one coalesced micro-batch and replies to every request in it.
fn run_batch(
    engine: &Arc<DeepCamEngine>,
    shared: &Arc<SessionShared>,
    clock: &dyn Clock,
    batch: Vec<QueuedRequest>,
) {
    if batch.is_empty() {
        return;
    }
    let occupancy = batch.len();
    let per_image: usize = batch[0].dims.iter().product();
    let mut dims = vec![occupancy];
    dims.extend_from_slice(&batch[0].dims);
    let mut data = Vec::with_capacity(occupancy * per_image);
    for req in &batch {
        data.extend_from_slice(&req.data);
    }
    let result = Tensor::from_vec(data, Shape::new(&dims))
        .map_err(|e| ServeError::Engine(e.into()))
        .and_then(|images| engine.infer(&images).map_err(ServeError::Engine));
    let now = clock.now();
    let mut replies: Vec<(ReplySink, Result<Vec<f32>>)> = Vec::with_capacity(occupancy);
    {
        let mut stats = shared.stats.lock().expect("stats lock");
        stats.batches += 1;
        stats.occupancy_sum += occupancy as u64;
        stats.max_occupancy = stats.max_occupancy.max(occupancy);
        match result {
            Ok(logits) => {
                // Each image's whole output, whatever its per-image dims.
                let per_reply = logits.len() / occupancy;
                for (row, req) in batch.into_iter().enumerate() {
                    let out = logits.data()[row * per_reply..(row + 1) * per_reply].to_vec();
                    stats.completed += 1;
                    stats
                        .latency
                        .record(now.saturating_duration_since(req.enqueued));
                    replies.push((req.reply, Ok(out)));
                }
            }
            Err(e) => {
                for req in batch {
                    stats.failed += 1;
                    stats
                        .latency
                        .record(now.saturating_duration_since(req.enqueued));
                    replies.push((req.reply, Err(e.clone())));
                }
            }
        }
    }
    // Completions run strictly after the stats lock drops: a sink is
    // arbitrary caller code (the epoll core's routes a reply through
    // its own completion queue) and must never nest inside our locks.
    for (sink, result) in replies {
        sink(result);
    }
}

/// The multi-model serving façade: a [`ModelRegistry`] plus one lazily
/// created [`Session`] per served model, all sharing a clock and a
/// session configuration. This is the single object the TCP server,
/// benches and examples submit through.
pub struct Runtime {
    registry: Arc<ModelRegistry>,
    cfg: SessionConfig,
    clock: Arc<dyn Clock>,
    sessions: Mutex<HashMap<String, Arc<Session>>>,
}

impl Runtime {
    /// A runtime over `registry`, timed by the real clock.
    pub fn new(registry: Arc<ModelRegistry>, cfg: SessionConfig) -> Self {
        Runtime::with_clock(registry, cfg, Arc::new(SystemClock))
    }

    /// [`Runtime::new`] with an explicit time source for tests.
    pub fn with_clock(
        registry: Arc<ModelRegistry>,
        cfg: SessionConfig,
        clock: Arc<dyn Clock>,
    ) -> Self {
        Runtime {
            registry,
            cfg,
            clock,
            sessions: Mutex::new(HashMap::new()),
        }
    }

    /// The session serving `model`, creating it (and loading the
    /// model's artifact) on first use.
    ///
    /// The cold path — artifact load + session spawn — runs without the
    /// session-map lock held, so opening one cold model never stalls
    /// traffic to models that are already serving.
    ///
    /// # Errors
    ///
    /// Propagates registry errors ([`ServeError::ModelNotFound`],
    /// [`ServeError::BadArtifact`]).
    pub fn session(&self, model: &str) -> Result<Arc<Session>> {
        if let Some(session) = self.sessions.lock().expect("runtime lock").get(model) {
            return Ok(Arc::clone(session));
        }
        // Cold path: load with no locks held (the registry does its own
        // fine-grained locking), then publish — reusing a racer's
        // session if one appeared meanwhile.
        let engine = self.registry.get(model)?;
        let mut sessions = self.sessions.lock().expect("runtime lock");
        if let Some(session) = sessions.get(model) {
            return Ok(Arc::clone(session));
        }
        let session = Session::with_clock(engine, self.cfg.clone(), Arc::clone(&self.clock));
        sessions.insert(model.to_string(), Arc::clone(&session));
        Ok(session)
    }

    /// Blocking single-image inference against `model` through its
    /// session's micro-batcher.
    ///
    /// # Errors
    ///
    /// Registry errors, submit errors, or the batch's engine error.
    pub fn infer(&self, model: &str, dims: &[usize], data: &[f32]) -> Result<Vec<f32>> {
        self.session(model)?.infer(dims, data)
    }

    /// Non-blocking submission against `model`.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Session::submit`] plus registry errors.
    pub fn submit(&self, model: &str, dims: &[usize], data: &[f32]) -> Result<Pending> {
        self.session(model)?.submit(dims, data)
    }

    /// Completion-callback submission against `model`
    /// ([`Session::submit_sink`] through the registry).
    ///
    /// # Errors
    ///
    /// Same conditions as [`Session::submit`] plus registry errors; on
    /// `Err` the sink was never (and will never be) invoked.
    pub fn submit_sink(
        &self,
        model: &str,
        dims: &[usize],
        data: &[f32],
        sink: impl FnOnce(Result<Vec<f32>>) + Send + 'static,
    ) -> Result<()> {
        self.session(model)?.submit_sink(dims, data, sink)
    }

    /// Serving counters for `model` (zeroed if its session has not been
    /// created yet).
    ///
    /// # Errors
    ///
    /// [`ServeError::ModelNotFound`] for ids the registry has never
    /// heard of.
    pub fn stats(&self, model: &str) -> Result<SessionStats> {
        if let Some(session) = self.sessions.lock().expect("runtime lock").get(model) {
            return Ok(session.stats());
        }
        // No traffic yet: still distinguish "idle model" from "unknown".
        if self.registry.contains(model) {
            Ok(StatsInner::default().snapshot())
        } else {
            Err(ServeError::ModelNotFound {
                model: model.into(),
            })
        }
    }

    /// Every model the registry knows, with its load status.
    pub fn list(&self) -> Vec<ModelInfo> {
        self.registry.list()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn batch_ready_rule() {
        let cfg = SessionConfig {
            max_batch: 4,
            max_wait: Duration::from_millis(2),
            queue_capacity: 8,
        };
        // Neither full nor expired.
        assert!(!batch_ready(3, Duration::from_micros(100), &cfg));
        // Full batch dispatches regardless of age.
        assert!(batch_ready(4, Duration::ZERO, &cfg));
        // Deadline expiry dispatches a partial batch.
        assert!(batch_ready(1, Duration::from_millis(2), &cfg));
        assert!(batch_ready(1, Duration::from_secs(1), &cfg));
        // Degenerate max_batch of 0 behaves like 1.
        let tiny = SessionConfig {
            max_batch: 0,
            ..cfg
        };
        assert!(batch_ready(1, Duration::ZERO, &tiny));
    }

    #[test]
    fn leading_same_shape_stops_at_shape_change() {
        let mk = |dims: &[usize]| QueuedRequest {
            dims: dims.to_vec(),
            data: vec![0.0; dims.iter().product()],
            enqueued: Instant::now(),
            reply: Box::new(|_| {}),
        };
        let mut q = VecDeque::new();
        assert_eq!(leading_same_shape(&q, 8), 0);
        q.push_back(mk(&[2, 2]));
        q.push_back(mk(&[2, 2]));
        q.push_back(mk(&[3]));
        q.push_back(mk(&[2, 2]));
        assert_eq!(leading_same_shape(&q, 8), 2);
        assert_eq!(leading_same_shape(&q, 1), 1);
    }
}

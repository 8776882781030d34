//! A small, dependency-free scoped thread pool.
//!
//! DeepCAM's speedup claim rests on massive parallelism across CAM
//! sub-arrays; the software reproduction mirrors that by sharding its hot
//! loops (patch hashing, image batches, the reference datapath's im2col
//! and dot layers) across a shared pool of workers. The pool lives here —
//! at the bottom of the crate graph — so `deepcam-core` and the bench
//! bins reuse one set of threads instead of spawning per call.
//!
//! # Design
//!
//! * **One task queue.** [`Scope::spawn`] appends to a single FIFO under
//!   the pool's lock, and an idle worker pops the oldest task. Every
//!   claim takes that lock anyway, so per-worker queues would add no
//!   parallelism. No external crates (`rayon`, `crossbeam`) are used —
//!   the container builds fully offline.
//! * **Scoped tasks.** [`ThreadPool::scope`] lets tasks borrow from the
//!   caller's stack (like `std::thread::scope`): the call does not return
//!   until every spawned task has finished, on every exit path.
//! * **Nested-scope safe.** A thread that waits on a scope *helps*: it
//!   pops queued tasks and runs them while waiting. An image task of
//!   `DeepCamEngine::infer` can therefore open its own `scope` for patch
//!   hashing on a single-worker pool without deadlocking.
//! * **Determinism.** The pool never changes *what* is computed, only
//!   *where*: callers shard work into chunks whose outputs are disjoint,
//!   so results are bit-identical for every worker count. The
//!   differential suite in `tests/parallel_equivalence.rs` enforces this.
//!
//! # Example
//!
//! ```
//! use deepcam_tensor::pool::ThreadPool;
//!
//! let pool = ThreadPool::new(4);
//! let mut out = vec![0usize; 8];
//! pool.scope(|s| {
//!     for (i, slot) in out.iter_mut().enumerate() {
//!         s.spawn(move || *slot = i * i);
//!     }
//! });
//! assert_eq!(out[7], 49);
//! ```

use std::any::Any;
use std::collections::VecDeque;
use std::marker::PhantomData;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::time::Duration;

use crate::emit_env_warning_once;

/// Environment variable overriding the default worker count
/// ([`Parallelism::Auto`]): set `DEEPCAM_WORKERS=4` to pin four workers.
pub const WORKERS_ENV: &str = "DEEPCAM_WORKERS";

/// The most workers a component may split one job across: an upper
/// bound on its pool tasks, not a promise to use them all. The engine
/// takes fewer tasks when a job is too small to pay for the hand-off
/// (see `DeepCamEngine::image_tasks` in `deepcam-core`).
///
/// This is the single knob threaded through `EngineConfig`, the sharded
/// tensor ops and the experiment binaries. Whatever it resolves to, the
/// computed values are bit-identical — parallelism only changes wall
/// clock, never results.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Parallelism {
    /// Run strictly on the calling thread.
    Serial,
    /// Use at most this many workers (values of 0 behave like 1).
    Fixed(usize),
    /// At most `DEEPCAM_WORKERS` if set (and a positive integer),
    /// otherwise all available cores.
    #[default]
    Auto,
}

impl Parallelism {
    /// Resolves to a concrete worker count (always ≥ 1).
    ///
    /// [`Parallelism::Auto`] honors `DEEPCAM_WORKERS` when it holds a
    /// positive integer. An *invalid* value (`0`, `abc`, empty) falls
    /// back to all available cores — loudly: a warning naming the bad
    /// value is printed to stderr once per distinct value, so a typo'd
    /// deployment never silently runs at the wrong width.
    // analyze: allow(determinism, "DEEPCAM_WORKERS only picks the worker count; results are bit-identical at every width")
    pub fn resolve(self) -> usize {
        match self {
            Parallelism::Serial => 1,
            Parallelism::Fixed(n) => n.max(1),
            Parallelism::Auto => {
                let raw = std::env::var(WORKERS_ENV).ok();
                let (workers, warning) = resolve_auto(raw.as_deref());
                if let Some(msg) = warning {
                    emit_env_warning_once(&msg);
                }
                workers
            }
        }
    }
}

/// The [`Parallelism::Auto`] resolution rule, pure so both outcomes are
/// unit-testable without touching the process environment: returns the
/// worker count plus the warning to emit when `raw` is set but invalid.
// analyze: allow(determinism, "core-count fallback for Auto width; sharding never changes results")
fn resolve_auto(raw: Option<&str>) -> (usize, Option<String>) {
    let fallback = || {
        std::thread::available_parallelism()
            .map(|p| p.get())
            .unwrap_or(1)
    };
    match raw {
        None => (fallback(), None),
        Some(raw) => match raw.trim().parse::<usize>().ok().filter(|&n| n > 0) {
            Some(n) => (n, None),
            None => (
                fallback(),
                Some(format!(
                    "warning: ignoring invalid {WORKERS_ENV}={raw:?} (expected a positive \
                     integer); falling back to all available cores"
                )),
            ),
        },
    }
}

impl serde::bin::BinCodec for Parallelism {
    fn encode(&self, w: &mut serde::bin::Writer) {
        match self {
            Parallelism::Serial => w.put_u8(0),
            Parallelism::Fixed(n) => {
                w.put_u8(1);
                w.put_usize(*n);
            }
            Parallelism::Auto => w.put_u8(2),
        }
    }

    fn decode(r: &mut serde::bin::Reader<'_>) -> serde::bin::BinResult<Self> {
        match r.get_u8()? {
            0 => Ok(Parallelism::Serial),
            1 => Ok(Parallelism::Fixed(r.get_usize()?)),
            2 => Ok(Parallelism::Auto),
            other => Err(serde::bin::BinError::Invalid(format!(
                "Parallelism tag {other}"
            ))),
        }
    }
}

type Task = Box<dyn FnOnce() + Send + 'static>;

struct PoolState {
    /// Tasks pushed but not yet claimed by any thread, oldest first.
    queue: VecDeque<Task>,
    shutdown: bool,
}

struct Shared {
    state: Mutex<PoolState>,
    work_available: Condvar,
}

impl Shared {
    fn push(&self, task: Task) {
        self.state
            .lock()
            .expect("pool state lock")
            .queue
            .push_back(task);
        self.work_available.notify_one();
    }

    /// Claims the oldest queued task if any exists, without blocking.
    fn try_claim(&self) -> Option<Task> {
        self.state
            .lock()
            .expect("pool state lock")
            .queue
            .pop_front()
    }

    fn worker_loop(&self) {
        loop {
            let task = {
                let mut st = self.state.lock().expect("pool state lock");
                loop {
                    if let Some(task) = st.queue.pop_front() {
                        break task;
                    }
                    if st.shutdown {
                        return;
                    }
                    st = self.work_available.wait(st).expect("pool state lock");
                }
            };
            task();
        }
    }
}

/// Tracks the outstanding tasks of one [`ThreadPool::scope`] call.
struct Completion {
    state: Mutex<CompletionState>,
    done: Condvar,
}

struct CompletionState {
    pending: usize,
    panic: Option<Box<dyn Any + Send>>,
}

impl Completion {
    fn new() -> Self {
        Completion {
            state: Mutex::new(CompletionState {
                pending: 0,
                panic: None,
            }),
            done: Condvar::new(),
        }
    }

    fn add_task(&self) {
        self.state.lock().expect("scope lock").pending += 1;
    }

    fn finish_task(&self, panic: Option<Box<dyn Any + Send>>) {
        let mut st = self.state.lock().expect("scope lock");
        st.pending -= 1;
        if st.panic.is_none() {
            st.panic = panic;
        }
        if st.pending == 0 {
            drop(st);
            self.done.notify_all();
        }
    }

    /// Blocks until every task of this scope has finished, running other
    /// queued pool tasks while waiting (this is what makes nested scopes
    /// on a small pool deadlock-free).
    fn wait_helping(&self, shared: &Shared) {
        loop {
            if self.state.lock().expect("scope lock").pending == 0 {
                return;
            }
            if let Some(task) = shared.try_claim() {
                task();
                continue;
            }
            let st = self.state.lock().expect("scope lock");
            if st.pending == 0 {
                return;
            }
            // Short timeout: a task we could help with may be pushed by
            // one of *our* running tasks, which signals `work_available`
            // (a different condvar), so never sleep unboundedly here.
            let _ = self
                .done
                .wait_timeout(st, Duration::from_millis(1))
                .expect("scope lock");
        }
    }

    fn take_panic(&self) -> Option<Box<dyn Any + Send>> {
        self.state.lock().expect("scope lock").panic.take()
    }
}

/// A fixed-size scoped thread pool. See the [module docs](self).
pub struct ThreadPool {
    shared: Arc<Shared>,
    handles: Vec<std::thread::JoinHandle<()>>,
}

impl ThreadPool {
    /// Spawns a pool with `workers` threads (at least one).
    pub fn new(workers: usize) -> Self {
        let workers = workers.max(1);
        let shared = Arc::new(Shared {
            state: Mutex::new(PoolState {
                queue: VecDeque::new(),
                shutdown: false,
            }),
            work_available: Condvar::new(),
        });
        let handles = (0..workers)
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("deepcam-pool-{i}"))
                    .spawn(move || shared.worker_loop())
                    .expect("spawn pool worker")
            })
            .collect();
        ThreadPool { shared, handles }
    }

    /// The process-wide shared pool.
    ///
    /// Sized on first use to `max(Parallelism::Auto.resolve(), 4)`: at
    /// least four workers are kept even on small machines so that
    /// explicit `Parallelism::Fixed(n ≤ 4)` requests exercise real
    /// concurrency everywhere (results are identical either way).
    pub fn global() -> &'static ThreadPool {
        static GLOBAL: OnceLock<ThreadPool> = OnceLock::new();
        GLOBAL.get_or_init(|| ThreadPool::new(Parallelism::Auto.resolve().max(4)))
    }

    /// Number of worker threads.
    pub fn workers(&self) -> usize {
        self.handles.len()
    }

    /// Runs `f` with a [`Scope`] on which borrowing tasks can be
    /// spawned; returns only after every spawned task has finished.
    ///
    /// If a task panics, the panic is re-raised here (the first one, when
    /// several tasks panic). If `f` itself panics, all already-spawned
    /// tasks still run to completion before the panic propagates, so no
    /// task ever outlives the borrows it captured.
    pub fn scope<'env, F, R>(&self, f: F) -> R
    where
        F: FnOnce(&Scope<'_, 'env>) -> R,
    {
        let completion = Arc::new(Completion::new());
        let scope = Scope {
            pool: self,
            completion: Arc::clone(&completion),
            _env: PhantomData,
        };
        let result = catch_unwind(AssertUnwindSafe(|| f(&scope)));
        // Always drain before returning/unwinding: tasks borrow 'env.
        completion.wait_helping(&self.shared);
        match result {
            Err(panic) => resume_unwind(panic),
            Ok(value) => {
                if let Some(panic) = completion.take_panic() {
                    resume_unwind(panic);
                }
                value
            }
        }
    }

    /// Splits `data` into consecutive `chunk_len`-element chunks and runs
    /// `f(chunk_index, chunk)` for each in parallel. The chunks are
    /// disjoint `&mut` slices, so this cannot introduce write races —
    /// it is the building block behind every sharded op in the crate.
    pub fn run_chunks_mut<T, F>(&self, data: &mut [T], chunk_len: usize, f: F)
    where
        T: Send,
        F: Fn(usize, &mut [T]) + Sync,
    {
        let chunk_len = chunk_len.max(1);
        self.scope(|s| {
            for (i, chunk) in data.chunks_mut(chunk_len).enumerate() {
                let f = &f;
                s.spawn(move || f(i, chunk));
            }
        });
    }

    /// Runs `f(0), f(1), …, f(n-1)` in parallel and collects the results
    /// in index order (a deterministic reduction regardless of which
    /// worker finishes first).
    pub fn run_indexed<R, F>(&self, n: usize, f: F) -> Vec<R>
    where
        R: Send,
        F: Fn(usize) -> R + Sync,
    {
        let mut out: Vec<Option<R>> = (0..n).map(|_| None).collect();
        self.scope(|s| {
            for (i, slot) in out.iter_mut().enumerate() {
                let f = &f;
                s.spawn(move || *slot = Some(f(i)));
            }
        });
        out.into_iter()
            .map(|slot| slot.expect("scope ran every task"))
            .collect()
    }
}

impl Drop for ThreadPool {
    fn drop(&mut self) {
        self.shared.state.lock().expect("pool state lock").shutdown = true;
        self.shared.work_available.notify_all();
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}

/// Spawn handle passed to the closure of [`ThreadPool::scope`].
pub struct Scope<'pool, 'env> {
    pool: &'pool ThreadPool,
    completion: Arc<Completion>,
    /// Invariant over 'env, mirroring `std::thread::Scope`.
    _env: PhantomData<&'env mut &'env ()>,
}

impl<'env> Scope<'_, 'env> {
    /// Spawns a task that may borrow from the enclosing scope ('env).
    pub fn spawn<F>(&self, f: F)
    where
        F: FnOnce() + Send + 'env,
    {
        self.completion.add_task();
        let completion = Arc::clone(&self.completion);
        let task: Box<dyn FnOnce() + Send + 'env> = Box::new(move || {
            let outcome = catch_unwind(AssertUnwindSafe(f));
            completion.finish_task(outcome.err());
        });
        // SAFETY: `ThreadPool::scope` blocks (helping) until
        // `completion.pending == 0` on every exit path — including when
        // the scope closure panics — so this task finishes before any
        // 'env borrow it captured goes out of scope. The lifetime is
        // erased only to store the task in the pool's 'static queue.
        let task: Task = unsafe {
            std::mem::transmute::<Box<dyn FnOnce() + Send + 'env>, Box<dyn FnOnce() + Send>>(task)
        };
        self.pool.shared.push(task);
    }
}

/// Deterministic contiguous split of `n` items into at most `parts`
/// non-empty ranges, as even as possible (the first `n % parts` ranges
/// get one extra item). Every sharded component uses this single
/// function, so chunk boundaries — and therefore behaviour under any
/// future order-sensitive reduction — are identical across the codebase.
pub fn split_ranges(n: usize, parts: usize) -> Vec<std::ops::Range<usize>> {
    if n == 0 {
        return Vec::new();
    }
    let parts = parts.clamp(1, n);
    let base = n / parts;
    let extra = n % parts;
    let mut ranges = Vec::with_capacity(parts);
    let mut start = 0usize;
    for i in 0..parts {
        let len = base + usize::from(i < extra);
        ranges.push(start..start + len);
        start += len;
    }
    ranges
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU32, Ordering};

    #[test]
    fn parallelism_resolves() {
        assert_eq!(Parallelism::Serial.resolve(), 1);
        assert_eq!(Parallelism::Fixed(3).resolve(), 3);
        assert_eq!(Parallelism::Fixed(0).resolve(), 1);
        assert!(Parallelism::Auto.resolve() >= 1);
    }

    #[test]
    fn auto_accepts_valid_workers_env() {
        assert_eq!(resolve_auto(Some("4")), (4, None));
        assert_eq!(resolve_auto(Some("  2 ")), (2, None)); // whitespace ok
        let (n, warning) = resolve_auto(None); // unset: all cores, silent
        assert!(n >= 1);
        assert!(warning.is_none());
    }

    #[test]
    fn auto_falls_back_loudly_on_invalid_workers_env() {
        for bad in ["0", "abc", "", " -3", "4.5"] {
            let (n, warning) = resolve_auto(Some(bad));
            // Fallback: same count as an unset variable, never 0.
            assert_eq!(n, resolve_auto(None).0, "value {bad:?}");
            assert!(n >= 1);
            // Warning names the variable and the offending value.
            let msg = warning.unwrap_or_else(|| panic!("no warning for {bad:?}"));
            assert!(msg.contains(WORKERS_ENV), "{msg}");
            assert!(msg.contains(&format!("{bad:?}")), "{msg}");
        }
    }

    #[test]
    fn invalid_workers_env_warning_is_one_time_per_value() {
        // First sighting prints, repeats are swallowed; a different bad
        // value gets its own warning.
        let msg_a = "warning: test-only DEEPCAM_WORKERS value \"bogus-a\"";
        let msg_b = "warning: test-only DEEPCAM_WORKERS value \"bogus-b\"";
        assert!(emit_env_warning_once(msg_a));
        assert!(!emit_env_warning_once(msg_a));
        assert!(emit_env_warning_once(msg_b));
        assert!(!emit_env_warning_once(msg_b));
        assert!(!emit_env_warning_once(msg_a));
    }

    #[test]
    fn scope_runs_all_tasks() {
        let pool = ThreadPool::new(3);
        let counter = AtomicU32::new(0);
        pool.scope(|s| {
            for _ in 0..64 {
                s.spawn(|| {
                    counter.fetch_add(1, Ordering::Relaxed);
                });
            }
        });
        assert_eq!(counter.load(Ordering::Relaxed), 64);
    }

    #[test]
    fn tasks_can_borrow_mutably_via_chunks() {
        let pool = ThreadPool::new(2);
        let mut data = vec![0u64; 100];
        pool.run_chunks_mut(&mut data, 7, |ci, chunk| {
            for (j, v) in chunk.iter_mut().enumerate() {
                *v = (ci * 7 + j) as u64;
            }
        });
        for (i, &v) in data.iter().enumerate() {
            assert_eq!(v, i as u64);
        }
    }

    #[test]
    fn run_indexed_preserves_order() {
        let pool = ThreadPool::new(4);
        let out = pool.run_indexed(33, |i| i * 2);
        assert_eq!(out, (0..33).map(|i| i * 2).collect::<Vec<_>>());
    }

    #[test]
    fn nested_scopes_do_not_deadlock() {
        // A 1-worker pool forces the outer task and the inner scope to
        // share a single thread plus the helping waiter.
        let pool = ThreadPool::new(1);
        let total = AtomicU32::new(0);
        pool.scope(|outer| {
            for _ in 0..4 {
                let total = &total;
                outer.spawn(move || {
                    ThreadPool::global().scope(|inner| {
                        for _ in 0..4 {
                            inner.spawn(move || {
                                total.fetch_add(1, Ordering::Relaxed);
                            });
                        }
                    });
                });
            }
        });
        assert_eq!(total.load(Ordering::Relaxed), 16);
    }

    #[test]
    fn task_panic_propagates() {
        let pool = ThreadPool::new(2);
        let result = catch_unwind(AssertUnwindSafe(|| {
            pool.scope(|s| {
                s.spawn(|| panic!("boom"));
            });
        }));
        assert!(result.is_err());
        // The pool stays usable after a panic.
        assert_eq!(pool.run_indexed(3, |i| i), vec![0, 1, 2]);
    }

    #[test]
    fn split_ranges_covers_everything() {
        for n in 0..40usize {
            for parts in 1..10usize {
                let ranges = split_ranges(n, parts);
                let mut covered = 0usize;
                for r in &ranges {
                    assert_eq!(r.start, covered, "ranges must be contiguous");
                    assert!(!r.is_empty());
                    covered = r.end;
                }
                assert_eq!(covered, n);
                if n > 0 {
                    assert!(ranges.len() <= parts);
                }
            }
        }
    }

    #[test]
    fn global_pool_has_at_least_four_workers() {
        assert!(ThreadPool::global().workers() >= 4);
    }
}

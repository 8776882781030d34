//! Seeded-interleaving stress harness for the FIFO worker pool.
//!
//! A loom-style schedule explorer without loom: each round draws a
//! random task structure — worker count, task count, nesting depth,
//! panic injection — from a seeded RNG, and perturbs the schedule with
//! seeded busy-work of varying length, so a failing round reproduces
//! its structure from the seed while the OS scheduler supplies the
//! interleaving variety. The invariants under test are the ones the
//! `SAFETY:` comment in `pool.rs` relies on: every spawned task runs
//! exactly once, `scope` never returns while a task is in flight (so
//! `'env` borrows stay valid), panics propagate without leaking tasks,
//! and the pool stays serviceable afterwards.
//!
//! `DEEPCAM_STRESS_ITERS` scales the round count (the sanitizer CI legs
//! raise it); Miri runs a reduced set through the same code.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};

use deepcam_tensor::pool::split_ranges;
use deepcam_tensor::rng::seeded_rng;
use deepcam_tensor::ThreadPool;
use rand::RngExt;

fn rounds(default: usize) -> usize {
    if cfg!(miri) {
        return 3;
    }
    std::env::var("DEEPCAM_STRESS_ITERS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// Seeded busy-work whose duration varies task-to-task (the schedule
/// perturbation); returns a value derived from `x` so the loop cannot
/// be optimized away.
fn spin(x: u64, iters: u64) -> u64 {
    let mut acc = x.wrapping_add(1);
    for i in 0..iters {
        acc = acc.wrapping_mul(0x9E37_79B9_7F4A_7C15).rotate_left(7) ^ i;
        if i % 64 == 0 {
            std::hint::spin_loop();
        }
    }
    acc
}

#[test]
fn every_spawned_task_runs_exactly_once_under_random_structures() {
    for round in 0..rounds(40) as u64 {
        let mut rng = seeded_rng(0xA110 + round);
        let pool = ThreadPool::new(rng.random_range(1..=4));
        let tasks = rng.random_range(0..=24usize);
        // Per-task (spin length, nested-subtask count) drawn up front so
        // the structure is a pure function of the seed.
        let plan: Vec<(u64, usize)> = (0..tasks)
            .map(|_| (rng.random_range(0..400u64), rng.random_range(0..=3usize)))
            .collect();
        let runs: Vec<AtomicUsize> = (0..tasks).map(|_| AtomicUsize::new(0)).collect();
        let nested_runs = AtomicUsize::new(0);
        let expected_nested: usize = plan.iter().map(|&(_, n)| n).sum();

        pool.scope(|s| {
            for (i, &(work, nested)) in plan.iter().enumerate() {
                let runs = &runs;
                let nested_runs = &nested_runs;
                let pool = &pool;
                s.spawn(move || {
                    std::hint::black_box(spin(i as u64, work));
                    runs[i].fetch_add(1, Ordering::SeqCst);
                    if nested > 0 {
                        // A task opening its own scope on the same pool:
                        // workers must help instead of deadlocking.
                        pool.scope(|inner| {
                            for j in 0..nested {
                                inner.spawn(move || {
                                    std::hint::black_box(spin(j as u64, work / 2));
                                    nested_runs.fetch_add(1, Ordering::SeqCst);
                                });
                            }
                        });
                    }
                });
            }
        });

        for (i, r) in runs.iter().enumerate() {
            assert_eq!(
                r.load(Ordering::SeqCst),
                1,
                "round {round}: task {i} ran a wrong number of times"
            );
        }
        assert_eq!(
            nested_runs.load(Ordering::SeqCst),
            expected_nested,
            "round {round}: nested task count"
        );
    }
}

#[test]
fn run_chunks_mut_covers_every_element_disjointly() {
    for round in 0..rounds(40) as u64 {
        let mut rng = seeded_rng(0xC4A9 + round);
        let pool = ThreadPool::new(rng.random_range(1..=4));
        let len = rng.random_range(0..=512usize);
        let chunk_len = rng.random_range(1..=64usize);
        let mut data = vec![usize::MAX; len];
        pool.run_chunks_mut(&mut data, chunk_len, |i, chunk| {
            std::hint::black_box(spin(i as u64, 50));
            for v in chunk.iter_mut() {
                *v = i;
            }
        });
        for (pos, &v) in data.iter().enumerate() {
            assert_eq!(v, pos / chunk_len, "round {round}: element {pos}");
        }
    }
}

#[test]
fn run_indexed_matches_the_serial_reduction() {
    for round in 0..rounds(40) as u64 {
        let mut rng = seeded_rng(0x1D45 + round);
        let pool = ThreadPool::new(rng.random_range(1..=4));
        let n = rng.random_range(0..=64usize);
        let parallel = pool.run_indexed(n, |i| spin(i as u64, 100 + (i as u64 % 37)));
        let serial: Vec<u64> = (0..n)
            .map(|i| spin(i as u64, 100 + (i as u64 % 37)))
            .collect();
        assert_eq!(parallel, serial, "round {round}");
    }
}

#[test]
fn panicking_tasks_propagate_and_leave_the_pool_serviceable() {
    // One pool reused across every round: a panic must not poison it.
    let pool = ThreadPool::new(3);
    for round in 0..rounds(30) as u64 {
        let mut rng = seeded_rng(0xBAD5EED + round);
        let tasks = rng.random_range(1..=12usize);
        let bomber = rng.random_range(0..tasks);
        let survivors = AtomicUsize::new(0);
        let result = catch_unwind(AssertUnwindSafe(|| {
            pool.scope(|s| {
                for i in 0..tasks {
                    let survivors = &survivors;
                    s.spawn(move || {
                        std::hint::black_box(spin(i as u64, 100));
                        if i == bomber {
                            panic!("injected panic in task {i}");
                        }
                        survivors.fetch_add(1, Ordering::SeqCst);
                    });
                }
            });
        }));
        assert!(result.is_err(), "round {round}: the panic must propagate");
        // `scope` drained before unwinding, so every non-bomber ran.
        assert_eq!(
            survivors.load(Ordering::SeqCst),
            tasks - 1,
            "round {round}: survivors"
        );
        // The same pool still runs a clean scope to completion.
        let after = pool.run_indexed(8, |i| i * i);
        assert_eq!(after, vec![0, 1, 4, 9, 16, 25, 36, 49], "round {round}");
    }
}

#[test]
fn split_ranges_always_partitions_exactly() {
    for round in 0..rounds(200) as u64 {
        let mut rng = seeded_rng(0x5417 + round);
        let n = rng.random_range(0..=10_000usize);
        let parts = rng.random_range(1..=64usize);
        let ranges = split_ranges(n, parts);
        let mut covered = 0usize;
        for (k, r) in ranges.iter().enumerate() {
            assert_eq!(r.start, covered, "round {round}: range {k} not contiguous");
            assert!(!r.is_empty(), "round {round}: empty range {k}");
            covered = r.end;
        }
        assert_eq!(covered, n, "round {round}: total coverage");
        assert!(ranges.len() <= parts, "round {round}: too many parts");
    }
}

//! Process CPU time from the kernel's per-thread run-time counters
//! (`/proc/self/task/<tid>/schedstat`, nanoseconds). A paravirtualized
//! Linux guest leaves the time the hypervisor stole from its vCPUs out of
//! these counters, so CPU time measures the program's own work. Wall time
//! on a shared host also measures whoever else the host ran.
//!
//! CPU time still grows when the host runs each instruction slower. A
//! fixed reference computation, timed next to every measurement, gauges
//! that speed, and [`scaled`] divides it out.

use std::collections::HashMap;

/// Run time of every live thread of the process, by thread id.
#[derive(Debug, Clone, Default)]
pub struct Snapshot(HashMap<u32, u64>);

/// Reads the run time of every live thread now.
pub fn snapshot() -> Snapshot {
    // The kernel brings a running thread's own counter up to date only at
    // a tick or a scheduler call; yielding is such a call.
    std::thread::yield_now();
    let mut threads = HashMap::new();
    if let Ok(dir) = std::fs::read_dir("/proc/self/task") {
        for entry in dir.flatten() {
            let tid = entry.file_name().to_str().and_then(|t| t.parse().ok());
            let ns = std::fs::read_to_string(entry.path().join("schedstat"))
                .ok()
                .and_then(|s| s.split_whitespace().next()?.parse().ok());
            if let (Some(tid), Some(ns)) = (tid, ns) {
                threads.insert(tid, ns);
            }
        }
    }
    Snapshot(threads)
}

impl Snapshot {
    /// CPU seconds the process ran between `earlier` and this snapshot:
    /// each live thread's growth, where a thread started since counts
    /// from zero. A thread that ended in between is not counted.
    pub fn since(&self, earlier: &Snapshot) -> f64 {
        self.0
            .iter()
            .map(|(tid, &ns)| ns.saturating_sub(earlier.0.get(tid).copied().unwrap_or(0)))
            .sum::<u64>() as f64
            * 1e-9
    }
}

/// CPU seconds the calling thread has run.
fn thread_s() -> f64 {
    std::thread::yield_now();
    std::fs::read_to_string("/proc/thread-self/schedstat")
        .ok()
        .and_then(|s| s.split_whitespace().next()?.parse::<u64>().ok())
        .map_or(0.0, |ns| ns as f64 * 1e-9)
}

/// Side of the reference computation's square matrices.
const REF_N: usize = 48;

/// Products per reference measurement.
const REF_REPS: usize = 96;

/// CPU seconds of [`reference_s`] on the nominal host that scaled
/// figures are expressed for (about what a quiet 2-vCPU AVX-512 VM
/// takes).
pub const REF_NOMINAL_S: f64 = 0.5e-3;

/// Scales `cpu_s`, measured while the reference computation took
/// `reference_s`, to the nominal host: the same work at the speed at
/// which the reference takes [`REF_NOMINAL_S`]. Host slowdowns that CPU
/// time still shows (a busy sibling hyperthread, a lower clock) slow the
/// reference alike and cancel.
pub fn scaled(cpu_s: f64, reference_s: f64) -> f64 {
    cpu_s * REF_NOMINAL_S / reference_s.max(1e-9)
}

/// CPU seconds of one fixed reference computation on the calling thread:
/// [`REF_REPS`] products of two `REF_N`-square `f32` matrices, in the
/// benchmark's own code so that no change to the repository's kernels
/// moves it. It gauges how fast the host runs right now.
pub fn reference_s() -> f64 {
    let a: Vec<f32> = (0..REF_N * REF_N).map(|i| (i % 7) as f32 * 0.25).collect();
    let mut b: Vec<f32> = (0..REF_N * REF_N).map(|i| (i % 5) as f32 * 0.5).collect();
    let mut c = vec![0.0f32; REF_N * REF_N];
    let start = thread_s();
    for _ in 0..REF_REPS {
        c.fill(0.0);
        for i in 0..REF_N {
            for k in 0..REF_N {
                let aik = a[i * REF_N + k];
                let (row, bk) = (&mut c[i * REF_N..(i + 1) * REF_N], &b[k * REF_N..]);
                for (cij, bkj) in row.iter_mut().zip(bk) {
                    *cij += aik * bkj;
                }
            }
        }
        b.copy_from_slice(std::hint::black_box(&c));
        b.iter_mut().for_each(|v| *v = v.fract());
    }
    std::hint::black_box(&b);
    thread_s() - start
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn since_counts_growth_and_new_threads_but_not_ended_ones() {
        let a = Snapshot(HashMap::from([(1, 1_000), (2, 5_000), (3, 9_000)]));
        // Thread 2 ran 2 µs more, thread 3 ended, thread 4 started.
        let b = Snapshot(HashMap::from([(1, 1_000), (2, 7_000), (4, 500)]));
        assert!((b.since(&a) - 2.5e-6).abs() < 1e-15);
        assert_eq!(a.since(&a), 0.0);
    }

    #[test]
    fn busy_work_shows_as_cpu_time() {
        let before = snapshot();
        assert!(!before.0.is_empty(), "no per-thread run-time counters");
        let mut x = 0u64;
        let start = std::time::Instant::now();
        while start.elapsed().as_millis() < 50 {
            x = std::hint::black_box(x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1));
        }
        let cpu = snapshot().since(&before);
        assert!(cpu > 0.01, "{cpu} s of CPU for 50 ms of busy work");
    }

    #[test]
    fn scaling_cancels_a_uniform_slowdown() {
        assert_eq!(scaled(2.0, REF_NOMINAL_S), 2.0);
        // Twice the CPU time on a host that runs the reference half as
        // fast is the same work.
        assert_eq!(scaled(4.0, 2.0 * REF_NOMINAL_S), 2.0);
        assert!(reference_s() > 0.0);
    }
}

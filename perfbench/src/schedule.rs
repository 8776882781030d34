//! Seeded open-loop arrival schedules and the pure accounting rules the
//! load generator applies to them: latency timed from the due time,
//! group completion spans, and the capacity-ladder verdict.

/// SplitMix64: a tiny, fully specified generator, so a schedule depends
/// only on the workload seed and never on a library's RNG stream.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    /// A generator seeded with `seed`.
    pub fn new(seed: u64) -> Self {
        SplitMix64(seed)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)` with 53 random bits.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Exponentially distributed with the given mean.
    pub fn exp(&mut self, mean: f64) -> f64 {
        -mean * (1.0 - self.next_f64()).ln()
    }

    /// Uniform index in `0..n` (`n > 0`).
    pub fn index(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// One scheduled request: when it is due (seconds from the start of its
/// phase) and which pooled input it carries.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Arrival {
    /// Due time in seconds from the phase start.
    pub due: f64,
    /// Index into the workload's input pool.
    pub input: usize,
}

/// Poisson arrivals at `rate` per second over `seconds`, each carrying a
/// uniformly drawn input from a pool of `pool`. The arrival count is
/// fixed at `rate × seconds` and the instants are sorted uniforms (a
/// Poisson process conditioned on its count), so every seed offers
/// exactly the same load.
pub fn poisson(seed: u64, rate: f64, seconds: f64, pool: usize) -> Vec<Arrival> {
    let mut rng = SplitMix64::new(seed);
    let n = (rate * seconds).round() as usize;
    let mut due: Vec<f64> = (0..n).map(|_| rng.next_f64() * seconds).collect();
    due.sort_by(|a, b| a.total_cmp(b));
    due.into_iter()
        .map(|due| Arrival {
            due,
            input: rng.index(pool),
        })
        .collect()
}

/// On/off bursts over `seconds` at a mean of `rate` requests per
/// second: every burst is `burst_len` requests due at the same instant
/// (sent back to back), and consecutive burst starts are `min_gap` plus
/// an exponential share of the remaining idle time. The burst count is
/// fixed and the gaps are scaled to fill `seconds` exactly, so every
/// seed offers exactly the same mean load.
pub fn bursts(
    seed: u64,
    burst_len: usize,
    rate: f64,
    min_gap: f64,
    seconds: f64,
    pool: usize,
) -> Vec<Arrival> {
    let mut rng = SplitMix64::new(seed);
    let count = ((rate * seconds / burst_len as f64).round() as usize).max(1);
    let extra: Vec<f64> = (0..count).map(|_| rng.exp(1.0)).collect();
    let scale = (seconds - count as f64 * min_gap).max(0.0) / extra.iter().sum::<f64>();
    let mut out = Vec::with_capacity(count * burst_len);
    let mut t = 0.0;
    for e in extra {
        for _ in 0..burst_len {
            out.push(Arrival {
                due: t,
                input: rng.index(pool),
            });
        }
        t += min_gap + e * scale;
    }
    out
}

/// Per-request latency in milliseconds, timed from each request's due
/// time rather than from when it was sent: a stall in the generator or
/// the server is charged to every request queued behind it.
pub fn latencies_from_due(due: &[f64], done: &[f64]) -> Vec<f64> {
    due.iter().zip(done).map(|(d, f)| (f - d) * 1e3).collect()
}

/// Completion span in milliseconds of each consecutive group of `group`
/// requests in schedule order: from the group's first due time to its
/// last completion (a burst, when bursts are `group` long). A trailing
/// partial group is dropped.
pub fn group_spans(due: &[f64], done: &[f64], group: usize) -> Vec<f64> {
    due.chunks_exact(group)
        .zip(done.chunks_exact(group))
        .map(|(d, f)| {
            let first = d.iter().copied().fold(f64::INFINITY, f64::min);
            let last = f.iter().copied().fold(f64::NEG_INFINITY, f64::max);
            (last - first) * 1e3
        })
        .collect()
}

/// One rung of the capacity ladder, as measured.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Rung {
    /// Offered rate, requests per second.
    pub rate: f64,
    /// p99 latency from due, milliseconds.
    pub p99_ms: f64,
    /// From the rung's last due instant to its last reply, ms.
    pub drain_ms: f64,
    /// Requests that failed or were refused.
    pub errors: usize,
}

/// A rung passes when nothing failed, p99 meets the SLO, and the
/// backlog left when arrivals stop drains within the SLO: a queue still
/// growing at the rung's end takes longer than that to empty.
pub fn rung_passes(rung: &Rung, slo_ms: f64) -> bool {
    rung.errors == 0 && rung.p99_ms <= slo_ms && rung.drain_ms <= slo_ms
}

/// The highest passing rate of a ladder run in climbing order, where a
/// failed rate is retried once: the first rate that fails twice in a
/// row ends the ladder, so one disturbed rung cannot, but a rate the
/// server really cannot sustain does.
pub fn max_rps_at_slo(rungs: &[Rung], slo_ms: f64) -> f64 {
    let mut best = 0.0f64;
    let mut failed: Option<f64> = None;
    for r in rungs {
        if rung_passes(r, slo_ms) {
            best = best.max(r.rate);
            failed = None;
        } else if failed == Some(r.rate) {
            break;
        } else {
            failed = Some(r.rate);
        }
    }
    best
}

/// Geometric ladder rates from `first` up to `top` in steps of `step`.
pub fn ladder(first: f64, step: f64, top: f64) -> Vec<f64> {
    let mut out = Vec::new();
    let mut r = first;
    while r <= top {
        out.push(r);
        r *= step;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn poisson_schedule_is_deterministic_per_seed() {
        let a = poisson(7, 1000.0, 2.0, 64);
        assert_eq!(a, poisson(7, 1000.0, 2.0, 64));
        assert_ne!(a, poisson(8, 1000.0, 2.0, 64));
        assert_eq!(a.len(), 2000);
        assert!(a.windows(2).all(|w| w[0].due <= w[1].due));
        assert!(a
            .iter()
            .all(|r| r.input < 64 && (0.0..2.0).contains(&r.due)));
        // Exponential gaps: about 63% of them are shorter than the mean.
        let short = a.windows(2).filter(|w| w[1].due - w[0].due < 1e-3).count();
        assert!((1150..1350).contains(&short), "{short}");
    }

    #[test]
    fn burst_schedule_is_deterministic_per_seed() {
        let a = bursts(3, 16, 100.0, 0.04, 5.0, 32);
        assert_eq!(a, bursts(3, 16, 100.0, 0.04, 5.0, 32));
        assert_ne!(a, bursts(4, 16, 100.0, 0.04, 5.0, 32));
        // 100 req/s for 5 s in bursts of 16: 31 bursts, inside 5 s.
        assert_eq!(a.len(), 31 * 16);
        assert!(a
            .iter()
            .all(|r| r.input < 32 && (0.0..5.0).contains(&r.due)));
        for (i, burst) in a.chunks(16).enumerate() {
            // Back to back: one due time per burst.
            assert!(burst.iter().all(|r| r.due == burst[0].due));
            if i > 0 {
                assert!(burst[0].due - a[(i - 1) * 16].due >= 0.04);
            }
        }
    }

    #[test]
    fn due_time_accounting_charges_a_stall_to_requests_queued_behind_it() {
        // Four requests due 1 ms apart; everything stalls until 10 ms,
        // then they complete 0.1 ms apart. Timing from the send (all
        // sent at 10 ms) would report 0.1–0.4 ms and hide the stall.
        let due = [0.000, 0.001, 0.002, 0.003];
        let done = [0.0101, 0.0102, 0.0103, 0.0104];
        let lat = latencies_from_due(&due, &done);
        for (l, d) in lat.iter().zip(due) {
            assert!(*l >= (0.010 - d) * 1e3, "{l} ms hides the stall");
        }
        assert!((lat[0] - 10.1).abs() < 1e-9);
        assert!((lat[3] - 7.4).abs() < 1e-9);
    }

    #[test]
    fn group_spans_run_from_first_due_to_last_completion() {
        let due = [0.0, 0.0, 1.0, 1.0, 2.0];
        let done = [0.5, 0.3, 1.2, 1.4, 2.1];
        let spans = group_spans(&due, &done, 2);
        assert_eq!(spans.len(), 2);
        assert!((spans[0] - 500.0).abs() < 1e-9 && (spans[1] - 400.0).abs() < 1e-9);
    }

    #[test]
    fn ladder_stops_at_the_first_failing_rung() {
        let slo = 20.0;
        let rung = |rate, p99_ms, drain_ms, errors| Rung {
            rate,
            p99_ms,
            drain_ms,
            errors,
        };
        let rungs = [
            rung(1000.0, 5.0, 3.0, 0),
            rung(1200.0, 25.0, 4.0, 0), // one disturbed rung is retried…
            rung(1200.0, 9.0, 4.0, 0),  // …and passes
            rung(1400.0, 35.0, 60.0, 0),
            rung(1400.0, 30.0, 9.0, 0), // fails twice: the ladder ends
            rung(1600.0, 10.0, 2.0, 0), // a lucky rung past the end never counts
        ];
        assert_eq!(max_rps_at_slo(&rungs, slo), 1200.0);
        assert_eq!(max_rps_at_slo(&rungs[..3], slo), 1200.0);
        assert_eq!(max_rps_at_slo(&rungs[..1], slo), 1000.0);
        // A backlog that cannot drain in time fails a rung even when
        // p99 looks fine.
        assert!(!rung_passes(&rung(1000.0, 15.0, 20.5, 0), slo));
        assert!(rung_passes(&rung(1000.0, 15.0, 20.0, 0), slo));
        // Any failure or refusal fails the rung.
        assert!(!rung_passes(&rung(1000.0, 1.0, 0.0, 1), slo));
        assert_eq!(max_rps_at_slo(&rungs[3..5], slo), 0.0);
    }

    #[test]
    fn ladder_rates_are_geometric_and_bounded() {
        let l = ladder(100.0, 1.5, 400.0);
        assert_eq!(l, vec![100.0, 150.0, 225.0, 337.5]);
    }
}

//! Per-session serving counters: request/batch counts, occupancy, and
//! a fixed-footprint latency histogram for p50/p99 — plus the
//! server-level connection robustness counters.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// Buckets in a [`LatencyHistogram`]: 4 exact sub-microsecond values
/// plus 4 linear sub-buckets for each of the 62 octaves `[2^m, 2^(m+1))`
/// µs, `m ∈ [2, 63]`.
const HIST_BUCKETS: usize = 4 + 62 * 4;

/// A log-linear latency histogram over microseconds: power-of-two
/// octaves, each split into 4 linear sub-buckets.
///
/// Values `0..=3` µs get exact buckets; a value in octave
/// `[2^m, 2^(m+1))` µs lands in the sub-bucket
/// `(us >> (m-2)) & 3`, covering `[(4+s)·2^(m-2), (5+s)·2^(m-2))` µs.
/// Every bucket's width is at most ¼ of its lower bound, so a reported
/// quantile is never more than 25% above a recorded latency — tight
/// enough that p50 and p99 stay distinguishable inside one octave
/// (the plain power-of-two histogram this replaces reported them
/// identically whenever both landed within a 2× band). Footprint stays
/// constant (252 counters) no matter how many requests are recorded.
///
/// The top bucket is a catch-all for `≥ 7·2^61 µs` (including
/// durations whose microsecond count saturates `u64`), so quantiles
/// landing there report the saturated bound `u64::MAX` µs rather than
/// a value below a recorded latency; the 25% guarantee applies to
/// every bucket below it.
#[derive(Debug, Clone)]
pub struct LatencyHistogram {
    counts: [u64; HIST_BUCKETS],
    total: u64,
}

/// Bucket index for a latency of `us` microseconds.
#[inline]
fn bucket_index(us: u64) -> usize {
    if us < 4 {
        return us as usize;
    }
    // us >= 4 ⇒ at least 3 significant bits ⇒ m ∈ [2, 63].
    let m = 63 - us.leading_zeros() as usize;
    let sub = ((us >> (m - 2)) & 3) as usize;
    4 + (m - 2) * 4 + sub
}

/// Upper bound of bucket `i` in microseconds (saturating: the top
/// bucket's nominal bound is `2^64`, which clamps to `u64::MAX`).
#[inline]
fn bucket_upper_us(i: usize) -> u64 {
    if i < 4 {
        return i as u64 + 1;
    }
    let m = 2 + (i - 4) / 4;
    let sub = ((i - 4) % 4) as u128;
    u64::try_from((5 + sub) << (m - 2)).unwrap_or(u64::MAX)
}

impl LatencyHistogram {
    /// An empty histogram.
    pub fn new() -> Self {
        LatencyHistogram {
            counts: [0; HIST_BUCKETS],
            total: 0,
        }
    }

    /// Records one request latency.
    pub fn record(&mut self, latency: Duration) {
        let us = u64::try_from(latency.as_micros()).unwrap_or(u64::MAX);
        let bucket = bucket_index(us).min(HIST_BUCKETS - 1);
        self.counts[bucket] += 1;
        self.total += 1;
    }

    /// Samples recorded so far.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// The quantile `q ∈ [0, 1]` in milliseconds (upper bucket bound; 0
    /// when nothing was recorded).
    pub fn quantile_ms(&self, q: f64) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.total as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return bucket_upper_us(i) as f64 / 1000.0;
            }
        }
        bucket_upper_us(HIST_BUCKETS - 1) as f64 / 1000.0
    }
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        LatencyHistogram::new()
    }
}

/// Mutable counter state a [`crate::session::Session`] keeps under its
/// stats lock.
#[derive(Debug, Clone, Default)]
pub(crate) struct StatsInner {
    pub(crate) submitted: u64,
    pub(crate) completed: u64,
    pub(crate) failed: u64,
    pub(crate) rejected: u64,
    pub(crate) batches: u64,
    pub(crate) occupancy_sum: u64,
    pub(crate) max_occupancy: usize,
    pub(crate) latency: LatencyHistogram,
}

impl StatsInner {
    pub(crate) fn snapshot(&self) -> SessionStats {
        SessionStats {
            submitted: self.submitted,
            completed: self.completed,
            failed: self.failed,
            rejected: self.rejected,
            batches: self.batches,
            mean_occupancy: if self.batches == 0 {
                0.0
            } else {
                self.occupancy_sum as f64 / self.batches as f64
            },
            max_occupancy: self.max_occupancy,
            p50_latency_ms: self.latency.quantile_ms(0.50),
            p99_latency_ms: self.latency.quantile_ms(0.99),
        }
    }
}

/// A point-in-time snapshot of one session's serving counters.
#[derive(Debug, Clone, PartialEq)]
pub struct SessionStats {
    /// Requests accepted into the queue.
    pub submitted: u64,
    /// Requests that completed with logits.
    pub completed: u64,
    /// Requests that completed with an engine error.
    pub failed: u64,
    /// Requests rejected by backpressure ([`crate::ServeError::Overloaded`]).
    pub rejected: u64,
    /// Engine batches dispatched.
    pub batches: u64,
    /// Mean images per dispatched batch (`0` before the first batch).
    pub mean_occupancy: f64,
    /// Largest batch dispatched so far.
    pub max_occupancy: usize,
    /// Median submit→reply latency in milliseconds.
    pub p50_latency_ms: f64,
    /// 99th-percentile submit→reply latency in milliseconds.
    pub p99_latency_ms: f64,
}

/// Shared connection-lifecycle counters the server's event loop bumps
/// while any thread may snapshot them.
///
/// All increments are `Relaxed`: the counters are monotonic telemetry,
/// never used to synchronize, so a snapshot taken mid-flight may lag a
/// concurrent increment but can never tear or go backwards.
#[derive(Debug, Default)]
pub(crate) struct ServerCounters {
    accepted: AtomicU64,
    refused: AtomicU64,
    timed_out: AtomicU64,
    protocol_errors: AtomicU64,
    drained: AtomicU64,
}

impl ServerCounters {
    pub(crate) fn inc_accepted(&self) {
        self.accepted.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn inc_refused(&self) {
        self.refused.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn inc_timed_out(&self) {
        self.timed_out.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn inc_protocol_errors(&self) {
        self.protocol_errors.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn inc_drained(&self) {
        self.drained.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn snapshot(&self) -> ServerStats {
        ServerStats {
            accepted: self.accepted.load(Ordering::Relaxed),
            refused: self.refused.load(Ordering::Relaxed),
            timed_out: self.timed_out.load(Ordering::Relaxed),
            protocol_errors: self.protocol_errors.load(Ordering::Relaxed),
            drained: self.drained.load(Ordering::Relaxed),
        }
    }
}

/// A point-in-time snapshot of the server's connection robustness
/// counters — what happened to every socket the listener ever saw.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ServerStats {
    /// Connections accepted and served (not refused at the gate).
    pub accepted: u64,
    /// Connections refused at the accept gate (over `max_connections`,
    /// or arriving mid-drain).
    pub refused: u64,
    /// Connections reaped for stalling mid-frame past `read_timeout`
    /// (answered with [`crate::protocol::ErrorKind::Timeout`]).
    pub timed_out: u64,
    /// Malformed frames (bad length prefix or undecodable payload).
    pub protocol_errors: u64,
    /// In-flight requests whose replies were delivered during a
    /// graceful drain.
    pub drained: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_histogram_reports_zero() {
        let h = LatencyHistogram::new();
        assert_eq!(h.total(), 0);
        assert_eq!(h.quantile_ms(0.5), 0.0);
        assert_eq!(h.quantile_ms(0.99), 0.0);
    }

    #[test]
    fn quantiles_bound_recorded_latencies() {
        let mut h = LatencyHistogram::new();
        // 99 fast requests at ~100 µs, one slow outlier at ~50 ms.
        for _ in 0..99 {
            h.record(Duration::from_micros(100));
        }
        h.record(Duration::from_millis(50));
        assert_eq!(h.total(), 100);
        let p50 = h.quantile_ms(0.50);
        let p99 = h.quantile_ms(0.99);
        let p100 = h.quantile_ms(1.0);
        // p50 sits in 100 µs's sub-bucket [96, 112) µs: bound 112 µs.
        assert!((0.1..=0.112001).contains(&p50), "p50 {p50}");
        // p99 is still in the fast bucket (99 of 100 samples)…
        assert!(p99 <= 0.112001, "p99 {p99}");
        // …while the max lands in 50 ms's sub-bucket [49.152, 57.344).
        assert!((50.0..=57.344001).contains(&p100), "p100 {p100}");
        assert!(p50 <= p99 && p99 <= p100);
    }

    #[test]
    fn sub_buckets_distinguish_p50_from_p99_within_an_octave() {
        // 9 ms and 15 ms share the [8.192, 16.384) ms octave — the old
        // power-of-two histogram reported both quantiles as 16.384 ms.
        let mut h = LatencyHistogram::new();
        for _ in 0..90 {
            h.record(Duration::from_millis(9));
        }
        for _ in 0..10 {
            h.record(Duration::from_millis(15));
        }
        let p50 = h.quantile_ms(0.50);
        let p99 = h.quantile_ms(0.99);
        assert!(p50 < p99, "p50 {p50} vs p99 {p99}");
        // Each bound stays within 25% of its recorded latency.
        assert!((9.0..=11.25).contains(&p50), "p50 {p50}");
        assert!((15.0..=18.75).contains(&p99), "p99 {p99}");
    }

    #[test]
    fn every_bucket_bound_is_within_a_quarter_of_its_lower_edge() {
        // Spot-check the log-linear mapping across the full range:
        // record → quantile must give a bound in [us, 1.25 · us].
        for shift in 2..63u32 {
            for offset in [0u64, 1, 3] {
                let us = (1u64 << shift) + (offset << shift.saturating_sub(2));
                let mut h = LatencyHistogram::new();
                h.record(Duration::from_micros(us));
                let bound_us = h.quantile_ms(1.0) * 1000.0;
                assert!(bound_us > us as f64, "{us}: bound {bound_us}");
                assert!(bound_us <= us as f64 * 1.25 + 1.0, "{us}: bound {bound_us}");
            }
        }
    }

    #[test]
    fn zero_and_huge_latencies_do_not_panic() {
        let mut h = LatencyHistogram::new();
        h.record(Duration::ZERO);
        h.record(Duration::from_secs(1 << 40));
        assert_eq!(h.total(), 2);
        assert!(h.quantile_ms(1.0) > 0.0);
    }

    #[test]
    fn catch_all_bucket_bound_is_not_below_recorded_latency() {
        let mut h = LatencyHistogram::new();
        // as_micros = 2^53 · 10^6 > u64::MAX: the conversion saturates
        // and the sample lands in the catch-all bucket. The reported
        // bound must not undercut the actual (clamped) latency.
        let huge = Duration::from_secs(1 << 53);
        h.record(huge);
        let clamped_ms = u64::MAX as f64 / 1000.0;
        assert_eq!(h.quantile_ms(1.0), clamped_ms);
        assert!(h.quantile_ms(1.0) >= clamped_ms);
        // 2^62 µs resolves to a finite sub-bucket bound (5·2^60 µs)
        // that still sits above the recorded latency.
        let mut h2 = LatencyHistogram::new();
        h2.record(Duration::from_micros(1 << 62));
        let bound_ms = h2.quantile_ms(1.0);
        assert!(bound_ms > (1u64 << 62) as f64 / 1000.0, "{bound_ms}");
        assert!(bound_ms < clamped_ms, "{bound_ms}");
        // The nominal top-of-range value shares the saturated bound —
        // the 25% guarantee stops below the catch-all, by design.
        let mut h3 = LatencyHistogram::new();
        h3.record(Duration::from_micros(u64::MAX));
        assert_eq!(h3.quantile_ms(1.0), clamped_ms);
    }

    #[test]
    fn server_counters_start_zero_and_count_independently() {
        let c = ServerCounters::default();
        assert_eq!(c.snapshot(), ServerStats::default());
        c.inc_accepted();
        c.inc_accepted();
        c.inc_refused();
        c.inc_timed_out();
        c.inc_protocol_errors();
        c.inc_drained();
        let s = c.snapshot();
        assert_eq!(
            s,
            ServerStats {
                accepted: 2,
                refused: 1,
                timed_out: 1,
                protocol_errors: 1,
                drained: 1,
            }
        );
    }

    #[test]
    fn server_counters_survive_concurrent_increments() {
        use std::sync::Arc;
        let c = Arc::new(ServerCounters::default());
        let threads: Vec<_> = (0..4)
            .map(|_| {
                let c = Arc::clone(&c);
                std::thread::spawn(move || {
                    for _ in 0..1000 {
                        c.inc_accepted();
                        c.inc_drained();
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().expect("counter thread");
        }
        let s = c.snapshot();
        assert_eq!(s.accepted, 4000);
        assert_eq!(s.drained, 4000);
        assert_eq!(s.refused, 0);
    }

    #[test]
    fn snapshot_derives_mean_occupancy() {
        let inner = StatsInner {
            submitted: 10,
            completed: 10,
            batches: 4,
            occupancy_sum: 10,
            max_occupancy: 4,
            ..StatsInner::default()
        };
        let s = inner.snapshot();
        assert_eq!(s.mean_occupancy, 2.5);
        assert_eq!(s.max_occupancy, 4);
        // No batches yet → occupancy 0, not NaN.
        assert_eq!(StatsInner::default().snapshot().mean_occupancy, 0.0);
    }
}

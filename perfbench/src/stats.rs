//! Pure statistics and correctness helpers: nearest-rank percentiles
//! with the "at least ten samples beyond" support rule, medians, and the
//! logits digest the bit-exact gate compares.

/// Samples a reported percentile must have strictly above its rank
/// before the percentile counts as measured rather than extrapolated.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank percentile of an ascending-sorted sample (`q` in
/// `(0, 1]`). Returns 0 for an empty sample.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    sorted[rank(sorted.len(), q) - 1]
}

/// 1-based nearest rank of quantile `q` among `n` samples.
pub fn rank(n: usize, q: f64) -> usize {
    ((q * n as f64).ceil() as usize).clamp(1, n.max(1))
}

/// Whether `n` samples support quantile `q`: at least [`MIN_BEYOND`]
/// samples lie above its rank.
pub fn supported(n: usize, q: f64) -> bool {
    n > 0 && n - rank(n, q) >= MIN_BEYOND
}

/// Most windows [`windowed_percentile`] cuts a sample into.
pub const MAX_WINDOWS: usize = 5;

/// Percentile `q` of a time-ordered sample, robust to a transient host
/// stall: the sample is cut into as many equal consecutive windows (at
/// most [`MAX_WINDOWS`]) as still each support `q`, and the median of the
/// windows' percentiles is returned. A stall then moves one window, not
/// the reported value. A sample too small for two windows is one window.
pub fn windowed_percentile(ordered: &[f64], q: f64) -> f64 {
    let windows = (2..=MAX_WINDOWS)
        .rev()
        .find(|&w| supported(ordered.len() / w, q))
        .unwrap_or(1);
    let each: Vec<f64> = ordered
        .chunks_exact(ordered.len().max(1) / windows)
        .take(windows)
        .map(|w| percentile(&sorted(w), q))
        .collect();
    median(&each)
}

/// Events per second over a run, robust to a transient host stall: the
/// ascending completion times `ends` (seconds from the run start) are cut
/// into [`MAX_WINDOWS`] consecutive groups, each group's rate is its
/// events over the time since the previous group ended, and the median
/// rate is returned. Each event counts `per_event` units.
pub fn windowed_rate(ends: &[f64], per_event: f64) -> f64 {
    let per = (ends.len() / MAX_WINDOWS).max(1);
    let mut prev = 0.0;
    let rates: Vec<f64> = ends
        .chunks(per)
        .filter(|w| w.len() == per)
        .map(|w| {
            let last = w[w.len() - 1];
            let rate = per as f64 * per_event / (last - prev).max(1e-12);
            prev = last;
            rate
        })
        .collect();
    median(&rates)
}

/// Median of an unsorted sample (the mean of the middle pair for even
/// sizes). Returns 0 for an empty sample.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let sorted = sorted(values);
    let mid = sorted.len() / 2;
    if sorted.len().is_multiple_of(2) {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    } else {
        sorted[mid]
    }
}

/// An ascending copy of `values` (total order, so NaN cannot panic).
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    v
}

/// FNV-1a-64 over the exact bit patterns of a logits row: two rows
/// share a digest only if they are bit-identical (`-0.0 != 0.0`, every
/// NaN payload distinct), which is the engine's contract.
pub fn digest(logits: &[f32]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for v in logits {
        for b in v.to_bits().to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// The bit-exact gate: how many rows of a `[rows, classes]` logits
/// buffer differ from the oracle digests of the inputs that produced
/// them (`inputs[row]` indexes `oracle`).
pub fn mismatches(logits: &[f32], classes: usize, inputs: &[usize], oracle: &[u64]) -> usize {
    inputs
        .iter()
        .enumerate()
        .filter(|&(row, &input)| {
            logits
                .get(row * classes..(row + 1) * classes)
                .is_none_or(|r| digest(r) != oracle[input])
        })
        .count()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.50), 50.0);
        assert_eq!(percentile(&v, 0.99), 99.0);
        assert_eq!(percentile(&v, 1.0), 100.0);
        assert_eq!(percentile(&[7.0], 0.99), 7.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
    }

    #[test]
    fn support_needs_ten_samples_beyond_the_rank() {
        // p99 of 1000 samples is rank 990: exactly ten lie beyond.
        assert!(supported(1000, 0.99));
        assert!(!supported(999, 0.99));
        // p90 needs only 100.
        assert!(supported(100, 0.90));
        assert!(!supported(99, 0.90));
        assert!(!supported(0, 0.5));
    }

    #[test]
    fn windowed_percentile_ignores_one_stalled_window() {
        // 5000 samples of 1 ms with a 60-sample stall at 100 ms: the
        // plain p99 lands in the stall, four of five windows do not.
        let mut v = vec![1.0; 5000];
        for x in &mut v[2000..2060] {
            *x = 100.0;
        }
        assert_eq!(percentile(&sorted(&v), 0.99), 100.0);
        assert_eq!(windowed_percentile(&v, 0.99), 1.0);
        // 3000 samples support three 1000-sample windows at p99.
        let w: Vec<f64> = (0..3000).map(|i| f64::from(i % 1000)).collect();
        assert_eq!(windowed_percentile(&w, 0.99), 989.0);
        // Too few samples for two windows: the plain percentile.
        let small: Vec<f64> = (1..=1500).map(f64::from).collect();
        assert_eq!(windowed_percentile(&small, 0.99), percentile(&small, 0.99));
        assert_eq!(windowed_percentile(&[], 0.5), 0.0);
    }

    #[test]
    fn windowed_rate_ignores_one_stalled_window() {
        // 100 events 0.1 s apart, with a 5 s stall before event 50.
        let ends: Vec<f64> = (1..=100)
            .map(|i| f64::from(i) * 0.1 + if i >= 50 { 5.0 } else { 0.0 })
            .collect();
        // Whole-run rate is 100 / 15 s; four of five windows run at 10/s.
        assert!((windowed_rate(&ends, 1.0) - 10.0).abs() < 1e-9);
        assert!((windowed_rate(&ends, 16.0) - 160.0).abs() < 1e-9);
        assert_eq!(windowed_rate(&[], 1.0), 0.0);
    }

    #[test]
    fn median_of_odd_and_even_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn digest_is_bit_exact() {
        let a = [1.0f32, -2.5, 0.0];
        assert_eq!(digest(&a), digest(&[1.0, -2.5, 0.0]));
        assert_ne!(digest(&a), digest(&[1.0, -2.5, -0.0]));
        assert_ne!(digest(&a), digest(&[1.0, -2.5, f32::from_bits(1)]));
        assert_ne!(digest(&a), digest(&[-2.5, 1.0, 0.0]));
    }

    #[test]
    fn mismatches_count_rows_that_differ_from_the_oracle() {
        let rows = [[1.0f32, 2.0], [3.0, 4.0], [5.0, 6.0]];
        let oracle: Vec<u64> = rows.iter().map(|r| digest(r)).collect();
        let mut logits: Vec<f32> = rows.iter().flatten().copied().collect();
        assert_eq!(mismatches(&logits, 2, &[0, 1, 2], &oracle), 0);
        // Inputs served out of order are checked against their own rows.
        assert_eq!(mismatches(&logits, 2, &[1, 1, 2], &oracle), 1);
        logits[3] = f32::from_bits(logits[3].to_bits() ^ 1);
        assert_eq!(mismatches(&logits, 2, &[0, 1, 2], &oracle), 1);
        // A short buffer counts its missing rows.
        assert_eq!(mismatches(&logits[..2], 2, &[0, 1, 2], &oracle), 2);
    }
}

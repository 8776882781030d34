//! Clocked self-referenced sense-amplifier model (Ni et al. 2019).
//!
//! Physics being modelled: during a search, every mismatching cell in a
//! row turns on one pull-down path on that row's match line. With `d`
//! mismatches the ML discharges roughly `d`+ times faster than with one,
//! so the time for the ML to cross the sensing threshold is
//!
//! ```text
//! t(d) ≈ t₁ / d      (d ≥ 1),    t(0) = ∞ (full match, no pull-down)
//! ```
//!
//! The clocked self-referenced SA samples the ML at every clock edge and
//! records the first edge at which the line has fallen below threshold.
//! Quantizing *time* therefore quantizes Hamming distance *non-uniformly*:
//! small distances (long discharge times) are resolved finely, large
//! distances coarsely — exactly the behaviour reported by Ni et al.
//!
//! [`SenseModel::Exact`] bypasses the quantization (ideal readout);
//! [`SenseModel::Clocked`] applies it and is the hardware-faithful
//! default for ablation studies. The functional accuracy experiments of
//! the paper implicitly assume near-ideal readout, so `deepcam-core`
//! uses `Exact` unless an experiment asks otherwise.

/// Sense-amplifier readout model.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum SenseModel {
    /// Ideal readout: the reported distance equals the true distance.
    #[default]
    Exact,
    /// Clocked sampling with `levels` distinguishable discharge-time bins
    /// across `max_hd` (the active word length).
    Clocked {
        /// Number of clock edges in the sensing window.
        levels: usize,
    },
}

impl SenseModel {
    /// Applies the readout model to a true Hamming distance `hd` for a
    /// word of `word_bits` active bits, returning the distance the
    /// post-processing unit will see.
    ///
    /// Guarantees: `read(0) == 0` (a full match never discharges), the
    /// output is monotone in `hd`, and output never exceeds `word_bits`.
    pub fn read(&self, hd: usize, word_bits: usize) -> usize {
        match *self {
            SenseModel::Exact => hd.min(word_bits),
            SenseModel::Clocked { levels } => {
                let levels = levels.max(1);
                if hd == 0 {
                    return 0;
                }
                let hd = hd.min(word_bits) as f64;
                // Discharge time in units of t₁: t = 1/hd. The sensing
                // window spans [1/word_bits, 1]; clock edge index
                // i ∈ [0, levels) samples time t_i on a geometric grid
                // (constant-ratio spacing matches an RC discharge sampled
                // by a fixed clock against an exponential ramp).
                let t = 1.0 / hd;
                let t_min = 1.0 / word_bits.max(1) as f64;
                // ratio = t_min^(1/levels)
                let ratio = (t_min.ln() / (levels as f64)).exp();
                // Find the bin whose representative time is closest to t.
                let mut level = 0usize;
                let mut edge = 1.0f64;
                while level + 1 < levels && edge * ratio >= t {
                    edge *= ratio;
                    level += 1;
                }
                // Convert the sampled time back to an HD estimate.
                let hd_est = (1.0 / edge).round() as usize;
                hd_est.clamp(1, word_bits)
            }
        }
    }

    /// Worst-case absolute readout error over all distances for a given
    /// word length (diagnostic used by tests and the ablation bench).
    pub fn max_error(&self, word_bits: usize) -> usize {
        (0..=word_bits)
            .map(|hd| self.read(hd, word_bits).abs_diff(hd))
            .max()
            .unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_is_identity() {
        let s = SenseModel::Exact;
        for hd in 0..=256 {
            assert_eq!(s.read(hd, 256), hd);
        }
    }

    #[test]
    fn exact_clamps_to_word() {
        assert_eq!(SenseModel::Exact.read(300, 256), 256);
    }

    #[test]
    fn clocked_full_match_reads_zero() {
        let s = SenseModel::Clocked { levels: 16 };
        assert_eq!(s.read(0, 1024), 0);
    }

    #[test]
    fn clocked_is_monotone() {
        for &levels in &[4usize, 16, 64] {
            let s = SenseModel::Clocked { levels };
            let mut prev = 0;
            for hd in 0..=512 {
                let r = s.read(hd, 512);
                assert!(r >= prev, "levels={levels}: non-monotone at hd={hd}");
                prev = r;
            }
        }
    }

    #[test]
    fn clocked_resolves_small_distances_finely() {
        // The self-referenced SA's signature property: small HD readings
        // are much more accurate than large ones.
        let s = SenseModel::Clocked { levels: 64 };
        let small_err: usize = (1..=8).map(|hd| s.read(hd, 1024).abs_diff(hd)).sum();
        let large_err: usize = (1000..=1008).map(|hd| s.read(hd, 1024).abs_diff(hd)).sum();
        assert!(
            small_err < large_err,
            "small {small_err} should be < large {large_err}"
        );
        assert!(small_err <= 8, "small distances nearly exact: {small_err}");
    }

    #[test]
    fn more_levels_reduce_error() {
        let coarse = SenseModel::Clocked { levels: 8 }.max_error(512);
        let fine = SenseModel::Clocked { levels: 128 }.max_error(512);
        assert!(fine <= coarse, "fine {fine} vs coarse {coarse}");
    }

    #[test]
    fn output_bounded_by_word() {
        let s = SenseModel::Clocked { levels: 16 };
        for hd in 0..=2048 {
            assert!(s.read(hd, 1024) <= 1024);
        }
    }

    #[test]
    fn default_is_exact() {
        assert_eq!(SenseModel::default(), SenseModel::Exact);
    }
}

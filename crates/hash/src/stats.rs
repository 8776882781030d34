//! Error metrics for approximation-quality experiments (Fig. 2).

/// Summary statistics of an approximation error sample.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ErrorStats {
    /// Number of (approx, reference) pairs.
    pub count: usize,
    /// Mean absolute error.
    pub mae: f32,
    /// Root-mean-square error.
    pub rmse: f32,
    /// Mean relative error `|a - r| / max(|r|, eps)`. Dominated by
    /// near-zero references; prefer [`ErrorStats::normalized_rmse`] for
    /// ensemble comparisons.
    pub mean_relative: f32,
    /// Maximum absolute error in the sample.
    pub max_abs: f32,
    /// Mean absolute reference magnitude (the scale of the data).
    pub mean_abs_reference: f32,
}

impl ErrorStats {
    /// Computes statistics from paired approximate and reference values.
    ///
    /// # Panics
    ///
    /// Panics if the slices have different lengths.
    pub fn from_pairs(approx: &[f32], reference: &[f32]) -> Self {
        assert_eq!(
            approx.len(),
            reference.len(),
            "paired samples must have equal length"
        );
        let n = approx.len();
        if n == 0 {
            return ErrorStats {
                count: 0,
                mae: 0.0,
                rmse: 0.0,
                mean_relative: 0.0,
                max_abs: 0.0,
                mean_abs_reference: 0.0,
            };
        }
        let mut abs_sum = 0.0f64;
        let mut sq_sum = 0.0f64;
        let mut rel_sum = 0.0f64;
        let mut ref_sum = 0.0f64;
        let mut max_abs = 0.0f32;
        for (&a, &r) in approx.iter().zip(reference.iter()) {
            let e = (a - r).abs();
            abs_sum += e as f64;
            sq_sum += (e as f64) * (e as f64);
            rel_sum += (e / r.abs().max(1e-6)) as f64;
            ref_sum += r.abs() as f64;
            max_abs = max_abs.max(e);
        }
        ErrorStats {
            count: n,
            mae: (abs_sum / n as f64) as f32,
            rmse: (sq_sum / n as f64).sqrt() as f32,
            mean_relative: (rel_sum / n as f64) as f32,
            max_abs,
            mean_abs_reference: (ref_sum / n as f64) as f32,
        }
    }

    /// RMSE divided by the mean reference magnitude — a scale-free error
    /// measure that is robust to near-zero individual references.
    pub fn normalized_rmse(&self) -> f32 {
        if self.mean_abs_reference == 0.0 {
            0.0
        } else {
            self.rmse / self.mean_abs_reference
        }
    }
}

impl std::fmt::Display for ErrorStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "n={} mae={:.4} rmse={:.4} rel={:.2}% max={:.4}",
            self.count,
            self.mae,
            self.rmse,
            self.mean_relative * 100.0,
            self.max_abs
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_error_for_identical() {
        let s = ErrorStats::from_pairs(&[1.0, 2.0, 3.0], &[1.0, 2.0, 3.0]);
        assert_eq!(s.mae, 0.0);
        assert_eq!(s.rmse, 0.0);
        assert_eq!(s.max_abs, 0.0);
    }

    #[test]
    fn known_values() {
        let s = ErrorStats::from_pairs(&[1.0, 3.0], &[2.0, 1.0]);
        assert_eq!(s.count, 2);
        assert!((s.mae - 1.5).abs() < 1e-6);
        let expected_rmse = ((1.0f64 + 4.0) / 2.0).sqrt() as f32;
        assert!((s.rmse - expected_rmse).abs() < 1e-6);
        assert_eq!(s.max_abs, 2.0);
    }

    #[test]
    fn empty_sample() {
        let s = ErrorStats::from_pairs(&[], &[]);
        assert_eq!(s.count, 0);
        assert_eq!(s.mae, 0.0);
    }

    #[test]
    fn display_contains_fields() {
        let s = ErrorStats::from_pairs(&[1.0], &[2.0]);
        let out = s.to_string();
        assert!(out.contains("mae=1.0000"));
        assert!(out.contains("n=1"));
    }

    #[test]
    #[should_panic(expected = "equal length")]
    fn mismatched_lengths_panic() {
        ErrorStats::from_pairs(&[1.0], &[1.0, 2.0]);
    }
}

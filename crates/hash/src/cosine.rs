//! The paper's piecewise-linear cosine approximation (eq. 5).
//!
//! A true cosine in hardware needs LUTs or CORDIC iterations; DeepCAM
//! instead uses two linear segments plus a mirror rule, evaluated by the
//! post-processing module in a single multiply-add:
//!
//! ```text
//! cosine(θ) = 1 − θ/π            for 0     < θ ≤ π/3
//!           = −0.96·θ + 1.51     for π/3   < θ ≤ π/2
//!           = −cosine(π − θ)     for θ > π/2
//! ```
//!
//! The first segment is exact at θ=0 and intentionally coarse (the paper
//! relies on CNN error tolerance); the second tracks cos closely near
//! π/2; the mirror rule extends to obtuse angles.

/// Evaluates the paper's eq. 5 approximation.
///
/// `theta` is clamped to `[0, π]` first — Hamming-derived angles can land
/// a hair outside through floating-point noise, and physical angles are
/// bounded anyway.
///
/// # Example
///
/// ```
/// use deepcam_hash::cosine::approx_cosine;
///
/// assert!((approx_cosine(0.0) - 1.0).abs() < 1e-6);
/// assert!(approx_cosine(std::f32::consts::FRAC_PI_2).abs() < 0.01);
/// assert!((approx_cosine(std::f32::consts::PI) + 1.0).abs() < 1e-6);
/// ```
pub fn approx_cosine(theta: f32) -> f32 {
    use std::f32::consts::{FRAC_PI_2, FRAC_PI_3, PI};

    fn approx_acute(t: f32) -> f32 {
        if t <= FRAC_PI_3 {
            1.0 - t / PI
        } else {
            -0.96 * t + 1.51
        }
    }

    let t = theta.clamp(0.0, PI);
    if t > FRAC_PI_2 {
        (-approx_acute(PI - t)).clamp(-1.0, 1.0)
    } else {
        approx_acute(t).clamp(-1.0, 1.0)
    }
}

/// Exact cosine, used as the ablation reference for eq. 5.
pub fn exact_cosine(theta: f32) -> f32 {
    theta.clamp(0.0, std::f32::consts::PI).cos()
}

/// Maximum absolute error of [`approx_cosine`] against [`exact_cosine`]
/// over a uniform grid of `samples` angles in `[0, π]`.
///
/// Quantifies how much accuracy eq. 5 sacrifices.
pub fn max_abs_error(samples: usize) -> f32 {
    let mut worst = 0.0f32;
    for i in 0..samples {
        let theta = std::f32::consts::PI * i as f32 / (samples.max(2) - 1) as f32;
        worst = worst.max((approx_cosine(theta) - exact_cosine(theta)).abs());
    }
    worst
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::f32::consts::{FRAC_PI_2, FRAC_PI_3, PI};

    #[test]
    fn endpoints() {
        assert!((approx_cosine(0.0) - 1.0).abs() < 1e-6);
        assert!((approx_cosine(PI) + 1.0).abs() < 1e-6);
    }

    #[test]
    fn right_angle_near_zero() {
        // Segment 2 at π/2: −0.96·1.5708 + 1.51 ≈ 0.002.
        assert!(approx_cosine(FRAC_PI_2).abs() < 0.01);
    }

    #[test]
    fn first_segment_formula() {
        let t = 0.5;
        assert!((approx_cosine(t) - (1.0 - t / PI)).abs() < 1e-6);
    }

    #[test]
    fn second_segment_formula() {
        let t = 1.2; // between π/3 ≈ 1.047 and π/2 ≈ 1.571
        assert!((approx_cosine(t) - (-0.96 * t + 1.51)).abs() < 1e-6);
    }

    #[test]
    fn mirror_rule_for_obtuse() {
        for &t in &[1.8f32, 2.2, 2.8, 3.0] {
            assert!(
                (approx_cosine(t) + approx_cosine(PI - t)).abs() < 1e-6,
                "mirror failed at {t}"
            );
        }
    }

    #[test]
    fn clamps_out_of_range_angles() {
        assert_eq!(approx_cosine(-0.5), approx_cosine(0.0));
        assert_eq!(approx_cosine(4.0), approx_cosine(PI));
    }

    #[test]
    fn error_is_bounded_as_paper_assumes() {
        // The coarse first segment peaks near π/3: |1 − 1/3 − 0.5| ≈ 0.167.
        let e = max_abs_error(10_000);
        assert!(e < 0.18, "max error {e}");
        // And it is genuinely approximate, not exact.
        assert!(e > 0.1);
    }

    #[test]
    fn monotone_decreasing_within_segments() {
        // cos is decreasing on [0, π]; the approximation should be too,
        // except at the (documented) discontinuity at π/3.
        let mut prev = approx_cosine(0.0);
        for i in 1..1000 {
            let t = PI * i as f32 / 999.0;
            let cur = approx_cosine(t);
            let just_crossed_pi3 = (t - FRAC_PI_3).abs() < PI / 999.0;
            if !just_crossed_pi3 {
                assert!(cur <= prev + 1e-4, "not decreasing at θ={t}");
            }
            prev = cur;
        }
    }
}

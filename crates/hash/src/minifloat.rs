//! 8-bit minifloat (1-4-3) for L2 norms.
//!
//! The paper stores each context's L2 norm "with 8-bit minifloat
//! representation" (§III-A, citing Ristretto). This module implements a
//! 1-sign / 4-exponent / 3-mantissa format with IEEE-style subnormals,
//! round-to-nearest-even, and saturation to the maximum finite value —
//! there are no infinities or NaNs in the hardware datapath, so the
//! encoder never produces them.
//!
//! Layout: `s eeee mmm`, exponent bias 7.
//!
//! * normal numbers: `(-1)^s · 2^(e-7) · (1 + m/8)`, e ∈ [1, 15]
//! * subnormals (e = 0): `(-1)^s · 2^(-6) · (m/8)`
//! * max finite: `2^8 · 1.875 = 480.0`; min positive subnormal: `2^-9`

const EXP_BITS: u32 = 4;
const MAN_BITS: u32 = 3;
const BIAS: i32 = 7;
const MAX_EXP: i32 = (1 << EXP_BITS) - 1; // 15

/// An 8-bit minifloat value (1-4-3, bias 7).
///
/// # Example
///
/// ```
/// use deepcam_hash::Minifloat8;
///
/// let m = Minifloat8::from_f32(3.2);
/// // 3.2 is between representable 3.0 and 3.25; RNE picks 3.25.
/// assert!((m.to_f32() - 3.25).abs() < 1e-6);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct Minifloat8(u8);

impl Minifloat8 {
    /// Largest representable finite magnitude (480.0).
    pub const MAX: f32 = 480.0;
    /// Smallest positive (subnormal) magnitude, 2⁻⁹.
    pub const MIN_POSITIVE: f32 = 1.0 / 512.0;

    /// Encodes an `f32` with round-to-nearest-even and saturation.
    ///
    /// NaN encodes as +0 (the hardware norm datapath never produces NaN;
    /// mapping to zero is the safest default for a magnitude).
    pub fn from_f32(x: f32) -> Self {
        if x.is_nan() {
            return Minifloat8(0);
        }
        let sign = if x.is_sign_negative() { 0x80u8 } else { 0 };
        let mag = x.abs();
        if mag == 0.0 {
            return Minifloat8(sign);
        }
        if mag >= Self::MAX {
            // Saturate to max finite: e = 15, m = 7.
            return Minifloat8(sign | 0x7F);
        }
        // Scale into the format: find e such that mag = 2^(e-BIAS) * f,
        // f ∈ [1, 2).
        let e_unbiased = mag.log2().floor() as i32;
        let mut e = e_unbiased + BIAS;
        let quantize = |mag: f32, e: i32| -> f32 {
            // Units of the mantissa LSB at this exponent.
            let scale = ((e - BIAS) as f32).exp2() / (1 << MAN_BITS) as f32;
            mag / scale
        };
        if e <= 0 {
            // Subnormal: value = m/8 * 2^(1-BIAS), m in [0,7].
            let scale = ((1 - BIAS) as f32).exp2() / (1 << MAN_BITS) as f32;
            let m = round_ties_even(mag / scale);
            if m >= (1 << MAN_BITS) as f32 {
                // Rounded up into the smallest normal.
                return Minifloat8(sign | (1 << MAN_BITS));
            }
            return Minifloat8(sign | m as u8);
        }
        // Normal: mantissa steps of 2^(e-BIAS)/8; total significand in
        // units of LSB is in [8, 16).
        let mut units = round_ties_even(quantize(mag, e));
        if units >= (2 << MAN_BITS) as f32 {
            // Rounded up across a binade boundary.
            e += 1;
            units = (1 << MAN_BITS) as f32;
        }
        if e > MAX_EXP {
            return Minifloat8(sign | 0x7F);
        }
        let m = units as u32 - (1 << MAN_BITS);
        Minifloat8(sign | ((e as u8) << MAN_BITS) | m as u8)
    }

    /// Decodes to `f32`.
    pub fn to_f32(self) -> f32 {
        let sign = if self.0 & 0x80 != 0 { -1.0f32 } else { 1.0 };
        let e = ((self.0 >> MAN_BITS) & 0x0F) as i32;
        let m = (self.0 & 0x07) as f32;
        if e == 0 {
            sign * ((1 - BIAS) as f32).exp2() * (m / (1 << MAN_BITS) as f32)
        } else {
            sign * ((e - BIAS) as f32).exp2() * (1.0 + m / (1 << MAN_BITS) as f32)
        }
    }

    /// The raw encoded byte.
    pub fn bits(self) -> u8 {
        self.0
    }

    /// Constructs from a raw byte (any byte is a valid value in this
    /// format since there are no NaN/Inf encodings).
    pub fn from_bits(bits: u8) -> Self {
        Minifloat8(bits)
    }

    /// Quantizes an `f32` through the format and back — the quantization
    /// that the DeepCAM post-processing module applies to every norm.
    ///
    /// Bit-identical to `Minifloat8::from_f32(x).to_f32()` for every one
    /// of the 2³² inputs (checked exhaustively by the ignored test
    /// `quantize_equals_encode_then_decode_on_all_inputs`, run with
    /// `cargo test --release -p deepcam-hash -- --ignored`; the default
    /// unit tests pin a sampled sweep plus the edge cases), but computed
    /// directly: round to nearest even on the format's grid — spacing
    /// `2^(E-3)` in binade `[2^E, 2^(E+1))`, `2⁻⁹` below the smallest
    /// normal — then saturate and restore the sign. Power-of-two scaling is exact, so no
    /// `log2`/`exp2` call is needed; the engine calls this once per
    /// hashed patch.
    pub fn quantize(x: f32) -> f32 {
        if x.is_nan() {
            return 0.0;
        }
        let mag = x.abs();
        let q = if mag >= Self::MAX {
            Self::MAX
        } else if mag < ((1 - BIAS) as f32).exp2() {
            (mag / Self::MIN_POSITIVE).round_ties_even() * Self::MIN_POSITIVE
        } else {
            let binade = (mag.to_bits() >> 23) as i32 - 127;
            let lsb = f32::from_bits(((binade - MAN_BITS as i32 + 127) as u32) << 23);
            (mag / lsb).round_ties_even() * lsb
        };
        q.copysign(x)
    }
}

fn round_ties_even(x: f32) -> f32 {
    let floor = x.floor();
    let frac = x - floor;
    let round_up = frac > 0.5 || (frac == 0.5 && (floor as i64) & 1 == 1);
    if round_up {
        floor + 1.0
    } else {
        floor
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantize_equals_encode_then_decode_bitwise() {
        let check = |x: f32| {
            let want = Minifloat8::from_f32(x).to_f32();
            assert_eq!(
                Minifloat8::quantize(x).to_bits(),
                want.to_bits(),
                "quantize({x:e}) [{:#010x}]",
                x.to_bits()
            );
        };
        // A sweep over the whole bit space (both signs, subnormals, inf,
        // NaN payloads) ...
        for bits in (0..=u32::MAX).step_by(65_537) {
            check(f32::from_bits(bits));
        }
        // ... plus every grid point, midpoint and its neighbours, and the
        // saturation and subnormal edges.
        for code in 0..=255u8 {
            let v = Minifloat8::from_bits(code).to_f32();
            let next = Minifloat8::from_bits(code.wrapping_add(1)).to_f32();
            for x in [v, (v + next) / 2.0] {
                for d in -2i32..=2 {
                    check(f32::from_bits(x.to_bits().wrapping_add_signed(d)));
                }
            }
        }
        for x in [
            0.0,
            -0.0,
            480.0,
            496.0,
            1e30,
            f32::INFINITY,
            f32::MIN_POSITIVE,
            1.0 / 64.0,
        ] {
            check(x);
            check(-x);
        }
    }

    #[test]
    #[ignore = "exhaustive over all 2^32 inputs; run in release with --ignored"]
    fn quantize_equals_encode_then_decode_on_all_inputs() {
        for bits in 0..=u32::MAX {
            let x = f32::from_bits(bits);
            let want = Minifloat8::from_f32(x).to_f32();
            assert_eq!(
                Minifloat8::quantize(x).to_bits(),
                want.to_bits(),
                "quantize({x:e}) [{bits:#010x}]"
            );
        }
    }

    #[test]
    fn zero_round_trip() {
        assert_eq!(Minifloat8::from_f32(0.0).to_f32(), 0.0);
        assert_eq!(Minifloat8::from_f32(-0.0).bits(), 0x80);
    }

    #[test]
    fn exact_values_round_trip() {
        // Powers of two and simple mantissas are exactly representable.
        for &v in &[1.0f32, 2.0, 0.5, 1.5, 3.0, 96.0, 0.25, 480.0] {
            let q = Minifloat8::quantize(v);
            assert_eq!(q, v, "{v} should be exact, got {q}");
        }
    }

    #[test]
    fn saturates_at_max() {
        assert_eq!(Minifloat8::from_f32(1e9).to_f32(), Minifloat8::MAX);
        assert_eq!(Minifloat8::from_f32(-1e9).to_f32(), -Minifloat8::MAX);
        assert_eq!(Minifloat8::from_f32(481.0).to_f32(), Minifloat8::MAX);
    }

    #[test]
    fn subnormals() {
        let tiny = Minifloat8::MIN_POSITIVE;
        assert_eq!(Minifloat8::from_f32(tiny).to_f32(), tiny);
        // Below half the smallest subnormal rounds to zero.
        assert_eq!(Minifloat8::from_f32(tiny / 4.0).to_f32(), 0.0);
    }

    #[test]
    fn round_to_nearest_even() {
        // Between 1.0 (m=0) and 1.125 (m=1) the midpoint 1.0625 ties to
        // even mantissa 0 → 1.0.
        assert_eq!(Minifloat8::quantize(1.0625), 1.0);
        // Between 1.125 (m=1) and 1.25 (m=2): midpoint 1.1875 → even m=2.
        assert_eq!(Minifloat8::quantize(1.1875), 1.25);
    }

    #[test]
    fn rounding_across_binade() {
        // Just under 2.0 rounds up across the exponent boundary.
        assert_eq!(Minifloat8::quantize(1.99), 2.0);
    }

    #[test]
    fn nan_maps_to_zero() {
        assert_eq!(Minifloat8::from_f32(f32::NAN).to_f32(), 0.0);
    }

    #[test]
    fn relative_error_bound_for_normals() {
        // 3 mantissa bits → relative step 1/8; RNE halves it.
        let mut worst: f32 = 0.0;
        let mut v = 0.02f32;
        while v < 400.0 {
            let q = Minifloat8::quantize(v);
            worst = worst.max((q - v).abs() / v);
            v *= 1.0173;
        }
        assert!(worst <= 1.0 / 16.0 + 1e-3, "worst relative error {worst}");
    }

    #[test]
    fn quantization_is_idempotent() {
        let mut v = Minifloat8::MIN_POSITIVE / 2.0;
        while v < 600.0 {
            let once = Minifloat8::quantize(v);
            let twice = Minifloat8::quantize(once);
            assert_eq!(once, twice, "not idempotent at {v}");
            v *= 1.37;
        }
    }

    #[test]
    fn monotone_encoding() {
        // Quantization must be monotone non-decreasing.
        let mut prev = Minifloat8::quantize(0.0);
        let mut v = 0.0f32;
        while v < 500.0 {
            let q = Minifloat8::quantize(v);
            assert!(q >= prev, "non-monotone at {v}: {q} < {prev}");
            prev = q;
            v += 0.013;
        }
    }

    #[test]
    fn all_bytes_decode_finite() {
        for b in 0..=u8::MAX {
            let v = Minifloat8::from_bits(b).to_f32();
            assert!(v.is_finite(), "byte {b:#04x} decoded to {v}");
            assert!(v.abs() <= Minifloat8::MAX);
        }
    }

    #[test]
    fn negative_symmetry() {
        for &v in &[0.1f32, 1.7, 33.0, 480.0] {
            assert_eq!(Minifloat8::quantize(-v), -Minifloat8::quantize(v));
        }
    }
}

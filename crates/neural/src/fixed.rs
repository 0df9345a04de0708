//! Fixed-point representation used by the embedded DQN.
//!
//! The paper quantizes weights to fixed-point integers with a scale factor of
//! 100 (two decimal digits, following Lin et al., ICML 2016), storing each
//! weight in 2 bytes and using 4-byte intermediate results. These helpers
//! convert between `f32` and that representation and implement the
//! multiply-accumulate used by [`crate::QuantizedNetwork`].

/// The fixed-point scale factor: value `x` is stored as `round(x · SCALE)`.
pub const SCALE: i32 = 100;

/// Converts a float to its `i16` fixed-point representation, saturating at
/// the `i16` range.
///
/// # Examples
///
/// ```
/// use dimmer_neural::{to_fixed, SCALE};
/// assert_eq!(to_fixed(1.0), SCALE as i16);
/// assert_eq!(to_fixed(-0.25), -25);
/// assert_eq!(to_fixed(1000.0), i16::MAX); // saturates
/// ```
pub fn to_fixed(x: f32) -> i16 {
    let scaled = (x * SCALE as f32).round();
    if scaled >= i16::MAX as f32 {
        i16::MAX
    } else if scaled <= i16::MIN as f32 {
        i16::MIN
    } else {
        scaled as i16
    }
}

/// Converts an `i32` fixed-point value back to a float.
///
/// # Examples
///
/// ```
/// use dimmer_neural::{from_fixed, to_fixed};
/// let x = 0.37f32;
/// assert!((from_fixed(to_fixed(x) as i32) - x).abs() < 0.01);
/// ```
pub fn from_fixed(x: i32) -> f32 {
    x as f32 / SCALE as f32
}

/// Fixed-point multiply of two scaled values, keeping the result scaled once:
/// `(a·SCALE) · (b·SCALE) / SCALE = a·b·SCALE`.
pub fn fixed_mul(a: i32, b: i32) -> i32 {
    (a as i64 * b as i64 / SCALE as i64) as i32
}

/// Rectified linear unit on a fixed-point value.
pub fn fixed_relu(x: i32) -> i32 {
    x.max(0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn roundtrip_preserves_two_decimals() {
        for x in [-1.0f32, -0.33, 0.0, 0.5, 0.99, 2.5] {
            let back = from_fixed(to_fixed(x) as i32);
            assert!((back - x).abs() <= 0.005 + 1e-6, "{x} -> {back}");
        }
    }

    #[test]
    fn saturation_at_i16_bounds() {
        assert_eq!(to_fixed(400.0), i16::MAX);
        assert_eq!(to_fixed(-400.0), i16::MIN);
    }

    #[test]
    fn fixed_mul_matches_float_mul() {
        let a = 1.5f32;
        let b = -0.4f32;
        let r = fixed_mul((a * SCALE as f32) as i32, (b * SCALE as f32) as i32);
        assert!((from_fixed(r) - a * b).abs() < 0.02);
    }

    #[test]
    fn relu_clamps_negatives() {
        assert_eq!(fixed_relu(-250), 0);
        assert_eq!(fixed_relu(250), 250);
        assert_eq!(fixed_relu(0), 0);
    }

    #[test]
    fn to_fixed_rounds_halves_away_from_zero() {
        assert_eq!(to_fixed(0.125), 13);
        assert_eq!(to_fixed(-0.125), -13);
        assert_eq!(from_fixed(-250), -2.5);
        assert_eq!(from_fixed(SCALE), 1.0);
    }

    #[test]
    fn fixed_mul_truncates_toward_zero() {
        // 1.5 · ±0.33 = ±0.495, which keeps 0.49 of either sign.
        assert_eq!(fixed_mul(150, 33), 49);
        assert_eq!(fixed_mul(150, -33), -49);
        assert_eq!(fixed_mul(-150, -33), 49);
    }

    #[test]
    fn fixed_mul_does_not_overflow_in_the_product() {
        // 1000.0 · 1000.0: the raw product 10^10 exceeds i32.
        assert_eq!(fixed_mul(100_000, 100_000), 100_000_000);
        assert_eq!(fixed_mul(-100_000, 100_000), -100_000_000);
    }

    proptest! {
        #[test]
        fn prop_roundtrip_error_bounded(x in -300.0f32..300.0) {
            let back = from_fixed(to_fixed(x) as i32);
            prop_assert!((back - x).abs() <= 0.5 / SCALE as f32 + 1e-4);
        }

        #[test]
        fn prop_fixed_mul_close_to_float(a in -50.0f32..50.0, b in -50.0f32..50.0) {
            let fa = (a * SCALE as f32).round() as i32;
            let fb = (b * SCALE as f32).round() as i32;
            let r = from_fixed(fixed_mul(fa, fb));
            prop_assert!((r - a * b).abs() < 0.6, "a={a} b={b} got {r}");
        }
    }
}

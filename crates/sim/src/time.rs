//! Simulation time primitives.
//!
//! All protocol layers account time in microseconds. Glossy requires
//! sub-microsecond synchronization on real hardware; at the slot-level
//! abstraction used by this reproduction a 1 µs resolution is more than
//! sufficient (packet transmissions last ~1 ms, LWB slots 20 ms, rounds
//! seconds).

use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// A point in simulated time, measured in microseconds since simulation start.
///
/// `SimTime` is an absolute timestamp; durations between timestamps are
/// expressed as [`SimDuration`].
///
/// # Examples
///
/// ```
/// use dimmer_sim::{SimTime, SimDuration};
/// let start = SimTime::ZERO;
/// let later = start + SimDuration::from_millis(20);
/// assert_eq!(later.as_micros(), 20_000);
/// assert_eq!(later - start, SimDuration::from_millis(20));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

/// A span of simulated time, measured in microseconds.
///
/// # Examples
///
/// ```
/// use dimmer_sim::SimDuration;
/// let slot = SimDuration::from_millis(20);
/// assert_eq!(slot.as_millis_f64(), 20.0);
/// assert_eq!(slot * 3, SimDuration::from_millis(60));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(u64);

impl SimTime {
    /// The origin of simulated time.
    pub const ZERO: SimTime = SimTime(0);

    /// Creates a timestamp from microseconds since simulation start.
    pub const fn from_micros(us: u64) -> Self {
        SimTime(us)
    }

    /// Creates a timestamp from milliseconds since simulation start.
    pub const fn from_millis(ms: u64) -> Self {
        SimTime(ms * 1_000)
    }

    /// Creates a timestamp from seconds since simulation start.
    pub const fn from_secs(s: u64) -> Self {
        SimTime(s * 1_000_000)
    }

    /// Returns the timestamp as microseconds since simulation start.
    pub const fn as_micros(self) -> u64 {
        self.0
    }

    /// Returns the timestamp as (fractional) milliseconds since start.
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / 1_000.0
    }

    /// Returns the timestamp as (fractional) seconds since start.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1_000_000.0
    }
}

impl SimDuration {
    /// The zero-length duration.
    pub const ZERO: SimDuration = SimDuration(0);

    /// Creates a duration from microseconds.
    pub const fn from_micros(us: u64) -> Self {
        SimDuration(us)
    }

    /// Creates a duration from milliseconds.
    pub const fn from_millis(ms: u64) -> Self {
        SimDuration(ms * 1_000)
    }

    /// Creates a duration from seconds.
    pub const fn from_secs(s: u64) -> Self {
        SimDuration(s * 1_000_000)
    }

    /// Creates a duration from fractional milliseconds.
    ///
    /// # Panics
    ///
    /// Panics if `ms` is negative or not finite.
    pub fn from_millis_f64(ms: f64) -> Self {
        assert!(
            ms.is_finite() && ms >= 0.0,
            "duration must be non-negative and finite"
        );
        SimDuration((ms * 1_000.0).round() as u64)
    }

    /// Returns the duration in microseconds.
    pub const fn as_micros(self) -> u64 {
        self.0
    }

    /// Returns the duration as (fractional) milliseconds.
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / 1_000.0
    }

    /// Returns the duration as (fractional) seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1_000_000.0
    }

    /// Returns the smaller of two durations.
    pub fn min(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.min(other.0))
    }

    /// Returns the larger of two durations.
    pub fn max(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.max(other.0))
    }

    /// Saturating subtraction of two durations.
    pub fn saturating_sub(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(other.0))
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0 + rhs.0)
    }
}

impl AddAssign<SimDuration> for SimTime {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Sub<SimDuration> for SimTime {
    type Output = SimTime;
    fn sub(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0 - rhs.0)
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;
    fn sub(self, rhs: SimTime) -> SimDuration {
        SimDuration(self.0 - rhs.0)
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0 + rhs.0)
    }
}

impl AddAssign for SimDuration {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;
    fn sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0 - rhs.0)
    }
}

impl SubAssign for SimDuration {
    fn sub_assign(&mut self, rhs: SimDuration) {
        self.0 -= rhs.0;
    }
}

impl Mul<u64> for SimDuration {
    type Output = SimDuration;
    fn mul(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 * rhs)
    }
}

impl Div<u64> for SimDuration {
    type Output = SimDuration;
    fn div(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 / rhs)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}s", self.as_secs_f64())
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1_000_000 {
            write!(f, "{:.3}s", self.as_secs_f64())
        } else if self.0 >= 1_000 {
            write!(f, "{:.3}ms", self.as_millis_f64())
        } else {
            write!(f, "{}us", self.0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn time_arithmetic_roundtrips() {
        let t = SimTime::from_millis(5);
        let d = SimDuration::from_micros(250);
        assert_eq!((t + d) - t, d);
        assert_eq!((t + d) - d, t);
    }

    #[test]
    fn constructors_agree_on_units() {
        assert_eq!(SimTime::from_secs(2), SimTime::from_millis(2_000));
        assert_eq!(SimTime::from_millis(3), SimTime::from_micros(3_000));
        assert_eq!(
            SimDuration::from_secs(1),
            SimDuration::from_micros(1_000_000)
        );
    }

    #[test]
    fn duration_from_fractional_millis() {
        assert_eq!(
            SimDuration::from_millis_f64(1.5),
            SimDuration::from_micros(1_500)
        );
        assert_eq!(SimDuration::from_millis_f64(0.0), SimDuration::ZERO);
        // Rounded to the nearest microsecond.
        assert_eq!(SimDuration::from_millis_f64(0.0004), SimDuration::ZERO);
        assert_eq!(
            SimDuration::from_millis_f64(0.0006),
            SimDuration::from_micros(1)
        );
        assert_eq!(
            SimDuration::from_millis_f64(2.0004),
            SimDuration::from_micros(2_000)
        );
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_duration_panics() {
        let _ = SimDuration::from_millis_f64(-1.0);
    }

    #[test]
    fn display_picks_sensible_units() {
        assert_eq!(format!("{}", SimDuration::from_micros(12)), "12us");
        assert_eq!(format!("{}", SimDuration::from_millis(13)), "13.000ms");
        assert_eq!(format!("{}", SimDuration::from_secs(4)), "4.000s");
        assert_eq!(format!("{}", SimTime::from_secs(4)), "4.000s");
        // The unit switches at whole milliseconds and whole seconds.
        assert_eq!(SimDuration::from_micros(999).to_string(), "999us");
        assert_eq!(SimDuration::from_micros(1_000).to_string(), "1.000ms");
        assert_eq!(SimDuration::from_micros(999_999).to_string(), "999.999ms");
        assert_eq!(SimDuration::from_micros(1_000_000).to_string(), "1.000s");
        assert_eq!(SimTime::from_millis(1_250).to_string(), "1.250s");
    }

    #[test]
    fn min_max_and_saturating_sub() {
        let a = SimDuration::from_millis(3);
        let b = SimDuration::from_millis(5);
        assert_eq!(a.min(b), a);
        assert_eq!(a.max(b), b);
        assert_eq!(a.saturating_sub(b), SimDuration::ZERO);
        assert_eq!(b.saturating_sub(a), SimDuration::from_millis(2));
    }

    #[test]
    fn fractional_accessors_convert_microseconds() {
        assert_eq!(SimTime::from_micros(1_500).as_millis_f64(), 1.5);
        assert_eq!(SimTime::from_millis(2_500).as_secs_f64(), 2.5);
        assert_eq!(SimDuration::from_micros(250).as_millis_f64(), 0.25);
        assert_eq!(SimDuration::from_micros(2_500_000).as_secs_f64(), 2.5);
    }

    #[test]
    #[should_panic(expected = "finite")]
    fn non_finite_duration_panics() {
        let _ = SimDuration::from_millis_f64(f64::NAN);
    }

    #[test]
    fn in_place_and_scalar_operators_agree_with_microseconds() {
        let mut t = SimTime::ZERO;
        t += SimDuration::from_millis(3);
        assert_eq!(
            t - SimDuration::from_micros(500),
            SimTime::from_micros(2_500)
        );
        let mut d = SimDuration::from_micros(10);
        d -= SimDuration::from_micros(4);
        assert_eq!(d, SimDuration::from_micros(6));
        // Division truncates to whole microseconds.
        assert_eq!(
            SimDuration::from_micros(10) / 3,
            SimDuration::from_micros(3)
        );
        assert_eq!(SimDuration::from_micros(2) + d, SimDuration::from_micros(8));
    }

    #[test]
    fn defaults_are_zero_and_ordering_follows_microseconds() {
        assert_eq!(SimTime::default(), SimTime::ZERO);
        assert_eq!(SimDuration::default(), SimDuration::ZERO);
        assert!(SimTime::from_micros(999) < SimTime::from_millis(1));
        assert!(SimDuration::from_secs(1) > SimDuration::from_millis(999));
    }

    proptest! {
        #[test]
        fn prop_add_then_sub_is_identity(base in 0u64..1_000_000_000, delta in 0u64..1_000_000) {
            let t = SimTime::from_micros(base);
            let d = SimDuration::from_micros(delta);
            prop_assert_eq!((t + d) - d, t);
            prop_assert_eq!(((t + d) - t).as_micros(), delta);
        }

        #[test]
        fn prop_scaling_matches_repeated_addition(us in 0u64..10_000, k in 0u64..100) {
            let d = SimDuration::from_micros(us);
            let mut acc = SimDuration::ZERO;
            for _ in 0..k {
                acc += d;
            }
            prop_assert_eq!(acc, d * k);
        }
    }
}

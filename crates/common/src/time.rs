//! Simulated time.
//!
//! All `dynplat` simulations run on a single logical clock with nanosecond
//! resolution. [`SimTime`] is a point on that clock, [`SimDuration`] a span
//! between two points. Both are thin `u64` newtypes (C-NEWTYPE): cheap to
//! copy, totally ordered, and impossible to confuse with byte counts or
//! priorities.
//!
//! # Examples
//!
//! ```
//! use dynplat_common::time::{SimDuration, SimTime};
//!
//! let period = SimDuration::from_millis(10);
//! let start = SimTime::ZERO;
//! let third_activation = start + period * 3;
//! assert_eq!(third_activation.as_millis(), 30);
//! assert!(third_activation > start);
//! ```

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Rem, Sub, SubAssign};

/// A point in simulated time, measured in nanoseconds since simulation start.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SimTime(u64);

/// A span of simulated time in nanoseconds.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SimDuration(u64);

impl SimTime {
    /// The origin of simulated time.
    pub const ZERO: SimTime = SimTime(0);
    /// The largest representable instant; used as an "infinite" horizon.
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Creates a time from raw nanoseconds.
    pub const fn from_nanos(ns: u64) -> Self {
        SimTime(ns)
    }

    /// Creates a time from microseconds.
    pub const fn from_micros(us: u64) -> Self {
        SimTime(us * 1_000)
    }

    /// Creates a time from milliseconds.
    pub const fn from_millis(ms: u64) -> Self {
        SimTime(ms * 1_000_000)
    }

    /// Creates a time from whole seconds.
    pub const fn from_secs(s: u64) -> Self {
        SimTime(s * 1_000_000_000)
    }

    /// Nanoseconds since simulation start.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Milliseconds since simulation start (truncating).
    pub const fn as_millis(self) -> u64 {
        self.0 / 1_000_000
    }

    /// Seconds since simulation start as a float.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// The duration elapsed since `earlier`, saturating at zero if `earlier`
    /// is in the future.
    pub fn saturating_since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }
}

impl SimDuration {
    /// The zero-length duration.
    pub const ZERO: SimDuration = SimDuration(0);
    /// The largest representable duration.
    pub const MAX: SimDuration = SimDuration(u64::MAX);

    /// Creates a duration from raw nanoseconds.
    pub const fn from_nanos(ns: u64) -> Self {
        SimDuration(ns)
    }

    /// Creates a duration from microseconds.
    pub const fn from_micros(us: u64) -> Self {
        SimDuration(us * 1_000)
    }

    /// Creates a duration from milliseconds.
    pub const fn from_millis(ms: u64) -> Self {
        SimDuration(ms * 1_000_000)
    }

    /// Creates a duration from whole seconds.
    pub const fn from_secs(s: u64) -> Self {
        SimDuration(s * 1_000_000_000)
    }

    /// Creates a duration from fractional seconds, rounding to nanoseconds.
    ///
    /// # Panics
    ///
    /// Panics if `secs` is negative or not finite.
    pub fn from_secs_f64(secs: f64) -> Self {
        assert!(
            secs.is_finite() && secs >= 0.0,
            "seconds must be finite and non-negative"
        );
        SimDuration((secs * 1e9).round() as u64)
    }

    /// Raw nanoseconds.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Microseconds (truncating).
    pub const fn as_micros(self) -> u64 {
        self.0 / 1_000
    }

    /// Milliseconds (truncating).
    pub const fn as_millis(self) -> u64 {
        self.0 / 1_000_000
    }

    /// Seconds as a float.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// `true` if this duration is zero.
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Saturating subtraction.
    pub fn saturating_sub(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(other.0))
    }

    /// Multiplies by a float factor, rounding to nanoseconds.
    ///
    /// # Panics
    ///
    /// Panics if `factor` is negative or not finite.
    pub fn mul_f64(self, factor: f64) -> SimDuration {
        assert!(
            factor.is_finite() && factor >= 0.0,
            "factor must be finite and non-negative"
        );
        SimDuration((self.0 as f64 * factor).round() as u64)
    }

    /// The least common multiple of two durations — the hyperperiod of two
    /// periodic activities.
    ///
    /// # Panics
    ///
    /// Panics if either duration is zero.
    pub fn lcm(self, other: SimDuration) -> SimDuration {
        assert!(self.0 > 0 && other.0 > 0, "lcm of zero duration");
        SimDuration(self.0 / gcd(self.0, other.0) * other.0)
    }
}

const fn gcd(a: u64, b: u64) -> u64 {
    if b == 0 {
        a
    } else {
        gcd(b, a % b)
    }
}

/// Hyperperiod (least common multiple) of a set of periods.
///
/// Returns [`SimDuration::ZERO`] for an empty iterator.
///
/// # Panics
///
/// Panics if any period is zero.
///
/// # Examples
///
/// ```
/// use dynplat_common::time::{hyperperiod, SimDuration};
///
/// let h = hyperperiod([SimDuration::from_millis(4), SimDuration::from_millis(6)]);
/// assert_eq!(h, SimDuration::from_millis(12));
/// ```
pub fn hyperperiod<I: IntoIterator<Item = SimDuration>>(periods: I) -> SimDuration {
    periods.into_iter().fold(SimDuration::ZERO, |acc, p| {
        if acc.is_zero() {
            p
        } else {
            acc.lcm(p)
        }
    })
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

impl Div<SimDuration> for SimDuration {
    type Output = u64;
    fn div(self, rhs: SimDuration) -> u64 {
        self.0 / rhs.0
    }
}

impl Rem<SimDuration> for SimDuration {
    type Output = SimDuration;
    fn rem(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0 % rhs.0)
    }
}

impl Rem<SimDuration> for SimTime {
    type Output = SimDuration;
    fn rem(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0 % rhs.0)
    }
}

impl Sum for SimDuration {
    fn sum<I: Iterator<Item = SimDuration>>(iter: I) -> SimDuration {
        iter.fold(SimDuration::ZERO, |a, b| a + b)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", SimDuration(self.0))
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let ns = self.0;
        if ns == 0 {
            write!(f, "0s")
        } else if ns.is_multiple_of(1_000_000_000) {
            write!(f, "{}s", ns / 1_000_000_000)
        } else if ns.is_multiple_of(1_000_000) {
            write!(f, "{}ms", ns / 1_000_000)
        } else if ns.is_multiple_of(1_000) {
            write!(f, "{}us", ns / 1_000)
        } else {
            write!(f, "{ns}ns")
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_conversion() {
        assert_eq!(SimTime::from_millis(3).as_nanos(), 3_000_000);
        assert_eq!(SimTime::from_secs(2).as_millis(), 2_000);
        assert_eq!(SimDuration::from_micros(5).as_nanos(), 5_000);
        assert_eq!(SimDuration::from_secs_f64(0.5).as_millis(), 500);
    }

    #[test]
    fn arithmetic() {
        let t = SimTime::from_millis(10) + SimDuration::from_millis(5);
        assert_eq!(t.as_millis(), 15);
        assert_eq!(t - SimTime::from_millis(10), SimDuration::from_millis(5));
        assert_eq!(
            SimDuration::from_millis(4) * 3,
            SimDuration::from_millis(12)
        );
        assert_eq!(SimDuration::from_millis(9) / 3, SimDuration::from_millis(3));
        assert_eq!(SimDuration::from_millis(9) / SimDuration::from_millis(4), 2);
    }

    #[test]
    fn saturating_since_handles_future_reference() {
        let a = SimTime::from_millis(1);
        let b = SimTime::from_millis(2);
        assert_eq!(a.saturating_since(b), SimDuration::ZERO);
        assert_eq!(b.saturating_since(a), SimDuration::from_millis(1));
    }

    #[test]
    fn hyperperiod_of_set() {
        let h = hyperperiod([
            SimDuration::from_millis(10),
            SimDuration::from_millis(4),
            SimDuration::from_millis(5),
        ]);
        assert_eq!(h, SimDuration::from_millis(20));
        assert_eq!(hyperperiod([]), SimDuration::ZERO);
    }

    #[test]
    fn display_picks_coarsest_unit() {
        assert_eq!(SimDuration::from_secs(3).to_string(), "3s");
        assert_eq!(SimDuration::from_millis(1500).to_string(), "1500ms");
        assert_eq!(SimDuration::from_nanos(12).to_string(), "12ns");
        assert_eq!(SimDuration::ZERO.to_string(), "0s");
    }

    #[test]
    fn ordering() {
        assert!(SimTime::from_millis(1) < SimTime::from_millis(2));
        assert!(SimDuration::from_micros(999) < SimDuration::from_millis(1));
    }
}

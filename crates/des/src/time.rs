//! Simulated time.
//!
//! [`SimTime`] is a thin wrapper around an `f64` microsecond count. The
//! microsecond is the natural unit at this layer: 802.11 interframe spaces
//! are tens of µs, frame airtimes are hundreds, and contention periods are
//! thousands, so double precision keeps exact integer arithmetic far beyond
//! any experiment horizon (2^53 µs ≈ 285 years).
//!
//! `SimTime` implements total ordering via [`f64::total_cmp`]; constructors
//! (including the arithmetic operators) reject NaN and normalise `-0.0` to
//! `+0.0`, so every value participates in an order consistent with `==` —
//! under `total_cmp` a raw `-0.0` would compare below [`SimTime::ZERO`]
//! while testing equal to it. All arithmetic is plain `f64` arithmetic —
//! determinism of the simulation does not rely on time values being exactly
//! representable, only on the arithmetic being the same in every run, which
//! IEEE-754 guarantees.

use std::cmp::Ordering;
use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// A point in (or span of) simulated time, in microseconds.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SimTime(f64);

impl SimTime {
    /// The origin of simulated time.
    pub const ZERO: SimTime = SimTime(0.0);

    /// From microseconds.
    pub fn from_micros(us: f64) -> Self {
        assert!(!us.is_nan(), "SimTime cannot be NaN");
        // +0.0 is the identity for everything except -0.0, which it
        // normalises to +0.0 (an exponential draw of exactly 0 would
        // otherwise produce a gap ordering below ZERO).
        SimTime(us + 0.0)
    }

    /// From milliseconds.
    pub fn from_millis(ms: f64) -> Self {
        Self::from_micros(ms * 1e3)
    }

    /// From seconds.
    pub(crate) fn from_secs(s: f64) -> Self {
        Self::from_micros(s * 1e6)
    }

    /// As microseconds.
    pub fn micros(self) -> f64 {
        self.0
    }

    /// As milliseconds.
    pub(crate) fn millis(self) -> f64 {
        self.0 * 1e-3
    }

    /// As seconds.
    pub(crate) fn secs(self) -> f64 {
        self.0 * 1e-6
    }
}

impl Eq for SimTime {}

impl Ord for SimTime {
    fn cmp(&self, other: &Self) -> Ordering {
        self.0.total_cmp(&other.0)
    }
}

impl PartialOrd for SimTime {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Add for SimTime {
    type Output = SimTime;
    fn add(self, rhs: SimTime) -> SimTime {
        SimTime::from_micros(self.0 + rhs.0)
    }
}

impl AddAssign for SimTime {
    fn add_assign(&mut self, rhs: SimTime) {
        *self = *self + rhs;
    }
}

impl Sub for SimTime {
    type Output = SimTime;
    fn sub(self, rhs: SimTime) -> SimTime {
        SimTime::from_micros(self.0 - rhs.0)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1e6 {
            write!(f, "{:.3}s", self.secs())
        } else if self.0 >= 1e3 {
            write!(f, "{:.3}ms", self.millis())
        } else {
            write!(f, "{:.1}us", self.0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_roundtrip() {
        assert_eq!(SimTime::from_millis(1.5).micros(), 1500.0);
        assert_eq!(SimTime::from_secs(2.0).millis(), 2000.0);
        assert_eq!(SimTime::ZERO.micros(), 0.0);
    }

    #[test]
    fn ordering_and_arithmetic() {
        let a = SimTime::from_micros(10.0);
        let b = SimTime::from_micros(20.0);
        assert!(a < b);
        assert_eq!(a + a, b);
        assert_eq!(b - a, a);
    }

    #[test]
    #[should_panic(expected = "NaN")]
    fn nan_rejected() {
        let _ = SimTime::from_micros(f64::NAN);
    }

    #[test]
    #[should_panic(expected = "NaN")]
    fn nan_from_arithmetic_rejected() {
        let inf = SimTime::from_micros(f64::INFINITY);
        let _ = inf - inf;
    }

    #[test]
    fn negative_zero_normalises_to_zero() {
        let nz = SimTime::from_micros(-0.0);
        assert_eq!(nz.cmp(&SimTime::ZERO), Ordering::Equal);
        assert!(nz >= SimTime::ZERO);
        let z = SimTime::from_micros(5.0) - SimTime::from_micros(5.0);
        assert_eq!(z.cmp(&SimTime::ZERO), Ordering::Equal);
    }

    #[test]
    fn display_scales_units() {
        assert_eq!(format!("{}", SimTime::from_micros(12.0)), "12.0us");
        assert_eq!(format!("{}", SimTime::from_micros(2500.0)), "2.500ms");
        assert_eq!(format!("{}", SimTime::from_secs(3.0)), "3.000s");
    }
}

//! Virtual time for the discrete-event simulation.
//!
//! The kernel measures time in integer **microseconds** from the start of the
//! run. Integer time makes event ordering exact and keeps runs reproducible:
//! there is no floating-point drift, and two events scheduled for the same
//! instant are ordered by their scheduling sequence number.
//!
//! Two newtypes are provided: [`SimTime`] is an absolute instant and
//! [`SimDuration`] is a span between instants. Mixing them up is a compile
//! error, which catches a whole family of scheduling bugs statically.

use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, Sub};

/// An absolute instant of virtual time, in microseconds since the start of
/// the simulation run.
///
/// # Examples
///
/// ```
/// use riot_sim::{SimDuration, SimTime};
///
/// let t = SimTime::ZERO + SimDuration::from_millis(250);
/// assert_eq!(t.as_micros(), 250_000);
/// assert_eq!(t - SimTime::ZERO, SimDuration::from_millis(250));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

/// A span of virtual time, in microseconds.
///
/// # Examples
///
/// ```
/// use riot_sim::SimDuration;
///
/// let d = SimDuration::from_secs(2) + SimDuration::from_millis(500);
/// assert_eq!(d.as_millis_f64(), 2500.0);
/// assert_eq!(d * 2, SimDuration::from_secs(5));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(u64);

impl SimTime {
    /// The start of the simulation run.
    pub const ZERO: SimTime = SimTime(0);
    /// The largest representable instant; used as an "infinitely far" bound.
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Creates an instant from microseconds since the start of the run.
    pub const fn from_micros(us: u64) -> Self {
        SimTime(us)
    }

    /// Creates an instant from milliseconds since the start of the run.
    pub const fn from_millis(ms: u64) -> Self {
        SimTime(ms * 1_000)
    }

    /// Creates an instant from seconds since the start of the run.
    pub const fn from_secs(s: u64) -> Self {
        SimTime(s * 1_000_000)
    }

    /// Microseconds since the start of the run.
    pub const fn as_micros(self) -> u64 {
        self.0
    }

    /// Milliseconds since the start of the run, as a float.
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / 1_000.0
    }

    /// Seconds since the start of the run, as a float.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1_000_000.0
    }

    /// The duration elapsed since `earlier`, saturating to zero if `earlier`
    /// is in the future.
    pub fn saturating_since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }

    /// Adds a duration, saturating at [`SimTime::MAX`].
    pub fn saturating_add(self, d: SimDuration) -> SimTime {
        SimTime(self.0.saturating_add(d.0))
    }
}

impl SimDuration {
    /// The zero-length duration.
    pub const ZERO: SimDuration = SimDuration(0);
    /// The largest representable duration.
    pub const MAX: SimDuration = SimDuration(u64::MAX);

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

    /// Creates a duration from seconds; `None` when that many seconds do
    /// not fit the clock (more than [`SimTime::MAX`] holds).
    pub const fn checked_from_secs(s: u64) -> Option<Self> {
        match s.checked_mul(1_000_000) {
            Some(us) => Some(SimDuration(us)),
            None => None,
        }
    }

    /// Creates a duration from a float number of seconds, rounding to the
    /// nearest microsecond and saturating below zero.
    pub fn from_secs_f64(s: f64) -> Self {
        if s <= 0.0 {
            return SimDuration::ZERO;
        }
        SimDuration((s * 1_000_000.0).round() as u64)
    }

    /// Microseconds in this duration.
    pub const fn as_micros(self) -> u64 {
        self.0
    }

    /// Milliseconds in this duration, as a float.
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / 1_000.0
    }

    /// Seconds in this duration, as a float.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1_000_000.0
    }

    /// Multiplies by a float factor, rounding to the nearest microsecond.
    pub fn mul_f64(self, factor: f64) -> SimDuration {
        SimDuration::from_secs_f64(self.as_secs_f64() * factor)
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

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;
    fn sub(self, rhs: SimTime) -> SimDuration {
        SimDuration(self.0 - rhs.0)
    }
}

impl Sub<SimDuration> for SimTime {
    type Output = SimTime;
    fn sub(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0 - rhs.0)
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
        write!(f, "{:.6}s", self.as_secs_f64())
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

impl From<u64> for SimDuration {
    fn from(us: u64) -> Self {
        SimDuration(us)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_round_trip() {
        assert_eq!(SimTime::from_millis(3).as_micros(), 3_000);
        assert_eq!(SimTime::from_secs(2).as_millis_f64(), 2_000.0);
        assert_eq!(SimDuration::from_secs(1), SimDuration::from_millis(1_000));
        assert_eq!(SimDuration::from_secs_f64(0.0015).as_micros(), 1_500);
    }

    #[test]
    fn arithmetic_behaves() {
        let t = SimTime::from_secs(1);
        let d = SimDuration::from_millis(500);
        assert_eq!((t + d).as_micros(), 1_500_000);
        assert_eq!((t + d) - t, d);
        assert_eq!(d * 4, SimDuration::from_secs(2));
        assert_eq!(SimDuration::from_secs(2) / 4, d);
        assert_eq!(d + d, SimDuration::from_secs(1));
        assert_eq!(SimDuration::from_secs(1) - d, d);
    }

    #[test]
    fn saturating_operations() {
        let t = SimTime::from_secs(1);
        assert_eq!(
            SimTime::ZERO.saturating_since(t),
            SimDuration::ZERO,
            "earlier-in-future saturates to zero"
        );
        assert_eq!(t.saturating_since(SimTime::ZERO), SimDuration::from_secs(1));
        assert_eq!(
            SimTime::MAX.saturating_add(SimDuration::from_secs(1)),
            SimTime::MAX
        );
    }

    #[test]
    fn checked_seconds_stop_at_the_last_whole_second_the_clock_holds() {
        let last = u64::MAX / 1_000_000;
        assert_eq!(
            SimDuration::checked_from_secs(last),
            Some(SimDuration::from_secs(last))
        );
        assert_eq!(SimDuration::checked_from_secs(last + 1), None);
        assert_eq!(SimDuration::checked_from_secs(u64::MAX), None);
    }

    #[test]
    fn negative_float_durations_clamp_to_zero() {
        assert_eq!(SimDuration::from_secs_f64(-1.0), SimDuration::ZERO);
    }

    #[test]
    fn display_picks_sensible_units() {
        assert_eq!(SimDuration::from_micros(12).to_string(), "12us");
        assert_eq!(SimDuration::from_millis(12).to_string(), "12.000ms");
        assert_eq!(SimDuration::from_secs(12).to_string(), "12.000s");
        assert_eq!(SimTime::from_millis(1_500).to_string(), "1.500000s");
    }

    #[test]
    fn ordering_is_total() {
        let mut v = vec![
            SimTime::from_secs(3),
            SimTime::ZERO,
            SimTime::from_millis(1),
        ];
        v.sort();
        assert_eq!(
            v,
            vec![
                SimTime::ZERO,
                SimTime::from_millis(1),
                SimTime::from_secs(3)
            ]
        );
    }

    #[test]
    fn mul_f64_scales() {
        assert_eq!(
            SimDuration::from_secs(2).mul_f64(1.5),
            SimDuration::from_secs(3)
        );
        assert_eq!(SimDuration::from_secs(2).mul_f64(0.0), SimDuration::ZERO);
    }
}

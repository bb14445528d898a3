//! Virtual time and clock-frequency arithmetic.
//!
//! All simulated time is kept in integer **picoseconds** so that mixed-clock
//! systems (2 GHz cores, 1 GHz RMC pipelines, DDR4 channels) can be composed
//! without rounding drift. A picosecond granularity supports simulations of
//! up to ~106 days of virtual time in a `u64`, far beyond anything the
//! experiments need.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// A point in (or span of) virtual time, in integer picoseconds.
///
/// `Time` is used both as an absolute timestamp and as a duration; the
/// arithmetic impls (`+`, `-`, scalar `*` / `/`) cover both uses. The zero
/// value is the simulation epoch.
///
/// # Example
///
/// ```
/// use sabre_sim::Time;
///
/// let t = Time::from_ns(35) + Time::from_ns(15);
/// assert_eq!(t.as_ns(), 50.0);
/// assert_eq!(t, Time::from_ps(50_000));
/// ```
#[derive(Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Time(u64);

impl Time {
    /// The simulation epoch (t = 0).
    pub const ZERO: Time = Time(0);
    /// The largest representable time; used as an "unreachable" sentinel.
    pub const MAX: Time = Time(u64::MAX);

    /// Creates a time from integer picoseconds.
    pub const fn from_ps(ps: u64) -> Self {
        Time(ps)
    }

    /// Creates a time from integer nanoseconds.
    pub const fn from_ns(ns: u64) -> Self {
        Time(ns * 1_000)
    }

    /// Creates a time from integer microseconds.
    pub const fn from_us(us: u64) -> Self {
        Time(us * 1_000_000)
    }

    /// Creates a time from a (non-negative, finite) fractional nanosecond
    /// count, rounding to the nearest picosecond, halves away from zero
    /// (exactly `(ns * 1000.0).round()`).
    ///
    /// The rounding is integer work: truncate the picosecond count `ps`
    /// to `whole`, then add one if the fraction `ps - whole` is at least
    /// one half. The subtraction is exact (`whole ≤ ps < whole + 1`, so
    /// the two are within a factor of two, or `whole` is zero), and above
    /// 2⁵² every `f64` is whole. This avoids `f64::round`, a library call
    /// on x86-64 targets without SSE4.1, on every link serialization.
    ///
    /// # Panics
    ///
    /// Panics if `ns` is negative, NaN, or too large for the representation.
    pub fn from_ns_f64(ns: f64) -> Self {
        assert!(ns.is_finite() && ns >= 0.0, "invalid duration: {ns} ns");
        let ps = ns * 1_000.0;
        assert!(ps <= u64::MAX as f64, "duration overflows Time: {ns} ns");
        // `as` saturates: 2^64 itself (which passes the assert) maps to
        // `u64::MAX`, as `round` did, with a zero fraction.
        let whole = ps as u64;
        Time(whole + (ps - whole as f64 >= 0.5) as u64)
    }

    /// Raw picosecond count.
    pub const fn as_ps(self) -> u64 {
        self.0
    }

    /// This time expressed in fractional nanoseconds.
    pub fn as_ns(self) -> f64 {
        self.0 as f64 / 1_000.0
    }

    /// This time expressed in fractional microseconds.
    pub fn as_us(self) -> f64 {
        self.0 as f64 / 1_000_000.0
    }

    /// Saturating subtraction: `self - rhs`, or [`Time::ZERO`] if `rhs`
    /// is later than `self`.
    pub fn saturating_sub(self, rhs: Time) -> Time {
        Time(self.0.saturating_sub(rhs.0))
    }

    /// Checked subtraction, `None` on underflow.
    pub fn checked_sub(self, rhs: Time) -> Option<Time> {
        self.0.checked_sub(rhs.0).map(Time)
    }

    /// The later of `self` and `other`.
    pub fn max(self, other: Time) -> Time {
        Time(self.0.max(other.0))
    }

    /// The earlier of `self` and `other`.
    pub fn min(self, other: Time) -> Time {
        Time(self.0.min(other.0))
    }
}

impl Add for Time {
    type Output = Time;
    fn add(self, rhs: Time) -> Time {
        Time(self.0 + rhs.0)
    }
}

impl AddAssign for Time {
    fn add_assign(&mut self, rhs: Time) {
        self.0 += rhs.0;
    }
}

impl Sub for Time {
    type Output = Time;
    fn sub(self, rhs: Time) -> Time {
        Time(self.0 - rhs.0)
    }
}

impl SubAssign for Time {
    fn sub_assign(&mut self, rhs: Time) {
        self.0 -= rhs.0;
    }
}

impl Mul<u64> for Time {
    type Output = Time;
    fn mul(self, rhs: u64) -> Time {
        Time(self.0 * rhs)
    }
}

impl Div<u64> for Time {
    type Output = Time;
    fn div(self, rhs: u64) -> Time {
        Time(self.0 / rhs)
    }
}

impl Sum for Time {
    fn sum<I: Iterator<Item = Time>>(iter: I) -> Time {
        iter.fold(Time::ZERO, |a, b| a + b)
    }
}

impl fmt::Debug for Time {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}ns", self.as_ns())
    }
}

impl fmt::Display for Time {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1_000_000 {
            write!(f, "{:.3}us", self.as_us())
        } else {
            write!(f, "{:.3}ns", self.as_ns())
        }
    }
}

/// A clock frequency, used to convert cycle counts to [`Time`].
///
/// # Example
///
/// ```
/// use sabre_sim::{Freq, Time};
///
/// let cpu = Freq::ghz(2.0);
/// assert_eq!(cpu.cycles(4), Time::from_ns(2));
/// assert_eq!(cpu.period(), Time::from_ps(500));
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Freq {
    period_ps: u64,
}

impl Freq {
    /// A frequency given in gigahertz.
    ///
    /// # Panics
    ///
    /// Panics if `ghz` is not strictly positive and finite.
    pub fn ghz(ghz: f64) -> Self {
        assert!(ghz.is_finite() && ghz > 0.0, "invalid frequency: {ghz} GHz");
        let period_ps = (1_000.0 / ghz).round() as u64;
        assert!(period_ps > 0, "frequency too high: {ghz} GHz");
        Freq { period_ps }
    }

    /// The clock period.
    pub fn period(self) -> Time {
        Time::from_ps(self.period_ps)
    }

    /// The duration of `n` cycles at this frequency.
    pub fn cycles(self, n: u64) -> Time {
        Time::from_ps(self.period_ps * n)
    }

    /// The duration of a fractional cycle count, rounded to the nearest
    /// picosecond. Used by CPU cost models that charge e.g. 0.5 cycles/byte.
    pub fn cycles_f64(self, n: f64) -> Time {
        Time::from_ns_f64(n * self.period_ps as f64 / 1_000.0)
    }
}

/// Converts a byte count and a bandwidth in GB/s to the serialization time.
///
/// Uses decimal gigabytes (1 GBps = 10^9 bytes/s), matching how the paper
/// quotes link and memory bandwidths.
///
/// # Example
///
/// ```
/// use sabre_sim::time::transfer_time;
/// use sabre_sim::Time;
///
/// // 100 bytes over a 100 GBps link: 1 ns.
/// assert_eq!(transfer_time(100, 100.0), Time::from_ns(1));
/// ```
pub fn transfer_time(bytes: u64, gbps: f64) -> Time {
    assert!(gbps > 0.0, "bandwidth must be positive");
    // bytes / (gbps * 1e9 B/s) seconds = bytes / gbps * 1e-9 s = bytes/gbps ns
    Time::from_ns_f64(bytes as f64 / gbps)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time_constructors_agree() {
        assert_eq!(Time::from_ns(1), Time::from_ps(1_000));
        assert_eq!(Time::from_us(1), Time::from_ns(1_000));
        assert_eq!(Time::from_ns_f64(1.5), Time::from_ps(1_500));
    }

    #[test]
    fn time_arithmetic() {
        let a = Time::from_ns(10);
        let b = Time::from_ns(3);
        assert_eq!(a + b, Time::from_ns(13));
        assert_eq!(a - b, Time::from_ns(7));
        assert_eq!(a * 3, Time::from_ns(30));
        assert_eq!(a / 2, Time::from_ns(5));
        assert_eq!(b.saturating_sub(a), Time::ZERO);
        assert_eq!(a.checked_sub(b), Some(Time::from_ns(7)));
        assert_eq!(b.checked_sub(a), None);
    }

    #[test]
    fn time_min_max_sum() {
        let a = Time::from_ns(10);
        let b = Time::from_ns(3);
        assert_eq!(a.max(b), a);
        assert_eq!(a.min(b), b);
        let total: Time = [a, b, b].into_iter().sum();
        assert_eq!(total, Time::from_ns(16));
    }

    #[test]
    fn freq_cycle_conversions() {
        let rmc = Freq::ghz(1.0);
        assert_eq!(rmc.cycles(3), Time::from_ns(3));
        let cpu = Freq::ghz(2.0);
        assert_eq!(cpu.cycles(3), Time::from_ps(1_500));
        assert_eq!(cpu.cycles_f64(0.5), Time::from_ps(250));
    }

    #[test]
    fn transfer_time_examples() {
        // 64-byte block over 25.6 GBps DDR4 channel: 2.5 ns.
        assert_eq!(transfer_time(64, 25.6), Time::from_ps(2_500));
        // 8 KB over the 100 GBps fabric: 81.92 ns.
        assert_eq!(transfer_time(8192, 100.0), Time::from_ps(81_920));
    }

    #[test]
    fn display_scales_units() {
        assert_eq!(Time::from_ns(5).to_string(), "5.000ns");
        assert_eq!(Time::from_us(2).to_string(), "2.000us");
    }

    #[test]
    #[should_panic(expected = "invalid duration")]
    fn negative_duration_rejected() {
        let _ = Time::from_ns_f64(-1.0);
    }
}

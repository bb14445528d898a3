//! Property test: `Time::from_ns_f64` rounds exactly like `f64::round`.
//!
//! The conversion rounds the picosecond count with integer work (truncate,
//! then add one if the fraction is at least a half). [`oracle`] is the
//! `(ns * 1000.0).round()` formulation it replaced; the two must agree on
//! every finite input across the exponent range, on half-way picosecond
//! counts, at the 2⁶⁴-ps end of the representation, and in which inputs
//! panic and with what message.

use std::panic::{catch_unwind, AssertUnwindSafe};

use proptest::prelude::*;
use sabre_sim::Time;

/// `Time::from_ns_f64` as `f64::round` computes it.
fn oracle(ns: f64) -> Time {
    assert!(ns.is_finite() && ns >= 0.0, "invalid duration: {ns} ns");
    let ps = (ns * 1_000.0).round();
    assert!(ps <= u64::MAX as f64, "duration overflows Time: {ns} ns");
    Time::from_ps(ps as u64)
}

/// The outcome of `f(ns)`: the time, or the panic message.
fn outcome(f: fn(f64) -> Time, ns: f64) -> Result<Time, String> {
    catch_unwind(AssertUnwindSafe(|| f(ns))).map_err(|e| {
        e.downcast_ref::<String>()
            .cloned()
            .or_else(|| e.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_default()
    })
}

/// Asserts the conversion and the oracle agree on `ns` (both panicking
/// alike counts as agreement).
fn assert_agrees(ns: f64) {
    assert_eq!(
        outcome(Time::from_ns_f64, ns),
        outcome(oracle, ns),
        "ns = {ns:e} ({:#x})",
        ns.to_bits()
    );
}

proptest! {
    /// Random finite non-negative inputs, uniform over the exponent (from
    /// subnormals up to 2⁵⁵ ns, past the 2⁶⁴-ps overflow) and the mantissa.
    #[test]
    fn from_ns_f64_matches_round_across_exponents(
        exponent in 0u64..1078,
        mantissa in any::<u64>(),
    ) {
        assert_agrees(f64::from_bits(exponent << 52 | mantissa >> 12));
    }

    /// Picosecond counts that land exactly half-way between two integers,
    /// where round-half-away-from-zero and round-half-even differ.
    #[test]
    fn from_ns_f64_rounds_half_way_counts_up(k in 0u64..(1 << 52), shift in 0u32..52) {
        let k = k >> shift;
        let ns = (k as f64 + 0.5) / 1_000.0;
        prop_assert_eq!(Time::from_ns_f64(ns), oracle(ns), "k = {}", k);
        // Wherever `ns * 1000` reproduces the half exactly, it rounds up.
        if ns * 1_000.0 == k as f64 + 0.5 {
            prop_assert_eq!(Time::from_ns_f64(ns), Time::from_ps(k + 1), "k = {}", k);
        }
    }
}

#[test]
fn half_way_counts_round_away_from_zero() {
    // The largest half-way count below 2^52 that `ns * 1000` reproduces.
    let top = (1..)
        .map(|d| ((1u64 << 52) - d) as f64 + 0.5)
        .find(|ps| ps / 1_000.0 * 1_000.0 == *ps)
        .expect("some count round-trips");
    for ps in [0.5, 1.5, 2.5, 999.5, top] {
        let ns = ps / 1_000.0;
        assert_eq!(ns * 1_000.0, ps, "{ps} must be representable as ns * 1000");
        assert_eq!(Time::from_ns_f64(ns).as_ps(), ps as u64 + 1, "{ps} ps");
        assert_agrees(ns);
    }
    // Just below a half rounds down.
    let below = 0.5f64.next_down();
    assert_eq!(Time::from_ns_f64(below / 1_000.0), oracle(below / 1_000.0));
}

#[test]
fn the_two_to_the_64_ps_boundary_matches() {
    // The largest input whose picosecond count passes the overflow check,
    // and its neighbours on either side.
    let mut ns = u64::MAX as f64 / 1_000.0;
    while ns * 1_000.0 <= u64::MAX as f64 {
        ns = ns.next_up();
    }
    let first_over = ns;
    let last_in = first_over.next_down();
    assert_eq!(Time::from_ns_f64(last_in), Time::from_ps(u64::MAX));
    for ns in [
        last_in.next_down(),
        last_in,
        first_over,
        first_over.next_up(),
    ] {
        assert_agrees(ns);
    }
    assert!(outcome(Time::from_ns_f64, first_over)
        .unwrap_err()
        .starts_with("duration overflows Time"));
    // Above 2^52 ps every f64 is whole: nothing to round.
    let whole = 2f64.powi(60);
    assert_eq!(Time::from_ns_f64(whole / 1_000.0), oracle(whole / 1_000.0));
}

#[test]
fn invalid_inputs_panic_as_before() {
    for ns in [
        -1.0,
        -0.5e-3,
        -f64::MIN_POSITIVE,
        f64::NAN,
        -f64::NAN,
        f64::INFINITY,
        f64::NEG_INFINITY,
        f64::MAX,
    ] {
        let got = outcome(Time::from_ns_f64, ns);
        assert!(got.is_err(), "{ns} must panic");
        assert_eq!(got, outcome(oracle, ns), "{ns}");
    }
    // Negative zero is a valid zero.
    assert_eq!(Time::from_ns_f64(-0.0), Time::ZERO);
    assert_agrees(-0.0);
}

//! Thread-local operation counters for the expensive primitives.
//!
//! The performance contract of the Montgomery subsystem is structural:
//! *zero* long divisions after context setup, and *one* extended-GCD
//! inversion per batch regardless of batch size. Counters make those
//! contracts testable instead of aspirational — the differential
//! proptests snapshot them around hot-path calls and assert the deltas.
//!
//! ## Compiled away in release
//!
//! Counting is live only under `cfg(test)` (this crate's own unit
//! tests) or the `ops-trace` cargo feature (enabled by the dev-builds
//! of dependent crates whose tests assert on the counters). Everywhere
//! else — release builds, benches — the recorders are `#[inline]`
//! empty functions and the readers constant zero, so instrumentation
//! costs literally nothing on the hot path. The public API is
//! identical in both configurations; only tests that assert non-zero
//! deltas need the live configuration.
//!
//! Counters are thread-local so concurrently running tests cannot
//! disturb each other's measurements.

/// Total [`crate::UBig::divrem`] calls on this thread (always 0 when
/// counting is compiled out — see the module docs).
#[inline(always)]
pub fn divrem_calls() -> u64 {
    live::divrem_calls()
}

/// Total [`crate::UBig::modinv`] calls on this thread (always 0 when
/// counting is compiled out — see the module docs).
#[inline(always)]
pub fn modinv_calls() -> u64 {
    live::modinv_calls()
}

/// Total Montgomery multiplications on this thread — scalar CIOS passes,
/// and lane-engine passes once per live lane (always 0 when
/// counting is compiled out — see the module docs).
#[inline(always)]
pub fn mont_mul_calls() -> u64 {
    live::mont_mul_calls()
}

pub(crate) use live::{record_divrem, record_modinv, record_mont_mul, record_mont_muls};

#[cfg(any(test, feature = "ops-trace"))]
mod live {
    use std::cell::Cell;

    thread_local! {
        static DIVREM: Cell<u64> = const { Cell::new(0) };
        static MODINV: Cell<u64> = const { Cell::new(0) };
        static MONT_MUL: Cell<u64> = const { Cell::new(0) };
    }

    pub(crate) fn divrem_calls() -> u64 {
        DIVREM.with(|c| c.get())
    }

    pub(crate) fn modinv_calls() -> u64 {
        MODINV.with(|c| c.get())
    }

    pub(crate) fn mont_mul_calls() -> u64 {
        MONT_MUL.with(|c| c.get())
    }

    pub(crate) fn record_divrem() {
        DIVREM.with(|c| c.set(c.get() + 1));
    }

    pub(crate) fn record_modinv() {
        MODINV.with(|c| c.set(c.get() + 1));
    }

    pub(crate) fn record_mont_mul() {
        record_mont_muls(1);
    }

    /// `count` Montgomery steps at once: one pass of the lane engine
    /// is one step in each live lane.
    pub(crate) fn record_mont_muls(count: u64) {
        MONT_MUL.with(|c| c.set(c.get() + count));
    }
}

#[cfg(not(any(test, feature = "ops-trace")))]
mod live {
    #[inline(always)]
    pub(crate) fn divrem_calls() -> u64 {
        0
    }

    #[inline(always)]
    pub(crate) fn modinv_calls() -> u64 {
        0
    }

    #[inline(always)]
    pub(crate) fn mont_mul_calls() -> u64 {
        0
    }

    #[inline(always)]
    pub(crate) fn record_divrem() {}

    #[inline(always)]
    pub(crate) fn record_modinv() {}

    #[inline(always)]
    pub(crate) fn record_mont_mul() {}

    #[inline(always)]
    pub(crate) fn record_mont_muls(_count: u64) {}
}

#[cfg(test)]
mod tests {
    use crate::UBig;

    #[test]
    fn counters_track_calls() {
        let a = UBig::from_u64(1_000_000);
        let b = UBig::from_u64(997);
        let before = super::divrem_calls();
        let _ = a.divrem(&b);
        assert_eq!(super::divrem_calls(), before + 1);

        let before = super::modinv_calls();
        let _ = b.modinv(&a);
        assert_eq!(super::modinv_calls(), before + 1);
    }
}

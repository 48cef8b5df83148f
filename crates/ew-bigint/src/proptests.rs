//! Property-based tests for the big-integer substrate: ring axioms,
//! division invariants, shift/serialization round-trips, modular
//! arithmetic identities, and the differential properties pinning the
//! Montgomery fast path to the generic reference ladder.

use crate::lanes::{self, LANES};
use crate::montgomery::MontgomeryCtx;
use crate::random::{random_below, random_bits, random_odd_bits};
use crate::ubig::UBig;
use crate::{ext_gcd, ops_trace};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Strategy producing UBig values of up to ~256 bits from raw bytes.
fn ubig() -> impl Strategy<Value = UBig> {
    proptest::collection::vec(any::<u8>(), 0..32).prop_map(|bytes| UBig::from_bytes_be(&bytes))
}

/// Strategy producing non-zero UBig values.
fn ubig_nonzero() -> impl Strategy<Value = UBig> {
    ubig().prop_map(|v| if v.is_zero() { UBig::one() } else { v })
}

/// Strategy producing odd moduli `>= 3` (the Montgomery domain).
fn ubig_odd_modulus() -> impl Strategy<Value = UBig> {
    ubig().prop_map(|v| {
        let mut v = v;
        v.set_bit(0);
        if v.is_one() {
            UBig::from_u64(3)
        } else {
            v
        }
    })
}

proptest! {
    #[test]
    fn add_commutes(a in ubig(), b in ubig()) {
        prop_assert_eq!(a.add_ref(&b), b.add_ref(&a));
    }

    #[test]
    fn add_associates(a in ubig(), b in ubig(), c in ubig()) {
        prop_assert_eq!(a.add_ref(&b).add_ref(&c), a.add_ref(&b.add_ref(&c)));
    }

    #[test]
    fn mul_commutes(a in ubig(), b in ubig()) {
        prop_assert_eq!(a.mul_ref(&b), b.mul_ref(&a));
    }

    #[test]
    fn mul_distributes_over_add(a in ubig(), b in ubig(), c in ubig()) {
        prop_assert_eq!(
            a.mul_ref(&b.add_ref(&c)),
            a.mul_ref(&b).add_ref(&a.mul_ref(&c))
        );
    }

    #[test]
    fn sub_undoes_add(a in ubig(), b in ubig()) {
        prop_assert_eq!(a.add_ref(&b).sub_ref(&b), a);
    }

    #[test]
    fn divrem_reconstructs(a in ubig(), d in ubig_nonzero()) {
        let (q, r) = a.divrem(&d);
        prop_assert!(r < d);
        prop_assert_eq!(q.mul_ref(&d).add_ref(&r), a);
    }

    #[test]
    fn div_by_self_is_one(a in ubig_nonzero()) {
        let (q, r) = a.divrem(&a);
        prop_assert_eq!(q, UBig::one());
        prop_assert!(r.is_zero());
    }

    #[test]
    fn shift_roundtrip(a in ubig(), bits in 0usize..200) {
        prop_assert_eq!(a.shl_bits(bits).shr_bits(bits), a);
    }

    #[test]
    fn shl_is_mul_by_power_of_two(a in ubig(), bits in 0usize..100) {
        let pow = &UBig::one() << bits;
        prop_assert_eq!(a.shl_bits(bits), a.mul_ref(&pow));
    }

    #[test]
    fn bytes_roundtrip(a in ubig()) {
        prop_assert_eq!(UBig::from_bytes_be(&a.to_bytes_be()), a);
    }

    #[test]
    fn hex_roundtrip(a in ubig()) {
        prop_assert_eq!(UBig::from_hex(&a.to_hex()).unwrap(), a);
    }

    #[test]
    fn decimal_roundtrip(a in ubig()) {
        prop_assert_eq!(UBig::from_dec(&format!("{a}")).unwrap(), a);
    }

    #[test]
    fn gcd_divides_both(a in ubig_nonzero(), b in ubig_nonzero()) {
        let g = a.gcd(&b);
        prop_assert!(a.rem_ref(&g).is_zero());
        prop_assert!(b.rem_ref(&g).is_zero());
    }

    #[test]
    fn modpow_multiplicative(a in ubig(), b in ubig(), m in ubig_nonzero()) {
        // (a*b)^2 == a^2 * b^2 (mod m)
        let two = UBig::two();
        let lhs = a.mul_ref(&b).modpow(&two, &m);
        let rhs = a.modpow(&two, &m).mulmod(&b.modpow(&two, &m), &m);
        prop_assert_eq!(lhs, rhs);
    }

    #[test]
    fn modpow_exponent_additive(a in ubig(), m in ubig_nonzero()) {
        // a^(3+4) == a^3 * a^4 (mod m)
        let lhs = a.modpow(&UBig::from_u64(7), &m);
        let rhs = a
            .modpow(&UBig::from_u64(3), &m)
            .mulmod(&a.modpow(&UBig::from_u64(4), &m), &m);
        prop_assert_eq!(lhs, rhs);
    }

    #[test]
    fn modinv_is_inverse(a in ubig_nonzero(), m in ubig_nonzero()) {
        if let Some(inv) = a.modinv(&m) {
            if !m.is_one() {
                prop_assert_eq!(a.mulmod(&inv, &m), UBig::one());
            }
        }
    }

    // ---- Montgomery differential properties ------------------------

    #[test]
    fn montgomery_modpow_equals_generic_ladder(
        base in ubig(),
        exp in ubig(),
        m in ubig_odd_modulus(),
    ) {
        // Bases both below and above m (ubig() is unconstrained), every
        // exponent, every odd modulus: the dispatched fast path, the
        // sliding-window context path, the 4-bit fixed-window reference
        // and the generic ladder must all agree bit for bit.
        let reference = base.modpow_generic(&exp, &m);
        prop_assert_eq!(base.modpow(&exp, &m), reference.clone());
        let ctx = MontgomeryCtx::new(&m);
        prop_assert_eq!(ctx.modpow(&base, &exp), reference.clone());
        prop_assert_eq!(ctx.modpow_fixed_window(&base, &exp), reference);
    }

    #[test]
    fn modpow_into_scratch_reuse_is_transparent(
        pairs in proptest::collection::vec((ubig(), ubig()), 1..5),
        m in ubig_odd_modulus(),
    ) {
        // One scratch arena and one output buffer across a mixed bag of
        // (base, exp) shapes — including base >= m and exp = 0 — must
        // leave no residue between calls.
        let ctx = MontgomeryCtx::new(&m);
        let mut scratch = crate::MontScratch::new();
        let mut out = UBig::zero();
        for (base, exp) in &pairs {
            ctx.modpow_into(base, exp, &mut scratch, &mut out);
            prop_assert_eq!(&out, &base.modpow_generic(exp, &m));
            let a = base.rem_ref(&m);
            let b = exp.rem_ref(&m);
            ctx.mulmod_into(&a, &b, &mut scratch, &mut out);
            prop_assert_eq!(&out, &a.mulmod(&b, &m));
        }
    }

    #[test]
    fn montgomery_modpow_edge_exponents(base in ubig(), m in ubig_odd_modulus()) {
        // exp = 0 and exp = 1 through the dispatcher.
        prop_assert_eq!(base.modpow(&UBig::zero(), &m), UBig::one());
        prop_assert_eq!(base.modpow(&UBig::one(), &m), base.rem_ref(&m));
    }

    #[test]
    fn modpow_dispatch_even_modulus_falls_back(
        base in ubig(),
        exp in ubig(),
        m in ubig_nonzero(),
    ) {
        // Even moduli (and m = 1) take the generic path; the dispatcher
        // must stay observably identical to the reference either way.
        let m = if m.is_odd() { m.add_ref(&UBig::one()) } else { m };
        prop_assert_eq!(base.modpow(&exp, &m), base.modpow_generic(&exp, &m));
        prop_assert_eq!(base.modpow(&exp, &UBig::one()), UBig::zero());
    }

    #[test]
    fn montgomery_modpow_no_divrem_after_setup(
        base in ubig(),
        exp in ubig(),
        m in ubig_odd_modulus(),
    ) {
        // The performance contract of the acceptance criteria: with the
        // context built and the base already reduced, exponentiation
        // performs zero long divisions.
        let ctx = MontgomeryCtx::new(&m);
        let base = base.rem_ref(&m);
        let before = ops_trace::divrem_calls();
        let got = ctx.modpow(&base, &exp);
        prop_assert_eq!(ops_trace::divrem_calls(), before);
        prop_assert_eq!(got, base.modpow_generic(&exp, &m));
    }

    #[test]
    fn binary_modinv_equals_ext_gcd_inverse(a in ubig_nonzero(), m in ubig_odd_modulus()) {
        // modinv dispatches odd moduli to the division-free binary
        // extended GCD; it must agree with the signed extended Euclid
        // on both existence and value.
        let a = a.rem_ref(&m);
        let binary = a.modinv(&m);
        let reference = if a.is_zero() {
            None
        } else {
            let (g, x, _) = ext_gcd(&a, &m);
            if g.is_one() { Some(x) } else { None }
        };
        prop_assert_eq!(binary, reference);
    }

    #[test]
    fn batch_inv_equals_pointwise_inversion(
        values in proptest::collection::vec(ubig_nonzero(), 0..12),
        m in ubig_odd_modulus(),
    ) {
        let ctx = MontgomeryCtx::new(&m);
        let values: Vec<UBig> = values.iter().map(|v| v.rem_ref(&m)).collect();
        let pointwise: Option<Vec<UBig>> =
            values.iter().map(|v| v.modinv(&m)).collect();
        prop_assert_eq!(ctx.batch_inv(&values), pointwise);
    }

    #[test]
    fn ordering_consistent_with_subtraction(a in ubig(), b in ubig()) {
        if a >= b {
            prop_assert!(a.checked_sub(&b).is_some());
        } else {
            prop_assert!(a.checked_sub(&b).is_none());
        }
    }
}

proptest! {
    // Each case walks every width; the wide ones cost a lane pass per
    // 24 bases, so a handful of cases is the budget.
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn modpow_many_equals_modpow_equals_generic_ladder(seed in any::<u64>()) {
        // Many bases under one exponent: the public entry (with its
        // gates), the lane engine forced on for every chunk, per-base
        // `modpow` and the division-based ladder must agree bit for
        // bit — across one-limb, limb-boundary and protocol widths,
        // batch lengths on both sides of one and two full passes, and
        // exponents that are all squarings, all multiplies, or the
        // subgroup order.
        let mut rng = StdRng::seed_from_u64(seed);
        for bits in [61usize, 64, 65, 521, 1024, 1536, 2048] {
            let m = random_odd_bits(&mut rng, bits);
            let ctx = MontgomeryCtx::new(&m);
            let len = rng.gen_range(0..2 * LANES + 2);
            let bases: Vec<UBig> = (0..len).map(|_| random_below(&mut rng, &m)).collect();
            // The debug profile's intrinsics are calls, not
            // instructions: keep its exponents short.
            let exp_bits = if cfg!(debug_assertions) { bits.min(64) } else { bits };
            let k = rng.gen_range(0..exp_bits);
            let exp = match rng.gen_range(0..4u32) {
                0 => &UBig::one() << k,
                1 => (&UBig::one() << k).sub_ref(&UBig::one()),
                2 => m.sub_ref(&UBig::one()).shr_bits(1 + bits - exp_bits),
                _ => random_bits(&mut rng, exp_bits),
            };
            let want: Vec<UBig> = bases.iter().map(|b| ctx.modpow(b, &exp)).collect();
            prop_assert_eq!(&ctx.modpow_many(&bases, &exp), &want);
            prop_assert_eq!(
                &ctx.modpow_many_with(&bases, &exp, lanes::kernel(), 1),
                &want
            );
            for (base, power) in bases.iter().zip(&want).take(2) {
                prop_assert_eq!(power, &base.modpow_generic(&exp, &m));
            }
        }
    }
}

//! Division and remainder for [`UBig`]: single-limb fast path and Knuth's
//! Algorithm D (TAOCP Vol. 2, §4.3.1) for multi-limb divisors.

use crate::ubig::UBig;
use std::ops::{Div, Rem};

impl UBig {
    /// Quotient and remainder by a machine word.
    ///
    /// # Panics
    /// Panics if `d == 0`.
    pub fn divrem_u64(&self, d: u64) -> (UBig, u64) {
        assert!(d != 0, "division by zero");
        if self.is_zero() {
            return (UBig::zero(), 0);
        }
        let mut q = vec![0u64; self.limbs.len()];
        let mut rem = 0u128;
        for i in (0..self.limbs.len()).rev() {
            let cur = (rem << 64) | self.limbs[i] as u128;
            q[i] = (cur / d as u128) as u64;
            rem = cur % d as u128;
        }
        let mut quot = UBig { limbs: q };
        quot.normalize();
        (quot, rem as u64)
    }

    /// Quotient and remainder: `self = q * d + r`, `0 <= r < d`.
    ///
    /// # Panics
    /// Panics if `d` is zero.
    pub fn divrem(&self, d: &UBig) -> (UBig, UBig) {
        crate::ops_trace::record_divrem();
        assert!(!d.is_zero(), "division by zero");
        if self < d {
            return (UBig::zero(), self.clone());
        }
        if d.limbs.len() == 1 {
            let (q, r) = self.divrem_u64(d.limbs[0]);
            return (q, UBig::from_u64(r));
        }
        knuth_d(self, d)
    }

    /// `self mod m`.
    pub fn rem_ref(&self, m: &UBig) -> UBig {
        self.divrem(m).1
    }

    /// Greatest common divisor (Euclid on top of `divrem`).
    pub fn gcd(&self, other: &UBig) -> UBig {
        let mut a = self.clone();
        let mut b = other.clone();
        while !b.is_zero() {
            let r = a.rem_ref(&b);
            a = b;
            b = r;
        }
        a
    }
}

/// Knuth Algorithm D. Preconditions (checked by the caller `divrem`):
/// `u >= v`, `v` has at least 2 limbs.
fn knuth_d(u: &UBig, v: &UBig) -> (UBig, UBig) {
    // D1: normalize so the top limb of v has its high bit set.
    let shift = v.limbs.last().expect("v has >= 2 limbs").leading_zeros() as usize;
    let un = u.shl_bits(shift);
    let vn = v.shl_bits(shift);
    let n = vn.limbs.len();
    let m = un.limbs.len() - n; // quotient has at most m+1 limbs

    // Working copy of the (normalized) dividend with one extra high limb.
    let mut w = un.limbs.clone();
    w.push(0);

    let v_top = vn.limbs[n - 1];
    let v_next = vn.limbs[n - 2];
    let mut q = vec![0u64; m + 1];

    // D2..D7: main loop, from the most significant quotient digit down.
    for j in (0..=m).rev() {
        // D3: estimate q_hat from the top two dividend limbs.
        let num = ((w[j + n] as u128) << 64) | w[j + n - 1] as u128;
        let mut q_hat = num / v_top as u128;
        let mut r_hat = num % v_top as u128;
        // Correct q_hat down while it is provably too big (at most twice).
        while q_hat >> 64 != 0 || q_hat * v_next as u128 > ((r_hat << 64) | w[j + n - 2] as u128) {
            q_hat -= 1;
            r_hat += v_top as u128;
            if r_hat >> 64 != 0 {
                break;
            }
        }

        // D4: multiply-and-subtract w[j..j+n] -= q_hat * v.
        let mut borrow = 0i128;
        let mut carry = 0u128;
        for i in 0..n {
            let p = q_hat * vn.limbs[i] as u128 + carry;
            carry = p >> 64;
            let sub = w[j + i] as i128 - (p as u64) as i128 + borrow;
            w[j + i] = sub as u64;
            borrow = sub >> 64; // arithmetic shift: 0 or -1
        }
        let sub = w[j + n] as i128 - carry as i128 + borrow;
        w[j + n] = sub as u64;
        borrow = sub >> 64;

        q[j] = q_hat as u64;

        // D6: rare add-back when the estimate was one too large.
        if borrow != 0 {
            q[j] -= 1;
            let mut carry = 0u128;
            for i in 0..n {
                let s = w[j + i] as u128 + vn.limbs[i] as u128 + carry;
                w[j + i] = s as u64;
                carry = s >> 64;
            }
            w[j + n] = w[j + n].wrapping_add(carry as u64);
        }
    }

    let mut quot = UBig { limbs: q };
    quot.normalize();
    // D8: denormalize the remainder.
    let mut rem = UBig {
        limbs: w[..n].to_vec(),
    };
    rem.normalize();
    (quot, rem.shr_bits(shift))
}

impl Div<&UBig> for &UBig {
    type Output = UBig;
    fn div(self, rhs: &UBig) -> UBig {
        self.divrem(rhs).0
    }
}

impl Rem<&UBig> for &UBig {
    type Output = UBig;
    fn rem(self, rhs: &UBig) -> UBig {
        self.rem_ref(rhs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(v: u64) -> UBig {
        UBig::from_u64(v)
    }

    #[test]
    fn divrem_u64_basics() {
        let (q, r) = n(1000).divrem_u64(7);
        assert_eq!((q, r), (n(142), 6));
        let big = UBig::from_hex("ffffffffffffffffffffffffffffffff").unwrap();
        let (q, r) = big.divrem_u64(3);
        assert_eq!(q.mul_u64(3).add_ref(&n(r)), big);
    }

    #[test]
    #[should_panic(expected = "division by zero")]
    fn div_by_zero_panics() {
        let _ = n(5).divrem(&UBig::zero());
    }

    #[test]
    fn small_over_large_is_zero() {
        let (q, r) = n(5).divrem(&(&UBig::one() << 100));
        assert_eq!(q, UBig::zero());
        assert_eq!(r, n(5));
    }

    #[test]
    fn knuth_d_reconstructs() {
        let u = UBig::from_hex("c6a47b3e21f09d8e7a5b4c3d2e1f0a9b8c7d6e5f40312233445566778899aabb")
            .unwrap();
        let v = UBig::from_hex("f123456789abcdef0fedcba987654321").unwrap();
        let (q, r) = u.divrem(&v);
        assert!(r < v);
        assert_eq!(q.mul_ref(&v).add_ref(&r), u);
    }

    #[test]
    fn knuth_d_exercises_add_back_region() {
        // Dividend engineered so q_hat over-estimates: top limbs all ones.
        let u = UBig {
            limbs: vec![0, 0, 0, u64::MAX, u64::MAX, u64::MAX],
        };
        let v = UBig {
            limbs: vec![1, 0, u64::MAX],
        };
        let (q, r) = u.divrem(&v);
        assert!(r < v);
        assert_eq!(q.mul_ref(&v).add_ref(&r), u);
    }

    #[test]
    fn exact_division() {
        let v = UBig::from_hex("abcdef987654321fedcba").unwrap();
        let q0 = UBig::from_hex("1234567890abcdef").unwrap();
        let u = v.mul_ref(&q0);
        let (q, r) = u.divrem(&v);
        assert_eq!(q, q0);
        assert!(r.is_zero());
    }

    #[test]
    fn gcd_known_values() {
        assert_eq!(n(48).gcd(&n(36)), n(12));
        assert_eq!(n(17).gcd(&n(13)), n(1));
        assert_eq!(n(0).gcd(&n(9)), n(9));
        assert_eq!(n(9).gcd(&n(0)), n(9));
    }

    #[test]
    fn operator_forms() {
        assert_eq!(&n(100) / &n(7), n(14));
        assert_eq!(&n(100) % &n(7), n(2));
    }

    #[test]
    fn randomized_reconstruction() {
        // Deterministic pseudo-random cases: q*v + r round-trips.
        let mut x = 0x123456789abcdefu64;
        let mut step = || {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            x
        };
        for ul in 1..8usize {
            for vl in 1..5usize {
                let u = UBig {
                    limbs: (0..ul).map(|_| step()).collect(),
                };
                let mut v = UBig {
                    limbs: (0..vl).map(|_| step()).collect(),
                };
                v.normalize();
                if v.is_zero() {
                    continue;
                }
                let mut un = u.clone();
                un.normalize();
                let (q, r) = un.divrem(&v);
                assert!(r < v, "remainder must be < divisor");
                assert_eq!(q.mul_ref(&v).add_ref(&r), un);
            }
        }
    }
}

#![deny(unsafe_code)]
#![warn(missing_docs)]
//! # ew-bigint — arbitrary-precision unsigned integers
//!
//! A small, dependency-free big-integer library built as the arithmetic
//! substrate for the eyeWnder privacy-preserving protocol reproduction
//! (CoNEXT 2019). The protocol needs:
//!
//! * **RSA key generation** for the oblivious PRF of Jarecki–Liu
//!   (random prime generation, modular inversion),
//! * **blind RSA evaluation** (modular exponentiation, inversion of the
//!   client's blinding factor), and
//! * **Diffie–Hellman agreements** over RFC 3526 MODP groups for the
//!   Kursawe-style additive blinding shares (modular exponentiation over
//!   2048-bit safe-prime groups).
//!
//! The design follows the spirit of the networking guides used for this
//! reproduction: simplicity and robustness over cleverness. Limbs are
//! little-endian `u64`s; multiplication is schoolbook at every size;
//! division is Knuth's Algorithm D. Everything is
//! deterministic and panics only on documented contract violations
//! (e.g. division by zero).
//!
//! ## The Montgomery fast path
//!
//! Modular exponentiation is the protocol's hot loop (RSA blind
//! signatures, MODP Diffie–Hellman over 1024–2048-bit moduli), so for
//! **odd** moduli [`UBig::modpow`] dispatches to a Montgomery-form
//! ladder ([`MontgomeryCtx`]):
//!
//! * **Fused CIOS multiplication** — `a·b·R⁻¹ mod n` with
//!   `R = 2^(64k)` in `2k² + k` word multiplications, *zero* divisions
//!   and a single accumulator pass per operand word (the
//!   multiply-accumulate and reduction loops are fused), versus
//!   multiply-plus-Knuth-division for the generic ladder, which
//!   remains available as [`UBig::modpow_generic`] for even moduli and
//!   differential tests.
//! * **Dedicated squaring** — the `≈4/5` of ladder steps that square
//!   use the triangle trick plus one paired-row reduction sweep:
//!   `≈1.5k²` word multiplications with the sweep's carry chains
//!   interleaved two rows at a time.
//! * **5-bit sliding-window exponentiation** — [`MontgomeryCtx::modpow`]
//!   recodes the exponent once, up front, into windows over *odd*
//!   digits: a 16-entry odd-power table (one squaring + 15 multiplies
//!   to build) and `≈bits/6` window multiplies, ~20% fewer multiplies
//!   than the 4-bit fixed-window ladder (kept, test-only, as the
//!   differential reference).
//! * **Zero-allocation steady state** — every hot operation works out
//!   of a [`MontScratch`] arena (explicit via `modpow_into` /
//!   `mulmod_into`, or the persistent per-thread arena behind the
//!   convenience calls); buffers grow monotonically, so steady-state
//!   exponentiation allocates nothing but results (pinned by a
//!   counting-allocator test).
//! * **Montgomery-domain pipelines** — [`MontElem`] values stay in
//!   form across chained operations (`to_mont`, `modpow_mont`), and
//!   [`MontgomeryCtx::mont_mul_mixed`] fuses a plain×Montgomery
//!   product with the domain exit into one CIOS pass (the OPRF
//!   unblinding and RSA-CRT Garner multiplies).
//! * **Many bases, one exponent** — [`MontgomeryCtx::modpow_many`]
//!   raises a whole batch to one exponent (DH enrolment against a
//!   directory, the OPRF server's CRT halves): the exponent is recoded
//!   once and, on AVX-512 IFMA, 24 bases share every Montgomery step
//!   in vector lanes (radix-2⁵² limbs through `vpmadd52luq` /
//!   `vpmadd52huq`, no per-step subtraction, one carry sweep per
//!   multiply) at 0.06–0.14 × the scalar loop's time per base.
//!   [`lane_tier`] reports the engine; results are bit-identical to
//!   per-base [`MontgomeryCtx::modpow`].
//! * **Fixed-base tables** — [`FixedBaseTable`] precomputes
//!   `base^(j·16^i)` so a fixed-generator exponentiation (DH keygen)
//!   needs one multiply per non-zero exponent nibble and **no
//!   squarings**: ~`bits/4` CIOS passes instead of `bits` squarings
//!   plus `bits/4` multiplies.
//! * **Batch inversion** — [`MontgomeryCtx::batch_inv`] inverts `n`
//!   elements with one extended GCD (Montgomery's trick), walking the
//!   prefix products wholly in the Montgomery domain (`≈4n` CIOS
//!   passes); the OPRF client blinds a whole batch of URLs with a
//!   single inversion this way.
//! * **Binary extended GCD** — [`UBig::modinv`] for odd moduli runs a
//!   division-free binary inverse; the signed extended Euclid
//!   ([`ext_gcd`]) covers the general case.
//!
//! Contexts precompute `n' = -n⁻¹ mod 2^64` (Newton–Hensel), `R mod n`
//! and `R² mod n` (the latter for both engines' radices) — the only
//! divisions on the whole path, paid once per key/group. The RSA layer (`ew-crypto`) combines this with a CRT
//! split (two half-width exponentiations + Garner) for another ~4×.
//! The [`ops_trace`] thread-local counters make these contracts
//! testable: the proptests assert *zero* `divrem` calls after context
//! setup, *one* `modinv` per blinded batch, and a sliding-window
//! multiply count strictly below the fixed-window ladder's. The
//! counters themselves compile to no-ops unless the `ops-trace`
//! feature (or `cfg(test)`) is active, so release and bench builds pay
//! nothing for them.
//!
//! The crate is `#![deny(unsafe_code)]` with one exception: the call
//! from the lane engine's dispatcher, `lanes::pow_rows`, into its
//! `#[target_feature]` IFMA kernel, directly under the
//! `is_x86_feature_detected!` that justifies it. The kernel itself is
//! safe Rust: its intrinsics are safe calls inside `#[target_feature]`
//! fns, and it reads and writes rows without raw pointers.
//!
//! This crate is **not** constant-time and must not be used to protect
//! real-world secrets; it exists to make the reproduced protocol fully
//! executable and measurable on one machine.
//!
//! ## Quick example
//!
//! ```
//! use ew_bigint::UBig;
//!
//! let p = UBig::from_u64(101);
//! let g = UBig::from_u64(5);
//! // 5^100 mod 101 == 1 by Fermat's little theorem.
//! assert_eq!(g.modpow(&UBig::from_u64(100), &p), UBig::one());
//! ```

mod arith;
mod div;
mod lanes;
mod modular;
mod montgomery;
pub mod ops_trace;
mod prime;
mod random;
mod ubig;

pub use lanes::lane_tier;
pub use modular::ext_gcd;
pub use montgomery::{FixedBaseTable, MontElem, MontScratch, MontgomeryCtx};
pub use prime::{gen_prime, gen_safe_prime, is_probable_prime, MillerRabinConfig};
pub use random::{random_below, random_bits, random_odd_bits, random_range};
pub use ubig::{ParseUBigError, UBig};

#[cfg(test)]
mod proptests;

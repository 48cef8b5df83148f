#![deny(unsafe_code)]
#![warn(missing_docs)]
//! # ew-crypto — cryptographic substrate for the eyeWnder reproduction
//!
//! Implements, from scratch, every cryptographic primitive the paper's
//! privacy-preserving aggregation protocol (§6 of Iordanou et al.,
//! CoNEXT 2019) relies on:
//!
//! * [`sha256`] — SHA-256 (FIPS 180-4) and [`hmac`] — HMAC-SHA256, the
//!   hash backbone for blinding stream keys and hash-to-group. Every
//!   compression runs on the CPU's SHA extensions where it has them and
//!   on the scalar loop elsewhere ([`sha256::sha256_tier`] says which).
//! * [`keystream`] — the AES-128 counter-mode keystream (FIPS 197, NIST
//!   SP 800-38A) that expands each blinding stream key, on the CPU's AES
//!   instructions where it has them, added straight into the cells. A
//!   128-bit key meets the crate's 128-bit strength target, which the
//!   MODP-2048 secret under it (≈ 112 bits) already caps.
//! * [`group`] — multiplicative groups modulo a safe prime, including
//!   the RFC 3526 MODP-2048 group the deployment-scale protocol would
//!   use and small generated groups for fast tests.
//! * [`dh`] — Diffie–Hellman key pairs over those groups, published via a
//!   [`directory::KeyDirectory`] ("public bulletin board" in the paper).
//! * [`blinding`] — the Kursawe et al. (PETS'11) construction of additive
//!   random shares of zero: user *i* blinds cell *m* at round *s* with
//!   `b_i[m] = Σ_{j≠i} H(y_j^{x_i} || m || s) · (-1)^{i>j}` so that
//!   `Σ_i b_i[m] = 0` — the server learns only the aggregate.
//! * [`rsa`] — RSA key generation on top of `ew-bigint` primes.
//! * [`oprf`] — the RSA-based *oblivious PRF* of Jarecki–Liu (TCC'09):
//!   `F(k, x) = G(H(x)^d mod N)`; the client blinds `H(x)` with `r^e`,
//!   the server raises to `d`, and the client unblinds with `r^{-1}` —
//!   the server never sees the ad URL `x`, the client never learns `d`.
//!
//! All primitives are deterministic given a seeded RNG, so the
//! system-level tests and experiment harness are fully reproducible.
//!
//! **Security disclaimer:** none of this code is constant-time or audited;
//! it exists so that the reproduced system is executable and measurable,
//! not to protect real secrets.

pub mod blinding;
pub mod dh;
pub mod directory;
pub mod group;
pub mod hmac;
pub mod keystream;
pub mod oprf;
pub mod rsa;
pub mod sha256;

#[cfg(test)]
mod proptests;

pub use blinding::{BlindingGenerator, BlindingParams};
pub use dh::DhKeyPair;
pub use directory::KeyDirectory;
pub use group::ModpGroup;
pub use hmac::HmacKey;
pub use oprf::{OprfClient, OprfServerKey, OPRF_OUTPUT_LEN};
pub use rsa::RsaKeyPair;
pub use sha256::Sha256;

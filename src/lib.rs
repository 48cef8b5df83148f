#![forbid(unsafe_code)]
#![warn(missing_docs)]
//! # eyewnder — crowdsourced, privacy-preserving detection of targeted ads
//!
//! A full reproduction of *"Beyond content analysis: Detecting targeted
//! ads via distributed counting"* (Iordanou et al., CoNEXT 2019) as a
//! Rust workspace. This facade crate re-exports the public API of every
//! layer; the layers themselves are independent crates:
//!
//! * [`bigint`] (`ew-bigint`) — arbitrary-precision arithmetic.
//! * [`crypto`] (`ew-crypto`) — SHA-256/HMAC, MODP Diffie–Hellman,
//!   Kursawe blinding shares, RSA and the Jarecki–Liu oblivious PRF.
//! * [`sketch`] (`ew-sketch`) — count-min sketches, blinded reports,
//!   spectral Bloom filter baseline, exact counters.
//! * [`stats`] (`ew-stats`) — samplers, descriptive statistics,
//!   confusion metrics, IRLS logistic regression.
//! * [`simnet`] (`ew-simnet`) — the web/ad ecosystem simulator.
//! * [`proto`] (`ew-proto`) — wire codecs, framing, transport, faults.
//! * [`core`] (`ew-core`) — the count-based detection algorithm.
//! * [`system`] (`ew-system`) — clients, backend, oprf-server, crawler,
//!   weekly rounds, the evaluation tree.
//!
//! ## Quickstart
//!
//! ```
//! use eyewnder::core::{DetectorConfig, Verdict};
//! use eyewnder::simnet::{Scenario, ScenarioConfig};
//! use eyewnder::system::run_cleartext_pipeline;
//!
//! // A controlled world with known ground truth...
//! let scenario = Scenario::build(ScenarioConfig::small(1));
//! let week = scenario.run_week(0);
//! // ...audited by the count-based detector.
//! let result = run_cleartext_pipeline(&week, DetectorConfig::default());
//! assert!(result.confusion.fpr() < 0.1, "precision is the point");
//! assert!(result
//!     .verdicts
//!     .iter()
//!     .any(|(_, _, v)| *v == Verdict::Targeted));
//! ```
//!
//! See `examples/` for the end-to-end privacy-preserving round, a
//! campaign audit walkthrough and the socio-economic bias study, and
//! `crates/ew-bench` for the binaries regenerating every table and
//! figure of the paper.

pub use ew_bigint as bigint;
pub use ew_core as core;
pub use ew_crypto as crypto;
pub use ew_proto as proto;
pub use ew_simnet as simnet;
pub use ew_sketch as sketch;
pub use ew_stats as stats;
pub use ew_system as system;

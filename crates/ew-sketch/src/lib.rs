#![deny(unsafe_code)]
#![warn(missing_docs)]
//! # ew-sketch — synopsis data structures for distributed counting
//!
//! The eyeWnder protocol (§6 of Iordanou et al., CoNEXT 2019) needs a
//! multiset synopsis that (a) admits **cell-wise additive aggregation**
//! (so Kursawe blinding shares cancel in the sum) and (b) lets the server
//! query frequencies for the whole *enumerable* ad-ID space. The paper
//! picks the **count-min sketch** (Cormode–Muthukrishnan) because it
//! bounds both the error probability and the error magnitude:
//!
//! * `count(x) <= estimate(x)` — never an under-count, and
//! * `estimate(x) <= count(x) + ε·N` with probability `1 − δ`
//!   (`N` = total insertions).
//!
//! Dimensions follow the paper's §6.1 sizing, which we verified
//! reproduces the §7.1 sketch sizes (185/196/207 KB for 10k/50k/100k
//! ads): `d = ⌈ln(T/δ)⌉` rows and `w = ⌈e/ε⌉` columns of 4-byte cells.
//!
//! Provided types:
//! * [`CmsParams`] / [`CountMinSketch`] — the production synopsis. Its
//!   [`CountMinSketch::query_range`] is the server's query over the ID
//!   space: one sweep that hands back only the positive estimates,
//!   compacted inside the sweep, since most IDs were never reported.
//! * [`BlindedSketch`] / [`SketchAccumulator`] — wire form of a blinded
//!   report and the server-side cell-wise aggregator (arithmetic in
//!   `Z_{2^32}`, matching the blinding layer).
//! * [`SpectralBloomFilter`] — the alternative synopsis the paper
//!   considered (Cohen–Matias, SIGMOD'03), kept as an ablation baseline.
//! * [`ConservativeCms`] — conservative-update CMS (Estan–Varghese),
//!   a second non-linear ablation point.
//! * [`ExactCounter`] — hash-map ground truth for accuracy experiments.
//!
//! The crate denies `unsafe` code with one exception:
//! [`CountMinSketch::query_range`] calls its AVX-512 block sweep, a
//! `#[target_feature]` fn, directly under the CPU feature detection that
//! makes the call sound (pinned by the workspace's
//! `tests/public_api.rs::unsafe_only_at_the_tier_dispatches`). The
//! kernel is safe Rust compiled for the wider instruction set: the row
//! sweep is plain Rust the compiler turns into gathers, and the
//! compaction calls the safe `core::arch` test and compress intrinsics,
//! loading and storing through arrays. No raw pointers.

pub mod blinded;
pub mod cms;
pub mod conservative;
pub mod exact;
pub mod hashing;
pub mod params;
pub mod spectral;

pub use blinded::{BlindedSketch, SketchAccumulator};
pub use cms::CountMinSketch;
pub use conservative::ConservativeCms;
pub use exact::ExactCounter;
pub use params::CmsParams;
pub use spectral::SpectralBloomFilter;

#[cfg(test)]
mod proptests;

#![forbid(unsafe_code)]
#![warn(missing_docs)]
//! # ew-core — the count-based targeted-ad detection algorithm
//!
//! The primary contribution of Iordanou et al. (CoNEXT 2019), §4: a
//! deliberately simple heuristic built on two behavioural observations —
//!
//! 1. targeted ads tend to **follow** a user across multiple domains, and
//! 2. targeted ads are seen by **fewer users** than non-targeted ones.
//!
//! An ad `α` audited by user `u` is classified **targeted** iff *both*
//!
//! ```text
//! #Domains(u, α) > Domains_th(u)      (local, per-user)
//! #Users(α)      < Users_th           (global, crowdsourced)
//! ```
//!
//! where each threshold is a moment of the corresponding distribution
//! ([`ThresholdPolicy`] — the paper settles on the mean, §4.2, and
//! compares Mean vs Mean+Median in Figure 3).
//!
//! The per-user side ([`UserCounters`]) runs entirely on the client; the
//! global side ([`GlobalView`]) is computed by the backend from the
//! privacy-preserving aggregate (`ew-sketch` + `ew-crypto`) and only the
//! scalar threshold plus the per-query estimate travel back.
//!
//! [`Detector`] ties both sides together and enforces the §4.2
//! minimum-activity gate: no verdict unless the user visited at least 4
//! ad-serving domains within the (weekly) window ([`WeeklyWindow`]).

pub mod counters;
pub mod detector;
pub mod global;
pub mod threshold;
pub mod window;

#[cfg(test)]
mod proptests;

pub use counters::UserCounters;
pub use detector::{Detector, DetectorConfig, Verdict};
pub use global::{GlobalView, SegmentedGlobalView};
pub use threshold::ThresholdPolicy;
pub use window::WeeklyWindow;

/// An ad identifier as seen by the detection layer. In the deployed
/// system this is the (folded) OPRF output for the ad's URL; in
/// simulation studies it is the simulator's `AdId`.
pub type AdKey = u64;

/// A domain identifier (the detection layer never needs the name).
pub type DomainKey = u64;

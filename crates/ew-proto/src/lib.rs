#![deny(unsafe_code)]
#![warn(missing_docs)]
//! # ew-proto — the eyeWnder wire protocol
//!
//! Message codecs, length-prefixed framing and an in-process transport
//! for the traffic between the three parties of the paper's architecture
//! (Figure 1): browser-extension **clients**, the **backend** aggregation
//! server and the **oprf-server**.
//!
//! Design follows the networking guides used for this reproduction
//! (smoltcp's "simplicity and robustness" ethos): an explicit, versioned
//! binary format — no reflection, no derived serialization — plus fault
//! injection at the transport layer (drop / corrupt / duplicate /
//! reorder) so the system tests can exercise failure paths on one
//! machine.
//!
//! ## Frame layout
//!
//! ```text
//! +----------+----------+------------------+-------------+
//! | magic u16| len  u32 | payload (len B)  | crc32 u32   |
//! +----------+----------+------------------+-------------+
//! ```
//!
//! * `magic` = `0xE71D` guards against stream desync,
//! * `len` is the payload length,
//! * `crc32` (IEEE 802.3 polynomial) covers the payload; a corrupted
//!   frame decodes to [`FrameError::BadChecksum`] instead of garbage.
//!
//! The checksum is folded by carry-less multiplication where the CPU has
//! it and by a table walk elsewhere ([`crc32`]); both give the same value.
//! The crate is `#![deny(unsafe_code)]` with one exception: the call from
//! [`crc32::crc32`]'s dispatch into its `#[target_feature]` kernel,
//! directly under the `is_x86_feature_detected!` that justifies it.
//!
//! Payloads are [`Message`]s encoded with explicit little-endian codecs
//! ([`codec`]). Wire tags, journal record tags and [`error_code`]s are
//! append-only; a retired one is never reassigned. Retired message tags
//! `0x02`, `0x03`, `0x0C`, `0x0D`, `0x0F` (the mid-round shard-map
//! update), `0x10`/`0x11` (the telemetry query / reply) and `0x14`/`0x15`
//! (the coordinator's tick and epoch-state broadcast), sender tag `0x04`
//! (the telemetry sidecar) and journal record tag `0x03` (the shard
//! adoption marker) decode to `BadTag`; error codes 3, 6, 8 and 11 are
//! reserved.

pub mod cluster;
pub mod codec;
pub mod crc32;
pub mod envelope;
pub mod fault;
pub mod framing;
pub mod journal;
pub mod membership;
pub mod message;
pub mod transport;

#[cfg(test)]
mod proptests;

pub use cluster::{ShardMap, MAX_CLUSTER_SHARDS, SLOTS_PER_SHARD};
pub use envelope::{Envelope, NodeId, ENVELOPE_VERSION};
pub use fault::{FaultConfig, FaultyLink};
pub use framing::{FrameDecoder, FrameError, MAGIC};
pub use journal::{JournalEvent, JournalRecord};
pub use membership::{EpochPhase, Membership, MembershipError, MAX_MEMBERS};
pub use message::{error_code, AdmissionHint, Message};
pub use transport::{channel_pair, Endpoint, TransportError};

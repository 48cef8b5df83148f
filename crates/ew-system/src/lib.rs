#![forbid(unsafe_code)]
#![warn(missing_docs)]
//! # ew-system — the eyeWnder distributed system
//!
//! Glues every substrate into the deployable system of the paper's
//! Figure 1 and §5:
//!
//! * [`client`] — the browser-extension model: observes impressions,
//!   maps ad URLs to compact ad IDs through the **oblivious PRF**,
//!   maintains the per-user counters of `ew-core`, builds the weekly
//!   **blinded CMS report**, answers the fault-tolerance recovery round
//!   and audits ads in real time.
//! * [`oprf_server`] — the keyed PRF service (§6): blind-evaluates
//!   requests without learning ad URLs.
//! * [`backend`] — the aggregation server's round: report
//!   accumulation, missing-client recovery, sketch unblinding, `#Users`
//!   enumeration over the ad-ID space and `Users_th` computation. Its
//!   [`backend::RoundState`] is the one shape of an open round — what a
//!   cluster shard is, what a journal checkpoint clones — and the only
//!   place a report is validated.
//! * [`crawler`] — the clean-profile probe used purely for evaluation
//!   (§5): visits sites with no history, so any ad it sees is
//!   non-targeted with high probability.
//! * [`store`] — the Figure 1 metadata database (active users, round
//!   aggregates), in memory.
//! * [`cluster`] — the aggregation cluster: a shard map partitioning
//!   report ownership by client id, a [`cluster::RoutingBus`] fanning
//!   envelopes out over per-shard uplinks, a [`cluster::ClusterBackend`]
//!   — the one [`node::AggregationBackend`] (a single node is a cluster
//!   of one): one bulletin board, one round state per shard, merged
//!   before the one finalize sweep. A severed uplink is re-linked and
//!   its in-flight reports re-sent; a crashed shard restarts from the
//!   round log. No failure moves a key range mid-round.
//! * [`journal`] — the event-sourced round log behind the cluster:
//!   sequence-numbered `Absorbed` [`ew_proto::journal::JournalRecord`]s
//!   and nothing else, with snapshot/replay semantics and watermark
//!   truncation that keeps the log's depth bounded. The one source of
//!   truth for cold crash-restart; duplicates are the shards' to refuse.
//! * [`coordinator`] — the tick-driven epoch coordinator: a
//!   [`ew_proto::NodeId::Coordinator`] role service owning the
//!   WaitingForMembers → Warmup → Reports → Recovery → Finalize epoch
//!   state machine over a versioned [`ew_proto::Membership`] ledger,
//!   with `min_clients` admission, logical-time deadlines and mid-epoch
//!   churn: joins park for the next epoch, dropouts fold into the
//!   silent-client recovery path, and a below-threshold collapse
//!   regresses to waiting without finalizing its round.
//! * [`telemetry`] — per-round and lifetime
//!   [`telemetry::ReplayMetrics`] (envelopes routed / replayed, journal
//!   depth, queue high-water, per-phase timings) and the coordinator's
//!   [`telemetry::ChurnMetrics`], read in process and exported as JSON
//!   lines or Prometheus text.
//! * [`node`] — the role-service API: [`node::ClientNode`],
//!   [`node::OprfFrontend`] and [`node::AggregationBackend`] interact
//!   only through versioned `Envelope`s over a [`node::ServiceBus`]
//!   ([`node::InProcBus`] for direct dispatch, [`node::WireBus`] for the
//!   framed transport with fault injection), driven by one typestate
//!   round machine.
//! * [`system`] — end-to-end orchestration of weekly rounds: thin
//!   drivers over the node bus, in-proc or over the wire with fault
//!   injection — both executing the same round state machine.
//! * [`pipeline`] — the §7.2 controlled-study pipeline: impression log →
//!   detector verdicts → confusion matrices (Figure 3, the FP sweep) and
//!   the Figure 2 cleartext-vs-CMS distribution comparison.
//! * [`eval`] — the §7.3 live-validation methodology: the Figure 4
//!   decision tree over the CR / CB / F8 oracles, including the
//!   UNKNOWN-resolution step of §7.3.3.

pub mod backend;
pub mod client;
pub mod cluster;
pub mod coordinator;
pub mod crawler;
pub mod eval;
pub mod ids;
pub mod journal;
pub mod node;
pub mod oprf_server;
pub mod pipeline;
pub mod store;
pub mod system;
pub mod telemetry;
pub mod trace;

pub use backend::RoundState;
pub use client::Client;
pub use cluster::{ClusterBackend, RoutingBus};
pub use coordinator::{
    epoch_phase_index, Clock, Coordinator, EpochConfig, EpochEvent, LogicalClock, VirtualClock,
};
pub use crawler::Crawler;
pub use eval::{EvalOracles, EvalTree};
pub use ids::AdIdMapper;
pub use journal::RoundLog;
pub use node::{
    drive_round, pump, AggregationBackend, ClientNode, DrivenRound, InProcBus, OprfFrontend,
    RoundPhase, ServiceBus, WireBus,
};
pub use oprf_server::OprfService;
pub use pipeline::{
    cms_user_distribution, run_cleartext_pipeline, run_segmented_pipeline, PipelineResult,
};
pub use store::{RoundRecord, Store, UserRecord};
pub use system::{
    deliver_late_report, restart_coordinator, EpochOutcome, EyewnderSystem, RoundOutcome,
    SystemConfig,
};
pub use telemetry::{
    hist_kind, phase_index, ChurnMetrics, Hist64, ReplayMetrics, TelemetryService,
    TelemetrySnapshot, MAX_ROUND_ROWS,
};
pub use trace::{SpanGuard, TraceEvent, TraceEventKind, TraceRecorder};

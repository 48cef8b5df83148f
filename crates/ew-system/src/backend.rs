//! The back-end server (§5): bulletin board, report aggregation with the
//! two-round missing-client recovery, unblinding-by-summation, `#Users`
//! enumeration and `Users_th` computation.

use crate::ids::AdIdMapper;
use crate::node::AggregationBackend;
use ew_bigint::UBig;
use ew_core::{GlobalView, ThresholdPolicy};
use ew_crypto::directory::KeyDirectory;
use ew_proto::{error_code, Envelope, Message, NodeId};
use ew_sketch::{BlindedSketch, CmsParams, SketchAccumulator};
use std::collections::BTreeSet;

/// State of one aggregation round at the server.
#[derive(Debug)]
struct RoundState {
    round: u64,
    accumulator: SketchAccumulator,
    reported: BTreeSet<u32>,
    adjusted: BTreeSet<u32>,
    missing: Vec<u32>,
}

/// An exported snapshot of one open round's aggregation state: what a
/// cold-restarted shard restores before replaying the journal suffix.
///
/// The fields mirror the server's private round state exactly — the
/// checkpoint **is** the round state, so `restore(checkpoint())` is an
/// identity and a restart that restores the latest checkpoint plus
/// replays every later `Absorbed` record is bit-identical to a shard
/// that never died.
#[derive(Debug, Clone)]
pub struct RoundCheckpoint {
    round: u64,
    accumulator: SketchAccumulator,
    reported: BTreeSet<u32>,
    adjusted: BTreeSet<u32>,
    missing: Vec<u32>,
}

impl RoundCheckpoint {
    /// The round the checkpoint belongs to.
    pub fn round(&self) -> u64 {
        self.round
    }
}

/// The aggregation server.
#[derive(Debug)]
pub struct BackendServer {
    directory: KeyDirectory,
    params: CmsParams,
    mapper: AdIdMapper,
    policy: ThresholdPolicy,
    current: Option<RoundState>,
    /// Finalized global views, newest last.
    finalized: Vec<(u64, GlobalView)>,
}

/// Errors in round handling.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RoundError {
    /// No round is open.
    NoOpenRound,
    /// A report arrived for a different round than the open one.
    WrongRound {
        /// The round currently open at the server.
        expected: u64,
        /// The round the report claimed.
        got: u64,
    },
    /// A report arrived from an unenrolled user.
    UnknownUser(u32),
    /// The same user reported twice.
    DuplicateReport(u32),
    /// The report's sketch dimensions don't match the cohort parameters.
    DimensionMismatch,
    /// An envelope's header (sender, round) disagrees with its payload —
    /// a spoofed or corrupted message, rejected before any state change.
    EnvelopeMismatch,
    /// A report or adjustment was delivered to a cluster shard that does
    /// not own its sender's key range under the current shard map.
    WrongShard {
        /// The shard that owns the sender's key range.
        owner: u32,
        /// The shard the envelope was delivered to.
        got: u32,
    },
    /// A `ShardMapUpdate` carried an older version than the receiver
    /// already holds.
    StaleShardMap {
        /// The version the receiver holds.
        current: u32,
        /// The stale version the update carried.
        got: u32,
    },
}

impl std::fmt::Display for RoundError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RoundError::NoOpenRound => write!(f, "no aggregation round open"),
            RoundError::WrongRound { expected, got } => {
                write!(f, "report for round {got}, expected {expected}")
            }
            RoundError::UnknownUser(u) => write!(f, "report from unenrolled user {u}"),
            RoundError::DuplicateReport(u) => write!(f, "duplicate report from user {u}"),
            RoundError::DimensionMismatch => write!(f, "sketch dimension mismatch"),
            RoundError::EnvelopeMismatch => {
                write!(f, "envelope header disagrees with message payload")
            }
            RoundError::WrongShard { owner, got } => {
                write!(f, "envelope for shard {owner} delivered to shard {got}")
            }
            RoundError::StaleShardMap { current, got } => {
                write!(f, "shard map version {got} is older than current {current}")
            }
        }
    }
}

impl std::error::Error for RoundError {}

impl RoundError {
    /// The [`error_code`] a peer is answered with when this rejection is
    /// reported back as a [`Message::Error`] instead of silence.
    pub fn error_code(&self) -> u32 {
        match self {
            RoundError::WrongShard { .. } => error_code::WRONG_SHARD,
            RoundError::StaleShardMap { .. } => error_code::STALE_SHARD_MAP,
            _ => error_code::REJECTED_REPORT,
        }
    }
}

impl BackendServer {
    /// New server for a cohort with the given sketch parameters and
    /// ad-ID space.
    pub fn new(
        element_len: usize,
        params: CmsParams,
        mapper: AdIdMapper,
        policy: ThresholdPolicy,
    ) -> Self {
        BackendServer {
            directory: KeyDirectory::new(element_len),
            params,
            mapper,
            policy,
            current: None,
            finalized: Vec::new(),
        }
    }

    /// Enrolls a user by publishing their DH public key.
    pub fn enroll(&mut self, user: u32, public_key: UBig) {
        self.directory.publish(user, public_key);
    }

    /// The bulletin board (clients read it to compute blindings).
    pub fn directory(&self) -> &KeyDirectory {
        &self.directory
    }

    /// The cohort's sketch parameters.
    pub fn params(&self) -> CmsParams {
        self.params
    }

    /// The ad-ID mapper (shared with clients).
    pub fn mapper(&self) -> AdIdMapper {
        self.mapper
    }

    /// Opens aggregation round `round`.
    pub fn open_round(&mut self, round: u64) {
        self.current = Some(RoundState {
            round,
            accumulator: SketchAccumulator::new(self.params),
            reported: BTreeSet::new(),
            adjusted: BTreeSet::new(),
            missing: Vec::new(),
        });
    }

    /// Accepts one blinded report.
    pub fn receive_report(
        &mut self,
        user: u32,
        round: u64,
        report: &BlindedSketch,
    ) -> Result<(), RoundError> {
        let state = self.current.as_mut().ok_or(RoundError::NoOpenRound)?;
        if state.round != round {
            return Err(RoundError::WrongRound {
                expected: state.round,
                got: round,
            });
        }
        if self.directory.get(user).is_none() {
            return Err(RoundError::UnknownUser(user));
        }
        if !state.reported.insert(user) {
            return Err(RoundError::DuplicateReport(user));
        }
        if report.params() != self.params {
            return Err(RoundError::DimensionMismatch);
        }
        state.accumulator.add(report);
        Ok(())
    }

    /// After the report deadline: the list of enrolled users whose
    /// reports never arrived. Broadcast to the cohort, whose members
    /// answer with adjustments (§6 "Fault-tolerance").
    pub fn missing_clients(&mut self) -> Result<Vec<u32>, RoundError> {
        let state = self.current.as_mut().ok_or(RoundError::NoOpenRound)?;
        let missing: Vec<u32> = self
            .directory
            .user_ids()
            .filter(|u| !state.reported.contains(u))
            .collect();
        state.missing = missing.clone();
        Ok(missing)
    }

    /// Accepts one recovery adjustment from a reporting client.
    pub fn receive_adjustment(
        &mut self,
        user: u32,
        round: u64,
        adjustment: &[u32],
    ) -> Result<(), RoundError> {
        let state = self.current.as_mut().ok_or(RoundError::NoOpenRound)?;
        if state.round != round {
            return Err(RoundError::WrongRound {
                expected: state.round,
                got: round,
            });
        }
        if !state.reported.contains(&user) {
            return Err(RoundError::UnknownUser(user));
        }
        if !state.adjusted.insert(user) {
            return Err(RoundError::DuplicateReport(user));
        }
        if adjustment.len() != self.params.num_cells() {
            return Err(RoundError::DimensionMismatch);
        }
        state.accumulator.subtract_adjustment(adjustment);
        Ok(())
    }

    /// Closes the round: unblinds (by summation), enumerates the ad-ID
    /// space and computes the global view + `Users_th`.
    ///
    /// Correct when either every enrolled client reported, or every
    /// reporting client sent its adjustment for the missing set.
    pub fn finalize_round(&mut self) -> Result<&GlobalView, RoundError> {
        let state = self.current.take().ok_or(RoundError::NoOpenRound)?;
        let reports = state.accumulator.reports();
        let aggregate = state.accumulator.finalize(reports as u64);
        let estimates = self
            .mapper
            .all_ids()
            .map(|ad| (ad, aggregate.query(ad) as f64));
        let view = GlobalView::from_estimates(estimates, self.policy);
        self.finalized.push((state.round, view));
        Ok(&self.finalized.last().expect("just pushed").1)
    }

    /// Closes the round **without** computing a view, exporting the
    /// partial aggregation state instead — the per-shard half of a
    /// cluster finalize. A shard's accumulator is still blinded (the
    /// Kursawe terms only cancel over the *whole* cohort), so a shard
    /// can never finalize alone; its [`crate::cluster::ShardView`] is
    /// merged with its siblings' through [`crate::cluster::ViewMerger`]
    /// and only the merged aggregate is unblinded and enumerated.
    pub fn take_shard_view(&mut self) -> Result<crate::cluster::ShardView, RoundError> {
        let state = self.current.take().ok_or(RoundError::NoOpenRound)?;
        Ok(crate::cluster::ShardView::from_parts(
            state.round,
            state.accumulator,
            state.reported,
        ))
    }

    /// Exports the open round's aggregation state as a restartable
    /// checkpoint, leaving the round open. `None` when no round is open.
    ///
    /// A checkpoint is the snapshot half of the journal's
    /// snapshot-plus-replay recovery: a cold-restarted shard restores
    /// the last checkpoint and then replays only the `Absorbed` records
    /// above the snapshot watermark (see `crate::journal::RoundLog`).
    pub fn checkpoint(&self) -> Option<RoundCheckpoint> {
        self.current.as_ref().map(|state| RoundCheckpoint {
            round: state.round,
            accumulator: state.accumulator.clone(),
            reported: state.reported.clone(),
            adjusted: state.adjusted.clone(),
            missing: state.missing.clone(),
        })
    }

    /// Restores a round checkpoint taken with [`Self::checkpoint`],
    /// replacing whatever round state the server held.
    pub fn restore(&mut self, checkpoint: RoundCheckpoint) {
        self.current = Some(RoundState {
            round: checkpoint.round,
            accumulator: checkpoint.accumulator,
            reported: checkpoint.reported,
            adjusted: checkpoint.adjusted,
            missing: checkpoint.missing,
        });
    }

    /// Publishes an externally finalized view for `round` (the cluster
    /// driver lands its merged view here so `#Users` queries and audits
    /// served by this node see cluster rounds exactly like local ones).
    pub fn install_view(&mut self, round: u64, view: GlobalView) {
        self.finalized.push((round, view));
    }

    /// The most recent finalized view, if any.
    pub fn latest_view(&self) -> Option<&GlobalView> {
        self.finalized.last().map(|(_, v)| v)
    }

    /// A finalized view by round.
    pub fn view_for_round(&self, round: u64) -> Option<&GlobalView> {
        self.finalized
            .iter()
            .find(|(r, _)| *r == round)
            .map(|(_, v)| v)
    }
}

/// The backend as a message-driven role service: reports, adjustments
/// and `#Users` queries arrive as [`Envelope`]s; the envelope header is
/// cross-checked against the payload (spoofed sender or mismatched
/// round is a clean rejection) before any state changes.
impl AggregationBackend for BackendServer {
    fn open_round(&mut self, round: u64) {
        BackendServer::open_round(self, round);
    }

    fn on_envelope(&mut self, env: Envelope) -> Result<Option<Envelope>, RoundError> {
        let Envelope {
            round: env_round,
            sender,
            msg,
            ..
        } = env;
        match msg {
            Message::Report {
                user,
                round,
                depth,
                width,
                seed,
                cells,
            } => {
                if sender != NodeId::Client(user) || env_round != round {
                    return Err(RoundError::EnvelopeMismatch);
                }
                // Full-header *and* cell-count check against the raw
                // fields (never through `CmsParams::new`, whose
                // degenerate-dimension assert a hostile depth/width of 0
                // would trip): a corrupted or hostile frame that still
                // decoded must be a clean error, never a panic.
                if depth as usize != self.params.depth
                    || width as usize != self.params.width
                    || seed != self.params.hash_seed
                    || cells.len() != self.params.num_cells()
                {
                    return Err(RoundError::DimensionMismatch);
                }
                let report = BlindedSketch::from_raw(self.params, cells);
                self.receive_report(user, round, &report)?;
                Ok(None)
            }
            Message::Adjustment { user, round, cells } => {
                if sender != NodeId::Client(user) || env_round != round {
                    return Err(RoundError::EnvelopeMismatch);
                }
                self.receive_adjustment(user, round, &cells)?;
                Ok(None)
            }
            Message::UsersQuery { round, ad } => {
                let reply = match self.latest_view() {
                    Some(view) => Message::UsersReply {
                        round,
                        ad,
                        estimate: view.users(ad) as u32,
                    },
                    None => Message::Error {
                        code: error_code::NOT_READY,
                        detail: format!("no finalized round to answer #Users({ad})"),
                        hint: None,
                    },
                };
                Ok(Some(Envelope::new(NodeId::Backend, env_round, reply)))
            }
            // Never answer an error with an error.
            Message::Error { .. } => Ok(None),
            other => Ok(Some(Envelope::new(
                NodeId::Backend,
                env_round,
                Message::Error {
                    code: error_code::UNSUPPORTED_MESSAGE,
                    detail: format!("backend does not serve {}", other.kind()),
                    hint: None,
                },
            ))),
        }
    }

    fn missing_clients(&mut self) -> Result<Vec<u32>, RoundError> {
        BackendServer::missing_clients(self)
    }

    fn finalize(&mut self) -> Result<GlobalView, RoundError> {
        self.finalize_round().cloned()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ew_sketch::BlindedSketch;

    fn server() -> BackendServer {
        BackendServer::new(
            8,
            CmsParams::new(2, 32, 3),
            AdIdMapper::new(64),
            ThresholdPolicy::Mean,
        )
    }

    fn raw_report(params: CmsParams, ads: &[u64]) -> BlindedSketch {
        let mut s = ew_sketch::CountMinSketch::new(params);
        for &a in ads {
            s.update(a);
        }
        BlindedSketch::from_raw(params, s.cells().to_vec())
    }

    #[test]
    fn round_lifecycle_cleartext() {
        let mut srv = server();
        for u in 0..3 {
            srv.enroll(u, UBig::from_u64(u as u64 + 1));
        }
        srv.open_round(1);
        let p = srv.params();
        srv.receive_report(0, 1, &raw_report(p, &[5, 9])).unwrap();
        srv.receive_report(1, 1, &raw_report(p, &[5])).unwrap();
        srv.receive_report(2, 1, &raw_report(p, &[5, 60])).unwrap();
        assert_eq!(srv.missing_clients().unwrap(), Vec::<u32>::new());
        let view = srv.finalize_round().unwrap();
        assert_eq!(view.users(5), 3.0);
        assert_eq!(view.users(9), 1.0);
        assert_eq!(view.users(60), 1.0);
        // Threshold = mean of {3, 1, 1}.
        assert!((view.users_threshold() - 5.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn error_paths() {
        let mut srv = server();
        srv.enroll(0, UBig::from_u64(1));
        let p = srv.params();

        // No round open yet.
        assert_eq!(
            srv.receive_report(0, 1, &raw_report(p, &[])),
            Err(RoundError::NoOpenRound)
        );

        srv.open_round(1);
        // Wrong round.
        assert_eq!(
            srv.receive_report(0, 2, &raw_report(p, &[])),
            Err(RoundError::WrongRound {
                expected: 1,
                got: 2
            })
        );
        // Unknown user.
        assert_eq!(
            srv.receive_report(9, 1, &raw_report(p, &[])),
            Err(RoundError::UnknownUser(9))
        );
        // Duplicate.
        srv.receive_report(0, 1, &raw_report(p, &[1])).unwrap();
        assert_eq!(
            srv.receive_report(0, 1, &raw_report(p, &[1])),
            Err(RoundError::DuplicateReport(0))
        );
        // Dimension mismatch.
        let bad = raw_report(CmsParams::new(2, 16, 3), &[]);
        srv.enroll(1, UBig::from_u64(2));
        assert_eq!(
            srv.receive_report(1, 1, &bad),
            Err(RoundError::DimensionMismatch)
        );
    }

    #[test]
    fn missing_detection() {
        let mut srv = server();
        for u in 0..4 {
            srv.enroll(u, UBig::from_u64(u as u64 + 1));
        }
        srv.open_round(2);
        let p = srv.params();
        srv.receive_report(0, 2, &raw_report(p, &[1])).unwrap();
        srv.receive_report(2, 2, &raw_report(p, &[1])).unwrap();
        assert_eq!(srv.missing_clients().unwrap(), vec![1, 3]);
    }

    #[test]
    fn hostile_report_envelope_rejected_without_panicking() {
        let mut srv = server();
        srv.enroll(0, UBig::from_u64(1));
        srv.open_round(1);
        // Zero depth/width decodes fine at the message layer but would
        // trip `CmsParams::new`'s degenerate-dimension assert — the
        // node API must reject it cleanly instead.
        let degenerate = Envelope::new(
            NodeId::Client(0),
            1,
            Message::Report {
                user: 0,
                round: 1,
                depth: 0,
                width: 0,
                seed: 0,
                cells: Vec::new(),
            },
        );
        assert_eq!(
            AggregationBackend::on_envelope(&mut srv, degenerate),
            Err(RoundError::DimensionMismatch)
        );
        // Spoofed sender and mismatched envelope round are rejected
        // before any state change.
        let p = srv.params();
        let good_cells = raw_report(p, &[1]).into_cells();
        let spoofed = Envelope::new(
            NodeId::Client(7),
            1,
            Message::Report {
                user: 0,
                round: 1,
                depth: p.depth as u32,
                width: p.width as u32,
                seed: p.hash_seed,
                cells: good_cells.clone(),
            },
        );
        assert_eq!(
            AggregationBackend::on_envelope(&mut srv, spoofed),
            Err(RoundError::EnvelopeMismatch)
        );
        let wrong_round = Envelope::new(
            NodeId::Client(0),
            2,
            Message::Report {
                user: 0,
                round: 1,
                depth: p.depth as u32,
                width: p.width as u32,
                seed: p.hash_seed,
                cells: good_cells.clone(),
            },
        );
        assert_eq!(
            AggregationBackend::on_envelope(&mut srv, wrong_round),
            Err(RoundError::EnvelopeMismatch)
        );
        // The genuine envelope still lands.
        let genuine = Envelope::new(
            NodeId::Client(0),
            1,
            Message::Report {
                user: 0,
                round: 1,
                depth: p.depth as u32,
                width: p.width as u32,
                seed: p.hash_seed,
                cells: good_cells,
            },
        );
        assert_eq!(AggregationBackend::on_envelope(&mut srv, genuine), Ok(None));
        assert_eq!(srv.missing_clients().unwrap(), Vec::<u32>::new());
    }

    #[test]
    fn views_kept_per_round() {
        let mut srv = server();
        srv.enroll(0, UBig::from_u64(1));
        for round in 1..=2 {
            srv.open_round(round);
            let p = srv.params();
            srv.receive_report(0, round, &raw_report(p, &[round]))
                .unwrap();
            srv.finalize_round().unwrap();
        }
        assert!(srv.view_for_round(1).is_some());
        assert!(srv.view_for_round(2).is_some());
        assert!(srv.view_for_round(3).is_none());
        assert_eq!(srv.latest_view().unwrap().users(2), 1.0);
    }
}

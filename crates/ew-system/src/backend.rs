//! The back-end server's round (§5): report aggregation with the
//! two-round missing-client recovery, unblinding-by-summation, `#Users`
//! enumeration and `Users_th` computation. The bulletin board lives on
//! the [`crate::cluster::ClusterBackend`].
//!
//! [`RoundState`] is the one shape of an open aggregation round. Every
//! shard of a [`crate::cluster::ClusterBackend`] — the one
//! [`crate::node::AggregationBackend`]; a single node is a cluster of
//! one — *is* one; a journal checkpoint is a clone of one; a cluster
//! finalizes by [`RoundState::merge`]-ing its shards' states and running
//! the one [`RoundState::finalize`] sweep. Reports and adjustments are
//! validated in one place, [`RoundState::absorb`], and every check there
//! precedes any mutation. Every envelope a backend answers — a shard's,
//! or a `#Users` audit's against the latest finalized view — goes
//! through one function, `serve`.

use crate::ids::AdIdMapper;
use ew_core::{AdKey, GlobalView, ThresholdPolicy};
use ew_proto::{error_code, Envelope, Message, NodeId};
use ew_sketch::{CmsParams, SketchAccumulator};
use std::collections::BTreeSet;

/// One open aggregation round: the still-blinded cell-wise sum of the
/// reports absorbed so far (adjustments already subtracted) plus who
/// reported and who adjusted.
///
/// The Kursawe blinding terms only cancel over the *whole* cohort, so a
/// cluster shard's state is a partial sum that means nothing alone:
/// shards [`merge`](Self::merge) first and only the merged state is
/// [`finalize`](Self::finalize)d. Cell addition in `Z_{2^32}` is
/// associative and commutative, so any merge order or grouping gives
/// the same bits as one node absorbing every report.
#[derive(Debug, Clone)]
pub struct RoundState {
    round: u64,
    accumulator: SketchAccumulator,
    reported: BTreeSet<u32>,
    adjusted: BTreeSet<u32>,
}

impl RoundState {
    /// Round `round`, nothing absorbed yet (merging it is the identity).
    pub fn open(params: CmsParams, round: u64) -> Self {
        RoundState {
            round,
            accumulator: SketchAccumulator::new(params),
            reported: BTreeSet::new(),
            adjusted: BTreeSet::new(),
        }
    }

    /// The round this state belongs to.
    pub fn round(&self) -> u64 {
        self.round
    }

    /// Reports absorbed so far.
    pub fn reports(&self) -> usize {
        self.accumulator.reports()
    }

    /// True once `user`'s report has been absorbed.
    pub(crate) fn has_reported(&self, user: u32) -> bool {
        self.reported.contains(&user)
    }

    /// Absorbs one `Report` or `Adjustment` envelope; `enrolled` is the
    /// bulletin board's verdict on a user id. Both kinds pass the same
    /// sequence of checks — header against payload, shape against the
    /// cohort's dimensions, round, membership, duplicate — and nothing
    /// is mutated before the last one passes: a rejected envelope
    /// leaves no trace, so a state rebuilt from the journal of
    /// *accepted* envelopes is the same state. The shape check reads
    /// the raw wire fields (never `CmsParams::new`, whose
    /// degenerate-dimension assert a hostile depth or width of 0 would
    /// trip). Any other message kind carries nothing to absorb and is
    /// an [`RoundError::EnvelopeMismatch`].
    pub fn absorb(
        &mut self,
        env: &Envelope,
        enrolled: impl Fn(u32) -> bool,
    ) -> Result<(), RoundError> {
        let params = self.accumulator.params();
        let (user, round, cells, report_header) = match &env.msg {
            Message::Report {
                user,
                round,
                depth,
                width,
                seed,
                cells,
            } => (*user, *round, cells, Some((*depth, *width, *seed))),
            Message::Adjustment { user, round, cells } => (*user, *round, cells, None),
            _ => return Err(RoundError::EnvelopeMismatch),
        };
        if env.sender != NodeId::Client(user) || env.round != round {
            return Err(RoundError::EnvelopeMismatch);
        }
        let header_fits = report_header.is_none_or(|(depth, width, seed)| {
            depth as usize == params.depth
                && width as usize == params.width
                && seed == params.hash_seed
        });
        if !header_fits || cells.len() != params.num_cells() {
            return Err(RoundError::DimensionMismatch);
        }
        if round != self.round {
            return Err(RoundError::WrongRound {
                expected: self.round,
                got: round,
            });
        }
        if report_header.is_some() {
            if !enrolled(user) {
                return Err(RoundError::UnknownUser(user));
            }
            if !self.reported.insert(user) {
                return Err(RoundError::DuplicateReport(user));
            }
            self.accumulator.add_cells(cells);
        } else {
            // An adjustment is only owed by a client that reported.
            if !self.reported.contains(&user) {
                return Err(RoundError::UnknownUser(user));
            }
            if !self.adjusted.insert(user) {
                return Err(RoundError::DuplicateReport(user));
            }
            self.accumulator.subtract_adjustment(cells);
        }
        Ok(())
    }

    /// Folds another shard's state for the same round into this one.
    /// Shards own disjoint key ranges, so a user present in both is a
    /// [`RoundError::DuplicateReport`]; nothing is folded on an error.
    pub fn merge(&mut self, other: &RoundState) -> Result<(), RoundError> {
        if other.round != self.round {
            return Err(RoundError::WrongRound {
                expected: self.round,
                got: other.round,
            });
        }
        if other.accumulator.params() != self.accumulator.params() {
            return Err(RoundError::DimensionMismatch);
        }
        if let Some(&dup) = self.reported.intersection(&other.reported).next() {
            return Err(RoundError::DuplicateReport(dup));
        }
        self.accumulator.merge(&other.accumulator);
        self.reported.extend(&other.reported);
        self.adjusted.extend(&other.adjusted);
        Ok(())
    }

    /// Closes the round: unblinds (by summation), enumerates the ad-ID
    /// space and computes the global view + `Users_th`.
    ///
    /// Correct when the state covers the whole cohort and either every
    /// enrolled client reported or every reporting client sent its
    /// adjustment for the missing set.
    pub fn finalize(self, mapper: &AdIdMapper, policy: ThresholdPolicy) -> GlobalView {
        let reports = self.accumulator.reports();
        let aggregate = self.accumulator.finalize(reports as u64);
        // Most of the id space is vacant; the sweep hands over the live
        // ids only, already compacted, so this pays per reported ad. The
        // vector starts at one sweep block of ids (64 KB): grown from
        // empty instead, the dense `aggregate_wire` view measured
        // 0.2–0.4 ms slower on some runs, through glibc's reallocations.
        let mut estimates: Vec<(AdKey, f64)> = Vec::with_capacity(4096);
        aggregate.query_range(mapper.all_ids(), |first, offsets, users| {
            let live = offsets.iter().zip(users);
            estimates.extend(live.map(|(&offset, &users)| (first + offset as u64, users as f64)));
        });
        GlobalView::from_estimates(estimates, policy)
    }
}

/// Serves one envelope at a node whose round is `current`: reports and
/// adjustments are absorbed into it (`Ok(None)`); everything else
/// carries no aggregation state and gets its reply here — a `#Users`
/// query is answered from `view` (a cluster shard has none: explicit
/// `NOT_READY`), an `Error` is never answered with an error, any other
/// kind is refused as unsupported.
pub(crate) fn serve(
    current: &mut Option<RoundState>,
    view: Option<&GlobalView>,
    env: &Envelope,
    enrolled: impl Fn(u32) -> bool,
) -> Result<Option<Envelope>, RoundError> {
    let reply = match &env.msg {
        Message::Report { .. } | Message::Adjustment { .. } => {
            let state = current.as_mut().ok_or(RoundError::NoOpenRound)?;
            state.absorb(env, enrolled)?;
            return Ok(None);
        }
        Message::Error { .. } => return Ok(None),
        Message::UsersQuery { round, ad } => match view {
            Some(view) => Message::UsersReply {
                round: *round,
                ad: *ad,
                estimate: view.users(*ad) as u32,
            },
            None => Message::Error {
                code: error_code::NOT_READY,
                detail: format!("no finalized round to answer #Users({ad})"),
                hint: None,
            },
        },
        other => Message::Error {
            code: error_code::UNSUPPORTED_MESSAGE,
            detail: format!("backend does not serve {}", other.kind()),
            hint: None,
        },
    };
    Ok(Some(Envelope::new(NodeId::Backend, env.round, reply)))
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
            _ => error_code::REJECTED_REPORT,
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::cluster::ClusterBackend;
    use crate::node::AggregationBackend;
    use ew_bigint::UBig;
    use ew_proto::ShardMap;

    fn params() -> CmsParams {
        CmsParams::new(2, 32, 3)
    }

    /// The single-node backend `run_round` drives: a cluster of one.
    fn server() -> ClusterBackend {
        ClusterBackend::new(
            ShardMap::uniform(1),
            8,
            params(),
            AdIdMapper::new(64),
            ThresholdPolicy::Mean,
        )
    }

    /// `user`'s cleartext report of `ads` for `round`, enveloped.
    pub(crate) fn report_env(p: CmsParams, user: u32, round: u64, ads: &[u64]) -> Envelope {
        let mut sketch = ew_sketch::CountMinSketch::new(p);
        for &ad in ads {
            sketch.update(ad);
        }
        Envelope::new(
            NodeId::Client(user),
            round,
            Message::Report {
                user,
                round,
                depth: p.depth as u32,
                width: p.width as u32,
                seed: p.hash_seed,
                cells: sketch.cells().to_vec(),
            },
        )
    }

    /// A hostile-ish drain for round 1 of a six-user cohort: valid
    /// reports, an in-batch duplicate, an unknown user, a wrong-round
    /// report, a spoofed sender, a query and an error envelope
    /// interleaved mid-stream.
    pub(crate) fn hostile_stream(p: CmsParams) -> Vec<Envelope> {
        let mut spoofed = report_env(p, 3, 1, &[9]);
        spoofed.sender = NodeId::Client(4);
        vec![
            report_env(p, 0, 1, &[1, 5]),
            report_env(p, 1, 1, &[2]),
            Envelope::new(
                NodeId::Client(0),
                1,
                Message::UsersQuery { round: 1, ad: 5 },
            ),
            report_env(p, 1, 1, &[2]), // duplicate
            report_env(p, 9, 1, &[3]), // unknown user
            report_env(p, 2, 2, &[4]), // wrong round
            spoofed,                   // spoofed sender
            Envelope::new(
                NodeId::Client(5),
                1,
                Message::Error {
                    code: 1,
                    detail: "spoof".to_string(),
                    hint: None,
                },
            ),
            report_env(p, 2, 1, &[4]),
            report_env(p, 3, 1, &[6]),
            report_env(p, 4, 1, &[7]),
        ]
    }

    /// The sweep as it was first written — one point query per
    /// enumerable id — kept as the oracle for [`RoundState::finalize`].
    fn finalize_by_point_queries(
        state: RoundState,
        mapper: &AdIdMapper,
        policy: ThresholdPolicy,
    ) -> GlobalView {
        let reports = state.accumulator.reports();
        let aggregate = state.accumulator.finalize(reports as u64);
        let estimates = mapper.all_ids().map(|ad| (ad, aggregate.query(ad) as f64));
        GlobalView::from_estimates(estimates, policy)
    }

    #[test]
    fn finalize_sweep_equals_point_queries_on_the_hostile_stream() {
        let p = CmsParams::new(2, 32, 3);
        let empty = RoundState::open(p, 1);
        let mut state = empty.clone();
        let accepted = hostile_stream(p)
            .iter()
            .filter(|env| state.absorb(env, |user| user < 6).is_ok())
            .count();
        assert_eq!(accepted, 5);
        let reported = [1, 2, 4, 5, 6, 7];
        // Either side of the sweep's sixteen-id groups and 4 096-id
        // blocks, less than one block, and several with a ragged end.
        for capacity in [1, 15, 16, 17, 64, 4_095, 4_096, 4_097, 9_000] {
            let mapper = AdIdMapper::new(capacity);
            for policy in ThresholdPolicy::all() {
                let view = state.clone().finalize(&mapper, policy);
                let what = format!("capacity={capacity} policy={}", policy.label());
                assert_eq!(
                    view,
                    finalize_by_point_queries(state.clone(), &mapper, policy),
                    "{what}"
                );
                let in_range = reported.iter().filter(|&&ad| ad < capacity).count();
                assert!(view.num_ads() >= in_range, "{what}: reported ads in view");
                // A round nobody reported to has an empty view.
                let view = empty.clone().finalize(&mapper, policy);
                assert_eq!(
                    view,
                    finalize_by_point_queries(empty.clone(), &mapper, policy),
                    "{what}, empty round"
                );
                assert_eq!(
                    (view.num_ads(), view.users_threshold()),
                    (0, 0.0),
                    "{what}, empty round"
                );
            }
        }
    }

    fn adjustment_env(user: u32, round: u64, cells: Vec<u32>) -> Envelope {
        let msg = Message::Adjustment { user, round, cells };
        Envelope::new(NodeId::Client(user), round, msg)
    }

    fn send(srv: &mut ClusterBackend, env: Envelope) -> Result<Option<Envelope>, RoundError> {
        srv.on_envelope(env)
    }

    #[test]
    fn round_lifecycle_cleartext() {
        let mut srv = server();
        for u in 0..3 {
            srv.enroll(u, UBig::from_u64(u as u64 + 1));
        }
        srv.open_round(1);
        let p = params();
        assert_eq!(send(&mut srv, report_env(p, 0, 1, &[5, 9])), Ok(None));
        assert_eq!(send(&mut srv, report_env(p, 1, 1, &[5])), Ok(None));
        assert_eq!(send(&mut srv, report_env(p, 2, 1, &[5, 60])), Ok(None));
        assert_eq!(srv.missing_clients().unwrap(), Vec::<u32>::new());
        let view = srv.finalize().unwrap();
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
        let p = params();

        // No round open yet.
        assert_eq!(
            send(&mut srv, report_env(p, 0, 1, &[])),
            Err(RoundError::NoOpenRound)
        );

        srv.open_round(1);
        // Wrong round.
        assert_eq!(
            send(&mut srv, report_env(p, 0, 2, &[])),
            Err(RoundError::WrongRound {
                expected: 1,
                got: 2
            })
        );
        // Unknown user.
        assert_eq!(
            send(&mut srv, report_env(p, 9, 1, &[])),
            Err(RoundError::UnknownUser(9))
        );
        // Duplicates. A conflicting one (same user and round, other
        // cells) and a byte-identical one are refused alike, and neither
        // is absorbed or journaled a second time.
        assert_eq!(send(&mut srv, report_env(p, 0, 1, &[1])), Ok(None));
        assert_eq!(
            send(&mut srv, report_env(p, 0, 1, &[2])),
            Err(RoundError::DuplicateReport(0))
        );
        assert_eq!(
            send(&mut srv, report_env(p, 0, 1, &[1])),
            Err(RoundError::DuplicateReport(0))
        );
        assert_eq!(srv.log().depth(), 1, "absorbed once");
        // Dimension mismatch.
        srv.enroll(1, UBig::from_u64(2));
        assert_eq!(
            send(&mut srv, report_env(CmsParams::new(2, 16, 3), 1, 1, &[])),
            Err(RoundError::DimensionMismatch)
        );
        // A round state absorbs reports and adjustments, nothing else.
        let mut state = RoundState::open(p, 1);
        let query = Message::UsersQuery { round: 1, ad: 5 };
        assert_eq!(
            state.absorb(&Envelope::new(NodeId::Client(0), 1, query), |_| true),
            Err(RoundError::EnvelopeMismatch)
        );
    }

    #[test]
    fn missing_detection() {
        let mut srv = server();
        for u in 0..4 {
            srv.enroll(u, UBig::from_u64(u as u64 + 1));
        }
        srv.open_round(2);
        let p = params();
        assert_eq!(send(&mut srv, report_env(p, 0, 2, &[1])), Ok(None));
        assert_eq!(send(&mut srv, report_env(p, 2, 2, &[1])), Ok(None));
        assert_eq!(srv.missing_clients().unwrap(), vec![1, 3]);
    }

    #[test]
    fn rejected_adjustment_leaves_no_trace() {
        // Users 0 and 1 report, user 2 stays silent, both reporters owe
        // an adjustment. In the hostile run user 0's first adjustment is
        // three cells long: it must be refused *and forgotten*, so the
        // genuine one that follows is still accepted and subtracted.
        let run = |hostile: bool| {
            let mut srv = server();
            for u in 0..3 {
                srv.enroll(u, UBig::from_u64(u as u64 + 1));
            }
            srv.open_round(1);
            let p = params();
            assert_eq!(send(&mut srv, report_env(p, 0, 1, &[5, 9])), Ok(None));
            assert_eq!(send(&mut srv, report_env(p, 1, 1, &[5])), Ok(None));
            assert_eq!(srv.missing_clients().unwrap(), vec![2]);
            if hostile {
                assert_eq!(
                    send(&mut srv, adjustment_env(0, 1, vec![7; 3])),
                    Err(RoundError::DimensionMismatch)
                );
            }
            for user in 0..2u32 {
                let cells = (0..p.num_cells() as u32).map(|c| c * 31 + user).collect();
                assert_eq!(send(&mut srv, adjustment_env(user, 1, cells)), Ok(None));
            }
            srv.finalize().unwrap()
        };
        assert_eq!(run(true), run(false));
    }

    #[test]
    fn hostile_report_envelope_rejected_without_panicking() {
        let mut srv = server();
        srv.enroll(0, UBig::from_u64(1));
        srv.open_round(1);
        let p = params();
        // Zero depth/width decodes fine at the message layer but would
        // trip `CmsParams::new`'s degenerate-dimension assert — the
        // node API must reject it cleanly instead.
        let mut degenerate = report_env(p, 0, 1, &[1]);
        degenerate.msg = Message::Report {
            user: 0,
            round: 1,
            depth: 0,
            width: 0,
            seed: 0,
            cells: Vec::new(),
        };
        assert_eq!(
            send(&mut srv, degenerate),
            Err(RoundError::DimensionMismatch)
        );
        // Spoofed sender and mismatched envelope round are rejected
        // before any state change.
        let mut spoofed = report_env(p, 0, 1, &[1]);
        spoofed.sender = NodeId::Client(7);
        assert_eq!(send(&mut srv, spoofed), Err(RoundError::EnvelopeMismatch));
        let mut wrong_round = report_env(p, 0, 1, &[1]);
        wrong_round.round = 2;
        assert_eq!(
            send(&mut srv, wrong_round),
            Err(RoundError::EnvelopeMismatch)
        );
        // The genuine envelope still lands.
        assert_eq!(send(&mut srv, report_env(p, 0, 1, &[1])), Ok(None));
        assert_eq!(srv.missing_clients().unwrap(), Vec::<u32>::new());
    }
}

//! The cluster's event-sourced round log: one append-only sequence of
//! [`JournalRecord`]s that is the source of truth for cold
//! crash-restart.
//!
//! * every **successful** absorption appends an
//!   [`JournalEvent::Absorbed`] record (rejections are never journaled,
//!   and a rejected envelope leaves no trace in a [`RoundState`], so
//!   replaying the log rebuilds exactly the state that wrote it) — a
//!   cluster's round log holds nothing else;
//! * a **snapshot watermark** bounds the log: once every live shard's
//!   round state is checkpointed, records at or below the watermark are
//!   truncated and restart recovery is *clone the checkpoint + replay
//!   the suffix* instead of replay-from-genesis.
//!
//! The log decides nothing about duplicates. Exactly-once is the
//! shard's: [`RoundState::absorb`] refuses a second report or
//! adjustment for a `(user, round)`, and its seen-set travels inside
//! every checkpoint, so truncation does not erode it.
//!
//! The same type is the cluster's control-plane log, which holds the
//! coordinator's checkpoints and parked late reports
//! ([`RoundLog::compact_coordinator_states`]).
//!
//! ## Snapshot + replay semantics
//!
//! A checkpoint is a clone of the shard's [`RoundState`] — there is no
//! separate checkpoint type. [`RoundLog::snapshot`] stores one per live
//! shard and drops every retained record (they are all at or below the
//! new watermark by construction). A cold restart of shard `s` clones
//! `checkpoint_for(s)` (or opens a fresh state) and absorbs the shard's
//! `Absorbed` suffix above the watermark, by reference, in sequence
//! order.

use crate::backend::RoundState;
use ew_proto::{Envelope, JournalEvent, JournalRecord};
use std::collections::BTreeMap;

/// The append-only, sequence-numbered round log with snapshot-bounded
/// depth.
#[derive(Debug, Default)]
pub struct RoundLog {
    /// Retained records: everything appended after the watermark.
    records: Vec<JournalRecord>,
    /// Next sequence number to assign (sequence numbers are 1-based so
    /// watermark 0 means "nothing snapshotted").
    next_seq: u64,
    /// Highest sequence number covered by the latest snapshot; records
    /// at or below it have been truncated.
    watermark: u64,
    /// Per-shard round states cloned at the watermark.
    checkpoints: BTreeMap<u32, RoundState>,
    /// Total records dropped by snapshots (telemetry).
    truncated: u64,
}

impl RoundLog {
    /// An empty log (sequence numbers start at 1).
    pub fn new() -> Self {
        RoundLog {
            next_seq: 1,
            ..RoundLog::default()
        }
    }

    /// Resets the log for a new round: records, checkpoints and
    /// sequence numbering all start over (a round is the log's epoch).
    pub fn open(&mut self) {
        *self = RoundLog::new();
    }

    /// Appends `event` as the next sequence-numbered record. Returns the
    /// assigned sequence number.
    pub fn append(&mut self, event: JournalEvent) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.records.push(JournalRecord { seq, event });
        seq
    }

    /// The highest sequence number assigned so far (0 if none).
    pub fn last_seq(&self) -> u64 {
        self.next_seq - 1
    }

    /// Retained (un-truncated) records, oldest first.
    pub fn records(&self) -> &[JournalRecord] {
        &self.records
    }

    /// How many records are currently retained.
    pub fn depth(&self) -> usize {
        self.records.len()
    }

    /// The snapshot watermark (0 = never snapshotted this round).
    pub fn watermark(&self) -> u64 {
        self.watermark
    }

    /// Total records truncated by snapshots this round.
    pub fn truncated_total(&self) -> u64 {
        self.truncated
    }

    /// The envelopes `shard` absorbed above the watermark, in sequence
    /// order — the suffix a restarted shard re-absorbs on top of its
    /// checkpoint.
    pub(crate) fn absorbed_by(&self, shard: u32) -> impl Iterator<Item = &Envelope> {
        self.records.iter().filter_map(move |rec| match &rec.event {
            JournalEvent::Absorbed { shard: s, envelope } if *s == shard => Some(envelope),
            _ => None,
        })
    }

    /// An owned copy of `shard`'s absorbed suffix, in sequence order.
    pub fn replay_for_shard(&self, shard: u32) -> Vec<Envelope> {
        self.absorbed_by(shard).cloned().collect()
    }

    /// Installs per-shard checkpoints covering everything appended so
    /// far, advances the watermark to the last assigned sequence number
    /// and truncates the retained records.
    pub fn snapshot(&mut self, checkpoints: Vec<(u32, RoundState)>) {
        self.checkpoints = checkpoints.into_iter().collect();
        self.watermark = self.last_seq();
        self.truncated += self.records.len() as u64;
        self.records.clear();
    }

    /// The latest checkpoint for `shard`, if one was snapshotted.
    pub fn checkpoint_for(&self, shard: u32) -> Option<&RoundState> {
        self.checkpoints.get(&shard)
    }

    /// Control-plane compaction: drops every `CoordinatorState` record
    /// except the latest. Coordinator restore only ever reads the
    /// newest checkpoint, so the ones it supersedes are dead weight the
    /// moment it lands — without this, a long campaign's control log
    /// would grow by one checkpoint per tick-boundary mutation.
    /// Sequence numbering and every other record kind are untouched.
    pub fn compact_coordinator_states(&mut self) {
        let latest = self
            .records
            .iter()
            .rev()
            .find(|rec| matches!(rec.event, JournalEvent::CoordinatorState { .. }))
            .map(|rec| rec.seq);
        let Some(latest) = latest else { return };
        let before = self.records.len();
        self.records.retain(|rec| {
            !matches!(rec.event, JournalEvent::CoordinatorState { .. }) || rec.seq == latest
        });
        self.truncated += (before - self.records.len()) as u64;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ew_proto::{CoordinatorCheckpoint, Message, NodeId};
    use ew_sketch::CmsParams;

    fn report_env(user: u32, round: u64, seed: u64) -> Envelope {
        Envelope::new(
            NodeId::Client(user),
            round,
            Message::Report {
                user,
                round,
                depth: 2,
                width: 4,
                seed,
                cells: vec![user; 8],
            },
        )
    }

    fn absorb(log: &mut RoundLog, shard: u32, env: Envelope) -> u64 {
        log.append(JournalEvent::Absorbed {
            shard,
            envelope: env,
        })
    }

    #[test]
    fn sequence_numbers_are_one_based_and_dense() {
        let mut log = RoundLog::new();
        assert_eq!(log.last_seq(), 0);
        assert_eq!(absorb(&mut log, 0, report_env(1, 7, 1)), 1);
        assert_eq!(absorb(&mut log, 1, report_env(2, 7, 1)), 2);
        assert_eq!(log.last_seq(), 2);
        assert_eq!(log.depth(), 2);
    }

    #[test]
    fn snapshot_truncates_but_keeps_the_index() {
        let mut log = RoundLog::new();
        let mut state = RoundState::open(CmsParams::new(2, 4, 1), 7);
        for user in [5, 6] {
            let env = report_env(user, 7, 1);
            state.absorb(&env, |_| true).unwrap();
            absorb(&mut log, 0, env);
        }
        log.snapshot(vec![(0, state)]);
        assert_eq!(log.depth(), 0);
        assert_eq!(log.watermark(), 2);
        assert_eq!(log.truncated_total(), 2);
        // The shard's seen-set outlives the records, in its checkpoint.
        assert!(log.checkpoint_for(0).is_some_and(|s| s.has_reported(5)));
        // New appends continue the sequence above the watermark.
        assert_eq!(absorb(&mut log, 0, report_env(7, 7, 3)), 3);
        assert_eq!(log.depth(), 1);
    }

    #[test]
    fn replay_suffix_is_per_shard_in_sequence_order() {
        let mut log = RoundLog::new();
        absorb(&mut log, 0, report_env(1, 7, 1));
        absorb(&mut log, 1, report_env(2, 7, 2));
        absorb(&mut log, 0, report_env(3, 7, 3));
        log.append(JournalEvent::ReportParked {
            epoch: 1,
            round: 7,
            envelope: report_env(4, 7, 4),
        });
        let suffix = log.replay_for_shard(0);
        assert_eq!(suffix.len(), 2);
        assert_eq!(suffix[0].sender, NodeId::Client(1));
        assert_eq!(suffix[1].sender, NodeId::Client(3));
    }

    #[test]
    fn compaction_keeps_only_the_latest_coordinator_state() {
        let state = |epoch| {
            JournalEvent::CoordinatorState(CoordinatorCheckpoint {
                epoch,
                round: epoch,
                phase: 0x00,
                version: epoch as u32,
                ledger_epoch: epoch,
                min_clients: 2,
                members: vec![1, 2],
                roster: vec![1, 2],
                pending_joins: vec![],
                pending_leaves: vec![],
                dropped: vec![],
                deadline: 0,
                last_tick: epoch,
            })
        };
        let mut log = RoundLog::new();
        log.compact_coordinator_states(); // no checkpoints: a no-op
        log.append(state(1));
        log.append(JournalEvent::ReportParked {
            epoch: 1,
            round: 1,
            envelope: report_env(4, 1, 9),
        });
        log.append(state(2));
        log.append(state(3));
        log.compact_coordinator_states();
        // The parked report and the newest checkpoint survive; the two
        // superseded checkpoints are truncated.
        assert_eq!(log.depth(), 2);
        assert_eq!(log.truncated_total(), 2);
        assert_eq!(log.last_seq(), 4, "sequence numbering is untouched");
        assert!(matches!(
            log.records(),
            [
                JournalRecord {
                    event: JournalEvent::ReportParked { .. },
                    ..
                },
                JournalRecord {
                    event: JournalEvent::CoordinatorState(CoordinatorCheckpoint { epoch: 3, .. }),
                    ..
                },
            ]
        ));
    }

    #[test]
    fn open_resets_the_epoch() {
        let mut log = RoundLog::new();
        absorb(&mut log, 0, report_env(1, 7, 1));
        log.snapshot(Vec::new());
        log.open();
        assert_eq!(log.last_seq(), 0);
        assert_eq!(log.watermark(), 0);
        assert_eq!(log.truncated_total(), 0);
        assert_eq!(absorb(&mut log, 0, report_env(1, 8, 1)), 1);
    }
}

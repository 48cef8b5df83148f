//! The metadata database of Figure 1 (the paper uses MySQL): active
//! users and the anonymized per-round aggregates.
//! An in-memory engine — storage technology is irrelevant to the
//! reproduced algorithmics, the *schema* is what matters.

use ew_core::ThresholdPolicy;
use std::collections::BTreeMap;

/// Registration record for one active user.
#[derive(Debug, Clone, PartialEq)]
pub struct UserRecord {
    /// User id (matches the key directory).
    pub user: u32,
    /// Enrolment round.
    pub enrolled_round: u64,
    /// Last round this user reported in.
    pub last_report_round: Option<u64>,
}

/// Historic (anonymized) per-round aggregate row.
#[derive(Debug, Clone, PartialEq)]
pub struct RoundRecord {
    /// The round index.
    pub round: u64,
    /// Number of reports aggregated.
    pub reports: usize,
    /// Number of clients declared missing.
    pub missing: usize,
    /// The policy used for the threshold.
    pub policy: ThresholdPolicy,
    /// The computed `Users_th`.
    pub users_threshold: f64,
    /// Number of ads with positive counts.
    pub positive_ads: usize,
}

/// The system database.
#[derive(Debug, Clone, Default)]
pub struct Store {
    users: BTreeMap<u32, UserRecord>,
    rounds: BTreeMap<u64, RoundRecord>,
}

impl Store {
    /// Empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a user at enrolment.
    pub fn register_user(&mut self, user: u32, round: u64) {
        self.users.entry(user).or_insert(UserRecord {
            user,
            enrolled_round: round,
            last_report_round: None,
        });
    }

    /// Marks a user as having reported in `round`.
    pub fn mark_reported(&mut self, user: u32, round: u64) {
        if let Some(rec) = self.users.get_mut(&user) {
            rec.last_report_round = Some(round);
        }
    }

    /// Number of registered users.
    pub fn active_users(&self) -> usize {
        self.users.len()
    }

    /// Users that have not reported since `round` (churn candidates the
    /// operator may want to withdraw from the directory).
    pub fn stale_users(&self, round: u64) -> Vec<u32> {
        self.users
            .values()
            .filter(|r| r.last_report_round.is_none_or(|lr| lr < round))
            .map(|r| r.user)
            .collect()
    }

    /// Stores a finalized round's aggregate row.
    pub fn record_round(&mut self, rec: RoundRecord) {
        self.rounds.insert(rec.round, rec);
    }

    /// Fetches a round row.
    pub fn round(&self, round: u64) -> Option<&RoundRecord> {
        self.rounds.get(&round)
    }

    /// Threshold history, oldest first (the Figure 2 time series).
    pub fn threshold_history(&self) -> Vec<(u64, f64)> {
        self.rounds
            .values()
            .map(|r| (r.round, r.users_threshold))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn user_lifecycle() {
        let mut store = Store::new();
        store.register_user(1, 0);
        store.register_user(2, 0);
        store.register_user(1, 5); // duplicate registration ignored
        assert_eq!(store.active_users(), 2);
        assert_eq!(store.users.get(&1).unwrap().enrolled_round, 0);

        store.mark_reported(1, 3);
        assert_eq!(store.stale_users(3), vec![2]);
        assert_eq!(store.stale_users(4), vec![1, 2]);
    }

    #[test]
    fn round_history() {
        let mut store = Store::new();
        for round in 1..=3u64 {
            store.record_round(RoundRecord {
                round,
                reports: 10,
                missing: 0,
                policy: ThresholdPolicy::Mean,
                users_threshold: round as f64 + 0.5,
                positive_ads: 100,
            });
        }
        assert_eq!(store.round(2).unwrap().users_threshold, 2.5);
        assert_eq!(
            store.threshold_history(),
            vec![(1, 1.5), (2, 2.5), (3, 3.5)]
        );
        assert!(store.round(9).is_none());
    }
}

//! Deterministic membership-churn campaigns for the epoch coordinator.
//!
//! The weekly driver ([`crate::driver::WeeklyDriver`]) models *what the
//! population browses*; this module models *who the population is*: a
//! multi-epoch schedule of joins, clean leaves and mid-epoch dropouts,
//! generated as a pure function of its seed so determinism suites can
//! replay the identical churn history through different buses and
//! cluster sizes.
//!
//! A campaign tracks the roster the same way the coordinator folds it —
//! an epoch's roster is the previous epoch's survivors plus its joins;
//! its survivors are the roster minus that epoch's drops and leaves — so
//! a consuming driver can feed the schedule straight into the
//! coordinator and know the two views of membership agree.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeSet;

/// Parameters of one churn campaign.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChurnConfig {
    /// Total pool of user ids churn draws from (ids `0..population`).
    pub population: u32,
    /// Members joining before the first epoch forms.
    pub initial: u32,
    /// The coordinator's admission threshold, mirrored here so a
    /// scripted collapse knows how many drops push the epoch under it.
    pub min_clients: u32,
    /// Epochs the campaign schedules.
    pub epochs: u32,
    /// Fraction of the current roster size joining (from outside the
    /// roster) at each later epoch.
    pub join_rate: f64,
    /// Fraction of the roster departing cleanly per epoch (registered
    /// during the report window, counted in the round, gone after).
    pub leave_rate: f64,
    /// Fraction of the roster dropping silently mid-reports per epoch
    /// (the recovery path's silent set).
    pub drop_rate: f64,
    /// Flappy clients: this many of the initial members leave cleanly
    /// in every even epoch and rejoin in the next one.
    pub flappy: u32,
    /// Scripted below-`min_clients` collapse: at this (1-based) epoch,
    /// enough members drop mid-reports to push the effective roster
    /// under the threshold. `0` disables.
    pub collapse_at: u32,
    /// Campaign seed; the schedule is a pure function of the config.
    pub seed: u64,
}

impl Default for ChurnConfig {
    fn default() -> Self {
        ChurnConfig {
            population: 32,
            initial: 12,
            min_clients: 4,
            epochs: 4,
            join_rate: 0.10,
            leave_rate: 0.05,
            drop_rate: 0.05,
            flappy: 1,
            collapse_at: 0,
            seed: 0xC0FF_EE00,
        }
    }
}

/// One epoch's scheduled churn, in the coordinator's terms.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct EpochChurn {
    /// Users joining before this epoch's admission (land in the forming
    /// roster — or the pending set, if an epoch is still running).
    pub joins: Vec<u32>,
    /// Clean departures registered during the report window: they owe
    /// this round's report and adjustment and depart when the epoch
    /// completes.
    pub leaves: Vec<u32>,
    /// Silent mid-reports dropouts: the round's silent set, folded into
    /// the existing adjustment/recovery path.
    pub drops: Vec<u32>,
}

/// A generated multi-epoch churn schedule plus its roster bookkeeping.
#[derive(Debug, Clone)]
pub struct ChurnCampaign {
    config: ChurnConfig,
    epochs: Vec<EpochChurn>,
    /// The roster each epoch runs over (after joins, before churn).
    rosters: Vec<Vec<u32>>,
}

/// Draws `count` members from `pool` (ascending ids), deterministically
/// for a given RNG state, without replacement.
fn sample(rng: &mut StdRng, pool: &BTreeSet<u32>, count: usize) -> Vec<u32> {
    let mut candidates: Vec<u32> = pool.iter().copied().collect();
    let count = count.min(candidates.len());
    let mut picked = Vec::with_capacity(count);
    for _ in 0..count {
        let i = rng.gen_range(0..candidates.len());
        picked.push(candidates.swap_remove(i));
    }
    picked.sort_unstable();
    picked
}

impl ChurnCampaign {
    /// Generates the schedule — a pure function of `config`.
    pub fn generate(config: ChurnConfig) -> Self {
        let mut rng = StdRng::seed_from_u64(config.seed ^ 0x0E70_C417);
        let initial = config.initial.min(config.population);
        let flappy: BTreeSet<u32> = (0..config.flappy.min(initial)).collect();
        let mut roster: BTreeSet<u32> = BTreeSet::new();
        let mut epochs = Vec::new();
        let mut rosters = Vec::new();

        for epoch in 1..=config.epochs {
            let mut spec = EpochChurn::default();

            // Joins: the initial cohort at epoch 1; later, a join_rate
            // slice of the outside pool, plus flappy members returning
            // from their even-epoch absence.
            if epoch == 1 {
                spec.joins = (0..initial).collect();
            } else {
                let outside: BTreeSet<u32> = (0..config.population)
                    .filter(|u| !roster.contains(u))
                    .collect();
                let want = (config.join_rate * roster.len() as f64).ceil() as usize;
                spec.joins = sample(&mut rng, &outside, want);
                for &f in &flappy {
                    if epoch % 2 == 1 && !roster.contains(&f) && !spec.joins.contains(&f) {
                        spec.joins.push(f);
                    }
                }
                spec.joins.sort_unstable();
            }
            roster.extend(spec.joins.iter().copied());
            rosters.push(roster.iter().copied().collect());

            // Drops: a scripted collapse overrides the rate at its
            // epoch, pushing the effective roster below min_clients.
            let drop_count = if epoch == config.collapse_at {
                (roster.len() + 1).saturating_sub(config.min_clients as usize)
            } else {
                (config.drop_rate * roster.len() as f64).round() as usize
            };
            spec.drops = sample(&mut rng, &roster, drop_count);

            // Clean leaves: drawn from the remaining members, plus the
            // flappy members bowing out on even epochs.
            let still: BTreeSet<u32> = roster
                .iter()
                .copied()
                .filter(|u| !spec.drops.contains(u))
                .collect();
            let leave_count = (config.leave_rate * roster.len() as f64).round() as usize;
            spec.leaves = sample(&mut rng, &still, leave_count);
            for &f in &flappy {
                if epoch % 2 == 0
                    && still.contains(&f)
                    && !spec.leaves.contains(&f)
                    && !spec.drops.contains(&f)
                {
                    spec.leaves.push(f);
                }
            }
            spec.leaves.sort_unstable();

            for gone in spec.drops.iter().chain(&spec.leaves) {
                roster.remove(gone);
            }
            epochs.push(spec);
        }
        ChurnCampaign {
            config,
            epochs,
            rosters,
        }
    }

    /// The generating config.
    pub fn config(&self) -> &ChurnConfig {
        &self.config
    }

    /// The per-epoch churn schedule, in epoch order.
    pub fn epochs(&self) -> &[EpochChurn] {
        &self.epochs
    }

    /// The roster epoch `i` (0-based) runs over, ascending — the
    /// campaign's own bookkeeping, for asserting the coordinator agrees.
    pub fn roster_of(&self, i: usize) -> &[u32] {
        &self.rosters[i]
    }
}

/// The churn configurations a soak suite should drive: steady low
/// churn, an aggressive join/leave mix with flappy clients, and a
/// campaign with a scripted mid-campaign collapse — each deterministic
/// under `seed`.
pub fn churn_matrix(seed: u64) -> Vec<ChurnConfig> {
    vec![
        // Multi-week steady state: ~10% churn, the bench's shape.
        ChurnConfig {
            population: 48,
            initial: 20,
            min_clients: 4,
            epochs: 5,
            join_rate: 0.10,
            leave_rate: 0.05,
            drop_rate: 0.05,
            flappy: 0,
            collapse_at: 0,
            seed,
        },
        // Aggressive churn with flappy clients and late-epoch joins.
        ChurnConfig {
            population: 40,
            initial: 14,
            min_clients: 3,
            epochs: 5,
            join_rate: 0.30,
            leave_rate: 0.15,
            drop_rate: 0.10,
            flappy: 2,
            collapse_at: 0,
            seed: seed ^ 0xF1A5,
        },
        // A scripted below-min_clients collapse mid-campaign.
        ChurnConfig {
            population: 24,
            initial: 8,
            min_clients: 4,
            epochs: 4,
            join_rate: 0.25,
            leave_rate: 0.05,
            drop_rate: 0.05,
            flappy: 0,
            collapse_at: 2,
            seed: seed ^ 0xC011,
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn campaign_is_a_pure_function_of_its_config() {
        let config = ChurnConfig::default();
        let a = ChurnCampaign::generate(config);
        let b = ChurnCampaign::generate(config);
        assert_eq!(a.epochs(), b.epochs());
        let other = ChurnCampaign::generate(ChurnConfig {
            seed: config.seed ^ 1,
            ..config
        });
        assert_ne!(
            a.epochs(),
            other.epochs(),
            "a different seed schedules different churn"
        );
    }

    #[test]
    fn rosters_evolve_as_survivors_plus_joins() {
        let campaign = ChurnCampaign::generate(ChurnConfig::default());
        let specs = campaign.epochs();
        assert_eq!(specs[0].joins, (0..12).collect::<Vec<u32>>());
        let mut roster: BTreeSet<u32> = BTreeSet::new();
        for (i, spec) in specs.iter().enumerate() {
            roster.extend(spec.joins.iter().copied());
            assert_eq!(
                campaign.roster_of(i),
                roster.iter().copied().collect::<Vec<u32>>()
            );
            // Churn only ever names current members, disjointly.
            for u in spec.drops.iter().chain(&spec.leaves) {
                assert!(roster.contains(u));
            }
            assert!(spec.drops.iter().all(|u| !spec.leaves.contains(u)));
            for gone in spec.drops.iter().chain(&spec.leaves) {
                roster.remove(gone);
            }
        }
    }

    #[test]
    fn scripted_collapse_drops_below_min_clients() {
        let config = ChurnConfig {
            collapse_at: 2,
            ..ChurnConfig::default()
        };
        let campaign = ChurnCampaign::generate(config);
        let spec = &campaign.epochs()[1];
        let roster_len = campaign.roster_of(1).len();
        assert!(
            roster_len - spec.drops.len() < config.min_clients as usize,
            "epoch 2 must fall under the threshold ({} - {} vs {})",
            roster_len,
            spec.drops.len(),
            config.min_clients
        );
    }

    #[test]
    fn flappy_clients_alternate_leave_and_rejoin() {
        let config = ChurnConfig {
            flappy: 1,
            leave_rate: 0.0,
            drop_rate: 0.0,
            join_rate: 0.0,
            epochs: 4,
            ..ChurnConfig::default()
        };
        let campaign = ChurnCampaign::generate(config);
        let specs = campaign.epochs();
        assert!(specs[1].leaves.contains(&0), "flaps out on epoch 2");
        assert!(specs[2].joins.contains(&0), "flaps back in on epoch 3");
        assert!(specs[3].leaves.contains(&0), "and out again on epoch 4");
    }

    #[test]
    fn matrix_covers_steady_aggressive_and_collapse() {
        let matrix = churn_matrix(7);
        assert_eq!(matrix.len(), 3);
        assert!(matrix.iter().any(|c| c.collapse_at > 0));
        assert!(matrix.iter().any(|c| c.flappy > 0));
        for config in matrix {
            let campaign = ChurnCampaign::generate(config);
            assert_eq!(campaign.epochs().len(), config.epochs as usize);
            assert!(campaign
                .epochs()
                .iter()
                .skip(1)
                .any(|e| !e.joins.is_empty() || !e.leaves.is_empty() || !e.drops.is_empty()));
        }
    }
}

//! Multi-client scenario driver for the weekly-round pipeline.
//!
//! The system layer is exercised by workloads whose cohort spans many
//! clients and, clustered, many backend shards. This driver packages
//! the recurring shape — a Table 1-scale world, an enrolled sub-cohort,
//! a sequence of weekly impression logs — behind one deterministic,
//! seed-addressed object: the same `(seed, scale, week)` triple always
//! yields the same log, so parity tests can replay identical workloads
//! through different buses and cluster sizes, and benchmarks can dial
//! the scale without re-deriving scenario parameters.

use crate::config::ScenarioConfig;
use crate::engine::Scenario;
use crate::log::ImpressionLog;

/// Workload sizes the driver can produce.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DriverScale {
    /// The paper's Table 1 world, verbatim: 500 users, 1000 sites,
    /// ~138 visits per user per week.
    Table1,
    /// Table 1 shrunk to `1/n` of the users/sites (visit rate kept), for
    /// debug-build test runs that still span many clients.
    Fraction(usize),
}

/// A deterministic weekly-workload generator over one built scenario.
#[derive(Debug, Clone)]
pub struct WeeklyDriver {
    scenario: Scenario,
    cohort: usize,
}

impl WeeklyDriver {
    /// Builds a driver at the given scale. `cohort` is the number of
    /// enrolled clients the consuming system should create; it is
    /// clamped to the scenario's user population (the paper enrolled a
    /// panel smaller than the simulated population).
    pub fn new(seed: u64, scale: DriverScale, cohort: usize) -> Self {
        let config = match scale {
            DriverScale::Table1 => ScenarioConfig::table1(seed),
            DriverScale::Fraction(n) => {
                let n = n.max(1);
                let t = ScenarioConfig::table1(seed);
                ScenarioConfig {
                    num_users: (t.num_users / n).max(1),
                    num_websites: (t.num_websites / n).max(1),
                    ..t
                }
            }
        };
        let scenario = Scenario::build(config);
        let cohort = cohort.min(scenario.config.num_users).max(1);
        WeeklyDriver { scenario, cohort }
    }

    /// Table 1-scale driver with the full population enrolled.
    pub fn table1(seed: u64) -> Self {
        WeeklyDriver::new(seed, DriverScale::Table1, usize::MAX)
    }

    /// The built ecosystem.
    pub fn scenario(&self) -> &Scenario {
        &self.scenario
    }

    /// Number of clients the consuming system should enroll.
    pub fn cohort(&self) -> usize {
        self.cohort
    }

    /// The impression log for week `week` — a pure function of
    /// `(seed, scale, week)`.
    pub fn week(&self, week: u64) -> ImpressionLog {
        self.scenario.run_week(week)
    }

    /// The first `n` weekly logs, in order.
    pub fn weeks(&self, n: u64) -> Vec<ImpressionLog> {
        (0..n).map(|w| self.week(w)).collect()
    }

    /// The recurring test/bench bundle in one call: the built scenario,
    /// the first `weeks` logs and the cohort size — everything a
    /// consuming system needs to enroll, ingest and run rounds.
    pub fn workload(&self, weeks: u64) -> (&Scenario, Vec<ImpressionLog>, usize) {
        (self.scenario(), self.weeks(weeks), self.cohort())
    }

    /// The multi-backend configurations a cluster parity suite or bench
    /// should drive this workload through: one [`ClusterScenario`] per
    /// requested backend count, plus — for every count with more than
    /// one shard — a variant that severs one shard's uplink mid-round
    /// (after the cohort's first third of report envelopes is in
    /// flight), so the re-link and in-flight re-send path is exercised
    /// at every multi-shard size. The severed shard keeps its range.
    pub fn cluster_matrix(&self, backends: &[usize]) -> Vec<ClusterScenario> {
        let mut out = Vec::new();
        for &n in backends {
            let n = n.max(1);
            out.push(ClusterScenario {
                backends: n,
                failover: None,
                restart: None,
            });
            if n > 1 {
                out.push(ClusterScenario {
                    backends: n,
                    failover: Some(ShardKill {
                        shard: (n - 1) as u32,
                        after_sends: self.cohort / 3,
                    }),
                    restart: None,
                });
            }
        }
        out
    }

    /// The crash-restart drill matrix: for every requested backend
    /// count, every shard index is cold-crashed and restarted at every
    /// [`RestartPhase`] boundary. Unlike [`ShardKill`] — which severs
    /// only a shard's uplink, so its state never moves — a
    /// [`ShardRestart`] destroys the shard's state and brings it back
    /// from durable state, so even a single-shard cluster is drilled.
    pub fn restart_matrix(&self, backends: &[usize]) -> Vec<ClusterScenario> {
        let mut out = Vec::new();
        for &n in backends {
            let n = n.max(1);
            for shard in 0..n as u32 {
                for phase in [
                    RestartPhase::Reports,
                    RestartPhase::Recovery,
                    RestartPhase::MidReplay,
                ] {
                    out.push(ClusterScenario {
                        backends: n,
                        failover: None,
                        restart: Some(ShardRestart { shard, phase }),
                    });
                }
            }
        }
        out
    }
}

/// One multi-backend configuration of the weekly workload: how many
/// aggregation shards to run, an optional scripted mid-round uplink
/// sever ([`ShardKill`]) for sever drills, and an optional scripted
/// crash-restart ([`ShardRestart`]) for recovery drills. Produced by
/// [`WeeklyDriver::cluster_matrix`] and [`WeeklyDriver::restart_matrix`];
/// the consuming system maps it onto its cluster driver (shard map
/// size, routing-bus failure plan, restart injection point).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClusterScenario {
    /// Backend shard count.
    pub backends: usize,
    /// Scripted mid-round uplink sever, if any.
    pub failover: Option<ShardKill>,
    /// Scripted mid-round crash-restart, if any.
    pub restart: Option<ShardRestart>,
}

/// A scripted uplink sever, armed on the routing bus that carries the
/// shard's uplink: `shard`'s uplink is severed after `after_sends`
/// backend-bound envelopes have been routed. The shard gets a fresh link
/// and its in-flight envelopes again; it keeps its key range and its
/// state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardKill {
    /// The shard whose uplink is severed.
    pub shard: u32,
    /// Backend-bound envelopes routed before the sever.
    pub after_sends: usize,
}

/// A scripted cold crash-restart: `shard`'s process state is destroyed
/// at the [`RestartPhase`] boundary and rebuilt from the durable round
/// log alone (snapshot checkpoint + `Absorbed` suffix replay). The map
/// is untouched — the shard keeps its key range and must come back.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardRestart {
    /// The shard to crash and restart.
    pub shard: u32,
    /// When the crash strikes.
    pub phase: RestartPhase,
}

/// Where in the round a scripted [`ShardRestart`] strikes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RestartPhase {
    /// After the report wave is absorbed, before recovery starts.
    Reports,
    /// After the recovery wave is absorbed, before finalization.
    Recovery,
    /// Mid-replay: the restarted shard is crashed *again* immediately
    /// after its first replay completes — proving replay idempotence.
    MidReplay,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn driver_is_deterministic_per_seed_and_week() {
        let a = WeeklyDriver::new(5, DriverScale::Fraction(20), 16);
        let b = WeeklyDriver::new(5, DriverScale::Fraction(20), 16);
        assert_eq!(a.cohort(), b.cohort());
        for week in 0..2 {
            assert_eq!(a.week(week).records(), b.week(week).records());
        }
        // Same driver, different weeks: different logs.
        assert_ne!(a.week(0).records(), a.week(1).records());
    }

    #[test]
    fn fraction_scales_population_down() {
        let d = WeeklyDriver::new(9, DriverScale::Fraction(10), usize::MAX);
        assert_eq!(d.scenario().config.num_users, 50);
        assert_eq!(d.scenario().config.num_websites, 100);
        assert_eq!(d.cohort(), 50);
        assert!(!d.week(0).is_empty());
    }

    #[test]
    fn table1_scale_is_the_paper_world() {
        // Build-only check (cohort arithmetic, no week simulated): the
        // full Table 1 world is heavy for a unit test.
        let d = WeeklyDriver::new(3, DriverScale::Table1, 100);
        assert_eq!(d.scenario().config.num_users, 500);
        assert_eq!(d.cohort(), 100);
    }

    #[test]
    fn cluster_matrix_covers_every_count_and_adds_sever_drills() {
        let d = WeeklyDriver::new(4, DriverScale::Fraction(25), 12);
        let matrix = d.cluster_matrix(&[1, 2, 4]);
        assert_eq!(matrix.len(), 5, "1 plain + (2, 4) × {{plain, sever}}");
        assert_eq!(
            matrix[0],
            ClusterScenario {
                backends: 1,
                failover: None,
                restart: None,
            },
            "a single shard is drilled by restarts, not severs"
        );
        for s in &matrix {
            if let Some(kill) = s.failover {
                assert!((kill.shard as usize) < s.backends);
                assert!(kill.after_sends < d.cohort(), "the sever lands mid-round");
            }
        }
    }

    #[test]
    fn restart_matrix_drills_every_shard_at_every_phase() {
        let d = WeeklyDriver::new(4, DriverScale::Fraction(25), 12);
        let matrix = d.restart_matrix(&[1, 2, 4]);
        assert_eq!(matrix.len(), (1 + 2 + 4) * 3, "shards × phases");
        for s in &matrix {
            assert_eq!(s.failover, None, "a restart drill severs no uplink");
            let restart = s.restart.expect("every drill restarts a shard");
            assert!((restart.shard as usize) < s.backends);
        }
        // Every phase boundary is covered for every shard index.
        for n in [1usize, 2, 4] {
            for shard in 0..n as u32 {
                for phase in [
                    RestartPhase::Reports,
                    RestartPhase::Recovery,
                    RestartPhase::MidReplay,
                ] {
                    assert!(matrix.iter().any(
                        |s| s.backends == n && s.restart == Some(ShardRestart { shard, phase })
                    ));
                }
            }
        }
    }

    #[test]
    fn weeks_returns_ordered_logs() {
        let d = WeeklyDriver::new(4, DriverScale::Fraction(25), 8);
        let logs = d.weeks(3);
        assert_eq!(logs.len(), 3);
        for (w, log) in logs.iter().enumerate() {
            assert_eq!(log.records(), d.week(w as u64).records());
        }
    }
}

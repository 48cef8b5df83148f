//! Scripted coordinator-fault scenarios for the epoch control plane.
//!
//! The churn module ([`crate::churn`]) schedules *who* joins and leaves;
//! this module schedules *what goes wrong at the top*: cold coordinator
//! crashes at chosen phase boundaries and deterministic straggler storms
//! that blow the report deadline. A consuming system maps a
//! [`CoordinatorFault`] onto its epoch runner — crash-and-restore the
//! coordinator from its journal checkpoint in the named [`CrashPoint`],
//! and withhold the storm's victims from the report wave, delivering
//! their reports `lateness` ticks after finalize so the grace window
//! (or its expiry) is exercised.
//!
//! Like every generator in this crate, the storm's victim selection is
//! a pure function of `(seed, epoch, roster)`, so determinism suites
//! can replay the identical fault history through different thread
//! counts, buses and cluster sizes.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Where in the epoch lifecycle a scripted coordinator crash strikes.
///
/// Each point names the coordinator phase of the same name. The
/// coordinator's ticks drive the round: the tick that enters a phase is
/// followed by that phase's round step. A crash strikes on that tick,
/// once the step is done and the coordinator is journaled, and the
/// coordinator is rebuilt from that checkpoint — so the drill proves
/// the checkpoint taken at the *boundary after* the step is sufficient
/// to resume the round. An epoch that collapses or has no grace window
/// never reaches the later points.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CrashPoint {
    /// After admission, while warmup ticks are still counting down;
    /// the round is not open yet.
    Warmup,
    /// At the start of the report window: the round is open and the
    /// window's leaves and drops are registered, but no report has
    /// been collected.
    Reports,
    /// At the start of recovery: the reports are absorbed and the
    /// `MissingClients` wave has been answered, but the round is not
    /// finalized.
    Recovery,
    /// At finalization: the round has published its view, but the
    /// epoch has not completed.
    Finalize,
    /// Mid grace window: the epoch has completed and its late reports
    /// are parked or refused.
    Grace,
}

impl CrashPoint {
    /// Every crash point, in lifecycle order — the drill matrix axis.
    pub const ALL: [CrashPoint; 5] = [
        CrashPoint::Warmup,
        CrashPoint::Reports,
        CrashPoint::Recovery,
        CrashPoint::Finalize,
        CrashPoint::Grace,
    ];

    /// The crash point's slot in [`CrashPoint::ALL`] — a stable numeric
    /// tag for trace events and matrix bookkeeping.
    pub fn index(self) -> usize {
        Self::ALL
            .iter()
            .position(|&p| p == self)
            .expect("ALL enumerates every crash point")
    }

    /// A stable lowercase label for trace annotations and logs.
    pub fn label(self) -> &'static str {
        match self {
            CrashPoint::Warmup => "warmup",
            CrashPoint::Reports => "reports",
            CrashPoint::Recovery => "recovery",
            CrashPoint::Finalize => "finalize",
            CrashPoint::Grace => "grace",
        }
    }
}

/// A scripted cold coordinator crash: process state destroyed at the
/// [`CrashPoint`] boundary of every epoch, rebuilt from the control
/// journal's latest checkpoint alone.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CoordinatorCrash {
    /// When the crash strikes.
    pub phase: CrashPoint,
}

/// A deterministic wave of stragglers: a slice of each epoch's roster
/// misses the report deadline and delivers late instead.
///
/// Victims are deadline-dropped into the §6 recovery path (their
/// silence is adjusted for); their reports then arrive `lateness` ticks
/// after finalize. Whether those land inside the grace window — parked
/// and folded into the next epoch — or after it — refused for good —
/// depends on the consuming coordinator's `grace_ticks`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StragglerStorm {
    /// Percentage of the epoch roster blowing the deadline (0–100;
    /// non-zero percentages victimise at least one member).
    pub percent: u32,
    /// Ticks past finalize at which the victims' reports arrive.
    pub lateness: u64,
    /// Selection seed; victims are a pure function of
    /// `(seed, epoch, roster)`.
    pub seed: u64,
}

impl StragglerStorm {
    /// The storm's victims for `epoch` (1-based), drawn from `roster`
    /// without replacement, ascending — deterministic per
    /// `(seed, epoch, roster)`.
    pub fn victims(&self, epoch: u64, roster: &[u32]) -> Vec<u32> {
        if roster.is_empty() || self.percent == 0 {
            return Vec::new();
        }
        let want = (self.percent.min(100) as usize * roster.len())
            .div_ceil(100)
            .min(roster.len());
        let mut rng = StdRng::seed_from_u64(self.seed ^ epoch.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let mut candidates: Vec<u32> = roster.to_vec();
        let mut picked = Vec::with_capacity(want);
        for _ in 0..want {
            let i = rng.gen_range(0..candidates.len());
            picked.push(candidates.swap_remove(i));
        }
        picked.sort_unstable();
        picked
    }
}

/// One coordinator-fault configuration: an optional scripted crash and
/// an optional straggler storm, layered over whatever churn schedule
/// the consuming runner drives. Produced by [`coordinator_fault_matrix`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CoordinatorFault {
    /// Scripted per-epoch coordinator crash, if any.
    pub crash: Option<CoordinatorCrash>,
    /// Scripted straggler storm, if any.
    pub storm: Option<StragglerStorm>,
}

impl CoordinatorFault {
    /// The fault-free baseline every matrix leads with.
    pub fn none() -> Self {
        CoordinatorFault {
            crash: None,
            storm: None,
        }
    }

    /// True when nothing is scripted.
    pub fn is_none(&self) -> bool {
        self.crash.is_none() && self.storm.is_none()
    }

    /// A compact human-readable annotation for this fault
    /// configuration — what a trace or soak log prints next to the
    /// scenario it is driving (e.g. `crash@reports+storm(25%,late=1)`).
    pub fn summary(&self) -> String {
        match (self.crash, self.storm) {
            (None, None) => "baseline".to_string(),
            (Some(crash), None) => format!("crash@{}", crash.phase.label()),
            (None, Some(storm)) => {
                format!("storm({}%,late={})", storm.percent, storm.lateness)
            }
            (Some(crash), Some(storm)) => format!(
                "crash@{}+storm({}%,late={})",
                crash.phase.label(),
                storm.percent,
                storm.lateness
            ),
        }
    }
}

/// The coordinator-fault configurations a soak suite should drive: the
/// fault-free baseline, a crash drill at every [`CrashPoint`], two
/// storm-only scenarios (one landing inside a one-tick grace window,
/// one blowing past it), and every crash × in-grace-storm combination —
/// so restart-under-parked-reports is exercised at every phase.
pub fn coordinator_fault_matrix(seed: u64) -> Vec<CoordinatorFault> {
    let in_grace = StragglerStorm {
        percent: 25,
        lateness: 1,
        seed,
    };
    let beyond_grace = StragglerStorm {
        percent: 25,
        lateness: 64,
        seed: seed ^ 0x5707,
    };
    let mut out = vec![CoordinatorFault::none()];
    for phase in CrashPoint::ALL {
        out.push(CoordinatorFault {
            crash: Some(CoordinatorCrash { phase }),
            storm: None,
        });
    }
    for storm in [in_grace, beyond_grace] {
        out.push(CoordinatorFault {
            crash: None,
            storm: Some(storm),
        });
    }
    for phase in CrashPoint::ALL {
        out.push(CoordinatorFault {
            crash: Some(CoordinatorCrash { phase }),
            storm: Some(in_grace),
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn storm_victims_are_a_pure_function_of_seed_epoch_and_roster() {
        let storm = StragglerStorm {
            percent: 30,
            lateness: 1,
            seed: 11,
        };
        let roster: Vec<u32> = (0..20).collect();
        assert_eq!(storm.victims(2, &roster), storm.victims(2, &roster));
        assert_ne!(
            storm.victims(2, &roster),
            storm.victims(3, &roster),
            "different epochs pick different victims"
        );
        let other = StragglerStorm { seed: 12, ..storm };
        assert_ne!(storm.victims(2, &roster), other.victims(2, &roster));
    }

    #[test]
    fn storm_scales_with_percent_and_never_exceeds_the_roster() {
        let roster: Vec<u32> = (0..10).collect();
        let pick = |percent| {
            StragglerStorm {
                percent,
                lateness: 1,
                seed: 7,
            }
            .victims(1, &roster)
        };
        assert!(pick(0).is_empty());
        assert_eq!(pick(1).len(), 1, "non-zero percent victimises someone");
        assert_eq!(pick(50).len(), 5);
        assert_eq!(pick(100).len(), 10);
        assert_eq!(pick(250).len(), 10, "over-100 clamps to the roster");
        let victims = pick(50);
        let mut sorted = victims.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(victims, sorted, "ascending, without replacement");
        assert!(victims.iter().all(|v| roster.contains(v)));
    }

    #[test]
    fn matrix_covers_every_crash_point_with_and_without_a_storm() {
        let matrix = coordinator_fault_matrix(9);
        assert_eq!(
            matrix.len(),
            1 + 5 + 2 + 5,
            "baseline + crashes + storms + crash×storm"
        );
        assert!(matrix[0].is_none(), "the baseline leads");
        for phase in CrashPoint::ALL {
            assert!(matrix
                .iter()
                .any(|f| f.crash == Some(CoordinatorCrash { phase }) && f.storm.is_none()));
            assert!(matrix
                .iter()
                .any(|f| f.crash == Some(CoordinatorCrash { phase }) && f.storm.is_some()));
        }
        assert!(
            matrix
                .iter()
                .any(|f| f.crash.is_none() && f.storm.is_some_and(|s| s.lateness <= 1)),
            "a storm that lands inside a one-tick grace window"
        );
        assert!(
            matrix
                .iter()
                .any(|f| f.crash.is_none() && f.storm.is_some_and(|s| s.lateness > 1)),
            "and one that blows past it"
        );
    }

    #[test]
    fn labels_indices_and_summaries_are_stable() {
        for (i, point) in CrashPoint::ALL.into_iter().enumerate() {
            assert_eq!(point.index(), i);
        }
        assert_eq!(CrashPoint::Reports.label(), "reports");
        assert_eq!(CoordinatorFault::none().summary(), "baseline");
        let storm = StragglerStorm {
            percent: 25,
            lateness: 1,
            seed: 3,
        };
        let fault = CoordinatorFault {
            crash: Some(CoordinatorCrash {
                phase: CrashPoint::Grace,
            }),
            storm: Some(storm),
        };
        assert_eq!(fault.summary(), "crash@grace+storm(25%,late=1)");
        assert_eq!(
            CoordinatorFault {
                crash: None,
                storm: Some(storm)
            }
            .summary(),
            "storm(25%,late=1)"
        );
        // Every matrix entry's summary is unique — a soak log can key
        // scenarios by it.
        let matrix = coordinator_fault_matrix(9);
        let mut summaries: Vec<String> = matrix.iter().map(|f| f.summary()).collect();
        summaries.sort();
        summaries.dedup();
        assert_eq!(summaries.len(), matrix.len());
    }
}

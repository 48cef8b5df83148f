//! Simulated users: interest profiles, activity levels and the
//! demographic attributes the §8 socio-economic bias study regresses on.

use crate::topics::{TopicId, NUM_TOPICS};
use rand::seq::SliceRandom;
use rand::Rng;

/// Gender levels, as in Table 2.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Gender {
    /// Female.
    Female,
    /// Male.
    Male,
}

/// Age brackets, as in Table 2 / Figure 5 (base level `A1_20`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum AgeBracket {
    /// 1–20 (base level in the paper's model).
    A1_20,
    /// 20–30.
    A20_30,
    /// 30–40.
    A30_40,
    /// 40–50.
    A40_50,
    /// 50–60.
    A50_60,
    /// 60–70.
    A60_70,
}

/// Annual income brackets in k€, as in Table 2 (base level `I0_30`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum IncomeBracket {
    /// 0–30k (base level).
    I0_30,
    /// 30k–60k.
    I30_60,
    /// 60k–90k.
    I60_90,
    /// 90k and above.
    I90Plus,
}

/// Employment status — collected by the paper's panel but found
/// non-useful by the §8.1 likelihood-ratio test (the simulator plants
/// *no* employment effect, so the reproduced test drops it too).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Employment {
    /// Employed full- or part-time.
    Employed,
    /// Self-employed.
    SelfEmployed,
    /// Student.
    Student,
    /// Unemployed or retired.
    NotWorking,
}

/// All employment levels, for sampling.
const EMPLOYMENT_LEVELS: [Employment; 4] = [
    Employment::Employed,
    Employment::SelfEmployed,
    Employment::Student,
    Employment::NotWorking,
];

/// All demographic attributes of one user.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Demographics {
    /// Gender.
    pub gender: Gender,
    /// Age bracket.
    pub age: AgeBracket,
    /// Income bracket.
    pub income: IncomeBracket,
    /// Employment status (never affects delivery; see [`Employment`]).
    pub employment: Employment,
}

/// All age levels, for sampling.
const AGE_LEVELS: [AgeBracket; 6] = [
    AgeBracket::A1_20,
    AgeBracket::A20_30,
    AgeBracket::A30_40,
    AgeBracket::A40_50,
    AgeBracket::A50_60,
    AgeBracket::A60_70,
];

/// All income levels, for sampling.
const INCOME_LEVELS: [IncomeBracket; 4] = [
    IncomeBracket::I0_30,
    IncomeBracket::I30_60,
    IncomeBracket::I60_90,
    IncomeBracket::I90Plus,
];

impl Demographics {
    /// Draws demographics uniformly at random.
    pub fn sample<R: Rng + ?Sized>(rng: &mut R) -> Self {
        Demographics {
            gender: if rng.gen_bool(0.5) {
                Gender::Female
            } else {
                Gender::Male
            },
            age: *AGE_LEVELS.choose(rng).expect("non-empty"),
            income: *INCOME_LEVELS.choose(rng).expect("non-empty"),
            employment: *EMPLOYMENT_LEVELS.choose(rng).expect("non-empty"),
        }
    }
}

/// One simulated user.
#[derive(Debug, Clone)]
pub struct User {
    /// Stable identifier (also the key in the crypto layer's directory).
    pub id: u32,
    /// Interest topics (a small subset of the taxonomy).
    pub interests: Vec<TopicId>,
    /// Relative browsing activity (1.0 = the configured average); the
    /// paper's panel had "varying level of activity".
    pub activity: f64,
    /// Demographic attributes for the bias study.
    pub demographics: Demographics,
}

impl User {
    /// Generates a user with `num_interests` distinct interest topics and
    /// a log-normal-ish activity spread.
    pub fn generate<R: Rng + ?Sized>(id: u32, num_interests: usize, rng: &mut R) -> Self {
        assert!(num_interests <= NUM_TOPICS, "more interests than topics");
        let mut all: Vec<TopicId> = (0..NUM_TOPICS).collect();
        all.shuffle(rng);
        all.truncate(num_interests);
        // Activity: multiplicative spread in [0.4, 2.2] around 1.
        let activity = 0.4 + rng.gen::<f64>().powi(2) * 1.8;
        User {
            id,
            interests: all,
            activity,
            demographics: Demographics::sample(rng),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn interests_distinct_and_bounded() {
        let mut rng = StdRng::seed_from_u64(1);
        for id in 0..50 {
            let u = User::generate(id, 3, &mut rng);
            assert_eq!(u.interests.len(), 3);
            let mut sorted = u.interests.clone();
            sorted.sort_unstable();
            sorted.dedup();
            assert_eq!(sorted.len(), 3, "interests must be distinct");
            assert!(sorted.iter().all(|&t| t < NUM_TOPICS));
        }
    }

    #[test]
    fn activity_in_expected_band() {
        let mut rng = StdRng::seed_from_u64(2);
        for id in 0..200 {
            let u = User::generate(id, 2, &mut rng);
            assert!(u.activity >= 0.4 && u.activity <= 2.2);
        }
    }

    #[test]
    fn demographics_cover_levels() {
        let mut rng = StdRng::seed_from_u64(3);
        let users: Vec<User> = (0..500).map(|id| User::generate(id, 2, &mut rng)).collect();
        for level in AGE_LEVELS {
            assert!(
                users.iter().any(|u| u.demographics.age == level),
                "age level {level:?} never sampled"
            );
        }
        for level in INCOME_LEVELS {
            assert!(
                users.iter().any(|u| u.demographics.income == level),
                "income level {level:?} never sampled"
            );
        }
        assert!(users
            .iter()
            .any(|u| u.demographics.gender == Gender::Female));
        assert!(users.iter().any(|u| u.demographics.gender == Gender::Male));
        for level in EMPLOYMENT_LEVELS {
            assert!(
                users.iter().any(|u| u.demographics.employment == level),
                "employment level {level:?} never sampled"
            );
        }
    }
}

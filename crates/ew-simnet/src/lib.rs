#![forbid(unsafe_code)]
#![warn(missing_docs)]
//! # ew-simnet — web browsing & ad-delivery ecosystem simulator
//!
//! The controlled-study environment of §7.2 of the paper: "We have built
//! a custom simulator, based on [Bürklen et al., User-Centric Walk,
//! ANSS'05], capable of simulating users, websites, and ad campaigns."
//! This crate is that simulator, with the Table 1 parameters as defaults:
//!
//! | Parameter                  | Value |
//! |----------------------------|-------|
//! | Number of users            | 500   |
//! | Number of websites         | 1000  |
//! | Average user visits        | 138   |
//! | Average ads per website    | 20    |
//! | Percentage of targeted ads | 0.1   |
//!
//! ## Model
//!
//! * **Websites** have Zipf-distributed popularity and a topic drawn from
//!   a fixed taxonomy ([`topics`]).
//! * **Users** carry an interest profile (a few topics), demographics
//!   (gender / age / income — used by the §8 bias study) and an activity
//!   level. Browsing follows a *user-centric walk*: a mixture of
//!   interest-driven site choice and global-popularity-driven choice,
//!   spread over the days of a week with a weekday/weekend rhythm.
//! * **Campaigns** come in the paper's five flavours (§2.1): directly
//!   targeted OBA, retargeting, *indirectly* targeted OBA, static
//!   ("brand awareness") and contextual. Targeted campaigns honour a
//!   per-user **frequency cap** — the x-axis of Figure 3.
//! * **Delivery** fills a fixed number of ad slots per page visit:
//!   eligible targeted campaigns compete for a slot share, the rest is
//!   served from the site's static/contextual pool.
//!
//! The output is an [`ImpressionLog`] of `(user, day, site, ad)` records
//! with hidden ground-truth labels, which the detection pipeline consumes
//! *without* looking at the labels — they are only compared afterwards.

pub mod campaign;
pub mod churn;
pub mod config;
pub mod driver;
pub mod engine;
pub mod faults;
pub mod log;
pub mod topics;
pub mod user;
pub mod web;

pub use campaign::{Ad, AdClass, AdId, Campaign, CampaignKind};
pub use churn::{churn_matrix, ChurnCampaign, ChurnConfig, EpochChurn};
pub use config::{ScenarioConfig, TargetingBias};
pub use driver::{
    ClusterScenario, DriverScale, RestartPhase, ShardKill, ShardRestart, WeeklyDriver,
};
pub use engine::{simulate_week, Scenario};
pub use faults::{
    coordinator_fault_matrix, CoordinatorCrash, CoordinatorFault, CrashPoint, StragglerStorm,
};
pub use log::{Impression, ImpressionLog};
pub use topics::{semantic_overlap, TopicId, NUM_TOPICS, TOPIC_NAMES};
pub use user::{AgeBracket, Demographics, Gender, IncomeBracket, User};
pub use web::Website;

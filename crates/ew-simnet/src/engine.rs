//! The scenario builder and the weekly simulation loop (user-centric
//! walk + ad delivery).

use crate::campaign::{Ad, AdClass, Campaign, CampaignKind};
use crate::config::ScenarioConfig;
use crate::log::{Impression, ImpressionLog};
use crate::topics::NUM_TOPICS;
use crate::user::{Gender, User};
use crate::web::{SiteId, Website};
use ew_stats::sampler::{poisson, Categorical, Zipf};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use std::collections::{HashMap, HashSet};

/// Relative browsing intensity per day of week (Mon..Sun): the paper's
/// time-window argument notes that "users tend to browse differently
/// during weekdays and weekends", so the walk is day-modulated.
const DAY_WEIGHTS: [f64; 7] = [1.0, 1.0, 1.0, 1.0, 1.1, 1.5, 1.4];

/// A fully built ecosystem: users, sites, campaigns and delivery indexes.
#[derive(Debug, Clone)]
pub struct Scenario {
    /// The configuration this scenario was built from.
    pub config: ScenarioConfig,
    /// The user population.
    pub users: Vec<User>,
    /// The publisher sites (site id = index).
    pub sites: Vec<Website>,
    /// All campaigns (campaign id = index; `AdId` == index as u64).
    pub campaigns: Vec<Campaign>,
    /// Global site popularity (rank = site id).
    popularity: Zipf,
    /// Per-topic popularity samplers over the sites of that topic.
    topic_sites: Vec<Vec<SiteId>>,
    topic_popularity: Vec<Option<Categorical>>,
    /// Direct/indirect targeted campaign ids per audience topic.
    targeted_by_topic: Vec<Vec<usize>>,
    /// Retargeting campaign ids per trigger site.
    retargeting_by_site: HashMap<SiteId, Vec<usize>>,
}

impl Scenario {
    /// Builds the ecosystem deterministically from `config.seed`.
    pub fn build(config: ScenarioConfig) -> Self {
        config.validate().expect("invalid scenario configuration");
        let mut rng = StdRng::seed_from_u64(config.seed);

        // --- Sites ---------------------------------------------------
        let mut sites: Vec<Website> = (0..config.num_websites as u32)
            .map(|id| Website::generate(id, &mut rng))
            .collect();
        let popularity = Zipf::new(config.num_websites, config.zipf_exponent);

        let mut topic_sites: Vec<Vec<SiteId>> = vec![Vec::new(); NUM_TOPICS];
        for s in &sites {
            topic_sites[s.topic].push(s.id);
        }
        let topic_popularity: Vec<Option<Categorical>> = topic_sites
            .iter()
            .map(|ids| {
                if ids.is_empty() {
                    None
                } else {
                    // Weight by the global Zipf mass of each member site.
                    let weights: Vec<f64> =
                        ids.iter().map(|&id| popularity.pmf(id as usize)).collect();
                    Some(Categorical::new(&weights))
                }
            })
            .collect();

        // --- Users ---------------------------------------------------
        let users: Vec<User> = (0..config.num_users as u32)
            .map(|id| User::generate(id, config.interests_per_user, &mut rng))
            .collect();

        // --- Campaigns -----------------------------------------------
        let mut campaigns: Vec<Campaign> = Vec::new();
        let mut targeted_by_topic: Vec<Vec<usize>> = vec![Vec::new(); NUM_TOPICS];
        let mut retargeting_by_site: HashMap<SiteId, Vec<usize>> = HashMap::new();

        let num_targeted = config.num_targeted_campaigns();
        let (p_direct, p_retarget, _p_indirect) = config.targeted_kind_mix;
        for i in 0..num_targeted {
            let id = campaigns.len();
            let roll: f64 = rng.gen();
            let kind = if roll < p_direct {
                let topic = rng.gen_range(0..NUM_TOPICS);
                targeted_by_topic[topic].push(id);
                CampaignKind::DirectOba {
                    audience_topic: topic,
                }
            } else if roll < p_direct + p_retarget {
                // Triggers are uniform over sites: retargeting follows
                // visitors of a *specific* (typically niche) shop, not
                // of the whole popular web — otherwise its audience
                // degenerates to "everyone" and the ad stops being
                // targeted in any meaningful sense.
                // ...and drawn from the tail 3/4 of the popularity
                // ranking: retargeting anchors live on shop sites, not
                // on the handful of mega-portals everyone visits.
                let site = rng.gen_range(config.num_websites / 4..config.num_websites) as SiteId;
                retargeting_by_site.entry(site).or_default().push(id);
                CampaignKind::Retargeting { trigger_site: site }
            } else {
                let audience = rng.gen_range(0..NUM_TOPICS);
                targeted_by_topic[audience].push(id);
                CampaignKind::IndirectOba {
                    audience_topic: audience,
                }
            };
            let content_topic = match &kind {
                CampaignKind::DirectOba { audience_topic } => *audience_topic,
                CampaignKind::Retargeting { trigger_site } => sites[*trigger_site as usize].topic,
                CampaignKind::IndirectOba { audience_topic } => {
                    // Pick a content topic guaranteed disjoint from the
                    // audience topic — that's what makes it "indirect".
                    let mut t = rng.gen_range(0..NUM_TOPICS);
                    while t == *audience_topic {
                        t = rng.gen_range(0..NUM_TOPICS);
                    }
                    t
                }
                _ => unreachable!("targeted kinds only"),
            };
            campaigns.push(Campaign {
                id,
                kind,
                ad: Ad {
                    id: id as u64,
                    content_topic,
                    network: (i % 5) as u8,
                },
                frequency_cap: config.frequency_cap,
            });
        }

        // Non-targeted inventory: broad static campaigns + per-site
        // contextual pool ads.
        let num_nontargeted = config.total_inventory().saturating_sub(num_targeted);
        let num_static = (num_nontargeted as f64 * config.pct_static_campaigns).round() as usize;
        let num_contextual = num_nontargeted - num_static;

        for _ in 0..num_static {
            let id = campaigns.len();
            // A brand-awareness campaign buys placements on a set of
            // sites, skewed toward popular ones (that's where brand
            // budgets go, and it is the §7.2.2 FP stressor).
            let spread = config.static_campaign_spread.max(1);
            let mut chosen: HashSet<SiteId> = HashSet::with_capacity(spread);
            while chosen.len() < spread.min(config.num_websites) {
                chosen.insert(popularity.sample(&mut rng) as SiteId);
            }
            let site_list: Vec<SiteId> = chosen.into_iter().collect();
            for &s in &site_list {
                sites[s as usize].ad_pool.push(id);
            }
            campaigns.push(Campaign {
                id,
                kind: CampaignKind::Static {
                    sites: site_list.clone(),
                },
                ad: Ad {
                    id: id as u64,
                    content_topic: rng.gen_range(0..NUM_TOPICS),
                    network: (id % 5) as u8,
                },
                frequency_cap: 0,
            });
        }

        // Contextual pool ads: distributed over sites so pools average
        // `avg_ads_per_website` entries; each matches its site's topic.
        for _ in 0..num_contextual {
            let id = campaigns.len();
            let site = rng.gen_range(0..config.num_websites) as SiteId;
            let topic = sites[site as usize].topic;
            sites[site as usize].ad_pool.push(id);
            campaigns.push(Campaign {
                id,
                kind: CampaignKind::Contextual,
                ad: Ad {
                    id: id as u64,
                    content_topic: topic,
                    network: (id % 5) as u8,
                },
                frequency_cap: 0,
            });
        }

        Scenario {
            config,
            users,
            sites,
            campaigns,
            popularity,
            topic_sites,
            topic_popularity,
            targeted_by_topic,
            retargeting_by_site,
        }
    }

    /// The demographic slot-share multiplier for a user (§8 bias hook).
    fn bias_multiplier(&self, user: &User) -> f64 {
        let b = &self.config.bias;
        let g = match user.demographics.gender {
            Gender::Female => b.female,
            Gender::Male => b.male,
        };
        let i = b.income[user.demographics.income as usize];
        let a = b.age[user.demographics.age as usize];
        g * i * a
    }

    /// Picks the site for one visit of `user` (user-centric walk step).
    fn pick_site<R: Rng + ?Sized>(&self, user: &User, rng: &mut R) -> SiteId {
        if rng.gen::<f64>() < self.config.interest_affinity {
            // Interest-driven: a random interest topic, then a
            // popularity-weighted site of that topic.
            let topic = *user.interests.choose(rng).expect("non-empty interests");
            if let Some(cat) = &self.topic_popularity[topic] {
                let idx = cat.sample(rng);
                return self.topic_sites[topic][idx];
            }
        }
        // Popularity-driven fallback.
        self.popularity.sample(rng) as SiteId
    }

    /// Runs one simulated week, returning the impression log.
    pub fn run_week(&self, week: u64) -> ImpressionLog {
        let mut rng = StdRng::seed_from_u64(self.config.seed ^ (0x5eed_0000 + week));
        let mut log = ImpressionLog::new();
        let day_dist = Categorical::new(&DAY_WEIGHTS);

        for user in &self.users {
            self.simulate_user_week(user, &day_dist, &mut rng, &mut log);
        }
        log
    }

    /// Simulates one user's week of browsing and ad exposure.
    fn simulate_user_week(
        &self,
        user: &User,
        day_dist: &Categorical,
        rng: &mut StdRng,
        log: &mut ImpressionLog,
    ) {
        let cfg = &self.config;
        let visits = poisson(rng, cfg.avg_user_visits * user.activity) as usize;

        // Assign each visit a day, then order chronologically so the
        // retargeting trigger logic (visit -> later pursuit) is causal.
        let mut days: Vec<u8> = (0..visits).map(|_| day_dist.sample(rng) as u8).collect();
        days.sort_unstable();

        // The set of targeted campaigns actively pursuing this user.
        // Interest-matched campaigns are sampled up front (a DSP decides
        // which matching segments to actually bid on); retargeting
        // campaigns join when the trigger site is visited.
        let mut matching: Vec<usize> = user
            .interests
            .iter()
            .flat_map(|&t| self.targeted_by_topic[t].iter().copied())
            .collect();
        matching.shuffle(rng);
        matching.truncate(cfg.pursuing_campaigns_per_user());
        let mut pursuing: Vec<usize> = matching;
        let mut pursuing_set: HashSet<usize> = pursuing.iter().copied().collect();
        let mut served: HashMap<usize, u32> = HashMap::new();

        let slot_share = (cfg.targeted_slot_share * self.bias_multiplier(user)).clamp(0.0, 1.0);

        for day in days {
            let site_id = self.pick_site(user, rng);
            let site = &self.sites[site_id as usize];

            // Retargeting campaigns triggered by this visit start
            // pursuing from the *next* impression onward. The trigger
            // only fires with `retarget_trigger_prob` — visiting the
            // site is necessary but the user must also hit the
            // campaign's specific product pages.
            let newly_triggered: Vec<usize> = self
                .retargeting_by_site
                .get(&site_id)
                .map(|ids| {
                    ids.iter()
                        .filter(|id| !pursuing_set.contains(id))
                        .filter(|_| rng.gen::<f64>() < cfg.retarget_trigger_prob)
                        .copied()
                        .collect()
                })
                .unwrap_or_default();

            for _ in 0..cfg.slots_per_visit {
                let mut filled = false;
                if rng.gen::<f64>() < slot_share {
                    // Eligible pursuers: under frequency cap and not
                    // pinned to this exact site already this slot.
                    let eligible: Vec<usize> = pursuing
                        .iter()
                        .copied()
                        .filter(|id| {
                            served.get(id).copied().unwrap_or(0) < self.campaigns[*id].frequency_cap
                        })
                        .collect();
                    if let Some(&cid) = eligible.as_slice().choose(rng) {
                        *served.entry(cid).or_insert(0) += 1;
                        log.push(Impression {
                            user: user.id,
                            day,
                            site: site_id,
                            ad: self.campaigns[cid].ad.id,
                            truth: AdClass::Targeted,
                        });
                        filled = true;
                    }
                }
                if !filled {
                    if let Some(&cid) = site.ad_pool.as_slice().choose(rng) {
                        log.push(Impression {
                            user: user.id,
                            day,
                            site: site_id,
                            ad: self.campaigns[cid].ad.id,
                            truth: AdClass::NonTargeted,
                        });
                    }
                }
            }

            for id in newly_triggered {
                pursuing.push(id);
                pursuing_set.insert(id);
            }
        }
    }
}

impl ScenarioConfig {
    /// How many interest-matched targeted campaigns actively pursue one
    /// user. Derived so that, at the configured activity level, a
    /// pursuing campaign can plausibly exhaust its frequency cap within
    /// a week (the regime Figure 3 explores).
    fn pursuing_campaigns_per_user(&self) -> usize {
        let targeted_slots =
            self.avg_user_visits * self.slots_per_visit as f64 * self.targeted_slot_share;
        // Aim for ~1.5x the cap worth of slots per pursuing campaign.
        let cap = self.frequency_cap.max(1) as f64;
        ((targeted_slots / (1.5 * cap)).round() as usize).clamp(2, 40)
    }
}

/// Convenience: build the scenario and simulate `weeks` consecutive
/// weeks, returning one log per week.
pub fn simulate_week(config: ScenarioConfig, weeks: u64) -> (Scenario, Vec<ImpressionLog>) {
    let scenario = Scenario::build(config);
    let logs = (0..weeks).map(|w| scenario.run_week(w)).collect();
    (scenario, logs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::AdClass;

    fn small() -> Scenario {
        Scenario::build(ScenarioConfig::small(11))
    }

    #[test]
    fn build_respects_counts() {
        let s = small();
        assert_eq!(s.users.len(), 60);
        assert_eq!(s.sites.len(), 120);
        assert_eq!(s.campaigns.len(), s.config.total_inventory());
        let targeted = s.campaigns.iter().filter(|c| c.is_targeted()).count();
        assert_eq!(targeted, s.config.num_targeted_campaigns());
    }

    #[test]
    fn pools_cover_sites_on_average() {
        let s = small();
        let total_pool: usize = s.sites.iter().map(|w| w.ad_pool.len()).sum();
        let avg = total_pool as f64 / s.sites.len() as f64;
        // Static spread inflates pools above the contextual-only average.
        assert!(avg >= s.config.avg_ads_per_website * 0.5, "avg={avg}");
    }

    #[test]
    fn week_is_reproducible() {
        let s = small();
        let a = s.run_week(0);
        let b = s.run_week(0);
        assert_eq!(a.records(), b.records());
        let c = s.run_week(1);
        assert_ne!(a.records(), c.records(), "weeks differ");
    }

    #[test]
    fn impressions_reference_valid_entities() {
        let s = small();
        let log = s.run_week(0);
        assert!(!log.is_empty());
        for r in log.records() {
            assert!((r.user as usize) < s.users.len());
            assert!((r.site as usize) < s.sites.len());
            assert!((r.ad as usize) < s.campaigns.len());
            assert!(r.day < 7);
        }
    }

    #[test]
    fn ground_truth_consistent_with_campaigns() {
        let s = small();
        let log = s.run_week(0);
        for r in log.records() {
            let campaign = &s.campaigns[r.ad as usize];
            assert_eq!(campaign.class(), r.truth, "ad {}", r.ad);
        }
    }

    #[test]
    fn frequency_cap_respected() {
        let s = small();
        let log = s.run_week(0);
        let mut per_user_ad: HashMap<(u32, u64), u32> = HashMap::new();
        for r in log.records() {
            if r.truth == AdClass::Targeted {
                *per_user_ad.entry((r.user, r.ad)).or_insert(0) += 1;
            }
        }
        let cap = s.config.frequency_cap;
        for ((u, ad), n) in per_user_ad {
            assert!(n <= cap, "user {u} ad {ad} served {n} > cap {cap}");
        }
    }

    #[test]
    fn targeted_ads_seen_by_fewer_users() {
        // Observation (2) of §4: targeted ads reach fewer users than
        // non-targeted ones, on average.
        let s = Scenario::build(ScenarioConfig::small(13));
        let log = s.run_week(0);
        let users_per_ad = log.users_per_ad();
        let truth = log.truth_by_ad();
        let (mut t_sum, mut t_n, mut nt_sum, mut nt_n) = (0usize, 0usize, 0usize, 0usize);
        for (ad, n) in users_per_ad {
            match truth[&ad] {
                AdClass::Targeted => {
                    t_sum += n;
                    t_n += 1;
                }
                AdClass::NonTargeted => {
                    nt_sum += n;
                    nt_n += 1;
                }
            }
        }
        let t_avg = t_sum as f64 / t_n.max(1) as f64;
        let nt_avg = nt_sum as f64 / nt_n.max(1) as f64;
        assert!(
            t_avg < nt_avg * 1.5,
            "targeted ads should not reach far more users (t={t_avg:.2} nt={nt_avg:.2})"
        );
    }

    #[test]
    fn targeted_ads_follow_users_across_domains() {
        // Observation (1) of §4: per (user, ad), targeted ads appear on
        // more distinct domains.
        let s = Scenario::build(ScenarioConfig::small(17));
        let log = s.run_week(0);
        let truth = log.truth_by_ad();
        let (mut t_sum, mut t_n, mut nt_sum, mut nt_n) = (0usize, 0usize, 0usize, 0usize);
        for ((_u, ad), d) in log.domains_per_user_ad() {
            match truth[&ad] {
                AdClass::Targeted => {
                    t_sum += d;
                    t_n += 1;
                }
                AdClass::NonTargeted => {
                    nt_sum += d;
                    nt_n += 1;
                }
            }
        }
        let t_avg = t_sum as f64 / t_n.max(1) as f64;
        let nt_avg = nt_sum as f64 / nt_n.max(1) as f64;
        assert!(
            t_avg > nt_avg,
            "targeted ads must follow users (t={t_avg:.2} nt={nt_avg:.2})"
        );
    }

    #[test]
    fn bias_multiplier_shifts_exposure() {
        let mut cfg = ScenarioConfig::small(19);
        cfg.bias.male = 0.2;
        cfg.bias.female = 1.0;
        let s = Scenario::build(cfg);
        let log = s.run_week(0);
        let mut female = (0usize, 0usize); // (targeted, total)
        let mut male = (0usize, 0usize);
        for r in log.records() {
            let u = &s.users[r.user as usize];
            let slot = match u.demographics.gender {
                Gender::Female => &mut female,
                Gender::Male => &mut male,
            };
            slot.1 += 1;
            if r.truth == AdClass::Targeted {
                slot.0 += 1;
            }
        }
        let f_rate = female.0 as f64 / female.1.max(1) as f64;
        let m_rate = male.0 as f64 / male.1.max(1) as f64;
        assert!(
            f_rate > m_rate * 1.5,
            "female targeting rate {f_rate:.3} should exceed male {m_rate:.3}"
        );
    }

    #[test]
    fn pursuing_campaign_budgeting() {
        let cfg = ScenarioConfig::table1(1);
        let k = cfg.pursuing_campaigns_per_user();
        assert!((2..=40).contains(&k), "k={k}");
        // Higher caps mean fewer pursuing campaigns (budget splits).
        let mut high_cap = ScenarioConfig::table1(1);
        high_cap.frequency_cap = 12;
        assert!(high_cap.pursuing_campaigns_per_user() <= k);
    }
}

//! Ad campaigns: the five delivery flavours of §2.1 and the creative
//! (ad) metadata the detection and evaluation layers consume.

use crate::topics::TopicId;
use crate::web::SiteId;

/// Globally unique identifier of an ad creative.
pub type AdId = u64;

/// Ground-truth class of an ad — what the simulator knows and the
/// detector must recover.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AdClass {
    /// Selected based on data about the user (OBA, retargeting, indirect).
    Targeted,
    /// Shown irrespective of the visiting user (static, contextual).
    NonTargeted,
}

/// The targeting mechanics of a campaign.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CampaignKind {
    /// Direct OBA: the ad's content topic equals the audience topic —
    /// the case content-based detectors can see.
    DirectOba {
        /// Users interested in this topic are the audience.
        audience_topic: TopicId,
    },
    /// Retargeting: follows users who visited a trigger site.
    Retargeting {
        /// Visiting this site puts a user in the audience.
        trigger_site: SiteId,
    },
    /// Indirect OBA: audience topic ≠ content topic (e.g. "Walking Dead
    /// fans shown political material") — invisible to content analysis.
    IndirectOba {
        /// Users interested in this topic are the audience.
        audience_topic: TopicId,
    },
    /// Static "brand awareness": pinned to a fixed set of sites, shown to
    /// every visitor. Broad static campaigns are the false-positive
    /// stressor of §7.2.2.
    Static {
        /// The sites carrying this campaign.
        sites: Vec<SiteId>,
    },
    /// Contextual: served on sites whose topic matches the ad.
    Contextual,
}

/// One ad creative (a campaign has exactly one, as in the paper's
/// analysis which identifies campaigns by their ad URL / content).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Ad {
    /// Unique id.
    pub id: AdId,
    /// Topic of the ad's landing page (what the content-based heuristic
    /// compares against the user profile).
    pub content_topic: TopicId,
    /// Which synthetic ad network serves it (cosmetic, for URLs).
    pub network: u8,
}

impl Ad {
    /// The creative URL — the string clients feed into the OPRF.
    pub fn url(&self) -> String {
        format!(
            "https://adnet{}.example/creative/{:08x}",
            self.network, self.id
        )
    }

    /// The landing-page URL the extension's landing-page detection would
    /// discover (topic is encoded for the content-based oracle). Tests
    /// check [`Self::url`] beside it.
    #[cfg(test)]
    fn landing_url(&self) -> String {
        format!(
            "https://brand{:04x}.example/landing?topic={}",
            self.id & 0xffff,
            self.content_topic
        )
    }
}

/// A campaign: one creative plus targeting mechanics.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Campaign {
    /// Index in the scenario's campaign table.
    pub id: usize,
    /// Targeting mechanics.
    pub kind: CampaignKind,
    /// The creative.
    pub ad: Ad,
    /// Max impressions per targeted user per week (Figure 3's x-axis).
    /// Ignored for non-targeted campaigns.
    pub frequency_cap: u32,
}

impl Campaign {
    /// Ground-truth class.
    pub fn class(&self) -> AdClass {
        match self.kind {
            CampaignKind::DirectOba { .. }
            | CampaignKind::Retargeting { .. }
            | CampaignKind::IndirectOba { .. } => AdClass::Targeted,
            CampaignKind::Static { .. } | CampaignKind::Contextual => AdClass::NonTargeted,
        }
    }

    /// True iff the campaign is targeted (in the paper's binary sense).
    pub fn is_targeted(&self) -> bool {
        self.class() == AdClass::Targeted
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ad(id: AdId, topic: TopicId) -> Ad {
        Ad {
            id,
            content_topic: topic,
            network: 1,
        }
    }

    #[test]
    fn classes() {
        let direct = Campaign {
            id: 0,
            kind: CampaignKind::DirectOba { audience_topic: 3 },
            ad: ad(1, 3),
            frequency_cap: 7,
        };
        let stat = Campaign {
            id: 1,
            kind: CampaignKind::Static { sites: vec![1, 2] },
            ad: ad(2, 5),
            frequency_cap: 0,
        };
        assert_eq!(direct.class(), AdClass::Targeted);
        assert!(direct.is_targeted());
        assert_eq!(stat.class(), AdClass::NonTargeted);
        assert!(!stat.is_targeted());
    }

    #[test]
    fn urls_stable_and_distinct() {
        let a = ad(0xdead, 3);
        let b = ad(0xbeef, 3);
        assert_ne!(a.url(), b.url());
        assert_eq!(a.url(), a.url());
        assert!(a.landing_url().contains("topic=3"));
    }
}

//! Page posts and fan engagement — the economics behind the study.
//!
//! The paper's motivation is that a like is worth $3.60–$214.81 *because it
//! promises future engagement*: fans see the page's posts and react. The
//! press reports it cites (\[7\] "Who 'likes' my Virtual Bagels?", \[20\]
//! "Facebook Fraud") showed the collapse: pages stuffed with bought likes
//! post into a void, and feed algorithms then throttle their organic reach
//! further. This module makes that observable in-world: pages publish
//! posts, a fraction of fans see each one, and reaction propensity depends
//! on who the fan really is.

use crate::account::ActorClass;
use crate::world::OsnWorld;
use likelab_graph::PageId;
use likelab_sim::Rng;
use serde::{Deserialize, Serialize};

/// Engagement propensities per actor class.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct EngagementModel {
    /// Fraction of fans an individual post reaches (Facebook's organic
    /// reach hovered around 16% in the study's era, and fell from there).
    pub reach_fraction: f64,
    /// Reaction probability per seen post, for a genuinely interested
    /// organic fan.
    pub organic_react: f64,
    /// ... for a click-prone user (they liked for the click, not the page).
    pub click_prone_react: f64,
    /// ... for a bot account (the job ended at the like).
    pub bot_react: f64,
    /// ... for a stealth sybil (minimal camouflage activity).
    pub stealth_react: f64,
}

impl Default for EngagementModel {
    fn default() -> Self {
        EngagementModel {
            reach_fraction: 0.16,
            organic_react: 0.05,
            click_prone_react: 0.004,
            bot_react: 0.0,
            stealth_react: 0.002,
        }
    }
}

impl EngagementModel {
    /// Reaction probability for one actor class.
    pub fn react_prob(&self, class: ActorClass) -> f64 {
        match class {
            ActorClass::Organic => self.organic_react,
            ActorClass::ClickProne => self.click_prone_react,
            ActorClass::Bot(_) => self.bot_react,
            ActorClass::StealthSybil(_) => self.stealth_react,
        }
    }
}

/// The outcome of a posting campaign on one page.
#[derive(Clone, Copy, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct EngagementReport {
    /// Posts published.
    pub posts: usize,
    /// Current fan count (visible likers) when the campaign ran.
    pub fans: usize,
    /// Fan-post impressions delivered.
    pub impressions: usize,
    /// Reactions received (likes/comments/shares on posts).
    pub reactions: usize,
}

impl EngagementReport {
    /// Reactions per delivered impression.
    pub fn engagement_rate(&self) -> f64 {
        if self.impressions == 0 {
            0.0
        } else {
            self.reactions as f64 / self.impressions as f64
        }
    }
}

/// Publish `posts` posts on `page` and simulate fan engagement.
///
/// Each post reaches a `reach_fraction` sample of the page's current
/// visible fans; each reached fan reacts with their class propensity.
pub fn simulate_engagement(
    world: &OsnWorld,
    page: PageId,
    posts: usize,
    model: &EngagementModel,
    rng: &mut Rng,
) -> EngagementReport {
    let fans = world.visible_likers(page);
    let mut report = EngagementReport {
        posts,
        fans: fans.len(),
        ..EngagementReport::default()
    };
    if fans.is_empty() {
        return report;
    }
    let per_post = ((fans.len() as f64) * model.reach_fraction.clamp(0.0, 1.0)).round() as usize;
    for _ in 0..posts {
        let reached = rng.sample_without_replacement(&fans, per_post);
        report.impressions += reached.len();
        for fan in reached {
            let p = model.react_prob(world.account(fan).class);
            if rng.chance(p) {
                report.reactions += 1;
            }
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::account::PrivacySettings;
    use crate::demographics::{Country, Gender, Profile};
    use crate::page::PageCategory;
    use likelab_graph::UserId;
    use likelab_sim::SimTime;

    fn world_with_fans(classes: &[(ActorClass, usize)]) -> (OsnWorld, PageId) {
        let mut w = OsnWorld::new();
        let p = w.create_page("p", "", None, PageCategory::Background, SimTime::EPOCH);
        for (class, n) in classes {
            for _ in 0..*n {
                let u = w.create_account(
                    Profile {
                        gender: Gender::Female,
                        age: 30,
                        country: Country::Uk,
                        home_region: 0,
                    },
                    *class,
                    PrivacySettings {
                        friend_list_public: true,
                        likes_public: true,
                        searchable: true,
                    },
                    SimTime::EPOCH,
                );
                w.record_like(u, p, SimTime::at_day(1));
            }
        }
        (w, p)
    }

    #[test]
    fn organic_fans_engage_bots_do_not() {
        let model = EngagementModel::default();
        let mut rng = Rng::seed_from_u64(1);
        let (organic_world, p1) = world_with_fans(&[(ActorClass::Organic, 1_000)]);
        let organic = simulate_engagement(&organic_world, p1, 30, &model, &mut rng);
        let (bot_world, p2) = world_with_fans(&[(ActorClass::Bot(1), 1_000)]);
        let bots = simulate_engagement(&bot_world, p2, 30, &model, &mut rng);
        assert_eq!(organic.fans, 1_000);
        assert!(
            organic.reactions > 150,
            "organic reactions {}",
            organic.reactions
        );
        assert_eq!(bots.reactions, 0, "a bot audience is a void");
        assert!(organic.engagement_rate() > 0.03);
        assert_eq!(bots.engagement_rate(), 0.0);
    }

    #[test]
    fn click_prone_fans_barely_engage() {
        // The paper's subtle point: even *legitimate ad* likes are hollow
        // when the clickers aren't genuinely interested.
        let model = EngagementModel::default();
        let mut rng = Rng::seed_from_u64(2);
        let (w, p) = world_with_fans(&[(ActorClass::ClickProne, 1_000)]);
        let r = simulate_engagement(&w, p, 30, &model, &mut rng);
        assert!(
            r.engagement_rate() < model.organic_react / 5.0,
            "click-prone rate {}",
            r.engagement_rate()
        );
        assert!(r.reactions > 0, "not literally zero, just hollow");
    }

    #[test]
    fn terminated_fans_stop_counting() {
        let model = EngagementModel::default();
        let mut rng = Rng::seed_from_u64(3);
        let (mut w, p) = world_with_fans(&[(ActorClass::Organic, 100)]);
        for i in 0..50 {
            w.terminate_account(UserId(i), SimTime::at_day(2));
        }
        let r = simulate_engagement(&w, p, 10, &model, &mut rng);
        assert_eq!(r.fans, 50);
    }

    #[test]
    fn reach_fraction_bounds_impressions() {
        let model = EngagementModel {
            reach_fraction: 0.1,
            ..EngagementModel::default()
        };
        let mut rng = Rng::seed_from_u64(4);
        let (w, p) = world_with_fans(&[(ActorClass::Organic, 200)]);
        let r = simulate_engagement(&w, p, 5, &model, &mut rng);
        assert_eq!(r.impressions, 5 * 20);
    }

    #[test]
    fn empty_page_reports_zero() {
        let w = {
            let mut w = OsnWorld::new();
            w.create_page("p", "", None, PageCategory::Background, SimTime::EPOCH);
            w
        };
        let mut rng = Rng::seed_from_u64(5);
        let r = simulate_engagement(&w, PageId(0), 10, &EngagementModel::default(), &mut rng);
        assert_eq!(
            r,
            EngagementReport {
                posts: 10,
                ..Default::default()
            }
        );
    }
}

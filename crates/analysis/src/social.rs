//! Table 3 and Figure 3 — the social structure of the likers.
//!
//! Everything here is computed from what the crawler could *see*: public
//! friend lists only. Direct friendships between likers require one visible
//! list naming the other liker; 2-hop relations (a shared mutual friend)
//! require both likers' lists visible — the paper's caveat that "these
//! numbers only represent a lower bound" falls out of the method.

use crate::provider::{group_likers, Provider};
use crate::stats::SummaryStats;
use likelab_graph::{components::ComponentCensus, FriendGraph, UserId};
use likelab_honeypot::Dataset;
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet, HashMap};

/// One row of Table 3.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct SocialRow {
    /// Provider group.
    pub provider: Provider,
    /// Distinct likers in the group.
    pub likers: usize,
    /// Likers with a public friend list.
    pub public_friend_lists: usize,
    /// Friend-count statistics over the public profiles.
    pub friends: SummaryStats,
    /// Direct friendships between likers involving this group.
    pub friendships_between_likers: usize,
    /// 2-hop (mutual-friend) relations between likers involving this group,
    /// excluding direct friendships.
    pub two_hop_between_likers: usize,
}

impl SocialRow {
    /// Percent of likers with public friend lists.
    pub fn public_pct(&self) -> f64 {
        if self.likers == 0 {
            0.0
        } else {
            self.public_friend_lists as f64 / self.likers as f64 * 100.0
        }
    }
}

/// The observed (crawl-derived) social structure of all likers.
#[derive(Clone, Debug, Default)]
pub struct ObservedSocial {
    /// Every liker.
    pub likers: BTreeSet<UserId>,
    /// Provider group membership.
    pub groups: BTreeMap<Provider, BTreeSet<UserId>>,
    /// Public friend lists (only likers with visible lists appear).
    pub friend_lists: BTreeMap<UserId, Vec<UserId>>,
    /// Reported total friend counts (public profiles only).
    pub friend_counts: BTreeMap<UserId, usize>,
    /// Direct liker–liker friendships, as ordered pairs `(a < b)`.
    pub direct_pairs: BTreeSet<(UserId, UserId)>,
    /// 2-hop liker pairs (shared mutual friend, not direct), `(a < b)`.
    pub two_hop_pairs: BTreeSet<(UserId, UserId)>,
}

impl ObservedSocial {
    /// Build from the dataset.
    pub fn build(dataset: &Dataset) -> Self {
        let groups = group_likers(dataset);
        let mut obs = ObservedSocial {
            groups,
            ..ObservedSocial::default()
        };
        for c in &dataset.campaigns {
            for l in &c.likers {
                obs.likers.insert(l.user);
                if let Some(fs) = &l.friends {
                    obs.friend_lists.entry(l.user).or_insert_with(|| fs.clone());
                }
                if let Some(n) = l.total_friend_count {
                    obs.friend_counts.entry(l.user).or_insert(n);
                }
            }
        }
        // Direct pairs: a visible list naming another liker.
        for (u, friends) in &obs.friend_lists {
            for f in friends {
                if *f != *u && obs.likers.contains(f) {
                    let pair = if *u < *f { (*u, *f) } else { (*f, *u) };
                    obs.direct_pairs.insert(pair);
                }
            }
        }
        // 2-hop pairs: both lists visible, sharing any mutual friend.
        let mut via: BTreeMap<UserId, Vec<UserId>> = BTreeMap::new();
        for (u, friends) in &obs.friend_lists {
            for f in friends {
                via.entry(*f).or_default().push(*u);
            }
        }
        for likers in via.values() {
            if likers.len() < 2 {
                continue;
            }
            for i in 0..likers.len() {
                for j in (i + 1)..likers.len() {
                    let (a, b) = if likers[i] < likers[j] {
                        (likers[i], likers[j])
                    } else if likers[j] < likers[i] {
                        (likers[j], likers[i])
                    } else {
                        continue;
                    };
                    if !obs.direct_pairs.contains(&(a, b)) {
                        obs.two_hop_pairs.insert((a, b));
                    }
                }
            }
        }
        obs
    }

    /// The Table 3 group of a liker (ALMS wins; then Table 3 order).
    pub fn group_of(&self, u: UserId) -> Option<Provider> {
        if self
            .groups
            .get(&Provider::Alms)
            .is_some_and(|g| g.contains(&u))
        {
            return Some(Provider::Alms);
        }
        Provider::ALL
            .iter()
            .copied()
            .find(|p| self.groups.get(p).is_some_and(|g| g.contains(&u)))
    }

    fn pairs_involving<'a>(
        pairs: &'a BTreeSet<(UserId, UserId)>,
        group: &'a BTreeSet<UserId>,
    ) -> impl Iterator<Item = &'a (UserId, UserId)> + 'a {
        pairs
            .iter()
            .filter(move |(a, b)| group.contains(a) || group.contains(b))
    }

    /// Compute Table 3, one row per provider in Table 3 order.
    pub fn table3(&self) -> Vec<SocialRow> {
        Provider::ALL
            .iter()
            .map(|p| {
                let group = self.groups.get(p).cloned().unwrap_or_default();
                let counts: Vec<f64> = group
                    .iter()
                    .filter_map(|u| self.friend_counts.get(u).map(|n| *n as f64))
                    .collect();
                SocialRow {
                    provider: *p,
                    likers: group.len(),
                    public_friend_lists: group
                        .iter()
                        .filter(|u| self.friend_lists.contains_key(u))
                        .count(),
                    friends: SummaryStats::of(&counts),
                    friendships_between_likers: Self::pairs_involving(&self.direct_pairs, &group)
                        .count(),
                    two_hop_between_likers: Self::pairs_involving(&self.two_hop_pairs, &group)
                        .count(),
                }
            })
            .collect()
    }

    /// Direct pairs bridging two groups — the AL↔MS cross edges that point
    /// at a shared operator.
    pub fn cross_group_pairs(&self, a: Provider, b: Provider) -> Vec<(UserId, UserId)> {
        let ga = self.groups.get(&a).cloned().unwrap_or_default();
        let gb = self.groups.get(&b).cloned().unwrap_or_default();
        self.direct_pairs
            .iter()
            .filter(|(x, y)| {
                (ga.contains(x) && gb.contains(y)) || (gb.contains(x) && ga.contains(y))
            })
            .copied()
            .collect()
    }

    /// Component census of one group's induced direct-friendship graph —
    /// the numeric content of Figure 3(a): BoostLikes shows a giant blob,
    /// SocialFormula pairs and triplets.
    pub fn group_census(&self, p: Provider) -> ComponentCensus {
        let group: Vec<UserId> = self
            .groups
            .get(&p)
            .map(|g| g.iter().copied().collect())
            .unwrap_or_default();
        let graph = self.as_friend_graph();
        ComponentCensus::compute(&graph, &group)
    }

    /// One past the highest liker id — the node span of the liker graphs.
    fn node_span(&self) -> usize {
        self.likers
            .iter()
            .map(|u| u.0)
            .max()
            .map(|m| m as usize + 1)
            .unwrap_or(0)
    }

    /// The observed liker–liker graph as a [`FriendGraph`] (for DOT export
    /// and component analysis). Nodes are original user ids. Built in one
    /// bulk pass: liker ids sit anywhere in the account id space, so the
    /// incremental `add_edge` path would pay `O(accounts)` compaction sweeps
    /// for a few thousand edges.
    pub fn as_friend_graph(&self) -> FriendGraph {
        FriendGraph::from_pairs(self.node_span(), self.direct_pairs.iter().copied())
    }

    /// Figure 3 as Graphviz DOT (`two_hop` adds the mutual-friend pairs as
    /// edges, Figure 3(b)).
    pub fn figure3_dot(&self, two_hop: bool) -> String {
        let members: Vec<UserId> = self.likers.iter().copied().collect();
        let groups: HashMap<UserId, String> = {
            let _s = likelab_obs::span::enter("social.figure3.groups");
            members
                .iter()
                .filter_map(|u| self.group_of(*u).map(|p| (*u, p.to_string())))
                .collect()
        };
        let graph = {
            let _s = likelab_obs::span::enter("social.figure3.graph");
            let direct = self.direct_pairs.iter().copied();
            if two_hop {
                // 2-hop pairs exclude direct ones, so chaining stays a set.
                FriendGraph::from_pairs(
                    self.node_span(),
                    direct.chain(self.two_hop_pairs.iter().copied()),
                )
            } else {
                self.as_friend_graph()
            }
        };
        let _s = likelab_obs::span::enter("social.figure3.dot");
        likelab_graph::dot::induced_dot(&graph, &members, &groups, true)
    }
}

/// Convenience: build and compute Table 3 in one call.
pub fn table3(dataset: &Dataset) -> Vec<SocialRow> {
    ObservedSocial::build(dataset).table3()
}

#[cfg(test)]
mod tests {
    use super::*;
    use likelab_farms::Region;
    use likelab_honeypot::{CampaignData, CampaignSpec, LikerRecord, Promotion};
    use likelab_osn::AudienceReport;
    use likelab_sim::SimTime;

    fn liker(id: u32, friends: Option<Vec<u32>>) -> LikerRecord {
        LikerRecord {
            user: UserId(id),
            first_seen: SimTime::EPOCH,
            total_friend_count: friends.as_ref().map(|f| f.len() + 100),
            friends: friends.map(|f| f.into_iter().map(UserId).collect()),
            liked_pages: None,
            gone_at_collection: false,
            crawl_outcome: likelab_honeypot::CrawlOutcome::Complete,
        }
    }

    fn campaign(label: &str, likers: Vec<LikerRecord>) -> CampaignData {
        CampaignData {
            spec: CampaignSpec {
                label: label.into(),
                promotion: Promotion::FarmOrder {
                    farm: 0,
                    region: Region::Worldwide,
                    likes: 0,
                    price_cents: 0,
                    advertised_duration: String::new(),
                },
            },
            page: likelab_graph::PageId(0),
            observations: vec![],
            likers,
            report: AudienceReport::default(),
            monitoring_days: None,
            terminated_after_month: 0,
            termination_unknown: 0,
            inactive: false,
            coverage: likelab_honeypot::CrawlCoverage::default(),
        }
    }

    fn dataset(campaigns: Vec<CampaignData>) -> Dataset {
        Dataset {
            campaigns,
            baseline: vec![],
            launch: SimTime::EPOCH,
            global_report: AudienceReport::default(),
        }
    }

    /// BL likers 1,2,3 form a triangle (public lists); SF likers 10,11 are
    /// a pair; SF 12 is private; 1 and 10 share mutual friend 99 (not a
    /// liker).
    fn scenario() -> Dataset {
        dataset(vec![
            campaign(
                "BL-USA",
                vec![
                    liker(1, Some(vec![2, 3, 99])),
                    liker(2, Some(vec![1, 3])),
                    liker(3, Some(vec![1, 2])),
                ],
            ),
            campaign(
                "SF-ALL",
                vec![
                    liker(10, Some(vec![11, 99])),
                    liker(11, Some(vec![10])),
                    liker(12, None),
                ],
            ),
        ])
    }

    #[test]
    fn direct_pairs_require_visibility_on_either_end() {
        let obs = ObservedSocial::build(&scenario());
        assert_eq!(obs.direct_pairs.len(), 4); // triangle + SF pair
        assert!(obs.direct_pairs.contains(&(UserId(1), UserId(2))));
        assert!(obs.direct_pairs.contains(&(UserId(10), UserId(11))));
    }

    #[test]
    fn two_hop_found_via_outside_mutual() {
        let obs = ObservedSocial::build(&scenario());
        // 1 and 10 both list 99: a cross-provider 2-hop pair.
        assert!(obs.two_hop_pairs.contains(&(UserId(1), UserId(10))));
        // 2 and 3 are direct friends, so their shared mutual (1) doesn't
        // create a 2-hop pair.
        assert!(!obs.two_hop_pairs.contains(&(UserId(2), UserId(3))));
    }

    #[test]
    fn table3_rows_count_correctly() {
        let rows = table3(&scenario());
        let bl = rows
            .iter()
            .find(|r| r.provider == Provider::BoostLikes)
            .unwrap();
        assert_eq!(bl.likers, 3);
        assert_eq!(bl.public_friend_lists, 3);
        assert!((bl.public_pct() - 100.0).abs() < 1e-9);
        assert_eq!(bl.friendships_between_likers, 3, "the triangle");
        // Friend counts: 103, 102, 102 (len + 100).
        assert!((bl.friends.median - 102.0).abs() < 1e-9);
        let sf = rows
            .iter()
            .find(|r| r.provider == Provider::SocialFormula)
            .unwrap();
        assert_eq!(sf.likers, 3);
        assert_eq!(sf.public_friend_lists, 2);
        assert_eq!(sf.friendships_between_likers, 1);
        assert_eq!(sf.two_hop_between_likers, 1, "1–10 involves SF");
        let fb = rows
            .iter()
            .find(|r| r.provider == Provider::Facebook)
            .unwrap();
        assert_eq!(fb.likers, 0);
        assert_eq!(fb.friends.n, 0);
    }

    #[test]
    fn group_census_separates_blob_from_pairs() {
        let obs = ObservedSocial::build(&scenario());
        let bl = obs.group_census(Provider::BoostLikes);
        assert_eq!(bl.giant_size, 3);
        assert_eq!(bl.larger + bl.triplets, 1);
        let sf = obs.group_census(Provider::SocialFormula);
        assert_eq!(sf.pairs, 1);
        assert_eq!(sf.singletons, 1, "the private liker shows isolated");
    }

    #[test]
    fn alms_cross_edges_detect_shared_operator() {
        // AL liker 1 and MS liker 2 are friends; liker 3 liked both.
        let d = dataset(vec![
            campaign("AL-USA", vec![liker(1, Some(vec![2])), liker(3, None)]),
            campaign("MS-USA", vec![liker(2, Some(vec![1])), liker(3, None)]),
        ]);
        let obs = ObservedSocial::build(&d);
        assert_eq!(obs.group_of(UserId(3)), Some(Provider::Alms));
        let cross = obs.cross_group_pairs(Provider::AuthenticLikes, Provider::MammothSocials);
        assert_eq!(cross, vec![(UserId(1), UserId(2))]);
    }

    #[test]
    fn dot_export_contains_colored_groups() {
        let obs = ObservedSocial::build(&scenario());
        let dot = obs.figure3_dot(false);
        assert!(dot.contains("graph likers"));
        assert!(dot.contains("\"u1\" -- \"u2\""));
        // Isolated private SF liker is dropped, like the paper's figure.
        assert!(!dot.contains("\"u12\""));
        let dot2 = obs.figure3_dot(true);
        assert!(dot2.contains("\"u1\" -- \"u10\""), "2-hop edge appears");
    }

    #[test]
    fn empty_dataset_is_all_zero() {
        let rows = table3(&dataset(vec![]));
        assert_eq!(rows.len(), 6);
        assert!(rows.iter().all(|r| r.likers == 0));
    }
}

//! The page-admin reports tool.
//!
//! Facebook gives page administrators aggregated statistics about the users
//! who liked their page — gender, age, country — computed from *both public
//! and private* attributes (the paper leaned on this to sidestep profile
//! privacy, per their footnote: current location comes from the IP address).
//! The same tool publishes global-population statistics, which Table 2's
//! last row quotes. This module is that tool.

use crate::demographics::{Gender, GeoBucket};
use crate::world::OsnWorld;
use likelab_graph::{PageId, UserId};
use likelab_sim::parallel::{parallel_map, Exec};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Users per aggregation chunk in the [`AudienceReport::global_with`] path. Large enough
/// that per-chunk report overhead vanishes, small enough that a
/// million-account world spreads over every worker.
const CHUNK_USERS: usize = 65_536;

/// Aggregated audience statistics, as the reports tool exposes them.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct AudienceReport {
    /// Total profiles aggregated.
    pub total: usize,
    /// Number of female profiles.
    pub female: usize,
    /// Number of male profiles.
    pub male: usize,
    /// Counts per age bracket (Table 2 order).
    pub age_counts: [usize; 6],
    /// Counts per Figure 1 geo bucket, keyed by display name for stable
    /// serialization.
    pub country_counts: BTreeMap<String, usize>,
}

impl AudienceReport {
    /// Aggregate the given users' true attributes.
    pub fn over_users(world: &OsnWorld, users: &[UserId]) -> Self {
        Self::tally(world, users.iter().copied())
    }

    /// Accumulate one report over a stream of ids (reads only the profile
    /// column of the account store).
    ///
    /// Geo counts accumulate in a dense [`GeoBucket`]-indexed array — the
    /// per-user `String` key allocation and tree probe of the naive
    /// `BTreeMap::entry` loop dominated the whole report at scale. The map
    /// is materialized once at the end, inserting only buckets that were
    /// actually seen, exactly the key set the entry-per-user loop produced.
    fn tally(world: &OsnWorld, users: impl Iterator<Item = UserId>) -> Self {
        let mut r = AudienceReport::default();
        let mut geo = [0usize; 6];
        for u in users {
            let p = world.profile(u);
            r.total += 1;
            match p.gender {
                Gender::Female => r.female += 1,
                Gender::Male => r.male += 1,
            }
            r.age_counts[p.age_bracket().index()] += 1;
            geo[p.country.geo_bucket().index()] += 1;
        }
        for (b, &count) in GeoBucket::ALL.iter().zip(geo.iter()) {
            if count > 0 {
                r.country_counts.insert(b.to_string(), count);
            }
        }
        r
    }

    /// Fold another report's counts into this one. Every field is a sum, so
    /// the merged result is independent of merge order — which is what makes
    /// the chunked parallel path deterministic for any worker count.
    fn merge(&mut self, other: AudienceReport) {
        self.total += other.total;
        self.female += other.female;
        self.male += other.male;
        for (a, b) in self.age_counts.iter_mut().zip(other.age_counts) {
            *a += b;
        }
        for (k, v) in other.country_counts {
            *self.country_counts.entry(k).or_insert(0) += v;
        }
    }

    /// The report a page admin sees: aggregated over every account that ever
    /// liked the page (the platform aggregates what it knows, not what is
    /// public).
    pub fn for_page(world: &OsnWorld, page: PageId) -> Self {
        // Stream straight off the packed posting list, reading only the
        // ledger's user column — no liker Vec, no record assembly.
        Self::tally(world, world.likes().page_users(page))
    }

    /// The platform-wide report (Table 2's "Facebook" row equivalent).
    pub fn global(world: &OsnWorld) -> Self {
        Self::global_with(world, Exec::Sequential)
    }

    /// [`global`][Self::global] aggregated through `exec`, chunking by id
    /// range so no global `Vec<UserId>` is ever materialized. Identical
    /// output for every `exec`.
    pub fn global_with(world: &OsnWorld, exec: Exec) -> Self {
        Self::global_chunked(world, exec, CHUNK_USERS)
    }

    fn global_chunked(world: &OsnWorld, exec: Exec, chunk: usize) -> Self {
        let n = world.account_count();
        let ranges: Vec<(u32, u32)> = (0..n)
            .step_by(chunk)
            .map(|lo| (lo as u32, (lo + chunk).min(n) as u32))
            .collect();
        let partials = parallel_map(exec, &ranges, |_, &(lo, hi)| {
            Self::tally(world, (lo..hi).map(UserId))
        });
        let mut r = AudienceReport::default();
        for partial in partials {
            r.merge(partial);
        }
        r
    }

    /// Female fraction, 0 when empty.
    pub fn female_fraction(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.female as f64 / self.total as f64
        }
    }

    /// Age distribution as fractions over the six brackets.
    pub fn age_distribution(&self) -> [f64; 6] {
        let mut out = [0.0; 6];
        if self.total == 0 {
            return out;
        }
        for (i, c) in self.age_counts.iter().enumerate() {
            out[i] = *c as f64 / self.total as f64;
        }
        out
    }

    /// Geo-bucket shares as fractions, in [`GeoBucket::ALL`] order.
    pub fn geo_distribution(&self) -> [f64; 6] {
        let mut out = [0.0; 6];
        if self.total == 0 {
            return out;
        }
        for (i, b) in GeoBucket::ALL.iter().enumerate() {
            out[i] = self
                .country_counts
                .get(&b.to_string())
                .copied()
                .unwrap_or(0) as f64
                / self.total as f64;
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::account::{ActorClass, PrivacySettings};
    use crate::demographics::{Country, Profile};
    use crate::page::PageCategory;
    use likelab_sim::SimTime;

    fn add_user(world: &mut OsnWorld, gender: Gender, age: u8, country: Country) -> UserId {
        world.create_account(
            Profile {
                gender,
                age,
                country,
                home_region: 0,
            },
            ActorClass::Organic,
            PrivacySettings {
                friend_list_public: false, // reports ignore privacy
                likes_public: false,
                searchable: false,
            },
            SimTime::EPOCH,
        )
    }

    #[test]
    fn page_report_aggregates_regardless_of_privacy() {
        let mut w = OsnWorld::new();
        let a = add_user(&mut w, Gender::Female, 16, Country::Usa);
        let b = add_user(&mut w, Gender::Male, 30, Country::India);
        let c = add_user(&mut w, Gender::Male, 60, Country::Brazil);
        let p = w.create_page("h", "", None, PageCategory::Honeypot, SimTime::EPOCH);
        for (i, u) in [a, b, c].into_iter().enumerate() {
            w.record_like(u, p, SimTime::at_day(i as u64));
        }
        let r = AudienceReport::for_page(&w, p);
        assert_eq!(r.total, 3);
        assert_eq!(r.female, 1);
        assert_eq!(r.male, 2);
        assert_eq!(r.age_counts, [1, 0, 1, 0, 0, 1]);
        assert_eq!(r.country_counts["USA"], 1);
        assert_eq!(r.country_counts["India"], 1);
        assert_eq!(r.country_counts["Other"], 1);
        assert!((r.female_fraction() - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn geo_distribution_is_in_legend_order() {
        let mut w = OsnWorld::new();
        let a = add_user(&mut w, Gender::Male, 20, Country::Turkey);
        let b = add_user(&mut w, Gender::Male, 20, Country::Turkey);
        let c = add_user(&mut w, Gender::Male, 20, Country::France);
        let p = w.create_page("h", "", None, PageCategory::Honeypot, SimTime::EPOCH);
        for u in [a, b, c] {
            w.record_like(u, p, SimTime::EPOCH);
        }
        let geo = AudienceReport::for_page(&w, p).geo_distribution();
        // [USA, India, Egypt, Turkey, France, Other]
        assert!((geo[3] - 2.0 / 3.0).abs() < 1e-12);
        assert!((geo[4] - 1.0 / 3.0).abs() < 1e-12);
        assert_eq!(geo[0], 0.0);
    }

    #[test]
    fn report_includes_terminated_likers() {
        // The platform's own aggregation sees everything it ever recorded.
        let mut w = OsnWorld::new();
        let a = add_user(&mut w, Gender::Female, 20, Country::Usa);
        let p = w.create_page("h", "", None, PageCategory::Honeypot, SimTime::EPOCH);
        w.record_like(a, p, SimTime::EPOCH);
        w.terminate_account(a, SimTime::at_day(1));
        assert_eq!(AudienceReport::for_page(&w, p).total, 1);
    }

    #[test]
    fn empty_report_is_zeroed() {
        let w = OsnWorld::new();
        let r = AudienceReport::over_users(&w, &[]);
        assert_eq!(r.total, 0);
        assert_eq!(r.female_fraction(), 0.0);
        assert_eq!(r.age_distribution(), [0.0; 6]);
        assert_eq!(r.geo_distribution(), [0.0; 6]);
    }

    #[test]
    fn global_report_covers_all_accounts() {
        let mut w = OsnWorld::new();
        add_user(&mut w, Gender::Female, 20, Country::Usa);
        add_user(&mut w, Gender::Male, 40, Country::India);
        let g = AudienceReport::global(&w);
        assert_eq!(g.total, 2);
    }

    #[test]
    fn parallel_aggregation_matches_sequential() {
        let mut w = OsnWorld::new();
        let mut users = Vec::new();
        for i in 0..500u32 {
            let gender = if i % 3 == 0 {
                Gender::Female
            } else {
                Gender::Male
            };
            let country = Country::ALL[i as usize % Country::ALL.len()];
            users.push(add_user(&mut w, gender, (13 + i % 70) as u8, country));
        }
        let sequential = AudienceReport::over_users(&w, &users);
        // A chunk size far below the user count forces the multi-chunk
        // partial-merge path that `global_with` takes at scale.
        for workers in [1usize, 2, 7] {
            let exec = Exec::workers(workers);
            assert_eq!(
                AudienceReport::global_chunked(&w, exec, 64),
                sequential,
                "global chunked workers={workers}"
            );
            assert_eq!(AudienceReport::global_with(&w, exec), sequential);
        }
    }
}

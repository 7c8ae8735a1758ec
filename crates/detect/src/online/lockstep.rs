//! Online lockstep detection: the batch bucket store maintained
//! incrementally, reports produced by the batch kernel.
//!
//! ## Parity contract
//!
//! Batch [`detect`](crate::lockstep::detect) is two stages: append every
//! like to its page's `(window, user)` column in the bucket store, then
//! hand every bucket of at least `min_bucket_size` likes to the
//! pair-counting / clustering kernel
//! [`detect_from_buckets`](crate::lockstep::detect_from_buckets). The
//! first stage is a fold over likes that only ever appends, so it can be
//! maintained incrementally with no approximation at all; the second stage
//! takes buckets in any order and sorts and dedups each one before
//! counting, so the order likes arrived in is irrelevant. [`OnlineLockstep`]
//! does exactly that — the same store, the same kernel — which makes its
//! report **bitwise identical** to the batch one over the same accepted
//! likes, at any point in the stream, not just the end.
//!
//! ## Cost
//!
//! [`record_like`](OnlineLockstep::record_like) is one append to the
//! page's column. [`report`](OnlineLockstep::report) scans every column
//! for runs of equal window, sorting a scratch copy of each page that got
//! a backfill, and then reruns the pair-counting kernel over the buckets
//! that qualify: linear in the likes seen, plus the kernel. Pair counts are
//! not cheaply decomposable, so query it at coarse cadence, not per event.

use crate::lockstep::{BucketStore, LockstepConfig, LockstepReport};
use likelab_graph::{PageId, UserId};
use likelab_sim::SimTime;

/// Incremental lockstep detector. See the module docs for the parity
/// contract.
///
/// ```
/// use likelab_detect::online::OnlineLockstep;
/// use likelab_detect::LockstepConfig;
///
/// let mut online = OnlineLockstep::new(LockstepConfig::default());
/// // No likes recorded: no co-liking evidence.
/// assert!(online.report().clusters.is_empty());
/// ```
#[derive(Clone, Debug)]
pub struct OnlineLockstep {
    config: LockstepConfig,
    buckets: BucketStore,
    likes_seen: usize,
}

impl OnlineLockstep {
    /// An empty detector.
    pub fn new(config: LockstepConfig) -> Self {
        OnlineLockstep {
            config,
            buckets: BucketStore::default(),
            likes_seen: 0,
        }
    }

    /// The configuration reports are produced under.
    pub fn config(&self) -> &LockstepConfig {
        &self.config
    }

    /// Feed one **accepted** like.
    pub fn record_like(&mut self, user: UserId, page: PageId, at: SimTime) {
        self.buckets.push(user, page, at, &self.config);
        self.likes_seen += 1;
    }

    /// Number of likes folded in so far.
    pub fn likes_seen(&self) -> usize {
        self.likes_seen
    }

    /// Run the batch kernel over the current buckets — equal to
    /// [`crate::lockstep::detect`] on a world holding the same accepted
    /// likes. Each call rescans every bucket (see the module docs), so the
    /// serve engine calls it per `lockstep` query, not per ingest chunk.
    pub fn report(&self) -> LockstepReport {
        self.buckets.report(&self.config)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lockstep::{detect, detect_from_buckets};
    use likelab_osn::{
        ActorClass, Country, Gender, OsnWorld, PageCategory, PrivacySettings, Profile,
    };
    use likelab_sim::{Rng, SimDuration};
    use std::collections::BTreeMap;

    /// A world of `n_users` accounts and `n_pages` pages, with no likes
    /// yet. Lockstep reads no account class, so every account is organic.
    fn world(n_users: u32, n_pages: u32) -> OsnWorld {
        let mut w = OsnWorld::new();
        for _ in 0..n_users {
            w.create_account(
                Profile {
                    gender: Gender::Male,
                    age: 25,
                    country: Country::Usa,
                    home_region: 0,
                },
                ActorClass::Organic,
                PrivacySettings {
                    friend_list_public: true,
                    likes_public: true,
                    searchable: true,
                },
                SimTime::EPOCH,
            );
        }
        for i in 0..n_pages {
            w.create_page(
                format!("p{i}"),
                "",
                None,
                PageCategory::Background,
                SimTime::EPOCH,
            );
        }
        w
    }

    /// A bot ring plus organic noise, mirrored into both a world (batch
    /// path) and the online detector, with the online feed shuffled to prove
    /// arrival order is irrelevant.
    #[test]
    fn shuffled_online_feed_matches_batch_report() {
        let mut w = world(60, 30);
        let mut rng = Rng::seed_from_u64(9);
        let mut feed: Vec<(UserId, PageId, SimTime)> = Vec::new();
        for job in 0..5u32 {
            let start = SimTime::at_day(5 + 2 * u64::from(job));
            for bot in 0..15u32 {
                feed.push((
                    UserId(bot),
                    PageId(job),
                    start + SimDuration::minutes(rng.below(60)),
                ));
            }
        }
        for organic in 15..60u32 {
            for _ in 0..8 {
                feed.push((
                    UserId(organic),
                    PageId(rng.below(30) as u32),
                    SimTime::from_secs(rng.below(60 * 86_400)),
                ));
            }
        }
        // Batch side ingests in generation order; the ledger dedups
        // (user, page) pairs, so feed the online side only accepted likes.
        let mut online = OnlineLockstep::new(LockstepConfig::default());
        let mut accepted: Vec<(UserId, PageId, SimTime)> = Vec::new();
        for &(u, p, at) in &feed {
            if w.record_like(u, p, at) {
                accepted.push((u, p, at));
            }
        }
        // Shuffle the accepted stream before replaying it online.
        for i in (1..accepted.len()).rev() {
            accepted.swap(i, rng.index(i + 1));
        }
        for (u, p, at) in accepted {
            online.record_like(u, p, at);
        }
        let batch = detect(&w, &LockstepConfig::default());
        let online_report = online.report();
        assert_eq!(online_report.clusters, batch.clusters);
        assert!(!batch.clusters.is_empty(), "the ring must be found");
        assert_eq!(online.likes_seen(), w.likes().len());
    }

    #[test]
    fn empty_detector_reports_clean() {
        let online = OnlineLockstep::new(LockstepConfig::default());
        assert!(online.report().clusters.is_empty());
        assert_eq!(online.likes_seen(), 0);
    }

    /// Reference bucketing: an ordered `(page, window) -> users` map, the
    /// plainest form of the buckets the store must reproduce.
    fn map_reference(
        likes: &[(UserId, PageId, SimTime)],
        config: &LockstepConfig,
    ) -> LockstepReport {
        let mut buckets: BTreeMap<(u32, u64), Vec<UserId>> = BTreeMap::new();
        for &(user, page, at) in likes {
            let window = at.as_secs() / config.window.as_secs();
            buckets.entry((page.0, window)).or_default().push(user);
        }
        detect_from_buckets(buckets.values().map(Vec::as_slice), config)
    }

    /// Every k-th prefix of a feed built to reach each corner of the
    /// bucket store: backfills on several pages, a bucket of exactly
    /// `min_bucket_size` and one just short of it, a bucket past
    /// `max_bucket_size`, and pages first liked out of id order (30, 20,
    /// 5, 17, 9, ...). At each
    /// prefix the online report equals batch `detect` on a world holding
    /// the same accepted likes, and both equal the map reference.
    #[test]
    fn online_report_matches_batch_at_every_kth_prefix() {
        let config = LockstepConfig::default();
        let when = |day: u64, minute: u64| SimTime::at_day(day) + SimDuration::minutes(minute);
        let mut rng = Rng::seed_from_u64(15);
        let mut structured: Vec<(UserId, PageId, SimTime)> = Vec::new();
        // Users 420..425 share three buckets of exactly min_bucket_size.
        for (job, page) in [30u32, 31, 32].into_iter().enumerate() {
            for user in 420..425u32 {
                structured.push((
                    UserId(user),
                    PageId(page),
                    when(2 + job as u64, rng.below(100)),
                ));
            }
        }
        // Users 425..429 share three buckets one like short of it.
        for (job, page) in [20u32, 21, 22].into_iter().enumerate() {
            for user in 425..429u32 {
                structured.push((
                    UserId(user),
                    PageId(page),
                    when(8 + job as u64, rng.below(100)),
                ));
            }
        }
        // Users 429..435 share three buckets, each split in arrival order
        // by a backfill to an earlier window of the same page.
        for (job, page) in [5u32, 17, 9].into_iter().enumerate() {
            let day = 14 + job as u64;
            for user in 429..432u32 {
                structured.push((UserId(user), PageId(page), when(day, rng.below(100))));
            }
            structured.push((UserId(436 + job as u32), PageId(page), when(1, 0)));
            for user in 432..435u32 {
                structured.push((UserId(user), PageId(page), when(day, rng.below(100))));
            }
        }
        // Users 0..=400 share one bucket past max_bucket_size; its strided
        // subsample drops user 400 alone. Users 396..=400 share two more
        // buckets, so only 396..=399 reach three shared buckets.
        for (job, page) in [33u32, 34].into_iter().enumerate() {
            for user in 396..=400u32 {
                structured.push((
                    UserId(user),
                    PageId(page),
                    when(20 + job as u64, rng.below(100)),
                ));
            }
        }
        for user in 0..=400u32 {
            structured.push((UserId(user), PageId(35), when(25, rng.below(100))));
        }
        // Organic noise on pages 38..48, spliced in at random positions;
        // it keeps structured likes in order relative to each other.
        let mut feed: Vec<(UserId, PageId, SimTime)> = Vec::new();
        for like in structured {
            while rng.below(4) == 0 {
                let page = PageId(38 + rng.below(10) as u32);
                feed.push((
                    UserId(rng.below(440) as u32),
                    page,
                    when(40 + rng.below(60), rng.below(1440)),
                ));
            }
            feed.push(like);
        }

        let mut w = world(440, 48);
        let mut online = OnlineLockstep::new(config);
        let mut accepted: Vec<(UserId, PageId, SimTime)> = Vec::new();
        let k = 97;
        for (i, &(user, page, at)) in feed.iter().enumerate() {
            if w.record_like(user, page, at) {
                online.record_like(user, page, at);
                accepted.push((user, page, at));
            }
            if i % k == k - 1 || i == feed.len() - 1 {
                let online_report = online.report();
                assert_eq!(
                    online_report.clusters,
                    detect(&w, &config).clusters,
                    "prefix {i}"
                );
                assert_eq!(
                    online_report.clusters,
                    map_reference(&accepted, &config).clusters,
                    "prefix {i}"
                );
            }
        }
        assert_eq!(online.likes_seen(), w.likes().len());

        let end = online.report();
        let cluster_of = |user: u32| end.clusters.iter().find(|c| c.contains(&UserId(user)));
        let exact: Vec<UserId> = (420..425).map(UserId).collect();
        assert_eq!(cluster_of(420), Some(&exact));
        assert_eq!(cluster_of(425), None, "buckets of 4 carry no evidence");
        let backfilled: Vec<UserId> = (429..435).map(UserId).collect();
        assert_eq!(cluster_of(429), Some(&backfilled));
        let sampled: Vec<UserId> = (396..400).map(UserId).collect();
        assert_eq!(cluster_of(396), Some(&sampled));
        assert_eq!(cluster_of(400), None, "the subsample skips user 400");
    }
}

//! Lockstep co-liking detection, in the spirit of CopyCatch (Beutel et al.,
//! WWW 2013), which the paper cites as the state of the art it complements.
//!
//! Farm accounts work through job lists together: the same set of accounts
//! likes the same set of pages inside the same short windows. The detector
//! buckets every like by `(page, time-window)`, counts how often each pair
//! of users co-occurs in a bucket, and unions pairs with enough shared
//! buckets into suspicious clusters.

use likelab_graph::{PageId, UserId};
use likelab_osn::OsnWorld;
use likelab_sim::{SimDuration, SimTime};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Lockstep-detector parameters.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct LockstepConfig {
    /// Width of the co-occurrence time window.
    pub window: SimDuration,
    /// Pairs must share at least this many `(page, window)` buckets.
    pub min_shared_buckets: usize,
    /// Buckets smaller than this are skipped (no evidence of coordination).
    pub min_bucket_size: usize,
    /// Buckets larger than this are subsampled to bound the pair blow-up
    /// (a mega-popular page's window says little about coordination anyway).
    pub max_bucket_size: usize,
}

impl Default for LockstepConfig {
    fn default() -> Self {
        LockstepConfig {
            window: SimDuration::hours(2),
            min_shared_buckets: 3,
            min_bucket_size: 5,
            max_bucket_size: 400,
        }
    }
}

/// The detector's output: clusters of lockstep accounts, largest first.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct LockstepReport {
    /// Suspicious clusters (each sorted, list sorted by size descending).
    pub clusters: Vec<Vec<UserId>>,
}

impl LockstepReport {
    /// All flagged users.
    pub fn flagged(&self) -> Vec<UserId> {
        let mut v: Vec<UserId> = self.clusters.iter().flatten().copied().collect();
        v.sort_unstable();
        v
    }
}

/// Likes bucketed by `(page, window index)`, stored as one append-only
/// `(window, user)` column per page: the bucket store behind both batch
/// [`detect`] and [`crate::online::OnlineLockstep`]. A like at `at` falls
/// in window `at / config.window`, kept as a full `u64`.
///
/// A bucket is a run of equal windows in its page's column. Appends keep
/// that true as long as a page's likes arrive in window order; a like for
/// an earlier window (a backfill) flags the page, and [`report`] finds
/// that page's buckets in a sorted scratch copy instead.
///
/// [`report`]: BucketStore::report
#[derive(Clone, Debug, Default)]
pub(crate) struct BucketStore {
    /// Indexed by page id; pages with no likes yet hold an empty column.
    pages: Vec<PageColumn>,
}

/// One page's likes in arrival order.
#[derive(Clone, Debug, Default)]
struct PageColumn {
    likes: Vec<(u64, UserId)>,
    /// Some like arrived for an earlier window than the one before it.
    out_of_order: bool,
}

impl BucketStore {
    /// Append one like to its page's column.
    pub(crate) fn push(
        &mut self,
        user: UserId,
        page: PageId,
        at: SimTime,
        config: &LockstepConfig,
    ) {
        let window = at.as_secs() / config.window.as_secs().max(1);
        let idx = page.idx();
        if idx >= self.pages.len() {
            self.pages.resize_with(idx + 1, PageColumn::default);
        }
        // lint:allow(panic-reachable-from-serve): resize_with above guarantees idx is in bounds; only accepted likes reach the store, so idx is below the world's page count
        let column = &mut self.pages[idx];
        if column.likes.last().is_some_and(|&(last, _)| window < last) {
            column.out_of_order = true;
        }
        column.likes.push((window, user));
    }

    /// Run the pair-counting kernel over every bucket of at least
    /// `min_bucket_size` likes. Smaller buckets never reach the kernel,
    /// which would skip them anyway.
    pub(crate) fn report(&self, config: &LockstepConfig) -> LockstepReport {
        let mut sorted: Vec<(u64, UserId)> = Vec::new();
        let mut members: Vec<UserId> = Vec::new();
        let mut buckets: Vec<std::ops::Range<usize>> = Vec::new();
        for column in &self.pages {
            let likes = if column.out_of_order {
                sorted.clear();
                sorted.extend_from_slice(&column.likes);
                sorted.sort_unstable_by_key(|&(window, _)| window);
                &sorted
            } else {
                &column.likes
            };
            for run in likes.chunk_by(|a, b| a.0 == b.0) {
                if run.len() >= config.min_bucket_size {
                    let start = members.len();
                    members.extend(run.iter().map(|&(_, user)| user));
                    buckets.push(start..members.len());
                }
            }
        }
        detect_from_buckets(
            // lint:allow(panic-reachable-from-serve): every range was cut from members as it grew
            buckets.iter().map(|range| &members[range.clone()]),
            config,
        )
    }
}

/// Run lockstep detection over the whole like ledger.
///
/// ```
/// use likelab_detect::lockstep::{detect, LockstepConfig};
/// use likelab_osn::OsnWorld;
///
/// // An empty world has no co-liking evidence.
/// let world = OsnWorld::new();
/// let report = detect(&world, &LockstepConfig::default());
/// assert!(report.clusters.is_empty());
/// ```
pub fn detect(world: &OsnWorld, config: &LockstepConfig) -> LockstepReport {
    let mut store = BucketStore::default();
    for r in world.likes().records() {
        store.push(r.user, r.page, r.at, config);
    }
    store.report(config)
}

/// The pair-counting / clustering kernel behind [`detect`], over
/// already-bucketed likes: each item is one `(page, window)` bucket's
/// users.
///
/// This is the shared tail of the batch and online paths, both of which
/// feed it from the same bucket store. Buckets may come in any order and
/// hold their users in any order: pair counts are sums, and the kernel
/// sorts and dedups each bucket before counting, so the output depends
/// only on the multiset of buckets.
pub fn detect_from_buckets<'a>(
    buckets: impl IntoIterator<Item = &'a [UserId]>,
    config: &LockstepConfig,
) -> LockstepReport {
    // Count co-occurrences per user pair. BTree maps throughout: every
    // aggregation here is commutative, but deterministic iteration keeps
    // intermediate vectors reproducible by construction.
    let mut pair_counts: BTreeMap<(UserId, UserId), u32> = BTreeMap::new();
    let mut users: Vec<UserId> = Vec::new();
    let mut sample: Vec<UserId> = Vec::new();
    for bucket in buckets {
        if bucket.len() < config.min_bucket_size {
            continue;
        }
        users.clear();
        users.extend_from_slice(bucket);
        users.sort_unstable();
        users.dedup();
        // Deterministic subsample: evenly strided.
        let sampled: &[UserId] = if users.len() > config.max_bucket_size {
            let stride = users.len() as f64 / config.max_bucket_size as f64;
            sample.clear();
            sample.extend(
                (0..config.max_bucket_size)
                    // lint:allow(panic-reachable-from-serve): i * stride < len since stride = len / max and i < max
                    .map(|i| users[(i as f64 * stride) as usize]),
            );
            &sample
        } else {
            &users
        };
        for i in 0..sampled.len() {
            for j in (i + 1)..sampled.len() {
                // lint:allow(panic-reachable-from-serve): i, j < sampled.len() by the loop bounds
                *pair_counts.entry((sampled[i], sampled[j])).or_insert(0) += 1;
            }
        }
    }
    // Union pairs that cross the evidence threshold.
    let strong: Vec<(UserId, UserId)> = pair_counts
        .into_iter()
        .filter(|(_, c)| *c as usize >= config.min_shared_buckets)
        .map(|(p, _)| p)
        .collect();
    let mut members: Vec<UserId> = strong.iter().flat_map(|(a, b)| [*a, *b]).collect();
    members.sort_unstable();
    members.dedup();
    let mut uf = likelab_graph::UnionFind::new(&members);
    for (a, b) in &strong {
        uf.union(*a, *b);
    }
    let mut groups: BTreeMap<UserId, Vec<UserId>> = BTreeMap::new();
    for m in &members {
        groups.entry(uf.find(*m)).or_default().push(*m);
    }
    let mut clusters: Vec<Vec<UserId>> = groups.into_values().collect();
    for c in &mut clusters {
        c.sort_unstable();
    }
    // lint:allow(panic-reachable-from-serve): every cluster holds >= 1 member by construction
    clusters.sort_by(|a, b| b.len().cmp(&a.len()).then_with(|| a[0].cmp(&b[0])));
    LockstepReport { clusters }
}

#[cfg(test)]
mod tests {
    use super::*;
    use likelab_osn::{ActorClass, Country, Gender, PageCategory, PrivacySettings, Profile};
    use likelab_sim::Rng;

    fn mk_world(n_users: u32, n_pages: u32) -> OsnWorld {
        let mut w = OsnWorld::new();
        for i in 0..n_users {
            let class = if i < 20 {
                ActorClass::Bot(1)
            } else {
                ActorClass::Organic
            };
            w.create_account(
                Profile {
                    gender: Gender::Male,
                    age: 25,
                    country: Country::Usa,
                    home_region: 0,
                },
                class,
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

    /// 20 bots sweep pages 0..6 together in tight windows; 80 organic users
    /// like random pages at random times.
    fn scenario() -> OsnWorld {
        let mut w = mk_world(100, 50);
        let mut rng = Rng::seed_from_u64(7);
        for (job, page) in (0..6u32).enumerate() {
            let start = SimTime::at_day(10 + 3 * job as u64);
            for bot in 0..20u32 {
                w.record_like(
                    UserId(bot),
                    PageId(page),
                    start + SimDuration::minutes(rng.below(90)),
                );
            }
        }
        for organic in 20..100u32 {
            for _ in 0..10 {
                let page = PageId(rng.below(50) as u32);
                let at = SimTime::from_secs(rng.below(100 * 86_400));
                w.record_like(UserId(organic), page, at);
            }
        }
        w
    }

    #[test]
    fn lockstep_ring_is_caught_organics_are_not() {
        let w = scenario();
        let report = detect(&w, &LockstepConfig::default());
        assert!(!report.clusters.is_empty(), "the bot ring must be found");
        let biggest = &report.clusters[0];
        let bots_in = biggest.iter().filter(|u| u.0 < 20).count();
        assert!(bots_in >= 18, "most bots clustered: {bots_in}");
        let organics_flagged = report.flagged().iter().filter(|u| u.0 >= 20).count();
        assert!(
            organics_flagged <= 4,
            "few organic false positives: {organics_flagged}"
        );
    }

    #[test]
    fn threshold_controls_sensitivity() {
        let w = scenario();
        let strict = detect(
            &w,
            &LockstepConfig {
                min_shared_buckets: 100,
                ..LockstepConfig::default()
            },
        );
        assert!(strict.clusters.is_empty(), "nobody shares 100 buckets");
    }

    #[test]
    fn empty_world_is_clean() {
        let w = mk_world(5, 5);
        let report = detect(&w, &LockstepConfig::default());
        assert!(report.clusters.is_empty());
        assert!(report.flagged().is_empty());
    }

    #[test]
    fn single_shared_burst_is_insufficient() {
        // One co-liked page is normal (a viral post); 3+ is coordination.
        let mut w = mk_world(30, 5);
        for u in 0..30u32 {
            w.record_like(UserId(u), PageId(0), SimTime::at_day(1));
        }
        let report = detect(&w, &LockstepConfig::default());
        assert!(report.clusters.is_empty());
    }
}

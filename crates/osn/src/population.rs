//! Organic-population synthesis.
//!
//! Builds the background world the honeypot study runs inside: accounts with
//! country/age/gender demographics, a community-structured friendship graph
//! with heavy-tailed degrees, a Zipf-popular background page catalogue, and
//! per-user like histories.
//!
//! Two account classes come out of here:
//!
//! - **Organic** users: global demographics, median ≈ 34 page likes (the
//!   paper's baseline sample), and no interest whatsoever in honeypot pages
//!   (the pages literally say "do not like this").
//! - **Click-prone** users: the segment legitimate ad campaigns
//!   disproportionately reach — young, mostly male in IN/EG (the paper's
//!   Table 2 shows 93–94% male there), very high page-like counts (median
//!   600–1000 in the paper's Figure 4). Their prevalence per country is a
//!   calibration knob; the paper's FB-ALL campaign landing 96% in India is
//!   reproduced by their geography and by per-country ad prices.
//!
//! Background likes are timestamped inside a *history window* before the
//! campaign launch; the study simply launches at the end of that window.

use crate::account::{ActorClass, PrivacySettings};
use crate::demographics::{Blueprint, Country, Gender};
use crate::likes::LikeColumns;
use crate::page::PageCategory;
use crate::world::OsnWorld;
use likelab_graph::{generate, PageId, UserId};
use likelab_sim::dist::{log_normal_median, Zipf};
use likelab_sim::{parallel_map, Exec, Rng, SimDuration, SimTime};
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, HashMap};

/// Configuration of the synthetic population.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct PopulationConfig {
    /// Number of organic accounts.
    pub n_organic: usize,
    /// Country mix of the organic population, as weights.
    pub country_mix: Vec<(Country, f64)>,
    /// Click-prone accounts created per country, as a fraction of that
    /// country's organic head-count.
    pub click_prone_fraction: Vec<(Country, f64)>,
    /// Median friend count of organic users (log-normal).
    pub organic_degree_median: f64,
    /// Log-space spread of organic degrees.
    pub organic_degree_sigma: f64,
    /// Median friend count of click-prone users (Table 3's Facebook row:
    /// median 198, mean 315 ± 454).
    pub click_prone_degree_median: f64,
    /// Log-space spread of click-prone degrees.
    pub click_prone_degree_sigma: f64,
    /// Fraction of friendship edges wired across countries rather than
    /// inside the home community.
    pub cross_country_edge_fraction: f64,
    /// Fraction of each user's friends that exist *inside* the simulated
    /// window as real edges; the rest become `off_network_friends` so
    /// reported friend counts stay scale-invariant.
    pub in_world_degree_fraction: f64,
    /// In-world fraction for click-prone users, much lower: the paper's
    /// Facebook likers had only 6 friendships among 1448 people — ad
    /// clickers are scattered individuals whose friends are overwhelmingly
    /// outside any crawlable window, not a community sample.
    pub click_prone_in_world_fraction: f64,
    /// Number of background pages in the catalogue.
    pub n_background_pages: usize,
    /// Fraction of the catalogue that is globally popular; the rest splits
    /// into per-country slices (Indian users mostly like Indian pages).
    /// The slicing is what keeps Figure 5(a)'s cross-campaign page
    /// similarities from washing out: campaigns only overlap through the
    /// global head and shared slices.
    pub global_page_fraction: f64,
    /// Fraction of each user's background likes drawn from the global head
    /// rather than their country slice.
    pub global_like_fraction: f64,
    /// Zipf exponent of page popularity.
    pub zipf_exponent: f64,
    /// Median background-like count of organic users (the paper's baseline:
    /// median 34, mean ≈ 40).
    pub organic_like_median: f64,
    /// Log-space spread of organic like counts.
    pub organic_like_sigma: f64,
    /// Median like count of click-prone users (paper: 600–1000).
    pub click_prone_like_median: f64,
    /// Log-space spread of click-prone like counts.
    pub click_prone_like_sigma: f64,
    /// Probability an organic account has a public friend list (the paper
    /// observed ~80% of Facebook-campaign likers keeping it private).
    pub organic_friend_list_public: f64,
    /// Probability a click-prone account has a public friend list
    /// (Table 3: 18% for the Facebook group).
    pub click_prone_friend_list_public: f64,
    /// Probability the liked-page list is public (page likes were broadly
    /// crawlable in 2014).
    pub likes_public: f64,
    /// Probability an account appears in the public directory.
    pub searchable: f64,
    /// Length of the pre-launch history window the background likes are
    /// spread over.
    pub history: SimDuration,
}

impl Default for PopulationConfig {
    fn default() -> Self {
        PopulationConfig {
            n_organic: 60_000,
            // Calibrated mix: the countries the study touches are
            // over-weighted relative to the real platform so that scaled-down
            // worlds still contain enough of each audience (documented in
            // DESIGN.md — a scale artifact, not a claim about Facebook).
            country_mix: vec![
                (Country::Usa, 0.13),
                (Country::France, 0.05),
                (Country::India, 0.16),
                (Country::Egypt, 0.08),
                (Country::Turkey, 0.07),
                (Country::Brazil, 0.12),
                (Country::Indonesia, 0.11),
                (Country::Philippines, 0.08),
                (Country::Uk, 0.06),
                (Country::Mexico, 0.14),
            ],
            click_prone_fraction: vec![
                (Country::Usa, 0.010),
                (Country::France, 0.020),
                (Country::India, 0.16),
                (Country::Egypt, 0.15),
                (Country::Turkey, 0.035),
                (Country::Brazil, 0.020),
                (Country::Indonesia, 0.030),
                (Country::Philippines, 0.030),
                (Country::Uk, 0.008),
                (Country::Mexico, 0.015),
            ],
            organic_degree_median: 120.0,
            organic_degree_sigma: 0.9,
            click_prone_degree_median: 198.0,
            click_prone_degree_sigma: 1.0,
            cross_country_edge_fraction: 0.12,
            in_world_degree_fraction: 0.5,
            click_prone_in_world_fraction: 0.025,
            n_background_pages: 30_000,
            global_page_fraction: 0.4,
            global_like_fraction: 0.55,
            zipf_exponent: 1.05,
            organic_like_median: 34.0,
            organic_like_sigma: 1.1,
            click_prone_like_median: 750.0,
            click_prone_like_sigma: 0.8,
            organic_friend_list_public: 0.25,
            click_prone_friend_list_public: 0.18,
            likes_public: 0.95,
            searchable: 0.85,
            history: SimDuration::days(365),
        }
    }
}

impl PopulationConfig {
    /// Scale the population size down (or up) by `factor`, keeping all
    /// distributional parameters fixed. Campaign like-targets scale with the
    /// same factor in the study runner, so percentages survive.
    pub fn scaled(mut self, factor: f64) -> Self {
        assert!(factor > 0.0, "scale must be positive");
        self.n_organic = ((self.n_organic as f64 * factor).round() as usize).max(100);
        // The catalogue must stay much larger than the heaviest per-user like
        // count, or Zipf dedup would silently compress everyone's history
        // and Figure 5(a)'s similarities would saturate.
        self.n_background_pages = ((self.n_background_pages as f64 * factor).round() as usize)
            .max(12_000)
            .max((self.click_prone_like_median * 8.0) as usize);
        // The in-world share of each friend list shrinks with the world so
        // the graph stays sparse at tiny scales; *total* friend counts (what
        // Table 3 reports) stay fixed via off-network top-up.
        if factor < 1.0 {
            self.in_world_degree_fraction =
                (self.in_world_degree_fraction * factor.max(0.02).sqrt()).max(0.02);
            self.click_prone_in_world_fraction =
                (self.click_prone_in_world_fraction * factor.max(0.02).sqrt()).max(0.005);
        }
        self
    }
}

/// Handles into the synthesized population, used by the ad engine and the
/// public-directory sampler.
///
/// Serializable so checkpoint/resume can carry it across a process restart.
#[derive(Clone, Debug, Default, serde::Serialize, serde::Deserialize)]
pub struct Population {
    /// All organic account ids.
    pub organic: Vec<UserId>,
    /// All click-prone account ids.
    pub click_prone: Vec<UserId>,
    /// Click-prone ids per country (the ad auction's reachable audiences).
    /// Ordered map: iteration order must be deterministic (seeded runs).
    pub click_prone_by_country: BTreeMap<Country, Vec<UserId>>,
    /// Background page catalogue ids (global head followed by slices).
    pub background_pages: Vec<PageId>,
    /// The globally popular head of the catalogue.
    pub global_pages: Vec<PageId>,
    /// Per-country page slices (local brands, media, memes).
    pub country_slices: BTreeMap<Country, Vec<PageId>>,
    /// When the campaign launch happens (end of the history window).
    pub launch: SimTime,
}

/// Samples background pages with the global-head/country-slice mixture.
pub struct BackgroundSampler {
    global_zipf: Zipf,
    slice_zipfs: BTreeMap<Country, Zipf>,
    global_like_fraction: f64,
}

impl BackgroundSampler {
    /// Build a sampler over the population's catalogue.
    pub fn new(pop: &Population, config: &PopulationConfig) -> Self {
        BackgroundSampler {
            global_zipf: Zipf::new(pop.global_pages.len().max(1), config.zipf_exponent),
            slice_zipfs: pop
                .country_slices
                .iter()
                .map(|(c, pages)| (*c, Zipf::new(pages.len().max(1), config.zipf_exponent)))
                .collect(),
            global_like_fraction: config.global_like_fraction,
        }
    }

    /// One background page draw for a user from `country`.
    pub fn sample(&self, pop: &Population, country: Country, rng: &mut Rng) -> PageId {
        let use_global = pop
            .country_slices
            .get(&country)
            .map(|s| s.is_empty())
            .unwrap_or(true)
            || rng.chance(self.global_like_fraction);
        if use_global {
            pop.global_pages[self.global_zipf.sample(rng)]
        } else {
            let slice = &pop.country_slices[&country];
            slice[self.slice_zipfs[&country].sample(rng)]
        }
    }
}

/// Demographic blueprint of the click-prone segment in one country.
///
/// Calibrated to Table 2: FB-USA likers were 54% female and very young;
/// FB-IND/FB-EGY were 93/82% male and 13–24. The blueprint interpolates:
/// western clickers skew young-female, the rest young-male.
fn click_prone_blueprint(country: Country) -> Blueprint {
    let (female, ages) = match country {
        Country::Usa => (0.54, [0.54, 0.27, 0.07, 0.07, 0.01, 0.04]),
        Country::France => (0.46, [0.61, 0.21, 0.09, 0.02, 0.05, 0.02]),
        Country::India => (0.07, [0.53, 0.43, 0.02, 0.01, 0.005, 0.005]),
        Country::Egypt => (0.18, [0.55, 0.34, 0.06, 0.03, 0.01, 0.01]),
        _ => (0.20, [0.45, 0.40, 0.08, 0.04, 0.02, 0.01]),
    };
    Blueprint {
        female_fraction: female,
        age_weights: ages,
        country_weights: vec![(country, 1.0)],
    }
}

thread_local! {
    /// Epoch-stamped page-membership scratch for like-history dedup:
    /// `stamps[page] == epoch` means "this user already drew that page".
    /// Bumping the epoch clears the set in O(1) between users.
    static SEEN_STAMPS: std::cell::RefCell<(Vec<u32>, u32)> =
        const { std::cell::RefCell::new((Vec::new(), 0)) };
}

/// Synthesize the population into `world`, returning the handles.
///
/// Uses [`Exec::auto`] for the parallel like-history stage; see
/// [`synthesize_with`] for the determinism contract.
pub fn synthesize(world: &mut OsnWorld, config: &PopulationConfig, rng: &mut Rng) -> Population {
    synthesize_with(world, config, rng, Exec::auto())
}

/// Synthesize the population into `world` under an explicit execution policy.
///
/// Account creation and graph wiring mutate the world arena and stay
/// sequential. Like-history synthesis — the dominant cost at paper scale —
/// fans out per user: user `j` draws from `likes_rng.split(j)`, a stream that
/// depends only on the seed and the user's index, so the flattened history is
/// the same for [`Exec::Sequential`] and any worker count.
pub fn synthesize_with(
    world: &mut OsnWorld,
    config: &PopulationConfig,
    rng: &mut Rng,
    exec: Exec,
) -> Population {
    likelab_obs::span!("population.synthesize");
    let mut pop = Population {
        launch: SimTime::EPOCH + config.history,
        ..Population::default()
    };
    let mut account_rng = rng.fork("population.accounts");
    let mut graph_rng = rng.fork("population.graph");
    let likes_rng = rng.fork("population.likes");

    // --- accounts, grouped by country ---------------------------------
    let accounts_span = likelab_obs::span::enter("population.accounts");
    let total_weight: f64 = config.country_mix.iter().map(|(_, w)| w).sum();
    let mut organic_by_country: BTreeMap<Country, Vec<UserId>> = BTreeMap::new();
    let mut degree_target: Vec<(UserId, f64)> = Vec::new();

    for (country, weight) in &config.country_mix {
        let n_c = ((config.n_organic as f64) * weight / total_weight).round() as usize;
        let blueprint = Blueprint::global_with_countries(vec![(*country, 1.0)]);
        let mut ids = Vec::with_capacity(n_c);
        for _ in 0..n_c {
            let profile = blueprint.sample(&mut account_rng);
            let privacy = PrivacySettings {
                friend_list_public: account_rng.chance(config.organic_friend_list_public),
                likes_public: account_rng.chance(config.likes_public),
                searchable: account_rng.chance(config.searchable),
            };
            // Account ages: organic accounts were created throughout the
            // platform's life — anywhere in the history window.
            let created = SimTime::from_secs(account_rng.below(config.history.as_secs().max(1)));
            let id = world.create_account(profile, ActorClass::Organic, privacy, created);
            let target = log_normal_median(
                &mut account_rng,
                config.organic_degree_median,
                config.organic_degree_sigma,
            );
            degree_target.push((id, target.min(5_000.0)));
            ids.push(id);
            pop.organic.push(id);
        }

        // Click-prone accounts for this country.
        let frac = config
            .click_prone_fraction
            .iter()
            .find(|(c, _)| c == country)
            .map(|(_, f)| *f)
            .unwrap_or(0.0);
        let n_cp = ((n_c as f64) * frac).round() as usize;
        let cp_blueprint = click_prone_blueprint(*country);
        let mut cp_ids = Vec::with_capacity(n_cp);
        for _ in 0..n_cp {
            let profile = cp_blueprint.sample(&mut account_rng);
            let privacy = PrivacySettings {
                friend_list_public: account_rng.chance(config.click_prone_friend_list_public),
                likes_public: account_rng.chance(config.likes_public),
                searchable: account_rng.chance(config.searchable),
            };
            let created = SimTime::from_secs(account_rng.below(config.history.as_secs().max(1)));
            let id = world.create_account(profile, ActorClass::ClickProne, privacy, created);
            let target = log_normal_median(
                &mut account_rng,
                config.click_prone_degree_median,
                config.click_prone_degree_sigma,
            );
            degree_target.push((id, target.min(5_000.0)));
            cp_ids.push(id);
            pop.click_prone.push(id);
            ids.push(id);
        }
        pop.click_prone_by_country.insert(*country, cp_ids);
        organic_by_country.insert(*country, ids);
    }
    drop(accounts_span);
    let graph_span = likelab_obs::span::enter("population.graph");

    // --- friendships ----------------------------------------------------
    // Each account carries a scale-invariant *total* friend-count target;
    // only a small in-world fraction becomes real edges (within-country
    // Chung–Lu among organics plus a cross-country slice for global
    // connectivity — mutual friends across communities feed the 2-hop
    // analysis). The rest is topped up as off-network friends afterwards.
    //
    // Click-prone users attach *to organics only*, and sparsely: the
    // paper's Facebook-campaign likers shared almost no friendships with
    // each other (6 among 1448) — they are scattered individuals, not a
    // community. Wiring them into the compressed community graph like
    // everyone else would fabricate a dense liker graph the real study
    // never saw.
    let target_of: HashMap<UserId, f64> = degree_target.iter().copied().collect();
    let cp_set: std::collections::HashSet<UserId> = pop.click_prone.iter().copied().collect();
    let in_world = config.in_world_degree_fraction.clamp(0.0, 1.0);
    let cp_in_world = config.click_prone_in_world_fraction.clamp(0.0, 1.0);
    for (country, members) in &organic_by_country {
        let organics: Vec<UserId> = members
            .iter()
            .copied()
            .filter(|u| !cp_set.contains(u))
            .collect();
        let targets: Vec<f64> = organics
            .iter()
            .map(|u| target_of[u] * in_world * (1.0 - config.cross_country_edge_fraction))
            .collect();
        world.generate_friendships(|g| generate::chung_lu(g, &organics, &targets, &mut graph_rng));
        // Click-prone attachment: a handful of edges into the organic
        // community, never to other clickers.
        if organics.is_empty() {
            continue;
        }
        let clickers = pop
            .click_prone_by_country
            .get(country)
            .cloned()
            .unwrap_or_default();
        for cp in clickers {
            let k = (target_of[&cp] * cp_in_world).round() as usize;
            for _ in 0..k {
                let friend = organics[graph_rng.index(organics.len())];
                world.add_friendship(cp, friend);
            }
        }
    }
    let all_organics: Vec<UserId> = pop.organic.clone();
    let cross_targets: Vec<f64> = all_organics
        .iter()
        .map(|u| target_of[u] * in_world * config.cross_country_edge_fraction)
        .collect();
    world.generate_friendships(|g| {
        generate::chung_lu(g, &all_organics, &cross_targets, &mut graph_rng)
    });
    for (u, total) in &degree_target {
        let realized = world.friends().degree(*u) as f64;
        let off = (total - realized).max(0.0).round() as u32;
        world.set_off_network_friends(*u, off);
    }
    drop(graph_span);
    let catalogue_span = likelab_obs::span::enter("population.catalogue");

    // --- background catalogue: global head + country slices ---------------
    let n_global =
        ((config.n_background_pages as f64) * config.global_page_fraction).round() as usize;
    for i in 0..n_global {
        let id = world.create_page(
            format!("bg-global-{i}"),
            "",
            None,
            PageCategory::Background,
            SimTime::EPOCH,
        );
        pop.background_pages.push(id);
        pop.global_pages.push(id);
    }
    let slice_total = config.n_background_pages - n_global;
    for (country, weight) in &config.country_mix {
        let n_slice = (((slice_total as f64) * weight / total_weight).round() as usize).max(50);
        let mut slice = Vec::with_capacity(n_slice);
        for i in 0..n_slice {
            let id = world.create_page(
                format!("bg-{country}-{i}"),
                "",
                None,
                PageCategory::Background,
                SimTime::EPOCH,
            );
            pop.background_pages.push(id);
            slice.push(id);
        }
        pop.country_slices.insert(*country, slice);
    }
    drop(catalogue_span);
    likelab_obs::span!("population.likes");

    // --- like histories ----------------------------------------------------
    // The dominant cost at full scale, and embarrassingly parallel: every
    // user's history is an independent draw. User `j` gets the split stream
    // `likes_rng.split(j)` — a pure function of the seed and the index — so
    // shards can run on any worker in any order and still produce exactly
    // the history the sequential loop would.
    let sampler = BackgroundSampler::new(&pop, config);
    let history_secs = config.history.as_secs().max(1);
    let jobs: Vec<(UserId, Country, f64, f64)> = pop
        .organic
        .iter()
        .map(|u| (*u, config.organic_like_median, config.organic_like_sigma))
        .chain(pop.click_prone.iter().map(|u| {
            (
                *u,
                config.click_prone_like_median,
                config.click_prone_like_sigma,
            )
        }))
        .map(|(id, median, sigma)| (id, world.profile(id).country, median, sigma))
        .collect();
    let n_total_pages = world.page_count();
    let shards = parallel_map(exec, &jobs, |j, &(id, country, median, sigma)| {
        let mut user_rng = likes_rng.split(j as u64);
        let n_likes = log_normal_median(&mut user_rng, median, sigma).round() as usize;
        let n_likes = n_likes.min(config.n_background_pages / 2).min(10_000);
        // Distinct pages: Zipf concentrates mass on the head, so rejection
        // on a per-user seen-set keeps realized like counts on target. The
        // set is an epoch-stamped array indexed by page id — thread-local
        // scratch reused across users, so dedup costs one word probe
        // instead of a hash per draw and allocates nothing per user.
        // Membership answers are exactly a `HashSet`'s, so the RNG stream
        // is unchanged.
        let mut likes = Vec::with_capacity(n_likes);
        let mut accepted = 0usize;
        let mut attempts = 0usize;
        SEEN_STAMPS.with(|cell| {
            let (stamps, epoch) = &mut *cell.borrow_mut();
            if stamps.len() < n_total_pages {
                stamps.resize(n_total_pages, 0);
            }
            *epoch += 1;
            if *epoch == 0 {
                stamps.fill(0);
                *epoch = 1;
            }
            while accepted < n_likes && attempts < n_likes * 8 + 16 {
                attempts += 1;
                let page = sampler.sample(&pop, country, &mut user_rng);
                let slot = &mut stamps[page.idx()];
                if *slot != *epoch {
                    *slot = *epoch;
                    accepted += 1;
                    let at = SimTime::from_secs(user_rng.below(history_secs));
                    likes.push((at, id, page));
                }
            }
        });
        likes
    });
    // Draw rows carry the sort key up front: `(at, user, page)` *is* the
    // global ordering key, so the flattened batch sorts by plain value.
    let mut pending: Vec<(SimTime, UserId, PageId)> = shards.into_iter().flatten().collect();
    likelab_obs::metrics::counter("likes.synthesized", pending.len() as u64);
    // The ledger requires chronological per-page streams: sort globally,
    // split into columns, then bulk-ingest through the sharded columnar
    // path (per-shard page indexing runs through `exec`; the outcome is
    // identical to recording each like in order).
    // Unstable is safe: the key `(at, u, p)` determines the whole element,
    // so equal keys mean equal elements and order among them is moot — any
    // comparison sort yields the same permutation.
    let sort_span = likelab_obs::span::enter("population.likes.sort");
    pending.sort_unstable();
    drop(sort_span);
    // Transpose the sorted rows into the SoA column batch the ledger
    // ingests directly (one linear pass; the rows are freed before ingest
    // so the transient batch does not stack on top of them).
    let split_span = likelab_obs::span::enter("population.likes.split");
    let mut cols = LikeColumns::with_capacity(pending.len());
    for &(at, user, page) in &pending {
        cols.push(user, page, at);
    }
    drop(pending);
    drop(split_span);
    let ingest_span = likelab_obs::span::enter("population.likes.ingest");
    world.ingest_like_columns(&cols, exec);
    drop(ingest_span);
    drop(cols);

    pop
}

/// Age distribution (fractions over the six brackets) of a set of accounts —
/// convenience used by tests and the calibration benches.
pub fn age_distribution(world: &OsnWorld, users: &[UserId]) -> [f64; 6] {
    let mut counts = [0usize; 6];
    for u in users {
        counts[world.profile(*u).age_bracket().index()] += 1;
    }
    let total = users.len().max(1) as f64;
    let mut out = [0.0; 6];
    for (i, c) in counts.iter().enumerate() {
        out[i] = *c as f64 / total;
    }
    out
}

/// Female fraction of a set of accounts.
pub fn female_fraction(world: &OsnWorld, users: &[UserId]) -> f64 {
    if users.is_empty() {
        return 0.0;
    }
    users
        .iter()
        .filter(|u| world.profile(**u).gender == Gender::Female)
        .count() as f64
        / users.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::demographics::GLOBAL_AGE_DIST;

    fn small_config() -> PopulationConfig {
        PopulationConfig::default().scaled(0.02) // 1200 organics
    }

    fn build() -> (OsnWorld, Population, PopulationConfig) {
        let mut world = OsnWorld::new();
        let config = small_config();
        let mut rng = Rng::seed_from_u64(7);
        let pop = synthesize(&mut world, &config, &mut rng);
        (world, pop, config)
    }

    #[test]
    fn population_sizes_match_config() {
        let (world, pop, config) = build();
        assert!(
            (pop.organic.len() as f64 / config.n_organic as f64 - 1.0).abs() < 0.02,
            "organic count {} vs {}",
            pop.organic.len(),
            config.n_organic
        );
        assert!(!pop.click_prone.is_empty());
        assert_eq!(
            world.account_count(),
            pop.organic.len() + pop.click_prone.len()
        );
        assert_eq!(world.page_count(), config.n_background_pages);
    }

    #[test]
    fn click_prone_geography_is_skewed() {
        let (_, pop, _) = build();
        let india = pop.click_prone_by_country[&Country::India].len();
        let usa = pop.click_prone_by_country[&Country::Usa].len();
        assert!(
            india > usa * 5,
            "India clickers ({india}) should dwarf USA ({usa})"
        );
    }

    #[test]
    fn organic_demographics_match_global_marginals() {
        let (world, pop, _) = build();
        let dist = age_distribution(&world, &pop.organic);
        assert!(
            dist.iter()
                .zip(GLOBAL_AGE_DIST)
                .all(|(d, g)| (d - g).abs() <= 0.04),
            "organic age dist {dist:?} vs global {GLOBAL_AGE_DIST:?}"
        );
        let f = female_fraction(&world, &pop.organic);
        assert!((f - 0.46).abs() < 0.04, "female fraction {f}");
    }

    #[test]
    fn click_prone_india_is_young_and_male() {
        let (world, pop, _) = build();
        let india = &pop.click_prone_by_country[&Country::India];
        let f = female_fraction(&world, india);
        assert!(f < 0.15, "India clickers should be male-heavy, {f}");
        let dist = age_distribution(&world, india);
        assert!(
            dist[0] + dist[1] > 0.9,
            "India clickers should be 13-24, {dist:?}"
        );
    }

    #[test]
    fn organic_like_median_tracks_baseline() {
        let (world, pop, config) = build();
        let mut counts: Vec<usize> = pop
            .organic
            .iter()
            .map(|u| world.likes().user_like_count(*u))
            .collect();
        counts.sort_unstable();
        let median = counts[counts.len() / 2] as f64;
        assert!(
            (median / config.organic_like_median - 1.0).abs() < 0.25,
            "median {median} vs target {}",
            config.organic_like_median
        );
    }

    #[test]
    fn click_prone_like_far_more_pages() {
        let (world, pop, _) = build();
        let median = |ids: &[UserId]| {
            let mut c: Vec<usize> = ids
                .iter()
                .map(|u| world.likes().user_like_count(*u))
                .collect();
            c.sort_unstable();
            c[c.len() / 2]
        };
        let org = median(&pop.organic);
        let cp = median(&pop.click_prone);
        assert!(
            cp > org * 5,
            "click-prone median {cp} should dwarf organic {org}"
        );
    }

    #[test]
    fn friendship_graph_is_populated_and_connected_enough() {
        let (world, pop, _) = build();
        let mean_deg = 2.0 * world.friends().edge_count() as f64 / world.account_count() as f64;
        assert!(mean_deg > 4.0, "mean degree {mean_deg} too low");
        // A sample of users should mostly have at least one friend.
        let friendless = pop
            .organic
            .iter()
            .take(500)
            .filter(|u| world.friends().degree(**u) == 0)
            .count();
        assert!(friendless < 150, "{friendless} of 500 friendless");
    }

    #[test]
    fn background_like_times_are_pre_launch() {
        let (world, pop, _) = build();
        for r in world.likes().records().take(10_000) {
            assert!(r.at < pop.launch, "background like after launch");
        }
    }

    #[test]
    fn parallel_synthesis_is_bit_identical_to_sequential() {
        let run = |exec: Exec| {
            let mut world = OsnWorld::new();
            let config = small_config();
            let mut rng = Rng::seed_from_u64(77);
            let pop = synthesize_with(&mut world, &config, &mut rng, exec);
            let likes: Vec<_> = world
                .likes()
                .records()
                .map(|r| (r.user, r.page, r.at))
                .collect();
            (likes, pop.organic.len(), pop.click_prone.len())
        };
        let sequential = run(Exec::Sequential);
        for workers in [2, 5] {
            assert_eq!(sequential, run(Exec::workers(workers)), "workers={workers}");
        }
    }

    #[test]
    fn synthesis_is_deterministic() {
        let run = || {
            let mut world = OsnWorld::new();
            let config = small_config();
            let mut rng = Rng::seed_from_u64(1234);
            let pop = synthesize(&mut world, &config, &mut rng);
            (
                world.likes().len(),
                world.friends().edge_count(),
                pop.click_prone.len(),
            )
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn scaled_config_shrinks_world_not_observables() {
        let base = PopulationConfig::default();
        let small = PopulationConfig::default().scaled(0.1);
        assert!(small.n_organic < base.n_organic / 5);
        assert_eq!(small.organic_like_median, base.organic_like_median);
        // Total friend-count targets stay fixed; only the in-world share
        // shrinks.
        assert_eq!(small.organic_degree_median, base.organic_degree_median);
        assert!(small.in_world_degree_fraction < base.in_world_degree_fraction);
    }

    #[test]
    #[should_panic(expected = "scale must be positive")]
    fn zero_scale_rejected() {
        let _ = PopulationConfig::default().scaled(0.0);
    }
}

//! Property-based tests of the platform substrate's invariants.

use likelab_graph::{PageId, UserId};
use likelab_osn::demographics::{AgeBracket, Blueprint, Country};
use likelab_osn::{
    ActorClass, AudienceReport, Gender, LikeColumns, LikeLedger, OsnWorld, PageCategory,
    PrivacySettings, Profile,
};
use likelab_sim::{Rng, SimTime};
use proptest::prelude::*;

proptest! {
    /// Age bracketing is total over the platform's age domain and sampling
    /// within a bracket round-trips.
    #[test]
    fn age_brackets_are_total(age in 13u8..=120, seed in any::<u64>()) {
        let b = AgeBracket::from_age(age);
        let mut rng = Rng::seed_from_u64(seed);
        let sampled = b.sample_age(&mut rng);
        prop_assert_eq!(AgeBracket::from_age(sampled), b);
        prop_assert!(b.index() < 6);
    }

    /// Blueprint sampling always produces profiles in the blueprint's
    /// support.
    #[test]
    fn blueprints_sample_their_support(seed in any::<u64>(), female in 0.0f64..=1.0) {
        let bp = Blueprint {
            female_fraction: female,
            age_weights: [0.0, 1.0, 0.0, 0.0, 1.0, 0.0],
            country_weights: vec![(Country::Turkey, 1.0), (Country::India, 0.0)],
        };
        let mut rng = Rng::seed_from_u64(seed);
        for _ in 0..32 {
            let p = bp.sample(&mut rng);
            prop_assert_eq!(p.country, Country::Turkey, "zero-weight country never drawn");
            let b = p.age_bracket();
            prop_assert!(b == AgeBracket::A18_24 || b == AgeBracket::A45_54);
        }
    }

    /// The like ledger's two indexes agree with each other and with the
    /// structural graph, whatever the (possibly duplicated, unordered)
    /// record stream.
    #[test]
    fn ledger_indexes_agree(likes in prop::collection::vec((0u32..15, 0u32..15, 0u64..1_000), 0..120)) {
        let mut ledger = LikeLedger::new(15, 15);
        let mut accepted = 0usize;
        for (u, p, t) in &likes {
            if ledger.record(UserId(*u), PageId(*p), SimTime::from_secs(*t)) {
                accepted += 1;
            }
        }
        prop_assert_eq!(ledger.len(), accepted);
        let user_total: usize = (0..15).map(|u| ledger.user_like_count(UserId(u))).sum();
        let page_total: usize = (0..15).map(|p| ledger.page_like_count(PageId(p))).sum();
        prop_assert_eq!(user_total, ledger.len());
        prop_assert_eq!(page_total, ledger.len());
        let membership_total: usize =
            (0..15).map(|u| ledger.user_pages(UserId(u)).count()).sum();
        prop_assert_eq!(membership_total, ledger.len());
        // Sorted accessors really sort.
        for p in 0..15 {
            let sorted = ledger.of_page_sorted(PageId(p));
            prop_assert!(sorted.windows(2).all(|w| w[0].at <= w[1].at));
            prop_assert_eq!(sorted.len(), ledger.page_like_count(PageId(p)));
        }
    }

    /// Per-side streams are order-preserving projections of the global
    /// record stream: `of_user(u)` equals the records with that user, in
    /// global order, and `of_page(p)` likewise — whatever the (possibly
    /// duplicated, unordered) insert stream.
    #[test]
    fn ledger_streams_project_global_order(
        likes in prop::collection::vec((0u32..12, 0u32..12, 0u64..500), 0..150),
    ) {
        let mut ledger = LikeLedger::new(12, 12);
        for (u, p, t) in &likes {
            ledger.record(UserId(*u), PageId(*p), SimTime::from_secs(*t));
        }
        let all: Vec<_> = ledger.records().collect();
        prop_assert_eq!(all.len(), ledger.len());
        for u in 0..12 {
            let direct: Vec<_> = ledger.of_user(UserId(u)).collect();
            let projected: Vec<_> = all.iter().copied().filter(|r| r.user == UserId(u)).collect();
            prop_assert_eq!(direct, projected, "user {} stream", u);
            let sorted = ledger.of_user_sorted(UserId(u));
            prop_assert!(sorted.windows(2).all(|w| w[0].at <= w[1].at));
            prop_assert_eq!(sorted.len(), ledger.user_like_count(UserId(u)));
        }
        for p in 0..12 {
            let direct: Vec<_> = ledger.of_page(PageId(p)).collect();
            let projected: Vec<_> = all.iter().copied().filter(|r| r.page == PageId(p)).collect();
            prop_assert_eq!(direct, projected, "page {} stream", p);
        }
    }

    /// Batch ingestion is equivalent to recording each like in order — for
    /// any worker count — and the page-range shards stay consistent with
    /// the per-user index.
    #[test]
    fn ledger_ingest_matches_record(
        likes in prop::collection::vec((0u32..10, 0u32..9000, 0u64..500), 0..200),
        workers in 1usize..5,
    ) {
        use likelab_sim::Exec;
        let n_pages = 9_000; // spans three page-range shards
        let batch: Vec<_> = likes
            .iter()
            .map(|(u, p, t)| (UserId(*u), PageId(*p), SimTime::from_secs(*t)))
            .collect();
        let mut by_record = LikeLedger::new(10, n_pages);
        for &(u, p, t) in &batch {
            by_record.record(u, p, t);
        }
        let mut by_batch = LikeLedger::new(10, n_pages);
        let accepted = by_batch.ingest_columns(&LikeColumns::from_rows(&batch), Exec::workers(workers));
        prop_assert_eq!(accepted, by_record.len());
        prop_assert_eq!(
            by_batch.records().collect::<Vec<_>>(),
            by_record.records().collect::<Vec<_>>()
        );
        for u in 0..10 {
            prop_assert_eq!(
                by_batch.of_user(UserId(u)).collect::<Vec<_>>(),
                by_record.of_user(UserId(u)).collect::<Vec<_>>()
            );
        }
        // Spot-check per-page postings on the pages actually touched.
        for &(_, p, _) in &batch {
            prop_assert_eq!(
                by_batch.of_page(p).collect::<Vec<_>>(),
                by_record.of_page(p).collect::<Vec<_>>()
            );
        }
    }

    /// Audience reports conserve mass: gender and age marginals both sum to
    /// the total, and geo shares sum to 1 for non-empty sets.
    #[test]
    fn audience_reports_conserve_mass(
        profiles in prop::collection::vec((any::<bool>(), 13u8..80, 0usize..10), 1..60),
    ) {
        let mut world = OsnWorld::new();
        let mut users = Vec::new();
        for (female, age, country_idx) in &profiles {
            let id = world.create_account(
                Profile {
                    gender: if *female { Gender::Female } else { Gender::Male },
                    age: *age,
                    country: Country::ALL[*country_idx],
                    home_region: 0,
                },
                ActorClass::Organic,
                PrivacySettings {
                    friend_list_public: false,
                    likes_public: false,
                    searchable: false,
                },
                SimTime::EPOCH,
            );
            users.push(id);
        }
        let report = AudienceReport::over_users(&world, &users);
        prop_assert_eq!(report.total, profiles.len());
        prop_assert_eq!(report.female + report.male, report.total);
        prop_assert_eq!(report.age_counts.iter().sum::<usize>(), report.total);
        let geo_sum: f64 = report.geo_distribution().iter().sum();
        prop_assert!((geo_sum - 1.0).abs() < 1e-9);
        let age_sum: f64 = report.age_distribution().iter().sum();
        prop_assert!((age_sum - 1.0).abs() < 1e-9);
    }

    /// Termination is one-way and removes the account from public surfaces
    /// while preserving the platform-side record.
    #[test]
    fn termination_is_permanent_and_hides(order in prop::collection::vec(0usize..6, 1..12)) {
        let mut world = OsnWorld::new();
        for _ in 0..6 {
            world.create_account(
                Profile {
                    gender: Gender::Male,
                    age: 30,
                    country: Country::Usa,
                    home_region: 0,
                },
                ActorClass::Bot(1),
                PrivacySettings {
                    friend_list_public: true,
                    likes_public: true,
                    searchable: true,
                },
                SimTime::EPOCH,
            );
        }
        let page = world.create_page("p", "", None, PageCategory::Honeypot, SimTime::EPOCH);
        for u in 0..6u32 {
            world.record_like(UserId(u), page, SimTime::at_day(1));
        }
        let mut terminated = std::collections::HashSet::new();
        for (i, idx) in order.iter().enumerate() {
            let u = UserId(*idx as u32);
            let was_active = !terminated.contains(&u);
            let result = world.terminate_account(u, SimTime::at_day(2 + i as u64));
            prop_assert_eq!(result, was_active, "terminate returns prior activity");
            terminated.insert(u);
        }
        let visible = world.visible_likers(page);
        prop_assert_eq!(visible.len(), 6 - terminated.len());
        prop_assert!(visible.iter().all(|u| !terminated.contains(u)));
        prop_assert_eq!(world.all_likers(page).len(), 6, "platform record intact");
    }
}

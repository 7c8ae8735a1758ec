//! Ablations of the design choices DESIGN.md §3 calls out, each printed as
//! a table with its takeaway:
//!
//! - **A1** — burst width vs. detectability: how wide does a farm have to
//!   smear its delivery before the burst detector loses it?
//! - **A2** — stealth connectivity vs. component structure: how dense does
//!   the sybil network have to be before the likers form one blob?
//! - **A3** — privacy rate vs. Table 3 visibility: how much of the real
//!   liker–liker structure does the crawler see at each public-list rate?
//! - **A4** — worldwide-allocation sharpness vs. the FB-ALL India collapse:
//!   how winner-take-most does the ad auction have to be before worldwide
//!   targeting lands 96% in one market?
//!
//! Every ablation builds its own small world from fixed seeds, so the
//! output does not depend on any argument.
//!
//! ```text
//! cargo run --release --example ablations
//! ```

use likelab::detect::{judge_page, BurstConfig};
use likelab::farms::{
    Delivery, DeliveryStyle, FarmOrder, FarmRoster, FarmSpec, PoolTopology, Region,
};
use likelab::graph::components::ComponentCensus;
use likelab::graph::twohop::direct_edges_within;
use likelab::graph::{PageId, UserId};
use likelab::osn::{AdMarket, Country, OsnWorld, PageCategory};
use likelab::sim::{Rng, SimDuration, SimTime};
use std::collections::HashSet;
use std::fmt::Write as _;

fn main() {
    ablation_burst_width();
    ablation_stealth_connectivity();
    ablation_privacy_rate();
    ablation_allocation_sharpness();
}

/// Print one ablation table under a grep-friendly banner.
fn print_block(title: &str, body: &str) {
    println!("\n==== {title} ====");
    for line in body.lines() {
        println!("  {line}");
    }
    println!();
}

/// A small world with enough background pages for camouflage.
fn small_world() -> (OsnWorld, Vec<PageId>) {
    let mut world = OsnWorld::new();
    let background: Vec<PageId> = (0..3_000)
        .map(|i| {
            world.create_page(
                format!("bg{i}"),
                "",
                None,
                PageCategory::Background,
                SimTime::EPOCH,
            )
        })
        .collect();
    (world, background)
}

/// Order 1,000 US likes for a fresh honeypot from a single-farm roster.
/// The delivered likes are not yet recorded in the returned world.
fn fulfill_order(spec: FarmSpec, seed: u64) -> (OsnWorld, PageId, Delivery) {
    let (mut world, background) = small_world();
    let mut roster = FarmRoster::new(vec![spec], background, 0.3, Rng::seed_from_u64(seed));
    let page = world.create_page("h", "", None, PageCategory::Honeypot, SimTime::at_day(100));
    let d = roster.fulfill(
        &mut world,
        &FarmOrder {
            farm: 0,
            page,
            region: Region::Country(Country::Usa),
            likes: 1_000,
            placed_at: SimTime::at_day(100),
        },
    );
    (world, page, d)
}

fn ablation_burst_width() {
    let mut body = String::new();
    let _ = writeln!(
        body,
        "{:24} {:>10} {:>10}",
        "delivery style", "peak2h", "flagged%"
    );
    let styles: Vec<(&str, DeliveryStyle)> = vec![
        (
            "burst 1h x1",
            DeliveryStyle::Burst {
                days: 1,
                bursts: 1,
                window: SimDuration::hours(1),
                start_delay: SimDuration::hours(6),
            },
        ),
        (
            "burst 2h x3 / 3d",
            DeliveryStyle::Burst {
                days: 3,
                bursts: 3,
                window: SimDuration::hours(2),
                start_delay: SimDuration::hours(10),
            },
        ),
        (
            "burst 12h x3 / 5d",
            DeliveryStyle::Burst {
                days: 5,
                bursts: 3,
                window: SimDuration::hours(12),
                start_delay: SimDuration::hours(10),
            },
        ),
        (
            "burst 24h x5 / 10d",
            DeliveryStyle::Burst {
                days: 10,
                bursts: 5,
                window: SimDuration::hours(24),
                start_delay: SimDuration::hours(10),
            },
        ),
        ("trickle 15d", DeliveryStyle::Trickle { days: 15 }),
    ];
    let cfg = BurstConfig::default();
    const TRIALS: u64 = 8;
    for (name, style) in styles {
        let mut flagged = 0;
        let mut share_sum = 0.0;
        for seed in 0..TRIALS {
            let mut spec = FarmSpec::authenticlikes();
            spec.style = style;
            let (mut world, page, d) = fulfill_order(spec, seed);
            for l in d.likes {
                world.record_like(l.user, l.page, l.at);
            }
            let v = judge_page(&world, page, Some(SimTime::at_day(99)), &cfg);
            share_sum += v.peak_share;
            if v.flagged {
                flagged += 1;
            }
        }
        let _ = writeln!(
            body,
            "{:24} {:>9.0}% {:>9.0}%",
            name,
            share_sum / TRIALS as f64 * 100.0,
            flagged as f64 / TRIALS as f64 * 100.0,
        );
    }
    let _ = writeln!(
        body,
        "takeaway: the detector holds until deliveries smear past ~12h windows —\n\
         the bot farms' 2h bursts are trivially detectable; BoostLikes' trickle is invisible"
    );
    print_block("Ablation A1: burst width vs. burst-detector recall", &body);
}

fn ablation_stealth_connectivity() {
    let mut body = String::new();
    let _ = writeln!(
        body,
        "{:20} {:>12} {:>10} {:>8}",
        "within-pool degree", "giant frac", "edges", "pairs"
    );
    for within in [0usize, 2, 6, 12, 30] {
        let mut spec = FarmSpec::boostlikes();
        spec.topology = PoolTopology::DenseNetwork {
            within_degree: within,
        };
        let (world, _, d) = fulfill_order(spec, 7);
        let census = ComponentCensus::compute(world.friends(), &d.accounts);
        let edges = direct_edges_within(world.friends(), &d.accounts);
        let _ = writeln!(
            body,
            "{:20} {:>11.0}% {:>10} {:>8}",
            within,
            census.giant_fraction() * 100.0,
            edges,
            census.pairs,
        );
    }
    let _ = writeln!(
        body,
        "takeaway: a handful of in-pool edges per account already produces the\n\
         connected blob of Figure 3(a); with none, even the stealth farm's likers\n\
         fragment like a bot farm's"
    );
    print_block(
        "Ablation A2: stealth connectivity vs. Figure 3 structure",
        &body,
    );
}

fn ablation_privacy_rate() {
    let mut body = String::new();
    let _ = writeln!(
        body,
        "{:>12} {:>14} {:>16} {:>12}",
        "public rate", "true edges", "observed edges", "seen frac"
    );
    for public in [0.1, 0.26, 0.5, 0.8, 1.0] {
        let mut spec = FarmSpec::boostlikes();
        spec.friend_list_public = public;
        let (world, _, d) = fulfill_order(spec, 9);
        let truth = direct_edges_within(world.friends(), &d.accounts);
        // What the crawler sees: an edge is observed when either endpoint's
        // list is public.
        let likers: HashSet<UserId> = d.accounts.iter().copied().collect();
        let mut observed = HashSet::new();
        for &u in &d.accounts {
            if !world.account(u).privacy.friend_list_public {
                continue;
            }
            for v in world.friends().neighbors(u) {
                if likers.contains(&v) {
                    observed.insert((u.min(v), u.max(v)));
                }
            }
        }
        let _ = writeln!(
            body,
            "{:>11.0}% {:>14} {:>16} {:>11.0}%",
            public * 100.0,
            truth,
            observed.len(),
            observed.len() as f64 / truth.max(1) as f64 * 100.0,
        );
    }
    let _ = writeln!(
        body,
        "takeaway: at the paper's 26% public rate roughly half the liker-liker\n\
         edges are visible — its Table 3 'lower bound' caveat, quantified"
    );
    print_block(
        "Ablation A3: friend-list privacy vs. observed structure",
        &body,
    );
}

fn ablation_allocation_sharpness() {
    let mut body = String::new();
    let _ = writeln!(body, "{:>10} {:>14}", "sharpness", "India share");
    // Reach-estimate pools shaped like the study world's click-prone
    // audiences at scale 1.
    let markets = vec![
        (Country::India, 1_536),
        (Country::Egypt, 720),
        (Country::Usa, 78),
        (Country::France, 60),
        (Country::Turkey, 147),
        (Country::Brazil, 144),
        (Country::Indonesia, 198),
        (Country::Philippines, 144),
        (Country::Uk, 29),
        (Country::Mexico, 126),
    ];
    for sharpness in [1.0, 2.0, 4.0, 8.0, 16.0] {
        let market = AdMarket {
            allocation_sharpness: sharpness,
            ..AdMarket::default()
        };
        // Budget share ÷ price = like share.
        let likes: Vec<(Country, f64)> = market
            .allocate(600.0, &markets)
            .into_iter()
            .map(|(c, budget)| (c, budget / market.base_cost(c)))
            .collect();
        let india: f64 = likes
            .iter()
            .find(|(c, _)| *c == Country::India)
            .map_or(0.0, |(_, l)| *l);
        let all_likes: f64 = likes.iter().map(|(_, l)| l).sum();
        let _ = writeln!(
            body,
            "{:>10} {:>13.0}%",
            sharpness,
            india / all_likes.max(1e-9) * 100.0
        );
    }
    let _ = writeln!(
        body,
        "takeaway: a mildly price-sensitive auction already concentrates
         worldwide budgets; sharpness 8 reproduces the paper's 96% India"
    );
    print_block(
        "Ablation A4: allocation sharpness vs. FB-ALL India share",
        &body,
    );
}

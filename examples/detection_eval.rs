//! Detection evaluation: run the honeypot study, then act as the platform
//! operator — score every account with the combined detector (hand-set and
//! trained weights), run the lockstep detector and SybilRank, and measure
//! each against ground truth.
//!
//! Reproduces the paper's closing argument quantitatively: bot-burst farm
//! accounts are easy to catch; BoostLikes-style stealth accounts score
//! near-organic and survive; only the graph defense (low SybilRank trust
//! from organic seeds) touches them.
//!
//! ```text
//! cargo run --release --example detection_eval [scale] [seed]
//! ```

use likelab::detect::{
    confusion_at, detect, extract, fit, roc, score, sybil_rank, BurstConfig, LockstepConfig,
    PositiveClass, ScorerWeights, SybilRankConfig, TrainConfig,
};
use likelab::graph::UserId;
use likelab::osn::ActorClass;
use likelab::sim::SimDuration;
use likelab::{run_study, StudyConfig};

fn main() {
    let mut args = std::env::args().skip(1);
    let scale: f64 = args.next().map(|s| s.parse().unwrap()).unwrap_or(0.15);
    let seed: u64 = args.next().map(|s| s.parse().unwrap()).unwrap_or(42);

    eprintln!("running study (seed={seed}, scale={scale})...");
    let outcome = run_study(&StudyConfig::paper(seed, scale));
    let world = &outcome.world;
    let now = outcome.launch + SimDuration::days(45);

    // --- combined per-account scorer ---------------------------------------
    eprintln!("scoring {} accounts...", world.account_count());
    let burst_cfg = BurstConfig::default();
    let weights = ScorerWeights::default();
    let scored: Vec<(UserId, f64)> = world
        .user_ids()
        .map(|u| (u, score(&extract(world, u, now, &burst_cfg), &weights)))
        .collect();

    let r = roc(world, &scored, PositiveClass::FarmOnly);
    println!("combined scorer vs farm accounts: AUC = {:.3}", r.auc);

    // Trained weights: fit on every third account, score them all.
    let train: Vec<_> = world
        .user_ids()
        .step_by(3)
        .map(|u| {
            (
                extract(world, u, now, &burst_cfg),
                world.account(u).class.is_farm(),
            )
        })
        .collect();
    let trained = fit(&train, &TrainConfig::default());
    let scored_trained: Vec<(UserId, f64)> = world
        .user_ids()
        .map(|u| (u, score(&extract(world, u, now, &burst_cfg), &trained)))
        .collect();
    let auc_trained = roc(world, &scored_trained, PositiveClass::FarmOnly).auc;
    println!("combined scorer (trained):      AUC {auc_trained:.3}");
    let c = confusion_at(world, &scored, 0.5, PositiveClass::FarmOnly);
    println!(
        "at threshold 0.5: precision {:.2}, recall {:.2}, F1 {:.2}, FPR {:.4}",
        c.precision(),
        c.recall(),
        c.f1(),
        c.fpr()
    );

    // --- the stealth gap ----------------------------------------------------
    let mean_score = |pred: &dyn Fn(ActorClass) -> bool| -> f64 {
        let xs: Vec<f64> = scored
            .iter()
            .filter(|(u, _)| pred(world.account(*u).class))
            .map(|(_, s)| *s)
            .collect();
        xs.iter().sum::<f64>() / xs.len().max(1) as f64
    };
    let bot = mean_score(&|c| matches!(c, ActorClass::Bot(_)));
    let stealth = mean_score(&|c| matches!(c, ActorClass::StealthSybil(_)));
    let organic = mean_score(&|c| c == ActorClass::Organic);
    let clickprone = mean_score(&|c| c == ActorClass::ClickProne);
    println!("\nmean detector score by ground-truth class:");
    println!("  bot farm accounts:     {bot:.3}");
    println!("  click-prone accounts:  {clickprone:.3}");
    println!("  stealth sybils:        {stealth:.3}   <- the paper's hard case");
    println!("  organic users:         {organic:.3}");
    if stealth > organic {
        println!(
            "stealth gap: stealth sybils score {:.1}x closer to organic than bots do",
            ((bot - organic) / (stealth - organic)).max(1.0)
        );
    } else {
        println!(
            "stealth gap: stealth sybils score at or below organic users \
             ({stealth:.3} vs {organic:.3}); the scorer cannot tell them apart"
        );
    }

    // --- recall per farm class ------------------------------------------------
    let recall_of = |pred: &dyn Fn(ActorClass) -> bool| -> f64 {
        let (mut tp, mut total) = (0usize, 0usize);
        for (u, s) in &scored {
            if pred(world.account(*u).class) {
                total += 1;
                if *s >= 0.5 {
                    tp += 1;
                }
            }
        }
        tp as f64 / total.max(1) as f64
    };
    println!(
        "\nrecall at 0.5: bots {:.2}, stealth sybils {:.2}",
        recall_of(&|c| matches!(c, ActorClass::Bot(_))),
        recall_of(&|c| matches!(c, ActorClass::StealthSybil(_)))
    );

    // --- lockstep detector ------------------------------------------------------
    eprintln!(
        "\nrunning lockstep detection over {} likes...",
        world.likes().len()
    );
    let report = detect(world, &LockstepConfig::default());
    let flagged = report.flagged();
    let farm_flagged = flagged
        .iter()
        .filter(|u| world.account(**u).class.is_farm())
        .count();
    println!(
        "lockstep: {} clusters, {} accounts flagged, {} of them farm accounts ({:.0}% precision)",
        report.clusters.len(),
        flagged.len(),
        farm_flagged,
        farm_flagged as f64 / flagged.len().max(1) as f64 * 100.0
    );
    if let Some(biggest) = report.clusters.first() {
        let farms_in = biggest
            .iter()
            .filter(|u| world.account(**u).class.is_farm())
            .count();
        println!(
            "largest cluster: {} accounts, {farms_in} of them farm-operated",
            biggest.len()
        );
    }

    // --- SybilRank from organic seeds ----------------------------------------
    let seeds: Vec<UserId> = outcome
        .population
        .organic
        .iter()
        .step_by(500)
        .copied()
        .collect();
    let trust = sybil_rank(world.friends(), &seeds, &SybilRankConfig::default());
    let mean_trust = |pred: &dyn Fn(ActorClass) -> bool| -> f64 {
        let xs: Vec<f64> = world
            .user_ids()
            .filter(|u| pred(world.account(*u).class))
            .map(|u| trust.trust(u))
            .collect();
        xs.iter().sum::<f64>() / xs.len().max(1) as f64
    };
    println!(
        "sybilrank mean trust: organic {:.2e}, bots {:.2e}, stealth {:.2e}",
        mean_trust(&|c| c == ActorClass::Organic),
        mean_trust(&|c| matches!(c, ActorClass::Bot(_))),
        mean_trust(&|c| matches!(c, ActorClass::StealthSybil(_))),
    );
}

//! Scale-invariance tests: the claim that `scale` shrinks counts linearly
//! while percentages, distributions, and per-account observables survive.
//! This is what licenses running tests and CI at small scales while quoting
//! full-scale results in EXPERIMENTS.md.

use likelab::osn::{DetectorUpdate, EventFanout, GeoBucket, OsnWorld, WorldEvent};
use likelab::sim::Exec;
use likelab::{
    run_study, run_study_opts, run_study_with, RunOptions, StudyConfig, StudyOutcome, StudyRecord,
};
use std::sync::OnceLock;

const SMALL: f64 = 0.06;
const LARGE: f64 = 0.18;

fn runs() -> &'static (StudyOutcome, StudyOutcome) {
    static SHARED: OnceLock<(StudyOutcome, StudyOutcome)> = OnceLock::new();
    SHARED.get_or_init(|| {
        (
            run_study(&StudyConfig::paper(5, SMALL)),
            run_study(&StudyConfig::paper(5, LARGE)),
        )
    })
}

#[test]
fn like_counts_scale_linearly() {
    let (small, large) = runs();
    let ratio = LARGE / SMALL;
    for label in ["FB-IND", "FB-EGY", "SF-ALL", "AL-USA", "BL-USA"] {
        let s = small.dataset.campaign(label).unwrap().like_count() as f64;
        let l = large.dataset.campaign(label).unwrap().like_count() as f64;
        let measured_ratio = l / s.max(1.0);
        assert!(
            (measured_ratio / ratio - 1.0).abs() < 0.45,
            "{label}: {s} -> {l} (ratio {measured_ratio:.2}, expected ~{ratio})"
        );
    }
}

#[test]
fn geo_shares_are_scale_invariant() {
    let (small, large) = runs();
    for label in ["FB-IND", "FB-ALL", "SF-USA"] {
        let share = |o: &StudyOutcome, bucket: GeoBucket| {
            o.report
                .figure1
                .iter()
                .find(|r| r.label == label)
                .map(|r| r.share(bucket))
                .unwrap_or(0.0)
        };
        for bucket in [GeoBucket::India, GeoBucket::Turkey, GeoBucket::Usa] {
            let (a, b) = (share(small, bucket), share(large, bucket));
            assert!(
                (a - b).abs() < 0.15,
                "{label}/{bucket}: {a:.2} vs {b:.2} across scales"
            );
        }
    }
}

#[test]
fn per_account_observables_are_scale_invariant() {
    let (small, large) = runs();
    // Figure 4 medians: page-like counts per liker don't shrink with the
    // world.
    for label in ["SF-ALL", "FB-IND", "Facebook"] {
        let median = |o: &StudyOutcome| {
            o.report
                .figure4
                .iter()
                .find(|c| c.label == label)
                .map(|c| c.median())
                .unwrap_or(f64::NAN)
        };
        let (a, b) = (median(small), median(large));
        assert!(
            (a / b - 1.0).abs() < 0.5,
            "{label} median: {a:.0} vs {b:.0} across scales"
        );
    }
    // Table 3 friend-count medians likewise (off-network top-up at work).
    use likelab::analysis::Provider;
    for p in [Provider::BoostLikes, Provider::SocialFormula] {
        let med = |o: &StudyOutcome| {
            o.report
                .table3
                .iter()
                .find(|r| r.provider == p)
                .map(|r| r.friends.median)
                .unwrap()
        };
        let (a, b) = (med(small), med(large));
        assert!(
            (a / b - 1.0).abs() < 0.6,
            "{p} friend median: {a:.0} vs {b:.0} across scales"
        );
    }
}

#[test]
fn kl_divergences_are_scale_invariant() {
    let (small, large) = runs();
    let kl = |o: &StudyOutcome, label: &str| {
        o.report
            .table2
            .iter()
            .find(|r| r.label == label)
            .and_then(|r| r.kl)
            .unwrap()
    };
    // SF stays near zero at both scales; FB-IND stays large at both.
    assert!(kl(small, "SF-ALL") < 0.2 && kl(large, "SF-ALL") < 0.2);
    assert!(kl(small, "FB-IND") > 0.4 && kl(large, "FB-IND") > 0.4);
}

/// The million-account `scale` preset (trimmed so the test stays bounded)
/// produces a byte-identical `StudyReport` JSON document for every worker
/// count — the determinism contract survives the sharded ledger, the
/// chunked report aggregation, and the CSR graph.
#[test]
fn scale_preset_report_is_worker_invariant() {
    let config = StudyConfig::scale_world(11, 0.01);
    let json_for = |exec: Exec| {
        run_study_with(&config, exec)
            .report
            .to_json()
            .expect("report serializes")
    };
    let sequential = json_for(Exec::Sequential);
    assert!(!sequential.is_empty());
    for workers in [1usize, 2, 8] {
        let parallel = json_for(Exec::workers(workers));
        assert!(
            sequential == parallel,
            "scale-preset report differs between sequential and {workers} workers"
        );
    }
}

/// The one like-ingest fold against a per-like reference. A captured log is
/// folded (a) through `apply_event`, which takes every `LikeBatch` through
/// the ledger's batch kernel, and (b) through a reference that expands each
/// `LikeBatch` into per-item `record_like` calls. Both must build the same
/// ledger, and the fanout's `LikeAccepted` stream must be exactly the likes
/// the reference accepted, in order.
#[test]
fn batch_like_fold_matches_per_like_reference() {
    let config = StudyConfig::scale_world(7, 0.01);
    let log = run_study_opts(
        &config,
        &RunOptions {
            capture_log: true,
            ..RunOptions::default()
        },
    )
    .expect("study runs")
    .log
    .expect("log captured");

    let mut folded = OsnWorld::new();
    let mut reference = OsnWorld::new();
    let mut reference_accepted = Vec::new();
    let mut fanout = EventFanout::new();
    let mut streamed = Vec::new();
    let mut batches = 0usize;
    for (_, record) in log.records() {
        let StudyRecord::World(ev) = record else {
            continue;
        };
        folded.apply_event(ev);
        match ev {
            WorldEvent::Like { user, page, at } => {
                if reference.record_like(*user, *page, *at) {
                    reference_accepted.push((*user, *page, *at));
                }
            }
            WorldEvent::LikeBatch { likes } => {
                batches += 1;
                for &(user, page, at) in likes {
                    if reference.record_like(user, page, at) {
                        reference_accepted.push((user, page, at));
                    }
                }
            }
            other => reference.apply_event(other),
        }
        fanout.apply(ev, |update| {
            if let DetectorUpdate::LikeAccepted { user, page, at } = update {
                streamed.push((user, page, at));
            }
        });
    }
    assert!(batches > 0, "the log must carry like batches");

    let (a, b) = (folded.likes(), reference.likes());
    assert_eq!(
        a.records().collect::<Vec<_>>(),
        b.records().collect::<Vec<_>>()
    );
    for user in reference.user_ids() {
        assert_eq!(
            a.of_user(user).collect::<Vec<_>>(),
            b.of_user(user).collect::<Vec<_>>()
        );
        assert_eq!(
            a.user_pages(user).collect::<Vec<_>>(),
            b.user_pages(user).collect::<Vec<_>>()
        );
    }
    for page in reference.page_ids() {
        assert_eq!(
            a.of_page(page).collect::<Vec<_>>(),
            b.of_page(page).collect::<Vec<_>>()
        );
    }
    assert_eq!(
        streamed, reference_accepted,
        "fanout LikeAccepted stream must equal the per-like reference's accepted likes"
    );
}

#[test]
fn temporal_shapes_are_scale_invariant() {
    let (small, large) = runs();
    for label in ["AL-USA", "BL-USA"] {
        let series = |o: &StudyOutcome| {
            o.report
                .figure2
                .iter()
                .find(|s| s.label == label)
                .unwrap()
                .clone()
        };
        let (a, b) = (series(small), series(large));
        // Burst/trickle classification is identical across scales.
        assert_eq!(
            a.peak_2h_share > 0.25,
            b.peak_2h_share > 0.25,
            "{label}: burstiness classification must not depend on scale"
        );
    }
}

//! Crawl coverage and robustness accounting.
//!
//! The paper's dataset exists only because a Selenium crawler kept running
//! through throttling and outages; this module reports how much of the
//! intended measurement actually landed (per-campaign coverage) and how the
//! study's headline results shift when the crawl surface degrades (the
//! clean-vs-faulted comparison behind the `--fault-profile` CLI surface).

use crate::report::StudyReport;
use likelab_honeypot::{CrawlCoverage, Dataset};
use serde::{Deserialize, Serialize};

/// One campaign's crawl coverage, with the derived rates precomputed so
/// the JSON export is directly plottable.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct CrawlCoverageRow {
    /// Campaign label.
    pub label: String,
    /// Raw coverage counters.
    pub coverage: CrawlCoverage,
    /// Fraction of polls that succeeded.
    pub poll_success_rate: f64,
    /// Fraction of liker profiles resolved (complete or gone) at
    /// collection time.
    pub profile_coverage: f64,
}

/// The report's crawl-coverage section: per-campaign rows plus the
/// dataset-wide aggregate.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct CrawlSection {
    /// Per-campaign coverage, in Table 1 order.
    pub per_campaign: Vec<CrawlCoverageRow>,
    /// Counters summed across all campaigns.
    pub total: CrawlCoverage,
    /// Dataset-wide poll success rate.
    pub poll_success_rate: f64,
    /// Dataset-wide profile coverage.
    pub profile_coverage: f64,
}

/// Build the crawl-coverage section from the dataset.
pub fn crawl_section(dataset: &Dataset) -> CrawlSection {
    let per_campaign = dataset
        .campaigns
        .iter()
        .map(|c| CrawlCoverageRow {
            label: c.spec.label.clone(),
            coverage: c.coverage,
            poll_success_rate: c.coverage.poll_success_rate(),
            profile_coverage: c.coverage.profile_coverage(),
        })
        .collect();
    let total = dataset.total_coverage();
    CrawlSection {
        per_campaign,
        total,
        poll_success_rate: total.poll_success_rate(),
        profile_coverage: total.profile_coverage(),
    }
}

/// How one campaign's temporal shape and termination count moved between a
/// clean run and a faulted run of the same study.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct RobustnessRow {
    /// Campaign label.
    pub label: String,
    /// Final like count, clean vs faulted.
    pub likes: (usize, usize),
    /// Figure 2's peak-2h share, clean vs faulted.
    pub peak_2h_share: (f64, f64),
    /// Figure 2's days-to-90%, clean vs faulted.
    pub days_to_90pct: (f64, f64),
    /// §5 terminated count, clean vs faulted.
    pub terminated: (usize, usize),
    /// §5 unanswered termination probes, clean vs faulted.
    pub termination_unknown: (usize, usize),
}

/// The clean-vs-faulted robustness comparison: how far the faulted run's
/// Figure 2 temporal shape and §5 termination counts drifted from the
/// clean twin's.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct RobustnessComparison {
    /// Per-campaign drift, for campaigns present in both reports.
    pub rows: Vec<RobustnessRow>,
    /// Total likes, clean vs faulted.
    pub total_likes: (usize, usize),
    /// Total terminated, clean vs faulted.
    pub total_terminated: (usize, usize),
    /// Total unanswered termination probes, clean vs faulted.
    pub total_unknown: (usize, usize),
    /// The faulted run's dataset-wide poll success rate.
    pub faulted_poll_success_rate: f64,
    /// The faulted run's dataset-wide profile coverage.
    pub faulted_profile_coverage: f64,
}

/// Compare a clean and a faulted run of the same study configuration.
pub fn compare_reports(clean: &StudyReport, faulted: &StudyReport) -> RobustnessComparison {
    let rows = clean
        .figure2
        .iter()
        .filter_map(|cs| {
            let fs = faulted.figure2.iter().find(|s| s.label == cs.label)?;
            let term = |r: &StudyReport| {
                r.termination
                    .by_campaign
                    .get(&cs.label)
                    .copied()
                    .unwrap_or(0)
            };
            let unknown = |r: &StudyReport| {
                r.termination
                    .unknown_by_campaign
                    .get(&cs.label)
                    .copied()
                    .unwrap_or(0)
            };
            Some(RobustnessRow {
                label: cs.label.clone(),
                likes: (cs.total(), fs.total()),
                peak_2h_share: (cs.peak_2h_share, fs.peak_2h_share),
                days_to_90pct: (cs.days_to_90pct, fs.days_to_90pct),
                terminated: (term(clean), term(faulted)),
                termination_unknown: (unknown(clean), unknown(faulted)),
            })
        })
        .collect();
    RobustnessComparison {
        rows,
        total_likes: (clean.totals.campaign_likes, faulted.totals.campaign_likes),
        total_terminated: (clean.termination.total, faulted.termination.total),
        total_unknown: (
            clean.termination.unknown_total,
            faulted.termination.unknown_total,
        ),
        faulted_poll_success_rate: faulted.crawl.poll_success_rate,
        faulted_profile_coverage: faulted.crawl.profile_coverage,
    }
}

impl RobustnessComparison {
    /// Render as plain text (the `== Crawl robustness ==` block the CLI
    /// prints after a faulted run).
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str("== Crawl robustness: clean vs faulted ==\n");
        let mut rows = vec![vec![
            "Campaign".to_string(),
            "Likes".to_string(),
            "Peak2h%".to_string(),
            "t90 (d)".to_string(),
            "Term.".to_string(),
            "Unk.".to_string(),
        ]];
        for r in &self.rows {
            rows.push(vec![
                r.label.clone(),
                format!("{} -> {}", r.likes.0, r.likes.1),
                format!(
                    "{:.0} -> {:.0}",
                    r.peak_2h_share.0 * 100.0,
                    r.peak_2h_share.1 * 100.0
                ),
                format!("{:.1} -> {:.1}", r.days_to_90pct.0, r.days_to_90pct.1),
                format!("{} -> {}", r.terminated.0, r.terminated.1),
                format!("{} -> {}", r.termination_unknown.0, r.termination_unknown.1),
            ]);
        }
        out.push_str(&crate::render::table(&rows));
        out.push_str(&format!(
            "\nTotals: likes {} -> {}; terminated {} -> {} (+{} unknown); \
             faulted run kept {:.1}% of polls and resolved {:.1}% of profiles\n",
            self.total_likes.0,
            self.total_likes.1,
            self.total_terminated.0,
            self.total_terminated.1,
            self.total_unknown.1,
            self.faulted_poll_success_rate * 100.0,
            self.faulted_profile_coverage * 100.0,
        ));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use likelab_farms::Region;
    use likelab_honeypot::{CampaignData, CampaignSpec, Promotion};
    use likelab_osn::AudienceReport;
    use likelab_sim::SimTime;

    fn campaign(label: &str, coverage: CrawlCoverage) -> CampaignData {
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
            likers: vec![],
            report: AudienceReport::default(),
            monitoring_days: None,
            terminated_after_month: 0,
            termination_unknown: 0,
            inactive: false,
            coverage,
        }
    }

    #[test]
    fn section_aggregates_and_rates() {
        let a = CrawlCoverage {
            polls: 10,
            failed_polls: 2,
            rate_limited_polls: 1,
            outage_polls: 1,
            circuit_trips: 1,
            profiles_complete: 8,
            profiles_gone: 1,
            profiles_gave_up: 1,
        };
        let b = CrawlCoverage {
            polls: 10,
            failed_polls: 0,
            profiles_complete: 5,
            ..Default::default()
        };
        let d = Dataset {
            campaigns: vec![campaign("AL-USA", a), campaign("BL-USA", b)],
            baseline: vec![],
            launch: SimTime::EPOCH,
            global_report: AudienceReport::default(),
        };
        let s = crawl_section(&d);
        assert_eq!(s.per_campaign.len(), 2);
        assert!((s.per_campaign[0].poll_success_rate - 0.8).abs() < 1e-12);
        assert!((s.per_campaign[0].profile_coverage - 0.9).abs() < 1e-12);
        assert_eq!(s.total.polls, 20);
        assert_eq!(s.total.failed_polls, 2);
        assert!((s.poll_success_rate - 0.9).abs() < 1e-12);
        assert_eq!(s.total.profiles_complete, 13);
    }

    #[test]
    fn empty_dataset_has_full_coverage() {
        let d = Dataset {
            campaigns: vec![],
            baseline: vec![],
            launch: SimTime::EPOCH,
            global_report: AudienceReport::default(),
        };
        let s = crawl_section(&d);
        assert_eq!(s.poll_success_rate, 1.0);
        assert_eq!(s.profile_coverage, 1.0);
    }

    #[test]
    fn comparison_measures_drift() {
        let d = Dataset {
            campaigns: vec![campaign("AL-USA", CrawlCoverage::default())],
            baseline: vec![],
            launch: SimTime::EPOCH,
            global_report: AudienceReport::default(),
        };
        let clean = StudyReport::compute_sequential(&d);
        let faulted = clean.clone();
        let cmp = compare_reports(&clean, &faulted);
        assert_eq!(cmp.total_likes.0, cmp.total_likes.1);
        let text = cmp.render();
        assert!(text.contains("Crawl robustness"));
        assert!(text.contains("Totals:"));
    }
}

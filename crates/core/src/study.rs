//! The study runner: the full IMC 2014 protocol, end to end.
//!
//! One call to [`run_study`] executes everything the paper did:
//!
//! 1. synthesize the platform population (with a pre-launch history window);
//! 2. deploy 13 empty "Virtual Electricity" honeypot pages;
//! 3. launch all campaigns on the same day — 5 legitimate ad buys, 8 farm
//!    orders (two of which turn out to be scams);
//! 4. drive the event loop: timed likes land, the crawler polls every page
//!    every 2 hours (daily after campaigns, stopping after a quiet week),
//!    farm accounts keep doing camouflage jobs, organic users keep liking,
//!    and the platform's anti-fraud sweep runs weekly;
//! 5. collect liker profiles through the privacy-enforcing crawl API, pull
//!    admin reports, sample the 2000-user directory baseline;
//! 6. a month after the campaigns, recheck which likers were terminated;
//! 7. compute every table and figure.
//!
//! Deterministic: a `(seed, scale)` pair reproduces the identical study.
//!
//! The run is event-sourced: with logging enabled (see [`RunOptions`]),
//! every world mutation and measurement artifact is appended to a
//! [`StudyLog`], and [`replay`](crate::replay) rebuilds the identical
//! outcome from the log alone. Checkpointing freezes the run mid-loop and
//! [resumes](crate::checkpoint) byte-identically.

use crate::presets::{paper_campaigns, paper_farms};
use crate::record::{io_err, StudyError, StudyLog, StudyRecord};
use likelab_analysis::StudyReport;
use likelab_farms::{DeliveryStyle, FarmOrder, FarmRoster, FarmSpec, TimedLike};
use likelab_graph::PageId;
use likelab_honeypot::{
    check_terminations, collect_profiles, deploy_honeypot, BaselineRecord, CampaignData,
    CampaignSpec, CollectionConfig, CrawlOutcome, CrawlerConfig, Dataset, PageMonitor, Promotion,
};
use likelab_osn::ads::{plan_campaign, AdCampaignSpec};
use likelab_osn::organic::plan_background_activity;
use likelab_osn::population::{synthesize_with, Population, PopulationConfig};
use likelab_osn::{
    AdMarket, AudienceReport, CrawlApi, CrawlConfig, FraudOps, FraudOpsConfig, LikeColumns,
    OsnWorld,
};
use likelab_sim::{Engine, Exec, Rng, SimDuration, SimTime, Trace};
use serde::{Deserialize, Serialize};
use std::path::PathBuf;

/// Everything a study run is parameterized by.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct StudyConfig {
    /// Master seed; the whole run is a pure function of it (plus the rest
    /// of this config).
    pub seed: u64,
    /// World scale: 1.0 reproduces paper-sized campaigns; smaller values
    /// shrink the world and all campaign volumes together so percentages
    /// and distributions survive.
    pub scale: f64,
    /// Population model (scaled internally by `scale`).
    pub population: PopulationConfig,
    /// Ad-market pricing.
    pub market: AdMarket,
    /// Anti-fraud sweep parameters.
    pub fraud: FraudOpsConfig,
    /// Crawler cadence.
    pub crawler: CrawlerConfig,
    /// Crawl-surface fault injection.
    pub crawl: CrawlConfig,
    /// Profile-collection retry/backoff policy and request budget.
    pub collection: CollectionConfig,
    /// Ad-campaign geo leakage.
    pub ad_leakage: f64,
    /// Baseline directory sample size (scaled; the paper used 2000).
    pub baseline_sample: usize,
    /// How long after the campaigns the termination recheck happens.
    pub termination_check_after: SimDuration,
    /// Interval between anti-fraud sweeps.
    pub sweep_interval: SimDuration,
    /// Whether organic background activity runs during the study.
    pub organic_activity: bool,
    /// The campaigns to run.
    pub campaigns: Vec<CampaignSpec>,
    /// The farm roster (indexed by `Promotion::FarmOrder::farm`).
    pub farms: Vec<FarmSpec>,
}

impl StudyConfig {
    /// The paper's setup at the given scale.
    pub fn paper(seed: u64, scale: f64) -> Self {
        StudyConfig {
            seed,
            scale,
            population: PopulationConfig::default(),
            market: AdMarket::default(),
            fraud: FraudOpsConfig::default(),
            crawler: CrawlerConfig::default(),
            crawl: CrawlConfig::default(),
            collection: CollectionConfig::default(),
            ad_leakage: 0.02,
            baseline_sample: 2_000,
            termination_check_after: SimDuration::days(30),
            sweep_interval: SimDuration::days(7),
            organic_activity: true,
            campaigns: paper_campaigns(),
            farms: paper_farms(),
        }
    }

    /// The million-account `scale` preset: the paper's protocol over the
    /// [`scale_population`][crate::presets::scale_population] world
    /// (~1M accounts / 50k pages at `scale` 1.0). Same campaigns, farms,
    /// and measurement pipeline — only the world is bigger.
    pub fn scale_world(seed: u64, scale: f64) -> Self {
        StudyConfig {
            population: crate::presets::scale_population(),
            ..StudyConfig::paper(seed, scale)
        }
    }

    /// The `chaos` preset: the paper's world run against a heavily faulted
    /// crawl surface — elevated transient noise, tight rate-limit windows,
    /// multi-hour outages (see `CrawlConfig::chaos`). The study must still
    /// complete end to end; the robustness comparison quantifies the drift.
    pub fn chaos(seed: u64, scale: f64) -> Self {
        StudyConfig {
            crawl: CrawlConfig::chaos(0.75),
            ..StudyConfig::paper(seed, scale)
        }
    }

    /// Replace the crawl fault profile with a named one
    /// (`CrawlConfig::named` vocabulary: `none`, `default`, `throttled`,
    /// `flaky`, `chaos`). Returns None for an unknown name.
    pub fn with_fault_profile(mut self, name: &str) -> Option<Self> {
        self.crawl = CrawlConfig::named(name)?;
        Some(self)
    }

    /// The same configuration with a perfectly clean crawl surface — the
    /// twin run the robustness comparison measures against.
    pub fn clean_twin(&self) -> Self {
        StudyConfig {
            crawl: CrawlConfig::clean(),
            ..self.clone()
        }
    }
}

/// The outcome of a study run.
pub struct StudyOutcome {
    /// The crawled dataset (what the authors' disk held).
    pub dataset: Dataset,
    /// Every table and figure, computed.
    pub report: StudyReport,
    /// The final platform state (ground truth — for detection work).
    pub world: OsnWorld,
    /// Population handles (audiences, background catalogue).
    pub population: Population,
    /// Campaign launch time.
    pub launch: SimTime,
    /// Honeypot pages, one per campaign in campaign order.
    pub honeypots: Vec<PageId>,
    /// Run journal (scam notes, sweep counts, crawl stats).
    pub trace: Trace,
    /// The captured study log, when the run was logging (see
    /// [`RunOptions::capture_log`]). For a resumed run this holds only the
    /// records appended after the resume point; the full stream lives in
    /// the checkpoint directory's `world.log`.
    pub log: Option<StudyLog>,
}

/// An event-loop entry. Serializable so checkpointing can freeze the
/// pending queue mid-run.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub(crate) enum Ev {
    /// A scheduled like lands.
    Like(TimedLike),
    /// The crawler polls campaign `i`'s page.
    Poll(usize),
    /// A platform anti-fraud sweep.
    Sweep,
}

/// On-disk framing for `--log-out` (see [`RunOptions::log_format`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum LogFormat {
    /// Checksummed binary frames (`LLOG` magic) — streamed to disk as the
    /// run progresses, resumable, the format checkpoints and `serve` tail.
    #[default]
    Binary,
    /// Line-delimited JSON — human-greppable. Buffered in memory and
    /// written atomically at the end of the run, so a crash mid-run leaves
    /// no partial file. [`read_study_log`](crate::read_study_log) sniffs
    /// and accepts both formats.
    Jsonl,
}

impl LogFormat {
    /// Parse a CLI argument (`binary` | `jsonl`).
    pub fn parse(s: &str) -> Result<Self, String> {
        match s {
            "binary" => Ok(LogFormat::Binary),
            "jsonl" => Ok(LogFormat::Jsonl),
            other => Err(format!("unknown log format `{other}` (binary|jsonl)")),
        }
    }
}

/// Knobs for [`run_study_opts`]: execution policy, log capture, and
/// checkpoint/resume.
#[derive(Clone, Debug)]
pub struct RunOptions {
    /// Execution policy for the parallel stages (see [`run_study_with`]).
    pub exec: Exec,
    /// Capture a [`StudyLog`] in memory, returned on
    /// [`StudyOutcome::log`].
    pub capture_log: bool,
    /// Stream the log to this file (framing per `log_format`). Implies
    /// capture.
    pub log_out: Option<PathBuf>,
    /// On-disk framing for `log_out`. JSONL is buffered and written once
    /// at the end of the run; binary streams as it goes.
    pub log_format: LogFormat,
    /// Checkpoint directory. Enables checkpointing: the log streams to
    /// `<dir>/world.log` and consumer state snapshots to
    /// `<dir>/checkpoint.json`. Mutually exclusive with `log_out`.
    pub checkpoint_dir: Option<PathBuf>,
    /// Checkpoint cadence, in fired events (0 disables checkpoint writes).
    pub checkpoint_every: u64,
    /// Resume from `checkpoint_dir` instead of starting fresh. The
    /// checkpointed config wins; the config passed to
    /// [`run_study_opts`] is ignored.
    pub resume: bool,
    /// Test hook: abort with [`StudyError::SimulatedCrash`] after this
    /// many checkpoints have been written. Lets CI exercise the
    /// kill-and-resume path deterministically.
    pub crash_after_checkpoints: Option<u64>,
}

impl Default for RunOptions {
    fn default() -> Self {
        RunOptions {
            exec: Exec::auto(),
            capture_log: false,
            log_out: None,
            log_format: LogFormat::default(),
            checkpoint_dir: None,
            checkpoint_every: 5_000,
            resume: false,
            crash_after_checkpoints: None,
        }
    }
}

/// The optional log-capture side channel threaded through a run. All
/// methods are no-ops when the run is not logging.
pub(crate) struct Capture {
    pub(crate) log: Option<StudyLog>,
    /// Set when `log_out` asked for JSONL framing: the log is buffered in
    /// memory and rendered to this path atomically at the end of the run.
    pub(crate) jsonl_out: Option<PathBuf>,
}

impl Capture {
    fn open(config: &StudyConfig, opts: &RunOptions) -> Result<Self, StudyError> {
        let mut jsonl_out = None;
        let log = if let Some(dir) = &opts.checkpoint_dir {
            if opts.log_out.is_some() {
                return Err(StudyError::Mismatch(
                    "log-out and checkpoint-dir are mutually exclusive; \
                     the checkpoint dir already owns <dir>/world.log"
                        .into(),
                ));
            }
            if opts.log_format != LogFormat::Binary {
                return Err(StudyError::Mismatch(
                    "checkpointing requires the binary log format; \
                     <dir>/world.log must stay resumable and tailable"
                        .into(),
                ));
            }
            std::fs::create_dir_all(dir).map_err(|e| io_err(dir, e))?;
            Some(StudyLog::to_file(config, &dir.join("world.log"))?)
        } else if let Some(path) = &opts.log_out {
            match opts.log_format {
                LogFormat::Binary => Some(StudyLog::to_file(config, path)?),
                LogFormat::Jsonl => {
                    jsonl_out = Some(path.clone());
                    Some(StudyLog::in_memory(config))
                }
            }
        } else if opts.capture_log {
            Some(StudyLog::in_memory(config))
        } else {
            None
        };
        Ok(Capture { log, jsonl_out })
    }

    fn on(&self) -> bool {
        self.log.is_some()
    }

    fn rng_fork(&mut self, label: &str) -> Result<(), StudyError> {
        if let Some(log) = &mut self.log {
            log.append(StudyRecord::RngFork {
                label: label.into(),
            })?;
        }
        Ok(())
    }

    fn world(&mut self, world: &mut OsnWorld) -> Result<(), StudyError> {
        if let Some(log) = &mut self.log {
            log.drain_world(world)?;
        }
        Ok(())
    }

    fn record(&mut self, f: impl FnOnce() -> StudyRecord) -> Result<(), StudyError> {
        if let Some(log) = &mut self.log {
            log.append(f())?;
        }
        Ok(())
    }
}

/// Everything the event loop carries between steps. Checkpointing
/// serializes all of it except the world, which is rebuilt from the log.
pub(crate) struct LoopState {
    pub(crate) config: StudyConfig,
    pub(crate) world: OsnWorld,
    pub(crate) population: Population,
    pub(crate) engine: Engine<Ev>,
    pub(crate) monitors: Vec<Option<PageMonitor>>,
    pub(crate) inactive: Vec<bool>,
    pub(crate) honeypots: Vec<PageId>,
    pub(crate) launch: SimTime,
    pub(crate) end: SimTime,
    pub(crate) api: CrawlApi,
    pub(crate) fraud: FraudOps,
    pub(crate) rng: Rng,
    pub(crate) trace: Trace,
    pub(crate) sweep_terminations: usize,
}

/// How long a campaign's paid promotion runs (drives the crawler cadence
/// switch).
fn campaign_days(spec: &CampaignSpec, farms: &[FarmSpec]) -> u64 {
    match &spec.promotion {
        Promotion::PlatformAds { duration_days, .. } => *duration_days,
        Promotion::FarmOrder { farm, .. } => match farms[*farm].style {
            DeliveryStyle::Burst { days, .. } => days,
            DeliveryStyle::Trickle { days } => days,
        },
    }
}

/// Run the study. See the module docs for the protocol.
///
/// Parallelizable stages (population synthesis, report assembly) use
/// [`Exec::auto`]; the outcome is bit-identical for any worker count — see
/// [`run_study_with`].
///
/// ```
/// use likelab_core::{run_study, StudyConfig};
///
/// // Scale 0.01 keeps the doc test fast; 1.0 is paper-sized.
/// let outcome = run_study(&StudyConfig::paper(42, 0.01));
/// assert_eq!(outcome.dataset.campaigns.len(), 13);
/// let text = outcome.report.render();
/// assert!(text.contains("Table 1"));
/// ```
pub fn run_study(config: &StudyConfig) -> StudyOutcome {
    run_study_with(config, Exec::auto())
}

/// Run the study under an explicit execution policy.
///
/// `exec` governs the two embarrassingly parallel stages — per-user like
/// history synthesis and per-section report assembly. The event loop itself
/// is inherently serial and untouched. Every parallel stage derives its
/// randomness from index-split streams and reassembles results in index
/// order, so the returned outcome is bit-identical for every `exec`.
pub fn run_study_with(config: &StudyConfig, exec: Exec) -> StudyOutcome {
    run_study_opts(
        config,
        &RunOptions {
            exec,
            ..RunOptions::default()
        },
    )
    .expect("a study without logging or checkpointing cannot fail")
}

/// Run the study with full control over logging and checkpointing.
///
/// This is the event-sourced entry point: with [`RunOptions::capture_log`]
/// (or `log_out`/`checkpoint_dir`) set, every world mutation and
/// measurement artifact is appended to a [`StudyLog`] as the run executes,
/// and [`replay`](crate::replay::replay_study) reproduces the identical
/// dataset and report from the log alone. With `checkpoint_dir` set the
/// run can be killed and [resumed](RunOptions::resume) byte-identically.
pub fn run_study_opts(config: &StudyConfig, opts: &RunOptions) -> Result<StudyOutcome, StudyError> {
    likelab_obs::span!("study.run");
    if opts.resume {
        return crate::checkpoint::resume_study(opts);
    }
    let mut capture = Capture::open(config, opts)?;
    let mut state = setup(config, opts.exec, &mut capture)?;
    event_loop(&mut state, &mut capture, opts)?;
    collect(state, capture, opts.exec)
}

/// Phases 1–3: population, honeypots, promotions, organic plan, and the
/// initial event queue.
fn setup(config: &StudyConfig, exec: Exec, capture: &mut Capture) -> Result<LoopState, StudyError> {
    let mut rng = Rng::seed_from_u64(config.seed);
    let mut trace = Trace::with_capacity(10_000);
    let mut world = OsnWorld::new();
    world.set_recording(capture.on());

    // --- population -----------------------------------------------------
    let population_span = likelab_obs::span::enter("study.population");
    let pop_config = config.population.clone().scaled(config.scale);
    capture.rng_fork("population")?;
    let population = synthesize_with(&mut world, &pop_config, &mut rng.fork("population"), exec);
    let launch = population.launch;
    trace.note(
        launch,
        format!(
            "population ready: {} accounts, {} pages, {} likes",
            world.account_count(),
            world.page_count(),
            world.likes().len()
        ),
    );
    capture.world(&mut world)?;

    drop(population_span);

    // --- honeypots and promotions ----------------------------------------
    let promotions_span = likelab_obs::span::enter("study.promotions");
    // Farm camouflage draws from the globally popular head of the
    // catalogue: farm accounts mimic generic users, not locals.
    capture.rng_fork("farms")?;
    let mut roster = FarmRoster::new(
        config.farms.clone(),
        population.global_pages.clone(),
        config.scale,
        rng.fork("farms"),
    );
    let mut honeypots = Vec::with_capacity(config.campaigns.len());
    let mut monitors: Vec<Option<PageMonitor>> = Vec::with_capacity(config.campaigns.len());
    let mut inactive: Vec<bool> = Vec::with_capacity(config.campaigns.len());
    let mut engine: Engine<Ev> = Engine::new();
    let mut max_campaign_end = launch;

    // Each campaign plans its ads from `ads_rng.split(campaign_index)`: the
    // stream is a pure function of (seed, index), so adding draws to one
    // campaign — or planning campaigns out of order, or in parallel — never
    // perturbs another campaign's stream.
    capture.rng_fork("ads")?;
    let ads_rng = rng.fork("ads");
    for (campaign_index, spec) in config.campaigns.iter().enumerate() {
        let (page, _owner) = deploy_honeypot(&mut world, launch);
        honeypots.push(page);
        let days = campaign_days(spec, &config.farms);
        let campaign_end = launch + SimDuration::days(days);
        max_campaign_end = max_campaign_end.max(campaign_end);
        let mut is_scam = false;
        match &spec.promotion {
            Promotion::PlatformAds {
                targeting,
                daily_budget_cents,
                duration_days,
            } => {
                let _ads_span = likelab_obs::span::enter("promotions.ads");
                let plan = plan_campaign(
                    &world,
                    &population,
                    &config.market,
                    &AdCampaignSpec {
                        page,
                        targeting: targeting.clone(),
                        daily_budget_cents: daily_budget_cents * config.scale,
                        duration_days: *duration_days,
                        leakage: config.ad_leakage,
                    },
                    launch,
                    &mut ads_rng.split(campaign_index as u64),
                );
                trace.note(
                    launch,
                    format!("{}: ad plan of {} likes", spec.label, plan.len()),
                );
                for p in plan {
                    engine.schedule(
                        p.at,
                        Ev::Like(TimedLike {
                            user: p.user,
                            page,
                            at: p.at,
                        }),
                    );
                }
            }
            Promotion::FarmOrder {
                farm,
                region,
                likes,
                ..
            } => {
                let _farm_span = likelab_obs::span::enter("promotions.farm");
                let delivery = roster.fulfill(
                    &mut world,
                    &FarmOrder {
                        farm: *farm,
                        page,
                        region: *region,
                        likes: *likes,
                        placed_at: launch,
                    },
                );
                if delivery.scam {
                    is_scam = true;
                    trace.note(
                        launch,
                        format!(
                            "{}: campaign remained inactive (charged in advance)",
                            spec.label
                        ),
                    );
                } else {
                    trace.note(
                        launch,
                        format!(
                            "{}: farm delivery of {} likes, {} future camouflage events",
                            spec.label,
                            delivery.likes.len(),
                            delivery.future_camouflage.len()
                        ),
                    );
                    for l in delivery.likes.into_iter().chain(delivery.future_camouflage) {
                        engine.schedule(l.at, Ev::Like(l));
                    }
                }
            }
        }
        inactive.push(is_scam);
        monitors
            .push((!is_scam).then(|| PageMonitor::new(page, launch, campaign_end, config.crawler)));
        capture.world(&mut world)?;
        capture.record(|| StudyRecord::CampaignLaunched {
            campaign: campaign_index,
            page,
            at: launch,
        })?;
        if is_scam {
            capture.record(|| StudyRecord::CampaignInactive {
                campaign: campaign_index,
            })?;
        }
    }

    let end = max_campaign_end + config.termination_check_after;

    // --- organic background activity --------------------------------------
    if config.organic_activity {
        let window = end.since(launch);
        capture.rng_fork("organic")?;
        let plan = plan_background_activity(
            &world,
            &population,
            &pop_config,
            launch,
            window,
            &mut rng.fork("organic"),
        );
        trace.note(
            launch,
            format!("organic activity: {} likes planned", plan.len()),
        );
        for l in plan {
            engine.schedule(
                l.at,
                Ev::Like(TimedLike {
                    user: l.user,
                    page: l.page,
                    at: l.at,
                }),
            );
        }
    }

    drop(promotions_span);

    // --- crawler polls and fraud sweeps -----------------------------------
    for (i, m) in monitors.iter().enumerate() {
        if m.is_some() {
            engine.schedule(launch, Ev::Poll(i));
        }
    }
    engine.schedule(launch + SimDuration::days(3), Ev::Sweep);

    capture.rng_fork("crawl")?;
    let api = CrawlApi::new(config.crawl, rng.fork("crawl"));
    capture.rng_fork("fraud")?;
    let fraud = FraudOps::new(config.fraud.clone(), rng.fork("fraud"));

    Ok(LoopState {
        config: config.clone(),
        world,
        population,
        engine,
        monitors,
        inactive,
        honeypots,
        launch,
        end,
        api,
        fraud,
        rng,
        trace,
        sweep_terminations: 0,
    })
}

/// Phase 4: drive the event loop to exhaustion, checkpointing on cadence
/// when a checkpoint directory is configured.
pub(crate) fn event_loop(
    state: &mut LoopState,
    capture: &mut Capture,
    opts: &RunOptions,
) -> Result<(), StudyError> {
    let event_loop_span = likelab_obs::span::enter("study.event_loop");
    let mut checkpoints = 0u64;
    // Checkpoint on bucket crossings of the fired counter rather than exact
    // multiples: a coalesced batch advances `fired` by its whole length, so
    // the counter may step over a multiple without landing on it. For
    // single-event steps this is the same cadence as the historical
    // `fired % every == 0` check (a resume never re-checkpoints its own
    // resume point — the bucket starts at the resumed counter).
    let every = opts.checkpoint_every;
    let mut cp_bucket = state.engine.fired().checked_div(every).unwrap_or(0);
    // Reused columnar buffer for coalesced like runs. Runs are capped so a
    // quiet stretch of millions of likes neither starves the checkpoint
    // cadence nor holds an unbounded batch in memory.
    const LIKE_RUN_CAP: usize = 8_192;
    let mut like_run = LikeColumns::with_capacity(0);
    while let Some((now, ev)) = state.engine.step() {
        match ev {
            Ev::Like(l) => {
                // Drain the maximal run of consecutive like events (up to
                // the cap) and ingest them as one columnar batch.
                // Equivalent to per-event dispatch: likes draw no RNG,
                // account status only changes at sweep events (which end
                // the run), and `ingest_like_columns` documents per-item
                // `record_like` equivalence.
                like_run.clear();
                like_run.push(l.user, l.page, l.at);
                while like_run.len() < LIKE_RUN_CAP {
                    match state.engine.step_if(|_, e| matches!(e, Ev::Like(_))) {
                        Some((_, Ev::Like(next))) => {
                            like_run.push(next.user, next.page, next.at);
                        }
                        Some(_) => unreachable!("predicate admits only likes"),
                        None => break,
                    }
                }
                state.world.ingest_like_columns(&like_run, Exec::Sequential);
            }
            Ev::Poll(i) => {
                let _poll_span = likelab_obs::span::enter("study.poll");
                let monitor = state.monitors[i].as_mut().expect("poll only for active");
                if let Some(next) = monitor.poll(&state.world, &mut state.api, now) {
                    state.engine.schedule(next, Ev::Poll(i));
                } else {
                    state
                        .trace
                        .note(now, format!("stopped monitoring campaign #{i}"));
                }
            }
            Ev::Sweep => {
                let _sweep_span = likelab_obs::span::enter("study.sweep");
                let terminated = state.fraud.sweep(&mut state.world, now);
                state.sweep_terminations += terminated.len();
                state
                    .trace
                    .count("fraud.terminated", terminated.len() as u64);
                if now + state.config.sweep_interval <= state.end {
                    state
                        .engine
                        .schedule(now + state.config.sweep_interval, Ev::Sweep);
                }
            }
        }
        capture.world(&mut state.world)?;
        if let Some(dir) = &opts.checkpoint_dir {
            let bucket = state.engine.fired().checked_div(every).unwrap_or(0);
            if bucket > cp_bucket {
                cp_bucket = bucket;
                crate::checkpoint::write_checkpoint(dir, state, capture)?;
                checkpoints += 1;
                if opts
                    .crash_after_checkpoints
                    .is_some_and(|k| checkpoints >= k)
                {
                    return Err(StudyError::SimulatedCrash { checkpoints });
                }
            }
        }
    }
    state.trace.note(
        state.end,
        format!(
            "event loop drained: {} events, {} sweep terminations, {} crawl requests ({} failed)",
            state.engine.fired(),
            state.sweep_terminations,
            state.api.requests(),
            state.api.failures()
        ),
    );
    if !state.config.crawl.faults.is_quiet() {
        let s = state.api.stats();
        state.trace.note(
            state.end,
            format!(
                "crawl faults during monitoring: {} rate-limited, {} outage, {} transient",
                s.rate_limited, s.outage, s.transient
            ),
        );
    }

    drop(event_loop_span);
    likelab_obs::metrics::counter("study.events.fired", state.engine.fired());
    Ok(())
}

/// Phases 5–7: profile collection, the termination recheck, the baseline
/// sample, and report computation.
pub(crate) fn collect(
    state: LoopState,
    mut capture: Capture,
    exec: Exec,
) -> Result<StudyOutcome, StudyError> {
    let LoopState {
        config,
        world,
        population,
        engine: _,
        monitors,
        inactive,
        honeypots,
        launch,
        end,
        mut api,
        fraud: _,
        mut rng,
        trace,
        sweep_terminations: _,
    } = state;

    let collection_span = likelab_obs::span::enter("study.collection");
    let mut campaigns_data = Vec::with_capacity(config.campaigns.len());
    // The collection passes run on a virtual crawl clock starting at the
    // study's end; backoff waits and rate-limit hints advance it. With
    // fault regimes disabled nothing reads the cursor, so outcomes match
    // the pre-regime pipeline draw for draw.
    let mut crawl_at = end;
    for (i, spec) in config.campaigns.iter().enumerate() {
        let page = honeypots[i];
        let (likers, observations, monitoring_days, mut coverage) = match &monitors[i] {
            Some(m) => (
                collect_profiles(&world, &mut api, m, &mut crawl_at, &config.collection),
                m.observations().to_vec(),
                m.monitoring_days(),
                m.coverage(),
            ),
            None => (Vec::new(), Vec::new(), None, Default::default()),
        };
        for l in &likers {
            match l.crawl_outcome {
                CrawlOutcome::Complete => coverage.profiles_complete += 1,
                CrawlOutcome::Gone => coverage.profiles_gone += 1,
                CrawlOutcome::GaveUp => coverage.profiles_gave_up += 1,
            }
        }
        likelab_obs::metrics::counter(
            &format!("crawl.coverage{{campaign={}}}", spec.label),
            (coverage.profile_coverage() * 10_000.0) as u64,
        );
        let liker_ids: Vec<_> = likers.iter().map(|l| l.user).collect();
        let probe = check_terminations(
            &world,
            &mut api,
            &liker_ids,
            &mut crawl_at,
            &config.collection.retry,
        );
        for o in &observations {
            capture.record(|| StudyRecord::CrawlObserved {
                campaign: i,
                observation: *o,
            })?;
        }
        for l in &likers {
            capture.record(|| StudyRecord::ProfileCollected {
                campaign: i,
                record: l.clone(),
            })?;
        }
        capture.record(|| StudyRecord::TerminationsProbed {
            campaign: i,
            terminated: probe.terminated,
            unknown: probe.unknown,
        })?;
        capture.record(|| StudyRecord::MonitoringEnded {
            campaign: i,
            monitoring_days,
            coverage,
        })?;
        campaigns_data.push(CampaignData {
            spec: spec.clone(),
            page,
            observations,
            likers,
            report: AudienceReport::for_page(&world, page),
            monitoring_days,
            terminated_after_month: probe.terminated,
            termination_unknown: probe.unknown,
            inactive: inactive[i],
            coverage,
        });
    }

    capture.rng_fork("baseline")?;
    let n_baseline = ((config.baseline_sample as f64 * config.scale).round() as usize).max(50);
    let baseline: Vec<BaselineRecord> =
        likelab_osn::directory::random_sample(&world, n_baseline, &mut rng.fork("baseline"))
            .into_iter()
            .map(|user| BaselineRecord {
                user,
                like_count: world.likes().user_like_count(user),
            })
            .collect();
    capture.record(|| StudyRecord::BaselineSampled {
        records: baseline.clone(),
    })?;

    let dataset = Dataset {
        campaigns: campaigns_data,
        baseline,
        launch,
        global_report: AudienceReport::global_with(&world, exec),
    };
    drop(collection_span);
    let report = {
        let _s = likelab_obs::span::enter("study.report");
        StudyReport::compute_with(&dataset, exec)
    };

    if let Some(log) = &mut capture.log {
        log.flush()?;
        if let Some(path) = &capture.jsonl_out {
            crate::record::write_atomic(path, &log.to_jsonl()?)?;
        }
    }

    Ok(StudyOutcome {
        dataset,
        report,
        world,
        population,
        launch,
        honeypots,
        trace,
        log: capture.log,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A small but representative study, shared across tests (runs once).
    fn outcome() -> &'static StudyOutcome {
        static SHARED: std::sync::OnceLock<StudyOutcome> = std::sync::OnceLock::new();
        SHARED.get_or_init(|| run_study(&StudyConfig::paper(42, 0.12)))
    }

    #[test]
    fn thirteen_campaigns_two_inactive() {
        let o = outcome();
        assert_eq!(o.dataset.campaigns.len(), 13);
        let inactive: Vec<&str> = o
            .dataset
            .campaigns
            .iter()
            .filter(|c| c.inactive)
            .map(|c| c.spec.label.as_str())
            .collect();
        assert_eq!(inactive, vec!["BL-ALL", "MS-ALL"]);
    }

    #[test]
    fn like_counts_scale_with_table1() {
        let o = outcome();
        let scale = 0.12;
        // Each active campaign should land within a factor-2 band of the
        // scaled Table 1 count (stochastic delivery fractions included).
        for row in crate::paper::TABLE1 {
            let Some(published) = row.likes else { continue };
            let got = o.dataset.campaign(row.label).unwrap().like_count() as f64;
            let expected = published as f64 * scale;
            assert!(
                got > expected * 0.45 && got < expected * 2.2,
                "{}: got {got}, expected ~{expected}",
                row.label
            );
        }
    }

    #[test]
    fn fb_all_is_india_dominated() {
        let o = outcome();
        let fig1 = &o.report.figure1;
        let all = fig1.iter().find(|r| r.label == "FB-ALL").unwrap();
        assert!(
            all.share(likelab_osn::GeoBucket::India) > 0.85,
            "India share {}",
            all.share(likelab_osn::GeoBucket::India)
        );
        let sf = fig1.iter().find(|r| r.label == "SF-USA").unwrap();
        assert!(
            sf.share(likelab_osn::GeoBucket::Turkey) > 0.8,
            "SF ships Turkey: {}",
            sf.share(likelab_osn::GeoBucket::Turkey)
        );
    }

    #[test]
    fn burst_farms_burst_trickles_trickle() {
        let o = outcome();
        let series = |l: &str| o.report.figure2.iter().find(|s| s.label == l).unwrap();
        assert!(
            series("AL-USA").peak_2h_share > 0.3,
            "{}",
            series("AL-USA").peak_2h_share
        );
        assert!(series("SF-ALL").peak_2h_share > 0.3);
        assert!(series("BL-USA").peak_2h_share < 0.1);
        assert!(series("FB-IND").peak_2h_share < 0.1);
        assert!(series("BL-USA").days_to_90pct > 9.0);
        assert!(series("AL-USA").days_to_90pct < 5.0);
    }

    #[test]
    fn kl_ordering_matches_table2() {
        let o = outcome();
        let kl = |l: &str| {
            o.report
                .table2
                .iter()
                .find(|r| r.label == l)
                .and_then(|r| r.kl)
                .unwrap()
        };
        assert!(kl("FB-IND") > 0.5, "FB-IND young+male: {}", kl("FB-IND"));
        assert!(kl("FB-ALL") > 0.5);
        assert!(kl("SF-ALL") < 0.15, "SF mirrors global: {}", kl("SF-ALL"));
        assert!(kl("FB-IND") > kl("SF-ALL") * 4.0);
    }

    #[test]
    fn boostlikes_social_structure_stands_out() {
        let o = outcome();
        let row = |p: likelab_analysis::Provider| {
            o.report.table3.iter().find(|r| r.provider == p).unwrap()
        };
        use likelab_analysis::Provider as P;
        let bl = row(P::BoostLikes);
        let sf = row(P::SocialFormula);
        let fb = row(P::Facebook);
        assert!(
            bl.friends.median > sf.friends.median * 3.0,
            "BL median {} vs SF {}",
            bl.friends.median,
            sf.friends.median
        );
        assert!(
            bl.friendships_between_likers > sf.friendships_between_likers,
            "BL edges {} vs SF {}",
            bl.friendships_between_likers,
            sf.friendships_between_likers
        );
        assert!(fb.likers > 0 && bl.likers > 0);
        // ALMS exists: shared operator.
        assert!(row(P::Alms).likers > 0, "ALMS overlap group must appear");
    }

    #[test]
    fn honeypot_likers_like_far_more_pages_than_baseline() {
        let o = outcome();
        let median = |l: &str| {
            o.report
                .figure4
                .iter()
                .find(|c| c.label == l)
                .unwrap()
                .median()
        };
        let baseline = median("Facebook");
        assert!(
            (20.0..=60.0).contains(&baseline),
            "baseline median ~34, got {baseline}"
        );
        assert!(median("SF-ALL") > baseline * 10.0);
        assert!(median("FB-IND") > baseline * 5.0);
        // BL-USA is the exception: deliberately small like counts.
        assert!(median("BL-USA") < baseline * 5.0);
    }

    #[test]
    fn similarity_hotspots_match_figure5() {
        let o = outcome();
        let users = &o.report.figure5_users;
        let sf_pair = users.get("SF-ALL", "SF-USA");
        let alms = users.get("AL-USA", "MS-USA");
        let cross = users.get("SF-ALL", "AL-USA");
        assert!(sf_pair > 1.0, "SF reuse: {sf_pair}");
        assert!(alms > 10.0, "shared operator: {alms}");
        assert!(cross < 1.0, "distinct operators: {cross}");
        let pages = &o.report.figure5_pages;
        assert!(
            pages.get("AL-USA", "MS-USA") > pages.get("SF-ALL", "AL-USA"),
            "same-operator page overlap beats cross-operator"
        );
        assert!(
            pages.get("FB-IND", "FB-EGY") > pages.get("FB-IND", "AL-USA"),
            "FB campaigns resemble each other more than farms"
        );
    }

    #[test]
    fn termination_ordering_matches_section5() {
        let o = outcome();
        use likelab_analysis::Provider as P;
        let t = &o.report.termination;
        let likers = |p: P| {
            o.report
                .table3
                .iter()
                .find(|r| r.provider == p)
                .unwrap()
                .likers
        };
        let rate = |p: P| t.rate(p, likers(p).max(1));
        assert!(
            rate(P::BoostLikes) < rate(P::AuthenticLikes) + 0.02,
            "stealth farm survives: BL {} vs AL {}",
            rate(P::BoostLikes),
            rate(P::AuthenticLikes)
        );
        assert!(
            t.provider(P::AuthenticLikes) + t.provider(P::SocialFormula)
                > t.provider(P::BoostLikes),
            "bot farms purged more than stealth"
        );
    }

    #[test]
    fn determinism_same_seed_same_report() {
        let a = run_study(&StudyConfig::paper(7, 0.03));
        let b = run_study(&StudyConfig::paper(7, 0.03));
        assert_eq!(
            a.report.to_json().unwrap(),
            b.report.to_json().unwrap(),
            "a (seed, scale) pair must regenerate the identical study"
        );
        let c = run_study(&StudyConfig::paper(8, 0.03));
        assert_ne!(a.report.to_json().unwrap(), c.report.to_json().unwrap());
    }

    #[test]
    fn logged_run_matches_unlogged_run() {
        let config = StudyConfig::paper(11, 0.03);
        let plain = run_study(&config);
        let logged = run_study_opts(
            &config,
            &RunOptions {
                capture_log: true,
                ..RunOptions::default()
            },
        )
        .unwrap();
        assert_eq!(
            plain.report.to_json().unwrap(),
            logged.report.to_json().unwrap(),
            "capturing the log must not perturb the run"
        );
        let log = logged.log.expect("log captured");
        assert!(log.records().len() > 1_000, "log is non-trivial");
    }

    #[test]
    fn jsonl_log_out_round_trips() {
        let dir = std::env::temp_dir().join(format!("likelab-jsonl-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("world.jsonl");
        let config = StudyConfig::paper(11, 0.03);
        let outcome = run_study_opts(
            &config,
            &RunOptions {
                log_out: Some(path.clone()),
                log_format: LogFormat::Jsonl,
                ..RunOptions::default()
            },
        )
        .unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(
            text.lines().next().unwrap().contains("likelab"),
            "first line is the JSON header"
        );
        // The sniffing reader accepts the JSONL file, and replay rebuilds
        // the same study from it.
        let (header, records) = crate::read_study_log(&path).unwrap();
        assert_eq!(
            crate::record::config_from_header(&header).unwrap().seed,
            config.seed
        );
        assert!(records.len() > 1_000);
        let replayed =
            crate::replay::replay_study(&path, &crate::ReplayOptions::default()).unwrap();
        assert_eq!(
            replayed.report.to_json().unwrap(),
            outcome.report.to_json().unwrap(),
            "JSONL framing must replay to the identical report"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn jsonl_format_rejected_with_checkpointing() {
        let dir = std::env::temp_dir().join(format!("likelab-jsonl-ckpt-{}", std::process::id()));
        let result = run_study_opts(
            &StudyConfig::paper(11, 0.02),
            &RunOptions {
                checkpoint_dir: Some(dir.clone()),
                log_format: LogFormat::Jsonl,
                ..RunOptions::default()
            },
        );
        let Err(err) = result else {
            panic!("jsonl + checkpointing must be rejected")
        };
        assert!(err.to_string().contains("binary log format"), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn monitoring_windows_are_plausible() {
        let o = outcome();
        for c in &o.dataset.campaigns {
            if c.inactive {
                assert!(c.monitoring_days.is_none());
            } else {
                let days = c.monitoring_days.expect("active campaigns stop eventually");
                assert!((8..=40).contains(&days), "{}: {} days", c.spec.label, days);
            }
        }
    }

    #[test]
    fn report_renders_non_trivially() {
        let o = outcome();
        let text = o.report.render();
        assert!(text.contains("FB-USA"));
        assert!(text.contains("MS-USA"));
        assert!(text.contains("ALMS"));
        assert!(text.len() > 2_000);
    }
}

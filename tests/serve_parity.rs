//! The online-vs-batch equivalence contract, enforced end to end.
//!
//! SERVING.md promises: an online detector fed the full study log answers
//! every end-of-stream query **bitwise identically** to its batch
//! counterpart run on a world rebuilt from the same log — for any worker
//! count the producing study ran with, and for any chunking of the byte
//! stream on the way in. These tests are that promise.

use likelab::core::serve::{ServeConfig, ServeEngine};
use likelab::detect::online::organic_seeds;
use likelab::detect::{BurstConfig, LockstepConfig, ScorerWeights, SybilRankConfig};
use likelab::graph::UserId;
use likelab::sim::tail::TailReader;
use likelab::sim::Exec;
use likelab::{run_study_opts, RunOptions, StudyConfig, StudyLog, StudyOutcome};

const SCALE: f64 = 0.03;

/// Run the study once per worker count, capturing the log.
fn logged_run(workers: usize) -> (StudyOutcome, StudyLog) {
    let exec = if workers <= 1 {
        Exec::Sequential
    } else {
        Exec::Parallel { workers }
    };
    let mut outcome = run_study_opts(
        &StudyConfig::paper(7, SCALE),
        &RunOptions {
            exec,
            capture_log: true,
            ..RunOptions::default()
        },
    )
    .expect("study runs");
    let log = outcome.log.take().expect("log captured");
    (outcome, log)
}

/// Feed the log's binary encoding through the tail decoder in `chunk`-byte
/// slices and fold every frame into a fresh serve engine.
fn engine_from_bytes(log: &StudyLog, chunk: usize) -> ServeEngine {
    let bytes = log.to_binary().expect("encode");
    let mut tail = TailReader::new();
    let mut engine: Option<ServeEngine> = None;
    let mut pending = Vec::new();
    for slice in bytes.chunks(chunk.max(1)) {
        tail.extend(slice);
        while let Some(frame) = tail.next_record().expect("clean stream") {
            pending.push(frame);
        }
        if engine.is_none() {
            if let Some(header) = tail.header() {
                engine = Some(ServeEngine::new(header, ServeConfig::default()).expect("header"));
            }
        }
        if let Some(e) = &mut engine {
            for frame in pending.drain(..) {
                e.ingest_frame(&frame).expect("valid record");
            }
        }
    }
    tail.finish().expect("no partial frame");
    let mut engine = engine.expect("header arrived");
    for frame in pending.drain(..) {
        engine.ingest_frame(&frame).expect("valid record");
    }
    engine
}

/// Assert every end-of-stream online answer is bitwise equal to batch.
fn assert_bitwise_parity(outcome: &StudyOutcome, engine: &mut ServeEngine) {
    let world = &outcome.world;
    let burst_cfg = BurstConfig::default();
    let weights = ScorerWeights::default();

    // Burst: every honeypot page and every account.
    for &page in &outcome.honeypots {
        let batch = likelab::detect::judge_page(world, page, None, &burst_cfg);
        let online = engine.detectors_mut().burst_mut().page_verdict(page);
        assert_eq!(
            online.peak_share.to_bits(),
            batch.peak_share.to_bits(),
            "page {page:?} share"
        );
        assert_eq!(
            (online.events, online.flagged),
            (batch.events, batch.flagged)
        );
    }
    for i in 0..world.account_count() as u32 {
        let u = UserId(i);
        let batch = likelab::detect::judge_account(world, u, &burst_cfg);
        let online = engine.detectors_mut().burst_mut().user_verdict(u);
        assert_eq!(
            online.peak_share.to_bits(),
            batch.peak_share.to_bits(),
            "user {i} share"
        );

        // Features + combined score, bitwise.
        let now = engine.watermark();
        let batch_score = likelab::detect::score(
            &likelab::detect::extract(world, u, now, &burst_cfg),
            &weights,
        );
        let online_score = engine.online_score(u);
        assert_eq!(
            online_score.to_bits(),
            batch_score.to_bits(),
            "user {i} score"
        );
    }

    // Lockstep: whole report, structurally equal.
    let batch = likelab::detect::detect(world, &LockstepConfig::default());
    let online = engine.detectors_mut().lockstep().report();
    assert_eq!(online.clusters, batch.clusters);

    // SybilRank: trust vector bitwise, from the same seed set.
    let seeds = organic_seeds(world, 500);
    let batch = likelab::detect::sybil_rank(world.friends(), &seeds, &SybilRankConfig::default());
    let graph = engine.world().friends().clone();
    let online = engine
        .detectors_mut()
        .sybilrank_mut()
        .refresh(&graph, &seeds);
    assert_eq!(online.as_slice().len(), batch.as_slice().len());
    for (i, (a, b)) in online
        .as_slice()
        .iter()
        .zip(batch.as_slice().iter())
        .enumerate()
    {
        assert_eq!(a.to_bits(), b.to_bits(), "trust[{i}]");
    }
}

#[test]
fn online_matches_batch_bitwise_one_worker() {
    let (outcome, log) = logged_run(1);
    let mut engine = engine_from_bytes(&log, 1 << 16);
    assert_bitwise_parity(&outcome, &mut engine);
}

#[test]
fn online_matches_batch_bitwise_two_workers() {
    let (outcome, log) = logged_run(2);
    let mut engine = engine_from_bytes(&log, 1 << 16);
    assert_bitwise_parity(&outcome, &mut engine);
}

#[test]
fn online_matches_batch_bitwise_eight_workers() {
    let (outcome, log) = logged_run(8);
    let mut engine = engine_from_bytes(&log, 1 << 16);
    assert_bitwise_parity(&outcome, &mut engine);
}

#[test]
fn worker_count_does_not_change_the_log() {
    // The parity tests above would be vacuous if the log itself differed
    // per worker count; pin the stronger determinism fact directly.
    let (_, a) = logged_run(1);
    let (_, b) = logged_run(8);
    assert_eq!(a.to_binary().unwrap(), b.to_binary().unwrap());
}

#[test]
fn mid_stream_seq_regression_is_rejected() {
    // The log's ordering contract mid-stream: sequence numbers strictly
    // increase. A frame replayed out of order must be a hard decode error,
    // not silently folded state.
    let (_, log) = logged_run(1);
    let records: Vec<_> = log.records().to_vec();
    assert!(records.len() > 10);
    let frames: Vec<likelab::sim::event::LogRecord> = records
        .iter()
        .map(|(seq, r)| likelab::sim::event::LogRecord {
            seq: *seq,
            payload: serde::Serialize::to_value(r),
        })
        .collect();
    // Duplicate frame 5 after frame 6: seq goes 5, 6, 5.
    let mut tampered = frames[..7].to_vec();
    tampered.push(frames[5].clone());
    let bytes = likelab::sim::event::encode_binary(log.header(), &tampered).unwrap();
    let mut tail = TailReader::new();
    tail.extend(&bytes);
    let mut err = None;
    loop {
        match tail.next_record() {
            Ok(Some(_)) => {}
            Ok(None) => break,
            Err(e) => {
                err = Some(e);
                break;
            }
        }
    }
    let err = err.expect("seq regression must error");
    assert!(
        err.to_string().contains("sequence"),
        "unexpected error: {err}"
    );
}

/// Packed-ledger parity: the batch world builds its bit-packed posting lists
/// through bulk parallel `ingest_columns`, while the serve engine re-folds
/// the same likes from the decoded log, sequentially. Every observable
/// ledger query must still agree exactly, including iteration order.
#[test]
fn packed_ledger_folds_identically_online_and_batch() {
    let (outcome, log) = logged_run(8);
    let engine = engine_from_bytes(&log, 1 << 16);
    let batch = outcome.world.likes();
    let online = engine.world().likes();

    assert_eq!(online.len(), batch.len());
    assert_eq!(online.shard_count(), batch.shard_count());

    // Global record stream: same likes in the same order.
    let a: Vec<_> = online.records().map(|r| (r.user, r.page, r.at)).collect();
    let b: Vec<_> = batch.records().map(|r| (r.user, r.page, r.at)).collect();
    assert_eq!(a, b);

    // Per-page posting lists, across every page (honeypots included): the
    // packed per-shard indexes must decode to identical streams.
    for p in 0..outcome.world.page_count() as u32 {
        let page = likelab::graph::PageId(p);
        assert_eq!(online.page_like_count(page), batch.page_like_count(page));
        let a: Vec<_> = online.of_page(page).map(|r| (r.user, r.at)).collect();
        let b: Vec<_> = batch.of_page(page).map(|r| (r.user, r.at)).collect();
        assert_eq!(a, b, "page {p} posting list");
    }

    // Per-user packed indexes.
    for u in 0..outcome.world.account_count() as u32 {
        let user = UserId(u);
        assert_eq!(online.user_like_count(user), batch.user_like_count(user));
        let a: Vec<_> = online.user_pages(user).collect();
        let b: Vec<_> = batch.user_pages(user).collect();
        assert_eq!(a, b, "user {u} pages");
        let a: Vec<_> = online.user_times(user).collect();
        let b: Vec<_> = batch.user_times(user).collect();
        assert_eq!(a, b, "user {u} times");
    }
}

/// Chunking invariance: however the byte stream is sliced on the way in,
/// the engine converges on the same live state. Chunk sizes are drawn from
/// a seeded RNG (plus fixed pathological sizes), so the sweep is random
/// but reproducible.
#[test]
fn chunk_size_does_not_change_the_fold() {
    let (outcome, log) = logged_run(1);
    let mut rng = likelab::sim::Rng::seed_from_u64(0xC4A7);
    let mut chunks = vec![3, 19, 4_096];
    chunks.extend((0..5).map(|_| 1 + rng.index(200_000)));
    let batch = likelab::detect::judge_page(
        &outcome.world,
        outcome.honeypots[0],
        None,
        &BurstConfig::default(),
    );
    for chunk in chunks {
        let mut engine = engine_from_bytes(&log, chunk);
        assert_eq!(
            engine.records_ingested() as usize,
            log.records().len(),
            "chunk {chunk}"
        );
        assert_eq!(engine.world().likes().len(), outcome.world.likes().len());
        assert_eq!(
            engine.world().friends().edge_count(),
            outcome.world.friends().edge_count()
        );
        let online = engine
            .detectors_mut()
            .burst_mut()
            .page_verdict(outcome.honeypots[0]);
        assert_eq!(
            online.peak_share.to_bits(),
            batch.peak_share.to_bits(),
            "chunk {chunk}"
        );
    }
}

//! Codec and differential tier for the packed like-ledger storage.
//!
//! The bit-packed delta-encoded posting lists ([`likelab::osn::posting`]) are
//! an internal storage format: nothing observable may change versus a plain
//! `Vec<u32>` index. This tier locks that down from two directions:
//!
//! 1. **Codec round-trip** — property tests drive [`PostingList`] with
//!    arbitrary strictly-increasing sequences (wide gaps, block-boundary
//!    lengths, duplicates collapsed by the reference) and require the decoded
//!    stream to equal the reference vector element-for-element.
//! 2. **Ledger differential** — a naive reference ledger built on `Vec` and
//!    linear scans answers every public [`LikeLedger`] query on a generated
//!    world; the packed ledger must agree exactly, including iteration order,
//!    across shard boundaries and for both `record` and `ingest_columns` paths.

use std::collections::BTreeSet;

use likelab::graph::{PageId, UserId};
use likelab::osn::posting::{PostingList, BLOCK};
use likelab::osn::{LikeColumns, LikeLedger, LikeRecord};
use likelab::sim::{Exec, SimTime};
use proptest::prelude::*;

// ---------------------------------------------------------------------------
// 1. Posting-list codec round-trip vs a Vec<u32> reference
// ---------------------------------------------------------------------------

/// Turn an arbitrary vector of (start, gap) pairs into a strictly increasing
/// sequence; gaps of zero exercise dense runs, large gaps exercise the
/// escape/wide encodings around block boundaries.
fn increasing_from_gaps(gaps: &[u32]) -> Vec<u32> {
    let mut out = Vec::with_capacity(gaps.len());
    let mut next: u64 = 0;
    for g in gaps {
        next += *g as u64;
        if next > u32::MAX as u64 {
            break;
        }
        out.push(next as u32);
        next += 1; // strictly increasing: next candidate is at least +1
    }
    out
}

proptest! {
    /// Round-trip: any strictly increasing sequence decodes back exactly,
    /// whether pushed one at a time or appended in bulk. Gaps are wide
    /// enough that sequences can climb all the way to `u32::MAX` (the
    /// generator truncates there), so the top of the id domain — which the
    /// codec must now represent exactly — is inside the search space.
    #[test]
    fn posting_roundtrips_any_increasing_sequence(
        gaps in prop::collection::vec(0u32..67_000_000, 0..400),
    ) {
        let reference = increasing_from_gaps(&gaps);

        let mut pushed = PostingList::new();
        for &v in &reference {
            pushed.push(v);
        }
        let mut bulk = PostingList::new();
        bulk.extend_from_increasing(&reference);

        prop_assert_eq!(pushed.len(), reference.len());
        prop_assert_eq!(bulk.len(), reference.len());
        prop_assert_eq!(pushed.last(), reference.last().copied());
        let decoded_pushed: Vec<u32> = pushed.iter().collect();
        let decoded_bulk: Vec<u32> = bulk.iter().collect();
        prop_assert_eq!(&decoded_pushed, &reference);
        prop_assert_eq!(&decoded_bulk, &reference);
    }

    /// Splitting a bulk append at an arbitrary point — including mid-block —
    /// produces the same encoded stream as a single append.
    #[test]
    fn posting_split_appends_equal_single_append(
        gaps in prop::collection::vec(0u32..100_000, 1..300),
        split_frac in 0.0f64..1.0,
    ) {
        let reference = increasing_from_gaps(&gaps);
        let split = ((reference.len() as f64) * split_frac) as usize;

        let mut whole = PostingList::new();
        whole.extend_from_increasing(&reference);

        let mut parts = PostingList::new();
        parts.extend_from_increasing(&reference[..split]);
        parts.extend_from_increasing(&reference[split..]);

        let a: Vec<u32> = whole.iter().collect();
        let b: Vec<u32> = parts.iter().collect();
        prop_assert_eq!(a, b);
    }
}

/// Deterministic block-boundary sweep: lengths straddling multiples of the
/// packing block, with both dense (+1) and sparse (+large) gap patterns.
#[test]
fn posting_handles_block_boundary_lengths() {
    for len in [0, 1, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK, 3 * BLOCK + 7] {
        for gap in [1u32, 2, 63, 1 << 16, (1 << 27) / (len.max(1) as u32 + 1)] {
            let reference: Vec<u32> = (0..len as u32).map(|i| i * gap.max(1)).collect();
            let mut list = PostingList::new();
            list.extend_from_increasing(&reference);
            let decoded: Vec<u32> = list.iter().collect();
            assert_eq!(decoded, reference, "len={len} gap={gap}");
        }
    }
}

// ---------------------------------------------------------------------------
// 2. LikeLedger differential vs a naive Vec reference model
// ---------------------------------------------------------------------------

/// Reference ledger: a flat append log with the same accept/reject rule
/// (first like per (user, page) wins) answered by linear scans.
#[derive(Default)]
struct RefLedger {
    log: Vec<(u32, u32, u64)>,
}

impl RefLedger {
    fn record(&mut self, u: u32, p: u32, t: u64) -> bool {
        if self.log.iter().any(|&(lu, lp, _)| lu == u && lp == p) {
            return false;
        }
        self.log.push((u, p, t));
        true
    }

    fn of_page(&self, p: u32) -> Vec<(u32, u32, u64)> {
        self.log
            .iter()
            .copied()
            .filter(|&(_, lp, _)| lp == p)
            .collect()
    }

    fn of_user(&self, u: u32) -> Vec<(u32, u32, u64)> {
        self.log
            .iter()
            .copied()
            .filter(|&(lu, _, _)| lu == u)
            .collect()
    }

    fn user_pages(&self, u: u32) -> BTreeSet<u32> {
        self.of_user(u).iter().map(|&(_, p, _)| p).collect()
    }
}

fn as_tuple(r: LikeRecord) -> (u32, u32, u64) {
    (r.user.0, r.page.0, r.at.as_secs())
}

/// Pages worth interrogating: every page in the log plus absent pages near
/// shard edges, so empty posting lists are checked too.
fn pages_of_interest(reference: &RefLedger) -> BTreeSet<u32> {
    let mut pages: BTreeSet<u32> = reference.log.iter().map(|&(_, p, _)| p).collect();
    pages.extend([0, 39, 4080, 4119, 4096, 5000, 8150, 8199]);
    pages
}

/// Run every public query against both ledgers and demand exact agreement,
/// including iteration order of the streaming accessors.
fn assert_ledgers_agree(
    ledger: &LikeLedger,
    reference: &RefLedger,
    n_users: u32,
) -> Result<(), String> {
    prop_assert_eq!(ledger.len(), reference.log.len());
    let all: Vec<_> = ledger.records().map(as_tuple).collect();
    prop_assert_eq!(&all, &reference.log);
    let pages = pages_of_interest(reference);

    for u in 0..n_users {
        let user = UserId(u);
        let of_user: Vec<_> = ledger.of_user(user).map(as_tuple).collect();
        prop_assert_eq!(&of_user, &reference.of_user(u));
        prop_assert_eq!(ledger.user_like_count(user), of_user.len());
        let pages: BTreeSet<u32> = ledger.user_pages(user).map(|p| p.0).collect();
        prop_assert_eq!(&pages, &reference.user_pages(u));
        let times: Vec<u64> = ledger.user_times(user).map(|t| t.as_secs()).collect();
        let ref_times: Vec<u64> = reference.of_user(u).iter().map(|&(_, _, t)| t).collect();
        prop_assert_eq!(times, ref_times);
        let mut sorted = reference.of_user(u);
        sorted.sort_by_key(|&(_, _, t)| t); // stable, same as of_user_sorted
        let of_user_sorted: Vec<_> = ledger
            .of_user_sorted(user)
            .into_iter()
            .map(as_tuple)
            .collect();
        prop_assert_eq!(&of_user_sorted, &sorted);
    }

    for &p in &pages {
        let page = PageId(p);
        let of_page: Vec<_> = ledger.of_page(page).map(as_tuple).collect();
        prop_assert_eq!(&of_page, &reference.of_page(p));
        prop_assert_eq!(ledger.page_like_count(page), of_page.len());
        let times: Vec<u64> = ledger.page_times(page).map(|t| t.as_secs()).collect();
        let ref_times: Vec<u64> = reference.of_page(p).iter().map(|&(_, _, t)| t).collect();
        prop_assert_eq!(times, ref_times);
        let mut sorted = reference.of_page(p);
        sorted.sort_by_key(|&(_, _, t)| t); // stable, same as of_page_sorted
        let of_page_sorted: Vec<_> = ledger
            .of_page_sorted(page)
            .into_iter()
            .map(as_tuple)
            .collect();
        prop_assert_eq!(&of_page_sorted, &sorted);
    }

    for u in 0..n_users {
        for &p in &pages {
            prop_assert_eq!(
                ledger.likes_page(UserId(u), PageId(p)),
                reference.user_pages(u).contains(&p),
                "likes_page({}, {})",
                u,
                p
            );
        }
    }
    Ok(())
}

/// Spread raw draws in `0..120` across three page bands, two of which sit on
/// either side of the 4096-page shard boundary and near the top of the space.
fn band_page(raw: u32) -> u32 {
    match raw / 40 {
        0 => raw,
        1 => 4080 + (raw - 40),
        _ => 8150 + (raw - 80),
    }
}

proptest! {
    /// Differential: sequential `record` on the packed ledger matches the
    /// naive reference on every query. Pages span the 4096-page shard
    /// boundary so cross-shard posting lists are exercised.
    #[test]
    fn ledger_record_matches_vec_reference(
        likes in prop::collection::vec((0u32..24, 0u32..120, 0u64..50_000), 0..250),
    ) {
        let n_users = 24;
        let mut ledger = LikeLedger::new(n_users as usize, 8200);
        let mut reference = RefLedger::default();
        for &(u, raw, t) in &likes {
            let p = band_page(raw);
            let got = ledger.record(UserId(u), PageId(p), SimTime::from_secs(t));
            let want = reference.record(u, p, t);
            prop_assert_eq!(got, want, "accept/reject diverged at ({}, {}, {})", u, p, t);
        }
        prop_assert!(ledger.shard_count() >= 3, "world must span shards");
        assert_ledgers_agree(&ledger, &reference, n_users)?;
    }

    /// Differential: batched ingest (any worker count) is observationally the
    /// same ledger as the reference built by sequential first-wins replay.
    #[test]
    fn ledger_ingest_batch_matches_vec_reference(
        likes in prop::collection::vec((0u32..24, 0u32..120, 0u64..50_000), 0..250),
        workers in 1usize..5,
        split_frac in 0.0f64..1.0,
    ) {
        let n_users = 24;
        let mut ledger = LikeLedger::new(n_users as usize, 8200);
        let mut reference = RefLedger::default();

        // Two batches so the second one dedups against already-packed state.
        let split = ((likes.len() as f64) * split_frac) as usize;
        for chunk in [&likes[..split], &likes[split..]] {
            let batch: Vec<_> = chunk
                .iter()
                .map(|&(u, raw, t)| (UserId(u), PageId(band_page(raw)), SimTime::from_secs(t)))
                .collect();
            let accepted = ledger.ingest_columns(&LikeColumns::from_rows(&batch), Exec::workers(workers));
            let want: usize = chunk
                .iter()
                .map(|&(u, raw, t)| reference.record(u, band_page(raw), t) as usize)
                .sum();
            prop_assert_eq!(accepted, want);
        }
        assert_ledgers_agree(&ledger, &reference, n_users)?;
    }

    /// Differential: the columnar ingest path (what the event loop and the
    /// population synthesizer feed) is observationally the same ledger as the
    /// reference. `sparse` flips the account count so the same draws take
    /// either the counting-sort grouping (24 accounts: every batch is
    /// "large") or the sorted-pairs grouping (4096 accounts: every batch
    /// stays under the `n_users / 8` threshold).
    #[test]
    fn ledger_ingest_columns_matches_vec_reference(
        likes in prop::collection::vec((0u32..24, 0u32..120, 0u64..50_000), 0..250),
        workers in 1usize..5,
        split_frac in 0.0f64..1.0,
        sparse in any::<bool>(),
    ) {
        let n_users = if sparse { 4096 } else { 24 };
        let mut ledger = LikeLedger::new(n_users, 8200);
        let mut reference = RefLedger::default();

        // Two batches so the second one dedups against already-packed state.
        let split = ((likes.len() as f64) * split_frac) as usize;
        for chunk in [&likes[..split], &likes[split..]] {
            let mut cols = LikeColumns::with_capacity(chunk.len());
            for &(u, raw, t) in chunk {
                cols.push(UserId(u), PageId(band_page(raw)), SimTime::from_secs(t));
            }
            let accepted = ledger.ingest_columns(&cols, Exec::workers(workers));
            let want: usize = chunk
                .iter()
                .map(|&(u, raw, t)| reference.record(u, band_page(raw), t) as usize)
                .sum();
            prop_assert_eq!(accepted, want);
        }
        // Draws never name a user past 23, so checking that range covers
        // every populated row in both ledgers.
        assert_ledgers_agree(&ledger, &reference, 24)?;
    }
}

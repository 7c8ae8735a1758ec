//! The like ledger: every like with its timestamp, indexed from both sides.
//!
//! The ledger is the platform's authoritative record. The temporal analysis
//! (Figure 2) and the burst detector both consume chronological per-page
//! streams; the page-like analysis (Figure 4) consumes per-user counts.
//!
//! ## Layout
//!
//! At million-account scale the ledger holds tens of millions of records, so
//! storage is struct-of-arrays (`users`/`pages`/`times` columns in global
//! insertion order) and both indexes are bit-packed
//! [`PostingList`](crate::posting::PostingList)s of global record indices —
//! strictly increasing by construction, so they delta-encode to a fraction
//! of a raw `Vec<u32>` and decode through allocation-free iterators. The
//! per-page index is **sharded by page-id range**: each shard owns
//! [`SHARD_PAGES`] consecutive pages and its own local posting lists. Bulk
//! ingestion ([`LikeLedger::ingest_columns`]) takes the batch as
//! [`LikeColumns`] — the SoA twin of a row-tuple slice — dedups per user,
//! memcpys the accepted column regions onto the ledger, and groups accepted
//! records per shard through [`likelab_sim::parallel`]; report aggregation
//! can walk shards independently. Nothing materializes a global
//! intermediate `Vec` per page, and single-column accessors
//! ([`page_users`](LikeLedger::page_users),
//! [`users_from`](LikeLedger::users_from), …) let scan-heavy consumers read
//! just the fields they fold.
//!
//! Membership (has `user` already liked `page`?) is answered by a per-user
//! sorted page list with a small insertion overlay, merged amortized-O(1)
//! per insert — the heavy likers the paper describes (median 600–1000 page
//! likes) no longer pay a full-array memmove per like.
//!
//! Every accessor hands out [`LikeRecord`]s **by value** (assembled from the
//! columns on demand), so iteration reads the same as it did when records
//! were stored as an array of structs.

use crate::posting::PostingList;
use likelab_graph::{PageId, UserId};
use likelab_sim::parallel::{parallel_map, Exec};
use likelab_sim::SimTime;
use serde::{Deserialize, Serialize};

/// One like event.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct LikeRecord {
    /// Who liked.
    pub user: UserId,
    /// What they liked.
    pub page: PageId,
    /// When.
    pub at: SimTime,
}

/// A column batch of likes: the struct-of-arrays twin of
/// `&[(UserId, PageId, SimTime)]`, one entry per batch position.
///
/// Synthesis and the coalesced event loop build these directly so batches
/// flow into the ledger's columns without a row-tuple detour — the accepted
/// region of each column memcpys straight onto the ledger. The three
/// columns always have equal lengths.
#[derive(Clone, Debug, Default)]
pub struct LikeColumns {
    /// Who liked, per batch position.
    pub users: Vec<UserId>,
    /// What they liked, per batch position.
    pub pages: Vec<PageId>,
    /// When, per batch position.
    pub times: Vec<SimTime>,
}

impl LikeColumns {
    /// Empty columns with room for `n` likes each.
    pub fn with_capacity(n: usize) -> Self {
        LikeColumns {
            users: Vec::with_capacity(n),
            pages: Vec::with_capacity(n),
            times: Vec::with_capacity(n),
        }
    }

    /// Build columns from row tuples (replaying a journaled
    /// [`WorldEvent::LikeBatch`](crate::WorldEvent::LikeBatch), and tests).
    pub fn from_rows(rows: &[(UserId, PageId, SimTime)]) -> Self {
        let mut cols = LikeColumns::with_capacity(rows.len());
        for &(user, page, at) in rows {
            cols.push(user, page, at);
        }
        cols
    }

    /// Number of likes in the batch.
    pub fn len(&self) -> usize {
        self.users.len()
    }

    /// True when the batch holds no likes.
    pub fn is_empty(&self) -> bool {
        self.users.is_empty()
    }

    /// Drop all likes, keeping the allocations.
    pub fn clear(&mut self) {
        self.users.clear();
        self.pages.clear();
        self.times.clear();
    }

    /// Append one like.
    pub fn push(&mut self, user: UserId, page: PageId, at: SimTime) {
        self.users.push(user);
        self.pages.push(page);
        self.times.push(at);
    }

    /// Zip the columns back into row tuples (journaling and tests).
    pub fn rows(&self) -> impl Iterator<Item = (UserId, PageId, SimTime)> + '_ {
        (0..self.len()).map(move |i| (self.users[i], self.pages[i], self.times[i]))
    }
}

/// Pages per index shard. Small enough that a study's background-page count
/// spreads over many shards, large enough that a shard's posting lists
/// amortize per-shard bookkeeping.
pub const SHARD_PAGES: usize = 4096;

/// One page-range shard of the per-page index: packed posting lists (global
/// record indices, in insertion order) for the pages in this shard's range.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
struct Shard {
    by_page: Vec<PostingList>,
}

/// The sorted page set of one user: a compact sorted base plus a small
/// sorted overlay absorbing recent inserts (same shape as the friend
/// graph's CSR+overlay). Keeps duplicate checks `O(log d)` and inserts
/// amortized `O(1)` memmove-wise even for ten-thousand-like accounts.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
struct UserPages {
    base: Vec<u32>,
    overlay: Vec<u32>,
}

/// The overlay merges into the base once it holds this many entries and at
/// least a quarter of the base's size (the floor keeps light users from
/// merging on every insert).
const MERGE_FLOOR: usize = 32;

impl UserPages {
    /// Insert `p`; returns false when already present.
    fn insert(&mut self, p: u32) -> bool {
        if self.base.binary_search(&p).is_ok() {
            return false;
        }
        match self.overlay.binary_search(&p) {
            Ok(_) => false,
            Err(pos) => {
                self.overlay.insert(pos, p);
                if self.overlay.len() >= MERGE_FLOOR && self.overlay.len() * 4 >= self.base.len() {
                    self.merge();
                }
                true
            }
        }
    }

    /// Fold the overlay into the base (two-pointer merge of disjoint sorted
    /// lists).
    fn merge(&mut self) {
        let mut merged = Vec::with_capacity(self.base.len() + self.overlay.len());
        let (mut i, mut j) = (0, 0);
        while i < self.base.len() && j < self.overlay.len() {
            if self.base[i] < self.overlay[j] {
                merged.push(self.base[i]);
                i += 1;
            } else {
                merged.push(self.overlay[j]);
                j += 1;
            }
        }
        merged.extend_from_slice(&self.base[i..]);
        merged.extend_from_slice(&self.overlay[j..]);
        self.base = merged;
        self.overlay.clear();
    }

    /// Batch-absorb a sorted candidate list. `cand` holds `(page, pos)`
    /// pairs sorted ascending (so equal pages are adjacent, earliest batch
    /// position first). For each page run: if the page is already in the
    /// set every occurrence is rejected; otherwise exactly the first
    /// occurrence is accepted (`accept[pos] = true`) — the same decisions a
    /// positional loop of [`insert`][Self::insert] calls would make. When
    /// anything was accepted the set is rebuilt as a flat sorted base with
    /// an empty overlay (`merged` is reusable scratch).
    fn absorb_sorted(&mut self, cand: &[(u32, u32)], accept: &mut [bool], merged: &mut Vec<u32>) {
        if self.base.is_empty() && self.overlay.is_empty() {
            // Fresh set — the synthesis common case (every user's first
            // batch). There is no history to merge against, so skip the
            // two-pointer scaffolding: accept the first occurrence of each
            // page run and install the deduped pages as the base directly.
            merged.clear();
            let mut k = 0usize;
            while k < cand.len() {
                let page = cand[k].0;
                accept[cand[k].1 as usize] = true;
                merged.push(page);
                while k < cand.len() && cand[k].0 == page {
                    k += 1;
                }
            }
            self.base.extend_from_slice(merged);
            return;
        }
        merged.clear();
        let (mut i, mut j, mut k) = (0usize, 0usize, 0usize);
        let mut accepted_any = false;
        while k < cand.len() {
            let page = cand[k].0;
            // Drain existing entries below the candidate page.
            loop {
                let next_existing = match (self.base.get(i), self.overlay.get(j)) {
                    (Some(&a), Some(&b)) => {
                        if a < b {
                            a
                        } else {
                            b
                        }
                    }
                    (Some(&a), None) => a,
                    (None, Some(&b)) => b,
                    (None, None) => break,
                };
                if next_existing >= page {
                    break;
                }
                merged.push(next_existing);
                if self.base.get(i) == Some(&next_existing) {
                    i += 1;
                } else {
                    j += 1;
                }
            }
            let present = self.base.get(i) == Some(&page) || self.overlay.get(j) == Some(&page);
            if !present {
                accept[cand[k].1 as usize] = true;
                accepted_any = true;
                merged.push(page);
            }
            // Skip the whole equal-page run (later occurrences are dups).
            while k < cand.len() && cand[k].0 == page {
                k += 1;
            }
        }
        if !accepted_any {
            return; // nothing changed; keep the existing base/overlay split
        }
        // Drain the remaining existing entries.
        while let Some(v) = match (self.base.get(i), self.overlay.get(j)) {
            (Some(&a), Some(&b)) => Some(if a < b { a } else { b }),
            (Some(&a), None) => Some(a),
            (None, Some(&b)) => Some(b),
            (None, None) => None,
        } {
            merged.push(v);
            if self.base.get(i) == Some(&v) {
                i += 1;
            } else {
                j += 1;
            }
        }
        self.base.clear();
        self.base.extend_from_slice(merged);
        self.overlay.clear();
    }

    /// The pages in ascending id order.
    fn iter(&self) -> impl Iterator<Item = u32> + '_ {
        let mut i = 0;
        let mut j = 0;
        std::iter::from_fn(move || match (self.base.get(i), self.overlay.get(j)) {
            (Some(&a), Some(&b)) if a < b => {
                i += 1;
                Some(a)
            }
            (_, Some(&b)) => {
                j += 1;
                Some(b)
            }
            (Some(&a), None) => {
                i += 1;
                Some(a)
            }
            (None, None) => None,
        })
    }
}

/// `u32` values grouped by a `u32` key: `values` in (key, input) order,
/// one run per distinct key, runs in ascending key order.
struct Grouped {
    values: Vec<u32>,
    /// `(key, end)` per run; a run starts where the previous one ends.
    run_ends: Vec<(u32, u32)>,
}

impl Grouped {
    /// Group `(key, value)` items by key, keeping input order within a key.
    /// Values must increase along the input (batch positions and global
    /// record indices do), so both routes give the same runs: `dense`
    /// counting-sorts over `0..key_space`, whose work scales with the key
    /// space; otherwise the packed pairs are sorted, whose work scales with
    /// the input.
    fn new<I>(items: I, key_space: usize, dense: bool) -> Self
    where
        I: Iterator<Item = (u32, u32)> + Clone,
    {
        let mut run_ends = Vec::new();
        let values = if dense {
            let mut counts = vec![0u32; key_space + 1];
            for (key, _) in items.clone() {
                counts[key as usize + 1] += 1;
            }
            for i in 1..counts.len() {
                counts[i] += counts[i - 1];
            }
            let mut values = vec![0u32; counts[key_space] as usize];
            let mut cursor = counts.clone();
            for (key, value) in items {
                let c = &mut cursor[key as usize];
                values[*c as usize] = value;
                *c += 1;
            }
            drop(cursor);
            for key in 0..key_space {
                if counts[key + 1] > counts[key] {
                    run_ends.push((key as u32, counts[key + 1]));
                }
            }
            values
        } else {
            let mut packed: Vec<u64> = items
                .map(|(key, value)| (u64::from(key) << 32) | u64::from(value))
                .collect();
            packed.sort_unstable();
            let mut end = 0u32;
            for run in packed.chunk_by(|a, b| a >> 32 == b >> 32) {
                end += run.len() as u32;
                run_ends.push(((run[0] >> 32) as u32, end));
            }
            packed.iter().map(|&kv| kv as u32).collect()
        };
        Grouped { values, run_ends }
    }

    /// Each run's key and values.
    fn runs(&self) -> impl Iterator<Item = (u32, &[u32])> + '_ {
        let mut start = 0;
        self.run_ends.iter().map(move |&(key, end)| {
            let run = &self.values[start..end as usize];
            start = end as usize;
            (key, run)
        })
    }
}

/// The append-only like ledger with both-side indexes. See the module docs
/// for the sharded, bit-packed struct-of-arrays layout.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct LikeLedger {
    users: Vec<UserId>,
    pages: Vec<PageId>,
    times: Vec<SimTime>,
    by_user: Vec<PostingList>,
    user_pages: Vec<UserPages>,
    shards: Vec<Shard>,
    n_pages: usize,
}

impl LikeLedger {
    /// An empty ledger sized for `users` and `pages`.
    pub fn new(users: usize, pages: usize) -> Self {
        let mut ledger = LikeLedger {
            by_user: vec![PostingList::new(); users],
            user_pages: vec![UserPages::default(); users],
            ..LikeLedger::default()
        };
        ledger.grow_shards(pages);
        ledger
    }

    /// Grow the user side.
    pub fn ensure_users(&mut self, n: usize) {
        if n > self.by_user.len() {
            self.by_user.resize(n, PostingList::new());
            self.user_pages.resize(n, UserPages::default());
        }
    }

    /// Grow the page side.
    pub fn ensure_pages(&mut self, n: usize) {
        self.grow_shards(n);
    }

    /// Size the shard list (and the tail shard's posting lists) for `n`
    /// pages.
    fn grow_shards(&mut self, n: usize) {
        if n <= self.n_pages {
            return;
        }
        self.n_pages = n;
        let shard_count = n.div_ceil(SHARD_PAGES);
        self.shards.resize_with(shard_count, Shard::default);
        for (s, shard) in self.shards.iter_mut().enumerate() {
            let covered = (n - s * SHARD_PAGES).min(SHARD_PAGES);
            if covered > shard.by_page.len() {
                shard.by_page.resize(covered, PostingList::new());
            }
        }
    }

    /// Record a like at time `at`. Duplicate (user, page) likes are ignored.
    /// Returns true when the like was new.
    ///
    /// Arrival order need not be chronological — farm accounts created
    /// mid-study backfill their camouflage histories with past timestamps.
    /// Use the `*_sorted` accessors when time order matters.
    pub fn record(&mut self, user: UserId, page: PageId, at: SimTime) -> bool {
        if !self.user_pages[user.idx()].insert(page.0) {
            return false;
        }
        let idx = self.users.len() as u32;
        self.users.push(user);
        self.pages.push(page);
        self.times.push(at);
        self.by_user[user.idx()].push(idx);
        self.shards[page.idx() / SHARD_PAGES].by_page[page.idx() % SHARD_PAGES].push(idx);
        true
    }

    /// Bulk-record a batch of likes. Returns how many were new (duplicates
    /// — within the batch or against history — are ignored, first
    /// occurrence wins, exactly as if each item had gone through
    /// [`record`][Self::record] in order).
    ///
    /// The result is byte-identical for every `exec`: acceptance and global
    /// order are decided by a sequential dedup/append pass, and each
    /// posting list's content is fully determined by the global order.
    /// `exec` only spreads a large batch's per-shard page grouping over
    /// workers. This is the one ingestion path: synthesis, the event
    /// loop's coalesced like runs and log replay all land here.
    pub fn ingest_columns(&mut self, batch: &LikeColumns, exec: Exec) -> usize {
        // A positional `record` loop pays several random-memory touches per
        // item (membership probe, overlay memmove, posting push into a cold
        // list) — the dominant cost of synthesis at scale. Instead, group
        // the batch by user once, make the same accept/reject decisions
        // per user via a sort-merge against the existing page set, then
        // assign global indices in one linear pass over the original order.
        //
        // Decision equivalence: `record` accepts an item iff its (user,
        // page) pair is not in history and no earlier batch item claimed
        // it. Grouping by user partitions the problem; within a user,
        // sorting (page, batch position) makes duplicates adjacent with the
        // earliest position first, which is exactly the occurrence the
        // positional loop would have accepted. Global record order is
        // decided by the final positional pass, so it is byte-identical.
        let (b_users, b_pages, b_times) = (&batch.users, &batch.pages, &batch.times);
        assert_eq!(b_users.len(), b_pages.len(), "ragged like columns");
        assert_eq!(b_users.len(), b_times.len(), "ragged like columns");
        let n = b_users.len();
        if n == 0 {
            return 0;
        }
        // Only the two grouping steps depend on the batch size. Batches far
        // smaller than the account table (the event loop's coalesced runs)
        // group by sorting, so their work scales with the batch; larger
        // ones (synthesis) counting-sort over the account table and group
        // pages per shard through `exec`.
        let dense = n >= self.by_user.len() / 8;
        // Batch positions grouped by user, in batch order within a user.
        // Only the 4-byte user column streams through this pass.
        let by_user = Grouped::new(
            b_users.iter().zip(0u32..).map(|(user, pos)| (user.0, pos)),
            self.by_user.len(),
            dense,
        );
        // Per-user dedup against history + within the batch.
        let mut accept = vec![false; n];
        let mut cand: Vec<(u32, u32)> = Vec::new();
        let mut merged: Vec<u32> = Vec::new();
        for (user, positions) in by_user.runs() {
            cand.clear();
            cand.extend(positions.iter().map(|&pos| (b_pages[pos as usize].0, pos)));
            cand.sort_unstable();
            self.user_pages[user as usize].absorb_sorted(&cand, &mut accept, &mut merged);
        }
        // Positional pass: append accepted records to the columns in batch
        // order. When nothing was rejected — the overwhelming synthesis
        // case, since draws dedup pages per user up front — each column is
        // one memcpy and every global index is just `start + position`.
        let start = self.users.len() as u32;
        let all_accepted = accept.iter().all(|&a| a);
        let mut global_idx: Vec<u32> = Vec::new();
        if all_accepted {
            self.users.extend_from_slice(b_users);
            self.pages.extend_from_slice(b_pages);
            self.times.extend_from_slice(b_times);
        } else {
            global_idx = vec![u32::MAX; n];
            let mut next = start;
            for i in 0..n {
                if !accept[i] {
                    continue;
                }
                self.users.push(b_users[i]);
                self.pages.push(b_pages[i]);
                self.times.push(b_times[i]);
                global_idx[i] = next;
                next += 1;
            }
        }
        let accepted = self.users.len() - start as usize;
        // Per-user posting extends: batch order within a user means the
        // accepted global indices come out strictly increasing.
        let mut idxs: Vec<u32> = Vec::new();
        for (user, positions) in by_user.runs() {
            idxs.clear();
            if all_accepted {
                idxs.extend(positions.iter().map(|&pos| start + pos));
            } else {
                idxs.extend(positions.iter().filter_map(|&pos| {
                    let g = global_idx[pos as usize];
                    (g != u32::MAX).then_some(g)
                }));
            }
            if !idxs.is_empty() {
                self.by_user[user as usize].extend_from_increasing(&idxs);
            }
        }
        drop(by_user);
        drop(global_idx);
        drop(accept);
        // Group the appended records by page. Each run keeps global order,
        // so it extends its posting list directly.
        let new_pages = &self.pages[start as usize..];
        if dense {
            // Split the tail per shard with one flat counting sort (stable,
            // so each shard's pairs keep global order), then group each
            // shard's (local page, index) pairs in parallel.
            let n_shards = self.shards.len();
            let mut shard_counts = vec![0u32; n_shards + 1];
            for &page in new_pages {
                shard_counts[page.idx() / SHARD_PAGES + 1] += 1;
            }
            for i in 1..shard_counts.len() {
                shard_counts[i] += shard_counts[i - 1];
            }
            let mut flat_pairs: Vec<(u32, u32)> = vec![(0, 0); accepted];
            let mut cursor = shard_counts.clone();
            for (&page, g) in new_pages.iter().zip(start..) {
                let c = &mut cursor[page.idx() / SHARD_PAGES];
                flat_pairs[*c as usize] = ((page.idx() % SHARD_PAGES) as u32, g);
                *c += 1;
            }
            drop(cursor);
            let per_shard: Vec<&[(u32, u32)]> = (0..n_shards)
                .map(|s| &flat_pairs[shard_counts[s] as usize..shard_counts[s + 1] as usize])
                .collect();
            let widths: Vec<usize> = self.shards.iter().map(|s| s.by_page.len()).collect();
            let grouped = parallel_map(exec, &per_shard, |s, pairs| {
                Grouped::new(pairs.iter().copied(), widths[s], true)
            });
            for (shard, by_page) in self.shards.iter_mut().zip(grouped) {
                for (local, idxs) in by_page.runs() {
                    shard.by_page[local as usize].extend_from_increasing(idxs);
                }
            }
        } else {
            let by_page = Grouped::new(
                new_pages.iter().zip(start..).map(|(page, g)| (page.0, g)),
                self.n_pages,
                false,
            );
            for (page, idxs) in by_page.runs() {
                let page = page as usize;
                self.shards[page / SHARD_PAGES].by_page[page % SHARD_PAGES]
                    .extend_from_increasing(idxs);
            }
        }
        accepted
    }

    /// Total number of likes ever recorded.
    pub fn len(&self) -> usize {
        self.users.len()
    }

    /// True when no like was recorded.
    pub fn is_empty(&self) -> bool {
        self.users.is_empty()
    }

    /// True when `user` likes `page` (membership query).
    pub fn likes_page(&self, user: UserId, page: PageId) -> bool {
        self.user_pages
            .get(user.idx())
            .map(|up| {
                up.base.binary_search(&page.0).is_ok() || up.overlay.binary_search(&page.0).is_ok()
            })
            .unwrap_or(false)
    }

    /// The pages `user` likes, in ascending page-id order (allocation-free).
    pub fn user_pages(&self, user: UserId) -> impl Iterator<Item = PageId> + '_ {
        self.user_pages[user.idx()].iter().map(PageId)
    }

    /// Number of page-range index shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Assemble the record at a global index.
    fn record_at(&self, idx: u32) -> LikeRecord {
        let i = idx as usize;
        LikeRecord {
            user: self.users[i],
            page: self.pages[i],
            at: self.times[i],
        }
    }

    /// Like records of a page, in arrival order.
    pub fn of_page(&self, page: PageId) -> impl Iterator<Item = LikeRecord> + '_ {
        self.shards[page.idx() / SHARD_PAGES].by_page[page.idx() % SHARD_PAGES]
            .iter()
            .map(move |i| self.record_at(i))
    }

    /// Like records of a page, sorted by time (stable on arrival order).
    pub fn of_page_sorted(&self, page: PageId) -> Vec<LikeRecord> {
        let mut v: Vec<LikeRecord> = self.of_page(page).collect();
        v.sort_by_key(|r| r.at);
        v
    }

    /// Like records of a user, sorted by time (stable on arrival order).
    pub fn of_user_sorted(&self, user: UserId) -> Vec<LikeRecord> {
        let mut v: Vec<LikeRecord> = self.of_user(user).collect();
        v.sort_by_key(|r| r.at);
        v
    }

    /// Like records of a user, in recording order.
    pub fn of_user(&self, user: UserId) -> impl Iterator<Item = LikeRecord> + '_ {
        self.by_user[user.idx()]
            .iter()
            .map(move |i| self.record_at(i))
    }

    /// Like timestamps of a user, in recording order (reads only the time
    /// column — the anti-fraud sweep's burstiness feature walks this for
    /// every account without assembling records).
    pub fn user_times(&self, user: UserId) -> impl Iterator<Item = SimTime> + '_ {
        self.by_user[user.idx()]
            .iter()
            .map(move |i| self.times[i as usize])
    }

    /// Like timestamps of a page, in arrival order (time column only).
    pub fn page_times(&self, page: PageId) -> impl Iterator<Item = SimTime> + '_ {
        self.shards[page.idx() / SHARD_PAGES].by_page[page.idx() % SHARD_PAGES]
            .iter()
            .map(move |i| self.times[i as usize])
    }

    /// The users liking a page, in arrival order (user column only — the
    /// poll snapshot and the audience report need no other field).
    pub fn page_users(&self, page: PageId) -> impl Iterator<Item = UserId> + '_ {
        self.shards[page.idx() / SHARD_PAGES].by_page[page.idx() % SHARD_PAGES]
            .iter()
            .map(move |i| self.users[i as usize])
    }

    /// `(user, timestamp)` pairs of a page's likes, in arrival order (two
    /// column reads, no record assembly).
    pub fn page_user_times(&self, page: PageId) -> impl Iterator<Item = (UserId, SimTime)> + '_ {
        self.shards[page.idx() / SHARD_PAGES].by_page[page.idx() % SHARD_PAGES]
            .iter()
            .map(move |i| (self.users[i as usize], self.times[i as usize]))
    }

    /// The user column from global index `start` on — the contiguous tail
    /// appended since an incremental consumer's last look.
    pub fn users_from(&self, start: u32) -> &[UserId] {
        &self.users[start as usize..]
    }

    /// The time column from global index `start` on.
    pub fn times_from(&self, start: u32) -> &[SimTime] {
        &self.times[start as usize..]
    }

    /// How many pages `user` likes.
    pub fn user_like_count(&self, user: UserId) -> usize {
        self.by_user[user.idx()].len()
    }

    /// How many users like `page`.
    pub fn page_like_count(&self, page: PageId) -> usize {
        self.shards[page.idx() / SHARD_PAGES].by_page[page.idx() % SHARD_PAGES].len()
    }

    /// All records, in global chronological (= insertion) order.
    pub fn records(&self) -> impl Iterator<Item = LikeRecord> + '_ {
        (0..self.users.len() as u32).map(move |i| self.record_at(i))
    }

    /// The records from global index `start` on, in insertion order — the
    /// tail appended since a caller's last look. Incremental consumers (the
    /// anti-fraud sweep) fold this instead of re-walking per-user streams.
    pub fn records_from(&self, start: u32) -> impl Iterator<Item = LikeRecord> + '_ {
        (start..self.users.len() as u32).map(move |i| self.record_at(i))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn u(i: u32) -> UserId {
        UserId(i)
    }
    fn p(i: u32) -> PageId {
        PageId(i)
    }
    fn t(d: u64) -> SimTime {
        SimTime::at_day(d)
    }

    #[test]
    fn record_and_query_both_sides() {
        let mut l = LikeLedger::new(3, 2);
        assert!(l.record(u(0), p(1), t(1)));
        assert!(l.record(u(2), p(1), t(2)));
        assert!(l.record(u(0), p(0), t(3)));
        assert_eq!(l.len(), 3);
        let page1: Vec<UserId> = l.of_page(p(1)).map(|r| r.user).collect();
        assert_eq!(page1, vec![u(0), u(2)]);
        let user0: Vec<PageId> = l.of_user(u(0)).map(|r| r.page).collect();
        assert_eq!(user0, vec![p(1), p(0)]);
        assert_eq!(l.user_like_count(u(0)), 2);
        assert_eq!(l.page_like_count(p(1)), 2);
        assert!(l.likes_page(u(2), p(1)));
        assert!(!l.likes_page(u(1), p(1)));
        assert_eq!(l.user_pages(u(0)).collect::<Vec<_>>(), vec![p(0), p(1)]);
    }

    #[test]
    fn duplicates_ignored() {
        let mut l = LikeLedger::new(1, 1);
        assert!(l.record(u(0), p(0), t(0)));
        assert!(!l.record(u(0), p(0), t(5)));
        assert_eq!(l.len(), 1);
        assert_eq!(l.of_page(p(0)).count(), 1);
    }

    #[test]
    fn chronological_page_stream() {
        let mut l = LikeLedger::new(10, 1);
        for i in 0..10 {
            l.record(u(i), p(0), t(u64::from(i)));
        }
        let times: Vec<u64> = l.of_page(p(0)).map(|r| r.at.day()).collect();
        assert_eq!(times, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn sorted_accessors_handle_backfill() {
        let mut l = LikeLedger::new(3, 2);
        l.record(u(0), p(0), t(9));
        l.record(u(0), p(1), t(2)); // backfilled history
        l.record(u(1), p(0), t(1)); // backfilled on same page
        let page0: Vec<u64> = l.of_page_sorted(p(0)).iter().map(|r| r.at.day()).collect();
        assert_eq!(page0, vec![1, 9]);
        let user0: Vec<u64> = l.of_user_sorted(u(0)).iter().map(|r| r.at.day()).collect();
        assert_eq!(user0, vec![2, 9]);
        let raw: Vec<u64> = l.user_times(u(0)).map(|t| t.day()).collect();
        assert_eq!(raw, vec![9, 2], "user_times is recording order");
    }

    #[test]
    fn growth_preserves_history() {
        let mut l = LikeLedger::new(1, 1);
        l.record(u(0), p(0), t(0));
        l.ensure_users(5);
        l.ensure_pages(5);
        l.record(u(4), p(4), t(1));
        assert_eq!(l.len(), 2);
        assert_eq!(l.user_like_count(u(0)), 1);
        assert_eq!(l.user_like_count(u(4)), 1);
    }

    #[test]
    fn empty_ledger() {
        let l = LikeLedger::new(2, 2);
        assert!(l.is_empty());
        assert_eq!(l.of_page(p(0)).count(), 0);
        assert_eq!(l.user_like_count(u(1)), 0);
    }

    #[test]
    fn growth_spans_multiple_shards() {
        let n = SHARD_PAGES * 2 + 10;
        let mut l = LikeLedger::new(3, 1);
        l.ensure_pages(n);
        assert_eq!(l.shard_count(), 3);
        let far = p(n as u32 - 1);
        assert!(l.record(u(2), far, t(4)));
        assert_eq!(l.page_like_count(far), 1);
        assert_eq!(l.of_page(far).next().unwrap().user, u(2));
    }

    #[test]
    fn heavy_user_membership_survives_overlay_merges() {
        // Enough inserts to trigger several overlay merges, in a scrambled
        // page order like the time-sorted synthesis batch produces.
        let n = 500u32;
        let mut l = LikeLedger::new(1, n as usize);
        for i in 0..n {
            let page = (i * 193) % n; // permutation of 0..n
            assert!(l.record(u(0), p(page), t(u64::from(i))));
        }
        assert_eq!(l.user_like_count(u(0)), n as usize);
        for page in 0..n {
            assert!(l.likes_page(u(0), p(page)));
            assert!(!l.record(u(0), p(page), t(999)), "dup accepted");
        }
        let pages: Vec<u32> = l.user_pages(u(0)).map(|p| p.0).collect();
        assert_eq!(pages, (0..n).collect::<Vec<_>>(), "sorted and complete");
    }

    #[test]
    fn sparse_small_batch_matches_sequential_record() {
        // Enough accounts that a small batch routes through the sparse
        // kernel (n < n_users / 8), with in-batch and historical dups.
        let n_users = 5_000;
        let n_pages = SHARD_PAGES + 50;
        let mut batch: Vec<(UserId, PageId, SimTime)> = Vec::new();
        for i in 0..200u32 {
            let page = (i * 91) % n_pages as u32;
            batch.push((u(i % 40), p(page), t(u64::from(i % 23))));
        }
        batch.push(batch[5]); // in-batch duplicate
        let mut by_record = LikeLedger::new(n_users, n_pages);
        by_record.record(u(3), p(17), t(1)); // pre-existing history
        let mut expected_new = 0usize;
        for &(user, page, at) in &batch {
            if by_record.record(user, page, at) {
                expected_new += 1;
            }
        }
        let mut by_batch = LikeLedger::new(n_users, n_pages);
        by_batch.record(u(3), p(17), t(1));
        let accepted = by_batch.ingest_columns(&LikeColumns::from_rows(&batch), Exec::Sequential);
        assert_eq!(accepted, expected_new);
        let a: Vec<LikeRecord> = by_batch.records().collect();
        let b: Vec<LikeRecord> = by_record.records().collect();
        assert_eq!(a, b, "global order differs");
        for page in 0..n_pages as u32 {
            let x: Vec<LikeRecord> = by_batch.of_page(p(page)).collect();
            let y: Vec<LikeRecord> = by_record.of_page(p(page)).collect();
            assert_eq!(x, y, "page {page} postings differ");
        }
        for user in 0..40 {
            let x: Vec<LikeRecord> = by_batch.of_user(u(user)).collect();
            let y: Vec<LikeRecord> = by_record.of_user(u(user)).collect();
            assert_eq!(x, y, "user {user} postings differ");
        }
    }

    #[test]
    fn ingest_columns_matches_sequential_record() {
        // Batch ingestion over several shards, with duplicates both inside
        // the batch and against pre-existing history.
        let n_pages = SHARD_PAGES + 50;
        let mut batch: Vec<(UserId, PageId, SimTime)> = Vec::new();
        for i in 0..400u32 {
            let page = (i * 37) % n_pages as u32;
            batch.push((u(i % 90), p(page), t(u64::from(i) % 40)));
        }
        batch.push(batch[3]); // in-batch duplicate
        batch.push((u(0), p(0), t(99)));

        let mut by_record = LikeLedger::new(90, n_pages);
        by_record.record(u(0), p(0), t(7)); // pre-existing like, dup below
        let mut expected_new = 0usize;
        for &(user, page, at) in &batch {
            if by_record.record(user, page, at) {
                expected_new += 1;
            }
        }

        for workers in [1usize, 3] {
            let mut by_batch = LikeLedger::new(90, n_pages);
            by_batch.record(u(0), p(0), t(7));
            let accepted =
                by_batch.ingest_columns(&LikeColumns::from_rows(&batch), Exec::workers(workers));
            assert_eq!(accepted, expected_new, "workers={workers}");
            assert_eq!(by_batch.len(), by_record.len());
            let a: Vec<LikeRecord> = by_batch.records().collect();
            let b: Vec<LikeRecord> = by_record.records().collect();
            assert_eq!(a, b, "global order differs (workers={workers})");
            for page in 0..n_pages as u32 {
                let x: Vec<LikeRecord> = by_batch.of_page(p(page)).collect();
                let y: Vec<LikeRecord> = by_record.of_page(p(page)).collect();
                assert_eq!(x, y, "page {page} postings differ");
            }
            for user in 0..90 {
                assert_eq!(
                    by_batch.user_like_count(u(user)),
                    by_record.user_like_count(u(user))
                );
            }
        }
    }
}

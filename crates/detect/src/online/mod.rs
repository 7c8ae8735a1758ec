//! Online (streaming) variants of the batch detectors, for the
//! `likelab serve` engine.
//!
//! Each batch detector in this crate is a pure function of world state; the
//! serve path instead sees an *event stream* and must answer queries while
//! ingest continues. The modules here hold per-detector incremental state
//! fed by [`DetectorUpdate`]s (the acceptance-filtered fanout from
//! [`likelab_osn::EventFanout`]) and promise the **online-vs-batch
//! equivalence contract** documented in `SERVING.md`:
//!
//! > At end-of-stream — and for burst/lockstep at *every* prefix — a query
//! > answered from online state is bitwise equal to the batch detector run
//! > on a world rebuilt from the same accepted events.
//!
//! How each detector honors it:
//!
//! - [`OnlineBurst`] keeps per-entity sorted timestamp vectors: in-order
//!   arrivals advance a two-pointer scan in O(1); backfills fall back to
//!   the batch sort-and-scan lazily at the next query.
//! - [`OnlineLockstep`] keeps the batch detector's bucket store live —
//!   one append-only `(window, user)` column per page — and runs the
//!   batch kernel ([`crate::lockstep::detect_from_buckets`]) over its
//!   buckets on demand. A report rescans every column, so query it at
//!   coarse cadence.
//! - [`OnlineSybilRank`] gates the exact batch power iteration behind a
//!   graph-delta dirty flag (no warm starts — they converge close, not
//!   equal).
//! - [`extract_online`] / [`score_online`] assemble the feature vector
//!   from the live world replica plus the online burst verdict.
//!
//! [`OnlineDetectors`] bundles all of the above behind a single
//! [`apply`](OnlineDetectors::apply) fanout.
//!
//! [`DetectorUpdate`]: likelab_osn::DetectorUpdate

mod burst;
mod features;
mod lockstep;
mod sybilrank;

pub use burst::OnlineBurst;
pub use features::{extract_online, score_online};
pub use lockstep::OnlineLockstep;
pub use sybilrank::{organic_seeds, OnlineSybilRank};

use crate::burst::BurstConfig;
use crate::lockstep::LockstepConfig;
use crate::sybilrank::SybilRankConfig;
use likelab_osn::DetectorUpdate;

/// The full online detector suite behind one update fanout.
///
/// Feed it every [`DetectorUpdate`] the event fanout emits; query the
/// individual detectors through the accessors. Updates that only change
/// world state the detectors read on demand (off-network counts,
/// termination status) are no-ops here — the world replica carries them.
///
/// ```
/// use likelab_detect::online::OnlineDetectors;
/// use likelab_detect::{BurstConfig, LockstepConfig, SybilRankConfig};
/// use likelab_graph::{PageId, UserId};
/// use likelab_osn::DetectorUpdate;
/// use likelab_sim::SimTime;
///
/// let mut suite = OnlineDetectors::new(
///     BurstConfig { min_events: 1, ..BurstConfig::default() },
///     LockstepConfig::default(),
///     SybilRankConfig::default(),
/// );
/// suite.apply(DetectorUpdate::LikeAccepted {
///     user: UserId(0),
///     page: PageId(0),
///     at: SimTime::at_day(1),
/// });
/// assert_eq!(suite.burst_mut().page_verdict(PageId(0)).events, 1);
/// assert!(suite.sybilrank().is_dirty());
/// ```
#[derive(Debug)]
pub struct OnlineDetectors {
    burst: OnlineBurst,
    lockstep: OnlineLockstep,
    sybil: OnlineSybilRank,
    updates_seen: usize,
}

impl OnlineDetectors {
    /// An empty suite with the given per-detector configurations.
    pub fn new(burst: BurstConfig, lockstep: LockstepConfig, sybil: SybilRankConfig) -> Self {
        OnlineDetectors {
            burst: OnlineBurst::new(burst),
            lockstep: OnlineLockstep::new(lockstep),
            sybil: OnlineSybilRank::new(sybil),
            updates_seen: 0,
        }
    }

    /// Route one fanout update to every detector that consumes it.
    pub fn apply(&mut self, update: DetectorUpdate) {
        self.updates_seen += 1;
        match update {
            DetectorUpdate::LikeAccepted { user, page, at } => {
                self.burst.record_like(user, page, at);
                self.lockstep.record_like(user, page, at);
            }
            DetectorUpdate::AccountAdded { .. } | DetectorUpdate::FriendshipAdded { .. } => {
                // Node and edge deltas invalidate trust propagation.
                self.sybil.mark_dirty();
            }
            DetectorUpdate::PageAdded { .. }
            | DetectorUpdate::OffNetworkChanged { .. }
            | DetectorUpdate::AccountTerminated { .. }
            | DetectorUpdate::AccountReinstated { .. } => {}
        }
    }

    /// Total updates routed through [`apply`](Self::apply).
    pub fn updates_seen(&self) -> usize {
        self.updates_seen
    }

    /// The online burst detector (queries need `&mut` for lazy re-sorts).
    pub fn burst_mut(&mut self) -> &mut OnlineBurst {
        &mut self.burst
    }

    /// The online lockstep detector.
    pub fn lockstep(&self) -> &OnlineLockstep {
        &self.lockstep
    }

    /// The online SybilRank detector, read-only.
    pub fn sybilrank(&self) -> &OnlineSybilRank {
        &self.sybil
    }

    /// The online SybilRank detector (refreshes need `&mut`).
    pub fn sybilrank_mut(&mut self) -> &mut OnlineSybilRank {
        &mut self.sybil
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use likelab_graph::{PageId, UserId};
    use likelab_sim::SimTime;

    #[test]
    fn updates_route_to_the_right_detectors() {
        let mut suite = OnlineDetectors::new(
            BurstConfig {
                min_events: 1,
                ..BurstConfig::default()
            },
            LockstepConfig::default(),
            SybilRankConfig::default(),
        );
        assert!(suite.sybilrank().is_dirty(), "dirty until first refresh");
        suite.apply(DetectorUpdate::AccountAdded { user: UserId(0) });
        suite.apply(DetectorUpdate::PageAdded { page: PageId(0) });
        suite.apply(DetectorUpdate::LikeAccepted {
            user: UserId(0),
            page: PageId(0),
            at: SimTime::at_day(2),
        });
        suite.apply(DetectorUpdate::AccountTerminated { user: UserId(0) });
        assert_eq!(suite.updates_seen(), 4);
        assert_eq!(suite.burst_mut().user_verdict(UserId(0)).events, 1);
        assert_eq!(suite.lockstep().likes_seen(), 1);
    }
}

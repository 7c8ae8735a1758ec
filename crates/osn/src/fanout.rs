//! Event → detector-update fanout: the bridge between a replayed
//! [`WorldEvent`] stream and incremental detectors.
//!
//! A batch detector reads the finished [`OsnWorld`]; an *online* detector
//! needs to know, per event, what actually changed. Events are not 1:1
//! with mutations: a [`WorldEvent::LikeBatch`] journals the *input* batch
//! verbatim, so some of its items may be duplicates or likes from
//! terminated accounts, and a [`WorldEvent::FriendshipBatch`] can carry
//! edges that already exist.
//!
//! [`EventFanout`] closes that gap. It owns a replica world and folds each
//! event through [`OsnWorld::apply_event_with`] — the one fold that replay
//! and checkpoint resume also run through [`OsnWorld::apply_event`], so
//! the replica is that fold's world by construction — which emits one
//! [`DetectorUpdate`] per **accepted** mutation. A `LikeBatch` takes the
//! ledger's batch kernel and reports the ledger tail it appended, which is
//! exactly the accepted likes in batch order. Rejected mutations emit
//! nothing, which is exactly the filtering the batch detectors get for
//! free by reading the final ledger.
//!
//! The fanout also tracks a *watermark* — the maximum event timestamp seen
//! so far — which online feature extraction uses as "now" (the batch path
//! is called with the study-end clock; at end-of-stream the watermark
//! equals it).

use crate::log::WorldEvent;
use crate::world::OsnWorld;
use likelab_graph::{PageId, UserId};
use likelab_sim::SimTime;

/// One accepted world mutation, in application order.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DetectorUpdate {
    /// A new account exists (dense id, so detectors can size arrays).
    AccountAdded {
        /// The new account's id.
        user: UserId,
    },
    /// A new page exists.
    PageAdded {
        /// The new page's id.
        page: PageId,
    },
    /// A like was accepted into the ledger (not a duplicate, liker active).
    LikeAccepted {
        /// Who liked.
        user: UserId,
        /// What they liked.
        page: PageId,
        /// When.
        at: SimTime,
    },
    /// A friendship edge was added (not previously present).
    FriendshipAdded {
        /// One endpoint.
        a: UserId,
        /// The other endpoint.
        b: UserId,
    },
    /// An account's off-network friend count changed.
    OffNetworkChanged {
        /// Whose count changed.
        user: UserId,
    },
    /// An active account was terminated.
    AccountTerminated {
        /// Who was terminated.
        user: UserId,
    },
    /// A terminated account was reinstated.
    AccountReinstated {
        /// Who came back.
        user: UserId,
    },
}

/// Applies [`WorldEvent`]s to an owned replica world and reports each
/// accepted mutation. See the module docs.
///
/// ```
/// use likelab_osn::fanout::{DetectorUpdate, EventFanout};
/// use likelab_osn::demographics::{Country, Gender, Profile};
/// use likelab_osn::page::PageCategory;
/// use likelab_osn::{ActorClass, OsnWorld, PrivacySettings, WorldEvent};
/// use likelab_sim::SimTime;
///
/// // Record a tiny world: one account, one page, the same like twice.
/// let mut world = OsnWorld::new();
/// world.set_recording(true);
/// let profile = Profile {
///     gender: Gender::Female,
///     age: 31,
///     country: Country::Usa,
///     home_region: 0,
/// };
/// let privacy = PrivacySettings {
///     friend_list_public: true,
///     likes_public: true,
///     searchable: true,
/// };
/// let user = world.create_account(profile, ActorClass::Organic, privacy, SimTime::EPOCH);
/// let page = world.create_page("p", "", None, PageCategory::Background, SimTime::EPOCH);
/// world.record_like(user, page, SimTime::at_day(1));
/// world.record_like(user, page, SimTime::at_day(2)); // duplicate: rejected
/// let events = world.drain_events();
///
/// // Fan the recorded stream out: the duplicate emits no update.
/// let mut fanout = EventFanout::new();
/// let mut likes = 0;
/// for ev in &events {
///     fanout.apply(ev, |u| {
///         if matches!(u, DetectorUpdate::LikeAccepted { .. }) {
///             likes += 1;
///         }
///     });
/// }
/// assert_eq!(likes, 1);
/// assert_eq!(fanout.world().likes().len(), 1);
/// ```
#[derive(Debug, Default)]
pub struct EventFanout {
    world: OsnWorld,
    watermark: SimTime,
}

impl EventFanout {
    /// A fanout over a fresh, empty replica world.
    pub fn new() -> Self {
        EventFanout::default()
    }

    /// The replica world (read-only; every mutation goes through
    /// [`apply`](Self::apply)).
    pub fn world(&self) -> &OsnWorld {
        &self.world
    }

    /// The maximum event timestamp applied so far — online "now".
    pub fn watermark(&self) -> SimTime {
        self.watermark
    }

    /// Apply one event to the replica world and hand every accepted
    /// mutation to `sink`, in application order.
    pub fn apply(&mut self, ev: &WorldEvent, sink: impl FnMut(DetectorUpdate)) {
        if let Some(at) = event_time(ev) {
            self.watermark = self.watermark.max(at);
        }
        self.world.apply_event_with(ev, sink);
    }

    /// Apply a whole event slice, collecting the updates.
    pub fn apply_all(&mut self, events: &[WorldEvent]) -> Vec<DetectorUpdate> {
        let mut out = Vec::new();
        for ev in events {
            self.apply(ev, |u| out.push(u));
        }
        out
    }
}

/// The latest timestamp an event carries, accepted or not (events without
/// one, such as friendships, leave the watermark alone).
fn event_time(ev: &WorldEvent) -> Option<SimTime> {
    match ev {
        WorldEvent::AccountCreated { at, .. }
        | WorldEvent::PageCreated { at, .. }
        | WorldEvent::Like { at, .. }
        | WorldEvent::Terminated { at, .. } => Some(*at),
        WorldEvent::LikeBatch { likes } => likes.iter().map(|&(_, _, at)| at).max(),
        WorldEvent::Friendship { .. }
        | WorldEvent::FriendshipBatch { .. }
        | WorldEvent::OffNetworkFriends { .. }
        | WorldEvent::Reinstated { .. } => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::account::{ActorClass, PrivacySettings};
    use crate::demographics::{Country, Gender, Profile};
    use crate::likes::LikeColumns;
    use crate::page::PageCategory;
    use likelab_sim::Exec;

    fn profile() -> Profile {
        Profile {
            gender: Gender::Male,
            age: 24,
            country: Country::India,
            home_region: 1,
        }
    }

    fn privacy() -> PrivacySettings {
        PrivacySettings {
            friend_list_public: true,
            likes_public: true,
            searchable: true,
        }
    }

    fn seeded_events() -> Vec<WorldEvent> {
        let mut w = OsnWorld::new();
        w.set_recording(true);
        let users: Vec<UserId> = (0..6)
            .map(|i| {
                w.create_account(
                    profile(),
                    if i < 4 {
                        ActorClass::Organic
                    } else {
                        ActorClass::Bot(0)
                    },
                    privacy(),
                    SimTime::at_day(i),
                )
            })
            .collect();
        let pages: Vec<PageId> = (0..2)
            .map(|i| {
                w.create_page(
                    format!("p{i}"),
                    "",
                    None,
                    PageCategory::Background,
                    SimTime::EPOCH,
                )
            })
            .collect();
        w.add_friendship(users[0], users[1]);
        w.add_friendship(users[0], users[1]); // duplicate edge: rejected
        w.generate_friendships(|g| {
            let mut added = Vec::new();
            for &(a, b) in &[(users[1], users[2]), (users[0], users[1])] {
                if g.add_edge(a, b) {
                    added.push((a, b));
                }
            }
            added
        });
        w.set_off_network_friends(users[3], 40);
        w.record_like(users[0], pages[0], SimTime::at_day(7));
        w.record_like(users[0], pages[0], SimTime::at_day(8)); // dup: rejected
        w.ingest_like_columns(
            &LikeColumns::from_rows(&[
                (users[1], pages[0], SimTime::at_day(7)),
                (users[1], pages[0], SimTime::at_day(7)), // in-batch dup
                (users[2], pages[1], SimTime::at_day(9)),
            ]),
            Exec::Sequential,
        );
        w.terminate_account(users[4], SimTime::at_day(10));
        w.terminate_account(users[4], SimTime::at_day(11)); // idempotent
        w.record_like(users[4], pages[1], SimTime::at_day(12)); // dead: rejected

        // Journaled verbatim, so the fold must re-filter both rejections.
        w.ingest_like_columns(
            &LikeColumns::from_rows(&[
                (users[4], pages[0], SimTime::at_day(13)), // dead: rejected
                (users[3], pages[1], SimTime::at_day(13)),
                (users[2], pages[1], SimTime::at_day(13)), // dup of history
            ]),
            Exec::Sequential,
        );
        w.reinstate_account(users[4]);
        w.reinstate_account(users[4]); // idempotent: rejected
        w.drain_events()
    }

    #[test]
    fn replica_matches_apply_event_fold() {
        let events = seeded_events();
        let mut folded = OsnWorld::new();
        for ev in &events {
            folded.apply_event(ev);
        }
        let mut fanout = EventFanout::new();
        fanout.apply_all(&events);
        let replica = fanout.world();

        assert_eq!(replica.account_count(), folded.account_count());
        assert_eq!(replica.page_count(), folded.page_count());
        assert_eq!(replica.likes().len(), folded.likes().len());
        assert_eq!(
            replica.friends().edge_count(),
            folded.friends().edge_count()
        );
        let a: Vec<_> = replica.likes().records().collect();
        let b: Vec<_> = folded.likes().records().collect();
        assert_eq!(a, b, "ledger order must match the fold");
        for u in replica.user_ids() {
            assert_eq!(replica.is_active(u), folded.is_active(u));
            assert_eq!(replica.total_friend_count(u), folded.total_friend_count(u));
        }
    }

    #[test]
    fn only_accepted_mutations_emit_updates() {
        let events = seeded_events();
        let mut fanout = EventFanout::new();
        let updates = fanout.apply_all(&events);
        let count = |f: fn(&DetectorUpdate) -> bool| updates.iter().filter(|u| f(u)).count();

        // The recorder already filters rejected singleton mutations out of
        // the stream; what this asserts is that the verbatim-journaled
        // LikeBatches (an in-batch duplicate, then a terminated liker and a
        // duplicate of history) are re-filtered by the fanout: 4 accepted
        // likes from 7 batch+single attempts.
        assert_eq!(
            count(|u| matches!(u, DetectorUpdate::AccountAdded { .. })),
            6
        );
        assert_eq!(count(|u| matches!(u, DetectorUpdate::PageAdded { .. })), 2);
        assert_eq!(
            count(|u| matches!(u, DetectorUpdate::FriendshipAdded { .. })),
            2
        );
        assert_eq!(
            count(|u| matches!(u, DetectorUpdate::LikeAccepted { .. })),
            4
        );
        assert_eq!(
            count(|u| matches!(u, DetectorUpdate::AccountTerminated { .. })),
            1
        );
        assert_eq!(
            count(|u| matches!(u, DetectorUpdate::AccountReinstated { .. })),
            1
        );
        assert_eq!(
            count(|u| matches!(u, DetectorUpdate::OffNetworkChanged { .. })),
            1
        );
    }

    #[test]
    fn watermark_tracks_the_maximum_event_time() {
        let events = seeded_events();
        let mut fanout = EventFanout::new();
        assert_eq!(fanout.watermark(), SimTime::EPOCH);
        fanout.apply_all(&events);
        // The rejected day-11/12 singletons never reached the journal, but
        // the day-13 batch did: a journaled batch advances the watermark
        // even through the likes the fold rejects.
        assert_eq!(fanout.watermark(), SimTime::at_day(13));
    }
}

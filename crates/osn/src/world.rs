//! The platform state: accounts, pages, friendships, likes — one world.
//!
//! `OsnWorld` is the single mutable state every other subsystem operates on.
//! Farms create accounts in it, the ad engine records likes into it, the
//! crawler reads privacy-filtered views of it, anti-fraud terminates
//! accounts in it.
//!
//! Accounts live in a columnar [`AccountStore`] (struct-of-arrays with an
//! interned demographics table); [`OsnWorld::account`] assembles the full
//! [`Account`] view by value, and hot paths that need a single column go
//! through [`OsnWorld::profile`] / the store accessors directly.

use crate::account::{Account, ActorClass, PrivacySettings};
use crate::demographics::Profile;
use crate::fanout::DetectorUpdate;
use crate::likes::{LikeColumns, LikeLedger};
use crate::log::{Recorder, WorldEvent};
use crate::page::{Page, PageCategory};
use crate::store::AccountStore;
use likelab_graph::{FriendGraph, PageId, UserId};
use likelab_sim::parallel::Exec;
use likelab_sim::SimTime;

/// The simulated platform.
#[derive(Clone, Debug, Default)]
pub struct OsnWorld {
    accounts: AccountStore,
    pages: Vec<Page>,
    friends: FriendGraph,
    ledger: LikeLedger,
    recorder: Recorder,
}

impl OsnWorld {
    /// An empty world.
    pub fn new() -> Self {
        OsnWorld::default()
    }

    // ----- event recording ----------------------------------------------

    /// Turn mutation recording on or off. While on, every accepted
    /// mutation buffers one [`WorldEvent`]; drain the buffer with
    /// [`drain_events`][Self::drain_events]. Off by default.
    pub fn set_recording(&mut self, on: bool) {
        self.recorder.set_enabled(on);
    }

    /// Whether mutation recording is currently on.
    pub fn recording(&self) -> bool {
        self.recorder.enabled()
    }

    /// Take the buffered events, leaving the buffer empty.
    pub fn drain_events(&mut self) -> Vec<WorldEvent> {
        self.recorder.drain()
    }

    /// Apply a replayed event to this world. Applies the same validation
    /// the original mutation did (so rejected duplicates stay rejected) and
    /// never records, even when recording is on — replaying a log must not
    /// re-log it.
    pub fn apply_event(&mut self, ev: &WorldEvent) {
        self.apply_event_with(ev, |_| {});
    }

    /// [`apply_event`][Self::apply_event], handing every **accepted**
    /// mutation to `sink` in application order. This is the one fold of the
    /// event vocabulary: replay, checkpoint resume and the serve fanout
    /// (see [`crate::fanout`]) all go through it.
    pub fn apply_event_with(&mut self, ev: &WorldEvent, mut sink: impl FnMut(DetectorUpdate)) {
        let was_recording = self.recorder.enabled();
        self.recorder.set_enabled(false);
        match ev {
            WorldEvent::AccountCreated {
                profile,
                class,
                privacy,
                at,
            } => {
                let user = self.create_account(*profile, *class, *privacy, *at);
                sink(DetectorUpdate::AccountAdded { user });
            }
            WorldEvent::PageCreated {
                name,
                description,
                owner,
                category,
                at,
            } => {
                let page =
                    self.create_page(name.clone(), description.clone(), *owner, *category, *at);
                sink(DetectorUpdate::PageAdded { page });
            }
            WorldEvent::Friendship { a, b } => {
                if self.add_friendship(*a, *b) {
                    sink(DetectorUpdate::FriendshipAdded { a: *a, b: *b });
                }
            }
            WorldEvent::FriendshipBatch { edges } => {
                for &(a, b) in edges {
                    if self.friends.add_edge(a, b) {
                        sink(DetectorUpdate::FriendshipAdded { a, b });
                    }
                }
            }
            WorldEvent::OffNetworkFriends { user, n } => {
                self.set_off_network_friends(*user, *n);
                sink(DetectorUpdate::OffNetworkChanged { user: *user });
            }
            WorldEvent::Like { user, page, at } => {
                if self.record_like(*user, *page, *at) {
                    sink(DetectorUpdate::LikeAccepted {
                        user: *user,
                        page: *page,
                        at: *at,
                    });
                }
            }
            WorldEvent::LikeBatch { likes } => {
                // The journal carries the *input* batch; the ledger appends
                // exactly the accepted likes, in batch order, so its new
                // tail is the accepted stream.
                let start = self.ledger.len() as u32;
                self.ingest_like_columns(&LikeColumns::from_rows(likes), Exec::Sequential);
                for r in self.ledger.records_from(start) {
                    sink(DetectorUpdate::LikeAccepted {
                        user: r.user,
                        page: r.page,
                        at: r.at,
                    });
                }
            }
            WorldEvent::Terminated { user, at } => {
                if self.terminate_account(*user, *at) {
                    sink(DetectorUpdate::AccountTerminated { user: *user });
                }
            }
            WorldEvent::Reinstated { user } => {
                if self.reinstate_account(*user) {
                    sink(DetectorUpdate::AccountReinstated { user: *user });
                }
            }
        }
        self.recorder.set_enabled(was_recording);
    }

    // ----- accounts -----------------------------------------------------

    /// Create an account and return its id.
    pub fn create_account(
        &mut self,
        profile: Profile,
        class: ActorClass,
        privacy: PrivacySettings,
        created_at: SimTime,
    ) -> UserId {
        let id = self.accounts.push(profile, class, privacy, created_at);
        self.friends.ensure_nodes(self.accounts.len());
        self.ledger.ensure_users(self.accounts.len());
        self.recorder.push_with(|| WorldEvent::AccountCreated {
            profile,
            class,
            privacy,
            at: created_at,
        });
        id
    }

    /// The account record, assembled by value from the columnar store.
    ///
    /// # Panics
    /// Panics on an unknown id.
    pub fn account(&self, id: UserId) -> Account {
        self.accounts.get(id)
    }

    /// The demographic profile alone — the audience-aggregation hot path
    /// (skips assembling the full [`Account`] view).
    pub fn profile(&self, id: UserId) -> Profile {
        self.accounts.profile(id)
    }

    /// True while the account is active (status column only).
    pub fn is_active(&self, id: UserId) -> bool {
        self.accounts.is_active(id)
    }

    /// Creation time alone (columnar; skips assembling the full account).
    pub fn created_at(&self, id: UserId) -> SimTime {
        self.accounts.created_at(id)
    }

    /// The columnar account store (read-only), for aggregations that want
    /// direct column access.
    pub fn account_store(&self) -> &AccountStore {
        &self.accounts
    }

    /// Number of accounts ever created (including terminated).
    pub fn account_count(&self) -> usize {
        self.accounts.len()
    }

    /// All account ids.
    pub fn user_ids(&self) -> impl Iterator<Item = UserId> + '_ {
        (0..self.accounts.len() as u32).map(UserId)
    }

    /// Set the count of friends beyond the simulated window (see
    /// [`Account::off_network_friends`]).
    pub fn set_off_network_friends(&mut self, id: UserId, n: u32) {
        self.accounts.set_off_network_friends(id, n);
        self.recorder
            .push_with(|| WorldEvent::OffNetworkFriends { user: id, n });
    }

    /// Total friend count as the profile reports it: in-world degree plus
    /// off-network friends.
    pub fn total_friend_count(&self, id: UserId) -> usize {
        self.friends.degree(id) + self.accounts.off_network_friends(id) as usize
    }

    /// Terminate an account (idempotent; the first termination time wins).
    /// Returns true when the account was active.
    pub fn terminate_account(&mut self, id: UserId, at: SimTime) -> bool {
        let accepted = self.accounts.terminate(id, at);
        if accepted {
            self.recorder
                .push_with(|| WorldEvent::Terminated { user: id, at });
        }
        accepted
    }

    /// Reinstate a terminated account (the appeal path); its likes become
    /// visible again. Returns true when the account was terminated.
    pub fn reinstate_account(&mut self, id: UserId) -> bool {
        let accepted = self.accounts.reinstate(id);
        if accepted {
            self.recorder
                .push_with(|| WorldEvent::Reinstated { user: id });
        }
        accepted
    }

    // ----- pages ---------------------------------------------------------

    /// Create a page and return its id.
    pub fn create_page(
        &mut self,
        name: impl Into<String>,
        description: impl Into<String>,
        owner: Option<UserId>,
        category: PageCategory,
        created_at: SimTime,
    ) -> PageId {
        let id = PageId(self.pages.len() as u32);
        let name = name.into();
        let description = description.into();
        self.recorder.push_with(|| WorldEvent::PageCreated {
            name: name.clone(),
            description: description.clone(),
            owner,
            category,
            at: created_at,
        });
        self.pages.push(Page {
            id,
            name,
            description,
            owner,
            created_at,
            category,
        });
        self.ledger.ensure_pages(self.pages.len());
        id
    }

    /// The page record.
    pub fn page(&self, id: PageId) -> &Page {
        &self.pages[id.idx()]
    }

    /// Number of pages.
    pub fn page_count(&self) -> usize {
        self.pages.len()
    }

    /// All page ids.
    pub fn page_ids(&self) -> impl Iterator<Item = PageId> + '_ {
        (0..self.pages.len() as u32).map(PageId)
    }

    // ----- friendships ---------------------------------------------------

    /// Befriend two accounts. Returns true when the edge was new.
    pub fn add_friendship(&mut self, a: UserId, b: UserId) -> bool {
        let added = self.friends.add_edge(a, b);
        if added {
            self.recorder.push_with(|| WorldEvent::Friendship { a, b });
        }
        added
    }

    /// Run a bulk friendship generator against the graph and journal the
    /// edges it reports as one [`WorldEvent::FriendshipBatch`]. The closure
    /// must return exactly the edges it added, in insertion order — the
    /// graph generators (`chung_lu`, `pairs_and_triplets`) do.
    ///
    /// This is the sanctioned path for bulk wiring; mutating the graph
    /// behind the world's back would leave holes in the event log (the
    /// `log-bypass` lint flags that).
    pub fn generate_friendships<F>(&mut self, f: F) -> Vec<(UserId, UserId)>
    where
        F: FnOnce(&mut FriendGraph) -> Vec<(UserId, UserId)>,
    {
        let edges = f(&mut self.friends);
        if !edges.is_empty() {
            self.recorder.push_with(|| WorldEvent::FriendshipBatch {
                edges: edges.clone(),
            });
        }
        edges
    }

    /// The friendship graph (read-only).
    pub fn friends(&self) -> &FriendGraph {
        &self.friends
    }

    /// Mutable friendship graph, for bulk generators.
    ///
    /// Prefer [`generate_friendships`][Self::generate_friendships]: edges
    /// added through this escape hatch are invisible to the event log.
    pub fn friends_mut(&mut self) -> &mut FriendGraph {
        &mut self.friends
    }

    // ----- likes -----------------------------------------------------------

    /// Record a like. Likes by terminated accounts are rejected.
    /// Returns true when the like was new and accepted.
    pub fn record_like(&mut self, user: UserId, page: PageId, at: SimTime) -> bool {
        if !self.accounts.is_active(user) {
            return false;
        }
        let accepted = self.ledger.record(user, page, at);
        if accepted {
            self.recorder
                .push_with(|| WorldEvent::Like { user, page, at });
        }
        accepted
    }

    /// Bulk-record likes through the ledger's batch kernel (see
    /// [`LikeLedger::ingest_columns`]). Likes by terminated accounts are
    /// rejected, duplicates ignored; returns how many were new and accepted.
    /// Byte-identical outcome for every `exec`, and identical to calling
    /// [`record_like`][Self::record_like] per item in order. Journals one
    /// [`WorldEvent::LikeBatch`] in row form.
    pub fn ingest_like_columns(&mut self, batch: &LikeColumns, exec: Exec) -> usize {
        // The *input* batch is journaled verbatim; replay re-applies the
        // same active-account filter against identical state.
        if !batch.is_empty() {
            self.recorder.push_with(|| WorldEvent::LikeBatch {
                likes: batch.rows().collect(),
            });
        }
        if batch.users.iter().all(|&u| self.accounts.is_active(u)) {
            // Synthesis-time fast path: nobody is terminated yet, ingest the
            // batch without copying it.
            // lint:allow(log-bypass): the LikeBatch above journals this batch
            self.ledger.ingest_columns(batch, exec)
        } else {
            let mut alive = LikeColumns::with_capacity(batch.len());
            for (user, page, at) in batch.rows() {
                if self.accounts.is_active(user) {
                    alive.push(user, page, at);
                }
            }
            // lint:allow(log-bypass): the LikeBatch above journals the unfiltered batch
            self.ledger.ingest_columns(&alive, exec)
        }
    }

    /// The like ledger (read-only).
    pub fn likes(&self) -> &LikeLedger {
        &self.ledger
    }

    /// Current *visible* likers of a page: active accounts only, in like
    /// order. Terminated accounts' likes disappear from public view, which
    /// is how the paper could count terminated likers a month later.
    pub fn visible_likers(&self, page: PageId) -> Vec<UserId> {
        // User column only — the poll path runs this per snapshot.
        self.ledger
            .page_users(page)
            .filter(|&u| self.accounts.is_active(u))
            .collect()
    }

    /// Every account that ever liked `page`, with like times, regardless of
    /// current status. This is the *platform-side* record (admin reports are
    /// computed from it).
    pub fn all_likers(&self, page: PageId) -> Vec<(UserId, SimTime)> {
        self.ledger.page_user_times(page).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::account::AccountStatus;
    use crate::demographics::{Country, Gender};

    fn profile() -> Profile {
        Profile {
            gender: Gender::Male,
            age: 22,
            country: Country::India,
            home_region: 0,
        }
    }

    fn privacy() -> PrivacySettings {
        PrivacySettings {
            friend_list_public: true,
            likes_public: true,
            searchable: true,
        }
    }

    fn world_with(n: usize) -> OsnWorld {
        let mut w = OsnWorld::new();
        for _ in 0..n {
            w.create_account(profile(), ActorClass::Organic, privacy(), SimTime::EPOCH);
        }
        w
    }

    #[test]
    fn ids_are_dense_and_stable() {
        let w = world_with(3);
        assert_eq!(w.account_count(), 3);
        for (i, id) in w.user_ids().enumerate() {
            assert_eq!(id, UserId(i as u32));
            assert_eq!(w.account(id).id, id);
        }
    }

    #[test]
    fn likes_flow_through_ledger() {
        let mut w = world_with(2);
        let p = w.create_page("x", "", None, PageCategory::Background, SimTime::EPOCH);
        assert!(w.record_like(UserId(0), p, SimTime::at_day(1)));
        assert!(!w.record_like(UserId(0), p, SimTime::at_day(2)), "dup");
        assert_eq!(w.likes().page_like_count(p), 1);
    }

    #[test]
    fn terminated_accounts_cannot_like_and_vanish() {
        let mut w = world_with(3);
        let p = w.create_page("h", "", None, PageCategory::Honeypot, SimTime::EPOCH);
        w.record_like(UserId(0), p, SimTime::at_day(1));
        w.record_like(UserId(1), p, SimTime::at_day(2));
        assert!(w.terminate_account(UserId(0), SimTime::at_day(3)));
        assert!(
            !w.terminate_account(UserId(0), SimTime::at_day(4)),
            "idempotent"
        );
        // New likes rejected.
        assert!(!w.record_like(UserId(0), p, SimTime::at_day(5)));
        // Public view loses the terminated liker; platform record keeps it.
        assert_eq!(w.visible_likers(p), vec![UserId(1)]);
        assert_eq!(w.all_likers(p).len(), 2);
        match w.account(UserId(0)).status {
            AccountStatus::Terminated(t) => assert_eq!(t, SimTime::at_day(3)),
            AccountStatus::Active => unreachable!(),
        }
    }

    #[test]
    fn ingest_rejects_terminated_likers() {
        let mut w = world_with(3);
        let p = w.create_page("h", "", None, PageCategory::Honeypot, SimTime::EPOCH);
        w.terminate_account(UserId(2), SimTime::at_day(1));
        let batch = vec![
            (UserId(0), p, SimTime::at_day(2)),
            (UserId(2), p, SimTime::at_day(2)), // terminated: dropped
            (UserId(1), p, SimTime::at_day(3)),
            (UserId(0), p, SimTime::at_day(4)), // dup: dropped
        ];
        assert_eq!(
            w.ingest_like_columns(&LikeColumns::from_rows(&batch), Exec::Sequential),
            2
        );
        assert_eq!(w.visible_likers(p), vec![UserId(0), UserId(1)]);
        assert_eq!(w.likes().user_like_count(UserId(2)), 0);
    }

    #[test]
    fn off_network_friends_pad_totals() {
        let mut w = world_with(2);
        w.add_friendship(UserId(0), UserId(1));
        assert_eq!(w.total_friend_count(UserId(0)), 1);
        w.set_off_network_friends(UserId(0), 120);
        assert_eq!(w.total_friend_count(UserId(0)), 121);
        assert_eq!(w.total_friend_count(UserId(1)), 1);
    }

    #[test]
    fn friendships_are_shared_graph() {
        let mut w = world_with(3);
        assert!(w.add_friendship(UserId(0), UserId(2)));
        assert!(!w.add_friendship(UserId(2), UserId(0)));
        assert!(w.friends().has_edge(UserId(0), UserId(2)));
        assert_eq!(w.friends().degree(UserId(1)), 0);
    }

    #[test]
    fn pages_are_dense() {
        let mut w = world_with(1);
        let a = w.create_page(
            "a",
            "d",
            Some(UserId(0)),
            PageCategory::Honeypot,
            SimTime::EPOCH,
        );
        let b = w.create_page("b", "d", None, PageCategory::Background, SimTime::EPOCH);
        assert_eq!(a, PageId(0));
        assert_eq!(b, PageId(1));
        assert!(w.page(a).is_honeypot());
        assert!(!w.page(b).is_honeypot());
        assert_eq!(w.page_ids().count(), 2);
    }

    #[test]
    fn profiles_intern_across_accounts() {
        let w = world_with(50);
        assert_eq!(w.account_store().distinct_profiles(), 1);
        assert_eq!(w.profile(UserId(17)), profile());
    }
}

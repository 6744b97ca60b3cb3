//! Readiness notification: the watcher half of `poll`/`epoll`.
//!
//! The blocking pipe, socket and accept paths park the calling OS thread on
//! a wait queue (`wait.rs`) and get woken by whichever thread produced data,
//! freed space, connected or closed an end. Readiness multiplexing reuses
//! exactly those wakeup sites: every waitable object owns a [`WatchSet`],
//! and every site that wakes the blocking path's sleepers *also* calls
//! [`WatchSet::notify`], naming the edge it fires — `IN` for new bytes, a
//! queued connection or the last writer going, `OUT` for drained bytes,
//! `ERR`/`HUP` for a hang-up. A `poll` or `epoll_wait` sleeper — asleep on
//! such a queue itself, inside its [`PollWaker`] — therefore wakes on the
//! same edges that would unblock a blocking read: one discipline, not two.
//!
//! Each registration carries the events its watcher asked for, and an edge
//! wakes only the registrations it could concern: `edge & (interest | ERR |
//! HUP)` must be nonempty (`ERR` and `HUP` are reported whatever was asked,
//! so they always reach). This is Linux's `ep_poll_callback` dropping a
//! wake whose poll key misses the registration's event mask, and it is what
//! keeps a server that watches its sockets for `IN` from being woken by the
//! drains and replies of its own traffic.
//!
//! Semantics are still **level-triggered** throughout: a waiter never
//! consumes a readiness edge, it re-scans the watched objects' *current*
//! state after every wakeup. The filter only drops edges that no
//! registration on that set could report; a wake that does get through is
//! a hint to re-scan, and a spurious one is harmless (the scan comes back
//! empty and the waiter sleeps again). So the notify sites stay trivial:
//! fire the edge of every state change, never track what a watcher has
//! already seen.
//!
//! Ownership rule: the **object** (pipe, socket end, listener queue) owns
//! its `WatchSet` and is the only party that fires edges; watchers hold
//! `Weak` registrations and may vanish at any time. An epoll instance (a
//! [`FileLike`] behind its descriptor like everything else) holds its
//! interest list `Weak` too, on the open file description, so neither side
//! keeps the other alive and a dropped end still reaches EOF/HUP.

use crate::fs::FileLike;
use crate::trace::WakeSite;
use crate::wait::{Wait, WaitQueue};
use parking_lot::Mutex;
use std::sync::atomic::{AtomicU16, Ordering};
use std::sync::{Arc, Weak};
use std::time::Instant;

/// Readiness event bits, mirroring the POSIX `POLL*` constants.
///
/// Follows the same custom-bitflags idiom as [`crate::fs::OpenFlags`] (no
/// external bitflags crate; every bit is a plain mask).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PollEvents(pub u16);

impl PollEvents {
    /// No events.
    pub const NONE: PollEvents = PollEvents(0);
    /// Data is readable without blocking (`POLLIN`). EOF counts as
    /// readable: a read would return 0 immediately.
    pub const IN: PollEvents = PollEvents(0x001);
    /// A write of at least the low-watermark size would proceed without
    /// blocking (`POLLOUT`).
    pub const OUT: PollEvents = PollEvents(0x004);
    /// Error condition (`POLLERR`): e.g. a pipe writer whose readers are
    /// all gone. Always reported, never part of the requested interest.
    pub const ERR: PollEvents = PollEvents(0x008);
    /// Hang-up (`POLLHUP`): the peer closed. Always reported, never part
    /// of the requested interest.
    pub const HUP: PollEvents = PollEvents(0x010);
    /// Invalid descriptor (`POLLNVAL`) — only ever set in `poll` revents.
    pub const NVAL: PollEvents = PollEvents(0x020);

    /// True when no bit is set.
    #[inline]
    pub fn is_empty(self) -> bool {
        self.0 == 0
    }

    /// Whether all of `other`'s bits are present in `self`.
    #[inline]
    pub fn contains(self, other: PollEvents) -> bool {
        self.0 & other.0 == other.0
    }

    /// Whether any of `other`'s bits are present in `self`.
    #[inline]
    pub fn intersects(self, other: PollEvents) -> bool {
        self.0 & other.0 != 0
    }
}

impl std::ops::BitOr for PollEvents {
    type Output = PollEvents;
    fn bitor(self, rhs: PollEvents) -> PollEvents {
        PollEvents(self.0 | rhs.0)
    }
}

impl std::ops::BitAnd for PollEvents {
    type Output = PollEvents;
    fn bitand(self, rhs: PollEvents) -> PollEvents {
        PollEvents(self.0 & rhs.0)
    }
}

/// What a multiplexer (an `epoll_wait` or `poll` call) sleeps on: a
/// generation counter with a `WaitQueue` (see `wait.rs`) beside it.
///
/// The generation counter closes the classic lost-wakeup window: a waiter
/// reads the generation, scans object state, and only sleeps if the
/// generation is still unchanged — an edge that fired between scan and
/// sleep bumps the generation and the sleep returns immediately. An edge
/// that finds nobody asleep bumps the generation and is done (the queue's
/// sleeper gate).
#[derive(Debug)]
pub struct PollWaker {
    pub(crate) gen: Mutex<u64>,
    pub(crate) queue: WaitQueue,
}

/// How a [`PollWaker::wait`] ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WaitEnd {
    /// The generation moved past `seen`. Carries the firing thread's
    /// `(waker, armed_ns)` stamp if the edge ended a real sleep of this
    /// thread and no fellow sleeper claimed it first; `None` when the
    /// generation had already moved and the call never slept.
    Edge(Option<(u64, u64)>),
    /// The deadline passed with the generation unchanged.
    TimedOut,
}

impl PollWaker {
    /// A fresh waker at generation 0 whose sleepers are attributed to
    /// `site` ([`WakeSite::EpollWait`] or [`WakeSite::Poll`]).
    pub fn new(site: WakeSite) -> PollWaker {
        PollWaker {
            gen: Mutex::new(0),
            queue: WaitQueue::new(site),
        }
    }

    /// Current generation; pass it to [`PollWaker::wait`] after scanning.
    pub fn generation(&self) -> u64 {
        *self.gen.lock()
    }

    /// Fire a readiness edge: bump the generation and wake every sleeper.
    pub fn wake(&self) {
        let mut gen = self.gen.lock();
        *gen += 1;
        self.queue.wake_all(&gen);
    }

    /// Sleep, as part of the call `wait` belongs to, until the generation
    /// moves past `seen` or the call's deadline passes.
    pub(crate) fn wait_in(&self, wait: &mut Wait<'_>, seen: u64) -> WaitEnd {
        let mut gen = self.gen.lock();
        while *gen == seen {
            if !wait.sleep(&mut gen) && *gen == seen {
                return WaitEnd::TimedOut;
            }
        }
        WaitEnd::Edge(wait.stamp)
    }

    /// Wait until the generation moves past `seen` or `deadline` passes.
    /// A `None` deadline waits indefinitely (only an edge can end the
    /// wait). A one-wait call of its own: the stamp it claimed is handed
    /// back rather than emitted.
    pub fn wait(&self, seen: u64, deadline: Option<Instant>) -> WaitEnd {
        let mut wait = self.queue.wait(deadline);
        let end = self.wait_in(&mut wait, seen);
        wait.stamp = None;
        wait.finish(&Ok(()), matches!(end, WaitEnd::Edge(_)));
        end
    }
}

/// The events every registration hears whatever it asked for: `epoll_wait`
/// and `poll` report `ERR` and `HUP` unrequested.
const IMPLIED: PollEvents = PollEvents(PollEvents::ERR.0 | PollEvents::HUP.0);

/// One registration: a weak waker and the events it listens for.
#[derive(Debug)]
struct Watcher {
    waker: Weak<PollWaker>,
    interest: PollEvents,
}

/// The watchers of one waitable object. The object fires
/// [`WatchSet::notify`] with the edge of every state change that could
/// affect readiness — the same sites that wake the blocking path's
/// sleepers — and the edge wakes the watchers whose interest it meets
/// (`ERR`/`HUP` meet every interest).
///
/// The list is bounded: at most one entry per live waker, none for a `poll`
/// call that has returned. [`subscribe`](WatchSet::subscribe) keeps one
/// entry per waker and only ever widens its interest, `poll`
/// [`unsubscribe`](WatchSet::unsubscribe)s its throw-away waker on the way
/// out, and a dead epoll instance's entry goes with the next walk of the
/// list. (`EPOLL_CTL_DEL` leaves the entry, and `EPOLL_CTL_MOD` cannot
/// narrow it: a sibling registration of the same waker may still need the
/// wider mask, and a notify too many costs a re-scan where one too few
/// costs a hang.)
#[derive(Debug, Default)]
pub struct WatchSet {
    watchers: Mutex<Vec<Watcher>>,
    /// The union of the entries' interests, `ERR|HUP` included, 0 when the
    /// list is empty — published under the list's lock, so that a
    /// [`notify`] no entry could hear is one load: no lock, no shared write.
    ///
    /// A subscriber cannot miss an edge through this shortcut. It scans the
    /// object's state *after* subscribing, under the object's own lock; the
    /// notifier changed that state under the same lock *before* loading the
    /// union. If the load still missed the subscriber's bits, the
    /// subscriber's scan comes later in that lock's order and sees the
    /// change itself.
    ///
    /// [`notify`]: WatchSet::notify
    heard: AtomicU16,
}

impl WatchSet {
    /// An empty watch set.
    pub fn new() -> WatchSet {
        WatchSet::default()
    }

    /// Edit the list under its lock, dropping the dead entries first, and
    /// publish the new union.
    fn update(&self, edit: impl FnOnce(&mut Vec<Watcher>)) {
        let mut ws = self.watchers.lock();
        ws.retain(|w| w.waker.strong_count() > 0);
        edit(&mut ws);
        let heard = ws
            .iter()
            .fold(PollEvents::NONE, |u, w| u | w.interest | IMPLIED);
        self.heard.store(heard.0, Ordering::Release);
    }

    /// Register a waker for the edges meeting `interest` (and `ERR|HUP`).
    /// Registering it again widens its entry to the union of the masks; it
    /// never narrows it.
    pub fn subscribe(&self, waker: &Arc<PollWaker>, interest: PollEvents) {
        self.update(|ws| {
            match ws
                .iter_mut()
                .find(|w| w.waker.as_ptr() == Arc::as_ptr(waker))
            {
                Some(w) => w.interest = w.interest | interest,
                None => ws.push(Watcher {
                    waker: Arc::downgrade(waker),
                    interest,
                }),
            }
        });
    }

    /// Remove a waker's registration, if it has one.
    pub fn unsubscribe(&self, waker: &Arc<PollWaker>) {
        self.update(|ws| ws.retain(|w| w.waker.as_ptr() != Arc::as_ptr(waker)));
    }

    /// Fire `edge` to every live watcher whose interest it meets, pruning
    /// dead ones. One load when no entry could hear it.
    pub fn notify(&self, edge: PollEvents) {
        if self.heard.load(Ordering::Acquire) & edge.0 == 0 {
            return;
        }
        self.update(|ws| {
            for w in ws.iter() {
                if edge.intersects(w.interest | IMPLIED) {
                    if let Some(waker) = w.waker.upgrade() {
                        waker.wake();
                    }
                }
            }
        });
    }

    /// Length of the list, dead entries not yet pruned included — the
    /// number the bound above is about (test/diagnostic aid).
    pub fn watcher_count(&self) -> usize {
        self.watchers.lock().len()
    }
}

/// `epoll_ctl` operation selector.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EpollOp {
    /// Register a new descriptor (`EPOLL_CTL_ADD`).
    Add,
    /// Change the interest mask of a registered descriptor
    /// (`EPOLL_CTL_MOD`).
    Mod,
    /// Remove a registration (`EPOLL_CTL_DEL`).
    Del,
}

/// One registration in an epoll interest list: the watched description
/// (held weakly — epoll must not keep a pipe/socket end alive, or the
/// EOF/HUP edge it is waiting for could never fire) plus the interest mask.
#[derive(Debug)]
pub struct EpollEntry {
    /// The watched open file description, weak (auto-deregisters when the
    /// last descriptor to it closes, like Linux epoll).
    pub target: Weak<crate::fd::Description>,
    /// Requested event mask. `ERR`/`HUP` are implicit and always reported.
    pub interest: PollEvents,
}

/// The kernel object behind an epoll descriptor.
///
/// The interest list is keyed by the *fd number used at registration time*
/// (what `epoll_wait` reports back), but each entry identifies its watched
/// object by open file description — so the registration survives `dup2`
/// shuffles of the original slot, and dies only when the description does.
#[derive(Debug)]
pub struct EpollObject {
    /// fd-at-registration → entry.
    pub interest: Mutex<std::collections::BTreeMap<i32, EpollEntry>>,
    /// Woken by every watched object's `WatchSet` (subscribed on `Add` and
    /// widened on `Mod`, with the entry's events) for the edges its
    /// registrations asked for, and re-armed by re-scan — level-triggered.
    pub waker: Arc<PollWaker>,
}

impl Default for EpollObject {
    /// A fresh epoll instance with an empty interest list.
    fn default() -> EpollObject {
        EpollObject {
            interest: Mutex::default(),
            waker: Arc::new(PollWaker::new(WakeSite::EpollWait)),
        }
    }
}

/// Behind a descriptor an epoll instance is reachable by `epoll_ctl` and
/// `epoll_wait` and nothing else: it reports no readiness of its own and is
/// not watchable (this kernel does not nest epoll instances).
impl FileLike for EpollObject {
    fn as_epoll(&self) -> Option<&EpollObject> {
        Some(self)
    }

    fn poll_events(&self) -> PollEvents {
        PollEvents::NONE
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;
    use std::time::Duration;

    #[test]
    fn events_compose_like_poll_bits() {
        let ev = PollEvents::IN | PollEvents::HUP;
        assert!(ev.contains(PollEvents::IN));
        assert!(ev.intersects(PollEvents::HUP));
        assert!(!ev.contains(PollEvents::OUT));
        assert!((ev & PollEvents::OUT).is_empty());
        assert_eq!(PollEvents::IN.0, 0x001, "POLLIN value");
        assert_eq!(PollEvents::OUT.0, 0x004, "POLLOUT value");
        assert_eq!(PollEvents::HUP.0, 0x010, "POLLHUP value");
    }

    #[test]
    fn waker_wait_times_out_without_edge() {
        let w = PollWaker::new(WakeSite::EpollWait);
        let gen = w.generation();
        let deadline = Instant::now() + Duration::from_millis(20);
        assert_eq!(w.wait(gen, Some(deadline)), WaitEnd::TimedOut);
    }

    #[test]
    fn edge_between_scan_and_sleep_is_not_lost() {
        let w = PollWaker::new(WakeSite::EpollWait);
        let gen = w.generation();
        w.wake(); // Edge fires after the scan, before the sleep.
        assert_eq!(
            w.wait(gen, None),
            WaitEnd::Edge(None),
            "bumped generation must not sleep"
        );
    }

    #[test]
    fn notify_wakes_cross_thread_sleeper() {
        let w = Arc::new(PollWaker::new(WakeSite::EpollWait));
        let set = WatchSet::new();
        set.subscribe(&w, PollEvents::IN);
        let sleeper = {
            let w = w.clone();
            thread::spawn(move || w.wait(w.generation(), None))
        };
        thread::sleep(Duration::from_millis(10));
        set.notify(PollEvents::IN);
        assert!(matches!(sleeper.join().unwrap(), WaitEnd::Edge(_)));
    }

    #[test]
    fn subscribe_is_idempotent_and_unsubscribe_removes() {
        let set = WatchSet::new();
        let a = Arc::new(PollWaker::new(WakeSite::EpollWait));
        let b = Arc::new(PollWaker::new(WakeSite::Poll));
        for _ in 0..100 {
            set.subscribe(&a, PollEvents::IN);
        }
        set.subscribe(&b, PollEvents::IN);
        assert_eq!(set.watcher_count(), 2, "one entry per waker");
        let (ga, gb) = (a.generation(), b.generation());
        set.notify(PollEvents::IN);
        assert_eq!((a.generation(), b.generation()), (ga + 1, gb + 1));
        set.unsubscribe(&b);
        set.unsubscribe(&b);
        assert_eq!(set.watcher_count(), 1);
        set.notify(PollEvents::IN);
        assert_eq!((a.generation(), b.generation()), (ga + 2, gb + 1));
        set.unsubscribe(&a);
        assert_eq!(set.watcher_count(), 0);
        assert_eq!(set.heard.load(Ordering::Acquire), 0, "shortcut is back");
    }

    #[test]
    fn dead_watchers_are_pruned() {
        let set = WatchSet::new();
        let w = Arc::new(PollWaker::new(WakeSite::EpollWait));
        set.subscribe(&w, PollEvents::IN);
        assert_eq!(set.watcher_count(), 1);
        drop(w);
        set.notify(PollEvents::IN);
        assert_eq!(set.watcher_count(), 0);
    }

    /// Generations of `wakers`, to compare before and after an edge.
    fn gens(wakers: &[&Arc<PollWaker>]) -> Vec<u64> {
        wakers.iter().map(|w| w.generation()).collect()
    }

    #[test]
    fn an_edge_wakes_only_the_interests_it_meets() {
        let set = WatchSet::new();
        let reader = Arc::new(PollWaker::new(WakeSite::EpollWait));
        let writer = Arc::new(PollWaker::new(WakeSite::EpollWait));
        let deaf = Arc::new(PollWaker::new(WakeSite::EpollWait));
        set.subscribe(&reader, PollEvents::IN);
        set.subscribe(&writer, PollEvents::OUT);
        set.subscribe(&deaf, PollEvents::NONE);
        let all = [&reader, &writer, &deaf];
        let g = gens(&all);
        set.notify(PollEvents::IN);
        assert_eq!(gens(&all), vec![g[0] + 1, g[1], g[2]], "IN");
        set.notify(PollEvents::OUT);
        assert_eq!(gens(&all), vec![g[0] + 1, g[1] + 1, g[2]], "OUT");
        // Hang-ups reach every registration, whatever it asked for.
        set.notify(PollEvents::IN | PollEvents::HUP);
        assert_eq!(gens(&all), vec![g[0] + 2, g[1] + 2, g[2] + 1], "IN|HUP");
        set.notify(PollEvents::ERR);
        assert_eq!(gens(&all), vec![g[0] + 3, g[1] + 3, g[2] + 2], "ERR");
    }

    #[test]
    fn resubscribing_widens_and_never_narrows() {
        let set = WatchSet::new();
        let w = Arc::new(PollWaker::new(WakeSite::EpollWait));
        set.subscribe(&w, PollEvents::IN);
        set.subscribe(&w, PollEvents::OUT);
        set.subscribe(&w, PollEvents::NONE);
        assert_eq!(set.watcher_count(), 1, "one entry per waker");
        let g = w.generation();
        set.notify(PollEvents::IN);
        set.notify(PollEvents::OUT);
        assert_eq!(w.generation(), g + 2, "both masks kept");
    }

    #[test]
    fn the_shortcut_is_the_union_of_the_interests() {
        let set = WatchSet::new();
        let heard = |set: &WatchSet| PollEvents(set.heard.load(Ordering::Acquire));
        assert_eq!(heard(&set), PollEvents::NONE, "nobody registered");
        let a = Arc::new(PollWaker::new(WakeSite::EpollWait));
        set.subscribe(&a, PollEvents::NONE);
        assert_eq!(heard(&set), PollEvents::ERR | PollEvents::HUP, "implied");
        let b = Arc::new(PollWaker::new(WakeSite::Poll));
        set.subscribe(&b, PollEvents::IN);
        assert_eq!(
            heard(&set),
            PollEvents::IN | PollEvents::ERR | PollEvents::HUP
        );
        set.unsubscribe(&b);
        set.unsubscribe(&a);
        assert_eq!(heard(&set), PollEvents::NONE, "empty again");
    }
}

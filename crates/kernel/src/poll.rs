//! Readiness notification: the watcher half of `poll`/`epoll`.
//!
//! The blocking pipe, socket and accept paths park the calling OS thread on
//! a wait queue (`wait.rs`) and get woken by whichever thread produced data,
//! freed space, connected or closed an end. Readiness multiplexing reuses
//! exactly those wakeup sites: every waitable object owns a [`WatchSet`],
//! and every site that wakes the blocking path's sleepers *also* calls
//! [`WatchSet::notify`]. A `poll` or `epoll_wait` sleeper — asleep on such a
//! queue itself, inside its [`PollWaker`] — therefore wakes on the same
//! edges that would unblock a blocking read: one discipline, not two.
//!
//! Semantics are **level-triggered** throughout: a waiter never consumes a
//! readiness edge, it re-scans the watched objects' *current* state after
//! every wakeup. That makes spurious notifications harmless (the scan just
//! comes back empty and the waiter sleeps again), which in turn keeps the
//! notify sites trivial: fire on every state change, never track what a
//! watcher has already seen.
//!
//! Ownership rule: the **object** (pipe, socket buffer, listener queue) owns
//! its `WatchSet` and is the only party that fires edges; watchers hold
//! `Weak` registrations and may vanish at any time. An epoll instance (a
//! [`FileLike`] behind its descriptor like everything else) holds its
//! interest list `Weak` too, on the open file description, so neither side
//! keeps the other alive and a dropped end still reaches EOF/HUP.

use crate::fs::FileLike;
use crate::trace::WakeSite;
use crate::wait::{Wait, WaitQueue};
use parking_lot::Mutex;
use std::sync::atomic::{AtomicUsize, Ordering};
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

/// The watchers of one waitable object. The object fires [`WatchSet::notify`]
/// at every state change that could affect readiness — the same sites that
/// wake the blocking path's sleepers.
///
/// The list is bounded: at most one entry per live waker, none for a `poll`
/// call that has returned. [`subscribe`](WatchSet::subscribe) is idempotent
/// per waker, `poll` [`unsubscribe`](WatchSet::unsubscribe)s its throw-away
/// waker on the way out, and a dead epoll instance's entry goes with the
/// next walk of the list. (`EPOLL_CTL_DEL` leaves the entry: a sibling
/// registration may still need it, and a notify too many costs a re-scan.)
#[derive(Debug, Default)]
pub struct WatchSet {
    watchers: Mutex<Vec<Weak<PollWaker>>>,
    /// `watchers.len()`, published under its lock, so that [`notify`] on an
    /// object nobody watches is one load: no lock, no shared write.
    ///
    /// A subscriber cannot miss an edge through this shortcut. It scans the
    /// object's state *after* subscribing, under the object's own lock; the
    /// notifier changed that state under the same lock *before* loading the
    /// count. If the load still saw zero, the subscriber's scan comes later
    /// in that lock's order and sees the change itself.
    ///
    /// [`notify`]: WatchSet::notify
    registered: AtomicUsize,
}

impl WatchSet {
    /// An empty watch set.
    pub fn new() -> WatchSet {
        WatchSet::default()
    }

    /// Keep the entries `keep` accepts among the live ones, then `waker` if
    /// one is given, and publish the new length.
    fn rebuild(
        &self,
        waker: Option<&Arc<PollWaker>>,
        mut keep: impl FnMut(&Arc<PollWaker>) -> bool,
    ) {
        let mut ws = self.watchers.lock();
        ws.retain(|w| w.upgrade().is_some_and(|w| keep(&w)));
        ws.extend(waker.map(Arc::downgrade));
        self.registered.store(ws.len(), Ordering::Release);
    }

    /// Register a waker; registering it again changes nothing.
    pub fn subscribe(&self, waker: &Arc<PollWaker>) {
        self.rebuild(Some(waker), |w| !Arc::ptr_eq(w, waker));
    }

    /// Remove a waker's registration, if it has one.
    pub fn unsubscribe(&self, waker: &Arc<PollWaker>) {
        self.rebuild(None, |w| !Arc::ptr_eq(w, waker));
    }

    /// Fire a readiness edge to every live watcher, pruning dead ones.
    pub fn notify(&self) {
        if self.registered.load(Ordering::Acquire) == 0 {
            return;
        }
        self.rebuild(None, |w| {
            w.wake();
            true
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
    /// Woken by every watched object's `WatchSet` (subscribed on `Add`), and
    /// re-armed by re-scan — level-triggered.
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
        set.subscribe(&w);
        let sleeper = {
            let w = w.clone();
            thread::spawn(move || w.wait(w.generation(), None))
        };
        thread::sleep(Duration::from_millis(10));
        set.notify();
        assert!(matches!(sleeper.join().unwrap(), WaitEnd::Edge(_)));
    }

    #[test]
    fn subscribe_is_idempotent_and_unsubscribe_removes() {
        let set = WatchSet::new();
        let a = Arc::new(PollWaker::new(WakeSite::EpollWait));
        let b = Arc::new(PollWaker::new(WakeSite::Poll));
        for _ in 0..100 {
            set.subscribe(&a);
        }
        set.subscribe(&b);
        assert_eq!(set.watcher_count(), 2, "one entry per waker");
        let (ga, gb) = (a.generation(), b.generation());
        set.notify();
        assert_eq!((a.generation(), b.generation()), (ga + 1, gb + 1));
        set.unsubscribe(&b);
        set.unsubscribe(&b);
        assert_eq!(set.watcher_count(), 1);
        set.notify();
        assert_eq!((a.generation(), b.generation()), (ga + 2, gb + 1));
        set.unsubscribe(&a);
        assert_eq!(set.watcher_count(), 0);
        assert_eq!(
            set.registered.load(Ordering::Acquire),
            0,
            "shortcut is back"
        );
    }

    #[test]
    fn dead_watchers_are_pruned() {
        let set = WatchSet::new();
        let w = Arc::new(PollWaker::new(WakeSite::EpollWait));
        set.subscribe(&w);
        assert_eq!(set.watcher_count(), 1);
        drop(w);
        set.notify();
        assert_eq!(set.watcher_count(), 0);
    }
}

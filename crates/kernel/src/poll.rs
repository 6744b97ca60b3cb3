//! Readiness notification: the wait-queue half of `poll`/`epoll`.
//!
//! The blocking pipe and socket paths already park the calling OS thread on
//! a condvar and get woken by whichever thread produced data, freed space or
//! closed an end. Readiness multiplexing reuses exactly those wakeup sites:
//! every waitable object owns a [`WatchSet`], and every site that wakes the
//! blocking path's sleepers *also* calls [`WatchSet::notify`]. A `poll` or
//! `epoll_wait` sleeper therefore wakes on the same edges that would unblock
//! a blocking read — there is one wait-queue discipline, not two.
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
//! `Weak` registrations and may vanish at any time. The inverse direction —
//! an epoll instance holding its interest list — also uses `Weak` (on the
//! open file description), so neither side keeps the other alive and a
//! dropped end still reaches EOF/HUP.

use parking_lot::{Condvar, Mutex};
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

/// One sleeping multiplexer (an `epoll_wait` or `poll` call in progress).
///
/// The generation counter closes the classic lost-wakeup window: a waiter
/// reads the generation, scans object state, and only sleeps if the
/// generation is still unchanged — an edge that fired between scan and
/// sleep bumps the generation and the sleep returns immediately.
///
/// Sleepers are counted beside the generation, under its lock, so an edge
/// that finds nobody asleep bumps the generation and is done: no condvar
/// notify (a host `futex` call even with no waiter) and no wake stamp.
#[derive(Debug)]
pub struct PollWaker {
    state: Mutex<WakerState>,
    cv: Condvar,
    /// Wake-edge attribution: stamped under the generation lock by a thread
    /// firing an edge while somebody sleeps, and taken under the same lock
    /// by the first of those sleepers to wake ([`WaitEnd::Edge`]). Both ends
    /// hold the lock, so a stamp never outlives the sleep it ended and a
    /// waiter arriving later cannot pick up one that was armed for another.
    wake: crate::trace::WakeCell,
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

impl WaitEnd {
    /// The stamp of the edge that ended a real sleep, if any — what the
    /// `epoll_wait`/`poll` caller emits once its re-scan finds something
    /// ready (a timeout, or a wake whose scan came back empty, emits none).
    pub fn stamp(self) -> Option<(u64, u64)> {
        match self {
            WaitEnd::Edge(stamp) => stamp,
            WaitEnd::TimedOut => None,
        }
    }
}

#[derive(Debug, Default)]
struct WakerState {
    gen: u64,
    sleepers: usize,
}

impl PollWaker {
    /// A fresh waker at generation 0.
    pub fn new() -> PollWaker {
        PollWaker {
            state: Mutex::new(WakerState::default()),
            cv: Condvar::new(),
            wake: crate::trace::WakeCell::new(),
        }
    }

    /// Current generation; pass it to [`PollWaker::wait`] after scanning.
    pub fn generation(&self) -> u64 {
        self.state.lock().gen
    }

    /// Fire a readiness edge: bump the generation and wake every sleeper.
    pub fn wake(&self) {
        let mut st = self.state.lock();
        st.gen += 1;
        if st.sleepers > 0 {
            self.wake.stamp();
            self.cv.notify_all();
        }
    }

    /// Sleep until the generation moves past `seen` or `deadline` passes.
    /// A `None` deadline sleeps indefinitely (only an edge can end the wait).
    pub fn wait(&self, seen: u64, deadline: Option<Instant>) -> WaitEnd {
        let mut st = self.state.lock();
        let mut slept = false;
        while st.gen == seen {
            st.sleepers += 1;
            let timed_out = match deadline {
                Some(d) => {
                    let now = Instant::now();
                    now >= d || self.cv.wait_for(&mut st, d - now).timed_out()
                }
                None => {
                    self.cv.wait(&mut st);
                    false
                }
            };
            st.sleepers -= 1;
            if timed_out && st.gen == seen {
                return WaitEnd::TimedOut;
            }
            slept = true;
        }
        // Still under the lock. A call that never slept was counted by no
        // edge, so whatever is in the cell belongs to a sleeper that has
        // not reacquired the lock yet.
        WaitEnd::Edge(if slept { self.wake.take() } else { None })
    }
}

impl Default for PollWaker {
    fn default() -> Self {
        PollWaker::new()
    }
}

/// The watchers of one waitable object. The object fires [`WatchSet::notify`]
/// at every state change that could affect readiness — the same sites that
/// wake the blocking path's sleepers.
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

    /// Register a waker. Dead registrations are pruned on the next notify,
    /// so subscribers just drop their `Arc` to unsubscribe.
    pub fn subscribe(&self, waker: &Arc<PollWaker>) {
        let mut ws = self.watchers.lock();
        ws.push(Arc::downgrade(waker));
        self.registered.store(ws.len(), Ordering::Release);
    }

    /// Fire a readiness edge to every live watcher, pruning dead ones.
    pub fn notify(&self) {
        if self.registered.load(Ordering::Acquire) == 0 {
            return;
        }
        let mut ws = self.watchers.lock();
        ws.retain(|w| match w.upgrade() {
            Some(waker) => {
                waker.wake();
                true
            }
            None => false,
        });
        self.registered.store(ws.len(), Ordering::Release);
    }

    /// Number of live registrations (test/diagnostic aid).
    pub fn watcher_count(&self) -> usize {
        self.watchers
            .lock()
            .iter()
            .filter(|w| w.upgrade().is_some())
            .count()
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
#[derive(Debug, Default)]
pub struct EpollObject {
    /// fd-at-registration → entry.
    pub interest: Mutex<std::collections::BTreeMap<i32, EpollEntry>>,
    /// Woken by every watched object's `WatchSet` (one subscription per
    /// `Add`), and re-armed by re-scan — level-triggered.
    pub waker: Arc<PollWaker>,
}

impl EpollObject {
    /// A fresh epoll instance with an empty interest list.
    pub fn new() -> EpollObject {
        EpollObject::default()
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
        let w = PollWaker::new();
        let gen = w.generation();
        let deadline = Instant::now() + Duration::from_millis(20);
        assert_eq!(w.wait(gen, Some(deadline)), WaitEnd::TimedOut);
    }

    #[test]
    fn edge_between_scan_and_sleep_is_not_lost() {
        let w = PollWaker::new();
        let gen = w.generation();
        w.wake(); // Edge fires after the scan, before the sleep.
        assert_eq!(
            w.wait(gen, None),
            WaitEnd::Edge(None),
            "bumped generation must not sleep"
        );
    }

    #[test]
    fn late_waiter_leaves_a_sleepers_stamp_alone() {
        // An edge has woken a sleeper and armed the cell for it; before that
        // sleeper is back under the lock, a second thread calls `wait` with
        // a generation from before the edge (a shared epoll fd). It did not
        // sleep, so the stamp is not its to take.
        let w = PollWaker::new();
        let gen = w.generation();
        w.wake();
        w.wake.stamp_as(7, 123);
        assert_eq!(w.wait(gen, None), WaitEnd::Edge(None));
        assert_eq!(w.wake.take(), Some((7, 123)), "stamp must survive");
    }

    #[test]
    fn two_sleepers_on_one_waker_claim_one_stamp_once() {
        let w = Arc::new(PollWaker::new());
        let gen = w.generation();
        let sleepers: Vec<_> = (0..2)
            .map(|_| {
                let w = w.clone();
                thread::spawn(move || w.wait(gen, None))
            })
            .collect();
        while w.state.lock().sleepers < 2 {
            thread::sleep(Duration::from_millis(1));
        }
        {
            // What `wake()` does with tracing on (no stamp hook is installed
            // in unit tests, so arm the cell by hand under the same lock).
            let mut st = w.state.lock();
            st.gen += 1;
            w.wake.stamp_as(7, 123);
            w.cv.notify_all();
        }
        let ends: Vec<_> = sleepers.into_iter().map(|s| s.join().unwrap()).collect();
        let claimed = ends.iter().filter(|e| e.stamp() == Some((7, 123))).count();
        assert_eq!(claimed, 1, "one edge, one attribution: {ends:?}");
        assert!(ends.iter().all(|e| matches!(e, WaitEnd::Edge(_))));
        assert_eq!(w.wake.take(), None, "nothing is left for a later wait");
    }

    #[test]
    fn notify_wakes_cross_thread_sleeper() {
        let w = Arc::new(PollWaker::new());
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
    fn dead_watchers_are_pruned() {
        let set = WatchSet::new();
        let w = Arc::new(PollWaker::new());
        set.subscribe(&w);
        assert_eq!(set.watcher_count(), 1);
        drop(w);
        set.notify();
        assert_eq!(set.watcher_count(), 0);
    }
}

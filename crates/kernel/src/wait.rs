//! The one wait queue behind every attributed sleep in the kernel.
//!
//! A blocking `read`/`write` on a pipe or socket, a blocking `accept` and a
//! blocking `epoll_wait`/`poll` all put the calling **OS thread** to sleep
//! the same way, so the protocol is written once, here. A [`WaitQueue`]
//! lives beside whatever mutex guards the predicate its sleepers wait for
//! (a byte buffer, an accept queue, a generation counter) and owns the rest:
//! condvar, sleeper count, wake-attribution cell, blocking span. Every
//! method that touches them takes the owner's `MutexGuard` as proof the
//! lock is held; that lock orders wakers against sleepers, and the three
//! rules (argued in DESIGN.md §4 "Readiness & wait queues") lean on it:
//!
//! 1. **No host system call without a sleeper.** Sleepers count themselves
//!    in and out under the lock; a wake that reads zero does nothing at all
//!    — no condvar notify (a host `futex` call even with nobody waiting),
//!    no stamp. It cannot be racing a thread that has checked the predicate
//!    but not yet slept: that thread still holds the lock.
//! 2. **Only a sleeper claims the stamp, and claims it under the lock.**
//!    The cell is armed only while somebody is counted in, and everybody
//!    counted in takes it on waking, so it is empty whenever nobody sleeps:
//!    a call that never slept never touches it, one edge is attributed at
//!    most once. Whether a claimed stamp is *emitted* is the call's decision
//!    at [`Wait::finish`] — a timeout or an empty re-scan attributes nothing.
//! 3. **The edge lands inside the span.** The first real sleep of a call
//!    opens the site's blocking span ([`WakeSite::blocking_span`]);
//!    [`Wait::finish`] emits the wake edge and *then* the span's `Exit`
//!    (oracle family J2). A call that never sleeps emits neither.
//!
//! Not on this type, on purpose: [`crate::futex::Semaphore`] (the paper's
//! §VI-C BLOCKING primitive: lock-free on a futex word, no mutex to ride),
//! and the `aio` / `waitpid` condvars, which carry no wake attribution.

use crate::errno::KResult;
use crate::kernel::errno_of;
use crate::trace::{self, SyscallPhase, Sysno, WakeCell, WakeSite};
use parking_lot::{Condvar, MutexGuard};
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};
use std::time::Instant;

/// The sleepers on one predicate. See the module docs for the protocol.
#[derive(Debug)]
pub(crate) struct WaitQueue {
    cv: Condvar,
    /// Threads inside [`Wait::sleep`]. Read and written only under the
    /// owner's lock, which is all the ordering it needs.
    sleepers: AtomicUsize,
    cell: WakeCell,
    site: WakeSite,
    span: Sysno,
}

impl WaitQueue {
    /// A queue whose sleeps show up as `site`'s blocking span and whose
    /// wake edges carry `site`.
    pub(crate) fn new(site: WakeSite) -> WaitQueue {
        WaitQueue {
            cv: Condvar::new(),
            sleepers: AtomicUsize::new(0),
            cell: WakeCell::new(),
            site,
            span: site
                .blocking_span()
                .expect("a wait queue serves a site that sleeps inside a blocking span"),
        }
    }

    /// The predicate changed: release every sleeper, if there is one.
    pub(crate) fn wake_all<T>(&self, _held: &MutexGuard<'_, T>) {
        if self.sleepers.load(Relaxed) > 0 {
            self.cell.stamp();
            self.cv.notify_all();
        }
    }

    /// The predicate changed for one taker: release one sleeper, if any.
    pub(crate) fn wake_one<T>(&self, _held: &MutexGuard<'_, T>) {
        if self.sleepers.load(Relaxed) > 0 {
            self.cell.stamp();
            self.cv.notify_one();
        }
    }

    /// Begin one blocking call. Nothing happens until its first
    /// [`Wait::sleep`].
    pub(crate) fn wait(&self, deadline: Option<Instant>) -> Wait<'_> {
        Wait {
            queue: self,
            deadline,
            blocked: false,
            stamp: None,
        }
    }
}

/// One blocking call's passage through a [`WaitQueue`]: any number of
/// sleeps between re-checks of the predicate, then one [`Wait::finish`].
#[derive(Debug)]
pub(crate) struct Wait<'q> {
    queue: &'q WaitQueue,
    deadline: Option<Instant>,
    /// The blocking span is open.
    blocked: bool,
    /// What the latest sleep found in the cell: the stamp it claimed.
    pub(crate) stamp: Option<(u64, u64)>,
}

impl Wait<'_> {
    /// Sleep until woken or the deadline passes, releasing `held` meanwhile.
    /// Returns `false` if the deadline passed; either way the caller
    /// re-checks its predicate (condvar wakes may be spurious).
    pub(crate) fn sleep<T>(&mut self, held: &mut MutexGuard<'_, T>) -> bool {
        let q = self.queue;
        if !self.blocked {
            self.blocked = true;
            trace::emit(q.span, SyscallPhase::Enter);
        }
        q.sleepers.fetch_add(1, Relaxed);
        let woken = match self.deadline {
            Some(d) => {
                let now = Instant::now();
                now < d && !q.cv.wait_for(held, d - now).timed_out()
            }
            None => {
                q.cv.wait(held);
                true
            }
        };
        q.sleepers.fetch_sub(1, Relaxed);
        self.stamp = q.cell.take();
        woken
    }

    /// End the call with `res`. If it slept: emit the claimed wake edge when
    /// `attribute` says an edge is what ended the wait, then close the span.
    pub(crate) fn finish<R>(self, res: &KResult<R>, attribute: bool) {
        if !self.blocked {
            return;
        }
        if let (true, Some((waker, armed_ns))) = (attribute, self.stamp) {
            trace::wake_emit(waker, armed_ns, self.queue.site);
        }
        let errno = errno_of(res);
        trace::emit(self.queue.span, SyscallPhase::Exit { errno });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fs::ProcSource;
    use crate::poll::{PollWaker, WaitEnd};
    use crate::trace::KernelHooks;
    use parking_lot::Mutex;
    use std::sync::atomic::AtomicU64;
    use std::sync::Arc;
    use std::thread;
    use std::time::Duration;

    /// With a stamp hook installed `WakeCell::stamp` really arms the cell,
    /// so an ungated wake would show. (First install wins and this is the
    /// only installer in the unit-test binary; the other hooks do nothing.)
    fn install_stamp_hook() {
        static CLOCK: AtomicU64 = AtomicU64::new(1);
        KernelHooks {
            syscall: |_, _| {},
            wake_stamp: || (7, CLOCK.fetch_add(1, Relaxed)),
            wake_emit: |_, _, _| {},
            proc: |_: ProcSource| None,
        }
        .install();
    }

    fn sleepers_reach(q: &WaitQueue, lock: &Mutex<bool>, n: usize) {
        loop {
            let held = lock.lock();
            if q.sleepers.load(Relaxed) >= n {
                return;
            }
            drop(held);
            thread::sleep(Duration::from_millis(1));
        }
    }

    #[test]
    fn wake_without_a_sleeper_leaves_the_cell_unarmed() {
        install_stamp_hook();
        let q = Arc::new(WaitQueue::new(WakeSite::Accept));
        let ready = Arc::new(Mutex::new(false));
        {
            let held = ready.lock();
            q.wake_one(&held);
            q.wake_all(&held);
        }
        assert_eq!(q.cell.take(), None, "nobody slept: nothing to attribute");

        // A genuine sleeper, released by a genuine wake, claims that wake's
        // stamp — armed while it slept, not before.
        let sleeper = {
            let (q, ready) = (q.clone(), ready.clone());
            thread::spawn(move || {
                let mut held = ready.lock();
                let mut wait = q.wait(None);
                while !*held {
                    wait.sleep(&mut held);
                }
                wait.stamp
            })
        };
        sleepers_reach(&q, &ready, 1);
        let armed_after = {
            let mut held = ready.lock();
            let tick = WakeCell::new();
            tick.stamp();
            let (_, now) = tick.take().expect("the stamp hook is installed");
            *held = true;
            q.wake_one(&held);
            now
        };
        let (waker, armed_ns) = sleeper.join().unwrap().expect("a real wake is attributed");
        assert_eq!(waker, 7);
        assert!(
            armed_ns > armed_after,
            "claimed a stamp from before it slept"
        );
        assert_eq!(q.cell.take(), None, "claimed once");
    }

    #[test]
    fn a_timed_out_sleeper_leaves_the_cell_empty() {
        let q = WaitQueue::new(WakeSite::Poll);
        let lock = Mutex::new(false);
        let mut held = lock.lock();
        let mut wait = q.wait(Some(Instant::now() + Duration::from_millis(10)));
        assert!(!wait.sleep(&mut held), "nobody woke it");
        assert_eq!(wait.stamp, None);
        assert_eq!(q.sleepers.load(Relaxed), 0);
        assert!(!wait.sleep(&mut held), "a passed deadline does not sleep");
    }

    #[test]
    fn late_waiter_leaves_a_sleepers_stamp_alone() {
        // An edge has woken a sleeper and armed the cell for it; before that
        // sleeper is back under the lock, a second thread calls `wait` with
        // a generation from before the edge (a shared epoll fd). It did not
        // sleep, so the stamp is not its to take.
        let w = PollWaker::new(WakeSite::EpollWait);
        let gen = w.generation();
        w.wake();
        w.queue.cell.stamp_as(7, 123);
        assert_eq!(w.wait(gen, None), WaitEnd::Edge(None));
        assert_eq!(w.queue.cell.take(), Some((7, 123)), "stamp must survive");
    }

    #[test]
    fn two_sleepers_on_one_waker_claim_one_stamp_once() {
        let w = Arc::new(PollWaker::new(WakeSite::EpollWait));
        let gen = w.generation();
        let sleepers: Vec<_> = (0..2)
            .map(|_| {
                let w = w.clone();
                thread::spawn(move || w.wait(gen, None))
            })
            .collect();
        loop {
            let held = w.gen.lock();
            if w.queue.sleepers.load(Relaxed) == 2 {
                break;
            }
            drop(held);
            thread::sleep(Duration::from_millis(1));
        }
        {
            // What `wake()` does with tracing on, with a stamp this test can
            // recognise armed by hand under the same lock.
            let mut held = w.gen.lock();
            *held += 1;
            w.queue.cell.stamp_as(7, 123);
            w.queue.cv.notify_all();
        }
        let ends: Vec<_> = sleepers.into_iter().map(|s| s.join().unwrap()).collect();
        let claimed = (ends.iter())
            .filter(|e| **e == WaitEnd::Edge(Some((7, 123))))
            .count();
        assert_eq!(claimed, 1, "one edge, one attribution: {ends:?}");
        assert!(ends.iter().all(|e| matches!(e, WaitEnd::Edge(_))));
        assert_eq!(
            w.queue.cell.take(),
            None,
            "nothing is left for a later wait"
        );
    }
}

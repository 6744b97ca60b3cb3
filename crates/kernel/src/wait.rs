//! The one wait queue behind every attributed sleep in the kernel.
//!
//! A blocking `read`/`write` on a pipe or socket, a blocking `accept`, a
//! blocking `epoll_wait`/`poll`, a blocking `waitpid` and an `aio_suspend`
//! all wait for their predicate the same way, so the protocol is written
//! once, here. A [`WaitQueue`] lives beside whatever mutex guards the
//! predicate its waiters wait for (a byte buffer, an accept queue, a
//! generation counter, a parent's child set, an AIO control block's state)
//! and owns the rest: the futex word its sleepers sleep on, the waiter
//! count and the wait-length evidence (one [`Waiters`]), the
//! wake-attribution cell, the blocking span. Every method that touches them
//! takes the owner's `MutexGuard` as proof the lock is held; that lock
//! orders wakers against waiters, and the four rules (argued in DESIGN.md
//! §4 "Readiness & wait queues") lean on it:
//!
//! 1. **No host system call without a sleeper.** Waiters count themselves
//!    in and out under the lock; a wake that reads zero does nothing at all
//!    — no bump of the word, no `futex_wake`, no stamp — and one that reads
//!    only spinners wakes nobody and leaves the word alone. It cannot be
//!    racing a thread that has checked the predicate but not yet counted
//!    in: that thread still holds the lock.
//! 2. **Only a waiter claims the stamp, and claims it under the lock.**
//!    The cell is armed only while somebody is counted in, and everybody
//!    counted in takes it on coming back, so it is empty whenever nobody
//!    waits: a call that never waited never touches it, one edge is
//!    attributed at most once. Whether a claimed stamp is *emitted* is the
//!    call's decision at [`Wait::finish`] — a timeout or an empty re-scan
//!    attributes nothing.
//! 3. **The edge lands inside the span.** The first wait of a call — spin
//!    pass or sleep — opens the site's blocking span
//!    ([`WakeSite::blocking_span`]); [`Wait::finish`] emits the wake edge
//!    and *then* the span's `Exit` (oracle family J2). A call that never
//!    waits emits neither.
//! 4. **Spin only on the queue's own evidence, timed at the waker.** Each
//!    queue's [`Waiters`] keeps how long its last completed wait took, from
//!    the waiting call's first failed check to the wake that made the
//!    predicate true, timed by the *waker* in
//!    [`WaitQueue::wake_all`]/[`WaitQueue::wake_one`] — so a slow OS wake-up
//!    never lengthens the sample and cannot argue for the next sleep. A call
//!    on a queue whose last wait was shorter than [`SPIN_BREAK_EVEN_NS`],
//!    and was timed less than 1 ms before the call began (`EVIDENCE_NS`: an
//!    older sample describes a regime that may be over), spins up to that
//!    long: each pass counts in as a spinner, releases the lock,
//!    `sched_yield`s, re-takes the lock and returns to the caller's
//!    re-check. A spinner is counted in while the lock is free, so the waker
//!    that satisfies it sees it, stamps for it and times its wait; past the
//!    break-even the call falls through to the sleep: count in and read the
//!    word under the lock, sleep on the word with the lock released. The
//!    waker bumps the word under that same lock, so no wake can fall
//!    between: the sleep is on the host's futex list when the wake scans
//!    it, or finds the word moved and returns at once (std's futex condvar
//!    works the same way). A queue with no history sleeps at once.
//!    [`Waiters`] is the rule for the runtime too: every `Parker`
//!    (`ulp-core`'s `park.rs`, "The idle decision") holds one, decides with
//!    the same [`Waiters::spin`] and sleeps on the same word — one rule, one
//!    break-even, one way to sleep.
//!
//! `Wait::sleep` is the kernel's one spin site (`tools/loc.sh --check`).
//! The one wait outside this module, on purpose, is
//! [`crate::futex::Semaphore`] (the paper's §VI-C BLOCKING primitive):
//! lock-free on a futex word of its own, with no mutex to ride and no spin
//! arm.

use crate::cost::{now_ns, ns_at};
use crate::errno::KResult;
use crate::futex::{futex_sleep, futex_wake};
use crate::kernel::errno_of;
use crate::trace::{self, SyscallPhase, Sysno, WakeCell, WakeSite};
use parking_lot::MutexGuard;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering::Relaxed, Ordering::SeqCst};
use std::time::Instant;

/// A wait whose predecessor took less than this spins before it sleeps, for
/// at most this long: about what the sleep it avoids costs (a futex sleep
/// and its OS-thread wake-up take 14–40 µs on the 2-vCPU reference host),
/// so a wrong guess wastes no more than a right one saves.
/// `echo`'s waits — a client's reply, the server's next request — end in a
/// few µs and cannot tell 10, 20 and 50 µs apart: ten `--seconds 8` runs
/// each, `op_p50_us` median [q1–q3] 6.79 [6.61–6.86], 6.99 [6.65–7.08],
/// 7.03 [6.84–7.21] and `cpu_us_per_op` 3.52 [3.49–3.58], 3.66 [3.47–3.75],
/// 3.64 [3.48–3.71], against 14.0 [13.4–14.4] and 6.71 [6.56–6.90] sleeping
/// at once.
pub const SPIN_BREAK_EVEN_NS: u64 = 20_000;

/// How long after its waker timed it a short last wait is still evidence:
/// the waiting side has been busy since (a coupled scope blocked in the
/// kernel, a UC run at home), and either wrong answer now costs at most one
/// break-even per millisecond of work, 2 %.
const EVIDENCE_NS: u64 = 50 * SPIN_BREAK_EVEN_NS;

/// One spinner in a [`Waiters`] count: spinners count in the high half of
/// the word and sleepers in the low half ([`SLEEPERS`]), so a waker's one
/// load says both whether anybody waits and whether anybody needs a wake-up.
pub const SPINNER: u32 = 1 << 16;

/// The sleepers' half of a [`Waiters`] count.
pub const SLEEPERS: u32 = SPINNER - 1;

/// Who waits for one thing, rule 4's evidence for whether the next waiter
/// spins, and the futex word its sleepers sleep on: the count of waiters,
/// the first failed check of the wait the first of them belongs to, how long
/// the last wait a waker ended took, and when. Every kernel wait queue holds
/// one, and so does every `Parker` of the runtime. The holder orders wakers
/// against waiters (a mutex here, the queue lock and the futex protocol
/// there); the stamps only steer the decision, so a stale read costs one
/// spin pass or one sleep too many, never a wake.
#[derive(Debug)]
pub struct Waiters {
    /// Sleepers in units of one, spinners in units of [`SPINNER`].
    count: AtomicU32,
    /// What the sleepers sleep on; moves only on a [`Waiters::poke`].
    word: AtomicU32,
    /// The first failed check of the wait the first waiter counted in belongs
    /// to, on the [`now_ns`] clock.
    since: AtomicU64,
    /// How long the last wait a waker ended took (`u64::MAX`: none yet).
    last_wait: AtomicU64,
    /// When its waker timed it, on the [`now_ns`] clock.
    timed_at: AtomicU64,
}

impl Default for Waiters {
    /// Nobody counted in, no history: the first wait sleeps.
    fn default() -> Waiters {
        Waiters {
            count: AtomicU32::new(0),
            word: AtomicU32::new(0),
            since: AtomicU64::new(0),
            last_wait: AtomicU64::new(u64::MAX),
            timed_at: AtomicU64::new(0),
        }
    }
}

impl Waiters {
    /// Rule 4: whether a wait whose first failed check was at `since` spins
    /// at `now` — it is younger than [`SPIN_BREAK_EVEN_NS`], and so was the
    /// last wait a waker ended, timed at most `EVIDENCE_NS` (1 ms) before
    /// this one began. An undated wait (`since` 0) sleeps.
    #[inline]
    pub fn spin(&self, since: u64, now: u64) -> bool {
        since != 0
            && now.saturating_sub(since) < SPIN_BREAK_EVEN_NS
            && self.last_wait.load(Relaxed) < SPIN_BREAK_EVEN_NS
            && since.saturating_sub(self.timed_at.load(Relaxed)) < EVIDENCE_NS
    }

    /// Count a waiter of the wait whose first failed check was at `since`
    /// in (0: undated, so its waker reads no clock and takes no sample):
    /// `unit` is 1 for a sleeper, [`SPINNER`] for a spinner. A sleeper's
    /// count-in is the announce a futex protocol pairs with its waker, hence
    /// `SeqCst`.
    #[inline]
    pub fn count_in(&self, unit: u32, since: u64) {
        if self.count.fetch_add(unit, SeqCst) == 0 {
            self.since.store(since, Relaxed);
        }
    }

    /// Count a waiter counted in with `unit` out again.
    #[inline]
    pub fn count_out(&self, unit: u32) {
        self.count.fetch_sub(unit, SeqCst);
    }

    /// Everybody counted in: sleepers in [`SLEEPERS`], spinners above.
    #[inline]
    pub fn counted(&self) -> u32 {
        self.count.load(SeqCst)
    }

    /// The waker's half, where it made the predicate true: if anybody is
    /// counted in and their wait is dated, time it, from its first failed
    /// check to now. Returns the count it read.
    #[inline]
    pub fn ended(&self) -> u32 {
        let counted = self.counted();
        if counted != 0 {
            let since = self.since.load(Relaxed);
            if since != 0 {
                let now = now_ns();
                self.last_wait.store(now.saturating_sub(since), Relaxed);
                self.timed_at.store(now, Relaxed);
            }
        }
        counted
    }

    /// The futex word: a sleeper reads it before its last check of whatever
    /// it waits for, and sleeps on it only while it still reads the same.
    #[inline]
    pub fn word(&self) -> &AtomicU32 {
        &self.word
    }

    /// Move the word, then wake up to `n` of its sleepers if any is counted
    /// in. The `SeqCst` bump → count load pairs with a sleeper's `SeqCst`
    /// count-in → word load, so the system call is skipped only when no
    /// sleeper can be about to sleep on the old word.
    #[inline]
    pub fn poke(&self, n: i32) {
        self.word.fetch_add(1, SeqCst);
        if self.counted() & SLEEPERS != 0 {
            futex_wake(&self.word, n);
        }
    }
}

/// Process-wide outcomes of calls that had to wait (`ulp_kernel_wait_total`).
static SPIN_HITS: AtomicU64 = AtomicU64::new(0);
static SPIN_MISSES: AtomicU64 = AtomicU64::new(0);
static SLEEPS: AtomicU64 = AtomicU64::new(0);

/// How the waits of blocking kernel calls have ended, summed over every
/// kernel in the process; calls that never had to wait count nowhere.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WaitOutcomes {
    /// Calls that spun and whose wait was satisfied while spinning: an
    /// OS-thread sleep and wake saved.
    pub spin_hits: u64,
    /// Calls that spun and then slept, timed out or gave up anyway: the
    /// spin was CPU spent for nothing.
    pub spin_misses: u64,
    /// Futex sleeps: every pass through the blocking arm.
    pub sleeps: u64,
}

impl WaitOutcomes {
    /// The `outcome` label and count of each `ulp_kernel_wait_total` series.
    pub fn rows(&self) -> [(&'static str, u64); 3] {
        [
            ("spin_hit", self.spin_hits),
            ("spin_miss", self.spin_misses),
            ("sleep", self.sleeps),
        ]
    }
}

/// The process-wide [`WaitOutcomes`] so far.
pub fn wait_outcomes() -> WaitOutcomes {
    WaitOutcomes {
        spin_hits: SPIN_HITS.load(Relaxed),
        spin_misses: SPIN_MISSES.load(Relaxed),
        sleeps: SLEEPS.load(Relaxed),
    }
}

/// The waiters on one predicate. See the module docs for the protocol.
#[derive(Debug)]
pub(crate) struct WaitQueue {
    /// Threads counted in by [`Wait::sleep`], rule 4's evidence, and the
    /// word the sleepers sleep on. Counted and poked only under the owner's
    /// lock.
    pub(crate) waiters: Waiters,
    cell: WakeCell,
    site: WakeSite,
    span: Sysno,
}

impl WaitQueue {
    /// A queue whose waits show up as `site`'s blocking span and whose
    /// wake edges carry `site`.
    pub(crate) fn new(site: WakeSite) -> WaitQueue {
        WaitQueue {
            waiters: Waiters::default(),
            cell: WakeCell::new(),
            site,
            span: site
                .blocking_span()
                .expect("a wait queue serves a site that sleeps inside a blocking span"),
        }
    }

    /// The predicate changed: release every waiter, if there is one.
    pub(crate) fn wake_all<T>(&self, _held: &MutexGuard<'_, T>) {
        if self.wait_ended() {
            self.waiters.poke(i32::MAX);
        }
    }

    /// The predicate changed for one taker: release one waiter, if any.
    pub(crate) fn wake_one<T>(&self, _held: &MutexGuard<'_, T>) {
        if self.wait_ended() {
            self.waiters.poke(1);
        }
    }

    /// The waker's half: if anybody is counted in, stamp for them and time
    /// their wait (rule 4). Returns whether a sleeper is among them.
    #[inline]
    fn wait_ended(&self) -> bool {
        let waiting = self.waiters.ended();
        if waiting == 0 {
            return false;
        }
        self.cell.stamp();
        waiting & SLEEPERS != 0
    }

    /// Begin one blocking call. Nothing happens until its first
    /// [`Wait::sleep`].
    pub(crate) fn wait(&self, deadline: Option<Instant>) -> Wait<'_> {
        Wait {
            queue: self,
            deadline,
            blocked: false,
            since: 0,
            spinning: false,
            stamp: None,
        }
    }
}

/// One blocking call's passage through a [`WaitQueue`]: any number of spin
/// passes and sleeps between re-checks of the predicate, then one
/// [`Wait::finish`].
#[derive(Debug)]
pub(crate) struct Wait<'q> {
    queue: &'q WaitQueue,
    deadline: Option<Instant>,
    /// The blocking span is open.
    blocked: bool,
    /// The call's first failed check, on the [`now_ns`] clock (once
    /// `blocked`).
    since: u64,
    /// The call has spun and not slept since: its spin's outcome is open.
    spinning: bool,
    /// What the latest pass found in the cell: the stamp it claimed.
    pub(crate) stamp: Option<(u64, u64)>,
}

impl Wait<'_> {
    /// Wait once — one spin pass, or a sleep until woken or the deadline —
    /// releasing `held` meanwhile. Returns `false` if the deadline passed;
    /// either way the caller re-checks its predicate (a pass or a wake may
    /// find it still false).
    pub(crate) fn sleep<T>(&mut self, held: &mut MutexGuard<'_, T>) -> bool {
        let q = self.queue;
        let at = Instant::now();
        let now = ns_at(at);
        if !self.blocked {
            self.blocked = true;
            self.since = now;
            trace::emit(q.span, SyscallPhase::Enter);
        }
        let left = match self.deadline {
            Some(d) if d <= at => {
                self.stamp = None;
                return false;
            }
            d => d.map(|d| d - at),
        };
        if q.waiters.spin(self.since, now) {
            self.spinning = true;
            q.waiters.count_in(SPINNER, self.since);
            MutexGuard::unlocked(held, std::thread::yield_now);
            q.waiters.count_out(SPINNER);
            self.stamp = q.cell.take();
            return true;
        }
        if std::mem::take(&mut self.spinning) {
            SPIN_MISSES.fetch_add(1, Relaxed);
        }
        SLEEPS.fetch_add(1, Relaxed);
        let w = &q.waiters;
        w.count_in(1, self.since);
        // Read under the lock every poke takes: one after the unlock moves
        // the word, and the sleep returns at once. No `futex_wait` span: the
        // call's blocking span is open already.
        let seen = w.word().load(Relaxed);
        let woken = MutexGuard::unlocked(held, || futex_sleep(w.word(), seen, left));
        w.count_out(1);
        self.stamp = q.cell.take();
        woken
    }

    /// End the call with `res`; `attribute` says an edge is what ended the
    /// wait. If it waited: emit the claimed wake edge if `attribute`, close
    /// the span, and count a spin that never slept as a hit or a miss by
    /// the same word.
    pub(crate) fn finish<R>(self, res: &KResult<R>, attribute: bool) {
        if !self.blocked {
            return;
        }
        if self.spinning {
            let outcome = if attribute { &SPIN_HITS } else { &SPIN_MISSES };
            outcome.fetch_add(1, Relaxed);
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
    use std::sync::{mpsc, Arc, Once};
    use std::thread;
    use std::time::Duration;

    /// With a stamp hook installed and a recorder counted in,
    /// `WakeCell::stamp` really arms the cell, so an ungated wake would
    /// show. (First install wins and this is the only installer in the
    /// unit-test binary; the other hooks do nothing. The recorder stays
    /// counted in for the rest of the binary, as the hook stays installed.)
    fn install_stamp_hook() {
        static CLOCK: AtomicU64 = AtomicU64::new(1);
        static RECORDING: Once = Once::new();
        KernelHooks {
            syscall: |_, _| {},
            wake_stamp: || (7, CLOCK.fetch_add(1, Relaxed)),
            wake_emit: |_, _, _| {},
            proc: |_: ProcSource| None,
        }
        .install();
        RECORDING.call_once(crate::trace::start_recording);
    }

    fn sleepers_reach<T>(q: &WaitQueue, lock: &Mutex<T>, n: u32) {
        loop {
            let held = lock.lock();
            if q.waiters.counted() >= n {
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

    /// Rule 1, seen from outside: a wake that finds nobody counted in, or
    /// only a spinner, leaves the word where it was (no bump, so no
    /// `futex_wake` either); each wake that finds a sleeper moves it once.
    #[test]
    fn a_wake_moves_the_word_only_for_a_sleeper() {
        let q = WaitQueue::new(WakeSite::SockRead);
        let lock = Mutex::new(());
        let held = lock.lock();
        let word = || q.waiters.word().load(SeqCst);
        let before = word();
        let wake_both = || {
            q.wake_one(&held);
            q.wake_all(&held);
        };
        wake_both();
        assert_eq!(word(), before, "nobody counted in, yet the word moved");
        q.waiters.count_in(SPINNER, 0);
        wake_both();
        q.waiters.count_out(SPINNER);
        assert_eq!(
            word(),
            before,
            "only a spinner counted in, yet the word moved"
        );
        q.waiters.count_in(1, 0);
        wake_both();
        q.waiters.count_out(1);
        assert_eq!(word(), before.wrapping_add(2), "a sleeper counted in");
    }

    /// Two sleepers wait for one token each: one `wake_one` with one token
    /// releases exactly one of them, the other is still counted in as a
    /// sleeper 20 ms later, and a second `wake_one` releases it.
    #[test]
    fn wake_one_releases_one_taker() {
        let q = Arc::new(WaitQueue::new(WakeSite::Accept));
        let tokens = Arc::new(Mutex::new(0u32));
        let (done, released) = mpsc::channel();
        let takers: Vec<_> = (0..2)
            .map(|taker| {
                let (q, tokens, done) = (q.clone(), tokens.clone(), done.clone());
                thread::spawn(move || {
                    let mut held = tokens.lock();
                    let mut wait = q.wait(None);
                    while *held == 0 {
                        wait.sleep(&mut held);
                    }
                    *held -= 1;
                    done.send(taker).unwrap();
                })
            })
            .collect();
        sleepers_reach(&q, &tokens, 2);
        let give_one = || {
            let mut held = tokens.lock();
            *held += 1;
            q.wake_one(&held);
        };
        let watchdog = Duration::from_secs(10);
        give_one();
        let first = (released.recv_timeout(watchdog)).expect("no taker released in 10 s");
        thread::sleep(Duration::from_millis(20));
        assert!(
            released.try_recv().is_err(),
            "one token released two takers"
        );
        {
            let held = tokens.lock();
            assert_eq!(
                (*held, q.waiters.counted()),
                (0, 1),
                "the other taker is still counted in as a sleeper"
            );
        }
        give_one();
        let second = (released.recv_timeout(watchdog)).expect("the second taker was lost");
        assert_ne!(first, second);
        takers.into_iter().for_each(|t| t.join().unwrap());
    }

    #[test]
    fn a_timed_out_sleeper_leaves_the_cell_empty() {
        let q = WaitQueue::new(WakeSite::Poll);
        let lock = Mutex::new(false);
        let mut held = lock.lock();
        let mut wait = q.wait(Some(Instant::now() + Duration::from_millis(10)));
        assert!(!wait.sleep(&mut held), "nobody woke it");
        assert_eq!(wait.stamp, None);
        assert_eq!(q.waiters.counted(), 0);
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
            if w.queue.waiters.counted() == 2 {
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
            w.queue.waiters.poke(i32::MAX);
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

    /// A last wait well inside the break-even.
    const SHORT: u64 = SPIN_BREAK_EVEN_NS / 10;

    /// Give `w` a last wait of [`SHORT`] that never goes stale (timed "at"
    /// the end of the clock), so a waiter that is slow to start still spins.
    fn short_history(w: &Waiters) {
        w.last_wait.store(SHORT, Relaxed);
        w.timed_at.store(u64::MAX, Relaxed);
    }

    /// Attempts a test that must catch a waiter mid-spin makes before it
    /// gives up: one pass is a `sched_yield`, so a flipper on the other CPU
    /// catches one within a few attempts.
    const ATTEMPTS: usize = 1_000;

    /// One waiter on `q` for `*flag`, on a thread of its own; returns whether
    /// its call spun without ever sleeping, and how many passes it made.
    fn waiter(q: &Arc<WaitQueue>, flag: &Arc<Mutex<bool>>) -> thread::JoinHandle<(bool, usize)> {
        let (q, flag) = (q.clone(), flag.clone());
        thread::spawn(move || {
            let mut held = flag.lock();
            let mut wait = q.wait(None);
            let mut passes = 0;
            while !*held {
                wait.sleep(&mut held);
                passes += 1;
            }
            let spun_only = wait.spinning;
            drop(held);
            wait.finish(&Ok(()), true);
            (spun_only, passes)
        })
    }

    #[test]
    fn a_short_last_wait_catches_a_flip_without_a_sleep() {
        for _ in 0..ATTEMPTS {
            let q = Arc::new(WaitQueue::new(WakeSite::SockRead));
            short_history(&q.waiters);
            let flag = Arc::new(Mutex::new(false));
            let w = waiter(&q, &flag);
            // Flip the predicate the moment the waiter is seen spinning —
            // or, if it got to sleep first, once it is asleep.
            let caught = loop {
                let mut held = flag.lock();
                match q.waiters.counted() {
                    0 => {}
                    waiting => {
                        *held = true;
                        q.wake_all(&held);
                        break waiting == SPINNER;
                    }
                }
            };
            let (spun_only, passes) = w.join().unwrap();
            if caught {
                assert!(spun_only, "caught spinning, yet it slept ({passes} passes)");
                return;
            }
        }
        panic!("no waiter was caught spinning in {ATTEMPTS} attempts");
    }

    #[test]
    fn the_waker_times_the_wait() {
        let q = Arc::new(WaitQueue::new(WakeSite::SockRead));
        let flag = Arc::new(Mutex::new(false));
        let w = waiter(&q, &flag);
        sleepers_reach(&q, &flag, 1);
        thread::sleep(Duration::from_millis(2));
        let mut held = flag.lock();
        *held = true;
        q.wake_all(&held);
        // Timed by the wake, under the lock: before the sleeper runs again,
        // so however long its OS wake-up takes is not in the sample.
        let took = q.waiters.last_wait.load(Relaxed);
        drop(held);
        assert!((2_000_000..u64::MAX).contains(&took), "{took} ns");
        assert!(!w.join().unwrap().0, "no history: it slept");
    }

    #[test]
    fn no_history_or_a_long_one_sleeps_at_once() {
        for last in [u64::MAX, 10 * SPIN_BREAK_EVEN_NS] {
            let q = WaitQueue::new(WakeSite::SockRead);
            q.waiters.last_wait.store(last, Relaxed);
            q.waiters.timed_at.store(u64::MAX, Relaxed); // fresh: the length decides
            let lock = Mutex::new(false);
            let mut held = lock.lock();
            let timeout = Duration::from_millis(5);
            let t = Instant::now();
            let mut wait = q.wait(Some(t + timeout));
            // A spin pass would come back `true` after one yield.
            assert!(
                !wait.sleep(&mut held),
                "last wait {last} ns: it did not sleep"
            );
            assert!(t.elapsed() >= timeout && !wait.spinning);
        }
    }

    /// A short last wait is evidence for `EVIDENCE_NS` after its waker timed
    /// it: a call that begins later, the queue's owner having been busy
    /// meanwhile, sleeps at once.
    #[test]
    fn a_short_wait_timed_long_ago_sleeps_at_once() {
        let q = WaitQueue::new(WakeSite::SockRead);
        q.waiters.last_wait.store(SHORT, Relaxed);
        let timed = now_ns();
        q.waiters.timed_at.store(timed, Relaxed);
        assert!(q.waiters.spin(timed, timed), "fresh, it is spun for");
        thread::sleep(Duration::from_nanos(2 * EVIDENCE_NS));
        let lock = Mutex::new(false);
        let mut held = lock.lock();
        let timeout = Duration::from_millis(5);
        let t = Instant::now();
        let mut wait = q.wait(Some(t + timeout));
        assert!(!wait.sleep(&mut held), "a stale short wait was spun for");
        assert!(t.elapsed() >= timeout && !wait.spinning);
    }

    /// A wait counted in with `since` 0 — a BLOCKING park, a loop's first
    /// idle period — is undated: the waker that ends it takes no sample
    /// (the short history survives), and it never spins itself.
    #[test]
    fn an_undated_wait_is_no_sample() {
        let w = Waiters::default();
        short_history(&w);
        w.count_in(1, 0);
        assert_eq!(w.ended(), 1);
        w.count_out(1);
        let now = now_ns();
        assert!(w.spin(now, now), "the undated wait was timed");
        assert!(!w.spin(0, now), "an undated wait spun");
    }

    #[test]
    fn a_spin_past_its_budget_sleeps_and_is_woken() {
        // A flip landing anywhere around the end of the spin — mid-spin,
        // between the last pass and the announce, asleep — must end the
        // wait; a lost one leaves the waiter asleep with no deadline.
        let mut slept_then_woken = 0;
        for round in 0..2_000u64 {
            let q = Arc::new(WaitQueue::new(WakeSite::SockRead));
            short_history(&q.waiters);
            let flag = Arc::new(Mutex::new(false));
            let (done, finished) = mpsc::channel();
            let w = {
                let w = waiter(&q, &flag);
                thread::spawn(move || done.send(w.join().unwrap()))
            };
            while q.waiters.counted() == 0 {
                std::hint::spin_loop();
            }
            let delay = Duration::from_nanos(round % 40 * SPIN_BREAK_EVEN_NS / 20);
            let t = Instant::now();
            while t.elapsed() < delay {
                std::hint::spin_loop();
            }
            {
                let mut held = flag.lock();
                let asleep = q.waiters.counted() == 1;
                *held = true;
                q.wake_all(&held);
                drop(held);
                let (spun_only, passes) = finished
                    .recv_timeout(Duration::from_secs(5))
                    .expect("the flip was lost: still waiting 5 s later");
                if asleep {
                    assert!(!spun_only);
                    slept_then_woken += (passes > 1) as usize;
                }
            }
            w.join().unwrap().unwrap();
        }
        assert!(
            slept_then_woken > 0,
            "no round caught a waiter asleep after its spin"
        );
    }

    #[test]
    fn a_deadline_passing_mid_spin_times_out_on_time() {
        let q = WaitQueue::new(WakeSite::SockRead);
        short_history(&q.waiters);
        let lock = Mutex::new(false);
        let mut held = lock.lock();
        let t = Instant::now();
        let mut wait = q.wait(Some(t + Duration::from_nanos(SPIN_BREAK_EVEN_NS / 4)));
        let mut passes = 0;
        while wait.sleep(&mut held) {
            passes += 1;
        }
        assert!(
            wait.spinning,
            "a deadline inside the budget is met spinning"
        );
        assert!(
            passes > 0 && t.elapsed() < Duration::from_millis(5),
            "{passes} passes, {:?}",
            t.elapsed()
        );
        assert_eq!((q.waiters.counted(), wait.stamp), (0, None));

        // The same through a `PollWaker`: `TimedOut`, not a sleep to the end.
        let w = PollWaker::new(WakeSite::EpollWait);
        short_history(&w.queue.waiters);
        let t = Instant::now();
        let deadline = t + Duration::from_nanos(SPIN_BREAK_EVEN_NS / 4);
        assert_eq!(w.wait(w.generation(), Some(deadline)), WaitEnd::TimedOut);
        assert!(t.elapsed() < Duration::from_millis(5), "{:?}", t.elapsed());
    }

    #[test]
    fn a_spinner_and_a_sleeper_on_one_waker_claim_one_stamp_once() {
        for _ in 0..ATTEMPTS {
            let w = Arc::new(PollWaker::new(WakeSite::EpollWait));
            let gen = w.generation();
            let spawn = |w: &Arc<PollWaker>| {
                let w = w.clone();
                thread::spawn(move || w.wait(gen, None))
            };
            // The sleeper finds no history and sleeps; then the history
            // says "short", and the second waiter spins.
            let sleeper = spawn(&w);
            while w.queue.waiters.counted() != 1 {
                thread::yield_now();
            }
            short_history(&w.queue.waiters);
            let spinner = spawn(&w);
            let caught = loop {
                let mut held = w.gen.lock();
                match w.queue.waiters.counted() {
                    1 => continue,
                    waiting => {
                        // `wake()` with tracing on, stamp armed by hand.
                        *held += 1;
                        w.queue.cell.stamp_as(7, 123);
                        w.queue.waiters.poke(i32::MAX);
                        break waiting == SPINNER + 1;
                    }
                }
            };
            let ends = [sleeper.join().unwrap(), spinner.join().unwrap()];
            let claimed = (ends.iter())
                .filter(|e| **e == WaitEnd::Edge(Some((7, 123))))
                .count();
            assert_eq!(claimed, 1, "one edge, one attribution: {ends:?}");
            assert!(ends.iter().all(|e| matches!(e, WaitEnd::Edge(_))));
            assert_eq!(w.queue.cell.take(), None, "nothing is left");
            if caught {
                return;
            }
        }
        panic!("no spinner was caught beside the sleeper in {ATTEMPTS} attempts");
    }
}

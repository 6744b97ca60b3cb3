//! The parking queue: an intrusive FIFO of user contexts behind a one-RMW
//! lock, plus the [`Parker`] its idle consumers sleep on.
//!
//! One primitive serves every place a kernel context waits for a UC: the
//! run queue pairs its one queue with the parker idle schedulers sleep on,
//! and each [`KcShared`] pairs its `pending` queue with its own (the
//! trampoline / pool idle loop). A [`WaitList`] is the same queue holding
//! the UCs that wait for a condition ("Wait lists").
//!
//! ## The protocol
//!
//! A **consumer** that found nothing to run calls [`Parker::park`]:
//!
//! 1. *announce*: `sleepers += 1`;
//! 2. *re-check*: `version == seen`, and the queue it serves is empty
//!    **under the queue's lock** ([`ParkQueue::is_empty_locked`]);
//! 3. only then `futex_wait(version, seen)`; afterwards `sleepers -= 1`
//!    and back to the top of its loop, which pops before it parks again.
//!
//! A **producer** ([`ParkQueue::push`]) links the UC and reads `sleepers`
//! **inside the same critical section**; only when that read is non-zero
//! does it (after unlocking) bump `version` and `futex_wake`. (`sleepers`
//! is the low half of the parker's [`Waiters`] count; `Adaptive` spinners
//! count in the high half, which wakes nobody — "The idle decision".)
//!
//! Take one push *P* and one park *K* that serve the same queue. The queue
//! lock totally orders P's critical section and K's re-check of that queue:
//!
//! - **P first.** K's re-check acquires the lock after P released it, sees
//!   the UC and does not sleep.
//! - **K first.** K's announce is sequenced before K's lock acquire, and
//!   K's release synchronizes with P's acquire, so the announce *happens
//!   before* P's `sleepers` read. P therefore sees K's announce — then it
//!   bumps and wakes, and `futex_wait`'s in-kernel compare either sees the
//!   bump or K is already on the wait list the wake scans — or it sees K's
//!   later un-announce, in which case K is awake and on its way to a pop and
//!   a fresh park, to which the same two cases apply.
//!
//! Whichever critical section comes second sees the other. Nothing else is
//! needed: no `SeqCst` fence and no per-push `version` bump, so a push whose
//! consumers are all awake (every yield: the scheduler *is* the thread
//! pushing) costs the lock's one RMW.
//!
//! The `sleepers` read sits *inside* the critical section because the lock
//! acquire is the only edge the K-first case has: hoisted above the acquire
//! it races the announce (the eventcount this replaces needed a StoreLoad
//! fence on both sides for exactly that), and the unlock is a plain release
//! store, which orders nothing after it — "after the unlock" is not a place
//! the protocol can reason from. For the same reason the consumer's
//! emptiness re-check may not use the lock-free [`ParkQueue::len`].
//!
//! **Non-queue events** — shutdown, sibling exit, handle close — change a
//! flag instead of a queue, so there is no lock to order them. They use
//! [`Parker::poke`]: store the flag, bump `version` unconditionally, wake if
//! anyone is announced. A consumer reads `seen = version` *before* it checks
//! those flags, so either it saw the bump (and with it the flag) or
//! `version != seen` turns its park into a no-op. They are rare.
//!
//! ## The lock
//!
//! Acquire is one `swap`, release a plain store. One critical section, the
//! yield's, spans a context switch ([`ParkQueue::pop_and_link`]): the
//! yielder pops the next UC, installs it, links itself at the tail and reads
//! the parker under one acquisition, and the incoming context releases the
//! lock once the switch has saved the yielder ([`ParkQueue::release`], run
//! from `Deferred::Release`) — Linux's `rq->lock`, held across
//! `context_switch()` and dropped in `finish_task_switch()`. No other thread
//! can pop the yielder before its registers are on its stack (Table I race
//! point 2), and a yield costs one RMW where a pop and a deferred push cost
//! two. Nothing that spins or enters the kernel runs under that hold: the
//! emulated TLS load and the signal-mask carry of the install run on the
//! incoming side, after the release. A waiter spins a bounded
//! number of `pause`s, taking the lock the moment a plain load sees it
//! free, and then puts its OS thread to sleep for the shortest time the
//! kernel grants (the timer slack, ~50 µs): critical sections are a handful
//! of pointer writes and at most one context switch, so a lock held for a
//! whole spin means the holder was preempted, and a sleeping waiter lets it
//! run. The back-off must be an *OS-thread* one — the waiter is inside the
//! run queue, so yielding to another ULP would recurse into the lock it
//! waits for ("Basic Lock Algorithms in Lightweight Thread Environments",
//! PAPERS.md) — and since the yield's hold spans a switch, a ULP yield by a
//! waiter would take the lock its own thread already holds. Debug builds
//! record the holding thread and panic on that re-acquisition (a lost
//! `Release`) instead of sleeping forever.
//!
//! It is a sleep and not `sched_yield()` because the usual holder is a
//! scheduler KC running a yield ring — a thread that never blocks and sits
//! in a critical section a quarter of the time. A freshly woken thread that
//! preempts it there, wants the lock and *yields* hands the CPU back for
//! the rest of the hog's time slice, since a yield moves the caller behind
//! every other runnable thread: 3–4 ms per push, measured as +23 % on
//! `yield_ring`'s set-up time (64 BLTs decoupling into a running ring on 2
//! CPUs). A sleeper is woken by its timer and preempts the hog again, so the
//! same collision costs ~60 µs.
//!
//! Critical sections never allocate: UCs are linked through
//! [`UcInner::qlink`], so a queue of 100k+ runnable UCs costs the same per
//! operation as a queue of two. (The one exception is an OS thread that
//! registers its parker on a [`WaitList`], whose vector may grow; a waiting
//! UC is linked like any other.)
//!
//! ## The idle decision
//!
//! Whether a consumer that found nothing spins or sleeps is decided in
//! [`Parker::park`] and nowhere else. BUSYWAIT always spins, BLOCKING always
//! sleeps (paper §VI-C); `Adaptive` — the default — applies the kernel's
//! rule through the kernel's type: every parker holds a [`Waiters`]
//! (`ulp_kernel`'s `wait.rs`, rule 4), and a consumer spins while its idle
//! period is younger than [`SPIN_BREAK_EVEN_NS`] and the parker's last wait
//! was shorter than that, and was timed less than 1 ms before the period
//! began; otherwise it announces and sleeps at once. A parker with no history
//! sleeps, and so does one whose consumer was busy for a millisecond since —
//! running a coupled scope that blocked in the kernel, hosting a UC at home:
//! the sample describes a regime that may be over.
//!
//! The last wait runs from the first failed check of the idle period the
//! first waiter counted in belongs to — kept in the consumer's [`IdleTally`],
//! which every idle loop owns — to the push that ended it, and it is timed
//! **by the pusher**, inside the critical section in which [`ParkQueue::push`]
//! reads the count anyway. A slow OS wake-up therefore never lengthens the
//! sample. (A predictor fed by the waiter's own idle gaps does, and was
//! bistable: sleeping makes the gap long, a long gap says sleep.) For the
//! pusher to see a spinner, a spin pass counts itself in, in the high half of
//! the count ([`SPINNER`]), and out after; a push that finds only spinners
//! times their wait and wakes nobody. Nothing is registered and nothing needs
//! balancing: a sample is a timestamp, so a UC that blocks or terminates
//! mid-scope leaves nothing behind. Only `Adaptive` dates a wait, and only a
//! dated one costs the push a clock read ([`IdleTally::starting`] has the
//! one undated `Adaptive` period).
//!
//! A spin pass returns to the caller's loop without announcing, exactly as
//! the BUSYWAIT arm does, so it re-reads its queue every pass and cannot lose
//! a wake-up: the announce → locked re-check → `futex_wait` protocol above is
//! what every sleep still goes through.
//!
//! ## Staying home
//!
//! A `decouple()` pays one hand-over to leave — a wake-up, or a slice of a
//! spinning scheduler — and its `couple()` a second to come back, and Table
//! I never says KC₁ ≠ KC₀. A `Primary` whose KC serves nobody else gains
//! nothing by leaving for a stretch shorter than that, *whoever is awake*:
//! under `Adaptive` it stays on its own KC iff its last decoupled stretch
//! came straight back ([`HOME_BREAK_EVEN_NS`]). Each UC carries that
//! evidence ([`Phases`]), timed **on the side that runs the stretch**:
//! `ult_gap` from its `decouple()` to the publication of its next
//! `CoupleRequest`, less `queued`, the part before a host dispatched it —
//! which contains the scheduler's wake-up exactly when the scheduler slept,
//! and a slow wake is the reason to stay, not to leave. Two clock reads per
//! couple/decouple pair — one in each — and a third per dispatch of a
//! primary by a scheduler; a stay is its own dispatch, at the `decouple()`'s
//! clock read. None on the yield path; with no history (a first
//! `decouple()`) the answer is leave.
//! At home `yield_now()` is the kernel's yield while the running stretch is
//! younger than the same break-even (one clock read, on the at-home branch
//! only) and hands the KC back after. The UC is never published to another
//! thread while it is at home, so none of the protocol above is involved:
//! `couple.rs` flips its flag on its own thread, switching nothing.
//!
//! ## Wait lists
//!
//! The same queue is where a UC waits for something other than a KC: a
//! [`WaitList`] is a `ParkQueue` of waiting UCs beside the parkers of
//! waiting OS threads, and its lock also guards its client's condition — a
//! join's exit status, an event's flag, a barrier's generation. A decoupled
//! UC checks the condition under the lock, links itself and switches to its
//! host with the lock still held, as a yield does ("The lock"): the host's
//! `Deferred::Unlock` releases it once the UC is saved, so no setter can
//! resume a context whose registers are not on its stack (Table I race
//! point 2). Any other waiter owns its OS thread and parks that thread's
//! one parker, registered under the lock, exactly as an idle loop parks —
//! the condition in place of the queue — by `Adaptive`'s rule under every
//! policy: BUSYWAIT and BLOCKING are an idle KC's (§VI-C), not a join's, and
//! a join that spun cost Table V's BUSYWAIT row 1.6×. The setter changes the
//! condition, takes the UCs and reads every registered parker's count in
//! one critical section, and after the unlock pushes the UCs to their run
//! queue and pokes the parkers that had a sleeper. A UC off the run queue
//! has no time-out to ride: a lost wake-up there is a hang, which the model
//! below rules out.
//!
//! `model.rs` next to this file checks the protocol — spinners' count and
//! the yield's held hand-over included — on every interleaving of its atomic
//! steps (2 producers × 1 yielder × 1 consumer) under sequential
//! consistency, and the wait list's (1 UC × 1 parker × 1 setter); the tests
//! below hammer the real thing.
//!
//! [`KcShared`]: crate::uc::KcShared
//! [`SPIN_BREAK_EVEN_NS`]: ulp_kernel::SPIN_BREAK_EVEN_NS

use crate::runtime::RuntimeInner;
use crate::stats::StatsShard;
use crate::trace::now_ns;
use crate::uc::{BltId, IdlePolicy, UcInner};
use std::cell::{Cell, OnceCell, UnsafeCell};
use std::ptr;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;
use ulp_kernel::{futex_wait_timeout, futex_wake, Waiters, SLEEPERS, SPINNER};

/// `pause`s a lock waiter spends before it sleeps its OS thread; also the
/// length of one BUSYWAIT / Adaptive idle pass, which ends in a
/// `sched_yield`: with more runnable KCs than cores the yield is what lets
/// them rotate (`couple_io`, 5 threads on 2 vCPUs: 157–163 k ops/s spinning
/// on `pause` alone, ~180 k sleeping every time, 383–413 k with the yield).
const SPINS: u32 = 64;

/// A decoupled stretch whose *own* run time — its host's dispatch of the UC →
/// the publication of its next `CoupleRequest`, the queue wait and the
/// scheduler's wake-up before it left out — was last shorter than this came
/// "straight back", and is worth keeping at home ("Staying home" above):
/// shorter, that is, than the two hand-overs leaving costs; a stretch at home
/// that outlives it leaves at its next `yield_now()`. A wrong stay costs one
/// stretch run on the UC's own KC instead of a program core, and the next
/// sample corrects it; a wrong leave costs two hand-overs. `echo`'s clients
/// run 0.3–1 µs between two requests and read the same at 5 µs, but this host
/// stalls a thread for more than 5 µs some 1 400 times a second (for more
/// than 20 µs, 150 times), and every sample that says "long" is a round trip
/// through a scheduler: a lone BLT's `coupled_scope(getpid)` loop read 552 ns
/// per round trip at 5 µs and 386 ns here.
const HOME_BREAK_EVEN_NS: u32 = 50_000;

/// A UC's intrusive queue link. A UC sits in at most one [`ParkQueue`] at
/// a time (it is in one queue, pending on one KC, or running — see
/// [`UcInner::ctx`]); the fields are only touched under that queue's lock.
pub struct QLink {
    prev: Cell<*const UcInner>,
    next: Cell<*const UcInner>,
    linked: Cell<bool>,
}

impl QLink {
    /// An unlinked link.
    pub(crate) const fn new() -> QLink {
        QLink {
            prev: Cell::new(ptr::null()),
            next: Cell::new(ptr::null()),
            linked: Cell::new(false),
        }
    }
}

/// Head and tail of the intrusive list. `head.prev` and `tail.next` are
/// never read, so neither end's neighbour is written on a pop.
struct Ends {
    head: *const UcInner,
    tail: *const UcInner,
}

/// A FIFO of UCs behind a one-RMW lock. The run queue and each KC's
/// `pending` queue sit on a [`CacheLine`] of their own; a [`WaitList`],
/// allocated with every UC's exit cell, does not pay for one.
pub struct ParkQueue {
    locked: AtomicBool,
    /// Mirror of the list length, written under the lock, readable without
    /// it: the empty-probe fast path and the gauges.
    len: AtomicUsize,
    ends: UnsafeCell<Ends>,
    /// The holding thread's [`thread_token`], 0 while free: a holder that
    /// acquires again panics instead of sleeping forever.
    #[cfg(debug_assertions)]
    holder: AtomicUsize,
}

/// A token for the calling OS thread: the address of one of its
/// thread-locals, distinct among live threads and never 0.
#[cfg(debug_assertions)]
fn thread_token() -> usize {
    thread_local!(static TOKEN: u8 = const { 0 });
    TOKEN.with(|t| ptr::from_ref(t) as usize)
}

// SAFETY: `ends` and the links of queued UCs are only accessed through a
// `ParkQueueGuard`, i.e. with `locked` held; `UcInner` is Send + Sync, and
// the queue owns one strong count per linked UC.
unsafe impl Send for ParkQueue {}
unsafe impl Sync for ParkQueue {}

impl Default for ParkQueue {
    fn default() -> ParkQueue {
        ParkQueue::new()
    }
}

/// `T` alone on its cache line: a hot queue's lock word, list ends and
/// length share theirs with nothing else.
#[repr(align(64))]
#[derive(Debug, Default)]
pub struct CacheLine<T>(T);

impl<T> std::ops::Deref for CacheLine<T> {
    type Target = T;

    #[inline]
    fn deref(&self) -> &T {
        &self.0
    }
}

impl std::fmt::Debug for ParkQueue {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ParkQueue")
            .field("len", &self.len())
            .finish()
    }
}

impl Drop for ParkQueue {
    fn drop(&mut self) {
        // Give back the strong counts of UCs still queued.
        let mut q = self.lock();
        while q.pop_front().is_some() {}
    }
}

impl ParkQueue {
    /// An empty queue.
    pub const fn new() -> ParkQueue {
        ParkQueue {
            locked: AtomicBool::new(false),
            len: AtomicUsize::new(0),
            ends: UnsafeCell::new(Ends {
                head: ptr::null(),
                tail: ptr::null(),
            }),
            #[cfg(debug_assertions)]
            holder: AtomicUsize::new(0),
        }
    }

    /// Acquire the queue lock. Critical sections must stay O(1) and must
    /// not block: waiters spin.
    #[inline]
    pub fn lock(&self) -> ParkQueueGuard<'_> {
        #[cfg(debug_assertions)]
        assert_ne!(
            self.holder.load(Ordering::Relaxed),
            thread_token(),
            "run-queue lock re-acquired by its holder: a Release was lost"
        );
        if self.locked.swap(true, Ordering::Acquire) {
            self.lock_contended();
        }
        #[cfg(debug_assertions)]
        self.holder.store(thread_token(), Ordering::Relaxed);
        #[cfg(test)]
        tests::holder_hook();
        ParkQueueGuard { q: self }
    }

    #[inline]
    fn unlock(&self) {
        #[cfg(debug_assertions)]
        self.holder.store(0, Ordering::Relaxed);
        self.locked.store(false, Ordering::Release);
    }

    #[cold]
    fn lock_contended(&self) {
        loop {
            for _ in 0..SPINS {
                // Test-and-test-and-set: the RMW only when the lock looks
                // free, and a lost race is no reason to give up the CPU.
                if !self.locked.load(Ordering::Relaxed)
                    && !self.locked.swap(true, Ordering::Acquire)
                {
                    return;
                }
                std::hint::spin_loop();
            }
            // Held for a whole spin: the holder is not running. Sleep, not
            // `sched_yield` (module docs): the shortest sleep the kernel
            // grants, its timer slack.
            std::thread::sleep(Duration::from_nanos(1));
        }
    }

    /// The producer half of the protocol (module docs): enqueue `uc`; if
    /// anybody waits on `parker` by the time the UC is linked, time their
    /// wait ("The idle decision"), and wake them iff a sleeper is among them.
    #[inline]
    pub fn push(&self, uc: Arc<UcInner>, parker: &Parker) {
        let sleeper = {
            let mut q = self.lock();
            q.push_back(uc);
            parker.ended()
        };
        if sleeper {
            parker.poke();
        }
    }

    /// The yield's one critical section ("The lock"): pop the oldest UC
    /// (`back`: the youngest), let `swap_in` install it and hand back the UC
    /// it displaced, link that one at the tail and read `parker` as
    /// [`ParkQueue::push`] does. An empty queue is one load and `None`.
    /// Otherwise this returns `swap_in`'s result and whether a sleeper was
    /// counted with the lock **still held**: the caller switches away, and
    /// the context that runs next on this thread calls
    /// [`ParkQueue::release`] before anything else.
    #[inline]
    pub fn pop_and_link<R>(
        &self,
        back: bool,
        parker: &Parker,
        swap_in: impl FnOnce(Arc<UcInner>) -> (Arc<UcInner>, R),
    ) -> Option<(R, bool)> {
        if self.len() == 0 {
            return None;
        }
        let mut q = self.lock();
        let next = if back { q.pop_back() } else { q.pop_front() }?;
        let (displaced, out) = swap_in(next);
        q.push_back(displaced);
        let sleeper = parker.ended();
        std::mem::forget(q);
        Some((out, sleeper))
    }

    /// End the critical section [`ParkQueue::pop_and_link`] left open, then
    /// wake the sleeper it counted — the order [`ParkQueue::push`] keeps.
    ///
    /// # Safety
    /// The calling thread holds the lock, left held by its own
    /// `pop_and_link` (debug builds check).
    #[inline]
    pub unsafe fn release(&self, parker: &Parker, sleeper: bool) {
        #[cfg(debug_assertions)]
        assert_eq!(
            self.holder.load(Ordering::Relaxed),
            thread_token(),
            "run-queue lock released by a thread that does not hold it"
        );
        self.unlock();
        if sleeper {
            parker.poke();
        }
    }

    /// End the critical section a [`ParkQueueGuard::hold`] left open.
    ///
    /// # Safety
    /// The calling thread holds `q`'s lock, left held by its own `hold`, and
    /// `q` is live until the unlock — its last access: a waiter linked on a
    /// [`WaitList`] may be resumed, and free the list, once it lands.
    pub unsafe fn release_held(q: ptr::NonNull<ParkQueue>) {
        let q = q.as_ref();
        #[cfg(debug_assertions)]
        assert_eq!(
            q.holder.load(Ordering::Relaxed),
            thread_token(),
            "wait-list lock released by a thread that does not hold it"
        );
        q.unlock();
    }

    /// Dequeue the oldest UC (`back`: the youngest — the chaos-biased
    /// order). An empty queue answers from the length mirror without
    /// touching the lock, so an empty probe is one load.
    #[inline]
    pub fn pop(&self, back: bool) -> Option<Arc<UcInner>> {
        if self.len() == 0 {
            return None;
        }
        let mut q = self.lock();
        if back {
            q.pop_back()
        } else {
            q.pop_front()
        }
    }

    /// Queued UCs, read without the lock (exact only when quiescent).
    #[inline]
    pub fn len(&self) -> usize {
        self.len.load(Ordering::Relaxed)
    }

    /// Emptiness under the lock — the consumer's re-check before it sleeps.
    pub fn is_empty_locked(&self) -> bool {
        self.lock().is_empty()
    }
}

/// Exclusive access to a [`ParkQueue`]'s list; unlocks on drop.
pub struct ParkQueueGuard<'a> {
    q: &'a ParkQueue,
}

impl Drop for ParkQueueGuard<'_> {
    #[inline]
    fn drop(&mut self) {
        self.q.unlock();
    }
}

impl ParkQueueGuard<'_> {
    #[inline]
    fn ends(&mut self) -> &mut Ends {
        // SAFETY: the guard holds the lock, and `&mut self` makes this the
        // only live reference derived from it.
        unsafe { &mut *self.q.ends.get() }
    }

    #[inline]
    fn set_len(&mut self, n: usize) {
        self.q.len.store(n, Ordering::Relaxed);
    }

    /// Whether the list is empty.
    #[inline]
    pub fn is_empty(&mut self) -> bool {
        self.ends().head.is_null()
    }

    /// Keep the lock held past this guard, across a switch: the context that
    /// runs next on this thread ends the critical section with
    /// [`ParkQueue::release_held`].
    pub fn hold(self) -> ptr::NonNull<ParkQueue> {
        let q = ptr::NonNull::from(self.q);
        std::mem::forget(self);
        q
    }

    /// Unlink every UC at once, in order, into a queue of the caller's, to be
    /// drained once this lock is released.
    pub fn take_all(&mut self) -> ParkQueue {
        let mut taken = ParkQueue::new();
        *taken.len.get_mut() = self.q.len();
        std::mem::swap(self.ends(), taken.ends.get_mut());
        self.set_len(0);
        taken
    }

    /// Link `uc` at the tail. Panics if it is already queued somewhere.
    #[inline]
    pub fn push_back(&mut self, uc: Arc<UcInner>) {
        let n = self.q.len() + 1;
        let ends = self.ends();
        assert!(!uc.qlink.linked.replace(true), "UC queued twice");
        uc.qlink.prev.set(ends.tail);
        let p = Arc::into_raw(uc);
        if ends.tail.is_null() {
            ends.head = p;
        } else {
            // SAFETY: a non-null `tail` is a linked UC whose strong count
            // the queue holds; links are ours under the lock.
            unsafe { (*ends.tail).qlink.next.set(p) };
        }
        ends.tail = p;
        self.set_len(n);
    }

    /// Unlink and return the head.
    #[inline]
    pub fn pop_front(&mut self) -> Option<Arc<UcInner>> {
        let ends = self.ends();
        let p = ends.head;
        if p.is_null() {
            return None;
        }
        // SAFETY: `p` is linked (see `push_back`), so it is live and its
        // `next` is valid unless it is also the tail.
        let uc = unsafe { &*p };
        if p == ends.tail {
            ends.head = ptr::null();
            ends.tail = ptr::null();
        } else {
            ends.head = uc.qlink.next.get();
        }
        self.unlinked(p)
    }

    /// Unlink and return the tail.
    pub fn pop_back(&mut self) -> Option<Arc<UcInner>> {
        let ends = self.ends();
        let p = ends.tail;
        if p.is_null() {
            return None;
        }
        // SAFETY: as in `pop_front`, with `prev` valid unless `p` is the head.
        let uc = unsafe { &*p };
        if p == ends.head {
            ends.head = ptr::null();
            ends.tail = ptr::null();
        } else {
            ends.tail = uc.qlink.prev.get();
        }
        self.unlinked(p)
    }

    #[inline]
    fn unlinked(&mut self, p: *const UcInner) -> Option<Arc<UcInner>> {
        self.set_len(self.q.len() - 1);
        // SAFETY: `p` came out of `Arc::into_raw` in `push_back` and was
        // just unlinked, so this reclaims exactly the queue's strong count.
        let uc = unsafe { Arc::from_raw(p) };
        uc.qlink.linked.set(false);
        Some(uc)
    }
}

/// What idle consumers of one or more [`ParkQueue`]s sleep on: the futex
/// word, who waits on it and for how long the last of them waited, and the
/// one place the [`IdlePolicy`] is interpreted.
#[derive(Debug)]
pub struct Parker {
    /// Futex word. Moves only when a sleeper was announced at a push, or on
    /// a [`Parker::poke`].
    version: AtomicU32,
    /// Consumers between announce and un-announce in [`Parker::park`], and
    /// `Adaptive` spinners for the length of a pass; the last wait a push
    /// ended (module docs, "The idle decision").
    waiters: Waiters,
    idle_policy: IdlePolicy,
    /// Bound on one futex sleep: callers re-check in a loop, and idle KCs
    /// run the stack scavenger once per pass.
    timeout: Duration,
}

impl Parker {
    /// A parker idling per `idle_policy`, sleeping at most `timeout` at a
    /// time.
    pub fn new(idle_policy: IdlePolicy, timeout: Duration) -> Parker {
        Parker {
            version: AtomicU32::new(0),
            waiters: Waiters::default(),
            idle_policy,
            timeout,
        }
    }

    /// The futex word; a consumer reads it *before* the checks that precede
    /// its [`Parker::park`].
    #[inline]
    pub fn version(&self) -> u32 {
        self.version.load(Ordering::SeqCst)
    }

    /// Bump `version` and wake every announced sleeper: the wake half of a
    /// push that saw one, and the whole of a non-queue event (the caller
    /// stored its flag first). The `SeqCst` bump → count load pairs with
    /// `park`'s `SeqCst` announce → `version` load, so the system call is
    /// skipped only when no consumer can be about to sleep on the old
    /// version.
    pub fn poke(&self) {
        self.version.fetch_add(1, Ordering::SeqCst);
        if self.waiters.counted() & SLEEPERS != 0 {
            futex_wake(&self.version, i32::MAX);
        }
    }

    /// A push's half of the protocol, called inside the critical section of
    /// the queue it linked a UC to: time the wait of whoever waits here
    /// ("The idle decision"), and say whether a sleeper is among them — one
    /// the pusher must [`Parker::poke`] once the lock is released.
    #[inline]
    pub(crate) fn ended(&self) -> bool {
        self.waiters.ended() & SLEEPERS != 0
    }

    /// Announced sleepers (tests wait on this to catch a consumer parked).
    #[cfg(test)]
    pub(crate) fn announced(&self) -> u32 {
        self.waiters.counted() & SLEEPERS
    }

    /// Everybody counted in, spinners too (tests wait on this to catch a
    /// consumer idle).
    #[cfg(test)]
    pub(crate) fn counted(&self) -> u32 {
        self.waiters.counted()
    }

    /// Idle once — the consumer half of the protocol (module docs). `seen`
    /// is the `version` read before the caller's fruitless checks, `idle`
    /// the caller's record of its idle period, and `queues_empty` re-checks
    /// the queue it serves under the queue's lock. Either one spin pass
    /// (BUSYWAIT, or `Adaptive` while the rule says spin) or a sleep until
    /// `version` moves (bounded by the time-out).
    pub fn park(
        &self,
        seen: u32,
        idle: &mut IdleTally,
        queues_empty: impl FnOnce() -> bool,
    ) -> Idled {
        // Torture hook: behave as the opposite idle policy for this one
        // call (no-op unless chaos is armed). Flipping BUSYWAIT→BLOCKING is
        // bounded by the time-out even if no producer ever wakes us.
        let policy = if crate::chaos::flip_idle() {
            match self.idle_policy {
                IdlePolicy::BusyWait => IdlePolicy::Blocking,
                IdlePolicy::Blocking | IdlePolicy::Adaptive => IdlePolicy::BusyWait,
            }
        } else {
            self.idle_policy
        };
        // Only `Adaptive` reads the clock: BLOCKING's sleep is the paper's,
        // and its waits are undated, so no push times them either.
        let since = match policy {
            IdlePolicy::BusyWait => {
                spin_pass();
                return idle.idled(Idled::Spun);
            }
            IdlePolicy::Blocking => 0,
            IdlePolicy::Adaptive => {
                let now = now_ns();
                let since = *idle.since.get_or_insert(now);
                if self.waiters.spin(since, now) {
                    // Counted in for the pass, so a push during it times this
                    // wait (and, finding no sleeper, wakes nobody).
                    self.waiters.count_in(SPINNER, since);
                    spin_pass();
                    self.waiters.count_out(SPINNER);
                    return idle.idled(Idled::Spun);
                }
                since
            }
        };
        self.waiters.count_in(1, since);
        let woken = self.version.load(Ordering::SeqCst) == seen
            && queues_empty()
            && futex_wait_timeout(&self.version, seen, self.timeout);
        self.waiters.count_out(1);
        idle.idled(if woken { Idled::Woken } else { Idled::Blocked })
    }
}

/// One idle pass that does not sleep: a bounded `pause` spin, then a
/// `sched_yield`. With fewer cores than spinning KCs a pure spin would stall
/// hand-offs for a scheduling quantum; the yield keeps busy-wait semantics
/// (no futex sleep) and lets the peer run. A no-op on the paper's dedicated
/// cores.
fn spin_pass() {
    for _ in 0..SPINS {
        std::hint::spin_loop();
    }
    std::thread::yield_now();
}

/// How one [`Parker::park`] call idled.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Idled {
    /// One spin pass: nothing announced, no system call.
    Spun,
    /// Announced, and came back on its own: the re-check refused the sleep,
    /// or the sleep timed out.
    Blocked,
    /// Announced, slept, and a producer's wake ended the sleep.
    Woken,
}

impl Idled {
    /// Whether the call took the blocking arm (Table V's `kc_blocks`).
    pub fn blocked(self) -> bool {
        self != Idled::Spun
    }
}

/// One idle loop's idle period, kept on its own stack: when it began — its
/// first failed check, from which [`Parker::park`] times it — and how it
/// ends, counted into the thread's stats shard (`ulp_park_total`): a period
/// that spun ends in a *hit* (work arrived — a sleep saved) or a *miss* (the
/// break-even passed and it slept anyway — up to
/// [`SPIN_BREAK_EVEN_NS`](ulp_kernel::SPIN_BREAK_EVEN_NS) of CPU
/// burnt).
#[derive(Debug, Default)]
pub struct IdleTally {
    /// The period's first failed check on the `now_ns()` clock (`None`: the
    /// loop is not idle, or has not parked under a policy that reads it; 0:
    /// undated, [`IdleTally::starting`]).
    since: Option<u64>,
    spinning: bool,
    /// Whose fallback shard counts the ends on a thread with no shard of its
    /// own (a plain thread's join, [`IdleTally::counting_into`]).
    fallback: Option<Arc<RuntimeInner>>,
}

impl IdleTally {
    /// The tally of a loop that starts idle — a scheduler, a pool KC. Its
    /// first idle period began before anything could be handed to it, so it
    /// is undated and the push that ends it takes no sample: a scheduler that
    /// started just before the first UC decoupled would sample a few µs, and
    /// spin on it through that UC's first coupled scope.
    pub(crate) fn starting() -> IdleTally {
        IdleTally {
            since: Some(0),
            ..IdleTally::default()
        }
    }

    /// The tally of a wait on a thread that may have no stats shard: it
    /// counts into `rt`'s fallback shard then.
    pub(crate) fn counting_into(rt: Option<Arc<RuntimeInner>>) -> IdleTally {
        IdleTally {
            fallback: rt,
            ..IdleTally::default()
        }
    }

    /// The loop popped a UC: the idle period is over.
    #[inline]
    pub(crate) fn found_work(&mut self) {
        self.since = None;
        if std::mem::take(&mut self.spinning) {
            self.count(StatsShard::bump_park_spin_hits);
        }
    }

    /// The loop idled once; passes `how` through.
    fn idled(&mut self, how: Idled) -> Idled {
        if how == Idled::Spun {
            self.spinning = true;
        } else {
            let missed = std::mem::take(&mut self.spinning);
            self.count(|s| {
                s.bump_park_sleeps();
                if missed {
                    s.bump_park_spin_misses();
                }
            });
        }
        how
    }

    /// Count into the thread's shard, or else the fallback's.
    fn count(&self, f: impl FnOnce(&StatsShard)) {
        crate::current::with_thread(|b| {
            let fallback = || self.fallback.as_ref().map(|rt| rt.stats.fallback());
            if let Some(s) = b.shard().or_else(fallback) {
                f(s);
            }
        });
    }
}

/// Longest single sleep of an OS thread on a [`WaitList`]. Only
/// [`WaitList::wake_all`] ends one, so the bound is a backstop for a lost
/// wake-up, which it turns into a one-second wait instead of a hang.
pub(crate) const WAIT_PARK_TIMEOUT: Duration = Duration::from_secs(1);

thread_local! {
    /// This OS thread's one wait parker, made on first use: one consumer, so
    /// its [`Waiters`] remember how long the thread's last wait took. It is
    /// `Adaptive` under every runtime's [`IdlePolicy`] ("Wait lists").
    static WAIT_PARKERS: OnceCell<Arc<Parker>> = const { OnceCell::new() };
}

/// The calling OS thread's wait parker.
pub(crate) fn wait_parker() -> Arc<Parker> {
    WAIT_PARKERS.with(|p| {
        p.get_or_init(|| Arc::new(Parker::new(IdlePolicy::Adaptive, WAIT_PARK_TIMEOUT)))
            .clone()
    })
}

/// The ULT-level wait list ("Wait lists" in the module docs): who waits for
/// a condition its client — `OneShot`, `UlpEvent`, `UlpBarrier` — keeps in
/// its own fields, reads under this list's lock and changes only in
/// [`WaitList::wake_all`].
#[derive(Debug, Default)]
pub struct WaitList {
    /// The waiting UCs, off every run queue; its lock guards `parkers` and
    /// the client's condition.
    ucs: ParkQueue,
    /// The parkers of the waiting OS threads.
    parkers: UnsafeCell<Vec<Arc<Parker>>>,
}

// SAFETY: `parkers` is only touched with `ucs`'s lock held; the queue is
// Send + Sync, and so is an `Arc<Parker>`.
unsafe impl Send for WaitList {}
unsafe impl Sync for WaitList {}

impl WaitList {
    /// A list nobody waits on.
    pub const fn new() -> WaitList {
        WaitList {
            ucs: ParkQueue::new(),
            parkers: UnsafeCell::new(Vec::new()),
        }
    }

    /// Wait until `ready` answers — at once if it does. A decoupled UC
    /// leaves the run queue onto this list; any other caller parks its OS
    /// thread's [`wait_parker`], counted (`ulp_park_total`) in the fallback
    /// shard of the runtime `rt` returns if the thread has no shard of its
    /// own. `ready` is asked once without the lock, then only under it.
    pub fn wait<R>(
        &self,
        rt: impl FnOnce() -> Option<Arc<RuntimeInner>>,
        ready: impl Fn() -> Option<R>,
    ) -> R {
        if let Some(v) = ready() {
            return v;
        }
        if crate::couple::is_coupled() == Some(false) {
            // Its OS thread is a scheduler's (or its own KC's trampoline's):
            // never park it.
            loop {
                let q = self.ucs.lock();
                if let Some(v) = ready() {
                    return v;
                }
                crate::couple::leave_onto(q);
            }
        }
        let parker = wait_parker();
        let idle = &mut IdleTally::counting_into(rt());
        loop {
            let seen = parker.version();
            {
                let _q = self.ucs.lock();
                if let Some(v) = ready() {
                    drop(_q);
                    idle.found_work();
                    return v;
                }
                // SAFETY: under the lock. A `wake_all` may have taken the
                // registration since the last pass (an event reset after it).
                let parkers = unsafe { &mut *self.parkers.get() };
                if !parkers.iter().any(|p| Arc::ptr_eq(p, &parker)) {
                    parkers.push(parker.clone());
                }
            }
            parker.park(seen, idle, || {
                let _q = self.ucs.lock();
                ready().is_none()
            });
        }
    }

    /// Make the client's condition true with `change`, under the list's
    /// lock, and take every waiter in the same critical section: the UCs go
    /// to their run queue and the parkers that `ended()` found asleep are
    /// poked, both after the unlock. A traced UC's wake edge names `setter`
    /// (`wait_list`), as a spawn's names the spawner.
    pub fn wake_all(&self, setter: BltId, change: impl FnOnce()) {
        let (ucs, sleepers) = {
            let mut q = self.ucs.lock();
            change();
            // SAFETY: under the lock.
            let mut parkers = unsafe { std::mem::take(&mut *self.parkers.get()) };
            parkers.retain(|p| p.ended());
            (q.take_all(), parkers)
        };
        while let Some(uc) = ucs.pop(false) {
            if let Some(rt) = uc.rt.upgrade() {
                if rt.tracer.is_enabled() {
                    uc.wake_from.store(
                        crate::uc::encode_wake_from(setter, ulp_kernel::WakeSite::WaitList),
                        Ordering::Relaxed,
                    );
                }
                rt.runq.push(uc);
            }
        }
        for p in sleepers {
            p.poke();
        }
    }
}

/// Nanoseconds as a phase length: saturating, so `u32::MAX` doubles as "no
/// history" (a first phase is measured from time zero and lands there).
fn phase_ns(from: u64, to: u64) -> u32 {
    u32::try_from(to.saturating_sub(from)).unwrap_or(u32::MAX)
}

/// A UC's stay-home evidence (module docs, "Staying home"): when its
/// decoupled stretch began and how long the last one took. Every field is
/// written by the thread that holds the UC at that point of its
/// couple/decouple cycle and read by the next one; the queue hand-over
/// between them orders the accesses, so they are `Relaxed`.
#[derive(Debug)]
pub struct Phases {
    /// `now_ns()` at this UC's last `decouple()`.
    since: AtomicU64,
    /// Last `decouple()` → `CoupleRequest` publication, timed on the hosts.
    ult_gap: AtomicU32,
    /// `decouple()` → the dispatch of this UC by a scheduler: the part of
    /// `ult_gap` it spent waiting — in the run queue, for a scheduler to wake
    /// up — rather than running. 0 until a scheduler dispatches it, and for a
    /// stretch at home, which nothing waits for.
    queued: AtomicU32,
}

impl Phases {
    /// No stretch timed yet: the first `decouple()` leaves.
    pub(crate) const fn new() -> Phases {
        Phases {
            since: AtomicU64::new(0),
            ult_gap: AtomicU32::new(u32::MAX),
            queued: AtomicU32::new(0),
        }
    }

    /// A scheduler is about to run this UC as a ULT, at `now`.
    pub(crate) fn hosted(&self, now: u64) {
        let since = self.since.load(Ordering::Relaxed);
        self.queued.store(phase_ns(since, now), Ordering::Relaxed);
    }

    /// This UC's `CoupleRequest` is about to be pushed, at `now`: its
    /// decoupled stretch ends.
    pub(crate) fn publishing(&self, now: u64) {
        let since = self.since.load(Ordering::Relaxed);
        self.ult_gap.store(phase_ns(since, now), Ordering::Relaxed);
    }

    /// This UC is in `decouple()` on its original KC, at `now`: its next
    /// decoupled stretch begins. Returns whether the evidence says *stay
    /// home*: `policy` is `Adaptive` and the last stretch came straight back
    /// (the caller knows whom the KC serves).
    pub(crate) fn decoupling(&self, now: u64, policy: IdlePolicy) -> bool {
        self.since.store(now, Ordering::Relaxed);
        // The last stretch's own run time, and a clean slate for the next: a
        // UC resumed by another's `yield_now()` is not timed, and counts the
        // whole of its next `ult_gap` as run.
        let ult_gap = self.ult_gap.load(Ordering::Relaxed);
        let ult_run = ult_gap.saturating_sub(self.queued.load(Ordering::Relaxed));
        self.queued.store(0, Ordering::Relaxed);
        // BLOCKING and BUSYWAIT are the paper's, and always hand over.
        policy == IdlePolicy::Adaptive && ult_run < HOME_BREAK_EVEN_NS
    }

    /// Whether the decoupled stretch this UC is running at home, at `now`, is
    /// still younger than a hand-over costs: until then its `yield_now()` has
    /// nowhere better to go ("Staying home").
    #[inline]
    pub(crate) fn home_stretch_is_young(&self, now: u64) -> bool {
        phase_ns(self.since.load(Ordering::Relaxed), now) < HOME_BREAK_EVEN_NS
    }
}

#[cfg(test)]
mod model;

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::runqueue::tests::dummy_uc;
    use std::time::Instant;
    use ulp_kernel::SPIN_BREAK_EVEN_NS;

    thread_local! {
        static YIELD_AS_HOLDER: Cell<bool> = const { Cell::new(false) };
        static ACQUIRED: Cell<u64> = const { Cell::new(0) };
    }

    /// Deschedule the calling thread every time it acquires a queue lock
    /// from now on, so waiters meet a holder that is not running.
    pub(crate) fn yield_as_lock_holder(on: bool) {
        YIELD_AS_HOLDER.with(|h| h.set(on));
    }

    pub(super) fn holder_hook() {
        ACQUIRED.with(|n| n.set(n.get() + 1));
        if YIELD_AS_HOLDER.with(Cell::get) {
            std::thread::yield_now();
        }
    }

    /// Queue locks the calling OS thread has acquired so far.
    fn acquired() -> u64 {
        ACQUIRED.with(Cell::get)
    }

    /// A yield is one critical section: with another UC runnable,
    /// `yield_now()` takes the run queue's lock once — pop, install and link,
    /// released across the switch — and with nothing runnable not at all.
    /// Two UCs ring on one scheduler, so every switch into one is the other's
    /// yield; each notes its thread's acquisitions just before it yields, and
    /// the one resumed reads how many that yield took.
    #[test]
    fn a_yield_takes_the_run_queue_lock_once() {
        use std::sync::atomic::Ordering::{Relaxed, SeqCst};
        const ROUNDS: usize = 200;
        let rt = crate::Runtime::builder()
            .schedulers(1)
            .idle_policy(IdlePolicy::Blocking)
            .build();
        let mark = Arc::new(AtomicU64::new(0));
        let arrived = Arc::new(AtomicUsize::new(0));
        let ring: Vec<_> = (0..2)
            .map(|i| {
                let (mark, arrived) = (mark.clone(), arrived.clone());
                rt.spawn(&format!("ring{i}"), move || {
                    crate::decouple().unwrap();
                    arrived.fetch_add(1, SeqCst);
                    while arrived.load(SeqCst) < 2 {
                        mark.store(acquired(), Relaxed);
                        crate::stall();
                    }
                    let taken: Vec<u64> = (0..ROUNDS)
                        .map(|_| {
                            mark.store(acquired(), Relaxed);
                            assert!(crate::yield_now(), "the other member is runnable");
                            acquired() - mark.load(Relaxed)
                        })
                        .collect();
                    // The last switch into whichever member finishes second is
                    // the scheduler's dispatch, not a yield.
                    assert!(taken[..ROUNDS - 1].iter().all(|&n| n == 1), "{taken:?}");
                    0
                })
            })
            .collect();
        for h in ring {
            assert_eq!(h.wait(), 0);
        }
        let alone = rt.spawn("alone", || {
            crate::decouple().unwrap();
            let before = acquired();
            assert!(!crate::yield_now(), "nothing else is runnable");
            assert_eq!(acquired(), before, "an empty run queue is one load");
            0
        });
        assert_eq!(alone.wait(), 0);
    }

    /// A lost `Release` is a reported outcome, not a hang: the thread that
    /// holds a queue's lock and acquires it again panics.
    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "run-queue lock re-acquired by its holder: a Release was lost")]
    fn reacquiring_a_held_lock_panics() {
        // Leaked: dropping it while unwinding would acquire the lock again.
        let q: &ParkQueue = Box::leak(Box::default());
        let p = Parker::new(IdlePolicy::BusyWait, TIMEOUT);
        q.push(dummy_uc(1), &p);
        let held = q.pop_and_link(false, &p, |next| (next, ()));
        assert_eq!(held, Some(((), false)));
        q.pop(false);
    }

    const TIMEOUT: Duration = Duration::from_millis(20);

    #[test]
    fn fifo_and_lifo_ends() {
        let q = ParkQueue::default();
        let p = Parker::new(IdlePolicy::BusyWait, TIMEOUT);
        assert!(q.pop(false).is_none());
        for i in 0..5 {
            q.push(dummy_uc(i), &p);
        }
        assert_eq!(q.len(), 5);
        assert_eq!(q.pop(false).unwrap().id.0, 0);
        assert_eq!(q.pop(true).unwrap().id.0, 4);
        assert_eq!(q.pop(true).unwrap().id.0, 3);
        assert_eq!(q.pop(false).unwrap().id.0, 1);
        assert_eq!(q.pop(true).unwrap().id.0, 2);
        assert!(q.is_empty_locked() && q.len() == 0);
        // Reusable after draining from either end, and a UC may re-queue.
        let uc = dummy_uc(9);
        q.push(uc.clone(), &p);
        assert!(Arc::ptr_eq(&q.pop(true).unwrap(), &uc));
        q.push(uc, &p);
        assert_eq!(q.pop(false).unwrap().id.0, 9);
    }

    #[test]
    #[should_panic(expected = "queued twice")]
    fn double_queueing_is_refused() {
        let (q, q2) = (ParkQueue::default(), ParkQueue::default());
        let p = Parker::new(IdlePolicy::BusyWait, TIMEOUT);
        let uc = dummy_uc(1);
        q.push(uc.clone(), &p);
        q2.push(uc, &p);
    }

    #[test]
    fn dropping_a_queue_releases_its_ucs() {
        let uc = dummy_uc(1);
        {
            let q = ParkQueue::default();
            q.push(uc.clone(), &Parker::new(IdlePolicy::BusyWait, TIMEOUT));
            assert_eq!(Arc::strong_count(&uc), 2);
        }
        assert_eq!(Arc::strong_count(&uc), 1);
    }

    #[test]
    fn park_does_not_sleep_on_a_stale_version_or_a_non_empty_queue() {
        let q = ParkQueue::default();
        let p = Parker::new(IdlePolicy::Blocking, Duration::from_secs(5));
        let idle = &mut IdleTally::default();
        let t = Instant::now();
        let seen = p.version();
        p.poke();
        assert_eq!(
            p.park(seen, idle, || true),
            Idled::Blocked,
            "Blocking blocks"
        );
        let seen = p.version();
        q.push(dummy_uc(1), &p); // silent: the version does not move
        assert_eq!(p.park(seen, idle, || q.is_empty_locked()), Idled::Blocked);
        assert!(t.elapsed() < Duration::from_secs(1), "neither park slept");
        assert_eq!(p.announced(), 0);
    }

    /// A park that announces calls `queues_empty`; a spin pass does not.
    fn announces(p: &Parker, idle: &mut IdleTally) -> bool {
        let announced = Cell::new(false);
        let how = p.park(p.version(), idle, || {
            announced.set(true);
            true
        });
        assert_eq!(announced.get(), how.blocked());
        announced.get()
    }

    /// Give `p` a last wait of about `took`, ended the way a push ends one.
    fn last_wait(p: &Parker, took: Duration) {
        p.waiters.count_in(1, now_ns());
        std::thread::sleep(took);
        p.waiters.ended();
        p.waiters.count_out(1);
    }

    const BREAK_EVEN: Duration = Duration::from_nanos(SPIN_BREAK_EVEN_NS);

    /// The decision table: BUSYWAIT never sleeps and BLOCKING always does,
    /// whatever the last wait; `Adaptive` sleeps at once with no history, a
    /// long last wait, a short one timed long ago or in a loop's first idle
    /// period, and after a fresh short one spins — announcing nothing — until
    /// its idle period is as old as the break-even, then sleeps.
    #[test]
    fn idle_decision_per_policy_and_last_wait() {
        let short = Duration::from_millis(1);
        let busy = Parker::new(IdlePolicy::BusyWait, short);
        assert!(!announces(&busy, &mut IdleTally::default()));
        let blocking = Parker::new(IdlePolicy::Blocking, short);
        last_wait(&blocking, Duration::ZERO);
        assert!(
            announces(&blocking, &mut IdleTally::default()),
            "Blocking sleeps after a short wait"
        );

        let ad = Parker::new(IdlePolicy::Adaptive, short);
        assert!(
            announces(&ad, &mut IdleTally::default()),
            "no history: sleep at once"
        );
        last_wait(&ad, 2 * BREAK_EVEN);
        assert!(
            announces(&ad, &mut IdleTally::default()),
            "a long last wait: sleep at once"
        );
        last_wait(&ad, Duration::ZERO);
        std::thread::sleep(Duration::from_millis(2));
        assert!(
            announces(&ad, &mut IdleTally::default()),
            "a short last wait timed 2 ms ago: sleep at once"
        );
        last_wait(&ad, Duration::ZERO);
        assert!(
            announces(&ad, &mut IdleTally::starting()),
            "a loop's first idle period: sleep at once"
        );
        last_wait(&ad, Duration::ZERO);
        let idle = &mut IdleTally::default();
        let t0 = now_ns();
        let mut passes = 0u32;
        while !announces(&ad, idle) {
            passes += 1;
        }
        let spun = now_ns() - t0;
        assert!(passes > 0, "a short last wait is worth a spin pass");
        assert!(
            spun >= SPIN_BREAK_EVEN_NS,
            "slept {spun} ns into the idle period, before the break-even"
        );
        assert_eq!(ad.waiters.counted(), 0, "every pass counted itself out");
        // Bounded by the idle period's age, not by a pass count: however slow
        // a pass is, the first one that starts past the break-even sleeps;
        // and work found starts a new period that may spin again.
        last_wait(&ad, Duration::ZERO);
        idle.found_work();
        assert!(!announces(&ad, idle), "a fresh period spins");
        std::thread::sleep(2 * BREAK_EVEN);
        assert!(announces(&ad, idle), "an old period is not spun for");
    }

    /// [`ParkQueue::push`], returning the count its critical section read.
    fn push_reading(q: &ParkQueue, uc: Arc<UcInner>, p: &Parker) -> u32 {
        let counted = {
            let mut g = q.lock();
            g.push_back(uc);
            p.waiters.ended()
        };
        if counted & SLEEPERS != 0 {
            p.poke();
        }
        counted
    }

    /// The pusher's half: a push that finds a spinner counted in times its
    /// wait and, with no sleeper among the waiters, neither bumps the version
    /// nor wakes; the spinner takes the UC on its next pass, never having
    /// announced. A push that ends a sleep times it too, so a 2 ms one makes
    /// the next idle period sleep at once.
    #[test]
    fn a_push_times_the_wait_and_wakes_only_a_sleeper() {
        for _ in 0..1_000 {
            let side = Arc::new((
                ParkQueue::default(),
                Parker::new(IdlePolicy::Adaptive, TIMEOUT),
            ));
            last_wait(&side.1, Duration::ZERO);
            let consumer = {
                let side = side.clone();
                std::thread::spawn(move || {
                    let (q, p) = &*side;
                    let (idle, mut announced) = (&mut IdleTally::default(), false);
                    loop {
                        let seen = p.version();
                        if let Some(uc) = q.pop(false) {
                            return (uc.id.0, announced);
                        }
                        announced |= p.park(seen, idle, || q.is_empty_locked()).blocked();
                    }
                })
            };
            // Push the moment the consumer is counted in. Whether the push
            // caught a spinner is what its critical section read: a spin may
            // run out between a look at the count and the push.
            let (q, p) = &*side;
            while p.waiters.counted() == 0 {
                std::hint::spin_loop();
            }
            let v = p.version();
            let caught = push_reading(q, dummy_uc(1), p) == SPINNER;
            if caught {
                assert_eq!(p.version(), v, "a push that found only a spinner woke");
            }
            let (id, announced) = consumer.join().unwrap();
            assert_eq!(id, 1);
            if !caught {
                continue;
            }
            assert!(!announced, "caught spinning, yet it announced");
            // Now a sleep: the spin runs out, the consumer announces, and the
            // push comes 2 ms later.
            let consumer = {
                let side = side.clone();
                std::thread::spawn(move || {
                    let (q, p) = &*side;
                    let idle = &mut IdleTally::default();
                    while q.pop(false).is_none() {
                        p.park(p.version(), idle, || q.is_empty_locked());
                    }
                })
            };
            while p.announced() == 0 {
                std::thread::yield_now();
            }
            std::thread::sleep(Duration::from_millis(2));
            q.push(dummy_uc(2), p);
            consumer.join().unwrap();
            let now = now_ns();
            assert!(!p.waiters.spin(now, now), "the 2 ms wait was not timed");
            return;
        }
        panic!("no consumer was caught spinning in 1 000 attempts");
    }

    /// Lost-wake hammer: single-item hand-offs between two OS threads under
    /// `Blocking`. A lost wake-up is a park that rides out its whole 20 ms
    /// time-out with a UC already queued, so the parks that lasted that long
    /// are counted: one per 1000 rounds (4 s lost over the run) fails. Wall
    /// time itself is no yardstick — on a loaded 2-vCPU host the 200 000
    /// honest futex round trips alone range from 0.5 s to 4 s.
    #[test]
    fn handoffs_lose_no_wakeup() {
        handoffs(IdlePolicy::Blocking);
    }

    /// The same under `Adaptive`, where each side expects the UC back: its
    /// last wait was a hand-over, short, so the taker spins, runs into the
    /// break-even whenever its peer is descheduled, sleeps, and is owed a
    /// wake-up just the same.
    #[test]
    fn handoffs_lose_no_wakeup_adaptive_with_expectation() {
        handoffs(IdlePolicy::Adaptive);
    }

    fn handoffs(policy: IdlePolicy) {
        const ROUNDS: u32 = 200_000;
        type Side = (ParkQueue, Parker);
        let side =
            || -> Arc<Side> { Arc::new((ParkQueue::default(), Parker::new(policy, TIMEOUT))) };
        /// Pop from `s`, parking while it is empty; counts time-outs.
        fn take(s: &Side, idle: &mut IdleTally, timed_out: &mut u32) -> Arc<UcInner> {
            loop {
                let seen = s.1.version();
                if let Some(uc) = s.0.pop(false) {
                    idle.found_work();
                    return uc;
                }
                let t = Instant::now();
                s.1.park(seen, idle, || s.0.is_empty_locked());
                *timed_out += (t.elapsed() >= TIMEOUT) as u32;
            }
        }
        let (ping, pong) = (side(), side());
        let t0 = Instant::now();
        let echo = {
            let (ping, pong) = (ping.clone(), pong.clone());
            std::thread::spawn(move || {
                let (mut idle, mut timed_out) = (IdleTally::default(), 0);
                for _ in 0..ROUNDS {
                    let uc = take(&ping, &mut idle, &mut timed_out);
                    pong.0.push(uc, &pong.1);
                }
                timed_out
            })
        };
        let (mut idle, mut timed_out) = (IdleTally::default(), 0);
        let mut uc = dummy_uc(1);
        for _ in 0..ROUNDS {
            ping.0.push(uc, &ping.1);
            uc = take(&pong, &mut idle, &mut timed_out);
        }
        timed_out += echo.join().unwrap();
        assert!(
            timed_out < ROUNDS / 1000,
            "{timed_out} of {ROUNDS} hand-offs rode out the park time-out ({:?} in all): \
             wake-ups are being lost",
            t0.elapsed()
        );
    }
}

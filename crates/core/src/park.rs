//! The parking queue: an intrusive FIFO of user contexts behind a one-RMW
//! lock, plus the [`Parker`] its idle consumers sleep on.
//!
//! One primitive serves every place a kernel context waits for a UC: the
//! run queue pairs its one queue with the parker idle schedulers sleep on,
//! and each [`KcShared`] pairs its `pending` queue with its own (the
//! trampoline / pool idle loop).
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
//! Acquire is one `swap`, release a plain store. A waiter spins a bounded
//! number of `pause`s, taking the lock the moment a plain load sees it
//! free, and then puts its OS thread to sleep for the shortest time the
//! kernel grants (the timer slack, ~50 µs): critical sections are a handful
//! of pointer writes, so a lock held for a whole spin means the holder was
//! preempted, and a sleeping waiter lets it run. The back-off must be an
//! *OS-thread* one — the waiter is inside the run queue, so yielding to
//! another ULP would recurse into the lock it waits for ("Basic Lock
//! Algorithms in Lightweight Thread Environments", PAPERS.md).
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
//! operation as a queue of two.
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
//! under `Adaptive` it stays on its own KC, hosted by its trampoline, iff its
//! last decoupled stretch came straight back ([`HOME_BREAK_EVEN_NS`]). Each UC
//! carries that evidence ([`Phases`]), timed **on the side that runs the
//! stretch**: `ult_gap` from its `decouple()` to the publication of its next
//! `CoupleRequest`, less `queued`, the part before a host dispatched it —
//! which contains the scheduler's wake-up exactly when the scheduler slept,
//! and a slow wake is the reason to stay, not to leave. Three clock reads per
//! couple/decouple pair (one of them per dispatch of a primary), none on the
//! yield path; with no history (a first `decouple()`) the answer is leave.
//! At home `yield_now()` is the kernel's yield while the running stretch is
//! younger than the same break-even (one clock read, on the at-home branch
//! only) and hands the KC back after. The UC is never published to another
//! thread while it is at home, so none of the protocol above is involved:
//! `couple.rs` and `kc.rs` have the switches.
//!
//! `model.rs` next to this file checks the protocol — spinners' count
//! included — on every interleaving of its atomic steps (2 producers × 1
//! consumer) under sequential consistency; the tests below hammer the real
//! thing.
//!
//! [`KcShared`]: crate::uc::KcShared
//! [`SPIN_BREAK_EVEN_NS`]: ulp_kernel::SPIN_BREAK_EVEN_NS

use crate::trace::now_ns;
use crate::uc::{IdlePolicy, UcInner};
use std::cell::{Cell, UnsafeCell};
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

/// A FIFO of UCs behind a one-RMW lock, padded to its own cache line (the
/// lock word, the list ends and the length share it and nothing else).
#[repr(align(64))]
pub struct ParkQueue {
    locked: AtomicBool,
    /// Mirror of the list length, written under the lock, readable without
    /// it: the empty-probe fast path and the gauges.
    len: AtomicUsize,
    ends: UnsafeCell<Ends>,
}

// SAFETY: `ends` and the links of queued UCs are only accessed through a
// `ParkQueueGuard`, i.e. with `locked` held; `UcInner` is Send + Sync, and
// the queue owns one strong count per linked UC.
unsafe impl Send for ParkQueue {}
unsafe impl Sync for ParkQueue {}

impl Default for ParkQueue {
    fn default() -> ParkQueue {
        ParkQueue {
            locked: AtomicBool::new(false),
            len: AtomicUsize::new(0),
            ends: UnsafeCell::new(Ends {
                head: ptr::null(),
                tail: ptr::null(),
            }),
        }
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
    /// Acquire the queue lock. Critical sections must stay O(1) and must
    /// not block: waiters spin.
    #[inline]
    pub fn lock(&self) -> ParkQueueGuard<'_> {
        if self.locked.swap(true, Ordering::Acquire) {
            self.lock_contended();
        }
        #[cfg(test)]
        tests::holder_hook();
        ParkQueueGuard { q: self }
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
            parker.waiters.ended() & SLEEPERS != 0
        };
        if sleeper {
            parker.poke();
        }
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
        self.q.locked.store(false, Ordering::Release);
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

    /// Announced sleepers (tests wait on this to catch a consumer parked).
    #[cfg(test)]
    pub(crate) fn announced(&self) -> u32 {
        self.waiters.counted() & SLEEPERS
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
            spinning: false,
        }
    }

    /// The loop popped a UC: the idle period is over.
    #[inline]
    pub(crate) fn found_work(&mut self) {
        self.since = None;
        if std::mem::take(&mut self.spinning) {
            crate::current::with_thread(|b| {
                if let Some(s) = b.shard() {
                    s.bump_park_spin_hits();
                }
            });
        }
    }

    /// The loop idled once; passes `how` through.
    fn idled(&mut self, how: Idled) -> Idled {
        if how == Idled::Spun {
            self.spinning = true;
        } else {
            let missed = std::mem::take(&mut self.spinning);
            crate::current::with_thread(|b| {
                if let Some(s) = b.shard() {
                    s.bump_park_sleeps();
                    if missed {
                        s.bump_park_spin_misses();
                    }
                }
            });
        }
        how
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
    /// `decouple()` → the dispatch of this UC by a host (a scheduler, or its
    /// own trampoline at home): the part of `ult_gap` it spent waiting — in
    /// the run queue, for a scheduler to wake up — rather than running. 0
    /// until a host dispatches it.
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

    /// A host (a scheduler, or the UC's own trampoline at home) is about to
    /// run this UC as a ULT, at `now`.
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
    }

    /// Deschedule the calling thread every time it acquires a queue lock
    /// from now on, so waiters meet a holder that is not running.
    pub(crate) fn yield_as_lock_holder(on: bool) {
        YIELD_AS_HOLDER.with(|h| h.set(on));
    }

    pub(super) fn holder_hook() {
        if YIELD_AS_HOLDER.with(Cell::get) {
            std::thread::yield_now();
        }
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
            // Push the moment the consumer is seen spinning — or, if it got
            // to sleep first, once it is asleep.
            let (q, p) = &*side;
            let caught = loop {
                match p.waiters.counted() {
                    0 => std::hint::spin_loop(),
                    counted => {
                        let v = p.version();
                        q.push(dummy_uc(1), p);
                        if counted == SPINNER {
                            assert_eq!(p.version(), v, "a push that found only a spinner woke");
                        }
                        break counted == SPINNER;
                    }
                }
            };
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

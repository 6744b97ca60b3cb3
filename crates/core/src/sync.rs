//! ULP-aware synchronization primitives.
//!
//! An OS mutex or condition variable blocks the **kernel context**, which
//! under a ULT runtime stalls every other user context that scheduler
//! would have run — the very problem the paper exists to solve for system
//! calls. No waiter here blocks a scheduler's kernel context: waiting never
//! steals a scheduler.
//!
//! [`UlpEvent`] and [`UlpBarrier`] wait as a join does
//! ([`crate::UlpHandle::wait`], `uc.rs`'s `OneShot`): all three are clients
//! of one list, `park.rs`'s `WaitList`. A decoupled ULT leaves the run
//! queue onto the list and is pushed back by the `set()`, the last arrival
//! or the child's exit; a caller that owns its OS thread — a plain thread,
//! a KLT, a coupled BLT — parks on that thread's one parker, spinning only
//! while `ulp_kernel::Waiters` says its last wait was short, whatever the
//! runtime's `IdlePolicy` (that policy is an idle KC's). Either way a
//! waiter holds no scheduler, which keeps mixed KLT/ULT programs correct
//! and an oversubscribed barrier free of yield loops.
//!
//! ## The lock suite
//!
//! Beyond the veneer types ([`UlpMutex`], [`UlpEvent`], [`UlpBarrier`]),
//! the module exposes four interchangeable raw lock policies behind one
//! trait ([`RawUlpLock`]), so contention behavior can be compared like for
//! like — in particular **oversubscribed** (more runnable ULPs than
//! scheduler KCs), where a non-cooperative spinlock would convoy or
//! live-lock:
//!
//! | policy | fairness | waiting cost under contention |
//! |---|---|---|
//! | [`TasLock`] | none (barging) | all waiters hammer one cache line |
//! | [`TicketLock`] | FIFO | all waiters poll one counter |
//! | [`McsLock`] | FIFO | each waiter spins on its own queue node |
//! | [`FutexLock`] | none (barging) | bounded spin, then `futex` sleep |
//!
//! Every policy waits with `stall()` — a ULP yield that falls back to an OS
//! yield — so a preempted or descheduled lock holder can always run.
//! [`FutexLock`]'s sleep level additionally parks the *kernel context*,
//! which is only safe when the caller owns one (a coupled BLT or a plain OS
//! thread); decoupled ULTs stay at the yielding level so they never block
//! the scheduler KC under them (see `DESIGN.md`).

use crate::couple::stall;
use crate::current::{current_id, current_runtime};
use crate::park::WaitList;
use std::sync::atomic::{AtomicBool, AtomicPtr, AtomicU32, AtomicUsize, Ordering};
use ulp_kernel::{futex_wait, futex_wake};

/// A raw (data-less) mutual-exclusion lock: the common interface of the
/// suite's four contention policies.
///
/// Implementations must be usable concurrently from decoupled ULTs,
/// coupled BLTs and plain OS threads, and must wait *cooperatively*
/// (yield to runnable ULPs) so that an oversubscribed schedule — more
/// contenders than scheduler KCs — always lets the current holder run.
///
/// The caller is responsible for pairing: [`unlock`](RawUlpLock::unlock)
/// must only be called by the context that last acquired the lock. Wrap a
/// value in [`UlpLock`] for an RAII-guarded, misuse-resistant interface.
pub trait RawUlpLock: Default + Send + Sync {
    /// Short policy name used to label benchmark rows and torture cells.
    const NAME: &'static str;

    /// Acquire the lock, waiting cooperatively while contended.
    fn lock(&self);

    /// Try to acquire without waiting; `true` on success.
    fn try_lock(&self) -> bool;

    /// Release the lock. Must be called by the current holder exactly once
    /// per acquisition.
    fn unlock(&self);
}

/// Test-and-set spinlock: one `AtomicBool`, no fairness.
///
/// The baseline policy, and [`UlpMutex`]'s. A test-and-test-and-set read
/// phase keeps contended waiting on a shared (read-only) cache line until
/// the lock looks free; acquisition barges, so a waiter can starve under
/// pathological schedules.
#[derive(Debug, Default)]
pub struct TasLock {
    locked: AtomicBool,
}

impl RawUlpLock for TasLock {
    const NAME: &'static str = "tas";

    fn lock(&self) {
        loop {
            if self.try_lock() {
                return;
            }
            // Read-only wait phase: no cache-line ping-pong while held.
            while self.locked.load(Ordering::Relaxed) {
                stall();
            }
        }
    }

    fn try_lock(&self) -> bool {
        self.locked
            .compare_exchange(false, true, Ordering::Acquire, Ordering::Relaxed)
            .is_ok()
    }

    fn unlock(&self) {
        self.locked.store(false, Ordering::Release);
    }
}

/// Ticket lock: FIFO handover through a take-a-number pair of counters.
///
/// Strictly fair — requests are served in arrival order — but every waiter
/// polls the single `serving` counter, so the handover line is invalidated
/// in all waiting caches on each release. Under oversubscription FIFO
/// order can *add* latency: the next ticket holder may be descheduled
/// while later arrivals are running; the cooperative `stall()` is what
/// keeps that from becoming a live-lock.
#[derive(Debug, Default)]
pub struct TicketLock {
    next: AtomicU32,
    serving: AtomicU32,
}

impl RawUlpLock for TicketLock {
    const NAME: &'static str = "ticket";

    fn lock(&self) {
        let ticket = self.next.fetch_add(1, Ordering::Relaxed);
        while self.serving.load(Ordering::Acquire) != ticket {
            stall();
        }
    }

    fn try_lock(&self) -> bool {
        let serving = self.serving.load(Ordering::Acquire);
        // Take a ticket only if it would be served immediately: advance
        // `next` from the currently-served value by one.
        self.next
            .compare_exchange(
                serving,
                serving.wrapping_add(1),
                Ordering::Acquire,
                Ordering::Relaxed,
            )
            .is_ok()
    }

    fn unlock(&self) {
        // Single-writer: only the holder advances the grant.
        let now = self.serving.load(Ordering::Relaxed);
        self.serving.store(now.wrapping_add(1), Ordering::Release);
    }
}

/// One waiter's slot in an [`McsLock`] queue. Heap-allocated per
/// acquisition so a ULP that migrates OS threads mid-wait (every `stall()`
/// may resume it on a different scheduler KC) still owns its node.
#[derive(Debug)]
struct McsNode {
    next: AtomicPtr<McsNode>,
    locked: AtomicBool,
}

/// MCS queue lock: FIFO handover with *local* spinning.
///
/// Each waiter enqueues a private node and spins on its own `locked` flag;
/// the releasing holder flips exactly one successor's flag. Contended
/// waiting therefore touches no shared cache line — the policy that scales
/// where [`TicketLock`]'s shared grant counter thrashes. The price is one
/// heap allocation per contended-path acquisition (nodes cannot live on
/// the stack or in OS-thread-local storage: a decoupled ULP's stall may
/// resume it on another kernel context).
#[derive(Debug, Default)]
pub struct McsLock {
    tail: AtomicPtr<McsNode>,
    /// The holder's node, stashed at acquisition so `unlock` needs no
    /// argument (single-writer: only the holder reads/writes it while the
    /// lock is held).
    owner: AtomicPtr<McsNode>,
}

impl RawUlpLock for McsLock {
    const NAME: &'static str = "mcs";

    fn lock(&self) {
        let node = Box::into_raw(Box::new(McsNode {
            next: AtomicPtr::new(std::ptr::null_mut()),
            locked: AtomicBool::new(true),
        }));
        let prev = self.tail.swap(node, Ordering::AcqRel);
        if !prev.is_null() {
            // SAFETY: `prev` stays alive until its owner's unlock, which
            // cannot complete before it observes and wakes our node.
            unsafe { (*prev).next.store(node, Ordering::Release) };
            // SAFETY: `node` is ours until our own unlock frees it.
            while unsafe { (*node).locked.load(Ordering::Acquire) } {
                stall();
            }
        }
        self.owner.store(node, Ordering::Relaxed);
    }

    fn try_lock(&self) -> bool {
        if !self.tail.load(Ordering::Relaxed).is_null() {
            return false;
        }
        let node = Box::into_raw(Box::new(McsNode {
            next: AtomicPtr::new(std::ptr::null_mut()),
            locked: AtomicBool::new(false),
        }));
        match self.tail.compare_exchange(
            std::ptr::null_mut(),
            node,
            Ordering::AcqRel,
            Ordering::Relaxed,
        ) {
            Ok(_) => {
                self.owner.store(node, Ordering::Relaxed);
                true
            }
            Err(_) => {
                // SAFETY: the node was never published.
                drop(unsafe { Box::from_raw(node) });
                false
            }
        }
    }

    fn unlock(&self) {
        let node = self.owner.load(Ordering::Relaxed);
        debug_assert!(!node.is_null(), "unlock without a holder");
        // SAFETY: `node` is the holder's own published node; it is freed
        // only here, after handover.
        unsafe {
            if (*node).next.load(Ordering::Acquire).is_null() {
                // No known successor: try to close the queue.
                if self
                    .tail
                    .compare_exchange(
                        node,
                        std::ptr::null_mut(),
                        Ordering::Release,
                        Ordering::Relaxed,
                    )
                    .is_ok()
                {
                    drop(Box::from_raw(node));
                    return;
                }
                // A successor swapped the tail but has not linked itself
                // yet; the window is a few instructions long.
                while (*node).next.load(Ordering::Acquire).is_null() {
                    std::hint::spin_loop();
                }
            }
            let next = (*node).next.load(Ordering::Acquire);
            (*next).locked.store(false, Ordering::Release);
            drop(Box::from_raw(node));
        }
    }
}

impl Drop for McsLock {
    fn drop(&mut self) {
        // An unlocked, uncontended lock owns no nodes. Dropping a *held*
        // lock leaks the holder's node — deliberate: freeing it here could
        // race a concurrent unlock, and dropping a held lock is a misuse
        // the data-carrying wrapper (`UlpLock`) makes impossible.
    }
}

/// Contended [`FutexLock`] acquisitions spin this many cooperative steps
/// before arming the kernel sleep.
const FUTEX_SPIN: u32 = 64;

/// Two-level lock: bounded cooperative spin, then a `futex` sleep.
///
/// The classic three-state futex mutex (0 = free, 1 = held, 2 = held with
/// sleepers — Drepper's *Futexes Are Cheap, Look and Feel*) with a spin
/// phase sized for the tens-of-nanoseconds critical sections this runtime
/// is built around. The wake side only issues the `futex_wake` system
/// call when the state says somebody slept, mirroring the runtime's
/// sleeper-gated idle protocols.
///
/// A **decoupled** ULT never enters the sleep level: blocking the futex
/// would park the scheduler kernel context hosting it, stalling every
/// other ULT that scheduler owns — exactly the blocking anomaly the paper
/// exists to avoid. Decoupled waiters stay at the yielding spin level;
/// coupled BLTs and plain OS threads (which own the kernel context they
/// would block) get the real sleep.
#[derive(Debug, Default)]
pub struct FutexLock {
    /// 0 = free, 1 = held, 2 = held and at least one waiter slept.
    state: AtomicU32,
    /// Wake-edge stamp: armed by `unlock`, consumed by a waiter that
    /// actually slept, attributing its futex wake to the unlocking BLT.
    wake: ulp_kernel::trace::WakeCell,
}

impl RawUlpLock for FutexLock {
    const NAME: &'static str = "futex2l";

    fn lock(&self) {
        if self.try_lock() {
            return;
        }
        // Level one: bounded cooperative spin.
        for _ in 0..FUTEX_SPIN {
            stall();
            if self.state.load(Ordering::Relaxed) == 0 && self.try_lock() {
                return;
            }
        }
        // Level two: mark contended and sleep. `swap(2)` both acquires
        // (when it returns 0) and re-publishes the contended mark on
        // every spurious wake-up.
        let mut slept = false;
        while self.state.swap(2, Ordering::Acquire) != 0 {
            if crate::couple::is_coupled() == Some(false) {
                // Decoupled: our KC is a scheduler's — never block it.
                stall();
            } else {
                futex_wait(&self.state, 2);
                slept = true;
            }
        }
        if slept {
            // Attribute the kernel sleep we just exited to the unlocker
            // that stamped last. Spinning waiters (including the decoupled
            // stall path) never consume — no sleep, no wake edge.
            self.wake.consume(ulp_kernel::WakeSite::FutexWake);
        }
    }

    fn try_lock(&self) -> bool {
        self.state
            .compare_exchange(0, 1, Ordering::Acquire, Ordering::Relaxed)
            .is_ok()
    }

    fn unlock(&self) {
        // Stamp before the Release store: a sleeper that observes the
        // unlock also observes the stamp (no-op while tracing is off).
        self.wake.stamp();
        if self.state.swap(0, Ordering::Release) == 2 {
            futex_wake(&self.state, 1);
        }
    }
}

/// A value guarded by one of the suite's raw lock policies.
///
/// `UlpLock<T>` defaults to the [`TasLock`] policy; pick another with the
/// second type parameter, e.g. `UlpLock<u64, McsLock>`. The guard releases
/// on drop (including unwinds), which also makes the holder-only `unlock`
/// contract of [`RawUlpLock`] unbreakable from safe code.
#[derive(Debug, Default)]
pub struct UlpLock<T, R: RawUlpLock = TasLock> {
    raw: R,
    value: std::cell::UnsafeCell<T>,
}

unsafe impl<T: Send, R: RawUlpLock> Send for UlpLock<T, R> {}
unsafe impl<T: Send, R: RawUlpLock> Sync for UlpLock<T, R> {}

impl<T, R: RawUlpLock> UlpLock<T, R> {
    /// An unlocked lock holding `value`.
    pub fn new(value: T) -> UlpLock<T, R> {
        UlpLock {
            raw: R::default(),
            value: std::cell::UnsafeCell::new(value),
        }
    }

    /// Acquire, waiting cooperatively while contended.
    pub fn lock(&self) -> UlpLockGuard<'_, T, R> {
        self.raw.lock();
        UlpLockGuard { lock: self }
    }

    /// Try to acquire without waiting.
    pub fn try_lock(&self) -> Option<UlpLockGuard<'_, T, R>> {
        if self.raw.try_lock() {
            Some(UlpLockGuard { lock: self })
        } else {
            None
        }
    }

    /// Consume the lock, returning the value.
    pub fn into_inner(self) -> T {
        self.value.into_inner()
    }
}

/// RAII guard for [`UlpLock`]; releases the underlying raw lock on drop.
pub struct UlpLockGuard<'a, T, R: RawUlpLock> {
    lock: &'a UlpLock<T, R>,
}

impl<T, R: RawUlpLock> std::ops::Deref for UlpLockGuard<'_, T, R> {
    type Target = T;
    fn deref(&self) -> &T {
        unsafe { &*self.lock.value.get() }
    }
}

impl<T, R: RawUlpLock> std::ops::DerefMut for UlpLockGuard<'_, T, R> {
    fn deref_mut(&mut self) -> &mut T {
        unsafe { &mut *self.lock.value.get() }
    }
}

impl<T, R: RawUlpLock> Drop for UlpLockGuard<'_, T, R> {
    fn drop(&mut self) {
        self.lock.raw.unlock();
    }
}

/// A cooperative spin mutex: contended lock attempts yield to other ULPs
/// instead of blocking the kernel context — the suite's [`TasLock`] policy.
///
/// Not reentrant; poisoning-free (a panicking ULP releases via the guard's
/// unwind-run `Drop`, exactly like `parking_lot`).
pub type UlpMutex<T> = UlpLock<T, TasLock>;

/// RAII guard for [`UlpMutex`].
pub type UlpMutexGuard<'a, T> = UlpLockGuard<'a, T, TasLock>;

/// A one-shot (resettable) event: waiters wait on a `WaitList` until
/// `set()`.
#[derive(Debug, Default)]
pub struct UlpEvent {
    /// 1 while signaled; set only inside [`WaitList::wake_all`].
    state: AtomicU32,
    waiters: WaitList,
}

impl UlpEvent {
    /// An unsignaled event.
    pub const fn new() -> UlpEvent {
        UlpEvent {
            state: AtomicU32::new(0),
            waiters: WaitList::new(),
        }
    }

    /// Signal the event; wakes all current and future waiters.
    pub fn set(&self) {
        self.waiters
            .wake_all(current_id(), || self.state.store(1, Ordering::Release));
    }

    /// Clear the event back to unsignaled.
    pub fn reset(&self) {
        self.state.store(0, Ordering::Release);
    }

    /// Whether the event is currently signaled.
    pub fn is_set(&self) -> bool {
        self.state.load(Ordering::Acquire) == 1
    }

    /// Wait until set: a decoupled ULT off the run queue, any other caller
    /// on its thread's parker.
    pub fn wait(&self) {
        self.waiters
            .wait(current_runtime, || self.is_set().then_some(()));
    }
}

/// A reusable (sense-reversing) barrier whose waiters leave the run queue
/// (or park their own OS thread) instead of blocking a scheduler's.
/// `ulp_pip::PipBarrier` is this type under PiP's name.
#[derive(Debug)]
pub struct UlpBarrier {
    parties: usize,
    arrived: AtomicUsize,
    /// Flipped only inside [`WaitList::wake_all`], by the last arrival.
    generation: AtomicUsize,
    waiters: WaitList,
}

impl UlpBarrier {
    /// A barrier for `parties` participants (at least one).
    pub fn new(parties: usize) -> UlpBarrier {
        assert!(parties > 0, "barrier needs at least one party");
        UlpBarrier {
            parties,
            arrived: AtomicUsize::new(0),
            generation: AtomicUsize::new(0),
            waiters: WaitList::new(),
        }
    }

    /// Wait for all parties; returns `true` on the releasing ULP (the
    /// "leader", as `pthread_barrier_wait`'s SERIAL_THREAD).
    pub fn wait(&self) -> bool {
        let gen = self.generation.load(Ordering::Acquire);
        if self.arrived.fetch_add(1, Ordering::AcqRel) + 1 == self.parties {
            self.arrived.store(0, Ordering::Release);
            self.waiters.wake_all(current_id(), || {
                self.generation.fetch_add(1, Ordering::Release);
            });
            true
        } else {
            let flipped = || (self.generation.load(Ordering::Acquire) != gen).then_some(());
            self.waiters.wait(current_runtime, flipped);
            false
        }
    }

    /// The number of participants per generation.
    pub fn parties(&self) -> usize {
        self.parties
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::time::Duration;

    #[test]
    fn mutex_guards_exclusive_access() {
        let m = Arc::new(UlpMutex::new(0u64));
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let m = m.clone();
                std::thread::spawn(move || {
                    for _ in 0..1000 {
                        *m.lock() += 1;
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(*m.lock(), 4000);
    }

    #[test]
    fn try_lock_fails_while_held() {
        let m = UlpMutex::new(());
        let g = m.lock();
        assert!(m.try_lock().is_none());
        drop(g);
        assert!(m.try_lock().is_some());
    }

    #[test]
    fn mutex_into_inner() {
        let m = UlpMutex::new(vec![1, 2, 3]);
        *m.lock() = vec![9];
        assert_eq!(m.into_inner(), vec![9]);
    }

    #[test]
    fn event_set_wakes_waiter() {
        let e = Arc::new(UlpEvent::new());
        let e2 = e.clone();
        let t = std::thread::spawn(move || e2.wait());
        std::thread::sleep(Duration::from_millis(10));
        assert!(!e.is_set());
        e.set();
        t.join().unwrap();
    }

    /// A thread that owns its OS thread and waits ≥ 5 ms on an event sleeps
    /// on its parker — a park outcome, counted in its own stats shard (the
    /// thread that builds a runtime has one) — and the `set()` wakes it,
    /// long before the park's 1 s time-out.
    #[test]
    fn a_plain_thread_waiting_on_an_event_sleeps_until_set() {
        std::thread::spawn(|| {
            let _rt = crate::Runtime::builder().schedulers(1).build();
            let sleeps = || {
                crate::current::with_thread(|b| {
                    let shard = b.shard().expect("the building thread has a shard");
                    shard.park_sleeps.load(Ordering::Relaxed)
                })
            };
            let e = Arc::new(UlpEvent::new());
            let setter = {
                let e = e.clone();
                std::thread::spawn(move || {
                    std::thread::sleep(Duration::from_millis(10));
                    let at = std::time::Instant::now();
                    e.set();
                    at
                })
            };
            let before = sleeps();
            e.wait();
            let returned = std::time::Instant::now();
            let set_at = setter.join().unwrap();
            assert!(sleeps() > before, "a 10 ms wait did not sleep");
            let took = returned.saturating_duration_since(set_at);
            assert!(
                took < Duration::from_millis(500),
                "returned {took:?} after the set: woken by the park's time-out"
            );
        })
        .join()
        .unwrap();
    }

    #[test]
    fn event_reset_rearms() {
        let e = UlpEvent::new();
        e.set();
        e.wait();
        e.reset();
        assert!(!e.is_set());
    }

    #[test]
    fn barrier_has_single_leader() {
        let b = Arc::new(UlpBarrier::new(3));
        let leaders = Arc::new(AtomicUsize::new(0));
        let handles: Vec<_> = (0..3)
            .map(|_| {
                let b = b.clone();
                let l = leaders.clone();
                std::thread::spawn(move || {
                    for _ in 0..20 {
                        if b.wait() {
                            l.fetch_add(1, Ordering::AcqRel);
                        }
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(leaders.load(Ordering::Acquire), 20);
    }

    /// Exclusion + counter integrity for one raw policy under plain OS
    /// threads.
    fn raw_lock_excludes<R: RawUlpLock + 'static>() {
        let l = Arc::new(UlpLock::<u64, R>::new(0));
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let l = l.clone();
                std::thread::spawn(move || {
                    for _ in 0..500 {
                        *l.lock() += 1;
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(*l.lock(), 2000);
    }

    /// Exclusion for one raw policy under **oversubscribed** decoupled
    /// ULPs: more contenders than scheduler KCs, so only cooperative
    /// waiting lets the holder run.
    fn raw_lock_excludes_oversubscribed<R: RawUlpLock + 'static>() {
        use crate::{decouple, Runtime};
        let rt = Runtime::builder().schedulers(1).build();
        let l = Arc::new(UlpLock::<u64, R>::new(0));
        let handles: Vec<_> = (0..4)
            .map(|i| {
                let l = l.clone();
                rt.spawn(&format!("{}-{i}", R::NAME), move || {
                    decouple().unwrap();
                    for _ in 0..200 {
                        *l.lock() += 1;
                    }
                    0
                })
            })
            .collect();
        for h in handles {
            assert_eq!(h.wait(), 0);
        }
        assert_eq!(*l.lock(), 800);
    }

    #[test]
    fn tas_lock_excludes() {
        raw_lock_excludes::<TasLock>();
        raw_lock_excludes_oversubscribed::<TasLock>();
    }

    #[test]
    fn ticket_lock_excludes() {
        raw_lock_excludes::<TicketLock>();
        raw_lock_excludes_oversubscribed::<TicketLock>();
    }

    #[test]
    fn mcs_lock_excludes() {
        raw_lock_excludes::<McsLock>();
        raw_lock_excludes_oversubscribed::<McsLock>();
    }

    #[test]
    fn futex_lock_excludes() {
        raw_lock_excludes::<FutexLock>();
        raw_lock_excludes_oversubscribed::<FutexLock>();
    }

    #[test]
    fn raw_try_lock_fails_while_held() {
        fn check<R: RawUlpLock>() {
            let l = UlpLock::<(), R>::new(());
            let g = l.lock();
            assert!(l.try_lock().is_none(), "{} try_lock while held", R::NAME);
            drop(g);
            let g = l.try_lock();
            assert!(g.is_some(), "{} try_lock when free", R::NAME);
        }
        check::<TasLock>();
        check::<TicketLock>();
        check::<McsLock>();
        check::<FutexLock>();
    }

    #[test]
    fn ticket_lock_is_fifo() {
        // Holder + two queued waiters: the first queued waiter must win.
        let l = Arc::new(TicketLock::default());
        l.lock();
        let order = Arc::new(std::sync::Mutex::new(Vec::new()));
        let mut handles = Vec::new();
        for who in 0..2 {
            let l2 = l.clone();
            let order = order.clone();
            handles.push(std::thread::spawn(move || {
                l2.lock();
                order.lock().unwrap().push(who);
                l2.unlock();
            }));
            // Serialize arrival so tickets are taken in `who` order.
            while l.next.load(Ordering::Acquire) != who + 2 {
                std::thread::yield_now();
            }
        }
        l.unlock();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(*order.lock().unwrap(), vec![0, 1]);
    }

    #[test]
    fn lock_names_are_distinct() {
        let names = [
            TasLock::NAME,
            TicketLock::NAME,
            McsLock::NAME,
            FutexLock::NAME,
        ];
        let set: std::collections::HashSet<_> = names.iter().collect();
        assert_eq!(set.len(), names.len());
    }

    #[test]
    fn primitives_work_inside_ulps() {
        use crate::{decouple, Runtime};
        let rt = Runtime::builder().schedulers(1).build();
        let m = Arc::new(UlpMutex::new(0u32));
        let b = Arc::new(UlpBarrier::new(3));
        let e = Arc::new(UlpEvent::new());
        let handles: Vec<_> = (0..3)
            .map(|i| {
                let (m, b, e) = (m.clone(), b.clone(), e.clone());
                rt.spawn(&format!("sync{i}"), move || {
                    decouple().unwrap();
                    *m.lock() += 1;
                    // All three must arrive despite sharing one scheduler:
                    // only cooperative waiting can get them through.
                    b.wait();
                    if i == 0 {
                        e.set();
                    } else {
                        e.wait();
                    }
                    0
                })
            })
            .collect();
        for h in handles {
            assert_eq!(h.wait(), 0);
        }
        assert_eq!(*m.lock(), 3);
    }
}

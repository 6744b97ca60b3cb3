//! User contexts (UC) and kernel-context control blocks (KC).
//!
//! Terminology follows the paper's Fig. 1/2 decomposition:
//!
//! - a **KC** (kernel context) is "the reference for accessing resources
//!   maintained by an OS kernel" — here, an OS thread plus its bound
//!   simulated-kernel process;
//! - a **UC** (user context) is the register file + stack of a computation;
//! - a **BLT** is a pair of the two that can be decoupled at runtime;
//! - a **TC** (trampoline context) is the small extra context a KC idles on
//!   while its UC is away (Fig. 5), solving the busy-stack problem of Fig. 4.
//!
//! A *primary* UC is an OS thread's native context: the BLT starts life as a
//! KLT with the user function running directly on the spawned thread, and
//! the first `decouple()` turns that very context into a schedulable ULT.
//! A *secondary* UC runs on its own allocated stack, is born decoupled and
//! terminates coupled on a KC it does not own: a *sibling* (the §VII M:N
//! extension) shares a primary's original KC — and therefore its kernel
//! identity — while a *pooled* ULP owns its pid and is served by a shared
//! pool KC.

use crate::park::{ParkQueue, Parker, Phases, QLink};
use crate::runtime::RuntimeInner;
use crate::tls::TlsStorage;
use parking_lot::{Condvar, Mutex};
use std::cell::UnsafeCell;
use std::sync::atomic::{
    AtomicBool, AtomicI32, AtomicU32, AtomicU64, AtomicU8, AtomicUsize, Ordering,
};
use std::sync::{Arc, OnceLock, Weak};
use std::thread::ThreadId;
use std::time::Duration;
use ulp_fcontext::{RawContext, Stack};
use ulp_kernel::process::Pid;

/// Identifier of a BLT / UC within one runtime.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct BltId(pub u64);

impl std::fmt::Display for BltId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "blt:{}", self.0)
    }
}

/// What flavor of user context this is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UcKind {
    /// A BLT's main UC, living on its OS thread's native stack.
    Primary,
    /// An extra UC sharing a primary's original KC (M:N extension, §VII).
    Sibling,
    /// A scheduler BLT's UC (never decouples).
    Scheduler,
    /// A UC whose original KC is a shared pool KC (oversubscription mode):
    /// it owns its kernel identity like a primary but runs on a recycled
    /// pool stack and shares its KC with many other pooled UCs — the pool
    /// KC rebinds its kernel identity per activation.
    Pooled,
}

/// Lifecycle state of a UC.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum UcState {
    /// Spawned but not yet running.
    Created = 0,
    /// Running (coupled or decoupled).
    Running = 1,
    /// Finished; its exit status is available.
    Terminated = 2,
}

/// How an idle kernel context waits (paper §VI-C: BUSYWAIT vs BLOCKING).
/// Interpreted in one place, `Parker::park`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum IdlePolicy {
    /// Never sleep: spin with `std::hint::spin_loop` (and a `sched_yield`
    /// per pass) — lowest latency, burns a core.
    BusyWait,
    /// Always sleep on a futex — higher couple latency (two extra system
    /// calls per round trip), no CPU burn (§VII's latency/power trade-off).
    Blocking,
    /// The paper's future work, implemented, and the default: "determine
    /// the way of blocking in an automatic way according to the
    /// application's behavior" (§VII). An idle KC spins only while its
    /// last wait — timed by the push that ended it, within the last
    /// millisecond — was shorter than a sleep costs, for at most that long,
    /// and otherwise sleeps at once:
    /// the kernel's rule for a blocked system call, asked of the KC
    /// (`park.rs`, "The idle decision"). BUSYWAIT's latency in a
    /// couple/decouple loop, BLOCKING's CPU bill everywhere else.
    #[default]
    Adaptive,
}

/// Longest single sleep of an idle kernel context (it re-checks its exit
/// conditions and runs the stack scavenger once per pass).
const KC_PARK_TIMEOUT: Duration = Duration::from_millis(50);

/// The state a BLT's original kernel context shares with its UCs.
#[derive(Debug)]
pub struct KcShared {
    /// UCs that called `couple()` and wait to run on this KC, served in
    /// arrival order by the KC's idle loop — or claimed by a `decouple()`
    /// on the KC's own thread (direct handoff), which first probes the
    /// queue's lock-free length so an empty probe is one load. Its lock
    /// doubles as the sibling-registration gate (see `handle_closed`).
    pub(crate) pending: ParkQueue,
    /// What the idle loop idles on, per the KC's [`IdlePolicy`]. A couple
    /// request pushed to `pending` wakes it iff the KC had announced itself
    /// asleep by then (`park.rs`: the push reads the sleeper count inside
    /// `pending`'s critical section, the idle loop re-checks `pending`
    /// under the same lock before it sleeps — no fence, and no futex call
    /// while the KC runs user code or spins); sibling registration and
    /// exit, handle close and shutdown change no queue and `poke()` it.
    pub(crate) parker: Parker,
    /// The OS thread acting as this kernel context, for display (set by
    /// [`KcShared::adopt_current_thread`]).
    pub thread_id: OnceLock<ThreadId>,
    /// The trampoline context's suspended state.
    pub tc_ctx: UnsafeCell<RawContext>,
    /// The trampoline's (small) stack; `None` until the TC is created.
    pub tc_stack: Mutex<Option<Stack>>,
    /// Whether the TC has been bootstrapped.
    pub tc_started: AtomicBool,
    /// Keeps the TC's boot record alive while the TC may run.
    pub tc_boot: Mutex<Option<Box<crate::kc::TcBoot>>>,
    /// Live sibling UCs whose original KC is this one.
    pub sibling_count: AtomicUsize,
    /// The primary's `BltHandle` was waited or dropped: no further sibling
    /// may register, and the KC may retire once the count drains. Written
    /// and read under the `pending` lock (the registration gate), so a
    /// sibling either registers before the KC retires or observes the
    /// closed flag and fails to spawn — never registers into a dead KC.
    pub handle_closed: AtomicBool,
    /// The primary finished and is parked until siblings drain.
    pub primary_waiting: AtomicBool,
    /// Tracing-only wake stamp for the TC idle loop: armed by the thread
    /// publishing a couple request to this KC, consumed by the TC when that
    /// push woke it from a park (the `kc_notify` wake edge) and discarded
    /// when the request is served without one. Inert when tracing is off
    /// (the stamp hook returns zero).
    pub wake: ulp_kernel::trace::WakeCell,
}

// tc_ctx is only touched by the KC's own thread and by contexts executing on
// that thread; the pending queue and the parker are the cross-thread
// interface.
unsafe impl Send for KcShared {}
unsafe impl Sync for KcShared {}

impl KcShared {
    /// Fresh kernel-context state with the given idle policy.
    pub fn new(idle_policy: IdlePolicy) -> KcShared {
        KcShared {
            pending: ParkQueue::default(),
            parker: Parker::new(idle_policy, KC_PARK_TIMEOUT),
            thread_id: OnceLock::new(),
            tc_ctx: UnsafeCell::new(RawContext::null()),
            tc_stack: Mutex::new(None),
            tc_started: AtomicBool::new(false),
            tc_boot: Mutex::new(None),
            sibling_count: AtomicUsize::new(0),
            handle_closed: AtomicBool::new(false),
            primary_waiting: AtomicBool::new(false),
            wake: ulp_kernel::trace::WakeCell::new(),
        }
    }

    /// Make the calling OS thread this kernel context: called once, first
    /// thing on the thread that will act as it.
    pub fn adopt_current_thread(&self) {
        self.thread_id
            .set(std::thread::current().id())
            .expect("a kernel context is adopted by one thread, once");
        crate::current::set_kc(self);
    }

    /// Is the calling OS thread this kernel context? Thread *identity* — not
    /// whether some UC happens to be coupled — read from a thread-local
    /// token, so asking costs no `std::thread::current()` handle.
    #[inline]
    pub fn is_current_thread(&self) -> bool {
        crate::current::is_kc(self)
    }
}

/// One-shot exit-status cell of a secondary UC: set by its termination
/// (`Deferred::Terminate`), read by its [`crate::UlpHandle`].
#[derive(Debug, Default)]
pub struct OneShot {
    slot: Mutex<Slot>,
    ready: Condvar,
}

/// What [`OneShot`]'s lock guards: the value, and the threads asleep on it.
#[derive(Debug, Default)]
struct Slot {
    value: Option<i32>,
    /// Threads inside [`OneShot::wait`]'s condvar wait. A `set` that finds
    /// none makes no notify — a host `futex` call even with nobody waiting —
    /// and cannot be racing one about to sleep: that thread holds the lock
    /// from its check of `value` until the wait releases it.
    waiters: usize,
}

impl OneShot {
    /// An empty cell.
    pub fn new() -> OneShot {
        OneShot::default()
    }

    /// Publish the value and wake every waiter. Later calls overwrite.
    pub fn set(&self, v: i32) {
        let waiters = {
            let mut slot = self.slot.lock();
            slot.value = Some(v);
            slot.waiters
        };
        if waiters != 0 {
            self.ready.notify_all();
        }
    }

    /// Block (on the condvar) until a value is published, then return it.
    pub fn wait(&self) -> i32 {
        let mut slot = self.slot.lock();
        loop {
            if let Some(v) = slot.value {
                return v;
            }
            slot.waiters += 1;
            self.ready.wait(&mut slot);
            slot.waiters -= 1;
        }
    }

    /// The value if already published; never blocks.
    pub fn try_get(&self) -> Option<i32> {
        self.slot.lock().value
    }
}

/// Closure type a BLT or secondary UC executes; the i32 is the exit status
/// the parent observes through `wait()`, mirroring `wait(2)` for PiP
/// processes.
pub type UlpFn = Box<dyn FnOnce() -> i32 + Send + 'static>;

/// A UC's signal mask as a lock-free cell.
///
/// The switch path only needs to *compare* the UC's mask against the mask
/// installed on the executing kernel context (and install it when they
/// differ), so the mask lives in an atomic word instead of a mutex: readers
/// on the hot path never contend, and writers (`sigprocmask` veneers) are
/// rare. Mask updates happen while the UC is running on the writing thread,
/// so a plain store/load pair with release/acquire ordering suffices.
#[derive(Debug, Default)]
pub struct SigMaskCell {
    bits: AtomicU32,
}

impl SigMaskCell {
    /// A cell holding `mask`.
    pub fn new(mask: ulp_kernel::SigSet) -> SigMaskCell {
        SigMaskCell {
            bits: AtomicU32::new(mask.bits()),
        }
    }

    /// The current mask.
    #[inline]
    pub fn get(&self) -> ulp_kernel::SigSet {
        ulp_kernel::SigSet::from_bits(self.bits())
    }

    /// Replace the mask (called from `sigprocmask` veneers).
    #[inline]
    pub fn set(&self, mask: ulp_kernel::SigSet) {
        self.bits.store(mask.bits(), Ordering::Release);
    }

    /// Raw bits, for cheap equality checks against a cached installed mask.
    #[inline]
    pub fn bits(&self) -> u32 {
        self.bits.load(Ordering::Acquire)
    }
}

/// The shared core of a user context.
pub struct UcInner {
    /// Runtime-local identity (shows up as `blt:N` in traces).
    pub id: BltId,
    /// Human-readable name given at spawn.
    pub name: String,
    /// Primary, sibling, pooled or scheduler.
    pub kind: UcKind,
    /// This UC's suspended register state (valid only while suspended;
    /// guarded by the runtime's ownership protocol: a UC is either in
    /// exactly one queue, pending on exactly one KC, or running on exactly
    /// one thread).
    pub ctx: UnsafeCell<RawContext>,
    /// The original kernel context ("the KC which was used to create the
    /// KLT in the beginning", §II).
    pub kc: Arc<KcShared>,
    /// The simulated-kernel process identity carried by the original KC.
    pub pid: Pid,
    /// Whether the UC currently runs as a KLT on its original KC.
    pub coupled: AtomicBool,
    /// Lifecycle state, as [`UcState`] discriminants.
    pub state: AtomicU8,
    /// Per-ULP thread-local storage (the privatized TLS region of §V-B).
    pub tls: TlsStorage,
    /// This ULP's `errno` — the best-known TLS variable, written by every
    /// system-call veneer, so it gets a plain field instead of a
    /// [`crate::tls::UlpLocal`] slot behind the `tls` lock.
    pub errno: AtomicI32,
    /// The owning runtime (weak: UCs must not keep it alive).
    pub rt: Weak<RuntimeInner>,
    /// Secondary UCs only (siblings and pooled ULPs): the allocated stack
    /// (primaries and schedulers run on their thread's stack).
    pub sib_stack: Mutex<Option<Stack>>,
    /// Secondary UCs only: the entry closure, taken at first dispatch.
    pub sib_entry: Mutex<Option<UlpFn>>,
    /// Secondary UCs only: the exit status for [`crate::UlpHandle::wait`],
    /// published once the stack is back in the pool.
    pub sib_result: Arc<OneShot>,
    /// The signal mask this UC believes it has (§VII): under the default
    /// fcontext-style switching the mask is NOT installed on the executing
    /// kernel context, reproducing the paper's signaling caveat; with
    /// `Config::save_sigmask` (ucontext-style) it is carried across UC↔UC
    /// switches — lazily, so the `sigprocmask` system call only fires when
    /// the incoming UC's mask differs from the one already installed on the
    /// kernel context.
    pub sigmask: SigMaskCell,
    /// Tracing-only wait-span anchor: the `now_ns()` at which this UC was
    /// last enqueued (run queue push) or had its couple request published.
    /// `0` = no pending span. Written by the enqueuing thread, consumed
    /// (swapped to 0) by whichever thread resumes the UC; only touched while
    /// the trace gate is on, so it costs nothing when tracing is off.
    pub wait_since: AtomicU64,
    /// Tracing-only companion to [`UcInner::wait_since`]: *who* made this
    /// UC runnable and through which site, encoded by
    /// `encode_wake_from` (`0` = no attribution). Stamped by the same
    /// thread (and under the same gate check) that stamps `wait_since`,
    /// consumed (swapped to 0) by whichever thread resumes the UC, which
    /// turns the pair into a `Wake` trace edge.
    pub wake_from: AtomicU64,
    /// `now_ns()` at spawn, on the trace clock; surfaced in
    /// `/proc/<pid>/stat` so a ULP can date itself from inside.
    pub spawn_ns: u64,
    /// Intrusive link for the one `ParkQueue` (run queue or a KC's
    /// `pending`) this UC may be waiting in.
    pub(crate) qlink: QLink,
    /// How long this UC's last decoupled stretch ran, the evidence for
    /// staying home (`park.rs`, "Staying home").
    pub(crate) phases: Phases,
}

unsafe impl Send for UcInner {}
unsafe impl Sync for UcInner {}

/// Pack a `(waker, site)` wake attribution into one [`UcInner::wake_from`]
/// word: the waker's id shifted above a biased site byte, so `0` can mean
/// "no attribution" (site discriminants start at 0).
#[inline]
pub(crate) fn encode_wake_from(waker: BltId, site: ulp_kernel::WakeSite) -> u64 {
    waker.0 << 8 | (site as u64 + 1)
}

/// Inverse of [`encode_wake_from`]; `None` for the empty word.
#[inline]
pub(crate) fn decode_wake_from(v: u64) -> Option<(BltId, ulp_kernel::WakeSite)> {
    if v == 0 {
        return None;
    }
    let site = ulp_kernel::WakeSite::from_u16((v & 0xFF) as u16 - 1)?;
    Some((BltId(v >> 8), site))
}

impl UcInner {
    /// The one constructor: a UC of `kind` on the kernel context `kc`,
    /// carrying `pid`, in state `Created`. A primary or scheduler starts
    /// coupled on its own thread with no `entry`; a secondary UC (sibling or
    /// pooled) is born decoupled and brings the closure its first dispatch
    /// runs.
    pub(crate) fn new(
        id: BltId,
        name: String,
        kind: UcKind,
        kc: Arc<KcShared>,
        pid: Pid,
        rt: Weak<RuntimeInner>,
        entry: Option<UlpFn>,
    ) -> Arc<UcInner> {
        Arc::new(UcInner {
            id,
            name,
            kind,
            ctx: UnsafeCell::new(RawContext::null()),
            kc,
            pid,
            coupled: AtomicBool::new(matches!(kind, UcKind::Primary | UcKind::Scheduler)),
            state: AtomicU8::new(UcState::Created as u8),
            tls: TlsStorage::new(),
            errno: AtomicI32::new(0),
            rt,
            sib_stack: Mutex::new(None),
            sib_entry: Mutex::new(entry),
            sib_result: Arc::new(OneShot::new()),
            sigmask: SigMaskCell::new(ulp_kernel::SigSet::EMPTY),
            wait_since: AtomicU64::new(0),
            wake_from: AtomicU64::new(0),
            spawn_ns: crate::trace::now_ns(),
            qlink: QLink::new(),
            phases: Phases::new(),
        })
    }

    /// Current lifecycle state.
    pub fn state(&self) -> UcState {
        match self.state.load(Ordering::Acquire) {
            0 => UcState::Created,
            1 => UcState::Running,
            _ => UcState::Terminated,
        }
    }

    /// Publish a lifecycle transition.
    pub fn set_state(&self, s: UcState) {
        self.state.store(s as u8, Ordering::Release);
    }

    /// Whether the UC currently runs as a KLT on its original KC.
    #[inline]
    pub fn is_coupled(&self) -> bool {
        self.coupled.load(Ordering::Acquire)
    }

    /// Tracing only: this UC became runnable at `now` — open its
    /// enqueue→dispatch span, which whoever dispatches it closes. The wake
    /// attribution defaults to a plain self-enqueue (decouple / yield); a
    /// caller with a more specific cause (spawn) pre-stamps and wins — the
    /// previous consumer already swapped the cell back to 0.
    pub(crate) fn stamp_enqueued(&self, now: u64) {
        self.wait_since.store(now, Ordering::Relaxed);
        if self.wake_from.load(Ordering::Relaxed) == 0 {
            self.wake_from.store(
                encode_wake_from(self.id, ulp_kernel::WakeSite::Enqueue),
                Ordering::Relaxed,
            );
        }
    }
}

impl std::fmt::Debug for UcInner {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("UcInner")
            .field("id", &self.id)
            .field("name", &self.name)
            .field("kind", &self.kind)
            .field("pid", &self.pid)
            .field("coupled", &self.is_coupled())
            .field("state", &self.state())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Non-queue events (sibling exit, handle close, shutdown) always move
    /// the KC's futex word.
    #[test]
    fn kc_notify_bumps_version() {
        let kc = KcShared::new(IdlePolicy::BusyWait);
        let v0 = kc.parker.version();
        kc.parker.poke();
        assert_eq!(kc.parker.version(), v0 + 1);
    }

    #[test]
    fn kc_thread_identity() {
        let kc = KcShared::new(IdlePolicy::BusyWait);
        assert!(!kc.is_current_thread(), "unadopted KC matches no thread");
        let kc = Arc::new(kc);
        let kc2 = kc.clone();
        std::thread::spawn(move || {
            kc2.adopt_current_thread();
            assert!(kc2.is_current_thread());
            crate::current::clear_thread_state();
        })
        .join()
        .unwrap();
        assert!(!kc.is_current_thread(), "adopted by another thread");
    }

    #[test]
    fn busywait_park_does_not_block() {
        let kc = KcShared::new(IdlePolicy::BusyWait);
        let v = kc.parker.version();
        let idle = &mut crate::park::IdleTally::default();
        let how = kc.parker.park(v, idle, || kc.pending.is_empty_locked());
        assert_eq!(how, crate::park::Idled::Spun);
    }

    /// A couple request published to a sleeping KC reaches its idle loop.
    #[test]
    fn blocking_park_wakes_on_notify() {
        let kc = Arc::new(KcShared::new(IdlePolicy::Blocking));
        let kc2 = kc.clone();
        let t = std::thread::spawn(move || {
            let idle = &mut crate::park::IdleTally::default();
            loop {
                let v = kc2.parker.version();
                if let Some(uc) = kc2.pending.pop(false) {
                    return uc.id;
                }
                kc2.parker.park(v, idle, || kc2.pending.is_empty_locked());
            }
        });
        while kc.parker.announced() == 0 {
            std::thread::yield_now();
        }
        kc.pending
            .push(crate::runqueue::tests::dummy_uc(7), &kc.parker);
        assert_eq!(t.join().unwrap(), BltId(7));
    }

    #[test]
    fn wake_from_roundtrip() {
        use ulp_kernel::WakeSite;
        assert_eq!(decode_wake_from(0), None);
        for site in WakeSite::ALL {
            let v = encode_wake_from(BltId(12345), site);
            assert_ne!(v, 0);
            assert_eq!(decode_wake_from(v), Some((BltId(12345), site)));
        }
        // The anonymous waker 0 still round-trips (the site byte is biased).
        let v = encode_wake_from(BltId(0), WakeSite::Enqueue);
        assert_eq!(decode_wake_from(v), Some((BltId(0), WakeSite::Enqueue)));
    }

    #[test]
    fn oneshot_roundtrip() {
        let cell = Arc::new(OneShot::new());
        assert_eq!(cell.try_get(), None);
        let c2 = cell.clone();
        let t = std::thread::spawn(move || c2.wait());
        std::thread::sleep(Duration::from_millis(5));
        cell.set(9);
        assert_eq!(t.join().unwrap(), 9);
        assert_eq!(cell.try_get(), Some(9));
    }

    /// `set` notifies only when a waiter is counted in, so a `set` that
    /// lands between a waiter's check and its sleep must still reach it:
    /// the two race from a barrier, and a stranded waiter fails the round
    /// instead of hanging the test.
    #[test]
    fn oneshot_set_racing_wait_strands_no_waiter() {
        use std::sync::{mpsc, Barrier};
        for round in 0..10_000 {
            let cell = Arc::new(OneShot::new());
            let start = Arc::new(Barrier::new(2));
            let (done, got) = mpsc::channel();
            let waiter = {
                let (cell, start) = (cell.clone(), start.clone());
                std::thread::spawn(move || {
                    start.wait();
                    let _ = done.send(cell.wait());
                })
            };
            start.wait();
            cell.set(round);
            let got = got
                .recv_timeout(Duration::from_secs(5))
                .unwrap_or_else(|_| panic!("round {round}: waiter stranded"));
            assert_eq!(got, round);
            waiter.join().unwrap();
        }
    }
}

//! The run queue of decoupled user contexts.
//!
//! A global FIFO injector plus (under [`SchedPolicy::WorkStealing`])
//! per-scheduler stealable deques and a **single-slot "next UC" handoff**.
//! Every queue is a `ParkQueue` and they all share one `Parker` (both in
//! `park.rs`), on which idle scheduler KCs sleep instead of spinning
//! (unless the runtime is configured for BUSYWAIT).
//!
//! ## The hot path
//!
//! Every `yield`/`decouple` pushes here, and Table IV's yield latency budget
//! is ~150 ns, so the common cases are engineered down to:
//!
//! - **Slot handoff** (yield ping-pong on a scheduler thread): the UC parks
//!   in a thread-local slot — no lock, no futex. The owning scheduler is by
//!   definition awake, so skipping the wake protocol is sound; a fairness
//!   bound (`SLOT_FAIRNESS_LIMIT`) spills to the real deque so queued UCs
//!   cannot starve behind a ping-pong pair.
//! - **Local deque / injector** (`GlobalFifo`, foreign threads, a taken
//!   slot): one lock acquisition — a single RMW — that links the UC and
//!   reads the parker's sleeper count. A yield is one such pop and one such
//!   push: two locked instructions, no fence, no allocation.
//! - **Empty probes** (a pop scanning idle shards, stealing from idle
//!   siblings) read the queue's length mirror: one load, no lock.
//!
//! ## Injector sharding
//!
//! Under `GlobalFifo` the injector is a single queue — exact FIFO, the
//! prototype's shape. Under `WorkStealing` it is split into a handful of
//! cache-line-padded shards (round-robin push, rotating pop scan): with
//! 100k+ runnable UCs whose enqueues all arrive from *foreign* threads
//! (pooled spawns, deferred enqueues published on pool KCs), one shared
//! lock becomes the bottleneck long before the schedulers do. Work
//! stealing already abandons global FIFO order, so sharding costs nothing
//! semantically there.
//!
//! ## Wake protocol
//!
//! The one in `park.rs`, unchanged by there being many queues: a push
//! reads `sleepers` inside the critical section of *the queue it pushed
//! to*; an idle scheduler announces itself and then re-checks *every*
//! queue it could pop from, each under its own lock
//! ([`RunQueue::is_empty`]), before it sleeps. For the queue a racing push
//! landed in, either the push's critical section came first and the
//! re-check sees the UC, or the re-check came first and the push sees the
//! announce and wakes. The version word moves only then, and on
//! [`RunQueue::wake_all`].

use crate::park::{Idled, ParkQueue, Parker};
use crate::uc::{IdlePolicy, UcInner};
use parking_lot::RwLock;
use std::cell::{Cell, RefCell};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Scheduling discipline of the run queue.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SchedPolicy {
    /// One global FIFO — the paper prototype's shape.
    #[default]
    GlobalFifo,
    /// Per-scheduler local FIFOs with work stealing: a UC requeued on a
    /// scheduler thread lands in that scheduler's local deque (or its
    /// next-UC slot); idle schedulers steal — the discipline ULT libraries
    /// such as Argobots and MassiveThreads use (§III), provided here as an
    /// ablation and as the fast path for yield-heavy workloads.
    WorkStealing,
}

/// Consecutive slot pops a scheduler may serve before a subsequent push is
/// forced into the real deque, bounding how long a slot ping-pong pair can
/// shadow queued UCs.
const SLOT_FAIRNESS_LIMIT: u32 = 64;

/// Longest single sleep of an idle scheduler (it re-checks shutdown and
/// runs the stack scavenger once per pass).
const PARK_TIMEOUT: Duration = Duration::from_millis(20);

/// Injector shard count for `WorkStealing`: scale with the host but stay
/// small — each pop may scan all shards. `GlobalFifo` always uses 1.
fn ws_injector_shards() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
        .clamp(2, 16)
}

/// Thread-local registration of a scheduler with its runtime's queue.
struct LocalReg {
    /// Owning [`RunQueue`] identity (its address) so runtimes never mix.
    tag: usize,
    /// The scheduler's stealable local FIFO.
    deque: Arc<ParkQueue>,
    /// The single-slot next-UC handoff; visible only to the owning thread.
    slot: RefCell<Option<Arc<UcInner>>>,
    /// Consecutive pops served from the slot (fairness bookkeeping).
    slot_streak: Cell<u32>,
}

thread_local! {
    static LOCAL: RefCell<Option<LocalReg>> = const { RefCell::new(None) };
}

/// The queue of decoupled UCs awaiting dispatch by scheduler KCs, and the
/// parker idle schedulers sleep on.
#[derive(Debug)]
pub struct RunQueue {
    /// Sharded global injector: exactly one shard under `GlobalFifo` (exact
    /// FIFO), several padded shards under `WorkStealing` (see module docs).
    injector: Box<[ParkQueue]>,
    /// Round-robin cursor for injector pushes (multi-shard only).
    push_idx: AtomicUsize,
    /// Rotating start cursor for injector pop scans (multi-shard only).
    pop_idx: AtomicUsize,
    /// What idle schedulers sleep on; shared by every queue above and below.
    parker: Parker,
    policy: SchedPolicy,
    /// Every registered scheduler's deque, for stealing and global counts.
    locals: RwLock<Vec<Arc<ParkQueue>>>,
    /// The owning runtime's trace gate: when tracing is on, a push stamps
    /// the UC's `wait_since` so the dispatcher can histogram the queue
    /// delay. `None` (standalone queues) means no stamping.
    gate: Option<Arc<crate::trace::TraceGate>>,
}

impl RunQueue {
    /// A global-FIFO queue with the given idle policy.
    pub fn new(idle_policy: IdlePolicy) -> RunQueue {
        RunQueue::with_policy(idle_policy, SchedPolicy::GlobalFifo)
    }

    /// A queue with explicit idle and scheduling policies.
    pub fn with_policy(idle_policy: IdlePolicy, policy: SchedPolicy) -> RunQueue {
        let shards = match policy {
            SchedPolicy::GlobalFifo => 1,
            SchedPolicy::WorkStealing => ws_injector_shards(),
        };
        RunQueue {
            injector: (0..shards).map(|_| ParkQueue::default()).collect(),
            push_idx: AtomicUsize::new(0),
            pop_idx: AtomicUsize::new(0),
            parker: Parker::new(idle_policy, PARK_TIMEOUT),
            policy,
            locals: RwLock::new(Vec::new()),
            gate: None,
        }
    }

    /// Attach the runtime's trace gate (called once, while the runtime is
    /// still under construction and the queue has no other users).
    pub(crate) fn set_trace_gate(&mut self, gate: Arc<crate::trace::TraceGate>) {
        self.gate = Some(gate);
    }

    /// The queue's scheduling discipline.
    pub fn policy(&self) -> SchedPolicy {
        self.policy
    }

    #[inline]
    fn tag(&self) -> usize {
        self as *const RunQueue as usize
    }

    /// Register the calling scheduler thread as a work-stealing
    /// participant (no-op under `GlobalFifo`). The deque is published to
    /// the steal registry *before* the thread-local is set, so a UC pushed
    /// locally is stealable from the instant it can exist.
    pub fn register_local(&self) {
        if self.policy != SchedPolicy::WorkStealing {
            return;
        }
        let deque = Arc::new(ParkQueue::default());
        self.locals.write().push(deque.clone());
        LOCAL.with(|l| {
            *l.borrow_mut() = Some(LocalReg {
                tag: self.tag(),
                deque,
                slot: RefCell::new(None),
                slot_streak: Cell::new(0),
            });
        });
    }

    /// Drop the calling thread's local registration: the slot and any
    /// leftover deque entries spill to the injector (whose push wakes a
    /// sleeping scheduler — another one may be the only one left to run
    /// them), and the deque leaves the steal registry.
    pub fn unregister_local(&self) {
        let reg = LOCAL.with(|l| {
            let mut slot = l.borrow_mut();
            match slot.take() {
                Some(reg) if reg.tag == self.tag() => Some(reg),
                other => {
                    *slot = other;
                    None
                }
            }
        });
        let Some(reg) = reg else { return };
        if let Some(uc) = reg.slot.borrow_mut().take() {
            self.inject(uc);
        }
        while let Some(uc) = reg.deque.pop(false) {
            self.inject(uc);
        }
        self.locals.write().retain(|d| !Arc::ptr_eq(d, &reg.deque));
    }

    /// Enqueue on the injector: the single shard under `GlobalFifo`,
    /// round-robin otherwise.
    #[inline]
    fn inject(&self, uc: Arc<UcInner>) {
        let i = if self.injector.len() == 1 {
            0
        } else {
            self.push_idx.fetch_add(1, Ordering::Relaxed) % self.injector.len()
        };
        self.injector[i].push(uc, &self.parker);
    }

    /// Dequeue from the injector, scanning shards from a rotating start so
    /// no shard is systematically favored.
    #[inline]
    fn injector_pop(&self, biased: bool) -> Option<Arc<UcInner>> {
        let n = self.injector.len();
        let start = if n == 1 {
            0
        } else {
            self.pop_idx.fetch_add(1, Ordering::Relaxed) % n
        };
        (0..n).find_map(|k| self.injector[(start + k) % n].pop(biased))
    }

    /// Make a UC schedulable. On a registered scheduler thread under
    /// `WorkStealing` the UC lands in the next-UC slot (if free and the
    /// fairness budget allows) or the thread's local deque; otherwise in
    /// the global injector.
    pub fn push(&self, uc: Arc<UcInner>) {
        if let Some(g) = &self.gate {
            if g.is_on() {
                // Open the enqueue→dispatch span (one relaxed load when
                // tracing is off — the `gate` Option is a plain field).
                uc.stamp_enqueued(crate::trace::now_ns());
            }
        }
        let foreign = match self.policy {
            SchedPolicy::WorkStealing => self.push_local(uc),
            SchedPolicy::GlobalFifo => Some(uc),
        };
        if let Some(uc) = foreign {
            self.inject(uc);
        }
    }

    /// `WorkStealing`, on the queue's own registered scheduler thread: take
    /// `uc` into the next-UC slot or the local deque. Any other thread gets
    /// it back, for the injector.
    #[inline]
    fn push_local(&self, uc: Arc<UcInner>) -> Option<Arc<UcInner>> {
        LOCAL.with(|l| {
            let b = l.borrow();
            let Some(reg) = b.as_ref().filter(|reg| reg.tag == self.tag()) else {
                return Some(uc);
            };
            let mut slot = reg.slot.borrow_mut();
            if slot.is_none() && reg.slot_streak.get() < SLOT_FAIRNESS_LIMIT {
                // Slot handoff: the owner thread is awake by definition,
                // so no lock and no futex — zero shared-line traffic on
                // the yield ping-pong path.
                *slot = Some(uc);
                return None;
            }
            // Slot taken (or owed to the deque for fairness): use the
            // stealable local deque, whose push wakes a sleeping thief.
            drop(slot);
            reg.slot_streak.set(0);
            reg.deque.push(uc, &self.parker);
            None
        })
    }

    /// Pop the next runnable UC, if any: the thread's next-UC slot first,
    /// then its local deque, then the global injector, then steal from
    /// sibling schedulers.
    pub fn pop(&self) -> Option<Arc<UcInner>> {
        // Torture hook: a biased pop drains from the "wrong" end of each
        // queue and skips the slot fast path, so dispatch order degenerates
        // away from the engineered common case (no-op unless chaos armed).
        let biased = crate::chaos::bias_pop();
        if self.policy == SchedPolicy::WorkStealing {
            let local = LOCAL.with(|l| {
                let b = l.borrow();
                let reg = b.as_ref().filter(|reg| reg.tag == self.tag())?;
                if !biased {
                    if let Some(uc) = reg.slot.borrow_mut().take() {
                        reg.slot_streak.set(reg.slot_streak.get().saturating_add(1));
                        return Some(uc);
                    }
                }
                reg.slot_streak.set(0);
                // Biased pops bypassed the slot; don't strand its occupant.
                reg.deque
                    .pop(biased)
                    .or_else(|| reg.slot.borrow_mut().take())
            });
            if local.is_some() {
                return local;
            }
        }
        if let Some(uc) = self.injector_pop(biased) {
            return Some(uc);
        }
        if self.policy == SchedPolicy::WorkStealing {
            return self.locals.read().iter().find_map(|d| d.pop(biased));
        }
        None
    }

    /// The parker's version word; read *before* the emptiness check that
    /// precedes a [`RunQueue::park`].
    #[inline]
    pub fn version(&self) -> u32 {
        self.parker.version()
    }

    /// What idle schedulers wait on: coupled scopes register the wake their
    /// `decouple()` will be with it (`park.rs`, "The idle decision").
    #[inline]
    pub(crate) fn parker(&self) -> &Parker {
        &self.parker
    }

    /// Idle until woken (bounded; callers re-check in a loop): announce,
    /// re-check every queue under its lock, sleep — or spin one pass, per
    /// the idle policy (`Parker::park`).
    pub fn park(&self, seen: u32) -> Idled {
        self.parker.park(seen, || self.is_empty())
    }

    /// Bump the version word and wake every parked scheduler (used on
    /// shutdown so sleepers re-check the shutdown flag).
    pub fn wake_all(&self) {
        self.parker.poke();
    }

    fn own_slot_full(&self) -> bool {
        LOCAL.with(|l| {
            l.borrow()
                .as_ref()
                .filter(|reg| reg.tag == self.tag())
                .is_some_and(|reg| reg.slot.borrow().is_some())
        })
    }

    /// Whether any UC is runnable *from this thread's viewpoint*: the
    /// injector, any registered deque, or — on a registered scheduler
    /// thread — its own next-UC slot (other threads cannot see a foreign
    /// slot; its owner drains it before it can ever park or exit). Each
    /// queue is checked under its lock: this is the re-check an idle
    /// scheduler makes before it sleeps.
    pub fn is_empty(&self) -> bool {
        if !self.injector.iter().all(ParkQueue::is_empty_locked) {
            return false;
        }
        if self.policy == SchedPolicy::WorkStealing {
            return !self.own_slot_full() && self.locals.read().iter().all(|d| d.is_empty_locked());
        }
        true
    }

    /// Runnable UCs currently queued (injector plus local deques), from
    /// the queues' length mirrors — no lock taken.
    pub fn len(&self) -> usize {
        let mut n: usize = self.injector.iter().map(ParkQueue::len).sum();
        if self.policy == SchedPolicy::WorkStealing {
            n += self.locals.read().iter().map(|d| d.len()).sum::<usize>();
            n += self.own_slot_full() as usize;
        }
        n
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::tls::TlsStorage;
    use crate::uc::{BltId, KcShared, OneShot, UcKind};
    use parking_lot::Mutex;
    use std::cell::UnsafeCell;
    use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, AtomicU8};
    use ulp_fcontext::RawContext;
    use ulp_kernel::process::Pid;

    pub(crate) fn dummy_uc(id: u64) -> Arc<UcInner> {
        Arc::new(UcInner {
            id: BltId(id),
            name: format!("uc{id}"),
            kind: UcKind::Primary,
            ctx: UnsafeCell::new(RawContext::null()),
            kc: Arc::new(KcShared::new(IdlePolicy::BusyWait)),
            pid: Pid(0),
            coupled: AtomicBool::new(true),
            state: AtomicU8::new(0),
            tls: TlsStorage::new(),
            errno: std::sync::atomic::AtomicI32::new(0),
            rt: std::sync::Weak::new(),
            sib_stack: Mutex::new(None),
            sib_entry: Mutex::new(None),
            sib_result: Arc::new(OneShot::new()),
            sigmask: crate::uc::SigMaskCell::new(ulp_kernel::SigSet::EMPTY),
            wait_since: AtomicU64::new(0),
            wake_from: AtomicU64::new(0),
            spawn_ns: 0,
            qlink: crate::park::QLink::new(),
            phases: crate::park::Phases::new(),
        })
    }

    #[test]
    fn fifo_order_single_consumer() {
        let q = RunQueue::new(IdlePolicy::BusyWait);
        for i in 0..10 {
            q.push(dummy_uc(i));
        }
        assert_eq!(q.len(), 10);
        for i in 0..10 {
            assert_eq!(q.pop().unwrap().id, BltId(i));
        }
        assert!(q.pop().is_none());
        assert!(q.is_empty());
    }

    /// The version word is a wake-up ticket, not a push counter: it moves
    /// when a push finds a scheduler announced asleep, and on `wake_all`.
    #[test]
    fn version_moves_only_for_a_sleeper_or_wake_all() {
        let q = Arc::new(RunQueue::new(IdlePolicy::Blocking));
        let v = q.version();
        q.push(dummy_uc(1));
        assert_eq!(q.version(), v, "nobody announced: the push is silent");
        assert_eq!(q.pop().unwrap().id, BltId(1));
        q.wake_all();
        assert_eq!(q.version(), v + 1, "wake_all always bumps");

        let q2 = q.clone();
        let sleeper = std::thread::spawn(move || loop {
            let seen = q2.version();
            if let Some(uc) = q2.pop() {
                return uc.id;
            }
            q2.park(seen);
        });
        while q.parker().announced() == 0 {
            std::thread::yield_now();
        }
        let v = q.version();
        q.push(dummy_uc(2));
        assert!(q.version() > v, "an announced sleeper gets a ticket");
        assert_eq!(sleeper.join().unwrap(), BltId(2));
    }

    #[test]
    fn park_returns_promptly_when_queue_non_empty() {
        let q = RunQueue::new(IdlePolicy::Blocking);
        let seen = q.version();
        q.push(dummy_uc(1)); // silent, but the locked re-check sees it
        let t = std::time::Instant::now();
        q.park(seen);
        assert!(t.elapsed() < PARK_TIMEOUT / 2);
    }

    #[test]
    fn blocking_park_woken_by_push() {
        let q = Arc::new(RunQueue::new(IdlePolicy::Blocking));
        let q2 = q.clone();
        let t = std::thread::spawn(move || {
            let seen = q2.version();
            if q2.pop().is_none() {
                q2.park(seen);
            }
            // Either we were woken or timed out; the UC must be visible now.
            q2.pop()
        });
        std::thread::sleep(Duration::from_millis(10));
        q.push(dummy_uc(7));
        let got = t.join().unwrap();
        assert_eq!(got.unwrap().id, BltId(7));
    }

    #[test]
    fn concurrent_producers_consumers_drain_exactly() {
        let q = Arc::new(RunQueue::new(IdlePolicy::BusyWait));
        let total = 1000u64;
        let producers: Vec<_> = (0..4)
            .map(|p| {
                let q = q.clone();
                std::thread::spawn(move || {
                    for i in 0..(total / 4) {
                        q.push(dummy_uc(p * 1000 + i));
                    }
                })
            })
            .collect();
        let drained = Arc::new(AtomicU32::new(0));
        let consumers: Vec<_> = (0..4)
            .map(|_| {
                let q = q.clone();
                let drained = drained.clone();
                std::thread::spawn(move || loop {
                    if q.pop().is_some() {
                        if drained.fetch_add(1, Ordering::AcqRel) + 1 == total as u32 {
                            return;
                        }
                    } else if drained.load(Ordering::Acquire) >= total as u32 {
                        return;
                    } else {
                        std::hint::spin_loop();
                    }
                })
            })
            .collect();
        for p in producers {
            p.join().unwrap();
        }
        for c in consumers {
            c.join().unwrap();
        }
        assert_eq!(drained.load(Ordering::Acquire), total as u32);
        assert!(q.is_empty());
    }
    /// 4 producers × 2 consumers under `GlobalFifo`/`Blocking`: every UC
    /// popped exactly once, each producer's UCs in the order it pushed them
    /// (as seen by any one consumer), and every producer descheduled inside
    /// each of its critical sections, so the consumers — and the other
    /// producers — wait on a lock whose holder is not running.
    #[test]
    fn hammer_exactly_once_in_producer_order() {
        const PRODUCERS: u64 = 4;
        const PER: u64 = 5_000;
        let q = Arc::new(RunQueue::new(IdlePolicy::Blocking));
        let done = Arc::new(AtomicBool::new(false));
        let consumers: Vec<_> = (0..2)
            .map(|_| {
                let (q, done) = (q.clone(), done.clone());
                std::thread::spawn(move || {
                    let mut got = Vec::new();
                    loop {
                        let seen = q.version();
                        if let Some(uc) = q.pop() {
                            got.push(uc.id.0);
                        } else if done.load(Ordering::SeqCst) {
                            return got;
                        } else {
                            q.park(seen);
                        }
                    }
                })
            })
            .collect();
        let producers: Vec<_> = (0..PRODUCERS)
            .map(|p| {
                let q = q.clone();
                std::thread::spawn(move || {
                    crate::park::tests::yield_as_lock_holder(true);
                    for i in 0..PER {
                        q.push(dummy_uc(p << 32 | i));
                    }
                })
            })
            .collect();
        for p in producers {
            p.join().unwrap();
        }
        done.store(true, Ordering::SeqCst);
        q.wake_all();
        let mut all = Vec::new();
        for c in consumers {
            let got = c.join().unwrap();
            for p in 0..PRODUCERS {
                let mine: Vec<u64> = got.iter().copied().filter(|id| id >> 32 == p).collect();
                assert!(
                    mine.windows(2).all(|w| w[0] < w[1]),
                    "producer {p}'s UCs overtook each other"
                );
            }
            all.extend(got);
        }
        all.sort_unstable();
        let want: Vec<u64> = (0..PRODUCERS)
            .flat_map(|p| (0..PER).map(move |i| p << 32 | i))
            .collect();
        assert_eq!(all, want, "lost or duplicated UCs");
        assert!(q.is_empty());
    }
}

#[cfg(test)]
mod ws_tests {
    use super::*;
    use crate::uc::IdlePolicy;
    use std::sync::atomic::AtomicBool;

    fn uc(id: u64) -> Arc<UcInner> {
        super::tests::dummy_uc(id)
    }

    #[test]
    fn ws_local_push_pop_on_registered_thread() {
        let q = RunQueue::with_policy(IdlePolicy::BusyWait, SchedPolicy::WorkStealing);
        q.register_local();
        q.push(uc(1)); // slot
        q.push(uc(2)); // deque (slot taken)
                       // Local FIFO order: slot first, then the deque.
        assert_eq!(q.pop().unwrap().id.0, 1);
        assert_eq!(q.pop().unwrap().id.0, 2);
        assert!(q.pop().is_none());
        q.unregister_local();
    }

    #[test]
    fn ws_foreign_thread_pushes_to_injector_and_owner_pops() {
        let q = Arc::new(RunQueue::with_policy(
            IdlePolicy::BusyWait,
            SchedPolicy::WorkStealing,
        ));
        q.register_local();
        let q2 = q.clone();
        std::thread::spawn(move || q2.push(uc(7))).join().unwrap();
        assert_eq!(q.pop().unwrap().id.0, 7);
        q.unregister_local();
    }

    #[test]
    fn ws_steals_from_sibling_workers() {
        let q = Arc::new(RunQueue::with_policy(
            IdlePolicy::BusyWait,
            SchedPolicy::WorkStealing,
        ));
        // "Scheduler A" registers and leaves work behind; unregistering
        // spills both the slot and the deque to the injector.
        let qa = q.clone();
        std::thread::spawn(move || {
            qa.register_local();
            qa.push(uc(11));
            qa.push(uc(12));
            qa.unregister_local();
        })
        .join()
        .unwrap();
        // "Scheduler B" finds the spilled work via the injector.
        q.register_local();
        let got: Vec<u64> = std::iter::from_fn(|| q.pop().map(|u| u.id.0)).collect();
        assert_eq!(got.len(), 2);
        assert!(got.contains(&11) && got.contains(&12));
        q.unregister_local();
    }

    #[test]
    fn ws_len_and_is_empty_span_all_queues() {
        let q = RunQueue::with_policy(IdlePolicy::BusyWait, SchedPolicy::WorkStealing);
        q.register_local();
        assert!(q.is_empty());
        q.push(uc(1)); // slot
        assert!(!q.is_empty());
        assert_eq!(q.len(), 1);
        q.push(uc(2)); // deque
        assert_eq!(q.len(), 2);
        q.pop();
        q.pop();
        q.unregister_local();
    }

    #[test]
    fn global_fifo_ignores_registration() {
        let q = RunQueue::new(IdlePolicy::BusyWait);
        assert_eq!(q.policy(), SchedPolicy::GlobalFifo);
        q.register_local(); // no-op
        q.push(uc(3));
        assert_eq!(q.pop().unwrap().id.0, 3);
    }

    #[test]
    fn ws_slot_fairness_spills_to_deque() {
        let q = RunQueue::with_policy(IdlePolicy::BusyWait, SchedPolicy::WorkStealing);
        q.register_local();
        // A queued straggler that a naive slot ping-pong would starve.
        q.push(uc(999)); // slot
        q.push(uc(1000)); // deque (slot taken): the straggler
        assert_eq!(q.pop().unwrap().id.0, 999);
        // Ping-pong: push to the (now free) slot, pop it back, repeatedly.
        // The fairness budget must eventually force a push past the slot so
        // the straggler surfaces.
        let mut popped = Vec::new();
        for i in 0..(2 * SLOT_FAIRNESS_LIMIT as u64) {
            q.push(uc(i));
            popped.push(q.pop().unwrap().id.0);
        }
        assert!(
            popped.contains(&1000),
            "straggler never surfaced through the slot ping-pong: {popped:?}"
        );
        while q.pop().is_some() {}
        q.unregister_local();
    }

    #[test]
    fn injector_shard_counts_follow_policy() {
        let fifo = RunQueue::new(IdlePolicy::BusyWait);
        assert_eq!(fifo.injector.len(), 1, "GlobalFifo must stay exact-FIFO");
        let ws = RunQueue::with_policy(IdlePolicy::BusyWait, SchedPolicy::WorkStealing);
        assert!(
            (2..=16).contains(&ws.injector.len()),
            "WS shard count {} out of range",
            ws.injector.len()
        );
    }

    #[test]
    fn ws_sharded_injector_loses_nothing_under_foreign_pushes() {
        // Foreign (unregistered) threads push round-robin across the
        // shards; every UC must be reachable from an unregistered popper
        // and the counts must reconcile.
        let q = Arc::new(RunQueue::with_policy(
            IdlePolicy::BusyWait,
            SchedPolicy::WorkStealing,
        ));
        let total = 4 * 64;
        let producers: Vec<_> = (0..4u64)
            .map(|p| {
                let q = q.clone();
                std::thread::spawn(move || {
                    for i in 0..64u64 {
                        q.push(super::tests::dummy_uc(p * 1000 + i));
                    }
                })
            })
            .collect();
        for p in producers {
            p.join().unwrap();
        }
        assert_eq!(q.len(), total);
        let mut seen = std::collections::HashSet::new();
        while let Some(u) = q.pop() {
            assert!(seen.insert(u.id.0), "duplicate pop of {}", u.id.0);
        }
        assert_eq!(seen.len(), total);
        assert!(q.is_empty());
    }

    /// Regression test for the wake protocol across queues: a scheduler
    /// parked BLOCKING must be woken promptly by a push that lands in
    /// *another* thread's local deque — that deque's push must see the
    /// sleeper even though the UC never touches the injector.
    #[test]
    fn ws_parked_scheduler_wakes_on_local_deque_push() {
        let q = Arc::new(RunQueue::with_policy(
            IdlePolicy::Blocking,
            SchedPolicy::WorkStealing,
        ));
        let parked = Arc::new(AtomicBool::new(false));

        let qb = q.clone();
        let parked_b = parked.clone();
        let sleeper = std::thread::spawn(move || {
            let seen = qb.version();
            assert!(qb.pop().is_none());
            parked_b.store(true, Ordering::Release);
            let t0 = std::time::Instant::now();
            qb.park(seen);
            let waited = t0.elapsed();
            // Steal the UC out of the producer's deque.
            let got = loop {
                if let Some(uc) = qb.pop() {
                    break uc;
                }
                std::hint::spin_loop();
            };
            (waited, got.id.0)
        });

        let qa = q.clone();
        let producer = std::thread::spawn(move || {
            qa.register_local();
            while !parked.load(Ordering::Acquire) {
                std::hint::spin_loop();
            }
            // Give the sleeper time to actually reach the futex.
            std::thread::sleep(Duration::from_millis(2));
            qa.push(uc(1)); // slot — no wake needed, owner is this thread
            qa.push(uc(2)); // local deque — MUST wake the sleeper
                            // Drain our slot so unregister doesn't spill it.
            assert_eq!(qa.pop().unwrap().id.0, 1);
            qa.unregister_local();
        });

        let (waited, got) = sleeper.join().unwrap();
        producer.join().unwrap();
        assert_eq!(got, 2);
        // A missed wake would ride the full 20 ms park timeout; a correct
        // push cuts the park short.
        assert!(
            waited < Duration::from_millis(15),
            "sleeper only woke after {waited:?} — wake was missed"
        );
    }
}
